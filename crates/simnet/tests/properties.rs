//! Property-based tests for the discrete-event substrate.

#![expect(clippy::float_cmp, reason = "asserts bit-identical floats")]
use mvcom_simnet::event::EventQueue;
use mvcom_simnet::stats::{Ecdf, Summary};
use mvcom_simnet::{
    rng, ChaosConfig, ChaosInjector, CrashEvent, LatencyModel, Network, NetworkConfig,
};
use mvcom_types::{NodeId, SimTime};
use proptest::prelude::*;

/// The heap-per-event queue `EventQueue` replaced, and the driver that
/// runs one schedule through both.
#[path = "../src/event/reference.rs"]
mod reference;

proptest! {
    #[test]
    fn event_queue_pops_like_the_heap_per_event_queue(seed in any::<u64>()) {
        let ops = reference::random_ops(&mut rng::master(seed), 400);
        reference::assert_same_schedule(&ops);
    }

    #[test]
    fn event_queue_pops_in_stable_time_order(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let mut queue = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            queue.push(SimTime::from_secs(t), i);
        }
        // Reference: stable sort by time (preserves insertion order on ties).
        let mut expected: Vec<(SimTime, usize)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (SimTime::from_secs(t), i))
            .collect();
        expected.sort_by_key(|&(t, _)| t);
        let mut got = Vec::new();
        while let Some(item) = queue.pop() {
            got.push(item);
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn summary_matches_naive_statistics(xs in proptest::collection::vec(-1e6f64..1e6, 2..300)) {
        let s: Summary = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
        prop_assert_eq!(s.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn summary_merge_is_order_independent(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
        ys in proptest::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let mut ab: Summary = xs.iter().copied().collect();
        ab.merge(&ys.iter().copied().collect());
        let mut ba: Summary = ys.iter().copied().collect();
        ba.merge(&xs.iter().copied().collect());
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9 * (1.0 + ab.mean().abs()));
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-6 * (1.0 + ab.variance().abs()));
    }

    #[test]
    fn ecdf_is_a_distribution_function(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = Ecdf::from_samples(xs.clone());
        // Bounds.
        prop_assert_eq!(cdf.eval(f64::NEG_INFINITY), 0.0);
        prop_assert_eq!(cdf.eval(f64::INFINITY), 1.0);
        // Monotone in the query point.
        let lo = cdf.eval(-1e5);
        let hi = cdf.eval(1e5);
        prop_assert!(lo <= hi);
        // Quantile/eval consistency at the median.
        let med = cdf.quantile(0.5);
        prop_assert!(cdf.eval(med) >= 0.5);
    }

    #[test]
    fn latency_models_sample_non_negative(seed in 0u64..1_000, pick in 0usize..4) {
        let model = match pick {
            0 => LatencyModel::constant(1.5).unwrap(),
            1 => LatencyModel::shifted_exponential(0.030, 0.020).unwrap(),
            2 => LatencyModel::exponential(600.0).unwrap(),
            _ => LatencyModel::log_normal(54.5, 15.0).unwrap(),
        };
        let mut r = rng::master(seed);
        for _ in 0..50 {
            prop_assert!(model.sample(&mut r) >= SimTime::ZERO);
        }
    }

    #[test]
    fn network_delivery_times_are_causal(seed in 0u64..500, sends in 1usize..50) {
        let mut net = Network::new(NetworkConfig::wan(6), rng::master(seed)).unwrap();
        let mut now = SimTime::ZERO;
        for k in 0..sends {
            now += SimTime::from_secs(0.5);
            let from = NodeId((k % 6) as u32);
            let to = NodeId(((k + 1) % 6) as u32);
            let arrival = net.send(from, to, 100, now);
            prop_assert!(arrival.is_some_and(|a| a > now), "no fault installed, yet {arrival:?}");
        }
    }

    #[test]
    fn chaos_conserves_message_accounting(
        seed in 0u64..500,
        drop_prob in 0.0f64..1.0,
        sends in 1usize..80,
        crash_at in 0u32..100,
    ) {
        // Whatever loss the injector applies, every `send` that returns
        // `None` is counted exactly once, as a lossy drop or an outage
        // drop, and nothing sent to or from a crashed node gets through.
        let crashed = NodeId(2);
        let crash_at = SimTime::from_secs(f64::from(crash_at));
        let config = ChaosConfig::lossy(drop_prob).with_crash(CrashEvent::permanent(crashed, crash_at));
        let mut net = Network::new(NetworkConfig::wan(5), rng::master(seed)).unwrap();
        net.set_chaos(ChaosInjector::new(config, rng::master(seed ^ 0xC4A0)).unwrap());
        let mut refused = 0;
        for k in 0..sends {
            let from = NodeId((k % 5) as u32);
            let to = NodeId(((k + 2) % 5) as u32);
            let at = SimTime::from_secs(k as f64);
            let arrival = net.send(from, to, 64, at);
            if at >= crash_at && (from == crashed || to == crashed) {
                prop_assert!(arrival.is_none(), "a crashed node delivered at {at}");
            }
            refused += u64::from(arrival.is_none());
        }
        let chaos = net.chaos_stats().expect("injector installed");
        prop_assert_eq!(chaos.dropped + chaos.crash_dropped, refused);
        if drop_prob == 0.0 {
            prop_assert_eq!(chaos.dropped, 0);
        }
    }
}
