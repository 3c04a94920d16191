//! Property-based tests for the discrete-event substrate.

#![expect(clippy::float_cmp, reason = "asserts bit-identical floats")]
use mvcom_simnet::event::EventQueue;
use mvcom_simnet::stats::{Ecdf, Summary};
use mvcom_simnet::{rng, ChaosConfig, ChaosInjector, LatencyModel, Network, NetworkConfig};
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
            1 => LatencyModel::uniform(0.5, 2.0).unwrap(),
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
            if let Some(arrival) = net.send(from, to, 100, now) {
                prop_assert!(arrival > now, "message arrived before it was sent");
            }
        }
        prop_assert_eq!(net.stats().delivered, sends as u64);
    }

    #[test]
    fn chaos_conserves_message_accounting(
        seed in 0u64..500,
        drop_prob in 0.0f64..1.0,
        sends in 1usize..80,
    ) {
        // Whatever loss the injector applies, every `send` call lands in
        // exactly one bucket: delivered + dropped == sends, and chaos can
        // only ever claim messages that were counted as dropped.
        let mut net = Network::new(NetworkConfig::wan(5), rng::master(seed)).unwrap();
        net.set_chaos(
            ChaosInjector::new(ChaosConfig::lossy(drop_prob), rng::master(seed ^ 0xC4A0)).unwrap(),
        );
        for k in 0..sends {
            let from = NodeId((k % 5) as u32);
            let to = NodeId(((k + 2) % 5) as u32);
            net.send(from, to, 64, SimTime::from_secs(k as f64));
        }
        let stats = net.stats();
        prop_assert_eq!(stats.delivered + stats.dropped, sends as u64);
        prop_assert!(stats.chaos_dropped <= stats.dropped);
        let chaos = net.chaos_stats().expect("injector installed");
        prop_assert_eq!(chaos.dropped + chaos.crash_dropped, stats.chaos_dropped);
        if drop_prob == 0.0 {
            prop_assert_eq!(stats.chaos_dropped, 0);
        }
    }

    #[test]
    fn crashed_nodes_never_deliver(seed in 0u64..200) {
        let mut net = Network::new(NetworkConfig::lan(4), rng::master(seed)).unwrap();
        net.crash(NodeId(2));
        for k in 0..20u64 {
            let from = NodeId((k % 4) as u32);
            let result = net.send(from, NodeId(2), 10, SimTime::ZERO);
            prop_assert!(result.is_none());
        }
    }
}
