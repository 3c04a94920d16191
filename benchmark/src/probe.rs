//! Micro-measurements of layers the shadow pipelines cannot see into from
//! one call: the SE proposal loop replayed on a workload's own instance
//! through `Chain`/`EvalCache`, and `EventQueue` at an epoch's event count.

use std::collections::BTreeMap;
use std::time::Instant;

use mvcom_core::eval::EvalCache;
use mvcom_core::se::chain::Chain;
use mvcom_simnet::event::EventQueue;
use mvcom_types::SimTime;

use crate::inputs::SplitMix;
use crate::workloads::ProbeTarget;

/// Chains the SE probe cycles over (one replica's worth at scale).
const PROBE_CHAINS: usize = 40;

/// Nanoseconds per call of `f` over `calls` calls.
fn ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Replays the SE inner loop on `instance` through `Chain`/`EvalCache`:
/// cache construction, swap-pair sampling, delta evaluation, commit, and
/// `Chain::propose`/`race`/`apply` around them. The calls cycle over a
/// family of up to [`PROBE_CHAINS`] chains spread across the feasible
/// cardinalities, as one engine round visits every chain in turn — a
/// single chain would sit in cache and understate the large-instance
/// cost several-fold.
pub fn se_probe(target: &ProbeTarget, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let (instance, config) = (&target.instance, &target.config);
    let lo = instance.n_min().max(1);
    let hi = instance
        .max_feasible_cardinality()
        .min(instance.len().saturating_sub(1));
    if lo > hi {
        return Ok(());
    }
    let mut rng = mvcom_simnet::rng::master(config.seed ^ 0x5E_9B0B);
    let family = (hi - lo + 1).min(config.max_chains).min(PROBE_CHAINS);
    let mut chains = Vec::with_capacity(family);
    for k in 0..family {
        let n = lo
            + if family > 1 {
                k * (hi - lo) / (family - 1)
            } else {
                0
            };
        match Chain::init(instance, n, config, &mut rng) {
            Ok(chain) => chains.push(chain),
            // A cardinality no subset fits is skipped, as the engine does.
            Err(mvcom_types::Error::Infeasible { .. }) => {}
            Err(e) => return Err(format!("probe chain: {e}")),
        }
    }
    if chains.is_empty() {
        return Ok(());
    }
    // Sized so the whole probe stays around a second at |I| = 50 000.
    let big = instance.len() > 10_000;
    let calls = if big { 20_000 } else { 50_000 };

    let solutions: Vec<_> = chains.iter().map(|c| c.solution().clone()).collect();
    let start = Instant::now();
    let mut caches: Vec<EvalCache> = solutions
        .iter()
        .map(|s| EvalCache::new(instance, s))
        .collect();
    out.insert(
        "eval.cache_new_us",
        start.elapsed().as_nanos() as f64 / 1e3 / caches.len() as f64,
    );
    let mut pairs = Vec::with_capacity(calls);
    let start = Instant::now();
    for call in 0..calls {
        let k = call % caches.len();
        let (Some(o), Some(i)) = (
            caches[k].random_selected(&solutions[k], &mut rng),
            caches[k].random_unselected(&solutions[k], &mut rng),
        ) else {
            return Err("probe: a chain has nothing to swap".to_string());
        };
        pairs.push((k, o, i));
    }
    out.insert(
        "eval.sample_ns",
        start.elapsed().as_nanos() as f64 / (2 * calls) as f64,
    );
    let mut next = pairs.iter();
    out.insert(
        "eval.swap_delta_ns",
        ns_per_call(calls, || {
            let &(k, o, i) = next.next().expect("one pair per call");
            std::hint::black_box(caches[k].swap_delta(instance, &solutions[k], o, i));
        }),
    );
    // Commit then undo, so each cache keeps mirroring its solution.
    let mut next = pairs.iter();
    out.insert(
        "eval.swap_commit_ns",
        ns_per_call(calls, || {
            let &(k, o, i) = next.next().expect("one pair per call");
            caches[k].swap(o, i);
            caches[k].swap(i, o);
        }) / 2.0,
    );
    drop(caches);

    let mut hits = 0usize;
    let mut turn = 0usize;
    out.insert(
        "chain.propose_ns",
        ns_per_call(calls, || {
            turn = (turn + 1) % chains.len();
            hits += usize::from(chains[turn].propose(instance, config, &mut rng).is_some());
        }),
    );
    out.insert("chain.propose_hit_ratio", hits as f64 / calls as f64);
    let races = (calls / config.proposal_fanout.max(1)).max(chains.len());
    let mut race_ns = 0u128;
    let mut apply_ns = 0u128;
    let mut applied = 0u64;
    let built = chains.len();
    for race in 0..races {
        let chain = &mut chains[race % built];
        let start = Instant::now();
        let proposal = chain.race(instance, config, &mut rng);
        race_ns += start.elapsed().as_nanos();
        if let Some(proposal) = proposal {
            let start = Instant::now();
            chain.apply(&proposal, instance);
            apply_ns += start.elapsed().as_nanos();
            applied += 1;
        }
    }
    out.insert("chain.race_ns", race_ns as f64 / races as f64);
    out.insert("chain.apply_ns", apply_ns as f64 / applied.max(1) as f64);
    Ok(())
}

/// Push-then-pop of `events` events with seed-free pseudo-random times:
/// nanoseconds per event through `EventQueue`.
pub fn queue_ns_per_event(events: usize) -> f64 {
    if events == 0 {
        return 0.0;
    }
    let mut times = SplitMix::new(events as u64);
    let mut queue: EventQueue<u32> = EventQueue::with_capacity(events);
    let start = Instant::now();
    for i in 0..events {
        queue.push(SimTime::from_secs(times.unit() * 100.0), i as u32);
    }
    while let Some(event) = queue.pop() {
        std::hint::black_box(event);
    }
    start.elapsed().as_nanos() as f64 / events as f64
}
