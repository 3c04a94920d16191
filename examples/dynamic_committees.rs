//! Online committee dynamics: failures, recoveries and consecutive joins.
//!
//! ```text
//! cargo run --release --example dynamic_committees
//! ```
//!
//! Reproduces the scenarios of paper Figs. 9 and 14 interactively: the SE
//! engine runs while committees leave (fail) and join mid-epoch, and the
//! utility perturbation around each event is printed together with the
//! Theorem 2 bound.

#![expect(
    clippy::expect_used,
    reason = "an example aborts with a message if its premise fails"
)]
use mvcom::core::theory;
use mvcom::prelude::*;

const SEED: u64 = 9;

fn build_epoch(committees: usize) -> Result<Instance> {
    let trace = Trace::generate(TraceConfig::tiny(400), SEED);
    let mut epochs = EpochGenerator::new(&trace, LatencyConfig::paper(), SEED);
    let shards = epochs.next_epoch_with_replacement(committees, 1)?;
    InstanceBuilder::new()
        .alpha(1.5)
        .capacity(800 * committees as u64) // Ĉ = 40K at |I| = 50, as in Fig. 9(a)
        .n_min(committees / 2)
        .shards(shards)
        .build()
}

fn main() -> Result<()> {
    let instance = build_epoch(50)?;
    println!(
        "epoch: |I| = {}, Ĉ = {}, N_min = {}",
        instance.len(),
        instance.capacity(),
        instance.n_min()
    );

    // Scenario A (Fig. 9(a)): a committee fails mid-run, then recovers.
    let victim = instance.shards()[10].committee();
    let victim_shard = instance.shards()[10];
    let events = vec![
        TimedEvent::leave(400, victim),
        TimedEvent::join(900, victim_shard),
    ];
    println!("\n-- scenario A: {victim} fails at iteration 400, rejoins at 900 --");
    for policy in [DynamicsPolicy::Trim, DynamicsPolicy::Reinitialize] {
        let config = SeConfig {
            max_iterations: 1_500,
            convergence_window: 0,
            ..SeConfig::paper(SEED)
        };
        let online = run_online(&instance, config, &events, policy)?;
        println!("policy {policy:?}:");
        for e in &online.events {
            let kind = if e.is_join { "join " } else { "leave" };
            println!(
                "  {kind} @ {:>4}: utility {:>10.1} → {:>10.1}  (perturbation {:>9.1}, Theorem 2 bound {:>10.1})",
                e.at_iteration,
                e.utility_before,
                e.utility_after,
                (e.utility_before - e.utility_after).abs(),
                theory::perturbation_bound(e.utility_before.max(e.utility_after)).abs(),
            );
        }
        println!(
            "  final: utility {:.1} with {} committees admitted",
            online.outcome.best_utility,
            online.outcome.best_solution.selected_count()
        );
    }

    // Scenario B (Fig. 14): 23 consecutive joins.
    println!("\n-- scenario B: 23 committees join consecutively --");
    let base = build_epoch(27)?;
    let trace = Trace::generate(TraceConfig::tiny(400), SEED + 1);
    let mut gen = EpochGenerator::new(&trace, LatencyConfig::paper(), SEED + 1);
    // Fresh committee ids beyond the base epoch's range.
    let joins: Vec<TimedEvent> = (0..23)
        .map(|k| {
            let shard = gen.joining_shard(1).expect("joining shard");
            let relabeled = ShardInfo::new(
                CommitteeId(1_000 + k as u32),
                shard.tx_count(),
                shard.latency(),
            );
            TimedEvent::join(100 + 60 * k as u64, relabeled)
        })
        .collect();
    let config = SeConfig {
        max_iterations: 2_200,
        convergence_window: 0,
        ..SeConfig::paper(SEED)
    };
    let online = run_online(&base, config, &joins, DynamicsPolicy::Reinitialize)?;
    println!(
        "applied {} joins; epoch grew 27 → {} committees",
        online.events.len(),
        online.outcome.best_solution.len()
    );
    for chunk in online.events.chunks(6) {
        let line: Vec<String> = chunk
            .iter()
            .map(|e| format!("@{}→{:.0}", e.at_iteration, e.utility_after))
            .collect();
        println!("  {}", line.join("  "));
    }
    println!(
        "final utility {:.1} with {} committees admitted",
        online.outcome.best_utility,
        online.outcome.best_solution.selected_count()
    );
    Ok(())
}
