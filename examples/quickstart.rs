//! Quickstart: schedule one epoch of shards with the SE algorithm.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds an epoch of 50 committee shards from the synthetic Bitcoin-like
//! trace, formulates the MVCom problem with the paper's defaults, runs the
//! Stochastic-Exploration scheduler, and prints the admitted committees
//! with their contribution and age.

use mvcom::prelude::*;

fn main() -> Result<()> {
    const SEED: u64 = 2021;
    const COMMITTEES: usize = 50;

    // 1. Dataset: a Jan-2016-like block trace, sampled into one shard per
    //    member committee (TX count + two-phase latency).
    let trace = Trace::generate(TraceConfig::jan_2016(), SEED);
    println!(
        "trace: {} blocks, {} TXs total, {:.0} TXs/block",
        trace.blocks().len(),
        trace.total_txs(),
        trace.mean_txs()
    );
    let mut epochs = EpochGenerator::new(&trace, LatencyConfig::paper(), SEED);
    let shards = epochs.next_epoch_with_replacement(COMMITTEES, 1)?;

    // 2. Problem: α = 1.5, Ĉ = 1000·|I|, N_min = 50%·|I| (paper §VI-A).
    let instance = InstanceBuilder::new()
        .alpha(1.5)
        .capacity(1_000 * COMMITTEES as u64)
        .n_min(COMMITTEES / 2)
        .shards(shards)
        .build()?;
    println!(
        "instance: |I| = {}, Ĉ = {}, N_min = {}, DDL = {}",
        instance.len(),
        instance.capacity(),
        instance.n_min(),
        instance.ddl()
    );

    // 3. Schedule with Stochastic Exploration (Γ = 10, β = 2, τ = 0).
    let outcome = SeEngine::new(&instance, SeConfig::paper(SEED))?.run();
    println!(
        "SE converged after {} iterations (converged = {})",
        outcome.iterations, outcome.converged
    );
    println!(
        "utility = {:.1}, admitted {} / {} committees, {} / {} TXs",
        outcome.best_utility,
        outcome.best_solution.selected_count(),
        instance.len(),
        outcome.best_solution.tx_total(),
        instance.capacity()
    );
    println!(
        "cumulative age = {:.1} s, valuable degree = {:.2}",
        instance.cumulative_age(&outcome.best_solution),
        instance.valuable_degree(&outcome.best_solution)
    );

    // 4. The admitted committees, most valuable first.
    let mut admitted: Vec<usize> = outcome.best_solution.iter_selected().collect();
    admitted.sort_by(|&a, &b| {
        instance
            .marginal_utility(b)
            .total_cmp(&instance.marginal_utility(a))
    });
    println!("\n  committee      txs    latency      age   marginal-utility");
    for i in admitted.iter().take(10) {
        let s = &instance.shards()[*i];
        println!(
            "  {:<12} {:>6} {:>9.1}s {:>7.1}s {:>13.1}",
            s.committee().to_string(),
            s.tx_count(),
            s.two_phase_latency().as_secs(),
            instance.age(*i),
            instance.marginal_utility(*i)
        );
    }
    if admitted.len() > 10 {
        println!("  … and {} more", admitted.len() - 10);
    }
    Ok(())
}
