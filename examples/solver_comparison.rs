//! SE against the paper's baselines on one epoch.
//!
//! ```text
//! cargo run --release --example solver_comparison
//! ```
//!
//! Builds a 100-committee epoch and lets every solver — SE, Simulated
//! Annealing, knapsack DP, Whale Optimization, greedy, and (instance
//! permitting) the exhaustive optimum — schedule it, printing utility,
//! admitted committees, TX throughput, cumulative age and the paper's
//! Valuable Degree metric side by side.

#![expect(
    clippy::expect_used,
    reason = "an example aborts with a message if its premise fails"
)]
use mvcom::baselines::{dp::DpConfig, sa::SaConfig, woa::WoaConfig};
use mvcom::prelude::*;

const SEED: u64 = 42;
const COMMITTEES: usize = 100;

struct Row {
    name: &'static str,
    utility: f64,
    admitted: usize,
    txs: u64,
    age: f64,
    valuable: f64,
}

fn row(name: &'static str, instance: &Instance, solution: &Solution) -> Row {
    Row {
        name,
        utility: instance.utility(solution),
        admitted: solution.selected_count(),
        txs: solution.tx_total(),
        age: instance.cumulative_age(solution),
        valuable: instance.valuable_degree(solution),
    }
}

fn main() -> Result<()> {
    let trace = Trace::generate(TraceConfig::jan_2016(), SEED);
    let mut epochs = EpochGenerator::new(&trace, LatencyConfig::paper(), SEED);
    let shards = epochs.next_epoch_with_replacement(COMMITTEES, 1)?;
    let instance = InstanceBuilder::new()
        .alpha(1.5)
        .capacity(1_000 * COMMITTEES as u64)
        .n_min(COMMITTEES / 2)
        .shards(shards)
        .build()?;
    println!(
        "epoch: |I| = {}, Ĉ = {}, N_min = {}, α = {}",
        instance.len(),
        instance.capacity(),
        instance.n_min(),
        instance.alpha()
    );

    let mut rows = Vec::new();

    let se = SeEngine::new(&instance, SeConfig::paper(SEED).with_gamma(10))?.run();
    rows.push(row("SE (this paper)", &instance, &se.best_solution));

    let sa = SaSolver::new(SaConfig::paper(SEED)).solve(&instance)?;
    rows.push(row("SA", &instance, &sa.best_solution));

    let dp = DpSolver::new(DpConfig::paper()).solve(&instance)?;
    rows.push(row("DP", &instance, &dp.best_solution));

    let woa = WoaSolver::new(WoaConfig::paper(SEED)).solve(&instance)?;
    rows.push(row("WOA", &instance, &woa.best_solution));

    let greedy = GreedySolver::new().solve(&instance)?;
    rows.push(row("greedy", &instance, &greedy.best_solution));

    println!(
        "\n  {:<16} {:>12} {:>9} {:>8} {:>12} {:>10}",
        "solver", "utility", "admitted", "txs", "cum. age", "valuable°"
    );
    for r in &rows {
        println!(
            "  {:<16} {:>12.1} {:>9} {:>8} {:>12.1} {:>10.2}",
            r.name, r.utility, r.admitted, r.txs, r.age, r.valuable
        );
    }

    let best = rows
        .iter()
        .max_by(|a, b| a.utility.total_cmp(&b.utility))
        .expect("rows");
    println!("\nhighest utility: {}", best.name);
    Ok(())
}
