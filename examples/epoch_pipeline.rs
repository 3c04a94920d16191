//! The full protocol pipeline: Elastico epochs with and without MVCom.
//!
//! ```text
//! cargo run --release --example epoch_pipeline
//! ```
//!
//! Runs the five-stage Elastico simulator for several epochs twice — once
//! with the vanilla wait-for-all final committee and once with the MVCom
//! SE scheduler, both through `ElasticoSim::run_epoch_in` with the default
//! `EpochEnv` (honest reports, direct delivery) — and compares when the final consensus can start, how
//! many transactions land in the final block, and the cumulative age the
//! included transactions accumulated.

use mvcom::elastico::epoch::{
    ElasticoConfig, ElasticoSim, EpochEnv, EpochReport, ShardSelector, WaitForAll,
};
use mvcom::prelude::*;

const SEED: u64 = 7;
const EPOCHS: usize = 3;

/// When the final committee can begin the final consensus: the largest
/// two-phase latency among *admitted* shards.
fn final_start(report: &EpochReport) -> SimTime {
    report
        .shards
        .iter()
        .filter(|s| report.final_block.included.contains(&s.committee()))
        .map(|s| s.two_phase_latency())
        .max()
        .unwrap_or(SimTime::ZERO)
}

/// Total cumulative age of the admitted shards' transactions, measured
/// against the admitted set's own deadline.
fn cumulative_age(report: &EpochReport) -> f64 {
    let start = final_start(report);
    report
        .shards
        .iter()
        .filter(|s| report.final_block.included.contains(&s.committee()))
        .map(|s| (start - s.two_phase_latency()).as_secs())
        .sum()
}

fn run<S: ShardSelector>(label: &str, mut selector: S) -> Result<()> {
    let mut sim = ElasticoSim::new(ElasticoConfig::with_nodes(240, 12), SEED)?;
    println!("== {label} ==");
    for _ in 0..EPOCHS {
        let (report, _) = sim.run_epoch_in(&mut selector, &EpochEnv::default())?;
        println!(
            "epoch {}: {} committees formed, {} shards submitted, {} admitted",
            report.epoch.value(),
            report.formed.len(),
            report.shards.len(),
            report.final_block.included.len()
        );
        println!(
            "  final consensus can start at {:>8.1}s; block has {:>6} TXs; cumulative age {:>9.1}s; final PBFT {}",
            final_start(&report).as_secs(),
            report.final_block.total_txs,
            cumulative_age(&report),
            if report.final_block.committed { "committed" } else { "FAILED" },
        );
    }
    println!();
    Ok(())
}

fn main() -> Result<()> {
    run("vanilla Elastico (wait for all shards)", WaitForAll)?;
    // Elastico epochs carry the full trace (~1.5M TXs over ~16 shards), so
    // derive the block capacity from the submitted load rather than the
    // paper's 1000-TXs-per-committee rule.
    run(
        "MVCom (SE scheduler in the final committee)",
        SeSelector::adaptive(SEED, 0.6),
    )?;
    println!(
        "MVCom trades a bounded number of straggler shards for an earlier\n\
         final consensus and fresher transactions — compare the start times\n\
         and cumulative ages above."
    );
    Ok(())
}
