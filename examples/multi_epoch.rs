//! Multi-epoch scheduling with cross-epoch carry-over (paper Fig. 3).
//!
//! ```text
//! cargo run --release --example multi_epoch
//! ```
//!
//! Runs ten consecutive epochs through the [`EpochChain`] scheduler:
//! committees refused at epoch `j` re-enter epoch `j+1` with their
//! two-phase latency reduced by the previous deadline — so persistent
//! stragglers eventually become cheap enough to admit. Prints per-epoch
//! admission, carry-over traffic, and the aggregate throughput/freshness
//! metrics.

use mvcom::prelude::*;

const SEED: u64 = 33;
const EPOCHS: usize = 10;
const COMMITTEES: usize = 40;

fn main() -> Result<()> {
    let trace = Trace::generate(TraceConfig::jan_2016(), SEED);
    let mut gen = EpochGenerator::new(&trace, LatencyConfig::paper(), SEED);

    let config = EpochChainConfig {
        policy: EpochPolicy {
            capacity: Capacity::PerCommittee(1_000),
            ..EpochPolicy::paper()
        },
        se: SeConfig::paper(SEED),
    };
    let mut chain = EpochChain::new(config)?;

    println!(
        "{:<7} {:>8} {:>11} {:>10} {:>12} {:>11} {:>12}",
        "epoch", "arrived", "carried-in", "admitted", "refused-out", "block txs", "age (s)"
    );
    let mut outcomes = Vec::with_capacity(EPOCHS);
    for _ in 0..EPOCHS {
        let fresh = gen.next_epoch_with_replacement(COMMITTEES, 1)?;
        let outcome = chain.run_epoch(fresh)?;
        println!(
            "{:<7} {:>8} {:>11} {:>10} {:>12} {:>11} {:>12.0}",
            outcome.epoch.to_string(),
            outcome.arrived,
            outcome.carried_in,
            outcome.admitted.len(),
            outcome.carried_out,
            outcome.admitted_txs,
            outcome.cumulative_age,
        );
        outcomes.push(outcome);
    }

    let metrics = ChainMetrics::aggregate(&outcomes, chain.pending());
    println!(
        "\nacross {} epochs: {} TXs committed over {:.0}s of deadlines → {:.2} TX/s",
        metrics.epochs, metrics.total_txs, metrics.total_ddl_secs, metrics.tps
    );
    println!(
        "total cumulative age {:.0}s; {} shards still pending re-entry",
        metrics.total_age, metrics.pending_carryovers
    );

    // Show the Fig. 3 mechanism explicitly on the first refused committee.
    if let Some(first) = outcomes.iter().find(|o| o.carried_out > 0) {
        println!(
            "\nexample: epoch {} refused {} committees; each re-entered epoch {} \
             with its latency reduced by the {:.0}s deadline",
            first.epoch.value(),
            first.carried_out,
            first.epoch.value() + 1,
            first.ddl.as_secs(),
        );
    }
    Ok(())
}
