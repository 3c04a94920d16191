//! The fault-tolerant epoch pipeline under injected chaos.
//!
//! ```text
//! cargo run --release --example chaos_epoch
//! ```
//!
//! Runs one Elastico epoch with the MVCom SE scheduler whose shards reach
//! the final committee over the chaos network (`EpochEnv::recovery`): the
//! injector drops 10% of submission-network messages and permanently
//! crashes an admitted committee's node mid-epoch. The phi-accrual
//! heartbeat detector notices the silence, the SE engine re-solves through
//! a checkpoint restore (`DynamicsPolicy::Trim`), and the survivors still
//! commit a final block before the consensus deadline.

#![expect(
    clippy::expect_used,
    reason = "an example aborts with a message if its premise fails"
)]
use mvcom::elastico::epoch::{ElasticoConfig, ElasticoSim};
use mvcom::prelude::*;

const SEED: u64 = 29;

fn main() -> Result<()> {
    // Kill the second surviving shard's submission node at t = 2500 s and
    // make every remaining link lossy.
    let crash_at = SimTime::from_secs(2_500.0);
    let recovery = RecoveryConfig {
        chaos: ChaosConfig::lossy(0.1)
            .with_crash(CrashEvent::permanent(submission_node(1), crash_at)),
        ..RecoveryConfig::paper()
    };

    let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), SEED)?;
    let mut selector = SeSelector::adaptive(SEED, 0.6);
    let env = EpochEnv {
        recovery: Some(&recovery),
        ..EpochEnv::default()
    };
    let (report, _) = sim.run_epoch_in(&mut selector, &env)?;
    let robustness = report.robustness.as_ref().expect("recovering telemetry");

    println!("== chaos epoch (seed {SEED}) ==");
    println!(
        "shards submitted:   {} (of {} committees formed)",
        report.shards.len(),
        report.formed.len()
    );
    println!(
        "chaos:              {} dropped, {} crash-dropped, {} latency spikes",
        robustness.chaos.dropped, robustness.chaos.crash_dropped, robustness.chaos.spiked
    );
    println!(
        "heartbeats:         {} sent, {} missed",
        robustness.heartbeats_sent, robustness.heartbeats_missed
    );
    for &(committee, at) in &robustness.failures_detected {
        println!(
            "failure detected:   {committee} at {:.0} s (crash was at {:.0} s)",
            at.as_secs(),
            crash_at.as_secs()
        );
    }
    for record in selector.events() {
        println!(
            "SE trim:            utility {:.1} -> {:.1} at iteration {} \
             ({} chains restored from checkpoint)",
            record.utility_before,
            record.utility_after,
            record.at_iteration,
            selector.chains_restored()
        );
    }
    println!(
        "final block:        {} committees, {} TXs, committed = {}, degraded = {}",
        report.final_block.included.len(),
        report.final_block.total_txs,
        report.final_block.committed,
        robustness.degraded
    );
    Ok(())
}
