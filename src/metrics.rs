//! Throughput and freshness accounting — the two quantities MVCom trades
//! off (paper §I: "the blockchain throughput can be significantly degraded
//! because of the large transaction's cumulative age") — plus the
//! fault-tolerance counters of the recovering epoch pipeline.

use mvcom_core::epoch_chain::EpochOutcome;
use mvcom_core::{Instance, Solution};
use mvcom_elastico::recovery::RobustnessReport;

/// Metrics of one epoch's schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleMetrics {
    /// Committees admitted.
    pub admitted: usize,
    /// Transactions admitted to the final block.
    pub admitted_txs: u64,
    /// The epoch deadline in seconds (when the final consensus can start).
    pub ddl_secs: f64,
    /// Total cumulative age of admitted transactions' shards, seconds.
    pub cumulative_age: f64,
    /// Mean waiting time per admitted *transaction*, seconds — cumulative
    /// age weighted by each shard's transaction count.
    pub mean_tx_age_secs: f64,
    /// Effective epoch throughput: admitted TXs per second of deadline.
    pub tps: f64,
}

impl ScheduleMetrics {
    /// Computes the metrics of `solution` under `instance`.
    pub fn compute(instance: &Instance, solution: &Solution) -> ScheduleMetrics {
        let admitted = solution.selected_count();
        let admitted_txs = solution.tx_total();
        let ddl_secs = instance.ddl().as_secs();
        let cumulative_age = instance.cumulative_age(solution);
        // TX-weighted waiting time.
        let weighted_age: f64 = solution
            .iter_selected()
            .map(|i| instance.age(i) * instance.shards()[i].tx_count() as f64)
            .sum();
        let mean_tx_age_secs = if admitted_txs == 0 {
            0.0
        } else {
            weighted_age / admitted_txs as f64
        };
        let tps = if ddl_secs > 0.0 {
            admitted_txs as f64 / ddl_secs
        } else {
            0.0
        };
        ScheduleMetrics {
            admitted,
            admitted_txs,
            ddl_secs,
            cumulative_age,
            mean_tx_age_secs,
            tps,
        }
    }
}

/// Aggregate metrics over a multi-epoch run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChainMetrics {
    /// Epochs aggregated.
    pub epochs: usize,
    /// Total admitted transactions.
    pub total_txs: u64,
    /// Sum of epoch deadlines — the root chain's busy time.
    pub total_ddl_secs: f64,
    /// Total cumulative age across epochs.
    pub total_age: f64,
    /// Overall throughput: total TXs / total deadline seconds.
    pub tps: f64,
    /// Shards still pending re-entry at the end of the run.
    pub pending_carryovers: usize,
}

impl ChainMetrics {
    /// Aggregates a sequence of [`EpochOutcome`]s.
    pub fn aggregate<'a, I>(outcomes: I, pending_carryovers: usize) -> ChainMetrics
    where
        I: IntoIterator<Item = &'a EpochOutcome>,
    {
        let mut m = ChainMetrics {
            pending_carryovers,
            ..ChainMetrics::default()
        };
        for o in outcomes {
            m.epochs += 1;
            m.total_txs += o.admitted_txs;
            m.total_ddl_secs += o.ddl.as_secs();
            m.total_age += o.cumulative_age;
        }
        if m.total_ddl_secs > 0.0 {
            m.tps = m.total_txs as f64 / m.total_ddl_secs;
        }
        m
    }
}

/// Flattened fault-tolerance counters of one or more recovering epochs,
/// ready for the CLI and experiment tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustnessMetrics {
    /// Epochs that carried robustness telemetry.
    pub epochs: usize,
    /// Heartbeat pings sent by the final committee.
    pub heartbeats_sent: u64,
    /// Heartbeats that went unanswered.
    pub heartbeats_missed: u64,
    /// Committees declared failed by the detector.
    pub failures_detected: u64,
    /// Committees classified as stragglers.
    pub stragglers: u64,
    /// Shard resubmission attempts beyond each first send.
    pub submission_retries: u64,
    /// Committees whose shard never arrived before the deadline.
    pub submissions_timed_out: u64,
    /// Messages dropped by the chaos injector (lossy links + outages).
    pub chaos_dropped: u64,
    /// Extra latency spikes injected.
    pub chaos_spiked: u64,
    /// Epochs whose final block lost at least one committee to a failure.
    pub degraded_epochs: usize,
}

impl RobustnessMetrics {
    /// Aggregates the [`RobustnessReport`]s of a sequence of epochs.
    pub fn aggregate<'a, I>(reports: I) -> RobustnessMetrics
    where
        I: IntoIterator<Item = &'a RobustnessReport>,
    {
        let mut m = RobustnessMetrics::default();
        for r in reports {
            m.epochs += 1;
            m.heartbeats_sent += r.heartbeats_sent;
            m.heartbeats_missed += r.heartbeats_missed;
            m.failures_detected += r.failures_detected.len() as u64;
            m.stragglers += r.stragglers.len() as u64;
            m.submission_retries += r.submission_retries;
            m.submissions_timed_out += r.submissions_timed_out.len() as u64;
            m.chaos_dropped += r.chaos.dropped + r.chaos.crash_dropped;
            m.chaos_spiked += r.chaos.spiked;
            if r.degraded {
                m.degraded_epochs += 1;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcom_core::problem::InstanceBuilder;
    use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};

    fn instance() -> Instance {
        InstanceBuilder::new()
            .alpha(1.5)
            .capacity(10_000)
            .shards(vec![
                ShardInfo::new(
                    CommitteeId(0),
                    1_000,
                    TwoPhaseLatency::from_total(SimTime::from_secs(500.0)),
                ),
                ShardInfo::new(
                    CommitteeId(1),
                    2_000,
                    TwoPhaseLatency::from_total(SimTime::from_secs(1_000.0)),
                ),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn schedule_metrics_arithmetic() {
        let inst = instance();
        let sol = Solution::from_indices(2, [0, 1], &inst);
        let m = ScheduleMetrics::compute(&inst, &sol);
        assert_eq!(m.admitted, 2);
        assert_eq!(m.admitted_txs, 3_000);
        assert_eq!(m.ddl_secs, 1_000.0);
        // Ages: shard0 = 500, shard1 = 0 → cumulative 500.
        assert_eq!(m.cumulative_age, 500.0);
        // TX-weighted: (500·1000 + 0·2000) / 3000 ≈ 166.7 s.
        assert!((m.mean_tx_age_secs - 500_000.0 / 3_000.0).abs() < 1e-9);
        assert!((m.tps - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_selection_is_safe() {
        let inst = instance();
        let sol = Solution::empty(2);
        let m = ScheduleMetrics::compute(&inst, &sol);
        assert_eq!(m.admitted_txs, 0);
        assert_eq!(m.mean_tx_age_secs, 0.0);
        assert_eq!(m.tps, 0.0);
    }

    #[test]
    fn robustness_metrics_aggregate_over_epochs() {
        use mvcom_simnet::ChaosStats;
        let reports = [
            RobustnessReport {
                heartbeats_sent: 100,
                heartbeats_missed: 4,
                failures_detected: vec![(CommitteeId(2), SimTime::from_secs(2_000.0))],
                stragglers: vec![CommitteeId(5)],
                submission_retries: 3,
                submissions_timed_out: vec![],
                chaos: ChaosStats {
                    dropped: 7,
                    spiked: 2,
                    crash_dropped: 4,
                },
                degraded: true,
            },
            RobustnessReport {
                heartbeats_sent: 80,
                heartbeats_missed: 0,
                failures_detected: vec![],
                stragglers: vec![],
                submission_retries: 0,
                submissions_timed_out: vec![CommitteeId(9)],
                chaos: ChaosStats::default(),
                degraded: false,
            },
        ];
        let m = RobustnessMetrics::aggregate(&reports);
        assert_eq!(m.epochs, 2);
        assert_eq!(m.heartbeats_sent, 180);
        assert_eq!(m.heartbeats_missed, 4);
        assert_eq!(m.failures_detected, 1);
        assert_eq!(m.stragglers, 1);
        assert_eq!(m.submission_retries, 3);
        assert_eq!(m.submissions_timed_out, 1);
        assert_eq!(m.chaos_dropped, 11);
        assert_eq!(m.chaos_spiked, 2);
        assert_eq!(m.degraded_epochs, 1);
    }

    #[test]
    fn chain_metrics_aggregate() {
        use mvcom_core::epoch_chain::{EpochChain, EpochChainConfig};
        use mvcom_core::se::SeConfig;
        let config = EpochChainConfig {
            se: SeConfig::fast_test(1),
            ..EpochChainConfig::paper(1)
        };
        let mut chain = EpochChain::new(config).unwrap();
        let mut outcomes = Vec::new();
        for e in 0..3u32 {
            let shards: Vec<ShardInfo> = (0..12)
                .map(|i| {
                    ShardInfo::new(
                        CommitteeId(e * 100 + i),
                        900,
                        TwoPhaseLatency::from_total(SimTime::from_secs(
                            400.0 + f64::from(i) * 90.0,
                        )),
                    )
                })
                .collect();
            outcomes.push(chain.run_epoch(shards).unwrap());
        }
        let m = ChainMetrics::aggregate(&outcomes, chain.pending());
        assert_eq!(m.epochs, 3);
        assert!(m.total_txs > 0);
        assert!(m.tps > 0.0);
        assert_eq!(m.pending_carryovers, chain.pending());
    }
}
