//! Threshold alerts over per-epoch scheduling outcomes.
//!
//! An operator arms thresholds at startup (`--alert-*` flags); after
//! every epoch closes, the [`AlertEngine`] compares the epoch's
//! [`EpochSummary`] against them. Each breach becomes one
//! [`AlertRecord`]: the daemon loop emits it as `alert_fired` telemetry,
//! persists it in the epoch's history record — so an alert survives the
//! process that raised it — and hands it with the epoch's summary to
//! [`Daemon::run`](crate::Daemon::run)'s callback (the CLI prints it to
//! stderr).
//!
//! Alerts are level-triggered per epoch: an epoch below a threshold
//! fires once, and the next epoch below it fires again. There is no
//! latching or deduplication — the history log is the place to analyze
//! streaks.

use serde::{Deserialize, Serialize};

use crate::history::EpochSummary;

/// The alert conditions the daemon can arm. Disarmed thresholds (`None`)
/// never fire.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AlertConfig {
    /// Fire when an epoch's utility falls below this value.
    pub min_utility: Option<f64>,
    /// Fire when an epoch admits fewer committees than this.
    pub min_admitted: Option<u64>,
    /// Fire when the defense screens out more reports than this.
    pub max_quarantined: Option<u64>,
}

/// The alert conditions, as stable wire/CLI names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Epoch utility below `min_utility`.
    LowUtility,
    /// Admitted committees below `min_admitted`.
    LowAdmission,
    /// Quarantined reports above `max_quarantined`.
    HighQuarantine,
}

impl AlertKind {
    /// Every kind, in documentation order (OPERATIONS.md doc-sync).
    pub const ALL: [AlertKind; 3] = [
        AlertKind::LowUtility,
        AlertKind::LowAdmission,
        AlertKind::HighQuarantine,
    ];

    /// The kind's wire name, as written to history and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::LowUtility => "low_utility",
            AlertKind::LowAdmission => "low_admission",
            AlertKind::HighQuarantine => "high_quarantine",
        }
    }
}

/// One fired alert, as persisted in the epoch's history record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRecord {
    /// [`AlertKind::name`] of the condition.
    pub kind: String,
    /// The armed threshold.
    pub threshold: f64,
    /// The observed value that breached it.
    pub observed: f64,
}

impl AlertRecord {
    fn new(kind: AlertKind, threshold: f64, observed: f64) -> AlertRecord {
        AlertRecord {
            kind: kind.name().to_string(),
            threshold,
            observed,
        }
    }
}

/// Evaluates epoch summaries against the armed thresholds.
#[derive(Debug)]
pub struct AlertEngine {
    config: AlertConfig,
}

impl AlertEngine {
    /// An engine with the given thresholds.
    pub fn new(config: AlertConfig) -> AlertEngine {
        AlertEngine { config }
    }

    /// Evaluates one epoch summary, returning a record per breach
    /// (deterministic order: utility, admission, quarantine).
    pub fn evaluate(&self, summary: &EpochSummary) -> Vec<AlertRecord> {
        let mut fired = Vec::new();
        if let Some(min) = self.config.min_utility {
            if summary.utility < min {
                fired.push(AlertRecord::new(
                    AlertKind::LowUtility,
                    min,
                    summary.utility,
                ));
            }
        }
        if let Some(min) = self.config.min_admitted {
            if summary.admitted < min {
                fired.push(AlertRecord::new(
                    AlertKind::LowAdmission,
                    min as f64,
                    summary.admitted as f64,
                ));
            }
        }
        if let Some(max) = self.config.max_quarantined {
            if summary.quarantined > max {
                fired.push(AlertRecord::new(
                    AlertKind::HighQuarantine,
                    max as f64,
                    summary.quarantined as f64,
                ));
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(utility: f64, admitted: u64, quarantined: u64) -> EpochSummary {
        EpochSummary {
            epoch: 3,
            t_open: 0.0,
            t_close: 4.0,
            reports: 32,
            offered_txs: 1_000,
            quarantined,
            adversarial: 0,
            admitted,
            admitted_txs: 700,
            utility,
            ddl_s: 900.0,
            capacity: 32_000,
            n_min: 16,
            schedule_crc: 0,
        }
    }

    #[test]
    fn disarmed_thresholds_never_fire() {
        let engine = AlertEngine::new(AlertConfig::default());
        assert!(engine.evaluate(&summary(-1e9, 0, 999)).is_empty());
    }

    #[test]
    fn each_condition_fires_with_its_wire_name() {
        let engine = AlertEngine::new(AlertConfig {
            min_utility: Some(100.0),
            min_admitted: Some(20),
            max_quarantined: Some(2),
        });
        let records = engine.evaluate(&summary(50.0, 10, 5));
        let kinds: Vec<&str> = records.iter().map(|r| r.kind.as_str()).collect();
        assert_eq!(kinds, ["low_utility", "low_admission", "high_quarantine"]);
        assert_eq!(records[0].threshold, 100.0);
        assert_eq!(records[0].observed, 50.0);
        // A healthy epoch fires nothing.
        assert!(engine.evaluate(&summary(200.0, 25, 0)).is_empty());
    }

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<&str> = AlertKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), AlertKind::ALL.len());
    }
}
