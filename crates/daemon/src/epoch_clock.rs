//! The daemon's logical clock: epochs measured in ingested batches.
//!
//! The daemon never reads the wall clock (`clippy.toml` bans it
//! workspace-wide); instead, time advances exactly when data
//! does. Each ingest batch ticks the clock forward by a configured
//! logical interval, and an epoch closes once it has absorbed a fixed
//! number of reports. The state machine per epoch is
//!
//! ```text
//! Open ──note_batch()──▶ Open ──…──▶ Full ──close_epoch()──▶ Open (next)
//! ```
//!
//! Because the clock is a pure function of the ingest history, a restart
//! that replays the same reports rebuilds the identical timeline — the
//! property the byte-identical crash-recovery guarantee rests on. The
//! clock is `Serialize`/`Deserialize` and rides inside every
//! [`DaemonCheckpoint`](crate::history::DaemonCheckpoint).

use serde::{Deserialize, Serialize};

use crate::error::{DaemonError, Result};

/// Batch-driven logical clock and epoch counter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochClock {
    epoch: u64,
    batches: u64,
    in_epoch: u64,
    reports_per_epoch: u64,
    batch_interval_s: f64,
}

impl EpochClock {
    /// A clock at epoch 0, time 0.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Config`] when `reports_per_epoch` is zero or the
    /// interval is not a positive finite number.
    pub fn new(reports_per_epoch: u64, batch_interval_s: f64) -> Result<EpochClock> {
        if reports_per_epoch == 0 {
            return Err(DaemonError::config(
                "epoch-reports",
                "an epoch must hold at least one report",
            ));
        }
        if !batch_interval_s.is_finite() || batch_interval_s <= 0.0 {
            return Err(DaemonError::config(
                "batch-interval",
                format!("must be positive and finite, got {batch_interval_s}"),
            ));
        }
        Ok(EpochClock {
            epoch: 0,
            batches: 0,
            in_epoch: 0,
            reports_per_epoch,
            batch_interval_s,
        })
    }

    /// The clock a checkpoint saved, taken up in place of `self` (the fresh
    /// clock the configuration builds) only in the state `close_epoch`
    /// leaves it: the open epoch empty and numbered `closed_epochs`, the
    /// configured quota and interval, and room in `batches` for a whole
    /// epoch of batches (at most one per report).
    ///
    /// # Errors
    ///
    /// [`DaemonError::History`] naming the first field that fails.
    pub fn restore(&self, saved: EpochClock, closed_epochs: u64) -> Result<EpochClock> {
        let refuse = |field: &str, found: &dyn std::fmt::Display, wanted: String| {
            Err(DaemonError::history(format!(
                "checkpoint clock `{field}` is {found}, expected {wanted}; refusing to resume"
            )))
        };
        if saved.in_epoch != 0 {
            return refuse("in_epoch", &saved.in_epoch, "0 at an epoch's close".into());
        }
        if saved.reports_per_epoch != self.reports_per_epoch {
            let wanted = format!("the header's {}", self.reports_per_epoch);
            return refuse("reports_per_epoch", &saved.reports_per_epoch, wanted);
        }
        if saved.batch_interval_s.to_bits() != self.batch_interval_s.to_bits() {
            let wanted = format!("the header's {}", self.batch_interval_s);
            return refuse("batch_interval_s", &saved.batch_interval_s, wanted);
        }
        if saved.epoch != closed_epochs {
            let wanted = format!("{closed_epochs}, the epochs closed");
            return refuse("epoch", &saved.epoch, wanted);
        }
        if saved.batches.checked_add(self.reports_per_epoch).is_none() {
            let wanted = format!(
                "at most {} to fit another epoch",
                u64::MAX - self.reports_per_epoch
            );
            return refuse("batches", &saved.batches, wanted);
        }
        Ok(saved)
    }

    /// The current logical time: `batches · batch_interval_s` seconds.
    pub fn now(&self) -> f64 {
        self.batches as f64 * self.batch_interval_s
    }

    /// The currently open epoch's index.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Batches ingested over the daemon's lifetime.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Reports still needed to fill the open epoch.
    pub fn remaining(&self) -> u64 {
        self.reports_per_epoch.saturating_sub(self.in_epoch)
    }

    /// Reports that fill one epoch.
    pub fn reports_per_epoch(&self) -> u64 {
        self.reports_per_epoch
    }

    /// Ticks the clock: one batch of `reports` ingested.
    pub fn note_batch(&mut self, reports: u64) {
        self.batches += 1;
        self.in_epoch += reports;
    }

    /// `true` once the open epoch has absorbed its full report quota.
    pub fn is_full(&self) -> bool {
        self.in_epoch >= self.reports_per_epoch
    }

    /// Closes the full epoch, returning its index; the next epoch opens
    /// empty at the current logical time.
    pub fn close_epoch(&mut self) -> u64 {
        let closed = self.epoch;
        self.epoch += 1;
        self.in_epoch = 0;
        closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_degenerate_shapes() {
        assert!(EpochClock::new(0, 1.0).is_err());
        assert!(EpochClock::new(8, 0.0).is_err());
        assert!(EpochClock::new(8, f64::NAN).is_err());
        assert!(EpochClock::new(8, -1.0).is_err());
    }

    #[test]
    fn time_is_batches_times_interval() {
        let mut c = EpochClock::new(8, 0.5).unwrap();
        assert_eq!(c.now(), 0.0);
        c.note_batch(4);
        c.note_batch(4);
        assert_eq!(c.now(), 1.0);
        assert_eq!(c.batches(), 2);
    }

    #[test]
    fn epoch_lifecycle_open_full_close() {
        let mut c = EpochClock::new(8, 1.0).unwrap();
        assert!(!c.is_full());
        assert_eq!(c.remaining(), 8);
        c.note_batch(5);
        assert!(!c.is_full());
        assert_eq!(c.remaining(), 3);
        c.note_batch(3);
        assert!(c.is_full());
        assert_eq!(c.close_epoch(), 0);
        assert_eq!(c.epoch(), 1);
        assert!(!c.is_full());
        assert_eq!(c.remaining(), 8);
        // The clock does not rewind across the epoch boundary.
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn checkpoint_round_trip_is_exact() {
        let mut c = EpochClock::new(32, 0.25).unwrap();
        c.note_batch(8);
        c.note_batch(8);
        let json = serde_json::to_string(&c).unwrap();
        let back: EpochClock = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
