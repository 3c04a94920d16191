//! The daemon loop: ingest → epoch close → SE schedule → defend → alert
//! → persist, forever.
//!
//! One [`Daemon`] owns exactly one thread of execution; every side effect
//! of an epoch — telemetry, metrics, the history append, the snapshot
//! render — happens inside [`Daemon::step_epoch`], in a fixed order. The
//! only concurrency in the process is the read-only metrics endpoint
//! ([`crate::http`]), which shares nothing but a rendered string.
//!
//! # Determinism and crash recovery
//!
//! Everything the loop does is a pure function of the [`DaemonConfig`]
//! and the ingest stream: the epoch clock counts batches, the SE engine
//! derives its seed from `(seed, epoch)`, the adversary and defense are
//! seeded/RNG-free, and no code here reads the wall clock
//! (`clippy::disallowed_methods` enforces that). Each epoch's history record embeds a full
//! [`DaemonCheckpoint`], so a `kill -9` at *any* byte loses at most the
//! in-flight epoch — which [`Daemon::open`] re-derives on restart from
//! the last intact record, appending bytes identical to the ones an
//! uninterrupted run would have written. The recovery integration tests
//! assert that equality literally, with `assert_eq!` over file bytes.

use std::path::Path;
use std::time::Duration;

use mvcom_core::admission::{Capacity, EpochPolicy, FinalCommittee};
use mvcom_core::defense::{DefenseConfig, DefenseEngine};
use mvcom_core::se::{SeConfig, SeEngine};
use mvcom_dataset::adversary::{build_adversary, Adversary, AdversaryConfig, CommitteeReport};
use mvcom_obs::{obs_event, MetricsRegistry, Obs};
use mvcom_types::ShardInfo;

use crate::alerts::AlertEngine;
use crate::epoch_clock::EpochClock;
use crate::error::{DaemonError, Result};
use crate::history::{
    crc32, read_tail, DaemonCheckpoint, EpochRecord, EpochSummary, HistoryRecord, HistoryWriter,
    RunHeader, HISTORY_VERSION,
};
use crate::http::SnapshotCell;
use crate::ingest::IngestSource;

/// Everything the daemon's behaviour depends on, plus runtime pacing.
///
/// The first block of fields is determinism-relevant and is frozen into
/// the history [`RunHeader`]; the pacing fields (`max_epochs`,
/// `throttle_ms`) only decide how much of the run happens and how fast,
/// never which bytes it produces.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Master seed: forks the seeded source, the per-epoch SE engines and
    /// the adversary.
    pub seed: u64,
    /// Committee population of the seeded source (informational for
    /// stdin feeds; frozen into the header either way).
    pub population: u32,
    /// Reports requested per ingest batch.
    pub batch_size: u32,
    /// Reports that fill one epoch.
    pub reports_per_epoch: u32,
    /// Logical seconds one batch advances the clock by.
    pub batch_interval_s: f64,
    /// Throughput weight `α` of the per-epoch instance.
    pub alpha: f64,
    /// Final-block capacity per screened committee (`Ĉ = c·|I|`).
    pub capacity_per_committee: u64,
    /// `N_min` as a fraction of the screened shard count.
    pub n_min_fraction: f64,
    /// Screen reports through the reputation defense layer.
    pub defense: bool,
    /// Fraction of committees the adversary controls (0 disables).
    pub adv_fraction: f64,
    /// Adversary strategy (`misreport`|`freerider`|`starver`; "" = none).
    pub adv_strategy: String,
    /// SE iteration budget per epoch (0 = `SeConfig::paper` default).
    pub se_iterations: u64,
    /// Stop after this many epochs (0 = run until the source drains or
    /// the process dies).
    pub max_epochs: u64,
    /// Sleep this long after each ingest batch — pacing for smoke tests
    /// and demos; does not touch the logical clock.
    pub throttle_ms: u64,
}

impl Default for DaemonConfig {
    /// Paper-flavoured defaults: 96 committees, 48-report epochs in
    /// batches of 8, `α = 1.5`, `Ĉ = 1000·|I|`, `N_min = 0.5·|I|`.
    fn default() -> DaemonConfig {
        DaemonConfig {
            seed: 7,
            population: 96,
            batch_size: 8,
            reports_per_epoch: 48,
            batch_interval_s: 0.5,
            alpha: 1.5,
            capacity_per_committee: 1_000,
            n_min_fraction: 0.5,
            defense: false,
            adv_fraction: 0.0,
            adv_strategy: String::new(),
            se_iterations: 0,
            max_epochs: 0,
            throttle_ms: 0,
        }
    }
}

impl DaemonConfig {
    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Config`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        if self.batch_size == 0 {
            return Err(DaemonError::config("batch-size", "must be positive"));
        }
        if self.reports_per_epoch == 0 {
            return Err(DaemonError::config("epoch-reports", "must be positive"));
        }
        if !self.batch_interval_s.is_finite() || self.batch_interval_s <= 0.0 {
            return Err(DaemonError::config(
                "batch-interval",
                format!("must be positive and finite, got {}", self.batch_interval_s),
            ));
        }
        if !self.alpha.is_finite() || self.alpha <= 0.0 {
            return Err(DaemonError::config(
                "alpha",
                format!("must be positive and finite, got {}", self.alpha),
            ));
        }
        if self.capacity_per_committee == 0 {
            return Err(DaemonError::config("capacity", "must be positive"));
        }
        if !self.n_min_fraction.is_finite() || !(0.0..=1.0).contains(&self.n_min_fraction) {
            return Err(DaemonError::config(
                "n-min-frac",
                format!("must be within [0, 1], got {}", self.n_min_fraction),
            ));
        }
        if !self.adv_fraction.is_finite() || !(0.0..=1.0).contains(&self.adv_fraction) {
            return Err(DaemonError::config(
                "adv-fraction",
                format!("must be within [0, 1], got {}", self.adv_fraction),
            ));
        }
        if self.adv_fraction > 0.0 && self.adv_strategy.is_empty() {
            return Err(DaemonError::config(
                "adv-strategy",
                "required when adv-fraction > 0",
            ));
        }
        Ok(())
    }

    /// The determinism-relevant slice, as frozen into the history log.
    pub fn header(&self) -> RunHeader {
        RunHeader {
            version: HISTORY_VERSION,
            seed: self.seed,
            population: self.population,
            batch_size: self.batch_size,
            reports_per_epoch: self.reports_per_epoch,
            batch_interval_s: self.batch_interval_s,
            alpha: self.alpha,
            capacity_per_committee: self.capacity_per_committee,
            n_min_fraction: self.n_min_fraction,
            defense: self.defense,
            adv_fraction: self.adv_fraction,
            adv_strategy: self.adv_strategy.clone(),
            se_iterations: self.se_iterations,
        }
    }
}

/// Refuses an epoch record whose SE checkpoint does not fit the epoch it
/// closed: the instance was posed over the reports the defense did not
/// quarantine, and every selection must be one over that many shards
/// ([`SeCheckpoint::validate`](mvcom_core::se::SeCheckpoint::validate)).
fn check_se(epoch: &EpochRecord) -> Result<()> {
    let Some(se) = &epoch.checkpoint.se else {
        return Ok(());
    };
    let summary = &epoch.summary;
    let shards = summary
        .reports
        .checked_sub(summary.quarantined)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| {
            DaemonError::history(format!(
                "Epoch.summary: {} quarantined of {} reports",
                summary.quarantined, summary.reports
            ))
        })?;
    se.validate(shards).map_err(|e| match e {
        mvcom_types::Error::InvalidConfig { reason, .. } => {
            DaemonError::history(format!("Epoch.checkpoint.se.{reason}"))
        }
        other => other.into(),
    })
}

/// How [`Daemon::open`] started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Startup {
    /// A fresh history file was created.
    Fresh,
    /// An existing history was replayed and resumed.
    Resumed {
        /// Epochs already in the log.
        epochs: u64,
        /// Source cursor restored from the last checkpoint.
        cursor: u64,
        /// Torn-tail bytes dropped during replay.
        dropped_bytes: u64,
    },
}

/// Lifetime totals, mirrored into every checkpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals {
    epochs: u64,
    reports: u64,
    admitted_txs: u64,
}

/// The long-running scheduling service. See the [module docs](self).
pub struct Daemon {
    config: DaemonConfig,
    source: Box<dyn IngestSource>,
    clock: EpochClock,
    committee: FinalCommittee,
    adversary: Option<Box<dyn Adversary>>,
    history: HistoryWriter,
    alerts: AlertEngine,
    obs: Obs,
    metrics: MetricsRegistry,
    snapshot: SnapshotCell,
    totals: Totals,
    startup: Startup,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("config", &self.config)
            .field("clock", &self.clock)
            .field("totals", &self.totals)
            .field("startup", &self.startup)
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Opens the daemon against `history_path`.
    ///
    /// With `resume` set and a non-empty history present, the log is
    /// replayed: every frame is verified (only the first and the last are
    /// decoded), its header must match `config`, the last epoch record's
    /// checkpoint restores the clock/defense/totals, the source is
    /// fast-forwarded to the checkpointed cursor, and a torn tail (if
    /// any) is truncated. Otherwise a fresh log is created (truncating
    /// whatever was there) and the header written.
    ///
    /// # Errors
    ///
    /// Configuration errors, corrupt histories
    /// ([`DaemonError::History`]), header/config mismatches, and I/O.
    pub fn open(
        config: DaemonConfig,
        mut source: Box<dyn IngestSource>,
        history_path: &Path,
        resume: bool,
        obs: Obs,
        alerts: AlertEngine,
    ) -> Result<Daemon> {
        config.validate()?;
        let mut clock =
            EpochClock::new(u64::from(config.reports_per_epoch), config.batch_interval_s)?;
        let mut defense = if config.defense {
            Some(DefenseEngine::new(DefenseConfig::paper())?.with_obs(obs.clone()))
        } else {
            None
        };
        let adversary = if config.adv_fraction > 0.0 {
            Some(build_adversary(
                &config.adv_strategy,
                AdversaryConfig::new(config.adv_fraction, config.seed)?,
            )?)
        } else {
            None
        };
        let metrics = MetricsRegistry::new();
        metrics.register_histogram(
            "daemon.epoch_admitted_txs",
            &[100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0],
        );
        let mut totals = Totals::default();
        let mut startup = Startup::Fresh;
        let resuming = resume
            && std::fs::metadata(history_path)
                .map(|m| m.len() > 0)
                .unwrap_or(false);
        let history = if resuming {
            let loaded = read_tail(history_path)?;
            let Some(HistoryRecord::Header(header)) = &loaded.first else {
                return Err(DaemonError::history(
                    "history does not start with a Header record",
                ));
            };
            let expected = config.header();
            if header.version != expected.version {
                return Err(DaemonError::history(format!(
                    "history format version {} on disk, this build reads {}",
                    header.version, expected.version
                )));
            }
            if *header != expected {
                return Err(DaemonError::history(format!(
                    "history header does not match the daemon configuration \
                     (on disk: {header:?}; configured: {expected:?}); \
                     refusing to mix incompatible runs"
                )));
            }
            let last_epoch = match &loaded.last {
                None => None,
                Some(HistoryRecord::Epoch(e)) => Some(e),
                Some(HistoryRecord::Header(_)) => {
                    return Err(DaemonError::history(
                        "history ends in a second Header record; refusing to resume",
                    ))
                }
            };
            if let Some(epoch) = last_epoch {
                check_se(epoch)?;
                let ckpt = &epoch.checkpoint;
                clock = clock.restore(ckpt.clock, ckpt.total_epochs)?;
                totals = Totals {
                    epochs: ckpt.total_epochs,
                    reports: ckpt.total_reports,
                    admitted_txs: ckpt.total_admitted_txs,
                };
                defense = match (&ckpt.defense, config.defense) {
                    (Some(d), true) => {
                        Some(DefenseEngine::from_checkpoint(d)?.with_obs(obs.clone()))
                    }
                    (None, false) => None,
                    _ => {
                        return Err(DaemonError::history(
                            "checkpoint defense state disagrees with the --defense flag",
                        ))
                    }
                };
                source.fast_forward(ckpt.cursor)?;
            }
            startup = Startup::Resumed {
                epochs: totals.epochs,
                cursor: source.cursor(),
                dropped_bytes: loaded.dropped_bytes,
            };
            obs_event!(
                obs, "recovery_replay", clock.now(),
                "epochs" => totals.epochs,
                "cursor" => source.cursor(),
                "dropped_bytes" => loaded.dropped_bytes,
            );
            metrics.incr("daemon.recoveries");
            // Truncate the torn tail (if any) and position for appends.
            HistoryWriter::append_existing(history_path, loaded.valid_bytes)?
        } else {
            let mut writer = HistoryWriter::create(history_path)?;
            writer.append(&HistoryRecord::Header(config.header()))?;
            writer
        };
        let daemon = Daemon {
            committee: FinalCommittee {
                policy: EpochPolicy {
                    alpha: config.alpha,
                    capacity: Capacity::PerCommittee(config.capacity_per_committee),
                    n_min_fraction: config.n_min_fraction,
                    ..EpochPolicy::paper()
                },
                defense,
                obs: obs.clone(),
            },
            config,
            source,
            clock,
            adversary,
            history,
            alerts,
            obs,
            metrics,
            snapshot: SnapshotCell::new(),
            totals,
            startup,
        };
        daemon.render_snapshot();
        Ok(daemon)
    }

    /// How this daemon started (fresh vs. resumed).
    pub fn startup(&self) -> Startup {
        self.startup
    }

    /// The configuration in force.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// The logical clock.
    pub fn clock(&self) -> &EpochClock {
        &self.clock
    }

    /// Bytes in the history file.
    pub fn history_bytes(&self) -> u64 {
        self.history.bytes()
    }

    /// The cell the metrics endpoint serves; hand a clone to
    /// [`MetricsServer::start`](crate::http::MetricsServer::start).
    pub fn snapshot_cell(&self) -> SnapshotCell {
        self.snapshot.clone()
    }

    /// The always-on metrics registry backing the snapshot.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Registers an alert hook (see [`AlertEngine::on_alert`]).
    pub fn on_alert(&mut self, hook: impl FnMut(&crate::alerts::Alert) + Send + 'static) {
        self.alerts.on_alert(hook);
    }

    /// Ingests and closes one epoch; `None` when the source drained
    /// before the epoch filled (the partial epoch is discarded — it was
    /// never scheduled, so it is not history).
    ///
    /// # Errors
    ///
    /// Ingest failures, scheduling failures, history I/O.
    pub fn step_epoch(&mut self) -> Result<Option<EpochSummary>> {
        let epoch = self.clock.epoch();
        let t_open = self.clock.now();
        obs_event!(
            self.obs, "epoch_open", t_open,
            "epoch" => epoch,
            "planned" => self.clock.reports_per_epoch(),
        );
        let mut truth: Vec<ShardInfo> = Vec::with_capacity(self.clock.remaining() as usize);
        let mut batch: Vec<ShardInfo> = Vec::new();
        let mut batch_idx = 0u64;
        while !self.clock.is_full() {
            let want = self
                .clock
                .remaining()
                .min(u64::from(self.config.batch_size)) as usize;
            let got = self.source.next_batch(&mut batch, want)?;
            if got == 0 {
                return Ok(None);
            }
            self.clock.note_batch(got as u64);
            let txs: u64 = batch.iter().map(ShardInfo::tx_count).sum();
            obs_event!(
                self.obs, "ingest_batch", self.clock.now(),
                "epoch" => epoch,
                "batch" => batch_idx,
                "reports" => got,
                "txs" => txs,
            );
            self.metrics.add("daemon.reports", got as u64);
            self.metrics.add("daemon.offered_txs", txs);
            truth.append(&mut batch);
            batch_idx += 1;
            if self.config.throttle_ms > 0 {
                std::thread::sleep(Duration::from_millis(self.config.throttle_ms));
            }
        }
        let summary = self.close_epoch(epoch, t_open, &truth)?;
        Ok(Some(summary))
    }

    /// Runs epochs until the configured bound or source exhaustion,
    /// invoking `on_epoch` after each close; returns the epochs closed by
    /// this call.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Daemon::step_epoch`] failure.
    pub fn run(&mut self, mut on_epoch: impl FnMut(&EpochSummary)) -> Result<u64> {
        let mut closed = 0u64;
        while self.config.max_epochs == 0 || self.totals.epochs < self.config.max_epochs {
            match self.step_epoch()? {
                Some(summary) => {
                    on_epoch(&summary);
                    closed += 1;
                }
                None => break,
            }
        }
        self.obs.flush();
        Ok(closed)
    }

    /// Schedules the full epoch and persists its record.
    fn close_epoch(
        &mut self,
        epoch: u64,
        t_open: f64,
        truth: &[ShardInfo],
    ) -> Result<EpochSummary> {
        let t_close = self.clock.now();
        // 1. Strategic committees file their (possibly perturbed) reports.
        let reports: Vec<CommitteeReport> = match &self.adversary {
            Some(adv) => adv.act(epoch, truth),
            None => truth.iter().copied().map(CommitteeReport::honest).collect(),
        };
        let adversarial = reports.iter().filter(|r| r.adversarial).count() as u64;
        let reported: Vec<ShardInfo> = reports.iter().map(|r| r.reported).collect();
        // 2. The final committee screens, poses and solves the epoch
        // (DESIGN.md §6d); a committee that reported twice ends the run.
        let mut se_config = SeConfig::paper(self.config.seed).for_epoch(epoch);
        if self.config.se_iterations > 0 {
            se_config = se_config.with_max_iterations(self.config.se_iterations);
        }
        let admission = self
            .committee
            .decide(epoch, &reported, None, None, se_config)?;
        // The checkpoint captures the solver state *before* finalization:
        // `SeEngine::from_checkpoint(…)` + `finish()` reproduces the
        // admitted set below and its utility bit for bit, since the
        // restore keeps the recorded best verbatim (pinned by the
        // `se_restore` integration test).
        let se = admission.engine().map(SeEngine::checkpoint);
        let decision = admission.finish();
        // 3. Stage-4 settlement on the committees' true behaviour.
        let tally = self.committee.settle(epoch, &reports, &decision);
        // 4. Summarize, alert, persist — one record, one append.
        self.clock.close_epoch();
        let offered_txs: u64 = truth.iter().map(ShardInfo::tx_count).sum();
        self.totals.epochs += 1;
        self.totals.reports += truth.len() as u64;
        self.totals.admitted_txs += tally.admitted_txs;
        let mut admitted = decision.admitted.clone();
        admitted.sort_unstable();
        let id_bytes: Vec<u8> = admitted
            .iter()
            .flat_map(|c| c.value().to_le_bytes())
            .collect();
        let summary = EpochSummary {
            epoch,
            t_open,
            t_close,
            reports: truth.len() as u64,
            offered_txs,
            quarantined: decision.quarantined.len() as u64,
            adversarial,
            admitted: decision.admitted.len() as u64,
            admitted_txs: tally.admitted_txs,
            utility: decision.utility,
            ddl_s: decision.ddl.as_secs(),
            capacity: decision.capacity,
            n_min: decision.n_min as u64,
            schedule_crc: crc32(&id_bytes),
        };
        let alerts = self.alerts.evaluate(&summary);
        obs_event!(
            self.obs, "epoch_close", t_close,
            "epoch" => epoch,
            "reports" => summary.reports,
            "offered_txs" => summary.offered_txs,
            "admitted" => summary.admitted,
            "admitted_txs" => summary.admitted_txs,
            "utility" => summary.utility,
            "alerts" => alerts.len(),
        );
        for alert in &alerts {
            obs_event!(
                self.obs, "alert_fired", t_close,
                "epoch" => epoch,
                "alert" => alert.kind.as_str(),
                "threshold" => alert.threshold,
                "observed" => alert.observed,
            );
        }
        let defense = self.committee.defense.as_ref();
        let record = HistoryRecord::Epoch(Box::new(EpochRecord {
            summary: summary.clone(),
            alerts: alerts.clone(),
            checkpoint: DaemonCheckpoint {
                cursor: self.source.cursor(),
                clock: self.clock,
                defense: defense.map(DefenseEngine::checkpoint),
                total_epochs: self.totals.epochs,
                total_reports: self.totals.reports,
                total_admitted_txs: self.totals.admitted_txs,
                se,
            },
        }));
        let bytes = self.history.append(&record)?;
        obs_event!(
            self.obs, "history_append", t_close,
            "record" => record.kind(),
            "bytes" => bytes,
        );
        // 5. Metrics and the endpoint snapshot; with ingest's two counters
        // they conserve reports and txs (OPERATIONS.md).
        self.metrics.incr("daemon.epochs");
        self.metrics.add("daemon.admitted", summary.admitted);
        self.metrics.add("daemon.refused", tally.refused);
        self.metrics.add("daemon.quarantined", summary.quarantined);
        self.metrics.add("daemon.admitted_txs", tally.admitted_txs);
        self.metrics.add("daemon.refused_txs", tally.refused_txs);
        self.metrics
            .add("daemon.quarantined_txs", tally.quarantined_txs);
        self.metrics.add("daemon.alerts", alerts.len() as u64);
        self.metrics
            .set_gauge("daemon.epoch", self.clock.epoch() as f64);
        self.metrics.set_gauge("daemon.clock_s", self.clock.now());
        self.metrics.set_gauge("daemon.utility", summary.utility);
        self.metrics
            .set_gauge("daemon.cursor", self.source.cursor() as f64);
        self.metrics
            .set_gauge("daemon.history_bytes", self.history.bytes() as f64);
        self.metrics
            .observe("daemon.epoch_admitted_txs", tally.admitted_txs as f64);
        self.render_snapshot();
        Ok(summary)
    }

    /// Renders the registry into the endpoint cell.
    fn render_snapshot(&self) {
        self.snapshot.set(self.metrics.snapshot_json());
    }
}
