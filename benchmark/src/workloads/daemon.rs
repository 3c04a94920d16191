//! `daemon-steady` and `daemon-firehose`: report in → epoch record out.
//!
//! The real pass drives `Daemon::step_epoch`; the shadow pass is
//! [`ShadowDaemon`], a re-statement of `Daemon::open`/`step_epoch` over
//! the same public layer calls, in the same order, with a span around
//! each. The two write separate history logs, and `finish` requires the
//! logs to be byte-identical — every summary, checkpoint and CRC — so a
//! drift between the shadow and the program fails the run rather than
//! skewing the layer split.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Cursor, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mvcom_core::defense::{DefenseConfig, DefenseEngine, DefenseObservation};
use mvcom_core::problem::{Instance, InstanceBuilder};
use mvcom_core::se::{SeConfig, SeEngine};
use mvcom_core::solution::Solution;
use mvcom_daemon::history::encode_record;
use mvcom_daemon::{
    crc32, read_history, AlertConfig, AlertEngine, Daemon, DaemonCheckpoint, DaemonConfig,
    EpochClock, EpochRecord, EpochSummary, HistoryRecord, HistoryWriter, IngestSource, JsonlSource,
    SeededSource, SnapshotCell, Startup,
};
use mvcom_dataset::adversary::{build_adversary, Adversary, AdversaryConfig, CommitteeReport};
use mvcom_obs::{MetricsRegistry, Obs, ObsLevel};
use mvcom_types::{CommitteeId, ShardInfo};

use super::{
    cheap_reference, utility_scale, Facts, ProbeTarget, Scale, Variant, Workload, SETUP_REPEATS,
};
use crate::inputs::{render_feed, world_seed};
use crate::span;
use crate::trace::{Kind, Tracer};

/// `Daemon`'s per-epoch SE seed mixer (private there; the byte-identical
/// history check below is what keeps this copy honest).
const EPOCH_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Clone, Copy, Debug)]
struct Shape {
    population: u32,
    reports_per_epoch: u32,
    se_iterations: u64,
    worlds: u32,
    warmup: u32,
    measured: u32,
    /// Feed the daemon a rendered JSONL stream instead of `SeededSource`.
    jsonl: bool,
    /// End each world with a torn-tail resume of its history.
    resume: bool,
}

impl Shape {
    fn of(name: &str, scale: Scale) -> Shape {
        match (name, scale) {
            // ~19 ms per close at 50 SE iterations, but 9–48 ms from one
            // epoch to the next: 160 measured closes a pass (~3 s), so that
            // their sum and p90 depend little on which ones a seed draws.
            ("daemon-steady", Scale::Full) => Shape {
                population: 96,
                reports_per_epoch: 48,
                se_iterations: 50,
                worlds: 8,
                warmup: 1,
                measured: 20,
                jsonl: false,
                resume: false,
            },
            ("daemon-steady", Scale::Tiny) => Shape {
                population: 24,
                reports_per_epoch: 12,
                se_iterations: 20,
                worlds: 2,
                warmup: 1,
                measured: 3,
                jsonl: false,
                resume: false,
            },
            // ~23 ms and ~760 KB of history per close; ~24 MB per world
            // to replay on resume.
            (_, Scale::Full) => Shape {
                population: 512,
                reports_per_epoch: 256,
                se_iterations: 2,
                worlds: 2,
                warmup: 1,
                measured: 30,
                jsonl: true,
                resume: true,
            },
            (_, Scale::Tiny) => Shape {
                population: 32,
                reports_per_epoch: 16,
                se_iterations: 2,
                worlds: 2,
                warmup: 1,
                measured: 3,
                jsonl: true,
                resume: true,
            },
        }
    }

    fn epochs(&self) -> u32 {
        self.warmup + self.measured
    }

    fn kind(&self, epoch: u32) -> Kind {
        if epoch < self.warmup {
            Kind::Warmup
        } else {
            Kind::Op
        }
    }
}

struct World {
    config: DaemonConfig,
    feed: Option<Arc<[u8]>>,
}

impl World {
    fn source(&self) -> Result<Box<dyn IngestSource>, String> {
        Ok(match &self.feed {
            Some(feed) => Box::new(JsonlSource::new(Cursor::new(feed.clone()))),
            None => Box::new(
                SeededSource::new(self.config.seed, self.config.population)
                    .map_err(|e| format!("seeded source: {e}"))?,
            ),
        })
    }

    fn open(&self, path: &Path, resume: bool, obs: Obs) -> Result<Daemon, String> {
        Daemon::open(
            self.config.clone(),
            self.source()?,
            path,
            resume,
            obs,
            AlertEngine::new(AlertConfig::default()),
        )
        .map_err(|e| format!("Daemon::open: {e}"))
    }
}

/// What the shadow learned about one epoch beyond its summary.
#[derive(Clone, Debug, PartialEq)]
struct ShadowEpoch {
    summary: EpochSummary,
    frame_bytes: u64,
    refused: u64,
    fallback: bool,
    feasible: bool,
    u_ref: f64,
    scale: f64,
    iterations: u64,
    iters_to_best: u64,
    improving_iters: u64,
    chains: u64,
}

pub struct DaemonWorkload {
    name: &'static str,
    shape: Shape,
    tmp: PathBuf,
    worlds: Vec<World>,
    /// First real pass's summaries per world (later passes must repeat).
    real: Option<Vec<Vec<EpochSummary>>>,
    shadow: Option<Vec<Vec<ShadowEpoch>>>,
    facts: Facts,
    obs_events: u64,
    resume_read_bytes: u64,
    probe_target: Option<ProbeTarget>,
}

impl DaemonWorkload {
    pub fn new(name: &str, seed: u64, scale: Scale, tmp: &Path) -> Result<DaemonWorkload, String> {
        let name = if name == "daemon-steady" {
            "daemon-steady"
        } else {
            "daemon-firehose"
        };
        let shape = Shape::of(name, scale);
        let worlds = (0..shape.worlds)
            .map(|w| {
                let ws = world_seed(seed, name, u64::from(w));
                // One spare epoch of reports: the resume re-derives the
                // last epoch, never reads past it.
                let reports = u64::from(shape.epochs() + 1) * u64::from(shape.reports_per_epoch);
                World {
                    config: DaemonConfig {
                        seed: ws,
                        population: shape.population,
                        reports_per_epoch: shape.reports_per_epoch,
                        batch_size: 8,
                        se_iterations: shape.se_iterations,
                        defense: true,
                        adv_fraction: 0.2,
                        adv_strategy: "misreport".to_string(),
                        ..DaemonConfig::default()
                    },
                    feed: shape
                        .jsonl
                        .then(|| render_feed(ws, shape.population, reports).into()),
                }
            })
            .collect();
        Ok(DaemonWorkload {
            name,
            shape,
            tmp: tmp.to_path_buf(),
            worlds,
            real: None,
            shadow: None,
            facts: Facts::default(),
            obs_events: 0,
            resume_read_bytes: 0,
            probe_target: None,
        })
    }

    fn path(&self, role: &str, world: usize) -> PathBuf {
        self.tmp.join(format!("{role}-{world}.log"))
    }
}

/// Streams two files against each other (no second copy in memory: the
/// firehose logs are tens of MB and `peak_rss_mb` is a reported metric).
fn files_identical(a: &Path, b: &Path) -> Result<bool, String> {
    let open = |p: &Path| std::fs::File::open(p).map_err(|e| format!("open {}: {e}", p.display()));
    let (mut fa, mut fb) = (open(a)?, open(b)?);
    let len = |f: &std::fs::File| f.metadata().map(|m| m.len()).map_err(|e| e.to_string());
    if len(&fa)? != len(&fb)? {
        return Ok(false);
    }
    let (mut ba, mut bb) = (vec![0u8; 1 << 20], vec![0u8; 1 << 20]);
    loop {
        let n = fa.read(&mut ba).map_err(|e| e.to_string())?;
        if n == 0 {
            return Ok(true);
        }
        fb.read_exact(&mut bb[..n]).map_err(|e| e.to_string())?;
        if ba[..n] != bb[..n] {
            return Ok(false);
        }
    }
}

/// Cuts `path` in the middle of its final `frame` bytes — a `kill -9`
/// halfway through the last append. Returns the torn bytes left behind.
fn tear_tail(path: &Path, frame: u64) -> Result<u64, String> {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let len = file.metadata().map_err(|e| e.to_string())?.len();
    let torn = frame / 2;
    file.set_len(len - frame + torn)
        .map_err(|e| e.to_string())?;
    Ok(torn)
}

impl Workload for DaemonWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn root_metrics(&self) -> (&'static str, &'static str) {
        ("daemon.epoch_close_us", "daemon.glue_us")
    }

    fn extra_variant(&self) -> Option<Variant> {
        (self.name == "daemon-steady").then_some(Variant::ObsSummary)
    }

    fn real_pass(&mut self, tracer: &mut Tracer, variant: Variant) -> Result<(), String> {
        let mut op = 0u32;
        let mut pass: Vec<Vec<EpochSummary>> = Vec::with_capacity(self.worlds.len());
        let mut events = 0u64;
        for (w, world) in self.worlds.iter().enumerate() {
            let path = self.path("real", w);
            let (obs, sink) = match variant {
                Variant::Plain | Variant::Threaded => (Obs::off(), None),
                Variant::ObsSummary => {
                    let (obs, sink) = Obs::memory(ObsLevel::Summary);
                    (obs, Some(sink))
                }
            };
            let mut daemon = None;
            for _ in 0..SETUP_REPEATS {
                drop(daemon.take());
                tracer.begin(op, Kind::Setup);
                let opened = world.open(&path, false, obs.clone());
                tracer.end();
                daemon = Some(opened?);
            }
            op += 1;
            let mut daemon = daemon.expect("SETUP_REPEATS >= 1");
            let mut summaries = Vec::with_capacity(self.shape.epochs() as usize);
            let mut last_frame = 0u64;
            for e in 0..self.shape.epochs() {
                let before = daemon.history_bytes();
                let kind = self.shape.kind(e);
                tracer.begin(op, kind);
                let closed = daemon.step_epoch();
                tracer.end();
                op += 1;
                self.facts.attempted += 1;
                match closed {
                    Ok(Some(summary)) => summaries.push(summary),
                    Ok(None) => return Err(format!("world {w}: the source drained at epoch {e}")),
                    Err(err) => return Err(format!("world {w} epoch {e}: {err}")),
                }
                last_frame = daemon.history_bytes() - before;
            }
            drop(daemon);
            if let Some(sink) = sink {
                obs.flush();
                events += sink.lines().len() as u64;
            }
            if self.shape.resume {
                let reference = self.path("reference", w);
                std::fs::copy(&path, &reference).map_err(|e| format!("copy history: {e}"))?;
                let dropped = tear_tail(&path, last_frame)?;
                tracer.begin(op, Kind::Resume);
                let resumed = world.open(&path, true, Obs::off()).and_then(|mut d| {
                    let closed = d.step_epoch().map_err(|e| format!("resumed epoch: {e}"));
                    closed.map(|s| (d.startup(), s))
                });
                tracer.end();
                op += 1;
                self.facts.attempted += 1;
                let (startup, summary) = resumed?;
                let expected = Startup::Resumed {
                    epochs: u64::from(self.shape.epochs()) - 1,
                    cursor: u64::from(self.shape.epochs() - 1)
                        * u64::from(self.shape.reports_per_epoch),
                    dropped_bytes: dropped,
                };
                if startup != expected {
                    self.facts.fail(format!(
                        "world {w}: resumed as {startup:?}, expected {expected:?}"
                    ));
                }
                if summary.as_ref() != summaries.last() {
                    self.facts.fail(format!(
                        "world {w}: the resumed epoch differs from the original"
                    ));
                }
                if !files_identical(&path, &reference)? {
                    self.facts.fail(format!(
                        "world {w}: history after the torn-tail resume is not byte-identical"
                    ));
                }
            }
            pass.push(summaries);
        }
        if variant == Variant::ObsSummary {
            self.obs_events = events;
        }
        self.facts
            .keep_first(&mut self.real, pass, "pass's epoch summaries");
        Ok(())
    }

    fn shadow_pass(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let mut op = 0u32;
        let mut pass: Vec<Vec<ShadowEpoch>> = Vec::with_capacity(self.worlds.len());
        let mut read_bytes_total = 0u64;
        for (w, world) in self.worlds.iter().enumerate() {
            let path = self.path("shadow", w);
            let mut shadow = None;
            for _ in 0..SETUP_REPEATS {
                drop(shadow.take());
                tracer.begin(op, Kind::Setup);
                let opened = ShadowDaemon::open_fresh(world, &path, tracer);
                tracer.end();
                shadow = Some(opened?);
            }
            op += 1;
            let mut shadow = shadow.expect("SETUP_REPEATS >= 1");
            let mut epochs = Vec::with_capacity(self.shape.epochs() as usize);
            for e in 0..self.shape.epochs() {
                let kind = self.shape.kind(e);
                let (epoch, instance) = shadow
                    .step_epoch(tracer, op, kind)
                    .map_err(|err| format!("shadow world {w} epoch {e}: {err}"))?;
                if let (None, Kind::Op, Some((instance, config))) =
                    (&self.probe_target, kind, instance)
                {
                    self.probe_target = Some(ProbeTarget {
                        instance,
                        config,
                        op,
                        iterations: epoch.iterations,
                        chains: epoch.chains,
                    });
                }
                op += 1;
                epochs.push(epoch);
            }
            drop(shadow);
            if self.shape.resume {
                let last_frame = epochs.last().map_or(0, |e| e.frame_bytes);
                tear_tail(&path, last_frame)?;
                tracer.begin(op, Kind::Resume);
                let resumed = ShadowDaemon::open_resume(world, &path, tracer);
                let resumed = match resumed {
                    Ok((mut shadow, read_bytes)) => {
                        read_bytes_total += read_bytes;
                        shadow.epoch_inner(tracer).map(|inner| inner.summary)
                    }
                    Err(e) => Err(e),
                };
                tracer.end();
                op += 1;
                let summary = resumed.map_err(|err| format!("shadow world {w} resume: {err}"))?;
                if Some(&summary) != epochs.last().map(|e| &e.summary) {
                    self.facts.fail(format!(
                        "world {w}: the shadow's resumed epoch differs from its original"
                    ));
                }
            }
            pass.push(epochs);
        }
        self.resume_read_bytes = read_bytes_total;
        self.facts
            .keep_first(&mut self.shadow, pass, "shadow pass's epochs");
        Ok(())
    }

    fn probe_target(&self) -> Option<&ProbeTarget> {
        self.probe_target.as_ref()
    }

    fn finish(&mut self) -> Facts {
        let mut facts = std::mem::take(&mut self.facts);
        let (Some(real), Some(shadow)) = (self.real.take(), self.shadow.take()) else {
            facts.fail("a real and a shadow pass are both required".to_string());
            return facts;
        };
        let warmup = self.shape.warmup as usize;
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut add = |name: &'static str, value: f64| *totals.entry(name).or_insert(0.0) += value;
        let mut history_bytes = 0u64;
        for (w, (summaries, epochs)) in real.iter().zip(&shadow).enumerate() {
            // Shadow vs real, operation by operation and byte by byte.
            for (e, (summary, epoch)) in summaries.iter().zip(epochs).enumerate() {
                if *summary != epoch.summary {
                    facts.fail(format!(
                        "world {w} epoch {e}: shadow summary {:?} != real {summary:?}",
                        epoch.summary
                    ));
                }
            }
            match files_identical(&self.path("real", w), &self.path("shadow", w)) {
                Ok(true) => {}
                Ok(false) => facts.fail(format!(
                    "world {w}: the shadow's history log differs from the daemon's"
                )),
                Err(e) => facts.fail(format!("world {w}: comparing histories: {e}")),
            }
            // The written log reads back whole, with nothing dropped.
            match read_history(&self.path("real", w)) {
                Ok(loaded) => {
                    let read_epochs: Vec<&EpochRecord> = loaded
                        .records
                        .iter()
                        .filter_map(|r| match r {
                            HistoryRecord::Epoch(e) => Some(e.as_ref()),
                            HistoryRecord::Header(_) => None,
                        })
                        .collect();
                    if loaded.dropped_bytes != 0 || read_epochs.len() != summaries.len() {
                        facts.fail(format!(
                            "world {w}: read_history returned {} epochs and dropped {} bytes; \
                             expected {} and 0",
                            read_epochs.len(),
                            loaded.dropped_bytes,
                            summaries.len()
                        ));
                    }
                    for (record, summary) in read_epochs.iter().zip(summaries) {
                        if record.summary != *summary {
                            facts.fail(format!(
                                "world {w} epoch {}: the logged summary differs",
                                summary.epoch
                            ));
                        }
                    }
                    history_bytes += loaded.valid_bytes;
                }
                Err(e) => facts.fail(format!("world {w}: read_history: {e}")),
            }
            for (e, epoch) in epochs.iter().enumerate() {
                let s = &epoch.summary;
                // Conservation, in committees and in transactions.
                if s.reports != s.admitted + epoch.refused + s.quarantined {
                    facts.fail(format!(
                        "world {w} epoch {e}: {} reports != {} admitted + {} refused + {} quarantined",
                        s.reports, s.admitted, epoch.refused, s.quarantined
                    ));
                }
                if s.offered_txs < s.admitted_txs {
                    facts.fail(format!(
                        "world {w} epoch {e}: admitted {} txs of {} offered",
                        s.admitted_txs, s.offered_txs
                    ));
                }
                if !epoch.feasible {
                    facts.fail(format!("world {w} epoch {e}: the schedule is infeasible"));
                }
                if epoch.fallback {
                    facts.fail(format!("world {w} epoch {e}: fell back to admit-all"));
                }
                if e < warmup {
                    continue;
                }
                facts.committees += s.reports;
                facts.admitted_txs += s.admitted_txs;
                facts.utility_gap += epoch.u_ref - s.utility;
                facts.utility_scale += epoch.scale;
                add("ingest.reports", s.reports as f64);
                add("defense.quarantined", s.quarantined as f64);
                add("se.iterations", epoch.iterations as f64);
                add("se.iters_to_best", epoch.iters_to_best as f64);
                add("se.improving_iters", epoch.improving_iters as f64);
                add("se.chains", epoch.chains as f64);
                add("se.fallbacks", f64::from(u8::from(epoch.fallback)));
            }
        }
        let all_epochs = f64::from(self.shape.epochs() * self.shape.worlds);
        totals.insert("ingest.rejected", 0.0);
        totals.insert("history.bytes_per_epoch", history_bytes as f64 / all_epochs);
        totals.insert("obs.events_emitted", self.obs_events as f64);
        totals.insert("history.read_bytes", self.resume_read_bytes as f64);
        facts.counts = totals;
        facts
    }
}

/// What [`ShadowDaemon::schedule`] decided, plus the instance it decided on.
struct Scheduled {
    admitted: Vec<CommitteeId>,
    utility: f64,
    ddl_s: f64,
    se: Option<mvcom_core::se::SeCheckpoint>,
    solved: Option<(Instance, Solution, SeConfig)>,
    iterations: u64,
    iters_to_best: u64,
    improving_iters: u64,
    chains: u64,
}

/// One epoch of the shadow, before the out-of-span extras.
struct Inner {
    summary: EpochSummary,
    frame_bytes: u64,
    screened: u64,
    fallback: bool,
    record: HistoryRecord,
    scheduled: Scheduled,
}

/// `Daemon`, restated over public layer calls.
struct ShadowDaemon {
    config: DaemonConfig,
    source: Box<dyn IngestSource>,
    clock: EpochClock,
    defense: Option<DefenseEngine>,
    adversary: Option<Box<dyn Adversary>>,
    history: HistoryWriter,
    alerts: AlertEngine,
    metrics: MetricsRegistry,
    snapshot: SnapshotCell,
    total_epochs: u64,
    total_reports: u64,
    total_admitted_txs: u64,
}

/// What `Daemon::open` builds before it touches the history file.
struct Parts {
    source: Box<dyn IngestSource>,
    clock: EpochClock,
    defense: Option<DefenseEngine>,
    adversary: Option<Box<dyn Adversary>>,
    metrics: MetricsRegistry,
}

impl ShadowDaemon {
    /// The parts of `Daemon::open` common to fresh and resumed starts.
    fn parts(world: &World) -> Result<Parts, String> {
        let config = &world.config;
        config.validate().map_err(|e| e.to_string())?;
        let source = world.source()?;
        let clock = EpochClock::new(u64::from(config.reports_per_epoch), config.batch_interval_s)
            .map_err(|e| e.to_string())?;
        let defense = if config.defense {
            Some(
                DefenseEngine::new(DefenseConfig::paper())
                    .map_err(|e| e.to_string())?
                    .with_obs(Obs::off()),
            )
        } else {
            None
        };
        let adversary = if config.adv_fraction > 0.0 {
            let adv = AdversaryConfig::new(config.adv_fraction, config.seed)
                .map_err(|e| e.to_string())?;
            Some(build_adversary(&config.adv_strategy, adv).map_err(|e| e.to_string())?)
        } else {
            None
        };
        let metrics = MetricsRegistry::new();
        metrics.register_histogram(
            "daemon.epoch_admitted_txs",
            &[100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0],
        );
        Ok(Parts {
            source,
            clock,
            defense,
            adversary,
            metrics,
        })
    }

    fn assemble(world: &World, parts: Parts, history: HistoryWriter) -> ShadowDaemon {
        let shadow = ShadowDaemon {
            config: world.config.clone(),
            source: parts.source,
            clock: parts.clock,
            defense: parts.defense,
            adversary: parts.adversary,
            history,
            alerts: AlertEngine::new(AlertConfig::default()),
            metrics: parts.metrics,
            snapshot: SnapshotCell::new(),
            total_epochs: 0,
            total_reports: 0,
            total_admitted_txs: 0,
        };
        shadow.snapshot.set(shadow.metrics.snapshot_json());
        shadow
    }

    fn open_fresh(world: &World, path: &Path, tracer: &mut Tracer) -> Result<ShadowDaemon, String> {
        let parts = span!(tracer, "daemon.open_parts", Self::parts(world))?;
        let history = span!(tracer, "history.create", {
            let mut writer = HistoryWriter::create(path).map_err(|e| e.to_string())?;
            writer
                .append(&HistoryRecord::Header(world.config.header()))
                .map_err(|e| e.to_string())?;
            writer
        });
        Ok(Self::assemble(world, parts, history))
    }

    /// `Daemon::open(resume = true)`; also returns the bytes replayed.
    fn open_resume(
        world: &World,
        path: &Path,
        tracer: &mut Tracer,
    ) -> Result<(ShadowDaemon, u64), String> {
        let mut parts = span!(tracer, "daemon.open_parts", Self::parts(world))?;
        let file_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        let loaded =
            span!(tracer, "history.read", read_history(path)).map_err(|e| e.to_string())?;
        let Some(HistoryRecord::Header(header)) = loaded.records.first() else {
            return Err("history does not start with a Header record".to_string());
        };
        if *header != world.config.header() {
            return Err("history header does not match the configuration".to_string());
        }
        let last = loaded.records.iter().rev().find_map(|r| match r {
            HistoryRecord::Epoch(e) => Some(e),
            HistoryRecord::Header(_) => None,
        });
        let mut totals = (0, 0, 0);
        if let Some(epoch) = last {
            let ckpt = &epoch.checkpoint;
            parts.clock = ckpt.clock;
            totals = (
                ckpt.total_epochs,
                ckpt.total_reports,
                ckpt.total_admitted_txs,
            );
            parts.defense = match &ckpt.defense {
                Some(d) => Some(
                    span!(
                        tracer,
                        "defense.from_checkpoint",
                        DefenseEngine::from_checkpoint(d)
                    )
                    .map_err(|e| e.to_string())?
                    .with_obs(Obs::off()),
                ),
                None => None,
            };
            span!(
                tracer,
                "ingest.fast_forward",
                parts.source.fast_forward(ckpt.cursor)
            )
            .map_err(|e| e.to_string())?;
        }
        parts.metrics.incr("daemon.recoveries");
        let history = span!(
            tracer,
            "history.append_existing",
            HistoryWriter::append_existing(path, loaded.valid_bytes)
        )
        .map_err(|e| e.to_string())?;
        span!(tracer, "history.drop_loaded", drop(loaded));
        let mut shadow = Self::assemble(world, parts, history);
        (
            shadow.total_epochs,
            shadow.total_reports,
            shadow.total_admitted_txs,
        ) = totals;
        Ok((shadow, file_bytes))
    }

    /// One operation: the mirrored epoch under a root span, then — outside
    /// it — the checks and reference solves the real path never runs, and
    /// a probe root timing `encode_record` and `crc32` on their own.
    fn step_epoch(
        &mut self,
        tracer: &mut Tracer,
        op: u32,
        kind: Kind,
    ) -> Result<(ShadowEpoch, Option<(Instance, SeConfig)>), String> {
        tracer.begin(op, kind);
        let inner = self.epoch_inner(tracer);
        tracer.end();
        let inner = inner?;
        if kind == Kind::Op {
            tracer.begin(op, Kind::Probe);
            let frame = span!(tracer, "history.encode", encode_record(&inner.record))
                .map_err(|e| e.to_string())?;
            std::hint::black_box(span!(tracer, "history.crc", crc32(&frame[8..])));
            tracer.end();
        }
        let Inner {
            summary,
            frame_bytes,
            screened,
            fallback,
            scheduled,
            ..
        } = inner;
        let (feasible, u_ref, scale, probe) = match scheduled.solved {
            Some((instance, best, config)) => (
                instance.is_feasible(&best),
                cheap_reference(&instance)?,
                utility_scale(&instance),
                Some((instance, config)),
            ),
            None => (true, summary.utility, 0.0, None),
        };
        Ok((
            ShadowEpoch {
                refused: screened - summary.admitted,
                fallback,
                feasible,
                u_ref,
                scale,
                iterations: scheduled.iterations,
                iters_to_best: scheduled.iters_to_best,
                improving_iters: scheduled.improving_iters,
                chains: scheduled.chains,
                summary,
                frame_bytes,
            },
            probe,
        ))
    }

    /// `Daemon::step_epoch` + `close_epoch`, statement for statement.
    fn epoch_inner(&mut self, tracer: &mut Tracer) -> Result<Inner, String> {
        let epoch = self.clock.epoch();
        let t_open = self.clock.now();
        let mut truth: Vec<ShardInfo> = Vec::with_capacity(self.clock.remaining() as usize);
        let mut batch: Vec<ShardInfo> = Vec::new();
        while !self.clock.is_full() {
            let want = self
                .clock
                .remaining()
                .min(u64::from(self.config.batch_size)) as usize;
            let got = span!(
                tracer,
                "ingest.next_batch",
                self.source.next_batch(&mut batch, want)
            )
            .map_err(|e| e.to_string())?;
            if got == 0 {
                return Err("the source drained mid-epoch".to_string());
            }
            self.clock.note_batch(got as u64);
            let txs: u64 = batch.iter().map(ShardInfo::tx_count).sum();
            self.metrics.add("daemon.reports", got as u64);
            self.metrics.add("daemon.offered_txs", txs);
            truth.append(&mut batch);
        }
        let t_close = self.clock.now();
        let reports: Vec<CommitteeReport> = match &self.adversary {
            Some(adv) => span!(tracer, "adversary.act", adv.act(epoch, &truth)),
            None => truth.iter().copied().map(CommitteeReport::honest).collect(),
        };
        let adversarial = reports.iter().filter(|r| r.adversarial).count() as u64;
        let reported: Vec<ShardInfo> = reports.iter().map(|r| r.reported).collect();
        let n_min = (reported.len() as f64 * self.config.n_min_fraction).round() as usize;
        let screened: Vec<ShardInfo> = match &mut self.defense {
            Some(d) => span!(
                tracer,
                "defense.admissible",
                d.admissible(epoch, &reported, n_min)
            ),
            None => reported.clone(),
        };
        let quarantined = (reported.len() - screened.len()) as u64;
        let n_min = n_min.min(screened.len());
        let capacity = self
            .config
            .capacity_per_committee
            .saturating_mul(screened.len() as u64);
        let mut scheduled = self.schedule(tracer, epoch, &screened, n_min, capacity);
        let fallback = scheduled.se.is_none();
        let admitted_set: BTreeSet<CommitteeId> = scheduled.admitted.iter().copied().collect();
        if let Some(defense) = &mut self.defense {
            let observations: Vec<DefenseObservation> = reports
                .iter()
                .map(|r| DefenseObservation {
                    committee: r.committee(),
                    reported_size: r.reported.tx_count(),
                    reported_latency: r.reported.two_phase_latency(),
                    observed_latency: r.truth.two_phase_latency(),
                    observed_size: admitted_set
                        .contains(&r.committee())
                        .then_some(r.truth.tx_count()),
                })
                .collect();
            span!(
                tracer,
                "defense.end_epoch",
                defense.end_epoch(epoch, &observations)
            );
        }
        self.clock.close_epoch();
        let offered_txs: u64 = truth.iter().map(ShardInfo::tx_count).sum();
        let admitted_txs: u64 = truth
            .iter()
            .filter(|s| admitted_set.contains(&s.committee()))
            .map(ShardInfo::tx_count)
            .sum();
        self.total_epochs += 1;
        self.total_reports += truth.len() as u64;
        self.total_admitted_txs += admitted_txs;
        let mut id_bytes = Vec::with_capacity(admitted_set.len() * 4);
        for id in &admitted_set {
            id_bytes.extend_from_slice(&id.value().to_le_bytes());
        }
        let summary = EpochSummary {
            epoch,
            t_open,
            t_close,
            reports: truth.len() as u64,
            offered_txs,
            quarantined,
            adversarial,
            admitted: admitted_set.len() as u64,
            admitted_txs,
            utility: scheduled.utility,
            ddl_s: scheduled.ddl_s,
            capacity,
            n_min: n_min as u64,
            schedule_crc: crc32(&id_bytes),
        };
        let alerts = self.alerts.evaluate(&summary);
        let defense_ckpt = self
            .defense
            .as_ref()
            .map(|d| span!(tracer, "defense.checkpoint", d.checkpoint()));
        let record = HistoryRecord::Epoch(Box::new(EpochRecord {
            summary: summary.clone(),
            alerts: alerts.clone(),
            checkpoint: DaemonCheckpoint {
                cursor: self.source.cursor(),
                clock: self.clock,
                defense: defense_ckpt,
                total_epochs: self.total_epochs,
                total_reports: self.total_reports,
                total_admitted_txs: self.total_admitted_txs,
                se: scheduled.se.take(),
            },
        }));
        let frame_bytes = span!(tracer, "history.append", self.history.append(&record))
            .map_err(|e| e.to_string())?;
        self.metrics.incr("daemon.epochs");
        self.metrics.add("daemon.admitted_txs", admitted_txs);
        self.metrics.add("daemon.quarantined", quarantined);
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
            .observe("daemon.epoch_admitted_txs", admitted_txs as f64);
        span!(
            tracer,
            "obs.snapshot",
            self.snapshot.set(self.metrics.snapshot_json())
        );
        Ok(Inner {
            summary,
            frame_bytes,
            screened: screened.len() as u64,
            fallback,
            record,
            scheduled,
        })
    }

    /// `Daemon::schedule`, with the engine driven step by step.
    fn schedule(
        &self,
        tracer: &mut Tracer,
        epoch: u64,
        screened: &[ShardInfo],
        n_min: usize,
        capacity: u64,
    ) -> Scheduled {
        let fallback = || {
            let ddl_s = screened
                .iter()
                .map(|s| s.two_phase_latency().as_secs())
                .fold(0.0_f64, f64::max);
            let utility = screened
                .iter()
                .map(|s| {
                    self.config.alpha * s.tx_count() as f64
                        - (ddl_s - s.two_phase_latency().as_secs())
                })
                .sum();
            Scheduled {
                admitted: screened.iter().map(ShardInfo::committee).collect(),
                utility,
                ddl_s,
                se: None,
                solved: None,
                iterations: 0,
                iters_to_best: 0,
                improving_iters: 0,
                chains: 0,
            }
        };
        if screened.len() < 2 {
            return fallback();
        }
        let built = span!(
            tracer,
            "problem.build",
            InstanceBuilder::new()
                .alpha(self.config.alpha)
                .capacity(capacity)
                .n_min(n_min)
                .shards(screened.to_vec())
                .build()
        );
        let Ok(instance) = built else {
            return fallback();
        };
        let epoch_seed = self.config.seed ^ epoch.wrapping_mul(EPOCH_SEED_MIX);
        let mut se_config = SeConfig::paper(epoch_seed);
        if self.config.se_iterations > 0 {
            se_config = se_config.with_max_iterations(self.config.se_iterations);
        }
        let budget = se_config.max_iterations;
        let engine = span!(
            tracer,
            "se.new",
            SeEngine::new(&instance, se_config).map(|e| e.with_obs(Obs::off()))
        );
        let Ok(mut engine) = engine else {
            return fallback();
        };
        span!(tracer, "se.steps", {
            while engine.iteration() < budget && !engine.is_converged() {
                engine.step();
            }
        });
        let chains = engine.chain_utilities().len() as u64;
        let se = span!(tracer, "se.checkpoint", engine.checkpoint());
        let outcome = span!(tracer, "se.finish", engine.finish());
        let (iters_to_best, improving_iters) = climb_stats(&outcome);
        Scheduled {
            admitted: outcome
                .best_solution
                .iter_selected()
                .map(|i| instance.shards()[i].committee())
                .collect(),
            utility: outcome.best_utility,
            ddl_s: instance.ddl().as_secs(),
            se: Some(se),
            iterations: outcome.iterations,
            iters_to_best,
            improving_iters,
            chains,
            solved: Some((instance, outcome.best_solution, se_config)),
        }
    }
}

/// From the recorded trajectory: the first iteration at which the final
/// best utility was held, and how many recorded points improved on the
/// one before.
pub fn climb_stats(outcome: &mvcom_core::se::SeOutcome) -> (u64, u64) {
    let points = outcome.trajectory.points();
    let to_best = points
        .iter()
        .find(|p| p.best_so_far >= outcome.best_utility)
        .map_or(outcome.iterations, |p| p.iteration);
    let improving = points
        .windows(2)
        .filter(|w| w[1].best_so_far > w[0].best_so_far)
        .count() as u64;
    (to_best, improving)
}
