//! **mvcom-obs** — deterministic observability for the MVCom pipeline.
//!
//! A zero-dependency telemetry subsystem shared by every workspace crate:
//!
//! * an [`Obs`] handle that filters, sequences and encodes [`Event`]s to a
//!   JSONL sink (file, in-memory buffer, or nothing);
//! * a lock-cheap [`MetricsRegistry`] — counters, gauges and fixed-bucket
//!   histograms keyed by static names;
//! * a span API ([`Obs::span`] / [`span!`]) whose timestamps come from the
//!   emitting site's *logical* clock (virtual time, simulated seconds, or
//!   a round index) — never the wall clock, so a trace replays
//!   byte-identically for a fixed seed (`clippy.toml` bans the clock);
//! * a versioned, documented event [`schema`] the sink validates every
//!   event against before encoding it.
//!
//! The full wire format is documented in `OBSERVABILITY.md` at the
//! workspace root; the architecture rationale is DESIGN.md §8.
//!
//! # Example: record a run and read it back
//!
//! ```
//! use mvcom_obs::{span, Obs, ObsLevel};
//!
//! // An in-memory sink (use `Obs::to_file` for a real events.jsonl).
//! let (obs, buffer) = Obs::memory(ObsLevel::Events);
//!
//! // A span over a pipeline stage, clocked in logical seconds.
//! let stage = span!(obs, 0.0, "formation", "epoch" => 3u64);
//! obs.incr("epoch.committees_formed");
//! stage.close(812.5);
//!
//! // Metrics flush as `metric` events; everything lands in the buffer.
//! obs.flush_metrics(812.5);
//! obs.flush();
//!
//! let lines = buffer.lines();
//! assert_eq!(lines.len(), 3, "{lines:#?}");
//! assert!(lines[0].contains(r#""kind":"span_open""#));
//! assert!(lines[1].contains(r#""kind":"span_close""#));
//! assert!(lines[2].contains(r#""kind":"metric""#));
//! // Every event validated against the schema on the way in.
//! assert_eq!(obs.invalid_dropped(), 0);
//! ```
//!
//! # Determinism
//!
//! Given the same emitted values in the same order, the byte stream is
//! identical: the encoder is hand-rolled (no serializer drift), floats
//! print shortest-round-trip, `seq` is assigned by the one thread that
//! owns the handle, and nothing here reads a clock or an RNG.
//!
//! # One handle per thread
//!
//! An [`Obs`] is `Rc` + `RefCell` inside, so it is neither `Send` nor
//! `Sync`: no worker can reach the thread that orders the lines. A
//! fan-out hands telemetry to a worker the way it hands it randomness —
//! [`Obs::fork`] one [`ObsSeed`] per task where the task's RNG is forked,
//! [`ObsSeed::open`] it inside the worker, return
//! [`Obs::take_captured`] with the task's result, and [`Obs::replay`] the
//! results in task order:
//!
//! ```
//! use mvcom_obs::{obs_event, Obs, ObsLevel};
//! use mvcom_simnet::ordered_map;
//!
//! let (obs, buffer) = Obs::memory(ObsLevel::Events);
//! let seeds: Vec<_> = (0..3).map(|_| obs.fork()).collect();
//! let captures = ordered_map(2, seeds, |seed| {
//!     let worker = seed.open();
//!     obs_event!(worker, "se_improve", 0.0, "iter" => 0u64, "utility" => 1.0);
//!     worker.take_captured()
//! });
//! captures.into_iter().for_each(|events| obs.replay(events));
//! assert_eq!(buffer.lines().len(), 3);
//! ```
//!
//! The same fan-out with the worker borrowing the caller's handle is a
//! compile error (`Rc<..>` cannot be shared between threads safely) — the
//! one changed line is `let worker = …`:
//!
//! ```compile_fail
//! use mvcom_obs::{obs_event, Obs, ObsLevel};
//! use mvcom_simnet::ordered_map;
//!
//! let (obs, buffer) = Obs::memory(ObsLevel::Events);
//! let seeds: Vec<_> = (0..3).map(|_| obs.fork()).collect();
//! let captures = ordered_map(2, seeds, |seed| {
//!     let worker = obs.clone();
//!     obs_event!(worker, "se_improve", 0.0, "iter" => 0u64, "utility" => 1.0);
//!     worker.take_captured()
//! });
//! captures.into_iter().for_each(|events| obs.replay(events));
//! assert_eq!(buffer.lines().len(), 3);
//! ```
//!
//! Moving a clone into the closure does not help: the closure must be
//! `Sync` and now owns an `Rc`. This compiles …
//!
//! ```
//! use mvcom_obs::{obs_event, Obs, ObsLevel};
//! use mvcom_simnet::ordered_map;
//!
//! let (obs, buffer) = Obs::memory(ObsLevel::Events);
//! let seeds: Vec<_> = (0..3).map(|_| obs.fork()).collect();
//! let handle = obs.clone();
//! let captures = ordered_map(2, seeds, move |seed| {
//!     let worker = seed.open();
//!     obs_event!(worker, "se_improve", 0.0, "iter" => 0u64, "utility" => 1.0);
//!     worker.take_captured()
//! });
//! captures.into_iter().for_each(|events| obs.replay(events));
//! assert_eq!(buffer.lines().len(), 3);
//! ```
//!
//! … and this does not:
//!
//! ```compile_fail
//! use mvcom_obs::{obs_event, Obs, ObsLevel};
//! use mvcom_simnet::ordered_map;
//!
//! let (obs, buffer) = Obs::memory(ObsLevel::Events);
//! let seeds: Vec<_> = (0..3).map(|_| obs.fork()).collect();
//! let handle = obs.clone();
//! let captures = ordered_map(2, seeds, move |seed| {
//!     let worker = handle.clone();
//!     obs_event!(worker, "se_improve", 0.0, "iter" => 0u64, "utility" => 1.0);
//!     worker.take_captured()
//! });
//! captures.into_iter().for_each(|events| obs.replay(events));
//! assert_eq!(buffer.lines().len(), 3);
//! ```
//!
//! Nor does a bare thread get one (`Rc<..>` cannot be sent between
//! threads safely). A seed crosses …
//!
//! ```
//! use mvcom_obs::{obs_event, Obs, ObsLevel};
//!
//! let (obs, buffer) = Obs::memory(ObsLevel::Events);
//! let (seed, handle) = (obs.fork(), obs.clone());
//! let worker = std::thread::spawn(move || {
//!     let local = seed.open();
//!     obs_event!(local, "se_improve", 0.0, "iter" => 0u64, "utility" => 1.0);
//!     local.take_captured()
//! });
//! obs.replay(worker.join().expect("the worker does not panic"));
//! assert_eq!(buffer.lines().len(), 1);
//! ```
//!
//! … a handle does not:
//!
//! ```compile_fail
//! use mvcom_obs::{obs_event, Obs, ObsLevel};
//!
//! let (obs, buffer) = Obs::memory(ObsLevel::Events);
//! let (seed, handle) = (obs.fork(), obs.clone());
//! let worker = std::thread::spawn(move || {
//!     let local = handle;
//!     obs_event!(local, "se_improve", 0.0, "iter" => 0u64, "utility" => 1.0);
//!     local.take_captured()
//! });
//! obs.replay(worker.join().expect("the worker does not panic"));
//! assert_eq!(buffer.lines().len(), 1);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::disallowed_types,
        reason = "unit tests compare floats bit for bit and use hash sets and locks as scaffolding"
    )
)]

pub mod event;
pub mod metrics;
pub mod schema;
pub mod sink;
mod span;
mod summary;

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::sync::Arc;

pub use event::{Event, Value};
pub use metrics::{Histogram, MetricsRegistry, SECONDS_BUCKETS};
pub use schema::{FieldSpec, FieldType, KindSpec, SchemaError, SCHEMA_VERSION};
pub use sink::SharedBuffer;
pub use span::Span;
pub use summary::Table;

/// Verbosity of an [`Obs`] handle. Each event kind declares the minimum
/// level at which it is emitted (see [`schema::KINDS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ObsLevel {
    /// Emit nothing (the default for a detached handle).
    #[default]
    Off,
    /// Epoch summaries and metric flushes only.
    Summary,
    /// Spans plus the per-stage event stream (the `--obs-out` default).
    Events,
    /// Everything, including per-proposal SE and per-phase PBFT events.
    Trace,
}

impl ObsLevel {
    /// Parses the CLI spelling (`off|summary|events|trace`).
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s {
            "off" => Some(ObsLevel::Off),
            "summary" => Some(ObsLevel::Summary),
            "events" => Some(ObsLevel::Events),
            "trace" => Some(ObsLevel::Trace),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Summary => "summary",
            ObsLevel::Events => "events",
            ObsLevel::Trace => "trace",
        }
    }
}

struct Sinked {
    seq: u64,
    dropped: u64,
    out: Box<dyn Write + Send>,
}

impl std::fmt::Debug for Sinked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sinked")
            .field("seq", &self.seq)
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

/// Where a handle's events go.
#[derive(Debug)]
enum Sink {
    /// Validated, sequenced and written as JSONL lines.
    Write(Sinked),
    /// A worker handle ([`ObsSeed::open`]): buffered in emission order,
    /// before `seq` assignment and schema validation, until
    /// [`Obs::take_captured`] drains them for [`Obs::replay`].
    Capture(Vec<Event>),
}

#[derive(Debug)]
struct ObsInner {
    level: ObsLevel,
    span_ids: Cell<u64>,
    sink: RefCell<Sink>,
    /// Shared (`Arc`) so a worker handle updates the *parent's* counters
    /// directly: counter additions commute, so fan-out workers reproduce
    /// the serial totals regardless of interleaving.
    metrics: Arc<MetricsRegistry>,
}

/// What crosses a fan-out in place of an [`Obs`]: the level and the shared
/// registry, nothing that orders lines. `Send`, unlike the handle it was
/// [`Obs::fork`]ed from and the one it [`ObsSeed::open`]s into.
#[derive(Debug)]
pub struct ObsSeed {
    inner: Option<(ObsLevel, Arc<MetricsRegistry>)>,
}

impl ObsSeed {
    /// Opens the worker's own handle, on the worker's thread: events
    /// emitted on it are buffered (see [`Obs::take_captured`]), metric
    /// updates land in the forking handle's registry. The seed of a
    /// disabled handle opens a disabled handle.
    ///
    /// Spans opened on a worker handle draw ids from that handle's own
    /// counter, so fan-out sections needing byte-stable span ids must
    /// keep spans on the parent handle (the epoch runner's stage 3 emits
    /// plain events only).
    pub fn open(self) -> Obs {
        let Some((level, metrics)) = self.inner else {
            return Obs::off();
        };
        Obs::build(level, Sink::Capture(Vec::new()), metrics)
    }
}

/// The telemetry handle threaded through the pipeline.
///
/// Cloning is cheap (an `Rc`); all clones share the sink, the sequence
/// counter and the metrics registry, and all of them stay on the thread
/// that built the handle (see the crate docs, "One handle per thread").
/// A handle built with [`Obs::off`] (also the `Default`) skips all work —
/// instrumented code can hold one unconditionally.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Rc<ObsInner>>,
}

impl Obs {
    /// A disabled handle: every operation is a no-op.
    pub fn off() -> Obs {
        Obs { inner: None }
    }

    /// An enabled handle writing JSONL lines to `out`.
    pub fn writer(level: ObsLevel, out: Box<dyn Write + Send>) -> Obs {
        if level == ObsLevel::Off {
            return Obs::off();
        }
        let sink = Sink::Write(Sinked {
            seq: 0,
            dropped: 0,
            out,
        });
        Obs::build(level, sink, Arc::new(MetricsRegistry::new()))
    }

    fn build(level: ObsLevel, sink: Sink, metrics: Arc<MetricsRegistry>) -> Obs {
        Obs {
            inner: Some(Rc::new(ObsInner {
                level,
                span_ids: Cell::new(1),
                sink: RefCell::new(sink),
                metrics,
            })),
        }
    }

    /// Forks the seed of a worker handle, for fan-out sections whose event
    /// lines must not interleave. Call it on this handle's thread, once
    /// per task, where the task's RNG is forked; the task carries the
    /// [`ObsSeed`] to its worker.
    pub fn fork(&self) -> ObsSeed {
        ObsSeed {
            inner: self
                .inner
                .as_ref()
                .map(|inner| (inner.level, Arc::clone(&inner.metrics))),
        }
    }

    /// Drains the events a worker handle ([`ObsSeed::open`]) buffered,
    /// oldest first; empty on any other handle. [`Obs::replay`]ing them on
    /// the forking handle produces exactly the lines — and schema-drop
    /// counts — that emitting the same events there directly would have:
    /// validation and `seq` assignment happen at replay time.
    pub fn take_captured(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        match &mut *inner.sink.borrow_mut() {
            Sink::Capture(events) => std::mem::take(events),
            Sink::Write(_) => Vec::new(),
        }
    }

    /// Re-emits `events` on this handle in order — the caller's half of
    /// the [`Obs::fork`] protocol.
    pub fn replay(&self, events: Vec<Event>) {
        for event in events {
            self.emit(event.kind, event.t, &event.fields);
        }
    }

    /// An enabled handle writing to a freshly created (truncated) file,
    /// buffered; see [`Obs::flush`].
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn to_file(level: ObsLevel, path: &std::path::Path) -> std::io::Result<Obs> {
        Ok(Obs::writer(level, sink::file_sink(path)?))
    }

    /// An enabled handle writing into a [`SharedBuffer`] the caller keeps.
    pub fn memory(level: ObsLevel) -> (Obs, SharedBuffer) {
        let buffer = SharedBuffer::new();
        (Obs::writer(level, Box::new(buffer.clone())), buffer)
    }

    /// `true` when events gated at `level` would be emitted — use to skip
    /// building expensive field sets.
    pub fn enabled(&self, level: ObsLevel) -> bool {
        self.inner.as_ref().is_some_and(|i| i.level >= level)
    }

    /// The handle's level ([`ObsLevel::Off`] for a disabled handle).
    pub fn level(&self) -> ObsLevel {
        self.inner.as_ref().map_or(ObsLevel::Off, |i| i.level)
    }

    /// Emits one event: filters by the kind's registered level, validates
    /// it against the [`schema`], assigns the next `seq` and writes the
    /// encoded line. Invalid events are counted (see
    /// [`Obs::invalid_dropped`]) and dropped rather than panicking.
    pub fn emit(&self, kind: &'static str, t: f64, fields: &[(&'static str, Value)]) {
        let Some(inner) = &self.inner else { return };
        if schema::spec(kind).is_some_and(|spec| inner.level < spec.level) {
            return;
        }
        let event = Event::new(kind, t, fields);
        let mut sink = inner.sink.borrow_mut();
        let sink = match &mut *sink {
            // A worker handle buffers anything that would reach the sink
            // *or* the dropped counter (unknown kinds, invalid payloads);
            // replay reproduces both.
            Sink::Capture(events) => return events.push(event),
            Sink::Write(sink) => sink,
        };
        if schema::validate(&event).is_err() {
            sink.dropped += 1;
            return;
        }
        let line = event::encode_line(sink.seq, &event);
        sink.seq += 1;
        let _ = sink.out.write_all(line.as_bytes());
        let _ = sink.out.write_all(b"\n");
    }

    /// Opens a span named `name` at logical time `t` with extra context
    /// `fields`; prefer the [`span!`] macro. The returned [`Span`] emits
    /// `span_close` when [`Span::close`]d.
    pub fn span(&self, name: &'static str, t: f64, fields: &[(&'static str, Value)]) -> Span {
        let Some(inner) = self.inner.as_ref().filter(|i| i.level >= ObsLevel::Events) else {
            return Span::disabled();
        };
        let id = inner.span_ids.replace(inner.span_ids.get() + 1);
        let mut all = Vec::with_capacity(fields.len() + 2);
        all.push(("id", Value::U64(id)));
        all.push(("name", Value::from(name)));
        all.extend_from_slice(fields);
        self.emit("span_open", t, &all);
        Span::open(self.clone(), id, name, t)
    }

    /// Events dropped because they failed schema validation (0 in a
    /// correct program; tests assert on this).
    pub fn invalid_dropped(&self) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        match &*inner.sink.borrow() {
            Sink::Write(sink) => sink.dropped,
            Sink::Capture(_) => 0,
        }
    }

    /// Flushes the sink's buffer to its destination.
    pub fn flush(&self) {
        let Some(inner) = &self.inner else { return };
        if let Sink::Write(sink) = &mut *inner.sink.borrow_mut() {
            let _ = sink.out.flush();
        }
    }

    // ---- metrics ------------------------------------------------------

    /// Increments the counter `name` (no-op when disabled).
    pub fn incr(&self, name: &'static str) {
        if let Some(inner) = &self.inner {
            inner.metrics.incr(name);
        }
    }

    /// Adds `n` to the counter `name` (no-op when disabled).
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.add(name, n);
        }
    }

    /// Sets the gauge `name` (no-op when disabled).
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.set_gauge(name, value);
        }
    }

    /// Records `value` into the histogram `name` (no-op when disabled).
    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe(name, value);
        }
    }

    /// The shared registry, when the handle is enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|i| i.metrics.as_ref())
    }

    /// Emits the registry as `metric`/`metric_hist` events stamped `t`
    /// (deterministic sorted order), for an end-of-run snapshot.
    pub fn flush_metrics(&self, t: f64) {
        let Some(inner) = &self.inner else { return };
        if inner.level < ObsLevel::Summary {
            return;
        }
        for ev in inner.metrics.snapshot_events(t) {
            self.emit(ev.kind, ev.t, &ev.fields);
        }
    }

    /// The registry rendered as a human-readable table, or `None` when
    /// disabled or empty.
    pub fn metrics_table(&self) -> Option<String> {
        let table = self.inner.as_ref()?.metrics.render_table();
        if table.is_empty() {
            None
        } else {
            Some(table)
        }
    }
}

/// Builds the field slice and calls [`Obs::emit`]:
/// `obs_event!(obs, "se_point", t, "iter" => 10u64, "best" => 1.0)`.
#[macro_export]
macro_rules! obs_event {
    ($obs:expr, $kind:expr, $t:expr $(, $k:literal => $v:expr)* $(,)?) => {
        $obs.emit($kind, $t, &[$(($k, $crate::Value::from($v))),*])
    };
}

/// Opens a span: `span!(obs, t, "formation", "epoch" => 3u64)`. Returns a
/// [`Span`]; call [`Span::close`] with the closing logical time.
#[macro_export]
macro_rules! span {
    ($obs:expr, $t:expr, $name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        $obs.span($name, $t, &[$(($k, $crate::Value::from($v))),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert() {
        let obs = Obs::off();
        obs.emit("se_point", 0.0, &[]);
        obs.incr("a.b");
        assert!(!obs.enabled(ObsLevel::Summary));
        assert_eq!(obs.invalid_dropped(), 0);
        assert!(obs.metrics_table().is_none());
        let span = obs.span("x", 0.0, &[]);
        span.close(1.0);
    }

    #[test]
    fn level_filtering_follows_the_schema_registry() {
        let (obs, buffer) = Obs::memory(ObsLevel::Summary);
        // se_point is Events-level: filtered out at Summary.
        obs_event!(obs, "se_point", 0.0,
            "iter" => 0u64, "current_best" => 0.0, "best_so_far" => 0.0);
        // epoch_start is Summary-level: kept.
        obs_event!(obs, "epoch_start", 0.0, "epoch" => 0u64, "nodes" => 8u64);
        assert_eq!(buffer.lines().len(), 1);
        assert_eq!(obs.invalid_dropped(), 0);
    }

    #[test]
    fn invalid_events_are_dropped_and_counted() {
        let (obs, buffer) = Obs::memory(ObsLevel::Trace);
        obs.emit("se_point", 0.0, &[("iter", Value::U64(0))]); // missing fields
        obs.emit("no_such_kind", 0.0, &[]);
        assert!(buffer.lines().is_empty());
        assert_eq!(obs.invalid_dropped(), 2);
    }

    #[test]
    fn seq_is_dense_and_ordered() {
        let (obs, buffer) = Obs::memory(ObsLevel::Events);
        for i in 0..5u64 {
            obs_event!(obs, "se_improve", i as f64, "iter" => i, "utility" => 0.0);
        }
        for (i, line) in buffer.lines().iter().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i},")), "{line}");
        }
        assert_eq!(buffer.lines().len(), 5);
    }

    #[test]
    fn spans_pair_open_and_close_with_duration() {
        let (obs, buffer) = Obs::memory(ObsLevel::Events);
        let outer = span!(obs, 1.0, "epoch", "epoch" => 7u64);
        let inner = span!(obs, 2.0, "formation");
        inner.close(5.0);
        outer.close(10.0);
        let lines = buffer.lines();
        assert_eq!(lines.len(), 4);
        assert!(
            lines[2].contains(r#""name":"formation","dur":3"#),
            "{}",
            lines[2]
        );
        assert!(
            lines[3].contains(r#""name":"epoch","dur":9"#),
            "{}",
            lines[3]
        );
        // Ids are distinct and the close references its open.
        assert!(lines[0].contains(r#""id":1"#));
        assert!(lines[1].contains(r#""id":2"#));
        assert!(lines[2].contains(r#""id":2"#));
        assert!(lines[3].contains(r#""id":1"#));
    }

    #[test]
    fn clones_share_the_stream() {
        let (obs, buffer) = Obs::memory(ObsLevel::Events);
        let clone = obs.clone();
        obs_event!(obs, "se_improve", 0.0, "iter" => 0u64, "utility" => 1.0);
        obs_event!(clone, "se_improve", 1.0, "iter" => 1u64, "utility" => 2.0);
        assert_eq!(buffer.lines().len(), 2);
        clone.incr("a.count");
        assert_eq!(obs.metrics().map(|m| m.counter("a.count")), Some(1));
    }

    #[test]
    fn levels_parse_and_order() {
        assert!(ObsLevel::Trace > ObsLevel::Events);
        assert!(ObsLevel::Events > ObsLevel::Summary);
        assert!(ObsLevel::Summary > ObsLevel::Off);
        for level in [
            ObsLevel::Off,
            ObsLevel::Summary,
            ObsLevel::Events,
            ObsLevel::Trace,
        ] {
            assert_eq!(ObsLevel::parse(level.as_str()), Some(level));
        }
        assert_eq!(ObsLevel::parse("verbose"), None);
    }

    #[test]
    fn only_the_seed_and_the_capture_cross_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<ObsSeed>();
        assert_send::<Vec<Event>>();
    }

    #[test]
    fn worker_replay_is_byte_identical_to_direct_emission() {
        let emit_all = |obs: &Obs| {
            obs_event!(obs, "se_improve", 0.0, "iter" => 0u64, "utility" => 1.5);
            obs_event!(obs, "se_point", 1.0,
                "iter" => 1u64, "current_best" => 2.0, "best_so_far" => 2.0);
            obs.emit("no_such_kind", 2.0, &[]); // dropped either way
            obs.emit("se_improve", 3.0, &[("iter", Value::U64(3))]); // invalid
        };
        let (direct, direct_buf) = Obs::memory(ObsLevel::Events);
        obs_event!(direct, "epoch_start", 0.0, "epoch" => 0u64, "nodes" => 8u64);
        emit_all(&direct);

        let (parent, parent_buf) = Obs::memory(ObsLevel::Events);
        obs_event!(parent, "epoch_start", 0.0, "epoch" => 0u64, "nodes" => 8u64);
        let seed = parent.fork();
        // The seed is opened where a fan-out opens it: on another thread.
        #[expect(
            clippy::disallowed_methods,
            reason = "a bare second thread is the property under test: the seed crosses, the handle does not"
        )]
        let captured = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let worker = seed.open();
                emit_all(&worker);
                assert_eq!(worker.invalid_dropped(), 0, "counted at replay");
                let captured = worker.take_captured();
                assert!(worker.take_captured().is_empty(), "take drains");
                captured
            });
            worker.join().unwrap()
        });
        // Nothing reaches the parent sink until replay.
        assert_eq!(parent_buf.lines().len(), 1);
        parent.replay(captured);

        assert_eq!(parent_buf.contents(), direct_buf.contents());
        assert_eq!(parent.invalid_dropped(), direct.invalid_dropped());
        assert_eq!(parent.invalid_dropped(), 2);
        assert!(
            parent.take_captured().is_empty(),
            "a writer captures nothing"
        );
    }

    #[test]
    fn worker_level_filters_like_the_parent() {
        let (parent, buf) = Obs::memory(ObsLevel::Summary);
        let worker = parent.fork().open();
        // se_point is Events-level: filtered on a Summary handle, so it
        // must not be captured either.
        obs_event!(worker, "se_point", 0.0,
            "iter" => 0u64, "current_best" => 0.0, "best_so_far" => 0.0);
        obs_event!(worker, "epoch_start", 0.0, "epoch" => 0u64, "nodes" => 8u64);
        let captured = worker.take_captured();
        assert_eq!(captured.len(), 1);
        parent.replay(captured);
        assert_eq!(buf.lines().len(), 1);
        assert!(buf.contents().contains("\"kind\":\"epoch_start\""));
    }

    #[test]
    fn worker_metrics_land_in_the_parent_registry() {
        let (parent, _buf) = Obs::memory(ObsLevel::Events);
        let worker = parent.fork().open();
        worker.incr("pbft.committed");
        worker.add("pbft.committed", 2);
        worker.observe("pbft.latency_s", 1.0);
        assert_eq!(
            parent.metrics().map(|m| m.counter("pbft.committed")),
            Some(3)
        );
        assert_eq!(
            parent
                .metrics()
                .and_then(|m| m.histogram("pbft.latency_s"))
                .map(|h| h.count()),
            Some(1)
        );
    }

    #[test]
    fn the_seed_of_a_disabled_handle_opens_a_disabled_handle() {
        let worker = Obs::off().fork().open();
        assert_eq!(worker.level(), ObsLevel::Off);
        obs_event!(worker, "epoch_start", 0.0, "epoch" => 0u64, "nodes" => 8u64);
        let captured = worker.take_captured();
        assert!(captured.is_empty());
        Obs::off().replay(captured);
    }

    #[test]
    fn writer_at_off_collapses_to_disabled() {
        let buffer = SharedBuffer::new();
        let obs = Obs::writer(ObsLevel::Off, Box::new(buffer.clone()));
        obs_event!(obs, "epoch_start", 0.0, "epoch" => 0u64, "nodes" => 8u64);
        assert!(buffer.lines().is_empty());
    }
}
