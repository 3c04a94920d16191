//! **mvcom-obs** — deterministic observability for the MVCom pipeline.
//!
//! A zero-dependency telemetry subsystem shared by every workspace crate:
//!
//! * an [`Obs`] handle that filters, sequences and encodes [`Event`]s to a
//!   JSONL sink (file, in-memory buffer, or nothing);
//! * a single-thread [`MetricsRegistry`] — counters, gauges and fixed-bucket
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
//! `Sync`: no worker can reach the thread that orders the lines, and
//! nothing is emitted inside a fan-out. Workers return values; the caller
//! emits after the join, in task order — SE's replica merge:
//!
//! ```
//! use mvcom_obs::{obs_event, Obs, ObsLevel};
//! use mvcom_simnet::ordered_map;
//!
//! let (obs, buffer) = Obs::memory(ObsLevel::Events);
//! let utilities = ordered_map(2, vec![1.0, 2.0, 3.0], |u: f64| {
//!     u * 10.0
//! });
//! for (iter, utility) in (0u64..).zip(utilities) {
//!     obs_event!(obs, "se_improve", 0.0, "iter" => iter, "utility" => utility);
//! }
//! assert_eq!(buffer.lines().len(), 3);
//! ```
//!
//! A worker emitting on the caller's handle is a compile error (`Rc<..>`
//! cannot be shared between threads safely) — the one changed line is the
//! closure body:
//!
//! ```compile_fail
//! use mvcom_obs::{obs_event, Obs, ObsLevel};
//! use mvcom_simnet::ordered_map;
//!
//! let (obs, buffer) = Obs::memory(ObsLevel::Events);
//! let utilities = ordered_map(2, vec![1.0, 2.0, 3.0], |u: f64| {
//!     obs_event!(obs, "se_improve", 0.0, "iter" => 0u64, "utility" => u); u * 10.0
//! });
//! for (iter, utility) in (0u64..).zip(utilities) {
//!     obs_event!(obs, "se_improve", 0.0, "iter" => iter, "utility" => utility);
//! }
//! assert_eq!(buffer.lines().len(), 3);
//! ```
//!
//! Nor does a bare thread get one (`Rc<..>` cannot be sent between
//! threads safely):
//!
//! ```compile_fail
//! use mvcom_obs::{obs_event, Obs, ObsLevel};
//!
//! let (obs, buffer) = Obs::memory(ObsLevel::Events);
//! let handle = obs.clone();
//! let worker = std::thread::spawn(move || {
//!     obs_event!(handle, "se_improve", 0.0, "iter" => 0u64, "utility" => 1.0);
//! });
//! worker.join().expect("the worker does not panic");
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

/// Where a handle's events go: validated, sequenced and written as JSONL
/// lines.
struct Sink {
    seq: u64,
    dropped: u64,
    out: Box<dyn Write>,
    /// The first failed write or flush; see [`Obs::write_error`].
    error: Option<std::io::Error>,
}

impl Sink {
    fn keep_first_error(&mut self, result: std::io::Result<()>) {
        if let Err(e) = result {
            self.error.get_or_insert(e);
        }
    }
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sink")
            .field("seq", &self.seq)
            .field("dropped", &self.dropped)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

#[derive(Debug)]
struct ObsInner {
    level: ObsLevel,
    span_ids: Cell<u64>,
    sink: RefCell<Sink>,
    metrics: MetricsRegistry,
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
    pub fn writer(level: ObsLevel, out: Box<dyn Write>) -> Obs {
        if level == ObsLevel::Off {
            return Obs::off();
        }
        Obs {
            inner: Some(Rc::new(ObsInner {
                level,
                span_ids: Cell::new(1),
                sink: RefCell::new(Sink {
                    seq: 0,
                    dropped: 0,
                    out,
                    error: None,
                }),
                metrics: MetricsRegistry::new(),
            })),
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
        if schema::validate(&event).is_err() {
            sink.dropped += 1;
            return;
        }
        let line = event::encode_line(sink.seq, &event);
        sink.seq += 1;
        let written = sink
            .out
            .write_all(line.as_bytes())
            .and_then(|()| sink.out.write_all(b"\n"));
        sink.keep_first_error(written);
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
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.sink.borrow().dropped)
    }

    /// The first error writing or flushing the sink, if any. Emission
    /// never fails, so a caller that must know its lines landed checks
    /// this after its final [`Obs::flush`].
    pub fn write_error(&self) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let sink = inner.sink.borrow();
        sink.error.as_ref().map(ToString::to_string)
    }

    /// Flushes the sink's buffer to its destination; a failure is kept
    /// for [`Obs::write_error`].
    pub fn flush(&self) {
        let Some(inner) = &self.inner else { return };
        let mut sink = inner.sink.borrow_mut();
        let flushed = sink.out.flush();
        sink.keep_first_error(flushed);
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

    /// The handle's registry, when the handle is enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|i| &i.metrics)
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
    fn the_first_failed_write_or_flush_is_kept() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("no space left"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("flush failed"))
            }
        }
        let obs = Obs::writer(ObsLevel::Events, Box::new(Full));
        assert_eq!(obs.write_error(), None);
        obs.flush();
        obs_event!(obs, "epoch_start", 0.0, "epoch" => 0u64, "nodes" => 8u64);
        assert_eq!(obs.write_error().as_deref(), Some("flush failed"));
        assert_eq!(Obs::off().write_error(), None);
        let (obs, _buffer) = Obs::memory(ObsLevel::Events);
        obs_event!(obs, "epoch_start", 0.0, "epoch" => 0u64, "nodes" => 8u64);
        obs.flush();
        assert_eq!(obs.write_error(), None);
    }

    #[test]
    fn writer_at_off_collapses_to_disabled() {
        let buffer = SharedBuffer::new();
        let obs = Obs::writer(ObsLevel::Off, Box::new(buffer.clone()));
        obs_event!(obs, "epoch_start", 0.0, "epoch" => 0u64, "nodes" => 8u64);
        assert!(buffer.lines().is_empty());
    }
}
