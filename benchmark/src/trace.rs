//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! One *operation* (a set-up, an epoch close, a solve, a resume, …) is one
//! root span; calls into layers made while it is open are its descendants.
//! Spans live in memory until the run ends. Because a pass repeats the
//! same operations in the same order, an operation keeps its id from pass
//! to pass; [`Passes`] holds every pass's view of it and reports one
//! statistic per operation, the median of all its observations, in
//! nominal time (see [`crate::calib`]) or as measured.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::calib::{probe_ns, to_nominal, PROBE_EVERY_NS};
use crate::stats::median;

/// What a root span measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Program set-up before the first useful operation.
    Setup,
    /// An operation run to warm the program up; not an end-to-end sample.
    Warmup,
    /// A measured operation.
    Op,
    /// A torn-tail resume of the history log.
    Resume,
    /// A reference solver run on an operation's instance.
    Baseline,
    /// Calls the real path does not make, timed for layer detail only.
    Probe,
}

impl Kind {
    /// The root span's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::Warmup => "warmup",
            Kind::Op => "op",
            Kind::Resume => "resume",
            Kind::Baseline => "baseline",
            Kind::Probe => "probe",
        }
    }
}

/// One timed interval; `parent` indexes into the same [`OpTrace`].
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span tree of one operation; `spans[0]` is the root.
#[derive(Clone, Debug, PartialEq)]
pub struct OpTrace {
    pub op: u32,
    pub kind: Kind,
    pub spans: Vec<Span>,
    /// The calibration kernel's time around the operation: the mean of the
    /// probes before and after it (set by [`Tracer::take`]).
    pub kernel_ns: f64,
}

/// Which times a report reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// As the clock measured them.
    Measured,
    /// Scaled to the nominal host by the kernel's time around each
    /// operation.
    Nominal,
}

impl Clock {
    /// What the spans of `trace` are multiplied by.
    pub fn factor(self, trace: &OpTrace) -> f64 {
        match self {
            Clock::Measured => 1.0,
            Clock::Nominal => to_nominal(trace.kernel_ns),
        }
    }
}

impl OpTrace {
    pub fn root_ns(&self) -> u64 {
        self.spans[0].duration_ns()
    }

    /// The first span called `name`, if the operation made that call.
    pub fn span_ns(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(Span::duration_ns)
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children of one span never overlap — the shadow pipelines
    /// are single-threaded and call layers one after another).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = parent as usize;
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }
}

/// Handle returned by [`Tracer::enter`]; `None` when detail is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Records spans for the operation currently open.
pub struct Tracer {
    epoch: Instant,
    /// Record spans below the root (the traced pass) or roots only.
    detail: bool,
    current: Option<OpTrace>,
    stack: Vec<u32>,
    done: Vec<OpTrace>,
    /// `(when, kernel time)` of every calibration probe since `take`.
    probes: Vec<(u64, u64)>,
    /// Kernel time of every probe of the run.
    kernel_times: Vec<u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            detail: false,
            current: None,
            stack: Vec::new(),
            done: Vec::new(),
            probes: Vec::new(),
            kernel_times: Vec::new(),
        }
    }

    /// Kernel time of every probe so far: the host's state over the run.
    pub fn kernel_times(&self) -> &[u64] {
        &self.kernel_times
    }

    /// Times the calibration kernel now (between operations only).
    fn probe(&mut self) {
        assert!(self.current.is_none(), "no probes inside an operation");
        let kernel_ns = probe_ns();
        self.probes.push((self.now_ns(), kernel_ns));
        self.kernel_times.push(kernel_ns);
    }

    pub fn set_detail(&mut self, detail: bool) {
        self.detail = detail;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of operation `op`.
    pub fn begin(&mut self, op: u32, kind: Kind) {
        assert!(self.current.is_none(), "operations do not nest");
        if self
            .probes
            .last()
            .is_none_or(|&(at, _)| self.now_ns() - at >= PROBE_EVERY_NS)
        {
            self.probe();
        }
        let mut spans = Vec::with_capacity(if self.detail { 32 } else { 1 });
        spans.push(Span {
            name: kind.name(),
            parent: None,
            start_ns: 0,
            end_ns: 0,
        });
        self.current = Some(OpTrace {
            op,
            kind,
            spans,
            kernel_ns: 0.0,
        });
        self.stack.clear();
        self.stack.push(0);
        // Read the clock last, so the bookkeeping above is outside the span.
        let now = self.now_ns();
        if let Some(cur) = &mut self.current {
            cur.spans[0].start_ns = now;
        }
    }

    /// Closes the root span.
    pub fn end(&mut self) {
        let now = self.now_ns();
        let mut cur = self.current.take().expect("end() without begin()");
        assert_eq!(self.stack.len(), 1, "a child span is still open");
        cur.spans[0].end_ns = now;
        self.done.push(cur);
    }

    /// Opens a child of the innermost open span (no-op without detail).
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.detail {
            return SpanId(None);
        }
        let parent = self.stack.last().copied();
        let cur = self.current.as_mut().expect("enter() outside an operation");
        let id = cur.spans.len() as u32;
        cur.spans.push(Span {
            name,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push(id);
        let now = self.now_ns();
        if let Some(cur) = &mut self.current {
            cur.spans[id as usize].start_ns = now;
        }
        SpanId(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        if let Some(cur) = &mut self.current {
            cur.spans[id as usize].end_ns = now;
        }
    }

    /// Probes once more, then hands over every operation finished since
    /// the last call, each stamped with the kernel's time around it.
    pub fn take(&mut self) -> Vec<OpTrace> {
        self.probe();
        let probes = std::mem::take(&mut self.probes);
        let mut done = std::mem::take(&mut self.done);
        for trace in &mut done {
            let (start, end) = (trace.spans[0].start_ns, trace.spans[0].end_ns);
            let before = probes.iter().rev().find(|&&(at, _)| at <= start);
            let after = probes.iter().find(|&&(at, _)| at >= end);
            // `begin` probes before the first operation and this call
            // after the last, so both exist.
            let (&(_, b), &(_, a)) = before.zip(after).expect("a probe on either side");
            trace.kernel_ns = (b + a) as f64 / 2.0;
        }
        // The closing probe also opens the next pass.
        self.probes.extend(probes.last().copied());
        done
    }
}

/// Times one call into a layer as a child span of the open operation.
#[macro_export]
macro_rules! span {
    ($tracer:expr, $name:expr, $call:expr) => {{
        let __span = $tracer.enter($name);
        let __out = $call;
        $tracer.exit(__span);
        __out
    }};
}

/// Every pass of one kind that a run made, in order.
#[derive(Default)]
pub struct Passes(Vec<Vec<OpTrace>>);

/// Per-pass means of one span name over a set of operations.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    pub total_ns: f64,
    pub self_ns: f64,
    pub count: f64,
}

impl Passes {
    pub fn push(&mut self, pass: Vec<OpTrace>) {
        self.0.push(pass);
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    pub fn last(&self) -> &[OpTrace] {
        self.0.last().map_or(&[], Vec::as_slice)
    }

    fn observations(&self) -> impl Iterator<Item = &OpTrace> {
        self.0.iter().flatten()
    }

    /// Root time of every observation of `kind`, in seconds.
    pub fn roots_s(&self, kind: Kind, clock: Clock) -> Vec<f64> {
        self.observations()
            .filter(|t| t.kind == kind)
            .map(|t| t.root_ns() as f64 * clock.factor(t) / 1e9)
            .collect()
    }

    /// Per distinct operation, the median root time of all its
    /// observations, in seconds (a probe root shares the id of the
    /// operation it follows; a repeated set-up is one operation). The
    /// median, because the first pass of a process runs on cold memory and
    /// a host stall lands on one observation: a mean carries both into
    /// the value in a share that changes with the number of passes.
    pub fn op_medians_s(&self, clock: Clock) -> BTreeMap<(u32, Kind), f64> {
        let mut seen: BTreeMap<(u32, Kind), Vec<f64>> = BTreeMap::new();
        for t in self.observations() {
            seen.entry((t.op, t.kind))
                .or_default()
                .push(t.root_ns() as f64 * clock.factor(t) / 1e9);
        }
        seen.into_iter()
            .map(|(key, times)| (key, median(&times)))
            .collect()
    }

    /// Mean time of the span `name` under operation `(op, kind)`, in
    /// nanoseconds; 0 when the operation never made that call.
    pub fn span_mean_ns(&self, op: u32, kind: Kind, name: &str, clock: Clock) -> f64 {
        let seen: Vec<f64> = self
            .observations()
            .filter(|t| t.op == op && t.kind == kind)
            .filter_map(|t| Some(t.span_ns(name)? as f64 * clock.factor(t)))
            .collect();
        seen.iter().sum::<f64>() / seen.len().max(1) as f64
    }

    /// Duration, self time and call count per span name over the
    /// operations of the given kinds: means per pass.
    pub fn layer_totals(&self, kinds: &[Kind], clock: Clock) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        let passes = self.count().max(1) as f64;
        for trace in self.observations().filter(|t| kinds.contains(&t.kind)) {
            let factor = clock.factor(trace) / passes;
            for (span, self_ns) in trace.spans.iter().zip(trace.self_times()) {
                let slot = out.entry(span.name).or_default();
                slot.total_ns += span.duration_ns() as f64 * factor;
                slot.self_ns += self_ns as f64 * factor;
                slot.count += 1.0 / passes;
            }
        }
        out
    }
}

/// Renders one pass as JSON lines, one span each, times as measured.
pub fn to_jsonl(workload: &str, pass: &[OpTrace]) -> String {
    let mut out = String::new();
    for trace in pass {
        let own = trace.self_times();
        for (idx, (span, self_ns)) in trace.spans.iter().zip(own).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"workload\":\"{workload}\",\"op\":{},\"kind\":\"{}\",\"span\":{idx},\
                 \"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{self_ns},\"kernel_ns\":{}}}\n",
                trace.op,
                trace.kind.name(),
                span.name,
                span.start_ns,
                span.end_ns,
                trace.kernel_ns,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::NOMINAL_KERNEL_NS;

    fn span(name: &'static str, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let trace = OpTrace {
            op: 0,
            kind: Kind::Op,
            spans: vec![
                span("op", None, 0, 100),
                span("a", Some(0), 10, 40),
                span("a.inner", Some(1), 15, 25),
                span("b", Some(0), 50, 90),
            ],
            kernel_ns: NOMINAL_KERNEL_NS,
        };
        // root: 100 − (30 + 40); a: 30 − 10; leaves keep their duration.
        assert_eq!(trace.self_times(), vec![30, 20, 10, 40]);
        assert_eq!(trace.span_ns("b"), Some(40));
        assert_eq!(trace.span_ns("c"), None);
        let mut passes = Passes::default();
        passes.push(vec![trace]);
        let totals = passes.layer_totals(&[Kind::Op], Clock::Measured);
        assert_eq!(
            totals["a"],
            LayerTotal {
                total_ns: 30.0,
                self_ns: 20.0,
                count: 1.0
            }
        );
        // Self times partition the root: nothing is counted twice.
        let sum: f64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100.0);
    }

    #[test]
    fn an_operation_reports_the_median_of_all_its_observations() {
        let obs = |op, kind, ns, kernel_ns| OpTrace {
            op,
            kind,
            spans: vec![
                span(Kind::name(kind), None, 0, ns),
                span("x", Some(0), 0, ns / 2),
            ],
            kernel_ns,
        };
        let fast = NOMINAL_KERNEL_NS;
        let mut passes = Passes::default();
        // The first pass ran cold and the third with the host a quarter
        // slower; a probe root shares its operation's id without
        // displacing it; a set-up is repeated within a pass.
        passes.push(vec![
            obs(9, Kind::Setup, 10, fast),
            obs(9, Kind::Setup, 14, fast),
            obs(0, Kind::Op, 120, fast),
            obs(0, Kind::Probe, 6, fast),
            obs(1, Kind::Op, 1_300, fast),
        ]);
        passes.push(vec![
            obs(9, Kind::Setup, 12, fast),
            obs(9, Kind::Setup, 12, fast),
            obs(0, Kind::Op, 80, fast),
            obs(0, Kind::Probe, 8, fast),
            obs(1, Kind::Op, 800, fast),
        ]);
        passes.push(vec![
            obs(9, Kind::Setup, 12, fast),
            obs(9, Kind::Setup, 13, fast),
            obs(0, Kind::Op, 100, fast * 1.25),
            obs(0, Kind::Probe, 10, fast * 1.25),
            obs(1, Kind::Op, 1_000, fast * 1.25),
        ]);
        assert_eq!(passes.count(), 3);
        let measured = passes.op_medians_s(Clock::Measured);
        assert_eq!(measured[&(0, Kind::Op)], 100e-9);
        assert_eq!(measured[&(1, Kind::Op)], 1_000e-9);
        assert_eq!(measured[&(0, Kind::Probe)], 8e-9);
        assert_eq!(measured[&(9, Kind::Setup)], 12e-9);
        // In nominal time the slow pass reads as the warm one does, and
        // the cold pass stays the outlier the median leaves out.
        let nominal = passes.op_medians_s(Clock::Nominal);
        assert!((nominal[&(0, Kind::Op)] - 80e-9).abs() < 1e-15);
        assert!((nominal[&(1, Kind::Op)] - 800e-9).abs() < 1e-15);
        assert_eq!(passes.roots_s(Kind::Setup, Clock::Nominal).len(), 6);
        assert_eq!(
            passes.roots_s(Kind::Op, Clock::Measured),
            vec![120e-9, 1_300e-9, 80e-9, 800e-9, 100e-9, 1_000e-9]
        );
        assert_eq!(
            passes.span_mean_ns(1, Kind::Op, "x", Clock::Measured),
            (650.0 + 400.0 + 500.0) / 3.0
        );
        assert!(
            (passes.span_mean_ns(1, Kind::Op, "x", Clock::Nominal) - (650.0 + 400.0 + 400.0) / 3.0)
                .abs()
                < 1e-9
        );
        assert_eq!(passes.span_mean_ns(1, Kind::Op, "y", Clock::Nominal), 0.0);
        // Layer totals are means per pass; calls are counted the same way.
        let x = passes.layer_totals(&[Kind::Op], Clock::Nominal)["x"];
        assert!((x.total_ns - (60.0 + 650.0 + 40.0 + 400.0 + 40.0 + 400.0) / 3.0).abs() < 1e-9);
        assert!((x.count - 2.0).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_spans_and_skips_detail_when_off() {
        let mut tracer = Tracer::new();
        tracer.set_detail(true);
        tracer.begin(3, Kind::Op);
        let outer = tracer.enter("outer");
        let inner = span!(tracer, "inner", 1 + 1);
        assert_eq!(inner, 2);
        tracer.exit(outer);
        tracer.end();
        tracer.set_detail(false);
        tracer.begin(4, Kind::Setup);
        span!(tracer, "ignored", ());
        tracer.end();
        let done = tracer.take();
        assert_eq!(done.len(), 2);
        let names: Vec<_> = done[0].spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("op", None), ("outer", Some(0)), ("inner", Some(1))]
        );
        assert!(done[0].spans[2].start_ns >= done[0].spans[1].start_ns);
        assert!(done[0].spans[2].end_ns <= done[0].spans[1].end_ns);
        assert_eq!(done[1].spans.len(), 1);
        // Both operations sit between a probe before and one after.
        let probes = tracer.kernel_times();
        assert_eq!(probes.len(), 2);
        let (lo, hi) = (probes[0].min(probes[1]), probes[0].max(probes[1]));
        assert!(done
            .iter()
            .all(|t| t.kernel_ns >= lo as f64 && t.kernel_ns <= hi as f64));
        assert!(tracer.take().is_empty());
        let line = to_jsonl("w", &done);
        assert_eq!(line.lines().count(), 4);
        assert!(line.starts_with(
            "{\"workload\":\"w\",\"op\":3,\"kind\":\"op\",\"span\":0,\"parent\":null"
        ));
    }
}
