//! A single-thread metrics registry: counters, gauges and fixed-bucket
//! histograms keyed by `&'static str` names.
//!
//! Naming convention (checked by a test here and documented in
//! OBSERVABILITY.md): `area.noun` or `area.noun_unit`, all lowercase,
//! e.g. `se.improvements`, `epoch.final_latency_s`, `chaos.dropped`.
//!
//! The registry lives behind the [`Obs`](crate::Obs) handle, on the one
//! thread that owns it; updates take one `RefCell` borrow and a `BTreeMap`
//! probe — cheap enough for per-event hot paths, and the `BTreeMap` keeps
//! snapshot and flush order deterministic (`clippy.toml` bans
//! iteration-order-unstable containers).

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::event::{Event, Value};

/// Default histogram buckets for second-valued latencies: powers of two
/// from 1/16 s up to 4096 s.
pub const SECONDS_BUCKETS: &[f64] = &[
    0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
    2048.0, 4096.0,
];

/// A fixed-bucket histogram: `counts[i]` counts observations `<= bounds[i]`
/// (non-cumulative per bucket; the final slot is the overflow bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The upper bound of the bucket containing the q-quantile (q in
    /// `[0, 1]`), or `None` when empty. The overflow bucket reports the
    /// largest finite bound.
    pub fn quantile_bound(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if idx < self.bounds.len() {
                    self.bounds[idx]
                } else {
                    self.bounds.last().copied().unwrap_or(f64::INFINITY)
                });
            }
        }
        self.bounds.last().copied()
    }

    /// `le<bound>:<cumulative count>` pairs, comma-separated — the wire
    /// encoding of the `buckets` field of a `metric_hist` event.
    pub fn encode_buckets(&self) -> String {
        let mut out = String::new();
        let mut cumulative = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if idx > 0 {
                out.push(',');
            }
            if idx < self.bounds.len() {
                out.push_str(&format!("le{}:{cumulative}", self.bounds[idx]));
            } else {
                out.push_str(&format!("leinf:{cumulative}"));
            }
        }
        out
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// The registry. See the [module docs](self) for the naming convention.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: RefCell<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to the counter `name` (registering it at 0 first).
    pub fn add(&self, name: &'static str, n: u64) {
        *self.inner.borrow_mut().counters.entry(name).or_insert(0) += n;
    }

    /// Increments the counter `name` by one.
    pub fn incr(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Reads a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the gauge `name`.
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        self.inner.borrow_mut().gauges.insert(name, value);
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.borrow().gauges.get(name).copied()
    }

    /// Registers the histogram `name` with explicit bucket bounds
    /// (idempotent; existing observations are kept).
    pub fn register_histogram(&self, name: &'static str, bounds: &[f64]) {
        self.inner
            .borrow_mut()
            .histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds));
    }

    /// Records an observation into the histogram `name`, registering it
    /// with [`SECONDS_BUCKETS`] on first use.
    pub fn observe(&self, name: &'static str, value: f64) {
        self.inner
            .borrow_mut()
            .histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(SECONDS_BUCKETS))
            .observe(value);
    }

    /// A copy of the histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.borrow().histograms.get(name).cloned()
    }

    /// Turns the registry into `metric` / `metric_hist` events timestamped
    /// `t`, in deterministic (sorted-name) order. Used by
    /// [`Obs::flush_metrics`](crate::Obs::flush_metrics).
    pub(crate) fn snapshot_events(&self, t: f64) -> Vec<Event> {
        let inner = self.inner.borrow();
        let mut events = Vec::new();
        for (name, value) in &inner.counters {
            events.push(Event::new(
                "metric",
                t,
                &[
                    ("name", Value::from(*name)),
                    ("metric", Value::from("counter")),
                    ("value", Value::F64(*value as f64)),
                ],
            ));
        }
        for (name, value) in &inner.gauges {
            events.push(Event::new(
                "metric",
                t,
                &[
                    ("name", Value::from(*name)),
                    ("metric", Value::from("gauge")),
                    ("value", Value::F64(*value)),
                ],
            ));
        }
        for (name, hist) in &inner.histograms {
            events.push(Event::new(
                "metric_hist",
                t,
                &[
                    ("name", Value::from(*name)),
                    ("count", Value::U64(hist.count)),
                    ("sum", Value::F64(hist.sum)),
                    ("buckets", Value::from(hist.encode_buckets())),
                ],
            ));
        }
        events
    }

    /// Renders the registry as one deterministic JSON object:
    /// `{"counters":{…},"gauges":{…},"histograms":{name:{"count":…,"sum":…,"buckets":"…"}}}`,
    /// names sorted within each section. This is the document the
    /// `mvcom-daemon` metrics endpoint serves.
    pub fn snapshot_json(&self) -> String {
        use crate::event::{write_f64, write_str};
        let inner = self.inner.borrow();
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (idx, (name, value)) in inner.counters.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push(':');
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{value}"));
        }
        out.push_str("},\"gauges\":{");
        for (idx, (name, value)) in inner.gauges.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push(':');
            write_f64(&mut out, *value);
        }
        out.push_str("},\"histograms\":{");
        for (idx, (name, hist)) in inner.histograms.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(":{{\"count\":{},\"sum\":", hist.count),
            );
            write_f64(&mut out, hist.sum);
            out.push_str(",\"buckets\":");
            write_str(&mut out, &hist.encode_buckets());
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Renders the registry as an aligned, human-readable table (sorted by
    /// name; histograms report count/mean/p50/p95 bucket bounds).
    pub fn render_table(&self) -> String {
        let inner = self.inner.borrow();
        let mut rows: Vec<(String, String)> = Vec::new();
        for (name, value) in &inner.counters {
            rows.push(((*name).to_string(), value.to_string()));
        }
        for (name, value) in &inner.gauges {
            rows.push(((*name).to_string(), format!("{value:.3}")));
        }
        for (name, hist) in &inner.histograms {
            let mean = if hist.count > 0 {
                hist.sum / hist.count as f64
            } else {
                0.0
            };
            rows.push((
                (*name).to_string(),
                format!(
                    "n={} mean={:.2} p50<={} p95<={}",
                    hist.count,
                    mean,
                    hist.quantile_bound(0.5).unwrap_or(0.0),
                    hist.quantile_bound(0.95).unwrap_or(0.0),
                ),
            ));
        }
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in rows {
            out.push_str(&format!("  {name:width$}  {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let m = MetricsRegistry::new();
        m.incr("se.improvements");
        m.add("se.improvements", 4);
        assert_eq!(m.counter("se.improvements"), 5);
        assert_eq!(m.counter("never.touched"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let m = MetricsRegistry::new();
        m.set_gauge("se.best_utility", -10.0);
        m.set_gauge("se.best_utility", -4.0);
        assert_eq!(m.gauge("se.best_utility"), Some(-4.0));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let m = MetricsRegistry::new();
        m.register_histogram("epoch.final_latency_s", &[1.0, 10.0, 100.0]);
        for v in [0.5, 0.7, 5.0, 50.0, 500.0] {
            m.observe("epoch.final_latency_s", v);
        }
        let h = m.histogram("epoch.final_latency_s").unwrap();
        assert_eq!(h.count(), 5);
        assert_eq!(h.encode_buckets(), "le1:2,le10:3,le100:4,leinf:5");
        assert_eq!(h.quantile_bound(0.5), Some(10.0));
        assert_eq!(h.quantile_bound(1.0), Some(100.0));
    }

    #[test]
    fn snapshot_events_validate_and_sort_deterministically() {
        let m = MetricsRegistry::new();
        m.incr("b.count");
        m.incr("a.count");
        m.set_gauge("c.level", 1.5);
        m.observe("d.latency_s", 3.0);
        let events = m.snapshot_events(9.0);
        let names: Vec<String> = events
            .iter()
            .map(|e| match &e.fields[0].1 {
                crate::event::Value::Str(s) => s.clone(),
                other => panic!("first field must be the name, got {other:?}"),
            })
            .collect();
        assert_eq!(names, ["a.count", "b.count", "c.level", "d.latency_s"]);
        for ev in &events {
            assert_eq!(crate::schema::validate(ev), Ok(()), "{:?}", ev.kind);
        }
    }

    #[test]
    fn table_renders_every_metric() {
        let m = MetricsRegistry::new();
        m.incr("a.count");
        m.observe("b.latency_s", 2.0);
        let table = m.render_table();
        assert!(table.contains("a.count"), "{table}");
        assert!(table.contains("n=1"), "{table}");
    }
}
