//! One benchmark run: passes until the time is up, output checks, metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::calib::{probe_ns, to_nominal, NOMINAL_KERNEL_NS};
use crate::host::{free_disk_mb, peak_rss_mb, Host};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probe::se_probe;
use crate::stats::{median, nearest_rank, sorted, supported};
use crate::trace::{to_jsonl, Clock, Kind, LayerTotal, Passes, Tracer};
use crate::workloads::{self, Facts, Scale, Variant, Workload, SETUP_REPEATS};

/// `daemon-firehose` writes ~150 MB of history per run; refuse to start
/// it on a nearly full disk.
const FIREHOSE_MIN_FREE_MB: u64 = 1024;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// `benchmark/out`: results, traces and the scratch directory.
    pub out_dir: PathBuf,
}

/// One named value of a result.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Timings are in nominal time (see `calib`).
    pub value: f64,
    /// The same timing as the clock measured it.
    pub measured: Option<f64>,
    /// Samples behind the value (distinct operations, or passes).
    pub samples: u64,
    pub note: &'static str,
}

pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub passes: BTreeMap<&'static str, u32>,
    /// The calibration kernel's fastest, median and slowest time over the
    /// run, in nanoseconds: the host's state while it measured.
    pub host_kernel_ns: [u64; 3],
    pub input_render_s: f64,
    pub measured_s: f64,
    pub host: Host,
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    Real(Variant),
    Shadow,
}

impl Pass {
    fn label(self) -> &'static str {
        match self {
            Pass::Real(Variant::Plain) => "real",
            Pass::Real(Variant::ObsSummary) => "real_obs",
            Pass::Real(Variant::Threaded) => "real_threaded",
            Pass::Shadow => "shadow",
        }
    }
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    if args.workload == "daemon-firehose" && args.scale == Scale::Full {
        match free_disk_mb(&args.out_dir) {
            Some(free) if free < FIREHOSE_MIN_FREE_MB => {
                return Err(format!(
                    "daemon-firehose needs {FIREHOSE_MIN_FREE_MB} MB free under {}; found {free} MB",
                    args.out_dir.display()
                ));
            }
            Some(_) => {}
            None => eprintln!("warning: could not read free disk space; continuing"),
        }
    }
    let scratch = Scratch(args.out_dir.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("create scratch: {e}"))?;

    // `--seconds` covers the whole run: rendering the inputs, the passes
    // and, untraced, the shadow pass the output checks need.
    let run_start = Instant::now();
    let mut workload = workloads::build(&args.workload, args.seed, args.scale, &scratch.0)?;
    let input_render_s = run_start.elapsed().as_secs_f64();

    // One round is every kind of pass once, so that kinds set against
    // each other are observed equally often under the same host states.
    let extra = workload.extra_variant().filter(|_| args.trace);
    let mut round = vec![Pass::Real(Variant::Plain)];
    if args.trace {
        round.push(Pass::Shadow);
        round.extend(extra.map(Pass::Real));
    }
    let mut tracer = Tracer::new();
    let mut seen: BTreeMap<&'static str, Passes> = BTreeMap::new();
    let start = Instant::now();
    let mut rounds = 0u32;
    loop {
        for &pass in &round {
            drive(workload.as_mut(), &mut tracer, pass, args.trace)?;
            seen.entry(pass.label()).or_default().push(tracer.take());
        }
        rounds += 1;
        // A round starts only if at least half of one of average length
        // still fits in the time asked for, so a run takes that time give
        // or take half a round; one always runs. The checks' shadow pass
        // takes about as long as a round of an untraced run.
        let round = start.elapsed().as_secs_f64() / f64::from(rounds);
        let reserve = if args.trace { 0.0 } else { round };
        if run_start.elapsed().as_secs_f64() + reserve + round / 2.0 > args.seconds {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let passes = seen
        .iter()
        .map(|(label, passes)| (*label, passes.count() as u32))
        .collect();

    let mut probes = BTreeMap::new();
    if args.trace {
        // The replays run once, in whatever state the host is in: bracket
        // them with calibration probes, as the tracer does an operation.
        let before = probe_ns();
        if let Some(target) = workload.probe_target() {
            se_probe(target, &mut probes)?;
        }
        workload.probes(&mut probes)?;
        let factor = to_nominal((before + probe_ns()) as f64 / 2.0);
        for (name, value) in &mut probes {
            if !name.ends_with("_ratio") {
                *value *= factor;
            }
        }
        // Step time of the replayed operation that its chains' own race +
        // apply does not account for: the merge, best tracking and the
        // trajectory.
        if let Some(target) = workload.probe_target() {
            let steps_ns =
                seen["shadow"].span_mean_ns(target.op, Kind::Op, "se.steps", Clock::Nominal);
            if let (true, Some(race_ns), Some(apply_ns)) = (
                steps_ns > 0.0 && target.iterations > 0,
                probes.get("chain.race_ns"),
                probes.get("chain.apply_ns"),
            ) {
                let chains_ns = target.chains as f64 * (race_ns + apply_ns);
                let step_ns = steps_ns / target.iterations as f64;
                probes.insert("se.step_overhead_pct", 100.0 * (1.0 - chains_ns / step_ns));
            }
        }
    } else {
        // The checks need the shadow's view of every operation (its
        // instances and reference utilities); run it once, spans off.
        drive(workload.as_mut(), &mut tracer, Pass::Shadow, false)?;
        tracer.take();
    }
    let mut kernel = tracer.kernel_times().to_vec();
    kernel.sort_unstable();
    let host_kernel_ns = [
        kernel[0],
        kernel[kernel.len() / 2],
        kernel[kernel.len() - 1],
    ];
    let facts = workload.finish();

    let metrics = if args.trace {
        let shadow = &seen["shadow"];
        let trace_path = args
            .out_dir
            .join(format!("trace-{}.jsonl", workload.name()));
        std::fs::write(&trace_path, to_jsonl(workload.name(), shadow.last()))
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        let extra = extra.map(|variant| (variant, &seen[Pass::Real(variant).label()]));
        let mut values = per_layer(workload.as_ref(), &seen["real"], shadow, extra, &facts);
        values.insert("host.kernel_ns", host_kernel_ns[1] as f64);
        // Counts and probes are exact or measured directly: they win.
        for (name, value) in facts.counts.iter().chain(&probes) {
            if values.contains_key(name) {
                values.insert(name, *value);
            }
        }
        let samples = shadow.roots_s(Kind::Op, Clock::Measured).len() as u64;
        PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                unit: m.unit,
                value: values[m.name],
                measured: None,
                samples,
                note: "",
            })
            .collect()
    } else {
        end_to_end(&seen["real"], &facts, rss)
    };
    drop(scratch);
    Ok(RunResult {
        workload: workload.name(),
        seed: args.seed,
        trace: args.trace,
        correct: facts.failed == 0,
        attempted: facts.attempted,
        failed: facts.failed,
        failures: facts.failures,
        metrics,
        passes,
        host_kernel_ns,
        input_render_s,
        measured_s,
        host: Host::detect(),
    })
}

fn drive(
    workload: &mut dyn Workload,
    tracer: &mut Tracer,
    pass: Pass,
    detail: bool,
) -> Result<(), String> {
    match pass {
        Pass::Real(variant) => {
            tracer.set_detail(false);
            workload.real_pass(tracer, variant)
        }
        Pass::Shadow => {
            tracer.set_detail(detail);
            workload.shadow_pass(tracer)
        }
    }
}

/// The end-to-end timings on one clock, every one from the per-operation
/// median times of the plain real passes; also the operation count.
fn timings(real: &Passes, facts: &Facts, clock: Clock) -> (BTreeMap<&'static str, f64>, usize) {
    let medians = real.op_medians_s(clock);
    let ops: Vec<f64> = medians
        .iter()
        .filter(|((_, kind), _)| *kind == Kind::Op)
        .map(|(_, s)| *s)
        .collect();
    let ops = sorted(&ops);
    let ops_s: f64 = ops.iter().sum();
    let values = BTreeMap::from([
        ("setup_s", median(&real.roots_s(Kind::Setup, clock))),
        ("wall_s", medians.values().sum()),
        ("committees_per_s", facts.committees as f64 / ops_s),
        ("op_p50_ms", nearest_rank(&ops, 50.0) * 1e3),
        ("op_p90_ms", nearest_rank(&ops, 90.0) * 1e3),
        (
            "sched_us_per_ktx",
            ops_s * 1e6 / (facts.admitted_txs as f64 / 1e3),
        ),
    ]);
    (values, ops.len())
}

fn end_to_end(real: &Passes, facts: &Facts, rss_mb: f64) -> Vec<Metric> {
    let (nominal, n_ops) = timings(real, facts, Clock::Nominal);
    let (measured, _) = timings(real, facts, Clock::Measured);
    let n = n_ops as u64;
    let setups = real.roots_s(Kind::Setup, Clock::Measured).len() as u64;
    let p90_note = if supported(n_ops, 90.0) {
        ""
    } else {
        "fewer than ten samples beyond p90: read with the median"
    };
    END_TO_END
        .iter()
        .map(|m| {
            let (value, samples, note) = match m.name {
                "quality_pct" => (facts.quality_pct(), n, "deterministic for one seed"),
                "peak_rss_mb" => (rss_mb, 1, ""),
                "setup_s" => (nominal[m.name], setups, ""),
                "wall_s" => (
                    nominal[m.name],
                    real.count() as u64,
                    "samples = passes observed",
                ),
                "op_p90_ms" => (nominal[m.name], n, p90_note),
                timing => (nominal[timing], n, ""),
            };
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                measured: measured.get(m.name).copied(),
                samples,
                note,
            }
        })
        .collect()
}

/// The per-layer timings, in nominal time: means over the shadow passes,
/// per measured operation.
fn per_layer(
    workload: &dyn Workload,
    real: &Passes,
    shadow: &Passes,
    extra: Option<(Variant, &Passes)>,
    facts: &Facts,
) -> BTreeMap<&'static str, f64> {
    let clock = Clock::Nominal;
    let ops = shadow.layer_totals(&[Kind::Op, Kind::Probe], clock);
    let setups = shadow.layer_totals(&[Kind::Setup], clock);
    let others = shadow.layer_totals(&[Kind::Resume, Kind::Baseline], clock);
    let get = |map: &BTreeMap<&'static str, LayerTotal>, name: &str| {
        map.get(name).copied().unwrap_or_default()
    };
    let root = get(&ops, "op");
    let n_ops = root.count.max(1.0);
    let count = |name: &str| facts.counts.get(name).copied().unwrap_or(0.0);
    let per_call_us = |t: LayerTotal| {
        if t.count == 0.0 {
            0.0
        } else {
            t.total_ns / 1e3 / t.count
        }
    };

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    // A span named `x` under a measured operation fills metric `x_us`
    // with its mean time per operation.
    for m in PER_LAYER {
        let by_span = m
            .name
            .strip_suffix("_us")
            .and_then(|stem| ops.get(stem))
            .map_or(0.0, |t| t.total_ns / 1e3 / n_ops);
        values.insert(m.name, by_span);
    }
    let (root_metric, glue_metric) = workload.root_metrics();
    values.insert(root_metric, root.total_ns / 1e3 / n_ops);
    values.insert(glue_metric, root.self_ns / 1e3 / n_ops);
    values.insert(
        "trace.attributed_pct",
        100.0 * (1.0 - root.self_ns / root.total_ns.max(1.0)),
    );
    let ops_s = |passes: &Passes| -> f64 {
        passes
            .op_medians_s(clock)
            .iter()
            .filter(|((_, kind), _)| *kind == Kind::Op)
            .map(|(_, s)| *s)
            .sum()
    };
    let real_ops_s = ops_s(real);
    values.insert(
        "trace_overhead_pct",
        100.0 * (ops_s(shadow) / real_ops_s - 1.0),
    );
    if let Some((variant, passes)) = extra {
        let (name, value) = variant.metric(real_ops_s, ops_s(passes));
        values.insert(name, value);
    }
    let iterations = count("se.iterations");
    if iterations > 0.0 {
        values.insert(
            "se.step_us_per_iter",
            get(&ops, "se.steps").total_ns / 1e3 / iterations,
        );
    }
    let pbft = get(&ops, "pbft.run");
    values.insert("pbft.run_us_per_instance", per_call_us(pbft));
    let messages = count("pbft.messages_delivered");
    if messages > 0.0 {
        values.insert("pbft.ns_per_message", pbft.total_ns / messages);
    }
    values.insert(
        "dataset.trace_generate_us",
        per_call_us(get(&setups, "dataset.trace_generate")),
    );
    let stream = get(&setups, "dataset.stream");
    if stream.total_ns > 0.0 {
        // A pass streams each world's shards once per set-up repeat.
        values.insert(
            "dataset.stream_shards_per_s",
            count("dataset.shards") * SETUP_REPEATS as f64 / (stream.total_ns / 1e9),
        );
    }
    for m in PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("baselines."))
    {
        let stem = m.name.strip_suffix("_us").unwrap_or(m.name);
        values.insert(m.name, per_call_us(get(&others, stem)));
    }
    values.insert("daemon.resume_us", per_call_us(get(&others, "resume")));
    let read = get(&others, "history.read");
    if read.total_ns > 0.0 {
        let mb = count("history.read_bytes") / 1e6;
        values.insert("history.read_mb_per_s", mb / (read.total_ns / 1e9));
    }
    values.insert("host.cores", Host::detect().nproc as f64);
    values
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

impl RunResult {
    /// The one line the driver reads: `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// The full record written under `benchmark/out/`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let measured = m
                    .measured
                    .map_or_else(String::new, |x| format!(",\"measured\":{}", json_number(x)));
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}{measured}}}",
                    m.name,
                    json_number(m.value),
                    m.unit,
                    m.samples
                )
            })
            .collect();
        let passes: Vec<String> = self
            .passes
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| format!("{f:?}")).collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\
             \"failed\":{},\"failures\":[{}],\"passes\":{{{}}},\"host_kernel_ns\":{:?},\"input_render_s\":{},\
             \"measured_s\":{},\"host\":{},\"metrics\":{{{}}}}}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.correct,
            self.attempted,
            self.failed,
            failures.join(","),
            passes.join(","),
            self.host_kernel_ns,
            json_number(self.input_render_s),
            json_number(self.measured_s),
            self.host.to_json(),
            metrics.join(",")
        )
    }

    /// Every metric by name, with unit and sample count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} seed {} trace {} — {} passes in {:.1} s (inputs rendered in {:.3} s)\n",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.passes
                .iter()
                .map(|(k, v)| format!("{v} {k}"))
                .collect::<Vec<_>>()
                .join(" + "),
            self.measured_s,
            self.input_render_s,
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<28} {:>16.4} {:<7} n={}",
                m.name, m.value, m.unit, m.samples
            ));
            if let Some(measured) = m.measured {
                out.push_str(&format!("  as measured {measured:.4}"));
            }
            if !m.note.is_empty() {
                out.push_str(&format!("  ({})", m.note));
            }
            out.push('\n');
        }
        let [fastest, middle, slowest] = self.host_kernel_ns;
        out.push_str(&format!(
            "host: calibration kernel {fastest}..{slowest} ns, median {middle} (nominal {NOMINAL_KERNEL_NS})\n\
             checks: {} — {} operations attempted, {} failed\n",
            if self.correct { "passed" } else { "FAILED" },
            self.attempted,
            self.failed,
        ));
        for failure in &self.failures {
            out.push_str(&format!("  FAILED: {failure}\n"));
        }
        out
    }
}

/// Where a run's full record goes.
pub fn result_path(out_dir: &Path, workload: &str, trace: bool, seed: u64) -> PathBuf {
    out_dir.join(format!(
        "result-{workload}-trace{}-seed{seed}.json",
        u8::from(trace)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;
    use std::sync::atomic::{AtomicU32, Ordering};

    static NEXT: AtomicU32 = AtomicU32::new(0);

    /// One pass of each kind at the smoke size, in a directory of its own
    /// (tests run on parallel threads and must not share files).
    fn tiny(workload: &str, seed: u64, trace: bool) -> RunResult {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
        let result = run(&RunArgs {
            workload: workload.to_string(),
            seed,
            seconds: 0.0,
            trace,
            scale: Scale::Tiny,
            out_dir: out_dir.clone(),
        });
        let _ = std::fs::remove_dir_all(&out_dir);
        result.expect("the run completes")
    }

    fn values(result: &RunResult) -> BTreeMap<&'static str, f64> {
        result.metrics.iter().map(|m| (m.name, m.value)).collect()
    }

    #[test]
    fn every_workload_passes_every_output_check_at_smoke_size() {
        for w in WORKLOADS {
            let untraced = tiny(w.name, 5, false);
            assert!(untraced.correct, "{}: {:?}", w.name, untraced.failures);
            assert!(untraced.attempted > 0 && untraced.failed == 0);
            let names: Vec<_> = untraced.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            for m in &untraced.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{}: {} = {} (end-to-end metrics are never 0)",
                    w.name,
                    m.name,
                    m.value
                );
            }
            let traced = tiny(w.name, 5, true);
            assert!(traced.correct, "{}: {:?}", w.name, traced.failures);
            let names: Vec<_> = traced.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            let v = values(&traced);
            assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
            // The operation is all but entirely under named layer spans.
            assert!(v["trace.attributed_pct"] > 90.0, "{}: {v:?}", w.name);
            let (root, _) = workloads::build(w.name, 5, Scale::Tiny, Path::new("."))
                .expect("known workload")
                .root_metrics();
            assert!(v[root] > 0.0);
            if w.name == "solve-scale" {
                assert!(v["se.fanout_speedup"] > 0.0, "{v:?}");
            }
            // Layers a workload never enters stay at zero.
            if w.name == "epoch-sim" {
                assert_eq!(v["se.steps_us"] + v["se.new_us"] + v["se.iterations"], 0.0);
                assert!(v["pbft.messages_delivered"] > 0.0);
            } else {
                assert!(v["se.steps_us"] > 0.0 && v["se.iterations"] > 0.0);
                assert_eq!(v["pbft.run_us_per_instance"], 0.0);
            }
        }
    }

    #[test]
    fn exact_values_repeat_for_a_seed_and_change_with_it() {
        let exact: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| m.exact)
            .map(|m| m.name)
            .collect();
        for w in WORKLOADS {
            let (a, b, other) = (
                tiny(w.name, 9, true),
                tiny(w.name, 9, true),
                tiny(w.name, 10, true),
            );
            let (va, vb, vo) = (values(&a), values(&b), values(&other));
            for name in &exact {
                assert_eq!(va[name], vb[name], "{}: {name} did not repeat", w.name);
            }
            assert!(
                exact.iter().any(|name| va[name] != vo[name]),
                "{}: another seed gave the same counts",
                w.name
            );
            let quality = |r: &RunResult| values(r)["quality_pct"];
            assert_eq!(
                quality(&tiny(w.name, 9, false)),
                quality(&tiny(w.name, 9, false))
            );
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let result = tiny("epoch-sim", 2, false);
        let line = result.contract_line();
        let parsed = serde_json::from_str_value(&line).expect("valid JSON");
        let serde::Value::Object(fields) = parsed else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(!line.contains('\n'));
        crate::agree::parse_set(&format!("{{\"runs\":[{}]}}", result.to_json()))
            .expect("the full record parses as a result set");
    }
}
