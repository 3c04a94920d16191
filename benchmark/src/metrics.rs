//! The benchmark's metric and workload tables — the single place a name,
//! unit, direction or bound is written down. `BENCHMARK.json` is rendered
//! from these tables (`run.sh manifest`) and a unit test holds the
//! committed file to them.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count or deterministic value: must repeat exactly for one seed.
    pub exact: bool,
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "daemon-steady",
        why: "Operator path over SeededSource; SE steps are ~all of an epoch close, so SE-step changes show and ingest/history changes must not.",
    },
    WorkloadSpec {
        name: "daemon-firehose",
        why: "Same loop fed JSONL with 2 SE iterations and a big log; engine init, checkpoint, CRC, history write, parse and resume do the work, SE steps do not.",
    },
    WorkloadSpec {
        name: "solve-scale",
        why: "mvcom solve at 50000 committees with 4 huge chains per replica: memory-bound sampling, delta eval and O(|I|) cache init.",
    },
    WorkloadSpec {
        name: "solve-paper",
        why: "Fig. 11 shape, thousands of tiny cache-resident chains where per-chain overhead dominates; the only workload that runs mvcom-baselines.",
    },
    WorkloadSpec {
        name: "epoch-sim",
        why: "PoW, formation, PBFT and final consensus with the scheduler bypassed: pbft/simnet/elastico changes show, every SE/daemon change predicts none.",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these (the driver's contract), so
/// each is defined for any workload's *operation*: `Daemon::step_epoch`
/// on `daemon-*`, one instance solve on `solve-*`, `run_epoch` on
/// `epoch-sim`. README.md maps them onto the per-workload names.
///
/// Bounds. Five repeats of one seed (`baseline/spread-repeat.txt`) put a
/// quartile spread of 1.7–7.7 % on the timings, 0.1–1.6 % on memory and
/// exactly 0 on quality. But the driver holds each bound against the
/// spread over ten *different* seeds, in two sets it takes itself, which
/// adds what the inputs vary by and what the host does that hour
/// (`baseline/spread-{A,B}.txt`: up to 8.3 % on the sums and rates, 9.9 %
/// on the median, 10.2 % on p90, 9.9 % on memory, 0.9 % on quality). It
/// refused 15 % for the timings, the most the issue allows — on 15 s runs
/// `solve-paper`'s median spread 8.4 % in one of its sets and 17 % in the
/// other — so the bounds stand at least twice above the widest spread seen
/// in the host's worst hour: 20 % on the sums and rates, the contract's
/// 25 % on the percentiles, memory (`epoch-sim` peaks at 8.5 MB) and
/// `setup_s` (0.1 ms of system calls on four workloads); `quality_pct` at
/// 3 %, three times its spread across seeds, while `agree` requires it to
/// be equal run for run.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.2),
    e2e("committees_per_s", "1/s", Better::Higher, 0.2),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("op_p90_ms", "ms", Better::Lower, 0.25),
    e2e("sched_us_per_ktx", "us/ktx", Better::Lower, 0.2),
    e2e("quality_pct", "%", Better::Higher, 0.03),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

/// Times are means per operation over the traced (shadow) passes; counts
/// are totals over one pass and repeat exactly. A layer that does not run
/// on a workload reports 0.
pub const PER_LAYER: &[PerLayer] = &[
    time("ingest.next_batch_us", "us"),
    count("ingest.reports", "count"),
    count("ingest.rejected", "count"),
    time("adversary.act_us", "us"),
    time("defense.admissible_us", "us"),
    time("defense.end_epoch_us", "us"),
    time("defense.checkpoint_us", "us"),
    count("defense.quarantined", "count"),
    time("problem.build_us", "us"),
    time("se.new_us", "us"),
    count("se.chains", "count"),
    time("se.steps_us", "us"),
    count("se.iterations", "count"),
    time("se.step_us_per_iter", "us"),
    count("se.iters_to_best", "count"),
    count("se.improving_iters", "count"),
    count("se.fallbacks", "count"),
    time("se.checkpoint_us", "us"),
    time("se.finish_us", "us"),
    time("eval.cache_new_us", "us"),
    time("eval.sample_ns", "ns"),
    time("eval.swap_delta_ns", "ns"),
    time("eval.swap_commit_ns", "ns"),
    time("chain.propose_ns", "ns"),
    PerLayer {
        name: "chain.propose_hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        exact: true,
    },
    time("chain.race_ns", "ns"),
    time("chain.apply_ns", "ns"),
    time("se.step_overhead_pct", "%"),
    rate("se.fanout_speedup", "ratio"),
    count("host.cores", "count"),
    time("host.kernel_ns", "ns"),
    time("history.encode_us", "us"),
    time("history.crc_us", "us"),
    time("history.append_us", "us"),
    count("history.bytes_per_epoch", "bytes"),
    rate("history.read_mb_per_s", "MB/s"),
    time("daemon.resume_us", "us"),
    time("obs.snapshot_us", "us"),
    time("obs.summary_overhead_pct", "%"),
    count("obs.events_emitted", "count"),
    time("daemon.epoch_close_us", "us"),
    time("daemon.glue_us", "us"),
    time("dataset.trace_generate_us", "us"),
    rate("dataset.stream_shards_per_s", "1/s"),
    time("solve.solve_us", "us"),
    time("solve.glue_us", "us"),
    time("baselines.sa_us", "us"),
    time("baselines.woa_us", "us"),
    time("baselines.dp_us", "us"),
    time("baselines.sparse_dp_us", "us"),
    time("baselines.greedy_us", "us"),
    time("pow.lottery_us", "us"),
    time("formation.form_us", "us"),
    time("pbft.run_us_per_instance", "us"),
    count("pbft.messages_delivered", "count"),
    time("pbft.ns_per_message", "ns"),
    count("pbft.view_changes", "count"),
    count("pbft.uncommitted", "count"),
    time("simnet.queue_ns_per_event", "ns"),
    time("selector.select_us", "us"),
    time("elastico.run_epoch_us", "us"),
    time("elastico.glue_us", "us"),
    rate("trace.attributed_pct", "%"),
    time("trace_overhead_pct", "%"),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Renders `BENCHMARK.json` from the tables above.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_contract() {
        let mut names = BTreeSet::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "duplicate {}", w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            committed == manifest(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }
}
