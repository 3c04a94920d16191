//! The `mvcom` command-line tool.
//!
//! ```text
//! mvcom dataset generate [--blocks N] [--seed S] [--out FILE]
//! mvcom dataset stats <FILE>                      # JSON or CSV trace
//! mvcom solve    [--committees N] [--alpha A] [--capacity C]
//!                [--n-min K] [--solver se|sa|dp|woa|greedy|bnb]
//!                [--seed S] [--trace FILE] [--threads T]
//!                [--obs-out FILE] [--obs-level off|summary|events|trace]
//! mvcom simulate [--nodes N] [--epochs E] [--seed S] [--scheduler se|all]
//!                [--threads T]
//!                [--chaos-drop P] [--crash IDX@SECS[..SECS]] [--heartbeat SECS]
//!                [--adv-fraction P] [--adv-strategy misreport|freerider|starver]
//!                [--defense on|off]
//!                [--obs-out FILE] [--obs-level off|summary|events|trace]
//! ```
//!
//! `schedule` is accepted as an alias of `solve`.
//!
//! Any of `--chaos-drop`, `--crash`, `--heartbeat` switches `simulate` to
//! the fault-tolerant epoch runner: shards are submitted over a
//! chaos-wrapped network with retries, the final committee heartbeats the
//! member committees, and detected failures are trimmed out of the running
//! schedule. `--crash` may be repeated; `IDX` addresses the IDX-th
//! surviving shard's committee (see `submission_node`).
//!
//! `--adv-fraction` / `--adv-strategy` switch `simulate` to the
//! *strategic* fault model instead: the given fraction of committees lies
//! at formation time (see DESIGN.md §10). With `--defense on` (the
//! default) the SE scheduler runs behind the reputation layer —
//! median-of-window estimate correction, trust-weighted utility
//! discounting and quarantine-with-backoff; `--defense off` schedules on
//! the raw claims. Fractions (`--adv-fraction`, `--chaos-drop`) must lie
//! in `[0, 1]`. Adversarial and fault-tolerant modes are mutually
//! exclusive.
//!
//! `--obs-out FILE` streams the structured telemetry documented in
//! OBSERVABILITY.md as JSON Lines; `--obs-level` picks the verbosity
//! (default `events`). The event file is byte-identical across same-seed
//! runs and across `--threads` values.

#![forbid(unsafe_code)]
use std::process::ExitCode;

use mvcom::obs::Value;
use mvcom::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wants_help = args.iter().any(|a| a == "--help" || a == "-h");
    let result = match args.first().map(String::as_str) {
        Some("daemon") if wants_help => {
            print!("{}", daemon_usage());
            Ok(())
        }
        Some("dataset" | "solve" | "schedule" | "simulate") if wants_help => {
            print_usage();
            Ok(())
        }
        Some("dataset") => dataset(&args[1..]),
        Some("solve" | "schedule") => solve(&args[1..]),
        Some("simulate") => simulate(&args[1..]),
        Some("daemon") => daemon(&args[1..]),
        Some("--help" | "-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(Error::invalid_config(
            "subcommand",
            format!("unknown subcommand `{other}`"),
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage:\n  \
         mvcom dataset generate [--blocks N] [--seed S] [--out FILE]\n  \
         mvcom dataset stats <FILE>\n  \
         mvcom solve    [--committees N] [--alpha A] [--capacity C] [--n-min K]\n           \
         [--solver se|sa|dp|woa|greedy|bnb] [--seed S] [--trace FILE]\n           \
         [--threads T] [--obs-out FILE] [--obs-level off|summary|events|trace]\n  \
         mvcom simulate [--nodes N] [--epochs E] [--seed S] [--scheduler se|all]\n           \
         [--threads T]\n           \
         [--chaos-drop P] [--crash IDX@SECS[..SECS]] [--heartbeat SECS]\n           \
         [--adv-fraction P] [--adv-strategy misreport|freerider|starver]\n           \
         [--defense on|off]\n           \
         [--obs-out FILE] [--obs-level off|summary|events|trace]\n  \
         mvcom daemon   [--help for the full flag table]\n           \
         long-running scheduling service: streaming ingest, epoch history,\n           \
         crash recovery, metrics endpoint (see OPERATIONS.md)"
    );
}

/// Renders the daemon flag table from its single source of truth.
fn daemon_usage() -> String {
    let mut out = String::from(
        "usage: mvcom daemon [flags]\n\
         Long-running MVCom scheduling service (see OPERATIONS.md).\n\nflags:\n",
    );
    let width = mvcom::daemon::DAEMON_FLAGS
        .iter()
        .map(|f| f.flag.len() + 1 + f.value.len())
        .max()
        .unwrap_or(0);
    for spec in mvcom::daemon::DAEMON_FLAGS {
        let head = format!("{} {}", spec.flag, spec.value);
        let default = if spec.default.is_empty() {
            String::new()
        } else {
            format!(" [default: {}]", spec.default)
        };
        out.push_str(&format!("  {head:width$}  {}{default}\n", spec.help));
    }
    out
}

/// Builds the telemetry handle from `--obs-out` / `--obs-level` (`default`
/// when the level is not given) and emits the `run_info` header. Without
/// `--obs-out` the handle is disabled and every emission downstream is a
/// no-op.
fn obs_from_flags(flags: &Flags, tool: &str, seed: u64, default: ObsLevel) -> Result<Obs> {
    let level = match flags.get("obs-level") {
        None => default,
        Some(raw) => ObsLevel::parse(raw).ok_or_else(|| {
            Error::invalid_config(
                "obs-level",
                format!("unknown level `{raw}` (use off|summary|events|trace)"),
            )
        })?,
    };
    let obs = match flags.get("obs-out") {
        None => Obs::off(),
        Some(path) => Obs::to_file(level, std::path::Path::new(path))
            .map_err(|e| Error::invalid_config("obs-out", format!("opening {path}: {e}")))?,
    };
    obs.emit(
        "run_info",
        0.0,
        &[
            ("tool", Value::from(tool)),
            ("schema", Value::U64(u64::from(mvcom::obs::SCHEMA_VERSION))),
            ("seed", Value::U64(seed)),
            ("level", Value::from(level.as_str())),
        ],
    );
    Ok(obs)
}

/// Flags `mvcom dataset generate` declares (`dataset stats` declares none).
const DATASET_GENERATE_FLAGS: &[&str] = &["blocks", "seed", "out"];

/// Flags `mvcom solve` declares.
const SOLVE_FLAGS: &[&str] = &[
    "committees",
    "alpha",
    "capacity",
    "n-min",
    "solver",
    "seed",
    "trace",
    "threads",
    "obs-out",
    "obs-level",
];

/// Flags `mvcom simulate` declares.
const SIMULATE_FLAGS: &[&str] = &[
    "nodes",
    "epochs",
    "seed",
    "scheduler",
    "threads",
    "chaos-drop",
    "crash",
    "heartbeat",
    "adv-fraction",
    "adv-strategy",
    "defense",
    "obs-out",
    "obs-level",
];

/// Minimal flag parser: `--key value` pairs plus positional arguments.
struct Flags {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    /// Parses `args` for `subcommand`, rejecting any `--key` outside
    /// `declared` — a typo'd flag must fail, not fall back to a default.
    fn parse(subcommand: &str, declared: &[&str], args: &[String]) -> Result<Flags> {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if !declared.contains(&key) {
                    return Err(Error::invalid_config(
                        "flags",
                        format!("unknown flag `--{key}` for `mvcom {subcommand}`"),
                    ));
                }
                let value = iter.next().ok_or_else(|| {
                    Error::invalid_config("flags", format!("--{key} needs a value"))
                })?;
                pairs.push((key.to_string(), value.clone()));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Flags { pairs, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every occurrence of a repeatable flag, in order.
    fn all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.pairs
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                Error::invalid_config("flags", format!("--{key} got a non-numeric value `{raw}`"))
            }),
        }
    }

    /// `--threads`, the `ordered_map` worker count (default 1). Output is
    /// byte-identical to the serial run at any count, so 0 is a hard
    /// error, not "auto".
    fn threads(&self) -> Result<usize> {
        let threads: usize = self.num("threads", 1usize)?;
        if threads == 0 {
            return Err(Error::invalid_config(
                "threads",
                "--threads must be >= 1 (use 1 for a serial run), got `0`",
            ));
        }
        Ok(threads)
    }

    /// A probability/fraction-valued flag: parsed as `f64` and validated
    /// to lie in `[0, 1]`, so a typo'd `--chaos-drop 20` fails here with a
    /// clear message instead of producing nonsense downstream.
    fn fraction(&self, key: &'static str, default: f64) -> Result<f64> {
        let value: f64 = self.num(key, default)?;
        if !value.is_finite() || !(0.0..=1.0).contains(&value) {
            return Err(Error::invalid_config(
                key,
                format!("--{key} must be a fraction in [0, 1], got `{value}`"),
            ));
        }
        Ok(value)
    }
}

fn load_trace(flags: &Flags, default_seed: u64) -> Result<Trace> {
    match flags.get("trace") {
        None => Ok(Trace::generate(
            TraceConfig::jan_2016(),
            flags.num("seed", default_seed)?,
        )),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| Error::invalid_config("trace", format!("reading {path}: {e}")))?;
            if text.trim_start().starts_with('{') {
                Trace::from_json(&text)
            } else {
                Trace::from_csv(&text)
            }
        }
    }
}

fn dataset(args: &[String]) -> Result<()> {
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("generate") => {
            let flags = Flags::parse("dataset generate", DATASET_GENERATE_FLAGS, rest)?;
            let blocks: usize = flags.num("blocks", 1378usize)?;
            let seed: u64 = flags.num("seed", 2016u64)?;
            let trace = Trace::generate(TraceConfig::tiny(blocks), seed);
            let json = trace.to_json();
            match flags.get("out") {
                Some(path) => {
                    std::fs::write(path, &json).map_err(|e| {
                        Error::invalid_config("out", format!("writing {path}: {e}"))
                    })?;
                    println!(
                        "wrote {path}: {} blocks, {} TXs",
                        trace.blocks().len(),
                        trace.total_txs()
                    );
                }
                None => println!("{json}"),
            }
            Ok(())
        }
        Some("stats") => {
            let flags = Flags::parse("dataset stats", &[], rest)?;
            let path = flags.positional.first().ok_or_else(|| {
                Error::invalid_config("dataset stats", "needs a trace file argument")
            })?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| Error::invalid_config("trace", format!("reading {path}: {e}")))?;
            let trace = if text.trim_start().starts_with('{') {
                Trace::from_json(&text)?
            } else {
                Trace::from_csv(&text)?
            };
            let blocks = trace.blocks();
            println!("blocks:        {}", blocks.len());
            println!("transactions:  {}", trace.total_txs());
            println!("mean txs/blk:  {:.1}", trace.mean_txs());
            let (first_btime, last_btime) = match (blocks.first(), blocks.last()) {
                (Some(first), Some(last)) => (first.btime, last.btime),
                _ => (0, 0),
            };
            println!(
                "time span:     {}s ({} → {})",
                last_btime - first_btime,
                first_btime,
                last_btime,
            );
            Ok(())
        }
        _ => Err(Error::invalid_config(
            "dataset",
            "expected `generate` or `stats`",
        )),
    }
}

fn solve(args: &[String]) -> Result<()> {
    use mvcom::baselines::{dp::DpConfig, sa::SaConfig, solve_observed, woa::WoaConfig};
    let flags = Flags::parse("solve", SOLVE_FLAGS, args)?;
    let committees: usize = flags.num("committees", 50usize)?;
    let alpha: f64 = flags.num("alpha", 1.5f64)?;
    let seed: u64 = flags.num("seed", 0u64)?;
    let capacity: u64 = flags.num("capacity", 1_000 * committees as u64)?;
    let n_min: usize = flags.num("n-min", committees / 2)?;
    let solver = flags.get("solver").unwrap_or("se");
    // SE replica fan-out (DESIGN.md §14).
    let threads = flags.threads()?;

    let trace = load_trace(&flags, seed)?;
    let mut gen = EpochGenerator::new(&trace, LatencyConfig::paper(), seed);
    let shards = gen.next_epoch_with_replacement(committees, 1)?;
    let instance = InstanceBuilder::new()
        .alpha(alpha)
        .capacity(capacity)
        .n_min(n_min)
        .shards(shards)
        .build()?;

    let obs = obs_from_flags(&flags, "mvcom solve", seed, ObsLevel::Events)?;
    let span = obs.span("solve", 0.0, &[("solver", Value::from(solver))]);
    // The logical end of the run on the solver's iteration clock.
    let mut t_end = 0.0f64;
    let (name, solution): (String, Solution) = match solver {
        "se" => {
            let outcome = SeEngine::new(&instance, SeConfig::paper(seed))?
                .with_threads(threads)
                .with_obs(obs.clone())
                .run();
            t_end = outcome.iterations as f64;
            obs.emit(
                "solver_done",
                t_end,
                &[
                    ("solver", Value::from("se")),
                    ("iters", Value::U64(outcome.iterations)),
                    ("best", Value::F64(outcome.best_utility)),
                ],
            );
            ("SE".into(), outcome.best_solution)
        }
        "sa" => {
            let o = solve_observed(&SaSolver::new(SaConfig::paper(seed)), &instance, &obs)?;
            t_end = o.trajectory.last().map_or(0.0, |&(i, _)| i as f64);
            ("SA".into(), o.best_solution)
        }
        "dp" => {
            let o = solve_observed(&DpSolver::new(DpConfig::paper()), &instance, &obs)?;
            ("DP".into(), o.best_solution)
        }
        "woa" => {
            let o = solve_observed(&WoaSolver::new(WoaConfig::paper(seed)), &instance, &obs)?;
            t_end = o.trajectory.last().map_or(0.0, |&(i, _)| i as f64);
            ("WOA".into(), o.best_solution)
        }
        "greedy" => {
            let o = solve_observed(&GreedySolver::new(), &instance, &obs)?;
            ("greedy".into(), o.best_solution)
        }
        "bnb" => {
            let o = solve_observed(&BnbSolver::default(), &instance, &obs)?;
            ("branch-and-bound".into(), o.best_solution)
        }
        other => {
            return Err(Error::invalid_config(
                "solver",
                format!("unknown solver `{other}`"),
            ))
        }
    };
    let metrics = ScheduleMetrics::compute(&instance, &solution);
    println!(
        "{name} schedule over |I| = {} (α = {alpha}, Ĉ = {capacity}, N_min = {n_min}):",
        instance.len()
    );
    println!("  utility:          {:.1}", instance.utility(&solution));
    println!("  admitted:         {} committees", metrics.admitted);
    println!("  block txs:        {} / {capacity}", metrics.admitted_txs);
    println!("  deadline:         {:.1}s", metrics.ddl_secs);
    println!("  cumulative age:   {:.1}s", metrics.cumulative_age);
    println!("  mean tx age:      {:.1}s", metrics.mean_tx_age_secs);
    println!("  epoch throughput: {:.2} TX/s", metrics.tps);
    span.close(t_end);
    obs.flush_metrics(t_end);
    obs.flush();
    if let Some(table) = obs.metrics_table() {
        println!("metrics:\n{table}");
    }
    Ok(())
}

/// Parses a `--crash` operand: `IDX@SECS` (permanent) or
/// `IDX@SECS..SECS` (crash then restart).
fn parse_crash(raw: &str) -> Result<CrashEvent> {
    let bad = |why: &str| Error::invalid_config("crash", format!("`{raw}`: {why}"));
    let (idx, times) = raw
        .split_once('@')
        .ok_or_else(|| bad("expected IDX@SECS or IDX@SECS..SECS"))?;
    let idx: usize = idx.parse().map_err(|_| bad("IDX must be an integer"))?;
    let node = submission_node(idx);
    match times.split_once("..") {
        None => {
            let at: f64 = times.parse().map_err(|_| bad("SECS must be a number"))?;
            Ok(CrashEvent::permanent(node, SimTime::from_secs(at)))
        }
        Some((at, restart)) => {
            let at: f64 = at.parse().map_err(|_| bad("crash SECS must be a number"))?;
            let restart: f64 = restart
                .parse()
                .map_err(|_| bad("restart SECS must be a number"))?;
            Ok(CrashEvent::with_restart(
                node,
                SimTime::from_secs(at),
                SimTime::from_secs(restart),
            ))
        }
    }
}

fn simulate(args: &[String]) -> Result<()> {
    let flags = Flags::parse("simulate", SIMULATE_FLAGS, args)?;
    let nodes: u32 = flags.num("nodes", 240u32)?;
    let epochs: usize = flags.num("epochs", 3usize)?;
    let seed: u64 = flags.num("seed", 0u64)?;
    let scheduler = flags.get("scheduler").unwrap_or("all");
    let chaos_drop: f64 = flags.fraction("chaos-drop", 0.0)?;
    let crashes: Vec<CrashEvent> = flags.all("crash").map(parse_crash).collect::<Result<_>>()?;
    let fault_tolerant = flags.get("chaos-drop").is_some()
        || flags.get("heartbeat").is_some()
        || !crashes.is_empty();
    if !matches!(scheduler, "se" | "all") {
        return Err(Error::invalid_config(
            "scheduler",
            format!("unknown scheduler `{scheduler}` (use se|all)"),
        ));
    }
    let adv_fraction: f64 = flags.fraction("adv-fraction", 0.0)?;
    let adversarial = flags.get("adv-fraction").is_some() || flags.get("adv-strategy").is_some();
    let defense_on = match flags.get("defense") {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => {
            return Err(Error::invalid_config(
                "defense",
                format!("unknown defense mode `{other}` (use on|off)"),
            ))
        }
    };
    if adversarial && fault_tolerant {
        return Err(Error::invalid_config(
            "adv-fraction",
            "adversarial mode does not compose with --chaos-drop/--crash/--heartbeat; \
             run the two fault models separately",
        ));
    }

    // Committee-parallel stage 3 (DESIGN.md §11).
    let threads = flags.threads()?;
    let obs = obs_from_flags(&flags, "mvcom simulate", seed, ObsLevel::Events)?;
    let mut sim = ElasticoSim::new(ElasticoConfig::with_nodes(nodes, 12), seed)?
        .with_obs(obs.clone())
        .with_threads(threads);
    let mut se_selector = SeSelector::adaptive(seed, 0.6).with_obs(obs.clone());
    let recovery = {
        let mut chaos = ChaosConfig::lossy(chaos_drop);
        chaos.crashes = crashes;
        RecoveryConfig {
            chaos,
            heartbeat: HeartbeatConfig {
                interval: SimTime::from_secs(flags.num("heartbeat", 30.0f64)?),
                ..HeartbeatConfig::paper()
            },
            ..RecoveryConfig::paper()
        }
    };
    // Adversarial mode keeps one adversary and one reputation engine alive
    // across epochs — the defense's value is exactly its memory.
    let adversary = if adversarial {
        Some(build_adversary(
            flags.get("adv-strategy").unwrap_or("misreport"),
            AdversaryConfig::new(adv_fraction, seed)?,
        )?)
    } else {
        None
    };
    let mut defended = DefendedSeSelector::new(
        SeSelector::adaptive(seed, 0.6).with_obs(obs.clone()),
        DefenseEngine::new(DefenseConfig::paper())?.with_obs(obs.clone()),
    );
    let mut robustness_reports = Vec::new();
    for _ in 0..epochs {
        let mut adversary_reports = Vec::new();
        let report = match &adversary {
            Some(adversary) => {
                let (report, reports) = match (scheduler, defense_on) {
                    ("se", true) => defended.run_epoch(&mut sim, adversary.as_ref())?,
                    ("se", false) => {
                        sim.run_epoch_adversarial(&mut se_selector, adversary.as_ref())?
                    }
                    _ => sim.run_epoch_adversarial(&mut WaitForAll, adversary.as_ref())?,
                };
                adversary_reports = reports;
                report
            }
            None => match (scheduler, fault_tolerant) {
                ("se", false) => sim.run_epoch_with(&mut se_selector)?,
                ("all", false) => sim.run_epoch_with(&mut WaitForAll)?,
                ("se", true) => {
                    let mut selector =
                        SeRecoverySelector::adaptive(seed, 0.6).with_obs(obs.clone());
                    sim.run_epoch_recovering(&mut selector, &recovery)?
                }
                ("all", true) => {
                    sim.run_epoch_recovering(&mut SurvivorsOnly::default(), &recovery)?
                }
                _ => unreachable!("scheduler validated above"),
            },
        };
        let start = report
            .shards
            .iter()
            .filter(|s| report.final_block.included.contains(&s.committee()))
            .map(|s| s.two_phase_latency())
            .max()
            .unwrap_or(SimTime::ZERO);
        println!(
            "epoch {}: {} committees, {} shards, {} admitted, final consensus from {:.0}s, block {} TXs ({})",
            report.epoch.value(),
            report.formed.len(),
            report.shards.len(),
            report.final_block.included.len(),
            start.as_secs(),
            report.final_block.total_txs,
            if report.final_block.committed { "committed" } else { "FAILED" },
        );
        if let Some(adversary) = &adversary {
            let liars: Vec<_> = adversary_reports.iter().filter(|r| r.adversarial).collect();
            let admitted_liars = liars
                .iter()
                .filter(|r| report.final_block.included.contains(&r.committee()))
                .count();
            let quarantined = adversary_reports
                .iter()
                .filter(|r| {
                    defended
                        .defense
                        .is_quarantined(r.committee(), report.epoch.value())
                })
                .count();
            println!(
                "  adversary: {} × {} committee(s), {} admitted into the block, \
                 defense {} ({} quarantined)",
                liars.len(),
                adversary.name(),
                admitted_liars,
                if defense_on { "on" } else { "off" },
                quarantined,
            );
        }
        if obs.enabled(ObsLevel::Summary) {
            let mut table = mvcom::obs::Table::new(&[
                "committee",
                "members",
                "txs",
                "form s",
                "pbft s",
                "status",
                "admitted",
            ]);
            for (cid, res) in &report.consensus {
                let members = report
                    .formed
                    .iter()
                    .find(|c| c.id == *cid)
                    .map_or(0, |c| c.members.len());
                let formation = report
                    .formed
                    .iter()
                    .find(|c| c.id == *cid)
                    .map_or(0.0, |c| c.formation_latency.as_secs());
                let txs = report
                    .shards
                    .iter()
                    .find(|s| s.committee() == *cid)
                    .map_or(0, ShardInfo::tx_count);
                table.row(&[
                    cid.value().to_string(),
                    members.to_string(),
                    txs.to_string(),
                    format!("{formation:.0}"),
                    format!("{:.0}", res.latency.as_secs()),
                    if res.committed { "committed" } else { "failed" }.to_string(),
                    if report.final_block.included.contains(cid) {
                        "yes"
                    } else {
                        "no"
                    }
                    .to_string(),
                ]);
            }
            print!("{}", table.render());
        }
        if let Some(r) = report.robustness {
            println!(
                "  robustness: {} heartbeats ({} missed), {} failures detected, {} stragglers, \
                 {} submission retries, {} timed out, {} chaos drops{}",
                r.heartbeats_sent,
                r.heartbeats_missed,
                r.failures_detected.len(),
                r.stragglers.len(),
                r.submission_retries,
                r.submissions_timed_out.len(),
                r.chaos.dropped + r.chaos.crash_dropped,
                if r.degraded { " [degraded]" } else { "" },
            );
            for (committee, at) in &r.failures_detected {
                println!("    failure: {committee} detected at {:.0}s", at.as_secs());
            }
            robustness_reports.push(r);
        }
    }
    if robustness_reports.len() > 1 {
        let m = RobustnessMetrics::aggregate(&robustness_reports);
        println!(
            "total over {} epochs: {} heartbeats ({} missed), {} failures, {} retries, \
             {} chaos drops, {} degraded epochs",
            m.epochs,
            m.heartbeats_sent,
            m.heartbeats_missed,
            m.failures_detected,
            m.submission_retries,
            m.chaos_dropped,
            m.degraded_epochs,
        );
    }
    obs.flush_metrics(0.0);
    obs.flush();
    if let Some(table) = obs.metrics_table() {
        println!("metrics:\n{table}");
    }
    Ok(())
}

/// Maps a daemon-crate error into the CLI's error type.
fn daemon_err(e: mvcom::daemon::DaemonError) -> Error {
    Error::invalid_config("daemon", e.to_string())
}

/// The `mvcom daemon` subcommand: the long-running scheduling service.
/// Flags are defined by [`mvcom::daemon::DAEMON_FLAGS`]; semantics are
/// documented in OPERATIONS.md.
fn daemon(args: &[String]) -> Result<()> {
    use mvcom::daemon::{
        AlertConfig, AlertEngine, Daemon, DaemonConfig, IngestSource, JsonlSource, MetricsServer,
        SeededSource, Startup,
    };

    let declared: Vec<&str> = mvcom::daemon::DAEMON_FLAGS
        .iter()
        .map(|spec| spec.flag.trim_start_matches("--"))
        .collect();
    let flags = Flags::parse("daemon", &declared, args)?;
    let config = DaemonConfig {
        seed: flags.num("seed", 7)?,
        population: flags.num("committees", 96)?,
        batch_size: flags.num("batch-size", 8)?,
        reports_per_epoch: flags.num("epoch-reports", 48)?,
        batch_interval_s: flags.num("batch-interval", 0.5)?,
        alpha: flags.num("alpha", 1.5)?,
        capacity_per_committee: flags.num("capacity", 1000)?,
        n_min_fraction: flags.fraction("n-min-frac", 0.5)?,
        defense: match flags.get("defense") {
            None | Some("off") => false,
            Some("on") => true,
            Some(other) => {
                return Err(Error::invalid_config(
                    "defense",
                    format!("--defense takes on|off, got `{other}`"),
                ))
            }
        },
        adv_fraction: flags.fraction("adv-fraction", 0.0)?,
        adv_strategy: flags.get("adv-strategy").unwrap_or("").to_string(),
        se_iterations: flags.num("se-iters", 0)?,
        max_epochs: flags.num("epochs", 0)?,
        throttle_ms: flags.num("throttle-ms", 0)?,
    };
    let source: Box<dyn IngestSource> = match flags.get("source") {
        None | Some("seeded") => {
            if u64::from(config.reports_per_epoch) > u64::from(config.population) {
                return Err(Error::invalid_config(
                    "epoch-reports",
                    format!(
                        "--epoch-reports ({}) must not exceed --committees ({}) for a \
                         seeded stream: an epoch would contain duplicate committees",
                        config.reports_per_epoch, config.population
                    ),
                ));
            }
            Box::new(SeededSource::new(config.seed, config.population).map_err(daemon_err)?)
        }
        Some("stdin") => Box::new(JsonlSource::new(std::io::stdin().lock())),
        Some(other) => {
            return Err(Error::invalid_config(
                "source",
                format!("--source takes seeded|stdin, got `{other}`"),
            ))
        }
    };
    let alert_threshold = |key: &'static str| -> Result<Option<f64>> {
        match flags.get(key) {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| {
                Error::invalid_config("flags", format!("--{key} got a non-numeric value `{raw}`"))
            }),
        }
    };
    let mut alerts = AlertEngine::new(AlertConfig {
        min_utility: alert_threshold("alert-min-utility")?,
        min_admitted: alert_threshold("alert-min-admitted")?.map(|v: f64| v as u64),
        max_quarantined: alert_threshold("alert-max-quarantined")?.map(|v: f64| v as u64),
    });
    alerts.on_alert(|a| {
        eprintln!(
            "ALERT epoch={} kind={} threshold={} observed={}",
            a.epoch,
            a.kind.name(),
            a.threshold,
            a.observed,
        );
    });
    let obs = obs_from_flags(&flags, "daemon", config.seed, ObsLevel::Summary)?;
    let history_path = flags
        .get("history")
        .unwrap_or("mvcom-history.log")
        .to_string();
    let resume = match flags.get("resume") {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => {
            return Err(Error::invalid_config(
                "resume",
                format!("--resume takes on|off, got `{other}`"),
            ))
        }
    };
    let mut daemon = Daemon::open(
        config,
        source,
        std::path::Path::new(&history_path),
        resume,
        obs,
        alerts,
    )
    .map_err(daemon_err)?;
    if let Startup::Resumed {
        epochs,
        cursor,
        dropped_bytes,
    } = daemon.startup()
    {
        eprintln!(
            "resumed from {history_path}: {epochs} epoch(s) replayed, ingest cursor {cursor}, \
             {dropped_bytes} torn byte(s) truncated"
        );
    }
    let _server = match flags.get("http") {
        None | Some("") => None,
        Some(addr) => {
            let server = MetricsServer::start(addr, daemon.snapshot_cell())
                .map_err(|e| Error::invalid_config("http", format!("binding {addr}: {e}")))?;
            eprintln!(
                "metrics endpoint listening on http://{}/metrics",
                server.addr()
            );
            Some(server)
        }
    };
    let closed = daemon
        .run(|s| {
            println!(
                "epoch {}: {} reports ({} adversarial, {} quarantined), \
                 {} admitted / {} offered txs, utility {:.2}",
                s.epoch,
                s.reports,
                s.adversarial,
                s.quarantined,
                s.admitted_txs,
                s.offered_txs,
                s.utility,
            );
        })
        .map_err(daemon_err)?;
    println!(
        "daemon: {closed} epoch(s) closed this run, history {} bytes at {history_path}",
        daemon.history_bytes(),
    );
    Ok(())
}
