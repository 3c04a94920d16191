//! The `mvcom` command-line tool: `dataset`, `solve` (alias `schedule`),
//! `simulate` and `daemon`. Every subcommand's flags, value placeholders
//! and defaults live in one [`FlagSpec`] table each; `mvcom --help` and
//! `mvcom <subcommand> --help` render them.
//!
//! Any of `--chaos-drop`, `--crash`, `--heartbeat` switches `simulate` to
//! fault-tolerant delivery: shards are submitted over a chaos-wrapped
//! network with retries, the final committee heartbeats the member
//! committees, and detected failures are trimmed out of the running
//! schedule. `--crash` may be repeated; `IDX` addresses the IDX-th
//! surviving shard's committee (see `submission_node`).
//!
//! `--adv-fraction` / `--adv-strategy` add the *strategic* fault model: the
//! given fraction of committees lies at formation time (see DESIGN.md
//! §10). With `--scheduler se` and `--defense on` (the default) the SE
//! scheduler runs behind the reputation layer — median-of-window estimate
//! correction, trust-weighted utility discounting and
//! quarantine-with-backoff; `--defense off`, or wait-for-all, schedules on
//! the raw claims. Fractions (`--adv-fraction`, `--chaos-drop`) must lie
//! in `[0, 1]`. The two fault models compose: every epoch runs through one
//! `ElasticoSim::run_epoch_in` call.
//!
//! `--obs-out FILE` streams the structured telemetry documented in
//! OBSERVABILITY.md as JSON Lines; `--obs-level` picks the verbosity. The
//! event file is byte-identical across same-seed runs. A line that cannot
//! be written fails the run.
//!
//! A reader that hangs up (`mvcom simulate | head -1`) ends `dataset`,
//! `solve` and `simulate` quietly with exit 1: no panic, no stderr line.

use std::io::{self, Write};
use std::process::ExitCode;

use mvcom::baselines::{dp::DpConfig, sa::SaConfig, solve_observed, woa::WoaConfig};
use mvcom::daemon::{FlagSpec, DAEMON_FLAGS};
use mvcom::obs::Value;
use mvcom::prelude::*;

/// Why a subcommand stopped.
enum Failure {
    /// The run itself failed; reported with the usage on stderr.
    Run(Error),
    /// The daemon failed past its flags (ingest, history, I/O, a
    /// scheduling error); reported without the usage.
    Daemon(mvcom::daemon::DaemonError),
    /// Stdout could not be written.
    Stdout(io::Error),
}

impl From<Error> for Failure {
    fn from(e: Error) -> Failure {
        Failure::Run(e)
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::Stdout(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wants_help = args.iter().any(|a| a == "--help" || a == "-h");
    // One locked handle for the whole run. `daemon` still prints its
    // epoch lines from `Daemon::run`'s callback, which re-enters this lock.
    let mut out = io::stdout().lock();
    let result = match args.first().map(String::as_str) {
        Some(sub @ ("dataset" | "solve" | "schedule" | "simulate" | "daemon")) if wants_help => {
            write!(out, "{}", subcommand_help(sub)).map_err(Failure::from)
        }
        Some("dataset") => dataset(&args[1..], &mut out),
        Some("solve" | "schedule") => solve(&args[1..], &mut out),
        Some("simulate") => simulate(&args[1..], &mut out),
        Some("daemon") => daemon(&args[1..]),
        Some("--help" | "-h") | None => write!(out, "{}", usage()).map_err(Failure::from),
        Some(other) => Err(Failure::Run(Error::invalid_config(
            "subcommand",
            format!("unknown subcommand `{other}`"),
        ))),
    };
    match result.and_then(|()| out.flush().map_err(Failure::from)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::FAILURE,
        Err(Failure::Stdout(e)) => {
            eprintln!("error writing to stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            eprint!("{}", usage());
            ExitCode::FAILURE
        }
        Err(Failure::Daemon(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

// Rows two tables share.
#[rustfmt::skip]
const OBS_OUT: FlagSpec = FlagSpec::new("--obs-out", "FILE", "", "write telemetry events as JSONL to FILE");
#[rustfmt::skip]
const OBS_LEVEL: FlagSpec = FlagSpec::new("--obs-level", "off|summary|events|trace", "events", "telemetry verbosity");

/// Flags `mvcom dataset generate` declares (`dataset stats` declares none).
#[rustfmt::skip]
const DATASET_GENERATE_FLAGS: &[FlagSpec] = &[
    FlagSpec::new("--blocks", "N", "1378", "blocks in the synthetic trace"),
    FlagSpec::new("--seed", "S", "2016", "trace seed"),
    FlagSpec::new("--out", "FILE", "", "write the JSON trace to FILE instead of stdout"),
];

/// Flags `mvcom solve` declares.
#[rustfmt::skip]
const SOLVE_FLAGS: &[FlagSpec] = &[
    FlagSpec::new("--committees", "N", "50", "shards in the epoch"),
    FlagSpec::new("--alpha", "A", "1.5", "throughput weight of the objective"),
    FlagSpec::new("--capacity", "C", "", "final-block capacity in TXs (default: 1000 per committee)"),
    FlagSpec::new("--n-min", "K", "", "minimum admitted committees (default: half of them)"),
    FlagSpec::new("--solver", "se|sa|dp|woa|greedy", "se", "scheduling algorithm"),
    FlagSpec::new("--seed", "S", "0", "trace, epoch and solver seed"),
    FlagSpec::new("--trace", "FILE", "", "JSON or CSV trace to sample the epoch from (default: generated)"),
    OBS_OUT, OBS_LEVEL,
];

/// Builds a baseline solver for a seed.
type MakeSolver = fn(u64) -> Box<dyn Solver>;

/// The baselines `mvcom solve` runs besides SE: the `--solver` value, the
/// name the report prints, and the solver at a seed.
#[rustfmt::skip]
const BASELINES: &[(&str, &str, MakeSolver)] = &[
    ("sa", "SA", |seed| Box::new(SaSolver::new(SaConfig::paper(seed)))),
    ("dp", "DP", |_| Box::new(DpSolver::new(DpConfig::paper()))),
    ("woa", "WOA", |seed| Box::new(WoaSolver::new(WoaConfig::paper(seed)))),
    ("greedy", "greedy", |_| Box::new(GreedySolver::new())),
];

/// Flags `mvcom simulate` declares.
#[rustfmt::skip]
const SIMULATE_FLAGS: &[FlagSpec] = &[
    FlagSpec::new("--nodes", "N", "240", "network size (12 nodes per committee)"),
    FlagSpec::new("--epochs", "E", "3", "epochs to run"),
    FlagSpec::new("--seed", "S", "0", "simulation seed"),
    FlagSpec::new("--scheduler", "se|all", "all", "final-committee admission: MVCom SE, or wait for all"),
    FlagSpec::new("--chaos-drop", "P", "0", "submission-link loss probability (fault-tolerant delivery)"),
    FlagSpec::new("--crash", "IDX@SECS[..SECS]", "", "crash (and restart) a submission node; repeatable"),
    FlagSpec::new("--heartbeat", "SECS", "30", "heartbeat interval of the failure detector"),
    FlagSpec::new("--adv-fraction", "P", "0", "fraction of committees that lie at formation"),
    FlagSpec::new("--adv-strategy", "misreport|freerider|starver", "misreport", "what the liars do"),
    FlagSpec::new("--defense", "on|off", "on", "schedule behind the reputation layer"),
    OBS_OUT, OBS_LEVEL,
];

/// Every subcommand: how it is invoked, what it is for, its flag table.
#[rustfmt::skip]
const SUBCOMMANDS: &[(&str, &str, &[FlagSpec])] = &[
    ("dataset generate", "Generate a synthetic Bitcoin-like transaction trace.", DATASET_GENERATE_FLAGS),
    ("dataset stats <FILE>", "Summarize a JSON or CSV trace.", &[]),
    ("solve", "Schedule one epoch sampled from a trace (alias: schedule).", SOLVE_FLAGS),
    ("simulate", "Run Elastico epochs: PoW, formation, PBFT, final consensus.", SIMULATE_FLAGS),
    ("daemon", "Long-running MVCom scheduling service (see OPERATIONS.md).", DAEMON_FLAGS),
];

/// The whole surface: one synopsis per subcommand, wrapped at 79 columns.
fn usage() -> String {
    let mut out = String::from("usage:\n");
    for (command, _, specs) in SUBCOMMANDS {
        let mut line = format!("  mvcom {command}");
        for spec in *specs {
            let item = format!(" [{} {}]", spec.flag, spec.value);
            if line.len() + item.len() > 79 {
                out.push_str(&line);
                line = String::from("\n     ");
            }
            line.push_str(&item);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out + "`schedule` is an alias of `solve`; `mvcom <subcommand> --help` explains every flag.\n"
}

/// The flag table(s) of one subcommand: flag, placeholder, help, default.
fn subcommand_help(subcommand: &str) -> String {
    let subcommand = subcommand.replace("schedule", "solve");
    let mut out = String::new();
    for (command, about, specs) in SUBCOMMANDS
        .iter()
        .filter(|row| row.0.starts_with(&subcommand))
    {
        let (flags, heading) = if specs.is_empty() {
            ("", "")
        } else {
            (" [flags]", "\nflags:\n")
        };
        let gap = if out.is_empty() { "" } else { "\n" };
        out.push_str(&format!(
            "{gap}usage: mvcom {command}{flags}\n{about}\n{heading}"
        ));
        let width = specs.iter().map(|f| f.flag.len() + 1 + f.value.len()).max();
        for spec in *specs {
            let head = format!("{} {}", spec.flag, spec.value);
            let default = match spec.default {
                "" => String::new(),
                default => format!(" [default: {default}]"),
            };
            let width = width.unwrap_or(0);
            out.push_str(&format!("  {head:width$}  {}{default}\n", spec.help));
        }
    }
    out
}

/// Builds the telemetry handle from `--obs-out` / `--obs-level` and emits
/// the `run_info` header. Without `--obs-out` the handle is disabled and
/// every emission downstream is a no-op.
fn obs_from_flags(flags: &Flags, tool: &str, seed: u64) -> Result<Obs> {
    let raw = flags.value("obs-level");
    let level = ObsLevel::parse(raw).ok_or_else(|| {
        Error::invalid_config(
            "obs-level",
            format!("unknown level `{raw}` (use off|summary|events|trace)"),
        )
    })?;
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

/// Flushes the telemetry sink and fails the run when any line of
/// `--obs-out` could not be written (a full disk, `/dev/full`).
fn flush_obs(flags: &Flags, obs: &Obs) -> Result<()> {
    obs.flush();
    match obs.write_error() {
        None => Ok(()),
        Some(e) => Err(Error::invalid_config(
            "obs-out",
            format!("--obs-out {}: {e}", flags.value("obs-out")),
        )),
    }
}

/// Minimal flag parser over one subcommand's [`FlagSpec`] table: `--key
/// value` pairs plus the positional arguments the subcommand declares.
struct Flags {
    declared: &'static [FlagSpec],
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    /// Parses `args` for `subcommand`. A typo must fail, not fall back to
    /// a default: any `--key` outside `declared`, any value that is itself
    /// a flag (`--obs-out --seed 3`) and any argument beyond the
    /// `positionals` the subcommand takes is an error.
    fn parse(
        subcommand: &str,
        declared: &'static [FlagSpec],
        positionals: usize,
        args: &[String],
    ) -> Result<Flags> {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if !declared.iter().any(|spec| spec.flag == arg) {
                    return Err(Error::invalid_config(
                        "flags",
                        format!("unknown flag `--{key}` for `mvcom {subcommand}`"),
                    ));
                }
                let value = iter
                    .next()
                    .filter(|value| !value.starts_with("--"))
                    .ok_or_else(|| {
                        Error::invalid_config("flags", format!("--{key} needs a value"))
                    })?;
                pairs.push((key.to_string(), value.clone()));
            } else if positional.len() < positionals {
                positional.push(arg.clone());
            } else {
                return Err(Error::invalid_config(
                    "flags",
                    format!("unexpected argument `{arg}` for `mvcom {subcommand}`"),
                ));
            }
        }
        Ok(Flags {
            declared,
            pairs,
            positional,
        })
    }

    /// The value given on the command line, if any (last one wins).
    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value given on the command line, else the table's default.
    fn value(&self, key: &str) -> &str {
        self.get(key).unwrap_or_else(|| {
            let spec = self
                .declared
                .iter()
                .find(|spec| spec.flag.strip_prefix("--") == Some(key));
            spec.map_or("", |spec| spec.default)
        })
    }

    /// Every occurrence of a repeatable flag, in order.
    fn all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.pairs
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A flag without a static default: `None` unless given.
    fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>> {
        self.get(key).map(|raw| parse_as(key, raw)).transpose()
    }

    /// A numeric flag; the default is the table's.
    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T> {
        parse_as(key, self.value(key))
    }

    /// A probability/fraction-valued flag: parsed as `f64` and validated
    /// to lie in `[0, 1]`, so a typo'd `--chaos-drop 20` fails here with a
    /// clear message instead of producing nonsense downstream.
    fn fraction(&self, key: &'static str) -> Result<f64> {
        let value: f64 = self.num(key)?;
        if !value.is_finite() || !(0.0..=1.0).contains(&value) {
            return Err(Error::invalid_config(
                key,
                format!("--{key} must be a fraction in [0, 1], got `{value}`"),
            ));
        }
        Ok(value)
    }

    /// An `on|off` switch; the default is the table's.
    fn on_off(&self, key: &'static str) -> Result<bool> {
        match self.value(key) {
            "on" => Ok(true),
            "off" => Ok(false),
            other => Err(Error::invalid_config(
                key,
                format!("--{key} takes on|off, got `{other}`"),
            )),
        }
    }
}

fn parse_as<T: std::str::FromStr>(key: &str, raw: &str) -> Result<T> {
    raw.parse().map_err(|_| {
        let ty = std::any::type_name::<T>();
        Error::invalid_config("flags", format!("--{key} got `{raw}`, not a valid {ty}"))
    })
}

/// A seconds-valued operand of `--key`: finite and >= 0, which is all
/// `SimTime::from_secs` accepts without panicking.
fn seconds(key: &'static str, raw: &str) -> Result<SimTime> {
    match raw.parse::<f64>() {
        Ok(secs) if secs.is_finite() && secs >= 0.0 => Ok(SimTime::from_secs(secs)),
        _ => Err(Error::invalid_config(
            key,
            format!("--{key} takes seconds >= 0, got `{raw}`"),
        )),
    }
}

/// Reads a trace file, JSON or CSV by its first character.
fn read_trace(path: &str) -> Result<Trace> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::invalid_config("trace", format!("reading {path}: {e}")))?;
    if text.trim_start().starts_with('{') {
        Trace::from_json(&text)
    } else {
        Trace::from_csv(&text)
    }
}

fn dataset(args: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("generate") => {
            let flags = Flags::parse("dataset generate", DATASET_GENERATE_FLAGS, 0, rest)?;
            let config = TraceConfig::tiny(flags.num("blocks")?);
            config.validate().map_err(|e| {
                Error::invalid_config("blocks", format!("--blocks {}: {e}", config.n_blocks))
            })?;
            let trace = Trace::generate(config, flags.num("seed")?);
            let json = trace.to_json();
            match flags.get("out") {
                Some(path) => {
                    std::fs::write(path, &json).map_err(|e| {
                        Error::invalid_config("out", format!("writing {path}: {e}"))
                    })?;
                    writeln!(
                        out,
                        "wrote {path}: {} blocks, {} TXs",
                        trace.blocks().len(),
                        trace.total_txs()
                    )?;
                }
                None => writeln!(out, "{json}")?,
            }
            Ok(())
        }
        Some("stats") => {
            let flags = Flags::parse("dataset stats", &[], 1, rest)?;
            let path = flags.positional.first().ok_or_else(|| {
                Error::invalid_config("dataset stats", "needs a trace file argument")
            })?;
            let trace = read_trace(path)?;
            let blocks = trace.blocks();
            writeln!(out, "blocks:        {}", blocks.len())?;
            writeln!(out, "transactions:  {}", trace.total_txs())?;
            writeln!(out, "mean txs/blk:  {:.1}", trace.mean_txs())?;
            let (first_btime, last_btime) = match (blocks.first(), blocks.last()) {
                (Some(first), Some(last)) => (first.btime, last.btime),
                _ => (0, 0),
            };
            writeln!(
                out,
                "time span:     {}s ({} → {})",
                last_btime - first_btime,
                first_btime,
                last_btime,
            )?;
            Ok(())
        }
        _ => Err(Error::invalid_config("dataset", "expected `generate` or `stats`").into()),
    }
}

fn solve(args: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let flags = Flags::parse("solve", SOLVE_FLAGS, 0, args)?;
    let committees: usize = flags.num("committees")?;
    let alpha: f64 = flags.num("alpha")?;
    let seed: u64 = flags.num("seed")?;
    let capacity: u64 = flags.opt("capacity")?.unwrap_or(1_000 * committees as u64);
    let n_min: usize = flags.opt("n-min")?.unwrap_or(committees / 2);
    let solver = flags.value("solver");

    let trace = match flags.get("trace") {
        None => Trace::generate(TraceConfig::jan_2016(), seed),
        Some(path) => read_trace(path)?,
    };
    let mut gen = EpochGenerator::new(&trace, LatencyConfig::paper(), seed);
    let shards = gen.next_epoch_with_replacement(committees, 1)?;
    let instance = InstanceBuilder::new()
        .alpha(alpha)
        .capacity(capacity)
        .n_min(n_min)
        .shards(shards)
        .build()?;

    let obs = obs_from_flags(&flags, "mvcom solve", seed)?;
    let span = obs.span("solve", 0.0, &[("solver", Value::from(solver))]);
    // `t_end` is the logical end of the run on the solver's iteration
    // clock: the last trajectory point, 0 for one-shot solvers.
    let (name, solution, t_end) = if solver == "se" {
        let outcome = SeEngine::new(&instance, SeConfig::paper(seed))?
            .with_obs(obs.clone())
            .run();
        let t_end = outcome.iterations as f64;
        obs.emit(
            "solver_done",
            t_end,
            &[
                ("solver", Value::from("se")),
                ("iters", Value::U64(outcome.iterations)),
                ("best", Value::F64(outcome.best_utility)),
            ],
        );
        ("SE", outcome.best_solution, t_end)
    } else {
        let &(_, name, make) = BASELINES
            .iter()
            .find(|row| row.0 == solver)
            .ok_or_else(|| Error::invalid_config("solver", format!("unknown solver `{solver}`")))?;
        let o = solve_observed(&*make(seed), &instance, &obs)?;
        let t_end = o.trajectory.last().map_or(0.0, |&(iter, _)| iter as f64);
        (name, o.best_solution, t_end)
    };
    let metrics = ScheduleMetrics::compute(&instance, &solution);
    writeln!(
        out,
        "{name} schedule over |I| = {} (α = {alpha}, Ĉ = {capacity}, N_min = {n_min}):",
        instance.len()
    )?;
    writeln!(
        out,
        "  utility:          {:.1}",
        instance.utility(&solution)
    )?;
    writeln!(out, "  admitted:         {} committees", metrics.admitted)?;
    writeln!(
        out,
        "  block txs:        {} / {capacity}",
        metrics.admitted_txs
    )?;
    writeln!(out, "  deadline:         {:.1}s", metrics.ddl_secs)?;
    writeln!(out, "  cumulative age:   {:.1}s", metrics.cumulative_age)?;
    writeln!(out, "  mean tx age:      {:.1}s", metrics.mean_tx_age_secs)?;
    writeln!(out, "  epoch throughput: {:.2} TX/s", metrics.tps)?;
    span.close(t_end);
    obs.flush_metrics(t_end);
    flush_obs(&flags, &obs)?;
    if let Some(table) = obs.metrics_table() {
        writeln!(out, "metrics:\n{table}")?;
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
    // `submission_node` numbers nodes from 1 in a `u32`: an IDX it cannot
    // hold would wrap onto the final committee or address nobody.
    let idx = idx
        .parse::<u32>()
        .ok()
        .filter(|idx| idx.checked_add(1).is_some())
        .ok_or_else(|| bad("IDX must be an integer below 4294967295"))?;
    let node = submission_node(idx as usize);
    match times.split_once("..") {
        None => Ok(CrashEvent::permanent(node, seconds("crash", times)?)),
        Some((at, restart)) => Ok(CrashEvent::with_restart(
            node,
            seconds("crash", at)?,
            seconds("crash", restart)?,
        )),
    }
}

fn simulate(args: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let flags = Flags::parse("simulate", SIMULATE_FLAGS, 0, args)?;
    let nodes: u32 = flags.num("nodes")?;
    let epochs: usize = flags.num("epochs")?;
    let seed: u64 = flags.num("seed")?;
    let scheduler = flags.value("scheduler");
    let chaos_drop: f64 = flags.fraction("chaos-drop")?;
    let crashes: Vec<CrashEvent> = flags.all("crash").map(parse_crash).collect::<Result<_>>()?;
    let fault_tolerant = flags.get("chaos-drop").is_some()
        || flags.get("heartbeat").is_some()
        || !crashes.is_empty();
    if !matches!(scheduler, "se" | "all") {
        return Err(Error::invalid_config(
            "scheduler",
            format!("unknown scheduler `{scheduler}` (use se|all)"),
        )
        .into());
    }
    let adv_fraction: f64 = flags.fraction("adv-fraction")?;
    let adversarial = flags.get("adv-fraction").is_some() || flags.get("adv-strategy").is_some();
    let defense_on = flags.on_off("defense")?;

    let obs = obs_from_flags(&flags, "mvcom simulate", seed)?;
    let mut sim =
        ElasticoSim::new(ElasticoConfig::with_nodes(nodes, 12), seed)?.with_obs(obs.clone());
    let recovery = {
        let mut chaos = ChaosConfig::lossy(chaos_drop);
        chaos.crashes = crashes;
        RecoveryConfig {
            chaos,
            heartbeat: HeartbeatConfig {
                interval: seconds("heartbeat", flags.value("heartbeat"))?,
            },
        }
    };
    // Adversarial mode keeps one adversary alive across epochs, and with
    // `--defense on --scheduler se` one reputation engine — the defense's
    // value is exactly its memory. Wait-for-all has no defense to run.
    let adversary = if adversarial {
        Some(build_adversary(
            flags.value("adv-strategy"),
            AdversaryConfig::new(adv_fraction, seed)?,
        )?)
    } else {
        None
    };
    let mut se_selector = SeSelector::adaptive(seed, 0.6).with_obs(obs.clone());
    if adversarial && defense_on && scheduler == "se" {
        let defense = DefenseEngine::new(DefenseConfig::paper())?.with_obs(obs.clone());
        se_selector = se_selector.with_defense(defense);
    }
    let env = EpochEnv {
        adversary: adversary.as_deref(),
        recovery: fault_tolerant.then_some(&recovery),
    };
    let mut robustness_reports = Vec::new();
    for _ in 0..epochs {
        // Re-borrowed each epoch: the adversary line reads the defense
        // after the call.
        let selector: &mut dyn ShardSelector = if scheduler == "se" {
            &mut se_selector
        } else {
            &mut WaitForAll
        };
        let (report, adversary_reports) = sim.run_epoch_in(selector, &env)?;
        let start = report
            .shards
            .iter()
            .filter(|s| report.final_block.included.contains(&s.committee()))
            .map(|s| s.two_phase_latency())
            .max()
            .unwrap_or(SimTime::ZERO);
        writeln!(
            out,
            "epoch {}: {} committees, {} shards, {} admitted, final consensus from {:.0}s, block {} TXs ({})",
            report.epoch.value(),
            report.formed.len(),
            report.shards.len(),
            report.final_block.included.len(),
            start.as_secs(),
            report.final_block.total_txs,
            if report.final_block.committed { "committed" } else { "FAILED" },
        )?;
        if let Some(adversary) = &adversary {
            let liars: Vec<_> = adversary_reports.iter().filter(|r| r.adversarial).collect();
            let admitted_liars = liars
                .iter()
                .filter(|r| report.final_block.included.contains(&r.committee()))
                .count();
            let defense = se_selector.committee.defense.as_ref();
            let quarantined = defense.map_or(0, |defense| {
                adversary_reports
                    .iter()
                    .filter(|r| defense.is_quarantined(r.committee(), report.epoch.value()))
                    .count()
            });
            writeln!(
                out,
                "  adversary: {} × {} committee(s), {} admitted into the block, \
                 defense {} ({} quarantined)",
                liars.len(),
                adversary.name(),
                admitted_liars,
                if defense.is_some() { "on" } else { "off" },
                quarantined,
            )?;
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
            write!(out, "{}", table.render())?;
        }
        if let Some(r) = report.robustness {
            writeln!(
                out,
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
            )?;
            for (committee, at) in &r.failures_detected {
                writeln!(
                    out,
                    "    failure: {committee} detected at {:.0}s",
                    at.as_secs()
                )?;
            }
            robustness_reports.push(r);
        }
    }
    if robustness_reports.len() > 1 {
        let m = RobustnessMetrics::aggregate(&robustness_reports);
        writeln!(
            out,
            "total over {} epochs: {} heartbeats ({} missed), {} failures, {} retries, \
             {} chaos drops, {} degraded epochs",
            m.epochs,
            m.heartbeats_sent,
            m.heartbeats_missed,
            m.failures_detected,
            m.submission_retries,
            m.chaos_dropped,
            m.degraded_epochs,
        )?;
    }
    obs.flush_metrics(0.0);
    flush_obs(&flags, &obs)?;
    if let Some(table) = obs.metrics_table() {
        writeln!(out, "metrics:\n{table}")?;
    }
    Ok(())
}

/// Maps a daemon-crate error into the CLI's: a parameter out of its
/// domain is a flag error, anything else a failure of the run.
fn daemon_err(e: mvcom::daemon::DaemonError) -> Failure {
    use mvcom::daemon::DaemonError;
    match e {
        DaemonError::Config { .. } | DaemonError::Core(Error::InvalidConfig { .. }) => {
            Failure::Run(Error::invalid_config("daemon", e.to_string()))
        }
        e => Failure::Daemon(e),
    }
}

/// The determinism-relevant configuration `mvcom daemon` runs under;
/// every default is the [`DAEMON_FLAGS`] row's.
fn daemon_config(flags: &Flags) -> Result<mvcom::daemon::DaemonConfig> {
    Ok(mvcom::daemon::DaemonConfig {
        seed: flags.num("seed")?,
        population: flags.num("committees")?,
        batch_size: flags.num("batch-size")?,
        reports_per_epoch: flags.num("epoch-reports")?,
        batch_interval_s: flags.num("batch-interval")?,
        alpha: flags.num("alpha")?,
        capacity_per_committee: flags.num("capacity")?,
        n_min_fraction: flags.fraction("n-min-frac")?,
        defense: flags.on_off("defense")?,
        adv_fraction: flags.fraction("adv-fraction")?,
        adv_strategy: flags.value("adv-strategy").to_string(),
        se_iterations: flags.num("se-iters")?,
        max_epochs: flags.num("epochs")?,
        throttle_ms: flags.num("throttle-ms")?,
    })
}

/// The `mvcom daemon` subcommand: the long-running scheduling service.
/// Flags are defined by [`DAEMON_FLAGS`]; semantics are documented in
/// OPERATIONS.md.
fn daemon(args: &[String]) -> Result<(), Failure> {
    use mvcom::daemon::{
        AlertConfig, AlertEngine, Daemon, IngestSource, JsonlSource, MetricsServer, SeededSource,
        Startup,
    };

    let flags = Flags::parse("daemon", DAEMON_FLAGS, 0, args)?;
    let config = daemon_config(&flags)?;
    let source: Box<dyn IngestSource> = match flags.value("source") {
        "seeded" => {
            if u64::from(config.reports_per_epoch) > u64::from(config.population) {
                return Err(Error::invalid_config(
                    "epoch-reports",
                    format!(
                        "--epoch-reports ({}) must not exceed --committees ({}) for a \
                         seeded stream: an epoch would contain duplicate committees",
                        config.reports_per_epoch, config.population
                    ),
                )
                .into());
            }
            Box::new(SeededSource::new(config.seed, config.population).map_err(daemon_err)?)
        }
        "stdin" => Box::new(JsonlSource::new(std::io::stdin().lock())),
        other => {
            return Err(Error::invalid_config(
                "source",
                format!("--source takes seeded|stdin, got `{other}`"),
            )
            .into())
        }
    };
    // No utility compares below `nan`: the alert would be armed and mute.
    let min_utility: Option<f64> = flags.opt("alert-min-utility")?;
    if min_utility.is_some_and(|u| !u.is_finite()) {
        let raw = flags.value("alert-min-utility");
        return Err(Error::invalid_config(
            "alert-min-utility",
            format!("--alert-min-utility takes a finite number, got `{raw}`"),
        )
        .into());
    }
    let alerts = AlertEngine::new(AlertConfig {
        min_utility,
        min_admitted: flags.opt("alert-min-admitted")?,
        max_quarantined: flags.opt("alert-max-quarantined")?,
    });
    let obs = obs_from_flags(&flags, "daemon", config.seed)?;
    let history_path = flags.value("history").to_string();
    let resume = flags.on_off("resume")?;
    let mut daemon = Daemon::open(
        config,
        source,
        std::path::Path::new(&history_path),
        resume,
        obs.clone(),
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
    let _server = match flags.value("http") {
        "" => None,
        addr => {
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
        .run(|s, alerts| {
            for a in alerts {
                eprintln!(
                    "ALERT epoch={} kind={} threshold={} observed={}",
                    s.epoch, a.kind, a.threshold, a.observed,
                );
            }
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
    flush_obs(&flags, &obs)?;
    println!(
        "daemon: {closed} epoch(s) closed this run, history {} bytes at {history_path}",
        daemon.history_bytes(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_daemon_argv_is_the_default_config() {
        let flags = Flags::parse("daemon", DAEMON_FLAGS, 0, &[]).expect("no flags to reject");
        assert_eq!(
            daemon_config(&flags).expect("the table's defaults parse"),
            mvcom::daemon::DaemonConfig::default(),
        );
    }
}
