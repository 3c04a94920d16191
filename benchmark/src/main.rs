//! The repository benchmark's command line. `run.sh` builds this binary
//! and forwards its arguments; see README.md.

mod agree;
mod calib;
mod host;
mod inputs;
mod metrics;
mod probe;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use metrics::{RUN_SECONDS, WORKLOADS};
use run::{result_path, RunArgs};
use workloads::Scale;

const USAGE: &str = "usage:
  run.sh --workload NAME --seed N --seconds S --trace 0|1   one run; the last line is the result
  run.sh [all] [--seed N] [--repeat K] [--times T] [--seconds S] [--workload NAME]
                                    every workload, untraced then traced, each in its own process:
                                    seeds N..N+K, each T times
  run.sh agree A.json B.json        compare two result sets against the bounds in BENCHMARK.json
  run.sh spread A.json              quartile spread of each end-to-end metric in one result set
  run.sh manifest                   print BENCHMARK.json as the metric tables define it";

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("unexpected argument `{key}`"));
            };
            let value = it.next().ok_or(format!("`{key}` needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`--{name} {v}` is not a number")),
        }
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out-dir").unwrap_or("benchmark/out"))
    }
}

/// One run. A failed output check is reported in the result line
/// (`correct: false`) and the exit code stays 0, as the driver's contract
/// asks; only a run that cannot complete is an error.
fn single(flags: &Flags) -> Result<bool, String> {
    let workload = flags.get("workload").ok_or("--workload is required")?;
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace {other}`: expected 0 or 1")),
    };
    let args = RunArgs {
        workload: workload.to_string(),
        seed: flags.number("seed", 1u64)?,
        seconds: flags.number("seconds", RUN_SECONDS as f64)?,
        trace,
        scale: Scale::Full,
        out_dir: flags.out_dir(),
    };
    let result = run::run(&args)?;
    let path = result_path(&args.out_dir, result.workload, trace, args.seed);
    std::fs::write(&path, result.to_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    print!("{}", result.table());
    println!("{}", result.contract_line());
    Ok(true)
}

/// Runs every workload untraced then traced, one process per run (each
/// reports its own peak memory).
fn all(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.number("seed", 1)?;
    let repeat: u64 = flags.number("repeat", 1)?;
    let times: u64 = flags.number("times", 1)?;
    let seconds: f64 = flags.number("seconds", RUN_SECONDS as f64)?;
    let out_dir = flags.out_dir();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let names: Vec<&str> = match flags.get("workload") {
        Some(one) => vec![one],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut records = Vec::new();
    let mut all_correct = true;
    let seeds = (seed..seed + repeat).flat_map(|s| std::iter::repeat_n(s, times as usize));
    for s in seeds {
        for name in &names {
            for trace in [false, true] {
                let status = Command::new(&exe)
                    .args(["--workload", name, "--seed", &s.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out-dir")
                    .arg(&out_dir)
                    .status()
                    .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!(
                        "{name} seed {s} trace {} exited with {status}",
                        u8::from(trace)
                    ));
                }
                let path = result_path(&out_dir, name, trace, s);
                let record = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                all_correct &= record.contains("\"correct\":true");
                records.push(record);
            }
        }
    }
    let set = out_dir.join(match (repeat, times) {
        (1, 1) => format!("results-seed{seed}.json"),
        (_, 1) => format!("results-seed{seed}x{repeat}.json"),
        _ => format!("results-seed{seed}x{repeat}-times{times}.json"),
    });
    std::fs::write(
        &set,
        format!("{{\"runs\":[\n{}\n]}}\n", records.join(",\n")),
    )
    .map_err(|e| format!("write {}: {e}", set.display()))?;
    eprintln!(
        "result set: {} ({} runs); traces: {}/trace-<workload>.jsonl; output checks {}",
        set.display(),
        records.len(),
        out_dir.display(),
        if all_correct { "passed" } else { "FAILED" }
    );
    Ok(all_correct)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(Path::new(path)).map_err(|e| format!("read {path}: {e}"))
}

fn bounds() -> Result<std::collections::BTreeMap<String, f64>, String> {
    // The committed file when run from the repository root; the tables it
    // is rendered from otherwise.
    let text = std::fs::read_to_string("BENCHMARK.json").unwrap_or_else(|_| metrics::manifest());
    agree::parse_bounds(&text)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Some("agree") => {
            let [_, a, b] = args else {
                return Err("agree takes two result sets".to_string());
            };
            let (a, b) = (agree::parse_set(&read(a)?)?, agree::parse_set(&read(b)?)?);
            let (text, ok) = agree::agree(&a, &b, &bounds()?);
            print!("{text}");
            Ok(ok)
        }
        Some("spread") => {
            let [_, a] = args else {
                return Err("spread takes one result set".to_string());
            };
            print!(
                "{}",
                agree::spread(&agree::parse_set(&read(a)?)?, &bounds()?)
            );
            Ok(true)
        }
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        Some("all") => all(&Flags::parse(&args[1..])?),
        _ => {
            let flags = Flags::parse(args)?;
            // The driver's contract names `--trace`; without it this is
            // the everything-at-once command of the README.
            if flags.get("trace").is_some() {
                single(&flags)
            } else {
                all(&flags)
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
