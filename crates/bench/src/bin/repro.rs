//! Regenerates the paper's figures.
//!
//! ```text
//! repro all [--quick] [--out DIR]      # every figure
//! repro fig8 fig10 [--quick]           # selected figures
//! repro fig8 --threads 4               # fan sweep points across threads
//! repro --list                         # available figures
//! ```
//!
//! CSVs are written under `--out` (default `results/`); a summary with
//! shape-check verdicts is printed per figure. `--threads N` fans each
//! figure's independent sweep points across worker threads — outputs are
//! byte-identical to the serial run at any thread count, only wall-clock
//! changes.

#![forbid(unsafe_code)]
use std::path::PathBuf;
use std::process::ExitCode;

use mvcom_bench::experiments::{self, ALL};
use mvcom_bench::Scale;

struct Args {
    figures: Vec<String>,
    scale: Scale,
    out: PathBuf,
    list: bool,
    svg: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut figures = Vec::new();
    let mut scale = Scale::Full;
    let mut out = PathBuf::from("results");
    let mut list = false;
    let mut svg = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--list" => list = true,
            "--svg" => svg = true,
            "--threads" => {
                let value = argv
                    .next()
                    .ok_or_else(|| "--threads needs a count".to_string())?;
                let threads =
                    mvcom_bench::harness::parse_threads(&value).map_err(|e| e.to_string())?;
                mvcom_bench::harness::set_threads(threads);
            }
            "--out" => {
                out = PathBuf::from(
                    argv.next()
                        .ok_or_else(|| "--out needs a directory".to_string())?,
                );
            }
            "all" => figures.extend(ALL.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            fig => figures.push(fig.to_string()),
        }
    }
    Ok(Args {
        figures,
        scale,
        out,
        list,
        svg,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: repro <figure…|all> [--quick] [--svg] [--threads N] [--out DIR] [--list]"
            );
            return ExitCode::FAILURE;
        }
    };
    if args.list || args.figures.is_empty() {
        println!("available figures: {}", ALL.join(" "));
        println!("usage: repro <figure…|all> [--quick] [--out DIR]");
        return ExitCode::SUCCESS;
    }

    let mut mismatches = 0usize;
    for name in &args.figures {
        println!("=== {name} ({:?}) ===", args.scale);
        let started = std::time::Instant::now();
        match experiments::run(name, args.scale) {
            Ok(report) => {
                for line in &report.summary {
                    println!("  {line}");
                    if line.contains("MISMATCH") {
                        mismatches += 1;
                    }
                }
                match report.write_to(&args.out) {
                    Ok(paths) => {
                        for p in paths {
                            println!("  wrote {}", p.display());
                        }
                    }
                    Err(e) => {
                        eprintln!("  error writing output: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                println!("  ({:.1}s)", started.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("  error: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!();
    }
    if args.svg {
        match mvcom_bench::figures::render_all(&args.out) {
            Ok(paths) => {
                for p in paths {
                    println!("rendered {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("error rendering SVGs: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if mismatches > 0 {
        println!("{mismatches} shape check(s) MISMATCHED — see above");
        return ExitCode::from(2);
    }
    println!("all shape checks passed");
    ExitCode::SUCCESS
}
