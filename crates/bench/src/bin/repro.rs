//! Regenerates the paper's figures.
//!
//! ```text
//! repro all [--quick] [--out DIR]      # every figure
//! repro fig8 fig10 [--quick]           # selected figures
//! repro fig8 --threads 4               # fan sweep points across threads
//! repro --list                         # the figure index (DESIGN.md §4)
//! ```
//!
//! CSVs are written under `--out` (default `results/`); a summary with
//! shape-check verdicts is printed per figure. `--threads N` fans each
//! figure's independent sweep points across worker threads; DESIGN.md §14
//! is why the bytes do not depend on it.

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use mvcom_bench::experiments::{self, Figure, FIGURES};
use mvcom_bench::harness::Line;
use mvcom_bench::Scale;

const USAGE: &str =
    "usage: repro <figure…|all> [--quick] [--svg] [--threads N] [--out DIR] [--list]";

struct Args {
    figures: Vec<&'static Figure>,
    scale: Scale,
    threads: usize,
    out: PathBuf,
    list: bool,
    svg: bool,
}

/// Parses the command line and resolves every figure name against
/// [`FIGURES`], so nothing runs (and nothing is written) unless all of
/// it is understood.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        figures: Vec::new(),
        scale: Scale::Full,
        threads: 1,
        out: PathBuf::from("results"),
        list: false,
        svg: false,
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => args.scale = Scale::Quick,
            "--list" => args.list = true,
            "--svg" => args.svg = true,
            "--threads" => {
                let value = argv.next().ok_or("--threads needs a count")?;
                args.threads = match value.trim().parse() {
                    Ok(threads) if threads >= 1 => threads,
                    _ => {
                        return Err(format!(
                            "--threads must be an integer >= 1, got `{value}` \
                             (use 1 for a serial run)"
                        ))
                    }
                };
            }
            "--out" => args.out = PathBuf::from(argv.next().ok_or("--out needs a directory")?),
            "all" => args.figures.extend(FIGURES),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => args.figures.push(Figure::named(name).ok_or_else(|| {
                let known: Vec<&str> = FIGURES.iter().map(|figure| figure.name).collect();
                format!(
                    "unknown figure `{name}`; expected `all` or any of: {}",
                    known.join(" ")
                )
            })?),
        }
    }
    Ok(args)
}

/// Prints the closing line; returns the exit code it stands for.
fn close(out: &mut impl Write, mismatches: usize) -> io::Result<u8> {
    writeln!(out, "{}", Line::Total { mismatches })?;
    Ok(if mismatches > 0 { 2 } else { 0 })
}

/// Runs the figures. `Err` is a failed write to `out` only; every other
/// failure is reported on stderr and becomes exit code 1.
fn reproduce(args: &Args, out: &mut impl Write) -> io::Result<u8> {
    let mut mismatches = 0usize;
    for figure in &args.figures {
        writeln!(out, "=== {} ({:?}) ===", figure.name, args.scale)?;
        #[expect(
            clippy::disallowed_methods,
            reason = "progress line on stdout only; no artifact or verdict reads the clock"
        )]
        let started = std::time::Instant::now();
        let report = match figure.run(args.scale, args.threads) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("  error: {e}");
                return Ok(1);
            }
        };
        for line in &report.summary {
            writeln!(out, "  {line}")?;
        }
        mismatches += report.mismatches();
        match report.write_to(&args.out) {
            Ok(paths) => {
                for p in paths {
                    writeln!(out, "  wrote {}", p.display())?;
                }
            }
            Err(e) => {
                eprintln!("  error writing output: {e}");
                return Ok(1);
            }
        }
        writeln!(out, "  ({:.1}s)\n", started.elapsed().as_secs_f64())?;
    }
    if args.svg {
        let plots = FIGURES.iter().flat_map(|figure| figure.plots);
        match mvcom_bench::figures::render(plots, &args.out) {
            Ok(paths) => {
                for p in paths {
                    writeln!(out, "rendered {}", p.display())?;
                }
            }
            Err(e) => {
                eprintln!("error rendering SVGs: {e}");
                return Ok(1);
            }
        }
    }
    close(out, mismatches)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // One locked handle for the whole run. A reader that hangs up
    // (`repro all | head`) ends the run quietly: no panic, no backtrace,
    // and not exit 0, since the figures did not all run.
    let mut out = io::stdout().lock();
    let code = if args.list || args.figures.is_empty() {
        write!(out, "{}\n{USAGE}\n", experiments::index_markdown()).map(|()| 0)
    } else {
        reproduce(&args, &mut out)
    };
    match code.and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => ExitCode::from(code),
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error writing to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn all_is_the_table_and_names_resolve_in_order() {
        let args = parse(&["all", "--quick", "--threads", "3"]).unwrap();
        assert_eq!(args.figures.len(), FIGURES.len());
        assert_eq!((args.scale, args.threads), (Scale::Quick, 3));
        let args = parse(&["fig9b", "fig2a"]).unwrap();
        let names: Vec<&str> = args.figures.iter().map(|figure| figure.name).collect();
        assert_eq!(names, ["fig9b", "fig2a"]);
        assert_eq!((args.scale, args.threads), (Scale::Full, 1));
    }

    #[test]
    fn a_failing_verdict_is_exit_code_two() {
        let mut report = mvcom_bench::FigureReport::default();
        report.check("holds", true);
        let mut out = Vec::new();
        assert_eq!(close(&mut out, report.mismatches()).unwrap(), 0);
        report.check("does not hold", false);
        assert_eq!(close(&mut out, report.mismatches()).unwrap(), 2);
        let printed = String::from_utf8(out).unwrap();
        assert_eq!(
            printed,
            format!(
                "{}\n{}\n",
                Line::Total { mismatches: 0 },
                Line::Total { mismatches: 1 }
            )
        );
    }

    #[test]
    fn a_closed_stdout_is_an_error_not_a_panic() {
        struct HungUp;
        impl Write for HungUp {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let args = parse(&["fig9a", "--quick"]).unwrap();
        let err = reproduce(&args, &mut HungUp).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }
}
