//! Renders SVG charts from previously written figure CSVs.
//!
//! ```text
//! plot [DIR]      # default DIR = results/
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use mvcom_bench::experiments::FIGURES;

fn main() -> ExitCode {
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    if !dir.is_dir() {
        eprintln!(
            "error: {} is not a directory (run `repro` first)",
            dir.display()
        );
        return ExitCode::FAILURE;
    }
    let plots = FIGURES.iter().flat_map(|figure| figure.plots);
    match mvcom_bench::figures::render(plots, &dir) {
        Ok(paths) if paths.is_empty() => {
            println!("no known figure CSVs found in {}", dir.display());
            ExitCode::SUCCESS
        }
        Ok(paths) => {
            for p in paths {
                println!("rendered {}", p.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
