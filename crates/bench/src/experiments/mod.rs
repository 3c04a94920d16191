//! One module per figure, and [`FIGURES`]: the one table `repro`, `plot`,
//! the SVG renderer and DESIGN.md §4 are derived from.
//!
//! A figure is declared once, in its own module: a [`Figure`] constant
//! beside the code that computes it — the files it writes, the paper
//! parameters it reproduces, and its charts as [`Plot`] values next to
//! the `add_csv` call that names their columns. Adding a figure is one
//! new module plus one row of [`FIGURES`].

pub mod ablations;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig2;
pub mod fig8;
pub mod fig9;
pub mod fig_adv;
pub mod fig_scale;

use std::fmt::Write as _;

use mvcom_types::Result;

use crate::figures::Plot;
use crate::harness::{FigureReport, Line, Scale, MAX_EVENT_LINES};

/// One reproducible figure.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// What `repro` calls it.
    pub name: &'static str,
    /// What the figure shows, in one line.
    pub shows: &'static str,
    /// The paper's parameters for it, in one line.
    pub params: &'static str,
    /// Every file a run writes, in the order it writes them.
    pub files: &'static [&'static str],
    /// The charts drawn from those files.
    pub plots: &'static [Plot],
    /// Computes the figure at `scale`, fanning its independent sweep
    /// points over `threads` workers (DESIGN.md §14: same bytes at any
    /// count). Private so that [`Figure::run`] is the only way in.
    run: fn(Scale, usize) -> Result<FigureReport>,
}

/// Every figure, in paper order, then the ablations and the two figures
/// with no paper counterpart.
pub const FIGURES: &[Figure] = &[
    fig2::FIG2A,
    fig2::FIG2B,
    fig8::FIGURE,
    fig9::FIG9A,
    fig9::FIG9B,
    fig10::FIGURE,
    fig11::FIGURE,
    fig12::FIGURE,
    fig13::FIGURE,
    fig14::FIGURE,
    ablations::DDL,
    ablations::DYNAMICS,
    fig_adv::FIGURE,
    fig_scale::FIGURE,
];

impl Figure {
    /// Looks a figure up by its `repro` name.
    pub fn named(name: &str) -> Option<&'static Figure> {
        FIGURES.iter().find(|figure| figure.name == name)
    }

    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Propagates the experiment's own errors.
    pub fn run(&self, scale: Scale, threads: usize) -> Result<FigureReport> {
        let mut report = (self.run)(scale, threads)?;
        // Artifact size guard: an emitted event stream over the cap fails
        // the figure's shape checks (experiments must downsample — see
        // `harness::downsample_events_jsonl`) so `results/` can't silently
        // accumulate 100k-line JSONL files again.
        for (path, text) in &report.files {
            if path.ends_with(".events.jsonl") {
                let lines = text.lines().count();
                report.summary.push(Line::Check {
                    description: format!(
                        "event artifact {path} within the {MAX_EVENT_LINES}-line cap ({lines} lines)"
                    ),
                    passed: lines <= MAX_EVENT_LINES,
                });
            }
        }
        Ok(report)
    }
}

/// The figure index as a Markdown table: what `repro --list` prints and
/// what DESIGN.md §4 holds between its `GENERATED` markers (a test keeps
/// the two byte-equal).
pub fn index_markdown() -> String {
    let mut md = String::from(
        "| `repro` target | What it shows | Parameters | Files | Charts |\n\
         |---|---|---|---|---|\n",
    );
    let code = |names: Vec<&str>| {
        if names.is_empty() {
            "—".to_string()
        } else {
            format!("`{}`", names.join("` `"))
        }
    };
    for figure in FIGURES {
        let _ = writeln!(
            md,
            "| `{}` | {} | {} | {} | {} |",
            figure.name,
            figure.shows.replace('|', "\\|"),
            figure.params.replace('|', "\\|"),
            code(figure.files.to_vec()),
            code(figure.plots.iter().map(|plot| plot.svg).collect()),
        );
    }
    md
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeSet;
    use std::fs;
    use std::path::Path;

    use super::*;

    /// The SVG names `plot` must produce from `dir`'s CSVs, worked out
    /// without the renderer: its `svg` template, filled once per distinct
    /// value of the column it names (if any), in row order.
    fn declared_svgs(plot: &Plot, dir: &Path) -> Vec<String> {
        let Some((prefix, rest)) = plot.svg.split_once('{') else {
            return vec![plot.svg.to_string()];
        };
        let (column, suffix) = rest.split_once('}').unwrap();
        let csv = match plot.marks {
            crate::figures::Marks::Lines(sources) => sources[0].csv,
            crate::figures::Marks::Bars(source) => source.csv,
        };
        let text = fs::read_to_string(dir.join(csv)).unwrap();
        let mut lines = text.lines();
        let at = lines
            .next()
            .unwrap()
            .split(',')
            .position(|h| h == column)
            .unwrap_or_else(|| panic!("{csv} has no `{column}` column"));
        let mut names = Vec::new();
        for line in lines {
            let name = format!("{prefix}{}{suffix}", line.split(',').nth(at).unwrap());
            if !names.contains(&name) {
                names.push(name);
            }
        }
        names
    }

    fn ls(dir: &Path) -> BTreeSet<String> {
        fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().to_string())
            .collect()
    }

    /// What every figure module's own `#[test]` asserts: a `Quick` run
    /// passes its shape checks, writes exactly the files the declaration
    /// names, and every declared plot renders from them — so each column
    /// a plot reads is in the CSV the figure wrote — into exactly the
    /// declared SVG names. Returns the report for figure-specific asserts.
    pub(crate) fn honours_its_declaration(figure: &Figure) -> FigureReport {
        let report = figure.run(Scale::Quick, 1).unwrap();
        assert!(report.passed(), "{:#?}", report.summary);
        let written: Vec<&str> = report.files.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(written, figure.files, "files written vs declared");

        let dir = std::env::temp_dir().join(format!(
            "mvcom-figure-{}-{}",
            figure.name,
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        report.write_to(&dir).unwrap();
        let rendered: Vec<String> = crate::figures::render(figure.plots, &dir)
            .unwrap()
            .iter()
            .map(|path| path.file_name().unwrap().to_string_lossy().to_string())
            .collect();
        let declared: Vec<String> = figure
            .plots
            .iter()
            .flat_map(|plot| declared_svgs(plot, &dir))
            .collect();
        assert_eq!(rendered, declared, "SVGs rendered vs declared");
        let _ = fs::remove_dir_all(&dir);
        report
    }

    #[test]
    fn names_are_unique_and_resolve() {
        let names: BTreeSet<&str> = FIGURES.iter().map(|figure| figure.name).collect();
        assert_eq!(names.len(), FIGURES.len());
        for figure in FIGURES {
            assert_eq!(Figure::named(figure.name).unwrap().name, figure.name);
        }
        assert!(Figure::named("nosuchfig").is_none());
        assert!(Figure::named("all").is_none(), "`all` is repro's keyword");
    }

    /// The committed `results/` is exactly what the table declares at
    /// full scale: no figure without its artifacts, no orphaned artifact.
    #[test]
    fn results_dir_holds_exactly_the_declared_artifacts() {
        let results = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
        let mut declared = BTreeSet::new();
        for figure in FIGURES {
            let files = figure.files.iter().map(|name| name.to_string());
            let svgs = figure
                .plots
                .iter()
                .flat_map(|plot| declared_svgs(plot, results));
            for name in files.chain(svgs) {
                assert!(declared.insert(name.clone()), "{name} declared twice");
            }
        }
        assert_eq!(ls(results), declared);
    }

    #[test]
    fn design_md_figure_index_is_the_rendered_table() {
        let doc = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
            .expect("DESIGN.md must exist at the workspace root");
        let (_, rest) = doc
            .split_once("<!-- BEGIN GENERATED: repro --list -->\n\n")
            .expect("the begin marker");
        let (committed, _) = rest
            .split_once("\n<!-- END GENERATED -->")
            .expect("the end marker");
        assert!(
            committed == index_markdown(),
            "DESIGN.md §4 drifted from experiments::FIGURES; \
             regenerate it with `repro --list`"
        );
        assert_eq!(index_markdown().lines().count(), 2 + FIGURES.len());
    }

    #[test]
    fn an_event_stream_over_the_cap_fails_the_figure() {
        fn bloated(_: Scale, _: usize) -> Result<FigureReport> {
            let mut report = FigureReport::default();
            let line = "{\"kind\":\"x\"}\n";
            report.files.push((
                "bloated.events.jsonl".to_string(),
                line.repeat(MAX_EVENT_LINES + 1),
            ));
            Ok(report)
        }
        let figure = Figure {
            run: bloated,
            ..fig8::FIGURE
        };
        let report = figure.run(Scale::Quick, 1).unwrap();
        assert_eq!(report.mismatches(), 1, "{:#?}", report.summary);
    }
}
