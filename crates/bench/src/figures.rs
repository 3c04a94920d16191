//! Plot declarations and the one CSV → SVG interpreter.
//!
//! A figure module declares its charts as [`Plot`] values beside the
//! `add_csv` call that names the columns they read; [`render`] turns
//! declarations plus the CSVs found in a directory into SVG files. Used
//! by `repro --svg` and the standalone `plot` binary.
//!
//! `svg`, `title` and `label` are templates: `{column}` stands for that
//! column's cell in the row being drawn. A placeholder in `svg` therefore
//! facets a plot — one file per distinct value of that column — and one
//! in `label` groups rows into series.

use std::fs;
use std::path::{Path, PathBuf};

use mvcom_types::{Error, Result};

use crate::plot::{Bar, Chart, Series};

/// One declared chart.
#[derive(Debug, Clone, Copy)]
pub struct Plot {
    /// Output file name (template).
    pub svg: &'static str,
    /// Chart title (template).
    pub title: &'static str,
    /// X-axis label.
    pub x_label: &'static str,
    /// Y-axis label.
    pub y_label: &'static str,
    /// What is drawn.
    pub marks: Marks,
}

/// The two chart shapes [`crate::plot::Chart`] draws.
#[derive(Debug, Clone, Copy)]
pub enum Marks {
    /// A line chart over every source's rows, one polyline per distinct
    /// label, in first-appearance order.
    Lines(&'static [Lines]),
    /// A bar chart, one bar per row.
    Bars(Bars),
}

/// One source of line-chart points.
#[derive(Debug, Clone, Copy)]
pub struct Lines {
    /// CSV file the rows come from.
    pub csv: &'static str,
    /// Column holding x.
    pub x: &'static str,
    /// Column holding y.
    pub y: &'static str,
    /// Series label (template).
    pub label: &'static str,
}

/// The source of a bar chart.
#[derive(Debug, Clone, Copy)]
pub struct Bars {
    /// CSV file the rows come from.
    pub csv: &'static str,
    /// Label under each bar (template).
    pub label: &'static str,
    /// Column holding the bar height.
    pub value: &'static str,
    /// Columns holding the `(low, high)` whisker, if the bars carry one.
    pub whisker: Option<(&'static str, &'static str)>,
}

/// One of our own CSVs: header row plus comma-separated cells, no quoting
/// (we never emit commas inside cells).
struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Reads `dir/csv`; `None` when the file does not exist (its figure
    /// was not run into `dir`).
    fn read(dir: &Path, csv: &str) -> Result<Option<Table>> {
        let path = dir.join(csv);
        if !path.exists() {
            return Ok(None);
        }
        let text = fs::read_to_string(&path)
            .map_err(|e| Error::simulation(format!("reading {path:?}: {e}")))?;
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| Error::simulation(format!("{path:?} is empty")))?
            .split(',')
            .map(str::to_string)
            .collect();
        let rows = lines
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        Ok(Some(Table { header, rows }))
    }

    fn cell<'r>(&self, row: &'r [String], column: &str) -> Result<&'r str> {
        self.header
            .iter()
            .position(|h| h == column)
            .and_then(|i| row.get(i))
            .map(String::as_str)
            .ok_or_else(|| {
                Error::simulation(format!(
                    "column `{column}` missing from {:?} (row {row:?})",
                    self.header
                ))
            })
    }

    fn number(&self, row: &[String], column: &str) -> Result<f64> {
        Ok(self.cell(row, column)?.parse().unwrap_or(f64::NAN))
    }

    /// Replaces every `{column}` in `template` with that column's cell.
    fn fill(&self, template: &str, row: &[String]) -> Result<String> {
        let mut out = String::new();
        let mut rest = template;
        while let Some((text, tail)) = rest.split_once('{') {
            let (column, tail) = tail
                .split_once('}')
                .ok_or_else(|| Error::simulation(format!("unclosed `{{` in `{template}`")))?;
            out.push_str(text);
            out.push_str(self.cell(row, column)?);
            rest = tail;
        }
        out.push_str(rest);
        Ok(out)
    }
}

/// The rows of a plot that land in one output file.
struct Facet {
    svg: String,
    title: String,
    /// One series per distinct label, in first-appearance order.
    series: Vec<Series>,
    bars: Vec<Bar>,
}

impl Facet {
    fn add_point(&mut self, label: String, point: (f64, f64)) {
        match self.series.iter_mut().find(|s| s.label == label) {
            Some(series) => series.points.push(point),
            None => self.series.push(Series {
                label,
                points: vec![point],
            }),
        }
    }
}

impl Plot {
    /// The facet `row` belongs to: the one whose filled `svg` name matches,
    /// appended on first appearance.
    fn facet_of<'f>(
        &self,
        facets: &'f mut Vec<Facet>,
        table: &Table,
        row: &[String],
    ) -> Result<&'f mut Facet> {
        let svg = table.fill(self.svg, row)?;
        let at = match facets.iter().position(|f| f.svg == svg) {
            Some(at) => at,
            None => {
                facets.push(Facet {
                    svg,
                    title: table.fill(self.title, row)?,
                    series: Vec::new(),
                    bars: Vec::new(),
                });
                facets.len() - 1
            }
        };
        Ok(&mut facets[at])
    }

    /// `(file name, svg text)` per facet; empty when a source CSV is not
    /// in `dir` or holds no drawable row.
    fn draw(&self, dir: &Path) -> Result<Vec<(String, String)>> {
        let mut facets: Vec<Facet> = Vec::new();
        match self.marks {
            Marks::Lines(sources) => {
                for source in sources {
                    let Some(table) = Table::read(dir, source.csv)? else {
                        return Ok(Vec::new());
                    };
                    for row in &table.rows {
                        let label = table.fill(source.label, row)?;
                        let point = (table.number(row, source.x)?, table.number(row, source.y)?);
                        self.facet_of(&mut facets, &table, row)?
                            .add_point(label, point);
                    }
                }
            }
            Marks::Bars(source) => {
                let Some(table) = Table::read(dir, source.csv)? else {
                    return Ok(Vec::new());
                };
                for row in &table.rows {
                    let bar = Bar {
                        label: table.fill(source.label, row)?,
                        value: table.number(row, source.value)?,
                        whisker: match source.whisker {
                            Some((low, high)) => {
                                Some((table.number(row, low)?, table.number(row, high)?))
                            }
                            None => None,
                        },
                    };
                    self.facet_of(&mut facets, &table, row)?.bars.push(bar);
                }
            }
        }
        Ok(facets
            .into_iter()
            .filter_map(|facet| {
                let chart = Chart::new(facet.title, self.x_label, self.y_label);
                let svg = match self.marks {
                    Marks::Lines(_) => chart.render_lines(&facet.series),
                    Marks::Bars(_) => chart.render_bars(&facet.bars),
                };
                svg.map(|svg| (facet.svg, svg))
            })
            .collect())
    }
}

/// Renders every plot of `plots` whose CSVs are in `dir`, next to them;
/// returns the SVG paths in declaration order.
///
/// # Errors
///
/// I/O failures, and a declared column missing from its CSV.
pub fn render<'a>(plots: impl IntoIterator<Item = &'a Plot>, dir: &Path) -> Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    for plot in plots {
        for (name, svg) in plot.draw(dir)? {
            let path = dir.join(name);
            fs::write(&path, svg)
                .map_err(|e| Error::simulation(format!("writing {path:?}: {e}")))?;
            written.push(path);
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::FigureReport;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mvcom-figures-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn names(written: &[PathBuf]) -> Vec<String> {
        written
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().to_string())
            .collect()
    }

    const CURVES: Plot = Plot {
        svg: "curves_k_{k}.svg",
        title: "curves (k = {k})",
        x_label: "step",
        y_label: "value",
        marks: Marks::Lines(&[Lines {
            csv: "curves.csv",
            x: "step",
            y: "value",
            label: "{solver} / {arm}",
        }]),
    };

    const PAIR: Plot = Plot {
        svg: "pair.svg",
        title: "two files, two fixed labels",
        x_label: "x",
        y_label: "y",
        marks: Marks::Lines(&[
            Lines {
                csv: "left.csv",
                x: "x",
                y: "y",
                label: "left",
            },
            Lines {
                csv: "right.csv",
                x: "x",
                y: "y",
                label: "right",
            },
        ]),
    };

    const BOXES: Plot = Plot {
        svg: "boxes.svg",
        title: "boxes",
        x_label: "solver",
        y_label: "median",
        marks: Marks::Bars(Bars {
            csv: "boxes.csv",
            label: "{solver}",
            value: "median",
            whisker: Some(("q25", "q75")),
        }),
    };

    #[test]
    fn a_placeholder_in_the_svg_name_facets_and_labels_group() {
        let dir = tmpdir("facets");
        let mut report = FigureReport::default();
        let cell = |s: &str| s.to_string();
        report.add_csv(
            "curves.csv",
            &["k", "solver", "arm", "step", "value"],
            vec![
                vec![cell("1.5"), cell("SE"), cell("on"), cell("0"), cell("1.0")],
                vec![cell("1.5"), cell("SE"), cell("on"), cell("5"), cell("2.0")],
                vec![cell("1.5"), cell("SA"), cell("off"), cell("0"), cell("0.5")],
                vec![cell("10"), cell("SE"), cell("on"), cell("0"), cell("3.0")],
                vec![cell("10"), cell("SE"), cell("on"), cell("5"), cell("4.0")],
            ],
        );
        report.write_to(&dir).unwrap();
        let written = render([&CURVES], &dir).unwrap();
        assert_eq!(names(&written), ["curves_k_1.5.svg", "curves_k_10.svg"]);
        let first = fs::read_to_string(dir.join("curves_k_1.5.svg")).unwrap();
        assert!(first.contains("curves (k = 1.5)"));
        assert!(first.contains("SE / on") && first.contains("SA / off"));
        let second = fs::read_to_string(dir.join("curves_k_10.svg")).unwrap();
        assert!(second.contains("SE / on") && !second.contains("SA / off"));
    }

    #[test]
    fn lines_merge_several_files_and_bars_carry_whiskers() {
        let dir = tmpdir("pair-boxes");
        let mut report = FigureReport::default();
        report.add_csv(
            "left.csv",
            &["x", "y"],
            vec![vec![0.0, 1.0], vec![1.0, 2.0]],
        );
        report.add_csv(
            "right.csv",
            &["x", "y"],
            vec![vec![0.0, 3.0], vec![1.0, 5.0]],
        );
        report.add_csv(
            "boxes.csv",
            &["solver", "q25", "median", "q75"],
            vec![vec!["SE", "2", "3", "4"], vec!["SA", "1", "2", "3"]],
        );
        report.write_to(&dir).unwrap();
        let written = render([&PAIR, &BOXES], &dir).unwrap();
        assert_eq!(names(&written), ["pair.svg", "boxes.svg"]);
        let pair = fs::read_to_string(dir.join("pair.svg")).unwrap();
        assert_eq!(pair.matches("<polyline").count(), 2);
        let boxes = fs::read_to_string(dir.join("boxes.svg")).unwrap();
        assert!(boxes.contains(">SE<") && boxes.contains(">SA<"));
    }

    #[test]
    fn a_plot_with_a_missing_csv_is_skipped_and_a_missing_column_is_an_error() {
        let dir = tmpdir("missing");
        // Nothing there: nothing rendered. One of PAIR's two files: still nothing.
        assert!(render([&CURVES, &PAIR, &BOXES], &dir).unwrap().is_empty());
        let mut report = FigureReport::default();
        report.add_csv("left.csv", &["x", "y"], vec![vec![0.0, 1.0]]);
        report.add_csv("boxes.csv", &["solver", "median"], vec![vec!["SE", "3"]]);
        report.write_to(&dir).unwrap();
        assert!(render([&PAIR], &dir).unwrap().is_empty());
        // BOXES reads q25/q75, which this CSV does not have.
        let err = render([&BOXES], &dir).unwrap_err().to_string();
        assert!(err.contains("column `q25` missing"), "{err}");
    }
}
