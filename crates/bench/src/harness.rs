//! Shared plumbing for the figure experiments.

use std::fmt::{self, Write as _};
use std::fs;
use std::path::{Path, PathBuf};

use mvcom_baselines::{dp::DpConfig, sa::SaConfig, woa::WoaConfig};
use mvcom_baselines::{DpSolver, SaSolver, Solver, SolverOutcome, WoaSolver};
use mvcom_core::problem::InstanceBuilder;
use mvcom_core::se::{SeConfig, SeEngine, SeOutcome};
use mvcom_core::{Instance, Solution};
use mvcom_dataset::{EpochGenerator, LatencyConfig, ShardStream, StreamConfig, Trace, TraceConfig};
use mvcom_types::Result;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's parameters.
    Full,
    /// ~10× smaller, for smoke tests and CI.
    Quick,
}

impl Scale {
    /// Scales an iteration budget.
    pub fn iters(self, full: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 10).max(50),
        }
    }

    /// Scales a committee count.
    pub fn committees(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 10).max(10),
        }
    }

    /// Scales a repetition count.
    pub fn reps(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 4).max(2),
        }
    }
}

/// One line of `repro`'s summary output. Its `Display` is the only place
/// the verdict vocabulary is spelled: code asks
/// [`FigureReport::passed`] / [`FigureReport::mismatches`], never the text.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    /// A measured number, for the reader.
    Note(String),
    /// A shape check and whether the measured series passed it.
    Check {
        /// What the paper's figure shows and the series must too.
        description: String,
        /// Whether it does.
        passed: bool,
    },
    /// The closing line of a run: failed checks over every figure it ran.
    Total {
        /// How many checks failed.
        mismatches: usize,
    },
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Line::Note(text) => f.write_str(text),
            Line::Check {
                description,
                passed,
            } => {
                let verdict = if *passed { "OK" } else { "MISMATCH" };
                write!(f, "[{verdict}] {description}")
            }
            Line::Total { mismatches: 0 } => f.write_str("all shape checks passed"),
            Line::Total { mismatches } => {
                write!(f, "{mismatches} shape check(s) MISMATCHED — see above")
            }
        }
    }
}

/// The output of one figure experiment: CSV files plus a summary of
/// measured numbers and shape-check verdicts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FigureReport {
    /// `(relative path, text)` pairs to be written under `results/`.
    pub files: Vec<(String, String)>,
    /// Notes and verdicts, in the order `repro` prints them.
    pub summary: Vec<Line>,
}

impl FigureReport {
    /// Adds a CSV file built from a header and rows of cells.
    pub fn add_csv<R, C>(&mut self, filename: &str, header: &[&str], rows: R)
    where
        R: IntoIterator<Item = Vec<C>>,
        C: std::fmt::Display,
    {
        let mut text = String::new();
        let _ = writeln!(text, "{}", header.join(","));
        for row in rows {
            let cells: Vec<String> = row.into_iter().map(|c| c.to_string()).collect();
            let _ = writeln!(text, "{}", cells.join(","));
        }
        self.files.push((filename.to_string(), text));
    }

    /// Appends one summary line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.summary.push(Line::Note(line.into()));
    }

    /// Appends a shape-check verdict.
    pub fn check(&mut self, description: &str, passed: bool) {
        self.summary.push(Line::Check {
            description: description.to_string(),
            passed,
        });
    }

    /// How many shape checks failed.
    pub fn mismatches(&self) -> usize {
        self.summary
            .iter()
            .filter(|line| matches!(line, Line::Check { passed: false, .. }))
            .count()
    }

    /// Whether every shape check passed.
    pub fn passed(&self) -> bool {
        self.mismatches() == 0
    }

    /// Writes all CSV files under `out_dir` and returns the paths written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`mvcom_types::Error::Simulation`].
    pub fn write_to(&self, out_dir: &Path) -> Result<Vec<PathBuf>> {
        fs::create_dir_all(out_dir)
            .map_err(|e| mvcom_types::Error::simulation(format!("creating {out_dir:?}: {e}")))?;
        let mut written = Vec::new();
        for (name, text) in &self.files {
            let path = out_dir.join(name);
            fs::write(&path, text)
                .map_err(|e| mvcom_types::Error::simulation(format!("writing {path:?}: {e}")))?;
            written.push(path);
        }
        Ok(written)
    }
}

/// Builds the scheduling-experiment instance the paper's Figs. 8–14 use:
/// `|I| = n` shards sampled one-block-each from the Jan-2016-like trace
/// (≈1089 TXs per shard), paper latency models, `N_min = 50%·|I|`.
///
/// # Errors
///
/// Propagates builder validation.
pub fn paper_instance(n: usize, capacity: u64, alpha: f64, seed: u64) -> Result<Instance> {
    let trace = Trace::generate(TraceConfig::jan_2016(), seed);
    let mut epochs = EpochGenerator::new(&trace, LatencyConfig::paper(), seed);
    let shards = epochs.next_epoch_with_replacement(n, 1)?;
    InstanceBuilder::new()
        .alpha(alpha)
        .capacity(capacity)
        .n_min(n / 2)
        .shards(shards)
        .build()
}

/// Builds a scale-regime instance (`|I| = 10⁴–10⁵`) through the chunked
/// [`ShardStream`] builder: shards are generated 4096 at a time off the
/// Jan-2016-like trace, so the only `O(|I|)` allocation is the instance
/// itself — no materialized tx-count/latency intermediates (DESIGN.md
/// §11). Same parameter conventions as [`paper_instance`]
/// (`N_min = 50%·|I|`) but a distinct generator: the stream draws
/// per-shard, leaving the legacy epoch path — and the byte-frozen
/// small-|I| figure outputs built on it — untouched.
///
/// # Errors
///
/// Propagates stream and builder validation.
pub fn streamed_instance(n: usize, capacity: u64, alpha: f64, seed: u64) -> Result<Instance> {
    let trace = Trace::generate(TraceConfig::jan_2016(), seed);
    let mut stream = ShardStream::new(
        &trace,
        LatencyConfig::paper(),
        seed,
        StreamConfig {
            shards: n,
            blocks_per_shard: 1,
        },
    )?;
    let mut shards = Vec::with_capacity(n);
    let mut chunk = Vec::new();
    while stream.next_chunk(&mut chunk, 4096) > 0 {
        shards.append(&mut chunk);
    }
    InstanceBuilder::new()
        .alpha(alpha)
        .capacity(capacity)
        .n_min(n / 2)
        .shards(shards)
        .build()
}

/// One algorithm's result on one instance, in a form common to SE and the
/// baselines so the comparison figures can overlay them.
#[derive(Debug, Clone)]
pub struct AlgoRun {
    /// Algorithm name as plotted (`"SE"`, `"SA"`, `"DP"`, `"WOA"`).
    pub name: &'static str,
    /// Final (best) utility.
    pub utility: f64,
    /// The final solution.
    pub solution: Solution,
    /// `(iteration, best-so-far utility)` convergence samples.
    pub trajectory: Vec<(u64, f64)>,
}

impl AlgoRun {
    /// An SE run, plotted by its best-so-far utility.
    pub fn se(outcome: SeOutcome) -> AlgoRun {
        AlgoRun {
            name: "SE",
            utility: outcome.best_utility,
            trajectory: outcome
                .trajectory
                .points()
                .iter()
                .map(|p| (p.iteration, p.best_so_far))
                .collect(),
            solution: outcome.best_solution,
        }
    }

    /// An iterative baseline, plotted by the trajectory it recorded.
    pub fn iterative(name: &'static str, outcome: SolverOutcome) -> AlgoRun {
        AlgoRun {
            name,
            utility: outcome.best_utility,
            solution: outcome.best_solution,
            trajectory: outcome.trajectory,
        }
    }

    /// A one-shot baseline: its single point extended into a flat line
    /// over `iterations`, for overlays.
    pub fn one_shot(name: &'static str, outcome: SolverOutcome, iterations: u64) -> AlgoRun {
        AlgoRun {
            name,
            utility: outcome.best_utility,
            trajectory: vec![
                (0, outcome.best_utility),
                (iterations, outcome.best_utility),
            ],
            solution: outcome.best_solution,
        }
    }

    /// The utility the run started from (0 for an empty trajectory).
    pub fn start_utility(&self) -> f64 {
        self.trajectory.first().map_or(0.0, |&(_, u)| u)
    }

    /// The run as `(facet, algorithm, iteration, utility)` cells, ~150
    /// rows: the row shape the convergence figures share.
    pub fn convergence_rows(&self, facet: impl fmt::Display) -> Vec<Vec<String>> {
        downsample(&self.trajectory, 150)
            .iter()
            .map(|(iter, u)| {
                vec![
                    facet.to_string(),
                    self.name.to_string(),
                    iter.to_string(),
                    format!("{u:.2}"),
                ]
            })
            .collect()
    }
}

/// SE and the paper's three baselines on one instance.
#[derive(Debug, Clone)]
pub struct AlgoRuns {
    /// Stochastic exploration (the paper's algorithm).
    pub se: AlgoRun,
    /// Simulated annealing.
    pub sa: AlgoRun,
    /// Dynamic programming.
    pub dp: AlgoRun,
    /// Whale optimization.
    pub woa: AlgoRun,
}

impl AlgoRuns {
    /// The four runs in the order the figures plot them.
    pub fn iter(&self) -> impl Iterator<Item = &AlgoRun> {
        [&self.se, &self.sa, &self.dp, &self.woa].into_iter()
    }

    /// The best converged utility among the three baselines.
    pub fn best_baseline(&self) -> f64 {
        self.sa.utility.max(self.dp.utility).max(self.woa.utility)
    }
}

/// Runs SE and the paper's three baselines on `instance` with a shared
/// iteration budget — the engine behind Figs. 10–14.
///
/// # Errors
///
/// Propagates any solver error.
pub fn run_all_algorithms(
    instance: &Instance,
    iterations: u64,
    gamma: usize,
    seed: u64,
) -> Result<AlgoRuns> {
    let se_config = SeConfig {
        gamma,
        max_iterations: iterations,
        convergence_window: 0,
        record_every: 1,
        ..SeConfig::paper(seed)
    };
    let se = SeEngine::new(instance, se_config)?.run();
    let sa = SaSolver::new(SaConfig {
        iterations,
        ..SaConfig::paper(seed)
    })
    .solve(instance)?;
    let dp = DpSolver::new(DpConfig::paper()).solve(instance)?;
    let woa = WoaSolver::new(WoaConfig {
        iterations,
        ..WoaConfig::paper(seed)
    })
    .solve(instance)?;
    Ok(AlgoRuns {
        se: AlgoRun::se(se),
        sa: AlgoRun::iterative("SA", sa),
        dp: AlgoRun::one_shot("DP", dp, iterations),
        woa: AlgoRun::iterative("WOA", woa),
    })
}

/// Downsamples a trajectory to at most `max_points` evenly spaced samples
/// (always keeping the last).
pub fn downsample<T: Copy>(points: &[T], max_points: usize) -> Vec<T> {
    if points.len() <= max_points || max_points < 2 {
        return points.to_vec();
    }
    let stride = points.len().div_ceil(max_points);
    let mut out: Vec<T> = points.iter().copied().step_by(stride).collect();
    if let Some(&last) = points.last() {
        out.push(last);
    }
    out
}

/// Ceiling on the line count of `.events.jsonl` artifacts a figure may
/// emit; [`crate::experiments::Figure::run`] fails the figure's shape checks above it so
/// event streams can't silently bloat the repository again (the original
/// stream of the Γ sweep was 122k lines).
pub const MAX_EVENT_LINES: usize = 5_000;

/// Downsamples a JSONL event stream to at most `max_lines` lines,
/// preserving the original line order.
///
/// Rare event kinds (≤ 200 lines) are kept in full — they carry the
/// lifecycle markers (`se_init`, `se_improve`, `se_converged`, …) that
/// `obs_report` and the replay tests anchor on. Dominant kinds split the
/// remaining budget evenly and are stride-sampled per kind via
/// [`downsample`], so the sampled stream keeps full time coverage of
/// every series rather than truncating the tail.
///
/// Every kind's **final** event is always retained, in both the per-kind
/// and the degenerate uniform-sampling paths, so no series ends
/// mid-epoch after downsampling. (If a stream somehow had more distinct
/// kinds than `max_lines`, keeping each series' last would exceed the
/// cap; real streams have a few dozen kinds.)
pub fn downsample_events_jsonl(events: &str, max_lines: usize) -> String {
    let lines: Vec<&str> = events.lines().collect();
    if lines.len() <= max_lines {
        return events.to_string();
    }
    let kind_of = |line: &str| -> String {
        line.split_once("\"kind\":\"")
            .and_then(|(_, rest)| rest.split_once('"'))
            .map(|(kind, _)| kind.to_string())
            .unwrap_or_default()
    };
    // Group line indices per kind, in first-seen order.
    let mut kinds: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let kind = kind_of(line);
        match kinds.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, indices)) => indices.push(i),
            None => kinds.push((kind, vec![i])),
        }
    }
    let rare_total: usize = kinds
        .iter()
        .filter(|(_, idx)| idx.len() <= 200)
        .map(|(_, idx)| idx.len())
        .sum();
    let heavy: Vec<&(String, Vec<usize>)> =
        kinds.iter().filter(|(_, idx)| idx.len() > 200).collect();
    let mut keep = vec![false; lines.len()];
    if rare_total >= max_lines || heavy.is_empty() {
        // Degenerate distribution: sample uniformly across everything,
        // reserving one slot per kind so each series still ends on its
        // own final event (uniform sampling alone only guarantees the
        // *global* last line survives, leaving other series truncated
        // mid-epoch).
        let all: Vec<usize> = (0..lines.len()).collect();
        let budget = max_lines
            .saturating_sub(2 + kinds.len())
            .max(2)
            .min(max_lines.saturating_sub(2).max(2));
        for i in downsample(&all, budget) {
            keep[i] = true;
        }
    } else {
        for (_, indices) in kinds.iter().filter(|(_, idx)| idx.len() <= 200) {
            for &i in indices {
                keep[i] = true;
            }
        }
        // `downsample` may exceed its target by ~2 (stride rounding + the
        // kept last point); budget conservatively so the cap still holds.
        let share = ((max_lines - rare_total) / heavy.len())
            .saturating_sub(2)
            .max(2);
        for (_, indices) in heavy {
            for &i in &downsample(indices, share) {
                keep[i] = true;
            }
        }
    }
    // Invariant (both branches): every series retains its final event, so
    // a downsampled stream never ends mid-epoch for any kind. The heavy
    // branch already gets this from `downsample` keeping each series'
    // last point; the degenerate branch relies on the reserved slots.
    for (_, indices) in &kinds {
        if let Some(&last) = indices.last() {
            keep[last] = true;
        }
    }
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        if keep[i] {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Replays finished algorithm runs into a schema-validated JSONL event
/// stream (`solver_point`/`solver_done`, one series per run, sampled to
/// ~`max_points` each) — the obs event file some figures write next to
/// their CSVs. Emission happens after all solves, so attaching telemetry
/// cannot perturb a solver; `obs_report` consumes the result.
pub fn runs_as_events<'a>(
    runs: impl IntoIterator<Item = &'a AlgoRun>,
    max_points: usize,
) -> String {
    use mvcom_obs::{Obs, ObsLevel, Value};
    let (obs, buf) = Obs::memory(ObsLevel::Events);
    for run in runs {
        for &(iter, best) in &downsample(&run.trajectory, max_points) {
            obs.emit(
                "solver_point",
                iter as f64,
                &[
                    ("solver", Value::from(run.name)),
                    ("iter", Value::U64(iter)),
                    ("best", Value::F64(best)),
                ],
            );
        }
        let iters = run.trajectory.last().map_or(0, |&(iter, _)| iter);
        obs.emit(
            "solver_done",
            iters as f64,
            &[
                ("solver", Value::from(run.name)),
                ("iters", Value::U64(iters)),
                ("best", Value::F64(run.utility)),
            ],
        );
    }
    obs.flush();
    debug_assert_eq!(obs.invalid_dropped(), 0);
    buf.contents()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_quick_shrinks() {
        assert_eq!(Scale::Full.iters(3_000), 3_000);
        assert_eq!(Scale::Quick.iters(3_000), 300);
        assert_eq!(Scale::Quick.committees(500), 50);
        assert_eq!(Scale::Quick.reps(20), 5);
        assert_eq!(Scale::Quick.iters(100), 50);
    }

    #[test]
    fn paper_instance_matches_parameters() {
        let inst = paper_instance(50, 50_000, 1.5, 1).unwrap();
        assert_eq!(inst.len(), 50);
        assert_eq!(inst.capacity(), 50_000);
        assert_eq!(inst.n_min(), 25);
        // ~1089 TXs per shard on average.
        let mean = inst.total_txs() as f64 / 50.0;
        assert!((800.0..1400.0).contains(&mean), "mean shard size {mean}");
    }

    /// The one streamed-instance input of the sparse-vs-dense DP
    /// differential: `mvcom-baselines`' `sparse_dp_differential.rs` stops
    /// at |I| ≤ 500 on synthetic shards and has no trace dependency; this
    /// is the |I| = 2000 point the retired scale bench asserted.
    #[test]
    fn sparse_and_dense_dp_agree_on_a_streamed_instance() {
        use mvcom_baselines::SparseDpSolver;
        let inst = streamed_instance(2_000, 2_000_000, 1.5, 31_100).unwrap();
        assert_eq!(inst.len(), 2_000);
        let dense = DpSolver::new(DpConfig::paper()).solve(&inst).unwrap();
        let sparse = SparseDpSolver::new(DpConfig::paper()).solve(&inst).unwrap();
        assert!(
            (dense.best_utility - sparse.best_utility).abs() < 1e-6,
            "dense {} vs sparse {}",
            dense.best_utility,
            sparse.best_utility
        );
    }

    #[test]
    fn csv_rendering() {
        let mut report = FigureReport::default();
        report.add_csv("t.csv", &["a", "b"], vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(report.files[0].1, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn downsample_keeps_ends() {
        let points: Vec<u64> = (0..1000).collect();
        let ds = downsample(&points, 50);
        assert!(ds.len() <= 52);
        assert_eq!(ds[0], 0);
        assert_eq!(*ds.last().unwrap(), 999);
        assert_eq!(downsample(&points, 2000), points);
    }

    #[test]
    fn downsample_events_keeps_rare_kinds_and_caps_lines() {
        let mut events = String::new();
        events.push_str("{\"kind\":\"se_init\",\"t\":0}\n");
        for i in 0..20_000 {
            events.push_str(&format!("{{\"kind\":\"se_chain_point\",\"t\":{i}}}\n"));
        }
        for i in 0..9_000 {
            events.push_str(&format!("{{\"kind\":\"se_point\",\"t\":{i}}}\n"));
        }
        events.push_str("{\"kind\":\"se_converged\",\"t\":9}\n");
        let trimmed = downsample_events_jsonl(&events, 5_000);
        let n_lines = trimmed.lines().count();
        assert!(n_lines <= 5_000, "still {n_lines} lines");
        assert!(n_lines > 3_000, "over-trimmed to {n_lines} lines");
        assert!(trimmed.contains("se_init"));
        assert!(trimmed.contains("se_converged"));
        // The last sample of each heavy series survives.
        assert!(trimmed.contains("{\"kind\":\"se_chain_point\",\"t\":19999}"));
        assert!(trimmed.contains("{\"kind\":\"se_point\",\"t\":8999}"));
        // Order is preserved: converged is still the final line.
        assert_eq!(
            trimmed.lines().last().unwrap(),
            "{\"kind\":\"se_converged\",\"t\":9}"
        );
        // Small streams pass through untouched.
        let small = "{\"kind\":\"a\"}\n{\"kind\":\"b\"}\n";
        assert_eq!(downsample_events_jsonl(small, 5_000), small);
    }

    #[test]
    fn downsample_events_degenerate_branch_keeps_each_series_last_event() {
        // Synthetic over-limit stream that forces the degenerate uniform
        // branch: no kind exceeds 200 lines (so `heavy` is empty), yet
        // the total is far over the cap. Before the fix, uniform
        // sampling only guaranteed the *global* last line survived, so
        // every other series could lose its final event and the
        // downsampled JSONL ended mid-epoch for those kinds.
        let mut events = String::new();
        for series in 0..60 {
            for i in 0..200 {
                events.push_str(&format!("{{\"kind\":\"epoch_{series}\",\"t\":{i}}}\n"));
            }
        }
        assert_eq!(events.lines().count(), 12_000);
        let trimmed = downsample_events_jsonl(&events, 5_000);
        let n_lines = trimmed.lines().count();
        assert!(n_lines <= 5_000, "still {n_lines} lines");
        for series in 0..60 {
            let last = format!("{{\"kind\":\"epoch_{series}\",\"t\":199}}");
            assert!(
                trimmed.contains(&last),
                "series epoch_{series} lost its final event"
            );
        }
        // Order preserved: the stream still ends on the global last line.
        assert_eq!(
            trimmed.lines().last().unwrap(),
            "{\"kind\":\"epoch_59\",\"t\":199}"
        );

        // Heavy branch: an interleaved tail must also survive for every
        // heavy series, not only the one that happens to own the global
        // last line.
        let mut events = String::new();
        for i in 0..9_000 {
            events.push_str(&format!("{{\"kind\":\"heavy_a\",\"t\":{i}}}\n"));
        }
        for i in 0..9_000 {
            events.push_str(&format!("{{\"kind\":\"heavy_b\",\"t\":{i}}}\n"));
        }
        events.push_str("{\"kind\":\"epoch_end\",\"t\":1}\n");
        let trimmed = downsample_events_jsonl(&events, 5_000);
        assert!(trimmed.lines().count() <= 5_000);
        assert!(trimmed.contains("{\"kind\":\"heavy_a\",\"t\":8999}"));
        assert!(trimmed.contains("{\"kind\":\"heavy_b\",\"t\":8999}"));
        assert!(trimmed.contains("epoch_end"));
    }

    #[test]
    fn verdicts_are_typed_and_only_their_display_is_text() {
        let mut report = FigureReport::default();
        report.note("[MISMATCH] inside a note is prose, not a verdict");
        report.check("thing holds", true);
        assert!(report.passed());
        assert_eq!(report.mismatches(), 0);
        report.check("other thing", false);
        assert!(!report.passed());
        assert_eq!(report.mismatches(), 1);
        assert_eq!(report.summary[1].to_string(), "[OK] thing holds");
        assert_eq!(report.summary[2].to_string(), "[MISMATCH] other thing");
        assert_eq!(
            Line::Total { mismatches: 0 }.to_string(),
            "all shape checks passed"
        );
        assert_eq!(
            Line::Total { mismatches: 3 }.to_string(),
            "3 shape check(s) MISMATCHED — see above"
        );
    }
}
