//! fig-scale — the fig11-shaped sweep extended to the 10⁴–10⁵ committee
//! regime (DESIGN.md §11): SE against the sparse DP and greedy
//! baselines over [`streamed_instance`]s.
//!
//! SA and WOA are deliberately absent: their per-iteration cost is
//! `O(population·|I|)`, which at `|I| = 10⁵` is minutes per point without
//! adding information — the near-exact one-shot baselines already anchor
//! the achievable utility. The sparse DP runs with a wider bucket budget
//! than the small-|I| figures (`max_buckets = 4096`): at `Ĉ = 1000·|I|`
//! the paper's 512 buckets would quantize every ~1089-TX shard up to a
//! full bucket, capping the pre-repair selection at 512 shards.

use mvcom_baselines::dp::DpConfig;
use mvcom_baselines::{GreedySolver, Solver, SparseDpSolver};
use mvcom_core::se::{SeConfig, SeEngine};
use mvcom_types::Result;

use crate::experiments::Figure;
use crate::harness::{runs_as_events, streamed_instance, AlgoRun, FigureReport, Scale};

/// Sparse-DP bucket budget for the scale regime (see module docs).
const SCALE_BUCKETS: usize = 4_096;

const CSV: &str = "fig_scale.csv";
const EVENTS: &str = "fig_scale.events.jsonl";

/// `fig_scale`.
pub const FIGURE: Figure = Figure {
    name: "fig_scale",
    shows: "*(extra)* the Fig. 11 sweep at |I| ∈ {10⁴, 5·10⁴, 10⁵}: SE vs sparse DP and greedy on streamed instances",
    params: "Ĉ=1000·|I|, α=1.5, Γ=10, 4 chains per replica, 4096 DP buckets",
    files: &[EVENTS, CSV],
    plots: &[],
    run,
};

/// One |I| point's products, merged into the report in sweep order.
struct SizePoint {
    n: usize,
    /// SE, sparse DP, greedy — the plotted order.
    runs: [AlgoRun; 3],
    feasible: bool,
}

/// Runs the scale sweep.
fn run(scale: Scale, threads: usize) -> Result<FigureReport> {
    let sizes: &[usize] = match scale {
        Scale::Full => &[10_000, 50_000, 100_000],
        Scale::Quick => &[5_000, 20_000],
    };
    let iters = scale.iters(3_000);
    // One point per |I|; its seeds are its sweep index.
    let points =
        mvcom_simnet::ordered_map(threads, sizes.iter().enumerate().collect(), |(i, &n)| {
            let instance = streamed_instance(n, 1_000 * n as u64, 1.5, 21_000 + i as u64)?;
            // max_chains = 4: Algorithm 2's one-chain-per-cardinality
            // family is O(|I|) wide here, and each chain carries an
            // O(|I|) evaluation cache — four strided cardinalities per
            // replica keep the family anchored at both feasibility
            // endpoints within ~150 MB at |I| = 10⁵.
            let se_config = SeConfig {
                gamma: 10,
                max_iterations: iters,
                convergence_window: 0,
                record_every: 1,
                max_chains: 4,
                ..SeConfig::paper(21_100 + i as u64)
            };
            let se = SeEngine::new(&instance, se_config)?.run();
            let sdp = SparseDpSolver::new(DpConfig {
                max_buckets: SCALE_BUCKETS,
            })
            .solve(&instance)?;
            let greedy = GreedySolver::new().solve(&instance)?;
            let runs = [
                AlgoRun::se(se),
                AlgoRun::one_shot("SDP", sdp, iters),
                AlgoRun::one_shot("Greedy", greedy, iters),
            ];
            Ok(SizePoint {
                n,
                feasible: runs.iter().all(|r| instance.is_feasible(&r.solution)),
                runs,
            })
        })
        .into_iter()
        .collect::<Result<Vec<SizePoint>>>()?;

    let mut report = FigureReport::default();
    // Obs event file for the largest sweep point, as in Fig. 11.
    if let Some(point) = points.last() {
        report
            .files
            .push((EVENTS.to_string(), runs_as_events(&point.runs, 150)));
    }
    let mut rows: Vec<Vec<String>> = Vec::new();
    for SizePoint { n, runs, .. } in &points {
        rows.extend(runs.iter().flat_map(|r| r.convergence_rows(n)));
        let [se, sdp, greedy] = runs;
        report.note(format!(
            "|I|={n}: SE {:.1} (from {:.1}), SDP {:.1}, Greedy {:.1}",
            se.utility,
            se.start_utility(),
            sdp.utility,
            greedy.utility
        ));
    }
    report.add_csv(
        CSV,
        &["committees", "algorithm", "iteration", "utility"],
        rows,
    );
    // Shape checks, calibrated for the scale regime: with a fixed
    // iteration budget SE is an anytime algorithm that cannot fully
    // converge at |I| = 10⁵ (the paper stops at 10³), and the streamed
    // trace's latency penalty dominates the raw utility (it goes
    // negative — the *ordering* is what carries information). The robust
    // claims are (a) every solver returns a capacity-feasible selection
    // at every size, (b) SE improves on its initialization everywhere,
    // and (c) the one-shot baselines scale: greedy — asymptotically
    // optimal for this dense-small-items knapsack — never collapses
    // below the bucket-quantized sparse DP.
    report.check(
        "every solver returns a capacity-feasible selection at every |I|",
        points.iter().all(|point| point.feasible),
    );
    report.check(
        "SE improves on its initialization at every |I|",
        points.iter().all(|point| {
            let [se, _, _] = &point.runs;
            se.utility > se.start_utility()
        }),
    );
    report.check(
        "greedy stays at or above the bucket-quantized sparse DP at scale",
        points.iter().all(|point| {
            let [_, sdp, greedy] = &point.runs;
            greedy.utility >= sdp.utility - 1e-9
        }),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::honours_its_declaration;

    #[test]
    fn quick_run_honours_its_declaration() {
        honours_its_declaration(&FIGURE);
    }
}
