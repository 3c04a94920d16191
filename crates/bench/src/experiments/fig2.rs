//! Fig. 2 — measured two-phase latency under Elastico.
//!
//! (a) formation vs consensus latency while scaling the network size;
//! (b) the CDFs of both latency components at a fixed size.

use mvcom_elastico::epoch::{ElasticoConfig, ElasticoSim};
use mvcom_simnet::stats::{Ecdf, Summary};
use mvcom_types::Result;

use crate::experiments::Figure;
use crate::figures::{Lines, Marks, Plot};
use crate::harness::{downsample, FigureReport, Scale};

const TARGET_COMMITTEE: u32 = 12;

const FIG2A_CSV: &str = "fig2a.csv";
const FORMATION_CDF_CSV: &str = "fig2b_formation_cdf.csv";
const CONSENSUS_CDF_CSV: &str = "fig2b_consensus_cdf.csv";

/// Fig. 2(a).
pub const FIG2A: Figure = Figure {
    name: "fig2a",
    shows: "Fig. 2(a): two-phase latency (formation + consensus) vs network size under Elastico",
    params: "100→1000 nodes, committee size 12",
    files: &[FIG2A_CSV],
    plots: &[Plot {
        svg: "fig2a.svg",
        title: "Fig. 2(a) — two-phase latency vs network size",
        x_label: "network size (nodes)",
        y_label: "latency (s)",
        marks: Marks::Lines(&[
            Lines {
                csv: FIG2A_CSV,
                x: "network_size",
                y: "formation_mean_s",
                label: "committee formation",
            },
            Lines {
                csv: FIG2A_CSV,
                x: "network_size",
                y: "consensus_mean_s",
                label: "intra-committee consensus",
            },
        ]),
    }],
    run: fig2a,
};

/// Fig. 2(b).
pub const FIG2B: Figure = Figure {
    name: "fig2b",
    shows: "Fig. 2(b): CDFs of formation latency and consensus latency",
    params: "600 nodes, 8 epochs",
    files: &[FORMATION_CDF_CSV, CONSENSUS_CDF_CSV],
    plots: &[Plot {
        svg: "fig2b.svg",
        title: "Fig. 2(b) — CDF of the two-phase latency components",
        x_label: "latency (s)",
        y_label: "CDF",
        marks: Marks::Lines(&[
            Lines {
                csv: FORMATION_CDF_CSV,
                x: "latency_s",
                y: "cdf",
                label: "formation latency",
            },
            Lines {
                csv: CONSENSUS_CDF_CSV,
                x: "latency_s",
                y: "cdf",
                label: "consensus latency",
            },
        ]),
    }],
    run: fig2b,
};

fn collect_latencies(n_nodes: u32, epochs: usize, seed: u64) -> Result<(Vec<f64>, Vec<f64>)> {
    let mut sim = ElasticoSim::new(ElasticoConfig::with_nodes(n_nodes, TARGET_COMMITTEE), seed)?;
    let mut formation = Vec::new();
    let mut consensus = Vec::new();
    for _ in 0..epochs {
        let report = sim.run_epoch()?;
        for shard in &report.shards {
            formation.push(shard.latency().formation().as_secs());
            consensus.push(shard.latency().consensus().as_secs());
        }
    }
    Ok((formation, consensus))
}

/// Fig. 2(a): two-phase latency vs network size.
fn fig2a(scale: Scale, threads: usize) -> Result<FigureReport> {
    let sizes: &[u32] = match scale {
        Scale::Full => &[100, 200, 400, 600, 800, 1000],
        Scale::Quick => &[100, 200, 400],
    };
    let epochs = scale.reps(3);
    // One point per network size; its seed is its sweep index.
    let points: Vec<(u32, Summary, Summary)> =
        mvcom_simnet::ordered_map(threads, sizes.iter().enumerate().collect(), |(i, &n)| {
            let (formation, consensus) = collect_latencies(n, epochs, 20_000 + i as u64)?;
            Ok((
                n,
                formation.into_iter().collect(),
                consensus.into_iter().collect(),
            ))
        })
        .into_iter()
        .collect::<Result<_>>()?;

    let mut report = FigureReport::default();
    for (n, fs, cs) in &points {
        report.note(format!(
            "n={n}: formation {:.0}±{:.0}s, consensus {:.1}±{:.1}s",
            fs.mean(),
            fs.std_dev(),
            cs.mean(),
            cs.std_dev()
        ));
    }
    report.add_csv(
        FIG2A_CSV,
        &[
            "network_size",
            "formation_mean_s",
            "formation_std_s",
            "consensus_mean_s",
            "consensus_std_s",
        ],
        points.iter().map(|(n, fs, cs)| {
            vec![
                f64::from(*n),
                fs.mean(),
                fs.std_dev(),
                cs.mean(),
                cs.std_dev(),
            ]
        }),
    );
    // Shape checks (paper): formation dominates consensus and grows
    // roughly linearly with the network size; consensus stays flat.
    report.check(
        "formation latency dominates consensus at every size",
        points.iter().all(|(_, fs, cs)| fs.mean() > cs.mean()),
    );
    // The linear identity-processing slope is ~3 s/node; require at least
    // a third of it to show through the PoW max-order-statistic noise.
    report.check(
        "formation latency grows with network size",
        matches!(points.as_slice(), [(n0, f0, _), .., (n1, f1, _)]
            if f1.mean() > f0.mean() + f64::from(n1 - n0)),
    );
    report.check(
        "consensus latency stays roughly flat across sizes",
        matches!(points.as_slice(), [(_, _, c0), .., (_, _, c1)]
            if (c1.mean() - c0.mean()).abs() < c0.mean().max(1.0)),
    );
    Ok(report)
}

/// Fig. 2(b): CDFs of formation and consensus latency.
fn fig2b(scale: Scale, _threads: usize) -> Result<FigureReport> {
    let n_nodes = match scale {
        Scale::Full => 600,
        Scale::Quick => 150,
    };
    let epochs = scale.reps(8);
    let (formation, consensus) = collect_latencies(n_nodes, epochs, 21_000)?;
    let f_cdf = Ecdf::from_samples(formation);
    let c_cdf = Ecdf::from_samples(consensus);

    let mut report = FigureReport::default();
    let f_points: Vec<(f64, f64)> = downsample(&f_cdf.points().collect::<Vec<_>>(), 200);
    let c_points: Vec<(f64, f64)> = downsample(&c_cdf.points().collect::<Vec<_>>(), 200);
    report.add_csv(
        FORMATION_CDF_CSV,
        &["latency_s", "cdf"],
        f_points.iter().map(|&(x, y)| vec![x, y]),
    );
    report.add_csv(
        CONSENSUS_CDF_CSV,
        &["latency_s", "cdf"],
        c_points.iter().map(|&(x, y)| vec![x, y]),
    );
    report.note(format!(
        "formation: median {:.0}s, p95 {:.0}s over {} samples",
        f_cdf.quantile(0.5),
        f_cdf.quantile(0.95),
        f_cdf.len()
    ));
    report.note(format!(
        "consensus: median {:.1}s, p95 {:.1}s over {} samples (paper mean 54.5s)",
        c_cdf.quantile(0.5),
        c_cdf.quantile(0.95),
        c_cdf.len()
    ));
    // Shape checks: both distributions spread over a bounded range rather
    // than collapsing to a point (the paper stresses their randomness).
    report.check(
        "formation latency is dispersed (p95 > 1.3 × median)",
        f_cdf.quantile(0.95) > 1.3 * f_cdf.quantile(0.5),
    );
    report.check(
        "consensus latency is dispersed (p95 > 1.3 × median)",
        c_cdf.quantile(0.95) > 1.3 * c_cdf.quantile(0.5),
    );
    report.check(
        "formation stochastically dominates consensus",
        f_cdf.quantile(0.5) > c_cdf.quantile(0.95),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::honours_its_declaration;

    #[test]
    fn fig2a_quick_run_honours_its_declaration() {
        honours_its_declaration(&FIG2A);
    }

    #[test]
    fn fig2b_quick_run_honours_its_declaration() {
        honours_its_declaration(&FIG2B);
    }
}
