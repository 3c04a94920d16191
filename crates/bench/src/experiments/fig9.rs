//! Fig. 9 — dynamic event handling.
//!
//! (a) a committee leaves (fails) and later rejoins (|I_j| = 50, Ĉ = 40K);
//! (b) committees join consecutively (|I_j| = 100, Ĉ = 80K).
//! Both with α = 1.5 and Γ = 1, as in the paper.

use mvcom_core::dynamics::{run_online, DynamicsPolicy, TimedEvent};
use mvcom_core::se::SeConfig;
use mvcom_types::{CommitteeId, Error, Result, ShardInfo};

use crate::experiments::Figure;
use crate::figures::{Lines, Marks, Plot};
use crate::harness::{downsample, paper_instance, FigureReport, Scale};

const FIG9A_CSV: &str = "fig9a.csv";
const FIG9A_EVENTS_CSV: &str = "fig9a_events.csv";
const FIG9B_CSV: &str = "fig9b.csv";

/// Both panels plot the one SE trajectory they wrote.
const fn trajectory(csv: &'static str) -> Lines {
    Lines {
        csv,
        x: "iteration",
        y: "utility",
        label: "SE (Γ = 1)",
    }
}

/// Fig. 9(a).
pub const FIG9A: Figure = Figure {
    name: "fig9a",
    shows: "Fig. 9(a): a committee leaves (fails) and later rejoins",
    params: "|I|=50, Ĉ=40K, α=1.5, Γ=1",
    files: &[FIG9A_CSV, FIG9A_EVENTS_CSV],
    plots: &[Plot {
        svg: "fig9a.svg",
        title: "Fig. 9(a) — committee leave & rejoin",
        x_label: "iteration",
        y_label: "system utility",
        marks: Marks::Lines(&[trajectory(FIG9A_CSV)]),
    }],
    run: fig9a,
};

/// Fig. 9(b).
pub const FIG9B: Figure = Figure {
    name: "fig9b",
    shows: "Fig. 9(b): committees join consecutively",
    params: "|I|=100 after the joins, Ĉ=80K, α=1.5, Γ=1",
    files: &[FIG9B_CSV],
    plots: &[Plot {
        svg: "fig9b.svg",
        title: "Fig. 9(b) — consecutive committee joins",
        x_label: "iteration",
        y_label: "system utility",
        marks: Marks::Lines(&[trajectory(FIG9B_CSV)]),
    }],
    run: fig9b,
};

fn se_config(iters: u64, seed: u64) -> SeConfig {
    SeConfig {
        gamma: 1,
        max_iterations: iters,
        convergence_window: 0,
        record_every: 1,
        ..SeConfig::paper(seed)
    }
}

/// Fig. 9(a): leave at 1/3 of the budget, rejoin at 2/3.
fn fig9a(scale: Scale, _threads: usize) -> Result<FigureReport> {
    let n = scale.committees(50);
    let capacity = 800 * n as u64; // Ĉ = 40K at n = 50
    let iters = scale.iters(1_500);
    let instance = paper_instance(n, capacity, 1.5, 9_000)?;
    let victim = instance.shards()[n / 2].committee();
    let victim_shard = instance.shards()[n / 2];
    let events = vec![
        TimedEvent::leave(iters / 3, victim),
        TimedEvent::join(2 * iters / 3, victim_shard),
    ];
    let online = run_online(
        &instance,
        se_config(iters, 9_001),
        &events,
        DynamicsPolicy::Trim,
    )?;

    let mut report = FigureReport::default();
    let points = downsample(online.outcome.trajectory.points(), 400);
    report.add_csv(
        FIG9A_CSV,
        &["iteration", "utility"],
        points
            .iter()
            .map(|p| vec![p.iteration as f64, p.current_best]),
    );
    report.add_csv(
        FIG9A_EVENTS_CSV,
        &["iteration", "kind", "utility_before", "utility_after"],
        online.events.iter().map(|e| {
            vec![
                e.at_iteration.to_string(),
                if e.is_join { "join" } else { "leave" }.to_string(),
                format!("{:.2}", e.utility_before),
                format!("{:.2}", e.utility_after),
            ]
        }),
    );
    let [leave, rejoin] = online.events.as_slice() else {
        return Err(Error::simulation(format!(
            "fig9a schedules a leave then a rejoin; {} events were applied",
            online.events.len()
        )));
    };
    report.note(format!(
        "leave @ {}: {:.1} → {:.1}; rejoin @ {}: {:.1} → {:.1}; final {:.1}",
        leave.at_iteration,
        leave.utility_before,
        leave.utility_after,
        rejoin.at_iteration,
        rejoin.utility_before,
        rejoin.utility_after,
        online.outcome.best_utility
    ));
    // Shape checks (paper): the leave perturbs the utility noticeably and
    // SE re-converges to a good solution afterwards.
    report.check(
        "the leaving event perturbs the utility",
        (leave.utility_before - leave.utility_after).abs() > 0.0,
    );
    let scale_abs = leave.utility_before.abs().max(1.0);
    report.check(
        "SE recovers after the rejoin (final within 10% of pre-failure best)",
        online.outcome.best_utility >= leave.utility_before - 0.10 * scale_abs,
    );
    Ok(report)
}

/// Fig. 9(b): consecutive joins growing the epoch to |I_j| = 100.
fn fig9b(scale: Scale, _threads: usize) -> Result<FigureReport> {
    let n_final = scale.committees(100);
    let n_joins = (n_final / 5).max(2);
    let n_start = n_final - n_joins;
    let capacity = 800 * n_final as u64; // Ĉ = 80K at |I| = 100
    let iters = scale.iters(2_000);
    let instance = paper_instance(n_start, capacity, 1.5, 9_100)?;
    // Joining committees sampled from the same generative model.
    let donor = paper_instance(n_joins, capacity, 1.5, 9_101)?;
    let events: Vec<TimedEvent> = donor
        .shards()
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let relabeled =
                ShardInfo::new(CommitteeId(10_000 + k as u32), s.tx_count(), s.latency());
            TimedEvent::join(
                iters / 4 + (k as u64) * (iters / (2 * n_joins as u64)),
                relabeled,
            )
        })
        .collect();
    let online = run_online(
        &instance,
        se_config(iters, 9_102),
        &events,
        DynamicsPolicy::Reinitialize,
    )?;

    let mut report = FigureReport::default();
    let points = downsample(online.outcome.trajectory.points(), 400);
    report.add_csv(
        FIG9B_CSV,
        &["iteration", "utility"],
        points
            .iter()
            .map(|p| vec![p.iteration as f64, p.current_best]),
    );
    report.note(format!(
        "{} joins applied; epoch grew {} → {}; final utility {:.1}",
        online.events.len(),
        n_start,
        online.outcome.best_solution.len(),
        online.outcome.best_utility
    ));
    report.check(
        "every join event was applied",
        online.events.len() == n_joins && online.events.iter().all(|e| e.is_join),
    );
    report.check(
        "the epoch grew to the target size",
        online.outcome.best_solution.len() == n_final,
    );
    // Utilities are only comparable within one epoch shape (each join
    // changes the deadline), so the recovery check compares the final
    // converged utility against the restart point right after the *last*
    // join — the paper's "SE can converge to the maximum in the first few
    // hundreds of iterations when each new committee joins in".
    report.check(
        "SE converges above the post-join restart utility",
        online
            .events
            .last()
            .is_some_and(|last| online.outcome.best_utility >= last.utility_after),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::honours_its_declaration;

    #[test]
    fn fig9a_quick_run_honours_its_declaration() {
        honours_its_declaration(&FIG9A);
    }

    #[test]
    fn fig9b_quick_run_honours_its_declaration() {
        honours_its_declaration(&FIG9B);
    }
}
