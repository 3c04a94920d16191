//! `fig_adv` — the adversarial utility/safety frontier (no paper
//! counterpart; see DESIGN.md §10).
//!
//! Sweeps adversarial fraction ∈ {0, 0.05, 0.1, 0.2, 0.33} for each
//! strategy (`misreport`, `freerider`, `starver`) over a stable
//! [`StrategicPopulation`], and runs three scheduler arms per point:
//!
//! * **reference** — the same population with nobody lying; its realized
//!   honest utility normalizes everything else.
//! * **defense on** — reports screened through
//!   [`mvcom_core::DefenseEngine`] before the SE scheduler sees them.
//! * **defense off** — the SE scheduler consumes the raw claims.
//!
//! Two frontier metrics per point, both computed from ground truth (what
//! committees actually deliver), never from claims:
//!
//! * **honest-utility capture** — realized utility summed over *admitted
//!   honest* committees, divided by the reference arm's figure;
//! * **starvation rate** — fraction of epochs in which fewer than half of
//!   the honest committees were admitted (the Starver's objective is to
//!   push rivals below `N_min`).
//!
//! Every seed derives from the sweep point's index.

use std::collections::BTreeSet;

use mvcom_core::admission::{Capacity, EpochPolicy, FinalCommittee};
use mvcom_core::defense::{DefenseConfig, DefenseEngine};
use mvcom_core::se::SeConfig;
use mvcom_dataset::StrategicPopulation;
use mvcom_dataset::{build_adversary, Adversary, AdversaryConfig, CommitteeReport};
use mvcom_obs::{obs_event, Obs, ObsLevel};
use mvcom_types::{CommitteeId, Result};

use crate::experiments::Figure;
use crate::figures::{Lines, Marks, Plot};
use crate::harness::{downsample_events_jsonl, FigureReport, Scale, MAX_EVENT_LINES};

const CSV: &str = "fig_adv.csv";
const EVENTS: &str = "fig_adv.events.jsonl";

/// One line per strategy × defense arm of `column` against the
/// adversarial fraction.
const fn frontier(column: &'static str) -> Lines {
    Lines {
        csv: CSV,
        x: "fraction",
        y: column,
        label: "{strategy} (defense {defense})",
    }
}

/// `fig_adv`.
pub const FIGURE: Figure = Figure {
    name: "fig_adv",
    shows: "*(extra)* adversarial utility/safety frontier: misreport/freerider/starver coalitions vs the defense layer",
    params: "fraction ∈ {0,0.05,0.1,0.2,0.33}, 40 committees, 10 epochs, α=5, Γ=4",
    files: &[EVENTS, CSV],
    plots: &[
        Plot {
            svg: "fig_adv_capture.svg",
            title: "Adversarial frontier — strategic coalitions vs the defense layer",
            x_label: "adversarial fraction",
            y_label: "honest-utility capture (vs honest reference)",
            marks: Marks::Lines(&[frontier("honest_capture")]),
        },
        Plot {
            svg: "fig_adv_starvation.svg",
            title: "Adversarial frontier — strategic coalitions vs the defense layer",
            x_label: "adversarial fraction",
            y_label: "starved epochs / total epochs",
            marks: Marks::Lines(&[frontier("starvation_rate")]),
        },
    ],
    run,
};

const STRATEGIES: [&str; 3] = ["misreport", "freerider", "starver"];
const FRACTIONS: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.33];
/// Middle of Fig. 12's α sweep. At α = 1.5 the realized utility of a
/// committee is dominated by the Exp(600 s) formation-latency spread, so
/// the reference arm's total — the capture ratio's denominator — sits
/// near zero and the ratio is ill-conditioned; at α = 5 the size term
/// dominates and every arm settles on a solidly positive total.
const ALPHA: f64 = 5.0;
const CAPACITY_PER_COMMITTEE: u64 = 1_000;

/// What one arm of one sweep point produced.
struct ArmOutcome {
    /// Σ realized utility of admitted honest committees, over all epochs.
    honest_utility: f64,
    /// Epochs in which honest admissions fell below half the honest roster.
    starved_epochs: usize,
    /// Mean admitted adversarial committees per epoch.
    adv_admitted_mean: f64,
}

/// One (strategy, fraction) sweep point.
struct AdvPoint {
    fraction: f64,
    capture_on: f64,
    capture_off: f64,
    starve_on: f64,
    starve_off: f64,
    rows: Vec<Vec<String>>,
    note: String,
    events: Option<String>,
}

/// Realized (ground-truth) utility of the admitted set, the honest share
/// of it, and the honest-admission count. The deadline is the max *true*
/// latency over the **admitted** set — the final committee waits for the
/// slowest sub-block it scheduled, not for excluded shards — so admitting
/// a freerider taxes every admitted committee's `(t − l)` term, and
/// quarantining one lifts that tax.
fn settle_epoch(
    reports: &[CommitteeReport],
    admitted: &BTreeSet<CommitteeId>,
) -> (f64, usize, usize) {
    let t = reports
        .iter()
        .filter(|r| admitted.contains(&r.committee()))
        .map(|r| r.truth.two_phase_latency().as_secs())
        .fold(0.0f64, f64::max);
    let mut honest_utility = 0.0;
    let mut honest_admitted = 0;
    let mut adv_admitted = 0;
    for r in reports {
        if !admitted.contains(&r.committee()) {
            continue;
        }
        if r.adversarial {
            adv_admitted += 1;
        } else {
            let l = r.truth.two_phase_latency().as_secs();
            honest_utility += ALPHA * r.truth.tx_count() as f64 - (t - l);
            honest_admitted += 1;
        }
    }
    (honest_utility, honest_admitted, adv_admitted)
}

/// Runs one arm: `epochs` epochs of report → (screen) → SE schedule →
/// settle-on-truth → (defense feedback).
fn run_arm(
    population: &StrategicPopulation,
    adversary: &dyn Adversary,
    defense: bool,
    epochs: u64,
    se_base: SeConfig,
    obs: &Obs,
) -> Result<ArmOutcome> {
    let defense = if defense {
        Some(DefenseEngine::new(DefenseConfig::paper())?.with_obs(obs.clone()))
    } else {
        None
    };
    // The SE runs stay untraced: the figure's event artifact holds the
    // adversary and defense events only.
    let mut committee = FinalCommittee {
        policy: EpochPolicy {
            alpha: ALPHA,
            capacity: Capacity::PerCommittee(CAPACITY_PER_COMMITTEE),
            ..EpochPolicy::paper()
        },
        defense,
        obs: Obs::off(),
    };
    let mut honest_utility = 0.0;
    let mut starved_epochs = 0;
    let mut adv_admitted_total = 0usize;
    for epoch in 0..epochs {
        let reports = population.epoch_reports(epoch, adversary);
        for r in reports.iter().filter(|r| r.adversarial) {
            obs_event!(
                obs, "adversary_act", epoch as f64,
                "committee" => u64::from(r.committee().value()),
                "epoch" => epoch,
                "strategy" => adversary.name(),
                "ds" => r.ds(),
                "dl" => r.dl(),
            );
        }
        let honest_total = reports.iter().filter(|r| !r.adversarial).count();
        let reported: Vec<_> = reports.iter().map(|r| r.reported).collect();
        // `Ĉ` scales with the whole population, screened or not.
        let capacity = committee.policy.capacity.of(&reported);
        let se = se_base.for_epoch(epoch);
        let admission = committee.decide(epoch, &reported, Some(capacity), None, se)?;
        let decision = admission.finish();
        let admitted: BTreeSet<CommitteeId> = decision.admitted.iter().copied().collect();
        let (utility, honest_admitted, adv_admitted) = settle_epoch(&reports, &admitted);
        honest_utility += utility;
        adv_admitted_total += adv_admitted;
        if honest_admitted * 2 < honest_total {
            starved_epochs += 1;
        }
        committee.settle(epoch, &reports, &decision);
    }
    Ok(ArmOutcome {
        honest_utility,
        starved_epochs,
        adv_admitted_mean: adv_admitted_total as f64 / epochs as f64,
    })
}

/// Runs the adversarial frontier sweep.
fn run(scale: Scale, threads: usize) -> Result<FigureReport> {
    let committees = scale.committees(40);
    let epochs: u64 = match scale {
        Scale::Full => 10,
        Scale::Quick => 4,
    };
    let se_base = SeConfig {
        gamma: match scale {
            Scale::Full => 4,
            Scale::Quick => 2,
        },
        max_iterations: scale.iters(600),
        convergence_window: scale.iters(600) / 2,
        ..SeConfig::paper(0)
    };
    let sweep: Vec<(usize, (&str, f64))> = STRATEGIES
        .into_iter()
        .flat_map(|s| FRACTIONS.into_iter().map(move |f| (s, f)))
        .enumerate()
        .collect();
    let points = mvcom_simnet::ordered_map(threads, sweep, |(i, (strategy, fraction))| {
        let seed = 15_000 + i as u64;
        let population = StrategicPopulation::new(committees, seed);
        let adversary = build_adversary(strategy, AdversaryConfig::new(fraction, seed)?)?;
        let none = build_adversary(strategy, AdversaryConfig::new(0.0, seed)?)?;
        let se = SeConfig { seed, ..se_base };
        // The densest adversarial point of the starver sweep keeps
        // its telemetry as the figure's event artifact.
        let keep_events = strategy == "starver" && fraction >= 0.33;
        let buffer = keep_events.then(|| Obs::memory(ObsLevel::Events));
        let off_obs = Obs::off();
        let on_obs = buffer.as_ref().map_or(&off_obs, |(obs, _)| obs);
        let reference = run_arm(&population, none.as_ref(), false, epochs, se, &off_obs)?;
        let on = run_arm(&population, adversary.as_ref(), true, epochs, se, on_obs)?;
        let off = run_arm(&population, adversary.as_ref(), false, epochs, se, &off_obs)?;
        let events = buffer.map(|(obs, buf)| {
            obs.flush();
            downsample_events_jsonl(&buf.contents(), MAX_EVENT_LINES)
        });
        let norm = reference.honest_utility.abs().max(f64::EPSILON);
        let capture = |arm: &ArmOutcome| arm.honest_utility / norm;
        let starve = |arm: &ArmOutcome| arm.starved_epochs as f64 / epochs as f64;
        let mut rows = Vec::new();
        for (arm, label) in [(&on, "on"), (&off, "off")] {
            rows.push(vec![
                strategy.to_string(),
                format!("{fraction:.2}"),
                label.to_string(),
                format!("{:.6}", capture(arm)),
                format!("{:.4}", starve(arm)),
                format!("{:.3}", arm.adv_admitted_mean),
            ]);
        }
        let note = format!(
            "{strategy} f={fraction:.2}: capture on {:.3} / off {:.3}, \
             starvation on {:.2} / off {:.2}",
            capture(&on),
            capture(&off),
            starve(&on),
            starve(&off),
        );
        Ok(AdvPoint {
            fraction,
            capture_on: capture(&on),
            capture_off: capture(&off),
            starve_on: starve(&on),
            starve_off: starve(&off),
            rows,
            note,
            events,
        })
    })
    .into_iter()
    .collect::<Result<Vec<AdvPoint>>>()?;

    let mut report = FigureReport::default();
    for point in &points {
        report.note(point.note.as_str());
        if let Some(events) = &point.events {
            report.files.push((EVENTS.to_string(), events.clone()));
        }
    }
    report.add_csv(
        CSV,
        &[
            "strategy",
            "fraction",
            "defense",
            "honest_capture",
            "starvation_rate",
            "adv_admitted_mean",
        ],
        points.iter().flat_map(|point| point.rows.iter().cloned()),
    );
    // Shape checks.
    report.check(
        "fraction-0 arms are exactly the honest reference (capture = 1, no starvation)",
        points.iter().filter(|p| p.fraction.abs() < 1e-9).all(|p| {
            (p.capture_on - 1.0).abs() < 1e-12
                && (p.capture_off - 1.0).abs() < 1e-12
                && p.starve_on.abs() < 1e-12
                && p.starve_off.abs() < 1e-12
        }),
    );
    report.check(
        "capture and starvation stay in sane ranges at every point",
        points.iter().all(|p| {
            p.capture_on.is_finite()
                && p.capture_off.is_finite()
                && (-0.5..=1.5).contains(&p.capture_on)
                && (-0.5..=1.5).contains(&p.capture_off)
                && (0.0..=1.0).contains(&p.starve_on)
                && (0.0..=1.0).contains(&p.starve_off)
        }),
    );
    let margin_at = |fraction: f64| {
        let at: Vec<_> = points
            .iter()
            .filter(|p| (p.fraction - fraction).abs() < 1e-9)
            .collect();
        let mean_on = at.iter().map(|p| p.capture_on).sum::<f64>() / at.len().max(1) as f64;
        let mean_off = at.iter().map(|p| p.capture_off).sum::<f64>() / at.len().max(1) as f64;
        mean_on - mean_off
    };
    let margin = margin_at(0.2);
    report.note(format!(
        "defense margin (mean capture on − off) at fraction 0.2: {margin:+.4}; \
         at 0.33: {:+.4}",
        margin_at(0.33)
    ));
    report.check(
        "defenses on beat defenses off on mean honest capture at fraction 0.2",
        margin > 0.0,
    );
    // The Starver aims honest committees below N_min; on balance the
    // defense must not starve *more* than no defense does. (Point-wise
    // comparison is too brittle at Quick scale, where one false-positive
    // flag flips a whole epoch.)
    let mean_starve = |pick: fn(&AdvPoint) -> f64| {
        points.iter().map(pick).sum::<f64>() / points.len().max(1) as f64
    };
    report.check(
        "defense does not increase mean starvation across the sweep",
        mean_starve(|p| p.starve_on) <= mean_starve(|p| p.starve_off) + 1e-9,
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
