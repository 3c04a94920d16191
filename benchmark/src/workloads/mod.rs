//! The five workloads. Each one knows how to drive a *pass* — a fixed,
//! seed-derived sequence of operations — two ways: through the program as
//! a user would run it (`real_pass`), and through the layers' public
//! functions in the order the program calls them (`shadow_pass`), with a
//! span around each call. The shadow is trusted only because `finish`
//! checks its outputs against the real program's on every operation.

use std::collections::BTreeMap;
use std::path::Path;

use mvcom_baselines::dp::DpConfig;
use mvcom_baselines::{GreedySolver, Solver, SparseDpSolver};
use mvcom_core::problem::Instance;
use mvcom_core::se::SeConfig;

use crate::trace::Tracer;

pub mod daemon;
pub mod sim;
pub mod solve;

/// How many times a pass repeats each world's set-up (the contract asks
/// for several set-ups per run and their median; they take 0.05–3 ms
/// here).
pub const SETUP_REPEATS: usize = 10;

/// Full-size workloads, or the seconds-long smoke shapes the tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Only the tests build this one.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Which flavour of real pass to drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// As the end-to-end numbers are taken: telemetry off.
    Plain,
    /// `Obs` at summary level into a memory sink (telemetry-cost probe).
    ObsSummary,
    /// The SE replica fan-out on `min(nproc, 4)` threads.
    Threaded,
}

impl Variant {
    /// The per-layer metric a variant's passes fill, from the measured
    /// operations' total time in the plain passes and in its own.
    pub fn metric(self, plain_s: f64, variant_s: f64) -> (&'static str, f64) {
        match self {
            Variant::Plain => unreachable!("the plain passes are the base"),
            Variant::ObsSummary => (
                "obs.summary_overhead_pct",
                100.0 * (variant_s / plain_s - 1.0),
            ),
            Variant::Threaded => ("se.fanout_speedup", plain_s / variant_s),
        }
    }
}

/// What the passes of one run add up to.
#[derive(Debug, Default)]
pub struct Facts {
    /// Operations the real program ran (all passes): epoch closes and
    /// resumes, solves, simulated epochs.
    pub attempted: u64,
    /// Operations that failed, plus output checks that did.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// Committees handled by the measured operations of one pass.
    pub committees: u64,
    /// Transactions admitted by the measured operations of one pass.
    pub admitted_txs: u64,
    /// Σ (U_ref − U_got) over one pass.
    pub utility_gap: f64,
    /// Σ α · offered transactions over one pass (the objective's scale).
    pub utility_scale: f64,
    /// Exact per-layer values (counts, bytes, ratios of counts).
    pub counts: BTreeMap<&'static str, f64>,
}

impl Facts {
    /// Counts a failure; a message repeated by later passes is logged once.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if !self.failures.contains(&message) {
            self.failures.push(message);
        }
    }

    /// Keeps the first pass's outputs; a later pass must reproduce them
    /// exactly (the program is deterministic) or the run fails.
    pub fn keep_first<T: PartialEq>(&mut self, first: &mut Option<T>, pass: T, what: &str) {
        match first {
            None => *first = Some(pass),
            Some(held) if *held != pass => {
                self.fail(format!("a later {what} differs from the first"))
            }
            Some(_) => {}
        }
    }

    /// `100 · (1 − gap ÷ scale)`: the share of the objective's scale the
    /// program's schedules reach relative to the reference's.
    pub fn quality_pct(&self) -> f64 {
        if self.utility_scale > 0.0 {
            100.0 * (1.0 - self.utility_gap / self.utility_scale)
        } else {
            0.0
        }
    }
}

/// One scheduled operation of the shadow pass, kept so the SE inner loop
/// can be replayed on its instance and set against its own step time.
pub struct ProbeTarget {
    pub instance: Instance,
    pub config: SeConfig,
    /// The operation's id within a pass.
    pub op: u32,
    /// SE iterations and chains (all replicas) of that operation.
    pub iterations: u64,
    pub chains: u64,
}

pub trait Workload {
    fn name(&self) -> &'static str;

    /// Names of the per-layer metrics holding the mean measured-operation
    /// time and its unattributed (self) part.
    fn root_metrics(&self) -> (&'static str, &'static str);

    /// Drives one pass of the real program, a root span per operation.
    fn real_pass(&mut self, tracer: &mut Tracer, variant: Variant) -> Result<(), String>;

    /// Re-drives the same pass through the layers' public functions.
    fn shadow_pass(&mut self, tracer: &mut Tracer) -> Result<(), String>;

    /// A second flavour of real pass that a traced run alternates with the
    /// plain ones, so both see the same number of observations.
    fn extra_variant(&self) -> Option<Variant> {
        None
    }

    /// The operation whose instance the SE probe replays, if SE runs.
    fn probe_target(&self) -> Option<&ProbeTarget> {
        None
    }

    /// Other per-layer measurements a traced run takes once, after its
    /// passes, as measured.
    fn probes(&mut self, _out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
        Ok(())
    }

    /// Runs the output checks and hands over the run's facts.
    fn finish(&mut self) -> Facts;
}

/// Builds a workload by name; renders its inputs from `seed`.
pub fn build(name: &str, seed: u64, scale: Scale, tmp: &Path) -> Result<Box<dyn Workload>, String> {
    match name {
        "daemon-steady" | "daemon-firehose" => Ok(Box::new(daemon::DaemonWorkload::new(
            name, seed, scale, tmp,
        )?)),
        "solve-scale" | "solve-paper" => {
            Ok(Box::new(solve::SolveWorkload::new(name, seed, scale)?))
        }
        "epoch-sim" => Ok(Box::new(sim::SimWorkload::new(seed, scale))),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Sparse-DP bucket budget at scale (as `experiments::fig_scale` uses).
pub const SCALE_BUCKETS: usize = 4_096;

/// The cheap reference every scheduling workload can afford on every
/// instance: the better of greedy and the sparse DP.
pub fn cheap_reference(instance: &Instance) -> Result<f64, String> {
    let greedy = GreedySolver::new()
        .solve(instance)
        .map_err(|e| format!("greedy reference: {e}"))?;
    let sparse = SparseDpSolver::new(DpConfig {
        max_buckets: SCALE_BUCKETS,
    })
    .solve(instance)
    .map_err(|e| format!("sparse-DP reference: {e}"))?;
    Ok(greedy.best_utility.max(sparse.best_utility))
}

/// `α · Σ s_i`: the throughput term of the objective with everything
/// admitted — positive and steady where `|U|` itself can sit near zero.
pub fn utility_scale(instance: &Instance) -> f64 {
    instance.alpha() * instance.total_txs() as f64
}
