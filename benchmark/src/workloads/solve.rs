//! `solve-scale` and `solve-paper`: shards in memory → schedule out.
//!
//! The real operation is what `mvcom solve` does per instance —
//! `InstanceBuilder::build`, `SeEngine::new`, `run` — and the shadow
//! drives the same engine step by step with a span per phase; `finish`
//! requires the two outcomes (solution, utility, trajectory) to be equal.
//! Reference solvers run on every instance after the solve, both as part
//! of the workload (`solve-paper` is the only one that exercises
//! `mvcom-baselines`) and as the utility reference.

use std::collections::BTreeMap;

use mvcom_baselines::dp::DpConfig;
use mvcom_baselines::sa::SaConfig;
use mvcom_baselines::woa::WoaConfig;
use mvcom_baselines::{
    check_outcome, DpSolver, GreedySolver, SaSolver, Solver, SparseDpSolver, WoaSolver,
};
use mvcom_core::problem::{Instance, InstanceBuilder};
use mvcom_core::se::{SeConfig, SeEngine, SeOutcome};
use mvcom_dataset::{LatencyConfig, ShardStream, StreamConfig, Trace, TraceConfig};
use mvcom_types::ShardInfo;

use super::daemon::climb_stats;
use super::{
    utility_scale, Facts, ProbeTarget, Scale, Variant, Workload, SCALE_BUCKETS, SETUP_REPEATS,
};
use crate::inputs::world_seed;
use crate::span;
use crate::trace::{Kind, Tracer};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reference {
    SparseDp,
    Greedy,
    Sa,
    Woa,
    Dp,
}

impl Reference {
    fn span(self) -> &'static str {
        match self {
            Reference::SparseDp => "baselines.sparse_dp",
            Reference::Greedy => "baselines.greedy",
            Reference::Sa => "baselines.sa",
            Reference::Woa => "baselines.woa",
            Reference::Dp => "baselines.dp",
        }
    }
}

struct World {
    seed: u64,
    committees: usize,
    config: SeConfig,
}

/// What one solved instance left behind.
#[derive(Clone, Debug, PartialEq)]
struct Solved {
    outcome: SeOutcome,
    feasible: bool,
    scale: f64,
    admitted_txs: u64,
    chains: u64,
    /// `(utility, valid)` per reference solver, in `references` order.
    references: Vec<(f64, bool)>,
}

pub struct SolveWorkload {
    name: &'static str,
    worlds: Vec<World>,
    references: &'static [Reference],
    real: Option<Vec<Solved>>,
    shadow: Option<Vec<Solved>>,
    facts: Facts,
    probe_target: Option<ProbeTarget>,
}

impl SolveWorkload {
    pub fn new(name: &str, seed: u64, scale: Scale) -> Result<SolveWorkload, String> {
        // (sizes, iterations, chains per replica); `sizes` lists one
        // instance each, all with their own derived seed.
        let (name, sizes, iterations, max_chains, references): (_, &[usize], u64, usize, _) =
            match (name, scale) {
                // ~0.6 s of O(|I|) engine init + 500 × ~0.7 ms memory-bound
                // steps per instance.
                ("solve-scale", Scale::Full) => (
                    "solve-scale",
                    &[50_000, 50_000][..],
                    500,
                    4,
                    &[Reference::SparseDp, Reference::Greedy][..],
                ),
                ("solve-scale", Scale::Tiny) => (
                    "solve-scale",
                    &[3_000, 3_000][..],
                    20,
                    4,
                    &[Reference::SparseDp, Reference::Greedy][..],
                ),
                // The full chain family: ~|I|/2 chains × Γ = 10.
                (_, Scale::Full) => (
                    "solve-paper",
                    &[500, 1_000, 500, 1_000][..],
                    30,
                    usize::MAX,
                    &[
                        Reference::Sa,
                        Reference::Woa,
                        Reference::Dp,
                        Reference::SparseDp,
                        Reference::Greedy,
                    ][..],
                ),
                (_, Scale::Tiny) => (
                    "solve-paper",
                    &[40, 60][..],
                    20,
                    usize::MAX,
                    &[
                        Reference::Sa,
                        Reference::Woa,
                        Reference::Dp,
                        Reference::SparseDp,
                        Reference::Greedy,
                    ][..],
                ),
            };
        let worlds = sizes
            .iter()
            .enumerate()
            .map(|(w, &committees)| {
                let ws = world_seed(seed, name, w as u64);
                World {
                    seed: ws,
                    committees,
                    config: SeConfig {
                        gamma: 10,
                        max_iterations: iterations,
                        convergence_window: 0,
                        record_every: 1,
                        max_chains,
                        ..SeConfig::paper(ws)
                    },
                }
            })
            .collect();
        Ok(SolveWorkload {
            name,
            worlds,
            references,
            real: None,
            shadow: None,
            facts: Facts::default(),
            probe_target: None,
        })
    }

    /// One pass — shadow, or real on `threads` threads; the same op ids.
    fn pass(
        &mut self,
        tracer: &mut Tracer,
        shadow: bool,
        threads: usize,
    ) -> Result<Vec<Solved>, String> {
        let mut op = 0u32;
        let mut solved = Vec::with_capacity(self.worlds.len());
        for world in &self.worlds {
            let mut shards = Vec::new();
            for _ in 0..SETUP_REPEATS {
                tracer.begin(op, Kind::Setup);
                let streamed = stream_shards(tracer, world);
                tracer.end();
                shards = streamed?;
            }
            op += 1;
            let input = shards.clone();
            tracer.begin(op, Kind::Op);
            let result = if shadow {
                shadow_solve(tracer, world, input)
            } else {
                real_solve(world, input, threads)
            };
            tracer.end();
            op += 1;
            if !shadow {
                self.facts.attempted += 1;
            }
            let (instance, outcome, chains) = result?;
            let solve_op = op - 1;
            tracer.begin(op, Kind::Baseline);
            let references = run_references(tracer, self.references, &instance, &world.config);
            tracer.end();
            op += 1;
            let admitted_txs = outcome
                .best_solution
                .iter_selected()
                .map(|i| instance.shards()[i].tx_count())
                .sum();
            solved.push(Solved {
                feasible: instance.is_feasible(&outcome.best_solution),
                scale: utility_scale(&instance),
                admitted_txs,
                chains,
                references: references?,
                outcome,
            });
            if shadow && self.probe_target.is_none() {
                self.probe_target = Some(ProbeTarget {
                    instance,
                    config: world.config,
                    op: solve_op,
                    iterations: world.config.max_iterations,
                    chains,
                });
            }
        }
        Ok(solved)
    }
}

/// `Trace::generate` → `ShardStream`, as `mvcom solve` builds its input.
fn stream_shards(tracer: &mut Tracer, world: &World) -> Result<Vec<ShardInfo>, String> {
    let trace = span!(
        tracer,
        "dataset.trace_generate",
        Trace::generate(TraceConfig::jan_2016(), world.seed)
    );
    let stream_span = tracer.enter("dataset.stream");
    let mut stream = ShardStream::new(
        &trace,
        LatencyConfig::paper(),
        world.seed,
        StreamConfig {
            shards: world.committees,
            blocks_per_shard: 1,
        },
    )
    .map_err(|e| format!("shard stream: {e}"))?;
    let mut shards = Vec::with_capacity(world.committees);
    let mut chunk = Vec::new();
    while stream.next_chunk(&mut chunk, 4096) > 0 {
        shards.append(&mut chunk);
    }
    tracer.exit(stream_span);
    Ok(shards)
}

fn builder(world: &World, shards: Vec<ShardInfo>) -> InstanceBuilder {
    let n = world.committees;
    InstanceBuilder::new()
        .alpha(1.5)
        .capacity(1_000 * n as u64)
        .n_min(n / 2)
        .shards(shards)
}

fn real_solve(
    world: &World,
    shards: Vec<ShardInfo>,
    threads: usize,
) -> Result<(Instance, SeOutcome, u64), String> {
    let instance = builder(world, shards)
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let outcome = SeEngine::new(&instance, world.config)
        .map_err(|e| format!("SeEngine::new: {e}"))?
        .with_threads(threads)
        .run();
    Ok((instance, outcome, 0))
}

fn shadow_solve(
    tracer: &mut Tracer,
    world: &World,
    shards: Vec<ShardInfo>,
) -> Result<(Instance, SeOutcome, u64), String> {
    let instance = span!(tracer, "problem.build", builder(world, shards).build())
        .map_err(|e| format!("build: {e}"))?;
    let mut engine = span!(tracer, "se.new", SeEngine::new(&instance, world.config))
        .map_err(|e| format!("SeEngine::new: {e}"))?;
    span!(tracer, "se.steps", {
        while engine.iteration() < world.config.max_iterations && !engine.is_converged() {
            engine.step();
        }
    });
    let chains = engine.chain_utilities().len() as u64;
    let outcome = span!(tracer, "se.finish", engine.finish());
    Ok((instance, outcome, chains))
}

/// Runs each reference solver under its own span; iterative solvers get
/// the SE run's iteration budget (the Fig. 11 convention).
fn run_references(
    tracer: &mut Tracer,
    references: &[Reference],
    instance: &Instance,
    config: &SeConfig,
) -> Result<Vec<(f64, bool)>, String> {
    references
        .iter()
        .map(|&reference| {
            let id = tracer.enter(reference.span());
            let outcome = match reference {
                Reference::SparseDp => SparseDpSolver::new(DpConfig {
                    max_buckets: SCALE_BUCKETS,
                })
                .solve(instance),
                Reference::Greedy => GreedySolver::new().solve(instance),
                Reference::Dp => DpSolver::new(DpConfig::paper()).solve(instance),
                Reference::Sa => SaSolver::new(SaConfig {
                    iterations: config.max_iterations,
                    ..SaConfig::paper(config.seed)
                })
                .solve(instance),
                Reference::Woa => WoaSolver::new(WoaConfig {
                    iterations: config.max_iterations,
                    ..WoaConfig::paper(config.seed)
                })
                .solve(instance),
            };
            tracer.exit(id);
            let outcome = outcome.map_err(|e| format!("{}: {e}", reference.span()))?;
            Ok((
                outcome.best_utility,
                check_outcome(instance, &outcome).is_ok(),
            ))
        })
        .collect()
}

impl Workload for SolveWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn root_metrics(&self) -> (&'static str, &'static str) {
        ("solve.solve_us", "solve.glue_us")
    }

    fn real_pass(&mut self, tracer: &mut Tracer, variant: Variant) -> Result<(), String> {
        // The fan-out is byte-identical at any thread count, so a threaded
        // pass must reproduce the first pass's schedules like any other.
        let threads = match variant {
            Variant::Threaded => std::thread::available_parallelism()
                .map_or(1, |p| p.get())
                .min(4),
            Variant::Plain | Variant::ObsSummary => 1,
        };
        let pass = self.pass(tracer, false, threads)?;
        self.facts
            .keep_first(&mut self.real, pass, "pass's schedules");
        Ok(())
    }

    fn shadow_pass(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let pass = self.pass(tracer, true, 1)?;
        self.facts
            .keep_first(&mut self.shadow, pass, "shadow pass's schedules");
        Ok(())
    }

    /// `se.fanout_speedup`: plain and threaded passes alternate, so both
    /// solves are observed equally often under the same host states.
    fn extra_variant(&self) -> Option<Variant> {
        (self.name == "solve-scale").then_some(Variant::Threaded)
    }

    fn probe_target(&self) -> Option<&ProbeTarget> {
        self.probe_target.as_ref()
    }

    fn finish(&mut self) -> Facts {
        let mut facts = std::mem::take(&mut self.facts);
        let (Some(real), Some(shadow)) = (self.real.take(), self.shadow.take()) else {
            facts.fail("a real and a shadow pass are both required".to_string());
            return facts;
        };
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut add = |name: &'static str, value: f64| *totals.entry(name).or_insert(0.0) += value;
        for (w, ((got, mirrored), world)) in real.iter().zip(&shadow).zip(&self.worlds).enumerate()
        {
            if got.outcome != mirrored.outcome {
                facts.fail(format!(
                    "instance {w}: the stepped engine's outcome differs from SeEngine::run's"
                ));
            }
            if got.references != mirrored.references {
                facts.fail(format!("instance {w}: reference solvers did not repeat"));
            }
            if !got.feasible {
                facts.fail(format!("instance {w}: the SE schedule is infeasible"));
            }
            if let Some(bad) = got.references.iter().position(|&(_, valid)| !valid) {
                facts.fail(format!(
                    "instance {w}: {} returned an invalid solution",
                    self.references[bad].span()
                ));
            }
            let u_ref = got
                .references
                .iter()
                .map(|&(utility, _)| utility)
                .fold(f64::NEG_INFINITY, f64::max);
            facts.committees += world.committees as u64;
            facts.admitted_txs += got.admitted_txs;
            facts.utility_gap += u_ref - got.outcome.best_utility;
            facts.utility_scale += got.scale;
            let (to_best, improving) = climb_stats(&got.outcome);
            add("se.iterations", got.outcome.iterations as f64);
            add("se.iters_to_best", to_best as f64);
            add("se.improving_iters", improving as f64);
            add("se.chains", mirrored.chains as f64);
            add("dataset.shards", world.committees as f64);
        }
        totals.insert("se.fallbacks", 0.0);
        facts.counts = totals;
        facts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance_set(seed: u64) -> Vec<Vec<ShardInfo>> {
        let workload = SolveWorkload::new("solve-paper", seed, Scale::Tiny).unwrap();
        let mut tracer = Tracer::new();
        workload
            .worlds
            .iter()
            .map(|world| {
                tracer.begin(0, Kind::Setup);
                let shards = stream_shards(&mut tracer, world).unwrap();
                tracer.end();
                shards
            })
            .collect()
    }

    #[test]
    fn same_seed_same_instance_set_other_seed_other_set() {
        let a = instance_set(21);
        assert_eq!(a, instance_set(21));
        assert_ne!(a, instance_set(22));
        assert_eq!(a.iter().map(Vec::len).collect::<Vec<_>>(), [40, 60]);
        // Worlds of one run differ from each other too.
        assert_ne!(a[0][..40], a[1][..40]);
    }
}
