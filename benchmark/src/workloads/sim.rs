//! `epoch-sim`: `ElasticoSim::run_epoch` with the scheduler bypassed.
//!
//! The shadow restates `run_stages` + `finish_epoch` over the public
//! stage functions — `run_lottery`, `CommitteeFormation::form`,
//! `ShardSampler`, one `PbftRunner::run` per committee plus the final
//! one — forking the RNG streams in the simulator's order. `finish`
//! requires every shadow `EpochReport` to equal the simulator's, which it
//! can only do if every fork, digest and PBFT run matched.

use std::collections::BTreeMap;

use rand::Rng;

use mvcom_dataset::{ShardSampler, Trace};
use mvcom_elastico::epoch::{
    ElasticoConfig, ElasticoSim, EpochReport, FinalBlock, ShardSelector, WaitForAll,
};
use mvcom_elastico::formation::CommitteeFormation;
use mvcom_elastico::pow::run_lottery;
use mvcom_obs::Obs;
use mvcom_pbft::runner::{PbftConfig, PbftRunner};
use mvcom_pbft::ConsensusResult;
use mvcom_simnet::{rng, Network, NetworkConfig, SimRng};
use mvcom_types::{EpochId, Hash32, ShardInfo, TwoPhaseLatency};

use super::{Facts, Scale, Variant, Workload, SETUP_REPEATS};
use crate::inputs::world_seed;
use crate::probe::queue_ns_per_event;
use crate::span;
use crate::trace::{Kind, Tracer};

pub struct SimWorkload {
    config: ElasticoConfig,
    seeds: Vec<u64>,
    warmup: u32,
    measured: u32,
    real: Option<Vec<Vec<EpochReport>>>,
    shadow: Option<Vec<Vec<EpochReport>>>,
    facts: Facts,
}

impl SimWorkload {
    pub fn new(seed: u64, scale: Scale) -> SimWorkload {
        // 8 committees × ~100 replicas (+ the final consensus), ~20 ms an
        // epoch; 100 measured epochs a pass.
        let (config, worlds, warmup, measured) = match scale {
            Scale::Full => (ElasticoConfig::with_nodes(800, 100), 2, 2, 50),
            Scale::Tiny => (ElasticoConfig::with_nodes(96, 12), 2, 1, 2),
        };
        SimWorkload {
            config,
            seeds: (0..worlds)
                .map(|w| world_seed(seed, "epoch-sim", w))
                .collect(),
            warmup,
            measured,
            real: None,
            shadow: None,
            facts: Facts::default(),
        }
    }

    fn kind(&self, epoch: u32) -> Kind {
        if epoch < self.warmup {
            Kind::Warmup
        } else {
            Kind::Op
        }
    }

    /// One pass through the simulator (`shadow == false`) or its
    /// restatement; the same op ids either way.
    fn pass(&mut self, tracer: &mut Tracer, shadow: bool) -> Result<Vec<Vec<EpochReport>>, String> {
        let mut op = 0u32;
        let mut pass = Vec::with_capacity(self.seeds.len());
        for &seed in &self.seeds {
            let mut sim = None;
            for _ in 0..SETUP_REPEATS {
                tracer.begin(op, Kind::Setup);
                let built = if shadow {
                    ShadowSim::new(self.config.clone(), seed).map(AnySim::Shadow)
                } else {
                    ElasticoSim::new(self.config.clone(), seed)
                        .map(AnySim::Real)
                        .map_err(|e| format!("ElasticoSim::new: {e}"))
                };
                tracer.end();
                sim = Some(built?);
            }
            op += 1;
            let mut sim = sim.expect("SETUP_REPEATS >= 1");
            let mut reports = Vec::new();
            for e in 0..self.warmup + self.measured {
                tracer.begin(op, self.kind(e));
                let report = match &mut sim {
                    AnySim::Real(sim) => sim.run_epoch().map_err(|err| err.to_string()),
                    AnySim::Shadow(sim) => sim.run_epoch(tracer),
                };
                tracer.end();
                op += 1;
                if !shadow {
                    self.facts.attempted += 1;
                }
                reports.push(report.map_err(|err| format!("epoch {e}: {err}"))?);
            }
            pass.push(reports);
        }
        Ok(pass)
    }
}

/// The simulator, or its restatement.
enum AnySim {
    Real(ElasticoSim),
    Shadow(ShadowSim),
}

/// `ElasticoSim`, restated over the public stage functions.
struct ShadowSim {
    config: ElasticoConfig,
    trace: Trace,
    rng: SimRng,
    epoch: EpochId,
    randomness: Hash32,
}

impl ShadowSim {
    fn new(config: ElasticoConfig, seed: u64) -> Result<ShadowSim, String> {
        config.validate().map_err(|e| e.to_string())?;
        let mut master = rng::master(seed);
        let trace_seed = master.gen::<u64>();
        let trace = Trace::generate(config.trace, trace_seed);
        Ok(ShadowSim {
            config,
            trace,
            rng: master,
            epoch: EpochId::GENESIS,
            randomness: Hash32::digest(b"elastico-genesis-randomness"),
        })
    }

    /// `run_epoch` = `run_stages` → `WaitForAll::select` → `finish_epoch`.
    fn run_epoch(&mut self, tracer: &mut Tracer) -> Result<EpochReport, String> {
        // Stage 1: PoW identity lottery.
        let mut stage_rng = rng::fork(&mut self.rng, "lottery");
        let solutions = span!(
            tracer,
            "pow.lottery",
            run_lottery(
                &self.config.pow,
                self.config.n_nodes,
                self.randomness,
                &mut stage_rng
            )
        )
        .map_err(|e| e.to_string())?;
        // Stage 2: committee formation.
        let formation =
            CommitteeFormation::new(self.config.overlay, self.config.min_committee_size);
        let mut form_rng = rng::fork(&mut self.rng, "formation");
        let formed = span!(
            tracer,
            "formation.form",
            formation.form(
                &self.config.pow,
                &solutions,
                self.config.n_nodes,
                &mut form_rng
            )
        )
        .map_err(|e| e.to_string())?;
        if formed.is_empty() {
            return Err("no committee reached the minimum size".to_string());
        }
        let mut sample_rng = rng::fork(&mut self.rng, "shards");
        let tx_counts = span!(
            tracer,
            "dataset.sample_tx_counts",
            ShardSampler::new(&self.trace).sample_tx_counts(formed.len(), &mut sample_rng)
        )
        .map_err(|e| e.to_string())?;
        // Stage 3: intra-committee PBFT, forks and runs interleaved — the
        // streams are independent, so the draw order is what matters.
        let mut digest_bytes = Vec::new();
        let mut tasks = Vec::with_capacity(formed.len());
        for (committee, txs) in formed.iter().zip(&tx_counts) {
            digest_bytes.clear();
            digest_bytes.extend_from_slice(self.randomness.as_bytes());
            digest_bytes.extend_from_slice(&committee.id.value().to_le_bytes());
            digest_bytes.extend_from_slice(&txs.to_le_bytes());
            let digest = Hash32::digest(&digest_bytes);
            let label = format!("pbft-{}", committee.id);
            let net_rng = rng::fork(&mut self.rng, &format!("{label}-net"));
            let run_rng = rng::fork(&mut self.rng, &label);
            tasks.push((
                committee.members.len() as u32,
                *txs,
                digest,
                label,
                net_rng,
                run_rng,
            ));
        }
        let mut shards = Vec::with_capacity(formed.len());
        let mut consensus = Vec::with_capacity(formed.len());
        for (committee, (n, txs, digest, label, net_rng, run_rng)) in formed.iter().zip(tasks) {
            let id = tracer.enter("pbft.run");
            let result = self.execute_pbft(n, txs, digest, &label, net_rng, run_rng);
            tracer.exit(id);
            let result = result?;
            consensus.push((committee.id, result));
            if result.committed {
                shards.push(ShardInfo::new(
                    committee.id,
                    txs,
                    TwoPhaseLatency::new(committee.formation_latency, result.latency),
                ));
            }
        }
        if shards.is_empty() {
            return Err("no committee reached intra-consensus".to_string());
        }
        // Stage 4: admission and the final consensus.
        let included = span!(tracer, "selector.select", WaitForAll.select(&shards));
        let admitted: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter(|(_, s)| included.contains(&s.committee()))
            .map(|(i, _)| i)
            .collect();
        let total_txs: u64 = admitted.iter().map(|&i| shards[i].tx_count()).sum();
        digest_bytes.clear();
        digest_bytes.extend_from_slice(self.randomness.as_bytes());
        for &i in &admitted {
            digest_bytes.extend_from_slice(&shards[i].committee().value().to_le_bytes());
            digest_bytes.extend_from_slice(&shards[i].tx_count().to_le_bytes());
        }
        let final_digest = Hash32::digest(&digest_bytes);
        let final_size = formed[0].members.len() as u32;
        let net_rng = rng::fork(&mut self.rng, "pbft-final-net");
        let run_rng = rng::fork(&mut self.rng, "pbft-final");
        let final_result = span!(
            tracer,
            "pbft.final",
            self.execute_pbft(
                final_size,
                total_txs,
                final_digest,
                "pbft-final",
                net_rng,
                run_rng
            )
        )?;
        let final_block = FinalBlock {
            epoch: self.epoch,
            committed: final_result.committed,
            digest: final_digest,
            total_txs,
            consensus_latency: final_result.latency,
            included,
        };
        // Stage 5: refresh the epoch randomness.
        digest_bytes.clear();
        digest_bytes.extend_from_slice(self.randomness.as_bytes());
        digest_bytes.extend_from_slice(final_digest.as_bytes());
        digest_bytes.extend_from_slice(&self.epoch.value().to_le_bytes());
        let next_randomness = Hash32::digest(&digest_bytes);
        let report = EpochReport {
            epoch: self.epoch,
            formed,
            shards,
            consensus,
            final_block,
            next_randomness,
            robustness: None,
        };
        self.randomness = next_randomness;
        self.epoch = self.epoch.next();
        Ok(report)
    }

    /// The simulator's `execute_pbft`, both RNG streams already forked.
    fn execute_pbft(
        &self,
        n: u32,
        txs: u64,
        digest: Hash32,
        label: &str,
        net_rng: SimRng,
        run_rng: SimRng,
    ) -> Result<ConsensusResult, String> {
        let run = || -> Result<ConsensusResult, mvcom_types::Error> {
            let mut pbft = PbftConfig::new(n.max(4))?;
            pbft.block_bytes = (txs as usize).saturating_mul(self.config.bytes_per_tx);
            pbft.verify_delay = self.config.consensus_verify;
            pbft.view_timeout = self.config.view_timeout;
            pbft.deadline = self.config.consensus_deadline;
            let network = Network::new(
                NetworkConfig {
                    nodes: n.max(4).max(self.config.net.nodes),
                    ..self.config.net
                },
                net_rng,
            )?;
            PbftRunner::new(pbft, network, run_rng)
                .with_obs(Obs::off(), label)
                .run(digest)
        };
        run().map_err(|e| format!("{label}: {e}"))
    }
}

impl Workload for SimWorkload {
    fn name(&self) -> &'static str {
        "epoch-sim"
    }

    fn root_metrics(&self) -> (&'static str, &'static str) {
        ("elastico.run_epoch_us", "elastico.glue_us")
    }

    fn real_pass(&mut self, tracer: &mut Tracer, _variant: Variant) -> Result<(), String> {
        let pass = self.pass(tracer, false)?;
        self.facts
            .keep_first(&mut self.real, pass, "pass's epoch reports");
        Ok(())
    }

    fn shadow_pass(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let pass = self.pass(tracer, true)?;
        self.facts
            .keep_first(&mut self.shadow, pass, "shadow pass's epoch reports");
        Ok(())
    }

    fn probes(&mut self, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
        // `EventQueue` replayed at one PBFT instance's delivered-message
        // count (every delivery is one push and one pop).
        let events = self
            .real
            .as_ref()
            .and_then(|worlds| worlds.first())
            .and_then(|reports| reports.last())
            .and_then(|report| report.consensus.first())
            .map_or(0, |(_, result)| result.messages_delivered as usize);
        out.insert("simnet.queue_ns_per_event", queue_ns_per_event(events));
        Ok(())
    }

    fn finish(&mut self) -> Facts {
        let mut facts = std::mem::take(&mut self.facts);
        let (Some(real), Some(shadow)) = (self.real.take(), self.shadow.take()) else {
            facts.fail("a real and a shadow pass are both required".to_string());
            return facts;
        };
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut add = |name: &'static str, value: f64| *totals.entry(name).or_insert(0.0) += value;
        let (mut reached, mut formed_total) = (0u64, 0u64);
        for (w, (reports, mirrored)) in real.iter().zip(&shadow).enumerate() {
            for (e, (report, mirror)) in reports.iter().zip(mirrored).enumerate() {
                if report != mirror {
                    facts.fail(format!(
                        "world {w} epoch {e}: the shadow's epoch report differs from the simulator's"
                    ));
                }
                if !report.final_block.committed {
                    facts.fail(format!(
                        "world {w} epoch {e}: the final block did not commit"
                    ));
                }
                if e < self.warmup as usize {
                    continue;
                }
                let committed = report.consensus.iter().filter(|(_, r)| r.committed).count();
                facts.committees += report.consensus.len() as u64;
                facts.admitted_txs += report.final_block.total_txs;
                formed_total += report.formed.len() as u64;
                if report.final_block.committed {
                    reached += report.final_block.included.len() as u64;
                }
                add(
                    "pbft.messages_delivered",
                    report
                        .consensus
                        .iter()
                        .map(|(_, r)| r.messages_delivered as f64)
                        .sum(),
                );
                add(
                    "pbft.view_changes",
                    report
                        .consensus
                        .iter()
                        .map(|(_, r)| r.final_view as f64)
                        .sum(),
                );
                add(
                    "pbft.uncommitted",
                    (report.consensus.len() - committed) as f64
                        + f64::from(u8::from(!report.final_block.committed)),
                );
            }
        }
        // No scheduler runs here: quality is the share of formed
        // committees whose shard reached a committed final block.
        facts.utility_scale = formed_total as f64;
        facts.utility_gap = (formed_total - reached) as f64;
        facts.counts = totals;
        facts
    }
}
