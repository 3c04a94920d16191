//! The five-stage Elastico epoch runner.

use rand::Rng;
use serde::Serialize;

use mvcom_dataset::{Adversary, CommitteeReport, ShardSampler, Trace, TraceConfig};
use mvcom_obs::{Obs, Value};
use mvcom_pbft::runner::{PbftConfig, PbftRunner};
use mvcom_pbft::ConsensusResult;
use mvcom_simnet::{rng, LatencyModel, Network, NetworkConfig, SimRng};
use mvcom_types::{
    CommitteeId, EpochId, Error, Hash32, Result, ShardInfo, SimTime, TwoPhaseLatency,
};

use crate::formation::{CommitteeFormation, FormedCommittee, OverlayConfig};
use crate::pow::{run_lottery, PowConfig};
use crate::recovery::{RecoveryConfig, RobustnessReport};

/// Chooses which submitted shards the final committee admits — stage 4,
/// the one seam where the MVCom scheduler plugs in.
///
/// [`ElasticoSim::run_epoch_in`] asks it about the *reported* shards.
/// Under direct delivery it calls `select` once. Under chaos delivery
/// ([`crate::recovery`]) it calls `begin`, then per heartbeat round
/// `on_failure` for each committee declared dead and `advance`, then
/// `finish`; the provided verbs make that one `select` over the survivors.
/// Either way `settle` runs last, once the epoch is settled on the truth.
///
/// The default [`WaitForAll`] selector reproduces vanilla Elastico: the
/// final committee waits for every shard, so the slowest member committee
/// (the straggler of paper Fig. 1) gates the final consensus.
pub trait ShardSelector {
    /// Returns the committees whose shards join the final block.
    fn select(&mut self, shards: &[ShardInfo]) -> Vec<CommitteeId>;

    /// Builds the problem over the shards that survived submission; an
    /// error aborts the epoch.
    fn begin(&mut self, _shards: &[ShardInfo]) -> Result<()> {
        Ok(())
    }

    /// Runs `iterations` more solver steps between heartbeat rounds.
    fn advance(&mut self, _iterations: u64) {}

    /// Removes a committee declared failed from the solution space; an
    /// error aborts the epoch.
    fn on_failure(&mut self, _committee: CommitteeId) -> Result<()> {
        Ok(())
    }

    /// Returns the admitted committees, given the submitted shards minus
    /// detected failures, in submission order.
    fn finish(&mut self, survivors: &[ShardInfo]) -> Vec<CommitteeId> {
        self.select(survivors)
    }

    /// Sees the settled epoch: every committee's report (reported beside
    /// realized features) and the committees the final block admitted.
    fn settle(&mut self, _epoch: EpochId, _reports: &[CommitteeReport], _included: &[CommitteeId]) {
    }
}

/// Vanilla Elastico: admit every submitted shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct WaitForAll;

impl ShardSelector for WaitForAll {
    fn select(&mut self, shards: &[ShardInfo]) -> Vec<CommitteeId> {
        shards.iter().map(|s| s.committee()).collect()
    }
}

/// What an epoch runs against ([`ElasticoSim::run_epoch_in`]): who files
/// the formation-time reports and how shards reach the final committee.
/// The default is honest reports delivered directly.
#[derive(Clone, Copy, Default)]
pub struct EpochEnv<'a> {
    /// Strategic committees whose reports may lie; `None` files honest
    /// reports.
    pub adversary: Option<&'a dyn Adversary>,
    /// Shard submission over a chaos network watched by the heartbeat
    /// detector ([`crate::recovery`]); `None` hands the shards to the
    /// selector directly.
    pub recovery: Option<&'a RecoveryConfig>,
}

/// The most nodes an [`ElasticoConfig`] may run PoW with: the 2¹⁶
/// committees `committee_bits` allows, 16 nodes each. Stage 1 holds one
/// solution per node (≈ 50 MB at the cap), so the bound is checked before
/// anything is allocated.
pub const MAX_NODES: u32 = 1 << 20;

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticoConfig {
    /// Number of nodes running PoW at each epoch.
    pub n_nodes: u32,
    /// PoW lottery parameters (committee count = `2^committee_bits`).
    pub pow: PowConfig,
    /// Overlay-configuration cost model.
    pub overlay: OverlayConfig,
    /// Minimum surviving committee size (≥ 4 for PBFT).
    pub min_committee_size: u32,
    /// Intra-committee network model.
    pub net: NetworkConfig,
    /// Per-proposal verification delay inside PBFT — calibrated so the
    /// measured intra-committee consensus latency means ≈ 54.5 s (§VI-A).
    pub consensus_verify: LatencyModel,
    /// PBFT view timeout and overall deadline.
    pub view_timeout: SimTime,
    /// Hard per-consensus deadline.
    pub consensus_deadline: SimTime,
    /// Bytes per transaction, for block-transfer modelling.
    pub bytes_per_tx: usize,
    /// The transaction trace shards are sampled from.
    pub trace: TraceConfig,
}

impl ElasticoConfig {
    /// A small, fast configuration for unit tests: 60 nodes, 4 committees.
    pub fn small_test() -> ElasticoConfig {
        ElasticoConfig {
            n_nodes: 60,
            pow: PowConfig::paper(2),
            overlay: OverlayConfig::paper(),
            min_committee_size: 4,
            net: NetworkConfig::lan(64),
            // Calibrated so the measured three-phase consensus latency
            // (the 2f+1-th order statistic of the per-replica verification
            // delays, plus message rounds) has mean ≈ 54.5 s, matching the
            // paper's §VI-A parameterization.
            consensus_verify: LatencyModel::Exponential { mean_secs: 70.0 },
            view_timeout: SimTime::from_secs(600.0),
            consensus_deadline: SimTime::from_secs(7_200.0),
            bytes_per_tx: 250,
            trace: TraceConfig::tiny(200),
        }
    }

    /// A paper-scale configuration: `n_nodes` nodes grouped into
    /// committees of roughly `target_committee_size` members.
    pub fn with_nodes(n_nodes: u32, target_committee_size: u32) -> ElasticoConfig {
        let committees = (n_nodes / target_committee_size.max(4)).max(2);
        let bits = (committees as f64).log2().floor().max(1.0) as u32;
        ElasticoConfig {
            n_nodes,
            pow: PowConfig::paper(bits.min(16)),
            net: NetworkConfig::lan(n_nodes.max(64)),
            trace: TraceConfig::jan_2016(),
            ..ElasticoConfig::small_test()
        }
    }

    /// Validates all components.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        self.pow.validate()?;
        self.net.validate()?;
        self.trace.validate()?;
        if self.n_nodes < 8 {
            return Err(Error::invalid_config("n_nodes", "need at least 8 nodes"));
        }
        if self.n_nodes > MAX_NODES {
            return Err(Error::invalid_config(
                "n_nodes",
                format!("at most {MAX_NODES} nodes, got {}", self.n_nodes),
            ));
        }
        if self.min_committee_size < 4 {
            return Err(Error::invalid_config(
                "min_committee_size",
                "PBFT needs at least 4 members",
            ));
        }
        if self.bytes_per_tx == 0 {
            return Err(Error::invalid_config("bytes_per_tx", "must be positive"));
        }
        if self.view_timeout.as_secs() <= 0.0 || self.view_timeout.is_infinite() {
            return Err(Error::invalid_config(
                "view_timeout",
                format!("must be positive and finite, got {}", self.view_timeout),
            ));
        }
        if self.consensus_deadline.as_secs() <= 0.0 || self.consensus_deadline.is_infinite() {
            return Err(Error::invalid_config(
                "consensus_deadline",
                format!(
                    "must be positive and finite, got {}",
                    self.consensus_deadline
                ),
            ));
        }
        if self.view_timeout >= self.consensus_deadline {
            return Err(Error::invalid_config(
                "view_timeout",
                format!(
                    "view timeout {} must be strictly below the consensus deadline {} \
                     or no view change can ever complete",
                    self.view_timeout, self.consensus_deadline
                ),
            ));
        }
        Ok(())
    }
}

/// The final block assembled by the final committee (stage 4).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FinalBlock {
    /// The epoch this block closes.
    pub epoch: EpochId,
    /// Whether the final PBFT committed before its deadline.
    pub committed: bool,
    /// Digest of the admitted shard set.
    pub digest: Hash32,
    /// Total transactions across admitted shards.
    pub total_txs: u64,
    /// Latency of the final consensus itself.
    pub consensus_latency: SimTime,
    /// The admitted committees.
    pub included: Vec<CommitteeId>,
}

/// Everything one epoch produced.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EpochReport {
    /// Which epoch this is.
    pub epoch: EpochId,
    /// Stage 1–2 output: the formed committees.
    pub formed: Vec<FormedCommittee>,
    /// Stage 3 output: each surviving committee's shard with its measured
    /// two-phase latency (`ShardInfo` is exactly what MVCom consumes).
    pub shards: Vec<ShardInfo>,
    /// Raw PBFT results per committee (including failed runs).
    pub consensus: Vec<(CommitteeId, ConsensusResult)>,
    /// Stage 4 output.
    pub final_block: FinalBlock,
    /// Stage 5 output: the randomness seeding the next epoch's PoW.
    pub next_randomness: Hash32,
    /// Fault-tolerance telemetry, present when the epoch's shards reached
    /// the final committee over the chaos network ([`EpochEnv::recovery`]).
    /// `None` under direct delivery.
    pub robustness: Option<RobustnessReport>,
}

/// Output of epoch stages 1–3, handed to a stage-4 admission strategy.
#[derive(Debug, Clone)]
struct StageOutput {
    formed: Vec<FormedCommittee>,
    shards: Vec<ShardInfo>,
    consensus: Vec<(CommitteeId, ConsensusResult)>,
}

impl EpochReport {
    /// Convenience: the two-phase latency of the straggler (the largest
    /// `l_i`), i.e. when a wait-for-all final committee could start.
    pub fn straggler_latency(&self) -> SimTime {
        self.shards
            .iter()
            .map(|s| s.two_phase_latency())
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// Reusable per-epoch buffers: digest construction and admission indexing
/// allocate once per simulator instead of once per epoch/committee.
#[derive(Debug, Default)]
struct EpochScratch {
    /// Byte buffer behind every `Hash32::digest` input of the epoch.
    digest_bytes: Vec<u8>,
    /// Indices into the epoch's shard vector that the selector admitted.
    admitted: Vec<usize>,
}

/// The Elastico protocol simulator.
///
/// Owns the epoch counter and the evolving epoch randomness; each
/// [`ElasticoSim::run_epoch`] executes all five stages.
#[derive(Debug)]
pub struct ElasticoSim {
    config: ElasticoConfig,
    trace: Trace,
    rng: SimRng,
    epoch: EpochId,
    randomness: Hash32,
    obs: Obs,
    scratch: EpochScratch,
}

impl ElasticoSim {
    /// Builds the simulator, generating the transaction trace from the
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation.
    pub fn new(config: ElasticoConfig, seed: u64) -> Result<ElasticoSim> {
        config.validate()?;
        let mut master = rng::master(seed);
        let trace_rng_seed = master.gen::<u64>();
        let trace = Trace::generate(config.trace, trace_rng_seed);
        Ok(ElasticoSim {
            config,
            trace,
            rng: master,
            epoch: EpochId::GENESIS,
            randomness: Hash32::digest(b"elastico-genesis-randomness"),
            obs: Obs::off(),
            scratch: EpochScratch::default(),
        })
    }

    /// Attaches a telemetry handle: every subsequent epoch emits the
    /// `epoch_*`, `pow_done`, `formation_done`, `committee_consensus`,
    /// `final_block` and `pbft_*` events documented in OBSERVABILITY.md.
    /// Event timestamps are simulated seconds, relative to the epoch start.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> ElasticoSim {
        self.obs = obs;
        self
    }

    /// The attached telemetry handle (disabled unless
    /// [`ElasticoSim::with_obs`] was called).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The epoch the next `run_epoch` call will execute.
    pub fn current_epoch(&self) -> EpochId {
        self.epoch
    }

    /// The active configuration.
    pub fn config(&self) -> &ElasticoConfig {
        &self.config
    }

    /// Runs one epoch with the vanilla wait-for-all final committee, honest
    /// reports and direct delivery.
    ///
    /// # Errors
    ///
    /// See [`ElasticoSim::run_epoch_in`].
    pub fn run_epoch(&mut self) -> Result<EpochReport> {
        self.run_epoch_in(&mut WaitForAll, &EpochEnv::default())
            .map(|(report, _)| report)
    }

    /// Runs one epoch, delegating shard admission to `selector` (stage 4)
    /// in the environment `env`:
    ///
    /// 1. `env.recovery` is validated before stage 1;
    /// 2. stages 1–3 run;
    /// 3. every committee files a formation-time report: `env.adversary`
    ///    may lie ([`Adversary::act`], one `adversary_act` event per
    ///    adversarial committee on the epoch-index clock), otherwise each
    ///    report is [`CommitteeReport::honest`];
    /// 4. the selector schedules against the *reported* features, asked
    ///    directly (`select`) or, with `env.recovery`, over the chaos
    ///    network ([`crate::recovery`]), where submission is timed and
    ///    sized by the *realized* features;
    /// 5. stages 4–5 settle against the realized features (for a
    ///    [`mvcom_dataset::Freerider`] the realized latency itself is
    ///    inflated — the lie is the delay);
    /// 6. the selector is told the settled epoch ([`ShardSelector::settle`]).
    ///
    /// Returns the report and the per-committee reports, so callers can
    /// compare observed with reported behaviour. The adversary draws from
    /// its own seed, never from the simulator's RNG, so with an empty
    /// coalition (fraction 0) the epoch is bit-identical to an honest one.
    ///
    /// # Errors
    ///
    /// [`Error::Simulation`] when no committee survives formation, no
    /// shard survives submission, or the final committee cannot be seated;
    /// configuration errors from an invalid `env.recovery`. After an error
    /// the simulator's state (epoch, randomness, RNG position) is
    /// unspecified: build a new one rather than run it again.
    pub fn run_epoch_in<S: ShardSelector + ?Sized>(
        &mut self,
        selector: &mut S,
        env: &EpochEnv<'_>,
    ) -> Result<(EpochReport, Vec<CommitteeReport>)> {
        if let Some(recovery) = env.recovery {
            self.check_recovery(recovery)?;
        }
        let epoch = self.epoch;
        let mut stages = self.run_stages()?;
        let reports = match env.adversary {
            Some(adversary) => self.act(adversary, &stages.shards),
            None => stages
                .shards
                .iter()
                .copied()
                .map(CommitteeReport::honest)
                .collect(),
        };
        let reported: Vec<ShardInfo> = reports.iter().map(|r| r.reported).collect();
        // Settle the epoch on realized behaviour, not claims.
        stages.shards = reports.iter().map(|r| r.truth).collect();
        let (included, robustness) = match env.recovery {
            Some(recovery) => {
                let (included, robustness) =
                    self.deliver_over_chaos(selector, recovery, &stages.shards, &reported)?;
                (included, Some(robustness))
            }
            None => (selector.select(&reported), None),
        };
        let report = self.finish_epoch(stages, included, robustness)?;
        selector.settle(epoch, &reports, &report.final_block.included);
        Ok((report, reports))
    }

    /// Files this epoch's reports through `adversary`, emitting one
    /// `adversary_act` event per adversarial committee.
    fn act(&self, adversary: &dyn Adversary, shards: &[ShardInfo]) -> Vec<CommitteeReport> {
        let epoch = self.epoch.value();
        let reports = adversary.act(epoch, shards);
        for r in reports.iter().filter(|r| r.adversarial) {
            self.obs.emit(
                "adversary_act",
                epoch as f64,
                &[
                    ("committee", Value::U64(u64::from(r.committee().value()))),
                    ("epoch", Value::U64(epoch)),
                    ("strategy", Value::from(adversary.name())),
                    ("ds", Value::F64(r.ds())),
                    ("dl", Value::F64(r.dl())),
                ],
            );
        }
        reports
    }

    /// Stages 1–3 (lottery, formation, intra-committee consensus). The RNG
    /// fork order here is load-bearing: it is what makes a seed reproduce
    /// an epoch bit-for-bit.
    fn run_stages(&mut self) -> Result<StageOutput> {
        let epoch = self.epoch.value();
        self.obs.emit(
            "epoch_start",
            0.0,
            &[
                ("epoch", Value::U64(epoch)),
                ("nodes", Value::U64(u64::from(self.config.n_nodes))),
            ],
        );

        // Stage 1: PoW identity lottery.
        let mut stage_rng = rng::fork(&mut self.rng, "lottery");
        let solutions = run_lottery(
            &self.config.pow,
            self.config.n_nodes,
            self.randomness,
            &mut stage_rng,
        )?;
        // Solutions arrive sorted by solve time; the last one closes stage 1.
        let pow_done_at = solutions.last().map_or(SimTime::ZERO, |s| s.solved_at);
        self.obs.emit(
            "pow_done",
            pow_done_at.as_secs(),
            &[
                ("epoch", Value::U64(epoch)),
                ("solutions", Value::U64(solutions.len() as u64)),
            ],
        );

        // Stage 2: committee formation + overlay configuration.
        let formation =
            CommitteeFormation::new(self.config.overlay, self.config.min_committee_size);
        let mut form_rng = rng::fork(&mut self.rng, "formation");
        let formed = formation.form(
            &self.config.pow,
            &solutions,
            self.config.n_nodes,
            &mut form_rng,
        )?;
        if formed.is_empty() {
            return Err(Error::simulation(
                "no committee reached the minimum size this epoch",
            ));
        }
        let formation_done_at = formed
            .iter()
            .map(|c| c.formation_latency)
            .max()
            .unwrap_or(SimTime::ZERO);
        self.obs.emit(
            "formation_done",
            formation_done_at.as_secs(),
            &[
                ("epoch", Value::U64(epoch)),
                ("committees", Value::U64(formed.len() as u64)),
                // Stage 2 has one model, the parametric overlay cost; the
                // key stays so pinned streams hold.
                ("directory", Value::Bool(false)),
            ],
        );
        self.obs.add("epoch.committees_formed", formed.len() as u64);

        // Assign shard transaction counts from the trace.
        let sampler = ShardSampler::new(&self.trace);
        let mut sample_rng = rng::fork(&mut self.rng, "shards");
        let tx_counts = sampler.sample_tx_counts(formed.len(), &mut sample_rng)?;

        // Stage 3: intra-committee PBFT per committee. Committees run
        // concurrently in virtual time — each `l_i` is read off its own
        // simulated clock — so they run here one after another, in
        // committee order, which is also the RNG fork order.
        let mut shards = Vec::with_capacity(formed.len());
        let mut consensus = Vec::with_capacity(formed.len());
        for (committee, txs) in formed.iter().zip(&tx_counts) {
            self.scratch.digest_bytes.clear();
            self.scratch
                .digest_bytes
                .extend_from_slice(self.randomness.as_bytes());
            self.scratch
                .digest_bytes
                .extend_from_slice(&committee.id.value().to_le_bytes());
            self.scratch
                .digest_bytes
                .extend_from_slice(&txs.to_le_bytes());
            let digest = Hash32::digest(&self.scratch.digest_bytes);
            let label = format!("pbft-{}", committee.id);
            let result = self.run_pbft(committee.members.len() as u32, *txs, digest, &label)?;
            self.obs.emit(
                "committee_consensus",
                (committee.formation_latency + result.latency).as_secs(),
                &[
                    ("epoch", Value::U64(epoch)),
                    ("committee", Value::U64(u64::from(committee.id.value()))),
                    ("committed", Value::Bool(result.committed)),
                    ("latency", Value::F64(result.latency.as_secs())),
                    ("txs", Value::U64(*txs)),
                ],
            );
            consensus.push((committee.id, result));
            if result.committed {
                shards.push(ShardInfo::new(
                    committee.id,
                    *txs,
                    TwoPhaseLatency::new(committee.formation_latency, result.latency),
                ));
            }
        }
        if shards.is_empty() {
            return Err(Error::simulation("no committee reached intra-consensus"));
        }
        Ok(StageOutput {
            formed,
            shards,
            consensus,
        })
    }

    /// Stages 4–5: final consensus over the `included` shard set, then the
    /// epoch-randomness refresh. The final committee is the formed
    /// committee with the lowest id (Elastico designates a fixed final
    /// committee per epoch).
    fn finish_epoch(
        &mut self,
        stages: StageOutput,
        included: Vec<CommitteeId>,
        robustness: Option<RobustnessReport>,
    ) -> Result<EpochReport> {
        let StageOutput {
            formed,
            shards,
            consensus,
        } = stages;
        self.scratch.admitted.clear();
        self.scratch.admitted.extend(
            shards
                .iter()
                .enumerate()
                .filter(|(_, s)| included.contains(&s.committee()))
                .map(|(i, _)| i),
        );
        let total_txs: u64 = self
            .scratch
            .admitted
            .iter()
            .map(|&i| shards[i].tx_count())
            .sum();
        let admitted_count = self.scratch.admitted.len();
        let final_digest = {
            self.scratch.digest_bytes.clear();
            self.scratch
                .digest_bytes
                .extend_from_slice(self.randomness.as_bytes());
            for &i in &self.scratch.admitted {
                let s = &shards[i];
                self.scratch
                    .digest_bytes
                    .extend_from_slice(&s.committee().value().to_le_bytes());
                self.scratch
                    .digest_bytes
                    .extend_from_slice(&s.tx_count().to_le_bytes());
            }
            Hash32::digest(&self.scratch.digest_bytes)
        };
        let [final_committee, ..] = formed.as_slice() else {
            return Err(Error::simulation(
                "no committee reached the minimum size this epoch",
            ));
        };
        let final_committee_size = final_committee.members.len() as u32;
        let final_result =
            self.run_pbft(final_committee_size, total_txs, final_digest, "pbft-final")?;
        let epoch = self.epoch.value();
        self.obs.emit(
            "final_block",
            final_result.latency.as_secs(),
            &[
                ("epoch", Value::U64(epoch)),
                ("committed", Value::Bool(final_result.committed)),
                ("included", Value::U64(admitted_count as u64)),
                ("total_txs", Value::U64(total_txs)),
                ("latency", Value::F64(final_result.latency.as_secs())),
            ],
        );
        self.obs
            .observe("epoch.final_latency_s", final_result.latency.as_secs());
        self.obs.emit(
            "epoch_end",
            final_result.latency.as_secs(),
            &[
                ("epoch", Value::U64(epoch)),
                ("shards", Value::U64(shards.len() as u64)),
                ("admitted", Value::U64(admitted_count as u64)),
                ("committed", Value::Bool(final_result.committed)),
            ],
        );
        let final_block = FinalBlock {
            epoch: self.epoch,
            committed: final_result.committed,
            digest: final_digest,
            total_txs,
            consensus_latency: final_result.latency,
            included,
        };

        // Stage 5: refresh the epoch randomness.
        let next_randomness = {
            self.scratch.digest_bytes.clear();
            self.scratch
                .digest_bytes
                .extend_from_slice(self.randomness.as_bytes());
            self.scratch
                .digest_bytes
                .extend_from_slice(final_digest.as_bytes());
            self.scratch
                .digest_bytes
                .extend_from_slice(&self.epoch.value().to_le_bytes());
            Hash32::digest(&self.scratch.digest_bytes)
        };
        let report = EpochReport {
            epoch: self.epoch,
            formed,
            shards,
            consensus,
            final_block,
            next_randomness,
            robustness,
        };
        self.randomness = next_randomness;
        self.epoch = self.epoch.next();
        Ok(report)
    }

    /// Forks a labelled RNG stream off the simulator's master stream, for
    /// auxiliary networks (shard submission, chaos) owned by other modules.
    pub(crate) fn fork_rng(&mut self, label: &str) -> SimRng {
        rng::fork(&mut self.rng, label)
    }

    /// One PBFT run on its own network, both RNG streams forked off the
    /// master stream under `label` — the path every member committee and
    /// the final committee take.
    fn run_pbft(
        &mut self,
        n: u32,
        txs: u64,
        digest: Hash32,
        label: &str,
    ) -> Result<ConsensusResult> {
        let net_rng = rng::fork(&mut self.rng, &format!("{label}-net"));
        let run_rng = rng::fork(&mut self.rng, label);
        let mut pbft = PbftConfig::new(n.max(4))?;
        pbft.block_bytes = (txs as usize).saturating_mul(self.config.bytes_per_tx);
        pbft.verify_delay = self.config.consensus_verify;
        pbft.view_timeout = self.config.view_timeout;
        pbft.deadline = self.config.consensus_deadline;
        let net_config = NetworkConfig {
            nodes: n.max(4).max(self.config.net.nodes),
            ..self.config.net
        };
        let network = Network::new(net_config, net_rng)?;
        PbftRunner::new(pbft, network, run_rng)
            .with_obs(self.obs.clone(), label)
            .run(digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_produces_shards_and_final_block() {
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 1).unwrap();
        let report = sim.run_epoch().unwrap();
        assert_eq!(report.epoch, EpochId::GENESIS);
        assert!(!report.shards.is_empty());
        assert!(report.final_block.committed);
        assert_eq!(
            report.final_block.included.len(),
            report.shards.len(),
            "wait-for-all admits everything"
        );
        assert_eq!(
            report.final_block.total_txs,
            report.shards.iter().map(|s| s.tx_count()).sum::<u64>()
        );
        assert_eq!(sim.current_epoch(), EpochId(1));
    }

    #[test]
    fn epochs_chain_through_randomness() {
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 2).unwrap();
        let a = sim.run_epoch().unwrap();
        let b = sim.run_epoch().unwrap();
        assert_ne!(a.next_randomness, b.next_randomness);
        assert_eq!(b.epoch, EpochId(1));
        // Different randomness reshuffles committees: membership differs.
        let members_a: Vec<_> = a.formed.iter().map(|c| c.members.clone()).collect();
        let members_b: Vec<_> = b.formed.iter().map(|c| c.members.clone()).collect();
        assert_ne!(members_a, members_b);
    }

    /// What a `CommitteeId` names across epochs at fig2b's 600 nodes:
    /// committee-N's members are redrawn from the PoW digests every epoch,
    /// so consecutive epochs share about `1 / committees` of them — what
    /// chance gives. A reputation keyed by committee id therefore
    /// follows a slot, not a set of reporters.
    #[test]
    fn committee_ids_keep_almost_no_members_across_epochs() {
        let mut sim = ElasticoSim::new(ElasticoConfig::with_nodes(600, 12), 21_000).unwrap();
        let epochs: Vec<Vec<FormedCommittee>> =
            (0..4).map(|_| sim.run_epoch().unwrap().formed).collect();
        let (mut shared, mut members, mut max_share) = (0usize, 0usize, 0.0f64);
        for pair in epochs.windows(2) {
            for now in &pair[1] {
                let Some(before) = pair[0].iter().find(|c| c.id == now.id) else {
                    continue;
                };
                let kept = now
                    .members
                    .iter()
                    .filter(|m| before.members.contains(m))
                    .count();
                shared += kept;
                members += now.members.len();
                max_share = max_share.max(kept as f64 / now.members.len() as f64);
            }
        }
        // Measured: 60 of 1,800 member slots (3.3 %) over three epoch
        // transitions, against a chance share of 1/32; no committee kept
        // more than 3 of its 17 members (17.6 %).
        let chance = 1.0 / f64::from(sim.config().pow.committee_count());
        let mean_share = shared as f64 / members as f64;
        assert!(mean_share <= 2.0 * chance, "{shared} of {members} kept");
        assert!(max_share <= 0.25, "one committee kept {max_share:.2}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ElasticoSim::new(ElasticoConfig::small_test(), 7).unwrap();
        let mut b = ElasticoSim::new(ElasticoConfig::small_test(), 7).unwrap();
        assert_eq!(a.run_epoch().unwrap(), b.run_epoch().unwrap());
    }

    #[test]
    fn two_phase_latency_components_are_positive() {
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 3).unwrap();
        let report = sim.run_epoch().unwrap();
        for shard in &report.shards {
            assert!(shard.latency().formation().as_secs() > 0.0);
            assert!(shard.latency().consensus().as_secs() > 0.0);
            // Formation dominates consensus, as in Fig. 2(a).
            assert!(shard.latency().formation() > shard.latency().consensus());
        }
    }

    #[test]
    fn custom_selector_filters_the_final_block() {
        struct TakeOne;
        impl ShardSelector for TakeOne {
            fn select(&mut self, shards: &[ShardInfo]) -> Vec<CommitteeId> {
                vec![shards[0].committee()]
            }
        }
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 4).unwrap();
        let (report, _) = sim
            .run_epoch_in(&mut TakeOne, &EpochEnv::default())
            .unwrap();
        assert_eq!(report.final_block.included.len(), 1);
        assert!(report.final_block.total_txs < report.shards.iter().map(|s| s.tx_count()).sum());
    }

    #[test]
    fn straggler_latency_is_the_max() {
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 5).unwrap();
        let report = sim.run_epoch().unwrap();
        let max = report
            .shards
            .iter()
            .map(|s| s.two_phase_latency())
            .max()
            .unwrap();
        assert_eq!(report.straggler_latency(), max);
    }

    #[test]
    fn with_nodes_derives_committee_bits() {
        let config = ElasticoConfig::with_nodes(800, 100);
        assert_eq!(config.n_nodes, 800);
        assert_eq!(config.pow.committee_count(), 8);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn telemetry_covers_every_stage_and_is_deterministic() {
        let run = || {
            let (obs, buf) = Obs::memory(mvcom_obs::ObsLevel::Events);
            let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 11)
                .unwrap()
                .with_obs(obs.clone());
            let report = sim.run_epoch().unwrap();
            assert_eq!(obs.invalid_dropped(), 0);
            (report, buf.contents())
        };
        let (report_a, text_a) = run();
        let (report_b, text_b) = run();
        assert_eq!(report_a, report_b);
        assert_eq!(text_a, text_b, "same seed must replay byte-identically");
        for needle in [
            "\"kind\":\"epoch_start\"",
            "\"kind\":\"pow_done\"",
            "\"kind\":\"formation_done\"",
            "\"kind\":\"committee_consensus\"",
            "\"kind\":\"pbft_done\"",
            "\"label\":\"pbft-final\"",
            "\"kind\":\"final_block\"",
            "\"kind\":\"epoch_end\"",
        ] {
            assert!(text_a.contains(needle), "missing {needle}");
        }
        // Telemetry must not perturb the simulation itself.
        let mut silent = ElasticoSim::new(ElasticoConfig::small_test(), 11).unwrap();
        assert_eq!(silent.run_epoch().unwrap(), report_a);
    }

    #[test]
    fn empty_coalition_is_bit_identical_to_the_vanilla_runner() {
        use mvcom_dataset::{AdversaryConfig, Misreport};
        let mut vanilla = ElasticoSim::new(ElasticoConfig::small_test(), 31).unwrap();
        let baseline = vanilla.run_epoch().unwrap();
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 31).unwrap();
        let adversary = Misreport::new(AdversaryConfig::new(0.0, 99).unwrap());
        let env = EpochEnv {
            adversary: Some(&adversary),
            ..EpochEnv::default()
        };
        let (report, reports) = sim.run_epoch_in(&mut WaitForAll, &env).unwrap();
        assert_eq!(report, baseline);
        assert!(reports.iter().all(|r| !r.adversarial));
        assert!(reports.iter().all(|r| r.reported == r.truth));
    }

    #[test]
    fn adversarial_epoch_is_deterministic_and_settles_on_truth() {
        use mvcom_dataset::{AdversaryConfig, Misreport};
        let run = || {
            let (obs, buf) = Obs::memory(mvcom_obs::ObsLevel::Events);
            let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 32)
                .unwrap()
                .with_obs(obs);
            let adversary = Misreport::new(AdversaryConfig::new(0.5, 7).unwrap());
            let env = EpochEnv {
                adversary: Some(&adversary),
                ..EpochEnv::default()
            };
            let out = sim.run_epoch_in(&mut WaitForAll, &env).unwrap();
            (out, buf.contents())
        };
        let ((report_a, reports_a), text_a) = run();
        let ((report_b, reports_b), text_b) = run();
        assert_eq!(report_a, report_b);
        assert_eq!(reports_a, reports_b);
        assert_eq!(text_a, text_b);
        assert!(text_a.contains("\"kind\":\"adversary_act\""));
        assert!(text_a.contains("\"strategy\":\"misreport\""));
        // Stage 4 settles on realized transaction counts, not claims.
        let true_total: u64 = reports_a.iter().map(|r| r.truth.tx_count()).sum();
        let claimed_total: u64 = reports_a.iter().map(|r| r.reported.tx_count()).sum();
        assert_eq!(report_a.final_block.total_txs, true_total);
        assert!(claimed_total > true_total, "misreporters inflate claims");
    }

    /// The simulator's stream across commits: seed 17, two epochs, every
    /// event. The constants were captured at 795be95, where stage 3 fanned
    /// committees out across threads, and equal at one and four workers.
    #[test]
    fn two_epochs_reproduce_the_pinned_stream() {
        let fnv = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let (obs, buf) = Obs::memory(mvcom_obs::ObsLevel::Trace);
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 17)
            .unwrap()
            .with_obs(obs.clone());
        let reports: Vec<EpochReport> = (0..2).map(|_| sim.run_epoch().unwrap()).collect();
        assert_eq!(obs.invalid_dropped(), 0);
        let mut json = String::new();
        reports.write_json(&mut json);
        assert_eq!(fnv(buf.contents().as_bytes()), 0xbd17_7df8_333b_8a16);
        assert_eq!(obs.metrics().map(|m| m.counter("pbft.commits")), Some(10));
        assert_eq!(fnv(json.as_bytes()), 0xf752_93f6_1e63_a0bf);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut c = ElasticoConfig::small_test();
        c.n_nodes = 4;
        assert!(c.validate().is_err());
        let mut c = ElasticoConfig::small_test();
        c.min_committee_size = 3;
        assert!(c.validate().is_err());
        let mut c = ElasticoConfig::small_test();
        c.bytes_per_tx = 0;
        assert!(c.validate().is_err());
        let mut c = ElasticoConfig::small_test();
        c.n_nodes = MAX_NODES + 1;
        assert!(c.validate().unwrap_err().to_string().contains("n_nodes"));
        c.n_nodes = MAX_NODES;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_timeout_orderings() {
        // Vanishing or infinite timers.
        let mut c = ElasticoConfig::small_test();
        c.view_timeout = SimTime::ZERO;
        assert!(c.validate().is_err());
        let mut c = ElasticoConfig::small_test();
        c.view_timeout = SimTime::INFINITY;
        assert!(c.validate().is_err());
        let mut c = ElasticoConfig::small_test();
        c.consensus_deadline = SimTime::ZERO;
        assert!(c.validate().is_err());
        let mut c = ElasticoConfig::small_test();
        c.consensus_deadline = SimTime::INFINITY;
        assert!(c.validate().is_err());
        // A view timeout at or above the deadline means a single view
        // change already blows the deadline.
        let mut c = ElasticoConfig::small_test();
        c.view_timeout = c.consensus_deadline;
        assert!(c.validate().is_err());
        let mut c = ElasticoConfig::small_test();
        c.view_timeout = c.consensus_deadline + SimTime::from_secs(1.0);
        assert!(c.validate().is_err());
        // The error message names the offending relationship.
        let mut c = ElasticoConfig::small_test();
        c.view_timeout = c.consensus_deadline;
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("view_timeout"), "got: {msg}");
    }
}
