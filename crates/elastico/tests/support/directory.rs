//! Message-level overlay configuration (Elastico stage 2), as test
//! support.
//!
//! The simulator's stage 2 is the parametric
//! [`OverlayConfig`](mvcom_elastico::formation::OverlayConfig) cost model.
//! This module simulates the mechanism it stands for with real messages,
//! so the tests beside it can hold the parametric model to the protocol:
//!
//! 1. the first `directory_size` PoW solvers form the *directory*;
//! 2. every later solver **announces** its identity to all directory
//!    members the moment it solves;
//! 3. each directory member **verifies** every announced identity
//!    (`verify_secs_per_identity` each — the linear-in-`n` term measured
//!    in paper Fig. 2(a));
//! 4. once a committee's full membership is known and verified, the
//!    directory **multicasts the roster** to that committee's members;
//!    the committee's overlay completes when its last member receives the
//!    roster.

use std::collections::BTreeMap;

use mvcom_elastico::formation::FormedCommittee;
use mvcom_elastico::pow::PowSolution;
use mvcom_simnet::Network;
use mvcom_types::{CommitteeId, Error, NodeId, Result, SimTime};

/// Parameters of the directory protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectoryConfig {
    /// How many of the earliest solvers serve as the directory.
    pub directory_size: u32,
    /// Per-identity verification cost at each directory member, seconds —
    /// every member processes all `n` announcements, which is what makes
    /// formation latency linear in the network size.
    pub verify_secs_per_identity: f64,
    /// Announcement message size, bytes.
    pub announce_bytes: usize,
    /// Roster size per listed member, bytes.
    pub roster_bytes_per_member: usize,
}

impl DirectoryConfig {
    /// Defaults calibrated to the same Fig. 2(a) proportions as the
    /// parametric overlay model (~3 s of processing per network node).
    pub fn paper() -> DirectoryConfig {
        DirectoryConfig {
            directory_size: 8,
            verify_secs_per_identity: 3.0,
            announce_bytes: 128,
            roster_bytes_per_member: 64,
        }
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        if self.directory_size == 0 {
            return Err(Error::invalid_config("directory_size", "must be positive"));
        }
        if !(self.verify_secs_per_identity.is_finite() && self.verify_secs_per_identity >= 0.0) {
            return Err(Error::invalid_config(
                "verify_secs_per_identity",
                "must be finite and non-negative",
            ));
        }
        Ok(())
    }
}

/// Runs the directory protocol and returns each committee with its
/// formation latency replaced by the *measured* overlay completion time.
///
/// `solutions` must be the full lottery output (sorted by solve time, as
/// [`run_lottery`](mvcom_elastico::pow::run_lottery) returns it); `committees` the
/// formation output whose latencies are to be re-derived.
///
/// # Errors
///
/// Propagates configuration validation; [`Error::Simulation`] when the
/// lottery produced fewer solvers than the directory needs.
pub fn configure_overlay(
    config: &DirectoryConfig,
    solutions: &[PowSolution],
    committees: &[FormedCommittee],
    network: &mut Network,
) -> Result<Vec<FormedCommittee>> {
    config.validate()?;
    // `validate` made the directory non-empty, so the only way to miss
    // the pattern is too few solvers.
    let Some(seats @ [first_seated, ..]) = solutions.get(..config.directory_size as usize) else {
        return Err(Error::simulation(format!(
            "{} solvers cannot seat a directory of {}",
            solutions.len(),
            config.directory_size
        )));
    };
    let directory: Vec<NodeId> = seats.iter().map(|s| s.node).collect();
    let directory_seated_at = solutions[config.directory_size as usize - 1].solved_at;

    // Step 2: announcements. Track, per directory member, when it has
    // received every announcement (directory members announce locally).
    // Ordered maps keep roster assembly iteration seed-stable (DESIGN.md §7).
    let mut heard_all: BTreeMap<NodeId, SimTime> = directory
        .iter()
        .map(|&d| (d, directory_seated_at))
        .collect();
    // And per (directory member, committee): when the member knows that
    // committee's full roster.
    let mut roster_known: BTreeMap<(NodeId, CommitteeId), SimTime> = BTreeMap::new();
    for committee in committees {
        for &d in &directory {
            roster_known.insert((d, committee.id), directory_seated_at);
        }
    }
    for sol in solutions {
        let announce_at = sol.solved_at.max(directory_seated_at);
        for &d in &directory {
            let arrival = if sol.node == d {
                announce_at
            } else {
                match network.send(sol.node, d, config.announce_bytes, announce_at) {
                    Some(t) => t,
                    None => continue, // unreachable directory member
                }
            };
            let slot = heard_all.entry(d).or_insert(arrival);
            *slot = (*slot).max(arrival);
            if let Some(t) = roster_known.get_mut(&(d, sol.committee)) {
                *t = (*t).max(arrival);
            }
        }
    }

    // Step 3: verification — each directory member serially verifies all
    // n identities after hearing them.
    let verification = SimTime::from_secs(config.verify_secs_per_identity * solutions.len() as f64);

    // Step 4: roster multicast per committee from the first directory
    // member; overlay completes at the last member's arrival.
    let announcer = first_seated.node;
    let mut configured = Vec::with_capacity(committees.len());
    for committee in committees {
        let roster_ready = roster_known
            .get(&(announcer, committee.id))
            .copied()
            .unwrap_or(directory_seated_at)
            + verification;
        let roster_bytes = config.roster_bytes_per_member * committee.members.len();
        let mut overlay_done = roster_ready;
        for &member in &committee.members {
            if member == announcer {
                continue;
            }
            if let Some(arrival) = network.send(announcer, member, roster_bytes, roster_ready) {
                overlay_done = overlay_done.max(arrival);
            }
        }
        configured.push(FormedCommittee {
            id: committee.id,
            members: committee.members.clone(),
            pow_completed_at: committee.pow_completed_at,
            formation_latency: overlay_done.max(committee.pow_completed_at),
        });
    }
    Ok(configured)
}
