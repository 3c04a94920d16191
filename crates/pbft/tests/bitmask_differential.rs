//! Differential test: the bitmask [`Replica`] must agree with the frozen
//! hash-map [`ReferenceReplica`] message-for-message.
//!
//! Both machines are driven through identical randomized schedules —
//! proposals, deliveries (including duplicated, reordered, and stale-view
//! messages), timeouts, and forged votes — and after *every* step the
//! emitted outbound messages and the observable state (view, committed
//! digest) must be equal across all replicas. Schedules cover silent and
//! equivocating leaders (so view changes actually fire) and a committee of
//! `n = 130 > 128` to exercise the `VoterMask::Large` word-vector
//! fallback.
//!
//! Forged senders stay inside `0..n`: out-of-range indices are the one
//! *intentional* divergence (the fast path drops them, the reference
//! counted them as voters — see `replica.rs` docs).

#[expect(
    dead_code,
    reason = "the frozen reference exposes the whole pre-optimization replica API; this suite only drives part of it"
)]
#[path = "support/reference.rs"]
mod reference;

use mvcom_pbft::replica::{Behavior, Outbound, Replica, Target};
use mvcom_pbft::{Message, MessageKind};
use mvcom_types::Hash32;
use reference::ReferenceReplica;

/// Tiny deterministic generator (splitmix-style) so the test needs no RNG
/// dependency and every failure is reproducible from the seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The two machines under lockstep comparison.
struct Pair {
    fast: Vec<Replica>,
    reference: Vec<ReferenceReplica>,
}

impl Pair {
    fn new(n: u32, behaviors: &[(u32, Behavior)]) -> Pair {
        let behavior_of = |i: u32| {
            behaviors
                .iter()
                .find(|(idx, _)| *idx == i)
                .map(|(_, b)| *b)
                .unwrap_or(Behavior::Honest)
        };
        Pair {
            fast: (0..n).map(|i| Replica::new(i, n, behavior_of(i))).collect(),
            reference: (0..n)
                .map(|i| ReferenceReplica::new(i, n, behavior_of(i)))
                .collect(),
        }
    }

    /// Applies one action to both machines and asserts identical output.
    fn step(&mut self, who: usize, action: &Action, ctx: &str) -> Vec<Outbound> {
        let mut out_fast = Vec::new();
        let out_ref = match *action {
            Action::Propose(digest) => {
                self.fast[who].propose_into(digest, &mut out_fast);
                self.reference[who].propose(digest)
            }
            Action::Timeout => {
                self.fast[who].on_timeout_into(&mut out_fast);
                self.reference[who].on_timeout()
            }
            Action::Deliver(msg) => {
                self.fast[who].on_message_into(msg, &mut out_fast);
                self.reference[who].on_message(msg)
            }
        };
        assert_eq!(out_fast, out_ref, "outputs diverged at {ctx}");
        out_fast
    }

    fn assert_state_equal(&self, ctx: &str) {
        for (fast, reference) in self.fast.iter().zip(&self.reference) {
            assert_eq!(fast.view(), reference.view(), "view diverged at {ctx}");
            assert_eq!(
                fast.committed(),
                reference.committed(),
                "committed diverged at {ctx}"
            );
        }
    }
}

#[derive(Clone, Copy)]
enum Action {
    Propose(Hash32),
    Timeout,
    Deliver(Message),
}

/// Queues machine output as per-recipient deliveries: a broadcast becomes
/// one pending message per replica, so random schedules can actually
/// assemble quorums (while still dropping/duplicating/reordering freely).
fn enqueue(pool: &mut Vec<Outbound>, out: Vec<Outbound>, n: u32) {
    for ob in out {
        match ob.target {
            Target::One(_) => pool.push(ob),
            Target::All => pool.extend((0..n).map(|to| Outbound {
                target: Target::One(to),
                message: ob.message,
            })),
        }
    }
}

fn digests() -> [Hash32; 3] {
    [
        Hash32::digest(b"block-a"),
        Hash32::digest(b"block-b"),
        Hash32::digest(b"block-c"),
    ]
}

/// Runs one randomized schedule and returns how many replicas committed
/// (so callers can assert the schedule was not vacuous).
fn run_schedule(n: u32, behaviors: &[(u32, Behavior)], steps: usize, seed: u64) -> usize {
    let mut rng = Lcg(seed);
    let mut pair = Pair::new(n, behaviors);
    let digests = digests();
    // Pending (target, message) pairs produced by the machines themselves.
    let mut pool: Vec<Outbound> = Vec::new();

    // Kick off with the view-0 leader proposing.
    let initial = pair.step(0, &Action::Propose(digests[0]), "initial propose");
    enqueue(&mut pool, initial, n);

    for step in 0..steps {
        let ctx = format!("n={n} seed={seed} step={step}");
        let roll = rng.below(100);
        let action = if roll < 60 && !pool.is_empty() {
            // Deliver a pending protocol message (random order, and *not*
            // removed ~1/4 of the time, so duplicates arrive too).
            let pick = rng.below(pool.len() as u64) as usize;
            let ob = if rng.below(4) == 0 {
                pool[pick]
            } else {
                pool.swap_remove(pick)
            };
            let to = match ob.target {
                Target::One(to) => to,
                Target::All => rng.below(u64::from(n)) as u32,
            };
            let out = pair.step(to as usize, &Action::Deliver(ob.message), &ctx);
            enqueue(&mut pool, out, n);
            pair.assert_state_equal(&ctx);
            continue;
        } else if roll < 75 {
            Action::Timeout
        } else if roll < 85 {
            Action::Propose(digests[rng.below(3) as usize])
        } else {
            // Forged / stray message: random kind, nearby view, in-range
            // sender (out-of-range is the documented hardening divergence).
            let kind = match rng.below(5) {
                0 => MessageKind::PrePrepare,
                1 => MessageKind::Prepare,
                2 => MessageKind::Commit,
                3 => MessageKind::ViewChange,
                _ => MessageKind::NewView,
            };
            Action::Deliver(Message {
                kind,
                view: rng.below(4),
                digest: digests[rng.below(3) as usize],
                from: rng.below(u64::from(n)) as u32,
            })
        };
        let who = rng.below(u64::from(n)) as usize;
        let out = pair.step(who, &action, &ctx);
        enqueue(&mut pool, out, n);
        pair.assert_state_equal(&ctx);
        // Cap the pool so broadcast-heavy schedules stay bounded.
        if pool.len() > 4_096 {
            pool.truncate(4_096);
        }
    }
    pair.fast.iter().filter(|r| r.committed().is_some()).count()
}

#[test]
fn honest_schedules_agree_and_commit() {
    let mut committed_somewhere = false;
    for seed in 0..20 {
        let committed = run_schedule(4, &[], 600, seed);
        committed_somewhere |= committed > 0;
    }
    assert!(
        committed_somewhere,
        "no schedule reached a commit — the test is vacuous"
    );
}

#[test]
fn larger_committee_schedules_agree() {
    for seed in 0..10 {
        run_schedule(13, &[], 800, 1_000 + seed);
    }
}

#[test]
fn silent_leader_schedules_reach_view_changes() {
    // Leader 0 silent: timeouts accumulate ViewChange quorums, so these
    // schedules exercise view entry (tally clearing + watermark guards).
    for seed in 0..20 {
        run_schedule(4, &[(0, Behavior::Silent)], 600, 2_000 + seed);
    }
}

#[test]
fn equivocating_leader_schedules_agree() {
    for seed in 0..20 {
        run_schedule(
            7,
            &[(0, Behavior::Equivocate), (5, Behavior::Silent)],
            700,
            3_000 + seed,
        );
    }
}

#[test]
fn word_fallback_above_128_replicas_agrees() {
    // n = 130 > 128 forces VoterMask::Large on the fast path.
    for seed in 0..3 {
        run_schedule(130, &[(1, Behavior::Silent)], 400, 4_000 + seed);
    }
}
