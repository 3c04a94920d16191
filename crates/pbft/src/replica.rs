//! The per-node PBFT state machine.
//!
//! Quorum votes are tracked in fixed-width bitmask voter sets
//! (`VoterMask`) instead of hash maps: a committee of `n ≤ 128` fits in
//! one `u128`, so recording a vote is one test-and-set that tells whether
//! the voter is new, and a running count beside the mask makes a quorum
//! check one compare — no hashing, no heap traffic, no popcount — which
//! matters because the simulation layer delivers O(n²) votes per
//! consensus instance. Larger committees fall back to a word vector with
//! identical semantics. The original hash-map implementation survives
//! outside the library as the test-only `ReferenceReplica`
//! (`tests/support/reference.rs`), and `tests/bitmask_differential.rs`
//! checks the two machines agree message-for-message on randomized
//! schedules.

use mvcom_types::Hash32;

use crate::message::{Message, MessageKind};

/// How a replica behaves — the failure-injection surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Behavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Crashed / partitioned: never sends anything.
    Silent,
    /// Byzantine leader behaviour: proposes conflicting digests to
    /// different replicas (as a non-leader it behaves silently, the
    /// strongest safe-but-unhelpful strategy).
    Equivocate,
}

/// Where an outbound message goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Broadcast to every replica (including the sender's own handler).
    All,
    /// One specific replica, by committee-local index.
    One(u32),
}

/// An outbound message queued by the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outbound {
    /// Recipient(s).
    pub target: Target,
    /// The message.
    pub message: Message,
}

/// A set of committee-local voter indices with O(1) insert.
///
/// Committees of `n ≤ 128` — every committee size the paper's evaluation
/// produces — use the inline `u128`; anything larger spills to a word
/// vector with the same semantics (covered by the differential test's
/// `n > 128` schedules).
#[derive(Debug, Clone, PartialEq, Eq)]
enum VoterMask {
    /// Inline mask for committees of at most 128 replicas.
    Small(u128),
    /// Word-vector fallback, bit `i` at `words[i / 64] >> (i % 64)`.
    Large(Vec<u64>),
}

impl VoterMask {
    /// An empty mask sized for a committee of `n`.
    fn new(n: u32) -> VoterMask {
        if n <= 128 {
            VoterMask::Small(0)
        } else {
            VoterMask::Large(vec![0; (n as usize).div_ceil(64)])
        }
    }

    /// Records voter `i` (idempotent); `true` if `i` was not yet recorded.
    fn insert(&mut self, i: u32) -> bool {
        match self {
            VoterMask::Small(bits) => {
                let bit = 1u128 << i;
                let new = *bits & bit == 0;
                *bits |= bit;
                new
            }
            VoterMask::Large(words) => {
                let (word, bit) = (&mut words[(i / 64) as usize], 1u64 << (i % 64));
                let new = *word & bit == 0;
                *word |= bit;
                new
            }
        }
    }

    /// Number of distinct voters recorded: the recount of what a `Tally`
    /// keeps running.
    #[cfg(test)]
    fn count(&self) -> u32 {
        match self {
            VoterMask::Small(bits) => bits.count_ones(),
            VoterMask::Large(words) => words.iter().map(|w| w.count_ones()).sum(),
        }
    }
}

/// The votes for one key (a digest, or a view to enter): who cast them
/// and how many distinct voters that is.
#[derive(Debug, Clone)]
struct Tally<K> {
    key: K,
    voters: VoterMask,
    count: u32,
}

/// Records `from`'s vote for `key` in a per-key tally list and returns the
/// key's updated vote count. A view sees at most two distinct digests (one
/// honest, one equivocated), so a linear scan beats any map.
fn tally<K: PartialEq>(entries: &mut Vec<Tally<K>>, n: u32, key: K, from: u32) -> u32 {
    let slot = match entries.iter().position(|tally| tally.key == key) {
        Some(i) => i,
        None => {
            entries.push(Tally {
                key,
                voters: VoterMask::new(n),
                count: 0,
            });
            entries.len() - 1
        }
    };
    let tally = &mut entries[slot];
    tally.count += u32::from(tally.voters.insert(from));
    tally.count
}

/// Monotone replacement for the old per-view `HashSet<u64>` sent-guards:
/// a replica's view never decreases, so "not yet sent in view `v`" is
/// exactly "`v` is above the watermark". Returns `true` if the send is
/// fresh and records it.
fn mark_sent(watermark: &mut Option<u64>, view: u64) -> bool {
    if watermark.is_none_or(|last| view > last) {
        *watermark = Some(view);
        true
    } else {
        false
    }
}

/// One PBFT replica for a single-decision instance.
///
/// Quorum rules follow Castro–Liskov with `n = 3f+1`:
/// * *prepared* after a valid pre-prepare plus `2f` matching prepares
///   from distinct replicas;
/// * *committed* after `2f+1` matching commits from distinct replicas.
///
/// Votes are tallied in `VoterMask`s for the *current* view only —
/// stale-view messages are dropped before tallying and views are
/// monotone, so per-view state can be cleared on view entry. Messages
/// whose `from` is outside `0..n` are dropped outright (the reference
/// implementation counted such forged indices as distinct voters; see
/// `tests/bitmask_differential.rs` for the in-range equivalence).
#[derive(Debug, Clone)]
pub struct Replica {
    index: u32,
    n: u32,
    f: u32,
    behavior: Behavior,
    view: u64,
    /// Digest accepted from the current view's pre-prepare.
    accepted: Option<Hash32>,
    /// Prepare votes per digest, current view only.
    prepares: Vec<Tally<Hash32>>,
    /// Commit votes per digest, current view only.
    commits: Vec<Tally<Hash32>>,
    /// View-change votes for views above the current one.
    view_votes: Vec<Tally<u64>>,
    sent_proposal: Option<u64>,
    sent_prepare: Option<u64>,
    sent_commit: Option<u64>,
    sent_view_change: Option<u64>,
    committed: Option<Hash32>,
}

impl Replica {
    /// Creates replica `index` of a committee of `n = 3f+1` members.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `index >= n`.
    pub fn new(index: u32, n: u32, behavior: Behavior) -> Replica {
        assert!(n >= 4, "PBFT needs n >= 4 (got {n})");
        assert!(index < n, "replica index {index} out of range {n}");
        Replica {
            index,
            n,
            f: (n - 1) / 3,
            behavior,
            view: 0,
            accepted: None,
            // A view tallies at most two digests (honest + equivocated);
            // reserving them here keeps the vote path allocation-free.
            prepares: Vec::with_capacity(2),
            commits: Vec::with_capacity(2),
            view_votes: Vec::with_capacity(2),
            sent_proposal: None,
            sent_prepare: None,
            sent_commit: None,
            sent_view_change: None,
            committed: None,
        }
    }

    /// This replica's committee-local index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// The fault threshold `f`.
    pub fn fault_threshold(&self) -> u32 {
        self.f
    }

    /// The digest this replica has committed, if any.
    pub fn committed(&self) -> Option<Hash32> {
        self.committed
    }

    /// The replica's configured behaviour.
    pub fn behavior(&self) -> Behavior {
        self.behavior
    }

    /// The leader of view `v` is replica `v mod n`.
    pub fn leader_of(&self, view: u64) -> u32 {
        (view % u64::from(self.n)) as u32
    }

    /// `true` if this replica leads its current view.
    pub fn is_leader(&self) -> bool {
        self.leader_of(self.view) == self.index
    }

    /// Leader action: propose `digest` in the current view.
    ///
    /// An [`Behavior::Equivocate`] leader emits *per-recipient* conflicting
    /// digests (recipient-parity flip), a [`Behavior::Silent`] leader emits
    /// nothing.
    ///
    /// Appends to `out` instead of returning a fresh vector: hot loops pass
    /// a reused buffer.
    pub fn propose_into(&mut self, digest: Hash32, out: &mut Vec<Outbound>) {
        if !self.is_leader() {
            return;
        }
        // At most one proposal per view (the runner may re-poll leaders).
        if !mark_sent(&mut self.sent_proposal, self.view) {
            return;
        }
        match self.behavior {
            Behavior::Honest => out.push(Outbound {
                target: Target::All,
                message: Message {
                    kind: MessageKind::PrePrepare,
                    view: self.view,
                    digest,
                    from: self.index,
                },
            }),
            Behavior::Silent => {}
            Behavior::Equivocate => out.extend((0..self.n).map(|to| {
                let mut twisted = digest;
                if to % 2 == 1 {
                    twisted.0[0] ^= 0xFF;
                }
                Outbound {
                    target: Target::One(to),
                    message: Message {
                        kind: MessageKind::PrePrepare,
                        view: self.view,
                        digest: twisted,
                        from: self.index,
                    },
                }
            })),
        }
    }

    /// Local timeout: vote to depose the current leader, appending the vote
    /// to `out`.
    pub fn on_timeout_into(&mut self, out: &mut Vec<Outbound>) {
        if self.committed.is_some() || self.behavior != Behavior::Honest {
            return;
        }
        let next_view = self.view + 1;
        if !mark_sent(&mut self.sent_view_change, next_view) {
            return;
        }
        out.push(Outbound {
            target: Target::All,
            message: Message {
                kind: MessageKind::ViewChange,
                view: next_view,
                digest: Hash32::ZERO,
                from: self.index,
            },
        });
    }

    /// Feeds one delivered message into the state machine, appending any
    /// outbound messages it triggers to `out` (which is *not* cleared —
    /// callers reuse buffers).
    pub fn on_message_into(&mut self, msg: Message, out: &mut Vec<Outbound>) {
        if self.behavior != Behavior::Honest || self.committed.is_some() {
            // Silent and equivocating replicas never *respond*; the
            // equivocator only misbehaves when leading (see `propose_into`).
            return;
        }
        if msg.from >= self.n {
            return; // forged sender index — never counts as a voter
        }
        match msg.kind {
            MessageKind::PrePrepare | MessageKind::NewView => self.on_pre_prepare(msg, out),
            MessageKind::Prepare => self.on_prepare(msg, out),
            MessageKind::Commit => self.on_commit(msg),
            MessageKind::ViewChange => self.on_view_change(msg),
        }
    }

    fn on_pre_prepare(&mut self, msg: Message, out: &mut Vec<Outbound>) {
        if msg.view != self.view || msg.from != self.leader_of(self.view) {
            return;
        }
        if self.accepted.is_some() {
            return; // at most one accepted proposal per view
        }
        self.accepted = Some(msg.digest);
        if !mark_sent(&mut self.sent_prepare, self.view) {
            return;
        }
        let prepare = Message {
            kind: MessageKind::Prepare,
            view: self.view,
            digest: msg.digest,
            from: self.index,
        };
        // Count our own prepare immediately.
        self.on_prepare(prepare, out);
        out.push(Outbound {
            target: Target::All,
            message: prepare,
        });
    }

    fn on_prepare(&mut self, msg: Message, out: &mut Vec<Outbound>) {
        if msg.view != self.view {
            return;
        }
        let votes = tally(&mut self.prepares, self.n, msg.digest, msg.from);
        let enough = votes >= 2 * self.f;
        let matches_accepted = self.accepted == Some(msg.digest);
        if enough && matches_accepted && mark_sent(&mut self.sent_commit, self.view) {
            let commit = Message {
                kind: MessageKind::Commit,
                view: self.view,
                digest: msg.digest,
                from: self.index,
            };
            self.on_commit(commit);
            out.push(Outbound {
                target: Target::All,
                message: commit,
            });
        }
    }

    fn on_commit(&mut self, msg: Message) {
        if msg.view != self.view {
            return;
        }
        let votes = tally(&mut self.commits, self.n, msg.digest, msg.from);
        if votes > 2 * self.f && self.accepted == Some(msg.digest) {
            self.committed = Some(msg.digest);
        }
    }

    fn on_view_change(&mut self, msg: Message) {
        if msg.view <= self.view {
            return;
        }
        if tally(&mut self.view_votes, self.n, msg.view, msg.from) > 2 * self.f {
            // Enter the new view; state for the old view is abandoned
            // (single-decision instance: nothing prepared carries over
            // unless we had committed, which short-circuits earlier).
            // Views are monotone, so per-view tallies can be dropped —
            // stale-view messages never reach `tally`.
            self.view = msg.view;
            self.accepted = None;
            self.prepares.clear();
            self.commits.clear();
            let entered = self.view;
            self.view_votes.retain(|tally| tally.key > entered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest() -> Hash32 {
        Hash32::digest(b"block")
    }

    fn propose(replica: &mut Replica, digest: Hash32) -> Vec<Outbound> {
        let mut out = Vec::new();
        replica.propose_into(digest, &mut out);
        out
    }

    fn on_timeout(replica: &mut Replica) -> Vec<Outbound> {
        let mut out = Vec::new();
        replica.on_timeout_into(&mut out);
        out
    }

    fn on_message(replica: &mut Replica, msg: Message) -> Vec<Outbound> {
        let mut out = Vec::new();
        replica.on_message_into(msg, &mut out);
        out
    }

    /// Delivers `msg` to every replica, collecting the responses.
    fn deliver_all(replicas: &mut [Replica], msg: Message) -> Vec<Outbound> {
        replicas
            .iter_mut()
            .flat_map(|r| on_message(r, msg))
            .collect()
    }

    /// Runs a full synchronous round-based exchange until quiescence.
    fn run_to_quiescence(replicas: &mut [Replica], initial: Vec<Outbound>) {
        let mut queue: Vec<Outbound> = initial;
        let mut rounds = 0;
        while !queue.is_empty() {
            rounds += 1;
            assert!(rounds < 100, "protocol did not quiesce");
            let mut next = Vec::new();
            for out in queue.drain(..) {
                match out.target {
                    Target::All => next.extend(deliver_all(replicas, out.message)),
                    Target::One(idx) => {
                        next.extend(on_message(&mut replicas[idx as usize], out.message))
                    }
                }
            }
            queue = next;
        }
    }

    fn committee(n: u32, behaviors: &[(u32, Behavior)]) -> Vec<Replica> {
        (0..n)
            .map(|i| {
                let b = behaviors
                    .iter()
                    .find(|(idx, _)| *idx == i)
                    .map(|(_, b)| *b)
                    .unwrap_or(Behavior::Honest);
                Replica::new(i, n, b)
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "n >= 4")]
    fn rejects_tiny_committees() {
        Replica::new(0, 3, Behavior::Honest);
    }

    #[test]
    fn leader_rotation() {
        let r = Replica::new(0, 4, Behavior::Honest);
        assert_eq!(r.leader_of(0), 0);
        assert_eq!(r.leader_of(1), 1);
        assert_eq!(r.leader_of(4), 0);
        assert!(r.is_leader());
        assert_eq!(r.fault_threshold(), 1);
    }

    #[test]
    fn all_honest_replicas_commit_same_digest() {
        let mut replicas = committee(4, &[]);
        let proposal = propose(&mut replicas[0], digest());
        run_to_quiescence(&mut replicas, proposal);
        for r in &replicas {
            assert_eq!(r.committed(), Some(digest()), "replica {}", r.index());
        }
    }

    #[test]
    fn commits_with_f_silent_replicas() {
        // n=7, f=2: two silent followers must not block commitment.
        let mut replicas = committee(7, &[(5, Behavior::Silent), (6, Behavior::Silent)]);
        let proposal = propose(&mut replicas[0], digest());
        run_to_quiescence(&mut replicas, proposal);
        let committed = replicas
            .iter()
            .filter(|r| r.committed() == Some(digest()))
            .count();
        assert!(committed >= 5, "only {committed} replicas committed");
    }

    #[test]
    fn does_not_commit_beyond_f_failures() {
        // n=4, f=1, but TWO silent replicas: quorum 2f+1 = 3 commits is
        // unreachable with only 2 honest participants.
        let mut replicas = committee(4, &[(2, Behavior::Silent), (3, Behavior::Silent)]);
        let proposal = propose(&mut replicas[0], digest());
        run_to_quiescence(&mut replicas, proposal);
        assert!(replicas.iter().all(|r| r.committed().is_none()));
    }

    #[test]
    fn equivocating_leader_cannot_split_honest_replicas() {
        // n=4 with an equivocating leader: safety demands no two honest
        // replicas commit different digests.
        let mut replicas = committee(4, &[(0, Behavior::Equivocate)]);
        let proposal = propose(&mut replicas[0], digest());
        run_to_quiescence(&mut replicas, proposal);
        let committed: Vec<Hash32> = replicas
            .iter()
            .filter(|r| r.behavior() == Behavior::Honest)
            .filter_map(|r| r.committed())
            .collect();
        let unique: std::collections::HashSet<Hash32> = committed.iter().copied().collect();
        assert!(
            unique.len() <= 1,
            "honest replicas committed conflicting digests: {unique:?}"
        );
    }

    #[test]
    fn view_change_reaches_quorum_and_advances_view() {
        let mut replicas = committee(4, &[(0, Behavior::Silent)]);
        // Leader 0 is silent; every honest replica times out.
        let mut msgs: Vec<Outbound> = Vec::new();
        for r in replicas.iter_mut() {
            msgs.extend(on_timeout(r));
        }
        assert_eq!(msgs.len(), 3); // replicas 1..3 vote
        run_to_quiescence(&mut replicas, msgs);
        for r in replicas.iter().filter(|r| r.behavior() == Behavior::Honest) {
            assert_eq!(r.view(), 1, "replica {} stuck in view 0", r.index());
        }
        // New leader (replica 1) proposes and the protocol completes.
        let proposal = propose(&mut replicas[1], digest());
        assert!(!proposal.is_empty());
        run_to_quiescence(&mut replicas, proposal);
        for r in replicas.iter().filter(|r| r.behavior() == Behavior::Honest) {
            assert_eq!(r.committed(), Some(digest()));
        }
    }

    #[test]
    fn timeout_after_commit_is_a_no_op() {
        let mut replicas = committee(4, &[]);
        let proposal = propose(&mut replicas[0], digest());
        run_to_quiescence(&mut replicas, proposal);
        assert!(on_timeout(&mut replicas[1]).is_empty());
    }

    #[test]
    fn stale_view_messages_are_ignored() {
        let mut r = Replica::new(1, 4, Behavior::Honest);
        let stale = Message {
            kind: MessageKind::PrePrepare,
            view: 5,
            digest: digest(),
            from: 1,
        };
        assert!(on_message(&mut r, stale).is_empty());
        assert_eq!(r.committed(), None);
    }

    #[test]
    fn pre_prepare_from_non_leader_rejected() {
        let mut r = Replica::new(1, 4, Behavior::Honest);
        let forged = Message {
            kind: MessageKind::PrePrepare,
            view: 0,
            digest: digest(),
            from: 2, // leader of view 0 is replica 0
        };
        assert!(on_message(&mut r, forged).is_empty());
    }

    #[test]
    fn second_pre_prepare_in_view_is_ignored() {
        let mut r = Replica::new(1, 4, Behavior::Honest);
        let first = Message {
            kind: MessageKind::PrePrepare,
            view: 0,
            digest: digest(),
            from: 0,
        };
        let second = Message {
            digest: Hash32::digest(b"other"),
            ..first
        };
        let out1 = on_message(&mut r, first);
        assert!(!out1.is_empty());
        let out2 = on_message(&mut r, second);
        assert!(out2.is_empty());
    }

    #[test]
    fn out_of_range_sender_is_dropped() {
        let mut r = Replica::new(1, 4, Behavior::Honest);
        // Seat the pre-prepare so prepares are being tallied.
        let pre = Message {
            kind: MessageKind::PrePrepare,
            view: 0,
            digest: digest(),
            from: 0,
        };
        assert!(!on_message(&mut r, pre).is_empty());
        // Two forged prepares from indices outside 0..4 must not count
        // toward the 2f = 2 prepare quorum (a commit would be emitted).
        for forged_from in [4, 200] {
            let forged = Message {
                kind: MessageKind::Prepare,
                view: 0,
                digest: digest(),
                from: forged_from,
            };
            assert!(on_message(&mut r, forged).is_empty());
        }
    }

    #[test]
    fn large_committee_uses_word_fallback_and_commits() {
        // n = 130 > 128 exercises VoterMask::Large end to end.
        let mut replicas = committee(130, &[]);
        let proposal = propose(&mut replicas[0], digest());
        run_to_quiescence(&mut replicas, proposal);
        for r in &replicas {
            assert_eq!(r.committed(), Some(digest()), "replica {}", r.index());
        }
    }

    #[test]
    fn voter_mask_counts_distinct_voters() {
        for n in [4, 128, 129, 200] {
            let mut mask = VoterMask::new(n);
            assert_eq!(mask.count(), 0);
            assert!(mask.insert(0));
            assert!(mask.insert(n - 1));
            assert!(!mask.insert(0)); // idempotent
            assert_eq!(mask.count(), 2, "n={n}");
        }
    }

    proptest::proptest! {
        /// The running count `tally` returns is the recount of its mask,
        /// for votes split over two digests and repeated voters, on both
        /// sides of the `u128` / word-vector boundary.
        #[test]
        fn running_vote_count_is_the_recount(
            pick in 0usize..5,
            votes in proptest::collection::vec((0u32..1_000, 0u8..2), 0..400),
        ) {
            let n = [4u32, 100, 128, 129, 200][pick];
            let mut tallies = Vec::new();
            for (voter, key) in votes {
                let digest = Hash32::digest(&[key]);
                let count = tally(&mut tallies, n, digest, voter % n);
                let entry = tallies.iter().find(|t| t.key == digest);
                proptest::prop_assert_eq!(
                    entry.map(|t| (t.count, t.voters.count())),
                    Some((count, count))
                );
            }
        }
    }
}
