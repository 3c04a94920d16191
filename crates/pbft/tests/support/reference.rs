//! The original hash-map based replica, kept as an executable spec.
//!
//! [`ReferenceReplica`] is the pre-optimization [`Replica`](mvcom_pbft::Replica)
//! implementation, verbatim: quorum votes tracked in
//! `HashMap<(view, digest), HashSet<from>>` and sent-guards in per-view
//! `HashSet<u64>`s. The production state machine replaced those with
//! fixed-width bitmask voter sets and monotone watermarks (see
//! `DESIGN.md` §9); this copy stays behind, as a support module of
//! `tests/bitmask_differential.rs` rather than of the shipped library, so
//! that test can drive both machines with the same randomized message
//! schedules and assert output equality message-for-message.
//!
//! Apart from the struct name, the code is intentionally identical to the
//! pre-fast-path `replica.rs`; do not "improve" it — its value is being
//! frozen.

#![expect(
    clippy::disallowed_types,
    reason = "frozen pre-optimization reference: its hash containers are what the fast path is compared against"
)]
use std::collections::{HashMap, HashSet};

use mvcom_types::Hash32;

use mvcom_pbft::message::{Message, MessageKind};
use mvcom_pbft::replica::{Behavior, Outbound, Target};

/// The pre-optimization PBFT replica (see the module docs).
///
/// Same quorum rules as [`Replica`](mvcom_pbft::Replica): *prepared* after a
/// valid pre-prepare plus `2f` matching prepares, *committed* after `2f+1`
/// matching commits.
#[derive(Debug, Clone)]
pub struct ReferenceReplica {
    index: u32,
    n: u32,
    f: u32,
    behavior: Behavior,
    view: u64,
    /// Digest accepted from the current view's pre-prepare.
    accepted: Option<Hash32>,
    prepares: HashMap<(u64, Hash32), HashSet<u32>>,
    commits: HashMap<(u64, Hash32), HashSet<u32>>,
    view_votes: HashMap<u64, HashSet<u32>>,
    sent_proposal: HashSet<u64>,
    sent_prepare: HashSet<u64>,
    sent_commit: HashSet<u64>,
    sent_view_change: HashSet<u64>,
    committed: Option<Hash32>,
}

impl ReferenceReplica {
    /// Creates replica `index` of a committee of `n = 3f+1` members.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` or `index >= n`.
    pub fn new(index: u32, n: u32, behavior: Behavior) -> ReferenceReplica {
        assert!(n >= 4, "PBFT needs n >= 4 (got {n})");
        assert!(index < n, "replica index {index} out of range {n}");
        ReferenceReplica {
            index,
            n,
            f: (n - 1) / 3,
            behavior,
            view: 0,
            accepted: None,
            prepares: HashMap::new(),
            commits: HashMap::new(),
            view_votes: HashMap::new(),
            sent_proposal: HashSet::new(),
            sent_prepare: HashSet::new(),
            sent_commit: HashSet::new(),
            sent_view_change: HashSet::new(),
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
    pub fn propose(&mut self, digest: Hash32) -> Vec<Outbound> {
        if !self.is_leader() {
            return Vec::new();
        }
        // At most one proposal per view (the runner may re-poll leaders).
        if !self.sent_proposal.insert(self.view) {
            return Vec::new();
        }
        match self.behavior {
            Behavior::Honest => vec![Outbound {
                target: Target::All,
                message: Message {
                    kind: MessageKind::PrePrepare,
                    view: self.view,
                    digest,
                    from: self.index,
                },
            }],
            Behavior::Silent => Vec::new(),
            Behavior::Equivocate => (0..self.n)
                .map(|to| {
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
                })
                .collect(),
        }
    }

    /// Local timeout: vote to depose the current leader.
    pub fn on_timeout(&mut self) -> Vec<Outbound> {
        if self.committed.is_some() || self.behavior != Behavior::Honest {
            return Vec::new();
        }
        let next_view = self.view + 1;
        if !self.sent_view_change.insert(next_view) {
            return Vec::new();
        }
        vec![Outbound {
            target: Target::All,
            message: Message {
                kind: MessageKind::ViewChange,
                view: next_view,
                digest: Hash32::ZERO,
                from: self.index,
            },
        }]
    }

    /// Feeds one delivered message into the state machine, returning any
    /// outbound messages it triggers.
    pub fn on_message(&mut self, msg: Message) -> Vec<Outbound> {
        if self.behavior != Behavior::Honest || self.committed.is_some() {
            return Vec::new();
        }
        match msg.kind {
            MessageKind::PrePrepare | MessageKind::NewView => self.on_pre_prepare(msg),
            MessageKind::Prepare => self.on_prepare(msg),
            MessageKind::Commit => self.on_commit(msg),
            MessageKind::ViewChange => self.on_view_change(msg),
        }
    }

    fn on_pre_prepare(&mut self, msg: Message) -> Vec<Outbound> {
        if msg.view != self.view || msg.from != self.leader_of(self.view) {
            return Vec::new();
        }
        if self.accepted.is_some() {
            return Vec::new(); // at most one accepted proposal per view
        }
        self.accepted = Some(msg.digest);
        if !self.sent_prepare.insert(self.view) {
            return Vec::new();
        }
        let prepare = Message {
            kind: MessageKind::Prepare,
            view: self.view,
            digest: msg.digest,
            from: self.index,
        };
        // Count our own prepare immediately.
        let mut out = self.on_prepare(prepare);
        out.push(Outbound {
            target: Target::All,
            message: prepare,
        });
        out
    }

    fn on_prepare(&mut self, msg: Message) -> Vec<Outbound> {
        if msg.view != self.view {
            return Vec::new();
        }
        let votes = self.prepares.entry((msg.view, msg.digest)).or_default();
        votes.insert(msg.from);
        let enough = votes.len() as u32 >= 2 * self.f;
        let matches_accepted = self.accepted == Some(msg.digest);
        if enough && matches_accepted && self.sent_commit.insert(self.view) {
            let commit = Message {
                kind: MessageKind::Commit,
                view: self.view,
                digest: msg.digest,
                from: self.index,
            };
            let mut out = self.on_commit(commit);
            out.push(Outbound {
                target: Target::All,
                message: commit,
            });
            return out;
        }
        Vec::new()
    }

    fn on_commit(&mut self, msg: Message) -> Vec<Outbound> {
        if msg.view != self.view {
            return Vec::new();
        }
        let votes = self.commits.entry((msg.view, msg.digest)).or_default();
        votes.insert(msg.from);
        if votes.len() as u32 > 2 * self.f && self.accepted == Some(msg.digest) {
            self.committed = Some(msg.digest);
        }
        Vec::new()
    }

    fn on_view_change(&mut self, msg: Message) -> Vec<Outbound> {
        if msg.view <= self.view {
            return Vec::new();
        }
        let votes = self.view_votes.entry(msg.view).or_default();
        votes.insert(msg.from);
        if votes.len() as u32 > 2 * self.f {
            // Enter the new view; state for the old view is abandoned
            // (single-decision instance: nothing prepared carries over
            // unless we had committed, which short-circuits earlier).
            self.view = msg.view;
            self.accepted = None;
        }
        Vec::new()
    }
}
