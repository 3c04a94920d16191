//! The PBFT wire protocol.

use mvcom_types::Hash32;

/// The protocol phase a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Leader's proposal carrying the block digest (phase 1).
    PrePrepare,
    /// Replica echo of the accepted digest (phase 2).
    Prepare,
    /// Replica commitment after seeing a prepare quorum (phase 3).
    Commit,
    /// Vote to depose the current leader.
    ViewChange,
    /// The new leader's announcement that `2f+1` view-change votes were
    /// collected; re-proposes in the new view.
    NewView,
}

/// One PBFT message.
///
/// Replica indices are committee-local (`0..n`), not global node ids; the
/// runner maps them onto network nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Message {
    /// Protocol phase.
    pub kind: MessageKind,
    /// The view this message belongs to (for `ViewChange`, the view being
    /// proposed).
    pub view: u64,
    /// The block digest under agreement (zero for `ViewChange`).
    pub digest: Hash32,
    /// Sender's committee-local replica index.
    pub from: u32,
}

impl Message {
    /// Approximate serialized size in bytes, used for bandwidth modelling:
    /// a pre-prepare carries the block body, the votes are headers only.
    pub fn wire_size(&self, block_bytes: usize) -> usize {
        match self.kind {
            MessageKind::PrePrepare | MessageKind::NewView => 96 + block_bytes,
            MessageKind::Prepare | MessageKind::Commit | MessageKind::ViewChange => 96,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_reflects_payload() {
        let pre = Message {
            kind: MessageKind::PrePrepare,
            view: 0,
            digest: Hash32::digest(b"x"),
            from: 0,
        };
        let prep = Message {
            kind: MessageKind::Prepare,
            ..pre
        };
        assert_eq!(pre.wire_size(1_000), 1_096);
        assert_eq!(prep.wire_size(1_000), 96);
    }
}
