//! The unified protocol message vocabulary.
//!
//! All protocols studied by the paper are PBFT-shaped: a primary proposes
//! (`PrePrepare`), replicas vote in one or two all-to-all phases (`Prepare`,
//! `Commit`), everyone periodically checkpoints, and view changes replace a
//! faulty primary. trust-bft and FlexiTrust protocols additionally carry
//! trusted-component [`Attestation`]s inside these messages. Using a single
//! message enum keeps the network layers (simulator, threaded runtime)
//! protocol-independent; each engine simply ignores message kinds it never
//! sends.

use flexitrust_trusted::Attestation;
use flexitrust_types::{
    Batch, ClientId, Digest, KvResult, ReplicaId, RequestId, SeqNum, StateSnapshot, Transaction,
    View,
};
use std::sync::Arc;

/// A message as it travels between replicas: one allocation at the sender,
/// shared by reference with every recipient. A broadcast's fan-out is a
/// reference-count bump per destination — the payload bytes (the batch
/// behind its own `Arc`, attestations, digests) are never copied.
pub type SharedMessage = Arc<Message>;

/// Recovers an owned [`Message`] from a shared handle for engine delivery.
///
/// When the handle is the last one (a unicast, or the final copy of a
/// broadcast) the message moves out for free; otherwise the shallow clone
/// copies only the enum skeleton — batches and proof sets share their
/// `Arc`-backed payloads, so no transaction bytes are duplicated either
/// way.
pub fn unshare(msg: SharedMessage) -> Message {
    Arc::try_unwrap(msg).unwrap_or_else(|shared| (*shared).clone())
}

/// Proof that a batch was prepared (or committed) in some view; carried in
/// `ViewChange` messages so the new primary can re-propose it.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedProof {
    /// The view in which the batch was prepared.
    pub view: View,
    /// The sequence number it was prepared at.
    pub seq: SeqNum,
    /// Digest of the prepared batch.
    pub digest: Digest,
    /// The batch itself (needed so the new primary can re-propose it).
    pub batch: Batch,
    /// The primary's trusted attestation, when the protocol uses one.
    pub attestation: Option<Attestation>,
    /// How many matching `Prepare` votes backed this proof.
    pub prepare_votes: usize,
}

/// One reply from a replica to a client.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientReply {
    /// The client the reply is addressed to.
    pub client: ClientId,
    /// The client's request id being answered.
    pub request: RequestId,
    /// The sequence number the transaction executed at.
    pub seq: SeqNum,
    /// The view in which it executed.
    pub view: View,
    /// The replica sending the reply.
    pub replica: ReplicaId,
    /// The execution result.
    pub result: KvResult,
    /// Whether this reply is speculative (Zyzzyva/MinZZ/Flexi-ZZ execute
    /// before the batch is known to be committed).
    pub speculative: bool,
}

/// Protocol messages exchanged between replicas (and, for
/// [`Message::ClientRetry`], from clients to replicas).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// The primary's proposal binding a batch to a sequence number.
    PrePrepare {
        /// Proposing view.
        view: View,
        /// Proposed sequence number.
        seq: SeqNum,
        /// The proposed batch of transactions.
        batch: Batch,
        /// Attestation from the primary's trusted component (trust-bft and
        /// FlexiTrust protocols; `None` for plain BFT).
        attestation: Option<Attestation>,
    },
    /// A replica's vote supporting a proposal.
    Prepare {
        /// Voting view.
        view: View,
        /// Sequence number being voted on.
        seq: SeqNum,
        /// Digest of the batch being supported.
        digest: Digest,
        /// Attestation from the voter's trusted component (trust-bft
        /// protocols attest every outgoing message; FlexiTrust does not).
        attestation: Option<Attestation>,
    },
    /// The second voting phase of three-phase protocols (PBFT, PBFT-EA).
    Commit {
        /// Voting view.
        view: View,
        /// Sequence number being committed.
        seq: SeqNum,
        /// Digest of the batch being committed.
        digest: Digest,
        /// Attestation from the voter's trusted component, if any.
        attestation: Option<Attestation>,
    },
    /// Periodic state checkpoint.
    Checkpoint {
        /// The last sequence number covered.
        seq: SeqNum,
        /// Digest of the replica state after executing up to `seq`.
        state_digest: Digest,
        /// Attestation over the checkpoint from the trusted component, when
        /// the protocol keeps trusted state.
        attestation: Option<Attestation>,
    },
    /// Vote to replace the current primary.
    ViewChange {
        /// The view the sender wants to move to.
        new_view: View,
        /// The sender's last stable checkpoint.
        last_stable: SeqNum,
        /// Proofs of batches prepared (or speculatively executed) by the
        /// sender that must survive into the new view.
        prepared: Vec<PreparedProof>,
    },
    /// The new primary's announcement of the new view.
    NewView {
        /// The view being started.
        view: View,
        /// Number of `ViewChange` messages backing this announcement.
        supporting_votes: usize,
        /// Re-proposals, in sequence-number order (gaps filled with no-ops).
        proposals: Vec<(SeqNum, Batch, Option<Attestation>)>,
        /// Attestation over the new primary's freshly created counter, when
        /// the protocol uses trusted counters.
        counter_attestation: Option<Attestation>,
    },
    /// A client re-broadcasting a transaction it believes is stuck; replicas
    /// either answer from their reply cache or forward it to the primary and
    /// start a view-change timer (Flexi-ZZ §8.3, and the complaint step of
    /// the §5 responsiveness analysis). A retry older than the client's
    /// latest cached reply is stale and dropped.
    ClientRetry {
        /// The transaction the client wants executed.
        txn: Transaction,
    },
    /// Forwarding of client transactions from a backup to the primary.
    ForwardRequest {
        /// The transactions being forwarded.
        txns: Vec<Transaction>,
    },
    /// A replica left behind asking peers for checkpoint state transfer
    /// (on recovery, or when a checkpoint turned stable past its frontier):
    /// it has executed up to `last_executed` and wants the latest stable
    /// checkpoint past that point.
    CheckpointRequest {
        /// The requester's last executed sequence number.
        last_executed: SeqNum,
    },
    /// Checkpoint state transfer: the sender's stable checkpoint state plus
    /// the committed batches after it, so the receiver can install the
    /// snapshot and replay forward (the `CheckpointLog` rejoin path).
    CheckpointState {
        /// The stable checkpoint's sequence number.
        seq: SeqNum,
        /// Full executed state at `seq`.
        snapshot: StateSnapshot,
        /// Committed batches after `seq`, in ascending sequence order.
        batches: Vec<(SeqNum, Batch)>,
    },
}

impl Message {
    /// Short human-readable label, used in traces and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::PrePrepare { .. } => "PrePrepare",
            Message::Prepare { .. } => "Prepare",
            Message::Commit { .. } => "Commit",
            Message::Checkpoint { .. } => "Checkpoint",
            Message::ViewChange { .. } => "ViewChange",
            Message::NewView { .. } => "NewView",
            Message::ClientRetry { .. } => "ClientRetry",
            Message::ForwardRequest { .. } => "ForwardRequest",
            Message::CheckpointRequest { .. } => "CheckpointRequest",
            Message::CheckpointState { .. } => "CheckpointState",
        }
    }

    /// The view the message belongs to, when it carries one.
    pub fn view(&self) -> Option<View> {
        match self {
            Message::PrePrepare { view, .. }
            | Message::Prepare { view, .. }
            | Message::Commit { view, .. }
            | Message::NewView { view, .. } => Some(*view),
            Message::ViewChange { new_view, .. } => Some(*new_view),
            _ => None,
        }
    }

    /// The sequence number the message refers to, when it carries one.
    pub fn seq(&self) -> Option<SeqNum> {
        match self {
            Message::PrePrepare { seq, .. }
            | Message::Prepare { seq, .. }
            | Message::Commit { seq, .. }
            | Message::Checkpoint { seq, .. }
            | Message::CheckpointState { seq, .. } => Some(*seq),
            _ => None,
        }
    }

    /// Number of trusted-component attestations a receiver must verify.
    pub fn attestation_count(&self) -> usize {
        match self {
            Message::PrePrepare { attestation, .. }
            | Message::Prepare { attestation, .. }
            | Message::Commit { attestation, .. }
            | Message::Checkpoint { attestation, .. } => usize::from(attestation.is_some()),
            Message::ViewChange { prepared, .. } => {
                prepared.iter().filter(|p| p.attestation.is_some()).count()
            }
            Message::NewView {
                proposals,
                counter_attestation,
                ..
            } => {
                proposals.iter().filter(|(_, _, a)| a.is_some()).count()
                    + usize::from(counter_attestation.is_some())
            }
            Message::ClientRetry { .. }
            | Message::ForwardRequest { .. }
            | Message::CheckpointRequest { .. }
            | Message::CheckpointState { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::{ClientId, KvOp, RequestId};

    fn batch() -> Batch {
        Batch::new(
            vec![Transaction::new(
                ClientId(1),
                RequestId(1),
                KvOp::Read { key: 1 },
            )],
            Digest::from_u64_tag(1),
        )
    }

    fn attestation() -> Attestation {
        Attestation {
            host: ReplicaId(0),
            counter: 0,
            value: 1,
            digest: Digest::from_u64_tag(1),
            kind: flexitrust_trusted::AttestKind::CounterBind,
            signature: flexitrust_crypto::Signature::zero(),
        }
    }

    #[test]
    fn kinds_and_views_are_reported() {
        let m = Message::PrePrepare {
            view: View(3),
            seq: SeqNum(7),
            batch: batch(),
            attestation: None,
        };
        assert_eq!(m.kind(), "PrePrepare");
        assert_eq!(m.view(), Some(View(3)));
        assert_eq!(m.seq(), Some(SeqNum(7)));

        let vc = Message::ViewChange {
            new_view: View(4),
            last_stable: SeqNum(0),
            prepared: vec![],
        };
        assert_eq!(vc.view(), Some(View(4)));
        assert_eq!(vc.seq(), None);
    }

    #[test]
    fn attestation_counts_follow_contents() {
        let plain = Message::Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            attestation: None,
        };
        assert_eq!(plain.attestation_count(), 0);

        let attested = Message::Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            attestation: Some(attestation()),
        };
        assert_eq!(attested.attestation_count(), 1);

        let vc = Message::ViewChange {
            new_view: View(1),
            last_stable: SeqNum(0),
            prepared: vec![
                PreparedProof {
                    view: View(0),
                    seq: SeqNum(1),
                    digest: Digest::ZERO,
                    batch: batch(),
                    attestation: Some(attestation()),
                    prepare_votes: 3,
                },
                PreparedProof {
                    view: View(0),
                    seq: SeqNum(2),
                    digest: Digest::ZERO,
                    batch: batch(),
                    attestation: None,
                    prepare_votes: 3,
                },
            ],
        };
        assert_eq!(vc.attestation_count(), 1);
    }

    #[test]
    fn checkpoint_transfer_messages_report_kind_and_seq() {
        let request = Message::CheckpointRequest {
            last_executed: SeqNum(40),
        };
        assert_eq!(request.kind(), "CheckpointRequest");
        assert_eq!(request.seq(), None);
        assert_eq!(request.attestation_count(), 0);

        let state = Message::CheckpointState {
            seq: SeqNum(100),
            snapshot: StateSnapshot {
                entries: vec![(7, vec![1u8; 16].into())],
                applied_mutations: 1,
                fingerprint: 42,
            },
            batches: vec![(SeqNum(101), batch())],
        };
        assert_eq!(state.kind(), "CheckpointState");
        assert_eq!(state.seq(), Some(SeqNum(100)));
        assert_eq!(state.attestation_count(), 0);
    }

    #[test]
    fn newview_attestations_count_counter_and_proposals() {
        let nv = Message::NewView {
            view: View(2),
            supporting_votes: 5,
            proposals: vec![(SeqNum(1), batch(), Some(attestation()))],
            counter_attestation: Some(attestation()),
        };
        assert_eq!(nv.attestation_count(), 2);
        assert_eq!(nv.kind(), "NewView");
    }
}
