//! What each protocol is: one row of design dimensions per [`ProtocolId`].
//!
//! The paper's Figure 1 and its §8 recipe say that the eleven protocols of
//! this repository differ along a few design dimensions only: the replica
//! count, the number of phases and their quorums, speculation, and how the
//! primary and the backups touch their trusted component. [`ProtocolStyle`]
//! is one row of those dimensions and [`ProtocolId::style`] is the one table
//! of rows. Everything per-protocol reads it: the replica count and proposal
//! window of [`SystemConfig::for_protocol`](crate::SystemConfig::for_protocol),
//! the Figure 1 properties, the enclave a replica holds and the one
//! consensus engine, which copies its row when it is built.

use crate::config::{ProtocolId, QuorumRule, ReplicationFactor};

/// How the primary binds a batch to a sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimaryAttest {
    /// No trusted component (plain BFT).
    None,
    /// trust-bft trusted counter: the primary supplies the sequence number
    /// and the counter attests the binding (MinBFT, MinZZ, CheapBFT).
    HostCounter,
    /// trust-bft trusted log: the proposal is appended to the primary's
    /// pre-prepare log (PBFT-EA, OPBFT-EA).
    Log,
    /// FlexiTrust `AppendF`: the primary's trusted counter increments itself
    /// and its value *is* the sequence number, so sequence numbers are
    /// contiguous by construction — one access per consensus, at the
    /// primary only (§8.1). A new primary proves the creation of its fresh
    /// counter in the `NewView` (Flexi-BFT, Flexi-ZZ).
    AppendF,
}

/// How non-primary replicas attest their own votes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaAttest {
    /// Votes are plain signed messages (PBFT, Zyzzyva — and FlexiTrust,
    /// whose replicas never touch their trusted components).
    None,
    /// Every outgoing vote is bound to the replica's trusted counter
    /// (MinBFT, MinZZ, CheapBFT).
    Counter,
    /// Every outgoing vote is appended to the replica's trusted log
    /// (PBFT-EA, OPBFT-EA).
    Log,
}

/// One protocol's row: the design dimensions the paper compares.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolStyle {
    /// Which protocol this row describes.
    pub id: ProtocolId,
    /// The replica count regime (`2f + 1` or `3f + 1`).
    pub replication: ReplicationFactor,
    /// Whether the protocol has a `Commit` phase after `Prepare`.
    pub use_commit_phase: bool,
    /// Matching `Prepare` votes needed to mark a batch prepared.
    pub prepare_quorum_rule: QuorumRule,
    /// Matching `Commit` votes needed to mark a batch committed
    /// (ignored when there is no commit phase).
    pub commit_quorum_rule: QuorumRule,
    /// Whether replicas execute speculatively on `PrePrepare` (Zyzzyva,
    /// MinZZ, Flexi-ZZ) instead of waiting for a quorum.
    pub speculative: bool,
    /// How the primary uses its trusted component per proposal.
    pub primary_attest: PrimaryAttest,
    /// How other replicas use their trusted components per vote.
    pub replica_attest: ReplicaAttest,
    /// Only the first `f + 1` replicas participate in the failure-free case
    /// (CheapBFT's active/passive split).
    pub active_subset_only: bool,
    /// How many matching replies a client needs to accept a result.
    pub reply_quorum: QuorumRule,
    /// Figure 1's claim that consensus instances may proceed out of order,
    /// in parallel; the default proposal window follows it.
    pub out_of_order: bool,
    /// Figure 1's claim that clients keep the liveness guarantees of plain
    /// BFT (trust-bft protocols lose them, §5).
    pub bft_liveness: bool,
}

impl ProtocolId {
    /// This protocol's row of the design table.
    pub fn style(self) -> ProtocolStyle {
        use PrimaryAttest as P;
        use ProtocolId as Id;
        use QuorumRule as Q;
        use ReplicaAttest as R;
        use ReplicationFactor as N;
        match self {
            // The reference three-phase protocol and the paper's primary
            // untrusted baseline (§3): `PrePrepare` → `Prepare` → `Commit`,
            // quorums of `2f + 1`, `f + 1` matching replies. Key to §7: it
            // runs consensus instances in parallel, which is why it
            // outperforms every sequential trust-bft protocol despite its
            // extra phase and larger replica count.
            Id::Pbft => ProtocolStyle {
                id: self,
                replication: N::ThreeFPlusOne,
                use_commit_phase: true,
                prepare_quorum_rule: Q::TwoFPlusOne,
                commit_quorum_rule: Q::TwoFPlusOne,
                speculative: false,
                primary_attest: P::None,
                replica_attest: R::None,
                active_subset_only: false,
                reply_quorum: Q::FPlusOne,
                out_of_order: true,
                bft_liveness: true,
            },
            // Speculative BFT: replicas execute the primary's order at once
            // and the client completes with matching replies from all
            // `3f + 1` replicas. A single slow or faulty replica pushes
            // every request onto the slow path, in which the client gathers
            // a commit certificate — the fragility of Figure 7 that Flexi-ZZ
            // removes.
            Id::Zyzzyva => ProtocolStyle {
                id: self,
                use_commit_phase: false,
                speculative: true,
                reply_quorum: Q::AllReplicas,
                ..Id::Pbft.style()
            },
            // PBFT with attested append-only memory (A2M): every outgoing
            // consensus message is logged and carries the log's attestation,
            // which rules out equivocation with `2f + 1` replicas and `f + 1`
            // quorums (§4.2). The price: a trusted access per message
            // (Figure 5), trusted memory that grows with the log (Figure 1),
            // sequential consensus (§7), and quorums of `f + 1` that cannot
            // guarantee client responsiveness (§5).
            Id::PbftEa => ProtocolStyle {
                id: self,
                replication: N::TwoFPlusOne,
                use_commit_phase: true,
                prepare_quorum_rule: Q::FPlusOne,
                commit_quorum_rule: Q::FPlusOne,
                speculative: false,
                primary_attest: P::Log,
                replica_attest: R::Log,
                active_subset_only: false,
                reply_quorum: Q::FPlusOne,
                out_of_order: false,
                bft_liveness: false,
            },
            // Two-phase trust-bft with trusted counters: once proposals are
            // bound to the primary's counter, PBFT's `Commit` phase is
            // redundant and `f + 1` matching `Prepare`s commit (§4.2); each
            // replica binds every outgoing vote to its own counter. The
            // paper demonstrates all three trust-bft limitations on it: a
            // quorum of `f + 1` may hold one honest replica, so a client may
            // never collect `f + 1` matching replies (§5); rolling back the
            // primary's counter re-enables equivocation and breaks safety
            // (§6); in-order counter accesses make consensus sequential (§7).
            Id::MinBft => ProtocolStyle {
                id: self,
                use_commit_phase: false,
                primary_attest: P::HostCounter,
                replica_attest: R::Counter,
                ..Id::PbftEa.style()
            },
            // Zyzzyva on trusted counters with `2f + 1` replicas: replicas
            // execute as soon as they accept the primary's attested
            // `PrePrepare`, and the client needs matching replies from all
            // of them. Like Zyzzyva it collapses to the slow path the moment
            // one replica is slow (Figure 7); like every trust-bft protocol
            // it is sequential (§7) and only weakly responsive (§5).
            Id::MinZz => ProtocolStyle {
                id: self,
                speculative: true,
                reply_quorum: Q::AllReplicas,
                ..Id::MinBft.style()
            },
            // The authors' out-of-order PBFT-EA (§9.2), built to isolate
            // what sequential consensus costs PBFT-EA. It gains only about
            // 6%: its replicas then bottleneck on trusted-log accesses and
            // their verification, since every received message still costs
            // a MAC check plus an attestation check and every sent one a
            // trusted log append.
            Id::OpbftEa => ProtocolStyle {
                id: self,
                out_of_order: true,
                ..Id::PbftEa.style()
            },
            // Resource-efficient trust-bft: only `f + 1` replicas are active
            // and run MinBFT's two phases; the other `f` stay passive until
            // a fault forces a protocol switch. Modelled here is the
            // failure-free case: passive replicas accept proposals and learn
            // committed batches but never vote. It shares MinBFT's
            // sequentiality and responsiveness limits (§10).
            Id::CheapBft => ProtocolStyle {
                id: self,
                active_subset_only: true,
                ..Id::MinBft.style()
            },
            // The FlexiTrust conversion of MinBFT (Figure 3): the primary
            // binds each batch with `AppendF`; a backup that accepts the
            // attested proposal is prepared at once and broadcasts a plain
            // `Prepare`; `2f + 1` matching `Prepare`s commit; `f + 1`
            // matching replies complete the client. Back at `3f + 1` with
            // `2f + 1` quorums it restores responsiveness (§5), touches the
            // trusted component once per consensus at the primary only
            // (§6, G2) and keeps many instances in flight (§7, G1).
            Id::FlexiBft => ProtocolStyle {
                id: self,
                replication: N::ThreeFPlusOne,
                use_commit_phase: false,
                prepare_quorum_rule: Q::TwoFPlusOne,
                commit_quorum_rule: Q::TwoFPlusOne,
                speculative: false,
                primary_attest: P::AppendF,
                replica_attest: R::None,
                active_subset_only: false,
                reply_quorum: Q::FPlusOne,
                out_of_order: true,
                bft_liveness: true,
            },
            // The FlexiTrust conversion of MinZZ (Figure 4): every replica
            // that accepts the primary's `AppendF`-attested proposal
            // executes it speculatively and replies; the client needs
            // `2f + 1` of `3f + 1` matching replies, so unlike Zyzzyva and
            // MinZZ the fast path survives `f` unresponsive replicas
            // (Figure 7, §8.3). The view change stays simple: an unhappy
            // client re-broadcasts; replicas answer from their reply cache
            // or forward to the primary and arm a timer; on expiry they vote
            // for a view change, and the new primary creates a fresh counter
            // and re-proposes in order everything that may have committed,
            // filling gaps with no-ops. Replicas that executed a request the
            // new view drops roll back, which is safe because no client can
            // have completed it with fewer than `2f + 1` replies.
            Id::FlexiZz => ProtocolStyle {
                id: self,
                speculative: true,
                reply_quorum: Q::TwoFPlusOne,
                ..Id::FlexiBft.style()
            },
            // The sequential ablations of Figure 6(i): the same rows with
            // parallel consensus turned off, so the primary's window holds
            // one instance.
            Id::OFlexiBft => ProtocolStyle {
                id: self,
                out_of_order: false,
                ..Id::FlexiBft.style()
            },
            Id::OFlexiZz => ProtocolStyle {
                id: self,
                out_of_order: false,
                ..Id::FlexiZz.style()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{ProtocolId, SystemConfig};

    #[test]
    fn every_row_quorum_fits_its_regime() {
        for id in ProtocolId::ALL {
            let style = id.style();
            assert_eq!(style.id, id);
            for f in 1..=64 {
                let config = SystemConfig::for_protocol(id, f);
                for rule in [style.prepare_quorum_rule, style.commit_quorum_rule] {
                    assert!(
                        style.replication.admits_quorum(f, config.quorum(rule)),
                        "{id} {rule:?} at f = {f}"
                    );
                }
            }
        }
    }
}
