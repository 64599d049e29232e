//! The §5 restricted-responsiveness attack (Figure 2).
//!
//! Setup (Claim 1 of the paper), for a trust-bft protocol with `n = 2f + 1`:
//! the `f` Byzantine replicas (including the primary) withhold every message
//! from a set `D` of `f` honest replicas, and the one remaining honest
//! replica `r`'s messages towards `D` are delayed. The Byzantine replicas
//! and `r` commit and execute the transaction, but only `r` replies — one
//! reply, when the client needs `f + 1` matching ones. The replicas in `D`
//! eventually complain, but they are only `f` strong, one short of the
//! `f + 1` view-change quorum, so no view change rescues the client either.
//!
//! For a `3f + 1` protocol the same adversary controls only `f` of `3f + 1`
//! replicas; the `2f + 1` quorum the protocol needs necessarily contains
//! `f + 1` honest replicas, all of which execute and reply.

use crate::harness::drive;
use flexitrust_protocol::{ClientLibrary, ConsensusEngine, RequestStatus};
use flexitrust_sim::{build_replicas, ChaosPlan, ScenarioSpec};
use flexitrust_types::{ClientId, KvOp, ProtocolId, ReplicaId, RequestId, Transaction};

/// Outcome of the responsiveness scenario for one protocol.
#[derive(Debug, Clone)]
pub struct ResponsivenessReport {
    /// The protocol under attack.
    pub protocol: ProtocolId,
    /// Number of replicas.
    pub n: usize,
    /// Fault threshold.
    pub f: usize,
    /// Matching replies the client managed to collect.
    pub matching_replies: usize,
    /// Matching replies the client needs to accept the result.
    pub replies_needed: usize,
    /// View-change votes observed on the wire (the complaining replicas).
    pub view_change_votes: usize,
    /// View-change votes needed for a view change to proceed: `n − f`.
    pub view_change_quorum: usize,
}

impl ResponsivenessReport {
    /// Whether the client received enough matching replies (RSM liveness).
    pub fn client_responsive(&self) -> bool {
        self.matching_replies >= self.replies_needed
    }

    /// Whether the complaining replicas could force a view change.
    pub fn view_change_possible(&self) -> bool {
        self.view_change_votes >= self.view_change_quorum
    }

    /// The §5 outcome: the system is stuck from the client's perspective.
    pub fn client_stuck(&self) -> bool {
        !self.client_responsive() && !self.view_change_possible()
    }
}

/// Runs the §5 attack against `protocol` with fault threshold `f`.
pub fn responsiveness_attack(protocol: ProtocolId, f: usize) -> ResponsivenessReport {
    let mut spec = ScenarioSpec::quick_test(protocol);
    spec.f = f;
    spec.batch_size = 1;
    let config = spec.system_config();
    let n = config.n;

    // Byzantine set F: the primary plus the next f-1 replicas.
    let byzantine: Vec<ReplicaId> = (0..f as u32).map(ReplicaId).collect();
    // Victim set D: the last f replicas.
    let victims: Vec<ReplicaId> = ((n - f) as u32..n as u32).map(ReplicaId).collect();
    // The delayed honest replica r: the first replica outside F and D.
    let delayed = ReplicaId(f as u32);
    let plan =
        ChaosPlan::responsiveness_attack(byzantine.clone(), victims.clone(), delayed, 10_000_000);

    let mut engines: Vec<Box<dyn ConsensusEngine>> = build_replicas(&spec)
        .into_iter()
        .map(|setup| setup.engine)
        .collect();

    let txn = Transaction::new(
        ClientId(1),
        RequestId(1),
        KvOp::Update {
            key: 7,
            value: vec![1, 2, 3].into(),
        },
    );
    // The replicas kept in the dark eventually complain (their timers fire);
    // Byzantine replicas of course do not help.
    let timer_targets: Vec<usize> = victims.iter().map(|r| r.as_usize()).collect();
    let obs = drive(
        &mut engines,
        &plan,
        vec![(0, vec![txn])],
        &timer_targets,
        200,
    );

    // The client counts only the replies it can actually receive promptly:
    // replies from Byzantine replicas are withheld from the client as well.
    let rule = engines[0].properties().reply_quorum;
    let mut client = ClientLibrary::new(ClientId(1), &config, rule);
    client.begin(RequestId(1));
    let honest = obs
        .replies
        .iter()
        .filter(|r| !byzantine.contains(&r.replica));
    let matching_replies = honest
        .map(|reply| match client.on_reply(reply) {
            RequestStatus::Pending { matching, .. } | RequestStatus::Complete { matching, .. } => {
                matching
            }
        })
        .max()
        .unwrap_or(0);

    ResponsivenessReport {
        protocol,
        n,
        f,
        matching_replies,
        replies_needed: client.needed(),
        view_change_votes: obs.view_change_votes,
        view_change_quorum: n - f,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minbft_client_is_stuck_under_the_attack() {
        let report = responsiveness_attack(ProtocolId::MinBft, 2);
        assert_eq!(report.n, 5);
        assert!(
            report.matching_replies < report.replies_needed,
            "client got {} of {} needed",
            report.matching_replies,
            report.replies_needed
        );
        assert!(!report.view_change_possible());
        assert!(report.client_stuck());
    }

    #[test]
    fn pbft_ea_client_is_stuck_under_the_attack() {
        let report = responsiveness_attack(ProtocolId::PbftEa, 2);
        assert!(report.client_stuck());
    }

    #[test]
    fn flexi_bft_client_remains_responsive() {
        let report = responsiveness_attack(ProtocolId::FlexiBft, 2);
        assert_eq!(report.n, 7);
        assert!(
            report.client_responsive(),
            "client got {} of {} needed",
            report.matching_replies,
            report.replies_needed
        );
    }

    #[test]
    fn pbft_client_remains_responsive() {
        let report = responsiveness_attack(ProtocolId::Pbft, 2);
        assert!(
            report.client_responsive(),
            "Pbft: {} of {}",
            report.matching_replies,
            report.replies_needed
        );
    }

    #[test]
    fn flexi_zz_result_is_durable_at_f_plus_1_honest_replicas() {
        // Flexi-ZZ's client rule is 2f + 1 replies, so this particular
        // adversary can still deny the *fast* answer; what 3f + 1 buys is
        // that every answer the client could accept is backed by at least
        // f + 1 honest executions, so the result can never be equivocated
        // away and the retry/view-change path can always serve it.
        let report = responsiveness_attack(ProtocolId::FlexiZz, 2);
        assert!(
            report.matching_replies > report.f,
            "only {} honest executions",
            report.matching_replies
        );
        // And unlike the 2f + 1 protocols, enough honest replicas noticed the
        // problem for a view change to be possible once they time out.
        assert!(report.view_change_votes + report.matching_replies >= report.view_change_quorum);
    }

    #[test]
    fn view_change_needs_n_minus_f_of_the_counted_votes() {
        // A view change needs n − f votes: f + 1 of 2f + 1 replicas, but
        // 2f + 1 of 3f + 1. Either way only the f victims complain.
        let pbft = responsiveness_attack(ProtocolId::Pbft, 2);
        assert_eq!((pbft.view_change_votes, pbft.view_change_quorum), (2, 5));
        let minbft = responsiveness_attack(ProtocolId::MinBft, 2);
        assert_eq!(
            (minbft.view_change_votes, minbft.view_change_quorum),
            (2, 3)
        );
    }
}
