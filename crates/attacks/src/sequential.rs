//! The §7 sequentiality probe.
//!
//! trust-bft replicas must bind every accepted proposal to their trusted
//! monotonic counter *in order*: if the proposal for sequence number 2
//! arrives (and is processed) before the proposal for sequence number 1, the
//! counter has already advanced past 1 and the replica's trusted component
//! rejects the later (lower) binding — the consensus for slot 1 can no
//! longer make progress at that replica. FlexiTrust replicas never touch
//! their trusted components on the receive path, so out-of-order proposals
//! are simply parked by the execution queue and executed once the gap fills.

use flexitrust_crypto::make_batch;
use flexitrust_protocol::testing::{cluster, txns, TestNet};
use flexitrust_protocol::Message;
use flexitrust_types::{ProtocolId, ReplicaId, SeqNum, View};

/// Outcome of delivering proposals out of order to one replica.
#[derive(Debug, Clone)]
pub struct SequentialReport {
    /// The protocol probed.
    pub protocol: ProtocolId,
    /// Trusted-component accesses rejected because of ordering.
    pub tc_rejections: u64,
    /// Whether the replica eventually executed both proposals.
    pub both_executed: bool,
}

/// Probes MinBFT: sequence number 2 is delivered before sequence number 1.
pub(crate) fn out_of_order_probe_minbft(f: usize) -> SequentialReport {
    probe(ProtocolId::MinBft, f)
}

/// Probes Flexi-ZZ with the same out-of-order delivery.
pub(crate) fn out_of_order_probe_flexizz(f: usize) -> SequentialReport {
    probe(ProtocolId::FlexiZz, f)
}

/// Convenience wrapper used by the benches: probes both protocols.
pub fn out_of_order_probe(f: usize) -> (SequentialReport, SequentialReport) {
    (out_of_order_probe_minbft(f), out_of_order_probe_flexizz(f))
}

/// Delivers the proposals for sequence numbers 2 and then 1 to backup 1 of
/// a `protocol` cluster and reads its trusted counter's rejections. Both
/// probed protocols give every replica a trusted component.
fn probe(protocol: ProtocolId, f: usize) -> SequentialReport {
    let (mut engines, enclaves) = cluster(protocol, f, |c| c.batch_size = 1);
    let mut net = TestNet::new(engines.len());

    // The (honest but concurrent) primary attested both proposals in order.
    let proposals = [1, 2].map(|k| {
        let batch = make_batch(txns(k..k + 1));
        let (seq, att) = enclaves[0]
            .append_f(0, batch.digest())
            .expect("fresh counter");
        Message::PrePrepare {
            view: View(0),
            seq: SeqNum(seq),
            batch,
            attestation: Some(att),
        }
    });

    // Deliver out of order: seq 2 first, then seq 1.
    for preprepare in proposals.into_iter().rev() {
        net.deliver(&mut engines, 1, ReplicaId(0), preprepare);
    }

    SequentialReport {
        protocol,
        tc_rejections: enclaves[1].stats().snapshot().rejected,
        both_executed: engines[1].last_executed() >= SeqNum(2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minbft_rejects_out_of_order_bindings_at_its_counter() {
        let report = out_of_order_probe_minbft(1);
        assert!(
            report.tc_rejections >= 1,
            "expected at least one rejected TC access, got {report:?}"
        );
    }

    #[test]
    fn flexi_zz_accepts_out_of_order_proposals_without_touching_its_counter() {
        let report = out_of_order_probe_flexizz(1);
        assert_eq!(report.tc_rejections, 0);
        assert!(report.both_executed, "{report:?}");
    }
}
