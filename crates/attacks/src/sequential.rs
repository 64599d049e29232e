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
use flexitrust_host::build_replica;
use flexitrust_protocol::{Message, Outbox};
use flexitrust_trusted::{
    AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, TrustedHardware,
};
use flexitrust_types::{
    ClientId, KvOp, ProtocolId, ReplicaId, RequestId, SeqNum, SystemConfig, Transaction, View,
};
use std::sync::Arc;

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
pub fn out_of_order_probe_minbft(f: usize) -> SequentialReport {
    probe(ProtocolId::MinBft, f)
}

/// Probes Flexi-ZZ with the same out-of-order delivery.
pub fn out_of_order_probe_flexizz(f: usize) -> SequentialReport {
    probe(ProtocolId::FlexiZz, f)
}

/// Convenience wrapper used by the benches: probes both protocols.
pub fn out_of_order_probe(f: usize) -> (SequentialReport, SequentialReport) {
    (out_of_order_probe_minbft(f), out_of_order_probe_flexizz(f))
}

/// Delivers the proposals for sequence numbers 2 and then 1 to backup 1 of
/// a `protocol` cluster and reads its trusted counter's rejections.
fn probe(protocol: ProtocolId, f: usize) -> SequentialReport {
    let mut config = SystemConfig::for_protocol(protocol, f);
    config.batch_size = 1;
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Real);
    let backup = build_replica(
        protocol,
        Arc::new(config),
        ReplicaId(1),
        registry,
        TrustedHardware::default_enclave(),
    );
    let (mut engine, enclave) = (backup.engine, backup.enclave);

    // The (honest but concurrent) primary attested both proposals in order.
    let primary = Enclave::shared(EnclaveConfig::counter_only(
        ReplicaId(0),
        AttestationMode::Real,
    ));
    let proposals = [1, 2].map(|k| {
        let batch = make_batch(vec![Transaction::new(
            ClientId(1),
            RequestId(k),
            KvOp::Read { key: k },
        )]);
        let (seq, att) = primary.append_f(0, batch.digest()).expect("fresh counter");
        (SeqNum(seq), batch, att)
    });

    // Deliver out of order: seq 2 first, then seq 1.
    let mut out = Outbox::new();
    for (seq, batch, att) in proposals.into_iter().rev() {
        let preprepare = Message::PrePrepare {
            view: View(0),
            seq,
            batch,
            attestation: Some(att),
        };
        engine.on_message(ReplicaId(0), preprepare, &mut out);
    }

    SequentialReport {
        protocol,
        tc_rejections: enclave.map_or(0, |e| e.stats().snapshot().rejected),
        both_executed: engine.last_executed() >= SeqNum(2),
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
