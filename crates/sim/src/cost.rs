//! The per-message CPU cost model.
//!
//! ResilientDB replicas spend their CPU on MAC verification, digital
//! signature verification (client requests and trusted-component
//! attestations), hashing, message (de)serialisation and execution. The
//! paper's Figure 5 quantifies how adding trusted-counter accesses and
//! signature attestations to PBFT halves single-thread throughput; this cost
//! model is calibrated so the same experiment shows the same relative drop.
//!
//! All costs are expressed in nanoseconds of CPU time on one worker thread.

use flexitrust_protocol::{Action, Message};

/// CPU cost parameters (nanoseconds per operation).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fixed cost of receiving and dispatching any message.
    pub base_receive_ns: u64,
    /// Verifying the channel MAC of a received message.
    pub mac_verify_ns: u64,
    /// Computing the MAC of an outgoing message (per destination).
    pub mac_compute_ns: u64,
    /// Verifying one Ed25519 signature (attestation or client request).
    pub sig_verify_ns: u64,
    /// Producing one Ed25519 signature.
    pub sig_sign_ns: u64,
    /// Hashing cost per transaction in a batch (digest + bookkeeping).
    pub hash_per_txn_ns: u64,
    /// Executing one transaction against the key-value store.
    pub exec_per_txn_ns: u64,
    /// Per-byte cost of (de)serialisation.
    pub per_byte_ns_x100: u64,
    /// Whether trusted-component attestations are full signatures (`true`,
    /// the default) or cheap in-enclave counters without a DS (used by the
    /// Figure 5 ablation bars that separate "TC" from "TC + SA" costs).
    pub attestations_are_signed: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::calibrated()
    }
}

impl CostModel {
    /// Costs calibrated against a 16-core cloud VM of the paper's class:
    /// ~30 µs per Ed25519 verify, ~1 µs per HMAC, ~0.5 µs per txn of
    /// execution work.
    pub fn calibrated() -> Self {
        CostModel {
            base_receive_ns: 2_000,
            mac_verify_ns: 1_000,
            mac_compute_ns: 800,
            sig_verify_ns: 30_000,
            sig_sign_ns: 25_000,
            hash_per_txn_ns: 400,
            exec_per_txn_ns: 500,
            per_byte_ns_x100: 5,
            attestations_are_signed: true,
        }
    }

    /// A variant where attestations carry no digital signature (only the
    /// trusted-counter access is paid); used by Figure 5 bar `[b]`.
    pub fn unsigned_attestations() -> Self {
        CostModel {
            attestations_are_signed: false,
            ..Self::calibrated()
        }
    }

    /// CPU nanoseconds to receive, authenticate and process `msg`.
    pub(crate) fn receive_cost_ns(&self, msg: &Message) -> u64 {
        let mut cost = self.base_receive_ns + self.mac_verify_ns;
        cost += (flexitrust_wire::message_wire_size(msg) as u64 * self.per_byte_ns_x100) / 100;
        let attestations = msg.attestation_count() as u64;
        if self.attestations_are_signed {
            cost += attestations * self.sig_verify_ns;
        }
        if let Message::PrePrepare { batch, .. } = msg {
            // Recompute the batch digest to validate it.
            cost += batch.len() as u64 * self.hash_per_txn_ns;
        }
        cost
    }

    /// CPU nanoseconds for the actions one engine invocation emitted in a
    /// cluster of `replicas`: each send to its destinations (a broadcast's
    /// copy to the sender itself is free) and each executed batch.
    pub(crate) fn actions_cost_ns(&self, actions: &[Action], replicas: usize) -> u64 {
        let cost = |action: &Action| match action {
            Action::Send { msg, .. } => self.send_cost_ns(msg, 1),
            Action::Broadcast { msg } => self.send_cost_ns(msg, replicas.saturating_sub(1)),
            Action::Executed { txns, .. } => self.execution_cost_ns(*txns),
            Action::Reply { .. } | Action::SetTimer { .. } | Action::CancelTimer { .. } => 0,
        };
        actions.iter().map(cost).sum()
    }

    /// CPU nanoseconds to prepare and send `msg` to `destinations` replicas.
    fn send_cost_ns(&self, msg: &Message, destinations: usize) -> u64 {
        let mut cost = destinations as u64 * self.mac_compute_ns;
        cost += (flexitrust_wire::message_wire_size(msg) as u64 * self.per_byte_ns_x100) / 100;
        if let Message::PrePrepare { batch, .. } = msg {
            cost += batch.len() as u64 * self.hash_per_txn_ns;
        }
        cost
    }

    /// CPU nanoseconds for the attestation *generation* work of one trusted
    /// component access (in addition to the hardware access latency charged
    /// separately): signing inside the enclave when attestations are signed.
    pub(crate) fn attestation_generation_ns(&self) -> u64 {
        if self.attestations_are_signed {
            self.sig_sign_ns
        } else {
            0
        }
    }

    /// CPU nanoseconds to execute `txns` transactions.
    fn execution_cost_ns(&self, txns: usize) -> u64 {
        txns as u64 * self.exec_per_txn_ns
    }

    /// CPU nanoseconds to batch and admit `txns` incoming client
    /// transactions at the primary (request authentication is the dominant
    /// term; ResilientDB verifies client request MACs).
    pub(crate) fn client_request_cost_ns(&self, txns: usize) -> u64 {
        txns as u64 * (self.mac_verify_ns + self.hash_per_txn_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_crypto::make_batch;
    use flexitrust_trusted::{AttestKind, Attestation};
    use flexitrust_types::{
        ClientId, Digest, KvOp, ReplicaId, RequestId, SeqNum, Transaction, View,
    };

    fn batch(n: usize) -> flexitrust_types::Batch {
        make_batch(
            (0..n)
                .map(|i| Transaction::new(ClientId(1), RequestId(i as u64), KvOp::Read { key: 1 }))
                .collect(),
        )
    }

    fn attested_prepare() -> Message {
        Message::Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            attestation: Some(Attestation {
                host: ReplicaId(0),
                counter: 0,
                value: 1,
                digest: Digest::ZERO,
                kind: AttestKind::CounterBind,
                signature: flexitrust_crypto::Signature::zero(),
            }),
        }
    }

    #[test]
    fn attested_messages_cost_more_to_receive() {
        let model = CostModel::calibrated();
        let plain = Message::Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            attestation: None,
        };
        let attested = attested_prepare();
        assert!(model.receive_cost_ns(&attested) > model.receive_cost_ns(&plain));
        assert!(
            model.receive_cost_ns(&attested) - model.receive_cost_ns(&plain) >= model.sig_verify_ns
        );
    }

    #[test]
    fn unsigned_attestation_variant_removes_the_ds_cost() {
        let signed = CostModel::calibrated();
        let unsigned = CostModel::unsigned_attestations();
        let msg = attested_prepare();
        assert!(unsigned.receive_cost_ns(&msg) < signed.receive_cost_ns(&msg));
        assert_eq!(unsigned.attestation_generation_ns(), 0);
        assert!(signed.attestation_generation_ns() > 0);
    }

    #[test]
    fn preprepare_cost_scales_with_batch_size() {
        let model = CostModel::calibrated();
        let small = Message::PrePrepare {
            view: View(0),
            seq: SeqNum(1),
            batch: batch(10),
            attestation: None,
        };
        let large = Message::PrePrepare {
            view: View(0),
            seq: SeqNum(1),
            batch: batch(1000),
            attestation: None,
        };
        assert!(model.receive_cost_ns(&large) > model.receive_cost_ns(&small) * 10);
    }

    #[test]
    fn send_cost_scales_with_destination_count() {
        let model = CostModel::calibrated();
        let msg = attested_prepare();
        assert!(model.send_cost_ns(&msg, 96) > model.send_cost_ns(&msg, 3));
    }

    #[test]
    fn an_invocation_costs_the_sum_of_its_actions() {
        let model = CostModel::calibrated();
        let msg = attested_prepare();
        let actions = [
            Action::Broadcast { msg: msg.clone() },
            Action::Send {
                to: ReplicaId(2),
                msg: msg.clone(),
            },
            Action::Executed {
                seq: SeqNum(1),
                txns: 5,
            },
            Action::CancelTimer {
                timer: flexitrust_protocol::TimerKind::ViewChange,
            },
        ];
        // A broadcast in a cluster of four reaches three peers.
        let sends = model.send_cost_ns(&msg, 3) + model.send_cost_ns(&msg, 1);
        let expected = sends + model.execution_cost_ns(5);
        assert_eq!(model.actions_cost_ns(&actions, 4), expected);
        assert_eq!(model.actions_cost_ns(&[], 4), 0);
    }

    #[test]
    fn execution_and_client_costs_scale_with_txns() {
        let model = CostModel::calibrated();
        assert_eq!(model.execution_cost_ns(100), 100 * model.exec_per_txn_ns);
        assert!(model.client_request_cost_ns(100) > model.client_request_cost_ns(1));
    }
}
