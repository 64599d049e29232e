//! The §6 rollback attack on trusted-component state.
//!
//! A Byzantine primary whose enclave is not rollback-protected (plain SGX
//! enclave counters) snapshots the enclave state, gets an attestation for
//! transaction `T` at sequence number 1, shows it to one half of the honest
//! replicas, restores the snapshot, gets an equally valid attestation for a
//! different transaction `T'` at the *same* sequence number, and shows that
//! to the other half. In MinBFT (`n = 2f + 1`, quorums of `f + 1`) both
//! halves commit and execute, so two honest replicas execute different
//! transactions at the same sequence number — a safety violation. In
//! Flexi-BFT the same rollback produces the same pair of attestations, but a
//! commit needs `2f + 1` of `3f + 1` replicas, and two such quorums always
//! share an honest replica that accepts only one proposal per slot — so at
//! most one of the conflicting transactions can ever commit.

use flexitrust_crypto::make_batch;
use flexitrust_protocol::host::build_replica;
use flexitrust_protocol::{Message, Outbox};
use flexitrust_trusted::{
    Attestation, AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, TrustedHardware,
};
use flexitrust_types::{
    Batch, ClientId, Digest, KvOp, ProtocolId, ReplicaId, RequestId, SeqNum, SystemConfig,
    Transaction, View,
};
use std::sync::Arc;

/// Outcome of the rollback attack against one protocol.
#[derive(Debug, Clone)]
pub struct RollbackReport {
    /// The protocol that was attacked.
    pub protocol: ProtocolId,
    /// Whether the enclave allowed the rollback (hardware dependent).
    pub rollback_succeeded: bool,
    /// The sequence number both conflicting proposals were bound to.
    pub seq: SeqNum,
    /// Digests of the two conflicting proposals.
    pub digests: (Digest, Digest),
    /// How many honest replicas executed the first proposal.
    pub executed_t: usize,
    /// How many honest replicas executed the conflicting proposal.
    pub executed_t_prime: usize,
    /// Whether the two conflicting proposals both gathered enough support to
    /// *commit* (execute as final) at honest replicas.
    pub safety_violated: bool,
}

fn txn(tag: u64) -> Transaction {
    Transaction::new(
        ClientId(9),
        RequestId(tag),
        KvOp::Update {
            key: tag,
            value: vec![tag as u8].into(),
        },
    )
}

/// Builds the two conflicting attested proposals `T` and `T'` by rolling
/// back the primary's enclave between them. Returns `None` if the hardware
/// refused the rollback.
fn equivocating_proposals(hardware: TrustedHardware) -> Option<[(Batch, Attestation); 2]> {
    let primary_enclave = Enclave::shared(
        EnclaveConfig::counter_only(ReplicaId(0), AttestationMode::Real).with_hardware(hardware),
    );
    let control = primary_enclave.rollback_control();
    let snapshot = control.snapshot();

    let batch_t = make_batch(vec![txn(1)]);
    let (seq_t, att_t) = primary_enclave
        .append_f(0, batch_t.digest())
        .expect("fresh counter accepts the first append");

    if control.restore(&snapshot).is_err() {
        return None;
    }

    let batch_t_prime = make_batch(vec![txn(2)]);
    let (seq_t_prime, att_t_prime) = primary_enclave
        .append_f(0, batch_t_prime.digest())
        .expect("rolled-back counter accepts the conflicting append");
    assert_eq!(seq_t, seq_t_prime, "both proposals bind to the same slot");
    Some([(batch_t, att_t), (batch_t_prime, att_t_prime)])
}

/// Runs the rollback attack against MinBFT with fault threshold `f`.
///
/// The primary shows `T` to the first `f` backups and `T'` to the remaining
/// `f`; with itself voting for both, each half holds an `f + 1` prepare
/// quorum and commits, violating safety (unless the hardware is
/// rollback-protected, in which case the attack dies at the restore step).
pub fn rollback_attack_minbft(f: usize, hardware: TrustedHardware) -> RollbackReport {
    rollback_attack(ProtocolId::MinBft, f, hardware)
}

/// Runs the same rollback attack against Flexi-BFT with fault threshold `f`.
///
/// The conflicting attestations exist just the same, but no split of the
/// `3f` honest backups gives both proposals a `2f + 1` commit quorum, so at
/// most one of them can execute at honest replicas.
pub fn rollback_attack_flexibft(f: usize, hardware: TrustedHardware) -> RollbackReport {
    rollback_attack(ProtocolId::FlexiBft, f, hardware)
}

/// The attack against a two-phase `protocol`: the adversary splits the
/// honest backups as evenly as it can — the first half sees `T`, the rest
/// `T'` — lets each half hear only its own half's `Prepare`s, and votes for
/// both proposals itself. (The two-phase shape says nothing about a
/// speculative protocol, whose execution is not a commit.)
fn rollback_attack(protocol: ProtocolId, f: usize, hardware: TrustedHardware) -> RollbackReport {
    let Some(proposals) = equivocating_proposals(hardware) else {
        return RollbackReport {
            protocol,
            rollback_succeeded: false,
            seq: SeqNum(1),
            digests: (Digest::ZERO, Digest::ZERO),
            executed_t: 0,
            executed_t_prime: 0,
            safety_violated: false,
        };
    };

    let mut config = SystemConfig::for_protocol(protocol, f);
    config.batch_size = 1;
    let config = Arc::new(config);
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Real);
    // Honest backups 1..n; the Byzantine primary is replica 0.
    let mut backups: Vec<_> = (1..config.n as u32)
        .map(|i| {
            build_replica(
                Arc::clone(&config),
                ReplicaId(i),
                registry.clone(),
                hardware,
            )
            .engine
        })
        .collect();
    let split = backups.len() / 2;
    let half = |i: usize| usize::from(i >= split);

    // Each backup accepts its half's proposal and votes for it.
    let mut prepares: [Vec<(ReplicaId, Message)>; 2] = Default::default();
    for (i, backup) in backups.iter_mut().enumerate() {
        let (batch, att) = &proposals[half(i)];
        let preprepare = Message::PrePrepare {
            view: View(0),
            seq: SeqNum(1),
            batch: batch.clone(),
            attestation: Some(att.clone()),
        };
        let mut out = Outbox::new();
        backup.on_message(ReplicaId(0), preprepare, &mut out);
        let votes = out
            .broadcasts()
            .into_iter()
            .filter(|m| m.kind() == "Prepare");
        prepares[half(i)].extend(votes.map(|m| (backup.id(), m.clone())));
    }
    // The Byzantine primary adds its own attested Prepare to both halves.
    for (votes, (batch, att)) in prepares.iter_mut().zip(&proposals) {
        votes.push((
            ReplicaId(0),
            Message::Prepare {
                view: View(0),
                seq: SeqNum(1),
                digest: batch.digest(),
                attestation: Some(att.clone()),
            },
        ));
    }

    // Deliver each half's Prepares within that half only (the adversary
    // schedules messages, §6) and count who executes what.
    let mut executed = [0; 2];
    for (i, backup) in backups.iter_mut().enumerate() {
        for (from, msg) in &prepares[half(i)] {
            backup.on_message(*from, msg.clone(), &mut Outbox::new());
        }
        if backup.last_executed() >= SeqNum(1) {
            executed[half(i)] += 1;
        }
    }

    RollbackReport {
        protocol,
        rollback_succeeded: true,
        seq: SeqNum(1),
        digests: (proposals[0].0.digest(), proposals[1].0.digest()),
        executed_t: executed[0],
        executed_t_prime: executed[1],
        safety_violated: executed[0] > 0 && executed[1] > 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minbft_loses_safety_on_rollbackable_hardware() {
        let report = rollback_attack_minbft(2, TrustedHardware::default_enclave());
        assert!(report.rollback_succeeded);
        assert_ne!(report.digests.0, report.digests.1);
        assert!(report.executed_t >= 1);
        assert!(report.executed_t_prime >= 1);
        assert!(report.safety_violated);
    }

    #[test]
    fn minbft_is_safe_on_rollback_protected_hardware() {
        let report = rollback_attack_minbft(2, TrustedHardware::typical_tpm());
        assert!(!report.rollback_succeeded);
        assert!(!report.safety_violated);
    }

    #[test]
    fn flexi_bft_survives_the_same_rollback() {
        let report = rollback_attack_flexibft(2, TrustedHardware::default_enclave());
        // The attestations equivocate just the same...
        assert!(report.rollback_succeeded);
        assert_ne!(report.digests.0, report.digests.1);
        // ...but no conflicting pair can both commit.
        assert!(!report.safety_violated, "{report:?}");
        assert_eq!(report.executed_t, 0);
        assert_eq!(report.executed_t_prime, 0);
    }
}
