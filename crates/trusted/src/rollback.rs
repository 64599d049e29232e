//! Rollback attacks on trusted-component state (§6 of the paper).
//!
//! Existing trust-bft protocols assume trusted-component state is persistent
//! and uncorruptible. On today's hardware that assumption is shaky: SGX
//! enclave memory can be rolled back by a malicious host (power failures,
//! snapshot/restore of sealed state), and the hardware that *does* resist
//! rollback — SGX persistent counters, TPMs — is orders of magnitude slower.
//!
//! [`RollbackControl`] models the capability a malicious host has over its
//! co-located enclave: it can capture the enclave's state and later restore
//! it, *provided the hardware is not rollback-protected*. It cannot forge
//! attestations; after a rollback the enclave will simply re-issue fresh,
//! perfectly valid attestations for counter values it has already attested —
//! which is exactly what re-enables equivocation.

use crate::counter::CounterSet;
use crate::enclave::EnclaveState;
use crate::log::TrustedLog;
use flexitrust_types::{Error, Result};
use parking_lot::Mutex;
use std::sync::Arc;

/// An opaque snapshot of enclave state captured by a (malicious) host.
#[derive(Debug, Clone)]
pub struct RollbackSnapshot {
    counters: CounterSet,
    logs: TrustedLog,
}

impl RollbackSnapshot {
    pub(crate) fn new(counters: CounterSet, logs: TrustedLog) -> Self {
        RollbackSnapshot { counters, logs }
    }

    pub(crate) fn counters(&self) -> &CounterSet {
        &self.counters
    }

    pub(crate) fn logs(&self) -> &TrustedLog {
        &self.logs
    }
}

/// The rollback capability of a malicious host over its enclave.
pub struct RollbackControl {
    state: Arc<Mutex<EnclaveState>>,
    rollback_protected: bool,
}

impl RollbackControl {
    pub(crate) fn new(state: Arc<Mutex<EnclaveState>>, rollback_protected: bool) -> Self {
        RollbackControl {
            state,
            rollback_protected,
        }
    }

    /// Captures the current enclave state (always possible — observing state
    /// is not what rollback protection prevents).
    pub fn snapshot(&self) -> RollbackSnapshot {
        self.state.lock().snapshot()
    }

    /// Restores a previously captured snapshot, rolling the enclave back.
    ///
    /// Fails when the hardware is rollback-protected (SGX persistent
    /// counters, TPM, ADAM-CS); succeeds silently on plain SGX enclave
    /// counters, which is precisely the vulnerability §6 demonstrates.
    pub fn restore(&self, snapshot: &RollbackSnapshot) -> Result<()> {
        if self.rollback_protected {
            return Err(Error::InvalidAttestation {
                context: "hardware is rollback-protected; state restore refused".to_string(),
            });
        }
        self.state.lock().restore(snapshot);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::attestation::AttestationMode;
    use crate::enclave::{Enclave, EnclaveConfig};
    use crate::hardware::TrustedHardware;
    use flexitrust_types::{Digest, ReplicaId};

    #[test]
    fn rollback_reenables_equivocation_on_vulnerable_hardware() {
        // The §6 scenario at the level of the trusted component itself: after
        // a rollback, the enclave re-issues an attestation for a counter
        // value it has already bound to a *different* digest, and both
        // attestations verify.
        let enclave = Enclave::shared(EnclaveConfig::counter_only(
            ReplicaId(0),
            AttestationMode::Real,
        ));
        let registry = crate::attestation::EnclaveRegistry::deterministic(1, AttestationMode::Real);
        let control = enclave.rollback_control();

        let snap = control.snapshot();
        let (v1, att_t) = enclave.append_f(0, Digest::from_u64_tag(0xAAAA)).unwrap();

        control.restore(&snap).unwrap();
        let (v2, att_t_prime) = enclave.append_f(0, Digest::from_u64_tag(0xBBBB)).unwrap();

        assert_eq!(v1, v2, "both transactions bound to the same counter value");
        assert_ne!(att_t.digest, att_t_prime.digest);
        registry.verify(&att_t).unwrap();
        registry.verify(&att_t_prime).unwrap();
    }

    #[test]
    fn rollback_fails_on_protected_hardware() {
        let enclave = Enclave::shared(
            EnclaveConfig::counter_only(ReplicaId(0), AttestationMode::Counting)
                .with_hardware(TrustedHardware::typical_tpm()),
        );
        let control = enclave.rollback_control();
        let snap = control.snapshot();
        enclave.append_f(0, Digest::from_u64_tag(1)).unwrap();
        assert!(control.restore(&snap).is_err());
        // Counter keeps its post-append value.
        assert_eq!(enclave.counter_value(0), Some(1));
    }

    #[test]
    fn snapshot_captures_logs_too() {
        let enclave = Enclave::shared(EnclaveConfig::log_based(
            ReplicaId(0),
            AttestationMode::Counting,
        ));
        let control = enclave.rollback_control();
        enclave
            .log_append(0, None, Digest::from_u64_tag(1))
            .unwrap();
        let snap = control.snapshot();
        enclave
            .log_append(0, None, Digest::from_u64_tag(2))
            .unwrap();
        control.restore(&snap).unwrap();
        // Slot 2 is free again after the rollback.
        let att = enclave
            .log_append(0, None, Digest::from_u64_tag(99))
            .unwrap();
        assert_eq!(att.value, 2);
        assert_eq!(att.digest, Digest::from_u64_tag(99));
    }
}
