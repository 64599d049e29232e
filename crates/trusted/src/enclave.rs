//! The per-replica trusted component ("enclave").
//!
//! An [`Enclave`] packages the pure counter/log state with attestation
//! signing, access statistics, the hardware latency model and — for the §6
//! attack analysis — an explicit rollback handle. Protocol engines hold a
//! [`SharedEnclave`] and call it exactly where the paper's pseudo-code says
//! the trusted component is accessed; everything else (who pays how much
//! latency for those accesses) is derived from the recorded statistics.

use crate::attestation::{sign_attestation, AttestKind, Attestation, AttestationMode};
use crate::counter::CounterSet;
use crate::hardware::TrustedHardware;
use crate::log::TrustedLog;
use crate::rollback::{RollbackControl, RollbackSnapshot};
use crate::stats::{TcAccessKind, TcStats};
use flexitrust_types::{Digest, PrimaryAttest, ProtocolStyle, ReplicaId, Result};
use parking_lot::Mutex;
use std::sync::Arc;

/// Configuration of one enclave.
#[derive(Debug, Clone)]
pub struct EnclaveConfig {
    /// The replica hosting this enclave.
    pub host: ReplicaId,
    /// Signing mode for attestations (real Ed25519 or counting fingerprints).
    pub mode: AttestationMode,
    /// The hardware class backing the enclave (latency + rollback model).
    pub hardware: TrustedHardware,
    /// Number of monotonic counters to pre-create (identifiers `0..`).
    pub counters: u64,
    /// Number of append-only logs to pre-create (identifiers `0..`).
    pub logs: u64,
}

impl EnclaveConfig {
    /// Counter-only enclave, as used by MinBFT/MinZZ/FlexiTrust: a single
    /// monotonic counter on the paper's default SGX-enclave hardware.
    pub fn counter_only(host: ReplicaId, mode: AttestationMode) -> Self {
        EnclaveConfig {
            host,
            mode,
            hardware: TrustedHardware::default_enclave(),
            counters: 1,
            logs: 0,
        }
    }

    /// Log-based enclave, as used by PBFT-EA: one log per consensus phase
    /// (pre-prepare, prepare, commit) plus one monotonic counter.
    pub fn log_based(host: ReplicaId, mode: AttestationMode) -> Self {
        EnclaveConfig {
            host,
            mode,
            hardware: TrustedHardware::default_enclave(),
            counters: 1,
            logs: 3,
        }
    }

    /// The enclave a replica of `style` holds, chosen by how its primary
    /// attests: none for plain BFT, a log-based one under a trusted log and
    /// a counter-only one under a trusted counter.
    pub fn for_style(
        style: &ProtocolStyle,
        host: ReplicaId,
        mode: AttestationMode,
    ) -> Option<Self> {
        match style.primary_attest {
            PrimaryAttest::None => None,
            PrimaryAttest::Log => Some(Self::log_based(host, mode)),
            PrimaryAttest::HostCounter | PrimaryAttest::AppendF => {
                Some(Self::counter_only(host, mode))
            }
        }
    }

    /// Replaces the hardware model (e.g. for the Figure 8 latency sweep).
    pub fn with_hardware(mut self, hardware: TrustedHardware) -> Self {
        self.hardware = hardware;
        self
    }
}

/// Mutable enclave internals, shared with [`RollbackControl`].
#[derive(Debug)]
pub(crate) struct EnclaveState {
    pub(crate) counters: CounterSet,
    pub(crate) logs: TrustedLog,
}

impl EnclaveState {
    pub(crate) fn snapshot(&self) -> RollbackSnapshot {
        RollbackSnapshot::new(self.counters.snapshot(), self.logs.snapshot())
    }

    pub(crate) fn restore(&mut self, snapshot: &RollbackSnapshot) {
        self.counters.restore(snapshot.counters().clone());
        self.logs.restore(snapshot.logs().clone());
    }
}

/// A trusted component co-located with one replica.
pub struct Enclave {
    host: ReplicaId,
    mode: AttestationMode,
    hardware: TrustedHardware,
    state: Arc<Mutex<EnclaveState>>,
    stats: TcStats,
}

/// Shared handle to an enclave; protocol engines and attack harnesses clone
/// this freely.
pub type SharedEnclave = Arc<Enclave>;

impl Enclave {
    /// Creates an enclave from its configuration.
    pub fn new(config: EnclaveConfig) -> Self {
        Enclave {
            host: config.host,
            mode: config.mode,
            hardware: config.hardware,
            state: Arc::new(Mutex::new(EnclaveState {
                counters: CounterSet::with_counters(config.counters),
                logs: TrustedLog::with_logs(config.logs),
            })),
            stats: TcStats::new(),
        }
    }

    /// Creates a shared enclave from its configuration.
    pub fn shared(config: EnclaveConfig) -> SharedEnclave {
        Arc::new(Enclave::new(config))
    }

    /// The replica hosting this enclave.
    pub fn host(&self) -> ReplicaId {
        self.host
    }

    /// The hardware model backing this enclave.
    pub fn hardware(&self) -> TrustedHardware {
        self.hardware
    }

    /// Latency of one access, in microseconds, per the hardware model.
    pub fn access_latency_us(&self) -> u64 {
        self.hardware.access_latency_us()
    }

    /// Access statistics (shared; cheap to clone).
    pub fn stats(&self) -> &TcStats {
        &self.stats
    }

    /// Approximate in-enclave memory use of counters and logs in bytes.
    pub fn memory_bytes(&self) -> usize {
        let state = self.state.lock();
        state.counters.memory_bytes() + state.logs.memory_bytes()
    }

    /// Current value of counter `q`.
    pub fn counter_value(&self, q: u64) -> Option<u64> {
        self.state.lock().counters.value(q)
    }

    fn attest(&self, counter: u64, value: u64, digest: Digest, kind: AttestKind) -> Attestation {
        let bytes = Attestation::signed_bytes(self.host, counter, value, &digest, kind);
        Attestation {
            host: self.host,
            counter,
            value,
            digest,
            kind,
            signature: sign_attestation(self.host, self.mode, &bytes),
        }
    }

    /// trust-bft `Append(q, k_new, x)` on a monotonic counter: the host
    /// proposes the new value; the enclave enforces monotonicity and returns
    /// `⟨Attest(q, k_new, x)⟩`.
    pub fn append(&self, q: u64, k_new: u64, digest: Digest) -> Result<Attestation> {
        let result = self.state.lock().counters.append(q, k_new, digest);
        match result {
            Ok(value) => {
                self.stats.record(TcAccessKind::CounterAppend);
                Ok(self.attest(q, value, digest, AttestKind::CounterBind))
            }
            Err(e) => {
                self.stats.record_rejected();
                Err(e)
            }
        }
    }

    /// FlexiTrust `AppendF(q, x)`: the enclave increments counter `q`
    /// internally and returns the new value together with its attestation.
    pub fn append_f(&self, q: u64, digest: Digest) -> Result<(u64, Attestation)> {
        let result = self.state.lock().counters.append_f(q, digest);
        match result {
            Ok(value) => {
                self.stats.record(TcAccessKind::CounterAppendF);
                Ok((
                    value,
                    self.attest(q, value, digest, AttestKind::CounterBind),
                ))
            }
            Err(e) => {
                self.stats.record_rejected();
                Err(e)
            }
        }
    }

    /// `Create(k)`: creates a fresh counter with initial value `initial` and
    /// returns its identifier and a creation attestation.
    pub fn create_counter(&self, initial: u64) -> (u64, Attestation) {
        let q = self.state.lock().counters.create(initial);
        self.stats.record(TcAccessKind::CounterCreate);
        (
            q,
            self.attest(q, initial, Digest::ZERO, AttestKind::CounterCreate),
        )
    }

    /// Append to trusted log `q` (PBFT-EA style); `slot = None` appends at
    /// the next slot. Returns an attestation of the stored slot.
    pub fn log_append(&self, q: u64, slot: Option<u64>, digest: Digest) -> Result<Attestation> {
        let result = self.state.lock().logs.append(q, slot, digest);
        match result {
            Ok(k) => {
                self.stats.record(TcAccessKind::LogAppend);
                Ok(self.attest(q, k, digest, AttestKind::LogSlot))
            }
            Err(e) => {
                self.stats.record_rejected();
                Err(e)
            }
        }
    }

    /// `Lookup(q, k)` on a trusted log: returns an attestation of the digest
    /// stored at slot `k`.
    pub fn log_lookup(&self, q: u64, k: u64) -> Result<Attestation> {
        let result = self.state.lock().logs.lookup(q, k);
        match result {
            Ok(digest) => {
                self.stats.record(TcAccessKind::LogLookup);
                Ok(self.attest(q, k, digest, AttestKind::LogSlot))
            }
            Err(e) => {
                self.stats.record_rejected();
                Err(e)
            }
        }
    }

    /// Truncates trusted logs up to (and including) `slot`; called when a
    /// stable checkpoint is reached.
    pub fn truncate_logs(&self, slot: u64) {
        self.state.lock().logs.truncate(slot);
    }

    /// Returns the rollback handle a *malicious host* would have over this
    /// enclave's state (§6). Rolling back only succeeds when the hardware
    /// model is not rollback-protected.
    pub fn rollback_control(self: &Arc<Self>) -> RollbackControl {
        RollbackControl::new(Arc::clone(&self.state), self.hardware.rollback_protected())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attestation::EnclaveRegistry;

    fn enclave(mode: AttestationMode) -> SharedEnclave {
        Enclave::shared(EnclaveConfig::counter_only(ReplicaId(1), mode))
    }

    #[test]
    fn append_f_produces_verifiable_contiguous_attestations() {
        let e = enclave(AttestationMode::Real);
        let registry = EnclaveRegistry::deterministic(4, AttestationMode::Real);
        for expected in 1..=5u64 {
            let (value, att) = e.append_f(0, Digest::from_u64_tag(expected)).unwrap();
            assert_eq!(value, expected);
            assert_eq!(att.value, expected);
            registry.verify(&att).unwrap();
        }
        assert_eq!(e.stats().snapshot().counter_append_fs, 5);
    }

    #[test]
    fn append_enforces_monotonicity_and_counts_rejections() {
        let e = enclave(AttestationMode::Counting);
        e.append(0, 3, Digest::ZERO).unwrap();
        assert!(e.append(0, 2, Digest::ZERO).is_err());
        let snap = e.stats().snapshot();
        assert_eq!(snap.counter_appends, 1);
        assert_eq!(snap.rejected, 1);
    }

    #[test]
    fn create_counter_returns_fresh_ids_with_attestations() {
        let e = enclave(AttestationMode::Real);
        let registry = EnclaveRegistry::deterministic(4, AttestationMode::Real);
        let (q1, att1) = e.create_counter(10);
        let (q2, att2) = e.create_counter(20);
        assert_ne!(q1, q2);
        assert_eq!(att1.kind, AttestKind::CounterCreate);
        registry.verify(&att1).unwrap();
        registry.verify(&att2).unwrap();
        assert_eq!(e.counter_value(q1), Some(10));
    }

    #[test]
    fn log_roundtrip_with_attested_lookup() {
        let e = Enclave::shared(EnclaveConfig::log_based(
            ReplicaId(2),
            AttestationMode::Real,
        ));
        let registry = EnclaveRegistry::deterministic(4, AttestationMode::Real);
        let a1 = e.log_append(0, None, Digest::from_u64_tag(1)).unwrap();
        assert_eq!(a1.value, 1);
        let looked_up = e.log_lookup(0, 1).unwrap();
        assert_eq!(looked_up.digest, Digest::from_u64_tag(1));
        registry.verify(&looked_up).unwrap();
        assert!(e.log_lookup(0, 5).is_err());
        let snap = e.stats().snapshot();
        assert_eq!(snap.log_appends, 1);
        assert_eq!(snap.log_lookups, 1);
        assert_eq!(snap.rejected, 1);
    }

    #[test]
    fn truncation_reduces_memory() {
        let e = Enclave::shared(EnclaveConfig::log_based(
            ReplicaId(0),
            AttestationMode::Counting,
        ));
        for _ in 0..50 {
            e.log_append(0, None, Digest::ZERO).unwrap();
        }
        let before = e.memory_bytes();
        e.truncate_logs(50);
        assert!(e.memory_bytes() < before);
    }

    #[test]
    fn latency_follows_hardware_model() {
        let cfg = EnclaveConfig::counter_only(ReplicaId(0), AttestationMode::Counting)
            .with_hardware(TrustedHardware::Custom {
                access_us: 12_345,
                rollback_protected: true,
            });
        let e = Enclave::shared(cfg);
        assert_eq!(e.access_latency_us(), 12_345);
    }

    #[test]
    fn counter_only_config_has_no_logs() {
        let e = enclave(AttestationMode::Counting);
        assert!(e.log_append(0, None, Digest::ZERO).is_err());
        assert_eq!(e.host(), ReplicaId(1));
    }
}
