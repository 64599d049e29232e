//! Attestations and the registry used to verify them.
//!
//! An attestation `⟨Attest(q, k, x)⟩_{t_r}` is a statement signed by the
//! trusted component hosted at replica `r` asserting that counter (or log)
//! `q` holds value `k` bound to digest `x`. Replicas verify attestations by
//! checking the signature against the enclave's public key, which they obtain
//! from the [`EnclaveRegistry`] distributed at system setup.
//!
//! Enclave keys are distinct from replica keys on purpose: a Byzantine host
//! can drop, delay and replay what its enclave produced but can never *forge*
//! an attestation — that is exactly the non-equivocation property trust-bft
//! protocols rely on, and the property a rollback attack (§6) circumvents
//! without ever breaking a signature.

use ed25519_dalek::{Signer, Verifier};
use flexitrust_crypto::Signature;
use flexitrust_types::{Digest, Error, ReplicaId, Result};
use std::fmt;

/// What kind of statement the trusted component is attesting to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttestKind {
    /// A counter advanced to `value`, bound to `digest` (trusted counters).
    CounterBind,
    /// A fresh counter with identifier `counter` was created at `value`.
    CounterCreate,
    /// Log `counter` stores `digest` at slot `value` (trusted logs).
    LogSlot,
}

/// A digitally signed attestation produced by a trusted component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attestation {
    /// The replica hosting the trusted component that produced this.
    pub host: ReplicaId,
    /// The counter or log identifier (`q` in the paper).
    pub counter: u64,
    /// The attested counter value or log slot (`k` in the paper).
    pub value: u64,
    /// The digest bound to the value (`x` / `Δ` in the paper).
    pub digest: Digest,
    /// What is being attested.
    pub kind: AttestKind,
    /// Signature by the trusted component over the canonical encoding.
    pub signature: Signature,
}

impl Attestation {
    /// Exact wire size of an attestation in bytes: host id (4) + counter id
    /// (8) + value (8) + digest (32) + kind tag (1) + Ed25519 signature (64).
    /// The protocol layer's `Message::wire_size_bytes` and the simulator's
    /// bandwidth model derive message sizes from this.
    pub const WIRE_SIZE: usize = 4 + 8 + 8 + 32 + 1 + 64;

    /// The canonical byte encoding that is signed by the enclave.
    pub fn signed_bytes(
        host: ReplicaId,
        counter: u64,
        value: u64,
        digest: &Digest,
        kind: AttestKind,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 8 + 8 + 32 + 1);
        out.extend_from_slice(&host.0.to_le_bytes());
        out.extend_from_slice(&counter.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
        out.extend_from_slice(digest.as_bytes());
        out.push(match kind {
            AttestKind::CounterBind => 0,
            AttestKind::CounterCreate => 1,
            AttestKind::LogSlot => 2,
        });
        out
    }

    /// The canonical bytes of *this* attestation.
    pub fn bytes_to_sign(&self) -> Vec<u8> {
        Self::signed_bytes(self.host, self.counter, self.value, &self.digest, self.kind)
    }

    /// Wire size in bytes (used by the simulator bandwidth model).
    pub fn wire_size(&self) -> usize {
        Self::WIRE_SIZE
    }
}

impl fmt::Display for Attestation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Attest(host={}, q={}, k={}, x={})",
            self.host,
            self.counter,
            self.value,
            self.digest.short_hex()
        )
    }
}

/// How enclaves sign attestations.
///
/// `Real` uses Ed25519; `Counting` uses a cheap keyed fingerprint, letting
/// the simulator verify structural integrity without paying for public-key
/// cryptography on every simulated message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttestationMode {
    /// Ed25519 signatures (threaded runtime, correctness tests).
    Real,
    /// Deterministic fingerprints with operation counting (simulator).
    Counting,
}

/// Registry of enclave verifying keys; every replica holds a handle so it
/// can verify attestations produced by any other replica's trusted
/// component. The key table sits behind an `Arc`: cloning the registry for
/// each of n replicas is a reference-count bump, not n copies of the
/// table.
#[derive(Clone)]
pub struct EnclaveRegistry {
    mode: AttestationMode,
    keys: std::sync::Arc<[ed25519_dalek::VerifyingKey]>,
}

impl EnclaveRegistry {
    /// Builds a registry for `n` replicas with deterministic enclave keys.
    ///
    /// Enclave signing keys are derived deterministically from the replica
    /// index so that tests and simulations are reproducible; see
    /// [`enclave_signing_key`].
    pub fn deterministic(n: usize, mode: AttestationMode) -> Self {
        let keys = (0..n)
            .map(|i| enclave_signing_key(ReplicaId(i as u32)).verifying_key())
            .collect();
        EnclaveRegistry { mode, keys }
    }

    /// The attestation mode of this deployment.
    pub fn mode(&self) -> AttestationMode {
        self.mode
    }

    /// Number of registered enclaves.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` when no enclaves are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Verifies an attestation against the registered enclave key.
    pub fn verify(&self, attestation: &Attestation) -> Result<()> {
        let bytes = attestation.bytes_to_sign();
        match self.mode {
            AttestationMode::Real => {
                let key =
                    self.keys
                        .get(attestation.host.as_usize())
                        .ok_or(Error::UnknownReplica {
                            replica: attestation.host,
                        })?;
                let sig = ed25519_dalek::Signature::from_bytes(attestation.signature.as_bytes());
                key.verify(&bytes, &sig)
                    .map_err(|_| Error::InvalidAttestation {
                        context: format!("bad enclave signature from {}", attestation.host),
                    })
            }
            AttestationMode::Counting => {
                if attestation.host.as_usize() >= self.keys.len() {
                    return Err(Error::UnknownReplica {
                        replica: attestation.host,
                    });
                }
                let expected = counting_fingerprint(attestation.host, &bytes);
                if attestation.signature.as_bytes()[..8] == expected.to_le_bytes() {
                    Ok(())
                } else {
                    Err(Error::InvalidAttestation {
                        context: format!("fingerprint mismatch for {}", attestation.host),
                    })
                }
            }
        }
    }
}

/// Derives the deterministic Ed25519 signing key of the enclave at `host`.
///
/// The derivation seed is disjoint from the replica/client key seeds used by
/// [`flexitrust_crypto::KeyStore::deterministic`], so a host key can never
/// verify as an enclave key or vice versa.
pub fn enclave_signing_key(host: ReplicaId) -> ed25519_dalek::SigningKey {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&(0xE0C1_A0E0_0000_0000u64 | u64::from(host.0)).to_le_bytes());
    bytes[8..16].copy_from_slice(
        &u64::from(host.0)
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
            .to_le_bytes(),
    );
    ed25519_dalek::SigningKey::from_bytes(&bytes)
}

/// The cheap keyed fingerprint used in counting mode.
pub(crate) fn counting_fingerprint(host: ReplicaId, bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x9ae1_6a3b_2f90_404f ^ u64::from(host.0);
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Signs attestation bytes on behalf of the enclave at `host`.
pub(crate) fn sign_attestation(host: ReplicaId, mode: AttestationMode, bytes: &[u8]) -> Signature {
    match mode {
        AttestationMode::Real => {
            let key = enclave_signing_key(host);
            Signature(key.sign(bytes).to_bytes())
        }
        AttestationMode::Counting => {
            let fp = counting_fingerprint(host, bytes);
            let mut sig = [0u8; 64];
            sig[..8].copy_from_slice(&fp.to_le_bytes());
            Signature(sig)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_attestation(mode: AttestationMode) -> Attestation {
        let host = ReplicaId(2);
        let digest = Digest::from_u64_tag(77);
        let bytes = Attestation::signed_bytes(host, 0, 5, &digest, AttestKind::CounterBind);
        Attestation {
            host,
            counter: 0,
            value: 5,
            digest,
            kind: AttestKind::CounterBind,
            signature: sign_attestation(host, mode, &bytes),
        }
    }

    #[test]
    fn real_attestation_verifies_and_rejects_tampering() {
        let registry = EnclaveRegistry::deterministic(4, AttestationMode::Real);
        let att = make_attestation(AttestationMode::Real);
        registry.verify(&att).unwrap();

        let mut tampered = att.clone();
        tampered.value = 6;
        assert!(registry.verify(&tampered).is_err());

        let mut wrong_digest = att.clone();
        wrong_digest.digest = Digest::from_u64_tag(78);
        assert!(registry.verify(&wrong_digest).is_err());

        let mut wrong_host = att;
        wrong_host.host = ReplicaId(1);
        assert!(registry.verify(&wrong_host).is_err());
    }

    #[test]
    fn counting_attestation_verifies_and_rejects_tampering() {
        let registry = EnclaveRegistry::deterministic(4, AttestationMode::Counting);
        let att = make_attestation(AttestationMode::Counting);
        registry.verify(&att).unwrap();
        let mut tampered = att;
        tampered.counter = 9;
        assert!(registry.verify(&tampered).is_err());
    }

    #[test]
    fn host_key_cannot_forge_enclave_attestation() {
        // A byzantine host holds its *replica* key (from the crypto KeyStore)
        // but not its enclave key; a signature made with the replica key must
        // not verify as an attestation.
        let registry = EnclaveRegistry::deterministic(4, AttestationMode::Real);
        let host = ReplicaId(2);
        let keystore = flexitrust_crypto::KeyStore::deterministic(4, 0);
        let digest = Digest::from_u64_tag(1);
        let bytes = Attestation::signed_bytes(host, 0, 9, &digest, AttestKind::CounterBind);
        let forged_sig = {
            use ed25519_dalek::Signer as _;
            let k = keystore
                .signing_key(flexitrust_types::NodeId::Replica(host))
                .unwrap();
            Signature(k.sign(&bytes).to_bytes())
        };
        let forged = Attestation {
            host,
            counter: 0,
            value: 9,
            digest,
            kind: AttestKind::CounterBind,
            signature: forged_sig,
        };
        assert!(registry.verify(&forged).is_err());
    }

    #[test]
    fn unknown_host_is_rejected() {
        let registry = EnclaveRegistry::deterministic(2, AttestationMode::Real);
        let mut att = make_attestation(AttestationMode::Real);
        att.host = ReplicaId(7);
        assert!(matches!(
            registry.verify(&att),
            Err(Error::UnknownReplica { .. })
        ));
    }

    #[test]
    fn kinds_are_domain_separated() {
        // The same (host, counter, value, digest) signed as a CounterBind must
        // not verify as a CounterCreate.
        let registry = EnclaveRegistry::deterministic(4, AttestationMode::Real);
        let att = make_attestation(AttestationMode::Real);
        let mut as_create = att;
        as_create.kind = AttestKind::CounterCreate;
        assert!(registry.verify(&as_create).is_err());
    }

    #[test]
    fn display_and_wire_size() {
        let att = make_attestation(AttestationMode::Counting);
        assert!(att.to_string().contains("q=0"));
        assert!(att.wire_size() > 64);
    }

    #[test]
    fn registry_len() {
        let registry = EnclaveRegistry::deterministic(5, AttestationMode::Real);
        assert_eq!(registry.len(), 5);
        assert!(!registry.is_empty());
    }
}
