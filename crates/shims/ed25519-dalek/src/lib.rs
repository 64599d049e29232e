//! Stand-in for `ed25519-dalek` (the build environment cannot fetch
//! crates.io). It reproduces the subset of the v2 API this workspace uses —
//! `SigningKey`, `VerifyingKey`, `Signature`, and the `Signer`/`Verifier`
//! traits — with SHA-256-based deterministic signatures instead of real
//! curve25519 arithmetic.
//!
//! Semantics preserved for the workspace's purposes:
//!
//! * signatures are deterministic functions of (key, message);
//! * verification succeeds exactly for the signing key's signature over the
//!   unmodified message, so tampering with either is detected;
//! * distinct seeds yield distinct public keys and unforgeable-within-the-
//!   workspace signatures (a key derived from a different seed never
//!   verifies).
//!
//! NOT preserved: real public-key cryptography. A `VerifyingKey` internally
//! carries the seed so it can recompute the keyed hash; do not use this shim
//! outside simulation/testing.

use sha2::{Digest, Sha256};

const PUBLIC_DOMAIN: &[u8] = b"flexitrust-ed25519-shim/public";
const SIG_DOMAIN_1: &[u8] = b"flexitrust-ed25519-shim/sig1";
const SIG_DOMAIN_2: &[u8] = b"flexitrust-ed25519-shim/sig2";

/// Error returned when signature verification fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureError;

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("signature verification failed")
    }
}

impl std::error::Error for SignatureError {}

/// Objects that can sign messages.
pub trait Signer<S> {
    /// Signs `msg`.
    fn sign(&self, msg: &[u8]) -> S;
}

/// Objects that can verify signatures.
pub trait Verifier<S> {
    /// Verifies `signature` over `msg`.
    fn verify(&self, msg: &[u8], signature: &S) -> Result<(), SignatureError>;
}

/// A detached 64-byte signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    bytes: [u8; 64],
}

impl Signature {
    /// Builds a signature from raw bytes.
    pub fn from_bytes(bytes: &[u8; 64]) -> Self {
        Signature { bytes: *bytes }
    }

    /// The raw signature bytes.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.bytes
    }
}

fn tagged_hash(domain: &[u8], seed: &[u8; 32], msg: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(domain);
    h.update(seed);
    h.update(msg);
    h.finalize()
}

/// A signing key derived from a 32-byte seed.
#[derive(Debug, Clone)]
pub struct SigningKey {
    seed: [u8; 32],
}

impl SigningKey {
    /// Generates a key from a random source.
    pub fn generate<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        SigningKey { seed }
    }

    /// Builds a key from its 32-byte seed.
    pub fn from_bytes(seed: &[u8; 32]) -> Self {
        SigningKey { seed: *seed }
    }

    /// The key's seed bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.seed
    }

    /// Derives the matching verifying key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey {
            public: tagged_hash(PUBLIC_DOMAIN, &self.seed, &[]),
            seed: self.seed,
        }
    }
}

impl Signer<Signature> for SigningKey {
    fn sign(&self, msg: &[u8]) -> Signature {
        let mut bytes = [0u8; 64];
        bytes[..32].copy_from_slice(&tagged_hash(SIG_DOMAIN_1, &self.seed, msg));
        bytes[32..].copy_from_slice(&tagged_hash(SIG_DOMAIN_2, &self.seed, msg));
        Signature { bytes }
    }
}

/// The public half of a key pair.
///
/// The shim keeps the seed alongside the derived public bytes so that
/// verification can recompute the keyed hash; `to_bytes` exposes only the
/// derived public bytes, which is what call sites compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyingKey {
    public: [u8; 32],
    seed: [u8; 32],
}

impl VerifyingKey {
    /// The derived 32 public-key bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.public
    }
}

impl Verifier<Signature> for VerifyingKey {
    fn verify(&self, msg: &[u8], signature: &Signature) -> Result<(), SignatureError> {
        let mut expected = [0u8; 64];
        expected[..32].copy_from_slice(&tagged_hash(SIG_DOMAIN_1, &self.seed, msg));
        expected[32..].copy_from_slice(&tagged_hash(SIG_DOMAIN_2, &self.seed, msg));
        if expected == signature.bytes {
            Ok(())
        } else {
            Err(SignatureError)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::OsRng;

    #[test]
    fn sign_verify_roundtrip() {
        let key = SigningKey::from_bytes(&[7u8; 32]);
        let sig = key.sign(b"message");
        key.verifying_key().verify(b"message", &sig).unwrap();
        assert!(key.verifying_key().verify(b"other", &sig).is_err());
    }

    #[test]
    fn wrong_key_rejects() {
        let a = SigningKey::from_bytes(&[1u8; 32]);
        let b = SigningKey::from_bytes(&[2u8; 32]);
        let sig = a.sign(b"msg");
        assert!(b.verifying_key().verify(b"msg", &sig).is_err());
        assert_ne!(a.verifying_key().to_bytes(), b.verifying_key().to_bytes());
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let key = SigningKey::from_bytes(&[3u8; 32]);
        let sig = key.sign(b"x");
        let back = Signature::from_bytes(&sig.to_bytes());
        key.verifying_key().verify(b"x", &back).unwrap();
    }

    #[test]
    fn generated_keys_work_and_differ() {
        let mut rng = OsRng::new();
        let a = SigningKey::generate(&mut rng);
        let b = SigningKey::generate(&mut rng);
        assert_ne!(a.verifying_key().to_bytes(), b.verifying_key().to_bytes());
        let sig = a.sign(b"payload");
        a.verifying_key().verify(b"payload", &sig).unwrap();
    }
}
