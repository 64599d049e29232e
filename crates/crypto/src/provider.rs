//! The [`CryptoProvider`] trait and its one implementation, [`RealCrypto`].

use crate::keys::KeyStore;
use ed25519_dalek::{Signer as DalekSigner, Verifier};
use flexitrust_types::{Error, NodeId, Result};
use std::fmt;
use std::sync::Arc;

/// A detached Ed25519-sized signature (64 bytes).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub [u8; 64]);

impl Signature {
    /// The all-zero signature: a placeholder that verifies under no key.
    pub fn zero() -> Self {
        Signature([0u8; 64])
    }

    /// Returns the raw bytes of the signature.
    pub fn as_bytes(&self) -> &[u8; 64] {
        &self.0
    }
}

impl Default for Signature {
    fn default() -> Self {
        Signature::zero()
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature({:02x}{:02x}{:02x}{:02x}..)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// A message authentication code (HMAC-SHA256 output, 32 bytes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Mac(pub [u8; 32]);

impl fmt::Debug for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mac({:02x}{:02x}..)", self.0[0], self.0[1])
    }
}

/// The cryptographic operations the fabric needs.
///
/// Implementations must be cheap to clone and shareable across threads;
/// [`RealCrypto`] wraps its key store in an [`Arc`].
pub trait CryptoProvider: Send + Sync {
    /// Signs `bytes` on behalf of `signer` with its Ed25519 key.
    fn sign(&self, signer: NodeId, bytes: &[u8]) -> Result<Signature>;

    /// Verifies that `signature` over `bytes` was produced by `signer`.
    fn verify(&self, signer: NodeId, bytes: &[u8], signature: &Signature) -> Result<()>;

    /// Computes the MAC of `bytes` for the channel `from → to`.
    fn mac(&self, from: NodeId, to: NodeId, bytes: &[u8]) -> Result<Mac>;

    /// Verifies a channel MAC.
    fn verify_mac(&self, from: NodeId, to: NodeId, bytes: &[u8], mac: &Mac) -> Result<()>;
}

/// Production crypto: real Ed25519 signatures and HMAC-SHA256 MACs backed by
/// a [`KeyStore`].
#[derive(Clone)]
pub struct RealCrypto {
    keys: Arc<KeyStore>,
}

impl RealCrypto {
    /// Creates a provider over the given key store.
    pub fn new(keys: Arc<KeyStore>) -> Self {
        RealCrypto { keys }
    }

    /// Access to the underlying key store (e.g. to hand public keys to
    /// trusted-component verifiers).
    pub fn keys(&self) -> &Arc<KeyStore> {
        &self.keys
    }
}

impl CryptoProvider for RealCrypto {
    fn sign(&self, signer: NodeId, bytes: &[u8]) -> Result<Signature> {
        let key = self.keys.signing_key(signer)?;
        let sig = key.sign(bytes);
        Ok(Signature(sig.to_bytes()))
    }

    fn verify(&self, signer: NodeId, bytes: &[u8], signature: &Signature) -> Result<()> {
        let key = self.keys.verifying_key(signer)?;
        let sig = ed25519_dalek::Signature::from_bytes(signature.as_bytes());
        key.verify(bytes, &sig)
            .map_err(|_| Error::InvalidSignature {
                context: format!("ed25519 verification failed for {signer}"),
            })
    }

    fn mac(&self, from: NodeId, to: NodeId, bytes: &[u8]) -> Result<Mac> {
        Ok(self.keys.channel_mac(from, to, bytes))
    }

    fn verify_mac(&self, from: NodeId, to: NodeId, bytes: &[u8], mac: &Mac) -> Result<()> {
        let expected = self.keys.channel_mac(from, to, bytes);
        if expected == *mac {
            Ok(())
        } else {
            Err(Error::InvalidSignature {
                context: format!("MAC verification failed on channel {from} -> {to}"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::{ClientId, ReplicaId};

    fn nodes() -> (NodeId, NodeId) {
        (NodeId::Replica(ReplicaId(0)), NodeId::Client(ClientId(7)))
    }

    #[test]
    fn real_crypto_sign_verify_roundtrip() {
        let keys = Arc::new(KeyStore::deterministic(4, 2));
        let crypto = RealCrypto::new(keys);
        let (r, c) = nodes();
        let sig = crypto.sign(r, b"hello").unwrap();
        crypto.verify(r, b"hello", &sig).unwrap();
        assert!(crypto.verify(r, b"tampered", &sig).is_err());
        assert!(crypto.verify(c, b"hello", &sig).is_err());
    }

    #[test]
    fn real_crypto_mac_roundtrip() {
        let keys = Arc::new(KeyStore::deterministic(4, 2));
        let crypto = RealCrypto::new(keys);
        let (r, c) = nodes();
        let mac = crypto.mac(r, c, b"payload").unwrap();
        crypto.verify_mac(r, c, b"payload", &mac).unwrap();
        assert!(crypto.verify_mac(r, c, b"other", &mac).is_err());
        assert!(crypto.verify_mac(c, r, b"payload", &mac).is_err());
    }

    #[test]
    fn signatures_of_distinct_signers_differ() {
        let crypto = RealCrypto::new(Arc::new(KeyStore::deterministic(4, 2)));
        let a = crypto.sign(NodeId::Replica(ReplicaId(1)), b"x").unwrap();
        let b = crypto.sign(NodeId::Replica(ReplicaId(2)), b"x").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn signature_debug_is_short() {
        let s = Signature::zero();
        assert!(format!("{s:?}").len() < 32);
    }
}
