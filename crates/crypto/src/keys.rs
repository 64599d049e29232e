//! Key material management.
//!
//! [`KeyStore`] holds an Ed25519 keypair per node (replicas and clients) plus
//! the symmetric key material used to derive pairwise channel MACs, mirroring
//! the authenticated-channel assumption of the system model (§2): Byzantine
//! replicas can impersonate each other but never an honest replica.

use crate::provider::Mac;
use ed25519_dalek::{SigningKey, VerifyingKey};
use flexitrust_types::{ClientId, Error, NodeId, ReplicaId, Result};
use hmac::{Hmac, Mac as HmacMac};
use sha2::Sha256;
use std::collections::BTreeMap;

type HmacSha256 = Hmac<Sha256>;

/// Holds every node's signing and verifying keys plus channel MAC keys.
pub struct KeyStore {
    replica_keys: Vec<SigningKey>,
    client_keys: BTreeMap<u64, SigningKey>,
    /// Secret used to derive pairwise channel keys; in a real deployment each
    /// pair of nodes would establish its own key, but a derived key per
    /// ordered pair gives the same verification semantics.
    channel_secret: [u8; 32],
}

impl KeyStore {
    /// Generates a key store with random keys for `replicas` replicas and
    /// `clients` clients.
    pub fn generate(replicas: usize, clients: usize) -> Self {
        #[expect(
            clippy::disallowed_types,
            reason = "key *generation* is deployment setup, not execution: keys are \
                      inputs to a run (like the config), never derived during one; \
                      deterministic hosts use `deterministic()`"
        )]
        let mut rng = rand::rngs::OsRng::new();
        let replica_keys = (0..replicas)
            .map(|_| SigningKey::generate(&mut rng))
            .collect();
        let client_keys = (0..clients as u64)
            .map(|c| (c, SigningKey::generate(&mut rng)))
            .collect();
        let mut channel_secret = [0u8; 32];
        rand::RngCore::fill_bytes(&mut rng, &mut channel_secret);
        KeyStore {
            replica_keys,
            client_keys,
            channel_secret,
        }
    }

    /// Generates a *deterministic* key store (seeded from node indices); used
    /// by tests and the simulator so runs are reproducible.
    pub fn deterministic(replicas: usize, clients: usize) -> Self {
        fn key_from_seed(seed: u64) -> SigningKey {
            let mut bytes = [0u8; 32];
            bytes[..8].copy_from_slice(&seed.to_le_bytes());
            bytes[8..16].copy_from_slice(&seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes());
            SigningKey::from_bytes(&bytes)
        }
        let replica_keys = (0..replicas as u64)
            .map(|i| key_from_seed(0x1000 + i))
            .collect();
        let client_keys = (0..clients as u64)
            .map(|c| (c, key_from_seed(0x2000_0000 + c)))
            .collect();
        KeyStore {
            replica_keys,
            client_keys,
            channel_secret: [42u8; 32],
        }
    }

    /// Returns the signing key of a node.
    pub fn signing_key(&self, node: NodeId) -> Result<&SigningKey> {
        match node {
            NodeId::Replica(ReplicaId(r)) => {
                self.replica_keys.get(r as usize).ok_or(Error::MissingKey {
                    owner: format!("replica {r}"),
                })
            }
            NodeId::Client(ClientId(c)) => self.client_keys.get(&c).ok_or(Error::MissingKey {
                owner: format!("client {c}"),
            }),
        }
    }

    /// Returns the verifying key of a node.
    pub fn verifying_key(&self, node: NodeId) -> Result<VerifyingKey> {
        Ok(self.signing_key(node)?.verifying_key())
    }

    /// Computes the HMAC for the ordered channel `from → to`.
    pub(crate) fn channel_mac(&self, from: NodeId, to: NodeId, bytes: &[u8]) -> Mac {
        let mut key = Vec::with_capacity(32 + 18);
        key.extend_from_slice(&self.channel_secret);
        key.extend_from_slice(&node_tag(from));
        key.extend_from_slice(&node_tag(to));
        let mut mac = HmacSha256::new_from_slice(&key).expect("HMAC accepts any key length");
        mac.update(bytes);
        let out = mac.finalize().into_bytes();
        let mut result = [0u8; 32];
        result.copy_from_slice(&out);
        Mac(result)
    }
}

fn node_tag(node: NodeId) -> [u8; 9] {
    let mut tag = [0u8; 9];
    match node {
        NodeId::Replica(ReplicaId(r)) => {
            tag[0] = 1;
            tag[1..5].copy_from_slice(&r.to_le_bytes());
        }
        NodeId::Client(ClientId(c)) => {
            tag[0] = 2;
            tag[1..9].copy_from_slice(&c.to_le_bytes());
        }
    }
    tag
}

#[cfg(test)]
mod tests {
    use super::*;
    use ed25519_dalek::{Signer, Verifier};

    #[test]
    fn deterministic_store_is_reproducible() {
        let a = KeyStore::deterministic(3, 2);
        let b = KeyStore::deterministic(3, 2);
        let node = NodeId::Replica(ReplicaId(1));
        assert_eq!(
            a.verifying_key(node).unwrap().to_bytes(),
            b.verifying_key(node).unwrap().to_bytes()
        );
    }

    #[test]
    fn distinct_nodes_have_distinct_keys() {
        let ks = KeyStore::deterministic(4, 2);
        let k0 = ks.verifying_key(NodeId::Replica(ReplicaId(0))).unwrap();
        let k1 = ks.verifying_key(NodeId::Replica(ReplicaId(1))).unwrap();
        let c0 = ks.verifying_key(NodeId::Client(ClientId(0))).unwrap();
        assert_ne!(k0.to_bytes(), k1.to_bytes());
        assert_ne!(k0.to_bytes(), c0.to_bytes());
    }

    #[test]
    fn missing_keys_are_reported() {
        let ks = KeyStore::deterministic(2, 1);
        assert!(ks.signing_key(NodeId::Replica(ReplicaId(9))).is_err());
        assert!(ks.signing_key(NodeId::Client(ClientId(9))).is_err());
    }

    #[test]
    fn channel_macs_are_directional() {
        let ks = KeyStore::deterministic(2, 1);
        let a = NodeId::Replica(ReplicaId(0));
        let b = NodeId::Replica(ReplicaId(1));
        assert_ne!(ks.channel_mac(a, b, b"m"), ks.channel_mac(b, a, b"m"));
        assert_eq!(ks.channel_mac(a, b, b"m"), ks.channel_mac(a, b, b"m"));
    }

    #[test]
    fn generated_store_produces_working_keys() {
        let ks = KeyStore::generate(2, 1);
        let node = NodeId::Client(ClientId(0));
        let sig = ks.signing_key(node).unwrap().sign(b"x");
        ks.verifying_key(node).unwrap().verify(b"x", &sig).unwrap();
    }
}
