//! Cryptographic substrate for the FlexiTrust reproduction.
//!
//! The paper's ResilientDB-based implementation relies on three primitives:
//! CMAC message authentication codes for authenticated channels, ED25519
//! digital signatures for attestations and client requests, and SHA-256 for
//! hashing. This crate provides the same three (HMAC-SHA256 plays the role
//! of CMAC). What the engines and hosts call of it is the hashing: batch
//! digests at the batcher ([`digest_batch`]) and the state digests of the
//! key-value store ([`sha256`]). Attestations are signed and checked in
//! `flexitrust-trusted`, under enclave keys of its own.
//!
//! [`CryptoProvider`] / [`RealCrypto`] sign, verify and MAC over a
//! [`KeyStore`], which assigns an Ed25519 keypair to every replica and
//! client and a pairwise HMAC key to every channel. No host calls them: the
//! frame MAC the TCP transport carries is zeros, and client requests carry
//! no signature. The benchmark's per-layer rows time them.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod hashing;
pub mod keys;
pub mod provider;

pub use hashing::{digest_batch, digest_transaction, make_batch, sha256, sha256_concat};
pub use keys::{KeyStore, PublicKeyRing};
pub use provider::{CryptoProvider, Mac, RealCrypto, Signature};
