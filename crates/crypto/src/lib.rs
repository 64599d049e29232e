//! Cryptographic substrate for the FlexiTrust reproduction.
//!
//! The paper's ResilientDB-based implementation relies on three primitives:
//! CMAC message authentication codes for authenticated channels, ED25519
//! digital signatures for attestations and client requests, and SHA-256 for
//! hashing. This crate provides the same three primitives (HMAC-SHA256 plays
//! the role of CMAC) behind a small [`CryptoProvider`] trait with two
//! implementations:
//!
//! * [`RealCrypto`] — performs the actual cryptographic computation. Used by
//!   the threaded runtime and by correctness tests.
//! * [`CountingCrypto`] — produces structurally valid but cryptographically
//!   meaningless artefacts while *counting* every operation. The discrete
//!   event simulator uses these counts together with its CPU cost model to
//!   charge realistic processing time without paying for real signatures on
//!   millions of simulated messages.
//!
//! Key material is managed by [`KeyStore`], which assigns an Ed25519 keypair
//! to every replica and client and a pairwise HMAC key to every channel.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod hashing;
pub mod keys;
pub mod provider;
pub mod stats;

pub use hashing::{digest_batch, digest_transaction, make_batch, sha256, sha256_concat};
pub use keys::{KeyStore, PublicKeyRing};
pub use provider::{CountingCrypto, CryptoProvider, Mac, RealCrypto, Signature};
pub use stats::{CryptoOp, CryptoStats, OpCounts};
