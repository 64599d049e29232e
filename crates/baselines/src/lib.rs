//! The one consensus engine every protocol of the repository runs on.
//!
//! The paper compares its FlexiTrust suite against five deployed baselines
//! plus variants the authors build themselves. All of them are PBFT-shaped
//! and differ only in their row of the design table,
//! [`ProtocolId::style`](flexitrust_types::ProtocolId::style), which also
//! carries each protocol's paper notes:
//!
//! | Protocol | n | Phases | Trusted component use |
//! |---|---|---|---|
//! | PBFT | 3f+1 | PrePrepare, Prepare, Commit | none |
//! | Zyzzyva | 3f+1 | PrePrepare (speculative) | none |
//! | PBFT-EA | 2f+1 | 3 phases | trusted log per message |
//! | OPBFT-EA | 2f+1 | 3 phases, parallel instances | trusted log per message |
//! | MinBFT | 2f+1 | 2 phases | trusted counter per message |
//! | MinZZ | 2f+1 | 1 phase (speculative) | trusted counter per message |
//! | CheapBFT | 2f+1 (f+1 active) | 2 phases | trusted counter per message |
//! | Flexi-BFT | 3f+1 | 2 phases, parallel instances | `AppendF` once per consensus, primary only |
//! | Flexi-ZZ | 3f+1 | 1 phase (speculative), parallel instances | `AppendF` once per consensus, primary only |
//!
//! [`PbftFamilyEngine`] runs any row; hosts build it, with the enclave the
//! row needs, through `flexitrust_host::build_replica`.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod common;

pub use common::PbftFamilyEngine;

use flexitrust_trusted::{EnclaveRegistry, SharedEnclave};
use flexitrust_types::{ReplicaId, SystemConfig};
use std::sync::Arc;

/// A forward kept for the benchmark's trace host: `benchmark/src/trace.rs`
/// is its only caller, and the next change to the benchmark moves that
/// caller to `build_replica` and deletes this.
pub struct Pbft;

impl Pbft {
    /// The engine for replica `id` of `config.protocol`, with no enclave.
    pub fn engine(config: Arc<SystemConfig>, id: ReplicaId) -> PbftFamilyEngine {
        PbftFamilyEngine::new(Arc::clone(&config), id, config.protocol.style(), None, None)
    }
}

/// A forward kept for the benchmark's trace host: `benchmark/src/trace.rs`
/// is its only caller, and the next change to the benchmark moves that
/// caller to `build_replica` and deletes this.
pub struct MinBft;

impl MinBft {
    /// The engine for replica `id` of `config.protocol`, over `enclave`.
    pub fn engine(
        config: Arc<SystemConfig>,
        id: ReplicaId,
        enclave: SharedEnclave,
        registry: EnclaveRegistry,
    ) -> PbftFamilyEngine {
        PbftFamilyEngine::new(
            Arc::clone(&config),
            id,
            config.protocol.style(),
            Some(enclave),
            Some(registry),
        )
    }
}

/// A forward kept for the benchmark's trace host: `benchmark/src/trace.rs`
/// is its only caller, and the next change to the benchmark moves that
/// caller to `build_replica` and deletes this.
pub struct FlexiBft;

impl FlexiBft {
    /// The engine for replica `id` of `config.protocol`, over `enclave`.
    #[expect(clippy::new_ret_no_self, reason = "forwards to the one engine")]
    pub fn new(
        config: Arc<SystemConfig>,
        id: ReplicaId,
        enclave: SharedEnclave,
        registry: EnclaveRegistry,
    ) -> PbftFamilyEngine {
        PbftFamilyEngine::new(
            Arc::clone(&config),
            id,
            config.protocol.style(),
            Some(enclave),
            Some(registry),
        )
    }
}

/// A forward kept for the benchmark's trace host: `benchmark/src/trace.rs`
/// is its only caller, and the next change to the benchmark moves that
/// caller to `build_replica` and deletes this.
pub struct FlexiZz;

impl FlexiZz {
    /// The engine for replica `id` of `config.protocol`, over `enclave`.
    #[expect(clippy::new_ret_no_self, reason = "forwards to the one engine")]
    pub fn new(
        config: Arc<SystemConfig>,
        id: ReplicaId,
        enclave: SharedEnclave,
        registry: EnclaveRegistry,
    ) -> PbftFamilyEngine {
        PbftFamilyEngine::new(
            Arc::clone(&config),
            id,
            config.protocol.style(),
            Some(enclave),
            Some(registry),
        )
    }
}
