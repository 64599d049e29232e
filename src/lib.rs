//! # FlexiTrust — "Dissecting BFT Consensus: In Trusted Components we Trust!"
//!
//! This is the facade crate of a from-scratch Rust reproduction of the
//! EuroSys 2023 paper. It re-exports the public API of every sub-crate so
//! that applications, the examples and the benchmark harness can depend on a
//! single crate.
//!
//! ## Architecture
//!
//! Each crate depends only on the crates to its left:
//!
//! ```text
//! types ← crypto ← {trusted, exec} ← protocol ← wire ← {sim, runtime} ← attacks
//! ```
//!
//! * [`types`] — identifiers, transactions, batches, configuration, and the
//!   design table (`ProtocolId::style`) that says what each protocol is.
//! * [`crypto`] — SHA-256 digests, HMAC channel MACs, Ed25519-style
//!   signatures and the key store.
//! * [`trusted`] — trusted counters/logs, attestations, rollback and
//!   latency models.
//! * [`exec`] — the key-value state machine and in-order execution queue.
//! * [`protocol`] — the one consensus engine every protocol runs on, the
//!   view change and replica skeleton it is built from, and
//!   [`protocol::host`], the layer every host drives engines through (the
//!   `EngineHost` contract, the one `Action` dispatcher, `build_replica`).
//! * [`wire`] — the canonical binary codec: the frame bytes the TCP
//!   transport carries and the simulator's bandwidth model charges.
//! * [`sim`] — the discrete-event simulator behind every figure, with
//!   [`sim::workload`], the YCSB-style workload generator.
//! * [`runtime`] — the real threaded deployment used by the examples.
//! * [`attacks`] — the §5–§7 attack scenarios.
//!
//! ## Quick start
//!
//! ```
//! use flexitrust::prelude::*;
//!
//! // Simulate Flexi-ZZ for a few simulated milliseconds and print the
//! // throughput the closed-loop clients observed.
//! let mut spec = ScenarioSpec::quick_test(ProtocolId::FlexiZz);
//! spec.duration_us = 50_000;
//! spec.warmup_us = 10_000;
//! let report = Simulation::new(spec).run();
//! assert!(report.completed_txns > 0);
//! ```

pub use flexitrust_attacks as attacks;
pub use flexitrust_crypto as crypto;
pub use flexitrust_exec as exec;
pub use flexitrust_protocol as protocol;
pub use flexitrust_protocol::host;
pub use flexitrust_runtime as runtime;
pub use flexitrust_sim as sim;
pub use flexitrust_sim::workload;
pub use flexitrust_trusted as trusted;
pub use flexitrust_types as types;
pub use flexitrust_wire as wire;

/// One-constructor forwards to [`protocol::PbftFamilyEngine`], kept only
/// for `benchmark/` (its trace host names them) until that host builds its
/// engines through [`host::build_replica`]; then they go.
pub mod baselines {
    use flexitrust_protocol::PbftFamilyEngine;
    use flexitrust_trusted::{EnclaveRegistry, SharedEnclave};
    use flexitrust_types::{ReplicaId, SystemConfig};
    use std::sync::Arc;

    /// The engine of `config`'s row over `enclave`.
    fn forward(
        config: Arc<SystemConfig>,
        id: ReplicaId,
        enclave: Option<SharedEnclave>,
        registry: Option<EnclaveRegistry>,
    ) -> PbftFamilyEngine {
        let style = config.protocol.style();
        PbftFamilyEngine::new(config, id, style, enclave, registry)
    }

    /// Forwards to the one engine, with no enclave.
    pub struct Pbft;

    impl Pbft {
        /// The engine for replica `id` of `config.protocol`, with no enclave.
        pub fn engine(config: Arc<SystemConfig>, id: ReplicaId) -> PbftFamilyEngine {
            forward(config, id, None, None)
        }
    }

    /// Forwards to the one engine, over an enclave.
    pub struct MinBft;

    impl MinBft {
        /// The engine for replica `id` of `config.protocol`, over `enclave`.
        pub fn engine(
            config: Arc<SystemConfig>,
            id: ReplicaId,
            enclave: SharedEnclave,
            registry: EnclaveRegistry,
        ) -> PbftFamilyEngine {
            forward(config, id, Some(enclave), Some(registry))
        }
    }

    /// Forwards to the one engine, over an enclave.
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
            forward(config, id, Some(enclave), Some(registry))
        }
    }

    /// Forwards to the one engine, over an enclave.
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
            forward(config, id, Some(enclave), Some(registry))
        }
    }
}

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use crate::baselines::{FlexiBft, FlexiZz};
    pub use flexitrust_protocol::host::{CrashWindow, Dispatcher, EngineHost};
    pub use flexitrust_protocol::{
        ClientLibrary, ConsensusEngine, Message, Outbox, ProtocolProperties, TimerKind,
    };
    pub use flexitrust_runtime::{Cluster, ClusterSummary, PrimaryTracker, TcpCluster, TcpIoStats};
    pub use flexitrust_sim::workload::{WorkloadConfig, WorkloadGenerator};
    pub use flexitrust_sim::{
        ChaosEvent, ChaosPlan, CostModel, Direction, LinkChaos, LinkClass, LinkQueues, LinkUsage,
        MessageClass, NetworkModel, Nic, ScenarioSpec, SimReport, Simulation,
    };
    pub use flexitrust_trusted::{Enclave, EnclaveConfig, EnclaveRegistry, TrustedHardware};
    pub use flexitrust_types::{
        BandwidthConfig, Batch, ClientId, ProtocolId, QuorumRule, ReplicaId, RequestId, SeqNum,
        SystemConfig, Transaction, View,
    };
    pub use flexitrust_wire::{
        client_upload_wire_size, decode_frame, decode_message, encode_frame, encode_message,
        read_frame, write_frame, Frame, WireError,
    };
}
