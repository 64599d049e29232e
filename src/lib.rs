//! # FlexiTrust — "Dissecting BFT Consensus: In Trusted Components we Trust!"
//!
//! This is the facade crate of a from-scratch Rust reproduction of the
//! EuroSys 2023 paper. It re-exports the public API of every sub-crate so
//! that applications, the examples and the benchmark harness can depend on a
//! single crate:
//!
//! * [`types`] — identifiers, transactions, batches, configuration.
//! * [`crypto`] — digests, MACs, Ed25519 signatures, counting providers.
//! * [`trusted`] — trusted counters/logs, attestations, rollback and
//!   latency models.
//! * [`workload`] — the YCSB-style workload generator.
//! * [`exec`] — the key-value state machine and in-order execution queue.
//! * [`protocol`] — the engine trait and shared consensus infrastructure.
//! * [`wire`] — the canonical binary codec: the frame bytes the TCP
//!   transport carries and the simulator's bandwidth model charges.
//! * [`host`] — the shared engine-hosting layer (the `EngineHost`
//!   environment contract and the single `Action` dispatcher) every
//!   environment below builds on.
//! * [`baselines`] — the one consensus engine every protocol runs on; what
//!   each protocol is lives in `types`' design table (`ProtocolId::style`).
//! * [`attacks`] — the §5–§7 attack scenarios.
//! * [`sim`] — the discrete-event simulator behind every figure.
//! * [`runtime`] — the real threaded deployment used by the examples.
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
pub use flexitrust_baselines as baselines;
pub use flexitrust_crypto as crypto;
pub use flexitrust_exec as exec;
pub use flexitrust_host as host;
pub use flexitrust_protocol as protocol;
pub use flexitrust_runtime as runtime;
pub use flexitrust_sim as sim;
pub use flexitrust_trusted as trusted;
pub use flexitrust_types as types;
pub use flexitrust_wire as wire;
pub use flexitrust_workload as workload;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use flexitrust_baselines::{FlexiBft, FlexiZz};
    pub use flexitrust_host::{CrashWindow, Dispatcher, EngineHost};
    pub use flexitrust_protocol::{
        ClientLibrary, ConsensusEngine, Message, Outbox, ProtocolProperties, TimerKind,
    };
    pub use flexitrust_runtime::{Cluster, ClusterSummary, PrimaryTracker, TcpCluster, TcpIoStats};
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
    pub use flexitrust_workload::{WorkloadConfig, WorkloadGenerator};
}
