//! Common identifiers, transactions, batches, configuration and error types
//! shared by every crate of the FlexiTrust reproduction.
//!
//! This crate is intentionally free of any protocol or I/O logic: it only
//! defines the *data* vocabulary of the system so that the crypto substrate,
//! the trusted-component substrate, the protocol engines, the simulator and
//! the threaded runtime can all speak the same language.
//!
//! The terminology follows the paper ("Dissecting BFT Consensus: In Trusted
//! Components we Trust!", EuroSys 2023): replicas are identified by
//! [`ReplicaId`], clients by [`ClientId`], consensus slots by [`SeqNum`],
//! leadership epochs by [`View`], and client operations are [`Transaction`]s
//! grouped into [`Batch`]es.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod config;
pub mod digest;
pub mod error;
pub mod ids;
pub mod region;
pub mod snapshot;
pub mod tally;
pub mod transaction;

pub use config::{ProtocolId, QuorumRule, ReplicationFactor, SystemConfig};
pub use digest::Digest;
pub use error::{Error, Result};
pub use ids::{ClientId, NodeId, ReplicaId, RequestId, SeqNum, View};
pub use region::{BandwidthConfig, Region, RegionMap, WanMatrix};
pub use snapshot::StateSnapshot;
pub use tally::{Striped, Tally};
pub use transaction::{
    batch_payload_allocations, value_payload_allocations, Batch, KvOp, KvResult, Transaction,
    TxnOutcome, ValueBytes,
};
