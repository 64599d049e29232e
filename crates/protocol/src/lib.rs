//! Consensus: the one engine every protocol runs on, the infrastructure it
//! is built from, and the layer every host drives it through.
//!
//! Every protocol in this repository — the BFT / trust-BFT baselines and
//! the FlexiTrust suite, one row each of `flexitrust-types`' design table —
//! runs on one engine, [`PbftFamilyEngine`]: a pure, event-driven
//! state machine implementing the [`ConsensusEngine`] trait. It receives
//! client requests, peer messages and timer expirations, and emits
//! [`Action`]s (sends, broadcasts, client replies, timer updates). Engines
//! never touch the network, clocks or threads, which lets the *same*
//! protocol code run under the real threaded runtime (`flexitrust-runtime`)
//! and under the discrete-event simulator (`flexitrust-sim`).
//!
//! The crate also holds what the engine is built from: the unified message
//! vocabulary ([`Message`]), quorum certificates
//! ([`CertificateTracker`]), request batching ([`Batcher`]),
//! the per-replica common state and replica skeleton
//! ([`ReplicaCore`]: client glue, the primary's proposal window and the
//! sequencer that binds its batches, execution and checkpoint state
//! transfer), the view change (its state machine
//! and the new-view planning), the client-side library
//! ([`ClientLibrary`]) and the Figure 1 protocol property table
//! ([`ProtocolProperties`]).
//!
//! Every host drives engines through [`host`]: the one configuration →
//! engines factory ([`host::build_cluster`]), the one `Action` dispatcher
//! ([`host::Dispatcher`]) and the environment contract
//! ([`host::EngineHost`]). [`testing`] is the synchronous host the engine
//! tests of every crate share.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

mod actions;
mod batcher;
mod client;
mod engine;
mod family;
pub mod host;
mod messages;
mod properties;
mod quorum;
mod replica;
pub mod testing;
mod viewchange;

pub use actions::{Action, Outbox};
pub use batcher::Batcher;
pub use client::{ClientLibrary, RequestStatus};
pub use engine::{ConsensusEngine, TimerKind};
pub use family::PbftFamilyEngine;
pub use messages::{unshare, ClientReply, Message, PreparedProof, SharedMessage};
pub use properties::{MemoryFootprint, ProtocolProperties, TrustedAbstraction};
pub use quorum::CertificateTracker;
pub use replica::ReplicaCore;
