//! Consensus: the one engine every protocol runs on, the infrastructure it
//! is built from, and the layer every host drives it through.
//!
//! Every protocol in this repository — the BFT / trust-BFT baselines and
//! the FlexiTrust suite, one row each of `flexitrust-types`' design table —
//! runs on one engine, [`family::PbftFamilyEngine`]: a pure, event-driven
//! state machine implementing the [`ConsensusEngine`] trait. It receives
//! client requests, peer messages and timer expirations, and emits
//! [`Action`]s (sends, broadcasts, client replies, timer updates). Engines
//! never touch the network, clocks or threads, which lets the *same*
//! protocol code run under the real threaded runtime (`flexitrust-runtime`)
//! and under the discrete-event simulator (`flexitrust-sim`).
//!
//! The crate also holds what the engine is built from: the unified message
//! vocabulary ([`messages::Message`]), quorum certificates
//! ([`quorum::CertificateTracker`]), request batching ([`batcher::Batcher`]),
//! the per-replica common state and replica skeleton
//! ([`replica::ReplicaCore`]: client glue, the primary's proposal window,
//! checkpoint state transfer), the view change ([`viewchange`]: the state
//! machine and the new-view planning), the client-side library
//! ([`client::ClientLibrary`]) and the Figure 1 protocol property table
//! ([`properties::ProtocolProperties`]).
//!
//! Every host drives engines through [`host`]: the one configuration →
//! engine factory ([`host::build_replica`]), the one `Action` dispatcher
//! ([`host::Dispatcher`]) and the environment contract
//! ([`host::EngineHost`]). [`testing`] is the synchronous host the engine
//! tests of every crate share.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod actions;
pub mod batcher;
pub mod client;
pub mod engine;
pub mod family;
pub mod host;
pub mod messages;
pub mod properties;
pub mod quorum;
pub mod replica;
pub mod testing;
pub mod viewchange;

pub use actions::{Action, Outbox};
pub use batcher::Batcher;
pub use client::{ClientLibrary, RequestStatus};
pub use engine::{ConsensusEngine, TimerKind};
pub use family::PbftFamilyEngine;
pub use messages::{unshare, ClientReply, Message, PreparedProof, SharedMessage};
pub use properties::{MemoryFootprint, ProtocolProperties, TrustedAbstraction};
pub use quorum::CertificateTracker;
pub use replica::{Binding, ReplicaCore};
pub use viewchange::{NewViewPlan, NewViewPlanner};
