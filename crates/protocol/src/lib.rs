//! Protocol-agnostic consensus infrastructure.
//!
//! Every protocol in this repository — the BFT / trust-BFT baselines and
//! the FlexiTrust suite, one row each of `flexitrust-types`' design table —
//! runs on one engine, `flexitrust-baselines`' `PbftFamilyEngine`: a pure,
//! event-driven state machine implementing the [`ConsensusEngine`] trait.
//! It receives client requests, peer messages and timer expirations, and
//! emits [`Action`]s (sends, broadcasts, client replies, timer updates).
//! Engines never touch the network, clocks or threads, which lets the
//! *same* protocol code run under
//! the real threaded runtime (`flexitrust-runtime`) for correctness and under
//! the discrete-event simulator (`flexitrust-sim`) for the paper's
//! performance evaluation.
//!
//! The crate also hosts the building blocks the protocols share: the unified
//! message vocabulary ([`messages::Message`]), quorum certificates
//! ([`quorum::CertificateTracker`]), request batching ([`batcher::Batcher`]),
//! the per-replica common state and replica skeleton
//! ([`replica::ReplicaCore`]: client glue, the primary's proposal window,
//! checkpoint state transfer), the view change ([`viewchange`]: the state
//! machine and the new-view planning), the client-side library
//! ([`client::ClientLibrary`]), the Figure 1 protocol property table
//! ([`properties::ProtocolProperties`]) and the synchronous test network
//! engine tests drive clusters with ([`testing`]).

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod actions;
pub mod batcher;
pub mod client;
pub mod engine;
pub mod messages;
pub mod properties;
pub mod quorum;
pub mod replica;
pub mod testing;
pub mod viewchange;

pub use actions::{Action, Outbox};
pub use batcher::Batcher;
pub use client::{
    result_key, result_matches_key, ClientLibrary, KvResultKey, RequestStatus, Voters,
};
pub use engine::{ConsensusEngine, TimerKind};
pub use messages::{unshare, ClientReply, Message, PreparedProof, SharedMessage};
pub use properties::{MemoryFootprint, ProtocolProperties, TrustedAbstraction};
pub use quorum::CertificateTracker;
pub use replica::{Binding, ReplicaCore};
pub use viewchange::{NewViewPlan, NewViewPlanner};
