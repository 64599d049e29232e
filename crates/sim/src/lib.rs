//! Deterministic discrete-event simulator for the paper's evaluation.
//!
//! The paper's numbers come from a 97-replica Oracle Cloud deployment with
//! up to 80 k closed-loop clients. This crate reproduces the *shape* of that
//! evaluation on a laptop: the same protocol engines that run under the
//! threaded runtime are driven by a discrete-event loop that models
//!
//! * **network latency and link occupancy** — a single-region LAN or the
//!   paper's six-region WAN layout ([`NetworkModel`]), with every
//!   sender NIC modelled as serialising FIFO queues per link class
//!   ([`LinkQueues`]): concurrent transfers on one link queue behind
//!   each other, so broadcast fan-out pays real wire time,
//! * **replica CPU** — a configurable number of worker threads per replica,
//!   each message charged for MAC checks, signature/attestation
//!   verifications, hashing and execution ([`CostModel`]),
//! * **trusted-component latency** — every enclave access observed during a
//!   message is serialized on the replica's trusted component and charged
//!   the hardware's access latency (Figure 8's knob), and
//! * **closed-loop client load** — a configurable number of logical clients,
//!   each with one outstanding transaction, completing when the client's
//!   `ClientLibrary` holds the protocol's reply quorum of matching replies
//!   ([`ScenarioSpec`]).
//!
//! Scenarios are described by [`ScenarioSpec`], run by [`Simulation`]
//! and summarised in a [`SimReport`]; [`workload`] generates the
//! YCSB-style transactions the simulated clients submit.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

mod chaos;
mod cost;
mod link;
mod metrics;
mod net;
mod queue;
mod runner;
mod spec;
pub mod workload;

pub use chaos::{ChaosEvent, ChaosPlan, ChaosState, Fate, LinkChaos, MessageClass, WithholdRule};
pub use cost::CostModel;
pub use link::{Direction, LinkClass, LinkQueues, LinkUsage, Nic};
pub use metrics::{CommittedTxn, SimReport};
pub use net::NetworkModel;
pub use runner::Simulation;
pub use spec::ScenarioSpec;
