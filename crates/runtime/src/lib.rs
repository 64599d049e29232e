//! Real in-process deployment of the consensus engines.
//!
//! While `flexitrust-sim` models time to reproduce the paper's performance
//! figures, this crate actually *runs* the protocols: one OS thread per
//! replica, in one [`ThreadedCluster`] over one of two [`Network`]s:
//!
//! * [`Cluster`] — crossbeam channels as the network;
//! * [`TcpCluster`] — loopback TCP sockets, every message crossing the
//!   wire as the canonical `flexitrust-wire` frame bytes the simulator's
//!   bandwidth model charges.
//!
//! The network supplies only the transports, how a client batch reaches the
//! primary, and its own teardown. The start path, the replica loop, crash
//! windows, the closed-loop client and the shutdown are the same code on
//! both.
//!
//! Both networks are in-order but deliberately *lossy at the edges*:
//! cross-replica sends use non-blocking `try_send` and shed load into
//! `ClusterSummary::dropped_messages` when a queue fills — BFT protocols
//! tolerate loss, and the alternative (blocking sends between replicas
//! with mutually full inboxes) deadlocks the cluster. A nonzero drop count
//! is designed load-shedding, not a transport bug.
//!
//! Both use real Ed25519 attestations from the software enclaves and a real
//! client that collects replies through the protocol's reply quorum. They
//! exist to validate end-to-end correctness of the engines at small scale
//! (n = 4…13), to pin cross-host equivalence against the simulator, and to
//! power the runnable examples.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::panic, clippy::unreachable)
)]

mod cluster;
mod driver;
pub mod primary;
mod tcp;

pub use cluster::{Cluster, ClusterSummary, Network, ThreadedCluster};
pub use primary::PrimaryTracker;
pub use tcp::{TcpCluster, TcpIoStats};
