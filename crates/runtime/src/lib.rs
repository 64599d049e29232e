//! Real in-process deployment of the consensus engines.
//!
//! While `flexitrust-sim` models time to reproduce the paper's performance
//! figures, this crate actually *runs* the protocols, in two flavours that
//! share one replica loop and workload driver:
//!
//! * [`Cluster`] — one OS thread per replica, crossbeam channels as the
//!   network;
//! * [`TcpCluster`] — the same replicas connected over loopback TCP
//!   sockets, every message crossing the wire as the canonical
//!   `flexitrust-wire` frame bytes the simulator's bandwidth model charges.
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

pub mod cluster;
mod driver;
pub mod primary;
pub mod tcp;

pub use cluster::{Cluster, ClusterSummary};
pub use primary::PrimaryTracker;
pub use tcp::{TcpCluster, TcpIoStats};
