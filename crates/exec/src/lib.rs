//! Replicated state machine (RSM) execution layer.
//!
//! Following Schneider's distinction adopted by the paper (§2), consensus
//! orders batches of transactions while the *state machine* defines the
//! output of each transaction given everything ordered before it. This crate
//! provides:
//!
//! * [`KvStore`] — the in-memory key-value store the YCSB workload runs
//!   against (600 k records in the paper's setup);
//! * [`ExecutionQueue`] — in-sequence-number-order execution on the
//!   replica's own thread: a replica may learn that slot `k + 3` committed
//!   before slot `k`, but it must execute `k` first ("r executes every
//!   request in sequence number order");
//! * [`CheckpointLog`] — the periodic checkpoints every protocol uses for
//!   log truncation and state transfer;
//! * [`CheckpointJournal`] — the state a replica keeps at its checkpoint
//!   boundaries: one full snapshot plus the write deltas since.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::panic, clippy::unreachable)
)]

pub mod checkpoint;
pub mod kvstore;
pub mod queue;

pub use checkpoint::{Checkpoint, CheckpointJournal, CheckpointLog};
pub use kvstore::KvStore;
pub use queue::{ExecutedBatch, ExecutionQueue};
