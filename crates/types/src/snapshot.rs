//! Serializable snapshot of the executed key-value state.
//!
//! A [`StateSnapshot`] is the payload of a checkpoint state transfer: the
//! full record set at a stable checkpoint boundary plus the two counters
//! (`applied_mutations`, `fingerprint`) that make the store's incremental
//! state digest reproducible on the installing side. It lives in the types
//! crate so the wire codec can frame it without depending on the execution
//! layer.

use crate::ValueBytes;

/// The executed state at one checkpoint boundary.
///
/// Values share their buffers with the originating store ([`ValueBytes`] is
/// reference-counted), so snapshotting an in-memory store copies handles,
/// not record bytes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StateSnapshot {
    /// All records at the boundary, in ascending key order.
    pub entries: Vec<(u64, ValueBytes)>,
    /// Mutations applied up to (and including) the boundary.
    pub applied_mutations: u64,
    /// The store's commutative fingerprint at the boundary.
    pub fingerprint: u64,
}
