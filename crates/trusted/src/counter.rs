//! Trusted monotonic counters.
//!
//! A [`CounterSet`] is the in-enclave state of the counter-based trusted
//! components (MinBFT, MinZZ, Trinc, CheapBFT and the FlexiTrust protocols).
//! It supports the three operations the paper describes:
//!
//! * `Append(q, k_new, x)` — the trust-bft form: the *host* proposes the new
//!   counter value `k_new`, which must be strictly greater than the current
//!   value; the component binds `k_new` to digest `x` and returns an
//!   attestation. (§4.1)
//! * `AppendF(q, x)` — the FlexiTrust form (§8.1): the component increments
//!   the counter internally, guaranteeing contiguous values so a Byzantine
//!   primary cannot create far-future gaps.
//! * `Create(k)` — creates a fresh counter with a never-used identifier and
//!   initial value `k`; used by a new primary after a view change.
//!
//! The set is pure state — signing, latency modelling and access statistics
//! live in [`crate::enclave::Enclave`].

use flexitrust_types::{Error, Result};
use std::collections::BTreeMap;

/// A set of monotonic counters: each counter's value, keyed by counter
/// identifier `q`. The digest an append binds goes into the attestation
/// only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    counters: BTreeMap<u64, u64>,
    next_fresh_id: u64,
}

impl CounterSet {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        CounterSet::default()
    }

    /// Creates a counter set with `count` counters initialised to zero, with
    /// identifiers `0..count`. Most protocols use a single counter (`q = 0`).
    pub(crate) fn with_counters(count: u64) -> Self {
        let counters = (0..count).map(|q| (q, 0)).collect();
        CounterSet {
            counters,
            next_fresh_id: count,
        }
    }

    /// Number of counters in the set.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Returns `true` when the set holds no counters.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Current value of counter `q`, if it exists.
    pub fn value(&self, q: u64) -> Option<u64> {
        self.counters.get(&q).copied()
    }

    /// Approximate in-enclave memory footprint in bytes; counters are tiny
    /// (identifier + value), which is the "Low" memory column of Figure 1.
    #[cfg(test)]
    pub(crate) fn memory_bytes(&self) -> usize {
        self.counters.len() * (8 + 8)
    }

    /// trust-bft `Append`: the host proposes `k_new`; it must be strictly
    /// greater than the counter's current value.
    ///
    /// Returns the accepted value (always `k_new`).
    pub fn append(&mut self, q: u64, k_new: u64) -> Result<u64> {
        let value = self.counter(q)?;
        if k_new <= *value {
            return Err(Error::TrustedMonotonicityViolation {
                counter: q,
                current: *value,
                requested: k_new,
            });
        }
        *value = k_new;
        Ok(k_new)
    }

    /// FlexiTrust `AppendF`: the component increments the counter
    /// internally. Returns the new value.
    pub fn append_f(&mut self, q: u64) -> Result<u64> {
        let value = self.counter(q)?;
        *value += 1;
        Ok(*value)
    }

    fn counter(&mut self, q: u64) -> Result<&mut u64> {
        self.counters
            .get_mut(&q)
            .ok_or(Error::TrustedSlotEmpty { log: q, slot: 0 })
    }

    /// `Create(k)`: creates a fresh counter (with a never-previously-used
    /// identifier) whose initial value is `k`. Returns the new identifier.
    pub fn create(&mut self, initial: u64) -> u64 {
        let q = self.next_fresh_id;
        self.next_fresh_id += 1;
        self.counters.insert(q, initial);
        q
    }

    /// Internal: snapshot of the whole state, used by the rollback attack
    /// model and by checkpointing.
    pub(crate) fn snapshot(&self) -> CounterSet {
        self.clone()
    }

    /// Internal: restore a previously captured snapshot (a rollback).
    pub(crate) fn restore(&mut self, snapshot: CounterSet) {
        *self = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_requires_strictly_increasing_values() {
        let mut set = CounterSet::with_counters(1);
        assert_eq!(set.append(0, 1).unwrap(), 1);
        assert_eq!(set.append(0, 5).unwrap(), 5);
        // Same value refused.
        assert!(set.append(0, 5).is_err());
        // Lower value refused.
        assert!(set.append(0, 4).is_err());
        assert_eq!(set.value(0), Some(5));
    }

    #[test]
    fn append_on_missing_counter_fails() {
        let mut set = CounterSet::with_counters(1);
        assert!(set.append(3, 1).is_err());
        assert!(set.append_f(3).is_err());
    }

    #[test]
    fn append_f_increments_contiguously() {
        let mut set = CounterSet::with_counters(1);
        for expected in 1..=100u64 {
            assert_eq!(set.append_f(0).unwrap(), expected);
        }
        assert_eq!(set.value(0), Some(100));
    }

    #[test]
    fn create_returns_fresh_identifiers() {
        let mut set = CounterSet::with_counters(2);
        let a = set.create(10);
        let b = set.create(20);
        assert_ne!(a, b);
        assert!(a >= 2 && b >= 2);
        assert_eq!(set.value(a), Some(10));
        assert_eq!(set.value(b), Some(20));
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn created_counter_continues_monotonic() {
        let mut set = CounterSet::new();
        let q = set.create(7);
        assert!(set.append(q, 7).is_err());
        assert_eq!(set.append(q, 8).unwrap(), 8);
        assert_eq!(set.append_f(q).unwrap(), 9);
    }

    #[test]
    fn memory_footprint_tracks_counter_count() {
        let set = CounterSet::with_counters(5);
        assert_eq!(set.memory_bytes(), 5 * 16);
        assert!(!set.is_empty());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut set = CounterSet::with_counters(1);
        set.append_f(0).unwrap();
        let snap = set.snapshot();
        set.append_f(0).unwrap();
        assert_eq!(set.value(0), Some(2));
        set.restore(snap);
        assert_eq!(set.value(0), Some(1));
    }
}
