//! Trusted append-only logs (PBFT-EA / HotStuff-M style).
//!
//! A [`TrustedLog`] keeps, per log identifier `q`, a map from slot `k` to the
//! digest stored there. `Append` follows the paper's semantics exactly: with
//! no explicit slot the log advances by one; with an explicit slot greater
//! than the last it jumps forward and the skipped slots become unusable
//! forever. `Lookup` returns the digest so the enclave can attest to it.
//!
//! Unlike counters, logs keep every appended entry until truncated at a
//! checkpoint, which is why Figure 1 lists their memory requirement as
//! "High" (or "order of log size" for the counter + log hybrids).

use flexitrust_types::{Digest, Error, Result};
use std::collections::BTreeMap;

/// One append-only log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct LogState {
    /// Stored entries, keyed by slot.
    slots: BTreeMap<u64, Digest>,
    /// The highest slot ever written (0 = nothing written yet).
    last_slot: u64,
}

/// A set of append-only logs, keyed by log identifier `q`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TrustedLog {
    logs: BTreeMap<u64, LogState>,
}

impl TrustedLog {
    /// Creates a log set with `count` logs, identifiers `0..count`.
    ///
    /// PBFT-EA keeps one log per consensus phase (five in the original
    /// design); the protocols in this repository use one log per phase they
    /// attest.
    pub(crate) fn with_logs(count: u64) -> Self {
        TrustedLog {
            logs: (0..count).map(|q| (q, LogState::default())).collect(),
        }
    }

    /// The highest slot written in log `q` (0 if nothing was written).
    #[cfg(test)]
    pub(crate) fn last_slot(&self, q: u64) -> Option<u64> {
        self.logs.get(&q).map(|l| l.last_slot)
    }

    /// Number of entries currently stored in log `q`.
    #[cfg(test)]
    pub(crate) fn entries(&self, q: u64) -> usize {
        self.logs.get(&q).map(|l| l.slots.len()).unwrap_or(0)
    }

    /// Approximate in-enclave memory footprint in bytes.
    #[cfg(test)]
    pub(crate) fn memory_bytes(&self) -> usize {
        self.logs
            .values()
            .map(|l| l.slots.len() * (8 + 32) + 16)
            .sum()
    }

    /// `Append(q, k_new, x)`.
    ///
    /// * `k_new = None` — append at `last_slot + 1`.
    /// * `k_new = Some(k)` with `k > last_slot` — append at `k`; the skipped
    ///   slots can never be used.
    /// * `k_new = Some(k)` with `k <= last_slot` — refused (the component
    ///   never re-writes or back-fills a slot).
    ///
    /// Returns the slot at which `digest` was stored.
    pub(crate) fn append(&mut self, q: u64, k_new: Option<u64>, digest: Digest) -> Result<u64> {
        let log = self
            .logs
            .get_mut(&q)
            .ok_or(Error::TrustedSlotEmpty { log: q, slot: 0 })?;
        let slot = match k_new {
            None => log.last_slot + 1,
            Some(k) if k > log.last_slot => k,
            Some(k) => {
                return Err(Error::TrustedMonotonicityViolation {
                    counter: q,
                    current: log.last_slot,
                    requested: k,
                })
            }
        };
        log.slots.insert(slot, digest);
        log.last_slot = slot;
        Ok(slot)
    }

    /// `Lookup(q, k)`: returns the digest stored at slot `k` of log `q`.
    #[cfg(test)]
    pub(crate) fn lookup(&self, q: u64, k: u64) -> Result<Digest> {
        self.logs
            .get(&q)
            .and_then(|l| l.slots.get(&k))
            .copied()
            .ok_or(Error::TrustedSlotEmpty { log: q, slot: k })
    }

    /// Truncates every log, dropping entries at slots `<= up_to`; called when
    /// a stable checkpoint is reached.
    pub(crate) fn truncate(&mut self, up_to: u64) {
        for log in self.logs.values_mut() {
            log.slots = log.slots.split_off(&(up_to + 1));
        }
    }

    /// Internal: snapshot for the rollback attack model.
    pub(crate) fn snapshot(&self) -> TrustedLog {
        self.clone()
    }

    /// Internal: restore a previously captured snapshot (a rollback).
    pub(crate) fn restore(&mut self, snapshot: TrustedLog) {
        *self = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_append_advances_by_one() {
        let mut log = TrustedLog::with_logs(1);
        assert_eq!(log.append(0, None, Digest::from_u64_tag(1)).unwrap(), 1);
        assert_eq!(log.append(0, None, Digest::from_u64_tag(2)).unwrap(), 2);
        assert_eq!(log.last_slot(0), Some(2));
        assert_eq!(log.lookup(0, 1).unwrap(), Digest::from_u64_tag(1));
    }

    #[test]
    fn explicit_append_can_jump_forward_only() {
        let mut log = TrustedLog::with_logs(1);
        log.append(0, Some(5), Digest::from_u64_tag(5)).unwrap();
        // Jumped-over slots are unusable.
        assert!(log.append(0, Some(3), Digest::from_u64_tag(3)).is_err());
        assert!(log.append(0, Some(5), Digest::from_u64_tag(6)).is_err());
        assert_eq!(log.append(0, None, Digest::from_u64_tag(6)).unwrap(), 6);
        assert!(log.lookup(0, 4).is_err());
    }

    #[test]
    fn no_slot_is_ever_overwritten() {
        let mut log = TrustedLog::with_logs(1);
        log.append(0, None, Digest::from_u64_tag(1)).unwrap();
        // Every way of addressing slot 1 again must fail.
        assert!(log.append(0, Some(1), Digest::from_u64_tag(99)).is_err());
        assert_eq!(log.lookup(0, 1).unwrap(), Digest::from_u64_tag(1));
    }

    #[test]
    fn lookup_missing_slot_or_log_fails() {
        let log = TrustedLog::with_logs(1);
        assert!(log.lookup(0, 1).is_err());
        assert!(log.lookup(7, 1).is_err());
    }

    #[test]
    fn distinct_logs_are_independent() {
        let mut log = TrustedLog::with_logs(3);
        log.append(0, None, Digest::from_u64_tag(1)).unwrap();
        log.append(1, Some(10), Digest::from_u64_tag(2)).unwrap();
        assert_eq!(log.last_slot(0), Some(1));
        assert_eq!(log.last_slot(1), Some(10));
        assert_eq!(log.last_slot(2), Some(0));
    }

    #[test]
    fn truncate_drops_old_entries_but_keeps_position() {
        let mut log = TrustedLog::with_logs(1);
        for _ in 0..10 {
            log.append(0, None, Digest::from_u64_tag(1)).unwrap();
        }
        assert_eq!(log.entries(0), 10);
        log.truncate(7);
        assert_eq!(log.entries(0), 3);
        assert_eq!(log.last_slot(0), Some(10));
        assert!(log.lookup(0, 7).is_err());
        assert!(log.lookup(0, 8).is_ok());
        // Monotonicity survives truncation.
        assert!(log.append(0, Some(9), Digest::ZERO).is_err());
    }

    #[test]
    fn memory_grows_with_entries_and_shrinks_on_truncate() {
        let mut log = TrustedLog::with_logs(1);
        let empty = log.memory_bytes();
        for _ in 0..100 {
            log.append(0, None, Digest::ZERO).unwrap();
        }
        let full = log.memory_bytes();
        assert!(full > empty);
        log.truncate(100);
        assert!(log.memory_bytes() < full);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut log = TrustedLog::with_logs(1);
        log.append(0, None, Digest::from_u64_tag(1)).unwrap();
        let snap = log.snapshot();
        log.append(0, None, Digest::from_u64_tag(2)).unwrap();
        log.restore(snap);
        assert_eq!(log.last_slot(0), Some(1));
        assert!(log.lookup(0, 2).is_err());
    }
}
