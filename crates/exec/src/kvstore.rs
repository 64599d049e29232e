//! The in-memory key-value store the workload executes against.

use flexitrust_crypto::sha256;
use flexitrust_types::{Digest, KvOp, KvResult, StateSnapshot, ValueBytes};
use std::collections::BTreeMap;

/// Number of maps the keyspace is split across, by `key % SHARDS`. Fixed:
/// eight small maps insert sequential keys faster than one large one, and
/// the threaded hosts' workloads write sequential keys.
const SHARDS: usize = 8;

/// A deterministic in-memory key-value store.
///
/// **Zero-copy values.** Records hold [`ValueBytes`] — reference-counted
/// immutable buffers. Writes move the client's payload handle into the
/// store (a refcount bump), reads and scans hand back clones of the stored
/// handle; no path through `apply` copies value bytes.
///
/// **Fingerprint.** The store keeps a cheap incremental fingerprint so
/// replicas can produce a state digest at checkpoints without hashing the
/// whole store. Each applied mutation is hashed together with its global
/// mutation index (1-based, assigned in execution order) and the hashes
/// are folded with a wrapping sum; the embedded index keeps it sensitive
/// to execution *order*, so two honest replicas agree exactly when they
/// executed the same mutations in the same order.
#[derive(Debug, Clone, Default)]
pub struct KvStore {
    shards: [BTreeMap<u64, ValueBytes>; SHARDS],
    applied_mutations: u64,
    fingerprint: u64,
}

/// Hashes one mutation: the global mutation index, the key, and the first
/// 16 value bytes, mixed non-linearly so that permuting (index, key)
/// assignments changes the fold.
fn mutation_hash(index: u64, key: u64, value: &[u8]) -> u64 {
    let mut h = index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ key.rotate_left(17);
    for b in value.iter().take(16) {
        h = h.wrapping_mul(0x100_0000_01b3) ^ u64::from(*b);
    }
    h.wrapping_mul(0xff51_afd7_ed55_8ccd)
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Creates a store pre-loaded with `records` (key, value) pairs.
    pub fn preloaded<V: Into<ValueBytes>>(records: impl IntoIterator<Item = (u64, V)>) -> Self {
        let mut store = KvStore::new();
        for (k, v) in records {
            store.insert_raw(k, v.into());
        }
        store
    }

    /// Creates a store with `count` records of `value_size` deterministic
    /// bytes, mirroring the paper's 600 k-record YCSB table.
    pub fn with_dataset(count: u64, value_size: usize) -> Self {
        let mut store = KvStore::new();
        for key in 0..count {
            let mut value = vec![0u8; value_size];
            for (i, b) in value.iter_mut().enumerate() {
                *b = (key as u8).wrapping_add(i as u8);
            }
            store.insert_raw(key, value.into());
        }
        store
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "key % SHARDS is below SHARDS, the array's length"
    )]
    fn shard(&self, key: u64) -> &BTreeMap<u64, ValueBytes> {
        &self.shards[(key % SHARDS as u64) as usize]
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "key % SHARDS is below SHARDS, the array's length"
    )]
    fn shard_mut(&mut self, key: u64) -> &mut BTreeMap<u64, ValueBytes> {
        &mut self.shards[(key % SHARDS as u64) as usize]
    }

    fn insert_raw(&mut self, key: u64, value: ValueBytes) {
        self.applied_mutations += 1;
        self.fingerprint =
            self.fingerprint
                .wrapping_add(mutation_hash(self.applied_mutations, key, &value));
        self.shard_mut(key).insert(key, value);
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(BTreeMap::len).sum()
    }

    /// Returns `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(BTreeMap::is_empty)
    }

    /// Reads a record directly (outside transaction execution).
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.shard(key).get(&key).map(|v| &**v)
    }

    /// The stored value handle for `key`, sharing the record's buffer.
    pub fn get_shared(&self, key: u64) -> Option<ValueBytes> {
        self.shard(key).get(&key).cloned()
    }

    /// Scans `count` records with keys `>= start_key` in ascending key
    /// order, merging across shards. Rows share the stored value buffers.
    fn scan(&self, start_key: u64, count: usize) -> Vec<(u64, ValueBytes)> {
        let mut iters: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.range(start_key..).peekable())
            .collect();
        let mut out = Vec::with_capacity(count.min(64));
        while out.len() < count {
            let mut best: Option<(usize, u64)> = None;
            for (i, it) in iters.iter_mut().enumerate() {
                if let Some((k, _)) = it.peek() {
                    if best.is_none_or(|(_, bk)| **k < bk) {
                        best = Some((i, **k));
                    }
                }
            }
            match best {
                Some((i, _)) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "the k-way merge only advances an iterator whose head it \
                                  just peeked; a hole here is a broken merge, not an I/O \
                                  condition to recover from"
                    )]
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "i enumerates iters in the loop above"
                    )]
                    let (k, v) = iters[i].next().expect("peeked entry");
                    out.push((*k, v.clone()));
                }
                None => break,
            }
        }
        out
    }

    /// Applies one operation and returns its result. Reads and scans hand
    /// back shared value handles; writes move the op's payload handle into
    /// the store. No value bytes are copied on any path.
    pub fn apply(&mut self, op: &KvOp) -> KvResult {
        match op {
            KvOp::Read { key } => KvResult::Value(self.get_shared(*key)),
            KvOp::Update { key, value } | KvOp::Insert { key, value } => {
                self.insert_raw(*key, value.clone());
                KvResult::Written
            }
            KvOp::ReadModifyWrite { key, value } => {
                let previous = self.get_shared(*key);
                self.insert_raw(*key, value.clone());
                KvResult::Value(previous)
            }
            KvOp::Scan { start_key, count } => {
                KvResult::Range(self.scan(*start_key, *count as usize))
            }
            KvOp::Noop => KvResult::Noop,
        }
    }

    /// A digest summarising the mutation history of the store; two honest
    /// replicas that executed the same ordered mutations report the same
    /// digest, which is what checkpoint agreement compares.
    pub fn state_digest(&self) -> Digest {
        let mut bytes = [0u8; 24];
        bytes[..8].copy_from_slice(&self.fingerprint.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.applied_mutations.to_le_bytes());
        bytes[16..24].copy_from_slice(&(self.len() as u64).to_le_bytes());
        sha256(&bytes)
    }

    /// Number of mutations applied since creation.
    pub fn applied_mutations(&self) -> u64 {
        self.applied_mutations
    }

    /// The wrapping sum of the mutation hashes (see the type docs).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Captures the full store as a [`StateSnapshot`] for checkpoint state
    /// transfer. Values share their buffers with the store (handle clones,
    /// no byte copies); entries come out in ascending key order.
    pub fn to_snapshot(&self) -> StateSnapshot {
        let mut entries: Vec<(u64, ValueBytes)> = self
            .shards
            .iter()
            .flat_map(|shard| shard.iter().map(|(k, v)| (*k, v.clone())))
            .collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        StateSnapshot {
            entries,
            applied_mutations: self.applied_mutations,
            fingerprint: self.fingerprint,
        }
    }

    /// Rebuilds a store from a snapshot taken with [`Self::to_snapshot`].
    /// The mutation counter and fingerprint are restored verbatim (the
    /// snapshot certifies a mutation *history*, not a fresh insert run), so
    /// the rebuilt store reports the same [`Self::state_digest`] as the
    /// store it was captured from.
    pub fn from_snapshot(snapshot: &StateSnapshot) -> Self {
        let mut store = KvStore::new();
        for (key, value) in &snapshot.entries {
            store.shard_mut(*key).insert(*key, value.clone());
        }
        store.applied_mutations = snapshot.applied_mutations;
        store.fingerprint = snapshot.fingerprint;
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_your_writes() {
        let mut store = KvStore::new();
        assert_eq!(store.apply(&KvOp::Read { key: 1 }), KvResult::Value(None));
        store.apply(&KvOp::Insert {
            key: 1,
            value: vec![9, 9].into(),
        });
        assert_eq!(
            store.apply(&KvOp::Read { key: 1 }),
            KvResult::Value(Some(vec![9, 9].into()))
        );
    }

    #[test]
    fn update_overwrites() {
        let mut store = KvStore::preloaded([(5, vec![1])]);
        store.apply(&KvOp::Update {
            key: 5,
            value: vec![2].into(),
        });
        assert_eq!(store.get(5), Some(&[2u8][..]));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn rmw_returns_previous_value() {
        let mut store = KvStore::preloaded([(7, vec![1])]);
        let out = store.apply(&KvOp::ReadModifyWrite {
            key: 7,
            value: vec![2].into(),
        });
        assert_eq!(out, KvResult::Value(Some(vec![1].into())));
        assert_eq!(store.get(7), Some(&[2u8][..]));
    }

    #[test]
    fn scan_returns_sorted_prefix() {
        let store = {
            let mut s = KvStore::new();
            for k in [5u64, 1, 9, 3] {
                s.apply(&KvOp::Insert {
                    key: k,
                    value: vec![k as u8].into(),
                });
            }
            s
        };
        let mut s = store.clone();
        match s.apply(&KvOp::Scan {
            start_key: 2,
            count: 2,
        }) {
            KvResult::Range(r) => {
                assert_eq!(r.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![3, 5]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scan_merges_shards_in_key_order() {
        // 1000 keys scattered across the shards; every window a scan
        // returns must be the globally sorted run.
        let mut s = KvStore::new();
        for k in 0..1000u64 {
            s.apply(&KvOp::Insert {
                key: (k * 7919) % 1000,
                value: vec![k as u8].into(),
            });
        }
        match s.apply(&KvOp::Scan {
            start_key: 123,
            count: 50,
        }) {
            KvResult::Range(r) => {
                let keys: Vec<u64> = r.iter().map(|(k, _)| *k).collect();
                let expect: Vec<u64> = (123..173).collect();
                assert_eq!(keys, expect);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn noop_does_not_change_state_digest() {
        let mut store = KvStore::with_dataset(10, 4);
        let before = store.state_digest();
        assert_eq!(store.apply(&KvOp::Noop), KvResult::Noop);
        let got = store.apply(&KvOp::Read { key: 3 });
        assert_eq!(got, KvResult::Value(store.get_shared(3)));
        assert_eq!(store.state_digest(), before);
    }

    #[test]
    fn same_mutation_sequence_same_digest() {
        let run = || {
            let mut s = KvStore::with_dataset(100, 8);
            for k in 0..50u64 {
                s.apply(&KvOp::Update {
                    key: k,
                    value: vec![k as u8; 8].into(),
                });
            }
            s.state_digest()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_mutation_order_changes_digest() {
        let digest_of = |keys: &[u64]| {
            let mut s = KvStore::new();
            for k in keys {
                s.apply(&KvOp::Insert {
                    key: *k,
                    value: vec![1].into(),
                });
            }
            s.state_digest()
        };
        assert_ne!(digest_of(&[1, 2]), digest_of(&[2, 1]));
    }

    #[test]
    fn reads_share_the_stored_buffer() {
        let value: ValueBytes = vec![7u8; 64].into();
        let mut store = KvStore::new();
        store.apply(&KvOp::Insert {
            key: 1,
            value: value.clone(),
        });
        match store.apply(&KvOp::Read { key: 1 }) {
            KvResult::Value(Some(got)) => {
                assert!(got.shares_buffer(&value), "read must not copy the value")
            }
            other => panic!("unexpected {other:?}"),
        }
        match store.apply(&KvOp::Scan {
            start_key: 0,
            count: 5,
        }) {
            KvResult::Range(rows) => {
                assert!(rows[0].1.shares_buffer(&value), "scan must not copy values")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_digest() {
        let mut store = KvStore::with_dataset(200, 16);
        for k in 0..40u64 {
            store.apply(&KvOp::Update {
                key: k * 3,
                value: vec![k as u8; 8].into(),
            });
        }
        let snapshot = store.to_snapshot();
        let rebuilt = KvStore::from_snapshot(&snapshot);
        assert_eq!(rebuilt.state_digest(), store.state_digest());
        assert_eq!(rebuilt.len(), store.len());
        assert_eq!(rebuilt.applied_mutations(), store.applied_mutations());
        assert_eq!(rebuilt.get(3), store.get(3));
    }

    #[test]
    fn snapshot_shares_value_buffers() {
        let value: ValueBytes = vec![5u8; 32].into();
        let mut store = KvStore::new();
        store.apply(&KvOp::Insert {
            key: 9,
            value: value.clone(),
        });
        let snapshot = store.to_snapshot();
        assert!(snapshot.entries[0].1.shares_buffer(&value));
        let rebuilt = KvStore::from_snapshot(&snapshot);
        assert!(rebuilt.get_shared(9).unwrap().shares_buffer(&value));
    }

    #[test]
    fn dataset_constructor_loads_count_records() {
        let store = KvStore::with_dataset(600, 100);
        assert_eq!(store.len(), 600);
        assert!(!store.is_empty());
        assert_eq!(store.get(599).unwrap().len(), 100);
        assert_eq!(store.applied_mutations(), 600);
    }
}
