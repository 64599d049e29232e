//! The in-memory key-value store the workload executes against.

use flexitrust_crypto::sha256;
use flexitrust_types::{Digest, KvOp, KvResult, StateSnapshot, ValueBytes};
use std::collections::BTreeMap;

use std::mem;
use std::sync::OnceLock;

/// Default number of keyspace shards (see [`KvStore::with_shards`]).
pub const DEFAULT_SHARDS: usize = 8;

/// A deterministic in-memory key-value store, partitioned into keyspace
/// shards.
///
/// **Zero-copy values.** Records hold [`ValueBytes`] — reference-counted
/// immutable buffers. Writes move the client's payload handle into the
/// store (a refcount bump), reads and scans hand back clones of the stored
/// handle; no path through `apply` copies value bytes.
///
/// **Sharding.** Keys are partitioned by `key % shard_count` into
/// independent `BTreeMap` shards so the execution queue can apply
/// non-conflicting op runs on parallel workers. All observable state —
/// `get`, `Scan` results, `len`, and `state_digest` — is independent of
/// the shard count.
///
/// **Fingerprint.** The store keeps a cheap incremental fingerprint so
/// replicas can produce a state digest at checkpoints without hashing the
/// whole store. Each applied mutation is hashed together with its global
/// mutation index (1-based, assigned in execution order) and the hashes
/// are folded with a *commutative* wrapping sum. Commutativity makes the
/// fingerprint identical whether mutations were applied serially or
/// scattered across shard workers; the embedded index keeps it sensitive
/// to execution *order*, so two honest replicas agree exactly when they
/// executed the same mutations in the same order.
#[derive(Debug, Clone)]
pub struct KvStore {
    shards: Vec<BTreeMap<u64, ValueBytes>>,
    applied_mutations: u64,
    fingerprint: u64,
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore::new()
    }
}

/// Hashes one mutation: the global mutation index, the key, and the first
/// 16 value bytes, mixed non-linearly so that permuting (index, key)
/// assignments changes the commutative fold.
pub(crate) fn mutation_hash(index: u64, key: u64, value: &[u8]) -> u64 {
    let mut h = index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ key.rotate_left(17);
    for b in value.iter().take(16) {
        h = h.wrapping_mul(0x100_0000_01b3) ^ u64::from(*b);
    }
    h.wrapping_mul(0xff51_afd7_ed55_8ccd)
}

impl KvStore {
    /// Creates an empty store with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        KvStore::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty store with `shard_count` keyspace shards. The
    /// shard count changes only how work parallelises, never observable
    /// state: digests, reads and scans are bit-identical across counts.
    pub fn with_shards(shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        KvStore {
            shards: (0..shard_count).map(|_| BTreeMap::new()).collect(),
            applied_mutations: 0,
            fingerprint: 0,
        }
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

    /// Returns a store with the same dataset as [`KvStore::with_dataset`],
    /// built **once per process** and shared across callers: every clone
    /// shares the same value buffers by reference (the per-record
    /// `ValueBytes` Arcs), so starting an n-replica cluster on the paper's
    /// 600 k-record table costs one dataset build plus n cheap map clones
    /// instead of n full rebuilds.
    #[expect(
        clippy::disallowed_types,
        reason = "the dataset registry is this crate's only lock, and it is held across no \
                  other lock or blocking channel op: only the dataset build and one map clone"
    )]
    pub fn shared_dataset(count: u64, value_size: usize) -> Self {
        static DATASETS: OnceLock<std::sync::Mutex<BTreeMap<(u64, usize), KvStore>>> =
            OnceLock::new();
        let registry = DATASETS.get_or_init(|| std::sync::Mutex::new(BTreeMap::new()));
        let mut registry = registry
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        registry
            .entry((count, value_size))
            .or_insert_with(|| KvStore::with_dataset(count, value_size))
            .clone()
    }

    /// Repartitions the records into `shard_count` shards. Purely a
    /// parallelism change: the fingerprint, mutation count and record set
    /// are untouched, so observable state — digest, reads, scans — is
    /// identical before and after. Entries move by handle; no value bytes
    /// are copied.
    pub fn reshard(&mut self, shard_count: usize) {
        let shard_count = shard_count.max(1);
        if shard_count == self.shards.len() {
            return;
        }
        let old = mem::replace(
            &mut self.shards,
            (0..shard_count).map(|_| BTreeMap::new()).collect(),
        );
        for map in old {
            for (key, value) in map {
                let shard = self.shard_of(key);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "shard_of reduces modulo shards.len()"
                )]
                self.shards[shard].insert(key, value);
            }
        }
    }

    /// The shard a key lives in.
    pub fn shard_of(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// Number of keyspace shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The global index the *next* mutation will receive (1-based).
    pub(crate) fn next_mutation_index(&self) -> u64 {
        self.applied_mutations + 1
    }

    /// Moves the shard maps out for parallel execution; the store is left
    /// with empty shards and must be refilled with [`Self::restore_shards`].
    pub(crate) fn take_shards(&mut self) -> Vec<BTreeMap<u64, ValueBytes>> {
        let count = self.shards.len();
        mem::replace(
            &mut self.shards,
            (0..count).map(|_| BTreeMap::new()).collect(),
        )
    }

    /// Puts back shard maps taken with [`Self::take_shards`].
    pub(crate) fn restore_shards(&mut self, shards: Vec<BTreeMap<u64, ValueBytes>>) {
        debug_assert_eq!(shards.len(), self.shards.len());
        self.shards = shards;
    }

    /// Folds in the outcome of a parallel run: `mutations` writes whose
    /// commutative hash sum is `fingerprint_delta`.
    pub(crate) fn fold_parallel_run(&mut self, mutations: u64, fingerprint_delta: u64) {
        self.applied_mutations += mutations;
        self.fingerprint = self.fingerprint.wrapping_add(fingerprint_delta);
    }

    fn insert_raw(&mut self, key: u64, value: ValueBytes) {
        self.applied_mutations += 1;
        self.fingerprint =
            self.fingerprint
                .wrapping_add(mutation_hash(self.applied_mutations, key, &value));
        let shard = self.shard_of(key);
        #[expect(
            clippy::indexing_slicing,
            reason = "shard_of reduces modulo shards.len()"
        )]
        self.shards[shard].insert(key, value);
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
        #[expect(
            clippy::indexing_slicing,
            reason = "shard_of reduces modulo shards.len()"
        )]
        self.shards[self.shard_of(key)].get(&key).map(|v| &**v)
    }

    /// The stored value handle for `key`, sharing the record's buffer.
    pub fn get_shared(&self, key: u64) -> Option<ValueBytes> {
        #[expect(
            clippy::indexing_slicing,
            reason = "shard_of reduces modulo shards.len()"
        )]
        self.shards[self.shard_of(key)].get(&key).cloned()
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
    /// digest, which is what checkpoint agreement compares. The digest is
    /// independent of the shard count and of whether mutations were
    /// applied serially or by parallel shard workers (see the type docs).
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

    /// The commutative fold of the mutation hashes (see the type docs).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Captures the full store as a [`StateSnapshot`] for checkpoint state
    /// transfer. Values share their buffers with the store (handle clones,
    /// no byte copies); entries come out in ascending key order so the
    /// snapshot is identical for every shard count.
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
    pub fn from_snapshot(snapshot: &StateSnapshot, shard_count: usize) -> Self {
        let mut store = KvStore::with_shards(shard_count);
        for (key, value) in &snapshot.entries {
            let shard = store.shard_of(*key);
            #[expect(
                clippy::indexing_slicing,
                reason = "shard_of reduces modulo shards.len()"
            )]
            store.shards[shard].insert(*key, value.clone());
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
        // 1000 keys scattered across the default 8 shards; every window a
        // scan returns must be the globally sorted run, and identical for
        // every shard count.
        for shards in [1, 3, 8, 13] {
            let mut s = KvStore::with_shards(shards);
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
                    assert_eq!(keys, expect, "shards={shards}");
                }
                other => panic!("unexpected {other:?}"),
            }
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
    fn digest_is_shard_count_invariant() {
        let digest_for = |shards: usize| {
            let mut s = KvStore::with_shards(shards);
            for k in 0..200u64 {
                s.apply(&KvOp::Update {
                    key: k % 37,
                    value: vec![k as u8; 12].into(),
                });
            }
            s.state_digest()
        };
        let reference = digest_for(1);
        for shards in [2, 4, 8, 16] {
            assert_eq!(digest_for(shards), reference, "shards={shards}");
        }
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
    fn shared_dataset_shares_value_buffers_across_clones() {
        let a = KvStore::shared_dataset(512, 32);
        let b = KvStore::shared_dataset(512, 32);
        assert_eq!(a.len(), 512);
        assert_eq!(a.state_digest(), b.state_digest());
        let va = a.get_shared(100).unwrap();
        let vb = b.get_shared(100).unwrap();
        assert!(
            va.shares_buffer(&vb),
            "shared dataset clones must share record buffers"
        );
    }

    #[test]
    fn snapshot_round_trip_preserves_digest_across_shard_counts() {
        let mut store = KvStore::with_dataset(200, 16);
        for k in 0..40u64 {
            store.apply(&KvOp::Update {
                key: k * 3,
                value: vec![k as u8; 8].into(),
            });
        }
        let snapshot = store.to_snapshot();
        for shards in [1, 4, 8, 13] {
            let rebuilt = KvStore::from_snapshot(&snapshot, shards);
            assert_eq!(
                rebuilt.state_digest(),
                store.state_digest(),
                "shards={shards}"
            );
            assert_eq!(rebuilt.len(), store.len());
            assert_eq!(rebuilt.applied_mutations(), store.applied_mutations());
            assert_eq!(rebuilt.get(3), store.get(3));
        }
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
        let rebuilt = KvStore::from_snapshot(&snapshot, 2);
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
