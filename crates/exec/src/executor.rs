//! The sharded parallel executor behind [`crate::ExecutionQueue`].
//!
//! Committed op runs are partitioned by key shard (`key % shard_count`)
//! and applied by a persistent pool of worker threads, one job per shard.
//! Determinism comes from three rules:
//!
//! 1. **Per-shard order.** Every op lands in exactly one shard (single-key
//!    ops only — `Scan` never reaches the executor; the queue routes it to
//!    the serial lane). Within a shard, ops run in group order, so a read
//!    observes exactly the writes that precede it serially.
//! 2. **Batch-order reassembly.** Each op carries its result slot; per-op
//!    results are scattered by the workers and gathered back into batch
//!    order, so the outcome vector is identical to serial execution.
//! 3. **Commutative fingerprint fold.** Mutation indices are assigned in
//!    group order *before* the scatter; each worker sums
//!    `mutation_hash(index, key, value)` for its shard and the store folds
//!    the per-shard sums with a wrapping add — associative and
//!    commutative, so the digest is independent of worker interleaving
//!    and bit-identical to the serial path.
//!
//! A pool of `workers <= 1` spawns no threads at all: the group executes
//! inline through [`KvStore::apply`], which is also the reference
//! behaviour the parallel path must reproduce exactly.

use crate::kvstore::{mutation_hash, KvStore};
use flexitrust_types::{KvOp, KvResult, ValueBytes};
use std::collections::BTreeMap;
use std::fmt;
use std::mem;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// One worker's slice of an execution group: every shard assigned to the
/// worker (`shard % workers`), each with its map (moved out of the store
/// for the duration of the job) and its ops in group order, tagged with
/// their result slot and — for writes — their global mutation index. All
/// of a worker's shards travel in ONE job, so a group costs each worker a
/// single send/recv wakeup no matter how many shards it owns. Op clones
/// share value buffers (refcount bumps, no byte copies).
type LaneJob = Vec<LaneShard>;

/// One shard within a [`LaneJob`]: its index, its map, and its ops in
/// group order tagged `(result slot, op, mutation index)`.
type LaneShard = (usize, BTreeMap<u64, ValueBytes>, Vec<(usize, KvOp, u64)>);

/// What a worker hands back: the updated shard maps, per-slot results, and
/// the lane's contribution to the store's mutation counter/fingerprint.
struct LaneOutcome {
    shards: Vec<(usize, BTreeMap<u64, ValueBytes>)>,
    results: Vec<(usize, KvResult)>,
    mutations: u64,
    fingerprint_delta: u64,
}

fn run_lane(shards: LaneJob) -> LaneOutcome {
    let mut done = Vec::with_capacity(shards.len());
    let mut results = Vec::with_capacity(shards.iter().map(|(_, _, ops)| ops.len()).sum());
    let mut mutations = 0u64;
    let mut fingerprint_delta = 0u64;
    for (shard, mut map, ops) in shards {
        for (slot, op, index) in ops {
            let result = match op {
                KvOp::Read { key } => KvResult::Value(map.get(&key).cloned()),
                KvOp::Update { key, value } | KvOp::Insert { key, value } => {
                    fingerprint_delta =
                        fingerprint_delta.wrapping_add(mutation_hash(index, key, &value));
                    mutations += 1;
                    map.insert(key, value);
                    KvResult::Written
                }
                KvOp::ReadModifyWrite { key, value } => {
                    let previous = map.get(&key).cloned();
                    fingerprint_delta =
                        fingerprint_delta.wrapping_add(mutation_hash(index, key, &value));
                    mutations += 1;
                    map.insert(key, value);
                    KvResult::Value(previous)
                }
                #[expect(
                    clippy::unreachable,
                    reason = "the queue routes Scan to the serial lane and answers Noop inline at \
                              scatter, so neither variant is ever enqueued for a shard worker"
                )]
                KvOp::Scan { .. } | KvOp::Noop => {
                    unreachable!("cross-shard and no-op ops never reach a shard worker")
                }
            };
            results.push((slot, result));
        }
        done.push((shard, map));
    }
    LaneOutcome {
        shards: done,
        results,
        mutations,
        fingerprint_delta,
    }
}

/// A persistent pool of shard workers. Shard `s` is always dispatched to
/// worker `s % workers`, so the assignment — like everything else on this
/// path — is deterministic.
pub struct ShardedExecutor {
    /// Per-worker job lanes; empty when the pool runs inline (`workers <= 1`).
    job_lanes: Vec<Sender<LaneJob>>,
    handles: Vec<JoinHandle<()>>,
    results_rx: Receiver<LaneOutcome>,
}

impl ShardedExecutor {
    /// Creates a pool of `workers` threads; `workers <= 1` creates no
    /// threads and executes groups inline.
    pub fn new(workers: usize) -> Self {
        let (results_tx, results_rx) = channel::<LaneOutcome>();
        let mut job_lanes = Vec::new();
        let mut handles = Vec::new();
        if workers > 1 {
            for w in 0..workers {
                let (tx, rx) = channel::<LaneJob>();
                let out = results_tx.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("exec-shard-{w}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            if out.send(run_lane(job)).is_err() {
                                break;
                            }
                        }
                    });
                // Thread exhaustion at construction degrades to fewer
                // lanes (zero lanes = the serial inline path) instead of
                // panicking the replica; results are identical either way.
                let Ok(handle) = spawned else { break };
                job_lanes.push(tx);
                handles.push(handle);
            }
        }
        ShardedExecutor {
            job_lanes,
            handles,
            results_rx,
        }
    }

    /// Number of workers applying shard runs (1 = inline serial).
    pub fn worker_count(&self) -> usize {
        self.job_lanes.len().max(1)
    }

    /// Serial reference path: applies the ops inline through the store.
    fn run_inline(store: &mut KvStore, ops: &[&KvOp]) -> Vec<KvResult> {
        ops.iter().map(|op| store.apply(op)).collect()
    }

    /// Executes a group of single-key ops against `store` and returns the
    /// per-op results in op order — bit-identical, results and digest both,
    /// to applying the ops serially through [`KvStore::apply`].
    ///
    /// The caller (the execution queue) must route `Scan` ops to the
    /// serial lane; they cross shards and are not accepted here.
    pub fn execute_group(&self, store: &mut KvStore, ops: &[&KvOp]) -> Vec<KvResult> {
        debug_assert!(
            !ops.iter().any(|op| matches!(op, KvOp::Scan { .. })),
            "Scan must take the serial lane"
        );
        if self.job_lanes.is_empty() || ops.len() < 2 {
            return Self::run_inline(store, ops);
        }

        // Assign mutation indices in group order (exactly the indices the
        // serial path would assign), then partition by shard.
        let shard_count = store.shard_count();
        let mut per_shard: Vec<Vec<(usize, KvOp, u64)>> = vec![Vec::new(); shard_count];
        let mut results: Vec<Option<KvResult>> = vec![None; ops.len()];
        let mut next_index = store.next_mutation_index();
        for (slot, op) in ops.iter().enumerate() {
            let (key, indexed) = match op {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "slot comes from enumerate() over ops; results has ops.len() entries"
                )]
                KvOp::Noop => {
                    results[slot] = Some(KvResult::Noop);
                    continue;
                }
                KvOp::Read { key } => (*key, 0),
                KvOp::Update { key, .. }
                | KvOp::Insert { key, .. }
                | KvOp::ReadModifyWrite { key, .. } => {
                    let index = next_index;
                    next_index += 1;
                    (*key, index)
                }
                KvOp::Scan { .. } => return Self::run_inline(store, ops),
            };
            #[expect(
                clippy::indexing_slicing,
                reason = "shard_of reduces modulo shard_count, per_shard's exact length"
            )]
            per_shard[store.shard_of(key)].push((slot, (*op).clone(), indexed));
        }

        // Scatter: each touched shard's map moves out to its worker, all of
        // a worker's shards coalesced into one job (one wakeup per lane).
        let mut shards = store.take_shards();
        let lanes = self.job_lanes.len();
        let mut per_worker: Vec<LaneJob> = vec![Vec::new(); lanes];
        for (shard, shard_ops) in per_shard.into_iter().enumerate() {
            if shard_ops.is_empty() {
                continue;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "shard enumerates per_shard (shard_count = shards.len() entries); % lanes \
                          matches per_worker's length"
            )]
            per_worker[shard % lanes].push((shard, mem::take(&mut shards[shard]), shard_ops));
        }
        let mut outstanding = 0usize;
        let mut salvaged: Vec<LaneOutcome> = Vec::new();
        for (worker, lane_shards) in per_worker.into_iter().enumerate() {
            if lane_shards.is_empty() {
                continue;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "worker enumerates per_worker, built with exactly job_lanes.len() entries"
            )]
            match self.job_lanes[worker].send(lane_shards) {
                Ok(()) => outstanding += 1,
                // A dead worker hands the un-run job back inside the send
                // error: execute its lanes on this thread instead of
                // panicking — same results, just without the parallelism.
                Err(returned) => salvaged.push(run_lane(returned.0)),
            }
        }

        // Gather: fold per-shard sums (wrapping add commutes, so arrival
        // order is irrelevant) and scatter results back into their slots.
        let mut mutations = 0u64;
        let mut fingerprint_delta = 0u64;
        #[expect(
            clippy::expect_used,
            reason = "a worker that dies after taking a job takes its shard maps with it; \
                      there is no way to keep executing without silently losing committed \
                      state, so fail loudly"
        )]
        let received =
            (0..outstanding).map(|_| self.results_rx.recv().expect("execution worker alive"));
        for outcome in salvaged.into_iter().chain(received) {
            #[expect(
                clippy::indexing_slicing,
                reason = "shard ids round-trip through the job unchanged and were < shards.len() \
                          at scatter"
            )]
            for (shard, map) in outcome.shards {
                shards[shard] = map;
            }
            mutations += outcome.mutations;
            fingerprint_delta = fingerprint_delta.wrapping_add(outcome.fingerprint_delta);
            #[expect(
                clippy::indexing_slicing,
                reason = "slots round-trip through the job unchanged and were < results.len() at \
                          scatter"
            )]
            for (slot, result) in outcome.results {
                results[slot] = Some(result);
            }
        }
        store.restore_shards(shards);
        store.fold_parallel_run(mutations, fingerprint_delta);
        #[expect(
            clippy::expect_used,
            reason = "slot coverage is a structural invariant of the scatter phase above \
                      (every op is either answered inline or assigned to exactly one \
                      shard); papering over a hole here would return corrupt results for \
                      committed transactions"
        )]
        let filled = results
            .into_iter()
            .map(|r| r.expect("every op slot filled"))
            .collect();
        filled
    }
}

impl fmt::Debug for ShardedExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedExecutor")
            .field("workers", &self.worker_count())
            .finish()
    }
}

impl Drop for ShardedExecutor {
    fn drop(&mut self) {
        // Closing the job lanes ends the worker loops.
        self.job_lanes.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::Digest;

    fn ops_mixed(n: u64) -> Vec<KvOp> {
        (0..n)
            .flat_map(|i| {
                [
                    KvOp::Update {
                        key: i % 97,
                        value: vec![i as u8; 24].into(),
                    },
                    KvOp::Read { key: (i + 1) % 97 },
                    KvOp::ReadModifyWrite {
                        key: (i * 7) % 97,
                        value: vec![(i + 1) as u8; 8].into(),
                    },
                    KvOp::Noop,
                ]
            })
            .collect()
    }

    fn serial_reference(ops: &[KvOp]) -> (Vec<KvResult>, Digest) {
        let mut store = KvStore::with_dataset(97, 16);
        let results = ops.iter().map(|op| store.apply(op)).collect();
        (results, store.state_digest())
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let ops = ops_mixed(200);
        let (want_results, want_digest) = serial_reference(&ops);
        for workers in [2, 3, 4, 8] {
            let executor = ShardedExecutor::new(workers);
            let mut store = KvStore::with_dataset(97, 16);
            let refs: Vec<&KvOp> = ops.iter().collect();
            let got = executor.execute_group(&mut store, &refs);
            assert_eq!(got, want_results, "workers={workers}");
            assert_eq!(store.state_digest(), want_digest, "workers={workers}");
        }
    }

    #[test]
    fn single_worker_pool_spawns_no_threads_and_matches() {
        let ops = ops_mixed(50);
        let (want_results, want_digest) = serial_reference(&ops);
        let executor = ShardedExecutor::new(1);
        assert_eq!(executor.worker_count(), 1);
        let mut store = KvStore::with_dataset(97, 16);
        let refs: Vec<&KvOp> = ops.iter().collect();
        assert_eq!(executor.execute_group(&mut store, &refs), want_results);
        assert_eq!(store.state_digest(), want_digest);
    }

    #[test]
    fn group_split_matches_one_shot() {
        // Executing a group in two halves (with indices carried by the
        // store in between) equals executing it at once.
        let ops = ops_mixed(40);
        let executor = ShardedExecutor::new(4);
        let mut once = KvStore::with_dataset(97, 16);
        let refs: Vec<&KvOp> = ops.iter().collect();
        let all = executor.execute_group(&mut once, &refs);

        let mut halves = KvStore::with_dataset(97, 16);
        let (a, b) = refs.split_at(refs.len() / 2);
        let mut got = executor.execute_group(&mut halves, a);
        got.extend(executor.execute_group(&mut halves, b));
        assert_eq!(got, all);
        assert_eq!(halves.state_digest(), once.state_digest());
    }
}
