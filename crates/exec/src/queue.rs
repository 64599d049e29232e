//! In-order execution of committed batches.
//!
//! All protocols in the paper share the rule "execute the request at slot `k`
//! only after the request at slot `k − 1` has executed". The engine layer
//! marks batches as executable in whatever order quorums happen to complete;
//! the [`ExecutionQueue`] holds them until their turn comes, applies every
//! transaction to the [`KvStore`], and returns the per-transaction outcomes
//! that are sent back to clients.

use crate::executor::ShardedExecutor;
use crate::kvstore::KvStore;
use flexitrust_types::{Batch, Digest, KvOp, SeqNum, TxnOutcome};
use std::collections::BTreeMap;

/// The result of executing one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutedBatch {
    /// The sequence number the batch was executed at.
    pub seq: SeqNum,
    /// The executed batch (a handle onto its shared payload).
    pub batch: Batch,
    /// Per-transaction outcomes, in batch order.
    pub outcomes: Vec<TxnOutcome>,
}

/// Holds committed-but-not-yet-executable batches and executes them in
/// sequence-number order.
///
/// Draining is grouped: when a submission unblocks several contiguous
/// batches (common under out-of-order commit bursts), every parallel-safe
/// batch in the run is flattened into one op group and scattered across
/// the shard workers in a single round trip; batches containing `Scan`
/// execute serially, in order, between the parallel segments. The results
/// — per-op outcomes and the store's state digest — are bit-identical to
/// executing every batch serially (see [`ShardedExecutor`]).
#[derive(Debug)]
pub struct ExecutionQueue {
    store: KvStore,
    executor: ShardedExecutor,
    pending: BTreeMap<u64, Batch>,
    last_executed: u64,
    executed_count: u64,
    executed_txns: u64,
}

impl Default for ExecutionQueue {
    fn default() -> Self {
        ExecutionQueue::new()
    }
}

impl ExecutionQueue {
    /// Creates a serial (one-worker) queue over an empty store.
    pub fn new() -> Self {
        ExecutionQueue::with_store(KvStore::new())
    }

    /// Creates a serial (one-worker) queue over a pre-loaded store.
    pub fn with_store(store: KvStore) -> Self {
        ExecutionQueue::with_workers(store, 1)
    }

    /// Creates a queue over `store` with a pool of `workers` shard
    /// workers; `workers <= 1` executes inline on the caller's thread.
    pub fn with_workers(store: KvStore, workers: usize) -> Self {
        ExecutionQueue {
            store,
            executor: ShardedExecutor::new(workers),
            pending: BTreeMap::new(),
            last_executed: 0,
            executed_count: 0,
            executed_txns: 0,
        }
    }

    /// Number of shard workers executing committed batches.
    pub fn worker_count(&self) -> usize {
        self.executor.worker_count()
    }

    /// The highest sequence number executed so far (0 = nothing executed).
    pub fn last_executed(&self) -> SeqNum {
        SeqNum(self.last_executed)
    }

    /// Number of batches waiting for earlier sequence numbers.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Total number of batches executed.
    pub fn executed_batches(&self) -> u64 {
        self.executed_count
    }

    /// Total number of transactions executed.
    pub fn executed_txns(&self) -> u64 {
        self.executed_txns
    }

    /// Read-only access to the underlying store.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Digest of the current state (used by checkpoints).
    pub fn state_digest(&self) -> Digest {
        self.store.state_digest()
    }

    /// Returns `true` when the batch at `seq` has already been executed.
    pub fn is_executed(&self, seq: SeqNum) -> bool {
        seq.0 <= self.last_executed && seq.0 > 0
    }

    /// Offers a committed batch at `seq`; executes it (and any unblocked
    /// successors) if it is next in order, otherwise parks it.
    ///
    /// Re-offering an already-executed or already-pending sequence number is
    /// a no-op: execution is idempotent per slot.
    pub fn submit(&mut self, seq: SeqNum, batch: Batch) -> Vec<ExecutedBatch> {
        let mut executed = Vec::new();
        if self.park(seq, batch) {
            self.execute_ready(SeqNum(u64::MAX), &mut executed);
        }
        executed
    }

    /// Parks a committed batch at `seq` without executing anything. Returns
    /// `false` (and drops the batch) when that sequence number has already
    /// executed or is already parked.
    pub fn park(&mut self, seq: SeqNum, batch: Batch) -> bool {
        if self.is_executed(seq) || self.pending.contains_key(&seq.0) {
            return false;
        }
        self.pending.insert(seq.0, batch);
        true
    }

    /// Executes the contiguous run of parked batches that starts after the
    /// last executed one and ends at `through` at the latest, appending the
    /// results to `executed`. A caller that must observe the store at
    /// exactly `through` (a checkpoint boundary) stops the run there and
    /// calls again for the rest.
    pub fn execute_ready(&mut self, through: SeqNum, executed: &mut Vec<ExecutedBatch>) {
        // Collect the whole contiguous ready run, then execute it as
        // parallel segments split at Scan-containing batches.
        let mut ready = Vec::new();
        let mut next = self.last_executed + 1;
        while next <= through.0 {
            let Some(batch) = self.pending.remove(&next) else {
                break;
            };
            ready.push(batch);
            next += 1;
        }

        let mut run: Vec<Batch> = Vec::new();
        for batch in ready {
            let cross_shard = batch
                .txns()
                .iter()
                .any(|txn| matches!(txn.op(), KvOp::Scan { .. }));
            if cross_shard {
                self.flush_run(&mut run, executed);
                // Serial lane: Scan reads across every shard, so the whole
                // batch executes in order on this thread.
                let outcomes = batch
                    .txns()
                    .iter()
                    .map(|txn| TxnOutcome {
                        client: txn.client(),
                        request: txn.request(),
                        result: self.store.apply(txn.op()),
                    })
                    .collect();
                self.record_executed(batch, outcomes, executed);
            } else {
                run.push(batch);
            }
        }
        self.flush_run(&mut run, executed);
    }

    /// Executes a run of parallel-safe batches as one scatter/gather group
    /// and reassembles per-batch outcomes in batch order.
    fn flush_run(&mut self, run: &mut Vec<Batch>, executed: &mut Vec<ExecutedBatch>) {
        if run.is_empty() {
            return;
        }
        let mut results = {
            let ops: Vec<&KvOp> = run
                .iter()
                .flat_map(|batch| batch.txns().iter().map(|txn| txn.op()))
                .collect();
            self.executor
                .execute_group(&mut self.store, &ops)
                .into_iter()
        };
        for batch in run.drain(..) {
            let outcomes = batch
                .txns()
                .iter()
                .map(|txn| TxnOutcome {
                    client: txn.client(),
                    request: txn.request(),
                    #[expect(
                        clippy::expect_used,
                        reason = "the executor returns exactly one result per submitted op \
                                  (pinned by exec_determinism proptests); continuing past a \
                                  miscount would ack transactions that never executed"
                    )]
                    result: results.next().expect("one result per op"),
                })
                .collect();
            self.record_executed(batch, outcomes, executed);
        }
        debug_assert!(results.next().is_none(), "no results left over");
    }

    fn record_executed(
        &mut self,
        batch: Batch,
        outcomes: Vec<TxnOutcome>,
        executed: &mut Vec<ExecutedBatch>,
    ) {
        let seq = SeqNum(self.last_executed + 1);
        self.executed_count += 1;
        self.executed_txns += batch.len() as u64;
        self.last_executed = seq.0;
        executed.push(ExecutedBatch {
            seq,
            batch,
            outcomes,
        });
    }

    /// Skips directly to `seq` without executing the missing slots; used only
    /// by state transfer after a checkpoint proves the state at `seq`.
    pub fn fast_forward(&mut self, seq: SeqNum, store: KvStore) {
        if seq.0 <= self.last_executed {
            return;
        }
        self.store = store;
        self.last_executed = seq.0;
        self.pending = self.pending.split_off(&(seq.0 + 1));
    }

    /// Rolls back speculative execution to `seq`, restoring the provided
    /// store snapshot (used by speculative protocols — Zyzzyva, MinZZ,
    /// Flexi-ZZ — when a view change discards speculatively executed slots).
    pub fn rollback_to(&mut self, seq: SeqNum, store: KvStore) {
        self.store = store;
        self.last_executed = seq.0;
        self.pending.retain(|k, _| *k > seq.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::{ClientId, KvOp, RequestId, Transaction};

    fn batch(tag: u64, key: u64) -> Batch {
        Batch::new(
            vec![Transaction::new(
                ClientId(1),
                RequestId(tag),
                KvOp::Update {
                    key,
                    value: vec![tag as u8].into(),
                },
            )],
            Digest::from_u64_tag(tag),
        )
    }

    #[test]
    fn executes_in_order_even_when_submitted_out_of_order() {
        let mut q = ExecutionQueue::new();
        assert!(q.submit(SeqNum(2), batch(2, 20)).is_empty());
        assert!(q.submit(SeqNum(3), batch(3, 30)).is_empty());
        assert_eq!(q.pending_len(), 2);

        let executed = q.submit(SeqNum(1), batch(1, 10));
        assert_eq!(executed.len(), 3);
        assert_eq!(
            executed.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![SeqNum(1), SeqNum(2), SeqNum(3)]
        );
        assert_eq!(q.last_executed(), SeqNum(3));
        assert_eq!(q.pending_len(), 0);
        assert_eq!(q.executed_txns(), 3);
    }

    #[test]
    fn duplicate_submission_is_idempotent() {
        let mut q = ExecutionQueue::new();
        let first = q.submit(SeqNum(1), batch(1, 1));
        assert_eq!(first.len(), 1);
        assert!(q.submit(SeqNum(1), batch(99, 1)).is_empty());
        assert_eq!(q.executed_batches(), 1);
        // The original write survives.
        assert_eq!(q.store().get(1), Some(&[1u8][..]));
    }

    #[test]
    fn outcomes_carry_client_and_request_ids() {
        let mut q = ExecutionQueue::new();
        let executed = q.submit(SeqNum(1), batch(7, 5));
        assert_eq!(executed[0].outcomes[0].client, ClientId(1));
        assert_eq!(executed[0].outcomes[0].request, RequestId(7));
    }

    #[test]
    fn gaps_block_execution() {
        let mut q = ExecutionQueue::new();
        q.submit(SeqNum(1), batch(1, 1));
        assert!(q.submit(SeqNum(3), batch(3, 3)).is_empty());
        assert_eq!(q.last_executed(), SeqNum(1));
        let executed = q.submit(SeqNum(2), batch(2, 2));
        assert_eq!(executed.len(), 2);
        assert_eq!(q.last_executed(), SeqNum(3));
    }

    #[test]
    fn fast_forward_skips_missing_history() {
        let mut q = ExecutionQueue::new();
        q.submit(SeqNum(5), batch(5, 5));
        let snapshot = KvStore::with_dataset(10, 4);
        q.fast_forward(SeqNum(4), snapshot);
        assert_eq!(q.last_executed(), SeqNum(4));
        // The parked batch at 5 is now next in order; the next submission
        // unblocks it and both 5 and 6 execute.
        let executed = q.submit(SeqNum(6), batch(6, 6));
        assert_eq!(
            executed.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![SeqNum(5), SeqNum(6)]
        );
        assert_eq!(q.last_executed(), SeqNum(6));
        assert_eq!(q.pending_len(), 0);
    }

    #[test]
    fn fast_forward_backwards_is_ignored() {
        let mut q = ExecutionQueue::new();
        q.submit(SeqNum(1), batch(1, 1));
        q.fast_forward(SeqNum(0), KvStore::new());
        assert_eq!(q.last_executed(), SeqNum(1));
    }

    #[test]
    fn rollback_discards_speculative_state() {
        let mut q = ExecutionQueue::new();
        let clean = q.store().clone();
        q.submit(SeqNum(1), batch(1, 1));
        q.submit(SeqNum(2), batch(2, 2));
        assert_eq!(q.last_executed(), SeqNum(2));
        q.rollback_to(SeqNum(0), clean);
        assert_eq!(q.last_executed(), SeqNum(0));
        assert!(q.store().is_empty());
    }

    #[test]
    fn is_executed_boundaries() {
        let mut q = ExecutionQueue::new();
        assert!(!q.is_executed(SeqNum(0)));
        assert!(!q.is_executed(SeqNum(1)));
        q.submit(SeqNum(1), batch(1, 1));
        assert!(q.is_executed(SeqNum(1)));
        assert!(!q.is_executed(SeqNum(2)));
    }
}
