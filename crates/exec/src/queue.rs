//! In-order execution of committed batches.
//!
//! All protocols in the paper share the rule "execute the request at slot `k`
//! only after the request at slot `k − 1` has executed". The engine layer
//! marks batches as executable in whatever order quorums happen to complete;
//! the [`ExecutionQueue`] holds them until their turn comes, applies every
//! transaction to the [`KvStore`], and returns the per-transaction outcomes
//! that are sent back to clients.

use crate::kvstore::KvStore;
use flexitrust_types::{Batch, Digest, SeqNum, TxnOutcome};
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
/// sequence-number order, one transaction after another, on the caller's
/// thread.
#[derive(Debug, Default)]
pub struct ExecutionQueue {
    store: KvStore,
    pending: BTreeMap<u64, Batch>,
    last_executed: u64,
}

impl ExecutionQueue {
    /// Creates a queue over an empty store.
    pub fn new() -> Self {
        ExecutionQueue::default()
    }

    /// Creates a queue over a pre-loaded store.
    pub fn with_store(store: KvStore) -> Self {
        ExecutionQueue {
            store,
            ..ExecutionQueue::default()
        }
    }

    /// The highest sequence number executed so far (0 = nothing executed).
    pub fn last_executed(&self) -> SeqNum {
        SeqNum(self.last_executed)
    }

    /// Number of batches waiting for earlier sequence numbers.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
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
        while self.last_executed < through.0 {
            let seq = self.last_executed + 1;
            let Some(batch) = self.pending.remove(&seq) else {
                break;
            };
            let outcomes = batch
                .txns()
                .iter()
                .map(|txn| TxnOutcome {
                    client: txn.client(),
                    request: txn.request(),
                    result: self.store.apply(txn.op()),
                })
                .collect();
            self.last_executed = seq;
            executed.push(ExecutedBatch {
                seq: SeqNum(seq),
                batch,
                outcomes,
            });
        }
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
    }

    #[test]
    fn duplicate_submission_is_idempotent() {
        let mut q = ExecutionQueue::new();
        let first = q.submit(SeqNum(1), batch(1, 1));
        assert_eq!(first.len(), 1);
        assert!(q.submit(SeqNum(1), batch(99, 1)).is_empty());
        assert_eq!(q.last_executed(), SeqNum(1));
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
