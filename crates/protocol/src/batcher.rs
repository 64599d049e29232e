//! Client-request batching at the primary.
//!
//! ResilientDB (the fabric the paper builds on) batches client requests both
//! at the client and at the primary; consensus is then run once per batch.
//! The [`Batcher`] accumulates incoming transactions and releases a full
//! batch as soon as `batch_size` transactions are available, or a partial
//! batch when the engine decides to flush (on a `BatchFlush` timer).

use flexitrust_crypto::make_batch;
use flexitrust_types::{Batch, Transaction};
use std::collections::VecDeque;

/// Accumulates transactions into consensus batches.
#[derive(Debug, Default)]
pub struct Batcher {
    batch_size: usize,
    pending: VecDeque<Transaction>,
}

impl Batcher {
    /// Creates a batcher producing batches of `batch_size` transactions.
    pub fn new(batch_size: usize) -> Self {
        Batcher {
            batch_size: batch_size.max(1),
            pending: VecDeque::new(),
        }
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of transactions waiting for a batch.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Adds transactions and returns every *full* batch they complete.
    pub fn push(&mut self, txns: Vec<Transaction>) -> Vec<Batch> {
        self.pending.extend(txns);
        let mut out = Vec::new();
        while self.pending.len() >= self.batch_size {
            let txns: Vec<Transaction> = self.pending.drain(..self.batch_size).collect();
            out.push(make_batch(txns));
        }
        out
    }

    /// Releases whatever is pending as a (possibly smaller) batch; returns
    /// `None` when nothing is pending.
    pub fn flush(&mut self) -> Option<Batch> {
        if self.pending.is_empty() {
            return None;
        }
        let txns: Vec<Transaction> = self.pending.drain(..).collect();
        Some(make_batch(txns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::{ClientId, KvOp, RequestId};

    fn txns(n: usize) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::new(
                    ClientId(1),
                    RequestId(i as u64),
                    KvOp::Read { key: i as u64 },
                )
            })
            .collect()
    }

    #[test]
    fn full_batches_are_released_eagerly() {
        let mut b = Batcher::new(10);
        assert!(b.push(txns(9)).is_empty());
        assert_eq!(b.pending_len(), 9);
        let out = b.push(txns(11));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].len(), 10);
        assert_eq!(out[1].len(), 10);
        assert_eq!(b.pending_len(), 0);
    }

    #[test]
    fn flush_releases_partial_batches() {
        let mut b = Batcher::new(100);
        b.push(txns(5));
        let batch = b.flush().unwrap();
        assert_eq!(batch.len(), 5);
        assert!(b.flush().is_none());
    }

    #[test]
    fn batches_carry_correct_digests() {
        let mut b = Batcher::new(3);
        let out = b.push(txns(3));
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].digest(),
            flexitrust_crypto::digest_batch(out[0].txns())
        );
    }

    #[test]
    fn batch_size_is_clamped_to_one() {
        let mut b = Batcher::new(0);
        assert_eq!(b.batch_size(), 1);
        assert_eq!(b.push(txns(2)).len(), 2);
    }

    #[test]
    fn ordering_is_preserved() {
        let mut b = Batcher::new(4);
        let out = b.push(txns(4));
        let ids: Vec<u64> = out[0].txns().iter().map(|t| t.request().0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
