//! The closed-loop client both threaded hosts run: a burst of transactions
//! submitted batch by batch as it is built, replies collected through one
//! [`ClientLibrary`] per client, and the commit log kept in order as the
//! completions arrive.

use crossbeam::channel::Receiver;
use flexitrust_protocol::host::CommittedTxn;
use flexitrust_protocol::{ClientLibrary, ClientReply, ProtocolProperties, RequestStatus};
use flexitrust_types::{ClientId, KvOp, RequestId, SystemConfig, Transaction};
use std::sync::atomic::{AtomicU64, Ordering};
#[expect(
    clippy::disallowed_types,
    reason = "Instant times the workload and its timeout; the items that read it carry \
              their own expects"
)]
use std::time::{Duration, Instant};

use crate::cluster::ClusterSummary;

/// The burst `run_workload` submits, as a lazy iterator of batches.
///
/// Transaction `i` is client `i mod clients`'s request
/// `first_request + i / clients`, a 16-byte update of key `i`, and batch
/// `k` holds transactions `k · batch` onwards. A batch is built when it is
/// asked for, so the first one can leave before the last one exists.
#[derive(Debug, Clone)]
pub(crate) struct Burst {
    next: usize,
    total: usize,
    clients: usize,
    batch: usize,
    first_request: u64,
}

impl Burst {
    /// `total` transactions from `clients` clients in batches of `batch`,
    /// every client's ids starting at `first_request`. Zero clients or a
    /// zero batch size count as one.
    pub(crate) fn new(first_request: u64, total: usize, clients: usize, batch: usize) -> Self {
        Burst {
            next: 0,
            total,
            clients: clients.max(1),
            batch: batch.max(1),
            first_request,
        }
    }

    /// Like [`Burst::new`], with ids taken off a cluster's `next_request`:
    /// each burst's ids follow the previous one's, so late replies to an
    /// earlier burst never complete a request of this one.
    pub(crate) fn reserve(
        next_request: &AtomicU64,
        total: usize,
        clients: usize,
        batch: usize,
    ) -> Self {
        let ids = total.div_ceil(clients.max(1)) as u64;
        let first_request = next_request.fetch_add(ids, Ordering::Relaxed);
        Self::new(first_request, total, clients, batch)
    }

    /// The number of clients issuing the burst.
    pub(crate) fn clients(&self) -> usize {
        self.clients
    }

    fn txn(&self, i: usize) -> Transaction {
        Transaction::new(
            ClientId((i % self.clients) as u64),
            RequestId(self.first_request + (i / self.clients) as u64),
            KvOp::Update {
                key: i as u64,
                value: [i as u8; 16].into(),
            },
        )
    }
}

impl Iterator for Burst {
    type Item = Vec<Transaction>;

    fn next(&mut self) -> Option<Vec<Transaction>> {
        let start = self.next;
        if start >= self.total {
            return None;
        }
        self.next = start.saturating_add(self.batch).min(self.total);
        Some((start..self.next).map(|i| self.txn(i)).collect())
    }
}

/// A run's completions in commit-log order — by sequence number, then
/// client, then request — kept so as they arrive: one bucket per sequence
/// number, in order. Completions come roughly in sequence order, and within
/// one roughly in batch order, so a record lands in the last bucket or two,
/// near their end. Nothing is left to sort after the last reply.
struct CommitLog {
    /// Never empty; every entry of one bucket has the same `seq`.
    buckets: Vec<Vec<CommittedTxn>>,
    batch: usize,
}

impl CommitLog {
    fn new(batch: usize) -> Self {
        CommitLog {
            buckets: Vec::new(),
            batch,
        }
    }

    fn record(&mut self, txn: CommittedTxn) {
        let seq_of = |bucket: &Vec<CommittedTxn>| bucket.first().map(|t| t.seq);
        // The last bucket at or below `txn.seq`, found from the newest end.
        let below = self
            .buckets
            .iter()
            .rposition(|bucket| seq_of(bucket) <= Some(txn.seq));
        let same = below
            .and_then(|i| self.buckets.get_mut(i))
            .filter(|bucket| seq_of(bucket) == Some(txn.seq));
        match same {
            Some(bucket) => {
                let at = bucket.partition_point(|t| *t < txn);
                bucket.insert(at, txn);
            }
            None => {
                let mut bucket = Vec::with_capacity(self.batch);
                bucket.push(txn);
                self.buckets.insert(below.map_or(0, |i| i + 1), bucket);
            }
        }
    }

    fn into_vec(self) -> Vec<CommittedTxn> {
        let mut log = Vec::with_capacity(self.buckets.iter().map(Vec::len).sum());
        for mut bucket in self.buckets {
            log.append(&mut bucket);
        }
        log
    }
}

/// The shared closed-loop workload driver. Each batch of `batches` leaves
/// through `submit` as soon as it is built, its requests begun in their
/// clients' libraries first, so that no reply can arrive ahead of its
/// request. Then it drains `replies` (one item per replica delivery or
/// socket read, see `Transport::send_replies`) until every request has
/// reached the protocol's reply quorum or `timeout` has passed, and reports
/// the commit log.
#[expect(
    clippy::disallowed_types,
    reason = "the start instant times the run and bounds its timeout; it goes into the \
              summary, never into a transaction"
)]
pub(crate) fn drive_workload(
    config: &SystemConfig,
    clients: usize,
    batches: impl Iterator<Item = Vec<Transaction>>,
    mut submit: impl FnMut(Vec<Transaction>),
    replies: &Receiver<Vec<ClientReply>>,
    dropped: &AtomicU64,
    timeout: Duration,
) -> ClusterSummary {
    // Snapshot the shared drop counter so the summary reports *this run's*
    // drops, not the cluster's lifetime total (a second workload on the
    // same cluster must not inherit the first run's shed load).
    let dropped_at_start = dropped.load(Ordering::Relaxed);
    // The reply rule follows the protocol (Figure 1 column mapping).
    let rule = ProtocolProperties::for_protocol(config.protocol).reply_quorum;
    // Indexed by client id: client c's library is libraries[c]. A Vec
    // instead of a map makes the lookups below structurally infallible —
    // no unwrap to kill the driver on a malformed reply.
    let mut libraries: Vec<ClientLibrary> = (0..clients as u64)
        .map(|c| ClientLibrary::new(ClientId(c), config, rule))
        .collect();

    let start = Instant::now();
    let mut total = 0u64;
    for batch in batches {
        for txn in &batch {
            if let Some(library) = libraries.get_mut(txn.client().0 as usize) {
                library.begin(txn.request());
                total += 1;
            }
        }
        submit(batch);
    }

    let mut completed = 0u64;
    let mut commit_log = CommitLog::new(config.batch_size);
    while completed < total && start.elapsed() < timeout {
        let Ok(batch) = replies.recv_timeout(Duration::from_millis(50)) else {
            continue;
        };
        for reply in batch {
            let Some(library) = libraries.get_mut(reply.client.0 as usize) else {
                continue;
            };
            // Count a request exactly when it first completes; late
            // replies also report `Complete` (the agreed outcome again),
            // so the status alone would overcount under load.
            let before = library.completed();
            let status = library.on_reply(&reply);
            if library.completed() > before {
                if let RequestStatus::Complete { seq, .. } = status {
                    completed += 1;
                    commit_log.record(CommittedTxn {
                        seq,
                        client: reply.client,
                        request: reply.request,
                    });
                }
            }
        }
    }
    let elapsed = start.elapsed();
    ClusterSummary {
        completed_txns: completed,
        throughput_tps: completed as f64 / elapsed.as_secs_f64(),
        elapsed,
        n: config.n,
        dropped_messages: dropped
            .load(Ordering::Relaxed)
            .saturating_sub(dropped_at_start),
        commit_log: commit_log.into_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use flexitrust_types::{KvResult, ProtocolId, ReplicaId, SeqNum, View};
    use std::cell::{Cell, RefCell};

    #[test]
    fn the_burst_yields_the_batches_the_driver_built_up_front() {
        for (total, clients, batch) in [(16_000, 64, 100), (4_000, 64, 20), (37, 5, 10), (9, 20, 4)]
        {
            // The driver before it streamed: every transaction first, then
            // batch-size chunks of them.
            let reference: Vec<Transaction> = (0..total)
                .map(|i| {
                    Transaction::new(
                        ClientId((i % clients) as u64),
                        RequestId((i / clients) as u64 + 1),
                        KvOp::Update {
                            key: i as u64,
                            value: [i as u8; 16].into(),
                        },
                    )
                })
                .collect();
            let chunks: Vec<Vec<Transaction>> =
                reference.chunks(batch).map(<[_]>::to_vec).collect();
            let burst: Vec<Vec<Transaction>> = Burst::new(1, total, clients, batch).collect();
            assert_eq!(
                burst, chunks,
                "{total} txns, {clients} clients, batch {batch}"
            );
        }
        assert_eq!(Burst::new(1, 0, 4, 10).count(), 0);
    }

    #[test]
    fn bursts_reserve_fresh_ids_and_count_zero_clients_as_one() {
        let next = AtomicU64::new(1);
        let first = Burst::reserve(&next, 10, 4, 10);
        let second = Burst::reserve(&next, 10, 4, 10);
        assert_eq!((first.first_request, second.first_request), (1, 4));
        assert_eq!(next.load(Ordering::Relaxed), 7);
        let lone = Burst::reserve(&next, 3, 0, 0);
        assert_eq!(lone.clients(), 1);
        let requests: Vec<(u64, u64)> = lone
            .flatten()
            .map(|t| (t.client().0, t.request().0))
            .collect();
        assert_eq!(requests, [(0, 7), (0, 8), (0, 9)]);
    }

    /// Answers every batch the moment it is submitted, from replicas 0 and
    /// 1 (f + 1 = 2 with f = 1) at sequence number `seq(k)` for the k-th
    /// batch.
    fn instant_cluster(
        total: usize,
        seq: impl Fn(u64) -> u64,
    ) -> (ClusterSummary, Vec<usize>, Vec<Vec<Transaction>>) {
        let mut config = SystemConfig::for_protocol(ProtocolId::FlexiBft, 1);
        config.batch_size = 10;
        let (reply_tx, reply_rx) = bounded(1 << 12);
        let built = Cell::new(0);
        let burst =
            Burst::new(1, total, 4, config.batch_size).inspect(|_| built.set(built.get() + 1));
        let seen = RefCell::new(Vec::new());
        let submitted = RefCell::new(Vec::new());
        let submit = |txns: Vec<Transaction>| {
            seen.borrow_mut().push(built.get());
            let k = submitted.borrow().len() as u64;
            for replica in 0..2 {
                let replies: Vec<ClientReply> = (txns.iter())
                    .map(|t| ClientReply {
                        client: t.client(),
                        request: t.request(),
                        seq: SeqNum(seq(k)),
                        view: View(0),
                        replica: ReplicaId(replica),
                        result: KvResult::Written,
                        speculative: false,
                    })
                    .collect();
                assert!(reply_tx.send(replies).is_ok());
            }
            submitted.borrow_mut().push(txns);
        };
        let summary = drive_workload(
            &config,
            4,
            burst,
            submit,
            &reply_rx,
            &AtomicU64::new(0),
            Duration::from_secs(30),
        );
        (summary, seen.into_inner(), submitted.into_inner())
    }

    #[test]
    fn each_batch_leaves_before_the_next_is_built() {
        let (summary, seen, submitted) = instant_cluster(95, |k| k + 1);
        // The k-th submission happens when k batches exist: the first
        // leaves before the last transaction is built.
        assert_eq!(seen, (1..=10).collect::<Vec<_>>());
        assert_eq!(submitted.iter().map(Vec::len).sum::<usize>(), 95);
        // Replies that beat the driver back to the reply channel still
        // find their requests begun.
        assert_eq!(summary.completed_txns, 95);
    }

    #[test]
    fn the_commit_log_comes_out_sorted_whatever_order_completions_arrive_in() {
        // Batches commit in a scrambled order, so completions arrive out of
        // sequence order, and within a batch out of (client, request) order.
        let (summary, _, submitted) = instant_cluster(1_000, |k| (k * 37) % 100 + 1);
        let mut expected: Vec<CommittedTxn> = (submitted.iter().enumerate())
            .flat_map(|(k, txns)| {
                txns.iter().map(move |t| CommittedTxn {
                    seq: SeqNum((k as u64 * 37) % 100 + 1),
                    client: t.client(),
                    request: t.request(),
                })
            })
            .collect();
        expected.sort_unstable();
        assert_eq!(summary.commit_log, expected);
    }

    #[test]
    fn the_commit_log_keeps_a_bucket_per_sequence_in_order() {
        let mut log = CommitLog::new(4);
        let mut expected = Vec::new();
        // A fixed pseudo-random order over 12 sequence numbers × 6 entries.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut entries: Vec<CommittedTxn> = (0..72u64)
            .map(|i| CommittedTxn {
                seq: SeqNum(i % 12 * 3),
                client: ClientId(i / 12 % 3),
                request: RequestId(i / 36),
            })
            .collect();
        for i in (1..entries.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            entries.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for txn in entries {
            log.record(txn);
            expected.push(txn);
        }
        assert_eq!(log.buckets.len(), 12);
        expected.sort_unstable();
        assert_eq!(log.into_vec(), expected);
    }
}
