//! Checkpointing of executed state.
//!
//! Every protocol in the paper periodically checkpoints: replicas exchange
//! `Checkpoint` messages covering the requests committed since the last
//! checkpoint and mark a checkpoint *stable* once enough replicas vouch for
//! it (f + 1 for trust-bft protocols, 2f + 1 for PBFT-style protocols).
//! Stable checkpoints bound the consensus log and let trusted logs truncate.
//!
//! The protocol-independent part lives here: which sequence numbers are
//! checkpoints, what state digest each checkpoint certifies, which
//! checkpoint is the current stable low-water mark ([`CheckpointLog`]), and
//! the executed state a replica keeps at its boundaries so it can serve
//! state transfer and roll back speculation ([`CheckpointJournal`]).

use crate::kvstore::KvStore;
use flexitrust_types::{Batch, Digest, ReplicaId, SeqNum, StateSnapshot, ValueBytes};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One checkpoint: a state digest at a sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// The last sequence number covered by the checkpoint.
    pub seq: SeqNum,
    /// Digest of the RSM state after executing everything up to `seq`.
    pub state_digest: Digest,
}

/// Tracks checkpoint votes and the stable low-water mark at one replica.
#[derive(Debug, Default)]
pub struct CheckpointLog {
    interval: u64,
    quorum: usize,
    /// Votes per (seq, digest): which replicas certified that state.
    votes: BTreeMap<(u64, Digest), BTreeSet<ReplicaId>>,
    stable: Option<Checkpoint>,
}

impl CheckpointLog {
    /// Creates a checkpoint log that checkpoints every `interval` sequence
    /// numbers and declares stability after `quorum` matching votes.
    pub fn new(interval: u64, quorum: usize) -> Self {
        CheckpointLog {
            interval: interval.max(1),
            quorum: quorum.max(1),
            votes: BTreeMap::new(),
            stable: None,
        }
    }

    /// The checkpoint interval.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Returns `true` when `seq` is a checkpoint boundary.
    pub fn is_checkpoint_seq(&self, seq: SeqNum) -> bool {
        seq.0 > 0 && seq.0.is_multiple_of(self.interval)
    }

    /// The first checkpoint boundary after `seq`.
    pub fn next_boundary(&self, seq: SeqNum) -> SeqNum {
        SeqNum((seq.0 / self.interval + 1).saturating_mul(self.interval))
    }

    /// The current stable checkpoint, if any.
    pub fn stable(&self) -> Option<Checkpoint> {
        self.stable
    }

    /// The low-water mark: sequence numbers at or below this are covered by
    /// the stable checkpoint and may be garbage collected.
    pub fn low_water_mark(&self) -> SeqNum {
        self.stable.map(|c| c.seq).unwrap_or(SeqNum(0))
    }

    /// Records a checkpoint vote from `replica` for the state `digest` at
    /// `seq`. Returns the checkpoint if this vote made it stable (exactly
    /// once per checkpoint).
    pub fn record_vote(
        &mut self,
        replica: ReplicaId,
        seq: SeqNum,
        digest: Digest,
    ) -> Option<Checkpoint> {
        if seq <= self.low_water_mark() {
            return None;
        }
        let entry = self.votes.entry((seq.0, digest)).or_default();
        entry.insert(replica);
        if entry.len() >= self.quorum {
            let checkpoint = Checkpoint {
                seq,
                state_digest: digest,
            };
            self.stable = Some(checkpoint);
            // Drop votes covered by the new stable checkpoint.
            self.votes.retain(|(s, _), _| *s > seq.0);
            Some(checkpoint)
        } else {
            None
        }
    }

    /// Number of distinct (seq, digest) candidates currently tracked.
    pub fn tracked_candidates(&self) -> usize {
        self.votes.len()
    }

    /// Installs `checkpoint` as the stable low-water mark without a local
    /// vote quorum — the state-transfer path: a recovering replica adopts a
    /// peer's stable checkpoint wholesale. Ignored when it would move the
    /// low-water mark backwards. Votes at or below the installed checkpoint
    /// are garbage collected.
    pub fn install_stable(&mut self, checkpoint: Checkpoint) {
        if checkpoint.seq <= self.low_water_mark() {
            return;
        }
        self.stable = Some(checkpoint);
        self.votes.retain(|(s, _), _| *s > checkpoint.seq.0);
    }
}

/// The executed state a replica holds at its checkpoint boundaries, at the
/// cost of what changed between them.
///
/// The oldest held boundary (the *base*) is materialised in full; every
/// later one is a **delta**: the records written by the batches executed
/// since the previous capture, each with the value handle the store held at
/// capture, next to the boundary's counters and state digest. The owner
/// reports every executed batch ([`Self::record`]), captures when execution
/// reaches a boundary ([`Self::capture`]) and folds the journal when a
/// checkpoint turns stable ([`Self::fold_through`]), which merges the deltas
/// at or below it into the base. No path copies value bytes: captured and
/// served values share their buffers with the store.
///
/// An interval that wrote at least as many times as the store has records
/// is captured as a full [`KvStore::to_snapshot`] — so is the first capture,
/// which has nothing to be a delta of — hence no capture costs more than a
/// snapshot would.
#[derive(Debug, Default)]
pub struct CheckpointJournal {
    /// Held boundaries in ascending sequence order; the front one is full.
    held: VecDeque<Boundary>,
    /// Batches executed since the newest capture, install or rollback:
    /// handles onto payloads the engine's accepted proposals already pin.
    since_capture: Vec<Batch>,
}

/// The state at one captured boundary.
#[derive(Debug)]
struct Boundary {
    seq: SeqNum,
    digest: Digest,
    applied_mutations: u64,
    fingerprint: u64,
    /// Records in the store at the boundary.
    records: usize,
    /// Key-sorted records written since the previous capture; the boundary
    /// is *full* — every record of the store — when there are `records` of
    /// them (written keys are a subset of the store's).
    entries: Vec<(u64, ValueBytes)>,
}

impl Boundary {
    fn is_full(&self) -> bool {
        self.entries.len() == self.records
    }

    /// The state at `newer`, given that `self` is full and `newer` is the
    /// next capture after it.
    fn advanced_by(self, mut newer: Boundary) -> Boundary {
        if !newer.is_full() {
            newer.entries = merge(self.entries, newer.entries, newer.records);
        }
        newer
    }
}

/// Merges two key-sorted record lists into one of `records` entries; where
/// both hold a key, `newer`'s value supersedes. Entries move, no handle is
/// cloned.
fn merge(
    older: Vec<(u64, ValueBytes)>,
    newer: Vec<(u64, ValueBytes)>,
    records: usize,
) -> Vec<(u64, ValueBytes)> {
    let mut merged = Vec::with_capacity(records);
    let mut older = older.into_iter().peekable();
    for (key, value) in newer {
        while let Some(entry) = older.next_if(|(k, _)| *k < key) {
            merged.push(entry);
        }
        older.next_if(|(k, _)| *k == key);
        merged.push((key, value));
    }
    merged.extend(older);
    debug_assert_eq!(merged.len(), records, "a delta covers every write");
    merged
}

impl CheckpointJournal {
    /// Notes a batch the store has just executed.
    pub fn record(&mut self, batch: &Batch) {
        self.since_capture.push(batch.clone());
    }

    /// Captures the state of `store` as the boundary `seq`. Every batch
    /// executed since the previous capture must have been [`Self::record`]ed.
    pub fn capture(&mut self, seq: SeqNum, store: &KvStore) {
        let records = store.len();
        let written = self.held.back().and_then(|last| {
            store
                .applied_mutations()
                .checked_sub(last.applied_mutations)
        });
        let entries = match written {
            Some(written) if written < records as u64 => {
                let mut keys = Vec::with_capacity(written as usize);
                for batch in &self.since_capture {
                    let ops = batch.txns().iter().map(|txn| txn.op());
                    keys.extend(
                        ops.filter(|op| !op.is_read_only())
                            .filter_map(|op| op.key()),
                    );
                }
                keys.sort_unstable();
                keys.dedup();
                let mut entries = Vec::with_capacity(keys.len());
                entries.extend(
                    keys.iter()
                        .filter_map(|key| Some((*key, store.get_shared(*key)?))),
                );
                entries
            }
            _ => store.to_snapshot().entries,
        };
        self.since_capture.clear();
        self.held.push_back(Boundary {
            seq,
            digest: store.state_digest(),
            applied_mutations: store.applied_mutations(),
            fingerprint: store.fingerprint(),
            records,
            entries,
        });
    }

    /// Folds every held boundary at or below `seq` into the newest of them,
    /// which becomes the base: called when the checkpoint at `seq` is
    /// stable and nothing before it will be asked for again.
    pub fn fold_through(&mut self, seq: SeqNum) {
        let covered = self.held.iter().take_while(|b| b.seq <= seq).count();
        if covered < 2 {
            return;
        }
        let base = self.held.drain(..covered).reduce(Boundary::advanced_by);
        if let Some(base) = base {
            self.held.push_front(base);
        }
    }

    /// Replaces everything held by the state a peer transferred for `seq`.
    pub fn install(&mut self, seq: SeqNum, snapshot: StateSnapshot, digest: Digest) {
        self.since_capture.clear();
        self.held.clear();
        self.held.push_back(Boundary {
            seq,
            digest,
            applied_mutations: snapshot.applied_mutations,
            fingerprint: snapshot.fingerprint,
            records: snapshot.entries.len(),
            entries: snapshot.entries,
        });
    }

    /// Forgets every boundary above `stable` and the batches executed since
    /// the last capture, and returns the newest boundary left with its
    /// state: where a speculative replica rolls back to. `None` when the
    /// replica has captured nothing at or below `stable`.
    pub fn rollback(&mut self, stable: SeqNum) -> Option<(SeqNum, StateSnapshot)> {
        self.since_capture.clear();
        self.held.retain(|b| b.seq <= stable);
        let seq = self.held.back()?.seq;
        Some((seq, self.snapshot_at(seq)?))
    }

    /// The state digest captured at the boundary `seq`, while it is held.
    pub fn digest_at(&self, seq: SeqNum) -> Option<Digest> {
        self.held.iter().find(|b| b.seq == seq).map(|b| b.digest)
    }

    /// The sequence numbers of the held boundaries, ascending.
    pub fn held(&self) -> impl Iterator<Item = SeqNum> + '_ {
        self.held.iter().map(|b| b.seq)
    }

    /// Materialises the state at the held boundary `seq` — for the base a
    /// clone of its handles, for a later boundary the base merged with the
    /// deltas up to it. The journal is left as it was.
    pub fn snapshot_at(&self, seq: SeqNum) -> Option<StateSnapshot> {
        let at = self.held.iter().position(|b| b.seq == seq)?;
        let mut upto = self.held.iter().take(at + 1);
        let mut boundary = upto.next()?;
        let mut entries = boundary.entries.clone();
        for next in upto {
            entries = if next.is_full() {
                next.entries.clone()
            } else {
                merge(entries, next.entries.clone(), next.records)
            };
            boundary = next;
        }
        Some(StateSnapshot {
            entries,
            applied_mutations: boundary.applied_mutations,
            fingerprint: boundary.fingerprint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::{ClientId, KvOp, RequestId, Transaction};

    #[test]
    fn checkpoint_boundaries_follow_interval() {
        let log = CheckpointLog::new(100, 3);
        assert!(!log.is_checkpoint_seq(SeqNum(0)));
        assert!(!log.is_checkpoint_seq(SeqNum(99)));
        assert!(log.is_checkpoint_seq(SeqNum(100)));
        assert!(log.is_checkpoint_seq(SeqNum(200)));
        assert_eq!(log.interval(), 100);
    }

    #[test]
    fn stability_requires_quorum_of_matching_votes() {
        let mut log = CheckpointLog::new(10, 3);
        let d = Digest::from_u64_tag(1);
        assert!(log.record_vote(ReplicaId(0), SeqNum(10), d).is_none());
        assert!(log.record_vote(ReplicaId(1), SeqNum(10), d).is_none());
        // A mismatching digest does not help the quorum.
        assert!(log
            .record_vote(ReplicaId(2), SeqNum(10), Digest::from_u64_tag(2))
            .is_none());
        let stable = log.record_vote(ReplicaId(3), SeqNum(10), d).unwrap();
        assert_eq!(stable.seq, SeqNum(10));
        assert_eq!(log.low_water_mark(), SeqNum(10));
    }

    #[test]
    fn duplicate_votes_from_one_replica_do_not_count_twice() {
        let mut log = CheckpointLog::new(10, 2);
        let d = Digest::from_u64_tag(1);
        assert!(log.record_vote(ReplicaId(0), SeqNum(10), d).is_none());
        assert!(log.record_vote(ReplicaId(0), SeqNum(10), d).is_none());
        assert!(log.record_vote(ReplicaId(1), SeqNum(10), d).is_some());
    }

    #[test]
    fn votes_below_low_water_mark_are_ignored() {
        let mut log = CheckpointLog::new(10, 1);
        log.record_vote(ReplicaId(0), SeqNum(20), Digest::ZERO);
        assert_eq!(log.low_water_mark(), SeqNum(20));
        assert!(log
            .record_vote(ReplicaId(1), SeqNum(10), Digest::ZERO)
            .is_none());
        assert_eq!(log.low_water_mark(), SeqNum(20));
    }

    #[test]
    fn stale_candidates_are_garbage_collected() {
        let mut log = CheckpointLog::new(10, 2);
        log.record_vote(ReplicaId(0), SeqNum(10), Digest::from_u64_tag(1));
        log.record_vote(ReplicaId(0), SeqNum(20), Digest::from_u64_tag(2));
        assert_eq!(log.tracked_candidates(), 2);
        log.record_vote(ReplicaId(1), SeqNum(20), Digest::from_u64_tag(2));
        // The candidate at 10 was covered by the stable checkpoint at 20.
        assert_eq!(log.tracked_candidates(), 0);
        assert_eq!(log.stable().unwrap().seq, SeqNum(20));
    }

    #[test]
    fn install_stable_adopts_forward_checkpoints_only() {
        let mut log = CheckpointLog::new(10, 2);
        log.record_vote(ReplicaId(0), SeqNum(30), Digest::from_u64_tag(3));
        log.install_stable(Checkpoint {
            seq: SeqNum(40),
            state_digest: Digest::from_u64_tag(4),
        });
        assert_eq!(log.low_water_mark(), SeqNum(40));
        // Votes at or below the installed checkpoint were dropped.
        assert_eq!(log.tracked_candidates(), 0);
        // A backwards install is a no-op.
        log.install_stable(Checkpoint {
            seq: SeqNum(20),
            state_digest: Digest::from_u64_tag(2),
        });
        assert_eq!(log.low_water_mark(), SeqNum(40));
    }

    #[test]
    fn zero_interval_is_clamped() {
        let log = CheckpointLog::new(0, 0);
        assert_eq!(log.interval(), 1);
        assert!(log.is_checkpoint_seq(SeqNum(1)));
    }

    fn write(key: u64, byte: u8) -> Batch {
        let op = KvOp::Update {
            key,
            value: vec![byte].into(),
        };
        let txn = Transaction::new(ClientId(1), RequestId(u64::from(byte)), op);
        Batch::new(vec![txn], Digest::from_u64_tag(key))
    }

    /// Executes `batches` on `store` the way the owner of a journal does,
    /// then captures the boundary `seq`.
    fn run(journal: &mut CheckpointJournal, store: &mut KvStore, seq: u64, batches: &[Batch]) {
        for batch in batches {
            store.apply(batch.txns()[0].op());
            journal.record(batch);
        }
        journal.capture(SeqNum(seq), store);
    }

    #[test]
    fn next_boundary_is_the_first_multiple_past_a_sequence_number() {
        let log = CheckpointLog::new(10, 1);
        assert_eq!(log.next_boundary(SeqNum(0)), SeqNum(10));
        assert_eq!(log.next_boundary(SeqNum(9)), SeqNum(10));
        assert_eq!(log.next_boundary(SeqNum(10)), SeqNum(20));
    }

    #[test]
    fn an_interval_is_a_delta_exactly_while_it_wrote_less_than_the_store_holds() {
        let mut store = KvStore::with_dataset(3, 4);
        let mut journal = CheckpointJournal::default();
        // The first capture has no predecessor: full.
        run(&mut journal, &mut store, 1, &[write(0, 1)]);
        assert_eq!(journal.held[0].entries.len(), 3);
        // Two writes (one key twice) over three records: a one-key delta.
        run(&mut journal, &mut store, 2, &[write(1, 2), write(1, 3)]);
        assert_eq!(journal.held[1].entries, vec![(1, vec![3u8].into())]);
        assert!(!journal.held[1].is_full());
        // Three writes over three records: the snapshot path.
        run(
            &mut journal,
            &mut store,
            3,
            &[write(2, 4), write(2, 5), write(2, 6)],
        );
        assert!(journal.held[2].is_full());
        assert!(journal.since_capture.is_empty());
        for seq in 1..=3 {
            assert!(journal.digest_at(SeqNum(seq)).is_some());
        }
        assert_eq!(journal.snapshot_at(SeqNum(3)), Some(store.to_snapshot()));
    }

    #[test]
    fn folding_merges_deltas_into_the_base_and_keeps_later_boundaries() {
        let mut store = KvStore::with_dataset(8, 4);
        let mut oracle = Vec::new();
        let mut journal = CheckpointJournal::default();
        for seq in 1..=4u64 {
            // Boundary 3 inserts a key the base does not hold.
            let key = if seq == 3 { 100 } else { seq };
            run(&mut journal, &mut store, seq, &[write(key, seq as u8)]);
            oracle.push(store.to_snapshot());
        }
        journal.fold_through(SeqNum(3));
        assert_eq!(journal.held().collect::<Vec<_>>(), [SeqNum(3), SeqNum(4)]);
        assert_eq!(journal.held[0].entries, oracle[2].entries);
        assert_eq!(journal.held[0].entries.capacity(), 9);
        assert_eq!(journal.snapshot_at(SeqNum(3)).as_ref(), Some(&oracle[2]));
        assert_eq!(journal.snapshot_at(SeqNum(4)).as_ref(), Some(&oracle[3]));
        assert_eq!(journal.snapshot_at(SeqNum(2)), None);
        // Folding below or at the base changes nothing.
        journal.fold_through(SeqNum(3));
        assert_eq!(journal.held.len(), 2);
    }

    #[test]
    fn install_and_rollback_reset_what_the_next_delta_is_relative_to() {
        let mut store = KvStore::with_dataset(8, 4);
        let mut journal = CheckpointJournal::default();
        run(&mut journal, &mut store, 1, &[write(1, 1)]);
        let at_one = store.to_snapshot();
        run(&mut journal, &mut store, 2, &[write(2, 2)]);
        journal.record(&write(3, 3));
        // Boundary 1 is stable: 2 and the batch after it are speculation.
        let (seq, state) = journal.rollback(SeqNum(1)).unwrap();
        assert_eq!((seq, &state), (SeqNum(1), &at_one));
        assert!(journal.since_capture.is_empty());
        let mut store = KvStore::from_snapshot(&state);
        run(&mut journal, &mut store, 2, &[write(5, 5)]);
        assert_eq!(journal.held[1].entries, vec![(5, vec![5u8].into())]);
        assert_eq!(journal.snapshot_at(SeqNum(2)), Some(store.to_snapshot()));
        // Nothing at or below the stable mark: nothing to roll back to.
        assert!(journal.rollback(SeqNum(0)).is_none());
        assert_eq!(journal.held().count(), 0);

        journal.record(&write(6, 6));
        journal.install(SeqNum(7), at_one.clone(), Digest::from_u64_tag(7));
        assert!(journal.since_capture.is_empty());
        assert_eq!(journal.digest_at(SeqNum(7)), Some(Digest::from_u64_tag(7)));
        assert_eq!(journal.snapshot_at(SeqNum(7)), Some(at_one));
    }
}
