//! Quorum certificate tracking.
//!
//! Every phase of every protocol boils down to "collect `q` matching votes
//! from distinct replicas, then act exactly once". [`CertificateTracker`]
//! implements that pattern generically: votes are keyed by an arbitrary key
//! (typically `(view, seq, digest)`), duplicate votes from the same replica
//! are ignored, and the tracker reports the moment the threshold is crossed
//! exactly once per key.

use flexitrust_types::ReplicaId;
use std::collections::BTreeMap;

/// A set of distinct replicas — the voters for one certificate or one
/// reply candidate: ids below 128 as bits of an inline mask, larger ones
/// (no deployment has that many replicas, but the id arrives off the wire)
/// in a sorted list.
#[derive(Debug, Clone, Default)]
pub(crate) struct Voters {
    low: u128,
    high: Vec<ReplicaId>,
}

impl Voters {
    /// Adds `replica`; a replica already in the set counts once.
    pub(crate) fn insert(&mut self, replica: ReplicaId) {
        if replica.0 < u128::BITS {
            self.low |= 1 << replica.0;
        } else if let Err(index) = self.high.binary_search(&replica) {
            self.high.insert(index, replica);
        }
    }

    /// Adds every replica of `other`.
    pub(crate) fn union(&mut self, other: &Voters) {
        self.low |= other.low;
        for replica in &other.high {
            self.insert(*replica);
        }
    }

    /// Number of distinct replicas in the set.
    pub(crate) fn len(&self) -> usize {
        self.low.count_ones() as usize + self.high.len()
    }

    /// The replicas in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        let mut low = self.low;
        let low = std::iter::from_fn(move || {
            (low != 0).then(|| {
                let id = low.trailing_zeros();
                low &= low - 1;
                ReplicaId(id)
            })
        });
        low.chain(self.high.iter().copied())
    }
}

/// One key's votes: who voted, and whether the key reached the threshold.
#[derive(Debug, Clone, Default)]
struct Tally {
    voters: Voters,
    complete: bool,
}

/// Tracks votes per key and fires once when a key reaches the threshold.
///
/// Keys live in a `BTreeMap` (`K: Ord`): certificate state is part of the
/// deterministic core, and an ordered map keeps any future iteration over
/// it — debugging dumps included — identical across processes. A vote is
/// one map lookup and one bit set.
#[derive(Debug, Clone)]
pub struct CertificateTracker<K: Ord + Clone> {
    threshold: usize,
    tallies: BTreeMap<K, Tally>,
}

impl<K: Ord + Clone> CertificateTracker<K> {
    /// Creates a tracker that completes a key at `threshold` distinct voters.
    pub fn new(threshold: usize) -> Self {
        CertificateTracker {
            threshold: threshold.max(1),
            tallies: BTreeMap::new(),
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Records a vote. Returns `true` exactly once per key: on the vote that
    /// brings the key to the threshold. Late votes after completion are
    /// counted but never re-fire.
    pub fn vote(&mut self, key: K, voter: ReplicaId) -> bool {
        let tally = self.tallies.entry(key).or_default();
        tally.voters.insert(voter);
        if tally.complete || tally.voters.len() < self.threshold {
            return false;
        }
        tally.complete = true;
        true
    }

    /// Number of distinct voters recorded for `key`.
    pub fn count(&self, key: &K) -> usize {
        self.tallies.get(key).map_or(0, |t| t.voters.len())
    }

    /// Whether `key` has reached the threshold.
    pub(crate) fn is_complete(&self, key: &K) -> bool {
        self.tallies.get(key).is_some_and(|t| t.complete)
    }

    /// The distinct voters recorded for `key`, in ascending id order.
    pub fn voters(&self, key: &K) -> Vec<ReplicaId> {
        self.tallies
            .get(key)
            .map(|t| t.voters.iter().collect())
            .unwrap_or_default()
    }

    /// Forgets every key for which `retain` returns `false`; used for
    /// garbage collection below the checkpoint low-water mark.
    pub fn retain<F: Fn(&K) -> bool>(&mut self, retain: F) {
        self.tallies.retain(|k, _| retain(k));
    }

    /// Number of keys currently tracked.
    #[cfg(test)]
    pub(crate) fn tracked_keys(&self) -> usize {
        self.tallies.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::{Digest, SeqNum, View};

    type Key = (View, SeqNum, Digest);

    fn key(seq: u64) -> Key {
        (View(0), SeqNum(seq), Digest::from_u64_tag(seq))
    }

    #[test]
    fn fires_exactly_once_at_threshold() {
        let mut t: CertificateTracker<Key> = CertificateTracker::new(3);
        assert!(!t.vote(key(1), ReplicaId(0)));
        assert!(!t.vote(key(1), ReplicaId(1)));
        assert!(t.vote(key(1), ReplicaId(2)));
        // Further votes never re-fire.
        assert!(!t.vote(key(1), ReplicaId(3)));
        assert!(t.is_complete(&key(1)));
        assert_eq!(t.count(&key(1)), 4);
    }

    #[test]
    fn duplicate_voters_do_not_advance_the_count() {
        let mut t: CertificateTracker<Key> = CertificateTracker::new(2);
        assert!(!t.vote(key(1), ReplicaId(0)));
        assert!(!t.vote(key(1), ReplicaId(0)));
        assert_eq!(t.count(&key(1)), 1);
        assert!(t.vote(key(1), ReplicaId(1)));
    }

    #[test]
    fn keys_are_independent() {
        let mut t: CertificateTracker<Key> = CertificateTracker::new(2);
        t.vote(key(1), ReplicaId(0));
        t.vote(key(2), ReplicaId(0));
        assert_eq!(t.count(&key(1)), 1);
        assert_eq!(t.count(&key(2)), 1);
        assert!(!t.is_complete(&key(1)));
    }

    #[test]
    fn conflicting_digests_count_separately() {
        // A Byzantine voter voting for two different digests at the same slot
        // must not help either reach a quorum faster.
        let mut t: CertificateTracker<Key> = CertificateTracker::new(2);
        let a = (View(0), SeqNum(1), Digest::from_u64_tag(1));
        let b = (View(0), SeqNum(1), Digest::from_u64_tag(2));
        t.vote(a, ReplicaId(0));
        t.vote(b, ReplicaId(0));
        assert_eq!(t.count(&a), 1);
        assert_eq!(t.count(&b), 1);
    }

    #[test]
    fn retain_garbage_collects() {
        let mut t: CertificateTracker<Key> = CertificateTracker::new(1);
        t.vote(key(1), ReplicaId(0));
        t.vote(key(5), ReplicaId(0));
        assert_eq!(t.tracked_keys(), 2);
        t.retain(|k| k.1 > SeqNum(2));
        assert_eq!(t.tracked_keys(), 1);
        assert!(!t.is_complete(&key(1)));
        assert!(t.is_complete(&key(5)));
    }

    #[test]
    fn voters_are_reported_sorted_and_deduplicated() {
        let mut t: CertificateTracker<Key> = CertificateTracker::new(10);
        t.vote(key(1), ReplicaId(3));
        t.vote(key(1), ReplicaId(1));
        t.vote(key(1), ReplicaId(3));
        assert_eq!(t.voters(&key(1)), vec![ReplicaId(1), ReplicaId(3)]);
    }

    #[test]
    fn voters_beyond_the_inline_mask_count_once_each() {
        let mut voters = Voters::default();
        for id in [0, 127, 4_000_000_000, 128, 128, 127, 0] {
            voters.insert(ReplicaId(id));
        }
        assert_eq!(voters.len(), 4);
        let ids: Vec<u32> = voters.iter().map(|r| r.0).collect();
        assert_eq!(ids, [0, 127, 128, 4_000_000_000]);
    }

    /// The tracker as it was before tallies: a `BTreeSet` of voters per
    /// key and a separate map of completed keys. The reference the
    /// property test below compares against.
    #[derive(Default)]
    struct Model {
        votes: std::collections::BTreeMap<u64, std::collections::BTreeSet<ReplicaId>>,
        completed: std::collections::BTreeMap<u64, bool>,
    }

    impl Model {
        fn vote(&mut self, threshold: usize, key: u64, voter: ReplicaId) -> bool {
            let voters = self.votes.entry(key).or_default();
            voters.insert(voter);
            let complete = self.completed.entry(key).or_default();
            if *complete || voters.len() < threshold {
                return false;
            }
            *complete = true;
            true
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Votes from small and large replica ids (inside and past the
        /// inline mask, duplicates included) over a few keys, with
        /// garbage collection in between: the tallies answer like a
        /// `BTreeSet` per key.
        #[test]
        fn tallies_answer_like_a_set_per_key(
            threshold in 1usize..6,
            ops in proptest::collection::vec(proptest::any::<u64>(), 1..200),
        ) {
            const IDS: [u32; 10] = [0, 1, 2, 3, 5, 126, 127, 128, 300, u32::MAX];
            let mut t: CertificateTracker<u64> = CertificateTracker::new(threshold);
            let mut model = Model::default();
            for op in ops {
                let key = (op >> 8) % 6;
                if op % 16 == 0 {
                    let floor = (op >> 16) % 6;
                    t.retain(|k| *k >= floor);
                    model.votes.retain(|k, _| *k >= floor);
                    model.completed.retain(|k, _| *k >= floor);
                } else {
                    let voter = ReplicaId(IDS[(op >> 16) as usize % IDS.len()]);
                    proptest::prop_assert_eq!(t.vote(key, voter), model.vote(threshold, key, voter));
                }
                let voters = model.votes.get(&key);
                proptest::prop_assert_eq!(t.count(&key), voters.map_or(0, |v| v.len()));
                proptest::prop_assert_eq!(
                    t.voters(&key),
                    voters.map(|v| v.iter().copied().collect::<Vec<_>>()).unwrap_or_default()
                );
                proptest::prop_assert_eq!(
                    t.is_complete(&key),
                    model.completed.get(&key).copied().unwrap_or(false)
                );
                proptest::prop_assert_eq!(t.tracked_keys(), model.votes.len());
            }
        }
    }

    #[test]
    fn zero_threshold_is_clamped_to_one() {
        let mut t: CertificateTracker<u64> = CertificateTracker::new(0);
        assert_eq!(t.threshold(), 1);
        assert!(t.vote(9, ReplicaId(0)));
    }
}
