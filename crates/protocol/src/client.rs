//! The client-side library.
//!
//! A client accepts a result once "enough" replicas have answered with it
//! (§3). [`ClientLibrary`] counts each request's replies per `(seq, result)`
//! candidate against the protocol's reply rule: `f + 1` matching replies for
//! PBFT, MinBFT and Flexi-BFT; `2f + 1` for Flexi-ZZ; all `n` for Zyzzyva
//! and MinZZ's single-round fast path, with a smaller fallback threshold once
//! that fast path has timed out. Sending requests and timing out are the
//! caller's: every client, threaded or simulated, counts replies here.
//!
//! # State per request
//!
//! A client issues its request ids in increasing order, so the library
//! keeps its requests in a *window*: a ring of slots indexed by
//! `request − oldest request held`, where a reply finds its request in
//! O(1). Only [`begin`](ClientLibrary::begin) grows the window, and only at
//! its end; [`forget`](ClientLibrary::forget) trims it.
//!
//! A request the application began holds a list of *candidates*: one
//! `(seq, result)` pair per distinct answer seen, each with the set of
//! replicas that gave it. Failure-free there is exactly one candidate,
//! stored inline; a reply probes the list by result fingerprint
//! and sets one bit, so the hit path neither allocates nor clones. The first
//! candidate to reach the threshold is the request's outcome.
//!
//! * **Late replies** — any reply for a completed request — report the
//!   agreed `(result, seq, matching)` again, whatever they carry themselves:
//!   a divergent straggler cannot change what the client was told.
//! * **Unknown requests** — never begun, or already
//!   [forgotten](ClientLibrary::forget) — report `Pending` with no matching
//!   replies and leave no state: a replica cannot grow a client's memory or
//!   pre-load votes for a request id the client has yet to issue.

use crate::messages::ClientReply;
use crate::quorum::Voters;
use flexitrust_types::{
    ClientId, KvResult, QuorumRule, RequestId, SeqNum, SystemConfig, ValueBytes,
};
use std::collections::VecDeque;

/// Progress of one outstanding request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestStatus {
    /// Not enough matching replies yet.
    Pending {
        /// Number of matching replies received for the leading result.
        matching: usize,
        /// Number required for completion.
        needed: usize,
    },
    /// The request completed.
    Complete {
        /// The agreed result.
        result: KvResult,
        /// The sequence number it executed at.
        seq: SeqNum,
        /// How many matching replies supported it.
        matching: usize,
    },
}

/// One distinct answer to a request and who gave it: the first reply's
/// `(seq, result)`, joined by every later reply that carries the same seq
/// and a result of the same fingerprint.
#[derive(Debug)]
struct Candidate {
    seq: SeqNum,
    result: KvResult,
    voters: Voters,
}

impl Candidate {
    fn matches(&self, reply: &ClientReply) -> bool {
        self.seq == reply.seq && same_fingerprint(&reply.result, &self.result)
    }

    fn complete(&self) -> RequestStatus {
        RequestStatus::Complete {
            result: self.result.clone(),
            seq: self.seq,
            matching: self.voters.len(),
        }
    }
}

/// A begun request: the answers seen so far, and whether one of them is
/// its outcome.
#[derive(Debug, Default)]
struct PendingRequest {
    /// The first candidate, inline. Once the request is settled it is the
    /// outcome, which every later reply repeats.
    first: Option<Candidate>,
    /// Divergent candidates (a faulty or lagging replica answered
    /// differently). Failure-free runs never have one, so a slot pays one
    /// pointer for them.
    #[expect(
        clippy::box_collection,
        reason = "one pointer instead of three words in every slot of the window, \
                  for a list that is almost always absent"
    )]
    rest: Option<Box<Vec<Candidate>>>,
    settled: bool,
}

impl PendingRequest {
    fn candidates(&self) -> impl Iterator<Item = &Candidate> {
        self.first
            .iter()
            .chain(self.rest.iter().flat_map(|rest| rest.iter()))
    }

    /// The agreed outcome, once there is one.
    fn outcome(&self) -> Option<RequestStatus> {
        self.first
            .as_ref()
            .filter(|_| self.settled)
            .map(Candidate::complete)
    }

    /// Counts `reply` for the candidate it matches, opening a candidate if
    /// none does; returns that candidate's index among
    /// [`Self::candidates`] and how many replicas back it now.
    fn vote(&mut self, reply: &ClientReply) -> (usize, usize) {
        let rest = self.rest.iter_mut().flat_map(|rest| rest.iter_mut());
        let hit = (self.first.iter_mut().chain(rest))
            .enumerate()
            .find(|(_, c)| c.matches(reply));
        if let Some((index, candidate)) = hit {
            candidate.voters.insert(reply.replica);
            return (index, candidate.voters.len());
        }
        let mut candidate = Candidate {
            seq: reply.seq,
            result: reply.result.clone(),
            voters: Voters::default(),
        };
        candidate.voters.insert(reply.replica);
        match &mut self.first {
            first @ None => {
                *first = Some(candidate);
                (0, 1)
            }
            Some(_) => {
                let rest = self.rest.get_or_insert_with(Box::default);
                rest.push(candidate);
                (rest.len(), 1)
            }
        }
    }

    /// Makes candidate `index` the outcome and returns it: the candidate
    /// moves to `first`, the one place a late reply looks.
    fn settle(&mut self, index: usize) -> Option<RequestStatus> {
        let winner = index
            .checked_sub(1)
            .and_then(|i| self.rest.as_mut()?.get_mut(i));
        if let (Some(first), Some(winner)) = (self.first.as_mut(), winner) {
            std::mem::swap(first, winner);
        }
        self.settled = true;
        self.outcome()
    }
}

/// How far past the newest request held [`ClientLibrary::begin`] opens a
/// new one. A client issues its ids in increasing order, normally one after
/// another; refusing a longer jump bounds the empty slots the window keeps
/// for the ids it skips.
const MAX_AHEAD: usize = 1 << 10;

/// A client's requests by id: `slots[i]` is request `base + i`, `None` where
/// that id was never begun or has been forgotten. Both ends are always held
/// (forgetting trims them), so `base` is the oldest request held; once none
/// is, it is one past the last one forgotten. Ids below `base` are stale.
#[derive(Debug, Default)]
struct RequestWindow {
    base: u64,
    slots: VecDeque<Option<PendingRequest>>,
}

impl RequestWindow {
    /// The slot index of `request`, if the window spans it.
    fn index(&self, request: RequestId) -> Option<usize> {
        let index = usize::try_from(request.0.checked_sub(self.base)?).ok()?;
        (index < self.slots.len()).then_some(index)
    }

    fn get(&self, request: RequestId) -> Option<&PendingRequest> {
        self.slots.get(self.index(request)?)?.as_ref()
    }

    fn get_mut(&mut self, request: RequestId) -> Option<&mut PendingRequest> {
        let index = self.index(request)?;
        self.slots.get_mut(index)?.as_mut()
    }

    /// Holds `request`, unless it is stale, held already, or more than
    /// [`MAX_AHEAD`] past the newest request held. With nothing held, any id
    /// from `base` on opens, and the window starts over there.
    ///
    /// The first open reserves a single slot, not `VecDeque`'s default four:
    /// a client with one request outstanding at a time (the simulator keeps
    /// thousands of them) holds one slot of heap, and reuses it.
    fn open(&mut self, request: RequestId) {
        let Some(offset) = request.0.checked_sub(self.base) else {
            return;
        };
        let Some(newest) = self.slots.len().checked_sub(1) else {
            self.base = request.0;
            self.slots.reserve_exact(1);
            self.slots.push_back(Some(PendingRequest::default()));
            return;
        };
        match usize::try_from(offset) {
            Ok(index) if index <= newest => {
                if let Some(slot @ None) = self.slots.get_mut(index) {
                    *slot = Some(PendingRequest::default());
                }
            }
            Ok(index) if index - newest <= MAX_AHEAD => {
                self.slots.resize_with(index, || None);
                self.slots.push_back(Some(PendingRequest::default()));
            }
            _ => {}
        }
    }

    /// Lets go of `request`, then trims the empty slots off both ends.
    fn close(&mut self, request: RequestId) {
        if let Some(slot) = self.index(request).and_then(|i| self.slots.get_mut(i)) {
            *slot = None;
        }
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base = self.base.saturating_add(1);
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
    }
}

/// Ordered fingerprint of a [`KvResult`] — the "digest" half of a
/// `(seq, digest)` reply candidate. Candidates match by
/// `same_fingerprint` without building one; the key only orders them, to
/// break a tie at fallback.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum KvResultKey {
    /// A read's value (or absence); cloning the result into the key is a
    /// refcount bump on the shared buffer, not a byte copy.
    Value(Option<ValueBytes>),
    /// A write acknowledgement.
    Written,
    /// A range scan, fingerprinted by length and key sum.
    RangeLen(usize, u64),
    /// A no-op.
    Noop,
}

/// `result_key(a) == result_key(b)`, without building either key.
fn same_fingerprint(a: &KvResult, b: &KvResult) -> bool {
    match (a, b) {
        (KvResult::Value(x), KvResult::Value(y)) => x == y,
        (KvResult::Written, KvResult::Written) | (KvResult::Noop, KvResult::Noop) => true,
        (KvResult::Range(x), KvResult::Range(y)) => {
            x.len() == y.len() && range_key_sum(x) == range_key_sum(y)
        }
        _ => false,
    }
}

fn range_key_sum(rows: &[(u64, ValueBytes)]) -> u64 {
    rows.iter().map(|(k, _)| *k).sum()
}

/// Fingerprint of a [`KvResult`] for ordering reply candidates.
fn result_key(result: &KvResult) -> KvResultKey {
    match result {
        KvResult::Value(v) => KvResultKey::Value(v.clone()),
        KvResult::Written => KvResultKey::Written,
        KvResult::Range(r) => KvResultKey::RangeLen(r.len(), range_key_sum(r)),
        KvResult::Noop => KvResultKey::Noop,
    }
}

/// Client-side reply collection for one client.
#[derive(Debug)]
pub struct ClientLibrary {
    client: ClientId,
    needed: usize,
    fallback_needed: usize,
    window: RequestWindow,
    completed: u64,
}

impl ClientLibrary {
    /// Creates the library for `client` under the protocol's reply rule.
    ///
    /// `fallback_needed` is the threshold accepted after a fast-path timeout,
    /// [`SystemConfig::fallback_quorum`]: `2f + 1` matching replies plus an
    /// extra round for Zyzzyva, `f + 1` for MinZZ, the normal threshold for
    /// every other protocol.
    pub fn new(client: ClientId, config: &SystemConfig, rule: QuorumRule) -> Self {
        ClientLibrary {
            client,
            needed: config.quorum(rule),
            fallback_needed: config.fallback_quorum(rule),
            window: RequestWindow::default(),
            completed: 0,
        }
    }

    /// Number of matching replies required on the normal path.
    pub fn needed(&self) -> usize {
        self.needed
    }

    /// Number of matching replies accepted after a fast-path timeout.
    pub fn fallback_needed(&self) -> usize {
        self.fallback_needed
    }

    /// Number of requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of requests still waiting for replies.
    pub fn outstanding(&self) -> usize {
        let held = self.window.slots.iter().flatten();
        held.filter(|p| !p.settled).count()
    }

    /// Registers a new outstanding request.
    ///
    /// Ids are expected in increasing order (see the module docs): an id
    /// below the oldest request held, or one forgotten from the front, is
    /// stale and ignored, and so is an id implausibly far past the newest
    /// request held. Beginning a request that is held already changes
    /// nothing.
    pub fn begin(&mut self, request: RequestId) {
        self.window.open(request);
    }

    /// Processes one reply; returns the updated status of that request.
    ///
    /// Replies for unknown or already completed requests return their status
    /// without changing anything (late replies are normal in BFT systems);
    /// see the module docs for what that status is.
    pub fn on_reply(&mut self, reply: &ClientReply) -> RequestStatus {
        debug_assert_eq!(reply.client, self.client);
        let needed = self.needed;
        let Some(entry) = self.window.get_mut(reply.request) else {
            return RequestStatus::Pending {
                matching: 0,
                needed,
            };
        };
        if let Some(outcome) = entry.outcome() {
            return outcome;
        }
        let (index, matching) = entry.vote(reply);
        if matching < needed {
            return RequestStatus::Pending { matching, needed };
        }
        let Some(outcome) = entry.settle(index) else {
            return RequestStatus::Pending { matching, needed };
        };
        self.completed += 1;
        outcome
    }

    /// Checks whether an outstanding request would complete under the
    /// fallback threshold given the replies already received; used by the
    /// harnesses when a fast-path timer expires.
    pub fn try_fallback_complete(&mut self, request: RequestId) -> Option<RequestStatus> {
        let entry = self.window.get_mut(request)?;
        if entry.settled {
            return None;
        }
        // Most voters wins; a tie goes to the greatest `(seq, key)`.
        let (index, best) = entry
            .candidates()
            .enumerate()
            .max_by_key(|(_, c)| (c.voters.len(), c.seq, result_key(&c.result)))?;
        if best.voters.len() < self.fallback_needed {
            return None;
        }
        let outcome = entry.settle(index)?;
        self.completed += 1;
        Some(outcome)
    }

    /// Whether `request`'s fast path has failed, so the caller should arm its
    /// fallback: a fallback quorum of distinct replicas replied without
    /// completing it, and either the rule needs more replies than the
    /// fallback accepts (every replica, for Zyzzyva and MinZZ — a crashed one
    /// never answers) or the replies diverged across candidates, so no one
    /// of them may ever reach the threshold. `false` for a request that is
    /// settled, forgotten or never begun.
    pub fn fast_path_failed(&self, request: RequestId) -> bool {
        let Some(entry) = self.window.get(request).filter(|e| !e.settled) else {
            return false;
        };
        let diverged = entry.candidates().nth(1).is_some();
        if !diverged && self.needed <= self.fallback_needed {
            return false;
        }
        let mut repliers = Voters::default();
        for candidate in entry.candidates() {
            repliers.union(&candidate.voters);
        }
        repliers.len() >= self.fallback_needed
    }

    /// Drops state for a completed request (bounded-memory clients).
    pub fn forget(&mut self, request: RequestId) {
        self.window.close(request);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::{ProtocolId, ReplicaId, View};

    fn reply(replica: u32, request: u64, seq: u64, value: u8) -> ClientReply {
        ClientReply {
            client: ClientId(1),
            request: RequestId(request),
            seq: SeqNum(seq),
            view: View(0),
            replica: ReplicaId(replica),
            result: KvResult::Value(Some(vec![value].into())),
            speculative: false,
        }
    }

    fn library(protocol: ProtocolId, rule: QuorumRule) -> ClientLibrary {
        let cfg = SystemConfig::for_protocol(protocol, 2);
        ClientLibrary::new(ClientId(1), &cfg, rule)
    }

    #[test]
    fn completes_at_f_plus_one_matching_replies() {
        // Flexi-BFT / PBFT-style rule with f = 2: needs 3 matching replies.
        let mut lib = library(ProtocolId::FlexiBft, QuorumRule::FPlusOne);
        lib.begin(RequestId(1));
        assert_eq!(
            lib.on_reply(&reply(0, 1, 5, 9)),
            RequestStatus::Pending {
                matching: 1,
                needed: 3
            }
        );
        assert_eq!(
            lib.on_reply(&reply(1, 1, 5, 9)),
            RequestStatus::Pending {
                matching: 2,
                needed: 3
            }
        );
        let status = lib.on_reply(&reply(2, 1, 5, 9));
        assert!(matches!(
            status,
            RequestStatus::Complete { matching: 3, .. }
        ));
        assert_eq!(lib.completed(), 1);
    }

    #[test]
    fn mismatching_results_do_not_count_together() {
        let mut lib = library(ProtocolId::FlexiBft, QuorumRule::FPlusOne);
        lib.begin(RequestId(1));
        lib.on_reply(&reply(0, 1, 5, 1));
        lib.on_reply(&reply(1, 1, 5, 2)); // different value
        lib.on_reply(&reply(2, 1, 6, 1)); // different seq
        let status = lib.on_reply(&reply(3, 1, 5, 1));
        // Only replicas 0 and 3 agree exactly; still pending.
        assert_eq!(
            status,
            RequestStatus::Pending {
                matching: 2,
                needed: 3
            }
        );
    }

    #[test]
    fn duplicate_replies_from_one_replica_count_once() {
        let mut lib = library(ProtocolId::FlexiBft, QuorumRule::FPlusOne);
        lib.begin(RequestId(1));
        lib.on_reply(&reply(0, 1, 5, 1));
        let status = lib.on_reply(&reply(0, 1, 5, 1));
        assert_eq!(
            status,
            RequestStatus::Pending {
                matching: 1,
                needed: 3
            }
        );
    }

    #[test]
    fn all_replica_rule_needs_every_replica_on_fast_path() {
        // MinZZ with f = 2 → n = 5 replies needed; the fallback takes f + 1.
        let mut lib = library(ProtocolId::MinZz, QuorumRule::AllReplicas);
        assert_eq!(lib.needed(), 5);
        assert_eq!(lib.fallback_needed(), 3);
        lib.begin(RequestId(1));
        for r in 0..4 {
            lib.on_reply(&reply(r, 1, 1, 1));
        }
        assert_eq!(lib.outstanding(), 1);
        assert!(matches!(
            lib.on_reply(&reply(4, 1, 1, 1)),
            RequestStatus::Complete { .. }
        ));
    }

    #[test]
    fn zyzzyva_fallback_completes_with_2f_plus_1_after_timeout() {
        // Zyzzyva with f = 2 → fast path needs n = 7, fallback 2f+1 = 5.
        let mut lib = library(ProtocolId::Zyzzyva, QuorumRule::AllReplicas);
        assert_eq!(lib.needed(), 7);
        assert_eq!(lib.fallback_needed(), 5);
        lib.begin(RequestId(1));
        for r in 0..5 {
            lib.on_reply(&reply(r, 1, 1, 1));
        }
        assert_eq!(lib.outstanding(), 1);
        let status = lib.try_fallback_complete(RequestId(1)).unwrap();
        assert!(matches!(
            status,
            RequestStatus::Complete { matching: 5, .. }
        ));
        assert!(lib.try_fallback_complete(RequestId(1)).is_none());
    }

    #[test]
    fn fallback_does_not_fire_below_threshold() {
        let mut lib = library(ProtocolId::Zyzzyva, QuorumRule::AllReplicas);
        lib.begin(RequestId(1));
        for r in 0..4 {
            lib.on_reply(&reply(r, 1, 1, 1));
        }
        assert!(lib.try_fallback_complete(RequestId(1)).is_none());
    }

    #[test]
    fn same_fingerprint_agrees_with_result_key() {
        let results = [
            KvResult::Value(Some(vec![1, 2, 3].into())),
            KvResult::Value(Some(vec![1, 2, 4].into())),
            KvResult::Value(None),
            KvResult::Written,
            KvResult::Noop,
            KvResult::Range(vec![(1, vec![9].into()), (4, vec![8].into())]),
            KvResult::Range(vec![(2, vec![9].into()), (3, vec![8].into())]),
        ];
        for a in &results {
            for b in &results {
                let same = result_key(a) == result_key(b);
                assert_eq!(same_fingerprint(a, b), same, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn a_tied_fallback_goes_to_the_greatest_seq_and_result() {
        // Zyzzyva f = 1: the fast path wants all 4 replies, the fallback 3.
        // Three candidates hold 3 voters each (a replica that re-executed
        // after a view change answers twice): (5, a), (6, a), (6, b). A
        // fourth, (7, a), has fewer voters, so most voters beats a later seq.
        let config = SystemConfig::for_protocol(ProtocolId::Zyzzyva, 1);
        let mut lib = ClientLibrary::new(ClientId(1), &config, QuorumRule::AllReplicas);
        lib.begin(RequestId(1));
        let votes = [
            (&[0, 1, 2][..], 5, 1),
            (&[3][..], 7, 1),
            (&[1, 2, 3][..], 6, 1),
            (&[0, 2, 3][..], 6, 2),
        ];
        for (replicas, seq, value) in votes {
            for &replica in replicas {
                let status = lib.on_reply(&reply(replica, 1, seq, value));
                assert!(matches!(status, RequestStatus::Pending { .. }));
            }
        }
        assert_eq!(
            lib.try_fallback_complete(RequestId(1)),
            Some(RequestStatus::Complete {
                result: KvResult::Value(Some(vec![2].into())),
                seq: SeqNum(6),
                matching: 3,
            })
        );
    }

    #[test]
    fn the_fast_path_fails_on_a_fallback_quorum_that_cannot_complete() {
        use ProtocolId::{FlexiBft, Zyzzyva};
        use QuorumRule::{AllReplicas, FPlusOne};
        // Whether request 1 reports a failed fast path after `replies`, as
        // `(replica, seq, value)` at f = 2; with `forget`, once settled by
        // its fallback and forgotten.
        let failed = |protocol, rule, replies: &[(u32, u64, u8)], forget: bool| {
            let mut lib = library(protocol, rule);
            lib.begin(RequestId(1));
            for &(replica, seq, value) in replies {
                lib.on_reply(&reply(replica, 1, seq, value));
            }
            if forget {
                lib.try_fallback_complete(RequestId(1))
                    .expect("a fallback quorum");
                lib.forget(RequestId(1));
            }
            lib.fast_path_failed(RequestId(1))
        };
        let agreeing = |count: u32| (0..count).map(|r| (r, 5, 1)).collect::<Vec<_>>();
        // Zyzzyva needs all 7; 2f + 1 = 5 agreeing is its fallback quorum.
        assert!(failed(Zyzzyva, AllReplicas, &agreeing(5), false));
        assert!(!failed(Zyzzyva, AllReplicas, &agreeing(4), false));
        // Flexi-BFT completes at f + 1 = 3 agreeing: three repliers split
        // over two candidates have failed, f agreeing ones may yet succeed.
        let split = [(0, 5, 1), (1, 5, 1), (2, 6, 1)];
        assert!(failed(FlexiBft, FPlusOne, &split, false));
        assert!(!failed(FlexiBft, FPlusOne, &agreeing(2), false));
        // Settled, or settled and forgotten: nothing to fall back from.
        let settled = [(0, 5, 1), (1, 6, 1), (2, 5, 1), (3, 5, 1)];
        assert!(!failed(FlexiBft, FPlusOne, &settled, false));
        assert!(!failed(Zyzzyva, AllReplicas, &agreeing(5), true));
    }

    #[test]
    fn late_replies_after_completion_report_complete() {
        let mut lib = library(ProtocolId::FlexiBft, QuorumRule::FPlusOne);
        lib.begin(RequestId(1));
        for r in 0..3 {
            lib.on_reply(&reply(r, 1, 1, 1));
        }
        assert!(matches!(
            lib.on_reply(&reply(3, 1, 1, 1)),
            RequestStatus::Complete { .. }
        ));
        assert_eq!(lib.completed(), 1);
        lib.forget(RequestId(1));
        assert_eq!(lib.outstanding(), 0);
    }

    #[test]
    fn a_late_divergent_reply_reports_the_agreed_outcome_not_its_own() {
        let mut lib = library(ProtocolId::FlexiBft, QuorumRule::FPlusOne);
        lib.begin(RequestId(1));
        lib.on_reply(&reply(0, 1, 5, 9));
        lib.on_reply(&reply(1, 1, 5, 9));
        let agreed = lib.on_reply(&reply(2, 1, 5, 9));
        assert_eq!(
            agreed,
            RequestStatus::Complete {
                result: KvResult::Value(Some(vec![9].into())),
                seq: SeqNum(5),
                matching: 3,
            }
        );
        // A fourth replica answers with another value at another sequence:
        // the client is told what it was told before.
        assert_eq!(lib.on_reply(&reply(3, 1, 6, 7)), agreed);
        assert_eq!(lib.on_reply(&reply(4, 1, 5, 9)), agreed);
        assert_eq!(lib.completed(), 1);
    }

    #[test]
    fn replies_for_requests_never_begun_leave_no_state() {
        let mut lib = library(ProtocolId::FlexiBft, QuorumRule::FPlusOne);
        lib.begin(RequestId(1));
        for i in 0..1000u64 {
            // Request ids the client has not issued (2 is next), from every
            // replica, all agreeing: votes a pre-loading replica would want
            // counted later.
            let status = lib.on_reply(&reply((i % 5) as u32, 2 + i % 50, 5, 9));
            assert_eq!(
                status,
                RequestStatus::Pending {
                    matching: 0,
                    needed: 3
                }
            );
        }
        assert_eq!(lib.outstanding(), 1);
        assert_eq!(lib.completed(), 0);
        assert!(lib.try_fallback_complete(RequestId(2)).is_none());

        // Request 2, once begun, starts from nothing and needs its own
        // f + 1 replies.
        lib.begin(RequestId(2));
        assert_eq!(lib.outstanding(), 2);
        for r in 0..2 {
            assert_eq!(
                lib.on_reply(&reply(r, 2, 5, 9)),
                RequestStatus::Pending {
                    matching: r as usize + 1,
                    needed: 3
                }
            );
        }
        assert!(matches!(
            lib.on_reply(&reply(2, 2, 5, 9)),
            RequestStatus::Complete { matching: 3, .. }
        ));
        // A forgotten request is unknown again.
        lib.forget(RequestId(2));
        assert_eq!(
            lib.on_reply(&reply(3, 2, 5, 9)),
            RequestStatus::Pending {
                matching: 0,
                needed: 3
            }
        );
        assert_eq!(lib.outstanding(), 1);
    }

    /// The implementation this module had before candidates became an
    /// inline list: two `BTreeMap`s and a `BTreeSet` per request. Kept as
    /// the reference the model-based test below compares against; it still
    /// has the two defects the list-based one fixed (a late reply echoes
    /// itself, a reply for an unknown request creates one).
    mod oracle {
        use super::super::{result_key, KvResultKey, RequestStatus};
        use crate::messages::ClientReply;
        use flexitrust_types::{KvResult, ReplicaId, RequestId, SeqNum};
        use std::collections::{BTreeMap, BTreeSet};

        #[derive(Default)]
        struct PendingRequest {
            votes: BTreeMap<(SeqNum, KvResultKey), BTreeSet<ReplicaId>>,
            results: BTreeMap<(SeqNum, KvResultKey), KvResult>,
            complete: bool,
        }

        pub(super) struct ClientLibrary {
            fallback_needed: usize,
            pending: BTreeMap<RequestId, PendingRequest>,
            pub(super) completed: u64,
        }

        impl ClientLibrary {
            pub(super) fn new(fallback_needed: usize) -> Self {
                ClientLibrary {
                    fallback_needed,
                    pending: BTreeMap::new(),
                    completed: 0,
                }
            }

            pub(super) fn outstanding(&self) -> usize {
                self.pending.values().filter(|p| !p.complete).count()
            }

            pub(super) fn begin(&mut self, request: RequestId) {
                self.pending.entry(request).or_default();
            }

            pub(super) fn on_reply(&mut self, reply: &ClientReply, needed: usize) -> RequestStatus {
                let entry = self.pending.entry(reply.request).or_default();
                let key = (reply.seq, result_key(&reply.result));
                if !entry.complete {
                    entry
                        .results
                        .entry(key.clone())
                        .or_insert_with(|| reply.result.clone());
                    entry
                        .votes
                        .entry(key.clone())
                        .or_default()
                        .insert(reply.replica);
                }
                let matching = entry.votes.get(&key).map(BTreeSet::len).unwrap_or(0);
                if entry.complete {
                    return RequestStatus::Complete {
                        result: reply.result.clone(),
                        seq: reply.seq,
                        matching,
                    };
                }
                if matching >= needed {
                    entry.complete = true;
                    self.completed += 1;
                    RequestStatus::Complete {
                        result: entry.results[&key].clone(),
                        seq: reply.seq,
                        matching,
                    }
                } else {
                    RequestStatus::Pending { matching, needed }
                }
            }

            pub(super) fn try_fallback_complete(
                &mut self,
                request: RequestId,
            ) -> Option<RequestStatus> {
                let entry = self.pending.get_mut(&request)?;
                if entry.complete {
                    return None;
                }
                let best = entry
                    .votes
                    .iter()
                    .max_by_key(|(_, voters)| voters.len())
                    .map(|(k, voters)| (k.clone(), voters.len()))?;
                if best.1 >= self.fallback_needed {
                    entry.complete = true;
                    self.completed += 1;
                    let (seq, _) = best.0;
                    Some(RequestStatus::Complete {
                        result: entry.results[&best.0].clone(),
                        seq,
                        matching: best.1,
                    })
                } else {
                    None
                }
            }

            pub(super) fn forget(&mut self, request: RequestId) {
                self.pending.remove(&request);
            }
        }
    }

    #[test]
    fn a_slot_holds_no_key_and_no_copy_of_its_outcome() {
        // Was 176 B: a `KvResultKey` beside the result it was derived from,
        // a cloned `RequestStatus` as the outcome, a `Vec` for the rest.
        assert_eq!(std::mem::size_of::<PendingRequest>(), 96);
        assert_eq!(std::mem::size_of::<Option<PendingRequest>>(), 96);
    }

    #[test]
    fn begin_ignores_stale_ids_and_ids_implausibly_far_ahead() {
        let ahead = MAX_AHEAD as u64;
        let mut lib = library(ProtocolId::FlexiBft, QuorumRule::FPlusOne);
        lib.begin(RequestId(10));
        // Below the oldest request held: stale, nothing opens.
        lib.begin(RequestId(9));
        assert_eq!(lib.outstanding(), 1);
        for r in 0..3 {
            assert!(matches!(
                lib.on_reply(&reply(r, 9, 5, 9)),
                RequestStatus::Pending { matching: 0, .. }
            ));
        }
        // One past the limit is refused; the limit itself opens, with one
        // empty slot per skipped id.
        lib.begin(RequestId(10 + ahead + 1));
        assert_eq!(lib.outstanding(), 1);
        lib.begin(RequestId(10 + ahead));
        assert_eq!(lib.outstanding(), 2);
        assert_eq!(lib.window.slots.len(), MAX_AHEAD + 1);
        // The skipped ids are holes: nothing answers for them, a begin
        // fills one.
        assert!(lib.try_fallback_complete(RequestId(11)).is_none());
        lib.begin(RequestId(11));
        assert_eq!(lib.outstanding(), 3);
        lib.forget(RequestId(11));

        // Forgetting the oldest trims every hole behind it.
        lib.forget(RequestId(10));
        assert_eq!((lib.window.base, lib.window.slots.len()), (10 + ahead, 1));
        lib.begin(RequestId(11));
        assert_eq!(lib.outstanding(), 1, "11 is below the window now");
        // With nothing held, the window starts over anywhere ahead without
        // paying for the gap; ids below it stay stale.
        lib.forget(RequestId(10 + ahead));
        assert_eq!(lib.window.base, 10 + ahead + 1);
        lib.begin(RequestId(10 + ahead));
        assert_eq!(lib.outstanding(), 0, "a forgotten id does not reopen");
        lib.begin(RequestId(u64::MAX - 1));
        assert_eq!((lib.window.base, lib.window.slots.len()), (u64::MAX - 1, 1));
        lib.begin(RequestId(u64::MAX));
        assert_eq!(lib.outstanding(), 2);
        for r in 0..3 {
            lib.on_reply(&reply(r, u64::MAX, 5, 9));
        }
        assert_eq!(lib.completed(), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Any interleaving of begins, replies (duplicates, divergent values
        /// and sequences, lossy-equal range results, replica ids past the
        /// inline voter mask, stragglers after completion), fallback
        /// completions and forgets, under each reply rule, over ids that
        /// fall below the window, inside it, at its limit and past it, gets
        /// from the request window what the per-request trees gave —
        /// except where the trees were wrong, and there each fix is asserted
        /// on its own. The trees have no window: the test models which
        /// begins it opens, and hands the trees only those.
        #[test]
        fn the_candidate_list_answers_like_the_per_request_trees(
            rule in 0usize..3,
            ops in proptest::collection::vec(proptest::any::<u64>(), 1..160),
        ) {
            use std::collections::BTreeMap;
            let (protocol, rule) = [
                (ProtocolId::FlexiBft, QuorumRule::FPlusOne),
                (ProtocolId::FlexiZz, QuorumRule::TwoFPlusOne),
                (ProtocolId::Zyzzyva, QuorumRule::AllReplicas),
            ][rule];
            let config = SystemConfig::for_protocol(protocol, 1);
            let mut lib = ClientLibrary::new(ClientId(1), &config, rule);
            let mut old = oracle::ClientLibrary::new(lib.fallback_needed());
            // What the test itself knows: which requests are held (begun
            // and not forgotten), the status each completed one completed
            // with, and where the window starts once none is held.
            let mut agreed: BTreeMap<RequestId, Option<RequestStatus>> = BTreeMap::new();
            let mut floor = 0u64;
            let ahead = MAX_AHEAD as u64;
            // Six neighbours, then two ids exactly `ahead` past 6 and past
            // A + 7, each one past the limit from its smaller neighbour.
            let ids = [1, 2, 3, 4, 5, 6, ahead + 6, ahead + 7, 2 * ahead + 7];
            let results = [
                KvResult::Value(Some(vec![1].into())),
                KvResult::Value(Some(vec![2].into())),
                KvResult::Written,
                // Two different scans with one fingerprint.
                KvResult::Range(vec![(1, vec![9].into()), (4, vec![8].into())]),
                KvResult::Range(vec![(2, vec![9].into()), (3, vec![8].into())]),
            ];
            for op in ops {
                let request = RequestId(ids[(op >> 8) as usize % ids.len()]);
                let shape = (lib.window.base, lib.window.slots.len());
                match op % 16 {
                    0 | 1 => {
                        let opens = match (agreed.keys().next(), agreed.keys().next_back()) {
                            (Some(oldest), Some(newest)) => {
                                request >= *oldest && request.0 <= newest.0 + ahead
                            }
                            _ => request.0 >= floor,
                        };
                        lib.begin(request);
                        if opens {
                            old.begin(request);
                            agreed.entry(request).or_insert(None);
                        }
                    }
                    2 => {
                        lib.forget(request);
                        old.forget(request);
                        if agreed.remove(&request).is_some() && agreed.is_empty() {
                            floor = request.0 + 1;
                        }
                    }
                    3 | 4 => {
                        let status = lib.try_fallback_complete(request);
                        proptest::prop_assert_eq!(&status, &old.try_fallback_complete(request));
                        if let Some(status) = status {
                            agreed.insert(request, Some(status));
                        }
                        proptest::prop_assert_eq!(shape, (lib.window.base, lib.window.slots.len()));
                    }
                    _ => {
                        let replica = match (op >> 16) % 8 {
                            7 => 200 + (op >> 20) as u32 % 2,
                            id => id as u32 % config.n as u32,
                        };
                        let reply = ClientReply {
                            seq: SeqNum(5 + (op >> 24) % 2),
                            result: results[(op >> 28) as usize % results.len()].clone(),
                            ..reply(replica, request.0, 0, 0)
                        };
                        let needed = lib.needed();
                        let status = lib.on_reply(&reply);
                        // A reply alone never opens, moves or grows the
                        // window.
                        proptest::prop_assert_eq!(shape, (lib.window.base, lib.window.slots.len()));
                        match agreed.get(&request) {
                            // Fix 2: unknown request, nothing counted and
                            // nothing created (the trees are not asked:
                            // they would create it).
                            None => proptest::prop_assert_eq!(
                                status,
                                RequestStatus::Pending { matching: 0, needed }
                            ),
                            // Fix 1: completed request, the agreed outcome
                            // again (the trees echo the straggler).
                            Some(Some(outcome)) => {
                                proptest::prop_assert_eq!(&status, outcome);
                                let echoed = old.on_reply(&reply, needed);
                                proptest::prop_assert!(
                                    matches!(echoed, RequestStatus::Complete { .. }),
                                    "{echoed:?}"
                                );
                            }
                            Some(None) => {
                                proptest::prop_assert_eq!(&status, &old.on_reply(&reply, needed));
                                if matches!(status, RequestStatus::Complete { .. }) {
                                    agreed.insert(request, Some(status));
                                }
                            }
                        }
                    }
                }
                proptest::prop_assert_eq!(lib.completed(), old.completed);
                proptest::prop_assert_eq!(lib.outstanding(), old.outstanding());
                // The window holds exactly the requests the model holds,
                // and starts where the model says.
                let held: Vec<u64> = (lib.window.slots.iter().zip(lib.window.base..))
                    .filter_map(|(slot, id)| slot.as_ref().map(|_| id))
                    .collect();
                let expected: Vec<u64> = agreed.keys().map(|r| r.0).collect();
                proptest::prop_assert_eq!(&held, &expected);
                proptest::prop_assert_eq!(
                    lib.window.base,
                    expected.first().copied().unwrap_or(floor)
                );
            }
        }
    }
}
