//! View-change planning shared by the protocol engines.
//!
//! When the primary of view `v` is suspected faulty, replicas broadcast
//! `ViewChange` messages carrying the batches they have prepared (or, for
//! speculative protocols, executed), and the primary of view `v + 1` gathers
//! a quorum of those messages into a `NewView` announcement that re-proposes
//! every batch that may have committed, filling sequence-number gaps with
//! no-ops (§8.2, §8.3 and the PBFT view change they inherit from).
//!
//! [`NewViewPlanner`] implements the quorum gathering and the merge: it is
//! protocol-agnostic (the quorum size and what counts as a "prepared proof"
//! differ per protocol and are supplied by the engine).
//!
//! [`ViewChangeState`] is the rest of the sub-protocol, written once for
//! every engine and driven by methods of [`ReplicaCore`] (which embeds it
//! next to the view it changes): which view this replica last voted for, the
//! `f + 1` join rule, one planner per view it may have to lead, the guards on
//! an incoming `NewView`. Left to an engine is what its trusted component
//! does at the view boundary: how a re-proposal is attested and — for
//! FlexiTrust — the fresh counter whose creation the `NewView` must prove.

use crate::actions::Outbox;
use crate::engine::TimerKind;
use crate::messages::{Message, PreparedProof};
use crate::quorum::CertificateTracker;
use crate::replica::ReplicaCore;
use flexitrust_trusted::Attestation;
use flexitrust_types::{Batch, ReplicaId, SeqNum, View};
use std::collections::BTreeMap;

/// The merged re-proposal plan for a new view.
#[derive(Debug, Clone, PartialEq)]
pub struct NewViewPlan {
    /// The view this plan starts.
    pub view: View,
    /// How many `ViewChange` messages back the plan.
    pub supporting_votes: usize,
    /// The re-proposals in contiguous sequence order starting right after
    /// the highest stable checkpoint among the votes; gaps are no-op batches.
    pub proposals: Vec<(SeqNum, Batch)>,
    /// The sequence number right after which the new primary must continue
    /// proposing fresh batches.
    pub next_seq: SeqNum,
    /// The highest stable checkpoint reported by the quorum.
    pub stable_seq: SeqNum,
}

impl NewViewPlan {
    /// Broadcasts the `NewView` that opens this plan's view with the
    /// (re-attested) `proposals`, and disarms the announcing replica's own
    /// `ViewChange` timer: the change it voted for is over, and a timer left
    /// running would make the new primary vote itself out of its own view.
    pub fn announce(
        &self,
        proposals: Vec<(SeqNum, Batch, Option<Attestation>)>,
        counter_attestation: Option<Attestation>,
        out: &mut Outbox,
    ) {
        out.broadcast(Message::NewView {
            view: self.view,
            supporting_votes: self.supporting_votes,
            proposals,
            counter_attestation,
        });
        out.cancel_timer(TimerKind::ViewChange);
    }
}

/// Collects `ViewChange` messages for one target view and produces the
/// [`NewViewPlan`] once a quorum is reached.
#[derive(Debug)]
pub struct NewViewPlanner {
    target_view: View,
    votes: CertificateTracker<View>,
    /// Best prepared proof seen per sequence number (highest view, then most
    /// prepare votes wins).
    best: BTreeMap<u64, PreparedProof>,
    highest_stable: SeqNum,
    produced: bool,
}

impl NewViewPlanner {
    /// Creates a planner for `target_view` requiring `quorum` view-change
    /// votes.
    pub fn new(target_view: View, quorum: usize) -> Self {
        NewViewPlanner {
            target_view,
            votes: CertificateTracker::new(quorum.max(1)),
            best: BTreeMap::new(),
            highest_stable: SeqNum(0),
            produced: false,
        }
    }

    /// Number of distinct view-change votes received so far.
    pub fn votes(&self) -> usize {
        self.votes.count(&self.target_view)
    }

    /// Whether the plan has already been produced.
    pub fn produced(&self) -> bool {
        self.produced
    }

    /// Records one `ViewChange` message. Returns the plan exactly once, on
    /// the message that completes the quorum.
    pub fn record_view_change(
        &mut self,
        from: ReplicaId,
        last_stable: SeqNum,
        prepared: Vec<PreparedProof>,
    ) -> Option<NewViewPlan> {
        if self.produced {
            return None;
        }
        self.highest_stable = self.highest_stable.max(last_stable);
        for proof in prepared {
            let slot = proof.seq.0;
            match self.best.get(&slot) {
                Some(existing)
                    if (existing.view, existing.prepare_votes)
                        >= (proof.view, proof.prepare_votes) => {}
                _ => {
                    self.best.insert(slot, proof);
                }
            }
        }
        if self.votes.vote(self.target_view, from) {
            self.produced = true;
            Some(self.build_plan())
        } else {
            None
        }
    }

    fn build_plan(&self) -> NewViewPlan {
        let start = self.highest_stable.0 + 1;
        let max_seq = self
            .best
            .keys()
            .copied()
            .filter(|s| *s >= start)
            .max()
            .unwrap_or(self.highest_stable.0);
        let mut proposals = Vec::new();
        for seq in start..=max_seq {
            match self.best.get(&seq) {
                Some(proof) => proposals.push((SeqNum(seq), proof.batch.clone())),
                // Gap between re-proposed requests: fill with a no-op so the
                // execution order has no holes.
                None => proposals.push((SeqNum(seq), Batch::noop(seq))),
            }
        }
        NewViewPlan {
            view: self.target_view,
            supporting_votes: self.votes(),
            next_seq: SeqNum(max_seq + 1),
            stable_seq: self.highest_stable,
            proposals,
        }
    }
}

/// One replica's progress through view changes.
#[derive(Debug)]
pub struct ViewChangeState {
    in_view_change: bool,
    /// The highest view this replica has broadcast a `ViewChange` for.
    highest_vc_vote: View,
    /// One planner per view this replica would lead and has votes for.
    planners: BTreeMap<u64, NewViewPlanner>,
    join_votes: CertificateTracker<View>,
    view_changes_completed: u64,
}

impl ViewChangeState {
    /// Fresh state in view 0; `join_quorum` demands (`f + 1`) make a replica
    /// join a view change it did not start.
    pub(crate) fn new(join_quorum: usize) -> Self {
        ViewChangeState {
            in_view_change: false,
            highest_vc_vote: View::ZERO,
            planners: BTreeMap::new(),
            join_votes: CertificateTracker::new(join_quorum),
            view_changes_completed: 0,
        }
    }

    /// Records this replica's vote for `target`; `false` when it already
    /// voted for that view or a later one.
    fn vote_for(&mut self, target: View) -> bool {
        let fresh = target > self.highest_vc_vote;
        if fresh {
            self.highest_vc_vote = target;
            self.in_view_change = true;
        }
        fresh
    }
}

impl ReplicaCore {
    /// Whether this replica currently considers a view change in progress.
    pub fn in_view_change(&self) -> bool {
        self.view_change.in_view_change
    }

    /// Number of view changes this replica has completed.
    pub fn view_changes_completed(&self) -> u64 {
        self.view_change.view_changes_completed
    }

    /// Suspects the primary: broadcasts a `ViewChange` for the next view
    /// carrying the engine's `prepared` proofs, and re-arms the timer so
    /// that a view change that does not complete moves on to the next view.
    pub fn start_view_change(&mut self, prepared: Vec<PreparedProof>, out: &mut Outbox) {
        let new_view = self.view().next();
        if self.view_change.vote_for(new_view) {
            let last_stable = self.low_water_mark();
            out.broadcast(Message::ViewChange {
                new_view,
                last_stable,
                prepared,
            });
            out.set_timer(TimerKind::ViewChange, self.config().view_timeout_us);
        }
    }

    /// Handles a `ViewChange` vote for `new_view`.
    ///
    /// Once `f + 1` distinct replicas demand a view change, an honest
    /// replica joins it with its `own_proofs` even if its own timer has not
    /// fired yet (otherwise Byzantine replicas alone could never force one,
    /// and honest stragglers would hold the system back). The designated
    /// primary of `new_view` additionally gathers `quorum` votes; on the
    /// vote that completes them it enters the view and gets the plan back,
    /// to attest the re-proposals and [`NewViewPlan::announce`] them.
    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one ViewChange, plus the quorum and the replica's own proofs"
    )]
    pub fn on_view_change(
        &mut self,
        from: ReplicaId,
        new_view: View,
        last_stable: SeqNum,
        prepared: Vec<PreparedProof>,
        quorum: usize,
        own_proofs: impl FnOnce(&Self) -> Vec<PreparedProof>,
        out: &mut Outbox,
    ) -> Option<NewViewPlan> {
        if new_view <= self.view() {
            return None;
        }
        let join_quorum = self.config().small_quorum();
        self.view_change.join_votes.vote(new_view, from);
        if self.view_change.join_votes.count(&new_view) >= join_quorum
            && self.view_change.vote_for(new_view)
        {
            out.broadcast(Message::ViewChange {
                new_view,
                last_stable: self.low_water_mark(),
                prepared: own_proofs(self),
            });
        }
        if new_view.primary(self.config().n) != self.id() {
            return None;
        }
        let plan = self
            .view_change
            .planners
            .entry(new_view.0)
            .or_insert_with(|| NewViewPlanner::new(new_view, quorum))
            .record_view_change(from, last_stable, prepared)?;
        self.complete_view_change(new_view);
        Some(plan)
    }

    /// Checks a `NewView` backed by `supporting_votes` (of the `quorum` the
    /// protocol requires): it must come from the primary of `view`, and
    /// `view` must be ahead of this replica or the one it is still changing
    /// into. Returns whether the view was entered; adopting the
    /// re-proposals is the engine's.
    pub fn on_new_view(
        &mut self,
        from: ReplicaId,
        view: View,
        supporting_votes: usize,
        quorum: usize,
    ) -> bool {
        let already_there = view == self.view() && !self.in_view_change();
        let valid = view >= self.view()
            && !already_there
            && from == view.primary(self.config().n)
            && supporting_votes >= quorum;
        if valid {
            self.complete_view_change(view);
        }
        valid
    }

    /// Enters `view` and forgets the per-view state of every view up to it
    /// (votes for those are refused from now on, so nothing re-creates it).
    fn complete_view_change(&mut self, view: View) {
        self.enter_view(view);
        let state = &mut self.view_change;
        state.in_view_change = false;
        state.view_changes_completed += 1;
        state.planners.retain(|target, _| *target > view.0);
        state.join_votes.retain(|target| *target > view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::{ClientId, Digest, KvOp, RequestId, Transaction};

    fn proof(view: u64, seq: u64, votes: usize, tag: u64) -> PreparedProof {
        PreparedProof {
            view: View(view),
            seq: SeqNum(seq),
            digest: Digest::from_u64_tag(tag),
            batch: Batch::new(
                vec![Transaction::new(
                    ClientId(1),
                    RequestId(tag),
                    KvOp::Read { key: tag },
                )],
                Digest::from_u64_tag(tag),
            ),
            attestation: None,
            prepare_votes: votes,
        }
    }

    #[test]
    fn plan_is_produced_exactly_once_at_quorum() {
        let mut planner = NewViewPlanner::new(View(1), 3);
        assert!(planner
            .record_view_change(ReplicaId(0), SeqNum(0), vec![proof(0, 1, 3, 1)])
            .is_none());
        assert!(planner
            .record_view_change(ReplicaId(1), SeqNum(0), vec![])
            .is_none());
        let plan = planner
            .record_view_change(ReplicaId(2), SeqNum(0), vec![])
            .unwrap();
        assert_eq!(plan.view, View(1));
        assert_eq!(plan.supporting_votes, 3);
        assert_eq!(plan.proposals.len(), 1);
        assert!(planner
            .record_view_change(ReplicaId(3), SeqNum(0), vec![])
            .is_none());
        assert!(planner.produced());
    }

    #[test]
    fn duplicate_votes_do_not_count_toward_quorum() {
        let mut planner = NewViewPlanner::new(View(1), 2);
        assert!(planner
            .record_view_change(ReplicaId(0), SeqNum(0), vec![])
            .is_none());
        assert!(planner
            .record_view_change(ReplicaId(0), SeqNum(0), vec![])
            .is_none());
        assert!(planner
            .record_view_change(ReplicaId(1), SeqNum(0), vec![])
            .is_some());
    }

    #[test]
    fn gaps_are_filled_with_noops() {
        let mut planner = NewViewPlanner::new(View(2), 1);
        let plan = planner
            .record_view_change(
                ReplicaId(0),
                SeqNum(0),
                vec![proof(1, 1, 3, 1), proof(1, 4, 3, 4)],
            )
            .unwrap();
        let seqs: Vec<u64> = plan.proposals.iter().map(|(s, _)| s.0).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
        assert!(plan.proposals[1].1.is_noop());
        assert!(plan.proposals[2].1.is_noop());
        assert!(!plan.proposals[3].1.is_noop());
        assert_eq!(plan.next_seq, SeqNum(5));
    }

    #[test]
    fn higher_view_proof_wins_per_slot() {
        let mut planner = NewViewPlanner::new(View(3), 2);
        planner.record_view_change(ReplicaId(0), SeqNum(0), vec![proof(1, 1, 3, 10)]);
        let plan = planner
            .record_view_change(ReplicaId(1), SeqNum(0), vec![proof(2, 1, 2, 20)])
            .unwrap();
        assert_eq!(plan.proposals[0].1.digest(), Digest::from_u64_tag(20));
    }

    #[test]
    fn slots_below_stable_checkpoint_are_dropped() {
        let mut planner = NewViewPlanner::new(View(1), 2);
        planner.record_view_change(
            ReplicaId(0),
            SeqNum(3),
            vec![proof(0, 2, 3, 2), proof(0, 5, 3, 5)],
        );
        let plan = planner
            .record_view_change(ReplicaId(1), SeqNum(1), vec![])
            .unwrap();
        let seqs: Vec<u64> = plan.proposals.iter().map(|(s, _)| s.0).collect();
        assert_eq!(seqs, vec![4, 5]);
        assert_eq!(plan.stable_seq, SeqNum(3));
        assert!(plan.proposals[0].1.is_noop());
    }

    #[test]
    fn entering_a_view_forgets_the_per_view_state_up_to_it() {
        use flexitrust_types::{ProtocolId, SystemConfig};
        // Replica 1 of n = 4 leads views 1 and 5.
        let cfg = SystemConfig::for_protocol(ProtocolId::Pbft, 1);
        let mut core = ReplicaCore::new(cfg, ReplicaId(1));
        let mut out = Outbox::new();
        let mut vote = |core: &mut ReplicaCore, from: u32, view: u64| {
            core.on_view_change(
                ReplicaId(from),
                View(view),
                SeqNum(0),
                vec![],
                3,
                |_| vec![],
                &mut out,
            )
        };
        assert!(vote(&mut core, 0, 1).is_none());
        // A vote for a later view it would also lead opens a second planner.
        assert!(vote(&mut core, 0, 5).is_none());
        assert!(vote(&mut core, 2, 1).is_none());
        assert_eq!(core.view_change.planners.len(), 2);
        assert!(vote(&mut core, 3, 1).is_some());
        assert_eq!(core.view(), View(1));
        assert_eq!(
            core.view_change.planners.len(),
            1,
            "view 1's planner is gone"
        );
        assert_eq!(core.view_change.join_votes.tracked_keys(), 1);
        assert!(vote(&mut core, 2, 5).is_none());
        assert!(vote(&mut core, 3, 5).is_some());
        assert_eq!(core.view_changes_completed(), 2);
        assert!(core.view_change.planners.is_empty());
        assert_eq!(core.view_change.join_votes.tracked_keys(), 0);
        // Late votes for the views behind re-create nothing.
        assert!(vote(&mut core, 0, 5).is_none());
        assert!(core.view_change.planners.is_empty());
    }

    #[test]
    fn empty_quorum_produces_empty_plan() {
        let mut planner = NewViewPlanner::new(View(1), 1);
        let plan = planner
            .record_view_change(ReplicaId(0), SeqNum(7), vec![])
            .unwrap();
        assert!(plan.proposals.is_empty());
        assert_eq!(plan.next_seq, SeqNum(8));
    }
}
