//! Deterministic chaos scenario engine, the simulator's one fault model:
//! time-scripted partitions and crash/recover events, seeded per-link
//! drop/duplicate/reorder, commit-progress-triggered crash windows and the
//! §5 withhold/delay adversary.
//!
//! A [`ChaosPlan`] is declarative; [`ChaosState`] is the plan bound to one
//! cluster. Hosts advance the state as their clock passes scripted events
//! and ask it the fate of every send; probabilistic link fates come from
//! the plan's own seeded ChaCha stream — never the thread RNG — so an
//! identical plan reproduces a bit-identical event schedule. Recovery
//! rejoins through the checkpoint state-transfer path (`CheckpointRequest`
//! / `CheckpointState`), replaying from the latest stable checkpoint.

use flexitrust_protocol::host::{CrashWindow, WindowEvent, WindowPhase};
use flexitrust_protocol::Message;
use flexitrust_types::ReplicaId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::BTreeSet;

/// A scripted chaos event, applied when virtual time reaches `at_ns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Split the replicas into disjoint groups; replica-to-replica traffic
    /// crossing a group boundary is dropped. Replicas named in no group
    /// share one implicit extra group. Forming a partition replaces any
    /// partition already active.
    PartitionForm {
        /// Virtual time the partition forms, nanoseconds.
        at_ns: u64,
        /// The explicit groups; disjointness is the caller's contract.
        groups: Vec<Vec<ReplicaId>>,
    },
    /// Remove the active partition; all links flow again.
    PartitionHeal {
        /// Virtual time the partition heals, nanoseconds.
        at_ns: u64,
    },
    /// Crash a replica: from `at_ns` it receives nothing, sends nothing and
    /// its timers are discarded.
    Crash {
        /// Virtual time of the crash, nanoseconds.
        at_ns: u64,
        /// The replica that goes down.
        replica: ReplicaId,
    },
    /// Recover a crashed replica: it comes back up and immediately asks
    /// every peer for the latest stable checkpoint (`CheckpointRequest`),
    /// rejoining via state transfer plus replay.
    Recover {
        /// Virtual time of the recovery, nanoseconds.
        at_ns: u64,
        /// The replica that rejoins.
        replica: ReplicaId,
    },
}

impl ChaosEvent {
    /// The virtual time this event fires at.
    pub fn at_ns(&self) -> u64 {
        match self {
            ChaosEvent::PartitionForm { at_ns, .. }
            | ChaosEvent::PartitionHeal { at_ns }
            | ChaosEvent::Crash { at_ns, .. }
            | ChaosEvent::Recover { at_ns, .. } => *at_ns,
        }
    }
}

/// Coarse classes of protocol traffic, so link chaos can target (say) only
/// vote messages while proposals and checkpoints flow untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MessageClass {
    /// Primary proposals (`PrePrepare`).
    Proposal,
    /// Replica votes (`Prepare` / `Commit`).
    Vote,
    /// Checkpoint votes and crash-recovery state transfer.
    Checkpoint,
    /// View-change traffic (`ViewChange` / `NewView`).
    ViewChange,
    /// Client-path traffic (`ClientRetry` / `ForwardRequest`).
    Client,
}

impl MessageClass {
    /// The class of a protocol message.
    pub fn of(msg: &Message) -> MessageClass {
        match msg {
            Message::PrePrepare { .. } => MessageClass::Proposal,
            Message::Prepare { .. } | Message::Commit { .. } => MessageClass::Vote,
            Message::Checkpoint { .. }
            | Message::CheckpointRequest { .. }
            | Message::CheckpointState { .. } => MessageClass::Checkpoint,
            Message::ViewChange { .. } | Message::NewView { .. } => MessageClass::ViewChange,
            Message::ClientRetry { .. } | Message::ForwardRequest { .. } => MessageClass::Client,
        }
    }
}

/// Per-link probabilistic chaos. Rates are integral events-per-10 000
/// messages so plans stay exactly serialisable; draws come from the plan's
/// seeded ChaCha stream in a fixed order, so the same plan over the same
/// traffic yields the same fates. A replica's copy of its own broadcast
/// crosses no link and is exempt: it is never dropped, duplicated or
/// reordered, and costs no draw.
///
/// Duplicates are always survivable (the engines are idempotent). Drops
/// and reorders may *legitimately* cost liveness: votes are never
/// retransmitted, and the engines assume FIFO links (attested counter
/// values must arrive in order), so a lost or out-of-order protocol
/// message can permanently stall one replica's sequential execution.
/// Safety is unconditional either way — use
/// [`crate::metrics::SimReport::check_chaos_invariants`] accordingly:
/// assert the full checker on drop-free, reorder-free plans, and the
/// safety half on arbitrary ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkChaos {
    /// Messages silently dropped, per 10 000.
    pub drop_per_10k: u32,
    /// Messages delivered twice, per 10 000; the copy arrives after an
    /// extra delay drawn from `[0, reorder_max_delay_us]`.
    pub duplicate_per_10k: u32,
    /// Messages delayed past later traffic (reordered), per 10 000.
    pub reorder_per_10k: u32,
    /// Upper bound (microseconds) of the extra delay drawn for reordered
    /// messages and duplicate copies.
    pub reorder_max_delay_us: u64,
    /// Message classes the link chaos applies to; empty targets every class.
    pub classes: BTreeSet<MessageClass>,
}

impl LinkChaos {
    /// True when no probabilistic fault can ever fire — the runner then
    /// makes zero RNG draws.
    pub fn is_empty(&self) -> bool {
        self.drop_per_10k == 0 && self.duplicate_per_10k == 0 && self.reorder_per_10k == 0
    }

    /// Whether this chaos applies to the given message.
    pub fn applies_to(&self, msg: &Message) -> bool {
        self.classes.is_empty() || self.classes.contains(&MessageClass::of(msg))
    }
}

/// The §5 restricted-responsiveness adversary: Byzantine replicas silently
/// withhold every message from a set of honest victims, and the network
/// delays the remaining honest senders' messages towards those victims
/// (partial synchrony).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WithholdRule {
    /// Byzantine replicas whose messages to `victims` are dropped.
    pub withholding: BTreeSet<ReplicaId>,
    /// The replicas being kept in the dark.
    pub victims: BTreeSet<ReplicaId>,
    /// Honest replicas whose messages to `victims` arrive `delay_us` late.
    pub delayed_senders: BTreeSet<ReplicaId>,
    /// Extra delay on messages from `delayed_senders` to `victims`.
    pub delay_us: u64,
}

/// A declarative, time-scripted chaos plan: a sorted schedule of partition
/// and crash/recover events, per-link probabilistic faults, commit-triggered
/// crash windows and an optional withhold/delay adversary, all reproducible
/// from `seed`. Entries naming replicas outside the cluster the plan is run
/// on are ignored.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Scripted events, sorted ascending by `at_ns` (constructors sort;
    /// hand-built plans should too — the runner applies them in order).
    pub schedule: Vec<ChaosEvent>,
    /// Per-link probabilistic drop/duplicate/reorder.
    pub link: LinkChaos,
    /// Commit-progress-triggered crash/recover windows.
    pub crash_windows: Vec<CrashWindow>,
    /// The §5 withhold/delay adversary, if any.
    pub withhold: Option<WithholdRule>,
    /// Seed of the plan's private ChaCha stream (independent of the
    /// workload seed, so adding chaos never perturbs the workload).
    pub seed: u64,
}

impl ChaosPlan {
    /// No chaos at all: the runner takes the exact fault-free path.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// True when the plan can never do anything; the runner skips all chaos
    /// bookkeeping and the schedule stays bit-identical to a run without
    /// a plan.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
            && self.link.is_empty()
            && self.crash_windows.is_empty()
            && self.withhold.is_none()
    }

    /// A single replica down for the whole run, as in Figure 7: a crash at
    /// t = 0 that never recovers.
    pub fn single_failure(replica: ReplicaId) -> Self {
        Self::scripted(0, vec![ChaosEvent::Crash { at_ns: 0, replica }])
    }

    /// The §5 responsiveness scenario: the Byzantine set `byzantine`
    /// withholds everything from the honest set `victims`, and the one
    /// remaining honest replica's (`delayed`) messages to the victims are
    /// delayed by `delay_us`.
    pub fn responsiveness_attack(
        byzantine: impl IntoIterator<Item = ReplicaId>,
        victims: impl IntoIterator<Item = ReplicaId>,
        delayed: ReplicaId,
        delay_us: u64,
    ) -> Self {
        ChaosPlan {
            withhold: Some(WithholdRule {
                withholding: byzantine.into_iter().collect(),
                victims: victims.into_iter().collect(),
                delayed_senders: BTreeSet::from([delayed]),
                delay_us,
            }),
            ..ChaosPlan::default()
        }
    }

    /// A plan from an explicit schedule; events are sorted by time.
    pub fn scripted(seed: u64, mut schedule: Vec<ChaosEvent>) -> Self {
        schedule.sort_by_key(ChaosEvent::at_ns);
        ChaosPlan {
            schedule,
            seed,
            ..ChaosPlan::default()
        }
    }

    /// Partition the replicas into `groups` at `form_ns`, heal at `heal_ns`.
    pub fn partition_then_heal(
        seed: u64,
        groups: Vec<Vec<ReplicaId>>,
        form_ns: u64,
        heal_ns: u64,
    ) -> Self {
        Self::scripted(
            seed,
            vec![
                ChaosEvent::PartitionForm {
                    at_ns: form_ns,
                    groups,
                },
                ChaosEvent::PartitionHeal { at_ns: heal_ns },
            ],
        )
    }

    /// Crash `replica` at `crash_ns` and recover it at `recover_ns` (it
    /// rejoins via checkpoint state transfer).
    pub fn crash_then_recover(
        seed: u64,
        replica: ReplicaId,
        crash_ns: u64,
        recover_ns: u64,
    ) -> Self {
        Self::scripted(
            seed,
            vec![
                ChaosEvent::Crash {
                    at_ns: crash_ns,
                    replica,
                },
                ChaosEvent::Recover {
                    at_ns: recover_ns,
                    replica,
                },
            ],
        )
    }

    /// Churn preset: starting at `start_ns`, crash the rotating replica
    /// `round % n` for `down_ns`, then `period_ns` later the next one, for
    /// `rounds` rounds. Crashing replica `v` while it leads view `v` forces
    /// a view change, so the rotation repeatedly exercises that path.
    pub fn churn(
        seed: u64,
        n: usize,
        start_ns: u64,
        period_ns: u64,
        down_ns: u64,
        rounds: usize,
    ) -> Self {
        let mut schedule = Vec::with_capacity(rounds * 2);
        for round in 0..rounds {
            let replica = ReplicaId((round % n) as u32);
            let crash = start_ns + round as u64 * period_ns;
            schedule.push(ChaosEvent::Crash {
                at_ns: crash,
                replica,
            });
            schedule.push(ChaosEvent::Recover {
                at_ns: crash + down_ns,
                replica,
            });
        }
        Self::scripted(seed, schedule)
    }

    /// Attaches per-link probabilistic chaos to the plan.
    pub fn with_link(mut self, link: LinkChaos) -> Self {
        self.link = link;
        self
    }

    /// Attaches commit-progress-triggered crash windows to the plan.
    pub fn with_crash_windows(mut self, windows: Vec<CrashWindow>) -> Self {
        self.crash_windows = windows;
        self
    }
}

/// What happens to one message in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Never deliver (crashed endpoint, partition boundary, withheld by the
    /// adversary, or a seeded link drop).
    Drop,
    /// Deliver, possibly late and possibly twice.
    Deliver {
        /// Extra delay, nanoseconds (adversarial delay plus reorder draw).
        extra_ns: u64,
        /// When set, a duplicate copy arrives this much later than the
        /// message itself, nanoseconds.
        duplicate_extra_ns: Option<u64>,
    },
}

impl Fate {
    /// Delivered once, on time.
    pub const PROMPT: Fate = Fate::Deliver {
        extra_ns: 0,
        duplicate_extra_ns: None,
    };
}

/// A [`ChaosPlan`] bound to one cluster: the one interpreter of fault
/// plans, shared by the simulator and the attack harness.
#[derive(Debug)]
pub struct ChaosState {
    /// The plan, minus entries naming replicas outside the cluster.
    plan: ChaosPlan,
    n: usize,
    /// Index of the next scripted event to apply.
    cursor: usize,
    down: BTreeSet<ReplicaId>,
    /// The groups of the active partition, if any.
    partition: Option<Vec<Vec<ReplicaId>>>,
    windows: Vec<(CrashWindow, WindowPhase)>,
    /// The plan's private seeded stream for link-chaos draws.
    rng: ChaCha12Rng,
    /// Disruptive events applied (partitions formed, crashes).
    pub disruptions: u64,
    /// Time of the last restorative event (heal / recover), nanoseconds.
    pub last_restore_ns: u64,
    /// Client completions at or after the last restorative event — the
    /// liveness checker's progress signal.
    pub completed_after_restore: u64,
}

impl ChaosState {
    /// Binds `plan` to a cluster of `n` replicas. An empty plan builds no
    /// state, so fault-free runs consult nothing and draw nothing. Crashes,
    /// recoveries and windows naming a replica `>= n` are removed here,
    /// once (unknown partition members never match a sender anyway), so a
    /// plan written for a larger cluster degrades to its applicable subset
    /// instead of indexing out of range mid-run.
    pub fn new(plan: &ChaosPlan, n: usize) -> Option<ChaosState> {
        if plan.is_empty() {
            return None;
        }
        let known = |replica: &ReplicaId| replica.as_usize() < n;
        let mut plan = plan.clone();
        plan.schedule.retain(|event| match event {
            ChaosEvent::Crash { replica, .. } | ChaosEvent::Recover { replica, .. } => {
                known(replica)
            }
            _ => true,
        });
        plan.crash_windows.retain(|window| known(&window.replica));
        let windows = plan.crash_windows.iter();
        Some(ChaosState {
            n,
            cursor: 0,
            down: BTreeSet::new(),
            partition: None,
            windows: windows.map(|w| (*w, WindowPhase::Armed)).collect(),
            rng: ChaCha12Rng::seed_from_u64(plan.seed),
            disruptions: 0,
            last_restore_ns: 0,
            completed_after_restore: 0,
            plan,
        })
    }

    /// Whether `replica` is currently crashed.
    pub fn is_down(&self, replica: ReplicaId) -> bool {
        self.down.contains(&replica)
    }

    /// Applies the scripted events due at `now`, in schedule order, and
    /// returns as soon as one recovers a replica — `(recovery time,
    /// replica)` — so the host can send that replica's recovery request
    /// before later events change who is up. Call until it returns `None`.
    pub fn advance(&mut self, now: u64) -> Option<(u64, ReplicaId)> {
        while let Some(event) = self.plan.schedule.get(self.cursor) {
            let at = event.at_ns();
            if at > now {
                break;
            }
            self.cursor += 1;
            match event {
                ChaosEvent::PartitionForm { groups, .. } => {
                    self.partition = Some(groups.clone());
                    self.disruptions += 1;
                }
                ChaosEvent::PartitionHeal { .. } => {
                    self.partition = None;
                    self.mark_restored(at);
                }
                ChaosEvent::Crash { replica, .. } => {
                    self.down.insert(*replica);
                    self.disruptions += 1;
                }
                ChaosEvent::Recover { replica, .. } => {
                    let replica = *replica;
                    self.down.remove(&replica);
                    self.mark_restored(at);
                    return Some((at, replica));
                }
            }
        }
        None
    }

    /// Steps every crash window at time `now` against the cluster's
    /// execution frontiers (`frontier(i)` is replica `i`'s last-executed
    /// sequence); returns the replicas that just recovered, for the host to
    /// send their recovery requests.
    pub fn poll_windows(&mut self, now: u64, frontier: impl Fn(usize) -> u64) -> Vec<ReplicaId> {
        let mut recovered = Vec::new();
        for i in 0..self.windows.len() {
            let (window, mut phase) = self.windows[i];
            let others = window.others_frontier((0..self.n).map(&frontier));
            match phase.step(&window, frontier(window.replica.as_usize()), others) {
                Some(WindowEvent::Crash) => {
                    self.down.insert(window.replica);
                    self.disruptions += 1;
                }
                Some(WindowEvent::Recover) => {
                    self.down.remove(&window.replica);
                    self.mark_restored(now);
                    recovered.push(window.replica);
                }
                None => {}
            }
            self.windows[i].1 = phase;
        }
        recovered
    }

    /// Decides the fate of `msg` sent from `from` to `to` right now.
    pub fn fate(&mut self, from: ReplicaId, to: ReplicaId, msg: &Message) -> Fate {
        if self.is_down(from) || self.is_down(to) {
            return Fate::Drop;
        }
        if from == to {
            // Loopback crosses no link: no partition, adversary or link
            // chaos applies, and no draw is spent on it.
            return Fate::PROMPT;
        }
        if let Some(groups) = &self.partition {
            // Replicas named in no group share the implicit extra one.
            let group = |r| groups.iter().position(|members| members.contains(&r));
            if group(from) != group(to) {
                return Fate::Drop;
            }
        }
        let mut extra_ns = 0;
        let rule = self.plan.withhold.as_ref();
        if let Some(rule) = rule.filter(|r| r.victims.contains(&to)) {
            if rule.withholding.contains(&from) {
                return Fate::Drop;
            }
            if rule.delayed_senders.contains(&from) {
                extra_ns = rule.delay_us * 1_000;
            }
        }
        let (link, rng) = (&self.plan.link, &mut self.rng);
        let mut duplicate_extra_ns = None;
        if !link.is_empty() && link.applies_to(msg) {
            // Fixed draw order — drop, duplicate, reorder, each gated on
            // its configured rate — so the plan's ChaCha stream is a pure
            // function of the traffic it sees and the schedule reproduces
            // bit-identically from the seed.
            if draw_hit(link.drop_per_10k, rng) {
                return Fate::Drop;
            }
            if draw_hit(link.duplicate_per_10k, rng) {
                duplicate_extra_ns = Some(draw_delay_ns(link, rng));
            }
            if draw_hit(link.reorder_per_10k, rng) {
                extra_ns += draw_delay_ns(link, rng);
            }
        }
        Fate::Deliver {
            extra_ns,
            duplicate_extra_ns,
        }
    }

    /// A client request completed at `at`.
    pub fn record_completion(&mut self, at: u64) {
        if at >= self.last_restore_ns {
            self.completed_after_restore += 1;
        }
    }

    /// A restorative event (heal / recover) was applied: restart the
    /// liveness clock the invariant checker measures progress from.
    fn mark_restored(&mut self, at: u64) {
        self.last_restore_ns = at;
        self.completed_after_restore = 0;
    }
}

/// One rate draw; a zero rate draws nothing.
fn draw_hit(per_10k: u32, rng: &mut ChaCha12Rng) -> bool {
    per_10k > 0 && rng.gen_range(0..10_000u32) < per_10k
}

fn draw_delay_ns(link: &LinkChaos, rng: &mut ChaCha12Rng) -> u64 {
    if link.reorder_max_delay_us == 0 {
        return 0;
    }
    rng.gen_range(0..=link.reorder_max_delay_us) * 1_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_presets_are_not() {
        assert!(ChaosPlan::none().is_empty());
        assert!(!ChaosPlan::crash_then_recover(1, ReplicaId(2), 10, 20).is_empty());
        assert!(!ChaosPlan::none()
            .with_link(LinkChaos {
                drop_per_10k: 1,
                ..LinkChaos::default()
            })
            .is_empty());
        assert!(!ChaosPlan::none()
            .with_crash_windows(vec![CrashWindow {
                replica: ReplicaId(2),
                crash_at_seq: 40,
                recover_at_seq: 120,
            }])
            .is_empty());
    }

    #[test]
    fn scripted_plans_sort_their_schedule() {
        let plan = ChaosPlan::scripted(
            7,
            vec![
                ChaosEvent::PartitionHeal { at_ns: 500 },
                ChaosEvent::Crash {
                    at_ns: 100,
                    replica: ReplicaId(1),
                },
            ],
        );
        assert_eq!(plan.schedule[0].at_ns(), 100);
        assert_eq!(plan.schedule[1].at_ns(), 500);
    }

    #[test]
    fn churn_rotates_replicas_and_interleaves_recoveries() {
        let plan = ChaosPlan::churn(3, 4, 1_000, 10_000, 2_000, 5);
        assert_eq!(plan.schedule.len(), 10);
        // Round 4 wraps back to replica 0.
        let crashes: Vec<(u64, ReplicaId)> = plan
            .schedule
            .iter()
            .filter_map(|e| match e {
                ChaosEvent::Crash { at_ns, replica } => Some((*at_ns, *replica)),
                _ => None,
            })
            .collect();
        assert_eq!(crashes[0], (1_000, ReplicaId(0)));
        assert_eq!(crashes[1], (11_000, ReplicaId(1)));
        assert_eq!(crashes[4], (41_000, ReplicaId(0)));
        // Every crash is followed by its recovery before the next crash.
        for pair in plan.schedule.windows(2) {
            assert!(pair[0].at_ns() <= pair[1].at_ns());
        }
    }

    fn vote() -> Message {
        Message::Prepare {
            view: flexitrust_types::View(0),
            seq: flexitrust_types::SeqNum(1),
            digest: flexitrust_types::Digest::ZERO,
            attestation: None,
        }
    }

    /// Binds `plan` to `n` replicas and applies its t = 0 events.
    fn bound(plan: &ChaosPlan, n: usize) -> ChaosState {
        let mut state = ChaosState::new(plan, n).expect("non-empty plan");
        while state.advance(0).is_some() {}
        state
    }

    #[test]
    fn empty_plan_builds_no_state() {
        assert!(ChaosState::new(&ChaosPlan::none(), 4).is_none());
    }

    #[test]
    fn failed_replicas_neither_send_nor_receive() {
        let mut state = bound(&ChaosPlan::single_failure(ReplicaId(2)), 4);
        assert!(state.is_down(ReplicaId(2)));
        assert!(!state.is_down(ReplicaId(0)));
        assert_eq!(state.fate(ReplicaId(2), ReplicaId(0), &vote()), Fate::Drop);
        assert_eq!(state.fate(ReplicaId(0), ReplicaId(2), &vote()), Fate::Drop);
        assert_eq!(state.fate(ReplicaId(2), ReplicaId(2), &vote()), Fate::Drop);
        assert_eq!(
            state.fate(ReplicaId(0), ReplicaId(1), &vote()),
            Fate::PROMPT
        );
    }

    #[test]
    fn responsiveness_attack_partitions_the_victims() {
        // MinBFT with f = 1, n = 3: byzantine primary r0, victim r2,
        // delayed honest replica r1.
        let plan = ChaosPlan::responsiveness_attack(
            [ReplicaId(0)],
            [ReplicaId(2)],
            ReplicaId(1),
            5_000_000,
        );
        let mut state = bound(&plan, 3);
        assert_eq!(state.fate(ReplicaId(0), ReplicaId(2), &vote()), Fate::Drop);
        assert_eq!(
            state.fate(ReplicaId(1), ReplicaId(2), &vote()),
            Fate::Deliver {
                extra_ns: 5_000_000_000,
                duplicate_extra_ns: None,
            }
        );
        assert_eq!(
            state.fate(ReplicaId(0), ReplicaId(1), &vote()),
            Fate::PROMPT
        );
        assert_eq!(
            state.fate(ReplicaId(1), ReplicaId(0), &vote()),
            Fate::PROMPT
        );
        assert_eq!(
            state.fate(ReplicaId(2), ReplicaId(2), &vote()),
            Fate::PROMPT
        );
    }

    #[test]
    fn class_targeted_link_chaos_only_touches_matching_traffic() {
        // Drop every vote: Prepare is dropped, but PrePrepare (a Proposal)
        // still flows.
        let votes_only = LinkChaos {
            drop_per_10k: 10_000,
            classes: BTreeSet::from([MessageClass::Vote]),
            ..LinkChaos::default()
        };
        let proposal = Message::PrePrepare {
            view: flexitrust_types::View(0),
            seq: flexitrust_types::SeqNum(1),
            batch: flexitrust_crypto::make_batch(Vec::new()),
            attestation: None,
        };
        let mut state = bound(&ChaosPlan::none().with_link(votes_only.clone()), 4);
        assert_eq!(state.fate(ReplicaId(0), ReplicaId(2), &vote()), Fate::Drop);
        assert_eq!(
            state.fate(ReplicaId(0), ReplicaId(2), &proposal),
            Fate::PROMPT
        );
        // Crashes ignore targeting: a dead host drops everything.
        let crashed = ChaosPlan::single_failure(ReplicaId(2)).with_link(votes_only);
        let mut state = bound(&crashed, 4);
        assert_eq!(
            state.fate(ReplicaId(0), ReplicaId(2), &proposal),
            Fate::Drop
        );
    }

    #[test]
    fn link_chaos_spares_loopback() {
        // Every link drops everything, yet a replica still hears itself:
        // its own copy of a broadcast crosses no link.
        let plan = ChaosPlan::none().with_link(LinkChaos {
            drop_per_10k: 10_000,
            ..LinkChaos::default()
        });
        let mut state = bound(&plan, 4);
        for r in 0..4 {
            assert_eq!(
                state.fate(ReplicaId(r), ReplicaId(r), &vote()),
                Fate::PROMPT
            );
            let peer = ReplicaId((r + 1) % 4);
            assert_eq!(state.fate(ReplicaId(r), peer, &vote()), Fate::Drop);
        }
    }

    #[test]
    fn entries_naming_unknown_replicas_are_skipped() {
        let mut plan = ChaosPlan::scripted(
            1,
            vec![
                ChaosEvent::Crash {
                    at_ns: 0,
                    replica: ReplicaId(9),
                },
                ChaosEvent::PartitionForm {
                    at_ns: 0,
                    groups: vec![vec![ReplicaId(0), ReplicaId(7)], vec![ReplicaId(1)]],
                },
                ChaosEvent::Recover {
                    at_ns: 0,
                    replica: ReplicaId(9),
                },
            ],
        );
        plan.crash_windows = vec![CrashWindow {
            replica: ReplicaId(4),
            crash_at_seq: 0,
            recover_at_seq: 0,
        }];
        let mut state = ChaosState::new(&plan, 4).expect("non-empty plan");
        assert_eq!(state.advance(0), None, "the unknown recovery is gone");
        assert!(state.poll_windows(0, |_| 100).is_empty());
        assert_eq!(state.disruptions, 1, "only the partition applied");
        assert_eq!(state.fate(ReplicaId(0), ReplicaId(1), &vote()), Fate::Drop);
        assert_eq!(
            state.fate(ReplicaId(2), ReplicaId(3), &vote()),
            Fate::PROMPT
        );
    }

    #[test]
    fn link_chaos_class_filter_defaults_to_everything() {
        use flexitrust_types::SeqNum;
        let vote = Message::Prepare {
            view: flexitrust_types::View(0),
            seq: SeqNum(1),
            digest: flexitrust_types::Digest::ZERO,
            attestation: None,
        };
        let open = LinkChaos {
            drop_per_10k: 100,
            ..LinkChaos::default()
        };
        assert!(open.applies_to(&vote));
        let targeted = LinkChaos {
            drop_per_10k: 100,
            classes: BTreeSet::from([MessageClass::Checkpoint]),
            ..LinkChaos::default()
        };
        assert!(!targeted.applies_to(&vote));
        assert!(targeted.applies_to(&Message::CheckpointRequest {
            last_executed: SeqNum(3),
        }));
    }
}
