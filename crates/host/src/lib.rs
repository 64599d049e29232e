//! The shared engine-hosting layer.
//!
//! Three environments drive [`ConsensusEngine`]s in this workspace: the
//! discrete-event simulator (`flexitrust-sim`), the threaded runtime
//! (`flexitrust-runtime`) and the adversarial attack harness
//! (`flexitrust-attacks`). Historically each re-implemented the
//! [`Action`]-to-effect translation by hand, which meant every new action
//! kind, timer rule or accounting hook had to be patched in three places.
//!
//! This crate centralises that translation:
//!
//! * [`EngineHost`] is the environment contract — the handful of primitives
//!   an environment must supply (deliver a message, deliver a reply, schedule
//!   a timer) plus optional accounting hooks (per-action CPU cost, batch
//!   start) that only the simulator implements.
//! * [`Dispatcher`] owns the **single** `Action` dispatch site in the
//!   workspace: it drains an engine's [`Outbox`], performs timer-token
//!   bookkeeping (so stale timer expirations are ignored uniformly across
//!   hosts), totals the CPU cost of the emitted actions, and hands each
//!   effect to the environment in emission order — except client replies,
//!   which leave in one [`EngineHost::replies`] call per dispatch.
//!
//! Environments implement only what is genuinely environment-specific:
//! scheduling an event (simulator), sending on a channel (runtime), or
//! recording into an observation log (attack harness).
//!
//! Two more things every host needs exist once, here: [`build_replica`],
//! the `ProtocolId` → engine factory, and [`CrashWindow`] / [`WindowPhase`],
//! the commit-progress-triggered crash-recovery state machine.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod factory;
mod window;

pub use factory::{build_replica, ReplicaSetup};
pub use window::{recovery_request, CrashWindow, WindowEvent, WindowPhase};

use flexitrust_protocol::{
    unshare, Action, ClientReply, ConsensusEngine, Message, Outbox, SharedMessage, TimerKind,
};
use flexitrust_types::{ClientId, ReplicaId, RequestId, SeqNum, Transaction};
use std::collections::HashMap;
use std::sync::Arc;

/// One committed transaction, as observed by its issuing client: the
/// consensus slot it executed at and its identity.
///
/// Both the simulator and the threaded runtime report their commit sequence
/// in this form, so cross-host tests can assert that the same workload
/// commits identically regardless of which environment hosts the engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CommittedTxn {
    /// The sequence number the transaction executed at.
    pub seq: SeqNum,
    /// The issuing client.
    pub client: ClientId,
    /// The client's request id.
    pub request: RequestId,
}

/// An opaque handle identifying one arming of a timer.
///
/// Every `SetTimer` action is tagged with a fresh token; when the
/// environment's clock fires, it hands the token back to
/// [`Dispatcher::timer_expired`], which only forwards the expiry to the
/// engine if that token is still the most recent arming (re-arming or
/// cancelling invalidates older tokens).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(u64);

impl TimerToken {
    /// The raw token value (for compact storage in host event structures).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// The primitives an engine-hosting environment supplies.
///
/// Only [`send`](EngineHost::send), [`reply`](EngineHost::reply) and
/// [`schedule_timer`](EngineHost::schedule_timer) are required; the
/// accounting hooks default to no-ops so that environments without a cost
/// model (the threaded runtime, the attack harness) implement nothing extra.
pub trait EngineHost {
    /// Deliver `msg` from `from` to `to` over this environment's network.
    /// The message arrives as a shared handle: environments queue or route
    /// the handle itself; payload bytes are never copied on the way out.
    fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage);

    /// Deliver `msg` from `from` to every replica (the sender included, so
    /// engines handle their own votes uniformly). The default fans out to
    /// [`send`](EngineHost::send), one reference-count bump per
    /// destination; environments override it when a broadcast is observed
    /// as one event (e.g. vote counting in the attack harness) or encoded
    /// once for all destinations (the TCP transport).
    fn broadcast(&mut self, from: ReplicaId, replicas: usize, msg: SharedMessage) {
        for to in 0..replicas {
            self.send(from, ReplicaId(to as u32), Arc::clone(&msg));
        }
    }

    /// Deliver a client reply emitted by `from`.
    fn reply(&mut self, from: ReplicaId, reply: ClientReply);

    /// Deliver every client reply one engine invocation at `from` emitted,
    /// in emission order. The [`Dispatcher`] calls this at most once per
    /// dispatch, after the invocation's other effects, and never with an
    /// empty list. The default hands each reply to
    /// [`reply`](EngineHost::reply); environments that pass replies on in
    /// bulk (a transport's reply queue, the simulator's client model)
    /// override it and take the list as it is.
    fn replies(&mut self, from: ReplicaId, replies: Vec<ClientReply>) {
        for reply in replies {
            self.reply(from, reply);
        }
    }

    /// Arm `timer` for `replica` to fire after `delay_us` microseconds on
    /// this environment's clock, tagged with `token` for later validation
    /// through [`Dispatcher::timer_expired`].
    fn schedule_timer(
        &mut self,
        replica: ReplicaId,
        timer: TimerKind,
        delay_us: u64,
        token: TimerToken,
    );

    /// A pending `timer` of `replica` was cancelled. Environments that keep
    /// their own deadline queues may drop the entry; token validation makes
    /// this purely an optimisation.
    fn timer_cancelled(&mut self, _replica: ReplicaId, _timer: TimerKind) {}

    /// The batch at `seq` (containing `txns` transactions) was executed at
    /// `replica`. Metrics only.
    fn executed(&mut self, _replica: ReplicaId, _seq: SeqNum, _txns: usize) {}

    /// CPU cost (ns) of preparing and sending `msg` to `destinations`
    /// replicas; summed over a dispatch batch and reported to
    /// [`begin_batch`](EngineHost::begin_batch).
    fn send_cost_ns(&self, _msg: &Message, _destinations: usize) -> u64 {
        0
    }

    /// CPU cost (ns) of executing `txns` transactions.
    fn execution_cost_ns(&self, _txns: usize) -> u64 {
        0
    }

    /// Called once per dispatch batch, before any effect is emitted, with
    /// the summed CPU cost of the batch's actions. The simulator computes
    /// the invocation's departure time here; other environments ignore it.
    fn begin_batch(&mut self, _from: ReplicaId, _actions_cost_ns: u64) {}
}

/// Host-internal intermediate form of one action: the single `Action` match
/// below converts into this so effects can be emitted *after* the batch cost
/// is known, while preserving the engine's emission order. Replies are not
/// effects: they travel as one list and leave last.
enum Effect {
    Send { to: ReplicaId, msg: SharedMessage },
    Broadcast { msg: SharedMessage },
    SetTimer { timer: TimerKind, delay_us: u64 },
    CancelTimer { timer: TimerKind },
    Executed { seq: SeqNum, txns: usize },
}

/// Translates engine [`Action`]s into [`EngineHost`] primitives and owns the
/// timer-token bookkeeping shared by every host.
///
/// One `Dispatcher` serves a whole cluster in single-threaded hosts (the
/// simulator, the attack harness); the threaded runtime creates one per
/// replica thread, each tracking only that replica's timers.
#[derive(Debug)]
pub struct Dispatcher {
    replicas: usize,
    armed: HashMap<(ReplicaId, TimerKind), u64>,
    next_token: u64,
}

impl Dispatcher {
    /// Creates a dispatcher for a cluster of `replicas` replicas.
    pub fn new(replicas: usize) -> Self {
        Dispatcher {
            replicas,
            armed: HashMap::new(),
            next_token: 0,
        }
    }

    /// Number of replicas broadcasts fan out to.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Returns `true` when `timer` is currently armed for `replica`.
    pub fn timer_armed(&self, replica: ReplicaId, timer: TimerKind) -> bool {
        self.armed.contains_key(&(replica, timer))
    }

    /// Drives `engine` with arriving client transactions and dispatches the
    /// resulting actions into `env`.
    pub fn client_request<E: EngineHost>(
        &mut self,
        engine: &mut dyn ConsensusEngine,
        txns: Vec<Transaction>,
        env: &mut E,
    ) {
        let from = engine.id();
        let mut out = Outbox::new();
        engine.on_client_request(txns, &mut out);
        self.dispatch_outbox(from, out, env);
    }

    /// Delivers a peer message to `engine` and dispatches the resulting
    /// actions into `env`.
    ///
    /// The shared handle is unwrapped at this boundary: the last holder
    /// moves the message out for free, earlier holders pay only a shallow
    /// skeleton clone ([`flexitrust_protocol::unshare`]).
    pub fn deliver<E: EngineHost>(
        &mut self,
        engine: &mut dyn ConsensusEngine,
        from: ReplicaId,
        msg: SharedMessage,
        env: &mut E,
    ) {
        let replica = engine.id();
        let mut out = Outbox::new();
        engine.on_message(from, unshare(msg), &mut out);
        self.dispatch_outbox(replica, out, env);
    }

    /// Handles a timer expiry: if `token` is still the current arming of
    /// `timer` at the engine's replica, disarms it, forwards the expiry to
    /// the engine and dispatches the resulting actions, returning `true`.
    /// Stale tokens (the timer was re-armed or cancelled since) return
    /// `false` without touching the engine.
    pub fn timer_expired<E: EngineHost>(
        &mut self,
        engine: &mut dyn ConsensusEngine,
        timer: TimerKind,
        token: TimerToken,
        env: &mut E,
    ) -> bool {
        let replica = engine.id();
        if self.armed.get(&(replica, timer)) != Some(&token.0) {
            return false;
        }
        self.armed.remove(&(replica, timer));
        self.fire_timer(engine, timer, env);
        true
    }

    /// Forces a timer expiry regardless of arming state (the attack harness
    /// models the client-complaint path by firing view-change timers
    /// directly).
    pub fn fire_timer<E: EngineHost>(
        &mut self,
        engine: &mut dyn ConsensusEngine,
        timer: TimerKind,
        env: &mut E,
    ) {
        let replica = engine.id();
        self.armed.remove(&(replica, timer));
        let mut out = Outbox::new();
        engine.on_timer(timer, &mut out);
        self.dispatch_outbox(replica, out, env);
    }

    /// Translates `actions` emitted by `from` into environment primitives;
    /// `Action::Reply` entries leave in one [`EngineHost::replies`] call.
    pub fn dispatch<E: EngineHost>(&mut self, from: ReplicaId, actions: Vec<Action>, env: &mut E) {
        self.emit(from, actions, Vec::new(), env);
    }

    fn dispatch_outbox<E: EngineHost>(&mut self, from: ReplicaId, out: Outbox, env: &mut E) {
        let (actions, replies) = out.into_parts();
        self.emit(from, actions, replies, env);
    }

    /// This is the single `Action` dispatch site in the workspace. The match
    /// runs once per action, accumulating the batch's CPU cost and an
    /// order-preserving effect list; `env.begin_batch` then fixes the batch's
    /// departure point before the effects are emitted, and the replies —
    /// the outbox's list, then any explicit `Action::Reply` — leave last,
    /// in one hand-off.
    fn emit<E: EngineHost>(
        &mut self,
        from: ReplicaId,
        actions: Vec<Action>,
        mut replies: Vec<ClientReply>,
        env: &mut E,
    ) {
        let replicas = self.replicas;
        let mut cost_ns = 0u64;
        let mut effects = Vec::with_capacity(actions.len());
        for action in actions {
            effects.push(match action {
                Action::Send { to, msg } => {
                    cost_ns += env.send_cost_ns(&msg, 1);
                    // The single point where an outbound message becomes a
                    // shared payload: everything downstream holds this one
                    // allocation.
                    Effect::Send {
                        to,
                        msg: Arc::new(msg),
                    }
                }
                Action::Broadcast { msg } => {
                    cost_ns += env.send_cost_ns(&msg, replicas.saturating_sub(1));
                    Effect::Broadcast { msg: Arc::new(msg) }
                }
                Action::Reply { reply } => {
                    replies.push(reply);
                    continue;
                }
                Action::SetTimer { timer, delay_us } => Effect::SetTimer { timer, delay_us },
                Action::CancelTimer { timer } => Effect::CancelTimer { timer },
                Action::Executed { seq, txns } => {
                    cost_ns += env.execution_cost_ns(txns);
                    Effect::Executed { seq, txns }
                }
            });
        }
        env.begin_batch(from, cost_ns);
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => env.send(from, to, msg),
                Effect::Broadcast { msg } => env.broadcast(from, replicas, msg),
                Effect::SetTimer { timer, delay_us } => {
                    self.next_token += 1;
                    let token = TimerToken(self.next_token);
                    self.armed.insert((from, timer), token.0);
                    env.schedule_timer(from, timer, delay_us, token);
                }
                Effect::CancelTimer { timer } => {
                    self.armed.remove(&(from, timer));
                    env.timer_cancelled(from, timer);
                }
                Effect::Executed { seq, txns } => env.executed(from, seq, txns),
            }
        }
        if !replies.is_empty() {
            env.replies(from, replies);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::{Digest, View};

    #[derive(Default)]
    struct RecordingEnv {
        sends: Vec<(ReplicaId, ReplicaId, String)>,
        /// One entry per `replies` call: how many sends had been made when
        /// it came, and the request ids it carried.
        reply_calls: Vec<(usize, Vec<u64>)>,
        scheduled: Vec<(ReplicaId, TimerKind, u64, TimerToken)>,
        cancelled: Vec<TimerKind>,
        executed: Vec<(SeqNum, usize)>,
        batches: Vec<u64>,
    }

    impl EngineHost for RecordingEnv {
        fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage) {
            self.sends.push((from, to, msg.kind().to_string()));
        }

        fn reply(&mut self, _from: ReplicaId, _reply: ClientReply) {
            unreachable!("the dispatcher hands replies over through `replies`");
        }

        fn replies(&mut self, _from: ReplicaId, replies: Vec<ClientReply>) {
            let requests = replies.iter().map(|r| r.request.0).collect();
            self.reply_calls.push((self.sends.len(), requests));
        }

        fn schedule_timer(
            &mut self,
            replica: ReplicaId,
            timer: TimerKind,
            delay_us: u64,
            token: TimerToken,
        ) {
            self.scheduled.push((replica, timer, delay_us, token));
        }

        fn timer_cancelled(&mut self, _replica: ReplicaId, timer: TimerKind) {
            self.cancelled.push(timer);
        }

        fn executed(&mut self, _replica: ReplicaId, seq: SeqNum, txns: usize) {
            self.executed.push((seq, txns));
        }

        fn send_cost_ns(&self, _msg: &Message, destinations: usize) -> u64 {
            100 * destinations as u64
        }

        fn execution_cost_ns(&self, txns: usize) -> u64 {
            10 * txns as u64
        }

        fn begin_batch(&mut self, _from: ReplicaId, cost: u64) {
            self.batches.push(cost);
        }
    }

    /// A host written before `replies` existed, like the benchmark's trace
    /// and layer hosts: it implements `reply` and nothing else.
    #[derive(Default)]
    struct ReplyOnlyEnv {
        replies: Vec<u64>,
    }

    impl EngineHost for ReplyOnlyEnv {
        fn send(&mut self, _from: ReplicaId, _to: ReplicaId, _msg: SharedMessage) {}

        fn reply(&mut self, _from: ReplicaId, reply: ClientReply) {
            self.replies.push(reply.request.0);
        }

        fn schedule_timer(&mut self, _: ReplicaId, _: TimerKind, _: u64, _: TimerToken) {}
    }

    fn msg() -> Message {
        Message::Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            attestation: None,
        }
    }

    fn reply(request: u64) -> ClientReply {
        ClientReply {
            client: ClientId(7),
            request: RequestId(request),
            seq: SeqNum(1),
            view: View(0),
            replica: ReplicaId(1),
            result: flexitrust_types::KvResult::Written,
            speculative: false,
        }
    }

    /// Answers every message with three replies around a broadcast, the
    /// shape of a committing delivery that also votes.
    struct ReplyingEngine(flexitrust_protocol::ReplicaCore);

    impl ConsensusEngine for ReplyingEngine {
        fn replica(&self) -> &flexitrust_protocol::ReplicaCore {
            &self.0
        }
        fn properties(&self) -> flexitrust_protocol::ProtocolProperties {
            flexitrust_protocol::ProtocolProperties::for_protocol(
                flexitrust_types::ProtocolId::Pbft,
            )
        }
        fn on_client_request(&mut self, _txns: Vec<Transaction>, _out: &mut Outbox) {}
        fn on_message(&mut self, _from: ReplicaId, _msg: Message, out: &mut Outbox) {
            out.reply(reply(1));
            out.broadcast(msg());
            out.reply(reply(2));
            out.reply(reply(3));
        }
        fn on_timer(&mut self, _timer: TimerKind, _out: &mut Outbox) {}
    }

    fn replying_engine() -> ReplyingEngine {
        let config =
            flexitrust_types::SystemConfig::for_protocol(flexitrust_types::ProtocolId::Pbft, 1);
        ReplyingEngine(flexitrust_protocol::ReplicaCore::new(config, ReplicaId(1)))
    }

    #[test]
    fn a_delivery_hands_its_replies_over_in_one_call_after_its_sends() {
        let mut dispatcher = Dispatcher::new(4);
        let mut env = RecordingEnv::default();
        let mut engine = replying_engine();
        dispatcher.deliver(&mut engine, ReplicaId(0), Arc::new(msg()), &mut env);
        // One call, emission order, after all four copies of the broadcast.
        assert_eq!(env.reply_calls, vec![(4, vec![1, 2, 3])]);
        // A dispatch without replies makes no call at all.
        dispatcher.dispatch(
            ReplicaId(1),
            vec![Action::Broadcast { msg: msg() }],
            &mut env,
        );
        assert_eq!(env.reply_calls.len(), 1);
    }

    #[test]
    fn explicit_reply_actions_join_the_one_replies_call() {
        let mut dispatcher = Dispatcher::new(4);
        let mut env = RecordingEnv::default();
        let actions = vec![
            Action::Reply { reply: reply(1) },
            Action::Broadcast { msg: msg() },
            Action::Reply { reply: reply(2) },
            Action::Executed {
                seq: SeqNum(1),
                txns: 2,
            },
            Action::Reply { reply: reply(3) },
        ];
        dispatcher.dispatch(ReplicaId(1), actions, &mut env);
        assert_eq!(env.reply_calls, vec![(4, vec![1, 2, 3])]);
        assert_eq!(env.executed, vec![(SeqNum(1), 2)]);
    }

    #[test]
    fn a_host_with_only_reply_still_gets_each_reply_once() {
        let mut dispatcher = Dispatcher::new(4);
        let mut env = ReplyOnlyEnv::default();
        let mut engine = replying_engine();
        dispatcher.deliver(&mut engine, ReplicaId(0), Arc::new(msg()), &mut env);
        dispatcher.dispatch(
            ReplicaId(1),
            vec![Action::Reply { reply: reply(4) }],
            &mut env,
        );
        assert_eq!(env.replies, vec![1, 2, 3, 4]);
    }

    #[test]
    fn dispatch_fans_out_and_totals_costs() {
        let mut dispatcher = Dispatcher::new(4);
        let mut env = RecordingEnv::default();
        let actions = vec![
            Action::Broadcast { msg: msg() },
            Action::Send {
                to: ReplicaId(2),
                msg: msg(),
            },
            Action::Executed {
                seq: SeqNum(1),
                txns: 5,
            },
        ];
        dispatcher.dispatch(ReplicaId(0), actions, &mut env);
        // Broadcast reaches all four replicas (sender included) plus the
        // unicast.
        assert_eq!(env.sends.len(), 5);
        assert_eq!(env.sends[4], (ReplicaId(0), ReplicaId(2), "Prepare".into()));
        // Cost: broadcast to n-1 destinations (300) + unicast (100) + 5 txns
        // executed (50), reported before any effect.
        assert_eq!(env.batches, vec![450]);
        assert_eq!(env.executed, vec![(SeqNum(1), 5)]);
    }

    #[test]
    fn timer_tokens_invalidate_stale_expirations() {
        let mut dispatcher = Dispatcher::new(4);
        let mut env = RecordingEnv::default();
        dispatcher.dispatch(
            ReplicaId(1),
            vec![Action::SetTimer {
                timer: TimerKind::ViewChange,
                delay_us: 500,
            }],
            &mut env,
        );
        let first = env.scheduled[0].3;
        assert!(dispatcher.timer_armed(ReplicaId(1), TimerKind::ViewChange));

        // Re-arm: the first token becomes stale.
        dispatcher.dispatch(
            ReplicaId(1),
            vec![Action::SetTimer {
                timer: TimerKind::ViewChange,
                delay_us: 900,
            }],
            &mut env,
        );
        let second = env.scheduled[1].3;
        assert_ne!(first, second);

        struct NoTimerEngine(flexitrust_protocol::ReplicaCore, u32);
        impl ConsensusEngine for NoTimerEngine {
            fn replica(&self) -> &flexitrust_protocol::ReplicaCore {
                &self.0
            }
            fn properties(&self) -> flexitrust_protocol::ProtocolProperties {
                flexitrust_protocol::ProtocolProperties::for_protocol(
                    flexitrust_types::ProtocolId::Pbft,
                )
            }
            fn on_client_request(&mut self, _txns: Vec<Transaction>, _out: &mut Outbox) {}
            fn on_message(&mut self, _from: ReplicaId, _msg: Message, _out: &mut Outbox) {}
            fn on_timer(&mut self, _timer: TimerKind, _out: &mut Outbox) {
                self.1 += 1;
            }
        }
        let config =
            flexitrust_types::SystemConfig::for_protocol(flexitrust_types::ProtocolId::Pbft, 1);
        let mut engine = NoTimerEngine(
            flexitrust_protocol::ReplicaCore::new(config, ReplicaId(1)),
            0,
        );
        assert!(!dispatcher.timer_expired(&mut engine, TimerKind::ViewChange, first, &mut env));
        assert_eq!(engine.1, 0, "stale token must not reach the engine");
        assert!(dispatcher.timer_expired(&mut engine, TimerKind::ViewChange, second, &mut env));
        assert_eq!(engine.1, 1);
        assert!(!dispatcher.timer_armed(ReplicaId(1), TimerKind::ViewChange));
    }

    #[test]
    fn cancel_removes_arming_and_notifies_env() {
        let mut dispatcher = Dispatcher::new(3);
        let mut env = RecordingEnv::default();
        dispatcher.dispatch(
            ReplicaId(0),
            vec![
                Action::SetTimer {
                    timer: TimerKind::BatchFlush,
                    delay_us: 100,
                },
                Action::CancelTimer {
                    timer: TimerKind::BatchFlush,
                },
            ],
            &mut env,
        );
        assert!(!dispatcher.timer_armed(ReplicaId(0), TimerKind::BatchFlush));
        assert_eq!(env.cancelled, vec![TimerKind::BatchFlush]);
    }
}
