//! The engine-hosting layer every driver of engines shares.
//!
//! Four places drive [`ConsensusEngine`]s: the discrete-event simulator
//! (`flexitrust-sim`), the threaded runtime's two networks
//! (`flexitrust-runtime`) and this crate's own
//! [`TestNet`](crate::testing::TestNet), which the engine tests and the
//! attack scenarios (`flexitrust-attacks`) share. All of them go through
//! this module:
//!
//! * [`EngineHost`] is the environment contract — the handful of primitives
//!   an environment must supply (deliver a message, deliver a reply, schedule
//!   a timer) plus one optional hook, [`EngineHost::begin_batch`], that shows
//!   an invocation's actions before any of them is performed (the simulator
//!   prices them there).
//! * [`Dispatcher`] owns the **single** `Action` dispatch site in the
//!   workspace: it drains an engine's [`Outbox`], performs timer-token
//!   bookkeeping (so stale timer expirations are ignored uniformly across
//!   hosts), and hands each action to the environment in one pass, in
//!   emission order — except client replies, which leave in one
//!   [`EngineHost::replies`] call per dispatch.
//!
//! Environments implement only what is genuinely environment-specific:
//! scheduling an event (simulator), sending on a channel or a socket
//! (runtime) or queueing into an inbox (tests and attack scenarios).
//!
//! Two more things every host needs exist once, here: [`build_cluster`],
//! the configuration → engines factory, and [`CrashWindow`] / [`WindowPhase`],
//! the commit-progress-triggered crash-recovery state machine.

mod window;

pub use window::{CrashWindow, WindowEvent, WindowPhase};

use crate::family::PbftFamilyEngine;
use crate::{unshare, Action, ClientReply, ConsensusEngine, Outbox, SharedMessage, TimerKind};
use flexitrust_trusted::{
    AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry, SharedEnclave, TrustedHardware,
};
use flexitrust_types::{ClientId, ReplicaId, RequestId, SeqNum, SystemConfig, Transaction};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One replica as every host starts it: its engine and (when the protocol
/// uses one) its trusted component, which the simulator observes to charge
/// access latency.
pub struct ReplicaSetup {
    /// The protocol engine.
    pub engine: Box<dyn ConsensusEngine>,
    /// The replica's trusted component, if the protocol uses one.
    pub enclave: Option<SharedEnclave>,
}

/// Builds every replica of a `config.protocol` cluster, in replica order:
/// the one engine with the protocol's row, and the enclave the row's
/// primary attestation needs. The engines share `config` and one registry's
/// key table by reference count. The enclaves attest in `mode` — counting
/// for the simulator (which charges signing *cost* through its cost model
/// instead), real Ed25519 for the threaded hosts — on the given `hardware`.
pub fn build_cluster(
    config: &Arc<SystemConfig>,
    mode: AttestationMode,
    hardware: TrustedHardware,
) -> Vec<ReplicaSetup> {
    let style = config.protocol.style();
    let registry = EnclaveRegistry::deterministic(config.n, mode);
    let build = |id| {
        let enclave = EnclaveConfig::for_style(&style, id, mode)
            .map(|enclave| Enclave::shared(enclave.with_hardware(hardware)));
        let registry = Some(registry.clone());
        let engine =
            PbftFamilyEngine::new(Arc::clone(config), id, style, enclave.clone(), registry);
        ReplicaSetup {
            engine: Box::new(engine),
            enclave,
        }
    };
    config.replicas().map(build).collect()
}

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
/// [`schedule_timer`](EngineHost::schedule_timer) are required; the other
/// hooks default to no-ops (or, for the fan-outs, to those three), so that
/// environments without a cost model (the threaded runtime, the test net)
/// implement nothing extra.
pub trait EngineHost {
    /// Deliver `msg` from `from` to `to` over this environment's network.
    /// The message arrives as a shared handle: environments queue or route
    /// the handle itself; payload bytes are never copied on the way out.
    fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage);

    /// Deliver `msg` from `from` to every replica (the sender included, so
    /// engines handle their own votes uniformly). The default fans out to
    /// [`send`](EngineHost::send), one reference-count bump per
    /// destination; environments override it when a broadcast is encoded
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

    /// Called once per dispatch, before any action is performed, with the
    /// actions one engine invocation at `from` emitted (the replies the
    /// engine's [`Outbox`] holds apart are not among them). The simulator
    /// prices the invocation here and fixes its departure time; other
    /// environments ignore it.
    fn begin_batch(&mut self, _from: ReplicaId, _actions: &[Action]) {}
}

/// Translates engine [`Action`]s into [`EngineHost`] primitives and owns the
/// timer-token bookkeeping shared by every host.
///
/// One `Dispatcher` serves a whole cluster in single-threaded hosts (the
/// simulator, the test net); the threaded runtime creates one per
/// replica thread, each tracking only that replica's timers.
#[derive(Debug)]
pub struct Dispatcher {
    replicas: usize,
    armed: BTreeMap<(ReplicaId, TimerKind), u64>,
    next_token: u64,
}

impl Dispatcher {
    /// Creates a dispatcher for a cluster of `replicas` replicas.
    pub fn new(replicas: usize) -> Self {
        Dispatcher {
            replicas,
            armed: BTreeMap::new(),
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
        engine: &mut (impl ConsensusEngine + ?Sized),
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
    /// skeleton clone ([`unshare`]).
    pub fn deliver<E: EngineHost>(
        &mut self,
        engine: &mut (impl ConsensusEngine + ?Sized),
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
        engine: &mut (impl ConsensusEngine + ?Sized),
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

    /// Forces a timer expiry regardless of arming state (the test net fires
    /// timers by hand; the §5 attack models the client-complaint path by
    /// firing view-change timers directly).
    pub fn fire_timer<E: EngineHost>(
        &mut self,
        engine: &mut (impl ConsensusEngine + ?Sized),
        timer: TimerKind,
        env: &mut E,
    ) {
        let replica = engine.id();
        self.armed.remove(&(replica, timer));
        let mut out = Outbox::new();
        engine.on_timer(timer, &mut out);
        self.dispatch_outbox(replica, out, env);
    }

    /// Brings a recovered replica back: `engine` asks every peer for the
    /// latest stable checkpoint past its frontier, through `env` like any
    /// engine output (it asks by itself when one turns stable past it).
    pub fn rejoin<E: EngineHost>(&mut self, engine: &(impl ConsensusEngine + ?Sized), env: &mut E) {
        let mut out = Outbox::new();
        engine.replica().request_checkpoint(&mut out);
        self.dispatch_outbox(engine.id(), out, env);
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

    /// This is the single `Action` dispatch site in the workspace.
    /// `env.begin_batch` sees the invocation's actions first; one pass then
    /// performs them in emission order, and the replies — the outbox's
    /// list, then any explicit `Action::Reply` — leave last, in one
    /// hand-off.
    fn emit<E: EngineHost>(
        &mut self,
        from: ReplicaId,
        actions: Vec<Action>,
        mut replies: Vec<ClientReply>,
        env: &mut E,
    ) {
        env.begin_batch(from, &actions);
        for action in actions {
            match action {
                // The single point where an outbound message becomes a
                // shared payload: everything downstream holds this one
                // allocation.
                Action::Send { to, msg } => env.send(from, to, Arc::new(msg)),
                Action::Broadcast { msg } => env.broadcast(from, self.replicas, Arc::new(msg)),
                Action::Reply { reply } => replies.push(reply),
                Action::SetTimer { timer, delay_us } => {
                    self.next_token += 1;
                    let token = TimerToken(self.next_token);
                    self.armed.insert((from, timer), token.0);
                    env.schedule_timer(from, timer, delay_us, token);
                }
                Action::CancelTimer { timer } => {
                    self.armed.remove(&(from, timer));
                    env.timer_cancelled(from, timer);
                }
                Action::Executed { seq, txns } => env.executed(from, seq, txns),
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
    use crate::Message;
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
        /// One entry per `begin_batch` call: how many sends had been made
        /// when it came, and how many actions it was shown.
        batches: Vec<(usize, usize)>,
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

        fn begin_batch(&mut self, _from: ReplicaId, actions: &[Action]) {
            self.batches.push((self.sends.len(), actions.len()));
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
    struct ReplyingEngine(crate::ReplicaCore);

    impl ConsensusEngine for ReplyingEngine {
        fn replica(&self) -> &crate::ReplicaCore {
            &self.0
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
        ReplyingEngine(crate::ReplicaCore::new(config, ReplicaId(1)))
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
    fn dispatch_shows_the_actions_first_then_fans_out() {
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
        // All three actions were shown before any was performed.
        assert_eq!(env.batches, vec![(0, 3)]);
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

        struct NoTimerEngine(crate::ReplicaCore, u32);
        impl ConsensusEngine for NoTimerEngine {
            fn replica(&self) -> &crate::ReplicaCore {
                &self.0
            }
            fn on_client_request(&mut self, _txns: Vec<Transaction>, _out: &mut Outbox) {}
            fn on_message(&mut self, _from: ReplicaId, _msg: Message, _out: &mut Outbox) {}
            fn on_timer(&mut self, _timer: TimerKind, _out: &mut Outbox) {
                self.1 += 1;
            }
        }
        let config =
            flexitrust_types::SystemConfig::for_protocol(flexitrust_types::ProtocolId::Pbft, 1);
        let mut engine = NoTimerEngine(crate::ReplicaCore::new(config, ReplicaId(1)), 0);
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
