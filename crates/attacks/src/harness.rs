//! A small synchronous harness that drives a set of engines under an
//! adversarial delivery plan and records what each client would observe.
//!
//! The harness is the third host of the shared engine-hosting layer: like
//! the simulator and the threaded runtime it drives engines through
//! [`flexitrust_protocol::host::Dispatcher`], implementing only its environment
//! primitives — routing messages by the [`Fate`] the adversary's
//! [`ChaosPlan`] decides (the [`ChaosState::fate`] the simulator consults)
//! into per-replica queues and recording client-visible observations.

use flexitrust_protocol::host::{Dispatcher, EngineHost, TimerToken};
use flexitrust_protocol::{ClientReply, ConsensusEngine, SharedMessage, TimerKind};
use flexitrust_sim::{ChaosPlan, ChaosState, Fate};
use flexitrust_types::{ReplicaId, Transaction};
use std::sync::Arc;

/// Everything observed while driving the cluster.
#[derive(Debug, Default)]
pub struct Observations {
    /// Replies emitted towards clients, tagged with the sending replica.
    pub replies: Vec<ClientReply>,
    /// View-change messages observed on the wire (even if dropped).
    pub view_change_votes: usize,
}

/// The harness's [`EngineHost`]: the adversary's network. Sends are routed
/// through the fault plan into prompt or delayed queues (or dropped); the
/// synchronous harness has no clock, so a late message arrives after
/// everything else, duplicate copies are not replayed (the engines are
/// idempotent) and timers are never scheduled — the driver fires them
/// explicitly to model client complaints.
struct RecordingEnv {
    /// The bound fault plan; `None` for an empty plan.
    chaos: Option<ChaosState>,
    queues: Vec<Vec<(ReplicaId, SharedMessage)>>,
    delayed: Vec<Vec<(ReplicaId, SharedMessage)>>,
    obs: Observations,
}

impl RecordingEnv {
    fn route(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage) {
        let chaos = self.chaos.as_mut();
        match chaos.map_or(Fate::PROMPT, |c| c.fate(from, to, &msg)) {
            Fate::Deliver { extra_ns: 0, .. } => self.queues[to.as_usize()].push((from, msg)),
            Fate::Deliver { .. } => self.delayed[to.as_usize()].push((from, msg)),
            Fate::Drop => {}
        }
    }
}

impl EngineHost for RecordingEnv {
    fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage) {
        if msg.kind() == "ViewChange" {
            self.obs.view_change_votes += 1;
        }
        self.route(from, to, msg);
    }

    fn broadcast(&mut self, from: ReplicaId, replicas: usize, msg: SharedMessage) {
        // A broadcast counts as one vote on the wire regardless of fan-out,
        // which is why the harness overrides the default per-destination
        // expansion. Each queued copy shares the sender's allocation.
        if msg.kind() == "ViewChange" {
            self.obs.view_change_votes += 1;
        }
        for to in 0..replicas {
            self.route(from, ReplicaId(to as u32), Arc::clone(&msg));
        }
    }

    fn reply(&mut self, _from: ReplicaId, reply: ClientReply) {
        self.obs.replies.push(reply);
    }

    fn schedule_timer(
        &mut self,
        _replica: ReplicaId,
        _timer: TimerKind,
        _delay_us: u64,
        _token: TimerToken,
    ) {
        // No clock: the driver fires timers explicitly via `fire_timers`.
    }
}

/// Drives `engines` until quiescence, delivering messages according to
/// `plan` as it stands at t = 0 (delayed messages are treated as arriving
/// after everything else; dropped messages never arrive). Client requests
/// in `inject` are handed to the listed replica first; `fire_timers` lists
/// replicas whose view-change timer is fired once after the network
/// quiesces (modelling the client complaint / timeout path).
pub fn drive(
    engines: &mut [Box<dyn ConsensusEngine>],
    plan: &ChaosPlan,
    inject: Vec<(usize, Vec<Transaction>)>,
    fire_timers: &[usize],
    max_rounds: usize,
) -> Observations {
    let n = engines.len();
    let mut dispatcher = Dispatcher::new(n);
    let mut chaos = ChaosState::new(plan, n);
    if let Some(chaos) = chaos.as_mut() {
        // The harness has no clock: the plan's t = 0 events (whole-run
        // crashes, a standing partition) are all it ever applies.
        while chaos.advance(0).is_some() {}
    }
    let mut env = RecordingEnv {
        chaos,
        queues: vec![Vec::new(); n],
        delayed: vec![Vec::new(); n],
        obs: Observations::default(),
    };

    for (target, txns) in inject {
        dispatcher.client_request(&mut *engines[target], txns, &mut env);
    }

    let drain = |engines: &mut [Box<dyn ConsensusEngine>],
                 dispatcher: &mut Dispatcher,
                 env: &mut RecordingEnv| {
        for _ in 0..max_rounds {
            let mut any = false;
            for (i, engine) in engines.iter_mut().enumerate() {
                let id = ReplicaId(i as u32);
                if env.chaos.as_ref().is_some_and(|c| c.is_down(id)) {
                    env.queues[i].clear();
                    continue;
                }
                for (from, msg) in std::mem::take(&mut env.queues[i]) {
                    any = true;
                    dispatcher.deliver(&mut **engine, from, msg, env);
                }
            }
            if !any {
                break;
            }
        }
    };

    // Phase 1: prompt delivery of everything the adversary lets through.
    drain(engines, &mut dispatcher, &mut env);

    // Phase 2: the client complains / timers fire at the chosen replicas.
    for idx in fire_timers {
        dispatcher.fire_timer(&mut *engines[*idx], TimerKind::ViewChange, &mut env);
    }
    drain(engines, &mut dispatcher, &mut env);

    // Phase 3: partial synchrony — the delayed messages finally arrive.
    for i in 0..n {
        let delayed = std::mem::take(&mut env.delayed[i]);
        env.queues[i].extend(delayed);
    }
    drain(engines, &mut dispatcher, &mut env);

    env.obs
}
