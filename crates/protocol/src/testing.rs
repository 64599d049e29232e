//! A synchronous, loss-free "perfect network" for driving a cluster of
//! engines without a host: the one router the engine tests of every crate
//! and the root `view_change` test share.
//!
//! [`run_cluster_until_quiescent`] is the common case. [`TestNet`] is the
//! same loop opened up for tests about order and faults: a paused replica's
//! inbox fills without being delivered (a silent primary; a proposal held
//! back behind the votes for it), timers are fired by hand, and the net
//! remembers which timers each replica has armed.

use crate::actions::{Action, Outbox};
use crate::engine::{ConsensusEngine, TimerKind};
use crate::messages::Message;
use flexitrust_types::{ReplicaId, Transaction};
use std::ops::DerefMut;

/// The inboxes and timers of one test cluster. The engines are passed to
/// each call: `Vec<Box<dyn ConsensusEngine>>`, or `Vec<&mut FlexiBft>` when
/// the test inspects concrete state afterwards.
#[derive(Debug)]
pub struct TestNet {
    inboxes: Vec<Vec<(ReplicaId, Message)>>,
    paused: Vec<bool>,
    timers: Vec<Vec<TimerKind>>,
}

impl TestNet {
    /// A quiet network between `n` replicas.
    pub fn new(n: usize) -> Self {
        TestNet {
            inboxes: vec![Vec::new(); n],
            paused: vec![false; n],
            timers: vec![Vec::new(); n],
        }
    }

    /// Runs one engine entry point at `replica` and routes what it emits.
    fn step<E: DerefMut<Target: ConsensusEngine>>(
        &mut self,
        engines: &mut [E],
        replica: usize,
        event: impl FnOnce(&mut E::Target, &mut Outbox),
    ) {
        let mut out = Outbox::new();
        event(&mut engines[replica], &mut out);
        let from = engines[replica].id();
        for action in out.drain() {
            match action {
                Action::Send { to, msg } => {
                    if let Some(inbox) = self.inboxes.get_mut(to.as_usize()) {
                        inbox.push((from, msg));
                    }
                }
                Action::Broadcast { msg } => {
                    for inbox in &mut self.inboxes {
                        inbox.push((from, msg.clone()));
                    }
                }
                Action::SetTimer { timer, .. } if !self.timer_armed(replica, timer) => {
                    self.timers[replica].push(timer)
                }
                Action::CancelTimer { timer } => self.timers[replica].retain(|t| *t != timer),
                // Execution shows in the engines' own state; replies are not
                // in `drain()` at all.
                _ => {}
            }
        }
    }

    /// Hands client transactions to replica `target`.
    pub fn client_request<E: DerefMut<Target: ConsensusEngine>>(
        &mut self,
        engines: &mut [E],
        target: usize,
        txns: Vec<Transaction>,
    ) {
        self.step(engines, target, |e, out| e.on_client_request(txns, out));
    }

    /// Expires `timer` at `replica`, whether or not it was armed.
    pub fn fire<E: DerefMut<Target: ConsensusEngine>>(
        &mut self,
        engines: &mut [E],
        replica: usize,
        timer: TimerKind,
    ) {
        self.timers[replica].retain(|t| *t != timer);
        self.step(engines, replica, |e, out| e.on_timer(timer, out));
    }

    /// Delivers one message to replica `to` right now.
    pub fn deliver<E: DerefMut<Target: ConsensusEngine>>(
        &mut self,
        engines: &mut [E],
        to: usize,
        from: ReplicaId,
        msg: Message,
    ) {
        self.step(engines, to, |e, out| e.on_message(from, msg, out));
    }

    /// Delivers queued messages, round after round, until no unpaused
    /// replica has any left (or `max_rounds` passed). Returns the number of
    /// messages delivered.
    pub fn run<E: DerefMut<Target: ConsensusEngine>>(
        &mut self,
        engines: &mut [E],
        max_rounds: usize,
    ) -> usize {
        let mut delivered = 0;
        for _ in 0..max_rounds {
            let before = delivered;
            for to in 0..engines.len() {
                if self.paused[to] {
                    continue;
                }
                for (from, msg) in self.take_inbox(to) {
                    delivered += 1;
                    self.deliver(engines, to, from, msg);
                }
            }
            if delivered == before {
                break;
            }
        }
        delivered
    }

    /// Stops delivering to `replica`: what is sent to it queues up until
    /// [`Self::take_inbox`] collects it.
    pub fn pause(&mut self, replica: usize) {
        self.paused[replica] = true;
    }

    /// Empties `replica`'s inbox into the caller's hands, to drop it or to
    /// [`Self::deliver`] it in an order of the test's choosing.
    pub fn take_inbox(&mut self, replica: usize) -> Vec<(ReplicaId, Message)> {
        std::mem::take(&mut self.inboxes[replica])
    }

    /// Whether `replica` set `timer` and has neither cancelled it nor seen
    /// it fire since.
    pub fn timer_armed(&self, replica: usize, timer: TimerKind) -> bool {
        self.timers[replica].contains(&timer)
    }
}

/// Drives a cluster to completion: hands each `(replica, transactions)` of
/// `inject` to its replica, then delivers every message until quiescence.
/// Returns the number of messages delivered.
pub fn run_cluster_until_quiescent<E: DerefMut<Target: ConsensusEngine>>(
    engines: &mut [E],
    inject: Vec<(usize, Vec<Transaction>)>,
    max_rounds: usize,
) -> usize {
    let mut net = TestNet::new(engines.len());
    for (target, txns) in inject {
        net.client_request(engines, target, txns);
    }
    net.run(engines, max_rounds)
}
