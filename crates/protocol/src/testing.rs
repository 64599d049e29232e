//! A synchronous, loss-free "perfect network" for driving a cluster of
//! engines without a clock: the one router the engine tests of every crate
//! and the root `protocols` and `view_change` tests share, and the cluster
//! they build through [`build_replica`].
//!
//! [`run_cluster_until_quiescent`] is the common case. [`TestNet`] is the
//! same loop opened up for tests about order and faults: a paused replica's
//! inbox fills without being delivered (a silent primary; a proposal held
//! back behind the votes for it), timers are fired by hand, and the net
//! remembers which timers each replica has armed. It is an [`EngineHost`]
//! like every other host: the one [`Dispatcher`] routes what the engines
//! emit.

use crate::engine::{ConsensusEngine, TimerKind};
use crate::host::{build_replica, Dispatcher, EngineHost, TimerToken};
use crate::messages::{unshare, ClientReply, Message, SharedMessage};
use flexitrust_trusted::{AttestationMode, EnclaveRegistry, SharedEnclave, TrustedHardware};
use flexitrust_types::{
    ClientId, KvOp, ProtocolId, ReplicaId, RequestId, SystemConfig, Transaction,
};
use std::ops::{DerefMut, Range};
use std::sync::Arc;

/// The inboxes of one test cluster. The engines are passed to each call:
/// `Vec<Box<dyn ConsensusEngine>>`, or `Vec<&mut PbftFamilyEngine>` when
/// the test inspects concrete state afterwards.
#[derive(Debug)]
pub struct TestNet {
    dispatcher: Dispatcher,
    inboxes: Inboxes,
    paused: Vec<bool>,
}

/// What the dispatcher hands this host: messages queue in the inbox of the
/// replica they are for; timers wait to be fired by hand, and execution and
/// replies show in the engines' own state.
#[derive(Debug)]
struct Inboxes(Vec<Vec<(ReplicaId, SharedMessage)>>);

impl EngineHost for Inboxes {
    fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage) {
        if let Some(inbox) = self.0.get_mut(to.as_usize()) {
            inbox.push((from, msg));
        }
    }

    fn reply(&mut self, _from: ReplicaId, _reply: ClientReply) {}

    fn schedule_timer(&mut self, _: ReplicaId, _: TimerKind, _: u64, _: TimerToken) {}
}

impl TestNet {
    /// A quiet network between `n` replicas.
    pub fn new(n: usize) -> Self {
        TestNet {
            dispatcher: Dispatcher::new(n),
            inboxes: Inboxes(vec![Vec::new(); n]),
            paused: vec![false; n],
        }
    }

    /// Hands client transactions to replica `target`.
    pub fn client_request<E: DerefMut<Target: ConsensusEngine>>(
        &mut self,
        engines: &mut [E],
        target: usize,
        txns: Vec<Transaction>,
    ) {
        let engine = &mut *engines[target];
        self.dispatcher
            .client_request(engine, txns, &mut self.inboxes);
    }

    /// Expires `timer` at `replica`, whether or not it was armed.
    pub fn fire<E: DerefMut<Target: ConsensusEngine>>(
        &mut self,
        engines: &mut [E],
        replica: usize,
        timer: TimerKind,
    ) {
        let engine = &mut *engines[replica];
        self.dispatcher.fire_timer(engine, timer, &mut self.inboxes);
    }

    /// Delivers one message to replica `to` right now.
    pub fn deliver<E: DerefMut<Target: ConsensusEngine>>(
        &mut self,
        engines: &mut [E],
        to: usize,
        from: ReplicaId,
        msg: Message,
    ) {
        let engine = &mut *engines[to];
        let msg = Arc::new(msg);
        self.dispatcher
            .deliver(engine, from, msg, &mut self.inboxes);
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
            for (to, engine) in engines.iter_mut().enumerate() {
                if self.paused[to] {
                    continue;
                }
                for (from, msg) in std::mem::take(&mut self.inboxes.0[to]) {
                    delivered += 1;
                    let engine = &mut **engine;
                    self.dispatcher
                        .deliver(engine, from, msg, &mut self.inboxes);
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
        std::mem::take(&mut self.inboxes.0[replica])
            .into_iter()
            .map(|(from, msg)| (from, unshare(msg)))
            .collect()
    }

    /// Whether `replica` set `timer` and has neither cancelled it nor seen
    /// it fire since.
    pub fn timer_armed(&self, replica: usize, timer: TimerKind) -> bool {
        self.dispatcher
            .timer_armed(ReplicaId(replica as u32), timer)
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

/// One engine per replica of a `protocol` cluster at fault threshold `f`,
/// as [`build_replica`] makes them over counting-mode attestations, after
/// `tune` adjusted the protocol's default configuration; and the enclaves
/// they hold, in replica order.
pub fn cluster(
    protocol: ProtocolId,
    f: usize,
    tune: impl FnOnce(&mut SystemConfig),
) -> (Vec<Box<dyn ConsensusEngine>>, Vec<SharedEnclave>) {
    let mut config = SystemConfig::for_protocol(protocol, f);
    tune(&mut config);
    let config = Arc::new(config);
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Counting);
    let mut enclaves = Vec::new();
    let engines = config
        .replicas()
        .map(|id| {
            let hardware = TrustedHardware::default_enclave();
            let replica = build_replica(Arc::clone(&config), id, registry.clone(), hardware);
            enclaves.extend(replica.enclave);
            replica.engine
        })
        .collect();
    (engines, enclaves)
}

/// Client 1's requests `requests`, request `i` writing one byte to key `i`.
pub fn txns(requests: Range<u64>) -> Vec<Transaction> {
    let update = |key| KvOp::Update {
        key,
        value: vec![1].into(),
    };
    requests
        .map(|i| Transaction::new(ClientId(1), RequestId(i), update(i)))
        .collect()
}
