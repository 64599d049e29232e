//! The one threaded cluster ([`ThreadedCluster`]), the channel network
//! ([`Cluster`]) and the replica loop both networks run. A [`Network`]
//! supplies only its [`Transport`]s and their wiring into the inboxes, the
//! path a client batch takes to the primary, and its own teardown; the
//! socket network is in `crate::tcp`.

use crossbeam::channel::{bounded, Receiver, Sender};
use flexitrust_protocol::host::{
    build_replica, recovery_request, CommittedTxn, CrashWindow, Dispatcher, EngineHost, TimerToken,
    WindowEvent, WindowPhase,
};
use flexitrust_protocol::{ClientReply, ConsensusEngine, SharedMessage, TimerKind};
use flexitrust_trusted::{AttestationMode, EnclaveRegistry, TrustedHardware};
use flexitrust_types::{ProtocolId, ReplicaId, SystemConfig, Transaction};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
#[expect(
    clippy::disallowed_types,
    reason = "Instant times this thread's timer deadlines; the items that read it carry \
              their own expects"
)]
use std::time::{Duration, Instant};

use crate::driver::{drive_workload, Burst};
use crate::primary::PrimaryTracker;

/// Messages flowing into a replica thread.
pub enum Input {
    /// A peer protocol message (a shared handle: the sender's allocation,
    /// reference-counted across every inbox it was fanned out to).
    Peer(ReplicaId, SharedMessage),
    /// A batch of client transactions.
    Client(Vec<Transaction>),
    /// Stop the replica loop.
    Shutdown,
}

/// How a replica thread's outbound traffic leaves the process: over
/// channels ([`ChannelTransport`]) or over TCP sockets
/// (`crate::tcp::SocketTransport`). Cross-replica sends must never block —
/// two replicas with mutually full inboxes would deadlock the cluster — so
/// implementations drop (and count) what they cannot enqueue; BFT protocols
/// tolerate message loss by design.
///
/// A transport only ever carries traffic between two different replicas: a
/// replica's copies to itself stay in its thread (see [`replica_loop`]).
pub trait Transport {
    /// Queue `msg` from `from` for delivery to `to`, another replica. The
    /// shared handle is queued (or encoded) as-is — payload bytes are never
    /// copied per destination.
    fn send_peer(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage);

    /// Queue `msg` from `from` for delivery to every other replica of the
    /// `replicas`. The default fans out to per-destination sends, one
    /// reference-count bump each; a serialising transport overrides it to
    /// encode the wire bytes once per broadcast instead of once per
    /// destination.
    fn broadcast_peer(&mut self, from: ReplicaId, replicas: usize, msg: SharedMessage) {
        for to in (0..replicas).filter(|to| *to != from.as_usize()) {
            self.send_peer(from, ReplicaId(to as u32), Arc::clone(&msg));
        }
    }

    /// Queue the client replies of one delivery, in the order the engine
    /// emitted them. The replica loop collects them and calls this once per
    /// iteration, before it blocks for input: a committed batch answers
    /// every one of its transactions at once, and the whole hand-off to the
    /// client costs one queue operation, not one per transaction. Never
    /// called with an empty `replies`.
    fn send_replies(&mut self, replies: Vec<ClientReply>);
}

/// The channel-network transport: peers are reached through their bounded
/// inboxes, clients through a shared reply channel.
pub struct ChannelTransport {
    peers: Vec<Sender<Input>>,
    replies: Sender<Vec<ClientReply>>,
    dropped: Arc<AtomicU64>,
}

impl Transport for ChannelTransport {
    fn send_peer(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage) {
        // `try_send`, not `send`: a blocking send on a full inbox while our
        // own inbox is also full (with the peer blocked symmetrically on
        // ours) deadlocks both replicas. Dropping is safe — every protocol
        // here already survives lossy networks — and is surfaced through
        // the drop counter in `ClusterSummary`.
        // `.get`, not indexing: a corrupt destination id is a counted
        // drop, never a dead worker thread.
        match self.peers.get(to.as_usize()) {
            #[expect(clippy::disallowed_methods, reason = "Err is counted as a drop")]
            Some(peer) if peer.try_send(Input::Peer(from, msg)).is_ok() => {}
            _ => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn send_replies(&mut self, replies: Vec<ClientReply>) {
        let count = replies.len() as u64;
        #[expect(clippy::disallowed_methods, reason = "Err is counted as a drop")]
        if self.replies.try_send(replies).is_err() {
            self.dropped.fetch_add(count, Ordering::Relaxed);
        }
    }
}

/// Per-replica chaos state threaded through [`replica_loop`]: the shared
/// frontier board every replica publishes its last-executed sequence to,
/// and this replica's crash window (if any).
struct ReplicaChaos {
    frontiers: Arc<Vec<AtomicU64>>,
    window: Option<CrashWindow>,
}

/// Summary of a workload run against a threaded cluster (either network).
#[derive(Debug, Clone)]
pub struct ClusterSummary {
    /// Transactions whose reply quorum was reached.
    pub completed_txns: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Observed throughput in transactions per second.
    pub throughput_tps: f64,
    /// Number of replicas in the cluster.
    pub n: usize,
    /// Messages (peer sends and replies) dropped because a transport queue
    /// was full; nonzero values mean the run shed load instead of
    /// deadlocking.
    pub dropped_messages: u64,
    /// Every completed transaction with the sequence number it executed at,
    /// sorted by sequence; comparable against the simulator's commit log.
    pub commit_log: Vec<CommittedTxn>,
}

/// The network under a [`ThreadedCluster`]: channels for [`Cluster`],
/// loopback sockets for [`TcpCluster`](crate::TcpCluster). Sealed: this
/// crate's two networks are the only ones.
pub trait Network: Wiring {}

impl<W: Wiring> Network for W {}

/// What a [`Network`] supplies to the one threaded cluster. Unreachable
/// outside this crate, which is what seals [`Network`].
pub trait Wiring: Sized {
    /// What a start returns: the cluster, or an `io::Result` of it where
    /// the network can fail to come up.
    type Start<C>;
    /// What a replica thread sends through.
    type Transport: Transport + Send + 'static;

    /// Wires the replicas of `inboxes` to each other and to the client's
    /// `replies`, counting what cannot be delivered in `dropped`: the
    /// network and each replica's transport, in replica order.
    fn connect(
        inboxes: &[Sender<Input>],
        replies: Sender<Vec<ClientReply>>,
        dropped: &Arc<AtomicU64>,
    ) -> Self::Start<(Self, Vec<Self::Transport>)>;

    /// Applies `f` to what a start gave, if it came up.
    fn map<C, D>(start: Self::Start<C>, f: impl FnOnce(C) -> D) -> Self::Start<D>;

    /// Hands a client batch to `primary`, whose inbox `inboxes` holds;
    /// false when it could not. By default, straight into that inbox.
    fn submit(
        &self,
        inboxes: &[Sender<Input>],
        primary: ReplicaId,
        txns: Vec<Transaction>,
    ) -> bool {
        (inboxes.get(primary.as_usize()))
            .is_some_and(|inbox| inbox.send(Input::Client(txns)).is_ok())
    }

    /// Stops what the network runs, once every replica thread has exited.
    /// By default there is nothing to stop.
    fn shutdown(self) {}
}

/// A running threaded cluster for one protocol: one thread per replica,
/// over network `N`. Named [`Cluster`] over channels and
/// [`TcpCluster`](crate::TcpCluster) over loopback sockets.
pub struct ThreadedCluster<N> {
    config: Arc<SystemConfig>,
    pub(crate) network: N,
    inboxes: Vec<Sender<Input>>,
    replies: Receiver<Vec<ClientReply>>,
    tracker: PrimaryTracker,
    dropped: Arc<AtomicU64>,
    frontiers: Arc<Vec<AtomicU64>>,
    /// The first request id of the next burst (see
    /// [`ThreadedCluster::run_workload`]).
    next_request: AtomicU64,
    handles: Vec<JoinHandle<()>>,
}

/// A running in-process cluster whose network is crossbeam channels.
pub type Cluster = ThreadedCluster<Channels>;

/// The channel network: a replica reaches its peers through their bounded
/// inboxes and the client through the shared reply channel, and the client
/// hands its batches to the primary's inbox.
pub struct Channels;

impl Wiring for Channels {
    type Start<C> = C;
    type Transport = ChannelTransport;

    fn connect(
        inboxes: &[Sender<Input>],
        replies: Sender<Vec<ClientReply>>,
        dropped: &Arc<AtomicU64>,
    ) -> (Self, Vec<ChannelTransport>) {
        let transport = |_| ChannelTransport {
            peers: Vec::from(inboxes),
            replies: replies.clone(),
            dropped: Arc::clone(dropped),
        };
        (Channels, inboxes.iter().map(transport).collect())
    }

    fn map<C, D>(start: C, f: impl FnOnce(C) -> D) -> D {
        f(start)
    }
}

/// Builds the standard cluster configuration for a threaded deployment.
fn cluster_config(protocol: ProtocolId, f: usize, batch_size: usize) -> SystemConfig {
    let mut config = SystemConfig::for_protocol(protocol, f);
    config.batch_size = batch_size;
    // Keep view-change timers long: the threaded hosts' runs, crash windows
    // included, are pinned against the simulator's view-0 schedule, and a
    // round slowed by a loaded machine must not start a view change.
    config.view_timeout_us = 30_000_000;
    config
}

impl<N: Network> ThreadedCluster<N> {
    /// Starts a cluster of `n` replica threads for `protocol` with fault
    /// threshold `f` and the given batch size, using real Ed25519
    /// attestations. A [`Cluster`] returns itself; a
    /// [`TcpCluster`](crate::TcpCluster) an `io::Result` of itself, since
    /// binding its sockets can fail.
    pub fn start(protocol: ProtocolId, f: usize, batch_size: usize) -> N::Start<Self> {
        Self::start_with_chaos(protocol, f, batch_size, None, None)
    }

    /// Like [`ThreadedCluster::start`], with an optional
    /// checkpoint interval override (chaos scenarios shorten it so state
    /// transfer fits test-scale runs) and an optional [`CrashWindow`]: the
    /// window's replica crashes mid-run and rejoins via checkpoint state
    /// transfer.
    pub fn start_with_chaos(
        protocol: ProtocolId,
        f: usize,
        batch_size: usize,
        checkpoint_interval: Option<u64>,
        window: Option<CrashWindow>,
    ) -> N::Start<Self> {
        // One config allocation for the whole cluster; replica threads and
        // engines share it by reference.
        let mut base = cluster_config(protocol, f, batch_size);
        if let Some(interval) = checkpoint_interval {
            base.checkpoint_interval = interval;
        }
        let config = Arc::new(base);
        let dropped = Arc::new(AtomicU64::new(0));
        let (reply_tx, replies) = bounded::<Vec<ClientReply>>(1 << 16);
        let (inboxes, inbox_rxs): (Vec<_>, Vec<_>) =
            (0..config.n).map(|_| bounded::<Input>(1 << 16)).unzip();
        let wired = N::connect(&inboxes, reply_tx, &dropped);
        N::map(wired, |(network, transports)| {
            let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Real);
            let tracker = PrimaryTracker::new(config.n);
            let frontiers: Arc<Vec<AtomicU64>> =
                Arc::new((0..config.n).map(|_| AtomicU64::new(0)).collect());
            let handles = (inbox_rxs.into_iter().zip(transports).enumerate())
                .map(|(i, (rx, transport))| {
                    let id = ReplicaId(i as u32);
                    let hardware = TrustedHardware::default_enclave();
                    let mut engine =
                        build_replica(Arc::clone(&config), id, registry.clone(), hardware).engine;
                    let chaos = ReplicaChaos {
                        frontiers: Arc::clone(&frontiers),
                        window: window.filter(|w| w.replica == id),
                    };
                    let tracker = tracker.clone();
                    std::thread::spawn(move || {
                        replica_loop(&mut *engine, rx, transport, tracker, chaos);
                    })
                })
                .collect();
            ThreadedCluster {
                config,
                network,
                inboxes,
                replies,
                tracker,
                dropped,
                frontiers,
                next_request: AtomicU64::new(1),
                handles,
            }
        })
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Each replica's last-executed sequence number, as most recently
    /// published by its thread. Lets chaos tests assert that a recovered
    /// replica caught back up past its crash point.
    pub fn replica_frontiers(&self) -> Vec<u64> {
        self.frontiers
            .iter()
            .map(|f| f.load(Ordering::Relaxed))
            .collect()
    }

    /// The replica currently believed to lead (the primary of the most
    /// advanced view any replica has published).
    pub fn current_primary(&self) -> ReplicaId {
        self.tracker.current_primary()
    }

    /// Submits transactions to the current primary replica. A submission
    /// that cannot reach it — the published view names no replica, its
    /// inbox is gone, or a socket would not connect or take the bytes,
    /// twice — is counted in `ClusterSummary::dropped_messages`. Over
    /// sockets, the primary's reader counts a batch whose replica thread is
    /// gone; a write into a socket whose other end has already closed can
    /// still succeed locally, and only a client's own timeout and
    /// retransmission recovers that.
    pub fn submit(&self, txns: Vec<Transaction>) {
        let primary = self.tracker.current_primary();
        if !self.network.submit(&self.inboxes, primary, txns) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs `total_txns` transactions (from `clients` logical clients, zero
    /// counting as one) through the cluster and waits until each has
    /// reached the protocol's reply quorum, or until `timeout` expires.
    ///
    /// Every call's request ids follow the previous call's, the first
    /// starting at 1, so replies still in flight from an earlier burst can
    /// never complete a request of this one.
    pub fn run_workload(
        &self,
        total_txns: usize,
        clients: usize,
        timeout: Duration,
    ) -> ClusterSummary {
        let burst = Burst::reserve(
            &self.next_request,
            total_txns,
            clients,
            self.config.batch_size,
        );
        drive_workload(
            &self.config,
            burst.clients(),
            burst,
            |txns| self.submit(txns),
            &self.replies,
            &self.dropped,
            timeout,
        )
    }

    /// Stops every replica thread, then the network's own threads.
    pub fn shutdown(self) {
        for tx in &self.inboxes {
            let _ = tx.send(Input::Shutdown);
        }
        for handle in self.handles {
            let _ = handle.join();
        }
        self.network.shutdown();
    }
}

/// The threaded runtimes' [`EngineHost`]: transport sends as the network, a
/// per-thread deadline list as the clock. All `Action` translation and timer
/// bookkeeping live in the shared [`Dispatcher`].
#[expect(
    clippy::disallowed_types,
    reason = "a timer deadline stays in this thread: it only decides when the dispatcher \
              hears of an expiry, whose token is not a clock value"
)]
struct ThreadEnv<T: Transport> {
    transport: T,
    timers: Vec<(Instant, TimerKind, TimerToken)>,
    /// The replies emitted since the loop last handed them to the
    /// transport.
    replies: Vec<ClientReply>,
    /// The replica's copies of its own messages, in emission order: the
    /// very handles it sent, never encoded, queued or seen by the
    /// transport. The loop delivers them before it blocks again.
    local: VecDeque<SharedMessage>,
}

impl<T: Transport> EngineHost for ThreadEnv<T> {
    fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage) {
        if to == from {
            self.local.push_back(msg);
        } else {
            self.transport.send_peer(from, to, msg);
        }
    }

    fn broadcast(&mut self, from: ReplicaId, replicas: usize, msg: SharedMessage) {
        self.transport
            .broadcast_peer(from, replicas, Arc::clone(&msg));
        self.local.push_back(msg);
    }

    fn reply(&mut self, _from: ReplicaId, reply: ClientReply) {
        self.replies.push(reply);
    }

    /// A delivery's replies arrive as the engine built them: the list itself
    /// becomes the transport's hand-off, or joins the one already pending.
    fn replies(&mut self, _from: ReplicaId, mut replies: Vec<ClientReply>) {
        if self.replies.is_empty() {
            self.replies = replies;
        } else {
            self.replies.append(&mut replies);
        }
    }

    #[expect(
        clippy::disallowed_types,
        reason = "the deadline goes into this thread's timer list and nowhere else"
    )]
    fn schedule_timer(
        &mut self,
        _replica: ReplicaId,
        timer: TimerKind,
        delay_us: u64,
        token: TimerToken,
    ) {
        // One pending deadline per timer kind: re-arming replaces the old
        // entry (its token is already stale in the dispatcher anyway).
        self.timers.retain(|(_, t, _)| *t != timer);
        self.timers.push((
            Instant::now() + Duration::from_micros(delay_us),
            timer,
            token,
        ));
    }

    fn timer_cancelled(&mut self, _replica: ReplicaId, timer: TimerKind) {
        self.timers.retain(|(_, t, _)| *t != timer);
    }
}

/// How often a rejoining replica repeats its `CheckpointRequest` (several
/// turns of the loop's 5 ms poll) until the answers have carried it to
/// where the others were when it came back. One request is not enough: a
/// peer answers only from a stable checkpoint past the requester's
/// frontier, and at the instant of recovery there may be none yet, or only
/// one that ends short of the proposals the rejoiner missed. Stale or
/// duplicate answers are refused by the engine.
const RECOVERY_RETRY: Duration = Duration::from_millis(20);

/// One replica's event loop, shared by the channel and TCP deployments.
///
/// Each turn handles one input (or none, when a timer is due first), fires
/// the due timers, then delivers the replica's copies of its own messages —
/// those, and whatever they emit to the replica in turn, until none are
/// left — and hands the turn's replies over before it blocks again. After
/// each delivery the crash window, if any, is stepped: a replica it takes
/// down loses the copies still queued, as a crashed process loses its
/// memory, and hears nothing until it recovers.
#[expect(
    clippy::disallowed_types,
    reason = "clock reads pick the receive timeout, the due timers and the rejoin retry; \
              no message carries one"
)]
fn replica_loop<T: Transport>(
    engine: &mut dyn ConsensusEngine,
    rx: Receiver<Input>,
    transport: T,
    tracker: PrimaryTracker,
    chaos: ReplicaChaos,
) {
    let id = engine.id();
    let n = engine.config().n;
    let mut dispatcher = Dispatcher::new(n);
    let mut env = ThreadEnv {
        transport,
        timers: Vec::new(),
        replies: Vec::new(),
        local: VecDeque::new(),
    };
    let mut window = chaos.window.map(|w| (w, WindowPhase::Armed));
    // While rejoining after a crash: the others' frontier at recovery, and
    // when to ask them for a checkpoint (again).
    let mut rejoining: Option<(u64, Instant)> = None;
    // The frontier last written to the shared board: it is written again
    // only when it moves, so the replica loop stores nothing per message.
    let mut published = None;
    loop {
        // Work out how long we may sleep before the next timer fires.
        let now = Instant::now();
        let next_deadline = env.timers.iter().map(|(at, _, _)| *at).min();
        let wait = next_deadline
            .map(|at| at.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(5))
            .min(Duration::from_millis(5));

        let down = matches!(window, Some((_, WindowPhase::Down)));
        match rx.recv_timeout(wait) {
            Ok(Input::Shutdown) => return,
            // A crashed replica hears nothing: peer traffic and client
            // batches are drained and discarded while the window is down.
            Ok(_) if down => {}
            Ok(Input::Peer(from, msg)) => dispatcher.deliver(engine, from, msg, &mut env),
            Ok(Input::Client(txns)) => dispatcher.client_request(engine, txns, &mut env),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
        }

        // Fire any due timers; the dispatcher drops expirations whose token
        // went stale between scheduling and firing.
        let now = Instant::now();
        let due: Vec<(TimerKind, TimerToken)> = env
            .timers
            .iter()
            .filter(|(at, _, _)| *at <= now)
            .map(|(_, t, token)| (*t, *token))
            .collect();
        env.timers.retain(|(at, _, _)| *at > now);
        for (timer, token) in due {
            dispatcher.timer_expired(engine, timer, token, &mut env);
        }

        loop {
            // Publish our execution frontier so crash windows (and tests)
            // can key on commit progress across threads.
            let frontier = engine.last_executed().0;
            if published != Some(frontier) {
                if let Some(slot) = chaos.frontiers.get(id.as_usize()) {
                    slot.store(frontier, Ordering::Relaxed);
                }
                published = Some(frontier);
            }
            if let Some((window, phase)) = window.as_mut() {
                let frontiers = chaos.frontiers.iter().map(|f| f.load(Ordering::Relaxed));
                let others = window.others_frontier(frontiers);
                match phase.step(window, frontier, others) {
                    // Going down: a crashed host's pending timers and
                    // undelivered own copies die with it (fresh ones come
                    // from whatever runs after recovery).
                    Some(WindowEvent::Crash) => {
                        env.timers.clear();
                        env.local.clear();
                    }
                    // Rejoin via state transfer, starting now.
                    Some(WindowEvent::Recover) => rejoining = Some((others, now)),
                    None => {}
                }
            }
            let Some(msg) = env.local.pop_front() else {
                break;
            };
            dispatcher.deliver(engine, id, msg, &mut env);
        }
        // Everything this iteration will emit is out: hand its replies over
        // before the loop blocks for input again.
        if !env.replies.is_empty() {
            env.transport.send_replies(std::mem::take(&mut env.replies));
        }

        match &mut rejoining {
            Some((target, _)) if engine.last_executed().0 >= *target => rejoining = None,
            // Ask every peer for the latest stable checkpoint past our
            // frontier.
            Some((_, ask_at)) if *ask_at <= now => {
                env.transport
                    .broadcast_peer(id, n, recovery_request(engine));
                *ask_at = now + RECOVERY_RETRY;
            }
            _ => {}
        }

        // Publish our view so submission paths can find the primary.
        tracker.observe(id, engine.view());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use flexitrust_protocol::{Message, Outbox, ReplicaCore};
    use flexitrust_types::{Batch, ClientId, Digest, KvResult, RequestId, SeqNum, View};
    use std::sync::mpsc;

    /// What a [`Recording`] transport was handed, in order.
    enum Seen {
        Peer(ReplicaId, SharedMessage),
        /// The request ids of one reply hand-off.
        Replies(Vec<u64>),
    }

    /// Reports everything it is handed to the test; nothing ever answers.
    struct Recording(mpsc::Sender<Seen>);

    impl Transport for Recording {
        fn send_peer(&mut self, _from: ReplicaId, to: ReplicaId, msg: SharedMessage) {
            let _ = self.0.send(Seen::Peer(to, msg));
        }
        fn send_replies(&mut self, replies: Vec<ClientReply>) {
            let _ = self
                .0
                .send(Seen::Replies(replies.iter().map(|r| r.request.0).collect()));
        }
    }

    /// A written reply to `request` from replica 1.
    pub(crate) fn reply(request: u64) -> ClientReply {
        ClientReply {
            client: ClientId(0),
            request: RequestId(request),
            seq: SeqNum(1),
            view: View(0),
            replica: ReplicaId(1),
            result: KvResult::Written,
            speculative: false,
        }
    }

    /// A `protocol` cluster with f = 1 and batches of 10, over channels.
    fn chan(protocol: ProtocolId) -> Cluster {
        Cluster::start(protocol, 1, 10)
    }

    /// The same over loopback sockets.
    fn tcp(protocol: ProtocolId) -> crate::TcpCluster {
        crate::TcpCluster::start(protocol, 1, 10).expect("cluster starts")
    }

    /// Runs `txns` transactions from four clients through `cluster`,
    /// checks that every one completes with nothing dropped, and returns
    /// the cluster, still running.
    fn commits_all<N: Network>(cluster: ThreadedCluster<N>, txns: usize) -> ThreadedCluster<N> {
        let summary = cluster.run_workload(txns, 4, Duration::from_secs(60));
        assert_eq!(summary.completed_txns, txns as u64);
        assert!(summary.throughput_tps > 0.0);
        assert_eq!(summary.dropped_messages, 0);
        cluster
    }

    #[test]
    fn flexi_bft_commits_real_crypto_workload() {
        commits_all(chan(ProtocolId::FlexiBft), 100).shutdown();
        let cluster = commits_all(tcp(ProtocolId::FlexiBft), 100);
        let io = cluster.io_stats();
        cluster.shutdown();
        // Every frame is counted before it is handed on, so what the run
        // needed to complete is already in the totals: ten submissions and
        // a reply quorum of f + 1 per transaction.
        assert!(io.frames_read >= 10 + 2 * 100, "{io:?}");
    }

    #[test]
    fn flexi_zz_commits_real_crypto_workload() {
        commits_all(chan(ProtocolId::FlexiZz), 100).shutdown();
    }

    #[test]
    fn minbft_commits_real_crypto_workload() {
        commits_all(chan(ProtocolId::MinBft), 50).shutdown();
    }

    #[test]
    fn pbft_commits_real_crypto_workload() {
        commits_all(chan(ProtocolId::Pbft), 50).shutdown();
        commits_all(tcp(ProtocolId::Pbft), 50).shutdown();
    }

    #[test]
    fn full_inboxes_drop_instead_of_deadlocking() {
        // Two replicas with mutually full inboxes used to deadlock on the
        // old blocking `send`; `try_send` must shed the message and count
        // the drop without ever blocking the calling replica thread.
        let (tx, _rx) = bounded::<Input>(1);
        assert!(tx.try_send(Input::Client(Vec::new())).is_ok());
        let (reply_tx, _reply_rx) = bounded::<Vec<ClientReply>>(1);
        let dropped = Arc::new(AtomicU64::new(0));
        let mut transport = ChannelTransport {
            peers: vec![tx],
            replies: reply_tx,
            dropped: Arc::clone(&dropped),
        };
        let msg = Arc::new(flexitrust_protocol::Message::ClientRetry {
            txn: Transaction::noop(),
        });
        let start = Instant::now();
        transport.send_peer(ReplicaId(1), ReplicaId(0), msg);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "send must not block"
        );
        assert_eq!(dropped.load(Ordering::Relaxed), 1);

        // The reply channel sheds whole deliveries the same way, and counts
        // every reply in them.
        transport.send_replies(vec![reply(1)]);
        assert_eq!(dropped.load(Ordering::Relaxed), 1, "the first one fits");
        transport.send_replies((2..=8).map(reply).collect());
        assert_eq!(dropped.load(Ordering::Relaxed), 1 + 7);
    }

    #[test]
    fn a_burst_of_32_000_transactions_commits_without_a_drop() {
        // Twice what a benchmark round submits; it used to overflow the
        // reply channel when its 65 536 slots held one reply each.
        let cluster = Cluster::start(ProtocolId::FlexiBft, 1, 100);
        let summary = cluster.run_workload(32_000, 64, Duration::from_secs(120));
        cluster.shutdown();
        assert_eq!(summary.completed_txns, 32_000);
        assert_eq!(summary.dropped_messages, 0);
    }

    /// Runs two bursts of 4 000 transactions from 8 clients through
    /// `cluster` and checks that the second is answered for its own
    /// requests only: every one of them completes, at a sequence number
    /// past the first burst's last. Request ids used to restart at 1 on
    /// every call: two late replies to a first-burst request completed the
    /// second burst's request of the same id, hundreds of times per run.
    fn second_burst<N: Network>(cluster: ThreadedCluster<N>) {
        use std::collections::BTreeSet;
        const CLIENTS: u64 = 8;
        const PER_CLIENT: u64 = 500;
        let run = || {
            let txns = (CLIENTS * PER_CLIENT) as usize;
            let summary = cluster.run_workload(txns, CLIENTS as usize, Duration::from_secs(60));
            assert_eq!(summary.completed_txns, txns as u64);
            summary
        };
        let (first, second) = (run(), run());
        cluster.shutdown();
        let ids = |summary: &ClusterSummary| -> BTreeSet<(u64, u64)> {
            (summary.commit_log.iter())
                .map(|c| (c.client.0, c.request.0))
                .collect()
        };
        let ids_from = |first_id: u64| -> BTreeSet<(u64, u64)> {
            (0..CLIENTS)
                .flat_map(|c| (first_id..first_id + PER_CLIENT).map(move |r| (c, r)))
                .collect()
        };
        assert_eq!(ids(&first), ids_from(1));
        assert_eq!(ids(&second), ids_from(1 + PER_CLIENT));
        let last = first.commit_log.iter().map(|c| c.seq).max();
        let stale = (second.commit_log.iter())
            .filter(|c| Some(c.seq) <= last)
            .count();
        assert_eq!(
            stale, 0,
            "second-burst requests completed at or below {last:?}"
        );
    }

    #[test]
    fn a_second_burst_is_answered_for_its_own_requests_only() {
        second_burst(chan(ProtocolId::FlexiBft));
        second_burst(tcp(ProtocolId::FlexiBft));
    }

    /// Used to panic with a remainder by zero.
    fn zero_clients<N: Network>(cluster: ThreadedCluster<N>) {
        let summary = cluster.run_workload(25, 0, Duration::from_secs(30));
        cluster.shutdown();
        assert_eq!(summary.completed_txns, 25);
        let requests: Vec<(u64, u64)> = (summary.commit_log.iter())
            .map(|c| (c.client.0, c.request.0))
            .collect();
        assert_eq!(requests, (1..=25).map(|r| (0, r)).collect::<Vec<_>>());
    }

    #[test]
    fn a_burst_from_zero_clients_comes_from_one() {
        zero_clients(chan(ProtocolId::FlexiBft));
        zero_clients(tcp(ProtocolId::FlexiBft));
    }

    /// The primary's thread exits, and its inbox with it. Over sockets the
    /// submission itself succeeds: the primary's reader takes the frame and
    /// counts it when the inbox refuses it.
    fn dead_primary<N: Network>(mut cluster: ThreadedCluster<N>) {
        assert!(cluster.inboxes[0].send(Input::Shutdown).is_ok());
        cluster
            .handles
            .remove(0)
            .join()
            .expect("the primary exits cleanly");
        let summary = cluster.run_workload(10, 1, Duration::from_millis(200));
        cluster.shutdown();
        assert_eq!(summary.completed_txns, 0);
        assert_eq!(summary.dropped_messages, 1, "one batch was submitted");
    }

    #[test]
    fn a_submission_the_primary_cannot_take_is_a_counted_drop() {
        dead_primary(chan(ProtocolId::FlexiBft));
        dead_primary(tcp(ProtocolId::FlexiBft));
    }

    #[test]
    fn own_copies_bypass_the_transport_as_the_handles_the_engine_sent() {
        let (tx, rx) = mpsc::channel();
        let mut env = ThreadEnv {
            transport: Recording(tx),
            timers: Vec::new(),
            replies: Vec::new(),
            local: VecDeque::new(),
        };
        let msg: SharedMessage = Arc::new(Message::ClientRetry {
            txn: Transaction::noop(),
        });
        let me = ReplicaId(2);
        env.broadcast(me, 4, Arc::clone(&msg));
        env.send(me, me, Arc::clone(&msg));
        env.send(me, ReplicaId(3), Arc::clone(&msg));
        // n − 1 destinations for the broadcast, one for the unicast; none
        // is the sender.
        let peers: Vec<u32> = rx
            .try_iter()
            .map(|seen| match seen {
                Seen::Peer(to, sent) if Arc::ptr_eq(&sent, &msg) => to.0,
                _ => panic!("only the sent handle reaches the transport"),
            })
            .collect();
        assert_eq!(peers, [0, 1, 3, 3]);
        // The broadcast's own copy and the send to self, as the very
        // allocation the engine's action became.
        assert_eq!(env.local.len(), 2);
        assert!(env.local.iter().all(|own| Arc::ptr_eq(own, &msg)));
    }

    /// Proposes every client batch to all replicas and replies to it; on
    /// any message, tells the test what it heard and replies again.
    struct Proposer {
        core: ReplicaCore,
        heard: mpsc::Sender<(ReplicaId, Message)>,
    }

    impl ConsensusEngine for Proposer {
        fn replica(&self) -> &ReplicaCore {
            &self.core
        }
        fn on_client_request(&mut self, txns: Vec<Transaction>, out: &mut Outbox) {
            out.broadcast(Message::PrePrepare {
                view: View(0),
                seq: SeqNum(1),
                batch: Batch::new(txns, Digest::from_u64_tag(1)),
                attestation: None,
            });
            out.reply(reply(1));
        }
        fn on_message(&mut self, from: ReplicaId, msg: Message, out: &mut Outbox) {
            let _ = self.heard.send((from, msg));
            out.reply(reply(2));
        }
        fn on_timer(&mut self, _timer: TimerKind, _out: &mut Outbox) {}
    }

    /// Runs a [`Proposer`] as replica 0 of four, with `window`, through one
    /// client batch and then `Shutdown`. Returns what its transport saw and
    /// what it heard.
    fn one_proposal(window: Option<CrashWindow>) -> (Vec<Seen>, Vec<(ReplicaId, Message)>) {
        let config = cluster_config(ProtocolId::Pbft, 1, 10);
        let (heard_tx, heard) = mpsc::channel();
        let mut engine = Proposer {
            core: ReplicaCore::new(config, ReplicaId(0)),
            heard: heard_tx,
        };
        let (inbox, rx) = bounded::<Input>(4);
        assert!(inbox.send(Input::Client(vec![Transaction::noop()])).is_ok());
        assert!(inbox.send(Input::Shutdown).is_ok());
        let (seen_tx, seen) = mpsc::channel();
        let chaos = ReplicaChaos {
            frontiers: Arc::new((0..4).map(|_| AtomicU64::new(0)).collect()),
            window,
        };
        replica_loop(
            &mut engine,
            rx,
            Recording(seen_tx),
            PrimaryTracker::new(4),
            chaos,
        );
        (seen.try_iter().collect(), heard.try_iter().collect())
    }

    fn proposal_batch(msg: &Message) -> &Batch {
        match msg {
            Message::PrePrepare { batch, .. } => batch,
            other => panic!("not a proposal: {other:?}"),
        }
    }

    #[test]
    fn a_replica_hears_its_own_broadcast_before_the_loop_blocks() {
        let (seen, heard) = one_proposal(None);
        let Some((Seen::Replies(replies), sent)) = seen.split_last() else {
            panic!("the turn ends with one reply hand-off");
        };
        let peers: Vec<(u32, &Batch)> = sent
            .iter()
            .map(|seen| match seen {
                Seen::Peer(to, msg) => (to.0, proposal_batch(msg)),
                Seen::Replies(_) => panic!("one reply hand-off per turn"),
            })
            .collect();
        // The transport carried the proposal to the three others only.
        assert_eq!(
            peers.iter().map(|(to, _)| *to).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        // The engine heard its own copy: the payload the peers were sent.
        assert_eq!(heard.len(), 1);
        assert_eq!(heard[0].0, ReplicaId(0));
        assert!(proposal_batch(&heard[0].1).shares_payload(peers[0].1));
        // In the same turn: the proposal's reply and the reply to its own
        // copy leave in the one hand-off made before the loop blocks.
        assert_eq!(replies, &[1, 2]);
    }

    #[test]
    fn a_replica_taken_down_drops_its_own_copies() {
        // Down once its frontier reaches 0, i.e. right after its first
        // input; it never recovers.
        let window = CrashWindow {
            replica: ReplicaId(0),
            crash_at_seq: 0,
            recover_at_seq: u64::MAX,
        };
        let (seen, heard) = one_proposal(Some(window));
        let peers = seen
            .iter()
            .filter(|seen| matches!(seen, Seen::Peer(..)))
            .count();
        // The copies for the others had left; its own had not.
        assert_eq!(peers, 3);
        assert!(heard.is_empty(), "a downed replica delivers nothing");
        assert!(matches!(seen.last(), Some(Seen::Replies(r)) if r == &[1]));
    }

    #[test]
    fn a_rejoiner_repeats_its_checkpoint_request_until_it_is_answered() {
        // Replica 2 is down from the start and recovers at once: the others
        // are already at sequence 10.
        let id = ReplicaId(2);
        let config = Arc::new(cluster_config(ProtocolId::FlexiBft, 1, 10));
        let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Real);
        let hardware = TrustedHardware::default_enclave();
        let mut engine = build_replica(Arc::clone(&config), id, registry, hardware).engine;
        let frontiers: Vec<AtomicU64> = (0..config.n).map(|_| AtomicU64::new(0)).collect();
        frontiers[0].store(10, Ordering::Relaxed);
        let chaos = ReplicaChaos {
            frontiers: Arc::new(frontiers),
            window: Some(CrashWindow {
                replica: id,
                crash_at_seq: 0,
                recover_at_seq: 10,
            }),
        };
        let (inbox, rx) = bounded::<Input>(4);
        let (sent_tx, sent) = mpsc::channel();
        let tracker = PrimaryTracker::new(config.n);
        let replica = std::thread::spawn(move || {
            replica_loop(&mut *engine, rx, Recording(sent_tx), tracker, chaos);
        });

        // Three rounds of requests arrive although no input ever does; one
        // request per recovery would leave this waiting forever.
        let mut asked = vec![0; config.n];
        while asked != [3, 3, 0, 3] {
            let Seen::Peer(to, msg) = sent
                .recv_timeout(Duration::from_secs(30))
                .expect("the request is repeated")
            else {
                continue;
            };
            assert!(
                matches!(&*msg, flexitrust_protocol::Message::CheckpointRequest { last_executed }
                    if last_executed.0 == 0),
                "{msg:?}"
            );
            asked[to.as_usize()] += 1;
        }
        assert!(
            inbox.send(Input::Shutdown).is_ok(),
            "the replica is running"
        );
        replica.join().expect("the replica loop exits cleanly");
    }

    /// Forces the tracker's board forward: submit must follow the published
    /// view's primary, not replica 0.
    fn published_primary<N: Network>(cluster: ThreadedCluster<N>) {
        assert_eq!(cluster.current_primary(), ReplicaId(0));
        cluster
            .tracker
            .observe(ReplicaId(3), flexitrust_types::View(1));
        assert_eq!(cluster.current_primary(), ReplicaId(1));
        cluster.shutdown();
    }

    #[test]
    fn submissions_route_to_the_published_primary() {
        published_primary(chan(ProtocolId::Pbft));
        published_primary(tcp(ProtocolId::Pbft));
    }
}
