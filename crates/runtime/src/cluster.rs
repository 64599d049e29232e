//! A threaded cluster: one thread per replica, channels as the network.
//!
//! The replica loop, the timer machinery and the closed-loop workload
//! driver here are shared with the TCP deployment (`crate::tcp`): both
//! hosts differ only in their [`Transport`] — how an outbound message or
//! reply physically leaves the replica thread.

use crossbeam::channel::{bounded, Receiver, Sender};
use flexitrust_host::{
    build_replica, recovery_request, CommittedTxn, CrashWindow, Dispatcher, EngineHost, TimerToken,
    WindowEvent, WindowPhase,
};
use flexitrust_protocol::{
    ClientLibrary, ClientReply, ConsensusEngine, RequestStatus, SharedMessage, TimerKind,
};
use flexitrust_trusted::{AttestationMode, EnclaveRegistry, TrustedHardware};
use flexitrust_types::{ClientId, ProtocolId, ReplicaId, RequestId, SystemConfig, Transaction};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::primary::PrimaryTracker;

/// Messages flowing into a replica thread.
pub(crate) enum Input {
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
pub(crate) trait Transport {
    /// Queue `msg` from `from` for delivery to `to`. The shared handle is
    /// queued (or encoded) as-is — payload bytes are never copied per
    /// destination.
    fn send_peer(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage);

    /// Queue `msg` from `from` for delivery to every replica (sender
    /// included). The default fans out to per-destination sends, one
    /// reference-count bump each; a serialising transport overrides it to
    /// encode the wire bytes once per broadcast instead of once per
    /// destination.
    fn broadcast_peer(&mut self, from: ReplicaId, replicas: usize, msg: SharedMessage) {
        for to in 0..replicas {
            self.send_peer(from, ReplicaId(to as u32), Arc::clone(&msg));
        }
    }

    /// Queue a client reply emitted by `from`.
    fn send_reply(&mut self, from: ReplicaId, reply: ClientReply);

    /// Hand over whatever the calls above held back to batch. The replica
    /// loop calls this once per iteration, before it blocks for input, so
    /// nothing a delivery emitted waits for the next one. A transport that
    /// holds nothing back keeps the default.
    fn flush(&mut self) {}
}

/// The channel-network transport: peers are reached through their bounded
/// inboxes, clients through a shared reply channel.
pub(crate) struct ChannelTransport {
    pub(crate) peers: Vec<Sender<Input>>,
    pub(crate) replies: Sender<ClientReply>,
    pub(crate) dropped: Arc<AtomicU64>,
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
            Some(peer) if peer.try_send(Input::Peer(from, msg)).is_ok() => {}
            _ => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn send_reply(&mut self, _from: ReplicaId, reply: ClientReply) {
        if self.replies.try_send(reply).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-replica chaos state threaded through [`replica_loop`]: the shared
/// frontier board every replica publishes its last-executed sequence to,
/// and this replica's crash window (if any).
pub(crate) struct ReplicaChaos {
    pub(crate) frontiers: Arc<Vec<AtomicU64>>,
    pub(crate) window: Option<CrashWindow>,
}

impl ReplicaChaos {
    /// A fresh frontier board for `n` replicas.
    pub(crate) fn board(n: usize) -> Arc<Vec<AtomicU64>> {
        Arc::new((0..n).map(|_| AtomicU64::new(0)).collect())
    }

    /// No crash window; publishes to a private board nobody reads.
    pub(crate) fn inert(n: usize) -> Self {
        ReplicaChaos {
            frontiers: Self::board(n),
            window: None,
        }
    }
}

/// Summary of a workload run against a cluster (channel or TCP).
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

/// A running in-process cluster for one protocol.
pub struct Cluster {
    config: Arc<SystemConfig>,
    inboxes: Vec<Sender<Input>>,
    replies: Receiver<ClientReply>,
    tracker: PrimaryTracker,
    dropped: Arc<AtomicU64>,
    frontiers: Arc<Vec<AtomicU64>>,
    handles: Vec<JoinHandle<()>>,
}

/// Builds the standard cluster configuration for a threaded deployment.
pub(crate) fn cluster_config(protocol: ProtocolId, f: usize, batch_size: usize) -> SystemConfig {
    let mut config = SystemConfig::for_protocol(protocol, f);
    config.batch_size = batch_size;
    // Keep view-change timers long: the threaded runtimes are used for
    // failure-free correctness runs and examples.
    config.view_timeout_us = 30_000_000;
    config
}

impl Cluster {
    /// Starts a cluster of `n` replica threads for `protocol` with fault
    /// threshold `f` and the given batch size, using real Ed25519
    /// attestations.
    pub fn start(protocol: ProtocolId, f: usize, batch_size: usize) -> Self {
        Self::start_with_workers(protocol, f, batch_size, 1)
    }

    /// Like [`Cluster::start`], with `exec_workers` execution-layer shard
    /// workers per replica (1 = serial). Commit sequences and state
    /// digests are identical for every worker count.
    pub fn start_with_workers(
        protocol: ProtocolId,
        f: usize,
        batch_size: usize,
        exec_workers: usize,
    ) -> Self {
        Self::start_with_chaos(protocol, f, batch_size, exec_workers, None, None)
    }

    /// Like [`Cluster::start_with_workers`], with an optional checkpoint
    /// interval override (chaos scenarios shorten it so state transfer
    /// fits test-scale runs) and an optional [`CrashWindow`]: the window's
    /// replica crashes mid-run and rejoins via checkpoint state transfer.
    pub fn start_with_chaos(
        protocol: ProtocolId,
        f: usize,
        batch_size: usize,
        exec_workers: usize,
        checkpoint_interval: Option<u64>,
        window: Option<CrashWindow>,
    ) -> Self {
        // One config allocation for the whole cluster; replica threads and
        // engines share it by reference.
        let mut base = cluster_config(protocol, f, batch_size).with_exec_workers(exec_workers);
        if let Some(interval) = checkpoint_interval {
            base.checkpoint_interval = interval;
        }
        let config = Arc::new(base);
        let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Real);
        let tracker = PrimaryTracker::new(config.n);
        let dropped = Arc::new(AtomicU64::new(0));
        let frontiers = ReplicaChaos::board(config.n);

        let (reply_tx, reply_rx) = bounded::<ClientReply>(1 << 16);
        let mut inbox_txs = Vec::with_capacity(config.n);
        let mut inbox_rxs = Vec::with_capacity(config.n);
        for _ in 0..config.n {
            let (tx, rx) = bounded::<Input>(1 << 16);
            inbox_txs.push(tx);
            inbox_rxs.push(rx);
        }

        let mut handles = Vec::with_capacity(config.n);
        for (i, rx) in inbox_rxs.into_iter().enumerate() {
            let id = ReplicaId(i as u32);
            let mut engine = build_replica(
                protocol,
                Arc::clone(&config),
                id,
                registry.clone(),
                TrustedHardware::default_enclave(),
            )
            .engine;
            let transport = ChannelTransport {
                peers: inbox_txs.clone(),
                replies: reply_tx.clone(),
                dropped: Arc::clone(&dropped),
            };
            let chaos = ReplicaChaos {
                frontiers: Arc::clone(&frontiers),
                window: window.filter(|w| w.replica == id),
            };
            let thread_tracker = tracker.clone();
            handles.push(std::thread::spawn(move || {
                replica_loop(&mut *engine, rx, transport, thread_tracker, chaos);
            }));
        }

        Cluster {
            config,
            inboxes: inbox_txs,
            replies: reply_rx,
            tracker,
            dropped,
            frontiers,
            handles,
        }
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

    /// Submits transactions to the current primary replica.
    pub fn submit(&self, txns: Vec<Transaction>) {
        let primary = self.tracker.current_primary();
        if let Some(inbox) = self.inboxes.get(primary.as_usize()) {
            let _ = inbox.send(Input::Client(txns));
        }
    }

    /// Runs `total_txns` transactions (from `clients` logical clients)
    /// through the cluster and waits until each has reached the protocol's
    /// reply quorum, or until `timeout` expires.
    pub fn run_workload(
        &self,
        total_txns: usize,
        clients: usize,
        timeout: Duration,
    ) -> ClusterSummary {
        drive_workload(
            &self.config,
            |txns| self.submit(txns),
            &self.replies,
            &self.dropped,
            total_txns,
            clients,
            timeout,
        )
    }

    /// Stops every replica thread.
    pub fn shutdown(self) {
        for tx in &self.inboxes {
            let _ = tx.send(Input::Shutdown);
        }
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// The shared closed-loop workload driver: submits `total_txns` in
/// batch-size chunks through `submit`, drains `replies` through per-client
/// `ClientLibrary` quorum tracking, and reports the commit log.
pub(crate) fn drive_workload(
    config: &SystemConfig,
    mut submit: impl FnMut(Vec<Transaction>),
    replies: &Receiver<ClientReply>,
    dropped: &AtomicU64,
    total_txns: usize,
    clients: usize,
    timeout: Duration,
) -> ClusterSummary {
    // Snapshot the shared drop counter so the summary reports *this run's*
    // drops, not the cluster's lifetime total (a second workload on the
    // same cluster must not inherit the first run's shed load).
    let dropped_at_start = dropped.load(Ordering::Relaxed);
    let properties_quorum = {
        // The reply rule follows the protocol (Figure 1 column mapping).
        use flexitrust_protocol::ProtocolProperties;
        ProtocolProperties::for_protocol(config.protocol).reply_quorum
    };
    // Indexed by client id: client c's library is libraries[c]. A Vec
    // instead of a map makes the lookups below structurally infallible —
    // no unwrap to kill the driver on a malformed reply.
    let mut libraries: Vec<ClientLibrary> = (0..clients as u64)
        .map(|c| ClientLibrary::new(ClientId(c), config, properties_quorum))
        .collect();

    let start = Instant::now();
    let mut submitted = Vec::with_capacity(total_txns);
    for i in 0..total_txns {
        let client = ClientId((i % clients) as u64);
        let request = RequestId((i / clients) as u64 + 1);
        let txn = Transaction::new(
            client,
            request,
            flexitrust_types::KvOp::Update {
                key: i as u64,
                value: vec![i as u8; 16].into(),
            },
        );
        libraries[client.0 as usize].begin(request);
        submitted.push(txn);
    }
    for chunk in submitted.chunks(config.batch_size.max(1)) {
        // lint:allow(Z01): copies Arc-backed Transaction handles into a
        // fresh batch Vec (refcount bumps), not payload bytes — the
        // submission API takes ownership per batch.
        submit(chunk.to_vec());
    }

    let mut completed = 0u64;
    let mut commit_log: Vec<CommittedTxn> = Vec::with_capacity(total_txns);
    while completed < total_txns as u64 && start.elapsed() < timeout {
        match replies.recv_timeout(Duration::from_millis(50)) {
            Ok(reply) => {
                if let Some(library) = libraries.get_mut(reply.client.0 as usize) {
                    // Count a request exactly when it first completes;
                    // late duplicate replies also report `Complete` (with
                    // the same matching count), so the status alone would
                    // overcount under load.
                    let before = library.completed();
                    let status = library.on_reply(&reply);
                    if library.completed() > before {
                        if let RequestStatus::Complete { seq, .. } = status {
                            completed += 1;
                            commit_log.push(CommittedTxn {
                                seq,
                                client: reply.client,
                                request: reply.request,
                            });
                        }
                    }
                }
            }
            Err(_) => continue,
        }
    }
    let elapsed = start.elapsed();
    commit_log.sort_unstable();
    ClusterSummary {
        completed_txns: completed,
        throughput_tps: completed as f64 / elapsed.as_secs_f64(),
        elapsed,
        n: config.n,
        dropped_messages: dropped
            .load(Ordering::Relaxed)
            .saturating_sub(dropped_at_start),
        commit_log,
    }
}

/// The threaded runtimes' [`EngineHost`]: transport sends as the network, a
/// per-thread deadline list as the clock. All `Action` translation and timer
/// bookkeeping live in the shared [`Dispatcher`].
struct ThreadEnv<T: Transport> {
    transport: T,
    timers: Vec<(Instant, TimerKind, TimerToken)>,
}

impl<T: Transport> EngineHost for ThreadEnv<T> {
    fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage) {
        self.transport.send_peer(from, to, msg);
    }

    fn broadcast(&mut self, from: ReplicaId, replicas: usize, msg: SharedMessage) {
        self.transport.broadcast_peer(from, replicas, msg);
    }

    fn reply(&mut self, from: ReplicaId, reply: ClientReply) {
        self.transport.send_reply(from, reply);
    }

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

/// One replica's event loop, shared by the channel and TCP deployments.
pub(crate) fn replica_loop<T: Transport>(
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
    };
    let mut window = chaos.window.map(|w| (w, WindowPhase::Armed));
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
        // Everything this iteration will emit is out: release what the
        // transport batched before the loop blocks for input again.
        env.transport.flush();

        // Publish our execution frontier so crash windows (and tests) can
        // key on commit progress across threads.
        if let Some(slot) = chaos.frontiers.get(id.as_usize()) {
            slot.store(engine.last_executed().0, Ordering::Relaxed);
        }
        if let Some((window, phase)) = window.as_mut() {
            let frontiers = chaos.frontiers.iter().map(|f| f.load(Ordering::Relaxed));
            let others = window.others_frontier(frontiers);
            match phase.step(window, engine.last_executed().0, others) {
                // Going down: a crashed host's pending timers die with it
                // (fresh ones are armed by whatever runs after recovery).
                Some(WindowEvent::Crash) => env.timers.clear(),
                // Rejoin via state transfer: ask every peer for the latest
                // stable checkpoint past our frontier.
                Some(WindowEvent::Recover) => {
                    let request = recovery_request(engine);
                    for to in (0..n).filter(|to| *to != id.as_usize()) {
                        env.transport
                            .send_peer(id, ReplicaId(to as u32), Arc::clone(&request));
                    }
                }
                None => {}
            }
        }

        // Publish our view so submission paths can find the primary.
        tracker.observe(engine.id(), engine.view());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(protocol: ProtocolId, txns: usize) -> ClusterSummary {
        let cluster = Cluster::start(protocol, 1, 10);
        let summary = cluster.run_workload(txns, 4, Duration::from_secs(30));
        cluster.shutdown();
        summary
    }

    #[test]
    fn flexi_bft_commits_real_crypto_workload() {
        let summary = run(ProtocolId::FlexiBft, 100);
        assert_eq!(summary.completed_txns, 100);
        assert!(summary.throughput_tps > 0.0);
        assert_eq!(summary.dropped_messages, 0);
    }

    #[test]
    fn flexi_zz_commits_real_crypto_workload() {
        let summary = run(ProtocolId::FlexiZz, 100);
        assert_eq!(summary.completed_txns, 100);
    }

    #[test]
    fn minbft_commits_real_crypto_workload() {
        let summary = run(ProtocolId::MinBft, 50);
        assert_eq!(summary.completed_txns, 50);
    }

    #[test]
    fn pbft_commits_real_crypto_workload() {
        let summary = run(ProtocolId::Pbft, 50);
        assert_eq!(summary.completed_txns, 50);
    }

    #[test]
    fn full_inboxes_drop_instead_of_deadlocking() {
        // Two replicas with mutually full inboxes used to deadlock on the
        // old blocking `send`; `try_send` must shed the message and count
        // the drop without ever blocking the calling replica thread.
        let (tx, _rx) = bounded::<Input>(1);
        assert!(tx.try_send(Input::Client(Vec::new())).is_ok());
        let (reply_tx, _reply_rx) = bounded::<ClientReply>(1);
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
    }

    #[test]
    fn submissions_route_to_the_published_primary() {
        // Build a cluster, then force the tracker's board forward: submit
        // must follow the published view's primary, not replica 0.
        let cluster = Cluster::start(ProtocolId::Pbft, 1, 10);
        assert_eq!(cluster.current_primary(), ReplicaId(0));
        cluster
            .tracker
            .observe(ReplicaId(3), flexitrust_types::View(1));
        assert_eq!(cluster.current_primary(), ReplicaId(1));
        cluster.shutdown();
    }
}
