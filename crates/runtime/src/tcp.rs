//! The TCP deployment: real message bytes over real loopback sockets.
//!
//! Same engines, same [`flexitrust_host::Dispatcher`], same replica loop as
//! the channel cluster (`crate::cluster`) — only the transport differs.
//! Every replica owns:
//!
//! * a **listener** on an ephemeral loopback port, whose acceptor thread
//!   spawns one reader thread per inbound connection; readers decode
//!   [`flexitrust_wire`] frames and feed the replica's inbox;
//! * one **writer thread per peer** (its own listener included, so
//!   self-addressed broadcast copies cross the loopback like everything
//!   else) and one for the client's reply socket, each owning a connected
//!   `TcpStream` and draining a bounded byte queue.
//!
//! The replica thread itself never touches a socket and never blocks on a
//! full queue: sends go through `try_send` and shed load into the shared
//! drop counter, exactly like the channel transport — a replica stalled on
//! a slow peer must not deadlock the cluster.
//!
//! The client (the workload driver on the main thread) submits transaction
//! batches as [`Frame::Submit`] over a cached connection to the current
//! primary — resolved through the shared [`PrimaryTracker`], not a
//! hard-coded replica 0 — and collects [`Frame::Reply`] frames through a
//! dedicated reply listener every replica connects back to.

use crossbeam::channel::{bounded, Receiver, Sender};
use flexitrust_host::build_replica;
use flexitrust_protocol::{ClientReply, SharedMessage};
use flexitrust_trusted::{AttestationMode, EnclaveRegistry, TrustedHardware};
use flexitrust_types::{ProtocolId, ReplicaId, SystemConfig, Transaction};
use flexitrust_wire::{read_frame, write_frame, Frame};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::cluster::{
    cluster_config, drive_workload, replica_loop, ClusterSummary, Input, ReplicaChaos, Transport,
};
use crate::primary::PrimaryTracker;

/// Depth of each writer thread's byte queue; overflow is dropped and
/// counted, mirroring the channel transport's inbox bound.
const WRITER_QUEUE: usize = 1 << 16;

/// The socket transport: encodes outbound traffic to wire frames and hands
/// the bytes to the per-destination writer threads. Queues carry
/// `Arc<Vec<u8>>` so a broadcast encodes its frame once and every
/// destination shares the same buffer.
struct SocketTransport {
    /// One queue per peer listener (self included).
    writers: Vec<Sender<Arc<Vec<u8>>>>,
    /// The queue towards the client's reply listener.
    reply_writer: Sender<Arc<Vec<u8>>>,
    dropped: Arc<AtomicU64>,
}

impl SocketTransport {
    fn push(&self, to: usize, bytes: Arc<Vec<u8>>) {
        // An out-of-range destination (a corrupt replica id) is a drop,
        // not a panic: the worker thread must outlive bad input.
        match self.writers.get(to) {
            Some(writer) if writer.try_send(bytes).is_ok() => {}
            _ => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Transport for SocketTransport {
    fn send_peer(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage) {
        let bytes = Arc::new(flexitrust_wire::encode_message(from, &msg));
        self.push(to.as_usize(), bytes);
    }

    fn broadcast_peer(&mut self, from: ReplicaId, replicas: usize, msg: SharedMessage) {
        // One serialisation per broadcast, not per destination: every
        // writer queue shares the same encoded frame.
        let bytes = Arc::new(flexitrust_wire::encode_message(from, &msg));
        for to in 0..replicas {
            self.push(to, Arc::clone(&bytes));
        }
    }

    fn send_reply(&mut self, _from: ReplicaId, reply: ClientReply) {
        let bytes = Arc::new(flexitrust_wire::encode_frame(&Frame::Reply { reply }));
        if self.reply_writer.try_send(bytes).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A running loopback-TCP cluster for one protocol.
pub struct TcpCluster {
    config: Arc<SystemConfig>,
    addrs: Vec<SocketAddr>,
    control: Vec<Sender<Input>>,
    replies: Receiver<ClientReply>,
    reply_addr: SocketAddr,
    tracker: PrimaryTracker,
    dropped: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    replica_handles: Vec<JoinHandle<()>>,
    io_handles: Vec<JoinHandle<()>>,
    /// Cached client→replica submission connections, keyed by replica.
    submit_streams: Mutex<HashMap<u32, TcpStream>>,
}

impl TcpCluster {
    /// Starts `n` replica threads for `protocol` with fault threshold `f`
    /// and the given batch size, connected over loopback TCP sockets, using
    /// real Ed25519 attestations.
    pub fn start(protocol: ProtocolId, f: usize, batch_size: usize) -> std::io::Result<Self> {
        Self::start_with_workers(protocol, f, batch_size, 1)
    }

    /// Like [`TcpCluster::start`], with `exec_workers` execution-layer
    /// shard workers per replica (1 = serial). Commit sequences and state
    /// digests are identical for every worker count.
    pub fn start_with_workers(
        protocol: ProtocolId,
        f: usize,
        batch_size: usize,
        exec_workers: usize,
    ) -> std::io::Result<Self> {
        let config =
            Arc::new(cluster_config(protocol, f, batch_size).with_exec_workers(exec_workers));
        let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Real);
        let tracker = PrimaryTracker::new(config.n);
        let dropped = Arc::new(AtomicU64::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));

        // Bind every listener before any thread connects anywhere: a
        // connect against a bound-but-not-yet-accepting listener parks in
        // the kernel backlog instead of failing.
        let listeners: Vec<TcpListener> = (0..config.n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<std::io::Result<_>>()?;
        let reply_listener = TcpListener::bind("127.0.0.1:0")?;
        let reply_addr = reply_listener.local_addr()?;

        let (reply_tx, reply_rx) = bounded::<ClientReply>(1 << 16);
        let mut control = Vec::with_capacity(config.n);
        let mut replica_handles = Vec::with_capacity(config.n);
        let mut io_handles = Vec::new();

        // The client-side reply ingestion: accept one connection per
        // replica, decode reply frames, feed the shared reply channel.
        let reply_dropped = Arc::clone(&dropped);
        io_handles.push(spawn_acceptor(
            reply_listener,
            Arc::clone(&shutdown),
            move |stream| {
                let reply_tx = reply_tx.clone();
                let dropped = Arc::clone(&reply_dropped);
                std::thread::spawn(move || {
                    let mut stream = stream;
                    loop {
                        match read_frame(&mut stream) {
                            Ok(Some(Frame::Reply { reply })) => {
                                if reply_tx.send(reply).is_err() {
                                    return;
                                }
                            }
                            Ok(Some(_)) => {}
                            Ok(None) => return,
                            Err(_) => {
                                // A torn or malformed frame severs the
                                // connection; count it so a codec
                                // regression shows up as drops, not as an
                                // undiagnosed workload timeout.
                                dropped.fetch_add(1, Ordering::Relaxed);
                                return;
                            }
                        }
                    }
                });
            },
        ));

        for (i, listener) in listeners.into_iter().enumerate() {
            // lint:allow(T02): i is a local loop index over n listeners, not peer bytes; n is far below u32::MAX
            let id = ReplicaId(i as u32);
            let (inbox_tx, inbox_rx) = bounded::<Input>(1 << 16);
            control.push(inbox_tx.clone());

            // Inbound: acceptor + per-connection readers feeding the inbox.
            let reader_dropped = Arc::clone(&dropped);
            io_handles.push(spawn_acceptor(
                listener,
                Arc::clone(&shutdown),
                move |stream| {
                    let inbox = inbox_tx.clone();
                    let dropped = Arc::clone(&reader_dropped);
                    std::thread::spawn(move || {
                        let mut stream = stream;
                        loop {
                            let frame = match read_frame(&mut stream) {
                                Ok(Some(frame)) => frame,
                                Ok(None) => return,
                                Err(_) => {
                                    // A torn or malformed frame severs the
                                    // connection; count it so a codec
                                    // regression shows up as drops, not as
                                    // an undiagnosed workload timeout.
                                    dropped.fetch_add(1, Ordering::Relaxed);
                                    return;
                                }
                            };
                            // Blocking sends: a full inbox exerts TCP
                            // backpressure on the sender instead of
                            // dropping on the receive side.
                            let delivered = match frame {
                                Frame::Peer { from, msg } => {
                                    inbox.send(Input::Peer(from, Arc::new(msg))).is_ok()
                                }
                                Frame::Submit { txns } => inbox.send(Input::Client(txns)).is_ok(),
                                Frame::Reply { .. } => true,
                            };
                            if !delivered {
                                return;
                            }
                        }
                    });
                },
            ));

            // Outbound: one writer thread per destination listener.
            let mut writers = Vec::with_capacity(config.n);
            for &peer_addr in &addrs {
                let (wtx, wrx) = bounded::<Arc<Vec<u8>>>(WRITER_QUEUE);
                writers.push(wtx);
                io_handles.push(spawn_writer(peer_addr, wrx, Arc::clone(&dropped)));
            }
            let (reply_wtx, reply_wrx) = bounded::<Arc<Vec<u8>>>(WRITER_QUEUE);
            io_handles.push(spawn_writer(reply_addr, reply_wrx, Arc::clone(&dropped)));

            let transport = SocketTransport {
                writers,
                reply_writer: reply_wtx,
                dropped: Arc::clone(&dropped),
            };
            let mut engine = build_replica(
                protocol,
                Arc::clone(&config),
                id,
                registry.clone(),
                TrustedHardware::default_enclave(),
            )
            .engine;
            let thread_tracker = tracker.clone();
            let chaos = ReplicaChaos::inert(config.n);
            replica_handles.push(std::thread::spawn(move || {
                replica_loop(&mut *engine, inbox_rx, transport, thread_tracker, chaos);
            }));
        }

        Ok(TcpCluster {
            config,
            addrs,
            control,
            replies: reply_rx,
            reply_addr,
            tracker,
            dropped,
            shutdown,
            replica_handles,
            io_handles,
            submit_streams: Mutex::new(HashMap::new()),
        })
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The replica currently believed to lead (the primary of the most
    /// advanced view any replica has published).
    pub fn current_primary(&self) -> ReplicaId {
        self.tracker.current_primary()
    }

    /// Submits a batch of transactions over TCP to the current primary.
    ///
    /// Locally detectable failures (refused connect, failed write) are
    /// retried once on a fresh connection and then counted as a drop — a
    /// lost submission surfaces in `ClusterSummary::dropped_messages`
    /// instead of silently starving the workload. A write into a socket
    /// the peer has already closed can still succeed locally (the bytes
    /// die in the OS buffer); as on any real network, only the client's
    /// own timeout-and-retransmit recovers that.
    pub fn submit(&self, txns: Vec<Transaction>) {
        use std::collections::hash_map::Entry;
        let primary = self.tracker.current_primary();
        let frame = Frame::Submit { txns };
        // A poisoned lock means a previous submit panicked mid-write; the
        // stream cache is still structurally valid (worst case a dead
        // stream, which the write-retry below already replaces), so
        // recover it rather than cascade the panic into the driver.
        let mut streams = self
            .submit_streams
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for _ in 0..2 {
            let stream = match streams.entry(primary.0) {
                Entry::Occupied(entry) => entry.into_mut(),
                Entry::Vacant(entry) => {
                    // A primary id outside the address table (view number
                    // corruption) retries and then counts as a drop.
                    let Some(addr) = self.addrs.get(primary.as_usize()) else {
                        continue;
                    };
                    match TcpStream::connect(addr) {
                        Ok(stream) => entry.insert(stream),
                        Err(_) => continue,
                    }
                }
            };
            if write_frame(stream, &frame).is_ok() {
                return;
            }
            streams.remove(&primary.0);
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
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

    /// Stops every replica, writer and acceptor thread.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for tx in &self.control {
            let _ = tx.send(Input::Shutdown);
        }
        // Replica threads exit, dropping their transports; writer queues
        // disconnect, writer threads close their streams, and the peer
        // readers on the other end see EOF.
        for handle in self.replica_handles {
            let _ = handle.join();
        }
        drop(self.submit_streams);
        // Unblock every acceptor parked in accept() so it can observe the
        // shutdown flag.
        for addr in self.addrs.iter().chain(std::iter::once(&self.reply_addr)) {
            let _ = TcpStream::connect(addr);
        }
        for handle in self.io_handles {
            let _ = handle.join();
        }
    }
}

/// Spawns the accept loop of `listener`: hands every inbound connection to
/// `on_conn` until the shutdown flag is raised. Transient accept errors
/// (ECONNABORTED, fd pressure) are skipped — one aborted handshake must
/// not retire the listener and strand the replica for the rest of the run.
fn spawn_acceptor(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    on_conn: impl Fn(TcpStream) + Send + 'static,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            if let Ok(stream) = stream {
                let _ = stream.set_nodelay(true);
                on_conn(stream);
            }
        }
    })
}

/// Spawns a writer thread: connects to `addr` and drains `queue` onto the
/// socket until the queue disconnects or the socket dies. Frames that
/// cannot reach the wire are *counted*: a failed connect or a dead socket
/// tallies every frame still in (or later pushed into) the queue as a
/// drop until the queue disconnects, and once the thread exits the
/// dropped receiver makes every subsequent `try_send` fail into the same
/// counter — traffic to an unreachable peer must show up as counted
/// drops, never drain silently into the void.
fn spawn_writer(
    addr: SocketAddr,
    queue: Receiver<Arc<Vec<u8>>>,
    dropped: Arc<AtomicU64>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let count_drain = |queue: &Receiver<Arc<Vec<u8>>>| {
            while queue.recv().is_ok() {
                dropped.fetch_add(1, Ordering::Relaxed);
            }
        };
        let Ok(mut stream) = TcpStream::connect(addr) else {
            count_drain(&queue);
            return;
        };
        let _ = stream.set_nodelay(true);
        while let Ok(bytes) = queue.recv() {
            if stream.write_all(&bytes).is_err() {
                dropped.fetch_add(1, Ordering::Relaxed);
                count_drain(&queue);
                return;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flexi_bft_commits_over_loopback_sockets() {
        let cluster = TcpCluster::start(ProtocolId::FlexiBft, 1, 10).expect("cluster starts");
        let summary = cluster.run_workload(100, 4, Duration::from_secs(60));
        cluster.shutdown();
        assert_eq!(summary.completed_txns, 100);
        assert!(summary.throughput_tps > 0.0);
    }

    #[test]
    fn pbft_commits_over_loopback_sockets() {
        let cluster = TcpCluster::start(ProtocolId::Pbft, 1, 10).expect("cluster starts");
        let summary = cluster.run_workload(50, 4, Duration::from_secs(60));
        cluster.shutdown();
        assert_eq!(summary.completed_txns, 50);
    }
}
