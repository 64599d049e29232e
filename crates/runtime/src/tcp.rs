//! The socket network: real message bytes over real loopback sockets.
//!
//! [`TcpCluster`] is the one threaded cluster (`crate::cluster`) over
//! [`Sockets`]: the same engines, start path, replica loop, crash windows
//! and shutdown as the channel cluster; only the network differs. Every
//! replica owns:
//!
//! * a **listener** on an ephemeral loopback port, whose acceptor thread
//!   spawns one reader thread per inbound connection; readers
//!   (`peer_reader_loop`) decode [`flexitrust_wire`] frames and feed the
//!   replica's inbox;
//! * one **writer thread per other replica** and one for the client's reply
//!   socket, each owning a connected `TcpStream` and draining a bounded
//!   queue of encoded frames. A replica's copies of its own messages never
//!   reach a socket: the replica loop delivers them in its own thread, so
//!   a cluster of n replicas opens n(n − 1) peer connections, not n².
//!
//! The replica thread itself never touches a socket and never blocks on a
//! full queue: sends go through `try_send` and shed load into the shared
//! drop counter, exactly like the channel transport — a replica stalled on
//! a slow peer must not deadlock the cluster.
//!
//! The client (the workload driver on the main thread) submits transaction
//! batches as [`Frame::Submit`] over a cached connection to the current
//! primary — resolved through the shared
//! [`PrimaryTracker`](crate::PrimaryTracker), not a hard-coded replica 0 —
//! and collects [`Frame::Reply`] frames through a dedicated reply listener
//! every replica connects back to.
//!
//! # Batched socket I/O
//!
//! A socket call costs far more than the frame it moves, so every hop
//! moves frames in batches; the bytes on each connection, and their order,
//! are exactly what one `write` per frame would have produced.
//!
//! * **Writers** (`writer_loop`) copy everything their queue already
//!   holds into one buffer and hand it to the socket in one `write`.
//! * **Readers** (`buffered_reader`) pull whatever the socket holds into
//!   one buffer and decode frames out of it, instead of three `read`s a
//!   frame.
//! * **Replies** of one delivery (a committed batch answers every one of
//!   its transactions at once) are encoded back to back into one buffer,
//!   sized once, each frame's fixed head written whole
//!   (`Transport::send_replies`, [`encode_reply_into`]), and travel to the
//!   reply writer as one queue item.
//! * **The client's reply readers** (`reply_reader_loop`) decode a socket
//!   read's worth of replies in one pass ([`decode_replies`], one
//!   fixed-layout decoder per frame), count them once and hand them to the
//!   driver in one channel operation, not one per reply. Only a reply that
//!   straddles a refill goes through `read_frame`.
//!
//! Two invariants keep this invisible to the protocols:
//!
//! 1. **Hand over before blocking.** A writer flushes its buffer whenever
//!    its queue runs empty, immediately before the blocking `recv`; the
//!    replica loop hands its replies to the transport before it waits for
//!    input; a reply reader passes on each pass's replies before its next
//!    `fill_buf` or straddle `read_frame`, the only calls that can block
//!    in `read`. Batching only ever merges what was already waiting: a
//!    lone frame, or a decoded reply, is never held back for company.
//! 2. **Counted drops.** A failed `write` loses every frame the buffer
//!    held and a rejected reply buffer every reply in it; the drop counter
//!    grows by that number of *frames*, never by one per buffer. A reader
//!    counts each frame it cannot pass on: torn, malformed, sent to the
//!    wrong kind of connection, or refused by a replica that is gone.
//!
//! [`TcpCluster::io_stats`] reports how many frames each socket call moved.
//! Every socket thread tallies its own calls, frames and bytes on a cache
//! line no other live thread writes ([`Striped`]); `io_stats` sums them.

use crossbeam::channel::{bounded, Receiver, Sender};
use flexitrust_protocol::{ClientReply, SharedMessage};
use flexitrust_types::{ReplicaId, Striped, Transaction};
use flexitrust_wire::{decode_replies, encode_reply_into, read_frame, write_frame, Frame};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::cluster::{Input, ThreadedCluster, Transport, Wiring};

/// Depth of each writer thread's queue; overflow is dropped and counted,
/// mirroring the channel transport's inbox bound.
const WRITER_QUEUE: usize = 1 << 16;

/// Capacity of the buffer between each socket and its reader or writer
/// loop: the most bytes one `read` or `write` moves. A frame larger than
/// this (a big `PrePrepare`) goes to the socket directly, uncopied.
const IO_BUFFER_BYTES: usize = 64 << 10;

/// One or more complete encoded frames back to back, and how many: the
/// number a drop of these bytes adds to the drop counter.
#[derive(Debug)]
struct Frames {
    bytes: Vec<u8>,
    count: u64,
}

/// What a writer queue carries. Shared, so a broadcast encodes its frame
/// once for every destination; and one pointer wide, because each of the
/// n² writer queues (n − 1 peers and the client, per replica) allocates all
/// `WRITER_QUEUE` slots up front.
type Outbound = Arc<Frames>;

fn outbound(bytes: Vec<u8>, count: u64) -> Outbound {
    Arc::new(Frames { bytes, count })
}

/// Socket-level totals of a [`TcpCluster`], all connections together
/// (peer links, client submissions and the reply path).
///
/// `frames_written / write_calls` and `frames_read / read_calls` are the
/// batching factors of the socket path; unbatched they would be 1 and ⅓.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpIoStats {
    /// Frames handed to a socket by a `write` that succeeded.
    pub frames_written: u64,
    /// Successful `write` calls on a socket.
    pub write_calls: u64,
    /// Bytes those calls moved.
    pub bytes_written: u64,
    /// Frames decoded off a socket.
    pub frames_read: u64,
    /// Successful `read` calls on a socket (the one reporting EOF
    /// included).
    pub read_calls: u64,
    /// Bytes those calls moved.
    pub bytes_read: u64,
}

/// One thread's share of the counters behind [`TcpIoStats`]. Statistics
/// only: nothing is published through them, so every access is `Relaxed`.
#[derive(Default)]
struct IoCell {
    frames_written: AtomicU64,
    write_calls: AtomicU64,
    bytes_written: AtomicU64,
    frames_read: AtomicU64,
    read_calls: AtomicU64,
    bytes_read: AtomicU64,
}

/// The live counters behind [`TcpIoStats`]: each socket thread counts in
/// its own cell (`.local()`), [`snapshot`] sums the cells.
type IoCounters = Striped<IoCell>;

fn snapshot(io: &IoCounters) -> TcpIoStats {
    let mut total = TcpIoStats::default();
    for cell in io.cells() {
        total.frames_written += cell.frames_written.load(Ordering::Relaxed);
        total.write_calls += cell.write_calls.load(Ordering::Relaxed);
        total.bytes_written += cell.bytes_written.load(Ordering::Relaxed);
        total.frames_read += cell.frames_read.load(Ordering::Relaxed);
        total.read_calls += cell.read_calls.load(Ordering::Relaxed);
        total.bytes_read += cell.bytes_read.load(Ordering::Relaxed);
    }
    total
}

/// A stream that counts the `read`/`write` calls reaching it and the bytes
/// they move: wrapped *inside* the buffered reader or writer, it sees the
/// calls that reach the socket, not the ones the buffer absorbs.
struct Counted<S> {
    inner: S,
    io: Arc<IoCounters>,
}

impl<S: Write> Write for Counted<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        let io = self.io.local();
        io.write_calls.fetch_add(1, Ordering::Relaxed);
        io.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: Read> Read for Counted<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        let io = self.io.local();
        io.read_calls.fetch_add(1, Ordering::Relaxed);
        io.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// The socket transport: encodes outbound traffic to wire frames and hands
/// the bytes to the per-destination writer threads.
pub struct SocketTransport {
    /// One queue per replica, indexed by replica id; `None` at the sending
    /// replica's own id, which no frame is ever addressed to.
    writers: Vec<Option<Sender<Outbound>>>,
    /// The queue towards the client's reply listener.
    reply_writer: Sender<Outbound>,
    dropped: Arc<AtomicU64>,
}

impl SocketTransport {
    /// Queues `frames` for a writer thread without blocking. What the
    /// queue cannot take — it is full, its writer is gone, or there is no
    /// such writer (a corrupt replica id must be a drop, not a panic: the
    /// worker thread outlives bad input) — is dropped and counted, frame
    /// by frame.
    fn queue_or_drop(&self, writer: Option<&Sender<Outbound>>, frames: Outbound) {
        let count = frames.count;
        #[expect(clippy::disallowed_methods, reason = "Err is counted as a drop")]
        if writer.is_none_or(|writer| writer.try_send(frames).is_err()) {
            self.dropped.fetch_add(count, Ordering::Relaxed);
        }
    }
}

impl Transport for SocketTransport {
    fn send_peer(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage) {
        let frame = outbound(flexitrust_wire::encode_message(from, &msg), 1);
        let writer = self.writers.get(to.as_usize()).and_then(Option::as_ref);
        self.queue_or_drop(writer, frame);
    }

    fn broadcast_peer(&mut self, from: ReplicaId, _replicas: usize, msg: SharedMessage) {
        // One serialisation per broadcast, not per destination: every
        // writer queue shares the same encoded frame.
        let frame = outbound(flexitrust_wire::encode_message(from, &msg), 1);
        for writer in self.writers.iter().flatten() {
            self.queue_or_drop(Some(writer), Arc::clone(&frame));
        }
    }

    fn send_replies(&mut self, replies: Vec<ClientReply>) {
        let size = replies.iter().map(ClientReply::wire_size_bytes).sum();
        let mut bytes = Vec::with_capacity(size);
        for reply in &replies {
            encode_reply_into(&mut bytes, reply);
        }
        let frames = outbound(bytes, replies.len() as u64);
        self.queue_or_drop(Some(&self.reply_writer), frames);
    }
}

/// The client's cached submission connections, at most one per replica.
#[expect(
    clippy::disallowed_types,
    reason = "this is the crate's only lock; it is held across the submission socket \
              write it serialises, but across no other lock and no channel op"
)]
type SubmitStreams = std::sync::Mutex<BTreeMap<u32, Counted<TcpStream>>>;

/// A running loopback-TCP cluster for one protocol.
pub type TcpCluster = ThreadedCluster<Sockets>;

impl TcpCluster {
    /// Socket calls, frames and bytes of every connection so far. Frames
    /// still in a queue or a socket buffer are in neither direction's
    /// totals yet, so the two sides agree only once the cluster is idle.
    pub fn io_stats(&self) -> TcpIoStats {
        snapshot(&self.network.io)
    }
}

/// The socket network: each replica's listener, acceptor, readers and
/// writers, and the client's reply listener and submission connections.
pub struct Sockets {
    addrs: Vec<SocketAddr>,
    reply_addr: SocketAddr,
    io: Arc<IoCounters>,
    shutdown: Arc<AtomicBool>,
    /// Every acceptor and writer thread.
    handles: Vec<JoinHandle<()>>,
    /// Cached client→replica submission connections, keyed by replica.
    submit_streams: SubmitStreams,
}

impl Wiring for Sockets {
    type Start<C> = io::Result<C>;
    type Transport = SocketTransport;

    fn connect(
        inboxes: &[Sender<Input>],
        replies: Sender<Vec<ClientReply>>,
        dropped: &Arc<AtomicU64>,
    ) -> io::Result<(Self, Vec<SocketTransport>)> {
        let io = Arc::new(IoCounters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        // Bind every listener before any thread connects anywhere: a
        // connect against a bound-but-not-yet-accepting listener parks in
        // the kernel backlog instead of failing.
        let listeners: Vec<TcpListener> = (inboxes.iter())
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<_>>()?;
        let reply_listener = TcpListener::bind("127.0.0.1:0")?;
        let reply_addr = reply_listener.local_addr()?;

        // The client-side reply ingestion: accept one connection per
        // replica, decode reply frames, feed the shared reply channel.
        let mut handles = vec![spawn_acceptor(
            reply_listener,
            &shutdown,
            reply_reader_loop,
            replies,
            dropped,
            &io,
        )];

        let mut transports = Vec::with_capacity(inboxes.len());
        for (i, (listener, inbox)) in listeners.into_iter().zip(inboxes).enumerate() {
            // Inbound: acceptor + per-connection readers feeding the inbox.
            handles.push(spawn_acceptor(
                listener,
                &shutdown,
                peer_reader_loop,
                inbox.clone(),
                dropped,
                &io,
            ));

            // Outbound: one writer thread per other replica's listener, and
            // one to the client's reply listener.
            let mut writer = |addr: SocketAddr| {
                let (tx, rx) = bounded::<Outbound>(WRITER_QUEUE);
                handles.push(spawn_writer(addr, rx, Arc::clone(dropped), Arc::clone(&io)));
                tx
            };
            let writers = (addrs.iter().enumerate())
                .map(|(peer, &addr)| (peer != i).then(|| writer(addr)))
                .collect();
            transports.push(SocketTransport {
                writers,
                reply_writer: writer(reply_addr),
                dropped: Arc::clone(dropped),
            });
        }

        let network = Sockets {
            addrs,
            reply_addr,
            io,
            shutdown,
            handles,
            submit_streams: SubmitStreams::new(BTreeMap::new()),
        };
        Ok((network, transports))
    }

    fn map<C, D>(start: io::Result<C>, f: impl FnOnce(C) -> D) -> io::Result<D> {
        start.map(f)
    }

    /// Writes the batch as a [`Frame::Submit`] to the primary's listener.
    /// A refused connect or a failed write is retried once on a fresh
    /// connection.
    fn submit(
        &self,
        _inboxes: &[Sender<Input>],
        primary: ReplicaId,
        txns: Vec<Transaction>,
    ) -> bool {
        use std::collections::btree_map::Entry;
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
                        Ok(stream) => entry.insert(Counted {
                            inner: stream,
                            io: Arc::clone(&self.io),
                        }),
                        Err(_) => continue,
                    }
                }
            };
            if write_frame(stream, &frame).is_ok() {
                self.io
                    .local()
                    .frames_written
                    .fetch_add(1, Ordering::Relaxed);
                return true;
            }
            streams.remove(&primary.0);
        }
        false
    }

    /// The replica threads have exited, dropping their transports: writer
    /// queues disconnect, writer threads close their streams, and the peer
    /// readers on the other end see EOF. What is left is to close the
    /// submission streams and to wake every acceptor parked in `accept()`
    /// so it can observe the shutdown flag.
    fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        drop(self.submit_streams);
        for addr in self.addrs.iter().chain(std::iter::once(&self.reply_addr)) {
            let _ = TcpStream::connect(addr);
        }
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// Spawns the accept loop of `listener`: runs `reader` on every inbound
/// connection, in a thread of its own, feeding `feed`, until the shutdown
/// flag is raised. Transient accept errors (ECONNABORTED, fd pressure) are
/// skipped — one aborted handshake must not retire the listener and strand
/// the replica for the rest of the run.
fn spawn_acceptor<T: Send + 'static>(
    listener: TcpListener,
    shutdown: &Arc<AtomicBool>,
    reader: fn(TcpStream, &Sender<T>, &AtomicU64, Arc<IoCounters>),
    feed: Sender<T>,
    dropped: &Arc<AtomicU64>,
    io: &Arc<IoCounters>,
) -> JoinHandle<()> {
    let (shutdown, dropped, io) = (Arc::clone(shutdown), Arc::clone(dropped), Arc::clone(io));
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            if let Ok(stream) = stream {
                let _ = stream.set_nodelay(true);
                let (feed, dropped, io) = (feed.clone(), Arc::clone(&dropped), Arc::clone(&io));
                std::thread::spawn(move || reader(stream, &feed, &dropped, io));
            }
        }
    })
}

/// Spawns a writer thread: connects to `addr` and runs [`writer_loop`] on
/// the socket until the queue disconnects or the socket dies. A failed
/// connect tallies every frame in (or later pushed into) the queue as a
/// drop until the queue disconnects.
fn spawn_writer(
    addr: SocketAddr,
    queue: Receiver<Outbound>,
    dropped: Arc<AtomicU64>,
    io: Arc<IoCounters>,
) -> JoinHandle<()> {
    std::thread::spawn(move || match TcpStream::connect(addr) {
        Ok(stream) => {
            let _ = stream.set_nodelay(true);
            writer_loop(stream, &queue, &dropped, io);
        }
        Err(_) => count_drain(&queue, &dropped),
    })
}

/// Tallies every frame still in (or later pushed into) `queue` as a drop
/// until the queue disconnects. Once the writer thread then exits, the
/// dropped receiver makes every subsequent `try_send` fail into the same
/// counter — traffic to an unreachable peer must show up as counted
/// drops, never drain silently into the void.
fn count_drain(queue: &Receiver<Outbound>, dropped: &AtomicU64) {
    while let Ok(lost) = queue.recv() {
        dropped.fetch_add(lost.count, Ordering::Relaxed);
    }
}

/// The buffered end of a writer: a `BufWriter` that knows how many frames
/// its buffer holds, so a failed write can be charged exactly.
struct FrameSink<W: Write> {
    out: BufWriter<Counted<W>>,
    /// Frames copied into `out` that no `write` has carried yet.
    held: u64,
}

impl<W: Write> FrameSink<W> {
    /// Buffers `next`, or writes it straight through when it is larger
    /// than the whole buffer. Makes room first when it does not fit, rather
    /// than let the `BufWriter` flush unseen inside `write_all`: `held`
    /// stays exact, and every `write` carries whole frames.
    fn push(&mut self, next: &Outbound) -> io::Result<()> {
        if self.out.buffer().len() + next.bytes.len() > self.out.capacity() {
            self.flush()?;
        }
        self.out.write_all(&next.bytes)?;
        self.held += next.count;
        if self.out.buffer().is_empty() {
            self.written();
        }
        Ok(())
    }

    /// Hands the buffer to the sink in one `write`.
    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()?;
        self.written();
        Ok(())
    }

    fn written(&mut self) {
        let io = self.out.get_ref().io.local();
        io.frames_written.fetch_add(self.held, Ordering::Relaxed);
        self.held = 0;
    }
}

/// Drains `queue` onto `sink` until the queue disconnects or a write
/// fails, one `write` per wake-up: whatever the queue already holds is
/// copied into one buffer, which is flushed when the queue runs empty —
/// immediately before blocking on it, so a frame never waits in the buffer
/// for a successor — or when the next frame no longer fits. Frames reach
/// `sink` in queue order.
///
/// Frames that cannot reach the sink are *counted*: a failed write adds
/// every frame the buffer held to `dropped`, then everything still queued
/// (see [`count_drain`]).
fn writer_loop<W: Write>(
    sink: W,
    queue: &Receiver<Outbound>,
    dropped: &AtomicU64,
    io: Arc<IoCounters>,
) {
    let mut sink = FrameSink {
        out: BufWriter::with_capacity(IO_BUFFER_BYTES, Counted { inner: sink, io }),
        held: 0,
    };
    let in_hand = loop {
        let next = match queue.try_recv() {
            Ok(next) => next,
            Err(_) => {
                if sink.flush().is_err() {
                    break 0;
                }
                match queue.recv() {
                    Ok(next) => next,
                    Err(_) => return,
                }
            }
        };
        if sink.push(&next).is_err() {
            break next.count;
        }
    };
    // The sink is dead: what the buffer held and the frame in hand are
    // lost (dropping the `BufWriter` would try to write them once more).
    dropped.fetch_add(sink.held + in_hand, Ordering::Relaxed);
    drop(sink.out.into_parts());
    count_drain(queue, dropped);
}

/// One inbound connection of a replica: decodes the frames `stream`
/// delivers until it ends, and feeds the peer messages and client batches
/// among them to the replica's `inbox`. The send blocks: a full inbox
/// exerts TCP backpressure on the sender instead of dropping on the
/// receive side. A torn or malformed frame, a reply (only the client's
/// reply listener takes those), or a frame the inbox refuses because the
/// replica thread is gone is a counted drop that closes the connection.
fn peer_reader_loop(
    stream: impl Read,
    inbox: &Sender<Input>,
    dropped: &AtomicU64,
    io: Arc<IoCounters>,
) {
    let mut stream = buffered_reader(stream, Arc::clone(&io));
    loop {
        let input = match read_frame(&mut stream) {
            Ok(None) => return,
            Ok(Some(Frame::Peer { from, msg })) => Input::Peer(from, Arc::new(msg)),
            Ok(Some(Frame::Submit { txns })) => Input::Client(txns),
            // Counted, so that a codec regression or a misrouted frame
            // shows up as drops, not as an undiagnosed workload timeout.
            Ok(Some(Frame::Reply { .. })) | Err(_) => break,
        };
        io.local().frames_read.fetch_add(1, Ordering::Relaxed);
        if inbox.send(input).is_err() {
            break;
        }
    }
    dropped.fetch_add(1, Ordering::Relaxed);
}

/// One client-side reply connection: decodes the reply frames `stream`
/// delivers until it ends or tears, and hands them to `replies` a socket
/// read's worth at a time.
///
/// Each pass decodes every reply already whole in the buffer in one
/// [`decode_replies`] call, counts them once and hands them over before
/// anything can block: the next pass's `fill_buf` reads the socket only
/// when the buffer is empty. Only a frame that straddles a refill, or is
/// larger than the buffer, goes through [`read_frame`], on a pass of its
/// own. A malformed frame, or any frame that is not a reply, is a counted
/// drop that closes the connection; the replies decoded ahead of it are
/// still handed over.
fn reply_reader_loop(
    stream: impl Read,
    replies: &Sender<Vec<ClientReply>>,
    dropped: &AtomicU64,
    io: Arc<IoCounters>,
) {
    let mut stream = buffered_reader(stream, Arc::clone(&io));
    loop {
        let mut decoded = Vec::new();
        let intact = match stream.fill_buf() {
            Ok([]) => return,
            Ok(buffered) => match decode_replies(buffered, &mut decoded) {
                Ok(0) => match read_frame(&mut stream) {
                    Ok(Some(Frame::Reply { reply })) => {
                        decoded.push(reply);
                        true
                    }
                    Ok(_) | Err(_) => false,
                },
                Ok(consumed) => {
                    stream.consume(consumed);
                    true
                }
                Err(_) => false,
            },
            Err(_) => false,
        };
        io.local()
            .frames_read
            .fetch_add(decoded.len() as u64, Ordering::Relaxed);
        if !decoded.is_empty() && replies.send(decoded).is_err() {
            return;
        }
        if !intact {
            // A torn, malformed or misdirected frame severs the
            // connection; count it so a codec regression shows up as
            // drops, not as an undiagnosed workload timeout.
            dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
}

/// The reading end of a connection: `read_frame` on this takes its
/// bytes out of one buffer, refilled by one `read` of whatever the socket
/// holds, instead of three `read`s on the socket per frame. End-of-stream
/// and torn-frame results are those of the unbuffered stream.
fn buffered_reader<R: Read>(stream: R, io: Arc<IoCounters>) -> BufReader<Counted<R>> {
    BufReader::with_capacity(IO_BUFFER_BYTES, Counted { inner: stream, io })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::reply;
    use crossbeam::channel::TryRecvError;
    use flexitrust_protocol::Message;
    use flexitrust_types::{ClientId, Digest, KvResult, ProtocolId, RequestId, SeqNum, View};
    use std::sync::Mutex;
    use std::time::Duration;

    /// An in-memory sink that records every `write` call it accepts and
    /// refuses call number `fail_at` (counting from 1).
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
        calls: usize,
        fail_at: Option<usize>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.fail_at == Some(self.calls) {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// `len` bytes of `tag` standing for `frames` frames: the writer loop
    /// never looks inside what it moves.
    fn filled(tag: u8, len: usize, frames: u64) -> Outbound {
        outbound(vec![tag; len], frames)
    }

    /// Runs the writer loop to completion over a closed queue holding
    /// `items`, on the calling thread.
    fn drain_into(sink: &mut Recorder, items: Vec<Outbound>) -> (u64, TcpIoStats) {
        let (tx, rx) = bounded(items.len().max(1));
        for item in items {
            assert!(tx.try_send(item).is_ok());
        }
        drop(tx);
        let dropped = AtomicU64::new(0);
        let io = Arc::new(IoCounters::default());
        writer_loop(sink, &rx, &dropped, Arc::clone(&io));
        (dropped.load(Ordering::Relaxed), snapshot(&io))
    }

    fn prepare(seq: u64) -> Vec<u8> {
        flexitrust_wire::encode_message(
            ReplicaId(2),
            &Message::Prepare {
                view: View(0),
                seq: SeqNum(seq),
                digest: Digest::from_u64_tag(seq),
                attestation: None,
            },
        )
    }

    #[test]
    fn a_backlog_is_one_write_and_the_bytes_are_the_frames_in_order() {
        let mut items: Vec<Outbound> = (0..100).map(|i| filled(i, 100, 1)).collect();
        // Larger than the whole buffer: flushes what precedes it, then
        // goes to the sink as it is.
        items.push(filled(200, IO_BUFFER_BYTES + 1, 1));
        items.extend((201..206).map(|i| filled(i, 100, 1)));
        let expected: Vec<u8> = items.iter().flat_map(|o| o.bytes.iter().copied()).collect();

        let mut sink = Recorder::default();
        let (dropped, io) = drain_into(&mut sink, items);
        let sizes: Vec<usize> = sink.writes.iter().map(Vec::len).collect();
        assert_eq!(sizes, [100 * 100, IO_BUFFER_BYTES + 1, 5 * 100]);
        assert_eq!(sink.writes.concat(), expected);
        assert_eq!(dropped, 0);
        assert_eq!((io.frames_written, io.write_calls), (106, 3));
        assert_eq!(io.bytes_written, expected.len() as u64);
    }

    #[test]
    fn a_failed_write_drops_every_frame_it_held_and_every_frame_still_queued() {
        // 200 buffers of three frames each; `per_write` of them fill one
        // write. The second write fails: its buffers, the one in hand that
        // triggered it and everything behind them are lost, frame by frame.
        let per_write = IO_BUFFER_BYTES / 1000;
        let items = (0..200).map(|i| filled(i as u8, 1000, 3)).collect();
        let mut sink = Recorder {
            fail_at: Some(2),
            ..Recorder::default()
        };
        let (dropped, io) = drain_into(&mut sink, items);
        assert_eq!(sink.writes.len(), 1);
        assert_eq!(sink.writes[0].len(), per_write * 1000);
        assert_eq!(sink.calls, 2, "nothing is written after the failure");
        assert_eq!(io.frames_written, 3 * per_write as u64);
        assert_eq!(dropped, 3 * (200 - per_write as u64));
    }

    #[test]
    fn a_failed_flush_before_blocking_drops_what_the_buffer_held() {
        let items = (0..7).map(|i| filled(i, 100, 1)).collect();
        let mut sink = Recorder {
            fail_at: Some(1),
            ..Recorder::default()
        };
        let (dropped, io) = drain_into(&mut sink, items);
        assert!(sink.writes.is_empty());
        assert_eq!(dropped, 7);
        assert_eq!(io.frames_written, 0);
    }

    #[test]
    fn a_closing_queue_leaves_nothing_behind_in_the_buffer() {
        // The writer is (or soon will be) parked in `recv` on an empty
        // queue; frames pushed then, and the disconnect after them, must
        // still put every byte on the sink before the loop returns.
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let written = Arc::new(Mutex::new(Vec::new()));
        let dropped = Arc::new(AtomicU64::new(0));
        let (tx, rx) = bounded::<Outbound>(16);
        let writer = {
            let sink = Shared(Arc::clone(&written));
            let dropped = Arc::clone(&dropped);
            std::thread::spawn(move || writer_loop(sink, &rx, &dropped, Arc::default()))
        };
        for i in 0..5 {
            tx.send(filled(i, 50, 1)).unwrap();
        }
        drop(tx);
        writer.join().unwrap();
        let expected: Vec<u8> = (0..5).flat_map(|i| [i; 50]).collect();
        assert_eq!(*written.lock().unwrap(), expected);
        assert_eq!(dropped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn queued_frames_cross_a_socket_in_one_write_and_a_lone_frame_is_not_held_back() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dropped = Arc::new(AtomicU64::new(0));
        let io = Arc::new(IoCounters::default());
        // 100 frames are waiting before the writer thread exists.
        let (tx, rx) = bounded::<Outbound>(256);
        let frames: Vec<Vec<u8>> = (0..=100).map(prepare).collect();
        let queued = |i: usize| outbound(frames[i].clone(), 1);
        for i in 0..100 {
            assert!(tx.try_send(queued(i)).is_ok());
        }
        let writer = spawn_writer(
            listener.local_addr().unwrap(),
            rx,
            Arc::clone(&dropped),
            Arc::clone(&io),
        );
        let (mut inbound, _) = listener.accept().unwrap();
        let mut received = vec![0u8; 100 * frames[0].len()];
        inbound.read_exact(&mut received).unwrap();
        assert_eq!(received, frames[..100].concat());

        // The writer has flushed and is parked on its empty queue (or about
        // to be). One more frame must arrive on its own, with no successor
        // to push it out: the read below would hang otherwise.
        tx.send(queued(100)).unwrap();
        let mut received = vec![0u8; frames[100].len()];
        inbound.read_exact(&mut received).unwrap();
        assert_eq!(received, frames[100]);

        drop(tx);
        writer.join().unwrap();
        assert_eq!(inbound.read(&mut [0u8; 1]).unwrap(), 0, "nothing follows");
        let stats = snapshot(&io);
        assert_eq!(stats.write_calls, 2, "one write per wake-up");
        assert_eq!(stats.frames_written, 101);
        assert_eq!(stats.bytes_written, 101 * frames[0].len() as u64);
        assert_eq!(dropped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn buffered_reader_decodes_many_frames_per_read() {
        let stream: Vec<u8> = (0..100).flat_map(prepare).collect();
        let io = Arc::new(IoCounters::default());
        let mut reader = buffered_reader(&stream[..], Arc::clone(&io));
        for seq in 0..100 {
            match read_frame(&mut reader).unwrap() {
                Some(Frame::Peer {
                    msg: Message::Prepare { seq: read, .. },
                    ..
                }) => assert_eq!(read, SeqNum(seq)),
                other => panic!("frame {seq}: {other:?}"),
            }
        }
        assert_eq!(read_frame(&mut reader).unwrap(), None);
        let stats = snapshot(&io);
        assert_eq!(stats.bytes_read, stream.len() as u64);
        // One read for the data, one that reports the end of the stream.
        assert_eq!(stats.read_calls, 2);
    }

    /// A transport with no peers and a reply queue of `capacity` buffers.
    fn reply_transport(capacity: usize) -> (SocketTransport, Receiver<Outbound>) {
        let (reply_writer, queue) = bounded(capacity);
        let transport = SocketTransport {
            writers: Vec::new(),
            reply_writer,
            dropped: Arc::new(AtomicU64::new(0)),
        };
        (transport, queue)
    }

    fn reply_frames(requests: std::ops::RangeInclusive<u64>) -> Vec<u8> {
        requests
            .flat_map(|request| {
                flexitrust_wire::encode_frame(&Frame::Reply {
                    reply: reply(request),
                })
            })
            .collect()
    }

    #[test]
    fn the_replies_of_a_delivery_travel_as_one_buffer_of_their_frames() {
        let (mut transport, queue) = reply_transport(4);
        transport.send_replies((1..=3).map(reply).collect());
        let batch = queue.try_recv().expect("one buffer per delivery");
        assert_eq!(batch.bytes, reply_frames(1..=3));
        assert_eq!(batch.count, 3);
        assert_eq!(queue.try_recv().err(), Some(TryRecvError::Empty));
        assert_eq!(transport.dropped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_rejected_reply_buffer_counts_every_reply_in_it() {
        let (mut transport, _queue) = reply_transport(1);
        transport.send_replies(vec![reply(1)]);
        transport.send_replies((2..=6).map(reply).collect());
        assert_eq!(transport.dropped.load(Ordering::Relaxed), 5);
    }

    /// A connection that delivers `data` in one `read` and, when read
    /// again — where a socket with nothing more to give would block —
    /// takes whatever the reader has handed over by then.
    struct OneRead<'a> {
        data: &'a [u8],
        handed_over: &'a Receiver<Vec<ClientReply>>,
        seen_at_second_read: Vec<Vec<ClientReply>>,
    }

    impl Read for OneRead<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.data.is_empty() {
                while let Ok(batch) = self.handed_over.try_recv() {
                    self.seen_at_second_read.push(batch);
                }
            }
            self.data.read(buf)
        }
    }

    #[test]
    fn a_reply_reader_hands_over_one_read_s_replies_at_once_and_before_it_reads_again() {
        let expected: Vec<ClientReply> = (1..=100).map(reply).collect();
        let whole = reply_frames(1..=100);
        let half = &reply_frames(101..=101)[..20];
        for (tail, torn) in [(&[][..], 0), (half, 1)] {
            let stream = [&whole[..], tail].concat();
            let (tx, rx) = bounded(8);
            let dropped = AtomicU64::new(0);
            let io = Arc::new(IoCounters::default());
            let mut connection = OneRead {
                data: &stream,
                handed_over: &rx,
                seen_at_second_read: Vec::new(),
            };
            reply_reader_loop(&mut connection, &tx, &dropped, Arc::clone(&io));
            // All 100 in one hand-off, made before the second `read` — the
            // one that would have blocked, waiting for the rest of the half
            // frame or for the next reply.
            assert_eq!(
                connection.seen_at_second_read,
                std::slice::from_ref(&expected)
            );
            assert_eq!(rx.try_recv().err(), Some(TryRecvError::Empty));
            assert_eq!(dropped.load(Ordering::Relaxed), torn);
            assert_eq!(snapshot(&io).frames_read, 100);
        }
    }

    #[test]
    fn replies_decoded_ahead_of_a_malformed_frame_are_still_handed_over() {
        let mut stream = reply_frames(1..=3);
        let mut bad = reply_frames(4..=4);
        bad[8] = 200; // no such frame kind
        stream.extend(bad);
        let (tx, rx) = bounded(8);
        let dropped = AtomicU64::new(0);
        reply_reader_loop(&stream[..], &tx, &dropped, Arc::default());
        let handed_over: Vec<ClientReply> = (1..=3).map(reply).collect();
        assert_eq!(rx.try_recv().ok(), Some(handed_over));
        assert_eq!(dropped.load(Ordering::Relaxed), 1);
    }

    /// A connection that returns at most 7 bytes per `read`, so every
    /// frame straddles a refill of the reader's buffer.
    struct Dribble<'a>(&'a [u8]);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let len = buf.len().min(7);
            self.0.read(&mut buf[..len])
        }
    }

    #[test]
    fn a_frame_that_is_not_a_reply_is_a_counted_drop_that_closes_the_connection() {
        let mut stream = reply_frames(1..=3);
        stream.extend(prepare(4));
        stream.extend(reply_frames(5..=5));
        // Decoded where it lies, and copied together across refills.
        let connections: [Box<dyn Read + '_>; 2] =
            [Box::new(&stream[..]), Box::new(Dribble(&stream))];
        for connection in connections {
            let (tx, rx) = bounded(8);
            let dropped = AtomicU64::new(0);
            let io = Arc::new(IoCounters::default());
            reply_reader_loop(connection, &tx, &dropped, Arc::clone(&io));
            let handed_over: Vec<ClientReply> = std::iter::from_fn(|| rx.try_recv().ok())
                .flatten()
                .collect();
            assert_eq!(handed_over, (1..=3).map(reply).collect::<Vec<_>>());
            assert_eq!(dropped.load(Ordering::Relaxed), 1);
            assert_eq!(snapshot(&io).frames_read, 3);
        }
    }

    /// A reply of every result shape, with `request` numbering them.
    fn reply_shapes(first_request: u64) -> Vec<ClientReply> {
        let results = [
            KvResult::Value(None),
            KvResult::Value(Some(vec![7; 40].into())),
            KvResult::Written,
            KvResult::Noop,
            KvResult::Range(vec![(1, vec![9; 10].into()), (2, vec![].into())]),
        ];
        results
            .into_iter()
            .zip(first_request..)
            .map(|(result, request)| ClientReply {
                result,
                speculative: request % 2 == 0,
                ..reply(request)
            })
            .collect()
    }

    #[test]
    fn replies_of_every_shape_cross_a_socket_in_order_and_whole() {
        // Deliveries of every result shape around a `Range` reply larger
        // than the reader's buffer and 2 000 writes whose frames straddle
        // its refills: the one-pass decoder and the straddle fallback
        // between them hand over every reply, in order, counted once.
        let big = ClientReply {
            result: KvResult::Range((0..3).map(|k| (k, vec![5; 30_000].into())).collect()),
            ..reply(6)
        };
        assert!(big.wire_size_bytes() > IO_BUFFER_BYTES);
        let mut first = reply_shapes(1);
        first.push(big);
        let deliveries = [first, (7..2_007).map(reply).collect(), reply_shapes(2_007)];
        let expected: Vec<ClientReply> = deliveries.concat();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (mut transport, queue) = reply_transport(8);
        let written = Arc::new(IoCounters::default());
        let writer = spawn_writer(
            listener.local_addr().unwrap(),
            queue,
            Arc::clone(&transport.dropped),
            Arc::clone(&written),
        );
        let (inbound, _) = listener.accept().unwrap();
        let dropped = Arc::clone(&transport.dropped);
        let (tx, rx) = bounded(expected.len());
        let io = Arc::new(IoCounters::default());
        let reader = {
            let (dropped, io) = (Arc::clone(&dropped), Arc::clone(&io));
            std::thread::spawn(move || reply_reader_loop(inbound, &tx, &dropped, io))
        };
        for delivery in deliveries {
            transport.send_replies(delivery);
        }
        drop(transport);
        writer.join().unwrap();
        reader.join().unwrap();
        let received: Vec<ClientReply> = std::iter::from_fn(|| rx.try_recv().ok())
            .flatten()
            .collect();
        assert_eq!(received, expected);
        assert_eq!(snapshot(&io).frames_read, expected.len() as u64);
        assert_eq!(snapshot(&written).frames_written, expected.len() as u64);
        assert_eq!(dropped.load(Ordering::Relaxed), 0);
    }

    fn submit_frame(key: u64) -> Vec<u8> {
        let txn = Transaction::new(
            ClientId(0),
            RequestId(key),
            flexitrust_types::KvOp::Read { key },
        );
        flexitrust_wire::encode_frame(&Frame::Submit { txns: vec![txn] })
    }

    /// What a replica's inbox was fed: the sequence number of each peer
    /// message, or the request id of each submitted batch.
    fn fed(inbox: &Receiver<Input>) -> Vec<u64> {
        std::iter::from_fn(|| inbox.try_recv().ok())
            .map(|input| match input {
                Input::Peer(_, msg) => msg.seq().map_or(0, |seq| seq.0),
                Input::Client(txns) => txns[0].request().0,
                Input::Shutdown => panic!("no reader sends a shutdown"),
            })
            .collect()
    }

    #[test]
    fn a_reply_on_a_replica_s_connection_is_a_counted_drop_that_closes_it() {
        let mut stream = prepare(1);
        stream.extend(submit_frame(2));
        stream.extend(reply_frames(3..=3));
        stream.extend(prepare(4));
        // Decoded where it lies, and copied together across refills.
        let connections: [Box<dyn Read + '_>; 2] =
            [Box::new(&stream[..]), Box::new(Dribble(&stream))];
        for connection in connections {
            let (inbox, rx) = bounded(8);
            let dropped = AtomicU64::new(0);
            let io = Arc::new(IoCounters::default());
            peer_reader_loop(connection, &inbox, &dropped, Arc::clone(&io));
            assert_eq!(fed(&rx), [1, 2]);
            assert_eq!(dropped.load(Ordering::Relaxed), 1);
            assert_eq!(snapshot(&io).frames_read, 2);
        }
    }

    #[test]
    fn a_frame_the_inbox_cannot_take_is_a_counted_drop() {
        let stream: Vec<u8> = [prepare(1), prepare(2)].concat();
        let (inbox, rx) = bounded(8);
        drop(rx);
        let dropped = AtomicU64::new(0);
        peer_reader_loop(&stream[..], &inbox, &dropped, Arc::default());
        assert_eq!(dropped.load(Ordering::Relaxed), 1);

        // A stream that simply ends is no drop.
        let (inbox, rx) = bounded(8);
        peer_reader_loop(&stream[..], &inbox, &dropped, Arc::default());
        assert_eq!(fed(&rx), [1, 2]);
        assert_eq!(dropped.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn no_connection_carries_self_traffic_and_an_idle_cluster_has_read_every_frame_written() {
        let cluster = TcpCluster::start(ProtocolId::FlexiBft, 1, 10).expect("cluster starts");
        let n = cluster.config().n;
        // The reply acceptor, an acceptor per replica, a writer per ordered
        // pair of distinct replicas and a reply writer per replica.
        assert_eq!(cluster.network.handles.len(), 1 + n + n * (n - 1) + n);

        let summary = cluster.run_workload(200, 8, Duration::from_secs(60));
        assert_eq!(summary.completed_txns, 200);
        // Late votes and replies are still in flight when the workload
        // returns; once the cluster is idle the per-thread tallies, summed,
        // agree frame for frame.
        let mut io = cluster.io_stats();
        for _ in 0..1000 {
            if io.frames_written == io.frames_read {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
            io = cluster.io_stats();
        }
        cluster.shutdown();
        assert!(io.frames_written > 20 + 2 * 200, "{io:?}");
        assert_eq!(io.frames_written, io.frames_read, "{io:?}");
        assert_eq!(summary.dropped_messages, 0);
    }
}
