//! The traced run's host: a single-threaded [`EngineHost`] owned by the
//! benchmark, with a span recorded around every call into a layer.
//!
//! [`run`] drives the engines of one protocol exactly as the real
//! hosts build them (real Ed25519 attestations, one [`Dispatcher`] per
//! engine) and connects them with one FIFO of *encoded frames*: every
//! send, broadcast and reply goes through `encode_message`/`encode_frame`,
//! every delivery through `decode_*` and then `Dispatcher::deliver`, or
//! `ClientLibrary::on_reply` for replies. No threads, no sockets, no
//! channels — what is left is the CPU the layers themselves cost, which is
//! the floor of the budget the real hosts are compared against.
//!
//! Spans live in memory and are written out when the run ends. The program
//! under test carries no probes of its own yet, so layers that sit *inside*
//! a `deliver` call (crypto, trusted, exec, quorum) get no span here; the
//! traced run attributes them by replaying recorded inputs through their
//! public functions (`layers`).

use crate::measure::thread_cpu_ns;
use flexitrust::baselines::{MinBft, Pbft};
use flexitrust::host::TimerToken;
use flexitrust::prelude::*;
use flexitrust::protocol::{ClientReply, SharedMessage};
use flexitrust::trusted::{AttestationMode, SharedEnclave};
use flexitrust::types::KvOp;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `wire.decode` or `host.deliver.prepare`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// The span that caused this one: the span it is nested in, or — for a
    /// span at the top of the call stack — the `wire.encode` span that
    /// produced the frame it handles.
    pub parent: Option<u32>,
    /// Shared by every span of one consensus instance: the batch's global
    /// number (round × batches per round + sequence number).
    pub id: u64,
}

/// In-memory span recorder; free when disabled (no clock reads).
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// `capacity` spans are reserved up front, so that recording never
    /// pauses a measured loop to grow the buffer.
    fn new(enabled: bool, capacity: usize) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost open span, else `cause`.
    fn begin(&mut self, name: &'static str, id: u64, cause: Option<u32>) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().or(cause);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes the span `begin` returned.
    fn end(&mut self, handle: Option<u32>) {
        if let Some(index) = handle {
            let end_ns = self.now_ns();
            self.open.pop();
            if let Some(span) = self.spans.get_mut(index as usize) {
                span.end_ns = end_ns;
            }
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children are clipped to the parent and
/// merged first, so overlapping children are not subtracted twice and a
/// causal child that starts after the parent ended subtracts nothing.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        let Some(index) = span.parent else { continue };
        let Some(parent) = spans.get(index as usize) else {
            continue;
        };
        let start = span.start_ns.max(parent.start_ns);
        let end = span.end_ns.min(parent.end_ns);
        if start < end {
            children[index as usize].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Count and summed self time of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans of this name.
    pub count: u64,
    /// Their self times, summed, in nanoseconds.
    pub self_ns: u64,
}

/// Self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.count += 1;
        entry.self_ns += self_ns;
    }
    totals
}

/// Writes `spans` as JSON (`{"spans": [{name, start_ns, end_ns, parent,
/// id}, …]}`), creating the directory first.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"spans\": [\n")?;
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}{comma}",
            span.name, span.start_ns, span.end_ns, span.id
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

/// What travels through the FIFO: encoded frames and what caused them.
enum Item {
    /// A client's batch submission, to the primary.
    Submit {
        bytes: Vec<u8>,
        cause: Option<u32>,
        id: u64,
    },
    /// A peer frame; a broadcast shares one buffer between its copies, as
    /// the TCP transport does.
    Peer {
        to: usize,
        bytes: Arc<Vec<u8>>,
        cause: Option<u32>,
        id: u64,
    },
    /// The reply frames one replica emitted while executing one batch.
    Replies {
        frames: Vec<Vec<u8>>,
        cause: Option<u32>,
        id: u64,
    },
}

/// Exact counts taken at the layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Peer frames delivered to replicas.
    pub peer_frames: u64,
    /// Reply frames delivered to the client.
    pub reply_frames: u64,
    /// Submit frames delivered to the primary.
    pub submit_frames: u64,
    /// Bytes of every frame delivered.
    pub bytes: u64,
    /// Actions the dispatchers handed to the host.
    pub actions: u64,
}

impl Counts {
    /// Frames of every kind.
    pub fn frames(&self) -> u64 {
        self.peer_frames + self.reply_frames + self.submit_frames
    }
}

/// The first frame of each kind a run delivered: recorded inputs for the
/// micro rows.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// A `Frame::Submit` of one batch.
    pub submit: Option<Vec<u8>>,
    /// A `PrePrepare` peer frame (batch and attestation inside).
    pub preprepare: Option<Vec<u8>>,
    /// A `Prepare` peer frame.
    pub vote: Option<Vec<u8>>,
    /// A `Frame::Reply`.
    pub reply: Option<Vec<u8>>,
}

/// The environment half of the cluster: what the dispatchers call into.
struct Net {
    rec: Recorder,
    fifo: VecDeque<Item>,
    replies: Vec<ClientReply>,
    counts: Counts,
    samples: Samples,
    /// Batch number of sequence 0 of the current round.
    round_base: u64,
}

impl Net {
    fn id_of(&self, seq: Option<SeqNum>) -> u64 {
        self.round_base + seq.map_or(0, |s| s.0)
    }

    fn encode_peer(&mut self, from: ReplicaId, msg: &Message) -> (Arc<Vec<u8>>, Option<u32>, u64) {
        let id = self.id_of(msg.seq());
        let span = self.rec.begin("wire.encode", id, None);
        let bytes = Arc::new(encode_message(from, msg));
        self.rec.end(span);
        match msg {
            Message::PrePrepare { .. } if self.samples.preprepare.is_none() => {
                self.samples.preprepare = Some(bytes.to_vec());
            }
            Message::Prepare { .. } if self.samples.vote.is_none() => {
                self.samples.vote = Some(bytes.to_vec());
            }
            _ => {}
        }
        (bytes, span, id)
    }

    /// Encodes the replies the last dispatch stashed, as one span: a
    /// replica emits a batch's replies back to back, and a clock read per
    /// reply would cost more than encoding it.
    fn flush_replies(&mut self) {
        let Some(first) = self.replies.first() else {
            return;
        };
        let id = self.id_of(Some(first.seq));
        let span = self.rec.begin("wire.encode", id, None);
        let frames: Vec<Vec<u8>> = self
            .replies
            .drain(..)
            .map(|reply| encode_frame(&Frame::Reply { reply }))
            .collect();
        self.rec.end(span);
        if self.samples.reply.is_none() {
            self.samples.reply = frames.first().cloned();
        }
        self.fifo.push_back(Item::Replies {
            frames,
            cause: span,
            id,
        });
    }
}

impl EngineHost for Net {
    fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage) {
        self.counts.actions += 1;
        let (bytes, cause, id) = self.encode_peer(from, &msg);
        self.fifo.push_back(Item::Peer {
            to: to.as_usize(),
            bytes,
            cause,
            id,
        });
    }

    fn broadcast(&mut self, from: ReplicaId, replicas: usize, msg: SharedMessage) {
        self.counts.actions += 1;
        let (bytes, cause, id) = self.encode_peer(from, &msg);
        for to in 0..replicas {
            self.fifo.push_back(Item::Peer {
                to,
                bytes: Arc::clone(&bytes),
                cause,
                id,
            });
        }
    }

    fn reply(&mut self, _from: ReplicaId, reply: ClientReply) {
        self.counts.actions += 1;
        self.replies.push(reply);
    }

    // Timers never fire here: bursts are whole batches (no flush timer) and
    // nothing fails (no view change).
    fn schedule_timer(&mut self, _: ReplicaId, _: TimerKind, _: u64, _: TimerToken) {
        self.counts.actions += 1;
    }

    fn timer_cancelled(&mut self, _: ReplicaId, _: TimerKind) {
        self.counts.actions += 1;
    }

    fn executed(&mut self, _: ReplicaId, _: SeqNum, _: usize) {
        self.counts.actions += 1;
    }
}

fn deliver_span_name(msg: &Message) -> &'static str {
    match msg {
        Message::PrePrepare { .. } => "host.deliver.preprepare",
        Message::Prepare { .. } => "host.deliver.prepare",
        Message::Commit { .. } => "host.deliver.commit",
        Message::Checkpoint { .. } => "host.deliver.checkpoint",
        _ => "host.deliver.other",
    }
}

/// Which rounds of a run record spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// None: the host's own cost.
    Off,
    /// Every second round, so that the rounds with and without spans see
    /// the same machine and their difference is the tracing overhead.
    Alternate,
}

/// CPU and work of the rounds of one kind (spans on, or spans off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// On-CPU nanoseconds of the drive loops (engine construction excluded).
    pub cpu_ns: u64,
    /// Wall nanoseconds of the same.
    pub wall_ns: u64,
    /// Transactions committed.
    pub txns: u64,
    /// Batches committed.
    pub batches: u64,
}

impl Tally {
    /// CPU microseconds per committed transaction.
    pub fn cpu_us_per_txn(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.txns.max(1) as f64
    }

    /// CPU microseconds per committed batch.
    pub fn cpu_us_per_batch(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.batches.max(1) as f64
    }
}

/// What one trace-host run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpec {
    /// The protocol (FlexiBft, FlexiZz, Pbft or MinBft), f = 1.
    pub protocol: ProtocolId,
    /// Transactions per batch.
    pub batch: usize,
    /// Batches submitted per round, as one burst.
    pub batches_per_round: usize,
    /// Rounds, each on freshly built engines like a real-host round.
    pub rounds: usize,
    /// Which rounds record spans.
    pub record: Record,
    /// Permutes which logical client issues which transaction.
    pub seed: u64,
}

/// What a trace-host run measured.
pub struct TraceRun {
    /// The rounds that recorded spans.
    pub traced: Tally,
    /// The rounds that did not.
    pub plain: Tally,
    /// Replicas.
    pub n: usize,
    /// Exact boundary counts, all rounds.
    pub counts: Counts,
    /// Trusted-component accesses, summed over every enclave, all rounds.
    pub tc_accesses: u64,
    /// The recorded spans.
    pub spans: Vec<Span>,
    /// First frame of each kind.
    pub samples: Samples,
}

/// The standard real-host configuration (`runtime::cluster_config`).
pub fn cluster_config(protocol: ProtocolId, batch: usize) -> SystemConfig {
    let mut config = SystemConfig::for_protocol(protocol, 1);
    config.batch_size = batch;
    config.view_timeout_us = 30_000_000;
    config
}

/// Builds one engine the way `runtime::build_engine` does, keeping a handle
/// on its enclave so accesses can be counted afterwards.
fn build_engine(
    config: &Arc<SystemConfig>,
    id: ReplicaId,
    registry: &EnclaveRegistry,
    enclaves: &mut Vec<SharedEnclave>,
) -> Result<Box<dyn ConsensusEngine>, String> {
    let mut counter_enclave = || {
        let enclave = Enclave::shared(EnclaveConfig::counter_only(id, AttestationMode::Real));
        enclaves.push(Arc::clone(&enclave));
        enclave
    };
    Ok(match config.protocol {
        ProtocolId::FlexiBft => Box::new(FlexiBft::new(
            Arc::clone(config),
            id,
            counter_enclave(),
            registry.clone(),
        )),
        ProtocolId::FlexiZz => Box::new(FlexiZz::new(
            Arc::clone(config),
            id,
            counter_enclave(),
            registry.clone(),
        )),
        ProtocolId::MinBft => Box::new(MinBft::engine(
            Arc::clone(config),
            id,
            counter_enclave(),
            registry.clone(),
        )),
        ProtocolId::Pbft => Box::new(Pbft::engine(Arc::clone(config), id)),
        other => return Err(format!("the trace host does not build {other}")),
    })
}

/// A seeded permutation of `0..n` (Fisher–Yates over a SplitMix64 stream).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// The `drive_workload` transaction: a 16-byte update of key `i`, issued
/// by `client` as its `request`-th.
pub fn burst_txn(i: usize, client: ClientId, request: RequestId) -> Transaction {
    Transaction::new(
        client,
        request,
        KvOp::Update {
            key: i as u64,
            value: vec![i as u8; 16].into(),
        },
    )
}

/// Runs `spec` and returns what it measured, or the first failed check.
pub fn run(spec: &TraceSpec) -> Result<TraceRun, String> {
    let clients = crate::hosts::CLIENTS;
    let config = Arc::new(cluster_config(spec.protocol, spec.batch));
    let n = config.n;
    let reply_rule = ProtocolProperties::for_protocol(spec.protocol).reply_quorum;
    let client_order = permutation(clients, spec.seed);
    let mut net = Net {
        // Per batch: build, submit encode/decode, client_request, and per
        // replica a PrePrepare and n Prepare deliveries (decode + deliver,
        // an encode inside some), reply encode/decode/on_reply.
        rec: Recorder::new(
            spec.record == Record::Alternate,
            spec.rounds.div_ceil(2) * spec.batches_per_round * (8 + n * (2 * n + 8)),
        ),
        fifo: VecDeque::new(),
        replies: Vec::new(),
        counts: Counts::default(),
        samples: Samples::default(),
        round_base: 0,
    };
    let (mut traced, mut plain, mut tc_accesses) = (Tally::default(), Tally::default(), 0u64);
    let round_txns = spec.batch * spec.batches_per_round;

    for round in 0..spec.rounds {
        // Set-up, outside the measured loop: a fresh cluster per round.
        let registry = EnclaveRegistry::deterministic(n, AttestationMode::Real);
        let mut enclaves = Vec::new();
        let mut engines = Vec::with_capacity(n);
        for i in 0..n {
            engines.push(build_engine(
                &config,
                ReplicaId(i as u32),
                &registry,
                &mut enclaves,
            )?);
        }
        let mut dispatchers: Vec<Dispatcher> = (0..n).map(|_| Dispatcher::new(n)).collect();
        let mut libraries: Vec<ClientLibrary> = (0..clients as u64)
            .map(|c| ClientLibrary::new(ClientId(c), &config, reply_rule))
            .collect();
        net.round_base = (round * spec.batches_per_round) as u64;
        net.rec.enabled = spec.record == Record::Alternate && round % 2 == 0;
        let mut completed = 0usize;

        let cpu0 = thread_cpu_ns();
        let wall0 = Instant::now();
        // The burst: every batch built, encoded and queued up front.
        for b in 0..spec.batches_per_round {
            let id = net.round_base + b as u64 + 1;
            let span = net.rec.begin("types.txn_build", id, None);
            let txns: Vec<Transaction> = (b * spec.batch..(b + 1) * spec.batch)
                .map(|i| {
                    let client = client_order[i % clients];
                    let request = RequestId((i / clients) as u64 + 1);
                    libraries[client].begin(request);
                    burst_txn(i, ClientId(client as u64), request)
                })
                .collect();
            net.rec.end(span);
            let span = net.rec.begin("wire.encode", id, None);
            let bytes = encode_frame(&Frame::Submit { txns });
            net.rec.end(span);
            if net.samples.submit.is_none() {
                net.samples.submit = Some(bytes.clone());
            }
            net.fifo.push_back(Item::Submit {
                bytes,
                cause: span,
                id,
            });
        }
        // Drain to quiescence, one frame at a time, in FIFO order.
        while let Some(item) = net.fifo.pop_front() {
            match item {
                Item::Submit { bytes, cause, id } => {
                    net.counts.submit_frames += 1;
                    net.counts.bytes += bytes.len() as u64;
                    let span = net.rec.begin("wire.decode", id, cause);
                    let frame = decode_frame(&bytes);
                    net.rec.end(span);
                    let Ok(Frame::Submit { txns }) = frame else {
                        return Err("a submit frame did not decode to a submission".into());
                    };
                    let span = net.rec.begin("host.client_request", id, span);
                    dispatchers[0].client_request(&mut *engines[0], txns, &mut net);
                    net.flush_replies();
                    net.rec.end(span);
                }
                Item::Peer {
                    to,
                    bytes,
                    cause,
                    id,
                } => {
                    net.counts.peer_frames += 1;
                    net.counts.bytes += bytes.len() as u64;
                    let span = net.rec.begin("wire.decode", id, cause);
                    let decoded = decode_message(&bytes);
                    net.rec.end(span);
                    let Ok((from, msg)) = decoded else {
                        return Err("a peer frame did not decode".into());
                    };
                    let span = net.rec.begin(deliver_span_name(&msg), id, span);
                    dispatchers[to].deliver(&mut *engines[to], from, Arc::new(msg), &mut net);
                    net.flush_replies();
                    net.rec.end(span);
                }
                Item::Replies { frames, cause, id } => {
                    net.counts.reply_frames += frames.len() as u64;
                    net.counts.bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
                    let span = net.rec.begin("wire.decode", id, cause);
                    let decoded: Vec<_> = frames.iter().map(|f| decode_frame(f)).collect();
                    net.rec.end(span);
                    let span = net.rec.begin("protocol.client_on_reply", id, span);
                    for frame in decoded {
                        let Ok(Frame::Reply { reply }) = frame else {
                            return Err("a reply frame did not decode to a reply".into());
                        };
                        let Some(library) = libraries.get_mut(reply.client.0 as usize) else {
                            return Err(format!("reply for unknown client {}", reply.client));
                        };
                        let before = library.completed();
                        library.on_reply(&reply);
                        completed += (library.completed() - before) as usize;
                    }
                    net.rec.end(span);
                }
            }
        }
        let tally = if net.rec.enabled {
            &mut traced
        } else {
            &mut plain
        };
        tally.wall_ns += wall0.elapsed().as_nanos() as u64;
        tally.cpu_ns += thread_cpu_ns().saturating_sub(cpu0);
        tally.txns += round_txns as u64;
        tally.batches += spec.batches_per_round as u64;

        // Output checks: every transaction reached its reply quorum and
        // every replica executed every batch.
        if completed != round_txns {
            return Err(format!(
                "{}: round {round} completed {completed} of {round_txns} transactions",
                spec.protocol
            ));
        }
        if let Some(e) = engines
            .iter()
            .find(|e| e.last_executed().0 != spec.batches_per_round as u64)
        {
            return Err(format!(
                "{}: replica {} executed through {} of {} batches",
                spec.protocol,
                e.id(),
                e.last_executed(),
                spec.batches_per_round
            ));
        }
        tc_accesses += enclaves
            .iter()
            .map(|e| e.stats().snapshot().total_accesses())
            .sum::<u64>();
    }

    Ok(TraceRun {
        traced,
        plain,
        n,
        counts: net.counts,
        tc_accesses,
        spans: net.rec.spans,
        samples: net.samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_a_fully_covered_child_once() {
        let spans = [span(0, 100, None), span(10, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![70, 30]);
    }

    #[test]
    fn overlapping_children_are_not_double_subtracted() {
        // Children cover [10, 50) and [30, 80): their union is 70 ns, not
        // the 90 ns their durations add up to. A third child nested inside
        // the first adds nothing either.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 80, Some(0)),
            span(20, 25, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn causal_children_outside_the_interval_subtract_nothing() {
        // A decode span caused by an encode span starts after it ended; a
        // child that straddles the parent's end is clipped to it.
        let spans = [
            span(0, 100, None),
            span(150, 200, Some(0)),
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![90, 50, 40]);
    }

    #[test]
    fn totals_group_self_time_by_name() {
        let mut spans = vec![span(0, 100, None), span(10, 40, Some(0))];
        spans[1].name = "child";
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["t"],
            NameTotal {
                count: 1,
                self_ns: 70
            }
        );
        assert_eq!(
            totals["child"],
            NameTotal {
                count: 1,
                self_ns: 30
            }
        );
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(64, 7);
        assert_eq!(a, permutation(64, 7));
        assert_ne!(a, permutation(64, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn trace_host_commits_and_records_nested_and_causal_spans() {
        let run = run(&TraceSpec {
            protocol: ProtocolId::FlexiBft,
            batch: 10,
            batches_per_round: 3,
            rounds: 2,
            record: Record::Alternate,
            seed: 1,
        })
        .expect("trace host run");
        // Rounds alternate: the first records spans, the second does not.
        assert_eq!((run.traced.txns, run.plain.txns), (30, 30));
        assert_eq!(run.n, 4);
        // Per batch: 4 PrePrepare + 16 Prepare deliveries, 40 replies.
        assert_eq!(run.counts.peer_frames, 6 * 20);
        assert_eq!(run.counts.reply_frames, 6 * 40);
        assert_eq!(run.counts.submit_frames, 6);
        // FlexiBft touches the trusted component once per batch.
        assert_eq!(run.tc_accesses, 6);
        let totals = totals_by_name(&run.spans);
        assert_eq!(totals["host.deliver.preprepare"].count, 3 * 4);
        assert_eq!(totals["host.deliver.prepare"].count, 3 * 16);
        assert_eq!(totals["protocol.client_on_reply"].count, 3 * 4);
        // A Prepare broadcast is encoded inside the PrePrepare delivery.
        let nested = run.spans.iter().any(|s| {
            s.name == "wire.encode"
                && s.parent
                    .is_some_and(|p| run.spans[p as usize].name == "host.deliver.preprepare")
        });
        assert!(nested);
        // Every span carries the number of the batch it served.
        assert!(run.spans.iter().all(|s| (1..=3).contains(&s.id)));
        assert!(run.samples.preprepare.is_some() && run.samples.reply.is_some());
    }
}
