//! The discrete-event simulation loop.
//!
//! The simulator drives the same [`ConsensusEngine`] implementations used by
//! the threaded runtime, but instead of real threads and sockets it keeps a
//! global event queue ordered by simulated time (nanoseconds). Each replica
//! is modelled as:
//!
//! * a set of **worker threads** (one per `workers_per_replica`, except that
//!   protocols without out-of-order consensus effectively use a single
//!   worker — the paper's observation that sequential protocols leave their
//!   threads under-saturated);
//! * a **trusted component** whose accesses (observed through the enclave's
//!   statistics) are serialised and charged the hardware access latency plus
//!   in-enclave signing cost; and
//! * the **engine** itself, hosted behind the shared
//!   [`flexitrust_protocol::host::Dispatcher`]: the engine's emitted actions are
//!   translated once, in the host layer, into simulator events (message
//!   deliveries after sender-NIC queueing plus wire-size/bandwidth
//!   transmission time plus latency — see [`crate::link::LinkQueues`] —
//!   and timer expirations) or into client accounting (replies). The
//!   simulator itself only implements the [`EngineHost`] primitives.
//!
//! Everything that crosses a finite-bandwidth link — replica messages,
//! client replies, request uploads — is one kind of event, a `Transfer`: an
//! opaque cargo walking a two-hop route (the sender's egress lane, then the
//! receiver's ingress lane) one lane reservation at a time. The cargo only
//! decides which lanes it crosses and how it lands (a delivery, a tallied
//! reply, a client arrival); a hop with no wire time is skipped.
//!
//! Clients are closed-loop: each of the `spec.clients` logical clients keeps
//! exactly one transaction outstanding, in that client's slot of one table
//! indexed by client id. The slot's [`ClientLibrary`] counts the replies, as
//! it does for the threaded clients; a transaction completes when the library
//! says so, after which the client immediately submits a fresh one. When the
//! library reports the fast path failed (the Zyzzyva/MinZZ all-replica rule
//! without a crashed replica's reply, or divergent replies), the fallback is
//! modelled as a client timeout plus one extra round trip.

use crate::chaos::{ChaosState, Fate};
use crate::cost::CostModel;
use crate::link::{Direction, LinkClass, LinkQueues, Nic};
use crate::metrics::{latency_stats_ms, CommittedTxn, RunLog, SimReport};
use crate::net::NetworkModel;
use crate::registry::{build_replicas, ReplicaSetup};
use crate::spec::ScenarioSpec;
use crate::workload::WorkloadGenerator;
use flexitrust_protocol::host::{recovery_request, Dispatcher, EngineHost, TimerToken};
use flexitrust_protocol::{
    ClientLibrary, ClientReply, ConsensusEngine, Message, RequestStatus, SharedMessage, TimerKind,
};
use flexitrust_trusted::SharedEnclave;
use flexitrust_types::{ClientId, ReplicaId, RequestId, SeqNum, Transaction};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

type Ns = u64;

#[derive(Debug)]
enum EventKind {
    Deliver {
        to: ReplicaId,
        from: ReplicaId,
        msg: SharedMessage,
    },
    /// One reservation step of a payload crossing a finite-bandwidth link.
    Transfer(Transfer),
    Timer {
        replica: ReplicaId,
        timer: TimerKind,
        token: TimerToken,
    },
    ClientArrival {
        txns: Vec<Transaction>,
    },
    FallbackComplete {
        client: ClientId,
        request: RequestId,
    },
}

/// A payload on its way across a link: the sender's egress lane, then the
/// receiver's ingress lane, each hop reserved when the clock reaches it.
///
/// Reserving at event time makes each lane a FIFO in global time order
/// rather than in event-dispatch order: an engine invocation processed
/// early but departing late must not hold the wire against a transfer that
/// physically leaves first, and a vote implosion at the leader serialises
/// on its ingest lane in arrival order. A hop with zero wire time (an
/// unlimited link class, self-delivery, free ingest) is skipped, which
/// keeps the pure-latency schedule bit-exact.
///
/// With `chunk_bytes` configured a hop crosses its lane one MTU-sized chunk
/// at a time: `offset_bytes` marks how much of the hop is done, and each
/// chunk's completion schedules the next as a fresh event, so transfers
/// that became ready in between interleave instead of waiting behind an
/// elephant's last byte — on the send and the receive side alike.
#[derive(Debug)]
struct Transfer {
    cargo: Cargo,
    hop: Direction,
    /// Total wire size, computed once at launch: chunk steps must not
    /// re-walk the message (a batch) per chunk.
    bytes: usize,
    offset_bytes: usize,
}

impl Transfer {
    /// The event that starts `cargo`'s `hop`.
    fn start(cargo: Cargo, hop: Direction, bytes: usize) -> EventKind {
        EventKind::Transfer(Transfer {
            cargo,
            hop,
            bytes,
            offset_bytes: 0,
        })
    }
}

/// What a transfer carries, which decides the lanes it crosses and how it
/// lands.
#[derive(Debug)]
enum Cargo {
    /// A replica message: the sender's replica lane, then the receiver's.
    /// Arrives one link latency (plus the chaos plan's `extra_ns`) after its
    /// last byte leaves, and lands as a `Deliver`.
    Message {
        from: ReplicaId,
        to: ReplicaId,
        msg: SharedMessage,
        extra_ns: u64,
    },
    /// A client reply: the replica's client lane only. Replies pay no
    /// ingress — the aggregate client pool stands for hundreds of
    /// independent client NICs, not one ingest pipe — and are tallied one
    /// client latency after their last byte leaves.
    Reply { from: ReplicaId, reply: ClientReply },
    /// A batch of request uploads: the aggregate client uplink, then the
    /// primary's client-facing lane; lands as a `ClientArrival`.
    Upload {
        txns: Vec<Transaction>,
        /// The NIC charged for the ingest: the primary when the first
        /// ingress chunk starts, then pinned so later chunks of one batch
        /// cannot smear across NICs if a view change completes mid-ingest.
        /// `on_client_arrival` re-resolves the primary at dispatch (it must
        /// anyway, to handle a failed one), so the charged NIC and the
        /// processing replica can differ by that one span — an accepted
        /// approximation.
        nic: Option<ReplicaId>,
    },
}

struct Event {
    at: Ns,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct Host {
    engine: Box<dyn ConsensusEngine>,
    enclave: Option<SharedEnclave>,
    workers: Vec<Ns>,
    tc_free: Ns,
    tc_seen: u64,
}

/// One closed-loop client: its reply counter, and the one request it has
/// outstanding.
struct ClientSlot {
    library: ClientLibrary,
    /// The outstanding request and its first submit time; `None` from a
    /// completion until the next request reaches the primary.
    outstanding: Option<(RequestId, Ns)>,
    /// Whether the outstanding request's fast-path fallback is armed.
    fallback_scheduled: bool,
    /// The id of the client's next fresh request.
    next_request: u64,
}

/// The simulator's [`EngineHost`] implementation: one engine invocation's
/// view of the world. Effects are buffered (events to schedule, replies to
/// account) and applied by the simulation loop once the dispatch batch
/// completes; `begin_batch` performs the CPU / trusted-component accounting
/// that fixes the batch's departure time.
struct SimEnv<'a> {
    start: Ns,
    base_cost_ns: Ns,
    tc_access_ns: Ns,
    enclave: Option<&'a SharedEnclave>,
    tc_free: &'a mut Ns,
    tc_seen: &'a mut u64,
    worker: &'a mut Ns,
    cost: &'a CostModel,
    net: &'a NetworkModel,
    /// The bound fault plan; `None` whenever the plan is empty (the
    /// zero-cost fault-free path).
    chaos: Option<&'a mut ChaosState>,
    /// Departure time of the current dispatch batch (set by `begin_batch`).
    at: Ns,
    /// Effects to schedule, in emission order. A `Transfer` here has not
    /// started its route: `Simulation::launch` picks its first hop.
    events: Vec<(Ns, EventKind)>,
    /// The invocation's replies over unlimited client links, in emission
    /// order: all of them left at `at` from one replica, so they all reach
    /// the clients at `reply_arrival`. (A `SimEnv` lives for one engine
    /// invocation, and an invocation is one dispatch.)
    replies: Vec<ClientReply>,
    reply_arrival: Ns,
}

impl EngineHost for SimEnv<'_> {
    fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: SharedMessage) {
        let chaos = self.chaos.as_mut();
        let (extra_ns, duplicate_extra_ns) =
            match chaos.map_or(Fate::PROMPT, |c| c.fate(from, to, &msg)) {
                Fate::Drop => return,
                Fate::Deliver {
                    extra_ns,
                    duplicate_extra_ns,
                } => (extra_ns, duplicate_extra_ns),
            };
        if let Some(dup_extra_ns) = duplicate_extra_ns {
            // The duplicate copy bypasses the bandwidth model (pure
            // latency) — chaos duplicates are rare injected traffic, not
            // part of the throughput accounting the link model exists for.
            let latency_ns = self.net.replica_latency_us(from, to) * 1_000;
            self.events.push((
                self.at + latency_ns + extra_ns + dup_extra_ns,
                EventKind::Deliver {
                    to,
                    from,
                    msg: msg.clone(),
                },
            ));
        }
        let bytes = msg.wire_size_bytes();
        let message = Cargo::Message {
            from,
            to,
            msg,
            extra_ns,
        };
        let transfer = Transfer::start(message, Direction::Egress, bytes);
        self.events.push((self.at, transfer));
    }

    fn reply(&mut self, from: ReplicaId, reply: ClientReply) {
        self.replies(from, vec![reply]);
    }

    fn replies(&mut self, from: ReplicaId, mut replies: Vec<ClientReply>) {
        if self.net.bandwidth().client_mbps.is_some() {
            // Finite client links: each reply crosses the replica's client
            // lane on its own.
            for reply in replies {
                let bytes = reply.wire_size_bytes();
                let transfer =
                    Transfer::start(Cargo::Reply { from, reply }, Direction::Egress, bytes);
                self.events.push((self.at, transfer));
            }
            return;
        }
        self.reply_arrival = self.at + self.net.client_latency_us(from) * 1_000;
        if self.replies.is_empty() {
            self.replies = replies;
        } else {
            self.replies.append(&mut replies);
        }
    }

    fn schedule_timer(
        &mut self,
        replica: ReplicaId,
        timer: TimerKind,
        delay_us: u64,
        token: TimerToken,
    ) {
        self.events.push((
            self.at + delay_us * 1_000,
            EventKind::Timer {
                replica,
                timer,
                token,
            },
        ));
    }

    fn send_cost_ns(&self, msg: &Message, destinations: usize) -> u64 {
        self.cost.send_cost_ns(msg, destinations)
    }

    fn execution_cost_ns(&self, txns: usize) -> u64 {
        self.cost.execution_cost_ns(txns)
    }

    fn begin_batch(&mut self, _from: ReplicaId, actions_cost_ns: u64) {
        // Trusted-component accesses observed during this invocation are
        // serialised on the component and charged its access latency.
        let mut tc_end = self.start + self.base_cost_ns;
        if let Some(enclave) = self.enclave {
            let total = enclave.stats().snapshot().total_accesses();
            let delta = total.saturating_sub(*self.tc_seen);
            *self.tc_seen = total;
            if delta > 0 {
                let tc_start = (self.start + self.base_cost_ns).max(*self.tc_free);
                *self.tc_free = tc_start + delta * self.tc_access_ns;
                tc_end = *self.tc_free;
            }
        }
        let departure = tc_end.max(self.start + self.base_cost_ns) + actions_cost_ns;
        *self.worker = departure;
        self.at = departure;
    }
}

/// A single simulation run.
pub struct Simulation {
    spec: ScenarioSpec,
    net: NetworkModel,
    /// Per-link FIFO occupancy state. Lives with the runner — the network
    /// model is cloned/shared and must stay stateless.
    links: LinkQueues,
    hosts: Vec<Host>,
    dispatcher: Dispatcher,
    events: BinaryHeap<Reverse<Event>>,
    event_seq: u64,
    now: Ns,
    /// One slot per closed-loop client, indexed by client id. Empty until
    /// [`Self::run`] opens it.
    clients: Vec<ClientSlot>,
    op_generator: WorkloadGenerator,
    latencies: RunLog<Ns>,
    completed_txns: u64,
    commit_log: RunLog<CommittedTxn>,
    messages_delivered: u64,
    events_processed: u64,
    /// Transactions the closed-loop clients will resubmit, each with its
    /// own deadline: several clients completing in one event drain must not
    /// clobber each other's resubmit time.
    pending_resubmits: Vec<(Ns, Transaction)>,
    /// The scenario's fault plan bound to this cluster; `None` when the
    /// plan is empty, so the event schedule stays bit-identical to a run
    /// without one.
    chaos: Option<ChaosState>,
}

impl Simulation {
    /// Builds a simulation from a scenario, constructing the engines via the
    /// protocol registry.
    pub fn new(spec: ScenarioSpec) -> Self {
        let replicas = build_replicas(&spec);
        Self::with_replicas(spec, replicas)
    }

    /// Builds a simulation over externally constructed replicas (used by the
    /// Figure 5 ablation, which wires non-standard engine/enclave
    /// combinations).
    pub fn with_replicas(spec: ScenarioSpec, replicas: Vec<ReplicaSetup>) -> Self {
        let config = spec.system_config();
        let workers = if replicas[0].engine.properties().out_of_order {
            spec.workers_per_replica.max(1)
        } else {
            1
        };
        let net = if spec.regions <= 1 {
            NetworkModel::lan(config.n)
        } else {
            NetworkModel::wan(config.n, spec.regions)
        }
        .with_bandwidth(spec.bandwidth);
        let hosts: Vec<Host> = replicas
            .into_iter()
            .map(|setup| Host {
                engine: setup.engine,
                enclave: setup.enclave,
                workers: vec![0; workers],
                tc_free: 0,
                tc_seen: 0,
            })
            .collect();
        Simulation {
            op_generator: WorkloadGenerator::new(spec.workload.clone(), ClientId(0), spec.seed),
            net,
            links: LinkQueues::new(),
            dispatcher: Dispatcher::new(hosts.len()),
            hosts,
            events: BinaryHeap::new(),
            event_seq: 0,
            now: 0,
            clients: Vec::new(),
            latencies: RunLog::new(),
            completed_txns: 0,
            commit_log: RunLog::new(),
            messages_delivered: 0,
            events_processed: 0,
            pending_resubmits: Vec::new(),
            chaos: ChaosState::new(&spec.chaos, config.n),
            spec,
        }
    }

    fn push_event(&mut self, at: Ns, kind: EventKind) {
        self.event_seq += 1;
        self.events.push(Reverse(Event {
            at,
            seq: self.event_seq,
            kind,
        }));
    }

    fn fresh_txn(&mut self, client: usize) -> Transaction {
        let slot = &mut self.clients[client];
        let request = slot.next_request;
        slot.next_request += 1;
        let template = self.op_generator.next_transaction();
        Transaction::new(
            ClientId(client as u64),
            RequestId(request),
            template.into_op(),
        )
    }

    /// Allocates the closed-loop clients' slots. Called by `run`, not `new`:
    /// the benchmark's `setup_s` times construction, and the table is part
    /// of the run.
    fn open_client_slots(&mut self) {
        let config = self.spec.system_config();
        let rule = self.hosts[0].engine.properties().reply_quorum;
        self.clients = (0..self.spec.clients as u64)
            .map(|client| ClientSlot {
                library: ClientLibrary::new(ClientId(client), &config, rule),
                outstanding: None,
                fallback_scheduled: false,
                next_request: 1,
            })
            .collect();
    }

    /// Whether a replica is currently crashed under the fault plan.
    fn is_down(&self, replica: ReplicaId) -> bool {
        self.chaos.as_ref().is_some_and(|c| c.is_down(replica))
    }

    fn current_primary(&self) -> ReplicaId {
        // Use the view of the first live replica to locate the primary.
        let n = self.hosts.len();
        for (i, host) in self.hosts.iter().enumerate() {
            if !self.is_down(ReplicaId(i as u32)) {
                return host.engine.view().primary(n);
            }
        }
        ReplicaId(0)
    }

    /// Runs the scenario to completion and returns the report.
    pub fn run(mut self) -> SimReport {
        let total_ns = self.spec.total_time_us() * 1_000;
        let warmup_ns = self.spec.warmup_us * 1_000;
        self.open_client_slots();
        // Initial client load: every logical client submits one transaction.
        let initial: Vec<Transaction> = (0..self.spec.clients).map(|c| self.fresh_txn(c)).collect();
        self.schedule_client_upload(1_000, initial);

        while let Some(Reverse(event)) = self.events.pop() {
            if event.at > total_ns {
                break;
            }
            self.advance_chaos(event.at);
            self.now = event.at;
            self.events_processed += 1;
            match event.kind {
                EventKind::Deliver { to, from, msg } => self.on_deliver(to, from, msg),
                EventKind::Transfer(transfer) => self.on_transfer(transfer),
                EventKind::Timer {
                    replica,
                    timer,
                    token,
                } => self.on_timer(replica, timer, token),
                EventKind::ClientArrival { txns } => self.on_client_arrival(txns),
                EventKind::FallbackComplete { client, request } => {
                    self.on_fallback(client, request)
                }
            }
            self.flush_resubmits();
            self.poll_crash_windows();
        }

        self.report(total_ns, warmup_ns)
    }

    // ------------------------------------------------------------------
    // Chaos plan application.
    // ------------------------------------------------------------------

    /// Applies every scripted chaos event whose time has come (the clock is
    /// about to advance to `upto`), rejoining each replica it recovers.
    fn advance_chaos(&mut self, upto: Ns) {
        while let Some((at, replica)) = self.chaos.as_mut().and_then(|c| c.advance(upto)) {
            self.inject_recovery(replica, at);
        }
    }

    /// Steps the commit-progress-triggered crash windows against the
    /// engines' execution frontiers, rejoining each replica that recovers.
    fn poll_crash_windows(&mut self) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        let hosts = &self.hosts;
        let recovered = chaos.poll_windows(self.now, |i| hosts[i].engine.last_executed().0);
        for replica in recovered {
            self.inject_recovery(replica, self.now);
        }
    }

    /// A recovered replica immediately asks every live peer for the latest
    /// stable checkpoint. The injected requests bypass the bandwidth model —
    /// they are header-only and rare, not part of the throughput the link
    /// model accounts.
    fn inject_recovery(&mut self, replica: ReplicaId, at: Ns) {
        let msg = recovery_request(&*self.hosts[replica.as_usize()].engine);
        for peer in 0..self.hosts.len() {
            let to = ReplicaId(peer as u32);
            if to == replica || self.is_down(to) {
                continue;
            }
            let latency_ns = self.net.replica_latency_us(replica, to) * 1_000;
            self.push_event(
                at + latency_ns,
                EventKind::Deliver {
                    to,
                    from: replica,
                    msg: msg.clone(),
                },
            );
        }
    }

    fn flush_resubmits(&mut self) {
        if self.pending_resubmits.is_empty() {
            return;
        }
        // Group resubmissions by their own deadline (completions in one
        // drain usually share one, so this is normally a single upload) —
        // a BTreeMap keeps the grouping deterministic.
        let mut groups: BTreeMap<Ns, Vec<Transaction>> = BTreeMap::new();
        for (at, txn) in std::mem::take(&mut self.pending_resubmits) {
            groups.entry(at.max(self.now + 1)).or_default().push(txn);
        }
        for (ready, txns) in groups {
            self.schedule_client_upload(ready, txns);
        }
    }

    /// Sends a batch of request uploads towards the primary, ready to leave
    /// the aggregate client uplink at `ready`.
    fn schedule_client_upload(&mut self, ready: Ns, txns: Vec<Transaction>) {
        // Charge the exact bytes of the canonical submission frame the TCP
        // transport would carry, framing overhead included.
        let bytes = flexitrust_wire::client_upload_wire_size(&txns);
        let upload = Cargo::Upload { txns, nic: None };
        self.launch(ready, upload, Direction::Egress, bytes);
    }

    // ------------------------------------------------------------------
    // Engine hosting: CPU / trusted-component accounting around the shared
    // dispatcher. The closure receives the dispatcher, the engine and the
    // simulator's EngineHost view; buffered effects are applied afterwards.
    // ------------------------------------------------------------------

    fn run_engine(
        &mut self,
        replica: ReplicaId,
        base_cost_ns: Ns,
        f: impl FnOnce(&mut Dispatcher, &mut dyn ConsensusEngine, &mut SimEnv),
    ) {
        let tc_access_ns = self.spec.hardware.access_latency_us() * 1_000
            + self.spec.cost.attestation_generation_ns();
        let now = self.now;
        let host = &mut self.hosts[replica.as_usize()];

        // Pick the earliest-available worker thread.
        let (widx, free_at) = host
            .workers
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, t)| (i, *t))
            .expect("hosts always have at least one worker");
        let start = now.max(free_at);

        let Host {
            engine,
            enclave,
            workers,
            tc_free,
            tc_seen,
        } = host;
        let mut env = SimEnv {
            start,
            base_cost_ns,
            tc_access_ns,
            enclave: enclave.as_ref(),
            tc_free,
            tc_seen,
            worker: &mut workers[widx],
            cost: &self.spec.cost,
            net: &self.net,
            chaos: self.chaos.as_mut(),
            at: start + base_cost_ns,
            events: Vec::new(),
            replies: Vec::new(),
            reply_arrival: 0,
        };
        f(&mut self.dispatcher, engine.as_mut(), &mut env);
        let SimEnv {
            events,
            replies,
            reply_arrival,
            ..
        } = env;
        for (at, kind) in events {
            match kind {
                EventKind::Transfer(Transfer {
                    cargo, hop, bytes, ..
                }) => self.launch(at, cargo, hop, bytes),
                kind => self.push_event(at, kind),
            }
        }
        for reply in &replies {
            self.record_reply(reply, reply_arrival);
        }
    }

    // ------------------------------------------------------------------
    // Transfers: one cargo, two hops, one reservation step per event.
    // ------------------------------------------------------------------

    /// Starts `cargo` on its route at `hop`: schedules its first step on a
    /// hop with wire time, or lands it when no such hop is left. `at` is the
    /// instant the cargo is ready to leave the sender (`Egress`) or its last
    /// byte left it (`Ingress`); the receive side starts one propagation
    /// delay later.
    fn launch(&mut self, at: Ns, cargo: Cargo, hop: Direction, bytes: usize) {
        if hop == Direction::Egress && self.wire_ns(&cargo, hop, bytes) > 0 {
            // The sender's NIC is a serial resource: the transfer reserves
            // it when the clock reaches `at`, queueing behind whatever is on
            // the wire then — a broadcast's k-th copy waits for the first
            // k − 1.
            self.push_event(at, Transfer::start(cargo, hop, bytes));
            return;
        }
        let arrival = at.saturating_add(self.propagation_ns(&cargo));
        if self.wire_ns(&cargo, Direction::Ingress, bytes) > 0 {
            self.push_event(arrival, Transfer::start(cargo, Direction::Ingress, bytes));
        } else {
            self.land(arrival, cargo);
        }
    }

    /// The delay between a cargo's last byte leaving the sender and its
    /// arrival. An upload has none: the closed-loop client's round trip is
    /// charged when it resubmits.
    fn propagation_ns(&self, cargo: &Cargo) -> Ns {
        match cargo {
            Cargo::Message {
                from, to, extra_ns, ..
            } => self.net.replica_latency_us(*from, *to) * 1_000 + extra_ns,
            Cargo::Reply { from, .. } => self.net.client_latency_us(*from) * 1_000,
            Cargo::Upload { .. } => 0,
        }
    }

    /// A cargo reached its destination at `at`.
    fn land(&mut self, at: Ns, cargo: Cargo) {
        match cargo {
            Cargo::Message { from, to, msg, .. } => {
                self.push_event(at, EventKind::Deliver { to, from, msg })
            }
            Cargo::Reply { reply, .. } => self.record_reply(&reply, at),
            Cargo::Upload { txns, .. } => self.push_event(at, EventKind::ClientArrival { txns }),
        }
    }

    /// The `(NIC, class)` lane `cargo`'s `hop` crosses. A reply's ingress
    /// lane is the client pool's, which has no wire time. An upload's
    /// ingress NIC is resolved here and pinned in the cargo.
    fn lane(&self, cargo: &mut Cargo, hop: Direction) -> (Nic, LinkClass) {
        match (cargo, hop) {
            (Cargo::Message { from, to, .. }, hop) => {
                let nic = if hop == Direction::Egress { *from } else { *to };
                (Nic::Replica(nic), self.net.replica_link_class(*from, *to))
            }
            (Cargo::Reply { from, .. }, Direction::Egress) => {
                (Nic::Replica(*from), LinkClass::Client)
            }
            (Cargo::Upload { .. }, Direction::Egress)
            | (Cargo::Reply { .. }, Direction::Ingress) => (Nic::ClientPool, LinkClass::Client),
            (Cargo::Upload { nic, .. }, Direction::Ingress) => {
                let primary = *nic.get_or_insert_with(|| self.current_primary());
                (Nic::Replica(primary), LinkClass::Client)
            }
        }
    }

    /// The wire time of `cargo`'s first `bytes` on its `hop`'s lane: the
    /// stateless function chunk spans are cut from.
    fn wire_ns(&self, cargo: &Cargo, hop: Direction, bytes: usize) -> u64 {
        match (cargo, hop) {
            (Cargo::Message { from, to, .. }, Direction::Egress) => {
                self.net.replica_transmit_ns(*from, *to, bytes)
            }
            (Cargo::Message { from, to, .. }, Direction::Ingress) => {
                self.net.replica_ingress_ns(*from, *to, bytes)
            }
            (Cargo::Reply { .. } | Cargo::Upload { .. }, Direction::Egress) => {
                self.net.client_transmit_ns(bytes)
            }
            (Cargo::Reply { .. }, Direction::Ingress) => 0,
            (Cargo::Upload { .. }, Direction::Ingress) => self.net.client_ingress_ns(bytes),
        }
    }

    /// A transfer's next span reached the head of its lane: reserve it
    /// (FIFO behind everything reserved before). The last span of the
    /// egress hop hands the cargo on to its ingress hop; the last span of
    /// the ingress hop lands it. Propagation latency is paid once, after the
    /// final byte clears the sender (cut-through).
    fn on_transfer(&mut self, mut transfer: Transfer) {
        let (done, end) = self.reserve_transfer_step(&mut transfer);
        if end < transfer.bytes {
            // On the ingress hop `done` can precede `self.now` (the first
            // chunk's span starts at the backdated ready), so this push
            // briefly runs the clock backwards — by construction the window
            // [done, now] holds no other event (the heap minimum was `now`),
            // only this chunk chain, and the last span ends no earlier than
            // the arrival instant. Handlers keyed to a monotone clock must
            // not run off transfer continuations.
            transfer.offset_bytes = end;
            self.push_event(done, EventKind::Transfer(transfer));
            return;
        }
        let Transfer {
            cargo, hop, bytes, ..
        } = transfer;
        match hop {
            Direction::Egress => self.launch(done, cargo, Direction::Ingress, bytes),
            Direction::Ingress => self.land(done, cargo),
        }
    }

    /// One reservation step of `transfer` on its hop's lane. Returns
    /// `(done, end)`: the instant the reserved span clears the lane and the
    /// byte offset it reached — `end == bytes` means the hop's last byte
    /// cleared at `done`. Without `chunk_bytes` the step is the whole hop
    /// (the atomic reservation). Chunk wire times are cut as cumulative
    /// differences, so the chunks of one hop sum to its atomic time exactly
    /// — per-chunk rounding never inflates the total.
    ///
    /// An ingress hop's first span is backdated by the hop's whole wire
    /// time — the bits streamed into the NIC while crossing the wire — so an
    /// uncontended cargo finishes ingesting at its arrival instant
    /// (transmit is paid once) and only ingress *contention* adds delay:
    /// delivery = tx queue + transmit + latency + rx queue. The backdated
    /// window saturates at clock 0: a cargo whose ingest time exceeds the
    /// sim time so far cannot have been streaming before the run started,
    /// so it waits for a full ingest window — a boundary artifact bounded by
    /// one ingest time at the start of a run.
    fn reserve_transfer_step(&mut self, transfer: &mut Transfer) -> (Ns, usize) {
        let (nic, class) = self.lane(&mut transfer.cargo, transfer.hop);
        let Transfer {
            ref cargo,
            hop,
            bytes,
            offset_bytes,
        } = *transfer;
        let atomic_ns = self.wire_ns(cargo, hop, bytes);
        let ready = if hop == Direction::Ingress && offset_bytes == 0 {
            self.now.saturating_sub(atomic_ns)
        } else {
            self.now
        };
        match self.net.chunk_bytes() {
            // A dead lane (0 Mbps saturates to u64::MAX) must never be
            // chunked: every cumulative difference would be
            // MAX.saturating_sub(MAX) = 0, turning the never-delivers link
            // infinitely fast — the exact edge the saturation exists for.
            Some(chunk) if bytes > chunk && atomic_ns < u64::MAX => {
                let end = (offset_bytes + chunk).min(bytes);
                let cleared_ns = self.wire_ns(cargo, hop, offset_bytes);
                let chunk_ns = self.wire_ns(cargo, hop, end).saturating_sub(cleared_ns);
                // Only the first chunk counts a message: `messages` tallies
                // transfers, not the chunks they crossed the wire in.
                let done = if offset_bytes == 0 {
                    self.links.reserve(nic, class, hop, ready, chunk_ns)
                } else {
                    self.links
                        .reserve_continuation(nic, class, hop, ready, chunk_ns)
                };
                (done, end)
            }
            _ => (self.links.reserve(nic, class, hop, ready, atomic_ns), bytes),
        }
    }

    // ------------------------------------------------------------------
    // Event handlers.
    // ------------------------------------------------------------------

    fn on_client_arrival(&mut self, txns: Vec<Transaction>) {
        let now = self.now;
        for txn in &txns {
            self.begin_request(txn.client(), txn.request(), now);
        }
        let primary = self.current_primary();
        if self.is_down(primary) {
            // The primary is down: a real client hears nothing, times out,
            // and retransmits to whoever leads once the view has moved on.
            // Dropping the batch here would wedge the closed-loop clients
            // forever.
            let timeout_ns = self.spec.system_config().client_timeout_us * 1_000;
            self.schedule_client_upload(now + timeout_ns.max(1), txns);
            return;
        }
        let base_cost = self.spec.cost.client_request_cost_ns(txns.len());
        self.run_engine(primary, base_cost, move |dispatcher, engine, env| {
            dispatcher.client_request(engine, txns, env)
        });
    }

    fn on_deliver(&mut self, to: ReplicaId, from: ReplicaId, msg: SharedMessage) {
        if self.is_down(to) {
            return;
        }
        self.messages_delivered += 1;
        let base_cost = self.spec.cost.receive_cost_ns(&msg);
        self.run_engine(to, base_cost, move |dispatcher, engine, env| {
            dispatcher.deliver(engine, from, msg, env)
        });
    }

    fn on_timer(&mut self, replica: ReplicaId, timer: TimerKind, token: TimerToken) {
        if self.is_down(replica) {
            return;
        }
        let base_cost = self.spec.cost.base_receive_ns;
        // Token validation lives in the dispatcher: a stale token (re-armed
        // or cancelled since) never reaches the engine and charges nothing.
        self.run_engine(replica, base_cost, move |dispatcher, engine, env| {
            dispatcher.timer_expired(engine, timer, token, env);
        });
    }

    fn on_fallback(&mut self, client: ClientId, request: RequestId) {
        let Some(slot) = self.slot_mut(client) else {
            return;
        };
        if slot.outstanding.map(|(held, _)| held) != Some(request) {
            // Already completed: nothing to do.
            return;
        }
        // The fallback round trip gathers a commit certificate for the
        // strongest (seq, digest) candidate — divergent speculative replies
        // still do not count together.
        match slot.library.try_fallback_complete(request) {
            Some(RequestStatus::Complete { seq, .. }) => {
                self.complete_request(client, self.now, seq)
            }
            // No candidate holds a fallback quorum yet (replies diverged,
            // e.g. across a view change): the client keeps waiting and
            // retries the certificate round after another timeout, so the
            // request cannot wedge out of the closed loop while late replies
            // may still reconcile it.
            _ => self.schedule_fallback(client, request, self.now),
        }
    }

    /// Arms (or re-arms) the fast-path fallback for a request: a client
    /// timeout plus one round trip to whichever replica currently leads —
    /// after a view change the primary may sit in a different region, and a
    /// stale RTT base would misprice every fallback.
    fn schedule_fallback(&mut self, client: ClientId, request: RequestId, at: Ns) {
        let timeout_ns = self.spec.system_config().client_timeout_us * 1_000;
        let rtt_ns = 2 * self.net.client_latency_us(self.current_primary()) * 1_000;
        self.push_event(
            at + timeout_ns + rtt_ns,
            EventKind::FallbackComplete { client, request },
        );
    }

    // ------------------------------------------------------------------
    // Client accounting.
    // ------------------------------------------------------------------

    /// `client`'s slot; `None` for a client id outside the table, which is
    /// no closed-loop client of this run and is not tracked.
    fn slot_mut(&mut self, client: ClientId) -> Option<&mut ClientSlot> {
        self.clients.get_mut(usize::try_from(client.0).ok()?)
    }

    /// Opens `client`'s slot for `request`, submitted at `submit`. A
    /// retransmission of the request the slot holds keeps its first submit
    /// time, so latency covers the whole client wait.
    fn begin_request(&mut self, client: ClientId, request: RequestId, submit: Ns) {
        let Some(slot) = self.slot_mut(client) else {
            return;
        };
        if slot.outstanding.is_some_and(|(held, _)| held == request) {
            return;
        }
        // At most one request outstanding per client: a closed-loop client
        // issues its next request only from `complete_request`, which has
        // emptied this slot first.
        debug_assert!(
            slot.outstanding.is_none(),
            "client {} submitted {} with another request outstanding",
            client.0,
            request.0
        );
        slot.library.begin(request);
        slot.outstanding = Some((request, submit));
        slot.fallback_scheduled = false;
    }

    /// Counts `reply`, which reached its client at `at`. The library holds
    /// only the outstanding request, so a late reply (normal in BFT
    /// systems) counts for nothing.
    fn record_reply(&mut self, reply: &ClientReply, at: Ns) {
        let Some(slot) = self.slot_mut(reply.client) else {
            return;
        };
        if let RequestStatus::Complete { seq, .. } = slot.library.on_reply(reply) {
            self.complete_request(reply.client, at, seq);
        } else if !slot.fallback_scheduled && slot.library.fast_path_failed(reply.request) {
            // The client falls back after a timeout plus an extra round
            // trip (gathering/distributing a commit certificate);
            // `on_fallback` completes the strongest candidate once it holds
            // the fallback quorum and re-arms otherwise, so a divergent
            // request can still converge instead of silently dropping its
            // client out of the closed loop.
            slot.fallback_scheduled = true;
            self.schedule_fallback(reply.client, reply.request, at);
        }
    }

    /// Completes `client`'s outstanding request, which executed at `seq`,
    /// and empties its slot.
    fn complete_request(&mut self, client: ClientId, at: Ns, seq: SeqNum) {
        let warmup_ns = self.spec.warmup_us * 1_000;
        let total_ns = self.spec.total_time_us() * 1_000;
        let Some((request, submit)) = self.slot_mut(client).and_then(|slot| {
            let outstanding = slot.outstanding.take()?;
            slot.library.forget(outstanding.0);
            Some(outstanding)
        }) else {
            return;
        };
        if self.spec.record_commit_log {
            self.commit_log.push(CommittedTxn {
                seq,
                client,
                request,
            });
        }
        if submit >= warmup_ns && at <= total_ns {
            self.latencies.push(at - submit);
            self.completed_txns += 1;
        }
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.record_completion(at);
        }
        // The closed-loop client immediately submits its next transaction
        // after one client round trip to the replica it actually contacts —
        // the current primary, which may have moved since the run started.
        // The deadline rides with the transaction: several clients
        // completing in one drain each keep their own resubmit time.
        let txn = self.fresh_txn(client.0 as usize);
        let primary = self.current_primary();
        let resubmit_at = at + 2 * self.net.client_latency_us(primary) * 1_000;
        self.pending_resubmits.push((resubmit_at, txn));
    }

    // ------------------------------------------------------------------
    // Reporting.
    // ------------------------------------------------------------------

    fn report(self, total_ns: Ns, warmup_ns: Ns) -> SimReport {
        let measured_s = (total_ns - warmup_ns) as f64 / 1e9;
        let (avg, p50, p99) = latency_stats_ms(&mut self.latencies.into_vec());
        let tc_accesses: Vec<u64> = self
            .hosts
            .iter()
            .map(|h| {
                h.enclave
                    .as_ref()
                    .map(|e| e.stats().snapshot().total_accesses())
                    .unwrap_or(0)
            })
            .collect();
        let config = self.spec.system_config();
        let chaos = self.chaos.as_ref();
        let mut commit_log = self.commit_log.into_vec();
        commit_log.sort_unstable();
        SimReport {
            protocol: self.spec.protocol,
            f: self.spec.f,
            n: config.n,
            clients: self.spec.clients,
            duration_s: measured_s,
            total_duration_s: total_ns as f64 / 1e9,
            completed_txns: self.completed_txns,
            throughput_tps: self.completed_txns as f64 / measured_s,
            avg_latency_ms: avg,
            p50_latency_ms: p50,
            p99_latency_ms: p99,
            messages_delivered: self.messages_delivered,
            events_processed: self.events_processed,
            tc_accesses_total: tc_accesses.iter().sum(),
            tc_accesses_primary: tc_accesses.first().copied().unwrap_or(0),
            max_replica_executed: self
                .hosts
                .iter()
                .map(|h| h.engine.executed_txns())
                .max()
                .unwrap_or(0),
            net_busy_ns: self.links.total_busy_ns(),
            net_queue_delay_ns: self.links.total_queue_delay_ns(),
            link_usage: self.links.usage(),
            replica_frontiers: self
                .hosts
                .iter()
                .map(|h| (h.engine.last_executed().0, h.engine.state_digest()))
                .collect(),
            chaos_disruptions: chaos.map_or(0, |c| c.disruptions),
            last_restore_ns: chaos.map_or(0, |c| c.last_restore_ns),
            completed_after_restore: chaos.map_or(0, |c| c.completed_after_restore),
            commit_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::{BandwidthConfig, KvResult, ProtocolId, View};

    fn run_quick(protocol: ProtocolId) -> SimReport {
        let spec = ScenarioSpec::quick_test(protocol);
        Simulation::new(spec).run()
    }

    /// A simulation whose client slots are open, as they are once `run`
    /// starts.
    fn opened(spec: ScenarioSpec) -> Simulation {
        let mut sim = Simulation::new(spec);
        sim.open_client_slots();
        sim
    }

    /// The id of `client`'s outstanding request, if any.
    fn outstanding(sim: &Simulation, client: usize) -> Option<u64> {
        sim.clients[client]
            .outstanding
            .map(|(request, _)| request.0)
    }

    #[test]
    fn arrivals_at_a_failed_primary_are_retransmitted_not_dropped() {
        let mut spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
        spec.clients = 3;
        spec.chaos = crate::chaos::ChaosPlan::single_failure(ReplicaId(0));
        let timeout_ns = spec.system_config().client_timeout_us * 1_000;
        let mut sim = opened(spec);
        sim.now = 5_000;
        sim.advance_chaos(sim.now);
        let txns: Vec<Transaction> = (0..3).map(|c| sim.fresh_txn(c)).collect();
        let retry = txns.clone();
        sim.on_client_arrival(txns);
        // The transactions stay tracked — the closed loop must not wedge…
        assert!(sim.clients.iter().all(|c| c.outstanding.is_some()));
        // …and the batch is rescheduled after the client timeout instead of
        // vanishing (unlimited client bandwidth: a direct arrival event).
        let Reverse(event) = sim.events.pop().expect("a retransmission is scheduled");
        assert_eq!(event.at, 5_000 + timeout_ns);
        assert!(matches!(event.kind, EventKind::ClientArrival { ref txns } if txns.len() == 3));
        assert!(sim.events.pop().is_none());
        // A retransmission arriving later keeps the original submit time,
        // so the eventual latency covers the whole client wait.
        sim.now = 5_000 + timeout_ns;
        sim.on_client_arrival(retry);
        for client in &sim.clients {
            assert_eq!(client.outstanding.map(|(_, submit)| submit), Some(5_000));
        }
    }

    #[test]
    fn a_retransmitted_request_keeps_its_first_submit_time() {
        let mut sim = opened(ScenarioSpec::quick_test(ProtocolId::FlexiBft));
        sim.begin_request(ClientId(1), RequestId(4), 1_000);
        sim.begin_request(ClientId(1), RequestId(4), 9_000);
        assert_eq!(sim.clients[1].outstanding, Some((RequestId(4), 1_000)));
    }

    #[test]
    fn a_reply_from_outside_the_client_table_is_ignored() {
        let mut sim = opened(ScenarioSpec::quick_test(ProtocolId::FlexiBft));
        let clients = sim.clients.len();
        let stranger = ClientReply {
            client: ClientId(clients as u64 + 5),
            request: RequestId(1),
            seq: SeqNum(1),
            view: View(0),
            replica: ReplicaId(0),
            result: KvResult::Written,
            speculative: false,
        };
        for replica in 0..4 {
            let stranger = ClientReply {
                replica: ReplicaId(replica),
                ..stranger.clone()
            };
            sim.record_reply(&stranger, 100);
        }
        sim.begin_request(stranger.client, stranger.request, 100);
        assert_eq!(sim.clients.len(), clients, "the table did not grow");
        assert!(sim.clients.iter().all(|c| c.outstanding.is_none()));
        assert!(sim.commit_log.last().is_none() && sim.pending_resubmits.is_empty());
    }

    #[test]
    fn a_late_reply_after_completion_leaves_nothing_outstanding() {
        let mut sim = opened(ScenarioSpec::quick_test(ProtocolId::FlexiBft));
        let reply = |replica: u32| ClientReply {
            client: ClientId(0),
            request: RequestId(1),
            seq: SeqNum(3),
            view: View(0),
            replica: ReplicaId(replica),
            result: KvResult::Written,
            speculative: false,
        };
        sim.begin_request(ClientId(0), RequestId(1), 0);
        sim.record_reply(&reply(0), 100);
        sim.record_reply(&reply(1), 100);
        assert_eq!(outstanding(&sim, 0), None, "f + 1 = 2 replies complete it");
        sim.record_reply(&reply(2), 200);
        sim.record_reply(&reply(3), 200);
        assert_eq!(outstanding(&sim, 0), None);
        assert_eq!(sim.clients[0].library.outstanding(), 0);
        // One completion: one logged commit, one next request.
        assert_eq!(sim.commit_log.last().map(|c| c.seq), Some(SeqNum(3)));
        assert_eq!(sim.pending_resubmits.len(), 1);
    }

    #[test]
    fn an_event_is_no_larger_than_a_client_reply_transfer_needs() {
        // Every pending event sits in the heap by value, so peak memory on
        // transfer-heavy runs scales with this size. 112 bytes holds the
        // largest payload, a transfer carrying a `ClientReply` inline.
        let size = std::mem::size_of::<Event>();
        assert!(size <= 112, "an Event takes {size} bytes");
    }

    #[test]
    fn resubmit_deadlines_are_per_transaction() {
        let spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
        let rtt_ns = 2 * 250 * 1_000; // LAN client round trip
        let mut sim = opened(spec);
        sim.begin_request(ClientId(0), RequestId(1), 0);
        sim.begin_request(ClientId(1), RequestId(1), 0);
        sim.now = 10_000;
        // Two clients complete in the same drain with different reply
        // arrival times: each must resubmit after its *own* round trip, not
        // whichever deadline was written last.
        sim.complete_request(ClientId(0), 1_000_000, SeqNum(1));
        sim.complete_request(ClientId(1), 2_000_000, SeqNum(2));
        assert_eq!(sim.pending_resubmits.len(), 2);
        sim.flush_resubmits();
        let Reverse(first) = sim.events.pop().unwrap();
        let Reverse(second) = sim.events.pop().unwrap();
        assert_eq!(first.at, 1_000_000 + rtt_ns);
        assert_eq!(second.at, 2_000_000 + rtt_ns);
        assert!(matches!(first.kind, EventKind::ClientArrival { ref txns } if txns.len() == 1));
        assert!(matches!(second.kind, EventKind::ClientArrival { ref txns } if txns.len() == 1));
    }

    #[test]
    fn divergent_speculative_replies_cannot_complete_a_quorum() {
        let spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
        let mut sim = opened(spec);
        assert_eq!(
            sim.clients[0].library.needed(),
            2,
            "Flexi-BFT f=1 completes at f + 1"
        );
        sim.begin_request(ClientId(0), RequestId(1), 0);
        let reply = |replica: u32, seq: u64, value: u8| ClientReply {
            client: ClientId(0),
            request: RequestId(1),
            seq: SeqNum(seq),
            view: View(0),
            replica: ReplicaId(replica),
            result: KvResult::Value(Some(vec![value].into())),
            speculative: true,
        };
        // Three distinct replicas reply, but no two agree on (seq, result):
        // under distinct-replier counting this would already have completed
        // twice over.
        sim.record_reply(&reply(0, 5, 1), 100);
        sim.record_reply(&reply(1, 6, 1), 100); // divergent seq
        sim.record_reply(&reply(2, 5, 2), 100); // divergent result
        assert_eq!(
            outstanding(&sim, 0),
            Some(1),
            "divergent replies must not form a quorum"
        );
        // Observed divergence arms the fallback watchdog even for a
        // quorum-rule protocol, so the request can converge later instead
        // of wedging its client out of the closed loop.
        assert!(sim.clients[0].fallback_scheduled);
        // A second vote for the (5, value 1) candidate completes it — and
        // logs the candidate's sequence number, not a bystander's.
        sim.record_reply(&reply(3, 5, 1), 100);
        assert_eq!(outstanding(&sim, 0), None);
        let logged = sim.commit_log.last().expect("completion is logged");
        assert_eq!(logged.seq, SeqNum(5));
        // Duplicate votes from one replica still count once.
        sim.begin_request(ClientId(0), RequestId(2), 0);
        let dup = |seq| ClientReply {
            request: RequestId(2),
            ..reply(0, seq, 1)
        };
        sim.record_reply(&dup(7), 100);
        sim.record_reply(&dup(7), 100);
        assert_eq!(outstanding(&sim, 0), Some(2));
    }

    #[test]
    fn divergent_fallback_rearms_until_a_candidate_quorum_forms() {
        // MinZZ (all-replicas fast path, f = 1, n = 3): the fallback timer
        // arms once a fallback quorum of *distinct* replicas has replied —
        // hearing from them without completing means the fast path failed,
        // agreeing or not — but it may only complete on a candidate that
        // itself holds the quorum, retrying otherwise instead of wedging
        // the closed loop.
        let spec = ScenarioSpec::quick_test(ProtocolId::MinZz);
        let mut sim = opened(spec);
        let library = &sim.clients[0].library;
        assert_eq!((library.needed(), library.fallback_needed()), (3, 2));
        sim.begin_request(ClientId(0), RequestId(1), 0);
        let reply = |replica: u32, seq: u64| ClientReply {
            client: ClientId(0),
            request: RequestId(1),
            seq: SeqNum(seq),
            view: View(0),
            replica: ReplicaId(replica),
            result: KvResult::Written,
            speculative: true,
        };
        sim.record_reply(&reply(0, 5), 100);
        sim.record_reply(&reply(1, 6), 100); // divergent seq
        assert!(sim.clients[0].fallback_scheduled);
        let Reverse(armed) = sim.events.pop().expect("fallback timer armed");
        assert!(matches!(armed.kind, EventKind::FallbackComplete { .. }));
        // The timer fires with no candidate at quorum: the request stays
        // alive and the timer re-arms.
        sim.now = armed.at;
        sim.on_fallback(ClientId(0), RequestId(1));
        assert_eq!(outstanding(&sim, 0), Some(1));
        let Reverse(rearmed) = sim.events.pop().expect("fallback timer re-armed");
        assert!(matches!(rearmed.kind, EventKind::FallbackComplete { .. }));
        assert!(rearmed.at > armed.at);
        // A third reply joins the (seq 5) candidate: the next fallback
        // completes on it and logs its sequence number.
        sim.record_reply(&reply(2, 5), 200);
        sim.now = rearmed.at;
        sim.on_fallback(ClientId(0), RequestId(1));
        assert_eq!(outstanding(&sim, 0), None);
        assert_eq!(sim.commit_log.last().unwrap().seq, SeqNum(5));
    }

    #[test]
    fn minority_partition_then_heal_holds_safety_and_liveness() {
        use crate::chaos::ChaosPlan;
        for protocol in [ProtocolId::FlexiBft, ProtocolId::FlexiZz, ProtocolId::Pbft] {
            let mut spec = ScenarioSpec::quick_test(protocol);
            // Isolate replica 3 from 50 ms to 120 ms; the majority group
            // keeps its quorums and commit progress must resume (continue)
            // after the heal.
            spec.chaos = ChaosPlan::partition_then_heal(
                7,
                vec![
                    vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
                    vec![ReplicaId(3)],
                ],
                50_000_000,
                120_000_000,
            );
            let report = Simulation::new(spec).run();
            assert_eq!(report.chaos_disruptions, 1, "{protocol}");
            assert_eq!(report.last_restore_ns, 120_000_000, "{protocol}");
            report
                .check_chaos_invariants()
                .unwrap_or_else(|e| panic!("{protocol}: {e}"));
        }
    }

    #[test]
    fn crash_then_recover_rejoins_via_checkpoint_transfer() {
        use crate::chaos::ChaosPlan;
        for protocol in [ProtocolId::FlexiBft, ProtocolId::FlexiZz, ProtocolId::Pbft] {
            let mut spec = ScenarioSpec::quick_test(protocol);
            // Short checkpoint interval so the downtime spans several stable
            // checkpoints and recovery exercises real state transfer.
            spec.checkpoint_interval = Some(10);
            spec.chaos = ChaosPlan::crash_then_recover(11, ReplicaId(2), 40_000_000, 100_000_000);
            let report = Simulation::new(spec).run();
            assert_eq!(report.chaos_disruptions, 1, "{protocol}");
            report
                .check_chaos_invariants()
                .unwrap_or_else(|e| panic!("{protocol}: {e}"));
            // The recovered replica rejoined via checkpoint state transfer:
            // its frontier moved past at least one full checkpoint interval.
            assert!(
                report.replica_frontiers[2].0 >= 10,
                "{protocol}: recovered replica stuck at {:?}",
                report.replica_frontiers[2]
            );
        }
    }

    #[test]
    fn empty_plan_allocates_no_chaos_state() {
        let sim = Simulation::new(ScenarioSpec::quick_test(ProtocolId::FlexiBft));
        assert!(sim.chaos.is_none());
    }

    #[test]
    fn inert_plan_leaves_the_schedule_bit_identical() {
        use crate::chaos::{ChaosEvent, ChaosPlan};
        // Finite chunked links and constrained ingress: the link-queue
        // schedule is the part most sensitive to a perturbed send.
        let mut spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
        spec.bandwidth.local_mbps = Some(1_000);
        spec.bandwidth.ingress_mbps = Some(1_000);
        spec.bandwidth.chunk_bytes = Some(1_500);
        let run = |spec: ScenarioSpec| {
            let r = Simulation::new(spec).run();
            (
                r.events_processed,
                r.messages_delivered,
                r.completed_txns,
                r.commit_log,
            )
        };
        let bare = run(spec.clone());
        // Active bookkeeping, nothing injected: one no-op heal at t = 1 ns.
        spec.chaos = ChaosPlan::scripted(7, vec![ChaosEvent::PartitionHeal { at_ns: 1 }]);
        assert!(Simulation::new(spec.clone()).chaos.is_some());
        let inert = run(spec);
        assert!(bare.2 > 0, "the scenario must complete transactions");
        assert_eq!(bare, inert);
    }

    #[test]
    fn plan_written_for_a_larger_cluster_runs_to_completion() {
        use crate::chaos::ChaosPlan;
        // A churn rotation over 7 replicas on an n = 4 cluster: the rounds
        // naming replicas 4..=6 are skipped instead of indexing out of
        // range on recovery.
        let mut spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
        assert_eq!(spec.replicas(), 4);
        spec.checkpoint_interval = Some(10);
        spec.chaos = ChaosPlan::churn(3, 7, 20_000_000, 20_000_000, 10_000_000, 7);
        let report = Simulation::new(spec).run();
        assert_eq!(report.chaos_disruptions, 4, "rounds 0..=3 crash a replica");
        if let Err(violation) = report.check_chaos_invariants() {
            assert!(violation.starts_with("liveness"), "{violation}");
        }
    }

    #[test]
    fn identical_chaos_seeds_reproduce_identical_runs() {
        use crate::chaos::{ChaosPlan, LinkChaos};
        let spec_with = |seed: u64| {
            let mut spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
            spec.chaos = ChaosPlan::crash_then_recover(seed, ReplicaId(3), 60_000_000, 110_000_000)
                .with_link(LinkChaos {
                    drop_per_10k: 20,
                    duplicate_per_10k: 20,
                    reorder_per_10k: 50,
                    reorder_max_delay_us: 500,
                    ..LinkChaos::default()
                });
            spec.checkpoint_interval = Some(10);
            spec
        };
        let a = Simulation::new(spec_with(5)).run();
        let b = Simulation::new(spec_with(5)).run();
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.messages_delivered, b.messages_delivered);
        assert_eq!(a.commit_log, b.commit_log);
        assert_eq!(a.replica_frontiers, b.replica_frontiers);
        // A different chaos seed draws different link fates.
        let c = Simulation::new(spec_with(6)).run();
        assert!(
            c.events_processed != a.events_processed || c.commit_log != a.commit_log,
            "different chaos seeds should diverge"
        );
    }

    #[test]
    fn votes_that_overtake_a_chunked_proposal_leave_no_straggler() {
        // The broadcast-heavy shape at f = 1: a 200 KiB PrePrepare crosses
        // a chunked 10 Gbps link behind the ingress lane while the
        // 100-byte Prepares voting for it arrive first. A replica that
        // only checks its quorum when a vote lands never commits such a
        // batch and falls behind for good (171/171/171/48 before the fix).
        let mut spec = ScenarioSpec::paper_default(ProtocolId::FlexiBft);
        spec.f = 1;
        spec.batch_size = 50;
        spec.clients = 2_000;
        spec.warmup_us = 20_000;
        spec.duration_us = 100_000;
        spec.workload = crate::workload::WorkloadConfig {
            value_size: 4096,
            record_count: 1_000,
            distribution: crate::workload::KeyDistribution::Uniform,
            ..crate::workload::WorkloadConfig::update_only()
        };
        spec.bandwidth = BandwidthConfig::unlimited();
        spec.bandwidth.local_mbps = Some(10_000);
        spec.bandwidth.ingress_mbps = Some(10_000);
        spec.bandwidth.chunk_bytes = Some(9_000);
        spec.seed = 42;
        let report = Simulation::new(spec).run();
        let frontiers: Vec<u64> = report.replica_frontiers.iter().map(|f| f.0).collect();
        assert!(frontiers[0] > 0, "{frontiers:?}");
        assert!(
            frontiers.iter().all(|f| *f == frontiers[0]),
            "replicas ended at different frontiers: {frontiers:?}"
        );
    }

    #[test]
    fn flexi_zz_quick_scenario_makes_progress() {
        let report = run_quick(ProtocolId::FlexiZz);
        assert!(report.completed_txns > 0, "{report:?}");
        assert!(report.throughput_tps > 0.0);
        assert!(report.avg_latency_ms > 0.0);
        assert!(report.max_replica_executed > 0);
    }

    #[test]
    fn every_protocol_completes_transactions_in_simulation() {
        for protocol in ProtocolId::ALL {
            let report = run_quick(protocol);
            assert!(
                report.completed_txns > 0,
                "{protocol} completed no transactions: {report:?}"
            );
        }
    }

    #[test]
    fn simulation_is_deterministic_for_a_fixed_seed() {
        let a = run_quick(ProtocolId::FlexiBft);
        let b = run_quick(ProtocolId::FlexiBft);
        assert_eq!(a.completed_txns, b.completed_txns);
        assert_eq!(a.messages_delivered, b.messages_delivered);
        assert_eq!(a.commit_log, b.commit_log);
    }

    #[test]
    fn commit_log_records_every_completion_in_sequence_order() {
        let report = run_quick(ProtocolId::FlexiBft);
        assert!(!report.commit_log.is_empty());
        for pair in report.commit_log.windows(2) {
            assert!(pair[0].seq <= pair[1].seq);
        }
    }

    #[test]
    fn flexitrust_touches_the_trusted_component_once_per_batch_at_the_primary() {
        let report = run_quick(ProtocolId::FlexiZz);
        // All TC accesses happen at the primary.
        assert_eq!(report.tc_accesses_total, report.tc_accesses_primary);
        // Roughly one access per executed batch (allowing for the final
        // partially processed batch).
        let batches = report.max_replica_executed / 10; // batch_size = 10 in quick_test
        assert!(
            report.tc_accesses_primary >= batches.saturating_sub(2)
                && report.tc_accesses_primary <= batches + 25,
            "accesses {} vs batches {batches}",
            report.tc_accesses_primary
        );
    }

    #[test]
    fn minbft_touches_trusted_components_at_every_replica() {
        let report = run_quick(ProtocolId::MinBft);
        assert!(report.tc_accesses_total > report.tc_accesses_primary);
    }

    #[test]
    fn wan_deployment_increases_latency() {
        let slow_enough = |regions: usize| {
            let mut spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
            spec.regions = regions;
            spec.duration_us = 1_200_000;
            spec.warmup_us = 300_000;
            Simulation::new(spec).run()
        };
        let lan = slow_enough(1);
        let wan = slow_enough(6);
        assert!(wan.completed_txns > 0);
        assert!(
            wan.avg_latency_ms > lan.avg_latency_ms,
            "wan {} <= lan {}",
            wan.avg_latency_ms,
            lan.avg_latency_ms
        );
    }

    #[test]
    fn bandwidth_constrained_wan_raises_latency_with_message_size_over_bandwidth() {
        // Figure 6(vi)-style: same WAN topology, only the per-link bandwidth
        // changes, so every latency difference comes from the wire-size /
        // bandwidth term of the delivery-time model.
        let run_with = |bandwidth: BandwidthConfig| {
            let mut spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
            spec.regions = 3;
            spec.bandwidth = bandwidth;
            spec.duration_us = 1_200_000;
            spec.warmup_us = 300_000;
            spec.clients = 400;
            Simulation::new(spec).run()
        };
        let unlimited = run_with(BandwidthConfig::unlimited());
        let moderate = run_with(BandwidthConfig::wan_constrained(50));
        let tight = run_with(BandwidthConfig::wan_constrained(5));
        assert!(unlimited.completed_txns > 0);
        assert!(tight.completed_txns > 0);
        assert!(
            moderate.avg_latency_ms > unlimited.avg_latency_ms,
            "constrained WAN ({} ms) should be slower than unlimited ({} ms)",
            moderate.avg_latency_ms,
            unlimited.avg_latency_ms
        );
        assert!(
            tight.avg_latency_ms > moderate.avg_latency_ms,
            "5 Mbps ({} ms) should be slower than 50 Mbps ({} ms)",
            tight.avg_latency_ms,
            moderate.avg_latency_ms
        );
    }

    #[test]
    fn client_link_bandwidth_slows_uploads_and_replies() {
        let run_with = |bandwidth: BandwidthConfig| {
            let mut spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
            spec.bandwidth = bandwidth;
            Simulation::new(spec).run()
        };
        let unlimited = run_with(BandwidthConfig::unlimited());
        let constrained = run_with(BandwidthConfig::uniform(50));
        assert!(constrained.completed_txns > 0);
        assert!(
            constrained.avg_latency_ms > unlimited.avg_latency_ms,
            "client-link constraint ({} ms) should add latency over unlimited ({} ms)",
            constrained.avg_latency_ms,
            unlimited.avg_latency_ms
        );
    }

    #[test]
    fn single_non_primary_failure_hurts_minzz_more_than_flexi_zz() {
        let run = |protocol, fail: bool| {
            let mut spec = ScenarioSpec::quick_test(protocol);
            spec.duration_us = 400_000;
            spec.warmup_us = 100_000;
            if fail {
                let victim = ReplicaId((spec.replicas() - 1) as u32);
                spec.chaos = crate::chaos::ChaosPlan::single_failure(victim);
            }
            Simulation::new(spec).run()
        };
        let healthy_minzz = run(ProtocolId::MinZz, false);
        let failed_minzz = run(ProtocolId::MinZz, true);
        let healthy_flexi = run(ProtocolId::FlexiZz, false);
        let failed_flexi = run(ProtocolId::FlexiZz, true);
        // MinZZ loses its all-replica fast path: every request pays the
        // slow-path timeout, so latency rises sharply and throughput drops.
        assert!(
            failed_minzz.avg_latency_ms > healthy_minzz.avg_latency_ms * 2.0,
            "minzz failed {} vs healthy {}",
            failed_minzz.avg_latency_ms,
            healthy_minzz.avg_latency_ms
        );
        // Flexi-ZZ keeps its fast path (2f + 1 of 3f + 1 replies suffice).
        assert!(
            failed_flexi.avg_latency_ms < healthy_flexi.avg_latency_ms * 2.0,
            "flexi failed {} vs healthy {}",
            failed_flexi.avg_latency_ms,
            healthy_flexi.avg_latency_ms
        );
        assert!(failed_flexi.throughput_tps > 0.5 * healthy_flexi.throughput_tps);
    }

    #[test]
    fn slower_trusted_hardware_reduces_minbft_throughput() {
        let fast = run_quick(ProtocolId::MinBft);
        let mut slow_spec = ScenarioSpec::quick_test(ProtocolId::MinBft);
        slow_spec.hardware = flexitrust_trusted::TrustedHardware::Custom {
            access_us: 10_000,
            rollback_protected: true,
        };
        let slow = Simulation::new(slow_spec).run();
        assert!(
            slow.throughput_tps < fast.throughput_tps,
            "slow {} >= fast {}",
            slow.throughput_tps,
            fast.throughput_tps
        );
    }
}
