//! Per-replica state shared by every protocol engine.
//!
//! [`ReplicaCore`] bundles the pieces every engine needs regardless of the
//! protocol: configuration, current view, the execution queue (in-order
//! execution against the KV store), the reply cache (each client's latest
//! reply, as in PBFT, for retransmitted requests: a table of client-id
//! chunks, so a reply's write is one lookup among `clients / 64` keys) and
//! checkpoint tracking — and the replica skeleton every protocol of the
//! paper inherits unchanged from PBFT: the client glue, the primary's
//! proposal window, checkpoint state transfer and (in
//! [`crate::viewchange`]) the view change. How a batch gets its
//! sequence number is the one thing the protocols disagree on there, and
//! the window's own [`Sequencer`] decides it from the style's
//! [`PrimaryAttest`]: `AppendF` on the trusted counter for FlexiTrust, the
//! next host-chosen number plus the style's attestation for the baselines.
//!
//! The engine embeds a `ReplicaCore` and adds its phase state — the table
//! of accepted proposals and the votes on them — on top.

use crate::actions::Outbox;
use crate::batcher::Batcher;
use crate::engine::TimerKind;
use crate::messages::{ClientReply, Message};
use crate::viewchange::ViewChangeState;
use client_table::ClientTable;
use flexitrust_exec::{
    Checkpoint, CheckpointJournal, CheckpointLog, ExecutedBatch, ExecutionQueue, KvStore,
};
use flexitrust_trusted::{Attestation, SharedEnclave};
use flexitrust_types::{
    Batch, ClientId, Digest, KvResult, PrimaryAttest, ReplicaId, SeqNum, StateSnapshot,
    SystemConfig, Transaction, View,
};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

mod client_table;

/// How this replica, when primary, binds a batch to a sequence number: it
/// picks the next number itself — or, under `AppendF`, lets its trusted
/// counter pick it — and has its trusted component (when the style uses
/// one) attest the pair.
pub(crate) struct Sequencer {
    next_seq: u64,
    /// Trusted counter identifier used by the current primary (a new counter
    /// is created after each view change).
    pub(crate) counter_id: u64,
    pub(crate) enclave: Option<SharedEnclave>,
    attest: PrimaryAttest,
}

impl Sequencer {
    /// The attestation the proposal of `digest` at `seq` carries.
    pub(crate) fn attestation(&self, seq: SeqNum, digest: Digest) -> Option<Attestation> {
        let enclave = self.enclave.as_ref()?;
        match self.attest {
            PrimaryAttest::None => None,
            PrimaryAttest::HostCounter => enclave.append(self.counter_id, seq.0, digest).ok(),
            PrimaryAttest::Log => enclave.log_append(0, Some(seq.0), digest).ok(),
            PrimaryAttest::AppendF => {
                let (value, attestation) = enclave.append_f(self.counter_id, digest).ok()?;
                debug_assert_eq!(value, seq.0, "re-proposals must stay contiguous");
                Some(attestation)
            }
        }
    }

    /// The sequence number `batch` is proposed at and the attestation that
    /// travels with its `PrePrepare`. `None` declines — should an `AppendF`
    /// counter be unusable (it is not for an honest primary) — and the
    /// batch stays queued.
    fn bind(&mut self, batch: &Batch) -> Option<(SeqNum, Option<Attestation>)> {
        if self.attest == PrimaryAttest::AppendF {
            let enclave = self.enclave.as_ref()?;
            let (seq, attestation) = enclave.append_f(self.counter_id, batch.digest()).ok()?;
            return Some((SeqNum(seq), Some(attestation)));
        }
        let seq = SeqNum(self.next_seq);
        self.next_seq += 1;
        Some((seq, self.attestation(seq, batch.digest())))
    }

    /// Notes that `seq` is already bound to a batch: the next number this
    /// primary picks is above it.
    pub(crate) fn skip_past(&mut self, seq: SeqNum) {
        self.next_seq = self.next_seq.max(seq.0 + 1);
    }

    /// Takes over as the primary of a new view that proposes from
    /// `next_seq` on. Counter-based primaries create a fresh counter
    /// positioned at the stable checkpoint `stable`, so re-proposals are
    /// attested from the lowest re-proposed sequence number on (§8.1
    /// Create); under `AppendF` the creation's attestation is returned, the
    /// proof FlexiTrust backups demand (§8.2, §8.3).
    pub(crate) fn take_over(&mut self, next_seq: SeqNum, stable: SeqNum) -> Option<Attestation> {
        self.next_seq = next_seq.0;
        if !matches!(
            self.attest,
            PrimaryAttest::HostCounter | PrimaryAttest::AppendF
        ) {
            return None;
        }
        let (counter_id, attestation) = self.enclave.as_ref()?.create_counter(stable.0);
        self.counter_id = counter_id;
        (self.attest == PrimaryAttest::AppendF).then_some(attestation)
    }
}

/// How long a partially filled batch waits at the primary: short, so low
/// client counts still make progress; it only matters for latency at low
/// load.
const BATCH_FLUSH_DELAY_US: u64 = 500;

/// Common replica state embedded by every protocol engine.
pub struct ReplicaCore {
    /// Shared deployment configuration: one allocation per cluster, a
    /// reference-count bump per replica that embeds it.
    config: Arc<SystemConfig>,
    id: ReplicaId,
    view: View,
    exec: ExecutionQueue,
    batcher: Batcher,
    checkpoints: CheckpointLog,
    /// Each client's latest reply (PBFT keeps exactly this): what a retry
    /// of that request is answered from, and the request id below which a
    /// retry is stale.
    reply_cache: ClientTable<ClientReply>,
    executed_txns: u64,
    /// The executed state at this replica's checkpoint boundaries, from the
    /// newest stable one it captured onwards: what it serves to a recovering
    /// peer and rolls speculation back to.
    journal: CheckpointJournal,
    /// Batches the primary has cut but not yet proposed.
    pending_batches: VecDeque<Batch>,
    /// Sequence numbers this primary proposed that have not executed yet.
    outstanding: BTreeSet<u64>,
    pub(crate) sequencer: Sequencer,
    pub(crate) view_change: ViewChangeState,
}

impl ReplicaCore {
    /// Creates the core state for replica `id` under `config`, executing
    /// against an empty key-value store; as primary it numbers batches
    /// itself and attests none. Accepts either an owned `SystemConfig` or
    /// an `Arc<SystemConfig>` shared across the cluster.
    pub fn new(config: impl Into<Arc<SystemConfig>>, id: ReplicaId) -> Self {
        Self::with_store(config, id, KvStore::new())
    }

    /// Creates the core state of an engine whose primary binds batches as
    /// `attest` says, over `enclave`.
    pub(crate) fn with_sequencer(
        config: Arc<SystemConfig>,
        id: ReplicaId,
        attest: PrimaryAttest,
        enclave: Option<SharedEnclave>,
    ) -> Self {
        let mut core = Self::new(config, id);
        core.sequencer.attest = attest;
        core.sequencer.enclave = enclave;
        core
    }

    /// Creates the core state with a pre-loaded store (e.g. the 600 k-record
    /// YCSB table), which committed batches execute against in order on the
    /// caller's thread. A non-empty store is captured as boundary 0, what a
    /// rollback with no later boundary returns to; an empty one needs no
    /// capture.
    pub fn with_store(config: impl Into<Arc<SystemConfig>>, id: ReplicaId, store: KvStore) -> Self {
        let config = config.into();
        let checkpoint_quorum = config.small_quorum();
        let mut journal = CheckpointJournal::default();
        if !store.is_empty() {
            journal.capture(SeqNum(0), &store);
        }
        ReplicaCore {
            batcher: Batcher::new(config.batch_size),
            checkpoints: CheckpointLog::new(config.checkpoint_interval, checkpoint_quorum),
            exec: ExecutionQueue::with_store(store),
            reply_cache: ClientTable::default(),
            executed_txns: 0,
            journal,
            pending_batches: VecDeque::new(),
            outstanding: BTreeSet::new(),
            sequencer: Sequencer {
                next_seq: 1,
                counter_id: 0,
                enclave: None,
                attest: PrimaryAttest::None,
            },
            view_change: ViewChangeState::new(config.small_quorum()),
            view: View::ZERO,
            config,
            id,
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Moves to `view` (monotonically; going backwards is ignored).
    pub(crate) fn enter_view(&mut self, view: View) {
        if view > self.view {
            self.view = view;
        }
    }

    /// The primary of the current view.
    pub fn primary(&self) -> ReplicaId {
        self.view.primary(self.config.n)
    }

    /// Returns `true` when this replica is the primary of the current view.
    pub fn is_primary(&self) -> bool {
        self.primary() == self.id
    }

    /// The primary-side batcher.
    pub fn batcher(&self) -> &Batcher {
        &self.batcher
    }

    /// The highest executed sequence number.
    pub fn last_executed(&self) -> SeqNum {
        self.exec.last_executed()
    }

    /// Total transactions executed by this replica.
    pub fn executed_txns(&self) -> u64 {
        self.executed_txns
    }

    /// Digest of the current RSM state.
    pub fn state_digest(&self) -> Digest {
        self.exec.state_digest()
    }

    /// Read-only access to the execution queue.
    pub fn exec(&self) -> &ExecutionQueue {
        &self.exec
    }

    /// The journal of captured checkpoint boundaries.
    pub fn journal(&self) -> &CheckpointJournal {
        &self.journal
    }

    /// The checkpoint log.
    pub fn checkpoints(&self) -> &CheckpointLog {
        &self.checkpoints
    }

    /// Looks up a cached reply for a retransmitted client request.
    #[cfg(test)]
    pub(crate) fn cached_reply(
        &self,
        client: ClientId,
        request: flexitrust_types::RequestId,
    ) -> Option<&ClientReply> {
        self.reply_cache
            .get(client)
            .filter(|reply| reply.request == request)
    }

    /// Submits a committed (or speculatively executable) batch at `seq`:
    /// executes everything now in order, emits one reply per transaction and
    /// an `Executed` notification per batch, and returns the executed
    /// batches so the engine can trigger protocol-specific follow-ups
    /// (checkpoint messages, speculative bookkeeping, ...). Each outcome's
    /// result has moved into its reply: the returned outcomes of answered
    /// transactions read `KvResult::Noop`.
    ///
    /// Execution pauses at every checkpoint boundary it reaches so the
    /// journal captures the state at exactly that sequence number, however
    /// many parked successors execute in the same call.
    pub fn commit_batch(
        &mut self,
        seq: SeqNum,
        batch: Batch,
        speculative: bool,
        out: &mut Outbox,
    ) -> Vec<ExecutedBatch> {
        let mut executed = Vec::new();
        if !self.exec.park(seq, batch) {
            return executed;
        }
        loop {
            let boundary = self.checkpoints.next_boundary(self.last_executed());
            let ran = executed.len();
            self.exec.execute_ready(boundary, &mut executed);
            for done in executed.iter().skip(ran) {
                self.journal.record(&done.batch);
            }
            if self.last_executed() != boundary {
                break;
            }
            self.journal.capture(boundary, self.exec.store());
        }
        out.reserve_replies(executed.iter().map(|done| done.outcomes.len()).sum());
        for done in &mut executed {
            self.executed_txns += done.outcomes.len() as u64;
            out.executed(done.seq, done.outcomes.len());
            for outcome in &mut done.outcomes {
                // No-op filler transactions have no real client to answer.
                if outcome.client == ClientId(u64::MAX) {
                    continue;
                }
                let reply = ClientReply {
                    client: outcome.client,
                    request: outcome.request,
                    seq: done.seq,
                    view: self.view,
                    replica: self.id,
                    result: std::mem::replace(&mut outcome.result, KvResult::Noop),
                    speculative,
                };
                self.reply_cache.insert(outcome.client, reply.clone());
                out.reply(reply);
            }
        }
        executed
    }

    /// Executes `batch` at `seq` (and whatever parked successors it
    /// releases) through [`Self::commit_batch`]; then, for each executed
    /// batch, votes for its checkpoint, frees its instance of the proposal
    /// window and refills the window. Commit and state-transfer replay both
    /// take this path.
    pub(crate) fn execute(
        &mut self,
        seq: SeqNum,
        batch: Batch,
        speculative: bool,
        out: &mut Outbox,
    ) {
        let executed = self.commit_batch(seq, batch, speculative, out);
        for done in &executed {
            self.maybe_emit_checkpoint(done.seq, out);
            self.outstanding.remove(&done.seq.0);
            self.try_propose(out);
        }
    }

    /// Broadcasts this replica's `Checkpoint` vote for a batch
    /// [`Self::commit_batch`] just executed, if `seq` is a checkpoint
    /// boundary: the digest certified is the one captured at the boundary,
    /// not the state execution has reached since.
    pub fn maybe_emit_checkpoint(&mut self, seq: SeqNum, out: &mut Outbox) {
        let Some(state_digest) = self.journal.digest_at(seq) else {
            return;
        };
        out.broadcast(Message::Checkpoint {
            seq,
            state_digest,
            attestation: None,
        });
        if seq <= self.low_water_mark() {
            // Already stable when this replica got there.
            self.journal.fold_through(seq);
        }
    }

    /// Records a checkpoint vote; returns the newly stable checkpoint
    /// sequence number when this vote made it stable.
    pub fn record_checkpoint_vote(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        state_digest: Digest,
    ) -> Option<SeqNum> {
        let stable = self
            .checkpoints
            .record_vote(from, seq, state_digest)
            .map(|c| c.seq);
        if let Some(stable) = stable {
            self.journal.fold_through(stable);
        }
        stable
    }

    /// The stable checkpoint and this replica's state at it, when the stable
    /// checkpoint is past `after`, the boundary is still held and the state
    /// captured there is the one the quorum certified (votes can stabilise
    /// a digest this replica disagrees with). Serves a peer's
    /// `CheckpointRequest`; the only place a full snapshot is materialised
    /// after a replica's first capture.
    pub fn stable_checkpoint_snapshot(&self, after: SeqNum) -> Option<(SeqNum, StateSnapshot)> {
        let stable = self.checkpoints.stable()?;
        if stable.seq <= after || self.journal.digest_at(stable.seq)? != stable.state_digest {
            return None;
        }
        Some((stable.seq, self.journal.snapshot_at(stable.seq)?))
    }

    /// Installs a peer's stable checkpoint: rebuilds the store from the
    /// snapshot, fast-forwards the execution queue to `seq`, and adopts the
    /// checkpoint as the stable low-water mark. Returns `false` (leaving
    /// all state untouched) when this replica has already executed past
    /// `seq`, or when the snapshot's keys are not strictly ascending, as
    /// every honest snapshot's are. The recovery rejoin path.
    pub fn install_checkpoint(&mut self, seq: SeqNum, snapshot: &StateSnapshot) -> bool {
        let ascending = snapshot.entries.is_sorted_by(|(a, _), (b, _)| a < b);
        if seq <= self.last_executed() || !ascending {
            return false;
        }
        let store = KvStore::from_snapshot(snapshot);
        let state_digest = store.state_digest();
        self.exec.fast_forward(seq, store);
        self.checkpoints
            .install_stable(Checkpoint { seq, state_digest });
        self.journal.install(seq, snapshot.clone(), state_digest);
        true
    }

    /// Discards speculative execution past the stable checkpoint: the store
    /// returns to the newest boundary this replica captured at or below its
    /// low-water mark and execution resumes after it. With none later, that
    /// is sequence 0 and the store the replica started on. The cached
    /// replies of discarded executions go too: a retry of such a request
    /// must wait for its new execution, not hear the old one.
    pub fn rollback_to_stable(&mut self) {
        let (seq, snapshot) = self
            .journal
            .rollback(self.low_water_mark())
            .unwrap_or_default();
        let store = KvStore::from_snapshot(&snapshot);
        self.exec.rollback_to(seq, store);
        self.reply_cache.retain(|reply| reply.seq <= seq);
    }

    /// Asks every peer for the latest stable checkpoint past this replica's
    /// frontier: the one place a `CheckpointRequest` is built.
    pub(crate) fn request_checkpoint(&self, out: &mut Outbox) {
        out.broadcast(Message::CheckpointRequest {
            last_executed: self.last_executed(),
        });
    }

    /// Serves a peer's `CheckpointRequest`: when this replica's stable
    /// checkpoint is past the requester's execution frontier, replies with
    /// the boundary snapshot plus every batch after it that this replica has
    /// executed, so the requester can install the checkpoint and replay
    /// forward. `held` lends the engine's accepted batches in sequence order.
    pub(crate) fn serve_checkpoint_request<'a>(
        &self,
        from: ReplicaId,
        last_executed: SeqNum,
        held: impl Iterator<Item = (SeqNum, &'a Batch)>,
        out: &mut Outbox,
    ) {
        let Some((seq, snapshot)) = self.stable_checkpoint_snapshot(last_executed) else {
            return;
        };
        let frontier = self.last_executed();
        let batches = held
            .filter(|(s, _)| *s > seq && *s <= frontier)
            .map(|(s, batch)| (s, batch.clone()))
            .collect();
        let state = Message::CheckpointState {
            seq,
            snapshot,
            batches,
        };
        out.send(from, state);
    }

    /// Handles a peer's `CheckpointState` (the recovery rejoin path): adopts
    /// the snapshot when it is ahead of this replica, then replays the
    /// carried batches in order on the normal execution path
    /// ([`Self::execute`]), first moving the sequencer past each. Returns
    /// `true` when the snapshot itself was installed (the caller then drops
    /// its per-sequence state up to `seq`).
    pub(crate) fn replay_checkpoint_state(
        &mut self,
        seq: SeqNum,
        snapshot: &StateSnapshot,
        batches: Vec<(SeqNum, Batch)>,
        speculative: bool,
        out: &mut Outbox,
    ) -> bool {
        let installed = self.install_checkpoint(seq, snapshot);
        for (batch_seq, batch) in batches {
            if batch_seq <= self.last_executed() {
                continue;
            }
            self.sequencer.skip_past(batch_seq);
            self.execute(batch_seq, batch, speculative, out);
        }
        installed
    }

    /// Number of consensus instances this primary currently has in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// At the primary, queues client transactions for proposal and arms the
    /// `BatchFlush` timer when a partial batch remains; a backup (a forwarded
    /// request found it no longer primary) drops them.
    pub fn enqueue(&mut self, txns: Vec<Transaction>, out: &mut Outbox) {
        if !self.is_primary() {
            return;
        }
        let full = self.batcher.push(txns);
        self.pending_batches.extend(full);
        if self.batcher.pending_len() > 0 {
            out.set_timer(TimerKind::BatchFlush, BATCH_FLUSH_DELAY_US);
        }
        self.try_propose(out);
    }

    /// Cuts the partial batch (on the `BatchFlush` timer) and proposes.
    pub(crate) fn flush_batch(&mut self, out: &mut Outbox) {
        if let Some(batch) = self.batcher.flush() {
            self.pending_batches.push_back(batch);
        }
        self.try_propose(out);
    }

    /// Proposes as many pending batches as the in-flight window allows, each
    /// bound by the [`Sequencer`].
    fn try_propose(&mut self, out: &mut Outbox) {
        if !self.is_primary() || self.in_view_change() {
            return;
        }
        while self.outstanding.len() < self.config.max_in_flight {
            let Some(batch) = self.pending_batches.pop_front() else {
                return;
            };
            let Some((seq, attestation)) = self.sequencer.bind(&batch) else {
                self.pending_batches.push_front(batch);
                return;
            };
            self.outstanding.insert(seq.0);
            out.broadcast(Message::PrePrepare {
                view: self.view,
                seq,
                batch,
                attestation,
            });
        }
    }

    /// Client transactions arrived at this replica: the primary queues them
    /// for proposal, a backup forwards them to the primary.
    pub fn on_client_request(&mut self, txns: Vec<Transaction>, out: &mut Outbox) {
        if self.is_primary() {
            self.enqueue(txns, out);
        } else {
            out.send(self.primary(), Message::ForwardRequest { txns });
        }
    }

    /// An unhappy client re-sent `txn` to every replica. Its latest reply
    /// is cached: answer from the cache. Older than the client's cached
    /// request: stale (a duplicated or reordered retry of a request that
    /// has executed), so nothing is answered, forwarded or queued, as in
    /// PBFT. Otherwise the primary queues it, and a backup forwards it and
    /// arms `timer`: if the primary never proposes it, the expiry makes
    /// this replica suspect the primary. Returns `true` when the request
    /// was forwarded (and `timer` armed).
    pub(crate) fn on_client_retry(
        &mut self,
        txn: Transaction,
        timer: TimerKind,
        out: &mut Outbox,
    ) -> bool {
        match self.reply_cache.get(txn.client()) {
            Some(reply) if reply.request == txn.request() => out.reply(reply.clone()),
            Some(reply) if reply.request > txn.request() => {}
            _ if self.is_primary() => self.enqueue(vec![txn], out),
            _ => {
                out.send(self.primary(), Message::ForwardRequest { txns: vec![txn] });
                out.set_timer(timer, self.config.view_timeout_us);
                return true;
            }
        }
        false
    }

    /// The stable low-water mark (sequence numbers at or below this may be
    /// garbage collected).
    pub fn low_water_mark(&self) -> SeqNum {
        self.checkpoints.low_water_mark()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_trusted::{AttestationMode, Enclave, EnclaveConfig};
    use flexitrust_types::{KvOp, ProtocolId, RequestId, Transaction};

    fn core() -> ReplicaCore {
        let cfg = SystemConfig::for_protocol(ProtocolId::FlexiBft, 1);
        ReplicaCore::new(cfg, ReplicaId(1))
    }

    fn batch(tag: u64) -> Batch {
        Batch::new(
            vec![Transaction::new(
                ClientId(3),
                RequestId(tag),
                KvOp::Update {
                    key: tag,
                    value: vec![1].into(),
                },
            )],
            Digest::from_u64_tag(tag),
        )
    }

    #[test]
    fn primary_is_derived_from_view() {
        let mut c = core();
        assert_eq!(c.primary(), ReplicaId(0));
        assert!(!c.is_primary());
        c.enter_view(View(1));
        assert!(c.is_primary());
        // Views never go backwards.
        c.enter_view(View(0));
        assert_eq!(c.view(), View(1));
    }

    #[test]
    fn commit_batch_executes_in_order_and_replies() {
        let mut c = core();
        let mut out = Outbox::new();
        assert!(c
            .commit_batch(SeqNum(2), batch(2), false, &mut out)
            .is_empty());
        assert_eq!(out.replies().len(), 0);
        let executed = c.commit_batch(SeqNum(1), batch(1), false, &mut out);
        assert_eq!(executed.len(), 2);
        assert_eq!(c.last_executed(), SeqNum(2));
        assert_eq!(c.executed_txns(), 2);
        assert_eq!(out.replies().len(), 2);
        assert_eq!(out.replies()[0].replica, ReplicaId(1));
    }

    /// Client ids on both sides of the first chunk edges, and far out.
    const EDGE_CLIENTS: [u64; 6] = [0, 63, 64, 65, 1 << 40, u64::MAX - 1];

    /// A batch of one update per `(client, request)`.
    fn batch_of(requests: impl IntoIterator<Item = (u64, u64)>, tag: u64) -> Batch {
        let txns = requests.into_iter().map(|(client, request)| {
            let op = KvOp::Update {
                key: client,
                value: vec![1].into(),
            };
            Transaction::new(ClientId(client), RequestId(request), op)
        });
        Batch::new(txns.collect(), Digest::from_u64_tag(tag))
    }

    #[test]
    fn reply_cache_returns_latest_reply_per_client() {
        let mut c = core();
        let mut out = Outbox::new();
        for request in [1, 2] {
            let requests = EDGE_CLIENTS.map(|client| (client, request));
            c.commit_batch(
                SeqNum(request),
                batch_of(requests, request),
                false,
                &mut out,
            );
        }
        for client in EDGE_CLIENTS.map(ClientId) {
            let reply = c.cached_reply(client, RequestId(2)).expect("latest");
            assert_eq!((reply.client, reply.seq), (client, SeqNum(2)));
            assert!(c.cached_reply(client, RequestId(1)).is_none());
        }
        // Neighbours in the same chunks were never answered.
        for client in [1, 62, 66, (1 << 40) + 1, u64::MAX - 2] {
            assert!(c.cached_reply(ClientId(client), RequestId(2)).is_none());
        }
    }

    #[test]
    fn a_rollback_drops_exactly_the_replies_past_the_stable_boundary() {
        let mut cfg = SystemConfig::for_protocol(ProtocolId::FlexiZz, 1);
        cfg.checkpoint_interval = 2;
        let mut c = ReplicaCore::new(cfg, ReplicaId(1));
        let mut out = Outbox::new();
        let batches = [
            vec![(0, 1), (1 << 40, 1)],
            vec![(64, 1)],
            vec![(0, 2), (65, 1), (u64::MAX - 1, 1)],
        ];
        for (seq, requests) in (1..).zip(batches) {
            for done in c.commit_batch(SeqNum(seq), batch_of(requests, seq), true, &mut out) {
                c.maybe_emit_checkpoint(done.seq, &mut out);
            }
        }
        assert_eq!(c.reply_cache.chunks(), 4);
        stabilise(&mut c, SeqNum(2), checkpoint_votes(&out)[0].1);
        c.rollback_to_stable();
        assert_eq!(c.last_executed(), SeqNum(2));
        let cached = |client, request| c.cached_reply(ClientId(client), RequestId(request));
        // Executed at or below 2: kept.
        assert_eq!(cached(1 << 40, 1).map(|r| r.seq), Some(SeqNum(1)));
        assert_eq!(cached(64, 1).map(|r| r.seq), Some(SeqNum(2)));
        // Executed at 3: gone, and client 0's reply at 1 was replaced by it.
        for (client, request) in [(0, 2), (0, 1), (65, 1), (u64::MAX - 1, 1)] {
            assert!(cached(client, request).is_none(), "{client}/{request}");
        }
        // Client 0's chunk and the far client's chunk emptied and were freed.
        assert_eq!(c.reply_cache.chunks(), 2);
    }

    /// Client 3's requests 1 and 2 executed at `c`; then a stale retry of
    /// request 1 arrives. Returns what the retry emitted and whether it was
    /// forwarded.
    fn stale_retry(c: &mut ReplicaCore) -> (Outbox, bool) {
        let mut out = Outbox::new();
        c.commit_batch(SeqNum(1), batch(1), false, &mut out);
        c.commit_batch(SeqNum(2), batch(2), false, &mut out);
        let mut out = Outbox::new();
        let stale = batch(1).txns()[0].clone();
        let timer = TimerKind::RequestForwarded(1);
        let forwarded = c.on_client_retry(stale, timer, &mut out);
        (out, forwarded)
    }

    #[test]
    fn a_backup_neither_answers_nor_forwards_a_stale_retry() {
        let mut c = core();
        let (out, forwarded) = stale_retry(&mut c);
        assert!(!forwarded);
        assert!(out.is_empty());
        // The latest request is still answered, a newer one forwarded.
        let mut out = Outbox::new();
        let timer = TimerKind::RequestForwarded(2);
        assert!(!c.on_client_retry(batch(2).txns()[0].clone(), timer, &mut out));
        assert_eq!(out.replies().len(), 1);
        assert!(c.on_client_retry(batch(3).txns()[0].clone(), timer, &mut out));
    }

    #[test]
    fn a_primary_does_not_queue_a_stale_retry() {
        let cfg = SystemConfig::for_protocol(ProtocolId::FlexiBft, 1);
        let mut c = ReplicaCore::new(cfg, ReplicaId(0));
        let (out, forwarded) = stale_retry(&mut c);
        assert!(!forwarded);
        assert!(out.is_empty());
        assert_eq!(c.batcher().pending_len(), 0);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn noop_transactions_are_not_replied_to() {
        let mut c = core();
        let mut out = Outbox::new();
        c.commit_batch(SeqNum(1), Batch::noop(1), false, &mut out);
        assert_eq!(out.replies().len(), 0);
        assert_eq!(c.last_executed(), SeqNum(1));
    }

    #[test]
    fn checkpoint_vote_quorum_advances_low_water_mark() {
        let mut c = core();
        let digest = Digest::from_u64_tag(5);
        assert!(c
            .record_checkpoint_vote(ReplicaId(0), SeqNum(1000), digest)
            .is_none());
        assert!(c
            .record_checkpoint_vote(ReplicaId(2), SeqNum(1000), digest)
            .is_some());
        assert_eq!(c.low_water_mark(), SeqNum(1000));
    }

    /// A replica checkpointing every `interval` batches, with the `tag`s
    /// committed in the given order and each executed boundary voted on.
    fn checkpointing(interval: u64, id: u32, tags: &[u64]) -> (ReplicaCore, Outbox) {
        let mut cfg = SystemConfig::for_protocol(ProtocolId::FlexiBft, 1);
        cfg.checkpoint_interval = interval;
        let mut c = ReplicaCore::new(cfg, ReplicaId(id));
        let mut out = Outbox::new();
        for tag in tags {
            for done in c.commit_batch(SeqNum(*tag), batch(*tag), false, &mut out) {
                c.maybe_emit_checkpoint(done.seq, &mut out);
            }
        }
        (c, out)
    }

    /// The `(seq, state_digest)` of every `Checkpoint` vote in `out`.
    fn checkpoint_votes(out: &Outbox) -> Vec<(SeqNum, Digest)> {
        let votes = out.broadcasts().into_iter().filter_map(|m| match m {
            Message::Checkpoint {
                seq, state_digest, ..
            } => Some((*seq, *state_digest)),
            _ => None,
        });
        votes.collect()
    }

    /// Two peers vote `digest` at `seq`: an `f + 1` quorum without `c`.
    fn stabilise(c: &mut ReplicaCore, seq: SeqNum, digest: Digest) {
        c.record_checkpoint_vote(ReplicaId(0), seq, digest);
        c.record_checkpoint_vote(ReplicaId(2), seq, digest);
        assert_eq!(c.low_water_mark(), seq);
    }

    #[test]
    fn checkpoint_broadcast_fires_only_on_boundaries() {
        let (_, out) = checkpointing(2, 1, &[1]);
        assert!(out.broadcasts().is_empty());
        let (_, out) = checkpointing(2, 1, &[1, 2, 3]);
        assert_eq!(out.broadcasts().len(), 1);
        assert_eq!(out.broadcasts()[0].kind(), "Checkpoint");
        assert_eq!(out.broadcasts()[0].seq(), Some(SeqNum(2)));
    }

    #[test]
    fn a_boundary_certifies_its_own_state_however_execution_drained() {
        // Interval 1: batch 2 commits first and parks, so committing batch 1
        // executes both in one call. The vote and the snapshot labelled 1
        // must be the state after 1, as at a replica that committed in order.
        let (in_order, in_order_out) = checkpointing(1, 1, &[1, 2]);
        let (mut drained, drained_out) = checkpointing(1, 3, &[2, 1]);
        assert_eq!(drained.last_executed(), SeqNum(2));
        let votes = checkpoint_votes(&drained_out);
        assert_eq!(votes, checkpoint_votes(&in_order_out));
        assert_ne!(votes[0].1, votes[1].1);

        let mut after_one = KvStore::new();
        after_one.apply(batch(1).txns()[0].op());
        assert_eq!(votes[0], (SeqNum(1), after_one.state_digest()));
        stabilise(&mut drained, SeqNum(1), votes[0].1);
        let (seq, snapshot) = drained.stable_checkpoint_snapshot(SeqNum(0)).unwrap();
        assert_eq!((seq, &snapshot), (SeqNum(1), &after_one.to_snapshot()));
        assert_eq!(in_order.journal().snapshot_at(SeqNum(1)), Some(snapshot));
    }

    #[test]
    fn a_checkpoint_certified_with_another_digest_is_not_served() {
        // The peers' votes stabilise a digest at 2 that is not this
        // replica's: what it holds at 2 is not what was certified.
        let (mut c, out) = checkpointing(2, 1, &[1, 2]);
        let own = checkpoint_votes(&out)[0].1;
        stabilise(&mut c, SeqNum(2), Digest::from_u64_tag(77));
        assert!(c.stable_checkpoint_snapshot(SeqNum(0)).is_none());
        // With its own digest certified, it serves.
        let (mut c, _) = checkpointing(2, 1, &[1, 2]);
        stabilise(&mut c, SeqNum(2), own);
        assert!(c.stable_checkpoint_snapshot(SeqNum(0)).is_some());
    }

    #[test]
    fn rollback_returns_to_the_stable_boundary_not_to_where_it_turned_stable() {
        // Boundary 2 turns stable when the replica has already executed 3
        // speculatively; rolling back and executing a different 3 must land
        // where a replica that never speculated does.
        let (mut c, out) = checkpointing(2, 1, &[1, 2, 3]);
        stabilise(&mut c, SeqNum(2), checkpoint_votes(&out)[0].1);
        c.rollback_to_stable();
        assert_eq!(c.last_executed(), SeqNum(2));
        let mut out = Outbox::new();
        c.commit_batch(SeqNum(3), batch(30), true, &mut out);
        c.commit_batch(SeqNum(4), batch(4), true, &mut out);

        let (mut clean, _) = checkpointing(2, 3, &[1, 2]);
        clean.commit_batch(SeqNum(3), batch(30), true, &mut out);
        clean.commit_batch(SeqNum(4), batch(4), true, &mut out);
        assert_eq!(c.state_digest(), clean.state_digest());
        assert_eq!(
            c.journal().snapshot_at(SeqNum(4)),
            Some(clean.exec().store().to_snapshot())
        );
        // Nothing captured at or below the low-water mark: back to genesis.
        let (mut fresh, _) = checkpointing(2, 1, &[1]);
        fresh.rollback_to_stable();
        assert_eq!(fresh.last_executed(), SeqNum(0));
        assert!(fresh.exec().store().is_empty());
    }

    #[test]
    fn a_rolled_back_execution_is_not_answered_from_the_reply_cache() {
        let mut c = core();
        let mut out = Outbox::new();
        c.commit_batch(SeqNum(1), batch(1), true, &mut out);
        let txn = batch(1).txns()[0].clone();
        assert!(c.cached_reply(txn.client(), txn.request()).is_some());
        c.rollback_to_stable();
        assert_eq!(c.last_executed(), SeqNum(0));
        let mut out = Outbox::new();
        let timer = TimerKind::RequestForwarded(1);
        let forwarded = c.on_client_retry(txn, timer, &mut out);
        assert!(out.replies().is_empty(), "{:?}", out.replies());
        // The backup forwards the retry, so the request executes again.
        assert!(forwarded);
    }

    #[test]
    fn rollback_with_no_stable_boundary_returns_to_the_preloaded_store() {
        let cfg = SystemConfig::for_protocol(ProtocolId::FlexiZz, 1);
        let preloaded = KvStore::with_dataset(8, 4);
        let mut c = ReplicaCore::with_store(cfg, ReplicaId(1), preloaded.clone());
        let mut out = Outbox::new();
        c.commit_batch(SeqNum(1), batch(3), true, &mut out);
        assert_ne!(c.state_digest(), preloaded.state_digest());
        c.rollback_to_stable();
        assert_eq!(c.last_executed(), SeqNum(0));
        assert_eq!(c.exec().store().to_snapshot(), preloaded.to_snapshot());
        assert_eq!(c.state_digest(), preloaded.state_digest());
    }

    #[test]
    fn checkpoint_state_transfer_round_trips_through_install() {
        // A source replica with a small checkpoint interval executes past a
        // boundary and stabilises it.
        let (mut source, out) = checkpointing(2, 1, &[1, 2]);
        let digest = source.state_digest();
        assert_eq!(checkpoint_votes(&out), vec![(SeqNum(2), digest)]);
        stabilise(&mut source, SeqNum(2), digest);

        // It serves the stable boundary to a peer that is behind...
        let (seq, snapshot) = source.stable_checkpoint_snapshot(SeqNum(0)).unwrap();
        assert_eq!(seq, SeqNum(2));
        // ...but not to one already caught up.
        assert!(source.stable_checkpoint_snapshot(SeqNum(2)).is_none());

        // A fresh replica installs it and lands on the same state.
        let (mut joiner, _) = checkpointing(2, 3, &[]);
        assert!(joiner.install_checkpoint(seq, &snapshot));
        assert_eq!(joiner.last_executed(), SeqNum(2));
        assert_eq!(joiner.state_digest(), digest);
        assert_eq!(joiner.low_water_mark(), SeqNum(2));
        // Installing behind the execution frontier is refused.
        assert!(!joiner.install_checkpoint(SeqNum(1), &snapshot));
        // The joiner can itself serve the installed boundary onwards.
        assert!(joiner.stable_checkpoint_snapshot(SeqNum(0)).is_some());
    }

    #[test]
    fn a_snapshot_whose_keys_are_not_strictly_ascending_is_not_installed() {
        let snapshot = |keys: &[u64]| StateSnapshot {
            entries: keys.iter().map(|k| (*k, vec![1u8].into())).collect(),
            applied_mutations: keys.len() as u64,
            fingerprint: 7,
        };
        let mut joiner = core();
        for keys in [&[5, 1][..], &[1, 1, 2]] {
            assert!(!joiner.install_checkpoint(SeqNum(2), &snapshot(keys)));
            assert_eq!(joiner.last_executed(), SeqNum(0));
            assert_eq!(joiner.low_water_mark(), SeqNum(0));
            assert_eq!(joiner.journal().held().count(), 0);
        }
        assert!(joiner.install_checkpoint(SeqNum(2), &snapshot(&[1, 3, 5])));
        assert_eq!(joiner.last_executed(), SeqNum(2));
    }

    #[test]
    fn proposal_window_keeps_a_batch_the_sequencer_declines() {
        let mut cfg = SystemConfig::for_protocol(ProtocolId::FlexiBft, 1);
        cfg.batch_size = 1;
        cfg.max_in_flight = 2;
        let attest = PrimaryAttest::AppendF;
        let mut primary = ReplicaCore::with_sequencer(Arc::new(cfg), ReplicaId(0), attest, None);
        let txns = |tags: [u64; 3]| tags.map(|t| batch(t).txns()[0].clone()).to_vec();
        let mut out = Outbox::new();
        // An unusable counter: nothing goes out, nothing is lost.
        primary.on_client_request(txns([1, 2, 3]), &mut out);
        assert!(out.is_empty());
        // A working counter fills the window, no further.
        let enclave = EnclaveConfig::counter_only(ReplicaId(0), AttestationMode::Counting);
        primary.sequencer.enclave = Some(Enclave::shared(enclave));
        primary.try_propose(&mut out);
        assert_eq!(out.broadcasts().len(), 2);
        assert_eq!(primary.outstanding(), 2);
        // Executing the first frees its instance, and the third goes out.
        primary.execute(SeqNum(1), batch(1), false, &mut out);
        assert_eq!(primary.outstanding(), 2);
        assert_eq!(out.broadcasts()[2].seq(), Some(SeqNum(3)));
    }

    #[test]
    fn a_replayed_batch_moves_the_primary_sequencer_past_it() {
        let mut cfg = SystemConfig::for_protocol(ProtocolId::FlexiBft, 1);
        cfg.batch_size = 1;
        let mut primary = ReplicaCore::new(cfg, ReplicaId(0));
        let mut out = Outbox::new();
        // Nothing past the frontier to install: the trailing batches replay.
        let trailing = (1..=3).map(|tag| (SeqNum(tag), batch(tag))).collect();
        let snapshot = StateSnapshot::default();
        primary.replay_checkpoint_state(SeqNum(0), &snapshot, trailing, false, &mut out);
        assert_eq!(primary.last_executed(), SeqNum(3));
        let mut out = Outbox::new();
        primary.enqueue(batch(4).txns().to_vec(), &mut out);
        assert_eq!(out.broadcasts()[0].seq(), Some(SeqNum(4)));
    }

    #[test]
    fn speculative_flag_propagates_to_replies() {
        let mut c = core();
        let mut out = Outbox::new();
        c.commit_batch(SeqNum(1), batch(1), true, &mut out);
        assert!(out.replies()[0].speculative);
    }
}
