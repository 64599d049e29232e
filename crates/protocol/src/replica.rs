//! Per-replica state shared by every protocol engine.
//!
//! [`ReplicaCore`] bundles the pieces every engine needs regardless of the
//! protocol: configuration, current view, the execution queue (in-order
//! execution against the KV store), the per-client reply cache (for
//! retransmitted requests) and checkpoint tracking — and the replica
//! skeleton every protocol of the paper inherits unchanged from PBFT: the
//! client glue, the primary's proposal window, checkpoint state transfer
//! and (in [`crate::viewchange`]) the view change. How a batch gets its
//! sequence number is the one thing the protocols disagree on there, so the
//! proposing entry points take the engine's `bind` closure: `AppendF` on
//! the trusted counter for FlexiTrust, the next host-chosen number plus the
//! style's attestation for the baselines.
//!
//! The engine embeds a `ReplicaCore` and adds its phase state — the table
//! of accepted proposals and the votes on them — on top.

use crate::actions::Outbox;
use crate::batcher::Batcher;
use crate::engine::TimerKind;
use crate::messages::{ClientReply, Message};
use crate::viewchange::ViewChangeState;
use flexitrust_exec::{
    Checkpoint, CheckpointJournal, CheckpointLog, ExecutedBatch, ExecutionQueue, KvStore,
};
use flexitrust_trusted::Attestation;
use flexitrust_types::{
    Batch, ClientId, Digest, ReplicaId, RequestId, SeqNum, StateSnapshot, SystemConfig,
    Transaction, View,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// What an engine's `bind` closure gives a batch about to be proposed: its
/// sequence number and the attestation that travels with the `PrePrepare`.
/// `None` declines — the batch stays queued and proposing stops.
pub type Binding = Option<(SeqNum, Option<Attestation>)>;

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
    reply_cache: BTreeMap<ClientId, (RequestId, ClientReply)>,
    executed_txns: u64,
    /// The executed state at this replica's checkpoint boundaries, from the
    /// newest stable one it captured onwards: what it serves to a recovering
    /// peer and rolls speculation back to.
    journal: CheckpointJournal,
    /// Batches the primary has cut but not yet proposed.
    pending_batches: VecDeque<Batch>,
    /// Sequence numbers this primary proposed that have not executed yet.
    outstanding: BTreeSet<u64>,
    pub(crate) view_change: ViewChangeState,
}

impl ReplicaCore {
    /// Creates the core state for replica `id` under `config`, executing
    /// against an empty key-value store. Accepts either an owned
    /// `SystemConfig` or an `Arc<SystemConfig>` shared across the cluster.
    pub fn new(config: impl Into<Arc<SystemConfig>>, id: ReplicaId) -> Self {
        Self::with_store(config, id, KvStore::new())
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
            reply_cache: BTreeMap::new(),
            executed_txns: 0,
            journal,
            pending_batches: VecDeque::new(),
            outstanding: BTreeSet::new(),
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
    pub fn enter_view(&mut self, view: View) {
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
    pub fn cached_reply(&self, client: ClientId, request: RequestId) -> Option<&ClientReply> {
        self.reply_cache
            .get(&client)
            .filter(|(req, _)| *req == request)
            .map(|(_, reply)| reply)
    }

    /// Submits a committed (or speculatively executable) batch at `seq`:
    /// executes everything now in order, emits one reply per transaction and
    /// an `Executed` notification per batch, and returns the executed
    /// batches so the engine can trigger protocol-specific follow-ups
    /// (checkpoint messages, speculative bookkeeping, ...).
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
        for done in &executed {
            self.executed_txns += done.outcomes.len() as u64;
            out.executed(done.seq, done.outcomes.len());
            for outcome in &done.outcomes {
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
                    result: outcome.result.clone(),
                    speculative,
                };
                self.reply_cache
                    .insert(outcome.client, (outcome.request, reply.clone()));
                out.reply(reply);
            }
        }
        executed
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
        self.reply_cache.retain(|_, (_, reply)| reply.seq <= seq);
    }

    /// Serves a peer's `CheckpointRequest`: when this replica's stable
    /// checkpoint is past the requester's execution frontier, replies with
    /// the boundary snapshot plus every batch after it that this replica has
    /// executed, so the requester can install the checkpoint and replay
    /// forward. `held` lends the engine's accepted batches in sequence order.
    pub fn serve_checkpoint_request<'a>(
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
    /// carried batches in order, emitting replies and checkpoints exactly as
    /// normal execution would. `replayed` runs after each replayed batch
    /// with what it executed, for the bookkeeping of the engine's normal
    /// execution path. Returns `true` when the snapshot itself was installed
    /// (the caller then drops its per-sequence state up to `seq`).
    pub fn replay_checkpoint_state(
        &mut self,
        seq: SeqNum,
        snapshot: &StateSnapshot,
        batches: Vec<(SeqNum, Batch)>,
        speculative: bool,
        mut replayed: impl FnMut(&mut Self, SeqNum, &[ExecutedBatch], &mut Outbox),
        out: &mut Outbox,
    ) -> bool {
        let installed = self.install_checkpoint(seq, snapshot);
        for (batch_seq, batch) in batches {
            if batch_seq <= self.last_executed() {
                continue;
            }
            let executed = self.commit_batch(batch_seq, batch, speculative, out);
            for done in &executed {
                self.maybe_emit_checkpoint(done.seq, out);
            }
            replayed(self, batch_seq, &executed, out);
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
    pub fn enqueue(
        &mut self,
        txns: Vec<Transaction>,
        bind: impl FnMut(&Batch) -> Binding,
        out: &mut Outbox,
    ) {
        if !self.is_primary() {
            return;
        }
        let full = self.batcher.push(txns);
        self.pending_batches.extend(full);
        if self.batcher.pending_len() > 0 {
            out.set_timer(TimerKind::BatchFlush, BATCH_FLUSH_DELAY_US);
        }
        self.try_propose(bind, out);
    }

    /// Cuts the partial batch (on the `BatchFlush` timer) and proposes.
    pub fn flush_batch(&mut self, bind: impl FnMut(&Batch) -> Binding, out: &mut Outbox) {
        if let Some(batch) = self.batcher.flush() {
            self.pending_batches.push_back(batch);
        }
        self.try_propose(bind, out);
    }

    /// Proposes as many pending batches as the in-flight window allows.
    pub fn try_propose(&mut self, mut bind: impl FnMut(&Batch) -> Binding, out: &mut Outbox) {
        if !self.is_primary() || self.in_view_change() {
            return;
        }
        while self.outstanding.len() < self.config.max_in_flight {
            let Some(batch) = self.pending_batches.pop_front() else {
                return;
            };
            let Some((seq, attestation)) = bind(&batch) else {
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

    /// Marks a consensus instance as no longer outstanding (it executed);
    /// [`Self::try_propose`] then refills the window.
    pub fn instance_finished(&mut self, seq: SeqNum) {
        self.outstanding.remove(&seq.0);
    }

    /// Client transactions arrived at this replica: the primary queues them
    /// for proposal, a backup forwards them to the primary.
    pub fn on_client_request(
        &mut self,
        txns: Vec<Transaction>,
        bind: impl FnMut(&Batch) -> Binding,
        out: &mut Outbox,
    ) {
        if self.is_primary() {
            self.enqueue(txns, bind, out);
        } else {
            out.send(self.primary(), Message::ForwardRequest { txns });
        }
    }

    /// An unhappy client re-sent `txn` to every replica. Already executed:
    /// answer from the reply cache. Otherwise the primary queues it, and a
    /// backup forwards it and arms `timer`: if the primary never proposes
    /// it, the expiry makes this replica suspect the primary. Returns `true`
    /// when the request was forwarded (and `timer` armed).
    pub fn on_client_retry(
        &mut self,
        txn: Transaction,
        timer: TimerKind,
        bind: impl FnMut(&Batch) -> Binding,
        out: &mut Outbox,
    ) -> bool {
        if let Some(reply) = self.cached_reply(txn.client(), txn.request()) {
            out.reply(reply.clone());
        } else if self.is_primary() {
            self.enqueue(vec![txn], bind, out);
        } else {
            out.send(self.primary(), Message::ForwardRequest { txns: vec![txn] });
            out.set_timer(timer, self.config.view_timeout_us);
            return true;
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
    use flexitrust_types::{KvOp, ProtocolId, Transaction};

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

    #[test]
    fn reply_cache_returns_latest_reply_per_client() {
        let mut c = core();
        let mut out = Outbox::new();
        c.commit_batch(SeqNum(1), batch(1), false, &mut out);
        c.commit_batch(SeqNum(2), batch(2), false, &mut out);
        assert!(c.cached_reply(ClientId(3), RequestId(2)).is_some());
        assert!(c.cached_reply(ClientId(3), RequestId(1)).is_none());
        assert!(c.cached_reply(ClientId(9), RequestId(2)).is_none());
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
        let forwarded = c.on_client_retry(txn, timer, |_| None, &mut out);
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
    fn proposal_window_keeps_a_batch_the_binder_declines() {
        let mut cfg = SystemConfig::for_protocol(ProtocolId::FlexiBft, 1);
        cfg.batch_size = 1;
        cfg.max_in_flight = 2;
        let mut primary = ReplicaCore::new(cfg, ReplicaId(0));
        let txns = |tags: [u64; 3]| tags.map(|t| batch(t).txns()[0].clone()).to_vec();
        let mut out = Outbox::new();
        // An unusable counter: nothing goes out, nothing is lost.
        primary.on_client_request(txns([1, 2, 3]), |_| None, &mut out);
        assert!(out.is_empty());
        // A working binder fills the window, no further.
        let mut next = 0;
        let mut bind = |_: &Batch| {
            next += 1;
            Some((SeqNum(next), None))
        };
        primary.try_propose(&mut bind, &mut out);
        assert_eq!(out.broadcasts().len(), 2);
        assert_eq!(primary.outstanding(), 2);
        primary.instance_finished(SeqNum(1));
        primary.try_propose(&mut bind, &mut out);
        assert_eq!(out.broadcasts()[2].seq(), Some(SeqNum(3)));
    }

    #[test]
    fn speculative_flag_propagates_to_replies() {
        let mut c = core();
        let mut out = Outbox::new();
        c.commit_batch(SeqNum(1), batch(1), true, &mut out);
        assert!(out.replies()[0].speculative);
    }
}
