//! Zero-copy message-plane regression tests.
//!
//! The PR 5 refactor made every batch payload a single allocation shared by
//! reference through broadcast fan-out, engine acceptance, execution and
//! the runtime transports. These tests pin that invariant two ways:
//!
//! * **pointer equality** — a dispatcher broadcast hands every recipient
//!   the *same* message allocation, whose batch shares its payload with
//!   the engine's original; and
//! * **allocation counting** — `flexitrust_types::batch_payload_allocations`
//!   counts `Batch` payload constructions process-wide (clones are
//!   reference-count bumps and do not count), so an end-to-end simulator
//!   run and a threaded channel-cluster workload must allocate on the
//!   order of one payload per *logical batch*, independent of the replica
//!   fan-out. A reintroduced deep copy (one per broadcast recipient) blows
//!   straight through the bounds.
//!
//! The counter is global and libtest runs the tests in this binary on
//! parallel threads, so *every* test here — they all construct batches —
//! takes the [`SERIAL`] lock: a batch allocated by a sibling test between
//! a counter-diffing test's two readings would otherwise fail its exact
//! bounds spuriously.

use flexitrust::exec::{ExecutionQueue, KvStore};
use flexitrust::prelude::*;
use flexitrust::protocol::host::{Dispatcher, EngineHost, TimerToken};
use flexitrust::protocol::{Action, ClientReply, ReplicaCore, SharedMessage};
use flexitrust::types::{
    batch_payload_allocations, value_payload_allocations, Digest, KvOp, KvResult, SeqNum,
    ValueBytes,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Serialises the tests in this binary (see the module docs). A test
/// panicking while holding the lock poisons it; `unwrap_or_else` keeps
/// the remaining tests running (the counter stays sound — it only ever
/// increments).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// An [`EngineHost`] that captures the shared handles it is asked to send.
#[derive(Default)]
struct CapturingEnv {
    sends: Vec<(ReplicaId, SharedMessage)>,
}

impl EngineHost for CapturingEnv {
    fn send(&mut self, _from: ReplicaId, to: ReplicaId, msg: SharedMessage) {
        self.sends.push((to, msg));
    }

    fn reply(&mut self, _from: ReplicaId, _reply: ClientReply) {}

    fn schedule_timer(
        &mut self,
        _replica: ReplicaId,
        _timer: flexitrust::protocol::TimerKind,
        _delay_us: u64,
        _token: TimerToken,
    ) {
    }
}

fn big_batch() -> flexitrust::types::Batch {
    let txns: Vec<Transaction> = (0..50)
        .map(|i| {
            Transaction::new(
                ClientId(1),
                RequestId(i),
                KvOp::Update {
                    key: i,
                    value: vec![i as u8; 1024].into(),
                },
            )
        })
        .collect();
    flexitrust::crypto::make_batch(txns)
}

#[test]
fn dispatcher_broadcast_delivers_one_shared_allocation_to_every_replica() {
    let _guard = serial();
    const N: usize = 25;
    let mut dispatcher = Dispatcher::new(N);
    let mut env = CapturingEnv::default();
    let batch = big_batch();
    let msg = Message::PrePrepare {
        view: View(0),
        seq: SeqNum(1),
        batch: batch.clone(),
        attestation: None,
    };
    dispatcher.dispatch(ReplicaId(0), vec![Action::Broadcast { msg }], &mut env);

    assert_eq!(env.sends.len(), N, "broadcast reaches every replica");
    // Every recipient holds the very same message allocation…
    for pair in env.sends.windows(2) {
        assert!(
            Arc::ptr_eq(&pair[0].1, &pair[1].1),
            "broadcast recipients must share one message allocation"
        );
    }
    // …whose batch still shares its payload with the engine's original:
    // zero transaction bytes were copied on the way out.
    for (_, shared) in &env.sends {
        match &**shared {
            Message::PrePrepare { batch: sent, .. } => {
                assert!(
                    sent.shares_payload(&batch),
                    "the broadcast batch must share the original payload"
                );
            }
            other => panic!("unexpected message {}", other.kind()),
        }
    }
}

#[test]
fn payload_allocations_scale_with_batches_not_fanout() {
    let _guard = serial();
    // --- Dispatcher fan-out allocates nothing. -------------------------
    let batch = big_batch();
    let msg = Message::PrePrepare {
        view: View(0),
        seq: SeqNum(1),
        batch: batch.clone(),
        attestation: None,
    };
    let before = batch_payload_allocations();
    let mut dispatcher = Dispatcher::new(25);
    let mut env = CapturingEnv::default();
    dispatcher.dispatch(ReplicaId(0), vec![Action::Broadcast { msg }], &mut env);
    assert_eq!(env.sends.len(), 25);
    assert_eq!(
        batch_payload_allocations() - before,
        0,
        "a 25-way broadcast must not allocate a single batch payload"
    );

    // --- The simulator end to end. -------------------------------------
    // quick_test: FlexiBft, n = 4, batch size 10, 200 closed-loop clients.
    // Every completed transaction crossed a PrePrepare broadcast, was
    // accepted (and stored) by every replica and executed at every
    // replica; with payload sharing the only allocations are the
    // batcher's own `make_batch` calls — on the order of completions /
    // batch_size, nowhere near one per recipient.
    let spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
    let batch_size = spec.batch_size as u64;
    let n = spec.replicas() as u64;
    let before = batch_payload_allocations();
    let report = Simulation::new(spec).run();
    let delta = batch_payload_allocations() - before;
    let completions = report.commit_log.len() as u64;
    assert!(completions > 500, "scenario must make progress");
    let logical_batches = completions / batch_size;
    // Generous slack for partial flushes and end-of-run batches still in
    // flight — but far below the ≥ (n + 1) × batches a deep-copying
    // message plane would burn (the engine also stored and executed each
    // batch, historically two more copies per replica).
    assert!(
        delta <= logical_batches * 2 + 32,
        "sim run allocated {delta} payloads for ~{logical_batches} batches"
    );
    assert!(
        delta < logical_batches * (n + 1),
        "sim payload allocations scale with fan-out: {delta} for ~{logical_batches} batches × n = {n}"
    );

    // --- The threaded channel cluster end to end. ----------------------
    // 100 transactions in batches of 10 through 4 replica threads: the
    // primary's batcher builds exactly 10 batches; everything downstream
    // (4 inbox copies, 4 accepted-proposal stores, 4 executions) must
    // share those 10 allocations.
    let before = batch_payload_allocations();
    let cluster = Cluster::start(ProtocolId::FlexiBft, 1, 10);
    let summary = cluster.run_workload(100, 4, Duration::from_secs(30));
    cluster.shutdown();
    let delta = batch_payload_allocations() - before;
    assert_eq!(summary.completed_txns, 100);
    assert!(
        (10..=20).contains(&delta),
        "channel cluster allocated {delta} payloads for 10 logical batches"
    );
}

#[test]
fn unshare_recovers_the_message_without_copying_payload() {
    let _guard = serial();
    let batch = big_batch();
    let shared: SharedMessage = Arc::new(Message::PrePrepare {
        view: View(0),
        seq: SeqNum(3),
        batch: batch.clone(),
        attestation: None,
    });
    // A second outstanding handle forces the shallow-clone path; the
    // recovered message must still share the batch payload.
    let second = Arc::clone(&shared);
    let owned = flexitrust::protocol::unshare(second);
    match owned {
        Message::PrePrepare { batch: got, .. } => assert!(got.shares_payload(&batch)),
        other => panic!("unexpected message {}", other.kind()),
    }
    // The last handle moves out without touching the payload either.
    let owned = flexitrust::protocol::unshare(shared);
    match owned {
        Message::PrePrepare { batch: got, .. } => assert!(got.shares_payload(&batch)),
        other => panic!("unexpected message {}", other.kind()),
    }
}

#[test]
fn batch_equality_and_noop_flags_survive_the_shared_representation() {
    let _guard = serial();
    // Equal contents compare equal across distinct allocations (the wire
    // decoder builds fresh payloads), and the digest tag distinguishes
    // otherwise-identical noop fillers.
    let a = Batch::new(vec![Transaction::noop()], Digest::from_u64_tag(7));
    let b = Batch::new(vec![Transaction::noop()], Digest::from_u64_tag(7));
    assert_eq!(a, b);
    assert!(!a.shares_payload(&b));
    assert_ne!(Batch::noop(1), Batch::noop(2));
    assert!(Batch::noop(1).is_noop());
}

/// The PR 6 extension of the Arc discipline into the state machine: a
/// value buffer is allocated once — at the client that generated it — and
/// every execution of it, at every replica, shares that allocation by
/// reference. `value_payload_allocations` counts `ValueBytes`
/// constructions process-wide exactly like its batch counterpart counts
/// batch payloads.
#[test]
fn executed_updates_share_the_client_value_allocation() {
    let _guard = serial();
    let value: ValueBytes = vec![9u8; 4096].into();
    let batch = Batch::new(
        (0..50)
            .map(|i| {
                Transaction::new(
                    ClientId(1),
                    RequestId(i + 1),
                    KvOp::Update {
                        key: i,
                        value: value.clone(),
                    },
                )
            })
            .collect(),
        Digest::from_u64_tag(1),
    );

    // Three "replicas", each executing the same committed batch: 150
    // logical updates, zero new value allocations.
    let before = value_payload_allocations();
    for _ in 0..3 {
        let mut queue = ExecutionQueue::new();
        let executed = queue.submit(SeqNum(1), batch.clone());
        assert_eq!(executed.len(), 1);
        assert!(executed[0]
            .outcomes
            .iter()
            .all(|o| o.result == KvResult::Written));
        // The stored record is the client's buffer, not a copy.
        let stored = queue.store().get_shared(7).expect("key written");
        assert!(
            stored.shares_buffer(&value),
            "executed update must share the client's value allocation"
        );
    }
    assert_eq!(
        value_payload_allocations() - before,
        0,
        "executing a committed update must not allocate value payloads"
    );
}

/// The checkpoint journal moves handles only: capturing boundaries (the
/// full first one and the deltas after it), folding them when a checkpoint
/// turns stable and serving the result allocate no value, and what a peer
/// is served shares its buffers with the serving replica's store.
#[test]
fn checkpoint_capture_fold_and_serve_share_the_stored_values() {
    let _guard = serial();
    let mut cfg = SystemConfig::for_protocol(ProtocolId::FlexiBft, 1);
    cfg.checkpoint_interval = 2;
    let store = KvStore::with_dataset(64, 128);
    let batches: Vec<Batch> = (1..=6u64)
        .map(|seq| {
            let value: ValueBytes = vec![seq as u8; 1024].into();
            // Up to the boundary that will be served, two overwrites of
            // preloaded records and two new records; after it, new records
            // only, so the store still holds everything served.
            let txns = (0..4).map(|i| {
                let key = seq * 4 + i + if i < 2 && seq <= 4 { 0 } else { 1000 };
                let op = KvOp::Update {
                    key,
                    value: value.clone(),
                };
                Transaction::new(ClientId(1), RequestId(key), op)
            });
            Batch::new(txns.collect(), Digest::from_u64_tag(seq))
        })
        .collect();

    let before = value_payload_allocations();
    // Starting on a preloaded store captures it as the full boundary 0.
    let mut replica = ReplicaCore::with_store(cfg, ReplicaId(1), store);
    let mut out = Outbox::new();
    for (seq, batch) in (1..=6u64).zip(batches) {
        for done in replica.commit_batch(SeqNum(seq), batch, false, &mut out) {
            replica.maybe_emit_checkpoint(done.seq, &mut out);
        }
    }
    // Boundaries 0 (the preloaded store, full), 2, 4 and 6 (deltas) are
    // held; 4 turns stable, which folds 0, 2 and 4 into one base, and is
    // served.
    assert_eq!(replica.journal().held().count(), 4);
    let digest = replica.journal().digest_at(SeqNum(4)).expect("captured");
    for peer in [ReplicaId(0), ReplicaId(2)] {
        replica.record_checkpoint_vote(peer, SeqNum(4), digest);
    }
    assert_eq!(replica.journal().held().count(), 2);
    let (seq, served) = replica
        .stable_checkpoint_snapshot(SeqNum(0))
        .expect("stable boundary held");
    assert_eq!(
        value_payload_allocations() - before,
        0,
        "capturing, folding and serving a checkpoint must not allocate values"
    );

    assert_eq!(seq, SeqNum(4));
    assert_eq!(served.entries.len(), 64 + 4 * 2);
    let store = replica.exec().store();
    for (key, value) in &served.entries {
        let stored = store.get_shared(*key).expect("no record is ever removed");
        assert!(
            value.shares_buffer(&stored),
            "served record {key} must share the store's buffer"
        );
    }
}

/// End to end through the threaded cluster: value allocations scale with
/// the number of logical updates the clients generate, independent of
/// replica fan-out.
#[test]
fn value_allocations_scale_with_updates_not_replicas_or_workers() {
    let _guard = serial();
    // 100 update transactions through 4 replicas: the driver allocates one
    // value per update; acceptance, storage and execution at every replica
    // share it. A deep-copying execution plane would allocate ≥ one per
    // replica per update (≥ 400).
    let before = value_payload_allocations();
    let cluster = Cluster::start(ProtocolId::FlexiBft, 1, 10);
    let summary = cluster.run_workload(100, 4, Duration::from_secs(30));
    cluster.shutdown();
    let delta = value_payload_allocations() - before;
    assert_eq!(summary.completed_txns, 100);
    assert!(
        (100..=120).contains(&delta),
        "{delta} value allocations for 100 logical updates"
    );

    // The simulator end to end (4 replicas, 50/50 read/update YCSB): the
    // workload generator's updates are the only value allocations; every
    // replica's execution shares them.
    let spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
    let n = spec.replicas() as u64;
    let before = value_payload_allocations();
    let report = Simulation::new(spec).run();
    let delta = value_payload_allocations() - before;
    let completions = report.commit_log.len() as u64;
    assert!(completions > 500, "scenario must make progress");
    // ~half the mix is updates; closed-loop clients keep ≤ 1 txn in
    // flight each, so generated ≈ completed + clients. Far below the
    // ≥ completions × n / 2 a deep-copying execution plane would burn.
    assert!(
        delta <= completions + 64,
        "sim run allocated {delta} value payloads for {completions} completions"
    );
    assert!(
        delta < completions * n / 2,
        "value allocations scale with fan-out: {delta} for {completions} completions × n = {n}"
    );
}
