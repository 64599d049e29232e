//! Execution determinism pins.
//!
//! Committed batches reach the execution queue in whatever order quorums
//! complete, but the contract is exact: for ANY submission order, every
//! per-op `KvResult` and the store's `state_digest()` must be bit-identical
//! to executing the batches in sequence order. These property tests drive
//! random batch streams — conflicting keys, every op type including
//! `Scan`s — through the queue in several orders and compare everything.
//!
//! The checkpoint journal gets the same treatment: whatever order batches
//! commit in, whenever boundaries turn stable, through installs and
//! rollbacks, every boundary a replica holds must materialise to exactly
//! what a serial oracle store looked like at that sequence number.

use flexitrust::exec::{ExecutionQueue, KvStore};
use flexitrust::protocol::{Message, Outbox, ReplicaCore};
use flexitrust::types::{
    Batch, ClientId, Digest, KvOp, KvResult, ProtocolId, ReplicaId, RequestId, SeqNum,
    StateSnapshot, SystemConfig, Transaction, ValueBytes,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

type Gen = rand::rngs::StdRng;

/// Small key space so random batches conflict constantly: every read and
/// scan then depends on the order of the writes before it.
const KEYS: u64 = 61;

fn gen_op(rng: &mut Gen) -> KvOp {
    let key = rng.gen_range(0..KEYS);
    let value = |rng: &mut Gen| {
        let len = rng.gen_range(1usize..24);
        (0..len)
            .map(|_| rng.gen::<u64>() as u8)
            .collect::<Vec<u8>>()
            .into()
    };
    match rng.gen_range(0u32..6) {
        0 => KvOp::Read { key },
        1 => KvOp::Update {
            key,
            value: value(rng),
        },
        2 => KvOp::Insert {
            key,
            value: value(rng),
        },
        3 => KvOp::ReadModifyWrite {
            key,
            value: value(rng),
        },
        4 => KvOp::Noop,
        _ => KvOp::Scan {
            start_key: key,
            count: rng.gen_range(1..12),
        },
    }
}

fn gen_batches(rng: &mut Gen, batches: usize) -> Vec<Batch> {
    (0..batches)
        .map(|b| {
            let txns: Vec<Transaction> = (0..rng.gen_range(1usize..8))
                .map(|t| {
                    Transaction::new(ClientId(b as u64 + 1), RequestId(t as u64 + 1), gen_op(rng))
                })
                .collect();
            Batch::new(txns, Digest::from_u64_tag(b as u64 + 1))
        })
        .collect()
}

/// Executes `batches` at seqs 1.. in `submission` order and returns every
/// per-op result, in the order the queue executed them, plus the final
/// state digest.
fn run(batches: &[Batch], submission: &[usize]) -> (Vec<(SeqNum, Vec<KvResult>)>, Digest) {
    let mut queue = ExecutionQueue::with_store(KvStore::with_dataset(KEYS, 8));
    let mut executed = Vec::new();
    for &index in submission {
        for done in queue.submit(SeqNum(index as u64 + 1), batches[index].clone()) {
            executed.push((
                done.seq,
                done.outcomes.into_iter().map(|o| o.result).collect(),
            ));
        }
    }
    (executed, queue.state_digest())
}

/// A stream for the journal test: all six ops over twice the preloaded key
/// range (so inserts and updates create records) with values drawn from a
/// small pool of shared buffers (so one handle lands under many keys).
fn gen_journal_batches(rng: &mut Gen, batches: usize, keys: u64) -> Vec<Batch> {
    let pool: Vec<ValueBytes> = (0..5u8).map(|i| vec![i; 1 + i as usize].into()).collect();
    (0..batches)
        .map(|b| {
            let txns = (0..rng.gen_range(1usize..6)).map(|t| {
                let key = rng.gen_range(0..keys.max(1) * 2);
                let value = pool[rng.gen_range(0..pool.len())].clone();
                let op = match rng.gen_range(0u32..8) {
                    0 => KvOp::Read { key },
                    1 | 2 => KvOp::Update { key, value },
                    3 | 4 => KvOp::Insert { key, value },
                    5 => KvOp::ReadModifyWrite { key, value },
                    6 => KvOp::Noop,
                    _ => KvOp::Scan {
                        start_key: key,
                        count: rng.gen_range(1..6),
                    },
                };
                Transaction::new(ClientId(b as u64 + 1), RequestId(t as u64 + 1), op)
            });
            Batch::new(txns.collect(), Digest::from_u64_tag(b as u64 + 1))
        })
        .collect()
}

/// One replica driven through a random schedule of out-of-order commits,
/// stabilisations, an install and rollbacks, checked after every step
/// against `oracle[seq]`: the snapshot and digest of a serial store after
/// executing exactly `seq` batches.
fn journal_case(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = Gen::seed_from_u64(seed);
    let keys = rng.gen_range(0u64..24);
    let batch_count = rng.gen_range(12usize..40);
    let batches = gen_journal_batches(&mut rng, batch_count, keys);
    let mut cfg = SystemConfig::for_protocol(ProtocolId::FlexiBft, 1);
    cfg.checkpoint_interval = rng.gen_range(1u64..6);
    let interval = cfg.checkpoint_interval;

    let mut store = KvStore::with_dataset(keys, 8);
    let mut oracle: Vec<(StateSnapshot, Digest)> =
        vec![(store.to_snapshot(), store.state_digest())];
    for batch in &batches {
        for txn in batch.txns() {
            store.apply(txn.op());
        }
        oracle.push((store.to_snapshot(), store.state_digest()));
    }

    let mut replica = ReplicaCore::with_store(cfg, ReplicaId(1), KvStore::with_dataset(keys, 8));
    let last = batches.len() as u64;
    let mut installs = 1;
    while replica.last_executed().0 < last {
        let frontier = replica.last_executed().0;
        let lwm = replica.low_water_mark().0;
        let mut out = Outbox::new();
        match rng.gen_range(0u32..10) {
            // A boundary at or below the frontier turns stable: the next one,
            // a later one (skipping), or — most draws — none yet.
            0 | 1 if frontier / interval > lwm / interval => {
                let boundary = rng.gen_range(lwm / interval + 1..=frontier / interval) * interval;
                for peer in [ReplicaId(0), ReplicaId(2)] {
                    let digest = oracle[boundary as usize].1;
                    replica.record_checkpoint_vote(peer, SeqNum(boundary), digest);
                }
                let served = replica.stable_checkpoint_snapshot(SeqNum(0));
                let held = replica.journal().held().any(|s| s.0 == boundary);
                prop_assert_eq!(served.is_some(), held);
                if let Some((seq, snapshot)) = served {
                    prop_assert_eq!(seq.0, boundary);
                    prop_assert_eq!(&snapshot, &oracle[boundary as usize].0);
                }
            }
            // A peer's checkpoint ahead of the frontier is installed, once.
            2 if installs > 0 && (frontier / interval + 1) * interval <= last => {
                installs -= 1;
                let boundary = (frontier / interval + 1) * interval;
                prop_assert!(
                    replica.install_checkpoint(SeqNum(boundary), &oracle[boundary as usize].0)
                );
            }
            // Speculation past a stable boundary the replica holds is dropped.
            3 if replica.journal().held().next().is_some_and(|s| s.0 <= lwm) => {
                replica.rollback_to_stable();
                prop_assert!(replica.last_executed().0 <= lwm);
            }
            // The next few batches commit in a random order.
            _ => {
                let mut window: Vec<u64> =
                    (frontier + 1..=last.min(frontier + rng.gen_range(1u64..6))).collect();
                for i in (1..window.len()).rev() {
                    window.swap(i, rng.gen_range(0..=i));
                }
                for seq in window {
                    let batch = batches[seq as usize - 1].clone();
                    for done in replica.commit_batch(SeqNum(seq), batch, false, &mut out) {
                        replica.maybe_emit_checkpoint(done.seq, &mut out);
                    }
                }
                // One vote per boundary crossed, in order...
                let crossed = frontier / interval + 1..=replica.last_executed().0 / interval;
                let voted = out.broadcasts().into_iter().filter_map(|m| m.seq());
                prop_assert!(voted.map(|s| s.0).eq(crossed.map(|b| b * interval)));
            }
        }
        // ...each certifying the state at its own sequence number...
        for msg in out.broadcasts() {
            if let Message::Checkpoint {
                seq, state_digest, ..
            } = msg
            {
                prop_assert_eq!(*state_digest, oracle[seq.0 as usize].1, "vote at {}", seq.0);
            }
        }
        // ...and every held boundary is the oracle's store at that point.
        for seq in replica.journal().held() {
            let (snapshot, digest) = &oracle[seq.0 as usize];
            let held = replica.journal().snapshot_at(seq);
            prop_assert_eq!(held.as_ref(), Some(snapshot), "boundary {}", seq.0);
            prop_assert_eq!(replica.journal().digest_at(seq), Some(*digest));
        }
        prop_assert_eq!(
            replica.state_digest(),
            oracle[replica.last_executed().0 as usize].1
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The checkpoint journal against a snapshot-at-every-step oracle.
    #[test]
    fn journal_boundaries_equal_oracle_snapshots(seed in any::<u64>()) {
        journal_case(seed)?;
    }

    /// However committed batches arrive, the queue executes them as if they
    /// had been applied to the store in sequence order: the same per-op
    /// results and the same state digest, `Scan`s included.
    #[test]
    fn out_of_order_submission_equals_in_order(seed in any::<u64>()) {
        let mut rng = Gen::seed_from_u64(seed);
        let batch_count = rng.gen_range(4usize..16);
        let batches = gen_batches(&mut rng, batch_count);

        // The oracle: every transaction applied straight to a store, in
        // sequence order.
        let mut store = KvStore::with_dataset(KEYS, 8);
        let want: Vec<(SeqNum, Vec<KvResult>)> = (1..)
            .map(SeqNum)
            .zip(&batches)
            .map(|(seq, batch)| {
                (seq, batch.txns().iter().map(|txn| store.apply(txn.op())).collect())
            })
            .collect();
        let want_digest = store.state_digest();

        // In order, a random permutation, and a late head: everything but
        // seq 1 parks until seq 1 unblocks the whole stream in one drain.
        let in_order: Vec<usize> = (0..batches.len()).collect();
        let mut shuffled = in_order.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let late_head: Vec<usize> = (1..batches.len()).chain([0]).collect();
        for submission in [&in_order, &shuffled, &late_head] {
            let (got, got_digest) = run(&batches, submission);
            prop_assert_eq!(&got, &want, "results diverge for {:?}", submission);
            prop_assert_eq!(got_digest, want_digest, "digest diverges for {:?}", submission);
        }
    }
}
