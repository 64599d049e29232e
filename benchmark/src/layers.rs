//! The traced run (`--trace 1`): every per-layer metric, and the budget
//! that adds the layers back up to the end-to-end CPU cost.
//!
//! Three kinds of rows:
//!
//! * **span rows** come from the trace host ([`crate::trace`]): self times
//!   of the spans around each layer call, and exact counts;
//! * **micro rows** replay inputs recorded by the trace host (the first
//!   frame of each kind) and freshly generated ones through one layer's
//!   public functions, standalone, for at least 200 ms each — this is how
//!   layers that sit inside a `deliver` call are costed;
//! * **host rows** rerun short versions of the real-host and simulator
//!   workloads for the costs only they show (kernel share, start-up,
//!   event rates, the recovery frontier).
//!
//! All times are CPU times: single-threaded loops are timed on the wall
//! clock and scaled by the share of that wall time the thread was actually
//! on a CPU, so a vCPU the hypervisor took away does not count.

use crate::hosts;
use crate::measure::{median, thread_cpu_ns, Budget};
use crate::sims::{self, SimWorkload};
use crate::trace::{self, NameTotal, Record, TraceSpec};
use crate::Outcome;
use flexitrust::crypto::{digest_batch, make_batch, sha256, CryptoProvider, KeyStore, RealCrypto};
use flexitrust::exec::KvStore;
use flexitrust::host::TimerToken;
use flexitrust::prelude::*;
use flexitrust::protocol::{
    Action, Batcher, CertificateTracker, ClientReply, ReplicaCore, SharedMessage,
};
use flexitrust::trusted::AttestationMode;
use flexitrust::types::{Digest, KvOp, KvResult, NodeId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Batches per trace-host round: one burst, below the 256-instance window.
const TRACE_BATCHES_PER_ROUND: usize = 200;

/// Times `run` over inputs from `setup` for at least `min_s` seconds of
/// wall time and returns CPU nanoseconds per unit, `units` per call.
/// `setup` is not timed. Calls are timed on the wall clock and the total is
/// scaled by the thread's on-CPU share over the whole loop.
fn micro<I, R>(
    min_s: f64,
    units: usize,
    mut setup: impl FnMut() -> I,
    mut run: impl FnMut(I) -> R,
) -> f64 {
    black_box(run(setup()));
    let origin = Instant::now();
    let cpu0 = thread_cpu_ns();
    let (mut timed_ns, mut calls) = (0u64, 0u64);
    while origin.elapsed().as_secs_f64() < min_s || calls < 3 {
        let input = black_box(setup());
        let t = Instant::now();
        let output = run(input);
        timed_ns += t.elapsed().as_nanos() as u64;
        black_box(output);
        calls += 1;
    }
    let wall_ns = origin.elapsed().as_nanos() as u64;
    let cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
    let on_cpu = (cpu_ns as f64 / wall_ns.max(1) as f64).min(1.0);
    timed_ns as f64 * on_cpu / (calls as f64 * units as f64)
}

/// An [`EngineHost`] that drops everything: the dispatcher's own cost.
struct NullHost;

impl EngineHost for NullHost {
    fn send(&mut self, _: ReplicaId, _: ReplicaId, msg: SharedMessage) {
        black_box(msg);
    }
    fn reply(&mut self, _: ReplicaId, reply: ClientReply) {
        black_box(reply);
    }
    fn schedule_timer(&mut self, _: ReplicaId, _: TimerKind, _: u64, _: TimerToken) {}
}

/// The burst's transactions `range`, as one client after the other issues
/// them (the `drive_workload` shape).
fn burst_txns(range: std::ops::Range<usize>) -> Vec<Transaction> {
    range
        .map(|i| {
            trace::burst_txn(
                i,
                ClientId((i % hosts::CLIENTS) as u64),
                RequestId((i / hosts::CLIENTS) as u64 + 1),
            )
        })
        .collect()
}

fn decode_submit(bytes: &[u8]) -> Result<Vec<Transaction>, String> {
    match decode_frame(bytes) {
        Ok(Frame::Submit { txns }) => Ok(txns),
        other => Err(format!("recorded submit frame decoded to {other:?}")),
    }
}

/// Metric values by name, filled in as the traced run goes.
struct Rows(BTreeMap<&'static str, f64>);

impl Rows {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// A row set earlier in the run; 0 (with the budget then visibly off)
    /// if it was not — `catalog::collect` reports missing rows at the end.
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The micro rows. `samples` are the frames the trace host recorded.
fn micro_rows(
    rows: &mut Rows,
    samples: &trace::Samples,
    min_s: f64,
    seed: u64,
) -> Result<(), String> {
    let missing = |what: &str| format!("the trace host recorded no {what} frame");
    let submit = samples.submit.as_deref().ok_or_else(|| missing("submit"))?;
    let preprepare = samples
        .preprepare
        .as_deref()
        .ok_or_else(|| missing("PrePrepare"))?;
    let vote = samples.vote.as_deref().ok_or_else(|| missing("Prepare"))?;
    let reply = samples.reply.as_deref().ok_or_else(|| missing("reply"))?;
    let batch = decode_submit(submit)?.len();
    let (_, pp_msg) = decode_message(preprepare).map_err(|e| e.to_string())?;
    let Message::PrePrepare {
        attestation: Some(attestation),
        batch: pp_batch,
        ..
    } = &pp_msg
    else {
        return Err("recorded PrePrepare carries no attestation".into());
    };
    let (vote_from, vote_msg) = decode_message(vote).map_err(|e| e.to_string())?;
    let Ok(Frame::Reply { reply: reply_msg }) = decode_frame(reply) else {
        return Err("recorded reply frame did not decode".into());
    };

    // types
    rows.set(
        "types.txn_build_ns",
        micro(min_s, 1000, || (), |()| burst_txns(0..1000)),
    );

    // crypto
    let block = vec![0xa5u8; 64 * 1024];
    let sha_ns_per_byte = micro(
        min_s,
        16 * block.len(),
        || (),
        |()| (0..16).fold(Digest::ZERO, |_, _| sha256(black_box(&block))),
    );
    rows.set("crypto.sha256_mb_s", 1e3 / sha_ns_per_byte);
    // Canonical bytes are memoised per transaction, and a transaction is
    // hashed once in its life: decode fresh ones for every call.
    rows.set(
        "crypto.digest_batch_us",
        micro(
            min_s,
            20,
            || {
                (0..20)
                    .filter_map(|_| decode_submit(submit).ok())
                    .collect::<Vec<_>>()
            },
            |batches| batches.iter().map(|t| digest_batch(t)).collect::<Vec<_>>(),
        ) / 1e3,
    );
    let crypto = RealCrypto::new(Arc::new(KeyStore::deterministic(4, 1)));
    let signer = NodeId::from(ReplicaId(0));
    let signed_bytes = attestation.bytes_to_sign();
    rows.set(
        "crypto.sign_us",
        micro(
            min_s,
            20,
            || (),
            |()| {
                (0..20)
                    .map(|_| crypto.sign(signer, black_box(&signed_bytes)))
                    .collect::<Vec<_>>()
            },
        ) / 1e3,
    );
    let signature = crypto
        .sign(signer, &signed_bytes)
        .map_err(|e| e.to_string())?;
    rows.set(
        "crypto.verify_us",
        micro(
            min_s,
            20,
            || (),
            |()| {
                (0..20)
                    .filter(|_| {
                        crypto
                            .verify(signer, black_box(&signed_bytes), &signature)
                            .is_ok()
                    })
                    .count()
            },
        ) / 1e3,
    );

    // trusted
    let enclave = Enclave::shared(EnclaveConfig::counter_only(
        ReplicaId(0),
        AttestationMode::Real,
    ));
    let digest = pp_batch.digest();
    rows.set(
        "trusted.append_f_us",
        micro(
            min_s,
            20,
            || (),
            |()| {
                (0..20)
                    .filter(|_| enclave.append_f(0, black_box(digest)).is_ok())
                    .count()
            },
        ) / 1e3,
    );
    let registry = EnclaveRegistry::deterministic(4, AttestationMode::Real);
    if registry.verify(attestation).is_err() {
        return Err("the recorded attestation does not verify".into());
    }
    rows.set(
        "trusted.verify_us",
        micro(
            min_s,
            20,
            || (),
            |()| {
                (0..20)
                    .filter(|_| registry.verify(black_box(attestation)).is_ok())
                    .count()
            },
        ) / 1e3,
    );

    // wire — a PrePrepare is encoded once in its life (the batch memoises
    // its canonical bytes), so every call encodes freshly decoded ones.
    rows.set(
        "wire.encode_preprepare_us",
        micro(
            min_s,
            20,
            || {
                (0..20)
                    .filter_map(|_| decode_message(preprepare).ok())
                    .collect::<Vec<_>>()
            },
            |msgs| {
                msgs.iter()
                    .map(|(from, m)| encode_message(*from, m))
                    .collect::<Vec<_>>()
            },
        ) / 1e3,
    );
    rows.set(
        "wire.decode_preprepare_us",
        micro(
            min_s,
            20,
            || (),
            |()| {
                (0..20)
                    .map(|_| decode_message(black_box(preprepare)))
                    .collect::<Vec<_>>()
            },
        ) / 1e3,
    );
    rows.set(
        "wire.encode_vote_ns",
        micro(
            min_s,
            1000,
            || (),
            |()| {
                (0..1000)
                    .map(|_| encode_message(vote_from, black_box(&vote_msg)))
                    .collect::<Vec<_>>()
            },
        ),
    );
    rows.set(
        "wire.decode_vote_ns",
        micro(
            min_s,
            1000,
            || (),
            |()| {
                (0..1000)
                    .map(|_| decode_message(black_box(vote)))
                    .collect::<Vec<_>>()
            },
        ),
    );
    let reply_frame = Frame::Reply {
        reply: reply_msg.clone(),
    };
    rows.set(
        "wire.encode_reply_ns",
        micro(
            min_s,
            1000,
            || (),
            |()| {
                (0..1000)
                    .map(|_| encode_frame(black_box(&reply_frame)))
                    .collect::<Vec<_>>()
            },
        ),
    );
    rows.set(
        "wire.decode_reply_ns",
        micro(
            min_s,
            1000,
            || (),
            |()| {
                (0..1000)
                    .map(|_| decode_frame(black_box(reply)))
                    .collect::<Vec<_>>()
            },
        ),
    );
    rows.set(
        "wire.decode_submit_us",
        micro(
            min_s,
            20,
            || (),
            |()| {
                (0..20)
                    .map(|_| decode_frame(black_box(submit)))
                    .collect::<Vec<_>>()
            },
        ) / 1e3,
    );

    // protocol
    rows.set(
        "protocol.batcher_ns_per_txn",
        micro(
            min_s,
            20 * batch,
            || {
                let fresh: Vec<_> = (0..20).filter_map(|_| decode_submit(submit).ok()).collect();
                (Batcher::new(batch), fresh)
            },
            |(mut batcher, fresh)| {
                fresh
                    .into_iter()
                    .map(|txns| batcher.push(txns))
                    .collect::<Vec<_>>()
            },
        ),
    );
    rows.set(
        "protocol.quorum_vote_ns",
        micro(
            min_s,
            1000,
            || CertificateTracker::<(View, SeqNum, Digest)>::new(3),
            |mut tracker| {
                for seq in 1..=250u64 {
                    for voter in 0..4 {
                        black_box(tracker.vote((View(0), SeqNum(seq), digest), ReplicaId(voter)));
                    }
                }
                tracker
            },
        ),
    );
    // One burst through one replica's commit path (execution, reply
    // construction, reply cache), on a fresh replica like a fresh round.
    let config = Arc::new(trace::cluster_config(ProtocolId::FlexiBft, batch));
    let burst = hosts::TCP_FLEXIBFT.burst;
    rows.set(
        "protocol.commit_batch_ns_per_txn",
        micro(
            min_s,
            burst,
            || {
                let batches: Vec<Batch> = (0..burst / batch)
                    .map(|b| make_batch(burst_txns(b * batch..(b + 1) * batch)))
                    .collect();
                (ReplicaCore::new(Arc::clone(&config), ReplicaId(1)), batches)
            },
            |(mut core, batches)| {
                // One outbox per delivery, drained by the dispatcher.
                for (i, b) in batches.into_iter().enumerate() {
                    let mut out = Outbox::new();
                    core.commit_batch(SeqNum(i as u64 + 1), b, false, &mut out);
                    black_box(out.drain());
                }
                core
            },
        ),
    );

    // host — the actions one committing delivery emits.
    let commit_actions = || -> Vec<Action> {
        let mut actions = vec![Action::Executed {
            seq: SeqNum(1),
            txns: batch,
        }];
        actions.extend((0..batch).map(|_| Action::Reply {
            reply: reply_msg.clone(),
        }));
        actions.push(Action::Broadcast {
            msg: vote_msg.clone(),
        });
        actions
    };
    rows.set(
        "host.dispatch_ns_per_action",
        micro(
            min_s,
            10 * (batch + 2),
            || {
                (
                    Dispatcher::new(4),
                    (0..10).map(|_| commit_actions()).collect::<Vec<_>>(),
                )
            },
            |(mut dispatcher, groups)| {
                for actions in groups {
                    dispatcher.dispatch(ReplicaId(1), actions, &mut NullHost);
                }
                dispatcher
            },
        ),
    );

    // exec
    let update = |key: u64, size: usize| KvOp::Update {
        key,
        value: vec![key as u8; size].into(),
    };
    rows.set(
        "exec.apply_ns_per_txn",
        micro(
            min_s,
            burst,
            || {
                (
                    KvStore::new(),
                    (0..burst as u64).map(|k| update(k, 16)).collect::<Vec<_>>(),
                )
            },
            |(mut store, ops)| {
                let written = ops
                    .iter()
                    .filter(|op| store.apply(op) == KvResult::Written)
                    .count();
                (store, written)
            },
        ),
    );
    rows.set(
        "exec.apply_4k_ns_per_txn",
        micro(
            min_s,
            5000,
            || {
                let store = KvStore::preloaded((0..1000u64).map(|k| (k, vec![0u8; 4096])));
                (
                    store,
                    (0..5000u64)
                        .map(|i| update(i * 7 % 1000, 4096))
                        .collect::<Vec<_>>(),
                )
            },
            |(mut store, ops)| {
                let written = ops
                    .iter()
                    .filter(|op| store.apply(op) == KvResult::Written)
                    .count();
                (store, written)
            },
        ),
    );
    let ten_k = KvStore::preloaded((0..10_000u64).map(|k| (k, vec![k as u8; 16])));
    rows.set(
        "exec.snapshot_us_per_10k_keys",
        micro(
            min_s,
            5,
            || (),
            |()| {
                (0..5)
                    .map(|_| black_box(&ten_k).to_snapshot())
                    .collect::<Vec<_>>()
            },
        ) / 1e3,
    );
    rows.set(
        "exec.state_digest_us",
        micro(
            min_s,
            100,
            || (),
            |()| (0..100).fold(Digest::ZERO, |_, _| black_box(&ten_k).state_digest()),
        ) / 1e3,
    );

    // sim — one reservation on one of 25 NICs' egress lanes.
    rows.set(
        "sim.link_reserve_ns",
        micro(min_s, 10_000, LinkQueues::new, |mut links| {
            for i in 0..10_000u64 {
                black_box(links.reserve(
                    Nic::Replica(ReplicaId((i % 25) as u32)),
                    LinkClass::Local,
                    Direction::Egress,
                    i * 500,
                    7_200,
                ));
            }
            links
        }),
    );

    // workload
    rows.set(
        "workload.gen_ns_per_txn",
        micro(
            min_s,
            1000,
            || WorkloadGenerator::new(WorkloadConfig::tiny(), ClientId(0), seed),
            |mut generator| generator.next_batch(1000),
        ),
    );
    Ok(())
}

fn trace_spec(protocol: ProtocolId, rounds: usize, record: Record, seed: u64) -> TraceSpec {
    TraceSpec {
        protocol,
        batch: hosts::TCP_FLEXIBFT.batch,
        batches_per_round: TRACE_BATCHES_PER_ROUND,
        rounds,
        record,
        seed,
    }
}

/// One line of the attribution: a layer, what it cost per batch, and how
/// that was obtained.
struct BudgetLine {
    layer: &'static str,
    us_per_batch: f64,
    how: String,
}

/// Runs the traced run and returns every per-layer metric.
pub fn run(seed: u64, seconds: f64, out_dir: &std::path::Path) -> Result<Outcome, String> {
    let scale = seconds / crate::catalog::RUN_SECONDS as f64;
    let scaled = |n: f64| ((n * scale).round() as usize).max(1);
    let micro_s = 0.2 * scale;
    let mut rows = Rows(BTreeMap::new());
    let mut notes = Vec::new();

    // 1. The trace host: FlexiBft n = 4, rounds with spans on alternating
    // with rounds with spans off, after one unmeasured round that pays the
    // process's lazy set-up.
    trace::run(&trace_spec(ProtocolId::FlexiBft, 1, Record::Off, seed))?;
    let run = trace::run(&trace_spec(
        ProtocolId::FlexiBft,
        2 * scaled(10.0),
        Record::Alternate,
        seed,
    ))?;
    let (traced, plain) = (run.traced, run.plain);
    let trace_path = out_dir.join("trace.json");
    trace::write_spans(&trace_path, &run.spans)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    notes.push(format!(
        "trace host: FlexiBft n={} batch {} x {} batches, {} spans -> {}",
        run.n,
        hosts::TCP_FLEXIBFT.batch,
        traced.batches,
        run.spans.len(),
        trace_path.display()
    ));
    let batches = traced.batches as f64;
    let batch = hosts::TCP_FLEXIBFT.batch as f64;
    let n = run.n as f64;
    // Span durations are wall time; scale them to CPU time by the share of
    // the traced rounds the thread spent on a CPU.
    let on_cpu = (traced.cpu_ns as f64 / traced.wall_ns.max(1) as f64).min(1.0);
    let totals = trace::totals_by_name(&run.spans);
    let self_us_per_batch = |names: &[&str]| -> f64 {
        let ns: u64 = totals
            .iter()
            .filter(|(name, _)| names.iter().any(|p| name.starts_with(p)))
            .map(|(_, t)| t.self_ns)
            .sum();
        ns as f64 * on_cpu / 1e3 / batches
    };
    let mean_self_us = |name: &str| -> f64 {
        let t = totals.get(name).copied().unwrap_or(NameTotal::default());
        t.self_ns as f64 * on_cpu / 1e3 / t.count.max(1) as f64
    };
    rows.set("trace.cpu_us_per_txn", plain.cpu_us_per_txn());
    let all_batches = (traced.batches + plain.batches) as f64;
    let all_txns = (traced.txns + plain.txns) as f64;
    rows.set(
        "trace.msgs_per_batch",
        run.counts.peer_frames as f64 / all_batches,
    );
    rows.set(
        "trace.overhead_share",
        traced.cpu_us_per_txn() / plain.cpu_us_per_txn() - 1.0,
    );
    rows.set("wire.frames_per_txn", run.counts.frames() as f64 / all_txns);
    rows.set("wire.bytes_per_txn", run.counts.bytes as f64 / all_txns);
    rows.set(
        "trusted.flexibft_accesses_per_batch",
        run.tc_accesses as f64 / all_batches,
    );
    let replies_per_batch = run.counts.reply_frames as f64 / all_batches;
    rows.set(
        "protocol.client_on_reply_ns",
        self_us_per_batch(&["protocol.client_on_reply"]) * 1e3 / replies_per_batch,
    );
    rows.set(
        "core.flexibft_preprepare_us",
        mean_self_us("host.deliver.preprepare"),
    );
    rows.set(
        "core.flexibft_prepare_us",
        mean_self_us("host.deliver.prepare"),
    );

    // 2. The same host under the other engines, spans off.
    for (name, protocol) in [
        ("core.flexizz_us_per_batch", ProtocolId::FlexiZz),
        ("baselines.pbft_us_per_batch", ProtocolId::Pbft),
        ("baselines.minbft_us_per_batch", ProtocolId::MinBft),
    ] {
        let other = trace::run(&trace_spec(protocol, scaled(2.0), Record::Off, seed))?;
        rows.set(name, other.plain.cpu_us_per_batch());
        if protocol == ProtocolId::MinBft {
            rows.set(
                "trusted.minbft_accesses_per_batch",
                other.tc_accesses as f64 / other.plain.batches as f64,
            );
        }
    }

    // 3. Micro rows, on the inputs the trace host recorded.
    micro_rows(&mut rows, &run.samples, micro_s, seed)?;

    // 4. Attribution: Σ(layer cost × count) against the traced total.
    let actions_per_batch = run.counts.actions as f64 / all_batches;
    let digest_us = rows.get("crypto.digest_batch_us");
    let budget = vec![
        BudgetLine {
            layer: "wire",
            us_per_batch: self_us_per_batch(&["wire."]),
            how: "span self time, encode + decode".into(),
        },
        BudgetLine {
            layer: "protocol.client",
            us_per_batch: self_us_per_batch(&["protocol.client_on_reply"]),
            how: "span self time".into(),
        },
        BudgetLine {
            layer: "types",
            us_per_batch: self_us_per_batch(&["types."]),
            how: "span self time, transaction build".into(),
        },
        BudgetLine {
            layer: "crypto",
            us_per_batch: digest_us,
            how: "digest_batch x 1".into(),
        },
        BudgetLine {
            layer: "trusted",
            us_per_batch: rows.get("trusted.append_f_us") + n * rows.get("trusted.verify_us"),
            how: format!("append_f x 1 + verify x {n}"),
        },
        BudgetLine {
            layer: "protocol",
            us_per_batch: (rows.get("protocol.batcher_ns_per_txn") * batch
                + rows.get("protocol.quorum_vote_ns") * n * n
                + (rows.get("protocol.commit_batch_ns_per_txn")
                    - rows.get("exec.apply_ns_per_txn"))
                .max(0.0)
                    * batch
                    * n)
                / 1e3
                - digest_us,
            how: format!(
                "batcher x {batch} - digest + vote x {} + (commit_batch - apply) x {}",
                n * n,
                batch * n
            ),
        },
        BudgetLine {
            layer: "exec",
            us_per_batch: rows.get("exec.apply_ns_per_txn") * batch * n / 1e3,
            how: format!("apply x {}", batch * n),
        },
        BudgetLine {
            layer: "host",
            us_per_batch: rows.get("host.dispatch_ns_per_action") * actions_per_batch / 1e3,
            how: format!("dispatch x {actions_per_batch:.1} actions"),
        },
    ];
    let total_us_per_batch = traced.cpu_us_per_batch();
    let attributed: f64 = budget.iter().map(|l| l.us_per_batch).sum();
    let unattributed = 1.0 - attributed / total_us_per_batch;
    rows.set("trace.unattributed_share", unattributed);
    // What the host.* spans hold beyond the replayed inner layers: the
    // engines' own bookkeeping.
    let inner: f64 = budget
        .iter()
        .filter(|l| !matches!(l.layer, "wire" | "protocol.client" | "types"))
        .map(|l| l.us_per_batch)
        .sum();
    rows.set(
        "core.flexibft_self_us_per_batch",
        self_us_per_batch(&["host."]) - inner,
    );
    notes.push(format!(
        "layer budget, FlexiBft n={n} batch {batch}, CPU us per batch (traced total {total_us_per_batch:.1}):"
    ));
    for line in &budget {
        notes.push(format!(
            "  {:<16} {:>9.1} us {:>5.1} %  {}",
            line.layer,
            line.us_per_batch,
            100.0 * line.us_per_batch / total_us_per_batch,
            line.how
        ));
    }
    notes.push(format!(
        "  {:<16} {:>9.1} us {:>5.1} %  core engine bookkeeping inside on_message (no public function to replay) + FIFO",
        "unattributed",
        total_us_per_batch - attributed,
        100.0 * unattributed
    ));

    // 5. Real hosts, briefly: what only threads and sockets cost.
    let rounds = Budget::Rounds(scaled(10.0).max(2));
    let tcp = hosts::measure_rounds(&hosts::TCP_FLEXIBFT, rounds).map_err(|e| e.to_string())?;
    let chan = hosts::measure_rounds(&hosts::CHAN_FLEXIBFT, rounds).map_err(|e| e.to_string())?;
    let ms = |v: &[f64]| median(v).unwrap_or(0.0) * 1e3;
    rows.set("runtime.start_ms", ms(&tcp.start_s));
    rows.set("runtime.shutdown_ms", ms(&tcp.shutdown_s));
    rows.set("runtime.tcp_sys_cpu_us_per_txn", tcp.sys_us_per_txn());
    rows.set(
        "runtime.tcp_overhead_us_per_txn",
        tcp.cpu_us_per_txn() - chan.cpu_us_per_txn(),
    );
    rows.set(
        "runtime.chan_overhead_us_per_txn",
        chan.cpu_us_per_txn() - rows.get("trace.cpu_us_per_txn"),
    );
    rows.set("runtime.round_tps_p10", tcp.round_tps_p10());
    rows.set(
        "runtime.dropped_msgs",
        (tcp.dropped_msgs + chan.dropped_msgs) as f64,
    );
    rows.set(
        "runtime.stalled_rounds",
        (tcp.stalled_rounds + chan.stalled_rounds) as f64,
    );
    notes.push(format!(
        "cpu budget, us per txn: trace host {:.2} + channel host overhead {:.2} + tcp host overhead {:.2} = tcp_flexibft {:.2}",
        rows.get("trace.cpu_us_per_txn"),
        rows.get("runtime.chan_overhead_us_per_txn"),
        rows.get("runtime.tcp_overhead_us_per_txn"),
        tcp.cpu_us_per_txn()
    ));

    // 6. The simulator, one repetition of each scenario. The broadcast-heavy
    // one allocates ~180 MiB it then reuses, and a first repetition spends
    // most of its time faulting that in: repeat it and keep the second.
    sims::run_once(&SimWorkload::BroadcastHeavy.spec(seed));
    let heavy = sims::run_once(&SimWorkload::BroadcastHeavy.spec(seed));
    rows.set(
        "sim.events_per_s",
        heavy.report.events_processed as f64 / heavy.on_cpu_s,
    );
    rows.set(
        "sim.events_per_txn",
        heavy.report.events_processed as f64 / heavy.report.completed_txns.max(1) as f64,
    );
    let lan = sims::run_once(&SimWorkload::FlexiBftLan.spec(seed));
    rows.set(
        "sim.lan_events_per_s",
        lan.report.events_processed as f64 / lan.on_cpu_s,
    );
    rows.set("sim.vtps", lan.report.throughput_tps);
    rows.set("sim.p50_ms", lan.report.p50_latency_ms);
    rows.set("sim.p99_ms", lan.report.p99_latency_ms);
    let minbft = sims::run_once(&sims::lan_spec(ProtocolId::MinBft, seed));
    rows.set(
        "sim.flexibft_over_minbft_vtps",
        lan.report.throughput_tps / minbft.report.throughput_tps.max(1.0),
    );
    let crash = sims::run_once(&SimWorkload::CrashRecover.spec(seed));
    let frontier = |i: usize| crash.report.replica_frontiers.get(i).map_or(0, |f| f.0);
    let lead = crash
        .report
        .replica_frontiers
        .iter()
        .map(|f| f.0)
        .max()
        .unwrap_or(0);
    rows.set(
        "sim.rejoin_frontier_share",
        frontier(2) as f64 / lead.max(1) as f64,
    );

    let mut check_errors = Vec::new();
    check_errors.extend(tcp.check_errors.iter().chain(&chan.check_errors).cloned());
    for (name, report) in [
        ("broadcast_heavy", &heavy.report),
        ("lan", &lan.report),
        ("crash_recover", &crash.report),
    ] {
        if let Err(e) = report.check_chaos_invariants() {
            check_errors.push(format!("{name}: {e}"));
        }
    }
    Ok(Outcome {
        attempted: traced.txns + plain.txns + tcp.attempted + chan.attempted,
        failed: tcp.failed + chan.failed,
        stalled_rounds: tcp.stalled_rounds + chan.stalled_rounds,
        metrics: crate::catalog::collect(&crate::catalog::PER_LAYER, |name| {
            rows.0.get(name).copied()
        })?,
        notes,
        check_errors,
    })
}
