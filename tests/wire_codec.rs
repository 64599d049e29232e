//! The codec pin: for *every* `Message` variant (and `ClientReply` /
//! submission frames), generated with arbitrary payloads,
//!
//! * `decode(encode(m)) == m` — the canonical codec round-trips
//!   losslessly, and
//! * `encode(m).len() == m.wire_size_bytes()` — the byte count the
//!   simulator's bandwidth and per-byte CPU models charge is exactly the
//!   byte count the TCP transport puts on the socket.
//!
//! The second property is what makes the codec the ground truth of the
//! performance model: before it, `wire_size_bytes()` was a hand-maintained
//! estimate with nothing pinning it to reality, and it had drifted (ops
//! were over-counted, length prefixes and presence flags under-counted).

use flexitrust::prelude::*;
use flexitrust::protocol::PreparedProof;
use flexitrust::trusted::{AttestKind, Attestation};
use flexitrust::types::{Batch, Digest, KvOp, KvResult};
use flexitrust::wire::decode_replies;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

type Gen = rand::rngs::StdRng;

fn gen_digest(rng: &mut Gen) -> Digest {
    Digest::from_u64_tag(rng.gen::<u64>())
}

fn gen_op(rng: &mut Gen) -> KvOp {
    let value = |rng: &mut Gen| {
        let len = rng.gen_range(0usize..64);
        (0..len)
            .map(|_| rng.gen::<u64>() as u8)
            .collect::<Vec<u8>>()
    };
    match rng.gen_range(0u32..6) {
        0 => KvOp::Read { key: rng.gen() },
        1 => KvOp::Update {
            key: rng.gen(),
            value: value(rng).into(),
        },
        2 => KvOp::Insert {
            key: rng.gen(),
            value: value(rng).into(),
        },
        3 => KvOp::ReadModifyWrite {
            key: rng.gen(),
            value: value(rng).into(),
        },
        4 => KvOp::Scan {
            start_key: rng.gen(),
            count: rng.gen::<u64>() as u32,
        },
        _ => KvOp::Noop,
    }
}

fn gen_txn(rng: &mut Gen) -> Transaction {
    Transaction::new(ClientId(rng.gen()), RequestId(rng.gen()), gen_op(rng))
}

fn gen_batch(rng: &mut Gen) -> Batch {
    let len = rng.gen_range(0usize..8);
    Batch::new((0..len).map(|_| gen_txn(rng)).collect(), gen_digest(rng))
}

fn gen_attestation(rng: &mut Gen) -> Attestation {
    let mut sig = [0u8; 64];
    rng.fill(&mut sig[..]);
    Attestation {
        host: ReplicaId(rng.gen::<u64>() as u32),
        counter: rng.gen(),
        value: rng.gen(),
        digest: gen_digest(rng),
        kind: match rng.gen_range(0u32..3) {
            0 => AttestKind::CounterBind,
            1 => AttestKind::CounterCreate,
            _ => AttestKind::LogSlot,
        },
        signature: flexitrust::crypto::Signature(sig),
    }
}

fn gen_att_opt(rng: &mut Gen) -> Option<Attestation> {
    if rng.gen::<u64>() & 1 == 0 {
        Some(gen_attestation(rng))
    } else {
        None
    }
}

/// One arbitrary message of the given variant (0..10, in kind-tag order),
/// with payload collections of arbitrary small sizes.
fn gen_message(variant: usize, rng: &mut Gen) -> Message {
    match variant {
        0 => Message::PrePrepare {
            view: View(rng.gen()),
            seq: SeqNum(rng.gen()),
            batch: gen_batch(rng),
            attestation: gen_att_opt(rng),
        },
        1 => Message::Prepare {
            view: View(rng.gen()),
            seq: SeqNum(rng.gen()),
            digest: gen_digest(rng),
            attestation: gen_att_opt(rng),
        },
        2 => Message::Commit {
            view: View(rng.gen()),
            seq: SeqNum(rng.gen()),
            digest: gen_digest(rng),
            attestation: gen_att_opt(rng),
        },
        3 => Message::Checkpoint {
            seq: SeqNum(rng.gen()),
            state_digest: gen_digest(rng),
            attestation: gen_att_opt(rng),
        },
        4 => Message::ViewChange {
            new_view: View(rng.gen()),
            last_stable: SeqNum(rng.gen()),
            prepared: (0..rng.gen_range(0usize..4))
                .map(|_| PreparedProof {
                    view: View(rng.gen()),
                    seq: SeqNum(rng.gen()),
                    digest: gen_digest(rng),
                    batch: gen_batch(rng),
                    attestation: gen_att_opt(rng),
                    prepare_votes: rng.gen::<u64>() as u32 as usize,
                })
                .collect(),
        },
        5 => Message::NewView {
            view: View(rng.gen()),
            supporting_votes: rng.gen::<u64>() as u32 as usize,
            proposals: (0..rng.gen_range(0usize..4))
                .map(|_| (SeqNum(rng.gen()), gen_batch(rng), gen_att_opt(rng)))
                .collect(),
            counter_attestation: gen_att_opt(rng),
        },
        6 => Message::ClientRetry { txn: gen_txn(rng) },
        7 => Message::ForwardRequest {
            txns: (0..rng.gen_range(0usize..6))
                .map(|_| gen_txn(rng))
                .collect(),
        },
        8 => Message::CheckpointRequest {
            last_executed: SeqNum(rng.gen()),
        },
        _ => Message::CheckpointState {
            seq: SeqNum(rng.gen()),
            snapshot: flexitrust::types::StateSnapshot {
                entries: (0..rng.gen_range(0usize..6))
                    .map(|_| {
                        let len = rng.gen_range(0usize..48);
                        (
                            rng.gen(),
                            (0..len)
                                .map(|_| rng.gen::<u64>() as u8)
                                .collect::<Vec<u8>>()
                                .into(),
                        )
                    })
                    .collect(),
                applied_mutations: rng.gen(),
                fingerprint: rng.gen(),
            },
            batches: (0..rng.gen_range(0usize..4))
                .map(|_| (SeqNum(rng.gen()), gen_batch(rng)))
                .collect(),
        },
    }
}

fn gen_result(rng: &mut Gen) -> KvResult {
    let shape = rng.gen_range(0u32..5);
    gen_result_of_shape(shape, rng)
}

/// A result of one of the five shapes: `Value(None)`, `Value(Some)`,
/// `Written`, `Noop` and `Range`, in that order.
fn gen_result_of_shape(shape: u32, rng: &mut Gen) -> KvResult {
    match shape {
        0 => KvResult::Value(None),
        1 => {
            let len = rng.gen_range(0usize..128);
            KvResult::Value(Some(
                (0..len)
                    .map(|_| rng.gen::<u64>() as u8)
                    .collect::<Vec<u8>>()
                    .into(),
            ))
        }
        2 => KvResult::Written,
        3 => KvResult::Noop,
        _ => KvResult::Range(
            (0..rng.gen_range(0usize..5))
                .map(|_| {
                    let len = rng.gen_range(0usize..32);
                    (
                        rng.gen(),
                        (0..len)
                            .map(|_| rng.gen::<u64>() as u8)
                            .collect::<Vec<u8>>()
                            .into(),
                    )
                })
                .collect(),
        ),
    }
}

fn gen_reply(rng: &mut Gen, speculative: bool) -> flexitrust::protocol::ClientReply {
    flexitrust::protocol::ClientReply {
        client: ClientId(rng.gen()),
        request: RequestId(rng.gen()),
        seq: SeqNum(rng.gen()),
        view: View(rng.gen()),
        replica: ReplicaId(rng.gen::<u64>() as u32),
        result: gen_result(rng),
        speculative,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Round-trip and length pin over every message variant: `variant`
    /// sweeps the codec's kind tags, `seed` drives arbitrary payloads.
    #[test]
    fn every_message_variant_round_trips_at_its_pinned_size(
        variant in 0usize..10,
        seed in any::<u64>(),
    ) {
        let mut rng = Gen::seed_from_u64(seed);
        let msg = gen_message(variant, &mut rng);
        let from = ReplicaId(rng.gen::<u64>() as u32);
        let bytes = encode_message(from, &msg);
        prop_assert!(
            bytes.len() == msg.wire_size_bytes(),
            "{}: encoded {} bytes, wire_size_bytes says {}",
            msg.kind(),
            bytes.len(),
            msg.wire_size_bytes()
        );
        let (decoded_from, decoded) = decode_message(&bytes)
            .map_err(|e| proptest::TestCaseError::fail(format!("{}: {e}", msg.kind())))?;
        prop_assert_eq!(decoded_from, from);
        prop_assert_eq!(decoded, msg);
    }

    /// The memoized payload sizes are the codec's encoded lengths:
    /// `Transaction::wire_size()` (O(1) from the op) equals its encoded
    /// frame, and `Batch::wire_size()` (computed once at construction)
    /// equals the digest + count prefix + every member transaction's
    /// encoding.
    #[test]
    fn memoized_sizes_match_the_codec(seed in any::<u64>()) {
        let mut rng = Gen::seed_from_u64(seed);
        let txn = gen_txn(&mut rng);
        let mut encoded = Vec::new();
        flexitrust::wire::encode_transaction(&mut encoded, &txn);
        prop_assert_eq!(encoded.len(), txn.wire_size());

        let batch = gen_batch(&mut rng);
        let mut batch_len = 32 + 4;
        for t in batch.txns() {
            let mut buf = Vec::new();
            flexitrust::wire::encode_transaction(&mut buf, t);
            batch_len += buf.len();
        }
        prop_assert_eq!(batch_len, batch.wire_size());

        // Clones share the payload allocation — the zero-copy invariant.
        prop_assert!(batch.clone().shares_payload(&batch));
    }

    /// The digest input is defined once, by `Transaction::canonical_parts`:
    /// the parts it streams, concatenated, are the encoding written out
    /// here (client LE, request LE, tag 0–5, key LE, then the value bytes
    /// or a scan's count LE), a write's value is streamed from where it
    /// lies, and both digest functions are SHA-256 of that concatenation —
    /// for every op shape, with empty and 4 KiB values among them.
    #[test]
    fn streamed_canonical_parts_match_a_reference_encoder_and_the_digests(
        seed in any::<u64>(),
        value_len in 0usize..4,
    ) {
        fn reference(txn: &Transaction) -> Vec<u8> {
            let mut out = Vec::new();
            out.extend_from_slice(&txn.client().0.to_le_bytes());
            out.extend_from_slice(&txn.request().0.to_le_bytes());
            let (tag, key, tail): (u8, Option<u64>, Vec<u8>) = match txn.op() {
                KvOp::Read { key } => (0, Some(*key), Vec::new()),
                KvOp::Update { key, value } => (1, Some(*key), value.to_vec()),
                KvOp::Insert { key, value } => (2, Some(*key), value.to_vec()),
                KvOp::ReadModifyWrite { key, value } => (3, Some(*key), value.to_vec()),
                KvOp::Scan { start_key, count } => {
                    (4, Some(*start_key), count.to_le_bytes().to_vec())
                }
                KvOp::Noop => (5, None, Vec::new()),
            };
            out.push(tag);
            out.extend(key.into_iter().flat_map(u64::to_le_bytes));
            out.extend(tail);
            out
        }

        let mut rng = Gen::seed_from_u64(seed);
        let value_len = [0, 1, 64, 4096][value_len];
        let mut txns: Vec<Transaction> = (0..6u32)
            .map(|shape| {
                let value: Vec<u8> = (0..value_len).map(|_| rng.gen::<u64>() as u8).collect();
                let op = match shape {
                    0 => KvOp::Read { key: rng.gen() },
                    1 => KvOp::Update { key: rng.gen(), value: value.into() },
                    2 => KvOp::Insert { key: rng.gen(), value: value.into() },
                    3 => KvOp::ReadModifyWrite { key: rng.gen(), value: value.into() },
                    4 => KvOp::Scan { start_key: rng.gen(), count: rng.gen::<u64>() as u32 },
                    _ => KvOp::Noop,
                };
                Transaction::new(ClientId(rng.gen()), RequestId(rng.gen()), op)
            })
            .collect();
        txns.extend((0..4).map(|_| gen_txn(&mut rng)));

        let mut all = Vec::new();
        for txn in &txns {
            let mut streamed = Vec::new();
            let mut parts = Vec::new();
            txn.canonical_parts(|part| {
                streamed.extend_from_slice(part);
                parts.push(part.as_ptr_range());
            });
            let expected = reference(txn);
            prop_assert!(streamed == expected, "{:?} streamed {streamed:?}", txn.op());
            if let KvOp::Update { value, .. }
            | KvOp::Insert { value, .. }
            | KvOp::ReadModifyWrite { value, .. } = txn.op()
            {
                if !value.is_empty() {
                    prop_assert_eq!(parts.last(), Some(&value.as_ptr_range()));
                }
            }
            prop_assert_eq!(
                flexitrust::crypto::digest_transaction(txn),
                flexitrust::crypto::sha256(&expected)
            );
            all.extend(expected);
        }
        prop_assert_eq!(
            flexitrust::crypto::digest_batch(&txns),
            flexitrust::crypto::sha256(&all)
        );
        prop_assert_eq!(
            flexitrust::crypto::make_batch(txns).digest(),
            flexitrust::crypto::sha256(&all)
        );
    }

    /// The same two pins for client replies (every result shape) and
    /// submission frames.
    #[test]
    fn replies_and_submissions_round_trip_at_their_pinned_sizes(
        seed in any::<u64>(),
        speculative in any::<bool>(),
    ) {
        let mut rng = Gen::seed_from_u64(seed);
        let reply = gen_reply(&mut rng, speculative);
        let frame = Frame::Reply { reply: reply.clone() };
        let bytes = encode_frame(&frame);
        prop_assert_eq!(bytes.len(), reply.wire_size_bytes());
        let decoded = decode_frame(&bytes)
            .map_err(|e| proptest::TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(decoded, frame);

        let txns: Vec<Transaction> =
            (0..rng.gen_range(0usize..8)).map(|_| gen_txn(&mut rng)).collect();
        let frame = Frame::Submit { txns: txns.clone() };
        let bytes = encode_frame(&frame);
        prop_assert_eq!(bytes.len(), client_upload_wire_size(&txns));
        let decoded = decode_frame(&bytes)
            .map_err(|e| proptest::TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(decoded, frame);
    }

    /// Flipping any single payload byte of a frame must never round-trip
    /// back to the original message (the codec is injective on the bytes
    /// it reads) — corrupted-but-decodable frames may exist, silently
    /// equal ones may not. Restricted to the frames in which *every* byte
    /// is interpreted: the vote variants (Prepare, Commit) and replies of
    /// every result shape. Batch-carrying frames contain client-signature
    /// slots and variants without a view/seq pair contain zeroed header
    /// slots that, like the trailing MAC, are carried rather than read by
    /// the in-process transports, so flips there are legitimately
    /// invisible. Each reply frame gets every one of its flips, length
    /// prefix included.
    #[test]
    fn no_silent_single_byte_corruption(
        variant in 1usize..3,
        seed in any::<u64>(),
        speculative in any::<bool>(),
        flip in 4usize..256,
    ) {
        let mut rng = Gen::seed_from_u64(seed);
        for shape in 0..5 {
            let reply = flexitrust::protocol::ClientReply {
                result: gen_result_of_shape(shape, &mut rng),
                ..gen_reply(&mut rng, speculative)
            };
            let bytes = encode_frame(&Frame::Reply { reply: reply.clone() });
            for at in 0..bytes.len() - 32 {
                let mut corrupted = bytes.clone();
                corrupted[at] ^= 0x01;
                if let Ok(Frame::Reply { reply: decoded }) = decode_frame(&corrupted) {
                    prop_assert!(
                        decoded != reply,
                        "byte {at} of a {:?} reply frame flipped silently",
                        reply.result
                    );
                }
            }
        }

        let msg = gen_message(variant, &mut rng);
        let from = ReplicaId(7);
        let bytes = encode_message(from, &msg);
        // Skip the length prefix (corrupting framing is the stream layer's
        // problem) and the trailing MAC slot.
        let payload_end = bytes.len() - 32;
        if flip >= payload_end {
            return Ok(());
        }
        let mut corrupted = bytes.clone();
        corrupted[flip] ^= 0x01;
        match decode_frame(&corrupted) {
            Err(_) => {}
            Ok(Frame::Peer { from: f, msg: m }) => {
                prop_assert!(
                    f != from || m != msg,
                    "byte {flip} of a {} frame flipped silently",
                    msg.kind()
                );
            }
            Ok(_) => {}
        }
    }
}

/// The attestation encoding is pinned to the trusted substrate's declared
/// size — the constant both `wire_size_bytes` and the enclave cost model
/// build on.
#[test]
fn attestation_encoding_matches_declared_wire_size() {
    let mut rng = Gen::seed_from_u64(7);
    for _ in 0..32 {
        let att = gen_attestation(&mut rng);
        let mut bytes = Vec::new();
        flexitrust::wire::encode_attestation(&mut bytes, &att);
        assert_eq!(bytes.len(), Attestation::WIRE_SIZE);
        assert_eq!(bytes.len(), att.wire_size());
        assert_eq!(flexitrust::wire::decode_attestation(&bytes).unwrap(), att);
    }
}

/// Feeds `bytes` to every frame decoder: the slice decoder, the stream
/// reader the TCP host runs on every socket and the one-pass reply decoder
/// its reply readers run. Any may refuse the bytes; none may panic. A panic
/// fails the test with the input that caused it.
///
/// The two reply paths must also agree: `decode_frame` decodes a reply
/// exactly when `decode_replies` decodes the whole input as that one reply.
fn decode_both(bytes: &[u8]) {
    let outcome = std::panic::catch_unwind(|| {
        let _ = read_frame(&mut std::io::Cursor::new(bytes));
        let mut replies = Vec::new();
        let consumed = decode_replies(bytes, &mut replies);
        (decode_frame(bytes), consumed, replies)
    });
    let Ok((frame, consumed, replies)) = outcome else {
        panic!(
            "a decoder panicked on {} peer bytes: {bytes:02x?}",
            bytes.len()
        );
    };
    let one_whole_reply = consumed == Ok(bytes.len()) && replies.len() == 1;
    match frame {
        Ok(Frame::Reply { reply }) => assert!(
            one_whole_reply && replies[0] == reply,
            "decode_replies disagrees with decode_frame on {bytes:02x?}: {consumed:?}"
        ),
        _ => assert!(
            !one_whole_reply,
            "decode_replies accepts a reply decode_frame refuses: {bytes:02x?}"
        ),
    }
}

/// Rewrites the length prefix to match the buffer, so the corruption
/// behind it reaches the body decoders instead of failing the frame check.
fn with_repaired_prefix(mut bytes: Vec<u8>) -> Vec<u8> {
    if let Some(body) = bytes.len().checked_sub(4) {
        let declared = u32::try_from(body).expect("test frames are small");
        bytes[..4].copy_from_slice(&declared.to_le_bytes());
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The decoders never panic on peer bytes. For one frame of each of
    /// the ten message kinds, a submit frame and a reply frame: every
    /// truncated prefix, and 1–3 random bit flips, each as it is and with
    /// the length prefix repaired; then random bodies behind a valid
    /// length prefix and a valid kind tag. Every input goes through
    /// `decode_frame`, through `read_frame` over a `Cursor` and through
    /// `decode_replies`.
    #[test]
    fn decoders_never_panic_on_peer_bytes(seed in any::<u64>()) {
        let mut rng = Gen::seed_from_u64(seed);
        let mut frames: Vec<Vec<u8>> = (0..10)
            .map(|variant| {
                let from = ReplicaId(rng.gen::<u64>() as u32);
                encode_message(from, &gen_message(variant, &mut rng))
            })
            .collect();
        let txns: Vec<Transaction> =
            (0..rng.gen_range(0usize..4)).map(|_| gen_txn(&mut rng)).collect();
        frames.push(encode_frame(&Frame::Submit { txns }));
        let speculative = rng.gen();
        let reply = gen_reply(&mut rng, speculative);
        frames.push(encode_frame(&Frame::Reply { reply }));

        for frame in &frames {
            for cut in 0..frame.len() {
                let prefix = frame[..cut].to_vec();
                decode_both(&prefix);
                decode_both(&with_repaired_prefix(prefix));
            }
            for _ in 0..64 {
                let mut flipped = frame.clone();
                for _ in 0..rng.gen_range(1u32..=3) {
                    let bit = rng.gen_range(0..flipped.len() * 8);
                    flipped[bit / 8] ^= 1 << (bit % 8);
                }
                decode_both(&flipped);
                decode_both(&with_repaired_prefix(flipped));
            }
        }

        // The kind tag sits after the length prefix and the sender.
        let kinds: std::collections::BTreeSet<u8> = frames.iter().map(|frame| frame[8]).collect();
        prop_assert_eq!(kinds.len(), 12);
        for kind in kinds {
            for _ in 0..32 {
                let mut junk = vec![0u8; 9 + rng.gen_range(0usize..256)];
                rng.fill(&mut junk[4..]);
                junk[8] = kind;
                decode_both(&with_repaired_prefix(junk));
            }
        }
    }
}
