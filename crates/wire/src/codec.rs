//! Field-level encoding: the byte readers/writers and the per-type
//! encode/decode routines the frame layer composes.

use flexitrust_crypto::Signature;
use flexitrust_protocol::{Message, PreparedProof};
use flexitrust_trusted::{AttestKind, Attestation};
use flexitrust_types::{
    Batch, ClientId, Digest, KvOp, KvResult, ReplicaId, RequestId, SeqNum, StateSnapshot,
    Transaction, View,
};
use std::fmt;

/// A malformed frame: the decoder never returns a partial value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced structure did.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// An enum tag byte holds no known variant.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// The frame decoded cleanly but bytes were left over.
    TrailingBytes {
        /// How many bytes remained.
        remaining: usize,
    },
    /// A declared length is implausible (oversize frame or collection).
    Oversize {
        /// What was being decoded.
        context: &'static str,
        /// The declared length.
        declared: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { context } => {
                write!(f, "truncated frame while reading {context}")
            }
            WireError::BadTag { context, tag } => write!(f, "unknown {context} tag {tag}"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after frame")
            }
            WireError::Oversize { context, declared } => {
                write!(f, "implausible {context} length {declared}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Byte-slice cursor for strict decoding: `bytes` is what is still unread.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
}

/// The error of every read that runs past the end of its bytes.
#[cold]
pub(crate) fn truncated(context: &'static str) -> WireError {
    WireError::Truncated { context }
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len()
    }

    pub(crate) fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        let (head, tail) = self
            .bytes
            .split_at_checked(n)
            .ok_or_else(|| truncated(context))?;
        self.bytes = tail;
        Ok(head)
    }

    /// The next `N` bytes as an array: every fixed-width read.
    fn chunk<const N: usize>(&mut self, context: &'static str) -> Result<&'a [u8; N], WireError> {
        let (head, tail) = self
            .bytes
            .split_first_chunk::<N>()
            .ok_or_else(|| truncated(context))?;
        self.bytes = tail;
        Ok(head)
    }

    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        let &[byte] = self.chunk::<1>(context)?;
        Ok(byte)
    }

    pub(crate) fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(*self.chunk(context)?))
    }

    pub(crate) fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(*self.chunk(context)?))
    }

    /// A `u32` collection/byte length, sanity-bounded so a corrupt frame
    /// cannot request an absurd allocation. The widening is checked: on a
    /// 16-bit target a count that does not fit saturates and is rejected
    /// by the oversize cap instead of wrapping.
    pub(crate) fn len(&mut self, context: &'static str) -> Result<usize, WireError> {
        let declared = usize::try_from(self.u32(context)?).unwrap_or(usize::MAX);
        if declared > crate::frame::MAX_FRAME_BYTES {
            return Err(WireError::Oversize { context, declared });
        }
        Ok(declared)
    }

    pub(crate) fn digest(&mut self, context: &'static str) -> Result<Digest, WireError> {
        Ok(Digest::from_bytes(*self.chunk(context)?))
    }

    pub(crate) fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// A length or count as its little-endian `u32` wire prefix: the one
/// narrowing cast on the encode side.
#[expect(
    clippy::cast_possible_truncation,
    reason = "every length and count is of something inside the frame being encoded, and \
              finish_frame refuses a frame over MAX_FRAME_BYTES (below u32::MAX), so a value \
              that would truncate never reaches a socket; prepare_votes counts at most n replicas"
)]
pub(crate) fn len_prefix(len: usize) -> [u8; 4] {
    (len as u32).to_le_bytes()
}

/// Writes a `u32`-counted collection: the encode-side twin of
/// [`read_vec`], so a future collection field cannot forget its count
/// prefix on one side only.
pub(crate) fn write_vec<T>(
    out: &mut Vec<u8>,
    items: &[T],
    mut write: impl FnMut(&mut Vec<u8>, &T),
) {
    out.extend_from_slice(&len_prefix(items.len()));
    for item in items {
        write(out, item);
    }
}

/// Reads a `u32`-counted collection: the one place the count-prefix loop
/// and its preallocation bound live. The bound caps what a corrupt count
/// can allocate up front — an oversize count then costs a failed decode,
/// never memory.
pub(crate) fn read_vec<'a, T>(
    r: &mut Reader<'a>,
    context: &'static str,
    read: impl Fn(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let count = r.len(context)?;
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        out.push(read(r)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Operations and transactions.
// ---------------------------------------------------------------------------

fn encode_op(out: &mut Vec<u8>, op: &KvOp) {
    match op {
        KvOp::Read { key } => {
            out.push(0);
            out.extend_from_slice(&key.to_le_bytes());
        }
        KvOp::Update { key, value } => {
            out.push(1);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&len_prefix(value.len()));
            out.extend_from_slice(value);
        }
        KvOp::Insert { key, value } => {
            out.push(2);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&len_prefix(value.len()));
            out.extend_from_slice(value);
        }
        KvOp::ReadModifyWrite { key, value } => {
            out.push(3);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&len_prefix(value.len()));
            out.extend_from_slice(value);
        }
        KvOp::Scan { start_key, count } => {
            out.push(4);
            out.extend_from_slice(&start_key.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
        KvOp::Noop => out.push(5),
    }
}

fn decode_op(r: &mut Reader<'_>) -> Result<KvOp, WireError> {
    let tag = r.u8("op tag")?;
    Ok(match tag {
        0 => KvOp::Read {
            key: r.u64("read key")?,
        },
        1..=3 => {
            let key = r.u64("write key")?;
            let len = r.len("value length")?;
            let value = r.take(len, "value bytes")?.into();
            match tag {
                1 => KvOp::Update { key, value },
                2 => KvOp::Insert { key, value },
                _ => KvOp::ReadModifyWrite { key, value },
            }
        }
        4 => KvOp::Scan {
            start_key: r.u64("scan start")?,
            count: r.u32("scan count")?,
        },
        5 => KvOp::Noop,
        tag => return Err(WireError::BadTag { context: "op", tag }),
    })
}

/// Encodes one transaction: client id, request id, operation, and the
/// 64-byte client-signature slot (zero-filled — signatures are modelled by
/// the crypto substrate, but the slot is real wire bytes).
pub fn encode_transaction(out: &mut Vec<u8>, txn: &Transaction) {
    out.extend_from_slice(&txn.client().0.to_le_bytes());
    out.extend_from_slice(&txn.request().0.to_le_bytes());
    encode_op(out, txn.op());
    out.extend_from_slice(&[0u8; 64]);
}

/// Decodes one transaction (skipping its signature slot).
pub fn decode_transaction(bytes: &[u8]) -> Result<Transaction, WireError> {
    let mut r = Reader::new(bytes);
    let txn = read_transaction(&mut r)?;
    r.finish()?;
    Ok(txn)
}

pub(crate) fn read_transaction(r: &mut Reader<'_>) -> Result<Transaction, WireError> {
    let client = ClientId(r.u64("txn client")?);
    let request = RequestId(r.u64("txn request")?);
    let op = decode_op(r)?;
    r.take(64, "txn signature slot")?;
    Ok(Transaction::new(client, request, op))
}

pub(crate) fn write_batch(out: &mut Vec<u8>, batch: &Batch) {
    out.extend_from_slice(batch.digest().as_bytes());
    write_vec(out, batch.txns(), encode_transaction);
}

pub(crate) fn read_batch(r: &mut Reader<'_>) -> Result<Batch, WireError> {
    let digest = r.digest("batch digest")?;
    let txns = read_vec(r, "batch txn count", read_transaction)?;
    Ok(Batch::new(txns, digest))
}

// ---------------------------------------------------------------------------
// Attestations.
// ---------------------------------------------------------------------------

/// Encodes an attestation in exactly [`Attestation::WIRE_SIZE`] bytes:
/// host (4) + counter (8) + value (8) + digest (32) + kind (1) +
/// signature (64).
pub fn encode_attestation(out: &mut Vec<u8>, att: &Attestation) {
    out.extend_from_slice(&att.host.0.to_le_bytes());
    out.extend_from_slice(&att.counter.to_le_bytes());
    out.extend_from_slice(&att.value.to_le_bytes());
    out.extend_from_slice(att.digest.as_bytes());
    out.push(match att.kind {
        AttestKind::CounterBind => 0,
        AttestKind::CounterCreate => 1,
        AttestKind::LogSlot => 2,
    });
    out.extend_from_slice(att.signature.as_bytes());
}

/// Decodes an attestation from exactly [`Attestation::WIRE_SIZE`] bytes.
pub fn decode_attestation(bytes: &[u8]) -> Result<Attestation, WireError> {
    let mut r = Reader::new(bytes);
    let att = read_attestation(&mut r)?;
    r.finish()?;
    Ok(att)
}

pub(crate) fn read_attestation(r: &mut Reader<'_>) -> Result<Attestation, WireError> {
    let host = ReplicaId(r.u32("attestation host")?);
    let counter = r.u64("attestation counter")?;
    let value = r.u64("attestation value")?;
    let digest = r.digest("attestation digest")?;
    let kind = match r.u8("attestation kind")? {
        0 => AttestKind::CounterBind,
        1 => AttestKind::CounterCreate,
        2 => AttestKind::LogSlot,
        tag => {
            return Err(WireError::BadTag {
                context: "attestation kind",
                tag,
            })
        }
    };
    let signature = Signature(*r.chunk("attestation signature")?);
    Ok(Attestation {
        host,
        counter,
        value,
        digest,
        kind,
        signature,
    })
}

/// An optional attestation: a presence byte, then the fixed encoding.
pub(crate) fn write_att_opt(out: &mut Vec<u8>, att: &Option<Attestation>) {
    match att {
        None => out.push(0),
        Some(att) => {
            out.push(1);
            encode_attestation(out, att);
        }
    }
}

pub(crate) fn read_att_opt(r: &mut Reader<'_>) -> Result<Option<Attestation>, WireError> {
    match r.u8("attestation presence")? {
        0 => Ok(None),
        1 => Ok(Some(read_attestation(r)?)),
        tag => Err(WireError::BadTag {
            context: "attestation presence",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------------
// Results (reply payloads).
// ---------------------------------------------------------------------------

pub(crate) fn write_result(out: &mut Vec<u8>, result: &KvResult) {
    match result {
        KvResult::Value(v) => {
            out.push(0);
            match v {
                None => out.push(0),
                Some(bytes) => {
                    out.push(1);
                    out.extend_from_slice(&len_prefix(bytes.len()));
                    out.extend_from_slice(bytes);
                }
            }
        }
        KvResult::Written => out.push(1),
        KvResult::Range(rows) => {
            out.push(2);
            write_vec(out, rows, |out, (key, value)| {
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&len_prefix(value.len()));
                out.extend_from_slice(value);
            });
        }
        KvResult::Noop => out.push(3),
    }
}

pub(crate) fn read_result(r: &mut Reader<'_>) -> Result<KvResult, WireError> {
    Ok(match r.u8("result tag")? {
        0 => match r.u8("value presence")? {
            0 => KvResult::Value(None),
            1 => {
                let len = r.len("value length")?;
                KvResult::Value(Some(r.take(len, "value bytes")?.into()))
            }
            tag => {
                return Err(WireError::BadTag {
                    context: "value presence",
                    tag,
                })
            }
        },
        1 => KvResult::Written,
        2 => KvResult::Range(read_vec(r, "range row count", |r| {
            let key = r.u64("range key")?;
            let len = r.len("range value length")?;
            Ok((key, r.take(len, "range value bytes")?.into()))
        })?),
        3 => KvResult::Noop,
        tag => {
            return Err(WireError::BadTag {
                context: "result",
                tag,
            })
        }
    })
}

// ---------------------------------------------------------------------------
// Message bodies.
// ---------------------------------------------------------------------------

/// The `(a, b)` header-slot pair of a message: the variant's view/seq-shaped
/// fields, zero when it has none.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub(crate) fn header_slots(msg: &Message) -> (u64, u64) {
    match msg {
        Message::PrePrepare { view, seq, .. }
        | Message::Prepare { view, seq, .. }
        | Message::Commit { view, seq, .. } => (view.0, seq.0),
        Message::Checkpoint { seq, .. } => (0, seq.0),
        Message::ViewChange {
            new_view,
            last_stable,
            ..
        } => (new_view.0, last_stable.0),
        Message::NewView {
            view,
            supporting_votes,
            ..
        } => (view.0, *supporting_votes as u64),
        Message::ClientRetry { .. } | Message::ForwardRequest { .. } => (0, 0),
        Message::CheckpointRequest { last_executed } => (0, last_executed.0),
        Message::CheckpointState { seq, .. } => (0, seq.0),
    }
}

#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub(crate) fn message_kind_tag(msg: &Message) -> u8 {
    match msg {
        Message::PrePrepare { .. } => 0,
        Message::Prepare { .. } => 1,
        Message::Commit { .. } => 2,
        Message::Checkpoint { .. } => 3,
        Message::ViewChange { .. } => 4,
        Message::NewView { .. } => 5,
        Message::ClientRetry { .. } => 6,
        Message::ForwardRequest { .. } => 7,
        // 8 and 9 are the frame-level KIND_SUBMIT / KIND_REPLY tags; the
        // message and frame kinds share one byte space.
        Message::CheckpointRequest { .. } => 10,
        Message::CheckpointState { .. } => 11,
    }
}

/// Writes a state snapshot: the two digest counters, then the record set.
fn write_snapshot(out: &mut Vec<u8>, snapshot: &StateSnapshot) {
    out.extend_from_slice(&snapshot.applied_mutations.to_le_bytes());
    out.extend_from_slice(&snapshot.fingerprint.to_le_bytes());
    write_vec(out, &snapshot.entries, |out, (key, value)| {
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&len_prefix(value.len()));
        out.extend_from_slice(value);
    });
}

fn read_snapshot(r: &mut Reader<'_>) -> Result<StateSnapshot, WireError> {
    let applied_mutations = r.u64("snapshot mutations")?;
    let fingerprint = r.u64("snapshot fingerprint")?;
    let entries = read_vec(r, "snapshot record count", |r| {
        let key = r.u64("snapshot key")?;
        let len = r.len("snapshot value length")?;
        Ok((key, r.take(len, "snapshot value bytes")?.into()))
    })?;
    Ok(StateSnapshot {
        entries,
        applied_mutations,
        fingerprint,
    })
}

fn write_proof(out: &mut Vec<u8>, proof: &PreparedProof) {
    out.extend_from_slice(&proof.view.0.to_le_bytes());
    out.extend_from_slice(&proof.seq.0.to_le_bytes());
    out.extend_from_slice(proof.digest.as_bytes());
    out.extend_from_slice(&len_prefix(proof.prepare_votes));
    write_batch(out, &proof.batch);
    write_att_opt(out, &proof.attestation);
}

fn read_proof(r: &mut Reader<'_>) -> Result<PreparedProof, WireError> {
    Ok(PreparedProof {
        view: View(r.u64("proof view")?),
        seq: SeqNum(r.u64("proof seq")?),
        digest: r.digest("proof digest")?,
        prepare_votes: usize::try_from(r.u32("proof votes")?).unwrap_or(usize::MAX),
        batch: read_batch(r)?,
        attestation: read_att_opt(r)?,
    })
}

/// Writes the variant-specific body (everything between the fixed header
/// slots and the MAC).
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub(crate) fn write_message_body(out: &mut Vec<u8>, msg: &Message) {
    match msg {
        Message::PrePrepare {
            batch, attestation, ..
        } => {
            write_att_opt(out, attestation);
            write_batch(out, batch);
        }
        Message::Prepare {
            digest,
            attestation,
            ..
        }
        | Message::Commit {
            digest,
            attestation,
            ..
        } => {
            out.extend_from_slice(digest.as_bytes());
            write_att_opt(out, attestation);
        }
        Message::Checkpoint {
            state_digest,
            attestation,
            ..
        } => {
            out.extend_from_slice(state_digest.as_bytes());
            write_att_opt(out, attestation);
        }
        Message::ViewChange { prepared, .. } => {
            write_vec(out, prepared, write_proof);
        }
        Message::NewView {
            proposals,
            counter_attestation,
            ..
        } => {
            write_att_opt(out, counter_attestation);
            write_vec(out, proposals, |out, (seq, batch, attestation)| {
                out.extend_from_slice(&seq.0.to_le_bytes());
                write_batch(out, batch);
                write_att_opt(out, attestation);
            });
        }
        Message::ClientRetry { txn } => encode_transaction(out, txn),
        Message::ForwardRequest { txns } => {
            write_vec(out, txns, encode_transaction);
        }
        // The requester's last executed seq travels in header slot `b`.
        Message::CheckpointRequest { .. } => {}
        Message::CheckpointState {
            snapshot, batches, ..
        } => {
            write_snapshot(out, snapshot);
            write_vec(out, batches, |out, (seq, batch)| {
                out.extend_from_slice(&seq.0.to_le_bytes());
                write_batch(out, batch);
            });
        }
    }
}

/// Rebuilds a message from its kind tag, header slots and body bytes.
pub(crate) fn read_message_body(
    kind: u8,
    a: u64,
    b: u64,
    r: &mut Reader<'_>,
) -> Result<Message, WireError> {
    Ok(match kind {
        0 => Message::PrePrepare {
            view: View(a),
            seq: SeqNum(b),
            attestation: read_att_opt(r)?,
            batch: read_batch(r)?,
        },
        1 | 2 => {
            let digest = r.digest("vote digest")?;
            let attestation = read_att_opt(r)?;
            if kind == 1 {
                Message::Prepare {
                    view: View(a),
                    seq: SeqNum(b),
                    digest,
                    attestation,
                }
            } else {
                Message::Commit {
                    view: View(a),
                    seq: SeqNum(b),
                    digest,
                    attestation,
                }
            }
        }
        3 => Message::Checkpoint {
            seq: SeqNum(b),
            state_digest: r.digest("checkpoint digest")?,
            attestation: read_att_opt(r)?,
        },
        4 => Message::ViewChange {
            new_view: View(a),
            last_stable: SeqNum(b),
            prepared: read_vec(r, "prepared proof count", read_proof)?,
        },
        5 => {
            let counter_attestation = read_att_opt(r)?;
            let proposals = read_vec(r, "proposal count", |r| {
                let seq = SeqNum(r.u64("proposal seq")?);
                let batch = read_batch(r)?;
                let attestation = read_att_opt(r)?;
                Ok((seq, batch, attestation))
            })?;
            Message::NewView {
                view: View(a),
                supporting_votes: usize::try_from(b).unwrap_or(usize::MAX),
                proposals,
                counter_attestation,
            }
        }
        6 => Message::ClientRetry {
            txn: read_transaction(r)?,
        },
        7 => Message::ForwardRequest {
            txns: read_vec(r, "forward txn count", read_transaction)?,
        },
        10 => Message::CheckpointRequest {
            last_executed: SeqNum(b),
        },
        11 => Message::CheckpointState {
            seq: SeqNum(b),
            snapshot: read_snapshot(r)?,
            batches: read_vec(r, "checkpoint batch count", |r| {
                let seq = SeqNum(r.u64("checkpoint batch seq")?);
                let batch = read_batch(r)?;
                Ok((seq, batch))
            })?,
        },
        tag => {
            return Err(WireError::BadTag {
                context: "message kind",
                tag,
            })
        }
    })
}
