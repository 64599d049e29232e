//! Frame assembly and the blocking stream I/O used by the TCP transport.

use crate::codec::{
    encode_transaction, header_slots, len_prefix, message_kind_tag, read_message_body, read_result,
    read_transaction, read_vec, truncated, write_message_body, write_result, write_vec, Len,
    Reader, Sink, WireError,
};
use flexitrust_protocol::{ClientReply, Message};
use flexitrust_types::{ClientId, KvResult, ReplicaId, RequestId, SeqNum, Transaction, View};
use std::io::{self, BufRead, Write};

/// The `sender` field value of frames originated by a client rather than a
/// replica.
pub(crate) const CLIENT_SENDER: u32 = u32::MAX;

/// Frame kind tag of a client transaction batch ([`Frame::Submit`]).
pub(crate) const KIND_SUBMIT: u8 = 8;

/// Frame kind tag of a client reply ([`Frame::Reply`]).
pub(crate) const KIND_REPLY: u8 = 9;

/// Refuse frames larger than this (64 MiB): a corrupt length prefix must
/// not look like a multi-gigabyte allocation request.
pub(crate) const MAX_FRAME_BYTES: usize = 64 << 20;

/// The channel-authenticator slot appended to every frame.
const MAC_BYTES: usize = 32;

/// The fixed head of a reply frame: length prefix (4), sender (4), kind
/// (1), client (8), request (8), seq (8), view (8) and the speculative flag
/// (1). The result and the MAC slot follow it.
const REPLY_HEAD_BYTES: usize = 42;

/// The shortest reply frame: the fixed head, a one-byte result and the MAC.
const MIN_REPLY_FRAME_BYTES: usize = REPLY_HEAD_BYTES + 1 + MAC_BYTES;

/// Everything that crosses a transport connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A protocol message between replicas.
    Peer {
        /// The sending replica.
        from: ReplicaId,
        /// The message.
        msg: Message,
    },
    /// A batch of transactions submitted by a client to the primary.
    Submit {
        /// The submitted transactions.
        txns: Vec<Transaction>,
    },
    /// A reply from a replica to a client.
    Reply {
        /// The reply (its `replica` field is the frame sender).
        reply: ClientReply,
    },
}

/// Encodes a frame to its complete wire bytes (length prefix included).
///
/// The encoded length of a [`Frame::Peer`] is [`message_wire_size`], that of
/// a [`Frame::Reply`] is [`reply_wire_size`] and that of a
/// [`Frame::Submit`] is [`client_upload_wire_size`]: each size runs the
/// frame's own writer on a counter, so the simulator's bandwidth model
/// charges exactly these bytes.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Peer { from, msg } => encode_message(*from, msg),
        Frame::Submit { txns } => encode_submit(txns),
        Frame::Reply { reply } => {
            let mut out = Vec::new();
            encode_reply_into(&mut out, reply);
            out
        }
    }
}

/// Starts a frame of `size` bytes: the frame's writer counted it first, so
/// one allocation holds it, and a broadcast-sized batch pays no
/// doubling-realloc ladder. The length prefix is a placeholder that
/// [`finish_frame`] patches.
fn start_frame(size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(size);
    out.put(&[0u8; 4]);
    out
}

/// The length prefix of a frame `size` bytes long, prefix included.
///
/// Panics when the frame exceeds [`MAX_FRAME_BYTES`]: the strict decoder
/// rejects such frames (and past 4 GiB the `u32` prefix would wrap and
/// desync the stream), so an encoder producing one is a configuration
/// error that must fail loudly at the sender, not as a dead connection at
/// the receiver.
fn frame_prefix(size: usize) -> [u8; 4] {
    let body = size - 4;
    assert!(
        body <= MAX_FRAME_BYTES,
        "frame of {body} bytes exceeds the {MAX_FRAME_BYTES}-byte cap the decoder enforces",
    );
    len_prefix(body)
}

/// Patches the length prefix of the frame `out` holds.
fn finish_frame(out: &mut [u8]) {
    let prefix = frame_prefix(out.len());
    if let Some(slot) = out.first_chunk_mut() {
        *slot = prefix;
    }
}

fn encode_submit(txns: &[Transaction]) -> Vec<u8> {
    let mut out = start_frame(client_upload_wire_size(txns));
    write_submit(&mut out, txns);
    finish_frame(&mut out);
    out
}

/// A submission frame after its length prefix. Submissions carry
/// per-transaction client signatures, no frame MAC.
fn write_submit(out: &mut impl Sink, txns: &[Transaction]) {
    out.put(&CLIENT_SENDER.to_le_bytes());
    out.byte(KIND_SUBMIT);
    write_vec(out, txns, encode_transaction);
}

/// Appends `reply`'s complete frame — the bytes
/// `encode_frame(&Frame::Reply { .. })` returns — to `out`, so the replies
/// of one delivery are encoded straight into the buffer that carries them.
/// The frame's size is counted once, up front, so the fixed head is
/// written whole, length prefix included, from one stack array.
pub fn encode_reply_into(out: &mut Vec<u8>, reply: &ClientReply) {
    let size = reply_wire_size(reply);
    let mut head = [0u8; REPLY_HEAD_BYTES];
    head[0..4].copy_from_slice(&frame_prefix(size));
    head[4..8].copy_from_slice(&reply.replica.0.to_le_bytes());
    head[8] = KIND_REPLY;
    head[9..17].copy_from_slice(&reply.client.0.to_le_bytes());
    head[17..25].copy_from_slice(&reply.request.0.to_le_bytes());
    head[25..33].copy_from_slice(&reply.seq.0.to_le_bytes());
    head[33..41].copy_from_slice(&reply.view.0.to_le_bytes());
    head[41] = u8::from(reply.speculative);
    out.reserve(size);
    out.put(&head);
    write_result(out, &reply.result);
    out.put(&[0u8; MAC_BYTES]);
}

/// Wire bytes of `reply`'s frame: the fixed head, the result and the MAC
/// slot. The simulator charges client replies exactly this.
pub fn reply_wire_size(reply: &ClientReply) -> usize {
    let mut len = Len(REPLY_HEAD_BYTES + MAC_BYTES);
    write_result(&mut len, &reply.result);
    len.0
}

/// Decodes a complete frame (length prefix included), strictly: truncated,
/// oversize, unknown-tag and trailing-byte conditions are all errors.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::new(bytes);
    let declared = r.len("frame length")?;
    if declared != r.remaining() {
        return Err(WireError::Truncated {
            context: "frame body",
        });
    }
    let sender = r.u32("frame sender")?;
    let kind = r.u8("frame kind")?;
    let frame = match kind {
        KIND_SUBMIT => Frame::Submit {
            txns: read_vec(&mut r, "submit txn count", read_transaction)?,
        },
        KIND_REPLY => return decode_reply(bytes).map(|reply| Frame::Reply { reply }),
        kind => {
            let a = r.u64("header slot a")?;
            let b = r.u64("header slot b")?;
            let msg = read_message_body(kind, a, b, &mut r)?;
            r.take(MAC_BYTES, "frame mac")?;
            Frame::Peer {
                from: ReplicaId(sender),
                msg,
            }
        }
    };
    r.finish()?;
    Ok(frame)
}

/// Decodes one reply frame (length prefix included). This is the one reply
/// decoder: [`decode_frame`] runs it on every [`KIND_REPLY`] frame. It
/// accepts exactly the bytes [`encode_reply_into`] writes for some reply,
/// whatever the MAC slot holds: another frame kind, a length prefix that
/// disagrees with the frame, a flag other than 0 or 1, an unknown result
/// tag and trailing bytes are all errors.
///
/// The fixed head is read as one `REPLY_HEAD_BYTES` chunk. A one-byte
/// result (`Written`, `Noop`) followed by exactly the MAC slot, the reply
/// to every write, takes no further bounds check.
pub(crate) fn decode_reply(frame: &[u8]) -> Result<ClientReply, WireError> {
    let (head, tail) = frame
        .split_first_chunk::<REPLY_HEAD_BYTES>()
        .ok_or_else(|| truncated("reply head"))?;
    let head = ReplyHead::read(head);
    let declared = usize::try_from(head.declared).unwrap_or(usize::MAX);
    if declared > MAX_FRAME_BYTES {
        return Err(WireError::Oversize {
            context: "frame length",
            declared,
        });
    }
    if declared != frame.len() - 4 {
        return Err(truncated("frame body"));
    }
    if head.kind != KIND_REPLY {
        return Err(WireError::BadTag {
            context: "reply frame",
            tag: head.kind,
        });
    }
    let speculative = match head.speculative {
        0 => false,
        1 => true,
        tag => {
            return Err(WireError::BadTag {
                context: "speculative flag",
                tag,
            })
        }
    };
    // 1 and 3 are `write_result`'s tags for `Written` and `Noop`.
    let result = match tail {
        [1, mac @ ..] if mac.len() == MAC_BYTES => KvResult::Written,
        [3, mac @ ..] if mac.len() == MAC_BYTES => KvResult::Noop,
        _ => {
            let mut r = Reader::new(tail);
            let result = read_result(&mut r)?;
            r.take(MAC_BYTES, "frame mac")?;
            r.finish()?;
            result
        }
    };
    Ok(ClientReply {
        client: ClientId(head.client),
        request: RequestId(head.request),
        seq: SeqNum(head.seq),
        view: View(head.view),
        replica: ReplicaId(head.sender),
        result,
        speculative,
    })
}

/// The fields of a reply frame's fixed head, in wire order.
struct ReplyHead {
    declared: u32,
    sender: u32,
    kind: u8,
    client: u64,
    request: u64,
    seq: u64,
    view: u64,
    speculative: u8,
}

impl ReplyHead {
    /// Splits the head into its fields. The pattern covers exactly
    /// [`REPLY_HEAD_BYTES`] bytes, so a layout slip fails to compile, and
    /// no field read can fail.
    fn read(head: &[u8; REPLY_HEAD_BYTES]) -> Self {
        let [d0, d1, d2, d3, s0, s1, s2, s3, kind, rest @ .., speculative] = *head;
        let [c0, c1, c2, c3, c4, c5, c6, c7, rest @ ..] = rest;
        let [r0, r1, r2, r3, r4, r5, r6, r7, rest @ ..] = rest;
        let [q0, q1, q2, q3, q4, q5, q6, q7, view @ ..] = rest;
        ReplyHead {
            declared: u32::from_le_bytes([d0, d1, d2, d3]),
            sender: u32::from_le_bytes([s0, s1, s2, s3]),
            kind,
            client: u64::from_le_bytes([c0, c1, c2, c3, c4, c5, c6, c7]),
            request: u64::from_le_bytes([r0, r1, r2, r3, r4, r5, r6, r7]),
            seq: u64::from_le_bytes([q0, q1, q2, q3, q4, q5, q6, q7]),
            view: u64::from_le_bytes(view),
            speculative,
        }
    }
}

/// Decodes every reply frame that is already whole at the start of `buf`
/// into `out` and returns the bytes they took: one pass over a socket
/// read's worth of replies. A frame that `buf` ends inside is left for the
/// caller. A malformed frame is an error, and `out` keeps the replies
/// decoded before it.
pub fn decode_replies(buf: &[u8], out: &mut Vec<ClientReply>) -> Result<usize, WireError> {
    // No buffer holds more replies than this, so `out` grows at most once.
    out.reserve(buf.len() / MIN_REPLY_FRAME_BYTES);
    let mut rest = buf;
    while let Some((frame, tail)) = split_frame(rest) {
        out.push(decode_reply(frame)?);
        rest = tail;
    }
    Ok(buf.len() - rest.len())
}

/// Encodes one peer message frame directly from the borrow (no message
/// clone); its length is [`message_wire_size`].
pub fn encode_message(from: ReplicaId, msg: &Message) -> Vec<u8> {
    let mut out = start_frame(message_wire_size(msg));
    write_peer(&mut out, from, msg);
    finish_frame(&mut out);
    out
}

/// A peer frame after its length prefix: sender, kind, the two header
/// slots, the body and the MAC slot.
fn write_peer(out: &mut impl Sink, from: ReplicaId, msg: &Message) {
    out.put(&from.0.to_le_bytes());
    out.byte(message_kind_tag(msg));
    let (a, b) = header_slots(msg);
    out.put(&a.to_le_bytes());
    out.put(&b.to_le_bytes());
    write_message_body(out, msg);
    out.put(&[0u8; MAC_BYTES]);
}

/// Wire bytes of `msg`'s peer frame, whoever sends it. The simulator's
/// bandwidth and per-byte CPU models charge exactly this.
pub fn message_wire_size(msg: &Message) -> usize {
    let mut len = Len(4);
    write_peer(&mut len, ReplicaId(0), msg);
    len.0
}

/// Decodes a peer message frame back to `(from, message)`.
pub fn decode_message(bytes: &[u8]) -> Result<(ReplicaId, Message), WireError> {
    match decode_frame(bytes)? {
        Frame::Peer { from, msg } => Ok((from, msg)),
        _ => Err(WireError::BadTag {
            context: "peer frame",
            tag: bytes.get(8).copied().unwrap_or(0),
        }),
    }
}

/// Wire bytes of a client submission frame carrying `txns`. The simulator
/// charges client uploads exactly this.
pub fn client_upload_wire_size(txns: &[Transaction]) -> usize {
    let mut len = Len(4);
    write_submit(&mut len, txns);
    len.0
}

/// Writes one frame to a blocking stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))
}

/// `buf` split after its first frame (length prefix included), or `None`
/// when `buf` ends before that frame does.
fn split_frame(buf: &[u8]) -> Option<(&[u8], &[u8])> {
    let prefix = buf.first_chunk::<4>()?;
    let len = usize::try_from(u32::from_le_bytes(*prefix)).ok()?;
    buf.split_at_checked(len.checked_add(4)?)
}

/// Reads one frame from a blocking buffered stream. Returns `Ok(None)` on
/// a clean EOF at a frame boundary; malformed frames surface as
/// [`io::ErrorKind::InvalidData`].
///
/// A frame that is wholly in the reader's buffer is decoded where it lies;
/// only one that straddles a refill, or is larger than the buffer, is
/// first copied together.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Frame>> {
    let invalid = |e: WireError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
    // Only an EOF before the *first* byte is a clean end-of-stream; a
    // stream torn mid-prefix (the peer died after 1–3 bytes) is a
    // truncated frame and must error like any other truncation.
    let buffered = r.fill_buf()?;
    if buffered.is_empty() {
        return Ok(None);
    }
    if let Some((frame, _)) = split_frame(buffered) {
        let (len, decoded) = (frame.len(), decode_frame(frame));
        r.consume(len);
        return decoded.map(Some).map_err(invalid);
    }
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = usize::try_from(u32::from_le_bytes(len_bytes)).unwrap_or(usize::MAX);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut frame = vec![0u8; 4 + len];
    let (head, body) = frame.split_at_mut(4);
    head.copy_from_slice(&len_bytes);
    r.read_exact(body)?;
    decode_frame(&frame).map(Some).map_err(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_crypto::Signature;
    use flexitrust_protocol::PreparedProof;
    use flexitrust_trusted::{AttestKind, Attestation};
    use flexitrust_types::{Batch, ClientId, Digest, KvOp, KvResult, RequestId, SeqNum, View};
    use std::io::Read;

    fn txn(value_len: usize) -> Transaction {
        Transaction::new(
            ClientId(7),
            RequestId(3),
            KvOp::Update {
                key: 42,
                value: vec![0xab; value_len].into(),
            },
        )
    }

    fn batch() -> Batch {
        Batch::new(vec![txn(16), txn(0)], Digest::from_u64_tag(9))
    }

    fn attestation() -> Attestation {
        Attestation {
            host: ReplicaId(2),
            counter: 5,
            value: 11,
            digest: Digest::from_u64_tag(4),
            kind: AttestKind::LogSlot,
            signature: Signature([0x5c; 64]),
        }
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::PrePrepare {
                view: View(1),
                seq: SeqNum(2),
                batch: batch(),
                attestation: Some(attestation()),
            },
            Message::Prepare {
                view: View(1),
                seq: SeqNum(2),
                digest: Digest::from_u64_tag(8),
                attestation: None,
            },
            Message::Commit {
                view: View(3),
                seq: SeqNum(4),
                digest: Digest::from_u64_tag(8),
                attestation: Some(attestation()),
            },
            Message::Checkpoint {
                seq: SeqNum(100),
                state_digest: Digest::from_u64_tag(12),
                attestation: Some(attestation()),
            },
            Message::ViewChange {
                new_view: View(6),
                last_stable: SeqNum(90),
                prepared: vec![PreparedProof {
                    view: View(5),
                    seq: SeqNum(91),
                    digest: Digest::from_u64_tag(13),
                    batch: batch(),
                    attestation: Some(attestation()),
                    prepare_votes: 3,
                }],
            },
            Message::NewView {
                view: View(6),
                supporting_votes: 5,
                proposals: vec![
                    (SeqNum(91), batch(), Some(attestation())),
                    (SeqNum(92), Batch::noop(92), None),
                ],
                counter_attestation: Some(attestation()),
            },
            Message::ClientRetry { txn: txn(16) },
            Message::ForwardRequest {
                txns: vec![txn(16), txn(1)],
            },
            Message::CheckpointRequest {
                last_executed: SeqNum(40),
            },
            Message::CheckpointState {
                seq: SeqNum(100),
                snapshot: flexitrust_types::StateSnapshot {
                    entries: vec![(1, vec![0xcd; 24].into()), (9, vec![].into())],
                    applied_mutations: 17,
                    fingerprint: 0xdead_beef,
                },
                batches: vec![(SeqNum(101), batch()), (SeqNum(102), Batch::noop(102))],
            },
        ]
    }

    #[test]
    fn every_message_variant_round_trips_at_its_counted_size() {
        for msg in sample_messages() {
            let from = ReplicaId(3);
            let bytes = encode_message(from, &msg);
            assert_eq!(bytes.len(), message_wire_size(&msg), "{}", msg.kind());
            let (decoded_from, decoded) = decode_message(&bytes).expect("decodes");
            assert_eq!(decoded_from, from, "{}", msg.kind());
            assert_eq!(decoded, msg, "{}", msg.kind());
        }
    }

    #[test]
    fn replies_round_trip_at_their_counted_size() {
        let results = [
            KvResult::Value(None),
            KvResult::Value(Some(vec![1, 2, 3].into())),
            KvResult::Written,
            KvResult::Noop,
            KvResult::Range(vec![(1, vec![9; 10].into()), (2, vec![].into())]),
        ];
        for (i, result) in results.into_iter().enumerate() {
            let reply = ClientReply {
                client: ClientId(4),
                request: RequestId(i as u64),
                seq: SeqNum(17),
                view: View(2),
                replica: ReplicaId(1),
                result,
                speculative: i % 2 == 0,
            };
            let frame = Frame::Reply {
                reply: reply.clone(),
            };
            let bytes = encode_frame(&frame);
            assert_eq!(bytes.len(), reply_wire_size(&reply), "result #{i}");
            assert_eq!(decode_frame(&bytes).expect("decodes"), frame);
        }
    }

    #[test]
    fn submissions_round_trip_and_match_upload_size() {
        let txns = vec![txn(16), txn(200), Transaction::noop()];
        let frame = Frame::Submit { txns: txns.clone() };
        let bytes = encode_frame(&frame);
        assert_eq!(bytes.len(), client_upload_wire_size(&txns));
        assert_eq!(decode_frame(&bytes).expect("decodes"), frame);
        // An empty submission is legal and still carries its header.
        assert_eq!(client_upload_wire_size(&[]), 13);
    }

    #[test]
    fn frames_cross_a_byte_stream() {
        let mut pipe: Vec<u8> = Vec::new();
        let frames = [
            Frame::Peer {
                from: ReplicaId(0),
                msg: sample_messages().remove(1),
            },
            Frame::Submit { txns: vec![txn(8)] },
        ];
        for frame in &frames {
            write_frame(&mut pipe, frame).unwrap();
        }
        let mut cursor = &pipe[..];
        for frame in &frames {
            assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), Some(frame));
        }
        // Clean EOF at a frame boundary.
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn malformed_frames_are_rejected_not_partially_decoded() {
        let good = encode_message(ReplicaId(0), &sample_messages()[0]);
        // Truncated body.
        assert!(decode_frame(&good[..good.len() - 1]).is_err());
        // Trailing bytes.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_frame(&long).is_err());
        // Unknown message kind.
        let mut bad_kind = good.clone();
        bad_kind[8] = 200;
        assert!(decode_frame(&bad_kind).is_err());
        // A mid-stream EOF is an error, not a silent None.
        let mut cursor = &good[..good.len() - 3];
        assert!(read_frame(&mut cursor).is_err());
        // So is a stream torn inside the length prefix itself: only an EOF
        // before the first byte is a clean end-of-stream.
        let mut cursor = &good[..2];
        assert!(read_frame(&mut cursor).is_err());
        // An oversize length prefix is refused before allocating.
        let mut huge = good;
        huge[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = &huge[..];
        assert!(read_frame(&mut cursor).is_err());
    }

    /// A stream that hands out its bytes in reads of the given sizes
    /// (cycled), the way a socket returns whatever has arrived.
    struct Chunked<'a> {
        data: &'a [u8],
        sizes: Vec<usize>,
        reads: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.reads % self.sizes.len()];
            self.reads += 1;
            let n = size.min(buf.len()).min(self.data.len());
            let (head, tail) = self.data.split_at(n);
            buf[..n].copy_from_slice(head);
            self.data = tail;
            Ok(n)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// However the bytes arrive — all at once (every frame decoded
        /// where it lies), in arbitrary chunks or a 1-byte dribble through
        /// a buffer too small for most frames (copied together across
        /// refills) or large enough for all of them (a mix of both) —
        /// `read_frame` yields the frames of the contiguous stream, reports
        /// a clean end only at a frame boundary and an error on a torn tail.
        #[test]
        fn chunked_reads_yield_the_contiguous_frame_sequence(
            sizes in proptest::collection::vec(1usize..97, 1..12),
            dribble in proptest::any::<bool>(),
            capacity in 1usize..80,
            cut in proptest::any::<u64>(),
        ) {
            let mut frames: Vec<Frame> = sample_messages()
                .into_iter()
                .map(|msg| Frame::Peer { from: ReplicaId(1), msg })
                .collect();
            frames.insert(3, Frame::Submit { txns: vec![txn(8), txn(0)] });
            let mut stream = Vec::new();
            let mut boundaries = vec![0];
            for frame in &frames {
                write_frame(&mut stream, frame).unwrap();
                boundaries.push(stream.len());
            }
            // The stream ends anywhere, at a boundary one time in four.
            let cut = match cut % 4 {
                0 => boundaries[(cut / 4) as usize % boundaries.len()],
                _ => (cut / 4) as usize % (stream.len() + 1),
            };
            let whole = boundaries.iter().filter(|b| **b <= cut).count() - 1;

            let chunked = || Chunked {
                data: &stream[..cut],
                sizes: if dribble { vec![1] } else { sizes.clone() },
                reads: 0,
            };
            let readers: [Box<dyn BufRead + '_>; 3] = [
                Box::new(&stream[..cut]),
                Box::new(io::BufReader::with_capacity(capacity, chunked())),
                Box::new(io::BufReader::with_capacity(stream.len() + 1, chunked())),
            ];
            for mut reader in readers {
                for frame in &frames[..whole] {
                    let read = read_frame(&mut reader)
                        .map_err(|e| proptest::TestCaseError::fail(e.to_string()))?;
                    proptest::prop_assert_eq!(read.as_ref(), Some(frame));
                }
                let end = read_frame(&mut reader);
                if boundaries.contains(&cut) {
                    proptest::prop_assert!(matches!(end, Ok(None)), "boundary {cut}: {end:?}");
                } else {
                    proptest::prop_assert!(end.is_err(), "torn at {cut}: {end:?}");
                }
            }
        }
    }

    #[test]
    fn a_frame_larger_than_the_buffer_decodes_and_leaves_its_successor_intact() {
        let big = Frame::Submit {
            txns: vec![txn(5000)],
        };
        let small = Frame::Peer {
            from: ReplicaId(0),
            msg: sample_messages().remove(8),
        };
        let mut stream = encode_frame(&big);
        stream.extend(encode_frame(&small));
        let mut reader = io::BufReader::with_capacity(256, &stream[..]);
        assert_eq!(read_frame(&mut reader).unwrap(), Some(big));
        assert_eq!(read_frame(&mut reader).unwrap(), Some(small));
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn split_frame_takes_the_first_whole_frame_or_nothing() {
        let frame = encode_message(ReplicaId(0), &sample_messages()[1]);
        let mut two = frame.clone();
        two.extend_from_slice(&frame[..frame.len() - 1]);
        assert_eq!(
            split_frame(&two),
            Some((&frame[..], &frame[..frame.len() - 1]))
        );
        assert_eq!(split_frame(&two[frame.len()..]), None);
        assert_eq!(split_frame(&frame[..3]), None);
        assert_eq!(split_frame(&[]), None);
    }

    #[test]
    fn encode_reply_into_appends_exactly_the_reply_frame() {
        let reply = ClientReply {
            client: ClientId(4),
            request: RequestId(8),
            seq: SeqNum(17),
            view: View(2),
            replica: ReplicaId(1),
            result: KvResult::Value(Some(vec![1, 2, 3].into())),
            speculative: false,
        };
        let frame = encode_frame(&Frame::Reply {
            reply: reply.clone(),
        });
        let mut out = vec![0xee; 7];
        encode_reply_into(&mut out, &reply);
        encode_reply_into(&mut out, &reply);
        assert_eq!(out[..7], [0xee; 7]);
        assert_eq!(out[7..7 + frame.len()], frame[..]);
        assert_eq!(out[7 + frame.len()..], frame[..]);
    }

    fn written_reply(request: u64) -> ClientReply {
        ClientReply {
            client: ClientId(4),
            request: RequestId(request),
            seq: SeqNum(17),
            view: View(2),
            replica: ReplicaId(1),
            result: KvResult::Written,
            speculative: true,
        }
    }

    #[test]
    fn the_reply_decoder_refuses_what_the_encoder_never_writes() {
        let good = encode_frame(&Frame::Reply {
            reply: written_reply(8),
        });
        let patched = |at: usize, byte: u8| {
            let mut frame = good.clone();
            frame[at] = byte;
            frame
        };
        let resized = |len: usize| {
            let mut frame = good.clone();
            frame.resize(len, 0);
            frame[..4].copy_from_slice(&len_prefix(len - 4));
            frame
        };
        let refused = [
            patched(8, KIND_SUBMIT), // another frame kind
            patched(41, 2),          // a flag other than 0 or 1
            patched(42, 4),          // an unknown result tag
            patched(0, good[0] + 1), // a prefix longer than the frame
            resized(good.len() - 1), // a MAC slot one byte short
            resized(good.len() + 1), // a trailing byte
            resized(41),             // a frame shorter than the fixed head
        ];
        for (i, frame) in refused.iter().enumerate() {
            assert!(decode_reply(frame).is_err(), "case {i}");
            assert!(decode_frame(frame).is_err(), "case {i}");
        }
        assert_eq!(decode_reply(&good), Ok(written_reply(8)));
    }

    #[test]
    fn decode_replies_takes_the_whole_frames_and_stops_at_a_bad_one() {
        let frames: Vec<Vec<u8>> = (1..=4)
            .map(|request| {
                encode_frame(&Frame::Reply {
                    reply: written_reply(request),
                })
            })
            .collect();
        let whole = frames[..3].concat();
        let mut buf = whole.clone();
        buf.extend_from_slice(&frames[3][..50]);
        let mut out = Vec::new();
        assert_eq!(decode_replies(&buf, &mut out), Ok(whole.len()));
        assert_eq!(out, (1..=3).map(written_reply).collect::<Vec<_>>());

        buf[frames[0].len() + 8] = KIND_SUBMIT;
        out.clear();
        assert!(decode_replies(&buf, &mut out).is_err());
        assert_eq!(out, [written_reply(1)]);
    }

    #[test]
    fn standalone_attestation_and_transaction_codecs_round_trip() {
        let att = attestation();
        let mut bytes = Vec::new();
        encode_attestation(&mut bytes, &att);
        assert_eq!(bytes.len(), 117);
        assert_eq!(decode_attestation(&bytes).unwrap(), att);

        let t = txn(32);
        let mut bytes = Vec::new();
        encode_transaction(&mut bytes, &t);
        assert_eq!(decode_transaction(&bytes).unwrap(), t);
    }

    fn prepare(attestation: Option<Attestation>) -> Message {
        Message::Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            attestation,
        }
    }

    fn new_view(counter_attestation: Option<Attestation>) -> Message {
        Message::NewView {
            view: View(2),
            supporting_votes: 5,
            proposals: vec![(SeqNum(1), batch(), Some(attestation()))],
            counter_attestation,
        }
    }

    #[test]
    fn an_attestation_adds_exactly_its_encoding() {
        let att = Some(attestation());
        assert_eq!(
            message_wire_size(&prepare(att.clone())) - message_wire_size(&prepare(None)),
            117
        );
        assert_eq!(
            message_wire_size(&new_view(att)) - message_wire_size(&new_view(None)),
            117
        );
    }

    #[test]
    fn a_checkpoint_state_is_a_request_plus_its_snapshot_and_batches() {
        let request = Message::CheckpointRequest {
            last_executed: SeqNum(40),
        };
        let state = Message::CheckpointState {
            seq: SeqNum(100),
            snapshot: flexitrust_types::StateSnapshot {
                entries: vec![(7, vec![1u8; 16].into())],
                applied_mutations: 1,
                fingerprint: 42,
            },
            batches: vec![(SeqNum(101), batch())],
        };
        let mut batch_bytes = Vec::new();
        write_batch(&mut batch_bytes, &batch());
        // Snapshot: both counters, the record count, one record (key, length,
        // value); then the batch count, and per batch its seq and encoding.
        assert_eq!(
            message_wire_size(&state),
            message_wire_size(&request) + (8 + 8 + 4 + (8 + 4 + 16)) + 4 + (8 + batch_bytes.len())
        );
    }

    #[test]
    fn a_write_grows_with_its_value() {
        let retry = |value_len| {
            message_wire_size(&Message::ClientRetry {
                txn: txn(value_len),
            })
        };
        assert_eq!(retry(1000) - retry(10), 990);
    }

    use crate::codec::{decode_attestation, decode_transaction, encode_attestation, write_batch};
}
