//! The canonical binary wire codec.
//!
//! Every byte the TCP transport (`flexitrust-runtime::tcp`) puts on a socket
//! is produced here, and every byte the simulator charges to a link is the
//! length of an encoding produced here: `Message::wire_size_bytes()`,
//! `ClientReply::wire_size_bytes()` and [`client_upload_wire_size`] are
//! pinned — by proptest, see `tests/wire_codec.rs` — to equal the encoded
//! frame length exactly, so the bandwidth model and the sockets can never
//! drift apart.
//!
//! ## Frame layout
//!
//! All integers are little-endian. A frame is self-delimiting:
//!
//! ```text
//! frame   := len:u32 | sender:u32 | kind:u8 | body | mac:[32]   (peer, reply)
//!          | len:u32 | sender:u32 | kind:u8 | body              (submit)
//! ```
//!
//! * `len` counts every byte after the length field itself.
//! * `sender` is the sending replica id, or [`CLIENT_SENDER`] for frames
//!   originated by a client.
//! * `kind` is the [`Message`] variant tag (0..=7), [`KIND_SUBMIT`] (8) for
//!   a client transaction batch, or [`KIND_REPLY`] (9) for a reply.
//! * `mac` is the 32-byte channel-authenticator slot (HMAC-SHA256),
//!   present on peer-message and reply frames. [`Frame::Submit`] frames
//!   carry **no** MAC slot — each submitted transaction already embeds
//!   its own 64-byte client-signature slot, which is what authenticates
//!   client traffic. The in-process transports carry zeroes in these
//!   slots — channel keys are modelled by the crypto substrate and their
//!   verification is charged by the CPU cost model — but the bytes are on
//!   the wire, exactly as the paper's ResilientDB-based deployment pays
//!   for them.
//!
//! A reply frame is a 42-byte fixed head, then the result, then the MAC:
//!
//! ```text
//! reply   := len:u32 | sender:u32 | kind:u8 (9) | client:u64 | request:u64
//!          | seq:u64 | view:u64 | speculative:u8 (0 or 1) | result | mac:[32]
//! result  := 0:u8 | 0:u8                                    Value(None)
//!          | 0:u8 | 1:u8 | len:u32 | bytes                  Value(Some)
//!          | 1:u8                                           Written
//!          | 2:u8 | count:u32 | (key:u64 | len:u32 | bytes)* Range
//!          | 3:u8                                           Noop
//! ```
//!
//! [`encode_reply_into`] writes the head from one stack array and
//! [`decode_reply`] reads it as one chunk, so a reply to a write costs a
//! 75-byte copy each way. [`decode_replies`] decodes every reply frame
//! already whole in a buffer in one pass.
//!
//! Peer message bodies open with two fixed slots `a:u64 | b:u64` holding the
//! variant's (view, seq)-shaped pair (zero when the variant has none), so
//! every header field of the hand-maintained size estimate this codec
//! replaced corresponds to real bytes. Client-signature slots (64 B per
//! transaction) are likewise materialised as bytes.
//!
//! Decoding is strict: a frame that ends early, has trailing bytes, or
//! carries an unknown tag is a [`WireError`], never a partial value.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::cast_possible_truncation)]
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::panic, clippy::unreachable)
)]

mod codec;
mod frame;

pub use codec::{
    decode_attestation, decode_transaction, encode_attestation, encode_transaction, WireError,
};
pub use frame::{
    client_upload_wire_size, decode_frame, decode_message, decode_replies, decode_reply,
    encode_frame, encode_message, encode_reply_into, read_frame, write_frame, Frame, CLIENT_SENDER,
    KIND_REPLY, KIND_SUBMIT, MAX_FRAME_BYTES,
};
