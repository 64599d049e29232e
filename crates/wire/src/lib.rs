//! The canonical binary wire codec.
//!
//! Every byte the TCP transport (`flexitrust-runtime::tcp`) puts on a socket
//! is produced here, and every byte the simulator charges to a link is
//! counted here: each encoder writes into a sink, and
//! [`message_wire_size`], [`reply_wire_size`] and
//! [`client_upload_wire_size`] run the same encoder on a sink that only
//! counts. The format is written once, so the bandwidth model and the
//! sockets cannot drift apart; `tests/wire_codec.rs` pins the two equal by
//! proptest all the same.
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
//! * `sender` is the sending replica id, or `u32::MAX` for frames
//!   originated by a client.
//! * `kind` is the [`Message`](flexitrust_protocol::Message) variant tag (0..=7), 8 for
//!   a client transaction batch, or 9 for a reply.
//! * `mac` is the 32-byte channel-authenticator slot (HMAC-SHA256),
//!   present on peer-message and reply frames. [`Frame::Submit`] frames
//!   carry **no** MAC slot — each submitted transaction already embeds
//!   its own 64-byte client-signature slot instead. No host fills or
//!   checks either slot: every transport carries zeroes in them, and
//!   only the simulator's CPU cost model charges their verification —
//!   but the bytes are on the wire, exactly as the paper's
//!   ResilientDB-based deployment pays for them.
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
//! [`encode_reply_into`] writes the head from one stack array and the
//! decoder reads it as one chunk, so a reply to a write costs a
//! 75-byte copy each way. [`decode_replies`] decodes every reply frame
//! already whole in a buffer in one pass.
//!
//! Peer message bodies open with two fixed slots `a:u64 | b:u64` holding the
//! variant's (view, seq)-shaped pair (zero when the variant has none).
//! Client-signature slots (64 B per transaction) are materialised as
//! bytes, and an attestation is 117 bytes: host (4), counter (8), value
//! (8), digest (32), kind (1) and signature (64).
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

pub use codec::WireError;
pub use frame::{
    client_upload_wire_size, decode_frame, decode_message, decode_replies, encode_frame,
    encode_message, encode_reply_into, message_wire_size, read_frame, reply_wire_size, write_frame,
    Frame,
};
