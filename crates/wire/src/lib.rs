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
    client_upload_wire_size, decode_frame, decode_message, encode_frame, encode_message,
    encode_reply_into, read_frame, resident_frame, write_frame, Frame, CLIENT_SENDER, KIND_REPLY,
    KIND_SUBMIT, MAX_FRAME_BYTES,
};
