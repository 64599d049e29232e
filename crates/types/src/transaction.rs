//! Client transactions, key-value operations and request batches.
//!
//! The paper evaluates the protocols on a YCSB-style key-value workload
//! (600 k records, read/update operations). [`KvOp`] is the operation
//! vocabulary, [`Transaction`] is one signed client request, and [`Batch`]
//! is the unit of consensus (ResilientDB-style client/server batching).

use crate::digest::Digest;
use crate::ids::{ClientId, RequestId};
use crate::tally::Tally;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Counts every [`Batch`] payload allocation (one per `BatchInner`). A
/// batch *clone* is a reference-count bump and does not count; only
/// constructing a batch from owned transactions does. Zero-copy regression
/// tests read this: an n-replica broadcast must allocate the payload once,
/// not once per recipient. Striped, because every replica thread and every
/// socket reader builds batches.
static BATCH_PAYLOAD_ALLOCATIONS: Tally = Tally::new();

/// Total [`Batch`] payload allocations since process start (monotone,
/// process-wide). Tests diff two readings around a workload to pin the
/// zero-copy invariant; concurrent tests only ever make the diff larger,
/// so upper-bound assertions stay sound.
pub fn batch_payload_allocations() -> u64 {
    BATCH_PAYLOAD_ALLOCATIONS.sum()
}

/// Counts every [`ValueBytes`] payload allocation (one per distinct value
/// buffer). A value *clone* is a reference-count bump and does not count;
/// only materialising a buffer from owned or borrowed bytes does.
/// Zero-copy regression tests read this: a committed update must cost one
/// value allocation at the client that generated it — execution at every
/// replica, sharded or serial, shares that allocation by reference.
/// Striped, because every value decode at every replica counts here.
static VALUE_PAYLOAD_ALLOCATIONS: Tally = Tally::new();

/// Total [`ValueBytes`] payload allocations since process start (monotone,
/// process-wide). Tests diff two readings around a workload to pin the
/// zero-copy invariant; concurrent tests only ever make the diff larger,
/// so upper-bound assertions stay sound.
pub fn value_payload_allocations() -> u64 {
    VALUE_PAYLOAD_ALLOCATIONS.sum()
}

/// An immutable value payload shared by reference: the bytes of one record
/// value, allocated once (counted by [`value_payload_allocations`]) and
/// reference-counted everywhere after — through [`KvOp`] write payloads,
/// the store's records, and [`KvResult`] reads. Cloning is a refcount
/// bump; the backing buffer is never copied.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueBytes(Arc<[u8]>);

impl ValueBytes {
    /// Length of the value in bytes.
    #[expect(
        clippy::len_without_is_empty,
        reason = "the length feeds size accounting only"
    )]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` when this handle shares its backing buffer with
    /// `other` (the zero-copy invariant the regression tests pin).
    pub fn shares_buffer(&self, other: &ValueBytes) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for ValueBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for ValueBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for ValueBytes {
    fn from(bytes: Vec<u8>) -> Self {
        VALUE_PAYLOAD_ALLOCATIONS.add(1);
        ValueBytes(bytes.into())
    }
}

impl From<&[u8]> for ValueBytes {
    fn from(bytes: &[u8]) -> Self {
        VALUE_PAYLOAD_ALLOCATIONS.add(1);
        ValueBytes(bytes.into())
    }
}

impl<const N: usize> From<[u8; N]> for ValueBytes {
    fn from(bytes: [u8; N]) -> Self {
        VALUE_PAYLOAD_ALLOCATIONS.add(1);
        ValueBytes(Arc::from(&bytes[..]))
    }
}

impl fmt::Debug for ValueBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Record values are bulk payload; print length, not bytes.
        write!(f, "ValueBytes(len={})", self.0.len())
    }
}

/// A single key-value store operation, mirroring the YCSB core workloads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KvOp {
    /// Read the value stored under `key`.
    Read {
        /// Record key.
        key: u64,
    },
    /// Overwrite the value stored under `key`.
    Update {
        /// Record key.
        key: u64,
        /// New record value (shared by reference; see [`ValueBytes`]).
        value: ValueBytes,
    },
    /// Insert a new record.
    Insert {
        /// Record key.
        key: u64,
        /// Record value (shared by reference; see [`ValueBytes`]).
        value: ValueBytes,
    },
    /// Read-modify-write: read the record, then overwrite it.
    ReadModifyWrite {
        /// Record key.
        key: u64,
        /// New record value (shared by reference; see [`ValueBytes`]).
        value: ValueBytes,
    },
    /// Scan `count` records starting at `start_key`.
    Scan {
        /// First key of the scan.
        start_key: u64,
        /// Number of records to return.
        count: u32,
    },
    /// A no-op operation; used by view changes to fill sequence-number gaps.
    Noop,
}

impl KvOp {
    /// Returns `true` when the operation does not modify state.
    pub fn is_read_only(&self) -> bool {
        matches!(self, KvOp::Read { .. } | KvOp::Scan { .. } | KvOp::Noop)
    }

    /// Exact wire size of the operation in bytes, equal to the canonical
    /// codec's encoding (`flexitrust-wire`): a one-byte kind tag, the key,
    /// and — for writes — a `u32` length prefix plus the value bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            KvOp::Read { .. } => 1 + 8,
            KvOp::Update { value, .. } | KvOp::Insert { value, .. } => 1 + 8 + 4 + value.len(),
            KvOp::ReadModifyWrite { value, .. } => 1 + 8 + 4 + value.len(),
            KvOp::Scan { .. } => 1 + 8 + 4,
            KvOp::Noop => 1,
        }
    }

    /// Returns the primary key touched by the operation, if any.
    pub fn key(&self) -> Option<u64> {
        match self {
            KvOp::Read { key }
            | KvOp::Update { key, .. }
            | KvOp::Insert { key, .. }
            | KvOp::ReadModifyWrite { key, .. } => Some(*key),
            KvOp::Scan { start_key, .. } => Some(*start_key),
            KvOp::Noop => None,
        }
    }
}

/// The result of executing a [`KvOp`] against the state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResult {
    /// The value read (a shared handle onto the store's record buffer —
    /// reading never copies value bytes), or `None` if the key did not
    /// exist.
    Value(Option<ValueBytes>),
    /// The write was applied.
    Written,
    /// The records returned by a scan (shared handles, no copies).
    Range(Vec<(u64, ValueBytes)>),
    /// No-op acknowledged.
    Noop,
}

/// One client request: a key-value operation tagged with the issuing client
/// and a per-client monotonically increasing request id.
///
/// Requests carry no client signature, and no host verifies the envelope:
/// engines take every request they are handed as well-formed. The
/// simulator's cost model still charges an authentication check per
/// request, which no real host performs.
///
/// The identity fields are immutable after construction — private behind
/// accessors, so a digest or signature computed over the transaction can
/// never go stale. Build a new transaction instead of mutating one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Issuing client.
    client: ClientId,
    /// Per-client request id (used for reply matching and deduplication).
    request: RequestId,
    /// The operation to execute.
    op: KvOp,
}

impl Transaction {
    /// Creates a new transaction.
    pub fn new(client: ClientId, request: RequestId, op: KvOp) -> Self {
        Transaction {
            client,
            request,
            op,
        }
    }

    /// Issuing client.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Per-client request id (used for reply matching and deduplication).
    pub fn request(&self) -> RequestId {
        self.request
    }

    /// The operation to execute.
    pub fn op(&self) -> &KvOp {
        &self.op
    }

    /// Consumes the transaction, returning its operation (used when a
    /// template transaction's payload is re-tagged for a fresh request).
    pub fn into_op(self) -> KvOp {
        self.op
    }

    /// Creates a no-op transaction (used by view change gap filling).
    pub fn noop() -> Self {
        Transaction::new(ClientId(u64::MAX), RequestId(0), KvOp::Noop)
    }

    /// Returns `true` when this is a no-op filler transaction.
    pub fn is_noop(&self) -> bool {
        matches!(self.op, KvOp::Noop) && self.client == ClientId(u64::MAX)
    }

    /// Exact wire size in bytes of this transaction, equal to the canonical
    /// codec's encoding: client id + request id + op payload + the 64-byte
    /// client-signature slot (Ed25519).
    pub fn wire_size(&self) -> usize {
        8 + 8 + self.op.wire_size() + 64
    }

    /// Feeds the stable byte encoding that digests and signatures cover to
    /// `sink`, in order and in at most two pieces: a header of at most 29
    /// bytes built on the stack (client and request id little-endian, the
    /// op tag, the key and a scan's count little-endian), then a write's
    /// value as it lies in its [`ValueBytes`]. Nothing is allocated and no
    /// value byte is copied; this is the one definition of the encoding.
    pub fn canonical_parts(&self, mut sink: impl FnMut(&[u8])) {
        let mut header = [0u8; 29];
        let mut len = 0;
        let mut put = |bytes: &[u8]| {
            header[len..len + bytes.len()].copy_from_slice(bytes);
            len += bytes.len();
        };
        put(&self.client.0.to_le_bytes());
        put(&self.request.0.to_le_bytes());
        let (tag, value): (u8, &[u8]) = match &self.op {
            KvOp::Read { .. } => (0, &[]),
            KvOp::Update { value, .. } => (1, value),
            KvOp::Insert { value, .. } => (2, value),
            KvOp::ReadModifyWrite { value, .. } => (3, value),
            KvOp::Scan { .. } => (4, &[]),
            KvOp::Noop => (5, &[]),
        };
        put(&[tag]);
        if let Some(key) = self.op.key() {
            put(&key.to_le_bytes());
        }
        if let KvOp::Scan { count, .. } = &self.op {
            put(&count.to_le_bytes());
        }
        sink(&header[..len]);
        if !value.is_empty() {
            sink(value);
        }
    }
}

/// Outcome of a transaction as reported back to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnOutcome {
    /// The client that issued the transaction.
    pub client: ClientId,
    /// The request id the client attached.
    pub request: RequestId,
    /// The execution result.
    pub result: KvResult,
}

/// The payload of a [`Batch`], allocated exactly once per distinct batch
/// and shared by reference everywhere after.
#[derive(Debug)]
struct BatchInner {
    /// The transactions in proposal order.
    txns: Vec<Transaction>,
    /// Digest of the canonical encoding of all transactions (Δ).
    digest: Digest,
    /// Exact wire size of the batch's canonical-codec encoding, computed
    /// once at construction so `wire_size()` is O(1) however often the
    /// bandwidth model asks.
    wire_size: usize,
}

/// A batch of transactions: the unit over which consensus is run.
///
/// ResilientDB batches client requests both at the client library and at the
/// primary; the protocols in this repository order whole batches, exactly as
/// the evaluation section of the paper does (the "batch size" knob of
/// Figure 6(iv)/(v)).
///
/// A `Batch` is a shared handle: the transactions live behind an `Arc`, so
/// cloning — a broadcast fanning one proposal out to n replicas, an engine
/// parking an accepted proposal, the execution queue holding it — is a
/// reference-count bump, never a copy of the payload bytes. The wire size
/// is computed once at construction, so it is O(1) on the hot path.
#[derive(Debug, Clone)]
pub struct Batch {
    inner: Arc<BatchInner>,
}

impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
            || (self.inner.digest == other.inner.digest && self.inner.txns == other.inner.txns)
    }
}

impl Eq for Batch {}

impl Batch {
    /// Builds a batch from transactions and a pre-computed digest. This is
    /// the single place a batch payload is allocated.
    ///
    /// The digest is computed by the crypto substrate; this constructor only
    /// packages the two together.
    pub fn new(txns: Vec<Transaction>, digest: Digest) -> Self {
        BATCH_PAYLOAD_ALLOCATIONS.add(1);
        let wire_size = 32 + 4 + txns.iter().map(Transaction::wire_size).sum::<usize>();
        Batch {
            inner: Arc::new(BatchInner {
                txns,
                digest,
                wire_size,
            }),
        }
    }

    /// Builds an empty no-op batch for the given tag (used to fill sequence
    /// number gaps during view changes).
    pub fn noop(tag: u64) -> Self {
        Batch::new(vec![Transaction::noop()], Digest::from_u64_tag(tag))
    }

    /// The transactions in proposal order.
    pub fn txns(&self) -> &[Transaction] {
        &self.inner.txns
    }

    /// Digest of the canonical encoding of all transactions (Δ in the
    /// paper).
    pub fn digest(&self) -> Digest {
        self.inner.digest
    }

    /// Returns `true` when this batch shares its payload allocation with
    /// `other` (the zero-copy invariant the regression tests pin).
    pub fn shares_payload(&self, other: &Batch) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Returns `true` when the batch consists solely of no-op transactions.
    pub fn is_noop(&self) -> bool {
        self.inner.txns.iter().all(Transaction::is_noop)
    }

    /// Number of transactions in the batch.
    pub fn len(&self) -> usize {
        self.inner.txns.len()
    }

    /// Returns `true` when the batch holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.inner.txns.is_empty()
    }

    /// Exact wire size of the batch in bytes, equal to the canonical
    /// codec's encoding: the batch digest, a `u32` transaction count, and
    /// every member transaction. Memoized at construction — O(1).
    pub fn wire_size(&self) -> usize {
        self.inner.wire_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(c: u64, r: u64, key: u64) -> Transaction {
        Transaction::new(ClientId(c), RequestId(r), KvOp::Read { key })
    }

    #[test]
    fn read_ops_are_read_only_and_writes_are_not() {
        assert!(KvOp::Read { key: 1 }.is_read_only());
        assert!(KvOp::Scan {
            start_key: 1,
            count: 5
        }
        .is_read_only());
        assert!(KvOp::Noop.is_read_only());
        assert!(!KvOp::Update {
            key: 1,
            value: vec![1].into()
        }
        .is_read_only());
        assert!(!KvOp::Insert {
            key: 1,
            value: vec![1].into()
        }
        .is_read_only());
    }

    fn canonical(txn: &Transaction) -> Vec<u8> {
        let mut out = Vec::new();
        txn.canonical_parts(|part| out.extend_from_slice(part));
        out
    }

    #[test]
    fn canonical_encoding_distinguishes_transactions() {
        let a = txn(1, 1, 10);
        let b = txn(1, 2, 10);
        let c = txn(2, 1, 10);
        assert_ne!(canonical(&a), canonical(&b));
        assert_ne!(canonical(&a), canonical(&c));
        let again = txn(1, 1, 10);
        assert_eq!(canonical(&a), canonical(&again));
    }

    #[test]
    fn canonical_encoding_distinguishes_op_kinds() {
        let read = Transaction::new(ClientId(1), RequestId(1), KvOp::Read { key: 5 });
        let update = Transaction::new(
            ClientId(1),
            RequestId(1),
            KvOp::Update {
                key: 5,
                value: vec![].into(),
            },
        );
        assert_ne!(canonical(&read), canonical(&update));
    }

    #[test]
    fn noop_transaction_and_batch_are_flagged() {
        assert!(Transaction::noop().is_noop());
        assert!(!txn(1, 1, 1).is_noop());
        assert!(Batch::noop(7).is_noop());
        let real = Batch::new(vec![txn(1, 1, 1)], Digest::from_u64_tag(1));
        assert!(!real.is_noop());
    }

    #[test]
    fn batch_sizes_accumulate() {
        let b = Batch::new(vec![txn(1, 1, 1), txn(1, 2, 2)], Digest::from_u64_tag(9));
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert!(b.wire_size() > 2 * 80);
    }

    #[test]
    fn wire_size_grows_with_value_length() {
        let small = KvOp::Update {
            key: 1,
            value: vec![0; 10].into(),
        };
        let big = KvOp::Update {
            key: 1,
            value: vec![0; 1000].into(),
        };
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn op_key_extraction() {
        assert_eq!(KvOp::Read { key: 3 }.key(), Some(3));
        assert_eq!(KvOp::Noop.key(), None);
        assert_eq!(
            KvOp::Scan {
                start_key: 8,
                count: 2
            }
            .key(),
            Some(8)
        );
    }

    #[test]
    fn equal_payloads_are_equal_batches_and_the_wire_size_covers_the_encoding() {
        let b = Batch::new(vec![txn(3, 4, 5)], Digest::from_u64_tag(2));
        let again = Batch::new(vec![txn(3, 4, 5)], Digest::from_u64_tag(2));
        assert_eq!(b, again);
        // The wire size upper-bounds the canonical encoding (it additionally
        // accounts for the batch digest and per-transaction signatures).
        assert!(b.wire_size() > canonical(&txn(3, 4, 5)).len());
    }

    #[test]
    fn canonical_parts_are_a_short_header_then_the_value_in_place() {
        let value: ValueBytes = vec![7u8; 4096].into();
        let write = Transaction::new(
            ClientId(1),
            RequestId(2),
            KvOp::Insert {
                key: 3,
                value: value.clone(),
            },
        );
        let mut parts: Vec<(*const u8, usize)> = Vec::new();
        write.canonical_parts(|part| parts.push((part.as_ptr(), part.len())));
        assert_eq!(parts, vec![(parts[0].0, 25), (value.as_ptr(), 4096)]);

        let scan = Transaction::new(
            ClientId(1),
            RequestId(2),
            KvOp::Scan {
                start_key: 3,
                count: 4,
            },
        );
        let mut lens = Vec::new();
        scan.canonical_parts(|part| lens.push(part.len()));
        assert_eq!(lens, vec![29]);
        assert_eq!(canonical(&Transaction::noop()).len(), 17);
    }
}
