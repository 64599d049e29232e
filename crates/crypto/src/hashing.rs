//! SHA-256 hashing helpers.
//!
//! `Hash(·)` in the paper maps an arbitrary value to a constant-sized digest;
//! these helpers compute that digest for raw bytes, transactions and batches.

use flexitrust_types::{Batch, Digest, Transaction};
use sha2::{Digest as Sha2Digest, Sha256};

/// Hashes raw bytes with SHA-256.
pub fn sha256(bytes: &[u8]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(bytes);
    Digest(hasher.finalize())
}

/// Hashes the concatenation of several byte slices without allocating an
/// intermediate buffer.
pub fn sha256_concat<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> Digest {
    let mut hasher = Sha256::new();
    for p in parts {
        hasher.update(p);
    }
    Digest(hasher.finalize())
}

/// Computes the digest Δ of a single transaction (`Hash(⟨T⟩_c)`).
pub fn digest_transaction(txn: &Transaction) -> Digest {
    digest_batch(std::slice::from_ref(txn))
}

/// Computes the digest of a whole batch of transactions.
///
/// The protocols order batches, so the batch digest is what appears in
/// `Preprepare` messages and in trusted-component attestations.
///
/// Each transaction's canonical encoding streams into the hasher as
/// [`Transaction::canonical_parts`] yields it: the value bytes are read
/// where they lie, nothing is serialised first.
pub fn digest_batch(txns: &[Transaction]) -> Digest {
    let mut hasher = Sha256::new();
    for txn in txns {
        txn.canonical_parts(|part| hasher.update(part));
    }
    Digest(hasher.finalize())
}

/// Convenience constructor: builds a [`Batch`] and fills in its digest.
pub fn make_batch(txns: Vec<Transaction>) -> Batch {
    let digest = digest_batch(&txns);
    Batch::new(txns, digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::{ClientId, KvOp, RequestId};

    fn txn(c: u64, r: u64) -> Transaction {
        Transaction::new(ClientId(c), RequestId(r), KvOp::Read { key: r })
    }

    #[test]
    fn sha256_matches_known_vector() {
        // SHA-256 of the empty string.
        let d = sha256(b"");
        assert_eq!(
            d.to_string(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn digests_are_deterministic_and_collision_free_on_distinct_inputs() {
        assert_eq!(
            digest_transaction(&txn(1, 1)),
            digest_transaction(&txn(1, 1))
        );
        assert_ne!(
            digest_transaction(&txn(1, 1)),
            digest_transaction(&txn(1, 2))
        );
        assert_ne!(
            digest_transaction(&txn(1, 1)),
            digest_transaction(&txn(2, 1))
        );
    }

    #[test]
    fn batch_digest_depends_on_order_and_content() {
        let a = digest_batch(&[txn(1, 1), txn(1, 2)]);
        let b = digest_batch(&[txn(1, 2), txn(1, 1)]);
        let c = digest_batch(&[txn(1, 1), txn(1, 2)]);
        assert_ne!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn concat_matches_single_buffer_hash() {
        let x = b"hello ".to_vec();
        let y = b"world".to_vec();
        let concat = sha256_concat([x.as_slice(), y.as_slice()]);
        let single = sha256(b"hello world");
        assert_eq!(concat, single);
    }

    #[test]
    fn make_batch_fills_digest() {
        let b = make_batch(vec![txn(5, 6)]);
        assert_eq!(b.digest(), digest_batch(b.txns()));
        assert!(!b.digest().is_zero());
    }
}
