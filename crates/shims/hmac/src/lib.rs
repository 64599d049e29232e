//! Minimal HMAC (RFC 2104) over the workspace's SHA-256, exposing the subset
//! of the `hmac` crate API in use: `Hmac<Sha256>` with the `Mac` trait's
//! `new_from_slice`, `update` and `finalize().into_bytes()`.

use sha2::{Digest, Sha256};
use std::marker::PhantomData;

const BLOCK_SIZE: usize = 64;

/// Error returned when a key cannot be used. HMAC accepts any key length, so
/// this shim never produces it, but the type keeps call sites source
/// compatible with the real crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidLength;

impl std::fmt::Display for InvalidLength {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("invalid HMAC key length")
    }
}

impl std::error::Error for InvalidLength {}

/// The finalized MAC output.
pub struct Output {
    bytes: [u8; 32],
}

impl Output {
    /// The raw MAC bytes.
    pub fn into_bytes(self) -> [u8; 32] {
        self.bytes
    }
}

/// Keyed-MAC interface matching the subset of `hmac::Mac` in use.
pub trait Mac: Sized {
    /// Creates a MAC instance from arbitrary-length key material.
    fn new_from_slice(key: &[u8]) -> Result<Self, InvalidLength>;
    /// Feeds message bytes.
    fn update(&mut self, data: &[u8]);
    /// Finalizes and returns the MAC.
    fn finalize(self) -> Output;
}

/// HMAC over a hash function; only `Hmac<Sha256>` is implemented.
pub struct Hmac<D> {
    inner: Sha256,
    opad_key: [u8; BLOCK_SIZE],
    _marker: PhantomData<D>,
}

impl Mac for Hmac<Sha256> {
    fn new_from_slice(key: &[u8]) -> Result<Self, InvalidLength> {
        let mut key_block = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            let mut h = Sha256::new();
            h.update(key);
            key_block[..32].copy_from_slice(&h.finalize());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad_key = [0u8; BLOCK_SIZE];
        let mut opad_key = [0u8; BLOCK_SIZE];
        for i in 0..BLOCK_SIZE {
            ipad_key[i] = key_block[i] ^ 0x36;
            opad_key[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(ipad_key);
        Ok(Hmac {
            inner,
            opad_key,
            _marker: PhantomData,
        })
    }

    fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    fn finalize(self) -> Output {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(self.opad_key);
        outer.update(inner_digest);
        Output {
            bytes: outer.finalize(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn hmac(key: &[u8], msg: &[u8]) -> [u8; 32] {
        let mut mac = Hmac::<Sha256>::new_from_slice(key).unwrap();
        mac.update(msg);
        mac.finalize().into_bytes()
    }

    #[test]
    fn rfc4231_case_1() {
        // Key = 20 bytes of 0x0b, data = "Hi There".
        let out = hmac(&[0x0b; 20], b"Hi There");
        assert_eq!(
            hex(&out),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let out = hmac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&out),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        // Key = 20 bytes of 0xaa, data = 50 bytes of 0xdd.
        let out = hmac(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            hex(&out),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        // Key = 0x01..=0x19, data = 50 bytes of 0xcd.
        let key: Vec<u8> = (1..=25).collect();
        let out = hmac(&key, &[0xcd; 50]);
        assert_eq!(
            hex(&out),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn long_keys_are_hashed_first() {
        // RFC 4231 case 6: 131-byte key.
        let out = hmac(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&out),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn distinct_keys_give_distinct_macs() {
        assert_ne!(hmac(b"k1", b"m"), hmac(b"k2", b"m"));
        assert_ne!(hmac(b"k1", b"m1"), hmac(b"k1", b"m2"));
    }
}
