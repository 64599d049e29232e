//! A minimal, self-contained SHA-256 implementation exposing the subset of
//! the `sha2` crate API this workspace uses (`Sha256`, the `Digest` trait
//! with `new`/`update`/`finalize`).
//!
//! The container this workspace builds in has no access to crates.io, so the
//! real `sha2` crate cannot be fetched; this shim implements FIPS 180-4
//! SHA-256 faithfully (the workspace's known-answer tests check it against
//! published vectors).
//!
//! Two compression kernels are compiled on x86_64 and one elsewhere: the
//! portable scalar one, and one on the SHA extensions (`sha_ni`) that
//! CPUID selects at run time. No feature, variable or parameter picks a
//! kernel; [`kernel_name`] says which one the process got.

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(target_arch = "x86_64")]
mod sha_ni;

/// Streaming digest interface matching the subset of `sha2::Digest` in use.
pub trait Digest {
    /// Creates a fresh hasher.
    fn new() -> Self;
    /// Feeds bytes into the hasher.
    fn update(&mut self, data: impl AsRef<[u8]>);
    /// Consumes the hasher and returns the digest bytes.
    fn finalize(self) -> [u8; 32];
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Which compression kernel this process runs, decided by CPUID alone:
/// `"sha-ni"` on an x86_64 CPU with the SHA extensions, `"portable"`
/// everywhere else. For tests and logs; nothing selects a kernel by it.
pub fn kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        return "sha-ni";
    }
    "portable"
}

/// Folds `blocks` (a whole number of 64-byte blocks) into `state` with the
/// fastest kernel the CPU has.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        // SAFETY: `detected()` just saw `sha`, `sse2`, `ssse3` and `sse4.1`
        // in CPUID, the features the kernel is compiled for.
        unsafe { sha_ni::compress(state, blocks) };
        return;
    }
    portable_compress(state, blocks);
}

/// The scalar FIPS 180-4 compression function: the kernel of every CPU
/// without SHA extensions, and the reference the SHA-NI kernel is tested
/// against.
fn portable_compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// The digest a final state stands for: its words, big-endian.
fn digest_of(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }
}

impl Digest for Sha256 {
    fn new() -> Self {
        Sha256::default()
    }

    fn update(&mut self, data: impl AsRef<[u8]>) {
        let mut input = data.as_ref();
        self.length_bytes = self.length_bytes.wrapping_add(input.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < 64 {
                // The partial block stays buffered for the next update.
                return;
            }
            compress(&mut self.state, &self.buffer);
        }
        // Every whole block goes to the kernel in one call, straight from
        // the caller's bytes; only the tail is copied.
        let (blocks, rest) = input.split_at(input.len() & !63);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    fn finalize(mut self) -> [u8; 32] {
        // Padding, in place: 0x80, zeros, then the 64-bit big-endian bit
        // length in the last eight bytes of a block.
        let bit_len = self.length_bytes.wrapping_mul(8);
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            // No room for the length: it goes in a block of its own.
            compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        digest_of(&self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `message` with its FIPS 180-4 padding: a whole number of blocks.
    fn padded(message: &[u8]) -> Vec<u8> {
        let mut out = message.to_vec();
        out.push(0x80);
        while out.len() % 64 != 56 {
            out.push(0);
        }
        out.extend_from_slice(&(message.len() as u64 * 8).to_be_bytes());
        out
    }

    type Kernel = (&'static str, fn(&mut [u32; 8], &[u8]));

    /// Every kernel this build compiled and this CPU can run.
    fn kernels() -> Vec<Kernel> {
        let mut kernels: Vec<Kernel> = vec![("portable", portable_compress)];
        #[cfg(target_arch = "x86_64")]
        if sha_ni::detected() {
            kernels.push(("sha-ni", |state, blocks| {
                // SAFETY: `detected()` just saw `sha`, `sse2`, `ssse3` and
                // `sse4.1` in CPUID.
                unsafe { sha_ni::compress(state, blocks) }
            }));
        }
        kernels
    }

    #[test]
    fn the_selected_kernel_is_named() {
        let name = kernel_name();
        println!("sha2 shim kernel: {name}");
        assert_eq!(name, kernels().last().expect("portable is always there").0);
    }

    #[test]
    fn abc_vector() {
        let mut h = Sha256::new();
        h.update(b"abc");
        assert_eq!(
            hex(&h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        let mut h = Sha256::new();
        h.update(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
        assert_eq!(
            hex(&h.finalize()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// Known answers (`hashlib.sha256`) for byte `i` = `7 i + 3 mod 256` at
    /// every length where the padding changes shape: the 0x80 byte and the
    /// length share the last block up to 55 bytes over a block boundary and
    /// spill into a block of their own from 56.
    #[test]
    fn known_answers_at_every_padding_boundary() {
        #[rustfmt::skip]
        let vectors = [
            (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (1, "084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5"),
            (55, "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b"),
            (56, "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27"),
            (57, "35df609437dcfea3279283ab79fd554e2bf78f8f7ae2de532d8ee300b09e8f73"),
            (63, "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055"),
            (64, "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241"),
            (65, "aacca6ff74fdbb296d165a45cecfa04e5127bc008770fbbdd48006f2d2fae95e"),
            (119, "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e"),
            (120, "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5"),
            (127, "a8d23e75d936f303d248888d9b165ee543f4cbafcad3c9dd2a79bd84faa11d07"),
            (128, "d2742f1f4ac6bb7ca2b239ee18402ba8b3f9f8e652d2a72973c2b9ba11c08cf6"),
            (129, "307f8fc2c1622b92762e818d39a185d4d667ad49a4b07ceae1f4afa008a93ec4"),
        ];
        for (len, expected) in vectors {
            let message: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let mut h = Sha256::new();
            h.update(&message);
            assert_eq!(hex(&h.finalize()), expected, "{len} bytes");
            for (kernel, compress) in kernels() {
                let mut state = H0;
                compress(&mut state, &padded(&message));
                assert_eq!(hex(&digest_of(&state)), expected, "{len} bytes, {kernel}");
            }
        }
    }

    #[test]
    fn million_a_vector() {
        let expected = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(chunk);
        }
        assert_eq!(hex(&h.finalize()), expected);
        let message = padded(&vec![b'a'; 1_000_000]);
        for (kernel, compress) in kernels() {
            let mut state = H0;
            compress(&mut state, &message);
            assert_eq!(hex(&digest_of(&state)), expected, "{kernel}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// However a message is cut into `update` calls, the dispatched
        /// hasher lands on the state that every compiled kernel reaches on
        /// the padded message — given whole, and given in block runs cut at
        /// the same random places.
        #[test]
        fn kernels_and_hasher_agree_on_any_split(
            len in 0usize..1025,
            cuts in proptest::collection::vec(0usize..1025, 0..8),
            seed in any::<u64>(),
        ) {
            let mut rng = proptest::TestRng::seed_from_u64(seed);
            let message: Vec<u8> = (0..len).map(|_| rng.gen::<u64>() as u8).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();

            let mut h = Sha256::new();
            let mut from = 0;
            for &cut in cuts.iter().chain([&len]) {
                h.update(&message[from..cut]);
                from = cut;
            }
            let digest = h.finalize();

            let blocks = padded(&message);
            for (kernel, compress) in kernels() {
                let mut whole = H0;
                compress(&mut whole, &blocks);
                prop_assert_eq!(digest_of(&whole), digest, "{}", kernel);

                let mut pieces = H0;
                let mut from = 0;
                for &cut in cuts.iter().chain([&len]) {
                    let cut = cut.next_multiple_of(64).clamp(from, blocks.len());
                    compress(&mut pieces, &blocks[from..cut]);
                    from = cut;
                }
                compress(&mut pieces, &blocks[from..]);
                prop_assert_eq!(pieces, whole, "{}", kernel);
            }
        }
    }
}
