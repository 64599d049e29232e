//! Minimal stand-in for `rand_chacha` (offline build): a real ChaCha12 block
//! function driving [`ChaCha12Rng`], implementing the workspace `rand` shim's
//! `RngCore`/`SeedableRng` traits. Deterministic under a fixed seed; stream
//! values are not guaranteed to match the upstream crate bit-for-bit.
//!
//! The generator draws blocks eight at a time. Two block kernels are
//! compiled on x86_64 and one elsewhere: the portable scalar one, eight
//! calls of `chacha_block`, and one on AVX2 (`avx2`) that computes the
//! eight blocks side by side and that CPUID selects at run time. Both write
//! the same bytes. No feature, variable or parameter picks a kernel;
//! [`kernel_name`] says which one the process got.

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(target_arch = "x86_64")]
mod avx2;

use rand::{RngCore, SeedableRng};

/// Re-export of the core traits under the path call sites import them from
/// (`rand_chacha::rand_core::SeedableRng`).
pub mod rand_core {
    pub use rand::{RngCore, SeedableRng};
}

const ROUNDS: usize = 12;

/// "expand 32-byte k", the first four words of every block.
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Blocks per kernel call: the generator's buffer.
const BLOCKS: usize = 8;
/// Words per kernel call.
const WORDS: usize = 16 * BLOCKS;
/// Bytes per kernel call.
const GROUP_BYTES: usize = 4 * WORDS;

/// Which block kernel this process runs, decided by CPUID alone: `"avx2"`
/// on an x86_64 CPU with AVX2, `"portable"` everywhere else. For tests and
/// logs; nothing selects a kernel by it.
pub fn kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2::detected() {
        return "avx2";
    }
    "portable"
}

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The scalar ChaCha12 block function: the portable kernel's core and the
/// reference the AVX2 kernel is tested against.
fn chacha_block(key: &[u32; 8], counter: u64, out: &mut [u32; 16]) {
    let mut state: [u32; 16] = [
        CONSTANTS[0],
        CONSTANTS[1],
        CONSTANTS[2],
        CONSTANTS[3],
        key[0],
        key[1],
        key[2],
        key[3],
        key[4],
        key[5],
        key[6],
        key[7],
        counter as u32,
        (counter >> 32) as u32,
        0,
        0,
    ];
    let initial = state;
    for _ in 0..ROUNDS / 2 {
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for i in 0..16 {
        out[i] = state[i].wrapping_add(initial[i]);
    }
}

/// The eight blocks at `counter ..= counter + 7` (wrapping), block after
/// block as little-endian words, from the fastest kernel the CPU has.
fn blocks8(key: &[u32; 8], counter: u64, out: &mut [u8; GROUP_BYTES]) {
    #[cfg(target_arch = "x86_64")]
    if avx2::blocks8(key, counter, out) {
        return;
    }
    portable_blocks8(key, counter, out);
}

/// The portable kernel: eight calls of [`chacha_block`].
fn portable_blocks8(key: &[u32; 8], counter: u64, out: &mut [u8; GROUP_BYTES]) {
    let mut block = [0u32; 16];
    for (i, bytes) in out.as_chunks_mut::<64>().0.iter_mut().enumerate() {
        chacha_block(key, counter.wrapping_add(i as u64), &mut block);
        for (word, chunk) in block.iter().zip(bytes.as_chunks_mut::<4>().0) {
            *chunk = word.to_le_bytes();
        }
    }
}

/// A ChaCha generator with 12 rounds.
#[derive(Debug, Clone)]
pub struct ChaCha12Rng {
    key: [u32; 8],
    /// The block counter of the next group.
    counter: u64,
    /// The current group of blocks, as little-endian words.
    group: [u8; GROUP_BYTES],
    /// The next unread word of `group`.
    index: usize,
}

impl ChaCha12Rng {
    /// Replaces the exhausted group with the next one.
    fn refill(&mut self) {
        blocks8(&self.key, self.counter, &mut self.group);
        self.counter = self.counter.wrapping_add(BLOCKS as u64);
        self.index = 0;
    }
}

impl SeedableRng for ChaCha12Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            key[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha12Rng {
            key,
            counter: 0,
            group: [0u8; GROUP_BYTES],
            index: WORDS,
        }
    }
}

impl RngCore for ChaCha12Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index == WORDS {
            self.refill();
        }
        let word = self.group.as_chunks::<4>().0[self.index];
        self.index += 1;
        u32::from_le_bytes(word)
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// The trait's default, word for word — the bytes of `2 ⌈len / 8⌉`
    /// words, little-endian, with the last `u64`'s surplus bytes dropped —
    /// but copied out of the buffer a group at a time, not a word at a time.
    fn fill_bytes(&mut self, mut dest: &mut [u8]) {
        let mut words = dest.len().div_ceil(8) * 2;
        while words > 0 {
            if self.index == WORDS {
                self.refill();
            }
            let taken = words.min(WORDS - self.index);
            let bytes = dest.len().min(4 * taken);
            let (now, later) = std::mem::take(&mut dest).split_at_mut(bytes);
            now.copy_from_slice(&self.group[4 * self.index..][..bytes]);
            dest = later;
            self.index += taken;
            words -= taken;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use sha2::{Digest, Sha256};

    #[test]
    fn the_selected_kernel_is_named() {
        let name = kernel_name();
        println!("rand_chacha shim kernel: {name}");
        #[cfg(target_arch = "x86_64")]
        assert_eq!(name == "avx2", avx2::detected());
        assert!(["avx2", "portable"].contains(&name));
    }

    /// The first eight `next_u64` of three seeds, recorded from the
    /// one-block-at-a-time generator this one replaced.
    #[test]
    fn known_answers_for_the_first_words() {
        #[rustfmt::skip]
        let vectors: [(u64, [u64; 8]); 3] = [
            (0, [
                0xd18c9d7b82b67bca, 0x73f1688add8c2eb1, 0x65b16a722bbe7197, 0x544515e3ab5ceb0a,
                0xc348ae597cefd08f, 0x19169280adcb0258, 0xbea270700513251c, 0xa4599b32f8fca523,
            ]),
            (1, [
                0x200c5d9168929713, 0x31e26111e5b13971, 0xc68b7e980722edb0, 0x2659f4c082d7d86a,
                0x98bd740e7930d7c0, 0xfe9969e179700766, 0xb4c4e2e5f19f5bef, 0xadbd79d77b490457,
            ]),
            (42, [
                0x280b7b79f392fa12, 0x4dadef83bc931d07, 0xc195c99ba5375e5f, 0x7e657f1b6bdc3bfd,
                0xfe40a244bc14b82f, 0x3dd75b637ba65c81, 0x91c8dff96cfcd24a, 0xcb61b56a793c1223,
            ]),
        ];
        for (seed, expected) in vectors {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            assert_eq!(expected.map(|_| rng.next_u64()), expected, "seed {seed}");
        }
    }

    /// A 64 KiB fill starting three words into the stream (an odd word
    /// offset, mid-block), recorded like the words above: its SHA-256 and
    /// the word pair drawn after it.
    #[test]
    fn known_answer_for_a_long_fill_at_an_odd_offset() {
        let mut rng = ChaCha12Rng::seed_from_u64(42);
        for _ in 0..3 {
            rng.next_u32();
        }
        let mut bytes = vec![0u8; 64 * 1024];
        rng.fill_bytes(&mut bytes);
        let mut h = Sha256::new();
        h.update(&bytes);
        let hex: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "4b574d012597530c7ba5c5322860231dbce47df37f2eab7b64d06184ca7f6f88"
        );
        assert_eq!(rng.next_u64(), 0xc6d0f7626d70fc02);
    }

    /// The AVX2 kernel's eight blocks, or `None` where it cannot run.
    fn avx2_blocks8(key: &[u32; 8], counter: u64) -> Option<[u8; GROUP_BYTES]> {
        #[cfg(target_arch = "x86_64")]
        {
            let mut out = [0u8; GROUP_BYTES];
            if avx2::blocks8(key, counter, &mut out) {
                return Some(out);
            }
        }
        let _ = (key, counter);
        None
    }

    /// The AVX2 kernel against the portable one, eight scalar blocks, for
    /// random keys at counter 0, at every group start whose blocks carry
    /// into word 13, and at every one whose counter wraps past `u64::MAX`.
    #[test]
    fn the_avx2_kernel_matches_eight_scalar_blocks() {
        let mut keys = StdRng::seed_from_u64(0x5eed);
        let counters = [0]
            .into_iter()
            .chain((1u64 << 32) - 8..1 << 32)
            .chain(u64::MAX - 7..=u64::MAX);
        for counter in counters {
            for _ in 0..4 {
                let key: [u32; 8] = core::array::from_fn(|_| keys.next_u32());
                let mut scalar = [0u8; GROUP_BYTES];
                portable_blocks8(&key, counter, &mut scalar);
                let Some(wide) = avx2_blocks8(&key, counter) else {
                    println!("no AVX2 on this CPU: the avx2 kernel was skipped");
                    return;
                };
                assert_eq!(wide, scalar, "counter {counter:#x}");
            }
        }
    }

    /// The generator with nothing but its word draws: `fill_bytes` is the
    /// trait's default, one `next_u64` per 8 bytes.
    struct WordByWord(ChaCha12Rng);

    impl RngCore for WordByWord {
        fn next_u32(&mut self) -> u32 {
            self.0.next_u32()
        }

        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    /// From every word offset into the first group and just past it, fills
    /// of every short length and around every group size write what the
    /// default writes and leave the stream where the default leaves it.
    #[test]
    fn fill_bytes_matches_the_word_by_word_default() {
        let lengths = (0..=80)
            .chain(511..=513)
            .chain(1023..=1025)
            .chain([4096, 4100, 9000]);
        for len in lengths {
            for offset in 0..=130 {
                let mut fast = ChaCha12Rng::seed_from_u64(len as u64);
                let mut reference = WordByWord(fast.clone());
                for _ in 0..offset {
                    assert_eq!(fast.next_u32(), reference.next_u32());
                }
                let mut got = vec![0u8; len];
                let mut expected = vec![0u8; len];
                fast.fill_bytes(&mut got);
                reference.fill_bytes(&mut expected);
                assert_eq!(got, expected, "{len} bytes at word {offset}");
                assert_eq!(
                    fast.next_u64(),
                    reference.next_u64(),
                    "after {len} bytes at word {offset}"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let draw = |seed| {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            (0..64).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn words_look_uniform() {
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let mut ones = 0u32;
        for _ in 0..1000 {
            ones += rng.next_u64().count_ones();
        }
        // 64 000 bits, expect ~32 000 ones.
        assert!((30_000..34_000).contains(&ones), "{ones}");
    }

    #[test]
    fn fill_bytes_advances_the_stream() {
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        rng.fill_bytes(&mut a);
        rng.fill_bytes(&mut b);
        assert_ne!(a, b);
    }
}
