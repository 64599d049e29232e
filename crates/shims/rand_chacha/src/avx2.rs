//! The ChaCha12 block function on AVX2, eight blocks per call: block `j`
//! of the group lives in 32-bit lane `j` of sixteen `__m256i` state rows,
//! the 16- and 8-bit rotations are one `vpshufb` each, and two 8×8
//! transposes turn the rows back into eight consecutive blocks.

use super::{BLOCKS, CONSTANTS, GROUP_BYTES, ROUNDS};
use core::arch::x86_64::*;

// One block per 32-bit lane of a `__m256i`, and 16 stores of 32 bytes fill
// a group.
const _: () = assert!(BLOCKS == 8 && GROUP_BYTES == 16 * 32);

/// Whether this CPU has everything [`kernel`] is compiled for.
pub(crate) fn detected() -> bool {
    // One load of std's cached CPUID word.
    is_x86_feature_detected!("avx2")
}

/// Writes the eight blocks at `counter ..= counter + 7` (wrapping) into
/// `out` and returns `true`; on a CPU without AVX2 it leaves `out` alone and
/// returns `false`.
pub(crate) fn blocks8(key: &[u32; 8], counter: u64, out: &mut [u8; GROUP_BYTES]) -> bool {
    if !detected() {
        return false;
    }
    // SAFETY: `detected()` just saw `avx2` in CPUID, the one feature the
    // kernel is compiled for.
    unsafe { kernel(key, counter, out) };
    true
}

/// Byte shuffles that rotate every 32-bit lane left by 16 and by 8 bits:
/// byte `i` of a lane takes byte `(i - 2) mod 4` or `(i - 1) mod 4` of the
/// same lane. `vpshufb` indexes within each 128-bit half, so both halves get
/// the same two 64-bit patterns.
const ROTATE_16: [i64; 2] = [0x0504_0706_0100_0302, 0x0d0c_0f0e_0908_0b0a];
const ROTATE_8: [i64; 2] = [0x0605_0407_0201_0003, 0x0e0d_0c0f_0a09_080b];

/// One quarter round on the state rows `$a`, `$b`, `$c`, `$d` of `$x`.
macro_rules! quarter_round {
    ($x:ident, $rot16:ident, $rot8:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
        $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
        $x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256($x[$d], $x[$a]), $rot16);
        $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
        let t = _mm256_xor_si256($x[$b], $x[$c]);
        $x[$b] = _mm256_or_si256(_mm256_slli_epi32::<12>(t), _mm256_srli_epi32::<20>(t));
        $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
        $x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256($x[$d], $x[$a]), $rot8);
        $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
        let t = _mm256_xor_si256($x[$b], $x[$c]);
        $x[$b] = _mm256_or_si256(_mm256_slli_epi32::<7>(t), _mm256_srli_epi32::<25>(t));
    };
}

/// Transposes eight rows of eight 32-bit lanes: lane `j` of row `i` becomes
/// lane `i` of row `j`.
#[target_feature(enable = "avx2")]
fn transpose(r: [__m256i; 8]) -> [__m256i; 8] {
    // Pairs of rows interleaved: (r0[0], r1[0], r0[1], r1[1] | lanes 4, 5).
    let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
    let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
    let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
    let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
    let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
    let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
    let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
    let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
    // Quads: lane k of rows 0..=3 in the low half, lane k + 4 in the high.
    let u0 = _mm256_unpacklo_epi64(t0, t2);
    let u1 = _mm256_unpackhi_epi64(t0, t2);
    let u2 = _mm256_unpacklo_epi64(t1, t3);
    let u3 = _mm256_unpackhi_epi64(t1, t3);
    let u4 = _mm256_unpacklo_epi64(t4, t6);
    let u5 = _mm256_unpackhi_epi64(t4, t6);
    let u6 = _mm256_unpacklo_epi64(t5, t7);
    let u7 = _mm256_unpackhi_epi64(t5, t7);
    // Halves joined: rows 0..=3 and 4..=7 of one lane.
    [
        _mm256_permute2x128_si256::<0x20>(u0, u4),
        _mm256_permute2x128_si256::<0x20>(u1, u5),
        _mm256_permute2x128_si256::<0x20>(u2, u6),
        _mm256_permute2x128_si256::<0x20>(u3, u7),
        _mm256_permute2x128_si256::<0x31>(u0, u4),
        _mm256_permute2x128_si256::<0x31>(u1, u5),
        _mm256_permute2x128_si256::<0x31>(u2, u6),
        _mm256_permute2x128_si256::<0x31>(u3, u7),
    ]
}

/// Eight ChaCha12 blocks, the ones at `counter ..= counter + 7`, written
/// block after block into `out` as little-endian words: what eight calls of
/// the scalar block function give.
///
/// # Safety
///
/// The CPU must support `avx2`: outside code compiled for it, call only
/// after [`detected`] returned `true`.
#[target_feature(enable = "avx2")]
fn kernel(key: &[u32; 8], counter: u64, out: &mut [u8; GROUP_BYTES]) {
    let rot16 = _mm256_setr_epi64x(ROTATE_16[0], ROTATE_16[1], ROTATE_16[0], ROTATE_16[1]);
    let rot8 = _mm256_setr_epi64x(ROTATE_8[0], ROTATE_8[1], ROTATE_8[0], ROTATE_8[1]);
    // Each lane's own 64-bit counter, the carry into word 13 included.
    let lanes: [u64; BLOCKS] = core::array::from_fn(|j| counter.wrapping_add(j as u64));
    let lo = lanes.map(|c| c as u32 as i32);
    let hi = lanes.map(|c| (c >> 32) as u32 as i32);
    let splat = |word: u32| _mm256_set1_epi32(word as i32);
    let initial: [__m256i; 16] = [
        splat(CONSTANTS[0]),
        splat(CONSTANTS[1]),
        splat(CONSTANTS[2]),
        splat(CONSTANTS[3]),
        splat(key[0]),
        splat(key[1]),
        splat(key[2]),
        splat(key[3]),
        splat(key[4]),
        splat(key[5]),
        splat(key[6]),
        splat(key[7]),
        _mm256_setr_epi32(lo[0], lo[1], lo[2], lo[3], lo[4], lo[5], lo[6], lo[7]),
        _mm256_setr_epi32(hi[0], hi[1], hi[2], hi[3], hi[4], hi[5], hi[6], hi[7]),
        _mm256_setzero_si256(),
        _mm256_setzero_si256(),
    ];

    let mut x = initial;
    for _ in 0..ROUNDS / 2 {
        quarter_round!(x, rot16, rot8, 0, 4, 8, 12);
        quarter_round!(x, rot16, rot8, 1, 5, 9, 13);
        quarter_round!(x, rot16, rot8, 2, 6, 10, 14);
        quarter_round!(x, rot16, rot8, 3, 7, 11, 15);
        quarter_round!(x, rot16, rot8, 0, 5, 10, 15);
        quarter_round!(x, rot16, rot8, 1, 6, 11, 12);
        quarter_round!(x, rot16, rot8, 2, 7, 8, 13);
        quarter_round!(x, rot16, rot8, 3, 4, 9, 14);
    }
    for (row, start) in x.iter_mut().zip(initial) {
        *row = _mm256_add_epi32(*row, start);
    }

    // Words 0..=7 and 8..=15 of block `j`: row `j` of each transpose.
    let [first, second] = [0, 8].map(|w| transpose(core::array::from_fn(|i| x[w + i])));
    // SAFETY: `out` is 512 writable bytes behind a unique reference; the
    // sixteen unaligned 32-byte stores cover it exactly, block `j`'s two
    // halves at 32-byte offsets `2j` and `2j + 1`.
    unsafe {
        let dst = out.as_mut_ptr().cast::<__m256i>();
        for (j, (low, high)) in first.into_iter().zip(second).enumerate() {
            _mm256_storeu_si256(dst.add(2 * j), low);
            _mm256_storeu_si256(dst.add(2 * j + 1), high);
        }
    }
}
