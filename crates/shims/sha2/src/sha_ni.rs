//! The SHA-256 compression function on the x86 SHA extensions: two rounds
//! per `sha256rnds2`, the message schedule four words at a time through
//! `sha256msg1` / `sha256msg2` — the schedule the real `sha2` crate uses.

use super::K;
use core::arch::x86_64::*;

/// Whether this CPU has everything [`compress`] is compiled for.
pub(crate) fn detected() -> bool {
    // Each check is one load of std's cached CPUID word.
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Rounds `4 * $g .. 4 * $g + 4` on the message words `$w`. The working
/// variables live in two registers that trade roles every two rounds.
macro_rules! rounds4 {
    ($abef:ident, $cdgh:ident, $w:expr, $g:literal) => {{
        let k = _mm_set_epi32(
            K[4 * $g + 3] as i32,
            K[4 * $g + 2] as i32,
            K[4 * $g + 1] as i32,
            K[4 * $g] as i32,
        );
        let wk = _mm_add_epi32($w, k);
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }};
}

/// Computes the next four schedule words into `$w0` (which holds the four
/// oldest, `$w3` the four newest), then runs their rounds.
macro_rules! schedule_rounds4 {
    ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $g:literal) => {{
        let sigma0 = _mm_sha256msg1_epu32($w0, $w1);
        let w_minus_7 = _mm_alignr_epi8($w3, $w2, 4);
        $w0 = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w_minus_7), $w3);
        rounds4!($abef, $cdgh, $w0, $g);
    }};
}

/// Folds `blocks` (a whole number of 64-byte blocks) into `state`, which
/// stays in registers from the first block to the last.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`: call only
/// after [`detected`] returned `true`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(crate) unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    // Big-endian message words to little-endian lanes.
    let byte_swap = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);

    // SAFETY: `state` is eight `u32`s, 32 readable bytes, and an unaligned
    // load has no alignment requirement; `sse2` is enabled on this function.
    let (dcba, hgfe) = unsafe {
        let words = state.as_ptr().cast::<__m128i>();
        (_mm_loadu_si128(words), _mm_loadu_si128(words.add(1)))
    };
    // `sha256rnds2` wants the variables as (a, b, e, f) and (c, d, g, h).
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);

        // SAFETY: `chunks_exact(64)` yields exactly 64 readable bytes, four
        // unaligned 16-byte loads; `sse2` is enabled on this function.
        let (mut w0, mut w1, mut w2, mut w3) = unsafe {
            let words = block.as_ptr().cast::<__m128i>();
            (
                _mm_loadu_si128(words),
                _mm_loadu_si128(words.add(1)),
                _mm_loadu_si128(words.add(2)),
                _mm_loadu_si128(words.add(3)),
            )
        };
        w0 = _mm_shuffle_epi8(w0, byte_swap);
        w1 = _mm_shuffle_epi8(w1, byte_swap);
        w2 = _mm_shuffle_epi8(w2, byte_swap);
        w3 = _mm_shuffle_epi8(w3, byte_swap);

        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 1);
        rounds4!(abef, cdgh, w2, 2);
        rounds4!(abef, cdgh, w3, 3);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 4);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 5);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 6);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 7);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 8);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 9);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 10);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 11);
        schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 12);
        schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 13);
        schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 14);
        schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 15);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: `state` is eight `u32`s, 32 writable bytes behind a unique
    // reference, and the stores are unaligned ones; `sse2` is enabled on
    // this function.
    unsafe {
        let words = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(words, dcba);
        _mm_storeu_si128(words.add(1), hgfe);
    }
}
