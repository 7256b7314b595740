//! CRC-32 (IEEE 802.3) and Adler-32 checksums.
//!
//! The gzip-style frames in `fedsz-lossless` use CRC-32; the zlib-style
//! frames use Adler-32, mirroring the real formats' integrity checks.
//! CRC-32 also guards every FMSG frame, every FSZ1 trailer and the
//! zstd-, xz- and psum-class frames, so it runs over every byte a round
//! sends, several times.
//!
//! # Two CRC-32 kernels, one function
//!
//! On an x86-64 CPU with PCLMULQDQ and SSE4.1, an input of at least
//! 64 bytes is folded by carry-less multiplication (Gopal et al.,
//! "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
//! Intel, 2009): four 128-bit lanes fold 64 bytes per step, the lanes
//! fold into one, and a Barrett reduction takes the remainder to 32
//! bits — 11–16x the table on a 2-core Xeon. Shorter inputs, other
//! CPUs and other targets run slicing-by-8 over compile-time tables,
//! which also finishes the fold's last 0–15 bytes. Both compute the same
//! function, so no stream depends on which one ran; the tests hold each
//! to the bit-at-a-time definition.
//!
//! The one `unsafe` is the call into the `#[target_feature]` fold, whose
//! only precondition, the two CPU features, is checked just before it.

#![deny(clippy::undocumented_unsafe_blocks)]

/// Computes the IEEE CRC-32 of `data` (polynomial `0xEDB88320`, as used
/// by gzip, PNG and Ethernet).
///
/// # Examples
///
/// ```
/// assert_eq!(fedsz_codec::checksum::crc32(b"123456789"), 0xCBF43926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// Incremental CRC-32 state, for hashing data produced in chunks.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

/// Slicing-by-8 tables: `TABLES[0]` is the classic byte-at-a-time table
/// of CRC remainders, and `TABLES[k][b]` is the remainder of byte `b`
/// followed by `k` zero bytes — so eight table reads, one per byte of a
/// 64-bit chunk, advance the state by the whole chunk at once.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Advances `state` over `data` eight bytes per step, then one.
fn update_sliced(mut state: u32, data: &[u8]) -> u32 {
    let (chunks, rest) = data.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in chunks {
        let low = state ^ u32::from_le_bytes([b0, b1, b2, b3]);
        state = TABLES[7][(low & 0xff) as usize]
            ^ TABLES[6][((low >> 8) & 0xff) as usize]
            ^ TABLES[5][((low >> 16) & 0xff) as usize]
            ^ TABLES[4][(low >> 24) as usize]
            ^ TABLES[3][usize::from(b4)]
            ^ TABLES[2][usize::from(b5)]
            ^ TABLES[1][usize::from(b6)]
            ^ TABLES[0][usize::from(b7)];
    }
    for &byte in rest {
        state = TABLES[0][((state ^ u32::from(byte)) & 0xff) as usize] ^ (state >> 8);
    }
    state
}

impl Crc32 {
    /// Creates a fresh checksum state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN {
            if let Some(state) = clmul::update(self.state, data) {
                self.state = state;
                return;
            }
        }
        self.state = update_sliced(self.state, data);
    }

    /// Returns the final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// The carry-less-multiply fold.
///
/// The CRC state is the remainder of the message, bit-reflected, modulo
/// the degree-32 polynomial `P`. A 128-bit lane `A` followed by `n` more
/// bits leaves the same remainder as `A · x^n mod P` in its place, and
/// splitting `A` into 64-bit halves makes that two 64×64 carry-less
/// products by precomputed constants, XORed into the lane `n` bits on.
/// Four independent lanes keep four multiplies in flight. In the
/// reflected domain the constants are `x^e mod P`, reflected and shifted
/// left by one, for the exponents below.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::update_sliced;
    use std::arch::x86_64::*;

    /// The shortest input [`super::Crc32::update`] folds: one 64-byte
    /// block, the four lanes' first load. The fold wins from there on a
    /// 2-core Xeon: 6 ns against the table's 25 at 64 bytes, 16 against
    /// 77 at 128. `K1` and `K2` join at 128 bytes, the first 4-lane step.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^(4·128+32)` and `x^(4·128-32)`: each of four lanes over the
    /// next 64 bytes.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// `x^(128+32)` and `x^(128-32)`: one lane over the next 16 bytes.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// `x^64`: the low 32 bits of the 96-bit remainder over the rest.
    const K5: i64 = 0x1_63CD_6124;
    /// `P` itself and the Barrett constant `μ = ⌊x^64 / P⌋`, reflected.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Advances `state` over `data` by folding, or returns `None` on a
    /// CPU without PCLMULQDQ and SSE4.1.
    pub(super) fn update(state: u32, data: &[u8]) -> Option<u32> {
        if !detected() {
            return None;
        }
        // SAFETY: PCLMULQDQ and SSE4.1 were detected just above, which is
        // the only precondition of calling a `#[target_feature(enable =
        // "pclmulqdq,sse4.1")]` function.
        Some(unsafe { fold(state, data) })
    }

    /// Whether this CPU can run the fold.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// 16 little-endian bytes as one lane, first byte lowest. Read as
    /// one `u128`, which compiles to a single unaligned load; two `u64`
    /// halves compiled to a load plus an insert and folded ~25% slower.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lane(bytes: &[u8; 16]) -> __m128i {
        let lane = u128::from_le_bytes(*bytes);
        _mm_set_epi64x((lane >> 64) as i64, lane as i64)
    }

    /// `acc` carried past the lane `next`: its low half times the low
    /// key, its high half times the high key, XORed into `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let high = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(next, _mm_xor_si128(low, high))
    }

    /// [`update`]'s kernel. An input shorter than one 64-byte block runs
    /// the table.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(state: u32, data: &[u8]) -> u32 {
        let (blocks, rest) = data.as_chunks::<64>();
        let Some((first, blocks)) = blocks.split_first() else {
            return update_sliced(state, data);
        };
        let lanes = |block: &[u8; 64]| {
            let (lanes, _) = block.as_chunks::<16>();
            [lane(&lanes[0]), lane(&lanes[1]), lane(&lanes[2]), lane(&lanes[3])]
        };
        let mut acc = lanes(first);
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in blocks {
            let next = lanes(block);
            for (acc, next) in acc.iter_mut().zip(next) {
                *acc = fold_into(*acc, next, k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x =
            fold_into(fold_into(fold_into(acc[0], acc[1], k3k4), acc[2], k3k4), acc[3], k3k4);
        let (tail_lanes, tail) = rest.as_chunks::<16>();
        for next in tail_lanes {
            x = fold_into(x, lane(next), k3k4);
        }

        // 128 bits to 96: the low half times K4 into the high half.
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
        // 96 bits to 64: the low 32 times K5 into the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // remainder is the high 32 bits of R ^ T2 (reflected domain).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        update_sliced(crc, tail)
    }
}

/// Computes the Adler-32 checksum of `data` as used by zlib.
///
/// # Examples
///
/// ```
/// // Adler-32 of the empty string is 1.
/// assert_eq!(fedsz_codec::checksum::adler32(&[]), 1);
/// ```
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    // Process in chunks small enough that the u32 accumulators cannot
    // overflow before the modulo reduction (5552 is the classic bound).
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += u32::from(byte);
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hint::black_box;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(&[]), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414FA339);
    }

    #[test]
    fn crc32_incremental_matches_oneshot() {
        let data = b"hello federated world";
        let mut inc = Crc32::new();
        inc.update(&data[..5]);
        inc.update(&data[5..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    /// The table-free definition: one polynomial step per bit.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// `len` bytes that no short period repeats in.
    fn bytes(len: usize, seed: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_add(seed).wrapping_mul(2654435761) >> 24) as u8)
            .collect()
    }

    /// Every length 0..=64 at every offset 0..8 into a buffer, in one
    /// call and split at every point: the word loop, its remainder and
    /// the seams between calls, all against the bit-at-a-time walk.
    #[test]
    fn crc32_sliced_matches_bytewise_at_every_length_and_alignment() {
        let buf = bytes(80, 0);
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                let want = crc32_bitwise(data);
                assert_eq!(crc32(data), want, "offset {offset}, len {len}");
                for split in 0..=len {
                    let mut inc = Crc32::new();
                    inc.update(&data[..split]);
                    inc.update(&data[split..]);
                    assert_eq!(inc.finish(), want, "offset {offset}, len {len}, split {split}");
                }
            }
        }
    }

    /// The fold as a state-advancing function, or `None` on a host that
    /// cannot run it, saying so.
    fn fold_kernel() -> Option<fn(u32, &[u8]) -> u32> {
        #[cfg(target_arch = "x86_64")]
        if clmul::detected() {
            return Some(|state, data| clmul::update(state, data).expect("detected"));
        }
        println!("skipped: this host has no PCLMULQDQ and SSE4.1, so the table is the only path");
        None
    }

    /// The fold kernel on its own and as `crc32` dispatches it, at every
    /// length 0..=600 (under one block, one block plus every tail, many
    /// blocks) and every offset 0..16 into the buffer. The 4-lane
    /// constants are used from 128 bytes, the others from 64, so a wrong
    /// one fails at every length past that, at one offset or more.
    #[test]
    fn fold_matches_the_bitwise_walk_at_every_length_and_alignment() {
        let fold = fold_kernel();
        let buf = bytes(616, 0);
        for offset in 0..16 {
            for len in 0..=600 {
                let data = &buf[offset..offset + len];
                let want = crc32_bitwise(data);
                assert_eq!(crc32(data), want, "offset {offset}, len {len}");
                if let Some(fold) = fold {
                    assert_eq!(!fold(!0, data), want, "fold, offset {offset}, len {len}");
                }
            }
        }
    }

    /// `Crc32::update` in two calls, split at every point, over lengths
    /// that cross the fold threshold: the seams between fold and table
    /// in either order, and a fold that starts from a state other than
    /// the initial one.
    #[test]
    fn update_split_at_every_point_across_the_fold_threshold() {
        let buf = bytes(300, 7);
        for len in 100..=300 {
            let data = &buf[..len];
            let want = crc32_bitwise(data);
            for split in 0..=len {
                let mut inc = Crc32::new();
                inc.update(&data[..split]);
                inc.update(&data[split..]);
                assert_eq!(inc.finish(), want, "len {len}, split {split}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random buffers up to 64 KiB fed in random pieces, through the
        /// dispatching `update` and through the fold kernel alone.
        #[test]
        fn random_buffers_in_random_pieces_match_the_bitwise_walk(
            data in proptest::collection::vec(any::<u8>(), 0..=65_536),
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let mut bounds: Vec<usize> =
                cuts.iter().map(|&c| usize::from(c) % (data.len() + 1)).chain([0, data.len()]).collect();
            bounds.sort_unstable();
            let pieces: Vec<&[u8]> = bounds.windows(2).map(|w| &data[w[0]..w[1]]).collect();
            let want = crc32_bitwise(&data);
            let mut inc = Crc32::new();
            for piece in &pieces {
                inc.update(piece);
            }
            prop_assert_eq!(inc.finish(), want);
            if let Some(fold) = fold_kernel() {
                prop_assert_eq!(!pieces.iter().fold(!0, |state, piece| fold(state, piece)), want);
            }
        }
    }

    /// The fold against the sliced table on one 1 MiB buffer
    /// ([`crate::speed::gate`]); release mode only, debug timings mean
    /// nothing. Over 10 runs on a 2-core Xeon the median read
    /// 14.7-16.1x (median 16.0x); floor 5x.
    #[test]
    #[ignore = "a timing ratio: run with --release -- --ignored"]
    fn clmul_crc32_is_5x_the_sliced_table() {
        let Some(fold) = fold_kernel() else { return };
        let data = bytes(1 << 20, 3);
        crate::speed::gate(
            "CRC-32 PCLMULQDQ fold against the slicing-by-8 table, 1 MiB",
            5.0,
            || fold(!0, black_box(&data)),
            || update_sliced(!0, black_box(&data)),
        );
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(&[]), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E60398);
    }

    #[test]
    fn adler32_large_input_no_overflow() {
        let data = vec![0xffu8; 1 << 16];
        // Must not panic and must be stable.
        assert_eq!(adler32(&data), adler32(&data));
    }
}
