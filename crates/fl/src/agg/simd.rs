//! The AVX2 kernel behind [`ExactAcc::add_slice`]: groups of four
//! elements, two groups per loop step, the same bits as the portable
//! loop.
//!
//! Baseline x86-64 (SSE2) has no per-lane variable shift, so the
//! portable loop builds each `i128` magnitude one element at a time;
//! AVX2's `vpsllvq`/`vpsrlvq` shift every 64-bit lane by its own count.
//! Per group of four:
//!
//! 1. `cvtps2pd` + `vmulpd` by the broadcast weight — the same correctly
//!    rounded product as the portable `mulsd`, no FMA;
//! 2. the biased-exponent window test: a group with any lane outside
//!    `[FAST_LO, FAST_HI]` (zeros, subnormal or sub-grid products, the
//!    `2^47` ceiling, non-finite terms) runs the portable loop instead,
//!    which keeps every range and finiteness panic where it was;
//! 3. the magnitude `m << s` (`m = frac | 2^52`, `s` in `[0, 74]`) as
//!    two words, `lo = m << s` and `hi = (m << 10) >> (74 - s)` — a
//!    count of 64 or more shifts to 0, which covers `s >= 64` in `lo`
//!    and `s <= 10` in `hi` without a branch;
//! 4. a two's-complement negate under the sign mask, borrowing into
//!    `hi` when `lo == 0`;
//! 5. the `i128` add with carry, on accumulators split into low and
//!    high words by `unpack{lo,hi}_epi64` and re-interleaved on store.
//!
//! Nothing is reduced across lanes: each accumulator receives exactly
//! the integer the portable loop would add, so no golden can move.
//! Signed overflow is OR-ed into a sticky mask and raised as the
//! portable loop's `"partial-sum overflow"` panic before the next
//! portable call and at the end of the slice, so both kernels panic
//! with the same first message.
//!
//! `unsafe` here is the vector loads and stores, each within one group
//! of four, and the one call into the `#[target_feature]` function;
//! every block states its precondition. The tests run both kernels on
//! the same inputs.

#![deny(clippy::undocumented_unsafe_blocks)]

use super::shard::{ExactAcc, FAST_HI, FAST_LO};
use std::arch::x86_64::*;

/// Elements per group: four `f64` products in one 256-bit vector, four
/// `i128` accumulators in two.
const LANES: usize = 4;

/// Runs the AVX2 kernel when the CPU has AVX2 and returns whether it
/// did; `false` leaves `accs` untouched for the portable loop.
///
/// # Panics
///
/// As [`ExactAcc::add_slice`].
pub(super) fn add_slice(accs: &mut [ExactAcc], values: &[f32], weight: f64) -> bool {
    if !is_x86_feature_detected!("avx2") {
        return false;
    }
    assert_eq!(accs.len(), values.len(), "kernel slice length mismatch");
    // SAFETY: AVX2 was detected just above, which is the only
    // precondition of calling a `#[target_feature(enable = "avx2")]`
    // function.
    unsafe { add_slice_avx2(accs, values, weight) };
    true
}

/// The portable loop over `values`, after raising the overflow an
/// earlier group recorded in the sticky mask — the panic the portable
/// loop would have hit first. Out of line, so the hot loop keeps its
/// registers.
#[cold]
#[inline(never)]
#[target_feature(enable = "avx2")]
fn fall_back(overflow: __m256i, accs: &mut [ExactAcc], values: &[f32], weight: f64) {
    if _mm256_movemask_pd(_mm256_castsi256_pd(overflow)) != 0 {
        panic!("partial-sum overflow");
    }
    ExactAcc::add_slice_portable(accs, values, weight);
}

/// The kernel itself, over equal-length slices (a longer side's excess
/// would go unfolded; [`add_slice`] asserts the lengths).
///
/// # Safety
///
/// The running CPU must support AVX2; that is the only reason a call
/// from code without the feature enabled is `unsafe`.
#[target_feature(enable = "avx2")]
fn add_slice_avx2(accs: &mut [ExactAcc], values: &[f32], weight: f64) {
    let zero = _mm256_setzero_si256();
    let w = _mm256_set1_pd(weight);
    let exponent = _mm256_set1_epi64x(0x7FF);
    let frac = _mm256_set1_epi64x((1 << 52) - 1);
    let implicit = _mm256_set1_epi64x(1 << 52);
    let fast_lo = _mm256_set1_epi64x(i64::from(FAST_LO));
    let widest = _mm256_set1_epi64x(i64::from(FAST_HI - FAST_LO));
    let sign_bit = _mm256_set1_epi64x(i64::MIN);
    let mut overflow = zero;

    let mut group = |acc4: &mut [ExactAcc; LANES], v4: &[f32; LANES]| {
        // SAFETY: `v4` is four `f32`s, the 16 bytes an unaligned 128-bit
        // load reads.
        let v = unsafe { _mm_loadu_ps(v4.as_ptr()) };
        // Lanes in accumulator order [0, 2, 1, 3], the order
        // `unpack{lo,hi}_epi64` leaves the two accumulator vectors in.
        let v = _mm_permute_ps::<0b11_01_10_00>(v);
        let bits = _mm256_castpd_si256(_mm256_mul_pd(_mm256_cvtps_pd(v), w));
        let shift =
            _mm256_sub_epi64(_mm256_and_si256(_mm256_srli_epi64::<52>(bits), exponent), fast_lo);
        let outside =
            _mm256_or_si256(_mm256_cmpgt_epi64(zero, shift), _mm256_cmpgt_epi64(shift, widest));
        if _mm256_movemask_pd(_mm256_castsi256_pd(outside)) != 0 {
            fall_back(overflow, acc4, v4, weight);
            return;
        }

        let m = _mm256_or_si256(_mm256_and_si256(bits, frac), implicit);
        let lo = _mm256_sllv_epi64(m, shift);
        // `m << 10` still fits a word (m < 2^53), so `hi = (m << 10) >>
        // (74 - s)` covers both `m >> (64 - s)` and `m << (s - 64)`.
        let hi = _mm256_srlv_epi64(_mm256_slli_epi64::<10>(m), _mm256_sub_epi64(widest, shift));
        // -(hi:lo) = (!hi + [lo == 0]) : -lo, under an all-ones mask.
        let sign = _mm256_cmpgt_epi64(zero, bits);
        let borrow = _mm256_and_si256(sign, _mm256_cmpeq_epi64(lo, zero));
        let lo = _mm256_sub_epi64(_mm256_xor_si256(lo, sign), sign);
        let hi = _mm256_sub_epi64(_mm256_xor_si256(hi, sign), borrow);

        let p = acc4.as_mut_ptr().cast::<__m256i>();
        // SAFETY: `acc4` is four `ExactAcc`s, which `repr(transparent)`
        // lays out as four `i128`s: the 64 bytes two unaligned 256-bit
        // loads read.
        let (a, b) = unsafe { (_mm256_loadu_si256(p), _mm256_loadu_si256(p.add(1))) };
        let acc_lo = _mm256_unpacklo_epi64(a, b);
        let acc_hi = _mm256_unpackhi_epi64(a, b);
        let sum_lo = _mm256_add_epi64(acc_lo, lo);
        // Unsigned `lo > sum_lo` is the carry out of the low word.
        let carry =
            _mm256_cmpgt_epi64(_mm256_xor_si256(lo, sign_bit), _mm256_xor_si256(sum_lo, sign_bit));
        let sum_hi = _mm256_sub_epi64(_mm256_add_epi64(acc_hi, hi), carry);
        // Signed overflow: both addends share a sign the sum lacks.
        overflow = _mm256_or_si256(
            overflow,
            _mm256_and_si256(_mm256_xor_si256(acc_hi, sum_hi), _mm256_xor_si256(hi, sum_hi)),
        );
        // SAFETY: the same 64 bytes of `acc4`, borrowed exclusively.
        unsafe {
            _mm256_storeu_si256(p, _mm256_unpacklo_epi64(sum_lo, sum_hi));
            _mm256_storeu_si256(p.add(1), _mm256_unpackhi_epi64(sum_lo, sum_hi));
        }
    };

    let (acc_groups, acc_tail) = accs.as_chunks_mut::<LANES>();
    let (value_groups, value_tail) = values.as_chunks::<LANES>();
    // Two groups per step: half the loop control per element.
    let mut acc_pairs = acc_groups.chunks_exact_mut(2);
    let mut value_pairs = value_groups.chunks_exact(2);
    for (acc, v) in acc_pairs.by_ref().zip(value_pairs.by_ref()) {
        group(&mut acc[0], &v[0]);
        group(&mut acc[1], &v[1]);
    }
    for (acc4, v4) in acc_pairs.into_remainder().iter_mut().zip(value_pairs.remainder()) {
        group(acc4, v4);
    }
    fall_back(overflow, acc_tail, value_tail, weight);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_tensor::rng::{normal, seeded};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Instant;

    fn avx2_or_skip() -> bool {
        let avx2 = is_x86_feature_detected!("avx2");
        if !avx2 {
            println!("skipped: this host has no AVX2, so the portable kernel is the only path");
        }
        avx2
    }

    fn accs(bits: &[i128]) -> Vec<ExactAcc> {
        bits.iter().map(|&b| ExactAcc::from_bits(b)).collect()
    }

    /// Both kernels from the same accumulators: `(avx2, portable)` bits.
    fn both(seed: &[ExactAcc], values: &[f32], weight: f64) -> (Vec<i128>, Vec<i128>) {
        let (mut avx2, mut portable) = (seed.to_vec(), seed.to_vec());
        assert!(add_slice(&mut avx2, values, weight), "the AVX2 kernel did not run");
        ExactAcc::add_slice_portable(&mut portable, values, weight);
        let bits = |accs: Vec<ExactAcc>| accs.into_iter().map(ExactAcc::to_bits).collect();
        (bits(avx2), bits(portable))
    }

    fn assert_same(seed: &[ExactAcc], values: &[f32], weight: f64) {
        let (avx2, portable) = both(seed, values, weight);
        assert_eq!(avx2, portable, "weight {weight:e}, values {values:?}");
    }

    /// `len` in-window terms for weights within `[2^-20, 2^20]`, both
    /// signs.
    fn fast(len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let v = 0.05 + 0.01 * (i % 13) as f32;
                if i % 2 == 1 {
                    -v
                } else {
                    v
                }
            })
            .collect()
    }

    /// `mantissa · 2^(s - 28)`: with weight 1 its quantization shift is `s`.
    fn at_shift(s: i32, mantissa: f32) -> f32 {
        mantissa * 2f32.powi(s - 28)
    }

    #[test]
    fn lengths_and_tails_match_the_portable_kernel() {
        if !avx2_or_skip() {
            return;
        }
        for len in (0..=9).chain([13, 14, 15, 101, 102, 103]) {
            let seed = accs(
                &(0..len as i128).map(|i| (i - 4) * 0x1234_5678_9abc_def1).collect::<Vec<_>>(),
            );
            for weight in [1.0, 1.0 / 3.0, -2.5, 7.25e-3] {
                assert_same(&seed, &fast(len), weight);
            }
        }
    }

    #[test]
    fn one_fallback_lane_in_each_position_matches() {
        if !avx2_or_skip() {
            return;
        }
        let just_under_2_47 = (2f64.powi(47) - 2f64.powi(23)) as f32;
        let specials = [
            0.0,
            -0.0,
            1.0e-45, // f32 subnormal
            -1.0e-45,
            2f32.powi(-90), // product below the 2^-80 grid
            2f32.powi(-80), // exactly the grid step
            -2f32.powi(-80),
            just_under_2_47, // the inclusive top of the fast window
            -just_under_2_47,
        ];
        for special in specials {
            for lane in 0..8 {
                let mut values = fast(11);
                values[lane] = special;
                for weight in [1.0, 0.5, -1.0] {
                    assert_same(&accs(&[7; 11]), &values, weight);
                }
            }
        }
    }

    #[test]
    fn shift_boundaries_and_low_word_borrows_match() {
        if !avx2_or_skip() {
            return;
        }
        // The high word's shift count drops below 64 at s = 11; s = 40
        // with mantissa 1 and every s >= 64 leave the low word 0, so a
        // negative term there borrows into the high word.
        for s in [0, 1, 10, 11, 40, 63, 64, 65, 74] {
            let values: Vec<f32> = [1.0, 1.5, 1.0 + f32::EPSILON, 2.0 - f32::EPSILON]
                .into_iter()
                .flat_map(|m| [at_shift(s, m), -at_shift(s, m)])
                .collect();
            for seed in [0, 1, -1, i128::from(u64::MAX), 1 << 64, -(1 << 64)] {
                assert_same(&accs(&[seed; 8]), &values, 1.0);
            }
        }
    }

    #[test]
    fn carries_and_borrows_run_both_ways() {
        if !avx2_or_skip() {
            return;
        }
        // Seeds across the 2^64 boundary and 2^124 inside ±2^127; terms
        // stay under 2^123 so none overflows.
        let seeds = [
            i128::from(u64::MAX),
            1 << 64,
            (1 << 64) - 5,
            -(1 << 64),
            -(1 << 64) + 1,
            -1,
            i128::MAX - (1 << 124),
            i128::MIN + (1 << 124),
        ];
        let values: Vec<f32> = [0, 20, 40, 64, 70]
            .into_iter()
            .flat_map(|s| [at_shift(s, 1.25), -at_shift(s, 1.75)])
            .collect();
        for seed in seeds {
            let mut avx2 = accs(&[seed; 10]);
            let mut portable = avx2.clone();
            for weight in [1.0, -1.0, -1.0, 1.0, -0.75] {
                assert!(add_slice(&mut avx2, &values, weight));
                ExactAcc::add_slice_portable(&mut portable, &values, weight);
                assert_eq!(avx2, portable, "seed {seed:#x}, weight {weight}");
            }
        }
    }

    /// A finite `f32` below `2^40` from random sign and mantissa bits
    /// and a biased exponent in `[0, 166]` (subnormals included).
    fn finite(bits: u32, exponent: u32) -> f32 {
        f32::from_bits((bits & 0x807F_FFFF) | (exponent << 23))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Any finite `f32` under `2^40` times a weight under `2^7` in
        /// magnitude stays below the `2^47` ceiling, so neither kernel
        /// panics and every bit can be compared.
        #[test]
        fn random_terms_match_the_portable_kernel(
            terms in vec((any::<u32>(), 0u32..167, any::<i64>()), 0..80),
            weight in prop_oneof![
                (1.0e-3f64..1.0e2),
                (-1.0e2f64..-1.0e-3),
                Just(1.0f64),
                Just(-1.0f64),
                Just(0.5f64),
            ],
        ) {
            if !avx2_or_skip() {
                return Ok(());
            }
            let values: Vec<f32> = terms.iter().map(|&(b, e, _)| finite(b, e)).collect();
            // Seeds up to 2^103 in magnitude: no add can overflow.
            let seed: Vec<ExactAcc> =
                terms.iter().map(|&(_, _, s)| ExactAcc::from_bits(i128::from(s) << 40)).collect();
            let (avx2, portable) = both(&seed, &values, weight);
            prop_assert_eq!(avx2, portable, "weight {:e}", weight);
        }
    }

    fn panic_message(run: impl FnOnce()) -> Option<String> {
        let payload = catch_unwind(AssertUnwindSafe(run)).err()?;
        let text = payload.downcast_ref::<&str>().map(|s| (*s).to_owned());
        Some(text.or_else(|| payload.downcast_ref::<String>().cloned()).unwrap_or_default())
    }

    /// Both kernels panic, with the same message, containing `expected`.
    fn assert_same_panic(seed: &[ExactAcc], values: &[f32], weight: f64, expected: &str) {
        let avx2 = panic_message(|| {
            add_slice(&mut seed.to_vec(), values, weight);
        });
        let portable =
            panic_message(|| ExactAcc::add_slice_portable(&mut seed.to_vec(), values, weight));
        assert_eq!(avx2, portable, "values {values:?}, weight {weight:e}");
        let message = portable.expect("the portable kernel panics");
        assert!(message.contains(expected), "{message:?} lacks {expected:?}");
    }

    #[test]
    fn both_kernels_panic_alike() {
        if !avx2_or_skip() {
            return;
        }
        let zeros = accs(&[0; 11]);
        for lane in [0, 3, 5, 10] {
            let with = |special: f32| {
                let mut values = fast(11);
                values[lane] = special;
                values
            };
            assert_same_panic(&zeros, &with(2f32.powi(47)), 1.0, "fixed-point range");
            assert_same_panic(&zeros, &with(1.0e30), 1.0e8, "fixed-point range");
            assert_same_panic(&zeros, &with(f32::INFINITY), 1.0, "non-finite");
            assert_same_panic(&zeros, &with(f32::NAN), 1.0, "non-finite");
            // A weight whose sign pushes this lane's term away from 0.
            let up = fast(11)[lane].signum().into();
            let mut extreme = zeros.clone();
            extreme[lane] = ExactAcc::from_bits(i128::MAX);
            assert_same_panic(&extreme, &fast(11), up, "partial-sum overflow");
            extreme[lane] = ExactAcc::from_bits(i128::MIN);
            assert_same_panic(&extreme, &fast(11), -up, "partial-sum overflow");
        }
        // A finite value whose weighted product is not (every later
        // lane's product is past the range ceiling).
        let mut values = fast(11);
        values[0] = 1.0e38;
        assert_same_panic(&zeros, &values, 1.0e300, "non-finite");
        // The first panic in element order wins on both: an overflow in
        // the first group before a range panic in the second or in the
        // tail, and a range panic before an overflow.
        let mut seed = zeros.clone();
        seed[0] = ExactAcc::from_bits(i128::MAX);
        for late in [6, 9] {
            let mut values = fast(11);
            values[late] = 1.0e30;
            assert_same_panic(&seed, &values, 1.0, "partial-sum overflow");
        }
        let mut seed = zeros;
        seed[6] = ExactAcc::from_bits(i128::MAX);
        let mut values = fast(11);
        values[2] = 1.0e30;
        assert_same_panic(&seed, &values, 1.0, "fixed-point range");
    }

    /// CI's `codec-smoke` job runs this in release mode; debug timings
    /// mean nothing. A ratio of the two kernels on one leaf — 128
    /// tiny-AlexNet-sized updates (72,042 elements) folded into one
    /// accumulator slice — not a wall-clock floor. Measured ~2x.
    #[test]
    #[ignore = "a timing ratio: run with --release -- --ignored"]
    fn avx2_add_slice_is_1_5x_the_portable_kernel() {
        if !avx2_or_skip() {
            return;
        }
        const ELEMS: usize = 72_042;
        let rng = &mut seeded(25);
        let updates: Vec<Vec<f32>> =
            (0..8).map(|_| (0..ELEMS).map(|_| 0.05 * normal(rng)).collect()).collect();
        let mut sum = vec![ExactAcc::default(); ELEMS];
        let mut leaf = |kernel: fn(&mut [ExactAcc], &[f32], f64)| {
            let t0 = Instant::now();
            for client in 0..128 {
                kernel(&mut sum, &updates[client % updates.len()], 1.0 + (client % 7) as f64);
            }
            t0.elapsed().as_secs_f64()
        };
        let mut best = |kernel: fn(&mut [ExactAcc], &[f32], f64)| {
            (0..5).map(|_| leaf(kernel)).fold(f64::INFINITY, f64::min)
        };
        let avx2 = best(|accs, values, weight| assert!(add_slice(accs, values, weight)));
        let portable = best(ExactAcc::add_slice_portable);
        let melems = |secs: f64| (128 * ELEMS) as f64 / secs / 1e6;
        println!(
            "AVX2 {:.0} Melem/s, portable {:.0} Melem/s: {:.2}x",
            melems(avx2),
            melems(portable),
            portable / avx2
        );
        assert!(
            portable >= 1.5 * avx2,
            "AVX2 kernel only {:.2}x the portable one",
            portable / avx2
        );
    }
}
