//! The wide kernels behind [`ExactAcc::add_slice`]: eight lanes under
//! AVX-512, four under AVX2, two groups per loop step, the same bits as
//! the portable loop. [`add_slice`] runs the widest kernel the CPU has,
//! as `is_x86_feature_detected!` reports it.
//!
//! Baseline x86-64 (SSE2) has no per-lane variable shift, so the
//! portable loop builds each `i128` magnitude one element at a time;
//! AVX2's and AVX-512's `vpsllvq`/`vpsrlvq` shift every 64-bit lane by
//! its own count. Per group:
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
//!    Those unpacks work within 128-bit lanes, so the input is loaded in
//!    the order they leave the accumulators in: `[0, 2, 1, 3]` for four
//!    lanes, `[0, 4, 1, 5, 2, 6, 3, 7]` for eight.
//!
//! The AVX-512 kernel does the same arithmetic with its per-lane
//! conditions in mask registers: the window test is one unsigned
//! compare, `shift > 74` (a biased exponent below `FAST_LO` wraps past
//! it), and the sign negate, the borrow and the carry are masked adds
//! and subtracts. AVX2 has neither masks nor unsigned compares, so it
//! spends two signed compares on the window and an all-ones lane mask
//! on each of the others.
//!
//! Nothing is reduced across lanes: each accumulator receives exactly
//! the integer the portable loop would add, so no golden can move.
//! Signed overflow is OR-ed into a sticky flag and raised as the
//! portable loop's `"partial-sum overflow"` panic before the next
//! portable call and at the end of the slice, so every kernel panics
//! with the same first message.
//!
//! `unsafe` here is the vector loads and stores, each within one group,
//! and the one call into each `#[target_feature]` function; every block
//! states its precondition. The tests run every kernel the host
//! supports against the portable loop on the same inputs.

#![deny(clippy::undocumented_unsafe_blocks)]

use super::shard::{ExactAcc, FAST_HI, FAST_LO};
use std::arch::x86_64::*;

/// The wide kernels, in the order [`add_slice`] tries them: widest
/// first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// Groups of eight: eight `f64` products in one 512-bit vector,
    /// eight `i128` accumulators in two.
    Avx512,
    /// Groups of four: four products in one 256-bit vector, four
    /// accumulators in two.
    Avx2,
}

impl Kernel {
    const WIDEST_FIRST: [Kernel; 2] = [Kernel::Avx512, Kernel::Avx2];

    /// The CPU features the kernel is compiled for.
    #[cfg(test)]
    fn features(self) -> &'static str {
        match self {
            Kernel::Avx512 => "avx512f and avx512dq",
            Kernel::Avx2 => "avx2",
        }
    }

    fn detected(self) -> bool {
        match self {
            Kernel::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
            }
            Kernel::Avx2 => is_x86_feature_detected!("avx2"),
        }
    }

    /// Runs the kernel when the CPU has its features and returns whether
    /// it did; `false` leaves `accs` untouched.
    ///
    /// # Panics
    ///
    /// As [`ExactAcc::add_slice`].
    fn run(self, accs: &mut [ExactAcc], values: &[f32], weight: f64) -> bool {
        if !self.detected() {
            return false;
        }
        assert_eq!(accs.len(), values.len(), "kernel slice length mismatch");
        match self {
            // SAFETY: AVX-512 F and DQ were detected just above, which is
            // the only precondition of calling a `#[target_feature(enable
            // = "avx512f,avx512dq")]` function (the AVX2 it implies comes
            // with every AVX-512 CPU).
            Kernel::Avx512 => unsafe { add_slice_avx512(accs, values, weight) },
            // SAFETY: AVX2 was detected just above, which is the only
            // precondition of calling a `#[target_feature(enable =
            // "avx2")]` function.
            Kernel::Avx2 => unsafe { add_slice_avx2(accs, values, weight) },
        }
        true
    }
}

/// Runs the widest kernel the CPU has and returns whether one ran;
/// `false` leaves `accs` untouched for the portable loop.
///
/// # Panics
///
/// As [`ExactAcc::add_slice`].
pub(super) fn add_slice(accs: &mut [ExactAcc], values: &[f32], weight: f64) -> bool {
    Kernel::WIDEST_FIRST.into_iter().any(|kernel| kernel.run(accs, values, weight))
}

/// The portable loop over `values`, after raising the overflow an
/// earlier group recorded — the panic the portable loop would have hit
/// first. Out of line, so the hot loops keep their registers.
#[cold]
#[inline(never)]
fn fall_back(overflowed: bool, accs: &mut [ExactAcc], values: &[f32], weight: f64) {
    if overflowed {
        panic!("partial-sum overflow");
    }
    ExactAcc::add_slice_portable(accs, values, weight);
}

/// Calls `group` on each whole group of `N` lanes, two groups per step
/// (half the loop control per element), and returns the tails shorter
/// than a group.
#[inline(always)]
fn for_each_group<'a, const N: usize>(
    accs: &'a mut [ExactAcc],
    values: &'a [f32],
    mut group: impl FnMut(&mut [ExactAcc; N], &[f32; N]),
) -> (&'a mut [ExactAcc], &'a [f32]) {
    let (acc_groups, acc_tail) = accs.as_chunks_mut::<N>();
    let (value_groups, value_tail) = values.as_chunks::<N>();
    let mut acc_pairs = acc_groups.chunks_exact_mut(2);
    let mut value_pairs = value_groups.chunks_exact(2);
    for (acc, v) in acc_pairs.by_ref().zip(value_pairs.by_ref()) {
        group(&mut acc[0], &v[0]);
        group(&mut acc[1], &v[1]);
    }
    for (acc, v) in acc_pairs.into_remainder().iter_mut().zip(value_pairs.remainder()) {
        group(acc, v);
    }
    (acc_tail, value_tail)
}

/// The eight-lane kernel, over equal-length slices (a longer side's
/// excess would go unfolded; [`Kernel::run`] asserts the lengths).
///
/// # Safety
///
/// The running CPU must support AVX-512 F and DQ; that is the only
/// reason a call from code without the features enabled is `unsafe`.
#[target_feature(enable = "avx512f,avx512dq")]
fn add_slice_avx512(accs: &mut [ExactAcc], values: &[f32], weight: f64) {
    let zero = _mm512_setzero_si512();
    let one = _mm512_set1_epi64(1);
    let all_ones = _mm512_set1_epi64(-1);
    let w = _mm512_set1_pd(weight);
    let exponent = _mm512_set1_epi64(0x7FF);
    let frac = _mm512_set1_epi64((1 << 52) - 1);
    let implicit = _mm512_set1_epi64(1 << 52);
    let fast_lo = _mm512_set1_epi64(i64::from(FAST_LO));
    let widest = _mm512_set1_epi64(i64::from(FAST_HI - FAST_LO));
    // Lanes in accumulator order [0, 4, 1, 5, 2, 6, 3, 7], the order
    // `unpack{lo,hi}_epi64` leaves the two accumulator vectors in.
    let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    let mut overflow: __mmask8 = 0;

    let (acc_tail, value_tail) =
        for_each_group(accs, values, |acc8: &mut [ExactAcc; 8], v8: &[f32; 8]| {
            // SAFETY: `v8` is eight `f32`s, the 32 bytes an unaligned
            // 256-bit load reads.
            let v = _mm256_permutevar8x32_ps(unsafe { _mm256_loadu_ps(v8.as_ptr()) }, order);
            let bits = _mm512_castpd_si512(_mm512_mul_pd(_mm512_cvtps_pd(v), w));
            let shift = _mm512_sub_epi64(
                _mm512_and_si512(_mm512_srli_epi64::<52>(bits), exponent),
                fast_lo,
            );
            if _mm512_cmpgt_epu64_mask(shift, widest) != 0 {
                fall_back(overflow != 0, acc8, v8, weight);
                return;
            }

            let m = _mm512_or_si512(_mm512_and_si512(bits, frac), implicit);
            let lo = _mm512_sllv_epi64(m, shift);
            let hi = _mm512_srlv_epi64(_mm512_slli_epi64::<10>(m), _mm512_sub_epi64(widest, shift));
            // -(hi:lo) = (!hi + [lo == 0]) : -lo in the lanes of the sign
            // mask, where `!hi` is `-1 - hi`.
            let sign = _mm512_movepi64_mask(bits);
            let borrow = _mm512_mask_cmpeq_epi64_mask(sign, lo, zero);
            let lo = _mm512_mask_sub_epi64(lo, sign, zero, lo);
            let hi = _mm512_mask_sub_epi64(hi, sign, all_ones, hi);
            let hi = _mm512_mask_add_epi64(hi, borrow, hi, one);

            let p = acc8.as_mut_ptr().cast::<__m512i>();
            // SAFETY: `acc8` is eight `ExactAcc`s, which `repr(transparent)`
            // lays out as eight `i128`s: the 128 bytes two unaligned 512-bit
            // loads read.
            let (a, b) = unsafe { (_mm512_loadu_si512(p), _mm512_loadu_si512(p.add(1))) };
            let acc_lo = _mm512_unpacklo_epi64(a, b);
            let acc_hi = _mm512_unpackhi_epi64(a, b);
            let sum_lo = _mm512_add_epi64(acc_lo, lo);
            // Unsigned `lo > sum_lo` is the carry out of the low word.
            let carry = _mm512_cmpgt_epu64_mask(lo, sum_lo);
            let sum_hi = _mm512_add_epi64(acc_hi, hi);
            let sum_hi = _mm512_mask_add_epi64(sum_hi, carry, sum_hi, one);
            // Signed overflow: both addends share a sign the sum lacks.
            overflow |= _mm512_movepi64_mask(_mm512_and_si512(
                _mm512_xor_si512(acc_hi, sum_hi),
                _mm512_xor_si512(hi, sum_hi),
            ));
            // SAFETY: the same 128 bytes of `acc8`, borrowed exclusively.
            unsafe {
                _mm512_storeu_si512(p, _mm512_unpacklo_epi64(sum_lo, sum_hi));
                _mm512_storeu_si512(p.add(1), _mm512_unpackhi_epi64(sum_lo, sum_hi));
            }
        });
    fall_back(overflow != 0, acc_tail, value_tail, weight);
}

/// The four-lane kernel, over equal-length slices (a longer side's
/// excess would go unfolded; [`Kernel::run`] asserts the lengths).
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
    let overflowed = |overflow| _mm256_movemask_pd(_mm256_castsi256_pd(overflow)) != 0;

    let (acc_tail, value_tail) =
        for_each_group(accs, values, |acc4: &mut [ExactAcc; 4], v4: &[f32; 4]| {
            // SAFETY: `v4` is four `f32`s, the 16 bytes an unaligned 128-bit
            // load reads.
            let v = unsafe { _mm_loadu_ps(v4.as_ptr()) };
            // Lanes in accumulator order [0, 2, 1, 3], the order
            // `unpack{lo,hi}_epi64` leaves the two accumulator vectors in.
            let v = _mm_permute_ps::<0b11_01_10_00>(v);
            let bits = _mm256_castpd_si256(_mm256_mul_pd(_mm256_cvtps_pd(v), w));
            let shift = _mm256_sub_epi64(
                _mm256_and_si256(_mm256_srli_epi64::<52>(bits), exponent),
                fast_lo,
            );
            let outside =
                _mm256_or_si256(_mm256_cmpgt_epi64(zero, shift), _mm256_cmpgt_epi64(shift, widest));
            if _mm256_movemask_pd(_mm256_castsi256_pd(outside)) != 0 {
                fall_back(overflowed(overflow), acc4, v4, weight);
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
            let carry = _mm256_cmpgt_epi64(
                _mm256_xor_si256(lo, sign_bit),
                _mm256_xor_si256(sum_lo, sign_bit),
            );
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
        });
    fall_back(overflowed(overflow), acc_tail, value_tail, weight);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_codec::speed::gate;
    use fedsz_tensor::rng::{normal, seeded};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Whether this host can run `kernel`, saying why not when it cannot.
    fn runs(kernel: Kernel) -> bool {
        let detected = kernel.detected();
        if !detected {
            println!("skipped the {kernel:?} kernel: this host lacks {}", kernel.features());
        }
        detected
    }

    /// Every wide kernel this host can run: each oracle test checks
    /// each of them against the portable loop.
    fn kernels() -> Vec<Kernel> {
        Kernel::WIDEST_FIRST.into_iter().filter(|&kernel| runs(kernel)).collect()
    }

    fn accs(bits: &[i128]) -> Vec<ExactAcc> {
        bits.iter().map(|&b| ExactAcc::from_bits(b)).collect()
    }

    /// `kernel` and the portable loop from the same accumulators:
    /// `(wide, portable)` bits.
    fn both(
        kernel: Kernel,
        seed: &[ExactAcc],
        values: &[f32],
        weight: f64,
    ) -> (Vec<i128>, Vec<i128>) {
        let (mut wide, mut portable) = (seed.to_vec(), seed.to_vec());
        assert!(kernel.run(&mut wide, values, weight), "the {kernel:?} kernel did not run");
        ExactAcc::add_slice_portable(&mut portable, values, weight);
        let bits = |accs: Vec<ExactAcc>| accs.into_iter().map(ExactAcc::to_bits).collect();
        (bits(wide), bits(portable))
    }

    fn assert_same(kernel: Kernel, seed: &[ExactAcc], values: &[f32], weight: f64) {
        let (wide, portable) = both(kernel, seed, values, weight);
        assert_eq!(wide, portable, "{kernel:?}, weight {weight:e}, values {values:?}");
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
        for kernel in kernels() {
            // Every tail and pair remainder of both widths, then longer.
            for len in (0..=33).chain([101, 102, 103]) {
                let seed = accs(
                    &(0..len as i128).map(|i| (i - 4) * 0x1234_5678_9abc_def1).collect::<Vec<_>>(),
                );
                for weight in [1.0, 1.0 / 3.0, -2.5, 7.25e-3] {
                    assert_same(kernel, &seed, &fast(len), weight);
                }
            }
        }
    }

    #[test]
    fn one_fallback_lane_in_each_position_matches() {
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
        for kernel in kernels() {
            for special in specials {
                // Every lane of both groups in one step of the wider
                // kernel, and the tail after them.
                for lane in 0..19 {
                    let mut values = fast(19);
                    values[lane] = special;
                    for weight in [1.0, 0.5, -1.0] {
                        assert_same(kernel, &accs(&[7; 19]), &values, weight);
                    }
                }
            }
        }
    }

    #[test]
    fn shift_boundaries_and_low_word_borrows_match() {
        // The high word's shift count drops below 64 at s = 11; s = 40
        // with mantissa 1 and every s >= 64 leave the low word 0, so a
        // negative term there borrows into the high word.
        for kernel in kernels() {
            for s in [0, 1, 10, 11, 40, 63, 64, 65, 74] {
                let values: Vec<f32> = [1.0, 1.5, 1.0 + f32::EPSILON, 2.0 - f32::EPSILON]
                    .into_iter()
                    .flat_map(|m| [at_shift(s, m), -at_shift(s, m)])
                    .collect();
                for seed in [0, 1, -1, i128::from(u64::MAX), 1 << 64, -(1 << 64)] {
                    assert_same(kernel, &accs(&[seed; 8]), &values, 1.0);
                }
            }
        }
    }

    #[test]
    fn carries_and_borrows_run_both_ways() {
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
        for kernel in kernels() {
            for seed in seeds {
                let mut wide = accs(&[seed; 10]);
                let mut portable = wide.clone();
                for weight in [1.0, -1.0, -1.0, 1.0, -0.75] {
                    assert!(kernel.run(&mut wide, &values, weight));
                    ExactAcc::add_slice_portable(&mut portable, &values, weight);
                    assert_eq!(wide, portable, "{kernel:?}, seed {seed:#x}, weight {weight}");
                }
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
        /// magnitude stays below the `2^47` ceiling, so no kernel
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
            let values: Vec<f32> = terms.iter().map(|&(b, e, _)| finite(b, e)).collect();
            // Seeds up to 2^103 in magnitude: no add can overflow.
            let seed: Vec<ExactAcc> =
                terms.iter().map(|&(_, _, s)| ExactAcc::from_bits(i128::from(s) << 40)).collect();
            for kernel in kernels() {
                let (wide, portable) = both(kernel, &seed, &values, weight);
                prop_assert_eq!(wide, portable, "{:?}, weight {:e}", kernel, weight);
            }
        }
    }

    fn panic_message(run: impl FnOnce()) -> Option<String> {
        let payload = catch_unwind(AssertUnwindSafe(run)).err()?;
        let text = payload.downcast_ref::<&str>().map(|s| (*s).to_owned());
        Some(text.or_else(|| payload.downcast_ref::<String>().cloned()).unwrap_or_default())
    }

    /// `kernel` and the portable loop both panic, with the same message,
    /// containing `expected`.
    fn assert_same_panic(
        kernel: Kernel,
        seed: &[ExactAcc],
        values: &[f32],
        weight: f64,
        expected: &str,
    ) {
        let wide = panic_message(|| {
            kernel.run(&mut seed.to_vec(), values, weight);
        });
        let portable =
            panic_message(|| ExactAcc::add_slice_portable(&mut seed.to_vec(), values, weight));
        assert_eq!(wide, portable, "{kernel:?}, values {values:?}, weight {weight:e}");
        let message = portable.expect("the portable kernel panics");
        assert!(message.contains(expected), "{message:?} lacks {expected:?}");
    }

    #[test]
    fn both_kernels_panic_alike() {
        const LEN: usize = 19;
        let zeros = accs(&[0; LEN]);
        for kernel in kernels() {
            for lane in [0, 3, 5, 10, 13, 18] {
                let with = |special: f32| {
                    let mut values = fast(LEN);
                    values[lane] = special;
                    values
                };
                assert_same_panic(kernel, &zeros, &with(2f32.powi(47)), 1.0, "fixed-point range");
                assert_same_panic(kernel, &zeros, &with(1.0e30), 1.0e8, "fixed-point range");
                assert_same_panic(kernel, &zeros, &with(f32::INFINITY), 1.0, "non-finite");
                assert_same_panic(kernel, &zeros, &with(f32::NAN), 1.0, "non-finite");
                // A weight whose sign pushes this lane's term away from 0.
                let up = fast(LEN)[lane].signum().into();
                let mut extreme = zeros.clone();
                extreme[lane] = ExactAcc::from_bits(i128::MAX);
                assert_same_panic(kernel, &extreme, &fast(LEN), up, "partial-sum overflow");
                extreme[lane] = ExactAcc::from_bits(i128::MIN);
                assert_same_panic(kernel, &extreme, &fast(LEN), -up, "partial-sum overflow");
            }
            // A finite value whose weighted product is not (every later
            // lane's product is past the range ceiling).
            let mut values = fast(LEN);
            values[0] = 1.0e38;
            assert_same_panic(kernel, &zeros, &values, 1.0e300, "non-finite");
            // The first panic in element order wins on every kernel: an
            // overflow in the first group before a range panic later in
            // that group, in a later group or in the tail, and a range
            // panic before an overflow in the same or a later group.
            let mut seed = zeros.clone();
            seed[0] = ExactAcc::from_bits(i128::MAX);
            for late in [6, 9, 12, 18] {
                let mut values = fast(LEN);
                values[late] = 1.0e30;
                assert_same_panic(kernel, &seed, &values, 1.0, "partial-sum overflow");
            }
            for late in [6, 12] {
                let mut seed = zeros.clone();
                seed[late] = ExactAcc::from_bits(i128::MAX);
                let mut values = fast(LEN);
                values[2] = 1.0e30;
                assert_same_panic(kernel, &seed, &values, 1.0, "fixed-point range");
            }
        }
    }

    /// One fold of a leaf through `kernel`: 128 tiny-AlexNet-sized
    /// updates (72,042 elements) into one accumulator slice.
    fn leaf(kernel: impl Fn(&mut [ExactAcc], &[f32], f64)) -> impl FnMut() {
        const ELEMS: usize = 72_042;
        let rng = &mut seeded(25);
        let updates: Vec<Vec<f32>> =
            (0..8).map(|_| (0..ELEMS).map(|_| 0.05 * normal(rng)).collect()).collect();
        let mut sum = vec![ExactAcc::default(); ELEMS];
        move || {
            for client in 0..128 {
                kernel(&mut sum, &updates[client % updates.len()], 1.0 + (client % 7) as f64);
            }
        }
    }

    /// `kernel` on the leaf, asserting that it runs.
    fn leaf_of(kernel: Kernel) -> impl FnMut() {
        leaf(move |accs, values, weight| assert!(kernel.run(accs, values, weight)))
    }

    /// A ratio of the two kernels on one leaf ([`fedsz_codec::speed::gate`]),
    /// not a wall-clock floor; release mode only. Over 10 runs on a
    /// 2-core Xeon the median read 2.10-2.22x (median 2.14x); floor 1.5x.
    #[test]
    #[ignore = "a timing ratio: run with --release -- --ignored"]
    fn avx2_add_slice_is_1_5x_the_portable_kernel() {
        if runs(Kernel::Avx2) {
            let name = "add_slice leaf, AVX2 kernel against the portable loop";
            gate(name, 1.5, leaf_of(Kernel::Avx2), leaf(ExactAcc::add_slice_portable));
        }
    }

    /// As above, for the eight-lane kernel against the four-lane one on
    /// the same leaf. Over 10 runs on a 2-core Xeon with AVX-512
    /// F/DQ/BW/VL the median read 1.52-1.58x (median 1.56x); floor 1.2x.
    #[test]
    #[ignore = "a timing ratio: run with --release -- --ignored"]
    fn avx512_add_slice_is_1_2x_the_avx2_kernel() {
        if runs(Kernel::Avx512) {
            let name = "add_slice leaf, AVX-512 kernel against the AVX2 one";
            gate(name, 1.2, leaf_of(Kernel::Avx512), leaf_of(Kernel::Avx2));
        }
    }
}
