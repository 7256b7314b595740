//! Linear-scale error-bounded quantizer, the heart of the SZ compressors.
//!
//! Given an absolute error bound `eb`, prediction residuals are quantized
//! into bins of width `2*eb`. Reconstructing the bin center therefore
//! deviates from the true value by at most `eb`. Values whose residual
//! falls outside the quantizer's radius are flagged *unpredictable* (code
//! 0) and stored verbatim — exactly the scheme of SZ2/SZ3.

/// Result of quantizing one value against its prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Quantized {
    /// In-range residual: the code to entropy-encode and the value the
    /// decoder will reconstruct (which the encoder must also use as the
    /// basis for subsequent predictions).
    Code {
        /// Huffman symbol, in `1..capacity`.
        code: u16,
        /// Value the decoder reconstructs for this element.
        reconstructed: f32,
    },
    /// Out-of-range residual: stored losslessly as the original bits.
    Unpredictable(f32),
}

/// Error-bounded linear quantizer with a fixed code capacity.
///
/// # Examples
///
/// ```
/// use fedsz_codec::quantizer::{Quantized, Quantizer};
///
/// let q = Quantizer::new(0.01);
/// match q.quantize(1.0, 1.015) {
///     Quantized::Code { reconstructed, .. } => {
///         assert!((reconstructed - 1.015).abs() <= 0.01 + 1e-6);
///     }
///     Quantized::Unpredictable(_) => unreachable!("residual is tiny"),
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    eb: f32,
    radius: i32,
}

impl Quantizer {
    /// Default code radius: codes span `1..=2*radius-1`, fitting in `u16`.
    pub const DEFAULT_RADIUS: i32 = 32_768;

    /// Creates a quantizer for absolute error bound `eb` with the default
    /// radius.
    ///
    /// # Panics
    ///
    /// Panics if `eb` is not finite and positive.
    pub fn new(eb: f32) -> Self {
        Self::with_radius(eb, Self::DEFAULT_RADIUS)
    }

    /// Creates a quantizer with an explicit radius (number of bins on each
    /// side of the zero-residual code).
    ///
    /// # Panics
    ///
    /// Panics if `eb` is not finite/positive or `radius` is not in
    /// `2..=32768`.
    pub fn with_radius(eb: f32, radius: i32) -> Self {
        assert!(eb.is_finite() && eb > 0.0, "error bound must be positive and finite");
        assert!((2..=32_768).contains(&radius), "radius must be in 2..=32768");
        Self { eb, radius }
    }

    /// The absolute error bound this quantizer enforces.
    pub fn error_bound(&self) -> f32 {
        self.eb
    }

    /// Code reserved for unpredictable values.
    pub const UNPREDICTABLE: u16 = 0;

    /// Quantizes `actual` against prediction `pred`.
    ///
    /// Returns either a code plus the exact reconstruction the decoder
    /// will produce, or [`Quantized::Unpredictable`] when the residual
    /// exceeds the representable range *or* floating-point rounding would
    /// break the bound.
    #[inline]
    pub fn quantize(&self, pred: f32, actual: f32) -> Quantized {
        let width = f64::from(self.eb) * 2.0;
        let x = (f64::from(actual) - f64::from(pred)) / width;
        // Round half away from zero without a libm call: truncate
        // through an integer (exact whenever `x` is inside the radius;
        // the cast saturates, and maps NaN to 0, outside it) and step
        // by one where the dropped fraction reaches a half.
        let whole = x as i32;
        let frac = x - f64::from(whole);
        let q = whole.wrapping_add(i32::from(frac >= 0.5)).wrapping_sub(i32::from(frac <= -0.5));
        // NaN fails the first test; a residual that rounds up to the
        // radius itself fails the second.
        if !(x.abs() < f64::from(self.radius) && q.unsigned_abs() < self.radius as u32) {
            return Quantized::Unpredictable(actual);
        }
        // `copysign` keeps the zero bin's sign, as `f64::round` does.
        let reconstructed = (f64::from(pred) + f64::from(q).copysign(x) * width) as f32;
        // Guard against f32 rounding pushing the reconstruction out of
        // bounds (can happen when |pred| >> eb).
        if (f64::from(reconstructed) - f64::from(actual)).abs() > f64::from(self.eb) {
            return Quantized::Unpredictable(actual);
        }
        let code = (q + self.radius) as u16;
        debug_assert_ne!(code, Self::UNPREDICTABLE);
        Quantized::Code { code, reconstructed }
    }

    /// Quantizes `actual[i]` against `pred[i]` for a whole run of
    /// elements whose predictions do not depend on each other's
    /// reconstructions. Every step is plain `f64` lane arithmetic with
    /// no branch and no integer conversion, so the loop vectorizes.
    ///
    /// On success, fills `codes` with exactly the codes
    /// [`Quantizer::quantize`] would return one by one and returns the
    /// reconstruction of the last element. Returns `None`, leaving
    /// `codes` unspecified, when the run cannot be served that way and
    /// the caller must redo it element by element: some element is
    /// unpredictable, some residual sits on a rounding tie (where this
    /// routine's round-to-even would differ from `quantize`'s
    /// round-half-away) or within 2^-50 of one or of the radius,
    /// relative to itself (where its reciprocal scaling could differ from
    /// `quantize`'s division), or the run is empty.
    ///
    /// Always inlined, so that a caller's AVX2 copy ([`crate::simd`])
    /// holds an AVX2 copy of this loop.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length.
    #[inline(always)]
    pub fn quantize_batch(&self, pred: &[f32], actual: &[f32], codes: &mut [u16]) -> Option<f32> {
        assert!(pred.len() == actual.len() && actual.len() == codes.len(), "length mismatch");
        // Adding and subtracting 1.5 * 2^52 rounds a double of magnitude
        // below 2^51 to the nearest integer, ties to even.
        const ROUND: f64 = 6_755_399_441_055_744.0;
        // An integer `k` in `0..2^16` added to 2^52 lands in the low
        // mantissa bits, where `to_bits` reads it back.
        const LOW_BITS: f64 = 4_503_599_627_370_496.0;
        // A residual is scaled by the reciprocal of the bin width, not
        // divided by it: the product is within 2^-51 of the quotient
        // `quantize` rounds, relative to either, so the two round to the
        // same bin unless `x` lies within that of a half or of the
        // radius, and such a run is redone element by element.
        const GUARD: f64 = 1.0 / (1u64 << 50) as f64;
        let (eb, width, radius) =
            (f64::from(self.eb), f64::from(self.eb) * 2.0, f64::from(self.radius));
        let scale = 1.0 / width;
        let mut servable = true;
        let mut last = None;
        for ((&pred, &actual), code) in pred.iter().zip(actual).zip(codes.iter_mut()) {
            let (pred, actual) = (f64::from(pred), f64::from(actual));
            let x = (actual - pred) * scale;
            // Out-of-range `x` (NaN included) rounds to garbage here and
            // is caught by the range test below.
            let q = ((x + ROUND) - ROUND).copysign(x);
            let reconstructed = (pred + q * width) as f32;
            let slack = x.abs() * GUARD;
            servable &= (x - q).abs() + slack < 0.5
                && x.abs() + slack < radius
                && q.abs() < radius
                && (f64::from(reconstructed) - actual).abs() <= eb;
            *code = (q + (radius + LOW_BITS)).to_bits() as u16;
            last = Some(reconstructed);
        }
        last.filter(|_| servable)
    }

    /// Reconstructs the value for `code` (which must not be
    /// [`Quantizer::UNPREDICTABLE`]) given the same prediction the encoder
    /// used.
    #[inline]
    pub fn dequantize(&self, pred: f32, code: u16) -> f32 {
        debug_assert_ne!(code, Self::UNPREDICTABLE, "unpredictable codes carry no residual");
        let q = i32::from(code) - self.radius;
        (f64::from(pred) + f64::from(q) * f64::from(self.eb) * 2.0) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_within_bound() {
        let q = Quantizer::new(0.05);
        let pred = 0.3f32;
        for actual in [-1.0f32, 0.0, 0.29, 0.301, 0.35, 1.5] {
            match q.quantize(pred, actual) {
                Quantized::Code { code, reconstructed } => {
                    assert!((reconstructed - actual).abs() <= 0.05 + 1e-6);
                    let decoded = q.dequantize(pred, code);
                    assert_eq!(decoded, reconstructed);
                }
                Quantized::Unpredictable(v) => assert_eq!(v, actual),
            }
        }
    }

    #[test]
    fn zero_residual_maps_to_radius_code() {
        let q = Quantizer::new(0.01);
        match q.quantize(1.0, 1.0) {
            Quantized::Code { code, reconstructed } => {
                assert_eq!(code, Quantizer::DEFAULT_RADIUS as u16);
                assert_eq!(reconstructed, 1.0);
            }
            Quantized::Unpredictable(_) => panic!("zero residual must be codable"),
        }
    }

    #[test]
    fn large_residual_is_unpredictable() {
        let q = Quantizer::with_radius(1e-6, 16);
        assert!(matches!(q.quantize(0.0, 1.0), Quantized::Unpredictable(_)));
    }

    #[test]
    fn huge_magnitude_rounding_guard() {
        // pred is so large that pred + q*2eb rounds away more than eb in f32.
        let q = Quantizer::new(1e-7);
        match q.quantize(1.0e8, 1.0e8 + 3e-7) {
            Quantized::Code { reconstructed, .. } => {
                assert!((reconstructed - (1.0e8 + 3e-7)).abs() <= 1e-7);
            }
            Quantized::Unpredictable(v) => assert_eq!(v, 1.0e8 + 3e-7),
        }
    }

    #[test]
    fn dequantize_matches_encoder_reconstruction() {
        let q = Quantizer::new(0.001);
        let mut pred = 0.0f32;
        for i in 0..1000 {
            let actual = (i as f32 * 0.01).sin();
            if let Quantized::Code { code, reconstructed } = q.quantize(pred, actual) {
                assert_eq!(q.dequantize(pred, code), reconstructed);
                pred = reconstructed;
            } else {
                pred = actual;
            }
        }
    }

    #[test]
    #[should_panic(expected = "error bound must be positive")]
    fn zero_bound_rejected() {
        let _ = Quantizer::new(0.0);
    }

    /// `quantize` as it was before the libm-free rounding: the oracle
    /// for the differential tests below.
    fn quantize_reference(q: &Quantizer, pred: f32, actual: f32) -> Quantized {
        let diff = f64::from(actual) - f64::from(pred);
        let bin = f64::from(q.eb) * 2.0;
        let rounded = (diff / bin).round();
        if rounded.abs() >= f64::from(q.radius) || !rounded.is_finite() {
            return Quantized::Unpredictable(actual);
        }
        let reconstructed = (f64::from(pred) + rounded * bin) as f32;
        if (f64::from(reconstructed) - f64::from(actual)).abs() > f64::from(q.eb) {
            return Quantized::Unpredictable(actual);
        }
        Quantized::Code { code: (rounded as i32 + q.radius) as u16, reconstructed }
    }

    /// Bit-level equality: `-0.0` and `0.0` reconstructions differ.
    fn same(a: Quantized, b: Quantized) -> bool {
        match (a, b) {
            (
                Quantized::Code { code: c1, reconstructed: r1 },
                Quantized::Code { code: c2, reconstructed: r2 },
            ) => c1 == c2 && r1.to_bits() == r2.to_bits(),
            (Quantized::Unpredictable(v1), Quantized::Unpredictable(v2)) => {
                v1.to_bits() == v2.to_bits()
            }
            _ => false,
        }
    }

    #[test]
    fn rounding_edges_match_the_libm_reference() {
        // eb = 0.25 makes the bin width 0.5, so multiples of 0.25 are
        // exact half-integer residuals: the cases where "round half
        // away from zero" and every other rounding rule part ways.
        for (eb, radius) in [(0.25f32, 32_768), (0.25, 4), (1e-3, 32_768), (1e-7, 16)] {
            let q = Quantizer::with_radius(eb, radius);
            let edge = radius as f32 * eb * 2.0;
            let preds = [0.0f32, -0.0, 1.0, -3.75, 1e8, f32::MAX, f32::MIN_POSITIVE];
            for pred in preds {
                let steps = [0.0f32, -0.0, 0.25, -0.25, 0.75, -0.75, 0.125, 1.25, -1.25, 2.0];
                let near_edge =
                    [edge, -edge, edge - eb, eb - edge, edge + eb, f32::MAX, f32::MIN, 3e-8];
                for step in steps.into_iter().chain(near_edge) {
                    for actual in [pred + step, step] {
                        let (got, want) =
                            (q.quantize(pred, actual), quantize_reference(&q, pred, actual));
                        assert!(same(got, want), "{eb} {radius} {pred} {actual}: {got:?} {want:?}");
                    }
                }
            }
        }
        // Non-finite predictions (a regression line fitted to values
        // near f32::MAX) are unpredictable, never a panic.
        let q = Quantizer::new(1e-3);
        for pred in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            assert!(matches!(q.quantize(pred, 1.0), Quantized::Unpredictable(_)));
        }
    }

    use proptest::prelude::*;

    /// Values on a grid of quarter bins around the prediction (half of
    /// them exact ties), plus the occasional far outlier and signed
    /// zero.
    fn residual_steps() -> impl Strategy<Value = f32> {
        prop_oneof![
            (-64i32..=64).prop_map(|k| k as f32 * 0.25),
            (-64i32..=64).prop_map(|k| k as f32 * 0.25),
            -1.0f32..1.0,
            Just(0.0f32),
            Just(-0.0f32),
            Just(1e9f32),
            Just(-1e9f32),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        #[test]
        fn scalar_matches_the_libm_reference(
            eb in prop_oneof![Just(0.5f32), Just(0.125f32), 1e-6f32..1.0],
            radius in prop_oneof![Just(32_768i32), 2i32..64],
            pred in prop_oneof![-10.0f32..10.0, Just(0.0f32), Just(-0.0f32), Just(3e7f32)],
            step in residual_steps(),
        ) {
            let q = Quantizer::with_radius(eb, radius);
            let actual = pred + step * eb * 2.0;
            let (got, want) = (q.quantize(pred, actual), quantize_reference(&q, pred, actual));
            prop_assert!(same(got, want), "{:?} vs {:?}", got, want);
        }

        /// The batch is all-or-nothing: it may decline a run (it must,
        /// when an element is unpredictable), but what it serves is the
        /// scalar codes and last reconstruction, and it serves every
        /// run of predictable elements that has no rounding tie.
        #[test]
        fn batch_matches_scalar(
            eb in prop_oneof![Just(0.5f32), 1e-4f32..0.1],
            radius in prop_oneof![Just(32_768i32), Just(8i32)],
            slope in -0.01f32..0.01,
            steps in proptest::collection::vec(residual_steps(), 0..70),
            // 0: a run the batch must serve; 1: ties left in; 2: ties
            // and out-of-range outliers left in.
            mode in 0usize..3,
        ) {
            let q = Quantizer::with_radius(eb, radius);
            let pred: Vec<f32> = (0..steps.len()).map(|i| slope * i as f32 + 0.5).collect();
            let is_tie = |p: f32, a: f32| {
                let x = (f64::from(a) - f64::from(p)) / (f64::from(eb) * 2.0);
                (x - x.trunc()).abs() == 0.5
            };
            let actual: Vec<f32> = pred
                .iter()
                .zip(&steps)
                .map(|(&p, &s)| {
                    let s = if mode < 2 { s.clamp(-6.0, 6.0) } else { s };
                    let a = p + s * eb * 2.0;
                    if mode < 1 && is_tie(p, a) { a + eb * 0.5 } else { a }
                })
                .collect();
            let any_tie = pred.iter().zip(&actual).any(|(&p, &a)| is_tie(p, a));
            let scalar: Vec<Quantized> =
                pred.iter().zip(&actual).map(|(&p, &a)| quantize_reference(&q, p, a)).collect();
            let mut codes = vec![0u16; steps.len()];
            let got = q.quantize_batch(&pred, &actual, &mut codes);
            let all_codes: Option<Vec<(u16, f32)>> = scalar
                .iter()
                .map(|s| match *s {
                    Quantized::Code { code, reconstructed } => Some((code, reconstructed)),
                    Quantized::Unpredictable(_) => None,
                })
                .collect();
            match (got, all_codes.filter(|c| !c.is_empty())) {
                (Some(last), Some(want)) => {
                    prop_assert_eq!(Some(last.to_bits()), want.last().map(|&(_, r)| r.to_bits()));
                    prop_assert_eq!(codes, want.iter().map(|&(c, _)| c).collect::<Vec<_>>());
                }
                (Some(_), None) => prop_assert!(false, "served a run with an unpredictable element"),
                (None, Some(_)) => prop_assert!(any_tie, "declined a servable run"),
                (None, None) => {}
            }
        }
    }
}
