//! Error-bounded lossy compressors (EBLCs) for the FedSZ reproduction.
//!
//! The FedSZ paper compares four EBLCs on flattened model-weight arrays
//! and selects SZ2. This crate reimplements all four families from
//! scratch for 1D `f32` data:
//!
//! * [`Sz2`] — block-based hybrid prediction (the tensor's mean, Lorenzo
//!   or a linear regression, whichever codes a block in the fewest
//!   bits), linear-scale quantization, Huffman coding, zstd-class
//!   backend (prediction-based model),
//! * [`Sz3`] — multi-level spline-interpolation prediction with the same
//!   quantization/entropy pipeline but no per-block coefficients
//!   (interpolation-based model),
//! * [`Szx`] — constant-block detection plus bit-plane truncation with no
//!   entropy stage (bit-wise encoding model, built for speed),
//! * [`Zfp`] — block-floating-point + orthogonal lifting transform +
//!   negabinary + embedded bit-plane coding (transform-based model), with
//!   fixed-precision and fixed-accuracy modes.
//!
//! What their streams share — the header, the `f32` bound rule and, for
//! SZ2 and SZ3, the container of quantized residuals — is one private
//! module (`src/frame.rs`); a codec's module doc lists its own fields.
//!
//! SZ2's encoder and decoder loops are compiled twice, for the build
//! target and for AVX2, and picked at run time through
//! [`fedsz_codec::simd`]; both copies write the same bytes.
//!
//! # Error-bound semantics
//!
//! [`ErrorBound::Relative`] follows SZ's *value-range relative* mode: the
//! absolute bound is `eb * (max - min)` of the input. All SZ-family
//! codecs guarantee `max_i |x_i - x'_i| <= eb_abs` (up to f32 rounding);
//! ZFP guarantees it in [`ErrorBound::Absolute`] mode, while
//! [`ErrorBound::FixedPrecision`] — the mode the paper uses for ZFP —
//! bounds the bit budget instead of the error, exactly like real ZFP.
//!
//! # Examples
//!
//! ```
//! use fedsz_lossy::{ErrorBound, LossyKind};
//!
//! let data: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin() * 0.1).collect();
//! let codec = LossyKind::Sz2.codec();
//! let packed = codec.compress(&data, ErrorBound::Relative(1e-3)).unwrap();
//! let restored = codec.decompress(&packed).unwrap();
//! let range = 0.2f32; // data spans about [-0.1, 0.1]
//! for (a, b) in data.iter().zip(&restored) {
//!     assert!((a - b).abs() <= 1e-3 * range * 1.01);
//! }
//! ```

// `forbid`, though hot loops here run AVX2 copies: they dispatch through
// `fedsz_codec::simd`, whose one `unsafe` call is sound for any kernel
// (its only precondition is the CPU feature it checks first).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frame;
pub mod quant;
pub mod sparse;
pub mod sz2;
pub mod sz3;
pub mod szx;
pub mod zfp;

pub use fedsz_codec::{CodecError, Result};
pub use sz2::Sz2;
pub use sz3::Sz3;
pub use szx::Szx;
pub use zfp::Zfp;

use fedsz_codec::stats;
use std::error::Error;
use std::fmt;

/// The error-control mode requested from an EBLC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Pointwise absolute bound: `|x - x'| <= eb`.
    Absolute(f64),
    /// Value-range relative bound: `|x - x'| <= eb * (max - min)`.
    ///
    /// This is the mode the paper sweeps (`10^-5` to `10^-1`).
    Relative(f64),
    /// ZFP-style fixed precision: keep this many bit planes per value.
    /// Not error-bounded; only [`Zfp`] accepts it.
    FixedPrecision(u32),
}

impl ErrorBound {
    /// Resolves the bound to an absolute epsilon for `data`.
    ///
    /// Returns `None` for [`ErrorBound::FixedPrecision`], for empty
    /// input, or when the bound value is not positive/finite.
    pub fn absolute_for(&self, data: &[f32]) -> Option<f64> {
        match *self {
            // Only a relative bound needs the scan.
            ErrorBound::Relative(_) => self.absolute_over(stats::value_range(data)),
            _ => self.absolute_over(None),
        }
    }

    /// [`ErrorBound::absolute_for`] given the data's value range
    /// (`None` when the data is empty) instead of the data.
    fn absolute_over(&self, range: Option<stats::ValueRange>) -> Option<f64> {
        match *self {
            ErrorBound::Absolute(eb) => (eb.is_finite() && eb > 0.0).then_some(eb),
            ErrorBound::Relative(rel) => {
                if !(rel.is_finite() && rel > 0.0) {
                    return None;
                }
                // A constant array has zero range; any positive epsilon
                // preserves it exactly, so fall back to a tiny bound.
                let span = f64::from(range?.span());
                Some(if span > 0.0 { rel * span } else { rel * 1e-30 })
            }
            ErrorBound::FixedPrecision(_) => None,
        }
    }
}

impl fmt::Display for ErrorBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorBound::Absolute(eb) => write!(f, "ABS {eb:.3e}"),
            ErrorBound::Relative(eb) => write!(f, "REL {eb:.0e}"),
            ErrorBound::FixedPrecision(p) => write!(f, "PREC {p}"),
        }
    }
}

/// Errors raised when compression itself cannot proceed.
#[derive(Debug, Clone, PartialEq)]
pub enum LossyError {
    /// Input contained NaN or infinity; EBLCs require finite data.
    NonFiniteInput,
    /// The bound is unusable (non-positive, non-finite, or a mode the
    /// codec does not support).
    InvalidBound(ErrorBound),
    /// A codec parameter is out of range (Top-K ratio outside `(0, 1]`,
    /// a non-positive threshold, a quantizer width other than 4/8 bits).
    InvalidParameter(&'static str),
}

impl fmt::Display for LossyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LossyError::NonFiniteInput => write!(f, "input contains non-finite values"),
            LossyError::InvalidBound(b) => write!(f, "unusable error bound {b}"),
            LossyError::InvalidParameter(what) => write!(f, "invalid codec parameter: {what}"),
        }
    }
}

impl Error for LossyError {}

/// An error-bounded lossy compressor over 1D `f32` data.
///
/// Implementations must honour the absolute epsilon derived from the
/// bound (see [`ErrorBound::absolute_for`]) except in
/// [`ErrorBound::FixedPrecision`] mode.
pub trait ErrorBounded: Send + Sync {
    /// Which compressor family this is.
    fn kind(&self) -> LossyKind;

    /// Compresses `data` under `bound` into a self-contained stream.
    ///
    /// # Errors
    ///
    /// Returns [`LossyError::NonFiniteInput`] for NaN/infinite inputs and
    /// [`LossyError::InvalidBound`] for unusable bounds.
    fn compress(&self, data: &[f32], bound: ErrorBound)
        -> std::result::Result<Vec<u8>, LossyError>;

    /// Decompresses a stream produced by [`ErrorBounded::compress`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for truncated or corrupt streams.
    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f32>>;

    /// Display name (defaults to the kind's name).
    fn name(&self) -> &'static str {
        self.kind().name()
    }
}

/// Identifies one of the EBLC families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LossyKind {
    /// Prediction-based SZ2.
    Sz2,
    /// Interpolation-based SZ3.
    Sz3,
    /// Speed-first SZx.
    Szx,
    /// Transform-based ZFP.
    Zfp,
}

impl LossyKind {
    /// All four EBLCs in the paper's Table I order.
    pub fn all() -> [LossyKind; 4] {
        [Self::Sz2, Self::Sz3, Self::Szx, Self::Zfp]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Self::Sz2 => "SZ2",
            Self::Sz3 => "SZ3",
            Self::Szx => "SZx",
            Self::Zfp => "ZFP",
        }
    }

    /// Instantiates the codec with default settings.
    pub fn codec(self) -> Box<dyn ErrorBounded> {
        match self {
            Self::Sz2 => Box::new(Sz2::new()),
            Self::Sz3 => Box::new(Sz3::new()),
            Self::Szx => Box::new(Szx::new()),
            Self::Zfp => Box::new(Zfp::new()),
        }
    }

    /// Stable one-byte stream identifier.
    pub fn id(self) -> u8 {
        match self {
            Self::Sz2 => 16,
            Self::Sz3 => 17,
            Self::Szx => 18,
            Self::Zfp => 19,
        }
    }

    /// Inverse of [`LossyKind::id`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] for unknown identifiers.
    pub fn from_id(id: u8) -> Result<Self> {
        let known = Self::all().into_iter().find(|kind| kind.id() == id);
        known.ok_or(CodecError::Corrupt("unknown lossy codec id"))
    }
}

impl fmt::Display for LossyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The element count an EBLC stream claims to decode to, read from
/// the header all four families share (see the `frame` module) without
/// decoding anything. A receiver that already knows how many values it
/// expects compares this first, so a forged count is an error before
/// any codec sizes a buffer from it.
///
/// # Errors
///
/// Returns a [`CodecError`] when the header is truncated, or is not the
/// current version of one of the four families.
pub fn declared_len(stream: &[u8]) -> Result<usize> {
    let id = *stream.first().ok_or(CodecError::UnexpectedEof)?;
    frame::read_header(stream, LossyKind::from_id(id)?).map(|(n, _)| n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::resolve_bound;

    fn spiky_weights(n: usize) -> Vec<f32> {
        // Deterministic weight-like data: near-zero bulk with spikes,
        // similar to the flattened FL parameters in the paper's Fig 2.
        (0..n)
            .map(|i| {
                let base = ((i as f32 * 0.7).sin() + (i as f32 * 0.13).cos()) * 0.02;
                if i % 97 == 0 {
                    base + 0.5
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn declared_len_reads_every_family_header() {
        let data = spiky_weights(1234);
        for kind in LossyKind::all() {
            let bound = match kind {
                LossyKind::Zfp => ErrorBound::FixedPrecision(12),
                _ => ErrorBound::Relative(1e-2),
            };
            let packed = kind.codec().compress(&data, bound).unwrap();
            assert_eq!(declared_len(&packed).unwrap(), data.len(), "{kind}");
        }
        assert!(declared_len(&[16, 1]).is_err());
        assert!(declared_len(&[]).is_err());
    }

    /// The fused scan against the two passes it replaced: a finiteness
    /// check, then `absolute_for`'s own range scan.
    #[test]
    fn resolve_bound_matches_the_two_pass_form() {
        let two_pass = |data: &[f32], bound: ErrorBound| {
            if data.iter().any(|v| !v.is_finite()) {
                return Err(LossyError::NonFiniteInput);
            }
            bound.absolute_for(data).ok_or(LossyError::InvalidBound(bound))
        };
        let mut inputs: Vec<Vec<f32>> = vec![
            vec![0.0],
            vec![-0.0, 0.0, -0.0],
            vec![0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0],
            vec![2.5; 19],
            vec![f32::MAX, f32::MIN],
            vec![f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 0.0],
            spiky_weights(1000),
        ];
        // Every length around the lane width, with the extremes (and a
        // poisoned element) at every position.
        for len in 1..=20 {
            for at in 0..len {
                let mut data = spiky_weights(len);
                data[at] = 7.0;
                data[(at + 1) % len] = -9.0;
                inputs.push(data.clone());
                for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    data[at] = bad;
                    inputs.push(data.clone());
                }
            }
        }
        for data in &inputs {
            for bound in [
                ErrorBound::Relative(1e-2),
                ErrorBound::Absolute(1e-3),
                ErrorBound::Relative(0.0),
                ErrorBound::Absolute(f64::INFINITY),
            ] {
                assert_eq!(resolve_bound(data, bound), two_pass(data, bound), "{data:?} {bound}");
            }
            assert!(resolve_bound(data, ErrorBound::FixedPrecision(8)).is_err());
        }
        // Empty input: any positive epsilon, floored.
        assert_eq!(resolve_bound(&[], ErrorBound::Relative(1e-2)), Ok(1e-2));
        assert_eq!(resolve_bound(&[], ErrorBound::Absolute(1e-40)), Ok(1e-30));
        assert!(resolve_bound(&[], ErrorBound::Absolute(-1.0)).is_err());
    }

    #[test]
    fn kinds_round_trip_ids() {
        for kind in LossyKind::all() {
            assert_eq!(LossyKind::from_id(kind.id()).unwrap(), kind);
        }
        assert!(LossyKind::from_id(0).is_err());
    }

    #[test]
    fn every_codec_respects_relative_bound() {
        let data = spiky_weights(10_000);
        let range = {
            let r = fedsz_codec::stats::value_range(&data).unwrap();
            f64::from(r.span())
        };
        for kind in LossyKind::all() {
            let codec = kind.codec();
            for rel in [1e-2f64, 1e-3, 1e-4] {
                let bound = if kind == LossyKind::Zfp {
                    // The paper runs ZFP in fixed-precision mode; use the
                    // bounded (fixed-accuracy) mode for this invariant.
                    ErrorBound::Absolute(rel * range)
                } else {
                    ErrorBound::Relative(rel)
                };
                let packed = codec.compress(&data, bound).unwrap();
                let restored = codec.decompress(&packed).unwrap();
                assert_eq!(restored.len(), data.len());
                let max_err = fedsz_codec::stats::max_abs_error(&data, &restored);
                let eps = rel * range;
                assert!(
                    f64::from(max_err) <= eps * (1.0 + 1e-5),
                    "{kind} at {rel:e}: max_err {max_err:e} > eps {eps:e}"
                );
            }
        }
    }

    #[test]
    fn every_codec_compresses_weight_data() {
        let data = spiky_weights(20_000);
        for kind in LossyKind::all() {
            let codec = kind.codec();
            let bound = match kind {
                LossyKind::Zfp => ErrorBound::FixedPrecision(12),
                _ => ErrorBound::Relative(1e-2),
            };
            let packed = codec.compress(&data, bound).unwrap();
            let ratio = (data.len() * 4) as f64 / packed.len() as f64;
            assert!(ratio > 1.5, "{kind} ratio {ratio:.2} too low");
            assert_eq!(codec.decompress(&packed).unwrap().len(), data.len());
        }
    }

    #[test]
    fn every_codec_handles_empty_and_tiny() {
        for kind in LossyKind::all() {
            let codec = kind.codec();
            for data in [vec![], vec![1.0f32], vec![0.5, -0.5, 0.25]] {
                let bound = match kind {
                    LossyKind::Zfp => ErrorBound::Absolute(1e-3),
                    _ => ErrorBound::Relative(1e-3),
                };
                let packed = codec.compress(&data, bound).unwrap();
                let restored = codec.decompress(&packed).unwrap();
                assert_eq!(restored.len(), data.len(), "{kind}");
                for (a, b) in data.iter().zip(&restored) {
                    assert!((a - b).abs() <= 1e-2, "{kind}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn non_finite_input_rejected() {
        for kind in LossyKind::all() {
            let codec = kind.codec();
            let err = codec.compress(&[1.0, f32::NAN], ErrorBound::Relative(1e-2)).unwrap_err();
            assert_eq!(err, LossyError::NonFiniteInput, "{kind}");
        }
    }

    #[test]
    fn invalid_bounds_rejected() {
        for kind in LossyKind::all() {
            let codec = kind.codec();
            assert!(codec.compress(&[1.0, 2.0], ErrorBound::Relative(0.0)).is_err(), "{kind}");
            assert!(codec.compress(&[1.0, 2.0], ErrorBound::Absolute(-1.0)).is_err(), "{kind}");
        }
        // FixedPrecision is ZFP-only.
        for kind in [LossyKind::Sz2, LossyKind::Sz3, LossyKind::Szx] {
            let codec = kind.codec();
            assert!(codec.compress(&[1.0], ErrorBound::FixedPrecision(10)).is_err(), "{kind}");
        }
    }

    #[test]
    fn garbage_streams_error_not_panic() {
        let garbage = vec![0x5Au8; 128];
        for kind in LossyKind::all() {
            let codec = kind.codec();
            assert!(codec.decompress(&garbage).is_err(), "{kind}");
            assert!(codec.decompress(&[]).is_err(), "{kind}");
        }
    }

    #[test]
    fn constant_data_compresses_extremely_well() {
        let data = vec![0.25f32; 8192];
        for kind in LossyKind::all() {
            let codec = kind.codec();
            let bound = match kind {
                LossyKind::Zfp => ErrorBound::Absolute(1e-4),
                _ => ErrorBound::Relative(1e-3),
            };
            let packed = codec.compress(&data, bound).unwrap();
            let restored = codec.decompress(&packed).unwrap();
            for v in &restored {
                assert!((v - 0.25).abs() <= 1e-3, "{kind}");
            }
            let ratio = (data.len() * 4) as f64 / packed.len() as f64;
            // ZFP must still spend ~maxprec bits on each block's DC
            // coefficient, so it cannot collapse constants like the SZ
            // family does (true of real ZFP as well).
            let floor = if kind == LossyKind::Zfp { 2.5 } else { 20.0 };
            assert!(ratio > floor, "{kind} constant-data ratio {ratio:.1}");
        }
    }
}

#[cfg(test)]
mod monotonicity_tests {
    use super::*;

    fn weight_like(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32 * 0.37).sin() * 0.05) + if i % 71 == 0 { 0.4 } else { 0.0 })
            .collect()
    }

    #[test]
    fn looser_bounds_never_compress_worse() {
        let data = weight_like(30_000);
        for kind in [LossyKind::Sz2, LossyKind::Sz3, LossyKind::Szx] {
            let codec = kind.codec();
            let mut last: Option<usize> = None;
            for rel in [1e-4f64, 1e-3, 1e-2, 1e-1] {
                let packed = codec.compress(&data, ErrorBound::Relative(rel)).unwrap();
                if let Some(prev) = last {
                    // Allow 2% slack for container constants.
                    assert!(
                        packed.len() <= prev + prev / 50,
                        "{kind}: size grew when loosening to {rel:e} ({prev} -> {})",
                        packed.len()
                    );
                }
                last = Some(packed.len());
            }
        }
    }

    #[test]
    fn zfp_rate_tracks_precision() {
        let data = weight_like(20_000);
        let codec = LossyKind::Zfp.codec();
        let mut last = 0usize;
        for prec in [4u32, 8, 16, 28] {
            let packed = codec.compress(&data, ErrorBound::FixedPrecision(prec)).unwrap();
            assert!(
                packed.len() >= last,
                "rate should grow with precision: {} then {}",
                last,
                packed.len()
            );
            last = packed.len();
        }
    }

    #[test]
    fn tighter_bounds_reconstruct_more_accurately() {
        let data = weight_like(20_000);
        for kind in [LossyKind::Sz2, LossyKind::Sz3, LossyKind::Szx] {
            let codec = kind.codec();
            let mut last_err = f32::INFINITY;
            for rel in [1e-1f64, 1e-2, 1e-3, 1e-4] {
                let packed = codec.compress(&data, ErrorBound::Relative(rel)).unwrap();
                let restored = codec.decompress(&packed).unwrap();
                let err = fedsz_codec::stats::max_abs_error(&data, &restored);
                assert!(err <= last_err, "{kind}: error grew when tightening to {rel:e}");
                last_err = err;
            }
        }
    }

    #[test]
    fn psnr_improves_with_tighter_bounds() {
        let data = weight_like(20_000);
        let codec = LossyKind::Sz2.codec();
        let loose = codec.compress(&data, ErrorBound::Relative(1e-1)).unwrap();
        let tight = codec.compress(&data, ErrorBound::Relative(1e-4)).unwrap();
        let psnr_loose = fedsz_codec::stats::psnr(&data, &codec.decompress(&loose).unwrap());
        let psnr_tight = fedsz_codec::stats::psnr(&data, &codec.decompress(&tight).unwrap());
        assert!(psnr_tight > psnr_loose + 20.0, "{psnr_loose:.1} vs {psnr_tight:.1} dB");
    }
}
