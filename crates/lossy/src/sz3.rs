//! SZ3-class compressor: multi-level interpolation prediction.
//!
//! Follows the SZ3 design (Liang et al., IEEE TBD 2023; Zhao et al.,
//! ICDE 2021) for 1D data: values are visited level by level — position 0
//! first, then the odd multiples of each stride from coarse to fine — and
//! each value is predicted by cubic (or linear, at boundaries) spline
//! interpolation of already-reconstructed neighbours. Residuals go
//! through the same quantizer/Huffman/lossless pipeline as SZ2, but no
//! per-block coefficients are stored, which is exactly why the paper
//! observes SZ3 edging out SZ2's ratio at high error bounds while running
//! slower (the predictor is costlier).
//!
//! The stream is the frame's header, `f64 eb` and a residual container
//! with no sections, its codes in traversal order (see `frame.rs`).

use crate::frame::{
    bound_as_f32, read_bound, read_header, resolve_bound, write_header, Container, Quantization,
};
use crate::{ErrorBound, ErrorBounded, LossyError, LossyKind};
use fedsz_codec::varint::write_f64;
use fedsz_codec::Result;

/// SZ3-class error-bounded compressor.
///
/// # Examples
///
/// ```
/// use fedsz_lossy::{ErrorBound, ErrorBounded, Sz3};
///
/// let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.02).cos()).collect();
/// let codec = Sz3::new();
/// let packed = codec.compress(&data, ErrorBound::Absolute(1e-3)).unwrap();
/// let restored = codec.decompress(&packed).unwrap();
/// assert!(data.iter().zip(&restored).all(|(a, b)| (a - b).abs() <= 1e-3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sz3 {
    _private: (),
}

impl Sz3 {
    /// Creates the codec.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The level-order traversal shared by encoder and decoder, as
/// `(position, stride)`: position 0 (stride 0 marks the seed point), then
/// the odd multiples of each power-of-two stride, coarse to fine.
fn traversal(n: usize) -> Vec<(usize, usize)> {
    let mut order = Vec::with_capacity(n);
    if n > 0 {
        order.push((0, 0));
    }
    // From the largest power of two below `n` (none when `n < 2`).
    let mut stride = n.saturating_sub(1).checked_ilog2().map_or(0, |level| 1usize << level);
    while stride >= 1 {
        order.extend((stride..n).step_by(2 * stride).map(|p| (p, stride)));
        stride /= 2;
    }
    order
}

/// Interpolation prediction from already-reconstructed neighbours.
#[inline]
fn predict(recon: &[f32], p: usize, stride: usize, n: usize) -> f32 {
    if stride == 0 {
        return 0.0;
    }
    let s = stride;
    let has_right = p + s < n;
    if has_right {
        let left3 = p >= 3 * s;
        let right3 = p + 3 * s < n;
        if left3 && right3 {
            // Cubic spline through the four stride-2s neighbours.
            let a = f64::from(recon[p - 3 * s]);
            let b = f64::from(recon[p - s]);
            let c = f64::from(recon[p + s]);
            let d = f64::from(recon[p + 3 * s]);
            ((-a + 9.0 * b + 9.0 * c - d) / 16.0) as f32
        } else {
            ((f64::from(recon[p - s]) + f64::from(recon[p + s])) / 2.0) as f32
        }
    } else {
        recon[p - s]
    }
}

impl ErrorBounded for Sz3 {
    fn kind(&self) -> LossyKind {
        LossyKind::Sz3
    }

    fn compress(
        &self,
        data: &[f32],
        bound: ErrorBound,
    ) -> std::result::Result<Vec<u8>, LossyError> {
        let eb = bound_as_f32(resolve_bound(data, bound)?);
        let mut out = write_header(self.kind(), data.len());
        write_f64(&mut out, f64::from(eb));
        if data.is_empty() {
            return Ok(out);
        }

        let n = data.len();
        // Codes are emitted in traversal order; recon is indexed by
        // position so later levels can interpolate earlier ones.
        let mut quantized = Quantization::new(eb, n);
        let mut recon = vec![0.0f32; n];
        for (p, stride) in traversal(n) {
            recon[p] = quantized.push(predict(&recon, p, stride, n), data[p]);
        }
        quantized.finish(&[], &mut out);
        Ok(out)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f32>> {
        let (n, mut pos) = read_header(bytes, self.kind())?;
        let eb = read_bound(bytes, &mut pos)?;
        if n == 0 {
            return Ok(Vec::new());
        }
        let container = Container::read(bytes, &mut pos, n, 0)?;
        let mut values = container.values(eb);
        let mut recon = vec![0.0f32; n];
        for (&code, (p, stride)) in container.codes.iter().zip(traversal(n)) {
            recon[p] = values.value(predict(&recon, p, stride, n), code);
        }
        Ok(recon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::with_forged_inner;
    use fedsz_codec::stats::max_abs_error;
    use fedsz_codec::varint::write_uvarint;
    use fedsz_codec::CodecError;

    fn check_bound(data: &[f32], eb: f32) {
        let codec = Sz3::new();
        let packed = codec.compress(data, ErrorBound::Absolute(f64::from(eb))).unwrap();
        let restored = codec.decompress(&packed).unwrap();
        assert_eq!(restored.len(), data.len());
        assert!(
            max_abs_error(data, &restored) <= eb * (1.0 + 1e-5),
            "bound violated: {} > {}",
            max_abs_error(data, &restored),
            eb
        );
    }

    #[test]
    fn traversal_visits_every_position_once() {
        for n in [1usize, 2, 3, 5, 16, 17, 100, 1023, 1024, 1025] {
            let order = traversal(n);
            assert_eq!(order.len(), n, "n = {n}");
            let mut seen = vec![false; n];
            for (p, _) in order {
                assert!(!seen[p], "position {p} visited twice for n = {n}");
                seen[p] = true;
            }
            assert!(seen.into_iter().all(|s| s));
        }
    }

    #[test]
    fn traversal_coarse_before_fine() {
        // Each position's neighbours at double stride must come earlier.
        let n = 257;
        let order = traversal(n);
        let mut rank = vec![usize::MAX; n];
        for (i, (p, _)) in order.iter().enumerate() {
            rank[*p] = i;
        }
        for &(p, stride) in &order {
            if stride >= 1 && p >= stride {
                assert!(rank[p - stride] < rank[p]);
                if p + stride < n {
                    assert!(rank[p + stride] < rank[p]);
                }
            }
        }
    }

    #[test]
    fn smooth_data_beats_sz2_style_ratio() {
        // Smooth signal: interpolation should be a very strong predictor.
        let data: Vec<f32> = (0..16_384).map(|i| (i as f32 * 0.003).sin()).collect();
        let codec = Sz3::new();
        let packed = codec.compress(&data, ErrorBound::Absolute(1e-3)).unwrap();
        let ratio = (data.len() * 4) as f64 / packed.len() as f64;
        assert!(ratio > 8.0, "smooth data should compress >8x, got {ratio:.1}");
        check_bound(&data, 1e-3);
    }

    #[test]
    fn bounds_hold_across_magnitudes() {
        let data: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.11).sin() * 100.0).collect();
        for eb in [1.0f32, 1e-2, 1e-4] {
            check_bound(&data, eb);
        }
    }

    /// SZ3 takes the frame's rounding: the bound in its header, which
    /// its quantizer fills to the last bit, is never above the `f64`
    /// that was asked for — where the nearest `f32` is, half the time.
    #[test]
    fn the_f32_bound_never_exceeds_the_one_asked_for() {
        let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.37).sin() * 0.05).collect();
        let mut nearest_was_above = false;
        for rel in [1e-2, 3e-3, 1e-3, 7e-4] {
            let bound = ErrorBound::Relative(rel);
            let asked = bound.absolute_for(&data).unwrap();
            nearest_was_above |= f64::from(asked as f32) > asked;
            let stream = Sz3::new().compress(&data, bound).unwrap();
            let mut pos = read_header(&stream, LossyKind::Sz3).unwrap().1;
            assert!(f64::from(read_bound(&stream, &mut pos).unwrap()) <= asked, "REL {rel}");
            let restored = Sz3::new().decompress(&stream).unwrap();
            let errors = data.iter().zip(&restored).map(|(&x, &y)| f64::from(x) - f64::from(y));
            let worst = errors.fold(0.0, |worst, e| e.abs().max(worst));
            assert!(worst <= asked, "REL {rel}: {worst} > {asked}");
        }
        assert!(nearest_was_above, "no bound here rounds up to its nearest f32");
    }

    #[test]
    fn spiky_weights_bounded() {
        let data: Vec<f32> = (0..10_000)
            .map(|i| if i % 53 == 0 { -0.8 } else { ((i * 7) as f32).sin() * 0.03 })
            .collect();
        check_bound(&data, 1e-4);
    }

    #[test]
    fn non_power_of_two_lengths() {
        for n in [2usize, 3, 7, 1000, 1025] {
            let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
            check_bound(&data, 1e-3);
        }
    }

    #[test]
    fn corrupt_stream_errors() {
        let data: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let codec = Sz3::new();
        let mut packed = codec.compress(&data, ErrorBound::Absolute(1e-2)).unwrap();
        packed.truncate(packed.len() / 3);
        assert!(codec.decompress(&packed).is_err());
    }

    /// An honest `n`-element stream with its container re-packed around
    /// what `forge` made of it (see [`with_forged_inner`]).
    fn forged(n: usize, forge: impl FnOnce(&mut Vec<u8>, usize)) -> Vec<u8> {
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.05).sin()).collect();
        let honest = Sz3::new().compress(&data, ErrorBound::Absolute(1e-3)).unwrap();
        let container_at = read_header(&honest, LossyKind::Sz3).unwrap().1 + 8;
        with_forged_inner(&honest, container_at, 0, forge)
    }

    /// The count that used to reach `Vec::with_capacity` unchecked:
    /// 2^60 values is a 4 EiB request and an abort, not an error.
    #[test]
    fn forged_unpredictable_count_is_an_error() {
        let stream = forged(256, |inner, at| {
            inner.truncate(at);
            write_uvarint(inner, 1 << 60);
        });
        assert!(Sz3::new().decompress(&stream).is_err());
        // One more raw value than elements, with the bytes to back it:
        // nothing overflows, but no encoder writes that.
        let stream = forged(64, |inner, at| {
            inner.truncate(at);
            write_uvarint(inner, 65);
            inner.extend_from_slice(&[0u8; 4 * 65]);
        });
        assert_eq!(
            Sz3::new().decompress(&stream),
            Err(CodecError::Corrupt("more unpredictable values than elements"))
        );
    }

    #[test]
    fn forged_frame_lengths_are_errors() {
        let data: Vec<f32> = (0..200).map(|i| i as f32 * 0.01).collect();
        let honest = Sz3::new().compress(&data, ErrorBound::Absolute(1e-3)).unwrap();
        let pos = read_header(&honest, LossyKind::Sz3).unwrap().1 + 8;
        // A packed length that overflows `pos + len`.
        let mut stream = honest[..pos].to_vec();
        write_uvarint(&mut stream, u64::MAX - 3);
        stream.extend_from_slice(&honest[pos + 1..]);
        assert_eq!(Sz3::new().decompress(&stream), Err(CodecError::UnexpectedEof));
        // An inner frame that declares far more bytes than 200 elements
        // can need (flag byte, then the declared length).
        let mut frame = vec![1u8];
        write_uvarint(&mut frame, 1 << 40);
        frame.extend_from_slice(&[0u8; 16]);
        let mut stream = honest[..pos].to_vec();
        write_uvarint(&mut stream, frame.len() as u64);
        stream.extend_from_slice(&frame);
        assert_eq!(
            Sz3::new().decompress(&stream),
            Err(CodecError::Corrupt("inner stream larger than its element count allows"))
        );
    }
}
