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

use crate::{resolve_bound, ErrorBound, ErrorBounded, LossyError, LossyKind};
use fedsz_codec::huffman;
use fedsz_codec::quantizer::{Quantized, Quantizer};
use fedsz_codec::varint::{
    read_bytes, read_f32_vec, read_f64, read_uvarint, write_f32_slice, write_f64, write_uvarint,
};
use fedsz_codec::{CodecError, Result};
use fedsz_lossless::{Lossless, ZstdLike};

/// Stream format version.
const VERSION: u8 = 1;

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

/// The level-order traversal shared by encoder and decoder: position 0,
/// then odd multiples of each power-of-two stride, coarse to fine.
fn traversal(n: usize) -> Vec<(usize, usize)> {
    // Returns (position, stride) pairs; stride 0 marks the seed point.
    let mut order = Vec::with_capacity(n);
    if n == 0 {
        return order;
    }
    order.push((0, 0));
    if n == 1 {
        return order;
    }
    let max_level = usize::BITS - 1 - (n - 1).leading_zeros();
    let mut stride = 1usize << max_level;
    while stride >= 1 {
        let mut p = stride;
        while p < n {
            order.push((p, stride));
            p += 2 * stride;
        }
        if stride == 1 {
            break;
        }
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
        let eb = resolve_bound(data, bound)? as f32;
        let eb = if eb > 0.0 { eb } else { f32::MIN_POSITIVE };

        let mut out = Vec::with_capacity(data.len() + 32);
        out.push(self.kind().id());
        out.push(VERSION);
        write_uvarint(&mut out, data.len() as u64);
        write_f64(&mut out, f64::from(eb));
        if data.is_empty() {
            return Ok(out);
        }

        let n = data.len();
        let quantizer = Quantizer::new(eb);
        // Codes are emitted in traversal order; recon is indexed by
        // position so later levels can interpolate earlier ones.
        let mut codes: Vec<u16> = Vec::with_capacity(n);
        let mut unpredictable: Vec<f32> = Vec::new();
        let mut recon = vec![0.0f32; n];
        for (p, stride) in traversal(n) {
            let pred = predict(&recon, p, stride, n);
            match quantizer.quantize(pred, data[p]) {
                Quantized::Code { code, reconstructed } => {
                    codes.push(code);
                    recon[p] = reconstructed;
                }
                Quantized::Unpredictable(raw) => {
                    codes.push(Quantizer::UNPREDICTABLE);
                    unpredictable.push(raw);
                    recon[p] = raw;
                }
            }
        }

        let mut inner = Vec::new();
        inner.extend_from_slice(&huffman::encode_block(&codes));
        write_uvarint(&mut inner, unpredictable.len() as u64);
        write_f32_slice(&mut inner, &unpredictable);
        let packed = ZstdLike::new().compress(&inner);
        write_uvarint(&mut out, packed.len() as u64);
        out.extend_from_slice(&packed);
        Ok(out)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f32>> {
        let mut pos = 0usize;
        let id = *bytes.first().ok_or(CodecError::UnexpectedEof)?;
        if id != self.kind().id() {
            return Err(CodecError::Corrupt("not an SZ3 stream"));
        }
        pos += 1;
        let version = *bytes.get(pos).ok_or(CodecError::UnexpectedEof)?;
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        pos += 1;
        let n = read_uvarint(bytes, &mut pos)? as usize;
        let eb = read_f64(bytes, &mut pos)? as f32;
        if n == 0 {
            return Ok(Vec::new());
        }
        if !(eb.is_finite() && eb > 0.0) {
            return Err(CodecError::Corrupt("invalid error bound in header"));
        }
        // The same three bounds as SZ2: this decoder runs on a peer's
        // say-so (the FSZ1 header's lossy id picks it, not the plan), so
        // no length field may size a buffer before something the
        // receiver already knows bounds it. First, the frame length
        // against the bytes present, with no overflow on the way.
        let packed = read_bytes(bytes, &mut pos)?;
        // Second, the inner container: at most ~6 bytes per element
        // (16-bit codes, raw unpredictables) plus a Huffman table; a
        // frame claiming more is forged, and LZ expansion is otherwise
        // unbounded.
        if fedsz_lossless::declared_len(packed)? > n.saturating_mul(16).saturating_add(1 << 20) {
            return Err(CodecError::Corrupt("inner stream larger than its element count allows"));
        }
        let inner = ZstdLike::new().decompress(packed)?;

        let mut ipos = 0usize;
        let codes = huffman::decode_block(&inner, &mut ipos)?;
        if codes.len() != n {
            return Err(CodecError::Corrupt("code count mismatch"));
        }
        let n_unpred = read_uvarint(&inner, &mut ipos)? as usize;
        // Third, at most one raw value per element.
        if n_unpred > n {
            return Err(CodecError::Corrupt("more unpredictable values than elements"));
        }
        let unpredictable = read_f32_vec(&inner, &mut ipos, n_unpred)?;

        let quantizer = Quantizer::new(eb);
        let mut recon = vec![0.0f32; n];
        let mut upos = 0usize;
        for (k, (p, stride)) in traversal(n).into_iter().enumerate() {
            let pred = predict(&recon, p, stride, n);
            let code = codes[k];
            recon[p] = if code == Quantizer::UNPREDICTABLE {
                let v = *unpredictable
                    .get(upos)
                    .ok_or(CodecError::Corrupt("missing unpredictable value"))?;
                upos += 1;
                v
            } else {
                quantizer.dequantize(pred, code)
            };
        }
        Ok(recon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_codec::stats::max_abs_error;

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

    /// An honest stream with its inner container rewritten by `forge`
    /// and re-packed, the way an attacker who knows the format would.
    fn with_forged_inner(n: usize, forge: impl FnOnce(&mut Vec<u8>, usize)) -> Vec<u8> {
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.05).sin()).collect();
        let honest = Sz3::new().compress(&data, ErrorBound::Absolute(1e-3)).unwrap();
        let mut pos = 2;
        read_uvarint(&honest, &mut pos).unwrap();
        pos += 8;
        let header = honest[..pos].to_vec();
        let packed = read_bytes(&honest, &mut pos).unwrap();
        let mut inner = ZstdLike::new().decompress(packed).unwrap();
        // The unpredictable count follows the Huffman block.
        let mut count_at = 0;
        huffman::decode_block(&inner, &mut count_at).unwrap();
        forge(&mut inner, count_at);
        let mut stream = header;
        let repacked = ZstdLike::new().compress(&inner);
        write_uvarint(&mut stream, repacked.len() as u64);
        stream.extend_from_slice(&repacked);
        stream
    }

    /// The count that used to reach `Vec::with_capacity` unchecked:
    /// 2^60 values is a 4 EiB request and an abort, not an error.
    #[test]
    fn forged_unpredictable_count_is_an_error() {
        let stream = with_forged_inner(256, |inner, at| {
            inner.truncate(at);
            write_uvarint(inner, 1 << 60);
        });
        assert!(Sz3::new().decompress(&stream).is_err());
        // One more raw value than elements, with the bytes to back it:
        // nothing overflows, but no encoder writes that.
        let stream = with_forged_inner(64, |inner, at| {
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
        let mut pos = 2;
        read_uvarint(&honest, &mut pos).unwrap();
        pos += 8;
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
