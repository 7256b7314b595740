//! SZx-class compressor: constant blocks + bit-plane truncation.
//!
//! Follows the SZx design (Yu et al., HPDC 2022): data is cut into
//! fixed-size blocks; a block whose value spread fits inside the error
//! bound is stored as a single mean ("constant block"), everything else
//! keeps sign/exponent and only as many mantissa bits as the bound
//! requires. There is no prediction and no entropy stage — just bitwise
//! operations — which makes this by far the fastest EBLC here and the
//! weakest at ratio/fidelity, matching its corner of the paper's Table I.
//!
//! The stream is the frame's header (see `frame.rs`), `f64 eb`,
//! `uvarint block` and the blocks' bits.

use crate::frame::{check_count, read_header, resolve_bound, write_header};
use crate::{ErrorBound, ErrorBounded, LossyError, LossyKind};
use fedsz_codec::bitio::{BitReader, BitWriter};
use fedsz_codec::varint::{read_f64, read_uvarint, write_f64, write_uvarint};
use fedsz_codec::{CodecError, Result};

/// Elements per block.
const BLOCK: usize = 128;
/// The largest block a stream may declare: a constant block stands for
/// that many values in 33 bits, so this caps what a byte can expand to.
const MAX_BLOCK: usize = 1 << 16;
/// The fewest bits a block takes: a flag, a width and one truncated
/// value's sign and exponent.
const MIN_BLOCK_BITS: usize = 15;

/// SZx-class error-bounded compressor.
///
/// # Examples
///
/// ```
/// use fedsz_lossy::{ErrorBound, ErrorBounded, Szx};
///
/// let data = vec![0.5f32; 1000];
/// let codec = Szx::new();
/// let packed = codec.compress(&data, ErrorBound::Absolute(1e-3)).unwrap();
/// assert!(packed.len() < 100); // constant blocks collapse to a mean each
/// let restored = codec.decompress(&packed).unwrap();
/// assert!(restored.iter().all(|v| (v - 0.5).abs() <= 1e-3));
/// ```
#[derive(Debug, Clone)]
pub struct Szx {
    block: usize,
}

impl Szx {
    /// Creates the codec with the default block size (128).
    pub fn new() -> Self {
        Self { block: BLOCK }
    }

    /// Creates the codec with a custom block size.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero or above 65,536.
    pub fn with_block_size(block: usize) -> Self {
        assert!((1..=MAX_BLOCK).contains(&block), "block size must be in 1..=65536");
        Self { block }
    }
}

impl Default for Szx {
    fn default() -> Self {
        Self::new()
    }
}

/// frexp-style exponent: the unique `e` with `2^(e-1) <= |v| < 2^e`
/// for normal values; a floor of -125 for zeros/subnormals.
#[inline]
fn exponent_of(v: f32) -> i32 {
    let bits = v.to_bits();
    let raw = ((bits >> 23) & 0xff) as i32;
    if raw == 0 {
        -125
    } else {
        raw - 126
    }
}

impl ErrorBounded for Szx {
    fn kind(&self) -> LossyKind {
        LossyKind::Szx
    }

    fn compress(
        &self,
        data: &[f32],
        bound: ErrorBound,
    ) -> std::result::Result<Vec<u8>, LossyError> {
        let eb = resolve_bound(data, bound)?;
        let eb = eb.max(f64::from(f32::MIN_POSITIVE));

        let mut out = write_header(self.kind(), data.len());
        write_f64(&mut out, eb);
        write_uvarint(&mut out, self.block as u64);
        if data.is_empty() {
            return Ok(out);
        }

        // Exponent of the bound: 2^eb_exp <= eb.
        let eb_exp = eb.log2().floor() as i32;
        let mut w = BitWriter::append_to(out);
        for chunk in data.chunks(self.block) {
            let mut min = f32::INFINITY;
            let mut max = f32::NEG_INFINITY;
            for &v in chunk {
                min = min.min(v);
                max = max.max(v);
            }
            let mid = (f64::from(min) / 2.0 + f64::from(max) / 2.0) as f32;
            // Check against the f32 the decoder will actually see, so
            // rounding of the midpoint cannot break the bound.
            if f64::from(max) - f64::from(mid) <= eb && f64::from(mid) - f64::from(min) <= eb {
                // Constant block: one bit + one float.
                w.write_bit(true);
                w.write_bits(u64::from(mid.to_bits()), 32);
                continue;
            }
            w.write_bit(false);
            // Shared truncation width: enough mantissa bits that the
            // largest-magnitude value in the block stays within bound.
            let max_exp = chunk.iter().map(|&v| exponent_of(v)).max().expect("nonempty block");
            let m = (max_exp - eb_exp).clamp(0, 23) as u32;
            w.write_bits(u64::from(m), 5);
            for &v in chunk {
                let bits = v.to_bits();
                // sign (1) + exponent (8) + top m mantissa bits.
                w.write_bits(u64::from(bits >> 31), 1);
                w.write_bits(u64::from((bits >> 23) & 0xff), 8);
                if m > 0 {
                    w.write_bits(u64::from((bits >> (23 - m)) & ((1u32 << m) - 1)), m);
                }
            }
        }
        Ok(w.into_bytes())
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f32>> {
        let (n, mut pos) = read_header(bytes, self.kind())?;
        let _eb = read_f64(bytes, &mut pos)?;
        let block = read_uvarint(bytes, &mut pos)?;
        if n == 0 {
            return Ok(Vec::new());
        }
        if !(1..=MAX_BLOCK as u64).contains(&block) {
            return Err(CodecError::Corrupt("invalid block size in header"));
        }
        let block = block as usize;
        check_count(n, block, MIN_BLOCK_BITS, &bytes[pos..])?;
        let mut r = BitReader::new(&bytes[pos..]);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let chunk_len = block.min(n - out.len());
            if r.read_bit()? {
                let mid = f32::from_bits(r.read_bits(32)? as u32);
                out.extend(std::iter::repeat_n(mid, chunk_len));
                continue;
            }
            let m = r.read_bits(5)? as u32;
            if m > 23 {
                return Err(CodecError::Corrupt("mantissa width out of range"));
            }
            for _ in 0..chunk_len {
                let sign = r.read_bits(1)? as u32;
                let exp = r.read_bits(8)? as u32;
                let mut mant = if m > 0 { (r.read_bits(m)? as u32) << (23 - m) } else { 0 };
                // Midpoint rounding of the dropped tail halves the error.
                if m < 23 {
                    mant |= 1 << (22 - m);
                }
                out.push(f32::from_bits((sign << 31) | (exp << 23) | mant));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_codec::stats::max_abs_error;

    fn check_bound(data: &[f32], eb: f32) {
        let codec = Szx::new();
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
    fn exponent_helper_matches_definition() {
        for v in [1.0f32, 1.5, 2.0, 0.75, 1e-3, 3e7] {
            let e = exponent_of(v);
            assert!(
                2f64.powi(e - 1) <= f64::from(v) && f64::from(v) < 2f64.powi(e),
                "v = {v}, e = {e}"
            );
        }
        assert_eq!(exponent_of(0.0), -125);
    }

    #[test]
    fn constant_blocks_collapse() {
        let data = vec![1.25f32; 10_000];
        let codec = Szx::new();
        let packed = codec.compress(&data, ErrorBound::Absolute(1e-4)).unwrap();
        // ~33 bits per 128-value block plus header.
        assert!(packed.len() < 400, "constant data should collapse, got {}", packed.len());
        check_bound(&data, 1e-4);
    }

    #[test]
    fn truncation_respects_bound() {
        let data: Vec<f32> = (0..5000).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
        for eb in [1e-1f32, 1e-2, 1e-4, 1e-6] {
            check_bound(&data, eb);
        }
    }

    #[test]
    fn mixed_magnitudes_in_one_block() {
        let mut data = vec![1e-6f32; 64];
        data.extend_from_slice(&vec![100.0f32; 64]);
        check_bound(&data, 1e-3);
    }

    #[test]
    fn negative_values_bounded() {
        let data: Vec<f32> = (0..1000).map(|i| -0.5 + (i as f32) * 1e-4).collect();
        check_bound(&data, 1e-5);
    }

    #[test]
    fn zeros_and_subnormals() {
        let data = vec![0.0f32, f32::MIN_POSITIVE, -0.0, 1.0e-40, 0.5];
        check_bound(&data, 1e-3);
    }

    #[test]
    fn partial_final_block() {
        let data: Vec<f32> = (0..BLOCK + 7).map(|i| i as f32 * 0.01).collect();
        check_bound(&data, 1e-3);
    }

    #[test]
    fn truncated_stream_errors() {
        let data: Vec<f32> = (0..500).map(|i| (i as f32).cos()).collect();
        let codec = Szx::new();
        let packed = codec.compress(&data, ErrorBound::Absolute(1e-5)).unwrap();
        assert!(codec.decompress(&packed[..packed.len() / 2]).is_err());
    }
}
