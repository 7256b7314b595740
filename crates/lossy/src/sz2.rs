//! SZ2-class compressor: block prediction + quantization + Huffman + LZ.
//!
//! Mirrors the published SZ2 design (Liang et al., IEEE Big Data 2018)
//! restricted to 1D data, which is how FedSZ uses it on flattened weight
//! tensors: data is cut into small blocks, each block chooses between a
//! Lorenzo predictor (previous reconstructed value) and a least-squares
//! linear fit, prediction residuals are quantized into `2*eb` bins,
//! quantization codes are Huffman-coded and the whole stream is passed
//! through a zstd-class lossless backend. Residuals outside the
//! quantizer's range are stored verbatim ("unpredictable" values).

use crate::{resolve_bound, ErrorBound, ErrorBounded, LossyError, LossyKind};
use fedsz_codec::bitio::{BitReader, BitWriter};
use fedsz_codec::huffman::{self, Histogram};
use fedsz_codec::quantizer::{Quantized, Quantizer};
use fedsz_codec::varint::{
    read_bytes, read_f32, read_f32_vec, read_f64, read_uvarint, write_f32, write_f32_slice,
    write_f64, write_uvarint,
};
use fedsz_codec::{CodecError, Result};
use fedsz_lossless::{Lossless, ZstdLike};

/// Stream format version.
const VERSION: u8 = 1;
/// Elements per prediction block.
const BLOCK: usize = 128;
/// Elements quantized per [`Quantizer::quantize_batch`] call: a whole
/// default block. A larger custom block goes through in several runs.
const BATCH: usize = BLOCK;

/// Per-block predictor choice.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Predictor {
    /// Previous reconstructed value.
    Lorenzo,
    /// `a * i + b` over the block-local index.
    Regression { a: f32, b: f32 },
}

/// SZ2-class error-bounded compressor.
///
/// # Examples
///
/// ```
/// use fedsz_lossy::{ErrorBound, ErrorBounded, Sz2};
///
/// let data: Vec<f32> = (0..512).map(|i| 0.01 * (i as f32).sqrt()).collect();
/// let codec = Sz2::new();
/// let packed = codec.compress(&data, ErrorBound::Absolute(1e-4)).unwrap();
/// let restored = codec.decompress(&packed).unwrap();
/// assert!(data.iter().zip(&restored).all(|(a, b)| (a - b).abs() <= 1e-4));
/// ```
#[derive(Debug, Clone)]
pub struct Sz2 {
    block: usize,
    use_regression: bool,
}

impl Sz2 {
    /// Creates the codec with the default block size (128) and the
    /// hybrid Lorenzo/regression predictor.
    pub fn new() -> Self {
        Self { block: BLOCK, use_regression: true }
    }

    /// Creates the codec with a custom block size.
    ///
    /// # Panics
    ///
    /// Panics if `block` is smaller than 4.
    pub fn with_block_size(block: usize) -> Self {
        assert!(block >= 4, "block size must be at least 4");
        Self { block, use_regression: true }
    }

    /// Disables the linear-regression predictor, leaving pure Lorenzo —
    /// the ablation knob for SZ2's hybrid-prediction design choice.
    pub fn lorenzo_only(mut self) -> Self {
        self.use_regression = false;
        self
    }
}

impl Default for Sz2 {
    fn default() -> Self {
        Self::new()
    }
}

/// Least-squares line fit over `(0..len, values)`.
fn fit_line(values: &[f32]) -> (f32, f32) {
    let n = values.len() as f64;
    if values.len() < 2 {
        return (0.0, values.first().copied().unwrap_or(0.0));
    }
    let mean_x = (n - 1.0) / 2.0;
    let mean_y: f64 = values.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
    let mut sxy = 0.0f64;
    let mut sxx = 0.0f64;
    for (i, &v) in values.iter().enumerate() {
        let dx = i as f64 - mean_x;
        sxy += dx * (f64::from(v) - mean_y);
        sxx += dx * dx;
    }
    let a = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    let b = mean_y - a * mean_x;
    (a as f32, b as f32)
}

/// The quantizer's output as the encoder accumulates it.
struct Quantization {
    quantizer: Quantizer,
    codes: Vec<u16>,
    /// Counted as the codes are produced, so the Huffman stage does not
    /// walk them again.
    histogram: Histogram,
    unpredictable: Vec<f32>,
    /// What the decoder will hold for the most recent element: the
    /// Lorenzo prediction of the next one.
    last_recon: f32,
}

impl Quantization {
    /// Quantizes one element against `pred`.
    #[inline]
    fn push(&mut self, pred: f32, value: f32) {
        let (code, recon) = match self.quantizer.quantize(pred, value) {
            Quantized::Code { code, reconstructed } => (code, reconstructed),
            Quantized::Unpredictable(raw) => {
                self.unpredictable.push(raw);
                (Quantizer::UNPREDICTABLE, raw)
            }
        };
        self.codes.push(code);
        self.histogram.add(code);
        self.last_recon = recon;
    }

    /// Quantizes a run whose predictions are all known up front — a
    /// regression block's, which come from the fitted line and not from
    /// earlier reconstructions. Lorenzo blocks cannot take this path:
    /// each prediction *is* the previous reconstruction.
    fn push_run(&mut self, preds: &[f32], values: &[f32]) {
        let start = self.codes.len();
        self.codes.resize(start + values.len(), 0);
        match self.quantizer.quantize_batch(preds, values, &mut self.codes[start..]) {
            Some(last) => {
                self.last_recon = last;
                for &code in &self.codes[start..] {
                    self.histogram.add(code);
                }
            }
            // Some element is unpredictable, out of bound after
            // rounding, or on a rounding tie: redo the run one element
            // at a time.
            None => {
                self.codes.truncate(start);
                for (&pred, &value) in preds.iter().zip(values) {
                    self.push(pred, value);
                }
            }
        }
    }
}

impl Sz2 {
    /// Picks the block's predictor on original values: the Lorenzo cost
    /// uses the previous original as a stand-in for the reconstruction.
    fn choose_predictor(&self, chunk: &[f32], last_recon: f32) -> Predictor {
        if !self.use_regression {
            return Predictor::Lorenzo;
        }
        let mut lorenzo_cost = (f64::from(chunk[0]) - f64::from(last_recon)).abs();
        for w in chunk.windows(2) {
            lorenzo_cost += (f64::from(w[1]) - f64::from(w[0])).abs();
        }
        let (a, b) = fit_line(chunk);
        let mut reg_cost = 0.0f64;
        for (i, &v) in chunk.iter().enumerate() {
            reg_cost += (f64::from(v) - (f64::from(a) * i as f64 + f64::from(b))).abs();
        }
        // The regression stores two f32 coefficients; require a clear
        // win before paying for them (mirrors SZ2's sampling choice).
        if reg_cost < 0.9 * lorenzo_cost {
            Predictor::Regression { a, b }
        } else {
            Predictor::Lorenzo
        }
    }
}

impl ErrorBounded for Sz2 {
    fn kind(&self) -> LossyKind {
        LossyKind::Sz2
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
        write_uvarint(&mut out, self.block as u64);
        if data.is_empty() {
            return Ok(out);
        }

        let mut quantized = Quantization {
            quantizer: Quantizer::new(eb),
            codes: Vec::with_capacity(data.len()),
            histogram: Histogram::new(),
            unpredictable: Vec::new(),
            last_recon: 0.0,
        };
        let mut flags = BitWriter::with_capacity(data.len().div_ceil(self.block).div_ceil(8));
        let mut coeffs: Vec<u8> = Vec::new();

        for chunk in data.chunks(self.block) {
            match self.choose_predictor(chunk, quantized.last_recon) {
                Predictor::Lorenzo => {
                    flags.write_bit(false);
                    for &v in chunk {
                        quantized.push(quantized.last_recon, v);
                    }
                }
                Predictor::Regression { a, b } => {
                    flags.write_bit(true);
                    write_f32(&mut coeffs, a);
                    write_f32(&mut coeffs, b);
                    let mut preds = [0.0f32; BATCH];
                    for (k, run) in chunk.chunks(BATCH).enumerate() {
                        let preds = &mut preds[..run.len()];
                        for (i, pred) in preds.iter_mut().enumerate() {
                            *pred = a * (k * BATCH + i) as f32 + b;
                        }
                        quantized.push_run(preds, run);
                    }
                }
            }
        }
        let Quantization { codes, histogram, unpredictable, .. } = quantized;

        // Inner container: flags, coefficients, Huffman codes, raw values.
        let flag_bytes = flags.into_bytes();
        let code_block = huffman::encode_block_counted(&codes, &histogram);
        drop(codes);
        let mut inner = Vec::with_capacity(
            flag_bytes.len() + coeffs.len() + code_block.len() + 4 * unpredictable.len() + 30,
        );
        write_uvarint(&mut inner, flag_bytes.len() as u64);
        inner.extend_from_slice(&flag_bytes);
        write_uvarint(&mut inner, coeffs.len() as u64);
        inner.extend_from_slice(&coeffs);
        inner.extend_from_slice(&code_block);
        drop(code_block);
        write_uvarint(&mut inner, unpredictable.len() as u64);
        write_f32_slice(&mut inner, &unpredictable);

        // SZ2 passes its Huffman output through zstd; so do we.
        let packed = ZstdLike::new().compress(&inner);
        write_uvarint(&mut out, packed.len() as u64);
        out.extend_from_slice(&packed);
        Ok(out)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f32>> {
        let mut pos = 0usize;
        let id = *bytes.first().ok_or(CodecError::UnexpectedEof)?;
        if id != self.kind().id() {
            return Err(CodecError::Corrupt("not an SZ2 stream"));
        }
        pos += 1;
        let version = *bytes.get(pos).ok_or(CodecError::UnexpectedEof)?;
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        pos += 1;
        let n = read_uvarint(bytes, &mut pos)? as usize;
        let eb = read_f64(bytes, &mut pos)? as f32;
        let block = read_uvarint(bytes, &mut pos)? as usize;
        if n == 0 {
            return Ok(Vec::new());
        }
        if !(eb.is_finite() && eb > 0.0) {
            return Err(CodecError::Corrupt("invalid error bound in header"));
        }
        if block < 4 {
            return Err(CodecError::Corrupt("invalid block size in header"));
        }
        let packed = read_bytes(bytes, &mut pos)?;
        // The inner container holds at most ~8 bytes per element
        // (block flags and coefficients, 16-bit codes, raw
        // unpredictables) plus a Huffman table; a frame claiming more
        // is forged, and LZ expansion is otherwise unbounded.
        if fedsz_lossless::declared_len(packed)? > n.saturating_mul(16).saturating_add(1 << 20) {
            return Err(CodecError::Corrupt("inner stream larger than its element count allows"));
        }
        let inner = ZstdLike::new().decompress(packed)?;

        let mut ipos = 0usize;
        let flag_bytes = read_bytes(&inner, &mut ipos)?;
        let coeff_bytes = read_bytes(&inner, &mut ipos)?;
        let codes = huffman::decode_block(&inner, &mut ipos)?;
        if codes.len() != n {
            return Err(CodecError::Corrupt("code count mismatch"));
        }
        let n_unpred = read_uvarint(&inner, &mut ipos)? as usize;
        // At most one raw value per element: the count sizes a buffer,
        // so it must be bounded before it is trusted.
        if n_unpred > n {
            return Err(CodecError::Corrupt("more unpredictable values than elements"));
        }
        let unpredictable = read_f32_vec(&inner, &mut ipos, n_unpred)?;
        // Settled once, so the per-element loops below cannot fail.
        if codes.iter().filter(|&&code| code == Quantizer::UNPREDICTABLE).count() > n_unpred {
            return Err(CodecError::Corrupt("missing unpredictable value"));
        }

        let quantizer = Quantizer::new(eb);
        let mut flags = BitReader::new(flag_bytes);
        let mut cpos = 0usize;
        let mut raw = unpredictable.iter().copied();
        let mut value_of = |pred: f32, code: u16| match code {
            Quantizer::UNPREDICTABLE => raw.next().expect("raw values were counted above"),
            _ => quantizer.dequantize(pred, code),
        };
        let mut out = Vec::with_capacity(n);
        for codes in codes.chunks(block) {
            if flags.read_bit()? {
                let a = read_f32(coeff_bytes, &mut cpos)?;
                let b = read_f32(coeff_bytes, &mut cpos)?;
                out.extend(
                    codes.iter().enumerate().map(|(i, &code)| value_of(a * i as f32 + b, code)),
                );
            } else {
                let mut last_recon = out.last().copied().unwrap_or(0.0);
                out.extend(codes.iter().map(|&code| {
                    last_recon = value_of(last_recon, code);
                    last_recon
                }));
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
        let codec = Sz2::new();
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
    fn smooth_data_tight_bounds() {
        let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
        for eb in [1e-2f32, 1e-3, 1e-5] {
            check_bound(&data, eb);
        }
    }

    #[test]
    fn linear_data_prefers_regression() {
        // A perfect ramp: the regression predictor should make nearly all
        // residuals zero, giving an excellent ratio.
        let data: Vec<f32> = (0..8192).map(|i| 0.5 + i as f32 * 1e-4).collect();
        let codec = Sz2::new();
        let packed = codec.compress(&data, ErrorBound::Absolute(1e-5)).unwrap();
        let ratio = (data.len() * 4) as f64 / packed.len() as f64;
        assert!(ratio > 10.0, "ramp should compress >10x, got {ratio:.1}");
        check_bound(&data, 1e-5);
    }

    #[test]
    fn spiky_data_stays_bounded() {
        let data: Vec<f32> = (0..10_000)
            .map(|i| if i % 31 == 0 { 1.0 } else { ((i * i) as f32).sin() * 0.01 })
            .collect();
        for eb in [1e-1f32, 1e-3] {
            check_bound(&data, eb);
        }
    }

    #[test]
    fn relative_bound_uses_value_range() {
        let data: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.03).cos() * 5.0).collect();
        let codec = Sz2::new();
        let packed = codec.compress(&data, ErrorBound::Relative(1e-3)).unwrap();
        let restored = codec.decompress(&packed).unwrap();
        let range = 10.0f32; // cos * 5 spans [-5, 5]
        assert!(max_abs_error(&data, &restored) <= 1e-3 * range * 1.01);
    }

    #[test]
    fn unpredictable_heavy_input() {
        // Huge jumps relative to a tiny bound force the unpredictable path.
        let data: Vec<f32> = (0..1000).map(|i| if i % 2 == 0 { 1e6 } else { -1e6 }).collect();
        check_bound(&data, 1e-6);
    }

    #[test]
    fn single_element_and_block_boundaries() {
        check_bound(&[0.75], 1e-3);
        let data: Vec<f32> = (0..BLOCK * 2 + 1).map(|i| i as f32 * 0.1).collect();
        check_bound(&data, 1e-4);
    }

    #[test]
    fn truncation_detected() {
        let data: Vec<f32> = (0..512).map(|i| (i as f32).sin()).collect();
        let codec = Sz2::new();
        let packed = codec.compress(&data, ErrorBound::Absolute(1e-3)).unwrap();
        assert!(codec.decompress(&packed[..packed.len() / 2]).is_err());
    }

    #[test]
    fn wrong_kind_rejected() {
        let codec = Sz2::new();
        let mut stream = codec.compress(&[1.0, 2.0], ErrorBound::Absolute(1e-3)).unwrap();
        stream[0] = LossyKind::Sz3.id();
        assert!(codec.decompress(&stream).is_err());
    }

    #[test]
    fn fit_line_recovers_slope() {
        let values: Vec<f32> = (0..100).map(|i| 2.0 + 0.5 * i as f32).collect();
        let (a, b) = fit_line(&values);
        assert!((a - 0.5).abs() < 1e-4);
        assert!((b - 2.0).abs() < 1e-3);
    }

    /// SZ2's encoder as it was before batching: one predictor choice,
    /// one `Quantizer::quantize` per element and a Huffman stage that
    /// counts its own symbols. The oracle for the tests below.
    fn compress_reference(codec: &Sz2, data: &[f32], bound: ErrorBound) -> Vec<u8> {
        let eb = bound.absolute_for(data).unwrap() as f32;
        let mut out = vec![LossyKind::Sz2.id(), VERSION];
        write_uvarint(&mut out, data.len() as u64);
        write_f64(&mut out, f64::from(eb));
        write_uvarint(&mut out, codec.block as u64);
        let quantizer = Quantizer::new(eb);
        let (mut codes, mut unpredictable) = (Vec::new(), Vec::new());
        let (mut flags, mut coeffs) = (BitWriter::new(), Vec::new());
        let mut last_recon = 0.0f32;
        for chunk in data.chunks(codec.block) {
            let mut lorenzo_cost = (f64::from(chunk[0]) - f64::from(last_recon)).abs();
            for w in chunk.windows(2) {
                lorenzo_cost += (f64::from(w[1]) - f64::from(w[0])).abs();
            }
            let (a, b) = fit_line(chunk);
            let mut reg_cost = 0.0f64;
            for (i, &v) in chunk.iter().enumerate() {
                reg_cost += (f64::from(v) - (f64::from(a) * i as f64 + f64::from(b))).abs();
            }
            let regression = codec.use_regression && reg_cost < 0.9 * lorenzo_cost;
            flags.write_bit(regression);
            if regression {
                write_f32(&mut coeffs, a);
                write_f32(&mut coeffs, b);
            }
            for (i, &v) in chunk.iter().enumerate() {
                let pred = if regression { a * i as f32 + b } else { last_recon };
                last_recon = match quantizer.quantize(pred, v) {
                    Quantized::Code { code, reconstructed } => {
                        codes.push(code);
                        reconstructed
                    }
                    Quantized::Unpredictable(raw) => {
                        codes.push(Quantizer::UNPREDICTABLE);
                        unpredictable.push(raw);
                        raw
                    }
                };
            }
        }
        let mut inner = Vec::new();
        let flag_bytes = flags.into_bytes();
        write_uvarint(&mut inner, flag_bytes.len() as u64);
        inner.extend_from_slice(&flag_bytes);
        write_uvarint(&mut inner, coeffs.len() as u64);
        inner.extend_from_slice(&coeffs);
        inner.extend_from_slice(&huffman::encode_block(&codes));
        write_uvarint(&mut inner, unpredictable.len() as u64);
        for &v in &unpredictable {
            write_f32(&mut inner, v);
        }
        let packed = ZstdLike::new().compress(&inner);
        write_uvarint(&mut out, packed.len() as u64);
        out.extend_from_slice(&packed);
        out
    }

    /// How many of a stream's blocks chose the regression predictor.
    fn regression_blocks(stream: &[u8]) -> u32 {
        let mut pos = 2;
        read_uvarint(stream, &mut pos).unwrap();
        pos += 8;
        read_uvarint(stream, &mut pos).unwrap();
        let inner = ZstdLike::new().decompress(read_bytes(stream, &mut pos).unwrap()).unwrap();
        read_bytes(&inner, &mut 0).unwrap().iter().map(|b| b.count_ones()).sum()
    }

    /// Noise around a slow drift: the texture of flattened weights, on
    /// which the line fit beats the previous-value predictor.
    fn weight_like(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let noise = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                0.05 * noise + 1e-5 * i as f32
            })
            .collect()
    }

    #[test]
    fn batched_blocks_match_the_scalar_reference() {
        let mut spiked = weight_like(5000, 7);
        for i in (0..spiked.len()).step_by(211) {
            spiked[i] = if i % 2 == 0 { 40.0 } else { -40.0 };
        }
        let mut zeros = weight_like(3000, 9);
        for (i, v) in zeros.iter_mut().enumerate().filter(|(i, _)| i % 5 < 2) {
            *v = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        let cases: [(&str, &[f32], ErrorBound); 6] = [
            ("weights, REL 1e-2", &weight_like(20_000, 1), ErrorBound::Relative(1e-2)),
            ("weights, REL 1e-4", &weight_like(20_000, 2), ErrorBound::Relative(1e-4)),
            // The spikes fall out of the quantizer's range inside
            // regression blocks: those batches fall back, the rest do not.
            ("spikes, ABS 1e-5", &spiked, ErrorBound::Absolute(1e-5)),
            ("spikes, REL 1e-3", &spiked, ErrorBound::Relative(1e-3)),
            ("signed zeros", &zeros, ErrorBound::Absolute(1e-3)),
            ("short tail block", &weight_like(128 * 3 + 5, 3), ErrorBound::Relative(1e-2)),
        ];
        // 1000 > BATCH: one block spans several batches, and a fallback
        // in one of them must leave its neighbours' codes alone.
        for codec in [Sz2::new(), Sz2::with_block_size(1000), Sz2::with_block_size(4)] {
            for (name, data, bound) in cases {
                let packed = codec.compress(data, bound).unwrap();
                let want = compress_reference(&codec, data, bound);
                assert_eq!(packed, want, "{name}, block {}", codec.block);
                if codec.block >= BLOCK && !name.contains("zeros") {
                    assert!(regression_blocks(&packed) > 0, "{name}: no regression block");
                }
            }
        }
    }

    /// Every residual of a regression block exactly half a bin from its
    /// prediction: where round-half-away and round-half-even part ways,
    /// so the batch must stand down and the scalar path decide.
    #[test]
    fn exact_half_bin_residuals_match_the_scalar_reference() {
        // Period 8, zero mean, zero first moment: the least-squares fit
        // is exactly a = 0, b = 1, and the pattern wiggles enough that
        // the fit still beats the previous-value predictor.
        let pattern = [1.25f32, 0.75, 1.25, 0.75, 0.75, 1.25, 0.75, 1.25];
        let data: Vec<f32> = pattern.iter().copied().cycle().take(BLOCK * 4).collect();
        assert_eq!(fit_line(&data[..BLOCK]), (0.0, 1.0));
        // eb = 0.25: bins are 0.5 wide, residuals are +-0.25.
        let bound = ErrorBound::Absolute(0.25);
        let codec = Sz2::new();
        let packed = codec.compress(&data, bound).unwrap();
        assert_eq!(regression_blocks(&packed), 4);
        assert_eq!(packed, compress_reference(&codec, &data, bound));
        // Half away from zero: every value lands a whole bin from 1.0.
        let restored = codec.decompress(&packed).unwrap();
        assert!(restored.iter().all(|&v| v == 1.5 || v == 0.5), "{:?}", &restored[..8]);
    }
}
