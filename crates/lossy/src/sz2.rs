//! SZ2-class compressor: block prediction + quantization + Huffman + LZ.
//!
//! Mirrors the published SZ2 design (Liang et al., IEEE Big Data 2018)
//! restricted to 1D data, which is how FedSZ uses it on flattened weight
//! tensors: data is cut into small blocks, each block chooses the
//! cheapest of three predictors, and the prediction residuals go into
//! the frame's residual container (`frame.rs`: `2*eb` bins, Huffman, a
//! zstd-class backend, out-of-range values verbatim).
//!
//! The predictors, by what a block pays for them:
//!
//! * **constant** — the tensor's mean, written once in the header: no
//!   bytes per block. Flattened weights and updates carry no neighbour
//!   correlation, so this is what almost every block of one picks.
//! * **Lorenzo** — the previous reconstructed value: no bytes per block
//!   either, and the winner on smooth data.
//! * **regression** — a least-squares line over the block-local index:
//!   two `f32` coefficients per block, so it has to save their 64 bits
//!   in residual codes before it is chosen.
//!
//! The choice is made on estimated coded bits, `n·log2(1 + Σ|r|/(n·eb))`
//! for a block of `n` residuals `r`, plus 64 for regression. The
//! quantizer alone enforces the bound: a predictor only moves bytes.
//!
//! # Stream layout (version 2)
//!
//! The frame's header (`frame.rs`), `f64 eb | uvarint block | f32 mean`
//! and, unless `n` is zero, the residual container with two sections:
//!
//! ```text
//! block flags    one prefix code per block, MSB first:
//!                0 constant, 10 Lorenzo, 11 regression
//! coefficients   f32 a, f32 b per regression block
//! ```
//!
//! Version 1 (one flag bit per block, no mean, no constant predictor) is
//! refused with [`CodecError::UnsupportedVersion`].

use crate::frame::{
    bound_as_f32, read_bound, read_header, resolve_bound, write_header, Container, Quantization,
};
use crate::{ErrorBound, ErrorBounded, LossyError, LossyKind};
use fedsz_codec::bitio::{BitReader, BitWriter};
use fedsz_codec::simd::{self, Kernel};
use fedsz_codec::varint::{read_f32, read_uvarint, write_f32, write_f64, write_uvarint};
use fedsz_codec::{CodecError, Result};

/// Elements per prediction block.
const BLOCK: usize = 128;
/// Elements quantized per [`Quantizer::quantize_batch`] call: a whole
/// default block. A larger custom block goes through in several runs.
const BATCH: usize = BLOCK;
/// Independent accumulators of every selection sum. Fixed, so the sums —
/// and with them the stream — are the same bits on any host, whatever
/// its vector width.
const LANES: usize = 8;
/// What a regression block pays for its two `f32` coefficients.
const COEFF_BITS: f64 = 64.0;

/// Per-block predictor choice.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Predictor {
    /// The tensor's mean, from the stream header.
    Constant,
    /// Previous reconstructed value.
    Lorenzo,
    /// `a * i + b` over the block-local index.
    Regression { a: f32, b: f32 },
}

impl Predictor {
    /// The block's flag: a prefix code, most significant bit first, the
    /// shortest for the predictor FL tensors pick.
    fn flag(self) -> (u64, u32) {
        match self {
            Self::Constant => (0b0, 1),
            Self::Lorenzo => (0b10, 2),
            Self::Regression { .. } => (0b11, 2),
        }
    }
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
    hybrid: bool,
    /// [`regression_margin`] of a whole block, worked out once: every
    /// block but a short last one compares against it.
    margin: f64,
}

impl Sz2 {
    /// Creates the codec with the default block size (128) and the
    /// hybrid constant/Lorenzo/regression predictor.
    pub fn new() -> Self {
        Self::with_block_size(BLOCK)
    }

    /// Creates the codec with a custom block size.
    ///
    /// # Panics
    ///
    /// Panics if `block` is smaller than 4.
    pub fn with_block_size(block: usize) -> Self {
        assert!(block >= 4, "block size must be at least 4");
        Self { block, hybrid: true, margin: regression_margin(block) }
    }

    /// Disables the per-block choice, leaving pure Lorenzo — the
    /// ablation knob for SZ2's hybrid-prediction design choice.
    pub fn lorenzo_only(mut self) -> Self {
        self.hybrid = false;
        self
    }
}

impl Default for Sz2 {
    fn default() -> Self {
        Self::new()
    }
}

/// `Σ term(i, values[i], values[i - 1])`, with `before` standing in for
/// the element ahead of the first. Element `i` goes to accumulator
/// `(i - 1) % LANES` and the accumulators are added in order: no chain
/// of dependent additions longer than `len / LANES`, and one fixed
/// summation order whatever the host vectorizes.
#[inline(always)]
fn lane_sum(values: &[f32], before: f32, term: impl Fn(f64, f64, f64) -> f64) -> f64 {
    let Some((&first, rest)) = values.split_first() else {
        return 0.0;
    };
    let prev = &values[..rest.len()];
    let mut acc = [0.0f64; LANES];
    acc[0] = term(0.0, first.into(), before.into());
    let mut index: [f64; LANES] = std::array::from_fn(|lane| (lane + 1) as f64);
    let whole = rest.len() - rest.len() % LANES;
    for (values, prev) in rest[..whole].chunks_exact(LANES).zip(prev[..whole].chunks_exact(LANES)) {
        for (((acc, index), &v), &p) in acc.iter_mut().zip(&mut index).zip(values).zip(prev) {
            *acc += term(*index, v.into(), p.into());
            *index += LANES as f64;
        }
    }
    for (((acc, &index), &v), &p) in
        acc.iter_mut().zip(&index).zip(&rest[whole..]).zip(&prev[whole..])
    {
        *acc += term(index, v.into(), p.into());
    }
    acc.iter().sum()
}

/// Least-squares line fit over `(0..len, values)`.
#[inline(always)]
fn fit_line(values: &[f32]) -> (f32, f32) {
    let n = values.len() as f64;
    if values.len() < 2 {
        return (0.0, values.first().copied().unwrap_or(0.0));
    }
    let sum = lane_sum(values, 0.0, |_, v, _| v);
    let weighted = lane_sum(values, 0.0, |i, v, _| i * v);
    let mean_x = (n - 1.0) / 2.0;
    // Σ(i − mean_x)² over 0..n, in closed form.
    let sxx = n * (n * n - 1.0) / 12.0;
    let a = (weighted - mean_x * sum) / sxx;
    let b = sum / n - a * mean_x;
    (a as f32, b as f32)
}

/// `2^(COEFF_BITS / n)`: how many times smaller regression must make an
/// `n`-element block's `n·eb + Σ|r|` to save its coefficients' bits —
/// the comparison of two `n·log2(1 + Σ|r|/(n·eb))` estimates, solved for
/// the sums so that no block takes a logarithm. Plain arithmetic and no
/// libm call, so every host computes the same bits.
fn regression_margin(n: usize) -> f64 {
    let exponent = COEFF_BITS / n as f64;
    let whole = exponent.floor();
    // `e^x` by its series, innermost term first: `x < ln 2`, so the
    // terms past the twentieth are below an `f64`'s last bit.
    let x = (exponent - whole) * std::f64::consts::LN_2;
    let series = (1..=20).rev().fold(1.0, |tail, k| 1.0 + tail * x / f64::from(k));
    series * 2f64.powi(whole as i32)
}

impl Sz2 {
    /// Picks the block's predictor by estimated coded bits, on original
    /// values: the Lorenzo sum uses the previous original as a stand-in
    /// for the reconstruction. The two free predictors compare by
    /// `Σ|r|` alone; regression must beat the better of them by its
    /// [`regression_margin`].
    #[inline(always)]
    fn choose_predictor(&self, chunk: &[f32], mean: f32, eb: f32, last_recon: f32) -> Predictor {
        if !self.hybrid {
            return Predictor::Lorenzo;
        }
        let mu = f64::from(mean);
        let constant = lane_sum(chunk, 0.0, |_, v, _| (v - mu).abs());
        let lorenzo = lane_sum(chunk, last_recon, |_, v, prev| (v - prev).abs());
        let (a, b) = fit_line(chunk);
        let (slope, offset) = (f64::from(a), f64::from(b));
        let regression = lane_sum(chunk, 0.0, |i, v, _| (v - (slope * i + offset)).abs());

        let floor = chunk.len() as f64 * f64::from(eb);
        let margin =
            if chunk.len() == self.block { self.margin } else { regression_margin(chunk.len()) };
        if floor + constant.min(lorenzo) > margin * (floor + regression) {
            Predictor::Regression { a, b }
        } else if constant <= lorenzo {
            Predictor::Constant
        } else {
            Predictor::Lorenzo
        }
    }
}

/// The tensor's mean: the constant predictor.
#[inline(always)]
fn mean_of(data: &[f32]) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    (lane_sum(data, 0.0, |_, v, _| v) / data.len() as f64) as f32
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
        simd::dispatch(Encode { codec: self, data, bound }).map(Encoded::finish)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f32>> {
        match Stream::read(bytes)? {
            Some(stream) => simd::dispatch(Decode(&stream)),
            None => Ok(Vec::new()),
        }
    }
}

/// [`Sz2::compress`]'s own loops — the scan, the mean, and per block
/// the predictor choice and the quantization — dispatched once per
/// tensor ([`simd::dispatch`]). The container's Huffman and LZ stages
/// dispatch their own ([`Encoded::finish`]).
struct Encode<'a> {
    codec: &'a Sz2,
    data: &'a [f32],
    bound: ErrorBound,
}

/// What [`Encode`] makes of a tensor.
struct Encoded {
    /// The stream up to its residual container.
    out: Vec<u8>,
    /// The container's codes and raw values, and its two sections:
    /// `None` for an empty tensor, whose stream ends at its header.
    container: Option<(Quantization, [Vec<u8>; 2])>,
}

impl Encoded {
    /// The whole stream.
    fn finish(self) -> Vec<u8> {
        let Self { mut out, container } = self;
        if let Some((quantized, [flags, coeffs])) = container {
            quantized.finish(&[&flags, &coeffs], &mut out);
        }
        out
    }
}

impl Kernel for Encode<'_> {
    type Output = std::result::Result<Encoded, LossyError>;

    #[inline(always)]
    fn run(self) -> Self::Output {
        let Self { codec, data, bound } = self;
        let eb = bound_as_f32(resolve_bound(data, bound)?);
        let mean = mean_of(data);

        let mut out = write_header(LossyKind::Sz2, data.len());
        write_f64(&mut out, f64::from(eb));
        write_uvarint(&mut out, codec.block as u64);
        write_f32(&mut out, mean);
        if data.is_empty() {
            return Ok(Encoded { out, container: None });
        }

        let mut quantized = Quantization::new(eb, data.len());
        let mut flags = BitWriter::with_capacity(data.len().div_ceil(codec.block).div_ceil(4));
        let mut coeffs: Vec<u8> = Vec::new();

        let constant = [mean; BATCH];
        let mut line = [0.0f32; BATCH];
        for chunk in data.chunks(codec.block) {
            let predictor = codec.choose_predictor(chunk, mean, eb, quantized.last_recon);
            let (flag, bits) = predictor.flag();
            flags.write_bits(flag, bits);
            match predictor {
                Predictor::Constant => {
                    for run in chunk.chunks(BATCH) {
                        quantized.push_run(&constant[..run.len()], run);
                    }
                }
                Predictor::Lorenzo => {
                    for &v in chunk {
                        quantized.push(quantized.last_recon, v);
                    }
                }
                Predictor::Regression { a, b } => {
                    write_f32(&mut coeffs, a);
                    write_f32(&mut coeffs, b);
                    for (k, run) in chunk.chunks(BATCH).enumerate() {
                        let line = &mut line[..run.len()];
                        for (i, pred) in line.iter_mut().enumerate() {
                            *pred = a * (k * BATCH + i) as f32 + b;
                        }
                        quantized.push_run(line, run);
                    }
                }
            }
        }
        Ok(Encoded { out, container: Some((quantized, [flags.into_bytes(), coeffs])) })
    }
}

/// A non-empty stream's header fields and its residual container,
/// read and checked.
struct Stream {
    eb: f32,
    block: usize,
    mean: f32,
    container: Container,
}

impl Stream {
    /// `None` for a stream of no elements.
    fn read(bytes: &[u8]) -> Result<Option<Self>> {
        let (n, mut pos) = read_header(bytes, LossyKind::Sz2)?;
        let eb = read_bound(bytes, &mut pos)?;
        let block = read_uvarint(bytes, &mut pos)? as usize;
        let mean = read_f32(bytes, &mut pos)?;
        if n == 0 {
            return Ok(None);
        }
        if !mean.is_finite() {
            return Err(CodecError::Corrupt("non-finite mean in header"));
        }
        if block < 4 {
            return Err(CodecError::Corrupt("invalid block size in header"));
        }
        let container = Container::read(bytes, &mut pos, n, 2)?;
        // Two bits per block at most.
        if container.section(0).len() > n.div_ceil(block).div_ceil(4) {
            return Err(CodecError::Corrupt("more block flags than blocks"));
        }
        Ok(Some(Self { eb, block, mean, container }))
    }
}

/// [`Sz2::decompress`]'s reconstruction, dispatched once per tensor
/// ([`simd::dispatch`]). A constant or regression block's predictions
/// do not depend on each other, so it is dequantized without a branch
/// ([`Dequantizer::run`]); a Lorenzo block is one chain.
struct Decode<'a>(&'a Stream);

impl Kernel for Decode<'_> {
    type Output = Result<Vec<f32>>;

    #[inline(always)]
    fn run(self) -> Result<Vec<f32>> {
        let Stream { eb, block, mean, ref container } = *self.0;
        let coeff_bytes = container.section(1);
        let mut flags = BitReader::new(container.section(0));
        let mut cpos = 0usize;
        let mut values = container.values(eb);
        let mut out = vec![0.0f32; container.codes.len()];
        let mut last_recon = 0.0f32;
        for (codes, out) in container.codes.chunks(block).zip(out.chunks_mut(block)) {
            // The prefix code of `Predictor::flag`.
            if !flags.read_bit()? {
                values.run(|_| mean, codes, out);
            } else if !flags.read_bit()? {
                for (out, &code) in out.iter_mut().zip(codes) {
                    last_recon = values.value(last_recon, code);
                    *out = last_recon;
                }
            } else {
                let a = read_f32(coeff_bytes, &mut cpos)?;
                let b = read_f32(coeff_bytes, &mut cpos)?;
                values.run(|i| a * i as f32 + b, codes, out);
            }
            last_recon = out[out.len() - 1];
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::with_forged_inner;
    use fedsz_codec::huffman;
    use fedsz_codec::quantizer::{Quantized, Quantizer};
    use fedsz_codec::stats::max_abs_error;
    use fedsz_lossless::{Lossless, ZstdLike};

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

    /// Noise around a slow drift: the texture of flattened weights. With
    /// no drift the tensor's mean is every block's best predictor; with
    /// it, blocks away from the mean go to Lorenzo or the line fit.
    fn weight_like(n: usize, seed: u64, drift: f32) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let noise = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                0.05 * noise + drift * i as f32
            })
            .collect()
    }

    /// A stream's element count and block size, and the byte offset of
    /// its header mean.
    fn header(stream: &[u8]) -> (usize, usize, usize) {
        let (n, mut pos) = read_header(stream, LossyKind::Sz2).unwrap();
        pos += 8;
        let block = read_uvarint(stream, &mut pos).unwrap() as usize;
        (n, block, pos)
    }

    /// How many of a stream's blocks chose the constant, the Lorenzo
    /// and the regression predictor.
    fn predictor_blocks(stream: &[u8]) -> [usize; 3] {
        let (n, block, mean_at) = header(stream);
        let container = Container::read(stream, &mut (mean_at + 4), n, 2).unwrap();
        let mut flags = BitReader::new(container.section(0));
        let mut counts = [0; 3];
        for _ in 0..n.div_ceil(block) {
            let long = flags.read_bit().unwrap();
            counts[usize::from(long) + usize::from(long && flags.read_bit().unwrap())] += 1;
        }
        counts
    }

    /// The selection bug this format fixed: pricing regression by its
    /// residuals alone made hybrid ship a line per block of a ramp
    /// (121x) where Lorenzo alone reached 57,000x.
    #[test]
    fn hybrid_never_loses_to_lorenzo_only() {
        let packed_len = |codec: Sz2, data: &[f32]| {
            let packed = codec.compress(data, ErrorBound::Relative(1e-2)).unwrap();
            let restored = codec.decompress(&packed).unwrap();
            let eb = ErrorBound::Relative(1e-2).absolute_for(data).unwrap() as f32;
            assert!(max_abs_error(data, &restored) <= eb);
            packed.len() as f64
        };
        let ramp: Vec<f32> = (0..1 << 16).map(|i| 0.1 + i as f32 * 1e-5).collect();
        let (hybrid, lorenzo) =
            (packed_len(Sz2::new(), &ramp), packed_len(Sz2::new().lorenzo_only(), &ramp));
        assert!(hybrid <= 1.1 * lorenzo, "ramp: hybrid {hybrid} B, lorenzo-only {lorenzo} B");
        for drift in [0.0, 1e-5] {
            let weights = weight_like(1 << 16, 5, drift);
            let (hybrid, lorenzo) =
                (packed_len(Sz2::new(), &weights), packed_len(Sz2::new().lorenzo_only(), &weights));
            assert!(
                hybrid <= lorenzo,
                "drift {drift}: hybrid {hybrid} B, lorenzo-only {lorenzo} B"
            );
        }
    }

    /// A steep trend per block under noise of a few bins: the tensor's
    /// mean cannot follow it and every Lorenzo residual carries the
    /// slope, so the line is worth its 64 bits.
    #[test]
    fn block_local_trends_pick_regression() {
        let noise = weight_like(BLOCK * 64, 11, 0.0);
        let data: Vec<f32> = noise
            .iter()
            .enumerate()
            .map(|(i, &e)| {
                let (block, at) = (i / BLOCK, (i % BLOCK) as f32);
                let slope = if block % 2 == 0 { 0.02 } else { -0.013 };
                0.1 * e + slope * at
            })
            .collect();
        let bound = ErrorBound::Absolute(1e-3);
        let hybrid = Sz2::new().compress(&data, bound).unwrap();
        let lorenzo = Sz2::new().lorenzo_only().compress(&data, bound).unwrap();
        assert_eq!(predictor_blocks(&hybrid), [0, 0, 64]);
        assert!(hybrid.len() < lorenzo.len(), "{} vs {} B", hybrid.len(), lorenzo.len());
        check_bound(&data, 1e-3);
    }

    /// The bound is the `f64` that was asked for, not the nearest `f32`
    /// to it: uniform residuals over a million elements fill the
    /// quantizer's bound to the last bit.
    #[test]
    fn the_f32_bound_never_exceeds_the_one_asked_for() {
        let data = weight_like(1 << 20, 21, 0.0);
        let codec = Sz2::new();
        // REL bounds whose nearest `f32` is above them, and below.
        for rel in [1e-2, 3e-3, 1e-3] {
            let bound = ErrorBound::Relative(rel);
            let asked = bound.absolute_for(&data).unwrap();
            assert!(f64::from(bound_as_f32(asked)) <= asked);
            let restored = codec.decompress(&codec.compress(&data, bound).unwrap()).unwrap();
            let errors = data.iter().zip(&restored).map(|(&x, &y)| f64::from(x) - f64::from(y));
            let worst = errors.fold(0.0, |worst, e| e.abs().max(worst));
            assert!(worst <= asked, "REL {rel}: {worst} > {asked}");
        }
        assert_eq!(bound_as_f32(1e300), f32::MAX);
        assert_eq!(bound_as_f32(1e-300), f32::MIN_POSITIVE);
        assert_eq!(bound_as_f32(0.25), 0.25);
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
    fn version_1_streams_are_refused() {
        let data = weight_like(300, 4, 0.0);
        let codec = Sz2::new();
        let mut stream = codec.compress(&data, ErrorBound::Relative(1e-2)).unwrap();
        assert_eq!(crate::declared_len(&stream).unwrap(), data.len());
        stream[1] = 1;
        assert_eq!(codec.decompress(&stream), Err(CodecError::UnsupportedVersion(1)));
    }

    #[test]
    fn non_finite_header_mean_is_corrupt() {
        let codec = Sz2::new();
        let stream = codec.compress(&weight_like(300, 4, 0.0), ErrorBound::Relative(1e-2)).unwrap();
        let (_, _, at) = header(&stream);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut forged = stream.clone();
            forged[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            assert!(matches!(codec.decompress(&forged), Err(CodecError::Corrupt(_))), "{bad}");
        }
    }

    #[test]
    fn flag_bytes_are_bounded_by_the_block_count() {
        let codec = Sz2::new();
        // Three blocks: one flag byte.
        let stream = codec.compress(&weight_like(300, 4, 0.0), ErrorBound::Relative(1e-2)).unwrap();
        let at = header(&stream).2 + 4;
        let flags = Container::read(&stream, &mut at.clone(), 300, 2).unwrap().section(0).to_vec();
        assert_eq!(flags.len(), 1);
        let rebuilt = |flags: &[u8]| {
            with_forged_inner(&stream, at, 2, |inner, _| {
                // The honest section: a length byte and the flag byte.
                inner.splice(..2, [&[flags.len() as u8], flags].concat());
            })
        };
        assert_eq!(rebuilt(&flags), stream);
        assert_eq!(
            codec.decompress(&rebuilt(&[flags[0], 0])),
            Err(CodecError::Corrupt("more block flags than blocks"))
        );
        assert_eq!(codec.decompress(&rebuilt(&[])), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn fit_line_recovers_slope() {
        let values: Vec<f32> = (0..100).map(|i| 2.0 + 0.5 * i as f32).collect();
        let (a, b) = fit_line(&values);
        assert!((a - 0.5).abs() < 1e-4);
        assert!((b - 2.0).abs() < 1e-3);
    }

    #[test]
    fn regression_margin_is_two_to_the_coefficient_bits_per_element() {
        assert_eq!(regression_margin(64), 2.0);
        assert_eq!(regression_margin(1), 2f64.powi(64));
        assert!((regression_margin(128) - std::f64::consts::SQRT_2).abs() < 1e-15);
        assert!((regression_margin(1000).powi(1000) / 2f64.powi(64) - 1.0).abs() < 1e-12);
    }

    /// SZ2's encoder without batching: the same predictor choice, then
    /// one `Quantizer::quantize` per element and a Huffman stage that
    /// counts its own symbols. The oracle for the tests below.
    fn compress_reference(codec: &Sz2, data: &[f32], bound: ErrorBound) -> Vec<u8> {
        let eb = bound_as_f32(bound.absolute_for(data).unwrap());
        let mean = mean_of(data);
        let mut out = write_header(LossyKind::Sz2, data.len());
        write_f64(&mut out, f64::from(eb));
        write_uvarint(&mut out, codec.block as u64);
        write_f32(&mut out, mean);
        let quantizer = Quantizer::new(eb);
        let (mut codes, mut unpredictable) = (Vec::new(), Vec::new());
        let (mut flags, mut coeffs) = (BitWriter::new(), Vec::new());
        let mut last_recon = 0.0f32;
        for chunk in data.chunks(codec.block) {
            let predictor = codec.choose_predictor(chunk, mean, eb, last_recon);
            let (flag, bits) = predictor.flag();
            flags.write_bits(flag, bits);
            if let Predictor::Regression { a, b } = predictor {
                write_f32(&mut coeffs, a);
                write_f32(&mut coeffs, b);
            }
            for (i, &v) in chunk.iter().enumerate() {
                let pred = match predictor {
                    Predictor::Constant => mean,
                    Predictor::Lorenzo => last_recon,
                    Predictor::Regression { a, b } => a * i as f32 + b,
                };
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

    #[test]
    fn batched_blocks_match_the_scalar_reference() {
        // Every 211th value far outside the quantizer's range.
        let with_spikes = |mut data: Vec<f32>| {
            for i in (0..data.len()).step_by(211) {
                data[i] = if i % 2 == 0 { 40.0 } else { -40.0 };
            }
            data
        };
        let spiked = with_spikes(weight_like(5000, 7, 1e-5));
        let centred_spiked = with_spikes(weight_like(5000, 8, 0.0));
        let mut zeros = weight_like(3000, 9, 1e-5);
        for (i, v) in zeros.iter_mut().enumerate().filter(|(i, _)| i % 5 < 2) {
            *v = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        let cases: [(&str, &[f32], ErrorBound); 8] = [
            ("weights, REL 1e-2", &weight_like(20_000, 1, 1e-5), ErrorBound::Relative(1e-2)),
            ("weights, REL 1e-4", &weight_like(20_000, 2, 1e-5), ErrorBound::Relative(1e-4)),
            ("centred weights, REL 1e-2", &weight_like(20_000, 4, 0.0), ErrorBound::Relative(1e-2)),
            // The spikes fall out of the quantizer's range inside
            // constant and regression blocks: those batches fall back,
            // the rest do not.
            ("spikes, ABS 1e-5", &spiked, ErrorBound::Absolute(1e-5)),
            ("spikes, REL 1e-3", &spiked, ErrorBound::Relative(1e-3)),
            ("centred spikes, ABS 1e-5", &centred_spiked, ErrorBound::Absolute(1e-5)),
            ("signed zeros", &zeros, ErrorBound::Absolute(1e-3)),
            ("short tail block", &weight_like(128 * 3 + 5, 3, 1e-5), ErrorBound::Relative(1e-2)),
        ];
        // 1000 > BATCH: one block spans several batches, and a fallback
        // in one of them must leave its neighbours' codes alone.
        for codec in [Sz2::new(), Sz2::with_block_size(1000), Sz2::with_block_size(4)] {
            let mut chosen = [0; 3];
            for (name, data, bound) in cases {
                let packed = codec.compress(data, bound).unwrap();
                let want = compress_reference(&codec, data, bound);
                assert_eq!(packed, want, "{name}, block {}", codec.block);
                let blocks = predictor_blocks(&packed);
                if name.contains("centred") {
                    assert!(blocks[0] > 0, "{name}, block {}: no constant block", codec.block);
                }
                chosen = [0, 1, 2].map(|k| chosen[k] + blocks[k]);
            }
            // All three predictors occur at the default block size; a
            // 4-element block never earns two coefficients back, and a
            // 1000-element block's fit always beats Lorenzo here.
            let [constant, lorenzo, regression] = chosen.map(|blocks| blocks > 0);
            assert!(constant, "block {}: {chosen:?}", codec.block);
            assert_eq!(lorenzo, codec.block <= BLOCK, "block {}: {chosen:?}", codec.block);
            assert_eq!(regression, codec.block >= BLOCK, "block {}: {chosen:?}", codec.block);
        }
    }

    /// Every residual of a batched block exactly half a bin from its
    /// prediction: where round-half-away and round-half-even part ways,
    /// so the batch must stand down and the scalar path decide.
    #[test]
    fn exact_half_bin_residuals_match_the_scalar_reference() {
        // Period 8, zero mean, zero first moment: the tensor's mean is
        // exactly 1 and a block's least-squares fit exactly a = 0, b = 1.
        let pattern = [1.25f32, 0.75, 1.25, 0.75, 0.75, 1.25, 0.75, 1.25];
        let low: Vec<f32> = pattern.iter().copied().cycle().take(BLOCK * 4).collect();
        assert_eq!(fit_line(&low[..BLOCK]), (0.0, 1.0));
        assert_eq!(mean_of(&low), 1.0);
        // eb = 0.25: bins are 0.5 wide, residuals are +-0.25.
        let bound = ErrorBound::Absolute(0.25);

        // Constant blocks: the mean costs nothing and predicts as well
        // as the line.
        let codec = Sz2::new();
        let packed = codec.compress(&low, bound).unwrap();
        assert_eq!(predictor_blocks(&packed), [4, 0, 0]);
        assert_eq!(packed, compress_reference(&codec, &low, bound));
        // Half away from zero: every value lands a whole bin from 1.0.
        let restored = codec.decompress(&packed).unwrap();
        assert!(restored.iter().all(|&v| v == 1.5 || v == 0.5), "{:?}", &restored[..8]);

        // Regression blocks: a second stretch 8 higher pulls the mean
        // to 5, away from both, and a 512-element block spreads the
        // coefficients thin enough to beat Lorenzo.
        let both: Vec<f32> = low.iter().copied().chain(low.iter().map(|v| v + 8.0)).collect();
        let codec = Sz2::with_block_size(BLOCK * 4);
        let packed = codec.compress(&both, bound).unwrap();
        assert_eq!(predictor_blocks(&packed), [0, 0, 2]);
        assert_eq!(packed, compress_reference(&codec, &both, bound));
        let restored = codec.decompress(&packed).unwrap();
        let (low, high) = restored.split_at(BLOCK * 4);
        assert!(low.iter().all(|&v| v == 1.5 || v == 0.5), "{:?}", &low[..8]);
        assert!(high.iter().all(|&v| v == 9.5 || v == 8.5), "{:?}", &high[..8]);
    }

    /// Both copies of the encoder, then of the decoder on what they
    /// wrote, agree on `data`: the same stream or error, and the same
    /// bits decoded. Returns the stream, or `None` on a host without
    /// AVX2.
    fn assert_copies_agree(codec: &Sz2, data: &[f32], bound: ErrorBound) -> Option<Vec<u8>> {
        let encode = || Encode { codec, data, bound };
        let Some(avx2) = simd::avx2(encode()) else {
            println!("skipped: this host has no AVX2, so the portable copy is the only path");
            return None;
        };
        let portable = encode().run().map(Encoded::finish);
        assert_eq!(avx2.map(Encoded::finish), portable, "{} elements, {bound}", data.len());
        let stream = portable.ok()?;
        if let Some(read) = Stream::read(&stream).unwrap() {
            let bits = |values: Vec<f32>| values.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            let portable = bits(Decode(&read).run().unwrap());
            let avx2 = bits(simd::avx2(Decode(&read)).unwrap().unwrap());
            assert_eq!(avx2, portable, "{} elements, {bound}", data.len());
            assert_eq!(portable.len(), data.len());
        }
        Some(stream)
    }

    /// Whether `stream` keeps some value verbatim.
    fn has_unpredictables(stream: &[u8]) -> bool {
        let read = Stream::read(stream).unwrap().unwrap();
        read.container.codes.contains(&Quantizer::UNPREDICTABLE)
    }

    #[test]
    fn avx2_copies_match_the_portable_ones() {
        let rel = ErrorBound::Relative(1e-2);
        let trend: Vec<f32> = weight_like(BLOCK * 9 + 3, 11, 0.0)
            .iter()
            .enumerate()
            .map(|(i, &e)| {
                let slope = if (i / BLOCK).is_multiple_of(2) { 0.02 } else { -0.013 };
                0.1 * e + slope * i as f32
            })
            .collect();
        let mut spiked = weight_like(5000, 7, 1e-5);
        for i in (0..spiked.len()).step_by(97) {
            spiked[i] = if i % 2 == 0 { 40.0 } else { -40.0 };
        }
        let ties: Vec<f32> =
            [1.25f32, 0.75, 1.25, 0.75, 0.75, 1.25, 0.75, 1.25].repeat(BLOCK / 2 + 1);
        let cases: [(&str, Sz2, &[f32], ErrorBound); 10] = [
            ("short last block", Sz2::new(), &weight_like(BLOCK * 5 + 17, 1, 0.0), rel),
            ("drift", Sz2::new(), &weight_like(20_000, 2, 1e-5), rel),
            ("block longer than a batch", Sz2::with_block_size(200), &trend, rel),
            ("block of 4", Sz2::with_block_size(4), &weight_like(1001, 3, 1e-5), rel),
            ("lorenzo only", Sz2::new().lorenzo_only(), &weight_like(3000, 4, 1e-5), rel),
            ("regression", Sz2::new(), &trend, ErrorBound::Absolute(1e-3)),
            ("tight ABS bound", Sz2::new(), &spiked, ErrorBound::Absolute(1e-5)),
            ("rounding ties", Sz2::new(), &ties, ErrorBound::Absolute(0.25)),
            ("constant tensor", Sz2::new(), &[0.3; 1000], rel),
            ("empty", Sz2::new(), &[], rel),
        ];
        for (name, codec, data, bound) in cases {
            println!("{name}");
            let Some(stream) = assert_copies_agree(&codec, data, bound) else { return };
            match name {
                "tight ABS bound" => assert!(has_unpredictables(&stream)),
                "regression" => assert!(predictor_blocks(&stream)[2] > 0),
                "drift" => assert!(predictor_blocks(&stream).iter().all(|&blocks| blocks > 0)),
                _ => {}
            }
        }
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut data = weight_like(300, 5, 0.0);
            data[201] = bad;
            assert_copies_agree(&Sz2::new(), &data, rel);
            let refused = Encode { codec: &Sz2::new(), data: &data, bound: rel }.run();
            assert!(matches!(refused, Err(LossyError::NonFiniteInput)), "{bad}");
        }
    }

    /// CI's `codec-smoke` job runs this in release mode; debug timings
    /// mean nothing. A ratio of the two copies of SZ2's own loops, the
    /// encoder's and the decoder's, on one 4 M-element weight-like
    /// tensor at REL 1e-2. The container's Huffman and LZ stages run
    /// the same code under both and are left out of the timing.
    #[test]
    #[ignore = "a timing ratio: run with --release -- --ignored"]
    fn avx2_sz2_is_1_2x_the_portable_copy() {
        let data = weight_like(4 << 20, 29, 0.0);
        let (codec, bound) = (Sz2::new(), ErrorBound::Relative(1e-2));
        let encode = || Encode { codec: &codec, data: &data, bound };
        let Some(encoded) = simd::avx2(encode()) else {
            println!("skipped: this host has no AVX2, so the portable copy is the only path");
            return;
        };
        let stream = encoded.unwrap().finish();
        let read = Stream::read(&stream).unwrap().unwrap();
        let round_trip = |avx2: bool| {
            let t0 = std::time::Instant::now();
            if avx2 {
                std::hint::black_box(simd::avx2(encode()).unwrap().unwrap());
                std::hint::black_box(simd::avx2(Decode(&read)).unwrap().unwrap());
            } else {
                std::hint::black_box(encode().run().unwrap());
                std::hint::black_box(Decode(&read).run().unwrap());
            }
            t0.elapsed().as_secs_f64()
        };
        let best = |avx2| (0..5).map(|_| round_trip(avx2)).fold(f64::INFINITY, f64::min);
        let (portable, avx2) = (best(false), best(true));
        let mbps = |secs: f64| (4 * data.len()) as f64 / secs / 1e6;
        println!(
            "AVX2 {:.0} MB/s, portable {:.0} MB/s: {:.2}x",
            mbps(avx2),
            mbps(portable),
            portable / avx2
        );
        assert!(portable >= 1.2 * avx2, "AVX2 copy only {:.2}x the portable one", portable / avx2);
    }
}
