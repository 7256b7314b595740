//! The EBLC frame: what every stream of this crate shares, written once,
//! so that a codec's own file is its predictor and the fields only it
//! needs.
//!
//! # Header
//!
//! ```text
//! u8 id | u8 version | uvarint n
//! ```
//!
//! [`LossyKind::id`], the family's current stream version (a decoder
//! refuses any other: streams live for one upload and nothing stores
//! them) and the element count; what follows is the codec's own. `n`
//! comes from a peer, so no decoder reserves for it before something
//! the receiver holds backs it: the decoded codes ([`Container::read`])
//! or the bytes that remain ([`check_count`]).
//!
//! # Bound
//!
//! [`resolve_bound`] turns an [`ErrorBound`] into the absolute `f64`
//! epsilon, in the pass that also rejects non-finite input. The
//! quantizer works in `f32` and [`bound_as_f32`] is the one conversion —
//! rounded *down*, because the quantizer fills its bound to the last
//! bit and the nearest `f32` can sit above the `f64` asked for. A stream
//! carries that `f32` widened to `f64 eb`; [`read_bound`] gets it back
//! exactly.
//!
//! # Residual container
//!
//! A prediction-based codec quantizes each residual into a `2 * eb` bin
//! ([`Quantization`]), keeps one outside the quantizer's range verbatim
//! ("unpredictable"), and closes its stream with `uvarint len | packed`,
//! the zstd-class frame of
//!
//! ```text
//! uvarint len | bytes           once per codec section (SZ2: block
//!                               flags, coefficients; SZ3: none)
//! Huffman block                 one code per element, in visiting order
//! uvarint count | f32 values    the unpredictable values, in order
//! ```
//!
//! A decoder runs on a peer's say-so — the FSZ1 header's lossy id picks
//! it, not the plan — so [`Container::read`] checks every length
//! against something known before it sizes a buffer: the frame against
//! the bytes present, the inner stream, the codes and the raw values
//! against `n`.

use crate::{ErrorBound, LossyError, LossyKind};
use fedsz_codec::huffman;
use fedsz_codec::quantizer::{Quantized, Quantizer};
use fedsz_codec::stats::ValueRange;
use fedsz_codec::varint::{
    read_bytes, read_f32_vec, read_f64, read_uvarint, write_bytes, write_f32_slice, write_uvarint,
};
use fedsz_codec::{CodecError, Result};
use fedsz_lossless::{Lossless, ZstdLike};
use std::ops::Range;

/// The stream version a family writes and the only one it reads.
fn version(kind: LossyKind) -> u8 {
    match kind {
        LossyKind::Sz2 => 2,
        LossyKind::Sz3 | LossyKind::Szx | LossyKind::Zfp => 1,
    }
}

/// Starts the stream of `n` elements.
pub(crate) fn write_header(kind: LossyKind, n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n + 32);
    out.push(kind.id());
    out.push(version(kind));
    write_uvarint(&mut out, n as u64);
    out
}

/// Reads the header of a `kind` stream: its element count and the
/// offset of what follows.
pub(crate) fn read_header(stream: &[u8], kind: LossyKind) -> Result<(usize, usize)> {
    let id = *stream.first().ok_or(CodecError::UnexpectedEof)?;
    if id != kind.id() {
        return Err(CodecError::Corrupt("stream of another codec"));
    }
    let found = *stream.get(1).ok_or(CodecError::UnexpectedEof)?;
    if found != version(kind) {
        return Err(CodecError::UnsupportedVersion(found));
    }
    let mut pos = 2;
    let n = usize::try_from(read_uvarint(stream, &mut pos)?)
        .map_err(|_| CodecError::Corrupt("element count overflows usize"))?;
    Ok((n, pos))
}

/// Refuses an element count the payload cannot back: `n` values are
/// coded in groups of `group`, and no group takes fewer than `min_bits`.
pub(crate) fn check_count(n: usize, group: usize, min_bits: usize, payload: &[u8]) -> Result<()> {
    if n.div_ceil(group).saturating_mul(min_bits) > payload.len().saturating_mul(8) {
        return Err(CodecError::Corrupt("element count larger than the stream can back"));
    }
    Ok(())
}

/// Whether every element is finite, and the range they span, in one
/// pass.
pub(crate) fn scan(data: &[f32]) -> std::result::Result<ValueRange, LossyError> {
    // No early exit and eight independent lanes of plain `f32`
    // arithmetic, so the loop vectorizes instead of being one long
    // chain of dependent compares. `v * 0.0` is zero for a finite `v`
    // and NaN otherwise, and a NaN sticks to its lane's sum. (Which of
    // two equal extremes a lane keeps, +0.0 or -0.0 included, cannot
    // change `max - min`.)
    const LANES: usize = 8;
    let mut min = [f32::INFINITY; LANES];
    let mut max = [f32::NEG_INFINITY; LANES];
    let mut poison = [0.0f32; LANES];
    let mut chunks = data.chunks_exact(LANES);
    for chunk in &mut chunks {
        let lanes = min.iter_mut().zip(max.iter_mut()).zip(poison.iter_mut());
        for (((min, max), poison), &v) in lanes.zip(chunk) {
            *min = min.min(v);
            *max = max.max(v);
            *poison += v * 0.0;
        }
    }
    for &v in chunks.remainder() {
        min[0] = min[0].min(v);
        max[0] = max[0].max(v);
        poison[0] += v * 0.0;
    }
    if !poison.iter().all(|&p| p == 0.0) {
        return Err(LossyError::NonFiniteInput);
    }
    let min = min.into_iter().fold(f32::INFINITY, f32::min);
    let max = max.into_iter().fold(f32::NEG_INFINITY, f32::max);
    Ok(ValueRange { min, max })
}

/// Validates input for the SZ-family compressors and resolves the bound.
pub(crate) fn resolve_bound(
    data: &[f32],
    bound: ErrorBound,
) -> std::result::Result<f64, LossyError> {
    let range = scan(data)?;
    match bound {
        ErrorBound::FixedPrecision(_) => Err(LossyError::InvalidBound(bound)),
        // Empty inputs have no range; any positive epsilon works.
        ErrorBound::Absolute(eb) | ErrorBound::Relative(eb) if data.is_empty() => {
            if eb.is_finite() && eb > 0.0 {
                Ok(eb.max(1e-30))
            } else {
                Err(LossyError::InvalidBound(bound))
            }
        }
        _ => bound.absolute_over(Some(range)).ok_or(LossyError::InvalidBound(bound)),
    }
}

/// The bound the quantizer enforces: the largest `f32` not above the one
/// asked for.
pub(crate) fn bound_as_f32(bound: f64) -> f32 {
    let nearest = bound as f32;
    let below = if f64::from(nearest) > bound { nearest.next_down() } else { nearest };
    if below > 0.0 {
        below
    } else {
        f32::MIN_POSITIVE
    }
}

/// Reads the `f64` a quantizing codec wrote its `f32` bound as.
pub(crate) fn read_bound(stream: &[u8], pos: &mut usize) -> Result<f32> {
    let eb = read_f64(stream, pos)? as f32;
    if !(eb.is_finite() && eb > 0.0) {
        return Err(CodecError::Corrupt("invalid error bound in header"));
    }
    Ok(eb)
}

/// The quantizer's output as an encoder accumulates it.
pub(crate) struct Quantization {
    quantizer: Quantizer,
    codes: Vec<u16>,
    unpredictable: Vec<f32>,
    /// What the decoder will hold for the most recent element.
    pub(crate) last_recon: f32,
}

impl Quantization {
    /// An empty run of codes under the bound `eb`, with room for `n`.
    pub(crate) fn new(eb: f32, n: usize) -> Self {
        Self {
            quantizer: Quantizer::new(eb),
            codes: Vec::with_capacity(n),
            unpredictable: Vec::new(),
            last_recon: 0.0,
        }
    }

    /// Quantizes one element against `pred`; returns its reconstruction.
    #[inline]
    pub(crate) fn push(&mut self, pred: f32, value: f32) -> f32 {
        let (code, recon) = match self.quantizer.quantize(pred, value) {
            Quantized::Code { code, reconstructed } => (code, reconstructed),
            Quantized::Unpredictable(raw) => {
                self.unpredictable.push(raw);
                (Quantizer::UNPREDICTABLE, raw)
            }
        };
        self.codes.push(code);
        self.last_recon = recon;
        recon
    }

    /// Quantizes a run whose predictions are all known up front, none of
    /// them reading an earlier reconstruction.
    pub(crate) fn push_run(&mut self, preds: &[f32], values: &[f32]) {
        let start = self.codes.len();
        self.codes.resize(start + values.len(), 0);
        match self.quantizer.quantize_batch(preds, values, &mut self.codes[start..]) {
            Some(last) => self.last_recon = last,
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

    /// Closes `out` with the container: the codec's `sections`, the
    /// Huffman-coded codes and the raw values, through the zstd-class
    /// backend as SZ passes its own Huffman output through zstd.
    pub(crate) fn finish(self, sections: &[&[u8]], out: &mut Vec<u8>) {
        let Self { codes, unpredictable, .. } = self;
        let code_block = huffman::encode_block(&codes);
        drop(codes);
        let side: usize = sections.iter().map(|section| section.len() + 10).sum();
        let mut inner = Vec::with_capacity(side + code_block.len() + 4 * unpredictable.len() + 10);
        for section in sections {
            write_bytes(&mut inner, section);
        }
        inner.extend_from_slice(&code_block);
        drop(code_block);
        write_uvarint(&mut inner, unpredictable.len() as u64);
        write_f32_slice(&mut inner, &unpredictable);
        write_bytes(out, &ZstdLike::new().compress(&inner));
    }
}

/// A residual container, decoded and checked.
pub(crate) struct Container {
    inner: Vec<u8>,
    sections: Vec<Range<usize>>,
    /// One code per element, in the encoder's visiting order.
    pub(crate) codes: Vec<u16>,
    unpredictable: Vec<f32>,
}

impl Container {
    /// Reads the container of an `n`-element stream whose codec wrote
    /// `sections` sections.
    pub(crate) fn read(stream: &[u8], pos: &mut usize, n: usize, sections: usize) -> Result<Self> {
        let packed = read_bytes(stream, pos)?;
        // The inner container holds at most ~8 bytes per element
        // (sections, 16-bit codes, raw unpredictables) plus a Huffman
        // table; a frame claiming more is forged, and LZ expansion is
        // otherwise unbounded.
        if fedsz_lossless::declared_len(packed)? > n.saturating_mul(16).saturating_add(1 << 20) {
            return Err(CodecError::Corrupt("inner stream larger than its element count allows"));
        }
        let inner = ZstdLike::new().decompress(packed)?;

        let mut at = 0usize;
        let mut ranges = Vec::with_capacity(sections);
        for _ in 0..sections {
            let len = read_bytes(&inner, &mut at)?.len();
            ranges.push(at - len..at);
        }
        let codes = huffman::decode_block(&inner, &mut at)?;
        if codes.len() != n {
            return Err(CodecError::Corrupt("code count mismatch"));
        }
        // At most one raw value per element: the count sizes a buffer,
        // so it must be bounded before it is trusted.
        let count = read_uvarint(&inner, &mut at)?;
        if count > n as u64 {
            return Err(CodecError::Corrupt("more unpredictable values than elements"));
        }
        let unpredictable = read_f32_vec(&inner, &mut at, count as usize)?;
        // Settled once, so `values` cannot fail per element.
        if codes.iter().filter(|&&code| code == Quantizer::UNPREDICTABLE).count()
            > unpredictable.len()
        {
            return Err(CodecError::Corrupt("missing unpredictable value"));
        }
        Ok(Self { inner, sections: ranges, codes, unpredictable })
    }

    /// The codec's `k`-th section.
    pub(crate) fn section(&self, k: usize) -> &[u8] {
        &self.inner[self.sections[k].clone()]
    }

    /// The decoder's half of [`Quantization::push`]: maps each code, in
    /// order, and its prediction to the reconstructed value.
    pub(crate) fn values(&self, eb: f32) -> impl FnMut(f32, u16) -> f32 + '_ {
        let quantizer = Quantizer::new(eb);
        let mut raw = self.unpredictable.iter().copied();
        move |pred, code| match code {
            Quantizer::UNPREDICTABLE => raw.next().expect("raw values were counted in `read`"),
            _ => quantizer.dequantize(pred, code),
        }
    }
}

/// `honest` with its container — which starts at `container_at` and
/// holds `sections` sections — rewritten by `forge` and re-packed, the
/// way an attacker who knows the format would. `forge` gets the inner
/// bytes and the offset of the unpredictable count in them.
#[cfg(test)]
pub(crate) fn with_forged_inner(
    honest: &[u8],
    mut container_at: usize,
    sections: usize,
    forge: impl FnOnce(&mut Vec<u8>, usize),
) -> Vec<u8> {
    let mut stream = honest[..container_at].to_vec();
    let packed = read_bytes(honest, &mut container_at).unwrap();
    let mut inner = ZstdLike::new().decompress(packed).unwrap();
    let mut count_at = 0;
    for _ in 0..sections {
        read_bytes(&inner, &mut count_at).unwrap();
    }
    huffman::decode_block(&inner, &mut count_at).unwrap();
    forge(&mut inner, count_at);
    write_bytes(&mut stream, &ZstdLike::new().compress(&inner));
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smooth data with a spike every 41st element, so a tight bound
    /// leaves some values unpredictable.
    fn spiked(n: usize) -> Vec<f32> {
        (0..n).map(|i| if i % 41 == 7 { 900.0 } else { (i as f32 * 0.05).sin() }).collect()
    }

    #[test]
    fn every_family_refuses_another_family_and_another_version() {
        let data = spiked(300);
        for kind in LossyKind::all() {
            let codec = kind.codec();
            let stream = codec.compress(&data, ErrorBound::Absolute(1e-3)).unwrap();
            assert_eq!(read_header(&stream, kind).unwrap().0, data.len());
            for other in LossyKind::all().into_iter().filter(|&other| other != kind) {
                let mut foreign = stream.clone();
                foreign[0] = other.id();
                assert_eq!(
                    codec.decompress(&foreign),
                    Err(CodecError::Corrupt("stream of another codec")),
                    "{kind} given {other}"
                );
            }
            let mut stale = stream.clone();
            stale[1] += 1;
            assert_eq!(codec.decompress(&stale), Err(CodecError::UnsupportedVersion(stale[1])));
            assert_eq!(crate::declared_len(&stale), Err(CodecError::UnsupportedVersion(stale[1])));
            assert_eq!(codec.decompress(&stream[..1]), Err(CodecError::UnexpectedEof));
        }
    }

    /// The SZx and ZFP streams that used to end the process: a header
    /// claiming 2^40 elements, and no payload.
    #[test]
    fn an_element_count_the_bytes_cannot_back_is_refused() {
        let mut count = Vec::new();
        write_uvarint(&mut count, 1 << 40);
        let szx = [&[18, 1][..], &count, &1e-3f64.to_le_bytes(), &[128, 1]].concat();
        let zfp = [&[19, 1][..], &count, &[0, 12]].concat();
        let refused = Err(CodecError::Corrupt("element count larger than the stream can back"));
        assert_eq!(LossyKind::Szx.codec().decompress(&szx), refused);
        assert_eq!(LossyKind::Zfp.codec().decompress(&zfp), refused);
        // A block size no encoder writes, so that 33 bits of constant
        // block could stand for 2^40 values.
        let mut szx = [&[18, 1][..], &count, &1e-3f64.to_le_bytes(), &count].concat();
        szx.extend([0xff; 5]);
        assert_eq!(
            LossyKind::Szx.codec().decompress(&szx),
            Err(CodecError::Corrupt("invalid block size in header"))
        );
        // The cheapest honest streams are within the bound: one bit per
        // all-zero ZFP block, 33 per constant SZx block.
        assert!(check_count(40_000, 4, 1, &[0; 1250]).is_ok());
        assert!(check_count(40_001, 4, 1, &[0; 1250]).is_err());
        assert!(check_count(usize::MAX, 1, 15, &[0; 64]).is_err());
    }

    /// What the every-offset sweeps of `tests/fold_hostile.rs` cannot
    /// reach: the bytes inside the LZ frame. A huge varint over any of
    /// them — a section length, the Huffman table, the code count, the
    /// raw-value count — is an error or decodes; it never sizes a
    /// buffer (2^44 elements would abort the test process).
    #[test]
    fn a_forged_length_anywhere_in_the_container_is_refused_or_harmless() {
        let data = spiked(300);
        // Bytes between the header and the container: SZ2's bound,
        // block size and mean; SZ3's bound.
        for (kind, sections, own) in [(LossyKind::Sz2, 2, 8 + 2 + 4), (LossyKind::Sz3, 0, 8)] {
            let codec = kind.codec();
            let honest = codec.compress(&data, ErrorBound::Absolute(1e-3)).unwrap();
            let container_at = read_header(&honest, kind).unwrap().1 + own;
            let mut inner_len = 0;
            let same = with_forged_inner(&honest, container_at, sections, |inner, count_at| {
                inner_len = inner.len();
                assert!(inner[count_at] > 0, "{kind}: no unpredictable value to forge");
            });
            assert_eq!(same, honest);
            for at in 0..inner_len {
                for forged in [1u64 << 24, 1 << 44, u64::MAX] {
                    let stream = with_forged_inner(&honest, container_at, sections, |inner, _| {
                        let mut varint = Vec::new();
                        write_uvarint(&mut varint, forged);
                        let end = (at + varint.len()).min(inner.len());
                        inner.splice(at..end, varint);
                    });
                    if let Ok(values) = codec.decompress(&stream) {
                        assert_eq!(values.len(), data.len(), "{kind}: {forged:#x} at {at}");
                    }
                }
            }
        }
    }
}
