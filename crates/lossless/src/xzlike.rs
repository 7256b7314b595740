//! Xz-class compressor: deep-search LZ with an adaptive range coder.
//!
//! LZMA (the algorithm inside xz) pairs an exhaustive match search with
//! an adaptive binary range coder and contextual literal models. This
//! reimplementation keeps that structure — per-position is-match model,
//! order-1 contextual literal trees, slot-coded lengths/offsets — which
//! makes it by far the slowest codec here and usually the smallest
//! output, reproducing xz's corner of the paper's Table II.

use crate::frame;
use crate::lz::{copy_match, tokenize, MatchParams, Token};
use crate::{Lossless, LosslessKind};
use fedsz_codec::checksum::crc32;
use fedsz_codec::range::{BitModel, BitTreeModel, RangeDecoder, RangeEncoder};
use fedsz_codec::varint::{read_u32, write_u32};
use fedsz_codec::{CodecError, Result};

/// Number of order-1 literal contexts (top 2 bits of the previous byte).
const LIT_CONTEXTS: usize = 4;

/// Models shared by the encoder and decoder; construction order defines
/// the stream format.
struct Models {
    is_match: BitModel,
    literals: Vec<BitTreeModel>,
    len_slot: BitTreeModel,
    off_slot: BitTreeModel,
}

impl Models {
    fn new() -> Self {
        Self {
            is_match: BitModel::new(),
            literals: (0..LIT_CONTEXTS).map(|_| BitTreeModel::new(8)).collect(),
            len_slot: BitTreeModel::new(6),
            off_slot: BitTreeModel::new(6),
        }
    }
}

/// Slot-codes a value for the range coder: values < 8 are their own
/// slot, larger ones use `5 + floor(log2 v)` with raw extra bits.
#[inline]
fn slot_of(v: u32) -> (u32, u32, u32) {
    if v < 8 {
        (v, 0, 0)
    } else {
        let k = 31 - v.leading_zeros();
        (5 + k, k, v - (1 << k))
    }
}

/// Inverse of [`slot_of`].
#[inline]
fn slot_base(slot: u32) -> Result<(u32, u32)> {
    if slot < 8 {
        Ok((slot, 0))
    } else {
        let k = slot - 5;
        if k >= 32 {
            return Err(CodecError::Corrupt("slot out of range"));
        }
        Ok((1 << k, k))
    }
}

#[inline]
fn lit_context(prev: u8) -> usize {
    usize::from(prev >> 6)
}

/// Deep-search LZ + range coder (xz class).
///
/// # Examples
///
/// ```
/// use fedsz_lossless::{Lossless, XzLike};
///
/// let data = b"slow but thorough, slow but thorough".repeat(4);
/// let codec = XzLike::new();
/// assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
/// ```
#[derive(Debug, Clone, Default)]
pub struct XzLike {
    _private: (),
}

impl XzLike {
    /// Creates the codec.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Lossless for XzLike {
    fn kind(&self) -> LosslessKind {
        LosslessKind::Xz
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let tokens = tokenize(data, &MatchParams::thorough());
        let mut models = Models::new();
        let mut enc = RangeEncoder::new();
        let mut prev_byte = 0u8;
        // The decoder derives the literal context from the last output
        // byte, so the encoder tracks its reconstruction position.
        let mut pos = 0usize;
        for token in &tokens {
            match *token {
                Token::Literals { start, len } => {
                    for &b in &data[start..start + len] {
                        enc.encode_bit(&mut models.is_match, false);
                        models.literals[lit_context(prev_byte)].encode(&mut enc, u32::from(b));
                        prev_byte = b;
                    }
                    pos = start + len;
                }
                Token::Match { len, dist } => {
                    enc.encode_bit(&mut models.is_match, true);
                    let (slot, ebits, extra) = slot_of(len as u32);
                    models.len_slot.encode(&mut enc, slot);
                    if ebits > 0 {
                        enc.encode_direct_bits(extra, ebits);
                    }
                    let (oslot, oebits, oextra) = slot_of(dist as u32);
                    models.off_slot.encode(&mut enc, oslot);
                    if oebits > 0 {
                        enc.encode_direct_bits(oextra, oebits);
                    }
                    let _ = dist;
                    pos += len;
                    prev_byte = data[pos - 1];
                }
            }
        }
        let mut payload = enc.finish();
        write_u32(&mut payload, crc32(data));
        frame::pick(data, payload)
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>> {
        let (stored, raw_len, payload) = frame::open(data)?;
        if stored {
            return Ok(payload.to_vec());
        }
        if payload.len() < 4 {
            return Err(CodecError::UnexpectedEof);
        }
        let (body, trailer) = payload.split_at(payload.len() - 4);
        let mut models = Models::new();
        let mut dec = RangeDecoder::new(body)?;
        let mut out = frame::output_buffer(raw_len, payload);
        while out.len() < raw_len {
            if dec.decode_bit(&mut models.is_match)? {
                let slot = models.len_slot.decode(&mut dec)?;
                let (base, ebits) = slot_base(slot)?;
                let extra = if ebits > 0 { dec.decode_direct_bits(ebits)? } else { 0 };
                let len = (base + extra) as usize;
                let oslot = models.off_slot.decode(&mut dec)?;
                let (obase, oebits) = slot_base(oslot)?;
                let oextra = if oebits > 0 { dec.decode_direct_bits(oebits)? } else { 0 };
                let dist = (obase + oextra) as usize;
                if out.len() + len > raw_len {
                    return Err(CodecError::Corrupt("match exceeds declared length"));
                }
                if !copy_match(&mut out, len, dist) {
                    return Err(CodecError::Corrupt("offset out of range"));
                }
            } else {
                let ctx = lit_context(out.last().copied().unwrap_or(0));
                let byte = models.literals[ctx].decode(&mut dec)? as u8;
                out.push(byte);
            }
        }
        let mut tpos = 0usize;
        let stored_sum = read_u32(trailer, &mut tpos)?;
        let computed = crc32(&out);
        if stored_sum != computed {
            return Err(CodecError::ChecksumMismatch { stored: stored_sum, computed });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_text() {
        let data = b"an exhaustive search pays off for redundant text ".repeat(60);
        let codec = XzLike::new();
        let packed = codec.compress(&data);
        assert!(packed.len() < data.len() / 4);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn round_trip_binary_structured() {
        let data: Vec<u8> = (0..30_000u32).flat_map(|i| ((i / 5) as u16).to_be_bytes()).collect();
        let codec = XzLike::new();
        assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
    }

    #[test]
    fn checksum_detects_corruption() {
        let data = b"tamper with me".repeat(100);
        let codec = XzLike::new();
        let mut packed = codec.compress(&data);
        let mid = packed.len() / 2;
        packed[mid] ^= 0x40;
        assert!(codec.decompress(&packed).is_err());
    }

    #[test]
    fn empty_round_trips() {
        let codec = XzLike::new();
        assert_eq!(codec.decompress(&codec.compress(&[])).unwrap(), Vec::<u8>::new());
    }
}
