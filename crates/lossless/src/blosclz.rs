//! Blosc-lz-class compressor: byte shuffle + fast, byte-aligned LZ.
//!
//! Blosc's trick for float arrays is a shuffle filter that groups the
//! n-th byte of every element together before a very fast LZ pass; the
//! token stream stays byte-aligned (no entropy coder), which is why the
//! real blosc-lz tops the throughput column of the paper's Table II.

use crate::frame;
use crate::lz::{copy_match, tokenize, MatchParams, Token};
use crate::{Lossless, LosslessKind};
use fedsz_codec::shuffle::{shuffle, unshuffle};
use fedsz_codec::varint::{read_bytes, read_uvarint, write_uvarint};
use fedsz_codec::{CodecError, Result};

/// Byte-shuffled fast LZ compressor (blosc-lz class).
///
/// # Examples
///
/// ```
/// use fedsz_lossless::{BloscLz, Lossless};
///
/// let floats: Vec<u8> = (0..256u32).flat_map(|i| (i as f32).to_le_bytes()).collect();
/// let codec = BloscLz::new();
/// let packed = codec.compress(&floats);
/// assert!(packed.len() < floats.len());
/// assert_eq!(codec.decompress(&packed).unwrap(), floats);
/// ```
#[derive(Debug, Clone)]
pub struct BloscLz {
    elem_size: u8,
    params: MatchParams,
}

impl BloscLz {
    /// Creates the codec with the default 4-byte (f32) shuffle width.
    pub fn new() -> Self {
        Self::with_elem_size(4)
    }

    /// Creates the codec with an explicit shuffle element width.
    ///
    /// # Panics
    ///
    /// Panics if `elem_size` is zero.
    pub fn with_elem_size(elem_size: u8) -> Self {
        assert!(elem_size > 0, "shuffle element size must be positive");
        Self { elem_size, params: MatchParams::fast() }
    }

    /// Disables the byte-shuffle filter (element width 1) — the ablation
    /// knob for Blosc's key float-data trick.
    pub fn without_shuffle() -> Self {
        Self::with_elem_size(1)
    }
}

impl Default for BloscLz {
    fn default() -> Self {
        Self::new()
    }
}

impl Lossless for BloscLz {
    fn kind(&self) -> LosslessKind {
        LosslessKind::BloscLz
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let shuffled = shuffle(data, usize::from(self.elem_size));
        let tokens = tokenize(&shuffled, &self.params);
        let mut payload = Vec::with_capacity(data.len() / 2 + 16);
        payload.push(self.elem_size);
        let mut pending_lit: Option<(usize, usize)> = None;
        let flush_group =
            |payload: &mut Vec<u8>, lit: Option<(usize, usize)>, m: Option<(usize, usize)>| {
                let (lstart, llen) = lit.unwrap_or((0, 0));
                write_uvarint(payload, llen as u64);
                payload.extend_from_slice(&shuffled[lstart..lstart + llen]);
                if let Some((len, dist)) = m {
                    write_uvarint(payload, len as u64);
                    write_uvarint(payload, dist as u64);
                }
            };
        for token in &tokens {
            match *token {
                Token::Literals { start, len } => pending_lit = Some((start, len)),
                Token::Match { len, dist } => {
                    flush_group(&mut payload, pending_lit.take(), Some((len, dist)));
                }
            }
        }
        if pending_lit.is_some() {
            flush_group(&mut payload, pending_lit.take(), None);
        }
        frame::pick(data, payload)
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>> {
        let (stored, raw_len, payload) = frame::open(data)?;
        if stored {
            return Ok(payload.to_vec());
        }
        let elem_size = *payload.first().ok_or(CodecError::UnexpectedEof)?;
        if elem_size == 0 {
            return Err(CodecError::Corrupt("zero shuffle element size"));
        }
        let mut pos = 1usize;
        let mut out = frame::output_buffer(raw_len, payload);
        while out.len() < raw_len {
            // Run lengths are untrusted: compare against the room left
            // (`out.len() < raw_len` here) rather than adding first.
            let lits = read_bytes(payload, &mut pos)?;
            if lits.len() > raw_len - out.len() {
                return Err(CodecError::Corrupt("literal run exceeds declared length"));
            }
            out.extend_from_slice(lits);
            if out.len() == raw_len {
                break;
            }
            let match_len = read_uvarint(payload, &mut pos)?;
            let dist = read_uvarint(payload, &mut pos)? as usize;
            if match_len > (raw_len - out.len()) as u64 {
                return Err(CodecError::Corrupt("match exceeds declared length"));
            }
            let match_len = match_len as usize;
            if !copy_match(&mut out, match_len, dist) {
                return Err(CodecError::Corrupt("match distance out of range"));
            }
        }
        Ok(unshuffle(&out, usize::from(elem_size)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let codec = BloscLz::new();
        let packed = codec.compress(data);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn empty_and_small() {
        round_trip(&[]);
        round_trip(&[1]);
        round_trip(&[1, 2, 3, 4, 5]);
    }

    #[test]
    fn float_array_benefits_from_shuffle() {
        // Slowly varying floats share exponent bytes: shuffling makes
        // long runs the LZ stage can fold away.
        let bytes: Vec<u8> =
            (0..4096).flat_map(|i| (1.0f32 + i as f32 * 1e-6).to_le_bytes()).collect();
        let codec = BloscLz::new();
        let packed = codec.compress(&bytes);
        assert!(
            packed.len() < bytes.len() / 2,
            "shuffled floats should compress 2x+, got {} of {}",
            packed.len(),
            bytes.len()
        );
        assert_eq!(codec.decompress(&packed).unwrap(), bytes);
    }

    #[test]
    fn incompressible_falls_back_to_stored() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let data: Vec<u8> = (0..1024)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect();
        let codec = BloscLz::new();
        let packed = codec.compress(&data);
        // Stored frames cost a flag byte + varint length.
        assert!(packed.len() <= data.len() + 4);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn truncated_frame_errors() {
        let data = b"abcabcabcabcabcabcabc".repeat(20);
        let codec = BloscLz::new();
        let packed = codec.compress(&data);
        for cut in [1, packed.len() / 2, packed.len() - 1] {
            assert!(codec.decompress(&packed[..cut]).is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn odd_length_input_with_shuffle_tail() {
        let data: Vec<u8> = (0..1027u32).map(|i| (i % 256) as u8).collect();
        round_trip(&data);
    }

    #[test]
    fn custom_elem_size_round_trips() {
        let data: Vec<u8> = (0..2048u32).flat_map(|i| (i as f64).to_le_bytes()).collect();
        let codec = BloscLz::with_elem_size(8);
        let packed = codec.compress(&data);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }
}
