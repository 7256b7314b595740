//! DEFLATE-class compressor with zlib and gzip frames.
//!
//! Uses the real DEFLATE symbol spaces — literal/length codes 0..=285
//! with the RFC 1951 extra-bit tables and distance codes 0..=29 — over a
//! 32 KiB window with lazy matching, entropy-coded with the workspace's
//! canonical Huffman tables. [`Zlib`] wraps the payload with an Adler-32
//! and [`Gzip`] with a CRC-32, mirroring the integrity checks of the real
//! formats (the two share their compressed payload, like the originals).

use crate::frame;
use crate::lz::{copy_match, tokenize, MatchParams, Token};
use crate::{Lossless, LosslessKind};
use fedsz_codec::bitio::{BitReader, BitWriter};
use fedsz_codec::checksum::{adler32, crc32};
use fedsz_codec::huffman::HuffmanTable;
use fedsz_codec::varint::{read_bytes, read_u32, write_u32, write_uvarint};
use fedsz_codec::{CodecError, Result};

/// End-of-block symbol in the literal/length alphabet.
const EOB: u16 = 256;
/// Size of the literal/length alphabet (0..=285).
const LITLEN_ALPHABET: usize = 286;

/// RFC 1951 length code base values (codes 257..=285).
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// RFC 1951 length extra-bit counts.
const LENGTH_EXTRA: [u8; 29] =
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0];
/// RFC 1951 distance code base values (codes 0..=29).
const DIST_BASE: [u32; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// RFC 1951 distance extra-bit counts.
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Maps a match length (3..=258) to `(symbol, extra_bits, extra_value)`.
fn length_symbol(len: usize) -> (u16, u8, u32) {
    debug_assert!((3..=258).contains(&len));
    let mut code = 28;
    for (i, &base) in LENGTH_BASE.iter().enumerate() {
        let next = LENGTH_BASE.get(i + 1).copied().unwrap_or(259);
        if (len as u16) >= base && (len as u16) < next {
            code = i;
            break;
        }
    }
    let base = LENGTH_BASE[code];
    (257 + code as u16, LENGTH_EXTRA[code], len as u32 - u32::from(base))
}

/// Maps a distance (1..=32768) to `(symbol, extra_bits, extra_value)`.
fn dist_symbol(dist: usize) -> (u16, u8, u32) {
    debug_assert!((1..=32768).contains(&dist));
    let mut code = 29;
    for (i, &base) in DIST_BASE.iter().enumerate() {
        let next = DIST_BASE.get(i + 1).copied().unwrap_or(32769);
        if (dist as u32) >= base && (dist as u32) < next {
            code = i;
            break;
        }
    }
    (code as u16, DIST_EXTRA[code], dist as u32 - DIST_BASE[code])
}

/// Compresses `data` into a DEFLATE-style payload (tables + bitstream).
fn deflate_payload(data: &[u8]) -> Vec<u8> {
    let tokens = tokenize(data, &MatchParams::balanced());

    // First pass: symbol frequencies for the two alphabets.
    let mut litlen_freq = vec![0u64; LITLEN_ALPHABET];
    let mut dist_freq = vec![0u64; 30];
    for token in &tokens {
        match *token {
            Token::Literals { start, len } => {
                for &b in &data[start..start + len] {
                    litlen_freq[b as usize] += 1;
                }
            }
            Token::Match { len, dist } => {
                litlen_freq[length_symbol(len).0 as usize] += 1;
                dist_freq[dist_symbol(dist).0 as usize] += 1;
            }
        }
    }
    litlen_freq[EOB as usize] += 1;

    let litlen = HuffmanTable::from_frequencies(&litlen_freq, 15);
    let dist_table = HuffmanTable::from_frequencies(&dist_freq, 15);

    let mut out = Vec::new();
    litlen.write_header(&mut out);
    dist_table.write_header(&mut out);

    let mut w = BitWriter::with_capacity(data.len() / 2);
    for token in &tokens {
        match *token {
            Token::Literals { start, len } => {
                for &b in &data[start..start + len] {
                    litlen.write_symbol(u16::from(b), &mut w);
                }
            }
            Token::Match { len, dist } => {
                let (sym, ebits, eval) = length_symbol(len);
                litlen.write_symbol(sym, &mut w);
                if ebits > 0 {
                    w.write_bits(u64::from(eval), u32::from(ebits));
                }
                let (dsym, debits, deval) = dist_symbol(dist);
                dist_table.write_symbol(dsym, &mut w);
                if debits > 0 {
                    w.write_bits(u64::from(deval), u32::from(debits));
                }
            }
        }
    }
    litlen.write_symbol(EOB, &mut w);
    let bits = w.into_bytes();
    write_uvarint(&mut out, bits.len() as u64);
    out.extend_from_slice(&bits);
    out
}

/// Inflates a payload produced by [`deflate_payload`].
fn inflate_payload(payload: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let mut pos = 0usize;
    let litlen = HuffmanTable::read_header(payload, &mut pos)?;
    let dist_table = HuffmanTable::read_header(payload, &mut pos)?;
    let bits = read_bytes(payload, &mut pos)?;
    let mut r = BitReader::new(bits);
    let mut out = frame::output_buffer(raw_len, payload);
    loop {
        let sym = litlen.read_symbol(&mut r)?;
        match sym {
            0..=255 => out.push(sym as u8),
            EOB => break,
            257..=285 => {
                let code = (sym - 257) as usize;
                let ebits = LENGTH_EXTRA[code];
                let extra = if ebits > 0 { r.read_bits(u32::from(ebits))? } else { 0 };
                let len = usize::from(LENGTH_BASE[code]) + extra as usize;
                let dsym = dist_table.read_symbol(&mut r)?;
                if usize::from(dsym) >= 30 {
                    return Err(CodecError::Corrupt("invalid distance symbol"));
                }
                let debits = DIST_EXTRA[dsym as usize];
                let dextra = if debits > 0 { r.read_bits(u32::from(debits))? } else { 0 };
                let dist = DIST_BASE[dsym as usize] as usize + dextra as usize;
                if out.len() + len > raw_len {
                    return Err(CodecError::Corrupt("inflate output exceeds declared length"));
                }
                if !copy_match(&mut out, len, dist) {
                    return Err(CodecError::Corrupt("inflate distance out of range"));
                }
            }
            _ => return Err(CodecError::Corrupt("invalid literal/length symbol")),
        }
        if out.len() > raw_len {
            return Err(CodecError::Corrupt("inflate output exceeds declared length"));
        }
    }
    if out.len() != raw_len {
        return Err(CodecError::Corrupt("inflate output shorter than declared"));
    }
    Ok(out)
}

/// DEFLATE in a zlib-style frame (Adler-32 trailer).
///
/// # Examples
///
/// ```
/// use fedsz_lossless::{Lossless, Zlib};
///
/// let data = b"metadata metadata metadata".to_vec();
/// let codec = Zlib::new();
/// assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Zlib {
    _private: (),
}

impl Zlib {
    /// Creates the codec.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Lossless for Zlib {
    fn kind(&self) -> LosslessKind {
        LosslessKind::Zlib
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut payload = deflate_payload(data);
        write_u32(&mut payload, adler32(data));
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
        let out = inflate_payload(body, raw_len)?;
        let mut tpos = 0usize;
        let stored_sum = read_u32(trailer, &mut tpos)?;
        let computed = adler32(&out);
        if stored_sum != computed {
            return Err(CodecError::ChecksumMismatch { stored: stored_sum, computed });
        }
        Ok(out)
    }
}

/// DEFLATE in a gzip-style frame (CRC-32 + length trailer).
///
/// The real `gzip` tool wraps the same DEFLATE payload as zlib with a
/// different header/trailer; Table II of the paper shows the two with
/// near-identical ratio and runtime, which this pair reproduces by
/// construction.
#[derive(Debug, Clone, Default)]
pub struct Gzip {
    _private: (),
}

impl Gzip {
    /// Creates the codec.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Lossless for Gzip {
    fn kind(&self) -> LosslessKind {
        LosslessKind::Gzip
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut payload = deflate_payload(data);
        write_u32(&mut payload, crc32(data));
        write_u32(&mut payload, data.len() as u32);
        frame::pick(data, payload)
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>> {
        let (stored, raw_len, payload) = frame::open(data)?;
        if stored {
            return Ok(payload.to_vec());
        }
        if payload.len() < 8 {
            return Err(CodecError::UnexpectedEof);
        }
        let (body, trailer) = payload.split_at(payload.len() - 8);
        let out = inflate_payload(body, raw_len)?;
        let mut tpos = 0usize;
        let stored_sum = read_u32(trailer, &mut tpos)?;
        let isize = read_u32(trailer, &mut tpos)? as usize;
        let computed = crc32(&out);
        if stored_sum != computed {
            return Err(CodecError::ChecksumMismatch { stored: stored_sum, computed });
        }
        if isize != out.len() {
            return Err(CodecError::Corrupt("gzip ISIZE mismatch"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_symbols_cover_range() {
        for len in 3..=258usize {
            let (sym, ebits, eval) = length_symbol(len);
            assert!((257..=285).contains(&sym));
            let code = (sym - 257) as usize;
            assert_eq!(usize::from(LENGTH_BASE[code]) + eval as usize, len);
            assert!(eval < (1 << ebits) || ebits == 0 && eval == 0);
        }
    }

    #[test]
    fn dist_symbols_cover_range() {
        for dist in [1usize, 2, 3, 4, 5, 100, 1024, 4097, 32768] {
            let (sym, ebits, eval) = dist_symbol(dist);
            assert!(usize::from(sym) < 30);
            assert_eq!(DIST_BASE[sym as usize] as usize + eval as usize, dist);
            assert!(eval < (1 << ebits) || ebits == 0 && eval == 0);
        }
    }

    #[test]
    fn zlib_round_trip_text() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(50);
        let codec = Zlib::new();
        let packed = codec.compress(&data);
        assert!(packed.len() < data.len() / 3);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn gzip_round_trip_binary() {
        let data: Vec<u8> = (0..10_000u32).flat_map(|i| ((i / 7) as u16).to_le_bytes()).collect();
        let codec = Gzip::new();
        let packed = codec.compress(&data);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn zlib_detects_corruption() {
        let data = b"abcdefgh".repeat(100);
        let codec = Zlib::new();
        let mut packed = codec.compress(&data);
        let last = packed.len() - 1;
        packed[last] ^= 0xff; // flip Adler-32 bits
        assert!(codec.decompress(&packed).is_err());
    }

    #[test]
    fn gzip_detects_truncation() {
        let data = b"abcdefgh".repeat(100);
        let codec = Gzip::new();
        let packed = codec.compress(&data);
        assert!(codec.decompress(&packed[..packed.len() / 2]).is_err());
    }

    #[test]
    fn max_length_match_round_trips() {
        // 300 identical bytes forces the 258-length cap to be exercised.
        let data = vec![0x55u8; 300];
        let codec = Zlib::new();
        assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
    }
}
