//! Zstd-class compressor: large-window LZ with Huffman-coded sequences.
//!
//! Mirrors zstd's architecture — literals and `(literal_len, match_len,
//! offset)` sequences are separated, lengths/offsets are coded as
//! logarithmic "slots" plus raw extra bits, and each stream gets its own
//! entropy table. (Real zstd uses FSE; canonical Huffman plays the same
//! role here.) The 1 MiB window and deeper search give it a better ratio
//! than DEFLATE at a modest speed cost, matching its slot in Table II.

use crate::frame;
use crate::lz::{copy_match, tokenize, MatchParams, Token};
use crate::{Lossless, LosslessKind};
use fedsz_codec::bitio::{BitReader, BitWriter};
use fedsz_codec::checksum::crc32;
use fedsz_codec::huffman::HuffmanTable;
use fedsz_codec::simd::{self, Kernel};
use fedsz_codec::varint::{read_bytes, read_u32, read_uvarint, write_u32, write_uvarint};
use fedsz_codec::{CodecError, Result};

/// Slot-codes a value: values < 16 are their own slot; larger values use
/// slot `12 + floor(log2 v)` with `floor(log2 v)` extra bits.
#[inline]
fn slot_of(v: u32) -> (u16, u8, u32) {
    if v < 16 {
        (v as u16, 0, 0)
    } else {
        let k = 31 - v.leading_zeros();
        ((12 + k) as u16, k as u8, v - (1 << k))
    }
}

/// Inverse of [`slot_of`]: returns `(base, extra_bits)` for a slot.
#[inline]
fn slot_base(slot: u16) -> Result<(u32, u8)> {
    if slot < 16 {
        Ok((u32::from(slot), 0))
    } else {
        let k = u32::from(slot) - 12;
        if k >= 32 {
            return Err(CodecError::Corrupt("slot out of range"));
        }
        Ok((1 << k, k as u8))
    }
}

/// One LZ sequence: a literal run followed by a match.
struct Sequence {
    lit_start: usize,
    lit_len: u32,
    match_len: u32,
    offset: u32,
}

/// Large-window LZ + Huffman compressor (zstd class).
///
/// # Examples
///
/// ```
/// use fedsz_lossless::{Lossless, ZstdLike};
///
/// let data = b"sequences of sequences of sequences".repeat(8);
/// let codec = ZstdLike::new();
/// assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ZstdLike {
    _private: (),
}

impl ZstdLike {
    /// Creates the codec.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Lossless for ZstdLike {
    fn kind(&self) -> LosslessKind {
        LosslessKind::Zstd
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        simd::dispatch(Compress(data))
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>> {
        let (stored, raw_len, payload) = frame::open(data)?;
        if stored {
            return Ok(payload.to_vec());
        }
        let mut pos = 0usize;
        let lit_table = HuffmanTable::read_header(payload, &mut pos)?;
        let ll_table = HuffmanTable::read_header(payload, &mut pos)?;
        let ml_table = HuffmanTable::read_header(payload, &mut pos)?;
        let of_table = HuffmanTable::read_header(payload, &mut pos)?;
        let n_seq = read_uvarint(payload, &mut pos)? as usize;
        let tail_len = read_uvarint(payload, &mut pos)? as usize;
        let bits = read_bytes(payload, &mut pos)?;
        let mut r = BitReader::new(bits);
        let mut out = frame::output_buffer(raw_len, payload);

        let read_value = |r: &mut BitReader<'_>, table: &HuffmanTable| -> Result<u32> {
            let slot = table.read_symbol(r)?;
            let (base, extra_bits) = slot_base(slot)?;
            let extra = if extra_bits > 0 { r.read_bits(u32::from(extra_bits))? as u32 } else { 0 };
            Ok(base + extra)
        };

        for _ in 0..n_seq {
            let lit_len = read_value(&mut r, &ll_table)? as usize;
            if out.len() + lit_len > raw_len {
                return Err(CodecError::Corrupt("literal run exceeds declared length"));
            }
            lit_table.decode_each(&mut r, lit_len, |sym| out.push(sym as u8))?;
            let match_len = read_value(&mut r, &ml_table)? as usize;
            let offset = read_value(&mut r, &of_table)? as usize;
            if out.len() + match_len > raw_len {
                return Err(CodecError::Corrupt("match exceeds declared length"));
            }
            if !copy_match(&mut out, match_len, offset) {
                return Err(CodecError::Corrupt("offset out of range"));
            }
        }
        if Some(tail_len) != raw_len.checked_sub(out.len()) {
            return Err(CodecError::Corrupt("tail length mismatch"));
        }
        lit_table.decode_each(&mut r, tail_len, |sym| out.push(sym as u8))?;

        let stored_sum = read_u32(payload, &mut pos)?;
        let computed = crc32(&out);
        if stored_sum != computed {
            return Err(CodecError::ChecksumMismatch { stored: stored_sum, computed });
        }
        Ok(out)
    }
}

/// [`ZstdLike`]'s encoder — the match search, the counts and the
/// sequence coding — dispatched once per buffer ([`simd::dispatch`]).
/// The AVX2 copy parses the SZ containers' Huffman output about a third
/// faster, for the same bytes. The counts fix the payload's length
/// before a bit is coded ([`Plan`]), so a frame that would end STORED
/// is stored without coding its sequences or taking its CRC.
struct Compress<'a>(&'a [u8]);

impl Kernel for Compress<'_> {
    type Output = Vec<u8>;

    #[inline(always)]
    fn run(self) -> Vec<u8> {
        let Self(data) = self;
        let plan = Plan::new(data);
        if plan.payload_len() >= data.len() {
            frame::stored(data)
        } else {
            plan.write()
        }
    }
}

/// A buffer parsed into sequences and counted: everything a compressed
/// frame holds but its bitstream and CRC.
struct Plan<'a> {
    data: &'a [u8],
    sequences: Vec<Sequence>,
    /// Trailing literals: start and length.
    tail: (usize, u32),
    /// Literal, literal-length, match-length and offset tables.
    tables: [HuffmanTable; 4],
    /// The payload up to its bitstream: the four table headers, the
    /// sequence count, the tail length and the bitstream's length.
    head: Vec<u8>,
    /// The bitstream's length in bytes.
    stream_len: usize,
}

impl<'a> Plan<'a> {
    #[inline(always)]
    fn new(data: &'a [u8]) -> Self {
        let tokens = tokenize(data, &MatchParams::large_window());

        // Regroup the token stream into zstd-style sequences plus a tail
        // of trailing literals.
        let mut sequences = Vec::new();
        let mut pending: Option<(usize, u32)> = None;
        for token in &tokens {
            match *token {
                Token::Literals { start, len } => pending = Some((start, len as u32)),
                Token::Match { len, dist } => {
                    let (lit_start, lit_len) = pending.take().unwrap_or((0, 0));
                    sequences.push(Sequence {
                        lit_start,
                        lit_len,
                        match_len: len as u32,
                        offset: dist as u32,
                    });
                }
            }
        }
        let tail = pending.unwrap_or((0, 0));

        // Frequencies for the four entropy streams, literals in four
        // lanes (a run of one byte is four independent chains of
        // increments), and the slots' extra bits.
        let mut lit_lanes = [[0u64; 4]; 256];
        let mut count_lits = |start: usize, len: u32| {
            let (quads, rest) = data[start..start + len as usize].as_chunks::<4>();
            for quad in quads {
                for (lane, &byte) in quad.iter().enumerate() {
                    lit_lanes[usize::from(byte)][lane] += 1;
                }
            }
            for (lane, &byte) in rest.iter().enumerate() {
                lit_lanes[usize::from(byte)][lane] += 1;
            }
        };
        let mut ll_freq = [0u64; 48];
        let mut ml_freq = [0u64; 48];
        let mut of_freq = [0u64; 48];
        let mut extra_bits = 0u64;
        for seq in &sequences {
            count_lits(seq.lit_start, seq.lit_len);
            for (freq, value) in [
                (&mut ll_freq, seq.lit_len),
                (&mut ml_freq, seq.match_len),
                (&mut of_freq, seq.offset),
            ] {
                let (slot, bits, _) = slot_of(value);
                freq[usize::from(slot)] += 1;
                extra_bits += u64::from(bits);
            }
        }
        count_lits(tail.0, tail.1);
        let lit_freq = lit_lanes.map(|lanes| lanes.iter().sum());

        let freqs = [&lit_freq[..], &ll_freq, &ml_freq, &of_freq];
        let tables = freqs.map(|freq| HuffmanTable::from_frequencies(freq, 15));
        let coded: u64 = tables
            .iter()
            .zip(freqs)
            .flat_map(|(table, freq)| {
                (0u16..).zip(freq).map(|(sym, &n)| n * u64::from(table.code_len(sym)))
            })
            .sum();
        let stream_len = (coded + extra_bits).div_ceil(8) as usize;
        let mut head = Vec::new();
        for table in &tables {
            table.write_header(&mut head);
        }
        write_uvarint(&mut head, sequences.len() as u64);
        write_uvarint(&mut head, u64::from(tail.1));
        write_uvarint(&mut head, stream_len as u64);
        Self { data, sequences, tail, tables, head, stream_len }
    }

    /// The compressed frame's payload length: the head, the bitstream
    /// and the CRC.
    fn payload_len(&self) -> usize {
        self.head.len() + self.stream_len + 4
    }

    /// The compressed frame, whatever its length.
    #[inline(always)]
    fn write(self) -> Vec<u8> {
        let Self { data, sequences, tail, tables, head, stream_len } = self;
        let [lit_table, ll_table, ml_table, of_table] = &tables;
        let payload_len = head.len() + stream_len + 4;
        let mut out = frame::compressed_head(data.len(), payload_len);
        out.extend_from_slice(&head);
        let end = out.len() + stream_len;
        let mut w = BitWriter::append_to(out);
        let value = |table: &HuffmanTable, v: u32, w: &mut BitWriter| {
            let (slot, bits, extra) = slot_of(v);
            table.write_symbol(slot, w);
            if bits > 0 {
                w.write_bits(u64::from(extra), u32::from(bits));
            }
        };
        for seq in &sequences {
            value(ll_table, seq.lit_len, &mut w);
            lit_table.encode_bytes(&data[seq.lit_start..][..seq.lit_len as usize], &mut w);
            value(ml_table, seq.match_len, &mut w);
            value(of_table, seq.offset, &mut w);
        }
        lit_table.encode_bytes(&data[tail.0..][..tail.1 as usize], &mut w);
        let mut out = w.into_bytes();
        assert_eq!(out.len(), end, "the counts fix the bitstream's length");
        write_u32(&mut out, crc32(data));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_invert() {
        for v in [0u32, 1, 15, 16, 17, 255, 256, 65535, 1 << 20] {
            let (slot, bits, extra) = slot_of(v);
            let (base, bits2) = slot_base(slot).unwrap();
            assert_eq!(bits, bits2);
            assert_eq!(base + extra, v);
        }
    }

    #[test]
    fn round_trip_text() {
        let data = b"zstandard-like sequences, zstandard-like sequences".repeat(40);
        let codec = ZstdLike::new();
        let packed = codec.compress(&data);
        assert!(packed.len() < data.len() / 3);
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn round_trip_distant_matches() {
        // Repeats separated by ~64 KiB only pay off with a large window.
        let unit: Vec<u8> = (0..65_536u32).map(|i| (i % 253) as u8).collect();
        let mut data = unit.clone();
        data.extend_from_slice(&unit);
        let codec = ZstdLike::new();
        let packed = codec.compress(&data);
        assert!(
            packed.len() < data.len() / 2 + 1024,
            "large-window match should halve: {}",
            packed.len()
        );
        assert_eq!(codec.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn checksum_detects_bit_flip() {
        let data = b"integrity matters".repeat(64);
        let codec = ZstdLike::new();
        let mut packed = codec.compress(&data);
        let mid = packed.len() / 2;
        packed[mid] ^= 0x01;
        assert!(codec.decompress(&packed).is_err());
    }

    #[test]
    fn pure_literals_round_trip() {
        // Input with no matches at all: exercises the tail-only path.
        let data: Vec<u8> = (0..=255u8).collect();
        let codec = ZstdLike::new();
        assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
    }

    #[test]
    fn avx2_copy_matches_the_portable_one() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut byte = |spread: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % spread) as u8
        };
        let text = b"zstandard-like sequences, zstandard-like sequences".repeat(40);
        let unit: Vec<u8> = (0..65_536u32).map(|i| (i % 253) as u8).collect();
        let mut cases: Vec<Vec<u8>> = (0..40).map(|n| text[..n].to_vec()).collect();
        cases.extend([
            text,
            [unit.clone(), unit].concat(),
            (0..100_000).map(|_| byte(256)).collect(),
            (0..300_000).map(|_| byte(7) * 3).collect(),
        ]);
        for data in &cases {
            let Some(avx2) = simd::avx2(Compress(data)) else {
                println!("skipped: this host has no AVX2, so the portable copy is the only path");
                return;
            };
            assert_eq!(avx2, Compress(data).run(), "{} bytes", data.len());
        }
    }

    /// What the planner predicts for `data`'s payload against what it
    /// writes when made to write it, and the frame `compress` picks
    /// against the one [`frame::pick`] makes of the written payload.
    fn assert_prediction_holds(data: &[u8]) -> std::result::Result<usize, TestCaseError> {
        let plan = Plan::new(data);
        let predicted = plan.payload_len();
        let written = plan.write();
        let (stored, raw_len, payload) = frame::open(&written).unwrap();
        prop_assert!(!stored);
        prop_assert_eq!(raw_len, data.len());
        prop_assert_eq!(payload.len(), predicted, "{} bytes", data.len());
        let picked = frame::pick(data, payload.to_vec());
        prop_assert_eq!(&Compress(data).run(), &picked, "{} bytes", data.len());
        prop_assert_eq!(ZstdLike::new().decompress(&picked).unwrap(), data);
        Ok(predicted)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The inputs of the workspace's lossless proptests (arbitrary
        /// bytes), and runs of a few symbols that compress.
        #[test]
        fn predicted_payload_is_the_written_one(
            data in prop_oneof![
                proptest::collection::vec(any::<u8>(), 0..4096),
                proptest::collection::vec(prop_oneof![Just(0u8), Just(7), 250u8..=255], 0..4096),
            ],
        ) {
            assert_prediction_holds(&data)?;
        }
    }

    /// Frames at the STORED boundary: payloads predicted one byte
    /// shorter than the input (compressed), exactly as long and one byte
    /// longer (both stored), found by growing a buffer of 7-bit symbols
    /// after a compressible head.
    #[test]
    fn frames_at_the_stored_boundary_follow_the_prediction() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut data: Vec<u8> = b"boundary ".repeat(24);
        let mut found = [false; 3];
        while data.len() < 20_000 && found != [true; 3] {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            data.push((state >> 57) as u8);
            let predicted = assert_prediction_holds(&data).unwrap();
            let Some(k) = (predicted + 1).checked_sub(data.len()).filter(|&k| k < 3) else {
                continue;
            };
            found[k] = true;
            let (stored, _, _) = frame::open(&Compress(&data).run()).unwrap();
            assert_eq!(
                stored,
                predicted >= data.len(),
                "{} bytes, payload {predicted}",
                data.len()
            );
        }
        assert_eq!(found, [true; 3], "no payload within a byte of its input");
    }
}
