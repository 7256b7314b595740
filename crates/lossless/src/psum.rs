//! Lossless codec for partial-sum images: one entropy code per byte plane.
//!
//! An aggregation tree forwards partial sums as packed little-endian
//! elements — `f64` sums (8 bytes each, twice the raw `f32` uploads they
//! summarize) inside the simulator's wire accounting, `i128` fixed-point
//! accumulators (16 bytes each) between real relay processes. Every
//! element is a weighted sum of same-scale model weights, so at a fixed
//! byte position within the element the bytes follow one skewed
//! distribution: sign, exponent and sign-extension bytes are nearly
//! constant, high-mantissa bytes cluster, low-mantissa bytes are noise.
//! [`PsumCodec`] codes each of those byte planes on its own.
//!
//! # Why order-0 codes and not an LZ search
//!
//! The planes are noisy but skewed, and they do not repeat: there is
//! nothing for a match finder to find, only a histogram to exploit. On
//! the `f64` image of a 128-client tiny-AlexNet sum (72 063 elements) the
//! planes' order-0 entropies are, in stored order,
//!
//! ```text
//! 8.00  8.00  8.00  6.54  1.29  0.01  0.01  4.62   bits/byte
//! ```
//!
//! (the image's header shifts the doubles' phase, so plane 0 is not
//! byte 0 of a double), and on the `i128` image
//!
//! ```text
//! 0.00  0.01  0.31  5.65  8.00  8.00  8.00  7.16
//! 1.01  1.00  1.00  1.00  1.00  0.00  0.00  0.00
//! ```
//!
//! The pipeline this codec replaced — byte shuffle, then [`ZstdLike`]
//! over all planes as one stream — spent most of its time walking hash
//! chains through that noise (5.8 ms on the 1.29-bit plane alone, for
//! 16 384 bytes) where a Huffman pass takes 0.22 ms for 14 408, and it
//! coded every plane's literals with one shared table. Per-plane tables
//! are both faster and smaller: 368 158 → 333 146 bytes and 11.7 → 2.6
//! ms on that `f64` image, 523 373 → 406 329 bytes and 92 → 6.4 ms on
//! the `i128` one. FEDZIP makes the same call when it Huffman-codes its
//! structured streams instead of handing them to a general-purpose
//! compressor. The LZ stage survives for the two shapes an order-0 code
//! leaves bytes in: a plane that is one byte more than 7/8 of the time,
//! where Huffman cannot go below a bit per byte (78 bytes against
//! Huffman's 9 019 on a 0.01-bit plane), and a plane that varies slowly
//! — the sign and exponent bytes of a smooth tensor — which no
//! histogram shows but a count of bytes that repeat their predecessor
//! does. On both the match finder has long runs and few candidates.
//! (Timings from one development machine; the sizes are exact.)
//!
//! All of it rests on the planes being clean: one byte position of the
//! elements each. An image that interleaves headers with element
//! arrays shifts the phase at every header and turns each plane into a
//! mixture of noise and exponent bytes (an AlexNet-shaped sum of 16
//! such arrays coded 16% *larger* than under the replaced pipeline,
//! and 6% smaller once packed), which is why the FL crate's images put
//! all headers first and the elements in one packed array.
//!
//! # Frame
//!
//! `L` is the image length, `s` the stride, `n = L / s`; plane `k` is
//! bytes `k`, `k + s`, `k + 2s`, … of the image.
//!
//! | field | size | content |
//! |-------|------|---------|
//! | magic | 1 | `0xF6` |
//! | stride | 1 | `s`, the element width: `1..=16` |
//! | length | uvarint | `L` |
//! | planes | `s` × (1 + body), absent when `n = 0` | mode byte, then the body below |
//! | tail | `L mod s` | the bytes past the last whole element, copied |
//! | CRC | 4, little-endian | CRC-32 of the whole image |
//!
//! | mode | chosen when | body |
//! |------|-------------|------|
//! | 0 `CONST` | the plane holds one distinct byte | that byte |
//! | 1 `STORED` | table + Huffman stream would not be shorter than `n` | the `n` bytes |
//! | 2 `HUFF` | otherwise | [`HuffmanTable`] header, uvarint stream length, stream |
//! | 3 `LZ` | one byte fills more than 7/8 of the plane, or bytes repeat their predecessor a quarter of the plane more often than independent draws would | uvarint length, [`ZstdLike`] frame |
//!
//! The mode is chosen from one counting pass alone — the exact
//! Huffman size is `Σ count · code length` — so no plane is encoded
//! twice. Decompression reproduces the image byte for byte (every `f64`
//! bit pattern, NaNs included), which is what lets an aggregation tree
//! compress partial-sum frames without breaking the bit-parity
//! guarantee of `ExactAcc`-based merging. The noisy planes bound the
//! ratio at about 1.7x on `f64` images and 2.8x on `i128` ones; see the
//! break-even analysis in the FL crate's `agg::shard` docs.

use crate::{declared_len, Lossless, ZstdLike};
use fedsz_codec::bitio::{BitReader, BitWriter};
use fedsz_codec::checksum::crc32;
use fedsz_codec::huffman::HuffmanTable;
use fedsz_codec::varint::{
    read_bytes, read_u32, read_uvarint, uvarint_len, write_bytes, write_u32, write_uvarint,
};
use fedsz_codec::{CodecError, Result};

/// Frame magic of the byte-plane format. (`0xF5` was the shuffle + LZ
/// pipeline this codec replaced; such frames are refused.)
const MAGIC: u8 = 0xF6;

/// Widest element the frame header can name: an `i128` accumulator.
const MAX_STRIDE: usize = 16;

/// Longest Huffman code a plane may use.
const MAX_CODE_LEN: u8 = 15;

/// What [`PsumCodec::decompress`] accepts: the largest payload one wire
/// frame can carry.
const MAX_TRUSTED_LEN: usize = 1 << 30;

/// Plane holds one distinct byte: the body is that byte.
const MODE_CONST: u8 = 0;
/// Order-0 Huffman would not shrink the plane: the body is its bytes.
const MODE_STORED: u8 = 1;
/// Body: Huffman table header, `uvarint` stream length, the stream.
const MODE_HUFF: u8 = 2;
/// Body: a length-prefixed [`ZstdLike`] frame of the plane.
const MODE_LZ: u8 = 3;

/// Byte-plane entropy codec for partial-sum images.
///
/// # Examples
///
/// ```
/// use fedsz_lossless::PsumCodec;
///
/// let sums: Vec<u8> = (0..512)
///     .flat_map(|i| (1000.0 + f64::from(i) * 0.125).to_le_bytes())
///     .collect();
/// let codec = PsumCodec::new();
/// let packed = codec.compress(&sums);
/// assert!(packed.len() < sums.len());
/// assert_eq!(codec.decompress(&packed).unwrap(), sums);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PsumCodec {
    stride: usize,
}

impl Default for PsumCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl PsumCodec {
    /// The codec for packed little-endian `f64` sums (element stride 8).
    pub fn new() -> Self {
        Self::with_stride(8)
    }

    /// The codec for images whose elements are `stride` bytes wide —
    /// a constant of the caller's image type (8 for `f64` sums, 16 for
    /// `i128` accumulators), recorded in every frame.
    ///
    /// # Panics
    ///
    /// Panics unless `stride` is in `1..=16`.
    pub fn with_stride(stride: usize) -> Self {
        assert!((1..=MAX_STRIDE).contains(&stride), "psum element stride {stride} out of range");
        Self { stride }
    }

    /// Compresses an image into a self-contained frame.
    ///
    /// Any byte string is accepted (an image also carries varint
    /// headers and entry names, not just sums); trailing bytes that do
    /// not fill a whole element are copied through.
    pub fn compress(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(payload, &mut out);
        out
    }

    /// [`PsumCodec::compress`] into a caller-owned frame buffer
    /// (cleared first). Every plane is coded straight into `out`, so a
    /// forwarding path that reuses one buffer across frames and rounds
    /// allocates nothing that grows with the image — only the
    /// alphabet-sized Huffman tables, and a copy of any plane that
    /// takes the LZ mode.
    pub fn compress_into(&self, payload: &[u8], out: &mut Vec<u8>) {
        let stride = self.stride;
        let n = payload.len() / stride;
        let (body, tail) = payload.split_at(n * stride);
        out.clear();
        out.reserve(payload.len() / 2 + 64);
        out.push(MAGIC);
        out.push(stride as u8);
        write_uvarint(out, payload.len() as u64);
        if n > 0 {
            // One pass counts every plane's bytes, and how often a byte
            // repeats the one before it in its plane.
            let mut counts = [[0u64; 256]; MAX_STRIDE];
            let mut repeats = [0u64; MAX_STRIDE];
            let mut prev = &body[..stride];
            for elem in body.chunks_exact(stride) {
                for (k, (&byte, &before)) in elem.iter().zip(prev).enumerate() {
                    counts[k][usize::from(byte)] += 1;
                    repeats[k] += u64::from(byte == before);
                }
                prev = elem;
            }
            for k in 0..stride {
                let plane = body[k..].iter().step_by(stride).copied();
                encode_plane(plane, n, &counts[k], repeats[k], out);
            }
        }
        out.extend_from_slice(tail);
        write_u32(out, crc32(payload));
    }

    /// Decompresses a frame this process (or a peer it trusts)
    /// produced: [`PsumCodec::decompress_within`] at the largest
    /// payload a wire frame can carry. A frame read from a socket goes
    /// through `decompress_within` with the receiver's own bound.
    ///
    /// # Errors
    ///
    /// As [`PsumCodec::decompress_within`].
    pub fn decompress(&self, frame: &[u8]) -> Result<Vec<u8>> {
        self.decompress_within(frame, MAX_TRUSTED_LEN)
    }

    /// Decompresses a frame produced by [`PsumCodec::compress`] at this
    /// codec's stride, reproducing the image bit-exactly, provided the
    /// image is at most `max_len` bytes: the declared length is checked against
    /// the caller's bound before anything is allocated, and every plane
    /// against the declared length before it is decoded. (Constant
    /// planes make the bound mandatory: twenty honest bytes can stand
    /// for gigabytes.)
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on bad magic, a frame of another
    /// stride (a receiver knows its image type), an image longer
    /// than `max_len`, truncation, a plane inconsistent with the
    /// declared length, or a whole-image CRC mismatch.
    pub fn decompress_within(&self, frame: &[u8], max_len: usize) -> Result<Vec<u8>> {
        let (&magic, _) = frame.split_first().ok_or(CodecError::UnexpectedEof)?;
        if magic != MAGIC {
            return Err(CodecError::Corrupt("bad partial-sum frame magic"));
        }
        let stride = self.stride;
        if usize::from(*frame.get(1).ok_or(CodecError::UnexpectedEof)?) != stride {
            return Err(CodecError::Corrupt("partial-sum frame of another element stride"));
        }
        let mut pos = 2usize;
        let raw_len = read_uvarint(frame, &mut pos)?;
        if raw_len > max_len as u64 {
            return Err(CodecError::Corrupt("partial-sum image larger than the receiver accepts"));
        }
        let raw_len = raw_len as usize;
        let n = raw_len / stride;
        let mut out = vec![0u8; raw_len];
        let (body, tail) = out.split_at_mut(n * stride);
        if n > 0 {
            for k in 0..stride {
                decode_plane(frame, &mut pos, n, body[k..].iter_mut().step_by(stride))?;
            }
        }
        let stored_tail = frame.get(pos..pos + tail.len()).ok_or(CodecError::UnexpectedEof)?;
        tail.copy_from_slice(stored_tail);
        pos += tail.len();
        let stored = read_u32(frame, &mut pos)?;
        if pos != frame.len() {
            return Err(CodecError::Corrupt("trailing bytes in partial-sum frame"));
        }
        let computed = crc32(&out);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }
        Ok(out)
    }
}

/// Codes one plane of `n >= 1` bytes into `out`, its mode chosen from
/// the statistics of the counting pass alone: the exact Huffman size is
/// `Σ count · length`, so nothing is encoded twice.
fn encode_plane(
    plane: impl Iterator<Item = u8>,
    n: usize,
    counts: &[u64; 256],
    repeats: u64,
    out: &mut Vec<u8>,
) {
    let dominant = counts.iter().copied().max().expect("256 counters");
    if dominant == n as u64 {
        let byte = counts.iter().position(|&c| c > 0).expect("a non-empty plane");
        out.extend_from_slice(&[MODE_CONST, byte as u8]);
        return;
    }
    // Two shapes an order-0 code leaves bytes in. One byte fills more
    // than 7/8 of the plane: Huffman cannot go below a bit per byte.
    // Or a byte repeats its predecessor far more often (by a quarter of
    // the plane) than independent draws from the histogram would: the
    // plane varies slowly, which no histogram shows. Either way the LZ
    // stage finds long runs and few candidates to chase.
    let independent = counts.iter().map(|&c| (c as f64).powi(2)).sum::<f64>() / n as f64;
    if dominant * 8 > n as u64 * 7 || repeats as f64 > independent + n as f64 / 4.0 {
        let plane: Vec<u8> = plane.collect();
        out.push(MODE_LZ);
        write_bytes(out, &ZstdLike::new().compress(&plane));
        return;
    }
    let table = HuffmanTable::from_frequencies(counts, MAX_CODE_LEN);
    let bits: u64 = (0u16..).zip(counts).map(|(sym, &c)| c * u64::from(table.code_len(sym))).sum();
    let stream_len = bits.div_ceil(8) as usize;
    let mode_at = out.len();
    out.push(MODE_HUFF);
    table.write_header(out);
    if out.len() - mode_at + uvarint_len(stream_len as u64) + stream_len > n {
        out.truncate(mode_at);
        out.push(MODE_STORED);
        out.extend(plane);
        return;
    }
    write_uvarint(out, stream_len as u64);
    out.reserve(stream_len);
    let mut w = BitWriter::append_to(std::mem::take(out));
    table.encode_iter(plane.map(u16::from), &mut w);
    *out = w.into_bytes();
}

/// Decodes one plane of `n >= 1` bytes from `frame` at `pos` into
/// `slots` (which yields exactly `n` places).
fn decode_plane<'a>(
    frame: &[u8],
    pos: &mut usize,
    n: usize,
    mut slots: impl Iterator<Item = &'a mut u8>,
) -> Result<()> {
    let mode = *frame.get(*pos).ok_or(CodecError::UnexpectedEof)?;
    *pos += 1;
    match mode {
        MODE_CONST => {
            let byte = *frame.get(*pos).ok_or(CodecError::UnexpectedEof)?;
            *pos += 1;
            slots.for_each(|slot| *slot = byte);
        }
        MODE_STORED => {
            let bytes = frame.get(*pos..*pos + n).ok_or(CodecError::UnexpectedEof)?;
            *pos += n;
            slots.zip(bytes).for_each(|(slot, &byte)| *slot = byte);
        }
        MODE_HUFF => {
            let table = HuffmanTable::read_header(frame, pos)?;
            let stream = read_bytes(frame, pos)?;
            // Every symbol costs at least one bit.
            if n as u64 > stream.len() as u64 * 8 || table.coded_symbols() == 0 {
                return Err(CodecError::Corrupt("Huffman plane shorter than the image declares"));
            }
            table.decode_each(&mut BitReader::new(stream), n, |sym| {
                // A forged table may name symbols past 255; the CRC
                // refuses what the truncation produces.
                *slots.next().expect("decode_each emits n symbols") = sym as u8;
            })?;
        }
        MODE_LZ => {
            let inner = read_bytes(frame, pos)?;
            // An LZ stream expands without bound: compare the length it
            // claims before its decoder allocates for it.
            if declared_len(inner)? != n {
                return Err(CodecError::Corrupt("LZ plane length disagrees with the image"));
            }
            let bytes = ZstdLike::new().decompress(inner)?;
            slots.zip(&bytes).for_each(|(slot, &byte)| *slot = byte);
        }
        _ => return Err(CodecError::Corrupt("unknown partial-sum plane mode")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A splitmix64 byte stream.
    fn noise(seed: u64) -> impl FnMut() -> u8 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 56) as u8
        }
    }

    /// Weighted-sum-like doubles: shared scale, noisy mantissas.
    fn synth_sums(n: usize) -> Vec<u8> {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        (0..n)
            .flat_map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                ((i as f64 * 0.01).sin() * 37.0 + noise).to_le_bytes()
            })
            .collect()
    }

    /// `n` four-byte elements with one plane per mode, in mode order:
    /// a constant byte, uniform noise, a skewed byte (two values in
    /// three are zero), and a byte that is zero 15 times in 16.
    fn one_plane_per_mode(n: usize) -> Vec<u8> {
        let mut next = noise(17);
        (0..n)
            .flat_map(|i| {
                let skewed = if i % 3 == 0 { next() } else { 0 };
                let dominated = if i % 16 == 5 { next() | 1 } else { 0 };
                [0x3F, next(), skewed, dominated]
            })
            .collect()
    }

    /// The mode byte of every plane of an honest frame.
    fn plane_modes(frame: &[u8]) -> Vec<u8> {
        let stride = usize::from(frame[1]);
        let mut pos = 2;
        let n = read_uvarint(frame, &mut pos).unwrap() as usize / stride;
        (0..stride)
            .map(|_| {
                let mode = frame[pos];
                pos += 1;
                match mode {
                    MODE_CONST => pos += 1,
                    MODE_STORED => pos += n,
                    MODE_HUFF => {
                        HuffmanTable::read_header(frame, &mut pos).unwrap();
                        read_bytes(frame, &mut pos).unwrap();
                    }
                    MODE_LZ => {
                        read_bytes(frame, &mut pos).unwrap();
                    }
                    other => panic!("unknown mode {other}"),
                }
                mode
            })
            .collect()
    }

    #[test]
    fn round_trips_bit_exactly() {
        let data = synth_sums(1000);
        let codec = PsumCodec::new();
        assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
    }

    #[test]
    fn compresses_partial_sum_streams() {
        let data = synth_sums(4096);
        let packed = PsumCodec::new().compress(&data);
        let ratio = data.len() as f64 / packed.len() as f64;
        assert!(ratio > 1.2, "ratio {ratio:.2} below the 1.2x floor");
    }

    #[test]
    fn handles_empty_odd_and_special_values() {
        let codec = PsumCodec::new();
        for data in [
            Vec::new(),
            vec![7u8; 3],                     // sub-element tail only
            vec![0u8; 17],                    // runs + odd tail
            f64::NAN.to_le_bytes().to_vec(),  // NaN bit pattern survives
            (-0.0f64).to_le_bytes().to_vec(), // signed zero survives
            f64::INFINITY.to_le_bytes().repeat(5).to_vec(),
        ] {
            assert_eq!(codec.decompress(&codec.compress(&data)).unwrap(), data);
        }
    }

    #[test]
    fn every_short_length_round_trips_at_both_strides() {
        let mut next = noise(5);
        for stride in [8, 16] {
            let codec = PsumCodec::with_stride(stride);
            for len in 0..=64 {
                let data: Vec<u8> = (0..len).map(|_| next()).collect();
                let frame = codec.compress(&data);
                assert_eq!(codec.decompress(&frame).unwrap(), data, "stride {stride}, {len} bytes");
            }
        }
    }

    #[test]
    fn each_mode_is_chosen_for_the_plane_it_suits() {
        let data = one_plane_per_mode(4096);
        let codec = PsumCodec::with_stride(4);
        let frame = codec.compress(&data);
        assert_eq!(plane_modes(&frame), [MODE_CONST, MODE_STORED, MODE_HUFF, MODE_LZ]);
        assert_eq!(codec.decompress(&frame).unwrap(), data);
        // The LZ mode's other trigger: the sign and exponent bytes of a
        // smooth series vary slowly, though no byte fills 7/8 of them.
        let modes = plane_modes(&PsumCodec::new().compress(&synth_sums(4096)));
        let mut want = [MODE_STORED; 8];
        want[6..].fill(MODE_LZ);
        assert_eq!(modes, want);
    }

    #[test]
    fn compress_into_reuses_the_frame_buffer() {
        let data = synth_sums(2048);
        let codec = PsumCodec::new();
        let mut frame = Vec::new();
        codec.compress_into(&data, &mut frame);
        assert_eq!(frame, codec.compress(&data));
        let (at, cap) = (frame.as_ptr(), frame.capacity());
        codec.compress_into(&data, &mut frame);
        assert_eq!((frame.as_ptr(), frame.capacity()), (at, cap));
    }

    #[test]
    fn rejects_garbage_and_wrong_magic() {
        let codec = PsumCodec::new();
        assert!(codec.decompress(&[]).is_err());
        assert!(codec.decompress(&[0x00, 1, 2, 3]).is_err());
        let mut frame = codec.compress(&synth_sums(2048));
        frame[10] ^= 0x40;
        assert!(codec.decompress(&frame).is_err(), "bit flip must be caught");
        // A stored-mode frame of the shuffle + LZ pipeline.
        assert!(codec.decompress(&[0xF5, 0, 3, 1, 2, 3]).is_err());
    }

    #[test]
    fn a_frame_is_refused_past_the_receivers_bound_or_stride() {
        let data = synth_sums(512);
        let codec = PsumCodec::new();
        let frame = codec.compress(&data);
        assert_eq!(codec.decompress_within(&frame, data.len()).unwrap(), data);
        assert!(codec.decompress_within(&frame, data.len() - 1).is_err());
        assert!(PsumCodec::with_stride(16).decompress(&frame).is_err());
        // Eight constant planes: 24 bytes that stand for a gigabyte.
        let zeros = codec.compress(&vec![0u8; 1 << 20]);
        assert_eq!(zeros.len(), 2 + 3 + 8 * 2 + 4);
        let mut forged = zeros[..2].to_vec();
        write_uvarint(&mut forged, 1 << 60);
        forged.extend_from_slice(&zeros[5..]);
        assert!(codec.decompress(&forged).is_err());
    }

    #[test]
    fn an_lz_plane_may_not_outgrow_the_image() {
        // The inner LZ frame carries its own length; a forged one must
        // be refused before the LZ decoder allocates for it.
        let data = one_plane_per_mode(4096);
        let codec = PsumCodec::with_stride(4);
        let frame = codec.compress(&data);
        let inner =
            ZstdLike::new().compress(&data.iter().skip(3).step_by(4).copied().collect::<Vec<_>>());
        let at = frame.windows(inner.len()).position(|w| w == inner).expect("the LZ plane");
        // flag, then the uvarint length 4096 = [0x80, 0x20].
        assert_eq!(frame[at + 1..at + 3], [0x80, 0x20]);
        let mut forged = frame.clone();
        forged[at + 2] = 0x21; // 4224
        assert!(codec.decompress(&forged).is_err());
    }

    /// Images the codec was built for and images it was not: noise,
    /// skew, runs, at strides that do and do not divide the length.
    fn images() -> impl Strategy<Value = (usize, Vec<u8>)> {
        let byte = prop_oneof![any::<u8>(), 0u8..4, Just(0u8), Just(0xFFu8)];
        (1usize..=16, proptest::collection::vec(byte, 0..700))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn arbitrary_bytes_round_trip_at_any_stride((stride, data) in images()) {
            let codec = PsumCodec::with_stride(stride);
            let frame = codec.compress(&data);
            prop_assert_eq!(codec.decompress_within(&frame, data.len()).unwrap(), data);
        }

        #[test]
        fn a_damaged_frame_is_an_error_or_the_same_image(
            (stride, data) in images(),
            at in any::<u32>(),
            bit in 0u32..8,
            truncate in any::<bool>(),
        ) {
            let codec = PsumCodec::with_stride(stride);
            let mut frame = codec.compress(&data);
            let at = at as usize % frame.len();
            if truncate {
                frame.truncate(at);
                prop_assert!(codec.decompress_within(&frame, data.len()).is_err());
            } else {
                frame[at] ^= 1 << bit;
                // A flipped padding bit changes nothing; anything else
                // trips a structure check or the CRC.
                if let Ok(image) = codec.decompress_within(&frame, data.len()) {
                    prop_assert_eq!(image, data);
                }
            }
        }
    }
}
