//! MSB-first bit-granular readers and writers.
//!
//! Every entropy-coded format in this workspace (Huffman streams, ZFP bit
//! planes, SZx truncated mantissas) is built on these two types. Bits are
//! packed most-significant-bit first within each byte, which keeps the
//! streams easy to inspect in hex dumps.
//!
//! Both types move whole 64-bit words: the writer buffers up to 63 bits
//! and flushes eight bytes at a time, the reader serves every request
//! from one big-endian word load. The byte layout is fixed by the bit
//! order alone, so how many bits move per step never shows in a stream.

use crate::{CodecError, Result};

/// Accumulates bits MSB-first into a growable byte buffer.
///
/// # Examples
///
/// ```
/// use fedsz_codec::bitio::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bit(true);
/// w.write_bits(0, 7);
/// assert_eq!(w.into_bytes(), vec![0b1000_0000]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits currently buffered in `acc`, 0..=63.
    nbits: u32,
    /// The buffered bits, right-aligned. Bits above `nbits` are stale
    /// (already flushed, or never written) and shifted out unread.
    acc: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with capacity for roughly `bytes` output bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self { bytes: Vec::with_capacity(bytes), nbits: 0, acc: 0 }
    }

    /// Creates a writer that appends to `bytes`: the first bit written
    /// lands in a new byte after the existing ones, and
    /// [`BitWriter::into_bytes`] hands the whole buffer back. Lets a
    /// frame builder entropy-code straight into its output buffer
    /// instead of into a per-stream `Vec` it then copies.
    /// [`BitWriter::bit_len`] counts the existing bytes too.
    pub fn append_to(bytes: Vec<u8>) -> Self {
        Self { bytes, nbits: 0, acc: 0 }
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.acc = (self.acc << 1) | u64::from(bit);
        self.nbits += 1;
        if self.nbits == 64 {
            self.bytes.extend_from_slice(&self.acc.to_be_bytes());
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Appends the low `count` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        let value = if count < 64 { value & ((1u64 << count) - 1) } else { value };
        let free = 64 - self.nbits;
        if count < free {
            self.acc = (self.acc << count) | value;
            self.nbits += count;
        } else {
            // The word fills: its low `free` bits are the top of `value`,
            // and the `count - free` bits left over start the next word.
            // `free` is 1..=64, so the shift is split to stay below 64.
            let rest = count - free;
            let word = ((self.acc << (free - 1)) << 1) | (value >> rest);
            self.bytes.extend_from_slice(&word.to_be_bytes());
            self.acc = value & ((1u64 << rest) - 1);
            self.nbits = rest;
        }
    }

    /// Appends each `(value, count)` of `codes` as
    /// [`BitWriter::write_bits`] would, for `count <= 32` and no bit of
    /// `value` above `count`: one shift and one or per code. The bytes
    /// are those of `write_bits`; only the steps differ.
    #[inline(always)]
    pub(crate) fn write_codes(&mut self, mut codes: impl Iterator<Item = (u64, u32)>) {
        // Codes go out through a stack buffer, `BATCH` at a time. Each
        // step stores the top 32 buffered bits whether or not 32 are
        // buffered, and moves past them only when they are: no branch
        // depends on the code lengths, whose sum crosses 32 bits at no
        // pattern a predictor could learn.
        const BATCH: usize = 64;
        // Fewer than 32 buffered bits leave room for a 32-bit code.
        if self.nbits >= 32 {
            self.nbits -= 32;
            self.bytes.extend_from_slice(&((self.acc >> self.nbits) as u32).to_be_bytes());
        }
        let (mut acc, mut nbits) = (self.acc, self.nbits);
        let mut buf = [0u8; 4 * BATCH];
        loop {
            let mut at = 0;
            let mut batch = codes.by_ref().take(BATCH).peekable();
            if batch.peek().is_none() {
                break;
            }
            for (value, count) in batch {
                debug_assert!(count <= 32 && value >> count == 0);
                acc = acc << count | value;
                nbits += count;
                let full = nbits >= 32;
                nbits -= 32 * u32::from(full);
                buf[at..at + 4].copy_from_slice(&((acc >> nbits) as u32).to_be_bytes());
                at += 4 * usize::from(full);
            }
            self.bytes.extend_from_slice(&buf[..at]);
        }
        (self.acc, self.nbits) = (acc, nbits);
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.nbits as usize
    }

    /// Pads the final partial byte with zeros and returns the buffer.
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let word = self.acc << (64 - self.nbits);
            let used = self.nbits.div_ceil(8) as usize;
            self.bytes.extend_from_slice(&word.to_be_bytes()[..used]);
        }
        self.bytes
    }
}

/// Reads bits MSB-first from a byte slice.
///
/// # Examples
///
/// ```
/// use fedsz_codec::bitio::BitReader;
///
/// let mut r = BitReader::new(&[0b1010_0000]);
/// assert!(r.read_bit().unwrap());
/// assert!(!r.read_bit().unwrap());
/// assert!(r.read_bit().unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor from the start of `bytes`.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// The most bits one [`BitReader::peek_bits`] call can return: a
    /// 64-bit load starting at the cursor's byte, less the up-to-seven
    /// bits of that byte already consumed.
    pub const MAX_PEEK: u32 = 57;

    /// Creates a reader over `bytes` starting at bit 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Number of bits still available.
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// The bits at the cursor, left-aligned in a word: the top
    /// [`BitReader::MAX_PEEK`] bits (at least) are stream bits, with 0
    /// standing in for every bit past the end of the input.
    #[inline]
    pub(crate) fn window(&self) -> u64 {
        let byte = self.pos / 8;
        let word = match self.bytes.get(byte..byte + 8) {
            Some(chunk) => u64::from_be_bytes(chunk.try_into().expect("slice of length 8")),
            None => {
                let tail = self.bytes.get(byte..).unwrap_or_default();
                let mut padded = [0u8; 8];
                padded[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(padded)
            }
        };
        word << (self.pos % 8)
    }

    /// How many of [`BitReader::window`]'s bits are stream bits rather
    /// than padding.
    #[inline]
    pub(crate) fn window_len(&self) -> u32 {
        (64 - self.pos % 8).min(self.remaining()) as u32
    }

    /// Advances past `count` bits a caller took from the window; it
    /// must not exceed [`BitReader::window_len`].
    #[inline]
    pub(crate) fn skip(&mut self, count: u32) {
        debug_assert!(count <= self.window_len());
        self.pos += count as usize;
    }

    /// Returns the next `count` bits as the low bits of a `u64` without
    /// consuming them. Bits past the end of the input read as 0, so a
    /// caller decides how much to [`BitReader::consume`] from what it
    /// sees and learns of truncation there.
    ///
    /// # Panics
    ///
    /// Panics if `count > BitReader::MAX_PEEK`.
    #[inline]
    pub fn peek_bits(&self, count: u32) -> u64 {
        assert!(count <= Self::MAX_PEEK, "cannot peek more than 57 bits at once");
        // Split shift: `count` may be 0.
        (self.window() >> 1) >> (63 - count)
    }

    /// Advances the cursor by `count` bits.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`], leaving the cursor where it
    /// was, if fewer than `count` bits remain.
    #[inline]
    pub fn consume(&mut self, count: u32) -> Result<()> {
        if self.remaining() < count as usize {
            return Err(CodecError::UnexpectedEof);
        }
        self.pos += count as usize;
        Ok(())
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] when the input is exhausted.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        let byte = *self.bytes.get(self.pos / 8).ok_or(CodecError::UnexpectedEof)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    /// Reads `count` bits as the low bits of a `u64`, MSB first.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if fewer than `count` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if self.remaining() < count as usize {
            return Err(CodecError::UnexpectedEof);
        }
        // A request wider than one window is two that are not.
        let (high, low_count) = if count <= Self::MAX_PEEK {
            (0, count)
        } else {
            let high = self.peek_bits(count - 32);
            self.pos += (count - 32) as usize;
            (high << 32, 32)
        };
        let value = high | self.peek_bits(low_count);
        self.pos += low_count as usize;
        Ok(value)
    }

    /// Skips to the next byte boundary (no-op when already aligned).
    pub fn align_to_byte(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }
}

/// The bit-at-a-time reader and writer these types replaced, kept as
/// the oracle the word-at-a-time ones are tested against.
#[cfg(test)]
pub(crate) mod reference {
    use crate::{CodecError, Result};

    /// One-byte accumulator, one `push` per byte.
    #[derive(Default)]
    pub struct BitWriter {
        bytes: Vec<u8>,
        nbits: u32,
        acc: u8,
    }

    impl BitWriter {
        pub fn write_bits(&mut self, value: u64, count: u32) {
            for shift in (0..count).rev() {
                self.acc = (self.acc << 1) | ((value >> shift) & 1) as u8;
                self.nbits += 1;
                if self.nbits == 8 {
                    self.bytes.push(self.acc);
                    self.acc = 0;
                    self.nbits = 0;
                }
            }
        }

        pub fn bit_len(&self) -> usize {
            self.bytes.len() * 8 + self.nbits as usize
        }

        pub fn into_bytes(mut self) -> Vec<u8> {
            if self.nbits > 0 {
                self.acc <<= 8 - self.nbits;
                self.bytes.push(self.acc);
            }
            self.bytes
        }
    }

    /// One byte fetch per bit.
    pub struct BitReader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> BitReader<'a> {
        pub fn new(bytes: &'a [u8]) -> Self {
            Self { bytes, pos: 0 }
        }

        pub fn remaining(&self) -> usize {
            self.bytes.len() * 8 - self.pos
        }

        pub fn read_bit(&mut self) -> Result<bool> {
            let byte = *self.bytes.get(self.pos / 8).ok_or(CodecError::UnexpectedEof)?;
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            self.pos += 1;
            Ok(bit == 1)
        }

        /// All-or-nothing, like the real reader: a short read consumes
        /// nothing.
        pub fn read_bits(&mut self, count: u32) -> Result<u64> {
            if self.remaining() < count as usize {
                return Err(CodecError::UnexpectedEof);
            }
            let mut value = 0u64;
            for _ in 0..count {
                value = (value << 1) | u64::from(self.read_bit()?);
            }
            Ok(value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn single_bits_across_word_boundaries_match_the_reference() {
        for lead in 0..=64 {
            let mut fast = BitWriter::new();
            let mut slow = reference::BitWriter::default();
            fast.write_bits(u64::MAX, lead);
            slow.write_bits(u64::MAX, lead);
            for i in 0..150u32 {
                let bit = i % 3 == 0 || i % 7 == 2;
                fast.write_bit(bit);
                slow.write_bits(u64::from(bit), 1);
            }
            assert_eq!(fast.bit_len(), slow.bit_len());
            assert_eq!(fast.into_bytes(), slow.into_bytes(), "lead {lead}");
        }
    }

    #[test]
    fn multi_bit_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0x3, 2);
        w.write_bits(0x1234_5678_9abc_def0, 64);
        w.write_bits(0x1f, 5);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0x3);
        assert_eq!(r.read_bits(64).unwrap(), 0x1234_5678_9abc_def0);
        assert_eq!(r.read_bits(5).unwrap(), 0x1f);
    }

    #[test]
    fn zero_bit_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0xffff, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn eof_is_reported() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
        assert_eq!(r.read_bit(), Err(CodecError::UnexpectedEof));
        assert_eq!(r.read_bits(4), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn align_to_byte_skips_padding() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xab, 8); // will straddle after alignment in reader test below
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(8).unwrap(), 0xab);
        r.align_to_byte();
        assert_eq!(r.remaining() % 8, 0);
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0, 13);
        assert_eq!(w.bit_len(), 13);
        assert_eq!(w.into_bytes().len(), 2);
    }

    #[test]
    fn append_to_continues_after_the_existing_bytes() {
        let mut alone = BitWriter::new();
        let mut appended = BitWriter::append_to(vec![0xAA, 0xBB, 0xCC]);
        for w in [&mut alone, &mut appended] {
            w.write_bits(0b101, 3);
            w.write_bits(0x1234_5678_9ABC_DEF0, 64);
            w.write_bits(0x3F, 7);
        }
        assert_eq!(appended.bit_len(), alone.bit_len() + 24);
        let alone = alone.into_bytes();
        assert_eq!(appended.into_bytes(), [&[0xAA, 0xBB, 0xCC][..], &alone].concat());
    }

    #[test]
    fn peek_pads_with_zeros_and_consume_reports_eof() {
        let mut r = BitReader::new(&[0b1011_0000, 0xff]);
        assert_eq!(r.peek_bits(0), 0);
        assert_eq!(r.peek_bits(4), 0b1011);
        r.consume(4).unwrap();
        assert_eq!(r.peek_bits(12), 0x0ff);
        // Four bits past the end read as zero...
        assert_eq!(r.peek_bits(16), 0x0ff0);
        // ...but cannot be consumed, and a refused consume moves nothing.
        assert_eq!(r.consume(13), Err(CodecError::UnexpectedEof));
        assert_eq!(r.remaining(), 12);
        r.consume(12).unwrap();
        assert_eq!(r.peek_bits(BitReader::MAX_PEEK), 0);
    }

    /// `(value, count)` writes biased toward the edges: empty, single
    /// bits, byte- and word-sized, and values with bits above `count`
    /// set (which must be masked off).
    fn writes() -> impl Strategy<Value = Vec<(u64, u32)>> {
        let count = prop_oneof![0u32..=64, Just(0u32), Just(1u32), Just(63u32), Just(64u32)];
        proptest::collection::vec((any::<u64>(), count), 0..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Runs of codes of up to 32 bits — several stack batches long,
        /// after an arbitrary number of bits already buffered — come
        /// out as one `write_bits` each would write them.
        #[test]
        fn code_runs_match_the_bit_serial_reference(
            lead in (any::<u64>(), 0u32..=64),
            runs in proptest::collection::vec(
                proptest::collection::vec((any::<u64>(), 1u32..=32), 0..200),
                1..4,
            ),
        ) {
            let mut fast = BitWriter::new();
            let mut slow = reference::BitWriter::default();
            fast.write_bits(lead.0, lead.1);
            slow.write_bits(lead.0, lead.1);
            for run in &runs {
                let masked = run.iter().map(|&(value, count)| (value >> (64 - count), count));
                fast.write_codes(masked.clone());
                for (value, count) in masked {
                    slow.write_bits(value, count);
                }
                prop_assert_eq!(fast.bit_len(), slow.bit_len());
            }
            prop_assert_eq!(fast.into_bytes(), slow.into_bytes());
        }

        #[test]
        fn writer_matches_the_bit_serial_reference(writes in writes()) {
            let mut fast = BitWriter::new();
            let mut slow = reference::BitWriter::default();
            for &(value, count) in &writes {
                // Single bits go through `write_bit` half of the time.
                if count == 1 && value & 2 == 0 {
                    fast.write_bit(value & 1 == 1);
                } else {
                    fast.write_bits(value, count);
                }
                slow.write_bits(value, count);
                prop_assert_eq!(fast.bit_len(), slow.bit_len());
            }
            prop_assert_eq!(fast.into_bytes(), slow.into_bytes());
        }

        #[test]
        fn reader_matches_the_bit_serial_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..48),
            counts in proptest::collection::vec(0u32..=64, 0..24),
        ) {
            let mut fast = BitReader::new(&bytes);
            let mut slow = reference::BitReader::new(&bytes);
            for &count in &counts {
                if count == 1 {
                    prop_assert_eq!(fast.read_bit(), slow.read_bit());
                } else {
                    prop_assert_eq!(fast.read_bits(count), slow.read_bits(count));
                }
                prop_assert_eq!(fast.remaining(), slow.remaining());
            }
        }
    }
}
