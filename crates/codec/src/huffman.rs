//! Canonical, length-limited Huffman coding.
//!
//! Used by the SZ2/SZ3 quantization-code streams and by the DEFLATE-style
//! and zstd-like lossless compressors. Codes are canonical (assigned in
//! `(length, symbol)` order), so only the code lengths need to be stored;
//! the header uses a sparse `(symbol, length)` list which is compact for
//! the very skewed alphabets produced by SZ quantization.

use crate::bitio::{BitReader, BitWriter};
use crate::varint::{read_bytes, read_uvarint, write_uvarint};
use crate::{CodecError, Result};
use std::collections::BinaryHeap;

/// Maximum code length supported by the canonical tables.
pub const MAX_CODE_LEN: u8 = 24;

/// A canonical Huffman code table over `u16` symbols.
///
/// # Examples
///
/// ```
/// use fedsz_codec::huffman::HuffmanTable;
/// use fedsz_codec::bitio::{BitReader, BitWriter};
///
/// let symbols = [3u16, 3, 3, 7, 7, 1];
/// let table = HuffmanTable::from_symbols(&symbols, 16);
/// let mut w = BitWriter::new();
/// table.encode_into(&symbols, &mut w);
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(table.decode_from(&mut r, symbols.len()).unwrap(), symbols);
/// ```
#[derive(Debug, Clone)]
pub struct HuffmanTable {
    /// `lengths[sym]` is the code length in bits, 0 when unused.
    lengths: Vec<u8>,
    /// `codes[sym]` is the canonical code, valid when `lengths[sym] > 0`.
    codes: Vec<u32>,
    /// Decoding acceleration: count of codes per length.
    bl_count: [u32; MAX_CODE_LEN as usize + 1],
    /// First canonical code of each length.
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    /// Offset into `sorted` of the first symbol of each length.
    first_sym: [u32; MAX_CODE_LEN as usize + 1],
    /// Symbols sorted by `(length, symbol)`.
    sorted: Vec<u16>,
}

impl HuffmanTable {
    /// Builds a table from raw symbol frequencies.
    ///
    /// `freqs[sym]` is the occurrence count of `sym`; symbols with zero
    /// frequency get no code. `max_len` limits code lengths (clamped to
    /// [`MAX_CODE_LEN`]).
    ///
    /// # Panics
    ///
    /// Panics if `freqs` is longer than `u16::MAX + 1` entries.
    pub fn from_frequencies(freqs: &[u64], max_len: u8) -> Self {
        assert!(freqs.len() <= (u16::MAX as usize) + 1, "alphabet too large for u16 symbols");
        let max_len = max_len.clamp(1, MAX_CODE_LEN);
        let lengths = build_lengths(freqs, max_len);
        Self::from_lengths(lengths)
    }

    /// Counts the symbols in `data` and builds a table for them.
    pub fn from_symbols(data: &[u16], max_len: u8) -> Self {
        let alphabet = data.iter().map(|&s| s as usize + 1).max().unwrap_or(1);
        let mut freqs = vec![0u64; alphabet];
        for &s in data {
            freqs[s as usize] += 1;
        }
        Self::from_frequencies(&freqs, max_len)
    }

    /// Rebuilds the canonical table from a code-length vector.
    fn from_lengths(lengths: Vec<u8>) -> Self {
        let mut bl_count = [0u32; MAX_CODE_LEN as usize + 1];
        for &len in &lengths {
            if len > 0 {
                bl_count[len as usize] += 1;
            }
        }
        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code + bl_count[len - 1]) << 1;
            first_code[len] = code;
        }
        let mut sorted: Vec<u16> = (0..lengths.len() as u32)
            .filter(|&s| lengths[s as usize] > 0)
            .map(|s| s as u16)
            .collect();
        sorted.sort_by_key(|&s| (lengths[s as usize], s));
        let mut first_sym = [0u32; MAX_CODE_LEN as usize + 1];
        let mut offset = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            first_sym[len] = offset;
            offset += bl_count[len];
        }
        let mut codes = vec![0u32; lengths.len()];
        let mut next = first_code;
        for &sym in &sorted {
            let len = lengths[sym as usize] as usize;
            codes[sym as usize] = next[len];
            next[len] += 1;
        }
        Self { lengths, codes, bl_count, first_code, first_sym, sorted }
    }

    /// Code length in bits for `sym` (0 when the symbol has no code).
    pub fn code_len(&self, sym: u16) -> u8 {
        self.lengths.get(sym as usize).copied().unwrap_or(0)
    }

    /// Number of symbols with assigned codes.
    pub fn coded_symbols(&self) -> usize {
        self.sorted.len()
    }

    /// Writes one symbol to `w`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` has no code in this table.
    #[inline]
    pub fn write_symbol(&self, sym: u16, w: &mut BitWriter) {
        let len = self.lengths[sym as usize];
        assert!(len > 0, "symbol {sym} has no Huffman code");
        w.write_bits(u64::from(self.codes[sym as usize]), u32::from(len));
    }

    /// Encodes an entire slice of symbols.
    ///
    /// # Panics
    ///
    /// Panics if any symbol has no code in this table.
    pub fn encode_into(&self, data: &[u16], w: &mut BitWriter) {
        for &sym in data {
            self.write_symbol(sym, w);
        }
    }

    /// Reads one symbol from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] on truncation or
    /// [`CodecError::Corrupt`] when the bits match no code.
    #[inline]
    pub fn read_symbol(&self, r: &mut BitReader<'_>) -> Result<u16> {
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | u32::from(r.read_bit()?);
            let count = self.bl_count[len];
            if count > 0 {
                let idx = code.wrapping_sub(self.first_code[len]);
                if idx < count {
                    return Ok(self.sorted[(self.first_sym[len] + idx) as usize]);
                }
            }
        }
        Err(CodecError::Corrupt("invalid Huffman code"))
    }

    /// Decodes exactly `count` symbols.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`HuffmanTable::read_symbol`].
    pub fn decode_from(&self, r: &mut BitReader<'_>, count: usize) -> Result<Vec<u16>> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.read_symbol(r)?);
        }
        Ok(out)
    }

    /// Serializes the table as a sparse `(symbol delta, length)` list.
    pub fn write_header(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.sorted.len() as u64);
        let mut by_symbol: Vec<u16> = self.sorted.clone();
        by_symbol.sort_unstable();
        let mut prev = 0u64;
        for &sym in &by_symbol {
            write_uvarint(out, u64::from(sym) - prev);
            write_uvarint(out, u64::from(self.lengths[sym as usize]));
            prev = u64::from(sym);
        }
    }

    /// Reads a header written by [`HuffmanTable::write_header`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] for out-of-range symbols or lengths
    /// and [`CodecError::UnexpectedEof`] on truncation.
    pub fn read_header(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let n = read_uvarint(buf, pos)? as usize;
        if n > (u16::MAX as usize) + 1 {
            return Err(CodecError::Corrupt("Huffman table too large"));
        }
        let mut lengths = Vec::new();
        let mut sym = 0u64;
        let mut first = true;
        for _ in 0..n {
            let delta = read_uvarint(buf, pos)?;
            let len = read_uvarint(buf, pos)?;
            sym = if first { delta } else { sym.saturating_add(delta) };
            first = false;
            if sym > u64::from(u16::MAX) {
                return Err(CodecError::Corrupt("Huffman symbol out of range"));
            }
            if len == 0 || len > u64::from(MAX_CODE_LEN) {
                return Err(CodecError::Corrupt("Huffman code length out of range"));
            }
            if lengths.len() <= sym as usize {
                lengths.resize(sym as usize + 1, 0);
            }
            lengths[sym as usize] = len as u8;
        }
        // Reject tables violating the Kraft inequality: they cannot come
        // from a well-formed encoder and would produce overlapping codes.
        let kraft: u64 =
            lengths.iter().filter(|&&l| l > 0).map(|&l| 1u64 << (MAX_CODE_LEN - l)).sum();
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(CodecError::Corrupt("Huffman table violates Kraft inequality"));
        }
        Ok(Self::from_lengths(lengths))
    }
}

/// One-shot helper: Huffman-encode `data` into a self-contained block
/// (header + symbol count + padded bitstream).
pub fn encode_block(data: &[u16]) -> Vec<u8> {
    let table = HuffmanTable::from_symbols(data, 16);
    let mut out = Vec::new();
    table.write_header(&mut out);
    write_uvarint(&mut out, data.len() as u64);
    let mut w = BitWriter::new();
    table.encode_into(data, &mut w);
    let bits = w.into_bytes();
    write_uvarint(&mut out, bits.len() as u64);
    out.extend_from_slice(&bits);
    out
}

/// Decodes a block produced by [`encode_block`], advancing `pos`.
///
/// # Errors
///
/// Returns a [`CodecError`] for truncated or malformed blocks.
pub fn decode_block(buf: &[u8], pos: &mut usize) -> Result<Vec<u16>> {
    let table = HuffmanTable::read_header(buf, pos)?;
    let count = read_uvarint(buf, pos)?;
    let bits = read_bytes(buf, pos)?;
    // Every symbol costs at least one bit, so the bitstream bounds the
    // count before it sizes the output.
    if count > bits.len() as u64 * 8 {
        return Err(CodecError::UnexpectedEof);
    }
    let count = count as usize;
    if count == 0 {
        return Ok(Vec::new());
    }
    if table.coded_symbols() == 0 {
        return Err(CodecError::Corrupt("nonempty block with empty Huffman table"));
    }
    let mut r = BitReader::new(bits);
    table.decode_from(&mut r, count)
}

/// Computes length-limited code lengths from frequencies.
///
/// Builds an ordinary Huffman tree, then repairs any over-long codes with
/// the zlib-style Kraft fix-up (demote over-long codes to `max_len`, then
/// rebalance until the Kraft sum fits). The result is always decodable;
/// it is optimal whenever no length exceeded `max_len`.
fn build_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        // Tie-break on id for determinism.
        id: u32,
        kind: NodeKind,
    }
    #[derive(PartialEq, Eq)]
    enum NodeKind {
        Leaf(u16),
        Internal(Box<Node>, Box<Node>),
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reversed: BinaryHeap is a max-heap, we need min-weight first.
            other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut lengths = vec![0u8; freqs.len()];
    let used: Vec<u16> = (0..freqs.len()).filter(|&s| freqs[s] > 0).map(|s| s as u16).collect();
    match used.len() {
        0 => return lengths,
        1 => {
            lengths[used[0] as usize] = 1;
            return lengths;
        }
        _ => {}
    }

    let mut heap: BinaryHeap<Node> = used
        .iter()
        .map(|&s| Node { weight: freqs[s as usize], id: u32::from(s), kind: NodeKind::Leaf(s) })
        .collect();
    let mut next_id = freqs.len() as u32;
    while heap.len() > 1 {
        let a = heap.pop().expect("heap has >= 2 nodes");
        let b = heap.pop().expect("heap has >= 2 nodes");
        heap.push(Node {
            weight: a.weight.saturating_add(b.weight),
            id: next_id,
            kind: NodeKind::Internal(Box::new(a), Box::new(b)),
        });
        next_id += 1;
    }
    let root = heap.pop().expect("tree root");

    // Iterative depth-first walk to collect leaf depths.
    let mut stack = vec![(&root, 0u32)];
    while let Some((node, depth)) = stack.pop() {
        match &node.kind {
            NodeKind::Leaf(sym) => {
                lengths[*sym as usize] = depth.max(1).min(u32::from(MAX_CODE_LEN)) as u8;
            }
            NodeKind::Internal(a, b) => {
                stack.push((a, depth + 1));
                stack.push((b, depth + 1));
            }
        }
    }

    // Kraft fix-up for codes longer than max_len.
    let cap = max_len;
    for len in lengths.iter_mut() {
        if *len > cap {
            *len = cap;
        }
    }
    let kraft = |lengths: &[u8]| -> u64 {
        lengths.iter().filter(|&&l| l > 0).map(|&l| 1u64 << (cap - l)).sum()
    };
    let budget = 1u64 << cap;
    while kraft(&lengths) > budget {
        // Lengthen the shortest over-represented code that can still grow.
        let sym = (0..lengths.len())
            .filter(|&s| lengths[s] > 0 && lengths[s] < cap)
            .max_by_key(|&s| lengths[s])
            .expect("kraft overflow implies a shortenable code exists");
        lengths[sym] += 1;
    }
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u16]) {
        let block = encode_block(data);
        let mut pos = 0;
        let decoded = decode_block(&block, &mut pos).unwrap();
        assert_eq!(decoded, data);
        assert_eq!(pos, block.len());
    }

    #[test]
    fn empty_input() {
        round_trip(&[]);
    }

    #[test]
    fn single_distinct_symbol() {
        round_trip(&[42u16; 100]);
    }

    #[test]
    fn two_symbols() {
        round_trip(&[0, 1, 0, 0, 1, 0, 1, 1, 1, 0]);
    }

    #[test]
    fn skewed_distribution_compresses() {
        let mut data = vec![7u16; 10_000];
        data.extend_from_slice(&[1, 2, 3, 4, 5, 6]);
        let block = encode_block(&data);
        // 10k near-constant symbols must compress far below 2 bytes each.
        assert!(block.len() < data.len() / 4, "block len {} too large", block.len());
        round_trip(&data);
    }

    #[test]
    fn wide_alphabet_round_trip() {
        let data: Vec<u16> = (0..2000u32).map(|i| ((i * i) % 1024) as u16).collect();
        round_trip(&data);
    }

    #[test]
    fn length_limit_respected() {
        // Fibonacci-like frequencies force very skewed trees.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let table = HuffmanTable::from_frequencies(&freqs, 12);
        for sym in 0..40u16 {
            assert!(table.code_len(sym) <= 12, "sym {sym} len {}", table.code_len(sym));
            assert!(table.code_len(sym) > 0);
        }
        // Round-trip a sample drawn from that alphabet.
        let data: Vec<u16> = (0..500u16).map(|i| i % 40).collect();
        let mut w = BitWriter::new();
        table.encode_into(&data, &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(table.decode_from(&mut r, data.len()).unwrap(), data);
    }

    #[test]
    fn truncated_block_errors() {
        let data = vec![5u16; 64];
        let block = encode_block(&data);
        let mut pos = 0;
        assert!(decode_block(&block[..block.len() - 8], &mut pos).is_err());
    }

    #[test]
    fn corrupt_header_errors() {
        let data = vec![5u16; 64];
        let mut block = encode_block(&data);
        block[0] = 0xff; // implausible table size
        let mut pos = 0;
        assert!(decode_block(&block, &mut pos).is_err());
    }

    #[test]
    fn header_round_trip_preserves_codes() {
        let data: Vec<u16> = (0..300u16).map(|i| i % 17).collect();
        let table = HuffmanTable::from_symbols(&data, 16);
        let mut hdr = Vec::new();
        table.write_header(&mut hdr);
        let mut pos = 0;
        let table2 = HuffmanTable::read_header(&hdr, &mut pos).unwrap();
        for sym in 0..17u16 {
            assert_eq!(table.code_len(sym), table2.code_len(sym));
        }
    }
}

#[cfg(test)]
mod adversarial_tests {
    use super::*;
    use crate::varint::write_uvarint;

    /// Builds a raw header from explicit (symbol, length) pairs.
    fn raw_header(pairs: &[(u16, u8)]) -> Vec<u8> {
        let mut out = Vec::new();
        write_uvarint(&mut out, pairs.len() as u64);
        let mut prev = 0u64;
        for &(sym, len) in pairs {
            write_uvarint(&mut out, u64::from(sym) - prev);
            write_uvarint(&mut out, u64::from(len));
            prev = u64::from(sym);
        }
        out
    }

    #[test]
    fn kraft_violating_header_rejected() {
        // Three symbols of length 1 cannot coexist: 3 * 2^-1 > 1.
        let hdr = raw_header(&[(0, 1), (1, 1), (2, 1)]);
        let mut pos = 0;
        assert!(matches!(HuffmanTable::read_header(&hdr, &mut pos), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn zero_length_code_rejected() {
        let hdr = raw_header(&[(0, 0)]);
        let mut pos = 0;
        assert!(HuffmanTable::read_header(&hdr, &mut pos).is_err());
    }

    #[test]
    fn overlong_code_rejected() {
        let hdr = raw_header(&[(0, MAX_CODE_LEN + 1)]);
        let mut pos = 0;
        assert!(HuffmanTable::read_header(&hdr, &mut pos).is_err());
    }

    #[test]
    fn valid_saturated_header_accepted() {
        // Exactly saturating Kraft (two length-1 codes) must be fine.
        let hdr = raw_header(&[(3, 1), (9, 1)]);
        let mut pos = 0;
        let table = HuffmanTable::read_header(&hdr, &mut pos).unwrap();
        assert_eq!(table.coded_symbols(), 2);
        assert_eq!(table.code_len(3), 1);
        assert_eq!(table.code_len(9), 1);
    }

    #[test]
    fn decoding_with_incomplete_table_errors_cleanly() {
        // A single length-2 code leaves most bit patterns invalid; the
        // decoder must report Corrupt, not loop or panic.
        let hdr = raw_header(&[(5, 2)]);
        let mut pos = 0;
        let table = HuffmanTable::read_header(&hdr, &mut pos).unwrap();
        let bits = [0xFFu8; 4];
        let mut r = crate::bitio::BitReader::new(&bits);
        // Code for symbol 5 is 00; all-ones input never matches.
        assert!(table.read_symbol(&mut r).is_err());
    }
}
