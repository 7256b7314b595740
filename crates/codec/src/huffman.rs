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
use std::sync::OnceLock;

/// Maximum code length supported by the canonical tables.
pub const MAX_CODE_LEN: u8 = 24;

/// Index width of the primary decode table: every code this short
/// resolves in one read. 2^11 four-byte entries stay inside L1 next to
/// the stream being decoded.
const LOOKUP_BITS: u32 = 11;

/// Per-length arrays are indexed by code length, `1..=MAX_CODE_LEN`.
type PerLength = [u32; MAX_CODE_LEN as usize + 1];

/// Symbol frequencies over the span of symbols seen so far.
///
/// SZ quantization codes cluster within a few hundred of the
/// quantizer's radius (32 768), so counting them over `0..=max` would
/// zero tens of thousands of counters per tensor that no symbol ever
/// touches. The span grows on demand, which lets a producer count
/// symbols as it emits them, before it knows their range.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// The symbol `counts[0]` belongs to.
    base: usize,
    counts: Vec<u64>,
}

impl Histogram {
    /// How far past a new extreme the span is widened, so a slowly
    /// spreading stream does not reallocate per symbol.
    const MARGIN: usize = 64;

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts the symbols of `data`.
    pub fn of(data: &[u16]) -> Self {
        let Some(min) = data.iter().copied().min() else { return Self::default() };
        let max = data.iter().copied().max().expect("data is not empty");
        let base = usize::from(min);
        let mut counts = vec![0u64; usize::from(max) - base + 1];
        for &sym in data {
            counts[usize::from(sym) - base] += 1;
        }
        Self { base, counts }
    }

    /// Counts one occurrence of `sym`.
    #[inline]
    pub fn add(&mut self, sym: u16) {
        match self.counts.get_mut(usize::from(sym).wrapping_sub(self.base)) {
            Some(count) => *count += 1,
            None => self.widen_and_add(sym),
        }
    }

    #[cold]
    fn widen_and_add(&mut self, sym: u16) {
        let sym = usize::from(sym);
        let (lo, hi) = if self.counts.is_empty() {
            (sym, sym + 1)
        } else if sym < self.base {
            (sym.saturating_sub(Self::MARGIN), self.base + self.counts.len())
        } else {
            (self.base, (sym + 1 + Self::MARGIN).min(usize::from(u16::MAX) + 1))
        };
        let mut counts = vec![0u64; hi - lo];
        counts[self.base.max(lo) - lo..][..self.counts.len()].copy_from_slice(&self.counts);
        counts[sym - lo] += 1;
        *self = Self { base: lo, counts };
    }

    /// How often `sym` was counted.
    #[cfg(test)]
    fn count(&self, sym: u16) -> u64 {
        self.counts.get(usize::from(sym).wrapping_sub(self.base)).copied().unwrap_or(0)
    }
}

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
    /// The symbol `packed[0]` belongs to; symbols outside
    /// `base..base + packed.len()` have no code.
    base: usize,
    /// `packed[sym - base]` is `code << 8 | length`, 0 when unused: one
    /// read per symbol on the encode side.
    packed: Vec<u32>,
    /// Count of codes per length.
    bl_count: PerLength,
    /// First canonical code of each length.
    first_code: PerLength,
    /// Offset into `sorted` of the first symbol of each length.
    first_sym: PerLength,
    /// Symbols sorted by `(length, symbol)`, i.e. by canonical code.
    sorted: Vec<u16>,
    /// The primary decode table, built on first decode so that encoders
    /// never pay for it.
    lookup: OnceLock<Lookup>,
}

/// Primary decode table: indexed by the next `bits` stream bits, each
/// entry is `symbol << 8 | length` of the code those bits start with,
/// or 0 when that code is longer than `bits` (or no code matches).
#[derive(Debug, Clone)]
struct Lookup {
    bits: u32,
    entries: Vec<u32>,
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
        Self::from_counts(0, freqs, max_len)
    }

    /// Counts the symbols in `data` and builds a table for them.
    pub fn from_symbols(data: &[u16], max_len: u8) -> Self {
        let Histogram { base, counts } = Histogram::of(data);
        Self::from_counts(base, &counts, max_len)
    }

    /// The table for an alphabet that starts at symbol `base`, where
    /// `counts[i]` is the frequency of symbol `base + i`. Code lengths
    /// depend on the counts and on the order of the symbols, not on
    /// where the alphabet starts, so any span that covers the used
    /// symbols yields the same codes.
    fn from_counts(base: usize, counts: &[u64], max_len: u8) -> Self {
        Self::from_lengths(base, &build_lengths(counts, max_len.clamp(1, MAX_CODE_LEN)))
    }

    /// Builds the canonical table in which symbol `base + i` has a code
    /// of `lengths[i]` bits (none when 0). The lengths must satisfy the
    /// Kraft inequality.
    fn from_lengths(base: usize, lengths: &[u8]) -> Self {
        let mut bl_count: PerLength = [0; MAX_CODE_LEN as usize + 1];
        for &len in lengths.iter().filter(|&&len| len > 0) {
            bl_count[len as usize] += 1;
        }
        let mut first_code: PerLength = [0; MAX_CODE_LEN as usize + 1];
        let mut first_sym: PerLength = [0; MAX_CODE_LEN as usize + 1];
        let (mut code, mut offset) = (0u32, 0u32);
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code + bl_count[len - 1]) << 1;
            first_code[len] = code;
            first_sym[len] = offset;
            offset += bl_count[len];
        }
        // Symbols come in ascending order, so within each length both
        // the codes handed out and the slots of `sorted` ascend with
        // the symbol: a counting sort by `(length, symbol)`.
        let mut packed = vec![0u32; lengths.len()];
        let mut sorted = vec![0u16; offset as usize];
        let (mut next_code, mut next_slot) = (first_code, first_sym);
        for (i, &len) in lengths.iter().enumerate().filter(|&(_, &len)| len > 0) {
            let len = len as usize;
            packed[i] = next_code[len] << 8 | len as u32;
            sorted[next_slot[len] as usize] = (base + i) as u16;
            next_code[len] += 1;
            next_slot[len] += 1;
        }
        Self { base, packed, bl_count, first_code, first_sym, sorted, lookup: OnceLock::new() }
    }

    /// `code << 8 | length` of `sym`, 0 when it has no code.
    #[inline]
    fn packed(&self, sym: u16) -> u32 {
        self.packed.get(usize::from(sym).wrapping_sub(self.base)).copied().unwrap_or(0)
    }

    /// Code length in bits for `sym` (0 when the symbol has no code).
    pub fn code_len(&self, sym: u16) -> u8 {
        self.packed(sym) as u8
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
        let packed = self.packed(sym);
        assert!(packed != 0, "symbol {sym} has no Huffman code");
        w.write_bits(u64::from(packed >> 8), packed & 0xff);
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

    /// The primary decode table, built on first use.
    fn lookup(&self) -> &Lookup {
        self.lookup.get_or_init(|| {
            let longest = (1..=MAX_CODE_LEN as usize).rev().find(|&len| self.bl_count[len] > 0);
            let bits = (longest.unwrap_or(1) as u32).min(LOOKUP_BITS);
            let mut entries = vec![0u32; 1 << bits];
            for len in 1..=bits {
                // A code of `len` bits owns every index it is a prefix
                // of. Kraft holds, so `code < 2^len` and the run ends
                // inside the table.
                let run = 1usize << (bits - len);
                let first = self.first_sym[len as usize] as usize;
                let symbols = &self.sorted[first..first + self.bl_count[len as usize] as usize];
                for (code, &sym) in (self.first_code[len as usize] as usize..).zip(symbols) {
                    entries[code * run..(code + 1) * run].fill(u32::from(sym) << 8 | len);
                }
            }
            Lookup { bits, entries }
        })
    }

    /// Finds the code a left-aligned bit `window` starts with, as
    /// `symbol << 8 | length`, or 0 when no code matches. Bits the
    /// window pads with zeros take part like any others, so the caller
    /// must check the length against the bits that are really there.
    #[inline]
    fn resolve(&self, lookup: &Lookup, window: u64) -> u32 {
        match lookup.entries[(window >> (64 - lookup.bits)) as usize] {
            0 => self.resolve_long(lookup.bits, window),
            entry => entry,
        }
    }

    /// [`HuffmanTable::resolve`] for codes longer than the primary
    /// table is wide: the canonical walk (one range check per length),
    /// from the first length the table does not cover.
    #[inline(never)]
    fn resolve_long(&self, covered: u32, window: u64) -> u32 {
        for len in covered as usize + 1..=MAX_CODE_LEN as usize {
            let idx = ((window >> (64 - len)) as u32).wrapping_sub(self.first_code[len]);
            if idx < self.bl_count[len] {
                let sym = self.sorted[(self.first_sym[len] + idx) as usize];
                return u32::from(sym) << 8 | len as u32;
            }
        }
        0
    }

    /// Reads one symbol from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] on truncation or
    /// [`CodecError::Corrupt`] when the bits match no code.
    #[inline]
    pub fn read_symbol(&self, r: &mut BitReader<'_>) -> Result<u16> {
        match self.resolve(self.lookup(), r.window()) {
            0 if r.remaining() < MAX_CODE_LEN as usize => Err(CodecError::UnexpectedEof),
            0 => Err(CodecError::Corrupt("invalid Huffman code")),
            // A code that needed padding bits to match was cut short.
            entry => r.consume(entry & 0xff).map(|()| (entry >> 8) as u16),
        }
    }

    /// Decodes exactly `count` symbols, handing each to `emit`. One
    /// window load serves as many symbols as its bits cover.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`HuffmanTable::read_symbol`]; symbols
    /// decoded before the error have already been emitted.
    pub fn decode_each(
        &self,
        r: &mut BitReader<'_>,
        count: usize,
        mut emit: impl FnMut(u16),
    ) -> Result<()> {
        let lookup = self.lookup();
        let mut left = count;
        while left > 0 {
            let (mut window, len) = (r.window(), r.window_len());
            let mut used = 0u32;
            while left > 0 {
                let entry = self.resolve(lookup, window);
                let code_len = entry & 0xff;
                if entry == 0 || code_len > len - used {
                    break;
                }
                emit((entry >> 8) as u16);
                used += code_len;
                window <<= code_len;
                left -= 1;
            }
            r.skip(used);
            if used == 0 {
                // Not even one symbol in a full window: truncated or
                // corrupt, and `read_symbol` knows which.
                emit(self.read_symbol(r)?);
                left -= 1;
            }
        }
        Ok(())
    }

    /// Decodes exactly `count` symbols.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`HuffmanTable::read_symbol`].
    pub fn decode_from(&self, r: &mut BitReader<'_>, count: usize) -> Result<Vec<u16>> {
        let mut out = Vec::with_capacity(count);
        self.decode_each(r, count, |sym| out.push(sym))?;
        Ok(out)
    }

    /// Serializes the table as a sparse `(symbol delta, length)` list.
    pub fn write_header(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.sorted.len() as u64);
        let mut prev = 0u64;
        for (sym, &packed) in (self.base as u64..).zip(&self.packed) {
            if packed != 0 {
                write_uvarint(out, sym - prev);
                write_uvarint(out, u64::from(packed & 0xff));
                prev = sym;
            }
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
        // Symbols arrive in ascending order. The list grows with what
        // the input really holds, never to a count it merely claims.
        let mut coded: Vec<(usize, u8)> = Vec::new();
        let mut sym = 0u64;
        for i in 0..n {
            let delta = read_uvarint(buf, pos)?;
            let len = read_uvarint(buf, pos)?;
            sym = if i == 0 { delta } else { sym.saturating_add(delta) };
            if sym > u64::from(u16::MAX) {
                return Err(CodecError::Corrupt("Huffman symbol out of range"));
            }
            if len == 0 || len > u64::from(MAX_CODE_LEN) {
                return Err(CodecError::Corrupt("Huffman code length out of range"));
            }
            match coded.last_mut() {
                // A zero delta repeats the symbol; the later length wins.
                Some(last) if last.0 == sym as usize => last.1 = len as u8,
                _ => coded.push((sym as usize, len as u8)),
            }
        }
        // Reject tables violating the Kraft inequality: they cannot come
        // from a well-formed encoder and would produce overlapping codes.
        let kraft: u64 = coded.iter().map(|&(_, len)| 1u64 << (MAX_CODE_LEN - len)).sum();
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(CodecError::Corrupt("Huffman table violates Kraft inequality"));
        }
        let base = coded.first().map_or(0, |&(sym, _)| sym);
        let mut lengths = vec![0u8; coded.last().map_or(0, |&(sym, _)| sym + 1 - base)];
        for &(sym, len) in &coded {
            lengths[sym - base] = len;
        }
        Ok(Self::from_lengths(base, &lengths))
    }
}

/// One-shot helper: Huffman-encode `data` into a self-contained block
/// (header + symbol count + padded bitstream).
pub fn encode_block(data: &[u16]) -> Vec<u8> {
    encode_block_counted(data, &Histogram::of(data))
}

/// [`encode_block`] for a producer that counted `data`'s symbols while
/// emitting them, which saves the block its own pass over `data`.
///
/// # Panics
///
/// Panics if `histogram` gives some symbol of `data` a zero count.
pub fn encode_block_counted(data: &[u16], histogram: &Histogram) -> Vec<u8> {
    let table = HuffmanTable::from_counts(histogram.base, &histogram.counts, 16);
    let bit_len: u64 =
        table.packed.iter().zip(&histogram.counts).map(|(&p, &n)| u64::from(p & 0xff) * n).sum();
    let byte_len = bit_len.div_ceil(8) as usize;
    let mut out = Vec::with_capacity(byte_len + 4 * table.coded_symbols() + 24);
    table.write_header(&mut out);
    write_uvarint(&mut out, data.len() as u64);
    let mut w = BitWriter::with_capacity(byte_len + 8);
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
    fn repeated_symbol_keeps_its_last_length() {
        // Two length-1 codes and a repeat: counting the repeat twice
        // would overflow Kraft; the decoder always let the later entry
        // overwrite the earlier one instead.
        let hdr = raw_header(&[(3, 1), (9, 3), (9, 1)]);
        let table = HuffmanTable::read_header(&hdr, &mut 0).unwrap();
        assert_eq!((table.coded_symbols(), table.code_len(3), table.code_len(9)), (2, 1, 1));
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

/// The lookup-table decoder against the bit-serial walk it replaced.
#[cfg(test)]
mod differential_tests {
    use super::*;
    use crate::bitio::reference;
    use proptest::prelude::*;

    impl HuffmanTable {
        /// The decoder this module used to have: one `read_bit` and one
        /// range check per code length. Kept as the oracle.
        pub(crate) fn read_symbol_reference(
            &self,
            r: &mut reference::BitReader<'_>,
        ) -> Result<u16> {
            let mut code = 0u32;
            for len in 1..=MAX_CODE_LEN as usize {
                code = (code << 1) | u32::from(r.read_bit()?);
                let idx = code.wrapping_sub(self.first_code[len]);
                if idx < self.bl_count[len] {
                    return Ok(self.sorted[(self.first_sym[len] + idx) as usize]);
                }
            }
            Err(CodecError::Corrupt("invalid Huffman code"))
        }
    }

    /// Decodes up to `count` symbols one `read_symbol` at a time: the
    /// symbols before the first error, and that error.
    fn decode_singly(
        table: &HuffmanTable,
        bytes: &[u8],
        count: usize,
    ) -> (Vec<u16>, Option<CodecError>) {
        let mut r = BitReader::new(bytes);
        let mut out = Vec::new();
        for _ in 0..count {
            match table.read_symbol(&mut r) {
                Ok(sym) => out.push(sym),
                Err(e) => return (out, Some(e)),
            }
        }
        (out, None)
    }

    fn decode_reference(
        table: &HuffmanTable,
        bytes: &[u8],
        count: usize,
    ) -> (Vec<u16>, Option<CodecError>) {
        let mut r = reference::BitReader::new(bytes);
        let mut out = Vec::new();
        for _ in 0..count {
            match table.read_symbol_reference(&mut r) {
                Ok(sym) => out.push(sym),
                Err(e) => return (out, Some(e)),
            }
        }
        (out, None)
    }

    /// The bulk loop, reported the same way.
    fn decode_bulk(
        table: &HuffmanTable,
        bytes: &[u8],
        count: usize,
    ) -> (Vec<u16>, Option<CodecError>) {
        let mut out = Vec::new();
        let err = table.decode_each(&mut BitReader::new(bytes), count, |sym| out.push(sym)).err();
        (out, err)
    }

    /// All three decoders must agree on `bytes`: same symbols, same
    /// error variant.
    fn assert_decoders_agree(
        table: &HuffmanTable,
        bytes: &[u8],
        count: usize,
    ) -> std::result::Result<(), TestCaseError> {
        let want = decode_reference(table, bytes, count);
        prop_assert_eq!(&decode_singly(table, bytes, count), &want);
        prop_assert_eq!(&decode_bulk(table, bytes, count), &want);
        Ok(())
    }

    /// Frequencies spread over many orders of magnitude, so the tree is
    /// lopsided and (with `max_len` = 24) codes run past `LOOKUP_BITS`.
    fn skewed_freqs() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(
            prop_oneof![Just(0u64), (0u32..40).prop_map(|shift| 1u64 << shift), 1u64..1000],
            2..200,
        )
    }

    /// `(symbol, length)` lists the way a forger would write them:
    /// ascending symbols with gaps, arbitrary lengths, kept only up to
    /// where the Kraft sum would overflow. Mostly incomplete codes.
    fn forged_pairs() -> impl Strategy<Value = Vec<(u16, u8)>> {
        proptest::collection::vec((0u16..600, 1u8..=MAX_CODE_LEN), 0..60).prop_map(|raw| {
            let mut pairs = Vec::new();
            let (mut sym, mut kraft) = (0u32, 0u64);
            for (gap, len) in raw {
                sym += u32::from(gap);
                kraft += 1u64 << (MAX_CODE_LEN - len);
                if sym > u32::from(u16::MAX) || kraft > 1u64 << MAX_CODE_LEN {
                    break;
                }
                pairs.push((sym as u16, len));
            }
            pairs
        })
    }

    fn header_of(pairs: &[(u16, u8)]) -> Vec<u8> {
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
    fn fibonacci_frequencies_reach_past_the_lookup_width() {
        let mut freqs = vec![0u64; 30];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            (a, b) = (b, a + b);
        }
        let table = HuffmanTable::from_frequencies(&freqs, MAX_CODE_LEN);
        assert!(table.code_len(0) > LOOKUP_BITS as u8, "rarest symbol: {} bits", table.code_len(0));
        let data: Vec<u16> = (0..3000u32).map(|i| (i * i % 30) as u16).collect();
        let mut w = BitWriter::new();
        table.encode_into(&data, &mut w);
        let bytes = w.into_bytes();
        assert_eq!(decode_bulk(&table, &bytes, data.len()), (data.clone(), None));
        assert_eq!(decode_reference(&table, &bytes, data.len()), (data, None));
    }

    #[test]
    fn histogram_grown_symbol_by_symbol_equals_the_counted_one() {
        let data: Vec<u16> = (0..5000u32)
            .map(|i| (32_768 + (i * 7919 % 401) as i32 - 200 * (i % 3) as i32) as u16)
            .collect();
        let mut grown = Histogram::new();
        for &sym in &data {
            grown.add(sym);
        }
        let counted = Histogram::of(&data);
        for sym in 0..=u16::MAX {
            assert_eq!(grown.count(sym), counted.count(sym), "symbol {sym}");
        }
        assert_eq!(encode_block_counted(&data, &grown), encode_block(&data));
        // Both ends of the symbol space, far apart.
        let mut ends = Histogram::new();
        for sym in [u16::MAX, 0, u16::MAX, 300] {
            ends.add(sym);
        }
        assert_eq!((ends.count(0), ends.count(300), ends.count(u16::MAX)), (1, 1, 2));
    }

    /// A table over an observed span codes exactly like the table over
    /// `0..=max` the encoder used to build.
    #[test]
    fn offset_alphabet_gets_the_codes_of_the_zero_based_one() {
        let data: Vec<u16> = (0..4000u32).map(|i| 32_700 + (i * i % 137) as u16).collect();
        let mut freqs = vec![0u64; 32_700 + 137];
        for &sym in &data {
            freqs[sym as usize] += 1;
        }
        let (full, spanned) =
            (HuffmanTable::from_frequencies(&freqs, 16), HuffmanTable::from_symbols(&data, 16));
        assert!(spanned.packed.len() <= 137);
        for sym in 0..=u16::MAX {
            assert_eq!(full.packed(sym), spanned.packed(sym), "symbol {sym}");
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        full.write_header(&mut a);
        spanned.write_header(&mut b);
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Honest streams under honest tables, whole and cut at every
        /// byte.
        #[test]
        fn honest_streams_whole_and_truncated(
            freqs in skewed_freqs(),
            picks in proptest::collection::vec(any::<u32>(), 1..300),
            max_len in prop_oneof![Just(MAX_CODE_LEN), Just(16u8), Just(9u8)],
        ) {
            let table = HuffmanTable::from_frequencies(&freqs, max_len);
            prop_assume!(table.coded_symbols() > 0);
            let data: Vec<u16> =
                picks.iter().map(|&p| table.sorted[p as usize % table.sorted.len()]).collect();
            let mut w = BitWriter::new();
            table.encode_into(&data, &mut w);
            let bytes = w.into_bytes();
            prop_assert_eq!(decode_reference(&table, &bytes, data.len()), (data.clone(), None));
            for cut in 0..=bytes.len() {
                assert_decoders_agree(&table, &bytes[..cut], data.len())?;
            }
            // And the table the decoder rebuilds from the header.
            let mut header = Vec::new();
            table.write_header(&mut header);
            let rebuilt = HuffmanTable::read_header(&header, &mut 0).unwrap();
            prop_assert_eq!(decode_bulk(&rebuilt, &bytes, data.len()), (data, None));
        }

        /// Arbitrary bytes under forged (Kraft-passing, mostly
        /// incomplete) tables: building the lookup must not index
        /// outside it, and every decoder gives the reference's answer.
        #[test]
        fn forged_tables_over_arbitrary_bytes(
            pairs in forged_pairs(),
            bytes in proptest::collection::vec(any::<u8>(), 0..40),
            count in 0usize..80,
        ) {
            let table = HuffmanTable::read_header(&header_of(&pairs), &mut 0).unwrap();
            // A zero gap repeats a symbol, which then counts once.
            prop_assert!(table.coded_symbols() <= pairs.len());
            prop_assert!(table.lookup().entries.len() <= 1 << LOOKUP_BITS);
            assert_decoders_agree(&table, &bytes, count)?;
        }
    }

    /// The CI speed gate: machine-independent because it is a ratio of
    /// two decoders run back to back on the same stream. Meaningful in
    /// release mode only (`cargo test --release -p fedsz-codec -- --ignored`).
    #[test]
    #[ignore = "timing: run in release mode"]
    fn lookup_decode_is_3x_the_bit_serial_reference() {
        use std::time::Instant;
        // An SZ-like code stream: two-sided geometric around the
        // radius, about 5 bits of entropy per symbol.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u16> = (0..1_000_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let magnitude = (state.trailing_zeros() * 3 + (state >> 60) as u32 % 3) as i32;
                (32_768 + if state >> 63 == 0 { magnitude } else { -magnitude }) as u16
            })
            .collect();
        let block = encode_block(&data);
        let mut pos = 0;
        let table = HuffmanTable::read_header(&block, &mut pos).unwrap();
        assert_eq!(read_uvarint(&block, &mut pos).unwrap(), data.len() as u64);
        let bits = read_bytes(&block, &mut pos).unwrap();

        let best_of = |mut run: Box<dyn FnMut() -> Vec<u16>>| {
            (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    let out = std::hint::black_box(run());
                    assert_eq!(out.len(), data.len());
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let fast = best_of(Box::new(|| {
            table.decode_from(&mut BitReader::new(std::hint::black_box(bits)), data.len()).unwrap()
        }));
        let slow = best_of(Box::new(|| {
            decode_reference(&table, std::hint::black_box(bits), data.len()).0
        }));
        assert_eq!(decode_bulk(&table, bits, data.len()), (data.clone(), None));
        let ratio = slow / fast;
        println!(
            "lookup {:.1} ns/sym, bit-serial {:.1} ns/sym: {ratio:.1}x",
            fast * 1e3,
            slow * 1e3
        );
        assert!(ratio >= 3.0, "lookup-table decode is only {ratio:.2}x the bit-serial reference");
    }
}
