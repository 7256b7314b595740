//! Canonical, length-limited Huffman coding.
//!
//! Used by the SZ2/SZ3 quantization-code streams and by the DEFLATE-style
//! and zstd-like lossless compressors. Codes are canonical (assigned in
//! `(length, symbol)` order), so only the code lengths need to be stored;
//! the header uses a sparse `(symbol, length)` list which is compact for
//! the very skewed alphabets produced by SZ quantization.
//!
//! # Table speed, same bytes
//!
//! A stream is fixed by the code lengths and the bit order of
//! [`crate::bitio`] alone, so how many codes move per step never shows
//! in it; every speed-up below is checked against the one-code-per-step
//! coder it replaced (`#[cfg(test)] mod reference`), bytes, decoded
//! symbols, reader positions and error variants alike.
//!
//! - **Decode.** The primary table is indexed by the next
//!   `min(11, longest code)` stream bits. Each `u64` entry packs, from
//!   the low bits up: 6 bits of total length, 6 bits of the first code's
//!   length, 4 bits of symbol count, then up to three 16-bit symbols —
//!   every code that ends inside the index bits, in stream order. At
//!   REL 1e-2 SZ codes average about 2.3 bits, so one read resolves
//!   about three. A count of 0 means the first code is longer than the
//!   index (or matches nothing) and the canonical walk takes over. When
//!   an entry's later codes would run past the symbols asked for or the
//!   stream's real bits, only its first code is taken.
//! - **When the multi-symbol table is built.** It is built from the
//!   one-code table at three reads per entry, so its cost follows the
//!   table size alone: a decode call builds it only when it asks for
//!   `MULTI_PAYBACK` (4) symbols per entry or more, 8,192 under an
//!   11-bit index. Smaller calls — a per-tensor stream of a small model,
//!   the literal runs of the zstd-class codec — read the one-code table,
//!   which has the same layout. A block's symbols can be decoded in
//!   runs ([`Block::runs`]) on the table the whole block would read, so
//!   a caller maps each run while it is in cache and never holds them
//!   all. Wider entries were measured and not kept: six 8-bit offsets
//!   from the alphabet's first symbol, or seven symbols in 16 bytes,
//!   decoded no faster than three 16-bit symbols.
//! - **Encode.** One slice encoder joins four codes per item while the
//!   longest code is 16 bits and the shortest at most four: two pairs,
//!   one accumulator step when the four fit 32 bits and two steps
//!   otherwise — a branch that SZ codes, about two bits each, almost
//!   never take. Where the shortest code is longer (the zstd-class
//!   codec's ~8-bit literals), four codes cross 32 bits about half the
//!   time, so the branch would miss half the time: there an item is one
//!   pair. Over 16 bits, one code. The writer flushes 32 bits at a time
//!   into a buffer sized from the exact bit length; the flush stores
//!   every step and advances only when 32 bits are full, with no branch:
//!   where the codes' lengths cross 32 bits follows no pattern a branch
//!   predictor could learn.
//! - **Count.** [`Counts`] counts symbols in four interleaved lanes, so
//!   a run of one symbol is four independent chains of increments, over
//!   rows that grow to the symbols seen. A producer counts its symbols
//!   as it makes them, while they are in cache, and hands the counts to
//!   [`encode_counted`]; [`encode_block`] counts first, then codes the
//!   same way.

use crate::bitio::{BitReader, BitWriter};
use crate::simd::{self, Kernel};
use crate::varint::{read_bytes, read_uvarint, write_uvarint};
use crate::{CodecError, Result};
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::OnceLock;

/// Maximum code length supported by the canonical tables.
pub const MAX_CODE_LEN: u8 = 24;

/// Index width of the primary decode table: every code this short
/// resolves in one read. 2^11 eight-byte entries stay inside L1 next to
/// the stream being decoded.
const LOOKUP_BITS: u32 = 11;

/// Most symbols one primary entry holds.
const ENTRY_SYMBOLS: usize = 3;

/// Primary-table reads one full window serves unchecked: five of at
/// most `LOOKUP_BITS` bits fit the 57 stream bits a window holds.
const FAST_ENTRIES: usize = 5;

/// How many symbols a decode call must ask for, per entry of the
/// primary table, before it builds the multi-symbol table. An entry
/// costs three single-code reads to build (~4 ns), and a read that
/// serves up to three symbols saves ~2 ns a symbol against one that
/// serves one (2.5-bit codes, measured on a 2-core AVX2 host), so four
/// symbols per entry pay the build back about twice.
const MULTI_PAYBACK: usize = 4;

/// Longest code the encoders join: two of them fit the 32 bits one
/// accumulator step takes, and two such pairs take one step whenever
/// they fit it too.
const PAIR_MAX_LEN: u32 = 16;

/// Shortest code length at which the encoders still join four codes:
/// four codes of at least five bits cross 32 too often for the branch
/// that splits them to be predicted.
const QUAD_MAX_SHORTEST: u32 = 4;

/// Per-length arrays are indexed by code length, `1..=MAX_CODE_LEN`.
type PerLength = [u32; MAX_CODE_LEN as usize + 1];

/// Counter lanes of [`Counts`].
const LANES: usize = 4;

/// Rows a [`Counts`] adds at least when a symbol falls outside its span.
const MIN_GROWTH: usize = 64;

/// Symbol frequencies, counted as the symbols are made.
///
/// Each symbol has one row of four lane counters, and a run's `i`-th
/// symbol goes to lane `i % 4` ([`Counts::add_slice`]): a run of one
/// symbol is four independent chains of increments, not one chain
/// through a counter with each increment waiting on the store before
/// it. The rows span only the symbols seen, grown (at least doubling)
/// when one falls outside: SZ quantization codes cluster within a few
/// hundred of the quantizer's radius (32 768), so rows for `0..=max`
/// would zero tens of thousands of counters per tensor that no symbol
/// ever touches, and no pass over the symbols finds their span first.
///
/// A producer that counts its symbols as it makes them, while they are
/// still in cache, hands the counts to [`encode_counted`]: the code loop
/// is then the only pass that reads them back.
///
/// # Examples
///
/// ```
/// use fedsz_codec::huffman::{self, Counts};
///
/// let symbols = [32_768u16, 32_769, 32_768, 0, 32_767];
/// let mut counts = Counts::new();
/// for run in symbols.chunks(2) {
///     counts.add_slice(run);
/// }
/// let mut block = Vec::new();
/// huffman::encode_counted(&symbols, counts, &mut block);
/// assert_eq!(block, huffman::encode_block(&symbols));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// The symbol `rows[0]` counts.
    base: usize,
    rows: Vec<[u64; LANES]>,
}

impl Counts {
    /// No symbols counted.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counts of `data`.
    pub fn of(data: &[u16]) -> Self {
        let mut counts = Self::new();
        counts.add_slice(data);
        counts
    }

    /// Counts one `sym` in lane `lane % 4`.
    #[inline(always)]
    fn add(&mut self, lane: usize, sym: u16) {
        match self.rows.get_mut(usize::from(sym).wrapping_sub(self.base)) {
            Some(row) => row[lane % LANES] += 1,
            None => self.add_outside(lane, sym),
        }
    }

    /// Counts every symbol of `data`, its `i`-th in lane `i % 4`.
    #[inline(always)]
    pub fn add_slice(&mut self, data: &[u16]) {
        let (quads, rest) = data.as_chunks::<LANES>();
        for quad in quads {
            for (lane, &sym) in quad.iter().enumerate() {
                self.add(lane, sym);
            }
        }
        for (lane, &sym) in rest.iter().enumerate() {
            self.add(lane, sym);
        }
    }

    /// [`Counts::add`] for a symbol outside the rows: grows them to
    /// cover it first.
    #[cold]
    #[inline(never)]
    fn add_outside(&mut self, lane: usize, sym: u16) {
        let (sym, end) = (usize::from(sym), self.base + self.rows.len());
        let (empty, growth) = (self.rows.is_empty(), self.rows.len().max(MIN_GROWTH));
        let lo = if empty || sym < self.base { sym.saturating_sub(growth) } else { self.base };
        let hi = if empty || sym >= end { (sym + 1 + growth).min(1 << 16) } else { end };
        let mut rows = vec![[0; LANES]; hi - lo];
        rows[self.base.max(lo) - lo..][..self.rows.len()].copy_from_slice(&self.rows);
        (self.base, self.rows) = (lo, rows);
        self.rows[sym - lo][lane % LANES] += 1;
    }

    /// The frequencies over the span `[min, max]` of the symbols
    /// counted: the symbol `counts[0]` belongs to, and the counts.
    fn spanned(&self) -> (usize, Vec<u64>) {
        let used = |row: &[u64; LANES]| row.iter().any(|&n| n > 0);
        let first = self.rows.iter().position(used).unwrap_or(0);
        let last = self.rows.iter().rposition(used).map_or(first, |last| last + 1);
        let counts = self.rows[first..last].iter().map(|row| row.iter().sum()).collect();
        (self.base + first, counts)
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
    /// The one-code primary decode table, built on first decode so that
    /// encoders never pay for it.
    single: OnceLock<Lookup>,
    /// The multi-symbol primary decode table, built on the first decode
    /// call long enough to pay for it.
    multi: OnceLock<Lookup>,
}

/// A primary decode table: indexed by the next `bits` stream bits, each
/// entry holds the codes those bits start with (see the module docs).
#[derive(Debug, Clone)]
struct Lookup {
    bits: u32,
    entries: Vec<u64>,
}

/// The entry of one code: `sym`, `len` bits long.
#[inline]
fn entry_of(sym: u16, len: u32) -> u64 {
    u64::from(sym) << 16 | 1 << 12 | u64::from(len) << 6 | u64::from(len)
}

/// Total length of an entry's codes.
#[inline]
fn entry_len(entry: u64) -> u32 {
    (entry & 0x3f) as u32
}

/// Length of an entry's first code.
#[inline]
fn entry_first_len(entry: u64) -> u32 {
    (entry >> 6 & 0x3f) as u32
}

/// How many symbols an entry holds.
#[inline]
fn entry_count(entry: u64) -> usize {
    (entry >> 12 & 0xf) as usize
}

/// An entry's `k`-th symbol.
#[inline]
fn entry_symbol(entry: u64, k: usize) -> u16 {
    (entry >> (16 * (k + 1))) as u16
}

/// Two `(code, length)`s as one, `first`'s bits first.
#[inline(always)]
fn join((first, first_len): (u64, u32), (next, next_len): (u64, u32)) -> (u64, u32) {
    (first << next_len | next, first_len + next_len)
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
        let (base, counts) = Counts::of(data).spanned();
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
        Self {
            base,
            packed,
            bl_count,
            first_code,
            first_sym,
            sorted,
            single: OnceLock::new(),
            multi: OnceLock::new(),
        }
    }

    /// `code << 8 | length` of `sym`, 0 when it has no code.
    #[inline]
    fn packed(&self, sym: u16) -> u32 {
        self.packed.get(usize::from(sym).wrapping_sub(self.base)).copied().unwrap_or(0)
    }

    /// `(code, length)` of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` has no code in this table.
    #[inline]
    fn code(&self, sym: u16) -> (u64, u32) {
        let packed = self.packed(sym);
        assert!(packed != 0, "symbol {sym} has no Huffman code");
        (u64::from(packed >> 8), packed & 0xff)
    }

    /// Code length in bits for `sym` (0 when the symbol has no code).
    pub fn code_len(&self, sym: u16) -> u8 {
        self.packed(sym) as u8
    }

    /// Number of symbols with assigned codes.
    pub fn coded_symbols(&self) -> usize {
        self.sorted.len()
    }

    /// Length of the longest code (1 for an empty table).
    fn longest(&self) -> u32 {
        (1..=MAX_CODE_LEN as u32).rev().find(|&len| self.bl_count[len as usize] > 0).unwrap_or(1)
    }

    /// Writes one symbol to `w`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` has no code in this table.
    #[inline]
    pub fn write_symbol(&self, sym: u16, w: &mut BitWriter) {
        let (code, len) = self.code(sym);
        w.write_bits(code, len);
    }

    /// Encodes an entire slice of symbols: the same bits as one
    /// [`HuffmanTable::write_symbol`] each, in a quarter of the
    /// accumulator steps while no code is longer than 16 bits.
    ///
    /// # Panics
    ///
    /// Panics if any symbol has no code in this table.
    #[inline]
    pub fn encode_into(&self, data: &[u16], w: &mut BitWriter) {
        self.encode_slice(data, |&sym| sym, w);
    }

    /// [`HuffmanTable::encode_into`] for byte symbols.
    ///
    /// # Panics
    ///
    /// Panics if any byte has no code in this table.
    #[inline]
    pub fn encode_bytes(&self, data: &[u8], w: &mut BitWriter) {
        self.encode_slice(data, |&byte| u16::from(byte), w);
    }

    /// How many codes the encoders join into one item: four (two pairs,
    /// joined into one accumulator step whenever they fit 32 bits) while
    /// the longest code is 16 bits and the shortest at most
    /// [`QUAD_MAX_SHORTEST`]; two while four would cross 32 bits about
    /// as often as not, where the branch that splits them would miss
    /// half the time; one while a pair may not fit a step.
    fn codes_per_item(&self) -> usize {
        let shortest = (1..=MAX_CODE_LEN as u32).find(|&len| self.bl_count[len as usize] > 0);
        match self.longest() {
            longest if longest > PAIR_MAX_LEN => 1,
            _ if shortest.unwrap_or(1) > QUAD_MAX_SHORTEST => 2,
            _ => 4,
        }
    }

    /// The one slice encoder, [`HuffmanTable::codes_per_item`] codes
    /// per item.
    #[inline(always)]
    fn encode_slice<T>(&self, data: &[T], sym: impl Fn(&T) -> u16, w: &mut BitWriter) {
        let rest =
            match self.codes_per_item() {
                1 => data,
                2 => {
                    let (pairs, rest) = data.as_chunks::<2>();
                    w.write_codes(pairs.iter().map(|[a, b]| [self.pair(sym(a), sym(b)), (0, 0)]));
                    rest
                }
                _ => {
                    let (quads, rest) = data.as_chunks::<4>();
                    w.write_codes(quads.iter().map(|[a, b, c, d]| {
                        [self.pair(sym(a), sym(b)), self.pair(sym(c), sym(d))]
                    }));
                    rest
                }
            };
        w.write_codes(rest.iter().map(|s| [self.code(sym(s)), (0, 0)]));
    }

    /// The codes of `sym` and `next` joined, `sym`'s first.
    #[inline]
    fn pair(&self, sym: u16, next: u16) -> (u64, u32) {
        join(self.code(sym), self.code(next))
    }

    /// Encodes every symbol `symbols` yields: the same bits as
    /// [`HuffmanTable::encode_into`] on them collected, in the same
    /// items of four, two or one codes.
    ///
    /// # Panics
    ///
    /// Panics if any symbol has no code in this table.
    #[inline]
    pub fn encode_iter(&self, symbols: impl IntoIterator<Item = u16>, w: &mut BitWriter) {
        let per_item = self.codes_per_item();
        let mut symbols = symbols.into_iter().fuse();
        // Past the last symbol, `(0, 0)` writes nothing.
        let mut code = move || symbols.next().map_or((0, 0), |sym| self.code(sym));
        w.write_codes(std::iter::from_fn(|| {
            let first = code();
            if first.1 == 0 {
                return None;
            }
            Some(match per_item {
                1 => [first, (0, 0)],
                2 => [join(first, code()), (0, 0)],
                _ => {
                    let (second, third, fourth) = (code(), code(), code());
                    [join(first, second), join(third, fourth)]
                }
            })
        }));
    }

    /// The one-code primary decode table, built on first use.
    fn single(&self) -> &Lookup {
        self.single.get_or_init(|| {
            let bits = self.longest().min(LOOKUP_BITS);
            let mut entries = vec![0u64; 1 << bits];
            for len in 1..=bits {
                // A code of `len` bits owns every index it is a prefix
                // of. Kraft holds, so `code < 2^len` and the run ends
                // inside the table.
                let run = 1usize << (bits - len);
                let first = self.first_sym[len as usize] as usize;
                let symbols = &self.sorted[first..first + self.bl_count[len as usize] as usize];
                for (code, &sym) in (self.first_code[len as usize] as usize..).zip(symbols) {
                    entries[code * run..(code + 1) * run].fill(entry_of(sym, len));
                }
            }
            Lookup { bits, entries }
        })
    }

    /// The multi-symbol primary decode table, built on first use from
    /// the one-code table: an index's entry takes the code it starts
    /// with, then the code the bits after it start with, as long as
    /// each ends inside the index bits.
    fn multi(&self) -> &Lookup {
        self.multi.get_or_init(|| {
            let single = self.single();
            let (bits, mask) = (single.bits, (1usize << single.bits) - 1);
            let entries = (0..single.entries.len())
                .map(|index| {
                    let mut entry = single.entries[index];
                    for k in 1..ENTRY_SYMBOLS {
                        // The bits after the entry's codes, zero-padded:
                        // a code found there counts only if it ends
                        // inside the index.
                        let used = entry_len(entry);
                        let next = single.entries[index << used & mask];
                        if entry == 0 || next == 0 || used + entry_len(next) > bits {
                            break;
                        }
                        entry += u64::from(entry_symbol(next, 0)) << (16 * (k + 1))
                            | 1 << 12
                            | u64::from(entry_len(next));
                    }
                    entry
                })
                .collect();
            Lookup { bits, entries }
        })
    }

    /// The primary table a decode call of `count` symbols reads.
    fn lookup_for(&self, count: usize) -> &Lookup {
        let single = self.single();
        if count >= MULTI_PAYBACK << single.bits {
            self.multi()
        } else {
            single
        }
    }

    /// The entry of the code a left-aligned bit `window` starts with:
    /// `lookup`'s, or the canonical walk's when the code is longer than
    /// the table is wide; 0 when no code matches. Bits the window pads
    /// with zeros take part like any others, so the caller must check
    /// the length against the bits that are really there.
    #[inline]
    fn resolve(&self, lookup: &Lookup, window: u64) -> u64 {
        match lookup.entries[(window >> (64 - lookup.bits)) as usize] {
            0 => self.resolve_long(lookup.bits, window),
            entry => entry,
        }
    }

    /// [`HuffmanTable::resolve`] for codes longer than the primary
    /// table is wide: the canonical walk (one range check per length),
    /// from the first length the table does not cover.
    #[inline(never)]
    fn resolve_long(&self, covered: u32, window: u64) -> u64 {
        for len in covered as usize + 1..=MAX_CODE_LEN as usize {
            let idx = ((window >> (64 - len)) as u32).wrapping_sub(self.first_code[len]);
            if idx < self.bl_count[len] {
                let sym = self.sorted[(self.first_sym[len] + idx) as usize];
                return entry_of(sym, len as u32);
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
        match self.resolve(self.single(), r.window()) {
            0 if r.remaining() < MAX_CODE_LEN as usize => Err(CodecError::UnexpectedEof),
            0 => Err(CodecError::Corrupt("invalid Huffman code")),
            // A code that needed padding bits to match was cut short.
            entry => r.consume(entry_len(entry)).map(|()| entry_symbol(entry, 0)),
        }
    }

    /// Decodes exactly `count` symbols, handing each to `emit`. One
    /// window load serves as many symbols as its bits cover, and one
    /// table read up to three.
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
        self.decode_entries(self.lookup_for(count), r, count, |entry, n| {
            emit(entry_symbol(entry, 0));
            if n > 1 {
                emit(entry_symbol(entry, 1));
                if n > 2 {
                    emit(entry_symbol(entry, 2));
                }
            }
        })
    }

    /// Decodes exactly `count` symbols.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`HuffmanTable::read_symbol`].
    #[inline(always)]
    pub fn decode_from(&self, r: &mut BitReader<'_>, count: usize) -> Result<Vec<u16>> {
        let mut out = vec![0u16; count + ENTRY_SYMBOLS - 1];
        self.decode_slots(self.lookup_for(count), r, &mut out)?;
        out.truncate(count);
        Ok(out)
    }

    /// Decodes `out.len() - 2` symbols into `out` from `lookup`. Every
    /// entry stores all three of its slots and the next one overwrites
    /// those it did not use, so `out` holds room for the last entry's
    /// spare two.
    #[inline(always)]
    fn decode_slots(&self, lookup: &Lookup, r: &mut BitReader<'_>, out: &mut [u16]) -> Result<()> {
        let mut at = 0;
        let count = out.len() - (ENTRY_SYMBOLS - 1);
        self.decode_entries(lookup, r, count, |entry, n| {
            let slots = &mut out[at..at + ENTRY_SYMBOLS];
            slots[0] = entry_symbol(entry, 0);
            slots[1] = entry_symbol(entry, 1);
            slots[2] = entry_symbol(entry, 2);
            at += n;
        })
    }

    /// The decode loop: hands `put` each entry read from `lookup` with
    /// the number of its symbols taken, `count` symbols in all.
    #[inline]
    fn decode_entries(
        &self,
        lookup: &Lookup,
        r: &mut BitReader<'_>,
        count: usize,
        mut put: impl FnMut(u64, usize),
    ) -> Result<()> {
        let mut left = count;
        while left > 0 {
            let (mut window, len) = (r.window(), r.window_len());
            let mut used = 0u32;
            // Checked once for five entries: each holds at most three
            // symbols in at most `LOOKUP_BITS` bits, so while the window
            // is full and enough symbols are left, every one is taken
            // whole. A code longer than the index ends the run.
            if len >= FAST_ENTRIES as u32 * LOOKUP_BITS && left >= FAST_ENTRIES * ENTRY_SYMBOLS {
                let mut taken = 0;
                while taken < FAST_ENTRIES {
                    let entry = lookup.entries[(window >> (64 - lookup.bits)) as usize];
                    if entry == 0 {
                        break;
                    }
                    let (n, bits) = (entry_count(entry), entry_len(entry));
                    put(entry, n);
                    used += bits;
                    window <<= bits;
                    left -= n;
                    taken += 1;
                }
                if taken == FAST_ENTRIES {
                    r.skip(used);
                    continue;
                }
            }
            while left > 0 {
                let entry = self.resolve(lookup, window);
                let (mut n, mut bits) = (entry_count(entry), entry_len(entry));
                if n > left || bits > len - used {
                    // Only the first code: the others run past the
                    // symbols asked for or the stream's real bits.
                    (n, bits) = (1, entry_first_len(entry));
                }
                if entry == 0 || bits > len - used {
                    break;
                }
                put(entry, n);
                used += bits;
                window <<= bits;
                left -= n;
            }
            r.skip(used);
            if used == 0 {
                // Not even one symbol in a full window: truncated or
                // corrupt, and `read_symbol` knows which.
                put(u64::from(self.read_symbol(r)?) << 16, 1);
                left -= 1;
            }
        }
        Ok(())
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
/// (header + symbol count + padded bitstream). Counts `data`, then
/// codes it as [`encode_counted`] does.
pub fn encode_block(data: &[u16]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_counted(data, Counts::of(data), &mut out);
    out
}

/// Appends to `out` the [`encode_block`] of `data`, whose symbols a
/// producer already counted into `counts` as it made them: the symbols
/// are read once, by the code loop.
///
/// # Panics
///
/// Panics if `counts` are not the counts of `data`, unless they differ
/// only in ways that move neither a code nor the stream's length.
pub fn encode_counted(data: &[u16], counts: Counts, out: &mut Vec<u8>) {
    *out = simd::dispatch(EncodeBlock { data, counts, out: std::mem::take(out) });
}

/// [`encode_counted`]'s table build and code loop, compiled for the
/// build target and for AVX2 ([`simd`]).
struct EncodeBlock<'a> {
    data: &'a [u16],
    counts: Counts,
    out: Vec<u8>,
}

impl Kernel for EncodeBlock<'_> {
    type Output = Vec<u8>;

    #[inline(always)]
    fn run(self) -> Vec<u8> {
        let Self { data, counts, mut out } = self;
        let (base, counts) = counts.spanned();
        assert_eq!(counts.iter().sum::<u64>(), data.len() as u64, "counts of other symbols");
        let table = HuffmanTable::from_counts(base, &counts, 16);
        let bit_len: u64 =
            table.packed.iter().zip(&counts).map(|(&p, &n)| u64::from(p & 0xff) * n).sum();
        let byte_len = bit_len.div_ceil(8) as usize;
        out.reserve(byte_len + 4 * table.coded_symbols() + 24);
        table.write_header(&mut out);
        write_uvarint(&mut out, data.len() as u64);
        // The counts fix the stream's length before a bit of it is written,
        // so it is coded straight into the block.
        write_uvarint(&mut out, byte_len as u64);
        let end = out.len() + byte_len;
        let mut w = BitWriter::append_to(out);
        table.encode_into(data, &mut w);
        let out = w.into_bytes();
        assert_eq!(out.len(), end, "counts of other symbols");
        out
    }
}

/// Decodes a block produced by [`encode_block`], advancing `pos`.
///
/// # Errors
///
/// Returns a [`CodecError`] for truncated or malformed blocks.
pub fn decode_block(buf: &[u8], pos: &mut usize) -> Result<Vec<u16>> {
    read_block(buf, pos)?.decode(buf)
}

/// Reads the header of a block produced by [`encode_block`], advancing
/// `pos` past the whole block, and checks what can be checked before a
/// symbol is decoded: a decoder then learns the symbol count and which
/// symbols can occur before it sizes or runs anything by them.
///
/// # Errors
///
/// Returns a [`CodecError`] for a truncated or malformed header, a
/// count the bitstream cannot back, or a nonempty block with an empty
/// table.
pub fn read_block(buf: &[u8], pos: &mut usize) -> Result<Block> {
    let table = HuffmanTable::read_header(buf, pos)?;
    let count = read_uvarint(buf, pos)?;
    let len = read_bytes(buf, pos)?.len();
    // Every symbol costs at least one bit, so the bitstream bounds the
    // count before it sizes the output.
    if count > len as u64 * 8 {
        return Err(CodecError::UnexpectedEof);
    }
    if count > 0 && table.coded_symbols() == 0 {
        return Err(CodecError::Corrupt("nonempty block with empty Huffman table"));
    }
    Ok(Block { table, count: count as usize, bits: *pos - len..*pos })
}

/// A block [`read_block`] read, not yet decoded.
#[derive(Debug)]
pub struct Block {
    table: HuffmanTable,
    count: usize,
    /// The bitstream's place in the buffer the block was read from.
    bits: Range<usize>,
}

impl Block {
    /// How many symbols the block holds.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether `sym` has a code, that is, can occur in the block.
    pub fn codes(&self, sym: u16) -> bool {
        self.table.code_len(sym) > 0
    }

    /// Every symbol of the block, read from `buf`, the buffer it was
    /// read from.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for a truncated or corrupt bitstream.
    pub fn decode(&self, buf: &[u8]) -> Result<Vec<u16>> {
        let bits = &buf[self.bits.clone()];
        simd::dispatch(DecodeBlock { table: &self.table, bits, count: self.count })
    }

    /// A decoder of the block's symbols in runs, from `buf`, the buffer
    /// it was read from: the whole block's decode loop, without a
    /// buffer of all its symbols. The primary table is the one
    /// [`Block::decode`] reads.
    pub fn runs<'a>(&'a self, buf: &'a [u8]) -> Runs<'a> {
        Runs {
            table: &self.table,
            lookup: self.table.lookup_for(self.count),
            r: BitReader::new(&buf[self.bits.clone()]),
            left: self.count,
            run: Vec::new(),
        }
    }
}

/// A block's symbols in runs ([`Block::runs`]).
#[derive(Debug)]
pub struct Runs<'a> {
    table: &'a HuffmanTable,
    lookup: &'a Lookup,
    r: BitReader<'a>,
    left: usize,
    /// The last run, and room for the spare slots its last entry stores.
    run: Vec<u16>,
}

impl Runs<'_> {
    /// The next `n` symbols, or all that are left if fewer.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for a truncated or corrupt bitstream.
    #[inline(always)]
    pub fn next(&mut self, n: usize) -> Result<&[u16]> {
        let n = n.min(self.left);
        self.run.resize(n + ENTRY_SYMBOLS - 1, 0);
        self.table.decode_slots(self.lookup, &mut self.r, &mut self.run)?;
        self.left -= n;
        Ok(&self.run[..n])
    }
}

/// [`Block::decode`]'s decode loop, compiled for the build target and
/// for AVX2 ([`simd`]).
struct DecodeBlock<'a> {
    table: &'a HuffmanTable,
    bits: &'a [u8],
    count: usize,
}

impl Kernel for DecodeBlock<'_> {
    type Output = Result<Vec<u16>>;

    #[inline(always)]
    fn run(self) -> Result<Vec<u16>> {
        self.table.decode_from(&mut BitReader::new(self.bits), self.count)
    }
}

/// Computes length-limited code lengths from frequencies.
///
/// Builds an ordinary Huffman tree, then repairs any over-long codes with
/// the zlib-style Kraft fix-up (demote over-long codes to `max_len`, then
/// rebalance until the Kraft sum fits). The result is always decodable;
/// it is optimal whenever no length exceeded `max_len`.
fn build_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
    let mut lengths = tree_depths(freqs);
    limit_lengths(&mut lengths, max_len);
    lengths
}

/// Each symbol's depth in an ordinary Huffman tree over `freqs` (0 for
/// an unused symbol, at most [`MAX_CODE_LEN`]).
fn tree_depths(freqs: &[u64]) -> Vec<u8> {
    let mut lengths = vec![0u8; freqs.len()];
    let used: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
    match used.len() {
        0 => return lengths,
        1 => {
            lengths[used[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    // The lightest two nodes merge first, ties broken on an id for
    // determinism: a leaf's symbol, or `freqs.len()` plus the merge's
    // index. Merged weights never decrease, so the merged nodes queue up
    // in that order as they are made, and the next node is the lighter
    // front of two sorted queues. Nodes are numbered leaves first, in
    // sorted order, then one per merge, the root last.
    let mut leaves: Vec<(u64, usize)> = used.iter().map(|&sym| (freqs[sym], sym)).collect();
    leaves.sort_unstable();
    let n = leaves.len();
    let mut merged = vec![0u64; n - 1];
    let mut parent = vec![0usize; 2 * n - 1];
    let (mut next_leaf, mut next_merged) = (0, 0);
    for k in 0..n - 1 {
        let mut lighter = || {
            // On equal weight the leaf's id is the smaller.
            if next_leaf < n && (next_merged == k || leaves[next_leaf].0 <= merged[next_merged]) {
                next_leaf += 1;
                (leaves[next_leaf - 1].0, next_leaf - 1)
            } else {
                next_merged += 1;
                (merged[next_merged - 1], n + next_merged - 1)
            }
        };
        let ((a, a_node), (b, b_node)) = (lighter(), lighter());
        (parent[a_node], parent[b_node]) = (n + k, n + k);
        merged[k] = a.saturating_add(b);
    }
    // Every parent comes after its children, so one backward pass
    // settles each depth from the root's.
    let mut depth = vec![0u32; parent.len()];
    for node in (0..parent.len() - 1).rev() {
        depth[node] = depth[parent[node]] + 1;
    }
    for (&(_, sym), &depth) in leaves.iter().zip(&depth) {
        lengths[sym] = depth.max(1).min(u32::from(MAX_CODE_LEN)) as u8;
    }
    lengths
}

/// The Kraft fix-up: clamps every code to `cap` bits, then, while the
/// Kraft sum overflows, lengthens the highest-index symbol among the
/// longest codes still below the cap. The sum is kept incrementally and
/// the candidates in one max-heap per length, so a repair costs
/// `O(log n)` per lengthened code.
fn limit_lengths(lengths: &mut [u8], cap: u8) {
    for len in lengths.iter_mut() {
        *len = (*len).min(cap);
    }
    let cap = usize::from(cap);
    let budget = 1u64 << cap;
    let mut kraft: u64 =
        lengths.iter().filter(|&&l| l > 0).map(|&l| 1u64 << (cap - usize::from(l))).sum();
    if kraft <= budget {
        return;
    }
    let mut below: Vec<BinaryHeap<usize>> = vec![BinaryHeap::new(); cap];
    for (sym, &len) in lengths.iter().enumerate() {
        if len > 0 && usize::from(len) < cap {
            below[usize::from(len)].push(sym);
        }
    }
    let mut longest = cap - 1;
    while kraft > budget {
        longest = (1..=longest)
            .rev()
            .find(|&len| !below[len].is_empty())
            .expect("kraft overflow implies a shortenable code exists");
        let sym = below[longest].pop().expect("a non-empty bucket");
        lengths[sym] += 1;
        kraft -= 1u64 << (cap - longest - 1);
        if longest + 1 < cap {
            longest += 1;
            below[longest].push(sym);
        }
    }
}

/// The coder the table-speed one replaced, kept as its oracle: one code
/// per table read and per accumulator step, one increment per counted
/// code, a tree of boxed nodes, and the Kraft fix-up that rescanned the
/// alphabet per code.
#[cfg(test)]
mod reference {
    use super::*;

    /// The single-symbol decoder: a primary table of `symbol << 8 |
    /// length` entries, one code per read.
    pub struct Decoder<'t> {
        table: &'t HuffmanTable,
        bits: u32,
        entries: Vec<u32>,
    }

    impl<'t> Decoder<'t> {
        pub fn new(table: &'t HuffmanTable) -> Self {
            let bits = table.longest().min(LOOKUP_BITS);
            let mut entries = vec![0u32; 1 << bits];
            for len in 1..=bits {
                let run = 1usize << (bits - len);
                let first = table.first_sym[len as usize] as usize;
                let symbols = &table.sorted[first..first + table.bl_count[len as usize] as usize];
                for (code, &sym) in (table.first_code[len as usize] as usize..).zip(symbols) {
                    entries[code * run..(code + 1) * run].fill(u32::from(sym) << 8 | len);
                }
            }
            Self { table, bits, entries }
        }

        fn resolve(&self, window: u64) -> u32 {
            match self.entries[(window >> (64 - self.bits)) as usize] {
                0 => match self.table.resolve_long(self.bits, window) {
                    0 => 0,
                    entry => u32::from(entry_symbol(entry, 0)) << 8 | entry_len(entry),
                },
                entry => entry,
            }
        }

        pub fn read_symbol(&self, r: &mut BitReader<'_>) -> Result<u16> {
            match self.resolve(r.window()) {
                0 if r.remaining() < MAX_CODE_LEN as usize => Err(CodecError::UnexpectedEof),
                0 => Err(CodecError::Corrupt("invalid Huffman code")),
                entry => r.consume(entry & 0xff).map(|()| (entry >> 8) as u16),
            }
        }

        pub fn decode_each(
            &self,
            r: &mut BitReader<'_>,
            count: usize,
            mut emit: impl FnMut(u16),
        ) -> Result<()> {
            let mut left = count;
            while left > 0 {
                let (mut window, len) = (r.window(), r.window_len());
                let mut used = 0u32;
                while left > 0 {
                    let entry = self.resolve(window);
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
                    emit(self.read_symbol(r)?);
                    left -= 1;
                }
            }
            Ok(())
        }
    }

    /// One `write_bits` per symbol.
    pub fn encode_into(table: &HuffmanTable, data: &[u16], w: &mut BitWriter) {
        for &sym in data {
            let packed = table.packed(sym);
            assert!(packed != 0, "symbol {sym} has no Huffman code");
            w.write_bits(u64::from(packed >> 8), packed & 0xff);
        }
    }

    /// [`super::encode_block`] counting one code per increment into one
    /// counter array, and encoding one code per step.
    pub fn encode_block(data: &[u16]) -> Vec<u8> {
        let (base, counts) = match (data.iter().copied().min(), data.iter().copied().max()) {
            (Some(min), Some(max)) => {
                let mut counts = vec![0u64; usize::from(max - min) + 1];
                for &sym in data {
                    counts[usize::from(sym - min)] += 1;
                }
                (usize::from(min), counts)
            }
            _ => (0, Vec::new()),
        };
        let table = HuffmanTable::from_counts(base, &counts, 16);
        let mut out = Vec::new();
        table.write_header(&mut out);
        write_uvarint(&mut out, data.len() as u64);
        let mut w = BitWriter::new();
        encode_into(&table, data, &mut w);
        let bits = w.into_bytes();
        write_uvarint(&mut out, bits.len() as u64);
        out.extend_from_slice(&bits);
        out
    }

    /// [`super::tree_depths`] as it was: one boxed node per merge and a
    /// walk down from the root.
    pub fn tree_depths(freqs: &[u64]) -> Vec<u8> {
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
        lengths
    }

    /// The fix-up loop [`super::limit_lengths`] replaced: the Kraft sum
    /// and the candidate scan redone for every lengthened code.
    pub fn limit_lengths(lengths: &mut [u8], cap: u8) {
        for len in lengths.iter_mut() {
            if *len > cap {
                *len = cap;
            }
        }
        let kraft = |lengths: &[u8]| -> u64 {
            lengths.iter().filter(|&&l| l > 0).map(|&l| 1u64 << (cap - l)).sum()
        };
        let budget = 1u64 << cap;
        while kraft(lengths) > budget {
            let sym = (0..lengths.len())
                .filter(|&s| lengths[s] > 0 && lengths[s] < cap)
                .max_by_key(|&s| lengths[s])
                .expect("kraft overflow implies a shortenable code exists");
            lengths[sym] += 1;
        }
    }
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

    pub(super) fn header_of(pairs: &[(u16, u8)]) -> Vec<u8> {
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
    fn histogram_lanes_count_like_one_counter_per_symbol() {
        let mut data: Vec<u16> = (0..5001u32)
            .map(|i| (32_768 + (i * 7919 % 401) as i32 - 200 * (i % 3) as i32) as u16)
            .collect();
        // Runs of one symbol, and both ends of the symbol space.
        data.extend([7u16; 9]);
        data.extend([u16::MAX, 0, u16::MAX, 300]);
        for len in [0, 1, 3, 4, 5, 4000, data.len()] {
            let (base, counts) = Counts::of(&data[data.len() - len..]).spanned();
            let mut want = vec![0u64; usize::from(u16::MAX) + 1];
            for &sym in &data[data.len() - len..] {
                want[usize::from(sym)] += 1;
            }
            let first = want.iter().position(|&n| n > 0).unwrap_or(0);
            let last = want.iter().rposition(|&n| n > 0).map_or(0, |last| last + 1);
            assert_eq!((base, &counts[..]), (first, &want[first..last]), "last {len} symbols");
        }
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
            prop_assert!(table.multi().entries.len() <= 1 << LOOKUP_BITS);
            assert_decoders_agree(&table, &bytes, count)?;
        }
    }

    /// An SZ-like code stream of `n` symbols: two-sided geometric around
    /// the radius, `spread` levels per halving of probability (3 gives
    /// about 5 bits of entropy per symbol, 1 about 2.5).
    pub(super) fn sz_like(n: usize, spread: u32) -> Vec<u16> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let magnitude =
                    (state.trailing_zeros() * spread + (state >> 60) as u32 % spread) as i32;
                (32_768 + if state >> 63 == 0 { magnitude } else { -magnitude }) as u16
            })
            .collect()
    }

    /// The CI speed gate: machine-independent because it is a ratio of
    /// two decoders run back to back on the same stream
    /// ([`crate::speed::gate`]). Meaningful in release mode only (`cargo
    /// test --release -p fedsz-codec -- --ignored`). Over 10 runs on a
    /// 2-core Xeon the median read 7.96-9.57x (median 8.13x); floor 3x.
    #[test]
    #[ignore = "timing: run in release mode"]
    fn lookup_decode_is_3x_the_bit_serial_reference() {
        let data = sz_like(1_000_000, 3);
        let block = encode_block(&data);
        let mut pos = 0;
        let table = HuffmanTable::read_header(&block, &mut pos).unwrap();
        assert_eq!(read_uvarint(&block, &mut pos).unwrap(), data.len() as u64);
        let bits = read_bytes(&block, &mut pos).unwrap();
        assert_eq!(decode_bulk(&table, bits, data.len()), (data.clone(), None));
        crate::speed::gate(
            "lookup decode against the bit-serial walk",
            3.0,
            || {
                let mut r = BitReader::new(std::hint::black_box(bits));
                table.decode_from(&mut r, data.len()).unwrap()
            },
            || decode_reference(&table, std::hint::black_box(bits), data.len()).0,
        );
    }
}

/// The table-speed coder against the one-code-per-step coder it
/// replaced (`mod reference`): same bytes, same symbols, same reader
/// positions, same errors.
#[cfg(test)]
mod table_speed_tests {
    use super::differential_tests::{header_of, sz_like};
    use super::*;
    use crate::speed::gate;
    use proptest::prelude::*;

    /// Decodes `calls` one after the other from one reader, each through
    /// `decode`: the symbols, the error that ended it, and where the
    /// reader stopped.
    fn decode_in_calls(
        bytes: &[u8],
        calls: &[usize],
        mut decode: impl FnMut(&mut BitReader<'_>, usize, &mut Vec<u16>) -> Result<()>,
    ) -> (Vec<u16>, Option<CodecError>, usize) {
        let mut r = BitReader::new(bytes);
        let mut out = Vec::new();
        for &count in calls {
            if let Err(e) = decode(&mut r, count, &mut out) {
                return (out, Some(e), r.remaining());
            }
        }
        (out, None, r.remaining())
    }

    /// Every decoder of `table` against the reference on `bytes`, read
    /// as the runs `calls`: `decode_each` and `decode_from` on whichever
    /// table their count picks, and the loop on each table forced.
    fn assert_matches_reference(
        table: &HuffmanTable,
        bytes: &[u8],
        calls: &[usize],
    ) -> std::result::Result<(), TestCaseError> {
        let old = reference::Decoder::new(table);
        let want =
            decode_in_calls(bytes, calls, |r, n, out| old.decode_each(r, n, |s| out.push(s)));
        let each =
            decode_in_calls(bytes, calls, |r, n, out| table.decode_each(r, n, |s| out.push(s)));
        prop_assert_eq!(&each, &want);
        for lookup in [table.single(), table.multi()] {
            let forced = decode_in_calls(bytes, calls, |r, n, out| {
                table.decode_entries(lookup, r, n, |entry, k| {
                    out.extend((0..k).map(|i| entry_symbol(entry, i)))
                })
            });
            prop_assert_eq!(&forced, &want);
            // The slot decoder, as a block's runs use it: what an error
            // leaves in the slots is unspecified, so compare on success.
            let slots = decode_in_calls(bytes, calls, |r, n, out| {
                let mut slots = vec![0; n + ENTRY_SYMBOLS - 1];
                let decoded = table.decode_slots(lookup, r, &mut slots);
                out.extend(&slots[..n]);
                decoded
            });
            prop_assert_eq!((&slots.1, slots.2), (&want.1, want.2));
            if want.1.is_none() {
                prop_assert_eq!(&slots, &want);
            }
        }
        // `decode_from` emits nothing on an error, so compare it on
        // success only, and its error variant otherwise.
        let from = decode_in_calls(bytes, calls, |r, n, out| {
            out.extend(table.decode_from(r, n)?);
            Ok(())
        });
        prop_assert_eq!((&from.1, from.2), (&want.1, want.2));
        if want.1.is_none() {
            prop_assert_eq!(&from, &want);
        }
        Ok(())
    }

    /// Counts over `1..=700` symbols: flat, or two-sided geometric with
    /// a random decay (as SZ codes are), with zeros sprinkled in.
    fn counts() -> impl Strategy<Value = Vec<u64>> {
        (1usize..=700, 0u32..4, any::<u64>()).prop_map(|(n, shape, seed)| {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mid = n / 2;
            (0..n)
                .map(|i| match shape {
                    0 => 1 + next() % 4,
                    _ if next() % 11 == 0 => 0,
                    _ => {
                        let distance = i.abs_diff(mid) as u32;
                        (1u64 << 40 >> (distance * shape).min(40)) + next() % 3
                    }
                })
                .collect()
        })
    }

    /// Up to 5,000 symbols drawn from `table`'s alphabet, mostly
    /// weighted toward its short codes, and the runs to decode them in.
    fn stream_of(table: &HuffmanTable, picks: &[u32], runs: &[usize]) -> (Vec<u16>, Vec<usize>) {
        let short = &table.sorted[..table.sorted.len().min(8)];
        let data: Vec<u16> = picks
            .iter()
            .map(|&p| match p % 4 {
                0 => table.sorted[(p / 4) as usize % table.sorted.len()],
                _ => short[(p / 4) as usize % short.len()],
            })
            .collect();
        // Runs of the sizes asked for, the last one taking the rest.
        let mut calls = Vec::new();
        let mut left = data.len();
        for &run in runs {
            let run = run.min(left);
            calls.push(run);
            left -= run;
        }
        calls.push(left);
        (data, calls)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(120))]

        /// Honest, truncated and bit-flipped streams under tables of
        /// every `max_len` from 1 to 16 and one of 24.
        #[test]
        fn table_speed_coder_matches_the_reference(
            counts in counts(),
            max_len in prop_oneof![1u8..=16, Just(MAX_CODE_LEN)],
            picks in proptest::collection::vec(any::<u32>(), 0..5000),
            runs in proptest::collection::vec(prop_oneof![0usize..4, 1usize..40, 100usize..3000], 0..6),
            flips in proptest::collection::vec(any::<u32>(), 1..4),
            cut in any::<u32>(),
            lead in 0u32..64,
        ) {
            let used = counts.iter().filter(|&&c| c > 0).count();
            prop_assume!(used > 0 && used <= 1 << max_len);
            let table = HuffmanTable::from_frequencies(&counts, max_len);
            let (data, calls) = stream_of(&table, &picks, &runs);

            // After `lead` bits already buffered, as a frame builder
            // leaves them.
            let mut old = crate::bitio::reference::BitWriter::default();
            let mut new = BitWriter::new();
            old.write_bits(u64::MAX, lead);
            new.write_bits(u64::MAX, lead);
            for &sym in &data {
                old.write_bits(u64::from(table.packed(sym) >> 8), table.packed(sym) & 0xff);
            }
            table.encode_into(&data, &mut new);
            prop_assert_eq!(new.bit_len(), old.bit_len());
            prop_assert_eq!(new.into_bytes(), old.into_bytes());
            let mut w = BitWriter::new();
            table.encode_iter(data.iter().copied(), &mut w);
            let bytes = w.into_bytes();
            let mut old = BitWriter::new();
            reference::encode_into(&table, &data, &mut old);
            prop_assert_eq!(&bytes, &old.into_bytes());
            prop_assert_eq!(&reference::encode_block(&data), &encode_block(&data));

            assert_matches_reference(&table, &bytes, &calls)?;
            let cut = if bytes.is_empty() { 0 } else { cut as usize % bytes.len() };
            assert_matches_reference(&table, &bytes[..cut], &calls)?;
            let mut flipped = bytes.clone();
            for &flip in &flips {
                if !flipped.is_empty() {
                    let at = flip as usize / 8 % flipped.len();
                    flipped[at] ^= 1 << (flip % 8);
                }
            }
            assert_matches_reference(&table, &flipped, &calls)?;
        }

        /// Forged, mostly incomplete tables over arbitrary bytes, read in
        /// runs: the multi-symbol entries stop at the first code that
        /// matches nothing, and the reference decides the error.
        #[test]
        fn forged_tables_decode_like_the_reference(
            pairs in proptest::collection::vec((0u16..40, 1u8..=12), 0..40),
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            runs in proptest::collection::vec(0usize..60, 1..4),
        ) {
            let (mut sym, mut kraft, mut kept) = (0u32, 0u64, Vec::new());
            for (gap, len) in pairs {
                sym += u32::from(gap);
                kraft += 1u64 << (MAX_CODE_LEN - len);
                if kraft > 1u64 << MAX_CODE_LEN {
                    break;
                }
                kept.push((sym as u16, len));
            }
            let table = HuffmanTable::read_header(&header_of(&kept), &mut 0).unwrap();
            assert_matches_reference(&table, &bytes, &runs)?;
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The incremental Kraft fix-up picks the code the rescanning
        /// loop picked, every time: Laplacian counts with a tail of
        /// singletons as wide as the cap allows.
        #[test]
        fn kraft_fix_up_matches_the_rescanning_loop(
            center in 1u64..1 << 30,
            decay in 1u32..6,
            tail in 0usize..1500,
            cap in 2u8..=16,
            gaps in any::<u64>(),
        ) {
            let mut counts: Vec<u64> =
                (0..64u32).map(|i| center >> (i.abs_diff(32) * decay).min(63)).collect();
            counts.extend((0..tail).map(|i| u64::from((gaps >> (i % 64)) & 1 == 0)));
            let used = counts.iter().filter(|&&c| c > 0).count();
            prop_assume!(used >= 2 && used <= 1 << cap);
            let mut new = tree_depths(&counts);
            let mut old = reference::tree_depths(&counts);
            prop_assert_eq!(&new, &old);
            limit_lengths(&mut new, cap);
            reference::limit_lengths(&mut old, cap);
            prop_assert_eq!(new, old);
        }
    }

    /// Tables whose longest code is each length from 1 to 16, and two
    /// longer; uniform ones whose shortest code is over four bits (two
    /// codes per item) — every way [`HuffmanTable::codes_per_item`]
    /// goes — each with every tail of zero to three codes past the last
    /// full item, after zero to 63 bits already buffered: the slice,
    /// byte and iterator encoders write one `write_bits` per code's
    /// bytes.
    #[test]
    fn four_code_encoder_matches_the_per_code_reference() {
        // Fibonacci counts over `longest + 1` symbols: a tree exactly
        // `longest` deep, with a 1-bit shortest code.
        let fibonacci = |longest: u32| -> Vec<u64> {
            let (mut a, mut b) = (1u64, 1u64);
            (0..=longest)
                .map(|_| {
                    (a, b) = (b, a + b);
                    a
                })
                .collect()
        };
        let mut tables: Vec<(HuffmanTable, usize)> = (1..=16)
            .chain([20, u32::from(MAX_CODE_LEN)])
            .map(|longest| {
                let table = HuffmanTable::from_frequencies(&fibonacci(longest), MAX_CODE_LEN);
                assert_eq!(table.longest(), longest);
                (table, if longest > PAIR_MAX_LEN { 1 } else { 4 })
            })
            .collect();
        for symbols in [32, 48, 256] {
            tables.push((HuffmanTable::from_frequencies(&vec![1; symbols], 16), 2));
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for (table, per_item) in &tables {
            assert_eq!(table.codes_per_item(), *per_item, "longest {}", table.longest());
            let alphabet = &table.sorted;
            for len in (0..8).chain(1000..1004) {
                let data: Vec<u16> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        // Mostly the shortest codes, as SZ streams are.
                        let pick = if state.is_multiple_of(4) { state >> 8 } else { state % 3 };
                        alphabet[pick as usize % alphabet.len()]
                    })
                    .collect();
                let lead = (state % 64) as u32;
                let mut want = crate::bitio::reference::BitWriter::default();
                want.write_bits(state, lead);
                for &sym in &data {
                    let (code, bits) = table.code(sym);
                    want.write_bits(code, bits);
                }
                let want = want.into_bytes();
                let with_lead = |encode: &dyn Fn(&mut BitWriter)| {
                    let mut w = BitWriter::new();
                    w.write_bits(state, lead);
                    encode(&mut w);
                    w.into_bytes()
                };
                let what = format!("longest {}, {len} symbols", table.longest());
                assert_eq!(with_lead(&|w| table.encode_into(&data, w)), want, "{what}");
                assert_eq!(
                    with_lead(&|w| table.encode_iter(data.iter().copied(), w)),
                    want,
                    "{what}"
                );
                if data.iter().all(|&sym| sym < 256) {
                    let bytes: Vec<u8> = data.iter().map(|&sym| sym as u8).collect();
                    assert_eq!(with_lead(&|w| table.encode_bytes(&bytes, w)), want, "{what}");
                }
            }
        }
    }

    /// Blocks over an alphabet wider than 256 symbols — an unpredictable
    /// code 0 beside codes near 32 768 — with every tail of zero to three
    /// codes: the counted four-code block encoder writes the per-code
    /// reference's bytes.
    #[test]
    fn wide_span_blocks_match_the_per_code_reference() {
        let mut data = sz_like(4000, 1);
        for at in (0..data.len()).step_by(97) {
            data[at] = 0;
        }
        for len in (3990..=4000).chain(0..9) {
            let data = &data[..len];
            assert_eq!(encode_block(data), reference::encode_block(data), "{len} symbols");
            let mut counted = Vec::new();
            let mut counts = Counts::new();
            for run in data.chunks(7) {
                counts.add_slice(run);
            }
            encode_counted(data, counts, &mut counted);
            assert_eq!(counted, reference::encode_block(data), "{len} symbols, counted in runs");
        }
    }

    /// Laplacian counts over `n` symbols, halving every 64 levels, with a
    /// tail of singletons: the shape SZ codes take at a tight bound, with
    /// hundreds of codes just below a 16-bit cap and thousands above it.
    fn wide_alphabet(n: usize) -> Vec<u64> {
        (0..n).map(|i| (1u64 << 30 >> (i.abs_diff(n / 2) / 64).min(63)).max(1)).collect()
    }

    #[test]
    fn wide_alphabets_get_the_rescanning_loops_lengths() {
        for n in [2_000, 8_000] {
            let mut new = tree_depths(&wide_alphabet(n));
            let mut old = reference::tree_depths(&wide_alphabet(n));
            assert_eq!(new, old, "{n} symbols");
            limit_lengths(&mut new, 16);
            reference::limit_lengths(&mut old, 16);
            assert_eq!(new, old, "{n} symbols");
        }
    }

    /// Timing gates, like `lookup_decode_is_3x_the_bit_serial_reference`:
    /// ratios of two coders run back to back on one input, meaningful in
    /// release mode only. The stream carries ~2.5 bits per symbol, where
    /// three-symbol entries fill. Over 10 runs the median read
    /// 2.32-2.50x (median 2.46x); floor 1.6x.
    #[test]
    #[ignore = "timing: run in release mode"]
    fn multi_symbol_decode_is_1_6x_the_single_symbol_reference() {
        let data = sz_like(1_000_000, 1);
        let block = encode_block(&data);
        let mut pos = 0;
        let table = HuffmanTable::read_header(&block, &mut pos).unwrap();
        read_uvarint(&block, &mut pos).unwrap();
        let bits = read_bytes(&block, &mut pos).unwrap();
        println!("{:.2} bits/symbol", bits.len() as f64 * 8.0 / data.len() as f64);
        assert_eq!(table.decode_from(&mut BitReader::new(bits), data.len()).unwrap(), data);
        let old = reference::Decoder::new(&table);
        gate(
            "multi-symbol decode against the single-symbol one",
            1.6,
            || table.decode_from(&mut BitReader::new(std::hint::black_box(bits)), data.len()),
            || {
                let mut out = Vec::with_capacity(data.len());
                let mut r = BitReader::new(std::hint::black_box(bits));
                old.decode_each(&mut r, data.len(), |s| out.push(s)).unwrap();
                out
            },
        );
    }

    /// The block encoder, its count included, against one count and one
    /// accumulator step per symbol. Over 10 runs the median read
    /// 1.96-2.42x (median 2.38x); floor 1.5x. The paired encoder before
    /// it read ~1.4x, best of five.
    #[test]
    #[ignore = "timing: run in release mode"]
    fn block_encode_is_1_25x_the_per_symbol_reference() {
        let data = sz_like(1_000_000, 1);
        assert_eq!(encode_block(&data), reference::encode_block(&data));
        gate(
            "four-code block encode against the per-symbol one",
            1.5,
            || encode_block(std::hint::black_box(&data)),
            || reference::encode_block(std::hint::black_box(&data)),
        );
    }

    /// Over 10 runs the median read 110-144x (median 132x); floor 20x.
    #[test]
    #[ignore = "timing: run in release mode"]
    fn table_build_is_20x_the_rescanning_fix_up() {
        let counts = wide_alphabet(30_000);
        gate(
            "30,000-symbol table build against the rescanning fix-up",
            20.0,
            || HuffmanTable::from_frequencies(std::hint::black_box(&counts), 16),
            || {
                let mut lengths = reference::tree_depths(std::hint::black_box(&counts));
                reference::limit_lengths(&mut lengths, 16);
                HuffmanTable::from_lengths(0, &lengths)
            },
        );
    }
}

/// [`encode_block`]'s AVX2 copy against its build-target copy.
#[cfg(test)]
mod simd_tests {
    use super::differential_tests::sz_like;
    use super::*;
    use proptest::prelude::*;

    /// Both copies of the block encoder on `data`: `None` on a host
    /// without AVX2, where there is nothing to compare.
    fn both(data: &[u16]) -> Option<(Vec<u8>, Vec<u8>)> {
        let kernel = || EncodeBlock { data, counts: Counts::of(data), out: Vec::new() };
        let avx2 = simd::avx2(kernel());
        if avx2.is_none() {
            println!("skipped: this host has no AVX2, so the portable copy is the only path");
        }
        Some((avx2?, kernel().run()))
    }

    #[test]
    fn avx2_blocks_match_the_portable_copy() {
        // Lengths around the four counting lanes and the vector widths,
        // one symbol, the alphabet's ends, and a tree deeper than the
        // 16-bit limit (the Kraft fix-up).
        let skewed: Vec<u16> =
            (0..40u32).flat_map(|k| std::iter::repeat_n(k as u16, 1 << (k % 20))).collect();
        let mut cases: Vec<Vec<u16>> = (0..=33).map(|n| sz_like(n, 2)).collect();
        cases.extend([
            vec![7; 1000],
            vec![0, u16::MAX, 0, u16::MAX, 1],
            (0..=u16::MAX).collect(),
            sz_like(1_000_003, 1),
            sz_like(100_001, 3),
            skewed,
        ]);
        for data in &cases {
            let Some((avx2, portable)) = both(data) else { return };
            assert_eq!(avx2, portable, "{} symbols", data.len());
        }
    }

    /// Both copies of [`DecodeBlock`] on a block of each shape, whole and
    /// cut short.
    #[test]
    fn avx2_block_decodes_match_the_portable_copy() {
        for data in
            [sz_like(100_003, 1), sz_like(50_000, 3), (0..=u16::MAX).collect(), vec![7; 300]]
        {
            let block = encode_block(&data);
            let mut pos = 0;
            let read = read_block(&block, &mut pos).unwrap();
            for cut in [read.bits.end, read.bits.end - 1, read.bits.start + 3] {
                let kernel = || DecodeBlock {
                    table: &read.table,
                    bits: &block[read.bits.start..cut],
                    count: read.count,
                };
                let Some(avx2) = simd::avx2(kernel()) else {
                    println!(
                        "skipped: this host has no AVX2, so the portable copy is the only path"
                    );
                    return;
                };
                assert_eq!(avx2, kernel().run(), "{} symbols, cut at {cut}", data.len());
            }
        }
    }

    proptest! {
        #[test]
        fn random_blocks_match_the_portable_copy(
            data in proptest::collection::vec(prop_oneof![0u16..8, 32_700u16..32_840, any::<u16>()], 0..600),
        ) {
            if let Some((avx2, portable)) = both(&data) {
                prop_assert_eq!(avx2, portable);
            }
        }
    }
}
