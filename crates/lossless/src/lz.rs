//! Shared LZ77 match finder.
//!
//! All four lossless compressors in this crate are LZ-based; they differ
//! in window size, search effort and entropy stage. This module provides
//! the hash-chain match finder they share, parameterized so each codec
//! gets its characteristic speed/ratio trade-off.

/// One element of an LZ token stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A run of bytes copied verbatim: `input[start..start+len]`.
    Literals {
        /// Start offset into the original input.
        start: usize,
        /// Number of literal bytes.
        len: usize,
    },
    /// A back-reference: copy `len` bytes from `dist` bytes behind the
    /// current output position.
    Match {
        /// Match length in bytes (>= the finder's `min_match`).
        len: usize,
        /// Backward distance in bytes (>= 1).
        dist: usize,
    },
}

/// Tuning knobs for [`tokenize`].
#[derive(Debug, Clone, Copy)]
pub struct MatchParams {
    /// Maximum backward distance considered (the LZ window).
    pub window: usize,
    /// Minimum match length worth emitting.
    pub min_match: usize,
    /// Maximum match length the format can represent.
    pub max_match: usize,
    /// How many hash-chain candidates to inspect per position.
    pub max_chain: usize,
    /// Stop searching once a match of at least this length is found.
    pub nice_len: usize,
    /// Whether to defer emitting a match by one byte when the next
    /// position has a longer one (zlib's lazy matching).
    pub lazy: bool,
    /// LZ4-style skip acceleration: after `1 << k` consecutive literal
    /// bytes, start stepping by `1 + run >> k`. Keeps fast codecs fast on
    /// incompressible data at a tiny ratio cost. `None` disables it.
    pub accel_log: Option<u32>,
}

impl MatchParams {
    /// Fast, small-window profile (blosc-lz class).
    pub fn fast() -> Self {
        Self {
            window: 1 << 13,
            min_match: 4,
            max_match: 270,
            max_chain: 4,
            nice_len: 32,
            lazy: false,
            accel_log: Some(4),
        }
    }

    /// Balanced profile (deflate class: 32 KiB window).
    pub fn balanced() -> Self {
        Self {
            window: 1 << 15,
            min_match: 3,
            max_match: 258,
            max_chain: 32,
            nice_len: 128,
            lazy: true,
            accel_log: None,
        }
    }

    /// Large-window profile (zstd class: 1 MiB window).
    pub fn large_window() -> Self {
        Self {
            window: 1 << 20,
            min_match: 4,
            max_match: 1 << 16,
            max_chain: 16,
            nice_len: 192,
            lazy: true,
            accel_log: Some(6),
        }
    }

    /// Exhaustive profile (xz class: large window, deep chains).
    pub fn thorough() -> Self {
        Self {
            window: 1 << 22,
            min_match: 3,
            max_match: 1 << 16,
            max_chain: 192,
            nice_len: 512,
            lazy: true,
            accel_log: None,
        }
    }
}

/// Width of the position hash. Which earlier positions a search visits
/// (and so the token stream) depends on it; the size of the table the
/// chains hang from does not (see [`Chains`]).
const HASH_LOG: u32 = 16;

/// "No position": ends a chain, marks an empty bucket.
const NONE: u32 = u32::MAX;

/// Longest input one [`Chains`] indexes: its positions must stay below
/// [`NONE`]. Longer inputs are parsed in independent segments.
const MAX_SEGMENT: usize = NONE as usize;

#[inline]
fn hash4(data: &[u8], pos: usize) -> u32 {
    let v = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
    v.wrapping_mul(2654435761) >> (32 - HASH_LOG)
}

/// Hash-chain search state over one segment of at most [`MAX_SEGMENT`]
/// bytes, with positions held as `u32`.
///
/// A search walks the earlier positions that share the current
/// position's `HASH_LOG`-bit hash, newest first. `head` has one bucket
/// per hash value only when the input is long enough to fill that many;
/// a shorter input gets a table about its own size, whose buckets chain
/// several hash values together. The walk then steps over positions of
/// another hash value, at no cost to its candidate budget, so it visits
/// exactly the candidates the full-size table would have, in the same
/// order: the table's size is invisible in the tokens.
struct Chains {
    head: Vec<u32>,
    prev: Vec<u32>,
    /// Low hash bits dropped to index `head`; 0 for a full-size table.
    shift: u32,
}

impl Chains {
    /// The table size (log2) for an input of `len` bytes: about one
    /// bucket per position, at most one per hash value.
    fn head_log(len: usize) -> u32 {
        len.next_power_of_two().trailing_zeros().clamp(6, HASH_LOG)
    }

    fn new(len: usize, head_log: u32) -> Self {
        assert!(len <= MAX_SEGMENT && head_log <= HASH_LOG);
        // A position's `prev` is written when it is inserted, before a
        // walk can reach it, and walks reach inserted positions only: so
        // `prev` starts as zeros, which the allocator hands out without
        // writing them.
        Self { head: vec![NONE; 1 << head_log], prev: vec![0; len], shift: HASH_LOG - head_log }
    }

    #[inline(always)]
    fn insert(&mut self, data: &[u8], pos: usize) {
        if pos + 4 <= data.len() {
            let bucket = (hash4(data, pos) >> self.shift) as usize;
            self.prev[pos] = self.head[bucket];
            self.head[bucket] = pos as u32;
        }
    }

    /// Longest match at `pos`, returning `(len, dist)`.
    #[inline(always)]
    fn best_match(&self, data: &[u8], pos: usize, params: &MatchParams) -> Option<(usize, usize)> {
        if pos + 4 > data.len() {
            return None;
        }
        let mut best_len = params.min_match - 1;
        let mut best_dist = 0usize;
        let hash = hash4(data, pos);
        let mut cand = self.head[(hash >> self.shift) as usize];
        let limit = pos.saturating_sub(params.window);
        let max_len = params.max_match.min(data.len() - pos);
        let mut chain = params.max_chain;
        while cand != NONE && chain > 0 {
            let c = cand as usize;
            if c < limit {
                break;
            }
            cand = self.prev[c];
            if self.shift != 0 && hash4(data, c) != hash {
                continue;
            }
            // Cheap reject: compare the byte just past the current best.
            if best_len < max_len && data[c + best_len] == data[pos + best_len] {
                let mut len = 0usize;
                while len < max_len && data[c + len] == data[pos + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = pos - c;
                    if len >= params.nice_len {
                        break;
                    }
                }
            }
            chain -= 1;
        }
        (best_dist > 0).then_some((best_len, best_dist))
    }
}

/// Appends a literal run, extending the previous token when that is the
/// literal run right before it (decoders expect at most one literal
/// token between matches).
fn push_literals(tokens: &mut Vec<Token>, start: usize, len: usize) {
    match tokens.last_mut() {
        Some(Token::Literals { start: s, len: l }) if *s + *l == start => *l += len,
        _ => tokens.push(Token::Literals { start, len }),
    }
}

/// Greedy/lazy LZ77 parse of `data` into a token stream.
///
/// The concatenation of all tokens reproduces `data` exactly (verified by
/// [`reconstruct`], which decoders mirror).
#[inline(always)]
pub fn tokenize(data: &[u8], params: &MatchParams) -> Vec<Token> {
    let mut tokens = Vec::new();
    // Chain positions are `u32`: an input they cannot index is parsed
    // as independent segments (no match reaches across a seam) rather
    // than with truncated positions.
    for (i, segment) in data.chunks(MAX_SEGMENT).enumerate() {
        let head_log = Chains::head_log(segment.len());
        tokenize_segment(segment, i * MAX_SEGMENT, params, head_log, &mut tokens);
    }
    tokens
}

/// Parses one segment, whose first byte is byte `base` of the input.
#[inline(always)]
fn tokenize_segment(
    data: &[u8],
    base: usize,
    params: &MatchParams,
    head_log: u32,
    tokens: &mut Vec<Token>,
) {
    let mut chains = Chains::new(data.len(), head_log);
    let mut lit_start = 0usize;
    let mut pos = 0usize;
    while pos < data.len() {
        let found = chains.best_match(data, pos, params);
        let mut emit = found;
        if params.lazy {
            if let Some((len, _)) = found {
                if len < params.nice_len && pos + 1 < data.len() {
                    // Peek: if the next position has a strictly longer
                    // match, emit this byte as a literal instead.
                    chains.insert(data, pos);
                    let next = chains.best_match(data, pos + 1, params);
                    if let Some((next_len, _)) = next {
                        if next_len > len {
                            emit = None;
                        }
                    }
                    if let Some((len, dist)) = emit {
                        if lit_start < pos {
                            push_literals(tokens, base + lit_start, pos - lit_start);
                        }
                        tokens.push(Token::Match { len, dist });
                        for p in pos + 1..(pos + len).min(data.len()) {
                            chains.insert(data, p);
                        }
                        pos += len;
                        lit_start = pos;
                    } else {
                        pos += 1;
                    }
                    continue;
                }
            }
        }
        if let Some((len, dist)) = emit {
            if lit_start < pos {
                push_literals(tokens, base + lit_start, pos - lit_start);
            }
            tokens.push(Token::Match { len, dist });
            for p in pos..(pos + len).min(data.len()) {
                chains.insert(data, p);
            }
            pos += len;
            lit_start = pos;
        } else {
            chains.insert(data, pos);
            // Skip acceleration: long literal runs mean the data is not
            // matching; probe progressively sparser positions. The step
            // is capped so a long incompressible stretch cannot make the
            // finder leap over a compressible region that follows it.
            let step = match params.accel_log {
                Some(k) => 1 + ((pos - lit_start) >> k).min(15),
                None => 1,
            };
            pos += step;
        }
    }
    if lit_start < data.len() {
        push_literals(tokens, base + lit_start, data.len() - lit_start);
    }
}

/// Reapplies a token stream to rebuild the original bytes (test helper
/// and reference for decoder implementations).
pub fn reconstruct(data: &[u8], tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    for token in tokens {
        match *token {
            Token::Literals { start, len } => out.extend_from_slice(&data[start..start + len]),
            Token::Match { len, dist } => {
                let from = out.len() - dist;
                for i in 0..len {
                    out.push(out[from + i]);
                }
            }
        }
    }
    out
}

/// Copies an LZ match into `out`, handling overlapping matches
/// (`dist < len`) byte by byte. Decoder-side helper shared by all codecs.
///
/// Returns `false` when the distance reaches before the start of `out`,
/// which signals a corrupt stream.
#[inline]
pub fn copy_match(out: &mut Vec<u8>, len: usize, dist: usize) -> bool {
    if dist == 0 || dist > out.len() {
        return false;
    }
    let from = out.len() - dist;
    out.reserve(len);
    for i in 0..len {
        let byte = out[from + i];
        out.push(byte);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], params: &MatchParams) {
        let tokens = tokenize(data, params);
        assert_eq!(reconstruct(data, &tokens), data);
        for t in &tokens {
            if let Token::Match { len, dist } = t {
                assert!(*len >= params.min_match);
                assert!(*len <= params.max_match);
                assert!(*dist >= 1 && *dist <= params.window.max(*dist));
            }
        }
    }

    #[test]
    fn all_profiles_reconstruct() {
        let mut data = Vec::new();
        for i in 0..5000u32 {
            data.push((i % 251) as u8);
            if i % 7 == 0 {
                data.extend_from_slice(b"repeated-chunk-of-text");
            }
        }
        for params in [
            MatchParams::fast(),
            MatchParams::balanced(),
            MatchParams::large_window(),
            MatchParams::thorough(),
        ] {
            roundtrip(&data, &params);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let params = MatchParams::balanced();
        roundtrip(&[], &params);
        roundtrip(&[1], &params);
        roundtrip(&[1, 2, 3], &params);
    }

    #[test]
    fn run_of_identical_bytes_uses_overlapping_match() {
        let data = vec![7u8; 4096];
        let tokens = tokenize(&data, &MatchParams::balanced());
        // One literal token plus matches; far fewer tokens than bytes.
        assert!(tokens.len() < 64, "RLE-like input should collapse, got {} tokens", tokens.len());
        assert_eq!(reconstruct(&data, &tokens), data);
    }

    #[test]
    fn incompressible_input_is_mostly_literals() {
        // A simple LCG gives byte soup with no 4-byte repeats to speak of.
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let tokens = tokenize(&data, &MatchParams::balanced());
        assert_eq!(reconstruct(&data, &tokens), data);
    }

    /// Inputs of mixed texture: literal soup, short repeats, long runs.
    fn textured(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            match next() % 4 {
                0 => data.extend((0..next() % 40).map(|_| next() as u8)),
                1 => {
                    let byte = next() as u8;
                    data.extend(std::iter::repeat_n(byte, next() as usize % 300));
                }
                2 => data.extend_from_slice(b"a-phrase-that-recurs"),
                _ if data.len() > 8 => {
                    let from = next() as usize % (data.len() - 8);
                    let run =
                        data[from..(from + 8 + next() as usize % 64).min(data.len())].to_vec();
                    data.extend(run);
                }
                _ => data.push(next() as u8),
            }
        }
        data.truncate(len);
        data
    }

    /// The table a short input gets is much smaller than one bucket per
    /// hash value; the tokens must not show it.
    #[test]
    fn narrowed_head_table_yields_the_full_table_tokens() {
        for (len, seed) in [(5, 1), (63, 2), (64, 3), (300, 4), (2_048, 5), (9_000, 6), (30_000, 7)]
        {
            let data = textured(len, seed);
            assert!(Chains::head_log(len) < HASH_LOG);
            for params in [
                MatchParams::fast(),
                MatchParams::balanced(),
                MatchParams::large_window(),
                MatchParams::thorough(),
            ] {
                let mut full = Vec::new();
                tokenize_segment(&data, 0, &params, HASH_LOG, &mut full);
                assert_eq!(tokenize(&data, &params), full, "len {len}");
                assert_eq!(reconstruct(&data, &full), data);
            }
        }
    }

    /// What `tokenize` does to an input longer than `u32` positions can
    /// index, at a segment size a test can afford.
    #[test]
    fn segments_parse_independently_and_join_their_literals() {
        let data = textured(10_000, 9);
        let params = MatchParams::large_window();
        let mut tokens = Vec::new();
        for (i, segment) in data.chunks(3_000).enumerate() {
            tokenize_segment(segment, i * 3_000, &params, HASH_LOG, &mut tokens);
        }
        assert_eq!(reconstruct(&data, &tokens), data);
        for pair in tokens.windows(2) {
            let both_literals = matches!(pair, [Token::Literals { .. }, Token::Literals { .. }]);
            assert!(!both_literals, "adjacent literal tokens {pair:?}");
        }
        // A seam that falls inside a literal run: the run stays one token.
        let soup: Vec<u8> = (0..200u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        let mut tokens = Vec::new();
        for (i, segment) in soup.chunks(64).enumerate() {
            tokenize_segment(segment, i * 64, &MatchParams::balanced(), HASH_LOG, &mut tokens);
        }
        assert_eq!(tokens, vec![Token::Literals { start: 0, len: 200 }]);
    }

    #[test]
    fn copy_match_rejects_bad_distance() {
        let mut out = vec![1u8, 2, 3];
        assert!(!copy_match(&mut out, 2, 4));
        assert!(!copy_match(&mut out, 2, 0));
        assert!(copy_match(&mut out, 5, 2));
        assert_eq!(out, vec![1, 2, 3, 2, 3, 2, 3, 2]);
    }
}
