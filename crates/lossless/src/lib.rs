//! Lossless compressors for the FedSZ reproduction.
//!
//! The FedSZ paper (Table II) compares five lossless compressors on model
//! metadata — blosc-lz, gzip, xz, zlib and zstd — and picks blosc-lz for
//! its speed. This crate reimplements each *family* from scratch on a
//! shared LZ77 core ([`lz`]), with the entropy stage and search effort
//! chosen to land each codec in its real-world speed/ratio class:
//!
//! | codec | window | search | entropy stage | class |
//! |-------|--------|--------|---------------|-------|
//! | [`BloscLz`] | 8 KiB | greedy, shallow | byte-aligned varints + byte shuffle | fastest |
//! | [`Zlib`]/[`Gzip`] | 32 KiB | lazy, medium | canonical Huffman (DEFLATE symbol space) | balanced |
//! | [`ZstdLike`] | 1 MiB | lazy, deeper | Huffman over literals + slot-coded sequences | fast, good ratio |
//! | [`XzLike`] | 4 MiB | lazy, deepest | adaptive binary range coder | slowest, best ratio |
//!
//! Beyond the paper's five, [`PsumCodec`] is a special-purpose lossless
//! codec for the partial-sum images an aggregation tree forwards between
//! aggregators (one Huffman code per byte plane of the `f64` or `i128`
//! elements, the zstd-class stage only on run-dominated planes); see
//! [`psum`].
//!
//! # Examples
//!
//! ```
//! use fedsz_lossless::{Lossless, LosslessKind};
//!
//! let data = b"federated learning federated compression".repeat(10);
//! let codec = LosslessKind::BloscLz.codec();
//! let packed = codec.compress(&data);
//! assert_eq!(codec.decompress(&packed).unwrap(), data);
//! ```

// `forbid`, though hot loops here run AVX2 copies: they dispatch through
// `fedsz_codec::simd`, whose one `unsafe` call is sound for any kernel
// (its only precondition is the CPU feature it checks first).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blosclz;
pub mod deflate;
pub mod lz;
pub mod psum;
pub mod xzlike;
pub mod zstdlike;

pub use blosclz::BloscLz;
pub use deflate::{Gzip, Zlib};
pub use fedsz_codec::{CodecError, Result};
pub use psum::PsumCodec;
pub use xzlike::XzLike;
pub use zstdlike::ZstdLike;

/// Identifies one of the lossless compressor families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LosslessKind {
    /// Byte-shuffled fast LZ (blosc-lz class).
    BloscLz,
    /// DEFLATE with a zlib-style frame (Adler-32).
    Zlib,
    /// DEFLATE with a gzip-style frame (CRC-32).
    Gzip,
    /// Large-window LZ with Huffman-coded sequences (zstd class).
    Zstd,
    /// Deep-search LZ with an adaptive range coder (xz class).
    Xz,
}

impl LosslessKind {
    /// All supported codecs, in the paper's Table II order.
    pub fn all() -> [LosslessKind; 5] {
        [Self::BloscLz, Self::Gzip, Self::Xz, Self::Zlib, Self::Zstd]
    }

    /// Lower-case display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Self::BloscLz => "blosc-lz",
            Self::Zlib => "zlib",
            Self::Gzip => "gzip",
            Self::Zstd => "zstd",
            Self::Xz => "xz",
        }
    }

    /// Instantiates the codec with its default configuration.
    pub fn codec(self) -> Box<dyn Lossless> {
        match self {
            Self::BloscLz => Box::new(BloscLz::new()),
            Self::Zlib => Box::new(Zlib::new()),
            Self::Gzip => Box::new(Gzip::new()),
            Self::Zstd => Box::new(ZstdLike::new()),
            Self::Xz => Box::new(XzLike::new()),
        }
    }

    /// Stable one-byte identifier used in serialized bitstreams.
    pub fn id(self) -> u8 {
        match self {
            Self::BloscLz => 0,
            Self::Zlib => 1,
            Self::Gzip => 2,
            Self::Zstd => 3,
            Self::Xz => 4,
        }
    }

    /// Inverse of [`LosslessKind::id`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] for unknown identifiers.
    pub fn from_id(id: u8) -> Result<Self> {
        match id {
            0 => Ok(Self::BloscLz),
            1 => Ok(Self::Zlib),
            2 => Ok(Self::Gzip),
            3 => Ok(Self::Zstd),
            4 => Ok(Self::Xz),
            _ => Err(CodecError::Corrupt("unknown lossless codec id")),
        }
    }
}

impl std::fmt::Display for LosslessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A lossless byte compressor.
///
/// Implementations guarantee `decompress(compress(x)) == x` for every
/// byte string `x`; decompression returns an error (never panics) on
/// malformed input.
pub trait Lossless: Send + Sync {
    /// Which codec family this is.
    fn kind(&self) -> LosslessKind;

    /// Compresses `data` into a self-contained frame.
    fn compress(&self, data: &[u8]) -> Vec<u8>;

    /// Decompresses a frame produced by [`Lossless::compress`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the frame is truncated, corrupt, or
    /// fails its integrity check.
    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>>;

    /// Display name (defaults to the kind's name).
    fn name(&self) -> &'static str {
        self.kind().name()
    }
}

/// The decompressed length a frame claims, read from the header every
/// back-end shares (`flag || uvarint(len) || payload`) without
/// decompressing. LZ-family streams can legitimately expand without
/// bound, so the only defence against a forged length is a receiver
/// that knows the size it expects and compares this first.
///
/// # Errors
///
/// Returns a [`CodecError`] when the header is truncated or malformed.
pub fn declared_len(frame: &[u8]) -> Result<usize> {
    frame::open(frame).map(|(_, raw_len, _)| raw_len)
}

/// Frame-level helpers shared by the concrete codecs.
pub(crate) mod frame {
    use fedsz_codec::varint::{read_uvarint, write_uvarint};
    use fedsz_codec::{CodecError, Result};

    /// Byte flag marking a raw (stored) payload.
    pub const STORED: u8 = 0;
    /// Byte flag marking an entropy-coded payload.
    pub const COMPRESSED: u8 = 1;

    /// Most output bytes a decoder reserves per payload byte before it
    /// has decoded any.
    const RESERVE_PER_BYTE: usize = 16;

    /// The output buffer of a frame whose header claims `raw_len` bytes
    /// from `payload`. The claim comes from a peer, so the reservation
    /// is no more than the payload can plausibly back; an honest frame
    /// that expands further (LZ output is unbounded in its input) grows
    /// the buffer with the bytes it decodes.
    pub fn output_buffer(raw_len: usize, payload: &[u8]) -> Vec<u8> {
        Vec::with_capacity(raw_len.min(payload.len().saturating_mul(RESERVE_PER_BYTE)))
    }

    /// Emits `flag || uvarint(len) || payload`, choosing STORED whenever
    /// the compressed candidate is no smaller than the input.
    pub fn pick(raw: &[u8], compressed: Vec<u8>) -> Vec<u8> {
        if compressed.len() >= raw.len() {
            return stored(raw);
        }
        let mut out = compressed_head(raw.len(), compressed.len());
        out.extend_from_slice(&compressed);
        out
    }

    /// The STORED frame of `raw`.
    pub fn stored(raw: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(raw.len() + 11);
        out.push(STORED);
        write_uvarint(&mut out, raw.len() as u64);
        out.extend_from_slice(raw);
        out
    }

    /// A compressed frame of `raw_len` bytes up to its payload, with
    /// room for a payload of `payload_len` bytes: a codec that knows
    /// its payload's length before it codes one writes it straight in.
    pub fn compressed_head(raw_len: usize, payload_len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload_len + 11);
        out.push(COMPRESSED);
        write_uvarint(&mut out, raw_len as u64);
        out
    }

    /// Parses a frame written by [`pick`], returning `(is_stored,
    /// raw_len, payload)`.
    pub fn open(data: &[u8]) -> Result<(bool, usize, &[u8])> {
        let mut pos = 0usize;
        let flag = *data.first().ok_or(CodecError::UnexpectedEof)?;
        pos += 1;
        let raw_len = usize::try_from(read_uvarint(data, &mut pos)?)
            .map_err(|_| CodecError::Corrupt("frame length overflows usize"))?;
        let payload = &data[pos..];
        match flag {
            STORED => {
                if payload.len() != raw_len {
                    return Err(CodecError::Corrupt("stored frame length mismatch"));
                }
                Ok((true, raw_len, payload))
            }
            COMPRESSED => Ok((false, raw_len, payload)),
            _ => Err(CodecError::Corrupt("unknown frame flag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_ids_round_trip() {
        for kind in LosslessKind::all() {
            assert_eq!(LosslessKind::from_id(kind.id()).unwrap(), kind);
        }
        assert!(LosslessKind::from_id(200).is_err());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(LosslessKind::BloscLz.name(), "blosc-lz");
        assert_eq!(LosslessKind::Xz.to_string(), "xz");
    }

    #[test]
    fn every_codec_round_trips_mixed_data() {
        let mut data = Vec::new();
        data.extend_from_slice(&b"header ".repeat(30));
        data.extend((0..2048u32).map(|i| (i * 31 % 256) as u8));
        data.extend_from_slice(&[0u8; 512]);
        for kind in LosslessKind::all() {
            let codec = kind.codec();
            let packed = codec.compress(&data);
            assert_eq!(declared_len(&packed).unwrap(), data.len(), "codec {kind}");
            assert_eq!(codec.decompress(&packed).unwrap(), data, "codec {kind}");
        }
    }

    #[test]
    fn every_codec_handles_empty_input() {
        for kind in LosslessKind::all() {
            let codec = kind.codec();
            let packed = codec.compress(&[]);
            assert_eq!(codec.decompress(&packed).unwrap(), Vec::<u8>::new(), "codec {kind}");
        }
    }

    #[test]
    fn every_codec_rejects_garbage() {
        let garbage = [0xAAu8; 64];
        for kind in LosslessKind::all() {
            let codec = kind.codec();
            assert!(codec.decompress(&garbage).is_err(), "codec {kind} accepted garbage");
        }
    }
}

#[cfg(test)]
mod codec_class_tests {
    use super::*;

    /// Text-like data with mid-range redundancy.
    fn corpus() -> Vec<u8> {
        let mut data = Vec::new();
        for i in 0..400 {
            data.extend_from_slice(
                format!("client {} sent an update of size {}\n", i % 37, i).as_bytes(),
            );
        }
        data
    }

    #[test]
    fn deflate_beats_blosclz_on_text() {
        // blosc-lz trades ratio for speed: on text, DEFLATE's entropy
        // stage must win.
        let data = corpus();
        let blosc = BloscLz::new().compress(&data).len();
        let zlib = Zlib::new().compress(&data).len();
        assert!(zlib < blosc, "zlib {zlib} should beat blosc-lz {blosc} on text");
    }

    #[test]
    fn xz_has_the_best_ratio_on_text() {
        let data = corpus();
        let xz = XzLike::new().compress(&data).len();
        for kind in [LosslessKind::BloscLz, LosslessKind::Zlib, LosslessKind::Zstd] {
            let other = kind.codec().compress(&data).len();
            assert!(
                xz <= other + other / 20,
                "xz ({xz}) should be at or near the best; {kind} got {other}"
            );
        }
    }

    #[test]
    fn gzip_and_zlib_sizes_nearly_match() {
        // Same DEFLATE payload, different frames: sizes differ only by
        // the trailer (4 vs 8 bytes).
        let data = corpus();
        let gzip = Gzip::new().compress(&data).len();
        let zlib = Zlib::new().compress(&data).len();
        assert_eq!(gzip, zlib + 4);
    }

    #[test]
    fn large_window_pays_off_on_distant_matches() {
        // Two identical 256 KiB halves: only window >= 256 KiB can link
        // them.
        let half: Vec<u8> = (0..1 << 18).map(|i| (i % 251) as u8).collect();
        let mut data = half.clone();
        data.extend_from_slice(&half);
        let zstd = ZstdLike::new().compress(&data).len();
        let zlib = Zlib::new().compress(&data).len();
        assert!(
            zstd < zlib / 2,
            "zstd-like ({zstd}) should crush deflate ({zlib}) on distant repeats"
        );
    }
}
