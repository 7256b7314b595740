//! Shared coding primitives for the FedSZ reproduction.
//!
//! This crate hosts the low-level machinery every compressor in the
//! workspace is built from:
//!
//! * [`bitio`] — MSB-first bit readers/writers over byte buffers,
//! * [`huffman`] — canonical Huffman coding with a compact table header,
//! * [`range`] — an adaptive binary range coder (LZMA-style),
//! * [`quantizer`] — the linear-scale error-bounded quantizer used by the
//!   SZ family of compressors,
//! * [`shuffle`] — the byte-shuffle filter used by Blosc,
//! * [`checksum`] — CRC-32 (IEEE; a carry-less-multiply fold where the
//!   CPU has one, slicing-by-8 elsewhere) and Adler-32,
//! * [`varint`] — LEB128 variable-length integers and fixed-width helpers,
//! * [`stats`] — summary statistics shared by compressors and analyses,
//! * [`simd`] — the AVX2 seam: a hot loop compiled twice from one source
//!   and picked at run time,
//! * [`speed`] — the one A/B rule every speed gate's test is held by.
//!
//! # Examples
//!
//! ```
//! use fedsz_codec::bitio::{BitReader, BitWriter};
//!
//! let mut w = BitWriter::new();
//! w.write_bits(0b1011, 4);
//! let bytes = w.into_bytes();
//! let mut r = BitReader::new(&bytes);
//! assert_eq!(r.read_bits(4).unwrap(), 0b1011);
//! ```

// `deny` rather than `forbid`: the crate is safe Rust except two calls
// into `#[target_feature]` code — the AVX2 copy of a kernel in
// `simd.rs` and the PCLMULQDQ CRC-32 fold in `checksum.rs` — each in a
// module with a scoped `allow` and its safety argument. The crates that
// dispatch their own kernels through `simd` (`fedsz-lossy`,
// `fedsz-lossless`) keep `forbid`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitio;
#[allow(unsafe_code)]
pub mod checksum;
pub mod huffman;
pub mod quantizer;
pub mod range;
pub mod shuffle;
#[allow(unsafe_code)]
pub mod simd;
pub mod speed;
pub mod stats;
pub mod varint;

use std::error::Error;
use std::fmt;

/// Errors produced while decoding a compressed stream.
///
/// All decoders in the workspace return this error instead of panicking
/// when handed truncated or corrupted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the decoder finished.
    UnexpectedEof,
    /// A structural invariant of the format was violated.
    Corrupt(&'static str),
    /// A stored checksum did not match the recomputed one.
    ChecksumMismatch {
        /// The checksum recorded in the stream.
        stored: u32,
        /// The checksum recomputed over the received bytes.
        computed: u32,
    },
    /// The stream was produced by an unsupported format version.
    UnsupportedVersion(u8),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of compressed stream"),
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            CodecError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
        }
    }
}

impl Error for CodecError {}

/// Convenience alias used across the decoder APIs in this workspace.
pub type Result<T> = std::result::Result<T, CodecError>;
