//! FedSZ: error-bounded lossy compression for federated-learning updates.
//!
//! This crate is the paper's primary contribution — Algorithm 1 and the
//! Figure 1 pipeline:
//!
//! 1. **Partition** the client's state dictionary: tensors whose name
//!    contains `"weight"` and whose element count exceeds a threshold go
//!    to the *lossy* partition; everything else (biases, batch-norm
//!    statistics, counters, small weights) goes to the *lossless*
//!    partition ([`partition`]).
//! 2. **Compress**: each lossy tensor is flattened and compressed with an
//!    error-bounded lossy compressor (SZ2 by default, at value-range
//!    relative bound `1e-2`); the lossless partition is serialized and
//!    compressed as one block with blosc-lz by default ([`FedSz`]).
//! 3. **Serialize** everything into a single self-describing bitstream
//!    for the server, which reverses the process ([`FedSz::decompress`]).
//!
//! The [`timing`] module implements the paper's Eqn 1 — the
//! "compress-or-not" decision rule balancing compression runtime against
//! network transfer savings.
//!
//! # Examples
//!
//! ```
//! use fedsz::{FedSz, FedSzConfig};
//! use fedsz_nn::models::specs::ModelSpec;
//!
//! let update = ModelSpec::mobilenet_v2().instantiate_scaled(7, 0.02);
//! let fedsz = FedSz::new(FedSzConfig::default());
//! let compressed = fedsz.compress(&update).unwrap();
//! assert!(compressed.stats().ratio() > 2.0);
//! let restored = fedsz.decompress(compressed.bytes()).unwrap();
//! assert_eq!(restored.len(), update.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod partition;
pub mod timing;

pub use fedsz_codec::{CodecError, Result};
pub use fedsz_lossless::LosslessKind;
pub use fedsz_lossy::{ErrorBound, LossyError, LossyKind};

use fedsz_codec::varint::{
    read_bytes, read_f32_vec, read_f64, read_shape, read_str, read_uvarint, write_f32_slice,
    write_f64, write_shape, write_str, write_uvarint,
};
use fedsz_nn::StateDict;
use fedsz_tensor::Tensor;

/// Bitstream magic bytes.
const MAGIC: &[u8; 4] = b"FSZ1";
/// Bitstream format version.
const VERSION: u8 = 1;

/// Configuration of the FedSZ pipeline.
///
/// Defaults are the paper's recommended operating point: SZ2 + blosc-lz
/// at relative error bound `1e-2`, with the Algorithm 1 size threshold
/// of 1000 elements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedSzConfig {
    /// Error-bounded compressor for the lossy partition.
    pub lossy: LossyKind,
    /// Lossless compressor for metadata and small tensors.
    pub lossless: LosslessKind,
    /// Error bound applied per lossy tensor.
    pub error_bound: ErrorBound,
    /// Minimum element count for a `weight` tensor to be lossy-compressed.
    pub threshold: usize,
}

impl Default for FedSzConfig {
    fn default() -> Self {
        Self {
            lossy: LossyKind::Sz2,
            lossless: LosslessKind::BloscLz,
            error_bound: ErrorBound::Relative(1e-2),
            threshold: 1000,
        }
    }
}

impl FedSzConfig {
    /// The paper's recommended configuration (same as `Default`).
    pub fn recommended() -> Self {
        Self::default()
    }

    /// Returns a copy with a different error bound.
    pub fn with_error_bound(mut self, bound: ErrorBound) -> Self {
        self.error_bound = bound;
        self
    }

    /// Returns a copy with a different lossy compressor.
    pub fn with_lossy(mut self, lossy: LossyKind) -> Self {
        self.lossy = lossy;
        self
    }
}

/// Size accounting for one compressed update.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CompressStats {
    /// Uncompressed payload size (4 bytes per element).
    pub original_bytes: usize,
    /// Total bitstream size.
    pub compressed_bytes: usize,
    /// Elements routed to the lossy partition.
    pub lossy_elements: usize,
    /// Elements routed to the lossless partition.
    pub lossless_elements: usize,
    /// Compressed size of the lossy partition.
    pub lossy_bytes: usize,
    /// Compressed size of the lossless partition.
    pub lossless_bytes: usize,
    /// Tensor count in the lossy partition.
    pub lossy_tensors: usize,
    /// Tensor count in the lossless partition.
    pub lossless_tensors: usize,
}

impl CompressStats {
    /// Overall compression ratio (original / compressed).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            return 0.0;
        }
        self.original_bytes as f64 / self.compressed_bytes as f64
    }

    /// Fraction of elements that were lossy-compressed (the paper's
    /// "% lossy data" column in Table III).
    pub fn lossy_fraction(&self) -> f64 {
        let total = self.lossy_elements + self.lossless_elements;
        if total == 0 {
            return 0.0;
        }
        self.lossy_elements as f64 / total as f64
    }
}

/// A compressed client update: the wire bitstream plus size accounting.
#[derive(Debug, Clone)]
pub struct CompressedUpdate {
    bytes: Vec<u8>,
    stats: CompressStats,
}

impl CompressedUpdate {
    /// The serialized bitstream to send to the server.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the update, returning the bitstream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Size accounting.
    pub fn stats(&self) -> &CompressStats {
        &self.stats
    }
}

/// The FedSZ compression pipeline (Algorithm 1 + Figure 1).
#[derive(Debug, Clone)]
pub struct FedSz {
    config: FedSzConfig,
}

impl FedSz {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: FedSzConfig) -> Self {
        Self { config }
    }

    /// The bound a lossy tensor is compressed under: the configured
    /// [`FedSzConfig::error_bound`], whatever the tensor's name. Every
    /// stream uses one bound; per-tensor callers (the `benchmark/`
    /// probes) ask here.
    pub fn bound_for(&self, _name: &str) -> ErrorBound {
        self.config.error_bound
    }

    /// The active configuration.
    pub fn config(&self) -> &FedSzConfig {
        &self.config
    }

    /// Compresses a state dictionary into a single bitstream.
    ///
    /// # Errors
    ///
    /// Returns [`LossyError`] when a lossy tensor contains non-finite
    /// values or the configured bound is unusable.
    pub fn compress(&self, dict: &StateDict) -> std::result::Result<CompressedUpdate, LossyError> {
        let mut bytes = Vec::new();
        let stats = self.compress_into(dict, &mut bytes)?;
        Ok(CompressedUpdate { bytes, stats })
    }

    /// Compresses into a caller-owned buffer, clearing it first — the
    /// allocation-reusing form of [`FedSz::compress`] for hot loops
    /// that encode every round (e.g. the broadcast leg). Produces the
    /// same bitstream byte for byte.
    ///
    /// # Errors
    ///
    /// Returns [`LossyError`] when a lossy tensor contains non-finite
    /// values or the configured bound is unusable.
    pub fn compress_into(
        &self,
        dict: &StateDict,
        out: &mut Vec<u8>,
    ) -> std::result::Result<CompressStats, LossyError> {
        let lossy_codec = self.config.lossy.codec();
        let lossless_codec = self.config.lossless.codec();

        let mut stats =
            CompressStats { original_bytes: dict.byte_size(), ..CompressStats::default() };

        // Header: config + entry table (name, partition flag, shape).
        out.clear();
        out.reserve(dict.byte_size() / 4 + 256);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(self.config.lossy.id());
        out.push(self.config.lossless.id());
        write_error_bound(out, self.config.error_bound);
        write_uvarint(out, self.config.threshold as u64);
        write_uvarint(out, dict.len() as u64);

        let mut lossless_blob = Vec::new();
        let mut lossy_streams: Vec<Vec<u8>> = Vec::new();
        for (name, tensor) in dict.iter() {
            let lossy = partition::is_lossy(name, tensor.len(), self.config.threshold);
            write_str(out, name);
            out.push(u8::from(lossy));
            write_shape(out, tensor.shape());
            if lossy {
                stats.lossy_elements += tensor.len();
                stats.lossy_tensors += 1;
                // Algorithm 1 line 3: flatten, then lossy-compress.
                lossy_streams.push(lossy_codec.compress(tensor.data(), self.config.error_bound)?);
            } else {
                stats.lossless_elements += tensor.len();
                stats.lossless_tensors += 1;
                // Figure 1: remaining tensors are serialized ("pickled")
                // together and lossless-compressed as one block.
                write_f32_slice(&mut lossless_blob, tensor.data());
            }
        }

        for stream in &lossy_streams {
            write_uvarint(out, stream.len() as u64);
            out.extend_from_slice(stream);
            stats.lossy_bytes += stream.len();
        }
        let packed_blob = lossless_codec.compress(&lossless_blob);
        write_uvarint(out, packed_blob.len() as u64);
        out.extend_from_slice(&packed_blob);
        stats.lossless_bytes += packed_blob.len();

        // Whole-stream CRC trailer: lossy payloads accept any bit
        // pattern as a "valid" float, so without this a corrupted update
        // could silently poison the server's aggregate.
        let crc = fedsz_codec::checksum::crc32(out);
        fedsz_codec::varint::write_u32(out, crc);

        stats.compressed_bytes = out.len();
        Ok(stats)
    }

    /// Compresses the *difference* between `update` and a `reference`
    /// dict both sides already hold (the previous global model, in FL) —
    /// the Delta-DNN-style variant of the pipeline. Deltas concentrate
    /// near zero with a much smaller value range than the weights
    /// themselves, so the same relative bound yields a far smaller
    /// absolute error and/or far better ratio. The receiver reverses it
    /// with [`FedSz::decompress_delta`] and the same reference.
    ///
    /// The pointwise guarantee transfers: `|Δ − Δ'| ≤ eb_abs` implies
    /// `|update − update'| ≤ eb_abs` after adding the reference back.
    ///
    /// # Errors
    ///
    /// Returns [`LossyError::NonFiniteInput`] when values are non-finite.
    ///
    /// # Panics
    ///
    /// Panics if `reference` does not structurally match `update`.
    pub fn compress_delta(
        &self,
        update: &StateDict,
        reference: &StateDict,
    ) -> std::result::Result<CompressedUpdate, LossyError> {
        let mut delta = StateDict::new();
        for (name, tensor) in update.iter() {
            let base =
                reference.get(name).unwrap_or_else(|| panic!("reference dict missing `{name}`"));
            assert_eq!(base.shape(), tensor.shape(), "shape mismatch for `{name}`");
            delta.insert(name.to_owned(), tensor.sub(base));
        }
        self.compress(&delta)
    }

    /// Reverses [`FedSz::compress_delta`] given the same reference dict.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for corrupt streams or when the stream's
    /// structure does not match the reference.
    pub fn decompress_delta(&self, bytes: &[u8], reference: &StateDict) -> Result<StateDict> {
        let delta = self.decompress(bytes)?;
        let mut out = StateDict::new();
        for (name, tensor) in delta.iter() {
            let base = reference
                .get(name)
                .ok_or(CodecError::Corrupt("delta entry missing from reference"))?;
            if base.shape() != tensor.shape() {
                return Err(CodecError::Corrupt("delta shape mismatch with reference"));
            }
            out.insert(name.to_owned(), tensor.add(base));
        }
        Ok(out)
    }

    /// Reverses [`FedSz::compress`], reconstructing the state dictionary
    /// (lossy tensors within the configured error bound, everything else
    /// bit-exact).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for truncated or corrupt bitstreams.
    pub fn decompress(&self, bytes: &[u8]) -> Result<StateDict> {
        let (dict, _) = Self::decompress_with_config(bytes)?;
        Ok(dict)
    }

    /// Decompresses a bitstream, also returning the configuration the
    /// sender used (the stream is self-describing, so the receiver does
    /// not need to agree on a config in advance).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for truncated or corrupt bitstreams.
    pub fn decompress_with_config(bytes: &[u8]) -> Result<(StateDict, FedSzConfig)> {
        Self::decode(bytes, None)
    }

    /// Decompresses a bitstream from an untrusted peer that must
    /// reproduce `template`'s entry names, order and shapes. The
    /// stream's entry table is checked against the template before any
    /// payload is decoded, and every inner stream's declared length
    /// against the size the template implies — so no length field in
    /// the stream sizes a buffer the architecture does not back.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for truncated or corrupt bitstreams and
    /// for streams that disagree with `template`.
    pub fn decompress_matching(bytes: &[u8], template: &StateDict) -> Result<StateDict> {
        Ok(Self::decode(bytes, Some(template))?.0)
    }

    fn decode(bytes: &[u8], template: Option<&StateDict>) -> Result<(StateDict, FedSzConfig)> {
        if bytes.len() < 4 {
            return Err(CodecError::UnexpectedEof);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let mut tpos = 0usize;
        let stored_crc = fedsz_codec::varint::read_u32(trailer, &mut tpos)?;
        let computed = fedsz_codec::checksum::crc32(body);
        if stored_crc != computed {
            return Err(CodecError::ChecksumMismatch { stored: stored_crc, computed });
        }
        let bytes = body;
        let mut pos = 0usize;
        let magic = bytes.get(..4).ok_or(CodecError::UnexpectedEof)?;
        if magic != MAGIC {
            return Err(CodecError::Corrupt("bad FedSZ magic"));
        }
        pos += 4;
        let version = *bytes.get(pos).ok_or(CodecError::UnexpectedEof)?;
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        pos += 1;
        let lossy = LossyKind::from_id(*bytes.get(pos).ok_or(CodecError::UnexpectedEof)?)?;
        pos += 1;
        let lossless = LosslessKind::from_id(*bytes.get(pos).ok_or(CodecError::UnexpectedEof)?)?;
        pos += 1;
        let error_bound = read_error_bound(bytes, &mut pos)?;
        let threshold = read_uvarint(bytes, &mut pos)? as usize;
        let n_entries = read_uvarint(bytes, &mut pos)? as usize;
        // An entry costs at least three bytes (name length, partition
        // flag, rank), so the bytes present bound the count before it
        // sizes the table.
        if n_entries > (bytes.len() - pos) / 3 {
            return Err(CodecError::UnexpectedEof);
        }
        if template.is_some_and(|t| t.len() != n_entries) {
            return Err(CodecError::Corrupt("entry count disagrees with the template"));
        }

        struct EntryMeta {
            name: String,
            lossy: bool,
            shape: Vec<usize>,
            elems: usize,
        }
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let name = read_str(bytes, &mut pos)?.to_owned();
            let flag = *bytes.get(pos).ok_or(CodecError::UnexpectedEof)?;
            pos += 1;
            let (shape, elems) = read_shape(bytes, &mut pos)?;
            entries.push(EntryMeta { name, lossy: flag == 1, shape, elems });
        }
        if let Some(template) = template {
            let agrees = template
                .iter()
                .zip(&entries)
                .all(|((name, tensor), entry)| name == entry.name && tensor.shape() == entry.shape);
            if !agrees {
                return Err(CodecError::Corrupt("entry table disagrees with the template"));
            }
        }

        let lossy_codec = lossy.codec();
        let lossless_codec = lossless.codec();
        let mut lossy_values: Vec<Vec<f32>> = Vec::new();
        for entry in entries.iter().filter(|e| e.lossy) {
            let stream = read_bytes(bytes, &mut pos)?;
            // An honest stream declares what its entry's shape multiplies
            // out to: with a template that is the architecture's count,
            // without one it still stops a single forged length from
            // sizing a buffer.
            if fedsz_lossy::declared_len(stream)? != entry.elems {
                return Err(CodecError::Corrupt("lossy tensor length mismatch"));
            }
            let values = lossy_codec.decompress(stream)?;
            if values.len() != entry.elems {
                return Err(CodecError::Corrupt("lossy tensor length mismatch"));
            }
            lossy_values.push(values);
        }
        let blob = read_bytes(bytes, &mut pos)?;
        let expected = entries
            .iter()
            .filter(|e| !e.lossy)
            .try_fold(0usize, |sum, e| sum.checked_add(e.elems.checked_mul(4)?))
            .ok_or(CodecError::Corrupt("shape overflow"))?;
        if fedsz_lossless::declared_len(blob)? != expected {
            return Err(CodecError::Corrupt("lossless blob length mismatch"));
        }
        let lossless_blob = lossless_codec.decompress(blob)?;
        if lossless_blob.len() != expected {
            return Err(CodecError::Corrupt("lossless blob length mismatch"));
        }

        let mut dict = StateDict::new();
        let mut lossy_iter = lossy_values.into_iter();
        let mut blob_pos = 0usize;
        for entry in entries {
            let data = if entry.lossy {
                lossy_iter.next().expect("counted above")
            } else {
                read_f32_vec(&lossless_blob, &mut blob_pos, entry.elems)?
            };
            dict.insert(entry.name, Tensor::from_vec(entry.shape, data));
        }
        Ok((dict, FedSzConfig { lossy, lossless, error_bound, threshold }))
    }
}

impl Default for FedSz {
    fn default() -> Self {
        Self::new(FedSzConfig::default())
    }
}

fn write_error_bound(out: &mut Vec<u8>, bound: ErrorBound) {
    match bound {
        ErrorBound::Absolute(eb) => {
            out.push(0);
            write_f64(out, eb);
        }
        ErrorBound::Relative(eb) => {
            out.push(1);
            write_f64(out, eb);
        }
        ErrorBound::FixedPrecision(p) => {
            out.push(2);
            write_uvarint(out, u64::from(p));
        }
    }
}

fn read_error_bound(buf: &[u8], pos: &mut usize) -> Result<ErrorBound> {
    let tag = *buf.get(*pos).ok_or(CodecError::UnexpectedEof)?;
    *pos += 1;
    match tag {
        0 => Ok(ErrorBound::Absolute(read_f64(buf, pos)?)),
        1 => Ok(ErrorBound::Relative(read_f64(buf, pos)?)),
        2 => Ok(ErrorBound::FixedPrecision(read_uvarint(buf, pos)? as u32)),
        _ => Err(CodecError::Corrupt("unknown error-bound tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_codec::stats::max_abs_error;
    use fedsz_nn::models::specs::ModelSpec;

    fn small_update() -> StateDict {
        ModelSpec::mobilenet_v2().instantiate_scaled(3, 0.02)
    }

    #[test]
    fn round_trip_preserves_structure() {
        let dict = small_update();
        let fedsz = FedSz::default();
        let packed = fedsz.compress(&dict).unwrap();
        let restored = fedsz.decompress(packed.bytes()).unwrap();
        assert_eq!(restored.len(), dict.len());
        let names_a: Vec<&str> = dict.names().collect();
        let names_b: Vec<&str> = restored.names().collect();
        assert_eq!(names_a, names_b, "entry order must be preserved");
        for (name, tensor) in dict.iter() {
            assert_eq!(restored.get(name).unwrap().shape(), tensor.shape(), "{name}");
        }
    }

    #[test]
    fn lossless_partition_is_bit_exact() {
        let dict = small_update();
        let fedsz = FedSz::default();
        let packed = fedsz.compress(&dict).unwrap();
        let restored = fedsz.decompress(packed.bytes()).unwrap();
        for (name, tensor) in dict.iter() {
            if !partition::is_lossy(name, tensor.len(), fedsz.config().threshold) {
                assert_eq!(restored.get(name).unwrap().data(), tensor.data(), "{name}");
            }
        }
    }

    #[test]
    fn lossy_partition_respects_relative_bound() {
        let dict = small_update();
        let rel = 1e-3;
        let fedsz = FedSz::new(FedSzConfig::default().with_error_bound(ErrorBound::Relative(rel)));
        let packed = fedsz.compress(&dict).unwrap();
        let restored = fedsz.decompress(packed.bytes()).unwrap();
        for (name, tensor) in dict.iter() {
            if partition::is_lossy(name, tensor.len(), fedsz.config().threshold) {
                let range = fedsz_codec::stats::value_range(tensor.data()).unwrap().span();
                let err = max_abs_error(tensor.data(), restored.get(name).unwrap().data());
                assert!(
                    f64::from(err) <= rel * f64::from(range) * (1.0 + 1e-5),
                    "{name}: err {err} range {range}"
                );
            }
        }
    }

    #[test]
    fn compresses_meaningfully() {
        let dict = small_update();
        let fedsz = FedSz::default();
        let packed = fedsz.compress(&dict).unwrap();
        let stats = packed.stats();
        assert!(stats.ratio() > 2.0, "ratio {}", stats.ratio());
        assert!(stats.lossy_fraction() > 0.5, "lossy fraction {}", stats.lossy_fraction());
        assert_eq!(stats.compressed_bytes, packed.bytes().len());
        assert_eq!(stats.lossy_elements + stats.lossless_elements, dict.total_elements());
    }

    #[test]
    fn every_compressor_combination_round_trips() {
        let dict = ModelSpec::alexnet().instantiate_scaled(5, 0.005);
        for lossy in LossyKind::all() {
            for lossless in [LosslessKind::BloscLz, LosslessKind::Zstd] {
                let config = FedSzConfig {
                    lossy,
                    lossless,
                    error_bound: ErrorBound::Relative(1e-2),
                    threshold: 1000,
                };
                let fedsz = FedSz::new(config);
                let packed = fedsz.compress(&dict).unwrap();
                let restored = fedsz.decompress(packed.bytes()).unwrap();
                assert_eq!(restored.len(), dict.len(), "{lossy}/{lossless}");
            }
        }
    }

    #[test]
    fn receiver_recovers_sender_config() {
        let dict = small_update();
        let config = FedSzConfig {
            lossy: LossyKind::Sz3,
            lossless: LosslessKind::Zstd,
            error_bound: ErrorBound::Relative(1e-4),
            threshold: 500,
        };
        let packed = FedSz::new(config).compress(&dict).unwrap();
        let (_, recovered) = FedSz::decompress_with_config(packed.bytes()).unwrap();
        assert_eq!(recovered, config);
    }

    #[test]
    fn corrupt_streams_error_cleanly() {
        let dict = small_update();
        let fedsz = FedSz::default();
        let packed = fedsz.compress(&dict).unwrap().into_bytes();
        assert!(fedsz.decompress(&packed[..10]).is_err());
        assert!(fedsz.decompress(&[]).is_err());
        let mut bad_magic = packed.clone();
        bad_magic[0] = b'X';
        assert!(fedsz.decompress(&bad_magic).is_err());
    }

    #[test]
    fn empty_dict_round_trips() {
        let dict = StateDict::new();
        let fedsz = FedSz::default();
        let packed = fedsz.compress(&dict).unwrap();
        let restored = fedsz.decompress(packed.bytes()).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn nan_in_weights_is_reported() {
        let mut dict = StateDict::new();
        let mut data = vec![0.5f32; 2000];
        data[7] = f32::NAN;
        dict.insert("layer.weight", Tensor::from_vec(vec![2000], data));
        let err = FedSz::default().compress(&dict).unwrap_err();
        assert_eq!(err, LossyError::NonFiniteInput);
    }
}

#[cfg(test)]
mod delta_tests {
    use super::*;
    use fedsz_codec::stats::max_abs_error;
    use fedsz_nn::models::specs::ModelSpec;
    use fedsz_tensor::rng::{normal, seeded};

    /// A reference model plus a small-perturbation "trained" update.
    fn pair() -> (StateDict, StateDict) {
        let reference = ModelSpec::mobilenet_v2().instantiate_scaled(6, 0.02);
        let mut rng = seeded(7);
        let mut update = StateDict::new();
        for (name, t) in reference.iter() {
            let mut perturbed = t.clone();
            for v in perturbed.data_mut() {
                *v += 0.002 * normal(&mut rng);
            }
            update.insert(name.to_owned(), perturbed);
        }
        (update, reference)
    }

    #[test]
    fn delta_round_trip_is_bounded() {
        let (update, reference) = pair();
        let fedsz = FedSz::default();
        let packed = fedsz.compress_delta(&update, &reference).unwrap();
        let restored = fedsz.decompress_delta(packed.bytes(), &reference).unwrap();
        assert_eq!(restored.len(), update.len());
        for (name, tensor) in update.iter() {
            let err = max_abs_error(tensor.data(), restored.get(name).unwrap().data());
            // REL 1e-2 of the *delta* range (~0.016) is a tight bound.
            assert!(err <= 1e-3, "{name}: err {err}");
        }
    }

    #[test]
    fn deltas_compress_better_for_small_updates() {
        let (update, reference) = pair();
        let fedsz = FedSz::default();
        let direct = fedsz.compress(&update).unwrap().stats().ratio();
        let packed = fedsz.compress_delta(&update, &reference).unwrap();
        let delta_ratio = packed.stats().ratio();
        // Same relative bound: delta coding trades ratio for a ~40x
        // tighter absolute bound. Demand it at least stays comparable
        // while delivering that accuracy win.
        assert!(
            delta_ratio > direct * 0.5,
            "delta ratio {delta_ratio:.2} collapsed vs direct {direct:.2}"
        );
    }

    #[test]
    fn wrong_reference_is_detected_or_harmless() {
        let (update, reference) = pair();
        let fedsz = FedSz::default();
        let packed = fedsz.compress_delta(&update, &reference).unwrap();
        // Structurally different reference: error, not panic.
        let small = ModelSpec::mobilenet_v2().instantiate_scaled(6, 0.01);
        assert!(fedsz.decompress_delta(packed.bytes(), &small).is_err());
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::*;
    use fedsz_nn::models::specs::ModelSpec;

    #[test]
    fn compression_is_bit_deterministic() {
        // Same input + config must produce identical bitstreams: the FL
        // server can deduplicate, and experiments are exactly repeatable.
        let dict = ModelSpec::resnet50().instantiate_scaled(13, 0.005);
        for lossy in LossyKind::all() {
            let config = FedSzConfig { lossy, ..FedSzConfig::default() };
            let a = FedSz::new(config).compress(&dict).unwrap();
            let b = FedSz::new(config).compress(&dict).unwrap();
            assert_eq!(a.bytes(), b.bytes(), "{lossy} stream not deterministic");
        }
    }

    #[test]
    fn stats_are_internally_consistent() {
        let dict = ModelSpec::mobilenet_v2().instantiate_scaled(13, 0.01);
        let packed = FedSz::default().compress(&dict).unwrap();
        let s = packed.stats();
        assert_eq!(s.original_bytes, dict.byte_size());
        assert_eq!(s.lossy_tensors + s.lossless_tensors, dict.len());
        // Payload sections plus headers must account for the stream size.
        assert!(s.lossy_bytes + s.lossless_bytes <= s.compressed_bytes);
        assert!(
            s.compressed_bytes - s.lossy_bytes - s.lossless_bytes < 64 * dict.len() + 256,
            "header overhead unexpectedly large"
        );
    }
}
