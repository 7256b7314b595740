//! The `FUC1` uplink family-codec container: Top-K and quantized
//! *delta* streams with optional error-feedback residuals.
//!
//! FedSZ's `FSZ1` container carries error-bounded floating-point
//! streams; the follow-on codec families (Top-K sparsification, 4/8-bit
//! quantization) have their own per-tensor wire formats in
//! `fedsz_lossy::{sparse, quant}`. This module wraps those flat-vector
//! streams into a self-describing state-dict container with the same
//! conventions as `FSZ1`: magic + version header, per-entry
//! name/shape metadata, and a CRC32 trailer. A distinct magic
//! (`FUC1`) lets receivers dispatch on the first four bytes without
//! any out-of-band flag.
//!
//! Unlike `FSZ1`, a `FUC1` stream always encodes a **delta** against a
//! reference dict both sides already hold (the round's broadcast
//! global): sparsifying an absolute weight vector would zero most of
//! the model, but zeroing most of a *delta* merely skips small updates
//! — exactly the semantics Top-K needs. The encoder can also carry a
//! per-client error-feedback residual (FedSparQ-style): mass the codec
//! dropped this round is added back into next round's delta before
//! encoding, preserving `sum(applied) + residual == sum(raw deltas)`
//! exactly (up to f32 addition order).

use fedsz_codec::varint::{
    read_bytes, read_shape, read_str, read_uvarint, write_shape, write_str, write_uvarint,
};
use fedsz_codec::{CodecError, Result};
use fedsz_lossy::quant::Quantizer;
use fedsz_lossy::sparse::Sparsifier;
use fedsz_lossy::LossyError;
use fedsz_nn::StateDict;
use fedsz_tensor::Tensor;

/// Magic bytes of the family-codec container ("FedSZ Uplink Codec").
const MAGIC: &[u8; 4] = b"FUC1";
/// Container format version.
const VERSION: u8 = 1;
/// Family id byte for sparsified streams.
const FAMILY_SPARSE: u8 = 0;
/// Family id byte for quantized streams.
const FAMILY_QUANT: u8 = 1;

/// A configured uplink family codec: Top-K/threshold sparsification or
/// 4/8-bit quantization over state-dict deltas.
///
/// # Examples
///
/// ```
/// use fedsz_fl::codec::FamilyCodec;
/// use fedsz_nn::StateDict;
/// use fedsz_tensor::Tensor;
///
/// let mut reference = StateDict::new();
/// reference.insert("w", Tensor::zeros(vec![4]));
/// let mut update = StateDict::new();
/// update.insert("w", Tensor::from_vec(vec![4], vec![0.1, -3.0, 0.2, 2.0]));
///
/// let codec = FamilyCodec::top_k(0.5).unwrap();
/// let bytes = codec.encode_delta(&update, &reference, None, 0).unwrap();
/// assert!(FamilyCodec::is_family_stream(&bytes));
/// let decoded = FamilyCodec::decode_delta(&bytes, &reference).unwrap();
/// // The two largest-magnitude delta entries survive bit-exactly.
/// assert_eq!(decoded.get("w").unwrap().data(), &[0.0, -3.0, 0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FamilyCodec {
    /// Keep only the largest-magnitude delta entries (see
    /// [`Sparsifier`]).
    Sparse(Sparsifier),
    /// Uniform 4/8-bit quantization of delta entries (see
    /// [`Quantizer`]).
    Quant(Quantizer),
}

impl FamilyCodec {
    /// A Top-K sparsifying codec keeping a `ratio` fraction of entries.
    ///
    /// # Errors
    ///
    /// Returns [`LossyError::InvalidParameter`] unless `ratio` is in
    /// `(0, 1]`.
    pub fn top_k(ratio: f64) -> std::result::Result<Self, LossyError> {
        Ok(Self::Sparse(Sparsifier::top_k(ratio)?))
    }

    /// A quantizing codec at 4 or 8 bits, linear or stochastic.
    ///
    /// # Errors
    ///
    /// Returns [`LossyError::InvalidParameter`] for widths other than 4
    /// or 8 bits.
    pub fn quant(bits: u8, stochastic: bool) -> std::result::Result<Self, LossyError> {
        Ok(Self::Quant(Quantizer::new(bits, stochastic)?))
    }

    /// Whether `bytes` starts with the `FUC1` magic — the dispatch test
    /// receivers use to route an upload to [`FamilyCodec::decode_delta`]
    /// instead of the FedSZ or raw decoders.
    pub fn is_family_stream(bytes: &[u8]) -> bool {
        bytes.len() >= 4 && &bytes[..4] == MAGIC
    }

    /// Encodes `update - reference` per tensor into a `FUC1` stream.
    ///
    /// When `residual` is `Some`, error feedback is on: the residual is
    /// added into the delta before encoding, and rewritten in place to
    /// `carried_delta - applied` (the mass this round's codec dropped),
    /// ready for the next round. The residual dict must be structurally
    /// compatible with `update` (same names and shapes; an all-zeros
    /// clone of the delta on round 0).
    ///
    /// `seed` feeds the stochastic quantizer's dither and must be
    /// derived deterministically by the caller (e.g. from run seed,
    /// round, and client id); linear and sparse codecs ignore it.
    ///
    /// # Errors
    ///
    /// Returns [`LossyError::NonFiniteInput`] when any delta entry is
    /// NaN or infinite.
    ///
    /// # Panics
    ///
    /// Panics when `update`, `reference`, or `residual` disagree on
    /// entry names or shapes — a structural bug upstream, same contract
    /// as `FedSz::compress_delta`.
    pub fn encode_delta(
        &self,
        update: &StateDict,
        reference: &StateDict,
        mut residual: Option<&mut StateDict>,
        seed: u64,
    ) -> std::result::Result<Vec<u8>, LossyError> {
        let mut out = Vec::with_capacity(update.byte_size() / 8 + 64);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(match self {
            Self::Sparse(_) => FAMILY_SPARSE,
            Self::Quant(_) => FAMILY_QUANT,
        });
        write_uvarint(&mut out, update.len() as u64);
        for (entry, (name, tensor)) in update.iter().enumerate() {
            let base =
                reference.get(name).unwrap_or_else(|| panic!("reference dict missing `{name}`"));
            assert_eq!(base.shape(), tensor.shape(), "shape mismatch for `{name}`");
            let mut delta: Vec<f32> =
                tensor.data().iter().zip(base.data()).map(|(&v, &b)| v - b).collect();
            if let Some(residual) = residual.as_deref_mut() {
                let carried =
                    residual.get(name).unwrap_or_else(|| panic!("residual dict missing `{name}`"));
                assert_eq!(carried.shape(), tensor.shape(), "residual shape mismatch `{name}`");
                for (d, &r) in delta.iter_mut().zip(carried.data()) {
                    *d += r;
                }
            }
            // Vary the dither stream per tensor so equal values in
            // different tensors do not round in lockstep.
            let entry_seed = seed ^ (entry as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let (stream, applied) = match self {
                Self::Sparse(s) => s.compress_with_applied(&delta)?,
                Self::Quant(q) => q.compress_with_applied(&delta, entry_seed)?,
            };
            if let Some(residual) = residual.as_deref_mut() {
                let carried = residual.get_mut(name).expect("checked above");
                for ((r, &d), &a) in carried.data_mut().iter_mut().zip(&delta).zip(&applied) {
                    // The carried delta already includes the old
                    // residual, so this assignment *replaces* it.
                    *r = d - a;
                }
            }
            write_str(&mut out, name);
            write_shape(&mut out, tensor.shape());
            write_uvarint(&mut out, stream.len() as u64);
            out.extend_from_slice(&stream);
        }
        let crc = fedsz_codec::checksum::crc32(&out);
        fedsz_codec::varint::write_u32(&mut out, crc);
        Ok(out)
    }

    /// Reverses [`FamilyCodec::encode_delta`] given the same reference
    /// dict, returning the reconstructed absolute state
    /// (`reference + decoded delta`).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for truncated or corrupt streams, CRC
    /// mismatches, or streams whose structure disagrees with
    /// `reference`.
    pub fn decode_delta(bytes: &[u8], reference: &StateDict) -> Result<StateDict> {
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
        let mut pos = 0usize;
        let magic = body.get(..4).ok_or(CodecError::UnexpectedEof)?;
        if magic != MAGIC {
            return Err(CodecError::Corrupt("bad family-codec magic"));
        }
        pos += 4;
        let version = *body.get(pos).ok_or(CodecError::UnexpectedEof)?;
        if version != VERSION {
            return Err(CodecError::Corrupt("unsupported family-codec version"));
        }
        pos += 1;
        let family = *body.get(pos).ok_or(CodecError::UnexpectedEof)?;
        if family != FAMILY_SPARSE && family != FAMILY_QUANT {
            return Err(CodecError::Corrupt("unknown codec family id"));
        }
        pos += 1;
        let count = read_uvarint(body, &mut pos)? as usize;
        let mut out = StateDict::new();
        for _ in 0..count {
            let name = read_str(body, &mut pos)?.to_owned();
            let (shape, elems) = read_shape(body, &mut pos)?;
            // Look the entry up before touching its stream: the
            // reference's shape, not the peer's header, is what sizes
            // every buffer below.
            let base = reference
                .get(&name)
                .ok_or(CodecError::Corrupt("delta entry missing from reference"))?;
            if base.shape() != shape.as_slice() {
                return Err(CodecError::Corrupt("delta shape mismatch with reference"));
            }
            let stream = read_bytes(body, &mut pos)?;
            let delta = match family {
                FAMILY_SPARSE => Sparsifier::decompress_expecting(stream, elems)?,
                _ => Quantizer::decompress(stream)?,
            };
            if delta.len() != elems {
                return Err(CodecError::Corrupt("delta length disagrees with shape"));
            }
            let data: Vec<f32> = base.data().iter().zip(&delta).map(|(&b, &d)| b + d).collect();
            out.insert(name, Tensor::from_vec(shape, data));
        }
        if pos != body.len() {
            return Err(CodecError::Corrupt("family-codec stream has trailing bytes"));
        }
        Ok(out)
    }
}

/// A structurally-compatible all-zeros clone of `like` — the round-0
/// error-feedback residual.
pub fn zero_residual(like: &StateDict) -> StateDict {
    like.iter().map(|(name, t)| (name.to_owned(), Tensor::zeros(t.shape().to_vec()))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> StateDict {
        let mut sd = StateDict::new();
        sd.insert("conv.weight", Tensor::from_vec(vec![2, 2], vec![1.0, -1.0, 0.5, 2.0]));
        sd.insert("bias", Tensor::from_vec(vec![3], vec![0.0, 0.25, -0.5]));
        sd
    }

    fn shifted(by: &[f32; 7]) -> StateDict {
        let base = reference();
        let mut sd = StateDict::new();
        let mut i = 0;
        for (name, t) in base.iter() {
            let data = t.data().iter().map(|&v| {
                let out = v + by[i];
                i += 1;
                out
            });
            sd.insert(name.to_owned(), Tensor::from_vec(t.shape().to_vec(), data.collect()));
        }
        sd
    }

    #[test]
    fn sparse_delta_round_trips_against_the_reference() {
        let reference = reference();
        let update = shifted(&[0.5, 0.0, 0.0, -0.75, 0.25, 0.0, 0.0]);
        let codec = FamilyCodec::top_k(1.0).unwrap();
        let bytes = codec.encode_delta(&update, &reference, None, 0).unwrap();
        assert!(FamilyCodec::is_family_stream(&bytes));
        let decoded = FamilyCodec::decode_delta(&bytes, &reference).unwrap();
        // Full ratio keeps everything: reconstruction is exact.
        for (name, t) in update.iter() {
            assert_eq!(decoded.get(name).unwrap().data(), t.data(), "{name}");
        }
    }

    #[test]
    fn quant_delta_reconstructs_within_a_step() {
        let reference = reference();
        let update = shifted(&[0.5, -0.25, 0.125, -0.75, 0.25, 0.1, -0.05]);
        let codec = FamilyCodec::quant(8, false).unwrap();
        let bytes = codec.encode_delta(&update, &reference, None, 7).unwrap();
        let decoded = FamilyCodec::decode_delta(&bytes, &reference).unwrap();
        // Per-tensor delta range is ~1.25 wide; 8-bit step ≈ 0.005.
        for (name, t) in update.iter() {
            for (&got, &want) in decoded.get(name).unwrap().data().iter().zip(t.data()) {
                assert!((got - want).abs() <= 0.01, "{name}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn error_feedback_conserves_dropped_mass() {
        let reference = reference();
        let update = shifted(&[0.5, 0.0, 0.0, -0.75, 0.25, 0.0, 0.0]);
        let codec = FamilyCodec::top_k(0.25).unwrap(); // keeps 1 of 4, 1 of 3
        let mut residual = zero_residual(&update);
        let bytes = codec.encode_delta(&update, &reference, Some(&mut residual), 0).unwrap();
        let decoded = FamilyCodec::decode_delta(&bytes, &reference).unwrap();
        // applied + residual == raw delta, entry by entry.
        for (name, t) in update.iter() {
            let base = reference.get(name).unwrap();
            let applied = decoded.get(name).unwrap();
            let res = residual.get(name).unwrap();
            for i in 0..t.data().len() {
                let raw_delta = t.data()[i] - base.data()[i];
                let applied_delta = applied.data()[i] - base.data()[i];
                assert!((applied_delta + res.data()[i] - raw_delta).abs() < 1e-6, "{name}[{i}]");
            }
        }
        // Next round the carried residual re-enters the delta: encoding
        // a zero update still ships the leftover mass.
        let bytes2 = codec.encode_delta(&reference, &reference, Some(&mut residual), 0).unwrap();
        let decoded2 = FamilyCodec::decode_delta(&bytes2, &reference).unwrap();
        let w = decoded2.get("conv.weight").unwrap();
        // Round 1 kept the -0.75 entry; the 0.5 entry was carried and
        // must materialize now.
        assert_eq!(w.data()[0] - 1.0, 0.5);
    }

    #[test]
    fn corrupt_streams_and_bad_references_error_cleanly() {
        let reference = reference();
        let update = shifted(&[0.5, 0.0, 0.0, -0.75, 0.25, 0.0, 0.0]);
        let codec = FamilyCodec::top_k(0.5).unwrap();
        let bytes = codec.encode_delta(&update, &reference, None, 0).unwrap();
        // Flip a payload byte: CRC catches it.
        let mut bad = bytes.clone();
        bad[10] ^= 0xFF;
        assert!(matches!(
            FamilyCodec::decode_delta(&bad, &reference),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        assert!(FamilyCodec::decode_delta(&bytes[..8], &reference).is_err());
        assert!(FamilyCodec::decode_delta(&[], &reference).is_err());
        // A reference missing an entry is a structural mismatch.
        let mut small = StateDict::new();
        small.insert("bias", reference.get("bias").unwrap().clone());
        assert!(FamilyCodec::decode_delta(&bytes, &small).is_err());
        // Not a FUC1 stream at all.
        assert!(!FamilyCodec::is_family_stream(&update.to_bytes()));
        assert!(FamilyCodec::decode_delta(&update.to_bytes(), &reference).is_err());
    }

    #[test]
    fn stochastic_quant_is_seed_deterministic() {
        let reference = reference();
        let update = shifted(&[0.5, -0.25, 0.125, -0.75, 0.25, 0.1, -0.05]);
        let codec = FamilyCodec::quant(4, true).unwrap();
        let a = codec.encode_delta(&update, &reference, None, 42).unwrap();
        let b = codec.encode_delta(&update, &reference, None, 42).unwrap();
        assert_eq!(a, b, "same seed, same stream");
        let c = codec.encode_delta(&update, &reference, None, 43).unwrap();
        assert_ne!(a, c, "different seed dithers differently");
    }

    #[test]
    fn invalid_parameters_surface_from_the_constructors() {
        assert!(FamilyCodec::top_k(0.0).is_err());
        assert!(FamilyCodec::quant(3, false).is_err());
        assert!(FamilyCodec::top_k(0.01).is_ok());
        assert!(FamilyCodec::quant(4, true).is_ok());
    }
}
