//! Top-K / threshold sparsification of flat `f32` vectors.
//!
//! The sparsifier keeps a subset of entries **bit-exactly** and zeroes
//! the rest — unlike the error-bounded compressors in this crate, the
//! surviving values are never perturbed, which is what makes it safe
//! to pair with an error-feedback residual buffer (the dropped mass is
//! exactly `input - reconstruction`, with no codec noise mixed in).
//!
//! The stream is an index+value encoding: ascending kept indices as
//! delta-coded LEB128 varints followed by the raw little-endian `f32`
//! bits of each kept value. Sorted-index deltas are small, so the
//! index side costs ~1 byte per kept entry on realistic densities; the
//! value side is incompressible by construction (it is the exact
//! payload).

use crate::LossyError;
use fedsz_codec::varint::{read_f32, read_uvarint, write_f32, write_uvarint};
use fedsz_codec::{CodecError, Result};

/// Which entries of a vector survive sparsification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SparsifyMode {
    /// Keep the `ceil(ratio * len)` largest-magnitude entries
    /// (at least one on non-empty input). Ties at the K boundary break
    /// toward the lower index, so the selection is deterministic.
    TopK {
        /// Fraction of entries to keep, in `(0, 1]`.
        ratio: f64,
    },
    /// Keep every entry whose magnitude is at least `min_abs`.
    Threshold {
        /// Inclusive magnitude cutoff; must be finite and positive.
        min_abs: f32,
    },
}

/// A Top-K / threshold sparsifier over flat `f32` slices.
///
/// # Examples
///
/// ```
/// use fedsz_lossy::sparse::Sparsifier;
///
/// let s = Sparsifier::top_k(0.5).unwrap();
/// let values = [0.1f32, -4.0, 0.2, 3.0];
/// let stream = s.compress(&values).unwrap();
/// let restored = Sparsifier::decompress(&stream).unwrap();
/// // The two largest magnitudes survive bit-exactly; the rest are 0.
/// assert_eq!(restored, vec![0.0, -4.0, 0.0, 3.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sparsifier {
    mode: SparsifyMode,
}

impl Sparsifier {
    /// A Top-K sparsifier keeping a `ratio` fraction of entries.
    ///
    /// # Errors
    ///
    /// Returns [`LossyError::InvalidParameter`] unless `ratio` is in
    /// `(0, 1]`.
    pub fn top_k(ratio: f64) -> std::result::Result<Self, LossyError> {
        if !(ratio > 0.0 && ratio <= 1.0) {
            return Err(LossyError::InvalidParameter("Top-K ratio must be in (0, 1]"));
        }
        Ok(Self { mode: SparsifyMode::TopK { ratio } })
    }

    /// A threshold sparsifier keeping entries with `|v| >= min_abs`.
    ///
    /// # Errors
    ///
    /// Returns [`LossyError::InvalidParameter`] unless `min_abs` is finite
    /// and positive.
    pub fn threshold(min_abs: f32) -> std::result::Result<Self, LossyError> {
        if !(min_abs.is_finite() && min_abs > 0.0) {
            return Err(LossyError::InvalidParameter("threshold must be finite and positive"));
        }
        Ok(Self { mode: SparsifyMode::Threshold { min_abs } })
    }

    /// The configured mode.
    pub fn mode(&self) -> SparsifyMode {
        self.mode
    }

    /// The ascending indices this sparsifier keeps for `values`.
    fn kept_indices(&self, values: &[f32]) -> Vec<usize> {
        match self.mode {
            SparsifyMode::TopK { ratio } => {
                if values.is_empty() {
                    return Vec::new();
                }
                let k = ((values.len() as f64 * ratio).ceil() as usize).clamp(1, values.len());
                let mut order: Vec<usize> = (0..values.len()).collect();
                // Magnitude descending, index ascending on ties: a total
                // order, so the selection is deterministic bit for bit.
                order.sort_by(|&a, &b| {
                    values[b].abs().total_cmp(&values[a].abs()).then_with(|| a.cmp(&b))
                });
                let mut kept = order[..k].to_vec();
                kept.sort_unstable();
                kept
            }
            SparsifyMode::Threshold { min_abs } => {
                (0..values.len()).filter(|&i| values[i].abs() >= min_abs).collect()
            }
        }
    }

    /// Sparsifies `values` into an index+value stream.
    ///
    /// # Errors
    ///
    /// Returns [`LossyError::NonFiniteInput`] when any value is NaN or
    /// infinite (a NaN magnitude has no place in a Top-K order).
    pub fn compress(&self, values: &[f32]) -> std::result::Result<Vec<u8>, LossyError> {
        let (stream, _) = self.compress_with_applied(values)?;
        Ok(stream)
    }

    /// Sparsifies `values`, also returning the dense reconstruction the
    /// receiver will see (kept values bit-exact, the rest zero) — the
    /// "applied" vector an error-feedback caller subtracts to form its
    /// residual without a decode round-trip.
    ///
    /// # Errors
    ///
    /// Returns [`LossyError::NonFiniteInput`] when any value is NaN or
    /// infinite.
    pub fn compress_with_applied(
        &self,
        values: &[f32],
    ) -> std::result::Result<(Vec<u8>, Vec<f32>), LossyError> {
        if values.iter().any(|v| !v.is_finite()) {
            return Err(LossyError::NonFiniteInput);
        }
        let kept = self.kept_indices(values);
        let mut out = Vec::with_capacity(2 + kept.len() * 5);
        write_uvarint(&mut out, values.len() as u64);
        write_uvarint(&mut out, kept.len() as u64);
        let mut prev = 0u64;
        for &i in &kept {
            // Ascending indices delta-code to small varints; the first
            // delta is the absolute index.
            write_uvarint(&mut out, i as u64 - prev);
            prev = i as u64;
        }
        let mut applied = vec![0.0f32; values.len()];
        for &i in &kept {
            write_f32(&mut out, values[i]);
            applied[i] = values[i];
        }
        Ok((out, applied))
    }

    /// Reconstructs the dense vector from a *trusted* sparsified stream
    /// (one this process produced): the output length is whatever the
    /// stream's header claims. Bytes from a peer must go through
    /// [`Sparsifier::decompress_expecting`] instead, which refuses a
    /// header that disagrees with the length the receiver already
    /// knows before anything is allocated for it.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for truncated or inconsistent streams.
    pub fn decompress(bytes: &[u8]) -> Result<Vec<f32>> {
        let mut pos = 0usize;
        let total = read_uvarint(bytes, &mut pos)? as usize;
        Self::decompress_expecting(bytes, total)
    }

    /// Reconstructs the dense vector from a sparsified stream that
    /// must hold exactly `expected` entries. The header's length is
    /// checked against `expected` and the kept count against the bytes
    /// actually present *before* any allocation, so a forged header
    /// cannot size a buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for truncated or inconsistent streams,
    /// or when the stream's length is not `expected`.
    pub fn decompress_expecting(bytes: &[u8], expected: usize) -> Result<Vec<f32>> {
        let mut pos = 0usize;
        if read_uvarint(bytes, &mut pos)? != expected as u64 {
            return Err(CodecError::Corrupt("sparse stream length disagrees with the receiver"));
        }
        let total = expected;
        let kept = read_uvarint(bytes, &mut pos)?;
        if kept > total as u64 {
            return Err(CodecError::Corrupt("sparse stream keeps more than it holds"));
        }
        // Every kept entry costs at least one index byte and four value
        // bytes, so the bytes still unread bound the count.
        if kept > ((bytes.len() - pos) / 5) as u64 {
            return Err(CodecError::UnexpectedEof);
        }
        let mut indices = Vec::with_capacity(kept as usize);
        let mut at = 0u64;
        for rank in 0..kept {
            let delta = read_uvarint(bytes, &mut pos)?;
            // Deltas after the first are strictly positive (indices are
            // strictly ascending); a zero delta is a duplicate index.
            if rank > 0 && delta == 0 {
                return Err(CodecError::Corrupt("sparse stream repeats an index"));
            }
            at = at.checked_add(delta).ok_or(CodecError::Corrupt("sparse index overflow"))?;
            if at >= total as u64 {
                return Err(CodecError::Corrupt("sparse index past the end"));
            }
            indices.push(at as usize);
        }
        let mut values = vec![0.0f32; total];
        for &i in &indices {
            values[i] = read_f32(bytes, &mut pos)?;
        }
        if pos != bytes.len() {
            return Err(CodecError::Corrupt("sparse stream has trailing bytes"));
        }
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(matches!(Sparsifier::top_k(0.0), Err(LossyError::InvalidParameter(_))));
        assert!(matches!(Sparsifier::top_k(1.5), Err(LossyError::InvalidParameter(_))));
        assert!(matches!(Sparsifier::top_k(f64::NAN), Err(LossyError::InvalidParameter(_))));
        assert!(Sparsifier::top_k(1.0).is_ok());
        assert!(matches!(Sparsifier::threshold(0.0), Err(LossyError::InvalidParameter(_))));
        assert!(matches!(Sparsifier::threshold(f32::NAN), Err(LossyError::InvalidParameter(_))));
        assert!(Sparsifier::threshold(1e-3).is_ok());
    }

    #[test]
    fn top_k_keeps_the_largest_magnitudes_bit_exactly() {
        let values = [0.01f32, -5.0, 0.5, 3.25, -0.125, 0.0, 2.5, -0.25];
        let s = Sparsifier::top_k(0.375).unwrap(); // ceil(8 * .375) = 3
        let (stream, applied) = s.compress_with_applied(&values).unwrap();
        let restored = Sparsifier::decompress(&stream).unwrap();
        assert_eq!(restored, applied);
        assert_eq!(restored, vec![0.0, -5.0, 0.0, 3.25, 0.0, 0.0, 2.5, 0.0]);
        // Survivors carry the exact source bits.
        assert_eq!(restored[1].to_bits(), (-5.0f32).to_bits());
    }

    #[test]
    fn top_k_ties_break_toward_the_lower_index() {
        let values = [1.0f32, -1.0, 1.0, 1.0];
        let s = Sparsifier::top_k(0.5).unwrap();
        let restored = Sparsifier::decompress(&s.compress(&values).unwrap()).unwrap();
        assert_eq!(restored, vec![1.0, -1.0, 0.0, 0.0]);
    }

    #[test]
    fn threshold_keeps_entries_at_or_above_the_cutoff() {
        let values = [0.5f32, 0.1, -0.5, 0.49];
        let s = Sparsifier::threshold(0.5).unwrap();
        let restored = Sparsifier::decompress(&s.compress(&values).unwrap()).unwrap();
        assert_eq!(restored, vec![0.5, 0.0, -0.5, 0.0]);
    }

    #[test]
    fn full_ratio_and_empty_input_round_trip() {
        let values = [1.0f32, 2.0, 3.0];
        let s = Sparsifier::top_k(1.0).unwrap();
        assert_eq!(Sparsifier::decompress(&s.compress(&values).unwrap()).unwrap(), values);
        assert!(Sparsifier::decompress(&s.compress(&[]).unwrap()).unwrap().is_empty());
    }

    #[test]
    fn non_finite_input_is_reported() {
        let s = Sparsifier::top_k(0.5).unwrap();
        assert_eq!(s.compress(&[1.0, f32::NAN]).unwrap_err(), LossyError::NonFiniteInput);
        assert_eq!(s.compress(&[f32::INFINITY]).unwrap_err(), LossyError::NonFiniteInput);
    }

    #[test]
    fn corrupt_streams_error_cleanly() {
        let s = Sparsifier::top_k(0.5).unwrap();
        let stream = s.compress(&[1.0, -2.0, 3.0, -4.0]).unwrap();
        assert!(Sparsifier::decompress(&stream[..stream.len() - 1]).is_err());
        assert!(Sparsifier::decompress(&[]).is_err());
        // Kept count larger than the vector.
        let mut bad = Vec::new();
        write_uvarint(&mut bad, 2);
        write_uvarint(&mut bad, 3);
        assert!(Sparsifier::decompress(&bad).is_err());
        // Index past the end.
        let mut bad = Vec::new();
        write_uvarint(&mut bad, 2);
        write_uvarint(&mut bad, 1);
        write_uvarint(&mut bad, 7);
        write_f32(&mut bad, 1.0);
        assert!(Sparsifier::decompress(&bad).is_err());
        // Trailing garbage.
        let mut padded = stream.clone();
        padded.push(0);
        assert!(Sparsifier::decompress(&padded).is_err());
    }

    #[test]
    fn forged_lengths_are_refused_before_any_allocation() {
        // A header claiming 2^44 entries, all kept: with the receiver's
        // own length in hand this is an error, not a 128 TiB request.
        let mut forged = Vec::new();
        write_uvarint(&mut forged, 1 << 44);
        write_uvarint(&mut forged, 1 << 44);
        assert!(Sparsifier::decompress_expecting(&forged, 4).is_err());
        // The right length but a kept count the bytes cannot back.
        let mut forged = Vec::new();
        write_uvarint(&mut forged, 1 << 20);
        write_uvarint(&mut forged, 1 << 20);
        assert!(Sparsifier::decompress_expecting(&forged, 1 << 20).is_err());
        // And an honest stream still decodes against its own length.
        let s = Sparsifier::top_k(0.5).unwrap();
        let stream = s.compress(&[1.0, -2.0, 3.0, -4.0]).unwrap();
        assert_eq!(
            Sparsifier::decompress_expecting(&stream, 4).unwrap(),
            vec![0.0, 0.0, 3.0, -4.0]
        );
        assert!(Sparsifier::decompress_expecting(&stream, 5).is_err());
    }

    #[test]
    fn stream_is_deterministic_and_compact() {
        let values: Vec<f32> = (0..1000).map(|i| ((i * 37 % 101) as f32 - 50.0) / 50.0).collect();
        let s = Sparsifier::top_k(0.01).unwrap();
        let a = s.compress(&values).unwrap();
        let b = s.compress(&values).unwrap();
        assert_eq!(a, b);
        // 10 kept entries: far below the 4000-byte dense payload.
        assert!(a.len() < 400, "stream unexpectedly large: {} bytes", a.len());
    }
}
