//! Ordered, named tensor collections — the unit FedSZ compresses.
//!
//! Mirrors PyTorch's `state_dict()`: insertion-ordered `(name, tensor)`
//! pairs covering both trainable parameters and buffers (batch-norm
//! running statistics, step counters). The binary wire format here plays
//! the role of the paper's pickle serialization.

use fedsz_codec::varint::{
    read_f32_vec, read_shape, read_str, read_uvarint, write_f32_slice, write_shape, write_str,
    write_uvarint,
};
use fedsz_codec::{CodecError, Result};
use fedsz_tensor::Tensor;
use std::collections::HashMap;

/// Magic bytes of the serialized format.
const MAGIC: &[u8; 4] = b"FSD1";

/// An insertion-ordered map from parameter names to tensors.
///
/// # Examples
///
/// ```
/// use fedsz_nn::StateDict;
/// use fedsz_tensor::Tensor;
///
/// let mut sd = StateDict::new();
/// sd.insert("layer.weight", Tensor::ones(vec![4, 4]));
/// sd.insert("layer.bias", Tensor::zeros(vec![4]));
/// let bytes = sd.to_bytes();
/// let back = StateDict::from_bytes(&bytes).unwrap();
/// assert_eq!(back.get("layer.weight").unwrap().shape(), &[4, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateDict {
    entries: Vec<(String, Tensor)>,
    index: HashMap<String, usize>,
}

impl StateDict {
    /// Creates an empty dict.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces an entry, preserving first-insertion order.
    pub fn insert(&mut self, name: impl Into<String>, tensor: Tensor) {
        let name = name.into();
        if let Some(&i) = self.index.get(&name) {
            self.entries[i].1 = tensor;
        } else {
            self.index.insert(name.clone(), self.entries.len());
            self.entries.push((name, tensor));
        }
    }

    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.index.get(name).map(|&i| &self.entries[i].1)
    }

    /// Mutable lookup by name — lets callers rewrite tensor values in
    /// place (shapes included) without reinserting.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Tensor> {
        self.index.get(name).map(|&i| &mut self.entries[i].1)
    }

    /// Mutable iteration in insertion order, for whole-dict in-place
    /// rewrites (e.g. synthesizing per-client updates into one reused
    /// dict instead of allocating a fresh one per client).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&str, &mut Tensor)> {
        self.entries.iter_mut().map(|(n, t)| (n.as_str(), t))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dict has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Entry names in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Total element count across all tensors.
    pub fn total_elements(&self) -> usize {
        self.entries.iter().map(|(_, t)| t.len()).sum()
    }

    /// Total in-memory payload size in bytes (4 bytes per element).
    pub fn byte_size(&self) -> usize {
        self.entries.iter().map(|(_, t)| t.byte_size()).sum()
    }

    /// Serializes to the `FSD1` binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size() + 64);
        self.to_bytes_into(&mut out);
        out
    }

    /// Serializes into a caller-owned buffer, clearing it first — the
    /// allocation-reusing form of [`StateDict::to_bytes`].
    pub fn to_bytes_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.byte_size() + 64);
        self.write_image(out, usize::MAX, |_| {});
    }

    /// Feeds `sink` the [`StateDict::to_bytes`] image in order, in
    /// pieces of about 4 KiB, without building it whole: what a
    /// checksum of the image needs. Every piece passes through one
    /// reused buffer.
    pub fn visit_bytes(&self, mut sink: impl FnMut(&[u8])) {
        const PIECE: usize = 1024;
        let mut buf = Vec::with_capacity(4 * PIECE + 64);
        self.write_image(&mut buf, PIECE, |buf| {
            sink(buf);
            buf.clear();
        });
    }

    /// Appends the `FSD1` image to `buf`, handing `buf` to `flush`
    /// after every run of at most `piece` tensor values and once at the
    /// end: the one definition of the format, for the whole image and
    /// for its pieces.
    fn write_image(&self, buf: &mut Vec<u8>, piece: usize, mut flush: impl FnMut(&mut Vec<u8>)) {
        buf.extend_from_slice(MAGIC);
        write_uvarint(buf, self.entries.len() as u64);
        for (name, tensor) in &self.entries {
            write_str(buf, name);
            write_shape(buf, tensor.shape());
            for values in tensor.data().chunks(piece) {
                write_f32_slice(buf, values);
                flush(buf);
            }
        }
        flush(buf);
    }

    /// Parses the `FSD1` binary format.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let magic = bytes.get(..4).ok_or(CodecError::UnexpectedEof)?;
        if magic != MAGIC {
            return Err(CodecError::Corrupt("bad state-dict magic"));
        }
        pos += 4;
        let count = read_uvarint(bytes, &mut pos)? as usize;
        let mut dict = StateDict::new();
        for _ in 0..count {
            let name = read_str(bytes, &mut pos)?.to_owned();
            let (shape, elems) = read_shape(bytes, &mut pos)?;
            if elems > bytes.len().saturating_sub(pos) / 4 + 1 {
                return Err(CodecError::Corrupt("tensor larger than remaining input"));
            }
            let data = read_f32_vec(bytes, &mut pos, elems)?;
            dict.insert(name, Tensor::from_vec(shape, data));
        }
        Ok(dict)
    }
}

impl FromIterator<(String, Tensor)> for StateDict {
    fn from_iter<I: IntoIterator<Item = (String, Tensor)>>(iter: I) -> Self {
        let mut dict = StateDict::new();
        for (name, tensor) in iter {
            dict.insert(name, tensor);
        }
        dict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visited_pieces_are_the_serialized_image() {
        let mut dicts = vec![StateDict::new(), sample()];
        for lens in [[0, 1, 1023], [1024, 0, 1025], [3, 4097, 0]] {
            let mut sd = StateDict::new();
            for (i, len) in lens.into_iter().enumerate() {
                let values = (0..len).map(|j| (j as f32).sin() - i as f32).collect();
                sd.insert(format!("entry.{i}"), Tensor::from_vec(vec![len], values));
            }
            dicts.push(sd);
        }
        for sd in dicts {
            let mut image = Vec::new();
            sd.visit_bytes(|piece| image.extend_from_slice(piece));
            assert_eq!(image, sd.to_bytes(), "{} entries", sd.len());
        }
    }

    fn sample() -> StateDict {
        let mut sd = StateDict::new();
        sd.insert(
            "conv.weight",
            Tensor::from_vec(vec![2, 1, 2, 2], (0..8).map(|i| i as f32).collect()),
        );
        sd.insert("conv.bias", Tensor::zeros(vec![2]));
        sd.insert("bn.running_mean", Tensor::filled(vec![2], 0.5));
        sd.insert("bn.num_batches_tracked", Tensor::filled(vec![], 7.0));
        sd
    }

    #[test]
    fn insertion_order_preserved() {
        let sd = sample();
        let names: Vec<&str> = sd.names().collect();
        assert_eq!(
            names,
            vec!["conv.weight", "conv.bias", "bn.running_mean", "bn.num_batches_tracked"]
        );
    }

    #[test]
    fn insert_replaces_in_place() {
        let mut sd = sample();
        sd.insert("conv.bias", Tensor::ones(vec![2]));
        assert_eq!(sd.len(), 4);
        assert_eq!(sd.get("conv.bias").unwrap().data(), &[1.0, 1.0]);
        let names: Vec<&str> = sd.names().collect();
        assert_eq!(names[1], "conv.bias");
    }

    #[test]
    fn totals() {
        let sd = sample();
        assert_eq!(sd.total_elements(), 8 + 2 + 2 + 1);
        assert_eq!(sd.byte_size(), 13 * 4);
    }

    #[test]
    fn round_trip_bytes() {
        let sd = sample();
        let bytes = sd.to_bytes();
        let back = StateDict::from_bytes(&bytes).unwrap();
        assert_eq!(back, sd);
    }

    #[test]
    fn to_bytes_into_reuses_and_matches() {
        let sd = sample();
        let mut buf = vec![0xAAu8; 3];
        sd.to_bytes_into(&mut buf);
        assert_eq!(buf, sd.to_bytes());
        let cap = buf.capacity();
        sd.to_bytes_into(&mut buf);
        assert_eq!(buf.capacity(), cap, "second serialization must not reallocate");
        assert_eq!(buf, sd.to_bytes());
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut sd = sample();
        sd.get_mut("conv.bias").unwrap().data_mut()[0] = 9.0;
        assert_eq!(sd.get("conv.bias").unwrap().data()[0], 9.0);
        assert!(sd.get_mut("missing").is_none());
        for (name, tensor) in sd.iter_mut() {
            if name == "bn.running_mean" {
                tensor.data_mut().fill(1.5);
            }
        }
        assert_eq!(sd.get("bn.running_mean").unwrap().data(), &[1.5, 1.5]);
    }

    #[test]
    fn scalar_tensor_round_trips() {
        let mut sd = StateDict::new();
        sd.insert("steps", Tensor::filled(vec![], 42.0));
        let back = StateDict::from_bytes(&sd.to_bytes()).unwrap();
        assert_eq!(back.get("steps").unwrap().data(), &[42.0]);
        assert_eq!(back.get("steps").unwrap().shape(), &[] as &[usize]);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(StateDict::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        for cut in [3, 8, bytes.len() - 2] {
            assert!(StateDict::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn oversized_claim_rejected() {
        // Header claiming a giant tensor must fail fast, not OOM.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"FSD1");
        fedsz_codec::varint::write_uvarint(&mut bytes, 1);
        fedsz_codec::varint::write_str(&mut bytes, "w");
        fedsz_codec::varint::write_uvarint(&mut bytes, 1);
        fedsz_codec::varint::write_uvarint(&mut bytes, u32::MAX as u64);
        assert!(StateDict::from_bytes(&bytes).is_err());
    }

    #[test]
    fn from_iterator_collects() {
        let sd: StateDict = vec![
            ("a".to_string(), Tensor::zeros(vec![1])),
            ("b".to_string(), Tensor::ones(vec![2])),
        ]
        .into_iter()
        .collect();
        assert_eq!(sd.len(), 2);
        assert!(sd.get("b").is_some());
    }
}
