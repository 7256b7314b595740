//! LEB128 variable-length integers plus fixed-width little-endian helpers.
//!
//! These functions define the byte-level conventions of every container
//! format in the workspace (lossless frames, lossy headers, the FedSZ
//! bitstream). Keeping them in one place guarantees the formats agree.

use crate::{CodecError, Result};

/// Appends `value` as unsigned LEB128.
///
/// # Examples
///
/// ```
/// let mut buf = Vec::new();
/// fedsz_codec::varint::write_uvarint(&mut buf, 300);
/// assert_eq!(buf, vec![0xac, 0x02]);
/// ```
pub fn write_uvarint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The byte length [`write_uvarint`] would append for `value`, without
/// writing anything — the sizing half of the encoding, for callers
/// that account for frames they never materialize.
///
/// # Examples
///
/// ```
/// use fedsz_codec::varint::{uvarint_len, write_uvarint};
///
/// for value in [0, 1, 127, 128, 300, u64::MAX] {
///     let mut buf = Vec::new();
///     write_uvarint(&mut buf, value);
///     assert_eq!(uvarint_len(value), buf.len());
/// }
/// ```
pub fn uvarint_len(value: u64) -> usize {
    (1 + 63u32.saturating_sub(value.leading_zeros()) / 7) as usize
}

/// Reads an unsigned LEB128 integer, advancing `pos`.
///
/// # Errors
///
/// Returns [`CodecError::UnexpectedEof`] when the buffer ends mid-integer
/// and [`CodecError::Corrupt`] when the encoding exceeds 10 bytes.
pub fn read_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(CodecError::UnexpectedEof)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(CodecError::Corrupt("uvarint overflows u64"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Corrupt("uvarint too long"));
        }
    }
}

/// Appends `value` as zig-zag-encoded signed LEB128.
pub fn write_ivarint(out: &mut Vec<u8>, value: i64) {
    write_uvarint(out, ((value << 1) ^ (value >> 63)) as u64);
}

/// Reads a zig-zag-encoded signed LEB128 integer, advancing `pos`.
///
/// # Errors
///
/// Propagates the errors of [`read_uvarint`].
pub fn read_ivarint(buf: &[u8], pos: &mut usize) -> Result<i64> {
    let raw = read_uvarint(buf, pos)?;
    Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
}

/// Appends a `u32` little-endian.
pub fn write_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Reads a little-endian `u32`, advancing `pos`.
///
/// # Errors
///
/// Returns [`CodecError::UnexpectedEof`] when fewer than four bytes remain.
pub fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    let bytes = buf.get(*pos..*pos + 4).ok_or(CodecError::UnexpectedEof)?;
    *pos += 4;
    Ok(u32::from_le_bytes(bytes.try_into().expect("slice of length 4")))
}

/// Appends a `u64` little-endian.
pub fn write_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Reads a little-endian `u64`, advancing `pos`.
///
/// # Errors
///
/// Returns [`CodecError::UnexpectedEof`] when fewer than eight bytes remain.
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let bytes = buf.get(*pos..*pos + 8).ok_or(CodecError::UnexpectedEof)?;
    *pos += 8;
    Ok(u64::from_le_bytes(bytes.try_into().expect("slice of length 8")))
}

/// Appends an `f32` little-endian.
pub fn write_f32(out: &mut Vec<u8>, value: f32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Reads a little-endian `f32`, advancing `pos`.
///
/// # Errors
///
/// Returns [`CodecError::UnexpectedEof`] when fewer than four bytes remain.
pub fn read_f32(buf: &[u8], pos: &mut usize) -> Result<f32> {
    let bytes = buf.get(*pos..*pos + 4).ok_or(CodecError::UnexpectedEof)?;
    *pos += 4;
    Ok(f32::from_le_bytes(bytes.try_into().expect("slice of length 4")))
}

/// Appends every value of `values` little-endian: the bulk form of
/// [`write_f32`], one resize and a copy loop the compiler vectorizes.
pub fn write_f32_slice(out: &mut Vec<u8>, values: &[f32]) {
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    for (dst, value) in out[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&value.to_le_bytes());
    }
}

/// Reads `count` little-endian `f32`s, advancing `pos`: the bulk form of
/// [`read_f32`]. The bytes present bound `count` before it sizes the
/// result.
///
/// # Errors
///
/// Returns [`CodecError::UnexpectedEof`] when fewer than `4 * count`
/// bytes remain.
pub fn read_f32_vec(buf: &[u8], pos: &mut usize, count: usize) -> Result<Vec<f32>> {
    let end = count.checked_mul(4).and_then(|len| pos.checked_add(len));
    let bytes = end.and_then(|end| buf.get(*pos..end)).ok_or(CodecError::UnexpectedEof)?;
    *pos += bytes.len();
    Ok(bytes
        .chunks_exact(4)
        .map(|chunk| f32::from_le_bytes(chunk.try_into().expect("chunk of length 4")))
        .collect())
}

/// Appends an `f64` little-endian.
pub fn write_f64(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Reads a little-endian `f64`, advancing `pos`.
///
/// # Errors
///
/// Returns [`CodecError::UnexpectedEof`] when fewer than eight bytes remain.
pub fn read_f64(buf: &[u8], pos: &mut usize) -> Result<f64> {
    let bytes = buf.get(*pos..*pos + 8).ok_or(CodecError::UnexpectedEof)?;
    *pos += 8;
    Ok(f64::from_le_bytes(bytes.try_into().expect("slice of length 8")))
}

/// Appends a length-prefixed byte string.
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_uvarint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Reads a length-prefixed byte string, advancing `pos`.
///
/// # Errors
///
/// Returns [`CodecError::UnexpectedEof`] when the buffer is shorter than
/// the stored length claims.
pub fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
    let len = read_uvarint(buf, pos)?;
    // The length is untrusted: an end offset that overflows is as
    // out-of-range as one past the buffer.
    let end = usize::try_from(len).ok().and_then(|len| pos.checked_add(len));
    let bytes = end.and_then(|end| buf.get(*pos..end)).ok_or(CodecError::UnexpectedEof)?;
    *pos += bytes.len();
    Ok(bytes)
}

/// Appends a length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string, advancing `pos`.
///
/// # Errors
///
/// Returns [`CodecError::Corrupt`] when the bytes are not valid UTF-8.
pub fn read_str<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a str> {
    let bytes = read_bytes(buf, pos)?;
    std::str::from_utf8(bytes).map_err(|_| CodecError::Corrupt("invalid UTF-8 string"))
}

/// The most dimensions a tensor shape on the wire may have.
const MAX_RANK: usize = 8;

/// Appends a tensor shape: its rank, then each dimension.
pub fn write_shape(out: &mut Vec<u8>, shape: &[usize]) {
    write_uvarint(out, shape.len() as u64);
    for &d in shape {
        write_uvarint(out, d as u64);
    }
}

/// Reads a tensor shape, advancing `pos`; returns it with the element
/// count it multiplies out to.
///
/// # Errors
///
/// Returns [`CodecError::Corrupt`] for a rank above 8 or an element
/// count that overflows `usize`.
pub fn read_shape(buf: &[u8], pos: &mut usize) -> Result<(Vec<usize>, usize)> {
    let rank = read_uvarint(buf, pos)? as usize;
    if rank > MAX_RANK {
        return Err(CodecError::Corrupt("tensor rank too large"));
    }
    let mut shape = Vec::with_capacity(rank);
    let mut elems = 1usize;
    for _ in 0..rank {
        let d = read_uvarint(buf, pos)? as usize;
        elems = elems.checked_mul(d).ok_or(CodecError::Corrupt("shape overflow"))?;
        shape.push(d);
    }
    Ok((shape, elems))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_round_trip() {
        let values = [0u64, 1, 127, 128, 300, 16383, 16384, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            write_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_uvarint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn ivarint_round_trip() {
        let values = [0i64, -1, 1, -64, 63, i32::MIN as i64, i64::MAX, i64::MIN];
        let mut buf = Vec::new();
        for &v in &values {
            write_ivarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_ivarint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn truncated_uvarint_errors() {
        let buf = [0x80u8, 0x80];
        let mut pos = 0;
        assert_eq!(read_uvarint(&buf, &mut pos), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn overlong_uvarint_errors() {
        let buf = [0xffu8; 11];
        let mut pos = 0;
        assert!(matches!(read_uvarint(&buf, &mut pos), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn f32_slices_match_the_one_by_one_form() {
        let values = [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::NAN, f32::INFINITY, -3.25e-7];
        let (mut bulk, mut single) = (vec![0xAA], vec![0xAA]);
        write_f32_slice(&mut bulk, &values);
        for &v in &values {
            write_f32(&mut single, v);
        }
        assert_eq!(bulk, single);
        let mut pos = 1;
        let back = read_f32_vec(&bulk, &mut pos, values.len()).unwrap();
        assert_eq!(pos, bulk.len());
        let bits = |vs: &[f32]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&values));
        // One value too many, and a count whose byte length overflows.
        let mut pos = 1;
        assert_eq!(read_f32_vec(&bulk, &mut pos, values.len() + 1), Err(CodecError::UnexpectedEof));
        assert_eq!(read_f32_vec(&bulk, &mut pos, usize::MAX / 2), Err(CodecError::UnexpectedEof));
        assert_eq!(pos, 1);
    }

    #[test]
    fn fixed_width_round_trip() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 0xdead_beef);
        write_u64(&mut buf, 0x0123_4567_89ab_cdef);
        write_f32(&mut buf, -1.25);
        write_f64(&mut buf, std::f64::consts::PI);
        let mut pos = 0;
        assert_eq!(read_u32(&buf, &mut pos).unwrap(), 0xdead_beef);
        assert_eq!(read_u64(&buf, &mut pos).unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(read_f32(&buf, &mut pos).unwrap(), -1.25);
        assert_eq!(read_f64(&buf, &mut pos).unwrap(), std::f64::consts::PI);
    }

    #[test]
    fn strings_and_bytes_round_trip() {
        let mut buf = Vec::new();
        write_str(&mut buf, "features.0.weight");
        write_bytes(&mut buf, &[1, 2, 3]);
        let mut pos = 0;
        assert_eq!(read_str(&buf, &mut pos).unwrap(), "features.0.weight");
        assert_eq!(read_bytes(&buf, &mut pos).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn shapes_round_trip_and_forged_ones_are_corrupt() {
        let mut buf = Vec::new();
        write_shape(&mut buf, &[16, 3, 3, 3]);
        write_shape(&mut buf, &[]);
        let mut pos = 0;
        assert_eq!(read_shape(&buf, &mut pos).unwrap(), (vec![16, 3, 3, 3], 432));
        assert_eq!(read_shape(&buf, &mut pos).unwrap(), (vec![], 1));
        assert_eq!(pos, buf.len());
        assert_eq!(read_shape(&[9], &mut 0), Err(CodecError::Corrupt("tensor rank too large")));
        let mut huge = Vec::new();
        write_shape(&mut huge, &[usize::MAX, 2]);
        assert_eq!(read_shape(&huge, &mut 0), Err(CodecError::Corrupt("shape overflow")));
        assert_eq!(read_shape(&[2, 5], &mut 0), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[0xff, 0xfe]);
        let mut pos = 0;
        assert!(matches!(read_str(&buf, &mut pos), Err(CodecError::Corrupt(_))));
    }
}
