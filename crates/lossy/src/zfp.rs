//! ZFP-class compressor: block transform + embedded bit-plane coding.
//!
//! Follows the published ZFP design (Lindstrom, TVCG 2014) for 1D data:
//! 4-value blocks are aligned to a common exponent (block floating
//! point), converted to 30-bit fixed point, decorrelated with ZFP's
//! integer lifting transform, mapped to negabinary, and bit-plane coded
//! with the group-tested embedded scheme from the reference encoder.
//!
//! Two modes are supported:
//!
//! * **fixed precision** (the mode FedSZ uses, since ZFP has no relative
//!   error bound): keep a fixed number of bit planes per block — bounds
//!   the rate, not the error;
//! * **fixed accuracy**: derive the per-block plane budget from an
//!   absolute error tolerance, which does bound the error.
//!
//! The stream is the frame's header (see `frame.rs`), a mode byte with
//! its precision (`uvarint`) or tolerance (`f64`), and the blocks' bits.

use crate::frame::{check_count, read_header, scan, write_header};
use crate::{ErrorBound, ErrorBounded, LossyError, LossyKind};
use fedsz_codec::bitio::{BitReader, BitWriter};
use fedsz_codec::varint::{read_f64, read_uvarint, write_f64, write_uvarint};
use fedsz_codec::{CodecError, Result};

/// Values per ZFP block (1D).
const BSIZE: usize = 4;
/// Bits in the fixed-point representation.
const INTPREC: u32 = 32;
/// Negabinary conversion mask.
const NBMASK: u32 = 0xaaaa_aaaa;

/// Operating mode, stored in the stream header.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    FixedPrecision(u32),
    FixedAccuracy(f64),
}

/// ZFP-class transform compressor.
///
/// # Examples
///
/// ```
/// use fedsz_lossy::{ErrorBound, ErrorBounded, Zfp};
///
/// let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.1).sin()).collect();
/// let codec = Zfp::new();
/// // Fixed precision: 14 bit planes per value (rate-bounded).
/// let packed = codec.compress(&data, ErrorBound::FixedPrecision(14)).unwrap();
/// let restored = codec.decompress(&packed).unwrap();
/// assert_eq!(restored.len(), data.len());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Zfp {
    _private: (),
}

impl Zfp {
    /// Creates the codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// The precision the paper's "closest analogous option" maps a
    /// relative bound to (used when callers pass
    /// [`ErrorBound::Relative`] to ZFP, which has no native REL mode).
    pub fn precision_for_relative(rel: f64) -> u32 {
        let p = (1.0 / rel).log2().ceil() as i64 + 2;
        p.clamp(1, i64::from(INTPREC)) as u32
    }
}

/// frexp-style exponent: `2^(e-1) <= |v| < 2^e` for normal values.
#[inline]
fn exponent_of(v: f32) -> i32 {
    let a = v.abs();
    if a == 0.0 {
        -126
    } else {
        // ilogb + 1; use bit tricks for speed and subnormal safety.
        let bits = a.to_bits();
        let raw = (bits >> 23) as i32;
        if raw == 0 {
            -125 - (bits.leading_zeros() as i32 - 9)
        } else {
            raw - 126
        }
    }
}

/// ZFP forward lifting transform (1D, 4 values).
#[inline]
fn fwd_lift(p: &mut [i32; 4]) {
    let (mut x, mut y, mut z, mut w) = (p[0], p[1], p[2], p[3]);
    x = x.wrapping_add(w);
    x >>= 1;
    w = w.wrapping_sub(x);
    z = z.wrapping_add(y);
    z >>= 1;
    y = y.wrapping_sub(z);
    x = x.wrapping_add(z);
    x >>= 1;
    z = z.wrapping_sub(x);
    w = w.wrapping_add(y);
    w >>= 1;
    y = y.wrapping_sub(w);
    w = w.wrapping_add(y >> 1);
    y = y.wrapping_sub(w >> 1);
    *p = [x, y, z, w];
}

/// ZFP inverse lifting transform (1D, 4 values).
#[inline]
fn inv_lift(p: &mut [i32; 4]) {
    let (mut x, mut y, mut z, mut w) = (p[0], p[1], p[2], p[3]);
    y = y.wrapping_add(w >> 1);
    w = w.wrapping_sub(y >> 1);
    y = y.wrapping_add(w);
    w <<= 1;
    w = w.wrapping_sub(y);
    z = z.wrapping_add(x);
    x <<= 1;
    x = x.wrapping_sub(z);
    y = y.wrapping_add(z);
    z <<= 1;
    z = z.wrapping_sub(y);
    w = w.wrapping_add(x);
    x <<= 1;
    x = x.wrapping_sub(w);
    *p = [x, y, z, w];
}

/// Two's complement -> negabinary.
#[inline]
fn int2uint(i: i32) -> u32 {
    ((i as u32).wrapping_add(NBMASK)) ^ NBMASK
}

/// Negabinary -> two's complement.
#[inline]
fn uint2int(u: u32) -> i32 {
    (u ^ NBMASK).wrapping_sub(NBMASK) as i32
}

/// Embedded bit-plane encoder for one block (ZFP's `encode_ints`).
fn encode_ints(w: &mut BitWriter, data: &[u32; BSIZE], maxprec: u32) {
    let kmin = INTPREC.saturating_sub(maxprec);
    let mut n = 0usize;
    for k in (kmin..INTPREC).rev() {
        // Extract bit plane k: bit i of x is value i's bit k.
        let mut x = 0u64;
        for (i, &v) in data.iter().enumerate() {
            x |= u64::from((v >> k) & 1) << i;
        }
        // First n values are already significant: emit verbatim.
        w.write_bits(x & ((1u64 << n) - 1), n as u32);
        x >>= n;
        // Group-tested unary coding for the remainder.
        while n < BSIZE {
            let group = x != 0;
            w.write_bit(group);
            if !group {
                break;
            }
            while n < BSIZE - 1 {
                let bit = x & 1 != 0;
                w.write_bit(bit);
                if bit {
                    break;
                }
                x >>= 1;
                n += 1;
            }
            x >>= 1;
            n += 1;
        }
    }
}

/// Embedded bit-plane decoder (ZFP's `decode_ints`).
fn decode_ints(r: &mut BitReader<'_>, maxprec: u32) -> Result<[u32; BSIZE]> {
    /// The most bits one plane can take: up to `BSIZE` verbatim, and a
    /// group test, zero run and terminating one for each remaining
    /// value. One peek per plane serves them all.
    const PLANE_BITS: u32 = 3 * BSIZE as u32 + 1;
    let kmin = INTPREC.saturating_sub(maxprec);
    let mut data = [0u32; BSIZE];
    let mut n = 0usize;
    for k in (kmin..INTPREC).rev() {
        // Bits past the end of the stream peek as zeros, which end the
        // plane early; `consume` below then reports the truncation.
        let window = r.peek_bits(PLANE_BITS);
        let mut left = PLANE_BITS;
        let mut take = |count: u32| {
            left -= count;
            (window >> left) & ((1u64 << count) - 1)
        };
        let mut x = take(n as u32);
        while n < BSIZE {
            if take(1) == 0 {
                break;
            }
            while n < BSIZE - 1 {
                if take(1) != 0 {
                    break;
                }
                n += 1;
            }
            x |= 1u64 << n;
            n += 1;
        }
        r.consume(PLANE_BITS - left)?;
        for (i, v) in data.iter_mut().enumerate() {
            *v |= (((x >> i) & 1) as u32) << k;
        }
    }
    Ok(data)
}

impl Mode {
    /// The plane budget of a block by its exponent, the same function on
    /// both ends: the mode's own count, or in fixed-accuracy mode ZFP's
    /// `precision()` for 1D, `emax - minexp + 2 * (dims + 1)`.
    fn planes(self) -> impl Fn(i32) -> u32 {
        let minexp = match self {
            Mode::FixedAccuracy(eb) => eb.log2().floor() as i32,
            Mode::FixedPrecision(_) => 0,
        };
        move |emax| match self {
            Mode::FixedPrecision(p) => p,
            Mode::FixedAccuracy(_) => (emax - minexp + 4).clamp(0, INTPREC as i32) as u32,
        }
    }
}

impl ErrorBounded for Zfp {
    fn kind(&self) -> LossyKind {
        LossyKind::Zfp
    }

    fn compress(
        &self,
        data: &[f32],
        bound: ErrorBound,
    ) -> std::result::Result<Vec<u8>, LossyError> {
        scan(data)?;
        let usable = |v: f64| v.is_finite() && v > 0.0;
        let mode = match bound {
            ErrorBound::FixedPrecision(p) if (1..=INTPREC).contains(&p) => Mode::FixedPrecision(p),
            ErrorBound::Absolute(eb) if usable(eb) => Mode::FixedAccuracy(eb),
            // ZFP has no REL mode; FedSZ uses fixed precision as the
            // closest analogue.
            ErrorBound::Relative(rel) if usable(rel) => {
                Mode::FixedPrecision(Self::precision_for_relative(rel))
            }
            _ => return Err(LossyError::InvalidBound(bound)),
        };

        let mut out = write_header(self.kind(), data.len());
        match mode {
            Mode::FixedPrecision(p) => {
                out.push(0);
                write_uvarint(&mut out, u64::from(p));
            }
            Mode::FixedAccuracy(eb) => {
                out.push(1);
                write_f64(&mut out, eb);
            }
        }
        if data.is_empty() {
            return Ok(out);
        }

        let planes = mode.planes();
        let mut w = BitWriter::append_to(out);
        for chunk in data.chunks(BSIZE) {
            // Pad the final partial block by repeating its last value.
            let mut block = [0.0f32; BSIZE];
            for (i, slot) in block.iter_mut().enumerate() {
                *slot = chunk.get(i).copied().unwrap_or_else(|| chunk[chunk.len() - 1]);
            }
            let amax = block.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            if amax == 0.0 {
                w.write_bit(false);
                continue;
            }
            w.write_bit(true);
            let emax = exponent_of(amax);
            // Biased exponent: e + 127 fits 9 bits for all f32 inputs.
            w.write_bits((emax + 127) as u64, 9);
            let maxprec = planes(emax);
            if maxprec == 0 {
                continue;
            }
            // Block floating point: scale into (-2^30, 2^30).
            let scale = 2f64.powi(30 - emax);
            let mut q = [0i32; BSIZE];
            for (i, &v) in block.iter().enumerate() {
                q[i] = (f64::from(v) * scale).round() as i32;
            }
            fwd_lift(&mut q);
            let u = [int2uint(q[0]), int2uint(q[1]), int2uint(q[2]), int2uint(q[3])];
            encode_ints(&mut w, &u, maxprec);
        }
        Ok(w.into_bytes())
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f32>> {
        let (n, mut pos) = read_header(bytes, self.kind())?;
        let mode_tag = *bytes.get(pos).ok_or(CodecError::UnexpectedEof)?;
        pos += 1;
        let mode = match mode_tag {
            0 => {
                let p = read_uvarint(bytes, &mut pos)? as u32;
                if p == 0 || p > INTPREC {
                    return Err(CodecError::Corrupt("invalid precision in header"));
                }
                Mode::FixedPrecision(p)
            }
            1 => {
                let eb = read_f64(bytes, &mut pos)?;
                if !(eb.is_finite() && eb > 0.0) {
                    return Err(CodecError::Corrupt("invalid tolerance in header"));
                }
                Mode::FixedAccuracy(eb)
            }
            _ => return Err(CodecError::Corrupt("unknown ZFP mode")),
        };
        if n == 0 {
            return Ok(Vec::new());
        }
        let planes = mode.planes();
        // A block costs at least its one flag bit.
        check_count(n, BSIZE, 1, &bytes[pos..])?;
        let mut r = BitReader::new(&bytes[pos..]);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let take = BSIZE.min(n - out.len());
            if !r.read_bit()? {
                out.extend(std::iter::repeat_n(0.0f32, take));
                continue;
            }
            let emax = r.read_bits(9)? as i32 - 127;
            if !(-127..=128).contains(&emax) {
                return Err(CodecError::Corrupt("exponent out of range"));
            }
            let maxprec = planes(emax);
            if maxprec == 0 {
                out.extend(std::iter::repeat_n(0.0f32, take));
                continue;
            }
            let u = decode_ints(&mut r, maxprec)?;
            let mut q = [uint2int(u[0]), uint2int(u[1]), uint2int(u[2]), uint2int(u[3])];
            inv_lift(&mut q);
            let scale = 2f64.powi(emax - 30);
            for &qi in q.iter().take(take) {
                out.push((f64::from(qi) * scale) as f32);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_codec::stats::max_abs_error;

    #[test]
    fn lift_nearly_round_trips() {
        // The integer lifting transform rounds with `>>1`, so the inverse
        // recovers values only up to a few units — exactly like real ZFP,
        // whose error analysis absorbs this in the accuracy-mode slack.
        let cases =
            [[0i32, 0, 0, 0], [1, 2, 3, 4], [1 << 29, -(1 << 29), 12345, -98765], [-1, 1, -1, 1]];
        for case in cases {
            let mut p = case;
            fwd_lift(&mut p);
            inv_lift(&mut p);
            for i in 0..4 {
                assert!(
                    (i64::from(p[i]) - i64::from(case[i])).abs() <= 4,
                    "lift drift too large: {:?} -> {:?}",
                    case,
                    p
                );
            }
        }
    }

    #[test]
    fn negabinary_round_trips() {
        for i in [0i32, 1, -1, i32::MAX / 2, i32::MIN / 2, 42, -42] {
            assert_eq!(uint2int(int2uint(i)), i);
        }
    }

    #[test]
    fn bitplane_coder_round_trips() {
        let blocks =
            [[0u32; 4], [1, 2, 3, 4], [u32::MAX, 0, u32::MAX / 3, 7], [0x8000_0000, 1, 0, 0xffff]];
        for block in blocks {
            for maxprec in [32u32, 16, 8] {
                let mut w = BitWriter::new();
                encode_ints(&mut w, &block, maxprec);
                let bytes = w.into_bytes();
                let mut r = BitReader::new(&bytes);
                let decoded = decode_ints(&mut r, maxprec).unwrap();
                if maxprec == 32 {
                    assert_eq!(decoded, block);
                } else {
                    // Truncated planes: high bits must match exactly.
                    let kmin = 32 - maxprec;
                    for i in 0..4 {
                        assert_eq!(decoded[i] >> kmin, block[i] >> kmin);
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_accuracy_respects_bound() {
        let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin() * 2.0).collect();
        let codec = Zfp::new();
        for eb in [1e-1f32, 1e-3, 1e-5] {
            let packed = codec.compress(&data, ErrorBound::Absolute(f64::from(eb))).unwrap();
            let restored = codec.decompress(&packed).unwrap();
            assert_eq!(restored.len(), data.len());
            let err = max_abs_error(&data, &restored);
            assert!(err <= eb, "eb {eb:e}: err {err:e}");
        }
    }

    #[test]
    fn fixed_precision_rate_is_bounded() {
        let data: Vec<f32> = (0..8192).map(|i| ((i * 37) as f32).sin()).collect();
        let codec = Zfp::new();
        let packed = codec.compress(&data, ErrorBound::FixedPrecision(10)).unwrap();
        // 10 planes + header + group tests: comfortably under 16 bits/value.
        assert!(packed.len() < data.len() * 2, "rate too high: {}", packed.len());
        let restored = codec.decompress(&packed).unwrap();
        assert_eq!(restored.len(), data.len());
    }

    #[test]
    fn higher_precision_is_more_accurate() {
        let data: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.7).cos() * 0.1).collect();
        let codec = Zfp::new();
        let mut last_err = f32::INFINITY;
        for p in [6u32, 12, 20, 30] {
            let packed = codec.compress(&data, ErrorBound::FixedPrecision(p)).unwrap();
            let restored = codec.decompress(&packed).unwrap();
            let err = max_abs_error(&data, &restored);
            assert!(err <= last_err * 1.001, "precision {p}: {err} vs {last_err}");
            last_err = err;
        }
        assert!(last_err < 1e-6, "30-plane reconstruction should be near exact");
    }

    #[test]
    fn relative_maps_to_reasonable_precision() {
        assert!(Zfp::precision_for_relative(1e-2) >= 8);
        assert!(Zfp::precision_for_relative(1e-4) >= 14);
        assert!(Zfp::precision_for_relative(0.5) >= 1);
    }

    #[test]
    fn zero_blocks_cost_one_bit() {
        let data = vec![0.0f32; 40_000];
        let codec = Zfp::new();
        let packed = codec.compress(&data, ErrorBound::FixedPrecision(16)).unwrap();
        assert!(packed.len() < 40_000 / 8 / 4 + 64, "zero data: {} bytes", packed.len());
        let restored = codec.decompress(&packed).unwrap();
        assert!(restored.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn partial_block_and_negatives() {
        let data = vec![-1.5f32, 2.25, -0.125];
        let codec = Zfp::new();
        let packed = codec.compress(&data, ErrorBound::Absolute(1e-6)).unwrap();
        let restored = codec.decompress(&packed).unwrap();
        assert_eq!(restored.len(), 3);
        assert!(max_abs_error(&data, &restored) <= 1e-6);
    }

    #[test]
    fn truncated_stream_errors() {
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.3).collect();
        let codec = Zfp::new();
        let packed = codec.compress(&data, ErrorBound::FixedPrecision(20)).unwrap();
        assert!(codec.decompress(&packed[..packed.len() / 2]).is_err());
    }
}
