//! CRC-32 (IEEE 802.3) and Adler-32 checksums.
//!
//! The gzip-style frames in `fedsz-lossless` use CRC-32; the zlib-style
//! frames use Adler-32, mirroring the real formats' integrity checks.

/// Computes the IEEE CRC-32 of `data` (polynomial `0xEDB88320`, as used
/// by gzip, PNG and Ethernet).
///
/// # Examples
///
/// ```
/// assert_eq!(fedsz_codec::checksum::crc32(b"123456789"), 0xCBF43926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// Incremental CRC-32 state, for hashing data produced in chunks.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

/// Slicing-by-8 tables: `TABLES[0]` is the classic byte-at-a-time table
/// of CRC remainders, and `TABLES[k][b]` is the remainder of byte `b`
/// followed by `k` zero bytes — so eight table reads, one per byte of a
/// 64-bit chunk, advance the state by the whole chunk at once.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Advances `state` over `data` one byte per step.
fn update_bytewise(mut state: u32, data: &[u8]) -> u32 {
    for &byte in data {
        state = TABLES[0][((state ^ u32::from(byte)) & 0xff) as usize] ^ (state >> 8);
    }
    state
}

impl Crc32 {
    /// Creates a fresh checksum state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut state = self.state;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let chunk: &[u8; 8] = chunk.try_into().expect("chunk of length 8");
            let [b0, b1, b2, b3, b4, b5, b6, b7] = *chunk;
            let low = state ^ u32::from_le_bytes([b0, b1, b2, b3]);
            state = TABLES[7][(low & 0xff) as usize]
                ^ TABLES[6][((low >> 8) & 0xff) as usize]
                ^ TABLES[5][((low >> 16) & 0xff) as usize]
                ^ TABLES[4][(low >> 24) as usize]
                ^ TABLES[3][usize::from(b4)]
                ^ TABLES[2][usize::from(b5)]
                ^ TABLES[1][usize::from(b6)]
                ^ TABLES[0][usize::from(b7)];
        }
        self.state = update_bytewise(state, chunks.remainder());
    }

    /// Returns the final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Computes the Adler-32 checksum of `data` as used by zlib.
///
/// # Examples
///
/// ```
/// // Adler-32 of the empty string is 1.
/// assert_eq!(fedsz_codec::checksum::adler32(&[]), 1);
/// ```
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    // Process in chunks small enough that the u32 accumulators cannot
    // overflow before the modulo reduction (5552 is the classic bound).
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += u32::from(byte);
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(&[]), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414FA339);
    }

    #[test]
    fn crc32_incremental_matches_oneshot() {
        let data = b"hello federated world";
        let mut inc = Crc32::new();
        inc.update(&data[..5]);
        inc.update(&data[5..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    /// The table-free definition: one polynomial step per bit.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Every length 0..=64 at every offset 0..8 into a buffer, in one
    /// call and split at every point: the word loop, its remainder and
    /// the seams between calls, all against the bit-at-a-time walk.
    #[test]
    fn crc32_sliced_matches_bytewise_at_every_length_and_alignment() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                let want = crc32_bitwise(data);
                assert_eq!(crc32(data), want, "offset {offset}, len {len}");
                for split in 0..=len {
                    let mut inc = Crc32::new();
                    inc.update(&data[..split]);
                    inc.update(&data[split..]);
                    assert_eq!(inc.finish(), want, "offset {offset}, len {len}, split {split}");
                }
            }
        }
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(&[]), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E60398);
    }

    #[test]
    fn adler32_large_input_no_overflow() {
        let data = vec![0xffu8; 1 << 16];
        // Must not panic and must be stable.
        assert_eq!(adler32(&data), adler32(&data));
    }
}
