//! CRC-32 (IEEE 802.3 polynomial, reflected) over byte slices.
//!
//! Hand-rolled because the build is offline. The kernel is
//! slicing-by-sixteen: sixteen 256-entry tables (computed at compile
//! time) let the loop fold one 16-byte block per iteration instead of
//! one byte, which keeps the checksum pass a small fraction of the
//! snapshot cold-start budget (the tail falls back to the textbook
//! byte-at-a-time form).

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// Sixteen 256-entry lookup tables for slicing-by-sixteen, computed at
/// compile time. `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[k][b]` advances the contribution of byte `b` through `k`
/// additional zero bytes.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte-at-a-time step.
#[inline]
fn step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
}

/// Folds one 32-bit word through tables `BASE+3 ..= BASE`.
#[inline]
fn fold<const BASE: usize>(w: u32) -> u32 {
    TABLES[BASE + 3][(w & 0xFF) as usize]
        ^ TABLES[BASE + 2][((w >> 8) & 0xFF) as usize]
        ^ TABLES[BASE + 1][((w >> 16) & 0xFF) as usize]
        ^ TABLES[BASE][(w >> 24) as usize]
}

/// CRC-32 of `bytes` (matches zlib's `crc32(0, …)`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        // Safe per-element indexing; the chunk is exactly 16 bytes.
        let w0 = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let w1 = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        let w2 = u32::from_le_bytes([chunk[8], chunk[9], chunk[10], chunk[11]]);
        let w3 = u32::from_le_bytes([chunk[12], chunk[13], chunk[14], chunk[15]]);
        crc = fold::<12>(w0) ^ fold::<8>(w1) ^ fold::<4>(w2) ^ fold::<0>(w3);
    }
    for &b in chunks.remainder() {
        crc = step(crc, b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook byte-at-a-time reference the sliced kernel must match.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = step(crc, b);
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the ASCII digits 1-9.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_kernel_matches_reference_at_every_length() {
        // Lengths 0..64 cover every remainder class several times over,
        // so prefix handling, the 8-byte loop and the tail all agree
        // with the reference implementation.
        let data: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(37) ^ 0xA5) as u8)
            .collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_reference(&data[..len]),
                "mismatch at length {len}"
            );
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base = b"structural query expansion".to_vec();
        let crc = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), crc, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
