//! CRC-32 (IEEE 802.3 polynomial, reflected) used to frame WAL records and
//! seal snapshot files.
//!
//! A torn write at the log tail — the normal outcome of crashing mid-append —
//! must be detected and treated as end-of-log. Length framing alone cannot
//! distinguish a half-written record from a corrupt one; the checksum can.
//!
//! The checksum is computed eight bytes at a time (*slicing-by-8*): table `k`
//! holds the CRC of a byte followed by `k` zero bytes, so the eight lookups of
//! one step are independent of each other instead of forming the
//! byte-at-a-time loop's serial chain. Same polynomial, same values.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]`: the CRC register after byte `b` and then `k` zero bytes.
/// `TABLES[0]` is the classic byte-at-a-time table. Built at compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The byte-at-a-time loop `crc32` replaced, kept as the reference: every
    /// file written before the change was checksummed by exactly this.
    pub(crate) fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Every length 0..=4096 at every alignment 0..8 of a seeded random
    /// buffer: the sliced loop, its remainder loop and the seam between them
    /// all agree with the reference.
    #[test]
    fn equals_the_bytewise_reference_at_every_length_and_alignment() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                // splitmix64
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for align in 0..8 {
            // The reference register, extended one byte per length (which is
            // `crc32_bytewise` without restarting it for every prefix).
            let mut reference = 0xFFFF_FFFFu32;
            for len in 0..=4096 {
                let s = &buf[align..align + len];
                assert_eq!(crc32(s), !reference, "len {len} at offset {align}");
                reference = (reference >> 8)
                    ^ TABLES[0][((reference ^ buf[align + len] as u32) & 0xFF) as usize];
            }
            assert_eq!(
                crc32_bytewise(&buf[align..align + 4096]),
                crc32(&buf[align..align + 4096])
            );
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"phoenix wal record");
        let mut data = b"phoenix wal record".to_vec();
        for i in 0..data.len() {
            data[i] ^= 1;
            assert_ne!(crc32(&data), base, "flip at byte {i} undetected");
            data[i] ^= 1;
        }
    }
}
