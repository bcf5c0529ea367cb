//! CRC-32C (Castagnoli) — the checksum guarding every WAL record and
//! SSTable block, implemented here so the storage formats carry no external
//! dependencies.
//!
//! Polynomial `0x1EDC6F41` (reflected `0x82F63B78`), table-driven with
//! slice-by-8: eight bytes per step through eight 256-entry tables, then
//! one byte per step for the tail. The tables are built in a `const`
//! context at compile time.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 lookup tables, computed at compile time. `TABLES[0]` is the
/// classic bytewise table; `TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so eight table lookups advance the CRC by a whole
/// 8-byte word.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
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

/// Table index of byte `n` (0 = least significant) of `v`.
#[inline(always)]
fn byte(v: u32, n: u32) -> usize {
    ((v >> (8 * n)) & 0xff) as usize
}

/// Compute the CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 1)]
            ^ t[5][byte(lo, 2)]
            ^ t[4][byte(lo, 3)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 1)]
            ^ t[1][byte(hi, 2)]
            ^ t[0][byte(hi, 3)];
    }
    for &b in words.remainder() {
        crc = t[0][byte(crc ^ u32::from(b), 0)] ^ (crc >> 8);
    }
    !crc
}

/// A masked CRC (RocksDB/LevelDB-style): rotate and add a constant so that
/// checksums of data that itself embeds checksums do not collide trivially.
pub fn masked(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(0xa282_ead8)
}

/// Invert [`masked`].
pub fn unmasked(m: u32) -> u32 {
    m.wrapping_sub(0xa282_ead8).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time reference: the oracle slice-by-8 must match.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 / common test vectors for CRC-32C.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn mask_roundtrip() {
        for v in [0u32, 1, 0xdead_beef, u32::MAX, crc32c(b"xyz")] {
            assert_eq!(unmasked(masked(v)), v);
            assert_ne!(masked(v), v, "masking must change the value");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"some record payload".to_vec();
        let orig = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32c(&data), orig, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    proptest! {
        #[test]
        fn prop_slice_by_8_matches_bytewise(buf in proptest::collection::vec(any::<u8>(), 308)) {
            // Random data of every length 0..=300, starting at each of the
            // 8 alignments of the larger buffer.
            for len in 0..=300 {
                for align in 0..8 {
                    let data = &buf[align..align + len];
                    prop_assert_eq!(crc32c(data), bytewise(data), "align {} len {}", align, len);
                }
            }
        }
    }
}
