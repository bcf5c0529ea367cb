//! CRC-32C (Castagnoli) — the checksum guarding every WAL record and
//! SSTable block, implemented here so the storage formats carry no external
//! dependencies.
//!
//! Polynomial `0x1EDC6F41` (reflected `0x82F63B78`). [`crc32c`] picks one
//! of two kernels at run time, and both give bit-identical results:
//!
//! * **SSE4.2** (x86_64 CPUs that report it): the CPU's `crc32`
//!   instruction over 8-byte words, then one byte per step for the tail.
//! * **Slice-by-8** (every other CPU and target): eight bytes per step
//!   through eight 256-entry tables, then one byte per step for the tail.
//!   The tables are built in a `const` context at compile time.
//!
//! The choice is made from the CPU alone; nothing configures it. The
//! hardware kernel is the workspace's only `unsafe` call site.

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
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the kernel's only precondition is SSE4.2, detected on
        // this CPU just above.
        #[allow(unsafe_code)]
        let crc = unsafe { crc32c_sse42(data) };
        return crc;
    }
    crc32c_slice_by_8(data)
}

/// The SSE4.2 kernel: one `crc32` instruction per 8-byte word, then one
/// per tail byte. The instruction computes exactly the reflected
/// CRC-32C step the tables encode, so the result matches
/// [`crc32c_slice_by_8`] bit for bit.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(!0u32);
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let word = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        crc = _mm_crc32_u64(crc, word);
    }
    // `crc32` zero-extends its 32-bit result into the 64-bit register.
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// The portable kernel: slice-by-8 table lookups.
fn crc32c_slice_by_8(data: &[u8]) -> u32 {
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

    /// The byte-at-a-time reference both kernels must match.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
        }
        !crc
    }

    type Kernel = fn(&[u8]) -> u32;

    /// Both paths: the dispatcher (the hardware kernel on an SSE4.2 CPU)
    /// and the portable fallback, which the dispatcher may never reach.
    const PATHS: [(&str, Kernel); 2] = [("crc32c", crc32c), ("slice_by_8", crc32c_slice_by_8)];

    #[test]
    fn known_vectors() {
        // RFC 3720 / common test vectors for CRC-32C.
        let ascending: Vec<u8> = (0u8..32).collect();
        for (name, f) in PATHS {
            assert_eq!(f(b""), 0, "{name}");
            assert_eq!(f(b"123456789"), 0xE306_9283, "{name}");
            assert_eq!(f(&[0u8; 32]), 0x8A91_36AA, "{name}");
            assert_eq!(f(&[0xffu8; 32]), 0x62A8_AB43, "{name}");
            assert_eq!(f(&ascending), 0x46DD_794E, "{name}");
        }
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
        fn prop_slice_by_8_matches_bytewise(buf in proptest::collection::vec(any::<u8>(), 4111)) {
            // Random data of every length 0..=300, plus a full 4 KiB data
            // block with and without a tail, starting at each of the 8
            // alignments of the larger buffer.
            for len in (0..=300).chain([4095, 4096, 4103]) {
                for align in 0..8 {
                    let data = &buf[align..align + len];
                    let want = bytewise(data);
                    for (name, f) in PATHS {
                        prop_assert_eq!(f(data), want, "{} align {} len {}", name, align, len);
                    }
                }
            }
        }
    }
}
