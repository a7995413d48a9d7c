//! CRC-32 (IEEE 802.3 polynomial) for WAL and checkpoint integrity,
//! hand-rolled so this crate fully specifies the on-disk format.
//! Slicing-by-8: eight lookups per eight input bytes, independent where
//! the bytewise loop's are chained; the checksum is the same, bit for bit.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, b) = (i / 256, i % 256);
        t[k][b] = if k == 0 {
            let (mut c, mut bit) = (b as u32, 0);
            while bit < 8 {
                c = (c >> 1) ^ (POLY & (c & 1).wrapping_neg());
                bit += 1;
            }
            c
        } else {
            (t[k - 1][b] >> 8) ^ t[0][(t[k - 1][b] & 0xFF) as usize]
        };
        i += 1;
    }
    t
};

/// Compute the CRC-32 of `data` (same algorithm as zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let x = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]) ^ c as u64;
        c = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(x >> (8 * k)) as usize & 0xFF]);
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise reference the kernel must match bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // Standard test vector for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"hello world, this is a wal record".to_vec();
        let orig = crc32(&data);
        data[7] ^= 0x01;
        assert_ne!(crc32(&data), orig);
    }

    #[test]
    fn matches_bytewise_at_every_short_length_and_offset() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 167 + 13) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn matches_bytewise_on_random_buffers(data in prop::collection::vec(any::<u8>(), 0..65_536)) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
    }
}
