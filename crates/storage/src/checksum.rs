//! CRC-32 (IEEE 802.3) checksums for on-disk artifacts.
//!
//! Every chunk file and every DBMS page carries a CRC so that torn writes
//! and bit rot surface as [`uei_types::UeiError::Corrupt`] instead of
//! silently wrong exploration results. A region load checksums every chunk
//! it reads twice (catalog CRC, then the file's own trailer), so [`crc32`]
//! is on the response path: it is computed eight bytes per step
//! (slicing-by-8) and returns exactly what the byte-at-a-time definition
//! returns.

/// CRC-32 polynomial (reflected IEEE).
const POLY: u32 = 0xEDB8_8320;

/// Lazily built slicing-by-8 tables: `t[0]` is the classic bytewise table
/// and `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight input bytes fold into the running CRC with eight independent
/// lookups instead of eight dependent ones.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *entry = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Computes the CRC-32 (IEEE) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let x = u64::from_le_bytes(w.try_into().expect("8-byte chunk")) ^ u64::from(crc);
        crc = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(x >> (8 * k)) as u8 as usize]);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The byte-at-a-time definition the sliced tables must reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn sliced_equals_bytewise_reference() {
        let mut rng = uei_types::Rng::new(0xC4C);
        let buf: Vec<u8> = (0..(256 << 10) + 8).map(|_| rng.below(256) as u8).collect();
        // Every short length at every alignment of the 8-byte stride.
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        for _ in 0..24 {
            let len = 1 + rng.below(256 << 10) as usize;
            let start = rng.below(8) as usize;
            let s = &buf[start..start + len];
            assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"hello world");
        let mut data = b"hello world".to_vec();
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }
}
