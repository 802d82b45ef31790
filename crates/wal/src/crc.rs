//! CRC-32 (IEEE 802.3 polynomial), the checksum behind every WAL record
//! and snapshot frame. Table-driven, dependency-free.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The 256-entry lookup table, built once at compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 of `bytes` (IEEE, the `crc32` of zlib/gzip/Ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
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
        assert_eq!(crc32(b"coalloc"), crc32(b"coalloc"));
        assert_ne!(crc32(b"coalloc"), crc32(b"coallod"));
    }

    #[test]
    fn sensitive_to_order_and_length() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
        assert_ne!(crc32(b"a"), crc32(b"a\0"));
    }
}
