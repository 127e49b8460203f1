//! CRC-32 (IEEE 802.3 polynomial, the one used by gzip/zlib/ethernet) for
//! record framing. Slicing-by-8: eight tables built at compile time let the
//! loop fold eight input bytes per step instead of one — no external
//! dependency, no runtime initialization, the same checksum values.

const POLYNOMIAL: u32 = 0xedb8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which is what lets eight
/// lookups advance the register over eight bytes at once.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                POLYNOMIAL ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
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
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    // The tail shorter than a step.
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The bit-at-a-time definition of the checksum, sharing nothing with
    /// the tables — what `crc32` is compared against.
    fn reference(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    POLYNOMIAL ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let a = crc32(b"hello world");
        let mut flipped = b"hello world".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(a, crc32(&flipped));
    }

    proptest! {
        /// Every length 0..=64 at every slice start 0..8 of random contents:
        /// all step/tail splits and all alignments of the eight-byte loop.
        #[test]
        fn matches_the_reference_at_every_length_and_alignment(
            bytes in vec(any::<u8>(), 72),
        ) {
            for start in 0..8 {
                for len in 0..=64 {
                    let slice = &bytes[start..start + len];
                    prop_assert!(
                        crc32(slice) == reference(slice),
                        "start {} len {}",
                        start,
                        len
                    );
                }
            }
        }

        #[test]
        fn matches_the_reference_on_long_inputs(bytes in vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(crc32(&bytes), reference(&bytes));
        }
    }
}
