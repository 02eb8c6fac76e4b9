//! CRC-32 primitives shared by the wire-level transport and the CRC
//! functional unit.
//!
//! The polynomial network itself (IEEE, reflected, `0xEDB88320`) is the
//! same whether it guards a link frame or updates a running register value
//! through the CRC functional unit in `fu-units` — exactly the reuse a
//! real design would get by instantiating one CRC core in both the
//! transceiver and the unit library. The functions live here, at the root
//! of the dependency graph, so both layers share one implementation.

/// Slicing-by-four tables: `TABLES[k][b]` advances the register over the
/// byte `b` and then `k` zero bytes, so a word takes four lookups.
const TABLES: [[u32; 256]; 4] = {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 1024 {
        let (k, b) = (i / 256, i % 256);
        let mut c = if k == 0 { b as u32 } else { t[k - 1][b] };
        let mut round = 0;
        while round < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            round += 1;
        }
        t[k][b] = c;
        i += 1;
    }
    t
};

/// Update a reflected CRC-32 with one byte.
pub fn crc32_byte(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize]
}

/// Update a reflected CRC-32 with four little-endian bytes.
pub fn crc32_word(crc: u32, word: u32) -> u32 {
    let x = crc ^ word;
    (0..4).fold(0, |c, k| c ^ TABLES[3 - k][(x >> (8 * k) & 0xff) as usize])
}

/// Reference CRC-32 (IEEE) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(0xffff_ffff, |c, &b| crc32_byte(c, b))
}

/// CRC-32 of a sequence of 32-bit frames (little-endian byte order),
/// as computed by the reliable-transport framing layer.
pub fn crc32_frames(frames: &[u32]) -> u32 {
    !frames.iter().fold(0xffff_ffff, |c, &f| crc32_word(c, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-serial network the tables are built from: the oracle.
    fn bitwise_byte(crc: u32, byte: u8) -> u32 {
        let mut crc = crc ^ byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
        crc
    }

    #[test]
    fn reference_matches_known_vector() {
        // The canonical CRC-32 check value: crc32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_crc_equals_byte_crc() {
        let frames = [0x3332_3130u32, 0x3736_3534]; // "01234567" LE
        assert_eq!(crc32_frames(&frames), crc32(b"01234567"));
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let base = crc32_frames(&[0xdead_beef, 0x0123_4567]);
        for bit in 0..32 {
            let flipped = crc32_frames(&[0xdead_beef ^ (1 << bit), 0x0123_4567]);
            assert_ne!(base, flipped, "bit {bit} flip must be detected");
        }
    }

    #[test]
    fn byte_table_matches_the_bit_loop_everywhere() {
        for crc in [0, 1, 0xffff_ffff, 0xdead_beef, 0x8000_0000] {
            for byte in 0..=255u8 {
                assert_eq!(crc32_byte(crc, byte), bitwise_byte(crc, byte));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_tables_match_the_bit_loop(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            frames in proptest::collection::vec(any::<u32>(), 0..16),
        ) {
            let oracle = !bytes.iter().fold(0xffff_ffff, |c, &b| bitwise_byte(c, b));
            prop_assert_eq!(crc32(&bytes), oracle);
            let le: Vec<u8> = frames.iter().flat_map(|f| f.to_le_bytes()).collect();
            let oracle = !le.iter().fold(0xffff_ffff, |c, &b| bitwise_byte(c, b));
            prop_assert_eq!(crc32_frames(&frames), oracle);
        }
    }
}
