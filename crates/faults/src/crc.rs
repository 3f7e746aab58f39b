//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Shared by the CRC-checked HBM image (transfer integrity) and the
//! checkpoint file format (partial/corrupt file rejection). CRC-32
//! detects every burst error up to 32 bits, so any single corrupted
//! byte in a packed image or checkpoint is *guaranteed* caught — the
//! property the corruption proptests lean on.

/// Slicing-by-8 tables, built at compile time: `TABLES[0]` is the
/// classic reflected byte table, and `TABLES[t][b]` is the CRC of
/// byte `b` followed by `t` zero bytes, so one lookup per byte of an
/// 8-byte block folds the whole block in a single step.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// A streaming CRC-32 hasher.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Absorbs bytes, eight per step (slicing-by-8), then the tail
    /// byte by byte.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.0;
        let mut blocks = bytes.chunks_exact(8);
        for block in &mut blocks {
            let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
            let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in blocks.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    /// The final checksum.
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop: the oracle the sliced update is
    /// checked against.
    fn crc32_bytewise(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |crc, &b| {
            TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
        })
    }

    proptest! {
        #[test]
        fn sliced_update_matches_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..300),
            split in 0usize..300,
        ) {
            let want = crc32_bytewise(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF;
            prop_assert_eq!(crc32(&data), want);
            // Split updates: a block may straddle the two calls.
            let split = split.min(data.len());
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finish(), want);
        }
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Crc32::new();
        h.update(&data[..10]);
        h.update(&data[10..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn single_byte_corruption_always_detected() {
        // CRC-32 detects all burst errors <= 32 bits; flip every byte
        // position with every non-zero low mask on a sample buffer.
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        let clean = crc32(&data);
        for pos in 0..data.len() {
            for xor in [0x01u8, 0x80, 0xFF, 0x55] {
                let mut bad = data.clone();
                bad[pos] ^= xor;
                assert_ne!(crc32(&bad), clean, "undetected at {pos} ^ {xor:#x}");
            }
        }
    }
}
