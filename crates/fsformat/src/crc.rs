//! CRC32C (Castagnoli), the checksum used by every on-disk structure.
//!
//! Slice-by-16: sixteen bytes per step through sixteen 256-entry tables
//! (16 KiB, built at compile time), each step four independent 32-bit
//! loads and sixteen table lookups folded by XOR. A contained reboot
//! checksums every journaled image it replays and every commit
//! checksums every image it journals, 4 KiB at a time, so the kernel is
//! on the recovery stall and on the commit path. `bytewise` finishes a
//! buffer's last 0–15 bytes and is the reference the kernel is tested
//! against, so every on-disk value is the classic table-driven CRC32C.
//! Safe Rust and dependency-free, so that the format crate stays
//! self-contained (the ABI must not drift with an external crate's
//! implementation choices).

const POLY: u32 = 0x82F6_3B78; // reflected Castagnoli polynomial

/// Bytes folded per step of the kernel, and the number of tables.
const SLICE: usize = 16;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC state after byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
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

static TABLES: [[u32; 256]; SLICE] = build_tables();

/// One byte per step: the tail of a buffer, and the reference the
/// sixteen-byte kernel is tested against.
fn bytewise(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// The lookups of one 32-bit word whose first byte lies `k` bytes from
/// the end of a sixteen-byte step: byte `j` of it is followed by
/// `k - 1 - j` more bytes of the step.
#[inline(always)]
fn fold(w: u32, k: usize) -> u32 {
    TABLES[k - 1][(w & 0xFF) as usize]
        ^ TABLES[k - 2][((w >> 8) & 0xFF) as usize]
        ^ TABLES[k - 3][((w >> 16) & 0xFF) as usize]
        ^ TABLES[k - 4][(w >> 24) as usize]
}

/// Compute the CRC32C of `data`.
#[must_use]
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_seeded(!0u32, data) ^ !0u32
}

/// Continue a CRC computation (raw state in, raw state out; callers that
/// split data across buffers seed with `!0` and finalize with `^ !0`).
#[must_use]
pub fn crc32c_seeded(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(SLICE);
    for c in &mut chunks {
        let word = |i: usize| u32::from_le_bytes([c[i], c[i + 1], c[i + 2], c[i + 3]]);
        state =
            fold(word(0) ^ state, 16) ^ fold(word(4), 12) ^ fold(word(8), 8) ^ fold(word(12), 4);
    }
    bytewise(state, chunks.remainder())
}

/// Compute the checksum of a structure image with its own checksum field
/// zeroed: `data` is the full encoded structure, `crc_at` the byte
/// offset of the little-endian u32 checksum inside it.
///
/// # Panics
///
/// Panics if `crc_at + 4` exceeds `data.len()` (caller layout bug).
#[must_use]
pub fn crc32c_excluding(data: &[u8], crc_at: usize) -> u32 {
    assert!(crc_at + 4 <= data.len());
    let mut state = !0u32;
    state = crc32c_seeded(state, &data[..crc_at]);
    state = crc32c_seeded(state, &[0, 0, 0, 0]);
    state = crc32c_seeded(state, &data[crc_at + 4..]);
    state ^ !0u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 / common CRC32C test vectors.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1; // xorshift
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

        /// The on-disk ABI: the sixteen-byte kernel produces exactly the
        /// byte-wise values at every length around a step (0–67 and
        /// either side of one and two steps), around a block and at two,
        /// at every alignment a step can have, from any seed.
        #[test]
        fn kernel_crc_equals_bytewise_reference(fill in any::<u64>(), seed in any::<u32>()) {
            let buf = random_bytes(fill, 8192 + SLICE);
            for len in (0..=67).chain([15, 16, 17, 31, 32, 33, 4095, 4096, 4097, 8192]) {
                for start in 0..SLICE {
                    let data = &buf[start..start + len];
                    prop_assert_eq!(
                        crc32c_seeded(seed, data),
                        bytewise(seed, data),
                        "len {} start {} seed {:#x}", len, start, seed
                    );
                }
            }
        }

        /// Any length and alignment, finalized as the format stores it.
        #[test]
        fn kernel_crc_random_spans_equal_bytewise_reference(
            fill in any::<u64>(),
            start in 0usize..SLICE,
            len in 0usize..8193,
        ) {
            let buf = random_bytes(fill, start + len);
            let data = &buf[start..];
            prop_assert_eq!(crc32c(data), bytewise(!0, data) ^ !0, "len {} start {}", len, start);
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let oneshot = crc32c(data);
        let mut st = !0u32;
        st = crc32c_seeded(st, &data[..10]);
        st = crc32c_seeded(st, &data[10..]);
        assert_eq!(st ^ !0u32, oneshot);
    }

    #[test]
    fn excluding_matches_manual_zeroing() {
        let mut buf = vec![7u8; 64];
        buf[20..24].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        let want = {
            let mut z = buf.clone();
            z[20..24].fill(0);
            crc32c(&z)
        };
        assert_eq!(crc32c_excluding(&buf, 20), want);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0xA5u8; 4096];
        let clean = crc32c(&data);
        for bit in [0, 13, 4095 * 8 + 7] {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&flipped), clean, "bit {bit} undetected");
        }
    }
}
