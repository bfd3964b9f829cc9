//! CRC32C (Castagnoli), the checksum used by every on-disk structure.
//!
//! Slice-by-8: eight bytes per step through eight 256-entry tables
//! (8 KiB, built at compile time). A contained reboot checksums every
//! journaled image it replays and every commit checksums every image it
//! journals, 4 KiB at a time, so the kernel is on the recovery stall
//! and on the commit path. Dependency-free so that the format crate
//! stays self-contained (the ABI must not drift with an external
//! crate's implementation choices).

const POLY: u32 = 0x82F6_3B78; // reflected Castagnoli polynomial

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC state after byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
    while k < 8 {
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

static TABLES: [[u32; 256]; 8] = build_tables();

/// One byte per step: the tail of a buffer, and the reference the
/// eight-byte kernel is tested against.
fn bytewise(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
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
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
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

    #[test]
    fn known_vectors() {
        // RFC 3720 / common CRC32C test vectors.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    /// The on-disk ABI: the eight-byte kernel must produce exactly the
    /// byte-wise values, whatever the length, alignment or seed.
    #[test]
    fn slice_by_8_equals_bytewise_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64; // xorshift, fixed seed
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let buf: Vec<u8> = (0..8192 + 64).map(|_| next() as u8).collect();
        for len in (0..=67).chain([255, 256, 257, 4095, 4096, 4097, 8192]) {
            for start in 0..9 {
                let data = &buf[start..start + len];
                let seed = next() as u32;
                assert_eq!(
                    crc32c_seeded(seed, data),
                    bytewise(seed, data),
                    "len {len} start {start} seed {seed:#x}"
                );
            }
        }
        for _ in 0..500 {
            let start = (next() % 64) as usize;
            let len = (next() % 8192) as usize;
            let data = &buf[start..start + len];
            assert_eq!(
                crc32c(data),
                bytewise(!0, data) ^ !0,
                "len {len} start {start}"
            );
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
