//! Allocation bitmaps (inode and data), with block-granular images for
//! journaling.
//!
//! The bytes are the on-disk image: bit `i` is bit `i % 8` of byte
//! `i / 8`. Read as little-endian `u64` words, that makes bit `j` of
//! word `k` bitmap bit `64k + j`, so the scans — counting, finding a
//! free bit, checking the tail — work a word at a time (popcount,
//! `trailing_zeros`) over the same `Vec<u8>`. They run under every
//! shadow allocation, so under every record the warm standby applies,
//! and under every allocator load in a contained reboot.

use crate::layout::BITS_PER_BLOCK;
use rae_blockdev::{BlockDevice, BLOCK_SIZE};
use rae_vfs::{FsError, FsResult};

/// A packed bitmap spanning one or more on-disk blocks.
///
/// Bit `i` of the data bitmap corresponds to data block
/// `geometry.data_start + i`; bit `i` of the inode bitmap to inode `i`
/// (bit 0, the null inode, is always set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    bits: Vec<u8>,
    nbits: u64,
}

impl Bitmap {
    /// A bitmap of `nbits` bits, all clear, sized up to whole blocks.
    #[must_use]
    pub fn new(nbits: u64) -> Bitmap {
        let nblocks = nbits.div_ceil(BITS_PER_BLOCK);
        Bitmap {
            bits: vec![0u8; (nblocks as usize) * BLOCK_SIZE],
            nbits,
        }
    }

    /// Load a bitmap of `nbits` bits from `nblocks` blocks starting at
    /// `start` on `dev`, read as one extent.
    ///
    /// # Errors
    ///
    /// Device errors; [`FsError::Corrupted`] if `nblocks` cannot hold
    /// `nbits`, or if any bit beyond `nbits` is set (trailing garbage —
    /// a crafted-image tell).
    pub fn load<D: BlockDevice + ?Sized>(
        dev: &D,
        start: u64,
        nblocks: u64,
        nbits: u64,
    ) -> FsResult<Bitmap> {
        if nblocks * BITS_PER_BLOCK < nbits {
            return Err(FsError::Corrupted {
                detail: "bitmap region too small for bit count".to_string(),
            });
        }
        let mut bits = vec![0u8; (nblocks as usize) * BLOCK_SIZE];
        let mut bufs: Vec<&mut [u8]> = bits.chunks_exact_mut(BLOCK_SIZE).collect();
        dev.read_blocks(start, &mut bufs)?;
        let bm = Bitmap { bits, nbits };
        bm.validate_tail()?;
        Ok(bm)
    }

    /// Write every block of the bitmap to `dev` starting at `start`.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn store<D: BlockDevice + ?Sized>(&self, dev: &D, start: u64) -> FsResult<()> {
        for (i, chunk) in self.bits.chunks(BLOCK_SIZE).enumerate() {
            dev.write_block(start + i as u64, chunk)?;
        }
        Ok(())
    }

    /// Number of addressable bits.
    #[must_use]
    pub fn nbits(&self) -> u64 {
        self.nbits
    }

    /// Number of backing blocks.
    #[must_use]
    pub fn nblocks(&self) -> u64 {
        (self.bits.len() / BLOCK_SIZE) as u64
    }

    fn check(&self, i: u64) -> FsResult<()> {
        if i < self.nbits {
            Ok(())
        } else {
            Err(FsError::Corrupted {
                detail: format!("bitmap index {i} out of range {}", self.nbits),
            })
        }
    }

    fn test_raw(&self, i: u64) -> bool {
        self.bits[(i / 8) as usize] & (1 << (i % 8)) != 0
    }

    /// The backing bytes as little-endian words from word `k` on: bit
    /// `j` of word `k` is bit `64k + j`. The backing store is whole
    /// blocks, so whole words.
    fn words_from(&self, k: usize) -> impl Iterator<Item = u64> + '_ {
        self.bits[k * 8..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
    }

    /// The first bit in `lo..hi` whose value differs from `skip`'s (an
    /// all-ones `skip` finds a clear bit, a zero one a set bit), skipping
    /// whole words that hold nothing else. `hi` is within the backing
    /// store.
    fn first_unlike(&self, lo: u64, hi: u64, skip: u64) -> Option<u64> {
        if lo >= hi {
            return None;
        }
        let first = lo / 64;
        let words = self.words_from(first as usize);
        for (k, word) in (first..=(hi - 1) / 64).zip(words) {
            let mut w = word ^ skip;
            if k == first {
                w &= u64::MAX << (lo % 64);
            }
            if w != 0 {
                let bit = k * 64 + u64::from(w.trailing_zeros());
                return (bit < hi).then_some(bit);
            }
        }
        None
    }

    /// Whether bit `i` is set.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] for out-of-range indices (indices often
    /// come from on-disk structures).
    pub fn test(&self, i: u64) -> FsResult<bool> {
        self.check(i)?;
        Ok(self.test_raw(i))
    }

    /// Set bit `i`, returning its previous value.
    ///
    /// # Errors
    ///
    /// As [`Bitmap::test`].
    pub fn set(&mut self, i: u64) -> FsResult<bool> {
        self.check(i)?;
        let prev = self.test_raw(i);
        self.bits[(i / 8) as usize] |= 1 << (i % 8);
        Ok(prev)
    }

    /// Clear bit `i`, returning its previous value.
    ///
    /// # Errors
    ///
    /// As [`Bitmap::test`].
    pub fn clear(&mut self, i: u64) -> FsResult<bool> {
        self.check(i)?;
        let prev = self.test_raw(i);
        self.bits[(i / 8) as usize] &= !(1 << (i % 8));
        Ok(prev)
    }

    /// Find the first clear bit at or after `hint`, wrapping around.
    #[must_use]
    pub fn find_free_from(&self, hint: u64) -> Option<u64> {
        if self.nbits == 0 {
            return None;
        }
        let start = hint % self.nbits;
        self.first_unlike(start, self.nbits, u64::MAX)
            .or_else(|| self.first_unlike(0, start, u64::MAX))
    }

    /// The maximal runs `[start, end)` of clear bits, in order.
    pub fn clear_runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let start = self.first_unlike(at, self.nbits, u64::MAX)?;
            at = self
                .first_unlike(start, self.nbits, 0)
                .unwrap_or(self.nbits);
            Some((start, at))
        })
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_set(&self) -> u64 {
        // trailing bits beyond nbits are guaranteed clear
        self.words_from(0).map(|w| u64::from(w.count_ones())).sum()
    }

    /// Number of clear bits within the addressable extent.
    #[must_use]
    pub fn count_clear(&self) -> u64 {
        self.nbits - self.count_set()
    }

    /// Overwrite backing block `idx` with a raw 4 KiB image (used when
    /// loading bitmaps through a page cache instead of the device).
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] on a misshapen image or out-of-range index.
    pub fn splice_block(&mut self, idx: u64, image: &[u8]) -> FsResult<()> {
        if image.len() != BLOCK_SIZE || idx >= self.nblocks() {
            return Err(FsError::Corrupted {
                detail: "bitmap block splice out of range".to_string(),
            });
        }
        let off = (idx as usize) * BLOCK_SIZE;
        self.bits[off..off + BLOCK_SIZE].copy_from_slice(image);
        Ok(())
    }

    /// Check that no bit beyond the addressable extent is set (the same
    /// guarantee [`Bitmap::load`] enforces, for bitmaps assembled via
    /// [`Bitmap::splice_block`]).
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] when trailing garbage bits are set.
    pub fn validate_tail(&self) -> FsResult<()> {
        match self.first_unlike(self.nbits, self.nblocks() * BITS_PER_BLOCK, 0) {
            None => Ok(()),
            Some(i) => Err(FsError::Corrupted {
                detail: format!(
                    "bitmap has bit {i} set beyond its {}-bit extent",
                    self.nbits
                ),
            }),
        }
    }

    /// Index of the backing block containing bit `i` (for journaling).
    #[must_use]
    pub fn block_containing(i: u64) -> u64 {
        i / BITS_PER_BLOCK
    }

    /// The 4 KiB image of backing block `idx` (for journaling).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (internal indices, not disk data).
    #[must_use]
    pub fn block_image(&self, idx: u64) -> &[u8] {
        let off = (idx as usize) * BLOCK_SIZE;
        &self.bits[off..off + BLOCK_SIZE]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rae_blockdev::MemDisk;

    /// Bit-at-a-time references: the scans as they were before they
    /// went word-wide.
    fn ref_count_set(bm: &Bitmap) -> u64 {
        (0..bm.nblocks() * BITS_PER_BLOCK)
            .filter(|&i| bm.test_raw(i))
            .count() as u64
    }

    fn ref_find_free_from(bm: &Bitmap, hint: u64) -> Option<u64> {
        if bm.nbits == 0 {
            return None;
        }
        let start = hint % bm.nbits;
        let mut i = start;
        loop {
            if !bm.test_raw(i) {
                return Some(i);
            }
            i = (i + 1) % bm.nbits;
            if i == start {
                return None;
            }
        }
    }

    fn ref_clear_runs(bm: &Bitmap) -> Vec<(u64, u64)> {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for i in (0..bm.nbits).filter(|&i| !bm.test_raw(i)) {
            match runs.last_mut() {
                Some((_, end)) if *end == i => *end += 1,
                _ => runs.push((i, i + 1)),
            }
        }
        runs
    }

    fn ref_first_garbage(bm: &Bitmap) -> Option<u64> {
        (bm.nbits..bm.nblocks() * BITS_PER_BLOCK).find(|&i| bm.test_raw(i))
    }

    fn garbage_detail(bit: u64, nbits: u64) -> String {
        format!("bitmap has bit {bit} set beyond its {nbits}-bit extent")
    }

    /// Set (or clear) each run `[start, start + len)`, clipped to
    /// `nbits`: long runs of ones cross word boundaries on both sides.
    fn with_runs(nbits: u64, runs: &[(u64, u64, bool)]) -> Bitmap {
        let mut bm = Bitmap::new(nbits);
        for &(start, len, set) in runs {
            for i in (start % nbits)..(start % nbits + len).min(nbits) {
                if set {
                    bm.set(i).unwrap();
                } else {
                    bm.clear(i).unwrap();
                }
            }
        }
        bm
    }

    fn arb_runs(max_len: u64) -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
        proptest::collection::vec((any::<u64>(), 0..max_len, any::<bool>()), 0..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

        /// Popcounted words count what the bits count, over one and two
        /// blocks, whatever `nbits % 64`.
        #[test]
        fn kernel_count_set_matches_bit_reference(
            nbits in prop_oneof![1u64..700, 1u64..2 * BITS_PER_BLOCK],
            runs in arb_runs(300),
        ) {
            let bm = with_runs(nbits, &runs);
            prop_assert_eq!(bm.count_set(), ref_count_set(&bm));
            prop_assert_eq!(bm.count_clear(), nbits - ref_count_set(&bm));
        }

        /// Every hint, past the end too (it wraps), finds what the bit
        /// walk finds; so does a full bitmap (`None`) and a full one
        /// with a single hole.
        #[test]
        fn kernel_find_free_matches_bit_reference_at_every_hint(
            nbits in 1u64..600,
            runs in arb_runs(200),
            hole in any::<u64>(),
        ) {
            let bm = with_runs(nbits, &runs);
            let mut full = with_runs(nbits, &[(0, nbits, true)]);
            prop_assert_eq!(full.find_free_from(hole), None);
            let mut holed = full.clone();
            holed.clear(hole % nbits).unwrap();
            for hint in 0..nbits + 70 {
                prop_assert_eq!(bm.find_free_from(hint), ref_find_free_from(&bm, hint), "hint {}", hint);
                prop_assert_eq!(holed.find_free_from(hint), Some(hole % nbits), "hint {}", hint);
            }
            // a set bit past nbits (an unvalidated splice) is never found
            full.bits[(nbits / 8) as usize] |= 0xFF;
            prop_assert_eq!(full.find_free_from(0), None);
        }

        /// The clear runs are the bit walk's, over one and two blocks:
        /// runs that cross words and blocks, a full and an empty bitmap.
        #[test]
        fn kernel_clear_runs_match_bit_reference(
            nbits in prop_oneof![1u64..700, BITS_PER_BLOCK - 70..2 * BITS_PER_BLOCK],
            runs in arb_runs(40_000),
        ) {
            let bm = with_runs(nbits, &runs);
            prop_assert_eq!(bm.clear_runs().collect::<Vec<_>>(), ref_clear_runs(&bm));
            let full = with_runs(nbits, &[(0, nbits, true)]);
            prop_assert_eq!(full.clear_runs().count(), 0);
            prop_assert_eq!(Bitmap::new(nbits).clear_runs().collect::<Vec<_>>(), vec![(0, nbits)]);
        }

        /// Far hints over two blocks: the word skip crosses the block
        /// boundary and wraps.
        #[test]
        fn kernel_find_free_matches_bit_reference_over_blocks(
            nbits in BITS_PER_BLOCK - 70..2 * BITS_PER_BLOCK,
            runs in arb_runs(40_000),
            hints in proptest::collection::vec(any::<u64>(), 1..16),
        ) {
            let bm = with_runs(nbits, &runs);
            for hint in hints.into_iter().chain([0, nbits - 1, nbits]) {
                prop_assert_eq!(bm.find_free_from(hint), ref_find_free_from(&bm, hint), "hint {}", hint);
            }
        }
    }

    proptest! {
        // every tail position of a mostly empty block is ~32 k checks
        #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

        /// One garbage bit at each tail position is reported as the
        /// first offending bit, with the same message, by
        /// `validate_tail` and by `load`; a second one further on does
        /// not change which.
        #[test]
        fn kernel_validate_tail_reports_first_garbage_bit(
            nbits in prop_oneof![1u64..200, BITS_PER_BLOCK - 200..BITS_PER_BLOCK + 1],
            runs in arb_runs(100),
            later in any::<u64>(),
        ) {
            let mut bm = with_runs(nbits, &runs);
            prop_assert!(bm.validate_tail().is_ok());
            let end = bm.nblocks() * BITS_PER_BLOCK;
            let flip = |bm: &mut Bitmap, i: u64| bm.bits[(i / 8) as usize] ^= 1 << (i % 8);
            for bit in nbits..end {
                let second = bit + 1 + later % (end - bit);
                flip(&mut bm, bit);
                if second < end {
                    flip(&mut bm, second);
                }
                let Err(FsError::Corrupted { detail }) = bm.validate_tail() else {
                    return Err(TestCaseError::fail(format!("bit {bit} not reported")));
                };
                prop_assert_eq!(detail, garbage_detail(bit, nbits));
                if bit % 997 == 0 {
                    prop_assert_eq!(ref_first_garbage(&bm), Some(bit));
                }
                flip(&mut bm, bit);
                if second < end {
                    flip(&mut bm, second);
                }
            }
            let clean = bm;
            let dev = MemDisk::new(clean.nblocks());
            let mut bm = clean.clone();
            let bit = nbits + later % (end - nbits).max(1);
            if bit < end {
                bm.bits[(bit / 8) as usize] |= 1 << (bit % 8);
                bm.store(&dev, 0).unwrap();
                let Err(FsError::Corrupted { detail }) = Bitmap::load(&dev, 0, bm.nblocks(), nbits) else {
                    return Err(TestCaseError::fail("load took a garbage tail".to_string()));
                };
                prop_assert_eq!(detail, garbage_detail(bit, nbits));
            }
        }
    }

    #[test]
    fn set_clear_test() {
        let mut bm = Bitmap::new(100);
        assert!(!bm.test(5).unwrap());
        assert!(!bm.set(5).unwrap());
        assert!(bm.test(5).unwrap());
        assert!(bm.set(5).unwrap(), "second set reports previous value");
        assert!(bm.clear(5).unwrap());
        assert!(!bm.test(5).unwrap());
        assert!(!bm.clear(5).unwrap());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut bm = Bitmap::new(10);
        assert!(bm.test(10).is_err());
        assert!(bm.set(u64::MAX).is_err());
        assert!(bm.clear(10).is_err());
    }

    #[test]
    fn find_free_wraps_around_hint() {
        let mut bm = Bitmap::new(8);
        for i in 0..8 {
            bm.set(i).unwrap();
        }
        assert_eq!(bm.find_free_from(3), None);
        bm.clear(1).unwrap();
        assert_eq!(bm.find_free_from(3), Some(1), "wraps past the end");
        assert_eq!(bm.find_free_from(0), Some(1));
        assert_eq!(bm.find_free_from(1), Some(1));
    }

    #[test]
    fn counts() {
        let mut bm = Bitmap::new(1000);
        for i in (0..1000).step_by(3) {
            bm.set(i).unwrap();
        }
        assert_eq!(bm.count_set(), 334);
        assert_eq!(bm.count_clear(), 666);
    }

    #[test]
    fn store_load_roundtrip() {
        let dev = MemDisk::new(8);
        let mut bm = Bitmap::new(BITS_PER_BLOCK + 17); // spans 2 blocks
        bm.set(0).unwrap();
        bm.set(BITS_PER_BLOCK).unwrap();
        bm.set(BITS_PER_BLOCK + 16).unwrap();
        bm.store(&dev, 3).unwrap();

        let loaded = Bitmap::load(&dev, 3, 2, BITS_PER_BLOCK + 17).unwrap();
        assert_eq!(loaded, bm);
        assert_eq!(loaded.count_set(), 3);
    }

    #[test]
    fn load_rejects_trailing_garbage() {
        let dev = MemDisk::new(2);
        let mut block = vec![0u8; BLOCK_SIZE];
        block[BLOCK_SIZE - 1] = 0x80; // last bit of the block set
        dev.write_block(0, &block).unwrap();
        // claim only 8 bits are meaningful -> bit 32767 is garbage
        let err = Bitmap::load(&dev, 0, 1, 8).unwrap_err();
        assert!(matches!(err, FsError::Corrupted { .. }));
    }

    #[test]
    fn load_rejects_undersized_region() {
        let dev = MemDisk::new(1);
        assert!(Bitmap::load(&dev, 0, 1, BITS_PER_BLOCK + 1).is_err());
    }

    #[test]
    fn block_images_are_block_sized() {
        let bm = Bitmap::new(BITS_PER_BLOCK * 2);
        assert_eq!(bm.nblocks(), 2);
        assert_eq!(bm.block_image(0).len(), BLOCK_SIZE);
        assert_eq!(Bitmap::block_containing(BITS_PER_BLOCK), 1);
        assert_eq!(Bitmap::block_containing(BITS_PER_BLOCK - 1), 0);
    }
}
