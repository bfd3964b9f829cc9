//! Allocation bitmaps (inode and data), with block-granular images for
//! journaling.

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
        for i in nbits..nblocks * BITS_PER_BLOCK {
            if bm.test_raw(i) {
                return Err(FsError::Corrupted {
                    detail: format!("bitmap has bit {i} set beyond its {nbits}-bit extent"),
                });
            }
        }
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
        let mut i = start;
        loop {
            if !self.test_raw(i) {
                return Some(i);
            }
            i = (i + 1) % self.nbits;
            if i == start {
                return None;
            }
        }
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_set(&self) -> u64 {
        // trailing bits beyond nbits are guaranteed clear
        self.bits.iter().map(|b| u64::from(b.count_ones())).sum()
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
        for i in self.nbits..self.nblocks() * BITS_PER_BLOCK {
            if self.test_raw(i) {
                return Err(FsError::Corrupted {
                    detail: format!(
                        "bitmap has bit {i} set beyond its {}-bit extent",
                        self.nbits
                    ),
                });
            }
        }
        Ok(())
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
    use rae_blockdev::MemDisk;

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
