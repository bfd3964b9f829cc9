//! In-memory block device.

use crate::device::{
    check_batch, check_buf, check_extent, check_range, BlockDevice, Extent, BLOCK_SIZE,
};
use parking_lot::RwLock;
use rae_vfs::FsResult;

/// An in-memory disk with per-block locking.
///
/// The primary device for tests and benchmarks. Supports whole-image
/// [`MemDisk::snapshot`] / [`MemDisk::from_image`], which crash-recovery
/// tests use to capture "the state on disk at the moment of the crash".
pub struct MemDisk {
    blocks: Vec<RwLock<Box<[u8]>>>,
}

impl std::fmt::Debug for MemDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemDisk")
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl MemDisk {
    /// Create a zero-filled disk with `block_count` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_count` is zero.
    #[must_use]
    pub fn new(block_count: u64) -> MemDisk {
        assert!(block_count > 0, "a disk needs at least one block");
        let blocks = (0..block_count)
            .map(|_| RwLock::new(vec![0u8; BLOCK_SIZE].into_boxed_slice()))
            .collect();
        MemDisk { blocks }
    }

    /// Build a disk from a raw image.
    ///
    /// # Panics
    ///
    /// Panics if the image length is not a positive multiple of
    /// [`BLOCK_SIZE`].
    #[must_use]
    pub fn from_image(image: &[u8]) -> MemDisk {
        assert!(
            !image.is_empty() && image.len().is_multiple_of(BLOCK_SIZE),
            "image length {} is not a positive multiple of {BLOCK_SIZE}",
            image.len()
        );
        let blocks = image
            .chunks_exact(BLOCK_SIZE)
            .map(|c| RwLock::new(c.to_vec().into_boxed_slice()))
            .collect();
        MemDisk { blocks }
    }

    /// Copy every block of `dev` into a new in-memory disk: an eager
    /// snapshot, O(device) in time and memory. The warm standby does not
    /// use it — its [`crate::FrozenView`] copies a block only when read
    /// or about to be overwritten — but tests use it as that view's
    /// oracle.
    ///
    /// # Errors
    ///
    /// Device read errors.
    pub fn clone_of(dev: &dyn BlockDevice) -> FsResult<MemDisk> {
        let count = dev.block_count();
        let mut blocks = Vec::with_capacity(usize::try_from(count).unwrap_or(0));
        let mut buf = vec![0u8; BLOCK_SIZE];
        for bno in 0..count {
            dev.read_block(bno, &mut buf)?;
            blocks.push(RwLock::new(buf.clone().into_boxed_slice()));
        }
        Ok(MemDisk { blocks })
    }

    /// Copy the entire disk contents into one contiguous image.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.blocks.len() * BLOCK_SIZE);
        for b in &self.blocks {
            out.extend_from_slice(&b.read()[..]);
        }
        out
    }

    /// Overwrite one block without the trait's error path (test helper
    /// for building corrupt images).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `bno` or misshapen `data`.
    pub fn poke(&self, bno: u64, data: &[u8]) {
        assert_eq!(data.len(), BLOCK_SIZE);
        self.blocks[usize::try_from(bno).expect("bno fits usize")]
            .write()
            .copy_from_slice(data);
    }
}

impl BlockDevice for MemDisk {
    fn block_count(&self) -> u64 {
        self.blocks.len() as u64
    }

    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        check_buf(buf.len())?;
        check_range(bno, self.block_count())?;
        let guard = self.blocks[bno as usize].read();
        buf.copy_from_slice(&guard[..]);
        Ok(())
    }

    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
        check_buf(buf.len())?;
        check_range(bno, self.block_count())?;
        let mut guard = self.blocks[bno as usize].write();
        guard.copy_from_slice(buf);
        Ok(())
    }

    fn read_blocks(&self, start: u64, bufs: &mut [&mut [u8]]) -> FsResult<()> {
        check_extent(start, bufs.iter().map(|b| b.len()), self.block_count())?;
        for (block, buf) in self.blocks[start as usize..].iter().zip(bufs.iter_mut()) {
            buf.copy_from_slice(&block.read()[..]);
        }
        Ok(())
    }

    fn write_blocks(&self, extents: &[Extent<'_>]) -> FsResult<()> {
        check_batch(extents, self.block_count())?;
        for e in extents.iter().filter(|e| !e.is_empty()) {
            for (block, buf) in self.blocks[e.start as usize..].iter().zip(e.bufs) {
                block.write().copy_from_slice(buf);
            }
        }
        Ok(())
    }

    fn flush(&self) -> FsResult<()> {
        Ok(()) // memory is always "durable" for our purposes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_vfs::FsError;

    #[test]
    fn read_back_what_was_written() {
        let d = MemDisk::new(4);
        let mut b = vec![7u8; BLOCK_SIZE];
        b[100] = 42;
        d.write_block(2, &b).unwrap();
        let mut r = vec![0u8; BLOCK_SIZE];
        d.read_block(2, &mut r).unwrap();
        assert_eq!(r, b);
    }

    #[test]
    fn extent_roundtrip_and_range_checks() {
        let d = MemDisk::new(4);
        let (a, b) = (vec![1u8; BLOCK_SIZE], vec![2u8; BLOCK_SIZE]);
        d.write_blocks(&[Extent {
            start: 2,
            bufs: &[&a[..], &b[..]],
        }])
        .unwrap();
        let (mut x, mut y) = (vec![0u8; BLOCK_SIZE], vec![0u8; BLOCK_SIZE]);
        d.read_blocks(2, &mut [&mut x[..], &mut y[..]]).unwrap();
        assert_eq!((x, y), (a.clone(), b.clone()));
        // a batch with an extent that runs off the device, or holds a
        // misshapen buffer, is refused whole
        let good = Extent {
            start: 0,
            bufs: &[&a[..]],
        };
        let off = Extent {
            start: 3,
            bufs: &[&b[..], &b[..]],
        };
        let short = Extent {
            start: 1,
            bufs: &[&b[..7]],
        };
        assert!(matches!(
            d.write_blocks(&[good, off]),
            Err(FsError::IoFailed { .. })
        ));
        assert!(matches!(
            d.write_blocks(&[good, short]),
            Err(FsError::Internal { .. })
        ));
        let mut r = vec![0u8; BLOCK_SIZE];
        d.read_block(0, &mut r).unwrap();
        assert_eq!(r[0], 0);
    }

    #[test]
    fn fresh_disk_reads_zeroes() {
        let d = MemDisk::new(2);
        let mut r = vec![1u8; BLOCK_SIZE];
        d.read_block(0, &mut r).unwrap();
        assert!(r.iter().all(|&x| x == 0));
    }

    #[test]
    fn out_of_range_is_io_error() {
        let d = MemDisk::new(2);
        let mut r = vec![0u8; BLOCK_SIZE];
        assert!(matches!(
            d.read_block(2, &mut r),
            Err(FsError::IoFailed { .. })
        ));
        assert!(matches!(
            d.write_block(99, &r),
            Err(FsError::IoFailed { .. })
        ));
    }

    #[test]
    fn bad_buffer_is_internal_error() {
        let d = MemDisk::new(1);
        let mut small = vec![0u8; 100];
        assert!(matches!(
            d.read_block(0, &mut small),
            Err(FsError::Internal { .. })
        ));
    }

    #[test]
    fn snapshot_roundtrip() {
        let d = MemDisk::new(3);
        let mut b = vec![0u8; BLOCK_SIZE];
        b[0] = 0xEE;
        d.write_block(1, &b).unwrap();

        let image = d.snapshot();
        assert_eq!(image.len(), 3 * BLOCK_SIZE);
        let d2 = MemDisk::from_image(&image);
        let mut r = vec![0u8; BLOCK_SIZE];
        d2.read_block(1, &mut r).unwrap();
        assert_eq!(r[0], 0xEE);
        assert_eq!(d2.block_count(), 3);
    }

    #[test]
    fn clone_of_is_a_frozen_copy() {
        let d = MemDisk::new(3);
        let mut b = vec![0u8; BLOCK_SIZE];
        b[7] = 0xAB;
        d.write_block(2, &b).unwrap();

        let snap = MemDisk::clone_of(&d).unwrap();
        assert_eq!(snap.block_count(), 3);
        let mut r = vec![0u8; BLOCK_SIZE];
        snap.read_block(2, &mut r).unwrap();
        assert_eq!(r[7], 0xAB);

        // later writes to the original do not reach the snapshot
        b[7] = 0xCD;
        d.write_block(2, &b).unwrap();
        snap.read_block(2, &mut r).unwrap();
        assert_eq!(r[7], 0xAB);
    }

    #[test]
    fn concurrent_writers_to_distinct_blocks() {
        use std::sync::Arc;
        let d = Arc::new(MemDisk::new(8));
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                let b = vec![i as u8; BLOCK_SIZE];
                for _ in 0..100 {
                    d.write_block(i, &b).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..8u64 {
            let mut r = vec![0u8; BLOCK_SIZE];
            d.read_block(i, &mut r).unwrap();
            assert!(r.iter().all(|&x| x == i as u8));
        }
    }
}
