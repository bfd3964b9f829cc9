//! A recording device: every read, write (with its image) and flush, in
//! order — the tape [`crate::crash`] explores.

use crate::device::{BlockDevice, Extent};
use crate::mem::MemDisk;
use parking_lot::Mutex;
use rae_vfs::FsResult;
use std::sync::Arc;

/// One request a [`TapeDisk`] served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TapeEntry {
    /// A block was read.
    Read(u64),
    /// A block was written with this image.
    Write(u64, Arc<[u8]>),
    /// A flush barrier: every write recorded before it is durable once
    /// it returns.
    Flush,
}

/// An in-memory disk that records every request on a tape, in the
/// order the requests took effect.
///
/// A write is recorded once it has landed, under the same lock as the
/// write itself, so the tape's order between two writes of one block is
/// the device's. A flush is recorded as it starts: a write that lands
/// while the flush runs is not promised by it, and goes after the mark.
#[derive(Debug)]
pub struct TapeDisk {
    inner: MemDisk,
    tape: Mutex<Vec<TapeEntry>>,
}

impl TapeDisk {
    /// A zero-filled disk of `blocks` blocks with an empty tape.
    #[must_use]
    pub fn new(blocks: u64) -> TapeDisk {
        TapeDisk::over(MemDisk::new(blocks))
    }

    /// A disk holding `image` (see [`MemDisk::from_image`]) with an
    /// empty tape.
    #[must_use]
    pub fn from_image(image: &[u8]) -> TapeDisk {
        TapeDisk::over(MemDisk::from_image(image))
    }

    fn over(inner: MemDisk) -> TapeDisk {
        TapeDisk {
            inner,
            tape: Mutex::new(Vec::new()),
        }
    }

    /// The position the next request will be recorded at.
    #[must_use]
    pub fn mark(&self) -> usize {
        self.tape.lock().len()
    }

    /// The requests recorded from `mark` on.
    #[must_use]
    pub fn since(&self, mark: usize) -> Vec<TapeEntry> {
        self.tape.lock()[mark..].to_vec()
    }

    /// The blocks read from `mark` on, in order.
    #[must_use]
    pub fn reads_since(&self, mark: usize) -> Vec<u64> {
        self.tape.lock()[mark..]
            .iter()
            .filter_map(|e| match e {
                TapeEntry::Read(bno) => Some(*bno),
                _ => None,
            })
            .collect()
    }

    /// The blocks written from `mark` on, in order.
    #[must_use]
    pub fn writes_since(&self, mark: usize) -> Vec<u64> {
        self.tape.lock()[mark..]
            .iter()
            .filter_map(|e| match e {
                TapeEntry::Write(bno, _) => Some(*bno),
                _ => None,
            })
            .collect()
    }

    /// The device's current contents (see [`MemDisk::snapshot`]).
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        self.inner.snapshot()
    }
}

impl BlockDevice for TapeDisk {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        self.tape.lock().push(TapeEntry::Read(bno));
        self.inner.read_block(bno, buf)
    }

    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
        self.write_blocks(&[Extent {
            start: bno,
            bufs: &[buf],
        }])
    }

    fn write_blocks(&self, extents: &[Extent<'_>]) -> FsResult<()> {
        let mut tape = self.tape.lock();
        // the inner batch is validated whole: it lands entirely or not
        // at all
        self.inner.write_blocks(extents)?;
        for e in extents {
            for (bno, buf) in (e.start..).zip(e.bufs) {
                tape.push(TapeEntry::Write(bno, Arc::from(*buf)));
            }
        }
        Ok(())
    }

    fn flush(&self) -> FsResult<()> {
        self.tape.lock().push(TapeEntry::Flush);
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BLOCK_SIZE;

    #[test]
    fn crash_epoch_tape_records_requests_in_order() {
        let d = TapeDisk::new(8);
        let (a, b) = (vec![1u8; BLOCK_SIZE], vec![2u8; BLOCK_SIZE]);
        d.write_block(3, &a).unwrap();
        let mark = d.mark();
        d.flush().unwrap();
        d.write_blocks(&[Extent {
            start: 5,
            bufs: &[&a[..], &b[..]],
        }])
        .unwrap();
        let mut r = vec![0u8; BLOCK_SIZE];
        d.read_blocks(5, &mut [&mut r[..]]).unwrap();
        assert_eq!(r, a);
        // a refused batch lands nothing and records nothing
        assert!(d
            .write_blocks(&[Extent {
                start: 7,
                bufs: &[&a[..], &b[..]],
            }])
            .is_err());

        assert_eq!(
            d.since(mark),
            [
                TapeEntry::Flush,
                TapeEntry::Write(5, Arc::from(&a[..])),
                TapeEntry::Write(6, Arc::from(&b[..])),
                TapeEntry::Read(5),
            ]
        );
        assert_eq!(d.writes_since(0), [3, 5, 6]);
        assert_eq!(d.reads_since(0), [5]);
        assert_eq!(&d.snapshot()[6 * BLOCK_SIZE..7 * BLOCK_SIZE], &b[..]);
    }
}
