//! Transparent I/O accounting.

use crate::device::{BlockDevice, Extent, IoPhase};
use rae_vfs::FsResult;
use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of device I/O counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskCounters {
    /// Blocks read by completed requests.
    pub reads: u64,
    /// Blocks written by completed requests.
    pub writes: u64,
    /// Completed flush barriers.
    pub flushes: u64,
    /// Failed requests (reads + writes + flushes).
    pub errors: u64,
    /// Completed read requests (one-block or extent).
    pub read_requests: u64,
    /// Completed write requests: one per extent of a completed batch.
    pub write_requests: u64,
}

impl DiskCounters {
    /// Total blocks moved by completed requests (reads + writes).
    #[must_use]
    pub fn io_ops(&self) -> u64 {
        self.reads + self.writes
    }
}

/// A wrapper counting the I/O that reaches the underlying device.
///
/// Experiments use it to show, e.g., how many device reads the shadow's
/// cache-free design performs versus the base's cached path.
#[derive(Debug)]
pub struct StatsDisk<D> {
    inner: D,
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    errors: AtomicU64,
    read_requests: AtomicU64,
    write_requests: AtomicU64,
}

impl<D: BlockDevice> StatsDisk<D> {
    /// Wrap `inner` with zeroed counters.
    #[must_use]
    pub fn new(inner: D) -> StatsDisk<D> {
        StatsDisk {
            inner,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            read_requests: AtomicU64::new(0),
            write_requests: AtomicU64::new(0),
        }
    }

    /// Current counter values.
    #[must_use]
    pub fn counters(&self) -> DiskCounters {
        DiskCounters {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            read_requests: self.read_requests.load(Ordering::Relaxed),
            write_requests: self.write_requests.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        for c in [
            &self.reads,
            &self.writes,
            &self.flushes,
            &self.errors,
            &self.read_requests,
            &self.write_requests,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Count `requests` requests moving `blocks` blocks into
    /// `requests_ctr` and `blocks_ctr`, or one error.
    fn count(
        &self,
        result: FsResult<()>,
        requests: usize,
        blocks: usize,
        blocks_ctr: &AtomicU64,
        requests_ctr: &AtomicU64,
    ) -> FsResult<()> {
        match result {
            Ok(()) => {
                blocks_ctr.fetch_add(blocks as u64, Ordering::Relaxed);
                requests_ctr.fetch_add(requests as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Access the wrapped device.
    #[must_use]
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: BlockDevice> BlockDevice for StatsDisk<D> {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        let r = self.inner.read_block(bno, buf);
        self.count(r, 1, 1, &self.reads, &self.read_requests)
    }

    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
        let r = self.inner.write_block(bno, buf);
        self.count(r, 1, 1, &self.writes, &self.write_requests)
    }

    fn read_blocks(&self, start: u64, bufs: &mut [&mut [u8]]) -> FsResult<()> {
        let r = self.inner.read_blocks(start, bufs);
        self.count(r, 1, bufs.len(), &self.reads, &self.read_requests)
    }

    fn write_blocks(&self, extents: &[Extent<'_>]) -> FsResult<()> {
        let r = self.inner.write_blocks(extents);
        let blocks = extents.iter().map(Extent::len).sum();
        self.count(r, extents.len(), blocks, &self.writes, &self.write_requests)
    }

    fn flush(&self) -> FsResult<()> {
        match self.inner.flush() {
            Ok(()) => {
                self.flushes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn set_phase(&self, phase: IoPhase) {
        self.inner.set_phase(phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BLOCK_SIZE;
    use crate::faulty::{DiskFaultPlan, FaultTarget, FaultyDisk, TriggerMode};
    use crate::mem::MemDisk;

    #[test]
    fn counts_reads_writes_flushes() {
        let d = StatsDisk::new(MemDisk::new(4));
        let mut b = vec![0u8; BLOCK_SIZE];
        d.write_block(0, &b).unwrap();
        d.write_block(1, &b).unwrap();
        d.read_block(0, &mut b).unwrap();
        d.flush().unwrap();

        let c = d.counters();
        assert_eq!(c.reads, 1);
        assert_eq!(c.writes, 2);
        assert_eq!(c.flushes, 1);
        assert_eq!(c.errors, 0);
        assert_eq!(c.io_ops(), 3);
    }

    #[test]
    fn extent_requests_count_once_and_blocks_each() {
        let d = StatsDisk::new(MemDisk::new(16));
        let b = vec![0u8; BLOCK_SIZE];
        let three = [&b[..]; 3];
        d.write_blocks(&[Extent {
            start: 0,
            bufs: &three,
        }])
        .unwrap();
        d.write_block(5, &b).unwrap();
        // a batch is one request per extent
        let batch = [8, 12].map(|start| Extent {
            start,
            bufs: &three[..2],
        });
        d.write_blocks(&batch).unwrap();
        let (mut x, mut y) = (b.clone(), b.clone());
        d.read_blocks(1, &mut [&mut x[..], &mut y[..]]).unwrap();
        assert!(
            d.write_blocks(&[Extent {
                start: 15,
                bufs: &three[..2]
            }])
            .is_err(),
            "runs off the device"
        );

        let c = d.counters();
        assert_eq!((c.writes, c.write_requests), (3 + 1 + 4, 1 + 1 + 2));
        assert_eq!((c.reads, c.read_requests), (2, 1));
        assert_eq!(c.errors, 1);
    }

    #[test]
    fn counts_errors_separately() {
        let plan = DiskFaultPlan::new().fail_reads(FaultTarget::Any, TriggerMode::Always);
        let d = StatsDisk::new(FaultyDisk::with_plan(MemDisk::new(2), plan));
        let mut b = vec![0u8; BLOCK_SIZE];
        assert!(d.read_block(0, &mut b).is_err());
        let c = d.counters();
        assert_eq!(c.reads, 0);
        assert_eq!(c.errors, 1);
    }

    #[test]
    fn reset_zeroes() {
        let d = StatsDisk::new(MemDisk::new(1));
        let b = vec![0u8; BLOCK_SIZE];
        d.write_block(0, &b).unwrap();
        d.reset();
        assert_eq!(d.counters(), DiskCounters::default());
    }
}
