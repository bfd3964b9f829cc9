//! The [`BlockDevice`] trait.

use rae_vfs::{FsError, FsResult};

/// Block size used throughout the stack, in bytes.
///
/// Fixed at 4 KiB: the shared on-disk format, both filesystems, and all
/// experiments assume this granularity (matching the common Linux page
/// and filesystem block size).
pub const BLOCK_SIZE: usize = 4096;

/// Allocate a zero-filled block buffer.
#[must_use]
pub fn zeroed_block() -> Vec<u8> {
    vec![0u8; BLOCK_SIZE]
}

/// Coarse execution phase of the mount driving a device.
///
/// Real devices ignore phases entirely; fault-injecting wrappers use
/// them to scope plans to a phase ("fire only while recovery is
/// running"), which is how the nested-fault campaign injects errors
/// *into* the recovery path without perturbing the workload that led
/// up to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoPhase {
    /// Normal foreground operation.
    #[default]
    Normal,
    /// A recovery (contained reboot, replay, or absorb) is running.
    Recovery,
}

/// One extent of a batched write: `bufs[i]` goes to block `start + i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent<'a> {
    /// First block of the extent.
    pub start: u64,
    /// One [`BLOCK_SIZE`] buffer per block.
    pub bufs: &'a [&'a [u8]],
}

impl<'a> Extent<'a> {
    /// Split `bufs`, the images of the ascending, distinct blocks
    /// `bnos`, into maximal runs of consecutive blocks: the batch that
    /// writes them with one command per run.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    #[must_use]
    pub fn runs(bnos: &[u64], bufs: &'a [&'a [u8]]) -> Vec<Extent<'a>> {
        assert_eq!(bnos.len(), bufs.len(), "one image per block");
        let mut out = Vec::new();
        let mut first = 0;
        for i in 1..=bnos.len() {
            if i == bnos.len() || bnos[i] != bnos[i - 1] + 1 {
                out.push(Extent {
                    start: bnos[first],
                    bufs: &bufs[first..i],
                });
                first = i;
            }
        }
        out
    }

    /// Blocks in the extent.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// Whether the extent holds no block.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }
}

/// A synchronous block device with internal synchronization.
///
/// All methods take `&self`; implementations are safe for concurrent use
/// (per-block locking in [`crate::MemDisk`], positional I/O in
/// [`crate::FileDisk`]). Buffers must be exactly [`BLOCK_SIZE`] bytes;
/// passing any other length is an [`FsError::Internal`] programming
/// error, reported rather than panicking so that fault-injection paths
/// cannot be crashed by corrupt length fields.
///
/// A read covers one block ([`BlockDevice::read_block`]) or an *extent*
/// of consecutive blocks ([`BlockDevice::read_blocks`]): one command to
/// the device, the way a vectored NVMe command moves a run of blocks for
/// one per-command cost. A write is a *batch* of extents
/// ([`BlockDevice::write_blocks`]) submitted together, one command per
/// extent, the way a queue of independent commands is submitted before
/// any is awaited; [`BlockDevice::write_block`] is a batch of one
/// one-block extent. The multi-block calls default to a loop over the
/// one-block calls, so a wrapper that does not override them still
/// behaves correctly, one block at a time.
pub trait BlockDevice: Send + Sync {
    /// Number of blocks on the device.
    fn block_count(&self) -> u64;

    /// Read block `bno` into `buf`.
    ///
    /// # Errors
    ///
    /// [`FsError::IoFailed`] for out-of-range blocks, device errors, or
    /// injected faults; [`FsError::Internal`] for misshapen buffers.
    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()>;

    /// Write `buf` to block `bno`.
    ///
    /// Completion does **not** imply durability; call
    /// [`BlockDevice::flush`] for a persistence barrier.
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::read_block`].
    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()>;

    /// Read the extent of `bufs.len()` consecutive blocks starting at
    /// `start` as one request, block `start + i` into `bufs[i]`.
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::read_block`], for any block of the extent. On
    /// error the contents of every buffer are unspecified.
    fn read_blocks(&self, start: u64, bufs: &mut [&mut [u8]]) -> FsResult<()> {
        for (bno, buf) in (start..).zip(bufs.iter_mut()) {
            self.read_block(bno, buf)?;
        }
        Ok(())
    }

    /// Write a batch of extents, submitted together: each extent's
    /// `bufs[i]` goes to block `start + i`.
    ///
    /// Like [`BlockDevice::write_block`], completion does not imply
    /// durability, and the blocks of one batch are not ordered against
    /// each other: only a flush orders writes.
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::write_block`], for any block of the batch. On
    /// error any subset of the batch may have been written.
    fn write_blocks(&self, extents: &[Extent<'_>]) -> FsResult<()> {
        for e in extents {
            for (bno, buf) in (e.start..).zip(e.bufs) {
                self.write_block(bno, buf)?;
            }
        }
        Ok(())
    }

    /// Persistence barrier: all previously completed writes are durable
    /// when this returns.
    ///
    /// # Errors
    ///
    /// [`FsError::IoFailed`] if the device cannot guarantee durability.
    fn flush(&self) -> FsResult<()>;

    /// Announce the mount's execution phase.
    ///
    /// A no-op for real devices. Wrappers must forward it to the
    /// wrapped device so the announcement reaches any fault-injecting
    /// layer below (see [`IoPhase`]).
    fn set_phase(&self, phase: IoPhase) {
        let _ = phase;
    }
}

/// Validate a buffer length, shared by implementations.
pub(crate) fn check_buf(len: usize) -> FsResult<()> {
    if len == BLOCK_SIZE {
        Ok(())
    } else {
        Err(FsError::Internal {
            detail: format!("block buffer has {len} bytes, expected {BLOCK_SIZE}"),
        })
    }
}

/// Validate a block number against the device size, shared by
/// implementations.
pub(crate) fn check_range(bno: u64, count: u64) -> FsResult<()> {
    if bno < count {
        Ok(())
    } else {
        Err(FsError::IoFailed {
            detail: format!("block {bno} out of range (device has {count} blocks)"),
        })
    }
}

impl<D: BlockDevice + ?Sized> BlockDevice for std::sync::Arc<D> {
    fn block_count(&self) -> u64 {
        (**self).block_count()
    }
    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        (**self).read_block(bno, buf)
    }
    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
        (**self).write_block(bno, buf)
    }
    fn read_blocks(&self, start: u64, bufs: &mut [&mut [u8]]) -> FsResult<()> {
        (**self).read_blocks(start, bufs)
    }
    fn write_blocks(&self, extents: &[Extent<'_>]) -> FsResult<()> {
        (**self).write_blocks(extents)
    }
    fn flush(&self) -> FsResult<()> {
        (**self).flush()
    }
    fn set_phase(&self, phase: IoPhase) {
        (**self).set_phase(phase);
    }
}

/// Validate a non-empty extent's buffer lengths and block range up
/// front, shared by implementations that move the whole extent at once.
pub(crate) fn check_extent(
    start: u64,
    lens: impl ExactSizeIterator<Item = usize>,
    count: u64,
) -> FsResult<()> {
    let last = start.saturating_add(lens.len().saturating_sub(1) as u64);
    for len in lens {
        check_buf(len)?;
    }
    check_range(start, count)?;
    check_range(last, count)
}

/// Validate every non-empty extent of a batch up front, so a bad one
/// refuses the whole batch before any block moves.
pub(crate) fn check_batch(extents: &[Extent<'_>], count: u64) -> FsResult<()> {
    extents
        .iter()
        .filter(|e| !e.is_empty())
        .try_for_each(|e| check_extent(e.start, e.bufs.iter().map(|b| b.len()), count))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_validation() {
        assert!(check_buf(BLOCK_SIZE).is_ok());
        assert!(matches!(check_buf(1), Err(FsError::Internal { .. })));
        assert!(matches!(
            check_buf(BLOCK_SIZE + 1),
            Err(FsError::Internal { .. })
        ));
    }

    #[test]
    fn range_validation() {
        assert!(check_range(0, 10).is_ok());
        assert!(check_range(9, 10).is_ok());
        assert!(matches!(check_range(10, 10), Err(FsError::IoFailed { .. })));
    }

    #[test]
    fn extent_runs_split_at_gaps() {
        let (a, b) = (vec![1u8; BLOCK_SIZE], vec![2u8; BLOCK_SIZE]);
        let bufs: Vec<&[u8]> = vec![&a, &b, &a, &b, &a];
        let runs = Extent::runs(&[3, 4, 9, 11, 12], &bufs);
        let shape: Vec<(u64, usize)> = runs.iter().map(|e| (e.start, e.len())).collect();
        assert_eq!(shape, [(3, 2), (9, 1), (11, 2)]);
        assert_eq!(runs[2].bufs, &bufs[3..]);
        assert!(Extent::runs(&[], &[]).is_empty());
    }

    #[test]
    fn zeroed_block_has_block_size() {
        let b = zeroed_block();
        assert_eq!(b.len(), BLOCK_SIZE);
        assert!(b.iter().all(|&x| x == 0));
    }
}
