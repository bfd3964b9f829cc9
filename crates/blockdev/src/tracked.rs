//! The mount's device meter, write-set tracking for warm-standby
//! resynchronization, and the copy-before-write behind its frozen
//! snapshots, which skips the blocks a view's reader excluded.

use crate::device::{BlockDevice, Extent, IoPhase};
use crate::frozen::{capture, Epoch, FrozenView};
use parking_lot::RwLock;
use rae_telemetry::{DevOp, Telemetry};
use rae_vfs::FsResult;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// The one wrapper every RAE mount puts directly on its device: it
/// meters every request into the mount's [`Telemetry`], records which
/// blocks have been written since the last [`TrackedDisk::take_written`],
/// and hands out frozen views of the device
/// ([`TrackedDisk::snapshot`]).
///
/// All base traffic crosses it, so its telemetry counts are the
/// mount's device I/O, and a recovery reads its shadow phase's device
/// reads off the same meter. A frozen view's reads cross it too.
///
/// The warm standby executes against a frozen view of the device, so at
/// recovery time the runtime must reconcile the standby's merged view
/// with the live image. Blocks neither side touched since the snapshot
/// are the same on both and need no attention — this wrapper supplies
/// the "blocks the base touched" half of that union. The set is
/// drained at every snapshot point (standby spawn and re-spawn) and at
/// every warm hand-over, so its size is bounded by the write traffic
/// between those.
///
/// The set is one bit per device block (the block count is fixed), so
/// the base's write-back workers record a write with one `fetch_or`
/// and never meet on a lock.
///
/// While a view is live, a write first copies the old contents of each
/// block some live view still needs — neither holds nor excludes — from
/// the device into those views, one read request per run of such blocks
/// (see [`crate::FrozenView`]). A block every live view excludes, as the
/// warm standby's view does the journal and the data blocks free at its
/// epoch, is written with no copy.
/// With no view live — the standby off — a write pays one atomic load
/// for this. No lock is held across a device request.
pub struct TrackedDisk {
    inner: Arc<dyn BlockDevice>,
    /// Bit `bno % 64` of word `bno / 64`. Set with `Release` after the
    /// device write returned and drained with `Acquire`, so a drain
    /// that sees the bit is ordered after the write it stands for.
    written: Box<[AtomicU64]>,
    telemetry: Arc<Telemetry>,
    recovery_phase: AtomicBool,
    /// The epochs of the views handed out; dead ones are pruned at the
    /// next snapshot.
    views: RwLock<Vec<Weak<Epoch>>>,
    /// How many of `views` are alive: a write that loads 0 skips the
    /// copy-before-write entirely.
    live_views: Arc<AtomicUsize>,
}

impl std::fmt::Debug for TrackedDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedDisk")
            .field("written", &self.written_len())
            .finish()
    }
}

impl TrackedDisk {
    /// Wrap `inner` with an empty write set, metering into `telemetry`.
    #[must_use]
    pub fn new(inner: Arc<dyn BlockDevice>, telemetry: Arc<Telemetry>) -> TrackedDisk {
        let words = inner.block_count().div_ceil(64);
        TrackedDisk {
            inner,
            written: (0..words).map(|_| AtomicU64::new(0)).collect(),
            telemetry,
            recovery_phase: AtomicBool::new(false),
            views: RwLock::new(Vec::new()),
            live_views: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// A read-only view of the device frozen at this moment: every read
    /// through it answers the contents the device holds now, however
    /// it is written later. Blocks are copied lazily, when the view
    /// reads them or just before a write through this tracker first
    /// overwrites them, so the view costs the blocks that changed or
    /// were looked at, not the device.
    #[must_use]
    pub fn snapshot(self: &Arc<Self>) -> FrozenView {
        let epoch = Arc::new(Epoch::new(self.block_count(), Arc::clone(&self.live_views)));
        let mut views = self.views.write();
        views.retain(|v| v.strong_count() > 0);
        views.push(Arc::downgrade(&epoch));
        self.live_views.fetch_add(1, Ordering::SeqCst);
        drop(views);
        FrozenView::new(epoch, Arc::clone(self))
    }

    /// How many views handed out are still alive.
    #[cfg(test)]
    pub(crate) fn live_views(&self) -> usize {
        self.live_views.load(Ordering::SeqCst)
    }

    /// Copy-before-write for a write of `ranges` (`[start, end)` each):
    /// one load when no view is live.
    fn capture_before_write(&self, ranges: impl IntoIterator<Item = (u64, u64)>) {
        if self.live_views.load(Ordering::SeqCst) == 0 {
            return;
        }
        let epochs: Vec<Arc<Epoch>> = self.views.read().iter().filter_map(Weak::upgrade).collect();
        if !epochs.is_empty() {
            capture(self, &epochs, ranges);
        }
    }

    /// Run one submission of `requests` commands moving `blocks` blocks
    /// and report it to telemetry.
    fn timed<T>(
        &self,
        op: DevOp,
        requests: usize,
        blocks: usize,
        f: impl FnOnce() -> FsResult<T>,
    ) -> FsResult<T> {
        let t0 = self.telemetry.clock();
        let result = f();
        self.telemetry.dev_observed(
            op,
            self.recovery_phase.load(Ordering::Relaxed),
            requests as u64,
            blocks as u64,
            t0,
        );
        result
    }

    /// Add blocks `[start, end)` to the write set (clipped to the
    /// device, which the bitmap was sized from).
    fn mark_written(&self, start: u64, end: u64) {
        for bno in start..end.min(self.inner.block_count()) {
            self.written[(bno / 64) as usize].fetch_or(1 << (bno % 64), Ordering::Release);
        }
    }

    /// Drain and return the blocks written since the previous call (or
    /// since construction), in ascending order. A write racing the
    /// drain lands in this result or stays for the next one.
    #[must_use]
    pub fn take_written(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (w, word) in self.written.iter().enumerate() {
            if word.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut bits = word.swap(0, Ordering::Acquire);
            while bits != 0 {
                out.push(w as u64 * 64 + u64::from(bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        out
    }

    /// How many distinct blocks are currently in the write set.
    #[must_use]
    pub fn written_len(&self) -> usize {
        self.written
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }
}

impl BlockDevice for TrackedDisk {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        self.timed(DevOp::Read, 1, 1, || self.inner.read_block(bno, buf))
    }

    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
        self.capture_before_write([(bno, bno + 1)]);
        self.timed(DevOp::Write, 1, 1, || {
            self.inner.write_block(bno, buf)?;
            self.mark_written(bno, bno + 1);
            Ok(())
        })
    }

    fn read_blocks(&self, start: u64, bufs: &mut [&mut [u8]]) -> FsResult<()> {
        self.timed(DevOp::Read, 1, bufs.len(), || {
            self.inner.read_blocks(start, bufs)
        })
    }

    /// A failed batch may still have landed a prefix, so every extent
    /// joins the write set either way: a superset only costs the resync
    /// a look at a block, a missed block would be a stale one.
    fn write_blocks(&self, extents: &[Extent<'_>]) -> FsResult<()> {
        self.capture_before_write(extents.iter().map(|e| (e.start, e.start + e.len() as u64)));
        let blocks = extents.iter().map(Extent::len).sum();
        self.timed(DevOp::Write, extents.len(), blocks, || {
            let result = self.inner.write_blocks(extents);
            for e in extents {
                self.mark_written(e.start, e.start + e.len() as u64);
            }
            result
        })
    }

    fn flush(&self) -> FsResult<()> {
        self.timed(DevOp::Flush, 1, 0, || self.inner.flush())
    }

    fn set_phase(&self, phase: IoPhase) {
        self.recovery_phase
            .store(phase == IoPhase::Recovery, Ordering::Relaxed);
        self.inner.set_phase(phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BLOCK_SIZE;
    use crate::mem::MemDisk;

    fn tracked(inner: impl BlockDevice + 'static) -> TrackedDisk {
        TrackedDisk::new(Arc::new(inner), Telemetry::new())
    }

    #[test]
    fn records_writes_and_drains() {
        let disk = tracked(MemDisk::new(8));
        let blk = vec![3u8; BLOCK_SIZE];
        disk.write_block(2, &blk).unwrap();
        disk.write_block(5, &blk).unwrap();
        disk.write_block(2, &blk).unwrap();
        assert_eq!(disk.written_len(), 2);

        assert_eq!(disk.take_written(), [2, 5], "each block once, ascending");
        assert_eq!(disk.written_len(), 0, "drained");

        // reads are not tracked; the content still round-trips
        let mut back = vec![0u8; BLOCK_SIZE];
        disk.read_block(5, &mut back).unwrap();
        assert_eq!(back[0], 3);
        assert_eq!(disk.written_len(), 0);
        assert_eq!(disk.telemetry.dev_requests(DevOp::Read), 1);
    }

    #[test]
    fn drains_in_order_across_word_boundaries() {
        let disk = tracked(MemDisk::new(200));
        let blk = vec![1u8; BLOCK_SIZE];
        for bno in [199, 64, 0, 63, 128, 65] {
            disk.write_block(bno, &blk).unwrap();
        }
        assert_eq!(disk.written_len(), 6);
        assert_eq!(disk.take_written(), [0, 63, 64, 65, 128, 199]);
        assert!(disk.take_written().is_empty());
    }

    #[test]
    fn extent_writes_track_every_block() {
        let disk = tracked(MemDisk::new(200));
        let blk = vec![1u8; BLOCK_SIZE];
        let bufs = [&blk[..]; 4];
        let batch = [62, 130].map(|start| Extent { start, bufs: &bufs });
        disk.write_blocks(&batch).unwrap();
        assert_eq!(disk.take_written(), [62, 63, 64, 65, 130, 131, 132, 133]);
        let mut back = vec![0u8; BLOCK_SIZE];
        disk.read_blocks(62, &mut [&mut back[..]]).unwrap();
        let t = &disk.telemetry;
        assert_eq!(
            (t.dev_requests(DevOp::Write), t.dev_blocks(DevOp::Write)),
            (2, 8)
        );
        assert_eq!(
            (t.dev_requests(DevOp::Read), t.dev_blocks(DevOp::Read)),
            (1, 1)
        );
    }

    #[test]
    fn a_failed_extent_tracks_the_whole_extent() {
        use crate::faulty::{DiskFaultPlan, FaultTarget, FaultyDisk, TriggerMode};
        let plan = DiskFaultPlan::new().fail_writes(FaultTarget::Block(5), TriggerMode::Always);
        let disk = tracked(FaultyDisk::with_plan(MemDisk::new(16), plan));
        let blk = vec![1u8; BLOCK_SIZE];
        let bufs = [&blk[..]; 4];
        let batch = [3, 10].map(|start| Extent { start, bufs: &bufs });
        assert!(disk.write_blocks(&batch).is_err());
        // blocks 3 and 4 landed, 5 failed, 6 and the second extent were
        // never attempted: a superset is what the resync needs, a missed
        // block is not
        assert_eq!(disk.take_written(), [3, 4, 5, 6, 10, 11, 12, 13]);
    }

    #[test]
    fn failed_writes_stay_out_of_the_set() {
        let disk = tracked(MemDisk::new(2));
        let blk = vec![0u8; BLOCK_SIZE];
        assert!(disk.write_block(9, &blk).is_err());
        assert_eq!(disk.written_len(), 0);
    }
}
