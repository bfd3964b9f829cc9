//! A frozen, copy-before-write view of a metered device.
//!
//! [`crate::TrackedDisk::snapshot`] returns a [`FrozenView`]: every read
//! through it answers the device's contents as they were when the
//! snapshot was taken (its *epoch*), however the device has been written
//! since. Nothing is copied up front. Each block is copied once, on the
//! first of two events:
//!
//! * the view reads it: the block is read from the live device, which
//!   still holds the epoch's contents, since the base has not yet
//!   written it;
//! * the base is about to write it for the first time since the epoch:
//!   the tracker reads the old contents from the device before the
//!   write goes out (a *copy-before-write*).
//!
//! Old contents always come from the device, never from a cache above
//! it. A view therefore holds what the base overwrote plus what the
//! view's reader looked at, not the device. Each block crosses the
//! device once for the view, so a reader that reads a block twice gets
//! the second from memory: the warm standby's shadow, and the cold
//! recovery rung's checker, load and replay, which share one view.
//!
//! # Exclusions
//!
//! The view's reader may declare blocks it will never read
//! ([`FrozenView::exclude`]): the warm standby's shadow never reads the
//! journal, nor a data block that was free at the epoch, since it
//! zero-fills a block in its overlay when it allocates it. An excluded
//! block is never copied: a base write skips it and a read of it through
//! the view is an error, never the live device's contents (the block
//! was not copied before the base wrote it, so the device may no longer
//! hold its epoch contents). That error is the reader breaking its
//! word, not a lost block: [`FrozenView::intact`] stays true. A block
//! held before the exclusion was installed stays held and still reads
//! as at the epoch.
//!
//! # Why a copy is always the epoch's
//!
//! Each block has a write-once slot, and the first copy to fill it wins.
//! A base write fills the slot (or finds it filled) *before* it reaches
//! the device. So while a slot is empty no post-epoch write of its block
//! has landed, and a copy that fills it was read before any did. A
//! reader that loses the race copies out the winner, which is the epoch's
//! contents whichever party won. This holds for any interleaving, given
//! that every write of the device crosses the tracker and that no two
//! writes of one block are in flight at once (the page cache writes a
//! block from one place).
//!
//! # Failures fail closed
//!
//! A copy-before-write read that fails never fails or delays the base's
//! write: the block's slot is marked *lost*, every later read of it
//! through the view is an error, and [`FrozenView::intact`] turns false,
//! which the warm standby takes as its cue to degrade.

use crate::device::{check_extent, BlockDevice, BLOCK_SIZE};
use crate::tracked::TrackedDisk;
use rae_vfs::{FsError, FsResult};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// What one block's slot holds once filled.
enum Kept {
    /// The block's contents at the epoch.
    Image(Box<[u8]>),
    /// A copy-before-write read of the block failed; its epoch contents
    /// are gone.
    Lost,
}

/// One snapshot's epoch contents: a write-once slot per device block.
pub(crate) struct Epoch {
    slots: Box<[OnceLock<Kept>]>,
    /// The blocks the reader declared it will never read, bit `bno % 64`
    /// of word `bno / 64`: set with `Release`, never cleared.
    excluded: Box<[AtomicU64]>,
    /// Slots holding an image, how many of those a base write filled,
    /// and block reads answered from a held image: statistics only.
    held: AtomicU64,
    captures: AtomicU64,
    hits: AtomicU64,
    /// Slots marked lost: raised with `Release` after the slot is set,
    /// read with `Acquire` by [`FrozenView::intact`].
    lost: AtomicU64,
    /// The tracker's count of live epochs, given back on drop.
    live: Arc<AtomicUsize>,
}

impl Epoch {
    pub(crate) fn new(blocks: u64, live: Arc<AtomicUsize>) -> Epoch {
        Epoch {
            slots: (0..blocks).map(|_| OnceLock::new()).collect(),
            excluded: (0..blocks.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            held: AtomicU64::new(0),
            captures: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            live,
        }
    }

    fn slot(&self, bno: u64) -> &OnceLock<Kept> {
        &self.slots[usize::try_from(bno).expect("bno fits usize")]
    }

    /// Whether the reader declared it will never read block `bno`.
    fn excluded(&self, bno: u64) -> bool {
        self.excluded[(bno / 64) as usize].load(Ordering::Acquire) & (1 << (bno % 64)) != 0
    }

    /// Whether block `bno` still has to be copied: it is neither
    /// excluded nor held.
    pub(crate) fn needs(&self, bno: u64) -> bool {
        !self.excluded(bno) && self.slot(bno).get().is_none()
    }

    /// Offer `img` as block `bno`'s epoch contents; `captured` says a base
    /// write is copying it. Returns `false` if the slot was already
    /// filled, in which case the slot, not `img`, holds the answer.
    pub(crate) fn keep(&self, bno: u64, img: &[u8], captured: bool) -> bool {
        let slot = self.slot(bno);
        if slot.get().is_some() || slot.set(Kept::Image(Box::from(img))).is_err() {
            return false;
        }
        self.held.fetch_add(1, Ordering::Relaxed);
        if captured {
            self.captures.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Mark block `bno`'s epoch contents lost, unless a copy got there
    /// first.
    pub(crate) fn lose(&self, bno: u64) {
        if self.slot(bno).set(Kept::Lost).is_ok() {
            self.lost.fetch_add(1, Ordering::Release);
        }
    }

    /// Copy a filled slot into `buf`: `None` if it is empty, an error if
    /// its contents were lost.
    fn copy_out(&self, bno: u64, buf: &mut [u8]) -> Option<FsResult<()>> {
        Some(match self.slot(bno).get()? {
            Kept::Image(img) => {
                buf.copy_from_slice(img);
                Ok(())
            }
            Kept::Lost => Err(FsError::IoFailed {
                detail: format!(
                    "block {bno}: its snapshot contents were lost to a failed copy-before-write read"
                ),
            }),
        })
    }
}

impl Drop for Epoch {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A read-only view of a [`TrackedDisk`]'s device frozen at the moment
/// [`TrackedDisk::snapshot`] was taken (see the module docs). Clones
/// share one epoch; when the last one is dropped the tracker stops
/// copying for it.
///
/// Reads of blocks it does not hold yet cross the tracker, so they are
/// metered like any other device read. A read the device fails keeps
/// nothing, and the next read of those blocks goes to the device again:
/// a [`crate::RetryDisk`] above the view absorbs a transient error.
/// Writes and flushes are refused.
#[derive(Clone)]
pub struct FrozenView {
    epoch: Arc<Epoch>,
    tracker: Arc<TrackedDisk>,
}

impl std::fmt::Debug for FrozenView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenView")
            .field("held_blocks", &self.held_blocks())
            .field("captures", &self.captures())
            .field("intact", &self.intact())
            .finish()
    }
}

impl FrozenView {
    pub(crate) fn new(epoch: Arc<Epoch>, tracker: Arc<TrackedDisk>) -> FrozenView {
        FrozenView { epoch, tracker }
    }

    /// Blocks whose epoch contents the view holds: its memory, in
    /// blocks.
    #[must_use]
    pub fn held_blocks(&self) -> u64 {
        self.epoch.held.load(Ordering::Relaxed)
    }

    /// How many of [`FrozenView::held_blocks`] a base write forced (the
    /// rest the view's reader read first).
    #[must_use]
    pub fn captures(&self) -> u64 {
        self.epoch.captures.load(Ordering::Relaxed)
    }

    /// Block reads through the view answered from what it held, without
    /// the device.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.epoch.hits.load(Ordering::Relaxed)
    }

    /// No copy-before-write read has failed: every block still reads as
    /// at the epoch, or, excluded and not held, not at all.
    #[must_use]
    pub fn intact(&self) -> bool {
        self.epoch.lost.load(Ordering::Acquire) == 0
    }

    /// Declare the blocks of `ranges` (`[start, end)` each, clipped to
    /// the device) ones the view's reader will never read: from now on a
    /// base write does not copy them, and a read of one the view does
    /// not hold yet is an error (see the module docs). Install it before
    /// the view reaches a reader on another thread, so every reader sees
    /// it.
    pub fn exclude(&self, ranges: impl IntoIterator<Item = (u64, u64)>) {
        let blocks = self.block_count();
        for (start, end) in ranges {
            for bno in start..end.min(blocks) {
                self.epoch.excluded[(bno / 64) as usize]
                    .fetch_or(1 << (bno % 64), Ordering::Release);
            }
        }
    }

    fn refuse(what: &str) -> FsError {
        FsError::Internal {
            detail: format!("{what} through a frozen snapshot view"),
        }
    }
}

impl BlockDevice for FrozenView {
    fn block_count(&self) -> u64 {
        self.tracker.block_count()
    }

    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        self.read_blocks(bno, &mut [buf])
    }

    /// Held blocks are copied out; each maximal run of blocks not held
    /// yet is read from the live device as one extent and kept. A block
    /// a base write copied meanwhile keeps the copy, so the reader gets
    /// that instead of what it read. An excluded block not held fails
    /// the read, and nothing from it on is read.
    fn read_blocks(&self, start: u64, bufs: &mut [&mut [u8]]) -> FsResult<()> {
        if bufs.is_empty() {
            return Ok(());
        }
        check_extent(start, bufs.iter().map(|b| b.len()), self.block_count())?;
        let epoch = &self.epoch;
        let mut i = 0;
        while i < bufs.len() {
            let bno = start + i as u64;
            if let Some(held) = epoch.copy_out(bno, bufs[i]) {
                held?;
                epoch.hits.fetch_add(1, Ordering::Relaxed);
                i += 1;
                continue;
            }
            if epoch.excluded(bno) {
                return Err(FsError::Internal {
                    detail: format!(
                        "block {bno}: read through a snapshot view that excluded it and never copied it"
                    ),
                });
            }
            let run = i
                + (bno..)
                    .take(bufs.len() - i)
                    .take_while(|&b| epoch.needs(b))
                    .count();
            self.tracker.read_blocks(bno, &mut bufs[i..run])?;
            for (b, buf) in (bno..).zip(&mut bufs[i..run]) {
                if !epoch.keep(b, buf, false) {
                    epoch
                        .copy_out(b, buf)
                        .expect("a lost race leaves the slot filled")?;
                }
            }
            i = run;
        }
        Ok(())
    }

    /// Always an error: the view is frozen.
    fn write_block(&self, bno: u64, _buf: &[u8]) -> FsResult<()> {
        Err(Self::refuse(&format!("write of block {bno}")))
    }

    /// Always an error, as [`FrozenView::write_block`].
    fn flush(&self) -> FsResult<()> {
        Err(Self::refuse("flush"))
    }
}

/// Copy-before-write for one batch: before the blocks of `ranges` are
/// written, read each maximal run of them that some live epoch still
/// needs as one extent through the tracker, and keep it in every epoch
/// that does not exclude it. A run that fails is read again block by
/// block, to find the unreadable block; only that one is lost, and not
/// to an epoch that excludes it. A run of one block has nothing to
/// attribute and is not read again.
pub(crate) fn capture(
    tracker: &TrackedDisk,
    epochs: &[Arc<Epoch>],
    ranges: impl IntoIterator<Item = (u64, u64)>,
) {
    let needed = |bno: u64| epochs.iter().any(|e| e.needs(bno));
    for (start, end) in ranges {
        let end = end.min(tracker.block_count());
        let mut bno = start;
        while bno < end {
            if !needed(bno) {
                bno += 1;
                continue;
            }
            let run_end = (bno..end).find(|&b| !needed(b)).unwrap_or(end);
            capture_run(tracker, epochs, bno, run_end);
            bno = run_end;
        }
    }
}

fn capture_run(tracker: &TrackedDisk, epochs: &[Arc<Epoch>], start: u64, end: u64) {
    let mut images = vec![0u8; (end - start) as usize * BLOCK_SIZE];
    let mut bufs: Vec<&mut [u8]> = images.chunks_mut(BLOCK_SIZE).collect();
    let whole = tracker.read_blocks(start, &mut bufs).is_ok();
    for (bno, buf) in (start..).zip(bufs.iter_mut()) {
        let read = whole || (end - start > 1 && tracker.read_block(bno, buf).is_ok());
        for epoch in epochs.iter().filter(|e| !e.excluded(bno)) {
            if read {
                epoch.keep(bno, buf, true);
            } else {
                epoch.lose(bno);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Extent;
    use crate::faulty::{DiskFaultPlan, FaultTarget, FaultyDisk, TriggerMode};
    use crate::mem::MemDisk;
    use crate::retry::{RetryDisk, RetryPolicy};
    use crate::tape::{TapeDisk, TapeEntry};
    use rae_telemetry::{DevOp, Telemetry};

    /// Block `bno`'s image at version `tag`.
    fn img(tag: u8, bno: u64) -> Vec<u8> {
        let mut b = vec![tag; BLOCK_SIZE];
        b[..8].copy_from_slice(&bno.to_le_bytes());
        b
    }

    /// A tracker over a fault-injecting disk whose block `b` holds
    /// `img(0, b)`.
    struct Rig<D: BlockDevice + 'static = MemDisk> {
        disk: Arc<FaultyDisk<D>>,
        tracker: Arc<TrackedDisk>,
        tele: Arc<Telemetry>,
    }

    impl Rig {
        fn new(blocks: u64) -> Rig {
            Rig::over(MemDisk::new(blocks))
        }
    }

    impl Rig<TapeDisk> {
        /// As [`Rig::new`], over a disk that records every request; the
        /// tape keeps each write's image, so not for the stress tests.
        fn taped(blocks: u64) -> Rig<TapeDisk> {
            Rig::over(TapeDisk::new(blocks))
        }

        fn mark(&self) -> usize {
            self.disk.inner().mark()
        }

        /// The device's requests from `mark` on (see [`Rig::mark`]).
        fn tape_since(&self, mark: usize) -> Vec<TapeEntry> {
            self.disk.inner().since(mark)
        }
    }

    impl<D: BlockDevice + 'static> Rig<D> {
        fn over(dev: D) -> Rig<D> {
            for b in 0..dev.block_count() {
                dev.write_block(b, &img(0, b)).unwrap();
            }
            let disk = Arc::new(FaultyDisk::new(dev));
            let tele = Telemetry::new();
            let tracker = Arc::new(TrackedDisk::new(
                Arc::clone(&disk) as Arc<dyn BlockDevice>,
                Arc::clone(&tele),
            ));
            Rig {
                disk,
                tracker,
                tele,
            }
        }

        /// A view, and the oracle: an eager copy of the device taken at
        /// the same moment (off the meter).
        fn snapshot(&self) -> (FrozenView, MemDisk) {
            let oracle = MemDisk::clone_of(self.disk.inner()).unwrap();
            (self.tracker.snapshot(), oracle)
        }

        fn write(&self, bno: u64, tag: u8) {
            self.tracker.write_block(bno, &img(tag, bno)).unwrap();
        }

        /// Write `[start, start + len)` at `tag` as one extent per range.
        fn write_batch(&self, ranges: &[(u64, usize)], tag: u8) -> FsResult<()> {
            let images: Vec<Vec<Vec<u8>>> = ranges
                .iter()
                .map(|&(s, n)| (s..s + n as u64).map(|b| img(tag, b)).collect())
                .collect();
            let bufs: Vec<Vec<&[u8]>> = images
                .iter()
                .map(|run| run.iter().map(Vec::as_slice).collect())
                .collect();
            let extents: Vec<Extent<'_>> = ranges
                .iter()
                .zip(&bufs)
                .map(|(&(start, _), bufs)| Extent { start, bufs })
                .collect();
            self.tracker.write_blocks(&extents)
        }

        /// Read requests and blocks across the meter so far.
        fn reads(&self) -> (u64, u64) {
            (
                self.tele.dev_requests(DevOp::Read),
                self.tele.dev_blocks(DevOp::Read),
            )
        }

        /// Read requests and blocks across the meter since `before`.
        fn reads_since(&self, before: (u64, u64)) -> (u64, u64) {
            let (requests, blocks) = self.reads();
            (requests - before.0, blocks - before.1)
        }

        fn fail_reads(&self, target: FaultTarget, mode: TriggerMode) {
            self.disk
                .set_plan(DiskFaultPlan::new().fail_reads(target, mode));
        }

        fn device(&self, bno: u64) -> Vec<u8> {
            let mut buf = vec![0; BLOCK_SIZE];
            self.disk.inner().read_block(bno, &mut buf).unwrap();
            buf
        }
    }

    fn oracle_block(oracle: &MemDisk, bno: u64) -> Vec<u8> {
        let mut buf = vec![0; BLOCK_SIZE];
        oracle.read_block(bno, &mut buf).unwrap();
        buf
    }

    /// Block `bno` reads through `view` as through `oracle`.
    fn assert_block(view: &FrozenView, oracle: &MemDisk, bno: u64) {
        let mut got = vec![0; BLOCK_SIZE];
        view.read_block(bno, &mut got).unwrap();
        assert!(got == oracle_block(oracle, bno), "block {bno} moved");
    }

    /// Every block reads as in `oracle`, one block at a time and as
    /// one extent of the whole device.
    fn assert_frozen(view: &FrozenView, oracle: &MemDisk) {
        let n = view.block_count();
        for bno in 0..n {
            assert_block(view, oracle, bno);
        }
        let mut all = vec![0u8; n as usize * BLOCK_SIZE];
        let mut bufs: Vec<&mut [u8]> = all.chunks_mut(BLOCK_SIZE).collect();
        view.read_blocks(0, &mut bufs).unwrap();
        assert!(all == MemDisk::snapshot(oracle), "extent read moved");
    }

    /// Blocks `start..start + n` read through `view` as one extent as
    /// through `oracle`.
    fn read_extent(view: &FrozenView, oracle: &MemDisk, start: u64, n: usize) -> FsResult<()> {
        let mut run = vec![0u8; n * BLOCK_SIZE];
        let mut bufs: Vec<&mut [u8]> = run.chunks_mut(BLOCK_SIZE).collect();
        view.read_blocks(start, &mut bufs)?;
        for (bno, got) in (start..).zip(run.chunks(BLOCK_SIZE)) {
            assert!(got == oracle_block(oracle, bno), "block {bno} moved");
        }
        Ok(())
    }

    #[test]
    fn snapshot_untouched_blocks_read_from_the_device_once() {
        let rig = Rig::new(16);
        let (view, oracle) = rig.snapshot();
        assert_eq!(view.held_blocks(), 0, "nothing copied up front");
        assert_frozen(&view, &oracle);
        // the per-block pass fetched each block once, the extent pass
        // found them all held
        assert_eq!(rig.reads(), (16, 16));
        assert_eq!((view.held_blocks(), view.captures()), (16, 0));
        assert!(view.intact());
    }

    #[test]
    fn snapshot_repeated_reads_are_hits() {
        let rig = Rig::new(8);
        let (view, oracle) = rig.snapshot();
        for _ in 0..5 {
            for bno in [3, 5, 3, 7] {
                assert_block(&view, &oracle, bno);
            }
        }
        assert_eq!(rig.reads(), (3, 3), "each block reaches the device once");
        assert_eq!(view.hits(), 17);
    }

    #[test]
    fn snapshot_a_failed_read_is_not_kept() {
        let rig = Rig::new(8);
        let (view, oracle) = rig.snapshot();
        rig.fail_reads(FaultTarget::Block(2), TriggerMode::Nth(1));
        let mut buf = vec![0; BLOCK_SIZE];
        assert!(matches!(
            view.read_block(2, &mut buf),
            Err(FsError::IoFailed { .. })
        ));
        assert!(view.intact(), "a reader's failed read is no lost block");
        assert_eq!(view.held_blocks(), 0);
        // the one-shot fault is spent: the same read goes to the device,
        // and only then is kept
        let before = rig.reads();
        assert_block(&view, &oracle, 2);
        assert_eq!(rig.reads_since(before), (1, 1));
        assert_block(&view, &oracle, 2);
        assert_eq!((rig.reads_since(before), view.hits()), ((1, 1), 1));
    }

    #[test]
    fn snapshot_misshapen_and_out_of_range_reads_fail_without_poisoning() {
        let rig = Rig::new(8);
        let (view, oracle) = rig.snapshot();
        let (mut short, mut buf) = ([0u8; 7], vec![0; BLOCK_SIZE]);
        assert!(view.read_block(0, &mut short).is_err());
        assert!(view
            .read_blocks(0, &mut [&mut buf[..], &mut short[..]])
            .is_err());
        assert!(view.read_block(8, &mut buf).is_err());
        assert!(
            read_extent(&view, &oracle, 6, 4).is_err(),
            "runs off the device"
        );
        assert_eq!(rig.reads(), (0, 0), "refused before any device read");
        assert_eq!(view.held_blocks(), 0);
        assert!(view.intact());
        assert_frozen(&view, &oracle);
    }

    #[test]
    fn snapshot_a_retry_disk_above_absorbs_a_one_shot_fault() {
        let rig = Rig::new(8);
        let (view, oracle) = rig.snapshot();
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff_ns: 1,
            max_backoff_ns: 8,
            seed: 0,
        };
        let retry = RetryDisk::with_policy(view.clone(), policy);
        rig.fail_reads(FaultTarget::Any, TriggerMode::Nth(1));
        let mut buf = vec![0; BLOCK_SIZE];
        retry.read_block(0, &mut buf).unwrap();
        assert!(buf == oracle_block(&oracle, 0));
        assert_eq!(retry.stats().absorbed, 1);
        assert_eq!(rig.reads(), (2, 2), "the failed attempt and its retry");
        retry.read_block(0, &mut buf).unwrap();
        assert_eq!(view.hits(), 1, "the absorbed read was kept");
        assert!(view.intact());
    }

    #[test]
    fn extent_read_cold_extent_is_one_request() {
        let rig = Rig::new(32);
        let (view, oracle) = rig.snapshot();
        read_extent(&view, &oracle, 4, 20).unwrap();
        assert_eq!(rig.reads(), (1, 20));
        read_extent(&view, &oracle, 4, 20).unwrap();
        assert_eq!(rig.reads(), (1, 20), "the same extent again is all hits");
        assert_eq!(view.hits(), 20);
    }

    #[test]
    fn extent_read_fills_one_request_per_missing_run() {
        let rig = Rig::new(32);
        let (view, oracle) = rig.snapshot();
        for bno in [5, 9, 10] {
            assert_block(&view, &oracle, bno);
        }
        let before = rig.reads();
        // 2..5 | hit 5 | 6..9 | hits 9, 10 | 11..14
        read_extent(&view, &oracle, 2, 12).unwrap();
        assert_eq!(rig.reads_since(before), (3, 9));
        assert_eq!(view.hits(), 3);
    }

    #[test]
    fn extent_read_failed_extent_keeps_nothing_of_its_failing_run() {
        let rig = Rig::new(16);
        let (view, oracle) = rig.snapshot();
        assert_block(&view, &oracle, 4);
        rig.fail_reads(FaultTarget::Block(7), TriggerMode::Nth(1));
        // the runs [3, 4) and [5, 11) around held 4: the first is read
        // and kept, the second fails whole
        assert!(read_extent(&view, &oracle, 3, 8).is_err());
        assert_eq!(view.held_blocks(), 2, "4 and 3 only");
        assert!(view.intact());
        // the one-shot fault is spent: the failed run is read again,
        // whole, from the device, and only then kept
        let before = rig.reads();
        read_extent(&view, &oracle, 3, 8).unwrap();
        assert_eq!(rig.reads_since(before), (1, 6));
        read_extent(&view, &oracle, 3, 8).unwrap();
        assert_eq!(rig.reads_since(before), (1, 6));
        assert_eq!(view.held_blocks(), 8);
    }

    #[test]
    fn snapshot_read_then_written() {
        let rig = Rig::new(8);
        let (view, oracle) = rig.snapshot();
        assert_block(&view, &oracle, 3);
        let before = rig.reads();
        rig.write(3, 1);
        assert_eq!(rig.reads(), before, "held already: no copy");
        assert_eq!(rig.device(3), img(1, 3));
        assert_block(&view, &oracle, 3);
        assert_eq!((view.held_blocks(), view.captures()), (1, 0));
        assert_frozen(&view, &oracle);
    }

    #[test]
    fn snapshot_written_then_read() {
        let rig = Rig::new(8);
        let (view, oracle) = rig.snapshot();
        rig.write(5, 1);
        assert_eq!(rig.reads(), (1, 1), "one copy-before-write");
        assert_eq!((view.held_blocks(), view.captures()), (1, 1));
        assert_block(&view, &oracle, 5);
        assert_eq!(rig.reads(), (1, 1), "read from the copy");
        assert_frozen(&view, &oracle);
    }

    #[test]
    fn snapshot_written_twice() {
        let rig = Rig::new(8);
        let (view, oracle) = rig.snapshot();
        rig.write(2, 1);
        rig.write(2, 2);
        assert_eq!(rig.reads(), (1, 1), "copied before the first write only");
        assert_eq!(view.captures(), 1);
        assert_eq!(rig.device(2), img(2, 2));
        assert_frozen(&view, &oracle);
    }

    #[test]
    fn snapshot_batch_mixing_copied_and_uncopied_blocks() {
        let rig = Rig::new(16);
        let (view, oracle) = rig.snapshot();
        assert_block(&view, &oracle, 4);
        rig.write(11, 1);
        let before = rig.reads();
        // extents [2, 8) and [10, 13): held 4 and 11 split them into
        // the runs [2, 4), [5, 8), [10, 11) and [12, 13)
        rig.write_batch(&[(2, 6), (10, 3)], 2).unwrap();
        assert_eq!(
            (rig.reads().0 - before.0, rig.reads().1 - before.1),
            (4, 7),
            "one request per run of uncopied blocks"
        );
        assert_eq!((view.held_blocks(), view.captures()), (9, 8));
        assert_frozen(&view, &oracle);
    }

    #[test]
    fn snapshot_write_failing_at_the_device_after_its_copy() {
        let rig = Rig::new(16);
        let (view, oracle) = rig.snapshot();
        rig.disk
            .set_plan(DiskFaultPlan::new().fail_writes(FaultTarget::Block(5), TriggerMode::Always));
        assert!(rig.tracker.write_block(5, &img(1, 5)).is_err());
        // a batch that lands 3 and 4, fails at 5 and never tries 6
        assert!(rig.write_batch(&[(3, 4)], 2).is_err());
        assert_eq!(rig.device(4), img(2, 4));
        assert_eq!(rig.device(5), img(0, 5));
        assert_eq!(view.captures(), 4, "copied before the write was tried");
        assert_frozen(&view, &oracle);
    }

    #[test]
    fn snapshot_failed_copy_loses_only_that_block() {
        let rig = Rig::new(16);
        let (view, oracle) = rig.snapshot();
        rig.disk
            .set_plan(DiskFaultPlan::new().fail_reads(FaultTarget::Block(6), TriggerMode::Always));
        // the run [4, 9) fails as one extent; read again block by block,
        // only 6 is unreadable
        rig.write_batch(&[(4, 5)], 1)
            .expect("the base's write succeeds");
        rig.disk.clear_plan();
        assert_eq!(rig.device(6), img(1, 6), "and lands");
        assert!(!view.intact());
        assert_eq!((view.held_blocks(), view.captures()), (4, 4));
        let mut buf = vec![0; BLOCK_SIZE];
        assert!(matches!(
            view.read_block(6, &mut buf),
            Err(FsError::IoFailed { .. })
        ));
        let mut run = vec![0u8; 3 * BLOCK_SIZE];
        let mut bufs: Vec<&mut [u8]> = run.chunks_mut(BLOCK_SIZE).collect();
        assert!(view.read_blocks(5, &mut bufs).is_err(), "nor in an extent");
        for bno in (0..16).filter(|&b| b != 6) {
            assert_block(&view, &oracle, bno);
        }
        // a lone block has nothing to attribute: read once, lost
        rig.disk
            .set_plan(DiskFaultPlan::new().fail_reads(FaultTarget::Block(12), TriggerMode::Nth(1)));
        let before = rig.reads();
        let (view2, _) = rig.snapshot();
        rig.write(12, 2);
        assert_eq!(rig.reads().0 - before.0, 1);
        assert!(!view2.intact());
        assert!(view2.read_block(12, &mut buf).is_err());
    }

    /// Block `bno` does not read through `view`: an error, and no
    /// request for it reaches the device.
    fn assert_unreadable(rig: &Rig<TapeDisk>, view: &FrozenView, bno: u64) {
        let mark = rig.mark();
        let mut buf = vec![0; BLOCK_SIZE];
        assert!(matches!(
            view.read_block(bno, &mut buf),
            Err(FsError::Internal { .. })
        ));
        let mut run = vec![0u8; 3 * BLOCK_SIZE];
        let mut bufs: Vec<&mut [u8]> = run.chunks_mut(BLOCK_SIZE).collect();
        let start = bno.saturating_sub(1).min(view.block_count() - 3);
        assert!(
            view.read_blocks(start, &mut bufs).is_err(),
            "nor in an extent"
        );
        assert!(
            !rig.tape_since(mark).contains(&TapeEntry::Read(bno)),
            "block {bno} read from the device"
        );
    }

    #[test]
    fn snapshot_excluded_blocks_are_never_copied() {
        let rig = Rig::taped(16);
        let (view, oracle) = rig.snapshot();
        view.exclude([(4, 8)]);
        let mark = rig.mark();
        rig.write(5, 1);
        // [3, 6): only 3 needs a copy
        rig.write_batch(&[(3, 3)], 2).unwrap();
        let tape = rig.tape_since(mark);
        for b in [4, 5] {
            let first_write = tape
                .iter()
                .position(|e| matches!(e, TapeEntry::Write(x, _) if *x == b))
                .expect("written");
            assert!(
                !tape[..first_write].contains(&TapeEntry::Read(b)),
                "block {b} copied before its write"
            );
        }
        assert_eq!(rig.reads(), (1, 1), "block 3's copy only");
        assert_eq!((view.held_blocks(), view.captures()), (1, 1));
        for bno in (0..16).filter(|b| !(4..8).contains(b)) {
            assert_block(&view, &oracle, bno);
        }
        assert!(view.intact());
    }

    #[test]
    fn snapshot_an_excluded_block_not_held_fails_closed() {
        let rig = Rig::taped(16);
        let (view, oracle) = rig.snapshot();
        view.exclude([(6, 7), (12, 13)]);
        // 6 is overwritten with no copy, 12 never written: neither is
        // held, so neither reads, whatever the device holds
        rig.write(6, 1);
        assert_unreadable(&rig, &view, 6);
        assert_unreadable(&rig, &view, 12);
        assert!(view.intact(), "an excluded block is not a lost one");
        assert_block(&view, &oracle, 5);
        assert_block(&view, &oracle, 7);
        // a copy-before-write read that would have failed is not tried
        rig.disk
            .set_plan(DiskFaultPlan::new().fail_reads(FaultTarget::Block(12), TriggerMode::Always));
        rig.write(12, 1);
        assert!(view.intact());
    }

    #[test]
    fn snapshot_a_capture_before_the_exclusion_still_reads_as_at_the_epoch() {
        let rig = Rig::taped(8);
        let (view, oracle) = rig.snapshot();
        rig.write(2, 1);
        assert_block(&view, &oracle, 3);
        view.exclude([(0, 8)]);
        let before = rig.reads();
        rig.write(2, 2);
        rig.write(3, 2);
        rig.write(4, 2);
        assert_eq!(rig.reads(), before, "nothing left to copy");
        assert_block(&view, &oracle, 2);
        assert_block(&view, &oracle, 3);
        assert_unreadable(&rig, &view, 4);
        assert_eq!((view.held_blocks(), view.captures()), (2, 1));
    }

    #[test]
    fn snapshot_batch_mixing_excluded_and_needed_blocks() {
        let rig = Rig::taped(16);
        let (view, oracle) = rig.snapshot();
        view.exclude([(4, 5), (10, 12)]);
        let before = rig.reads();
        // extents [2, 8) and [10, 14): excluded 4, 10 and 11 leave the
        // runs [2, 4), [5, 8) and [12, 14)
        rig.write_batch(&[(2, 6), (10, 4)], 1).unwrap();
        assert_eq!(
            (rig.reads().0 - before.0, rig.reads().1 - before.1),
            (3, 7),
            "one request per run of needed blocks"
        );
        assert_eq!((view.held_blocks(), view.captures()), (7, 7));
        for bno in (0..16).filter(|b| ![4, 10, 11].contains(b)) {
            assert_block(&view, &oracle, bno);
        }
        assert_unreadable(&rig, &view, 10);
    }

    #[test]
    fn snapshot_an_exclusion_is_one_views() {
        let rig = Rig::taped(8);
        let (excluding, _) = rig.snapshot();
        let (other, oracle) = rig.snapshot();
        excluding.exclude([(3, 5)]);
        rig.write_batch(&[(2, 4)], 1).unwrap();
        assert_eq!(rig.reads(), (1, 4), "the other view still needs them");
        assert_eq!(excluding.captures(), 2, "only 2 and 5 kept");
        assert_eq!(other.captures(), 4);
        assert_unreadable(&rig, &excluding, 3);
        assert_frozen(&other, &oracle);
    }

    #[test]
    fn snapshot_two_live_views_taken_at_different_times() {
        let rig = Rig::new(8);
        let (first, first_oracle) = rig.snapshot();
        rig.write(1, 1);
        rig.write(2, 1);
        let (second, second_oracle) = rig.snapshot();
        let before = rig.reads();
        // 1 and 2 are held by the first view only; 3 by neither: one
        // run [1, 4) both need some of, one request
        rig.write_batch(&[(1, 3)], 2).unwrap();
        assert_eq!((rig.reads().0 - before.0, rig.reads().1 - before.1), (1, 3));
        assert_eq!((first.captures(), second.captures()), (3, 3));
        assert_frozen(&first, &first_oracle);
        assert_frozen(&second, &second_oracle);
        assert!(oracle_block(&first_oracle, 1) != oracle_block(&second_oracle, 1));
    }

    #[test]
    fn snapshot_dropped_view_stops_copying() {
        let rig = Rig::new(8);
        let (view, _) = rig.snapshot();
        let clone = view.clone();
        drop(view);
        rig.write(1, 1);
        assert_eq!(clone.captures(), 1, "a clone keeps the epoch alive");
        drop(clone);
        assert_eq!(rig.tracker.live_views(), 0, "a write is back to one load");
        let before = rig.reads();
        rig.write(2, 1);
        rig.write_batch(&[(3, 4)], 1).unwrap();
        assert_eq!(rig.reads(), before, "no view, no copy");
    }

    #[test]
    fn snapshot_refuses_writes_and_flushes() {
        let rig = Rig::new(4);
        let (view, _) = rig.snapshot();
        assert!(matches!(
            view.write_block(1, &img(9, 1)),
            Err(FsError::Internal { .. })
        ));
        assert!(view.flush().is_err());
        assert_eq!(rig.device(1), img(0, 1));
    }

    #[test]
    fn snapshot_refuses_extent_writes_and_serves_extent_reads() {
        let rig = Rig::new(4);
        let (view, oracle) = rig.snapshot();
        let blk = img(9, 1);
        assert!(matches!(
            view.write_blocks(&[Extent {
                start: 1,
                bufs: &[&blk[..]; 2]
            }]),
            Err(FsError::Internal { .. })
        ));
        for bno in [1, 2] {
            assert_eq!(
                rig.device(bno),
                img(0, bno),
                "the refused extent reached the device"
            );
        }
        read_extent(&view, &oracle, 1, 2).unwrap();
        assert_eq!(rig.reads(), (1, 2), "the extent read is one request");
    }

    /// One writer's blocks: batch `j` writes version `j` to the extent of
    /// blocks `j % (N - 1)` and the one after it.
    const WRITER_BLOCKS: u64 = 24;

    /// The version a block holds, `None` for the initial image.
    fn version(buf: &[u8]) -> Option<u64> {
        (buf[8] == 1).then(|| u64::from_le_bytes(buf[9..17].try_into().unwrap()))
    }

    fn versioned(j: u64) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE];
        b[8] = 1;
        b[9..17].copy_from_slice(&j.to_le_bytes());
        b
    }

    fn batch_blocks(j: u64) -> [u64; 2] {
        let s = j % (WRITER_BLOCKS - 1);
        [s, s + 1]
    }

    /// The version of block `i` after batches `0..=upto`.
    fn after(i: u64, upto: Option<u64>) -> Option<u64> {
        let upto = upto?;
        (upto.saturating_sub(2 * WRITER_BLOCKS)..=upto)
            .rev()
            .find(|&j| batch_blocks(j).contains(&i))
    }

    /// `seen` (one writer's blocks through a view; those `checked` says
    /// were read) is the state after some prefix of its batches, the
    /// last of them possibly in part: every batch done before the
    /// snapshot began, none begun after it returned.
    fn assert_a_cut(
        seen: &[Option<u64>],
        checked: impl Fn(u64) -> bool,
        done_before: u64,
        started_after: u64,
    ) {
        // `c` batches whole, and batch `c` in part if it had begun
        let fits = |c: u64| {
            (0u64..)
                .zip(seen)
                .filter(|&(i, _)| checked(i))
                .all(|(i, &v)| {
                    v == after(i, c.checked_sub(1))
                        || (c < started_after && batch_blocks(c).contains(&i) && v == Some(c))
                })
        };
        assert!(
            (done_before..=started_after).any(fits),
            "{seen:?} is no cut between batch {done_before} and batch {started_after}"
        );
    }

    /// Writer threads overwrite versioned blocks, one two-block extent
    /// per batch, while reader threads read each fresh view (one block
    /// at a time and in extents, in varying order) and the view of the
    /// round before: every view must read as one cut of every writer's
    /// history — its epoch — and the same on every read.
    #[test]
    fn snapshot_stress_views_stay_at_their_epoch() {
        stress(|_| false);
    }

    /// As [`snapshot_stress_views_stay_at_their_epoch`], each view
    /// excluding half of the blocks, in runs of three, as soon as it is
    /// taken: batches mix excluded and needed blocks, and the readers
    /// read only the rest.
    #[test]
    fn snapshot_stress_with_half_the_blocks_excluded() {
        stress(|b| (b / 3) % 2 == 1);
    }

    fn stress(excluded: fn(u64) -> bool) {
        use std::sync::atomic::AtomicBool;
        const WRITERS: u64 = 2;
        const READERS: usize = 2;
        let rounds = if cfg!(debug_assertions) { 20 } else { 400 };
        let rig = Rig::new(WRITERS * WRITER_BLOCKS);
        let started: Vec<AtomicU64> = (0..WRITERS).map(|_| AtomicU64::new(0)).collect();
        let done: Vec<AtomicU64> = (0..WRITERS).map(|_| AtomicU64::new(0)).collect();
        let stop = AtomicBool::new(false);
        let n = WRITERS * WRITER_BLOCKS;
        let read_all = |view: &FrozenView, turn: usize| -> Vec<Option<u64>> {
            let mut out = vec![None; n as usize];
            let mut buf = vec![0u8; BLOCK_SIZE];
            // odd turns read extents of five from the top down (split
            // around excluded blocks), even turns one block at a time
            // from the bottom up
            if turn.is_multiple_of(2) {
                for bno in (0..n).filter(|&b| !excluded(b)) {
                    view.read_block(bno, &mut buf).unwrap();
                    out[bno as usize] = version(&buf);
                }
            } else {
                let mut end = n;
                while end > 0 {
                    let start = end.saturating_sub(5);
                    let mut bno = start;
                    while bno < end {
                        let run_end = (bno..end).find(|&b| excluded(b)).unwrap_or(end);
                        let mut run = vec![0u8; (run_end - bno) as usize * BLOCK_SIZE];
                        let mut bufs: Vec<&mut [u8]> = run.chunks_mut(BLOCK_SIZE).collect();
                        view.read_blocks(bno, &mut bufs).unwrap();
                        for (b, img) in (bno..).zip(run.chunks(BLOCK_SIZE)) {
                            out[b as usize] = version(img);
                        }
                        bno = run_end + 1;
                    }
                    end = start;
                }
            }
            out
        };
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (rig, started, done, stop) = (&rig, &started, &done, &stop);
                s.spawn(move || {
                    let base = w * WRITER_BLOCKS;
                    let mut j = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let img = versioned(j);
                        let [a, _] = batch_blocks(j);
                        started[w as usize].store(j + 1, Ordering::SeqCst);
                        let bufs = [&img[..], &img[..]];
                        rig.tracker
                            .write_blocks(&[Extent {
                                start: base + a,
                                bufs: &bufs,
                            }])
                            .unwrap();
                        done[w as usize].store(j + 1, Ordering::SeqCst);
                        j += 1;
                    }
                });
            }
            // a failed check stops the writers too, or the scope would
            // wait for them forever
            struct StopOnDrop<'a>(&'a AtomicBool);
            impl Drop for StopOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
            let _stop = StopOnDrop(&stop);
            let mut previous: Option<(FrozenView, Vec<Option<u64>>)> = None;
            for round in 0..rounds {
                let done_before: Vec<u64> = done.iter().map(|d| d.load(Ordering::SeqCst)).collect();
                let view = rig.tracker.snapshot();
                view.exclude((0..n).filter(|&b| excluded(b)).map(|b| (b, b + 1)));
                let started_after: Vec<u64> =
                    started.iter().map(|d| d.load(Ordering::SeqCst)).collect();
                let mut seen: Vec<Vec<Option<u64>>> = std::thread::scope(|r| {
                    let readers: Vec<_> = (0..READERS)
                        .map(|t| {
                            let view = &view;
                            r.spawn(move || read_all(view, round + t))
                        })
                        .collect();
                    readers.into_iter().map(|h| h.join().unwrap()).collect()
                });
                assert!(
                    seen.iter().all(|s| *s == seen[0]),
                    "round {round}: readers differ"
                );
                for w in 0..WRITERS as usize {
                    let mine = &seen[0][w * WRITER_BLOCKS as usize..][..WRITER_BLOCKS as usize];
                    let base = w as u64 * WRITER_BLOCKS;
                    assert_a_cut(
                        mine,
                        |i| !excluded(base + i),
                        done_before[w],
                        started_after[w],
                    );
                }
                if let Some((old, old_seen)) = previous.take() {
                    assert_eq!(
                        read_all(&old, round + 1),
                        old_seen,
                        "round {round}: an older view moved"
                    );
                }
                assert!(view.intact());
                previous = Some((view, seen.swap_remove(0)));
            }
        });
        let captures = rig.tele.dev_requests(DevOp::Read);
        assert!(captures > 0);
    }
}
