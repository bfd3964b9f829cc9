//! A read-once snapshot view for cold recovery.
//!
//! The shadow filesystem keeps no block cache by design, so a cold
//! recovery rung — `fsck`, the shadow load, and constrained replay of
//! the retained log — used to fetch the same bitmap, inode-table and
//! directory blocks from the device thousands of times. [`MemoDisk`]
//! removes the repetition *below* the shadow: the first successful read
//! of a block is kept, every later read of it is a copy out of memory.
//!
//! An extent read ([`BlockDevice::read_blocks`]) copies out the blocks
//! already kept and fetches each maximal run of missing ones with one
//! inner extent read, so a cold scan of a table is a handful of device
//! requests, not one per block.
//!
//! It is a snapshot view, not a cache: nothing is ever evicted or
//! invalidated, and it refuses writes. That is sound only while the
//! wrapped device cannot change underneath it, which the recovery rung
//! guarantees by construction — it holds the quiesce gate, the journal
//! has already been replayed, and the shadow never writes to its
//! device. The runtime builds one per rung attempt and drops it with
//! the rung.

use crate::device::{check_buf, BlockDevice, IoPhase};
use parking_lot::Mutex;
use rae_vfs::{FsError, FsResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One block's fill-once slot. The slot lock is held across the device
/// read that fills it, so concurrent first readers of the *same* block
/// wait for one fetch instead of issuing two, while readers of
/// different blocks proceed in parallel. An extent read holds all of
/// its slots, taken in ascending block order — the only order in which
/// anyone holds more than one — so two overlapping extents, or an
/// extent and a one-block read, cannot wait on each other in a cycle.
type Slot = Arc<Mutex<Option<Box<[u8]>>>>;

/// A read-only, fill-once, never-evicting view over a device whose
/// content is frozen for the view's lifetime (see the module docs).
///
/// Failed reads are not kept: the next read of that block goes to the
/// device again, so a transient error absorbed by a
/// [`crate::RetryDisk`] underneath — or retried by the caller — is not
/// turned into a permanent one.
pub struct MemoDisk {
    inner: Arc<dyn BlockDevice>,
    slots: Mutex<HashMap<u64, Slot>>,
    memo_hits: AtomicU64,
}

impl std::fmt::Debug for MemoDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoDisk")
            .field("memo_hits", &self.memo_hits())
            .finish()
    }
}

impl MemoDisk {
    /// Wrap `inner` with an empty memo.
    #[must_use]
    pub fn new(inner: Arc<dyn BlockDevice>) -> MemoDisk {
        MemoDisk {
            inner,
            slots: Mutex::new(HashMap::new()),
            memo_hits: AtomicU64::new(0),
        }
    }

    /// Block reads answered from the memo without touching the device.
    /// (What did reach the device is the mount's device meter's to
    /// count.)
    #[must_use]
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(Ordering::Relaxed)
    }

    fn refuse(what: &str) -> FsError {
        FsError::Internal {
            detail: format!("{what} through a read-only recovery snapshot view"),
        }
    }
}

impl BlockDevice for MemoDisk {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    // A one-block read is an extent of one: one slot, one fill path.
    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        self.read_blocks(bno, &mut [buf])
    }

    fn read_blocks(&self, start: u64, bufs: &mut [&mut [u8]]) -> FsResult<()> {
        for buf in bufs.iter() {
            check_buf(buf.len())?;
        }
        let slots: Vec<Slot> = {
            let mut map = self.slots.lock();
            (start..)
                .take(bufs.len())
                .map(|bno| Arc::clone(map.entry(bno).or_default()))
                .collect()
        };
        // ascending block order (see `Slot`)
        let mut images: Vec<_> = slots.iter().map(|s| s.lock()).collect();
        let mut i = 0;
        while i < bufs.len() {
            if let Some(kept) = images[i].as_deref() {
                bufs[i].copy_from_slice(kept);
                self.memo_hits.fetch_add(1, Ordering::Relaxed);
                i += 1;
                continue;
            }
            let run = i + images[i..].iter().take_while(|img| img.is_none()).count();
            // an error keeps nothing of the run: failures are not memoised
            self.inner
                .read_blocks(start + i as u64, &mut bufs[i..run])?;
            for (image, buf) in images[i..run].iter_mut().zip(&bufs[i..run]) {
                **image = Some(Box::from(&**buf));
            }
            i = run;
        }
        Ok(())
    }

    /// Always an error: the view is a snapshot, and the shadow's
    /// never-write rule is enforced here rather than assumed.
    fn write_block(&self, bno: u64, _buf: &[u8]) -> FsResult<()> {
        Err(Self::refuse(&format!("write of block {bno}")))
    }

    /// Always an error, as [`MemoDisk::write_block`].
    fn flush(&self) -> FsResult<()> {
        Err(Self::refuse("flush"))
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
    use crate::retry::{RetryDisk, RetryPolicy};
    use crate::stats::{DiskCounters, StatsDisk};

    fn filled(blocks: u64) -> MemDisk {
        let disk = MemDisk::new(blocks);
        for b in 0..blocks {
            disk.write_block(b, &vec![b as u8 + 1; BLOCK_SIZE]).unwrap();
        }
        disk
    }

    #[test]
    fn each_block_reaches_the_device_once() {
        let counted = Arc::new(StatsDisk::new(filled(8)));
        let before = counted.counters().reads;
        let memo = MemoDisk::new(Arc::clone(&counted) as Arc<dyn BlockDevice>);
        let mut buf = vec![0u8; BLOCK_SIZE];
        for round in 0..5 {
            for b in [3u64, 5, 3, 7] {
                memo.read_block(b, &mut buf).unwrap();
                assert!(buf.iter().all(|&x| x == b as u8 + 1), "round {round}");
            }
        }
        assert_eq!(counted.counters().reads - before, 3);
        assert_eq!(memo.memo_hits(), 17);
    }

    #[test]
    fn refuses_writes_and_flushes() {
        let raw = Arc::new(filled(4));
        let memo = MemoDisk::new(Arc::clone(&raw) as Arc<dyn BlockDevice>);
        let blk = vec![0xEEu8; BLOCK_SIZE];
        assert!(matches!(
            memo.write_block(1, &blk),
            Err(FsError::Internal { .. })
        ));
        assert!(matches!(memo.flush(), Err(FsError::Internal { .. })));
        let mut buf = vec![0u8; BLOCK_SIZE];
        raw.read_block(1, &mut buf).unwrap();
        assert_eq!(buf[0], 2, "the refused write never reached the device");
    }

    #[test]
    fn refuses_extent_writes_and_serves_extent_reads() {
        let raw = Arc::new(StatsDisk::new(filled(4)));
        let memo = MemoDisk::new(Arc::clone(&raw) as Arc<dyn BlockDevice>);
        let blk = vec![0xEEu8; BLOCK_SIZE];
        assert!(matches!(
            memo.write_blocks(&[crate::Extent {
                start: 1,
                bufs: &[&blk[..]; 2]
            }]),
            Err(FsError::Internal { .. })
        ));
        let (mut a, mut b) = (vec![0u8; BLOCK_SIZE], vec![0u8; BLOCK_SIZE]);
        memo.read_blocks(1, &mut [&mut a[..], &mut b[..]]).unwrap();
        assert_eq!(
            (a[0], b[0]),
            (2, 3),
            "the refused extent never reached the device"
        );
        let c = raw.counters();
        assert_eq!((c.read_requests, c.reads, c.writes), (1, 2, 0));
    }

    #[test]
    fn failed_reads_are_not_memoised() {
        let plan = DiskFaultPlan::new().fail_reads(FaultTarget::Block(2), TriggerMode::Nth(1));
        let counted = Arc::new(StatsDisk::new(FaultyDisk::with_plan(filled(4), plan)));
        let memo = MemoDisk::new(Arc::clone(&counted) as Arc<dyn BlockDevice>);
        let mut buf = vec![0u8; BLOCK_SIZE];
        assert!(memo.read_block(2, &mut buf).is_err());
        assert_eq!(counted.counters().reads, 0);
        // the one-shot fault is spent: the same read now succeeds, from
        // the device, and only then is kept
        memo.read_block(2, &mut buf).unwrap();
        assert_eq!(buf[0], 3);
        memo.read_block(2, &mut buf).unwrap();
        assert_eq!((counted.counters().reads, memo.memo_hits()), (1, 1));
        // out-of-range and misshapen reads fail without poisoning anything
        assert!(memo.read_block(99, &mut buf).is_err());
        assert!(memo.read_block(0, &mut [0u8; 7]).is_err());
    }

    #[test]
    fn transient_faults_are_absorbed_by_a_retry_disk_underneath() {
        let plan = DiskFaultPlan::new().fail_reads(FaultTarget::Any, TriggerMode::Nth(1));
        let retry = Arc::new(RetryDisk::with_policy(
            FaultyDisk::with_plan(filled(4), plan),
            RetryPolicy {
                max_attempts: 4,
                base_backoff_ns: 1,
                max_backoff_ns: 8,
                seed: 0,
            },
        ));
        let memo = MemoDisk::new(Arc::clone(&retry) as Arc<dyn BlockDevice>);
        let mut buf = vec![0u8; BLOCK_SIZE];
        memo.read_block(0, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        assert_eq!(retry.stats().absorbed, 1);
        memo.read_block(0, &mut buf).unwrap();
        assert_eq!(memo.memo_hits(), 1, "the absorbed read was kept");
    }

    /// Read blocks `start..start + n` through `memo` as one extent and
    /// check each block's content.
    fn read_extent(memo: &MemoDisk, start: u64, n: usize) -> FsResult<()> {
        let mut blocks = vec![vec![0u8; BLOCK_SIZE]; n];
        let mut bufs: Vec<&mut [u8]> = blocks.iter_mut().map(Vec::as_mut_slice).collect();
        memo.read_blocks(start, &mut bufs)?;
        for (bno, b) in (start..).zip(&blocks) {
            assert!(b.iter().all(|&x| x == bno as u8 + 1), "block {bno}");
        }
        Ok(())
    }

    /// `(requests, blocks)` read from `counted` since `before`.
    fn read_since<D: BlockDevice>(counted: &StatsDisk<D>, before: DiskCounters) -> (u64, u64) {
        let c = counted.counters();
        (
            c.read_requests - before.read_requests,
            c.reads - before.reads,
        )
    }

    #[test]
    fn extent_read_cold_extent_is_one_inner_request() {
        let counted = Arc::new(StatsDisk::new(filled(32)));
        let before = counted.counters();
        let memo = MemoDisk::new(Arc::clone(&counted) as Arc<dyn BlockDevice>);
        read_extent(&memo, 4, 20).unwrap();
        assert_eq!(read_since(&counted, before), (1, 20));
        // the same extent again is all hits
        read_extent(&memo, 4, 20).unwrap();
        assert_eq!(read_since(&counted, before), (1, 20));
        assert_eq!(memo.memo_hits(), 20);
    }

    #[test]
    fn extent_read_fills_one_request_per_missing_run() {
        let counted = Arc::new(StatsDisk::new(filled(32)));
        let memo = MemoDisk::new(Arc::clone(&counted) as Arc<dyn BlockDevice>);
        let mut buf = vec![0u8; BLOCK_SIZE];
        for b in [5u64, 9, 10] {
            memo.read_block(b, &mut buf).unwrap();
        }
        let before = counted.counters();
        // 2..5 | hit 5 | 6..9 | hits 9, 10 | 11..14
        read_extent(&memo, 2, 12).unwrap();
        assert_eq!(read_since(&counted, before), (3, 9));
        assert_eq!(memo.memo_hits(), 3);
    }

    #[test]
    fn extent_read_failed_extent_keeps_nothing_and_the_retry_goes_to_the_device() {
        let plan = DiskFaultPlan::new().fail_reads(FaultTarget::Block(6), TriggerMode::Nth(1));
        let counted = Arc::new(StatsDisk::new(FaultyDisk::with_plan(filled(16), plan)));
        let memo = MemoDisk::new(Arc::clone(&counted) as Arc<dyn BlockDevice>);
        assert!(read_extent(&memo, 3, 8).is_err());
        assert_eq!(counted.counters().reads, 0);
        // the one-shot fault is spent: the same extent is fetched whole,
        // from the device, and only then kept
        let before = counted.counters();
        read_extent(&memo, 3, 8).unwrap();
        assert_eq!(read_since(&counted, before), (1, 8));
        read_extent(&memo, 3, 8).unwrap();
        assert_eq!(read_since(&counted, before), (1, 8));
        assert_eq!(memo.memo_hits(), 8);
        // misshapen buffers fail before anything is read or kept
        let mut short = [0u8; 7];
        assert!(memo.read_blocks(0, &mut [&mut short[..]]).is_err());
        assert!(read_extent(&memo, 14, 4).is_err(), "runs off the device");
        assert_eq!(counted.counters().reads, 8);
    }

    #[test]
    fn extent_read_overlapping_extents_and_single_reads_fetch_each_block_once() {
        const BLOCKS: u64 = 64;
        let counted = Arc::new(StatsDisk::new(filled(BLOCKS)));
        let before = counted.counters().reads;
        let memo = MemoDisk::new(Arc::clone(&counted) as Arc<dyn BlockDevice>);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (memo, start) = (&memo, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..BLOCKS {
                        let first = (round * 7 + t * 13) % BLOCKS;
                        if t % 2 == 0 {
                            let n = ((round + t) % 9 + 1).min(BLOCKS - first);
                            read_extent(memo, first, n as usize).unwrap();
                        } else {
                            let mut buf = vec![0u8; BLOCK_SIZE];
                            memo.read_block(first, &mut buf).unwrap();
                            assert_eq!(buf[0], first as u8 + 1);
                        }
                    }
                });
            }
        });
        // every block the threads touched is now kept: one more sweep
        // reaches the device only for blocks no thread read, so a block
        // fetched twice would push the total past one per block
        read_extent(&memo, 0, BLOCKS as usize).unwrap();
        assert_eq!(counted.counters().reads - before, BLOCKS);
    }

    #[test]
    fn concurrent_readers_of_one_block_share_one_fetch() {
        let counted = Arc::new(StatsDisk::new(filled(16)));
        let before = counted.counters().reads;
        let memo = MemoDisk::new(Arc::clone(&counted) as Arc<dyn BlockDevice>);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut buf = vec![0u8; BLOCK_SIZE];
                    start.wait();
                    for b in 0..16u64 {
                        memo.read_block(b, &mut buf).unwrap();
                        assert_eq!(buf[0], b as u8 + 1);
                    }
                });
            }
        });
        assert_eq!(counted.counters().reads - before, 16);
        assert_eq!(memo.memo_hits(), 64 - 16);
    }
}
