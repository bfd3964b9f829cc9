//! A read-once snapshot view for cold recovery.
//!
//! The shadow filesystem keeps no block cache by design, so a cold
//! recovery rung — `fsck`, the shadow load, and constrained replay of
//! the retained log — used to fetch the same bitmap, inode-table and
//! directory blocks from the device thousands of times. [`MemoDisk`]
//! removes the repetition *below* the shadow: the first successful read
//! of a block is kept, every later read of it is a copy out of memory.
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
/// different blocks proceed in parallel.
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
    device_reads: AtomicU64,
    memo_hits: AtomicU64,
}

impl std::fmt::Debug for MemoDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoDisk")
            .field("device_reads", &self.device_reads())
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
            device_reads: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
        }
    }

    /// Reads forwarded to the wrapped device that succeeded — one per
    /// distinct block read through this view.
    #[must_use]
    pub fn device_reads(&self) -> u64 {
        self.device_reads.load(Ordering::Relaxed)
    }

    /// Reads answered from the memo without touching the device.
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

    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        check_buf(buf.len())?;
        let slot = Arc::clone(self.slots.lock().entry(bno).or_default());
        let mut image = slot.lock();
        match image.as_deref() {
            Some(kept) => {
                buf.copy_from_slice(kept);
                self.memo_hits.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                // an error leaves the slot empty: failures are not memoised
                self.inner.read_block(bno, buf)?;
                self.device_reads.fetch_add(1, Ordering::Relaxed);
                *image = Some(Box::from(&*buf));
            }
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
    use crate::stats::StatsDisk;

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
        assert_eq!(memo.device_reads(), 3);
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
        let raw = Arc::new(filled(4));
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
        assert_eq!(memo.device_reads(), 2);
    }

    #[test]
    fn failed_reads_are_not_memoised() {
        let plan = DiskFaultPlan::new().fail_reads(FaultTarget::Block(2), TriggerMode::Nth(1));
        let faulty = Arc::new(FaultyDisk::with_plan(filled(4), plan));
        let memo = MemoDisk::new(Arc::clone(&faulty) as Arc<dyn BlockDevice>);
        let mut buf = vec![0u8; BLOCK_SIZE];
        assert!(memo.read_block(2, &mut buf).is_err());
        assert_eq!(memo.device_reads(), 0);
        // the one-shot fault is spent: the same read now succeeds, from
        // the device, and only then is kept
        memo.read_block(2, &mut buf).unwrap();
        assert_eq!(buf[0], 3);
        memo.read_block(2, &mut buf).unwrap();
        assert_eq!((memo.device_reads(), memo.memo_hits()), (1, 1));
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
        assert_eq!(memo.device_reads(), 1);
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
        assert_eq!(memo.device_reads() + memo.memo_hits(), 64);
    }
}
