//! A blk-mq-flavoured asynchronous write-back engine.
//!
//! The base filesystem's page cache hands the dirty blocks it evicts to
//! a [`WritebackQueue`], which distributes them over several hardware-queue
//! worker threads (requests for the same block always land on the same
//! queue, preserving per-block ordering — as blk-mq does per hctx).
//! Write errors are reported *asynchronously*: they surface at the next
//! [`WritebackQueue::barrier`], exactly like write-back errors surfacing
//! at `fsync` time in Linux.
//!
//! # The idle fast path
//!
//! Most barriers find the queue empty: a journal commit runs one in
//! front of every commit block, and only evictions of dirty pages queue
//! anything. Draining an empty queue orders nothing (only the flush
//! does), so [`WritebackQueue::drain`] returns at once when every write
//! sent so far has completed, and sends no message to any worker.
//! `submitted` counts a write before its send (and takes it back if the
//! send fails), `completed` after its device write, so `completed <=
//! submitted` at all times. The drain loads `completed` (Acquire) and
//! only then `submitted`: the completions it read were all counted as
//! submissions by then, so equal counts mean every write submitted
//! before the drain began has completed, and the Acquire makes each
//! one's error slot visible to the barrier. Read the other way round, a
//! submission made after the first load could complete before the
//! second and stand in for an older write still in flight.

use crate::device::BlockDevice;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use rae_vfs::{FsError, FsResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration for a [`WritebackQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Number of worker threads (hardware queues).
    pub nr_queues: usize,
    /// Bounded per-queue depth; submission blocks when full
    /// (backpressure, like a full submission ring).
    pub queue_depth: usize,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig {
            nr_queues: 2,
            queue_depth: 256,
        }
    }
}

enum Msg {
    Write { bno: u64, data: Vec<u8> },
    Barrier(Sender<()>),
}

/// Multi-queue asynchronous write-back over a shared [`BlockDevice`].
///
/// Dropping the queue drains and joins all workers.
///
/// Error reporting is per-queue (each worker records into its own slot,
/// first error wins), so a failing queue never contends with healthy
/// queues — and cache-miss eviction traffic from concurrent readers
/// never serializes on a global error lock.
pub struct WritebackQueue {
    senders: Vec<Sender<Msg>>,
    workers: Vec<JoinHandle<()>>,
    errors: Vec<Arc<Mutex<Option<FsError>>>>,
    submitted: AtomicU64,
    completed: Arc<AtomicU64>,
    device: Arc<dyn BlockDevice>,
}

impl std::fmt::Debug for WritebackQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WritebackQueue")
            .field("nr_queues", &self.senders.len())
            .field("submitted", &self.submitted.load(Ordering::Relaxed))
            .field("completed", &self.completed.load(Ordering::Relaxed))
            .finish()
    }
}

impl WritebackQueue {
    /// Start workers over `device` with `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.nr_queues` or `config.queue_depth` is zero.
    #[must_use]
    pub fn new(device: Arc<dyn BlockDevice>, config: QueueConfig) -> WritebackQueue {
        assert!(config.nr_queues > 0 && config.queue_depth > 0);
        let completed = Arc::new(AtomicU64::new(0));
        let mut senders = Vec::with_capacity(config.nr_queues);
        let mut workers = Vec::with_capacity(config.nr_queues);
        let mut errors = Vec::with_capacity(config.nr_queues);

        for qi in 0..config.nr_queues {
            let (tx, rx): (Sender<Msg>, Receiver<Msg>) = bounded(config.queue_depth);
            let dev = Arc::clone(&device);
            let err_slot: Arc<Mutex<Option<FsError>>> = Arc::new(Mutex::new(None));
            let errs = Arc::clone(&err_slot);
            let done = Arc::clone(&completed);
            let handle = std::thread::Builder::new()
                .name(format!("rae-wbq-{qi}"))
                .spawn(move || {
                    for msg in rx {
                        match msg {
                            Msg::Write { bno, data } => {
                                if let Err(e) = write_caught(dev.as_ref(), bno, &data) {
                                    errs.lock().get_or_insert(e);
                                }
                                done.fetch_add(1, Ordering::Release);
                            }
                            Msg::Barrier(ack) => {
                                let _ = ack.send(());
                            }
                        }
                    }
                })
                .expect("spawn write-back worker");
            senders.push(tx);
            workers.push(handle);
            errors.push(err_slot);
        }

        WritebackQueue {
            senders,
            workers,
            errors,
            submitted: AtomicU64::new(0),
            completed,
            device,
        }
    }

    fn route(&self, bno: u64) -> usize {
        (bno % self.senders.len() as u64) as usize
    }

    /// Queue an asynchronous write of `data` to block `bno`.
    ///
    /// Blocks when the target queue is at depth (backpressure).
    ///
    /// # Errors
    ///
    /// [`FsError::Internal`] if the worker pool has shut down.
    pub fn submit(&self, bno: u64, data: Vec<u8>) -> FsResult<()> {
        // counted before the send, so no completion can outrun its count
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let sent = self.senders[self.route(bno)].send(Msg::Write { bno, data });
        if sent.is_err() {
            // never sent, so it never completes: uncounted, or the idle
            // fast path would never see the queue empty again
            self.submitted.fetch_sub(1, Ordering::Relaxed);
        }
        sent.map_err(|_| FsError::Internal {
            detail: "write-back queue is shut down".to_string(),
        })
    }

    /// Completion wait: returns once every previously submitted write
    /// has completed on every queue — at once, without a round trip to
    /// the workers, when none is outstanding (see the module docs). No
    /// flush, and any asynchronous write error stays for the next
    /// [`WritebackQueue::barrier`].
    pub fn drain(&self) {
        // completed first: see the module docs for why the order matters
        let completed = self.completed.load(Ordering::Acquire);
        if completed == self.submitted.load(Ordering::Relaxed) {
            return;
        }
        let (ack_tx, ack_rx) = bounded(self.senders.len());
        let mut expected = 0;
        for s in &self.senders {
            if s.send(Msg::Barrier(ack_tx.clone())).is_ok() {
                expected += 1;
            }
        }
        drop(ack_tx);
        for _ in 0..expected {
            let _ = ack_rx.recv();
        }
    }

    /// Completion + durability barrier.
    ///
    /// Waits for every previously submitted write to complete on every
    /// queue, flushes the device, and reports any asynchronous write
    /// error that occurred since the last barrier.
    ///
    /// # Errors
    ///
    /// The first queued asynchronous write error, or the flush error.
    pub fn barrier(&self) -> FsResult<()> {
        self.drain();
        for slot in &self.errors {
            if let Some(e) = slot.lock().take() {
                return Err(e);
            }
        }
        self.device.flush()
    }

    /// Writes submitted since construction.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Writes completed (successfully or not) since construction.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }
}

/// One device write on a worker, a panic in it caught and reported as
/// [`FsError::IoFailed`]: the write failed, and the worker lives on to
/// serve the writes queued behind it (an uncaught panic would end it
/// for good, and every later write routed to it would be refused).
fn write_caught(dev: &dyn BlockDevice, bno: u64, data: &[u8]) -> FsResult<()> {
    catch_unwind(AssertUnwindSafe(|| dev.write_block(bno, data))).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(FsError::IoFailed {
            detail: format!("write of block {bno} panicked: {msg}"),
        })
    })
}

impl Drop for WritebackQueue {
    fn drop(&mut self) {
        self.senders.clear(); // close channels; workers drain and exit
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BLOCK_SIZE;
    use crate::faulty::{DiskFaultPlan, FaultTarget, FaultyDisk, TriggerMode};
    use crate::mem::MemDisk;

    #[test]
    fn writes_land_after_barrier() {
        let disk = Arc::new(MemDisk::new(16));
        let q = WritebackQueue::new(disk.clone(), QueueConfig::default());
        for i in 0..16u64 {
            q.submit(i, vec![i as u8; BLOCK_SIZE]).unwrap();
        }
        q.barrier().unwrap();
        assert_eq!(q.submitted(), 16);
        assert_eq!(q.completed(), 16);
        for i in 0..16u64 {
            let mut r = vec![0u8; BLOCK_SIZE];
            disk.read_block(i, &mut r).unwrap();
            assert!(r.iter().all(|&b| b == i as u8), "block {i}");
        }
    }

    #[test]
    fn per_block_ordering_last_write_wins() {
        let disk = Arc::new(MemDisk::new(4));
        let q = WritebackQueue::new(
            disk.clone(),
            QueueConfig {
                nr_queues: 4,
                queue_depth: 64,
            },
        );
        for v in 0..100u8 {
            q.submit(2, vec![v; BLOCK_SIZE]).unwrap();
        }
        q.barrier().unwrap();
        let mut r = vec![0u8; BLOCK_SIZE];
        disk.read_block(2, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 99));
    }

    #[test]
    fn async_errors_surface_at_barrier() {
        let plan = DiskFaultPlan::new().fail_writes(FaultTarget::Block(3), TriggerMode::Always);
        let disk: Arc<dyn BlockDevice> = Arc::new(FaultyDisk::with_plan(MemDisk::new(8), plan));
        let q = WritebackQueue::new(disk, QueueConfig::default());
        q.submit(3, vec![1; BLOCK_SIZE]).unwrap();
        let err = q.barrier().unwrap_err();
        assert!(matches!(err, FsError::IoFailed { .. }));
        // error consumed; next barrier is clean
        q.barrier().unwrap();
    }

    #[test]
    fn barrier_on_idle_queue_is_ok() {
        let disk = Arc::new(MemDisk::new(1));
        let q = WritebackQueue::new(disk, QueueConfig::default());
        q.barrier().unwrap();
        q.barrier().unwrap();
    }

    /// A device whose writes take `delay` each; a write to `poison`
    /// panics, and with `kill` set the panic's payload panics again
    /// when the worker drops it, which no catch in the worker survives.
    struct SlowDisk {
        inner: MemDisk,
        delay: std::time::Duration,
        poison: Option<u64>,
        kill: bool,
    }

    /// A panic payload whose drop panics.
    struct KillsItsCatcher;

    impl Drop for KillsItsCatcher {
        fn drop(&mut self) {
            panic!("the payload of a caught panic panicked when dropped");
        }
    }

    impl BlockDevice for SlowDisk {
        fn block_count(&self) -> u64 {
            self.inner.block_count()
        }
        fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
            self.inner.read_block(bno, buf)
        }
        fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
            if Some(bno) == self.poison {
                if self.kill {
                    std::panic::panic_any(KillsItsCatcher);
                }
                panic!("poisoned block {bno} written");
            }
            std::thread::sleep(self.delay);
            self.inner.write_block(bno, buf)
        }
        fn flush(&self) -> FsResult<()> {
            self.inner.flush()
        }
    }

    /// The idle fast path skips the workers, not the error slots: an
    /// error from a write that completed before the barrier began still
    /// surfaces there.
    #[test]
    fn idle_barrier_still_returns_an_earlier_error() {
        let plan = DiskFaultPlan::new().fail_writes(FaultTarget::Block(3), TriggerMode::Always);
        let disk: Arc<dyn BlockDevice> = Arc::new(FaultyDisk::with_plan(MemDisk::new(8), plan));
        let q = WritebackQueue::new(disk, QueueConfig::default());
        q.submit(3, vec![1; BLOCK_SIZE]).unwrap();
        while q.completed() < 1 {
            std::thread::yield_now();
        }
        assert_eq!(q.submitted(), q.completed(), "the queue is idle");
        let err = q.barrier().unwrap_err();
        assert!(matches!(err, FsError::IoFailed { .. }));
        q.barrier().unwrap();
    }

    /// A barrier on one thread after another thread's submits returns
    /// only once every one of them has completed, however slow the
    /// device.
    #[test]
    fn barrier_waits_for_another_threads_submits() {
        const N: u64 = 8;
        let disk = Arc::new(SlowDisk {
            inner: MemDisk::new(N),
            delay: std::time::Duration::from_millis(5),
            poison: None,
            kill: false,
        });
        let q = WritebackQueue::new(disk.clone(), QueueConfig::default());
        let (sent_tx, sent_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                for bno in 0..N {
                    q.submit(bno, vec![bno as u8 + 1; BLOCK_SIZE]).unwrap();
                }
                sent_tx.send(()).unwrap();
            });
            sent_rx.recv().unwrap();
            q.barrier().unwrap();
            assert_eq!(q.completed(), N);
        });
        for bno in 0..N {
            let mut r = vec![0u8; BLOCK_SIZE];
            disk.read_block(bno, &mut r).unwrap();
            assert_eq!(r[0], bno as u8 + 1, "block {bno}");
        }
    }

    /// A device write that panics fails that write, not its worker: the
    /// panic surfaces at the next barrier as `IoFailed`, the write counts
    /// as completed (so the idle fast path sees the queue empty again),
    /// and the next write routed to the same worker lands.
    #[test]
    fn a_panicking_write_fails_at_the_barrier_and_the_worker_lives_on() {
        let disk = Arc::new(SlowDisk {
            inner: MemDisk::new(4),
            delay: std::time::Duration::ZERO,
            poison: Some(0),
            kill: false,
        });
        let q = WritebackQueue::new(
            disk.clone(),
            QueueConfig {
                nr_queues: 1,
                queue_depth: 4,
            },
        );
        q.submit(0, vec![1; BLOCK_SIZE]).unwrap();
        let err = q.barrier().unwrap_err();
        assert!(
            matches!(&err, FsError::IoFailed { detail } if detail.contains("poisoned block 0")),
            "{err:?}"
        );
        assert_eq!(q.completed(), q.submitted(), "the panicked write completed");
        q.submit(1, vec![2; BLOCK_SIZE]).unwrap();
        q.barrier().unwrap();
        let mut r = vec![0u8; BLOCK_SIZE];
        disk.read_block(1, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 2), "the next write landed");
    }

    /// A write whose send fails (its worker is gone) is not counted as
    /// submitted: it will never complete, and counting it would keep
    /// `submitted` above `completed` for good.
    #[test]
    fn a_write_that_was_not_sent_is_not_counted() {
        let disk = Arc::new(SlowDisk {
            inner: MemDisk::new(4),
            delay: std::time::Duration::ZERO,
            poison: Some(0),
            kill: true,
        });
        let q = WritebackQueue::new(
            disk,
            QueueConfig {
                nr_queues: 1,
                queue_depth: 4,
            },
        );
        q.submit(0, vec![1; BLOCK_SIZE]).unwrap(); // the worker panics
        let refused = (0..10_000).find_map(|_| {
            let before = q.submitted();
            match q.submit(1, vec![2; BLOCK_SIZE]) {
                Ok(()) => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    None
                }
                Err(_) => Some(before),
            }
        });
        let before = refused.expect("a submit to the dead worker fails");
        assert_eq!(q.submitted(), before, "the refused write was counted");
        q.drain(); // the one lost write is waited for by no one
    }

    #[test]
    fn drop_joins_workers() {
        let disk = Arc::new(MemDisk::new(4));
        let q = WritebackQueue::new(disk.clone(), QueueConfig::default());
        q.submit(0, vec![5; BLOCK_SIZE]).unwrap();
        drop(q); // must drain, not deadlock
        let mut r = vec![0u8; BLOCK_SIZE];
        disk.read_block(0, &mut r).unwrap();
        assert_eq!(r[0], 5);
    }

    #[test]
    fn concurrent_submitters() {
        let disk = Arc::new(MemDisk::new(64));
        let q = Arc::new(WritebackQueue::new(
            disk.clone(),
            QueueConfig {
                nr_queues: 3,
                queue_depth: 8,
            },
        ));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..16u64 {
                    q.submit(t * 16 + i, vec![0xAA; BLOCK_SIZE]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.barrier().unwrap();
        assert_eq!(q.completed(), 64);
    }
}
