//! A retrying wrapper that absorbs transient device errors.
//!
//! [`RetryDisk`] re-issues failed block operations with a
//! deterministic, seeded exponential backoff and a bounded attempt
//! budget. It only retries errors whose *class* is transient
//! ([`classify_error`]); permanent classes — corruption, internal
//! invariant violations — are surfaced immediately, because repeating
//! the operation cannot change their outcome.
//!
//! The recovery ladder's retry rung retries its contained reboot under
//! this wrapper's budget and reads its shadow phase through a wrapper
//! over the rung's snapshot view that shares the budget
//! ([`RetryDisk::over`]), so a recovery attempt that would otherwise
//! die to a one-shot injected (or real) I/O hiccup instead absorbs it
//! and completes. Determinism matters there: given the same seed and the
//! same error sequence, the backoff schedule is identical run to run,
//! which keeps the fault campaigns reproducible.

use crate::device::{BlockDevice, Extent, IoPhase};
use rae_telemetry::{DevOp, EventKind, Telemetry};
use rae_vfs::{FsError, FsResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Retry-relevant classification of a device error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The operation may succeed if re-issued (I/O failures: bus
    /// resets, timeouts, injected device errors).
    Transient,
    /// Re-issuing cannot help (corruption, invariant violations,
    /// anything that is a property of the data rather than the
    /// transfer).
    Permanent,
}

/// Classify an error by its [`FsError`] class.
///
/// Only [`FsError::IoFailed`] is transient: it is the class real
/// devices report for the retryable failures (and the class every
/// injected device error uses). Everything else — corruption, internal
/// errors, specified errors leaking through a device wrapper — is
/// permanent.
#[must_use]
pub fn classify_error(e: &FsError) -> ErrorClass {
    match e {
        FsError::IoFailed { .. } => ErrorClass::Transient,
        _ => ErrorClass::Permanent,
    }
}

/// Retry budget and backoff schedule for a [`RetryDisk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in nanoseconds; doubles per
    /// retry.
    pub base_backoff_ns: u64,
    /// Cap on any single backoff, in nanoseconds.
    pub max_backoff_ns: u64,
    /// Seed for the deterministic jitter sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ns: 10_000,   // 10 µs
            max_backoff_ns: 1_000_000, // 1 ms
            seed: 0,
        }
    }
}

/// Snapshot of a [`RetryDisk`]'s counters. An operation is one request,
/// however many blocks it moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryStats {
    /// Individual re-issued attempts (excludes every first attempt).
    pub retries: u64,
    /// Operations that failed at least once but succeeded within the
    /// budget — the faults the wrapper absorbed.
    pub absorbed: u64,
    /// Operations that exhausted the attempt budget (the final error
    /// was returned).
    pub exhausted: u64,
    /// Operations surfaced immediately on a permanent-class error.
    pub permanent: u64,
}

/// A wrapper that retries transient-class failures of the wrapped
/// device with deterministic exponential backoff.
pub struct RetryDisk<D> {
    inner: D,
    budget: Arc<Budget>,
}

/// A [`RetryDisk`]'s policy, backoff jitter and counters, shared with
/// the wrappers [`RetryDisk::over`] makes from it.
struct Budget {
    policy: RetryPolicy,
    rng: parking_lot::Mutex<SmallRng>,
    retries: AtomicU64,
    absorbed: AtomicU64,
    exhausted: AtomicU64,
    permanent: AtomicU64,
    telemetry: OnceLock<Arc<Telemetry>>,
}

impl<D: std::fmt::Debug> std::fmt::Debug for RetryDisk<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryDisk")
            .field("inner", &self.inner)
            .field("policy", &self.budget.policy)
            .field("retries", &self.budget.retries.load(Ordering::Relaxed))
            .finish()
    }
}

impl<D: BlockDevice> RetryDisk<D> {
    /// Wrap `inner` with the default policy.
    #[must_use]
    pub fn new(inner: D) -> RetryDisk<D> {
        RetryDisk::with_policy(inner, RetryPolicy::default())
    }

    /// Wrap `inner` with `policy`.
    #[must_use]
    pub fn with_policy(inner: D, policy: RetryPolicy) -> RetryDisk<D> {
        RetryDisk {
            inner,
            budget: Arc::new(Budget {
                policy,
                rng: parking_lot::Mutex::new(SmallRng::seed_from_u64(policy.seed)),
                retries: AtomicU64::new(0),
                absorbed: AtomicU64::new(0),
                exhausted: AtomicU64::new(0),
                permanent: AtomicU64::new(0),
                telemetry: OnceLock::new(),
            }),
        }
    }

    /// Wrap `inner` under this wrapper's policy, counting into its
    /// [`RetryDisk::stats`]: one budget over two devices, such as a
    /// device and a snapshot view taken of it later.
    #[must_use]
    pub fn over<E: BlockDevice>(&self, inner: E) -> RetryDisk<E> {
        RetryDisk {
            inner,
            budget: Arc::clone(&self.budget),
        }
    }

    /// Attach a telemetry handle: absorbed and exhausted retry budgets
    /// become flight-recorder events. First call wins.
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.budget.telemetry.set(telemetry);
    }

    /// Current counter values.
    #[must_use]
    pub fn stats(&self) -> RetryStats {
        let b = &self.budget;
        RetryStats {
            retries: b.retries.load(Ordering::Relaxed),
            absorbed: b.absorbed.load(Ordering::Relaxed),
            exhausted: b.exhausted.load(Ordering::Relaxed),
            permanent: b.permanent.load(Ordering::Relaxed),
        }
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> RetryPolicy {
        self.budget.policy
    }

    /// Access the wrapped device.
    #[must_use]
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Backoff before retry number `retry` (1-based): exponential from
    /// the base, capped, plus seeded jitter of up to a quarter of the
    /// step so lockstep retriers spread out deterministically.
    fn backoff(&self, retry: u32) {
        let shift = retry.saturating_sub(1).min(32);
        let step = self
            .budget
            .policy
            .base_backoff_ns
            .saturating_mul(1u64 << shift)
            .min(self.budget.policy.max_backoff_ns);
        let jitter = if step >= 4 {
            self.budget.rng.lock().gen_range(0..=step / 4)
        } else {
            0
        };
        Self::wait_ns(step.saturating_add(jitter));
    }

    fn wait_ns(ns: u64) {
        if ns == 0 {
            return;
        }
        // Same policy as FaultyDisk's latency model: OS-resolvable
        // waits sleep, sub-timer waits spin for precision.
        const SLEEP_THRESHOLD_NS: u64 = 20_000;
        if ns >= SLEEP_THRESHOLD_NS {
            std::thread::sleep(std::time::Duration::from_nanos(ns));
            return;
        }
        let start = Instant::now();
        while u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX) < ns {
            std::hint::spin_loop();
        }
    }

    /// Run `op` — a device-bound operation issued above this wrapper,
    /// such as a whole contained reboot — under this wrapper's budget
    /// and backoff, counted in its [`RetryDisk::stats`] like a read.
    ///
    /// # Errors
    ///
    /// The last error once the budget is spent, or the first permanent
    /// one.
    pub fn retrying<T>(&self, op: impl FnMut() -> FsResult<T>) -> FsResult<T> {
        self.with_retries(DevOp::Read, op)
    }

    fn with_retries<T>(&self, dev_op: DevOp, mut op: impl FnMut() -> FsResult<T>) -> FsResult<T> {
        let b = &self.budget;
        let budget = b.policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match op() {
                Ok(v) => {
                    if attempt > 1 {
                        b.absorbed.fetch_add(1, Ordering::Relaxed);
                        if let Some(t) = b.telemetry.get() {
                            t.event(
                                EventKind::RetryAbsorbed,
                                u64::from(attempt),
                                dev_op.code(),
                                0,
                            );
                        }
                    }
                    return Ok(v);
                }
                Err(e) if classify_error(&e) == ErrorClass::Permanent => {
                    b.permanent.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
                Err(e) if attempt >= budget => {
                    b.exhausted.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = b.telemetry.get() {
                        t.event(
                            EventKind::RetryExhausted,
                            u64::from(attempt),
                            dev_op.code(),
                            0,
                        );
                    }
                    return Err(e);
                }
                Err(_) => {
                    b.retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff(attempt);
                }
            }
        }
    }
}

impl<D: BlockDevice> BlockDevice for RetryDisk<D> {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        self.with_retries(DevOp::Read, || self.inner.read_block(bno, buf))
    }

    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
        self.with_retries(DevOp::Write, || self.inner.write_block(bno, buf))
    }

    // An extent or a batch is retried whole: re-reading refills every
    // buffer, and re-writing blocks that already landed is idempotent.
    fn read_blocks(&self, start: u64, bufs: &mut [&mut [u8]]) -> FsResult<()> {
        self.with_retries(DevOp::Read, || self.inner.read_blocks(start, bufs))
    }

    fn write_blocks(&self, extents: &[Extent<'_>]) -> FsResult<()> {
        self.with_retries(DevOp::Write, || self.inner.write_blocks(extents))
    }

    fn flush(&self) -> FsResult<()> {
        self.with_retries(DevOp::Flush, || self.inner.flush())
    }

    fn set_phase(&self, phase: IoPhase) {
        self.inner.set_phase(phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BLOCK_SIZE;
    use crate::faulty::{DiskFaultPlan, FaultEvent, FaultTarget, FaultyDisk, TriggerMode};
    use crate::mem::MemDisk;

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ns: 10,
            max_backoff_ns: 100,
            seed: 7,
        }
    }

    #[test]
    fn absorbs_nth_read_error() {
        let plan = DiskFaultPlan::new().fail_reads(FaultTarget::Block(1), TriggerMode::Nth(1));
        let inner = FaultyDisk::with_plan(MemDisk::new(4), plan);
        inner.write_block(1, &vec![5u8; BLOCK_SIZE]).unwrap();
        // the write consumed no read-rule hits; arm is still live
        let d = RetryDisk::with_policy(inner, fast_policy());

        let mut buf = vec![0u8; BLOCK_SIZE];
        d.read_block(1, &mut buf).unwrap();
        assert_eq!(buf[0], 5);
        let s = d.stats();
        assert_eq!(s.retries, 1);
        assert_eq!(s.absorbed, 1);
        assert_eq!(s.exhausted, 0);
    }

    #[test]
    fn absorbs_transient_write_and_flush_errors() {
        let plan = DiskFaultPlan::new()
            .fail_writes(FaultTarget::Any, TriggerMode::Nth(1))
            .fail_flushes(TriggerMode::Nth(1));
        let d = RetryDisk::with_policy(FaultyDisk::with_plan(MemDisk::new(4), plan), fast_policy());
        d.write_block(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        d.flush().unwrap();
        assert_eq!(d.stats().absorbed, 2);
    }

    #[test]
    fn retries_a_transient_mid_extent_failure() {
        let plan = DiskFaultPlan::new()
            .fail_writes(FaultTarget::Any, TriggerMode::Nth(3))
            .fail_reads(FaultTarget::Any, TriggerMode::Nth(2));
        let d = RetryDisk::with_policy(FaultyDisk::with_plan(MemDisk::new(8), plan), fast_policy());
        let images: Vec<Vec<u8>> = (1..=5).map(|b| vec![b; BLOCK_SIZE]).collect();
        let bufs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
        d.write_blocks(&[Extent {
            start: 2,
            bufs: &bufs,
        }])
        .unwrap();
        let mut back: Vec<Vec<u8>> = (0..5).map(|_| vec![0u8; BLOCK_SIZE]).collect();
        let mut refs: Vec<&mut [u8]> = back.iter_mut().map(Vec::as_mut_slice).collect();
        d.read_blocks(2, &mut refs).unwrap();
        assert_eq!(back, images, "every block landed and read back");
        let s = d.stats();
        assert_eq!((s.retries, s.absorbed, s.exhausted), (2, 2, 0));
    }

    #[test]
    fn retries_an_extent_batch_whole_across_a_mid_batch_failure() {
        // the 6th block of the batch (block 9, in its second extent)
        // fails once; the retry rewrites the batch and every block lands
        let plan = DiskFaultPlan::new().fail_writes(FaultTarget::Any, TriggerMode::Nth(6));
        let faulty = FaultyDisk::with_plan(MemDisk::new(16), plan);
        let d = RetryDisk::with_policy(faulty, fast_policy());
        let images: Vec<Vec<u8>> = (1..=8).map(|b| vec![b; BLOCK_SIZE]).collect();
        let bufs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
        let bnos = [1, 2, 3, 4, 8, 9, 12, 13];
        d.write_blocks(&Extent::runs(&bnos, &bufs)).unwrap();
        let s = d.stats();
        assert_eq!((s.retries, s.absorbed, s.exhausted), (1, 1, 0));
        assert_eq!(d.inner().take_events(), [FaultEvent::WriteError(9)]);
        let image = d.inner().inner().snapshot();
        for (bno, want) in bnos.iter().zip(&images) {
            let at = *bno as usize * BLOCK_SIZE;
            assert_eq!(&image[at..at + BLOCK_SIZE], &want[..], "block {bno}");
        }
    }

    #[test]
    fn persistent_error_exhausts_bounded_budget() {
        let plan = DiskFaultPlan::new().fail_reads(FaultTarget::Any, TriggerMode::Always);
        let inner = FaultyDisk::with_plan(MemDisk::new(2), plan);
        let d = RetryDisk::with_policy(inner, fast_policy());

        let mut buf = vec![0u8; BLOCK_SIZE];
        assert!(d.read_block(0, &mut buf).is_err());
        let s = d.stats();
        assert_eq!(s.retries, 3, "budget of 4 attempts = 3 retries");
        assert_eq!(s.exhausted, 1);
        assert_eq!(s.absorbed, 0);
        assert_eq!(
            d.inner().injected_faults(),
            4,
            "all attempts reached the device"
        );
    }

    #[test]
    fn permanent_class_not_retried() {
        struct Corrupting(MemDisk);
        impl BlockDevice for Corrupting {
            fn block_count(&self) -> u64 {
                self.0.block_count()
            }
            fn read_block(&self, _bno: u64, _buf: &mut [u8]) -> FsResult<()> {
                Err(FsError::Corrupted {
                    detail: "bad checksum".into(),
                })
            }
            fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
                self.0.write_block(bno, buf)
            }
            fn flush(&self) -> FsResult<()> {
                self.0.flush()
            }
        }
        let d = RetryDisk::with_policy(Corrupting(MemDisk::new(2)), fast_policy());
        let mut buf = vec![0u8; BLOCK_SIZE];
        assert!(matches!(
            d.read_block(0, &mut buf),
            Err(FsError::Corrupted { .. })
        ));
        let s = d.stats();
        assert_eq!(s.retries, 0);
        assert_eq!(s.permanent, 1);
    }

    #[test]
    fn classification_by_error_class() {
        assert_eq!(
            classify_error(&FsError::IoFailed { detail: "x".into() }),
            ErrorClass::Transient
        );
        assert_eq!(
            classify_error(&FsError::Corrupted { detail: "x".into() }),
            ErrorClass::Permanent
        );
        assert_eq!(
            classify_error(&FsError::Internal { detail: "x".into() }),
            ErrorClass::Permanent
        );
    }

    #[test]
    fn a_wrapper_over_another_device_counts_into_one_budget() {
        let plan = DiskFaultPlan::new().fail_reads(FaultTarget::Any, TriggerMode::Nth(1));
        let d = RetryDisk::with_policy(FaultyDisk::with_plan(MemDisk::new(2), plan), fast_policy());
        let plan = DiskFaultPlan::new().fail_reads(FaultTarget::Any, TriggerMode::Always);
        let other = d.over(FaultyDisk::with_plan(MemDisk::new(2), plan));
        let mut buf = vec![0u8; BLOCK_SIZE];
        d.read_block(0, &mut buf).unwrap();
        assert!(other.read_block(0, &mut buf).is_err());
        assert_eq!(other.policy(), d.policy());
        let s = d.stats();
        assert_eq!((s.retries, s.absorbed, s.exhausted), (4, 1, 1));
        assert_eq!(other.stats(), s);
    }

    #[test]
    fn transparent_when_no_errors() {
        let d = RetryDisk::new(MemDisk::new(4));
        d.write_block(2, &vec![9u8; BLOCK_SIZE]).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        d.read_block(2, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
        assert_eq!(d.stats(), RetryStats::default());
    }
}
