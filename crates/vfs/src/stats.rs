//! Lock-free operation counters shared by filesystems and harnesses.

use crate::ops::OpKind;
use crate::slot::Striped;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// One slot's share of an [`OpCounters`].
#[derive(Debug, Default)]
struct Counts {
    counts: [AtomicU64; OpKind::ALL.len()],
    errors: [AtomicU64; OpKind::ALL.len()],
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// Per-kind operation counters plus byte totals.
///
/// All methods take `&self` and are safe to call concurrently; counters
/// use relaxed atomics (they are statistics, not synchronization). They
/// are striped by thread slot ([`crate::slot`]): a thread bumps only
/// its own slot's copy, so two threads counting never write a cache
/// line in common, and a reader sums the slots (exact once the
/// counting threads are done).
#[derive(Debug, Default)]
pub struct OpCounters {
    slots: Striped<Counts>,
}

impl OpCounters {
    /// Create zeroed counters.
    #[must_use]
    pub fn new() -> OpCounters {
        OpCounters::default()
    }

    fn idx(kind: OpKind) -> usize {
        OpKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("OpKind::ALL covers every kind")
    }

    fn sum(&self, field: impl Fn(&Counts) -> &AtomicU64) -> u64 {
        self.slots
            .iter()
            .map(|c| field(c).load(Ordering::Relaxed))
            .sum()
    }

    /// Record one completed operation of `kind`.
    pub fn record(&self, kind: OpKind) {
        self.slots.mine().counts[Self::idx(kind)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one failed operation of `kind`.
    pub fn record_error(&self, kind: OpKind) {
        self.slots.mine().errors[Self::idx(kind)].fetch_add(1, Ordering::Relaxed);
    }

    /// Add to the bytes-read total.
    pub fn add_bytes_read(&self, n: u64) {
        self.slots.mine().bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Add to the bytes-written total.
    pub fn add_bytes_written(&self, n: u64) {
        self.slots
            .mine()
            .bytes_written
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Completed operations of `kind`.
    #[must_use]
    pub fn count(&self, kind: OpKind) -> u64 {
        let i = Self::idx(kind);
        self.sum(|c| &c.counts[i])
    }

    /// Failed operations of `kind`.
    #[must_use]
    pub fn error_count(&self, kind: OpKind) -> u64 {
        let i = Self::idx(kind);
        self.sum(|c| &c.errors[i])
    }

    /// Total completed operations across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        (0..OpKind::ALL.len())
            .map(|i| self.sum(|c| &c.counts[i]))
            .sum()
    }

    /// Total bytes read.
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.sum(|c| &c.bytes_read)
    }

    /// Total bytes written.
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.sum(|c| &c.bytes_written)
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        for c in self.slots.iter() {
            for n in c.counts.iter().chain(&c.errors) {
                n.store(0, Ordering::Relaxed);
            }
            c.bytes_read.store(0, Ordering::Relaxed);
            c.bytes_written.store(0, Ordering::Relaxed);
        }
    }
}

impl fmt::Display for OpCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ops={} read={}B written={}B",
            self.total(),
            self.bytes_read(),
            self.bytes_written()
        )?;
        for kind in OpKind::ALL {
            let n = self.count(kind);
            let e = self.error_count(kind);
            if n > 0 || e > 0 {
                writeln!(f, "  {:<9} {:>8} ok {:>6} err", kind.name(), n, e)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = OpCounters::new();
        c.record(OpKind::Write);
        c.record(OpKind::Write);
        c.record(OpKind::Read);
        c.record_error(OpKind::Open);
        c.add_bytes_written(4096);
        c.add_bytes_read(100);

        assert_eq!(c.count(OpKind::Write), 2);
        assert_eq!(c.count(OpKind::Read), 1);
        assert_eq!(c.error_count(OpKind::Open), 1);
        assert_eq!(c.total(), 3);
        assert_eq!(c.bytes_written(), 4096);
        assert_eq!(c.bytes_read(), 100);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = OpCounters::new();
        c.record(OpKind::Sync);
        c.add_bytes_read(10);
        c.reset();
        assert_eq!(c.total(), 0);
        assert_eq!(c.bytes_read(), 0);
    }

    #[test]
    fn counters_shared_across_threads() {
        use std::sync::Arc;
        let c = Arc::new(OpCounters::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.record(OpKind::Stat);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.count(OpKind::Stat), 4000);
    }

    /// Striped counts stay exact with more racing threads than slots
    /// (so some share a slot) and every field bumped.
    #[test]
    fn striped_counters_are_exact_under_racing_threads() {
        const THREADS: u64 = crate::slot::SLOTS as u64 + 4;
        const PER: u64 = 5_000;
        let c = OpCounters::new();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (c, start) = (&c, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER {
                        c.record(OpKind::Read);
                        c.add_bytes_read(t + 1);
                        if i % 5 == 0 {
                            c.record_error(OpKind::Write);
                            c.add_bytes_written(1);
                        }
                    }
                });
            }
        });
        assert_eq!(c.count(OpKind::Read), THREADS * PER);
        assert_eq!(c.total(), THREADS * PER);
        assert_eq!(c.error_count(OpKind::Write), THREADS * PER / 5);
        assert_eq!(c.bytes_written(), THREADS * PER / 5);
        assert_eq!(c.bytes_read(), PER * THREADS * (THREADS + 1) / 2);
        c.reset();
        assert_eq!((c.total(), c.bytes_read()), (0, 0));
    }

    #[test]
    fn display_lists_only_nonzero_kinds() {
        let c = OpCounters::new();
        c.record(OpKind::Mkdir);
        let s = c.to_string();
        assert!(s.contains("mkdir"));
        assert!(!s.contains("rmdir"));
    }
}
