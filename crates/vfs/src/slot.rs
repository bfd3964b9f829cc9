//! Per-thread slots: the read side of a lock, and the counters a hot
//! path bumps, striped over [`SLOTS`] cache-padded copies, so that two
//! threads on different slots write no cache line in common.
//!
//! A thread claims the lowest free slot the first time it asks for one
//! and gives it back when it exits, so up to [`SLOTS`] live threads each
//! own a slot of their own. Threads beyond that share slots round-robin:
//! they contend with each other as they would on one lock or counter,
//! and nothing else changes.
//!
//! [`SlotLock`] is a reader-writer lock built from one `std` `RwLock`
//! per slot. A reader locks only its own slot, so read-mostly traffic on
//! two cores touches two cache lines that never travel between them; a
//! writer locks every slot, in index order, and so excludes every
//! reader.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

/// Slots per striped lock or counter.
pub const SLOTS: usize = 16;

/// `T` alone on its cache line: 128 bytes, the pair of lines the
/// adjacent-line prefetcher of current x86 parts moves together.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// One bit per slot: set while a live thread owns it.
static CLAIMED: AtomicU64 = AtomicU64::new(0);
/// Round-robin cursor for the threads that find every slot owned.
static SHARED_NEXT: AtomicUsize = AtomicUsize::new(0);

/// A thread's slot, given back on thread exit if the thread owned it.
struct Claim {
    slot: usize,
    owned: bool,
}

impl Claim {
    fn take() -> Claim {
        let all = u64::MAX >> (64 - SLOTS);
        let mut cur = CLAIMED.load(Ordering::Relaxed);
        loop {
            let free = !cur & all;
            if free == 0 {
                let slot = SHARED_NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS;
                return Claim { slot, owned: false };
            }
            let slot = free.trailing_zeros() as usize;
            match CLAIMED.compare_exchange_weak(
                cur,
                cur | 1 << slot,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Claim { slot, owned: true },
                Err(now) => cur = now,
            }
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if self.owned {
            CLAIMED.fetch_and(!(1 << self.slot), Ordering::Relaxed);
        }
    }
}

thread_local! {
    static CLAIM: Claim = Claim::take();
}

/// The calling thread's slot, in `0..SLOTS`. A thread whose
/// thread-locals are already being torn down gets slot 0.
#[must_use]
pub fn thread_slot() -> usize {
    CLAIM.try_with(|c| c.slot).unwrap_or(0)
}

/// One `T` per slot; a thread works on its own (see the module docs).
/// A reader of the whole sums or scans [`Striped::iter`].
#[derive(Debug)]
pub struct Striped<T>([CachePadded<T>; SLOTS]);

impl<T: Default> Default for Striped<T> {
    fn default() -> Self {
        Striped(std::array::from_fn(|_| CachePadded::default()))
    }
}

impl<T> Striped<T> {
    /// The calling thread's copy.
    #[must_use]
    pub fn mine(&self) -> &T {
        &self.0[thread_slot()]
    }

    /// Every slot's copy.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|c| &c.0)
    }
}

/// A reader-writer lock with one `RwLock` per slot (see the module
/// docs). Not reentrant on the read side: like any `std` `RwLock`, a
/// thread that reads it twice can deadlock against a waiting writer.
#[derive(Debug)]
pub struct SlotLock {
    slots: [CachePadded<RwLock<()>>; SLOTS],
}

impl Default for SlotLock {
    fn default() -> Self {
        SlotLock::new()
    }
}

/// A read hold on one slot of a [`SlotLock`].
#[must_use = "the slot is unlocked when the guard drops"]
#[derive(Debug)]
pub struct SlotReadGuard<'a> {
    _held: RwLockReadGuard<'a, ()>,
}

/// A write hold on every slot of a [`SlotLock`].
#[must_use = "the slots are unlocked when the guard drops"]
#[derive(Debug)]
pub struct SlotWriteGuard<'a> {
    _held: [RwLockWriteGuard<'a, ()>; SLOTS],
}

impl SlotLock {
    /// An unlocked lock.
    #[must_use]
    pub fn new() -> SlotLock {
        SlotLock {
            slots: std::array::from_fn(|_| CachePadded(RwLock::new(()))),
        }
    }

    /// Lock the calling thread's slot shared, parking while a writer
    /// holds or waits on it.
    pub fn read(&self) -> SlotReadGuard<'_> {
        self.read_at(thread_slot())
    }

    /// [`SlotLock::read`] without the wait: `None` while a writer holds
    /// or waits on the calling thread's slot.
    pub fn try_read(&self) -> Option<SlotReadGuard<'_>> {
        self.try_read_at(thread_slot())
    }

    /// Lock every slot exclusively, in index order. A panic while the
    /// guard is held poisons nothing (the lock guards no data): the
    /// next holder goes ahead.
    pub fn write(&self) -> SlotWriteGuard<'_> {
        SlotWriteGuard {
            _held: std::array::from_fn(|i| {
                self.slots[i]
                    .write()
                    .unwrap_or_else(PoisonError::into_inner)
            }),
        }
    }

    fn read_at(&self, slot: usize) -> SlotReadGuard<'_> {
        SlotReadGuard {
            _held: self.slots[slot]
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        }
    }

    fn try_read_at(&self, slot: usize) -> Option<SlotReadGuard<'_>> {
        let held = match self.slots[slot].try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(SlotReadGuard { _held: held })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Barrier};
    use std::thread;
    use std::time::{Duration, Instant};

    /// Poll `cond` until it holds or five seconds pass.
    fn eventually(mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            thread::sleep(Duration::from_millis(1));
        }
        false
    }

    #[test]
    fn slot_writer_excludes_a_reader_on_every_slot() {
        let lock = SlotLock::new();
        let w = lock.write();
        for slot in 0..SLOTS {
            assert!(lock.try_read_at(slot).is_none(), "slot {slot} readable");
        }
        drop(w);
        for slot in 0..SLOTS {
            assert!(lock.try_read_at(slot).is_some(), "slot {slot} still shut");
        }
    }

    #[test]
    fn slot_readers_on_different_slots_do_not_exclude_each_other() {
        let lock = SlotLock::new();
        let guards: Vec<_> = (0..SLOTS).map(|s| lock.read_at(s)).collect();
        assert!(lock.try_read_at(0).is_some(), "a slot takes two readers");
        drop(guards);
    }

    #[test]
    fn slot_try_read_fails_while_a_writer_waits_on_its_slot() {
        let lock = SlotLock::new();
        let held = lock.read_at(3);
        thread::scope(|s| {
            let writer = s.spawn(|| drop(lock.write()));
            // the writer holds 0..3 and waits on 3 behind `held`
            assert!(
                eventually(|| lock.try_read_at(3).is_none()),
                "try_read on the awaited slot kept succeeding"
            );
            assert!(lock.try_read_at(0).is_none(), "the writer holds slot 0");
            assert!(!writer.is_finished(), "the writer got past a reader");
            drop(held);
            writer.join().unwrap();
        });
        assert!(lock.try_read_at(3).is_some());
    }

    #[test]
    fn slot_parked_reader_wakes_when_the_writer_drops() {
        let lock = SlotLock::new();
        let w = lock.write();
        let inside = AtomicBool::new(false);
        let (about_to_read, asked) = mpsc::channel();
        thread::scope(|s| {
            let reader = s.spawn(|| {
                about_to_read.send(()).unwrap();
                let _g = lock.read();
                inside.store(true, Ordering::SeqCst);
            });
            asked.recv().unwrap();
            // the reader is asking for its slot; give it time to park
            // (whenever it runs, it must not get past the writer)
            thread::sleep(Duration::from_millis(20));
            assert!(
                !inside.load(Ordering::SeqCst),
                "a reader got past the writer"
            );
            drop(w);
            reader.join().unwrap();
        });
        assert!(inside.load(Ordering::SeqCst));
    }

    /// More live threads than slots: each still gets a slot in range,
    /// the lock still excludes every one of them, and the counters stay
    /// exact.
    #[test]
    fn slot_more_threads_than_slots() {
        const THREADS: usize = SLOTS + 8;
        const PER: u64 = 2_000;
        let lock = SlotLock::new();
        let count = Striped::<AtomicU64>::default();
        let inside = AtomicU64::new(0);
        let start = Barrier::new(THREADS);
        thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    assert!(thread_slot() < SLOTS);
                    for i in 0..PER {
                        if i % 100 == 0 {
                            let _w = lock.write();
                            assert_eq!(inside.load(Ordering::SeqCst), 0, "a reader inside");
                        } else {
                            let _r = lock.read();
                            inside.fetch_add(1, Ordering::SeqCst);
                            count.mine().fetch_add(1, Ordering::Relaxed);
                            inside.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        let total: u64 = count.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, THREADS as u64 * (PER - PER / 100));
    }

    #[test]
    fn slot_writer_survives_a_panic_under_the_lock() {
        let lock = SlotLock::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _w = lock.write();
            panic!("under the write lock");
        }));
        assert!(r.is_err());
        drop(lock.write());
        assert!(lock.try_read().is_some());
    }
}
