//! The file-descriptor table.
//!
//! Descriptor numbering is part of the application-visible state RAE
//! must reconstruct ("file descriptor numbers must be identical to the
//! applications for completed operations"), so allocation follows the
//! spec exactly: lowest free number from [`rae_vfs::FIRST_FD`].
//!
//! The table sits behind one mutex, which every open and close takes.
//! Reads and `fstat` only need a descriptor's inode and flags, and they
//! find them in [`Fds::lookup`]'s per-thread-slot cache
//! ([`rae_vfs::slot`]) instead: a cache is good while the table's
//! generation, which every change bumps, is the one it was filled at.
//! So a read hit takes only its own slot's lock, and while no descriptor
//! is opened or closed no two threads' lookups write a common line.

use parking_lot::{Mutex, MutexGuard};
use rae_vfs::slot::Striped;
use rae_vfs::{Fd, FsError, FsResult, InodeNo, OpenFlags, FIRST_FD, MAX_OPEN_FILES};
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One open descriptor. The opening path is retained for diagnostics
/// and fault-trigger contexts (it is not used for resolution — the
/// inode is authoritative); it is shared, so a copy of the entry
/// allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FdEntry {
    pub(crate) ino: InodeNo,
    pub(crate) flags: OpenFlags,
    pub(crate) path: Arc<str>,
}

#[derive(Debug, Default)]
pub(crate) struct FdTable {
    map: BTreeMap<Fd, FdEntry>,
}

impl FdTable {
    /// Allocate the lowest free descriptor for `ino`.
    pub(crate) fn alloc(&mut self, ino: InodeNo, flags: OpenFlags, path: &str) -> FsResult<Fd> {
        if self.map.len() >= MAX_OPEN_FILES {
            return Err(FsError::TooManyOpenFiles);
        }
        let mut candidate = FIRST_FD;
        for &fd in self.map.keys() {
            if fd.0 > candidate {
                break;
            }
            if fd.0 >= candidate {
                candidate = fd.0 + 1;
            }
        }
        let fd = Fd(candidate);
        self.map.insert(
            fd,
            FdEntry {
                ino,
                flags,
                path: path.into(),
            },
        );
        Ok(fd)
    }

    /// Install a specific descriptor (recovery hand-off path).
    pub(crate) fn install(
        &mut self,
        fd: Fd,
        ino: InodeNo,
        flags: OpenFlags,
        path: &str,
    ) -> FsResult<()> {
        if self.map.contains_key(&fd) {
            return Err(FsError::Internal {
                detail: format!("descriptor {fd} installed twice"),
            });
        }
        self.map.insert(
            fd,
            FdEntry {
                ino,
                flags,
                path: path.into(),
            },
        );
        Ok(())
    }

    pub(crate) fn get(&self, fd: Fd) -> FsResult<FdEntry> {
        self.map.get(&fd).cloned().ok_or(FsError::BadFd)
    }

    pub(crate) fn close(&mut self, fd: Fd) -> FsResult<FdEntry> {
        self.map.remove(&fd).ok_or(FsError::BadFd)
    }

    pub(crate) fn has_open(&self, ino: InodeNo) -> bool {
        self.map.values().any(|e| e.ino == ino)
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// All open descriptors, in descriptor order.
    pub(crate) fn entries(&self) -> Vec<(Fd, FdEntry)> {
        self.map.iter().map(|(&fd, e)| (fd, e.clone())).collect()
    }
}

/// The descriptor table plus a per-slot cache of its lookups (see the
/// module docs).
#[derive(Debug, Default)]
pub(crate) struct Fds {
    table: Mutex<FdTable>,
    /// Bumped by every change to `table`, before its lock drops.
    generation: AtomicU64,
    cached: Striped<Mutex<Cached>>,
}

/// One slot's lookups, good while the table is at `generation`.
#[derive(Debug, Default)]
struct Cached {
    generation: u64,
    by_fd: Vec<Option<(InodeNo, OpenFlags)>>,
}

/// A change to the table: bumps its generation when dropped.
pub(crate) struct FdsWrite<'a> {
    table: MutexGuard<'a, FdTable>,
    generation: &'a AtomicU64,
}

impl Deref for FdsWrite<'_> {
    type Target = FdTable;

    fn deref(&self) -> &FdTable {
        &self.table
    }
}

impl DerefMut for FdsWrite<'_> {
    fn deref_mut(&mut self) -> &mut FdTable {
        &mut self.table
    }
}

impl Drop for FdsWrite<'_> {
    fn drop(&mut self) {
        // runs before the table's lock drops: a lookup that sees the old
        // generation may return the old entry, but the change that
        // replaces it has not returned yet
        self.generation.fetch_add(1, Ordering::Release);
    }
}

impl Fds {
    /// The inode and open flags behind `fd`, from the calling thread's
    /// slot while the table has not changed since the slot saw it.
    pub(crate) fn lookup(&self, fd: Fd) -> FsResult<(InodeNo, OpenFlags)> {
        let generation = self.generation.load(Ordering::Acquire);
        let mut cached = self.cached.mine().lock();
        if cached.generation != generation {
            cached.generation = generation;
            cached.by_fd.clear();
        }
        let i = fd.0 as usize;
        if let Some(&Some(hit)) = cached.by_fd.get(i) {
            return Ok(hit);
        }
        // filled from a table at least as new as `generation` (every
        // change bumps it under the table lock), so at worst the next
        // lookup finds a newer generation and fills again
        let entry = self.table.lock().get(fd)?;
        if cached.by_fd.len() <= i {
            cached.by_fd.resize(i + 1, None);
        }
        cached.by_fd[i] = Some((entry.ino, entry.flags));
        Ok((entry.ino, entry.flags))
    }

    /// The table, to read.
    pub(crate) fn read(&self) -> MutexGuard<'_, FdTable> {
        self.table.lock()
    }

    /// The table, to change.
    pub(crate) fn write(&self) -> FdsWrite<'_> {
        FdsWrite {
            table: self.table.lock(),
            generation: &self.generation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_free_allocation() {
        let mut t = FdTable::default();
        let a = t.alloc(InodeNo(2), OpenFlags::RDONLY, "/a").unwrap();
        let b = t.alloc(InodeNo(3), OpenFlags::RDONLY, "/b").unwrap();
        assert_eq!((a, b), (Fd(FIRST_FD), Fd(FIRST_FD + 1)));
        t.close(a).unwrap();
        let c = t.alloc(InodeNo(4), OpenFlags::RDONLY, "/c").unwrap();
        assert_eq!(c, Fd(FIRST_FD));
        assert_eq!(&*t.get(c).unwrap().path, "/c");
    }

    #[test]
    fn install_specific_descriptor() {
        let mut t = FdTable::default();
        t.install(Fd(7), InodeNo(5), OpenFlags::RDWR, "/x").unwrap();
        assert_eq!(t.get(Fd(7)).unwrap().ino, InodeNo(5));
        assert!(t.install(Fd(7), InodeNo(6), OpenFlags::RDWR, "/y").is_err());
        // allocation skips over installed descriptors
        for expect in [3, 4, 5, 6, 8] {
            let fd = t.alloc(InodeNo(9), OpenFlags::RDONLY, "/z").unwrap();
            assert_eq!(fd, Fd(expect));
        }
    }

    #[test]
    fn open_tracking() {
        let mut t = FdTable::default();
        let fd = t.alloc(InodeNo(2), OpenFlags::RDONLY, "/a").unwrap();
        assert!(t.has_open(InodeNo(2)));
        assert!(!t.has_open(InodeNo(3)));
        t.close(fd).unwrap();
        assert!(!t.has_open(InodeNo(2)));
        assert_eq!(t.close(fd), Err(FsError::BadFd));
    }

    #[test]
    fn fd_lookup_cache_follows_every_change() {
        let fds = Fds::default();
        let fd = fds
            .write()
            .alloc(InodeNo(2), OpenFlags::RDONLY, "/a")
            .unwrap();
        assert_eq!(fds.lookup(fd), Ok((InodeNo(2), OpenFlags::RDONLY)));
        assert_eq!(fds.lookup(fd), Ok((InodeNo(2), OpenFlags::RDONLY)));
        fds.write().close(fd).unwrap();
        assert_eq!(fds.lookup(fd), Err(FsError::BadFd));
        let again = fds
            .write()
            .alloc(InodeNo(3), OpenFlags::RDWR, "/b")
            .unwrap();
        assert_eq!(again, fd, "the lowest free number again");
        assert_eq!(fds.lookup(fd), Ok((InodeNo(3), OpenFlags::RDWR)));
        fds.write().clear();
        assert_eq!(fds.lookup(fd), Err(FsError::BadFd));
    }

    /// Threads on other slots never see an entry older than a change
    /// that has returned: one thread rebinds a descriptor to ever newer
    /// inodes and publishes each once its change is done, and readers
    /// that saw a publication look the descriptor up.
    #[test]
    fn fd_lookup_is_never_older_than_a_finished_change() {
        use std::sync::atomic::AtomicU32;
        const REBINDS: u32 = 5_000;
        let fds = Fds::default();
        let fd = fds
            .write()
            .alloc(InodeNo(1), OpenFlags::RDONLY, "/f")
            .unwrap();
        let published = AtomicU32::new(1);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| loop {
                    let done = published.load(Ordering::Acquire);
                    let (ino, _) = fds.lookup(fd).expect("the descriptor stays open");
                    assert!(ino.0 >= done, "{ino} is older than finished {done}");
                    if done == REBINDS {
                        break;
                    }
                });
            }
            for ino in 2..=REBINDS {
                let mut table = fds.write();
                table.close(fd).unwrap();
                table
                    .install(fd, InodeNo(ino), OpenFlags::RDONLY, "/f")
                    .unwrap();
                drop(table);
                published.store(ino, Ordering::Release);
            }
        });
    }

    #[test]
    fn exhaustion() {
        let mut t = FdTable::default();
        for _ in 0..MAX_OPEN_FILES {
            t.alloc(InodeNo(2), OpenFlags::RDONLY, "/a").unwrap();
        }
        assert_eq!(
            t.alloc(InodeNo(2), OpenFlags::RDONLY, "/a"),
            Err(FsError::TooManyOpenFiles)
        );
        assert_eq!(t.len(), MAX_OPEN_FILES);
    }
}
