//! The `BaseFs` type: lifecycle, internal machinery, and the
//! [`FileSystem`] implementation.
//!
//! # Locking protocol (§4g of DESIGN.md)
//!
//! The write path is sharded. A mutation takes, in order:
//!
//! 1. `fence` (shared) — a global rename fence. `rename` is the one
//!    operation that rewrites the namespace *between* directories, so
//!    it takes `fence` exclusively and runs alone; every other
//!    operation (mutating or reading) takes it shared and never sees a
//!    rename in flight.
//! 2. `txn` (shared) — the journal-transaction lock. Mutations hold it
//!    shared for their whole critical section; the group-commit leader
//!    takes it exclusively, so a commit sees no half-finished
//!    mutation.
//! 3. The **inode stripe locks** for the op's write set, acquired in
//!    ascending stripe order (deadlock-free). Each op declares the
//!    inodes it mutates (e.g. `unlink` = {parent, victim}) and holds
//!    their stripes exclusively.
//! 4. Leaf mutexes (`fds`, `alloc`, `jmgr`, `commit_state`) — short
//!    capture/release holds only, never nested with one another.
//!
//! Because path resolution runs before the write-set is known, every
//! mutation resolves optimistically, locks its stripes, then
//! *revalidates* (the resolved entry must still be there) and retries
//! from scratch on a miss. Readers take one stripe shared at a time
//! while walking and retry a bounded number of times on `Corrupted`
//! (a benign race with a concurrent unlink reads as transient
//! corruption; real corruption persists across retries).
//!
//! Known relaxation: an unlocked path walk can race inode reuse and
//! return a just-reallocated inode's data. Reads are unrecorded, and
//! the next-fit allocation hint makes immediate reuse rare; the
//! recorded mutation history is unaffected.

use crate::alloc::Allocators;
use crate::dentry::DentryCache;
use crate::fdtable::{FdEntry, FdTable};
use crate::icache::InodeCache;
use crate::jmgr::JournalMgr;
use crate::pagecache::{CacheStats, PageCache, PageClass};
use parking_lot::{Condvar, Mutex, RwLock, RwLockWriteGuard};
use rae_blockdev::{BlockDevice, Extent, QueueConfig, BLOCK_SIZE};
use rae_faults::{FaultAction, FaultRegistry, OpContext, Site};
use rae_fsformat::dirent::DirBlock;
use rae_fsformat::inode::{
    locate_block, BlockPtrLoc, DiskInode, INODES_PER_BLOCK, INODE_SIZE, PTRS_PER_BLOCK,
};
use rae_fsformat::journal::{self, ReplayReport};
use rae_fsformat::{Geometry, MountState, RecoveryDelta, Superblock};
use rae_vfs::{
    split_parent, split_path, DirEntry, Fd, FileStat, FileSystem, FileType, FsError,
    FsGeometryInfo, FsResult, InodeNo, OpCounters, OpKind, OpOutcome, OpenFlags, SetAttr,
    MAX_FILE_SIZE, MAX_LINKS, ROOT_INO,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of inode lock stripes. Inode `i` maps to stripe
/// `i % ILOCK_STRIPES`; two files contend only on a stripe collision.
const ILOCK_STRIPES: usize = 1024;
/// Optimistic-resolution retries before a mutation gives up with
/// [`FsError::Busy`]. A retry needs a concurrent racing rename/unlink
/// of the same entry, so in practice one retry is already rare.
const MUT_RETRIES: usize = 64;
/// Reader retries on [`FsError::Corrupted`] (transient under races
/// with unlink; persistent when the metadata really is damaged).
const READ_RETRIES: usize = 3;

/// Assigns completed mutations their position in a global operation
/// log. Installed by the RAE runtime via [`BaseFs::set_sequencer`]; the
/// base filesystem calls it at each operation's *sequence point* —
/// inside the op's locks, at the moment the mutation's effects become
/// observable to concurrent operations — so log order equals
/// observation order and a replay of the log reproduces the tree.
pub trait OpSequencer: Send + Sync {
    /// Record `outcome` and return its sequence number, or `None` when
    /// the operation should not be logged (e.g. recovery-path calls).
    fn sequenced(&self, outcome: &OpOutcome) -> Option<u64>;
}

/// Dentry-cache capacity in entries.
const DENTRY_CACHE_ENTRIES: usize = 4096;

/// Configuration of a [`BaseFs`] instance.
#[derive(Debug, Clone)]
pub struct BaseFsConfig {
    /// Page-cache capacity in blocks.
    pub page_cache_blocks: usize,
    /// Write-back queue configuration.
    pub queue: QueueConfig,
    /// Fault registry consulted by the bug hooks (empty = no faults).
    pub faults: FaultRegistry,
    /// Commit the running transaction when this many dirty metadata
    /// pages accumulate (bounds journal transaction size).
    pub max_dirty_meta: usize,
    /// Telemetry handle shared with the page cache and journal manager
    /// (journal-commit and cache-fill timings, stale-eviction events).
    pub telemetry: Option<Arc<rae_telemetry::Telemetry>>,
}

impl Default for BaseFsConfig {
    fn default() -> BaseFsConfig {
        BaseFsConfig {
            page_cache_blocks: 2048,
            queue: QueueConfig::default(),
            faults: FaultRegistry::new(),
            max_dirty_meta: 192,
            telemetry: None,
        }
    }
}

/// Point-in-time performance statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseFsStats {
    /// Page-cache counters.
    pub cache: CacheStats,
    /// Dentry-cache hits.
    pub dentry_hits: u64,
    /// Dentry-cache misses.
    pub dentry_misses: u64,
    /// Journal transactions committed.
    pub journal_commits: u64,
    /// Journal checkpoints performed.
    pub journal_checkpoints: u64,
    /// Open descriptors.
    pub open_fds: usize,
    /// Pages resident in the page cache.
    pub resident_pages: usize,
}

/// Group-commit coordination state (under its own mutex, paired with
/// [`BaseFs::commit_cv`]).
#[derive(Debug, Default)]
pub(crate) struct CommitState {
    /// A leader is driving a commit right now.
    leader_running: bool,
    /// The running leader's batch is still accepting joiners (it flips
    /// closed when the leader acquires the transaction lock).
    batch_open: bool,
    /// Callers folded into the forming batch (leader included).
    joined: u64,
    /// Generation counter of the latest batch to start.
    gen_started: u64,
    /// Generation counter of the latest batch to finish.
    gen_completed: u64,
    /// Every batch up to this generation is durable.
    ok_through: u64,
    /// The latest batch that failed, with its error.
    last_failure: Option<(u64, FsError)>,
}

impl CommitState {
    /// File the result of batch `gen`, which has just finished.
    pub(crate) fn finish(&mut self, gen: u64, result: FsResult<()>) {
        self.gen_completed = gen;
        match result {
            Ok(()) => self.ok_through = gen,
            Err(e) => self.last_failure = Some((gen, e)),
        }
    }

    /// The result of finished batch `gen`. A failed commit re-dirties
    /// everything it took, so a later success covers it: the batch is
    /// durable iff a success came at or after it, and otherwise every
    /// batch since it failed and the latest failure is its answer.
    pub(crate) fn result_of(&self, gen: u64) -> FsResult<()> {
        debug_assert!(gen <= self.gen_completed, "batch {gen} has not finished");
        if self.ok_through >= gen {
            return Ok(());
        }
        match &self.last_failure {
            Some((failed, e)) => {
                debug_assert!(*failed >= gen, "batch {gen} failed after the last failure");
                Err(e.clone())
            }
            None => Err(FsError::Internal {
                detail: format!("group-commit batch {gen} finished with no result"),
            }),
        }
    }
}

/// Blocks and inodes freed by an operation, applied in one batch at
/// the op's end (after its sequence point, locks still held). Deferring
/// the frees keeps the free→reuse ordering hazard out of the sharded
/// critical sections: a free drops the journal's pending image *before*
/// the allocator can hand the block to anyone else.
#[derive(Debug, Default)]
struct Frees {
    blocks: Vec<u64>,
    inos: Vec<InodeNo>,
}

impl Frees {
    fn is_empty(&self) -> bool {
        self.blocks.is_empty() && self.inos.is_empty()
    }
}

/// Outcome of revalidating an optimistic resolution under locks.
enum Reval {
    /// The resolution still holds; proceed.
    Ok,
    /// A concurrent mutation invalidated it; drop the locks and retry.
    Retry,
}

/// A worst-case block reservation, returned to the allocator on drop.
struct ResGuard<'a> {
    fs: &'a BaseFs,
    n: u64,
}

impl Drop for ResGuard<'_> {
    fn drop(&mut self) {
        if self.n > 0 {
            self.fs.alloc.lock().release_reservation(self.n);
        }
    }
}

/// The performance-oriented base filesystem. See the crate docs for the
/// architecture and the RAE integration surface, and the module docs
/// for the locking protocol.
pub struct BaseFs {
    dev: Arc<dyn BlockDevice>,
    geo: Geometry,
    pages: PageCache,
    icache: InodeCache,
    dcache: DentryCache,
    fds: Mutex<FdTable>,
    alloc: Mutex<Allocators>,
    jmgr: Mutex<JournalMgr>,
    commit_state: Mutex<CommitState>,
    commit_cv: Condvar,
    /// Journal-transaction lock: shared by mutations, exclusive for
    /// commit leaders.
    txn: RwLock<()>,
    /// Global rename fence: exclusive for `rename`, shared otherwise.
    fence: RwLock<()>,
    /// Per-inode stripe locks (see the module docs).
    ilocks: Box<[RwLock<()>]>,
    clock: AtomicU64,
    mount_count: u32,
    counters: OpCounters,
    faults: FaultRegistry,
    max_dirty_meta: usize,
    cur_seq: AtomicU64,
    persisted_seq: AtomicU64,
    sequencer: RwLock<Option<Arc<dyn OpSequencer>>>,
    /// Kept so the journal manager rebuilt by a contained reboot can be
    /// re-attached to the same telemetry stream.
    telemetry: Option<Arc<rae_telemetry::Telemetry>>,
}

impl std::fmt::Debug for BaseFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaseFs")
            .field("geometry", &self.geo)
            .field("pages", &self.pages)
            .finish()
    }
}

impl BaseFs {
    /// Mount a filesystem from `dev`, replaying the journal.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] if the superblock or journal header fail
    /// validation; device errors.
    ///
    /// # Panics
    ///
    /// An armed [`Site::MountImage`] bug with a panic effect fires here
    /// (the crafted-image crash class).
    pub fn mount(dev: Arc<dyn BlockDevice>, config: BaseFsConfig) -> FsResult<BaseFs> {
        let faults = config.faults.clone();
        if let Some(action) = faults.check(&OpContext::new(OpKind::Mount, Site::MountImage)) {
            Self::act_static(action)?;
        }
        let sb = Superblock::read_from(dev.as_ref())?;
        let geo = sb.geometry;
        if dev.block_count() < geo.total_blocks {
            return Err(FsError::Corrupted {
                detail: "device smaller than the filesystem".to_string(),
            });
        }
        let replay = journal::replay(dev.as_ref(), &geo)?;
        let mut sb = Superblock::read_from(dev.as_ref())?;
        sb.mount_state = MountState::Dirty;
        sb.mount_count += 1;
        sb.write_to(dev.as_ref())?;
        dev.flush()?;

        let pages = PageCache::new(Arc::clone(&dev), config.page_cache_blocks, config.queue);
        if let Some(t) = &config.telemetry {
            pages.set_telemetry(Arc::clone(t));
        }
        let mut jmgr = JournalMgr::new(geo, replay.next_seq);
        jmgr.set_telemetry(config.telemetry.clone());
        let alloc = Allocators::load(geo, &pages)?;
        let ilocks: Vec<RwLock<()>> = (0..ILOCK_STRIPES).map(|_| RwLock::new(())).collect();
        Ok(BaseFs {
            dev,
            geo,
            pages,
            icache: InodeCache::new(),
            dcache: DentryCache::new(DENTRY_CACHE_ENTRIES),
            fds: Mutex::new(FdTable::new()),
            alloc: Mutex::new(alloc),
            jmgr: Mutex::new(jmgr),
            commit_state: Mutex::new(CommitState::default()),
            commit_cv: Condvar::new(),
            txn: RwLock::new(()),
            fence: RwLock::new(()),
            ilocks: ilocks.into_boxed_slice(),
            clock: AtomicU64::new(0),
            mount_count: sb.mount_count,
            counters: OpCounters::new(),
            faults,
            max_dirty_meta: config.max_dirty_meta.max(8),
            cur_seq: AtomicU64::new(0),
            persisted_seq: AtomicU64::new(0),
            sequencer: RwLock::new(None),
            telemetry: config.telemetry,
        })
    }

    /// Cleanly unmount: commit, checkpoint, mark the superblock clean.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn unmount(self) -> FsResult<()> {
        let _txn = self.txn.write();
        self.commit_with_txn_held()?;
        self.jmgr.lock().checkpoint(self.dev.as_ref())?;
        self.pages.checkpoint_done();
        let (free_inodes, free_blocks) = {
            let alloc = self.alloc.lock();
            (alloc.free_inodes, alloc.free_blocks)
        };
        let sb = Superblock {
            geometry: self.geo,
            free_inodes,
            free_blocks,
            mount_state: MountState::Clean,
            mount_count: self.mount_count,
        };
        sb.write_to(self.dev.as_ref())?;
        self.dev.flush()?;
        Ok(())
    }

    /// Commit the running transaction and checkpoint the journal: all
    /// durable state reaches its home location, so a reader of the raw
    /// device (e.g. an auditing shadow) sees the complete filesystem
    /// without replaying the journal.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn checkpoint(&self) -> FsResult<()> {
        let _txn = self.txn.write();
        self.commit_with_txn_held()?;
        self.jmgr.lock().checkpoint(self.dev.as_ref())?;
        self.pages.checkpoint_done();
        Ok(())
    }

    /// Simulate a kernel crash: every in-memory structure vanishes
    /// without a commit. Writes already handed to the write-back queue
    /// may still land (as on real hardware); dirty cached state is
    /// lost. This is the baseline recovery path experiment E4 compares
    /// RAE against.
    pub fn crash(self) {
        drop(self);
    }

    // ------------------------------------------------------------------
    // RAE integration surface
    // ------------------------------------------------------------------

    /// Contained reboot (§3.2): discard all in-memory state and rebuild
    /// from the trusted on-disk state, replaying the journal.
    /// Applications keep running; descriptors are restored afterwards
    /// via [`BaseFs::absorb_recovery`].
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] / device errors if the on-disk state
    /// itself cannot be trusted — recovery is then impossible.
    pub fn contained_reboot(&self) -> FsResult<ReplayReport> {
        // recovery-path fault site: tooling can fail while the system
        // is already degraded (the nested-fault campaign, E8)
        let ctx = OpContext::new(OpKind::Sync, Site::RecoveryReboot);
        let _ = self.hook(&ctx)?;
        let _fence = self.fence.write();
        let _txn = self.txn.write();
        // Quiesce in-flight write-back, then drop every cached page —
        // nothing in memory is trusted after an error.
        self.pages.settle()?;
        self.pages.discard_all();
        self.icache.clear();
        self.dcache.clear();
        self.fds.lock().clear();

        let report = journal::replay(self.dev.as_ref(), &self.geo)?;
        *self.alloc.lock() = Allocators::load(self.geo, &self.pages)?;
        let mut jmgr = JournalMgr::new(self.geo, report.next_seq);
        jmgr.set_telemetry(self.telemetry.clone());
        *self.jmgr.lock() = jmgr;
        Ok(report)
    }

    /// Metadata downloading (§3.2): absorb the shadow's reconstructed
    /// state. Block images land in the page cache marked dirty (the
    /// existing journal machinery persists them at the next commit);
    /// the descriptor table is rebuilt with identical numbering. The
    /// delta is consumed: each image is released as soon as the cache
    /// has its page.
    ///
    /// # Errors
    ///
    /// [`FsError::Internal`] on duplicate descriptors; cache errors.
    pub fn absorb_recovery(&self, delta: RecoveryDelta) -> FsResult<()> {
        let ctx = OpContext::new(OpKind::Sync, Site::RecoveryAbsorb);
        let _ = self.hook(&ctx)?;
        let _fence = self.fence.write();
        let _txn = self.txn.write();
        for (bno, img) in delta.meta_blocks {
            if bno == 0 {
                continue; // superblock is rebuilt from the bitmaps below
            }
            self.pages.write(bno, img.to_vec(), PageClass::Meta)?;
        }
        for (bno, img) in delta.data_blocks {
            self.pages.write(bno, img.to_vec(), PageClass::Data)?;
        }
        self.icache.clear();
        self.dcache.clear();
        {
            let mut alloc = self.alloc.lock();
            *alloc = Allocators::load(self.geo, &self.pages)?;
            let mut fds = self.fds.lock();
            fds.clear();
            for rfd in &delta.fd_entries {
                if !alloc.ino_allocated(rfd.ino)? {
                    return Err(FsError::Internal {
                        detail: format!(
                            "recovery delta restores {} on unallocated {}",
                            rfd.fd, rfd.ino
                        ),
                    });
                }
                fds.install(rfd.fd, rfd.ino, rfd.flags, &rfd.path)?;
            }
        }
        Ok(())
    }

    /// Record the sequence number of the operation about to execute
    /// (called by the RAE runtime before each logged operation).
    pub fn note_op_seq(&self, seq: u64) {
        self.cur_seq.fetch_max(seq, Ordering::Relaxed);
    }

    /// Install (or clear) the operation sequencer consulted at each
    /// mutation's sequence point.
    pub fn set_sequencer(&self, sequencer: Option<Arc<dyn OpSequencer>>) {
        *self.sequencer.write() = sequencer;
    }

    /// The persistence barrier: every logged operation with a sequence
    /// number at or below this value is recoverable from disk alone
    /// (journal replay included), so its record can be discarded.
    #[must_use]
    pub fn persisted_seq(&self) -> u64 {
        self.persisted_seq.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The filesystem geometry.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geo
    }

    /// A handle to the underlying device (shared with the shadow).
    #[must_use]
    pub fn device(&self) -> Arc<dyn BlockDevice> {
        Arc::clone(&self.dev)
    }

    /// The fault registry driving this instance's bug hooks.
    #[must_use]
    pub fn fault_registry(&self) -> FaultRegistry {
        self.faults.clone()
    }

    /// Operation counters.
    #[must_use]
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Performance statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> BaseFsStats {
        let (journal_commits, journal_checkpoints) = {
            let jm = self.jmgr.lock();
            (jm.commits(), jm.checkpoints())
        };
        BaseFsStats {
            cache: self.pages.stats(),
            dentry_hits: self.dcache.hits(),
            dentry_misses: self.dcache.misses(),
            journal_commits,
            journal_checkpoints,
            open_fds: self.fds.lock().len(),
            resident_pages: self.pages.resident(),
        }
    }

    /// The page cache (test observability).
    #[cfg(test)]
    pub(crate) fn page_cache(&self) -> &PageCache {
        &self.pages
    }

    /// [`BaseFs::mount`] with the page cache split into `nshards`
    /// shards whatever its size, so a test can evict across shards of
    /// a cache small enough to evict constantly.
    #[cfg(test)]
    pub(crate) fn mount_with_page_shards(
        dev: Arc<dyn BlockDevice>,
        config: BaseFsConfig,
        nshards: usize,
    ) -> FsResult<BaseFs> {
        let (capacity, queue) = (config.page_cache_blocks, config.queue);
        let mut fs = Self::mount(dev, config)?;
        // nothing is dirty yet: the mount's pages can simply be dropped
        fs.pages = PageCache::with_shards(Arc::clone(&fs.dev), capacity, queue, nshards);
        if let Some(t) = &fs.telemetry {
            fs.pages.set_telemetry(Arc::clone(t));
        }
        Ok(fs)
    }

    /// Snapshot of the open-descriptor table (for the RAE recorder).
    #[must_use]
    pub fn fd_snapshot(&self) -> Vec<(Fd, InodeNo, OpenFlags, String)> {
        self.fds
            .lock()
            .entries()
            .into_iter()
            .map(|(fd, e)| (fd, e.ino, e.flags, e.path))
            .collect()
    }

    // ------------------------------------------------------------------
    // Locking
    // ------------------------------------------------------------------

    /// The stripe lock covering `ino`.
    fn stripe(&self, ino: InodeNo) -> &RwLock<()> {
        &self.ilocks[ino.0 as usize % ILOCK_STRIPES]
    }

    /// Exclusively lock the stripes covering a mutation's write set.
    /// Stripes are acquired in ascending index order after dedup, so
    /// concurrent mutations can never deadlock on each other.
    fn lock_stripes(&self, inos: &[InodeNo]) -> Vec<RwLockWriteGuard<'_, ()>> {
        let mut idx: Vec<usize> = inos.iter().map(|i| i.0 as usize % ILOCK_STRIPES).collect();
        idx.sort_unstable();
        idx.dedup();
        let t0 = self.telemetry.as_ref().and_then(|t| t.layer_clock());
        let guards = idx.into_iter().map(|i| self.ilocks[i].write()).collect();
        if let Some(t) = self.telemetry.as_ref() {
            t.layer_observed(rae_telemetry::SpanLayer::LockWait, t0);
        }
        guards
    }

    /// Run a read-only closure, retrying a bounded number of times on
    /// [`FsError::Corrupted`]: a reader racing an unlink can observe a
    /// half-removed file as transient corruption, and the retry sees
    /// the settled state (`NotFound`/`BadFd`). Persistent corruption
    /// still surfaces after the retries are spent.
    fn with_read_retries<T>(&self, f: impl Fn() -> FsResult<T>) -> FsResult<T> {
        let mut last = f();
        for _ in 1..READ_RETRIES {
            match last {
                Err(FsError::Corrupted { .. }) => last = f(),
                r => return r,
            }
        }
        last
    }

    // ------------------------------------------------------------------
    // Sequencing
    // ------------------------------------------------------------------

    /// An operation's sequence point: hand the outcome to the installed
    /// sequencer (if any) at the moment the mutation becomes observable
    /// to concurrent operations, while the op's locks are still held.
    fn sequence(&self, outcome: &OpOutcome) {
        let assigned = {
            let g = self.sequencer.read();
            g.as_ref().and_then(|s| s.sequenced(outcome))
        };
        if let Some(seq) = assigned {
            self.cur_seq.fetch_max(seq, Ordering::Relaxed);
        }
    }

    /// The logical-mtime clock tick.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    // ------------------------------------------------------------------
    // Fault hooks
    // ------------------------------------------------------------------

    fn act_static(action: FaultAction) -> FsResult<bool> {
        match action {
            FaultAction::FailDetected { bug_id } => Err(FsError::DetectedBug { bug_id }),
            FaultAction::Panic { bug_id } => {
                panic!("injected filesystem bug #{bug_id}: simulated kernel BUG()")
            }
            FaultAction::Warn { .. } => Ok(false),
            FaultAction::CorruptSilently { .. } => Ok(true),
            FaultAction::CorruptMetadata { .. } => Ok(false), // handled in hook()
        }
    }

    /// Consult the registry at a hook site. Returns `Ok(true)` when the
    /// operation should corrupt its payload silently.
    ///
    /// # Errors
    ///
    /// [`FsError::DetectedBug`] for detected-error effects.
    fn hook(&self, ctx: &OpContext<'_>) -> FsResult<bool> {
        match self.faults.check(ctx) {
            Some(FaultAction::CorruptMetadata { .. }) => {
                // the memory-scribbler class: a dirty metadata page is
                // silently damaged; validate-on-commit catches it at
                // the next persistence point
                let _ = self.pages.scribble_dirty_meta((
                    self.geo.inode_table_start,
                    self.geo.inode_table_start + self.geo.inode_table_blocks,
                ));
                Ok(false)
            }
            Some(action) => Self::act_static(action),
            None => Ok(false),
        }
    }

    /// Validate metadata images about to be committed: the superblock
    /// must decode, and every inode-table block must hold 16 decodable
    /// slots. Bitmap and directory/indirect images have no per-block
    /// self-description and are covered by the shadow's full checks.
    fn validate_commit_images(&self, images: &[(u64, Vec<u8>)]) -> FsResult<()> {
        let it_start = self.geo.inode_table_start;
        let it_end = it_start + self.geo.inode_table_blocks;
        for (bno, img) in images {
            if *bno == 0 {
                Superblock::decode(img)?;
            } else if (it_start..it_end).contains(bno) {
                for slot in 0..INODES_PER_BLOCK {
                    DiskInode::decode(&img[slot * INODE_SIZE..(slot + 1) * INODE_SIZE]).map_err(
                        |e| FsError::Corrupted {
                            detail: format!(
                                "validate-on-commit: inode table block {bno} slot {slot}: {e}"
                            ),
                        },
                    )?;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Inode access
    // ------------------------------------------------------------------

    fn load_inode_opt(&self, ino: InodeNo) -> FsResult<Option<DiskInode>> {
        if let Some(i) = self.icache.get(ino) {
            return Ok(Some(i));
        }
        let (bno, off) = self.geo.inode_location(ino)?;
        let block = self.pages.read(bno, PageClass::Meta)?;
        let decoded = DiskInode::decode(&block[off..off + INODE_SIZE])?;
        if let Some(i) = decoded {
            self.icache.insert(ino, i);
        }
        Ok(decoded)
    }

    fn load_inode(&self, ino: InodeNo) -> FsResult<DiskInode> {
        self.load_inode_opt(ino)?.ok_or(FsError::Corrupted {
            detail: format!("{ino} referenced but not allocated"),
        })
    }

    /// Cache-quiet inode load for revalidation: consults the caches
    /// but never populates them (a revalidation probe must not plant
    /// state that the retry then trusts).
    fn load_inode_nofill(&self, ino: InodeNo) -> FsResult<Option<DiskInode>> {
        if let Some(i) = self.icache.get(ino) {
            return Ok(Some(i));
        }
        let (bno, off) = self.geo.inode_location(ino)?;
        let block = self.pages.read(bno, PageClass::Meta)?;
        DiskInode::decode(&block[off..off + INODE_SIZE])
    }

    fn store_inode(&self, ino: InodeNo, inode: &DiskInode) -> FsResult<()> {
        let (bno, off) = self.geo.inode_location(ino)?;
        self.pages
            .update(bno, off, &inode.encode(), PageClass::Meta)?;
        self.icache.insert(ino, *inode);
        Ok(())
    }

    fn clear_inode(&self, ino: InodeNo) -> FsResult<()> {
        let (bno, off) = self.geo.inode_location(ino)?;
        self.pages
            .update(bno, off, &[0u8; INODE_SIZE], PageClass::Meta)?;
        self.icache.remove(ino);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Block mapping
    // ------------------------------------------------------------------

    fn read_ptr(&self, bno: u64, slot: usize) -> FsResult<u64> {
        let img = self.pages.read(bno, PageClass::Meta)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&img[slot * 8..slot * 8 + 8]);
        Ok(u64::from_le_bytes(b))
    }

    fn write_ptr(&self, bno: u64, slot: usize, value: u64) -> FsResult<()> {
        self.pages
            .update(bno, slot * 8, &value.to_le_bytes(), PageClass::Meta)
    }

    /// The data block backing file-block `idx` (0 = hole).
    fn get_file_block(&self, inode: &DiskInode, idx: u64) -> FsResult<u64> {
        match locate_block(idx)? {
            BlockPtrLoc::Direct(s) => Ok(inode.direct[s]),
            BlockPtrLoc::Indirect { slot } => {
                if inode.indirect == 0 {
                    Ok(0)
                } else {
                    self.read_ptr(inode.indirect, slot)
                }
            }
            BlockPtrLoc::DoubleIndirect { l1, l2 } => {
                if inode.dindirect == 0 {
                    return Ok(0);
                }
                let l1p = self.read_ptr(inode.dindirect, l1)?;
                if l1p == 0 {
                    Ok(0)
                } else {
                    self.read_ptr(l1p, l2)
                }
            }
        }
    }

    fn alloc_data_block(&self, class: PageClass) -> FsResult<u64> {
        let bno = self.alloc.lock().alloc_block(&self.pages)?;
        self.pages.write(bno, vec![0u8; BLOCK_SIZE], class)?;
        Ok(bno)
    }

    /// Get-or-allocate the data block backing file-block `idx`,
    /// updating the inode's pointers and block count in place. The
    /// caller must store the inode afterwards.
    fn ensure_file_block(&self, inode: &mut DiskInode, idx: u64) -> FsResult<u64> {
        match locate_block(idx)? {
            BlockPtrLoc::Direct(s) => {
                if inode.direct[s] == 0 {
                    inode.direct[s] = self.alloc_data_block(PageClass::Data)?;
                    inode.blocks += 1;
                }
                Ok(inode.direct[s])
            }
            BlockPtrLoc::Indirect { slot } => {
                if inode.indirect == 0 {
                    inode.indirect = self.alloc_data_block(PageClass::Meta)?;
                    inode.blocks += 1;
                }
                let mut ptr = self.read_ptr(inode.indirect, slot)?;
                if ptr == 0 {
                    ptr = self.alloc_data_block(PageClass::Data)?;
                    inode.blocks += 1;
                    self.write_ptr(inode.indirect, slot, ptr)?;
                }
                Ok(ptr)
            }
            BlockPtrLoc::DoubleIndirect { l1, l2 } => {
                if inode.dindirect == 0 {
                    inode.dindirect = self.alloc_data_block(PageClass::Meta)?;
                    inode.blocks += 1;
                }
                let mut l1p = self.read_ptr(inode.dindirect, l1)?;
                if l1p == 0 {
                    l1p = self.alloc_data_block(PageClass::Meta)?;
                    inode.blocks += 1;
                    self.write_ptr(inode.dindirect, l1, l1p)?;
                }
                let mut ptr = self.read_ptr(l1p, l2)?;
                if ptr == 0 {
                    ptr = self.alloc_data_block(PageClass::Data)?;
                    inode.blocks += 1;
                    self.write_ptr(l1p, l2, ptr)?;
                }
                Ok(ptr)
            }
        }
    }

    /// Blocks (data + new indirect blocks) a write to file-blocks
    /// `[start_idx, end_idx)` would have to allocate. Used for the
    /// all-or-nothing `NoSpace` reservation.
    fn count_missing_blocks(
        &self,
        inode: &DiskInode,
        start_idx: u64,
        end_idx: u64,
    ) -> FsResult<u64> {
        let mut need = 0u64;
        let mut need_indirect = inode.indirect == 0;
        let mut need_dindirect = inode.dindirect == 0;
        let mut l1_seen: HashMap<usize, bool> = HashMap::new();
        for idx in start_idx..end_idx {
            match locate_block(idx)? {
                BlockPtrLoc::Direct(s) => {
                    if inode.direct[s] == 0 {
                        need += 1;
                    }
                }
                BlockPtrLoc::Indirect { slot } => {
                    if need_indirect {
                        need += 1;
                        need_indirect = false;
                    }
                    if inode.indirect == 0 || self.read_ptr(inode.indirect, slot)? == 0 {
                        need += 1;
                    }
                }
                BlockPtrLoc::DoubleIndirect { l1, l2 } => {
                    if need_dindirect {
                        need += 1;
                        need_dindirect = false;
                    }
                    let l1_missing = if inode.dindirect == 0 {
                        true
                    } else {
                        match l1_seen.get(&l1) {
                            Some(&m) => m,
                            None => {
                                let m = self.read_ptr(inode.dindirect, l1)? == 0;
                                l1_seen.insert(l1, m);
                                m
                            }
                        }
                    };
                    if l1_missing {
                        if !l1_seen.get(&l1).copied().unwrap_or(false) || inode.dindirect == 0 {
                            // count the L1 block itself once
                            if l1_seen.insert(l1, true) != Some(true) {
                                need += 1;
                            }
                        }
                        need += 1; // the data block
                    } else if self.read_ptr(self.read_ptr(inode.dindirect, l1)?, l2)? == 0 {
                        need += 1;
                    }
                }
            }
        }
        Ok(need)
    }

    // ------------------------------------------------------------------
    // Reservations and deferred frees
    // ------------------------------------------------------------------

    /// Reserve `n` blocks for the running mutation; the reservation is
    /// returned to the allocator when the guard drops.
    ///
    /// All-or-nothing space prechecks are reservations under sharding:
    /// a raw free-count check would let two concurrent mutations both
    /// pass and then collide mid-op in `alloc_block`, failing *after*
    /// partial mutation.
    fn reserve(&self, n: u64) -> FsResult<ResGuard<'_>> {
        if n > 0 {
            self.alloc.lock().reserve_blocks(n)?;
        }
        Ok(ResGuard { fs: self, n })
    }

    /// Reserve the worst-case block need of inserting a `name_len`
    /// entry into `dir` (zero when an existing block has room).
    fn reserve_dir_insert(&self, dir: &DiskInode, name_len: usize) -> FsResult<ResGuard<'_>> {
        for bno in self.dir_blocks(dir)? {
            let db = DirBlock::from_bytes(self.pages.read(bno, PageClass::Meta)?)?;
            if db.fits(name_len) {
                return Ok(ResGuard { fs: self, n: 0 });
            }
        }
        let nb = dir.size / BLOCK_SIZE as u64;
        let need = self.count_missing_blocks(dir, nb, nb + 1)?;
        self.reserve(need)
    }

    /// Apply an operation's deferred frees, in hazard order: drop the
    /// journal's pending images first (a freed block can be
    /// reallocated immediately — possibly as a data block, which
    /// bypasses the journal in ordered mode — and a stale pending
    /// image would overwrite the new contents at the next checkpoint),
    /// then discard the freed blocks' cached metadata pages (a
    /// still-dirty page would be re-journaled by the *next* commit,
    /// recreating the same hazard), then return everything to the
    /// allocator.
    fn apply_frees(&self, frees: &Frees) -> FsResult<()> {
        if frees.is_empty() {
            return Ok(());
        }
        {
            let mut jm = self.jmgr.lock();
            for &b in &frees.blocks {
                jm.drop_pending(b);
            }
        }
        for &b in &frees.blocks {
            self.pages.discard_meta(b);
        }
        let mut alloc = self.alloc.lock();
        for &b in &frees.blocks {
            alloc.free_block(&self.pages, b)?;
        }
        for &i in &frees.inos {
            alloc.free_ino(&self.pages, i)?;
        }
        Ok(())
    }

    /// Free blocks past `new_size` into `frees`, zero the partial
    /// tail, update size and block count. The caller stores the inode
    /// and applies the frees.
    fn truncate_core(
        &self,
        inode: &mut DiskInode,
        new_size: u64,
        frees: &mut Frees,
    ) -> FsResult<()> {
        let old_nb = inode.size.div_ceil(BLOCK_SIZE as u64);
        let new_nb = new_size.div_ceil(BLOCK_SIZE as u64);

        for idx in new_nb..old_nb {
            match locate_block(idx)? {
                BlockPtrLoc::Direct(s) => {
                    if inode.direct[s] != 0 {
                        frees.blocks.push(inode.direct[s]);
                        inode.direct[s] = 0;
                        inode.blocks -= 1;
                    }
                }
                BlockPtrLoc::Indirect { slot } => {
                    if inode.indirect != 0 {
                        let ptr = self.read_ptr(inode.indirect, slot)?;
                        if ptr != 0 {
                            frees.blocks.push(ptr);
                            self.write_ptr(inode.indirect, slot, 0)?;
                            inode.blocks -= 1;
                        }
                    }
                }
                BlockPtrLoc::DoubleIndirect { l1, l2 } => {
                    if inode.dindirect != 0 {
                        let l1p = self.read_ptr(inode.dindirect, l1)?;
                        if l1p != 0 {
                            let ptr = self.read_ptr(l1p, l2)?;
                            if ptr != 0 {
                                frees.blocks.push(ptr);
                                self.write_ptr(l1p, l2, 0)?;
                                inode.blocks -= 1;
                            }
                        }
                    }
                }
            }
        }

        // free indirect structures that became entirely unused
        if new_nb <= 12 && inode.indirect != 0 {
            frees.blocks.push(inode.indirect);
            inode.indirect = 0;
            inode.blocks -= 1;
        }
        if inode.dindirect != 0 {
            let covered = 12 + PTRS_PER_BLOCK as u64;
            if new_nb <= covered {
                // every L1 chain is gone
                for l1 in 0..PTRS_PER_BLOCK {
                    let l1p = self.read_ptr(inode.dindirect, l1)?;
                    if l1p != 0 {
                        frees.blocks.push(l1p);
                        self.write_ptr(inode.dindirect, l1, 0)?;
                        inode.blocks -= 1;
                    }
                }
                frees.blocks.push(inode.dindirect);
                inode.dindirect = 0;
                inode.blocks -= 1;
            } else {
                // free fully-vacated L1 blocks
                let first_live_l1 =
                    ((new_nb - covered).saturating_sub(1) / PTRS_PER_BLOCK as u64 + 1) as usize;
                for l1 in first_live_l1..PTRS_PER_BLOCK {
                    let l1p = self.read_ptr(inode.dindirect, l1)?;
                    if l1p != 0 {
                        frees.blocks.push(l1p);
                        self.write_ptr(inode.dindirect, l1, 0)?;
                        inode.blocks -= 1;
                    }
                }
            }
        }

        // zero the partial tail so a later extension reads zeroes
        if !new_size.is_multiple_of(BLOCK_SIZE as u64) && new_size < inode.size {
            let tail_idx = new_size / BLOCK_SIZE as u64;
            let bno = self.get_file_block(inode, tail_idx)?;
            if bno != 0 {
                let from = (new_size % BLOCK_SIZE as u64) as usize;
                let zeros = vec![0u8; BLOCK_SIZE - from];
                self.pages.update(bno, from, &zeros, PageClass::Data)?;
            }
        }
        inode.size = new_size;
        Ok(())
    }

    /// Free every block of a file/symlink inode and the inode itself
    /// (into `frees`; the entry must already be unpublished).
    fn destroy_inode(
        &self,
        ino: InodeNo,
        inode: &mut DiskInode,
        frees: &mut Frees,
    ) -> FsResult<()> {
        self.truncate_core(inode, 0, frees)?;
        frees.inos.push(ino);
        self.clear_inode(ino)
    }

    // ------------------------------------------------------------------
    // Directories
    // ------------------------------------------------------------------

    /// Allocated block numbers of a directory, in file order.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] on holes or a misshapen size (directories
    /// are always fully allocated, block-aligned files).
    fn dir_blocks(&self, inode: &DiskInode) -> FsResult<Vec<u64>> {
        if !inode.size.is_multiple_of(BLOCK_SIZE as u64) {
            return Err(FsError::Corrupted {
                detail: "directory size not block-aligned".to_string(),
            });
        }
        let nb = inode.size / BLOCK_SIZE as u64;
        let mut out = Vec::with_capacity(nb as usize);
        for idx in 0..nb {
            let bno = self.get_file_block(inode, idx)?;
            if bno == 0 {
                return Err(FsError::Corrupted {
                    detail: "hole inside a directory".to_string(),
                });
            }
            out.push(bno);
        }
        Ok(out)
    }

    fn dir_lookup(&self, dir_ino: InodeNo, name: &str) -> FsResult<Option<InodeNo>> {
        if let Some(ino) = self.dcache.lookup(dir_ino, name) {
            return Ok(Some(ino));
        }
        let dir = self.load_inode(dir_ino)?;
        for bno in self.dir_blocks(&dir)? {
            let db = DirBlock::from_bytes(self.pages.read(bno, PageClass::Meta)?)?;
            if let Some(rec) = db.find(name) {
                self.dcache.insert(dir_ino, name, rec.ino);
                return Ok(Some(rec.ino));
            }
        }
        Ok(None)
    }

    /// Cache-quiet directory lookup for revalidation (no cache fills).
    fn lookup_nofill(&self, dir_ino: InodeNo, name: &str) -> FsResult<Option<InodeNo>> {
        if let Some(ino) = self.dcache.lookup(dir_ino, name) {
            return Ok(Some(ino));
        }
        let dir = self.load_inode_nofill(dir_ino)?.ok_or(FsError::Corrupted {
            detail: format!("{dir_ino} referenced but not allocated"),
        })?;
        if dir.ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        for bno in self.dir_blocks(&dir)? {
            let db = DirBlock::from_bytes(self.pages.read(bno, PageClass::Meta)?)?;
            if let Some(rec) = db.find(name) {
                return Ok(Some(rec.ino));
            }
        }
        Ok(None)
    }

    /// Insert an entry; the caller has checked for duplicates and holds
    /// a reservation covering a possible grow. Stores the directory
    /// inode if it grows.
    fn dir_insert(
        &self,
        dir_ino: InodeNo,
        name: &str,
        ino: InodeNo,
        ftype: FileType,
    ) -> FsResult<()> {
        let ctx = OpContext::new(OpKind::Create, Site::DirModify).with_path(name);
        let _ = self.hook(&ctx)?;

        let mut dir = self.load_inode(dir_ino)?;
        for bno in self.dir_blocks(&dir)? {
            let mut db = DirBlock::from_bytes(self.pages.read(bno, PageClass::Meta)?)?;
            if db.try_insert(name, ino, ftype)? {
                self.pages.write(bno, db.into_bytes(), PageClass::Meta)?;
                self.dcache.insert(dir_ino, name, ino);
                return Ok(());
            }
        }
        // grow the directory by one block
        let nb = dir.size / BLOCK_SIZE as u64;
        let bno = self.ensure_file_block(&mut dir, nb)?;
        let mut db = DirBlock::empty();
        let inserted = db.try_insert(name, ino, ftype)?;
        debug_assert!(inserted);
        self.pages.write(bno, db.into_bytes(), PageClass::Meta)?;
        dir.size += BLOCK_SIZE as u64;
        let now = self.tick();
        dir.mtime = now;
        self.store_inode(dir_ino, &dir)?;
        self.dcache.insert(dir_ino, name, ino);
        Ok(())
    }

    /// Remove an entry; `Ok(true)` if found. Shrinks trailing empty
    /// blocks (freed into `frees`).
    fn dir_remove(&self, dir_ino: InodeNo, name: &str, frees: &mut Frees) -> FsResult<bool> {
        let ctx = OpContext::new(OpKind::Unlink, Site::DirModify).with_path(name);
        let _ = self.hook(&ctx)?;

        let mut dir = self.load_inode(dir_ino)?;
        let blocks = self.dir_blocks(&dir)?;
        let mut found = false;
        for &bno in &blocks {
            let mut db = DirBlock::from_bytes(self.pages.read(bno, PageClass::Meta)?)?;
            if db.remove(name) {
                self.pages.write(bno, db.into_bytes(), PageClass::Meta)?;
                found = true;
                break;
            }
        }
        if !found {
            return Ok(false);
        }
        self.dcache.invalidate(dir_ino, name);
        // shrink trailing empty blocks
        let mut nb = dir.size / BLOCK_SIZE as u64;
        while nb > 0 {
            let last = self.get_file_block(&dir, nb - 1)?;
            if last == 0 {
                break;
            }
            let db = DirBlock::from_bytes(self.pages.read(last, PageClass::Meta)?)?;
            if !db.is_empty() {
                break;
            }
            self.truncate_core(&mut dir, (nb - 1) * BLOCK_SIZE as u64, frees)?;
            nb -= 1;
        }
        let now = self.tick();
        dir.mtime = now;
        self.store_inode(dir_ino, &dir)?;
        Ok(true)
    }

    fn dir_entry_count(&self, inode: &DiskInode) -> FsResult<usize> {
        let mut n = 0;
        for bno in self.dir_blocks(inode)? {
            let db = DirBlock::from_bytes(self.pages.read(bno, PageClass::Meta)?)?;
            n += db.len();
        }
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Path resolution
    // ------------------------------------------------------------------

    /// Resolve a path, taking each directory's stripe shared for the
    /// single step that reads it (one stripe at a time — never two, so
    /// walks cannot deadlock with write-set holders).
    fn resolve_locked(&self, comps: &[&str], fire_hook: bool) -> FsResult<InodeNo> {
        if fire_hook && !comps.is_empty() {
            let joined = comps.join("/");
            let ctx = OpContext::new(OpKind::Stat, Site::PathLookup).with_path(&joined);
            let _ = self.hook(&ctx)?;
        }
        let mut cur = ROOT_INO;
        for comp in comps {
            let _g = self.stripe(cur).read();
            let inode = self.load_inode(cur)?;
            if inode.ftype != FileType::Directory {
                return Err(FsError::NotDir);
            }
            match self.dir_lookup(cur, comp)? {
                Some(next) => cur = next,
                None => return Err(FsError::NotFound),
            }
        }
        Ok(cur)
    }

    /// Resolve a path that must be a directory (the parent side of a
    /// mutation).
    fn resolve_dir(&self, comps: &[&str], fire_hook: bool) -> FsResult<InodeNo> {
        let ino = self.resolve_locked(comps, fire_hook)?;
        let _g = self.stripe(ino).read();
        let inode = self.load_inode(ino)?;
        if inode.ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        Ok(ino)
    }

    /// Lock-free, cache-quiet resolution used only to revalidate an
    /// optimistic walk after the write-set stripes are held.
    fn resolve_quiet(&self, comps: &[&str]) -> FsResult<InodeNo> {
        let mut cur = ROOT_INO;
        for comp in comps {
            cur = self.lookup_nofill(cur, comp)?.ok_or(FsError::NotFound)?;
        }
        Ok(cur)
    }

    /// Revalidate that `comps` still resolves to `parent` now that the
    /// op's stripes are held. The rename fence (held shared by every
    /// non-rename op) guarantees no cross-directory move can interleave
    /// with the probe, so a stable mismatch means a genuine concurrent
    /// create/unlink — retry from the top.
    fn revalidate_parent(&self, comps: &[&str], parent: InodeNo) -> FsResult<Reval> {
        match self.resolve_quiet(comps) {
            Ok(ino) if ino == parent => Ok(Reval::Ok),
            Ok(_) => Ok(Reval::Retry),
            Err(FsError::NotFound | FsError::NotDir | FsError::Corrupted { .. }) => {
                Ok(Reval::Retry)
            }
            Err(e) => Err(e),
        }
    }

    /// Revalidate that `parent` still maps `name` to `child`. Holding
    /// `child`'s stripe exclusively makes the answer stable: removing
    /// that entry (unlink/rmdir) requires the same stripe, and renames
    /// are fenced out entirely.
    fn revalidate_entry(&self, parent: InodeNo, name: &str, child: InodeNo) -> FsResult<Reval> {
        match self.lookup_nofill(parent, name) {
            Ok(Some(ino)) if ino == child => Ok(Reval::Ok),
            Ok(_) => Ok(Reval::Retry),
            Err(FsError::NotDir | FsError::Corrupted { .. }) => Ok(Reval::Retry),
            Err(e) => Err(e),
        }
    }

    /// Whether `target` equals `anc` or lies anywhere below it. Only
    /// called under the exclusive rename fence, so the subtree cannot
    /// change mid-walk.
    fn is_self_or_descendant(&self, anc: InodeNo, target: InodeNo) -> FsResult<bool> {
        if anc == target {
            return Ok(true);
        }
        let mut stack = vec![anc];
        while let Some(cur) = stack.pop() {
            let inode = self.load_inode(cur)?;
            if inode.ftype != FileType::Directory {
                continue;
            }
            for bno in self.dir_blocks(&inode)? {
                let db = DirBlock::from_bytes(self.pages.read(bno, PageClass::Meta)?)?;
                for rec in db.records() {
                    if rec.ino == target {
                        return Ok(true);
                    }
                    if rec.ftype == FileType::Directory {
                        stack.push(rec.ino);
                    }
                }
            }
        }
        Ok(false)
    }

    // ------------------------------------------------------------------
    // Journal group commit
    // ------------------------------------------------------------------

    /// Commit the running transaction, batching with concurrent
    /// committers: the first caller becomes the *leader*, later callers
    /// *join* its batch and park until the leader publishes the shared
    /// result. One journal write persists every batched caller's
    /// metadata at once.
    fn commit_coordinated(&self) -> FsResult<()> {
        let t0 = self.telemetry.as_ref().and_then(|t| t.layer_clock());
        let r = self.commit_coordinated_inner();
        if let Some(t) = self.telemetry.as_ref() {
            t.layer_observed(rae_telemetry::SpanLayer::CommitStall, t0);
        }
        r
    }

    fn commit_coordinated_inner(&self) -> FsResult<()> {
        let my_gen;
        {
            let mut st = self.commit_state.lock();
            loop {
                if st.leader_running && st.batch_open {
                    // join the forming batch and wait for its result
                    let gen = st.gen_started;
                    st.joined += 1;
                    while st.gen_completed < gen {
                        self.commit_cv.wait(&mut st);
                    }
                    return st.result_of(gen);
                }
                if st.leader_running {
                    // batch already sealed: wait for the next opening
                    self.commit_cv.wait(&mut st);
                    continue;
                }
                st.leader_running = true;
                st.batch_open = true;
                st.gen_started += 1;
                st.joined = 1;
                my_gen = st.gen_started;
                break;
            }
        }
        // Leader: drain in-flight mutations by taking the transaction
        // lock exclusively (joiners keep accumulating while we wait).
        let txn = self.txn.write();
        let batch = {
            let mut st = self.commit_state.lock();
            st.batch_open = false;
            st.joined
        };
        // The commit itself can panic (injected `Panic` faults at the
        // JournalCommit site). Followers must still be woken with a
        // result, or they would park forever.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _txn = txn;
            self.commit_with_txn_held()
        }));
        if let Some(t) = self.telemetry.as_ref() {
            t.record_commit_batch(batch);
        }
        let publish = match &result {
            Ok(r) => r.clone(),
            Err(_) => Err(FsError::Internal {
                detail: "journal commit leader panicked".to_string(),
            }),
        };
        {
            let mut st = self.commit_state.lock();
            st.finish(my_gen, publish);
            st.leader_running = false;
        }
        self.commit_cv.notify_all();
        match result {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// The commit body. The caller holds the transaction lock
    /// exclusively, so no mutation is mid-flight: the dirty metadata
    /// set is a consistent cut and `cur_seq` is a true high-water mark.
    fn commit_with_txn_held(&self) -> FsResult<()> {
        let ctx = OpContext::new(OpKind::Sync, Site::JournalCommit);
        let _ = self.hook(&ctx)?;

        // Metadata first: the images outlive the commit (they become the
        // journal's pending homes) and the data batch does not, so
        // nothing the commit frees sits below them in the heap.
        let mut images = self.pages.take_dirty_meta();
        let handed: Vec<u64> = images.iter().map(|&(bno, _)| bno).collect();
        let journaled = !images.is_empty();
        if journaled {
            let (free_inodes, free_blocks) = {
                let alloc = self.alloc.lock();
                (alloc.free_inodes, alloc.free_blocks)
            };
            let sb = Superblock {
                geometry: self.geo,
                free_inodes,
                free_blocks,
                mount_state: MountState::Dirty,
                mount_count: self.mount_count,
            };
            images.push((0, sb.encode()));
            // validate-on-sync: the paper's fault-model assumption that
            // errors are detected before being persisted to disk
            if let Err(e) = self.validate_commit_images(&images) {
                self.pages.commit_failed(&handed);
                return Err(e);
            }
        }
        // ordered mode: the file data goes in the record's batch and is
        // on disk, with every evicted copy the write-back queue holds,
        // before the commit block that makes the metadata durable
        let data = self.pages.take_dirty_data();
        let (bnos, bufs): (Vec<u64>, Vec<&[u8]>) =
            data.iter().map(|(bno, d)| (*bno, d.as_slice())).unzip();
        let committed = self.jmgr.lock().commit(
            self.dev.as_ref(),
            &Extent::runs(&bnos, &bufs),
            images,
            || self.pages.settle(),
        );
        // the taken pages stay pinned until here: only a durable commit
        // may let one be written home, and a failed one re-dirties them.
        // A journal that filled up was checkpointed on the way, so every
        // earlier image is home: clear the stale-home marks before this
        // commit sets its own.
        self.pages.data_landed(&bnos, committed.is_ok());
        match &committed {
            Ok(checkpointed) => {
                if *checkpointed {
                    self.pages.checkpoint_done();
                }
                self.pages.commit_done(&handed);
            }
            Err(_) => self.pages.commit_failed(&handed),
        }
        committed?;
        if journaled {
            self.persisted_seq
                .fetch_max(self.cur_seq.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        Ok(())
    }

    /// Commit if the running transaction has grown past the bound.
    /// Callers must have dropped every op-level lock first (the leader
    /// path takes the transaction lock exclusively).
    fn maybe_autocommit(&self) -> FsResult<()> {
        if self.pages.dirty_meta_count() >= self.max_dirty_meta {
            self.commit_coordinated()?;
        }
        Ok(())
    }
}

impl BaseFs {
    /// `open` returning the allocated descriptor, the inode it refers
    /// to, and whether the file was created — the outcome the RAE
    /// recorder logs (the shadow later validates these choices).
    ///
    /// # Errors
    ///
    /// As [`FileSystem::open`].
    pub fn open_ex(&self, path: &str, flags: OpenFlags) -> FsResult<(Fd, InodeNo, bool)> {
        let ctx = OpContext::new(OpKind::Open, Site::ApiEntry).with_path(path);
        let _ = self.hook(&ctx)?;
        if !flags.valid() {
            self.counters.record_error(OpKind::Open);
            return Err(FsError::InvalidArgument);
        }
        let result = {
            let _fence = self.fence.read();
            let _txn = self.txn.read();
            (|| {
                let (parent_comps, name) = split_parent(path)?;
                for _ in 0..MUT_RETRIES {
                    let parent = self.resolve_dir(&parent_comps, true)?;
                    let existing = {
                        let _g = self.stripe(parent).read();
                        self.dir_lookup(parent, name)?
                    };
                    if let Some(ino) = existing {
                        let _w = self.lock_stripes(&[ino]);
                        match self.revalidate_entry(parent, name, ino)? {
                            Reval::Ok => {}
                            Reval::Retry => continue,
                        }
                        return self.open_existing_body(path, flags, ino);
                    }
                    let _w = self.lock_stripes(&[parent]);
                    match self.revalidate_parent(&parent_comps, parent)? {
                        Reval::Ok => {}
                        Reval::Retry => continue,
                    }
                    if self.dir_lookup(parent, name)?.is_some() {
                        continue; // created meanwhile — retake as existing
                    }
                    return self.open_create_body(path, flags, parent, name);
                }
                Err(FsError::Busy)
            })()
        };
        match &result {
            Ok(_) => self.counters.record(OpKind::Open),
            Err(_) => self.counters.record_error(OpKind::Open),
        }
        self.maybe_autocommit()?;
        result
    }

    /// Open of an existing file, under `W{ino}`.
    fn open_existing_body(
        &self,
        path: &str,
        flags: OpenFlags,
        ino: InodeNo,
    ) -> FsResult<(Fd, InodeNo, bool)> {
        if flags.creates() && flags.contains(OpenFlags::EXCL) {
            return Err(FsError::Exists);
        }
        let mut inode = self.load_inode(ino)?;
        match inode.ftype {
            FileType::Directory => return Err(FsError::IsDir),
            FileType::Symlink => return Err(FsError::InvalidArgument),
            FileType::Regular => {}
        }
        let mut frees = Frees::default();
        if flags.contains(OpenFlags::TRUNC) && flags.writable() {
            self.truncate_core(&mut inode, 0, &mut frees)?;
            let now = self.tick();
            inode.mtime = now;
            inode.ctime = now;
            self.store_inode(ino, &inode)?;
        }
        // sequence inside the descriptor-table hold: the table mutation
        // order must equal log order for the shadow's lowest-free fd
        // allocation to reproduce the same numbering
        let r = {
            let mut fds = self.fds.lock();
            let r = fds.alloc(ino, flags, path);
            if let Ok(fd) = r {
                self.sequence(&OpOutcome::Opened {
                    fd,
                    ino,
                    created: false,
                });
            }
            r
        };
        self.apply_frees(&frees)?;
        r.map(|fd| (fd, ino, false))
    }

    /// Open-with-create of a missing file, under `W{parent}`. The new
    /// inode is sequenced *before* it is published in the directory, so
    /// no concurrent operation can observe (and sequence after) an
    /// entry that the log has not assigned yet.
    fn open_create_body(
        &self,
        path: &str,
        flags: OpenFlags,
        parent: InodeNo,
        name: &str,
    ) -> FsResult<(Fd, InodeNo, bool)> {
        if !flags.creates() {
            return Err(FsError::NotFound);
        }
        let ctx = OpContext::new(OpKind::Create, Site::Alloc).with_path(path);
        let _ = self.hook(&ctx)?;
        let dir = self.load_inode(parent)?;
        let _res = self.reserve_dir_insert(&dir, name.len())?;
        let ino = {
            let mut alloc = self.alloc.lock();
            if alloc.free_inodes == 0 {
                return Err(FsError::NoInodes);
            }
            alloc.alloc_ino(&self.pages)?
        };
        let now = self.tick();
        let inode = DiskInode::new(FileType::Regular, now);
        self.store_inode(ino, &inode)?;
        let fd = {
            let mut fds = self.fds.lock();
            match fds.alloc(ino, flags, path) {
                Ok(fd) => {
                    self.sequence(&OpOutcome::Opened {
                        fd,
                        ino,
                        created: true,
                    });
                    fd
                }
                Err(e) => {
                    drop(fds);
                    // roll back the unpublished inode on fd exhaustion
                    let mut frees = Frees::default();
                    let mut dead = inode;
                    self.destroy_inode(ino, &mut dead, &mut frees)?;
                    self.apply_frees(&frees)?;
                    return Err(e);
                }
            }
        };
        self.dir_insert(parent, name, ino, FileType::Regular)?;
        let mut pdir = self.load_inode(parent)?;
        pdir.mtime = now;
        self.store_inode(parent, &pdir)?;
        Ok((fd, ino, true))
    }

    /// Restore a descriptor by inode (the recovery path's `RestoreFd`;
    /// also exercised by tests). The inode must be an allocated regular
    /// file; the descriptor number must be free.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupted`] for a bad inode; [`FsError::Internal`]
    /// for a duplicate descriptor.
    pub fn restore_fd(&self, fd: Fd, ino: InodeNo, flags: OpenFlags, path: &str) -> FsResult<()> {
        let _fence = self.fence.read();
        let _txn = self.txn.read();
        let _w = self.lock_stripes(&[ino]);
        let inode = self.load_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FsError::Corrupted {
                detail: format!("descriptor restore aimed at non-file {ino}"),
            });
        }
        let mut fds = self.fds.lock();
        fds.install(fd, ino, flags, path)?;
        self.sequence(&OpOutcome::Opened {
            fd,
            ino,
            created: false,
        });
        Ok(())
    }

    /// The write body, under `W{entry.ino}`.
    fn write_body(&self, entry: &FdEntry, offset: u64, data: &[u8]) -> FsResult<usize> {
        let ctx = OpContext::new(OpKind::Write, Site::Write)
            .with_path(&entry.path)
            .with_io(offset, data.len());
        let corrupt = self.hook(&ctx)?;
        let mut payload; // only materialized when corrupting
        let data: &[u8] = if corrupt {
            payload = data.to_vec();
            payload[0] ^= 0x01; // the silent wrong result
            &payload
        } else {
            data
        };

        let mut inode = self.load_inode(entry.ino)?;
        let at = if entry.flags.contains(OpenFlags::APPEND) {
            inode.size
        } else {
            offset
        };
        let end = at
            .checked_add(data.len() as u64)
            .ok_or(FsError::FileTooBig)?;
        if end > MAX_FILE_SIZE {
            return Err(FsError::FileTooBig);
        }
        // all-or-nothing space reservation
        let start_idx = at / BLOCK_SIZE as u64;
        let end_idx = end.div_ceil(BLOCK_SIZE as u64);
        let need = self.count_missing_blocks(&inode, start_idx, end_idx)?;
        let _res = self.reserve(need)?;

        let mut pos = at;
        let mut src = 0usize;
        while pos < end {
            let idx = pos / BLOCK_SIZE as u64;
            let in_blk = (pos % BLOCK_SIZE as u64) as usize;
            let take = ((BLOCK_SIZE - in_blk) as u64).min(end - pos) as usize;
            let bno = self.ensure_file_block(&mut inode, idx)?;
            if take == BLOCK_SIZE {
                self.pages
                    .write(bno, data[src..src + take].to_vec(), PageClass::Data)?;
            } else {
                self.pages
                    .update(bno, in_blk, &data[src..src + take], PageClass::Data)?;
            }
            pos += take as u64;
            src += take;
        }
        if end > inode.size {
            inode.size = end;
        }
        let now = self.tick();
        inode.mtime = now;
        inode.ctime = now;
        self.store_inode(entry.ino, &inode)?;
        self.sequence(&OpOutcome::Written { n: data.len() });
        Ok(data.len())
    }

    /// The fd-truncate body, under `W{entry.ino}`.
    fn truncate_body(&self, entry: &FdEntry, size: u64) -> FsResult<()> {
        let ctx = OpContext::new(OpKind::Truncate, Site::Truncate).with_path(&entry.path);
        let _ = self.hook(&ctx)?;
        if size > MAX_FILE_SIZE {
            return Err(FsError::FileTooBig);
        }
        let mut frees = Frees::default();
        let mut inode = self.load_inode(entry.ino)?;
        if size < inode.size {
            self.truncate_core(&mut inode, size, &mut frees)?;
        } else {
            inode.size = size; // extension is sparse
        }
        let now = self.tick();
        inode.mtime = now;
        inode.ctime = now;
        self.store_inode(entry.ino, &inode)?;
        self.sequence(&OpOutcome::Unit);
        self.apply_frees(&frees)
    }

    /// The setattr body, under `W{ino}`.
    fn setattr_body(&self, ino: InodeNo, attr: &SetAttr) -> FsResult<()> {
        let mut frees = Frees::default();
        let mut inode = self.load_inode(ino)?;
        if let Some(size) = attr.size {
            match inode.ftype {
                FileType::Directory => return Err(FsError::IsDir),
                FileType::Symlink => return Err(FsError::InvalidArgument),
                FileType::Regular => {}
            }
            if size > MAX_FILE_SIZE {
                return Err(FsError::FileTooBig);
            }
            if size < inode.size {
                self.truncate_core(&mut inode, size, &mut frees)?;
            } else {
                inode.size = size;
            }
            let now = self.tick();
            inode.mtime = now;
            inode.ctime = now;
        }
        if let Some(mtime) = attr.mtime {
            inode.mtime = mtime;
        }
        self.store_inode(ino, &inode)?;
        self.sequence(&OpOutcome::Unit);
        self.apply_frees(&frees)
    }

    /// The file-read body, under `R{entry.ino}`.
    fn read_body(&self, entry: &FdEntry, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let inode = self.load_inode(entry.ino)?;
        let start = offset.min(inode.size);
        let end = offset.saturating_add(len as u64).min(inode.size);
        let mut out = Vec::with_capacity((end - start) as usize);
        let mut pos = start;
        while pos < end {
            let idx = pos / BLOCK_SIZE as u64;
            let in_blk = (pos % BLOCK_SIZE as u64) as usize;
            let take = ((BLOCK_SIZE - in_blk) as u64).min(end - pos) as usize;
            let bno = self.get_file_block(&inode, idx)?;
            if bno == 0 {
                out.extend(std::iter::repeat_n(0u8, take));
            } else {
                let blk = self.pages.read(bno, PageClass::Data)?;
                out.extend_from_slice(&blk[in_blk..in_blk + take]);
            }
            pos += take as u64;
        }
        Ok(out)
    }

    /// The mkdir body, under `W{parent}` (duplicate check done).
    fn mkdir_body(&self, path: &str, parent: InodeNo, name: &str) -> FsResult<()> {
        let ctx = OpContext::new(OpKind::Mkdir, Site::Alloc).with_path(path);
        let _ = self.hook(&ctx)?;
        let pdir = self.load_inode(parent)?;
        let _res = self.reserve_dir_insert(&pdir, name.len())?;
        let ino = {
            let mut alloc = self.alloc.lock();
            if alloc.free_inodes == 0 {
                return Err(FsError::NoInodes);
            }
            alloc.alloc_ino(&self.pages)?
        };
        let now = self.tick();
        let inode = DiskInode::new(FileType::Directory, now);
        self.store_inode(ino, &inode)?;
        // sequence before publication: a concurrent op inside the new
        // directory must not reach the log first
        self.sequence(&OpOutcome::Unit);
        self.dir_insert(parent, name, ino, FileType::Directory)?;
        let mut pdir = self.load_inode(parent)?;
        pdir.links += 1;
        pdir.mtime = now;
        self.store_inode(parent, &pdir)?;
        Ok(())
    }

    /// The rmdir body, under `W{parent, child}` (entry revalidated).
    fn rmdir_body(&self, parent: InodeNo, name: &str, child: InodeNo) -> FsResult<()> {
        let mut frees = Frees::default();
        let mut inode = self.load_inode(child)?;
        if inode.ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        if self.dir_entry_count(&inode)? != 0 {
            return Err(FsError::NotEmpty);
        }
        self.dir_remove(parent, name, &mut frees)?;
        self.destroy_inode(child, &mut inode, &mut frees)?;
        let now = self.tick();
        let mut pdir = self.load_inode(parent)?;
        pdir.links -= 1;
        pdir.mtime = now;
        self.store_inode(parent, &pdir)?;
        self.sequence(&OpOutcome::Unit);
        self.apply_frees(&frees)
    }

    /// The unlink body, under `W{parent, child}` (entry revalidated).
    fn unlink_body(&self, parent: InodeNo, name: &str, child: InodeNo) -> FsResult<()> {
        let mut frees = Frees::default();
        let mut inode = self.load_inode(child)?;
        match inode.ftype {
            FileType::Directory => return Err(FsError::IsDir),
            FileType::Regular => {
                if self.fds.lock().has_open(child) {
                    return Err(FsError::Busy);
                }
            }
            FileType::Symlink => {}
        }
        self.dir_remove(parent, name, &mut frees)?;
        inode.links -= 1;
        if inode.links == 0 {
            self.destroy_inode(child, &mut inode, &mut frees)?;
        } else {
            let now = self.tick();
            inode.ctime = now;
            self.store_inode(child, &inode)?;
        }
        let now = self.tick();
        let mut pdir = self.load_inode(parent)?;
        pdir.mtime = now;
        self.store_inode(parent, &pdir)?;
        self.sequence(&OpOutcome::Unit);
        self.apply_frees(&frees)
    }

    /// The symlink body, under `W{parent}` (duplicate check done).
    fn symlink_body(&self, target: &str, parent: InodeNo, name: &str) -> FsResult<()> {
        let pdir = self.load_inode(parent)?;
        let _res = self.reserve_dir_insert(&pdir, name.len())?;
        {
            let alloc = self.alloc.lock();
            if alloc.free_inodes == 0 {
                return Err(FsError::NoInodes);
            }
        }
        let target_blocks = if target.is_empty() { 0 } else { 1 };
        let _res2 = self.reserve(target_blocks)?;
        let ino = {
            let mut alloc = self.alloc.lock();
            if alloc.free_inodes == 0 {
                return Err(FsError::NoInodes);
            }
            alloc.alloc_ino(&self.pages)?
        };
        let now = self.tick();
        let mut inode = DiskInode::new(FileType::Symlink, now);
        if !target.is_empty() {
            let bno = self.alloc_data_block(PageClass::Data)?;
            let mut blk = vec![0u8; BLOCK_SIZE];
            blk[..target.len()].copy_from_slice(target.as_bytes());
            self.pages.write(bno, blk, PageClass::Data)?;
            inode.direct[0] = bno;
            inode.blocks = 1;
        }
        inode.size = target.len() as u64;
        self.store_inode(ino, &inode)?;
        // sequence before publication (see mkdir_body)
        self.sequence(&OpOutcome::Unit);
        self.dir_insert(parent, name, ino, FileType::Symlink)?;
        let mut pdir = self.load_inode(parent)?;
        pdir.mtime = now;
        self.store_inode(parent, &pdir)?;
        Ok(())
    }

    /// The link body, under `W{new_parent, src}` (revalidated, duplicate
    /// check done). Sequencing at the end is safe here: any operation
    /// that could observe the new entry (open/unlink of the new name)
    /// needs `W{src}`, which this op holds.
    fn link_body(&self, src: InodeNo, new_parent: InodeNo, new_name: &str) -> FsResult<()> {
        let mut src_inode = self.load_inode(src)?;
        match src_inode.ftype {
            FileType::Directory => return Err(FsError::IsDir),
            FileType::Symlink => return Err(FsError::InvalidArgument),
            FileType::Regular => {}
        }
        if u32::from(src_inode.links) >= MAX_LINKS {
            return Err(FsError::TooManyLinks);
        }
        let np = self.load_inode(new_parent)?;
        let _res = self.reserve_dir_insert(&np, new_name.len())?;
        self.dir_insert(new_parent, new_name, src, FileType::Regular)?;
        let now = self.tick();
        src_inode.links += 1;
        src_inode.ctime = now;
        self.store_inode(src, &src_inode)?;
        let mut np = self.load_inode(new_parent)?;
        np.mtime = now;
        self.store_inode(new_parent, &np)?;
        self.sequence(&OpOutcome::Unit);
        Ok(())
    }

    /// The rename body, under the exclusive fence (no stripes, no
    /// revalidation: nothing else runs). Frees are applied eagerly —
    /// exactly where the pre-sharding code freed — because the only
    /// allocation point (`dir_insert` growing the target directory)
    /// must be able to reuse blocks vacated by the removals on a full
    /// disk.
    fn rename_body(&self, from: &str, to: &str) -> FsResult<()> {
        let (from_parent, from_name) = {
            let (comps, name) = split_parent(from)?;
            (self.resolve_dir(&comps, true)?, name)
        };
        let (to_parent, to_name) = {
            let (comps, name) = split_parent(to)?;
            (self.resolve_dir(&comps, true)?, name)
        };
        let src = self
            .dir_lookup(from_parent, from_name)?
            .ok_or(FsError::NotFound)?;
        if from_parent == to_parent && from_name == to_name {
            return Ok(());
        }
        let src_inode = self.load_inode(src)?;
        let src_is_dir = src_inode.ftype == FileType::Directory;
        if src_is_dir && self.is_self_or_descendant(src, to_parent)? {
            return Err(FsError::RenameLoop);
        }
        let mut frees = Frees::default();
        let mut res_guard = None;
        let existing_dst = self.dir_lookup(to_parent, to_name)?;
        if let Some(dst) = existing_dst {
            if dst == src {
                return Ok(()); // hard links to the same inode
            }
            let mut dst_inode = self.load_inode(dst)?;
            match (src_is_dir, dst_inode.ftype == FileType::Directory) {
                (true, true) => {
                    if self.dir_entry_count(&dst_inode)? != 0 {
                        return Err(FsError::NotEmpty);
                    }
                }
                (true, false) => return Err(FsError::NotDir),
                (false, true) => return Err(FsError::IsDir),
                (false, false) => {
                    if dst_inode.ftype == FileType::Regular && self.fds.lock().has_open(dst) {
                        return Err(FsError::Busy);
                    }
                }
            }
            // remove and destroy (or unlink) the replaced target
            self.dir_remove(to_parent, to_name, &mut frees)?;
            if dst_inode.ftype == FileType::Directory {
                self.destroy_inode(dst, &mut dst_inode, &mut frees)?;
                let mut tp = self.load_inode(to_parent)?;
                tp.links -= 1;
                self.store_inode(to_parent, &tp)?;
            } else {
                dst_inode.links -= 1;
                if dst_inode.links == 0 {
                    self.destroy_inode(dst, &mut dst_inode, &mut frees)?;
                } else {
                    self.store_inode(dst, &dst_inode)?;
                }
            }
        } else {
            // the insert below must not fail halfway: reserve space
            let tp = self.load_inode(to_parent)?;
            res_guard = Some(self.reserve_dir_insert(&tp, to_name.len())?);
        }

        self.dir_remove(from_parent, from_name, &mut frees)?;
        // make the vacated blocks reusable before the insert allocates
        self.apply_frees(&frees)?;
        self.dir_insert(to_parent, to_name, src, src_inode.ftype)?;
        drop(res_guard);
        let now = self.tick();
        if src_is_dir && from_parent != to_parent {
            let mut fp = self.load_inode(from_parent)?;
            fp.links -= 1;
            fp.mtime = now;
            self.store_inode(from_parent, &fp)?;
            let mut tp = self.load_inode(to_parent)?;
            tp.links += 1;
            tp.mtime = now;
            self.store_inode(to_parent, &tp)?;
        } else {
            let mut fp = self.load_inode(from_parent)?;
            fp.mtime = now;
            self.store_inode(from_parent, &fp)?;
            if from_parent != to_parent {
                let mut tp = self.load_inode(to_parent)?;
                tp.mtime = now;
                self.store_inode(to_parent, &tp)?;
            }
        }
        Ok(())
    }
}

impl FileSystem for BaseFs {
    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        self.open_ex(path, flags).map(|(fd, _, _)| fd)
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        let r = {
            let _fence = self.fence.read();
            let _txn = self.txn.read();
            (|| {
                for _ in 0..MUT_RETRIES {
                    // Take the file's stripe before sequencing so a close
                    // can never reach the log ahead of an in-flight write
                    // on the same inode; re-check the binding under the
                    // stripe (the fd could have been closed and reused).
                    let ino = self.fds.lock().get(fd)?.ino;
                    let _w = self.lock_stripes(&[ino]);
                    let mut fds = self.fds.lock();
                    match fds.get(fd) {
                        Ok(cur) if cur.ino == ino => {
                            fds.close(fd)?;
                            self.sequence(&OpOutcome::Unit);
                            return Ok(());
                        }
                        Ok(_) => continue, // rebound to another file: retry
                        Err(e) => return Err(e),
                    }
                }
                Err(FsError::Busy)
            })()
        };
        match &r {
            Ok(()) => self.counters.record(OpKind::Close),
            Err(_) => self.counters.record_error(OpKind::Close),
        }
        r
    }

    fn read(&self, fd: Fd, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let result = {
            let _fence = self.fence.read();
            self.with_read_retries(|| {
                let entry = self.fds.lock().get(fd)?;
                if !entry.flags.readable() {
                    return Err(FsError::BadAccessMode);
                }
                let _g = self.stripe(entry.ino).read();
                self.read_body(&entry, offset, len)
            })
        };
        match &result {
            Ok(data) => {
                self.counters.record(OpKind::Read);
                self.counters.add_bytes_read(data.len() as u64);
            }
            Err(_) => self.counters.record_error(OpKind::Read),
        }
        result
    }

    fn write(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        let result = {
            let _fence = self.fence.read();
            let _txn = self.txn.read();
            (|| {
                for _ in 0..MUT_RETRIES {
                    let entry = self.fds.lock().get(fd)?;
                    if !entry.flags.writable() {
                        return Err(FsError::BadAccessMode);
                    }
                    if data.is_empty() {
                        return Ok(0);
                    }
                    let _w = self.lock_stripes(&[entry.ino]);
                    // revalidate the fd→inode binding under the stripe
                    // (a concurrent close/open may have rebound it)
                    match self.fds.lock().get(fd) {
                        Ok(cur) if cur.ino == entry.ino => {}
                        Ok(_) => continue,
                        Err(e) => return Err(e),
                    }
                    return self.write_body(&entry, offset, data);
                }
                Err(FsError::Busy)
            })()
        };
        match &result {
            Ok(n) => {
                self.counters.record(OpKind::Write);
                self.counters.add_bytes_written(*n as u64);
            }
            Err(_) => self.counters.record_error(OpKind::Write),
        }
        self.maybe_autocommit()?;
        result
    }

    fn truncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        let result = {
            let _fence = self.fence.read();
            let _txn = self.txn.read();
            (|| {
                for _ in 0..MUT_RETRIES {
                    let entry = self.fds.lock().get(fd)?;
                    if !entry.flags.writable() {
                        return Err(FsError::BadAccessMode);
                    }
                    let _w = self.lock_stripes(&[entry.ino]);
                    match self.fds.lock().get(fd) {
                        Ok(cur) if cur.ino == entry.ino => {}
                        Ok(_) => continue,
                        Err(e) => return Err(e),
                    }
                    return self.truncate_body(&entry, size);
                }
                Err(FsError::Busy)
            })()
        };
        match &result {
            Ok(()) => self.counters.record(OpKind::Truncate),
            Err(_) => self.counters.record_error(OpKind::Truncate),
        }
        self.maybe_autocommit()?;
        result
    }

    fn setattr(&self, path: &str, attr: SetAttr) -> FsResult<()> {
        let ctx = OpContext::new(OpKind::SetAttr, Site::ApiEntry).with_path(path);
        let _ = self.hook(&ctx)?;
        let result = {
            let _fence = self.fence.read();
            let _txn = self.txn.read();
            (|| {
                let comps = split_path(path)?;
                if comps.is_empty() {
                    let _w = self.lock_stripes(&[ROOT_INO]);
                    return self.setattr_body(ROOT_INO, &attr);
                }
                let (pcomps, name) = (&comps[..comps.len() - 1], comps[comps.len() - 1]);
                for _ in 0..MUT_RETRIES {
                    let ino = self.resolve_locked(&comps, true)?;
                    let _w = self.lock_stripes(&[ino]);
                    let parent = match self.resolve_quiet(pcomps) {
                        Ok(p) => p,
                        Err(FsError::NotFound | FsError::NotDir | FsError::Corrupted { .. }) => {
                            continue
                        }
                        Err(e) => return Err(e),
                    };
                    match self.revalidate_entry(parent, name, ino)? {
                        Reval::Ok => {}
                        Reval::Retry => continue,
                    }
                    return self.setattr_body(ino, &attr);
                }
                Err(FsError::Busy)
            })()
        };
        match &result {
            Ok(()) => self.counters.record(OpKind::SetAttr),
            Err(_) => self.counters.record_error(OpKind::SetAttr),
        }
        self.maybe_autocommit()?;
        result
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        let result = (|| {
            self.fds.lock().get(fd)?;
            self.commit_coordinated()
        })();
        match &result {
            Ok(()) => self.counters.record(OpKind::Fsync),
            Err(_) => self.counters.record_error(OpKind::Fsync),
        }
        result
    }

    fn sync(&self) -> FsResult<()> {
        let result = self.commit_coordinated();
        match &result {
            Ok(()) => self.counters.record(OpKind::Sync),
            Err(_) => self.counters.record_error(OpKind::Sync),
        }
        result
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        let ctx = OpContext::new(OpKind::Mkdir, Site::ApiEntry).with_path(path);
        let _ = self.hook(&ctx)?;
        let result = {
            let _fence = self.fence.read();
            let _txn = self.txn.read();
            (|| {
                let (parent_comps, name) = split_parent(path)?;
                for _ in 0..MUT_RETRIES {
                    let parent = self.resolve_dir(&parent_comps, true)?;
                    let _w = self.lock_stripes(&[parent]);
                    match self.revalidate_parent(&parent_comps, parent)? {
                        Reval::Ok => {}
                        Reval::Retry => continue,
                    }
                    if self.dir_lookup(parent, name)?.is_some() {
                        return Err(FsError::Exists);
                    }
                    return self.mkdir_body(path, parent, name);
                }
                Err(FsError::Busy)
            })()
        };
        match &result {
            Ok(()) => self.counters.record(OpKind::Mkdir),
            Err(_) => self.counters.record_error(OpKind::Mkdir),
        }
        self.maybe_autocommit()?;
        result
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        let ctx = OpContext::new(OpKind::Rmdir, Site::ApiEntry).with_path(path);
        let _ = self.hook(&ctx)?;
        let result = {
            let _fence = self.fence.read();
            let _txn = self.txn.read();
            (|| {
                let (parent_comps, name) = split_parent(path)?;
                for _ in 0..MUT_RETRIES {
                    let parent = self.resolve_dir(&parent_comps, true)?;
                    let child = {
                        let _g = self.stripe(parent).read();
                        self.dir_lookup(parent, name)?
                    }
                    .ok_or(FsError::NotFound)?;
                    let _w = self.lock_stripes(&[parent, child]);
                    match self.revalidate_entry(parent, name, child)? {
                        Reval::Ok => {}
                        Reval::Retry => continue,
                    }
                    return self.rmdir_body(parent, name, child);
                }
                Err(FsError::Busy)
            })()
        };
        match &result {
            Ok(()) => self.counters.record(OpKind::Rmdir),
            Err(_) => self.counters.record_error(OpKind::Rmdir),
        }
        self.maybe_autocommit()?;
        result
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        let ctx = OpContext::new(OpKind::Unlink, Site::ApiEntry).with_path(path);
        let _ = self.hook(&ctx)?;
        let result = {
            let _fence = self.fence.read();
            let _txn = self.txn.read();
            (|| {
                let (parent_comps, name) = split_parent(path)?;
                for _ in 0..MUT_RETRIES {
                    let parent = self.resolve_dir(&parent_comps, true)?;
                    let child = {
                        let _g = self.stripe(parent).read();
                        self.dir_lookup(parent, name)?
                    }
                    .ok_or(FsError::NotFound)?;
                    let _w = self.lock_stripes(&[parent, child]);
                    match self.revalidate_entry(parent, name, child)? {
                        Reval::Ok => {}
                        Reval::Retry => continue,
                    }
                    return self.unlink_body(parent, name, child);
                }
                Err(FsError::Busy)
            })()
        };
        match &result {
            Ok(()) => self.counters.record(OpKind::Unlink),
            Err(_) => self.counters.record_error(OpKind::Unlink),
        }
        self.maybe_autocommit()?;
        result
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let ctx = OpContext::new(OpKind::Rename, Site::Rename)
            .with_path(from)
            .with_path2(to);
        let _ = self.hook(&ctx)?;
        let result = {
            // rename is the one operation that takes the fence
            // exclusively: it runs with no concurrent ops at all, so
            // the body needs no stripes and no revalidation
            let _fence = self.fence.write();
            let _txn = self.txn.read();
            let r = self.rename_body(from, to);
            if r.is_ok() {
                self.sequence(&OpOutcome::Unit);
            }
            r
        };
        match &result {
            Ok(()) => self.counters.record(OpKind::Rename),
            Err(_) => self.counters.record_error(OpKind::Rename),
        }
        self.maybe_autocommit()?;
        result
    }

    fn link(&self, existing: &str, new: &str) -> FsResult<()> {
        let ctx = OpContext::new(OpKind::Link, Site::ApiEntry)
            .with_path(existing)
            .with_path2(new);
        let _ = self.hook(&ctx)?;
        let result = {
            let _fence = self.fence.read();
            let _txn = self.txn.read();
            (|| {
                let ecomps = split_path(existing)?;
                if ecomps.is_empty() {
                    return Err(FsError::IsDir);
                }
                let (esrc_parent, ename) = (&ecomps[..ecomps.len() - 1], ecomps[ecomps.len() - 1]);
                let (ncomps, nname) = split_parent(new)?;
                for _ in 0..MUT_RETRIES {
                    let src = self.resolve_locked(&ecomps, true)?;
                    // optimistic type/link-count checks, preserving the
                    // error precedence of the serial implementation
                    // (source checks come before the new-path resolve)
                    {
                        let _g = self.stripe(src).read();
                        let src_inode = self.load_inode(src)?;
                        match src_inode.ftype {
                            FileType::Directory => return Err(FsError::IsDir),
                            FileType::Symlink => return Err(FsError::InvalidArgument),
                            FileType::Regular => {}
                        }
                        if u32::from(src_inode.links) >= MAX_LINKS {
                            return Err(FsError::TooManyLinks);
                        }
                    }
                    let new_parent = self.resolve_dir(&ncomps, true)?;
                    let src_parent = match self.resolve_quiet(esrc_parent) {
                        Ok(p) => p,
                        Err(FsError::NotFound | FsError::NotDir | FsError::Corrupted { .. }) => {
                            continue
                        }
                        Err(e) => return Err(e),
                    };
                    let _w = self.lock_stripes(&[new_parent, src]);
                    match self.revalidate_entry(src_parent, ename, src)? {
                        Reval::Ok => {}
                        Reval::Retry => continue,
                    }
                    match self.revalidate_parent(&ncomps, new_parent)? {
                        Reval::Ok => {}
                        Reval::Retry => continue,
                    }
                    if self.dir_lookup(new_parent, nname)?.is_some() {
                        return Err(FsError::Exists);
                    }
                    return self.link_body(src, new_parent, nname);
                }
                Err(FsError::Busy)
            })()
        };
        match &result {
            Ok(()) => self.counters.record(OpKind::Link),
            Err(_) => self.counters.record_error(OpKind::Link),
        }
        self.maybe_autocommit()?;
        result
    }

    fn symlink(&self, target: &str, linkpath: &str) -> FsResult<()> {
        let ctx = OpContext::new(OpKind::Symlink, Site::ApiEntry).with_path(linkpath);
        let _ = self.hook(&ctx)?;
        if target.len() > BLOCK_SIZE {
            return Err(FsError::NameTooLong);
        }
        let result = {
            let _fence = self.fence.read();
            let _txn = self.txn.read();
            (|| {
                let (parent_comps, name) = split_parent(linkpath)?;
                for _ in 0..MUT_RETRIES {
                    let parent = self.resolve_dir(&parent_comps, true)?;
                    let _w = self.lock_stripes(&[parent]);
                    match self.revalidate_parent(&parent_comps, parent)? {
                        Reval::Ok => {}
                        Reval::Retry => continue,
                    }
                    if self.dir_lookup(parent, name)?.is_some() {
                        return Err(FsError::Exists);
                    }
                    return self.symlink_body(target, parent, name);
                }
                Err(FsError::Busy)
            })()
        };
        match &result {
            Ok(()) => self.counters.record(OpKind::Symlink),
            Err(_) => self.counters.record_error(OpKind::Symlink),
        }
        self.maybe_autocommit()?;
        result
    }

    fn readlink(&self, path: &str) -> FsResult<String> {
        let result = {
            let _fence = self.fence.read();
            self.with_read_retries(|| {
                let comps = split_path(path)?;
                let ino = self.resolve_locked(&comps, true)?;
                let _g = self.stripe(ino).read();
                let inode = self.load_inode(ino)?;
                if inode.ftype != FileType::Symlink {
                    return Err(FsError::InvalidArgument);
                }
                if inode.size == 0 {
                    return Ok(String::new());
                }
                let bno = inode.direct[0];
                if bno == 0 || inode.size > BLOCK_SIZE as u64 {
                    return Err(FsError::Corrupted {
                        detail: format!("symlink {ino} has inconsistent target storage"),
                    });
                }
                let blk = self.pages.read(bno, PageClass::Data)?;
                String::from_utf8(blk[..inode.size as usize].to_vec()).map_err(|_| {
                    FsError::Corrupted {
                        detail: format!("symlink {ino} target is not UTF-8"),
                    }
                })
            })
        };
        match &result {
            Ok(_) => self.counters.record(OpKind::Readlink),
            Err(_) => self.counters.record_error(OpKind::Readlink),
        }
        result
    }

    fn stat(&self, path: &str) -> FsResult<FileStat> {
        let result = {
            let _fence = self.fence.read();
            self.with_read_retries(|| {
                let comps = split_path(path)?;
                let ino = self.resolve_locked(&comps, true)?;
                let _g = self.stripe(ino).read();
                let inode = self.load_inode(ino)?;
                Ok(FileStat {
                    ino,
                    ftype: inode.ftype,
                    size: inode.size,
                    nlink: u32::from(inode.links),
                    blocks: u64::from(inode.blocks),
                    mtime: inode.mtime,
                    ctime: inode.ctime,
                })
            })
        };
        match &result {
            Ok(_) => self.counters.record(OpKind::Stat),
            Err(_) => self.counters.record_error(OpKind::Stat),
        }
        result
    }

    fn fstat(&self, fd: Fd) -> FsResult<FileStat> {
        let result = {
            let _fence = self.fence.read();
            self.with_read_retries(|| {
                let entry = self.fds.lock().get(fd)?;
                let _g = self.stripe(entry.ino).read();
                let inode = self.load_inode(entry.ino)?;
                Ok(FileStat {
                    ino: entry.ino,
                    ftype: inode.ftype,
                    size: inode.size,
                    nlink: u32::from(inode.links),
                    blocks: u64::from(inode.blocks),
                    mtime: inode.mtime,
                    ctime: inode.ctime,
                })
            })
        };
        match &result {
            Ok(_) => self.counters.record(OpKind::Fstat),
            Err(_) => self.counters.record_error(OpKind::Fstat),
        }
        result
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let ctx = OpContext::new(OpKind::Readdir, Site::Readdir).with_path(path);
        let corrupt = self.hook(&ctx)?;
        let result = {
            let _fence = self.fence.read();
            self.with_read_retries(|| {
                let comps = split_path(path)?;
                let ino = self.resolve_locked(&comps, true)?;
                let _g = self.stripe(ino).read();
                let inode = self.load_inode(ino)?;
                if inode.ftype != FileType::Directory {
                    return Err(FsError::NotDir);
                }
                let mut out = Vec::new();
                for bno in self.dir_blocks(&inode)? {
                    let db = DirBlock::from_bytes(self.pages.read(bno, PageClass::Meta)?)?;
                    for rec in db.records() {
                        out.push(DirEntry {
                            ino: rec.ino,
                            ftype: rec.ftype,
                            name: rec.name,
                        });
                    }
                }
                if corrupt {
                    out.pop(); // the silent wrong result: one entry vanishes
                }
                Ok(out)
            })
        };
        match &result {
            Ok(_) => self.counters.record(OpKind::Readdir),
            Err(_) => self.counters.record_error(OpKind::Readdir),
        }
        result
    }

    fn statfs(&self) -> FsResult<FsGeometryInfo> {
        let _fence = self.fence.read();
        let (free_blocks, free_inodes) = {
            let alloc = self.alloc.lock();
            (alloc.free_blocks, u64::from(alloc.free_inodes))
        };
        self.counters.record(OpKind::Statfs);
        Ok(FsGeometryInfo {
            block_size: BLOCK_SIZE as u32,
            total_blocks: self.geo.data_blocks,
            free_blocks,
            total_inodes: u64::from(self.geo.inode_count) - 2,
            free_inodes,
        })
    }
}
