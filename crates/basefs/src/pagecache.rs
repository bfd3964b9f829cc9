//! The write-back page cache.
//!
//! Caches whole blocks. Two classes of pages exist:
//!
//! * **Data** pages — evictable unless their write is in flight; an
//!   evicted dirty data page drains through the asynchronous write-back
//!   queue, and a journal commit takes every resident dirty data page
//!   ([`PageCache::take_dirty_data`]) into the batch that carries its
//!   record, then runs [`PageCache::settle`] (queue drain + device flush)
//!   as the barrier in front of its commit block. Each taken page stays
//!   resident under a `writeback` mark (the `PG_writeback` analogue)
//!   until [`PageCache::data_landed`], so no copy of it can be queued
//!   behind the batch and no reader can miss to the device before the
//!   batch reaches it;
//! * **Meta** pages — dirty metadata is *pinned*: it may only reach the
//!   disk through the journal (write-ahead rule), so eviction skips it
//!   and [`PageCache::take_dirty_meta`] hands the images to the journal
//!   manager at commit time. A handed-over page stays pinned while its
//!   commit is in flight — readers take no transaction lock, so their
//!   evictions run *during* a commit — and only
//!   [`PageCache::commit_done`] releases it; a failed commit re-dirties
//!   it instead ([`PageCache::commit_failed`]). A committed-but-not-
//!   checkpointed meta page is clean in the cache while its *home block
//!   on the device is still stale*; evicting one therefore writes it
//!   home through the write-back queue first (legal — the image is
//!   already durable in the journal, so write-ahead is preserved, and
//!   replay after a crash rewrites the same bytes).
//!   [`PageCache::checkpoint_done`] clears the stale-home marks once the
//!   journal manager has rewritten every home location.
//!
//! Eviction is the shared lazy-queue LRU ([`crate::lru`]): re-stamped
//! entries are skipped when popped, and a queue that has outgrown its
//! resident pages is compacted, so hits that never evict cannot grow
//! it without bound.
//!
//! # The dirty index
//!
//! A commit must not pay for the whole cache to find the few pages it
//! commits. Each shard indexes its dirty blocks in two lists, one per
//! class: every transition of a page into *dirty as that class* (a
//! write, a patch, a class change by patch, an update miss, a failed
//! commit or flush batch re-dirtying a page) pushes its block number.
//! The takes ([`PageCache::take_dirty_meta`],
//! [`PageCache::take_dirty_data`]) `mem::take` their list and look each
//! entry up; an entry whose page is gone (evicted, discarded), clean or
//! of the other class is stale and is dropped there, and a duplicate
//! finds its page already taken. A third list indexes the pages whose
//! home turned stale at [`PageCache::commit_done`], and
//! [`PageCache::checkpoint_done`] walks it the same way. So a take or a
//! checkpoint costs what it takes plus the entries that went stale since
//! the last one, never the resident set. A list that outgrows its
//! shard's resident pages between takes (dirty pages evicted and
//! dirtied again, with no commit) is pruned to its live entries, so
//! memory stays bounded by the cache.
//!
//! # Sharding
//!
//! The cache is lock-striped into N shards (block number modulo N), so
//! concurrent readers touching different blocks never contend on a
//! single cache mutex. Each shard owns its map, its LRU queue, and its
//! in-flight table; capacity is divided evenly across shards, so
//! eviction decisions are shard-local (the same design trade the kernel
//! makes with per-memcg/per-node LRU lists). Small caches collapse to a
//! single shard so capacity-sensitive tests keep exact global LRU
//! semantics ([`lru::shard_count`]). The dirty-metadata population is
//! tracked by a global atomic counter so the commit-sizing check
//! ([`PageCache::dirty_meta_count`], called on every mutation) is O(1)
//! instead of a scan of every shard.

use crate::lru::{self, Lru, Stamped, LRU_SLACK_FLOOR};
use parking_lot::Mutex;
use rae_blockdev::{BlockDevice, QueueConfig, WritebackQueue, BLOCK_SIZE};
use rae_telemetry::{EventKind, SpanLayer, Telemetry};
use rae_vfs::{FsError, FsResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The class of a cached page (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageClass {
    /// File contents: write-back through the queue.
    Data,
    /// Journaled metadata: leaves memory only via the journal.
    Meta,
}

#[derive(Debug)]
struct Page {
    data: Vec<u8>,
    class: PageClass,
    dirty: bool,
    /// Meta only: the image was handed to the journal and its commit is
    /// not known durable yet, so the page stays pinned as if dirty.
    committing: bool,
    /// Meta only: the image was committed to the journal (clean here)
    /// but the home block on the device has not been checkpointed yet,
    /// so a device re-read would return stale bytes.
    home_stale: bool,
    /// A copy of the page was taken by [`PageCache::take_dirty_data`]
    /// and has not landed: pinned, as the device may still hold older
    /// bytes.
    writeback: bool,
    stamp: u64,
}

impl Page {
    fn new(data: Vec<u8>, class: PageClass, dirty: bool, stamp: u64) -> Page {
        Page {
            data,
            class,
            dirty,
            committing: false,
            home_stale: false,
            writeback: false,
            stamp,
        }
    }
}

impl Stamped for Page {
    fn stamp(&self) -> u64 {
        self.stamp
    }
}

#[derive(Debug, Default)]
struct Shard {
    lru: Lru<u64, Page>,
    /// Evicted dirty pages whose queued write has not passed a barrier
    /// yet: reads must be served from here, not from the device, or
    /// they would observe pre-write content.
    inflight: HashMap<u64, Vec<u8>>,
    /// The dirty index (see module docs): blocks that turned dirty as
    /// meta, and as data, since the last take; stale entries allowed.
    dirty_meta: Vec<u64>,
    dirty_data: Vec<u64>,
    /// Blocks whose home turned stale since the last checkpoint.
    stale_home: Vec<u64>,
}

impl Shard {
    /// Index `bno`, which just turned dirty as `class`.
    fn index_dirty(&mut self, bno: u64, class: PageClass) {
        let list = match class {
            PageClass::Meta => &mut self.dirty_meta,
            PageClass::Data => &mut self.dirty_data,
        };
        push_pruned(list, bno, &self.lru.map, |p| p.dirty && p.class == class);
    }
}

/// Push `bno` onto an index list. A list that has outgrown twice its
/// shard's resident pages is cut to its `live` entries, once each: one
/// O(list) pass per that many pushes.
fn push_pruned(
    list: &mut Vec<u64>,
    bno: u64,
    map: &HashMap<u64, Page>,
    live: impl Fn(&Page) -> bool,
) {
    list.push(bno);
    if list.len() > 2 * map.len() + LRU_SLACK_FLOOR {
        list.retain(|b| map.get(b).is_some_and(&live));
        list.sort_unstable();
        list.dedup();
    }
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that went to the device.
    pub misses: u64,
    /// Pages evicted.
    pub evictions: u64,
}

/// The write-back page cache (see module docs).
pub struct PageCache {
    shards: Vec<Mutex<Shard>>,
    dev: Arc<dyn BlockDevice>,
    queue: WritebackQueue,
    /// Per-shard page budget (total capacity / shard count, rounded up).
    shard_capacity: usize,
    /// Global dirty-metadata page population (kept exact by every
    /// clean↔dirty transition so `dirty_meta_count` is O(1)).
    dirty_meta: AtomicUsize,
    misses: AtomicU64,
    evictions: AtomicU64,
    telemetry: OnceLock<Arc<Telemetry>>,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("resident", &self.resident())
            .finish()
    }
}

impl PageCache {
    /// Create a cache of `capacity` pages over `dev`, with a write-back
    /// queue configured by `queue_config`, sharded by
    /// [`lru::shard_count`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(dev: Arc<dyn BlockDevice>, capacity: usize, queue_config: QueueConfig) -> PageCache {
        Self::with_shards(dev, capacity, queue_config, lru::shard_count(capacity))
    }

    /// Create a cache with an explicit shard count (`nshards` is clamped
    /// to at least 1). Total capacity is divided evenly across shards.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn with_shards(
        dev: Arc<dyn BlockDevice>,
        capacity: usize,
        queue_config: QueueConfig,
        nshards: usize,
    ) -> PageCache {
        assert!(capacity > 0);
        let nshards = nshards.max(1);
        let shards = (0..nshards).map(|_| Mutex::new(Shard::default())).collect();
        PageCache {
            shards,
            queue: WritebackQueue::new(Arc::clone(&dev), queue_config),
            dev,
            shard_capacity: capacity.div_ceil(nshards),
            dirty_meta: AtomicUsize::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            telemetry: OnceLock::new(),
        }
    }

    /// Attach a telemetry handle: miss fills record their latency and
    /// evictions of stale-at-home meta pages become flight-recorder
    /// events. First call wins.
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.telemetry.set(telemetry);
    }

    fn shard_for(&self, bno: u64) -> &Mutex<Shard> {
        &self.shards[(bno % self.shards.len() as u64) as usize]
    }

    /// Account the page at `bno`, now dirty as `class` and before dirty
    /// as `was` (`None`: clean or absent): the dirty-meta count and the
    /// dirty index follow every change of the pair.
    fn dirtied(&self, shard: &mut Shard, bno: u64, was: Option<PageClass>, class: PageClass) {
        if was == Some(class) {
            return;
        }
        if class == PageClass::Meta {
            self.dirty_meta.fetch_add(1, Ordering::Relaxed);
        } else if was == Some(PageClass::Meta) {
            self.dirty_meta.fetch_sub(1, Ordering::Relaxed);
        }
        shard.index_dirty(bno, class);
    }

    /// Evict pages until at most `shard_capacity` resident in this
    /// shard. Dirty data pages are submitted to the write-back queue;
    /// dirty and committing meta pages, and pages in a flush batch, are
    /// skipped (pinned).
    fn evict_if_needed(&self, shard: &mut Shard) -> FsResult<()> {
        let Shard { lru, inflight, .. } = shard;
        let pinned =
            |p: &Page| p.writeback || p.class == PageClass::Meta && (p.dirty || p.committing);
        lru.evict(self.shard_capacity, pinned, |bno, page| {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            // A committed-but-not-checkpointed meta page must be written
            // home before it can be dropped, or the next miss would read
            // the stale pre-commit image from the device. The write is
            // legal: the journal already holds the image (write-ahead).
            if page.dirty || page.home_stale {
                if page.home_stale {
                    if let Some(t) = self.telemetry.get() {
                        t.event(
                            EventKind::CacheEvictStale,
                            bno,
                            bno % self.shards.len() as u64,
                            0,
                        );
                    }
                }
                // keep the content visible until the queued write has
                // provably landed (cleared at the next barrier)
                inflight.insert(bno, page.data.clone());
                self.queue.submit(bno, page.data)?;
            }
            Ok(())
        })
    }

    /// Read a block through the cache into a copy of its own.
    ///
    /// # Errors
    ///
    /// Device errors on a miss.
    pub fn read(&self, bno: u64, class: PageClass) -> FsResult<Vec<u8>> {
        self.read_with(bno, class, <[u8]>::to_vec)
    }

    /// Read a block through the cache and lend it to `f`, under the
    /// shard lock: what `f` copies out is the one copy a read makes. `f`
    /// runs once, and must neither block nor call back into the cache.
    ///
    /// # Errors
    ///
    /// Device errors on a miss.
    pub fn read_with<R>(
        &self,
        bno: u64,
        class: PageClass,
        f: impl FnOnce(&[u8]) -> R,
    ) -> FsResult<R> {
        {
            let mut guard = self.shard_for(bno).lock();
            let shard = &mut *guard;
            let stamp = shard.lru.tick();
            if let Some(p) = shard.lru.map.get_mut(&bno) {
                p.stamp = stamp;
                let r = f(&p.data);
                shard.lru.push(bno, stamp);
                shard.lru.note_hit();
                return Ok(r);
            }
            if let Some(data) = shard.inflight.get(&bno) {
                // evicted but the write-back has not landed: the
                // in-flight copy is the truth
                shard.lru.note_hit();
                return Ok(f(data));
            }
        }
        // Miss: read outside the lock, then insert (double-read on a
        // race is harmless — the block content is identical).
        self.misses.fetch_add(1, Ordering::Relaxed);
        let t0 = self.telemetry.get().and_then(|t| t.layer_clock());
        let mut buf = vec![0u8; BLOCK_SIZE];
        self.dev.read_block(bno, &mut buf)?;
        if let Some(t) = self.telemetry.get() {
            t.layer_observed(SpanLayer::CacheFill, t0);
        }
        let mut guard = self.shard_for(bno).lock();
        let shard = &mut *guard;
        let stamp = shard.lru.tick();
        if let Some(p) = shard.lru.map.get_mut(&bno) {
            // raced with a writer: their copy is newer
            p.stamp = stamp;
            let r = f(&p.data);
            shard.lru.push(bno, stamp);
            return Ok(r);
        }
        if let Some(data) = shard.inflight.get(&bno) {
            // raced with an eviction: the in-flight copy is newer than
            // what we just read from the device
            return Ok(f(data));
        }
        let r = f(&buf);
        shard.lru.insert(bno, Page::new(buf, class, false, stamp));
        self.evict_if_needed(shard)?;
        Ok(r)
    }

    /// Install a full block image, marking it dirty.
    ///
    /// # Errors
    ///
    /// [`FsError::Internal`] on a misshapen buffer; queue errors from
    /// eviction.
    pub fn write(&self, bno: u64, data: Vec<u8>, class: PageClass) -> FsResult<()> {
        if data.len() != BLOCK_SIZE {
            return Err(FsError::Internal {
                detail: format!("page write of {} bytes", data.len()),
            });
        }
        let mut shard = self.shard_for(bno).lock();
        // carried across rewrites: the home block stays stale until a
        // checkpoint actually rewrites it, and a commit or flush batch in
        // flight still has to report back
        let mut page = Page::new(data, class, true, shard.lru.tick());
        if let Some(p) = shard.lru.map.get(&bno) {
            (page.committing, page.home_stale, page.writeback) =
                (p.committing, p.home_stale, p.writeback);
        }
        let old = shard.lru.insert(bno, page);
        let was = old.filter(|p| p.dirty).map(|p| p.class);
        self.dirtied(&mut shard, bno, was, class);
        self.evict_if_needed(&mut shard)
    }

    /// Patch a byte range into the cached copy of `bno` if one exists
    /// (resident or in-flight), entirely under the caller's shard lock.
    /// Returns `None` on a true miss (nothing cached to patch).
    fn patch_locked(
        &self,
        shard: &mut Shard,
        bno: u64,
        offset: usize,
        bytes: &[u8],
        class: PageClass,
    ) -> Option<FsResult<()>> {
        let stamp = shard.lru.tick();
        if let Some(p) = shard.lru.map.get_mut(&bno) {
            p.data[offset..offset + bytes.len()].copy_from_slice(bytes);
            let was = p.dirty.then_some(p.class);
            p.class = class;
            p.dirty = true;
            p.stamp = stamp;
            self.dirtied(shard, bno, was, class);
            shard.lru.push(bno, stamp);
            shard.lru.note_hit();
            return Some(self.evict_if_needed(shard));
        }
        if let Some(data) = shard.inflight.get(&bno) {
            // evicted but the write-back has not landed: the in-flight
            // copy is the truth — patch it and reinstall as dirty
            let mut data = data.clone();
            data[offset..offset + bytes.len()].copy_from_slice(bytes);
            shard.lru.insert(bno, Page::new(data, class, true, stamp));
            self.dirtied(shard, bno, None, class);
            shard.lru.note_hit();
            return Some(self.evict_if_needed(shard));
        }
        None
    }

    /// Read-modify-write of a byte range within a block. The patch is
    /// applied under a single shard-lock hold, so concurrent updates to
    /// *different* ranges of the same block (e.g. two inodes sharing an
    /// inode-table block) both survive.
    ///
    /// # Errors
    ///
    /// Device errors on a miss; [`FsError::Internal`] on out-of-range
    /// coordinates.
    pub fn update(&self, bno: u64, offset: usize, bytes: &[u8], class: PageClass) -> FsResult<()> {
        if offset + bytes.len() > BLOCK_SIZE {
            return Err(FsError::Internal {
                detail: "page update crosses block boundary".to_string(),
            });
        }
        {
            let mut shard = self.shard_for(bno).lock();
            if let Some(res) = self.patch_locked(&mut shard, bno, offset, bytes, class) {
                return res;
            }
        }
        // Miss: fill from the device outside the lock, then re-check
        // for a racing writer/eviction before installing the patched
        // image (their copy would be newer than our device read).
        self.misses.fetch_add(1, Ordering::Relaxed);
        let t0 = self.telemetry.get().and_then(|t| t.layer_clock());
        let mut buf = vec![0u8; BLOCK_SIZE];
        self.dev.read_block(bno, &mut buf)?;
        if let Some(t) = self.telemetry.get() {
            t.layer_observed(SpanLayer::CacheFill, t0);
        }
        let mut shard = self.shard_for(bno).lock();
        if let Some(res) = self.patch_locked(&mut shard, bno, offset, bytes, class) {
            return res;
        }
        buf[offset..offset + bytes.len()].copy_from_slice(bytes);
        let stamp = shard.lru.tick();
        shard.lru.insert(bno, Page::new(buf, class, true, stamp));
        self.dirtied(&mut shard, bno, None, class);
        self.evict_if_needed(&mut shard)
    }

    /// Drop the cached copy of a *freed* metadata block.
    ///
    /// A freed block's still-dirty page must not survive to the next
    /// journal commit: the commit would journal a stale image of a
    /// block that may since have been reallocated (possibly as data),
    /// and checkpoint/replay would clobber the new content. Meta pages
    /// are never in the write-back queue and freed blocks are always
    /// fully rewritten before reuse, so dropping the page outright is
    /// safe. Data-class or absent entries are left untouched.
    pub fn discard_meta(&self, bno: u64) {
        let mut shard = self.shard_for(bno).lock();
        let is_meta = matches!(shard.lru.map.get(&bno), Some(p) if p.class == PageClass::Meta);
        if is_meta {
            let page = shard.lru.map.remove(&bno).expect("checked above");
            if page.dirty {
                self.dirty_meta.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot all dirty metadata pages and hand them to a journal
    /// commit: they stop being dirty but stay pinned until the commit
    /// reports back through [`PageCache::commit_done`] or
    /// [`PageCache::commit_failed`] with the same block numbers. Walks
    /// the dirty index, not the cache.
    #[must_use]
    pub fn take_dirty_meta(&self) -> Vec<(u64, Vec<u8>)> {
        let mut out: Vec<(u64, Vec<u8>)> = Vec::new();
        for stripe in &self.shards {
            let mut shard = stripe.lock();
            let Shard {
                lru, dirty_meta, ..
            } = &mut *shard;
            for bno in std::mem::take(dirty_meta) {
                match lru.map.get_mut(&bno) {
                    Some(p) if p.class == PageClass::Meta && p.dirty => {
                        out.push((bno, p.data.clone()));
                        p.dirty = false;
                        p.committing = true;
                        self.dirty_meta.fetch_sub(1, Ordering::Relaxed);
                    }
                    _ => {} // stale, or a duplicate already taken
                }
            }
        }
        out.sort_by_key(|(b, _)| *b);
        out
    }

    /// The commit of the handed-over `blocks` is durable: their pages
    /// are unpinned, ahead of their home blocks until the next
    /// checkpoint (so evicting one now writes it home first).
    pub fn commit_done(&self, blocks: &[u64]) {
        for &bno in blocks {
            let mut shard = self.shard_for(bno).lock();
            let Shard {
                lru, stale_home, ..
            } = &mut *shard;
            if let Some(p) = lru.map.get_mut(&bno) {
                p.committing = false;
                if !p.home_stale {
                    p.home_stale = true;
                    push_pruned(stale_home, bno, &lru.map, |p| p.home_stale);
                }
            }
        }
    }

    /// The commit of the handed-over `blocks` failed, so nothing says
    /// their images are durable: the pages become dirty again, pinned
    /// for the next commit and never written home directly.
    pub fn commit_failed(&self, blocks: &[u64]) {
        for &bno in blocks {
            let mut shard = self.shard_for(bno).lock();
            let Some(p) = shard.lru.map.get_mut(&bno) else {
                continue;
            };
            let redirty = p.committing && !p.dirty;
            p.committing = false;
            if redirty {
                p.dirty = true;
                let class = p.class;
                self.dirtied(&mut shard, bno, None, class);
            }
        }
    }

    /// The journal manager rewrote every committed image at its home
    /// location: resident meta pages are no longer ahead of the device,
    /// so eviction may drop them without a write-back. Walks the
    /// stale-home index, not the cache.
    pub fn checkpoint_done(&self) {
        for stripe in &self.shards {
            let mut shard = stripe.lock();
            let Shard {
                lru, stale_home, ..
            } = &mut *shard;
            for bno in std::mem::take(stale_home) {
                if let Some(p) = lru.map.get_mut(&bno) {
                    p.home_stale = false;
                }
            }
        }
    }

    /// Flip one byte of a dirty metadata page (fault-injection support
    /// for the memory-corruption bug class). Pages within
    /// `prefer_range` are chosen first so tests hit validated
    /// structures deterministically. Returns the scribbled block.
    pub fn scribble_dirty_meta(&self, prefer_range: (u64, u64)) -> Option<u64> {
        let mut candidates: Vec<u64> = Vec::new();
        for stripe in &self.shards {
            let shard = stripe.lock();
            candidates.extend(shard.dirty_meta.iter().copied().filter(|b| {
                matches!(shard.lru.map.get(b), Some(p) if p.class == PageClass::Meta && p.dirty)
            }));
        }
        candidates.sort_unstable();
        candidates.dedup();
        let target = candidates
            .iter()
            .copied()
            .find(|b| (prefer_range.0..prefer_range.1).contains(b))
            .or_else(|| candidates.first().copied())?;
        let mut shard = self.shard_for(target).lock();
        let page = shard.lru.map.get_mut(&target)?;
        // byte 273 = offset 17 of the *second* 256-byte inode slot, so
        // an inode-table scribble damages a real inode (slot 0 is the
        // reserved null inode nothing ever reads)
        page.data[273] ^= 0x40;
        Some(target)
    }

    /// Count of dirty metadata pages (for commit-sizing decisions).
    /// O(1): maintained by an atomic counter, not a cache scan.
    #[must_use]
    pub fn dirty_meta_count(&self) -> usize {
        self.dirty_meta.load(Ordering::Relaxed)
    }

    /// Snapshot every dirty data page, in block order, for the caller
    /// to write as one batch (ordered mode: a commit sends them with its
    /// journal record). They stop being dirty but stay resident under
    /// the `writeback` mark until the caller reports back through
    /// [`PageCache::data_landed`] with the same block numbers. An
    /// evicted copy of a taken block that is still queued is older, so
    /// this waits for it to land first. Walks the dirty index, not the
    /// cache.
    #[must_use]
    pub fn take_dirty_data(&self) -> Vec<(u64, Vec<u8>)> {
        let mut batch: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut queued_before = false;
        for stripe in &self.shards {
            let mut shard = stripe.lock();
            let Shard {
                lru,
                inflight,
                dirty_data,
                ..
            } = &mut *shard;
            for bno in std::mem::take(dirty_data) {
                match lru.map.get_mut(&bno) {
                    Some(p) if p.class == PageClass::Data && p.dirty => {
                        p.dirty = false;
                        p.writeback = true;
                        batch.push((bno, p.data.clone()));
                        queued_before |= inflight.contains_key(&bno);
                    }
                    _ => {} // stale, or a duplicate already taken
                }
            }
        }
        if queued_before {
            self.queue.drain();
        }
        batch.sort_unstable_by_key(|&(bno, _)| bno);
        batch
    }

    /// The batch of taken data `blocks` is over: their pages are
    /// unpinned, and dirty again unless it reached stable storage (`ok`).
    pub fn data_landed(&self, blocks: &[u64], ok: bool) {
        for &bno in blocks {
            let mut shard = self.shard_for(bno).lock();
            let Some(p) = shard.lru.map.get_mut(&bno) else {
                continue;
            };
            p.writeback = false;
            if !ok && !p.dirty {
                p.dirty = true;
                let class = p.class;
                self.dirtied(&mut shard, bno, None, class);
            }
        }
    }

    /// Barrier: wait for every write the write-back queue holds, surface
    /// its errors, and flush the device. Submits no dirty page, so it is
    /// both the barrier in front of a commit block and the contained
    /// reboot's quiescing (dirty pages are untrusted there and must not
    /// reach the disk).
    ///
    /// # Errors
    ///
    /// Asynchronous write errors surfacing at the barrier; flush errors.
    pub fn settle(&self) -> FsResult<()> {
        self.queue.barrier()?;
        // every queued write has landed: in-flight copies are now
        // redundant with the device
        for stripe in &self.shards {
            stripe.lock().inflight.clear();
        }
        Ok(())
    }

    /// Drop every cached page without writing anything anywhere — the
    /// contained-reboot primitive ("all the states in the base
    /// filesystem's memory are not trusted, so we need to reset them").
    pub fn discard_all(&self) {
        for stripe in &self.shards {
            let mut shard = stripe.lock();
            shard.lru.clear();
            shard.inflight.clear();
            shard.dirty_meta.clear();
            shard.dirty_data.clear();
            shard.stale_home.clear();
        }
        self.dirty_meta.store(0, Ordering::Relaxed);
    }

    /// Cache statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.shards.iter().map(|s| s.lock().lru.hits()).sum(),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of resident pages.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lock().lru.map.len()).sum()
    }

    /// Number of lock stripes (test observability).
    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether a page is resident (test observability).
    #[cfg(test)]
    fn resident_contains(&self, bno: u64) -> bool {
        self.shard_for(bno).lock().lru.map.contains_key(&bno)
    }

    /// Dirty resident pages of `class`, ascending: the whole-cache walk
    /// the dirty index replaces, kept as its oracle (test observability).
    #[cfg(test)]
    pub(crate) fn dirty_blocks(&self, class: PageClass) -> Vec<u64> {
        self.scan(|p| p.class == class && p.dirty)
    }

    /// Resident pages for which `pick` holds, ascending, by a walk of
    /// every shard's map (test observability).
    #[cfg(test)]
    fn scan(&self, pick: impl Fn(&Page) -> bool) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for stripe in &self.shards {
            let shard = stripe.lock();
            out.extend(
                shard
                    .lru
                    .map
                    .iter()
                    .filter(|(_, p)| pick(p))
                    .map(|(&b, _)| b),
            );
        }
        out.sort_unstable();
        out
    }

    /// The entries of one index list (`list`) whose page `pick` holds
    /// for, ascending, once each: what the index can find, to compare
    /// with [`PageCache::scan`] (test observability).
    #[cfg(test)]
    fn indexed(&self, list: fn(&Shard) -> &Vec<u64>, pick: impl Fn(&Page) -> bool) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for stripe in &self.shards {
            let shard = stripe.lock();
            out.extend(
                list(&shard)
                    .iter()
                    .filter(|b| shard.lru.map.get(b).is_some_and(&pick)),
            );
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total index entries, stale ones included (test observability).
    #[cfg(test)]
    fn index_len(&self) -> usize {
        let lists = |s: &Shard| s.dirty_meta.len() + s.dirty_data.len() + s.stale_home.len();
        self.shards.iter().map(|s| lists(&s.lock())).sum()
    }

    /// Total LRU queue entries, stale ones included (test observability).
    #[cfg(test)]
    fn lru_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().lru.queue_len()).sum()
    }

    /// Total in-flight (evicted-but-unbarriered) pages (test observability).
    #[cfg(test)]
    fn inflight_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().inflight.len()).sum()
    }

    /// In-flight copies of blocks that are not resident, ascending: a
    /// patch of one takes the in-flight branch (test observability).
    #[cfg(test)]
    fn scan_inflight_not_resident(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for stripe in &self.shards {
            let shard = stripe.lock();
            out.extend(
                shard
                    .inflight
                    .keys()
                    .filter(|b| !shard.lru.map.contains_key(b)),
            );
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::{LRU_SLACK, LRU_SLACK_FLOOR};
    use rae_blockdev::{Extent, MemDisk};

    fn cache(blocks: u64, cap: usize) -> (Arc<MemDisk>, PageCache) {
        let dev = Arc::new(MemDisk::new(blocks));
        let pc = PageCache::new(dev.clone(), cap, QueueConfig::default());
        (dev, pc)
    }

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_SIZE]
    }

    /// A commit's data path with nothing to journal: take the dirty
    /// data, write it as one batch, run the barrier, report back.
    pub(super) fn write_back(pc: &PageCache) -> FsResult<()> {
        let batch = pc.take_dirty_data();
        let (bnos, bufs): (Vec<u64>, Vec<&[u8]>) =
            batch.iter().map(|(bno, d)| (*bno, d.as_slice())).unzip();
        let written = pc
            .dev
            .write_blocks(&Extent::runs(&bnos, &bufs))
            .and_then(|()| pc.settle());
        pc.data_landed(&bnos, written.is_ok());
        written
    }

    #[test]
    fn read_caches_and_hits() {
        let (_dev, pc) = cache(8, 4);
        let _ = pc.read(3, PageClass::Data).unwrap();
        let _ = pc.read(3, PageClass::Data).unwrap();
        let s = pc.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn small_capacity_collapses_to_one_shard_large_gets_striped() {
        let dev = Arc::new(MemDisk::new(8));
        let small = PageCache::new(dev.clone(), 4, QueueConfig::default());
        assert_eq!(small.shard_count(), 1);
        let large = PageCache::new(dev.clone(), 2048, QueueConfig::default());
        assert_eq!(large.shard_count(), 8);
        let pinned = PageCache::with_shards(dev, 2048, QueueConfig::default(), 3);
        assert_eq!(pinned.shard_count(), 3);
    }

    #[test]
    fn sharded_cache_keeps_contents_and_counters_consistent() {
        let dev = Arc::new(MemDisk::new(256));
        let pc = PageCache::with_shards(dev, 128, QueueConfig::default(), 4);
        for bno in 0..32u64 {
            pc.write(bno, block(bno as u8), PageClass::Meta).unwrap();
        }
        assert_eq!(pc.dirty_meta_count(), 32);
        for bno in 0..32u64 {
            assert_eq!(pc.read(bno, PageClass::Meta).unwrap()[0], bno as u8);
        }
        let taken = pc.take_dirty_meta();
        assert_eq!(taken.len(), 32);
        assert!(
            taken.windows(2).all(|w| w[0].0 < w[1].0),
            "globally sorted across shards"
        );
        assert_eq!(pc.dirty_meta_count(), 0);
    }

    #[test]
    fn write_then_read_returns_new_content_without_disk_write() {
        let (dev, pc) = cache(8, 4);
        pc.write(2, block(9), PageClass::Data).unwrap();
        assert_eq!(pc.read(2, PageClass::Data).unwrap()[0], 9);
        // not yet on disk (write-back)
        let mut raw = block(0);
        dev.read_block(2, &mut raw).unwrap();
        assert_eq!(raw[0], 0);
        // flush pushes it out
        write_back(&pc).unwrap();
        dev.read_block(2, &mut raw).unwrap();
        assert_eq!(raw[0], 9);
    }

    #[test]
    fn eviction_writes_back_dirty_data() {
        let (dev, pc) = cache(16, 2);
        pc.write(0, block(1), PageClass::Data).unwrap();
        pc.write(1, block(2), PageClass::Data).unwrap();
        pc.write(2, block(3), PageClass::Data).unwrap(); // evicts block 0
        assert!(pc.resident() <= 2);
        write_back(&pc).unwrap(); // barrier also waits for eviction writes
        let mut raw = block(0);
        dev.read_block(0, &mut raw).unwrap();
        assert_eq!(raw[0], 1, "evicted dirty page reached the disk");
        assert!(pc.stats().evictions >= 1);
    }

    #[test]
    fn dirty_meta_is_pinned_not_evicted() {
        let (dev, pc) = cache(16, 2);
        pc.write(0, block(7), PageClass::Meta).unwrap();
        pc.write(1, block(8), PageClass::Meta).unwrap();
        // inserting more data pages must not push dirty meta to disk
        for i in 2..6 {
            pc.write(i, block(i as u8), PageClass::Data).unwrap();
        }
        write_back(&pc).unwrap();
        let mut raw = block(0);
        dev.read_block(0, &mut raw).unwrap();
        assert_eq!(raw[0], 0, "dirty metadata never reaches disk directly");
        assert_eq!(pc.dirty_meta_count(), 2);
    }

    #[test]
    fn take_dirty_meta_hands_over_images_once() {
        let (_dev, pc) = cache(16, 8);
        pc.write(5, block(5), PageClass::Meta).unwrap();
        pc.write(3, block(3), PageClass::Meta).unwrap();
        pc.write(9, block(9), PageClass::Data).unwrap();

        let metas = pc.take_dirty_meta();
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].0, 3, "sorted by block number");
        assert_eq!(metas[1].0, 5);
        assert!(pc.take_dirty_meta().is_empty(), "marked clean");
    }

    #[test]
    fn dirty_meta_counter_tracks_transitions() {
        let (_dev, pc) = cache(16, 8);
        assert_eq!(pc.dirty_meta_count(), 0);
        pc.write(1, block(1), PageClass::Meta).unwrap();
        assert_eq!(pc.dirty_meta_count(), 1);
        // re-dirtying the same page must not double-count
        pc.write(1, block(2), PageClass::Meta).unwrap();
        pc.update(1, 0, &[3], PageClass::Meta).unwrap();
        assert_eq!(pc.dirty_meta_count(), 1);
        pc.write(2, block(2), PageClass::Data).unwrap();
        assert_eq!(pc.dirty_meta_count(), 1, "data pages never counted");
        let _ = pc.take_dirty_meta();
        assert_eq!(pc.dirty_meta_count(), 0);
        // dirty again after handover
        pc.update(1, 0, &[4], PageClass::Meta).unwrap();
        assert_eq!(pc.dirty_meta_count(), 1);
        pc.discard_all();
        assert_eq!(pc.dirty_meta_count(), 0);
    }

    #[test]
    fn update_modifies_a_range() {
        let (_dev, pc) = cache(8, 4);
        pc.write(1, block(0), PageClass::Meta).unwrap();
        pc.update(1, 100, &[1, 2, 3], PageClass::Meta).unwrap();
        let data = pc.read(1, PageClass::Meta).unwrap();
        assert_eq!(&data[100..103], &[1, 2, 3]);
        assert_eq!(data[99], 0);
        assert!(pc
            .update(1, BLOCK_SIZE - 1, &[1, 2], PageClass::Meta)
            .is_err());
    }

    #[test]
    fn discard_all_loses_uncommitted_state() {
        let (dev, pc) = cache(8, 4);
        pc.write(2, block(42), PageClass::Meta).unwrap();
        pc.discard_all();
        assert_eq!(pc.resident(), 0);
        // the next read sees the (stale) disk content — exactly what a
        // contained reboot wants
        assert_eq!(pc.read(2, PageClass::Meta).unwrap()[0], 0);
        let mut raw = block(9);
        dev.read_block(2, &mut raw).unwrap();
        assert_eq!(raw[0], 0);
    }

    #[test]
    fn clean_meta_is_evictable() {
        let (_dev, pc) = cache(16, 2);
        pc.write(0, block(1), PageClass::Meta).unwrap();
        let _ = pc.take_dirty_meta();
        pc.commit_done(&[0]); // now clean
        pc.write(1, block(2), PageClass::Data).unwrap();
        pc.write(2, block(3), PageClass::Data).unwrap();
        pc.write(3, block(4), PageClass::Data).unwrap();
        assert!(pc.resident() <= 2, "clean meta evicted normally");
    }

    /// Regression test: a committed-but-not-checkpointed meta page must
    /// survive eviction with its committed content (the home block on
    /// the device is still stale until checkpoint).
    #[test]
    fn committed_meta_evicted_before_checkpoint_rereads_fresh() {
        let (dev, pc) = cache(16, 2);
        pc.write(0, block(7), PageClass::Meta).unwrap();
        let taken = pc.take_dirty_meta(); // journal owns the image now
        assert_eq!(taken.len(), 1);
        pc.commit_done(&[0]);
        // evict block 0 with data traffic
        pc.write(1, block(2), PageClass::Data).unwrap();
        pc.write(2, block(3), PageClass::Data).unwrap();
        pc.write(3, block(4), PageClass::Data).unwrap();
        assert!(pc.resident() <= 2);
        // re-read must see the committed image, not the stale device
        assert_eq!(pc.read(0, PageClass::Meta).unwrap()[0], 7);
        write_back(&pc).unwrap();
        let mut raw = block(0);
        dev.read_block(0, &mut raw).unwrap();
        assert_eq!(raw[0], 7, "eviction wrote the committed image home");
    }

    /// After a checkpoint the home blocks are fresh, so evicting clean
    /// meta writes nothing.
    #[test]
    fn checkpointed_meta_evicts_without_writeback() {
        let (dev, pc) = cache(16, 2);
        pc.write(0, block(7), PageClass::Meta).unwrap();
        let _ = pc.take_dirty_meta();
        pc.commit_done(&[0]);
        pc.checkpoint_done(); // home is (notionally) rewritten
        pc.write(1, block(2), PageClass::Data).unwrap();
        pc.write(2, block(3), PageClass::Data).unwrap();
        pc.write(3, block(4), PageClass::Data).unwrap();
        write_back(&pc).unwrap();
        let mut raw = block(9);
        dev.read_block(0, &mut raw).unwrap();
        assert_eq!(raw[0], 0, "no write-back for checkpointed meta");
    }

    /// Regression test: readers take no transaction lock, so their
    /// evictions run while a commit is in flight. A handed-over meta
    /// page must not be written home before its commit is durable, and
    /// never if the commit fails.
    #[test]
    fn handed_over_meta_stays_pinned_until_its_commit_is_durable() {
        let (dev, pc) = cache(16, 2);
        pc.write(0, block(7), PageClass::Meta).unwrap();
        let taken = pc.take_dirty_meta();
        assert_eq!(taken.len(), 1);
        assert_eq!(pc.dirty_meta_count(), 0);
        let evict = |round: u64| {
            for bno in 1..6 {
                let _ = pc.read(bno + round * 5, PageClass::Data).unwrap();
            }
            write_back(&pc).unwrap(); // every queued write has landed
        };
        let home = || {
            let mut raw = block(9);
            dev.read_block(0, &mut raw).unwrap();
            raw[0]
        };

        evict(0);
        assert!(pc.resident_contains(0), "pinned while committing");
        assert_eq!(home(), 0, "no home write before the commit is durable");

        // the commit failed: the page is dirty again, still pinned, and
        // the next commit picks it up
        pc.commit_failed(&[0]);
        assert_eq!(pc.dirty_meta_count(), 1);
        evict(1);
        assert_eq!(
            home(),
            0,
            "a failed commit never makes a page home-writable"
        );
        let retaken = pc.take_dirty_meta();
        assert_eq!(retaken, taken);

        // durable: now eviction may write the committed image home
        pc.commit_done(&[0]);
        evict(2);
        assert!(!pc.resident_contains(0));
        assert_eq!(home(), 7, "evicted after its commit, written home");
    }

    #[test]
    fn lru_order_prefers_cold_pages() {
        let (_dev, pc) = cache(16, 3);
        pc.write(0, block(0), PageClass::Data).unwrap();
        pc.write(1, block(1), PageClass::Data).unwrap();
        pc.write(2, block(2), PageClass::Data).unwrap();
        // touch 0 so 1 is the coldest
        let _ = pc.read(0, PageClass::Data).unwrap();
        pc.write(3, block(3), PageClass::Data).unwrap();
        assert!(pc.resident_contains(0), "recently touched page survived");
        assert!(!pc.resident_contains(1), "cold page evicted");
    }

    /// Per-shard clocks order touches exactly as the one global clock
    /// did within each shard: over a seeded mix of reads, writes and
    /// patches on a 4-shard cache, the resident set after every step is
    /// the one an exact LRU per shard keeps, and the hits counted across
    /// the shards are the touches of resident pages.
    #[test]
    fn lru_eviction_order_within_a_shard_is_exact_lru() {
        const SHARDS: usize = 4;
        const PER_SHARD: usize = 8;
        let dev = Arc::new(MemDisk::new(256));
        let pc = PageCache::with_shards(dev, SHARDS * PER_SHARD, QueueConfig::default(), SHARDS);
        let mut model: Vec<std::collections::VecDeque<u64>> = vec![Default::default(); SHARDS];
        let mut hits = 0u64;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..20_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // skewed: a hot eighth of the blocks takes half the traffic
            let bno = if x.is_multiple_of(2) {
                x % 32
            } else {
                (x >> 8) % 256
            };
            let lru = &mut model[bno as usize % SHARDS];
            let resident = lru.contains(&bno);
            match (x >> 20) % 8 {
                0 => {
                    pc.write(bno, block(step as u8), PageClass::Data).unwrap();
                    // clean again, so no page is ever pinned
                    write_back(&pc).unwrap();
                }
                1 => {
                    pc.update(bno, 8, &step.to_le_bytes(), PageClass::Data)
                        .unwrap();
                    write_back(&pc).unwrap();
                    hits += u64::from(resident);
                }
                _ => {
                    let _ = pc.read_with(bno, PageClass::Data, |b| b[0]).unwrap();
                    hits += u64::from(resident);
                }
            }
            lru.retain(|&b| b != bno);
            lru.push_back(bno);
            if lru.len() > PER_SHARD {
                lru.pop_front();
            }
            let expected: usize = model.iter().map(|l| l.len()).sum();
            assert_eq!(pc.resident(), expected, "step {step}");
            for b in model.iter().flatten() {
                assert!(pc.resident_contains(*b), "step {step}: {b} evicted early");
            }
        }
        assert_eq!(pc.stats().hits, hits);
    }

    /// Regression test: a cache-resident read workload evicts nothing,
    /// so nothing popped the stale entry each hit leaves in the lazy
    /// LRU queue and the queue grew by 16 bytes per hit, forever.
    #[test]
    fn lru_queue_stays_bounded_without_evictions() {
        let dev = Arc::new(MemDisk::new(256));
        let pc = PageCache::with_shards(dev, 512, QueueConfig::default(), 4);
        let resident = 128u64;
        for bno in 0..resident {
            pc.write(bno, block(bno as u8), PageClass::Data).unwrap();
        }
        for i in 0..1_000_000u64 {
            // a skewed mix, so some pages are re-stamped far more often
            let bno = if i % 4 == 0 { i % resident } else { i % 8 };
            assert_eq!(pc.read(bno, PageClass::Data).unwrap()[0], bno as u8);
        }
        assert_eq!(pc.stats().evictions, 0);
        let bound = LRU_SLACK * resident as usize + pc.shard_count() * (LRU_SLACK_FLOOR + 1);
        assert!(pc.lru_len() <= bound, "{} entries queued", pc.lru_len());
    }

    #[test]
    fn lru_order_survives_compaction() {
        let (_dev, pc) = cache(32, 8);
        for bno in 0..8u64 {
            pc.write(bno, block(bno as u8), PageClass::Data).unwrap();
        }
        // enough hits on pages 0..4 to compact the queue several times
        for i in 0..1000u64 {
            let _ = pc.read(i % 4, PageClass::Data).unwrap();
        }
        assert!(pc.lru_len() <= LRU_SLACK * 8 + LRU_SLACK_FLOOR + 1);
        for bno in 8..12u64 {
            pc.write(bno, block(bno as u8), PageClass::Data).unwrap();
        }
        for bno in 0..4u64 {
            assert!(pc.resident_contains(bno), "hot page {bno} survived");
            assert!(
                !pc.resident_contains(bno + 4),
                "cold page {} evicted",
                bno + 4
            );
        }
    }

    /// Regression test: `update` must be an atomic read-modify-write.
    /// Two mutators patching *different* byte ranges of the same block
    /// (two inodes sharing an inode-table block) must both survive —
    /// the old read-then-write implementation could lose one.
    #[test]
    fn concurrent_subblock_updates_do_not_lose_writes() {
        use std::thread;
        let dev = Arc::new(MemDisk::new(64));
        let pc = Arc::new(PageCache::with_shards(dev, 128, QueueConfig::default(), 4));
        pc.write(0, block(0), PageClass::Meta).unwrap();
        let mut handles = Vec::new();
        for t in 0..8usize {
            let pc = Arc::clone(&pc);
            handles.push(thread::spawn(move || {
                for round in 1..=200u64 {
                    let fill = [(t as u8 + 1) * 10 + (round % 10) as u8; 16];
                    pc.update(0, t * 16, &fill, PageClass::Meta).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let data = pc.read(0, PageClass::Meta).unwrap();
        for t in 0..8usize {
            let expect = (t as u8 + 1) * 10; // round 200 → round % 10 == 0
            assert!(
                data[t * 16..(t + 1) * 16].iter().all(|&b| b == expect),
                "thread {t}'s final update was lost"
            );
        }
        assert_eq!(
            pc.dirty_meta_count(),
            1,
            "one dirty meta page, counted once"
        );
    }

    #[test]
    fn concurrent_readers_hit_distinct_shards() {
        use std::thread;
        let dev = Arc::new(MemDisk::new(512));
        let pc = Arc::new(PageCache::with_shards(dev, 256, QueueConfig::default(), 8));
        for bno in 0..64u64 {
            pc.write(bno, block(bno as u8), PageClass::Data).unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let pc = Arc::clone(&pc);
            handles.push(thread::spawn(move || {
                for round in 0..200u64 {
                    let bno = (t * 17 + round) % 64;
                    let data = pc.read(bno, PageClass::Data).unwrap();
                    assert_eq!(data[0], bno as u8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(pc.stats().hits >= 4 * 200);
    }

    /// After every step of a seeded random sequence of the cache's
    /// state changes, the dirty index finds exactly the dirty pages of
    /// each class and the stale-home index exactly the stale-home pages
    /// a walk of the whole cache finds, and each take hands out what the
    /// walk found just before it.
    #[test]
    fn dirty_index_matches_a_full_scan() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let meta_list: fn(&Shard) -> &Vec<u64> = |s| &s.dirty_meta;
        let data_list: fn(&Shard) -> &Vec<u64> = |s| &s.dirty_data;
        let stale_list: fn(&Shard) -> &Vec<u64> = |s| &s.stale_home;
        let class_of = |rng: &mut SmallRng| {
            if rng.gen_bool(0.5) {
                PageClass::Meta
            } else {
                PageClass::Data
            }
        };
        let flip = |c: PageClass| match c {
            PageClass::Meta => PageClass::Data,
            PageClass::Data => PageClass::Meta,
        };
        for seed in 0..48u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let dev = Arc::new(MemDisk::new(48));
            let pc = PageCache::with_shards(dev, 12, QueueConfig::default(), 3);
            // handed meta blocks (committing) and taken data blocks
            // (under writeback) not yet reported back
            let mut handed: Vec<u64> = Vec::new();
            let mut taken: Vec<u64> = Vec::new();
            for step in 0..400 {
                let bno = rng.gen_range(0..48u64);
                let op = rng.gen_range(0..15u32);
                match op {
                    0 | 1 => pc
                        .write(bno, block(step as u8), class_of(&mut rng))
                        .unwrap(),
                    // an update hit or miss, whichever `bno` is
                    2 | 3 => pc
                        .update(bno, 8, &[step as u8], class_of(&mut rng))
                        .unwrap(),
                    4 => {
                        // a patch of an in-flight (evicted, queued) copy
                        let gone = pc.scan_inflight_not_resident();
                        if let Some(&b) = gone.get(rng.gen_range(0..gone.len().max(1))) {
                            pc.update(b, 16, &[step as u8], class_of(&mut rng)).unwrap();
                        }
                    }
                    5 => {
                        // a class change by patch of a dirty page
                        let dirty = pc.scan(|p| p.dirty);
                        if let Some(&b) = dirty.get(rng.gen_range(0..dirty.len().max(1))) {
                            let class = pc.shard_for(b).lock().lru.map[&b].class;
                            pc.update(b, 24, &[step as u8], flip(class)).unwrap();
                        }
                    }
                    // reads evict: dirty data into the write-back queue
                    6 => drop(pc.read(bno, class_of(&mut rng)).unwrap()),
                    7 => pc.discard_meta(bno),
                    8 => {
                        let expect = pc.dirty_blocks(PageClass::Meta);
                        let got: Vec<u64> = pc.take_dirty_meta().iter().map(|m| m.0).collect();
                        assert_eq!(got, expect, "seed {seed} step {step}: meta take");
                        handed.extend(got);
                    }
                    9 => {
                        let expect = pc.dirty_blocks(PageClass::Data);
                        let got: Vec<u64> = pc.take_dirty_data().iter().map(|d| d.0).collect();
                        assert_eq!(got, expect, "seed {seed} step {step}: data take");
                        taken.extend(got);
                    }
                    10 if rng.gen_bool(0.5) => pc.commit_failed(&std::mem::take(&mut handed)),
                    10 => pc.commit_done(&std::mem::take(&mut handed)),
                    11 => pc.data_landed(&std::mem::take(&mut taken), rng.gen_bool(0.5)),
                    12 => pc.checkpoint_done(),
                    13 => pc.settle().unwrap(),
                    _ if rng.gen_bool(0.1) => {
                        pc.discard_all();
                        handed.clear();
                        taken.clear();
                    }
                    _ => {}
                }
                let at = format!("seed {seed} step {step} op {op}");
                for class in [PageClass::Meta, PageClass::Data] {
                    let list = if class == PageClass::Meta {
                        meta_list
                    } else {
                        data_list
                    };
                    let dirty = |p: &Page| p.dirty && p.class == class;
                    assert_eq!(pc.indexed(list, dirty), pc.scan(dirty), "{at}: {class:?}");
                }
                let stale = |p: &Page| p.home_stale;
                assert_eq!(
                    pc.indexed(stale_list, stale),
                    pc.scan(stale),
                    "{at}: stale home"
                );
                assert_eq!(
                    pc.dirty_meta_count(),
                    pc.dirty_blocks(PageClass::Meta).len(),
                    "{at}"
                );
            }
        }
    }

    /// Dirty pages evicted and dirtied again with no take in between
    /// leave stale index entries behind; the index is pruned, so they
    /// cannot grow it past a few times the cache.
    #[test]
    fn dirty_index_stays_bounded_without_takes() {
        let (_dev, pc) = cache(4096, 16);
        for i in 0..20_000u64 {
            pc.write(i % 4096, block(i as u8), PageClass::Data).unwrap();
            // pushed with the new page in, before eviction: 17 resident
            assert!(
                pc.index_len() <= 2 * 17 + LRU_SLACK_FLOOR,
                "{}",
                pc.index_len()
            );
        }
        // clean traffic indexes nothing
        pc.settle().unwrap();
        let _ = pc.take_dirty_data();
        for bno in 0..4096u64 {
            let _ = pc.read(bno, PageClass::Data).unwrap();
        }
        assert_eq!(pc.index_len(), 0);
    }
}

#[cfg(test)]
mod writeback_race_tests {
    use super::tests::write_back;
    use super::*;
    use rae_blockdev::{Extent, MemDisk};
    use std::sync::mpsc;

    /// Regression test for the eviction/read race: an evicted dirty
    /// page must stay readable with its *new* content even before the
    /// queued write lands.
    #[test]
    fn evicted_dirty_page_reads_new_content() {
        let dev = Arc::new(MemDisk::new(64));
        // depth-1 queue with one worker: submissions linger
        let pc = PageCache::new(
            dev.clone(),
            2,
            QueueConfig {
                nr_queues: 1,
                queue_depth: 1,
            },
        );
        for round in 0..50u8 {
            pc.write(0, vec![round; BLOCK_SIZE], PageClass::Data)
                .unwrap();
            // force eviction of block 0 by touching other blocks
            pc.write(
                1 + u64::from(round % 8),
                vec![0xEE; BLOCK_SIZE],
                PageClass::Data,
            )
            .unwrap();
            pc.write(
                9 + u64::from(round % 8),
                vec![0xEE; BLOCK_SIZE],
                PageClass::Data,
            )
            .unwrap();
            let back = pc.read(0, PageClass::Data).unwrap();
            assert!(
                back.iter().all(|&b| b == round),
                "round {round}: stale read after eviction"
            );
        }
        write_back(&pc).unwrap();
        let mut raw = vec![0u8; BLOCK_SIZE];
        dev.read_block(0, &mut raw).unwrap();
        assert!(raw.iter().all(|&b| b == 49));
    }

    /// Parks the first write batch of more than one extent until
    /// released; one-block writes (the write-back queue's) pass.
    struct ParkBatch {
        inner: MemDisk,
        parked: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
    }

    impl BlockDevice for ParkBatch {
        fn block_count(&self) -> u64 {
            self.inner.block_count()
        }
        fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
            self.inner.read_block(bno, buf)
        }
        fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
            self.inner.write_block(bno, buf)
        }
        fn write_blocks(&self, extents: &[Extent<'_>]) -> FsResult<()> {
            if extents.len() > 1 {
                if let Some((stalled, release)) = self.parked.lock().take() {
                    stalled.send(()).unwrap();
                    release.recv().unwrap();
                }
            }
            self.inner.write_blocks(extents)
        }
        fn flush(&self) -> FsResult<()> {
            self.inner.flush()
        }
    }

    /// Regression test for the flush batch's pin: while the batch is
    /// parked, a writer re-dirties one of its pages and a reader forces
    /// evictions. Were the page evictable, its newer image would be
    /// queued, land first, and be overwritten by the batch's older one.
    #[test]
    fn extent_flush_pins_batched_pages_until_the_batch_lands() {
        let dev = Arc::new(ParkBatch {
            inner: MemDisk::new(64),
            parked: Mutex::new(None),
        });
        let pc = PageCache::new(dev.clone(), 4, QueueConfig::default());
        pc.write(10, vec![1; BLOCK_SIZE], PageClass::Data).unwrap();
        pc.write(20, vec![1; BLOCK_SIZE], PageClass::Data).unwrap();
        let (stalled_tx, stalled_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        *dev.parked.lock() = Some((stalled_tx, release_rx));
        std::thread::scope(|s| {
            let flusher = s.spawn(|| write_back(&pc));
            stalled_rx.recv().unwrap();
            pc.write(10, vec![2; BLOCK_SIZE], PageClass::Data).unwrap();
            for bno in 30..40 {
                let _ = pc.read(bno, PageClass::Data).unwrap();
            }
            pc.queue.drain(); // every eviction's write has landed
            release_tx.send(()).unwrap();
            flusher.join().unwrap().unwrap();
        });
        assert_eq!(pc.read(10, PageClass::Data).unwrap()[0], 2);
        write_back(&pc).unwrap();
        let mut raw = vec![0u8; BLOCK_SIZE];
        dev.inner.read_block(10, &mut raw).unwrap();
        assert_eq!(raw[0], 2, "the latest write is the block's final content");
    }

    /// Holds each one-block write (the write-back queue's) until a batch
    /// has landed, or for a while if none comes.
    struct SinglesAfterBatch {
        inner: MemDisk,
        batch_landed: std::sync::Mutex<bool>,
        landed: std::sync::Condvar,
    }

    impl BlockDevice for SinglesAfterBatch {
        fn block_count(&self) -> u64 {
            self.inner.block_count()
        }
        fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
            self.inner.read_block(bno, buf)
        }
        fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
            let landed = self.batch_landed.lock().unwrap();
            let wait = std::time::Duration::from_millis(200);
            drop(
                self.landed
                    .wait_timeout_while(landed, wait, |l| !*l)
                    .unwrap(),
            );
            self.inner.write_block(bno, buf)
        }
        fn write_blocks(&self, extents: &[Extent<'_>]) -> FsResult<()> {
            self.inner.write_blocks(extents)?;
            *self.batch_landed.lock().unwrap() = true;
            self.landed.notify_all();
            Ok(())
        }
        fn flush(&self) -> FsResult<()> {
            self.inner.flush()
        }
    }

    /// An evicted image of a block is still queued when the block, back
    /// in the cache and dirty again, is flushed: the flush waits for the
    /// older copy, so the newer one is what the device keeps. (Were the
    /// batch not to wait, the device would let the queued copy land
    /// right after it.)
    #[test]
    fn extent_flush_waits_for_an_older_queued_copy() {
        let dev = Arc::new(SinglesAfterBatch {
            inner: MemDisk::new(64),
            batch_landed: std::sync::Mutex::new(false),
            landed: std::sync::Condvar::new(),
        });
        let pc = PageCache::new(dev.clone(), 2, QueueConfig::default());
        pc.write(0, vec![1; BLOCK_SIZE], PageClass::Data).unwrap();
        pc.write(1, vec![0xEE; BLOCK_SIZE], PageClass::Data)
            .unwrap();
        pc.write(2, vec![0xEE; BLOCK_SIZE], PageClass::Data)
            .unwrap(); // evicts 0
        pc.update(0, 0, &[2], PageClass::Data).unwrap(); // back, and dirty
        write_back(&pc).unwrap();
        let mut raw = vec![0u8; BLOCK_SIZE];
        dev.inner.read_block(0, &mut raw).unwrap();
        assert_eq!(raw[0], 2, "the queued older image landed last");
    }

    /// Delays every one-block write (the write-back queue's).
    struct SlowSingles {
        inner: MemDisk,
    }

    impl BlockDevice for SlowSingles {
        fn block_count(&self) -> u64 {
            self.inner.block_count()
        }
        fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
            self.inner.read_block(bno, buf)
        }
        fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
            std::thread::sleep(std::time::Duration::from_millis(20));
            self.inner.write_block(bno, buf)
        }
        fn flush(&self) -> FsResult<()> {
            self.inner.flush()
        }
    }

    /// The idle fast path does not let `take_dirty_data` skip its wait:
    /// with an older copy of a taken block still queued, the take
    /// returns only once that copy (and all queued before it) landed.
    #[test]
    fn take_dirty_data_waits_for_an_older_queued_copy() {
        let dev = Arc::new(SlowSingles {
            inner: MemDisk::new(16),
        });
        let pc = PageCache::new(dev.clone(), 2, QueueConfig::default());
        pc.write(0, vec![1; BLOCK_SIZE], PageClass::Data).unwrap();
        pc.write(1, vec![2; BLOCK_SIZE], PageClass::Data).unwrap();
        pc.write(2, vec![3; BLOCK_SIZE], PageClass::Data).unwrap(); // evicts 0
        pc.update(0, 0, &[4], PageClass::Data).unwrap(); // back, and dirty
        assert!(pc.queue.completed() < pc.queue.submitted(), "still queued");
        let batch = pc.take_dirty_data();
        assert!(batch.iter().any(|&(bno, _)| bno == 0));
        assert_eq!(pc.queue.completed(), pc.queue.submitted());
        let mut raw = vec![0u8; BLOCK_SIZE];
        dev.inner.read_block(0, &mut raw).unwrap();
        assert_eq!(raw[0], 1, "the older copy landed before the take returned");
    }

    #[test]
    fn inflight_cleared_after_barrier() {
        let dev = Arc::new(MemDisk::new(16));
        let pc = PageCache::new(dev, 2, QueueConfig::default());
        pc.write(0, vec![1; BLOCK_SIZE], PageClass::Data).unwrap();
        pc.write(1, vec![2; BLOCK_SIZE], PageClass::Data).unwrap();
        pc.write(2, vec![3; BLOCK_SIZE], PageClass::Data).unwrap();
        write_back(&pc).unwrap();
        assert_eq!(pc.inflight_len(), 0);
    }
}
