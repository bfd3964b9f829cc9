//! The dentry cache: `(parent inode, component name) -> child inode`.
//!
//! Hot path lookups skip directory-block scanning entirely. Negative
//! entries are not cached (a deliberate simplification — negative
//! dentries are a classic bug source the shadow does without, and the
//! base keeps its cache coherent more easily this way).
//!
//! The cache is interior-mutable (`&self` API) and lock-striped so
//! concurrent *readers* of the filesystem — which populate the cache
//! during path resolution — never serialize on a single dcache lock.
//! Eviction is the shared lazy LRU ([`crate::lru`]).
//!
//! Coherence against mutations is provided one level up, by `BaseFs`'s
//! inode stripe locks: a lookup that misses scans the directory and
//! fills the entry while holding the directory's stripe (shared on a
//! path walk), and every mutation that adds or removes an entry holds
//! that directory's stripe exclusively (`rename` runs alone, under the
//! exclusive rename fence). So an invalidate can never race a stale
//! fill.

use crate::lru::{self, Lru, Stamped};
use parking_lot::Mutex;
use rae_vfs::InodeNo;
use std::borrow::Borrow;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cache key as a lookup sees it: `(parent, name)` with the name
/// borrowed. Stored keys own theirs as `Arc<str>`, and both sides hash
/// and compare through this view, so a lookup builds no key.
trait DentryKey {
    fn parts(&self) -> (InodeNo, &str);
}

impl DentryKey for (InodeNo, Arc<str>) {
    fn parts(&self) -> (InodeNo, &str) {
        (self.0, &self.1)
    }
}

impl DentryKey for (InodeNo, &str) {
    fn parts(&self) -> (InodeNo, &str) {
        *self
    }
}

impl<'a> Borrow<dyn DentryKey + 'a> for (InodeNo, Arc<str>) {
    fn borrow(&self) -> &(dyn DentryKey + 'a) {
        self
    }
}

// must agree with the derived `Hash`/`Eq` of the stored tuple: the
// inode number, then the name as a `str`
impl Hash for dyn DentryKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn DentryKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn DentryKey + '_ {}

#[derive(Debug)]
struct Dentry {
    child: InodeNo,
    stamp: u64,
    /// The key's name again (same allocation), so a hit can re-queue
    /// it with a reference-count bump and a single map probe.
    name: Arc<str>,
}

impl Stamped for Dentry {
    fn stamp(&self) -> u64 {
        self.stamp
    }
}

type DcShard = Lru<(InodeNo, Arc<str>), Dentry>;

/// A capacity-bounded dentry cache with LRU eviction (lazy-queue),
/// striped across shards keyed by `(parent, name)` hash.
#[derive(Debug)]
pub(crate) struct DentryCache {
    shards: Vec<Mutex<DcShard>>,
    shard_capacity: usize,
    misses: AtomicU64,
}

impl DentryCache {
    pub(crate) fn new(capacity: usize) -> DentryCache {
        let capacity = capacity.max(1);
        let nshards = lru::shard_count(capacity);
        DentryCache {
            shards: (0..nshards)
                .map(|_| Mutex::new(DcShard::default()))
                .collect(),
            shard_capacity: capacity.div_ceil(nshards),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, parent: InodeNo, name: &str) -> &Mutex<DcShard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        parent.0.hash(&mut h);
        name.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    pub(crate) fn lookup(&self, parent: InodeNo, name: &str) -> Option<InodeNo> {
        let mut shard = self.shard_for(parent, name).lock();
        let stamp = shard.tick();
        match shard.map.get_mut(&(parent, name) as &dyn DentryKey) {
            Some(d) => {
                d.stamp = stamp;
                let (child, stored) = (d.child, Arc::clone(&d.name));
                shard.push((parent, stored), stamp);
                shard.note_hit();
                Some(child)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    pub(crate) fn insert(&self, parent: InodeNo, name: &str, child: InodeNo) {
        let mut shard = self.shard_for(parent, name).lock();
        let stamp = shard.tick();
        let name: Arc<str> = name.into();
        let dentry = Dentry {
            child,
            stamp,
            name: Arc::clone(&name),
        };
        shard.insert((parent, name), dentry);
        let _ = shard.evict(
            self.shard_capacity,
            |_| false,
            |_, _| Ok::<(), Infallible>(()),
        );
    }

    /// Invalidate one entry (unlink/rmdir/rename source or target).
    pub(crate) fn invalidate(&self, parent: InodeNo, name: &str) {
        self.shard_for(parent, name)
            .lock()
            .map
            .remove(&(parent, name) as &dyn DentryKey);
    }

    /// Drop everything (contained reboot).
    pub(crate) fn clear(&self) {
        for stripe in &self.shards {
            stripe.lock().clear();
        }
    }

    pub(crate) fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().hits()).sum()
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Total LRU queue entries, stale ones included.
    #[cfg(test)]
    fn lru_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().queue_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::{LRU_SLACK, LRU_SLACK_FLOOR};

    #[test]
    fn insert_lookup_invalidate() {
        let dc = DentryCache::new(8);
        dc.insert(InodeNo(1), "a", InodeNo(2));
        assert_eq!(dc.lookup(InodeNo(1), "a"), Some(InodeNo(2)));
        assert_eq!(dc.lookup(InodeNo(1), "b"), None);
        assert_eq!(dc.lookup(InodeNo(2), "a"), None);
        dc.invalidate(InodeNo(1), "a");
        assert_eq!(dc.lookup(InodeNo(1), "a"), None);
        assert_eq!(dc.hits(), 1);
        assert_eq!(dc.misses(), 3);
    }

    #[test]
    fn capacity_evicts_lru() {
        let dc = DentryCache::new(2);
        dc.insert(InodeNo(1), "a", InodeNo(2));
        dc.insert(InodeNo(1), "b", InodeNo(3));
        let _ = dc.lookup(InodeNo(1), "a"); // touch a
        dc.insert(InodeNo(1), "c", InodeNo(4)); // evicts b
        assert_eq!(dc.len(), 2);
        assert_eq!(dc.lookup(InodeNo(1), "a"), Some(InodeNo(2)));
        assert_eq!(dc.lookup(InodeNo(1), "b"), None);
        assert_eq!(dc.lookup(InodeNo(1), "c"), Some(InodeNo(4)));
    }

    #[test]
    fn a_million_hits_on_a_resident_set_keep_the_queue_bounded() {
        for capacity in [32, 1024] {
            let dc = DentryCache::new(capacity);
            let names: Vec<String> = (0..24).map(|i| format!("f{i}")).collect();
            for (i, n) in names.iter().enumerate() {
                dc.insert(InodeNo(1), n, InodeNo(10 + i as u32));
            }
            for i in 0..1_000_000usize {
                let k = i % names.len();
                assert_eq!(
                    dc.lookup(InodeNo(1), &names[k]),
                    Some(InodeNo(10 + k as u32))
                );
            }
            let slack = LRU_SLACK * names.len() + LRU_SLACK_FLOOR * dc.shards.len();
            assert!(dc.lru_len() <= slack + dc.shards.len(), "{}", dc.lru_len());
            assert_eq!(dc.len(), names.len());
        }
    }

    #[test]
    fn compaction_keeps_lru_order() {
        let dc = DentryCache::new(2);
        dc.insert(InodeNo(1), "cold", InodeNo(2));
        dc.insert(InodeNo(1), "hot", InodeNo(3));
        // enough hits to compact the queue several times over, the
        // last of them on "hot"
        for _ in 0..10 * (LRU_SLACK * 2 + LRU_SLACK_FLOOR) {
            let _ = dc.lookup(InodeNo(1), "cold");
            let _ = dc.lookup(InodeNo(1), "hot");
        }
        dc.insert(InodeNo(1), "new", InodeNo(4)); // evicts "cold"
        assert_eq!(dc.lookup(InodeNo(1), "cold"), None);
        assert_eq!(dc.lookup(InodeNo(1), "hot"), Some(InodeNo(3)));
        assert_eq!(dc.lookup(InodeNo(1), "new"), Some(InodeNo(4)));
    }

    #[test]
    fn reinsert_updates_value() {
        let dc = DentryCache::new(4);
        dc.insert(InodeNo(1), "a", InodeNo(2));
        dc.insert(InodeNo(1), "a", InodeNo(9));
        assert_eq!(dc.lookup(InodeNo(1), "a"), Some(InodeNo(9)));
    }

    #[test]
    fn clear_empties() {
        let dc = DentryCache::new(4);
        dc.insert(InodeNo(1), "a", InodeNo(2));
        dc.clear();
        assert_eq!(dc.lookup(InodeNo(1), "a"), None);
    }

    #[test]
    fn concurrent_lookups_and_inserts_are_safe() {
        use std::sync::Arc;
        use std::thread;
        let dc = Arc::new(DentryCache::new(256));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let dc = Arc::clone(&dc);
            handles.push(thread::spawn(move || {
                for i in 0..200u64 {
                    let name = format!("f{}", (t * 31 + i) % 64);
                    if dc.lookup(InodeNo(1), &name).is_none() {
                        dc.insert(InodeNo(1), &name, InodeNo((100 + (t * 31 + i) % 64) as u32));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(dc.lookup(InodeNo(1), "f0"), Some(InodeNo(100)));
    }
}
