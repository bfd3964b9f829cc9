//! The lazy-queue LRU both caches evict by: one shard's map plus a
//! queue of `(key, stamp)` in recency order. A touch re-stamps its entry
//! and pushes it again, leaving the old queue entry stale; eviction pops
//! from the front and skips entries whose key is gone or whose stamp has
//! moved on. A cache that never evicts would never pop the stale
//! entries, so [`Lru::push`] rebuilds a queue that has outgrown the
//! resident set by [`LRU_SLACK`] from the map (the live entries are
//! exactly the resident ones at their current stamps): O(resident), at
//! most once every `(LRU_SLACK - 1) * resident` pushes.
//!
//! Stamps come from the shard's own clock ([`Lru::tick`]), read and
//! advanced under the shard lock, and the shard counts its own hits: a
//! cache hit writes only the shard it hits, never a line every shard's
//! users share. Stamps order touches within a shard, which is all
//! eviction, being shard-local, ever compares.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A shard's queue is compacted when it is longer than this many times
/// its resident entries (plus [`LRU_SLACK_FLOOR`], so tiny shards do not
/// compact on every other push): 256 bytes of queue per 4 KiB page at
/// most. Not smaller, because the push that compacts holds the shard
/// lock for a few microseconds: at a multiple of 4 one page-cache hit in
/// ~450 did, enough to move the p99 of a 1 µs read by half; at 16 it is
/// one in ~2000 and the tail is where it was.
pub(crate) const LRU_SLACK: usize = 16;
pub(crate) const LRU_SLACK_FLOOR: usize = 64;

/// The shard count for a cache of `capacity` entries: 8, or 1 below 64
/// entries so small caches keep exact LRU order (capacity-sensitive
/// tests, tiny tools).
pub(crate) fn shard_count(capacity: usize) -> usize {
    if capacity < 64 {
        1
    } else {
        8
    }
}

/// A cached value that carries the stamp of its last touch.
pub(crate) trait Stamped {
    fn stamp(&self) -> u64;
}

/// One shard's map and its lazy LRU queue (see the module docs). Code
/// that re-stamps a value in `map` must take the stamp from
/// [`Lru::tick`] and [`Lru::push`] it; removing from `map` directly is
/// fine, the queue entry goes stale.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    pub(crate) map: HashMap<K, V>,
    queue: VecDeque<(K, u64)>,
    /// The shard's clock: the last stamp handed out.
    clock: u64,
    /// Lookups this shard served.
    hits: u64,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            map: HashMap::new(),
            queue: VecDeque::new(),
            clock: 0,
            hits: 0,
        }
    }
}

impl<K, V> Lru<K, V> {
    /// The next stamp of this shard's clock, later than every stamp it
    /// handed out before.
    pub(crate) fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Count one lookup served from this shard.
    pub(crate) fn note_hit(&mut self) {
        self.hits += 1;
    }

    /// Lookups this shard served.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }
}

impl<K: Hash + Eq + Clone, V: Stamped> Lru<K, V> {
    /// Insert `value` as the most recently used entry, returning the
    /// value it replaced.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let stamp = value.stamp();
        let old = self.map.insert(key.clone(), value);
        self.push(key, stamp);
        old
    }

    /// Queue `(key, stamp)` as the entry's current LRU position,
    /// compacting the queue if it has outgrown the resident set.
    pub(crate) fn push(&mut self, key: K, stamp: u64) {
        self.queue.push_back((key, stamp));
        if self.queue.len() > LRU_SLACK * self.map.len() + LRU_SLACK_FLOOR {
            self.queue.clear();
            self.queue
                .extend(self.map.iter().map(|(k, v)| (k.clone(), v.stamp())));
            self.queue
                .make_contiguous()
                .sort_unstable_by_key(|&(_, stamp)| stamp);
        }
    }

    /// Evict least recently used entries until at most `capacity`
    /// remain, handing each to `evicted`. Stale queue entries are
    /// skipped; live ones that are `pinned` are kept and go back to the
    /// front of the queue in their order. Stops at the first error of
    /// `evicted`, or when everything left is pinned.
    pub(crate) fn evict<E>(
        &mut self,
        capacity: usize,
        pinned: impl Fn(&V) -> bool,
        mut evicted: impl FnMut(K, V) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut skipped: Vec<(K, u64)> = Vec::new();
        let mut result = Ok(());
        while self.map.len() > capacity && result.is_ok() {
            let Some((key, stamp)) = self.queue.pop_front() else {
                break;
            };
            match self.map.get(&key) {
                Some(v) if v.stamp() == stamp && pinned(v) => skipped.push((key, stamp)),
                Some(v) if v.stamp() == stamp => {
                    let value = self.map.remove(&key).expect("live entry");
                    result = evicted(key, value);
                }
                _ => {} // stale
            }
        }
        for e in skipped.into_iter().rev() {
            self.queue.push_front(e);
        }
        result
    }

    /// Drop every entry. The clock and the hit count run on.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.queue.clear();
    }

    /// Queue entries, stale ones included (test observability).
    #[cfg(test)]
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    struct Entry(u64);

    impl Stamped for Entry {
        fn stamp(&self) -> u64 {
            self.0
        }
    }

    /// A cache of `keys` inserted in order with stamps 1, 2, …, and the
    /// last stamp used.
    fn filled(keys: impl IntoIterator<Item = u64>) -> (Lru<u64, Entry>, u64) {
        let mut lru = Lru::default();
        let mut stamp = 0;
        for k in keys {
            stamp += 1;
            lru.insert(k, Entry(stamp));
        }
        (lru, stamp)
    }

    fn touch(lru: &mut Lru<u64, Entry>, key: u64, stamp: u64) {
        lru.map.get_mut(&key).unwrap().0 = stamp;
        lru.push(key, stamp);
    }

    /// Evict down to `capacity`, keeping entries whose stamp is in
    /// `pinned`, and return the evicted keys in order.
    fn evict_keys(lru: &mut Lru<u64, Entry>, capacity: usize, pinned: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        lru.evict(
            capacity,
            |v| pinned.contains(&v.0),
            |k, _| {
                out.push(k);
                Ok::<(), Infallible>(())
            },
        )
        .unwrap();
        out
    }

    #[test]
    fn a_million_touches_keep_the_queue_within_its_slack() {
        let resident = 24u64;
        let (mut lru, mut stamp) = filled(0..resident);
        let bound = LRU_SLACK * resident as usize + LRU_SLACK_FLOOR;
        for i in 0..1_000_000u64 {
            stamp += 1;
            // skewed, so some entries are re-stamped far more often
            let key = if i % 4 == 0 { i % resident } else { i % 3 };
            touch(&mut lru, key, stamp);
            assert!(lru.queue_len() <= bound, "{} queued", lru.queue_len());
        }
        assert_eq!(lru.map.len(), resident as usize);
    }

    #[test]
    fn recency_order_survives_compaction() {
        let (mut lru, mut stamp) = filled(0..8);
        // enough touches of 0..4 to compact the queue several times,
        // ending on 3, 2, 1, 0 (so 0 is the hottest)
        for i in 0..10 * (LRU_SLACK * 8 + LRU_SLACK_FLOOR) as u64 {
            stamp += 1;
            touch(&mut lru, 3 - i % 4, stamp);
        }
        assert!(lru.queue_len() <= LRU_SLACK * 8 + LRU_SLACK_FLOOR);
        assert_eq!(evict_keys(&mut lru, 0, &[]), [4, 5, 6, 7, 3, 2, 1, 0]);
    }

    #[test]
    fn stale_entries_are_skipped_on_pop() {
        let (mut lru, stamp) = filled([1, 2, 3]);
        touch(&mut lru, 1, stamp + 1); // 1's first entry goes stale
        lru.map.remove(&2); // so does 2's only one
        assert_eq!(lru.queue_len(), 4);
        assert_eq!(evict_keys(&mut lru, 1, &[]), [3]);
        assert!(lru.map.contains_key(&1));
    }

    #[test]
    fn refused_entries_go_back_to_the_front_in_order() {
        let (mut lru, _) = filled(1..=5); // stamp == key
        assert_eq!(evict_keys(&mut lru, 3, &[1, 3]), [2, 4]);
        // the refused 1 and 3 are still the coldest, in their order
        assert_eq!(evict_keys(&mut lru, 0, &[]), [1, 3, 5]);
    }

    #[test]
    fn an_error_stops_eviction_and_keeps_the_refused() {
        let (mut lru, _) = filled(1..=4); // stamp == key
        assert_eq!(lru.evict(0, |v| v.0 == 1, |k, _| Err(k)), Err(2));
        assert_eq!(evict_keys(&mut lru, 0, &[]), [1, 3, 4]);
    }

    #[test]
    fn small_caches_get_one_shard() {
        assert_eq!(shard_count(1), 1);
        assert_eq!(shard_count(63), 1);
        assert_eq!(shard_count(64), 8);
    }
}
