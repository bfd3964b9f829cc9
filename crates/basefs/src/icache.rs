//! The in-memory inode cache: `InodeNo -> DiskInode`.
//!
//! Interior-mutable (`&self` API) and lock-striped, for the same reason
//! as the dentry cache: filesystem *readers* populate it during
//! `load_inode`, so it must tolerate concurrent insertion without a
//! shared exclusive lock. Coherence with on-disk state comes from the
//! `BaseFs` locking discipline — mutations update or remove an entry
//! only while holding its inode's stripe exclusively, and readers insert
//! only values decoded from the page cache under that stripe shared.

use parking_lot::Mutex;
use rae_fsformat::inode::DiskInode;
use rae_vfs::InodeNo;
use std::collections::HashMap;

const ICACHE_SHARDS: usize = 8;

/// A sharded inode cache (see module docs). Unbounded: the inode table
/// itself is cached block-wise in the page cache, so this only holds
/// decoded copies of inodes that are actually referenced.
#[derive(Debug)]
pub(crate) struct InodeCache {
    shards: Vec<Mutex<HashMap<InodeNo, DiskInode>>>,
}

impl InodeCache {
    pub(crate) fn new() -> InodeCache {
        InodeCache {
            shards: (0..ICACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard_for(&self, ino: InodeNo) -> &Mutex<HashMap<InodeNo, DiskInode>> {
        &self.shards[(u64::from(ino.0) % self.shards.len() as u64) as usize]
    }

    pub(crate) fn get(&self, ino: InodeNo) -> Option<DiskInode> {
        self.shard_for(ino).lock().get(&ino).copied()
    }

    pub(crate) fn insert(&self, ino: InodeNo, inode: DiskInode) {
        self.shard_for(ino).lock().insert(ino, inode);
    }

    pub(crate) fn remove(&self, ino: InodeNo) {
        self.shard_for(ino).lock().remove(&ino);
    }

    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_vfs::FileType;

    #[test]
    fn insert_get_remove_clear() {
        let ic = InodeCache::new();
        let inode = DiskInode::new(FileType::Regular, 1);
        assert!(ic.get(InodeNo(5)).is_none());
        ic.insert(InodeNo(5), inode);
        assert_eq!(ic.get(InodeNo(5)).map(|i| i.ftype), Some(FileType::Regular));
        ic.remove(InodeNo(5));
        assert!(ic.get(InodeNo(5)).is_none());
        ic.insert(InodeNo(6), inode);
        ic.insert(InodeNo(14), inode); // same shard as 6
        ic.clear();
        assert!(ic.get(InodeNo(6)).is_none());
        assert!(ic.get(InodeNo(14)).is_none());
    }

    #[test]
    fn concurrent_access_across_shards() {
        use std::sync::Arc;
        use std::thread;
        let ic = Arc::new(InodeCache::new());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let ic = Arc::clone(&ic);
            handles.push(thread::spawn(move || {
                for i in 0..100u32 {
                    let ino = InodeNo(t * 100 + i);
                    ic.insert(ino, DiskInode::new(FileType::Regular, u64::from(i)));
                    assert!(ic.get(ino).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
