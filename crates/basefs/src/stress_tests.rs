//! Stress tests: cache pressure, concurrency, and tiny-resource
//! configurations, each ending in a full consistency check.

use crate::fs::{BaseFs, BaseFsConfig};
use rae_blockdev::{BlockDevice, MemDisk, QueueConfig, BLOCK_SIZE};
use rae_fsformat::{fsck, mkfs, MkfsParams};
use rae_vfs::{FileSystem, FileType, FsError, OpenFlags};
use std::sync::Arc;

fn rw_create() -> OpenFlags {
    OpenFlags::RDWR | OpenFlags::CREATE
}

fn mount(dev: Arc<MemDisk>, config: BaseFsConfig) -> BaseFs {
    BaseFs::mount(dev as Arc<dyn BlockDevice>, config).unwrap()
}

/// Mount with a 4-shard page cache, however small (see
/// [`BaseFs::mount_with_page_shards`]).
fn mount_sharded(dev: Arc<MemDisk>, config: BaseFsConfig) -> BaseFs {
    let fs = BaseFs::mount_with_page_shards(dev as Arc<dyn BlockDevice>, config, 4).unwrap();
    assert_eq!(fs.page_cache().shard_count(), 4);
    fs
}

#[test]
fn tiny_page_cache_forces_eviction_churn() {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    // a 24-page cache with a realistic workload: constant eviction
    let fs = mount(
        dev.clone(),
        BaseFsConfig {
            page_cache_blocks: 24,
            queue: QueueConfig {
                nr_queues: 2,
                queue_depth: 4, // tiny: exercises backpressure
            },
            ..BaseFsConfig::default()
        },
    );
    for i in 0..40 {
        let fd = fs.open(&format!("/f{i}"), rw_create()).unwrap();
        fs.write(fd, 0, &vec![i as u8; 2 * BLOCK_SIZE]).unwrap();
        fs.close(fd).unwrap();
    }
    // all data readable back despite the churn
    for i in 0..40 {
        let fd = fs.open(&format!("/f{i}"), OpenFlags::RDONLY).unwrap();
        let data = fs.read(fd, 0, 2 * BLOCK_SIZE).unwrap();
        assert!(data.iter().all(|&b| b == i as u8), "file {i} corrupted");
        fs.close(fd).unwrap();
    }
    assert!(fs.stats().cache.evictions > 20, "{:?}", fs.stats());
    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}

#[test]
fn tiny_cache_smaller_than_dirty_metadata_set() {
    // dirty metadata is pinned; the cache must be allowed to exceed its
    // nominal capacity rather than lose pinned pages
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let fs = mount(
        dev.clone(),
        BaseFsConfig {
            page_cache_blocks: 4,      // absurdly small
            max_dirty_meta: 1_000_000, // never autocommit
            ..BaseFsConfig::default()
        },
    );
    for i in 0..30 {
        fs.mkdir(&format!("/d{i}")).unwrap();
    }
    for i in 0..30 {
        assert!(fs.stat(&format!("/d{i}")).is_ok());
    }
    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}

#[test]
fn inode_exhaustion_and_recovery_of_space() {
    let dev = Arc::new(MemDisk::new(512));
    mkfs(
        dev.as_ref(),
        MkfsParams {
            total_blocks: 512,
            inode_count: 16, // 14 usable
            journal_blocks: 16,
        },
    )
    .unwrap();
    let fs = mount(dev.clone(), BaseFsConfig::default());
    let mut created = 0;
    let mut i = 0;
    loop {
        match fs.mkdir(&format!("/d{i}")) {
            Ok(()) => created += 1,
            Err(FsError::NoInodes) => break,
            Err(e) => panic!("{e}"),
        }
        i += 1;
    }
    assert_eq!(created, 14, "16 inodes - null - root");
    // freeing makes room again
    fs.rmdir("/d0").unwrap();
    fs.mkdir("/again").unwrap();
    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}

#[test]
fn mixed_concurrent_workload_many_threads() {
    let dev = Arc::new(MemDisk::new(16384));
    mkfs(
        dev.as_ref(),
        MkfsParams {
            total_blocks: 16384,
            inode_count: 4096,
            journal_blocks: 512,
        },
    )
    .unwrap();
    let fs = Arc::new(mount(dev.clone(), BaseFsConfig::default()));
    for t in 0..6 {
        fs.mkdir(&format!("/t{t}")).unwrap();
    }
    let mut handles = Vec::new();
    for t in 0..6u64 {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            for i in 0..60 {
                let path = format!("/t{t}/f{i}");
                let fd = fs.open(&path, rw_create()).unwrap();
                fs.write(fd, 0, &vec![(t * 40 + i) as u8; 1500]).unwrap();
                let back = fs.read(fd, 0, 1500).unwrap();
                assert!(back.iter().all(|&b| b == (t * 40 + i) as u8));
                fs.close(fd).unwrap();
                if i % 7 == 0 {
                    let _ = fs.readdir(&format!("/t{t}")).unwrap();
                }
                if i % 13 == 0 {
                    fs.rename(&path, &format!("/t{t}/r{i}")).unwrap();
                }
                if i % 17 == 0 {
                    let _ = fs.sync();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let fs = Arc::into_inner(fs).unwrap();
    fs.unmount().unwrap();
    let report = fsck(dev.as_ref()).unwrap();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn deep_nesting_and_long_names() {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let fs = mount(dev.clone(), BaseFsConfig::default());

    // 40-deep nesting
    let mut path = String::new();
    for i in 0..40 {
        path.push_str(&format!("/n{i}"));
        fs.mkdir(&path).unwrap();
    }
    let long_name = "x".repeat(rae_vfs::MAX_NAME_LEN);
    let deep_file = format!("{path}/{long_name}");
    let fd = fs.open(&deep_file, rw_create()).unwrap();
    fs.write(fd, 0, b"bottom").unwrap();
    fs.close(fd).unwrap();
    assert_eq!(fs.stat(&deep_file).unwrap().size, 6);

    // a name one byte too long is rejected cleanly
    let too_long = format!("{path}/{}", "y".repeat(rae_vfs::MAX_NAME_LEN + 1));
    assert_eq!(fs.open(&too_long, rw_create()), Err(FsError::NameTooLong));

    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}

#[test]
fn file_grows_and_shrinks_through_every_pointer_tier() {
    let dev = Arc::new(MemDisk::new(16384));
    mkfs(
        dev.as_ref(),
        MkfsParams {
            total_blocks: 16384,
            inode_count: 256,
            journal_blocks: 128,
        },
    )
    .unwrap();
    let fs = mount(dev.clone(), BaseFsConfig::default());
    let fd = fs.open("/grow", rw_create()).unwrap();
    let free0 = fs.statfs().unwrap().free_blocks;

    // direct tier (12 blocks), indirect tier (+100), double tier (one
    // far block)
    fs.write(fd, 0, &vec![1u8; 12 * BLOCK_SIZE]).unwrap();
    fs.write(fd, 12 * BLOCK_SIZE as u64, &vec![2u8; 100 * BLOCK_SIZE])
        .unwrap();
    let far = (12 + 512 + 100) as u64 * BLOCK_SIZE as u64;
    fs.write(fd, far, b"far out").unwrap();
    assert_eq!(fs.fstat(fd).unwrap().size, far + 7);

    // spot-check all tiers read back
    assert_eq!(fs.read(fd, 5, 1).unwrap(), vec![1]);
    assert_eq!(fs.read(fd, 50 * BLOCK_SIZE as u64, 1).unwrap(), vec![2]);
    assert_eq!(fs.read(fd, far, 7).unwrap(), b"far out");

    // shrink tier by tier; block accounting must return to zero
    fs.truncate(fd, (12 + 50) as u64 * BLOCK_SIZE as u64)
        .unwrap();
    fs.truncate(fd, 6 * BLOCK_SIZE as u64).unwrap();
    fs.truncate(fd, 0).unwrap();
    assert_eq!(fs.fstat(fd).unwrap().blocks, 0);
    assert_eq!(fs.statfs().unwrap().free_blocks, free0);
    fs.close(fd).unwrap();
    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}

/// Readers race writers and cache eviction on a sharded, read-mostly
/// locked filesystem; final contents are cross-checked against the
/// sequential model oracle.
#[test]
fn concurrent_readers_race_writers_and_eviction_vs_model_oracle() {
    const FILES_PER_WRITER: usize = 4;
    const WRITERS: u64 = 2;
    const READERS: u64 = 4;
    const ROUNDS: u8 = 25;
    const FILE_BLOCKS: usize = 3;

    let dev = Arc::new(MemDisk::new(16384));
    mkfs(
        dev.as_ref(),
        MkfsParams {
            total_blocks: 16384,
            inode_count: 1024,
            journal_blocks: 512,
        },
    )
    .unwrap();
    // small sharded cache: constant eviction under the read load
    let fs = Arc::new(mount_sharded(
        dev.clone(),
        BaseFsConfig {
            page_cache_blocks: 20,
            queue: QueueConfig {
                nr_queues: 2,
                queue_depth: 4,
            },
            ..BaseFsConfig::default()
        },
    ));
    let path = |w: u64, i: usize| format!("/w{w}_f{i}");
    for w in 0..WRITERS {
        for i in 0..FILES_PER_WRITER {
            let fd = fs.open(&path(w, i), rw_create()).unwrap();
            fs.write(fd, 0, &vec![0u8; FILE_BLOCKS * BLOCK_SIZE])
                .unwrap();
            fs.close(fd).unwrap();
        }
    }
    fs.sync().unwrap();

    let mut handles = Vec::new();
    // writers: each owns a disjoint file set, bumps fill value per round
    for w in 0..WRITERS {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            for round in 1..=ROUNDS {
                for i in 0..FILES_PER_WRITER {
                    let fd = fs.open(&path(w, i), OpenFlags::RDWR).unwrap();
                    fs.write(fd, 0, &vec![round; FILE_BLOCKS * BLOCK_SIZE])
                        .unwrap();
                    fs.close(fd).unwrap();
                }
                if round % 5 == 0 {
                    fs.sync().unwrap();
                }
            }
        }));
    }
    // readers: whole-op atomicity means every read observes exactly one
    // round's uniform fill, and rounds are monotone per file
    for r in 0..READERS {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            let mut last_seen = [[0u8; FILES_PER_WRITER]; WRITERS as usize];
            for k in 0..300u64 {
                let w = (r + k) % WRITERS;
                let i = ((k * 7) % FILES_PER_WRITER as u64) as usize;
                let fd = fs.open(&path(w, i), OpenFlags::RDONLY).unwrap();
                let data = fs.read(fd, 0, FILE_BLOCKS * BLOCK_SIZE).unwrap();
                fs.close(fd).unwrap();
                assert_eq!(data.len(), FILE_BLOCKS * BLOCK_SIZE);
                let v = data[0];
                assert!(
                    data.iter().all(|&b| b == v),
                    "torn read: file /w{w}_f{i} mixes fill values"
                );
                assert!(
                    v >= last_seen[w as usize][i],
                    "non-monotone read: saw {v} after {}",
                    last_seen[w as usize][i]
                );
                last_seen[w as usize][i] = v;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // oracle: the same final state produced sequentially on the model
    let model = rae_fsmodel::ModelFs::new();
    for w in 0..WRITERS {
        for i in 0..FILES_PER_WRITER {
            let fd = model.open(&path(w, i), rw_create()).unwrap();
            model
                .write(fd, 0, &vec![ROUNDS; FILE_BLOCKS * BLOCK_SIZE])
                .unwrap();
            model.close(fd).unwrap();
        }
    }
    for w in 0..WRITERS {
        for i in 0..FILES_PER_WRITER {
            let fd = fs.open(&path(w, i), OpenFlags::RDONLY).unwrap();
            let got = fs.read(fd, 0, FILE_BLOCKS * BLOCK_SIZE).unwrap();
            fs.close(fd).unwrap();
            let mfd = model.open(&path(w, i), OpenFlags::RDONLY).unwrap();
            let want = model.read(mfd, 0, FILE_BLOCKS * BLOCK_SIZE).unwrap();
            model.close(mfd).unwrap();
            assert_eq!(
                got, want,
                "final content of /w{w}_f{i} diverges from oracle"
            );
        }
    }
    let stats = fs.stats();
    assert!(
        stats.cache.evictions > 0,
        "cache too large to stress eviction"
    );
    assert!(stats.cache.hits > 0 && stats.cache.misses > 0, "{stats:?}");

    let fs = Arc::try_unwrap(fs).expect("all threads joined");
    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}

/// Recursive `(path, size, content)` listing, directories first as
/// `(path, 0, [])`, sorted by the traversal — comparable across
/// filesystems because both sides sort entries by name.
fn tree_of(fs: &dyn FileSystem, dir: &str, out: &mut Vec<(String, u64, Vec<u8>)>) {
    let mut entries = fs.readdir(dir).unwrap();
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    for e in entries {
        let p = if dir == "/" {
            format!("/{}", e.name)
        } else {
            format!("{dir}/{}", e.name)
        };
        if e.ftype == FileType::Directory {
            out.push((p.clone(), 0, Vec::new()));
            tree_of(fs, &p, out);
        } else {
            let st = fs.stat(&p).unwrap();
            let fd = fs.open(&p, OpenFlags::RDONLY).unwrap();
            let data = fs.read(fd, 0, st.size as usize).unwrap();
            fs.close(fd).unwrap();
            out.push((p, st.size, data));
        }
    }
}

/// Sibling races (every thread mutating the same parent directory) and
/// nested-subtree races (threads mutating different levels of one
/// directory chain, so lookups race ancestor mutations) under the
/// sharded mutation path. Thread programs are deterministic and
/// name-disjoint, so any serialization of the interleaving must reach
/// the same final tree — cross-checked against the sequential model
/// oracle running the identical programs.
#[test]
fn concurrent_mutators_sibling_and_nested_races_vs_model_oracle() {
    const THREADS: u64 = 4;
    const ROUNDS: usize = 30;

    fn churn(fs: &dyn FileSystem, t: u64) {
        let level = ["/tree", "/tree/a", "/tree/a/b"][(t % 3) as usize];
        for i in 0..ROUNDS {
            // sibling race: all threads churn /shared concurrently
            let f = format!("/shared/t{t}_f{i}");
            let fd = fs.open(&f, rw_create()).unwrap();
            fs.write(fd, 0, &vec![(t as u8) << 5 | (i as u8); 600])
                .unwrap();
            fs.close(fd).unwrap();
            if i % 3 == 0 {
                fs.rename(&f, &format!("/shared/t{t}_r{i}")).unwrap();
            }
            if i % 4 == 0 {
                let cur = if i % 12 == 0 {
                    format!("/shared/t{t}_r{i}")
                } else {
                    f.clone()
                };
                fs.unlink(&cur).unwrap();
            }
            // nested race: each thread owns one depth of the chain
            let n = format!("{level}/t{t}_n{i}");
            let fd = fs.open(&n, rw_create()).unwrap();
            fs.write(fd, 0, &vec![0xA0 | (t as u8); 300]).unwrap();
            fs.close(fd).unwrap();
            if i % 2 == 0 {
                fs.unlink(&n).unwrap();
            }
        }
    }

    let dev = Arc::new(MemDisk::new(16384));
    mkfs(
        dev.as_ref(),
        MkfsParams {
            total_blocks: 16384,
            inode_count: 1024,
            journal_blocks: 512,
        },
    )
    .unwrap();
    let fs = Arc::new(mount(dev.clone(), BaseFsConfig::default()));
    for d in ["/shared", "/tree", "/tree/a", "/tree/a/b"] {
        fs.mkdir(d).unwrap();
    }
    fs.sync().unwrap();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let fs = Arc::clone(&fs);
            std::thread::spawn(move || churn(fs.as_ref(), t))
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // oracle: identical programs, applied sequentially to the model
    let model = rae_fsmodel::ModelFs::new();
    for d in ["/shared", "/tree", "/tree/a", "/tree/a/b"] {
        model.mkdir(d).unwrap();
    }
    for t in 0..THREADS {
        churn(&model, t);
    }
    let mut got = Vec::new();
    let mut want = Vec::new();
    tree_of(fs.as_ref(), "/", &mut got);
    tree_of(&model, "/", &mut want);
    assert_eq!(got, want, "concurrent final tree diverges from oracle");

    let fs = Arc::try_unwrap(fs).expect("all threads joined");
    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}

/// Concurrent writers fsync in lockstep so the journal group-commits
/// their mutations in shared batches; a crash (all in-memory state
/// lost) must replay the journal to a batch-atomic state equal to the
/// model tree of everything acknowledged before the crash.
#[test]
fn crash_after_group_commits_replays_to_model_tree() {
    const THREADS: usize = 4;
    const ROUNDS: u8 = 12;
    const FILE_BLOCKS: usize = 2;

    let dev = Arc::new(MemDisk::new(16384));
    mkfs(
        dev.as_ref(),
        MkfsParams {
            total_blocks: 16384,
            inode_count: 256,
            journal_blocks: 512,
        },
    )
    .unwrap();
    let fs = Arc::new(mount(dev.clone(), BaseFsConfig::default()));
    for t in 0..THREADS {
        let fd = fs.open(&format!("/gc{t}"), rw_create()).unwrap();
        fs.write(fd, 0, &vec![0u8; FILE_BLOCKS * BLOCK_SIZE])
            .unwrap();
        fs.close(fd).unwrap();
    }
    fs.sync().unwrap();
    let commits_before = fs.stats().journal_commits;

    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let fs = Arc::clone(&fs);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for round in 1..=ROUNDS {
                    let fd = fs.open(&format!("/gc{t}"), OpenFlags::RDWR).unwrap();
                    fs.write(fd, 0, &vec![round; FILE_BLOCKS * BLOCK_SIZE])
                        .unwrap();
                    // all threads reach fsync together: the commit
                    // leader absorbs the whole round into one batch
                    barrier.wait();
                    fs.fsync(fd).unwrap();
                    fs.close(fd).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let commits = fs.stats().journal_commits - commits_before;
    assert!(
        commits < (THREADS as u64) * u64::from(ROUNDS),
        "fsyncs never coalesced: {commits} commits for {} fsyncs",
        THREADS * ROUNDS as usize
    );

    // crash: caches, queues, and any open batch vanish; only the
    // journal's committed batches survive
    let fs = Arc::try_unwrap(fs).expect("all threads joined");
    fs.crash();
    let fs = mount(dev.clone(), BaseFsConfig::default());

    // every fsync was acknowledged, so replay must land exactly on the
    // model tree of the final round — nothing torn, nothing lost
    let model = rae_fsmodel::ModelFs::new();
    for t in 0..THREADS {
        let fd = model.open(&format!("/gc{t}"), rw_create()).unwrap();
        model
            .write(fd, 0, &vec![ROUNDS; FILE_BLOCKS * BLOCK_SIZE])
            .unwrap();
        model.close(fd).unwrap();
    }
    let mut got = Vec::new();
    let mut want = Vec::new();
    tree_of(&fs, "/", &mut got);
    tree_of(&model, "/", &mut want);
    assert_eq!(got, want, "replayed tree diverges from acknowledged state");

    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}

/// Concurrent readers during barrier/commit activity must see
/// post-write content: an evicted-but-unbarriered dirty page is served
/// from the in-flight table, never stale from the device.
#[test]
fn concurrent_readers_during_commit_see_post_write_content() {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    // depth-1 single queue: submitted write-back lingers, so the
    // in-flight window between eviction and barrier is wide
    let fs = Arc::new(mount_sharded(
        dev.clone(),
        BaseFsConfig {
            page_cache_blocks: 16,
            queue: QueueConfig {
                nr_queues: 1,
                queue_depth: 1,
            },
            max_dirty_meta: 1_000_000, // commits only when we say so
            ..BaseFsConfig::default()
        },
    ));
    let fd = fs.open("/hot", rw_create()).unwrap();
    fs.write(fd, 0, &vec![0u8; BLOCK_SIZE]).unwrap();
    fs.sync().unwrap();

    for round in 1..=30u8 {
        fs.write(fd, 0, &vec![round; BLOCK_SIZE]).unwrap();
        // flood other files to evict /hot's dirty data page
        for j in 0..24u64 {
            let f = fs.open(&format!("/spill{j}"), rw_create()).unwrap();
            fs.write(f, 0, &vec![0xEE; BLOCK_SIZE]).unwrap();
            fs.close(f).unwrap();
        }
        let mut handles = Vec::new();
        // one thread drives the barrier/commit
        {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                fs.sync().unwrap();
            }));
        }
        // readers race the commit; all must see this round's content
        for _ in 0..3 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    let rfd = fs.open("/hot", OpenFlags::RDONLY).unwrap();
                    let data = fs.read(rfd, 0, BLOCK_SIZE).unwrap();
                    fs.close(rfd).unwrap();
                    assert!(
                        data.iter().all(|&b| b == round),
                        "round {round}: reader saw pre-write content during commit"
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
    fs.close(fd).unwrap();
    let fs = Arc::try_unwrap(fs).expect("all threads joined");
    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}
