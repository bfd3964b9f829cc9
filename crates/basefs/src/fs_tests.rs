//! Unit and conformance tests for [`BaseFs`].

use crate::fs::{BaseFs, BaseFsConfig, CommitState};
use rae_blockdev::{BlockDevice, MemDisk, BLOCK_SIZE};
use rae_faults::{BugSpec, Effect, FaultRegistry, Site, Trigger};
use rae_fsformat::{fsck, mkfs, MkfsParams};
use rae_vfs::{Fd, FileSystem, FileType, FsError, OpenFlags, SetAttr, FIRST_FD};
use std::sync::Arc;

fn fresh() -> (Arc<MemDisk>, BaseFs) {
    fresh_with(BaseFsConfig::default())
}

fn fresh_with(config: BaseFsConfig) -> (Arc<MemDisk>, BaseFs) {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let fs = BaseFs::mount(dev.clone() as Arc<dyn BlockDevice>, config).unwrap();
    (dev, fs)
}

fn rw_create() -> OpenFlags {
    OpenFlags::RDWR | OpenFlags::CREATE
}

#[test]
fn create_write_read_roundtrip() {
    let (_dev, fs) = fresh();
    let fd = fs.open("/hello.txt", rw_create()).unwrap();
    assert_eq!(fd, Fd(FIRST_FD));
    assert_eq!(fs.write(fd, 0, b"hello world").unwrap(), 11);
    assert_eq!(fs.read(fd, 0, 100).unwrap(), b"hello world");
    assert_eq!(fs.read(fd, 6, 5).unwrap(), b"world");
    fs.close(fd).unwrap();
}

#[test]
fn multi_block_and_indirect_files() {
    let (_dev, fs) = fresh();
    let fd = fs.open("/big", rw_create()).unwrap();
    // 20 blocks: spans direct (12) into single-indirect territory
    let payload: Vec<u8> = (0..20 * BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
    assert_eq!(fs.write(fd, 0, &payload).unwrap(), payload.len());
    let back = fs.read(fd, 0, payload.len()).unwrap();
    assert_eq!(back, payload);
    // unaligned read across a block boundary
    let cross = fs.read(fd, BLOCK_SIZE as u64 - 10, 20).unwrap();
    assert_eq!(&cross[..], &payload[BLOCK_SIZE - 10..BLOCK_SIZE + 10]);
    let st = fs.fstat(fd).unwrap();
    assert_eq!(st.size, payload.len() as u64);
    assert_eq!(st.blocks, 21, "20 data + 1 indirect");
    fs.close(fd).unwrap();
}

#[test]
fn double_indirect_reach() {
    let (_dev, fs) = fresh();
    let fd = fs.open("/huge", rw_create()).unwrap();
    // write one block at file-block index 12+512+5 (double-indirect)
    let idx = (12 + 512 + 5) as u64;
    let off = idx * BLOCK_SIZE as u64;
    fs.write(fd, off, b"deep block").unwrap();
    assert_eq!(fs.read(fd, off, 10).unwrap(), b"deep block");
    // the hole before it reads as zeroes
    assert_eq!(fs.read(fd, 0, 4).unwrap(), vec![0u8; 4]);
    let st = fs.fstat(fd).unwrap();
    assert_eq!(st.size, off + 10);
    assert_eq!(st.blocks, 3, "1 data + dindirect + 1 L1");
    fs.close(fd).unwrap();
}

#[test]
fn sparse_files_read_zeroes_and_survive_sync() {
    let (_dev, fs) = fresh();
    let fd = fs.open("/sparse", rw_create()).unwrap();
    fs.write(fd, 3 * BLOCK_SIZE as u64, b"x").unwrap();
    assert_eq!(fs.read(fd, 0, 4).unwrap(), vec![0; 4]);
    fs.fsync(fd).unwrap();
    assert_eq!(fs.fstat(fd).unwrap().blocks, 1);
    fs.close(fd).unwrap();
}

#[test]
fn append_mode() {
    let (_dev, fs) = fresh();
    let fd = fs.open("/log", rw_create() | OpenFlags::APPEND).unwrap();
    fs.write(fd, 999, b"aa").unwrap();
    fs.write(fd, 0, b"bb").unwrap();
    assert_eq!(fs.read(fd, 0, 10).unwrap(), b"aabb");
    fs.close(fd).unwrap();
}

#[test]
fn truncate_shrink_zero_fills_tail_on_reextension() {
    let (_dev, fs) = fresh();
    let fd = fs.open("/t", rw_create()).unwrap();
    fs.write(fd, 0, &[0xFFu8; 100]).unwrap();
    fs.truncate(fd, 50).unwrap();
    fs.truncate(fd, 100).unwrap();
    let back = fs.read(fd, 0, 100).unwrap();
    assert_eq!(&back[..50], &[0xFFu8; 50][..]);
    assert_eq!(&back[50..], &[0u8; 50][..], "stale bytes must not reappear");
    fs.close(fd).unwrap();
}

#[test]
fn truncate_frees_blocks() {
    let (_dev, fs) = fresh();
    let fd = fs.open("/t", rw_create()).unwrap();
    let before = fs.statfs().unwrap().free_blocks;
    let payload = vec![1u8; 20 * BLOCK_SIZE];
    fs.write(fd, 0, &payload).unwrap();
    let during = fs.statfs().unwrap().free_blocks;
    assert_eq!(before - during, 21);
    fs.truncate(fd, 0).unwrap();
    assert_eq!(fs.statfs().unwrap().free_blocks, before);
    assert_eq!(fs.fstat(fd).unwrap().blocks, 0);
    fs.close(fd).unwrap();
}

#[test]
fn freed_metadata_block_reused_as_data_survives_checkpoint() {
    // Block-reuse vs checkpoint hazard: a directory block is committed
    // to the journal (pending, not yet checkpointed), the directory is
    // removed, and the freed block is reallocated as file data — which
    // reaches its home location directly in ordered mode. The stale
    // pending image must not overwrite the file at the next checkpoint.
    let dev = Arc::new(MemDisk::new(512));
    mkfs(
        dev.as_ref(),
        MkfsParams {
            total_blocks: 512,
            inode_count: 128,
            journal_blocks: 64,
        },
    )
    .unwrap();
    let fs = BaseFs::mount(dev.clone() as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();

    fs.mkdir("/d").unwrap();
    let fd = fs.open("/d/f", rw_create()).unwrap();
    fs.close(fd).unwrap();
    fs.sync().unwrap(); // the dir block image is now pending

    fs.unlink("/d/f").unwrap();
    fs.rmdir("/d").unwrap(); // frees the dir block

    // Fill every remaining free block so the roving allocator wraps
    // around and reuses the freed one, then checkpoint and reboot so
    // reads come from disk rather than the page cache.
    let pattern = |i: u64| vec![(i % 251) as u8 + 1; BLOCK_SIZE];
    let fd = fs.open("/fill", rw_create()).unwrap();
    let mut written = 0u64;
    loop {
        match fs.write(fd, written * BLOCK_SIZE as u64, &pattern(written)) {
            Ok(_) => written += 1,
            Err(FsError::NoSpace) => break,
            Err(e) => panic!("unexpected error while filling: {e}"),
        }
    }
    assert!(written > 0, "the fill file must allocate blocks");
    fs.close(fd).unwrap();
    fs.checkpoint().unwrap();
    fs.contained_reboot().unwrap();

    let fd = fs.open("/fill", OpenFlags::RDONLY).unwrap();
    for i in 0..written {
        let back = fs.read(fd, i * BLOCK_SIZE as u64, BLOCK_SIZE).unwrap();
        assert_eq!(
            back,
            pattern(i),
            "block {i} of the fill file was overwritten by a stale checkpoint image"
        );
    }
    fs.close(fd).unwrap();
}

#[test]
fn directory_tree_operations() {
    let (_dev, fs) = fresh();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    fs.mkdir("/a/b/c").unwrap();
    assert_eq!(fs.mkdir("/a"), Err(FsError::Exists));
    assert_eq!(fs.mkdir("/x/y"), Err(FsError::NotFound));

    let fd = fs.open("/a/b/file", rw_create()).unwrap();
    fs.close(fd).unwrap();

    let names: Vec<String> = fs
        .readdir("/a/b")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names.len(), 2);
    assert!(names.contains(&"c".to_string()));
    assert!(names.contains(&"file".to_string()));

    assert_eq!(fs.rmdir("/a/b"), Err(FsError::NotEmpty));
    fs.unlink("/a/b/file").unwrap();
    fs.rmdir("/a/b/c").unwrap();
    fs.rmdir("/a/b").unwrap();
    fs.rmdir("/a").unwrap();
    assert!(fs.readdir("/").unwrap().is_empty());
}

#[test]
fn large_directory_spans_blocks() {
    let (_dev, fs) = fresh();
    fs.mkdir("/big").unwrap();
    // ~1000 entries with 40-byte names: > 3 blocks of dirents
    for i in 0..1000 {
        let path = format!("/big/{:040}", i);
        let fd = fs.open(&path, rw_create()).unwrap();
        fs.close(fd).unwrap();
    }
    assert_eq!(fs.readdir("/big").unwrap().len(), 1000);
    let st = fs.stat("/big").unwrap();
    assert!(st.size >= 4 * BLOCK_SIZE as u64, "dir grew to {}", st.size);
    // delete them all; the directory shrinks back
    for i in 0..1000 {
        fs.unlink(&format!("/big/{:040}", i)).unwrap();
    }
    assert!(fs.readdir("/big").unwrap().is_empty());
    assert_eq!(
        fs.stat("/big").unwrap().size,
        0,
        "trailing blocks reclaimed"
    );
    fs.rmdir("/big").unwrap();
}

#[test]
fn rename_semantics_match_the_model() {
    let (_dev, fs) = fresh();
    fs.mkdir("/d1").unwrap();
    fs.mkdir("/d2").unwrap();
    let fd = fs.open("/d1/f", rw_create()).unwrap();
    fs.write(fd, 0, b"content").unwrap();
    fs.close(fd).unwrap();

    fs.rename("/d1/f", "/d2/g").unwrap();
    assert_eq!(fs.stat("/d1/f"), Err(FsError::NotFound));
    assert_eq!(fs.stat("/d2/g").unwrap().size, 7);

    // directory rename updates parent link counts
    assert_eq!(fs.stat("/").unwrap().nlink, 4, "root + d1 + d2");
    fs.rename("/d2", "/d1/d2moved").unwrap();
    assert_eq!(fs.stat("/").unwrap().nlink, 3);
    assert_eq!(fs.stat("/d1").unwrap().nlink, 3);
    assert_eq!(fs.stat("/d1/d2moved/g").unwrap().size, 7);

    // loop prevention
    assert_eq!(
        fs.rename("/d1", "/d1/d2moved/inner"),
        Err(FsError::RenameLoop)
    );
    // replacing an open file is Busy
    let held = fs.open("/d1/d2moved/g", OpenFlags::RDONLY).unwrap();
    let fd2 = fs.open("/other", rw_create()).unwrap();
    fs.close(fd2).unwrap();
    assert_eq!(fs.rename("/other", "/d1/d2moved/g"), Err(FsError::Busy));
    fs.close(held).unwrap();
    fs.rename("/other", "/d1/d2moved/g").unwrap();
}

#[test]
fn hard_links_and_nlink() {
    let (_dev, fs) = fresh();
    let fd = fs.open("/a", rw_create()).unwrap();
    fs.write(fd, 0, b"shared").unwrap();
    fs.close(fd).unwrap();
    fs.link("/a", "/b").unwrap();
    assert_eq!(fs.stat("/a").unwrap().nlink, 2);
    assert_eq!(fs.stat("/a").unwrap().ino, fs.stat("/b").unwrap().ino);
    fs.unlink("/a").unwrap();
    assert_eq!(fs.stat("/b").unwrap().nlink, 1);
    let fd = fs.open("/b", OpenFlags::RDONLY).unwrap();
    assert_eq!(fs.read(fd, 0, 6).unwrap(), b"shared");
    fs.close(fd).unwrap();
    // freeing the last link releases the inode and blocks
    let free_before = fs.statfs().unwrap().free_inodes;
    fs.unlink("/b").unwrap();
    assert_eq!(fs.statfs().unwrap().free_inodes, free_before + 1);
}

#[test]
fn symlink_roundtrip() {
    let (_dev, fs) = fresh();
    fs.symlink("/target/path", "/s").unwrap();
    assert_eq!(fs.readlink("/s").unwrap(), "/target/path");
    assert_eq!(fs.stat("/s").unwrap().ftype, FileType::Symlink);
    assert_eq!(
        fs.open("/s", OpenFlags::RDONLY),
        Err(FsError::InvalidArgument)
    );
    fs.symlink("", "/empty").unwrap();
    assert_eq!(fs.readlink("/empty").unwrap(), "");
    fs.unlink("/s").unwrap();
    assert_eq!(fs.readlink("/s"), Err(FsError::NotFound));
}

#[test]
fn unlink_open_file_is_busy() {
    let (_dev, fs) = fresh();
    let fd = fs.open("/f", rw_create()).unwrap();
    assert_eq!(fs.unlink("/f"), Err(FsError::Busy));
    fs.close(fd).unwrap();
    fs.unlink("/f").unwrap();
}

#[test]
fn setattr_size() {
    let (_dev, fs) = fresh();
    let fd = fs.open("/f", rw_create()).unwrap();
    fs.write(fd, 0, b"0123456789").unwrap();
    fs.close(fd).unwrap();
    fs.setattr(
        "/f",
        SetAttr {
            size: Some(4),
            mtime: None,
        },
    )
    .unwrap();
    assert_eq!(fs.stat("/f").unwrap().size, 4);
    fs.mkdir("/d").unwrap();
    assert_eq!(
        fs.setattr(
            "/d",
            SetAttr {
                size: Some(0),
                mtime: None
            }
        ),
        Err(FsError::IsDir)
    );
}

#[test]
fn nospace_is_all_or_nothing() {
    let dev = Arc::new(MemDisk::new(512));
    mkfs(dev.as_ref(), MkfsParams::tiny()).unwrap();
    let fs = BaseFs::mount(dev as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
    let fd = fs.open("/fill", rw_create()).unwrap();
    let free = fs.statfs().unwrap().free_blocks;
    // try to write more than fits: must fail without partial allocation
    let too_big = vec![7u8; ((free + 10) as usize) * BLOCK_SIZE];
    assert_eq!(fs.write(fd, 0, &too_big), Err(FsError::NoSpace));
    assert_eq!(fs.fstat(fd).unwrap().size, 0, "no partial write");
    assert_eq!(fs.statfs().unwrap().free_blocks, free, "no leaked blocks");
    // a fitting write still succeeds
    fs.write(fd, 0, &vec![7u8; 4 * BLOCK_SIZE]).unwrap();
    fs.close(fd).unwrap();
}

#[test]
fn durability_crash_without_sync_loses_data() {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let fs = BaseFs::mount(dev.clone() as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
    let fd = fs.open("/doomed", rw_create()).unwrap();
    fs.write(fd, 0, b"never synced").unwrap();
    fs.crash();

    let fs2 = BaseFs::mount(dev as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
    assert_eq!(
        fs2.stat("/doomed"),
        Err(FsError::NotFound),
        "unsynced create lost on crash (write-back gap)"
    );
}

#[test]
fn durability_fsync_survives_crash() {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let fs = BaseFs::mount(dev.clone() as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
    fs.mkdir("/dir").unwrap();
    let fd = fs.open("/dir/kept", rw_create()).unwrap();
    fs.write(fd, 0, b"precious data").unwrap();
    fs.fsync(fd).unwrap();
    // post-fsync modifications are lost, pre-fsync ones survive
    fs.write(fd, 0, b"SCRIBBLED OVER").unwrap();
    fs.crash();

    let fs2 = BaseFs::mount(dev as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
    let fd = fs2.open("/dir/kept", OpenFlags::RDONLY).unwrap();
    assert_eq!(fs2.read(fd, 0, 13).unwrap(), b"precious data");
    fs2.close(fd).unwrap();
}

#[test]
fn unmount_produces_fsck_clean_image() {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let fs = BaseFs::mount(dev.clone() as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    let fd = fs.open("/a/f1", rw_create()).unwrap();
    fs.write(fd, 0, &vec![5u8; 3 * BLOCK_SIZE + 17]).unwrap();
    fs.close(fd).unwrap();
    fs.link("/a/f1", "/a/b/f1-link").unwrap();
    fs.symlink("/a/f1", "/a/s").unwrap();
    let fd = fs.open("/a/f2", rw_create()).unwrap();
    fs.write(fd, 0, b"x").unwrap();
    fs.close(fd).unwrap();
    fs.unlink("/a/f2").unwrap();
    fs.rename("/a/b", "/a/c").unwrap();
    fs.unmount().unwrap();

    let report = fsck(dev.as_ref()).unwrap();
    assert!(report.is_clean(), "fsck after unmount: {report}");
}

#[test]
fn crash_then_mount_produces_fsck_consistent_image() {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let fs = BaseFs::mount(dev.clone() as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
    for i in 0..20 {
        fs.mkdir(&format!("/d{i}")).unwrap();
        let fd = fs.open(&format!("/d{i}/f"), rw_create()).unwrap();
        fs.write(fd, 0, &vec![i as u8; 1000]).unwrap();
        fs.close(fd).unwrap();
        if i == 10 {
            fs.sync().unwrap();
        }
    }
    fs.crash();
    // journal replay happens inside mount; unmount then checks cleanly
    let fs2 = BaseFs::mount(dev.clone() as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
    assert!(fs2.stat("/d10/f").is_ok(), "synced state survived");
    fs2.unmount().unwrap();
    let report = fsck(dev.as_ref()).unwrap();
    assert!(report.is_clean(), "fsck after crash+mount: {report}");
}

#[test]
fn caches_accelerate_repeat_lookups() {
    let (_dev, fs) = fresh();
    fs.mkdir("/warm").unwrap();
    let fd = fs.open("/warm/file", rw_create()).unwrap();
    fs.write(fd, 0, b"data").unwrap();
    fs.close(fd).unwrap();
    for _ in 0..100 {
        let _ = fs.stat("/warm/file").unwrap();
    }
    let stats = fs.stats();
    assert!(
        stats.dentry_hits > 150,
        "dentry cache barely used: {stats:?}"
    );
}

#[test]
fn injected_detected_error_surfaces() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        500,
        "alloc-bug",
        Site::Alloc,
        Trigger::NthMatch(3),
        Effect::DetectedError,
    ));
    let (_dev, fs) = fresh_with(BaseFsConfig {
        faults,
        ..BaseFsConfig::default()
    });
    let fd = fs.open("/a", rw_create()).unwrap(); // alloc visit 1
    fs.close(fd).unwrap();
    fs.mkdir("/d1").unwrap(); // alloc visit 2
    assert_eq!(fs.mkdir("/d2"), Err(FsError::DetectedBug { bug_id: 500 }));
    // the failed op must not have half-applied
    assert_eq!(fs.stat("/d2"), Err(FsError::NotFound));
}

#[test]
fn injected_panic_unwinds() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        501,
        "rename-crash",
        Site::Rename,
        Trigger::PathContains("victim".into()),
        Effect::Panic,
    ));
    let (_dev, fs) = fresh_with(BaseFsConfig {
        faults,
        ..BaseFsConfig::default()
    });
    let fd = fs.open("/victim-file", rw_create()).unwrap();
    fs.close(fd).unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = fs.rename("/victim-file", "/renamed");
    }));
    assert!(result.is_err(), "injected panic must unwind");
}

#[test]
fn injected_silent_corruption_flips_written_data() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        502,
        "silent-writer",
        Site::Write,
        Trigger::NthMatch(2),
        Effect::SilentWrongResult,
    ));
    let (_dev, fs) = fresh_with(BaseFsConfig {
        faults: faults.clone(),
        ..BaseFsConfig::default()
    });
    let fd = fs.open("/f", rw_create()).unwrap();
    fs.write(fd, 0, b"AAAA").unwrap(); // clean
    fs.write(fd, 4, b"BBBB").unwrap(); // corrupted silently
    let back = fs.read(fd, 0, 8).unwrap();
    assert_eq!(&back[..4], b"AAAA");
    assert_ne!(&back[4..], b"BBBB", "silent corruption landed");
    assert_eq!(back[4], b'B' ^ 0x01);
    assert_eq!(faults.fired(502), 1);
    fs.close(fd).unwrap();
}

#[test]
fn warn_effects_continue_execution() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        503,
        "warn-bug",
        Site::ApiEntry,
        Trigger::Always,
        Effect::Warn,
    ));
    let (_dev, fs) = fresh_with(BaseFsConfig {
        faults: faults.clone(),
        ..BaseFsConfig::default()
    });
    fs.mkdir("/survives").unwrap();
    assert!(fs.stat("/survives").is_ok());
    assert!(faults.warn_count() > 0);
}

#[test]
fn contained_reboot_resets_to_durable_state() {
    let (_dev, fs) = fresh();
    fs.mkdir("/durable").unwrap();
    fs.sync().unwrap();
    fs.mkdir("/volatile").unwrap();
    let fd = fs.open("/durable/open-file", rw_create()).unwrap();

    fs.contained_reboot().unwrap();

    // durable state is back, volatile state is gone, descriptors are
    // gone (the RAE layer reconstructs them via the shadow)
    assert!(fs.stat("/durable").is_ok());
    assert_eq!(fs.stat("/volatile"), Err(FsError::NotFound));
    assert_eq!(fs.read(fd, 0, 1), Err(FsError::BadFd));
    assert_eq!(fs.stats().open_fds, 0);
    // the filesystem still works
    fs.mkdir("/after").unwrap();
    assert!(fs.stat("/after").is_ok());
}

#[test]
fn absorb_recovery_installs_descriptors() {
    use rae_fsformat::{RecoveredFd, RecoveryDelta};
    let (_dev, fs) = fresh();
    let fd = fs.open("/f", rw_create()).unwrap();
    let ino = fs.fstat(fd).unwrap().ino;
    fs.sync().unwrap();
    fs.contained_reboot().unwrap();

    // minimal delta: no blocks changed (everything was durable), just
    // the descriptor table
    let delta = RecoveryDelta {
        meta_blocks: vec![],
        data_blocks: vec![],
        fd_entries: vec![RecoveredFd {
            fd,
            ino,
            flags: rw_create(),
            path: "/f".into(),
        }],
    };
    fs.absorb_recovery(delta).unwrap();
    assert_eq!(fs.fstat(fd).unwrap().ino, ino, "descriptor lives again");
    fs.write(fd, 0, b"post-recovery").unwrap();
    assert_eq!(fs.read(fd, 0, 13).unwrap(), b"post-recovery");
}

#[test]
fn persisted_seq_advances_on_commit() {
    let (_dev, fs) = fresh();
    assert_eq!(fs.persisted_seq(), 0);
    fs.note_op_seq(7);
    fs.mkdir("/d").unwrap();
    assert_eq!(fs.persisted_seq(), 0, "nothing durable yet");
    fs.note_op_seq(8);
    fs.sync().unwrap();
    assert_eq!(fs.persisted_seq(), 8, "commit publishes the barrier");
}

#[test]
fn journal_full_triggers_checkpoint_not_failure() {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(
        dev.as_ref(),
        MkfsParams {
            total_blocks: 4096,
            inode_count: 1024,
            journal_blocks: 16, // tiny journal: constant checkpointing
        },
    )
    .unwrap();
    let fs = BaseFs::mount(dev.clone() as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
    for i in 0..50 {
        fs.mkdir(&format!("/d{i}")).unwrap();
        fs.sync().unwrap();
    }
    assert!(fs.stats().journal_checkpoints > 0);
    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}

/// Regression test: a checkpoint the journal runs on its own when it
/// fills rewrites every committed home, so the cache must stop treating
/// those pages as ahead of the device — evicting them afterwards costs
/// no write.
#[test]
fn auto_checkpoint_clears_the_stale_home_marks() {
    use rae_blockdev::StatsDisk;
    let dev = Arc::new(StatsDisk::new(MemDisk::new(4096)));
    mkfs(
        dev.as_ref(),
        MkfsParams {
            total_blocks: 4096,
            inode_count: 1024,
            journal_blocks: 16,
        },
    )
    .unwrap();
    let fs = BaseFs::mount(
        dev.clone() as Arc<dyn BlockDevice>,
        BaseFsConfig {
            page_cache_blocks: 32,
            ..BaseFsConfig::default()
        },
    )
    .unwrap();
    // data to evict with later, then metadata committed across several
    // inode-table blocks, directories and both bitmaps
    let fd = fs.open("/data", rw_create()).unwrap();
    fs.write(fd, 0, &vec![7u8; 64 * BLOCK_SIZE]).unwrap();
    fs.sync().unwrap();
    fs.mkdir("/a").unwrap();
    for i in 0..20 {
        fs.close(fs.open(&format!("/a/f{i}"), rw_create()).unwrap())
            .unwrap();
    }
    fs.sync().unwrap();
    // small commits of one inode until one of them fills the journal
    let x = fs.open("/x", rw_create()).unwrap();
    fs.sync().unwrap();
    let checkpoints = fs.stats().journal_checkpoints;
    for t in 1.. {
        let attr = SetAttr {
            mtime: Some(t),
            ..SetAttr::default()
        };
        fs.setattr("/x", attr).unwrap();
        fs.sync().unwrap();
        if fs.stats().journal_checkpoints > checkpoints {
            break;
        }
    }

    // evict the whole cache with data reads
    let writes = dev.counters().writes;
    for b in 0..64 {
        assert_eq!(fs.read(fd, b * BLOCK_SIZE as u64, 1).unwrap(), [7]);
    }
    fs.sync().unwrap(); // nothing dirty: waits for queued evictions only
    assert!(fs.stats().cache.evictions >= 32);
    // the one write is the page of /x's inode, which the last commit
    // left in the journal and not yet at home; every checkpointed page
    // went without one
    assert_eq!(
        dev.counters().writes - writes,
        1,
        "evicting checkpointed metadata wrote it home again"
    );
    fs.close(fd).unwrap();
    fs.close(x).unwrap();
}

#[test]
fn concurrent_readers_and_writers() {
    let (_dev, fs) = fresh();
    let fs = Arc::new(fs);
    for i in 0..4 {
        let fd = fs.open(&format!("/t{i}"), rw_create()).unwrap();
        fs.write(fd, 0, &vec![i as u8; BLOCK_SIZE]).unwrap();
        fs.close(fd).unwrap();
    }
    let mut handles = Vec::new();
    for i in 0..4u8 {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                let fd = fs.open(&format!("/t{i}"), OpenFlags::RDWR).unwrap();
                let data = fs.read(fd, 0, BLOCK_SIZE).unwrap();
                assert!(data.iter().all(|&b| b == i));
                fs.write(fd, 0, &vec![i; BLOCK_SIZE]).unwrap();
                fs.close(fd).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn mount_rejects_garbage_device() {
    let dev = Arc::new(MemDisk::new(64));
    let err = BaseFs::mount(dev as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap_err();
    assert!(matches!(err, FsError::Corrupted { .. }));
}

#[test]
fn io_counters_accumulate() {
    let (_dev, fs) = fresh();
    let fd = fs.open("/c", rw_create()).unwrap();
    fs.write(fd, 0, b"12345").unwrap();
    let _ = fs.read(fd, 0, 5).unwrap();
    fs.close(fd).unwrap();
    assert_eq!(fs.counters().bytes_written(), 5);
    assert_eq!(fs.counters().bytes_read(), 5);
    assert_eq!(fs.counters().count(rae_vfs::OpKind::Open), 1);
}

#[test]
fn validate_on_commit_catches_scribbled_metadata() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        600,
        "memory-scribbler",
        Site::Write,
        Trigger::NthMatch(1),
        Effect::CorruptMetadata,
    ));
    let (_dev, fs) = fresh_with(BaseFsConfig {
        faults: faults.clone(),
        ..BaseFsConfig::default()
    });
    fs.mkdir("/d").unwrap(); // dirties an inode-table page
    let fd = fs.open("/d/f", rw_create()).unwrap();
    fs.write(fd, 0, b"trigger").unwrap(); // bug scribbles dirty metadata
    assert_eq!(faults.fired(600), 1);

    // nothing failed yet (the scribble is silent) — but the commit
    // validation refuses to persist the damaged image
    let err = fs.sync().unwrap_err();
    assert!(
        matches!(err, FsError::Corrupted { ref detail } if detail.contains("validate-on-commit")),
        "{err}"
    );
}

#[test]
fn group_commit_result_of_a_batch_follows_the_commits_after_it() {
    let mut st = CommitState::default();
    let bug = FsError::DetectedBug { bug_id: 7 };
    st.finish(1, Ok(()));
    assert_eq!(st.result_of(1), Ok(()));
    st.finish(2, Err(bug.clone()));
    assert_eq!(st.result_of(1), Ok(()), "an earlier success stands");
    assert_eq!(st.result_of(2), Err(bug.clone()));
    // batch 2 is now older than any window of recent results, and
    // every batch since failed too: it must still read as a failure
    let io = FsError::IoFailed {
        detail: "commit".to_string(),
    };
    for gen in 3..=200 {
        st.finish(gen, Err(io.clone()));
    }
    assert_eq!(
        st.result_of(2),
        Err(io.clone()),
        "the latest failure answers"
    );
    assert_eq!(st.result_of(200), Err(io));
    // a failed commit re-dirtied what it took, so the next success
    // made every batch before it durable
    st.finish(201, Ok(()));
    for gen in [1, 2, 150, 201] {
        assert_eq!(st.result_of(gen), Ok(()), "batch {gen}");
    }
}
