//! Shadow filesystem tests: never-write rule, checks, replay modes,
//! delta extraction, model conformance.

use crate::{ShadowAsPrimary, ShadowFs, ShadowOpts};
use rae_blockdev::{BlockDevice, MemDisk, TapeDisk, BLOCK_SIZE};
use rae_fsformat::{apply_corruption, mkfs, Corruption, MkfsParams};
use rae_fsmodel::ModelFs;
use rae_vfs::{
    Fd, FileSystem, FsError, FsOp, InodeNo, OpOutcome, OpRecord, OpenFlags, SetAttr, FIRST_FD,
};
use std::sync::Arc;

fn fresh_dev() -> Arc<MemDisk> {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    dev
}

fn load(dev: &Arc<MemDisk>) -> ShadowFs {
    ShadowFs::load(dev.clone() as Arc<dyn BlockDevice>, ShadowOpts::default()).unwrap()
}

fn rw_create() -> OpenFlags {
    OpenFlags::RDWR | OpenFlags::CREATE
}

#[test]
fn never_writes_to_the_device() {
    let dev = fresh_dev();
    let before = dev.snapshot();
    let mut sh = load(&dev);
    let (fd, _, _) = sh.op_open("/f", rw_create(), None).unwrap();
    sh.op_write(fd, 0, &vec![7u8; 3 * BLOCK_SIZE]).unwrap();
    sh.op_mkdir("/d", None).unwrap();
    sh.op_rename("/f", "/d/g").unwrap();
    assert_eq!(dev.snapshot(), before, "device image untouched");
    assert!(sh.overlay_len() > 0);
}

#[test]
fn validated_load_reads_nothing_twice() {
    let dev = Arc::new(TapeDisk::from_image(&fresh_dev().snapshot()));
    let sh = ShadowFs::load(
        Arc::clone(&dev) as Arc<dyn BlockDevice>,
        ShadowOpts::default(),
    )
    .unwrap();
    // the superblock and bitmaps come from the checker that validated
    // them, not from a second read
    let mut reads = dev.reads_since(0);
    assert!(!reads.is_empty());
    reads.sort_unstable();
    assert!(
        reads.windows(2).all(|w| w[0] != w[1]),
        "a block read twice: {reads:?}"
    );
    assert_eq!(sh.checks_performed(), 1);
}

#[test]
fn basic_ops_and_fd_policy() {
    let dev = fresh_dev();
    let mut sh = load(&dev);
    let (a, ia, created) = sh.op_open("/a", rw_create(), None).unwrap();
    assert!(created);
    assert_eq!(a, Fd(FIRST_FD));
    assert_eq!(ia, InodeNo(2), "lowest-free inode policy");
    sh.op_write(a, 0, b"hello").unwrap();
    assert_eq!(sh.op_read(a, 0, 10).unwrap(), b"hello");
    sh.op_close(a).unwrap();
    assert_eq!(sh.op_close(a), Err(FsError::BadFd));
}

#[test]
fn validated_load_rejects_crafted_images() {
    let dev = fresh_dev();
    // populate so corruption targets exist
    {
        let mut sh = load(&dev);
        let _ = sh.op_open("/f", rw_create(), None).unwrap();
        // write the overlay back by hand to make the corruption stick
        // (shadow never writes, so poke the device directly instead)
    }
    // corrupt the (still pristine) image: smash the root inode
    apply_corruption(dev.as_ref(), &Corruption::InodeBitrot { ino: InodeNo(1) }).unwrap();
    let err = ShadowFs::load(dev as Arc<dyn BlockDevice>, ShadowOpts::default()).unwrap_err();
    assert!(matches!(err, FsError::CheckFailed { .. }), "{err}");
}

#[test]
fn unvalidated_load_fails_later_with_check_not_crash() {
    let dev = fresh_dev();
    apply_corruption(dev.as_ref(), &Corruption::InodeBitrot { ino: InodeNo(1) }).unwrap();
    let mut sh = ShadowFs::load(
        dev as Arc<dyn BlockDevice>,
        ShadowOpts {
            validate_image: false,
            ..ShadowOpts::default()
        },
    )
    .unwrap();
    // the first touch of the rotten inode is *detected*, not a panic
    let err = sh.op_mkdir("/d", None).unwrap_err();
    assert!(err.is_runtime_error(), "{err}");
}

#[test]
fn checks_are_counted_and_ablatable() {
    let dev = fresh_dev();
    let mut paranoid =
        ShadowFs::load(dev.clone() as Arc<dyn BlockDevice>, ShadowOpts::default()).unwrap();
    let mut relaxed = ShadowFs::load(
        dev as Arc<dyn BlockDevice>,
        ShadowOpts {
            validate_image: false,
            paranoid_checks: false,
            refinement_check: false,
        },
    )
    .unwrap();
    for sh in [&mut paranoid, &mut relaxed] {
        let (fd, _, _) = sh.op_open("/f", rw_create(), None).unwrap();
        sh.op_write(fd, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
        sh.op_close(fd).unwrap();
    }
    assert!(
        paranoid.checks_performed() > relaxed.checks_performed(),
        "paranoid {} vs relaxed {}",
        paranoid.checks_performed(),
        relaxed.checks_performed()
    );
}

/// Drive a "base" (autonomous shadow from the same image) to produce
/// records, then replay them constrained on a fresh shadow.
fn record_ops(dev: &Arc<MemDisk>, ops: Vec<FsOp>) -> Vec<OpRecord> {
    let mut gen =
        ShadowFs::load(dev.clone() as Arc<dyn BlockDevice>, ShadowOpts::default()).unwrap();
    let mut records = Vec::new();
    for (i, op) in ops.into_iter().enumerate() {
        let outcome = gen.execute_autonomous(&op).unwrap();
        let mut rec = OpRecord::new(i as u64, op);
        rec.complete(outcome);
        records.push(rec);
    }
    records
}

#[test]
fn constrained_replay_reproduces_outcomes_exactly() {
    let dev = fresh_dev();
    let records = record_ops(
        &dev,
        vec![
            FsOp::Mkdir {
                path: "/dir".into(),
            },
            FsOp::Create {
                path: "/dir/a".into(),
                flags: rw_create(),
            },
            FsOp::Write {
                fd: Fd(3),
                offset: 0,
                data: b"payload".into(),
            },
            FsOp::Create {
                path: "/dir/b".into(),
                flags: rw_create(),
            },
            FsOp::Close { fd: Fd(4) },
            FsOp::Rename {
                from: "/dir/b".into(),
                to: "/dir/c".into(),
            },
            FsOp::Link {
                existing: "/dir/a".into(),
                new: "/hard".into(),
            },
            FsOp::Symlink {
                target: "/dir/a".into(),
                linkpath: "/sym".into(),
            },
            FsOp::Truncate { fd: Fd(3), size: 3 },
            FsOp::Unlink {
                path: "/dir/c".into(),
            },
        ],
    );

    let mut sh = load(&dev);
    let report = sh.replay_constrained(&records).unwrap();
    assert!(
        report.is_clean(),
        "discrepancies: {:?}",
        report.discrepancies
    );
    assert_eq!(report.executed, 10);
    // reconstructed state is queryable
    assert_eq!(sh.op_stat("/dir/a").unwrap().size, 3);
    assert_eq!(sh.op_stat("/dir/a").unwrap().nlink, 2);
    assert_eq!(sh.op_readlink("/sym").unwrap(), "/dir/a");
    assert_eq!(sh.op_fstat(Fd(3)).unwrap().size, 3, "fd 3 still open");
}

#[test]
fn constrained_replay_skips_failed_and_sync_records() {
    let dev = fresh_dev();
    let mut records = record_ops(&dev, vec![FsOp::Mkdir { path: "/d".into() }]);
    // a specified error the base returned (shadow must skip it)
    let mut failed = OpRecord::new(50, FsOp::Mkdir { path: "/d".into() });
    failed.complete(OpOutcome::Failed(FsError::Exists));
    records.push(failed);
    let mut sync = OpRecord::new(51, FsOp::Sync);
    sync.complete(OpOutcome::Unit);
    records.push(sync);

    let mut sh = load(&dev);
    let report = sh.replay_constrained(&records).unwrap();
    assert!(report.is_clean());
    assert_eq!(report.executed, 1);
    assert_eq!(report.skipped_errors, 1);
    assert_eq!(report.skipped_sync, 1);
}

#[test]
fn cross_check_flags_base_lies() {
    let dev = fresh_dev();
    let mut records = record_ops(
        &dev,
        vec![
            FsOp::Create {
                path: "/f".into(),
                flags: rw_create(),
            },
            FsOp::Write {
                fd: Fd(3),
                offset: 0,
                data: b"1234".into(),
            },
        ],
    );
    // pretend the base claimed it wrote 999 bytes (a wrong-result bug)
    records[1].outcome = OpOutcome::Written { n: 999 };

    let mut sh = load(&dev);
    let report = sh.replay_constrained(&records).unwrap();
    assert_eq!(report.discrepancies.len(), 1);
    assert_eq!(report.discrepancies[0].what, "outcome.written");
}

#[test]
fn constrained_mode_validates_unusable_ino() {
    let dev = fresh_dev();
    let mut records = record_ops(
        &dev,
        vec![FsOp::Create {
            path: "/f".into(),
            flags: rw_create(),
        }],
    );
    // claim the base allocated the root inode (ino 1) for the new file
    records[0].outcome = OpOutcome::Opened {
        fd: Fd(3),
        ino: InodeNo(1),
        created: true,
    };
    let mut sh = load(&dev);
    let err = sh.replay_constrained(&records).unwrap_err();
    assert!(
        matches!(err, FsError::CheckFailed { ref check, .. } if check == "alloc.ino_usable"),
        "{err}"
    );
}

#[test]
fn restore_fd_reestablishes_descriptors() {
    let dev = fresh_dev();
    // put a real file on disk so RestoreFd has something durable
    {
        let mut sh = load(&dev);
        let (_, ino, _) = sh.op_open("/kept", rw_create(), None).unwrap();
        // persist the shadow's overlay manually (test-only shortcut)
        for (bno, (img, _)) in &sh.overlay {
            dev.write_block(*bno, img).unwrap();
        }
        assert_eq!(ino, InodeNo(2));
    }
    let mut records = Vec::new();
    let mut r = OpRecord::new(
        5,
        FsOp::RestoreFd {
            fd: Fd(3),
            ino: InodeNo(2),
            flags: OpenFlags::RDWR,
            path: "/kept".into(),
        },
    );
    r.complete(OpOutcome::Opened {
        fd: Fd(3),
        ino: InodeNo(2),
        created: false,
    });
    records.push(r);
    let mut w = OpRecord::new(
        6,
        FsOp::Write {
            fd: Fd(3),
            offset: 0,
            data: b"x".into(),
        },
    );
    w.complete(OpOutcome::Written { n: 1 });
    records.push(w);

    let mut sh = ShadowFs::load(
        dev as Arc<dyn BlockDevice>,
        ShadowOpts {
            validate_image: false,
            ..ShadowOpts::default()
        },
    )
    .unwrap();
    let report = sh.replay_constrained(&records).unwrap();
    assert!(report.is_clean(), "{:?}", report.discrepancies);
    assert_eq!(sh.op_fstat(Fd(3)).unwrap().ino, InodeNo(2));
    assert_eq!(sh.op_read(Fd(3), 0, 1).unwrap(), b"x");
}

#[test]
fn autonomous_mode_returns_specified_errors_as_outcomes() {
    let dev = fresh_dev();
    let mut sh = load(&dev);
    let outcome = sh
        .execute_autonomous(&FsOp::Unlink {
            path: "/missing".into(),
        })
        .unwrap();
    assert_eq!(outcome, OpOutcome::Failed(FsError::NotFound));
    // sync family: acknowledged but never executed
    let outcome = sh.execute_autonomous(&FsOp::Sync).unwrap();
    assert_eq!(outcome, OpOutcome::Unit);
}

#[test]
fn delta_contains_all_overlay_blocks_and_fds() {
    let dev = fresh_dev();
    let mut sh = load(&dev);
    let (fd, ino, _) = sh.op_open("/f", rw_create(), None).unwrap();
    sh.op_write(fd, 0, &vec![9u8; 2 * BLOCK_SIZE]).unwrap();
    let overlay_len = sh.overlay_len();

    let delta = sh.into_delta();
    // +1: the synthesized counter-consistent superblock image
    assert_eq!(delta.block_count(), overlay_len + 1);
    assert!(
        delta.meta_blocks.len() >= 3,
        "inode table + bitmaps + root dir"
    );
    assert_eq!(delta.data_blocks.len(), 2);
    assert_eq!(delta.fd_entries.len(), 1);
    assert_eq!(delta.fd_entries[0].fd, fd);
    assert_eq!(delta.fd_entries[0].ino, ino);
    assert_eq!(delta.fd_entries[0].path, "/f");
}

#[test]
fn refinement_check_passes_on_clean_replay() {
    let dev = fresh_dev();
    let records = record_ops(
        &dev,
        vec![
            FsOp::Mkdir { path: "/d".into() },
            FsOp::Create {
                path: "/d/f".into(),
                flags: rw_create(),
            },
            FsOp::Write {
                fd: Fd(3),
                offset: 10,
                data: b"sparse".into(),
            },
            FsOp::Close { fd: Fd(3) },
        ],
    );
    let mut sh = ShadowFs::load(
        dev as Arc<dyn BlockDevice>,
        ShadowOpts {
            refinement_check: true,
            ..ShadowOpts::default()
        },
    )
    .unwrap();
    let report = sh.replay_constrained(&records).unwrap();
    assert!(report.is_clean(), "{:?}", report.discrepancies);
}

#[test]
fn post_recovery_fsck_catches_inconsistent_reconstruction() {
    let dev = fresh_dev();
    let mut sh = load(&dev);
    sh.op_mkdir("/d", None).unwrap();
    // sabotage the overlay: clear the inode bitmap bit under the new dir
    let bit = 2u64;
    sh.ibm.clear(bit).unwrap();
    let blk = rae_fsformat::bitmap::Bitmap::block_containing(bit);
    let img = sh.ibm.block_image(blk).to_vec();
    let bno = sh.geo.inode_bitmap_start + blk;
    sh.overlay
        .insert(bno, (img.into(), crate::shadow::BlockKind::Meta));

    let err = sh.verify_consistency().unwrap_err();
    assert!(matches!(err, FsError::CheckFailed { ref check, .. } if check == "post-recovery-fsck"));
}

#[test]
fn shadow_as_primary_matches_model_on_scripted_sequence() {
    let dev = fresh_dev();
    let shadow = ShadowAsPrimary::load(dev as Arc<dyn BlockDevice>, ShadowOpts::default()).unwrap();
    let model = ModelFs::new();

    type Step = Box<dyn Fn(&dyn FileSystem) -> Result<String, FsError>>;
    let script: Vec<Step> = vec![
        Box::new(|fs| fs.mkdir("/d").map(|()| "ok".into())),
        Box::new(|fs| {
            fs.open("/d/f", OpenFlags::RDWR | OpenFlags::CREATE)
                .map(|fd| fd.to_string())
        }),
        Box::new(|fs| fs.write(Fd(3), 0, b"abc").map(|n| n.to_string())),
        Box::new(|fs| fs.read(Fd(3), 1, 2).map(|d| format!("{d:?}"))),
        Box::new(|fs| fs.truncate(Fd(3), 1).map(|()| "ok".into())),
        Box::new(|fs| fs.mkdir("/d").map(|()| "ok".into())), // Exists
        Box::new(|fs| fs.unlink("/d/f").map(|()| "ok".into())), // Busy (open)
        Box::new(|fs| fs.close(Fd(3)).map(|()| "ok".into())),
        Box::new(|fs| fs.unlink("/d/f").map(|()| "ok".into())),
        Box::new(|fs| fs.rmdir("/d").map(|()| "ok".into())),
        Box::new(|fs| fs.rmdir("/d").map(|()| "ok".into())), // NotFound
        Box::new(|fs| {
            fs.setattr("/nope", SetAttr::default())
                .map(|()| "ok".into())
        }),
    ];
    for (i, step) in script.iter().enumerate() {
        let s = step(&shadow);
        let m = step(&model);
        assert_eq!(s, m, "step {i} diverged");
    }
}

#[test]
fn serve_read_answers_pending_reads() {
    use crate::replay::{ReadReply, ReadRequest};
    let dev = fresh_dev();
    let mut sh = load(&dev);
    let (fd, ino, _) = sh.op_open("/served", rw_create(), None).unwrap();
    sh.op_write(fd, 0, b"read me via the shadow").unwrap();
    sh.op_mkdir("/dir", None).unwrap();
    sh.op_symlink("/served", "/lnk", None).unwrap();

    match sh
        .serve_read(&ReadRequest::Read {
            fd,
            offset: 8,
            len: 3,
        })
        .unwrap()
    {
        ReadReply::Data(d) => assert_eq!(d, b"via"),
        other => panic!("{other:?}"),
    }
    match sh
        .serve_read(&ReadRequest::Stat {
            path: "/served".into(),
        })
        .unwrap()
    {
        ReadReply::Stat(st) => {
            assert_eq!(st.ino, ino);
            assert_eq!(st.size, 22);
        }
        other => panic!("{other:?}"),
    }
    match sh.serve_read(&ReadRequest::Fstat { fd }).unwrap() {
        ReadReply::Stat(st) => assert_eq!(st.ino, ino),
        other => panic!("{other:?}"),
    }
    match sh
        .serve_read(&ReadRequest::Readdir { path: "/".into() })
        .unwrap()
    {
        ReadReply::Entries(es) => assert_eq!(es.len(), 3),
        other => panic!("{other:?}"),
    }
    match sh
        .serve_read(&ReadRequest::Readlink {
            path: "/lnk".into(),
        })
        .unwrap()
    {
        ReadReply::Target(t) => assert_eq!(t, "/served"),
        other => panic!("{other:?}"),
    }
    match sh.serve_read(&ReadRequest::Statfs).unwrap() {
        ReadReply::Info(i) => assert!(i.free_blocks < i.total_blocks),
        other => panic!("{other:?}"),
    }
    // specified errors pass through
    assert_eq!(
        sh.serve_read(&ReadRequest::Stat {
            path: "/missing".into()
        }),
        Err(FsError::NotFound)
    );
}

#[test]
fn shadow_never_writes_even_under_replay_and_reads() {
    let dev = fresh_dev();
    let before = dev.snapshot();
    let records = record_ops(
        &dev,
        vec![
            FsOp::Mkdir { path: "/x".into() },
            FsOp::Create {
                path: "/x/y".into(),
                flags: rw_create(),
            },
            FsOp::Write {
                fd: Fd(3),
                offset: 0,
                data: vec![9u8; 10_000].into(),
            },
        ],
    );
    let mut sh = load(&dev);
    sh.replay_constrained(&records).unwrap();
    let _ = sh
        .serve_read(&crate::replay::ReadRequest::Readdir { path: "/x".into() })
        .unwrap();
    let _ = sh.verify_consistency();
    assert_eq!(
        dev.snapshot(),
        before,
        "device byte-identical after everything"
    );
}

#[test]
fn shadow_handles_every_pointer_tier() {
    let dev = fresh_dev();
    let mut sh = load(&dev);
    let (fd, _, _) = sh.op_open("/tiers", rw_create(), None).unwrap();
    // direct, single-indirect, and double-indirect writes
    sh.op_write(fd, 0, &vec![1u8; 3 * BLOCK_SIZE]).unwrap();
    let ind = 20 * BLOCK_SIZE as u64;
    sh.op_write(fd, ind, b"indirect tier").unwrap();
    let dind = (12 + 512 + 7) as u64 * BLOCK_SIZE as u64;
    sh.op_write(fd, dind, b"double tier").unwrap();

    assert_eq!(sh.op_read(fd, 0, 2).unwrap(), vec![1, 1]);
    assert_eq!(sh.op_read(fd, ind, 13).unwrap(), b"indirect tier");
    assert_eq!(sh.op_read(fd, dind, 11).unwrap(), b"double tier");
    // holes between tiers read as zeroes
    assert_eq!(
        sh.op_read(fd, 5 * BLOCK_SIZE as u64, 3).unwrap(),
        vec![0, 0, 0]
    );
    let st = sh.op_fstat(fd).unwrap();
    assert_eq!(st.size, dind + 11);

    // shrink through the tiers; accounting must return to zero
    sh.op_truncate(fd, ind + 13).unwrap();
    sh.op_truncate(fd, 0).unwrap();
    assert_eq!(sh.op_fstat(fd).unwrap().blocks, 0);
    sh.op_close(fd).unwrap();
    // the reconstructed state is still fully consistent
    sh.verify_consistency().unwrap();
}

#[test]
fn shadow_dir_growth_and_shrink() {
    let dev = fresh_dev();
    let mut sh = load(&dev);
    sh.op_mkdir("/big", None).unwrap();
    for i in 0..300 {
        let (fd, _, _) = sh
            .op_open(&format!("/big/{:060}", i), rw_create(), None)
            .unwrap();
        sh.op_close(fd).unwrap();
    }
    assert_eq!(sh.op_readdir("/big").unwrap().len(), 300);
    assert!(sh.op_stat("/big").unwrap().size >= 4 * BLOCK_SIZE as u64);
    for i in 0..300 {
        sh.op_unlink(&format!("/big/{:060}", i)).unwrap();
    }
    assert_eq!(
        sh.op_stat("/big").unwrap().size,
        0,
        "trailing blocks reclaimed"
    );
    sh.op_rmdir("/big").unwrap();
    sh.verify_consistency().unwrap();
}

// ----------------------------------------------------------------------
// Warm-handover resync: one rule per test. The shadow's device here is
// the snapshot; nothing stands in for the live device, because the
// resync takes none.
// ----------------------------------------------------------------------

/// A snapshot holding `/kept` (two data blocks of 0x11), persisted by
/// hand, and a shadow loaded over it. Returns `/kept`'s first data
/// block too.
fn shadow_over_populated_snapshot() -> (Arc<MemDisk>, ShadowFs, u64) {
    let dev = fresh_dev();
    let kept = {
        let mut sh = load(&dev);
        let (fd, _, _) = sh.op_open("/kept", rw_create(), None).unwrap();
        sh.op_write(fd, 0, &vec![0x11u8; 2 * BLOCK_SIZE]).unwrap();
        sh.op_close(fd).unwrap();
        // lowest-free placement: the file's first block is the lower one
        let kept = sh
            .overlay
            .iter()
            .filter(|(_, (img, _))| img[..] == [0x11u8; BLOCK_SIZE][..])
            .map(|(bno, _)| *bno)
            .min()
            .unwrap();
        // the delta carries the counter-consistent superblock too
        let delta = sh.into_delta();
        for (bno, img) in delta.meta_blocks.iter().chain(&delta.data_blocks) {
            dev.write_block(*bno, img).unwrap();
        }
        kept
    };
    let sh = load(&dev);
    (dev, sh, kept)
}

fn delta_blocks(delta: &rae_fsformat::RecoveryDelta) -> Vec<u64> {
    delta
        .meta_blocks
        .iter()
        .chain(&delta.data_blocks)
        .map(|(b, _)| *b)
        .collect()
}

#[test]
fn resync_prunes_free_data_blocks() {
    let (_dev, mut sh, _) = shadow_over_populated_snapshot();
    let geo = sh.geometry();
    // three data blocks the shadow wrote for a file it then unlinked
    let (fd, _, _) = sh.op_open("/gone", rw_create(), None).unwrap();
    sh.op_write(fd, 0, &vec![0x22u8; 3 * BLOCK_SIZE]).unwrap();
    sh.op_close(fd).unwrap();
    let mine: Vec<u64> = sh
        .overlay
        .iter()
        .filter(|(_, (img, _))| img[..] == [0x22u8; BLOCK_SIZE][..])
        .map(|(b, _)| *b)
        .collect();
    assert_eq!(mine.len(), 3);
    sh.op_unlink("/gone").unwrap();
    // and one the base wrote for its own placement of the same file
    let theirs = geo.total_blocks - 5;
    assert!(!sh.overlay.contains_key(&theirs));

    let overlay_before = sh.overlay_len();
    let report = sh.resync_against(&[theirs]).unwrap();
    assert_eq!(report.pruned, 4, "{report:?}");
    assert_eq!(report.pinned, 0, "{report:?}");
    assert_eq!(report.candidates, overlay_before + 1);
    assert_eq!(sh.overlay_len(), overlay_before - 3);

    sh.verify_consistency().unwrap();
    let shipped = delta_blocks(&sh.into_delta());
    for b in mine.iter().chain([&theirs]) {
        assert!(!shipped.contains(b), "free data block {b} in the delta");
    }
}

#[test]
fn resync_keeps_overlay_blocks_as_they_are() {
    let (_dev, mut sh, kept) = shadow_over_populated_snapshot();
    // overwrite one durable block, add a file: data and metadata both
    let fd = sh.op_open("/kept", OpenFlags::RDWR, None).unwrap().0;
    sh.op_write(fd, 0, &vec![0x33u8; BLOCK_SIZE]).unwrap();
    let (fd2, _, _) = sh.op_open("/new", rw_create(), None).unwrap();
    sh.op_write(fd2, 0, b"fresh").unwrap();
    let before = sh.overlay.clone();
    assert!(before.contains_key(&kept));

    // the base wrote every one of them too (its own versions)
    let mut written: Vec<u64> = before.keys().copied().collect();
    written.sort_unstable();
    let report = sh.resync_against(&written).unwrap();
    assert_eq!(
        (report.candidates, report.pinned, report.pruned),
        (before.len(), 0, 0)
    );
    assert_eq!(sh.overlay.len(), before.len());
    for (bno, (img, kind)) in &before {
        let (now, now_kind) = &sh.overlay[bno];
        assert!(Arc::ptr_eq(img, now), "block {bno} was copied or replaced");
        assert_eq!(kind, now_kind);
    }
}

#[test]
fn resync_pins_untouched_written_blocks_with_snapshot_bytes() {
    let (dev, mut sh, kept) = shadow_over_populated_snapshot();
    let geo = sh.geometry();
    // an allocated data block and an inode-table block, both written
    // by the base and never touched by the shadow
    let table = geo.inode_table_start + geo.inode_table_blocks - 1;
    assert!(!sh.overlay.contains_key(&kept) && !sh.overlay.contains_key(&table));
    let report = sh.resync_against(&[table, kept]).unwrap();
    assert_eq!(
        (report.candidates, report.pinned, report.pruned),
        (sh.overlay_len(), 2, 0)
    );

    let delta = sh.into_delta();
    let mut want = vec![0u8; BLOCK_SIZE];
    dev.read_block(kept, &mut want).unwrap();
    let data = delta.data_blocks.iter().find(|(b, _)| *b == kept).unwrap();
    assert_eq!(
        data.1[..],
        want[..],
        "pinned as data, with the snapshot's bytes"
    );
    assert_eq!(want, vec![0x11u8; BLOCK_SIZE]);
    dev.read_block(table, &mut want).unwrap();
    let meta = delta.meta_blocks.iter().find(|(b, _)| *b == table).unwrap();
    assert_eq!(meta.1[..], want[..], "pinned as metadata");
}

/// What the shadow says it will never read is the journal and the data
/// blocks free at its load, each once, and nothing else: the blocks of
/// a file that exists at the load and every other metadata block stay
/// readable.
#[test]
fn never_read_is_the_journal_and_the_free_data_blocks() {
    let (_dev, sh, kept) = shadow_over_populated_snapshot();
    let geo = sh.geometry();
    let mut never = vec![false; geo.total_blocks as usize];
    for (start, end) in sh.never_read() {
        for b in start..end {
            assert!(
                !std::mem::replace(&mut never[b as usize], true),
                "block {b} twice"
            );
        }
    }
    let journal = geo.journal_start..geo.journal_start + geo.journal_blocks;
    for b in 0..geo.total_blocks {
        let free = geo.is_data_block(b) && !sh.dbm.test(b - geo.data_start).unwrap();
        assert_eq!(never[b as usize], journal.contains(&b) || free, "block {b}");
    }
    assert!(!never[kept as usize] && !never[kept as usize + 1]);
}

#[test]
fn resync_ignores_superblock_journal_and_out_of_range() {
    let (_dev, mut sh, _) = shadow_over_populated_snapshot();
    let geo = sh.geometry();
    let written = [
        0,
        geo.journal_start,
        geo.journal_start + geo.journal_blocks - 1,
        geo.total_blocks,
        u64::MAX,
    ];
    let report = sh.resync_against(&written).unwrap();
    assert_eq!(report, crate::ResyncReport::default());
    assert_eq!(sh.overlay_len(), 0);
}
