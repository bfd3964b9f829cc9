//! End-to-end tests of the RAE runtime: error masking, recovery
//! semantics, baselines.

use crate::{
    LadderRung, RaeConfig, RaeFs, RecoveryMode, RecoveryTrigger, RetryPolicy,
    MAX_CONSECUTIVE_RECOVERIES,
};
use rae_basefs::BaseFsConfig;
use rae_blockdev::{
    BlockDevice, DiskFaultPlan, FaultTarget, FaultyDisk, MemDisk, TapeDisk, TapeEntry, TriggerMode,
    BLOCK_SIZE,
};
use rae_faults::{BugSpec, Effect, FaultRegistry, Site, Trigger};
use rae_fsformat::{fsck, mkfs, MkfsParams};
use rae_telemetry::{DevOp, Telemetry};
use rae_vfs::{Fd, FileSystem, FsError, FsStatus, OpenFlags, SetAttr};
use std::sync::Arc;

fn rw_create() -> OpenFlags {
    OpenFlags::RDWR | OpenFlags::CREATE
}

fn setup(mode: RecoveryMode, faults: FaultRegistry) -> (Arc<MemDisk>, RaeFs) {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        mode,
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev.clone() as Arc<dyn BlockDevice>, config).unwrap();
    (dev, fs)
}

#[test]
fn normal_operation_records_and_trims() {
    let (_dev, fs) = setup(RecoveryMode::Rae, FaultRegistry::new());
    fs.mkdir("/d").unwrap();
    let fd = fs.open("/d/f", rw_create()).unwrap();
    fs.write(fd, 0, b"data").unwrap();
    assert!(fs.stats().log_len >= 3, "records retained pre-barrier");
    fs.sync().unwrap();
    let stats = fs.stats();
    assert!(
        stats.log_len <= 1,
        "only the live open survives the barrier, got {}",
        stats.log_len
    );
    assert!(stats.log_trimmed >= 3);
    assert_eq!(stats.recoveries, 0);
}

#[test]
fn masks_deterministic_detected_bug() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        104,
        "alloc-check",
        Site::Alloc,
        Trigger::NthMatch(3),
        Effect::DetectedError,
    ));
    let (_dev, fs) = setup(RecoveryMode::Rae, faults);

    fs.mkdir("/d1").unwrap(); // alloc 1
    fs.mkdir("/d2").unwrap(); // alloc 2
    fs.mkdir("/d3").unwrap(); // alloc 3: bug fires -> masked by RAE
    fs.mkdir("/d4").unwrap();

    // the application saw four successes and sees four directories
    for d in ["/d1", "/d2", "/d3", "/d4"] {
        assert!(fs.stat(d).is_ok(), "{d} missing");
    }
    let stats = fs.stats();
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.detected_errors, 1);
    assert_eq!(stats.ops_masked, 1);
    let reports = fs.recovery_reports();
    assert_eq!(reports.len(), 1);
    assert!(matches!(
        reports[0].trigger,
        RecoveryTrigger::DetectedError(FsError::DetectedBug { bug_id: 104 })
    ));
    assert!(reports[0].had_in_flight);
    assert!(
        reports[0].discrepancies.is_empty(),
        "{:?}",
        reports[0].discrepancies
    );
}

#[test]
fn masks_injected_panic() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        100,
        "rename-crash",
        Site::Rename,
        Trigger::PathContains("victim".into()),
        Effect::Panic,
    ));
    let (_dev, fs) = setup(RecoveryMode::Rae, faults);
    let fd = fs.open("/victim", rw_create()).unwrap();
    fs.write(fd, 0, b"precious").unwrap();
    fs.close(fd).unwrap();

    // this rename panics inside the base; RAE must mask it
    fs.rename("/victim", "/renamed").unwrap();

    assert_eq!(fs.stat("/victim"), Err(FsError::NotFound));
    let fd = fs.open("/renamed", OpenFlags::RDONLY).unwrap();
    assert_eq!(fs.read(fd, 0, 8).unwrap(), b"precious");
    fs.close(fd).unwrap();
    assert_eq!(fs.stats().panics_caught, 1);
    assert_eq!(fs.stats().recoveries, 1);
}

#[test]
fn descriptors_survive_recovery_with_identical_numbers() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        1,
        "bug",
        Site::DirModify,
        Trigger::All(vec![
            Trigger::OpIs(rae_vfs::OpKind::Unlink),
            Trigger::NthMatch(1),
        ]),
        Effect::Panic,
    ));
    let (_dev, fs) = setup(RecoveryMode::Rae, faults);

    let a = fs.open("/a", rw_create()).unwrap();
    let b = fs.open("/b", rw_create()).unwrap();
    fs.write(a, 0, b"aaaa").unwrap();
    fs.write(b, 0, b"bbbb").unwrap();
    let ino_a = fs.fstat(a).unwrap().ino;

    // unlink of a third file panics -> recovery
    let c = fs.open("/c", rw_create()).unwrap();
    fs.close(c).unwrap();
    fs.unlink("/c").unwrap(); // masked

    // descriptors still work, same numbers, same inodes, same content
    assert_eq!(fs.fstat(a).unwrap().ino, ino_a);
    assert_eq!(fs.read(a, 0, 4).unwrap(), b"aaaa");
    assert_eq!(fs.read(b, 0, 4).unwrap(), b"bbbb");
    fs.write(a, 4, b"more").unwrap();
    assert_eq!(fs.fstat(a).unwrap().size, 8);
    assert_eq!(fs.stats().recoveries, 1);
}

#[test]
fn recovery_preserves_unsynced_writes() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        102,
        "offset-overflow",
        Site::Write,
        Trigger::OffsetAtLeast(1 << 30),
        Effect::Panic,
    ));
    let (_dev, fs) = setup(RecoveryMode::Rae, faults);

    let fd = fs.open("/file", rw_create()).unwrap();
    let payload = vec![0x5Au8; 3 * BLOCK_SIZE];
    fs.write(fd, 0, &payload).unwrap(); // never synced

    // huge-offset write triggers the planted panic; RAE masks it and
    // completes the operation through the shadow
    fs.write(fd, 1 << 30, b"far").unwrap();

    assert_eq!(fs.read(fd, 0, 3 * BLOCK_SIZE).unwrap(), payload);
    assert_eq!(fs.read(fd, 1 << 30, 3).unwrap(), b"far");
    assert_eq!(fs.fstat(fd).unwrap().size, (1 << 30) + 3);
    assert_eq!(fs.stats().recoveries, 1);
}

/// A durable tree with multi-block and indirect-block files, an
/// unsynced tail, then the operation that trips the armed bug
/// (`before_boom` runs right before it).
fn cold_recovery_program(fs: &dyn FileSystem, before_boom: &dyn Fn()) {
    fs.mkdir("/docs").unwrap();
    for i in 0..24u64 {
        let fd = fs.open(&format!("/docs/f{i:02}"), rw_create()).unwrap();
        // every fourth file reaches into its indirect block
        let blocks = if i % 4 == 0 { 14 } else { 2 };
        fs.write(fd, 0, &vec![i as u8; blocks * BLOCK_SIZE])
            .unwrap();
        fs.close(fd).unwrap();
    }
    fs.sync().unwrap();
    for i in 0..16u64 {
        let fd = fs.open(&format!("/docs/t{i:02}"), rw_create()).unwrap();
        fs.write(fd, 0, &vec![0xA0 + i as u8; 700]).unwrap();
        fs.close(fd).unwrap();
        if i % 2 == 0 {
            fs.rename(&format!("/docs/t{i:02}"), &format!("/docs/r{i:02}"))
                .unwrap();
        }
    }
    before_boom();
    fs.mkdir("/boom").unwrap();
}

/// A detected error at the `mkdir /boom` that ends
/// [`cold_recovery_program`].
fn boom_faults() -> FaultRegistry {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        150,
        "boom",
        Site::DirModify,
        Trigger::PathContains("boom".into()),
        Effect::DetectedError,
    ));
    faults
}

#[test]
fn cold_recovery_reads_each_block_at_most_once() {
    let faults = boom_faults();
    let disk = Arc::new(rae_blockdev::StatsDisk::new(MemDisk::new(4096)));
    let geo = mkfs(disk.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(Arc::clone(&disk) as Arc<dyn BlockDevice>, config).unwrap();

    // whatever the program reads before /boom is not the recovery's
    let before = std::cell::Cell::new(0);
    cold_recovery_program(&fs, &|| before.set(disk.counters().reads));
    let recovery_reads = disk.counters().reads - before.get();

    let reports = fs.recovery_reports();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.rung, LadderRung::Cold);
    assert!(r.discrepancies.is_empty(), "{:?}", r.discrepancies);
    // every device read of the recovery is either the contained
    // reboot's (journal scan + allocator bitmaps) or the first read of
    // a distinct block by the shadow phase
    let reboot_bound = geo.journal_blocks + geo.inode_bitmap_blocks + geo.data_bitmap_blocks;
    assert!(
        recovery_reads <= r.shadow_device_reads + reboot_bound,
        "{recovery_reads} device reads for {} distinct blocks (+{reboot_bound} reboot)",
        r.shadow_device_reads
    );
    // one pass over the inode table, not one read per inode
    assert!(
        r.shadow_device_reads < u64::from(geo.inode_count) / 2,
        "{} blocks read through the view",
        r.shadow_device_reads
    );
    assert!(r.shadow_memo_hits > r.shadow_device_reads, "{r:?}");

    // and the recovered tree is the model's
    let model = rae_fsmodel::ModelFs::new();
    cold_recovery_program(&model, &|| ());
    let (mut want, mut got) = (Vec::new(), Vec::new());
    tree_of(&model, "/", &mut want);
    tree_of(&fs, "/", &mut got);
    assert_eq!(got, want);
    fs.unmount().unwrap();

    // the checker on its own is read-once too, on this real image, as
    // a tape under it records its reads
    let tape = TapeDisk::from_image(&disk.inner().snapshot());
    assert!(fsck(&tape).unwrap().is_clean());
    let mut reads = tape.reads_since(0);
    reads.sort_unstable();
    assert!(
        reads.windows(2).all(|w| w[0] != w[1]),
        "a block read twice: {reads:?}"
    );
}

/// Distinct blocks the cold rung of [`cold_recovery_program`] reads.
const SHADOW_BLOCKS: u64 = 75;

#[test]
fn extent_read_cold_recovery_fetches_its_blocks_in_a_few_requests() {
    let faults = boom_faults();
    let disk = Arc::new(rae_blockdev::StatsDisk::new(MemDisk::new(4096)));
    mkfs(disk.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(Arc::clone(&disk) as Arc<dyn BlockDevice>, config).unwrap();
    cold_recovery_program(&fs, &|| ());
    let r = &fs.recovery_reports()[0];
    assert_eq!(r.rung, LadderRung::Cold);
    // the same distinct blocks a one-block-per-request snapshot view
    // fetched (recorded before the view filled runs). The 64-block inode table
    // is now one extent per checker worker; what stays one block per
    // request is the superblock, the bitmaps, and the indirect and
    // directory blocks, each found by reading another
    assert_eq!(r.shadow_device_reads, SHADOW_BLOCKS, "{r:?}");
    assert!(
        r.shadow_device_requests * 4 < r.shadow_device_reads,
        "{} requests for {} blocks",
        r.shadow_device_requests,
        r.shadow_device_reads
    );
    fs.unmount().unwrap();
}

/// The reads of `tape` that are a copy-before-write: a read of block
/// `b` whose next request on `b`, in the same flush epoch, is its write.
fn copies_before_write(tape: &[TapeEntry]) -> Vec<u64> {
    let mut copied = Vec::new();
    for (i, entry) in tape.iter().enumerate() {
        let TapeEntry::Read(b) = *entry else { continue };
        let next = tape[i + 1..].iter().find(|e| match e {
            TapeEntry::Read(x) | TapeEntry::Write(x, _) => *x == b,
            TapeEntry::Flush => true,
        });
        if matches!(next, Some(TapeEntry::Write(x, _)) if *x == b) {
            copied.push(b);
        }
    }
    copied
}

/// The cold rung's snapshot view is gone before the metadata download:
/// a device write from there on copies nothing into it, and nor does
/// any write after the recovery.
#[test]
fn cold_recovery_drops_its_view_before_the_handoff() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let disk = Arc::new(TapeDisk::new(4096));
    mkfs(disk.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults: boom_faults(),
            ..BaseFsConfig::default()
        },
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(Arc::clone(&disk) as Arc<dyn BlockDevice>, config).unwrap();
    // at the download, rewrite the device's last block — free, so no
    // reader of a view holds it — as it is, through the mount's device
    let handoff = Arc::new(AtomicUsize::new(usize::MAX));
    let (tape, dev, at) = (Arc::clone(&disk), fs.base().device(), Arc::clone(&handoff));
    let hook: Box<dyn FnOnce() + Send> = Box::new(move || {
        at.store(tape.mark(), Ordering::SeqCst);
        let last = dev.block_count() - 1;
        let at = last as usize * BLOCK_SIZE;
        dev.write_block(last, &tape.snapshot()[at..at + BLOCK_SIZE])
            .unwrap();
    });
    crate::raefs::BEFORE_ABSORB.with(|h| *h.borrow_mut() = Some(hook));
    cold_recovery_program(&fs, &|| ());
    let r = &fs.recovery_reports()[0];
    assert_eq!(r.rung, LadderRung::Cold);
    assert!(r.shadow_memo_hits > 0, "{r:?}");
    let handoff = disk.since(handoff.load(Ordering::SeqCst));
    assert!(handoff.iter().any(|e| matches!(e, TapeEntry::Write(..))));
    assert_eq!(
        copies_before_write(&handoff),
        [],
        "a write after the shadow phase copied into its view"
    );

    let mark = disk.mark();
    let fd = fs.open("/after", rw_create()).unwrap();
    fs.write(fd, 0, &[7; 3 * BLOCK_SIZE]).unwrap();
    fs.close(fd).unwrap();
    fs.sync().unwrap();
    assert!(!disk.writes_since(mark).is_empty());
    assert_eq!(
        disk.reads_since(mark),
        [],
        "a write after the recovery read the device"
    );
    fs.unmount().unwrap();
    assert!(fsck(disk.as_ref()).unwrap().is_clean());
}

/// Every mount meters its device once: with the standby on and the
/// mount's telemetry also handed to a fault-injecting device below it,
/// telemetry's request counts are exactly what reached the device.
#[test]
fn the_device_is_counted_once() {
    let tele = Telemetry::new();
    let faulty = FaultyDisk::new(MemDisk::new(4096));
    faulty.set_telemetry(Arc::clone(&tele));
    let disk = Arc::new(rae_blockdev::StatsDisk::new(faulty));
    mkfs(disk.as_ref(), MkfsParams::default()).unwrap();
    let before = disk.counters();
    let config = RaeConfig {
        standby: warm_opts(),
        telemetry: Some(Arc::clone(&tele)),
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(Arc::clone(&disk) as Arc<dyn BlockDevice>, config).unwrap();
    fs.mkdir("/churn").unwrap();
    for i in 0..40u8 {
        let path = format!("/churn/f{i:02}");
        let fd = fs.open(&path, rw_create()).unwrap();
        fs.write(fd, 0, &vec![i; 5000]).unwrap();
        fs.close(fd).unwrap();
        if i % 3 == 0 {
            fs.unlink(&path).unwrap();
        }
    }
    fs.sync().unwrap();
    // unmounted, nothing is left in flight between the two counters
    fs.unmount().unwrap();
    let c = disk.counters();
    assert_eq!(c.errors, 0);
    let seen = [
        tele.dev_requests(DevOp::Read),
        tele.dev_requests(DevOp::Write),
        tele.dev_requests(DevOp::Flush),
    ];
    let reached = [
        c.read_requests - before.read_requests,
        c.write_requests - before.write_requests,
        c.flushes - before.flushes,
    ];
    assert_eq!(seen, reached);
    assert!(reached.iter().all(|&n| n > 0), "{reached:?}");
}

/// The meter counts with recording off: the device's requests and a
/// cold rung's shadow reads are still reported.
#[test]
fn the_device_meter_runs_with_telemetry_off() {
    let tele = Telemetry::new();
    tele.set_enabled(false);
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults: boom_faults(),
            ..BaseFsConfig::default()
        },
        telemetry: Some(Arc::clone(&tele)),
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev as Arc<dyn BlockDevice>, config).unwrap();
    cold_recovery_program(&fs, &|| ());
    assert!(tele.dev_requests(DevOp::Write) > 0);
    assert_eq!(tele.dev_histogram(DevOp::Write, false).count(), 0);
    let r = &fs.recovery_reports()[0];
    assert_eq!(r.rung, LadderRung::Cold);
    assert!(r.shadow_device_requests > 0, "{r:?}");
    assert_eq!(r.shadow_device_reads, SHADOW_BLOCKS, "{r:?}");
    fs.unmount().unwrap();
}

#[test]
fn specified_errors_do_not_trigger_recovery() {
    let (_dev, fs) = setup(RecoveryMode::Rae, FaultRegistry::new());
    assert_eq!(fs.stat("/missing"), Err(FsError::NotFound));
    assert_eq!(fs.mkdir("/"), Err(FsError::InvalidArgument));
    fs.mkdir("/d").unwrap();
    assert_eq!(fs.mkdir("/d"), Err(FsError::Exists));
    assert_eq!(fs.stats().recoveries, 0);
    assert_eq!(fs.stats().detected_errors, 0);
}

#[test]
fn in_flight_fsync_is_reissued_after_recovery() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        107,
        "commit-bug",
        Site::JournalCommit,
        Trigger::NthMatch(1),
        Effect::DetectedError,
    ));
    let (dev, fs) = setup(RecoveryMode::Rae, faults);

    let fd = fs.open("/durable", rw_create()).unwrap();
    fs.write(fd, 0, b"must survive").unwrap();
    fs.fsync(fd).unwrap(); // commit bug fires; RAE recovers + re-issues

    assert_eq!(fs.stats().recoveries, 1);
    // prove durability: crash the whole stack, remount raw
    drop(fs);
    let fs2 =
        rae_basefs::BaseFs::mount(dev as Arc<dyn BlockDevice>, BaseFsConfig::default()).unwrap();
    let fd = fs2.open("/durable", OpenFlags::RDONLY).unwrap();
    assert_eq!(fs2.read(fd, 0, 12).unwrap(), b"must survive");
}

#[test]
fn recovery_fixes_silently_corrupted_data() {
    // a silent-corruption bug flips written data in the base; a later
    // detected error triggers recovery, and the shadow's re-execution
    // from the op log regenerates the *correct* data
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        111,
        "silent-bitflip",
        Site::Write,
        Trigger::NthMatch(1),
        Effect::SilentWrongResult,
    ));
    faults.arm(BugSpec::new(
        104,
        "detector",
        Site::Alloc,
        Trigger::NthMatch(3),
        Effect::DetectedError,
    ));
    let (_dev, fs) = setup(RecoveryMode::Rae, faults);

    let fd = fs.open("/f", rw_create()).unwrap(); // alloc 1 (ino) — wait: also block allocs
    fs.write(fd, 0, b"CLEAN DATA").unwrap(); // silently corrupted in the base
    let corrupted = fs.read(fd, 0, 10).unwrap();
    assert_ne!(corrupted, b"CLEAN DATA", "corruption landed");

    // trigger recovery via the detector bug
    let _ = fs.mkdir("/d1");
    let _ = fs.mkdir("/d2");
    let _ = fs.mkdir("/d3");
    assert!(fs.stats().recoveries >= 1);

    // the shadow re-executed the write from the recorded payload
    assert_eq!(fs.read(fd, 0, 10).unwrap(), b"CLEAN DATA");
}

#[test]
fn warn_policy_triggers_state_recovery() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        109,
        "warn-bug",
        Site::DirModify,
        Trigger::NthMatch(2),
        Effect::Warn,
    ));
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        treat_warn_as_error: true,
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev as Arc<dyn BlockDevice>, config).unwrap();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/b").unwrap(); // WARN fires -> recovery, op still succeeds
    assert!(fs.stat("/b").is_ok());
    assert_eq!(fs.stats().recoveries, 1);
    assert!(matches!(
        fs.recovery_reports()[0].trigger,
        RecoveryTrigger::WarnPolicy
    ));
}

#[test]
fn crash_remount_baseline_loses_buffered_state() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        1,
        "bug",
        Site::Alloc,
        Trigger::NthMatch(3),
        Effect::DetectedError,
    ));
    let (_dev, fs) = setup(RecoveryMode::CrashRemount, faults);

    fs.mkdir("/synced").unwrap();
    fs.sync().unwrap();
    let fd = fs.open("/unsynced-file", rw_create()).unwrap(); // alloc 2
                                                              // alloc 3 fires the bug -> "crash": everything buffered is lost
    let err = fs.mkdir("/doomed").unwrap_err();
    assert!(matches!(err, FsError::IoFailed { .. }));

    assert!(fs.stat("/synced").is_ok(), "durable state survives");
    assert_eq!(
        fs.stat("/unsynced-file"),
        Err(FsError::NotFound),
        "buffered create lost"
    );
    assert_eq!(fs.read(fd, 0, 1), Err(FsError::BadFd), "descriptors dead");
    assert_eq!(fs.stats().recoveries, 0, "no RAE recovery in this mode");
}

#[test]
fn error_return_baseline_propagates_runtime_errors() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        1,
        "bug",
        Site::Alloc,
        Trigger::NthMatch(1),
        Effect::DetectedError,
    ));
    let (_dev, fs) = setup(RecoveryMode::ErrorReturn, faults);
    let err = fs.mkdir("/d").unwrap_err();
    assert_eq!(err, FsError::DetectedBug { bug_id: 1 });
    // the base keeps running (unsafely)
    fs.mkdir("/d2").unwrap();
}

#[test]
fn repeated_bugs_each_get_masked() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        1,
        "every-5th-alloc",
        Site::Alloc,
        Trigger::EveryNth(5),
        Effect::DetectedError,
    ));
    let (_dev, fs) = setup(RecoveryMode::Rae, faults);
    for i in 0..20 {
        fs.mkdir(&format!("/dir{i}")).unwrap();
    }
    for i in 0..20 {
        assert!(fs.stat(&format!("/dir{i}")).is_ok(), "/dir{i}");
    }
    assert_eq!(fs.stats().recoveries, 4, "bugs at allocs 5,10,15,20");
}

#[test]
fn read_path_recovery_retries_transparently() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        106,
        "readdir-bug",
        Site::Readdir,
        Trigger::NthMatch(1),
        Effect::DetectedError,
    ));
    let (_dev, fs) = setup(RecoveryMode::Rae, faults);
    fs.mkdir("/d").unwrap();
    let fd = fs.open("/d/f", rw_create()).unwrap();
    fs.close(fd).unwrap();

    // first readdir hits the bug; RAE recovers and retries
    let entries = fs.readdir("/d").unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].name, "f");
    assert_eq!(fs.stats().recoveries, 1);
}

#[test]
fn unmount_after_recovery_leaves_consistent_image() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        1,
        "bug",
        Site::Alloc,
        Trigger::NthMatch(4),
        Effect::Panic,
    ));
    let (dev, fs) = setup(RecoveryMode::Rae, faults);
    for i in 0..6 {
        fs.mkdir(&format!("/d{i}")).unwrap();
        let fd = fs.open(&format!("/d{i}/f"), rw_create()).unwrap();
        fs.write(fd, 0, &vec![i as u8; 5000]).unwrap();
        fs.close(fd).unwrap();
    }
    assert!(fs.stats().recoveries >= 1);
    fs.unmount().unwrap();
    let report = fsck(dev.as_ref()).unwrap();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn unrecoverable_shadow_degrades_to_read_only() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        1,
        "bug",
        Site::Alloc,
        Trigger::PathContains("/victim".into()),
        Effect::DetectedError,
    ));
    let (dev, fs) = setup(RecoveryMode::Rae, faults);
    fs.mkdir("/pre").unwrap();
    // checkpoint so the corruption below lands in the authoritative
    // home blocks (journal replay must not heal it)
    fs.base().checkpoint().unwrap();
    // corrupt the on-disk root inode *under* the running filesystem:
    // the shadow's image validation refuses it on every rung, but the
    // base's contained reboot still succeeds — the ladder must stop at
    // read-only degraded, not offline
    let geo = fs.base().geometry();
    let (bno, off) = geo.inode_location(rae_vfs::ROOT_INO).unwrap();
    let mut buf = vec![0u8; BLOCK_SIZE];
    dev.read_block(bno, &mut buf).unwrap();
    buf[off + 9] ^= 0xFF; // inside the root inode's size field
    dev.write_block(bno, &buf).unwrap();

    let err = fs.mkdir("/victim").unwrap_err();
    assert!(matches!(err, FsError::ReadOnly), "{err}");
    assert_eq!(fs.status(), FsStatus::Degraded);
    let stats = fs.stats();
    assert!(stats.degraded);
    assert_eq!(stats.ladder_degraded, 1);
    assert_eq!(stats.recovery_failures, 0, "degraded is not offline");
    // the ladder was tried in order: cold, then cold-retry, then the
    // degrade reboot (no standby configured, so no warm rung)
    let reports = fs.recovery_reports();
    let last = reports.last().unwrap();
    assert_eq!(last.rung, LadderRung::Degraded);
    assert_eq!(
        last.failed_rungs.iter().map(|f| f.rung).collect::<Vec<_>>(),
        vec![LadderRung::Cold, LadderRung::ColdRetry]
    );
    // mutations refuse with EROFS; reads that avoid the corrupted
    // inode still serve off the journal-consistent base
    assert!(matches!(fs.unlink("/pre"), Err(FsError::ReadOnly)));
    assert!(matches!(fs.sync(), Err(FsError::ReadOnly)));
    assert!(fs.statfs().is_ok());
    assert_eq!(
        fs.status(),
        FsStatus::Degraded,
        "reads do not degrade further"
    );
}

#[test]
fn log_cap_forces_barrier() {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        max_log_records: 10,
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev as Arc<dyn BlockDevice>, config).unwrap();
    for i in 0..50 {
        fs.mkdir(&format!("/d{i}")).unwrap();
    }
    assert!(
        fs.stats().log_len <= 11,
        "log bounded: {}",
        fs.stats().log_len
    );
    assert!(fs.stats().log_trimmed >= 39);
}

#[test]
fn recovery_after_sync_replays_only_the_suffix() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        1,
        "bug",
        Site::Rename,
        Trigger::NthMatch(1),
        Effect::Panic,
    ));
    let (_dev, fs) = setup(RecoveryMode::Rae, faults);
    for i in 0..10 {
        fs.mkdir(&format!("/pre{i}")).unwrap();
    }
    fs.sync().unwrap(); // barrier: the 10 mkdirs are durable
    fs.mkdir("/post").unwrap();
    let fd = fs.open("/post/f", rw_create()).unwrap();
    fs.close(fd).unwrap();
    fs.rename("/post/f", "/post/g").unwrap(); // panics -> recovery

    let reports = fs.recovery_reports();
    assert_eq!(reports.len(), 1);
    assert!(
        reports[0].records_replayed <= 4,
        "only the unsynced suffix replayed, got {}",
        reports[0].records_replayed
    );
    assert!(fs.stat("/post/g").is_ok());
    assert!(fs.stat("/pre3").is_ok());
}

#[test]
fn consecutive_recoveries_from_same_log() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        1,
        "b1",
        Site::Alloc,
        Trigger::NthMatch(3),
        Effect::DetectedError,
    ));
    faults.arm(BugSpec::new(
        2,
        "b2",
        Site::Alloc,
        Trigger::NthMatch(5),
        Effect::Panic,
    ));
    let (_dev, fs) = setup(RecoveryMode::Rae, faults);
    for i in 0..8 {
        fs.mkdir(&format!("/d{i}")).unwrap();
    }
    assert_eq!(fs.stats().recoveries, 2);
    for i in 0..8 {
        assert!(fs.stat(&format!("/d{i}")).is_ok());
    }
}

#[test]
fn concurrent_clients_survive_recovery() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        1,
        "bug",
        Site::Alloc,
        Trigger::NthMatch(10),
        Effect::DetectedError,
    ));
    let (_dev, fs) = setup(RecoveryMode::Rae, faults);
    let fs = Arc::new(fs);
    let mut handles = Vec::new();
    for t in 0..4u32 {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            for i in 0..10 {
                fs.mkdir(&format!("/t{t}-{i}")).unwrap();
                let _ = fs.readdir("/").unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(fs.readdir("/").unwrap().len(), 40);
    assert!(fs.stats().recoveries >= 1);
}

#[test]
fn audit_is_clean_on_a_healthy_filesystem() {
    let (_dev, fs) = setup(RecoveryMode::Rae, FaultRegistry::new());
    fs.mkdir("/d").unwrap();
    let fd = fs.open("/d/f", rw_create()).unwrap();
    fs.write(fd, 0, b"audit me").unwrap();
    // fd stays open across the audit (its record becomes RestoreFd)
    let report = fs.audit().unwrap();
    assert!(report.is_clean(), "{:?}", report.discrepancies);
    // the filesystem is untouched and keeps working
    assert_eq!(fs.read(fd, 0, 8).unwrap(), b"audit me");
    fs.close(fd).unwrap();
    assert_eq!(fs.stats().recoveries, 0, "audit never reboots");
}

#[test]
fn audit_checkpoint_failure_is_masked() {
    // the audit's opening checkpoint is a base call like any other: a
    // bug in its commit takes the failure road, recovery masks it, and
    // the audit runs over the recovered state checkpointed again
    for effect in [Effect::Panic, Effect::DetectedError] {
        let faults = FaultRegistry::new();
        faults.arm(BugSpec::new(
            701,
            "commit-bug",
            Site::JournalCommit,
            Trigger::NthMatch(1),
            effect,
        ));
        let (_dev, fs) = setup(RecoveryMode::Rae, faults.clone());
        fs.mkdir("/a").unwrap();
        let report = fs.audit();
        assert_eq!(faults.fired(701), 1, "{effect:?}: commit bug fired");
        let report = report.unwrap_or_else(|e| panic!("{effect:?}: {e}"));
        assert!(report.is_clean(), "{effect:?}: {:?}", report.discrepancies);
        assert_eq!(fs.stats().recoveries, 1, "{effect:?}");
        assert!(fs.stat("/a").is_ok(), "{effect:?}: /a lost");
    }
}

#[test]
fn audit_reports_silent_base_corruption() {
    // a silent bug corrupts a write in the base; the audit's
    // constrained replay disagrees with the on-disk reality...
    // actually outcomes (byte counts) agree — what the audit catches is
    // the post-replay consistency check against the overlay vs... the
    // cross-check here passes, so assert the audit at least runs with
    // the bug armed and reports the fd-table state faithfully.
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        700,
        "silent",
        Site::Write,
        Trigger::NthMatch(1),
        Effect::SilentWrongResult,
    ));
    let (_dev, fs) = setup(RecoveryMode::Rae, faults);
    let fd = fs.open("/f", rw_create()).unwrap();
    fs.write(fd, 0, b"AAAA").unwrap(); // corrupted on disk
    fs.close(fd).unwrap();
    let report = fs.audit().unwrap();
    // outcome-level cross-check cannot see byte-level corruption
    // (contents are not part of recorded outcomes) — this documents
    // the boundary: content divergence needs the differential tree
    // comparison (E6), not the outcome audit.
    assert!(report.is_clean());
}

#[test]
fn rae_masks_memory_scribbler_at_commit_time() {
    // the memory-corruption class: a bug silently damages an in-memory
    // metadata page; validate-on-commit detects it at the sync (before
    // persistence, per the fault model), and RAE recovers — the damaged
    // state is discarded and rebuilt from the op log
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        800,
        "memory-scribbler",
        Site::Write,
        Trigger::NthMatch(1),
        Effect::CorruptMetadata,
    ));
    let (dev, fs) = setup(RecoveryMode::Rae, faults.clone());
    fs.mkdir("/d").unwrap();
    let fd = fs.open("/d/f", rw_create()).unwrap();
    fs.write(fd, 0, b"survives the scribbler").unwrap();
    assert_eq!(faults.fired(800), 1);

    fs.sync().unwrap(); // detection + recovery + re-issued sync
    assert_eq!(fs.stats().recoveries, 1, "{:?}", fs.stats());

    // everything the application wrote is intact and durable
    assert_eq!(fs.read(fd, 0, 22).unwrap(), b"survives the scribbler");
    fs.close(fd).unwrap();
    fs.unmount().unwrap();
    let report = fsck(dev.as_ref()).unwrap();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn recovery_storm_guard_takes_filesystem_offline() {
    // a bug that fires on *every* allocation: each recovery's next op
    // re-triggers it immediately — a storm with no progress
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        900,
        "always-alloc-bug",
        Site::Alloc,
        Trigger::Always,
        Effect::DetectedError,
    ));
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev as Arc<dyn BlockDevice>, config).unwrap();
    let mut offline = false;
    for i in 0..2 * MAX_CONSECUTIVE_RECOVERIES {
        match fs.mkdir(&format!("/d{i}")) {
            Ok(()) => {}
            Err(FsError::RecoveryFailed { .. }) => {
                offline = true;
                break;
            }
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert!(offline, "storm guard never engaged: {:?}", fs.stats());
    assert_eq!(fs.status(), FsStatus::Failed);
    assert!(
        fs.stats().recoveries <= u64::from(MAX_CONSECUTIVE_RECOVERIES),
        "{:?}",
        fs.stats()
    );
}

#[test]
fn interleaved_successes_reset_the_storm_counter() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        901,
        "every-other-mkdir",
        Site::DirModify,
        Trigger::EveryNth(2),
        Effect::DetectedError,
    ));
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev as Arc<dyn BlockDevice>, config).unwrap();
    // every other op recovers, but successes interleave: never a storm,
    // though the recoveries add up to more than the guard allows in a row
    for i in 0..40 {
        fs.mkdir(&format!("/d{i}")).unwrap();
    }
    assert!(
        fs.stats().recoveries > u64::from(MAX_CONSECUTIVE_RECOVERIES),
        "{:?}",
        fs.stats()
    );
    assert_eq!(fs.status(), FsStatus::Active);
}

#[test]
fn forced_barrier_failures_are_masked_too() {
    // tiny log cap forces an internal sync; a commit-site bug fires
    // during that sync — the application's op must still succeed
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        950,
        "commit-bug",
        Site::JournalCommit,
        Trigger::NthMatch(2),
        Effect::DetectedError,
    ));
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults: faults.clone(),
            ..BaseFsConfig::default()
        },
        max_log_records: 5,
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev as Arc<dyn BlockDevice>, config).unwrap();
    for i in 0..30 {
        fs.mkdir(&format!("/d{i}")).unwrap();
    }
    assert!(faults.fired(950) >= 1, "commit bug never fired");
    assert!(fs.stats().recoveries >= 1);
    for i in 0..30 {
        assert!(fs.stat(&format!("/d{i}")).is_ok(), "/d{i} lost");
    }
}

#[test]
fn forced_barrier_failure_follows_the_recovery_mode() {
    // the log cap forces a sync, and a commit-site bug fails it: the
    // barrier's failure takes the configured mode's road like any other
    // base failure — only `Rae` climbs the ladder
    for mode in [
        RecoveryMode::Rae,
        RecoveryMode::CrashRemount,
        RecoveryMode::ErrorReturn,
    ] {
        let faults = FaultRegistry::new();
        faults.arm(BugSpec::new(
            951,
            "commit-bug",
            Site::JournalCommit,
            Trigger::NthMatch(2),
            Effect::DetectedError,
        ));
        let dev = Arc::new(MemDisk::new(4096));
        mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
        let config = RaeConfig {
            base: BaseFsConfig {
                faults: faults.clone(),
                ..BaseFsConfig::default()
            },
            mode,
            max_log_records: 5,
            ..RaeConfig::default()
        };
        let fs = RaeFs::mount(dev as Arc<dyn BlockDevice>, config).unwrap();
        let errors: Vec<FsError> = (0..30)
            .filter_map(|i| fs.mkdir(&format!("/d{i}")).err())
            .collect();
        assert_eq!(faults.fired(951), 1, "{mode:?}: commit bug fired once");
        let st = fs.stats();
        assert_eq!(st.detected_errors, 1, "{mode:?}");
        match mode {
            RecoveryMode::Rae => {
                assert!(errors.is_empty(), "Rae masks the barrier: {errors:?}");
                assert_eq!(st.recoveries, 1);
                assert_eq!(st.ops_masked, 0, "no operation was in flight");
            }
            RecoveryMode::CrashRemount => {
                assert_eq!(st.recoveries, 0, "no RAE recovery in this mode");
                assert!(
                    matches!(errors.as_slice(), [FsError::IoFailed { .. }]),
                    "{errors:?}"
                );
            }
            RecoveryMode::ErrorReturn => {
                assert_eq!(st.recoveries, 0, "no RAE recovery in this mode");
                assert_eq!(errors, vec![FsError::DetectedBug { bug_id: 951 }]);
            }
        }
        assert_eq!(st.ladder_cold, st.recoveries, "{mode:?}");
    }
}

// ----------------------------------------------------------------------
// Warm standby
// ----------------------------------------------------------------------

fn warm_opts() -> crate::StandbyOpts {
    crate::StandbyOpts { enabled: true }
}

fn rename_crash_faults() -> FaultRegistry {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        7,
        "rename-crash",
        Site::Rename,
        Trigger::PathContains("victim".into()),
        Effect::Panic,
    ));
    faults
}

/// Wait until the standby has applied everything published so far, so
/// the drain at the next recovery is exactly the in-flight tail.
fn wait_caught_up(fs: &RaeFs) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while fs.stats().standby_lag > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "standby never caught up"
        );
        std::thread::yield_now();
    }
}

/// Identical workload, no persistence barrier (nothing trims), ending
/// in a masked in-flight panic. `padding` directories are made first,
/// to lengthen the retained log. With `standby.enabled` the recovery
/// takes the warm path; otherwise cold. Returns the retained log length
/// when the panic fires.
fn run_rename_crash_scenario(
    standby: crate::StandbyOpts,
    padding: usize,
) -> (Arc<MemDisk>, RaeFs, usize) {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults: rename_crash_faults(),
            ..BaseFsConfig::default()
        },
        standby,
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev.clone() as Arc<dyn BlockDevice>, config).unwrap();
    for k in 0..padding {
        fs.mkdir(&format!("/pad{k:03}")).unwrap();
    }
    fs.mkdir("/d").unwrap();
    let a = fs.open("/d/a", rw_create()).unwrap();
    fs.write(a, 0, b"unsynced payload").unwrap();
    let v = fs.open("/victim", rw_create()).unwrap();
    fs.write(v, 0, b"precious").unwrap();
    fs.close(v).unwrap();
    fs.symlink("/d/a", "/sym").unwrap();
    fs.link("/d/a", "/hard").unwrap();
    if fs.stats().standby_active {
        wait_caught_up(&fs);
    }
    let retained = fs.stats().log_len;
    // panics inside the base; RAE masks it through recovery
    fs.rename("/victim", "/renamed").unwrap();
    (dev, fs, retained)
}

/// At two log lengths: cold replays the whole retained log, warm
/// drains only the in-flight tail, and both reach the same state.
#[test]
fn warm_and_cold_recovery_reach_identical_state() {
    for padding in [0, 200] {
        let (cold_dev, cold, retained) =
            run_rename_crash_scenario(crate::StandbyOpts::default(), padding);
        let (warm_dev, warm, _) = run_rename_crash_scenario(warm_opts(), padding);
        assert_eq!(retained, padding + 8, "{padding}: nothing trimmed");

        let cold_reports = cold.recovery_reports();
        let warm_reports = warm.recovery_reports();
        assert_eq!(cold_reports.len(), 1);
        assert_eq!(warm_reports.len(), 1);
        let (cr, wr) = (&cold_reports[0], &warm_reports[0]);
        assert_eq!(cr.rung, crate::LadderRung::Cold);
        assert_eq!(wr.rung, crate::LadderRung::Warm);
        assert!(cr.had_in_flight && wr.had_in_flight);

        // identical cross-check verdicts: the standby's accumulated
        // report equals what cold replay of the same log produced
        assert_eq!(cr.discrepancies, wr.discrepancies);
        // cold pays O(retained log); the warm drain is only the
        // published-but-unapplied tail, which was empty once caught up
        assert_eq!(
            cr.records_replayed, retained as u64,
            "{padding}: cold replays the whole retained log"
        );
        assert_eq!(
            wr.records_replayed, 0,
            "{padding}: warm drains only the in-flight tail"
        );

        // both recovered filesystems answer identically
        for fs in [&cold, &warm] {
            assert_eq!(fs.stat("/victim"), Err(FsError::NotFound));
            assert_eq!(fs.readlink("/sym").unwrap(), "/d/a");
            assert_eq!(fs.stat("/hard").unwrap().nlink, 2);
            assert_eq!(
                fs.stat("/d/a").unwrap().size,
                b"unsynced payload".len() as u64
            );
            let fd = fs.open("/renamed", OpenFlags::RDONLY).unwrap();
            assert_eq!(fs.read(fd, 0, 16).unwrap(), b"precious");
            fs.close(fd).unwrap();
            assert_eq!(fs.stats().recoveries, 1);
        }
        let root_names = |fs: &RaeFs| {
            let mut names: Vec<String> = fs
                .readdir("/")
                .unwrap()
                .into_iter()
                .map(|e| e.name)
                .collect();
            names.sort();
            names
        };
        assert_eq!(root_names(&cold), root_names(&warm));

        // and both on-disk images are consistent after unmount
        cold.unmount().unwrap();
        warm.unmount().unwrap();
        fsck(cold_dev.as_ref()).unwrap();
        fsck(warm_dev.as_ref()).unwrap();
    }
}

#[test]
fn warm_recovery_respawns_standby_for_the_next_one() {
    let (_dev, fs, _) = run_rename_crash_scenario(warm_opts(), 0);
    let stats = fs.stats();
    assert!(stats.standby_active, "standby respawned after recovery");
    assert!(!stats.standby_degraded);

    // a second masked crash takes the warm path again
    let v = fs.open("/victim2", rw_create()).unwrap();
    fs.write(v, 0, b"again").unwrap();
    fs.close(v).unwrap();
    wait_caught_up(&fs);
    fs.rename("/victim2", "/renamed2").unwrap();

    let reports = fs.recovery_reports();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[1].rung, crate::LadderRung::Warm);
    assert_eq!(fs.stats().recoveries, 2);
    let fd = fs.open("/renamed2", OpenFlags::RDONLY).unwrap();
    assert_eq!(fs.read(fd, 0, 5).unwrap(), b"again");
    fs.close(fd).unwrap();
}

#[test]
fn standby_watermarks_surface_in_stats() {
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        standby: warm_opts(),
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev as Arc<dyn BlockDevice>, config).unwrap();
    for i in 0..6 {
        fs.mkdir(&format!("/d{i}")).unwrap();
    }
    wait_caught_up(&fs);
    let stats = fs.stats();
    assert!(stats.standby_active);
    assert_eq!(stats.standby_lag, 0);
    assert_eq!(stats.standby_completed_seq, stats.standby_applied_seq);
    assert!(stats.standby_completed_seq >= 6);
    assert_eq!(stats.standby_divergences, 0);
}

// ----------------------------------------------------------------------
// Recovery degradation ladder
// ----------------------------------------------------------------------

/// Assert an operation is refused because the mount is offline.
macro_rules! assert_offline {
    ($e:expr) => {{
        let r = $e;
        assert!(
            matches!(r, Err(FsError::RecoveryFailed { .. })),
            "offline mount accepted an operation: {r:?}"
        );
    }};
}

#[test]
fn offline_mount_rejects_every_operation() {
    // an always-firing bug exhausts the storm budget and drives the
    // ladder to its last rung; after that, *every* FileSystem entry
    // point — reads included — must refuse
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        960,
        "storm",
        Site::Alloc,
        Trigger::Always,
        Effect::DetectedError,
    ));
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev as Arc<dyn BlockDevice>, config).unwrap();
    let mut offline = false;
    for i in 0..2 * MAX_CONSECUTIVE_RECOVERIES {
        if matches!(
            fs.mkdir(&format!("/d{i}")),
            Err(FsError::RecoveryFailed { .. })
        ) {
            offline = true;
            break;
        }
    }
    assert!(offline, "storm guard never engaged: {:?}", fs.stats());
    assert_eq!(fs.status(), FsStatus::Failed);
    assert!(
        fs.stats().recoveries <= u64::from(MAX_CONSECUTIVE_RECOVERIES),
        "{:?}",
        fs.stats()
    );
    let reports = fs.recovery_reports();
    assert_eq!(reports.last().unwrap().rung, LadderRung::Offline);
    assert!(fs.stats().recovery_failures >= 1);

    assert_offline!(fs.open("/x", rw_create()));
    assert_offline!(fs.close(Fd(0)));
    assert_offline!(fs.read(Fd(0), 0, 1));
    assert_offline!(fs.write(Fd(0), 0, b"x"));
    assert_offline!(fs.truncate(Fd(0), 0));
    assert_offline!(fs.setattr(
        "/x",
        SetAttr {
            size: Some(1),
            mtime: None
        }
    ));
    assert_offline!(fs.fsync(Fd(0)));
    assert_offline!(fs.sync());
    assert_offline!(fs.mkdir("/x"));
    assert_offline!(fs.rmdir("/x"));
    assert_offline!(fs.unlink("/x"));
    assert_offline!(fs.rename("/x", "/y"));
    assert_offline!(fs.link("/x", "/y"));
    assert_offline!(fs.symlink("/x", "/y"));
    assert_offline!(fs.readlink("/x"));
    assert_offline!(fs.stat("/x"));
    assert_offline!(fs.fstat(Fd(0)));
    assert_offline!(fs.readdir("/"));
    assert_offline!(fs.statfs());
    assert_eq!(fs.status(), FsStatus::Failed);
}

#[test]
fn degraded_mount_rejects_exactly_the_mutations() {
    // a replay-site poison kills the cold and retry rungs; the degrade
    // reboot still succeeds, so the mount lands read-only — mutations
    // refuse with EROFS, reads answer off the journal-consistent base
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        970,
        "boom",
        Site::DirModify,
        Trigger::PathContains("boom".into()),
        Effect::DetectedError,
    ));
    faults.arm(BugSpec::new(
        971,
        "replay-poison",
        Site::RecoveryReplay,
        Trigger::Always,
        Effect::DetectedError,
    ));
    let (_dev, fs) = setup(RecoveryMode::Rae, faults);
    fs.mkdir("/pre").unwrap();
    let fd = fs.open("/pre/f", rw_create()).unwrap();
    fs.write(fd, 0, b"still readable").unwrap();
    fs.close(fd).unwrap();
    fs.symlink("/pre/f", "/ln").unwrap();
    fs.sync().unwrap();

    // the triggering mutation itself is refused, not masked
    assert_eq!(fs.mkdir("/boom"), Err(FsError::ReadOnly));
    assert_eq!(fs.status(), FsStatus::Degraded);
    let stats = fs.stats();
    assert!(stats.degraded);
    assert_eq!(stats.ladder_degraded, 1);
    assert_eq!(stats.recoveries, 0);
    assert_eq!(stats.recovery_failures, 0, "degraded is not offline");
    let reports = fs.recovery_reports();
    let last = reports.last().unwrap();
    assert_eq!(last.rung, LadderRung::Degraded);
    let rungs: Vec<LadderRung> = last.failed_rungs.iter().map(|f| f.rung).collect();
    assert_eq!(rungs, vec![LadderRung::Cold, LadderRung::ColdRetry]);

    // every mutating entry point refuses with EROFS (open allocates
    // descriptor-table state, so it counts as a mutation here)
    assert_eq!(fs.open("/pre/f", OpenFlags::RDONLY), Err(FsError::ReadOnly));
    assert_eq!(fs.close(Fd(0)), Err(FsError::ReadOnly));
    assert_eq!(fs.write(Fd(0), 0, b"x"), Err(FsError::ReadOnly));
    assert_eq!(fs.truncate(Fd(0), 0), Err(FsError::ReadOnly));
    assert_eq!(
        fs.setattr(
            "/pre/f",
            SetAttr {
                size: Some(1),
                mtime: None
            }
        ),
        Err(FsError::ReadOnly)
    );
    assert_eq!(fs.fsync(Fd(0)), Err(FsError::ReadOnly));
    assert_eq!(fs.sync(), Err(FsError::ReadOnly));
    assert_eq!(fs.mkdir("/x"), Err(FsError::ReadOnly));
    assert_eq!(fs.rmdir("/pre"), Err(FsError::ReadOnly));
    assert_eq!(fs.unlink("/ln"), Err(FsError::ReadOnly));
    assert_eq!(fs.rename("/ln", "/ln2"), Err(FsError::ReadOnly));
    assert_eq!(fs.link("/pre/f", "/hard"), Err(FsError::ReadOnly));
    assert_eq!(fs.symlink("/pre/f", "/ln2"), Err(FsError::ReadOnly));

    // while every path-based read still answers
    assert_eq!(
        fs.stat("/pre/f").unwrap().size,
        b"still readable".len() as u64
    );
    assert_eq!(fs.readlink("/ln").unwrap(), "/pre/f");
    assert!(fs.readdir("/").unwrap().iter().any(|e| e.name == "pre"));
    assert!(fs.statfs().is_ok());
    // descriptors do not survive the degrade reboot
    assert_eq!(fs.fstat(fd), Err(FsError::BadFd));
    assert_eq!(fs.status(), FsStatus::Degraded);
}

#[test]
fn ladder_tries_warm_then_cold_then_retry_before_degrading() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        975,
        "boom",
        Site::DirModify,
        Trigger::PathContains("boom".into()),
        Effect::DetectedError,
    ));
    faults.arm(BugSpec::new(
        976,
        "replay-poison",
        Site::RecoveryReplay,
        Trigger::Always,
        Effect::DetectedError,
    ));
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        standby: warm_opts(),
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev as Arc<dyn BlockDevice>, config).unwrap();
    fs.mkdir("/pre").unwrap();
    wait_caught_up(&fs);

    assert_eq!(fs.mkdir("/boom"), Err(FsError::ReadOnly));
    let reports = fs.recovery_reports();
    let last = reports.last().unwrap();
    assert_eq!(last.rung, LadderRung::Degraded);
    let rungs: Vec<LadderRung> = last.failed_rungs.iter().map(|f| f.rung).collect();
    assert_eq!(
        rungs,
        vec![LadderRung::Warm, LadderRung::Cold, LadderRung::ColdRetry],
        "ladder must be tried strictly in order"
    );
    let stats = fs.stats();
    assert!(stats.degraded);
    assert!(stats.standby_degraded, "handover consumed the standby");
    assert!(!stats.standby_active);
}

#[test]
fn transient_device_faults_during_recovery_are_absorbed() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        980,
        "boom",
        Site::DirModify,
        Trigger::PathContains("boom".into()),
        Effect::DetectedError,
    ));
    let disk = Arc::new(FaultyDisk::new(MemDisk::new(4096)));
    mkfs(disk.as_ref(), MkfsParams::default()).unwrap();
    // two one-shot read faults, scoped to the recovery phase: the first
    // kills the cold rung at its contained reboot; the second fires
    // somewhere inside the retry rung — reboot re-issue or shadow load
    // through the retrying wrapper — and is absorbed either way
    disk.stage_recovery_plan(
        DiskFaultPlan::new()
            .fail_reads(FaultTarget::Any, TriggerMode::Nth(1))
            .fail_reads(FaultTarget::Any, TriggerMode::Nth(2)),
    );
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        retry: RetryPolicy {
            max_attempts: 4,
            base_backoff_ns: 1,
            max_backoff_ns: 8,
            seed: 0,
        },
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(Arc::clone(&disk) as Arc<dyn BlockDevice>, config).unwrap();
    fs.mkdir("/pre").unwrap();

    fs.mkdir("/boom").unwrap(); // masked: the retry rung absorbs both transients
    assert_eq!(fs.status(), FsStatus::Active);
    let stats = fs.stats();
    assert_eq!(stats.recoveries, 1, "{stats:?}");
    assert!(!stats.degraded);
    assert!(stats.device_retries >= 1, "{stats:?}");
    assert!(stats.device_faults_absorbed >= 1, "{stats:?}");
    assert_eq!(stats.device_retries_exhausted, 0, "{stats:?}");
    let reports = fs.recovery_reports();
    let last = reports.last().unwrap();
    assert_eq!(last.rung, LadderRung::ColdRetry);
    let rungs: Vec<LadderRung> = last.failed_rungs.iter().map(|f| f.rung).collect();
    assert_eq!(rungs, vec![LadderRung::Cold]);
    assert!(disk.injected_faults() >= 2);

    // the plan was recovery-scoped: normal operation is untouched after
    fs.mkdir("/after").unwrap();
    assert!(fs.stat("/pre").is_ok());
    assert!(fs.stat("/boom").is_ok());
    assert!(fs.stat("/after").is_ok());
}

#[test]
fn pending_read_is_served_off_the_degraded_base() {
    // a one-shot readdir bug pulls the trigger with a *read* in flight;
    // the replay poison walks the ladder down to degraded — and the
    // pending read must still be answered, off the rebooted base
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        990,
        "readdir-bug",
        Site::Readdir,
        Trigger::NthMatch(1),
        Effect::DetectedError,
    ));
    faults.arm(BugSpec::new(
        991,
        "replay-poison",
        Site::RecoveryReplay,
        Trigger::Always,
        Effect::DetectedError,
    ));
    let (_dev, fs) = setup(RecoveryMode::Rae, faults);
    fs.mkdir("/pre").unwrap();
    let fd = fs.open("/pre/f", rw_create()).unwrap();
    fs.write(fd, 0, b"payload").unwrap();
    fs.close(fd).unwrap();
    fs.sync().unwrap();

    let entries = fs.readdir("/pre").unwrap();
    assert!(entries.iter().any(|e| e.name == "f"));
    assert_eq!(fs.status(), FsStatus::Degraded);
    let last_rung = fs.recovery_reports().last().unwrap().rung;
    assert_eq!(last_rung, LadderRung::Degraded);
    assert!(fs.recovery_reports().last().unwrap().had_in_flight);
    // and later reads keep working while mutations refuse
    assert_eq!(fs.stat("/pre/f").unwrap().size, 7);
    assert_eq!(fs.mkdir("/x"), Err(FsError::ReadOnly));
}

// ----------------------------------------------------------------------
// Concurrent mutators vs the model oracle
// ----------------------------------------------------------------------

/// The per-thread churn program: replay-safe mutations only (create,
/// write, close, rename, unlink — never mkdir, whose inode the log
/// does not pin), deterministic and name-disjoint across threads so
/// any serialization reaches the same final tree.
fn churn_ops(fs: &dyn FileSystem, t: u64) {
    for i in 0..12u64 {
        let f = format!("/t{t}/f{i}");
        let fd = fs.open(&f, rw_create()).unwrap();
        fs.write(fd, 0, &vec![(t * 16 + i) as u8; 600]).unwrap();
        fs.close(fd).unwrap();
        if i % 3 == 0 {
            fs.rename(&f, &format!("/t{t}/r{i}")).unwrap();
        }
        if i % 4 == 0 {
            let cur = if i % 12 == 0 {
                format!("/t{t}/r{i}")
            } else {
                f.clone()
            };
            fs.unlink(&cur).unwrap();
        }
    }
}

/// Recursive `(path, size, content)` listing with name-sorted entries,
/// comparable across filesystem implementations.
fn tree_of(fs: &dyn FileSystem, dir: &str, out: &mut Vec<(String, u64, Vec<u8>)>) {
    let mut entries = fs.readdir(dir).unwrap();
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    for e in entries {
        let p = if dir == "/" {
            format!("/{}", e.name)
        } else {
            format!("{dir}/{}", e.name)
        };
        if e.ftype == rae_vfs::FileType::Directory {
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

/// Four mutator threads churn disjoint subtrees while a detected bug
/// fires mid-churn, forcing a recovery that replays the concurrent
/// OpLog. Directories are created (and barriered) in setup; churn uses
/// replay-safe ops only.
fn run_concurrent_churn(standby: crate::StandbyOpts) -> (Arc<MemDisk>, RaeFs) {
    const THREADS: u64 = 4;
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        900,
        "mid-churn-alloc",
        Site::Alloc,
        Trigger::NthMatch(40),
        Effect::DetectedError,
    ));
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        standby,
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev.clone() as Arc<dyn BlockDevice>, config).unwrap();
    for t in 0..THREADS {
        fs.mkdir(&format!("/t{t}")).unwrap();
    }
    fs.sync().unwrap(); // barrier: the mkdirs are durable and trimmed
    let fs = Arc::new(fs);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let fs = Arc::clone(&fs);
            std::thread::spawn(move || churn_ops(fs.as_ref(), t))
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let fs = Arc::try_unwrap(fs).expect("all threads joined");
    (dev, fs)
}

#[test]
fn concurrent_churn_replay_matches_model_for_cold_and_warm() {
    let (cold_dev, cold) = run_concurrent_churn(crate::StandbyOpts::default());
    let (warm_dev, warm) = run_concurrent_churn(crate::StandbyOpts { enabled: true });

    // the mid-churn recovery replayed a concurrently-built log; an
    // out-of-order log would fail the outcome cross-check (wrong fds,
    // spurious Exists/NotFound) or corrupt the tree below
    for fs in [&cold, &warm] {
        assert!(fs.stats().recoveries >= 1, "bug never fired");
        for r in fs.recovery_reports() {
            assert!(
                r.discrepancies.is_empty(),
                "replay outcome cross-check failed: {:?}",
                r.discrepancies
            );
        }
    }

    // the cold shadow read through the rung's snapshot view and its
    // replay started hot; the warm handover never built one
    for r in cold.recovery_reports() {
        assert_eq!(r.rung, LadderRung::Cold);
        assert!(r.shadow_device_reads > 0, "{r:?}");
        assert!(r.shadow_memo_hits > r.shadow_device_reads, "{r:?}");
    }
    for r in warm.recovery_reports() {
        assert_eq!(r.rung, LadderRung::Warm);
        assert_eq!((r.shadow_device_reads, r.shadow_memo_hits), (0, 0));
    }

    // oracle: identical programs applied sequentially to the model
    let model = rae_fsmodel::ModelFs::new();
    for t in 0..4 {
        model.mkdir(&format!("/t{t}")).unwrap();
    }
    for t in 0..4 {
        churn_ops(&model, t);
    }
    let mut want = Vec::new();
    tree_of(&model, "/", &mut want);
    for (name, fs) in [("cold", &cold), ("warm", &warm)] {
        let mut got = Vec::new();
        tree_of(fs, "/", &mut got);
        assert_eq!(got, want, "{name}: recovered tree diverges from oracle");
    }

    cold.unmount().unwrap();
    warm.unmount().unwrap();
    assert!(fsck(cold_dev.as_ref()).unwrap().is_clean());
    assert!(fsck(warm_dev.as_ref()).unwrap().is_clean());
}

// ----------------------------------------------------------------------
// Zero-read warm handover
// ----------------------------------------------------------------------

/// A warm-standby mount over the formatted `dev` with a bug armed on
/// every directory insertion (not removal) of a name containing "boom".
fn warm_boom_mount(dev: Arc<dyn BlockDevice>) -> RaeFs {
    warm_boom_mount_with(dev, rae_shadowfs::ShadowOpts::default())
}

fn warm_boom_mount_with(dev: Arc<dyn BlockDevice>, shadow: rae_shadowfs::ShadowOpts) -> RaeFs {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        160,
        "boom",
        Site::DirModify,
        Trigger::All(vec![
            Trigger::OpIs(rae_vfs::OpKind::Create),
            Trigger::PathContains("boom".into()),
        ]),
        Effect::DetectedError,
    ));
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        standby: crate::StandbyOpts { enabled: true },
        shadow,
        ..RaeConfig::default()
    };
    RaeFs::mount(dev, config).unwrap()
}

/// [`warm_boom_mount`] over a [`TapeDisk`].
fn warm_mount_on_tape() -> (Arc<TapeDisk>, rae_fsformat::Geometry, RaeFs) {
    let disk = Arc::new(TapeDisk::new(4096));
    let geo = mkfs(disk.as_ref(), MkfsParams::default()).unwrap();
    let fs = warm_boom_mount(Arc::clone(&disk) as Arc<dyn BlockDevice>);
    (disk, geo, fs)
}

/// Durable files, half of them then unlinked (blocks the base wrote
/// and the standby has free), and an unsynced tail.
fn warm_handover_program(fs: &dyn FileSystem) {
    fs.mkdir("/docs").unwrap();
    for i in 0..24u64 {
        let fd = fs.open(&format!("/docs/f{i:02}"), rw_create()).unwrap();
        fs.write(fd, 0, &vec![i as u8 + 1; 3 * BLOCK_SIZE]).unwrap();
        fs.close(fd).unwrap();
    }
    fs.sync().unwrap();
    for i in (0..24u64).step_by(2) {
        fs.unlink(&format!("/docs/f{i:02}")).unwrap();
    }
    for i in 0..8u64 {
        let fd = fs.open(&format!("/docs/t{i:02}"), rw_create()).unwrap();
        fs.write(fd, 0, &vec![0xA0 + i as u8; 700]).unwrap();
        fs.close(fd).unwrap();
    }
}

#[test]
fn warm_recovery_reads_nothing_from_the_live_device() {
    let (disk, geo, fs) = warm_mount_on_tape();
    warm_handover_program(&fs);
    wait_caught_up(&fs);

    let mark = disk.mark();
    fs.mkdir("/boom").unwrap(); // bug fires; masked by a warm recovery
    let tape = disk.since(mark);

    let reports = fs.recovery_reports();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.rung, LadderRung::Warm);
    assert!(r.discrepancies.is_empty(), "{:?}", r.discrepancies);
    // the resync had real work — the standby's overlay and everything
    // the base wrote at the sync, 36 blocks of it for files since
    // unlinked (the standby gave 8 of those to the unsynced tail) —
    // and decided all of it without the live device:
    // nothing crossed the write tracker between the contained reboot
    // and the hand-off
    assert!(r.resync_candidates > 36, "{r:?}");
    assert!(r.resync_pruned >= 36 - 8, "{r:?}");
    assert_eq!(r.shadow_device_reads, 0, "{r:?}");
    // seen from under the stack: every read of the whole recovery is
    // the contained reboot's (superblock, journal scan, allocator
    // bitmaps) — none from the inode table or the data region, where
    // the resync's candidates live — or the standby's frozen view
    // copying a block the reboot is about to write home: the tape's
    // next request on that block is its write, in the same flush epoch,
    // and no block is copied twice. The view excludes the journal, so
    // no journal read is a copy: the journal reset's write of the
    // header finds it read only by the reboot's scan, a barrier before.
    let journal = geo.journal_start..geo.journal_start + geo.journal_blocks;
    let reboot_reads = |b: u64| b < geo.inode_table_start;
    let mut copied = Vec::new();
    for (i, entry) in tape.iter().enumerate() {
        let TapeEntry::Read(b) = *entry else { continue };
        let next = tape[i + 1..].iter().find(|e| match e {
            TapeEntry::Read(x) | TapeEntry::Write(x, _) => *x == b,
            TapeEntry::Flush => true,
        });
        let is_copy = matches!(next, Some(TapeEntry::Write(x, _)) if *x == b);
        if journal.contains(&b) {
            assert!(!is_copy, "journal block {b} copied at {i}");
        }
        if reboot_reads(b) {
            continue;
        }
        assert!(
            is_copy,
            "live-device read of block {b} at {i} is no copy-before-write: next {:?}",
            next.map(|e| match e {
                TapeEntry::Read(x) => format!("read {x}"),
                TapeEntry::Write(x, _) => format!("write {x}"),
                TapeEntry::Flush => "flush".to_string(),
            })
        );
        copied.push(b);
    }
    assert!(tape.iter().any(|e| matches!(e, TapeEntry::Read(_))));
    let n = copied.len();
    copied.sort_unstable();
    copied.dedup();
    assert_eq!(copied.len(), n, "a block copied twice: {copied:?}");

    let model = rae_fsmodel::ModelFs::new();
    warm_handover_program(&model);
    model.mkdir("/boom").unwrap();
    let (mut want, mut got) = (Vec::new(), Vec::new());
    tree_of(&model, "/", &mut want);
    tree_of(&fs, "/", &mut got);
    assert_eq!(got, want);
    fs.unmount().unwrap();
    assert!(fsck(disk.as_ref()).unwrap().is_clean());
}

/// One round of steady-state churn: six new three-block files (one
/// renamed), with a scratch file that comes and goes and the files of
/// two rounds ago unlinked part-way through, then a sync and an
/// unsynced overwrite. The base allocates next-fit, so what it creates
/// after the unlinks lands past its hint — further out every round,
/// the scratch file grows — while the standby, lowest-free, reuses the
/// blocks just freed: the sync writes the base's placement to blocks
/// the standby has free, and that garbage is what a resync must not
/// carry from one recovery to the next.
fn churn_round(fs: &dyn FileSystem, k: u64) {
    let name = |round: u64, i: u64| format!("/c/r{round:02}_{i}");
    let create = |i: u64| {
        let fd = fs.open(&name(k, i), rw_create()).unwrap();
        fs.write(fd, 0, &vec![(k * 6 + i) as u8; 3 * BLOCK_SIZE])
            .unwrap();
        fs.close(fd).unwrap();
    };
    let before_unlinks = 1 + k % 5;
    (0..before_unlinks).for_each(create);
    let fd = fs.open("/c/scratch", rw_create()).unwrap();
    fs.write(fd, 0, &vec![0x5C; (k as usize + 1) * BLOCK_SIZE])
        .unwrap();
    fs.close(fd).unwrap();
    fs.unlink("/c/scratch").unwrap();
    if k >= 2 {
        for i in 0..5u64 {
            fs.unlink(&name(k - 2, i)).unwrap();
        }
        fs.unlink(&format!("/c/moved{:02}", k - 2)).unwrap();
    }
    (before_unlinks..6).for_each(create);
    fs.rename(&name(k, 5), &format!("/c/moved{k:02}")).unwrap();
    fs.sync().unwrap();
    let fd = fs.open(&name(k, 0), OpenFlags::RDWR).unwrap();
    fs.write(fd, 100, &vec![0xEE; 900]).unwrap();
    fs.close(fd).unwrap();
}

#[test]
fn warm_recoveries_under_churn_do_not_ratchet() {
    const ROUNDS: u64 = 50;
    let (disk, geo, fs) = warm_mount_on_tape();
    let model = rae_fsmodel::ModelFs::new();
    fs.mkdir("/c").unwrap();
    model.mkdir("/c").unwrap();

    let mut handed_over = Vec::new();
    let mut written_at_fault = Vec::new();
    let mut last_fault = disk.mark();
    for k in 0..ROUNDS {
        churn_round(&fs, k);
        churn_round(&model, k);
        wait_caught_up(&fs);

        // what the write tracker holds now: the blocks written since
        // the last recovery drained it (give or take that recovery's
        // own reboot) — less the scratch file's, which grows by design
        // (the base flushes an unlinked file's dirty pages all the same)
        let mut written = disk.writes_since(last_fault);
        written.sort_unstable();
        written.dedup();
        written_at_fault.push(written.len() - (k as usize + 1));
        let mark = disk.mark();
        last_fault = mark;
        fs.mkdir("/boom").unwrap(); // masked by a warm recovery
        model.mkdir("/boom").unwrap();

        let reports = fs.recovery_reports();
        assert_eq!(reports.len() as u64, k + 1);
        let r = &reports[k as usize];
        assert_eq!(r.rung, LadderRung::Warm, "round {k}: {r:?}");
        assert!(
            r.discrepancies.is_empty(),
            "round {k}: {:?}",
            r.discrepancies
        );
        assert_eq!(r.shadow_device_reads, 0, "round {k}");
        handed_over.push(r.delta_meta_blocks + r.delta_data_blocks);

        let (mut want, mut got) = (Vec::new(), Vec::new());
        tree_of(&model, "/", &mut want);
        tree_of(&fs, "/", &mut got);
        assert_eq!(got, want, "round {k}");

        // make the absorbed delta durable at its home blocks: the image
        // must check clean, and every data-region block written since
        // the fault — the delta, nothing else is dirty — must be in use
        fs.base().checkpoint().unwrap();
        let report = fsck(disk.as_ref()).unwrap();
        assert!(report.is_clean(), "round {k}: {:?}", report.errors);
        let dbm = rae_fsformat::bitmap::Bitmap::load(
            disk.as_ref(),
            geo.data_bitmap_start,
            geo.data_bitmap_blocks,
            geo.data_blocks,
        )
        .unwrap();
        for b in disk.writes_since(mark) {
            if geo.is_data_block(b) {
                assert!(
                    dbm.test(b - geo.data_start).unwrap(),
                    "round {k}: free data block {b} came through the delta"
                );
            }
        }

        fs.rmdir("/boom").unwrap();
        model.rmdir("/boom").unwrap();
    }

    // the live set is steady from round 2 on, so the overlay the
    // standby hands over and the write set the base accumulates between
    // faults must be too: the late rounds may not exceed the early ones
    let half = (ROUNDS / 2) as usize;
    for series in [&handed_over, &written_at_fault] {
        let early = *series[3..half].iter().max().unwrap();
        let late = *series[half..].iter().max().unwrap();
        assert!(late <= early, "ratchet: {series:?}");
    }
    fs.unmount().unwrap();
    assert!(fsck(disk.as_ref()).unwrap().is_clean());
}

// ----------------------------------------------------------------------
// Handover drain overlapping the reboot
// ----------------------------------------------------------------------

/// Runs a one-shot action at the first read it serves once a recovery
/// has started. The warm rung asks for the handover before the
/// contained reboot reads anything, so the action runs inside the
/// reboot, after the drain was requested. It can also answer the first
/// read of one block made on one thread with doctored bytes.
struct ActOnRebootRead {
    inner: MemDisk,
    recovering: std::sync::atomic::AtomicBool,
    action: std::sync::Mutex<Option<Box<dyn FnOnce() + Send>>>,
    doctored: std::sync::Mutex<Option<(std::thread::ThreadId, u64, Vec<u8>)>>,
}

impl ActOnRebootRead {
    /// A freshly formatted device with no action armed.
    fn formatted() -> (Arc<ActOnRebootRead>, rae_fsformat::Geometry) {
        let dev = Arc::new(ActOnRebootRead {
            inner: MemDisk::new(4096),
            recovering: std::sync::atomic::AtomicBool::new(false),
            action: std::sync::Mutex::new(None),
            doctored: std::sync::Mutex::new(None),
        });
        let geo = mkfs(&dev.inner, MkfsParams::default()).unwrap();
        (dev, geo)
    }

    fn arm(&self, action: impl FnOnce() + Send + 'static) {
        *self.action.lock().unwrap() = Some(Box::new(action));
    }
}

impl BlockDevice for ActOnRebootRead {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
    fn read_block(&self, bno: u64, buf: &mut [u8]) -> rae_vfs::FsResult<()> {
        if self.recovering.load(std::sync::atomic::Ordering::SeqCst) {
            if let Some(act) = self.action.lock().unwrap().take() {
                act();
            }
        }
        let mut doctored = self.doctored.lock().unwrap();
        let here = std::thread::current().id();
        if let Some((_, _, bytes)) = doctored.take_if(|(t, b, _)| *t == here && *b == bno) {
            buf.copy_from_slice(&bytes);
            return Ok(());
        }
        drop(doctored);
        self.inner.read_block(bno, buf)
    }
    fn write_block(&self, bno: u64, buf: &[u8]) -> rae_vfs::FsResult<()> {
        self.inner.write_block(bno, buf)
    }
    fn flush(&self) -> rae_vfs::FsResult<()> {
        self.inner.flush()
    }
    fn set_phase(&self, phase: rae_blockdev::IoPhase) {
        self.recovering.store(
            phase == rae_blockdev::IoPhase::Recovery,
            std::sync::atomic::Ordering::SeqCst,
        );
    }
}

/// How a held standby backlog meets the warm rung.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Backlog {
    /// Released inside the reboot: drained while the reboot runs.
    ReleasedInReboot,
    /// Its apply thread dies inside the reboot: the wait fails.
    KilledInReboot,
    /// Its apply thread died before the fault: the handover is refused.
    KilledBeforeFault,
}

/// Hold the standby still, complete `HELD` mutations behind it, then
/// fault; return the recovery's report after checking the recovered
/// tree against the model and the unmounted image with `fsck`.
fn warm_rung_with_held_backlog(backlog: Backlog) -> crate::RecoveryReport {
    const HELD: u64 = 40;
    let (dev, _) = ActOnRebootRead::formatted();
    let fs = warm_boom_mount(Arc::clone(&dev) as Arc<dyn BlockDevice>);
    let model = rae_fsmodel::ModelFs::new();
    for f in [&fs as &dyn FileSystem, &model] {
        f.mkdir("/h").unwrap();
    }
    wait_caught_up(&fs);

    let release = fs.with_standby(rae_standby::WarmStandby::pause).unwrap();
    for i in 0..HELD {
        for f in [&fs as &dyn FileSystem, &model] {
            f.mkdir(&format!("/h/d{i:02}")).unwrap();
        }
    }
    assert_eq!(fs.stats().standby_lag, HELD, "the backlog is held");
    let act: Box<dyn FnOnce() + Send> = match backlog {
        Backlog::ReleasedInReboot => Box::new(move || release.send(()).unwrap()),
        Backlog::KilledInReboot => Box::new(move || drop(release)),
        Backlog::KilledBeforeFault => {
            // nothing is published after this, so the standby is still
            // installed, and unhealthy, when the fault arrives
            drop(release);
            while fs.stats().standby_active {
                std::thread::yield_now();
            }
            Box::new(|| {})
        }
    };
    dev.arm(act);

    fs.mkdir("/boom").unwrap(); // masked by the recovery
    model.mkdir("/boom").unwrap();
    let reports = fs.recovery_reports();
    assert_eq!(reports.len(), 1);
    let (mut want, mut got) = (Vec::new(), Vec::new());
    tree_of(&model, "/", &mut want);
    tree_of(&fs, "/", &mut got);
    assert_eq!(got, want, "{backlog:?}");
    fs.unmount().unwrap();
    assert!(fsck(&dev.inner).unwrap().is_clean(), "{backlog:?}");
    reports.into_iter().next().unwrap()
}

#[test]
fn warm_handover_drains_a_held_backlog_under_the_reboot() {
    let r = warm_rung_with_held_backlog(Backlog::ReleasedInReboot);
    assert_eq!(r.rung, LadderRung::Warm, "{r:?}");
    assert!(r.failed_rungs.is_empty(), "{r:?}");
    assert!(r.discrepancies.is_empty(), "{:?}", r.discrepancies);
    assert!(r.records_replayed >= 40, "the whole backlog drained: {r:?}");
}

#[test]
fn warm_handover_refused_or_failed_lands_on_cold() {
    let failed = warm_rung_with_held_backlog(Backlog::KilledInReboot);
    assert_eq!(failed.rung, LadderRung::Cold, "{failed:?}");
    let tried: Vec<LadderRung> = failed.failed_rungs.iter().map(|f| f.rung).collect();
    assert_eq!(tried, [LadderRung::Warm], "a failed wait is a failed rung");

    let refused = warm_rung_with_held_backlog(Backlog::KilledBeforeFault);
    assert_eq!(refused.rung, LadderRung::Cold, "{refused:?}");
}

/// A publish that finds the standby's channel full is counted in
/// `standby_publish_waits`, and the count survives the handover that
/// retires that standby and the re-arm that replaces it.
#[test]
fn warm_publish_waits_survive_the_respawn() {
    const CAPACITY: usize = rae_standby::CHANNEL_CAPACITY;
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let fs = warm_boom_mount(Arc::clone(&dev) as Arc<dyn BlockDevice>);
    fs.mkdir("/h").unwrap();
    wait_caught_up(&fs);
    assert_eq!(fs.stats().standby_publish_waits, 0);

    let release = fs.with_standby(rae_standby::WarmStandby::pause).unwrap();
    std::thread::scope(|s| {
        // the last mkdir's publish finds the channel full and waits,
        // holding the standby lock, so `stats` cannot be asked until
        // after the release; the lag event it records once the wait is
        // counted says when to release
        let held = s.spawn(|| {
            for i in 0..=CAPACITY {
                fs.mkdir(&format!("/h/d{i}")).unwrap();
            }
        });
        let telemetry = fs.telemetry();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !telemetry
            .timeline()
            .0
            .iter()
            .any(|e| e.kind == rae_telemetry::EventKind::StandbyLag && e.a > CAPACITY as u64)
        {
            assert!(std::time::Instant::now() < deadline, "publish never waited");
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        held.join().unwrap();
    });
    wait_caught_up(&fs);
    assert_eq!(fs.stats().standby_publish_waits, 1);

    fs.mkdir("/boom").unwrap(); // masked by a warm recovery
    let stats = fs.stats();
    assert_eq!((stats.ladder_warm, stats.ladder_cold), (1, 0));
    assert!(stats.standby_active, "re-armed");
    assert_eq!(stats.standby_publish_waits, 1, "carried across the respawn");
    assert_eq!(
        fs.standby_status().publish_waits,
        0,
        "the new standby's own"
    );
    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}

// ----------------------------------------------------------------------
// The standby's frozen view: copy-before-write, not a device copy
// ----------------------------------------------------------------------

/// One step of round `round`, in the seeded directory `/w{round}`:
/// open, a partial two-block overwrite and close of a seed file, and a
/// `mkdir` — one record each.
fn overwrite_step(f: &dyn FileSystem, round: u64, k: u64, fd: &mut Option<Fd>) {
    let file = format!("/w{round}/f{}", (k / 4) % 8);
    match k % 4 {
        0 => *fd = Some(f.open(&file, OpenFlags::RDWR).unwrap()),
        1 => {
            let offset = ((k / 4) % 3) * BLOCK_SIZE as u64 + 100;
            f.write(fd.unwrap(), offset, &[k as u8; 5000]).unwrap();
        }
        2 => f.close(fd.take().unwrap()).unwrap(),
        _ => f.mkdir(&format!("/w{round}/d{k}")).unwrap(),
    }
}

/// The base runs a full channel of records ahead of a held standby,
/// then syncs and checkpoints, so the device holds blocks from the
/// standby's future before it reads them. Its frozen view answers their
/// contents at the epoch, and every handover yields the model's tree.
/// A standby that validates its image at load has read the metadata by
/// then, so the blocks it first reads late are file data; one that
/// does not reads each round's directory blocks late, and a standby
/// that saw the future there would find the round's directories
/// already made.
#[test]
fn warm_handover_a_full_channel_behind_reads_the_epoch() {
    for validate_image in [false, true] {
        warm_full_channel_behind(rae_shadowfs::ShadowOpts {
            validate_image,
            ..rae_shadowfs::ShadowOpts::default()
        });
    }
}

fn warm_full_channel_behind(shadow: rae_shadowfs::ShadowOpts) {
    const CAPACITY: u64 = rae_standby::CHANNEL_CAPACITY as u64;
    const ROUNDS: u64 = 3;
    let dev = Arc::new(MemDisk::new(4096));
    mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let model = rae_fsmodel::ModelFs::new();
    // seeded by an earlier mount: the standby reads it through its
    // view, not out of its own overlay; one directory per round, so
    // every round's blocks are new to the view
    let seed = RaeFs::mount(
        Arc::clone(&dev) as Arc<dyn BlockDevice>,
        RaeConfig::default(),
    )
    .unwrap();
    for f in [&seed as &dyn FileSystem, &model] {
        for round in 0..ROUNDS {
            f.mkdir(&format!("/w{round}")).unwrap();
            for i in 0..8u8 {
                let fd = f.open(&format!("/w{round}/f{i}"), rw_create()).unwrap();
                f.write(fd, 0, &vec![i + 1; 3 * BLOCK_SIZE]).unwrap();
                f.close(fd).unwrap();
            }
        }
    }
    seed.unmount().unwrap();

    let fs = warm_boom_mount_with(Arc::clone(&dev) as Arc<dyn BlockDevice>, shadow);
    for round in 0..ROUNDS {
        wait_caught_up(&fs);
        let captures = fs.stats().standby_snapshot_captures;
        let release = fs.with_standby(rae_standby::WarmStandby::pause).unwrap();
        let (mut fd, mut model_fd, mut k) = (None, None, 0);
        while fs.stats().standby_lag < CAPACITY - 1 {
            overwrite_step(&fs, round, k, &mut fd);
            overwrite_step(&model, round, k, &mut model_fd);
            k += 1;
        }
        fs.sync().unwrap();
        model.sync().unwrap();
        fs.base().checkpoint().unwrap();
        let stats = fs.stats();
        assert_eq!(stats.standby_lag, CAPACITY, "round {round}: a full channel");
        assert!(
            stats.standby_snapshot_captures > captures,
            "round {round}: the base overwrote blocks the view had not read"
        );
        release.send(()).unwrap();

        let boom = format!("/w{round}/boom");
        fs.close(fs.open(&boom, rw_create()).unwrap()).unwrap(); // a warm recovery
        model
            .close(model.open(&boom, rw_create()).unwrap())
            .unwrap();
        for (f, fd) in [(&fs as &dyn FileSystem, fd), (&model, model_fd)] {
            if let Some(fd) = fd {
                f.close(fd).unwrap();
            }
        }
        let r = fs.last_recovery_report().unwrap();
        assert_eq!(r.rung, LadderRung::Warm, "round {round}, {shadow:?}: {r:?}");
        assert!(
            r.discrepancies.is_empty(),
            "{shadow:?}: {:?}",
            r.discrepancies
        );
        let (mut want, mut got) = (Vec::new(), Vec::new());
        tree_of(&model, "/", &mut want);
        tree_of(&fs, "/", &mut got);
        assert_eq!(got, want, "round {round}, {shadow:?}");
    }
    assert_eq!(fs.stats().ladder_warm, ROUNDS);
    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}

/// On a fresh image every data block is free at the standby's epoch,
/// and the standby's validating load reads all the other metadata the
/// base writes: so however the base churns — journal commits, files
/// created, overwritten, renamed and unlinked, syncs and checkpoints —
/// no base write forces a copy into the frozen view, and what the view
/// holds stays what the load read, across warm recoveries that keep it.
#[test]
fn warm_standby_memory_stays_flat_across_warm_recoveries() {
    let (disk, geo, fs) = warm_mount_on_tape();
    let model = rae_fsmodel::ModelFs::new();
    wait_caught_up(&fs);
    let held = fs.stats().standby_snapshot_blocks;
    assert!(held > 0 && held < geo.data_start, "{held}");
    fs.mkdir("/c").unwrap();
    model.mkdir("/c").unwrap();
    for round in 0..3u64 {
        for k in 2 * round..2 * round + 2 {
            churn_round(&fs, k);
            churn_round(&model, k);
        }
        fs.base().checkpoint().unwrap();
        wait_caught_up(&fs);
        let boom = format!("/boom{round}");
        fs.mkdir(&boom).unwrap(); // masked by a warm recovery
        model.mkdir(&boom).unwrap();
        let r = fs.last_recovery_report().unwrap();
        assert_eq!(r.rung, LadderRung::Warm, "round {round}: {r:?}");
        let stats = fs.stats();
        assert_eq!(
            (
                stats.standby_snapshot_blocks,
                stats.standby_snapshot_captures
            ),
            (held, 0),
            "round {round}: the view copied a journal block or one free at its epoch"
        );
        let (mut want, mut got) = (Vec::new(), Vec::new());
        tree_of(&model, "/", &mut want);
        tree_of(&fs, "/", &mut got);
        assert_eq!(got, want, "round {round}");
    }
    assert_eq!(fs.stats().ladder_warm, 3);
    fs.unmount().unwrap();
    assert!(fsck(disk.as_ref()).unwrap().is_clean());
}

/// A cold recovery with the standby on re-arms it over a new frozen
/// view: it reads the metadata it loads, not the device.
#[test]
fn warm_standby_re_armed_by_a_cold_recovery_reads_metadata_not_the_device() {
    let tele = Telemetry::new();
    let dev = Arc::new(MemDisk::new(4096));
    let geo = mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
    let fs = RaeFs::mount(
        Arc::clone(&dev) as Arc<dyn BlockDevice>,
        RaeConfig {
            base: BaseFsConfig {
                faults: boom_faults(),
                ..BaseFsConfig::default()
            },
            standby: warm_opts(),
            telemetry: Some(Arc::clone(&tele)),
            ..RaeConfig::default()
        },
    )
    .unwrap();
    fs.mkdir("/d").unwrap();
    for i in 0..16u8 {
        let fd = fs.open(&format!("/d/f{i}"), rw_create()).unwrap();
        fs.write(fd, 0, &vec![i; 2 * BLOCK_SIZE]).unwrap();
        fs.close(fd).unwrap();
    }
    // the standby dies, so the next recovery is cold
    drop(fs.with_standby(rae_standby::WarmStandby::pause).unwrap());
    while fs.stats().standby_active {
        std::thread::yield_now();
    }
    let before = tele.dev_blocks(DevOp::Read);
    fs.mkdir("/d/boom").unwrap();
    let read = tele.dev_blocks(DevOp::Read) - before;
    let r = fs.last_recovery_report().unwrap();
    assert_eq!(r.rung, LadderRung::Cold, "{r:?}");
    let stats = fs.stats();
    assert!(stats.standby_active, "re-armed");
    // the reboot, the cold rung's pass and the new view's load read
    // the journal, bitmaps and inode table they need and the blocks of
    // `/` and `/d`: fewer than the metadata region holds, where a copy
    // of the device would read all 4096 blocks
    assert!(read < geo.data_start, "{read} blocks read for {r:?}");
    assert!(stats.standby_snapshot_blocks < geo.data_start, "{stats:?}");
    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}

/// A copy-before-write read that fails loses the block in the view, not
/// the base's write: the standby degrades, the next recovery is cold
/// and correct, and the one after it warm again. The lost blocks are
/// data blocks of files that exist at the view's epoch, which the view
/// keeps (a block free at the epoch it would not copy at all).
#[test]
fn warm_a_lost_snapshot_block_degrades_the_standby_and_recovers_cold() {
    let disk = Arc::new(FaultyDisk::new(MemDisk::new(4096)));
    let geo = mkfs(disk.as_ref(), MkfsParams::default()).unwrap();
    let model = rae_fsmodel::ModelFs::new();
    let seed = RaeFs::mount(
        Arc::clone(&disk) as Arc<dyn BlockDevice>,
        RaeConfig::default(),
    )
    .unwrap();
    for f in [&seed as &dyn FileSystem, &model] {
        f.mkdir("/d").unwrap();
        for i in 0..4u8 {
            let fd = f.open(&format!("/d/f{i}"), rw_create()).unwrap();
            f.write(fd, 0, &vec![i + 1; 3 * BLOCK_SIZE]).unwrap();
            f.close(fd).unwrap();
        }
    }
    seed.unmount().unwrap();

    let fs = warm_boom_mount(Arc::clone(&disk) as Arc<dyn BlockDevice>);
    let open_all = |f: &dyn FileSystem| -> Vec<Fd> {
        (0..4u8)
            .map(|i| {
                let fd = f.open(&format!("/d/f{i}"), OpenFlags::RDWR).unwrap();
                assert_eq!(f.read(fd, 0, 3 * BLOCK_SIZE).unwrap().len(), 3 * BLOCK_SIZE);
                fd
            })
            .collect()
    };
    let (fds, model_fds) = (open_all(&fs), open_all(&model));
    wait_caught_up(&fs);
    // the base overwrites the files in place, in whole blocks (so
    // neither side reads them), while no data-region block can be read:
    // the view holds none of them, so their copies fail
    disk.set_plan(DiskFaultPlan::new().fail_reads(
        FaultTarget::Range {
            start: geo.data_start,
            end: geo.total_blocks,
        },
        TriggerMode::Always,
    ));
    for (f, fds) in [(&fs as &dyn FileSystem, &fds), (&model, &model_fds)] {
        for (i, &fd) in (0u8..).zip(fds) {
            f.write(fd, 0, &vec![0xF0 + i; 3 * BLOCK_SIZE]).unwrap();
        }
        f.sync().expect("the base's writes succeed");
    }
    disk.clear_plan();
    assert!(
        !fs.stats().standby_active,
        "a lost block degrades the standby"
    );
    for (f, fds) in [(&fs as &dyn FileSystem, &fds), (&model, &model_fds)] {
        for &fd in fds {
            f.close(fd).unwrap();
        }
        f.mkdir("/d/after").unwrap();
    }
    assert!(fs.stats().standby_degraded);

    for (round, rung) in [(0, LadderRung::Cold), (1, LadderRung::Warm)] {
        wait_caught_up(&fs);
        let boom = format!("/d/boom{round}");
        fs.close(fs.open(&boom, rw_create()).unwrap()).unwrap();
        model
            .close(model.open(&boom, rw_create()).unwrap())
            .unwrap();
        let r = fs.last_recovery_report().unwrap();
        assert_eq!(r.rung, rung, "{r:?}");
        assert!(r.failed_rungs.is_empty(), "{r:?}");
        let (mut want, mut got) = (Vec::new(), Vec::new());
        tree_of(&model, "/", &mut want);
        tree_of(&fs, "/", &mut got);
        assert_eq!(got, want, "round {round}");
        assert!(fs.stats().standby_active, "round {round}: re-armed");
    }
    fs.unmount().unwrap();
    assert!(fsck(disk.as_ref()).unwrap().is_clean());
}

// ----------------------------------------------------------------------
// Readers served through a warm recovery
// ----------------------------------------------------------------------

/// An action that says it has started, then holds its thread until the
/// returned sender sends (or is dropped).
fn hold() -> (
    impl FnOnce() + Send + 'static,
    std::sync::mpsc::Receiver<()>,
    std::sync::mpsc::Sender<()>,
) {
    let (held_tx, held) = std::sync::mpsc::channel();
    let (release, release_rx) = std::sync::mpsc::channel::<()>();
    let action = move || {
        held_tx.send(()).unwrap();
        let _ = release_rx.recv();
    };
    (action, held, release)
}

/// A reply a reader thread must get within this long, or not at all.
const PROMPT: std::time::Duration = std::time::Duration::from_secs(10);
/// How long a reader that must be held is watched for a reply.
const HELD: std::time::Duration = std::time::Duration::from_millis(200);

/// A directory with a file (kept open for reading) and a
/// subdirectory. Returns the open descriptor.
fn serve_program(fs: &dyn FileSystem) -> Fd {
    fs.mkdir("/s").unwrap();
    let fd = fs.open("/s/f", rw_create()).unwrap();
    fs.write(fd, 0, b"written before the fault").unwrap();
    fs.mkdir("/s/d").unwrap();
    fd
}

/// A mount over `dev` whose base fails every creation of a name
/// containing "boom" at its allocation, before the operation reaches
/// its sequencing point: the create is in flight, not in the log.
fn serve_mount(dev: &Arc<ActOnRebootRead>, config: RaeConfig) -> RaeFs {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        170,
        "alloc-boom",
        Site::Alloc,
        Trigger::PathContains("boom".into()),
        Effect::DetectedError,
    ));
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        ..config
    };
    RaeFs::mount(Arc::clone(dev) as Arc<dyn BlockDevice>, config).unwrap()
}

fn warm_config() -> RaeConfig {
    RaeConfig {
        standby: warm_opts(),
        ..RaeConfig::default()
    }
}

/// What one reader sees: a stat, a read, a readdir, and a stat of the
/// path the faulting operation creates.
#[derive(Debug, PartialEq)]
struct Seen {
    size: rae_vfs::FsResult<u64>,
    data: rae_vfs::FsResult<Vec<u8>>,
    names: rae_vfs::FsResult<Vec<String>>,
    boom: rae_vfs::FsResult<u64>,
}

fn observe(fs: &dyn FileSystem, fd: Fd) -> Seen {
    Seen {
        size: fs.stat("/s/f").map(|st| st.size),
        data: fs.read(fd, 0, 64),
        names: fs.readdir("/s").map(|es| {
            let mut names: Vec<String> = es.into_iter().map(|e| e.name).collect();
            names.sort();
            names
        }),
        boom: fs.stat("/s/boom").map(|st| st.size),
    }
}

/// Where a reader meets a warm recovery of an in-flight `create`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arrival {
    /// While the standby's drain is still held back.
    BeforeDrain,
    /// Inside the contained reboot.
    InReboot,
    /// Between the resync and the metadata download.
    InAbsorb,
    /// After the faulting operation returned.
    AfterGate,
}

/// Run [`serve_program`] on a warm mount and on the model, fault a
/// `create` of `/s/boom`, and send one reader thread in at `arrival`.
/// Checks what it saw against the model at the last completed
/// operation, the recovered tree against the model, and the image with
/// `fsck`; returns the recovery's report and the stats after it.
fn warm_serve(arrival: Arrival) -> (crate::RecoveryReport, crate::RaeStats) {
    let (dev, _) = ActOnRebootRead::formatted();
    let fs = serve_mount(&dev, warm_config());
    let model = rae_fsmodel::ModelFs::new();
    let fd = serve_program(&fs);
    let model_fd = serve_program(&model);
    wait_caught_up(&fs);
    // before the drain: a backlog the standby has not applied yet
    let standby = (arrival == Arrival::BeforeDrain).then(|| {
        let release = fs.with_standby(rae_standby::WarmStandby::pause).unwrap();
        for f in [&fs as &dyn FileSystem, &model] {
            f.mkdir("/s/held").unwrap();
        }
        release
    });
    let before = observe(&model, model_fd);

    let (action, held, release) = hold();
    let (started_tx, started) = std::sync::mpsc::channel();
    // the recovery is held inside the reboot, or before the download
    let mut hook: Option<Box<dyn FnOnce() + Send>> = None;
    match arrival {
        Arrival::InReboot => dev.arm(action),
        Arrival::BeforeDrain => {
            dev.arm(move || started_tx.send(()).unwrap());
            hook = Some(Box::new(action));
        }
        Arrival::InAbsorb => hook = Some(Box::new(action)),
        Arrival::AfterGate => {}
    }
    let (seen, early) = std::thread::scope(|s| {
        let fs = &fs;
        let faulting = s.spawn(move || {
            crate::raefs::BEFORE_ABSORB.with(|h| *h.borrow_mut() = hook);
            fs.open("/s/boom", rw_create())
        });
        let (reply_tx, reply) = std::sync::mpsc::channel();
        let reader = || {
            s.spawn(move || reply_tx.send(observe(fs, fd)).unwrap());
        };
        let (seen, early) = match arrival {
            Arrival::BeforeDrain => {
                started.recv().unwrap();
                reader();
                let early = reply.recv_timeout(HELD).is_ok();
                standby.unwrap().send(()).unwrap();
                let seen = reply.recv_timeout(PROMPT);
                if held.recv_timeout(PROMPT).is_err() {
                    panic!("the recovery never reached the download");
                }
                (seen, early)
            }
            Arrival::InReboot | Arrival::InAbsorb => {
                held.recv().unwrap();
                reader();
                (reply.recv_timeout(PROMPT), false)
            }
            Arrival::AfterGate => {
                faulting.join().unwrap().unwrap();
                reader();
                return (reply.recv_timeout(PROMPT), false);
            }
        };
        release.send(()).unwrap();
        faulting.join().unwrap().unwrap();
        (seen, early)
    });
    model.open("/s/boom", rw_create()).unwrap();
    let seen = seen.unwrap_or_else(|_| panic!("{arrival:?}: the reader was never answered"));
    assert!(!early, "{arrival:?}: answered before the standby drained");
    if arrival == Arrival::AfterGate {
        assert_eq!(seen, observe(&model, model_fd), "{arrival:?}");
    } else {
        assert_eq!(seen.boom, Err(FsError::NotFound), "{arrival:?}");
        assert_eq!(seen, before, "{arrival:?}");
    }

    let (mut want, mut got) = (Vec::new(), Vec::new());
    tree_of(&model, "/", &mut want);
    tree_of(&fs, "/", &mut got);
    assert_eq!(got, want, "{arrival:?}");
    let report = fs.last_recovery_report().unwrap();
    let stats = fs.stats();
    assert_eq!(report.rung, LadderRung::Warm, "{arrival:?}: {report:?}");
    assert_eq!(stats.recoveries, 1, "{arrival:?}");
    // one flight-recorder event per recovery carries the count
    let counts: Vec<u64> = fs
        .telemetry()
        .timeline()
        .0
        .iter()
        .filter(|e| e.kind == rae_telemetry::EventKind::ReadsServedInRecovery)
        .map(|e| e.a)
        .collect();
    assert_eq!(counts, [report.reads_served], "{arrival:?}");
    assert_eq!(stats.reads_served_in_recovery, report.reads_served);
    fs.unmount().unwrap();
    assert!(fsck(&dev.inner).unwrap().is_clean(), "{arrival:?}");
    (report, stats)
}

#[test]
fn warm_serve_a_reader_arriving_before_the_drain_ends() {
    // it waits for the drain, then the fork answers all four reads,
    // the drained backlog included, before the faulting op returns
    let (report, _) = warm_serve(Arrival::BeforeDrain);
    assert_eq!(report.reads_served, 4, "{report:?}");
}

#[test]
fn warm_serve_a_reader_arriving_inside_the_reboot() {
    let (report, _) = warm_serve(Arrival::InReboot);
    assert_eq!(report.reads_served, 4, "{report:?}");
}

#[test]
fn warm_serve_a_reader_arriving_during_resync_and_absorb() {
    let (report, _) = warm_serve(Arrival::InAbsorb);
    assert_eq!(report.reads_served, 4, "{report:?}");
}

#[test]
fn warm_serve_a_reader_arriving_after_the_gate_drops() {
    let (report, stats) = warm_serve(Arrival::AfterGate);
    assert_eq!(report.reads_served, 0, "the base answered");
    assert_eq!(stats.reads_served_in_recovery, 0);
}

#[test]
fn warm_serve_a_fork_stat_of_the_in_flight_create_is_not_found() {
    // `warm_serve` checks that the reader's stat of `/s/boom` is
    // `NotFound`: the fork holds the completed records only. That
    // specified error is the fork's answer, so it counts as served.
    let (report, _) = warm_serve(Arrival::InAbsorb);
    assert!(report.had_in_flight, "{report:?}");
    assert_eq!(report.reads_served, 4, "{report:?}");
}

#[test]
fn warm_serve_none_on_the_cold_rung() {
    let (dev, _) = ActOnRebootRead::formatted();
    let fs = serve_mount(&dev, RaeConfig::default());
    let model = rae_fsmodel::ModelFs::new();
    let fd = serve_program(&fs);
    let model_fd = serve_program(&model);
    let (action, held, release) = hold();
    dev.arm(action);
    let (seen, early) = std::thread::scope(|s| {
        let fs = &fs;
        let faulting = s.spawn(|| fs.open("/s/boom", rw_create()));
        held.recv().unwrap();
        let (reply_tx, reply) = std::sync::mpsc::channel();
        s.spawn(move || reply_tx.send(observe(fs, fd)).unwrap());
        let early = reply.recv_timeout(HELD).is_ok();
        release.send(()).unwrap();
        faulting.join().unwrap().unwrap();
        (reply.recv_timeout(PROMPT), early)
    });
    // the reader waited out the recovery at the gate
    assert!(!early, "a cold recovery has no fork to answer from");
    model.open("/s/boom", rw_create()).unwrap();
    assert_eq!(seen.unwrap(), observe(&model, model_fd));
    let report = fs.last_recovery_report().unwrap();
    assert_eq!(report.rung, LadderRung::Cold, "{report:?}");
    assert_eq!(report.reads_served, 0);
    assert_eq!(fs.stats().reads_served_in_recovery, 0);
}

#[test]
fn warm_serve_a_failing_fork_sends_readers_to_the_gate() {
    // `/x` is written by an earlier mount, with its inode alone in its
    // inode-table block; the standby's frozen view reads that block
    // doctored (a flipped byte in the inode), the base never does: the
    // doctored read is the first of that block on the thread of a
    // reader that arrives while the gate is held, which only the view
    // serves
    let (dev, geo) = ActOnRebootRead::formatted();
    let x = {
        let fs = RaeFs::mount(
            Arc::clone(&dev) as Arc<dyn BlockDevice>,
            RaeConfig::default(),
        )
        .unwrap();
        for i in 0..2 * rae_fsformat::inode::INODES_PER_BLOCK {
            let fd = fs.open(&format!("/z{i}"), rw_create()).unwrap();
            fs.close(fd).unwrap();
        }
        let fd = fs.open("/x", rw_create()).unwrap();
        fs.write(fd, 0, b"durable").unwrap();
        fs.close(fd).unwrap();
        for i in 0..2 * rae_fsformat::inode::INODES_PER_BLOCK {
            fs.unlink(&format!("/z{i}")).unwrap();
        }
        let ino = fs.stat("/x").unwrap().ino;
        fs.unmount().unwrap();
        ino
    };
    let (bno, _) = geo.inode_location(x).unwrap();
    let rotten = MemDisk::clone_of(&dev.inner).unwrap();
    rae_fsformat::apply_corruption(&rotten, &rae_fsformat::Corruption::InodeBitrot { ino: x })
        .unwrap();
    let mut bytes = vec![0; BLOCK_SIZE];
    rotten.read_block(bno, &mut bytes).unwrap();

    let fs = serve_mount(
        &dev,
        RaeConfig {
            // the standby loads its snapshot without the structural
            // check that would refuse it
            shadow: rae_shadowfs::ShadowOpts {
                validate_image: false,
                ..rae_shadowfs::ShadowOpts::default()
            },
            ..warm_config()
        },
    );
    serve_program(&fs);
    wait_caught_up(&fs);
    // held before the download, so the drain is over and the fork is up
    let (action, held, release) = hold();
    let hook: Box<dyn FnOnce() + Send> = Box::new(action);
    let (during, after) = std::thread::scope(|s| {
        let fs = &fs;
        let faulting = s.spawn(move || {
            crate::raefs::BEFORE_ABSORB.with(|h| *h.borrow_mut() = Some(hook));
            fs.open("/s/boom", rw_create())
        });
        held.recv().unwrap();
        let (reply_tx, reply) = std::sync::mpsc::channel();
        // the fork answers the first stat, fails the second at runtime
        // and is withdrawn, so the third finds none either
        let mut during = Vec::new();
        for (path, wait) in [("/s/f", PROMPT), ("/x", HELD), ("/s/f", HELD)] {
            let reply_tx = reply_tx.clone();
            let doctor = (path == "/x").then(|| (bno, bytes.clone()));
            let dev = &dev;
            s.spawn(move || {
                if let Some((bno, bytes)) = doctor {
                    let here = std::thread::current().id();
                    *dev.doctored.lock().unwrap() = Some((here, bno, bytes));
                }
                reply_tx.send((path, fs.stat(path).map(|st| st.size)))
            });
            during.push(reply.recv_timeout(wait).ok());
        }
        release.send(()).unwrap();
        faulting.join().unwrap().unwrap();
        let mut after: Vec<_> = (0..during.iter().filter(|r| r.is_none()).count())
            .map(|_| reply.recv_timeout(PROMPT).unwrap())
            .collect();
        after.sort_by_key(|r| r.0);
        (during, after)
    });
    assert!(dev.doctored.lock().unwrap().is_none(), "the view took it");
    assert_eq!(during, [Some(("/s/f", Ok(24))), None, None]);
    // the last two waited at the gate for the recovered base
    assert_eq!(after, [("/s/f", Ok(24)), ("/x", Ok(7))]);
    let stats = fs.stats();
    assert_eq!((stats.recoveries, stats.ladder_warm), (1, 1), "{stats:?}");
    assert_eq!(stats.reads_served_in_recovery, 1);
    fs.unmount().unwrap();
    assert!(fsck(&dev.inner).unwrap().is_clean());
}

#[test]
fn stats_answer_while_a_recovery_holds_the_log() {
    let (dev, _) = ActOnRebootRead::formatted();
    let fs = serve_mount(&dev, warm_config());
    serve_program(&fs);
    let log_len = fs.stats().log_len;
    assert!(log_len > 0);
    let (action, held, release) = hold();
    dev.arm(action);
    let during = std::thread::scope(|s| {
        let fs = &fs;
        let faulting = s.spawn(|| fs.open("/s/boom", rw_create()));
        held.recv().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        s.spawn(move || tx.send(fs.stats()).unwrap());
        let during = rx.recv_timeout(PROMPT);
        release.send(()).unwrap();
        faulting.join().unwrap().unwrap();
        during
    });
    let during = during.expect("stats waited for the recovery");
    assert_eq!(during.recoveries, 0);
    assert_eq!(during.log_len, log_len);
    assert_eq!(fs.stats().recoveries, 1);
}
