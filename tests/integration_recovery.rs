//! End-to-end RAE recovery scenarios across the whole stack.

use rae::{RaeConfig, RaeFs, RecoveryMode};
use rae_basefs::BaseFsConfig;
use rae_blockdev::{BlockDevice, MemDisk};
use rae_faults::{BugSpec, Effect, FaultRegistry, Site, Trigger};
use rae_fsformat::{fsck, mkfs, MkfsParams};
use rae_shadowfs::ShadowOpts;
use rae_vfs::{FileSystem, FsError, OpenFlags};
use std::sync::Arc;

fn rw_create() -> OpenFlags {
    OpenFlags::RDWR | OpenFlags::CREATE
}

fn setup(faults: FaultRegistry) -> (Arc<MemDisk>, RaeFs) {
    rae_faults::quiet_injected_panics();
    let dev = Arc::new(MemDisk::new(8192));
    mkfs(
        dev.as_ref(),
        MkfsParams {
            total_blocks: 8192,
            inode_count: 2048,
            journal_blocks: 256,
        },
    )
    .unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev.clone() as Arc<dyn BlockDevice>, config).unwrap();
    (dev, fs)
}

#[test]
fn long_workload_with_repeated_recoveries_stays_consistent() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        1,
        "periodic-alloc-bug",
        Site::Alloc,
        Trigger::EveryNth(40),
        Effect::DetectedError,
    ));
    faults.arm(BugSpec::new(
        2,
        "periodic-write-panic",
        Site::Write,
        Trigger::EveryNth(75),
        Effect::Panic,
    ));
    let (dev, fs) = setup(faults);

    let mut expected_files = Vec::new();
    for i in 0..150 {
        let dir = format!("/dir{}", i % 7);
        if fs.stat(&dir) == Err(FsError::NotFound) {
            fs.mkdir(&dir).unwrap();
        }
        let path = format!("{dir}/file{i}");
        let fd = fs.open(&path, rw_create()).unwrap();
        fs.write(fd, 0, format!("content-{i}").as_bytes()).unwrap();
        fs.close(fd).unwrap();
        expected_files.push((path, format!("content-{i}")));
        if i % 31 == 30 {
            fs.sync().unwrap();
        }
    }
    assert!(fs.stats().recoveries >= 4, "{:?}", fs.stats());
    assert_eq!(fs.stats().recovery_failures, 0);

    // every file the application believes it wrote is intact
    for (path, content) in &expected_files {
        let fd = fs.open(path, OpenFlags::RDONLY).unwrap();
        let data = fs.read(fd, 0, content.len()).unwrap();
        assert_eq!(&String::from_utf8(data).unwrap(), content, "{path}");
        fs.close(fd).unwrap();
    }
    // every recovery cross-checked cleanly
    for report in fs.recovery_reports() {
        assert!(report.discrepancies.is_empty(), "{report:?}");
    }
    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}

#[test]
fn deep_tree_survives_recovery() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        3,
        "deep-lookup-bug",
        Site::PathLookup,
        Trigger::PathContains("d5/d6".into()),
        Effect::DetectedError,
    ));
    let (_dev, fs) = setup(faults);

    let mut path = String::new();
    for i in 0..10 {
        path.push_str(&format!("/d{i}"));
        fs.mkdir(&path).unwrap(); // deep paths trip the bug; masked
    }
    let file = format!("{path}/leaf");
    let fd = fs.open(&file, rw_create()).unwrap();
    fs.write(fd, 0, b"deep").unwrap();
    fs.close(fd).unwrap();
    assert_eq!(fs.stat(&file).unwrap().size, 4);
    assert!(fs.stats().recoveries >= 1);
}

#[test]
fn hard_links_and_symlinks_survive_recovery() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        4,
        "bug",
        Site::DirModify,
        Trigger::NthMatch(12),
        Effect::Panic,
    ));
    let (_dev, fs) = setup(faults);

    let fd = fs.open("/original", rw_create()).unwrap();
    fs.write(fd, 0, b"linked-data").unwrap();
    fs.close(fd).unwrap();
    fs.link("/original", "/hardlink").unwrap();
    fs.symlink("/original", "/symlink").unwrap();
    // churn until the bug fires
    for i in 0..20 {
        let fd = fs.open(&format!("/churn{i}"), rw_create()).unwrap();
        fs.close(fd).unwrap();
    }
    assert!(fs.stats().recoveries >= 1);

    assert_eq!(fs.stat("/original").unwrap().nlink, 2);
    assert_eq!(
        fs.stat("/original").unwrap().ino,
        fs.stat("/hardlink").unwrap().ino
    );
    assert_eq!(fs.readlink("/symlink").unwrap(), "/original");
    let fd = fs.open("/hardlink", OpenFlags::RDONLY).unwrap();
    assert_eq!(fs.read(fd, 0, 11).unwrap(), b"linked-data");
    fs.close(fd).unwrap();
}

#[test]
fn recovery_latency_is_bounded_for_small_logs() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        5,
        "bug",
        Site::Alloc,
        Trigger::NthMatch(5),
        Effect::DetectedError,
    ));
    let (_dev, fs) = setup(faults);
    for i in 0..6 {
        fs.mkdir(&format!("/d{i}")).unwrap();
    }
    let reports = fs.recovery_reports();
    assert_eq!(reports.len(), 1);
    assert!(
        reports[0].duration.as_millis() < 5_000,
        "recovery took {:?}",
        reports[0].duration
    );
    assert!(reports[0].shadow_checks > 0);
}

#[test]
fn append_mode_descriptor_survives_recovery() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        6,
        "bug",
        Site::Alloc,
        Trigger::NthMatch(3),
        Effect::DetectedError,
    ));
    let (_dev, fs) = setup(faults);
    let log = fs
        .open("/app.log", rw_create() | OpenFlags::APPEND)
        .unwrap();
    fs.write(log, 0, b"line1\n").unwrap();
    fs.mkdir("/d1").unwrap(); // alloc 2
    fs.mkdir("/d2").unwrap(); // alloc 3: bug -> recovery
                              // append mode must survive the descriptor reconstruction
    fs.write(log, 0, b"line2\n").unwrap();
    assert_eq!(fs.read(log, 0, 12).unwrap(), b"line1\nline2\n");
    fs.close(log).unwrap();
}

#[test]
fn recovery_after_barrier_uses_restored_descriptors() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        7,
        "bug",
        Site::Truncate,
        Trigger::NthMatch(1),
        Effect::Panic,
    ));
    let (_dev, fs) = setup(faults);

    let fd = fs.open("/kept-open", rw_create()).unwrap();
    fs.write(fd, 0, b"0123456789").unwrap();
    fs.sync().unwrap(); // barrier: open record becomes RestoreFd

    // rename the file while the descriptor stays open — the retained
    // record must restore by inode, not by the stale path
    fs.rename("/kept-open", "/renamed").unwrap();
    // truncate trips the planted panic -> recovery with RestoreFd replay
    fs.truncate(fd, 4).unwrap();

    assert_eq!(fs.stats().recoveries, 1);
    assert_eq!(fs.fstat(fd).unwrap().size, 4);
    assert_eq!(fs.read(fd, 0, 10).unwrap(), b"0123");
    assert_eq!(fs.stat("/renamed").unwrap().size, 4);
    for report in fs.recovery_reports() {
        assert!(report.discrepancies.is_empty(), "{report:?}");
    }
}

#[test]
fn crash_remount_vs_rae_availability_difference() {
    // identical workload + bug under both policies
    let run = |mode: RecoveryMode| -> (u64, u64) {
        let faults = FaultRegistry::new();
        faults.arm(BugSpec::new(
            8,
            "bug",
            Site::Alloc,
            Trigger::NthMatch(10),
            Effect::DetectedError,
        ));
        rae_faults::quiet_injected_panics();
        let dev = Arc::new(MemDisk::new(8192));
        mkfs(
            dev.as_ref(),
            MkfsParams {
                total_blocks: 8192,
                inode_count: 2048,
                journal_blocks: 256,
            },
        )
        .unwrap();
        let config = RaeConfig {
            base: BaseFsConfig {
                faults,
                ..BaseFsConfig::default()
            },
            mode,
            ..RaeConfig::default()
        };
        let fs = RaeFs::mount(dev as Arc<dyn BlockDevice>, config).unwrap();
        let mut ok = 0u64;
        let mut failed = 0u64;
        for i in 0..20 {
            match fs.mkdir(&format!("/d{i}")) {
                Ok(()) => ok += 1,
                Err(_) => failed += 1,
            }
        }
        (ok, failed)
    };

    let (rae_ok, rae_failed) = run(RecoveryMode::Rae);
    let (cr_ok, cr_failed) = run(RecoveryMode::CrashRemount);
    assert_eq!((rae_ok, rae_failed), (20, 0), "RAE masks the bug");
    assert_eq!(cr_failed, 1, "crash-remount surfaces one failure");
    assert!(cr_ok < 20);
}

#[test]
fn shadow_refinement_mode_recovery_is_clean() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        9,
        "bug",
        Site::Rename,
        Trigger::NthMatch(1),
        Effect::DetectedError,
    ));
    rae_faults::quiet_injected_panics();
    let dev = Arc::new(MemDisk::new(8192));
    mkfs(
        dev.as_ref(),
        MkfsParams {
            total_blocks: 8192,
            inode_count: 2048,
            journal_blocks: 256,
        },
    )
    .unwrap();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        shadow: ShadowOpts {
            refinement_check: true,
            ..ShadowOpts::default()
        },
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev as Arc<dyn BlockDevice>, config).unwrap();
    let fd = fs.open("/a", rw_create()).unwrap();
    fs.write(fd, 0, b"x").unwrap();
    fs.close(fd).unwrap();
    fs.rename("/a", "/b").unwrap(); // bug -> recovery with model check
    assert_eq!(fs.stats().recoveries, 1);
    assert!(fs.recovery_reports()[0].discrepancies.is_empty());
    assert!(fs.stat("/b").is_ok());
}

#[test]
fn concurrent_clients_with_recurring_bugs_heavy() {
    // six threads of mixed work, transient + deterministic bugs firing
    // throughout; the filesystem must never deadlock, never leak a
    // runtime error, and end consistent
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        20,
        "recurring-alloc",
        Site::Alloc,
        Trigger::EveryNth(90),
        Effect::DetectedError,
    ));
    faults.arm(BugSpec::new(
        21,
        "recurring-lookup-panic",
        Site::PathLookup,
        Trigger::EveryNth(301),
        Effect::Panic,
    ));
    let (dev, fs) = setup(faults);
    let fs = Arc::new(fs);
    for t in 0..6 {
        fs.mkdir(&format!("/w{t}")).unwrap();
    }
    let mut handles = Vec::new();
    for t in 0..6u64 {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            for i in 0..80 {
                let path = format!("/w{t}/f{i}");
                let fd = fs.open(&path, rw_create()).unwrap();
                fs.write(fd, 0, &vec![(t + i) as u8; 700]).unwrap();
                let back = fs.read(fd, 0, 700).unwrap();
                assert!(back.iter().all(|&b| b == (t + i) as u8), "{path} corrupted");
                fs.close(fd).unwrap();
                if i % 9 == 0 {
                    let _ = fs.readdir(&format!("/w{t}")).unwrap();
                }
                if i % 21 == 20 {
                    fs.unlink(&path).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let fs = Arc::into_inner(fs).unwrap();
    assert!(fs.stats().recoveries >= 1, "{:?}", fs.stats());
    assert_eq!(fs.stats().recovery_failures, 0);
    fs.unmount().unwrap();
    let report = fsck(dev.as_ref()).unwrap();
    assert!(report.is_clean(), "{report}");
}
