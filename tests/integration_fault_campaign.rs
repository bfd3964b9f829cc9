//! Full fault-injection campaign: the whole standard bug corpus armed
//! against a RAE filesystem under sustained load.

use rae::{RaeConfig, RaeFs};
use rae_basefs::BaseFsConfig;
use rae_blockdev::{BlockDevice, MemDisk};
use rae_faults::{standard_bug_corpus, BugSpec, Effect, FaultRegistry, Site, Trigger};
use rae_fsformat::{fsck, mkfs, MkfsParams};
use rae_shadowfs::ShadowOpts;
use rae_vfs::FileSystem;
use rae_workloads::{generate_script, run_script, Profile, StepResult};
use std::sync::Arc;

fn campaign_fs(faults: FaultRegistry) -> (Arc<MemDisk>, RaeFs) {
    rae_faults::quiet_injected_panics();
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
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        shadow: ShadowOpts {
            validate_image: false, // campaign speed; checks stay on
            ..ShadowOpts::default()
        },
        ..RaeConfig::default()
    };
    let fs = RaeFs::mount(dev.clone() as Arc<dyn BlockDevice>, config).unwrap();
    (dev, fs)
}

/// Runtime-error errnos that must never reach the application under
/// RAE: EIO (5), EBADF from lost descriptors (9), EUCLEAN (117).
fn runtime_errnos(steps: &[StepResult]) -> usize {
    steps
        .iter()
        .filter(|s| matches!(s, StepResult::Errno(5 | 117)))
        .count()
}

#[test]
fn full_corpus_campaign_masks_every_detected_bug() {
    let faults = FaultRegistry::with_seed(99);
    for bug in standard_bug_corpus() {
        if bug.site == Site::MountImage {
            continue; // mount must succeed to run the campaign
        }
        faults.arm(bug);
    }
    let (dev, fs) = campaign_fs(faults.clone());
    let script = generate_script(Profile::FileServer, 31337, 2500);
    let outcome = run_script(&fs, &script);

    assert_eq!(
        runtime_errnos(&outcome.steps),
        0,
        "runtime errors leaked to the application"
    );
    assert!(
        faults.total_fired() > 0,
        "campaign never triggered any bug — not a meaningful test"
    );
    assert!(fs.stats().recoveries > 0);
    assert_eq!(fs.stats().recovery_failures, 0);

    // the filesystem remains fully consistent afterwards
    fs.unmount().unwrap();
    let report = fsck(dev.as_ref()).unwrap();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn per_bug_isolation_campaign() {
    // each deterministic corpus bug armed alone, with a targeted
    // trigger workload; RAE must mask each one individually
    for bug in standard_bug_corpus() {
        if !bug.is_deterministic() || bug.site == Site::MountImage {
            continue;
        }
        let id = bug.id;
        let faults = FaultRegistry::new();
        faults.arm(bug);
        let (_dev, fs) = campaign_fs(faults.clone());

        // generic churn plus the path keywords corpus triggers look for
        fs.mkdir("/hotdir").unwrap();
        fs.mkdir("/deep").unwrap();
        fs.mkdir("/deep/deep").unwrap();
        for i in 0..120 {
            let path = if i % 10 == 0 {
                format!("/hotdir/victim{i}.log")
            } else {
                format!("/hotdir/f{i}")
            };
            let fd = fs
                .open(&path, rae_vfs::OpenFlags::RDWR | rae_vfs::OpenFlags::CREATE)
                .unwrap();
            fs.write(fd, 0, &vec![i as u8; 1500]).unwrap();
            fs.close(fd).unwrap();
            if i % 4 == 0 {
                let _ = fs.readdir("/hotdir").unwrap();
            }
            if i % 25 == 24 {
                fs.unlink(&format!("/hotdir/f{}", i - 1)).unwrap();
                let _ = fs.stat("/deep/deep").unwrap();
            }
        }
        let _ = fs.rename("/hotdir/victim0.log", "/hotdir/renamed");

        if faults.fired(id) > 0 {
            assert_eq!(fs.stats().recovery_failures, 0, "bug {id} broke recovery");
            // detected/panic effects must have produced recoveries;
            // warn/silent effects legitimately do not
            let stats = fs.stats();
            assert!(
                stats.recoveries > 0 || stats.detected_errors == 0 && stats.panics_caught == 0,
                "bug {id}: fired but no recovery and errors were detected: {stats:?}"
            );
        }
    }
}

#[test]
fn transient_bugs_under_sustained_load() {
    let faults = FaultRegistry::with_seed(5);
    faults.arm(BugSpec::new(
        300,
        "transient-alloc",
        Site::Alloc,
        Trigger::Random { p: 0.01 },
        Effect::DetectedError,
    ));
    faults.arm(BugSpec::new(
        301,
        "transient-lookup-panic",
        Site::PathLookup,
        Trigger::Random { p: 0.003 },
        Effect::Panic,
    ));
    let (dev, fs) = campaign_fs(faults);
    let script = generate_script(Profile::Varmail, 777, 1500);
    let outcome = run_script(&fs, &script);
    assert_eq!(runtime_errnos(&outcome.steps), 0);
    assert!(fs.stats().recoveries > 0, "{:?}", fs.stats());
    fs.unmount().unwrap();
    assert!(fsck(dev.as_ref()).unwrap().is_clean());
}
