//! Criterion bench behind experiments E3/E3b: full recovery latency as
//! a function of the retained operation-log length, cold replay vs
//! warm standby handover. The `cold`/`warm` rows isolate replay vs
//! handover (no image validation, zero-latency device); the
//! `cold_recovery` row is the whole cold rung as deployed — contained
//! reboot, validated shadow load (`fsck`) and replay — on the
//! NVMe-latency device, where its device reads are what it costs. The
//! `warm_recovery` row is the warm rung as deployed: the same device, a
//! caught-up standby, and a base that has written (and half unlinked)
//! 1280 blocks since the standby's snapshot, so the handover resync
//! has a four-digit write set to reconcile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rae::{RaeConfig, StandbyOpts};
use rae_basefs::BaseFsConfig;
use rae_bench::harness::{fresh_device, fresh_latency_device, mount_rae};
use rae_blockdev::BlockDevice;
use rae_faults::{BugSpec, Effect, FaultRegistry, Site, Trigger};
use rae_shadowfs::ShadowOpts;
use rae_vfs::{FileSystem, OpenFlags};
use std::sync::Arc;

/// Build a RAE filesystem with `len` unsynced operations and a bug
/// armed to fire on the next allocation. With `warm` the standby is
/// enabled and caught up before the bug is armed, so the measured
/// recovery drains only the in-flight tail. With `deployed` the shadow
/// validates the image before trusting it and the device has NVMe
/// latency; a deployed warm mount also churns the base first.
fn primed_fs(len: usize, warm: bool, deployed: bool) -> rae::RaeFs {
    let faults = FaultRegistry::new();
    let config = RaeConfig {
        base: BaseFsConfig {
            faults: faults.clone(),
            ..BaseFsConfig::default()
        },
        shadow: ShadowOpts {
            validate_image: deployed,
            ..ShadowOpts::default()
        },
        max_log_records: usize::MAX,
        standby: StandbyOpts {
            enabled: warm,
            ..StandbyOpts::default()
        },
        ..RaeConfig::default()
    };
    let dev = if deployed {
        fresh_latency_device() as Arc<dyn BlockDevice>
    } else {
        fresh_device() as Arc<dyn BlockDevice>
    };
    let fs = mount_rae(dev, config);
    if warm && deployed {
        // 80 files x 16 blocks through a sync, half of them unlinked:
        // the write tracker holds >= 1280 blocks at the fault, 640 of
        // them free in the standby's bitmap
        for k in 0..80 {
            let fd = fs
                .open(
                    &format!("/churn{k:02}"),
                    OpenFlags::RDWR | OpenFlags::CREATE,
                )
                .unwrap();
            fs.write(fd, 0, &vec![k as u8; 16 * 4096]).unwrap();
            fs.close(fd).unwrap();
        }
        fs.sync().unwrap();
        for k in (0..80).step_by(2) {
            fs.unlink(&format!("/churn{k:02}")).unwrap();
        }
    }
    // Cycle over 512 distinct files so the longest sweeps fit the
    // 4096-inode bench geometry; the log still retains `len` records.
    for k in 0..len {
        let fd = fs
            .open(
                &format!("/f{:05}", k % 512),
                OpenFlags::RDWR | OpenFlags::CREATE,
            )
            .unwrap();
        fs.write(fd, 0, &[k as u8; 512]).unwrap();
        fs.close(fd).unwrap();
    }
    if warm {
        while fs.stats().standby_lag > 0 {
            std::thread::yield_now();
        }
    }
    faults.arm(BugSpec::new(
        9000,
        "trigger",
        Site::Alloc,
        Trigger::Always,
        Effect::DetectedError,
    ));
    fs
}

fn bench_one(b: &mut criterion::Bencher, len: usize, warm: bool, deployed: bool) {
    b.iter_batched(
        || primed_fs(len, warm, deployed),
        |fs| {
            fs.mkdir("/trigger").unwrap(); // bug fires, recovery runs
            assert_eq!(fs.stats().recoveries, 1);
            if warm && deployed {
                let r = fs.last_recovery_report().unwrap();
                assert!(r.resync_candidates >= 1000, "{r:?}");
            }
            fs
        },
        criterion::BatchSize::LargeInput,
    );
}

fn bench_recovery_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery_latency");
    group.sample_size(10);
    for len in [10usize, 100, 500, 1000, 5000] {
        for warm in [false, true] {
            let id = BenchmarkId::new(if warm { "warm" } else { "cold" }, len);
            group.bench_with_input(id, &len, |b, &len| bench_one(b, len, warm, false));
        }
    }
    for len in [256usize, 1000, 4000] {
        for warm in [false, true] {
            let name = if warm {
                "warm_recovery"
            } else {
                "cold_recovery"
            };
            let id = BenchmarkId::new(name, len);
            group.bench_with_input(id, &len, |b, &len| bench_one(b, len, warm, true));
        }
    }
    group.finish();
}

criterion_group!(benches, bench_recovery_latency);
criterion_main!(benches);
