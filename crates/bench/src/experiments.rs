//! Experiment implementations E1–E9, the bug-study artifacts and the
//! trusted-code accounting.
//!
//! Every function returns the rendered table it printed, so integration
//! tests can assert on shapes (who wins, in which direction) without
//! re-parsing stdout.

use crate::harness::{
    fresh_device, fresh_latency_device, mount_base, mount_rae, ops_per_sec, populate_small_tree,
    timed,
};
use rae::{RaeConfig, RecoveryMode, RecoveryPath, StandbyOpts};
use rae_basefs::{BaseFs, BaseFsConfig};
use rae_blockdev::{BlockDevice, MemDisk};
use rae_faults::{standard_bug_corpus, BugSpec, Effect, FaultRegistry, Site, Trigger};
use rae_fsmodel::ModelFs;
use rae_shadowfs::{ShadowAsPrimary, ShadowFs, ShadowOpts};
use rae_vfs::{FileSystem, FsOp, OpRecord, OpenFlags};
use rae_workloads::{
    compare_outcomes, generate_script, populate_read_set, run_reader_mix, run_script, Profile,
    ReadMix, ReadMixConfig,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Scale factor: `fast` runs are ~5× smaller (CI-friendly).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Script steps for throughput experiments.
    pub steps: usize,
    /// Log lengths for the recovery-latency sweep.
    pub log_lengths: &'static [usize],
    /// Steps for the availability campaign.
    pub campaign_steps: usize,
}

impl Scale {
    /// Full-size experiments.
    #[must_use]
    pub fn full() -> Scale {
        Scale {
            steps: 3000,
            log_lengths: &[10, 50, 200, 1000, 4000],
            campaign_steps: 4000,
        }
    }

    /// Reduced experiments for quick runs and tests.
    #[must_use]
    pub fn fast() -> Scale {
        Scale {
            steps: 600,
            log_lengths: &[10, 50, 200],
            campaign_steps: 800,
        }
    }
}

// ---------------------------------------------------------------------
// T1 / F1: the bug study
// ---------------------------------------------------------------------

/// Reproduce Table 1 through the classification pipeline.
#[must_use]
pub fn table1() -> String {
    let records = rae_bugstudy::filter_study(rae_bugstudy::corpus());
    let summary = rae_bugstudy::summarize(&records);
    let mut out = rae_bugstudy::render_table1(&summary);
    let matches = summary.counts == rae_bugstudy::PAPER_TABLE1;
    let _ = writeln!(out, "matches paper Table 1 exactly: {matches}");
    out
}

/// Reproduce Figure 1 (deterministic bugs by year).
#[must_use]
pub fn figure1() -> String {
    let records = rae_bugstudy::filter_study(rae_bugstudy::corpus());
    let series = rae_bugstudy::figure1_series(&records);
    rae_bugstudy::render_figure1(&series)
}

// ---------------------------------------------------------------------
// E1: base vs shadow common-case throughput
// ---------------------------------------------------------------------

/// Build a populated image on a latency-wrapped device: `nfiles` 8 KiB
/// files spread over 16 directories, durable on disk. Latency is armed
/// only after population, so setup is instant.
fn prepopulated_latency_device(nfiles: usize) -> Arc<rae_blockdev::FaultyDisk<MemDisk>> {
    use rae_blockdev::{DiskFaultPlan, FaultyDisk};
    let mem = MemDisk::new(16384);
    rae_fsformat::mkfs(&mem, crate::harness::experiment_params()).expect("mkfs");
    let dev = Arc::new(FaultyDisk::new(mem));
    {
        let base = mount_base(dev.clone() as Arc<dyn BlockDevice>, FaultRegistry::new());
        for d in 0..16 {
            base.mkdir(&format!("/d{d:02}")).expect("mkdir");
        }
        for i in 0..nfiles {
            let path = format!("/d{:02}/file{i:04}", i % 16);
            let fd = base
                .open(&path, OpenFlags::RDWR | OpenFlags::CREATE)
                .expect("create");
            base.write(fd, 0, &vec![(i % 251) as u8; 8192])
                .expect("write");
            base.close(fd).expect("close");
        }
        base.unmount().expect("unmount");
    }
    dev.set_plan(
        DiskFaultPlan::new()
            .read_latency_ns(8_000)
            .write_latency_ns(16_000),
    );
    dev
}

/// Drive a read-mostly working-set workload (80 % open+read+close,
/// 10 % stat, 10 % readdir) over the pre-populated tree.
fn read_mostly_workload(fs: &dyn FileSystem, nfiles: usize, steps: usize, seed: u64) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..steps {
        let i = rng.gen_range(0..nfiles);
        let path = format!("/d{:02}/file{i:04}", i % 16);
        match rng.gen_range(0..10) {
            0 => {
                fs.stat(&path).expect("stat");
            }
            1 => {
                fs.readdir(&format!("/d{:02}", i % 16)).expect("readdir");
            }
            _ => {
                let fd = fs.open(&path, OpenFlags::RDONLY).expect("open");
                let off = rng.gen_range(0..2u64) * 4096;
                fs.read(fd, off, 4096).expect("read");
                fs.close(fd).expect("close");
            }
        }
    }
}

/// E1: ops/s of the base (caches, write-back, journal) vs the shadow
/// run as the primary filesystem (no caches, sync reads, full checks),
/// serving a read-mostly working set from an NVMe-latency device. This
/// is the paper's common case: the base's dentry/inode/page caches
/// absorb the device latency; the shadow walks from the root and reads
/// the device on every lookup.
#[must_use]
pub fn e1_base_vs_shadow(scale: Scale) -> String {
    let nfiles = 200;
    let steps = scale.steps;
    let mut out = String::from(
        "E1: common-case throughput over a pre-populated image (ops/s)\n\
         server       base_ops_s  shadow_ops_s  base_speedup\n",
    );
    for (label, seed) in [("read-mostly-1", 42u64), ("read-mostly-2", 43u64)] {
        let dev = prepopulated_latency_device(nfiles);
        let base = mount_base(dev as Arc<dyn BlockDevice>, FaultRegistry::new());
        let ((), d_base) = timed(|| read_mostly_workload(&base, nfiles, steps, seed));

        let dev = prepopulated_latency_device(nfiles);
        let shadow = ShadowAsPrimary::load(
            dev as Arc<dyn BlockDevice>,
            ShadowOpts {
                validate_image: false, // one-time cost, excluded from steady state
                ..ShadowOpts::default()
            },
        )
        .expect("shadow load");
        let ((), d_shadow) = timed(|| read_mostly_workload(&shadow, nfiles, steps, seed));

        let base_ops = ops_per_sec(steps, d_base);
        let shadow_ops = ops_per_sec(steps, d_shadow);
        let _ = writeln!(
            out,
            "{:<12} {:>11.0} {:>13.0} {:>12.1}x",
            label,
            base_ops,
            shadow_ops,
            base_ops / shadow_ops
        );
    }
    out
}

// ---------------------------------------------------------------------
// E2: the RAE common-case tax
// ---------------------------------------------------------------------

/// E2: ops/s of the raw base vs the RAE-wrapped base with no faults
/// armed — the price of operation recording, outcome capture, panic
/// catching, and log trimming on the common path.
#[must_use]
pub fn e2_rae_overhead(scale: Scale) -> String {
    let mut out = String::from(
        "E2: RAE common-case overhead (no faults armed)\n\
         profile      base_ops_s  rae_ops_s   overhead\n",
    );
    for profile in [Profile::Varmail, Profile::FileServer, Profile::WebServer] {
        let script = generate_script(profile, 7, scale.steps);

        let dev = fresh_latency_device();
        let base = mount_base(dev as Arc<dyn BlockDevice>, FaultRegistry::new());
        let (_, d_base) = timed(|| run_script(&base, &script));

        let dev = fresh_latency_device();
        let rae = mount_rae(dev as Arc<dyn BlockDevice>, RaeConfig::default());
        let (_, d_rae) = timed(|| run_script(&rae, &script));
        assert_eq!(rae.stats().recoveries, 0);

        let base_ops = ops_per_sec(script.len(), d_base);
        let rae_ops = ops_per_sec(script.len(), d_rae);
        let _ = writeln!(
            out,
            "{:<12} {:>11.0} {:>10.0} {:>9.1}%",
            profile.name(),
            base_ops,
            rae_ops,
            (base_ops / rae_ops - 1.0) * 100.0
        );
    }
    out
}

// ---------------------------------------------------------------------
// E3: recovery latency vs operation-log length
// ---------------------------------------------------------------------

/// E3: wall-clock recovery time as a function of the retained operation
/// log length, split by whether the shadow validates the whole image
/// first (§4.3: "the time required for recovery … does impact the
/// expected response time observed by applications").
#[must_use]
pub fn e3_recovery_latency(scale: Scale) -> String {
    let mut out = String::from(
        "E3: recovery latency vs retained log length\n\
         (phase columns from the validated run: contained reboot,\n\
         shadow load incl. fsck, constrained replay, hand-off)\n\
         log_len  replayed  total_ms(validated)  total_ms(unvalidated)  reboot  load  replay  handoff\n",
    );
    for &len in scale.log_lengths {
        let mut cells = [Duration::ZERO, Duration::ZERO];
        let mut phases = [Duration::ZERO; 4];
        let mut replayed = 0;
        for (i, validate) in [true, false].into_iter().enumerate() {
            let dev = fresh_device();
            let faults = FaultRegistry::new();
            let config = RaeConfig {
                base: BaseFsConfig {
                    faults: faults.clone(),
                    ..BaseFsConfig::default()
                },
                shadow: ShadowOpts {
                    validate_image: validate,
                    ..ShadowOpts::default()
                },
                max_log_records: usize::MAX,
                ..RaeConfig::default()
            };
            let fs = mount_rae(dev as Arc<dyn BlockDevice>, config);
            // build a log of `len` unsynced mutations
            for k in 0..len {
                let fd = fs
                    .open(&format!("/f{k:05}"), OpenFlags::RDWR | OpenFlags::CREATE)
                    .unwrap();
                fs.write(fd, 0, &[k as u8; 512]).unwrap();
                fs.close(fd).unwrap();
            }
            // one more op trips a planted bug -> recovery
            faults.arm(BugSpec::new(
                9000,
                "trigger",
                Site::Alloc,
                Trigger::Always,
                Effect::DetectedError,
            ));
            fs.mkdir("/trigger").unwrap();
            let reports = fs.recovery_reports();
            assert_eq!(reports.len(), 1);
            cells[i] = reports[0].duration;
            replayed = reports[0].records_replayed;
            if validate {
                phases = [
                    reports[0].reboot_time,
                    reports[0].shadow_load_time,
                    reports[0].replay_time,
                    reports[0].handoff_time,
                ];
            }
        }
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let _ = writeln!(
            out,
            "{:>7} {:>9} {:>20.2} {:>22.2} {:>7.1} {:>5.1} {:>7.1} {:>8.1}",
            len,
            replayed,
            ms(cells[0]),
            ms(cells[1]),
            ms(phases[0]),
            ms(phases[1]),
            ms(phases[2]),
            ms(phases[3]),
        );
    }
    out
}

/// E3b: warm-standby handover vs cold replay at the same retained log
/// length, twice. First with replay isolated (unvalidated shadow,
/// zero-latency device): the cold column grows with the log; the warm
/// column only pays the contained reboot, the in-flight tail drain and
/// the hand-off, so it should stay ~flat — the O(retained log) vs
/// O(in-flight) separation the standby subsystem exists for. Then as
/// deployed (validated shadow load, NVMe-latency device), where device
/// reads are what recovery costs: the cold rung reads each block once,
/// the warm rung reads none after the reboot, and warm stays under
/// cold at every log length.
#[must_use]
pub fn e3b_warm_recovery(scale: Scale) -> String {
    let mut out = String::from("E3b: cold replay vs warm standby handover\n");
    for (deployed, caption) in [
        (
            false,
            "(unvalidated shadow, zero-latency device; warm waits for the standby to\n\
             catch up before the bug fires, so the drain is the in-flight tail only)",
        ),
        (
            true,
            "(as deployed: validated shadow load, 8/16 us NVMe-latency device)",
        ),
    ] {
        let _ = writeln!(
            out,
            "{caption}\nlog_len  cold_ms  cold_replayed  warm_ms  warm_drained"
        );
        e3b_table(&mut out, scale, deployed);
    }
    out
}

fn e3b_table(out: &mut String, scale: Scale, deployed: bool) {
    for &len in scale.log_lengths {
        let mut total = [Duration::ZERO; 2];
        let mut replayed = [0u64; 2];
        for (i, warm) in [false, true].into_iter().enumerate() {
            let dev = if deployed {
                fresh_latency_device() as Arc<dyn BlockDevice>
            } else {
                fresh_device() as Arc<dyn BlockDevice>
            };
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
                standby: StandbyOpts { enabled: warm },
                ..RaeConfig::default()
            };
            let fs = mount_rae(dev, config);
            for k in 0..len {
                let fd = fs
                    .open(&format!("/f{k:05}"), OpenFlags::RDWR | OpenFlags::CREATE)
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
            fs.mkdir("/trigger").unwrap();
            let reports = fs.recovery_reports();
            assert_eq!(reports.len(), 1);
            assert_eq!(
                reports[0].path,
                if warm {
                    RecoveryPath::Warm
                } else {
                    RecoveryPath::Cold
                }
            );
            total[i] = reports[0].duration;
            replayed[i] = reports[0].records_replayed;
        }
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let _ = writeln!(
            out,
            "{:>7} {:>8.2} {:>13} {:>8.2} {:>12}",
            len,
            ms(total[0]),
            replayed[0],
            ms(total[1]),
            replayed[1],
        );
    }
}

// ---------------------------------------------------------------------
// E4: availability campaign
// ---------------------------------------------------------------------

/// E4: the same fault-riddled workload under the three recovery
/// policies. RAE must mask every detected bug (zero app-visible runtime
/// errors); crash-remount turns each into application-visible failures
/// plus lost descriptors; error-return leaks raw errors.
#[must_use]
pub fn e4_availability(scale: Scale) -> String {
    let mut out = String::from(
        "E4: availability under the standard bug corpus\n\
         policy        ok_ops  app_errors  recoveries  downtime_ms  masked\n",
    );
    for (label, mode) in [
        ("rae", RecoveryMode::Rae),
        ("crash-remount", RecoveryMode::CrashRemount),
        ("error-return", RecoveryMode::ErrorReturn),
    ] {
        let script = generate_script(Profile::FileServer, 1234, scale.campaign_steps);
        let dev = fresh_device();
        let faults = FaultRegistry::with_seed(7);
        for bug in standard_bug_corpus() {
            // skip the always-on mount bug (mount must succeed to run)
            if bug.site == Site::MountImage {
                continue;
            }
            faults.arm(bug);
        }
        let config = RaeConfig {
            base: BaseFsConfig {
                faults: faults.clone(),
                ..BaseFsConfig::default()
            },
            mode,
            shadow: ShadowOpts {
                validate_image: false, // campaign speed; checks stay on
                ..ShadowOpts::default()
            },
            ..RaeConfig::default()
        };
        let fs = mount_rae(dev as Arc<dyn BlockDevice>, config);
        let outcome = run_script(&fs, &script);

        // separate the spec errors the workload legitimately produces
        // (ENOENT on a random path…) from runtime-error leakage: count
        // errno 117 (EUCLEAN) and errno 5 (EIO) as app-visible failures
        let app_errors = outcome
            .steps
            .iter()
            .filter(|s| matches!(s, rae_workloads::StepResult::Errno(5 | 117 | 9)))
            .count();
        let stats = fs.stats();
        let _ = writeln!(
            out,
            "{:<13} {:>6} {:>11} {:>11} {:>12.2} {:>7}",
            label,
            script.len() - outcome.errors as usize,
            app_errors,
            stats.recoveries,
            stats.recovery_time_ns as f64 / 1e6,
            stats.ops_masked,
        );
    }
    out
}

// ---------------------------------------------------------------------
// E5: the shadow's check battery
// ---------------------------------------------------------------------

/// E4b: client-observed operation latency under a recurring
/// deterministic bug — the paper's §4.3 point that recovery time shows
/// up as response-time tail for applications with in-flight
/// operations. Percentiles over create+write+close transactions.
#[must_use]
pub fn e4b_latency_tail(scale: Scale) -> String {
    use std::time::Instant;
    let ops = scale.campaign_steps.min(2000);
    let mut out = String::from(
        "E4b: client-observed latency with a recurring masked bug\n\
         policy        p50_us    p99_us     max_us  recoveries\n",
    );
    for (label, bug_every) in [("no-faults", 0u64), ("bug-every-300", 300)] {
        let dev = fresh_device();
        let faults = FaultRegistry::new();
        if bug_every > 0 {
            faults.arm(BugSpec::new(
                9100,
                "recurring",
                Site::Alloc,
                Trigger::EveryNth(bug_every),
                Effect::DetectedError,
            ));
        }
        let config = RaeConfig {
            base: BaseFsConfig {
                faults,
                ..BaseFsConfig::default()
            },
            shadow: ShadowOpts {
                validate_image: false,
                ..ShadowOpts::default()
            },
            ..RaeConfig::default()
        };
        let fs = mount_rae(dev as Arc<dyn BlockDevice>, config);
        let mut lat_us: Vec<f64> = Vec::with_capacity(ops);
        for i in 0..ops {
            let t0 = Instant::now();
            let fd = fs
                .open(&format!("/f{i:06}"), OpenFlags::RDWR | OpenFlags::CREATE)
                .expect("open");
            fs.write(fd, 0, &[7u8; 256]).expect("write");
            fs.close(fd).expect("close");
            lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        lat_us.sort_by(f64::total_cmp);
        let pick = |q: f64| lat_us[(q * (lat_us.len() - 1) as f64) as usize];
        let _ = writeln!(
            out,
            "{:<13} {:>7.1} {:>9.1} {:>10.1} {:>11}",
            label,
            pick(0.50),
            pick(0.99),
            lat_us.last().unwrap(),
            fs.stats().recoveries,
        );
    }
    out
}

// ---------------------------------------------------------------------
// E4c: concurrent read scaling
// ---------------------------------------------------------------------

const E4C_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Workload shape per mix. The read-miss set (64 × 32 KiB = 512 data
/// blocks) is sized against a deliberately small page cache so a large
/// fraction of reads touch the latency-modelled device.
fn e4c_mix_config(mix: ReadMix, scale: Scale) -> ReadMixConfig {
    match mix {
        ReadMix::ReadHit | ReadMix::Mixed90R10W => ReadMixConfig {
            nfiles: 32,
            file_size: 16 * 1024,
            read_size: 1024,
            ops_per_thread: scale.steps,
            seed: 0xE4C,
            mix,
        },
        ReadMix::ReadMiss => ReadMixConfig {
            nfiles: 64,
            file_size: 32 * 1024,
            read_size: 4096,
            ops_per_thread: (scale.steps / 2).max(100),
            seed: 0xE4C,
            mix,
        },
    }
}

fn e4c_base_config(mix: ReadMix) -> BaseFsConfig {
    BaseFsConfig {
        page_cache_blocks: if matches!(mix, ReadMix::ReadMiss) {
            256 // half the read-miss working set: forces device reads
        } else {
            2048
        },
        ..BaseFsConfig::default()
    }
}

/// One mix's sweep: mount, populate, then run the thread ladder on the
/// same warm mount. Returns `(threads, ops/s)` per rung.
fn e4c_measure(mix: ReadMix, scale: Scale) -> Vec<(usize, f64)> {
    let cfg = e4c_mix_config(mix, scale);
    // 50 µs reads: slow enough that misses are genuinely I/O-bound and
    // their latency overlaps across reader threads (see harness docs)
    let dev = crate::harness::fresh_custom_latency_device(50_000, 16_000);
    let fs = Arc::new(
        BaseFs::mount(dev as Arc<dyn BlockDevice>, e4c_base_config(mix)).expect("mount base"),
    );
    populate_read_set(fs.as_ref(), &cfg).expect("populate read set");
    // untimed warm-up: fill the cache to steady state and spin up the
    // CPU before the first timed rung
    let warm = ReadMixConfig {
        ops_per_thread: cfg.ops_per_thread / 2,
        ..cfg
    };
    let _ = run_reader_mix(&fs, &warm, 2).expect("warm-up");
    E4C_THREADS
        .iter()
        .map(|&threads| {
            let report = run_reader_mix(&fs, &cfg, threads).unwrap_or_else(|e| {
                panic!(
                    "reader mix failed: mix={} threads={threads}: {e:?}",
                    cfg.mix.label()
                )
            });
            (threads, report.ops_per_sec())
        })
        .collect()
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One E4c sweep: (mix label, per-thread-count ops/s).
type E4cRow = (&'static str, Vec<(usize, f64)>);

fn e4c_render_json(rows: &[E4cRow]) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"e4c_read_scaling\",\n");
    json.push_str("  \"threads\": [1, 2, 4, 8],\n");
    let _ = writeln!(json, "  \"host_cpus\": {},", host_cpus());
    json.push_str("  \"results\": [\n");
    for (i, (mix, ladder)) in rows.iter().enumerate() {
        let ops: Vec<String> = ladder.iter().map(|(_, o)| format!("{o:.0}")).collect();
        let speedup = ladder.last().expect("ladder").1 / ladder[0].1.max(f64::MIN_POSITIVE);
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"mix\": \"{mix}\", \"ops_per_sec\": [{}], \"speedup_8t_over_1t\": {speedup:.2}}}{comma}",
            ops.join(", "),
        );
    }
    json.push_str("  ]\n}\n");
    json
}

/// E4c: throughput of 1–8 reader threads against one mounted base, for
/// cache-resident reads, device-bound reads, and a 90:10 read/write
/// mix. To compare two commits, run `raebench` on each.
///
/// Side effect: writes `BENCH_concurrency.json` into the working
/// directory (the committed artifact at the repo root).
#[must_use]
pub fn e4c_read_scaling(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E4c: concurrent read scaling ({} ops/thread, {} host CPUs)",
        scale.steps,
        host_cpus()
    );
    let _ = writeln!(
        out,
        "(cache-resident mixes are CPU-bound: their scaling ceiling is the host CPU count;"
    );
    let _ = writeln!(
        out,
        " the read-miss mix is I/O-bound and scales with overlapped device latency)"
    );
    let _ = writeln!(
        out,
        "{:<13} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "mix", "1t", "2t", "4t", "8t", "8t/1t"
    );
    let mut rows: Vec<E4cRow> = Vec::new();
    for mix in [ReadMix::ReadHit, ReadMix::ReadMiss, ReadMix::Mixed90R10W] {
        let ladder = e4c_measure(mix, scale);
        let speedup = ladder.last().expect("ladder").1 / ladder[0].1.max(f64::MIN_POSITIVE);
        let _ = writeln!(
            out,
            "{:<13} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>6.2}x",
            mix.label(),
            ladder[0].1,
            ladder[1].1,
            ladder[2].1,
            ladder[3].1,
            speedup
        );
        rows.push((mix.label(), ladder));
    }
    let json = e4c_render_json(&rows);
    match std::fs::write("BENCH_concurrency.json", &json) {
        Ok(()) => {
            let _ = writeln!(out, "wrote BENCH_concurrency.json");
        }
        Err(e) => {
            let _ = writeln!(out, "(could not write BENCH_concurrency.json: {e})");
        }
    }
    out
}

/// Build a recorded operation sequence by running ops through an
/// autonomous shadow (a stand-in for the base's recorder, entirely
/// in-memory).
fn build_records(dev: &Arc<MemDisk>, n: usize) -> Vec<OpRecord> {
    let mut generator = ShadowFs::load(
        dev.clone() as Arc<dyn BlockDevice>,
        ShadowOpts {
            validate_image: false,
            paranoid_checks: false,
            refinement_check: false,
        },
    )
    .expect("generator load");
    let mut records = Vec::with_capacity(n * 3);
    let mut seq = 0u64;
    let mut push = |records: &mut Vec<OpRecord>, generator: &mut ShadowFs, op: FsOp| {
        let outcome = generator.execute_autonomous(&op).expect("generate");
        seq += 1;
        let mut rec = OpRecord::new(seq, op);
        rec.complete(outcome);
        records.push(rec);
    };
    for k in 0..n {
        push(
            &mut records,
            &mut generator,
            FsOp::Create {
                path: format!("/e5-{k:05}"),
                flags: OpenFlags::RDWR | OpenFlags::CREATE,
            },
        );
        push(
            &mut records,
            &mut generator,
            FsOp::Write {
                fd: rae_vfs::Fd(3),
                offset: 0,
                data: vec![k as u8; 2048].into(),
            },
        );
        push(
            &mut records,
            &mut generator,
            FsOp::Close { fd: rae_vfs::Fd(3) },
        );
    }
    records
}

/// E5: replay cost of the same record sequence under the shadow's
/// check configurations — the "extensive runtime checks" are free at
/// common-case time (they only run during recovery) but not free at
/// recovery time; this quantifies them.
#[must_use]
pub fn e5_check_cost(scale: Scale) -> String {
    let n = (scale.steps / 6).max(50);
    let dev = fresh_device();
    let records = build_records(&dev, n);

    let configs: [(&str, ShadowOpts); 4] = [
        (
            "minimal",
            ShadowOpts {
                validate_image: false,
                paranoid_checks: false,
                refinement_check: false,
            },
        ),
        (
            "paranoid",
            ShadowOpts {
                validate_image: false,
                paranoid_checks: true,
                refinement_check: false,
            },
        ),
        (
            "paranoid+fsck",
            ShadowOpts {
                validate_image: true,
                paranoid_checks: true,
                refinement_check: false,
            },
        ),
        (
            "paranoid+fsck+model",
            ShadowOpts {
                validate_image: true,
                paranoid_checks: true,
                refinement_check: true,
            },
        ),
    ];
    let mut out = String::from(
        "E5: shadow check-battery cost (constrained replay of the same log)\n\
         config                records  checks_run  replay_ms\n",
    );
    for (label, opts) in configs {
        // min of three runs: replay is short enough to be noisy
        let mut best = Duration::MAX;
        let mut checks = 0;
        for _ in 0..3 {
            let mut shadow =
                ShadowFs::load(dev.clone() as Arc<dyn BlockDevice>, opts).expect("shadow load");
            let (report, d) = timed(|| shadow.replay_constrained(&records).expect("replay"));
            assert!(report.is_clean(), "{label}: {:?}", report.discrepancies);
            best = best.min(d);
            checks = shadow.checks_performed();
        }
        let _ = writeln!(
            out,
            "{:<21} {:>8} {:>11} {:>10.2}",
            label,
            records.len(),
            checks,
            best.as_secs_f64() * 1e3
        );
    }
    out
}

// ---------------------------------------------------------------------
// E6: differential testing (the shadow as a post-error testing tool)
// ---------------------------------------------------------------------

/// E6: arm each *silent* bug from the corpus on the base and run the
/// same chaos script against the base and the executable spec; count
/// divergences. Silent wrong results are invisible to the application
/// and to error detection — only cross-checking finds them (§4.3).
#[must_use]
pub fn e6_differential(scale: Scale) -> String {
    let mut out = String::from(
        "E6: differential detection of silent bugs (base vs spec)\n\
         (MISSED is possible when the corrupted evidence was itself\n\
         overwritten or deleted before any read or the final tree dump)\n\
         bug                          fired  divergent_steps  tree_diffs  detected\n",
    );
    let silent_bugs: Vec<BugSpec> = standard_bug_corpus()
        .into_iter()
        .filter(|b| b.effect == Effect::SilentWrongResult)
        .collect();
    // plus a hand-rolled always-on silent bug for a guaranteed positive
    let mut bugs = silent_bugs;
    bugs.push(BugSpec::new(
        9001,
        "always-silent-write",
        Site::Write,
        Trigger::EveryNth(5),
        Effect::SilentWrongResult,
    ));

    let script = generate_script(Profile::Chaos, 99, scale.campaign_steps);
    let reference_model = ModelFs::new();
    let reference = run_script(&reference_model, &script);
    let reference_tree = rae_workloads::dump_tree(&reference_model).expect("tree");

    for bug in bugs {
        let dev = fresh_device();
        let faults = FaultRegistry::with_seed(3);
        let name = bug.name.clone();
        faults.arm(bug);
        let base = mount_base(dev as Arc<dyn BlockDevice>, faults.clone());
        let outcome = run_script(&base, &script);
        let divergences = compare_outcomes(&reference, &outcome);
        // final-state cross-check: catches corruption no read observed
        let base_tree = rae_workloads::dump_tree(&base).expect("tree");
        let tree_diffs = rae_workloads::diff_trees(&reference_tree, &base_tree);
        let fired = faults.total_fired();
        let _ = writeln!(
            out,
            "{:<28} {:>5} {:>16} {:>10} {:>9}",
            name,
            fired,
            divergences.len(),
            tree_diffs.len(),
            if fired == 0 {
                "n/a (never fired)"
            } else if divergences.is_empty() && tree_diffs.is_empty() {
                "MISSED"
            } else {
                "yes"
            }
        );
    }
    // control: no bugs armed -> zero divergence
    let dev = fresh_device();
    let base = mount_base(dev as Arc<dyn BlockDevice>, FaultRegistry::new());
    let outcome = run_script(&base, &script);
    let clean = compare_outcomes(&reference, &outcome);
    let base_tree = rae_workloads::dump_tree(&base).expect("tree");
    let clean_tree = rae_workloads::diff_trees(&reference_tree, &base_tree);
    let _ = writeln!(
        out,
        "{:<28} {:>5} {:>16} {:>10} {:>9}",
        "(control: no bugs)",
        0,
        clean.len(),
        clean_tree.len(),
        if clean.is_empty() && clean_tree.is_empty() {
            "clean"
        } else {
            "FALSE POSITIVE"
        }
    );
    out
}

// ---------------------------------------------------------------------
// E7: crafted images
// ---------------------------------------------------------------------

/// E7: the crafted-image corpus against (a) a plain base mount + ops
/// and (b) the shadow's validated load. The shadow must reject every
/// image cleanly (an error, never a crash); the base accepts several
/// latently and only notices — at best — when the corruption is
/// touched.
#[must_use]
pub fn e7_crafted_images() -> String {
    use rae_fsformat::{apply_corruption, CraftedImage};
    let mut out = String::from(
        "E7: crafted images — unvalidated base vs validated shadow load\n\
         case                    base_mount+ops       shadow_validated_load\n",
    );

    // pristine populated image to corrupt
    let pristine = fresh_device();
    {
        let base = mount_base(
            pristine.clone() as Arc<dyn BlockDevice>,
            FaultRegistry::new(),
        );
        populate_small_tree(&base).expect("populate");
        base.unmount().expect("unmount");
    }
    let baseline = pristine.snapshot();
    let corpus = CraftedImage::standard_corpus(pristine.as_ref()).expect("corpus");

    for case in corpus {
        let dev = Arc::new(MemDisk::from_image(&baseline));
        apply_corruption(dev.as_ref(), &case.corruption).expect("apply");

        // (a) base: mount + drive a few operations, under catch_unwind
        let base_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let base = rae_basefs::BaseFs::mount(
                dev.clone() as Arc<dyn BlockDevice>,
                rae_basefs::BaseFsConfig::default(),
            )?;
            base.readdir("/")?;
            base.readdir("/docs")?;
            let fd = base.open("/docs/file0", OpenFlags::RDONLY)?;
            base.read(fd, 0, 100)?;
            base.close(fd)?;
            base.mkdir("/new")?;
            Ok::<(), rae_vfs::FsError>(())
        }));
        let base_cell = match base_result {
            Err(_) => "PANIC".to_string(),
            Ok(Ok(())) => "accepted (latent!)".to_string(),
            Ok(Err(e)) if e.is_runtime_error() => "detected late".to_string(),
            Ok(Err(_)) => "rejected at mount".to_string(),
        };

        // (b) shadow: validated load
        let shadow_result = ShadowFs::load(dev as Arc<dyn BlockDevice>, ShadowOpts::default());
        let shadow_cell = match shadow_result {
            Err(e) if e.is_runtime_error() => "rejected cleanly".to_string(),
            Err(_) => "rejected (spec error)".to_string(),
            Ok(_) => "ACCEPTED (bad!)".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<23} {:<20} {:<22}",
            case.name, base_cell, shadow_cell
        );
    }
    out
}

// ---------------------------------------------------------------------
// E8: recovery resilience (nested-fault campaign)
// ---------------------------------------------------------------------

/// One nested-fault scenario: a fault armed to fire *while recovery
/// itself runs*, either through the registry's recovery sites or as a
/// phase-scoped device-error plan.
struct E8Scenario {
    name: String,
    /// Fault class: `control`, `detected`, `panic`, `device`.
    class: &'static str,
    /// Recovery phase the fault targets: `reboot`, `replay`, `absorb`,
    /// `device` (phase-global plan), or `-` for the control.
    phase: &'static str,
    bug: Option<BugSpec>,
    plan: Option<rae_blockdev::DiskFaultPlan>,
}

/// The scenario matrix: fault class × recovery phase × persistence.
/// One-shot faults are the transient class the retry rung must absorb;
/// `Always` faults are persistent and must end degraded (when the bare
/// reboot still works) or offline (when it does not).
fn e8_scenarios(smoke: bool) -> Vec<E8Scenario> {
    use rae_blockdev::{DiskFaultPlan, FaultTarget, TriggerMode};
    let mut scenarios = vec![E8Scenario {
        name: "control".into(),
        class: "control",
        phase: "-",
        bug: None,
        plan: None,
    }];
    let mut id = 8100;
    for (site, phase) in [
        (Site::RecoveryReboot, "reboot"),
        (Site::RecoveryReplay, "replay"),
        (Site::RecoveryAbsorb, "absorb"),
    ] {
        for (effect, class) in [
            (Effect::DetectedError, "detected"),
            (Effect::Panic, "panic"),
        ] {
            for (trigger, persistence) in
                [(Trigger::NthMatch(1), "once"), (Trigger::Always, "always")]
            {
                id += 1;
                if smoke && !(phase == "replay" || (phase == "reboot" && persistence == "once")) {
                    continue;
                }
                scenarios.push(E8Scenario {
                    name: format!("{class}-{phase}-{persistence}"),
                    class,
                    phase,
                    bug: Some(BugSpec::new(id, "e8-nested", site, trigger.clone(), effect)),
                    plan: None,
                });
            }
        }
    }
    let device_plans: Vec<(&str, DiskFaultPlan)> = vec![
        (
            "dev-read-once",
            DiskFaultPlan::new().fail_reads(FaultTarget::Any, TriggerMode::Nth(1)),
        ),
        (
            "dev-read-twice",
            DiskFaultPlan::new()
                .fail_reads(FaultTarget::Any, TriggerMode::Nth(1))
                .fail_reads(FaultTarget::Any, TriggerMode::Nth(2)),
        ),
        (
            "dev-write-once",
            DiskFaultPlan::new().fail_writes(FaultTarget::Any, TriggerMode::Nth(1)),
        ),
        (
            "dev-read-always",
            DiskFaultPlan::new().fail_reads(FaultTarget::Any, TriggerMode::Always),
        ),
        (
            "dev-write-always",
            DiskFaultPlan::new().fail_writes(FaultTarget::Any, TriggerMode::Always),
        ),
    ];
    for (name, plan) in device_plans {
        if smoke && !(name == "dev-read-once" || name == "dev-read-always") {
            continue;
        }
        scenarios.push(E8Scenario {
            name: name.into(),
            class: "device",
            phase: "device",
            bug: None,
            plan: Some(plan),
        });
    }
    scenarios
}

/// The workload every E8 scenario runs before the trigger fires: a
/// durable (synced) tree plus an unsynced tail the cold replay must
/// reproduce.
fn e8_workload(fs: &dyn FileSystem) -> Result<(), rae_vfs::FsError> {
    populate_small_tree(fs)?; // ends with sync -> durable prefix
    fs.mkdir("/work")?;
    let fd = fs.open("/work/data", OpenFlags::RDWR | OpenFlags::CREATE)?;
    fs.write(fd, 0, b"unsynced tail")?;
    fs.close(fd)?;
    Ok(())
}

/// Result of one E8 scenario run.
struct E8Row {
    name: String,
    class: &'static str,
    phase: &'static str,
    /// `recovered`, `degraded`, `offline` — or `unexpected` when the
    /// run violated the ladder contract (panic across the API, wrong
    /// error, out-of-order rungs, wrong tree).
    outcome: &'static str,
    rung: String,
    failed_rungs: Vec<String>,
    device_retries: u64,
    device_faults_absorbed: u64,
    device_retries_exhausted: u64,
    tree_ok: bool,
    note: String,
}

fn e8_rung_rank(r: rae::LadderRung) -> usize {
    use rae::LadderRung as L;
    match r {
        L::Warm => 0,
        L::Cold => 1,
        L::ColdRetry => 2,
        L::Degraded => 3,
        L::Offline => 4,
    }
}

/// Run one scenario end to end and classify the outcome.
fn e8_run_scenario(scenario: &E8Scenario) -> E8Row {
    use rae_blockdev::FaultyDisk;
    let mem = MemDisk::new(16384);
    rae_fsformat::mkfs(&mem, crate::harness::experiment_params()).expect("mkfs");
    let disk = Arc::new(FaultyDisk::new(mem));

    let faults = FaultRegistry::new();
    // the trigger that pulls recovery: a detected bug on the /boom op
    faults.arm(BugSpec::new(
        8000,
        "e8-trigger",
        Site::DirModify,
        Trigger::PathContains("boom".into()),
        Effect::DetectedError,
    ));
    if let Some(bug) = &scenario.bug {
        faults.arm(bug.clone());
    }
    if let Some(plan) = &scenario.plan {
        // phase-scoped: arms with fresh counters when recovery enters
        disk.stage_recovery_plan(plan.clone());
    }
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        shadow: ShadowOpts {
            validate_image: false,
            ..ShadowOpts::default()
        },
        retry: rae::RetryPolicy {
            max_attempts: 4,
            base_backoff_ns: 100,
            max_backoff_ns: 10_000,
            seed: 0,
        },
        ..RaeConfig::default()
    };
    let fs = mount_rae(Arc::clone(&disk) as Arc<dyn BlockDevice>, config);
    let model = ModelFs::new();
    e8_workload(&fs).expect("e8 workload");
    e8_workload(&model).expect("e8 model workload");

    // the trigger operation: a panic crossing the API boundary here is
    // a contract violation, so run it under catch_unwind
    let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fs.mkdir("/boom")));

    let stats = fs.stats();
    let reports = fs.recovery_reports();
    let last = reports.last();
    let rung = last.map_or_else(|| "-".to_string(), |r| r.rung.as_str().to_string());
    let failed_rungs: Vec<String> = last.map_or_else(Vec::new, |r| {
        r.failed_rungs
            .iter()
            .map(|f| f.rung.as_str().to_string())
            .collect()
    });

    // ladder-order invariant: failed rungs strictly ascend and all
    // precede the final rung
    let ladder_ordered = last.is_none_or(|r| {
        let ranks: Vec<usize> = r
            .failed_rungs
            .iter()
            .map(|f| e8_rung_rank(f.rung))
            .collect();
        ranks.windows(2).all(|w| w[0] < w[1]) && ranks.iter().all(|&x| x < e8_rung_rank(r.rung))
    });

    let mut note = String::new();
    let (outcome, tree_ok) = match (&hit, fs.status()) {
        (Err(_), _) => {
            note = "panic escaped the API boundary".into();
            ("unexpected", false)
        }
        (Ok(Ok(())), rae_vfs::FsStatus::Active) => {
            // full recovery: the tree must equal the model's, /boom
            // included — never silently wrong
            model.mkdir("/boom").expect("model boom");
            let tree = rae_workloads::dump_tree(&fs).expect("dump tree");
            let model_tree = rae_workloads::dump_tree(&model).expect("model tree");
            let diffs = rae_workloads::diff_trees(&model_tree, &tree);
            if diffs.is_empty() {
                ("recovered", true)
            } else {
                note = format!("{} tree diffs after recovery", diffs.len());
                ("unexpected", false)
            }
        }
        (Ok(Err(rae_vfs::FsError::ReadOnly)), rae_vfs::FsStatus::Degraded) => {
            // read-only degraded: reads must answer off the durable
            // (synced) prefix without error — spot-check content
            let fd = fs.open("/docs/file0", OpenFlags::RDONLY);
            let ok = match fd {
                Err(rae_vfs::FsError::ReadOnly) => {
                    // descriptor allocation counts as a mutation; fall
                    // back to path reads only
                    fs.stat("/docs/file0").is_ok()
                        && fs.readdir("/docs").is_ok()
                        && fs.readlink("/docs/link").is_ok()
                }
                _ => false,
            };
            if !ok {
                note = "degraded base could not serve reads".into();
            }
            ("degraded", ok)
        }
        (Ok(Err(rae_vfs::FsError::RecoveryFailed { .. })), rae_vfs::FsStatus::Failed) => {
            ("offline", true) // nothing to read; offline is a valid terminal
        }
        (Ok(r), status) => {
            note = format!("unexpected result {r:?} with status {status:?}");
            ("unexpected", false)
        }
    };
    let outcome = if ladder_ordered {
        outcome
    } else {
        note = format!("ladder out of order: {failed_rungs:?} then {rung}; {note}");
        "unexpected"
    };

    E8Row {
        name: scenario.name.clone(),
        class: scenario.class,
        phase: scenario.phase,
        outcome,
        rung,
        failed_rungs,
        device_retries: stats.device_retries,
        device_faults_absorbed: stats.device_faults_absorbed,
        device_retries_exhausted: stats.device_retries_exhausted,
        tree_ok,
        note,
    }
}

fn e8_render_json(rows: &[E8Row], smoke: bool) -> String {
    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"e8_recovery_resilience\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    json.push_str("  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let failed: Vec<String> = r.failed_rungs.iter().map(|f| format!("\"{f}\"")).collect();
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"class\": \"{}\", \"phase\": \"{}\", \"outcome\": \"{}\", \"rung\": \"{}\", \"failed_rungs\": [{}], \"device_retries\": {}, \"device_faults_absorbed\": {}, \"device_retries_exhausted\": {}, \"tree_ok\": {}}}{comma}",
            r.name,
            r.class,
            r.phase,
            r.outcome,
            r.rung,
            failed.join(", "),
            r.device_retries,
            r.device_faults_absorbed,
            r.device_retries_exhausted,
            r.tree_ok,
        );
    }
    json.push_str("  ],\n");
    let total = rows.len();
    let count = |o: &str| rows.iter().filter(|r| r.outcome == o).count();
    let rate = |n: usize| n as f64 / total.max(1) as f64;
    let (rec, deg, off, unx) = (
        count("recovered"),
        count("degraded"),
        count("offline"),
        count("unexpected"),
    );
    let _ = writeln!(
        json,
        "  \"summary\": {{\"total\": {total}, \"recovered\": {rec}, \"degraded\": {deg}, \"offline\": {off}, \"unexpected\": {unx}, \"survival_rate\": {:.3}, \"degraded_rate\": {:.3}, \"offline_rate\": {:.3}}}",
        rate(rec),
        rate(deg),
        rate(off),
    );
    json.push_str("}\n");
    json
}

/// E8: the nested-fault campaign — faults that fire *while recovery
/// itself is running*, swept over fault class (detected error, panic,
/// transient and persistent device errors) × recovery phase (reboot,
/// replay, absorb, device-wide) × persistence. Every scenario must end
/// in one of the ladder's terminal states — recovered, read-only
/// degraded, or offline — with the rungs tried strictly in order,
/// no panic crossing the API, and no silently-wrong tree.
///
/// Side effect: writes `BENCH_recovery_resilience.json` into the
/// working directory (the committed artifact at the repo root).
#[must_use]
pub fn e8_recovery_resilience(smoke: bool) -> String {
    let scenarios = e8_scenarios(smoke);
    let rows: Vec<E8Row> = scenarios.iter().map(e8_run_scenario).collect();

    let mut out = format!(
        "E8: recovery resilience under nested faults ({} scenarios{})\n\
         scenario                 class     phase    outcome    rung        failed_rungs         retries absorbed\n",
        rows.len(),
        if smoke { ", smoke subset" } else { "" },
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<24} {:<9} {:<8} {:<10} {:<11} {:<20} {:>7} {:>8}{}",
            r.name,
            r.class,
            r.phase,
            r.outcome,
            r.rung,
            r.failed_rungs.join(">"),
            r.device_retries,
            r.device_faults_absorbed,
            if r.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", r.note)
            },
        );
    }
    let total = rows.len();
    let count = |o: &str| rows.iter().filter(|r| r.outcome == o).count();
    let _ = writeln!(
        out,
        "terminal states: {} recovered, {} degraded, {} offline, {} unexpected (of {total})",
        count("recovered"),
        count("degraded"),
        count("offline"),
        count("unexpected"),
    );
    let json = e8_render_json(&rows, smoke);
    match std::fs::write("BENCH_recovery_resilience.json", &json) {
        Ok(()) => {
            let _ = writeln!(out, "wrote BENCH_recovery_resilience.json");
        }
        Err(e) => {
            let _ = writeln!(out, "(could not write BENCH_recovery_resilience.json: {e})");
        }
    }
    out
}

// ---------------------------------------------------------------------
// E9: observed tail latency under fault (telemetry-instrumented)
// ---------------------------------------------------------------------

struct E9Window {
    name: &'static str,
    count: usize,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    max_us: f64,
}

fn e9_window(name: &'static str, mut lat_us: Vec<f64>) -> E9Window {
    lat_us.sort_by(f64::total_cmp);
    let pick = |q: f64| {
        if lat_us.is_empty() {
            0.0
        } else {
            lat_us[(q * (lat_us.len() - 1) as f64) as usize]
        }
    };
    E9Window {
        name,
        count: lat_us.len(),
        p50_us: pick(0.50),
        p99_us: pick(0.99),
        p999_us: pick(0.999),
        max_us: lat_us.last().copied().unwrap_or(0.0),
    }
}

/// Telemetry-overhead probe: ns per cache-hit read — the cheapest op
/// RAE serves, so the worst relative case for always-on instrumentation
/// — with the telemetry gate on vs off on the same mount. Min of
/// `rounds` interleaved rounds per setting to shed scheduler noise.
fn e9_cache_hit_ns_per_op(reads: usize, rounds: usize) -> (f64, f64) {
    let tele = rae_telemetry::Telemetry::new();
    let config = RaeConfig {
        telemetry: Some(Arc::clone(&tele)),
        ..RaeConfig::default()
    };
    let fs = mount_rae(fresh_device() as Arc<dyn BlockDevice>, config);
    let fd = fs
        .open("/hot", OpenFlags::RDWR | OpenFlags::CREATE)
        .expect("create");
    fs.write(fd, 0, &[42u8; 4096]).expect("write");
    for _ in 0..reads / 4 {
        fs.read(fd, 0, 4096).expect("warm-up read");
    }
    let mut best = [f64::INFINITY; 2];
    for _ in 0..rounds {
        for (slot, on) in [(0usize, true), (1usize, false)] {
            tele.set_enabled(on);
            let ((), d) = timed(|| {
                for _ in 0..reads {
                    fs.read(fd, 0, 4096).expect("read");
                }
            });
            best[slot] = best[slot].min(d.as_nanos() as f64 / reads as f64);
        }
    }
    tele.set_enabled(true);
    (best[0], best[1])
}

/// E9: the latency a client actually observes across a masked fault,
/// measured through the always-on telemetry layer. One deterministic
/// bug fires mid-run; the flight recorder's `RecoveryStarted` /
/// `RecoveryDone` timestamps carve the per-op samples into before /
/// during / after windows, and the histogram percentiles quantify how
/// recovery shows up as response-time tail. A second probe gates the
/// telemetry off to price the instrumentation itself against a 5 %
/// budget.
///
/// Side effect: writes `BENCH_tail_latency.json` into the working
/// directory (the committed artifact at the repo root).
#[must_use]
pub fn e9_tail_latency(scale: Scale, smoke: bool) -> String {
    use std::time::Instant;
    const OVERHEAD_BUDGET_PCT: f64 = 5.0;
    let ops = if smoke {
        400
    } else {
        scale.campaign_steps.min(2000)
    };
    let fault_at = ops / 2;
    let reads = if smoke { 20_000 } else { 100_000 };

    let tele = rae_telemetry::Telemetry::new();
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        9200,
        "mid-run",
        Site::DirModify,
        Trigger::PathContains(format!("f{fault_at:06}")),
        Effect::DetectedError,
    ));
    let config = RaeConfig {
        base: BaseFsConfig {
            faults,
            ..BaseFsConfig::default()
        },
        shadow: ShadowOpts {
            validate_image: false,
            ..ShadowOpts::default()
        },
        telemetry: Some(Arc::clone(&tele)),
        ..RaeConfig::default()
    };
    let fs = mount_rae(fresh_latency_device() as Arc<dyn BlockDevice>, config);

    // per-op (start_ns, latency_us) through create+write+close
    // transactions — the e4b workload, now timestamped on the
    // telemetry clock so samples line up with flight-recorder events
    let mut samples: Vec<(u64, u64, f64)> = Vec::with_capacity(ops);
    for i in 0..ops {
        let start_ns = tele.now_ns();
        let t0 = Instant::now();
        let fd = fs
            .open(&format!("/f{i:06}"), OpenFlags::RDWR | OpenFlags::CREATE)
            .expect("open");
        fs.write(fd, 0, &[7u8; 256]).expect("write");
        fs.close(fd).expect("close");
        let end_ns = tele.now_ns();
        samples.push((start_ns, end_ns, t0.elapsed().as_secs_f64() * 1e6));
    }
    let stats = fs.stats();
    assert_eq!(stats.recoveries, 1, "exactly one mid-run recovery");

    let (events, _dropped) = tele.timeline();
    let rec_start = events
        .iter()
        .rev()
        .find(|e| e.kind == rae_telemetry::EventKind::RecoveryStarted)
        .map(|e| e.ts_ns)
        .expect("recovery started event");
    let rec_done = events
        .iter()
        .rev()
        .find(|e| e.kind == rae_telemetry::EventKind::RecoveryDone)
        .map(|e| e.ts_ns)
        .expect("recovery done event");
    let rung = fs
        .recovery_reports()
        .last()
        .map_or("none", |r| r.rung.as_str());

    let mut before = Vec::new();
    let mut during = Vec::new();
    let mut after = Vec::new();
    for &(s, e, us) in &samples {
        if e <= rec_start {
            before.push(us);
        } else if s >= rec_done {
            after.push(us);
        } else {
            // the op's window overlaps the recovery (the triggering op
            // itself blocks across the whole incident)
            during.push(us);
        }
    }
    let windows = [
        e9_window("before", before),
        e9_window("during", during),
        e9_window("after", after),
    ];

    let (on_ns, off_ns) = e9_cache_hit_ns_per_op(reads, 3);
    let overhead_pct = (on_ns - off_ns) / off_ns.max(f64::MIN_POSITIVE) * 100.0;
    let within_budget = overhead_pct <= OVERHEAD_BUDGET_PCT;

    let mut out = format!(
        "E9: observed tail latency across a masked mid-run fault ({ops} ops, rung={rung})\n\
         window     count    p50_us    p99_us   p999_us    max_us\n"
    );
    for w in &windows {
        let _ = writeln!(
            out,
            "{:<9} {:>6} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            w.name, w.count, w.p50_us, w.p99_us, w.p999_us, w.max_us
        );
    }
    let _ = writeln!(
        out,
        "recovery window: {:.2} ms ({} -> {} on the telemetry clock)",
        (rec_done - rec_start) as f64 / 1e6,
        rec_start,
        rec_done
    );
    let _ = writeln!(
        out,
        "telemetry overhead on cache-hit reads: on={on_ns:.0} ns/op off={off_ns:.0} ns/op \
         ({overhead_pct:+.1}%, budget {OVERHEAD_BUDGET_PCT:.0}%, within={within_budget})"
    );

    let mut json = String::from("{\n  \"experiment\": \"e9_tail_latency\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"ops\": {ops},");
    let _ = writeln!(json, "  \"fault_op_index\": {fault_at},");
    let _ = writeln!(
        json,
        "  \"recovery\": {{\"rung\": \"{rung}\", \"start_ns\": {rec_start}, \"done_ns\": {rec_done}, \"duration_ms\": {:.3}}},",
        (rec_done - rec_start) as f64 / 1e6
    );
    json.push_str("  \"windows\": [\n");
    for (i, w) in windows.iter().enumerate() {
        let comma = if i + 1 < windows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"window\": \"{}\", \"count\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \"max_us\": {:.1}}}{comma}",
            w.name, w.count, w.p50_us, w.p99_us, w.p999_us, w.max_us
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"overhead\": {{\"telemetry_on_ns_per_op\": {on_ns:.0}, \"telemetry_off_ns_per_op\": {off_ns:.0}, \"overhead_pct\": {overhead_pct:.2}, \"budget_pct\": {OVERHEAD_BUDGET_PCT:.1}, \"within_budget\": {within_budget}}}"
    );
    json.push_str("}\n");
    match std::fs::write("BENCH_tail_latency.json", &json) {
        Ok(()) => {
            let _ = writeln!(out, "wrote BENCH_tail_latency.json");
        }
        Err(e) => {
            let _ = writeln!(out, "(could not write BENCH_tail_latency.json: {e})");
        }
    }
    out
}

// ---------------------------------------------------------------------
// Trusted-code accounting (§4.3: "We expect to quantify the code we
// trust (i.e., reused)")
// ---------------------------------------------------------------------

/// Lines of `src` outside `#[cfg(test)]` items: each such item — a
/// test module, a test-only helper in the middle of an `impl`, a
/// `mod x_tests;` declaration — is skipped whole, attribute included,
/// and counting resumes after it. Braces inside comments and string or
/// char literals do not count toward an item's extent.
#[must_use]
pub fn implementation_lines(src: &str) -> u64 {
    let mut total = 0;
    let mut test_item: Option<ItemScan> = None;
    for line in src.lines() {
        let rest = match &test_item {
            Some(_) => line,
            None => match line.trim_start().strip_prefix("#[cfg(test)]") {
                Some(rest) => {
                    test_item = Some(ItemScan::default());
                    rest
                }
                None => {
                    total += 1;
                    continue;
                }
            },
        };
        if test_item.as_mut().is_some_and(|scan| scan.ends_in(rest)) {
            test_item = None;
        }
    }
    total
}

/// Follows one item's text across lines to its end: the `;` of an item
/// without a body, or the `}` that closes its first `{`.
#[derive(Default)]
struct ItemScan {
    depth: u32,
    opened: bool,
    /// Inside a string literal: `Some(None)` for a plain one, `Some(Some(n))`
    /// for a raw one closed by `"` and `n` `#`s.
    string: Option<Option<usize>>,
    block_comments: u32,
}

impl ItemScan {
    /// Feed the next line; whether the item ends on it.
    fn ends_in(&mut self, line: &str) -> bool {
        let c: Vec<char> = line.chars().collect();
        let hashes_at = |i: usize| c.iter().skip(i).take_while(|&&h| h == '#').count();
        let mut i = 0;
        while i < c.len() {
            let next = c.get(i + 1).copied();
            if self.block_comments > 0 {
                if c[i] == '*' && next == Some('/') {
                    self.block_comments -= 1;
                    i += 1;
                } else if c[i] == '/' && next == Some('*') {
                    self.block_comments += 1;
                    i += 1;
                }
            } else if let Some(raw) = self.string {
                if c[i] == '\\' && raw.is_none() {
                    i += 1; // the escaped character
                } else if c[i] == '"' && hashes_at(i + 1) >= raw.unwrap_or(0) {
                    self.string = None;
                    i += raw.unwrap_or(0);
                }
            } else {
                let after_ident = i > 0 && (c[i - 1].is_alphanumeric() || c[i - 1] == '_');
                match c[i] {
                    '/' if next == Some('/') => return false,
                    '/' if next == Some('*') => {
                        self.block_comments = 1;
                        i += 1;
                    }
                    '"' => self.string = Some(None),
                    'r' if !after_ident && c.get(i + 1 + hashes_at(i + 1)) == Some(&'"') => {
                        let n = hashes_at(i + 1);
                        self.string = Some(Some(n));
                        i += n + 1;
                    }
                    // a char literal ('{', '\'', '\u{7b}'); a lifetime
                    // has no closing quote and falls through
                    '\'' if next == Some('\\') => {
                        let close = c.iter().skip(i + 3).position(|&q| q == '\'');
                        i += close.map_or(0, |p| p + 3);
                    }
                    '\'' if c.get(i + 2) == Some(&'\'') => i += 2,
                    '{' => {
                        self.depth += 1;
                        self.opened = true;
                    }
                    '}' => {
                        self.depth = self.depth.saturating_sub(1);
                        if self.opened && self.depth == 0 {
                            return true;
                        }
                    }
                    ';' if !self.opened => return true,
                    _ => {}
                }
            }
            i += 1;
        }
        false
    }
}

/// Walk the workspace sources and report lines of code per component,
/// classified by trust role: what must be correct for recovery to be
/// correct (the shadow, its spec, the shared format with fsck, and the
/// slim RAE runtime) versus the complex base the paper deliberately
/// does *not* trust.
#[must_use]
pub fn trust_accounting() -> String {
    // implementation lines only: dedicated test files are skipped, and
    // so is every `#[cfg(test)]` item in the rest
    fn loc(dir: &std::path::Path) -> u64 {
        let mut total = 0;
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    total += loc(&p);
                } else if p.extension().is_some_and(|x| x == "rs") {
                    let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                    if name.ends_with("tests.rs") {
                        continue; // dedicated test files
                    }
                    if let Ok(text) = std::fs::read_to_string(&p) {
                        total += implementation_lines(&text);
                    }
                }
            }
        }
        total
    }
    let ws = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/")
        .to_path_buf();
    let rows: [(&str, &str, &str); 10] = [
        (
            "fsformat",
            "trusted",
            "shared ABI + fsck: both filesystems and recovery depend on it",
        ),
        (
            "fsmodel",
            "trusted",
            "executable spec (the verification analog)",
        ),
        (
            "shadowfs",
            "trusted",
            "the robust alternative implementation",
        ),
        ("core", "trusted", "RAE runtime: log, detection, hand-off"),
        (
            "standby",
            "trusted",
            "warm standby: hands its shadow to recovery",
        ),
        ("vfs", "trusted", "shared types (passive)"),
        (
            "blockdev",
            "trusted",
            "device substrate (shared by both sides)",
        ),
        ("basefs", "untrusted", "the complex base RAE protects"),
        ("faults", "harness", "fault injection (test apparatus)"),
        ("workloads", "harness", "generators + differential driver"),
    ];
    let mut out = String::from(
        "Trusted-code accounting (implementation lines, tests excluded)\n\
         component   role       loc  note\n",
    );
    let mut trusted = 0u64;
    let mut untrusted = 0u64;
    for (name, role, note) in rows {
        let n = loc(&ws.join(name).join("src"));
        match role {
            "trusted" => trusted += n,
            "untrusted" => untrusted += n,
            _ => {}
        }
        let _ = writeln!(out, "{name:<11} {role:<9} {n:>5}  {note}");
    }
    let _ = writeln!(
        out,
        "\ntrusted total {trusted} loc vs untrusted base {untrusted} loc\n\
         (the paper's bet: the piece that must be *verified* — the shadow\n\
         and its spec — stays small and cache/concurrency-free, while the\n\
         passive shared substrate (types, format, fsck) is validated by\n\
         checksums, property tests, and the checker itself)"
    );
    out
}

/// Run everything, in experiment order.
#[must_use]
pub fn run_all(scale: Scale) -> String {
    let mut out = String::new();
    for section in [
        table1(),
        figure1(),
        e1_base_vs_shadow(scale),
        e2_rae_overhead(scale),
        e3_recovery_latency(scale),
        e3b_warm_recovery(scale),
        e4_availability(scale),
        e4b_latency_tail(scale),
        e4c_read_scaling(scale),
        e5_check_cost(scale),
        e6_differential(scale),
        e7_crafted_images(),
        e8_recovery_resilience(false),
        e9_tail_latency(scale, false),
        trust_accounting(),
    ] {
        out.push_str(&section);
        out.push('\n');
    }
    out
}
