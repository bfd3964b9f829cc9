//! End-to-end telemetry: flight-recorder timelines, per-class latency
//! histograms, per-rung recovery timing, per-layer attribution that
//! sums to the end-to-end latency across a masked fault, and the
//! counter-visibility guarantee (stats bumped inside a failing rung
//! must survive the unwind).

use rae::{LadderRung, RaeConfig, RaeFs};
use rae_basefs::BaseFsConfig;
use rae_blockdev::{BlockDevice, MemDisk};
use rae_faults::{BugSpec, Effect, FaultRegistry, Site, Trigger};
use rae_fsformat::{mkfs, MkfsParams};
use rae_telemetry::{EventKind, OpClass, SpanLayer, Telemetry};
use rae_vfs::{FileSystem, OpenFlags};
use std::sync::Arc;

fn setup(faults: FaultRegistry) -> RaeFs {
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
    RaeFs::mount(dev as Arc<dyn BlockDevice>, config).unwrap()
}

#[test]
fn timeline_renders_a_coherent_incident() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        7,
        "boom-panic",
        Site::DirModify,
        Trigger::PathContains("boom".into()),
        Effect::Panic,
    ));
    let fs = setup(faults);

    fs.mkdir("/fine").unwrap();
    fs.mkdir("/boom").unwrap(); // panic → masked by recovery
    assert!(fs.stat("/boom").is_ok());

    let tele = fs.telemetry();
    let (events, dropped) = tele.timeline();
    assert_eq!(dropped, 0);
    let pos = |kind: EventKind| events.iter().position(|e| e.kind == kind);
    let panic_at = pos(EventKind::PanicCaught).expect("panic event");
    let start_at = pos(EventKind::RecoveryStarted).expect("start event");
    let rung_at = pos(EventKind::RungEntered).expect("rung event");
    let done_at = pos(EventKind::RecoveryDone).expect("done event");
    assert!(
        panic_at < start_at && start_at < rung_at && rung_at < done_at,
        "incident order: panic → start → rung → done"
    );
    // monotone timestamps and a cold-rung terminal code
    assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    assert_eq!(events[done_at].a, LadderRung::Cold.code());

    let rendered = rae_telemetry::render_timeline(&events, dropped);
    assert!(rendered.contains("panic caught"), "{rendered}");
    assert!(rendered.contains("recovery started"), "{rendered}");
    assert!(rendered.contains("rung entered: cold"), "{rendered}");
    assert!(rendered.contains("recovery done"), "{rendered}");
}

#[test]
fn api_boundary_histograms_count_per_class() {
    let fs = setup(FaultRegistry::new());
    fs.mkdir("/d").unwrap();
    let fd = fs
        .open("/d/f", OpenFlags::RDWR | OpenFlags::CREATE)
        .unwrap();
    fs.write(fd, 0, b"hello").unwrap();
    fs.read(fd, 0, 5).unwrap();
    fs.read(fd, 0, 5).unwrap();
    fs.stat("/d/f").unwrap();
    fs.readdir("/d").unwrap();
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();
    fs.unlink("/d/f").unwrap();

    let tele = fs.telemetry();
    assert_eq!(tele.op_histogram(OpClass::Read).count(), 2);
    assert_eq!(tele.op_histogram(OpClass::Write).count(), 1);
    assert_eq!(tele.op_histogram(OpClass::Create).count(), 2); // mkdir + create
    assert_eq!(tele.op_histogram(OpClass::Unlink).count(), 1);
    assert_eq!(tele.op_histogram(OpClass::Readdir).count(), 1);
    assert_eq!(tele.op_histogram(OpClass::Fsync).count(), 1);
    assert!(tele.op_histogram(OpClass::Stat).count() >= 1);
    // journal commits happened (mkdir/create paths force them eventually)
    let snap = tele.snapshot();
    assert!(snap.ops.iter().any(|(_, s)| s.count > 0));
}

#[test]
fn per_rung_durations_reported_and_failed_rungs_timed() {
    // first (cold) shadow replay fails once; the cold-retry rung lands
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        11,
        "dir-bug",
        Site::DirModify,
        Trigger::PathContains("boom".into()),
        Effect::DetectedError,
    ));
    faults.arm(BugSpec::new(
        12,
        "replay-bug-once",
        Site::RecoveryReplay,
        Trigger::NthMatch(1),
        Effect::DetectedError,
    ));
    let fs = setup(faults);

    fs.mkdir("/ok").unwrap();
    fs.mkdir("/boom").unwrap(); // recovery: cold fails, cold_retry lands

    let reports = fs.recovery_reports();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.rung, LadderRung::ColdRetry);
    assert_eq!(r.failed_rungs.len(), 1);
    assert_eq!(r.failed_rungs[0].rung, LadderRung::Cold);
    assert!(r.failed_rungs[0].duration.as_nanos() > 0);
    assert!(r.rung_time.as_nanos() > 0);
    assert!(r.duration >= r.rung_time);

    let stats = fs.stats();
    assert!(stats.rung_cold_time_ns > 0);
    assert!(stats.rung_cold_retry_time_ns > 0);
    assert_eq!(stats.rung_warm_time_ns, 0);
    // the lump field is kept and covers at least the rung breakdown
    assert!(stats.recovery_time_ns >= stats.rung_cold_time_ns + stats.rung_cold_retry_time_ns);
}

#[test]
fn counters_bumped_inside_failing_rungs_stay_visible() {
    // every rung panics: the ladder runs all the way to degraded, and
    // every panic caught inside a failed rung must still be counted
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        21,
        "dir-bug",
        Site::DirModify,
        Trigger::PathContains("boom".into()),
        Effect::DetectedError,
    ));
    faults.arm(BugSpec::new(
        22,
        "replay-panics-always",
        Site::RecoveryReplay,
        Trigger::Always,
        Effect::Panic,
    ));
    let fs = setup(faults);

    fs.mkdir("/ok").unwrap();
    let _ = fs.mkdir("/boom"); // ladder: cold panics, cold_retry panics, degrade

    let stats = fs.stats();
    assert_eq!(stats.detected_errors, 1);
    assert!(
        stats.panics_caught >= 2,
        "panics inside failed rungs must stay counted: {}",
        stats.panics_caught
    );
    assert!(stats.degraded);
    assert_eq!(stats.ladder_degraded, 1);
    let reports = fs.recovery_reports();
    let r = reports.last().unwrap();
    assert_eq!(r.rung, LadderRung::Degraded);
    assert!(r.failed_rungs.iter().all(|f| f.duration.as_nanos() > 0));

    let (events, _) = fs.telemetry().timeline();
    let failed: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::RungFailed)
        .collect();
    assert!(failed.len() >= 2, "both shadow rungs recorded failures");
    assert!(events.iter().any(|e| e.kind == EventKind::Degraded));
}

#[test]
fn trace_ids_cross_every_layer_and_filter_the_timeline() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        41,
        "traced-bug",
        Site::DirModify,
        Trigger::PathContains("traced".into()),
        Effect::DetectedError,
    ));
    faults.arm(BugSpec::new(
        42,
        "ambient-bug",
        Site::DirModify,
        Trigger::PathContains("ambient".into()),
        Effect::DetectedError,
    ));
    let fs = setup(faults);

    // one traced request whose masked fault drives the full incident
    // pipeline, bracketed by an identical *untraced* incident
    fs.mkdir("/ambient-boom").unwrap();
    rae_telemetry::set_current_trace(42);
    fs.mkdir("/traced-boom").unwrap();
    rae_telemetry::clear_current_trace();

    let (events, dropped) = fs.telemetry().timeline();
    let traced: Vec<_> = events.iter().filter(|e| e.trace_id == 42).collect();
    assert!(
        traced.iter().any(|e| e.kind == EventKind::ErrorDetected),
        "detection stamped with the request trace"
    );
    assert!(
        traced.iter().any(|e| e.kind == EventKind::RecoveryDone),
        "recovery completion stamped with the request trace"
    );
    // events caused by other requests never leak into the trace
    assert!(events.iter().any(|e| e.trace_id == 0));

    let rendered = rae_telemetry::render_trace_timeline(&events, dropped, 42);
    assert!(rendered.starts_with("trace 42:"), "{rendered}");
    assert!(rendered.contains("error detected"), "{rendered}");
    assert!(rendered.contains("recovery done"), "{rendered}");
    let empty = rae_telemetry::render_trace_timeline(&events, dropped, 9999);
    assert!(
        empty.contains("no retained events for trace 9999"),
        "{empty}"
    );
}

#[test]
fn attribution_vectors_cover_the_mutation_path() {
    let fs = setup(FaultRegistry::new());
    let fd = fs.open("/f", OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
    for i in 0..32u64 {
        fs.write(fd, i * 512, &[i as u8; 512]).unwrap();
    }
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();

    let snap = fs.telemetry().snapshot();
    // every mutation is always-timed, so the attribution plane has the
    // same order of samples as the op histograms
    let attr_total: u64 = snap.attribution.iter().map(|(_, s)| s.count).sum();
    assert!(attr_total > 0, "attribution recorded: {snap:?}");
    let journal = snap
        .attribution
        .iter()
        .find(|(name, _)| *name == "journal_io")
        .map(|(_, s)| s.count)
        .unwrap_or(0);
    assert!(journal > 0, "journal layer attributed: {snap:?}");
    // the rendered snapshot carries the attr rows for `top`
    let table = snap.render_table();
    assert!(table.contains("attr/"), "{table}");
}

/// Nanoseconds booked so far to the per-layer attribution histograms
/// and to the API-boundary op histograms.
fn attributed_and_end_to_end_ns(tele: &Telemetry) -> (u64, u64) {
    let attributed = SpanLayer::ALL
        .iter()
        .map(|&layer| tele.attr_histogram(layer).sum())
        .sum();
    let end_to_end = OpClass::ALL
        .iter()
        .map(|&class| tele.op_histogram(class).sum())
        .sum();
    (attributed, end_to_end)
}

#[test]
fn attribution_mass_matches_end_to_end_across_a_masked_fault() {
    let faults = FaultRegistry::new();
    faults.arm(BugSpec::new(
        51,
        "mid-stream",
        Site::DirModify,
        Trigger::PathContains("f0100".into()),
        Effect::Panic,
    ));
    let fs = setup(faults);
    let tele = fs.telemetry();
    let stream = |files: std::ops::Range<u32>| {
        for i in files {
            let path = format!("/f{i:04}");
            let fd = fs.open(&path, OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
            fs.write(fd, 0, &[i as u8; 1024]).unwrap();
            fs.read(fd, 0, 1024).unwrap();
            fs.close(fd).unwrap();
            fs.stat(&path).unwrap();
        }
    };

    stream(0..100);
    let before = attributed_and_end_to_end_ns(&tele);
    stream(100..200); // creating /f0100 panics; recovery masks it
    let after = attributed_and_end_to_end_ns(&tele);
    assert_eq!(fs.stats().recoveries, 1, "the mid-stream fault recovered");

    let across = (after.0 - before.0, after.1 - before.1);
    for (window, (attributed, end_to_end)) in [("before", before), ("across the fault", across)] {
        assert!(end_to_end > 0, "window '{window}' recorded nothing");
        let ratio = attributed as f64 / end_to_end as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "window '{window}': attribution mass {attributed} ns vs end-to-end mass \
             {end_to_end} ns (ratio {ratio:.3})"
        );
    }
}
