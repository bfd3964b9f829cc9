//! The traced run (`--trace 1`): the same seeded streams replayed at
//! successively inner boundaries with spans on, and the per-layer
//! metrics read off them.
//!
//! ```text
//! Client::call -> Volume::apply -> RaeFs -> BaseFs -> SpanDisk
//!   srv-mixed only                 every workload
//! ```
//!
//! A layer's self time is its boundary's mean time per operation minus
//! the next inner boundary's; counts come from public snapshots taken on
//! both sides of the traced `RaeFs` phase.

use crate::calibrate::harness_ns_per_op;
use crate::load::{ThreadLog, WireTarget};
use crate::metrics::Outcome;
use crate::oracle::verify_rig;
use crate::rig::{device_over, Boundary, Rig, SERVER_VOLUMES};
use crate::run::{
    fresh_logs, fs_phase, fs_setup, median_ms, report_verdict, srv_phase, srv_setup, srv_verify,
    tally, Job, Leg, Length, Phase, ProbeLog,
};
use crate::spans::{render_trace, DevTotals, Span, Trace};
use crate::stats::percentile;
use crate::stream::THREADS;
use rae::{LadderRung, RecoveryReport};
use rae_blockdev::{MemDisk, BLOCK_SIZE};
use rae_shadowfs::{ShadowFs, ShadowOpts};
use std::sync::Arc;
use std::time::Instant;

/// Where a traced run leaves its spans (in the working directory).
pub const TRACE_FILE: &str = "raebench-trace.json";

/// Counters read on one side of a traced phase, summed over the rig's
/// volumes.
#[derive(Default)]
struct Snap {
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    dentry_hits: u64,
    dentry_misses: u64,
    checkpoints: u64,
    /// Journal commits as the mount's telemetry counted them: unlike
    /// `BaseFsStats::journal_commits` it survives contained reboots.
    commits: u64,
    batch_sum: u64,
    batch_n: u64,
    recoveries: u64,
    ops_masked: u64,
    rungs: [u64; 4],
    dev: DevTotals,
    user_bytes: u64,
    reports: Vec<RecoveryReport>,
}

fn snap(rig: &Rig) -> Snap {
    let mut s = Snap::default();
    for vol in &rig.vols {
        let b = vol.mount.base().stats();
        s.cache_hits += b.cache.hits;
        s.cache_misses += b.cache.misses;
        s.cache_evictions += b.cache.evictions;
        s.dentry_hits += b.dentry_hits;
        s.dentry_misses += b.dentry_misses;
        s.checkpoints += b.journal_checkpoints;
        s.user_bytes += vol.mount.base().counters().bytes_written();
        if let Some(fs) = vol.mount.rae() {
            let r = fs.stats();
            s.recoveries += r.recoveries;
            s.ops_masked += r.ops_masked;
            for (slot, n) in s.rungs.iter_mut().zip([
                r.ladder_warm,
                r.ladder_cold,
                r.ladder_cold_retry,
                r.ladder_degraded,
            ]) {
                *slot += n;
            }
            let telemetry = fs.telemetry().snapshot();
            s.commits += telemetry.journal_commit.count;
            s.batch_sum += telemetry.commit_batch.sum;
            s.batch_n += telemetry.commit_batch.samples;
            s.reports.extend(fs.recovery_reports());
        }
        if let Some(sd) = &vol.span_disk {
            let d = sd.totals();
            s.dev.reads += d.reads;
            s.dev.writes += d.writes;
            s.dev.flushes += d.flushes;
            s.dev.busy_ns += d.busy_ns;
        }
    }
    s
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ops(logs: &[ThreadLog]) -> u64 {
    logs.iter().map(|l| l.attempted).sum()
}

fn mean_us(logs: &[ThreadLog], pick: fn(&ThreadLog) -> u64) -> f64 {
    ratio(logs.iter().map(pick).sum(), ops(logs)) / 1e3
}

/// The traced `RaeFs` and `BaseFs` phases of any workload, and what
/// was read around the first.
struct FsLegs {
    rae_logs: Vec<ThreadLog>,
    rae: Phase,
    base_logs: Vec<ThreadLog>,
    base: Phase,
    before: Snap,
    after: Snap,
    mkfs_ms: f64,
    fsck_ms: f64,
    durable_writes: u64,
    /// The first volume's final image (for timing `ShadowFs::load`).
    image: Arc<MemDisk>,
}

fn traced_leg<'a>(
    firsts: &'a [u64],
    seconds: f64,
    trace: &'a Trace,
    name: &'static str,
) -> Leg<'a> {
    Leg {
        firsts,
        length: Length::Seconds(seconds),
        traced: Some((trace, name)),
    }
}

/// Replay the streams at the `RaeFs` boundary (`rae_s` seconds) and at
/// the `BaseFs` boundary (`base_s` seconds), each on a fresh rig with a
/// `SpanDisk` under the mount.
fn fs_legs(
    job: Job<'_>,
    trace: &Arc<Trace>,
    rae_s: f64,
    base_s: f64,
    out: &mut Outcome,
) -> Result<FsLegs, String> {
    let (rig, firsts, _) = fs_setup(job, Boundary::Rae, Some(trace), out)?;
    let mkfs_ms = rig.mkfs_s * 1e3;
    let mut rae_logs = fresh_logs(0);
    let before = snap(&rig);
    let leg = traced_leg(&firsts, rae_s, trace, "rae.op");
    let rae = fs_phase(job, &rig, Boundary::Rae, &leg, &mut rae_logs);
    let after = snap(&rig);
    tally(out, &rae_logs);
    let (verdict, mut images) = verify_rig(rig, job.spec, job.streams, &rae.ends);
    report_verdict(out, "RaeFs traced", verdict.problems);

    let (rig, firsts, _) = fs_setup(job, Boundary::Base, Some(trace), out)?;
    let mut base_logs = fresh_logs(0);
    let leg = traced_leg(&firsts, base_s, trace, "basefs.op");
    let base = fs_phase(job, &rig, Boundary::Base, &leg, &mut base_logs);
    tally(out, &base_logs);
    let (base_verdict, _) = verify_rig(rig, job.spec, job.streams, &base.ends);
    report_verdict(out, "BaseFs traced", base_verdict.problems);
    Ok(FsLegs {
        rae_logs,
        rae,
        base_logs,
        base,
        before,
        after,
        mkfs_ms,
        fsck_ms: verdict.fsck_ms,
        durable_writes: verdict.durable_writes,
        image: images.swap_remove(0),
    })
}

/// `shadowfs.load_ms`: the median cold recovery's shadow load when
/// there were recoveries, otherwise `ShadowFs::load` timed directly on
/// the final image behind the same device model.
fn shadow_load_ms(job: Job<'_>, cold: &[RecoveryReport], image: &Arc<MemDisk>) -> f64 {
    if !cold.is_empty() {
        return median_ms(cold, |r| r.shadow_load_time);
    }
    let dev = device_over(image, job.spec);
    let t0 = Instant::now();
    let loaded = ShadowFs::load(dev, ShadowOpts::default());
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if loaded.is_ok() {
        ms
    } else {
        f64::NAN
    }
}

/// Every filesystem-side layer metric, from the two traced phases.
fn fs_layers(out: &mut Outcome, job: Job<'_>, legs: &FsLegs) {
    let (b, a) = (&legs.before, &legs.after);
    let rae_us = mean_us(&legs.rae_logs, |l| l.busy_ns);
    let base_us = mean_us(&legs.base_logs, |l| l.busy_ns);
    // what is subtracted from BaseFs is the device time on the calling
    // thread only: write-back workers' device time is not on an
    // operation's critical path
    out.layer("rae.self_us_per_op", rae_us - base_us);
    out.layer(
        "basefs.self_us_per_op",
        base_us - mean_us(&legs.base_logs, |l| l.dev_ns),
    );

    let (hits, misses) = (a.cache_hits - b.cache_hits, a.cache_misses - b.cache_misses);
    out.layer("basefs.cache_hit_ratio", ratio(hits, hits + misses));
    out.layer(
        "basefs.cache_evictions",
        (a.cache_evictions - b.cache_evictions) as f64,
    );
    let (dh, dm) = (
        a.dentry_hits - b.dentry_hits,
        a.dentry_misses - b.dentry_misses,
    );
    out.layer("basefs.dentry_hit_ratio", ratio(dh, dh + dm));
    out.layer("basefs.journal_commits", (a.commits - b.commits) as f64);
    // the journal manager, and this counter with it, is rebuilt by
    // every contained reboot: on the fault workloads this counts
    // checkpoints since the last recovery
    out.layer(
        "basefs.journal_checkpoints",
        a.checkpoints.saturating_sub(b.checkpoints) as f64,
    );
    out.layer(
        "basefs.commit_batch_mean",
        ratio(a.batch_sum - b.batch_sum, a.batch_n - b.batch_n),
    );

    let rae_ops = ops(&legs.rae_logs);
    let writes = a.dev.writes - b.dev.writes;
    out.layer("blockdev.reads", (a.dev.reads - b.dev.reads) as f64);
    out.layer("blockdev.writes", writes as f64);
    out.layer("blockdev.flushes", (a.dev.flushes - b.dev.flushes) as f64);
    out.layer(
        "blockdev.busy_us_per_op",
        ratio(a.dev.busy_ns - b.dev.busy_ns, rae_ops) / 1e3,
    );
    out.layer(
        "blockdev.write_amp",
        ratio(writes * BLOCK_SIZE as u64, a.user_bytes - b.user_bytes),
    );

    out.layer("rae.recoveries", (a.recoveries - b.recoveries) as f64);
    out.layer("rae.ops_masked", (a.ops_masked - b.ops_masked) as f64);
    for (name, i) in [
        ("rae.rung_warm", 0),
        ("rae.rung_cold", 1),
        ("rae.rung_cold_retry", 2),
        ("rae.rung_degraded", 3),
    ] {
        out.layer(name, (a.rungs[i] - b.rungs[i]) as f64);
    }
    let ProbeLog { log_len, lag_max } = &legs.rae.probes;
    let mut log_len = log_len.clone();
    log_len.sort_unstable();
    out.layer(
        "rae.log_len_at_fault",
        log_len.get(log_len.len() / 2).copied().unwrap_or(0) as f64,
    );

    let reports = &a.reports[b.reports.len()..];
    let (warm, cold): (Vec<RecoveryReport>, Vec<RecoveryReport>) = reports
        .iter()
        .cloned()
        .partition(|r| r.rung == LadderRung::Warm);
    out.layer("rae.handoff_ms", median_ms(reports, |r| r.handoff_time));
    let replayed: u64 = cold.iter().map(|r| r.records_replayed).sum();
    let replay_ns: u64 = cold.iter().map(|r| r.replay_time.as_nanos() as u64).sum();
    out.layer("shadowfs.load_ms", shadow_load_ms(job, &cold, &legs.image));
    out.layer(
        "shadowfs.replay_us_per_record",
        ratio(replay_ns, replayed) / 1e3,
    );
    out.layer(
        "shadowfs.checks_per_record",
        ratio(cold.iter().map(|r| r.shadow_checks).sum(), replayed),
    );
    out.layer("standby.lag_max", *lag_max as f64);
    out.layer(
        "standby.drained_at_handover",
        ratio(
            warm.iter().map(|r| r.records_replayed).sum(),
            warm.len() as u64,
        ),
    );
    out.layer("fsformat.mkfs_ms", legs.mkfs_ms);
    out.layer("fsformat.fsck_ms", legs.fsck_ms);
    out.layer("fsformat.reboot_ms", median_ms(reports, |r| r.reboot_time));
    out.layer(
        "fsformat.journal_txns_replayed",
        reports
            .iter()
            .map(|r| r.journal_transactions_replayed)
            .sum::<u64>() as f64,
    );
    out.layer("bench.durable_writes_verified", legs.durable_writes as f64);
}

/// What the outermost boundary showed with and without tracing.
fn outermost(out: &mut Outcome, plain: (&[ThreadLog], &Phase), traced: (&[ThreadLog], &Phase)) {
    let windows = ThreadLog::windows(traced.0);
    out.layer(
        "rae.unavail_p90_ms",
        if windows.is_empty() {
            0.0
        } else {
            percentile(&windows, 90, 100) as f64 / 1e6
        },
    );
    let plain_rate = ops(plain.0) as f64 / plain.1.wall_s;
    let traced_rate = ops(traced.0) as f64 / traced.1.wall_s;
    out.layer("bench.traced_ops", ops(traced.0) as f64);
    out.layer(
        "bench.trace_overhead_pct",
        (plain_rate - traced_rate) / plain_rate * 100.0,
    );
}

fn write_trace(job: Job<'_>, mut spans: Vec<Span>, out: &mut Outcome) {
    spans.sort_by_key(|s| (s.start_ns, s.id));
    match std::fs::write(
        TRACE_FILE,
        render_trace(job.spec.name, job.cfg.seed, &spans),
    ) {
        Ok(()) => out
            .notes
            .push(format!("{} spans written to {TRACE_FILE}", spans.len())),
        Err(e) => out.problems.push(format!("cannot write {TRACE_FILE}: {e}")),
    }
}

/// In process: a quarter of `--seconds` untraced at `RaeFs`, half
/// traced at `RaeFs`, a quarter traced at `BaseFs`.
pub fn fs_traced(job: Job<'_>, out: &mut Outcome) -> Result<(), String> {
    let seconds = job.cfg.seconds;
    let trace = Trace::new(Instant::now());

    let (rig, firsts, _) = fs_setup(job, Boundary::Rae, None, out)?;
    let mut plain_logs = fresh_logs(0);
    let leg = Leg {
        firsts: &firsts,
        length: Length::Seconds(seconds / 4.0),
        traced: None,
    };
    let plain = fs_phase(job, &rig, Boundary::Rae, &leg, &mut plain_logs);
    tally(out, &plain_logs);
    let (verdict, _) = verify_rig(rig, job.spec, job.streams, &plain.ends);
    report_verdict(out, "RaeFs untraced", verdict.problems);

    let legs = fs_legs(job, &trace, seconds / 2.0, seconds / 4.0, out)?;
    for name in [
        "server.self_us_per_op",
        "server.requests",
        "server.refusals",
    ] {
        out.layer(name, 0.0); // no server in this workload
    }
    fs_layers(out, job, &legs);
    outermost(out, (&plain_logs, &plain), (&legs.rae_logs, &legs.rae));
    out.layer(
        "bench.harness_ns_per_op",
        harness_ns_per_op(&job.streams[THREADS - 1]),
    );

    let mut spans = trace.take();
    spans.extend(legs.rae.spans);
    spans.extend(legs.base.spans);
    write_trace(job, spans, out);
    Ok(())
}

/// `srv-mixed`: a fifth of `--seconds` each for `Client::call`
/// untraced and traced, `Volume::apply` on the same server's volumes,
/// and `RaeFs` and `BaseFs` on benchmark-owned volumes of the server's
/// geometry.
pub fn srv_traced(job: Job<'_>, out: &mut Outcome) -> Result<(), String> {
    let slice = job.cfg.seconds / 5.0;
    let trace = Trace::new(Instant::now());

    let (rig, targets, firsts, _) = srv_setup(job, out)?;
    let mut plain_logs = fresh_logs(0);
    let leg = Leg {
        firsts: &firsts,
        length: Length::Seconds(slice),
        traced: None,
    };
    let (plain, targets) = srv_phase(job, &rig, &leg, &mut plain_logs, targets);
    tally(out, &plain_logs);

    let mut call_logs = fresh_logs(0);
    let leg = traced_leg(&plain.ends, slice, &trace, "server.call");
    let (call, targets) = srv_phase(job, &rig, &leg, &mut call_logs, targets);
    tally(out, &call_logs);
    drop(targets);

    let volumes: Vec<_> = (0..SERVER_VOLUMES as u32)
        .filter_map(|id| rig.server.manager().get(id))
        .collect();
    if volumes.len() != SERVER_VOLUMES {
        return Err("a server volume went missing".to_string());
    }
    let applies = (0..THREADS)
        .map(|_| WireTarget::Apply(volumes.clone()))
        .collect();
    drop(volumes);
    let mut apply_logs = fresh_logs(0);
    let leg = traced_leg(&call.ends, slice, &trace, "server.apply");
    let (apply, applies) = srv_phase(job, &rig, &leg, &mut apply_logs, applies);
    tally(out, &apply_logs);
    // the volume handles must be gone before shutdown can unmount cleanly
    drop(applies);
    let counters = srv_verify(job, rig, &apply.ends, out);

    let legs = fs_legs(job, &trace, slice, slice, out)?;
    out.layer(
        "server.self_us_per_op",
        mean_us(&call_logs, |l| l.busy_ns) - mean_us(&apply_logs, |l| l.busy_ns),
    );
    out.layer("server.requests", counters.requests as f64);
    out.layer("server.refusals", counters.refusals as f64);
    fs_layers(out, job, &legs);
    outermost(out, (&plain_logs, &plain), (&call_logs, &call));
    out.layer(
        "bench.harness_ns_per_op",
        harness_ns_per_op(&job.streams[0]),
    );

    let mut spans = trace.take();
    for phase in [call, apply, legs.rae, legs.base] {
        spans.extend(phase.spans);
    }
    write_trace(job, spans, out);
    Ok(())
}
