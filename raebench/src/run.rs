//! One run of one workload: set-up, warm-up, the timed phase, the
//! end-to-end metrics, and the output oracle. The traced run, which
//! replays the same streams at inner boundaries for the per-layer
//! metrics, is in `layers.rs` and builds on the phases defined here.

use crate::load::{
    drive, Board, Drive, FsExec, ThreadLog, Until, WireExec, WireTarget, SAMPLE_CAP,
};
use crate::metrics::Outcome;
use crate::oracle::{check_image, expected_server_trees, verify_rig};
use crate::rig::{Boundary, Rig, SrvRig, SERVER_VOLUMES};
use crate::spans::{Span, Trace};
use crate::stats::{median, percentile, tail_percentile};
use crate::stream::{
    generate_all, stream_hash, Kind, Op, Spec, KIND_NAMES, READER_THINK_NS, STREAM_LEN, THREADS,
};
use rae::RecoveryReport;
use rae_blockdev::BlockDevice;
use rae_faults::{BugSpec, Effect, FaultRegistry, Site, Trigger};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rigs built per untraced run; `setup_s` is the median.
const SETUPS: usize = 3;

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks warm-up op counts (`--smoke` runs at 1/100).
    pub scale: f64,
}

impl Cfg {
    /// At smoke scale the file sets and probe periods shrink too, so
    /// that set-up takes a fraction of a second and even a very short
    /// timed phase sees probes. Plumbing only: the numbers of a smoke
    /// run mean nothing.
    fn sized(&self, spec: &Spec) -> Spec {
        if self.scale >= 1.0 {
            return *spec;
        }
        Spec {
            files: (spec.files / 16).max(8),
            probe_every: spec.probe_every / 16,
            ..*spec
        }
    }
}

/// What every step of a run needs to know.
#[derive(Clone, Copy)]
pub struct Job<'a> {
    pub spec: &'a Spec,
    pub cfg: &'a Cfg,
    /// One generated stream per load thread.
    pub streams: &'a [Vec<Op>],
}

impl Job<'_> {
    /// Fault workloads arm a bug at every probe of the `RaeFs` boundary.
    pub fn injects(&self) -> bool {
        matches!(self.spec.kind, Kind::Fault { .. })
    }

    fn warmup_ops(&self) -> u64 {
        ((self.spec.warmup_ops as f64 * self.cfg.scale) as u64).max(10)
    }
}

/// Run `spec` once.
pub fn run(spec: &Spec, cfg: &Cfg) -> Outcome {
    let spec = &cfg.sized(spec);
    let streams = generate_all(spec, cfg.seed, STREAM_LEN);
    let job = Job {
        spec,
        cfg,
        streams: &streams,
    };
    let mut out = Outcome::default();
    out.notes.push(format!("{}: {}", spec.name, spec.why));
    let device = if spec.kind == Kind::Server {
        format!("{SERVER_VOLUMES} x 16 MiB bare MemDisk volumes (the server's own)")
    } else {
        format!(
            "64 MiB MemDisk + {} us read / {} us write latency",
            spec.device_ns.0 / 1000,
            spec.device_ns.1 / 1000
        )
    };
    out.notes.push(format!(
        "seed {} stream hash {:016x}; closed loop, {THREADS} load threads; device {device}; \
         page cache 2048 blocks = 8 MiB",
        cfg.seed,
        stream_hash(&streams)
    ));
    let result = match (spec.kind, cfg.trace) {
        (Kind::Server, false) => srv_untraced(job, &mut out),
        (Kind::Server, true) => crate::layers::srv_traced(job, &mut out),
        (_, false) => fs_untraced(job, &mut out),
        (_, true) => crate::layers::fs_traced(job, &mut out),
    };
    out.problems.extend(result.err());
    if out.attempted == 0 {
        out.problems.push("no operation was attempted".to_string());
    }
    if out.failed > 0 {
        out.problems
            .push(format!("{} operation(s) failed", out.failed));
    }
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        out.problems
            .push(format!("metric {} is not finite", m.name));
    }
    out
}

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

/// When a phase ends: after thread 0 has run so many operations (the
/// warm-up), or after so many seconds (a timed phase).
#[derive(Debug, Clone, Copy)]
pub enum Length {
    Ops(u64),
    Seconds(f64),
}

/// One phase of load on a rig.
pub struct Leg<'a> {
    /// Running stream index each thread starts at.
    pub firsts: &'a [u64],
    pub length: Length,
    /// Record spans under this name into this trace, and sample the
    /// op-log length and standby lag at each probe.
    pub traced: Option<(&'a Trace, &'static str)>,
}

/// What thread 0's probe hook saw.
#[derive(Debug, Default)]
pub struct ProbeLog {
    pub log_len: Vec<u64>,
    pub lag_max: u64,
}

/// What a phase leaves behind besides the threads' logs.
pub struct Phase {
    pub wall_s: f64,
    /// Running stream index each thread stopped at.
    pub ends: Vec<u64>,
    pub spans: Vec<Span>,
    pub probes: ProbeLog,
}

fn arm_fault(faults: &FaultRegistry, nth: u64) -> u32 {
    // alternate the two ways a base bug surfaces: an error return from
    // the allocator and a panic during path lookup; scoped to the churn
    // subtree so it fires in the probe operation itself
    let (id, name, site, effect) = if nth.is_multiple_of(2) {
        (1, "alloc-error", Site::Alloc, Effect::DetectedError)
    } else {
        (2, "lookup-panic", Site::PathLookup, Effect::Panic)
    };
    let trigger = Trigger::All(vec![
        Trigger::PathContains("churn".to_string()),
        Trigger::NthMatch(1),
    ]);
    faults.arm(BugSpec::new(id, name, site, trigger, effect));
    id
}

/// The part of a [`Drive`] that is the same for every thread of a phase.
struct Common<'a> {
    job: Job<'a>,
    leg: &'a Leg<'a>,
    epoch: Instant,
    start: Instant,
    board: Board,
}

impl<'a> Common<'a> {
    fn new(job: Job<'a>, leg: &'a Leg<'a>) -> Common<'a> {
        let start = Instant::now();
        let epoch = leg.traced.map_or(start, |(trace, _)| trace.epoch);
        if let Some((trace, _)) = leg.traced {
            trace.set_recording(true);
        }
        Common {
            job,
            leg,
            epoch,
            start,
            board: Board::new(THREADS, (start - epoch).as_nanos() as u64),
        }
    }

    fn drive(&self, t: usize) -> Drive<'_> {
        let spec = self.job.spec;
        Drive {
            stream: &self.job.streams[t],
            first: self.leg.firsts[t],
            until: match self.leg.length {
                Length::Ops(n) => Until::Ops(n),
                Length::Seconds(s) => Until::Deadline(self.start + Duration::from_secs_f64(s)),
            },
            epoch: self.epoch,
            thread: t,
            board: &self.board,
            sample_every: spec.sample_every as u64,
            think: (t != 0 && self.job.injects()).then_some(Duration::from_nanos(READER_THINK_NS)),
            windows: self.job.injects(),
            probe_every: if t == 0 { spec.probe_every as u64 } else { 0 },
            probe: None,
            span: self.leg.traced.map(|(_, name)| name),
        }
    }

    /// Fold the threads' `(end index, spans, finish time, probe log)`.
    fn finish(self, mut results: Vec<(u64, Vec<Span>, Instant, ProbeLog)>) -> Phase {
        if let Some((trace, _)) = self.leg.traced {
            trace.set_recording(false);
        }
        let finished = results.iter().map(|r| r.2).max().unwrap_or(self.start);
        Phase {
            wall_s: (finished - self.start).as_secs_f64(),
            ends: results.iter().map(|r| r.0).collect(),
            probes: std::mem::take(&mut results[0].3),
            spans: results.into_iter().flat_map(|r| r.1).collect(),
        }
    }
}

/// Run one phase of an in-process workload: every thread drives its
/// stream through the `FileSystem` trait of `rig`'s mounts.
pub fn fs_phase(
    job: Job<'_>,
    rig: &Rig,
    boundary: Boundary,
    leg: &Leg<'_>,
    logs: &mut [ThreadLog],
) -> Phase {
    let fss = rig.fss();
    let verify_reads = matches!(job.spec.kind, Kind::Read | Kind::Fault { .. });
    let inject = job.injects() && boundary == Boundary::Rae;
    let common = Common::new(job, leg);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = logs
            .iter_mut()
            .enumerate()
            .map(|(t, log)| {
                let (fss, common) = (&fss, &common);
                s.spawn(move || {
                    let mut exec = FsExec::new(fss, &rig.tables[t], &rig.churn, verify_reads);
                    let vol = &rig.vols[0];
                    let mut seen = ProbeLog::default();
                    let mut armed = 0;
                    let mut hook = |before: bool, i: u64| {
                        if !before {
                            vol.faults.disarm(armed);
                            return;
                        }
                        if let (Some(_), Some(fs)) = (leg.traced, vol.mount.rae()) {
                            seen.log_len.push(fs.stats().log_len as u64);
                            seen.lag_max = seen.lag_max.max(fs.standby_status().lag);
                        }
                        armed = arm_fault(&vol.faults, i / job.spec.probe_every as u64);
                    };
                    let mut d = common.drive(t);
                    if inject && t == 0 {
                        d.probe = Some(&mut hook);
                    }
                    let (end, spans) = drive(d, log, |op| exec.exec(op));
                    (end, spans, Instant::now(), seen)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    common.finish(results)
}

/// Run one phase of `srv-mixed` at a server-side boundary: connection
/// `t` drives `targets[t]`. Hands the targets back (the connections
/// stay open across phases).
pub fn srv_phase(
    job: Job<'_>,
    rig: &SrvRig,
    leg: &Leg<'_>,
    logs: &mut [ThreadLog],
    targets: Vec<WireTarget>,
) -> (Phase, Vec<WireTarget>) {
    let common = Common::new(job, leg);
    let (results, targets) = std::thread::scope(|s| {
        let handles: Vec<_> = logs
            .iter_mut()
            .zip(targets)
            .enumerate()
            .map(|(t, (log, target))| {
                let common = &common;
                s.spawn(move || {
                    let mut exec = WireExec::new(target, &rig.tables[t]);
                    let (end, spans) = drive(common.drive(t), log, |op| exec.exec(op));
                    let done = (end, spans, Instant::now(), ProbeLog::default());
                    (done, exec.target)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .unzip()
    });
    (common.finish(results), targets)
}

pub fn fresh_logs(cap: usize) -> Vec<ThreadLog> {
    (0..THREADS)
        .map(|_| ThreadLog::with_capacity(cap))
        .collect()
}

pub fn tally(out: &mut Outcome, logs: &[ThreadLog]) {
    out.attempted += logs.iter().map(|l| l.attempted).sum::<u64>();
    out.failed += logs.iter().map(|l| l.failed).sum::<u64>();
}

/// Build an in-process rig and warm it up; returns the rig, where each
/// thread's stream stands, and how long it all took.
pub fn fs_setup(
    job: Job<'_>,
    boundary: Boundary,
    trace: Option<&Arc<Trace>>,
    out: &mut Outcome,
) -> Result<(Rig, Vec<u64>, f64), String> {
    let t0 = Instant::now();
    let rig = Rig::build(job.spec, boundary, trace).map_err(|e| format!("set-up failed: {e}"))?;
    let mut idle = fresh_logs(0);
    let leg = Leg {
        firsts: &[0; THREADS],
        length: Length::Ops(job.warmup_ops()),
        traced: None,
    };
    let warm = fs_phase(job, &rig, boundary, &leg, &mut idle);
    if let Some(fs) = rig.vols[0].mount.rae() {
        // let the standby catch up, so the timed phase starts warm
        let patience = Instant::now() + Duration::from_secs(5);
        while fs.standby_status().lag > 0 && Instant::now() < patience {
            std::thread::yield_now();
        }
    }
    out.failed += idle.iter().map(|l| l.failed).sum::<u64>();
    Ok((rig, warm.ends, t0.elapsed().as_secs_f64()))
}

/// Start a server, connect, and warm up; as [`fs_setup`].
pub fn srv_setup(
    job: Job<'_>,
    out: &mut Outcome,
) -> Result<(SrvRig, Vec<WireTarget>, Vec<u64>, f64), String> {
    let t0 = Instant::now();
    let rig = SrvRig::build(job.spec, job.cfg.seed)?;
    let mut targets = Vec::with_capacity(THREADS);
    for _ in 0..THREADS {
        targets.push(WireTarget::Call(rig.connect()?));
    }
    let mut idle = fresh_logs(0);
    let leg = Leg {
        firsts: &[0; THREADS],
        length: Length::Ops(job.warmup_ops()),
        traced: None,
    };
    let (warm, targets) = srv_phase(job, &rig, &leg, &mut idle, targets);
    out.failed += idle.iter().map(|l| l.failed).sum::<u64>();
    Ok((rig, targets, warm.ends, t0.elapsed().as_secs_f64()))
}

// ---------------------------------------------------------------------
// End-to-end metrics
// ---------------------------------------------------------------------

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Everything the client saw in the timed phase.
fn end_to_end(out: &mut Outcome, job: Job<'_>, logs: &[ThreadLog], timed: &Phase, setups: &[f64]) {
    out.end_to_end("setup_s", median(setups));
    let ops: u64 = logs.iter().map(|l| l.attempted).sum();
    out.end_to_end("ops_per_s", ops as f64 / timed.wall_s);

    let mut lat: Vec<u32> = logs
        .iter()
        .flat_map(|l| l.samples[..l.kept].iter().map(|s| s.lat_ns))
        .collect();
    lat.sort_unstable();
    let us = |ns: u32| f64::from(ns) / 1e3;
    out.end_to_end("op_p50_us", us(percentile(&lat, 50, 100)));
    out.end_to_end("op_p99_us", us(percentile(&lat, 99, 100)));
    // beyond p99 only with enough samples (p90 and p99 are shown anyway)
    let tail = tail_percentile(lat.len())
        .filter(|&(_, _, den)| den > 100)
        .map_or(String::new(), |(label, num, den)| {
            format!(", {label} {:.1} us", us(percentile(&lat, num, den)))
        });
    // where the gated percentiles sit on the distribution: one next to
    // a cliff (between two operation types, say) repeats badly
    let shape: Vec<String> = [90, 95, 98, 99]
        .iter()
        .map(|&p| format!("p{p} {:.2}", us(percentile(&lat, p, 100))))
        .collect();
    out.notes.push(format!(
        "latency: {} samples of {ops} ops in {:.2} s; {} us{tail}",
        lat.len(),
        timed.wall_s,
        shape.join(", ")
    ));
    let mut per_kind = String::new();
    for (kind, name) in KIND_NAMES.iter().enumerate() {
        let mut v: Vec<u32> = logs
            .iter()
            .flat_map(|l| l.samples[..l.kept].iter())
            .filter(|s| s.kind as usize == kind)
            .map(|s| s.lat_ns)
            .collect();
        if !v.is_empty() {
            v.sort_unstable();
            per_kind += &format!(
                " {name} {:.1} us ({})",
                us(percentile(&v, 50, 100)),
                v.len()
            );
        }
    }
    out.notes.push(format!("median by type:{per_kind}"));

    let ms = |ns: u64| ns as f64 / 1e6;
    if !job.injects() {
        // nothing is injected, so the longest a client goes without a
        // reply is one operation: every operation is its own window.
        // The driver wants every end-to-end metric from every workload
        // and none of them 0; the loop keeps no window state for this.
        out.end_to_end("unavail_p50_ms", ms(u64::from(percentile(&lat, 50, 100))));
        return;
    }
    // one window per injected fault
    let windows = ThreadLog::windows(logs);
    if windows.is_empty() {
        out.problems
            .push("no fault was injected in the timed phase".to_string());
        return;
    }
    out.end_to_end("unavail_p50_ms", ms(percentile(&windows, 50, 100)));
    // a run has too few faults for a tail percentile to be an
    // end-to-end metric (fewer than ten windows lie beyond p90), so the
    // tail is a diagnostic here and `rae.unavail_p90_ms` in traced runs
    out.notes.push(format!(
        "unavailability: {} windows around injected faults, p90 {:.4} ms, max {:.4} ms",
        windows.len(),
        ms(percentile(&windows, 90, 100)),
        ms(windows[windows.len() - 1])
    ));
}

/// Median of `pick` over the recovery reports, in ms (0 with none).
pub fn median_ms(reports: &[RecoveryReport], pick: fn(&RecoveryReport) -> Duration) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    let ms: Vec<f64> = reports
        .iter()
        .map(|r| pick(r).as_secs_f64() * 1e3)
        .collect();
    median(&ms)
}

pub fn report_verdict(out: &mut Outcome, what: &str, problems: Vec<String>) {
    if problems.is_empty() {
        out.notes.push(format!(
            "oracle ({what}): fsck clean, tree and contents equal the model"
        ));
    }
    out.problems.extend(
        problems
            .into_iter()
            .map(|p| format!("oracle ({what}): {p}")),
    );
}

fn fs_untraced(job: Job<'_>, out: &mut Outcome) -> Result<(), String> {
    let mut logs = fresh_logs(SAMPLE_CAP);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (rig, firsts, took) = fs_setup(job, Boundary::Rae, None, out)?;
        setups.push(took);
        kept = Some((rig, firsts));
    }
    let (rig, firsts) = kept.expect("SETUPS > 0");
    let leg = Leg {
        firsts: &firsts,
        length: Length::Seconds(job.cfg.seconds),
        traced: None,
    };
    let timed = fs_phase(job, &rig, Boundary::Rae, &leg, &mut logs);
    // before the oracle and the sorting below allocate anything
    let rss = peak_rss_mb();
    tally(out, &logs);
    end_to_end(out, job, &logs, &timed, &setups);
    out.end_to_end("peak_rss_mb", rss);
    if let (true, Some(fs)) = (job.injects(), rig.vols[0].mount.rae()) {
        let st = fs.stats();
        out.notes.push(format!(
            "faults: {} recoveries (warm {}, cold {}, cold-retry {}, degraded {}), {} ops masked",
            st.recoveries,
            st.ladder_warm,
            st.ladder_cold,
            st.ladder_cold_retry,
            st.ladder_degraded,
            st.ops_masked
        ));
        let reports = fs.recovery_reports();
        let mut replayed: Vec<u64> = reports.iter().map(|r| r.records_replayed).collect();
        replayed.sort_unstable();
        out.notes.push(format!(
            "recovery medians: total {:.2} ms = reboot {:.2} + shadow load {:.2} + replay {:.2} \
             + hand-off {:.2}; {} records replayed",
            median_ms(&reports, |r| r.duration),
            median_ms(&reports, |r| r.reboot_time),
            median_ms(&reports, |r| r.shadow_load_time),
            median_ms(&reports, |r| r.replay_time),
            median_ms(&reports, |r| r.handoff_time),
            replayed.get(replayed.len() / 2).copied().unwrap_or(0),
        ));
    }
    let (verdict, _) = verify_rig(rig, job.spec, job.streams, &timed.ends);
    if job.spec.kind == Kind::WriteSync {
        out.notes.push(format!(
            "durable_writes_verified: {} (writes an acknowledged fsync of their file covered, \
             read back from a device snapshot taken right after the timed phase, which \
             dropped unflushed write-back)",
            verdict.durable_writes
        ));
    }
    report_verdict(out, "RaeFs", verdict.problems);
    Ok(())
}

/// Server-side counters, read while the volumes are still mounted.
pub struct SrvCounters {
    pub requests: u64,
    pub refusals: u64,
}

/// Shut the server down and check every volume's image against the
/// model. The device handles are taken first: the server owns its
/// volumes and drops them at shutdown.
pub fn srv_verify(job: Job<'_>, rig: SrvRig, ends: &[u64], out: &mut Outcome) -> SrvCounters {
    let manager = Arc::clone(rig.server.manager());
    let mut devices: Vec<Arc<dyn BlockDevice>> = Vec::with_capacity(SERVER_VOLUMES);
    let mut refusals = 0;
    for id in 0..SERVER_VOLUMES as u32 {
        if let Some(vol) = manager.get(id) {
            devices.push(vol.fs().base().device());
            refusals += vol.tenant_counters().quota_rejections;
        }
    }
    let requests = rig.server.requests_served();
    let mut problems = Vec::new();
    match rig.server.shutdown() {
        Ok(report) if report.all_clean => {}
        Ok(_) => problems.push("shutdown did not unmount every volume cleanly".to_string()),
        Err(e) => problems.push(format!("shutdown failed: {e}")),
    }
    if devices.len() != SERVER_VOLUMES {
        problems.push(format!("only {} volumes were mounted", devices.len()));
    } else {
        match expected_server_trees(
            job.spec,
            SERVER_VOLUMES,
            rig.populate_seed,
            job.streams,
            ends,
        ) {
            Ok(expected) => {
                for (dev, want) in devices.into_iter().zip(&expected) {
                    problems.extend(check_image(dev, want, true).problems);
                }
            }
            Err(e) => problems.push(e),
        }
    }
    report_verdict(out, "server volumes", problems);
    SrvCounters { requests, refusals }
}

fn srv_untraced(job: Job<'_>, out: &mut Outcome) -> Result<(), String> {
    let mut logs = fresh_logs(SAMPLE_CAP);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept: Option<(SrvRig, Vec<WireTarget>, Vec<u64>)> = None;
    for _ in 0..SETUPS {
        if let Some((rig, targets, _)) = kept.take() {
            // connections first: a worker serves one until it closes
            drop(targets);
            let _ = rig.server.shutdown();
        }
        let (rig, targets, firsts, took) = srv_setup(job, out)?;
        setups.push(took);
        kept = Some((rig, targets, firsts));
    }
    let (rig, targets, firsts) = kept.expect("SETUPS > 0");
    let leg = Leg {
        firsts: &firsts,
        length: Length::Seconds(job.cfg.seconds),
        traced: None,
    };
    let (timed, targets) = srv_phase(job, &rig, &leg, &mut logs, targets);
    let rss = peak_rss_mb();
    drop(targets);
    tally(out, &logs);
    end_to_end(out, job, &logs, &timed, &setups);
    out.end_to_end("peak_rss_mb", rss);
    srv_verify(job, rig, &timed.ends, out);
    Ok(())
}
