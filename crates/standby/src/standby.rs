//! The warm-standby shadow: a background thread that keeps a live
//! [`ShadowFs`] continuously caught up with the base's completed
//! operations, so recovery only has to drain the in-flight tail —
//! O(in-flight) instead of O(retained log).
//!
//! # Protocol
//!
//! The RAE runtime publishes every *completed* [`OpRecord`] (including
//! `Failed` and sync-family records, so the standby's accumulated
//! [`ReplayReport`] matches what a cold replay of the same log would
//! produce) over a bounded channel. A dedicated apply thread consumes
//! records in order with [`ShadowFs::apply_record`] — the same
//! constrained-mode step cold replay uses — and maintains watermarks
//! (`completed_seq` published, `applied_seq` applied) in shared
//! atomics.
//!
//! On recovery the runtime requests a **handover**: because the
//! publisher holds the op-log lock while publishing and recovery runs
//! with that lock held, nothing is published concurrently, so the FIFO
//! channel drains the queued tail exactly once and the reply carries
//! the caught-up shadow plus its accumulated report. The handover is
//! split in two — [`WarmStandby::start_handover`] queues the request,
//! [`PendingHandover::wait`] collects the shadow — so the drain, which
//! touches only the standby's own snapshot, runs while the runtime
//! reboots the base.
//!
//! # Lag policy
//!
//! When the channel is full, [`LagPolicy::Block`] back-pressures the
//! publisher (completion latency absorbs the standby's lag) while
//! [`LagPolicy::DropToColdReplay`] degrades the standby immediately —
//! the runtime then falls back to cold replay at the next recovery.
//! [`StandbyStatus::publish_waits`] counts the publishes that found the
//! channel full under `Block`: a standby that keeps pace leaves it at
//! zero, one that runs a channel behind raises it on every mutation.
//!
//! # Snapshot isolation
//!
//! The shadow reads device blocks lazily, but the base writes the live
//! device back asynchronously — a lagging standby that first reads a
//! block *after* the base persisted a later version of it would see
//! the future and re-apply records on top of it. The standby therefore
//! never touches the live device: [`WarmStandby::spawn`] copies the
//! (quiesced) device into a private [`rae_blockdev::MemDisk`] snapshot
//! and the shadow executes against that frozen image.
//!
//! # Audits
//!
//! [`WarmStandby::run_audit`] runs the shadow's full consistency check
//! and a logical tree-diff, then **re-bases** the standby onto a fresh
//! snapshot of the live device: the overlay is dropped wholesale
//! (bounding standby memory) and a post-re-base tree-diff compares the
//! standby's pre-audit state against the base's durable image — the
//! real standby-vs-base divergence check. This is only meaningful when
//! the base is quiesced, checkpointed durable, and the standby caught
//! up; the RAE runtime guarantees all three under its quiesce gate
//! (the FIFO channel guarantees catch-up: the audit request queues
//! behind every published record).
//!
//! Any divergence — a shadow runtime error, a panic in the apply
//! thread, or an audit failure — tears the standby down; the runtime
//! routes the next recovery through cold replay.

use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use rae_blockdev::{BlockDevice, MemDisk};
use rae_shadowfs::{ReplayReport, ShadowFs, ShadowOpts};
use rae_telemetry::{EventKind, Telemetry};
use rae_vfs::{FileSystem, FileType, FsResult, OpRecord, OpenFlags};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// What the publisher does when the standby channel is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LagPolicy {
    /// Block the completing operation until the standby drains — the
    /// base absorbs standby lag as completion latency.
    #[default]
    Block,
    /// Give up on the warm standby: degrade it immediately and let the
    /// next recovery take the cold-replay path.
    DropToColdReplay,
}

/// Configuration for the warm standby, carried in the RAE runtime
/// config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StandbyOpts {
    /// Spawn the standby at mount (and respawn it after recovery).
    pub enabled: bool,
    /// Bound of the publish channel (records in flight to the apply
    /// thread), and so of what a handover can have left to drain.
    pub channel_capacity: usize,
    /// Run a coordinated audit every this many completed operations;
    /// `0` disables audits.
    pub audit_interval_ops: u64,
    /// Full-channel behavior.
    pub lag_policy: LagPolicy,
}

impl Default for StandbyOpts {
    fn default() -> StandbyOpts {
        StandbyOpts {
            enabled: false,
            // a full channel drains (at several µs a record) within the
            // contained reboot the drain overlaps
            channel_capacity: 256,
            audit_interval_ops: 0,
            lag_policy: LagPolicy::Block,
        }
    }
}

/// Result of publishing one record to the standby.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum Publish {
    /// The record was handed to the apply thread (or queued).
    Accepted,
    /// The standby is (now) degraded; the caller should discard it and
    /// rely on cold replay.
    Degraded,
}

/// A snapshot of the standby's watermarks and health.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StandbyStatus {
    /// The apply thread is alive and trusted.
    pub active: bool,
    /// Highest completed sequence number published to the standby.
    pub completed_seq: u64,
    /// Highest sequence number the standby has applied.
    pub applied_seq: u64,
    /// Records published but not yet applied (the drain cost of a warm
    /// handover right now).
    pub lag: u64,
    /// Records applied over the standby's lifetime (backlog included).
    pub applied_records: u64,
    /// Coordinated audits completed successfully.
    pub audits_run: u64,
    /// Divergences observed: cross-check discrepancy notes plus audit
    /// failures.
    pub divergences: u64,
    /// Publishes that found the channel full under [`LagPolicy::Block`]
    /// and waited for the apply thread: the standby's back-pressure on
    /// the base.
    pub publish_waits: u64,
}

/// What a successful audit did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditOutcome {
    /// Overlay blocks released by re-basing the standby onto a fresh
    /// snapshot of the checkpointed device.
    pub compacted_blocks: usize,
}

/// The caught-up shadow handed over at recovery.
pub struct HandoverState {
    /// The live shadow, caught up with every published record.
    pub shadow: Box<ShadowFs>,
    /// Cross-check report accumulated since spawn — the warm
    /// equivalent of a cold replay's [`ReplayReport`].
    pub report: ReplayReport,
    /// Records applied over the standby's lifetime.
    pub applied_records: u64,
}

const HEALTHY: u8 = 0;
const DEGRADED: u8 = 1;
const STOPPED: u8 = 2;

#[derive(Default)]
struct Shared {
    completed_seq: AtomicU64,
    applied_seq: AtomicU64,
    published_records: AtomicU64,
    applied_records: AtomicU64,
    audits_run: AtomicU64,
    divergences: AtomicU64,
    publish_waits: AtomicU64,
    /// Highest lag (published − applied) seen so far, for the
    /// telemetry high-water event.
    lag_high_water: AtomicU64,
    health: AtomicU8,
}

impl Shared {
    fn degrade(&self) {
        let _ =
            self.health
                .compare_exchange(HEALTHY, DEGRADED, Ordering::AcqRel, Ordering::Acquire);
    }

    fn healthy(&self) -> bool {
        self.health.load(Ordering::Acquire) == HEALTHY
    }
}

enum Msg {
    Record(OpRecord),
    Audit(Sender<Result<AuditOutcome, String>>),
    Handover(Sender<HandoverState>),
    Shutdown,
    /// Test-only: signal on the sender once the apply thread is held,
    /// then hold it until the receiver yields, making channel-full
    /// conditions deterministic; a release dropped unsent kills the
    /// thread, as a failed apply would.
    #[cfg(any(test, feature = "test-hooks"))]
    Pause(Sender<()>, Receiver<()>),
}

/// Handle to the warm standby owned by the RAE runtime.
pub struct WarmStandby {
    tx: Sender<Msg>,
    shared: Arc<Shared>,
    opts: StandbyOpts,
    handle: Option<JoinHandle<()>>,
    telemetry: OnceLock<Arc<Telemetry>>,
}

impl WarmStandby {
    /// Snapshot `dev`, load a shadow over the snapshot (synchronously,
    /// so load errors surface here), and start the apply thread.
    /// `backlog` is replayed first — at mount it is empty; after a
    /// recovery it is the retained completed log, i.e. exactly the
    /// cold-replay initial condition, so the standby's lineage matches
    /// a cold shadow's from then on.
    ///
    /// The caller must hold `dev` quiesced for the duration of this
    /// call (mount-time and the post-recovery respawn both do): the
    /// snapshot must capture the exact state the backlog continues
    /// from. Afterwards the live device is only touched again during
    /// coordinated audits.
    ///
    /// # Errors
    ///
    /// Device snapshot errors; shadow load/validation errors.
    pub fn spawn(
        dev: Arc<dyn BlockDevice>,
        shadow_opts: ShadowOpts,
        opts: StandbyOpts,
        backlog: Vec<OpRecord>,
    ) -> FsResult<WarmStandby> {
        let snapshot: Arc<dyn BlockDevice> = Arc::new(MemDisk::clone_of(dev.as_ref())?);
        let shadow = ShadowFs::load(snapshot, shadow_opts)?;
        let shared = Arc::new(Shared::default());
        if let Some(last) = backlog.last() {
            shared.completed_seq.store(last.seq, Ordering::Release);
        }
        shared
            .published_records
            .store(backlog.len() as u64, Ordering::Release);
        let (tx, rx) = channel::bounded(opts.channel_capacity.max(1));
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("rae-standby".into())
            .spawn(move || apply_loop(shadow, backlog, &rx, &thread_shared, &dev))
            .expect("spawn standby apply thread");
        Ok(WarmStandby {
            tx,
            shared,
            opts,
            handle: Some(handle),
            telemetry: OnceLock::new(),
        })
    }

    /// Attach a telemetry handle: publish-side lag high-water marks and
    /// coordinated-audit outcomes become flight-recorder events. First
    /// call wins.
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.telemetry.set(telemetry);
    }

    /// Resume a standby from an already-caught-up shadow — the
    /// post-recovery re-arm path. A warm handover shadow has applied
    /// every completed record and the base has just absorbed its
    /// merged view, so the shadow *is* the current filesystem state:
    /// no device snapshot and no backlog replay are needed, keeping
    /// the re-arm out of the recovery latency. `resume_seq` is the
    /// highest sequence number the shadow covers; `live` is touched
    /// only by future coordinated audits. The same quiescence rule as
    /// [`WarmStandby::spawn`] applies.
    #[must_use]
    pub fn resume(
        shadow: ShadowFs,
        opts: StandbyOpts,
        live: Arc<dyn BlockDevice>,
        resume_seq: u64,
    ) -> WarmStandby {
        let shared = Arc::new(Shared::default());
        shared.completed_seq.store(resume_seq, Ordering::Release);
        shared.applied_seq.store(resume_seq, Ordering::Release);
        let (tx, rx) = channel::bounded(opts.channel_capacity.max(1));
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("rae-standby".into())
            .spawn(move || apply_loop(shadow, Vec::new(), &rx, &thread_shared, &live))
            .expect("spawn standby apply thread");
        WarmStandby {
            tx,
            shared,
            opts,
            handle: Some(handle),
            telemetry: OnceLock::new(),
        }
    }

    /// Publish one completed record. Call under the same lock that
    /// serializes operation completion (the runtime's op-log lock) so
    /// the channel order is the completion order.
    pub fn publish(&self, rec: OpRecord) -> Publish {
        if !self.shared.healthy() {
            return Publish::Degraded;
        }
        self.shared.completed_seq.store(rec.seq, Ordering::Release);
        let published = self.shared.published_records.fetch_add(1, Ordering::AcqRel) + 1;
        let lag = published.saturating_sub(self.shared.applied_records.load(Ordering::Acquire));
        let seq = rec.seq;
        let (sent, waiting) = match self.tx.try_send(Msg::Record(rec)) {
            Ok(()) => (true, None),
            Err(TrySendError::Full(msg)) if self.opts.lag_policy == LagPolicy::Block => {
                self.shared.publish_waits.fetch_add(1, Ordering::AcqRel);
                (true, Some(msg))
            }
            Err(_) => (false, None),
        };
        // after the wait is counted, so an observer of the event sees it
        if lag > self.shared.lag_high_water.fetch_max(lag, Ordering::AcqRel) {
            if let Some(t) = self.telemetry.get() {
                t.event(EventKind::StandbyLag, lag, seq, 0);
            }
        }
        let sent = sent && waiting.is_none_or(|msg| self.tx.send(msg).is_ok());
        if sent {
            Publish::Accepted
        } else {
            self.shared.degrade();
            Publish::Degraded
        }
    }

    /// Current watermarks and health.
    #[must_use]
    pub fn status(&self) -> StandbyStatus {
        let published = self.shared.published_records.load(Ordering::Acquire);
        let applied = self.shared.applied_records.load(Ordering::Acquire);
        StandbyStatus {
            active: self.shared.healthy(),
            completed_seq: self.shared.completed_seq.load(Ordering::Acquire),
            applied_seq: self.shared.applied_seq.load(Ordering::Acquire),
            lag: published.saturating_sub(applied),
            applied_records: applied,
            audits_run: self.shared.audits_run.load(Ordering::Acquire),
            divergences: self.shared.divergences.load(Ordering::Acquire),
            publish_waits: self.shared.publish_waits.load(Ordering::Acquire),
        }
    }

    /// Run a coordinated audit on the warm shadow: full consistency
    /// check, model tree-diff against the incrementally maintained
    /// refinement model (when enabled), then a **re-base** onto a
    /// fresh snapshot of the live device with a before/after tree-diff
    /// — any difference means the standby and the base's durable state
    /// have diverged. Re-basing drops the accumulated overlay, so
    /// audits also bound standby memory.
    ///
    /// The caller **must** have quiesced the base and checkpointed it
    /// durable first — the re-base adopts the raw device image, which
    /// is only the base's full state when the device is still and
    /// everything durable; the standby must also be caught up (the
    /// FIFO channel guarantees that: the audit request queues behind
    /// every published record).
    ///
    /// # Errors
    ///
    /// A human-readable divergence description. The standby is already
    /// degraded when this returns `Err`; discard the handle.
    pub fn run_audit(&self) -> Result<AuditOutcome, String> {
        let (reply_tx, reply_rx) = channel::bounded(1);
        if self.tx.send(Msg::Audit(reply_tx)).is_err() {
            self.shared.degrade();
            self.audit_event(Err(&"apply thread gone".to_string()));
            return Err("standby apply thread is gone".into());
        }
        let outcome = match reply_rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => {
                self.shared.degrade();
                Err("standby apply thread exited during audit".into())
            }
        };
        self.audit_event(outcome.as_ref());
        outcome
    }

    fn audit_event(&self, outcome: Result<&AuditOutcome, &String>) {
        if let Some(t) = self.telemetry.get() {
            match outcome {
                Ok(o) => t.event(EventKind::StandbyAudit, 0, o.compacted_blocks as u64, 0),
                Err(_) => t.event(EventKind::StandbyAudit, 1, 0, 0),
            }
        }
    }

    /// Start the recovery handover: the apply thread drains everything
    /// published so far (the caller holds the op-log lock, so nothing
    /// new can be published) into its own snapshot, concurrently with
    /// whatever the caller does next, and [`PendingHandover::wait`]
    /// takes ownership of the caught-up shadow.
    ///
    /// Returns `None` if the standby degraded — the caller falls back
    /// to cold replay.
    pub fn start_handover(self) -> Option<PendingHandover> {
        // A degraded standby (dropped records, failed apply, failed
        // audit) may still have a live apply thread — its state is
        // untrusted regardless, so refuse up front.
        if !self.shared.healthy() {
            return None;
        }
        let (reply_tx, reply) = channel::bounded(1);
        if self.tx.send(Msg::Handover(reply_tx)).is_err() {
            return None;
        }
        Some(PendingHandover {
            standby: self,
            reply,
        })
    }

    /// Records published but not yet applied — what a handover right
    /// now would have to drain.
    #[must_use]
    pub fn lag(&self) -> u64 {
        self.status().lag
    }

    /// Test hook: hold the apply thread once it reaches this point of
    /// the channel, until the returned sender sends. Returns once the
    /// thread is held, so the channel is then empty. Dropping the
    /// sender unsent kills the thread and degrades the standby.
    ///
    /// # Panics
    ///
    /// Panics if the apply thread is gone.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn pause(&self) -> Sender<()> {
        let (held_tx, held_rx) = channel::bounded(1);
        let (release_tx, release_rx) = channel::bounded(1);
        assert!(
            self.tx.send(Msg::Pause(held_tx, release_rx)).is_ok() && held_rx.recv().is_ok(),
            "standby alive"
        );
        release_tx
    }

    fn stop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WarmStandby {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A handover whose drain is running on the standby's apply thread.
/// Dropping it instead of waiting stops the thread.
pub struct PendingHandover {
    standby: WarmStandby,
    reply: Receiver<HandoverState>,
}

impl PendingHandover {
    /// Wait for the drain to finish and take the caught-up shadow.
    ///
    /// Returns `None` if the apply thread failed during the drain — the
    /// caller falls back to cold replay.
    #[must_use]
    pub fn wait(mut self) -> Option<HandoverState> {
        let state = self.reply.recv().ok();
        if let Some(handle) = self.standby.handle.take() {
            let _ = handle.join();
        }
        state
    }
}

fn apply_loop(
    mut shadow: ShadowFs,
    backlog: Vec<OpRecord>,
    rx: &Receiver<Msg>,
    shared: &Shared,
    live: &Arc<dyn BlockDevice>,
) {
    let mut report = ReplayReport::default();
    for rec in &backlog {
        if !apply_one(&mut shadow, rec, &mut report, shared) {
            return;
        }
    }
    loop {
        match rx.recv() {
            Ok(Msg::Record(rec)) => {
                if !apply_one(&mut shadow, &rec, &mut report, shared) {
                    return;
                }
            }
            Ok(Msg::Audit(reply)) => match audit(&mut shadow, live.as_ref()) {
                Ok(outcome) => {
                    shared.audits_run.fetch_add(1, Ordering::AcqRel);
                    let _ = reply.send(Ok(outcome));
                }
                Err(why) => {
                    shared.divergences.fetch_add(1, Ordering::AcqRel);
                    shared.degrade();
                    let _ = reply.send(Err(why));
                    return;
                }
            },
            Ok(Msg::Handover(reply)) => {
                let _ = reply.send(HandoverState {
                    shadow: Box::new(shadow),
                    report,
                    applied_records: shared.applied_records.load(Ordering::Acquire),
                });
                shared.health.store(STOPPED, Ordering::Release);
                return;
            }
            #[cfg(any(test, feature = "test-hooks"))]
            Ok(Msg::Pause(held, release)) => {
                let _ = held.send(());
                if release.recv().is_err() {
                    shared.degrade();
                    return;
                }
            }
            Ok(Msg::Shutdown) | Err(_) => {
                shared.health.store(STOPPED, Ordering::Release);
                return;
            }
        }
    }
}

/// Apply one record; `false` means the standby is no longer
/// trustworthy (shadow runtime error or panic) and has been degraded.
fn apply_one(
    shadow: &mut ShadowFs,
    rec: &OpRecord,
    report: &mut ReplayReport,
    shared: &Shared,
) -> bool {
    let noted_before = report.discrepancies.len();
    let result = catch_unwind(AssertUnwindSafe(|| shadow.apply_record(rec, report)));
    match result {
        Ok(Ok(())) => {
            let noted = (report.discrepancies.len() - noted_before) as u64;
            if noted > 0 {
                shared.divergences.fetch_add(noted, Ordering::AcqRel);
            }
            shared.applied_seq.store(rec.seq, Ordering::Release);
            shared.applied_records.fetch_add(1, Ordering::AcqRel);
            true
        }
        Ok(Err(_)) | Err(_) => {
            shared.divergences.fetch_add(1, Ordering::AcqRel);
            shared.degrade();
            false
        }
    }
}

/// The coordinated audit. `live` must be quiesced and checkpointed
/// durable, and the shadow caught up (the runtime's responsibility):
///
/// 1. full consistency check of the merged view;
/// 2. tree-diff of the incrementally maintained refinement model
///    against a fresh walk (when refinement is on) — internal drift;
/// 3. re-base onto a snapshot of `live`, then tree-diff the pre-audit
///    state against the adopted durable image — standby-vs-base
///    divergence, caught *before* a bug fires.
fn audit(shadow: &mut ShadowFs, live: &dyn BlockDevice) -> Result<AuditOutcome, String> {
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<AuditOutcome, String> {
        shadow
            .verify_consistency()
            .map_err(|e| format!("standby consistency check failed: {e}"))?;
        let before = shadow
            .snapshot_model()
            .map_err(|e| format!("standby model walk failed: {e}"))?;
        if let Some(maintained) = shadow.refinement_model() {
            let diffs = diff_trees(maintained, &before);
            if !diffs.is_empty() {
                return Err(format!("standby model drift: {}", diffs.join("; ")));
            }
        }
        let fresh = MemDisk::clone_of(live).map_err(|e| format!("device snapshot failed: {e}"))?;
        let compacted_blocks = shadow
            .rebase(Arc::new(fresh))
            .map_err(|e| format!("standby re-base failed: {e}"))?;
        let after = shadow
            .snapshot_model()
            .map_err(|e| format!("durable-image walk failed: {e}"))?;
        let diffs = diff_trees(&before, &after);
        if !diffs.is_empty() {
            return Err(format!(
                "standby diverged from the base's durable state: {}",
                diffs.join("; ")
            ));
        }
        Ok(AuditOutcome { compacted_blocks })
    }));
    match result {
        Ok(outcome) => outcome,
        Err(_) => Err("standby audit panicked".into()),
    }
}

/// Maximum differences reported by a tree diff before it stops
/// walking; the audit only needs a non-empty witness.
const MAX_DIFFS: usize = 16;

/// Compare two filesystem trees by logical content: names, types,
/// sizes, link counts, file bytes and symlink targets. Inode numbers
/// and block accounting are implementation detail and are ignored.
fn diff_trees(a: &dyn FileSystem, b: &dyn FileSystem) -> Vec<String> {
    let mut diffs = Vec::new();
    diff_path(a, b, "/", &mut diffs);
    diffs
}

fn diff_path(a: &dyn FileSystem, b: &dyn FileSystem, path: &str, diffs: &mut Vec<String>) {
    if diffs.len() >= MAX_DIFFS {
        return;
    }
    let (sa, sb) = match (a.stat(path), b.stat(path)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(_), Err(_)) => return,
        (ra, rb) => {
            diffs.push(format!(
                "{path}: presence {:?} vs {:?}",
                ra.is_ok(),
                rb.is_ok()
            ));
            return;
        }
    };
    if sa.ftype != sb.ftype {
        diffs.push(format!("{path}: type {:?} vs {:?}", sa.ftype, sb.ftype));
        return;
    }
    if sa.nlink != sb.nlink {
        diffs.push(format!("{path}: nlink {} vs {}", sa.nlink, sb.nlink));
    }
    match sa.ftype {
        FileType::Regular => {
            if sa.size != sb.size {
                diffs.push(format!("{path}: size {} vs {}", sa.size, sb.size));
            } else if read_all(a, path, sa.size) != read_all(b, path, sb.size) {
                diffs.push(format!("{path}: content differs"));
            }
        }
        FileType::Symlink => {
            let (ta, tb) = (a.readlink(path), b.readlink(path));
            if ta != tb {
                diffs.push(format!("{path}: target {ta:?} vs {tb:?}"));
            }
        }
        FileType::Directory => {
            let mut names_a = dir_names(a, path);
            let mut names_b = dir_names(b, path);
            names_a.sort();
            names_b.sort();
            for name in names_a.iter().filter(|n| !names_b.contains(n)) {
                diffs.push(format!("{}: only in maintained model", child(path, name)));
            }
            for name in names_b.iter().filter(|n| !names_a.contains(n)) {
                diffs.push(format!("{}: only in fresh snapshot", child(path, name)));
            }
            for name in names_a.iter().filter(|n| names_b.contains(n)) {
                diff_path(a, b, &child(path, name), diffs);
            }
        }
    }
}

fn child(dir: &str, name: &str) -> String {
    if dir == "/" {
        format!("/{name}")
    } else {
        format!("{dir}/{name}")
    }
}

fn dir_names(fs: &dyn FileSystem, path: &str) -> Vec<String> {
    fs.readdir(path)
        .map(|entries| entries.into_iter().map(|e| e.name).collect())
        .unwrap_or_default()
}

fn read_all(fs: &dyn FileSystem, path: &str, size: u64) -> Option<Vec<u8>> {
    let fd = fs.open(path, OpenFlags::RDONLY).ok()?;
    let data = fs.read(fd, 0, size as usize);
    let _ = fs.close(fd);
    data.ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rae_blockdev::MemDisk;
    use rae_fsformat::{apply_corruption, mkfs, Corruption, MkfsParams};
    use rae_shadowfs::{ReadReply, ReadRequest};
    use rae_vfs::{Fd, FsOp, InodeNo};
    use std::time::{Duration, Instant};

    fn fresh_dev() -> Arc<MemDisk> {
        let dev = Arc::new(MemDisk::new(4096));
        mkfs(dev.as_ref(), MkfsParams::default()).unwrap();
        dev
    }

    /// Drive an autonomous shadow over the same image to produce the
    /// completed records a base would have recorded.
    fn record_ops(dev: &Arc<MemDisk>, ops: Vec<FsOp>) -> Vec<OpRecord> {
        let mut generator =
            ShadowFs::load(dev.clone() as Arc<dyn BlockDevice>, ShadowOpts::default()).unwrap();
        let mut records = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            let outcome = generator.execute_autonomous(&op).unwrap();
            let mut rec = OpRecord::new(i as u64 + 1, op);
            rec.complete(outcome);
            records.push(rec);
        }
        records
    }

    fn sample_ops() -> Vec<FsOp> {
        let rw_create = OpenFlags::RDWR | OpenFlags::CREATE;
        vec![
            FsOp::Mkdir {
                path: "/dir".into(),
            },
            FsOp::Create {
                path: "/dir/a".into(),
                flags: rw_create,
            },
            FsOp::Write {
                fd: Fd(3),
                offset: 0,
                data: b"warm payload".into(),
            },
            FsOp::Create {
                path: "/dir/b".into(),
                flags: rw_create,
            },
            FsOp::Close { fd: Fd(4) },
            FsOp::Rename {
                from: "/dir/b".into(),
                to: "/dir/c".into(),
            },
            FsOp::Symlink {
                target: "/dir/a".into(),
                linkpath: "/sym".into(),
            },
        ]
    }

    fn wait_until(mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(
                Instant::now() < deadline,
                "standby did not converge in time"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Start the handover and wait for it straight away.
    fn handover(standby: WarmStandby) -> Option<HandoverState> {
        standby.start_handover().and_then(PendingHandover::wait)
    }

    fn spawn_default(dev: &Arc<MemDisk>, opts: StandbyOpts) -> WarmStandby {
        WarmStandby::spawn(
            dev.clone() as Arc<dyn BlockDevice>,
            ShadowOpts::default(),
            opts,
            Vec::new(),
        )
        .unwrap()
    }

    #[test]
    fn apply_thread_catches_up_and_hands_over_live_state() {
        let dev = fresh_dev();
        let records = record_ops(&dev, sample_ops());
        let n = records.len() as u64;
        let standby = spawn_default(&dev, StandbyOpts::default());
        for rec in records {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        wait_until(|| standby.status().lag == 0);
        let status = standby.status();
        assert!(status.active);
        assert_eq!(status.applied_records, n);
        assert_eq!(status.applied_seq, status.completed_seq);

        let mut handed = handover(standby).expect("healthy standby hands over");
        assert!(
            handed.report.is_clean(),
            "{:?}",
            handed.report.discrepancies
        );
        assert_eq!(handed.report.executed, n);
        assert_eq!(handed.applied_records, n);
        let ReadReply::Stat(st) = handed
            .shadow
            .serve_read(&ReadRequest::Stat {
                path: "/dir/a".into(),
            })
            .unwrap()
        else {
            panic!("stat reply shape");
        };
        assert_eq!(st.size, b"warm payload".len() as u64);
    }

    #[test]
    fn backlog_is_replayed_before_new_records() {
        let dev = fresh_dev();
        let mut records = record_ops(&dev, sample_ops());
        let tail = records.split_off(4);
        let standby = WarmStandby::spawn(
            dev.clone() as Arc<dyn BlockDevice>,
            ShadowOpts::default(),
            StandbyOpts::default(),
            records,
        )
        .unwrap();
        for rec in tail {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        wait_until(|| standby.status().lag == 0);
        let handed = handover(standby).expect("handover");
        assert!(
            handed.report.is_clean(),
            "{:?}",
            handed.report.discrepancies
        );
        assert_eq!(handed.report.executed, 7);
    }

    #[test]
    fn block_policy_fills_channel_without_degrading() {
        let dev = fresh_dev();
        let records = record_ops(&dev, sample_ops());
        let capacity = 4;
        let standby = spawn_default(
            &dev,
            StandbyOpts {
                channel_capacity: capacity,
                ..StandbyOpts::default()
            },
        );
        // Hold the apply thread still so the channel genuinely fills.
        let release = standby.pause();
        for rec in records.iter().take(capacity).cloned() {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        assert_eq!(standby.status().lag, capacity as u64);
        assert!(
            standby.status().active,
            "full channel is not a failure under Block"
        );
        release.send(()).unwrap();
        for rec in records.iter().skip(capacity).cloned() {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        wait_until(|| standby.status().lag == 0);
        assert_eq!(standby.status().applied_records, 7);
    }

    #[test]
    fn warm_publish_waits_count_blocked_publishes() {
        let dev = fresh_dev();
        let records = record_ops(&dev, sample_ops());
        let capacity = 4;
        let standby = Arc::new(spawn_default(
            &dev,
            StandbyOpts {
                channel_capacity: capacity,
                ..StandbyOpts::default()
            },
        ));
        let release = standby.pause();
        for rec in records.iter().take(capacity).cloned() {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        assert_eq!(standby.status().publish_waits, 0, "room for each");
        let over = records[capacity].clone();
        let publisher = {
            let standby = Arc::clone(&standby);
            std::thread::spawn(move || standby.publish(over))
        };
        wait_until(|| standby.status().publish_waits == 1);
        release.send(()).unwrap();
        assert_eq!(publisher.join().unwrap(), Publish::Accepted);
        for rec in records.iter().skip(capacity + 1).cloned() {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        wait_until(|| standby.status().lag == 0);
        let status = standby.status();
        assert_eq!(status.applied_records, records.len() as u64);
        assert!(status.active);
        assert!(status.publish_waits >= 1);
    }

    #[test]
    fn drop_policy_degrades_when_consumer_is_slow() {
        let dev = fresh_dev();
        let records = record_ops(&dev, sample_ops());
        let standby = spawn_default(
            &dev,
            StandbyOpts {
                channel_capacity: 2,
                lag_policy: LagPolicy::DropToColdReplay,
                ..StandbyOpts::default()
            },
        );
        let release = standby.pause();
        let mut outcomes = Vec::new();
        for rec in records {
            outcomes.push(standby.publish(rec));
        }
        assert_eq!(outcomes[0], Publish::Accepted);
        assert_eq!(*outcomes.last().unwrap(), Publish::Degraded);
        assert!(!standby.status().active);
        release.send(()).unwrap();
        // A degraded standby refuses the handover: cold-replay fallback.
        assert!(handover(standby).is_none());
    }

    #[test]
    fn shadow_runtime_error_degrades_to_cold_fallback() {
        let dev = fresh_dev();
        let records = record_ops(&dev, sample_ops());
        // Rot the root inode *before* the standby snapshots the device
        // (and skip load-time validation so the spawn itself succeeds):
        // the first walk hits a failed structural check — a shadow
        // runtime error.
        apply_corruption(dev.as_ref(), &Corruption::InodeBitrot { ino: InodeNo(1) }).unwrap();
        let standby = WarmStandby::spawn(
            dev.clone() as Arc<dyn BlockDevice>,
            ShadowOpts {
                validate_image: false,
                ..ShadowOpts::default()
            },
            StandbyOpts::default(),
            Vec::new(),
        )
        .unwrap();
        for rec in records {
            let _ = standby.publish(rec);
        }
        wait_until(|| !standby.status().active);
        assert!(standby.status().divergences > 0);
        assert!(
            handover(standby).is_none(),
            "degraded standby must not hand over"
        );
    }

    #[test]
    fn handover_drains_queued_tail_exactly_once() {
        let dev = fresh_dev();
        let records = record_ops(&dev, sample_ops());
        let n = records.len() as u64;
        let standby = spawn_default(&dev, StandbyOpts::default());
        let release = standby.pause();
        for rec in records {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        assert_eq!(standby.status().lag, n, "everything still queued");
        release.send(()).unwrap();
        // FIFO: the handover request queues behind every record, so the
        // reply carries a fully caught-up shadow — each record applied
        // exactly once.
        let handed = handover(standby).expect("handover");
        assert_eq!(handed.applied_records, n);
        assert_eq!(handed.report.executed, n);
        assert!(
            handed.report.is_clean(),
            "{:?}",
            handed.report.discrepancies
        );
    }

    #[test]
    fn started_handover_drains_while_the_caller_works() {
        let dev = fresh_dev();
        let records = record_ops(&dev, sample_ops());
        let n = records.len() as u64;
        let standby = spawn_default(&dev, StandbyOpts::default());
        let release = standby.pause();
        for rec in records {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        // starting does not wait: the whole backlog is still queued
        let pending = standby.start_handover().expect("healthy standby");
        release.send(()).unwrap();
        let handed = pending.wait().expect("the drain completes");
        assert_eq!((handed.applied_records, handed.report.executed), (n, n));
        assert!(
            handed.report.is_clean(),
            "{:?}",
            handed.report.discrepancies
        );
    }

    #[test]
    fn a_handover_whose_drain_fails_waits_to_none() {
        let dev = fresh_dev();
        let standby = spawn_default(&dev, StandbyOpts::default());
        let release = standby.pause();
        for rec in record_ops(&dev, sample_ops()) {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        let pending = standby.start_handover().expect("healthy when started");
        drop(release); // the apply thread dies mid-drain
        assert!(pending.wait().is_none());
    }

    #[test]
    fn audit_passes_when_standby_matches_durable_state() {
        let dev = fresh_dev();
        let standby = WarmStandby::spawn(
            dev.clone() as Arc<dyn BlockDevice>,
            ShadowOpts {
                refinement_check: true,
                ..ShadowOpts::default()
            },
            StandbyOpts {
                audit_interval_ops: 4,
                ..StandbyOpts::default()
            },
            Vec::new(),
        )
        .unwrap();
        // Nothing published: the snapshot still equals the device, so
        // the re-base adopts an identical image and finds no
        // divergence. The only overlay entry released is the
        // superblock counter refresh the consistency check writes.
        let outcome = standby.run_audit().expect("healthy audit");
        assert_eq!(outcome.compacted_blocks, 1);
        let status = standby.status();
        assert_eq!(status.audits_run, 1);
        assert!(status.active);
        assert_eq!(status.divergences, 0);
    }

    #[test]
    fn audit_detects_divergence_from_durable_state() {
        let dev = fresh_dev();
        let records = record_ops(&dev, sample_ops());
        let standby = spawn_default(&dev, StandbyOpts::default());
        for rec in records {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        wait_until(|| standby.status().lag == 0);
        // The published records never reached the device (the generator
        // shadow kept them in its overlay), so the standby is ahead of
        // the durable image — exactly the skew the re-base diff exists
        // to catch.
        let err = standby
            .run_audit()
            .expect_err("standby-vs-base skew must fail the audit");
        assert!(err.contains("diverged"), "{err}");
        let status = standby.status();
        assert!(!status.active);
        assert!(status.divergences > 0);
        assert!(
            handover(standby).is_none(),
            "a diverged standby must not hand over"
        );
    }
}
