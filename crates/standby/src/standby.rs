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
//! reboots the base. The request carries a one-shot *drained* callback
//! that the apply thread calls with the caught-up shadow just before it
//! replies: the runtime forks a read-only copy there and answers readers
//! from it for the rest of the recovery, while the base still reboots.
//!
//! # Back-pressure
//!
//! The channel holds [`CHANNEL_CAPACITY`] records. When it is full the
//! publisher waits for the apply thread (completion latency absorbs the
//! standby's lag); [`StandbyStatus::publish_waits`] counts those waits:
//! a standby that keeps pace leaves it at zero, one that runs a channel
//! behind raises it on every mutation.
//!
//! # Snapshot isolation
//!
//! The shadow reads device blocks lazily, but the base writes the live
//! device back asynchronously — a lagging standby that first reads a
//! block *after* the base persisted a later version of it would see
//! the future and re-apply records on top of it. The standby therefore
//! never reads the live device as it is now: [`WarmStandby::spawn`]
//! takes a [`FrozenView`] of the (quiesced) device, and the shadow
//! executes against that frozen image. The view copies a block only
//! when the shadow first reads it or just before the base first
//! overwrites it (copy-before-write), so the standby holds what changed
//! and what it looked at, not the device; [`StandbyStatus`] reports
//! both counts. Right after the load, `spawn` excludes from the view the
//! blocks the shadow will never read ([`ShadowFs::never_read`]): the
//! journal and every data block free in the just-loaded bitmap. A base
//! write of an excluded block copies nothing, so the standby holds the
//! blocks its shadow can still read that the base changed, not the
//! base's journal traffic or the files it created since the epoch. Until
//! the exclusion is installed the copies are conservative: at mount
//! nothing has been served yet, and at a cold re-arm the gate is held.
//! A warm [`WarmStandby::resume`] keeps its view and the view's
//! exclusions. A view that lost a block to a failed copy-before-write
//! read degrades the standby.
//!
//! Any divergence — a shadow runtime error or a panic in the apply
//! thread — tears the standby down; the runtime routes the next
//! recovery through cold replay.

use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use rae_blockdev::FrozenView;
use rae_shadowfs::{ReplayReport, ShadowFs, ShadowOpts};
use rae_telemetry::{EventKind, Telemetry};
use rae_vfs::{FsResult, OpRecord};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Configuration for the warm standby, carried in the RAE runtime
/// config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StandbyOpts {
    /// Spawn the standby at mount (and respawn it after recovery).
    pub enabled: bool,
}

/// Bound of the publish channel (records in flight to the apply
/// thread), and so of what a handover can have left to drain: a full
/// channel drains (at several µs a record) within the contained reboot
/// the drain overlaps.
pub const CHANNEL_CAPACITY: usize = 256;

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
    /// Divergences observed: cross-check discrepancy notes plus apply
    /// failures.
    pub divergences: u64,
    /// Publishes that found the channel full and waited for the apply
    /// thread: the standby's back-pressure on the base.
    pub publish_waits: u64,
    /// Blocks the standby's frozen view holds: its snapshot's memory,
    /// in blocks.
    pub snapshot_blocks: u64,
    /// How many of `snapshot_blocks` a base write forced
    /// (copy-before-write); the rest the standby read first.
    pub snapshot_captures: u64,
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
    /// The frozen view the shadow reads, to resume a standby over.
    pub view: FrozenView,
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
    /// The reply channel, and the drained callback run just before the
    /// reply (see [`WarmStandby::start_handover`]).
    Handover(Sender<HandoverState>, Box<dyn FnOnce(&ShadowFs) + Send>),
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
    view: FrozenView,
    handle: Option<JoinHandle<()>>,
    telemetry: OnceLock<Arc<Telemetry>>,
}

impl WarmStandby {
    /// Load a shadow over the frozen `view` (synchronously, so load
    /// errors surface here), and start the apply thread.
    /// `backlog` is replayed first — at mount it is empty; after a
    /// recovery it is the retained completed log, i.e. exactly the
    /// cold-replay initial condition, so the standby's lineage matches
    /// a cold shadow's from then on.
    ///
    /// The caller must take `view` with the device quiesced (mount-time
    /// and the post-recovery respawn both do): its epoch must be the
    /// exact state the backlog continues from.
    ///
    /// # Errors
    ///
    /// Device read errors; shadow load/validation errors.
    pub fn spawn(
        view: FrozenView,
        shadow_opts: ShadowOpts,
        backlog: Vec<OpRecord>,
    ) -> FsResult<WarmStandby> {
        let shadow = ShadowFs::load(Arc::new(view.clone()), shadow_opts)?;
        // before the apply thread or a fork can read through the view
        view.exclude(shadow.never_read());
        let shared = Arc::new(Shared::default());
        if let Some(last) = backlog.last() {
            shared.completed_seq.store(last.seq, Ordering::Release);
        }
        shared
            .published_records
            .store(backlog.len() as u64, Ordering::Release);
        Ok(WarmStandby::start(shadow, view, backlog, shared))
    }

    /// Healthy, with a view that has lost no block. A lost block
    /// degrades the standby here, at the first look after the loss.
    fn healthy(&self) -> bool {
        if !self.view.intact() {
            self.shared.degrade();
        }
        self.shared.healthy()
    }

    /// Attach a telemetry handle: publish-side lag high-water marks
    /// become flight-recorder events. First call wins.
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.telemetry.set(telemetry);
    }

    /// Resume a standby from an already-caught-up shadow — the
    /// post-recovery re-arm path. A warm handover shadow has applied
    /// every completed record and the base has just absorbed its
    /// merged view, so the shadow *is* the current filesystem state:
    /// no new snapshot and no backlog replay are needed, keeping the
    /// re-arm out of the recovery latency. `view` is the frozen view
    /// the shadow reads (the handover's). `resume_seq` is the highest
    /// sequence number the shadow covers. The same quiescence rule as
    /// [`WarmStandby::spawn`] applies.
    #[must_use]
    pub fn resume(shadow: ShadowFs, view: FrozenView, resume_seq: u64) -> WarmStandby {
        let shared = Arc::new(Shared::default());
        shared.completed_seq.store(resume_seq, Ordering::Release);
        shared.applied_seq.store(resume_seq, Ordering::Release);
        WarmStandby::start(shadow, view, Vec::new(), shared)
    }

    /// Start the apply thread over `shadow`, `backlog` first.
    fn start(
        shadow: ShadowFs,
        view: FrozenView,
        backlog: Vec<OpRecord>,
        shared: Arc<Shared>,
    ) -> WarmStandby {
        let (tx, rx) = channel::bounded(CHANNEL_CAPACITY);
        let thread_shared = Arc::clone(&shared);
        let thread_view = view.clone();
        let handle = std::thread::Builder::new()
            .name("rae-standby".into())
            .spawn(move || apply_loop(shadow, thread_view, backlog, &rx, &thread_shared))
            .expect("spawn standby apply thread");
        WarmStandby {
            tx,
            shared,
            view,
            handle: Some(handle),
            telemetry: OnceLock::new(),
        }
    }

    /// Publish one completed record. Call under the same lock that
    /// serializes operation completion (the runtime's op-log lock) so
    /// the channel order is the completion order.
    pub fn publish(&self, rec: OpRecord) -> Publish {
        if !self.healthy() {
            return Publish::Degraded;
        }
        self.shared.completed_seq.store(rec.seq, Ordering::Release);
        let published = self.shared.published_records.fetch_add(1, Ordering::AcqRel) + 1;
        let lag = published.saturating_sub(self.shared.applied_records.load(Ordering::Acquire));
        let seq = rec.seq;
        let (sent, waiting) = match self.tx.try_send(Msg::Record(rec)) {
            Ok(()) => (true, None),
            Err(TrySendError::Full(msg)) => {
                self.shared.publish_waits.fetch_add(1, Ordering::AcqRel);
                (true, Some(msg))
            }
            Err(TrySendError::Disconnected(_)) => (false, None),
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
            active: self.healthy(),
            completed_seq: self.shared.completed_seq.load(Ordering::Acquire),
            applied_seq: self.shared.applied_seq.load(Ordering::Acquire),
            lag: published.saturating_sub(applied),
            applied_records: applied,
            divergences: self.shared.divergences.load(Ordering::Acquire),
            publish_waits: self.shared.publish_waits.load(Ordering::Acquire),
            snapshot_blocks: self.view.held_blocks(),
            snapshot_captures: self.view.captures(),
        }
    }

    /// Start the recovery handover: the apply thread drains everything
    /// published so far (the caller holds the op-log lock, so nothing
    /// new can be published) into its own snapshot, concurrently with
    /// whatever the caller does next, and [`PendingHandover::wait`]
    /// takes ownership of the caught-up shadow. `on_drained` runs on the
    /// apply thread with that shadow once the drain is done, before the
    /// reply; it never runs if the drain fails.
    ///
    /// Returns `None` if the standby degraded — the caller falls back
    /// to cold replay.
    pub fn start_handover(
        self,
        on_drained: impl FnOnce(&ShadowFs) + Send + 'static,
    ) -> Option<PendingHandover> {
        // A degraded standby's state is untrusted whether or not its
        // apply thread has exited yet, so refuse up front.
        if !self.healthy() {
            return None;
        }
        let (reply_tx, reply) = channel::bounded(1);
        if self
            .tx
            .send(Msg::Handover(reply_tx, Box::new(on_drained)))
            .is_err()
        {
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
    view: FrozenView,
    backlog: Vec<OpRecord>,
    rx: &Receiver<Msg>,
    shared: &Shared,
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
            Ok(Msg::Handover(reply, on_drained)) => {
                on_drained(&shadow);
                let _ = reply.send(HandoverState {
                    shadow: Box::new(shadow),
                    report,
                    applied_records: shared.applied_records.load(Ordering::Acquire),
                    view,
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

#[cfg(test)]
mod tests {
    use super::*;
    use rae_blockdev::{BlockDevice, MemDisk, TrackedDisk};
    use rae_fsformat::{apply_corruption, mkfs, Corruption, MkfsParams};
    use rae_shadowfs::{ReadReply, ReadRequest};
    use rae_vfs::{Fd, FsOp, InodeNo, OpenFlags};
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

    /// One more `mkdir` than the channel holds.
    fn over_capacity_ops() -> Vec<FsOp> {
        (0..=CHANNEL_CAPACITY)
            .map(|i| FsOp::Mkdir {
                path: format!("/d{i}"),
            })
            .collect()
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
        standby
            .start_handover(|_| {})
            .and_then(PendingHandover::wait)
    }

    /// A frozen view of `dev` as it is now, through a fresh meter.
    fn frozen(dev: &Arc<MemDisk>) -> FrozenView {
        Arc::new(TrackedDisk::new(dev.clone(), Telemetry::new())).snapshot()
    }

    fn spawn_default(dev: &Arc<MemDisk>) -> WarmStandby {
        WarmStandby::spawn(frozen(dev), ShadowOpts::default(), Vec::new()).unwrap()
    }

    #[test]
    fn apply_thread_catches_up_and_hands_over_live_state() {
        let dev = fresh_dev();
        let records = record_ops(&dev, sample_ops());
        let n = records.len() as u64;
        let standby = spawn_default(&dev);
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
        let standby = WarmStandby::spawn(frozen(&dev), ShadowOpts::default(), records).unwrap();
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
        let records = record_ops(&dev, over_capacity_ops());
        let standby = spawn_default(&dev);
        // Hold the apply thread still so the channel genuinely fills.
        let release = standby.pause();
        for rec in records.iter().take(CHANNEL_CAPACITY).cloned() {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        assert_eq!(standby.status().lag, CHANNEL_CAPACITY as u64);
        assert!(standby.status().active, "a full channel is not a failure");
        release.send(()).unwrap();
        for rec in records.iter().skip(CHANNEL_CAPACITY).cloned() {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        wait_until(|| standby.status().lag == 0);
        assert_eq!(standby.status().applied_records, records.len() as u64);
    }

    #[test]
    fn warm_publish_waits_count_blocked_publishes() {
        let dev = fresh_dev();
        let records = record_ops(&dev, over_capacity_ops());
        let standby = Arc::new(spawn_default(&dev));
        let release = standby.pause();
        for rec in records.iter().take(CHANNEL_CAPACITY).cloned() {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        assert_eq!(standby.status().publish_waits, 0, "room for each");
        let over = records[CHANNEL_CAPACITY].clone();
        let publisher = {
            let standby = Arc::clone(&standby);
            std::thread::spawn(move || standby.publish(over))
        };
        wait_until(|| standby.status().publish_waits == 1);
        release.send(()).unwrap();
        assert_eq!(publisher.join().unwrap(), Publish::Accepted);
        wait_until(|| standby.status().lag == 0);
        let status = standby.status();
        assert_eq!(status.applied_records, records.len() as u64);
        assert!(status.active);
        assert_eq!(status.publish_waits, 1);
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
            frozen(&dev),
            ShadowOpts {
                validate_image: false,
                ..ShadowOpts::default()
            },
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
    fn warm_a_view_that_lost_a_block_degrades_the_standby() {
        use rae_blockdev::{DiskFaultPlan, FaultTarget, FaultyDisk, TriggerMode, BLOCK_SIZE};
        let dev = fresh_dev();
        // a file that exists at the view's epoch: the image a shadow
        // reaches by creating it, written to the device
        let mut seeder =
            ShadowFs::load(dev.clone() as Arc<dyn BlockDevice>, ShadowOpts::default()).unwrap();
        for op in sample_ops()
            .into_iter()
            .take(3)
            .chain([FsOp::Close { fd: Fd(3) }])
        {
            seeder.execute_autonomous(&op).unwrap();
        }
        let delta = seeder.into_delta();
        for (bno, img) in delta.meta_blocks.iter().chain(&delta.data_blocks) {
            dev.write_block(*bno, img).unwrap();
        }
        let (file_block, _) = delta
            .data_blocks
            .iter()
            .find(|(_, img)| img.starts_with(b"warm payload"))
            .expect("the file's data block");
        let records = record_ops(&dev, over_capacity_ops().into_iter().take(2).collect());
        let disk = Arc::new(FaultyDisk::new(MemDisk::clone_of(dev.as_ref()).unwrap()));
        let tracker = Arc::new(TrackedDisk::new(
            Arc::clone(&disk) as Arc<dyn BlockDevice>,
            Telemetry::new(),
        ));
        let standby =
            WarmStandby::spawn(tracker.snapshot(), ShadowOpts::default(), Vec::new()).unwrap();
        assert_eq!(standby.publish(records[0].clone()), Publish::Accepted);
        // the copy-before-write read of the file's block, which the view
        // keeps and has not read, fails; the in-place overwrite lands
        disk.set_plan(
            DiskFaultPlan::new().fail_reads(FaultTarget::Block(*file_block), TriggerMode::Always),
        );
        tracker.write_block(*file_block, &[7; BLOCK_SIZE]).unwrap();
        assert!(!standby.status().active);
        assert_eq!(standby.publish(records[1].clone()), Publish::Degraded);
        assert!(handover(standby).is_none(), "no handover from a lossy view");
    }

    #[test]
    fn handover_drains_queued_tail_exactly_once() {
        let dev = fresh_dev();
        let records = record_ops(&dev, sample_ops());
        let n = records.len() as u64;
        let standby = spawn_default(&dev);
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
        let standby = spawn_default(&dev);
        let release = standby.pause();
        for rec in records {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        // starting does not wait: the whole backlog is still queued
        let pending = standby.start_handover(|_| {}).expect("healthy standby");
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
    fn the_drained_callback_sees_the_caught_up_shadow() {
        let dev = fresh_dev();
        let standby = spawn_default(&dev);
        let release = standby.pause();
        for rec in record_ops(&dev, sample_ops()) {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        let (seen_tx, seen) = channel::bounded(1);
        let pending = standby
            .start_handover(move |shadow| {
                // a fork reads on its own while the handover goes on
                let stat = shadow.fork().serve_read(&ReadRequest::Stat {
                    path: "/dir/a".into(),
                });
                seen_tx.send(stat).unwrap();
            })
            .expect("healthy standby");
        assert!(seen.try_recv().is_err(), "called before the drain");
        release.send(()).unwrap();
        let Ok(ReadReply::Stat(st)) = seen.recv().unwrap() else {
            panic!("stat reply shape");
        };
        assert_eq!(st.size, b"warm payload".len() as u64);
        assert!(pending.wait().is_some());
    }

    #[test]
    fn a_handover_whose_drain_fails_waits_to_none() {
        let dev = fresh_dev();
        let standby = spawn_default(&dev);
        let release = standby.pause();
        for rec in record_ops(&dev, sample_ops()) {
            assert_eq!(standby.publish(rec), Publish::Accepted);
        }
        let (called_tx, called) = channel::bounded(1);
        let pending = standby
            .start_handover(move |_| called_tx.send(()).unwrap())
            .expect("healthy when started");
        drop(release); // the apply thread dies mid-drain
        assert!(pending.wait().is_none());
        assert!(called.try_recv().is_err(), "no drained shadow to call with");
    }
}
