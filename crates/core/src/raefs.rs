//! The public RAE filesystem: records operations, detects runtime
//! errors, and masks them through shadow recovery.

use crate::oplog::OpLog;
use crate::report::{LadderRung, RaeStats, RecoveryReport, RecoveryTrigger, RungFailure};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rae_basefs::{BaseFs, BaseFsConfig, OpSequencer};
use rae_blockdev::{BlockDevice, FrozenView, IoPhase, RetryDisk, RetryPolicy, TrackedDisk};
use rae_faults::{FaultAction, OpContext, Site, INJECTED_PANIC_PREFIX};
use rae_shadowfs::{ReadReply, ReadRequest, ResyncReport, ShadowFs, ShadowOpts};
use rae_standby::{PendingHandover, Publish, StandbyOpts, StandbyStatus, WarmStandby};
use rae_telemetry::{DevOp, EventKind, OpClass, Telemetry};
use rae_vfs::slot::{SlotLock, SlotReadGuard};
use rae_vfs::{
    DirEntry, Fd, FileStat, FileSystem, FsError, FsGeometryInfo, FsOp, FsResult, FsStatus, InodeNo,
    OpKind, OpOutcome, OpRecord, OpenFlags, SetAttr,
};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the runtime reacts to a runtime error in the base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Robust Alternative Execution: contained reboot + shadow
    /// recovery + hand-off (the paper's approach).
    Rae,
    /// Baseline: drop all in-memory state and remount from disk.
    /// Buffered updates and all descriptors are lost; the failing
    /// operation returns an I/O error.
    CrashRemount,
    /// Baseline: return the error to the application and keep running
    /// on the (now untrusted) base state. Unsafe by construction; used
    /// only to quantify the paper's "returning an error code … is
    /// insufficient" argument.
    ErrorReturn,
}

/// Give up (go offline) after this many recoveries with no successful
/// operation in between — a recovery storm means the shadow's output
/// immediately re-triggers errors and availability is no longer being
/// bought.
pub const MAX_CONSECUTIVE_RECOVERIES: u32 = 8;

/// Configuration of the RAE runtime.
#[derive(Debug, Clone)]
pub struct RaeConfig {
    /// Base filesystem configuration.
    pub base: BaseFsConfig,
    /// Reaction to runtime errors.
    pub mode: RecoveryMode,
    /// Shadow configuration used during recovery. Cross-check
    /// disagreements are reported and recovery continues.
    pub shadow: ShadowOpts,
    /// Treat WARN events as runtime errors (recover immediately).
    pub treat_warn_as_error: bool,
    /// Force a persistence barrier (sync) when the operation log
    /// exceeds this many records.
    pub max_log_records: usize,
    /// Warm-standby shadow configuration (default-off: cold replay is
    /// the baseline).
    pub standby: StandbyOpts,
    /// Retry budget and backoff for the ladder's cold-retry rung
    /// (transient device errors during recovery are re-issued under
    /// this policy before the mount degrades to read-only).
    pub retry: RetryPolicy,
    /// Telemetry handle shared across the whole stack (histograms +
    /// flight recorder). `None` means the mount creates its own; pass
    /// one in to share a stream with harness-owned device wrappers.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl Default for RaeConfig {
    fn default() -> RaeConfig {
        RaeConfig {
            base: BaseFsConfig::default(),
            mode: RecoveryMode::Rae,
            shadow: ShadowOpts::default(),
            treat_warn_as_error: false,
            max_log_records: 10_000,
            standby: StandbyOpts::default(),
            retry: RetryPolicy::default(),
            telemetry: None,
        }
    }
}

/// Internal uniform return value of base dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ret {
    Unit,
    Opened(Fd, InodeNo, bool),
    Written(usize),
}

thread_local! {
    /// The operation this thread is currently dispatching into the
    /// base, readable by the sequencer callback. Set before dispatch,
    /// taken back after; the dispatch borrow and the sequencer's read
    /// are both immutable so they coexist on the one thread.
    static CURRENT_OP: RefCell<Option<FsOp>> = const { RefCell::new(None) };
    /// Set by the sequencer when the in-flight op reached its
    /// sequencing point: the assigned log seq and recorded outcome.
    /// `Some` after dispatch means the op is already in the log as
    /// completed, even if the dispatch call itself returned an error
    /// (post-op machinery such as the journal commit failed).
    static LAST_SEQUENCED: RefCell<Option<(u64, OpOutcome)>> = const { RefCell::new(None) };
}

#[cfg(test)]
thread_local! {
    /// Test hook: run once by this thread's next recovery between the
    /// rung's resync and its metadata download, with the gate held.
    pub(crate) static BEFORE_ABSORB: RefCell<Option<Box<dyn FnOnce() + Send>>> =
        const { RefCell::new(None) };
}

/// State shared between the runtime and the sequencer callback the
/// base invokes at each operation's internal sequencing point: the
/// operation log and the warm standby it feeds.
struct LogShared {
    log: Mutex<OpLog>,
    /// The log's length and trimmed total, mirrored each time a
    /// [`LogGuard`] drops, so `stats` reads them without waiting out a
    /// recovery that holds the log for its whole ladder.
    log_len: AtomicUsize,
    log_trimmed: AtomicU64,
    /// The warm standby, when spawned and healthy. `None` after
    /// degradation or when disabled; recovery takes the cold path.
    standby: Mutex<Option<WarmStandby>>,
    /// A standby was lost (apply failure, failed warm rung, or respawn
    /// failure) — surfaced in stats, reset on respawn.
    standby_degraded: AtomicBool,
    /// Divergence and publish-wait counts carried over from standbys
    /// that have been torn down or handed over. A live standby's
    /// counters are added on top in `stats`; without this accumulation
    /// every teardown would silently zero the totals.
    standby_divergences_acc: AtomicU64,
    standby_publish_waits_acc: AtomicU64,
}

impl LogShared {
    /// Lock the op log.
    fn log(&self) -> LogGuard<'_> {
        LogGuard {
            log: self.log.lock(),
            shared: self,
        }
    }

    /// Fold a standby handle's final counters into the runtime-owned
    /// accumulators before it is dropped or handed over, so divergence
    /// and publish-wait totals survive the teardown. Every site that
    /// removes a handle from `self.standby` (or consumes a taken one)
    /// must route through here.
    fn retire_standby(&self, sb: &WarmStandby) {
        let st = sb.status();
        self.standby_divergences_acc
            .fetch_add(st.divergences, Ordering::Relaxed);
        self.standby_publish_waits_acc
            .fetch_add(st.publish_waits, Ordering::Relaxed);
    }

    /// Publish the just-completed record `seq` to the warm standby.
    /// Callers hold the op-log lock, which serializes completion — so
    /// publish order is completion order and nothing publishes while
    /// `recover` (also under the log lock) drains the channel.
    fn publish_to_standby(&self, log: &OpLog, seq: u64) {
        let mut guard = self.standby.lock();
        let Some(sb) = guard.as_ref() else { return };
        if sb.publish(log.record_of(seq).clone()) == Publish::Degraded {
            self.retire_standby(sb);
            *guard = None; // drops the handle and joins the apply thread
            self.standby_degraded.store(true, Ordering::Release);
        }
    }
}

/// The op-log lock. On release — still under the lock, since the
/// inner guard drops after `drop` runs — it mirrors the log's length
/// and trimmed total into [`LogShared`]'s counters.
struct LogGuard<'a> {
    log: MutexGuard<'a, OpLog>,
    shared: &'a LogShared,
}

impl std::ops::Deref for LogGuard<'_> {
    type Target = OpLog;
    fn deref(&self) -> &OpLog {
        &self.log
    }
}

impl std::ops::DerefMut for LogGuard<'_> {
    fn deref_mut(&mut self) -> &mut OpLog {
        &mut self.log
    }
}

impl Drop for LogGuard<'_> {
    fn drop(&mut self) {
        let s = self.shared;
        s.log_len.store(self.log.len(), Ordering::Relaxed);
        s.log_trimmed
            .store(self.log.trimmed_total(), Ordering::Relaxed);
    }
}

/// The base's [`OpSequencer`]: invoked at each mutation's sequencing
/// point with the operation's per-inode locks still held, it appends
/// the completed record to the op log and publishes it to the warm
/// standby. This is what makes the log's total order equal the base's
/// actual apply order when mutations run concurrently — the old
/// pre-dispatch append (which serialized every mutation behind the log
/// lock for its whole execution) is gone.
struct RaeSequencer {
    shared: Arc<LogShared>,
}

impl OpSequencer for RaeSequencer {
    fn sequenced(&self, outcome: &OpOutcome) -> Option<u64> {
        // Clone rather than take: the dispatching frame still borrows
        // the op for the remainder of the base call. One payload copy
        // per sequenced mutation, paid outside the log lock.
        let op = CURRENT_OP.with(|c| c.borrow().as_ref().cloned())?;
        let mut log = self.shared.log();
        let seq = log.append_completed(op, outcome.clone());
        LAST_SEQUENCED.with(|l| *l.borrow_mut() = Some((seq, outcome.clone())));
        self.shared.publish_to_standby(&log, seq);
        Some(seq)
    }
}

/// The RAE filesystem: a [`BaseFs`] wrapped with operation recording,
/// error detection, and shadow recovery. Implements [`FileSystem`];
/// applications cannot tell recoveries happened except by latency.
pub struct RaeFs {
    base: BaseFs,
    config: RaeConfig,
    /// The op log + warm standby, shared with the sequencer callback
    /// installed in the base. Lock order: `gate` before `log` before
    /// `standby`, everywhere.
    shared: Arc<LogShared>,
    /// Recovery quiesce gate: operations hold `read`, recovery holds
    /// `write` ("during recovery, new application operations are not
    /// admitted"). One exception: once a warm rung's standby has
    /// drained, a read that finds the gate shut is answered from the
    /// fork in `serve` instead of waiting for the gate to drop. A
    /// reader-slot lock: an operation locks only its thread's slot, so
    /// two threads admitted at once write no cache line in common. A
    /// recovery takes the slots one by one, so an operation may still be
    /// admitted on a slot it has not reached; it is out of the base
    /// before the recovery holds its slot, as one admitted just before.
    gate: SlotLock,
    /// The reads' side door while `recover` holds the gate (see
    /// [`Serve`]); the condvar wakes readers when a fork is published
    /// and when a recovery ends. Taken after `gate`, never before it.
    serve: Arc<(Mutex<Serve>, Condvar)>,
    reads_served_in_recovery: AtomicU64,
    reports: Mutex<Vec<RecoveryReport>>,
    /// Directly on the device under the base: meters every request
    /// into `telemetry`, and records which blocks the base writes,
    /// drained at every standby snapshot point and every warm
    /// hand-over — the write set warm recovery's resync reconciles the
    /// standby against.
    tracker: Arc<TrackedDisk>,
    failed: AtomicBool,
    /// Read-only degraded: the ladder exhausted its shadow rungs but a
    /// contained reboot produced a journal-consistent base to serve
    /// reads from. Mutations are refused with [`FsError::ReadOnly`].
    degraded: AtomicBool,
    detected_errors: AtomicU64,
    panics_caught: AtomicU64,
    recoveries: AtomicU64,
    recovery_failures: AtomicU64,
    ops_masked: AtomicU64,
    recovery_time_ns: AtomicU64,
    consecutive_recoveries: AtomicU64,
    /// Per rung, indexed by [`rung_slot`]: recoveries that ended on it,
    /// and the time spent attempting it (failures included).
    rung_count: [AtomicU64; RUNG_SLOTS],
    rung_time_ns: [AtomicU64; RUNG_SLOTS],
    device_retries: AtomicU64,
    device_faults_absorbed: AtomicU64,
    device_retries_exhausted: AtomicU64,
    telemetry: Arc<Telemetry>,
}

/// What a reader that finds the quiesce gate shut can use instead.
#[derive(Default)]
struct Serve {
    /// Recoveries that hold the gate or are waiting for it; counted
    /// before `gate.write()`, so a read turned away by a waiting
    /// recovery parks on the condvar rather than at the gate.
    recovering: u32,
    /// A read-only fork of the warm standby's shadow, published by the
    /// handover's drained callback: it holds exactly the completed
    /// records, and no mutation is admitted while it is up, so every
    /// read it answers linearizes before the in-flight operation.
    fork: Option<ShadowFs>,
    /// Reads the fork answered in the current recovery.
    served: u64,
}

/// Held by `recover` from just after it takes the gate; dropped before
/// the gate on every exit path, it withdraws the fork, ends the
/// recovery's count and wakes the parked readers, who then queue at
/// the gate.
struct ServingGuard<'a>(&'a (Mutex<Serve>, Condvar));

impl Drop for ServingGuard<'_> {
    fn drop(&mut self) {
        let (slot, parked) = self.0;
        let mut serve = slot.lock();
        serve.recovering -= 1;
        serve.served = 0;
        serve.fork = None;
        parked.notify_all();
    }
}

/// Rungs with their own counters: warm, cold, cold-retry and degraded.
const RUNG_SLOTS: usize = 4;

/// The counter slot of `rung`. Offline attempts nothing of its own:
/// the degrade rung's reboot is what fails before it, so it shares that
/// slot.
fn rung_slot(rung: LadderRung) -> usize {
    (rung.code() as usize).min(RUNG_SLOTS - 1)
}

/// Resets the device's I/O phase to `Normal` on drop, so phase-scoped
/// fault plans disarm on every exit path out of recovery.
struct PhaseGuard(Arc<dyn BlockDevice>);

impl PhaseGuard {
    fn arm(dev: Arc<dyn BlockDevice>) -> PhaseGuard {
        dev.set_phase(IoPhase::Recovery);
        PhaseGuard(dev)
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        self.0.set_phase(IoPhase::Normal);
    }
}

/// The payload of one successful ladder rung, before log bookkeeping.
struct RungSuccess {
    outcome: OpOutcome,
    read_reply: Option<FsResult<ReadReply>>,
    report: RecoveryReport,
    /// The warm rung's re-arm: a fork of the handed-over shadow and the
    /// frozen view it reads.
    standby_fork: Option<(ShadowFs, FrozenView)>,
    reissue_sync: bool,
}

impl std::fmt::Debug for RaeFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaeFs")
            .field("mode", &self.config.mode)
            .field("recoveries", &self.recoveries.load(Ordering::Relaxed))
            .finish()
    }
}

impl RaeFs {
    /// Mount a RAE filesystem over `dev`.
    ///
    /// # Errors
    ///
    /// Base mount failures (invalid superblock/journal, device errors).
    /// A panic during mount (crafted-image class) is caught and
    /// reported as [`FsError::Internal`].
    pub fn mount(dev: Arc<dyn BlockDevice>, config: RaeConfig) -> FsResult<RaeFs> {
        let telemetry = config
            .telemetry
            .clone()
            .unwrap_or_else(|| Arc::new(Telemetry::default()));
        let mut base_cfg = config.base.clone();
        base_cfg.telemetry = Some(Arc::clone(&telemetry));
        // interpose the device meter and write tracker below the base
        let tracker = Arc::new(TrackedDisk::new(dev, Arc::clone(&telemetry)));
        let dev = Arc::clone(&tracker) as Arc<dyn BlockDevice>;
        let base = match catch_unwind(AssertUnwindSafe(|| BaseFs::mount(dev, base_cfg))) {
            Ok(r) => r?,
            Err(p) => {
                return Err(FsError::Internal {
                    detail: format!(
                        "base filesystem panicked during mount: {}",
                        panic_msg(p.as_ref())
                    ),
                })
            }
        };
        // spawn the warm standby before any operation completes so its
        // lineage starts at the same on-disk state the base mounted
        let (standby, standby_degraded) =
            if config.standby.enabled && config.mode == RecoveryMode::Rae {
                // drain before the spawn snapshot: anything landing
                // later stays tracked for the next resync
                let _ = tracker.take_written();
                match WarmStandby::spawn(tracker.snapshot(), config.shadow, Vec::new()) {
                    Ok(sb) => {
                        sb.set_telemetry(Arc::clone(&telemetry));
                        (Some(sb), false)
                    }
                    Err(_) => (None, true), // shadow refused the image: run cold
                }
            } else {
                (None, false)
            };
        let shared = Arc::new(LogShared {
            log: Mutex::new(OpLog::new()),
            log_len: AtomicUsize::new(0),
            log_trimmed: AtomicU64::new(0),
            standby: Mutex::new(standby),
            standby_degraded: AtomicBool::new(standby_degraded),
            standby_publish_waits_acc: AtomicU64::new(0),
            standby_divergences_acc: AtomicU64::new(0),
        });
        // the base calls back into the sequencer at each mutation's
        // sequencing point; from here on, log order is apply order
        base.set_sequencer(Some(Arc::new(RaeSequencer {
            shared: Arc::clone(&shared),
        })));
        Ok(RaeFs {
            base,
            config,
            shared,
            gate: SlotLock::new(),
            serve: Arc::default(),
            reads_served_in_recovery: AtomicU64::new(0),
            reports: Mutex::new(Vec::new()),
            tracker,
            failed: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            detected_errors: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            recovery_failures: AtomicU64::new(0),
            ops_masked: AtomicU64::new(0),
            recovery_time_ns: AtomicU64::new(0),
            consecutive_recoveries: AtomicU64::new(0),
            rung_count: Default::default(),
            rung_time_ns: Default::default(),
            device_retries: AtomicU64::new(0),
            device_faults_absorbed: AtomicU64::new(0),
            device_retries_exhausted: AtomicU64::new(0),
            telemetry,
        })
    }

    /// The telemetry handle shared across the stack: per-class latency
    /// histograms, per-phase device timings, and the flight recorder.
    #[must_use]
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry)
    }

    /// Cleanly unmount (commit + checkpoint + clean superblock).
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn unmount(self) -> FsResult<()> {
        self.base.unmount()
    }

    /// Access the wrapped base filesystem (benchmarks and tests).
    #[must_use]
    pub fn base(&self) -> &BaseFs {
        &self.base
    }

    /// Run `f` on the installed warm standby, if there is one (tests
    /// reach the standby's hooks through this).
    #[cfg(test)]
    pub(crate) fn with_standby<R>(&self, f: impl FnOnce(&WarmStandby) -> R) -> Option<R> {
        self.shared.standby.lock().as_ref().map(f)
    }

    /// Runtime statistics snapshot. Lock-free apart from the standby
    /// handle, so it answers while a recovery holds the op log.
    #[must_use]
    pub fn stats(&self) -> RaeStats {
        let standby = self.standby_status();
        let count = |r| self.rung_count[rung_slot(r)].load(Ordering::Relaxed);
        let time_ns = |r| self.rung_time_ns[rung_slot(r)].load(Ordering::Relaxed);
        RaeStats {
            detected_errors: self.detected_errors.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            recovery_failures: self.recovery_failures.load(Ordering::Relaxed),
            ops_masked: self.ops_masked.load(Ordering::Relaxed),
            recovery_time_ns: self.recovery_time_ns.load(Ordering::Relaxed),
            rung_warm_time_ns: time_ns(LadderRung::Warm),
            rung_cold_time_ns: time_ns(LadderRung::Cold),
            rung_cold_retry_time_ns: time_ns(LadderRung::ColdRetry),
            rung_degraded_time_ns: time_ns(LadderRung::Degraded),
            log_len: self.shared.log_len.load(Ordering::Relaxed),
            log_trimmed: self.shared.log_trimmed.load(Ordering::Relaxed),
            reads_served_in_recovery: self.reads_served_in_recovery.load(Ordering::Relaxed),
            standby_active: standby.active,
            standby_degraded: self.shared.standby_degraded.load(Ordering::Acquire),
            standby_completed_seq: standby.completed_seq,
            standby_applied_seq: standby.applied_seq,
            standby_lag: standby.lag,
            // totals survive standby teardown: retired handles fold
            // their final counts into the accumulators
            standby_divergences: self.shared.standby_divergences_acc.load(Ordering::Relaxed)
                + standby.divergences,
            standby_publish_waits: self
                .shared
                .standby_publish_waits_acc
                .load(Ordering::Relaxed)
                + standby.publish_waits,
            standby_snapshot_blocks: standby.snapshot_blocks,
            standby_snapshot_captures: standby.snapshot_captures,
            degraded: self.degraded.load(Ordering::Acquire),
            ladder_warm: count(LadderRung::Warm),
            ladder_cold: count(LadderRung::Cold),
            ladder_cold_retry: count(LadderRung::ColdRetry),
            ladder_degraded: count(LadderRung::Degraded),
            device_retries: self.device_retries.load(Ordering::Relaxed),
            device_faults_absorbed: self.device_faults_absorbed.load(Ordering::Relaxed),
            device_retries_exhausted: self.device_retries_exhausted.load(Ordering::Relaxed),
        }
    }

    /// Watermarks and health of the warm standby (all-default when no
    /// standby is live).
    #[must_use]
    pub fn standby_status(&self) -> StandbyStatus {
        self.shared
            .standby
            .lock()
            .as_ref()
            .map(WarmStandby::status)
            .unwrap_or_default()
    }

    /// All recovery reports so far (clone).
    #[must_use]
    pub fn recovery_reports(&self) -> Vec<RecoveryReport> {
        self.reports.lock().clone()
    }

    /// The most recent recovery report, if any recovery has run.
    #[must_use]
    pub fn last_recovery_report(&self) -> Option<RecoveryReport> {
        self.reports.lock().last().cloned()
    }

    /// Online audit (§4.3's testing phase as a runtime API): quiesce,
    /// run the shadow over the current on-disk state and the retained
    /// operation log in constrained mode, and report every discrepancy
    /// between the base's recorded outcomes and the shadow's
    /// re-execution — **without** rebooting or modifying the base.
    /// A dirty report indicates a bug in the base or a missing
    /// condition in the shadow; either way it is worth reporting.
    ///
    /// The base's buffered state must be durable for the shadow to see
    /// it, so the audit starts with a checkpoint, a forced barrier: a
    /// failure in it is masked like any other base failure, and the
    /// recovered state is then checkpointed once more. The remaining
    /// log after the barrier (live opens as `RestoreFd` records) is
    /// what gets replayed.
    ///
    /// # Errors
    ///
    /// Checkpoint failures (a second one after a masked first one
    /// included) or shadow runtime errors.
    pub fn audit(&self) -> FsResult<rae_shadowfs::ReplayReport> {
        // the audit begins with a checkpoint, a mutation of the device:
        // refused in read-only degraded mode like any other mutation
        self.check_writable()?;
        // commit + checkpoint: the raw device must show the full durable
        // state for the shadow to audit it, not a stale image. A masked
        // failure leaves the recovered state to checkpoint once more.
        let checkpoint = || self.forced_barrier(|| self.base.checkpoint());
        if !checkpoint()? && !checkpoint()? {
            return Err(FsError::Internal {
                detail: "audit checkpoint failed again after a masked failure".to_string(),
            });
        }
        let _quiesced = self.gate.write();
        let mut log = self.shared.log();
        log.trim(self.base.persisted_seq());
        let mut shadow = ShadowFs::load(self.base.device(), self.config.shadow)?;
        let (completed, _) = log.for_recovery();
        shadow.replay_constrained(&completed)
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn dispatch_base(&self, op: &FsOp) -> FsResult<Ret> {
        match op {
            FsOp::Create { path, flags } | FsOp::Open { path, flags } => self
                .base
                .open_ex(path, *flags)
                .map(|(fd, ino, created)| Ret::Opened(fd, ino, created)),
            FsOp::RestoreFd {
                fd,
                ino,
                flags,
                path,
            } => self
                .base
                .restore_fd(*fd, *ino, *flags, path)
                .map(|()| Ret::Opened(*fd, *ino, false)),
            FsOp::Close { fd } => self.base.close(*fd).map(|()| Ret::Unit),
            FsOp::Write { fd, offset, data } => {
                self.base.write(*fd, *offset, data).map(Ret::Written)
            }
            FsOp::Truncate { fd, size } => self.base.truncate(*fd, *size).map(|()| Ret::Unit),
            FsOp::SetAttr { path, attr } => self.base.setattr(path, *attr).map(|()| Ret::Unit),
            FsOp::Fsync { fd } => self.base.fsync(*fd).map(|()| Ret::Unit),
            FsOp::Sync => self.base.sync().map(|()| Ret::Unit),
            FsOp::Mkdir { path } => self.base.mkdir(path).map(|()| Ret::Unit),
            FsOp::Rmdir { path } => self.base.rmdir(path).map(|()| Ret::Unit),
            FsOp::Unlink { path } => self.base.unlink(path).map(|()| Ret::Unit),
            FsOp::Rename { from, to } => self.base.rename(from, to).map(|()| Ret::Unit),
            FsOp::Link { existing, new } => self.base.link(existing, new).map(|()| Ret::Unit),
            FsOp::Symlink { target, linkpath } => {
                self.base.symlink(target, linkpath).map(|()| Ret::Unit)
            }
        }
    }

    fn outcome_of(ret: Ret) -> OpOutcome {
        match ret {
            Ret::Unit => OpOutcome::Unit,
            Ret::Opened(fd, ino, created) => OpOutcome::Opened { fd, ino, created },
            Ret::Written(n) => OpOutcome::Written { n },
        }
    }

    fn ret_of(outcome: OpOutcome) -> FsResult<Ret> {
        match outcome {
            OpOutcome::Unit => Ok(Ret::Unit),
            OpOutcome::Opened { fd, ino, created } => Ok(Ret::Opened(fd, ino, created)),
            OpOutcome::Written { n } => Ok(Ret::Written(n)),
            OpOutcome::Failed(e) => Err(e),
            OpOutcome::Pending => Err(FsError::Internal {
                detail: "recovery produced a pending outcome".to_string(),
            }),
        }
    }

    fn check_online(&self) -> FsResult<()> {
        if self.failed.load(Ordering::Acquire) {
            Err(FsError::RecoveryFailed {
                detail: "filesystem is offline after a failed recovery".to_string(),
            })
        } else {
            Ok(())
        }
    }

    /// Online *and* not in read-only degraded mode — the gate for every
    /// mutating entry point.
    fn check_writable(&self) -> FsResult<()> {
        self.check_online()?;
        if self.degraded.load(Ordering::Acquire) {
            return Err(FsError::ReadOnly);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Warm standby
    // ------------------------------------------------------------------

    /// Restart the warm standby after a recovery: the backlog is the
    /// retained completed log over the current device — exactly the
    /// cold-replay initial condition — so the standby's lineage matches
    /// a cold shadow's from here on. Called with the quiesce gate held.
    fn respawn_standby(&self, log: &OpLog) {
        if !self.config.standby.enabled {
            return;
        }
        let (backlog, _) = log.for_recovery();
        // drain before the spawn snapshot (see `mount`)
        let _ = self.tracker.take_written();
        match WarmStandby::spawn(self.tracker.snapshot(), self.config.shadow, backlog) {
            Ok(sb) => {
                sb.set_telemetry(Arc::clone(&self.telemetry));
                *self.shared.standby.lock() = Some(sb);
                self.shared.standby_degraded.store(false, Ordering::Release);
            }
            Err(_) => {
                self.shared.standby_degraded.store(true, Ordering::Release);
            }
        }
    }

    /// Map an operation to its telemetry class (API-boundary
    /// histograms).
    fn class_of_op(op: &FsOp) -> OpClass {
        match op {
            FsOp::Create { .. } | FsOp::RestoreFd { .. } => OpClass::Create,
            FsOp::Mkdir { .. } | FsOp::Rename { .. } | FsOp::Link { .. } | FsOp::Symlink { .. } => {
                OpClass::Create
            }
            FsOp::Write { .. } | FsOp::Truncate { .. } => OpClass::Write,
            FsOp::Unlink { .. } | FsOp::Rmdir { .. } => OpClass::Unlink,
            FsOp::Fsync { .. } | FsOp::Sync => OpClass::Fsync,
            FsOp::Open { .. } | FsOp::Close { .. } | FsOp::SetAttr { .. } => OpClass::Other,
        }
    }

    fn class_of_read(op: &ReadRequest) -> OpClass {
        match op {
            ReadRequest::Read { .. } => OpClass::Read,
            ReadRequest::Readdir { .. } => OpClass::Readdir,
            ReadRequest::Stat { .. }
            | ReadRequest::Fstat { .. }
            | ReadRequest::Readlink { .. }
            | ReadRequest::Statfs => OpClass::Stat,
        }
    }

    /// Stable small code for an error (the `errno`-ish payload word of
    /// `ErrorDetected` events): the variant's position in the `FsError`
    /// declaration.
    fn error_code(e: &FsError) -> u64 {
        match e {
            FsError::NotFound => 1,
            FsError::Exists => 2,
            FsError::NotDir => 3,
            FsError::IsDir => 4,
            FsError::NotEmpty => 5,
            FsError::NoSpace => 6,
            FsError::NoInodes => 7,
            FsError::InvalidArgument => 8,
            FsError::NameTooLong => 9,
            FsError::TooManyOpenFiles => 10,
            FsError::BadFd => 11,
            FsError::BadAccessMode => 12,
            FsError::TooManyLinks => 13,
            FsError::FileTooBig => 14,
            FsError::ReadOnly => 15,
            FsError::Busy => 16,
            FsError::RenameLoop => 17,
            FsError::IoFailed { .. } => 18,
            FsError::Corrupted { .. } => 19,
            FsError::DetectedBug { .. } => 20,
            FsError::CheckFailed { .. } => 21,
            FsError::Internal { .. } => 22,
            FsError::RecoveryFailed { .. } => 23,
        }
    }

    fn trigger_code(trigger: &RecoveryTrigger) -> u64 {
        match trigger {
            RecoveryTrigger::DetectedError(_) => 0,
            RecoveryTrigger::CaughtPanic(_) => 1,
            RecoveryTrigger::WarnPolicy => 2,
        }
    }

    /// Execute a mutating operation with full RAE protection, timing
    /// the whole call (recoveries included — the application-visible
    /// latency) into the per-class histogram. Mutations are journal- or
    /// device-bound, so every one is timed (no sampling) and carries a
    /// per-layer attribution span.
    fn exec_mutating(&self, op: FsOp) -> FsResult<Ret> {
        let class = Self::class_of_op(&op);
        let t0 = self.telemetry.clock();
        self.telemetry.op_span_begin();
        let result = self.exec_mutating_inner(op, class);
        self.telemetry.op_finish(class, t0);
        result
    }

    fn exec_mutating_inner(&self, op: FsOp, class: OpClass) -> FsResult<Ret> {
        self.check_writable()?;
        // Stash the operation where the sequencer callback can see it
        // and clear the last-sequenced marker. The log is NOT locked
        // across dispatch: mutations run concurrently through the
        // base's sharded locks, and the base calls `RaeSequencer`
        // at each op's sequencing point (per-inode locks held) to
        // append the completed record — log order is apply order.
        CURRENT_OP.with(|c| *c.borrow_mut() = Some(op));
        LAST_SEQUENCED.with(|l| *l.borrow_mut() = None);
        let result = self.in_base(class, || {
            CURRENT_OP.with(|c| {
                let cur = c.borrow();
                self.dispatch_base(cur.as_ref().expect("current op stashed"))
            })
        });
        let op = CURRENT_OP.with(|c| c.borrow_mut().take());
        let sequenced = LAST_SEQUENCED.with(|l| l.borrow_mut().take());

        match result {
            Ok(Ok(ret)) => {
                self.made_progress();
                if sequenced.is_none() {
                    // ops the base never sequences (the sync family,
                    // empty writes, no-op renames) are appended
                    // post-hoc so the retained log still describes
                    // them; `note_op_seq` marks them covered by the
                    // next commit so trimming matches the old behavior
                    let op = op.expect("op retained");
                    let is_barrier = op.is_sync_family();
                    let mut log = self.shared.log();
                    let seq = log.append_completed(op, Self::outcome_of(ret));
                    self.base.note_op_seq(seq);
                    self.shared.publish_to_standby(&log, seq);
                    if is_barrier {
                        // a successful barrier is never retained: its
                        // own commit made everything at or below it
                        // durable (the pre-dispatch-append design
                        // appended, committed, and trimmed it in one
                        // critical section)
                        log.drop_barrier(seq);
                    }
                }
                if self.config.treat_warn_as_error && self.base.fault_registry().take_warnings() > 0
                {
                    let trigger = self.base_failed(class, RecoveryTrigger::WarnPolicy);
                    self.answer(trigger, None, None)?;
                }
                let over_budget = {
                    let mut log = self.shared.log();
                    log.trim(self.base.persisted_seq());
                    log.len() > self.config.max_log_records
                };
                if over_budget && self.forced_barrier(|| self.base.sync())? {
                    self.shared.log().trim(self.base.persisted_seq());
                }
                Ok(ret)
            }
            Ok(Err(e)) => {
                // a specified error can only be raised before the
                // sequencing point (names are validated at path-split
                // time, space is reserved up front)
                debug_assert!(sequenced.is_none(), "specified failure after sequencing");
                if sequenced.is_none() {
                    // `Failed` records are published too: the standby
                    // must accumulate the same skip counts a cold
                    // replay of this log would report
                    let mut log = self.shared.log();
                    let seq = log
                        .append_completed(op.expect("op retained"), OpOutcome::Failed(e.clone()));
                    self.base.note_op_seq(seq);
                    self.shared.publish_to_standby(&log, seq);
                    log.trim(self.base.persisted_seq());
                }
                Err(e)
            }
            Err(trigger) => {
                // an operation already sequenced failed in post-op
                // machinery such as the journal commit: it is in the
                // log as completed, recovery replays it as such, and
                // the application receives the recorded outcome
                let in_flight = if sequenced.is_none() { op } else { None };
                let (outcome, _) = self.answer(trigger, in_flight, None)?;
                self.ops_masked.fetch_add(1, Ordering::Relaxed);
                Self::ret_of(sequenced.map_or(outcome, |(_, recorded)| recorded))
            }
        }
    }

    /// Run `f` in the base: admitted through the quiesce gate, its
    /// unwinding caught. Success and specified errors come back as
    /// `Ok`; a runtime error or a panic is classified by
    /// [`RaeFs::base_failed`] and comes back as a recovery trigger.
    fn in_base<T>(
        &self,
        class: OpClass,
        f: impl FnOnce() -> FsResult<T>,
    ) -> Result<FsResult<T>, RecoveryTrigger> {
        self.admitted(self.gate.read(), class, f)
    }

    /// [`RaeFs::in_base`] for a caller that already holds the gate.
    fn admitted<T>(
        &self,
        gate: SlotReadGuard<'_>,
        class: OpClass,
        f: impl FnOnce() -> FsResult<T>,
    ) -> Result<FsResult<T>, RecoveryTrigger> {
        let caught = catch_unwind(AssertUnwindSafe(f));
        drop(gate);
        match caught {
            Ok(Err(e)) if e.is_runtime_error() => {
                Err(self.base_failed(class, RecoveryTrigger::DetectedError(e)))
            }
            Ok(r) => Ok(r),
            Err(p) => {
                Err(self.base_failed(class, RecoveryTrigger::CaughtPanic(panic_msg(p.as_ref()))))
            }
        }
    }

    /// The one classifier of a base failure: count it (a panic apart
    /// from a detected error or a warn-policy hit) and put it on the
    /// flight recorder under the class of the call that failed.
    fn base_failed(&self, class: OpClass, trigger: RecoveryTrigger) -> RecoveryTrigger {
        let (counter, kind, code) = match &trigger {
            RecoveryTrigger::CaughtPanic(_) => (&self.panics_caught, EventKind::PanicCaught, 0),
            RecoveryTrigger::DetectedError(e) => (
                &self.detected_errors,
                EventKind::ErrorDetected,
                Self::error_code(e),
            ),
            RecoveryTrigger::WarnPolicy => (&self.detected_errors, EventKind::ErrorDetected, 0),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.telemetry.event(kind, class.code(), code, 0);
        trigger
    }

    /// A barrier the runtime forces on its own: the log budget's sync
    /// or the audit's checkpoint. It is a base call like any other, so
    /// its failure takes the same road as an operation's and the
    /// configured mode answers it. Under `Rae` the recovery masks it
    /// (no operation was in flight, so none counts as masked) and this
    /// returns `false`; a baseline's answer is the caller's error.
    fn forced_barrier(&self, barrier: impl FnOnce() -> FsResult<()>) -> FsResult<bool> {
        match self.in_base(OpClass::Fsync, barrier) {
            Ok(r) => r.map(|()| true),
            Err(trigger) => self.answer(trigger, None, None).map(|_| false),
        }
    }

    /// The configured mode's answer to a failure in the base, whichever
    /// base call failed: an application's operation (`in_flight` or
    /// `read`, when not yet sequenced) or a barrier the runtime forced.
    fn answer(
        &self,
        trigger: RecoveryTrigger,
        in_flight: Option<FsOp>,
        read: Option<&ReadRequest>,
    ) -> FsResult<(OpOutcome, Option<ReadReply>)> {
        match self.config.mode {
            // read-only degraded is the ladder's last serving rung: a
            // runtime error on the journal-consistent base leaves
            // nothing to recover through
            RecoveryMode::Rae if self.degraded.load(Ordering::Acquire) => {
                self.mark_failed(trigger_error(trigger))
            }
            RecoveryMode::Rae => self.recover(in_flight, read, trigger),
            RecoveryMode::CrashRemount => {
                // the whole machine "crashes": buffered state and every
                // descriptor are gone; remount from disk
                let _quiesced = self.gate.write();
                self.shared.log().clear();
                match self.base.contained_reboot() {
                    Ok(_) => Err(FsError::IoFailed {
                        detail: "filesystem crashed and was remounted; unsynced state lost"
                            .to_string(),
                    }),
                    Err(e) => self.mark_failed(e),
                }
            }
            // nothing was pre-appended; a record sequenced before the
            // failure stays in the log — ErrorReturn keeps running on
            // untrusted state by design
            RecoveryMode::ErrorReturn => Err(trigger_error(trigger)),
        }
    }

    /// An operation completed in the base: the recovery streak ends.
    /// Written only when there is a streak, so the common case reads a
    /// line it shares with the other cores and writes none.
    fn made_progress(&self) {
        if self.consecutive_recoveries.load(Ordering::Relaxed) != 0 {
            self.consecutive_recoveries.store(0, Ordering::Relaxed);
        }
    }

    fn mark_failed<T>(&self, e: FsError) -> FsResult<T> {
        self.failed.store(true, Ordering::Release);
        self.recovery_failures.fetch_add(1, Ordering::Relaxed);
        Err(FsError::RecoveryFailed {
            detail: e.to_string(),
        })
    }

    /// The RAE recovery procedure (§3.2) hardened into a degradation
    /// ladder. Quiesce once, then try rungs in order until one holds:
    ///
    /// 1. **Warm** — standby handover, O(in-flight).
    /// 2. **Cold** — fresh shadow + constrained replay of the log.
    /// 3. **ColdRetry** — the cold path again, reboot included, with
    ///    transient device errors absorbed by a [`RetryDisk`].
    /// 4. **Degraded** — one more contained reboot yields a
    ///    journal-consistent base; serve reads off it, refuse
    ///    mutations with `EROFS`.
    /// 5. **Offline** — last resort; every operation fails.
    ///
    /// Every rung runs under `catch_unwind`, so a panic inside the
    /// recovery machinery itself (nested faults) demotes to the next
    /// rung instead of crossing the API boundary.
    fn recover(
        &self,
        in_flight_op: Option<FsOp>,
        read_in_flight: Option<&ReadRequest>,
        trigger: RecoveryTrigger,
    ) -> FsResult<(OpOutcome, Option<ReadReply>)> {
        // lock order: quiesce gate first, then the log — the same
        // order the sequencer observes (gate read-held by dispatching
        // threads, log taken inside). By the time the write gate is
        // granted, no operation is inside the base and nothing can
        // append to the log concurrently. Readers turned away from the
        // gate park on `serve` from the moment the recovery is counted,
        // and the guard, dropped before the gate, sends them back to it.
        self.serve.0.lock().recovering += 1;
        let _quiesced = self.gate.write();
        let _serving = ServingGuard(&self.serve);
        let mut log_guard = self.shared.log();
        let log = &mut *log_guard;
        let start = Instant::now();
        self.telemetry.event(
            EventKind::RecoveryStarted,
            Self::trigger_code(&trigger),
            log.len() as u64,
            0,
        );

        // recovery-storm guard: masking is pointless if every recovery
        // immediately re-triggers another error
        let streak = self.consecutive_recoveries.fetch_add(1, Ordering::Relaxed) + 1;
        if streak > u64::from(MAX_CONSECUTIVE_RECOVERIES) {
            let e = FsError::Internal {
                detail: format!("recovery storm: {streak} consecutive recoveries without progress"),
            };
            return self.go_offline(trigger, Vec::new(), start, e);
        }

        // everything below runs in the recovery I/O phase: fault plans
        // scoped to recovery arm now (with fresh counters) and disarm
        // when the guard drops, on every exit path
        let _phase = PhaseGuard::arm(self.base.device());

        // the in-flight mutation was never sequenced: append it as the
        // log's pending record so the rungs can complete it
        // autonomously and `resolve_pending` has a record to resolve
        let in_flight_owned: Option<(u64, FsOp)> = in_flight_op.map(|op| {
            let seq = log.append(op.clone());
            self.base.note_op_seq(seq);
            (seq, op)
        });
        let in_flight: Option<(u64, &FsOp)> = in_flight_owned.as_ref().map(|(seq, op)| (*seq, op));

        let (completed, pending) = log.for_recovery();
        debug_assert_eq!(
            pending.as_ref().map(|r| r.seq),
            in_flight.as_ref().map(|(s, _)| *s),
            "pending record must be the in-flight operation"
        );
        let mut failed_rungs: Vec<RungFailure> = Vec::new();

        // Rungs 1–3: warm handover (when a healthy standby exists),
        // cold replay over a fresh shadow, and the cold path once more
        // with the shadow's device I/O — and the reboot — going through
        // a retrying wrapper, so one-shot transient errors cannot kill
        // the attempt. The handover consumes the standby either way: a
        // failed warm attempt falls through to cold with the standby
        // gone. (Take the handle out first: finish_recovery re-arms the
        // standby under the lock.)
        let mut standby = self.shared.standby.lock().take();
        for rung in [LadderRung::Warm, LadderRung::Cold, LadderRung::ColdRetry] {
            if rung == LadderRung::Warm && standby.is_none() {
                continue; // no healthy standby: the ladder starts cold
            }
            let retry_dev = (rung == LadderRung::ColdRetry).then(|| {
                let d = Arc::new(RetryDisk::with_policy(
                    self.base.device(),
                    self.config.retry,
                ));
                d.set_telemetry(Arc::clone(&self.telemetry));
                d
            });
            let rung_t0 = Instant::now();
            self.rung_event(EventKind::RungEntered, rung, 0);
            // the standby drains its tail into its own snapshot while
            // the rung reboots the base; the rung waits for it after.
            // Once drained, a fork of its shadow answers the readers.
            let handover = standby.take().map(|sb| {
                // the handover consumes the handle: bank its counters now
                self.shared.retire_standby(&sb);
                let lag = sb.lag();
                let serve = Arc::clone(&self.serve);
                sb.start_handover(move |shadow| {
                    let fork = shadow.fork();
                    serve.0.lock().fork = Some(fork);
                    serve.1.notify_all();
                })
                .map(|draining| (draining, lag))
            });
            let res = match handover {
                // the standby refused up front: no attempt ran, so the
                // rung is timed but `failed_rungs` keeps to genuinely
                // attempted ones
                Some(None) => None,
                // a panic anywhere in the rung (injected or real) is an
                // error that demotes the ladder instead of unwinding
                // out of `recover`
                handover => Some(
                    catch_unwind(AssertUnwindSafe(|| {
                        self.run_rung(
                            rung,
                            handover.flatten(),
                            retry_dev.as_ref(),
                            &completed,
                            in_flight,
                            read_in_flight,
                            &trigger,
                        )
                    }))
                    .unwrap_or_else(|p| {
                        self.panics_caught.fetch_add(1, Ordering::Relaxed);
                        Err(FsError::Internal {
                            detail: format!(
                                "panic during {} recovery rung: {}",
                                rung.as_str(),
                                panic_msg(p.as_ref())
                            ),
                        })
                    }),
                ),
            };
            if let Some(d) = &retry_dev {
                let rs = d.stats();
                self.device_retries.fetch_add(rs.retries, Ordering::Relaxed);
                self.device_faults_absorbed
                    .fetch_add(rs.absorbed, Ordering::Relaxed);
                self.device_retries_exhausted
                    .fetch_add(rs.exhausted, Ordering::Relaxed);
            }
            match res {
                Some(Ok(s)) => {
                    return self.finish_recovery(
                        log,
                        s,
                        in_flight,
                        &completed,
                        start,
                        rung_t0.elapsed(),
                        failed_rungs,
                    )
                }
                failure => {
                    if rung == LadderRung::Warm {
                        // the handover is over (waited or dropped), so
                        // nothing publishes a fork after this
                        self.serve.0.lock().fork = None;
                        self.shared.standby_degraded.store(true, Ordering::Release);
                    }
                    let e = failure.and_then(Result::err);
                    failed_rungs.extend(self.rung_failed(rung, e.as_ref(), rung_t0.elapsed()));
                }
            }
        }

        // Rung 4 — read-only degraded: the shadow cannot reproduce the
        // retained log, but a contained reboot still yields the
        // journal-consistent durable state. Serve reads off that.
        let rung_t0 = Instant::now();
        self.rung_event(EventKind::RungEntered, LadderRung::Degraded, 0);
        let reboot = catch_unwind(AssertUnwindSafe(|| self.base.contained_reboot()))
            .unwrap_or_else(|p| {
                Err(FsError::Internal {
                    detail: format!("panic during degrade reboot: {}", panic_msg(p.as_ref())),
                })
            });
        match reboot {
            Ok(_boot) => self.enter_degraded(
                log,
                trigger,
                failed_rungs,
                start,
                rung_t0.elapsed(),
                in_flight,
                read_in_flight,
            ),
            Err(e) => {
                failed_rungs.extend(self.rung_failed(
                    LadderRung::Degraded,
                    Some(&e),
                    rung_t0.elapsed(),
                ));
                self.go_offline(trigger, failed_rungs, start, e)
            }
        }
    }

    /// Flight-recorder shorthand for rung lifecycle events.
    fn rung_event(&self, kind: EventKind, rung: LadderRung, b: u64) {
        self.telemetry.event(kind, rung.code(), b, 0);
    }

    /// Charge `elapsed` to `rung`'s time, and count the recovery on it
    /// when it `ended` there.
    fn charge_rung(&self, rung: LadderRung, elapsed: Duration, ended: bool) {
        let slot = rung_slot(rung);
        self.rung_time_ns[slot].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        if ended {
            self.rung_count[slot].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bookkeeping for one failed rung: per-rung time, the `RungFailed`
    /// flight-recorder event, and — when an attempt ran and `e` says
    /// why it failed — the report entry.
    fn rung_failed(
        &self,
        rung: LadderRung,
        e: Option<&FsError>,
        elapsed: Duration,
    ) -> Option<RungFailure> {
        self.charge_rung(rung, elapsed, false);
        self.rung_event(EventKind::RungFailed, rung, elapsed.as_nanos() as u64);
        e.map(|e| RungFailure {
            rung,
            error: e.to_string(),
            duration: elapsed,
        })
    }

    /// Fire the [`Site::RecoveryReplay`] fault-injection site: nested
    /// faults in the shadow phase of recovery (handover resync or
    /// constrained replay).
    fn replay_fault_hook(&self) -> FsResult<()> {
        let ctx = OpContext::new(OpKind::Sync, Site::RecoveryReplay);
        match self.base.fault_registry().check(&ctx) {
            Some(FaultAction::FailDetected { bug_id }) => Err(FsError::DetectedBug { bug_id }),
            Some(FaultAction::Panic { bug_id }) => {
                panic!("{INJECTED_PANIC_PREFIX} #{bug_id}: panic at recovery replay")
            }
            _ => Ok(()),
        }
    }

    /// One full rung: contained reboot, caught-up shadow (via the warm
    /// handover draining meanwhile, or a cold load + constrained replay
    /// — through `retry_dev` on the retry rung), autonomous in-flight
    /// completion, and metadata download into the base. Any error
    /// aborts the rung; the ladder decides what rung comes next.
    #[allow(clippy::too_many_arguments)]
    fn run_rung(
        &self,
        rung: LadderRung,
        warm: Option<(PendingHandover, u64)>,
        retry_dev: Option<&Arc<RetryDisk<Arc<dyn BlockDevice>>>>,
        completed: &[OpRecord],
        in_flight: Option<(u64, &FsOp)>,
        read_in_flight: Option<&ReadRequest>,
        trigger: &RecoveryTrigger,
    ) -> FsResult<RungSuccess> {
        let t0 = Instant::now();

        // 1. contained reboot: discard untrusted memory, replay the
        // journal. The reboot reads through the base's own device
        // handle, below any retry wrapper — on the retry rung, give its
        // transient failures the same bounded budget by re-issuing the
        // whole reboot (idempotent over the durable state).
        let boot = match retry_dev {
            Some(d) => d.retrying(|| self.base.contained_reboot())?,
            None => self.base.contained_reboot()?,
        };
        let reboot_time = t0.elapsed();

        // 2.+3. obtain a caught-up shadow. Warm path: the standby has
        // already applied every completed record — the handover drained
        // the published-but-unapplied tail (O(in-flight)) during the
        // reboot, and what is left of that drain is waited for here.
        // Cold path: fresh shadow load + constrained replay of the
        // whole retained log (O(retained log)).
        self.replay_fault_hook()?;
        let mut t_replay = Instant::now();
        let mut cold_view: Option<FrozenView> = None;
        // what the shadow phase reads from the device, off the mount's
        // meter: `(requests, blocks)`
        let meter = || {
            let t = &self.telemetry;
            (t.dev_requests(DevOp::Read), t.dev_blocks(DevOp::Read))
        };
        let meter_before = meter();
        let (view, shadow_load_time, mut shadow, replay, records_replayed) = match warm {
            Some((draining, drained)) => {
                let handed = draining.wait().ok_or_else(|| FsError::Internal {
                    detail: "warm standby failed while draining for the handover".to_string(),
                })?;
                (
                    Some(handed.view),
                    Duration::ZERO,
                    *handed.shadow,
                    handed.report,
                    drained,
                )
            }
            None => {
                // the shadow phase reads through a per-attempt snapshot
                // of the just-rebooted device, so image validation, load
                // and replay share one pass over the metadata. It stays
                // at this moment however the device is written after
                // (copy-before-write), and the shadow never writes to
                // it. The retry rung retries above the view, which
                // keeps no failed read.
                let view = self.tracker.snapshot();
                let dev: Arc<dyn BlockDevice> = match retry_dev {
                    Some(d) => Arc::new(d.over(view.clone())),
                    None => Arc::new(view.clone()),
                };
                cold_view = Some(view);
                let t_load = Instant::now();
                let mut shadow = ShadowFs::load(dev, self.config.shadow)?;
                let load_time = t_load.elapsed();
                t_replay = Instant::now();
                let replay = shadow.replay_constrained(completed)?;
                let executed = replay.executed;
                (None, load_time, shadow, replay, executed)
            }
        };
        // 4. autonomous execution of the in-flight operation (pending
        // reads complete through the shadow too)
        let mut reissue_sync = false;
        let outcome = match in_flight {
            Some((_, op)) if op.is_sync_family() => {
                reissue_sync = true;
                OpOutcome::Unit
            }
            Some((_, op)) => shadow.execute_autonomous(op)?,
            None => OpOutcome::Unit,
        };
        let read_reply = match read_in_flight {
            Some(req) => match shadow.serve_read(req) {
                Ok(r) => Some(Ok(r)),
                Err(e) if e.is_specified() => Some(Err(e)),
                Err(e) => return Err(e),
            },
            None => None,
        };

        // Warm path: the shadow ran on its own frozen view, so its
        // overlay is not yet the whole difference to the live image the
        // base kept writing. Quiesced, caught up, and the device just
        // rebooted to the durable state: reconcile against the base's
        // write set — from what the shadow already holds and the view
        // copied before the base overwrote it, without a read of the
        // live device — then fork before the metadata download consumes
        // the shadow: the copy resumes as the next standby, over the
        // same view, without a new snapshot or a backlog replay.
        let (resync, standby_fork) = match view {
            Some(view) => {
                let written = self.tracker.take_written();
                (
                    shadow.resync_against(&written)?,
                    Some((shadow.fork(), view)),
                )
            }
            None => (ResyncReport::default(), None),
        };

        // 5. metadata download into the rebooted base
        let replay_time = t_replay.elapsed();
        let t_handoff = Instant::now();
        let shadow_checks = shadow.checks_performed();
        let delta = shadow.into_delta();
        // both rungs: whatever crossed the meter since the reboot (the
        // cold rung's first reads through its view; nothing, warm)
        let (requests, blocks) = meter();
        let shadow_device_requests = requests - meter_before.0;
        let shadow_device_reads = blocks - meter_before.1;
        // the shadow is consumed: the view goes with this last handle,
        // before the download's writes would copy into it
        let shadow_memo_hits = cold_view.map_or(0, |v| v.hits());
        let mut report = RecoveryReport {
            trigger: trigger.clone(),
            rung,
            failed_rungs: Vec::new(), // filled by finish_recovery
            duration: t0.elapsed(),   // refined by finish_recovery
            rung_time: t0.elapsed(),  // refined by finish_recovery
            reboot_time,
            shadow_load_time,
            replay_time,
            handoff_time: Duration::ZERO, // refined below
            journal_transactions_replayed: boot.transactions,
            records_replayed,
            records_skipped: replay.skipped_errors + replay.skipped_sync,
            discrepancies: replay.discrepancies,
            delta_meta_blocks: delta.meta_blocks.len(),
            delta_data_blocks: delta.data_blocks.len(),
            fds_restored: delta.fd_entries.len(),
            shadow_checks,
            shadow_device_reads,
            shadow_device_requests,
            shadow_memo_hits,
            resync_candidates: resync.candidates,
            resync_pinned: resync.pinned,
            resync_pruned: resync.pruned,
            reads_served: 0, // counted by file_report
            had_in_flight: in_flight.is_some(),
        };
        #[cfg(test)]
        if let Some(hook) = BEFORE_ABSORB.with(|h| h.borrow_mut().take()) {
            hook();
        }
        self.base.absorb_recovery(delta)?;
        report.handoff_time = t_handoff.elapsed();
        Ok(RungSuccess {
            outcome,
            read_reply,
            report,
            standby_fork,
            reissue_sync,
        })
    }

    /// Post-rung bookkeeping for a successful recovery: resolve the
    /// in-flight record, re-issue a pending sync, re-arm the warm
    /// standby, and file the report.
    #[allow(clippy::too_many_arguments)]
    fn finish_recovery(
        &self,
        log: &mut OpLog,
        success: RungSuccess,
        in_flight: Option<(u64, &FsOp)>,
        completed: &[OpRecord],
        start: Instant,
        rung_elapsed: Duration,
        failed_rungs: Vec<RungFailure>,
    ) -> FsResult<(OpOutcome, Option<ReadReply>)> {
        let RungSuccess {
            outcome,
            read_reply,
            mut report,
            standby_fork,
            reissue_sync,
        } = success;

        // the in-flight record is resolved with the shadow's outcome;
        // the log stays (S0 has not advanced) unless a sync is
        // re-issued below
        if let Some((seq, _)) = in_flight {
            log.resolve_pending(seq, outcome.clone());
        }
        if reissue_sync {
            if let Err(e) = self.base.sync() {
                // the recovered state re-failed at its first barrier:
                // the rung's hand-off is untrustworthy and there is no
                // replayable log below it
                let trigger = report.trigger.clone();
                return self.go_offline(trigger, failed_rungs, start, e);
            }
            log.trim(self.base.persisted_seq());
        }

        // re-arm the warm standby so the *next* recovery is warm too:
        // a warm recovery resumes the forked shadow (it already holds
        // the exact state the base just absorbed); a cold one re-spawns
        // from a fresh frozen view plus the retained log
        match standby_fork {
            Some((forked, view)) => {
                let resume_seq = in_flight
                    .map(|(s, _)| s)
                    .or_else(|| completed.last().map(|r| r.seq))
                    .unwrap_or(0);
                let resumed = WarmStandby::resume(forked, view, resume_seq);
                resumed.set_telemetry(Arc::clone(&self.telemetry));
                *self.shared.standby.lock() = Some(resumed);
                self.shared.standby_degraded.store(false, Ordering::Release);
            }
            None => self.respawn_standby(log),
        }

        self.recoveries.fetch_add(1, Ordering::Relaxed);
        self.charge_rung(report.rung, rung_elapsed, true);
        report.duration = start.elapsed();
        report.rung_time = rung_elapsed;
        report.failed_rungs = failed_rungs;
        self.file_report(report);
        match read_reply {
            Some(Ok(r)) => Ok((outcome, Some(r))),
            Some(Err(e)) => Err(e), // the application's specified answer
            None => Ok((outcome, None)),
        }
    }

    /// Enter read-only degraded mode (the contained reboot already
    /// succeeded): the retained log and any in-flight mutation are
    /// lost, reads are served off the journal-consistent base, and
    /// every mutating entry point returns [`FsError::ReadOnly`].
    #[allow(clippy::too_many_arguments)]
    fn enter_degraded(
        &self,
        log: &mut OpLog,
        trigger: RecoveryTrigger,
        failed_rungs: Vec<RungFailure>,
        start: Instant,
        rung_elapsed: Duration,
        in_flight: Option<(u64, &FsOp)>,
        read_in_flight: Option<&ReadRequest>,
    ) -> FsResult<(OpOutcome, Option<ReadReply>)> {
        self.degraded.store(true, Ordering::Release);
        self.charge_rung(LadderRung::Degraded, rung_elapsed, true);
        // the shadow could not reproduce the retained log: it is
        // unreplayable and the buffered tail it described is gone
        log.clear();
        if self.config.standby.enabled {
            self.shared.standby_degraded.store(true, Ordering::Release);
        }
        let mut report =
            RecoveryReport::terminal(trigger, LadderRung::Degraded, failed_rungs, start.elapsed());
        report.rung_time = rung_elapsed;
        report.had_in_flight = in_flight.is_some() || read_in_flight.is_some();
        self.telemetry.event(EventKind::Degraded, 0, 0, 0);
        self.file_report(report);

        // a pending read can still be answered off the now
        // journal-consistent base; a pending mutation cannot
        match read_in_flight {
            Some(req) => match catch_unwind(AssertUnwindSafe(|| self.dispatch_read_base(req))) {
                Ok(Ok(r)) => Ok((OpOutcome::Unit, Some(r))),
                Ok(Err(e)) if e.is_specified() => Err(e),
                Ok(Err(e)) => self.mark_failed(e),
                Err(p) => self.mark_failed(FsError::Internal {
                    detail: format!(
                        "base panicked serving a degraded read: {}",
                        panic_msg(p.as_ref())
                    ),
                }),
            },
            None => Err(FsError::ReadOnly),
        }
    }

    /// The ladder's last rung: file an offline report and take the
    /// mount down.
    fn go_offline(
        &self,
        trigger: RecoveryTrigger,
        failed_rungs: Vec<RungFailure>,
        start: Instant,
        e: FsError,
    ) -> FsResult<(OpOutcome, Option<ReadReply>)> {
        self.telemetry.event(EventKind::Offline, 0, 0, 0);
        self.file_report(RecoveryReport::terminal(
            trigger,
            LadderRung::Offline,
            failed_rungs,
            start.elapsed(),
        ));
        self.mark_failed(e)
    }

    /// File a finished recovery: its wall time and the reads its fork
    /// answered (the fork goes here) into the stats, the
    /// `ReadsServedInRecovery` and `RecoveryDone` events, and the
    /// report itself.
    fn file_report(&self, mut report: RecoveryReport) {
        report.reads_served = self.stop_serving();
        self.reads_served_in_recovery
            .fetch_add(report.reads_served, Ordering::Relaxed);
        self.telemetry
            .event(EventKind::ReadsServedInRecovery, report.reads_served, 0, 0);
        let ns = report.duration.as_nanos() as u64;
        self.recovery_time_ns.fetch_add(ns, Ordering::Relaxed);
        self.telemetry.event(
            EventKind::RecoveryDone,
            report.rung.code(),
            ns,
            report.records_replayed,
        );
        self.reports.lock().push(report);
    }

    fn dispatch_read_base(&self, op: &ReadRequest) -> FsResult<ReadReply> {
        match op {
            ReadRequest::Read { fd, offset, len } => {
                self.base.read(*fd, *offset, *len).map(ReadReply::Data)
            }
            ReadRequest::Stat { path } => self.base.stat(path).map(ReadReply::Stat),
            ReadRequest::Fstat { fd } => self.base.fstat(*fd).map(ReadReply::Stat),
            ReadRequest::Readdir { path } => self.base.readdir(path).map(ReadReply::Entries),
            ReadRequest::Readlink { path } => self.base.readlink(path).map(ReadReply::Target),
            ReadRequest::Statfs => self.base.statfs().map(ReadReply::Info),
        }
    }

    /// Execute a read-only operation. Reads are not recorded (they
    /// never change essential state), but a runtime error still
    /// triggers a full recovery — and the pending read then completes
    /// *through the shadow* in autonomous mode, exactly like a pending
    /// mutation would (§3.2). Retrying on the base instead would loop
    /// forever on a deterministic read-path bug.
    /// Reads keep the 1-in-8 sampled clock — a sub-microsecond
    /// cache-hit read cannot afford two clock reads each — but still
    /// open an attribution span: when an *unsampled* read turns slow,
    /// its deep-layer time (cache fill, device) crosses the slow-op
    /// threshold inside [`rae_telemetry::Telemetry::op_finish`] and the
    /// op is captured anyway as a lower bound.
    fn exec_read(&self, op: &ReadRequest) -> FsResult<ReadReply> {
        let class = Self::class_of_read(op);
        let t0 = self.telemetry.op_clock();
        self.telemetry.op_span_begin();
        let result = self.exec_read_inner(op, class);
        self.telemetry.op_finish(class, t0);
        result
    }

    fn exec_read_inner(&self, op: &ReadRequest, class: OpClass) -> FsResult<ReadReply> {
        self.check_online()?;
        let gate = match self.gate.try_read() {
            Some(gate) => gate,
            None => match self.read_while_gated(op) {
                Some(answer) => return answer,
                None => self.gate.read(),
            },
        };
        match self.admitted(gate, class, || self.dispatch_read_base(op)) {
            Ok(Ok(v)) => {
                self.made_progress();
                Ok(v)
            }
            Ok(Err(e)) => Err(e),
            Err(trigger) => {
                let (_, reply) = self.answer(trigger, None, Some(op))?;
                self.ops_masked.fetch_add(1, Ordering::Relaxed);
                reply.ok_or_else(|| FsError::Internal {
                    detail: "recovery did not produce a read reply".to_string(),
                })
            }
        }
    }

    /// A read that found the gate shut. While a recovery is under way,
    /// it is answered from the drained standby's fork once one is
    /// published, and parks until then. `None` sends the reader to the
    /// gate: no recovery holds it (an audit, a crash-remount), or the
    /// fork failed at runtime. A failed fork is withdrawn for the rest
    /// of the recovery and starts none of its own; a specified error
    /// from it is the application's answer.
    #[cold]
    #[inline(never)]
    fn read_while_gated(&self, op: &ReadRequest) -> Option<FsResult<ReadReply>> {
        let (slot, parked) = &*self.serve;
        let mut serve = slot.lock();
        loop {
            if let Some(fork) = serve.fork.as_mut() {
                match catch_unwind(AssertUnwindSafe(|| fork.serve_read(op))) {
                    Ok(r) if r.as_ref().err().is_none_or(FsError::is_specified) => {
                        serve.served += 1;
                        return Some(r);
                    }
                    _ => {
                        serve.fork = None;
                        return None;
                    }
                }
            }
            if serve.recovering == 0 {
                return None;
            }
            parked.wait(&mut serve);
        }
    }

    /// Withdraw the fork and take the count of the reads it answered.
    fn stop_serving(&self) -> u64 {
        let mut serve = self.serve.0.lock();
        serve.fork = None;
        std::mem::take(&mut serve.served)
    }
}

/// What a base failure means to an application that is told of it (the
/// `ErrorReturn` baseline, or a failure with nothing left to recover
/// through).
fn trigger_error(trigger: RecoveryTrigger) -> FsError {
    match trigger {
        RecoveryTrigger::DetectedError(e) => e,
        RecoveryTrigger::CaughtPanic(msg) => FsError::Internal {
            detail: format!("base panicked: {msg}"),
        },
        RecoveryTrigger::WarnPolicy => FsError::Internal {
            detail: "warn policy violation".to_string(),
        },
    }
}

fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl FileSystem for RaeFs {
    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        let op = if flags.creates() {
            FsOp::Create {
                path: path.to_string(),
                flags,
            }
        } else {
            FsOp::Open {
                path: path.to_string(),
                flags,
            }
        };
        match self.exec_mutating(op)? {
            Ret::Opened(fd, _, _) => Ok(fd),
            other => Err(FsError::Internal {
                detail: format!("open produced {other:?}"),
            }),
        }
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        self.exec_mutating(FsOp::Close { fd }).map(|_| ())
    }

    fn read(&self, fd: Fd, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        match self.exec_read(&ReadRequest::Read { fd, offset, len })? {
            ReadReply::Data(d) => Ok(d),
            other => Err(FsError::Internal {
                detail: format!("read produced {other:?}"),
            }),
        }
    }

    fn write(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        match self.exec_mutating(FsOp::Write {
            fd,
            offset,
            data: data.into(),
        })? {
            Ret::Written(n) => Ok(n),
            other => Err(FsError::Internal {
                detail: format!("write produced {other:?}"),
            }),
        }
    }

    fn truncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        self.exec_mutating(FsOp::Truncate { fd, size }).map(|_| ())
    }

    fn setattr(&self, path: &str, attr: SetAttr) -> FsResult<()> {
        self.exec_mutating(FsOp::SetAttr {
            path: path.to_string(),
            attr,
        })
        .map(|_| ())
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.exec_mutating(FsOp::Fsync { fd }).map(|_| ())
    }

    fn sync(&self) -> FsResult<()> {
        self.exec_mutating(FsOp::Sync).map(|_| ())
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.exec_mutating(FsOp::Mkdir {
            path: path.to_string(),
        })
        .map(|_| ())
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.exec_mutating(FsOp::Rmdir {
            path: path.to_string(),
        })
        .map(|_| ())
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.exec_mutating(FsOp::Unlink {
            path: path.to_string(),
        })
        .map(|_| ())
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        self.exec_mutating(FsOp::Rename {
            from: from.to_string(),
            to: to.to_string(),
        })
        .map(|_| ())
    }

    fn link(&self, existing: &str, new: &str) -> FsResult<()> {
        self.exec_mutating(FsOp::Link {
            existing: existing.to_string(),
            new: new.to_string(),
        })
        .map(|_| ())
    }

    fn symlink(&self, target: &str, linkpath: &str) -> FsResult<()> {
        self.exec_mutating(FsOp::Symlink {
            target: target.to_string(),
            linkpath: linkpath.to_string(),
        })
        .map(|_| ())
    }

    fn readlink(&self, path: &str) -> FsResult<String> {
        match self.exec_read(&ReadRequest::Readlink {
            path: path.to_string(),
        })? {
            ReadReply::Target(t) => Ok(t),
            other => Err(FsError::Internal {
                detail: format!("readlink produced {other:?}"),
            }),
        }
    }

    fn stat(&self, path: &str) -> FsResult<FileStat> {
        match self.exec_read(&ReadRequest::Stat {
            path: path.to_string(),
        })? {
            ReadReply::Stat(st) => Ok(st),
            other => Err(FsError::Internal {
                detail: format!("stat produced {other:?}"),
            }),
        }
    }

    fn fstat(&self, fd: Fd) -> FsResult<FileStat> {
        match self.exec_read(&ReadRequest::Fstat { fd })? {
            ReadReply::Stat(st) => Ok(st),
            other => Err(FsError::Internal {
                detail: format!("fstat produced {other:?}"),
            }),
        }
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        match self.exec_read(&ReadRequest::Readdir {
            path: path.to_string(),
        })? {
            ReadReply::Entries(es) => Ok(es),
            other => Err(FsError::Internal {
                detail: format!("readdir produced {other:?}"),
            }),
        }
    }

    fn statfs(&self) -> FsResult<FsGeometryInfo> {
        match self.exec_read(&ReadRequest::Statfs)? {
            ReadReply::Info(i) => Ok(i),
            other => Err(FsError::Internal {
                detail: format!("statfs produced {other:?}"),
            }),
        }
    }

    fn status(&self) -> FsStatus {
        if self.failed.load(Ordering::Acquire) {
            FsStatus::Failed
        } else if self.degraded.load(Ordering::Acquire) {
            FsStatus::Degraded
        } else {
            FsStatus::Active
        }
    }
}
