//! The public RAE filesystem: records operations, detects runtime
//! errors, and masks them through shadow recovery.

use crate::oplog::OpLog;
use crate::report::{
    LadderRung, RaeStats, RecoveryPath, RecoveryReport, RecoveryTrigger, RungFailure,
};
use parking_lot::{Mutex, RwLock};
use rae_basefs::{BaseFs, BaseFsConfig, OpSequencer};
use rae_blockdev::{
    classify_error, BlockDevice, ErrorClass, IoPhase, MemoDisk, RetryDisk, RetryPolicy, TrackedDisk,
};
use rae_faults::{FaultAction, OpContext, Site};
use rae_shadowfs::{ReadReply, ReadRequest, ResyncReport, ShadowFs, ShadowOpts};
use rae_standby::{PendingHandover, Publish, StandbyOpts, StandbyStatus, WarmStandby};
use rae_telemetry::{EventKind, OpClass, Telemetry};
use rae_vfs::{
    DirEntry, Fd, FileStat, FileSystem, FsError, FsGeometryInfo, FsOp, FsResult, FsStatus, InodeNo,
    OpKind, OpOutcome, OpRecord, OpenFlags, SetAttr,
};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// What to do when the shadow's cross-check disagrees with a recorded
/// outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscrepancyPolicy {
    /// Report and continue (default: availability first).
    Continue,
    /// Abort the recovery (strictness first).
    Abort,
}

/// Configuration of the RAE runtime.
#[derive(Debug, Clone)]
pub struct RaeConfig {
    /// Base filesystem configuration.
    pub base: BaseFsConfig,
    /// Reaction to runtime errors.
    pub mode: RecoveryMode,
    /// Shadow configuration used during recovery.
    pub shadow: ShadowOpts,
    /// Cross-check disagreement policy.
    pub on_discrepancy: DiscrepancyPolicy,
    /// Treat WARN events as runtime errors (recover immediately).
    pub treat_warn_as_error: bool,
    /// Force a persistence barrier (sync) when the operation log
    /// exceeds this many records.
    pub max_log_records: usize,
    /// Give up (go offline) after this many recoveries with no
    /// successful operation in between — a recovery storm means the
    /// shadow's output immediately re-triggers errors and availability
    /// is no longer being bought.
    pub max_consecutive_recoveries: u32,
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
            on_discrepancy: DiscrepancyPolicy::Continue,
            treat_warn_as_error: false,
            max_log_records: 10_000,
            max_consecutive_recoveries: 8,
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

/// State shared between the runtime and the sequencer callback the
/// base invokes at each operation's internal sequencing point: the
/// operation log and the warm standby it feeds.
struct LogShared {
    log: Mutex<OpLog>,
    /// The warm standby, when spawned and healthy. `None` after
    /// degradation or when disabled; recovery takes the cold path.
    standby: Mutex<Option<WarmStandby>>,
    /// A standby was lost (lag drop, apply failure, failed audit, or
    /// respawn failure) — surfaced in stats, reset on respawn.
    standby_degraded: AtomicBool,
    /// Audit, divergence and publish-wait counts carried over from
    /// standbys that have been torn down or handed over. A live
    /// standby's counters are added on top in `stats`; without this
    /// accumulation every teardown would silently zero the totals.
    standby_audits_acc: AtomicU64,
    standby_divergences_acc: AtomicU64,
    standby_publish_waits_acc: AtomicU64,
}

impl LogShared {
    /// Fold a standby handle's final counters into the runtime-owned
    /// accumulators before it is dropped or handed over, so audit,
    /// divergence and publish-wait totals survive the teardown. Every site that removes
    /// a handle from `self.standby` (or consumes a taken one) must
    /// route through here.
    fn retire_standby(&self, sb: &WarmStandby) {
        let st = sb.status();
        self.standby_audits_acc
            .fetch_add(st.audits_run, Ordering::Relaxed);
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
        let mut log = self.shared.log.lock();
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
    /// admitted").
    gate: RwLock<()>,
    reports: Mutex<Vec<RecoveryReport>>,
    /// Records which device blocks the base writes, drained at every
    /// standby snapshot point and every warm hand-over: the write set
    /// warm recovery's resync reconciles the standby against. `Some`
    /// exactly when the standby is configured.
    tracker: Option<Arc<TrackedDisk>>,
    /// Completed operations since the last coordinated standby audit.
    ops_since_audit: AtomicU64,
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
    ladder_warm: AtomicU64,
    ladder_cold: AtomicU64,
    ladder_cold_retry: AtomicU64,
    ladder_degraded: AtomicU64,
    device_retries: AtomicU64,
    device_faults_absorbed: AtomicU64,
    device_retries_exhausted: AtomicU64,
    /// Cumulative time spent attempting each rung (failures included).
    rung_warm_time_ns: AtomicU64,
    rung_cold_time_ns: AtomicU64,
    rung_cold_retry_time_ns: AtomicU64,
    rung_degraded_time_ns: AtomicU64,
    telemetry: Arc<Telemetry>,
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
    standby_fork: Option<ShadowFs>,
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
        // interpose the write tracker below the base so warm recovery
        // knows which blocks to reconcile against the standby snapshot
        let (dev, tracker) = if config.standby.enabled && config.mode == RecoveryMode::Rae {
            let t = Arc::new(TrackedDisk::new(dev));
            t.set_telemetry(Arc::clone(&telemetry));
            (Arc::clone(&t) as Arc<dyn BlockDevice>, Some(t))
        } else {
            (dev, None)
        };
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
                if let Some(t) = &tracker {
                    let _ = t.take_written();
                }
                match WarmStandby::spawn(base.device(), config.shadow, config.standby, Vec::new()) {
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
            standby: Mutex::new(standby),
            standby_degraded: AtomicBool::new(standby_degraded),
            standby_audits_acc: AtomicU64::new(0),
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
            gate: RwLock::new(()),
            reports: Mutex::new(Vec::new()),
            tracker,
            ops_since_audit: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            detected_errors: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            recovery_failures: AtomicU64::new(0),
            ops_masked: AtomicU64::new(0),
            recovery_time_ns: AtomicU64::new(0),
            consecutive_recoveries: AtomicU64::new(0),
            ladder_warm: AtomicU64::new(0),
            ladder_cold: AtomicU64::new(0),
            ladder_cold_retry: AtomicU64::new(0),
            ladder_degraded: AtomicU64::new(0),
            device_retries: AtomicU64::new(0),
            device_faults_absorbed: AtomicU64::new(0),
            device_retries_exhausted: AtomicU64::new(0),
            rung_warm_time_ns: AtomicU64::new(0),
            rung_cold_time_ns: AtomicU64::new(0),
            rung_cold_retry_time_ns: AtomicU64::new(0),
            rung_degraded_time_ns: AtomicU64::new(0),
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

    /// Runtime statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> RaeStats {
        let log = self.shared.log.lock();
        let standby = self.standby_status();
        RaeStats {
            detected_errors: self.detected_errors.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            recovery_failures: self.recovery_failures.load(Ordering::Relaxed),
            ops_masked: self.ops_masked.load(Ordering::Relaxed),
            recovery_time_ns: self.recovery_time_ns.load(Ordering::Relaxed),
            rung_warm_time_ns: self.rung_warm_time_ns.load(Ordering::Relaxed),
            rung_cold_time_ns: self.rung_cold_time_ns.load(Ordering::Relaxed),
            rung_cold_retry_time_ns: self.rung_cold_retry_time_ns.load(Ordering::Relaxed),
            rung_degraded_time_ns: self.rung_degraded_time_ns.load(Ordering::Relaxed),
            log_len: log.len(),
            log_trimmed: log.trimmed_total(),
            standby_active: standby.active,
            standby_degraded: self.shared.standby_degraded.load(Ordering::Acquire),
            standby_completed_seq: standby.completed_seq,
            standby_applied_seq: standby.applied_seq,
            standby_lag: standby.lag,
            // totals survive standby teardown: retired handles fold
            // their final counts into the accumulators
            standby_audits_run: self.shared.standby_audits_acc.load(Ordering::Relaxed)
                + standby.audits_run,
            standby_divergences: self.shared.standby_divergences_acc.load(Ordering::Relaxed)
                + standby.divergences,
            standby_publish_waits: self
                .shared
                .standby_publish_waits_acc
                .load(Ordering::Relaxed)
                + standby.publish_waits,
            degraded: self.degraded.load(Ordering::Acquire),
            ladder_warm: self.ladder_warm.load(Ordering::Relaxed),
            ladder_cold: self.ladder_cold.load(Ordering::Relaxed),
            ladder_cold_retry: self.ladder_cold_retry.load(Ordering::Relaxed),
            ladder_degraded: self.ladder_degraded.load(Ordering::Relaxed),
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
    /// it, so the audit starts with a sync. The remaining log after the
    /// barrier (live opens as `RestoreFd` records) is what gets
    /// replayed.
    ///
    /// # Errors
    ///
    /// Sync failures or shadow runtime errors.
    pub fn audit(&self) -> FsResult<rae_shadowfs::ReplayReport> {
        // the audit begins with a checkpoint, a mutation of the device:
        // refused in read-only degraded mode like any other mutation
        self.check_writable()?;
        {
            let _admitted = self.gate.read();
            // commit + checkpoint: the raw device must show the full
            // durable state for the shadow to audit it
            self.base.checkpoint()?;
        }
        let _quiesced = self.gate.write();
        let mut log = self.shared.log.lock();
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

    /// Every `audit_interval_ops` completed operations: checkpoint the
    /// base (the audit re-bases the standby onto the raw device, which
    /// is only sound on the full durable state), quiesce, and run the
    /// standby's consistency check + model diff + re-base divergence
    /// check. An audit failure is a divergence: the standby is torn
    /// down and recovery falls back to cold replay.
    fn maybe_standby_audit(&self) -> FsResult<()> {
        let interval = self.config.standby.audit_interval_ops;
        if interval == 0 || self.shared.standby.lock().is_none() {
            return Ok(());
        }
        if self.ops_since_audit.fetch_add(1, Ordering::Relaxed) + 1 < interval {
            return Ok(());
        }
        self.ops_since_audit.store(0, Ordering::Relaxed);
        // the checkpoint is a base operation like any other: its own
        // runtime errors must be masked, not leaked to the application
        let barrier = {
            let _admitted = self.gate.read();
            catch_unwind(AssertUnwindSafe(|| self.base.checkpoint()))
        };
        match barrier {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                self.detected_errors.fetch_add(1, Ordering::Relaxed);
                self.telemetry.event(
                    EventKind::ErrorDetected,
                    OpClass::Fsync.code(),
                    Self::error_code(&e),
                    0,
                );
                self.recover(None, None, RecoveryTrigger::DetectedError(e))?;
                return Ok(()); // recovery respawned the standby; audit next round
            }
            Err(p) => {
                self.panics_caught.fetch_add(1, Ordering::Relaxed);
                self.telemetry
                    .event(EventKind::PanicCaught, OpClass::Fsync.code(), 0, 0);
                self.recover(
                    None,
                    None,
                    RecoveryTrigger::CaughtPanic(panic_msg(p.as_ref())),
                )?;
                return Ok(());
            }
        }
        let _quiesced = self.gate.write();
        self.shared.log.lock().trim(self.base.persisted_seq());
        let mut guard = self.shared.standby.lock();
        if let Some(sb) = guard.as_ref() {
            if sb.run_audit().is_ok() {
                // the audit re-based the standby onto the (still
                // quiesced) durable image: restart the write set there
                if let Some(t) = &self.tracker {
                    let _ = t.take_written();
                }
            } else {
                self.shared.retire_standby(sb);
                *guard = None;
                self.shared.standby_degraded.store(true, Ordering::Release);
            }
        }
        Ok(())
    }

    /// Restart the warm standby after a recovery: the backlog is the
    /// retained completed log over the current device — exactly the
    /// cold-replay initial condition — so the standby's lineage matches
    /// a cold shadow's from here on. Called with the quiesce gate held.
    fn respawn_standby(&self, log: &OpLog) {
        if !self.config.standby.enabled || self.config.mode != RecoveryMode::Rae {
            return;
        }
        let (backlog, _) = log.for_recovery();
        // drain before the spawn snapshot (see `mount`)
        if let Some(t) = &self.tracker {
            let _ = t.take_written();
        }
        match WarmStandby::spawn(
            self.base.device(),
            self.config.shadow,
            self.config.standby,
            backlog,
        ) {
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
        let result = {
            let _admitted = self.gate.read();
            catch_unwind(AssertUnwindSafe(|| {
                CURRENT_OP.with(|c| {
                    let cur = c.borrow();
                    self.dispatch_base(cur.as_ref().expect("current op stashed"))
                })
            }))
        };
        let op = CURRENT_OP.with(|c| c.borrow_mut().take());
        let sequenced = LAST_SEQUENCED.with(|l| l.borrow_mut().take());

        match result {
            Ok(Ok(ret)) => {
                self.consecutive_recoveries.store(0, Ordering::Relaxed);
                if sequenced.is_none() {
                    // ops the base never sequences (the sync family,
                    // empty writes, no-op renames) are appended
                    // post-hoc so the retained log still describes
                    // them; `note_op_seq` marks them covered by the
                    // next commit so trimming matches the old behavior
                    let op = op.expect("op retained");
                    let is_barrier = op.is_sync_family();
                    let mut log = self.shared.log.lock();
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
                if self.config.treat_warn_as_error
                    && !self.base.fault_registry().take_warnings().is_empty()
                {
                    self.detected_errors.fetch_add(1, Ordering::Relaxed);
                    self.telemetry
                        .event(EventKind::ErrorDetected, class.code(), 0, 0);
                    self.recover(None, None, RecoveryTrigger::WarnPolicy)?;
                }
                let over_budget = {
                    let mut log = self.shared.log.lock();
                    log.trim(self.base.persisted_seq());
                    log.len() > self.config.max_log_records
                };
                if over_budget {
                    // forced barrier — its own runtime errors must be
                    // masked like any other (a commit-site bug would
                    // otherwise leak to an unrelated operation)
                    let barrier = {
                        let _admitted = self.gate.read();
                        catch_unwind(AssertUnwindSafe(|| self.base.sync()))
                    };
                    match barrier {
                        Ok(Ok(())) => {
                            self.shared.log.lock().trim(self.base.persisted_seq());
                        }
                        Ok(Err(e)) => {
                            self.detected_errors.fetch_add(1, Ordering::Relaxed);
                            self.telemetry.event(
                                EventKind::ErrorDetected,
                                OpClass::Fsync.code(),
                                Self::error_code(&e),
                                0,
                            );
                            self.recover(None, None, RecoveryTrigger::DetectedError(e))?;
                        }
                        Err(p) => {
                            self.panics_caught.fetch_add(1, Ordering::Relaxed);
                            self.telemetry.event(
                                EventKind::PanicCaught,
                                OpClass::Fsync.code(),
                                0,
                                0,
                            );
                            self.recover(
                                None,
                                None,
                                RecoveryTrigger::CaughtPanic(panic_msg(p.as_ref())),
                            )?;
                        }
                    }
                }
                self.maybe_standby_audit()?;
                Ok(ret)
            }
            Ok(Err(e)) if e.is_specified() => {
                // a specified error can only be raised before the
                // sequencing point (names are validated at path-split
                // time, space is reserved up front)
                debug_assert!(sequenced.is_none(), "specified failure after sequencing");
                if sequenced.is_none() {
                    // `Failed` records are published too: the standby
                    // must accumulate the same skip counts a cold
                    // replay of this log would report
                    let mut log = self.shared.log.lock();
                    let seq = log
                        .append_completed(op.expect("op retained"), OpOutcome::Failed(e.clone()));
                    self.base.note_op_seq(seq);
                    self.shared.publish_to_standby(&log, seq);
                    log.trim(self.base.persisted_seq());
                }
                Err(e)
            }
            Ok(Err(e)) => {
                self.detected_errors.fetch_add(1, Ordering::Relaxed);
                self.telemetry.event(
                    EventKind::ErrorDetected,
                    class.code(),
                    Self::error_code(&e),
                    0,
                );
                self.handle_runtime_error(op, sequenced, RecoveryTrigger::DetectedError(e))
            }
            Err(p) => {
                self.panics_caught.fetch_add(1, Ordering::Relaxed);
                self.telemetry
                    .event(EventKind::PanicCaught, class.code(), 0, 0);
                self.handle_runtime_error(
                    op,
                    sequenced,
                    RecoveryTrigger::CaughtPanic(panic_msg(p.as_ref())),
                )
            }
        }
    }

    fn handle_runtime_error(
        &self,
        op: Option<FsOp>,
        sequenced: Option<(u64, OpOutcome)>,
        trigger: RecoveryTrigger,
    ) -> FsResult<Ret> {
        match self.config.mode {
            RecoveryMode::Rae => {
                let outcome = match sequenced {
                    // the operation itself completed and is already in
                    // the log (the failure hit post-op machinery such
                    // as the journal commit): recovery replays it as a
                    // completed record and the application receives
                    // the recorded outcome
                    Some((_, outcome)) => {
                        self.recover(None, None, trigger)?;
                        outcome
                    }
                    None => {
                        let (outcome, _) = self.recover(op, None, trigger)?;
                        outcome
                    }
                };
                self.ops_masked.fetch_add(1, Ordering::Relaxed);
                Self::ret_of(outcome)
            }
            RecoveryMode::CrashRemount => {
                // the whole machine "crashes": buffered state and every
                // descriptor are gone; remount from disk
                let _quiesced = self.gate.write();
                self.shared.log.lock().clear();
                match self.base.contained_reboot() {
                    Ok(_) => Err(FsError::IoFailed {
                        detail: "filesystem crashed and was remounted; unsynced state lost"
                            .to_string(),
                    }),
                    Err(e) => self.mark_failed(e),
                }
            }
            RecoveryMode::ErrorReturn => {
                // nothing was pre-appended; a record sequenced before
                // the failure stays in the log — ErrorReturn keeps
                // running on untrusted state by design
                match trigger {
                    RecoveryTrigger::DetectedError(e) => Err(e),
                    RecoveryTrigger::CaughtPanic(msg) => Err(FsError::Internal {
                        detail: format!("base panicked: {msg}"),
                    }),
                    RecoveryTrigger::WarnPolicy => Err(FsError::Internal {
                        detail: "warn policy violation".to_string(),
                    }),
                }
            }
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
        // append to the log concurrently.
        let _quiesced = self.gate.write();
        let mut log_guard = self.shared.log.lock();
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
        if streak > u64::from(self.config.max_consecutive_recoveries) {
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

        // Rung 1 — warm handover, when a healthy standby exists. The
        // handover consumes the standby either way; a failed warm
        // attempt falls through to cold with the standby gone. (Take
        // the handle out first: the `if let` must not hold the lock,
        // finish_recovery re-arms the standby under it.) The standby
        // drains its tail into its own snapshot while the rung reboots
        // the base, and the rung waits for it after the reboot.
        let taken = self.shared.standby.lock().take();
        if let Some(sb) = taken {
            // the handover consumes the handle: bank its counters now
            self.shared.retire_standby(&sb);
            let lag = sb.lag();
            let rung_t0 = Instant::now();
            self.rung_event(EventKind::RungEntered, LadderRung::Warm, 0);
            match sb.start_handover() {
                Some(draining) => {
                    match self.attempt(
                        LadderRung::Warm,
                        Some((draining, lag)),
                        None,
                        &completed,
                        in_flight,
                        read_in_flight,
                        &trigger,
                    ) {
                        Ok(s) => {
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
                        Err(e) => {
                            self.shared.standby_degraded.store(true, Ordering::Release);
                            failed_rungs.push(self.rung_failed(
                                LadderRung::Warm,
                                &e,
                                rung_t0.elapsed(),
                            ));
                        }
                    }
                }
                None => {
                    // no attempt ran (the standby refused up front):
                    // record the event but keep `failed_rungs` to
                    // genuinely attempted rungs
                    self.shared.standby_degraded.store(true, Ordering::Release);
                    self.rung_event(
                        EventKind::RungFailed,
                        LadderRung::Warm,
                        rung_t0.elapsed().as_nanos() as u64,
                    );
                    self.add_rung_time(LadderRung::Warm, rung_t0.elapsed());
                }
            }
        }

        // Rung 2 — cold replay over a fresh shadow.
        let rung_t0 = Instant::now();
        self.rung_event(EventKind::RungEntered, LadderRung::Cold, 0);
        match self.attempt(
            LadderRung::Cold,
            None,
            None,
            &completed,
            in_flight,
            read_in_flight,
            &trigger,
        ) {
            Ok(s) => {
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
            Err(e) => {
                failed_rungs.push(self.rung_failed(LadderRung::Cold, &e, rung_t0.elapsed()));
            }
        }

        // Rung 3 — the cold path once more, with the shadow's device
        // I/O going through a retrying wrapper so one-shot transient
        // errors cannot kill the attempt.
        let retry_dev = Arc::new(RetryDisk::with_policy(
            self.base.device(),
            self.config.retry,
        ));
        retry_dev.set_telemetry(Arc::clone(&self.telemetry));
        let rung_t0 = Instant::now();
        self.rung_event(EventKind::RungEntered, LadderRung::ColdRetry, 0);
        let res = self.attempt(
            LadderRung::ColdRetry,
            None,
            Some(Arc::clone(&retry_dev) as Arc<dyn BlockDevice>),
            &completed,
            in_flight,
            read_in_flight,
            &trigger,
        );
        let rs = retry_dev.stats();
        self.device_retries.fetch_add(rs.retries, Ordering::Relaxed);
        self.device_faults_absorbed
            .fetch_add(rs.absorbed, Ordering::Relaxed);
        self.device_retries_exhausted
            .fetch_add(rs.exhausted, Ordering::Relaxed);
        match res {
            Ok(s) => {
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
            Err(e) => {
                failed_rungs.push(self.rung_failed(LadderRung::ColdRetry, &e, rung_t0.elapsed()));
            }
        }

        // Rung 4 — read-only degraded: the shadow cannot reproduce the
        // retained log, but a contained reboot still yields the
        // journal-consistent durable state. Serve reads off that.
        let rung_t0 = Instant::now();
        self.rung_event(EventKind::RungEntered, LadderRung::Degraded, 0);
        match catch_unwind(AssertUnwindSafe(|| self.base.contained_reboot())) {
            Ok(Ok(_boot)) => self.enter_degraded(
                log,
                trigger,
                failed_rungs,
                start,
                rung_t0.elapsed(),
                in_flight,
                read_in_flight,
            ),
            Ok(Err(e)) => {
                failed_rungs.push(self.rung_failed(LadderRung::Degraded, &e, rung_t0.elapsed()));
                self.go_offline(trigger, failed_rungs, start, e)
            }
            Err(p) => {
                let msg = panic_msg(p.as_ref());
                let elapsed = rung_t0.elapsed();
                self.add_rung_time(LadderRung::Degraded, elapsed);
                self.rung_event(
                    EventKind::RungFailed,
                    LadderRung::Degraded,
                    elapsed.as_nanos() as u64,
                );
                failed_rungs.push(RungFailure {
                    rung: LadderRung::Degraded,
                    error: msg.clone(),
                    duration: elapsed,
                });
                self.go_offline(
                    trigger,
                    failed_rungs,
                    start,
                    FsError::Internal {
                        detail: format!("panic during degrade reboot: {msg}"),
                    },
                )
            }
        }
    }

    /// Flight-recorder shorthand for rung lifecycle events.
    fn rung_event(&self, kind: EventKind, rung: LadderRung, b: u64) {
        self.telemetry.event(kind, rung.code(), b, 0);
    }

    /// Accumulate time spent attempting `rung` into the per-rung stats.
    fn add_rung_time(&self, rung: LadderRung, elapsed: Duration) {
        let ns = elapsed.as_nanos() as u64;
        match rung {
            LadderRung::Warm => &self.rung_warm_time_ns,
            LadderRung::Cold => &self.rung_cold_time_ns,
            LadderRung::ColdRetry => &self.rung_cold_retry_time_ns,
            LadderRung::Degraded | LadderRung::Offline => &self.rung_degraded_time_ns,
        }
        .fetch_add(ns, Ordering::Relaxed);
    }

    /// Bookkeeping for one failed rung attempt: per-rung time, the
    /// `RungFailed` flight-recorder event, and the report entry.
    fn rung_failed(&self, rung: LadderRung, e: &FsError, elapsed: Duration) -> RungFailure {
        self.add_rung_time(rung, elapsed);
        self.rung_event(EventKind::RungFailed, rung, elapsed.as_nanos() as u64);
        RungFailure {
            rung,
            error: e.to_string(),
            duration: elapsed,
        }
    }

    /// Run one ladder rung under `catch_unwind`: a panic anywhere in
    /// the rung (injected or real) becomes an error that demotes the
    /// ladder instead of unwinding out of `recover`.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &self,
        rung: LadderRung,
        warm: Option<(PendingHandover, u64)>,
        shadow_dev: Option<Arc<dyn BlockDevice>>,
        completed: &[OpRecord],
        in_flight: Option<(u64, &FsOp)>,
        read_in_flight: Option<&ReadRequest>,
        trigger: &RecoveryTrigger,
    ) -> FsResult<RungSuccess> {
        match catch_unwind(AssertUnwindSafe(|| {
            self.run_rung(
                rung,
                warm,
                shadow_dev,
                completed,
                in_flight,
                read_in_flight,
                trigger,
            )
        })) {
            Ok(r) => r,
            Err(p) => {
                self.panics_caught.fetch_add(1, Ordering::Relaxed);
                Err(FsError::Internal {
                    detail: format!(
                        "panic during {} recovery rung: {}",
                        rung.as_str(),
                        panic_msg(p.as_ref())
                    ),
                })
            }
        }
    }

    /// Fire the [`Site::RecoveryReplay`] fault-injection site: nested
    /// faults in the shadow phase of recovery (handover resync or
    /// constrained replay).
    fn replay_fault_hook(&self) -> FsResult<()> {
        let ctx = OpContext::new(OpKind::Sync, Site::RecoveryReplay);
        match self.base.fault_registry().check(&ctx) {
            Some(FaultAction::FailDetected { bug_id }) => Err(FsError::DetectedBug { bug_id }),
            Some(FaultAction::Panic { bug_id }) => {
                panic!("injected filesystem bug #{bug_id}: panic at recovery replay")
            }
            _ => Ok(()),
        }
    }

    /// One full rung: contained reboot, caught-up shadow (via the warm
    /// handover draining meanwhile or a cold load + constrained replay
    /// over `shadow_dev`), autonomous in-flight completion, and metadata
    /// download into the base. Any error aborts the rung; the caller
    /// decides what rung comes next.
    #[allow(clippy::too_many_arguments)]
    fn run_rung(
        &self,
        rung: LadderRung,
        warm: Option<(PendingHandover, u64)>,
        shadow_dev: Option<Arc<dyn BlockDevice>>,
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
        let boot = if rung == LadderRung::ColdRetry {
            let budget = self.config.retry.max_attempts.max(1);
            let mut att = 0u32;
            loop {
                att += 1;
                match self.base.contained_reboot() {
                    Ok(b) => {
                        if att > 1 {
                            self.device_faults_absorbed.fetch_add(1, Ordering::Relaxed);
                        }
                        break b;
                    }
                    Err(e) if att < budget && classify_error(&e) == ErrorClass::Transient => {
                        self.device_retries.fetch_add(1, Ordering::Relaxed);
                        let shift = (att - 1).min(32);
                        let step = self
                            .config
                            .retry
                            .base_backoff_ns
                            .saturating_mul(1u64 << shift)
                            .min(self.config.retry.max_backoff_ns);
                        std::thread::sleep(Duration::from_nanos(step));
                    }
                    Err(e) => {
                        if classify_error(&e) == ErrorClass::Transient {
                            self.device_retries_exhausted
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        return Err(e);
                    }
                }
            }
        } else {
            self.base.contained_reboot()?
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
        let mut memo: Option<Arc<MemoDisk>> = None;
        let live_reads = || self.tracker.as_ref().map_or(0, |t| t.reads());
        let live_reads_before = live_reads();
        let (path, shadow_load_time, mut shadow, replay, records_replayed) = match warm {
            Some((draining, drained)) => {
                let handed = draining.wait().ok_or_else(|| FsError::Internal {
                    detail: "warm standby failed while draining for the handover".to_string(),
                })?;
                (
                    RecoveryPath::Warm,
                    Duration::ZERO,
                    *handed.shadow,
                    handed.report,
                    drained,
                )
            }
            None => {
                // the shadow phase reads through a per-attempt snapshot
                // view, so image validation, load and replay share one
                // pass over the metadata. Coherent by construction: the
                // gate is held, the journal was just replayed, and the
                // shadow never writes — nothing can change the device
                // until `absorb_recovery`, by which point the shadow
                // (and the view with it) has been consumed.
                let dev = Arc::new(MemoDisk::new(
                    shadow_dev.unwrap_or_else(|| self.base.device()),
                ));
                memo = Some(Arc::clone(&dev));
                let t_load = Instant::now();
                let mut shadow = ShadowFs::load(dev, self.config.shadow)?;
                let load_time = t_load.elapsed();
                t_replay = Instant::now();
                let replay = shadow.replay_constrained_protected(completed)?;
                let executed = replay.executed;
                (RecoveryPath::Cold, load_time, shadow, replay, executed)
            }
        };
        if !replay.is_clean() && self.config.on_discrepancy == DiscrepancyPolicy::Abort {
            return Err(FsError::CheckFailed {
                check: "cross-check".to_string(),
                detail: format!("{} discrepancies", replay.discrepancies.len()),
            });
        }

        // 4. autonomous execution of the in-flight operation (pending
        // reads complete through the shadow too)
        let mut reissue_sync = false;
        let outcome = match in_flight {
            Some((_, op)) if op.is_sync_family() => {
                reissue_sync = true;
                OpOutcome::Unit
            }
            Some((_, op)) => shadow.execute_autonomous_protected(op)?,
            None => OpOutcome::Unit,
        };
        let read_reply = match read_in_flight {
            Some(req) => match shadow.serve_read_protected(req) {
                Ok(r) => Some(Ok(r)),
                Err(e) if e.is_specified() => Some(Err(e)),
                Err(e) => return Err(e),
            },
            None => None,
        };

        // Warm path: the shadow ran on its own frozen snapshot, so its
        // overlay is not yet the whole difference to the live image the
        // base kept writing. Quiesced, caught up, and the device just
        // rebooted to the durable state: reconcile against the base's
        // write set — from what the shadow already holds, without a
        // read of the live device — then fork before the metadata
        // download consumes the shadow: the copy resumes as the next
        // standby without an O(device) snapshot or a backlog replay.
        let (resync, standby_fork) = if path == RecoveryPath::Warm {
            let written = self
                .tracker
                .as_ref()
                .expect("a standby only exists above a write tracker")
                .take_written();
            (shadow.resync_against(&written)?, Some(shadow.fork()))
        } else {
            (ResyncReport::default(), None)
        };

        // 5. metadata download into the rebooted base
        let replay_time = t_replay.elapsed();
        let t_handoff = Instant::now();
        let shadow_checks = shadow.checks_performed();
        let delta = shadow.into_delta();
        // cold: the shadow was the view's only reader — take its
        // counters and let it go before the hand-off writes anything.
        // Warm: whatever crossed the write tracker since the reboot.
        let (shadow_device_reads, shadow_device_requests, shadow_memo_hits) = match &memo {
            Some(m) => (m.device_reads(), m.device_requests(), m.memo_hits()),
            None => (live_reads() - live_reads_before, 0, 0),
        };
        let mut report = RecoveryReport {
            trigger: trigger.clone(),
            path,
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
            had_in_flight: in_flight.is_some(),
        };
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
        // from a fresh device snapshot plus the retained log
        match standby_fork {
            Some(forked) => {
                let resume_seq = in_flight
                    .map(|(s, _)| s)
                    .or_else(|| completed.last().map(|r| r.seq))
                    .unwrap_or(0);
                let resumed = WarmStandby::resume(
                    forked,
                    self.config.standby,
                    self.base.device(),
                    resume_seq,
                );
                resumed.set_telemetry(Arc::clone(&self.telemetry));
                *self.shared.standby.lock() = Some(resumed);
                self.shared.standby_degraded.store(false, Ordering::Release);
            }
            None => self.respawn_standby(log),
        }

        let elapsed = start.elapsed();
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        match report.rung {
            LadderRung::Warm => &self.ladder_warm,
            LadderRung::Cold => &self.ladder_cold,
            _ => &self.ladder_cold_retry,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.add_rung_time(report.rung, rung_elapsed);
        self.recovery_time_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        report.duration = elapsed;
        report.rung_time = rung_elapsed;
        report.failed_rungs = failed_rungs;
        self.telemetry.event(
            EventKind::RecoveryDone,
            report.rung.code(),
            elapsed.as_nanos() as u64,
            report.records_replayed,
        );
        self.reports.lock().push(report);
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
        self.ladder_degraded.fetch_add(1, Ordering::Relaxed);
        self.add_rung_time(LadderRung::Degraded, rung_elapsed);
        // the shadow could not reproduce the retained log: it is
        // unreplayable and the buffered tail it described is gone
        log.clear();
        if self.config.standby.enabled {
            self.shared.standby_degraded.store(true, Ordering::Release);
        }
        let elapsed = start.elapsed();
        self.recovery_time_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        let mut report =
            RecoveryReport::terminal(trigger, LadderRung::Degraded, failed_rungs, elapsed);
        report.rung_time = rung_elapsed;
        report.had_in_flight = in_flight.is_some() || read_in_flight.is_some();
        self.telemetry.event(EventKind::Degraded, 0, 0, 0);
        self.telemetry.event(
            EventKind::RecoveryDone,
            LadderRung::Degraded.code(),
            elapsed.as_nanos() as u64,
            0,
        );
        self.reports.lock().push(report);

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
        let elapsed = start.elapsed();
        self.recovery_time_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.telemetry.event(EventKind::Offline, 0, 0, 0);
        self.telemetry.event(
            EventKind::RecoveryDone,
            LadderRung::Offline.code(),
            elapsed.as_nanos() as u64,
            0,
        );
        self.reports.lock().push(RecoveryReport::terminal(
            trigger,
            LadderRung::Offline,
            failed_rungs,
            elapsed,
        ));
        self.mark_failed(e)
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
        let first = {
            let _admitted = self.gate.read();
            catch_unwind(AssertUnwindSafe(|| self.dispatch_read_base(op)))
        };
        let trigger = match first {
            Ok(Ok(v)) => {
                self.consecutive_recoveries.store(0, Ordering::Relaxed);
                return Ok(v);
            }
            Ok(Err(e)) if e.is_specified() => return Err(e),
            Ok(Err(e)) => {
                self.detected_errors.fetch_add(1, Ordering::Relaxed);
                self.telemetry.event(
                    EventKind::ErrorDetected,
                    class.code(),
                    Self::error_code(&e),
                    0,
                );
                if self.degraded.load(Ordering::Acquire) {
                    // read-only degraded is the ladder's last serving
                    // rung: a runtime error on the journal-consistent
                    // base leaves nothing to recover through
                    return self.mark_failed(e);
                }
                RecoveryTrigger::DetectedError(e)
            }
            Err(p) => {
                self.panics_caught.fetch_add(1, Ordering::Relaxed);
                self.telemetry
                    .event(EventKind::PanicCaught, class.code(), 0, 0);
                let msg = panic_msg(p.as_ref());
                if self.degraded.load(Ordering::Acquire) {
                    return self.mark_failed(FsError::Internal {
                        detail: format!("base panicked while degraded: {msg}"),
                    });
                }
                RecoveryTrigger::CaughtPanic(msg)
            }
        };
        match self.config.mode {
            RecoveryMode::Rae => {
                let (_, reply) = self.recover(None, Some(op), trigger)?;
                self.ops_masked.fetch_add(1, Ordering::Relaxed);
                reply.ok_or_else(|| FsError::Internal {
                    detail: "recovery did not produce a read reply".to_string(),
                })
            }
            RecoveryMode::CrashRemount => {
                let _quiesced = self.gate.write();
                self.shared.log.lock().clear();
                match self.base.contained_reboot() {
                    Ok(_) => Err(FsError::IoFailed {
                        detail: "filesystem crashed and was remounted".to_string(),
                    }),
                    Err(e) => self.mark_failed(e),
                }
            }
            RecoveryMode::ErrorReturn => match trigger {
                RecoveryTrigger::DetectedError(e) => Err(e),
                RecoveryTrigger::CaughtPanic(msg) => Err(FsError::Internal {
                    detail: format!("base panicked: {msg}"),
                }),
                RecoveryTrigger::WarnPolicy => unreachable!("reads do not apply warn policy"),
            },
        }
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
