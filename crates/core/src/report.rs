//! Recovery reports and runtime statistics.

use rae_shadowfs::Discrepancy;
use rae_vfs::FsError;
use std::time::Duration;

/// What pulled the trigger on a recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryTrigger {
    /// The base surfaced a runtime error (detected bug, corruption,
    /// failed internal check, I/O failure).
    DetectedError(FsError),
    /// The base panicked; the unwind was caught at the RAE boundary
    /// (the kernel-crash class).
    CaughtPanic(String),
    /// A WARN event occurred and policy treats WARN as an error.
    WarnPolicy,
}

/// Which replay substrate produced the recovered state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPath {
    /// Fresh shadow load plus constrained replay of the whole retained
    /// log — O(retained log).
    #[default]
    Cold,
    /// Handover from the warm standby, which was already caught up;
    /// only the published-but-unapplied tail was drained —
    /// O(in-flight).
    Warm,
}

/// A rung of the recovery degradation ladder. Recovery tries rungs in
/// declaration order; each failure drops to the next, and only the last
/// two sacrifice service (mutations, then everything).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LadderRung {
    /// Warm standby handover — O(in-flight).
    Warm,
    /// Cold replay of the retained log over a fresh shadow.
    Cold,
    /// One full retry of the cold path, with transient device errors
    /// absorbed by a retrying device wrapper.
    ColdRetry,
    /// Read-only degraded: reads served off the journal-consistent
    /// rebooted base, mutations refused with `EROFS`.
    Degraded,
    /// Offline — every rung failed.
    Offline,
}

impl LadderRung {
    /// Stable lower-case name (used in reports and experiment JSON).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LadderRung::Warm => "warm",
            LadderRung::Cold => "cold",
            LadderRung::ColdRetry => "cold_retry",
            LadderRung::Degraded => "degraded",
            LadderRung::Offline => "offline",
        }
    }

    /// Stable wire code (shared with the telemetry event vocabulary).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            LadderRung::Warm => 0,
            LadderRung::Cold => 1,
            LadderRung::ColdRetry => 2,
            LadderRung::Degraded => 3,
            LadderRung::Offline => 4,
        }
    }
}

/// A ladder rung that was attempted and failed, with the error that
/// knocked the recovery down to the next rung.
#[derive(Debug, Clone)]
pub struct RungFailure {
    /// The rung that was attempted.
    pub rung: LadderRung,
    /// Why it failed (rendered error).
    pub error: String,
    /// Wall-clock time spent inside the failed attempt.
    pub duration: Duration,
}

/// Full account of one recovery.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Why recovery ran.
    pub trigger: RecoveryTrigger,
    /// Cold replay or warm standby handover.
    pub path: RecoveryPath,
    /// The ladder rung that produced the final state. `Warm`, `Cold`,
    /// and `ColdRetry` recovered full service; `Degraded` left the
    /// mount read-only; `Offline` gave up.
    pub rung: LadderRung,
    /// Rungs attempted before `rung`, each with the error that demoted
    /// the recovery (empty when the first rung tried succeeded).
    pub failed_rungs: Vec<RungFailure>,
    /// Wall-clock duration of the entire recovery (contained reboot,
    /// shadow load + replay, hand-off), failed rungs included — the sum
    /// of every rung attempt plus ladder bookkeeping.
    pub duration: Duration,
    /// Wall-clock time spent inside the final rung itself (the earlier
    /// failed attempts each carry their own [`RungFailure::duration`]).
    pub rung_time: Duration,
    /// Phase 1: contained reboot (cache reset + journal replay).
    pub reboot_time: Duration,
    /// Phase 2: shadow load (including image validation when enabled).
    pub shadow_load_time: Duration,
    /// Phase 3: constrained replay + autonomous in-flight execution.
    pub replay_time: Duration,
    /// Phase 4: metadata download into the base.
    pub handoff_time: Duration,
    /// Journal transactions the contained reboot replayed.
    pub journal_transactions_replayed: u64,
    /// Operation records the shadow re-executed in constrained mode.
    pub records_replayed: u64,
    /// Records skipped (base-failed + sync-family).
    pub records_skipped: u64,
    /// Cross-check disagreements (reported per §4.3).
    pub discrepancies: Vec<Discrepancy>,
    /// Metadata block images handed to the base.
    pub delta_meta_blocks: usize,
    /// Data block images handed to the base.
    pub delta_data_blocks: usize,
    /// Descriptors restored with identical numbering.
    pub fds_restored: usize,
    /// Runtime checks the shadow performed during this recovery.
    pub shadow_checks: u64,
    /// Block reads the shadow phase (everything between the contained
    /// reboot and the hand-off) sent to the live device. Cold rungs:
    /// one per distinct block touched by image validation, load, replay
    /// and in-flight completion, through the rung's
    /// [`rae_blockdev::MemoDisk`]. Warm rung: counted by the write
    /// tracker under the base, and zero — the standby decides its
    /// resync from its own snapshot and overlay.
    pub shadow_device_reads: u64,
    /// Cold rungs: device requests that carried
    /// [`RecoveryReport::shadow_device_reads`]. The rung's memo fills a
    /// run of missing blocks with one extent read, so this is far below
    /// the block count. Warm rung: zero, as its reads are.
    pub shadow_device_requests: u64,
    /// Cold rungs: shadow-phase block reads answered from the rung's
    /// memo instead of the device.
    pub shadow_memo_hits: u64,
    /// Warm rung: distinct blocks the handover resync considered — the
    /// standby's overlay plus the base's tracked write set (see
    /// [`rae_shadowfs::ResyncReport`]). Zero on cold rungs.
    pub resync_candidates: usize,
    /// Warm rung: written blocks the standby never touched, reverted to
    /// its snapshot's content by the delta.
    pub resync_pinned: usize,
    /// Warm rung: free data blocks left out of the delta (and dropped
    /// from the standby's overlay).
    pub resync_pruned: usize,
    /// Whether an in-flight operation was completed autonomously.
    pub had_in_flight: bool,
}

impl RecoveryReport {
    /// A report for a recovery that ended without a successful shadow
    /// hand-off (`Degraded` or `Offline`): the shadow-phase fields are
    /// all zero, only the ladder outcome and timings carry meaning.
    #[must_use]
    pub fn terminal(
        trigger: RecoveryTrigger,
        rung: LadderRung,
        failed_rungs: Vec<RungFailure>,
        duration: Duration,
    ) -> RecoveryReport {
        RecoveryReport {
            trigger,
            path: RecoveryPath::Cold,
            rung,
            failed_rungs,
            duration,
            rung_time: Duration::ZERO,
            reboot_time: Duration::ZERO,
            shadow_load_time: Duration::ZERO,
            replay_time: Duration::ZERO,
            handoff_time: Duration::ZERO,
            journal_transactions_replayed: 0,
            records_replayed: 0,
            records_skipped: 0,
            discrepancies: Vec::new(),
            delta_meta_blocks: 0,
            delta_data_blocks: 0,
            fds_restored: 0,
            shadow_checks: 0,
            shadow_device_reads: 0,
            shadow_device_requests: 0,
            shadow_memo_hits: 0,
            resync_candidates: 0,
            resync_pinned: 0,
            resync_pruned: 0,
            had_in_flight: false,
        }
    }
}

/// Snapshot of the RAE runtime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RaeStats {
    /// Runtime errors detected from base return values.
    pub detected_errors: u64,
    /// Panics caught at the API boundary.
    pub panics_caught: u64,
    /// Successful recoveries.
    pub recoveries: u64,
    /// Recoveries that failed (filesystem offline afterwards).
    pub recovery_failures: u64,
    /// Operations whose result was produced by the shadow (masked
    /// from the application).
    pub ops_masked: u64,
    /// Total wall-clock nanoseconds spent in recovery — kept as the
    /// sum over the per-rung breakdown below plus ladder bookkeeping.
    pub recovery_time_ns: u64,
    /// Nanoseconds spent in warm-rung attempts (failed ones included).
    pub rung_warm_time_ns: u64,
    /// Nanoseconds spent in cold-rung attempts.
    pub rung_cold_time_ns: u64,
    /// Nanoseconds spent in cold-retry-rung attempts.
    pub rung_cold_retry_time_ns: u64,
    /// Nanoseconds spent in degrade-rung attempts (the final contained
    /// reboot before read-only mode).
    pub rung_degraded_time_ns: u64,
    /// Records currently retained in the operation log.
    pub log_len: usize,
    /// Records discarded at persistence barriers so far.
    pub log_trimmed: u64,
    /// A warm standby is live (spawned and not degraded).
    pub standby_active: bool,
    /// The standby degraded (lag drop, apply failure, or failed audit)
    /// and the next recovery will take the cold path.
    pub standby_degraded: bool,
    /// Highest completed sequence number published to the standby.
    pub standby_completed_seq: u64,
    /// Highest sequence number the standby has applied.
    pub standby_applied_seq: u64,
    /// Records published to the standby but not yet applied.
    pub standby_lag: u64,
    /// Coordinated standby audits completed successfully.
    pub standby_audits_run: u64,
    /// Divergences the standby observed (cross-check discrepancy notes
    /// plus audit failures).
    pub standby_divergences: u64,
    /// Publishes that found the standby's channel full and waited for
    /// its apply thread (`LagPolicy::Block`): completions held back by
    /// a standby that is not keeping pace.
    pub standby_publish_waits: u64,
    /// The mount is in read-only degraded mode (mutations refused with
    /// `EROFS`, reads served off the journal-consistent base).
    pub degraded: bool,
    /// Recoveries that ended on the warm rung.
    pub ladder_warm: u64,
    /// Recoveries that ended on the cold rung.
    pub ladder_cold: u64,
    /// Recoveries that ended on the cold-retry rung.
    pub ladder_cold_retry: u64,
    /// Recoveries that ended in read-only degraded mode.
    pub ladder_degraded: u64,
    /// Device operations re-issued by the retry rung (reboot re-issues
    /// included).
    pub device_retries: u64,
    /// Transient device faults fully absorbed within the retry budget.
    pub device_faults_absorbed: u64,
    /// Retry budgets exhausted (the transient error surfaced anyway).
    pub device_retries_exhausted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_equality() {
        assert_eq!(
            RecoveryTrigger::DetectedError(FsError::DetectedBug { bug_id: 1 }),
            RecoveryTrigger::DetectedError(FsError::DetectedBug { bug_id: 1 })
        );
        assert_ne!(
            RecoveryTrigger::WarnPolicy,
            RecoveryTrigger::CaughtPanic("x".into())
        );
    }

    #[test]
    fn stats_default_is_zero() {
        let s = RaeStats::default();
        assert_eq!(s.recoveries, 0);
        assert_eq!(s.ops_masked, 0);
    }
}
