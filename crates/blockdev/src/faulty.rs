//! Device-level fault injection.
//!
//! [`FaultyDisk`] wraps any [`BlockDevice`] and injects the hardware
//! fault classes the paper's fault model covers: explicit I/O errors
//! (transient or targeted), *silent* read corruption (the "cores that
//! don't count" / bad-DRAM class the shadow's runtime checks defend
//! against), failed flush barriers, and per-operation latency (to
//! model slow media). Crashes are not among them: a
//! [`crate::TapeDisk`] records a run and [`crate::crash`] enumerates
//! every state a crash between its flushes could leave.
//!
//! Plans can also be *phase-scoped*: a plan staged with
//! [`FaultyDisk::stage_recovery_plan`] arms each time the mount
//! announces [`IoPhase::Recovery`] and disarms when normal operation
//! resumes, so faults can be aimed at the recovery path itself.
//!
//! # The latency model
//!
//! The plan's read/write latency is the cost of one *command*, and a
//! one-block request costs exactly that. An extent
//! ([`BlockDevice::read_blocks`], or one extent of a
//! [`BlockDevice::write_blocks`] batch) is still one command: it costs
//! the per-command latency plus [`BLOCK_TRANSFER_NS`] for every block
//! after the first, the way an NVMe command pays its setup once and then
//! streams. A write batch is that many independent commands submitted
//! together, and the device works on [`DEVICE_QUEUE_DEPTH`] of them at
//! once: the batch costs `ceil(extents / DEVICE_QUEUE_DEPTH)` per-command
//! latencies plus the transfer of every block after each extent's
//! first, so a one-extent batch costs exactly what one command does.
//! Whether the wait sleeps or spins is decided by the per-command
//! latency, never by the request total, so a busy-waited model stays
//! busy-waited however large its batches grow. A plan with no latency
//! models no media time at all.
//!
//! Fault decisions stay per block, in order across the whole batch: a
//! batch consumes rule counters and records events exactly as the loop
//! of one-block requests it replaces would, so an N-th access fault
//! inside an extent fires on its block, the first failing block ends
//! the batch, and a failed batch leaves the same written prefix. A
//! one-block request is simply a batch of one one-block extent.

use crate::device::{BlockDevice, Extent, IoPhase, BLOCK_SIZE};
use parking_lot::Mutex;
use rae_telemetry::{EventKind, Telemetry};
use rae_vfs::{FsError, FsResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Modelled transfer time of each block after the first in an extent
/// request: 4 KiB at ~2 GB/s. A fixed property of the model, not a plan
/// knob (see the module docs).
pub const BLOCK_TRANSFER_NS: u64 = 2_000;

/// Commands the modelled device works on at once: a write batch pays
/// one per-command latency per this many extents. A fixed property of
/// the model, not a plan knob (see the module docs).
pub const DEVICE_QUEUE_DEPTH: usize = 32;

/// Latencies the OS timer can resolve are slept (so concurrent requests
/// overlap their device time, as against real hardware); shorter ones
/// are spun for precision.
const SLEEP_THRESHOLD_NS: u64 = 20_000;

/// Modelled device time of one command moving `blocks` blocks whose
/// plan latency per command is `per_command_ns`.
fn request_ns(per_command_ns: u64, blocks: usize) -> u64 {
    batch_ns(per_command_ns, 1, blocks)
}

/// Modelled device time of a batch of `extents` independent commands
/// moving `blocks` blocks in all.
fn batch_ns(per_command_ns: u64, extents: usize, blocks: usize) -> u64 {
    if per_command_ns == 0 {
        return 0;
    }
    let waves = extents.div_ceil(DEVICE_QUEUE_DEPTH) as u64;
    waves * per_command_ns + blocks.saturating_sub(extents) as u64 * BLOCK_TRANSFER_NS
}

/// The first `n` blocks of a batch, as a batch.
fn batch_prefix<'a>(extents: &[Extent<'a>], mut n: usize) -> Vec<Extent<'a>> {
    let mut out = Vec::new();
    for e in extents {
        if n == 0 {
            break;
        }
        let k = e.len().min(n);
        out.push(Extent {
            start: e.start,
            bufs: &e.bufs[..k],
        });
        n -= k;
    }
    out
}

/// Telemetry wire codes for the injected fault classes
/// (`rae_telemetry::fault_class_name` renders them).
mod fault_class {
    pub const READ_FAIL: u64 = 0;
    pub const WRITE_FAIL: u64 = 1;
    pub const FLUSH_FAIL: u64 = 2;
    pub const CORRUPT_READ: u64 = 3;
}

/// Which blocks a fault rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// A single block.
    Block(u64),
    /// A half-open block range `[start, end)`.
    Range {
        /// First affected block.
        start: u64,
        /// One past the last affected block.
        end: u64,
    },
    /// Every block.
    Any,
}

impl FaultTarget {
    fn matches(self, bno: u64) -> bool {
        match self {
            FaultTarget::Block(b) => b == bno,
            FaultTarget::Range { start, end } => (start..end).contains(&bno),
            FaultTarget::Any => true,
        }
    }
}

/// When a fault rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TriggerMode {
    /// On every matching access.
    Always,
    /// Exactly once, on the n-th matching access (1-based).
    Nth(u64),
}

/// An error-injection rule for reads or writes.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessRule {
    /// Affected blocks.
    pub target: FaultTarget,
    /// Firing schedule.
    pub mode: TriggerMode,
}

/// A silent-corruption rule: flip one bit of the data *returned* by a
/// matching read (the stored data is untouched — the fault is in the
/// "transfer path", as with DMA/DRAM/CPU corruption).
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptRule {
    /// Affected blocks.
    pub target: FaultTarget,
    /// Byte offset of the flipped bit within the block.
    pub byte: usize,
    /// Bit index (0–7).
    pub bit: u8,
    /// Firing schedule.
    pub mode: TriggerMode,
}

/// A device-level fault plan.
///
/// Build with the fluent methods, then install via
/// [`FaultyDisk::with_plan`] or [`FaultyDisk::set_plan`].
#[derive(Debug, Clone, Default)]
pub struct DiskFaultPlan {
    read_errors: Vec<AccessRule>,
    write_errors: Vec<AccessRule>,
    corrupt_reads: Vec<CorruptRule>,
    flush_errors: Vec<TriggerMode>,
    read_latency_ns: u64,
    write_latency_ns: u64,
}

impl DiskFaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> DiskFaultPlan {
        DiskFaultPlan::default()
    }

    /// Fail matching reads.
    #[must_use]
    pub fn fail_reads(mut self, target: FaultTarget, mode: TriggerMode) -> DiskFaultPlan {
        self.read_errors.push(AccessRule { target, mode });
        self
    }

    /// Fail matching writes.
    #[must_use]
    pub fn fail_writes(mut self, target: FaultTarget, mode: TriggerMode) -> DiskFaultPlan {
        self.write_errors.push(AccessRule { target, mode });
        self
    }

    /// Silently corrupt matching reads (single bit flip in the returned
    /// buffer).
    #[must_use]
    pub fn corrupt_reads(
        mut self,
        target: FaultTarget,
        byte: usize,
        bit: u8,
        mode: TriggerMode,
    ) -> DiskFaultPlan {
        assert!(
            byte < BLOCK_SIZE && bit < 8,
            "corruption coordinates out of range"
        );
        self.corrupt_reads.push(CorruptRule {
            target,
            byte,
            bit,
            mode,
        });
        self
    }

    /// Fail flush barriers (the sync/durability path). Flushes are
    /// device-wide, so the rule has a schedule but no block target.
    #[must_use]
    pub fn fail_flushes(mut self, mode: TriggerMode) -> DiskFaultPlan {
        self.flush_errors.push(mode);
        self
    }

    /// Busy-wait latency per read, in nanoseconds (models media speed).
    #[must_use]
    pub fn read_latency_ns(mut self, ns: u64) -> DiskFaultPlan {
        self.read_latency_ns = ns;
        self
    }

    /// Busy-wait latency per write, in nanoseconds.
    #[must_use]
    pub fn write_latency_ns(mut self, ns: u64) -> DiskFaultPlan {
        self.write_latency_ns = ns;
        self
    }
}

/// Record of one injected fault, for assertions in tests and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// A read of `bno` was failed.
    ReadError(u64),
    /// A write of `bno` was failed.
    WriteError(u64),
    /// A read of `bno` was silently corrupted.
    CorruptedRead(u64),
    /// A flush barrier was failed.
    FlushError,
}

/// Outcome of matching one read against the active plan.
struct ReadDecision {
    latency_ns: u64,
    error: bool,
    corrupt: Option<(usize, u8)>,
}

/// Outcome of matching one write against the active plan.
struct WriteDecision {
    latency_ns: u64,
    error: bool,
}

struct FaultState {
    plan: DiskFaultPlan,
    read_rule_hits: Vec<u64>,
    write_rule_hits: Vec<u64>,
    corrupt_rule_hits: Vec<u64>,
    flush_rule_hits: Vec<u64>,
}

impl FaultState {
    fn new(plan: DiskFaultPlan) -> FaultState {
        FaultState {
            read_rule_hits: vec![0; plan.read_errors.len()],
            write_rule_hits: vec![0; plan.write_errors.len()],
            corrupt_rule_hits: vec![0; plan.corrupt_reads.len()],
            flush_rule_hits: vec![0; plan.flush_errors.len()],
            plan,
        }
    }

    fn rule_fires(mode: TriggerMode, hits: &mut u64) -> bool {
        *hits += 1;
        match mode {
            TriggerMode::Always => true,
            TriggerMode::Nth(n) => *hits == n,
        }
    }

    // The decision methods split-borrow the state (rules iterated in
    // place, hit counters zipped alongside) so the hot path performs no
    // per-access clones or allocations while holding the lock.

    fn read_decision(&mut self, bno: u64) -> ReadDecision {
        let FaultState {
            plan,
            read_rule_hits,
            corrupt_rule_hits,
            ..
        } = self;

        let mut error = false;
        for (rule, hits) in plan.read_errors.iter().zip(read_rule_hits.iter_mut()) {
            if rule.target.matches(bno) && Self::rule_fires(rule.mode, hits) {
                error = true;
                break;
            }
        }

        let mut corrupt = None;
        if !error {
            for (rule, hits) in plan.corrupt_reads.iter().zip(corrupt_rule_hits.iter_mut()) {
                if rule.target.matches(bno) && Self::rule_fires(rule.mode, hits) {
                    corrupt = Some((rule.byte, rule.bit));
                    break;
                }
            }
        }

        ReadDecision {
            latency_ns: plan.read_latency_ns,
            error,
            corrupt,
        }
    }

    fn write_decision(&mut self, bno: u64) -> WriteDecision {
        let FaultState {
            plan,
            write_rule_hits,
            ..
        } = self;

        let mut error = false;
        for (rule, hits) in plan.write_errors.iter().zip(write_rule_hits.iter_mut()) {
            if rule.target.matches(bno) && Self::rule_fires(rule.mode, hits) {
                error = true;
                break;
            }
        }

        WriteDecision {
            latency_ns: plan.write_latency_ns,
            error,
        }
    }

    fn flush_decision(&mut self) -> bool {
        let FaultState {
            plan,
            flush_rule_hits,
            ..
        } = self;
        for (mode, hits) in plan.flush_errors.iter().zip(flush_rule_hits.iter_mut()) {
            if Self::rule_fires(*mode, hits) {
                return true;
            }
        }
        false
    }
}

/// Lock-protected portion of [`FaultyDisk`]: the normal-phase state,
/// the optional recovery-scoped state, and the shared event trail.
struct Shared {
    normal: FaultState,
    staged_recovery: Option<DiskFaultPlan>,
    recovery: Option<FaultState>,
    phase: IoPhase,
    events: Vec<FaultEvent>,
}

impl Shared {
    /// The state that governs the current access: the armed
    /// recovery-scoped state while in [`IoPhase::Recovery`], the normal
    /// state otherwise.
    fn active(&mut self) -> &mut FaultState {
        match (self.phase, self.recovery.as_mut()) {
            (IoPhase::Recovery, Some(r)) => r,
            _ => &mut self.normal,
        }
    }
}

/// A fault-injecting wrapper around any block device.
///
/// The plan can be swapped at runtime ([`FaultyDisk::set_plan`]);
/// injected events are recorded and drainable for assertions.
pub struct FaultyDisk<D> {
    inner: D,
    state: Mutex<Shared>,
    injected: AtomicU64,
    telemetry: OnceLock<Arc<Telemetry>>,
}

impl<D: std::fmt::Debug> std::fmt::Debug for FaultyDisk<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyDisk")
            .field("inner", &self.inner)
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .finish()
    }
}

impl<D: BlockDevice> FaultyDisk<D> {
    /// Wrap `inner` with no active faults.
    #[must_use]
    pub fn new(inner: D) -> FaultyDisk<D> {
        FaultyDisk::with_plan(inner, DiskFaultPlan::new())
    }

    /// Wrap `inner` with `plan` active.
    #[must_use]
    pub fn with_plan(inner: D, plan: DiskFaultPlan) -> FaultyDisk<D> {
        FaultyDisk {
            inner,
            state: Mutex::new(Shared {
                normal: FaultState::new(plan),
                staged_recovery: None,
                recovery: None,
                phase: IoPhase::Normal,
                events: Vec::new(),
            }),
            injected: AtomicU64::new(0),
            telemetry: OnceLock::new(),
        }
    }

    /// Attach a telemetry handle: injected faults become
    /// [`EventKind::FaultInjected`] flight-recorder events. (Requests
    /// and their latency are the mount's to meter, above this device.)
    /// First call wins.
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.telemetry.set(telemetry);
    }

    fn fault_event(&self, class: u64, bno: u64, recovery: bool) {
        if let Some(t) = self.telemetry.get() {
            t.event(EventKind::FaultInjected, class, bno, u64::from(recovery));
        }
    }

    /// Replace the active plan (resets per-rule counters, keeps events).
    pub fn set_plan(&self, plan: DiskFaultPlan) {
        self.state.lock().normal = FaultState::new(plan);
    }

    /// Remove all faults.
    pub fn clear_plan(&self) {
        self.set_plan(DiskFaultPlan::new());
    }

    /// Stage a plan that arms (with fresh rule counters) every time the
    /// mount announces [`IoPhase::Recovery`] and disarms on return to
    /// [`IoPhase::Normal`]. The normal-phase plan is untouched; while
    /// recovery runs, *only* the staged plan is consulted.
    pub fn stage_recovery_plan(&self, plan: DiskFaultPlan) {
        let mut sh = self.state.lock();
        if sh.phase == IoPhase::Recovery {
            sh.recovery = Some(FaultState::new(plan.clone()));
        }
        sh.staged_recovery = Some(plan);
    }

    /// The phase most recently announced via
    /// [`BlockDevice::set_phase`].
    #[must_use]
    pub fn phase(&self) -> IoPhase {
        self.state.lock().phase
    }

    /// Total faults injected since construction.
    #[must_use]
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Drain the recorded fault events.
    #[must_use]
    pub fn take_events(&self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.state.lock().events)
    }

    /// Access the wrapped device.
    #[must_use]
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Wait out `ns` of modelled device time, charged at a per-command
    /// latency of `per_command_ns`.
    fn busy_wait(per_command_ns: u64, ns: u64) {
        if ns == 0 {
            return;
        }
        // Device time is not host CPU time: latencies the OS timer can
        // resolve are slept, so concurrent requests overlap their
        // latency exactly as they would against real hardware (the
        // property the multi-queue write-back path and the concurrent
        // read path exist to exploit). Sub-timer latencies keep the
        // precise spin, judged per command so that a large batch on a
        // spinning model still spins.
        if per_command_ns >= SLEEP_THRESHOLD_NS {
            std::thread::sleep(std::time::Duration::from_nanos(ns));
            return;
        }
        let start = Instant::now();
        while u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX) < ns {
            std::hint::spin_loop();
        }
    }
}

impl<D: BlockDevice> BlockDevice for FaultyDisk<D> {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    // A one-block request is an extent of one: the same decision, the
    // same events and counters, one inner call, one command's latency.
    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        self.read_blocks(bno, &mut [buf])
    }

    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
        self.write_blocks(&[Extent {
            start: bno,
            bufs: &[buf],
        }])
    }

    // Range and buffer checks are the inner device's, made after the
    // decisions: an out-of-range request still consumes its rule hits.
    fn read_blocks(&self, start: u64, bufs: &mut [&mut [u8]]) -> FsResult<()> {
        if bufs.is_empty() {
            return Ok(());
        }
        // Decide block by block, as the loop of one-block reads would:
        // the first failing block ends the request, the ones before it
        // are read (and maybe corrupted).
        let mut latency_ns = 0;
        let mut failed = None;
        let mut corrupt = Vec::new();
        let recovery = {
            let mut sh = self.state.lock();
            for i in 0..bufs.len() {
                let bno = start.saturating_add(i as u64);
                let d = sh.active().read_decision(bno);
                latency_ns = d.latency_ns;
                if d.error {
                    sh.events.push(FaultEvent::ReadError(bno));
                    failed = Some(i);
                    break;
                }
                if let Some(flip) = d.corrupt {
                    sh.events.push(FaultEvent::CorruptedRead(bno));
                    corrupt.push((i, flip));
                }
            }
            sh.phase == IoPhase::Recovery
        };
        let read = failed.unwrap_or(bufs.len());
        let attempted = read + usize::from(failed.is_some());
        Self::busy_wait(latency_ns, request_ns(latency_ns, attempted));

        let mut result = if read > 0 {
            self.inner.read_blocks(start, &mut bufs[..read])
        } else {
            Ok(())
        };
        if result.is_ok() {
            for (i, (byte, bit)) in corrupt {
                self.injected.fetch_add(1, Ordering::Relaxed);
                self.fault_event(fault_class::CORRUPT_READ, start + i as u64, recovery);
                bufs[i][byte] ^= 1 << bit;
            }
            if let Some(i) = failed {
                let bno = start.saturating_add(i as u64);
                self.injected.fetch_add(1, Ordering::Relaxed);
                self.fault_event(fault_class::READ_FAIL, bno, recovery);
                result = Err(FsError::IoFailed {
                    detail: format!("injected read error at block {bno}"),
                });
            }
        }
        result
    }

    fn write_blocks(&self, extents: &[Extent<'_>]) -> FsResult<()> {
        let blocks: usize = extents.iter().map(Extent::len).sum();
        if blocks == 0 {
            return Ok(());
        }
        // Decide block by block across the batch, as the loop of
        // one-block writes would: the first failing block ends the batch
        // and the blocks before it land, so what lands is a prefix.
        let mut latency_ns = 0;
        let mut landed = 0;
        let mut failed = None;
        let mut reached = 0;
        let recovery = {
            let mut sh = self.state.lock();
            'batch: for e in extents.iter().filter(|e| !e.is_empty()) {
                reached += 1;
                for bno in (e.start..).take(e.len()) {
                    let d = sh.active().write_decision(bno);
                    latency_ns = d.latency_ns;
                    if d.error {
                        sh.events.push(FaultEvent::WriteError(bno));
                        failed = Some(bno);
                        break 'batch;
                    }
                    landed += 1;
                }
            }
            sh.phase == IoPhase::Recovery
        };
        let attempted = landed + usize::from(failed.is_some());
        Self::busy_wait(latency_ns, batch_ns(latency_ns, reached, attempted));

        let mut result = match landed {
            0 => Ok(()),
            n if n == blocks => self.inner.write_blocks(extents),
            n => self.inner.write_blocks(&batch_prefix(extents, n)),
        };
        if let (Ok(()), Some(bno)) = (&result, failed) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            self.fault_event(fault_class::WRITE_FAIL, bno, recovery);
            result = Err(FsError::IoFailed {
                detail: format!("injected write error at block {bno}"),
            });
        }
        result
    }

    fn flush(&self) -> FsResult<()> {
        let (fails, recovery) = {
            let mut sh = self.state.lock();
            let fails = sh.active().flush_decision();
            if fails {
                sh.events.push(FaultEvent::FlushError);
            }
            (fails, sh.phase == IoPhase::Recovery)
        };
        if fails {
            self.injected.fetch_add(1, Ordering::Relaxed);
            self.fault_event(fault_class::FLUSH_FAIL, 0, recovery);
            Err(FsError::IoFailed {
                detail: "injected flush error".into(),
            })
        } else {
            self.inner.flush()
        }
    }

    fn set_phase(&self, phase: IoPhase) {
        {
            let mut sh = self.state.lock();
            sh.phase = phase;
            match phase {
                IoPhase::Recovery => {
                    // arm with fresh counters on every recovery entry
                    sh.recovery = sh.staged_recovery.clone().map(FaultState::new);
                }
                IoPhase::Normal => sh.recovery = None,
            }
        }
        self.inner.set_phase(phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemDisk;

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_SIZE]
    }

    #[test]
    fn no_plan_is_transparent() {
        let d = FaultyDisk::new(MemDisk::new(4));
        d.write_block(1, &block(9)).unwrap();
        let mut r = block(0);
        d.read_block(1, &mut r).unwrap();
        assert_eq!(r[0], 9);
        assert_eq!(d.injected_faults(), 0);
    }

    #[test]
    fn nth_read_error_fires_once() {
        let plan = DiskFaultPlan::new().fail_reads(FaultTarget::Block(2), TriggerMode::Nth(2));
        let d = FaultyDisk::with_plan(MemDisk::new(4), plan);
        let mut r = block(0);
        assert!(d.read_block(2, &mut r).is_ok()); // 1st
        assert!(d.read_block(2, &mut r).is_err()); // 2nd fires
        assert!(d.read_block(2, &mut r).is_ok()); // 3rd ok again
        assert_eq!(d.injected_faults(), 1);
        assert_eq!(d.take_events(), vec![FaultEvent::ReadError(2)]);
    }

    #[test]
    fn always_write_error_on_range() {
        let plan = DiskFaultPlan::new()
            .fail_writes(FaultTarget::Range { start: 5, end: 7 }, TriggerMode::Always);
        let d = FaultyDisk::with_plan(MemDisk::new(10), plan);
        assert!(d.write_block(4, &block(1)).is_ok());
        assert!(d.write_block(5, &block(1)).is_err());
        assert!(d.write_block(6, &block(1)).is_err());
        assert!(d.write_block(7, &block(1)).is_ok());
    }

    #[test]
    fn silent_corruption_flips_returned_bit_only() {
        let plan =
            DiskFaultPlan::new().corrupt_reads(FaultTarget::Block(0), 100, 1, TriggerMode::Nth(1));
        let d = FaultyDisk::with_plan(MemDisk::new(1), plan);
        d.write_block(0, &block(0)).unwrap();

        let mut r = block(0);
        d.read_block(0, &mut r).unwrap();
        assert_eq!(r[100], 0b10, "first read corrupted");

        d.read_block(0, &mut r).unwrap();
        assert_eq!(r[100], 0, "stored data untouched, later reads clean");
    }

    #[test]
    fn flush_faults_fire_and_record() {
        let plan = DiskFaultPlan::new().fail_flushes(TriggerMode::Nth(2));
        let d = FaultyDisk::with_plan(MemDisk::new(1), plan);
        assert!(d.flush().is_ok());
        assert!(matches!(d.flush(), Err(FsError::IoFailed { .. })));
        assert!(d.flush().is_ok());
        assert_eq!(d.injected_faults(), 1);
        assert_eq!(d.take_events(), vec![FaultEvent::FlushError]);
    }

    #[test]
    fn recovery_plan_scoped_to_recovery_phase() {
        let d = FaultyDisk::new(MemDisk::new(4));
        d.stage_recovery_plan(
            DiskFaultPlan::new().fail_reads(FaultTarget::Any, TriggerMode::Always),
        );
        let mut r = block(0);
        assert!(d.read_block(0, &mut r).is_ok(), "normal phase unaffected");

        d.set_phase(IoPhase::Recovery);
        assert_eq!(d.phase(), IoPhase::Recovery);
        assert!(d.read_block(0, &mut r).is_err(), "armed during recovery");

        d.set_phase(IoPhase::Normal);
        assert!(d.read_block(0, &mut r).is_ok(), "disarmed after recovery");
    }

    #[test]
    fn recovery_plan_rearms_with_fresh_counters_each_entry() {
        let d = FaultyDisk::new(MemDisk::new(4));
        d.stage_recovery_plan(
            DiskFaultPlan::new().fail_reads(FaultTarget::Any, TriggerMode::Nth(1)),
        );
        let mut r = block(0);

        d.set_phase(IoPhase::Recovery);
        assert!(d.read_block(0, &mut r).is_err(), "first entry fires");
        assert!(d.read_block(0, &mut r).is_ok(), "Nth(1) spent");
        d.set_phase(IoPhase::Normal);

        d.set_phase(IoPhase::Recovery);
        assert!(d.read_block(0, &mut r).is_err(), "re-armed on re-entry");
        d.set_phase(IoPhase::Normal);
    }

    #[test]
    fn normal_plan_suspended_while_recovery_plan_armed() {
        let plan = DiskFaultPlan::new().fail_writes(FaultTarget::Any, TriggerMode::Always);
        let d = FaultyDisk::with_plan(MemDisk::new(4), plan);
        d.stage_recovery_plan(DiskFaultPlan::new());
        assert!(d.write_block(0, &block(1)).is_err(), "normal plan active");
        d.set_phase(IoPhase::Recovery);
        assert!(
            d.write_block(0, &block(1)).is_ok(),
            "only the (empty) recovery plan is consulted during recovery"
        );
        d.set_phase(IoPhase::Normal);
        assert!(d.write_block(0, &block(1)).is_err());
    }

    #[test]
    fn a_request_costs_one_command_plus_its_transfer() {
        // a one-block request costs exactly the plan's latency
        assert_eq!(request_ns(5_000, 1), 5_000);
        assert_eq!(request_ns(50_000, 1), 50_000);
        // an extent pays the command once, then the transfer per block
        assert_eq!(request_ns(5_000, 4), 5_000 + 3 * BLOCK_TRANSFER_NS);
        assert_eq!(request_ns(0, 64), 0, "no latency model, no media time");
    }

    #[test]
    fn extent_batches_pay_one_command_per_queue_depth_of_extents() {
        let (l, qd) = (50_000, DEVICE_QUEUE_DEPTH);
        // a one-extent batch is one command
        for n in [1, 2, 9] {
            assert_eq!(batch_ns(l, 1, n), request_ns(l, n));
        }
        // independent extents overlap, a queue depth at a time
        assert_eq!(batch_ns(l, 9, 9), l);
        assert_eq!(batch_ns(l, qd, qd), l);
        assert_eq!(batch_ns(l, qd + 1, qd + 1), 2 * l);
        assert_eq!(batch_ns(l, 3 * qd, 3 * qd), 3 * l);
        // and every block after an extent's first still streams
        assert_eq!(batch_ns(l, 3, 10), l + 7 * BLOCK_TRANSFER_NS);
        assert_eq!(batch_ns(0, 100, 400), 0, "no latency model, no media time");
    }

    /// A plan's outcome under one request shape: what the request
    /// returned per attempt, the image left behind, the events, and the
    /// injected-fault count.
    type Outcome = (Vec<bool>, Vec<u8>, Vec<FaultEvent>, u64);

    /// Write the extents `shape` (start, length) of a 32-block disk,
    /// block `b` with content `b`, either as one batch or as the loop of
    /// one-block writes the batch replaces (which, like the trait's
    /// default, stops at the first error).
    fn write_batch(plan: &DiskFaultPlan, shape: &[(u64, u64)], batched: bool) -> Outcome {
        let d = FaultyDisk::with_plan(MemDisk::new(32), plan.clone());
        let bnos: Vec<u64> = shape.iter().flat_map(|&(s, n)| s..s + n).collect();
        let images: Vec<Vec<u8>> = bnos.iter().map(|&b| block(b as u8)).collect();
        let bufs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
        let failed = if batched {
            d.write_blocks(&Extent::runs(&bnos, &bufs)).is_err()
        } else {
            bnos.iter()
                .zip(&bufs)
                .any(|(&bno, b)| d.write_block(bno, b).is_err())
        };
        (
            vec![failed],
            d.inner().snapshot(),
            d.take_events(),
            d.injected_faults(),
        )
    }

    /// Blocks 1..=8 as one extent.
    fn write_eight(plan: &DiskFaultPlan, extent: bool) -> Outcome {
        write_batch(plan, &[(1, 8)], extent)
    }

    /// Four extents; the third is blocks 10..13.
    const SCATTERED: [(u64, u64); 4] = [(1, 2), (5, 3), (10, 3), (20, 2)];

    #[test]
    fn extent_batch_fault_fires_on_its_block_in_the_third_extent() {
        // the 7th block of the batch is block 11, inside the third extent
        let plan = DiskFaultPlan::new().fail_writes(FaultTarget::Any, TriggerMode::Nth(7));
        let got = write_batch(&plan, &SCATTERED, true);
        assert_eq!(got, write_batch(&plan, &SCATTERED, false), "as the loop");
        let (failed, image, events, injected) = got;
        assert_eq!(
            (failed, events, injected),
            (vec![true], vec![FaultEvent::WriteError(11)], 1)
        );
        let landed = |bno: u64| image[bno as usize * BLOCK_SIZE] != 0;
        // the earlier extents and the third's first block landed, the
        // failed block and everything after it did not
        assert!([1, 2, 5, 6, 7, 10].into_iter().all(landed));
        assert!(![11, 12, 20, 21].into_iter().any(landed));
    }

    #[test]
    fn extent_write_faults_fire_on_their_block() {
        let plans = [
            DiskFaultPlan::new().fail_writes(FaultTarget::Any, TriggerMode::Nth(4)),
            DiskFaultPlan::new()
                .fail_writes(FaultTarget::Range { start: 6, end: 8 }, TriggerMode::Always),
        ];
        for plan in &plans {
            assert_eq!(
                write_eight(plan, true),
                write_eight(plan, false),
                "{plan:?}"
            );
        }

        // and concretely: an N-th fault inside the extent fails its own
        // block, after the prefix landed and before the suffix
        let (failed, image, events, injected) = write_eight(&plans[0], true);
        assert_eq!(
            (failed, events, injected),
            (vec![true], vec![FaultEvent::WriteError(4)], 1)
        );
        let landed = |bno: usize| image[bno * BLOCK_SIZE] != 0;
        assert!((1..4).all(landed) && !(4..=8).any(landed));
    }

    /// Read blocks 0..8 of a disk whose block `b` holds `b + 1`, as one
    /// extent or as a loop of one-block reads.
    fn read_eight(plan: &DiskFaultPlan, extent: bool) -> Outcome {
        let disk = MemDisk::new(8);
        for b in 0..8u8 {
            disk.write_block(u64::from(b), &block(b + 1)).unwrap();
        }
        let d = FaultyDisk::with_plan(disk, plan.clone());
        let mut images: Vec<Vec<u8>> = (0..8).map(|_| block(0)).collect();
        let failed = if extent {
            let mut bufs: Vec<&mut [u8]> = images.iter_mut().map(Vec::as_mut_slice).collect();
            d.read_blocks(0, &mut bufs).is_err()
        } else {
            (0..)
                .zip(images.iter_mut())
                .any(|(bno, b)| d.read_block(bno, b).is_err())
        };
        (
            vec![failed],
            images.concat(),
            d.take_events(),
            d.injected_faults(),
        )
    }

    #[test]
    fn extent_read_faults_fire_on_their_block() {
        let plans = [
            DiskFaultPlan::new().fail_reads(FaultTarget::Any, TriggerMode::Nth(5)),
            DiskFaultPlan::new()
                .corrupt_reads(
                    FaultTarget::Range { start: 1, end: 3 },
                    9,
                    2,
                    TriggerMode::Always,
                )
                .fail_reads(FaultTarget::Block(6), TriggerMode::Always),
            DiskFaultPlan::new().corrupt_reads(FaultTarget::Any, 0, 7, TriggerMode::Nth(8)),
        ];
        for plan in &plans {
            assert_eq!(read_eight(plan, true), read_eight(plan, false), "{plan:?}");
        }
        let (failed, image, events, injected) = read_eight(&plans[1], true);
        assert_eq!(failed, vec![true]);
        assert_eq!(injected, 3);
        assert_eq!(
            events,
            [
                FaultEvent::CorruptedRead(1),
                FaultEvent::CorruptedRead(2),
                FaultEvent::ReadError(6)
            ]
        );
        assert_eq!(
            image[BLOCK_SIZE + 9],
            2 ^ 0b100,
            "block 1 read, then corrupted"
        );
        assert_eq!(image[5 * BLOCK_SIZE], 6, "block 5 read before the failure");
        assert_eq!(image[6 * BLOCK_SIZE], 0, "the failed block was not read");
    }

    #[test]
    fn set_plan_resets_counters() {
        let plan = DiskFaultPlan::new().fail_reads(FaultTarget::Any, TriggerMode::Nth(1));
        let d = FaultyDisk::with_plan(MemDisk::new(1), plan.clone());
        let mut r = block(0);
        assert!(d.read_block(0, &mut r).is_err());
        d.set_plan(plan);
        assert!(
            d.read_block(0, &mut r).is_err(),
            "counter reset, fires again"
        );
    }
}
