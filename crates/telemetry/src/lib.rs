//! `rae-telemetry`: always-on-cheap observability for the RAE stack.
//!
//! Two primitives, both lock-free and allocation-free on the record
//! path:
//!
//! - [`LatencyHistogram`]: log-bucketed (HDR-style) atomic histograms,
//!   kept per VFS op class, per device-I/O phase, and for a few
//!   internal phases (journal commit, page-cache miss fill).
//! - [`EventRing`]: a fixed-capacity concurrent ring of structured,
//!   monotonically-timestamped events — the flight recorder drained as
//!   a post-incident timeline.
//!
//! A single [`Telemetry`] handle owns both and is shared (`Arc`) by
//! every layer. Recording is gated by one relaxed [`AtomicBool`] so
//! the whole subsystem can be switched off at runtime to measure its
//! own overhead; when disabled the hot-path cost is that single load.
//! The one exception is the device meter's request and block counts
//! ([`Telemetry::dev_observed`]), which recovery reports read and so
//! always advance.
//!
//! The crate has zero dependencies (not even on the other `rae-*`
//! crates) so any layer can use it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod hist;
mod ring;
mod snapshot;
mod trace;

pub use event::{
    dev_op_name, fault_class_name, render_timeline, render_trace_timeline, rung_name, trigger_name,
    Event, EventKind,
};
pub use hist::{HistogramSummary, LatencyHistogram, NUM_BUCKETS};
pub use ring::{EventRing, RawEvent};
pub use snapshot::TelemetrySnapshot;
pub use trace::{
    clear_current_trace, current_trace, set_current_trace, span_add, span_begin, span_mark,
    span_take, SpanLayer, TraceCtx, SPAN_LAYERS,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// VFS operation classes tracked with per-class latency histograms at
/// the RAE API boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Data reads.
    Read,
    /// Data writes (write, append, truncate).
    Write,
    /// Namespace creation (create, mkdir, link, symlink, rename).
    Create,
    /// Namespace removal (unlink, rmdir).
    Unlink,
    /// Directory listing.
    Readdir,
    /// Attribute reads (stat, statfs, readlink).
    Stat,
    /// Durability (fsync, sync).
    Fsync,
    /// Everything else (open, close, setattr, …).
    Other,
}

impl OpClass {
    /// All classes, in code order.
    pub const ALL: [OpClass; 8] = [
        OpClass::Read,
        OpClass::Write,
        OpClass::Create,
        OpClass::Unlink,
        OpClass::Readdir,
        OpClass::Stat,
        OpClass::Fsync,
        OpClass::Other,
    ];

    /// Stable wire code (index into [`OpClass::ALL`]).
    #[must_use]
    pub fn code(self) -> u64 {
        Self::ALL.iter().position(|&k| k == self).unwrap_or(7) as u64
    }

    /// Stable lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Write => "write",
            OpClass::Create => "create",
            OpClass::Unlink => "unlink",
            OpClass::Readdir => "readdir",
            OpClass::Stat => "stat",
            OpClass::Fsync => "fsync",
            OpClass::Other => "other",
        }
    }

    /// Name for a wire code (used by event rendering).
    #[must_use]
    pub fn name_of(code: u64) -> &'static str {
        Self::ALL.get(code as usize).map_or("?", |c| c.name())
    }
}

/// Device I/O operations timed per phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevOp {
    /// Block read.
    Read,
    /// Block write.
    Write,
    /// Flush.
    Flush,
}

impl DevOp {
    /// All device ops, in code order.
    pub const ALL: [DevOp; 3] = [DevOp::Read, DevOp::Write, DevOp::Flush];

    /// Stable wire code.
    #[must_use]
    pub fn code(self) -> u64 {
        Self::ALL.iter().position(|&k| k == self).unwrap_or(0) as u64
    }

    /// Stable lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DevOp::Read => "read",
            DevOp::Write => "write",
            DevOp::Flush => "flush",
        }
    }
}

/// Default flight-recorder capacity.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Latency-sampling rate for API-boundary ops: [`Telemetry::op_clock`]
/// times one op in this many per thread (must be a power of two).
pub const OP_SAMPLE: u64 = 16;

/// Default slow-op threshold: any op at or above this duration is
/// recorded even when the 1-in-[`OP_SAMPLE`] sampler skipped it, and
/// emits a [`EventKind::SlowOp`] event. Zero disables the bypass.
pub const DEFAULT_SLOW_OP_THRESHOLD_NS: u64 = 10_000_000;

thread_local! {
    /// Per-thread op tick driving the 1-in-[`OP_SAMPLE`] latency
    /// sampling — thread-local so the hot path pays no shared
    /// read-modify-write for the sampling decision itself.
    static OP_TICK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// An in-flight layer measurement from [`Telemetry::layer_clock`]:
/// the wall-clock start plus the open span's accumulated total at that
/// moment, so [`Telemetry::layer_observed`] can subtract nested-layer
/// time and deposit only this layer's exclusive share.
#[derive(Debug, Clone, Copy)]
pub struct LayerClock {
    t0: Instant,
    inner0: u64,
}

/// The shared telemetry handle: one per mount, `Arc`-cloned into every
/// layer that records.
pub struct Telemetry {
    enabled: AtomicBool,
    anchor: Instant,
    op_hist: [LatencyHistogram; 8],
    /// Device I/O histograms: `[dev_op][phase]` with phase 0 = normal,
    /// 1 = recovery. One sample per submission (a batch of extents is
    /// one submission, waited for once).
    dev_hist: [[LatencyHistogram; 2]; 3],
    /// Device requests per dev op: one per extent of a submission,
    /// counted whether or not recording is on.
    dev_requests: [AtomicU64; 3],
    /// Blocks moved by those requests, per dev op.
    dev_blocks: [AtomicU64; 3],
    journal_commit: LatencyHistogram,
    cache_fill: LatencyHistogram,
    commit_stall: LatencyHistogram,
    /// Callers inside the commit path at each commit's cut — raw
    /// counts, not nanoseconds.
    commit_batch: LatencyHistogram,
    lock_wait: LatencyHistogram,
    /// Per-layer attribution: for each completed op whose end-to-end
    /// latency was recorded, the nanoseconds each [`SpanLayer`]
    /// contributed (the `other` slot is the remainder, so the six
    /// sums add up to the recorded end-to-end sums by construction).
    attr_hist: [LatencyHistogram; SPAN_LAYERS],
    slow_op_threshold_ns: AtomicU64,
    ring: EventRing,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::with_capacity(DEFAULT_RING_CAPACITY)
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .field("events_recorded", &self.ring.recorded())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A fresh enabled handle with the default ring capacity.
    #[must_use]
    pub fn new() -> Arc<Telemetry> {
        Arc::new(Telemetry::default())
    }

    /// A fresh enabled handle with a custom ring capacity.
    #[must_use]
    pub fn with_capacity(ring_capacity: usize) -> Telemetry {
        Telemetry {
            enabled: AtomicBool::new(true),
            anchor: Instant::now(),
            op_hist: std::array::from_fn(|_| LatencyHistogram::new()),
            dev_hist: std::array::from_fn(|_| std::array::from_fn(|_| LatencyHistogram::new())),
            dev_requests: std::array::from_fn(|_| AtomicU64::new(0)),
            dev_blocks: std::array::from_fn(|_| AtomicU64::new(0)),
            journal_commit: LatencyHistogram::new(),
            cache_fill: LatencyHistogram::new(),
            commit_stall: LatencyHistogram::new(),
            commit_batch: LatencyHistogram::new(),
            lock_wait: LatencyHistogram::new(),
            attr_hist: std::array::from_fn(|_| LatencyHistogram::new()),
            slow_op_threshold_ns: AtomicU64::new(DEFAULT_SLOW_OP_THRESHOLD_NS),
            ring: EventRing::new(ring_capacity),
        }
    }

    /// Whether recording is on (one relaxed load — the entire hot-path
    /// cost when telemetry is switched off).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Switch recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Monotonic nanoseconds since this handle was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Start a latency measurement: `Some(Instant)` when recording is
    /// on, `None` (free) when off. Pair with one of the `*_observed`
    /// methods.
    #[must_use]
    pub fn clock(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Start a *sampled* API-boundary op measurement: times one op in
    /// [`OP_SAMPLE`] per thread and returns `None` for the rest (the
    /// matching [`Telemetry::op_observed`] still counts those exactly).
    /// Sub-microsecond cache-hit ops can't afford two clock reads each;
    /// quantiles from a 1-in-16 subset are statistically equivalent
    /// while the amortized cost drops below the op itself.
    #[must_use]
    pub fn op_clock(&self) -> Option<Instant> {
        if !self.enabled() {
            return None;
        }
        OP_TICK
            .with(|t| {
                let v = t.get().wrapping_add(1);
                t.set(v);
                v & (OP_SAMPLE - 1) == 0
            })
            .then(Instant::now)
    }

    /// Record an API-boundary op latency sample in nanoseconds.
    pub fn record_op_ns(&self, class: OpClass, ns: u64) {
        if self.enabled() {
            self.op_hist[class.code() as usize].record(ns);
        }
    }

    /// Finish an op measurement started with [`Telemetry::op_clock`]:
    /// a timed sample lands in the histogram buckets, an unsampled op
    /// still bumps the exact per-class count.
    pub fn op_observed(&self, class: OpClass, started: Option<Instant>) {
        if !self.enabled() {
            return;
        }
        let h = &self.op_hist[class.code() as usize];
        match started {
            Some(t0) => h.record(t0.elapsed().as_nanos() as u64),
            None => h.note(),
        }
    }

    /// The slow-op threshold in nanoseconds (0 = bypass disabled).
    #[must_use]
    pub fn slow_op_threshold_ns(&self) -> u64 {
        self.slow_op_threshold_ns.load(Relaxed)
    }

    /// Set the slow-op threshold: ops at or above it are recorded even
    /// when the sampler skipped them, and emit [`EventKind::SlowOp`].
    pub fn set_slow_op_threshold_ns(&self, ns: u64) {
        self.slow_op_threshold_ns.store(ns, Relaxed);
    }

    /// Open this thread's attribution span for an op that is starting
    /// (the API boundary calls this right after its clock so the
    /// instrumented layers below can deposit their elapsed time).
    pub fn op_span_begin(&self) {
        if self.enabled() {
            trace::span_begin();
        }
    }

    /// Finish an API-boundary op: close the span, record the
    /// end-to-end latency (timed ops always; unsampled ops when the
    /// deep-layer time alone crosses the slow-op threshold — a
    /// conservative lower bound, so a tail op the sampler skipped is
    /// never lost), feed the attribution histograms, and emit a
    /// [`EventKind::SlowOp`] event over the threshold.
    pub fn op_finish(&self, class: OpClass, started: Option<Instant>) {
        if !self.enabled() {
            // a span opened before a runtime disable still needs
            // clearing, or it would leak into the thread's next op
            let _ = trace::span_take();
            return;
        }
        let acc = trace::span_take();
        let threshold = self.slow_op_threshold_ns();
        let h = &self.op_hist[class.code() as usize];
        match started {
            Some(t0) => {
                let total = t0.elapsed().as_nanos() as u64;
                h.record(total);
                if let Some(acc) = acc {
                    self.record_attribution(total, &acc);
                }
                if threshold > 0 && total >= threshold {
                    self.event(EventKind::SlowOp, class.code(), total, 1);
                }
            }
            None => {
                let deep: u64 = acc.map_or(0, |a| a.iter().sum());
                if h.observe(deep, false, threshold) {
                    if let Some(acc) = acc {
                        self.record_attribution(deep, &acc);
                    }
                    self.event(EventKind::SlowOp, class.code(), deep, 0);
                }
            }
        }
    }

    /// Feed one completed op's span vector into the attribution
    /// histograms; whatever the instrumented layers did not claim is
    /// attributed to `other`.
    fn record_attribution(&self, total_ns: u64, acc: &[u64; SPAN_LAYERS]) {
        let other_slot = SpanLayer::Other.code();
        let mut claimed = 0u64;
        for (i, &ns) in acc.iter().enumerate() {
            if i != other_slot {
                claimed = claimed.saturating_add(ns);
                // zero-valued layers are skipped: the sum invariant is
                // untouched and the fast path saves ~5 histogram writes
                // per sampled op (cache-hit reads touch no layer)
                if ns > 0 {
                    self.attr_hist[i].record(ns);
                }
            }
        }
        self.attr_hist[other_slot].record(total_ns.saturating_sub(claimed));
    }

    /// Start a layer measurement for span attribution: wall-clock
    /// start plus the span's accumulated total (so nested layers can
    /// be excluded at [`Telemetry::layer_observed`] time). `None` when
    /// disabled.
    #[must_use]
    pub fn layer_clock(&self) -> Option<LayerClock> {
        if self.enabled() {
            Some(LayerClock {
                t0: Instant::now(),
                inner0: trace::span_mark(),
            })
        } else {
            None
        }
    }

    /// Finish a layer measurement: records the layer's histogram and
    /// adds the *exclusive* elapsed time (total minus whatever inner
    /// layers deposited meanwhile) to the open span. Returns the total
    /// elapsed nanoseconds (0 when the clock was off).
    pub fn layer_observed(&self, layer: SpanLayer, started: Option<LayerClock>) -> u64 {
        let Some(clock) = started else {
            return 0;
        };
        let ns = clock.t0.elapsed().as_nanos() as u64;
        match layer {
            SpanLayer::LockWait => self.lock_wait.record(ns),
            SpanLayer::CommitStall => self.commit_stall.record(ns),
            SpanLayer::JournalIo => self.journal_commit.record(ns),
            SpanLayer::CacheFill => self.cache_fill.record(ns),
            SpanLayer::Device | SpanLayer::Other => {}
        }
        let inner_during = trace::span_mark().saturating_sub(clock.inner0);
        trace::span_add(layer, ns.saturating_sub(inner_during));
        ns
    }

    /// Record a device-I/O latency sample in nanoseconds. Device time
    /// is the innermost attribution layer, so it is also deposited
    /// into the open span (if any) without exclusion.
    pub fn record_dev_ns(&self, op: DevOp, recovery_phase: bool, ns: u64) {
        if self.enabled() {
            self.dev_hist[op.code() as usize][usize::from(recovery_phase)].record(ns);
            trace::span_add(SpanLayer::Device, ns);
        }
    }

    /// Finish a device-I/O measurement started with [`Telemetry::clock`]:
    /// one submission of `requests` requests that moved `blocks` blocks.
    /// The request and block counts are the mount's device meter and
    /// advance on every call; only the latency sample needs recording
    /// switched on.
    pub fn dev_observed(
        &self,
        op: DevOp,
        recovery_phase: bool,
        requests: u64,
        blocks: u64,
        started: Option<Instant>,
    ) {
        self.dev_requests[op.code() as usize].fetch_add(requests, Relaxed);
        self.dev_blocks[op.code() as usize].fetch_add(blocks, Relaxed);
        if let Some(t0) = started {
            self.record_dev_ns(op, recovery_phase, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Record a journal-commit duration in nanoseconds.
    pub fn record_journal_commit_ns(&self, ns: u64) {
        if self.enabled() {
            self.journal_commit.record(ns);
        }
    }

    /// Record a page-cache miss fill (device read under a miss) in
    /// nanoseconds.
    pub fn record_cache_fill_ns(&self, ns: u64) {
        if self.enabled() {
            self.cache_fill.record(ns);
        }
    }

    /// Record the number of callers inside the commit path when a commit
    /// takes its cut: the committer and the callers queued behind it,
    /// whom the cut may cover. The value is a raw count, not
    /// nanoseconds.
    pub fn record_commit_batch(&self, n: u64) {
        if self.enabled() {
            self.commit_batch.record(n);
        }
    }

    /// Record a flight-recorder event (timestamped now, stamped with
    /// this thread's current trace id).
    pub fn event(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        if self.enabled() {
            self.ring
                .record(self.now_ns(), kind.code(), a, b, c, trace::current_trace());
        }
    }

    /// Drain the flight recorder: decoded events oldest-first plus the
    /// wraparound loss count. Non-destructive.
    #[must_use]
    pub fn timeline(&self) -> (Vec<Event>, u64) {
        let (raw, dropped) = self.ring.snapshot();
        (raw.iter().filter_map(Event::decode).collect(), dropped)
    }

    /// Histogram for one op class (for merging or direct inspection).
    #[must_use]
    pub fn op_histogram(&self, class: OpClass) -> &LatencyHistogram {
        &self.op_hist[class.code() as usize]
    }

    /// Histogram for one device op + phase.
    #[must_use]
    pub fn dev_histogram(&self, op: DevOp, recovery_phase: bool) -> &LatencyHistogram {
        &self.dev_hist[op.code() as usize][usize::from(recovery_phase)]
    }

    /// Device requests of one op, both phases.
    #[must_use]
    pub fn dev_requests(&self, op: DevOp) -> u64 {
        self.dev_requests[op.code() as usize].load(Relaxed)
    }

    /// Blocks moved by the device requests of one op.
    #[must_use]
    pub fn dev_blocks(&self, op: DevOp) -> u64 {
        self.dev_blocks[op.code() as usize].load(Relaxed)
    }

    /// Histogram of journal commit durations.
    #[must_use]
    pub fn journal_commit_histogram(&self) -> &LatencyHistogram {
        &self.journal_commit
    }

    /// Histogram of the time mutations spent waiting for their commit.
    #[must_use]
    pub fn commit_stall_histogram(&self) -> &LatencyHistogram {
        &self.commit_stall
    }

    /// Attribution histogram for one span layer.
    #[must_use]
    pub fn attr_histogram(&self, layer: SpanLayer) -> &LatencyHistogram {
        &self.attr_hist[layer.code()]
    }

    /// Point-in-time summary of every histogram plus flight-recorder
    /// totals.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            enabled: self.enabled(),
            ops: OpClass::ALL
                .iter()
                .map(|&c| (c.name(), self.op_histogram(c).summary()))
                .collect(),
            device: DevOp::ALL
                .iter()
                .flat_map(|&op| {
                    [(false, "normal"), (true, "recovery")]
                        .into_iter()
                        .map(move |(rec, phase)| {
                            (
                                format!("{}/{}", op.name(), phase),
                                self.dev_histogram(op, rec).summary(),
                            )
                        })
                })
                .collect(),
            journal_commit: self.journal_commit.summary(),
            cache_fill: self.cache_fill.summary(),
            commit_stall: self.commit_stall.summary(),
            commit_batch: self.commit_batch.summary(),
            lock_wait: self.lock_wait.summary(),
            attribution: SpanLayer::ALL
                .iter()
                .map(|&l| (l.name(), self.attr_histogram(l).summary()))
                .collect(),
            events_recorded: self.ring.recorded(),
            events_dropped: self.ring.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Telemetry::new();
        t.set_enabled(false);
        t.record_op_ns(OpClass::Read, 100);
        t.event(EventKind::Degraded, 0, 0, 0);
        assert!(t.clock().is_none());
        assert_eq!(t.op_histogram(OpClass::Read).count(), 0);
        assert_eq!(t.timeline().0.len(), 0);
        t.set_enabled(true);
        t.record_op_ns(OpClass::Read, 100);
        assert_eq!(t.op_histogram(OpClass::Read).count(), 1);
    }

    #[test]
    fn timestamps_are_monotone() {
        let t = Telemetry::new();
        t.event(EventKind::RecoveryStarted, 0, 0, 0);
        t.event(EventKind::RecoveryDone, 1, 0, 0);
        let (events, _) = t.timeline();
        assert_eq!(events.len(), 2);
        assert!(events[0].ts_ns <= events[1].ts_ns);
        assert!(events[0].ticket < events[1].ticket);
    }

    #[test]
    fn snapshot_covers_all_tables() {
        let t = Telemetry::new();
        t.record_op_ns(OpClass::Fsync, 5_000);
        t.record_dev_ns(DevOp::Write, true, 9_000);
        t.record_journal_commit_ns(20_000);
        t.record_cache_fill_ns(8_000);
        let snap = t.snapshot();
        assert_eq!(snap.ops.len(), 8);
        assert_eq!(snap.device.len(), 6);
        assert_eq!(
            snap.ops
                .iter()
                .find(|(n, _)| *n == "fsync")
                .unwrap()
                .1
                .count,
            1
        );
        assert_eq!(
            snap.device
                .iter()
                .find(|(n, _)| n == "write/recovery")
                .unwrap()
                .1
                .count,
            1
        );
        assert_eq!(snap.journal_commit.count, 1);
        assert_eq!(snap.cache_fill.count, 1);
    }

    #[test]
    fn extent_requests_count_once_and_their_blocks_each() {
        let t = Telemetry::new();
        t.dev_observed(DevOp::Write, false, 1, 8, t.clock());
        t.dev_observed(DevOp::Write, true, 1, 1, t.clock());
        // a batch of three extents: one latency sample, three requests
        t.dev_observed(DevOp::Write, false, 3, 5, t.clock());
        t.dev_observed(DevOp::Flush, false, 1, 0, t.clock());
        assert_eq!(t.dev_requests(DevOp::Write), 5);
        assert_eq!(t.dev_histogram(DevOp::Write, false).count(), 2);
        assert_eq!(t.dev_blocks(DevOp::Write), 14);
        assert_eq!(t.dev_requests(DevOp::Flush), 1);
    }

    #[test]
    fn the_device_meter_counts_with_recording_off() {
        let t = Telemetry::new();
        t.set_enabled(false);
        t.dev_observed(DevOp::Read, false, 1, 4, t.clock());
        t.dev_observed(DevOp::Flush, true, 1, 0, t.clock());
        assert_eq!(
            (t.dev_requests(DevOp::Read), t.dev_blocks(DevOp::Read)),
            (1, 4)
        );
        assert_eq!(t.dev_requests(DevOp::Flush), 1);
        assert_eq!(
            t.dev_histogram(DevOp::Read, false).count(),
            0,
            "no latency sample"
        );
    }

    #[test]
    fn op_finish_attributes_timed_ops() {
        let t = Telemetry::new();
        let t0 = t.clock();
        t.op_span_begin();
        t.record_dev_ns(DevOp::Read, false, 1_000);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.op_finish(OpClass::Read, t0);
        assert_eq!(t.op_histogram(OpClass::Read).count(), 1);
        assert_eq!(t.attr_histogram(SpanLayer::Device).count(), 1);
        assert_eq!(t.attr_histogram(SpanLayer::Device).sum(), 1_000);
        // the remainder (sleep + overhead) lands in `other`, so the
        // six layer sums add up to the recorded end-to-end sum
        let e2e = t.op_histogram(OpClass::Read).sum();
        let layered: u64 = SpanLayer::ALL
            .iter()
            .map(|&l| t.attr_histogram(l).sum())
            .sum();
        assert_eq!(layered, e2e);
        assert!(t.attr_histogram(SpanLayer::Other).sum() >= 900_000);
    }

    #[test]
    fn op_finish_unsampled_slow_op_is_captured_from_deep_layers() {
        let t = Telemetry::new();
        t.set_slow_op_threshold_ns(1_000_000);
        // unsampled op (no Instant), but its device time alone crosses
        // the threshold — recorded as a lower bound plus a SlowOp event
        t.op_span_begin();
        t.record_dev_ns(DevOp::Read, false, 5_000_000);
        t.op_finish(OpClass::Read, None);
        let h = t.op_histogram(OpClass::Read);
        assert_eq!(h.count(), 1);
        assert_eq!(h.samples(), 1);
        assert_eq!(h.sum(), 5_000_000);
        let (events, _) = t.timeline();
        let slow: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::SlowOp)
            .collect();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].a, OpClass::Read.code());
        assert_eq!(slow[0].b, 5_000_000);
        assert_eq!(slow[0].c, 0, "deep-layer lower bound, not timed");
    }

    #[test]
    fn op_finish_unsampled_fast_op_only_notes() {
        let t = Telemetry::new();
        t.op_span_begin();
        t.record_dev_ns(DevOp::Read, false, 500);
        t.op_finish(OpClass::Read, None);
        let h = t.op_histogram(OpClass::Read);
        assert_eq!(h.count(), 1, "exact count still bumped");
        assert_eq!(h.samples(), 0, "fast unsampled op stays unbucketed");
        assert_eq!(t.timeline().0.len(), 0);
    }

    #[test]
    fn layer_observed_excludes_nested_layers() {
        let t = Telemetry::new();
        t.op_span_begin();
        let outer = t.layer_clock();
        // a device read nested inside the cache fill
        t.record_dev_ns(DevOp::Read, false, 10_000_000);
        let total = t.layer_observed(SpanLayer::CacheFill, outer);
        let acc = trace::span_take().expect("span open");
        assert_eq!(acc[SpanLayer::Device.code()], 10_000_000);
        // the fill's exclusive share excludes the nested device time
        assert_eq!(
            acc[SpanLayer::CacheFill.code()],
            total.saturating_sub(10_000_000)
        );
        assert_eq!(t.cache_fill.count(), 1);
    }

    #[test]
    fn events_are_stamped_with_the_current_trace() {
        let t = Telemetry::new();
        set_current_trace(77);
        t.event(EventKind::Degraded, 1, 2, 3);
        clear_current_trace();
        t.event(EventKind::RecoveryDone, 0, 0, 0);
        let (events, _) = t.timeline();
        assert_eq!(events[0].trace_id, 77);
        assert_eq!(events[1].trace_id, 0);
    }
}
