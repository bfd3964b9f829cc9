//! Spans recorded by the benchmark's own code, the `SpanDisk` device
//! wrapper that records the innermost boundary, and self-time
//! arithmetic. Spans inside the program are a later issue: everything
//! here sits at boundaries reachable from outside.

use rae_blockdev::{BlockDevice, IoPhase};
use rae_vfs::FsResult;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Operation spans kept per load thread and boundary; later operations
/// still run and count, they just leave no span.
pub const OP_SPAN_CAP: usize = 2000;
/// Device spans kept per traced run, over all `SpanDisk`s.
pub const DEV_SPAN_CAP: u64 = 16_000;

/// One timed interval. `parent` and `op_id` are span ids, 0 for none:
/// every span of one request carries the request span's id as `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    /// Span id of the operation this thread is executing (0 = none);
    /// set by the load loop, read by `SpanDisk` to parent its spans.
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
    /// Device time this thread has spent inside a `SpanDisk`, so a
    /// load loop can subtract exactly the device time on its own
    /// critical path (write-back workers keep their own tally).
    static THREAD_DEV_NS: Cell<u64> = const { Cell::new(0) };
}

/// Mark the operation the calling thread is inside.
pub fn set_current_op(id: u64) {
    CURRENT_OP.with(|c| c.set(id));
}

/// Device nanoseconds the calling thread has accumulated so far.
pub fn thread_dev_ns() -> u64 {
    THREAD_DEV_NS.with(Cell::get)
}

/// Where the spans of a traced run end up. Device spans are only kept
/// while `recording` is on (the timed phases), so set-up traffic does
/// not use up the cap.
pub struct Trace {
    pub epoch: Instant,
    recording: AtomicBool,
    /// Device spans kept so far, which also numbers them.
    dev_spans: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Arc<Trace> {
        Arc::new(Trace {
            epoch,
            recording: AtomicBool::new(false),
            dev_spans: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Relaxed);
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Totals of one `SpanDisk`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DevTotals {
    pub reads: u64,
    pub writes: u64,
    pub flushes: u64,
    /// Wall time inside the device, summed over all calling threads.
    pub busy_ns: u64,
}

/// A `BlockDevice` wrapper under the mount: counts and times every
/// request, attributes the time to the calling thread, and (up to
/// [`DEV_SPAN_CAP`] per run) records a span parented to the caller's
/// operation.
pub struct SpanDisk<D> {
    inner: D,
    trace: Arc<Trace>,
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    busy_ns: AtomicU64,
}

impl<D: BlockDevice> SpanDisk<D> {
    pub fn new(inner: D, trace: Arc<Trace>) -> SpanDisk<D> {
        SpanDisk {
            inner,
            trace,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    pub fn totals(&self) -> DevTotals {
        DevTotals {
            reads: self.reads.load(Relaxed),
            writes: self.writes.load(Relaxed),
            flushes: self.flushes.load(Relaxed),
            busy_ns: self.busy_ns.load(Relaxed),
        }
    }

    fn observe<T>(
        &self,
        name: &'static str,
        counter: &AtomicU64,
        f: impl FnOnce() -> FsResult<T>,
    ) -> FsResult<T> {
        let t0 = Instant::now();
        let result = f();
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        counter.fetch_add(1, Relaxed);
        self.busy_ns.fetch_add(ns, Relaxed);
        THREAD_DEV_NS.with(|c| c.set(c.get() + ns));
        let trace = &self.trace;
        if trace.recording.load(Relaxed) && trace.dev_spans.load(Relaxed) < DEV_SPAN_CAP {
            let n = trace.dev_spans.fetch_add(1, Relaxed);
            let op = CURRENT_OP.with(Cell::get);
            let start_ns = t0.saturating_duration_since(self.trace.epoch).as_nanos() as u64;
            self.trace.push(Span {
                id: (1 << 63) | n,
                parent: op,
                op_id: op,
                name,
                start_ns,
                end_ns: start_ns + ns,
            });
        }
        result
    }
}

impl<D: BlockDevice> BlockDevice for SpanDisk<D> {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
    fn read_block(&self, bno: u64, buf: &mut [u8]) -> FsResult<()> {
        self.observe("blockdev.read", &self.reads, || {
            self.inner.read_block(bno, buf)
        })
    }
    fn write_block(&self, bno: u64, buf: &[u8]) -> FsResult<()> {
        self.observe("blockdev.write", &self.writes, || {
            self.inner.write_block(bno, buf)
        })
    }
    fn flush(&self) -> FsResult<()> {
        self.observe("blockdev.flush", &self.flushes, || self.inner.flush())
    }
    fn set_phase(&self, phase: IoPhase) {
        self.inner.set_phase(phase);
    }
}

/// Per span name: `(spans, total self time in ns)`. A span's self time
/// is its duration minus the part of it its child spans cover (their
/// union, clipped to the parent). A device span recorded on another
/// thread has no parent here, so it is *not* subtracted from any
/// operation: only device time on the caller's own thread is.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += (s.end_ns - s.start_ns) - covered;
    }
    out
}

/// Render the trace file: the self-time summary, then every span.
pub fn render_trace(workload: &str, seed: u64, spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"self_ns\": {{");
    for (i, (name, (count, ns))) in self_times(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"spans\": {count}, \"self_ns\": {ns}}}"
        );
    }
    out.push_str("}, \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"op_id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            s.id, s.parent, s.op_id, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("]}\n");
    out
}
