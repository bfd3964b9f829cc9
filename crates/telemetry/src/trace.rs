//! Trace context and per-op span attribution.
//!
//! A [`TraceCtx`] is minted at a request's entry point (the server
//! wire layer, the CLI shell, a load-generator client) and identifies
//! one logical request end to end. It is threaded *explicitly* across
//! the wire (an optional frame extension); inside the process a
//! per-thread *current-trace cell* is set only at the API boundary —
//! every flight-recorder event recorded while the cell is set carries
//! the trace id, so one request's cross-layer story can be filtered
//! back out of the ring (`timeline --trace <id>`).
//!
//! The [`SpanLayer`] accumulator answers the companion question:
//! *which layer ate the latency?* The RAE API boundary opens a span
//! (`span_begin`), instrumented layers add their elapsed nanoseconds
//! under a layer label as the op passes through them, and the boundary
//! collects the vector at completion (`span_take`). Nested layers
//! (device reads inside a cache fill, the whole journal commit inside
//! a commit stall) are kept non-overlapping by *exclusion*:
//! a layer measured via [`crate::Telemetry::layer_observed`] subtracts
//! whatever inner layers accumulated during its own window, so the
//! per-layer vector sums to (at most) the end-to-end latency and the
//! remainder is attributed to `other`.
//!
//! Everything here is thread-local: an op executes on one thread, and
//! threads that record telemetry outside an op (the standby apply
//! thread, background write-back) see an inactive span cell and pay
//! one TLS read.

use std::cell::Cell;

/// One request's identity on the wire and in the flight recorder.
///
/// `trace_id` 0 is reserved for "untraced"; mint non-zero ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Request identity, unique per entry point. Zero means untraced.
    pub trace_id: u64,
    /// Hop counter (incremented when a request fans out; the repo's
    /// single-hop topology keeps it 0 today, the wire carries it so
    /// multi-hop topologies need no format change).
    pub span: u8,
}

impl TraceCtx {
    /// A fresh root context for `trace_id`.
    #[must_use]
    pub fn new(trace_id: u64) -> TraceCtx {
        TraceCtx { trace_id, span: 0 }
    }
}

/// The attribution layers of one request, in stable code order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanLayer {
    /// Waiting to acquire the mutation's inode stripe locks.
    LockWait,
    /// An fsync, sync or autocommit from its entry to its return:
    /// waiting for the commit lock and the transaction lock, and the
    /// commit itself, minus the journal I/O.
    CommitStall,
    /// Journal descriptor/data/commit writes and barriers, minus the
    /// device time underneath.
    JournalIo,
    /// Page-cache miss fills, minus the device time underneath.
    CacheFill,
    /// Block-device reads, writes, and flushes.
    Device,
    /// End-to-end latency not covered by an instrumented layer
    /// (CPU, allocator, in-memory structure work). Computed as the
    /// remainder at op completion; nothing adds to it directly.
    Other,
}

/// Number of attribution layers.
pub const SPAN_LAYERS: usize = 6;

impl SpanLayer {
    /// All layers, in code order.
    pub const ALL: [SpanLayer; SPAN_LAYERS] = [
        SpanLayer::LockWait,
        SpanLayer::CommitStall,
        SpanLayer::JournalIo,
        SpanLayer::CacheFill,
        SpanLayer::Device,
        SpanLayer::Other,
    ];

    /// Stable code (index into [`SpanLayer::ALL`]).
    #[must_use]
    pub fn code(self) -> usize {
        Self::ALL.iter().position(|&l| l == self).unwrap_or(5)
    }

    /// Stable snake_case name (metric label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanLayer::LockWait => "lock_wait",
            SpanLayer::CommitStall => "commit_stall",
            SpanLayer::JournalIo => "journal_io",
            SpanLayer::CacheFill => "cache_fill",
            SpanLayer::Device => "device",
            SpanLayer::Other => "other",
        }
    }
}

#[derive(Clone, Copy)]
struct SpanState {
    active: bool,
    acc: [u64; SPAN_LAYERS],
}

thread_local! {
    static SPAN: Cell<SpanState> = const {
        Cell::new(SpanState { active: false, acc: [0; SPAN_LAYERS] })
    };
    static CUR_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// Open a fresh span on this thread (the RAE API boundary calls this
/// as an op starts; layer adds before the next `span_take` accumulate
/// into it).
pub fn span_begin() {
    SPAN.with(|s| {
        s.set(SpanState {
            active: true,
            acc: [0; SPAN_LAYERS],
        });
    });
}

/// Add `ns` under `layer` if a span is open (no-op otherwise — safe to
/// call from threads that never open spans).
pub fn span_add(layer: SpanLayer, ns: u64) {
    SPAN.with(|s| {
        let mut st = s.get();
        if st.active {
            st.acc[layer.code()] = st.acc[layer.code()].saturating_add(ns);
            s.set(st);
        }
    });
}

/// The open span's accumulated total across all layers (0 when no
/// span is open). Layer measurements snapshot this at their start so
/// they can exclude nested layers at their end.
#[must_use]
pub fn span_mark() -> u64 {
    SPAN.with(|s| {
        let st = s.get();
        if st.active {
            st.acc.iter().sum()
        } else {
            0
        }
    })
}

/// Close the span and return its per-layer vector, or `None` if no
/// span was open.
pub fn span_take() -> Option<[u64; SPAN_LAYERS]> {
    SPAN.with(|s| {
        let st = s.get();
        if st.active {
            s.set(SpanState {
                active: false,
                acc: [0; SPAN_LAYERS],
            });
            Some(st.acc)
        } else {
            None
        }
    })
}

/// Set this thread's current trace id; subsequent flight-recorder
/// events are stamped with it. Called at API boundaries only.
pub fn set_current_trace(trace_id: u64) {
    CUR_TRACE.with(|t| t.set(trace_id));
}

/// Clear this thread's current trace id.
pub fn clear_current_trace() {
    CUR_TRACE.with(|t| t.set(0));
}

/// This thread's current trace id (0 when untraced).
#[must_use]
pub fn current_trace() -> u64 {
    CUR_TRACE.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_accumulates_and_takes_once() {
        assert_eq!(span_take(), None, "no span open initially");
        span_begin();
        span_add(SpanLayer::Device, 100);
        span_add(SpanLayer::Device, 50);
        span_add(SpanLayer::CacheFill, 30);
        assert_eq!(span_mark(), 180);
        let acc = span_take().expect("span was open");
        assert_eq!(acc[SpanLayer::Device.code()], 150);
        assert_eq!(acc[SpanLayer::CacheFill.code()], 30);
        assert_eq!(acc[SpanLayer::Other.code()], 0);
        assert_eq!(span_take(), None, "take closes the span");
        span_add(SpanLayer::Device, 999); // must not panic or leak
        assert_eq!(span_mark(), 0);
    }

    #[test]
    fn layer_codes_are_dense_and_stable() {
        for (i, layer) in SpanLayer::ALL.iter().enumerate() {
            assert_eq!(layer.code(), i);
        }
        let names: Vec<&str> = SpanLayer::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(
            names,
            [
                "lock_wait",
                "commit_stall",
                "journal_io",
                "cache_fill",
                "device",
                "other"
            ]
        );
    }

    #[test]
    fn trace_cell_round_trips() {
        assert_eq!(current_trace(), 0);
        set_current_trace(42);
        assert_eq!(current_trace(), 42);
        clear_current_trace();
        assert_eq!(current_trace(), 0);
    }
}
