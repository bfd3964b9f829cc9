//! The flight-recorder event vocabulary.
//!
//! Events are recorded as seven `u64` words (see [`crate::ring`]); this
//! module gives the words meaning: an [`EventKind`] code plus three
//! kind-specific payload words, and the decoding/rendering used by the
//! post-incident timeline.

use crate::ring::RawEvent;
use std::fmt::Write as _;

/// What happened. Payload word meaning per kind:
///
/// | kind | `a` | `b` | `c` |
/// |---|---|---|---|
/// | `FaultInjected` | fault class (see [`fault_class_name`]) | block number | phase (0 normal, 1 recovery) |
/// | `ErrorDetected` | op class code | errno | 0 |
/// | `PanicCaught` | op class code | 0 | 0 |
/// | `RecoveryStarted` | trigger (see [`trigger_name`]) | retained log length | 0 |
/// | `RungEntered` | rung code (see [`rung_name`]) | 0 | 0 |
/// | `RungFailed` | rung code | duration ns | 0 |
/// | `RecoveryDone` | final rung code | duration ns | records replayed |
/// | `StandbyLag` | lag high-water (records) | completed seq | 0 |
/// | `Degraded` | 0 | 0 | 0 |
/// | `Offline` | 0 | 0 | 0 |
/// | `RetryAbsorbed` | attempts used | device op (0 r, 1 w, 2 flush) | 0 |
/// | `RetryExhausted` | attempts used | device op | 0 |
/// | `CacheEvictStale` | block number | shard index | 0 |
/// | `ClientConnected` | connection id | 0 | 0 |
/// | `ClientDisconnected` | connection id | requests served | 0 |
/// | `QuotaExceeded` | volume id | op class code | 0 |
/// | `VolumeMounted` | volume id | 0 | 0 |
/// | `VolumeUnmounted` | volume id | clean (1) / dirty (0) | 0 |
/// | `ServerShutdown` | connections drained | volumes unmounted | 0 |
/// | `ConnAccepted` | connection id | queued for worker (1) / refused (0) | 0 |
/// | `ConnClosed` | requests served | close reason (0 eof, 1 transport error, 2 shutdown, 3 bad frame) | 0 |
/// | `QuotaRefused` | volume id | ops used | bytes used |
/// | `ShutdownBegin` | source (0 admin op, 1 signal/local) | 0 | 0 |
/// | `SlowOp` | op class code | duration ns | timing (1 sampled, 0 deep-layer lower bound) |
/// | `ReadsServedInRecovery` | reads the drained standby's fork answered | 0 | 0 |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A device-level fault fired (injected by the fault harness).
    FaultInjected,
    /// The RAE boundary saw a runtime error come back from the base.
    ErrorDetected,
    /// The RAE boundary caught a panic unwinding out of the base.
    PanicCaught,
    /// Recovery began.
    RecoveryStarted,
    /// A ladder rung was entered.
    RungEntered,
    /// A ladder rung failed (recovery demoted to the next rung).
    RungFailed,
    /// Recovery reached a terminal state.
    RecoveryDone,
    /// The standby apply-loop lag reached a new high-water mark.
    StandbyLag,
    /// The mount entered read-only degraded mode.
    Degraded,
    /// The mount went offline.
    Offline,
    /// The retrying device absorbed a transient fault.
    RetryAbsorbed,
    /// The retrying device exhausted its budget.
    RetryExhausted,
    /// The page cache evicted a page whose home location was stale.
    CacheEvictStale,
    /// A network client connected to the storage server.
    ClientConnected,
    /// A network client disconnected (or was dropped).
    ClientDisconnected,
    /// A request was refused because the tenant exceeded its quota.
    QuotaExceeded,
    /// The volume manager mounted a volume.
    VolumeMounted,
    /// The volume manager unmounted a volume.
    VolumeUnmounted,
    /// The server completed a graceful shutdown.
    ServerShutdown,
    /// The accept loop took a connection off the listener (before any
    /// worker picked it up — pairs with `ConnClosed`).
    ConnAccepted,
    /// A connection's request loop ended, with its close reason.
    ConnClosed,
    /// The server refused a request over quota, with the tenant's
    /// budget position (richer server-layer companion to
    /// `QuotaExceeded`).
    QuotaRefused,
    /// Graceful shutdown was requested (drain begins; `ServerShutdown`
    /// marks its completion).
    ShutdownBegin,
    /// An op exceeded the slow-op threshold (always recorded, sampler
    /// bypassed).
    SlowOp,
    /// A recovery is filed: how many reads the drained standby's fork
    /// answered while it held the gate (one event per recovery, not
    /// one per read).
    ReadsServedInRecovery,
}

impl EventKind {
    /// All kinds, in code order.
    pub const ALL: [EventKind; 25] = [
        EventKind::FaultInjected,
        EventKind::ErrorDetected,
        EventKind::PanicCaught,
        EventKind::RecoveryStarted,
        EventKind::RungEntered,
        EventKind::RungFailed,
        EventKind::RecoveryDone,
        EventKind::StandbyLag,
        EventKind::Degraded,
        EventKind::Offline,
        EventKind::RetryAbsorbed,
        EventKind::RetryExhausted,
        EventKind::CacheEvictStale,
        EventKind::ClientConnected,
        EventKind::ClientDisconnected,
        EventKind::QuotaExceeded,
        EventKind::VolumeMounted,
        EventKind::VolumeUnmounted,
        EventKind::ServerShutdown,
        EventKind::ConnAccepted,
        EventKind::ConnClosed,
        EventKind::QuotaRefused,
        EventKind::ShutdownBegin,
        EventKind::SlowOp,
        EventKind::ReadsServedInRecovery,
    ];

    /// Stable wire code.
    #[must_use]
    pub fn code(self) -> u64 {
        Self::ALL.iter().position(|&k| k == self).unwrap_or(0) as u64
    }

    /// Decode a wire code (`None` for unknown codes, e.g. from a
    /// torn-then-accepted slot — callers skip those).
    #[must_use]
    pub fn from_code(code: u64) -> Option<EventKind> {
        Self::ALL.get(code as usize).copied()
    }

    /// Stable snake-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::FaultInjected => "fault_injected",
            EventKind::ErrorDetected => "error_detected",
            EventKind::PanicCaught => "panic_caught",
            EventKind::RecoveryStarted => "recovery_started",
            EventKind::RungEntered => "rung_entered",
            EventKind::RungFailed => "rung_failed",
            EventKind::RecoveryDone => "recovery_done",
            EventKind::StandbyLag => "standby_lag",
            EventKind::Degraded => "degraded",
            EventKind::Offline => "offline",
            EventKind::RetryAbsorbed => "retry_absorbed",
            EventKind::RetryExhausted => "retry_exhausted",
            EventKind::CacheEvictStale => "cache_evict_stale",
            EventKind::ClientConnected => "client_connected",
            EventKind::ClientDisconnected => "client_disconnected",
            EventKind::QuotaExceeded => "quota_exceeded",
            EventKind::VolumeMounted => "volume_mounted",
            EventKind::VolumeUnmounted => "volume_unmounted",
            EventKind::ServerShutdown => "server_shutdown",
            EventKind::ConnAccepted => "conn_accepted",
            EventKind::ConnClosed => "conn_closed",
            EventKind::QuotaRefused => "quota_refused",
            EventKind::ShutdownBegin => "shutdown_begin",
            EventKind::SlowOp => "slow_op",
            EventKind::ReadsServedInRecovery => "reads_served_in_recovery",
        }
    }
}

/// Ladder rung wire codes (shared with the core's `LadderRung` order).
#[must_use]
pub fn rung_name(code: u64) -> &'static str {
    match code {
        0 => "warm",
        1 => "cold",
        2 => "cold_retry",
        3 => "degraded",
        4 => "offline",
        _ => "?",
    }
}

/// Recovery trigger wire codes.
#[must_use]
pub fn trigger_name(code: u64) -> &'static str {
    match code {
        0 => "detected_error",
        1 => "caught_panic",
        2 => "warn_policy",
        _ => "?",
    }
}

/// Device-level fault class wire codes (from the faulty-disk wrapper).
#[must_use]
pub fn fault_class_name(code: u64) -> &'static str {
    match code {
        0 => "read_fail",
        1 => "write_fail",
        2 => "flush_fail",
        3 => "corrupt_read",
        _ => "?",
    }
}

/// Device op wire codes (for retry and I/O-latency events).
#[must_use]
pub fn dev_op_name(code: u64) -> &'static str {
    match code {
        0 => "read",
        1 => "write",
        2 => "flush",
        _ => "?",
    }
}

/// A decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Record-time ticket (total order across all events).
    pub ticket: u64,
    /// Nanoseconds since the telemetry anchor (monotonic).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (kind-specific, see [`EventKind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
    /// Trace id of the request that recorded the event (0 = untraced).
    pub trace_id: u64,
}

impl Event {
    /// Decode a raw ring entry (`None` for unknown kind codes).
    #[must_use]
    pub fn decode(raw: &RawEvent) -> Option<Event> {
        Some(Event {
            ticket: raw.ticket,
            ts_ns: raw.ts_ns,
            kind: EventKind::from_code(raw.code)?,
            a: raw.a,
            b: raw.b,
            c: raw.c,
            trace_id: raw.trace,
        })
    }

    /// One human line describing the event (without the timestamp).
    #[must_use]
    pub fn describe(&self) -> String {
        let (a, b, c) = (self.a, self.b, self.c);
        match self.kind {
            EventKind::FaultInjected => format!(
                "fault injected: {} block={} phase={}",
                fault_class_name(a),
                b,
                if c == 1 { "recovery" } else { "normal" }
            ),
            EventKind::ErrorDetected => {
                format!(
                    "error detected: op={} errno={b}",
                    crate::OpClass::name_of(a)
                )
            }
            EventKind::PanicCaught => {
                format!("panic caught: op={}", crate::OpClass::name_of(a))
            }
            EventKind::RecoveryStarted => {
                format!("recovery started: trigger={} log_len={b}", trigger_name(a))
            }
            EventKind::RungEntered => format!("rung entered: {}", rung_name(a)),
            EventKind::RungFailed => format!(
                "rung failed: {} after {:.2}ms",
                rung_name(a),
                b as f64 / 1e6
            ),
            EventKind::RecoveryDone => format!(
                "recovery done: rung={} total={:.2}ms replayed={c}",
                rung_name(a),
                b as f64 / 1e6
            ),
            EventKind::StandbyLag => format!("standby lag high-water: {a} (completed_seq={b})"),
            EventKind::Degraded => "entered read-only degraded mode".to_string(),
            EventKind::Offline => "went offline".to_string(),
            EventKind::RetryAbsorbed => format!(
                "transient fault absorbed: {} after {a} attempts",
                dev_op_name(b)
            ),
            EventKind::RetryExhausted => format!(
                "retry budget exhausted: {} after {a} attempts",
                dev_op_name(b)
            ),
            EventKind::CacheEvictStale => {
                format!("cache evicted stale-at-home page: block={a} shard={b}")
            }
            EventKind::ClientConnected => format!("client connected: conn={a}"),
            EventKind::ClientDisconnected => {
                format!("client disconnected: conn={a} requests={b}")
            }
            EventKind::QuotaExceeded => format!(
                "quota exceeded: volume={a} op={}",
                crate::OpClass::name_of(b)
            ),
            EventKind::VolumeMounted => format!("volume mounted: volume={a}"),
            EventKind::VolumeUnmounted => format!(
                "volume unmounted: volume={a} ({})",
                if b == 1 { "clean" } else { "dirty" }
            ),
            EventKind::ServerShutdown => {
                format!("server shut down: drained {a} connection(s), unmounted {b} volume(s)")
            }
            EventKind::ConnAccepted => format!(
                "connection accepted: conn={a}{}",
                if b == 0 { " (refused at the door)" } else { "" }
            ),
            EventKind::ConnClosed => format!(
                "connection closed: requests={a} reason={}",
                match b {
                    0 => "eof",
                    1 => "transport_error",
                    2 => "shutdown",
                    3 => "bad_frame",
                    _ => "?",
                }
            ),
            EventKind::QuotaRefused => {
                format!("quota refused: volume={a} ops_used={b} bytes_used={c}")
            }
            EventKind::ShutdownBegin => format!(
                "shutdown begun: source={}",
                if a == 0 { "admin_op" } else { "local" }
            ),
            EventKind::SlowOp => format!(
                "slow op: {} took {:.2}ms ({})",
                crate::OpClass::name_of(a),
                b as f64 / 1e6,
                if c == 1 {
                    "timed"
                } else {
                    "deep-layer lower bound"
                }
            ),
            EventKind::ReadsServedInRecovery => {
                format!("reads served from the standby's fork: {a}")
            }
        }
    }
}

/// Render a drained timeline, focused on the last incident: output
/// starts a few events before the last recovery trigger (fault, error,
/// or panic preceding the last `RecoveryStarted`) when one exists,
/// otherwise shows everything retained. Timestamps are relative to the
/// first rendered event.
#[must_use]
pub fn render_timeline(events: &[Event], dropped: u64) -> String {
    if events.is_empty() {
        return "flight recorder empty\n".to_string();
    }
    let last_start = events
        .iter()
        .rposition(|e| e.kind == EventKind::RecoveryStarted);
    let from = last_start.map_or(0, |idx| {
        // back up to the trigger evidence just before the recovery
        events[..idx]
            .iter()
            .rposition(|e| {
                !matches!(
                    e.kind,
                    EventKind::FaultInjected
                        | EventKind::ErrorDetected
                        | EventKind::PanicCaught
                        | EventKind::RetryAbsorbed
                )
            })
            .map_or(0, |boundary| boundary + 1)
    });
    let window = &events[from..];
    let t0 = window[0].ts_ns;
    let mut out = format!(
        "flight recorder: {} event(s){}{}\n",
        window.len(),
        if from > 0 {
            format!(" (showing last incident; {from} earlier retained)")
        } else {
            String::new()
        },
        if dropped > 0 {
            format!(", {dropped} lost to wraparound")
        } else {
            String::new()
        },
    );
    for e in window {
        let _ = writeln!(
            out,
            "{:>12.3}ms  {}",
            (e.ts_ns - t0) as f64 / 1e6,
            e.describe()
        );
    }
    out
}

/// Render one request's cross-layer story: every retained event
/// stamped with `trace_id`, in recording order, timestamps relative to
/// the request's first event. Unlike [`render_timeline`] this never
/// narrows to an incident — a trace *is* the narrowing.
#[must_use]
pub fn render_trace_timeline(events: &[Event], dropped: u64, trace_id: u64) -> String {
    let window: Vec<&Event> = events.iter().filter(|e| e.trace_id == trace_id).collect();
    if window.is_empty() {
        return format!(
            "no retained events for trace {trace_id}{}\n",
            if dropped > 0 {
                format!(" ({dropped} lost to wraparound)")
            } else {
                String::new()
            }
        );
    }
    let t0 = window[0].ts_ns;
    let mut out = format!("trace {trace_id}: {} event(s)\n", window.len());
    for e in window {
        let _ = writeln!(
            out,
            "{:>12.3}ms  {}",
            (e.ts_ns - t0) as f64 / 1e6,
            e.describe()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(EventKind::from_code(999), None);
    }

    #[test]
    fn server_layer_codes_are_appended_not_renumbered() {
        // the ring stores codes, not names: a code is the kind's
        // position in `ALL`, and the server layer's kinds come last
        assert_eq!(EventKind::ServerShutdown.code(), 18);
        assert_eq!(EventKind::ConnAccepted.code(), 19);
        assert_eq!(EventKind::ConnClosed.code(), 20);
        assert_eq!(EventKind::QuotaRefused.code(), 21);
        assert_eq!(EventKind::ShutdownBegin.code(), 22);
        assert_eq!(EventKind::SlowOp.code(), 23);
        assert_eq!(EventKind::ReadsServedInRecovery.code(), 24);
    }

    #[test]
    fn server_layer_event_schemas_render() {
        let mk = |kind, a, b, c| Event {
            ticket: 0,
            ts_ns: 0,
            kind,
            a,
            b,
            c,
            trace_id: 0,
        };
        let cases = [
            (mk(EventKind::ConnAccepted, 7, 1, 0), vec!["conn=7"]),
            (
                mk(EventKind::ConnClosed, 12, 2, 0),
                vec!["requests=12", "reason=shutdown"],
            ),
            (
                mk(EventKind::QuotaRefused, 3, 100, 4096),
                vec!["volume=3", "ops_used=100", "bytes_used=4096"],
            ),
            (mk(EventKind::ShutdownBegin, 0, 0, 0), vec!["admin_op"]),
            (
                mk(EventKind::SlowOp, 0, 12_000_000, 1),
                vec!["slow op: read", "12.00ms", "timed"],
            ),
        ];
        for (event, needles) in cases {
            let line = event.describe();
            for needle in needles {
                assert!(line.contains(needle), "{:?}: {line}", event.kind);
            }
        }
    }

    #[test]
    fn trace_timeline_filters_by_trace_id() {
        let mk = |ticket: u64, ts: u64, kind: EventKind, trace_id: u64| Event {
            ticket,
            ts_ns: ts,
            kind,
            a: 1,
            b: 0,
            c: 0,
            trace_id,
        };
        let events = vec![
            mk(0, 0, EventKind::ErrorDetected, 5),
            mk(1, 10, EventKind::RecoveryStarted, 5),
            mk(2, 20, EventKind::StandbyLag, 0),
            mk(3, 30, EventKind::RecoveryDone, 5),
            mk(4, 40, EventKind::ErrorDetected, 9),
        ];
        let out = render_trace_timeline(&events, 0, 5);
        assert!(out.contains("trace 5: 3 event(s)"), "{out}");
        assert!(out.contains("recovery done"), "{out}");
        assert!(!out.contains("standby lag"), "{out}");
        let missing = render_trace_timeline(&events, 2, 123);
        assert!(missing.contains("no retained events"), "{missing}");
    }

    #[test]
    fn timeline_focuses_on_last_incident() {
        let mk = |ticket: u64, ts: u64, kind: EventKind| Event {
            ticket,
            ts_ns: ts,
            kind,
            a: 1,
            b: 0,
            c: 0,
            trace_id: 0,
        };
        let events = vec![
            mk(0, 0, EventKind::StandbyLag),
            mk(1, 10, EventKind::FaultInjected),
            mk(2, 20, EventKind::RecoveryStarted),
            mk(3, 30, EventKind::RecoveryDone),
        ];
        let out = render_timeline(&events, 0);
        assert!(out.contains("fault injected"), "{out}");
        assert!(out.contains("recovery started"), "{out}");
        assert!(!out.contains("standby lag"), "{out}");
        assert!(out.contains("1 earlier retained"), "{out}");
    }
}
