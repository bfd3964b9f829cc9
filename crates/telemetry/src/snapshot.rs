//! Exportable point-in-time telemetry state: JSON for machines, a
//! histogram table for the CLI `top` command.

use crate::hist::HistogramSummary;
use std::fmt::Write as _;

/// Everything the telemetry handle knows, frozen at one instant.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Whether recording was on when the snapshot was taken.
    pub enabled: bool,
    /// Per-op-class API-boundary latency summaries, in class order.
    pub ops: Vec<(&'static str, HistogramSummary)>,
    /// Per device-op/phase latency summaries (`"read/normal"`, …), one
    /// sample per request.
    pub device: Vec<(String, HistogramSummary)>,
    /// Journal commit durations.
    pub journal_commit: HistogramSummary,
    /// Page-cache miss fill durations.
    pub cache_fill: HistogramSummary,
    /// Per-mutation journal-commit stall durations (time spent leading
    /// or parked behind a group commit).
    pub commit_stall: HistogramSummary,
    /// Group-commit batch sizes (raw op counts, not nanoseconds).
    pub commit_batch: HistogramSummary,
    /// Stripe-lock wait durations.
    pub lock_wait: HistogramSummary,
    /// Per-layer latency attribution, in [`crate::SpanLayer`] order:
    /// for each completed op whose end-to-end latency was recorded, the
    /// nanoseconds each layer contributed (the `other` row is the
    /// remainder, so the rows sum to the end-to-end sums).
    pub attribution: Vec<(&'static str, HistogramSummary)>,
    /// Flight-recorder events ever recorded.
    pub events_recorded: u64,
    /// Flight-recorder events lost to wraparound.
    pub events_dropped: u64,
}

fn summary_json(s: &HistogramSummary) -> String {
    format!(
        "{{\"count\": {}, \"samples\": {}, \"mean_ns\": {}, \"max_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}",
        s.count,
        s.samples,
        s.mean(),
        s.max,
        s.p50,
        s.p90,
        s.p99,
        s.p999
    )
}

impl TelemetrySnapshot {
    /// Serialize the snapshot as JSON (hand-rolled; the vendor tree has
    /// no real serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"enabled\": {},", self.enabled);
        json.push_str("  \"ops\": {\n");
        for (i, (name, s)) in self.ops.iter().enumerate() {
            let comma = if i + 1 < self.ops.len() { "," } else { "" };
            let _ = writeln!(json, "    \"{name}\": {}{comma}", summary_json(s));
        }
        json.push_str("  },\n  \"device\": {\n");
        for (i, (name, s)) in self.device.iter().enumerate() {
            let comma = if i + 1 < self.device.len() { "," } else { "" };
            let _ = writeln!(json, "    \"{name}\": {}{comma}", summary_json(s));
        }
        json.push_str("  },\n");
        let _ = writeln!(
            json,
            "  \"journal_commit\": {},",
            summary_json(&self.journal_commit)
        );
        let _ = writeln!(
            json,
            "  \"cache_fill\": {},",
            summary_json(&self.cache_fill)
        );
        let _ = writeln!(
            json,
            "  \"commit_stall\": {},",
            summary_json(&self.commit_stall)
        );
        let _ = writeln!(
            json,
            "  \"commit_batch\": {},",
            summary_json(&self.commit_batch)
        );
        let _ = writeln!(json, "  \"lock_wait\": {},", summary_json(&self.lock_wait));
        json.push_str("  \"attribution\": {\n");
        for (i, (name, s)) in self.attribution.iter().enumerate() {
            let comma = if i + 1 < self.attribution.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(json, "    \"{name}\": {}{comma}", summary_json(s));
        }
        json.push_str("  },\n");
        let _ = writeln!(
            json,
            "  \"events\": {{\"recorded\": {}, \"dropped\": {}}}",
            self.events_recorded, self.events_dropped
        );
        json.push_str("}\n");
        json
    }

    /// Render the histogram tables as the `top`-style text view. Rows
    /// with no samples are elided.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "telemetry {} — {} event(s) recorded, {} dropped\n{:<18} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            if self.enabled { "on" } else { "off" },
            self.events_recorded,
            self.events_dropped,
            "class",
            "count",
            "mean_us",
            "p50_us",
            "p99_us",
            "p999_us",
            "max_us"
        );
        let us = |ns: u64| ns as f64 / 1e3;
        let mut row = |label: &str, s: &HistogramSummary| {
            if s.count == 0 {
                return;
            }
            let _ = writeln!(
                out,
                "{:<18} {:>9} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                label,
                s.count,
                us(s.mean()),
                us(s.p50),
                us(s.p99),
                us(s.p999),
                us(s.max)
            );
        };
        for (name, s) in &self.ops {
            row(&format!("op/{name}"), s);
        }
        for (name, s) in &self.device {
            row(&format!("dev/{name}"), s);
        }
        row("journal_commit", &self.journal_commit);
        row("cache_fill", &self.cache_fill);
        row("commit_stall", &self.commit_stall);
        row("lock_wait", &self.lock_wait);
        for (name, s) in &self.attribution {
            row(&format!("attr/{name}"), s);
        }
        // Batch sizes are raw counts, not latencies — render without
        // the ns→µs conversion the shared row closure applies.
        if self.commit_batch.count > 0 {
            let s = &self.commit_batch;
            let _ = writeln!(
                out,
                "{:<18} {:>9} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}   (ops/commit, raw)",
                "commit_batch",
                s.count,
                s.mean() as f64,
                s.p50 as f64,
                s.p99 as f64,
                s.p999 as f64,
                s.max as f64
            );
        }
        if out.lines().count() == 2 {
            out.push_str("(no samples recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{DevOp, EventKind, OpClass, Telemetry};

    #[test]
    fn json_is_well_formed_enough() {
        let t = Telemetry::new();
        t.record_op_ns(OpClass::Read, 1_500);
        t.record_dev_ns(DevOp::Read, false, 800);
        t.event(EventKind::Degraded, 0, 0, 0);
        let json = t.snapshot().to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        assert!(json.contains("\"read\": {\"count\": 1"), "{json}");
        assert!(json.contains("\"recorded\": 1"), "{json}");
    }

    #[test]
    fn table_elides_empty_rows() {
        let t = Telemetry::new();
        t.record_op_ns(OpClass::Stat, 2_000);
        let table = t.snapshot().render_table();
        assert!(table.contains("op/stat"), "{table}");
        assert!(!table.contains("op/fsync"), "{table}");
    }
}
