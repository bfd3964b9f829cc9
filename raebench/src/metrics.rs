//! The named metrics: one table for the end-to-end set, one for the
//! per-layer set. `BENCHMARK.json` repeats them (a unit test keeps the
//! two in step).

/// `(name, unit, better, bound)`: `bound` is the share of the parent's
/// median by which the metric may worsen before a change is a
/// regression. The driver wants one bound per metric, for all six
/// workloads, and every run-to-run spread under a third of it; so a
/// bound is three times the widest spread its metric showed on any
/// workload in any set of ten seeds, and no more than the 0.25 the
/// driver allows. The CPU-bound workloads set it: the sandbox's speed
/// drifts by 10-20 % over minutes. The README's baseline table has the
/// spread of every metric on every workload, which is what a claim
/// about one workload should be judged against.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_us", "us", "lower", 0.25),
    ("op_p99_us", "us", "lower", 0.25),
    ("unavail_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
];

/// `(name, unit, better)`; a layer is a crate, a name is
/// `<crate>.<metric>`. `bench.*` describes the harness itself.
pub const PER_LAYER: [(&str, &str, &str); 38] = [
    ("server.self_us_per_op", "us", "lower"),
    ("server.requests", "count", "higher"),
    ("server.refusals", "count", "lower"),
    ("rae.self_us_per_op", "us", "lower"),
    ("rae.log_len_at_fault", "count", "lower"),
    ("rae.recoveries", "count", "higher"),
    ("rae.ops_masked", "count", "higher"),
    ("rae.rung_warm", "count", "higher"),
    ("rae.rung_cold", "count", "lower"),
    ("rae.rung_cold_retry", "count", "lower"),
    ("rae.rung_degraded", "count", "lower"),
    ("rae.handoff_ms", "ms", "lower"),
    ("rae.unavail_p90_ms", "ms", "lower"),
    ("basefs.self_us_per_op", "us", "lower"),
    ("basefs.cache_hit_ratio", "ratio", "higher"),
    ("basefs.cache_evictions", "count", "lower"),
    ("basefs.dentry_hit_ratio", "ratio", "higher"),
    ("basefs.journal_commits", "count", "lower"),
    ("basefs.journal_checkpoints", "count", "lower"),
    ("basefs.commit_batch_mean", "count", "higher"),
    ("blockdev.reads", "count", "lower"),
    ("blockdev.writes", "count", "lower"),
    ("blockdev.flushes", "count", "lower"),
    ("blockdev.busy_us_per_op", "us", "lower"),
    ("blockdev.write_amp", "ratio", "lower"),
    ("shadowfs.load_ms", "ms", "lower"),
    ("shadowfs.replay_us_per_record", "us", "lower"),
    ("shadowfs.checks_per_record", "count", "lower"),
    ("standby.lag_max", "count", "lower"),
    ("standby.drained_at_handover", "count", "lower"),
    ("fsformat.mkfs_ms", "ms", "lower"),
    ("fsformat.fsck_ms", "ms", "lower"),
    ("fsformat.reboot_ms", "ms", "lower"),
    ("fsformat.journal_txns_replayed", "count", "lower"),
    ("bench.traced_ops", "count", "higher"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.harness_ns_per_op", "ns", "lower"),
    ("bench.durable_writes_verified", "count", "higher"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable diagnostics, printed above the result line.
    pub notes: Vec<String>,
    /// Everything that makes the run's outputs wrong; empty = correct.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Record an end-to-end metric (unit from [`END_TO_END`]).
    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))
            .1;
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a per-layer metric (unit from [`PER_LAYER`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .1;
        self.metrics.push(Metric { name, value, unit });
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result object the driver reads from the last line of stdout.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
