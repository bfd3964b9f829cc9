//! Lock-free log-bucketed latency histograms (HDR-style).
//!
//! Values below 32 get exact unit buckets; every octave above that is
//! split into 32 sub-buckets, bounding relative error at 1/32 (~3 %)
//! across the full `u64` range with a fixed 1920-bucket table. Every
//! bucket is an `AtomicU64` bumped with a relaxed `fetch_add`, so
//! recording is wait-free, allocation-free, and safe from any thread.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Sub-bucket resolution: 2^5 = 32 sub-buckets per octave.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Total bucket count: 32 exact unit buckets plus 32 sub-buckets for
/// each of the 59 octaves covering `[32, u64::MAX]`.
pub const NUM_BUCKETS: usize = (SUB_COUNT as usize) * 60;

/// Map a value to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // position of the leading bit, >= SUB_BITS
        let sub = (v >> (exp - SUB_BITS)) & (SUB_COUNT - 1);
        (SUB_COUNT as usize) * (exp - SUB_BITS + 1) as usize + sub as usize
    }
}

/// Lower bound of the value range a bucket covers (the reported
/// quantile value; always <= every sample in the bucket).
fn bucket_value(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_COUNT {
        idx
    } else {
        let octave = idx / SUB_COUNT - 1;
        let sub = idx % SUB_COUNT;
        (SUB_COUNT + sub) << octave
    }
}

/// Pre-extracted summary of one histogram: totals plus the standard
/// quantile set, all in the recorded unit (nanoseconds everywhere in
/// this crate's users).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Events observed — exact, including events counted with
    /// [`LatencyHistogram::note`] but never timed.
    pub count: u64,
    /// Timed samples behind the quantiles (`== count` unless the caller
    /// samples its latency measurements).
    pub samples: u64,
    /// Sum of all timed samples (for the mean).
    pub sum: u64,
    /// Largest sample (exact, not bucketed).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl HistogramSummary {
    /// Mean timed-sample value, zero when empty.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.samples).unwrap_or(0)
    }
}

/// A concurrent latency histogram. `record` is wait-free; extraction
/// walks a relaxed snapshot of the bucket table.
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram (allocates the fixed bucket table once).
    #[must_use]
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one timed sample. Wait-free: three relaxed `fetch_add`s
    /// and a `fetch_max`.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Count an event without a timing sample — the hot-path half of
    /// sampled latency recording: the count stays exact while only a
    /// subset of events pays for two clock reads and a full `record`.
    pub fn note(&self) {
        self.count.fetch_add(1, Relaxed);
    }

    /// Record or note one observation, with a slow-op bypass: a sampled
    /// observation always lands in the buckets, and an *unsampled* one
    /// still lands (instead of being noted away) when it meets
    /// `slow_threshold_ns` — so a rare tail op can never be hidden by
    /// the 1-in-N sampler. A zero threshold disables the bypass.
    /// Returns whether the value was recorded into the buckets.
    pub fn observe(&self, ns: u64, sampled: bool, slow_threshold_ns: u64) -> bool {
        if sampled || (slow_threshold_ns > 0 && ns >= slow_threshold_ns) {
            self.record(ns);
            true
        } else {
            self.note();
            false
        }
    }

    /// Events observed so far (timed and noted).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Timed samples behind the buckets (`<= count`).
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// Sum of all samples recorded so far.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Largest sample recorded so far (exact).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Add every bucket of `other` into `self` (both may be live).
    pub fn merge(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Relaxed);
            if n > 0 {
                mine.fetch_add(n, Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Relaxed);
        self.sum.fetch_add(other.sum(), Relaxed);
        self.max.fetch_max(other.max(), Relaxed);
    }

    /// The value at quantile `q` in `[0, 1]`: the lower bound of the
    /// bucket holding the sample of rank `ceil(q * count)`. Zero when
    /// empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let snap: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        Self::quantile_of(&snap, q)
    }

    fn quantile_of(snap: &[u64], q: f64) -> u64 {
        let total: u64 = snap.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &n) in snap.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_value(idx);
            }
        }
        bucket_value(NUM_BUCKETS - 1)
    }

    /// Extract totals and the standard quantile set from one coherent
    /// bucket snapshot.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        let snap: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        HistogramSummary {
            count: self.count(),
            samples: snap.iter().sum(),
            sum: self.sum(),
            max: self.max(),
            p50: Self::quantile_of(&snap, 0.50),
            p90: Self::quantile_of(&snap, 0.90),
            p99: Self::quantile_of(&snap, 0.99),
            p999: Self::quantile_of(&snap, 0.999),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_bounds_error() {
        // bucket_value(bucket_index(v)) <= v, within 1/32 relative error
        for shift in 0..63 {
            for off in [0u64, 1, 3, 7] {
                let v = (1u64 << shift) + off;
                let lo = bucket_value(bucket_index(v));
                assert!(lo <= v, "v={v} lo={lo}");
                assert!(
                    (v - lo) as f64 <= v as f64 / 32.0 + 1.0,
                    "v={v} lo={lo}: error too large"
                );
            }
        }
    }

    #[test]
    fn buckets_are_monotone_and_contiguous() {
        for idx in 1..NUM_BUCKETS {
            assert!(bucket_value(idx) > bucket_value(idx - 1));
            // the lower bound of bucket idx maps back into bucket idx
            assert_eq!(bucket_index(bucket_value(idx)), idx);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn exact_range_is_exact() {
        let h = LatencyHistogram::new();
        for v in 0..32 {
            h.record(v);
        }
        for v in 0..32u64 {
            let q = (v + 1) as f64 / 32.0;
            assert_eq!(h.quantile(q), v);
        }
    }

    #[test]
    fn slow_op_bypasses_the_sampler() {
        // Regression: a single 10 ms op among 10k fast unsampled ops
        // must always land in the buckets — the 1-in-16 sampler alone
        // would note it away with probability 15/16.
        let h = LatencyHistogram::new();
        let threshold = 1_000_000; // 1 ms
        for _ in 0..10_000 {
            assert!(!h.observe(500, false, threshold), "fast unsampled: noted");
        }
        assert!(
            h.observe(10_000_000, false, threshold),
            "slow op recorded despite being unsampled"
        );
        let s = h.summary();
        assert_eq!(s.count, 10_001, "every op counted");
        assert_eq!(s.samples, 1, "only the slow op carries a sample");
        assert_eq!(s.max, 10_000_000);
        assert!(s.p999 >= 9_000_000, "tail quantile reflects the slow op");
    }

    #[test]
    fn observe_honors_sampling_and_zero_threshold() {
        let h = LatencyHistogram::new();
        assert!(h.observe(100, true, 0), "sampled always records");
        assert!(!h.observe(u64::MAX, false, 0), "zero threshold disables");
        assert_eq!(h.count(), 2);
        assert_eq!(h.samples(), 1);
    }

    #[test]
    fn merge_adds_counts() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(10);
        b.record(1000);
        b.record(2000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 3010);
        assert_eq!(a.max(), 2000);
    }
}
