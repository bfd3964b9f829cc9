//! Order statistics: percentiles, the tail selector, quartiles as the
//! benchmark driver computes them.

/// Nearest-rank value at `num/den` of an ascending-sorted slice
/// (the same rule as `rae_workloads::percentile`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], num: u64, den: u64) -> T {
    let rank = (sorted.len() as u64 - 1) * num / den;
    sorted[rank as usize]
}

/// The highest of p90 / p99 / p99.9 / p99.99 that still has at least
/// ten samples beyond it, as `(label, num, den)`; `None` below 100
/// samples, where only the median is reported.
pub fn tail_percentile(samples: usize) -> Option<(&'static str, u64, u64)> {
    [
        ("p99.99", 9999, 10_000),
        ("p99.9", 999, 1000),
        ("p99", 99, 100),
        ("p90", 90, 100),
    ]
    .into_iter()
    .find(|&(_, num, den)| samples as u64 * (den - num) / den >= 10)
}

/// Median of an unsorted sample (mean of the middle two when even).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method), which is what the driver uses for
/// its spread check.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}
