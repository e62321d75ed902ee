//! Percentiles with the sample-count rule, and the spread statistic the
//! acceptance check uses.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples
//! lie beyond it: p99 needs 1 000 samples, p90 needs 100, the median
//! needs 20. Below that the value is one or two outliers, not a
//! percentile.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Whether `n` samples support percentile `pct` (0 < pct < 100).
pub fn supported(n: usize, pct: f64) -> bool {
    // `100.0 - 99.9` is a hair under 0.1 in binary; the epsilon keeps
    // exactly ten samples beyond p99.9 of 10 000 supported.
    (n as f64) * (100.0 - pct) / 100.0 >= MIN_BEYOND as f64 - 1e-9
}

/// The `pct`-th percentile (nearest rank) of an ascending slice, or
/// `None` when too few samples lie beyond it.
pub fn percentile(sorted: &[u64], pct: f64) -> Option<u64> {
    if !supported(sorted.len(), pct) {
        return None;
    }
    Some(nearest_rank(sorted, pct))
}

fn nearest_rank(sorted: &[u64], pct: f64) -> u64 {
    // Minus an epsilon, for the same reason as in `supported`: 99.9 % of
    // 10 000 must be rank 9 990, not 9 990.000000000002 rounded up.
    let rank = ((pct / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of an ascending slice regardless of the sample-count rule
/// (mean of the two middle values for an even count). Used where a value
/// must be reported whatever `n` is; `n` is printed beside it.
pub fn median(sorted: &[u64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2] as f64,
        n => (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0,
    }
}

/// Median of unsorted floats.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(value, weight)` pairs' weighted median: the value at which the
/// cumulative weight, in value order, crosses half the total.
pub fn weighted_median(mut pairs: Vec<(f64, f64)>) -> f64 {
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let half = pairs.iter().map(|p| p.1).sum::<f64>() / 2.0;
    let mut seen = 0.0;
    for (value, weight) in &pairs {
        seen += weight;
        if seen >= half {
            return *value;
        }
    }
    0.0
}

/// The highest percentile of [`TAIL_LADDER`] the sample supports, with
/// its value; falls back to the maximum (reported as percentile 100)
/// when not even the median is supported.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    for pct in TAIL_LADDER {
        if let Some(v) = percentile(sorted, pct) {
            return (pct, v);
        }
    }
    (100.0, sorted.last().copied().unwrap_or(0))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) gives them — what the acceptance check
/// computes over ten runs.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(
            percentile(&v, 99.0),
            None,
            "999 samples leave 9.99 beyond p99"
        );
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99.0), Some(990));
        assert_eq!(percentile(&v, 50.0), Some(500));
        let v: Vec<u64> = (1..=19).collect();
        assert_eq!(percentile(&v, 50.0), None);
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 50.0), Some(10));
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&v), (99.9, 9990));
        let v: Vec<u64> = (1..=1500).collect();
        assert_eq!(tail(&v).0, 99.0);
        let v: Vec<u64> = (1..=150).collect();
        assert_eq!(tail(&v), (90.0, 135));
        let v: Vec<u64> = (1..=25).collect();
        assert_eq!(tail(&v).0, 50.0);
        let v: Vec<u64> = (1..=5).collect();
        assert_eq!(tail(&v), (100.0, 5));
    }

    #[test]
    fn weighted_median_is_where_half_the_weight_lies() {
        assert_eq!(
            weighted_median(vec![(3.0, 1.0), (1.0, 1.0), (2.0, 1.0)]),
            2.0
        );
        // A stalled slice holds few operations and does not move it.
        assert_eq!(
            weighted_median(vec![(0.1, 5.0), (9.0, 100.0), (10.0, 100.0), (11.0, 100.0)]),
            10.0
        );
        assert_eq!(weighted_median(Vec::new()), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 3.0, 4.5)));
        assert_eq!(iqr_over_median(&v), Some(1.0));
    }
}
