//! Order statistics over op latencies.
//!
//! Timings are reported as nearest-rank percentiles: the value is always
//! one of the samples, never an interpolation, so a reported p50 is an
//! op that actually ran.

/// Nearest-rank percentile of an ascending-sorted slice: the sample at
/// 1-based rank `⌈p/100 · n⌉`.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // The epsilon keeps 99.9% of 10 000 at rank 9990, not 9991.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// The conventional median (mean of the two middle samples for an even
/// count) — for medians over whole runs, where Python's
/// `statistics.median` is what the acceptance procedure computes.
pub fn median_interpolated(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Samples a tail percentile must leave beyond it before it is worth
/// reporting: with fewer, one slow op moves the number.
pub const MIN_BEYOND: usize = 10;

/// The highest of the usual tail percentiles that still has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even p75 does not
/// (fewer than 40 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// Interquartile range over the median — the run-to-run spread the
/// benchmark's bounds are judged against. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so `compare`
/// and the acceptance procedure compute the same number.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median_interpolated(&v);
    if med == 0.0 {
        0.0
    } else {
        ((q(3) - q(1)) / med).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        // Even count: the lower middle sample, not an average.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median_interpolated(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_interpolated(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: exactly ten beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        // p95 needs 200, p99 needs 1000.
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // p75 of 40 is rank 30; of 39 it is rank 30 too, nine beyond.
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
        assert_eq!(quartile_spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }
}
