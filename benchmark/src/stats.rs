//! The statistics every reported number goes through.
//!
//! All functions take their samples by value or sort a copy, so callers
//! keep insertion order (the calibrate mode splits runs into odd and
//! even sets by that order).

/// How many samples must lie beyond a reported percentile. With fewer,
/// the "percentile" is one or two outliers and does not repeat.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles a workload may report, highest first.
const TAIL_CANDIDATES: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` of
/// the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest candidate percentile that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or the median when even
/// p75 does not.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|p| {
            let rank = (p * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= MIN_BEYOND
        })
        .unwrap_or(0.5)
}

/// Geometric mean; every value must be positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Throughput from equal-work slices: the median of the per-slice
/// rates, so a host burst shorter than half the run cannot move it.
pub fn slice_throughput(slices: &[(usize, f64)]) -> f64 {
    median(&slices.iter().map(|&(ops, secs)| ops as f64 / secs).collect::<Vec<_>>())
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), because that is what the acceptance check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile distance as a share of the median — the spread the
/// acceptance check holds against each metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_samples_beyond() {
        // 1 600 pooled samples leave 16 beyond p99.
        assert_eq!(tail_percentile(1600), 0.99);
        // 1 000 samples leave exactly 10.
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(999), 0.95);
        // 48 samples: p90 leaves 4, p75 leaves 12.
        assert_eq!(tail_percentile(48), 0.75);
        assert_eq!(tail_percentile(12), 0.5);
    }

    #[test]
    fn geomean_weighs_every_type_the_same() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slice_throughput_ignores_a_burst_shorter_than_half_the_run() {
        let mut slices = vec![(100, 1.0); 7];
        let calm = slice_throughput(&slices);
        slices[1].1 = 1.5;
        slices[2].1 = 1.5;
        slices[3].1 = 1.4;
        assert_eq!(slice_throughput(&slices), calm);
        assert_eq!(calm, 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
