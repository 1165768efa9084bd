//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at rank `ceil(p/100 · n)` (1-based).
//! Every reported value is therefore a value that was actually measured,
//! and the number of samples strictly beyond it is `n − rank`.

/// The 1-based nearest rank of percentile `p` (in `(0, 100]`) among `n`
/// samples.
pub fn rank(n: usize, p: f64) -> usize {
    // The epsilon absorbs binary rounding of decimal percentiles
    // (99.9 · 10 000 / 100 is 9990.000000000002 in f64).
    ((p * n as f64 / 100.0 - 1e-7).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending-sorted sample, or `None` for
/// an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of `candidates` whose percentile leaves at least
/// `min_beyond` of `n` samples beyond it — the tail a sample of this size
/// can honestly report. `None` when even the lowest candidate cannot.
pub fn highest_supported(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= min_beyond)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Sorts a sample ascending (total order; NaNs last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (nearest rank) of an unsorted sample; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0).unwrap_or(0.0)
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` when the denominator is zero (a ratio over no
/// work is reported as none rather than as NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn quartiles_of_odd_and_even_samples() {
        let quartiles = |s: &[f64]| [25.0, 50.0, 75.0].map(|p| percentile(s, p).unwrap());
        let odd: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&odd), [2.0, 3.0, 4.0]);
        let even: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quartiles(&even), [2.0, 4.0, 6.0]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(1000, 90.0), 100);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond() {
        let ps = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported(10_000, &ps, 10), Some(99.9));
        assert_eq!(highest_supported(9_999, &ps, 10), Some(99.0));
        assert_eq!(highest_supported(1_000, &ps, 10), Some(99.0));
        assert_eq!(highest_supported(999, &ps, 10), Some(90.0));
        assert_eq!(highest_supported(100, &ps, 10), Some(90.0));
        assert_eq!(highest_supported(99, &ps, 10), Some(50.0));
        assert_eq!(highest_supported(19, &ps, 10), None);
    }

    #[test]
    fn ratios_over_no_work_are_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
