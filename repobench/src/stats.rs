//! Summary statistics with percentile discipline.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; the helpers return `None` for a tail the sample cannot
//! support instead of quietly reporting the maximum.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nearest-rank percentile `p` (in `(0, 100)`) of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    // 1-based nearest rank: the smallest rank covering p percent (the
    // epsilon keeps an exact product like 99.9% of 20 000 from rounding up).
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that `values` supports,
/// as `(p, value)`.
pub fn highest_tail(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find_map(|p| percentile(values, p).map(|v| (p, v)))
}

/// Largest value; `0.0` when empty.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.5));
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        // 199 samples: rank 190 leaves only 9 beyond it.
        assert_eq!(percentile(&ramp(199), 95.0), None);
        // 200 samples: rank 190 leaves exactly 10 beyond it.
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
    }

    #[test]
    fn p99_from_sixty_samples_is_refused() {
        assert_eq!(percentile(&ramp(60), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    }

    #[test]
    fn highest_tail_walks_down_the_ladder() {
        assert_eq!(highest_tail(&ramp(5)), None);
        assert_eq!(highest_tail(&ramp(40)), Some((75.0, 30.0)));
        assert_eq!(highest_tail(&ramp(250)), Some((95.0, 238.0)));
        assert_eq!(highest_tail(&ramp(20_000)), Some((99.9, 19_980.0)));
    }

    #[test]
    fn out_of_range_percentiles_are_refused() {
        assert_eq!(percentile(&ramp(500), 100.0), None);
        assert_eq!(percentile(&ramp(500), -1.0), None);
    }
}
