//! Sample statistics: medians, percentiles and the tail percentile.

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// The median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has measured at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The nearest-rank `pct`-th percentile of a sorted slice, and the
/// number of samples strictly beyond its rank.
fn nearest_rank(sorted: &[f64], pct: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// The nearest-rank `pct`-th percentile of `samples`.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    nearest_rank(&sorted(samples), pct).0
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, as `(percentile, value)`; `None`
/// when even the median has fewer than that many samples above it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&pct| {
        let (value, beyond) = nearest_rank(&sorted, pct);
        (beyond >= MIN_BEYOND).then_some((pct, value))
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves one sample beyond; p99 leaves exactly ten.
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
        let n999: Vec<f64> = (1..=999).map(f64::from).collect();
        // ceil(0.99 * 999) = 990 leaves nine beyond: fall back to p95.
        assert_eq!(tail(&n999), Some((95.0, 950.0)));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        assert_eq!(
            tail(&[1.0; 19]),
            None,
            "19 samples leave 9 beyond the median"
        );
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_counts_samples_not_values() {
        // Order does not matter, and ties still count as samples beyond.
        let mut samples = vec![5.0; 990];
        samples.extend([9.0; 10]);
        samples.reverse();
        assert_eq!(tail(&samples), Some((99.0, 5.0)));
        assert_eq!(percentile(&samples, 100.0), 9.0);
    }
}
