//! Order statistics over latency samples.

/// Percentiles a tail may be reported at, lowest first, in per mille so the
/// ten-samples rule is exact integer arithmetic.
const TAIL_CANDIDATES_PER_MILLE: [u64; 4] = [500, 900, 990, 999];

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 100]`).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median (mean of the two middle samples for an even count); 0 for no samples,
/// which is what a layer that did no work reports.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The highest candidate percentile that still has at least ten samples beyond
/// it, or `None` when even the median has fewer.
pub fn highest_supported_percentile(n_samples: usize) -> Option<f64> {
    TAIL_CANDIDATES_PER_MILLE
        .iter()
        .rev()
        .find(|&&p| n_samples as u64 * (1000 - p) >= 10 * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// Whether `p` is backed by at least ten samples beyond it.
pub fn percentile_is_supported(n_samples: usize, p: f64) -> bool {
    highest_supported_percentile(n_samples).is_some_and(|best| best >= p)
}

/// A run is noisy when any round is more than 15 % off the median of its rounds.
pub fn rounds_are_noisy(rounds: &[f64]) -> bool {
    let mid = median(rounds);
    mid > 0.0 && rounds.iter().any(|r| (r - mid).abs() > 0.15 * mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_returns_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert!(percentile_is_supported(200, 90.0));
        assert!(!percentile_is_supported(200, 99.0));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 90.0), 90.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn noisy_flag_trips_beyond_fifteen_percent() {
        assert!(!rounds_are_noisy(&[100.0, 110.0, 95.0, 101.0, 99.0]));
        assert!(rounds_are_noisy(&[100.0, 120.0, 95.0, 101.0, 99.0]));
        assert!(!rounds_are_noisy(&[]));
    }
}
