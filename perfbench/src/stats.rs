//! Order statistics shared by every metric: medians and the tail-percentile
//! rule.

/// Percentiles the tail rule may pick, highest last.
const TAIL_CANDIDATES: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// hundredths of a percent so that no float rounding moves it.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted samples.
/// `None` on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median (nearest rank, lower middle on even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] of `n`
/// samples strictly beyond it; falls back to the median when even the
/// 90th has too few.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// `(median, tail percentile, tail value)` of one sample set.
pub fn summarize(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let p = tail_percentile(samples.len());
    Some((median(samples)?, p, percentile(samples, p)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(100_000), 99.99);
        for n in [100, 1_000, 7_600, 28_000, 250_000] {
            let p = tail_percentile(n);
            assert!(n - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summary_reports_the_chosen_percentile() {
        let xs: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(summarize(&xs), Some((500.0, 99.0, 990.0)));
    }
}
