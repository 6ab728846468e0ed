//! Order statistics over raw samples.
//!
//! Quantiles are exact nearest-rank (`x[⌈qN⌉ - 1]` of the sorted samples):
//! no interpolation and no histogram bucketing, so a reported percentile is
//! always a latency that some call really had.

/// Samples a reported percentile must have strictly beyond it. A p90 from
/// 50 samples rests on 5 calls and moves with every stall; below this
/// count the percentile is not reported at all.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples (`⌈qn⌉`, at
/// least 1).
pub fn nearest_rank(q: f64, n: usize) -> usize {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile of already-sorted samples, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = nearest_rank(q, sorted.len());
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median (nearest-rank p50) of unsorted floats; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(0.5, v.len()) - 1]
}

/// Mean of integer samples (0 when empty).
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_ceil_qn() {
        assert_eq!(nearest_rank(0.5, 4), 2);
        assert_eq!(nearest_rank(0.5, 5), 3);
        assert_eq!(nearest_rank(0.9, 100), 90);
        assert_eq!(nearest_rank(0.99, 100), 99);
        assert_eq!(nearest_rank(0.0, 7), 1, "rank is at least 1");
        assert_eq!(nearest_rank(1.0, 7), 7);
    }

    #[test]
    fn quantile_returns_a_real_sample() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.5), Some(50));
        assert_eq!(quantile_sorted(&s, 0.9), Some(90));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let s: Vec<u64> = (1..=100).collect();
        // p90 of 100 leaves exactly 10 beyond: reported.
        assert_eq!(quantile_sorted(&s, 0.9), Some(90));
        // p91 leaves 9: withheld.
        assert_eq!(quantile_sorted(&s, 0.91), None);
        // p99 needs 1000 samples, p99.9 needs 10 000.
        assert_eq!(quantile_sorted(&s, 0.99), None);
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile_sorted(&big, 0.99), Some(990));
        let huge: Vec<u64> = (1..=10_000).collect();
        assert_eq!(quantile_sorted(&huge, 0.999), Some(9990));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0, "lower middle");
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1, 2, 3]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
