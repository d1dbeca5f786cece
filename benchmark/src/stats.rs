//! Order statistics for reporting: medians over repetitions and
//! nearest-rank percentiles that are only reported when enough samples lie
//! beyond them to mean something.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts `values` ascending (measurements are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a median over no repetitions is a bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples: `⌈q·n⌉`, at
/// least 1.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty() && q > 0.0 && q <= 1.0);
    sorted[rank(sorted.len(), q) - 1]
}

/// Nearest-rank quantile, or `None` unless at least `min_beyond` samples
/// lie beyond its rank — a p99 over 200 samples rests on two of them and
/// is noise, so it is not reported.
pub fn tail_quantile(sorted: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), q);
    (sorted.len() - r >= min_beyond).then(|| sorted[r - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.001), 1.0);
        let five = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&five, 0.5), 30.0); // ⌈2.5⌉ = 3rd
        assert_eq!(quantile(&five, 0.2), 10.0);
        assert_eq!(quantile(&five, 0.21), 20.0);
    }

    #[test]
    fn tail_needs_enough_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, ten samples beyond — just enough.
        assert_eq!(tail_quantile(&v, 0.99, MIN_BEYOND), Some(990.0));
        // One sample fewer and only nine lie beyond rank ⌈0.99·999⌉ = 990.
        assert_eq!(tail_quantile(&v[..999], 0.99, MIN_BEYOND), None);
        assert_eq!(tail_quantile(&v[..999], 0.5, MIN_BEYOND), Some(500.0));
        assert_eq!(tail_quantile(&[], 0.5, 0), None);
        assert_eq!(tail_quantile(&v, 0.99, 50), None);
    }
}
