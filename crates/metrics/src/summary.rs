//! Numeric sample summaries.

use std::cell::OnceCell;

/// Index of the `q`-quantile (nearest-rank) in a sorted slice of `len > 0`
/// samples, `q ∈ [0, 1]` — the one definition every percentile in the repo
/// uses.
pub fn nearest_rank(len: usize, q: f64) -> usize {
    ((len as f64 - 1.0) * q).round() as usize
}

/// A summary of numeric samples: count, mean, min, max, percentiles.
///
/// Samples are retained (sorted lazily) so exact percentiles are available;
/// experiment batches are small enough (≤ 10⁶ samples) for this to be the
/// right trade-off. The sorted order is computed once on the first
/// [`quantile`](Self::quantile) call and cached until the next mutation, so
/// reading many percentiles of a finished batch sorts exactly once.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    samples: Vec<f64>,
    /// Sorted copy of `samples`, filled lazily by `quantile` and cleared by
    /// every mutation (`add` / `merge`). `OnceCell` keeps the type `Send`
    /// (batches are built inside worker threads and moved out by value).
    sorted: OnceCell<Vec<f64>>,
}

/// Equality is over the samples only — whether the sort cache happens to be
/// populated is not an observable property.
impl PartialEq for Summary {
    fn eq(&self, other: &Self) -> bool {
        self.samples == other.samples
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Adds one sample. Non-finite samples are rejected.
    ///
    /// # Panics
    ///
    /// Panics on NaN or infinite input — those indicate a harness bug, not
    /// data.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample {x}");
        self.samples.push(x);
        self.sorted.take();
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean; 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// The `q`-quantile (nearest-rank), `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        let sorted = self.sorted.get_or_init(|| {
            let mut sorted = self.samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            sorted
        });
        Some(sorted[nearest_rank(sorted.len(), q)])
    }

    /// Sample standard deviation; 0 with fewer than two samples.
    pub fn stddev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
            / (self.samples.len() - 1) as f64;
        var.sqrt()
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted.take();
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.add(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn basic_statistics() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.stddev() - 2.138).abs() < 0.01);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let s: Summary = (1..=100).map(f64::from).collect();
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.5), Some(51.0));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_is_rejected() {
        Summary::new().add(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_range_checked() {
        let s: Summary = [1.0].into_iter().collect();
        let _ = s.quantile(1.5);
    }

    #[test]
    fn quantile_cache_is_invalidated_by_add_and_merge() {
        let mut s: Summary = [3.0, 1.0, 2.0].into_iter().collect();
        assert_eq!(s.quantile(1.0), Some(3.0)); // populates the cache
        s.add(10.0);
        assert_eq!(s.quantile(1.0), Some(10.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        let other: Summary = [0.5].into_iter().collect();
        s.merge(&other);
        assert_eq!(s.quantile(0.0), Some(0.5));
    }

    #[test]
    fn clones_and_equality_ignore_cache_state() {
        let warm: Summary = [2.0, 1.0].into_iter().collect();
        let _ = warm.quantile(0.5);
        let cold: Summary = [2.0, 1.0].into_iter().collect();
        assert_eq!(warm, cold);
        let cloned = warm.clone();
        assert_eq!(cloned.quantile(0.5), Some(2.0));
        assert_eq!(cloned, warm);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a: Summary = [1.0, 2.0].into_iter().collect();
        let b: Summary = [3.0, 4.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean(), 2.5);
    }
}
