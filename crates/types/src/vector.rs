//! Input vectors: the `n`-tuple of proposed values (§2.3).

use crate::view::View;
use crate::{ProcessId, Value};
use core::fmt;
use core::ops::Index;

/// An input vector `I ∈ V^n`: entry `i` holds the value proposed by `p_i`.
///
/// For Byzantine processes the entry is "meaningless" per the paper (a faulty
/// process may propose different values to different peers); in simulations
/// we store the value the adversary's *plan* nominally assigns, and the
/// adversary layer is free to equivocate on the wire.
///
/// # Examples
///
/// ```
/// use dex_types::InputVector;
/// let input = InputVector::new(vec![1u64, 1, 1, 2, 1, 1, 1]);
/// assert_eq!(input.n(), 7);
/// assert_eq!(input.count_of(&1), 6);
/// let full_view = input.to_view();
/// assert_eq!(full_view.len_non_default(), 7);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct InputVector<V> {
    entries: Vec<V>,
}

impl<V: Value> InputVector<V> {
    /// Creates an input vector from the proposals of `p_0 … p_{n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty — an input vector for zero processes is
    /// meaningless.
    pub fn new(entries: Vec<V>) -> Self {
        assert!(!entries.is_empty(), "input vector must be non-empty");
        InputVector { entries }
    }

    /// Creates the unanimous vector `(v, v, …, v)` of length `n`.
    pub fn unanimous(n: usize, v: V) -> Self {
        InputVector::new(vec![v; n])
    }

    /// The number of processes `n`.
    pub fn n(&self) -> usize {
        self.entries.len()
    }

    /// The value proposed by `p_i`.
    pub fn get(&self, id: ProcessId) -> &V {
        &self.entries[id.index()]
    }

    /// The number of occurrences of `v` in the vector (`#_v(I)`).
    pub fn count_of(&self, v: &V) -> usize {
        self.entries.iter().filter(|e| *e == v).count()
    }

    /// Converts to a complete view (no `⊥` entries).
    pub fn to_view(&self) -> View<V> {
        View::from_options(self.entries.iter().cloned().map(Some).collect())
    }

    /// Borrows the underlying entries.
    pub fn as_slice(&self) -> &[V] {
        &self.entries
    }

    /// Iterates over `(ProcessId, &V)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &V)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, v)| (ProcessId::new(i), v))
    }

    /// The most frequent value in the vector, largest on ties (`1st(I)`).
    pub fn first(&self) -> &V {
        self.to_view()
            .first()
            .cloned()
            .map(|v| {
                // Locate the value back in our own storage to return a borrow
                // with the right lifetime.
                self.entries
                    .iter()
                    .find(|e| **e == v)
                    .expect("first() value must occur in the vector")
            })
            .expect("non-empty input vector always has a first value")
    }

    /// Hamming distance to another equal-length vector.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn dist(&self, other: &InputVector<V>) -> usize {
        assert_eq!(self.n(), other.n(), "vectors must have equal length");
        self.entries
            .iter()
            .zip(&other.entries)
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl<V: Value> Index<ProcessId> for InputVector<V> {
    type Output = V;

    fn index(&self, id: ProcessId) -> &V {
        self.get(id)
    }
}

impl<V: Value> From<Vec<V>> for InputVector<V> {
    fn from(entries: Vec<V>) -> Self {
        InputVector::new(entries)
    }
}

impl<V: Value> FromIterator<V> for InputVector<V> {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        InputVector::new(iter.into_iter().collect())
    }
}

impl<V: Value + fmt::Display> fmt::Display for InputVector<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unanimous_counts_everything() {
        let i = InputVector::unanimous(5, 42u64);
        assert_eq!(i.n(), 5);
        assert_eq!(i.count_of(&42), 5);
        assert_eq!(i.count_of(&7), 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_vector_panics() {
        let _ = InputVector::<u64>::new(vec![]);
    }

    #[test]
    fn indexing_by_process_id() {
        let i = InputVector::new(vec![10u64, 20, 30]);
        assert_eq!(i[ProcessId::new(1)], 20);
        assert_eq!(*i.get(ProcessId::new(2)), 30);
    }

    #[test]
    fn dist_counts_differing_entries() {
        let a = InputVector::new(vec![1u64, 2, 3, 4]);
        let b = InputVector::new(vec![1u64, 9, 3, 8]);
        assert_eq!(a.dist(&b), 2);
        assert_eq!(a.dist(&a), 0);
    }

    #[test]
    fn first_breaks_ties_by_largest() {
        let i = InputVector::new(vec![1u64, 2, 1, 2]);
        assert_eq!(*i.first(), 2);
    }

    #[test]
    fn view_conversion_preserves_entries() {
        let i = InputVector::new(vec![5u64, 6, 7]);
        let v = i.to_view();
        assert_eq!(v.len_non_default(), 3);
        assert_eq!(v.get(ProcessId::new(1)), Some(&6));
    }

    #[test]
    fn from_iterator_collects() {
        let i: InputVector<u64> = (0..4).collect();
        assert_eq!(i.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn display_renders_tuple() {
        let i = InputVector::new(vec![1u64, 2]);
        assert_eq!(i.to_string(), "(1, 2)");
    }
}
