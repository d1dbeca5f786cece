//! Views and the view algebra of §3.1.
//!
//! # Interned tallies
//!
//! Views sit on the protocol's hot path: Fig. 1 re-evaluates the legality
//! predicates `P1(J1)`/`P2(J2)` after *every* message reception, and those
//! predicates are built from `#_v(J)`, `|J|`, `1st(J)`, `2nd(J)` and the
//! frequency margin. Recomputing them by scanning the entries would make
//! each delivery O(n) with an allocation.
//!
//! [`View`] therefore stores each distinct value once, in a value table of
//! its own, and keeps everything else as `u32` slot indices into it: one
//! per entry (`⊥` is `u32::MAX`), an occurrence count per slot, and the
//! slots of the top two values under the paper's ordering (count first,
//! ties broken by the **largest** value, §3.3). [`set`](View::set) finds a
//! value's slot by comparing it `==` with the stored values — no hashing,
//! which on the log workloads would read a whole command batch — clones it
//! only if no slot holds it, and then prefers a slot whose count fell to
//! zero, so a view never stores more than `n` values. Increments adjust
//! the top two directly; only a decrement of a value currently *in* the top
//! two forces a rescan of the slots, which never happens in the protocol
//! proper because entries are written once (first value wins) and never
//! cleared. `1st`, `2nd`, their counts, `|J|` and the margin are then O(1)
//! and allocation-free; `#_v(J)` is O(distinct values).

use crate::{ProcessId, Value};
use core::borrow::Borrow;
use core::fmt;
use core::hash::{Hash, Hasher};
use std::collections::HashMap;

/// The slot of a `⊥` entry, and of an absent `1st(J)`/`2nd(J)`.
const NONE: u32 = u32::MAX;

/// A view `J ∈ (V ∪ {⊥})^n`: an input vector with up to `t` entries replaced
/// by the default value `⊥` (§3.1). Entry `i` is `None` when the view has not
/// (yet) learnt `p_i`'s proposal.
///
/// All operators the legality proofs use are provided:
///
/// * `#_v(J)` — [`count_of`](Self::count_of), O(distinct values)
/// * `|J|` — [`len_non_default`](Self::len_non_default), O(1)
/// * `1st(J)`, `2nd(J)` — [`first`](Self::first), [`second`](Self::second)
///   (most frequent non-`⊥` value; ties broken by the **largest** value), O(1)
/// * `#_1st(J)(J) − #_2nd(J)(J)` — [`frequency_margin`](Self::frequency_margin), O(1)
///
/// plus the O(n) structural operators `dist(J₁, J₂)` ([`dist`](Self::dist),
/// Hamming distance) and `J₁ ≤ J₂` ([`is_contained_in`](Self::is_contained_in)).
///
/// Equality and hashing consider only the entries' values (two views with
/// the same entries are equal however they were built).
///
/// # Examples
///
/// ```
/// use dex_types::View;
/// let j = View::from_options(vec![Some(1u64), Some(1), Some(2), None]);
/// assert_eq!(j.count_of(&1), 2);
/// assert_eq!(j.len_non_default(), 3);
/// assert_eq!(j.first(), Some(&1));
/// assert_eq!(j.second(), Some(&2));
/// ```
#[derive(Clone)]
pub struct View<V> {
    /// Per process, the slot of its value in `values`, or [`NONE`] for `⊥`.
    entries: Vec<u32>,
    /// Every stored value, pairwise distinct. Slot `k` is live while
    /// `counts[k] > 0`; a dead slot keeps its value until a new value
    /// reuses the slot.
    values: Vec<V>,
    /// `#_v(J)` of `v = values[k]`, per slot `k`.
    counts: Vec<u32>,
    /// Number of non-`⊥` entries (`|J|`).
    non_default: usize,
    /// Slot of `1st(J)` under the §3.3 ordering, or [`NONE`] if all-`⊥`.
    top1: u32,
    /// Slot of `2nd(J)`, or [`NONE`] if fewer than two distinct values.
    top2: u32,
}

impl<V> View<V> {
    /// The value in `slot`, or `None` for [`NONE`].
    fn value_at(&self, slot: u32) -> Option<&V> {
        (slot != NONE).then(|| &self.values[slot as usize])
    }

    /// The entries in process order (`None` = `⊥`).
    fn cells(&self) -> impl Iterator<Item = Option<&V>> {
        self.entries.iter().map(|&slot| self.value_at(slot))
    }

    /// Iterates over `(ProcessId, Option<&V>)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, Option<&V>)> {
        self.cells()
            .enumerate()
            .map(|(i, v)| (ProcessId::new(i), v))
    }
}

impl<V: PartialEq> PartialEq for View<V> {
    fn eq(&self, other: &Self) -> bool {
        self.entries.len() == other.entries.len() && self.cells().eq(other.cells())
    }
}

impl<V: Eq> Eq for View<V> {}

impl<V: Hash> Hash for View<V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entries.len().hash(state);
        self.cells().for_each(|v| v.hash(state));
    }
}

impl<V: fmt::Debug> fmt::Debug for View<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.cells()).finish()
    }
}

impl<V: Value> View<V> {
    /// The all-`⊥` view `⊥^n`.
    pub fn bottom(n: usize) -> Self {
        View {
            entries: vec![NONE; n],
            values: Vec::new(),
            counts: Vec::new(),
            non_default: 0,
            top1: NONE,
            top2: NONE,
        }
    }

    /// Builds a view directly from `(V ∪ {⊥})` entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty.
    pub fn from_options(entries: Vec<Option<V>>) -> Self {
        assert!(!entries.is_empty(), "view must be non-empty");
        let mut view = View::bottom(entries.len());
        for (i, v) in entries.iter().enumerate() {
            if let Some(v) = v {
                view.set(ProcessId::new(i), v);
            }
        }
        view
    }

    /// The dimension `n` of the view.
    pub fn n(&self) -> usize {
        self.entries.len()
    }

    /// The entry for `p_i` (`None` = `⊥`).
    pub fn get(&self, id: ProcessId) -> Option<&V> {
        self.value_at(self.entries[id.index()])
    }

    /// Records `p_i`'s value.
    ///
    /// Views are maintained *incrementally* in Fig. 1 (lines 6, 11): each
    /// message reception fills in one entry, and this updates the tally.
    /// The value is borrowed; it is cloned only if the view stores no equal
    /// value yet.
    pub fn set(&mut self, id: ProcessId, v: impl Borrow<V>) {
        let v = v.borrow();
        let old = self.entries[id.index()];
        if self.value_at(old) == Some(v) {
            return; // same value: tally unchanged
        }
        // Release the old occurrence first, so its slot can take `v`.
        match old {
            NONE => self.non_default += 1,
            old => self.decrement(old),
        }
        let slot = self.intern(v);
        self.entries[id.index()] = slot;
        self.increment(slot);
        self.debug_check_tally();
    }

    /// Clears `p_i`'s entry back to `⊥`.
    pub fn clear(&mut self, id: ProcessId) {
        let old = core::mem::replace(&mut self.entries[id.index()], NONE);
        if old != NONE {
            self.non_default -= 1;
            self.decrement(old);
            self.debug_check_tally();
        }
    }

    /// Resets every entry back to `⊥` in place, keeping the allocated
    /// `entries` buffer and the value table: its slots all go dead, and
    /// the next values overwrite them in place (`clone_from`, reusing a
    /// batch's buffer). This is the slot recycling hook: a pipelined
    /// replica reuses one `View` per tally across many consecutive log
    /// slots instead of reallocating [`View::bottom`] each time.
    pub fn reset(&mut self) {
        self.entries.fill(NONE);
        self.counts.fill(0);
        self.non_default = 0;
        self.top1 = NONE;
        self.top2 = NONE;
        self.debug_check_tally();
    }

    /// `#_v(J)`: the number of occurrences of `v`. O(distinct values).
    pub fn count_of(&self, v: &V) -> usize {
        self.slot_of(v).map_or(0, |k| self.counts[k] as usize)
    }

    /// `|J|`: the number of non-`⊥` entries. O(1).
    pub fn len_non_default(&self) -> usize {
        self.non_default
    }

    /// The number of `⊥` entries. O(1).
    pub fn len_default(&self) -> usize {
        self.n() - self.non_default
    }

    /// Whether the view belongs to `V^n_k`: at most `k` entries are `⊥`.
    pub fn in_vnk(&self, k: usize) -> bool {
        self.len_default() <= k
    }

    /// Occurrence counts of every non-`⊥` value.
    ///
    /// Prefer the O(1) queries ([`first_with_count`](Self::first_with_count),
    /// [`second_with_count`](Self::second_with_count)) on hot paths; this
    /// allocates a fresh map.
    pub fn histogram(&self) -> HashMap<&V, usize> {
        self.live().collect()
    }

    /// `1st(J)`: the most frequent non-`⊥` value; when several values are
    /// tied for most frequent, the **largest** is selected (§3.3). `None` iff
    /// the view is all-`⊥`. O(1).
    pub fn first(&self) -> Option<&V> {
        self.value_at(self.top1)
    }

    /// `2nd(J)`: the second most frequent value — `1st(Ĵ)` where `Ĵ` is `J`
    /// with every occurrence of `1st(J)` replaced by `⊥` (§3.3). `None` if
    /// fewer than two distinct values occur. O(1).
    pub fn second(&self) -> Option<&V> {
        self.value_at(self.top2)
    }

    /// `(1st(J), #_1st(J)(J))` in one O(1) lookup.
    pub fn first_with_count(&self) -> Option<(&V, usize)> {
        self.ranked(self.top1)
    }

    /// `(2nd(J), #_2nd(J)(J))` in one O(1) lookup.
    pub fn second_with_count(&self) -> Option<(&V, usize)> {
        self.ranked(self.top2)
    }

    /// The frequency margin `#_1st(J)(J) − #_2nd(J)(J)`, the quantity tested
    /// by the frequency-based predicates `P1/P2` (§3.3). If only one distinct
    /// value occurs the margin is its full count; an all-`⊥` view has margin
    /// zero. O(1).
    pub fn frequency_margin(&self) -> usize {
        let count = |slot| self.ranked(slot).map_or(0, |(_, c)| c);
        count(self.top1) - count(self.top2)
    }

    fn ranked(&self, slot: u32) -> Option<(&V, usize)> {
        self.value_at(slot)
            .map(|v| (v, self.counts[slot as usize] as usize))
    }

    /// The live slots' `(value, count)` pairs.
    fn live(&self) -> impl Iterator<Item = (&V, usize)> {
        self.values
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v, c as usize))
    }

    /// The slot holding `v`, live or dead.
    fn slot_of(&self, v: &V) -> Option<usize> {
        self.values.iter().position(|stored| stored == v)
    }

    /// The slot holding `v`, storing a clone of `v` first if no slot does:
    /// into the first dead slot, else into a new one.
    fn intern(&mut self, v: &V) -> u32 {
        let slot = match self.slot_of(v) {
            Some(k) => k,
            None => match self.counts.iter().position(|&c| c == 0) {
                Some(k) => {
                    self.values[k].clone_from(v);
                    k
                }
                None => {
                    self.values.push(v.clone());
                    self.counts.push(0);
                    self.values.len() - 1
                }
            },
        };
        slot as u32
    }

    /// The §3.3 ordering on live slots: more occurrences wins; on equal
    /// counts the larger value wins.
    fn beats(&self, a: u32, b: u32) -> bool {
        let (a, b) = (a as usize, b as usize);
        let (ca, cb) = (self.counts[a], self.counts[b]);
        ca > cb || (ca == cb && self.values[a] > self.values[b])
    }

    /// Adds one occurrence to `slot` and restores the top-two invariant.
    /// O(1): one increment moves the slot up by a single count, so the only
    /// candidates for the new top two are the old top two and `slot`.
    fn increment(&mut self, slot: u32) {
        self.counts[slot as usize] += 1;
        if self.top1 == NONE {
            self.top1 = slot;
        } else if slot == self.top1 {
            // Already the leader; its lead only widens.
        } else if slot == self.top2 {
            if self.beats(slot, self.top1) {
                core::mem::swap(&mut self.top1, &mut self.top2);
            }
        } else if self.beats(slot, self.top1) {
            // `slot` rises from outside the top two.
            self.top2 = self.top1;
            self.top1 = slot;
        } else if self.top2 == NONE || self.beats(slot, self.top2) {
            self.top2 = slot;
        }
    }

    /// Removes one occurrence from `slot`. O(1) unless the slot is one of
    /// the current top two, in which case the top pair is recomputed by a
    /// scan of the slots. The protocol proper never takes the slow path:
    /// entries are written once (first-value-wins) and never cleared.
    fn decrement(&mut self, slot: u32) {
        self.counts[slot as usize] -= 1;
        if slot == self.top1 || slot == self.top2 {
            self.rebuild_top();
        }
    }

    /// Recomputes the top-two slots from the counts.
    fn rebuild_top(&mut self) {
        let (mut top1, mut top2) = (NONE, NONE);
        for slot in 0..self.values.len() as u32 {
            if self.counts[slot as usize] == 0 {
                continue;
            }
            if top1 == NONE || self.beats(slot, top1) {
                top2 = top1;
                top1 = slot;
            } else if top2 == NONE || self.beats(slot, top2) {
                top2 = slot;
            }
        }
        self.top1 = top1;
        self.top2 = top2;
    }

    /// Oracle: in debug builds, recount everything from the raw entries and
    /// assert the incremental tally agrees.
    #[inline]
    fn debug_check_tally(&self) {
        #[cfg(debug_assertions)]
        {
            let mut counts = vec![0u32; self.values.len()];
            for &slot in self.entries.iter().filter(|&&slot| slot != NONE) {
                counts[slot as usize] += 1;
            }
            assert_eq!(self.counts, counts, "tally counts diverged");
            let non_default = self.entries.iter().filter(|&&slot| slot != NONE).count();
            assert_eq!(self.non_default, non_default, "|J| diverged");
            assert!(self.values.len() <= self.n(), "more values than entries");
            let mut stored: Vec<&V> = self.values.iter().collect();
            stored.sort();
            assert!(
                stored.windows(2).all(|w| w[0] != w[1]),
                "a value is stored twice"
            );
            let best = |skip: Option<&V>| {
                self.live()
                    .filter(|(v, _)| Some(*v) != skip)
                    .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then_with(|| va.cmp(vb)))
            };
            let naive_first = best(None);
            assert_eq!(self.first_with_count(), naive_first, "1st(J) diverged");
            let naive_second = naive_first.and_then(|(v1, _)| best(Some(v1)));
            assert_eq!(self.second_with_count(), naive_second, "2nd(J) diverged");
        }
    }

    /// `dist(J₁, J₂)`: the Hamming distance (`⊥` is a normal symbol: a `⊥`
    /// entry differs from any non-`⊥` entry).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dist(&self, other: &View<V>) -> usize {
        assert_eq!(self.n(), other.n(), "views must have equal dimension");
        self.cells()
            .zip(other.cells())
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Containment `self ≤ other`: every non-`⊥` entry of `self` equals the
    /// corresponding entry of `other` (§3.1).
    pub fn is_contained_in(&self, other: &View<V>) -> bool {
        self.n() == other.n()
            && self
                .cells()
                .zip(other.cells())
                .all(|(a, b)| a.is_none() || a == b)
    }

    /// Whether two views are *compatible*: some common vector `I'` contains
    /// both (used in Case 3 of Lemma 2 — this holds exactly when the views
    /// never disagree on a non-`⊥` entry).
    pub fn is_compatible_with(&self, other: &View<V>) -> bool {
        self.n() == other.n()
            && self
                .cells()
                .zip(other.cells())
                .all(|(a, b)| a.is_none() || b.is_none() || a == b)
    }

    /// The least upper bound of two compatible views: each entry takes the
    /// non-`⊥` value when available. Returns `None` for incompatible views.
    pub fn join(&self, other: &View<V>) -> Option<View<V>> {
        if !self.is_compatible_with(other) {
            return None;
        }
        Some(View::from_options(
            self.cells()
                .zip(other.cells())
                .map(|(a, b)| a.or(b).cloned())
                .collect(),
        ))
    }

    /// Completes the view into a full vector by filling `⊥` entries from
    /// `base` — the `I¹_i` / `I²_i` construction of the correctness proofs.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn complete_with(&self, base: &crate::InputVector<V>) -> crate::InputVector<V> {
        assert_eq!(self.n(), base.n(), "dimension mismatch");
        self.iter()
            .map(|(id, e)| e.unwrap_or_else(|| base.get(id)).clone())
            .collect()
    }

    /// Iterates over the non-`⊥` entries with their process ids.
    pub fn iter_known(&self) -> impl Iterator<Item = (ProcessId, &V)> {
        self.iter().filter_map(|(id, v)| v.map(|v| (id, v)))
    }
}

impl<V: Value + fmt::Display> fmt::Display for View<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.cells().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match e {
                Some(v) => write!(f, "{v}")?,
                None => write!(f, "⊥")?,
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InputVector;

    fn v(entries: Vec<Option<u64>>) -> View<u64> {
        View::from_options(entries)
    }

    #[test]
    fn bottom_has_no_known_entries() {
        let j = View::<u64>::bottom(4);
        assert_eq!(j.len_non_default(), 0);
        assert_eq!(j.len_default(), 4);
        assert_eq!(j.first(), None);
        assert_eq!(j.frequency_margin(), 0);
    }

    #[test]
    fn set_and_clear_roundtrip() {
        let mut j = View::<u64>::bottom(3);
        j.set(ProcessId::new(1), 7);
        assert_eq!(j.get(ProcessId::new(1)), Some(&7));
        j.set(ProcessId::new(1), 9);
        assert_eq!(j.get(ProcessId::new(1)), Some(&9));
        j.clear(ProcessId::new(1));
        assert_eq!(j.get(ProcessId::new(1)), None);
        assert_eq!(j.len_non_default(), 0);
    }

    #[test]
    fn first_and_second_by_frequency() {
        let j = v(vec![Some(1), Some(1), Some(1), Some(2), Some(2), Some(3)]);
        assert_eq!(j.first(), Some(&1));
        assert_eq!(j.second(), Some(&2));
        assert_eq!(j.frequency_margin(), 1);
    }

    #[test]
    fn first_tie_break_is_largest_value() {
        let j = v(vec![Some(1), Some(2), Some(1), Some(2)]);
        assert_eq!(j.first(), Some(&2));
        assert_eq!(j.second(), Some(&1));
        assert_eq!(j.frequency_margin(), 0);
    }

    #[test]
    fn second_tie_break_is_largest_value() {
        let j = v(vec![Some(5), Some(5), Some(5), Some(1), Some(3)]);
        assert_eq!(j.first(), Some(&5));
        assert_eq!(j.second(), Some(&3));
    }

    #[test]
    fn single_value_margin_is_full_count() {
        let j = v(vec![Some(4), Some(4), None]);
        assert_eq!(j.frequency_margin(), 2);
        assert_eq!(j.second(), None);
    }

    #[test]
    fn counts_with_first_and_second() {
        let j = v(vec![Some(1), Some(1), Some(1), Some(2), Some(2), None]);
        assert_eq!(j.first_with_count(), Some((&1, 3)));
        assert_eq!(j.second_with_count(), Some((&2, 2)));
        assert_eq!(View::<u64>::bottom(3).first_with_count(), None);
    }

    #[test]
    fn incremental_sets_track_leader_changes() {
        // Drive the top-two through promotions, swaps and ties; the debug
        // oracle in set() re-verifies the whole tally at every step.
        let mut j = View::<u64>::bottom(8);
        j.set(ProcessId::new(0), 5);
        assert_eq!(j.first_with_count(), Some((&5, 1)));
        j.set(ProcessId::new(1), 3);
        // Tie at one occurrence each: larger value leads.
        assert_eq!(j.first(), Some(&5));
        assert_eq!(j.second(), Some(&3));
        j.set(ProcessId::new(2), 3);
        // 3 overtakes 5.
        assert_eq!(j.first_with_count(), Some((&3, 2)));
        assert_eq!(j.second_with_count(), Some((&5, 1)));
        // A third value rises from outside the top two.
        j.set(ProcessId::new(3), 9);
        j.set(ProcessId::new(4), 9);
        j.set(ProcessId::new(5), 9);
        assert_eq!(j.first_with_count(), Some((&9, 3)));
        assert_eq!(j.second_with_count(), Some((&3, 2)));
        assert_eq!(j.frequency_margin(), 1);
    }

    #[test]
    fn overwrite_and_clear_keep_tally_exact() {
        let mut j = View::<u64>::bottom(4);
        j.set(ProcessId::new(0), 1);
        j.set(ProcessId::new(1), 1);
        j.set(ProcessId::new(2), 2);
        // Overwrite the leader's occurrence with the runner-up's value.
        j.set(ProcessId::new(0), 2);
        assert_eq!(j.first_with_count(), Some((&2, 2)));
        assert_eq!(j.second_with_count(), Some((&1, 1)));
        // Clearing the last occurrence of a value removes it entirely.
        j.clear(ProcessId::new(1));
        assert_eq!(j.second(), None);
        assert_eq!(j.count_of(&1), 0);
        // Overwriting with an equal value is a no-op on the tally.
        j.set(ProcessId::new(0), 2);
        assert_eq!(j.first_with_count(), Some((&2, 2)));
    }

    #[test]
    fn overwrites_with_fresh_values_store_at_most_n() {
        // Every set brings a value the view has never held: each overwrite
        // frees its old slot, and the fresh value must take it rather than
        // grow the table — over a reset too.
        let n = 7;
        let mut j = View::<u64>::bottom(n);
        for round in 0..2 {
            for i in 0..10 * n {
                j.set(ProcessId::new(i % n), (round * 10 * n + i) as u64);
                assert!(j.values.len() <= n, "{} values stored", j.values.len());
            }
            assert_eq!(j.len_non_default(), n);
            j.reset();
        }
    }

    #[test]
    fn equality_and_hash_ignore_construction_order() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = v(vec![Some(1), Some(2), None]);
        let mut b = View::<u64>::bottom(3);
        b.set(ProcessId::new(1), 2);
        b.set(ProcessId::new(0), 1);
        assert_eq!(a, b);
        let hash = |view: &View<u64>| {
            let mut h = DefaultHasher::new();
            view.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn dist_treats_bottom_as_symbol() {
        let a = v(vec![Some(1), None, Some(3)]);
        let b = v(vec![Some(1), Some(2), None]);
        assert_eq!(a.dist(&b), 2);
    }

    #[test]
    fn containment_ignores_bottom_entries() {
        let small = v(vec![Some(1), None, None]);
        let big = v(vec![Some(1), Some(2), Some(3)]);
        assert!(small.is_contained_in(&big));
        assert!(!big.is_contained_in(&small));
        // A view is always contained in itself.
        assert!(big.is_contained_in(&big));
    }

    #[test]
    fn containment_fails_on_conflicting_entry() {
        let a = v(vec![Some(1), None]);
        let b = v(vec![Some(2), Some(2)]);
        assert!(!a.is_contained_in(&b));
    }

    #[test]
    fn compatibility_and_join() {
        let a = v(vec![Some(1), None, Some(3)]);
        let b = v(vec![Some(1), Some(2), None]);
        assert!(a.is_compatible_with(&b));
        let j = a.join(&b).unwrap();
        assert_eq!(j, v(vec![Some(1), Some(2), Some(3)]));

        let c = v(vec![Some(9), None, None]);
        assert!(!a.is_compatible_with(&c));
        assert!(a.join(&c).is_none());
    }

    #[test]
    fn vnk_membership() {
        let j = v(vec![Some(1), None, None, Some(2)]);
        assert!(j.in_vnk(2));
        assert!(j.in_vnk(3));
        assert!(!j.in_vnk(1));
    }

    #[test]
    fn complete_with_fills_bottom_entries() {
        let j = v(vec![Some(9), None, Some(9)]);
        let base = InputVector::new(vec![1u64, 2, 3]);
        let completed = j.complete_with(&base);
        assert_eq!(completed.as_slice(), &[9, 2, 9]);
        // The completed vector contains the view.
        assert!(j.is_contained_in(&completed.to_view()));
    }

    #[test]
    fn histogram_counts_every_value() {
        let j = v(vec![Some(1), Some(1), Some(2), None]);
        let h = j.histogram();
        assert_eq!(h[&1], 2);
        assert_eq!(h[&2], 1);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn iter_known_skips_bottom() {
        let j = v(vec![None, Some(5), None, Some(6)]);
        let known: Vec<_> = j.iter_known().map(|(p, v)| (p.index(), *v)).collect();
        assert_eq!(known, vec![(1, 5), (3, 6)]);
    }

    #[test]
    fn display_renders_bottom() {
        let j = v(vec![Some(1), None]);
        assert_eq!(j.to_string(), "[1, ⊥]");
        assert_eq!(format!("{j:?}"), "[Some(1), None]");
    }
}
