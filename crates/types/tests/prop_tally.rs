//! Property tests pinning the incremental tally to a from-scratch oracle.
//!
//! `View` interns its values and maintains per-slot counts and the top-two
//! slots incrementally (see `view.rs`); every query the legality predicates
//! rely on must agree with a naive recount of the raw entries — including
//! the §3.3 tie-break, which prefers the **largest** value among equal
//! counts. The oracle below is written independently of `View`'s own
//! internals (it only reads `iter()`), so a bug in the tally bookkeeping
//! cannot hide in the checker. Values come from `0..3N`, three times the
//! entries, so set/clear churn empties stored slots and fresh values must
//! reuse them.

use dex_types::{ProcessId, View};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

const N: usize = 9;
const DOMAIN: u64 = 3 * N as u64;

/// One mutation: `Some(v)` sets the slot, `None` clears it.
type Op = (usize, Option<u64>);

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0usize..N, proptest::option::weighted(0.7, 0..DOMAIN)),
        0..60,
    )
}

fn view_strategy() -> impl Strategy<Value = View<u64>> {
    proptest::collection::vec(proptest::option::weighted(0.8, 0..DOMAIN), N)
        .prop_map(View::from_options)
}

/// Applies `ops` to `view` and to its shadow vector.
fn apply(view: &mut View<u64>, shadow: &mut [Option<u64>], ops: &[Op]) {
    for &(idx, op) in ops {
        match op {
            Some(v) => view.set(ProcessId::new(idx), v),
            None => view.clear(ProcessId::new(idx)),
        }
        shadow[idx] = op;
    }
}

/// The view's entries, read through `iter()` only.
fn entries(view: &View<u64>) -> Vec<Option<u64>> {
    view.iter().map(|(_, v)| v.copied()).collect()
}

fn hash_of(view: &View<u64>) -> u64 {
    let mut h = DefaultHasher::new();
    view.hash(&mut h);
    h.finish()
}

fn naive_counts(shadow: &[Option<u64>]) -> HashMap<u64, usize> {
    let mut counts = HashMap::new();
    for v in shadow.iter().flatten() {
        *counts.entry(*v).or_insert(0) += 1;
    }
    counts
}

type Ranked = Option<(u64, usize)>;

/// From-scratch top-two with the §3.3 tie-break: more occurrences wins, and
/// among equal counts the larger value wins.
fn naive_top_two(shadow: &[Option<u64>]) -> (Ranked, Ranked) {
    let counts = naive_counts(shadow);
    let best = |skip: Option<u64>| {
        counts
            .iter()
            .filter(|(v, _)| Some(**v) != skip)
            .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then_with(|| va.cmp(vb)))
            .map(|(v, c)| (*v, *c))
    };
    let first = best(None);
    let second = first.and_then(|(f, _)| best(Some(f)));
    (first, second)
}

/// Asserts every tally-backed query against the oracle.
fn check_against_oracle(view: &View<u64>, shadow: &[Option<u64>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(entries(view), shadow);
    let counts = naive_counts(shadow);
    for v in 0..DOMAIN {
        prop_assert_eq!(view.count_of(&v), counts.get(&v).copied().unwrap_or(0));
    }
    prop_assert_eq!(view.len_non_default(), counts.values().sum::<usize>());

    let (first, second) = naive_top_two(shadow);
    prop_assert_eq!(view.first_with_count().map(|(v, c)| (*v, c)), first);
    prop_assert_eq!(view.second_with_count().map(|(v, c)| (*v, c)), second);
    prop_assert_eq!(view.first().copied(), first.map(|(v, _)| v));
    prop_assert_eq!(view.second().copied(), second.map(|(v, _)| v));

    let margin = match (first, second) {
        (Some((_, c1)), Some((_, c2))) => c1 - c2,
        (Some((_, c1)), None) => c1,
        _ => 0,
    };
    prop_assert_eq!(view.frequency_margin(), margin);
    Ok(())
}

proptest! {
    #[test]
    fn random_mutation_sequences_match_recount(ops in ops_strategy()) {
        let mut view: View<u64> = View::bottom(N);
        let mut shadow: Vec<Option<u64>> = vec![None; N];
        for op in &ops {
            apply(&mut view, &mut shadow, std::slice::from_ref(op));
            // The tally must be exact after *every* step, not just at the
            // end — an intermediate drift that later self-corrects would
            // still mis-gate the per-message predicates.
            check_against_oracle(&view, &shadow)?;
        }
        // A recycled view is the all-`⊥` view, and tallies afresh.
        view.reset();
        shadow = vec![None; N];
        check_against_oracle(&view, &shadow)?;
        for op in ops.iter().rev() {
            apply(&mut view, &mut shadow, std::slice::from_ref(op));
            check_against_oracle(&view, &shadow)?;
        }
    }

    #[test]
    fn constructed_views_match_recount(view in view_strategy()) {
        let shadow = entries(&view);
        check_against_oracle(&view, &shadow)?;
    }

    #[test]
    fn joins_match_recount(a in view_strategy(), b in view_strategy()) {
        if let Some(j) = a.join(&b) {
            let shadow = entries(&j);
            check_against_oracle(&j, &shadow)?;
        }
    }

    #[test]
    fn equal_entries_are_equal_views(ops in ops_strategy(), noise in ops_strategy()) {
        // Build the same entries twice: once by `ops`, once by unrelated
        // churn followed by writing the result in reverse process order.
        // The two views intern their values in different slots; equality
        // and hashing must see only the entries.
        let mut a: View<u64> = View::bottom(N);
        let mut shadow = vec![None; N];
        apply(&mut a, &mut shadow, &ops);
        let mut b: View<u64> = View::bottom(N);
        apply(&mut b, &mut [None; N], &noise);
        let rewrite: Vec<Op> = shadow.iter().copied().enumerate().rev().collect();
        apply(&mut b, &mut [None; N], &rewrite);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(hash_of(&a), hash_of(&b));
        let built = View::from_options(shadow);
        prop_assert_eq!(&a, &built);
        prop_assert_eq!(hash_of(&a), hash_of(&built));
    }

    #[test]
    fn largest_value_wins_count_ties(ops in ops_strategy()) {
        // Focused restatement of the §3.3 tie-break on the same sequences:
        // whenever first/second exist, no other value may beat them under
        // the (count, value) lexicographic order.
        let mut view: View<u64> = View::bottom(N);
        apply(&mut view, &mut [None; N], &ops);
        if let Some((v1, c1)) = view.first_with_count() {
            for (v, c) in view.histogram() {
                prop_assert!((c, v) <= (c1, v1));
                if let Some((v2, c2)) = view.second_with_count() {
                    if v != v1 {
                        prop_assert!((c, v) <= (c2, v2));
                    }
                }
            }
        }
    }
}
