//! Exhaustive machine-checking of the legality criteria (§3.2).
//!
//! The paper proves Theorems 1 and 2 (legality of `P_freq` and `P_prv`) by
//! hand. This module re-verifies them mechanically on finite instances: it
//! enumerates every input vector in `V^n` and every view in `V^n_t` over a
//! small ordered value domain and checks each of the criteria against its
//! quantifier structure. A single violation is returned with a concrete
//! witness, which makes the checker double as a debugging tool for anyone
//! designing *new* condition-sequence pairs.
//!
//! The existential preconditions of LA3/LA4 are decided in closed form
//! rather than by enumeration:
//!
//! * `∃I, I' : J ≤ I ∧ J' ≤ I' ∧ dist(I, I') ≤ t` holds **iff** the number
//!   of positions where `J` and `J'` are both non-`⊥` and differ is `≤ t`
//!   (all other positions can be completed identically).
//! * `∃I : J ≤ I ∧ J' ≤ I` holds **iff** `J` and `J'` never disagree on a
//!   non-`⊥` entry ([`View::is_compatible_with`]).
//!
//! # Examples
//!
//! ```
//! use dex_conditions::{verify, FrequencyPair};
//! use dex_types::SystemConfig;
//!
//! let pair = FrequencyPair::new(SystemConfig::new(7, 1)?)?;
//! let report = verify::check_legality(&pair, 7, &[0u64, 1]).expect("Theorem 1");
//! assert!(report.lt1_checked > 0 && report.la3_checked > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Verifier errors deliberately carry the whole counterexample (view plus
// witness input vector); they occur once, on a cold path, and boxing them
// would only obscure the diagnostics.
#![allow(clippy::result_large_err)]

use crate::pair::LegalityPair;
use dex_types::{InputVector, Value, View};

/// Enumerates every input vector in `V^n` over `domain`.
///
/// # Panics
///
/// Panics if `domain` is empty or `n == 0`.
pub fn all_input_vectors<V: Value>(n: usize, domain: &[V]) -> Vec<InputVector<V>> {
    assert!(n > 0 && !domain.is_empty());
    let mut out = Vec::with_capacity(domain.len().pow(n as u32));
    let mut idx = vec![0usize; n];
    loop {
        out.push(InputVector::new(
            idx.iter().map(|&i| domain[i].clone()).collect(),
        ));
        let mut pos = 0;
        loop {
            if pos == n {
                return out;
            }
            idx[pos] += 1;
            if idx[pos] < domain.len() {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
    }
}

/// Enumerates every view in `V^n_k` (at most `k` entries equal to `⊥`) over
/// `domain`.
///
/// # Panics
///
/// Panics if `domain` is empty or `n == 0`.
pub fn all_views<V: Value>(n: usize, domain: &[V], k: usize) -> Vec<View<V>> {
    assert!(n > 0 && !domain.is_empty());
    // Entry index domain.len() encodes ⊥.
    let arity = domain.len() + 1;
    let mut out = Vec::new();
    let mut idx = vec![0usize; n];
    loop {
        let bottoms = idx.iter().filter(|&&i| i == domain.len()).count();
        if bottoms <= k {
            out.push(View::from_options(
                idx.iter()
                    .map(|&i| {
                        if i == domain.len() {
                            None
                        } else {
                            Some(domain[i].clone())
                        }
                    })
                    .collect(),
            ));
        }
        let mut pos = 0;
        loop {
            if pos == n {
                return out;
            }
            idx[pos] += 1;
            if idx[pos] < arity {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
    }
}

/// A counterexample to one of the legality criteria.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LegalityViolation<V> {
    /// LT1 fails: a view close to `C¹_k` does not satisfy `P1`.
    Lt1 {
        /// Fault count `k` at which the implication failed.
        k: usize,
        /// The view `J ∈ V^n_k`.
        view: View<V>,
        /// An input `I ∈ C¹_k` with `dist(J, I) ≤ k`.
        witness: InputVector<V>,
    },
    /// LT2 fails: a view close to `C²_k` does not satisfy `P2`.
    Lt2 {
        /// Fault count `k` at which the implication failed.
        k: usize,
        /// The view `J ∈ V^n_k`.
        view: View<V>,
        /// An input `I ∈ C²_k` with `dist(J, I) ≤ k`.
        witness: InputVector<V>,
    },
    /// LA3 fails: `P1(J)` holds, `J` and `J'` have linkable completions, yet
    /// `F(J) ≠ F(J')`.
    La3 {
        /// The one-step view.
        view: View<V>,
        /// The conflicting view.
        other: View<V>,
    },
    /// LA4 fails: `P2(J)` holds, `J` and `J'` are compatible, yet
    /// `F(J) ≠ F(J')`.
    La4 {
        /// The two-step view.
        view: View<V>,
        /// The conflicting view.
        other: View<V>,
    },
    /// LU5 fails: a unique value occurs more than `t` times but `F` decides
    /// something else.
    Lu5 {
        /// The view.
        view: View<V>,
        /// The value occurring more than `t` times.
        dominant: V,
        /// What `F` decided instead.
        decided: Option<V>,
    },
}

/// Statistics from a successful legality check.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LegalityReport {
    /// Number of (k, view, witness) implications verified for LT1.
    pub lt1_checked: usize,
    /// Number of (k, view, witness) implications verified for LT2.
    pub lt2_checked: usize,
    /// Number of linkable view pairs with `P1` verified for LA3.
    pub la3_checked: usize,
    /// Number of compatible view pairs with `P2` verified for LA4.
    pub la4_checked: usize,
    /// Number of dominated views verified for LU5.
    pub lu5_checked: usize,
}

/// Checks LT1 exhaustively: for every `k ≤ t`, every `J ∈ V^n_k` and every
/// `I ∈ C¹_k` with `dist(J, I) ≤ k`, the predicate `P1(J)` must hold.
///
/// # Errors
///
/// Returns the first [`LegalityViolation::Lt1`] counterexample.
pub fn check_lt1<V: Value, P: LegalityPair<V>>(
    pair: &P,
    n: usize,
    domain: &[V],
) -> Result<usize, LegalityViolation<V>> {
    let vectors = all_input_vectors(n, domain);
    let mut checked = 0;
    for k in 0..=pair.t() {
        let in_c1: Vec<&InputVector<V>> = vectors.iter().filter(|i| pair.in_c1(i, k)).collect();
        for view in all_views(n, domain, k) {
            for input in &in_c1 {
                if view.dist(&input.to_view()) <= k {
                    checked += 1;
                    if !pair.p1(&view) {
                        return Err(LegalityViolation::Lt1 {
                            k,
                            view,
                            witness: (*input).clone(),
                        });
                    }
                    break; // one witness suffices; P1(J) already verified
                }
            }
        }
    }
    Ok(checked)
}

/// Checks LT2 exhaustively (the two-step analogue of [`check_lt1`]).
///
/// # Errors
///
/// Returns the first [`LegalityViolation::Lt2`] counterexample.
pub fn check_lt2<V: Value, P: LegalityPair<V>>(
    pair: &P,
    n: usize,
    domain: &[V],
) -> Result<usize, LegalityViolation<V>> {
    let vectors = all_input_vectors(n, domain);
    let mut checked = 0;
    for k in 0..=pair.t() {
        let in_c2: Vec<&InputVector<V>> = vectors.iter().filter(|i| pair.in_c2(i, k)).collect();
        for view in all_views(n, domain, k) {
            for input in &in_c2 {
                if view.dist(&input.to_view()) <= k {
                    checked += 1;
                    if !pair.p2(&view) {
                        return Err(LegalityViolation::Lt2 {
                            k,
                            view,
                            witness: (*input).clone(),
                        });
                    }
                    break;
                }
            }
        }
    }
    Ok(checked)
}

/// Whether completions `I ≥ J`, `I' ≥ J'` with `dist(I, I') ≤ t` exist:
/// true iff at most `t` positions have both views non-`⊥` and different.
fn linkable<V: Value>(j1: &View<V>, j2: &View<V>, t: usize) -> bool {
    j1.iter()
        .zip(j2.iter())
        .filter(|((_, a), (_, b))| a.is_some() && b.is_some() && a != b)
        .count()
        <= t
}

/// Checks LA3 exhaustively over all pairs of views in `V^n_t`.
///
/// # Errors
///
/// Returns the first [`LegalityViolation::La3`] counterexample.
pub fn check_la3<V: Value, P: LegalityPair<V>>(
    pair: &P,
    n: usize,
    domain: &[V],
) -> Result<usize, LegalityViolation<V>> {
    let t = pair.t();
    let views = all_views(n, domain, t);
    let p1_views: Vec<&View<V>> = views.iter().filter(|j| pair.p1(j)).collect();
    let mut checked = 0;
    for j in &p1_views {
        let fj = pair.decide(j);
        for other in &views {
            if linkable(j, other, t) {
                checked += 1;
                if pair.decide(other) != fj {
                    return Err(LegalityViolation::La3 {
                        view: (*j).clone(),
                        other: other.clone(),
                    });
                }
            }
        }
    }
    Ok(checked)
}

/// Checks LA4 exhaustively over all compatible pairs of views in `V^n_t`.
///
/// # Errors
///
/// Returns the first [`LegalityViolation::La4`] counterexample.
pub fn check_la4<V: Value, P: LegalityPair<V>>(
    pair: &P,
    n: usize,
    domain: &[V],
) -> Result<usize, LegalityViolation<V>> {
    let t = pair.t();
    let views = all_views(n, domain, t);
    let p2_views: Vec<&View<V>> = views.iter().filter(|j| pair.p2(j)).collect();
    let mut checked = 0;
    for j in &p2_views {
        let fj = pair.decide(j);
        for other in &views {
            if j.is_compatible_with(other) {
                checked += 1;
                if pair.decide(other) != fj {
                    return Err(LegalityViolation::La4 {
                        view: (*j).clone(),
                        other: other.clone(),
                    });
                }
            }
        }
    }
    Ok(checked)
}

/// Checks LU5: for every view `J ∈ V^n_t` in which a **unique** value `a`
/// occurs more than `t` times, `F(J) = a`.
///
/// This is the form Lemma 3 (Unanimity) consumes: when all correct processes
/// propose `v` and `f ≤ t`, no other value can top `t` occurrences, so the
/// decision must be `v`.
///
/// # Errors
///
/// Returns the first [`LegalityViolation::Lu5`] counterexample.
pub fn check_lu5<V: Value, P: LegalityPair<V>>(
    pair: &P,
    n: usize,
    domain: &[V],
) -> Result<usize, LegalityViolation<V>> {
    let t = pair.t();
    let mut checked = 0;
    for view in all_views(n, domain, t) {
        // A *unique* value tops `t` occurrences exactly when the most
        // frequent value does but the runner-up does not — two O(1) tally
        // lookups instead of a histogram scan.
        let dominant = match (view.first_with_count(), view.second_with_count()) {
            (Some((v1, c1)), second) if c1 > t && second.is_none_or(|(_, c2)| c2 <= t) => {
                Some(v1.clone())
            }
            _ => None,
        };
        if let Some(dominant) = dominant {
            checked += 1;
            let decided = pair.decide(&view);
            if decided.as_ref() != Some(&dominant) {
                return Err(LegalityViolation::Lu5 {
                    view,
                    dominant,
                    decided,
                });
            }
        }
    }
    Ok(checked)
}

/// Runs all five legality checks; the mechanical counterpart of
/// Theorems 1 and 2.
///
/// # Errors
///
/// Returns the first violation discovered, in LT1 → LT2 → LA3 → LA4 → LU5
/// order.
pub fn check_legality<V: Value, P: LegalityPair<V>>(
    pair: &P,
    n: usize,
    domain: &[V],
) -> Result<LegalityReport, LegalityViolation<V>> {
    Ok(LegalityReport {
        lt1_checked: check_lt1(pair, n, domain)?,
        lt2_checked: check_lt2(pair, n, domain)?,
        la3_checked: check_la3(pair, n, domain)?,
        la4_checked: check_la4(pair, n, domain)?,
        lu5_checked: check_lu5(pair, n, domain)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrequencyPair, PrivilegedPair};
    use dex_types::SystemConfig;

    #[test]
    fn enumeration_counts_are_exact() {
        assert_eq!(all_input_vectors(3, &[0u64, 1]).len(), 8);
        // Views with ≤1 ⊥ over |V|=2, n=3: 2^3 + 3·2^2 = 20.
        assert_eq!(all_views(3, &[0u64, 1], 1).len(), 20);
        // k = 0 means complete views only.
        assert_eq!(all_views(3, &[0u64, 1], 0).len(), 8);
    }

    #[test]
    fn theorem1_frequency_pair_is_legal_n7_t1() {
        let pair = FrequencyPair::new(SystemConfig::new(7, 1).unwrap()).unwrap();
        let report = check_legality(&pair, 7, &[0u64, 1]).expect("Theorem 1 must hold");
        assert!(report.lt1_checked > 0);
        assert!(report.lt2_checked > 0);
        assert!(report.la3_checked > 0);
        assert!(report.la4_checked > 0);
        assert!(report.lu5_checked > 0);
    }

    #[test]
    fn theorem2_privileged_pair_is_legal_n6_t1() {
        let pair = PrivilegedPair::new(SystemConfig::new(6, 1).unwrap(), 1u64).unwrap();
        let report = check_legality(&pair, 6, &[0u64, 1]).expect("Theorem 2 must hold");
        assert!(report.lu5_checked > 0);
    }

    #[test]
    fn theorem2_privileged_pair_is_legal_three_values() {
        let pair = PrivilegedPair::new(SystemConfig::new(6, 1).unwrap(), 2u64).unwrap();
        check_legality(&pair, 6, &[0u64, 1, 2]).expect("Theorem 2 must hold for |V| = 3");
    }

    /// A deliberately broken pair: P1 threshold weakened from 4t to t.
    /// LA3 must catch it (one-step decisions can clash with other views).
    #[derive(Clone, Debug)]
    struct BrokenPair {
        inner: FrequencyPair,
    }

    impl LegalityPair<u64> for BrokenPair {
        fn name(&self) -> &'static str {
            "broken"
        }
        fn t(&self) -> usize {
            LegalityPair::<u64>::t(&self.inner)
        }
        fn p1(&self, view: &View<u64>) -> bool {
            view.frequency_margin() > self.t()
        }
        fn p2(&self, view: &View<u64>) -> bool {
            LegalityPair::<u64>::p2(&self.inner, view)
        }
        fn decide(&self, view: &View<u64>) -> Option<u64> {
            LegalityPair::<u64>::decide(&self.inner, view)
        }
        fn in_c1(&self, input: &InputVector<u64>, k: usize) -> bool {
            self.inner.in_c1(input, k)
        }
        fn in_c2(&self, input: &InputVector<u64>, k: usize) -> bool {
            self.inner.in_c2(input, k)
        }
    }

    #[test]
    fn checker_catches_weakened_p1() {
        let broken = BrokenPair {
            inner: FrequencyPair::new(SystemConfig::new(7, 1).unwrap()).unwrap(),
        };
        let err = check_la3(&broken, 7, &[0u64, 1]).unwrap_err();
        assert!(matches!(err, LegalityViolation::La3 { .. }));
    }

    /// A pair whose F ignores dominance: LU5 must catch it.
    #[derive(Clone, Debug)]
    struct ConstantDecider {
        inner: FrequencyPair,
    }

    impl LegalityPair<u64> for ConstantDecider {
        fn name(&self) -> &'static str {
            "const"
        }
        fn t(&self) -> usize {
            LegalityPair::<u64>::t(&self.inner)
        }
        fn p1(&self, view: &View<u64>) -> bool {
            LegalityPair::<u64>::p1(&self.inner, view)
        }
        fn p2(&self, view: &View<u64>) -> bool {
            LegalityPair::<u64>::p2(&self.inner, view)
        }
        fn decide(&self, _: &View<u64>) -> Option<u64> {
            Some(0)
        }
        fn in_c1(&self, input: &InputVector<u64>, k: usize) -> bool {
            self.inner.in_c1(input, k)
        }
        fn in_c2(&self, input: &InputVector<u64>, k: usize) -> bool {
            self.inner.in_c2(input, k)
        }
    }

    #[test]
    fn checker_catches_non_unanimous_decider() {
        let broken = ConstantDecider {
            inner: FrequencyPair::new(SystemConfig::new(7, 1).unwrap()).unwrap(),
        };
        let err = check_lu5(&broken, 7, &[0u64, 1]).unwrap_err();
        match err {
            LegalityViolation::Lu5 {
                dominant, decided, ..
            } => {
                assert_eq!(dominant, 1);
                assert_eq!(decided, Some(0));
            }
            other => panic!("expected Lu5, got {other:?}"),
        }
    }

    /// LT1 violation: a pair claiming a too-generous C¹ sequence.
    #[derive(Clone, Debug)]
    struct OverpromisingPair {
        inner: FrequencyPair,
    }

    impl LegalityPair<u64> for OverpromisingPair {
        fn name(&self) -> &'static str {
            "overpromise"
        }
        fn t(&self) -> usize {
            LegalityPair::<u64>::t(&self.inner)
        }
        fn p1(&self, view: &View<u64>) -> bool {
            LegalityPair::<u64>::p1(&self.inner, view)
        }
        fn p2(&self, view: &View<u64>) -> bool {
            LegalityPair::<u64>::p2(&self.inner, view)
        }
        fn decide(&self, view: &View<u64>) -> Option<u64> {
            LegalityPair::<u64>::decide(&self.inner, view)
        }
        fn in_c1(&self, input: &InputVector<u64>, _k: usize) -> bool {
            // Claims one-step termination for margin > 2t — too generous.
            input.to_view().frequency_margin() > 2 * self.t()
        }
        fn in_c2(&self, input: &InputVector<u64>, k: usize) -> bool {
            self.inner.in_c2(input, k)
        }
    }

    #[test]
    fn checker_catches_overpromising_c1() {
        let broken = OverpromisingPair {
            inner: FrequencyPair::new(SystemConfig::new(7, 1).unwrap()).unwrap(),
        };
        let err = check_lt1(&broken, 7, &[0u64, 1]).unwrap_err();
        assert!(matches!(err, LegalityViolation::Lt1 { .. }));
    }
}
