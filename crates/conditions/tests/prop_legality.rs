//! Property-based legality checks on instances too large to enumerate
//! exhaustively: sampled views and inputs must never violate the legality
//! criteria of §3.2 for either pair.

use dex_conditions::{FrequencyPair, LegalityPair, PrivilegedPair};
use dex_types::{InputVector, SystemConfig, View};
use proptest::prelude::*;

const N: usize = 13;
const T: usize = 2;

fn view_strategy(domain: u64, max_bottom: usize) -> impl Strategy<Value = View<u64>> {
    (
        proptest::collection::vec(0..domain, N),
        proptest::collection::vec(0usize..N, 0..=max_bottom),
    )
        .prop_map(|(values, bottoms)| {
            let mut entries: Vec<Option<u64>> = values.into_iter().map(Some).collect();
            for b in bottoms {
                entries[b] = None;
            }
            View::from_options(entries)
        })
}

fn vector_strategy(domain: u64) -> impl Strategy<Value = InputVector<u64>> {
    proptest::collection::vec(0..domain, N).prop_map(InputVector::new)
}

fn freq() -> FrequencyPair {
    FrequencyPair::new(SystemConfig::new(N, T).unwrap()).unwrap()
}

fn prv() -> PrivilegedPair<u64> {
    PrivilegedPair::new(SystemConfig::new(N, T).unwrap(), 1u64).unwrap()
}

/// `∃I, I' : J ≤ I ∧ J' ≤ I' ∧ dist(I, I') ≤ t` in closed form.
fn linkable(a: &View<u64>, b: &View<u64>) -> bool {
    a.iter()
        .zip(b.iter())
        .filter(|((_, x), (_, y))| x.is_some() && y.is_some() && x != y)
        .count()
        <= T
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn la3_sampled_frequency(a in view_strategy(3, T), b in view_strategy(3, T)) {
        let pair = freq();
        if LegalityPair::<u64>::p1(&pair, &a) && linkable(&a, &b) {
            prop_assert_eq!(pair.decide(&a), pair.decide(&b),
                "LA3 violated: {} vs {}", a, b);
        }
    }

    #[test]
    fn la4_sampled_frequency(a in view_strategy(3, T), b in view_strategy(3, T)) {
        let pair = freq();
        if LegalityPair::<u64>::p2(&pair, &a) && a.is_compatible_with(&b) {
            prop_assert_eq!(pair.decide(&a), pair.decide(&b),
                "LA4 violated: {} vs {}", a, b);
        }
    }

    #[test]
    fn la3_sampled_privileged(a in view_strategy(3, T), b in view_strategy(3, T)) {
        let pair = prv();
        if pair.p1(&a) && linkable(&a, &b) {
            prop_assert_eq!(pair.decide(&a), pair.decide(&b));
        }
    }

    #[test]
    fn la4_sampled_privileged(a in view_strategy(3, T), b in view_strategy(3, T)) {
        let pair = prv();
        if pair.p2(&a) && a.is_compatible_with(&b) {
            prop_assert_eq!(pair.decide(&a), pair.decide(&b));
        }
    }

    #[test]
    fn lt1_lt2_sampled_frequency(
        input in vector_strategy(3),
        bottoms in proptest::collection::vec(0usize..N, 0..=T),
        k in 0usize..=T,
    ) {
        // Build J from I by blanking ≤ k entries: dist(J, I) ≤ k holds by
        // construction, so membership in C¹_k / C²_k must force P1 / P2.
        if bottoms.len() > k {
            return Ok(());
        }
        let mut entries: Vec<Option<u64>> =
            input.as_slice().iter().cloned().map(Some).collect();
        for b in &bottoms {
            entries[*b] = None;
        }
        let view = View::from_options(entries);
        let pair = freq();
        if pair.in_c1(&input, k) {
            prop_assert!(LegalityPair::<u64>::p1(&pair, &view),
                "LT1 violated: {} from {}", view, input);
        }
        if pair.in_c2(&input, k) {
            prop_assert!(LegalityPair::<u64>::p2(&pair, &view),
                "LT2 violated: {} from {}", view, input);
        }
    }

    #[test]
    fn lt1_lt2_sampled_privileged(
        input in vector_strategy(3),
        bottoms in proptest::collection::vec(0usize..N, 0..=T),
        k in 0usize..=T,
    ) {
        if bottoms.len() > k {
            return Ok(());
        }
        let mut entries: Vec<Option<u64>> =
            input.as_slice().iter().cloned().map(Some).collect();
        for b in &bottoms {
            entries[*b] = None;
        }
        let view = View::from_options(entries);
        let pair = prv();
        if pair.in_c1(&input, k) {
            prop_assert!(pair.p1(&view));
        }
        if pair.in_c2(&input, k) {
            prop_assert!(pair.p2(&view));
        }
    }

    #[test]
    fn lu5_sampled(view in view_strategy(4, T)) {
        // When a unique value tops t occurrences, both pairs must decide it.
        let hist = view.histogram();
        let over: Vec<u64> = hist
            .iter()
            .filter(|(_, c)| **c > T)
            .map(|(v, _)| **v)
            .collect();
        if let [dominant] = over.as_slice() {
            prop_assert_eq!(freq().decide(&view), Some(*dominant));
            prop_assert_eq!(prv().decide(&view), Some(*dominant));
        }
    }

    #[test]
    fn condition_sequences_are_monotone(input in vector_strategy(3), k in 0usize..T) {
        // C_k ⊇ C_{k+1} for all four sequences (§2.3 adaptiveness).
        let f = freq();
        let p = prv();
        if f.in_c1(&input, k + 1) { prop_assert!(f.in_c1(&input, k)); }
        if f.in_c2(&input, k + 1) { prop_assert!(f.in_c2(&input, k)); }
        if p.in_c1(&input, k + 1) { prop_assert!(p.in_c1(&input, k)); }
        if p.in_c2(&input, k + 1) { prop_assert!(p.in_c2(&input, k)); }
    }

    #[test]
    fn c1_is_inside_c2(input in vector_strategy(3), k in 0usize..=T) {
        // One-step inputs are a fortiori two-step inputs: C¹_k ⊆ C²_k.
        let f = freq();
        let p = prv();
        if f.in_c1(&input, k) { prop_assert!(f.in_c2(&input, k)); }
        if p.in_c1(&input, k) { prop_assert!(p.in_c2(&input, k)); }
    }

    #[test]
    fn p1_implies_p2(view in view_strategy(3, T)) {
        let f = freq();
        let p = prv();
        if LegalityPair::<u64>::p1(&f, &view) {
            prop_assert!(LegalityPair::<u64>::p2(&f, &view));
        }
        if p.p1(&view) { prop_assert!(p.p2(&view)); }
    }
}
