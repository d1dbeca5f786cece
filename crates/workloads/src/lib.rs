//! Seeded input-vector generators.
//!
//! Each generator produces the *input vector* (§2.3) of one consensus run —
//! the `n`-tuple of nominal proposals. The experiment harness assigns the
//! entries of correct processes as proposals and hands the entries of
//! Byzantine processes to the adversary as its nominal values (which it is
//! free to betray).
//!
//! The generators map to the paper's motivating scenarios:
//!
//! * [`Unanimous`] / [`KDissent`] — the classic "all processes propose the
//!   same value" situation (client broadcast without contention, §1.1) and
//!   its almost-unanimous perturbations.
//! * [`SplitCount`] — exact two-value splits, parameterised by the minority
//!   size: the knob for frequency-margin sweeps (experiments E4–E6).
//! * [`BernoulliMix`] — each process proposes `a` with probability `p`,
//!   else `b`: the atomic-commitment workload (Commit vs Abort, §3.4).
//! * [`UniformRandom`] — maximal disorder over a value domain.
//! * [`ZipfRequests`] — replicated-state-machine request contention: values
//!   are client request ids drawn from a Zipf distribution; the skew `s`
//!   controls how often all replicas see the same hot request (§1.1).
//! * [`campaign`] — the million-client population model behind the
//!   `dex-campaign` testbed sweeps: precompiled Zipf popularity tables,
//!   hot-key mass, per-process proposal bias, and time-varying
//!   [`ContentionPhase`] schedules.
//!
//! # Examples
//!
//! ```
//! use dex_workloads::{InputGenerator, SplitCount};
//! use rand::SeedableRng;
//!
//! let gen = SplitCount { major: 1, minor: 0, minor_count: 2 };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let input = gen.generate(9, &mut rng);
//! assert_eq!(input.count_of(&1), 7);
//! assert_eq!(input.count_of(&0), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod campaign;

pub use batch::{chunk_batches, slot_batches, ClientStream};
pub use campaign::{ClientPopulation, ContentionPhase, PhaseSchedule, PopulationModel};

use dex_types::InputVector;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// A seeded generator of input vectors over `u64` proposal values.
pub trait InputGenerator {
    /// Generates one input vector for `n` processes.
    ///
    /// # Panics
    ///
    /// Implementations panic when the parameters cannot fit `n` (e.g. more
    /// dissenters than processes).
    fn generate(&self, n: usize, rng: &mut StdRng) -> InputVector<u64>;

    /// A short description for reports.
    fn name(&self) -> String;
}

/// Every process proposes `value`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Unanimous {
    /// The common proposal.
    pub value: u64,
}

impl InputGenerator for Unanimous {
    fn generate(&self, n: usize, _rng: &mut StdRng) -> InputVector<u64> {
        InputVector::unanimous(n, self.value)
    }

    fn name(&self) -> String {
        format!("unanimous({})", self.value)
    }
}

/// A fixed input vector: every run proposes exactly these entries (the rng
/// is not drawn from). Experiments that pin positions — say, the last `f`
/// processes faulty on a known split — batch over one vector this way.
impl InputGenerator for InputVector<u64> {
    fn generate(&self, n: usize, _rng: &mut StdRng) -> InputVector<u64> {
        assert_eq!(
            self.n(),
            n,
            "fixed input vector does not match the system size"
        );
        self.clone()
    }

    fn name(&self) -> String {
        format!("fixed{:?}", self.as_slice())
    }
}

/// `k` processes at random positions propose `dissent`, the rest `value`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KDissent {
    /// The majority proposal.
    pub value: u64,
    /// The dissenting proposal.
    pub dissent: u64,
    /// Number of dissenters.
    pub k: usize,
}

impl InputGenerator for KDissent {
    fn generate(&self, n: usize, rng: &mut StdRng) -> InputVector<u64> {
        assert!(self.k <= n, "more dissenters than processes");
        let mut entries = vec![self.value; n];
        let mut positions: Vec<usize> = (0..n).collect();
        positions.shuffle(rng);
        for &pos in positions.iter().take(self.k) {
            entries[pos] = self.dissent;
        }
        InputVector::new(entries)
    }

    fn name(&self) -> String {
        format!("{}-dissent({}/{})", self.k, self.value, self.dissent)
    }
}

/// An exact two-value split: `minor_count` processes propose `minor`, the
/// rest `major`, at shuffled positions. The frequency margin of the vector
/// is `n − 2 · minor_count` (when `major ≠ minor`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SplitCount {
    /// The majority proposal.
    pub major: u64,
    /// The minority proposal.
    pub minor: u64,
    /// Number of minority proposers.
    pub minor_count: usize,
}

impl InputGenerator for SplitCount {
    fn generate(&self, n: usize, rng: &mut StdRng) -> InputVector<u64> {
        assert!(self.minor_count <= n, "minority larger than the system");
        let mut entries = vec![self.major; n];
        let mut positions: Vec<usize> = (0..n).collect();
        positions.shuffle(rng);
        for &pos in positions.iter().take(self.minor_count) {
            entries[pos] = self.minor;
        }
        InputVector::new(entries)
    }

    fn name(&self) -> String {
        format!("split({}x{})", self.minor_count, self.minor)
    }
}

/// Each process independently proposes `a` with probability `p`, else `b` —
/// the atomic-commitment workload (`a` = Commit).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BernoulliMix {
    /// Probability of proposing `a`.
    pub p: f64,
    /// The favoured value (e.g. Commit).
    pub a: u64,
    /// The alternative value (e.g. Abort).
    pub b: u64,
}

impl InputGenerator for BernoulliMix {
    fn generate(&self, n: usize, rng: &mut StdRng) -> InputVector<u64> {
        (0..n)
            .map(|_| {
                if rng.random_bool(self.p) {
                    self.a
                } else {
                    self.b
                }
            })
            .collect()
    }

    fn name(&self) -> String {
        format!("bernoulli(p={:.2})", self.p)
    }
}

/// Uniformly random values in `0..domain`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UniformRandom {
    /// Size of the value domain.
    pub domain: u64,
}

impl InputGenerator for UniformRandom {
    fn generate(&self, n: usize, rng: &mut StdRng) -> InputVector<u64> {
        assert!(self.domain > 0, "domain must be non-empty");
        (0..n).map(|_| rng.random_range(0..self.domain)).collect()
    }

    fn name(&self) -> String {
        format!("uniform(|V|={})", self.domain)
    }
}

/// Replicated-state-machine contention: each replica proposes the id of the
/// next client request it saw, drawn from a Zipf distribution over
/// `1..=domain` with exponent `s`. Large `s` ⇒ one hot request dominates ⇒
/// near-unanimous inputs; `s → 0` ⇒ uniform chaos.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ZipfRequests {
    /// Number of distinct outstanding requests.
    pub domain: u64,
    /// Skew exponent.
    pub s: f64,
}

impl ZipfRequests {
    fn weights(&self) -> Vec<f64> {
        (1..=self.domain)
            .map(|rank| 1.0 / (rank as f64).powf(self.s))
            .collect()
    }
}

impl InputGenerator for ZipfRequests {
    fn generate(&self, n: usize, rng: &mut StdRng) -> InputVector<u64> {
        assert!(self.domain > 0, "domain must be non-empty");
        let weights = self.weights();
        let total: f64 = weights.iter().sum();
        (0..n)
            .map(|_| {
                let mut x = rng.random_range(0.0..total);
                for (i, w) in weights.iter().enumerate() {
                    if x < *w {
                        return i as u64;
                    }
                    x -= w;
                }
                self.domain - 1
            })
            .collect()
    }

    fn name(&self) -> String {
        format!("zipf(|V|={}, s={:.2})", self.domain, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn unanimous_is_unanimous() {
        let input = Unanimous { value: 4 }.generate(9, &mut rng(0));
        assert_eq!(input.count_of(&4), 9);
        assert_eq!(Unanimous { value: 4 }.name(), "unanimous(4)");
    }

    #[test]
    fn a_fixed_vector_ignores_the_rng() {
        let fixed = InputVector::new(vec![0, 0, 1, 1, 1]);
        assert_eq!(fixed.generate(5, &mut rng(1)), fixed);
        assert_eq!(fixed.generate(5, &mut rng(2)), fixed);
        assert_eq!(fixed.name(), "fixed[0, 0, 1, 1, 1]");
    }

    #[test]
    fn k_dissent_counts() {
        let gen = KDissent {
            value: 1,
            dissent: 2,
            k: 3,
        };
        let input = gen.generate(10, &mut rng(1));
        assert_eq!(input.count_of(&1), 7);
        assert_eq!(input.count_of(&2), 3);
    }

    #[test]
    #[should_panic(expected = "more dissenters")]
    fn k_dissent_overflow_panics() {
        let _ = KDissent {
            value: 1,
            dissent: 2,
            k: 11,
        }
        .generate(10, &mut rng(1));
    }

    #[test]
    fn split_count_margin_is_exact() {
        for minor_count in 0..=4 {
            let gen = SplitCount {
                major: 7,
                minor: 3,
                minor_count,
            };
            let input = gen.generate(9, &mut rng(2));
            assert_eq!(input.count_of(&3), minor_count);
            let margin = input.to_view().frequency_margin();
            assert_eq!(margin, 9 - 2 * minor_count);
        }
    }

    #[test]
    fn split_positions_vary_with_seed() {
        let gen = SplitCount {
            major: 1,
            minor: 0,
            minor_count: 3,
        };
        let a = gen.generate(12, &mut rng(3));
        let b = gen.generate(12, &mut rng(4));
        assert_ne!(a, b, "positions should be shuffled differently");
        // Same seed ⇒ same vector.
        assert_eq!(gen.generate(12, &mut rng(3)), a);
    }

    #[test]
    fn bernoulli_extremes() {
        let all_a = BernoulliMix { p: 1.0, a: 1, b: 0 }.generate(20, &mut rng(5));
        assert_eq!(all_a.count_of(&1), 20);
        let all_b = BernoulliMix { p: 0.0, a: 1, b: 0 }.generate(20, &mut rng(5));
        assert_eq!(all_b.count_of(&0), 20);
    }

    #[test]
    fn uniform_stays_in_domain() {
        let gen = UniformRandom { domain: 3 };
        let input = gen.generate(100, &mut rng(6));
        assert!(input.as_slice().iter().all(|v| *v < 3));
        // All three values appear in 100 draws with overwhelming probability.
        for v in 0..3 {
            assert!(input.count_of(&v) > 0);
        }
    }

    #[test]
    fn zipf_rank_one_dominates_with_high_skew() {
        let gen = ZipfRequests { domain: 10, s: 3.0 };
        let mut r = rng(7);
        let mut zero_count = 0;
        for _ in 0..50 {
            let input = gen.generate(10, &mut r);
            zero_count += input.count_of(&0);
        }
        // With s = 3, rank 1 carries ~83% of the mass.
        assert!(zero_count > 300, "got {zero_count}/500");
    }

    #[test]
    fn zipf_low_skew_is_spread_out() {
        let gen = ZipfRequests {
            domain: 10,
            s: 0.01,
        };
        let mut r = rng(8);
        let input = gen.generate(1000, &mut r);
        // Near-uniform: the top value should be well under a third.
        let max_count = (0..10).map(|v| input.count_of(&v)).max().unwrap();
        assert!(max_count < 300, "got {max_count}");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let gens: Vec<Box<dyn InputGenerator>> = vec![
            Box::new(Unanimous { value: 1 }),
            Box::new(KDissent {
                value: 1,
                dissent: 0,
                k: 2,
            }),
            Box::new(BernoulliMix { p: 0.5, a: 1, b: 0 }),
            Box::new(UniformRandom { domain: 5 }),
            Box::new(ZipfRequests { domain: 5, s: 1.0 }),
        ];
        for g in &gens {
            assert_eq!(
                g.generate(11, &mut rng(9)),
                g.generate(11, &mut rng(9)),
                "{} not deterministic",
                g.name()
            );
        }
    }
}
