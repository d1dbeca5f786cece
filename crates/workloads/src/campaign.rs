//! Million-client campaign workload model.
//!
//! The paper's average-case claim is about *populations*, not single input
//! vectors: a replicated service fronting millions of clients sees skewed
//! request popularity (a few hot keys dominate), contention that varies
//! over time (calm traffic, flash crowds, dispersal), and per-replica bias
//! (each replica tends to propose requests from its own region first).
//! This module models exactly that and compiles it down to the repo's
//! deterministic seeded [`InputGenerator`] machinery, so a campaign over
//! thousands of seeds is still replayable run by run.
//!
//! Three layers:
//!
//! * [`PopulationModel`] — the symbolic description: client count, Zipf
//!   popularity skew, extra hot-key mass, per-process proposal bias.
//! * [`ClientPopulation`] — the *compiled* sampler: the Zipf popularity
//!   mass is summed once over all clients (O(clients)), keeping the
//!   running sum at every 64th rank. A draw binary-searches those
//!   checkpoints (O(log clients)) and re-adds at most 64 terms. The
//!   checkpoint table depends only on `(clients, skew)`, costs 125 KB per
//!   million clients, and is compiled once per process and shared by
//!   every population with that pair.
//! * [`ContentionPhase`] / [`PhaseSchedule`] — time-varying contention: a
//!   campaign's run sequence walks through phases (e.g. calm → flash crowd
//!   → dispersed), each with its own population model; the phase of run
//!   `i` is a pure function of `i`.
//!
//! Determinism: a compiled population draws only from the `StdRng` handed
//! to [`generate`](InputGenerator::generate); the checkpoint table is a
//! pure function of the model, and every sum a draw compares against is
//! bit-identical to the entry a full cumulative table would hold. Same
//! seed ⇒ same input vector, regardless of which worker thread runs the
//! sample (pinned by the proptest suite in `tests/prop_campaign.rs`).

use crate::InputGenerator;
use dex_types::InputVector;
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Symbolic description of a client population: who proposes what, how
/// often, and how contended it is.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PopulationModel {
    /// Number of distinct client request ids (the proposal-value domain).
    pub clients: u64,
    /// Zipf popularity exponent over client ranks (`s → 0` uniform chaos,
    /// large `s` one dominant request).
    pub skew: f64,
    /// Extra probability mass pinned on the single hottest id — the
    /// "everyone sees the same breaking request" regime, layered on top of
    /// the Zipf tail.
    pub hot: f64,
    /// Probability that a process proposes its *own* preferred client id
    /// (a deterministic per-process "home" key) instead of a popularity
    /// draw — regional bias working against convergence.
    pub bias: f64,
}

impl PopulationModel {
    /// A calm, convergent population: strong hot key, little bias.
    pub const CALM: PopulationModel = PopulationModel {
        clients: 1_000_000,
        skew: 1.2,
        hot: 0.9,
        bias: 0.0,
    };

    /// A contended flash-crowd population: several keys competing, some
    /// regional bias.
    pub const CONTENDED: PopulationModel = PopulationModel {
        clients: 1_000_000,
        skew: 0.8,
        hot: 0.3,
        bias: 0.2,
    };

    /// A dispersed population: weak skew, strong bias — the worst case for
    /// any fast path.
    pub const DISPERSED: PopulationModel = PopulationModel {
        clients: 1_000_000,
        skew: 0.2,
        hot: 0.0,
        bias: 0.5,
    };

    /// Compiles the model into a sampler. The Zipf checkpoint table is
    /// built on the first compile of a `(clients, skew)` pair in this
    /// process and shared by every later one, so compiling per phase, per
    /// campaign or per run costs one table lookup after the first.
    ///
    /// # Panics
    ///
    /// Panics on an empty client population, probabilities outside
    /// `[0, 1]`, or a skew whose total Zipf mass is not finite and positive
    /// (a NaN skew, or a negative one large enough to overflow).
    pub fn compile(&self) -> ClientPopulation {
        assert!(self.clients > 0, "population must be non-empty");
        assert!(
            (0.0..=1.0).contains(&self.hot),
            "hot probability out of [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.bias),
            "bias probability out of [0, 1]"
        );
        ClientPopulation {
            model: *self,
            zipf: ZipfTable::shared(self.clients, self.skew),
        }
    }
}

/// Ranks per checkpoint of a [`ZipfTable`].
const BLOCK: u64 = 64;

/// The unnormalized Zipf mass of one rank (1-based). Compiling and drawing
/// both add exactly these terms in rank order, which is what makes every
/// running sum a draw recomputes bit-identical to the compiled one.
fn zipf_term(rank: u64, skew: f64) -> f64 {
    1.0 / (rank as f64).powf(skew)
}

/// The compiled Zipf popularity of one `(clients, skew)` pair: the running
/// mass at every [`BLOCK`]th rank instead of a full cumulative table.
#[derive(Debug)]
struct ZipfTable {
    clients: u64,
    skew: f64,
    /// `checkpoints[b]` = unnormalized mass of ranks `1..=64·b`
    /// (`checkpoints[0] = 0.0`), one entry per block of 64 ranks.
    checkpoints: Vec<f64>,
    /// Unnormalized mass of all ranks.
    total: f64,
}

impl ZipfTable {
    /// The process-wide table of `(clients, skew)`, built on first use.
    /// The cache lock is not held while building, so two threads may
    /// build the same table at once; the first one stored is the one
    /// every caller gets.
    fn shared(clients: u64, skew: f64) -> Arc<ZipfTable> {
        static CACHE: Mutex<BTreeMap<(u64, u64), Arc<ZipfTable>>> = Mutex::new(BTreeMap::new());
        let key = (clients, skew.to_bits());
        let lock = || {
            CACHE
                .lock()
                .expect("no code panics holding the Zipf cache lock")
        };
        if let Some(table) = lock().get(&key) {
            return Arc::clone(table);
        }
        let table = Arc::new(ZipfTable::build(clients, skew));
        Arc::clone(lock().entry(key).or_insert(table))
    }

    fn build(clients: u64, skew: f64) -> ZipfTable {
        let mut checkpoints = Vec::with_capacity(clients.div_ceil(BLOCK) as usize);
        let mut total = 0.0;
        for rank in 1..=clients {
            if (rank - 1) % BLOCK == 0 {
                checkpoints.push(total);
            }
            total += zipf_term(rank, skew);
        }
        assert!(
            total.is_finite() && total > 0.0,
            "Zipf mass of {clients} clients at skew {skew} is {total}, not finite and positive"
        );
        ZipfTable {
            clients,
            skew,
            checkpoints,
            total,
        }
    }

    /// The 0-based rank a draw `x` lands on: the first rank whose running
    /// mass exceeds `x` — `partition_point(|c| c <= x)` over the full
    /// cumulative table, so `clients` for an `x` at or above the total.
    /// Binary-searches the checkpoints for the last one `<= x`, then
    /// re-adds at most [`BLOCK`] terms from it in compile order.
    fn rank(&self, x: f64) -> u64 {
        let block = self
            .checkpoints
            .partition_point(|&c| c <= x)
            .saturating_sub(1);
        let first = block as u64 * BLOCK;
        let mut sum = self.checkpoints[block];
        for rank in first..(first + BLOCK).min(self.clients) {
            sum += zipf_term(rank + 1, self.skew);
            if sum > x {
                return rank;
            }
        }
        self.clients
    }
}

/// A compiled [`PopulationModel`]: the shared, read-only sampler a whole
/// campaign phase draws its input vectors from.
#[derive(Clone, Debug)]
pub struct ClientPopulation {
    model: PopulationModel,
    zipf: Arc<ZipfTable>,
}

impl ClientPopulation {
    /// The model this sampler was compiled from.
    pub fn model(&self) -> &PopulationModel {
        &self.model
    }

    /// The deterministic "home" client id of process `i` — the key its
    /// bias draws propose. Spread multiplicatively so neighbouring
    /// processes do not share a home key.
    pub fn home(&self, process: usize) -> u64 {
        (process as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1)
            % self.model.clients
    }

    /// One proposal of process `i`: bias draw, then hot-key draw, then the
    /// Zipf tail. Exactly three RNG decisions per proposal, in a fixed
    /// order, so replay is trivially stable. The Zipf draw (client id in
    /// `0..clients`, id 0 being the hottest rank) is always taken but only
    /// searched for when it is the one proposed.
    pub fn propose(&self, process: usize, rng: &mut StdRng) -> u64 {
        let biased = rng.random_bool(self.model.bias);
        let hot = rng.random_bool(self.model.hot);
        let x = rng.next_f64() * self.zipf.total;
        if biased {
            self.home(process)
        } else if hot {
            0
        } else {
            self.zipf.rank(x)
        }
    }
}

impl InputGenerator for ClientPopulation {
    fn generate(&self, n: usize, rng: &mut StdRng) -> InputVector<u64> {
        (0..n).map(|i| self.propose(i, rng)).collect()
    }

    fn name(&self) -> String {
        format!(
            "population(|C|={}, s={:.2}, hot={:.2}, bias={:.2})",
            self.model.clients, self.model.skew, self.model.hot, self.model.bias
        )
    }
}

/// One stretch of a campaign's run sequence with a fixed population model.
#[derive(Clone, PartialEq, Debug)]
pub struct ContentionPhase {
    /// Short label for artifacts and reports (e.g. `"calm"`).
    pub label: String,
    /// The population active during this phase.
    pub model: PopulationModel,
    /// How many consecutive runs the phase covers (must be ≥ 1).
    pub runs: usize,
}

impl ContentionPhase {
    /// Convenience constructor.
    pub fn new(label: &str, model: PopulationModel, runs: usize) -> Self {
        assert!(runs > 0, "a phase must cover at least one run");
        ContentionPhase {
            label: label.to_string(),
            model,
            runs,
        }
    }
}

/// A cyclic schedule of contention phases over a campaign's run indices.
///
/// Run `i` belongs to the phase containing `i mod total_runs()` — the
/// schedule tiles an arbitrarily long seed sequence, so "2 000 seeds of
/// calm/crowd/dispersed in proportion 2:1:1" is one schedule regardless of
/// the campaign's size.
#[derive(Clone, PartialEq, Debug)]
pub struct PhaseSchedule {
    phases: Vec<ContentionPhase>,
}

impl PhaseSchedule {
    /// Builds a schedule from its phases.
    ///
    /// # Panics
    ///
    /// Panics on an empty phase list.
    pub fn new(phases: Vec<ContentionPhase>) -> Self {
        assert!(!phases.is_empty(), "a schedule needs at least one phase");
        PhaseSchedule { phases }
    }

    /// The canonical three-phase day: calm traffic, a flash crowd, then
    /// dispersal, in proportion 2:1:1.
    pub fn canonical(runs_per_cycle: usize) -> Self {
        assert!(
            runs_per_cycle >= 4,
            "the canonical cycle needs ≥ 4 runs (2:1:1 split)"
        );
        let quarter = runs_per_cycle / 4;
        PhaseSchedule::new(vec![
            ContentionPhase::new("calm", PopulationModel::CALM, runs_per_cycle - 2 * quarter),
            ContentionPhase::new("crowd", PopulationModel::CONTENDED, quarter),
            ContentionPhase::new("dispersed", PopulationModel::DISPERSED, quarter),
        ])
    }

    /// The phases, in schedule order.
    pub fn phases(&self) -> &[ContentionPhase] {
        &self.phases
    }

    /// Length of one schedule cycle in runs.
    pub fn cycle_runs(&self) -> usize {
        self.phases.iter().map(|p| p.runs).sum()
    }

    /// The phase index of run `i` (cyclic).
    pub fn phase_index(&self, run: usize) -> usize {
        let mut offset = run % self.cycle_runs();
        for (idx, phase) in self.phases.iter().enumerate() {
            if offset < phase.runs {
                return idx;
            }
            offset -= phase.runs;
        }
        unreachable!("offset < cycle_runs by construction")
    }

    /// The phase of run `i` (cyclic).
    pub fn phase_at(&self, run: usize) -> &ContentionPhase {
        &self.phases[self.phase_index(run)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// The reference sampler: the full cumulative table (`table[k]` = mass
    /// of ranks `1..=k+1`, summed in rank order) and its `partition_point`.
    fn full_table(clients: u64, skew: f64) -> Vec<f64> {
        let mut total = 0.0;
        (1..=clients)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(skew);
                total
            })
            .collect()
    }

    fn full_rank(table: &[f64], x: f64) -> u64 {
        table.partition_point(|&c| c <= x) as u64
    }

    /// Asserts the checkpoint search agrees with the full table on `x`
    /// and on each exact cumulative value the `probe` filter keeps, ± 1
    /// ulp.
    fn assert_ranks_match(
        zipf: &ZipfTable,
        table: &[f64],
        xs: impl IntoIterator<Item = f64>,
        probe: impl Fn(usize) -> bool,
    ) {
        assert_eq!(zipf.total.to_bits(), table.last().unwrap().to_bits());
        let exact = table
            .iter()
            .enumerate()
            .filter(|(k, _)| probe(*k))
            .flat_map(|(_, &c)| [c.next_down(), c, c.next_up()]);
        for x in xs.into_iter().chain(exact) {
            assert_eq!(
                zipf.rank(x),
                full_rank(table, x),
                "clients {} skew {} x {x:e}",
                zipf.clients,
                zipf.skew
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 48,
            ..ProptestConfig::default()
        })]

        #[test]
        fn checkpoint_rank_matches_the_full_table(
            clients in prop_oneof![
                1u64..=3_000,
                (1u64..=46).prop_map(|b| b * BLOCK),
                (1u64..=46).prop_map(|b| b * BLOCK + 1),
                (1u64..=46).prop_map(|b| b * BLOCK - 1),
            ],
            skew in prop_oneof![Just(0.2), Just(0.8), Just(1.0), Just(1.2)],
            unit in proptest::collection::vec(0.0f64..1.0, 256),
        ) {
            let zipf = ZipfTable::build(clients, skew);
            let table = full_table(clients, skew);
            assert_ranks_match(&zipf, &table, unit.iter().map(|u| u * zipf.total), |_| true);
        }
    }

    #[test]
    fn checkpoint_rank_matches_the_full_table_on_the_presets() {
        for model in [
            PopulationModel::CALM,
            PopulationModel::CONTENDED,
            PopulationModel::DISPERSED,
        ] {
            let pop = model.compile();
            let table = full_table(model.clients, model.skew);
            let mut draws = rng(11);
            let xs: Vec<f64> = (0..20_000)
                .map(|_| draws.next_f64() * pop.zipf.total)
                .collect();
            // Every exact value in the first blocks, where the mass is;
            // a prime stride, off every block boundary, beyond them.
            assert_ranks_match(&pop.zipf, &table, xs, |k| k < 1_024 || k % 997 == 0);
        }
    }

    #[test]
    fn presets_draw_what_the_full_table_drew() {
        let expect: [(PopulationModel, [[u64; 13]; 3]); 3] = [
            (
                PopulationModel::CALM,
                [
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                    [0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 3, 0],
                    [0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                ],
            ),
            (
                PopulationModel::CONTENDED,
                [
                    [
                        9673, 198486, 4179, 43840, 690709, 118, 3224, 182932, 211, 8, 8892, 944, 0,
                    ],
                    [
                        76, 0, 68, 43840, 690709, 337578, 2647, 0, 641, 229824, 43788, 6128, 520509,
                    ],
                    [
                        1, 29905, 919301, 43840, 0, 337578, 536063, 53679, 0, 28286, 0, 106413,
                        434813,
                    ],
                ],
            ),
            (
                PopulationModel::DISPERSED,
                [
                    [
                        1, 198486, 217309, 43840, 690709, 337578, 536063, 182932, 381417, 20215,
                        675155, 136934, 653765,
                    ],
                    [
                        56345, 517617, 53861, 43840, 690709, 337578, 189221, 331555, 381417,
                        674881, 428150, 243567, 520509,
                    ],
                    [
                        1, 198486, 977952, 43840, 414821, 337578, 536063, 182932, 1472, 28286,
                        428440, 547312, 520509,
                    ],
                ],
            ),
        ];
        for (model, rows) in expect {
            let pop = model.compile();
            for (seed, row) in [0, 1, 7].into_iter().zip(rows) {
                let input = pop.generate(13, &mut rng(seed));
                assert_eq!(input.as_slice(), row, "{} seed {seed}", pop.name());
            }
        }
    }

    #[test]
    fn one_table_per_clients_and_skew() {
        let a = PopulationModel::CONTENDED.compile();
        let b = PopulationModel {
            hot: 0.0,
            bias: 1.0,
            ..PopulationModel::CONTENDED
        }
        .compile();
        assert!(Arc::ptr_eq(&a.zipf, &b.zipf));
        assert_eq!(a.zipf.checkpoints.len(), 15_625);
        assert!(!Arc::ptr_eq(&a.zipf, &PopulationModel::CALM.compile().zipf));
    }

    #[test]
    #[should_panic(expected = "not finite and positive")]
    fn overflowing_zipf_mass_is_rejected() {
        let _ = PopulationModel {
            clients: 10,
            skew: -1000.0,
            hot: 0.0,
            bias: 0.0,
        }
        .compile();
    }

    #[test]
    fn compiled_population_is_deterministic_per_seed() {
        let pop = PopulationModel::CONTENDED.compile();
        let a = pop.generate(13, &mut rng(7));
        let b = pop.generate(13, &mut rng(7));
        assert_eq!(a, b);
        // A fresh compilation of the same model draws identically too.
        let again = PopulationModel::CONTENDED.compile();
        assert_eq!(again.generate(13, &mut rng(7)), a);
    }

    #[test]
    fn hot_mass_concentrates_on_the_hottest_id() {
        let pop = PopulationModel {
            clients: 1000,
            skew: 1.0,
            hot: 0.9,
            bias: 0.0,
        }
        .compile();
        let input = pop.generate(500, &mut rng(3));
        // 90% pinned hot mass plus the Zipf head: id 0 dominates clearly.
        assert!(input.count_of(&0) > 400, "got {}", input.count_of(&0));
    }

    #[test]
    fn bias_proposes_the_per_process_home_key() {
        let pop = PopulationModel {
            clients: 1_000_000,
            skew: 1.0,
            hot: 0.0,
            bias: 1.0,
        }
        .compile();
        let input = pop.generate(9, &mut rng(4));
        for (i, v) in input.as_slice().iter().enumerate() {
            assert_eq!(*v, pop.home(i), "process {i}");
        }
        // Home keys are spread: no two of the first 9 processes collide.
        let mut homes: Vec<u64> = (0..9).map(|i| pop.home(i)).collect();
        homes.sort_unstable();
        homes.dedup();
        assert_eq!(homes.len(), 9);
    }

    #[test]
    fn draws_stay_in_the_client_domain() {
        let pop = PopulationModel {
            clients: 17,
            skew: 0.0,
            hot: 0.1,
            bias: 0.1,
        }
        .compile();
        let input = pop.generate(200, &mut rng(5));
        assert!(input.as_slice().iter().all(|v| *v < 17));
    }

    #[test]
    fn zero_skew_is_near_uniform() {
        let pop = PopulationModel {
            clients: 10,
            skew: 0.0,
            hot: 0.0,
            bias: 0.0,
        }
        .compile();
        let input = pop.generate(1000, &mut rng(6));
        let max = (0..10).map(|v| input.count_of(&v)).max().unwrap();
        assert!(max < 200, "got {max}");
    }

    #[test]
    fn phase_schedule_boundaries_are_exact() {
        let sched = PhaseSchedule::new(vec![
            ContentionPhase::new("a", PopulationModel::CALM, 3),
            ContentionPhase::new("b", PopulationModel::CONTENDED, 1),
            ContentionPhase::new("c", PopulationModel::DISPERSED, 2),
        ]);
        assert_eq!(sched.cycle_runs(), 6);
        // Exact boundaries: runs 0-2 → a, 3 → b, 4-5 → c.
        let expect = [0, 0, 0, 1, 2, 2];
        for (run, want) in expect.iter().enumerate() {
            assert_eq!(sched.phase_index(run), *want, "run {run}");
        }
        // Cyclic: the second cycle repeats the first exactly.
        for run in 0..6 {
            assert_eq!(sched.phase_index(run + 6), sched.phase_index(run));
        }
        assert_eq!(sched.phase_at(3).label, "b");
        assert_eq!(sched.phase_at(5).label, "c");
    }

    #[test]
    fn canonical_schedule_splits_two_one_one() {
        let sched = PhaseSchedule::canonical(8);
        assert_eq!(sched.cycle_runs(), 8);
        assert_eq!(sched.phases().len(), 3);
        assert_eq!(sched.phase_at(0).label, "calm");
        assert_eq!(sched.phase_at(3).label, "calm");
        assert_eq!(sched.phase_at(4).label, "crowd");
        assert_eq!(sched.phase_at(6).label, "dispersed");
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedule_is_rejected() {
        let _ = PhaseSchedule::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_phase_is_rejected() {
        let _ = ContentionPhase::new("x", PopulationModel::CALM, 0);
    }
}
