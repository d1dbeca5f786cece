//! Single-run and batch experiment execution.

use crate::nodes::{BoscoNode, CrashNode, DexNode, PlainNode};
use crate::spec::ChaosSpec;
use crate::ucwrap::AnyUc;
use dex_adversary::{ByzantineActor, ByzantineStrategy, FaultPlan};
use dex_baselines::{
    BoscoActor, BoscoPath, BoscoProcess, CrashActor, CrashOneStep, CrashPath, CrashRule,
    UnderlyingOnlyActor, UnderlyingOnlyProcess,
};
use dex_conditions::{FrequencyPair, PrivilegedPair};
use dex_core::{DecisionPath, DexActor, DexProcess};
use dex_metrics::{Counter, Summary};
use dex_obs::{obs_code, ChaosMeta, ProcessTrace, RunTrace, SchemeRules, TraceMeta};
use dex_simnet::{DelayModel, FaultSchedule, Simulation};
use dex_types::{InputVector, ProcessId, SystemConfig};
use dex_workloads::InputGenerator;
use rand::rngs::StdRng;

/// Which algorithm a run executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    /// DEX with the frequency-based pair (`n > 6t`).
    DexFreq,
    /// DEX with the privileged-value pair (`n > 5t`); `m` is the privileged
    /// value.
    DexPrv {
        /// The privileged value.
        m: u64,
    },
    /// The Bosco baseline (weakly one-step at `n > 5t`, strongly at
    /// `n > 7t`).
    Bosco,
    /// No expedition: straight to the underlying consensus.
    UnderlyingOnly,
    /// Crash-model baseline of Brasileiro et al. \[2\] (`n > 3t`, crash
    /// faults only — run it with the `Silent` strategy).
    Brasileiro,
    /// Adaptive condition-based crash-model one-step rule (spirit of
    /// Izumi–Masuzawa \[8\]; crash faults only).
    CrashAdaptive,
}

impl Algo {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Algo::DexFreq => "dex-freq",
            Algo::DexPrv { .. } => "dex-prv",
            Algo::Bosco => "bosco",
            Algo::UnderlyingOnly => "underlying-only",
            Algo::Brasileiro => "brasileiro",
            Algo::CrashAdaptive => "crash-adaptive",
        }
    }
}

/// Which underlying consensus a run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnderlyingKind {
    /// Idealized 2-step coordinator.
    Oracle,
    /// Real randomized stack, with a shared common-coin seed.
    Mvc {
        /// Shared seed of the common-coin abstraction.
        coin_seed: u64,
    },
}

/// Full description of a single run.
#[derive(Clone, Debug)]
pub struct RunInstance {
    /// System size and fault bound.
    pub config: SystemConfig,
    /// Algorithm under test.
    pub algo: Algo,
    /// Underlying consensus implementation.
    pub underlying: UnderlyingKind,
    /// Strategy executed by every Byzantine process.
    pub strategy: ByzantineStrategy<u64>,
    /// Which processes are Byzantine.
    pub fault_plan: FaultPlan,
    /// The input vector; faulty entries are the adversary's nominal values.
    pub input: InputVector<u64>,
    /// Network delay model.
    pub delay: DelayModel,
    /// Network chaos schedule (partitions, lossy links, crash windows);
    /// [`FaultSchedule::none()`] for a clean network.
    pub faults: FaultSchedule,
    /// Simulation seed.
    pub seed: u64,
    /// Delivery cap (guards against livelock).
    pub max_events: u64,
    /// Enable echo/vote aggregation on correct nodes (Byzantine nodes never
    /// batch). Off keeps the wire byte-identical to the pre-aggregation
    /// runner.
    pub aggregate: bool,
}

/// Result of one correct process.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProcessResult {
    /// The decided value.
    pub value: u64,
    /// `"1-step"`, `"2-step"` or `"fallback"`.
    pub path: &'static str,
    /// Causal communication steps to the decision.
    pub steps: u32,
    /// Virtual-time latency to the decision.
    pub latency: u64,
}

/// Per-process outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// The process was Byzantine; its behaviour is not measured.
    Faulty,
    /// A correct process that never decided (a termination violation when
    /// the run was quiescent).
    Undecided,
    /// A correct process that decided.
    Decided(ProcessResult),
}

/// Result of one run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunResult {
    /// Outcome of each process, indexed by id.
    pub outcomes: Vec<Outcome>,
    /// Whether the network drained before the event cap.
    pub quiescent: bool,
    /// Total messages delivered.
    pub messages: u64,
    /// Full network counters for the run (per-class sends, batched echoes,
    /// bytes on wire).
    pub net: dex_simnet::NetStats,
}

impl RunResult {
    /// Iterates over the decided correct processes.
    pub fn decided(&self) -> impl Iterator<Item = &ProcessResult> {
        self.outcomes.iter().filter_map(|o| match o {
            Outcome::Decided(r) => Some(r),
            _ => None,
        })
    }

    /// Agreement: all decided correct processes agree.
    pub fn agreement_ok(&self) -> bool {
        let mut values = self.decided().map(|r| r.value);
        match values.next() {
            None => true,
            Some(first) => values.all(|v| v == first),
        }
    }

    /// Termination: every correct process decided.
    pub fn all_decided(&self) -> bool {
        !self
            .outcomes
            .iter()
            .any(|o| matches!(o, Outcome::Undecided))
    }

    /// Unanimity: when all correct processes proposed `v`, all decisions
    /// must be `v`. Returns `true` when the premise does not apply.
    pub fn unanimity_ok(&self, input: &InputVector<u64>, plan: &FaultPlan) -> bool {
        let mut correct_values = input
            .iter()
            .filter(|(p, _)| !plan.is_faulty(*p))
            .map(|(_, v)| *v);
        let Some(first) = correct_values.next() else {
            return true;
        };
        if !correct_values.all(|v| v == first) {
            return true; // premise does not hold
        }
        self.decided().all(|r| r.value == first)
    }

    /// The largest step count among decided processes.
    pub fn max_steps(&self) -> Option<u32> {
        self.decided().map(|r| r.steps).max()
    }

    /// Mean step count among decided processes.
    pub fn mean_steps(&self) -> Option<f64> {
        let (mut sum, mut n) = (0u64, 0u64);
        for r in self.decided() {
            sum += u64::from(r.steps);
            n += 1;
        }
        (n > 0).then(|| sum as f64 / n as f64)
    }
}

fn byz_strategy(spec: &RunInstance) -> ByzantineStrategy<u64> {
    spec.strategy.clone()
}

fn make_uc(spec: &RunInstance, me: ProcessId) -> AnyUc {
    match spec.underlying {
        UnderlyingKind::Oracle => {
            AnyUc::oracle(spec.config, me, spec.fault_plan.coordinator(spec.config))
        }
        UnderlyingKind::Mvc { coin_seed } => AnyUc::mvc(spec.config, me, coin_seed),
    }
}

/// Executes one run.
///
/// # Panics
///
/// Panics if the spec's algorithm cannot be instantiated for its
/// configuration (e.g. `DexFreq` with `n ≤ 6t`) or the fault plan exceeds
/// `t` — misconfigured experiments should fail loudly.
pub fn run_instance(spec: &RunInstance) -> RunResult {
    assert_eq!(
        spec.input.n(),
        spec.config.n(),
        "input vector must match system size"
    );
    dispatch_spec(spec, false).0
}

/// A run's measured result together with the structured event trace of
/// every process (see `dex-obs`). Byzantine processes contribute empty
/// traces; the checker excludes them anyway.
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// The ordinary measured result.
    pub result: RunResult,
    /// The full trace, ready for [`dex_obs::check`].
    pub trace: RunTrace,
}

/// Like [`run_instance`], but with per-process event recording enabled, so the
/// finished run can be replayed through the `dex-obs` invariant checker.
///
/// # Panics
///
/// Panics under the same conditions as [`run_instance`].
pub fn run_instance_traced(spec: &RunInstance) -> TracedRun {
    assert_eq!(
        spec.input.n(),
        spec.config.n(),
        "input vector must match system size"
    );
    let (result, processes) = dispatch_spec(spec, true);
    TracedRun {
        result,
        trace: RunTrace {
            meta: trace_meta(spec),
            processes,
        },
    }
}

fn dispatch_spec(spec: &RunInstance, trace: bool) -> (RunResult, Vec<ProcessTrace>) {
    match spec.algo {
        Algo::DexFreq | Algo::DexPrv { .. } => run_dex(spec, trace),
        Algo::Bosco => run_bosco(spec, trace),
        Algo::UnderlyingOnly => run_plain(spec, trace),
        Algo::Brasileiro => run_crash(spec, CrashRule::Brasileiro, trace),
        Algo::CrashAdaptive => run_crash(spec, CrashRule::Adaptive, trace),
    }
}

/// Builds the checker-facing metadata for a run: which invariant family
/// applies (DEX predicate rules vs. opaque structural checks), who is
/// faulty, and a code→value legend for humans reading the artifact.
fn trace_meta(spec: &RunInstance) -> TraceMeta {
    let rules = match spec.algo {
        Algo::DexFreq => SchemeRules::Frequency,
        Algo::DexPrv { m } => SchemeRules::Privileged {
            m_code: obs_code(&m),
        },
        _ => SchemeRules::Opaque,
    };
    let faulty: Vec<u16> = spec
        .config
        .processes()
        .filter(|p| spec.fault_plan.is_faulty(*p))
        .map(|p| p.index() as u16)
        .collect();
    let mut legend = std::collections::BTreeMap::new();
    for (_, v) in spec.input.iter() {
        legend.insert(obs_code(v), v.to_string());
    }
    if let Algo::DexPrv { m } = spec.algo {
        legend.insert(obs_code(&m), m.to_string());
    }
    TraceMeta {
        seed: spec.seed,
        n: spec.config.n() as u16,
        t: spec.config.t() as u16,
        algo: spec.algo.label().to_string(),
        rules,
        faulty,
        legend: legend.into_iter().collect(),
        chaos: chaos_meta(&spec.faults, &spec.fault_plan),
        pipeline: None,
    }
}

/// Derives the checker-facing chaos metadata from a run's compiled fault
/// schedule. `eventually_clean` — the premise of the termination-after-heal
/// invariant — holds when every disturbance is transient: all crashed
/// processes recover, and every probabilistic *drop* is confined to links
/// touching a FaultPlan-faulty process (a correct↔correct link that loses
/// messages voids any liveness guarantee; duplication never does).
fn chaos_meta(faults: &FaultSchedule, plan: &FaultPlan) -> Option<ChaosMeta> {
    if faults.is_empty() {
        return None;
    }
    let drops_budgeted = faults.links().iter().filter(|l| l.drop > 0.0).all(|l| {
        l.from.is_some_and(|q| plan.is_faulty(q)) || l.to.is_some_and(|q| plan.is_faulty(q))
    });
    Some(ChaosMeta {
        last_heal: faults.last_heal().unwrap_or(0),
        eventually_clean: faults.all_recover() && drops_budgeted,
        crashes: faults
            .crash_windows()
            .iter()
            .map(|w| (w.process.index() as u16, w.from, w.until))
            .collect(),
    })
}

/// Harvests every node's trace after a run, substituting an empty trace
/// for nodes that recorded nothing (Byzantine or recording disabled).
fn collect_traces<'a, N: 'a>(
    nodes: impl Iterator<Item = &'a N>,
    obs_trace: impl Fn(&N) -> Option<ProcessTrace>,
) -> Vec<ProcessTrace> {
    nodes
        .enumerate()
        .map(|(i, n)| {
            obs_trace(n).unwrap_or(ProcessTrace {
                id: i as u16,
                events: Vec::new(),
            })
        })
        .collect()
}

/// Builds the crash-model actor vector for a run — shared by the simnet
/// and threaded execution paths, so both runtimes drive byte-identical
/// actor populations.
fn crash_nodes(spec: &RunInstance, rule: CrashRule) -> Vec<CrashNode> {
    let cfg = spec.config;
    cfg.processes()
        .map(|me| {
            if spec.fault_plan.is_faulty(me) {
                CrashNode::Byz(ByzantineActor::new(byz_strategy(spec)))
            } else {
                CrashNode::Correct(CrashActor::new(
                    CrashOneStep::new(cfg, me, rule, make_uc(spec, me)),
                    *spec.input.get(me),
                ))
            }
        })
        .collect()
}

/// Reads one crash-model node's outcome after a run (any runtime).
fn crash_node_outcome(node: &CrashNode) -> Outcome {
    match node {
        CrashNode::Byz(_) => Outcome::Faulty,
        CrashNode::Correct(a) => match a.decision() {
            None => Outcome::Undecided,
            Some(d) => Outcome::Decided(ProcessResult {
                value: d.value,
                path: match d.path {
                    CrashPath::OneStep => DecisionPath::OneStep.label(),
                    CrashPath::Underlying => DecisionPath::Underlying.label(),
                },
                steps: d.depth.get(),
                latency: d.at.as_units(),
            }),
        },
    }
}

fn run_crash(spec: &RunInstance, rule: CrashRule, trace: bool) -> (RunResult, Vec<ProcessTrace>) {
    let mut nodes = crash_nodes(spec, rule);
    if trace {
        for (i, node) in nodes.iter_mut().enumerate() {
            node.enable_obs(i as u16);
        }
    }
    let mut sim = Simulation::builder(nodes)
        .seed(spec.seed)
        .delay(spec.delay.clone())
        .faults(spec.faults.clone())
        .build();
    let run = sim.run(spec.max_events);
    let outcomes = sim.actors().iter().map(crash_node_outcome).collect();
    let traces = collect_traces(sim.actors().iter(), CrashNode::obs_trace);
    (
        RunResult {
            outcomes,
            quiescent: run.quiescent,
            messages: sim.stats().delivered,
            net: sim.stats().clone(),
        },
        traces,
    )
}

/// Builds the DEX actor vector for a run (frequency or privileged pair),
/// applying the spec's aggregation switch — shared by the simnet and
/// threaded execution paths.
fn dex_nodes(spec: &RunInstance) -> Vec<DexNode> {
    let cfg = spec.config;
    let mut nodes: Vec<DexNode> = cfg
        .processes()
        .map(|me| {
            if spec.fault_plan.is_faulty(me) {
                DexNode::Byz(ByzantineActor::new(byz_strategy(spec)))
            } else {
                let proposal = *spec.input.get(me);
                match spec.algo {
                    Algo::DexFreq => DexNode::Freq(DexActor::new(
                        DexProcess::new(
                            cfg,
                            me,
                            FrequencyPair::new(cfg).expect("n > 6t required for DexFreq"),
                            make_uc(spec, me),
                        ),
                        proposal,
                    )),
                    Algo::DexPrv { m } => DexNode::Prv(DexActor::new(
                        DexProcess::new(
                            cfg,
                            me,
                            PrivilegedPair::new(cfg, m).expect("n > 5t required for DexPrv"),
                            make_uc(spec, me),
                        ),
                        proposal,
                    )),
                    _ => unreachable!(),
                }
            }
        })
        .collect();
    if spec.aggregate {
        for node in nodes.iter_mut() {
            node.enable_aggregation();
        }
    }
    nodes
}

/// Reads one DEX node's outcome after a run (any runtime).
fn dex_node_outcome(node: &DexNode) -> Outcome {
    match node {
        DexNode::Byz(_) => Outcome::Faulty,
        DexNode::Freq(a) => dex_outcome(a.decision()),
        DexNode::Prv(a) => dex_outcome(a.decision()),
    }
}

fn run_dex(spec: &RunInstance, trace: bool) -> (RunResult, Vec<ProcessTrace>) {
    let mut nodes = dex_nodes(spec);
    if trace {
        for (i, node) in nodes.iter_mut().enumerate() {
            node.enable_obs(i as u16);
        }
    }
    let mut sim = Simulation::builder(nodes)
        .seed(spec.seed)
        .delay(spec.delay.clone())
        .faults(spec.faults.clone())
        .build();
    let run = sim.run(spec.max_events);
    let outcomes = sim.actors().iter().map(dex_node_outcome).collect();
    let traces = collect_traces(sim.actors().iter(), DexNode::obs_trace);
    (
        RunResult {
            outcomes,
            quiescent: run.quiescent,
            messages: sim.stats().delivered,
            net: sim.stats().clone(),
        },
        traces,
    )
}

fn dex_outcome(d: Option<&dex_core::DecisionRecord<u64>>) -> Outcome {
    match d {
        None => Outcome::Undecided,
        Some(d) => Outcome::Decided(ProcessResult {
            value: d.value,
            path: d.path.label(),
            steps: d.depth.get(),
            latency: d.at.as_units(),
        }),
    }
}

/// Builds the Bosco actor vector for a run — shared by the simnet and
/// threaded execution paths.
fn bosco_nodes(spec: &RunInstance) -> Vec<BoscoNode> {
    let cfg = spec.config;
    let mut nodes: Vec<BoscoNode> = cfg
        .processes()
        .map(|me| {
            if spec.fault_plan.is_faulty(me) {
                BoscoNode::Byz(ByzantineActor::new(byz_strategy(spec)))
            } else {
                BoscoNode::Correct(BoscoActor::new(
                    BoscoProcess::new(cfg, me, make_uc(spec, me)),
                    *spec.input.get(me),
                ))
            }
        })
        .collect();
    if spec.aggregate {
        for node in nodes.iter_mut() {
            node.enable_aggregation();
        }
    }
    nodes
}

/// Reads one Bosco node's outcome after a run (any runtime).
fn bosco_node_outcome(node: &BoscoNode) -> Outcome {
    match node {
        BoscoNode::Byz(_) => Outcome::Faulty,
        BoscoNode::Correct(a) => match a.decision() {
            None => Outcome::Undecided,
            Some(d) => Outcome::Decided(ProcessResult {
                value: d.value,
                path: match d.path {
                    BoscoPath::OneStep => DecisionPath::OneStep.label(),
                    BoscoPath::Underlying => DecisionPath::Underlying.label(),
                },
                steps: d.depth.get(),
                latency: d.at.as_units(),
            }),
        },
    }
}

fn run_bosco(spec: &RunInstance, trace: bool) -> (RunResult, Vec<ProcessTrace>) {
    let mut nodes = bosco_nodes(spec);
    if trace {
        for (i, node) in nodes.iter_mut().enumerate() {
            node.enable_obs(i as u16);
        }
    }
    let mut sim = Simulation::builder(nodes)
        .seed(spec.seed)
        .delay(spec.delay.clone())
        .faults(spec.faults.clone())
        .build();
    let run = sim.run(spec.max_events);
    let outcomes = sim.actors().iter().map(bosco_node_outcome).collect();
    let traces = collect_traces(sim.actors().iter(), BoscoNode::obs_trace);
    (
        RunResult {
            outcomes,
            quiescent: run.quiescent,
            messages: sim.stats().delivered,
            net: sim.stats().clone(),
        },
        traces,
    )
}

/// Builds the underlying-only actor vector for a run — shared by the
/// simnet and threaded execution paths.
fn plain_nodes(spec: &RunInstance) -> Vec<PlainNode> {
    let cfg = spec.config;
    cfg.processes()
        .map(|me| {
            if spec.fault_plan.is_faulty(me) {
                PlainNode::Byz(ByzantineActor::new(byz_strategy(spec)))
            } else {
                PlainNode::Correct(UnderlyingOnlyActor::new(
                    UnderlyingOnlyProcess::new(make_uc(spec, me)),
                    *spec.input.get(me),
                ))
            }
        })
        .collect()
}

/// Reads one underlying-only node's outcome after a run (any runtime).
fn plain_node_outcome(node: &PlainNode) -> Outcome {
    match node {
        PlainNode::Byz(_) => Outcome::Faulty,
        PlainNode::Correct(a) => match a.decision() {
            None => Outcome::Undecided,
            Some(d) => Outcome::Decided(ProcessResult {
                value: d.value,
                path: DecisionPath::Underlying.label(),
                steps: d.depth.get(),
                latency: d.at.as_units(),
            }),
        },
    }
}

fn run_plain(spec: &RunInstance, trace: bool) -> (RunResult, Vec<ProcessTrace>) {
    let mut nodes = plain_nodes(spec);
    if trace {
        for (i, node) in nodes.iter_mut().enumerate() {
            node.enable_obs(i as u16);
        }
    }
    let mut sim = Simulation::builder(nodes)
        .seed(spec.seed)
        .delay(spec.delay.clone())
        .faults(spec.faults.clone())
        .build();
    let run = sim.run(spec.max_events);
    let outcomes = sim.actors().iter().map(plain_node_outcome).collect();
    let traces = collect_traces(sim.actors().iter(), PlainNode::obs_trace);
    (
        RunResult {
            outcomes,
            quiescent: run.quiescent,
            messages: sim.stats().delivered,
            net: sim.stats().clone(),
        },
        traces,
    )
}

/// How faulty processes are placed in batch runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// The last `f` processes are faulty (deterministic; keeps `p_0` as the
    /// oracle coordinator).
    LastK,
    /// `f` random non-`p_0` processes per run.
    RandomK,
}

/// Description of a batch of runs.
pub struct BatchSpec<'a> {
    /// System size and fault bound.
    pub config: SystemConfig,
    /// Algorithm under test.
    pub algo: Algo,
    /// Underlying consensus implementation.
    pub underlying: UnderlyingKind,
    /// Strategy executed by Byzantine processes.
    pub strategy: ByzantineStrategy<u64>,
    /// Actual number of faults per run (`f ≤ t`).
    pub f: usize,
    /// Fault placement policy.
    pub placement: Placement,
    /// Input-vector generator (fresh vector per run).
    pub workload: &'a (dyn InputGenerator + Sync),
    /// Delay model.
    pub delay: DelayModel,
    /// Symbolic chaos schedule, compiled per run against that run's fault
    /// plan (see [`ChaosSpec::build`]).
    pub chaos: ChaosSpec,
    /// Enable echo/vote aggregation on correct nodes in every run.
    pub aggregate: bool,
    /// Number of runs.
    pub runs: usize,
    /// Base seed; run `i` uses `seed0 + i`.
    pub seed0: u64,
    /// Delivery cap per run.
    pub max_events: u64,
}

/// Aggregated results of a batch.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Number of runs executed.
    pub runs: usize,
    /// Decision-path histogram over all correct processes.
    pub paths: Counter<&'static str>,
    /// Step counts over all correct processes.
    pub steps: Summary,
    /// Virtual-time decision latencies.
    pub latency: Summary,
    /// Messages delivered per run.
    pub messages: Summary,
    /// Correct processes that never decided.
    pub undecided: usize,
    /// Runs violating agreement (must stay 0).
    pub agreement_violations: usize,
    /// Runs violating unanimity (must stay 0).
    pub unanimity_violations: usize,
    /// Runs that hit the event cap (must stay 0 for terminating protocols).
    pub non_quiescent: usize,
    /// Network counters summed over all runs (per-class sends, batched
    /// echoes, bytes on wire; `max_depth` takes the batch maximum).
    pub net: dex_simnet::NetStats,
}

impl BatchStats {
    /// Fraction of correct-process decisions that used `path`.
    pub fn path_fraction(&self, path: &'static str) -> f64 {
        self.paths.fraction(&path)
    }

    /// `true` when no safety or liveness violation was observed.
    pub fn clean(&self) -> bool {
        self.agreement_violations == 0
            && self.unanimity_violations == 0
            && self.undecided == 0
            && self.non_quiescent == 0
    }
}

/// Folds one finished run into the batch aggregate, checking the safety
/// and liveness predicates against that run's input and fault plan. Both
/// the simnet and threaded batch runners fold through here, so every
/// runtime is held to the same violation ledger.
fn fold_run(stats: &mut BatchStats, run: &RunResult, input: &InputVector<u64>, plan: &FaultPlan) {
    stats.runs += 1;
    if !run.quiescent {
        stats.non_quiescent += 1;
    }
    if !run.agreement_ok() {
        stats.agreement_violations += 1;
    }
    if !run.unanimity_ok(input, plan) {
        stats.unanimity_violations += 1;
    }
    for outcome in &run.outcomes {
        match outcome {
            Outcome::Faulty => {}
            Outcome::Undecided => stats.undecided += 1,
            Outcome::Decided(r) => {
                stats.paths.add(r.path);
                stats.steps.add(f64::from(r.steps));
                stats.latency.add(r.latency as f64);
            }
        }
    }
    stats.messages.add(run.messages as f64);
    stats.net.merge(&run.net);
}

/// Executes one indexed run of a batch and folds it into `stats`.
fn run_batch_index(spec: &BatchSpec<'_>, i: usize, stats: &mut BatchStats) {
    let seed = spec.seed0 + i as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
    let input = spec.workload.generate(spec.config.n(), &mut rng);
    let fault_plan = match spec.placement {
        Placement::LastK => FaultPlan::last_k(spec.config, spec.f),
        Placement::RandomK => FaultPlan::random_k(spec.config, spec.f, &mut rng),
    };
    let faults = spec.chaos.build(spec.config, &fault_plan);
    let run = run_instance(&RunInstance {
        config: spec.config,
        algo: spec.algo,
        underlying: spec.underlying,
        strategy: spec.strategy.clone(),
        fault_plan: fault_plan.clone(),
        input: input.clone(),
        delay: spec.delay.clone(),
        faults,
        seed,
        max_events: spec.max_events,
        aggregate: spec.aggregate,
    });
    fold_run(stats, &run, &input, &fault_plan);
}

/// Reconstructs batch run `i`'s spec — the same seed, workload draw and
/// fault placement [`run_batch`] would use — and executes it with event
/// recording enabled. This is how `--trace` replays a batch member
/// deterministically: same batch spec and index ⇒ identical trace.
pub fn traced_batch_run(spec: &BatchSpec<'_>, i: usize) -> TracedRun {
    let seed = spec.seed0 + i as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
    let input = spec.workload.generate(spec.config.n(), &mut rng);
    let fault_plan = match spec.placement {
        Placement::LastK => FaultPlan::last_k(spec.config, spec.f),
        Placement::RandomK => FaultPlan::random_k(spec.config, spec.f, &mut rng),
    };
    let faults = spec.chaos.build(spec.config, &fault_plan);
    run_instance_traced(&RunInstance {
        config: spec.config,
        algo: spec.algo,
        underlying: spec.underlying,
        strategy: spec.strategy.clone(),
        fault_plan,
        input,
        delay: spec.delay.clone(),
        faults,
        seed,
        max_events: spec.max_events,
        aggregate: spec.aggregate,
    })
}

/// Derives the threaded runtime's [`NetworkOptions`] from a spec's delay
/// model: virtual units map to microseconds, so `uniform:50:500` means a
/// 50–500 µs jitter window. Models without a CLI spelling fall back to
/// their nearest uniform envelope.
fn thread_options(delay: &DelayModel, seed: u64) -> dex_threadnet::NetworkOptions {
    let delay_us = match delay {
        DelayModel::Constant(d) => (*d, *d),
        DelayModel::Uniform { min, max } => (*min, *max),
        DelayModel::Exponential { mean } => (1, (2 * mean).max(1)),
        // Skewed/Targeted shape *which link* is slow, which the threaded
        // dispatcher's single jitter window cannot express; keep the
        // overall envelope.
        _ => (1, 10),
    };
    dex_threadnet::NetworkOptions {
        seed,
        delay_us,
        timeout: std::time::Duration::from_secs(30),
    }
}

/// Executes one run of a batch on the threaded runtime and reads it back
/// as the same [`RunResult`] the simulator path produces (latencies are
/// wall-clock microseconds instead of virtual ticks).
fn run_thread_instance(inst: &RunInstance) -> RunResult {
    let options = thread_options(&inst.delay, inst.seed);
    fn finish<N>(
        res: dex_threadnet::NetworkResult<N>,
        outcome: impl Fn(&N) -> Outcome,
    ) -> RunResult {
        RunResult {
            outcomes: res.actors.iter().map(outcome).collect(),
            quiescent: res.quiescent,
            messages: res.delivered,
            net: res.stats,
        }
    }
    match inst.algo {
        Algo::DexFreq | Algo::DexPrv { .. } => finish(
            dex_threadnet::run_network(dex_nodes(inst), options),
            dex_node_outcome,
        ),
        Algo::Bosco => finish(
            dex_threadnet::run_network(bosco_nodes(inst), options),
            bosco_node_outcome,
        ),
        Algo::UnderlyingOnly => finish(
            dex_threadnet::run_network(plain_nodes(inst), options),
            plain_node_outcome,
        ),
        Algo::Brasileiro => finish(
            dex_threadnet::run_network(crash_nodes(inst, CrashRule::Brasileiro), options),
            crash_node_outcome,
        ),
        Algo::CrashAdaptive => finish(
            dex_threadnet::run_network(crash_nodes(inst, CrashRule::Adaptive), options),
            crash_node_outcome,
        ),
    }
}

/// Executes a spec's batch on the threaded runtime (`--runtime
/// threadnet`): the same actors, workload draws and fault placements as
/// the simulator path — run `i` uses `seed + i`, the workload rng is
/// `seed ^ 0x5EED_5EED` — but each process is an OS thread and messages
/// cross a delay-jittered dispatcher, so latencies come back in
/// wall-clock microseconds.
///
/// The threaded runtime has no fault injector, so chaos schedules are
/// rejected rather than silently ignored.
pub fn run_thread_batch(spec: &crate::spec::RunSpec) -> Result<BatchStats, String> {
    let config = spec.config()?;
    if !spec.chaos.is_none() {
        return Err(format!(
            "--runtime threadnet has no fault injector; --chaos {} requires simnet \
             (netd owns the real kill -9 schedule)",
            spec.chaos.flag()
        ));
    }
    if !spec.pipeline.is_off() {
        return Err("--pipeline runs on the simnet engine; drop --runtime threadnet".into());
    }
    let workload = spec.workload.generator();
    let mut stats = BatchStats::default();
    for i in 0..spec.runs {
        let seed = spec.seed + i as u64;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
        let input = workload.generate(config.n(), &mut rng);
        let fault_plan = match spec.placement {
            Placement::LastK => FaultPlan::last_k(config, spec.f),
            Placement::RandomK => FaultPlan::random_k(config, spec.f, &mut rng),
        };
        let run = run_thread_instance(&RunInstance {
            config,
            algo: spec.algo,
            underlying: spec.underlying_kind(),
            strategy: spec.adversary.strategy(),
            fault_plan: fault_plan.clone(),
            input: input.clone(),
            delay: spec.delay.clone(),
            faults: FaultSchedule::none(),
            seed,
            max_events: spec.max_events,
            aggregate: spec.aggregate.is_on(),
        });
        fold_run(&mut stats, &run, &input, &fault_plan);
    }
    Ok(stats)
}

/// Executes a batch of runs, aggregating statistics.
pub fn run_batch(spec: &BatchSpec<'_>) -> BatchStats {
    let mut stats = BatchStats::default();
    for i in 0..spec.runs {
        run_batch_index(spec, i, &mut stats);
    }
    stats
}

/// [`run_batch_parallel`] with one worker per available core — the default
/// for the experiment modules (results are identical to the sequential
/// runner's, just faster).
pub fn run_batch_auto(spec: &BatchSpec<'_>) -> BatchStats {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_batch_parallel(spec, threads)
}

/// Like [`run_batch`], but fans the (independent, individually seeded)
/// runs across `threads` OS threads. The aggregate statistics are
/// identical to the sequential runner's: every per-run quantity is keyed
/// by its seed, and [`BatchStats`] aggregation is order-insensitive
/// (counters commute; [`Summary`] quantiles sort internally).
pub fn run_batch_parallel(spec: &BatchSpec<'_>, threads: usize) -> BatchStats {
    let threads = threads.clamp(1, spec.runs.max(1));
    let mut partials: Vec<BatchStats> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let spec_ref = &*spec;
            handles.push(scope.spawn(move || {
                let mut stats = BatchStats::default();
                let mut i = worker;
                while i < spec_ref.runs {
                    run_batch_index(spec_ref, i, &mut stats);
                    i += threads;
                }
                stats
            }));
        }
        for handle in handles {
            partials.push(handle.join().expect("batch worker panicked"));
        }
    });
    let mut merged = BatchStats::default();
    for p in partials {
        merged.runs += p.runs;
        merged.undecided += p.undecided;
        merged.agreement_violations += p.agreement_violations;
        merged.unanimity_violations += p.unanimity_violations;
        merged.non_quiescent += p.non_quiescent;
        merged.steps.merge(&p.steps);
        merged.latency.merge(&p.latency);
        merged.messages.merge(&p.messages);
        merged.net.merge(&p.net);
        for (path, count) in p.paths.iter() {
            merged.paths.add_n(path, count);
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_workloads::Unanimous;

    fn base_spec(n: usize, t: usize, algo: Algo, input: InputVector<u64>) -> RunInstance {
        RunInstance {
            config: SystemConfig::new(n, t).unwrap(),
            algo,
            underlying: UnderlyingKind::Oracle,
            strategy: ByzantineStrategy::Silent,
            fault_plan: FaultPlan::none(),
            input,
            delay: DelayModel::Uniform { min: 1, max: 10 },
            faults: FaultSchedule::none(),
            seed: 7,
            max_events: 1_000_000,
            aggregate: false,
        }
    }

    #[test]
    fn dex_freq_unanimous_is_one_step() {
        let spec = base_spec(7, 1, Algo::DexFreq, InputVector::unanimous(7, 3));
        let r = run_instance(&spec);
        assert!(r.quiescent && r.agreement_ok() && r.all_decided());
        assert_eq!(r.max_steps(), Some(1));
        assert!(r.decided().all(|p| p.path == "1-step" && p.value == 3));
    }

    #[test]
    fn bosco_unanimous_is_one_step() {
        let spec = base_spec(7, 1, Algo::Bosco, InputVector::unanimous(7, 3));
        let r = run_instance(&spec);
        assert_eq!(r.max_steps(), Some(1));
        assert!(r.decided().all(|p| p.path == "1-step"));
    }

    #[test]
    fn underlying_only_is_two_steps() {
        let spec = base_spec(7, 1, Algo::UnderlyingOnly, InputVector::unanimous(7, 3));
        let r = run_instance(&spec);
        assert_eq!(r.max_steps(), Some(2));
        assert!(r.decided().all(|p| p.path == "fallback"));
    }

    #[test]
    fn dex_prv_commit_heavy_is_one_step() {
        // m = 1, 5 of 6 propose it: #m = 5 > 3t = 3.
        let input = InputVector::new(vec![1, 1, 1, 1, 1, 0]);
        let spec = base_spec(6, 1, Algo::DexPrv { m: 1 }, input);
        let r = run_instance(&spec);
        assert!(r.agreement_ok());
        assert!(r.decided().all(|p| p.value == 1));
        assert_eq!(r.max_steps(), Some(1));
    }

    #[test]
    fn silent_fault_run_with_dex() {
        let spec = RunInstance {
            fault_plan: FaultPlan::last_k(SystemConfig::new(7, 1).unwrap(), 1),
            ..base_spec(7, 1, Algo::DexFreq, InputVector::unanimous(7, 3))
        };
        let r = run_instance(&spec);
        assert!(r.quiescent && r.agreement_ok() && r.all_decided());
        assert!(matches!(r.outcomes[6], Outcome::Faulty));
        // 6 unanimous entries reachable: margin 6 > 4 ⇒ still one-step.
        assert_eq!(r.max_steps(), Some(1));
    }

    #[test]
    fn equivocator_cannot_break_agreement() {
        for seed in 0..10 {
            let spec = RunInstance {
                fault_plan: FaultPlan::last_k(SystemConfig::new(7, 1).unwrap(), 1),
                strategy: ByzantineStrategy::EchoPoison { values: vec![3, 9] },
                seed,
                ..base_spec(7, 1, Algo::DexFreq, InputVector::unanimous(7, 3))
            };
            let r = run_instance(&spec);
            assert!(r.agreement_ok(), "seed {seed}");
            assert!(r.unanimity_ok(&InputVector::unanimous(7, 3), &spec.fault_plan));
            assert!(r.all_decided(), "seed {seed}");
        }
    }

    #[test]
    fn batch_runner_aggregates_cleanly() {
        let cfg = SystemConfig::new(7, 1).unwrap();
        let workload = Unanimous { value: 5 };
        let stats = run_batch(&BatchSpec {
            config: cfg,
            algo: Algo::DexFreq,
            underlying: UnderlyingKind::Oracle,
            strategy: ByzantineStrategy::Silent,
            f: 1,
            placement: Placement::RandomK,
            workload: &workload,
            delay: DelayModel::Uniform { min: 1, max: 10 },
            chaos: ChaosSpec::None,
            aggregate: false,
            runs: 20,
            seed0: 100,
            max_events: 1_000_000,
        });
        assert!(stats.clean(), "{stats:?}");
        assert_eq!(stats.runs, 20);
        assert_eq!(stats.path_fraction("1-step"), 1.0);
        assert_eq!(stats.steps.mean(), 1.0);
    }

    #[test]
    fn parallel_batch_equals_sequential_batch() {
        let cfg = SystemConfig::new(7, 1).unwrap();
        let workload = dex_workloads::BernoulliMix { p: 0.8, a: 1, b: 0 };
        let spec = BatchSpec {
            config: cfg,
            algo: Algo::DexFreq,
            underlying: UnderlyingKind::Oracle,
            strategy: ByzantineStrategy::Equivocate { values: vec![0, 1] },
            f: 1,
            placement: Placement::RandomK,
            workload: &workload,
            delay: DelayModel::Uniform { min: 1, max: 10 },
            chaos: ChaosSpec::None,
            aggregate: false,
            runs: 24,
            seed0: 9,
            max_events: 5_000_000,
        };
        let seq = run_batch(&spec);
        let par = run_batch_parallel(&spec, 4);
        assert!(seq.clean() && par.clean());
        assert_eq!(seq.runs, par.runs);
        assert_eq!(seq.steps.mean(), par.steps.mean());
        assert_eq!(seq.steps.quantile(0.99), par.steps.quantile(0.99));
        assert_eq!(seq.messages.mean(), par.messages.mean());
        assert_eq!(seq.paths.count(&"1-step"), par.paths.count(&"1-step"),);
    }

    #[test]
    fn chaos_batch_stays_safe_and_live() {
        // Partition + heal under an equivocating Byzantine process at f = t:
        // deliveries are deferred, never lost, so the batch must stay clean.
        let cfg = SystemConfig::new(7, 1).unwrap();
        let workload = dex_workloads::BernoulliMix { p: 0.8, a: 1, b: 0 };
        let stats = run_batch(&BatchSpec {
            config: cfg,
            algo: Algo::DexFreq,
            underlying: UnderlyingKind::Oracle,
            strategy: ByzantineStrategy::Equivocate { values: vec![0, 1] },
            f: 1,
            placement: Placement::RandomK,
            workload: &workload,
            delay: DelayModel::Uniform { min: 1, max: 10 },
            chaos: ChaosSpec::PartitionHeal { open: 5, heal: 120 },
            aggregate: false,
            runs: 12,
            seed0: 40,
            max_events: 5_000_000,
        });
        assert!(stats.clean(), "{stats:?}");
        assert_eq!(stats.runs, 12);
    }

    #[test]
    fn aggregation_collapses_the_echo_flood_at_n31() {
        // Same seeds, same workload draws; only the `aggregate` bit differs:
        // 1025.0 sent messages per decision off, 223.7 on (4.58×).
        let workload = dex_workloads::BernoulliMix { p: 0.8, a: 1, b: 0 };
        let batch = |aggregate| {
            let stats = run_batch(&BatchSpec {
                config: SystemConfig::new(31, 5).unwrap(),
                algo: Algo::DexFreq,
                underlying: UnderlyingKind::Oracle,
                strategy: ByzantineStrategy::Silent,
                f: 0,
                placement: Placement::LastK,
                workload: &workload,
                delay: DelayModel::Uniform { min: 1, max: 10 },
                chaos: ChaosSpec::None,
                aggregate,
                runs: 8,
                seed0: 42,
                max_events: 50_000_000,
            });
            assert!(stats.clean(), "aggregate = {aggregate}: {stats:?}");
            assert_eq!(stats.net.payload_clones, 0, "aggregate = {aggregate}");
            let decisions: u64 = stats.paths.iter().map(|(_, count)| count).sum();
            (stats.net.sent as f64 / decisions as f64, stats.net)
        };
        let (off_per_decision, off) = batch(false);
        let (on_per_decision, on) = batch(true);
        assert!(off.sent_echo > 0 && off.echoes_batched == 0);
        assert_eq!(on.sent_echo, 0, "aggregated run sent a bare echo");
        assert!(on.echoes_batched > 0, "no echoes were batched");
        assert!(
            off_per_decision >= 3.0 * on_per_decision,
            "sent messages per decision: {off_per_decision:.1} off vs {on_per_decision:.1} on"
        );
    }

    #[test]
    fn traced_chaos_run_carries_chaos_meta() {
        let mut spec = base_spec(7, 1, Algo::DexFreq, InputVector::unanimous(7, 3));
        assert!(run_instance_traced(&spec).trace.meta.chaos.is_none());
        spec.faults = FaultSchedule::new().crash(ProcessId::new(2), 3, 90);
        let traced = run_instance_traced(&spec);
        let report = dex_obs::check(&traced.trace);
        let chaos = traced.trace.meta.chaos.expect("chaos meta for chaos run");
        assert_eq!(chaos.last_heal, 90);
        assert!(chaos.eventually_clean);
        assert_eq!(chaos.crashes, vec![(2, 3, Some(90))]);
        assert!(report.is_ok(), "{:?}", report.violations);
        assert!(report
            .checks
            .iter()
            .any(|(name, _)| *name == "termination-after-heal"));
    }

    #[test]
    fn unbudgeted_drops_void_the_liveness_premise() {
        // A drop probability on a correct↔correct link is a genuine loss:
        // the meta must not claim the schedule eventually comes clean.
        let spec = RunInstance {
            faults: FaultSchedule::new().lossy_link(Some(ProcessId::new(1)), None, 0.5, 0.0),
            ..base_spec(7, 1, Algo::DexFreq, InputVector::unanimous(7, 3))
        };
        let chaos = run_instance_traced(&spec).trace.meta.chaos.unwrap();
        assert!(!chaos.eventually_clean);
    }

    #[test]
    fn thread_batch_runs_the_same_actors_over_threads() {
        let spec = crate::spec::RunSpec {
            runs: 2,
            f: 1,
            adversary: crate::spec::AdversarySpec::Equivocate,
            workload: crate::spec::WorkloadSpec::Bernoulli { p: 0.8 },
            runtime: crate::spec::RuntimeSpec::Thread,
            delay: DelayModel::Uniform { min: 10, max: 100 },
            ..Default::default()
        };
        let stats = spec.run().expect("thread batch runs");
        assert!(stats.clean(), "{stats:?}");
        assert_eq!(stats.runs, 2);
        assert!(stats.net.sent > 0 && stats.net.delivered > 0);
        assert!(stats.latency.mean() > 0.0, "wall-clock latencies");
        // Chaos schedules are rejected, not silently ignored.
        let chaotic = crate::spec::RunSpec {
            chaos: ChaosSpec::DropHeavy { p: 0.4 },
            ..spec
        };
        assert!(chaotic.run().is_err());
    }

    #[test]
    fn mvc_underlying_full_stack_run() {
        // Split input forces the randomized fallback to do real work.
        let input = InputVector::new(vec![3, 3, 3, 9, 9, 9, 9]);
        let spec = RunInstance {
            underlying: UnderlyingKind::Mvc { coin_seed: 11 },
            max_events: 10_000_000,
            ..base_spec(7, 1, Algo::DexFreq, input)
        };
        let r = run_instance(&spec);
        assert!(r.quiescent);
        assert!(r.agreement_ok());
        assert!(r.all_decided());
    }
}
