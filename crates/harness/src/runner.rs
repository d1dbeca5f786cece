//! Single-run and batch experiment execution.

use crate::nodes::{OneShotActor, Protocol};
use crate::spec::ChaosSpec;
use crate::ucwrap::AnyUc;
use dex_adversary::{ByzantineActor, ByzantineStrategy, FaultPlan, ProtocolForgery};
use dex_baselines::{BoscoProcess, CrashOneStep, CrashRule, UnderlyingOnlyProcess};
use dex_conditions::{FrequencyPair, LegalityPair, PrivilegedPair};
use dex_core::{DecisionPath, DexActor, DexProcess, Node};
use dex_metrics::{Counter, Summary};
use dex_obs::{obs_code, ChaosMeta, ProcessTrace, RunTrace, SchemeRules, TraceMeta};
use dex_simnet::{DelayModel, FaultSchedule, Simulation, Time};
use dex_types::{InputVector, ProcessId, StepDepth, SystemConfig};
use dex_workloads::InputGenerator;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// Whether the algorithm has an echo flood that `--aggregate` can
    /// coalesce: DEX's `n²` IDB echoes. The baselines send one value per
    /// process and have nothing to batch.
    pub fn aggregates(self) -> bool {
        matches!(self, Algo::DexFreq | Algo::DexPrv { .. })
    }

    /// Whether the algorithm can run on `config` — the one legality
    /// predicate the CLI, campaigns and Table 1 share. DEX-freq needs
    /// `n > 6t` (Theorem 1), DEX-prv `n > 5t` (Theorem 2) and Bosco its
    /// weak bound `n > 5t`; the others run on any valid configuration.
    pub fn supports(self, config: SystemConfig) -> bool {
        match self {
            Algo::DexFreq => config.supports_frequency_pair(),
            Algo::DexPrv { .. } => config.supports_privileged_pair(),
            Algo::Bosco => config.supports_one_step(),
            Algo::UnderlyingOnly | Algo::Brasileiro | Algo::CrashAdaptive => true,
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

impl Outcome {
    /// A decision of `value` via `path`, `depth` causal steps in, at `at`.
    pub fn decided(value: u64, path: DecisionPath, depth: StepDepth, at: Time) -> Self {
        Outcome::Decided(ProcessResult {
            value,
            path: path.label(),
            steps: depth.get(),
            latency: at.as_units(),
        })
    }
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

impl RunInstance {
    /// The common single run: oracle underlying consensus, no faults
    /// (silent, should a plan be struct-updated in), `uniform:1:10`
    /// delays, a clean network, seed 0, a 5 M delivery cap, no
    /// aggregation. Callers struct-update the fields they vary.
    pub fn base(config: SystemConfig, algo: Algo, input: InputVector<u64>) -> Self {
        RunInstance {
            config,
            algo,
            underlying: UnderlyingKind::Oracle,
            strategy: ByzantineStrategy::Silent,
            fault_plan: FaultPlan::none(),
            input,
            delay: DelayModel::Uniform { min: 1, max: 10 },
            faults: FaultSchedule::none(),
            seed: 0,
            max_events: 5_000_000,
            aggregate: false,
        }
    }
}

/// Executes one run.
///
/// # Panics
///
/// Panics if the spec's algorithm cannot be instantiated for its
/// configuration (e.g. `DexFreq` with `n ≤ 6t`), the fault plan exceeds
/// `t`, the input vector does not match the system size, or `aggregate` is
/// set for an algorithm with nothing to aggregate — misconfigured
/// experiments should fail loudly.
pub fn run_instance(spec: &RunInstance) -> RunResult {
    dispatch(spec, Runtime::Simnet, false).0
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
    let (result, processes) = dispatch(spec, Runtime::Simnet, true);
    TracedRun {
        result,
        trace: RunTrace {
            meta: trace_meta(spec),
            processes,
        },
    }
}

/// Which in-process runtime carries a run's messages (netd cannot run
/// in-process; see [`RuntimeSpec`](crate::spec::RuntimeSpec)).
#[derive(Clone, Copy)]
pub(crate) enum Runtime {
    /// The deterministic simulator.
    Simnet,
    /// One OS thread per process; latencies are wall-clock microseconds.
    Thread,
}

/// Picks [`execute`]'s monomorphisation: each arm says only how the
/// algorithm's correct-process actor is built.
fn dispatch(spec: &RunInstance, runtime: Runtime, trace: bool) -> (RunResult, Vec<ProcessTrace>) {
    assert!(
        !spec.aggregate || spec.algo.aggregates(),
        "`aggregate` needs an algorithm with an echo/vote flood"
    );
    let cfg = spec.config;
    let crash = |rule| {
        move |me, uc, proposal| OneShotActor::new(CrashOneStep::new(cfg, me, rule, uc), proposal)
    };
    match spec.algo {
        Algo::DexFreq => execute(spec, runtime, trace, |me, uc, proposal| {
            let pair = FrequencyPair::new(cfg).expect("n > 6t required for DexFreq");
            dex_actor(DexProcess::new(cfg, me, pair, uc), proposal, spec.aggregate)
        }),
        Algo::DexPrv { m } => execute(spec, runtime, trace, |me, uc, proposal| {
            let pair = PrivilegedPair::new(cfg, m).expect("n > 5t required for DexPrv");
            dex_actor(DexProcess::new(cfg, me, pair, uc), proposal, spec.aggregate)
        }),
        Algo::Bosco => execute(spec, runtime, trace, |me, uc, proposal| {
            OneShotActor::new(BoscoProcess::new(cfg, me, uc), proposal)
        }),
        Algo::UnderlyingOnly => execute(spec, runtime, trace, |me, uc, proposal| {
            OneShotActor::new(UnderlyingOnlyProcess::new(me, uc), proposal)
        }),
        Algo::Brasileiro => execute(spec, runtime, trace, crash(CrashRule::Brasileiro)),
        Algo::CrashAdaptive => execute(spec, runtime, trace, crash(CrashRule::Adaptive)),
    }
}

/// A DEX actor, with echo aggregation on when the run asks for it.
fn dex_actor<P: LegalityPair<u64>>(
    process: DexProcess<u64, P, AnyUc>,
    proposal: u64,
    aggregate: bool,
) -> DexActor<u64, P, AnyUc> {
    let mut actor = DexActor::new(process, proposal);
    if aggregate {
        actor.enable_aggregation();
    }
    actor
}

/// The one run body: builds the node vector (`correct` makes each correct
/// process's actor from its id, underlying consensus and proposal; faulty
/// ids get the spec's Byzantine strategy), runs it on `runtime`, and
/// harvests outcomes and — when `trace` — every process's event trace
/// (empty for Byzantine nodes).
fn execute<A>(
    spec: &RunInstance,
    runtime: Runtime,
    trace: bool,
    correct: impl Fn(ProcessId, AnyUc, u64) -> A,
) -> (RunResult, Vec<ProcessTrace>)
where
    A: Protocol + Send + 'static,
    A::Msg: ProtocolForgery<Value = u64>,
{
    assert_eq!(
        spec.input.n(),
        spec.config.n(),
        "input vector must match system size"
    );
    let nodes: Vec<Node<A>> = spec
        .config
        .processes()
        .map(|me| {
            if spec.fault_plan.is_faulty(me) {
                return Node::Byz(ByzantineActor::new(spec.strategy.clone()));
            }
            let uc = match spec.underlying {
                UnderlyingKind::Oracle => {
                    AnyUc::oracle(spec.config, me, spec.fault_plan.coordinator(spec.config))
                }
                UnderlyingKind::Mvc { coin_seed } => AnyUc::mvc(spec.config, me, coin_seed),
            };
            let mut actor = correct(me, uc, *spec.input.get(me));
            if trace {
                actor.enable_obs();
            }
            Node::Correct(actor)
        })
        .collect();
    let harvest = |nodes: &[Node<A>], quiescent, net: dex_simnet::NetStats| {
        let outcomes = nodes.iter().map(|node| match node {
            Node::Correct(a) => a.outcome(),
            Node::Byz(_) => Outcome::Faulty,
        });
        let result = RunResult {
            outcomes: outcomes.collect(),
            quiescent,
            messages: net.delivered,
            net,
        };
        let traces = nodes.iter().enumerate().map(|(i, node)| match node {
            Node::Correct(a) => a.obs_trace(),
            Node::Byz(_) => ProcessTrace {
                id: i as u16,
                events: Vec::new(),
            },
        });
        let traces = if trace { traces.collect() } else { Vec::new() };
        (result, traces)
    };
    match runtime {
        Runtime::Simnet => {
            let mut sim = Simulation::builder(nodes)
                .seed(spec.seed)
                .delay(spec.delay.clone())
                .faults(spec.faults.clone())
                .build();
            let run = sim.run(spec.max_events);
            harvest(sim.actors(), run.quiescent, sim.stats().clone())
        }
        Runtime::Thread => {
            let options = dex_threadnet::NetworkOptions {
                seed: spec.seed,
                delay: spec.delay.clone(),
                timeout: std::time::Duration::from_secs(30),
            };
            let res = dex_threadnet::run_network(nodes, options);
            harvest(&res.actors, res.quiescent, res.stats)
        }
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

impl<'a> BatchSpec<'a> {
    /// The figures' common batch — the batch counterpart of
    /// [`RunInstance::base`]: oracle underlying consensus, `f = 0` silent
    /// faults placed last, `uniform:1:10` delays, a clean network, no
    /// aggregation, one run from seed 0, a 5 M delivery cap. Figures
    /// struct-update the fields their experiment varies.
    pub fn base(
        config: SystemConfig,
        algo: Algo,
        workload: &'a (dyn InputGenerator + Sync),
    ) -> Self {
        BatchSpec {
            config,
            algo,
            underlying: UnderlyingKind::Oracle,
            strategy: ByzantineStrategy::Silent,
            f: 0,
            placement: Placement::LastK,
            workload,
            delay: DelayModel::Uniform { min: 1, max: 10 },
            chaos: ChaosSpec::None,
            aggregate: false,
            runs: 1,
            seed0: 0,
            max_events: 5_000_000,
        }
    }

    /// Derives run `i` of the batch — the one place the per-run recipe
    /// lives. The run's seed is `seed0 + i`; one rng derived from that
    /// seed draws the input vector first and then (under
    /// [`Placement::RandomK`]) the fault plan; the chaos schedule is
    /// compiled against that plan. Batches, `--trace` replays, the
    /// threaded runtime, campaign tasks and netd's consensus cells (with
    /// [`Placement::LastK`], netd's fault budget) all execute exactly the
    /// instance this returns.
    pub fn instance(&self, i: usize) -> RunInstance {
        let seed = self.seed0 + i as u64;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
        let input = self.workload.generate(self.config.n(), &mut rng);
        let fault_plan = match self.placement {
            Placement::LastK => FaultPlan::last_k(self.config, self.f),
            Placement::RandomK => FaultPlan::random_k(self.config, self.f, &mut rng),
        };
        RunInstance {
            config: self.config,
            algo: self.algo,
            underlying: self.underlying,
            strategy: self.strategy.clone(),
            faults: self.chaos.build(self.config, &fault_plan),
            fault_plan,
            input,
            delay: self.delay.clone(),
            seed,
            max_events: self.max_events,
            aggregate: self.aggregate,
        }
    }
}

/// Aggregated results of a batch.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Number of runs executed.
    pub runs: usize,
    /// Decision-path histogram over all correct processes.
    pub paths: Counter<&'static str>,
    /// Per run with a decision, the fraction of its correct-process
    /// decisions taken on the 1-step path — averaged, every run weighs
    /// the same however many processes decided in it.
    pub one_step_per_run: Summary,
    /// Step counts over all correct processes.
    pub steps: Summary,
    /// Histogram of those step counts. A path label does not fix the
    /// depth: a 2-step decision can land at depth 3 under random delays.
    pub depths: Counter<u32>,
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

    /// Folds one finished run into the aggregate, checking the safety and
    /// liveness predicates against that run's input and fault plan — the
    /// one violation ledger every runtime is held to (the `dex-netd`
    /// cluster folds its cells here too).
    pub fn fold(&mut self, inst: &RunInstance, run: &RunResult) {
        self.runs += 1;
        if !run.quiescent {
            self.non_quiescent += 1;
        }
        if !run.agreement_ok() {
            self.agreement_violations += 1;
        }
        if !run.unanimity_ok(&inst.input, &inst.fault_plan) {
            self.unanimity_violations += 1;
        }
        let (mut decided, mut one_step) = (0usize, 0usize);
        for outcome in &run.outcomes {
            match outcome {
                Outcome::Faulty => {}
                Outcome::Undecided => self.undecided += 1,
                Outcome::Decided(r) => {
                    decided += 1;
                    one_step += usize::from(r.path == "1-step");
                    self.paths.add(r.path);
                    self.steps.add(f64::from(r.steps));
                    self.depths.add(r.steps);
                    self.latency.add(r.latency as f64);
                }
            }
        }
        if decided > 0 {
            self.one_step_per_run.add(one_step as f64 / decided as f64);
        }
        self.messages.add(run.messages as f64);
        self.net.merge(&run.net);
    }
}

/// Executes batch run `i` — [`BatchSpec::instance`] — with event recording
/// enabled. This is how `--trace` replays a batch member
/// deterministically: same batch spec and index ⇒ identical trace.
pub fn traced_batch_run(spec: &BatchSpec<'_>, i: usize) -> TracedRun {
    run_instance_traced(&spec.instance(i))
}

/// Evaluates `f(0), …, f(total − 1)` on up to `jobs` scoped worker threads
/// and returns the results in index order — the one worker pool behind
/// batches and campaigns. Workers steal indices off a shared cursor, so
/// which thread computes which index is scheduling-dependent; the returned
/// vector is not.
///
/// # Panics
///
/// Re-raises a worker's panic.
pub(crate) fn par_map<T: Send>(total: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let jobs = jobs.clamp(1, total.max(1));
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break local;
                        }
                        local.push((i, f(i)));
                    }
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(local) => local.into_iter().for_each(|(i, v)| slots[i] = Some(v)),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index below `total` was claimed once"))
        .collect()
}

/// Executes a batch of runs on the simulator, one worker per available
/// core, and aggregates the statistics in run order (so they do not depend
/// on the worker count).
pub fn run_batch(spec: &BatchSpec<'_>) -> BatchStats {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    batch_on(spec, Runtime::Simnet, jobs)
}

/// [`run_batch`] on either in-process runtime with an explicit worker
/// count. The threaded runtime already owns every core per run, so its
/// callers pass `jobs = 1`.
pub(crate) fn batch_on(spec: &BatchSpec<'_>, runtime: Runtime, jobs: usize) -> BatchStats {
    let mut stats = BatchStats::default();
    for (inst, run) in batch_runs(spec, runtime, jobs) {
        stats.fold(&inst, &run);
    }
    stats
}

/// Every run of a batch with the instance it executed, in run order.
pub(crate) fn batch_runs(
    spec: &BatchSpec<'_>,
    runtime: Runtime,
    jobs: usize,
) -> Vec<(RunInstance, RunResult)> {
    par_map(spec.runs, jobs, |i| {
        let inst = spec.instance(i);
        let run = dispatch(&inst, runtime, false).0;
        (inst, run)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_workloads::{BernoulliMix, Unanimous};

    fn base_spec(n: usize, t: usize, algo: Algo, input: InputVector<u64>) -> RunInstance {
        RunInstance {
            seed: 7,
            ..RunInstance::base(SystemConfig::new(n, t).unwrap(), algo, input)
        }
    }

    /// n = 7, t = 1, f = 1 equivocator placed at random, `bernoulli:0.8`.
    fn bernoulli_batch(workload: &BernoulliMix, runs: usize, seed0: u64) -> BatchSpec<'_> {
        BatchSpec {
            strategy: ByzantineStrategy::Equivocate { values: vec![0, 1] },
            f: 1,
            placement: Placement::RandomK,
            runs,
            seed0,
            ..BatchSpec::base(SystemConfig::new(7, 1).unwrap(), Algo::DexFreq, workload)
        }
    }

    const BERNOULLI: BernoulliMix = BernoulliMix { p: 0.8, a: 1, b: 0 };

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
    #[should_panic(expected = "input vector must match system size")]
    fn simnet_rejects_an_input_of_the_wrong_size() {
        run_instance(&base_spec(
            7,
            1,
            Algo::DexFreq,
            InputVector::unanimous(6, 3),
        ));
    }

    #[test]
    #[should_panic(expected = "input vector must match system size")]
    fn threadnet_rejects_an_input_of_the_wrong_size() {
        let spec = base_spec(7, 1, Algo::DexFreq, InputVector::unanimous(6, 3));
        dispatch(&spec, Runtime::Thread, false);
    }

    #[test]
    #[should_panic(expected = "needs an algorithm with an echo/vote flood")]
    fn aggregating_an_algorithm_without_a_flood_panics() {
        run_instance(&RunInstance {
            aggregate: true,
            ..base_spec(7, 1, Algo::UnderlyingOnly, InputVector::unanimous(7, 3))
        });
    }

    #[test]
    fn batch_runner_aggregates_cleanly() {
        let cfg = SystemConfig::new(7, 1).unwrap();
        let workload = Unanimous { value: 5 };
        let stats = run_batch(&BatchSpec {
            f: 1,
            placement: Placement::RandomK,
            runs: 20,
            seed0: 100,
            ..BatchSpec::base(cfg, Algo::DexFreq, &workload)
        });
        assert!(stats.clean(), "{stats:?}");
        assert_eq!(stats.runs, 20);
        assert_eq!(stats.path_fraction("1-step"), 1.0);
        assert_eq!(stats.steps.mean(), 1.0);
        assert_eq!(stats.depths.fraction(&1), 1.0);
        assert_eq!(stats.one_step_per_run.count(), 20);
        assert_eq!(stats.one_step_per_run.mean(), 1.0);
    }

    #[test]
    fn par_map_returns_results_in_index_order_for_any_job_count() {
        let squares: Vec<usize> = (0..100).map(|i| i * i).collect();
        for jobs in [0, 1, 3, 8, 200] {
            assert_eq!(par_map(100, jobs, |i| i * i), squares, "jobs = {jobs}");
        }
        assert!(par_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn parallel_batch_equals_sequential_batch() {
        let spec = bernoulli_batch(&BERNOULLI, 24, 9);
        let seq = batch_on(&spec, Runtime::Simnet, 1);
        for par in [run_batch(&spec), batch_on(&spec, Runtime::Simnet, 4)] {
            assert!(seq.clean() && par.clean());
            assert_eq!(seq.runs, par.runs);
            assert_eq!(seq.steps, par.steps);
            assert_eq!(seq.latency, par.latency);
            assert_eq!(seq.messages, par.messages);
            assert_eq!(seq.steps.quantile(0.99), par.steps.quantile(0.99));
            assert_eq!(seq.paths.count(&"1-step"), par.paths.count(&"1-step"));
            assert_eq!(seq.one_step_per_run, par.one_step_per_run);
            assert_eq!(seq.depths, par.depths);
            assert_eq!(seq.net, par.net);
        }
    }

    #[test]
    fn batch_instance_derivation_is_pinned() {
        // Golden values: the input vector is drawn before the fault plan,
        // from one rng per run. A change in draw order, salt or seed
        // arithmetic moves every committed results/*.csv.
        let spec = bernoulli_batch(&BERNOULLI, 2, 2010);
        let golden = [
            (2010, vec![1u64, 1, 1, 0, 1, 1, 1], vec![2usize]),
            (2011, vec![1u64, 1, 1, 1, 1, 1, 1], vec![5usize]),
        ];
        for (i, (seed, input, faulty)) in golden.into_iter().enumerate() {
            let inst = spec.instance(i);
            assert_eq!(inst.seed, seed);
            assert_eq!(inst.input, InputVector::new(input), "run {i}");
            let plan = FaultPlan::from_ids(spec.config, faulty.into_iter().map(ProcessId::new));
            assert_eq!(inst.fault_plan, plan, "run {i}");
            assert!(inst.faults.is_empty());
        }
    }

    #[test]
    fn a_fixed_input_last_k_batch_is_the_hand_built_run() {
        // The figures' fixed-split cells are batches over one input vector
        // with the last f processes faulty. Each run must be the instance
        // a hand-written `run_instance` loop over seed0 + i builds.
        let cfg = SystemConfig::new(7, 1).unwrap();
        let input = InputVector::new(vec![0, 0, 1, 1, 1, 1, 1]);
        let lie = ByzantineStrategy::ConsistentLie { value: 0 };
        let spec = BatchSpec {
            strategy: lie.clone(),
            f: 1,
            runs: 3,
            seed0: 2010,
            ..BatchSpec::base(cfg, Algo::DexFreq, &input)
        };
        for i in 0..spec.runs {
            let by_hand = RunInstance {
                strategy: lie.clone(),
                fault_plan: FaultPlan::from_ids(cfg, (6..7).map(ProcessId::new)),
                seed: 2010 + i as u64,
                ..RunInstance::base(cfg, Algo::DexFreq, input.clone())
            };
            let inst = spec.instance(i);
            assert_eq!(inst.seed, by_hand.seed);
            assert_eq!(inst.input, by_hand.input);
            assert_eq!(inst.fault_plan, by_hand.fault_plan);
            assert_eq!(inst.strategy, by_hand.strategy);
            assert_eq!(inst.delay, by_hand.delay);
            assert_eq!(inst.max_events, by_hand.max_events);
            assert_eq!(inst.faults, FaultSchedule::none());
            assert_eq!(run_instance(&inst), run_instance(&by_hand), "run {i}");
        }
    }

    #[test]
    fn chaos_batch_stays_safe_and_live() {
        // Partition + heal under an equivocating Byzantine process at f = t:
        // deliveries are deferred, never lost, so the batch must stay clean.
        let stats = run_batch(&BatchSpec {
            chaos: ChaosSpec::PartitionHeal { open: 5, heal: 120 },
            ..bernoulli_batch(&BERNOULLI, 12, 40)
        });
        assert!(stats.clean(), "{stats:?}");
        assert_eq!(stats.runs, 12);
    }

    #[test]
    fn aggregation_collapses_the_echo_flood_at_n31() {
        // Same seeds, same workload draws; only the `aggregate` bit differs:
        // 1025.0 sent messages per decision off, 223.7 on (4.58×).
        let batch = |aggregate| {
            let stats = run_batch(&BatchSpec {
                aggregate,
                runs: 8,
                seed0: 42,
                max_events: 50_000_000,
                ..BatchSpec::base(SystemConfig::new(31, 5).unwrap(), Algo::DexFreq, &BERNOULLI)
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
