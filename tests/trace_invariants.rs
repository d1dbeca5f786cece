//! End-to-end tests of the trace/observability layer: every tier-1
//! scenario must replay cleanly through the `dex-obs` invariant checker,
//! the JSON artifact must be byte-stable for a fixed seed, and a
//! deliberately unsound legality pair must be *caught*.

use dex::adversary::{ByzantineStrategy, FaultPlan};
use dex::conditions::LegalityPair;
use dex::core::{DexActor, DexProcess};
use dex::harness::runner::{
    run_instance_traced, traced_batch_run, Algo, BatchSpec, Placement, RunInstance, UnderlyingKind,
};
use dex::harness::AnyUc;
use dex::obs::{check, ProcessTrace, RunTrace, SchemeRules, TraceMeta};
use dex::simnet::{DelayModel, Simulation};
use dex::types::{InputVector, ProcessId, SystemConfig, View};
use dex::workloads::BernoulliMix;

fn base_spec(n: usize, t: usize, algo: Algo, input: InputVector<u64>) -> RunInstance {
    RunInstance {
        faults: dex::simnet::FaultSchedule::none(),
        config: SystemConfig::new(n, t).unwrap(),
        algo,
        underlying: UnderlyingKind::Oracle,
        strategy: ByzantineStrategy::Silent,
        fault_plan: FaultPlan::none(),
        input,
        delay: DelayModel::Uniform { min: 1, max: 10 },
        seed: 7,
        max_events: 1_000_000,
        aggregate: false,
    }
}

fn assert_clean(spec: &RunInstance) {
    let traced = run_instance_traced(spec);
    assert!(traced.result.quiescent && traced.result.agreement_ok());
    let report = check(&traced.trace);
    assert!(
        report.is_ok(),
        "{} violations: {:?}",
        spec.algo.label(),
        report.violations
    );
    assert!(report.total_checks() > 0);
}

#[test]
fn unanimous_one_step_run_checks_clean() {
    let spec = base_spec(7, 1, Algo::DexFreq, InputVector::unanimous(7, 3));
    let traced = run_instance_traced(&spec);
    assert_eq!(traced.result.max_steps(), Some(1));
    let report = check(&traced.trace);
    assert!(report.is_ok(), "{:?}", report.violations);
    // A one-step run must actually exercise the P1 invariant.
    let p1_checks = report
        .checks
        .iter()
        .find(|(name, _)| *name == "one-step-p1")
        .map(|(_, count)| *count)
        .unwrap();
    assert_eq!(p1_checks, 7);
}

#[test]
fn split_fallback_run_checks_clean() {
    // 4 vs 3: margin 1 ≤ 4t and ≤ 2t ⇒ every process falls back.
    let input = InputVector::new(vec![3, 3, 3, 3, 9, 9, 9]);
    assert_clean(&base_spec(7, 1, Algo::DexFreq, input));
}

#[test]
fn privileged_pair_run_checks_clean() {
    let input = InputVector::new(vec![1, 1, 1, 1, 1, 0]);
    let spec = base_spec(6, 1, Algo::DexPrv { m: 1 }, input);
    let traced = run_instance_traced(&spec);
    assert_eq!(traced.result.max_steps(), Some(1));
    let report = check(&traced.trace);
    assert!(report.is_ok(), "{:?}", report.violations);
}

#[test]
fn adversarial_runs_check_clean() {
    for seed in 0..5 {
        let spec = RunInstance {
            faults: dex::simnet::FaultSchedule::none(),
            fault_plan: FaultPlan::last_k(SystemConfig::new(7, 1).unwrap(), 1),
            strategy: ByzantineStrategy::EchoPoison { values: vec![3, 9] },
            seed,
            ..base_spec(7, 1, Algo::DexFreq, InputVector::unanimous(7, 3))
        };
        let traced = run_instance_traced(&spec);
        let report = check(&traced.trace);
        assert!(report.is_ok(), "seed {seed}: {:?}", report.violations);
    }
}

#[test]
fn baseline_runs_check_clean() {
    for algo in [
        Algo::Bosco,
        Algo::UnderlyingOnly,
        Algo::Brasileiro,
        Algo::CrashAdaptive,
    ] {
        let clean = base_spec(7, 1, algo, InputVector::unanimous(7, 3));
        assert_clean(&clean);
        // f = 1: the last process tells some peers 3 and the others 9.
        for seed in 0..5 {
            assert_clean(&RunInstance {
                fault_plan: FaultPlan::last_k(clean.config, 1),
                strategy: ByzantineStrategy::Equivocate { values: vec![3, 9] },
                seed,
                ..clean.clone()
            });
        }
    }
}

#[test]
fn traced_batch_run_matches_batch_derivation_and_is_stable() {
    let workload = BernoulliMix { p: 0.8, a: 1, b: 0 };
    let batch = BatchSpec {
        chaos: dex::harness::spec::ChaosSpec::None,
        config: SystemConfig::new(7, 1).unwrap(),
        algo: Algo::DexFreq,
        underlying: UnderlyingKind::Oracle,
        strategy: ByzantineStrategy::Equivocate { values: vec![0, 1] },
        f: 1,
        placement: Placement::RandomK,
        workload: &workload,
        delay: DelayModel::Uniform { min: 1, max: 10 },
        runs: 3,
        seed0: 42,
        max_events: 5_000_000,
        aggregate: false,
    };
    let a = traced_batch_run(&batch, 0);
    let b = traced_batch_run(&batch, 0);
    let ra = check(&a.trace);
    let rb = check(&b.trace);
    assert!(ra.is_ok(), "{:?}", ra.violations);
    // Same batch index ⇒ byte-identical artifact.
    assert_eq!(
        dex::obs::json::render(&a.trace, &ra),
        dex::obs::json::render(&b.trace, &rb)
    );
}

/// A deliberately unsound pair: `P1` fires on *any* plurality margin, far
/// below the `> 4t` the frequency legality proof requires. The checker
/// re-derives the sound threshold from the recorded `J1` snapshots, so a
/// run that one-steps through this pair must be flagged.
#[derive(Debug)]
struct BrokenPair {
    t: usize,
}

impl LegalityPair<u64> for BrokenPair {
    fn name(&self) -> &'static str {
        "broken"
    }
    fn t(&self) -> usize {
        self.t
    }
    fn p1(&self, view: &View<u64>) -> bool {
        view.frequency_margin() > 0
    }
    fn p2(&self, view: &View<u64>) -> bool {
        view.frequency_margin() > 2 * self.t
    }
    fn decide(&self, view: &View<u64>) -> Option<u64> {
        view.first_with_count().map(|(v, _)| *v)
    }
    fn in_c1(&self, _input: &InputVector<u64>, _k: usize) -> bool {
        true
    }
    fn in_c2(&self, _input: &InputVector<u64>, _k: usize) -> bool {
        true
    }
}

#[test]
fn checker_flags_unsound_one_step_pair() {
    // 5 vs 2 with n = 7, t = 1: the reachable margin is at most 3 < 4t + 1,
    // so a sound frequency pair never one-steps — but BrokenPair does.
    let cfg = SystemConfig::new(7, 1).unwrap();
    let input = InputVector::new(vec![1, 1, 1, 1, 1, 0, 0]);
    let actors: Vec<_> = cfg
        .processes()
        .map(|me| {
            let mut actor = DexActor::new(
                DexProcess::new(
                    cfg,
                    me,
                    BrokenPair { t: cfg.t() },
                    AnyUc::oracle(cfg, me, ProcessId::new(0)),
                ),
                *input.get(me),
            );
            actor.process_mut().enable_obs();
            actor
        })
        .collect();
    let mut sim = Simulation::builder(actors)
        .seed(3)
        .delay(DelayModel::Uniform { min: 1, max: 10 })
        .build();
    assert!(sim.run(1_000_000).quiescent);
    let one_stepped = sim
        .actors()
        .iter()
        .any(|a| a.decision().is_some_and(|d| d.depth.get() == 1));
    assert!(one_stepped, "broken pair should have one-stepped somewhere");
    let processes: Vec<ProcessTrace> = sim
        .actors()
        .iter()
        .map(|a| a.process().obs().trace())
        .collect();
    let run = RunTrace {
        meta: TraceMeta {
            seed: 3,
            n: 7,
            t: 1,
            algo: "dex-broken".to_string(),
            rules: SchemeRules::Frequency,
            faulty: Vec::new(),
            legend: Vec::new(),
            chaos: None,
            pipeline: None,
        },
        processes,
    };
    let report = check(&run);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "one-step-p1"),
        "expected a one-step-p1 violation, got {:?}",
        report.violations
    );
}
