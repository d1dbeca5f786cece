//! Integration: Algorithm DEX running under real OS concurrency — one
//! thread per process, jittered channel delivery. Confirms the state
//! machines are not simulation artifacts.

use dex_conditions::FrequencyPair;
use dex_core::{DecisionPath, DexActor, DexProcess};
use dex_simnet::DelayModel;
use dex_threadnet::{run_network, NetworkOptions};
use dex_types::{ProcessId, StepDepth, SystemConfig};
use dex_underlying::OracleConsensus;
use std::time::Duration;

type Node = DexActor<u64, FrequencyPair, OracleConsensus<u64>>;

fn build(n: usize, t: usize, proposals: &[u64]) -> Vec<Node> {
    let cfg = SystemConfig::new(n, t).unwrap();
    proposals
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let me = ProcessId::new(i);
            DexActor::new(
                DexProcess::new(
                    cfg,
                    me,
                    FrequencyPair::new(cfg).unwrap(),
                    OracleConsensus::new(cfg, me, ProcessId::new(0)),
                ),
                *v,
            )
        })
        .collect()
}

fn options(seed: u64) -> NetworkOptions {
    NetworkOptions {
        seed,
        delay: DelayModel::Uniform { min: 20, max: 400 },
        timeout: Duration::from_secs(20),
    }
}

#[test]
fn unanimous_run_is_one_step_under_threads() {
    let result = run_network(build(7, 1, &[5; 7]), options(1));
    assert!(result.quiescent, "network must drain");
    for a in &result.actors {
        let d = a.decision().expect("every process decides");
        assert_eq!(d.value, 5);
        assert_eq!(d.path, DecisionPath::OneStep);
        assert_eq!(d.depth, StepDepth::new(1));
    }
}

#[test]
fn split_run_agrees_under_threads() {
    for seed in 0..3 {
        let result = run_network(build(7, 1, &[3, 3, 3, 3, 9, 9, 9]), options(seed));
        assert!(result.quiescent);
        let first = result.actors[0].decision().expect("decided").value;
        for a in &result.actors {
            let d = a.decision().expect("every process decides");
            assert_eq!(d.value, first, "agreement under real concurrency");
        }
    }
}

#[test]
fn moderate_margin_uses_fast_paths_under_threads() {
    // Margin 3 (5 vs 2): the two-step channel should fire.
    let result = run_network(build(7, 1, &[3, 3, 3, 3, 3, 9, 9]), options(7));
    assert!(result.quiescent);
    for a in &result.actors {
        let d = a.decision().expect("decided");
        assert_eq!(d.value, 3);
        assert_ne!(d.path, DecisionPath::OneStep, "margin 3 ≤ 4t blocks P1");
    }
}

#[test]
fn traced_run_checks_clean_under_threads() {
    // Event recording under real concurrency: per-process event order is
    // still causally consistent, so the invariant checker must accept it
    // (cross-run byte-stability is only promised for the simulator).
    let mut actors = build(7, 1, &[5; 7]);
    for (i, a) in actors.iter_mut().enumerate() {
        a.process_mut().enable_obs();
        assert_eq!(a.process().obs().me(), i as u16);
    }
    let result = run_network(actors, options(5));
    assert!(result.quiescent);
    let processes: Vec<dex_obs::ProcessTrace> = result
        .actors
        .iter()
        .map(|a| a.process().obs().trace())
        .collect();
    for p in &processes {
        assert!(
            p.events
                .iter()
                .any(|e| matches!(e.kind, dex_obs::EventKind::Send { .. })),
            "process {} recorded no sends",
            p.id
        );
        assert!(
            p.events
                .iter()
                .any(|e| matches!(e.kind, dex_obs::EventKind::Decide { .. })),
            "process {} recorded no decision",
            p.id
        );
    }
    let run = dex_obs::RunTrace {
        meta: dex_obs::TraceMeta {
            seed: 5,
            n: 7,
            t: 1,
            algo: "dex-freq".to_string(),
            rules: dex_obs::SchemeRules::Frequency,
            faulty: Vec::new(),
            legend: Vec::new(),
            chaos: None,
            pipeline: None,
        },
        processes,
    };
    let report = dex_obs::check(&run);
    assert!(report.is_ok(), "{:?}", report.violations);
}
