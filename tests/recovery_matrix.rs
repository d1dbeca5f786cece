//! The crash-recovery acceptance matrix (ISSUE 5).
//!
//! Three headline guarantees of the recovery subsystem, end to end:
//!
//! 1. **Restart with amnesia at full Byzantine strength** (`f = t` plus a
//!    `CrashMode::Restart` window): the victim reboots through its
//!    `Recoverable` hook, replays snapshot + WAL, re-derives a committed
//!    prefix byte-identical to what it persisted before dying (validated
//!    per slot by the checker's `recovered-prefix` invariant), catches up
//!    the rest via the `t+1`-quorum protocol, and the cluster converges.
//! 2. **Sustained probabilistic loss** (`p ≥ 0.2` on every link, the whole
//!    run): plain runs starve — dropped protocol messages are gone for
//!    good — while the same seeds terminate once the `dex-core` resend
//!    layer is wrapped around the very same actors.
//! 3. **Fault-free artifacts are untouched**: the recovery layer is
//!    strictly additive — a chaos-free seed-31 trace renders byte-stably
//!    and keeps the pre-change artifact shape (no chaos block, same
//!    `results/trace_31.json` path).

use dex::obs;
use dex::prelude::*;
use dex::replication::{
    run_generic_cluster, Command, Durability, FileWal, GenericClusterOptions, KvStore, Node,
    Replica, TotalOrder,
};

const TARGET_SLOTS: u64 = 4;

/// Builds the traced `f = t` restart cluster: six correct durable replicas
/// plus one Byzantine (id 6), with replica `victim` crashing into amnesia
/// over `[40, 6000)`. `durability` builds each correct replica's store
/// from its id — in-memory for the matrix sweep, file-backed for the
/// real-medium case.
fn run_restart_cluster(
    seed: u64,
    victim: usize,
    durability: impl Fn(usize) -> Durability<KvStore>,
) -> (Simulation<Node<KvStore>>, obs::RunTrace) {
    let cfg = SystemConfig::new(7, 1).unwrap();
    let requests = vec![
        Command::put(1, 10),
        Command::put(2, 20),
        Command::add(1, 7),
        Command::delete(2),
    ];
    let nodes: Vec<Node<KvStore>> = (0..7)
        .map(|i| {
            if i == 6 {
                Node::Byz(dex::adversary::ByzantineActor::new(
                    ByzantineStrategy::EchoPoison {
                        values: vec![Command::put(666, 666), Command::put(999, 999)],
                    },
                ))
            } else {
                let mut r = Replica::new(
                    cfg,
                    ProcessId::new(i),
                    ProcessId::new(0),
                    requests.clone(),
                    TARGET_SLOTS,
                );
                r.enable_durability(durability(i));
                r.enable_obs();
                Node::Correct(r)
            }
        })
        .collect();
    let mut sim = Simulation::builder(nodes)
        .seed(seed)
        .delay(DelayModel::Uniform { min: 1, max: 10 })
        .faults(FaultSchedule::none().crash_restart(ProcessId::new(victim), 40, 6_000))
        .recoverable()
        .build();
    assert!(sim.run(50_000_000).quiescent, "seed {seed} did not drain");

    let processes: Vec<obs::ProcessTrace> = sim
        .actors()
        .iter()
        .map(|node| match node {
            Node::Correct(r) => r.obs().trace(),
            // The Byzantine process records nothing; the checker excludes
            // ids listed in `faulty` anyway.
            Node::Byz(_) => obs::Recorder::new(6).trace(),
        })
        .collect();
    let trace = obs::RunTrace {
        meta: obs::TraceMeta {
            seed,
            n: 7,
            t: 1,
            algo: "replication".to_string(),
            rules: obs::SchemeRules::Opaque,
            faulty: vec![6],
            legend: Vec::new(),
            chaos: Some(obs::ChaosMeta {
                last_heal: 6_000,
                eventually_clean: false,
                crashes: vec![(victim as u16, 40, Some(6_000))],
            }),
            pipeline: None,
        },
        processes,
    };
    (sim, trace)
}

#[test]
fn restart_matrix_rederives_prefixes_and_passes_the_checker() {
    for (seed, victim) in [(5, 3), (17, 2), (23, 5)] {
        let (sim, trace) = run_restart_cluster(seed, victim, |_| Durability::mem(2));
        let actors = sim.actors();

        // Convergence: every correct replica committed the full prefix,
        // and all logs/digests are byte-identical — the restarted victim's
        // re-derived log included.
        let mut logs = Vec::new();
        let mut digests = Vec::new();
        for node in actors {
            let Node::Correct(r) = node else { continue };
            assert_eq!(
                r.log().committed_prefix(),
                TARGET_SLOTS as usize,
                "seed {seed}: replica {} missed slots",
                r.me()
            );
            logs.push(r.log().prefix());
            digests.push(r.machine().digest());
        }
        assert!(
            logs.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: diverging logs {logs:?}"
        );
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
        for cmd in logs.iter().flatten() {
            assert_ne!(
                *cmd,
                Command::put(666, 666),
                "seed {seed}: poison committed"
            );
            assert_ne!(
                *cmd,
                Command::put(999, 999),
                "seed {seed}: poison committed"
            );
        }

        // The reboot actually happened (amnesia, not deferred delivery).
        let Node::Correct(v) = &actors[victim] else {
            panic!("victim is correct")
        };
        assert_eq!(v.restarts(), 1, "seed {seed}: restart hook must fire");

        // Checker: the victim's restart-time CatchUp events — one per slot
        // re-derived from snapshot + WAL — must each match the value the
        // cluster committed pre-crash. That is the byte-identity claim,
        // validated slot by slot.
        let report = obs::check(&trace);
        assert!(report.is_ok(), "seed {seed}: {:?}", report.violations);
        let recovered = report
            .checks
            .iter()
            .find(|(name, _)| *name == "recovered-prefix")
            .map(|(_, count)| *count)
            .unwrap_or(0);
        assert!(
            recovered > 0,
            "seed {seed}: recovery must re-derive committed slots"
        );
    }
}

#[test]
fn restart_recovery_holds_on_a_file_backed_wal() {
    // Same cluster as the matrix sweep, but every correct replica logs to
    // a real file: appends go through fsync, the crash discards only the
    // unsynced buffer, and restart replays from disk. The medium must be
    // invisible to the protocol — logs and checker verdict match the
    // MemWal run for the same seed and victim bit for bit.
    let (seed, victim) = (5, 3);
    let dir = std::env::temp_dir().join(format!(
        "dex-recovery-filewal-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let (file_sim, file_trace) = run_restart_cluster(seed, victim, |i| {
        let path = dir.join(format!("replica-{i}.wal"));
        let _ = std::fs::remove_file(&path);
        Durability::new(Box::new(FileWal::<Command>::open(path).unwrap()), 2)
    });
    let (mem_sim, _) = run_restart_cluster(seed, victim, |_| Durability::mem(2));

    let logs = |sim: &Simulation<Node<KvStore>>| -> Vec<Vec<Command>> {
        sim.actors()
            .iter()
            .filter_map(|node| match node {
                Node::Correct(r) => Some(r.log().prefix()),
                Node::Byz(_) => None,
            })
            .collect()
    };
    let file_logs = logs(&file_sim);
    assert_eq!(
        file_logs,
        logs(&mem_sim),
        "storage medium leaked into consensus"
    );
    assert!(file_logs.iter().all(|l| l.len() == TARGET_SLOTS as usize));

    // The reboot really went through the disk: the restart hook fired and
    // the victim's WAL file exists on the real filesystem.
    let Node::Correct(v) = &file_sim.actors()[victim] else {
        panic!("victim is correct")
    };
    assert_eq!(v.restarts(), 1, "restart hook must fire");
    assert!(dir.join(format!("replica-{victim}.wal")).exists());

    let report = obs::check(&file_trace);
    assert!(report.is_ok(), "{:?}", report.violations);
    assert!(
        report
            .checks
            .iter()
            .any(|(name, count)| *name == "recovered-prefix" && *count > 0),
        "recovery must re-derive committed slots from the file store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sustained_loss_deadlocks_plain_runs_but_resend_restores_termination() {
    // p = 0.25 ≥ 0.2 on *every* link for the entire run — no healing
    // instant, so the checker's GST framing never applies and only
    // retransmission can restore the n−t views the fast paths need.
    let mut starved = 0;
    for seed in [31, 32, 33] {
        let options = GenericClusterOptions {
            faults: FaultSchedule::none().lossy_link(None, None, 0.25, 0.0),
            ..GenericClusterOptions::new(
                SystemConfig::new(7, 1).unwrap(),
                vec![vec![81u64, 82, 83]; 7],
                3,
                seed,
            )
        };
        // A plain run that starves fails the convergence assert.
        let plain =
            std::panic::catch_unwind(|| run_generic_cluster::<TotalOrder<u64>>(options.clone()));
        if let Err(why) = plain {
            let why = why.downcast_ref::<String>().expect("panic message");
            assert!(why.contains("missed slots"), "seed {seed}: {why}");
            starved += 1;
        }

        let reliable = run_generic_cluster::<TotalOrder<u64>>(GenericClusterOptions {
            reliable: true,
            ..options
        });
        assert!(
            reliable.converged(),
            "seed {seed}: resend layer must restore liveness: {:?}",
            reliable.logs
        );
    }
    assert!(
        starved > 0,
        "sustained 25% loss must starve at least one plain run"
    );
}

#[test]
fn fault_free_seed_31_artifact_keeps_the_pre_change_shape() {
    // The exact spec scripts/ci.sh pins with cmp: chaos-free, seed 31.
    let spec = RunSpec {
        f: 1,
        workload: WorkloadSpec::Bernoulli { p: 0.8 },
        adversary: AdversarySpec::Equivocate,
        runs: 3,
        seed: 31,
        trace: true,
        ..RunSpec::default()
    };
    let render = |spec: &RunSpec| {
        let traced = spec.traced(0).expect("valid spec");
        let report = obs::check(&traced.trace);
        assert!(report.is_ok(), "{:?}", report.violations);
        obs::json::render(&traced.trace, &report)
    };
    let first = render(&spec);
    let second = render(&spec);
    assert_eq!(
        first, second,
        "fault-free artifacts must replay byte-for-byte"
    );
    // The recovery layer is additive: chaos-free artifacts carry no chaos
    // block, no recovery events, and keep the pre-chaos path.
    assert!(!first.contains("\"chaos\":{"));
    assert!(!first.contains("\"catch_up\""));
    assert!(!first.contains("\"resend\""));
    assert_eq!(spec.trace_artifact(), "results/trace_31.json");
}
