//! End-to-end netd cluster tests: the acceptance scenarios for the
//! process-level runtime, run against the real `dex-netd` binary.
//!
//! A localhost cluster must (a) decide a canonical fault-free MATRIX
//! cell with agreement across all processes, (b) survive a literal
//! `kill -9` + respawn of one replica, converging through `FileWal`
//! replay and `t + 1` catch-up, (c) decide every `ChaosSpec::MATRIX`
//! schedule injected onto its real TCP links with a seed-reproducible
//! per-link fault trace, and (d) survive the divergent-state kill -9:
//! per-process differing pending commands, survivor progress proven
//! while the victim is down, byte-identical committed prefixes after the
//! respawn. The harness itself asserts agreement, convergence and the
//! restart count; these tests assert the harness succeeds and emits the
//! artifacts — (e) a campaign point's cell row next to its simnet twin —
//! and (f) that a child which dies instead of reporting fails
//! the run at once, with its id, exit status and stderr.

use dex::harness::campaign::CampaignSpec;
use dex::harness::spec::{RunSpec, RuntimeSpec};
use std::path::Path;
use std::process::Command;

/// Runs `dex-netd` in `dir`, asserting the exit status.
fn netd(dir: &Path, args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_dex-netd"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn dex-netd");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "dex-netd {args:?} failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    stdout
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dex-netd-itest-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("artifact dir");
    dir
}

#[test]
fn five_process_cluster_decides_and_survives_kill9() {
    let dir = std::env::temp_dir().join(format!("dex-netd-itest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("artifact dir");
    let output = Command::new(env!("CARGO_BIN_EXE_dex-netd"))
        .current_dir(&dir)
        .args([
            "--cluster",
            "--n",
            "5",
            "--t",
            "0",
            "--workload",
            "bernoulli:0.8",
            "--runs",
            "1",
            "--seed",
            "31",
            "--slots",
            "6",
            "--pipeline",
            "4",
            "--timeout-secs",
            "120",
        ])
        .output()
        .expect("spawn dex-netd --cluster");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "cluster harness failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("decided"),
        "consensus cell reported no decision:\n{stdout}"
    );
    assert!(
        stdout.contains("converged at prefix 6") && stdout.contains("after 1 restart"),
        "kill -9 phase did not converge as expected:\n{stdout}"
    );
    let bench =
        std::fs::read_to_string(dir.join("results/netd_31.json")).expect("results/netd_31.json");
    assert!(bench.contains("\"cell\":\"consensus\""), "bench: {bench}");
    assert!(
        bench.contains("\"cell\":\"kill9\"") && bench.contains("\"converged\":true"),
        "bench: {bench}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn matrix_chaos_schedules_decide_with_reproducible_fault_traces() {
    let dir_a = scratch_dir("chaos-a");
    let dir_b = scratch_dir("chaos-b");
    // Every canonical MATRIX schedule must run to decision on real TCP
    // links, with agreement asserted by the harness across the survivors.
    for chaos in ["drop:0.4", "dup:0.35", "partition:5:120", "crash:3:100"] {
        let stdout = netd(
            &dir_a,
            &[
                "--cluster",
                "--n",
                "7",
                "--t",
                "1",
                "--f",
                "1",
                "--chaos",
                chaos,
                "--phase",
                "cells",
                "--runs",
                "1",
                "--seed",
                "42",
                "--timeout-secs",
                "120",
            ],
        );
        assert!(stdout.contains("decided"), "chaos {chaos}:\n{stdout}");
    }
    // Reproducibility: rerunning the drop schedule under the same seed in
    // a fresh directory must emit a byte-identical fault-trace artifact.
    for dir in [&dir_a, &dir_b] {
        netd(
            dir,
            &[
                "--cluster",
                "--n",
                "7",
                "--t",
                "1",
                "--f",
                "1",
                "--chaos",
                "drop:0.4",
                "--phase",
                "cells",
                "--runs",
                "2",
                "--seed",
                "42",
                "--timeout-secs",
                "120",
            ],
        );
    }
    let trace_a =
        std::fs::read(dir_a.join("results/netd_chaos_42.json")).expect("fault-trace artifact");
    let trace_b =
        std::fs::read(dir_b.join("results/netd_chaos_42.json")).expect("fault-trace artifact");
    assert!(
        trace_a == trace_b,
        "same seed must reproduce the same per-link fault trace"
    );
    let trace = String::from_utf8(trace_a).expect("utf8 artifact");
    assert!(
        trace.contains("\"sched\":\"0x") && trace.contains("\"--chaos\",\"drop:0.4\""),
        "trace artifact shape: {trace}"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn divergent_kill9_proves_survivor_progress_before_the_respawn_converges() {
    // W = 1 is the sequential log; W = 4 keeps slots in flight across the
    // kill, so the victim may overshoot the threshold between observations.
    for window in ["1", "4"] {
        let dir = scratch_dir(&format!("divergent-w{window}"));
        let stdout = netd(
            &dir,
            &[
                "--cluster",
                "--n",
                "7",
                "--t",
                "1",
                "--phase",
                "kill9",
                "--kill",
                "2:divergent",
                "--slots",
                "8",
                "--pipeline",
                window,
                "--seed",
                "99",
                "--timeout-secs",
                "120",
            ],
        );
        // Survivor progress is proven while the victim is down, before the
        // respawn exists; then the respawned victim replays its WAL and the
        // whole cluster converges on one digest at the full prefix.
        assert!(
            stdout.contains("survivors progressed to ≥"),
            "W = {window}: no survivor-progress proof:\n{stdout}"
        );
        assert!(
            stdout.contains("converged at prefix 8") && stdout.contains("after 1 restart"),
            "W = {window}: divergent kill9 did not converge:\n{stdout}"
        );
        let bench = std::fs::read_to_string(dir.join("results/netd_99.json"))
            .expect("results/netd_99.json");
        // The kill landed at (at least) the configured prefix 2; the exact
        // landing prefix is wall-clock dependent.
        assert!(
            bench.contains("\"divergent\":true")
                && bench.contains("\"killed_at_prefix\":")
                && bench.contains("\"survivor_floor\":")
                && bench.contains("\"converged\":true"),
            "W = {window}: bench: {bench}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn campaign_cell_records_wall_clock_rates_next_to_simnet_rates() {
    // A campaign point on netd is a cluster run on its replay spec.
    let campaign = CampaignSpec::smoke();
    let spec = RunSpec {
        runtime: RuntimeSpec::Netd { peers: None },
        ..campaign.runspec_for(&campaign.cells()[0], 0)
    };
    let flags = spec.to_args();
    let mut argv = vec!["--cluster", "--phase", "cells", "--timeout-secs", "120"];
    argv.extend(flags.iter().map(String::as_str));
    let dir = scratch_dir("campaign");
    let stdout = netd(&dir, &argv);
    assert!(
        stdout.contains("simnet"),
        "cell line names no twin:\n{stdout}"
    );
    let artifact = format!("results/netd_{}.json", spec.seed);
    let bench = std::fs::read_to_string(dir.join(&artifact)).expect("netd artifact");
    assert!(
        bench.contains("\"cell\":\"consensus\"")
            && bench.contains("\"simnet_one_step\":")
            && bench.contains("\"simnet_two_step\":"),
        "{artifact} rows carry no simnet twin: {bench}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_child_that_cannot_bind_fails_the_run_at_once_with_its_stderr() {
    use std::net::TcpListener;
    let dir = scratch_dir("bind-failure");
    // Process 0's listen address is taken: its bind must fail. The other
    // four addresses are free (probed, then released).
    let squatter = TcpListener::bind("127.0.0.1:0").expect("squatter");
    let free: Vec<TcpListener> = (0..4)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("probe"))
        .collect();
    let peers: Vec<String> = std::iter::once(&squatter)
        .chain(&free)
        .map(|l| format!("127.0.0.1:{}", l.local_addr().expect("addr").port()))
        .collect();
    drop(free);
    let started = std::time::Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_dex-netd"))
        .current_dir(&dir)
        .args(["--cluster", "--n", "5", "--t", "0", "--phase", "cells"])
        .args(["--runs", "1", "--timeout-secs", "120", "--peers"])
        .arg(peers.join(","))
        .output()
        .expect("spawn dex-netd");
    let took = started.elapsed();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "a dead child must fail the run");
    assert!(
        took < std::time::Duration::from_secs(5),
        "the failure must not wait out the 120 s budget (took {took:?})"
    );
    assert!(
        stderr.contains("process 0 exited") && stderr.contains("bind: "),
        "the report must name the child and carry its stderr:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
