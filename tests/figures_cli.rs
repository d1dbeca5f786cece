//! `dex-figures` as a process, each run in its own empty working
//! directory: what a figure writes, and which overrides stop it before it
//! writes anything.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory named for one test case.
fn fresh_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dex-figures-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the temp directory");
    dir
}

/// Runs `dex-figures fig_latency` in `dir` with extra environment `vars`.
fn fig_latency(dir: &Path, vars: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dex-figures"))
        .arg("fig_latency")
        .envs(vars.iter().copied())
        .current_dir(dir)
        .output()
        .expect("dex-figures starts")
}

#[test]
fn emit_writes_csv() {
    let dir = fresh_dir("emit");
    let out = fig_latency(&dir, &[("DEX_RUNS", "2")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("[csv written to results/fig_latency.csv]"),
        "{stdout}"
    );
    let written = std::fs::read_to_string(dir.join("results/fig_latency.csv")).unwrap();
    let committed = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("results/fig_latency.csv"),
    )
    .unwrap();
    assert_eq!(written.lines().next(), committed.lines().next());
    assert_eq!(written.lines().count(), committed.lines().count());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_malformed_override_exits_2_before_any_figure_runs() {
    for (case, var, value) in [
        ("zero-runs", "DEX_RUNS", "0"),
        ("runs-nan", "DEX_RUNS", "abc"),
        ("fuzz-seed", "DEX_FUZZ_SEED", "seed"),
    ] {
        let dir = fresh_dir(case);
        let out = fig_latency(&dir, &[(var, value)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
        assert!(stderr.contains(var), "{var}={value}: {stderr}");
        assert!(out.stdout.is_empty(), "{var}={value} printed a figure");
        assert!(!dir.join("results").exists(), "{var}={value} wrote results");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
