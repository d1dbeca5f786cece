//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Each `table*` / `fig*` binary under `src/bin/` regenerates one artifact
//! of the paper (see `DESIGN.md` §4 and `EXPERIMENTS.md`): it prints the
//! plain-text table to stdout and writes a CSV next to it under `results/`.
//! `fuzz_safety`, `safety_grid` and `legality_check` are checkers that share
//! the same plumbing. Performance is measured elsewhere — by the
//! `benchmark/` package that `BENCHMARK.json` declares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dex_metrics::Table;
use std::path::PathBuf;

/// Number of runs per experiment point: `DEX_RUNS` env var, or the default.
pub fn runs_from_env(default: usize) -> usize {
    std::env::var("DEX_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Prints a table under a heading and writes its CSV to
/// `results/<name>.csv` (directory created on demand).
pub fn emit(name: &str, heading: &str, table: &Table) {
    println!("== {heading}\n");
    println!("{}", table.render());
    let dir = PathBuf::from("results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.csv"));
        match std::fs::write(&path, table.to_csv()) {
            Ok(()) => println!("[csv written to {}]\n", path.display()),
            Err(e) => eprintln!("[csv not written: {e}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_from_env_parses_or_defaults() {
        // The env var is unset in tests.
        assert_eq!(runs_from_env(42), 42);
    }

    #[test]
    fn emit_writes_csv() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into()]);
        let tmp = std::env::temp_dir().join("dex-bench-emit-test");
        let _ = std::fs::create_dir_all(&tmp);
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&tmp).unwrap();
        emit("emit_test", "Emit test", &t);
        std::env::set_current_dir(old).unwrap();
        let written = std::fs::read_to_string(tmp.join("results/emit_test.csv")).unwrap();
        assert!(written.starts_with("a\n"));
    }
}
