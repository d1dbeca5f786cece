//! **E1b — Table 1's crash-model rows**: Brasileiro et al. \[2\] and the
//! adaptive condition-based rule (spirit of Izumi–Masuzawa \[8\]) at
//! `n = 3t + 1`, under crash faults.
//!
//! Contrast with the Byzantine rows: crash algorithms get away with far
//! smaller systems (`3t+1` vs `5t+1`–`7t+1`) and, for the adaptive rule,
//! with far weaker margins (`> 2f` instead of `> 4t + 2f`), because views
//! can omit entries but never contain lies.

use crate::runner::{run_batch, Algo, BatchSpec, Placement};
use dex_metrics::Table;
use dex_types::SystemConfig;
use dex_workloads::{SplitCount, Unanimous};

/// Options for the crash-rows experiment.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Fault bound (system size is `3t + 1`).
    pub t: usize,
    /// Runs per cell.
    pub runs: usize,
    /// Base seed.
    pub seed0: u64,
}

/// Runs E1b and renders the crash-rows table.
///
/// # Panics
///
/// Panics if any cell shows a safety or termination violation.
pub fn run(opts: Opts) -> Table {
    let t = opts.t;
    let n = 3 * t + 1;
    let cfg = SystemConfig::new(n, t).expect("n = 3t + 1");
    let mut table = Table::new(vec![
        "algorithm".into(),
        "n".into(),
        "workload".into(),
        "f (crashes)".into(),
        "1-step fraction".into(),
        "mean steps".into(),
    ]);
    let unanimous = Unanimous { value: 1 };
    // Margin 2: n − 2·mc = 2 ⇒ inside the adaptive one-step region only
    // when f = 0 (needs margin > 2f).
    let thin_margin = SplitCount {
        major: 1,
        minor: 0,
        minor_count: (n - 2) / 2,
    };
    for algo in [Algo::Brasileiro, Algo::CrashAdaptive] {
        for f in 0..=t {
            for (wname, workload) in [
                (
                    "unanimous",
                    &unanimous as &(dyn dex_workloads::InputGenerator + Sync),
                ),
                ("margin-2 split", &thin_margin),
            ] {
                // The base's silent strategy *is* the crash model.
                let stats = run_batch(&BatchSpec {
                    f,
                    placement: Placement::RandomK,
                    runs: opts.runs,
                    seed0: opts.seed0,
                    ..BatchSpec::base(cfg, algo, workload)
                });
                assert!(stats.clean(), "{}/{wname}/f={f}: {stats:?}", algo.label());
                table.row(vec![
                    algo.label().into(),
                    n.to_string(),
                    wname.into(),
                    f.to_string(),
                    format!("{:.2}", stats.path_fraction("1-step")),
                    format!("{:.2}", stats.steps.mean()),
                ]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_rows_match_cited_results() {
        let table = run(Opts {
            t: 1,
            runs: 20,
            seed0: 3,
        });
        let csv = table.to_csv();
        // Brasileiro: unanimous + f = 0 ⇒ always one-step at n = 3t + 1.
        assert!(
            csv.lines()
                .any(|l| l.starts_with("brasileiro,4,unanimous,0,1.00")),
            "{csv}"
        );
        // The adaptive rule decides one-step on margin-2 inputs when f = 0
        // (margin 2 > 2·0), which Brasileiro cannot (not unanimous).
        let adaptive_f0 = csv
            .lines()
            .find(|l| l.starts_with("crash-adaptive,4,margin-2 split,0"))
            .expect("row exists");
        let frac: f64 = adaptive_f0.split(',').nth(4).unwrap().parse().unwrap();
        assert!(frac > 0.9, "adaptive one-step fraction {frac}");
        let brasileiro_f0 = csv
            .lines()
            .find(|l| l.starts_with("brasileiro,4,margin-2 split,0"))
            .expect("row exists");
        let bfrac: f64 = brasileiro_f0.split(',').nth(4).unwrap().parse().unwrap();
        assert!(bfrac < frac, "brasileiro {bfrac} vs adaptive {frac}");
    }
}
