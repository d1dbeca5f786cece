//! **E7 — Complementarity of the two legal pairs** (§1.2): the expedited
//! regions of `P_freq` and `P_prv` are complementary.
//!
//! Two workload families on `n = 6t + 1` (both pairs constructible):
//!
//! * **Commit-heavy** (`BernoulliMix` with the privileged value `m = 1`):
//!   the privileged pair fires whenever `#m` clears its thresholds even if
//!   the margin over Abort is modest; the frequency pair needs the margin
//!   itself.
//! * **Hot-value splits with `m` absent** (`SplitCount` between 2 and 3):
//!   the frequency pair can expedite any popular value; the privileged pair
//!   never fires because `m` is not proposed at all.

use crate::runner::{run_batch, Algo, BatchSpec};
use dex_metrics::Table;
use dex_types::SystemConfig;
use dex_workloads::{BernoulliMix, InputGenerator, SplitCount};

/// Options for the pair-complementarity experiment.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Fault bound (system size is `6t + 1`).
    pub t: usize,
    /// Runs per workload point.
    pub runs: usize,
    /// Base seed.
    pub seed0: u64,
}

/// Fast-decision fractions of one algorithm on one workload.
pub struct FastFractions {
    /// Fraction of decisions at one step.
    pub one_step: f64,
    /// Fraction of decisions at one or two steps.
    pub le_two_step: f64,
}

/// Measures fast-path fractions for `algo` on `workload`.
pub fn fast_fractions(
    cfg: SystemConfig,
    algo: Algo,
    workload: &(dyn InputGenerator + Sync),
    runs: usize,
    seed0: u64,
) -> FastFractions {
    let stats = run_batch(&BatchSpec {
        runs,
        seed0,
        ..BatchSpec::base(cfg, algo, workload)
    });
    assert!(stats.clean(), "{stats:?}");
    FastFractions {
        one_step: stats.path_fraction("1-step"),
        le_two_step: stats.path_fraction("1-step") + stats.path_fraction("2-step"),
    }
}

/// Runs E7 and renders the comparison table.
pub fn run(opts: Opts) -> Table {
    let t = opts.t;
    let n = 6 * t + 1;
    let cfg = SystemConfig::new(n, t).expect("n = 6t + 1 > 3t");
    let mut table = Table::new(vec![
        "workload".into(),
        "freq 1-step".into(),
        "freq <=2-step".into(),
        "prv 1-step".into(),
        "prv <=2-step".into(),
    ]);

    // Commit-heavy sweep: the privileged value m = 1 vs abort = 0.
    for p10 in [60, 70, 80, 90, 100] {
        let workload = BernoulliMix {
            p: p10 as f64 / 100.0,
            a: 1,
            b: 0,
        };
        let freq = fast_fractions(cfg, Algo::DexFreq, &workload, opts.runs, opts.seed0);
        let prv = fast_fractions(cfg, Algo::DexPrv { m: 1 }, &workload, opts.runs, opts.seed0);
        table.row(vec![
            workload.name(),
            format!("{:.2}", freq.one_step),
            format!("{:.2}", freq.le_two_step),
            format!("{:.2}", prv.one_step),
            format!("{:.2}", prv.le_two_step),
        ]);
    }

    // Splits between two non-privileged values (m = 1 absent).
    for minor_count in [0, 1, t] {
        let workload = SplitCount {
            major: 2,
            minor: 3,
            minor_count,
        };
        let freq = fast_fractions(cfg, Algo::DexFreq, &workload, opts.runs, opts.seed0 + 77);
        let prv = fast_fractions(
            cfg,
            Algo::DexPrv { m: 1 },
            &workload,
            opts.runs,
            opts.seed0 + 77,
        );
        table.row(vec![
            workload.name(),
            format!("{:.2}", freq.one_step),
            format!("{:.2}", freq.le_two_step),
            format!("{:.2}", prv.one_step),
            format!("{:.2}", prv.le_two_step),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prv_wins_commit_heavy_freq_wins_foreign_values() {
        let cfg = SystemConfig::new(7, 1).unwrap();
        // n = 7, t = 1, p = 0.8: E[#m] = 5.6 — P1_prv (#m > 3) very likely;
        // freq P1 needs margin > 4, i.e. #m ≥ 6 — much rarer.
        let commitish = BernoulliMix { p: 0.8, a: 1, b: 0 };
        let freq = fast_fractions(cfg, Algo::DexFreq, &commitish, 40, 1);
        let prv = fast_fractions(cfg, Algo::DexPrv { m: 1 }, &commitish, 40, 1);
        assert!(
            prv.one_step > freq.one_step,
            "prv {:.2} vs freq {:.2}",
            prv.one_step,
            freq.one_step
        );

        // Unanimous on value 2 (m absent): freq one-step, prv never fast.
        let foreign = SplitCount {
            major: 2,
            minor: 3,
            minor_count: 0,
        };
        let freq = fast_fractions(cfg, Algo::DexFreq, &foreign, 10, 2);
        let prv = fast_fractions(cfg, Algo::DexPrv { m: 1 }, &foreign, 10, 2);
        assert_eq!(freq.one_step, 1.0);
        assert_eq!(prv.one_step, 0.0);
        assert_eq!(prv.le_two_step, 0.0);
    }
}
