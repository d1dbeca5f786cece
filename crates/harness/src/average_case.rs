//! **E6 — The 3-vs-4-step trade-off** (§1.2 drawback, §5): DEX sacrifices
//! the third-step decision (4-step worst case in well-behaved runs vs
//! Bosco's 3) but wins on average once its much larger fast-path region
//! kicks in.
//!
//! Two-value Bernoulli contention sweep at `n = 7t + 1` (so Bosco is even
//! strongly one-step): each process proposes value 1 with probability `p`,
//! else 0. At `p = 1` everyone is one-step. As `p` drops, Bosco falls off a
//! cliff (its only fast path needs a near-unanimous vote set), while DEX
//! degrades gracefully through its two-step channel before paying 4 steps.
//! The table locates the crossover where DEX's mean steps beat Bosco's.

use crate::runner::{run_batch, Algo, BatchSpec};
use dex_metrics::Table;
use dex_types::SystemConfig;
use dex_workloads::BernoulliMix;

/// Options for the average-case experiment.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Fault bound (system size is `7t + 1`).
    pub t: usize,
    /// Actual faults per run (silent).
    pub f: usize,
    /// Runs per probability point.
    pub runs: usize,
    /// Base seed.
    pub seed0: u64,
}

/// Mean decision steps of `algo` under contention `p`.
pub fn mean_steps(cfg: SystemConfig, algo: Algo, p: f64, f: usize, runs: usize, seed0: u64) -> f64 {
    let workload = BernoulliMix { p, a: 1, b: 0 };
    let stats = run_batch(&BatchSpec {
        f,
        runs,
        seed0,
        ..BatchSpec::base(cfg, algo, &workload)
    });
    assert!(stats.clean(), "violations at p={p}: {stats:?}");
    stats.steps.mean()
}

/// Runs E6 and renders the sweep table.
pub fn run(opts: Opts) -> Table {
    let t = opts.t;
    let cfg = SystemConfig::new(7 * t + 1, t).expect("n = 7t + 1 > 3t");
    let mut table = Table::new(vec![
        "p(common value)".into(),
        "dex-freq mean steps".into(),
        "dex-prv mean steps".into(),
        "bosco mean steps".into(),
        "underlying-only mean steps".into(),
    ]);
    for p10 in (50..=100).step_by(5) {
        let p = p10 as f64 / 100.0;
        let dex = mean_steps(cfg, Algo::DexFreq, p, opts.f, opts.runs, opts.seed0);
        let prv = mean_steps(
            cfg,
            Algo::DexPrv { m: 1 },
            p,
            opts.f,
            opts.runs,
            opts.seed0 + 1_000_000,
        );
        let bosco = mean_steps(
            cfg,
            Algo::Bosco,
            p,
            opts.f,
            opts.runs,
            opts.seed0 + 2_000_000,
        );
        let plain = mean_steps(
            cfg,
            Algo::UnderlyingOnly,
            p,
            opts.f,
            opts.runs,
            opts.seed0 + 3_000_000,
        );
        table.row(vec![
            format!("{p:.2}"),
            format!("{dex:.2}"),
            format!("{prv:.2}"),
            format!("{bosco:.2}"),
            format!("{plain:.2}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_behave_as_predicted() {
        let cfg = SystemConfig::new(8, 1).unwrap();
        // p = 1: both one-step.
        assert_eq!(mean_steps(cfg, Algo::DexFreq, 1.0, 0, 10, 0), 1.0);
        assert_eq!(mean_steps(cfg, Algo::Bosco, 1.0, 0, 10, 0), 1.0);
        // p = 0.5: heavy contention; DEX pays up to 4, Bosco up to 3, the
        // plain baseline always 2.
        let plain = mean_steps(cfg, Algo::UnderlyingOnly, 0.5, 0, 10, 0);
        assert_eq!(plain, 2.0);
    }

    #[test]
    fn dex_beats_bosco_at_moderate_contention() {
        // At p = 0.85, n = 15, t = 2: expected margin ≈ 0.7·15 = 10.5 > 2t
        // most of the time (two-step or better for DEX), while a unanimous
        // first-13 vote set for Bosco is rare.
        let cfg = SystemConfig::new(15, 2).unwrap();
        let dex = mean_steps(cfg, Algo::DexFreq, 0.85, 0, 25, 5);
        let bosco = mean_steps(cfg, Algo::Bosco, 0.85, 0, 25, 5);
        assert!(
            dex < bosco,
            "expected DEX ({dex:.2}) to beat Bosco ({bosco:.2}) at p = 0.85"
        );
    }
}
