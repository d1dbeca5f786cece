//! **E1 — Table 1**: empirical feasibility comparison of one-step and
//! two-step decision across algorithms and resilience levels.
//!
//! For every algorithm and every system size `n ∈ {5t+1, 6t+1, 7t+1}`
//! (where the algorithm is constructible at all), three scenarios:
//!
//! * **1-step (f = 0)** — unanimous input, no faults: fraction of correct
//!   processes deciding in one step. This is the *weakly* one-step
//!   situation.
//! * **1-step (f = t, equivocating)** — unanimous correct proposals, `t`
//!   equivocating Byzantine processes: the *strongly* one-step situation.
//! * **2-step path** — an input inside the two-step condition but outside
//!   the one-step condition (margin `2t + 2f < margin ≤ 4t`): fraction of
//!   correct processes deciding in **at most two** steps. Only
//!   condition-based algorithms (DEX) have this channel; Bosco and the
//!   plain baseline must take their fallback (≥ 3 steps).
//!
//! Rows for crash-model algorithms from Table 1 (Brasileiro, Mostefaoui,
//! Izumi–Masuzawa) are reported analytically in `EXPERIMENTS.md`; they do
//! not run in a Byzantine system.

use crate::runner::{run_batch, Algo, BatchSpec};
use dex_adversary::ByzantineStrategy;
use dex_metrics::Table;
use dex_types::SystemConfig;
use dex_workloads::{SplitCount, Unanimous};

/// Options for the Table 1 experiment.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Fault bound.
    pub t: usize,
    /// Runs per scenario.
    pub runs: usize,
    /// Base seed.
    pub seed0: u64,
}

/// Whether `algo` can be instantiated at configuration `cfg`.
fn constructible(algo: Algo, cfg: SystemConfig) -> bool {
    match algo {
        Algo::DexFreq => cfg.supports_frequency_pair(),
        Algo::DexPrv { .. } => cfg.supports_privileged_pair(),
        Algo::Bosco | Algo::UnderlyingOnly => cfg.supports_one_step(),
        // Crash algorithms live in their own experiment (crash_rows) — the
        // Byzantine table never runs them.
        Algo::Brasileiro | Algo::CrashAdaptive => false,
    }
}

fn batch(
    cfg: SystemConfig,
    algo: Algo,
    strategy: ByzantineStrategy<u64>,
    f: usize,
    workload: &(dyn dex_workloads::InputGenerator + Sync),
    runs: usize,
    seed0: u64,
) -> crate::runner::BatchStats {
    run_batch(&BatchSpec {
        strategy,
        f,
        runs,
        seed0,
        ..BatchSpec::base(cfg, algo, workload)
    })
}

/// Runs E1 and renders the feasibility table.
///
/// # Panics
///
/// Panics if any run violates agreement, unanimity or termination — Table 1
/// is only meaningful for safe runs.
pub fn run(opts: Opts) -> Table {
    let t = opts.t;
    let mut table = Table::new(vec![
        "algorithm".into(),
        "n".into(),
        "1-step f=0".into(),
        "1-step f=t (equivocate)".into(),
        "<=2-step on C2 input".into(),
        "mean steps on C2 input".into(),
    ]);
    let algos = [
        Algo::Bosco,
        Algo::DexPrv { m: 1 },
        Algo::DexFreq,
        Algo::UnderlyingOnly,
    ];
    for n in [5 * t + 1, 6 * t + 1, 7 * t + 1] {
        let cfg = SystemConfig::new(n, t).expect("n > 3t by construction");
        for algo in algos {
            if !constructible(algo, cfg) {
                table.row(vec![
                    algo.label().into(),
                    n.to_string(),
                    "n/a".into(),
                    "n/a".into(),
                    "n/a".into(),
                    "n/a".into(),
                ]);
                continue;
            }
            // Scenario A: unanimous, no failures. The privileged pair only
            // expedites its privileged value, so the unanimous value is 1.
            let unanimous = Unanimous { value: 1 };
            let a = batch(
                cfg,
                algo,
                ByzantineStrategy::Silent,
                0,
                &unanimous,
                opts.runs,
                opts.seed0,
            );
            assert!(a.clean(), "scenario A violations: {a:?}");

            // Scenario B: unanimous correct proposals, t equivocators.
            let b = batch(
                cfg,
                algo,
                ByzantineStrategy::EchoPoison { values: vec![1, 0] },
                t,
                &unanimous,
                opts.runs,
                opts.seed0 + 10_000,
            );
            assert!(b.clean(), "scenario B violations: {b:?}");

            // Scenario C: margin inside C²_0 but outside C¹_0 for the
            // frequency pair: margin = 2t + 2 means minor_count =
            // (n − 2t − 2) / 2. For the privileged pair the analogous
            // input has #m = 2t + 1 < 3t + 1 privileged entries... both are
            // served by a two-value split biased to value 1.
            // Smallest minority that pushes the margin to ≤ 4t (outside
            // C¹_0) while staying > 2t (inside C²_0): margin = n − 2·mc.
            let minor_count = (n - 4 * t).div_ceil(2);
            let split = SplitCount {
                major: 1,
                minor: 0,
                minor_count,
            };
            let c = batch(
                cfg,
                algo,
                ByzantineStrategy::Silent,
                0,
                &split,
                opts.runs,
                opts.seed0 + 20_000,
            );
            assert!(c.clean(), "scenario C violations: {c:?}");
            let le2 = c.path_fraction("1-step") + c.path_fraction("2-step");

            table.row(vec![
                algo.label().into(),
                n.to_string(),
                format!("{:.2}", a.path_fraction("1-step")),
                format!("{:.2}", b.path_fraction("1-step")),
                format!("{le2:.2}"),
                format!("{:.2}", c.steps.mean()),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_headline_claims_hold_for_t1() {
        let table = run(Opts {
            t: 1,
            runs: 10,
            seed0: 42,
        });
        let csv = table.to_csv();
        // DEX-freq is n/a at n = 5t+1 = 6 but fully one-step at n = 7.
        assert!(csv.contains("dex-freq,6,n/a"));
        assert!(csv.contains("dex-freq,7,1.00"));
        // Bosco at n = 5t+1 achieves one-step with f = 0.
        assert!(csv.lines().any(|l| l.starts_with("bosco,6,1.00")));
        // The plain baseline never decides in one step.
        assert!(csv
            .lines()
            .filter(|l| l.starts_with("underlying-only"))
            .all(|l| l.split(',').nth(2) == Some("0.00")));
    }
}
