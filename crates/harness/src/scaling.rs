//! **E13 — scaling**: the conditions' expedition thresholds depend on `t`,
//! not `n`, so growing the system at fixed `t` *widens* the fast-path
//! region (relative margins shrink while absolute thresholds stay at
//! `4t`/`2t`). This experiment sweeps `n` at fixed `t` and fixed *relative*
//! contention and reports fast-path fractions and message costs.

use crate::runner::{run_batch, Algo, BatchSpec};
use dex_metrics::Table;
use dex_types::SystemConfig;
use dex_workloads::BernoulliMix;

/// Options for the scaling experiment.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Fault bound, held fixed across the sweep.
    pub t: usize,
    /// Probability of the common value.
    pub p: f64,
    /// Runs per system size.
    pub runs: usize,
    /// Base seed.
    pub seed0: u64,
}

/// Runs E13 and renders the n-sweep table.
pub fn run(opts: Opts) -> Table {
    let mut table = Table::new(vec![
        "n".into(),
        "t".into(),
        "dex <=1".into(),
        "dex <=2".into(),
        "dex mean steps".into(),
        "bosco mean steps".into(),
        "dex msgs/run".into(),
    ]);
    let workload = BernoulliMix {
        p: opts.p,
        a: 1,
        b: 0,
    };
    for n in [
        6 * opts.t + 1,
        8 * opts.t + 1,
        12 * opts.t + 1,
        18 * opts.t + 1,
        24 * opts.t + 1,
    ] {
        let cfg = SystemConfig::new(n, opts.t).expect("n > 6t by construction");
        let batch = |algo| {
            let stats = run_batch(&BatchSpec {
                runs: opts.runs,
                seed0: opts.seed0,
                max_events: 50_000_000,
                ..BatchSpec::base(cfg, algo, &workload)
            });
            assert!(stats.clean(), "{stats:?}");
            stats
        };
        let dex = batch(Algo::DexFreq);
        let bosco = batch(Algo::Bosco);
        let one = dex.path_fraction("1-step");
        let two = one + dex.path_fraction("2-step");
        table.row(vec![
            n.to_string(),
            opts.t.to_string(),
            format!("{one:.2}"),
            format!("{two:.2}"),
            format!("{:.2}", dex.steps.mean()),
            format!("{:.2}", bosco.steps.mean()),
            format!("{:.0}", dex.messages.mean()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_widens_with_n_at_fixed_t() {
        let table = run(Opts {
            t: 1,
            p: 0.8,
            runs: 15,
            seed0: 5,
        });
        let csv = table.to_csv();
        let frac =
            |line: &str, col: usize| -> f64 { line.split(',').nth(col).unwrap().parse().unwrap() };
        let small = csv.lines().nth(1).unwrap().to_string(); // n = 7
        let large = csv.lines().nth(4).unwrap().to_string(); // n = 19
                                                             // ≤2-step coverage grows with n at fixed t and fixed contention:
                                                             // a Binomial(n, 0.8) margin concentrates at 0.6·n ≫ 2t.
        assert!(
            frac(&large, 3) >= frac(&small, 3),
            "coverage should not shrink: {small} vs {large}"
        );
        // At n = 19, t = 1 the margin is ≈ 11 ≫ 4t: nearly everything is
        // one-step.
        assert!(frac(&large, 2) > 0.9, "{large}");
    }
}
