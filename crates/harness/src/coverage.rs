//! **E8 — Fast-path coverage** ("more chances to decide in one or two
//! steps", Table 1 narrative): fraction of realistic inputs decided fast.
//!
//! Two input families on `n = 7t + 1` (every algorithm constructible):
//!
//! * **Uniform** over a value domain of size `|V|` — worst-case disorder;
//! * **Zipf-distributed** replicated-state-machine requests — the paper's
//!   motivating scenario, where one hot request usually dominates.
//!
//! For each, the fraction of correct-process decisions at ≤ 1 and ≤ 2
//! causal steps, per algorithm. DEX's two-step channel is what separates it
//! from Bosco on mid-skew inputs.

use crate::runner::{run_batch, Algo, BatchSpec};
use dex_metrics::Table;
use dex_types::SystemConfig;
use dex_workloads::{InputGenerator, UniformRandom, ZipfRequests};

/// Options for the coverage experiment.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Fault bound (system size is `7t + 1`).
    pub t: usize,
    /// Runs per point.
    pub runs: usize,
    /// Base seed.
    pub seed0: u64,
}

fn fractions(
    cfg: SystemConfig,
    algo: Algo,
    workload: &(dyn InputGenerator + Sync),
    runs: usize,
    seed0: u64,
) -> (f64, f64) {
    let stats = run_batch(&BatchSpec {
        runs,
        seed0,
        ..BatchSpec::base(cfg, algo, workload)
    });
    assert!(stats.clean(), "{stats:?}");
    let one = stats.path_fraction("1-step");
    (one, one + stats.path_fraction("2-step"))
}

/// Runs E8 and renders the coverage table.
pub fn run(opts: Opts) -> Table {
    let cfg = SystemConfig::new(7 * opts.t + 1, opts.t).expect("n = 7t + 1 > 3t");
    let mut table = Table::new(vec![
        "workload".into(),
        "dex-freq <=1".into(),
        "dex-freq <=2".into(),
        "bosco <=1".into(),
        "bosco <=2".into(),
    ]);
    let mut workloads: Vec<Box<dyn InputGenerator + Sync>> = Vec::new();
    for domain in [2, 4, 8] {
        workloads.push(Box::new(UniformRandom { domain }));
    }
    for s in [0.5, 1.0, 2.0, 3.0] {
        workloads.push(Box::new(ZipfRequests { domain: 16, s }));
    }
    for workload in &workloads {
        let (d1, d2) = fractions(cfg, Algo::DexFreq, workload.as_ref(), opts.runs, opts.seed0);
        let (b1, b2) = fractions(
            cfg,
            Algo::Bosco,
            workload.as_ref(),
            opts.runs,
            opts.seed0 + 500_000,
        );
        table.row(vec![
            workload.name(),
            format!("{d1:.2}"),
            format!("{d2:.2}"),
            format!("{b1:.2}"),
            format!("{b2:.2}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_zipf_requests_mostly_expedite_for_dex() {
        let cfg = SystemConfig::new(8, 1).unwrap();
        let zipf = ZipfRequests { domain: 16, s: 3.0 };
        let (_, dex2) = fractions(cfg, Algo::DexFreq, &zipf, 30, 3);
        let (_, bosco2) = fractions(cfg, Algo::Bosco, &zipf, 30, 3);
        // DEX's ≤2-step coverage dominates Bosco's on skewed inputs.
        assert!(
            dex2 >= bosco2,
            "dex {dex2:.2} should cover at least bosco {bosco2:.2}"
        );
        assert!(
            dex2 > 0.5,
            "hot inputs should mostly expedite, got {dex2:.2}"
        );
    }
}
