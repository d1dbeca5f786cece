//! **E12 — decision latency in (virtual) time**: the step-count advantage
//! translated into wall-clock terms under different network regimes.
//!
//! Steps are the paper's metric, but applications feel *time*. One step
//! costs one network traversal, so under mean delay `δ` the expedited
//! paths land at ≈ `δ`, `2δ` and the fallback at ≈ `4δ` — unless the delay
//! distribution's tail stretches the picture (a consensus instance waits
//! for the `n − t`-th fastest message, an order statistic that behaves very
//! differently under uniform and heavy-tailed delays).

use crate::runner::{run_batch, Algo, BatchSpec};
use dex_metrics::Table;
use dex_simnet::DelayModel;
use dex_types::SystemConfig;
use dex_workloads::BernoulliMix;

/// Options for the latency experiment.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Fault bound (system size is `7t + 1`).
    pub t: usize,
    /// Runs per point.
    pub runs: usize,
    /// Base seed.
    pub seed0: u64,
}

/// Runs E12 and renders the latency table (mean and p99 in virtual time
/// units; mean network delay is 10 units in every regime).
pub fn run(opts: Opts) -> Table {
    let cfg = SystemConfig::new(7 * opts.t + 1, opts.t).expect("n = 7t + 1");
    let mut table = Table::new(vec![
        "network".into(),
        "p(common value)".into(),
        "algo".into(),
        "mean latency".into(),
        "p99 latency".into(),
        "mean steps".into(),
    ]);
    let regimes: [(&str, DelayModel); 3] = [
        ("lockstep(10)", DelayModel::Constant(10)),
        ("uniform(1..19)", DelayModel::Uniform { min: 1, max: 19 }),
        ("exponential(10)", DelayModel::Exponential { mean: 10 }),
    ];
    for (rname, delay) in regimes {
        for p in [1.0f64, 0.8] {
            for algo in [Algo::DexFreq, Algo::Bosco, Algo::UnderlyingOnly] {
                let workload = BernoulliMix { p, a: 1, b: 0 };
                let stats = run_batch(&BatchSpec {
                    delay: delay.clone(),
                    runs: opts.runs,
                    seed0: opts.seed0,
                    max_events: 10_000_000,
                    ..BatchSpec::base(cfg, algo, &workload)
                });
                assert!(stats.clean(), "{stats:?}");
                table.row(vec![
                    rname.into(),
                    format!("{p:.1}"),
                    algo.label().into(),
                    format!("{:.1}", stats.latency.mean()),
                    format!("{:.1}", stats.latency.quantile(0.99).unwrap_or(0.0)),
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
    fn lockstep_latency_equals_steps_times_delay() {
        let table = run(Opts {
            t: 1,
            runs: 5,
            seed0: 1,
        });
        let csv = table.to_csv();
        // Lockstep, unanimous, DEX: 1 step × 10 units.
        let line = csv
            .lines()
            .find(|l| l.starts_with("lockstep(10),1.0,dex-freq"))
            .expect("row exists");
        let mean: f64 = line.split(',').nth(3).unwrap().parse().unwrap();
        assert_eq!(mean, 10.0, "{line}");
        // Lockstep, unanimous, plain baseline: 2 steps × 10 units.
        let line = csv
            .lines()
            .find(|l| l.starts_with("lockstep(10),1.0,underlying-only"))
            .expect("row exists");
        let mean: f64 = line.split(',').nth(3).unwrap().parse().unwrap();
        assert_eq!(mean, 20.0, "{line}");
    }
}
