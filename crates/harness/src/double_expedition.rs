//! **E5 — Double expedition** (§2.4, Lemma 5): inputs in `C²_f \ C¹_f`
//! decide in exactly two steps — the channel no previous one-step
//! algorithm has.
//!
//! Margin sweep on `n = 6t + 1`: for margins in `(2t + 2f, 4t + 2f]` DEX
//! decides at depth 2 via `P2`, while Bosco (which has no conditional
//! two-step scheme) pays its full fallback (3 steps with the 2-step oracle
//! underlying consensus). Margins above `4t + 2f` collapse to one step;
//! margins at or below `2t + 2f` fall back (4 steps for DEX).

use crate::runner::{run_instance, Algo, RunInstance};
use dex_adversary::{ByzantineStrategy, FaultPlan};
use dex_metrics::{Summary, Table};
use dex_types::{InputVector, ProcessId, SystemConfig};

/// Options for the double-expedition experiment.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Fault bound (system size is `6t + 1`).
    pub t: usize,
    /// Seeds per margin.
    pub runs: usize,
    /// Base seed.
    pub seed0: u64,
}

/// Mean steps and decision-path mix of one algorithm at one margin.
pub struct MarginPoint {
    /// Mean decision steps across correct processes and runs.
    pub mean_steps: f64,
    /// Fraction of decisions at exactly one step.
    pub one_step: f64,
    /// Fraction of decisions at exactly two steps.
    pub two_step: f64,
}

/// Measures one `(algo, margin, f)` grid point.
pub fn measure(
    cfg: SystemConfig,
    algo: Algo,
    mc: usize,
    f: usize,
    runs: usize,
    seed0: u64,
) -> MarginPoint {
    let mut steps = Summary::new();
    let (mut one, mut two, mut total) = (0usize, 0usize, 0usize);
    for i in 0..runs {
        let mut entries = vec![1u64; cfg.n()];
        for e in entries.iter_mut().take(mc) {
            *e = 0;
        }
        let result = run_instance(&RunInstance {
            strategy: ByzantineStrategy::ConsistentLie { value: 0 },
            fault_plan: FaultPlan::from_ids(cfg, (cfg.n() - f..cfg.n()).map(ProcessId::new)),
            seed: seed0 + i as u64,
            ..RunInstance::base(cfg, algo, InputVector::new(entries))
        });
        assert!(result.quiescent && result.agreement_ok() && result.all_decided());
        for r in result.decided() {
            steps.add(f64::from(r.steps));
            total += 1;
            match r.steps {
                1 => one += 1,
                2 => two += 1,
                _ => {}
            }
        }
    }
    MarginPoint {
        mean_steps: steps.mean(),
        one_step: one as f64 / total as f64,
        two_step: two as f64 / total as f64,
    }
}

/// Runs E5 and renders the margin-sweep table.
pub fn run(opts: Opts) -> Table {
    let t = opts.t;
    let n = 6 * t + 1;
    let cfg = SystemConfig::new(n, t).expect("n = 6t + 1 > 3t");
    let mut table = Table::new(vec![
        "margin".into(),
        "f".into(),
        "condition class".into(),
        "dex 1-step".into(),
        "dex 2-step".into(),
        "dex mean steps".into(),
        "bosco mean steps".into(),
    ]);
    for f in 0..=t {
        for mc in 0..=(n - 2 * t) / 2 {
            let margin = n - 2 * mc;
            let effective = margin as i64 - 2 * f as i64;
            let class = if effective > (4 * t) as i64 {
                "C1 (one-step)"
            } else if effective > (2 * t) as i64 {
                "C2 \\ C1 (two-step)"
            } else {
                "outside (fallback)"
            };
            let dex = measure(cfg, Algo::DexFreq, mc, f, opts.runs, opts.seed0);
            let bosco = measure(cfg, Algo::Bosco, mc, f, opts.runs, opts.seed0 + 500_000);
            table.row(vec![
                margin.to_string(),
                f.to_string(),
                class.into(),
                format!("{:.2}", dex.one_step),
                format!("{:.2}", dex.two_step),
                format!("{:.2}", dex.mean_steps),
                format!("{:.2}", bosco.mean_steps),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_step_channel_fires_in_c2_band() {
        // n = 7, t = 1, f = 0: margin 3 (mc = 2) is in (2, 4] ⇒ all DEX
        // decisions at exactly two steps; Bosco needs its 3-step fallback.
        let cfg = SystemConfig::new(7, 1).unwrap();
        let dex = measure(cfg, Algo::DexFreq, 2, 0, 10, 0);
        assert_eq!(dex.two_step, 1.0, "mean {}", dex.mean_steps);
        assert_eq!(dex.mean_steps, 2.0);
        let bosco = measure(cfg, Algo::Bosco, 2, 0, 10, 0);
        assert_eq!(bosco.one_step, 0.0);
        assert!(bosco.mean_steps >= 3.0, "bosco {}", bosco.mean_steps);
    }

    #[test]
    fn outside_both_conditions_dex_pays_four_steps() {
        // margin 1 (mc = 3): below 2t ⇒ fallback; oracle costs 2 steps on
        // top of the 2-step IDB round.
        let cfg = SystemConfig::new(7, 1).unwrap();
        let dex = measure(cfg, Algo::DexFreq, 3, 0, 10, 3);
        assert_eq!(dex.one_step, 0.0);
        assert_eq!(dex.two_step, 0.0);
        assert_eq!(dex.mean_steps, 4.0, "the 3-vs-4 trade-off (§1.2)");
        let bosco = measure(cfg, Algo::Bosco, 3, 0, 10, 3);
        assert_eq!(bosco.mean_steps, 3.0);
    }
}
