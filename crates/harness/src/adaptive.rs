//! **E4 — Adaptiveness** (§1.2, §2.3, Lemma 4): the one-step region grows
//! as the *actual* number of faults shrinks.
//!
//! DEX-freq on `n = 6t + 1` processes. The input is a deterministic
//! two-value split with `mc` minority entries (frequency margin
//! `n − 2·mc`), and `f` Byzantine processes run `ConsistentLie(minor)` —
//! each fault simultaneously removes a majority proposal and adds a
//! minority one, the exact worst case of the `dist(J, I) ≤ k` metric. The
//! effective view margin is therefore `n − 2·mc − 2·f`, and Lemma 4
//! predicts a **one-step decision iff `n − 2·mc > 4t + 2f`** — a staircase
//! in `(mc, f)`.
//!
//! Bosco runs the same grid as contrast: its single non-adaptive
//! evaluation at `n − t` votes keys only on `t`, so its one-step region
//! does not grow when `f < t`.

use crate::runner::{run_instance, Algo, RunInstance};
use dex_adversary::{ByzantineStrategy, FaultPlan};
use dex_metrics::{Summary, Table};
use dex_types::{InputVector, ProcessId, SystemConfig};

/// Options for the adaptiveness experiment.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Fault bound (system size is `6t + 1`).
    pub t: usize,
    /// Seeds per grid point.
    pub runs: usize,
    /// Base seed.
    pub seed0: u64,
}

/// Deterministic split input: the first `mc` *correct-range* entries are
/// `minor`, everything else `major`; the faulty tail keeps `major` as its
/// nominal value (the adversary betrays it anyway).
fn split_input(n: usize, mc: usize) -> InputVector<u64> {
    let mut entries = vec![1u64; n];
    for e in entries.iter_mut().take(mc) {
        *e = 0;
    }
    InputVector::new(entries)
}

/// One grid point: fraction of correct processes deciding in one step.
fn one_step_fraction(
    cfg: SystemConfig,
    algo: Algo,
    mc: usize,
    f: usize,
    runs: usize,
    seed0: u64,
) -> f64 {
    let mut fractions = Summary::new();
    for i in 0..runs {
        let result = run_instance(&RunInstance {
            strategy: ByzantineStrategy::ConsistentLie { value: 0 },
            fault_plan: FaultPlan::from_ids(cfg, (cfg.n() - f..cfg.n()).map(ProcessId::new)),
            seed: seed0 + i as u64,
            ..RunInstance::base(cfg, algo, split_input(cfg.n(), mc))
        });
        assert!(result.quiescent && result.agreement_ok() && result.all_decided());
        let correct = result.decided().count();
        let one_step = result.decided().filter(|r| r.path == "1-step").count();
        fractions.add(one_step as f64 / correct as f64);
    }
    fractions.mean()
}

/// Runs E4 and renders the staircase table.
pub fn run(opts: Opts) -> Table {
    let t = opts.t;
    let n = 6 * t + 1;
    let cfg = SystemConfig::new(n, t).expect("n = 6t + 1 > 3t");
    let mut table = Table::new(vec![
        "margin (n-2mc)".into(),
        "f".into(),
        "in C1_f (margin > 4t+2f)".into(),
        "dex-freq 1-step".into(),
        "bosco 1-step".into(),
    ]);
    for mc in 0..=t + 1 {
        for f in 0..=t {
            let margin = n as i64 - 2 * mc as i64;
            let predicted = margin > (4 * t + 2 * f) as i64;
            let dex = one_step_fraction(cfg, Algo::DexFreq, mc, f, opts.runs, opts.seed0);
            let bosco =
                one_step_fraction(cfg, Algo::Bosco, mc, f, opts.runs, opts.seed0 + 1_000_000);
            table.row(vec![
                margin.to_string(),
                f.to_string(),
                if predicted { "yes" } else { "no" }.into(),
                format!("{dex:.2}"),
                format!("{bosco:.2}"),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma4_staircase_t1() {
        // n = 7, t = 1. Margin 7 (mc = 0): C¹_0 and C¹_1 ⇒ one-step for
        // f ∈ {0, 1}. Margin 5 (mc = 1): C¹_0 only ⇒ one-step iff f = 0.
        let cfg = SystemConfig::new(7, 1).unwrap();
        assert_eq!(one_step_fraction(cfg, Algo::DexFreq, 0, 0, 10, 0), 1.0);
        assert_eq!(one_step_fraction(cfg, Algo::DexFreq, 0, 1, 10, 0), 1.0);
        assert_eq!(one_step_fraction(cfg, Algo::DexFreq, 1, 0, 10, 0), 1.0);
        // Margin 5 ≤ 4t + 2f = 6 with f = 1: the liar removes a majority
        // entry and adds a minority one; view margin 3 ≤ 4.
        assert_eq!(one_step_fraction(cfg, Algo::DexFreq, 1, 1, 10, 0), 0.0);
    }

    #[test]
    fn bosco_is_not_adaptive() {
        // Same margin-5 input with f = 0: Bosco's threshold needs more than
        // (n + 3t) / 2 = 5 matching votes among the first 6; the one
        // dissenter makes that a coin flip on arrival order, and with
        // f = 1 lying it is impossible. DEX decides 1.0 of the time at
        // f = 0 (previous test); Bosco must be strictly worse.
        let cfg = SystemConfig::new(7, 1).unwrap();
        let bosco = one_step_fraction(cfg, Algo::Bosco, 1, 0, 30, 7);
        assert!(bosco < 1.0, "bosco fraction {bosco}");
    }
}
