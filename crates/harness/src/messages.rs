//! **E11 — Message complexity** (implicit in the paper's design): DEX buys
//! its two-step channel with Identical Broadcast traffic.
//!
//! Per consensus instance, DEX sends `n²` direct proposals plus one IDB
//! instance per process (`n²` inits + up to `n³` echoes) plus the fallback
//! traffic; Bosco sends `n²` votes plus fallback traffic; the plain
//! baseline only the fallback's `O(n)`. This experiment measures delivered
//! messages per run across system sizes and decision paths, making the
//! asymptotic gap — and the fact that it does not depend on which path
//! decides — concrete.

use crate::runner::{run_instance, Algo, RunInstance};
use dex_metrics::{Summary, Table};
use dex_types::{InputVector, SystemConfig};

/// Options for the message-complexity experiment.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Runs per point.
    pub runs: usize,
    /// Base seed.
    pub seed0: u64,
}

/// Mean delivered messages for one `(algo, n, input)` point.
pub fn mean_messages(
    cfg: SystemConfig,
    algo: Algo,
    input: &InputVector<u64>,
    runs: usize,
    seed0: u64,
) -> f64 {
    let mut messages = Summary::new();
    for i in 0..runs {
        let r = run_instance(&RunInstance {
            seed: seed0 + i as u64,
            max_events: 50_000_000,
            ..RunInstance::base(cfg, algo, input.clone())
        });
        assert!(r.quiescent && r.agreement_ok() && r.all_decided());
        messages.add(r.messages as f64);
    }
    messages.mean()
}

/// Runs E11 and renders the message-count table.
pub fn run(opts: Opts) -> Table {
    let mut table = Table::new(vec![
        "n".into(),
        "t".into(),
        "input".into(),
        "dex-freq msgs".into(),
        "bosco msgs".into(),
        "underlying-only msgs".into(),
        "dex/bosco ratio".into(),
    ]);
    for t in [1usize, 2, 3] {
        let n = 7 * t + 1;
        let cfg = SystemConfig::new(n, t).expect("n = 7t + 1");
        for (label, input) in [
            ("unanimous", InputVector::unanimous(n, 1)),
            ("split", {
                let mut e = vec![1u64; n];
                for x in e.iter_mut().take(n / 2) {
                    *x = 0;
                }
                InputVector::new(e)
            }),
        ] {
            let dex = mean_messages(cfg, Algo::DexFreq, &input, opts.runs, opts.seed0);
            let bosco = mean_messages(cfg, Algo::Bosco, &input, opts.runs, opts.seed0);
            let plain = mean_messages(cfg, Algo::UnderlyingOnly, &input, opts.runs, opts.seed0);
            table.row(vec![
                n.to_string(),
                t.to_string(),
                label.into(),
                format!("{dex:.0}"),
                format!("{bosco:.0}"),
                format!("{plain:.0}"),
                format!("{:.1}", dex / bosco),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dex_pays_cubic_idb_traffic() {
        let cfg = SystemConfig::new(8, 1).unwrap();
        let input = InputVector::unanimous(8, 1);
        let dex = mean_messages(cfg, Algo::DexFreq, &input, 3, 0);
        let bosco = mean_messages(cfg, Algo::Bosco, &input, 3, 0);
        let plain = mean_messages(cfg, Algo::UnderlyingOnly, &input, 3, 0);
        // DEX ≥ n² proposals + n² inits + n³ echoes ≫ Bosco ≈ n² + UC.
        assert!(dex > bosco * 3.0, "dex {dex} vs bosco {bosco}");
        assert!(bosco > plain, "bosco {bosco} vs plain {plain}");
        // Sanity: DEX's unanimous-run traffic is at least n³ echo messages.
        assert!(dex >= 8.0 * 8.0 * 8.0, "dex {dex}");
    }

    #[test]
    fn message_count_is_path_independent_for_dex() {
        // DEX always runs both channels and the UC proposal, so unanimous
        // (1-step) and split (fallback) runs cost similar traffic.
        let cfg = SystemConfig::new(8, 1).unwrap();
        let unanimous = mean_messages(cfg, Algo::DexFreq, &InputVector::unanimous(8, 1), 3, 1);
        let split = mean_messages(
            cfg,
            Algo::DexFreq,
            &InputVector::new(vec![1, 1, 1, 1, 0, 0, 0, 0]),
            3,
            1,
        );
        let ratio = split / unanimous;
        assert!((0.8..1.3).contains(&ratio), "ratio {ratio}");
    }
}
