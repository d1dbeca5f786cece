//! `dex-benchmark compare a.json b.json`: applies each end-to-end metric's
//! direction and bound to two `suite` summaries (`a` the parent, `b` the
//! change) and prints one verdict per workload and metric:
//!
//! * `identical` / `CHANGED` for metrics that repeat exactly on a workload
//!   (simulator counts): any difference is a change of behaviour;
//! * `unchanged` / `improved` / `REGRESSED` when the medians differ by less
//!   / more than the bound in the good / bad direction;
//! * `unresolved` when either side's run-to-run spread is wider than the
//!   bound — unless every run of one side beats every run of the other.
//!
//! Per-layer metrics have no bound and are listed with their change only.
//! Exits non-zero on `CHANGED`, `REGRESSED`, a failed operation or a
//! workload missing from either file.

use crate::json::{parse, Json};
use crate::metrics::{repeats_exactly, Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;
use crate::suite::spread;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Identical,
    Changed,
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Changed => "CHANGED",
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Changed | Verdict::Regressed)
    }
}

/// By what share of `a`'s median `b`'s median is better (negative: worse).
fn gain(def: &MetricDef, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    match def.better {
        Better::Higher => change,
        Better::Lower => -change,
    }
}

/// Whether every value of `x` is better than every value of `y`.
fn dominates(def: &MetricDef, x: &[f64], y: &[f64]) -> bool {
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match def.better {
        Better::Higher => min(x) > max(y),
        Better::Lower => max(x) < min(y),
    }
}

/// The verdict on one end-to-end metric of one workload.
pub fn judge(def: &MetricDef, exact: bool, a: &[f64], b: &[f64]) -> Verdict {
    if exact {
        return if a == b {
            Verdict::Identical
        } else {
            Verdict::Changed
        };
    }
    let gain = gain(def, a, b);
    let noisy = [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > def.bound));
    if noisy {
        return if dominates(def, b, a) {
            Verdict::Improved
        } else if dominates(def, a, b) && gain < -def.bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if gain < -def.bound {
        Verdict::Regressed
    } else if gain > def.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn values(doc: &Json, workload: &str, kind: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get(kind)?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: dex-benchmark compare <a.json> <b.json>");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for (workload, _) in WORKLOADS {
        let section = |doc| Json::get(doc, "workloads").and_then(|w| w.get(workload));
        let (sa, sb) = match (section(&a), section(&b)) {
            (Some(sa), Some(sb)) => (sa, sb),
            (None, None) => continue,
            _ => {
                println!("{workload}: in one file only");
                failed = true;
                continue;
            }
        };
        println!("{workload}");
        for (side, s) in [("a", sa), ("b", sb)] {
            let bad = s.get("failed").and_then(Json::as_f64) != Some(0.0)
                || s.get("correct") != Some(&Json::Bool(true));
            if bad {
                println!("  {side}: operations failed or outputs were wrong");
                failed = true;
            }
        }
        for def in END_TO_END {
            let va = values(&a, workload, "end_to_end", def.name);
            let vb = values(&b, workload, "end_to_end", def.name);
            let (Some(va), Some(vb)) = (va, vb) else {
                println!("  {:<40} missing", def.name);
                failed = true;
                continue;
            };
            let verdict = judge(def, repeats_exactly(workload, def.name), &va, &vb);
            failed |= verdict.fails();
            println!(
                "  {:<40} {:>14.6} -> {:>14.6} {:<10} {:+7.2} % better (bound {:.0} %)  {}",
                def.name,
                median(&va),
                median(&vb),
                def.unit,
                gain(def, &va, &vb) * 100.0,
                def.bound * 100.0,
                verdict.label()
            );
        }
        for def in PER_LAYER {
            let va = values(&a, workload, "per_layer", def.name);
            let vb = values(&b, workload, "per_layer", def.name);
            if let (Some(va), Some(vb)) = (va, vb) {
                let (ma, mb) = (median(&va), median(&vb));
                if ma != 0.0 || mb != 0.0 {
                    println!(
                        "  {:<40} {ma:>14.6} -> {mb:>14.6} {:<10} {:+7.2} % better",
                        def.name,
                        def.unit,
                        gain(def, &va, &vb) * 100.0
                    );
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "u",
            better,
            bound,
        }
    }

    #[test]
    fn exact_metrics_must_be_equal() {
        let d = def(Better::Lower, 0.05);
        assert_eq!(
            judge(&d, true, &[7.0, 8.0], &[7.0, 8.0]),
            Verdict::Identical
        );
        assert_eq!(
            judge(&d, true, &[7.0, 8.0], &[7.0, 8.000001]),
            Verdict::Changed
        );
    }

    #[test]
    fn bounds_apply_in_the_metrics_direction() {
        let up = def(Better::Higher, 0.10);
        assert_eq!(judge(&up, false, &[100.0], &[95.0]), Verdict::Unchanged);
        assert_eq!(judge(&up, false, &[100.0], &[85.0]), Verdict::Regressed);
        assert_eq!(judge(&up, false, &[100.0], &[120.0]), Verdict::Improved);
        let down = def(Better::Lower, 0.10);
        assert_eq!(judge(&down, false, &[100.0], &[105.0]), Verdict::Unchanged);
        assert_eq!(judge(&down, false, &[100.0], &[115.0]), Verdict::Regressed);
        assert_eq!(judge(&down, false, &[100.0], &[80.0]), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let up = def(Better::Higher, 0.05);
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let same = [82.0, 91.0, 99.0, 111.0, 119.0];
        assert_eq!(judge(&up, false, &noisy, &same), Verdict::Unresolved);
        // …unless every run of the change beats every run of the parent.
        let all_better = [130.0, 140.0, 150.0, 160.0, 170.0];
        assert_eq!(judge(&up, false, &noisy, &all_better), Verdict::Improved);
        let all_worse = [30.0, 40.0, 50.0, 60.0, 70.0];
        assert_eq!(judge(&up, false, &noisy, &all_worse), Verdict::Regressed);
        // A steady pair of sides is judged by its medians alone.
        let steady = [100.0, 100.5, 101.0, 101.5, 102.0];
        assert_eq!(judge(&up, false, &steady, &steady), Verdict::Unchanged);
    }
}
