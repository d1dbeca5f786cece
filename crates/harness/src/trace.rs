//! **E2 — Fig. 1 semantics**: annotated execution traces of Algorithm DEX
//! and decision-path censuses per input class.

use crate::runner::{run_instance, Algo, RunInstance};
use crate::ucwrap::AnyUc;
use dex_conditions::FrequencyPair;
use dex_core::{DexActor, DexProcess};
use dex_metrics::{Counter, Table};
use dex_simnet::{DelayModel, Simulation};
use dex_types::{InputVector, ProcessId, SystemConfig};

/// Produces a rendered network trace of one DEX run plus a per-process
/// decision summary — a direct illustration of which Fig. 1 lines fire.
pub fn annotated_run(input: InputVector<u64>, t: usize, seed: u64) -> String {
    let cfg = SystemConfig::new(input.n(), t).expect("valid config");
    // No Byzantine process here, so the bare protocol actors are the
    // whole system.
    let nodes: Vec<_> = cfg
        .processes()
        .map(|me| {
            DexActor::new(
                DexProcess::new(
                    cfg,
                    me,
                    FrequencyPair::new(cfg).expect("n > 6t"),
                    AnyUc::oracle(cfg, me, ProcessId::new(0)),
                ),
                *input.get(me),
            )
        })
        .collect();
    let mut sim = Simulation::builder(nodes)
        .seed(seed)
        .delay(DelayModel::Uniform { min: 1, max: 10 })
        .build();
    sim.enable_trace();
    let out = sim.run(1_000_000);
    let mut rendered = String::new();
    rendered.push_str(&format!("input: {input:?}\n"));
    rendered.push_str(&sim.trace().expect("tracing enabled").render());
    rendered.push_str(&format!("quiescent: {}\n", out.quiescent));
    for (i, a) in sim.actors().iter().enumerate() {
        match a.decision() {
            Some(d) => rendered.push_str(&format!(
                "p{i} decided {} via {} at depth {} ({})\n",
                d.value,
                d.path.label(),
                d.depth.get(),
                d.at
            )),
            None => rendered.push_str(&format!("p{i} undecided\n")),
        }
    }
    rendered
}

/// Census of decision paths per input class (unanimous / `C¹` / `C² \ C¹` /
/// outside), `runs` seeds each — the statistical counterpart of the trace.
pub fn path_census(t: usize, runs: usize, seed0: u64) -> Table {
    let n = 6 * t + 1;
    let cfg = SystemConfig::new(n, t).expect("n = 6t + 1");
    let classes: Vec<(&str, usize)> = vec![
        // (label, minority count) — margin = n − 2·mc.
        ("unanimous", 0),
        ("C1 (margin > 4t)", (n - (4 * t + 1)) / 2),
        // Largest margin at or below 4t, still above 2t: margin = n − 2·mc.
        ("C2 \\ C1", (n - 4 * t).div_ceil(2)),
        ("outside", (n - 1) / 2),
    ];
    let mut table = Table::new(vec![
        "input class".into(),
        "margin".into(),
        "1-step".into(),
        "2-step".into(),
        "fallback".into(),
    ]);
    for (label, mc) in classes {
        let mut paths: Counter<&'static str> = Counter::new();
        for i in 0..runs {
            let mut entries = vec![1u64; n];
            for e in entries.iter_mut().take(mc) {
                *e = 0;
            }
            let result = run_instance(&RunInstance {
                seed: seed0 + i as u64,
                ..RunInstance::base(cfg, Algo::DexFreq, InputVector::new(entries))
            });
            assert!(result.agreement_ok() && result.all_decided());
            for r in result.decided() {
                paths.add(r.path);
            }
        }
        table.row(vec![
            label.into(),
            (n - 2 * mc.min(n / 2)).to_string(),
            format!("{:.2}", paths.fraction(&"1-step")),
            format!("{:.2}", paths.fraction(&"2-step")),
            format!("{:.2}", paths.fraction(&"fallback")),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotated_run_shows_one_step_decisions() {
        let rendered = annotated_run(InputVector::unanimous(7, 5), 1, 3);
        assert!(rendered.contains("SEND"));
        assert!(rendered.contains("DELIVER"));
        for i in 0..7 {
            assert!(
                rendered.contains(&format!("p{i} decided 5 via 1-step at depth 1")),
                "missing decision line for p{i}:\n{rendered}"
            );
        }
    }

    #[test]
    fn census_classes_map_to_paths() {
        let table = path_census(1, 5, 9);
        let csv = table.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // unanimous → all 1-step; outside → all fallback.
        assert!(lines[1].starts_with("unanimous,7,1.00,0.00,0.00"), "{csv}");
        assert!(lines[4].contains("outside"), "{csv}");
        assert!(lines[4].ends_with("0.00,0.00,1.00"), "{csv}");
    }
}
