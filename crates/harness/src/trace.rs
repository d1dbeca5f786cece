//! **E2 — Fig. 1 semantics**: annotated execution traces of Algorithm DEX.

use crate::ucwrap::AnyUc;
use dex_conditions::FrequencyPair;
use dex_core::{DexActor, DexProcess};
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
}
