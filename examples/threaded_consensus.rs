//! DEX under real OS concurrency: one thread per process, jittered channel
//! delivery — no simulator involved.
//!
//! ```text
//! cargo run --example threaded_consensus
//! ```

use dex::conditions::FrequencyPair;
use dex::core::{DexActor, DexProcess};
use dex::prelude::*;
use dex::threadnet::{run_network, NetworkOptions};
use dex::underlying::OracleConsensus;
use std::time::Duration;

fn build(
    cfg: SystemConfig,
    proposals: &[u64],
) -> Vec<DexActor<u64, FrequencyPair, OracleConsensus<u64>>> {
    proposals
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let me = ProcessId::new(i);
            DexActor::new(
                DexProcess::new(
                    cfg,
                    me,
                    FrequencyPair::new(cfg).expect("n > 6t"),
                    OracleConsensus::new(cfg, me, ProcessId::new(0)),
                ),
                *v,
            )
        })
        .collect()
}

fn main() {
    let cfg = SystemConfig::new(7, 1).expect("7 > 3t");
    println!("DEX over 7 OS threads, 20-400us injected per-message delay\n");
    for (label, proposals) in [
        ("unanimous", vec![5u64; 7]),
        ("5-vs-2 split", vec![5, 5, 5, 5, 5, 9, 9]),
        ("4-vs-3 split", vec![5, 5, 5, 5, 9, 9, 9]),
    ] {
        let result = run_network(
            build(cfg, &proposals),
            NetworkOptions {
                seed: 11,
                delay: DelayModel::Uniform { min: 20, max: 400 },
                timeout: Duration::from_secs(20),
            },
        );
        assert!(result.quiescent, "network must drain");
        let first = result.actors[0].decision().expect("decided").value;
        print!("{label:>14}: ");
        for a in &result.actors {
            let d = a.decision().expect("every thread decides");
            assert_eq!(d.value, first, "agreement under real concurrency");
        }
        let by_path: Vec<String> = result
            .actors
            .iter()
            .map(|a| {
                let d = a.decision().expect("decided");
                format!("{}@{}", d.path.label(), d.depth.get())
            })
            .collect();
        println!("decided {first} [{}]", by_path.join(" "));
    }
    println!("\n(path@depth per thread; depths match the simulator's step accounting)");
}
