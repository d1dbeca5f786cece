//! A replicated key-value store on multi-slot DEX: seven replicas, one of
//! them Byzantine, committing a shared log and converging on identical
//! state — the paper's §1.1 scenario end to end.
//!
//! ```text
//! cargo run --example kv_cluster
//! ```

use dex::replication::{run_generic_cluster, Command, GenericClusterOptions, KvStore};
use dex::types::SystemConfig;

fn main() {
    let config = SystemConfig::new(7, 1).expect("7 > 6t");

    // The client broadcast its requests to all replicas; replicas 5 and 6
    // saw the tail in a different order (late delivery), and replica 6 is
    // outright Byzantine: it equivocates between two poison commands.
    let canonical = vec![
        Command::put(1, 100),
        Command::put(2, 200),
        Command::add(1, 11),
        Command::delete(2),
        Command::add(3, 7),
    ];
    let mut pending = vec![canonical.clone(); 7];
    pending[5].swap(3, 4);
    let outcome = run_generic_cluster::<KvStore>(GenericClusterOptions {
        byzantine: vec![6],
        byz_values: vec![Command::put(666, 666), Command::put(999, 999)],
        ..GenericClusterOptions::new(config, pending, 5, 2010)
    });

    assert!(outcome.converged(), "correct replicas must converge");
    println!("replicated KV cluster: n = 7, t = 1, replica p6 Byzantine\n");
    let log = outcome.logs[0].clone().expect("replica 0 is correct");
    for (slot, cmd) in log.iter().enumerate() {
        let path = outcome.paths[0]
            .iter()
            .find(|p| p.slot == slot as u64)
            .map(|p| p.path.label())
            .unwrap_or("?");
        println!("slot {slot}: {cmd:<12} committed via {path}");
    }
    println!(
        "\nall correct replicas converged (digest {:#018x}), {:.0}% of slot decisions on the one-step path",
        outcome.digests[0].unwrap(),
        100.0 * outcome.one_step_fraction()
    );
}
