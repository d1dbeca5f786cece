//! Property-based cluster tests: arbitrary request queues, queue skews and
//! Byzantine placements always converge to identical logs and digests.

use dex_replication::{run_generic_cluster, Command, GenericClusterOptions, KvStore};
use dex_types::SystemConfig;
use proptest::prelude::*;

fn command_strategy() -> impl Strategy<Value = Command> {
    prop_oneof![
        Just(Command::Noop),
        (0u64..4, 0u64..100).prop_map(|(k, v)| Command::put(k, v)),
        (0u64..4, 0u64..10).prop_map(|(k, d)| Command::add(k, d)),
        (0u64..4).prop_map(Command::delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn clusters_always_converge(
        base in proptest::collection::vec(command_strategy(), 1..5),
        rotations in proptest::collection::vec(0usize..4, 7),
        byz in proptest::option::of(1usize..7),
        seed in 0u64..5_000,
    ) {
        let config = SystemConfig::new(7, 1).unwrap();
        let pending: Vec<Vec<Command>> = rotations
            .iter()
            .map(|r| {
                let mut q = base.clone();
                let len = q.len();
                q.rotate_left(r % len);
                q
            })
            .collect();
        let target = base.len() as u64;
        // A Byzantine replica equivocates between two poison commands no
        // queue holds.
        let outcome = run_generic_cluster::<KvStore>(GenericClusterOptions {
            byzantine: byz.map(|b| vec![b]).unwrap_or_default(),
            byz_values: vec![Command::put(666, 666), Command::put(999, 999)],
            ..GenericClusterOptions::new(config, pending, target, seed)
        });
        prop_assert!(outcome.converged(), "logs {:?}", outcome.logs);
        // Every committed command is Noop or from somebody's queue, never
        // a poison value.
        let log = outcome.logs.iter().flatten().next().unwrap();
        for cmd in log {
            prop_assert!(
                *cmd == Command::Noop || base.contains(cmd),
                "foreign command {cmd:?} committed"
            );
        }
    }
}
