//! Property-based pipeline/sequential equivalence: for arbitrary windows,
//! batch sizes, slot counts and seeds, the pipelined engine commits a log
//! identical, slot for slot, to the sequential window-1 chain over the
//! same client stream — pipelining reorders network traffic, never the
//! log. A second property keeps the claim under a healing partition: a
//! timed cut holds cross-cut traffic while slots stay in flight, and the
//! post-heal log must still match the fault-free sequential reference.
//! Window 1 is in its range: a replica cut off for several slots finds
//! them retired at its peers and adopts them from catch-up replies.

use dex::replication::{run_generic_cluster, GenericClusterOptions, TotalOrder};
use dex::simnet::FaultSchedule;
use dex::types::{ProcessId, SystemConfig};
use dex::workloads::slot_batches;
use proptest::prelude::*;

const N: usize = 7;
const T: usize = 1;

/// Runs one cluster over the `slot_batches(seed, slots, batch)` stream and
/// returns the committed log of replica 0 (convergence is asserted inside
/// the runner, so any correct replica's log is *the* log).
fn committed_log(
    window: u64,
    batch: u64,
    slots: u64,
    seed: u64,
    faults: FaultSchedule,
) -> Vec<Vec<u64>> {
    let config = SystemConfig::new(N, T).unwrap();
    let pending = vec![slot_batches(seed, slots, batch); N];
    let outcome = run_generic_cluster::<TotalOrder<Vec<u64>>>(GenericClusterOptions {
        window,
        faults,
        ..GenericClusterOptions::new(config, pending, slots, seed)
    });
    assert!(outcome.converged(), "cluster must converge");
    assert_eq!(outcome.net.payload_clones, 0, "slab fast path only");
    outcome.logs[0].clone().expect("replica 0 is correct")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn pipelined_log_equals_sequential_log_slot_for_slot(
        window in 2u64..=12,
        batch in 1u64..=5,
        slots in 2u64..=10,
        seed in 0u64..10_000,
    ) {
        let sequential = committed_log(1, batch, slots, seed, FaultSchedule::none());
        let pipelined = committed_log(window, batch, slots, seed, FaultSchedule::none());
        prop_assert_eq!(
            &sequential,
            &pipelined,
            "window {} diverged from the sequential chain",
            window
        );
        prop_assert_eq!(sequential.len(), slots as usize);
        for batch_values in &sequential {
            prop_assert_eq!(batch_values.len(), batch as usize);
        }
    }

    #[test]
    fn pipelined_log_survives_a_healing_partition(
        window in 1u64..=8,
        batch in 1u64..=4,
        seed in 0u64..10_000,
        cut in 1u64..40,
        span in 20u64..200,
        side_size in 1usize..=2 * T,
    ) {
        let slots = 6;
        // Cut up to 2t replicas (never replica 0 — it coordinates the
        // oracle fallback) away from the rest for [cut, cut + span): held
        // messages arrive after the heal, an asynchronous schedule with a
        // long-but-finite delay. GST framing: liveness after the heal,
        // and the log must match the fault-free sequential reference.
        let side = (1..=side_size).map(ProcessId::new);
        let faults = FaultSchedule::none().partition(side, cut, cut + span);
        let reference = committed_log(1, batch, slots, seed, FaultSchedule::none());
        let partitioned = committed_log(window, batch, slots, seed, faults);
        prop_assert_eq!(
            &reference,
            &partitioned,
            "window {} under a healing partition diverged",
            window
        );
    }
}
