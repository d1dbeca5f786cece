//! Window scan: the same pipelined log at W = 1, 2, 4, 8, 16, echo
//! aggregation off and on — wall time (best of three) and wall time per
//! delivered message.
//! Instructions per delivery do not depend on W (the slots and deliveries
//! are the same), so a per-delivery cost that climbs with W is working-set
//! misses: W live slots × n origins of echo state per replica. (With
//! aggregation on, batches grow with W and deliveries shrink: compare wall
//! time there.)
//!
//! ```text
//! cargo run --release --example window_scan [n t slots]   # default 31 5 48
//! ```

use dex::harness::pipeline::PipelineRun;
use dex::types::SystemConfig;
use std::time::Instant;

fn main() {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("usage: window_scan [n t slots]"))
        .collect();
    let (n, t, slots) = match args[..] {
        [] => (31, 5, 48),
        [n, t, slots] => (n, t, slots),
        _ => panic!("usage: window_scan [n t slots]"),
    };
    let config = SystemConfig::new(n as usize, t as usize).expect("n > 3t");
    println!("n = {n}, t = {t}, {slots} slots x 4 values");
    println!(
        "{:>6} {:>9} {:>10} {:>10} {:>7}",
        "window", "aggregate", "deliveries", "wall ms", "ns/dlv"
    );
    let run = |window, aggregate| PipelineRun {
        config,
        window,
        batch: 4,
        slots,
        seed: 5,
        aggregate,
    };
    let timed = |run: PipelineRun| {
        let start = Instant::now();
        let delivered = run.execute().net.delivered;
        (start.elapsed(), delivered)
    };
    timed(run(1, false)); // warm the allocator and the page tables
    for aggregate in [false, true] {
        for window in [1, 2, 4, 8, 16] {
            // Best of three: the runs are deterministic, the machine is not.
            let (wall, delivered) = (0..3).map(|_| timed(run(window, aggregate))).min().unwrap();
            let per = wall.as_nanos() as f64 / delivered as f64;
            let ms = wall.as_secs_f64() * 1e3;
            println!("{window:>6} {aggregate:>9} {delivered:>10} {ms:>10.1} {per:>7.0}");
        }
    }
}
