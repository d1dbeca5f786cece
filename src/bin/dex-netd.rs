//! `dex-netd` binary: the process-level TCP runtime.
//!
//! Two argv forms, dispatched by `dex_netd::cluster::main`:
//!
//! * `dex-netd --cluster [spec flags] [--slots K [--kill N]]` — the parent
//!   harness: reserves `n` free loopback ports (or takes `--peers`) and
//!   runs one phase. Without `--slots` it runs `--runs` fault-free MATRIX
//!   consensus cells, `n` child processes per cell, judges every cell
//!   with the shared `BatchStats` ledger, and records next to each row
//!   its simnet twin's one- and two-step counts: the simulator's run of
//!   the same input and schedule. Add `--chaos <schedule>` to inject the
//!   schedule's faults onto the live TCP links (per-link deterministic;
//!   fault traces land in `results/netd_chaos_<seed>.json`). To run a
//!   campaign point on real processes, pass the flags `dex-campaign
//!   --replay <cell> <run>` prints, with `--runtime netd` for `--runtime
//!   simnet`. With `--slots K` it runs the kill -9 + respawn replication
//!   schedule instead: `n` replicas, each proposing its own pending
//!   stream, commit `K` slots (`--pipeline <W>` in flight); process 1 is
//!   the victim, SIGKILLed once its committed prefix reaches `--kill N`
//!   (default 1); every survivor must commit past it while it is down
//!   before it is respawned. The victim is a fault, so this run needs
//!   `t ≥ 1`. Either phase writes `results/netd_<seed>.json` (the spec as
//!   its replay flags, then the wall-clock `"bench"` rows).
//! * `dex-netd --node I [--wal PATH --slots K [--respawn]] <spec flags>`
//!   — one child process, parsing its run's `RunSpec` flags (spawned by
//!   the parent; not normally invoked by hand). A child given `--wal` is
//!   a replica; any other is a consensus process and runs `instance(0)`
//!   of that spec: its proposal and chaos schedule.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(err) = dex_netd::cluster::main(args) {
        eprintln!("dex-netd: {err}");
        // A system the protocol cannot run is a usage error, as in dex-sim.
        std::process::exit(if err.starts_with("bad configuration") {
            2
        } else {
            1
        });
    }
}
