//! `dex-netd` binary: the process-level TCP runtime.
//!
//! Two argv forms, dispatched by `dex_netd::cluster::main`:
//!
//! * `dex-netd --cluster [spec flags] [--slots K]
//!   [--phase cells|kill9|both]` — the parent harness: reserves `n` free
//!   loopback ports (or takes `--peers`), spawns `n` child processes per
//!   run, drives fault-free MATRIX
//!   consensus cells and the kill -9 + respawn replication schedule
//!   (`--pipeline <W>` slots in flight), judges every cell with the
//!   shared `BatchStats` ledger, and
//!   writes `BENCH_netd.json` + `results/netd_<seed>.json`. Add
//!   `--chaos <schedule>` to inject the schedule's faults onto the live
//!   TCP links (per-link deterministic; fault traces land in
//!   `results/netd_chaos_<seed>.json`), and `--kill <victim>[:divergent]`
//!   to choose the kill9 victim — `:divergent` gives every replica its
//!   own pending stream and proves survivor progress while the victim
//!   is down.
//! * `dex-netd --campaign smoke:<index> [--runs R]` — runs one campaign
//!   cell on real processes and records the wall-clock fast-decision
//!   rate next to the simnet rate for the same cell
//!   (`results/campaign_netd_smoke.json`).
//! * `dex-netd --node I --mode consensus|replica <role flags> <spec flags>`
//!   — one child process, parsing its run's `RunSpec` flags (spawned by
//!   the parent; not normally invoked by hand).

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
