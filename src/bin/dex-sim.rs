//! `dex-sim` — command-line driver for one-off consensus simulations.
//!
//! ```text
//! cargo run --release --bin dex-sim -- --n 7 --t 1 --algo dex-freq \
//!     --workload bernoulli:0.8 --adversary equivocate --f 1 --runs 50
//! ```
//!
//! The flag set *is* [`RunSpec`](dex::harness::spec::RunSpec): the binary
//! parses its arguments with `RunSpec::from_args`, so every experiment the
//! CLI can express is a serializable spec value (and vice versa —
//! `RunSpec::to_args` renders the exact invocation back).
//!
//! Flags (all optional):
//!
//! | flag | values | default |
//! |---|---|---|
//! | `--n` | system size | `7` |
//! | `--t` | fault bound | `1` |
//! | `--f` | actual faults per run (≤ t) | `0` |
//! | `--algo` | `dex-freq`, `dex-prv:<m>`, `bosco`, `plain`, `brasileiro`, `crash-adaptive` | `dex-freq` |
//! | `--workload` | `unanimous:<v>`, `bernoulli:<p>`, `uniform:<domain>`, `zipf:<domain>:<s>`, `split:<minor_count>` | `unanimous:1` |
//! | `--adversary` | `silent`, `lie:<v>`, `equivocate`, `echo-poison`, `crash-mid:<reach>` | `silent` |
//! | `--underlying` | `oracle`, `mvc` | `oracle` |
//! | `--placement` | `random-k`, `last-k` | `random-k` |
//! | `--delay` | `uniform:<min>:<max>`, `constant:<d>`, `exp:<mean>` | `uniform:1:10` |
//! | `--chaos` | `none`, `drop:<p>`, `dup:<p>`, `partition:<open>:<heal>`, `crash:<down>:<up>`, `crash-restart:<down>:<up>` | `none` |
//! | `--pipeline` | `<window>` or `<window>:<batch>` — run the pipelined replication engine instead of single-shot batches | `1:1` (off) |
//! | `--aggregate` | (no value) coalesce each correct process's per-tick echo fan-out into one batched multicast (`dex-freq`, `dex-prv` only: the baselines have no flood to batch) | off |
//! | `--runtime` | `simnet` (deterministic simulation), `threadnet` (one OS thread per process, `--delay` units read as microseconds), `netd` (one OS *process* per process — use the `dex-netd` binary) | `simnet` |
//! | `--kill` | `<after>` or `<after>:divergent` — netd's kill -9 schedule; netd-only (`dex-netd --cluster`): simnet and threadnet refuse a non-default value | `1` |
//! | `--stats` | (no value) print the per-class wire breakdown (init/echo/batch/other sends, batched echoes, bytes) — same line on every runtime | off |
//! | `--runs` | batch size | `20` |
//! | `--seed` | base seed | `0` |
//! | `--max-events` | delivery cap per run | `50000000` |
//! | `--trace` | (no value) record run 0, check invariants, write the trace artifact | off |
//!
//! Chaos runs write `results/trace_chaos_<label>_<seed>.json`; chaos-free
//! runs keep the `results/trace_<seed>.json` name (byte-identical to the
//! pre-chaos artifacts).
//!
//! A non-default `--pipeline <window>:<batch>` routes the invocation
//! through the pipelined replication engine: one cluster run committing
//! 16 slots of `batch` client values each with `window` slots in flight,
//! reporting committed-values-per-kilo-tick throughput and wire bytes.
//! With `--trace` it writes `results/trace_pipeline_<seed>.json`, whose
//! metadata carries the pipeline block (window, batch, bytes on wire) and
//! whose checker verdict includes the pipeline invariants.

use dex::harness::pipeline::{PipelineRun, DEFAULT_SLOTS};
use dex::harness::spec::RunSpec;
use std::process::ExitCode;

fn run_pipeline(spec: &RunSpec) -> ExitCode {
    let run = match PipelineRun::from_spec(spec, DEFAULT_SLOTS) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run.execute();
    println!(
        "pipeline on {} | window {} | batch {} | {} slots",
        run.config, run.window, run.batch, run.slots
    );
    println!(
        "committed {} values in {} ticks — {} values/ktick",
        outcome.committed_values,
        outcome.ticks,
        outcome.values_per_ktick()
    );
    println!(
        "wire: {} bytes, {} multicasts, {} payload clones | recycled {} slot instances, coalesced {} UC messages, {} echoes",
        outcome.bytes_on_wire,
        outcome.multicasts,
        outcome.payload_clones,
        outcome.recycled,
        outcome.uc_coalesced,
        outcome.echoes_coalesced,
    );
    if spec.stats {
        println!("{}", outcome.net.breakdown_line());
    }
    if !spec.trace {
        return ExitCode::SUCCESS;
    }
    let (_, trace) = run.traced();
    let report = dex::obs::check(&trace);
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("cannot create results/: {e}");
        return ExitCode::FAILURE;
    }
    let path = format!("results/trace_pipeline_{}.json", spec.seed);
    if let Err(e) = std::fs::write(&path, dex::obs::json::render(&trace, &report)) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "trace: re-executed with recording — {} invariant checks, {} violations → {path}",
        report.total_checks(),
        report.violations.len(),
    );
    for v in &report.violations {
        eprintln!(
            "trace violation [{}] p{}: {}",
            v.invariant, v.process, v.detail
        );
    }
    if report.is_ok() {
        ExitCode::SUCCESS
    } else {
        eprintln!("VIOLATIONS DETECTED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        println!("see the module docs at the top of src/bin/dex-sim.rs for the flag table");
        return ExitCode::SUCCESS;
    }
    let spec = match RunSpec::from_args(&args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let config = match spec.config() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bad configuration: {e}");
            return ExitCode::from(2);
        }
    };

    if !spec.pipeline.is_off() {
        return run_pipeline(&spec);
    }

    let stats = match spec.run() {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "{} on {} | workload {} | adversary {} (f = {}) | chaos {} | {} runs",
        spec.algo.label(),
        config,
        spec.workload.flag(),
        spec.adversary.flag(),
        spec.f,
        spec.chaos.flag(),
        stats.runs
    );
    println!(
        "decision paths: 1-step {:.1}%  2-step {:.1}%  fallback {:.1}%",
        100.0 * stats.path_fraction("1-step"),
        100.0 * stats.path_fraction("2-step"),
        100.0 * stats.path_fraction("fallback"),
    );
    println!(
        "steps: mean {:.2}  min {:.0}  max {:.0}   latency: mean {:.1}  p99 {:.1}",
        stats.steps.mean(),
        stats.steps.min().unwrap_or(0.0),
        stats.steps.max().unwrap_or(0.0),
        stats.latency.mean(),
        stats.latency.quantile(0.99).unwrap_or(0.0),
    );
    println!(
        "messages/run: mean {:.0}   violations: agreement {}  unanimity {}  undecided {}  non-quiescent {}",
        stats.messages.mean(),
        stats.agreement_violations,
        stats.unanimity_violations,
        stats.undecided,
        stats.non_quiescent,
    );
    if spec.stats {
        println!("{}", stats.net.breakdown_line());
    }
    let mut trace_ok = true;
    if spec.trace {
        let traced = spec.traced(0).expect("spec validated above");
        let report = dex::obs::check(&traced.trace);
        let events: usize = traced.trace.processes.iter().map(|p| p.events.len()).sum();
        if let Err(e) = std::fs::create_dir_all("results") {
            eprintln!("cannot create results/: {e}");
            return ExitCode::FAILURE;
        }
        let path = spec.trace_artifact();
        if let Err(e) = std::fs::write(&path, dex::obs::json::render(&traced.trace, &report)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "trace: run 0 re-executed with recording — {events} events, {} invariant checks, {} violations → {path}",
            report.total_checks(),
            report.violations.len(),
        );
        for v in &report.violations {
            eprintln!(
                "trace violation [{}] p{}: {}",
                v.invariant, v.process, v.detail
            );
        }
        trace_ok = report.is_ok();
    }
    if stats.clean() && trace_ok {
        println!("all runs clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("VIOLATIONS DETECTED");
        ExitCode::FAILURE
    }
}
