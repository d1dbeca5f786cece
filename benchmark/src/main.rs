//! The repo's benchmark: six workloads over simnet, the campaign engine and
//! the TCP runtime, measured from outside through public functions only.
//! See `README.md` for the tables of workloads and metrics.
//!
//! ```text
//! dex-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! dex-benchmark suite [--seed N] [--seconds S] [--runs K] [--trace 0|1] [--label NAME]
//! dex-benchmark compare <a.json> <b.json>
//! ```
//!
//! One invocation runs one workload in this process, checks its outputs,
//! prints every metric by name with its unit, and ends with one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits non-zero if an output check fails.

mod campaign;
mod compare;
mod inputs;
mod json;
mod metrics;
mod netlog;
mod probes;
mod run;
mod simlog;
mod spans;
mod stats;
mod suite;

use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use run::{Report, Run};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: dex-benchmark --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1] [--out DIR]\n       dex-benchmark suite [--seed N] [--seconds S] \
                     [--runs K] [--trace 0|1] [--label NAME] [--out DIR]\n       \
                     dex-benchmark compare <a.json> <b.json>";

fn parse_args(args: &[String], started: Instant) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 42,
        seconds: f64::from(metrics::RUN_SECONDS),
        traced: false,
        out_dir: PathBuf::from("benchmark/out"),
        started,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                run.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out" => run.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !metrics::is_workload(&run.workload) {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload {:?}; one of {}",
            run.workload,
            names.join(", ")
        ));
    }
    Ok(run)
}

fn dispatch(run: &Run) -> Report {
    match run.workload.as_str() {
        "simlog-n31" => simlog::simlog(run.seed, false).run(run),
        "simlog-n31-agg" => simlog::simlog(run.seed, true).run(run),
        "chaoslog-n13" => simlog::chaoslog(run.seed).run(run),
        "campaign-std" => campaign::run(run),
        "netlog-n7-w1" => netlog::run(run, 1),
        "netlog-n7-w8" => netlog::run(run, 8),
        other => unreachable!("parse_args admitted {other}"),
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_metrics(defs: &[MetricDef], values: &Values) {
    for d in defs {
        println!("metric {} {} {}", d.name, values[d.name], d.unit);
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("suite") => return suite::main(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let run = match parse_args(&args, process_start) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The probes are the same timed loops on every workload. They run first,
    // in a process that has done nothing yet, so their numbers do not depend
    // on what the workload left behind (threads winding down, a warm disk).
    let probed = if run.traced {
        probes::all(&run)
    } else {
        Ok(Vec::new())
    };
    let mut report = dispatch(&run);
    let defs = if run.traced {
        match probed {
            Ok(probed) => report.values.extend(probed),
            Err(e) => report.problems.push(format!("probes: {e}")),
        }
        // A layer the workload never entered did no work: 0.
        for d in PER_LAYER {
            report.values.entry(d.name).or_insert(0.0);
        }
        let path = run.out_dir.join(format!("trace_{}.json", run.workload));
        let doc = spans::render_json(&run.workload, run.seed, &report.traces);
        match std::fs::create_dir_all(&run.out_dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => report
                .problems
                .push(format!("writing {}: {e}", path.display())),
        }
        PER_LAYER
    } else {
        report.values.insert("setup_s", report.setup_s);
        report.values.insert("peak_rss_mb", peak_rss_mb());
        END_TO_END
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.traced)
    );
    print_metrics(defs, &report.values);
    for problem in &report.problems {
        println!("FAILED {problem}");
    }
    let correct = report.problems.is_empty();
    println!(
        "{}",
        metrics::result_json(
            correct,
            report.attempted,
            report.failed,
            defs,
            &report.values
        )
    );
    if correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
