//! `dex-benchmark suite`: every workload, each run in a process of its own,
//! gathered into one summary file that `compare` reads.
//!
//! Run `r` of every workload uses seed `--seed + r`, so two summaries made
//! with the same arguments ran the same inputs pairwise and their
//! exactly-repeating metrics can be compared for equality.

use crate::json::{parse, quote, Json};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    seed: u64,
    seconds: String,
    runs: usize,
    traced: bool,
    out_dir: PathBuf,
    label: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 42,
        seconds: crate::metrics::RUN_SECONDS.to_string(),
        runs: 1,
        traced: false,
        out_dir: PathBuf::from("benchmark/out"),
        label: String::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => parsed.seconds = value.clone(),
            "--runs" => {
                parsed.runs = value
                    .parse()
                    .ok()
                    .filter(|r| *r >= 1)
                    .ok_or_else(|| format!("bad run count {value:?}"))?
            }
            "--trace" => parsed.traced = value == "1",
            "--out" => parsed.out_dir = PathBuf::from(value),
            "--label" => parsed.label = value.clone(),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if parsed.label.is_empty() {
        parsed.label = format!("seed{}", parsed.seed);
    }
    if !crate::metrics::valid_name(&parsed.label) {
        return Err(format!("label {:?} is not a valid name", parsed.label));
    }
    Ok(parsed)
}

/// One child run: its result object, or why there is none.
fn run_child(workload: &str, seed: u64, traced: bool, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds,
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&args.out_dir)
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("FAILED")) {
        println!("  {line}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })?;
    if !output.status.success() {
        println!("  {workload} seed {seed} exited with {}", output.status);
    }
    Ok(result)
}

/// Values per metric over the runs of one workload and one kind.
type Series = BTreeMap<String, Vec<f64>>;

fn gather(series: &mut Series, result: &Json) {
    let metrics = result.get("metrics").and_then(Json::as_object);
    for (name, metric) in metrics.into_iter().flatten() {
        if let Some(v) = metric.get("value").and_then(Json::as_f64) {
            series.entry(name.clone()).or_default().push(v);
        }
    }
}

fn render_series(defs: &[MetricDef], series: &Series) -> String {
    let rows: Vec<String> = defs
        .iter()
        .filter_map(|d| {
            let values = series.get(d.name)?;
            let list: Vec<String> = values.iter().map(f64::to_string).collect();
            Some(format!(
                "      {}: {{\"unit\": {}, \"values\": [{}]}}",
                quote(d.name),
                quote(d.unit),
                list.join(", ")
            ))
        })
        .collect();
    format!("{{\n{}\n    }}", rows.join(",\n"))
}

fn print_series(defs: &[MetricDef], series: &Series) {
    for d in defs {
        let Some(values) = series.get(d.name) else {
            continue;
        };
        let spread =
            spread(values).map_or(String::new(), |s| format!("  (spread {:.1} %)", s * 100.0));
        println!(
            "  {:<40} {:>16.6} {}{spread}",
            d.name,
            stats::median(values),
            d.unit
        );
    }
}

/// Interquartile range over the median — the driver's steadiness measure —
/// for four or more values.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut sorted = values.to_vec();
    stats::sort(&mut sorted);
    // The "exclusive" quartiles of Python's `statistics.quantiles(n=4)`.
    let at = |p: f64| {
        let pos = p * (sorted.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, sorted.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    };
    let median = stats::median(&sorted);
    (median != 0.0).then(|| (at(0.75) - at(0.25)) / median.abs())
}

pub fn main(args: &[String]) -> ExitCode {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: dex-benchmark suite [--seed N] [--seconds S] [--runs K] [--trace 0|1] [--label NAME] [--out DIR]");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut ok = true;
    let mut sections = Vec::new();
    for (workload, _) in WORKLOADS {
        let (mut end_to_end, mut per_layer) = (Series::new(), Series::new());
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        for r in 0..args.runs {
            let seed = args.seed + r as u64;
            let kinds: &[bool] = if args.traced {
                &[false, true]
            } else {
                &[false]
            };
            for &traced in kinds {
                println!("running {workload} seed {seed} trace {}", u8::from(traced));
                match run_child(workload, seed, traced, &args) {
                    Ok(result) => {
                        gather(
                            if traced {
                                &mut per_layer
                            } else {
                                &mut end_to_end
                            },
                            &result,
                        );
                        attempted += result
                            .get("attempted")
                            .and_then(Json::as_f64)
                            .unwrap_or(0.0);
                        failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                        correct &= result.get("correct") == Some(&Json::Bool(true));
                    }
                    Err(e) => {
                        println!("  {e}");
                        correct = false;
                    }
                }
            }
        }
        println!("{workload}: attempted {attempted} failed {failed} correct {correct}");
        print_series(END_TO_END, &end_to_end);
        print_series(PER_LAYER, &per_layer);
        ok &= correct && failed == 0.0;
        sections.push(format!(
            "  {}: {{\n    \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed},\n    \"end_to_end\": {},\n    \"per_layer\": {}\n  }}",
            quote(workload),
            render_series(END_TO_END, &end_to_end),
            render_series(PER_LAYER, &per_layer)
        ));
    }
    let doc = format!(
        "{{\n\"seed\": {}, \"seconds\": {}, \"runs\": {}, \"nproc\": {nproc},\n\"workloads\": {{\n{}\n}}\n}}\n",
        args.seed,
        args.seconds,
        args.runs,
        sections.join(",\n")
    );
    let path = args.out_dir.join(format!("summary_{}.json", args.label));
    match std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("summary {}", path.display()),
        Err(e) => {
            eprintln!("writing {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None, "too few values to say");
        assert_eq!(spread(&[2.0; 6]), Some(0.0));
        // statistics.quantiles([10, 11, 12, 20], n=4) == [10.25, 11.5, 18.0].
        let s = spread(&[10.0, 11.0, 12.0, 20.0]).unwrap();
        assert!((s - 7.75 / 11.5).abs() < 1e-12, "{s}");
    }
}
