//! `dex-figures` — regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release --bin dex-figures -- table1 fig_adaptive
//! DEX_RUNS=100 cargo run --release --bin dex-figures -- all
//! cargo run --release --bin dex-figures -- --list
//! ```
//!
//! Each named figure (see `DESIGN.md` §4 and `EXPERIMENTS.md`) prints its
//! plain-text tables to stdout and writes a CSV per table under `results/`.
//! `all` runs the fourteen deterministic figures in [`FIGURES`] order —
//! with `DEX_RUNS=100` their stdout is the committed
//! `results/logs/results_<name>.log` and their CSVs the committed
//! `results/*.csv`, byte for byte (`scripts/ci.sh results` checks both).
//! `fuzz_safety` runs by name only: its transcript reports wall-clock
//! throughput.
//!
//! `DEX_RUNS=<n>` overrides every figure's batch size; `DEX_FUZZ_SEED=<s>`
//! reseeds the fuzzer. Performance is measured elsewhere — by the
//! `benchmark/` package that `BENCHMARK.json` declares.

use dex::adversary::{ByzantineStrategy, FaultPlan};
use dex::conditions::{verify, FrequencyPair, PrivilegedPair};
use dex::harness::runner::{run_batch, run_instance, Algo, BatchSpec, Placement, RunInstance};
use dex::harness::spec::ChaosSpec;
use dex::harness::{
    adaptive, average_case, coverage, crash_rows, double_expedition, idb, latency, messages, pairs,
    scaling, table1, trace,
};
use dex::metrics::{Histogram, Table};
use dex::simnet::DelayModel;
use dex::types::{InputVector, SystemConfig};
use dex::workloads::{BernoulliMix, InputGenerator, Unanimous, UniformRandom};
use rand::rngs::StdRng;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every figure by name, in `all` order; `fuzz_safety` (last) is the one
/// `all` leaves out.
const FIGURES: [(&str, fn()); 15] = [
    ("table1", table1),
    ("fig1_trace", fig1_trace),
    ("fig_idb", fig_idb),
    ("fig_adaptive", fig_adaptive),
    ("fig_two_step", fig_two_step),
    ("fig_average", fig_average),
    ("fig_pairs", fig_pairs),
    ("fig_coverage", fig_coverage),
    ("legality_check", legality_check),
    ("safety_grid", safety_grid),
    ("fig_messages", fig_messages),
    ("fig_latency", fig_latency),
    ("fig_scaling", fig_scaling),
    ("fig_hist", fig_hist),
    ("fuzz_safety", fuzz_safety),
];

/// Number of runs per experiment point: `DEX_RUNS` env var, or the default.
fn runs_from_env(default: usize) -> usize {
    std::env::var("DEX_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Prints a table under a heading and writes its CSV to
/// `results/<name>.csv` (directory created on demand).
fn emit(name: &str, heading: &str, table: &Table) {
    println!("== {heading}\n");
    println!("{}", table.render());
    let dir = PathBuf::from("results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.csv"));
        match std::fs::write(&path, table.to_csv()) {
            Ok(()) => println!("[csv written to {}]\n", path.display()),
            Err(e) => eprintln!("[csv not written: {e}]"),
        }
    }
}

/// **E1 — Table 1**: feasibility of one-step and two-step decision per
/// algorithm and resilience level, plus the crash-model rows.
fn table1() {
    let runs = runs_from_env(100);
    for t in [1usize, 2] {
        let table = table1::run(table1::Opts {
            t,
            runs,
            seed0: 2010,
        });
        emit(
            &format!("table1_t{t}"),
            &format!("Table 1 (empirical), t = {t}, {runs} runs per cell"),
            &table,
        );
    }
    for t in [1usize, 2] {
        let crash = crash_rows::run(crash_rows::Opts {
            t,
            runs,
            seed0: 2010,
        });
        emit(
            &format!("table1_crash_t{t}"),
            &format!("Table 1 crash-model rows (n = 3t+1, t = {t}, {runs} runs per cell)"),
            &crash,
        );
    }
    println!(
        "The remaining crash row (Mostefaoui et al., synchronous, t+1 processes) assumes\n\
         a synchronous system and is cited analytically — see EXPERIMENTS.md §E1."
    );
}

/// **E2 — Fig. 1 semantics**: an annotated execution trace of one DEX run
/// per input class, plus a decision-path census.
fn fig1_trace() {
    let runs = runs_from_env(200);

    println!("== One-step run (unanimous input)\n");
    println!(
        "{}",
        trace::annotated_run(InputVector::unanimous(7, 5), 1, 1)
    );

    println!("== Two-step run (margin 3: in C2 \\ C1)\n");
    println!(
        "{}",
        trace::annotated_run(InputVector::new(vec![5, 5, 5, 5, 5, 9, 9]), 1, 2)
    );

    println!("== Fallback run (margin 1: outside both conditions)\n");
    println!(
        "{}",
        trace::annotated_run(InputVector::new(vec![5, 5, 5, 5, 9, 9, 9]), 1, 3)
    );

    let census = trace::path_census(1, runs, 2010);
    emit(
        "fig1_census",
        &format!("Decision-path census per input class ({runs} runs each)"),
        &census,
    );
}

/// **E3 — Figs. 2 & 3**: Identical Broadcast properties under adversaries,
/// and the exact two-step cost in well-behaved runs.
fn fig_idb() {
    let runs = runs_from_env(50);
    let table = idb::run(runs, 2010);
    emit(
        "fig_idb",
        &format!("IDB agreement/termination grid ({runs} runs per cell)"),
        &table,
    );

    // Fig. 3's cost claim, isolated: lockstep runs must deliver at exactly
    // two point-to-point steps.
    let mut cost = Table::new(vec![
        "n".into(),
        "t".into(),
        "deliveries".into(),
        "deliveries deeper than 2 steps".into(),
    ]);
    for t in 1..=2 {
        for n in [4 * t + 1, 6 * t + 1] {
            let cfg = SystemConfig::new(n, t).expect("n > 4t");
            let s = idb::measure_lockstep(cfg, runs, 99);
            cost.row(vec![
                n.to_string(),
                t.to_string(),
                s.deliveries.to_string(),
                s.deeper_than_two.to_string(),
            ]);
        }
    }
    emit(
        "fig_idb_cost",
        "IDB step cost in well-behaved (lockstep) runs — Fig. 3's 2-step claim",
        &cost,
    );
}

/// **E4 — adaptiveness staircase** (Lemma 4): one-step decisions vs actual
/// fault count `f` and input margin, DEX vs the non-adaptive Bosco.
fn fig_adaptive() {
    let runs = runs_from_env(50);
    for t in [1usize, 2] {
        let table = adaptive::run(adaptive::Opts {
            t,
            runs,
            seed0: 2010,
        });
        emit(
            &format!("fig_adaptive_t{t}"),
            &format!("Adaptiveness staircase (n = 6t+1, t = {t}, {runs} runs per cell)"),
            &table,
        );
    }
}

/// **E5 — double expedition** (Lemma 5): the conditional two-step channel
/// across the margin sweep, vs Bosco's mandatory 3-step fallback.
fn fig_two_step() {
    let runs = runs_from_env(50);
    for t in [1usize, 2] {
        let table = double_expedition::run(double_expedition::Opts {
            t,
            runs,
            seed0: 2010,
        });
        emit(
            &format!("fig_two_step_t{t}"),
            &format!("Double-expedition margin sweep (n = 6t+1, t = {t}, {runs} runs per cell)"),
            &table,
        );
    }
}

/// **E6 — the 3-vs-4-step trade-off** (§1.2, §5): mean decision steps vs
/// input contention; locates where DEX's bigger fast path beats Bosco's
/// cheaper fallback.
fn fig_average() {
    let runs = runs_from_env(100);
    for (t, f) in [(1usize, 0usize), (2, 0), (2, 2)] {
        let table = average_case::run(average_case::Opts {
            t,
            f,
            runs,
            seed0: 2010,
        });
        emit(
            &format!("fig_average_t{t}_f{f}"),
            &format!(
                "Mean steps vs contention (n = 7t+1, t = {t}, f = {f}, {runs} runs per point)"
            ),
            &table,
        );
    }
}

/// **E7 — complementarity of the frequency and privileged pairs** (§1.2):
/// each pair expedites inputs the other cannot.
fn fig_pairs() {
    let runs = runs_from_env(100);
    for t in [1usize, 2] {
        let table = pairs::run(pairs::Opts {
            t,
            runs,
            seed0: 2010,
        });
        emit(
            &format!("fig_pairs_t{t}"),
            &format!("Pair complementarity (n = 6t+1, t = {t}, {runs} runs per point)"),
            &table,
        );
    }
}

/// **E8 — fast-path coverage** (Table 1 narrative): fraction of uniform and
/// Zipf inputs decided in ≤ 1 and ≤ 2 steps, DEX vs Bosco.
fn fig_coverage() {
    let runs = runs_from_env(200);
    for t in [1usize, 2] {
        let table = coverage::run(coverage::Opts {
            t,
            runs,
            seed0: 2010,
        });
        emit(
            &format!("fig_coverage_t{t}"),
            &format!("Fast-path coverage (n = 7t+1, t = {t}, {runs} runs per workload)"),
            &table,
        );
    }
}

/// **E9 — Theorems 1 & 2**: exhaustive machine-check of the legality
/// criteria LT1/LT2/LA3/LA4/LU5 for both condition-sequence pairs on
/// enumerable instances.
fn legality_check() {
    let mut table = Table::new(vec![
        "pair".into(),
        "n".into(),
        "t".into(),
        "|V|".into(),
        "LT1".into(),
        "LT2".into(),
        "LA3".into(),
        "LA4".into(),
        "LU5".into(),
        "verdict".into(),
    ]);
    let mut row = |pair: &str, n: usize, domain: u64, report: verify::LegalityReport| {
        table.row(vec![
            pair.into(),
            n.to_string(),
            "1".into(),
            domain.to_string(),
            report.lt1_checked.to_string(),
            report.lt2_checked.to_string(),
            report.la3_checked.to_string(),
            report.la4_checked.to_string(),
            report.lu5_checked.to_string(),
            "legal".into(),
        ]);
    };

    // Frequency pair (Theorem 1): n > 6t.
    for (n, domain) in [(7usize, 2u64), (7, 3), (8, 2)] {
        let cfg = SystemConfig::new(n, 1).expect("n > 3t");
        let pair = FrequencyPair::new(cfg).expect("n > 6t");
        let values: Vec<u64> = (0..domain).collect();
        let report = verify::check_legality(&pair, n, &values)
            .unwrap_or_else(|v| panic!("Theorem 1 violated: {v:?}"));
        row("freq", n, domain, report);
    }

    // Privileged pair (Theorem 2): n > 5t.
    for (n, domain) in [(6usize, 2u64), (6, 3), (7, 2)] {
        let cfg = SystemConfig::new(n, 1).expect("n > 3t");
        let pair = PrivilegedPair::new(cfg, 1u64).expect("n > 5t");
        let values: Vec<u64> = (0..domain).collect();
        let report = verify::check_legality(&pair, n, &values)
            .unwrap_or_else(|v| panic!("Theorem 2 violated: {v:?}"));
        row("prv(m=1)", n, domain, report);
    }

    emit(
        "legality_check",
        "Exhaustive legality verification (cells = implications checked)",
        &table,
    );
}

/// **E10 — Lemmas 1–3 under attack**: agreement / unanimity / termination
/// violation counts across the full algorithm × adversary × workload grid.
/// Every count must be zero.
fn safety_grid() {
    let runs = runs_from_env(50);
    let t = 1usize;
    let cfg = SystemConfig::new(7 * t + 1, t).expect("n = 7t + 1");

    let strategies: Vec<(&str, ByzantineStrategy<u64>)> = vec![
        ("silent", ByzantineStrategy::Silent),
        ("lie", ByzantineStrategy::ConsistentLie { value: 0 }),
        (
            "equivocate",
            ByzantineStrategy::Equivocate { values: vec![0, 1] },
        ),
        (
            "echo-poison",
            ByzantineStrategy::EchoPoison { values: vec![0, 1] },
        ),
        (
            "crash-mid",
            ByzantineStrategy::CrashMid { value: 1, reach: 4 },
        ),
    ];
    let workloads: Vec<(&str, Box<dyn InputGenerator + Sync>)> = vec![
        ("unanimous", Box::new(Unanimous { value: 1 })),
        (
            "bernoulli-0.7",
            Box::new(BernoulliMix { p: 0.7, a: 1, b: 0 }),
        ),
        ("uniform-4", Box::new(UniformRandom { domain: 4 })),
    ];
    let algos = [Algo::DexFreq, Algo::DexPrv { m: 1 }, Algo::Bosco];

    let mut table = Table::new(vec![
        "algorithm".into(),
        "adversary".into(),
        "workload".into(),
        "runs".into(),
        "agreement viol.".into(),
        "unanimity viol.".into(),
        "undecided".into(),
        "non-quiescent".into(),
    ]);
    let mut total_violations = 0usize;
    for algo in algos {
        for (sname, strategy) in &strategies {
            for (wname, workload) in &workloads {
                let stats = run_batch(&BatchSpec {
                    strategy: strategy.clone(),
                    f: t,
                    placement: Placement::RandomK,
                    delay: DelayModel::Uniform { min: 1, max: 20 },
                    runs,
                    seed0: 2010,
                    max_events: 10_000_000,
                    ..BatchSpec::base(cfg, algo, workload.as_ref())
                });
                total_violations += stats.agreement_violations
                    + stats.unanimity_violations
                    + stats.undecided
                    + stats.non_quiescent;
                table.row(vec![
                    algo.label().into(),
                    (*sname).into(),
                    (*wname).into(),
                    stats.runs.to_string(),
                    stats.agreement_violations.to_string(),
                    stats.unanimity_violations.to_string(),
                    stats.undecided.to_string(),
                    stats.non_quiescent.to_string(),
                ]);
            }
        }
    }
    emit(
        "safety_grid",
        &format!(
            "Safety grid (n = {}, t = {t}, f = {t}, {runs} runs per cell)",
            cfg.n()
        ),
        &table,
    );
    assert_eq!(total_violations, 0, "safety violations detected!");
    println!(
        "all {} cells clean — Lemmas 1-3 hold under attack",
        table.len()
    );
}

/// **E11 — message complexity**: delivered messages per consensus instance
/// across algorithms and system sizes; the price of the two-step channel.
fn fig_messages() {
    let runs = runs_from_env(20);
    let table = messages::run(messages::Opts { runs, seed0: 2010 });
    emit(
        "fig_messages",
        &format!("Message complexity per consensus instance ({runs} runs per point)"),
        &table,
    );
}

/// **E12 — decision latency in time units**: step counts translated to
/// virtual time under lockstep, uniform and heavy-tailed networks.
fn fig_latency() {
    let runs = runs_from_env(100);
    let table = latency::run(latency::Opts {
        t: 1,
        runs,
        seed0: 2010,
    });
    emit(
        "fig_latency",
        &format!("Decision latency by network regime ({runs} runs per point)"),
        &table,
    );
}

/// **E13 — scaling sweep**: fast-path coverage and message cost as the
/// system grows at fixed `t` — the expedition thresholds depend on `t`,
/// not `n`.
fn fig_scaling() {
    let runs = runs_from_env(50);
    for (t, p) in [(1usize, 0.8f64), (2, 0.8)] {
        let table = scaling::run(scaling::Opts {
            t,
            p,
            runs,
            seed0: 2010,
        });
        emit(
            &format!("fig_scaling_t{t}"),
            &format!("Scaling sweep (t = {t}, p = {p}, {runs} runs per size)"),
            &table,
        );
    }
}

/// Step-count distributions per algorithm and contention level, rendered
/// as ASCII histograms — the distributional view behind E6's means.
fn fig_hist() {
    fn histogram(algo: Algo, p: f64, runs: usize) -> Histogram {
        let cfg = SystemConfig::new(15, 2).expect("15 > 3t");
        let workload = BernoulliMix { p, a: 1, b: 0 };
        let mut h = Histogram::new();
        for i in 0..runs {
            let mut rng = StdRng::seed_from_u64(2010 + i as u64);
            let r = run_instance(&RunInstance {
                seed: 77 + i as u64,
                max_events: 10_000_000,
                ..RunInstance::base(cfg, algo, workload.generate(15, &mut rng))
            });
            assert!(r.quiescent && r.agreement_ok() && r.all_decided());
            for d in r.decided() {
                h.add(d.steps);
            }
        }
        h
    }

    let runs = runs_from_env(100);
    for p in [0.95f64, 0.8, 0.6] {
        println!("== step distribution at p(common value) = {p} (n = 15, t = 2, {runs} runs)\n");
        for algo in [Algo::DexFreq, Algo::Bosco, Algo::UnderlyingOnly] {
            let h = histogram(algo, p, runs);
            println!("-- {} (mean {:.2} steps)", algo.label(), h.mean());
            print!("{}", h.render(40));
            println!();
        }
    }
}

/// Randomized safety fuzzer: samples configurations, inputs, adversaries,
/// schedules and chaos fault-schedules at random and checks Lemmas 1–3 on
/// every run. Any violation aborts with the reproducer spec printed.
///
/// Chaos is sampled from the eventually-clean family only (healing
/// partitions, recovering crashes, duplication, drops confined to links
/// touching Byzantine processes), so termination stays assertable and the
/// fuzzer can keep requiring `all_decided` on every run.
fn fuzz_safety() {
    fn random_spec(rng: &mut StdRng) -> RunInstance {
        let t = rng.random_range(1..=2usize);
        let (algo, n) = match rng.random_range(0..4u8) {
            0 => (Algo::DexFreq, 6 * t + 1 + rng.random_range(0..3usize)),
            1 => (
                Algo::DexPrv { m: 1 },
                5 * t + 1 + rng.random_range(0..3usize),
            ),
            2 => (Algo::Bosco, 5 * t + 1 + rng.random_range(0..3usize)),
            _ => (Algo::UnderlyingOnly, 5 * t + 1),
        };
        let config = SystemConfig::new(n, t).expect("valid by construction");
        let f = rng.random_range(0..=t);
        let domain = rng.random_range(2..5u64);
        let entries: Vec<u64> = (0..n).map(|_| rng.random_range(0..domain)).collect();
        let strategy = match rng.random_range(0..5u8) {
            0 => ByzantineStrategy::Silent,
            1 => ByzantineStrategy::ConsistentLie {
                value: rng.random_range(0..domain),
            },
            2 => ByzantineStrategy::Equivocate {
                values: vec![rng.random_range(0..domain), rng.random_range(0..domain)],
            },
            3 => ByzantineStrategy::EchoPoison {
                values: vec![rng.random_range(0..domain), rng.random_range(0..domain)],
            },
            _ => ByzantineStrategy::CrashMid {
                value: rng.random_range(0..domain),
                reach: rng.random_range(0..n),
            },
        };
        let delay = match rng.random_range(0..3u8) {
            0 => DelayModel::Constant(rng.random_range(1..5)),
            1 => DelayModel::Uniform {
                min: 1,
                max: rng.random_range(2..30),
            },
            _ => DelayModel::Exponential {
                mean: rng.random_range(2..20),
            },
        };
        let fault_plan = FaultPlan::random_k(config, f, rng);
        let chaos = match rng.random_range(0..5u8) {
            0 => ChaosSpec::None,
            1 => ChaosSpec::DropHeavy {
                p: rng.random_range(0.1..0.6),
            },
            2 => ChaosSpec::DupHeavy {
                p: rng.random_range(0.05..0.5),
            },
            3 => {
                let open = rng.random_range(0..20u64);
                ChaosSpec::PartitionHeal {
                    open,
                    heal: open + rng.random_range(10..150u64),
                }
            }
            _ => {
                let down = rng.random_range(1..10u64);
                ChaosSpec::CrashRecover {
                    down,
                    up: down + rng.random_range(10..120u64),
                }
            }
        };
        RunInstance {
            faults: chaos.build(config, &fault_plan),
            strategy,
            fault_plan,
            delay,
            seed: rng.random(),
            max_events: 20_000_000,
            ..RunInstance::base(config, algo, InputVector::new(entries))
        }
    }

    let budget = runs_from_env(500);
    let fuzz_seed: u64 = std::env::var("DEX_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xF022);
    let mut rng = StdRng::seed_from_u64(fuzz_seed);
    let started = std::time::Instant::now();
    for i in 0..budget {
        let spec = random_spec(&mut rng);
        let result = run_instance(&spec);
        let ok = result.quiescent
            && result.agreement_ok()
            && result.all_decided()
            && result.unanimity_ok(&spec.input, &spec.fault_plan);
        if !ok {
            eprintln!(
                "SAFETY VIOLATION at iteration {i}!\nreproducer: {spec:#?}\nresult: {result:#?}"
            );
            std::process::exit(1);
        }
        if (i + 1) % 100 == 0 {
            println!(
                "{} runs clean ({:.0} runs/s)",
                i + 1,
                (i + 1) as f64 / started.elapsed().as_secs_f64()
            );
        }
    }
    println!(
        "fuzzed {budget} random configurations in {:.1}s — no violations (seed {fuzz_seed:#x})",
        started.elapsed().as_secs_f64()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (name, _) in FIGURES {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let mut selected: Vec<fn()> = Vec::new();
    for arg in &args {
        if arg == "all" {
            selected.extend(FIGURES[..FIGURES.len() - 1].iter().map(|(_, run)| *run));
        } else if let Some((_, run)) = FIGURES.iter().find(|(name, _)| name == arg) {
            selected.push(*run);
        } else {
            eprintln!("unknown figure {arg:?} (dex-figures --list prints the names)");
            return ExitCode::from(2);
        }
    }
    if selected.is_empty() {
        eprintln!("usage: dex-figures <name>... | all | --list");
        return ExitCode::from(2);
    }
    for run in selected {
        run();
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_from_env_parses_or_defaults() {
        // The env var is unset in tests.
        assert_eq!(runs_from_env(42), 42);
    }

    #[test]
    fn emit_writes_csv() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into()]);
        let tmp = std::env::temp_dir().join("dex-figures-emit-test");
        let _ = std::fs::create_dir_all(&tmp);
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&tmp).unwrap();
        emit("emit_test", "Emit test", &t);
        std::env::set_current_dir(old).unwrap();
        let written = std::fs::read_to_string(tmp.join("results/emit_test.csv")).unwrap();
        assert!(written.starts_with("a\n"));
    }
}
