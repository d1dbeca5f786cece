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
//! A batch-shaped figure is a grid of cells, each one [`run_batch`] over a
//! [`BatchSpec`], asserted safe and live by [`clean`]. A cell's seeds are
//! literals where it is built: base 2010, plus one offset per column where
//! columns must not share runs. `fig_idb` and `legality_check` drive their
//! own machinery; `fig1_trace`'s annotated runs, `fig_hist` and
//! `fuzz_safety` build single runs.
//!
//! `DEX_RUNS=<n>` (`n ≥ 1`) overrides every figure's batch size;
//! `DEX_FUZZ_SEED=<s>` reseeds the fuzzer. A value that does not parse
//! exits 2 before any figure runs. Performance is measured elsewhere — by
//! the `benchmark/` package that `BENCHMARK.json` declares.

use dex::adversary::{ByzantineStrategy, FaultPlan};
use dex::conditions::{verify, FrequencyPair, PrivilegedPair};
use dex::harness::idb;
use dex::harness::runner::{
    run_batch, run_instance, run_instance_traced, Algo, BatchSpec, BatchStats, Outcome, Placement,
    RunInstance,
};
use dex::harness::spec::ChaosSpec;
use dex::metrics::{Histogram, Table};
use dex::simnet::DelayModel;
use dex::types::{InputVector, SystemConfig};
use dex::workloads::{
    BernoulliMix, InputGenerator, SplitCount, Unanimous, UniformRandom, ZipfRequests,
};
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

/// `DEX_RUNS`, parsed: `None` when unset (each figure keeps its default),
/// an error unless it is a positive run count.
fn parse_runs(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    match raw.parse() {
        Ok(0) | Err(_) => Err(format!("DEX_RUNS={raw:?} is not a positive run count")),
        Ok(runs) => Ok(Some(runs)),
    }
}

/// `DEX_FUZZ_SEED`, parsed: the fuzzer's own seed when unset.
fn parse_fuzz_seed(raw: Option<&str>) -> Result<u64, String> {
    raw.map_or(Ok(0xF022), |raw| {
        raw.parse()
            .map_err(|_| format!("DEX_FUZZ_SEED={raw:?} is not a u64 seed"))
    })
}

/// Reads the environment variable `name` through its parser.
fn parse_env<T>(name: &str, parse: fn(Option<&str>) -> Result<T, String>) -> Result<T, String> {
    parse(std::env::var(name).ok().as_deref())
}

/// Number of runs per experiment point: `DEX_RUNS`, or the default.
fn runs_from_env(default: usize) -> usize {
    parse_env("DEX_RUNS", parse_runs)
        .expect("main rejects a bad DEX_RUNS before any figure runs")
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

/// An empty table with these column headers.
fn new_table(headers: &[&str]) -> Table {
    Table::new(headers.iter().map(|h| h.to_string()).collect())
}

/// Runs one cell's batch and asserts that every run kept agreement,
/// unanimity and termination and drained before its delivery cap: a
/// figure reports numbers from safe, live runs only.
fn clean(spec: &BatchSpec<'_>) -> BatchStats {
    let stats = run_batch(spec);
    assert!(
        stats.clean(),
        "{} on {}, f = {}, workload {}, seed0 {}: {stats:?}",
        spec.algo.label(),
        spec.config,
        spec.f,
        spec.workload.name(),
        spec.seed0
    );
    stats
}

/// A cell's ≤ 1-step and ≤ 2-step decision fractions, as table cells.
fn fast_cells(stats: &BatchStats) -> [String; 2] {
    let one = stats.path_fraction("1-step");
    [
        format!("{one:.2}"),
        format!("{:.2}", one + stats.path_fraction("2-step")),
    ]
}

/// The first `mc` of `n` processes propose 0, the rest 1: a split with
/// frequency margin `n − 2·mc` at fixed positions.
fn split_input(n: usize, mc: usize) -> InputVector<u64> {
    (0..n).map(|i| u64::from(i >= mc)).collect()
}

/// Lemmas 4 and 5's worst case: the fixed split with `mc` minority
/// entries, the last `f` processes lying for the minority value. Each
/// fault removes a majority proposal and adds a minority one — the worst
/// case of the `dist(J, I) ≤ k` metric — so the view margin is
/// `n − 2·mc − 2·f`.
fn lying_split(
    cfg: SystemConfig,
    algo: Algo,
    mc: usize,
    f: usize,
    runs: usize,
    seed0: u64,
) -> BatchStats {
    clean(&BatchSpec {
        strategy: ByzantineStrategy::ConsistentLie { value: 0 },
        f,
        runs,
        seed0,
        ..BatchSpec::base(cfg, algo, &split_input(cfg.n(), mc))
    })
}

/// **E1 — Table 1**: feasibility of one-step and two-step decision per
/// algorithm and resilience level, plus the crash-model rows.
fn table1() {
    let runs = runs_from_env(100);
    for t in [1usize, 2] {
        emit(
            &format!("table1_t{t}"),
            &format!("Table 1 (empirical), t = {t}, {runs} runs per cell"),
            &table1_grid(t, runs),
        );
    }
    for t in [1usize, 2] {
        emit(
            &format!("table1_crash_t{t}"),
            &format!("Table 1 crash-model rows (n = 3t+1, t = {t}, {runs} runs per cell)"),
            &crash_rows(t, runs),
        );
    }
    println!(
        "The remaining crash row (Mostefaoui et al., synchronous, t+1 processes) assumes\n\
         a synchronous system and is cited analytically — see EXPERIMENTS.md §E1."
    );
}

/// Table 1's Byzantine rows at `n ∈ {5t+1, 6t+1, 7t+1}`, `n/a` where the
/// algorithm cannot run: the one-step fraction on unanimous input with no
/// fault (weakly one-step) and with `t` echo-poisoning processes (strongly
/// one-step), then the ≤ 2-step fraction and mean steps on an input inside
/// `C²₀` but outside `C¹₀` — a channel only DEX has; Bosco and the plain
/// baseline pay their fallback.
fn table1_grid(t: usize, runs: usize) -> Table {
    let mut table = new_table(&[
        "algorithm",
        "n",
        "1-step f=0",
        "1-step f=t (equivocate)",
        "<=2-step on C2 input",
        "mean steps on C2 input",
    ]);
    // The privileged pair only expedites its privileged value, 1.
    let unanimous = Unanimous { value: 1 };
    for n in [5 * t + 1, 6 * t + 1, 7 * t + 1] {
        let cfg = SystemConfig::new(n, t).expect("n > 3t by construction");
        // The smallest minority that brings the margin n − 2·mc to ≤ 4t
        // (outside C¹₀) while keeping it > 2t (inside C²₀).
        let c2 = SplitCount {
            major: 1,
            minor: 0,
            minor_count: (n - 4 * t).div_ceil(2),
        };
        let algos = [
            Algo::Bosco,
            Algo::DexPrv { m: 1 },
            Algo::DexFreq,
            Algo::UnderlyingOnly,
        ];
        for algo in algos {
            let cells = if algo.supports(cfg) {
                let a = clean(&BatchSpec {
                    runs,
                    seed0: 2010,
                    ..BatchSpec::base(cfg, algo, &unanimous)
                });
                let b = clean(&BatchSpec {
                    strategy: ByzantineStrategy::EchoPoison { values: vec![1, 0] },
                    f: t,
                    runs,
                    seed0: 2010 + 10_000,
                    ..BatchSpec::base(cfg, algo, &unanimous)
                });
                let c = clean(&BatchSpec {
                    runs,
                    seed0: 2010 + 20_000,
                    ..BatchSpec::base(cfg, algo, &c2)
                });
                let [_, c_le_two] = fast_cells(&c);
                vec![
                    format!("{:.2}", a.path_fraction("1-step")),
                    format!("{:.2}", b.path_fraction("1-step")),
                    c_le_two,
                    format!("{:.2}", c.steps.mean()),
                ]
            } else {
                vec!["n/a".into(); 4]
            };
            table.row([vec![algo.label().into(), n.to_string()], cells].concat());
        }
    }
    table
}

/// Table 1's crash-model rows: Brasileiro et al. \[2\] and the adaptive
/// condition-based rule (spirit of Izumi–Masuzawa \[8\]) at `n = 3t + 1`
/// under `f` random crashes. Views can omit entries but never lie, so the
/// adaptive rule needs only margin `> 2f` where DEX needs `> 4t + 2f`.
fn crash_rows(t: usize, runs: usize) -> Table {
    let n = 3 * t + 1;
    let cfg = SystemConfig::new(n, t).expect("n = 3t + 1");
    let mut table = new_table(&[
        "algorithm",
        "n",
        "workload",
        "f (crashes)",
        "1-step fraction",
        "mean steps",
    ]);
    let unanimous = Unanimous { value: 1 };
    // Margin 2: n − 2·mc = 2 ⇒ inside the adaptive one-step region only
    // when f = 0 (needs margin > 2f).
    let thin_margin = SplitCount {
        major: 1,
        minor: 0,
        minor_count: (n - 2) / 2,
    };
    for algo in [Algo::Brasileiro, Algo::CrashAdaptive] {
        for f in 0..=t {
            let workloads: [(&str, &(dyn InputGenerator + Sync)); 2] =
                [("unanimous", &unanimous), ("margin-2 split", &thin_margin)];
            for (wname, workload) in workloads {
                // The base's silent strategy *is* the crash model.
                let stats = clean(&BatchSpec {
                    f,
                    placement: Placement::RandomK,
                    runs,
                    seed0: 2010,
                    ..BatchSpec::base(cfg, algo, workload)
                });
                table.row(vec![
                    algo.label().into(),
                    n.to_string(),
                    wname.into(),
                    f.to_string(),
                    format!("{:.2}", stats.path_fraction("1-step")),
                    format!("{:.2}", stats.steps.mean()),
                ]);
            }
        }
    }
    table
}

/// **E2 — Fig. 1 semantics**: an annotated execution trace of one DEX run
/// per input class, plus a decision-path census.
fn fig1_trace() {
    let runs = runs_from_env(200);
    for (heading, input, seed, path) in fig1_runs() {
        println!("== {heading}\n");
        println!("{}", fig1_run(input, seed, path));
    }
    emit(
        "fig1_census",
        &format!("Decision-path census per input class ({runs} runs each)"),
        &census(runs),
    );
}

/// E2's annotated runs at `n = 7`, `t = 1`: heading, input, seed, and the
/// path every process must decide on.
fn fig1_runs() -> [(&'static str, InputVector<u64>, u64, &'static str); 3] {
    [
        (
            "One-step run (unanimous input)",
            InputVector::unanimous(7, 5),
            1,
            "1-step",
        ),
        (
            "Two-step run (margin 3: in C2 \\ C1)",
            InputVector::new(vec![5, 5, 5, 5, 5, 9, 9]),
            2,
            "2-step",
        ),
        (
            "Fallback run (margin 1: outside both conditions)",
            InputVector::new(vec![5, 5, 5, 5, 9, 9, 9]),
            3,
            "fallback",
        ),
    ]
}

/// One annotated DEX-freq run: the input, the run's `dex-obs` trace
/// artifact (view sets, predicate evaluations, IDB steps — which Fig. 1
/// lines fire), and every process's decision.
///
/// # Panics
///
/// Panics, naming the seed, unless the run drained, passed the invariant
/// checker, and every process decided via `path`.
fn fig1_run(input: InputVector<u64>, seed: u64, path: &str) -> String {
    let cfg = SystemConfig::new(input.n(), 1).expect("n > 3t");
    let mut out = format!("input: {input:?}\n");
    let traced = run_instance_traced(&RunInstance {
        seed,
        ..RunInstance::base(cfg, Algo::DexFreq, input)
    });
    let report = dex::obs::check(&traced.trace);
    let result = &traced.result;
    assert!(result.quiescent, "fig1 run, seed {seed}: not quiescent");
    assert!(
        report.is_ok(),
        "fig1 run, seed {seed}: invariant violations {:?}",
        report.violations
    );
    out.push_str(&dex::obs::json::render(&traced.trace, &report));
    out.push_str(&format!("quiescent: {}\n", result.quiescent));
    for (i, outcome) in result.outcomes.iter().enumerate() {
        let Outcome::Decided(d) = outcome else {
            panic!("fig1 run, seed {seed}: p{i} {outcome:?}");
        };
        assert_eq!(d.path, path, "fig1 run, seed {seed}: p{i}'s path");
        out.push_str(&format!(
            "p{i} decided {} via {} at depth {} (t={})\n",
            d.value, d.path, d.steps, d.latency
        ));
    }
    out
}

/// Decision paths of DEX-freq at `n = 6t + 1`, `t = 1`, on one fixed split
/// per input class (unanimous / `C¹` / `C² \ C¹` / outside), `runs` seeds
/// each — the statistical counterpart of the annotated traces.
fn census(runs: usize) -> Table {
    let t = 1;
    let n = 6 * t + 1;
    let cfg = SystemConfig::new(n, t).expect("n = 6t + 1");
    let mut table = new_table(&["input class", "margin", "1-step", "2-step", "fallback"]);
    // (label, minority count mc): margin = n − 2·mc.
    let classes = [
        ("unanimous", 0),
        ("C1 (margin > 4t)", (n - (4 * t + 1)) / 2),
        // Largest margin at or below 4t, still above 2t.
        ("C2 \\ C1", (n - 4 * t).div_ceil(2)),
        ("outside", (n - 1) / 2),
    ];
    for (label, mc) in classes {
        let stats = clean(&BatchSpec {
            runs,
            seed0: 2010,
            ..BatchSpec::base(cfg, Algo::DexFreq, &split_input(n, mc))
        });
        table.row(vec![
            label.into(),
            (n - 2 * mc).to_string(),
            format!("{:.2}", stats.path_fraction("1-step")),
            format!("{:.2}", stats.path_fraction("2-step")),
            format!("{:.2}", stats.path_fraction("fallback")),
        ]);
    }
    table
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
    let mut cost = new_table(&["n", "t", "deliveries", "deliveries deeper than 2 steps"]);
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
/// fault count `f` and input margin, DEX vs the non-adaptive Bosco, at
/// `n = 6t + 1` on the lying split. DEX-freq decides in one step iff
/// `n − 2·mc > 4t + 2f`; Bosco's single evaluation at `n − t` votes keys
/// only on `t`, so its one-step region does not grow when `f < t`. A cell
/// averages each run's one-step fraction.
fn fig_adaptive() {
    let runs = runs_from_env(50);
    for t in [1usize, 2] {
        let n = 6 * t + 1;
        let cfg = SystemConfig::new(n, t).expect("n = 6t + 1 > 3t");
        let mut table = new_table(&[
            "margin (n-2mc)",
            "f",
            "in C1_f (margin > 4t+2f)",
            "dex-freq 1-step",
            "bosco 1-step",
        ]);
        for mc in 0..=t + 1 {
            for f in 0..=t {
                let margin = n - 2 * mc;
                let dex = lying_split(cfg, Algo::DexFreq, mc, f, runs, 2010);
                let bosco = lying_split(cfg, Algo::Bosco, mc, f, runs, 2010 + 1_000_000);
                table.row(vec![
                    margin.to_string(),
                    f.to_string(),
                    if margin > 4 * t + 2 * f { "yes" } else { "no" }.into(),
                    format!("{:.2}", dex.one_step_per_run.mean()),
                    format!("{:.2}", bosco.one_step_per_run.mean()),
                ]);
            }
        }
        emit(
            &format!("fig_adaptive_t{t}"),
            &format!("Adaptiveness staircase (n = 6t+1, t = {t}, {runs} runs per cell)"),
            &table,
        );
    }
}

/// **E5 — double expedition** (Lemma 5): the conditional two-step channel
/// across the margin sweep at `n = 6t + 1`, vs Bosco's mandatory 3-step
/// fallback. View margins in `(2t, 4t]` decide at depth 2 via `P2`; above
/// `4t` in one step; at or below `2t` DEX falls back (4 steps).
fn fig_two_step() {
    let runs = runs_from_env(50);
    for t in [1usize, 2] {
        let n = 6 * t + 1;
        let cfg = SystemConfig::new(n, t).expect("n = 6t + 1 > 3t");
        let mut table = new_table(&[
            "margin",
            "f",
            "condition class",
            "dex 1-step",
            "dex 2-step",
            "dex mean steps",
            "bosco mean steps",
        ]);
        for f in 0..=t {
            for mc in 0..=(n - 2 * t) / 2 {
                let margin = n - 2 * mc;
                // mc ≤ 2t keeps margin ≥ 2t + 1, so the view margin is ≥ 1.
                let effective = margin - 2 * f;
                let class = if effective > 4 * t {
                    "C1 (one-step)"
                } else if effective > 2 * t {
                    "C2 \\ C1 (two-step)"
                } else {
                    "outside (fallback)"
                };
                let dex = lying_split(cfg, Algo::DexFreq, mc, f, runs, 2010);
                let bosco = lying_split(cfg, Algo::Bosco, mc, f, runs, 2010 + 500_000);
                table.row(vec![
                    margin.to_string(),
                    f.to_string(),
                    class.into(),
                    format!("{:.2}", dex.depths.fraction(&1)),
                    format!("{:.2}", dex.depths.fraction(&2)),
                    format!("{:.2}", dex.steps.mean()),
                    format!("{:.2}", bosco.steps.mean()),
                ]);
            }
        }
        emit(
            &format!("fig_two_step_t{t}"),
            &format!("Double-expedition margin sweep (n = 6t+1, t = {t}, {runs} runs per cell)"),
            &table,
        );
    }
}

/// **E6 — the 3-vs-4-step trade-off** (§1.2, §5): mean decision steps vs
/// input contention at `n = 7t + 1` (every algorithm runs; Bosco is
/// strongly one-step); locates where DEX's bigger fast path beats Bosco's
/// cheaper fallback.
fn fig_average() {
    let runs = runs_from_env(100);
    for (t, f) in [(1usize, 0usize), (2, 0), (2, 2)] {
        let cfg = SystemConfig::new(7 * t + 1, t).expect("n = 7t + 1 > 3t");
        let mut table = new_table(&[
            "p(common value)",
            "dex-freq mean steps",
            "dex-prv mean steps",
            "bosco mean steps",
            "underlying-only mean steps",
        ]);
        for p10 in (50..=100).step_by(5) {
            let p = p10 as f64 / 100.0;
            let workload = BernoulliMix { p, a: 1, b: 0 };
            let mut row = vec![format!("{p:.2}")];
            for (algo, seed0) in [
                (Algo::DexFreq, 2010),
                (Algo::DexPrv { m: 1 }, 2010 + 1_000_000),
                (Algo::Bosco, 2010 + 2_000_000),
                (Algo::UnderlyingOnly, 2010 + 3_000_000),
            ] {
                let stats = clean(&BatchSpec {
                    f,
                    runs,
                    seed0,
                    ..BatchSpec::base(cfg, algo, &workload)
                });
                row.push(format!("{:.2}", stats.steps.mean()));
            }
            table.row(row);
        }
        emit(
            &format!("fig_average_t{t}_f{f}"),
            &format!(
                "Mean steps vs contention (n = 7t+1, t = {t}, f = {f}, {runs} runs per point)"
            ),
            &table,
        );
    }
}

/// **E7 — complementarity of the frequency and privileged pairs** (§1.2)
/// at `n = 6t + 1`: on commit-heavy Bernoulli inputs the privileged pair
/// fires once `#m` clears its thresholds, where the frequency pair needs
/// the margin itself; on splits between two values other than `m = 1` the
/// privileged pair never fires.
fn fig_pairs() {
    let runs = runs_from_env(100);
    for t in [1usize, 2] {
        let cfg = SystemConfig::new(6 * t + 1, t).expect("n = 6t + 1 > 3t");
        let mut table = new_table(&[
            "workload",
            "freq 1-step",
            "freq <=2-step",
            "prv 1-step",
            "prv <=2-step",
        ]);
        let mut workloads: Vec<(Box<dyn InputGenerator + Sync>, u64)> = Vec::new();
        for p10 in [60, 70, 80, 90, 100] {
            let p = p10 as f64 / 100.0;
            workloads.push((Box::new(BernoulliMix { p, a: 1, b: 0 }), 2010));
        }
        for minor_count in [0, 1, t] {
            let split = SplitCount {
                major: 2,
                minor: 3,
                minor_count,
            };
            workloads.push((Box::new(split), 2010 + 77));
        }
        for (workload, seed0) in &workloads {
            let mut row = vec![workload.name()];
            for algo in [Algo::DexFreq, Algo::DexPrv { m: 1 }] {
                let stats = clean(&BatchSpec {
                    runs,
                    seed0: *seed0,
                    ..BatchSpec::base(cfg, algo, workload.as_ref())
                });
                row.extend(fast_cells(&stats));
            }
            table.row(row);
        }
        emit(
            &format!("fig_pairs_t{t}"),
            &format!("Pair complementarity (n = 6t+1, t = {t}, {runs} runs per point)"),
            &table,
        );
    }
}

/// **E8 — fast-path coverage** (Table 1 narrative): fraction of uniform and
/// Zipf inputs decided in ≤ 1 and ≤ 2 steps at `n = 7t + 1`, DEX vs Bosco.
/// Zipf-distributed requests are the paper's motivating scenario, where
/// one hot request usually dominates.
fn fig_coverage() {
    let runs = runs_from_env(200);
    for t in [1usize, 2] {
        let cfg = SystemConfig::new(7 * t + 1, t).expect("n = 7t + 1 > 3t");
        let mut table = new_table(&[
            "workload",
            "dex-freq <=1",
            "dex-freq <=2",
            "bosco <=1",
            "bosco <=2",
        ]);
        let mut workloads: Vec<Box<dyn InputGenerator + Sync>> = Vec::new();
        for domain in [2, 4, 8] {
            workloads.push(Box::new(UniformRandom { domain }));
        }
        for s in [0.5, 1.0, 2.0, 3.0] {
            workloads.push(Box::new(ZipfRequests { domain: 16, s }));
        }
        for workload in &workloads {
            let mut row = vec![workload.name()];
            for (algo, seed0) in [(Algo::DexFreq, 2010), (Algo::Bosco, 2010 + 500_000)] {
                let stats = clean(&BatchSpec {
                    runs,
                    seed0,
                    ..BatchSpec::base(cfg, algo, workload.as_ref())
                });
                row.extend(fast_cells(&stats));
            }
            table.row(row);
        }
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
    let mut table = new_table(&[
        "pair", "n", "t", "|V|", "LT1", "LT2", "LA3", "LA4", "LU5", "verdict",
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
/// Every count must be zero; [`clean`] stops at the first cell that is
/// not.
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

    let mut table = new_table(&[
        "algorithm",
        "adversary",
        "workload",
        "runs",
        "agreement viol.",
        "unanimity viol.",
        "undecided",
        "non-quiescent",
    ]);
    for algo in algos {
        for (sname, strategy) in &strategies {
            for (wname, workload) in &workloads {
                let stats = clean(&BatchSpec {
                    strategy: strategy.clone(),
                    f: t,
                    placement: Placement::RandomK,
                    delay: DelayModel::Uniform { min: 1, max: 20 },
                    runs,
                    seed0: 2010,
                    max_events: 10_000_000,
                    ..BatchSpec::base(cfg, algo, workload.as_ref())
                });
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
    println!(
        "all {} cells clean — Lemmas 1-3 hold under attack",
        table.len()
    );
}

/// **E11 — message complexity**: delivered messages per consensus instance
/// across algorithms and system sizes; the price of the two-step channel.
/// DEX sends `n²` proposals plus one IDB instance per process (`n²` inits
/// and up to `n³` echoes) plus the fallback's traffic, on every path;
/// Bosco `n²` votes plus the fallback's; the plain baseline only the
/// fallback's `O(n)`.
fn fig_messages() {
    let runs = runs_from_env(20);
    let mut table = new_table(&[
        "n",
        "t",
        "input",
        "dex-freq msgs",
        "bosco msgs",
        "underlying-only msgs",
        "dex/bosco ratio",
    ]);
    for t in [1usize, 2, 3] {
        let n = 7 * t + 1;
        let cfg = SystemConfig::new(n, t).expect("n = 7t + 1");
        for (label, input) in [
            ("unanimous", InputVector::unanimous(n, 1)),
            ("split", split_input(n, n / 2)),
        ] {
            let [dex, bosco, plain] =
                [Algo::DexFreq, Algo::Bosco, Algo::UnderlyingOnly].map(|algo| {
                    let stats = clean(&BatchSpec {
                        runs,
                        seed0: 2010,
                        max_events: 50_000_000,
                        ..BatchSpec::base(cfg, algo, &input)
                    });
                    stats.messages.mean()
                });
            table.row(vec![
                n.to_string(),
                t.to_string(),
                label.into(),
                format!("{dex:.0}"),
                format!("{bosco:.0}"),
                format!("{plain:.0}"),
                format!("{:.1}", dex / bosco),
            ]);
        }
    }
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
    emit(
        "fig_latency",
        &format!("Decision latency by network regime ({runs} runs per point)"),
        &latency(runs),
    );
}

/// Mean and p99 decision latency at `n = 8, t = 1`, in virtual time units
/// (mean network delay is 10 units in every regime). One step costs one
/// traversal, so the paths land near `δ`, `2δ` and `4δ` — unless the
/// delay tail stretches the `n − t`-th fastest message an instance waits
/// for.
fn latency(runs: usize) -> Table {
    let cfg = SystemConfig::new(8, 1).expect("n = 7t + 1");
    let mut table = new_table(&[
        "network",
        "p(common value)",
        "algo",
        "mean latency",
        "p99 latency",
        "mean steps",
    ]);
    let regimes: [(&str, DelayModel); 3] = [
        ("lockstep(10)", DelayModel::Constant(10)),
        ("uniform(1..19)", DelayModel::Uniform { min: 1, max: 19 }),
        ("exponential(10)", DelayModel::Exponential { mean: 10 }),
    ];
    for (rname, delay) in regimes {
        for p in [1.0f64, 0.8] {
            for algo in [Algo::DexFreq, Algo::Bosco, Algo::UnderlyingOnly] {
                let stats = clean(&BatchSpec {
                    delay: delay.clone(),
                    runs,
                    seed0: 2010,
                    max_events: 10_000_000,
                    ..BatchSpec::base(cfg, algo, &BernoulliMix { p, a: 1, b: 0 })
                });
                table.row(vec![
                    rname.into(),
                    format!("{p:.1}"),
                    algo.label().into(),
                    format!("{:.1}", stats.latency.mean()),
                    format!("{:.1}", stats.latency.quantile(0.99).unwrap_or(0.0)),
                    format!("{:.2}", stats.steps.mean()),
                ]);
            }
        }
    }
    table
}

/// **E13 — scaling sweep**: fast-path coverage and message cost as the
/// system grows at fixed `t` — the expedition thresholds depend on `t`,
/// not `n`.
fn fig_scaling() {
    let runs = runs_from_env(50);
    for t in [1usize, 2] {
        emit(
            &format!("fig_scaling_t{t}"),
            &format!("Scaling sweep (t = {t}, p = 0.8, {runs} runs per size)"),
            &scaling(t, runs),
        );
    }
}

/// DEX-freq and Bosco on `bernoulli(0.8)` inputs for `n` from `6t + 1` to
/// `24t + 1`: relative margins stay put while the absolute thresholds
/// `4t`/`2t` do not grow, so the fast path widens with `n`.
fn scaling(t: usize, runs: usize) -> Table {
    let mut table = new_table(&[
        "n",
        "t",
        "dex <=1",
        "dex <=2",
        "dex mean steps",
        "bosco mean steps",
        "dex msgs/run",
    ]);
    let workload = BernoulliMix { p: 0.8, a: 1, b: 0 };
    for n in [6 * t + 1, 8 * t + 1, 12 * t + 1, 18 * t + 1, 24 * t + 1] {
        let cfg = SystemConfig::new(n, t).expect("n > 6t by construction");
        let [dex, bosco] = [Algo::DexFreq, Algo::Bosco].map(|algo| {
            clean(&BatchSpec {
                runs,
                seed0: 2010,
                max_events: 50_000_000,
                ..BatchSpec::base(cfg, algo, &workload)
            })
        });
        let [one, two] = fast_cells(&dex);
        table.row(vec![
            n.to_string(),
            t.to_string(),
            one,
            two,
            format!("{:.2}", dex.steps.mean()),
            format!("{:.2}", bosco.steps.mean()),
            format!("{:.0}", dex.messages.mean()),
        ]);
    }
    table
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
    let fuzz_seed = parse_env("DEX_FUZZ_SEED", parse_fuzz_seed)
        .expect("main rejects a bad DEX_FUZZ_SEED before any figure runs");
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
    if let Err(e) =
        parse_env("DEX_RUNS", parse_runs).and(parse_env("DEX_FUZZ_SEED", parse_fuzz_seed))
    {
        eprintln!("{e}");
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

    fn cfg(n: usize, t: usize) -> SystemConfig {
        SystemConfig::new(n, t).unwrap()
    }

    /// A clean batch on the common base: `runs` runs from `seed0`.
    fn batch(
        cfg: SystemConfig,
        algo: Algo,
        workload: &(dyn InputGenerator + Sync),
        runs: usize,
        seed0: u64,
    ) -> BatchStats {
        clean(&BatchSpec {
            runs,
            seed0,
            ..BatchSpec::base(cfg, algo, workload)
        })
    }

    /// Column `col` of the CSV row that starts with `row`, as a number.
    fn cell(table: &Table, row: &str, col: usize) -> f64 {
        let csv = table.to_csv();
        let line = csv
            .lines()
            .find(|l| l.starts_with(row))
            .unwrap_or_else(|| panic!("no row {row:?} in\n{csv}"));
        line.split(',').nth(col).unwrap().parse().unwrap()
    }

    #[test]
    fn runs_from_env_parses_or_defaults() {
        // The env vars are unset in tests.
        assert_eq!(runs_from_env(42), 42);
        assert_eq!(parse_runs(None), Ok(None));
        assert_eq!(parse_runs(Some("7")), Ok(Some(7)));
        assert_eq!(parse_fuzz_seed(None), Ok(0xF022));
        assert_eq!(parse_fuzz_seed(Some("5")), Ok(5));
    }

    #[test]
    fn malformed_overrides_are_rejected() {
        for bad in ["0", "abc", "-1", "", "1.5"] {
            let err = parse_runs(Some(bad)).unwrap_err();
            assert!(err.contains("DEX_RUNS"), "{bad:?}: {err}");
        }
        for bad in ["0xF022", "seed", "-1"] {
            let err = parse_fuzz_seed(Some(bad)).unwrap_err();
            assert!(err.contains("DEX_FUZZ_SEED"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn table1_headline_claims_hold_for_t1() {
        let csv = table1_grid(1, 10).to_csv();
        // DEX-freq is n/a at n = 5t+1 = 6 but fully one-step at n = 7.
        assert!(csv.contains("dex-freq,6,n/a"));
        assert!(csv.contains("dex-freq,7,1.00"));
        // Bosco at n = 5t+1 achieves one-step with f = 0.
        assert!(csv.lines().any(|l| l.starts_with("bosco,6,1.00")));
        // The plain baseline never decides in one step.
        assert!(csv
            .lines()
            .filter(|l| l.starts_with("underlying-only"))
            .all(|l| l.split(',').nth(2) == Some("0.00")));
    }

    #[test]
    fn crash_rows_match_cited_results() {
        let table = crash_rows(1, 20);
        // Brasileiro: unanimous + f = 0 ⇒ always one-step at n = 3t + 1.
        assert!(
            table
                .to_csv()
                .lines()
                .any(|l| l.starts_with("brasileiro,4,unanimous,0,1.00")),
            "{}",
            table.to_csv()
        );
        // The adaptive rule decides one-step on margin-2 inputs when f = 0
        // (margin 2 > 2·0), which Brasileiro cannot (not unanimous).
        let frac = cell(&table, "crash-adaptive,4,margin-2 split,0", 4);
        assert!(frac > 0.9, "adaptive one-step fraction {frac}");
        let bfrac = cell(&table, "brasileiro,4,margin-2 split,0", 4);
        assert!(bfrac < frac, "brasileiro {bfrac} vs adaptive {frac}");
    }

    #[test]
    fn fig1_runs_decide_on_their_class_paths() {
        // `fig1_run` asserts the path, quiescence and a clean check itself.
        for (_, input, seed, path) in fig1_runs() {
            let rendered = fig1_run(input, seed, path);
            assert!(rendered.contains("\"ok\":true"), "seed {seed}");
            let decided = format!("decided 5 via {path}");
            assert_eq!(rendered.matches(&decided).count(), 7, "seed {seed}");
        }
    }

    #[test]
    fn census_classes_map_to_paths() {
        let csv = census(5).to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // unanimous → all 1-step; outside → all fallback.
        assert!(lines[1].starts_with("unanimous,7,1.00,0.00,0.00"), "{csv}");
        assert!(lines[4].contains("outside"), "{csv}");
        assert!(lines[4].ends_with("0.00,0.00,1.00"), "{csv}");
    }

    #[test]
    fn lemma4_staircase_t1() {
        // n = 7, t = 1. Margin 7 (mc = 0): C¹_0 and C¹_1 ⇒ one-step for
        // f ∈ {0, 1}. Margin 5 (mc = 1): C¹_0 only ⇒ one-step iff f = 0.
        let one_step = |mc, f| {
            lying_split(cfg(7, 1), Algo::DexFreq, mc, f, 10, 0)
                .one_step_per_run
                .mean()
        };
        assert_eq!(one_step(0, 0), 1.0);
        assert_eq!(one_step(0, 1), 1.0);
        assert_eq!(one_step(1, 0), 1.0);
        // Margin 5 ≤ 4t + 2f = 6 with f = 1: the liar removes a majority
        // entry and adds a minority one; view margin 3 ≤ 4.
        assert_eq!(one_step(1, 1), 0.0);
    }

    #[test]
    fn bosco_is_not_adaptive() {
        // Same margin-5 input with f = 0: Bosco's threshold needs more than
        // (n + 3t) / 2 = 5 matching votes among the first 6; the one
        // dissenter makes that a coin flip on arrival order, and with
        // f = 1 lying it is impossible. DEX decides 1.0 of the time at
        // f = 0 (previous test); Bosco must be strictly worse.
        let bosco = lying_split(cfg(7, 1), Algo::Bosco, 1, 0, 30, 7)
            .one_step_per_run
            .mean();
        assert!(bosco < 1.0, "bosco fraction {bosco}");
    }

    #[test]
    fn two_step_channel_fires_in_c2_band() {
        // n = 7, t = 1, f = 0: margin 3 (mc = 2) is in (2, 4] ⇒ all DEX
        // decisions at exactly two steps; Bosco needs its 3-step fallback.
        let dex = lying_split(cfg(7, 1), Algo::DexFreq, 2, 0, 10, 0);
        assert_eq!(dex.depths.fraction(&2), 1.0, "mean {}", dex.steps.mean());
        assert_eq!(dex.steps.mean(), 2.0);
        let bosco = lying_split(cfg(7, 1), Algo::Bosco, 2, 0, 10, 0);
        assert_eq!(bosco.depths.fraction(&1), 0.0);
        assert!(bosco.steps.mean() >= 3.0, "bosco {}", bosco.steps.mean());
    }

    #[test]
    fn outside_both_conditions_dex_pays_four_steps() {
        // margin 1 (mc = 3): below 2t ⇒ fallback; oracle costs 2 steps on
        // top of the 2-step IDB round.
        let dex = lying_split(cfg(7, 1), Algo::DexFreq, 3, 0, 10, 3);
        assert_eq!(dex.depths.fraction(&1), 0.0);
        assert_eq!(dex.depths.fraction(&2), 0.0);
        assert_eq!(dex.steps.mean(), 4.0, "the 3-vs-4 trade-off (§1.2)");
        let bosco = lying_split(cfg(7, 1), Algo::Bosco, 3, 0, 10, 3);
        assert_eq!(bosco.steps.mean(), 3.0);
    }

    #[test]
    fn endpoints_behave_as_predicted() {
        let mean_steps = |algo, p| {
            batch(cfg(8, 1), algo, &BernoulliMix { p, a: 1, b: 0 }, 10, 0)
                .steps
                .mean()
        };
        // p = 1: both one-step.
        assert_eq!(mean_steps(Algo::DexFreq, 1.0), 1.0);
        assert_eq!(mean_steps(Algo::Bosco, 1.0), 1.0);
        // p = 0.5: heavy contention; DEX pays up to 4, Bosco up to 3, the
        // plain baseline always 2.
        assert_eq!(mean_steps(Algo::UnderlyingOnly, 0.5), 2.0);
    }

    #[test]
    fn dex_beats_bosco_at_moderate_contention() {
        // At p = 0.85, n = 15, t = 2: expected margin ≈ 0.7·15 = 10.5 > 2t
        // most of the time (two-step or better for DEX), while a unanimous
        // first-13 vote set for Bosco is rare.
        let workload = BernoulliMix {
            p: 0.85,
            a: 1,
            b: 0,
        };
        let mean_steps = |algo| batch(cfg(15, 2), algo, &workload, 25, 5).steps.mean();
        let (dex, bosco) = (mean_steps(Algo::DexFreq), mean_steps(Algo::Bosco));
        assert!(
            dex < bosco,
            "expected DEX ({dex:.2}) to beat Bosco ({bosco:.2}) at p = 0.85"
        );
    }

    #[test]
    fn prv_wins_commit_heavy_freq_wins_foreign_values() {
        let cfg = cfg(7, 1);
        // n = 7, t = 1, p = 0.8: E[#m] = 5.6 — P1_prv (#m > 3) very likely;
        // freq P1 needs margin > 4, i.e. #m ≥ 6 — much rarer.
        let commitish = BernoulliMix { p: 0.8, a: 1, b: 0 };
        let freq = batch(cfg, Algo::DexFreq, &commitish, 40, 1).path_fraction("1-step");
        let prv = batch(cfg, Algo::DexPrv { m: 1 }, &commitish, 40, 1).path_fraction("1-step");
        assert!(prv > freq, "prv {prv:.2} vs freq {freq:.2}");

        // Unanimous on value 2 (m absent): freq one-step, prv never fast.
        let foreign = SplitCount {
            major: 2,
            minor: 3,
            minor_count: 0,
        };
        let freq = batch(cfg, Algo::DexFreq, &foreign, 10, 2);
        let prv = batch(cfg, Algo::DexPrv { m: 1 }, &foreign, 10, 2);
        assert_eq!(freq.path_fraction("1-step"), 1.0);
        assert_eq!(prv.path_fraction("1-step"), 0.0);
        assert_eq!(
            prv.path_fraction("1-step") + prv.path_fraction("2-step"),
            0.0
        );
    }

    #[test]
    fn hot_zipf_requests_mostly_expedite_for_dex() {
        let zipf = ZipfRequests { domain: 16, s: 3.0 };
        let le_two = |algo| {
            let stats = batch(cfg(8, 1), algo, &zipf, 30, 3);
            stats.path_fraction("1-step") + stats.path_fraction("2-step")
        };
        let (dex2, bosco2) = (le_two(Algo::DexFreq), le_two(Algo::Bosco));
        // DEX's ≤2-step coverage dominates Bosco's on skewed inputs.
        assert!(
            dex2 >= bosco2,
            "dex {dex2:.2} should cover at least bosco {bosco2:.2}"
        );
        assert!(
            dex2 > 0.5,
            "hot inputs should mostly expedite, got {dex2:.2}"
        );
    }

    #[test]
    fn dex_pays_cubic_idb_traffic() {
        let input = InputVector::unanimous(8, 1);
        let messages = |algo| batch(cfg(8, 1), algo, &input, 3, 0).messages.mean();
        let dex = messages(Algo::DexFreq);
        let bosco = messages(Algo::Bosco);
        let plain = messages(Algo::UnderlyingOnly);
        // DEX ≥ n² proposals + n² inits + n³ echoes ≫ Bosco ≈ n² + UC.
        assert!(dex > bosco * 3.0, "dex {dex} vs bosco {bosco}");
        assert!(bosco > plain, "bosco {bosco} vs plain {plain}");
        // Sanity: DEX's unanimous-run traffic is at least n³ echo messages.
        assert!(dex >= 8.0 * 8.0 * 8.0, "dex {dex}");
    }

    #[test]
    fn message_count_is_path_independent_for_dex() {
        // DEX always runs both channels and the UC proposal, so unanimous
        // (1-step) and split (fallback) runs cost similar traffic.
        let messages = |input: InputVector<u64>| {
            batch(cfg(8, 1), Algo::DexFreq, &input, 3, 1)
                .messages
                .mean()
        };
        let unanimous = messages(InputVector::unanimous(8, 1));
        let split = messages(InputVector::new(vec![1, 1, 1, 1, 0, 0, 0, 0]));
        let ratio = split / unanimous;
        assert!((0.8..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn lockstep_latency_equals_steps_times_delay() {
        let table = latency(5);
        // Lockstep, unanimous, DEX: 1 step × 10 units.
        assert_eq!(cell(&table, "lockstep(10),1.0,dex-freq", 3), 10.0);
        // Lockstep, unanimous, plain baseline: 2 steps × 10 units.
        assert_eq!(cell(&table, "lockstep(10),1.0,underlying-only", 3), 20.0);
    }

    #[test]
    fn fast_path_widens_with_n_at_fixed_t() {
        let table = scaling(1, 15);
        // ≤2-step coverage grows with n at fixed t and fixed contention:
        // a Binomial(n, 0.8) margin concentrates at 0.6·n ≫ 2t.
        let (small, large) = (cell(&table, "7,1,", 3), cell(&table, "19,1,", 3));
        assert!(
            large >= small,
            "coverage should not shrink: {small} at n = 7 vs {large} at n = 19"
        );
        // At n = 19, t = 1 the margin is ≈ 11 ≫ 4t: nearly everything is
        // one-step.
        let one_step = cell(&table, "19,1,", 2);
        assert!(one_step > 0.9, "{one_step} at n = 19");
    }
}
