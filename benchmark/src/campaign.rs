//! `campaign-std`: the paper's own experiment — single-shot DEX instances
//! over the standard campaign grid (4 adversaries × clean, MATRIX and
//! crash-restart networks × `f = 0..=t` × both legal pairs), run through
//! [`run_campaign`] on the harness's work-stealing pool.
//!
//! A *chunk* is every cell of the grid for some number of seeds. The
//! measured phase opens with one big chunk ([`SEEDS_PER_CELL`] seeds per
//! cell): the counts — shares, messages, decide latencies — come from it,
//! where they rest on enough inputs to be steady across seeds. The warm-ups
//! and the timed repetitions are smaller chunks ([`TIMED_SEEDS`] seeds per
//! cell, the first of the same seeds), short enough that ten fit in a run. Chunks reuse
//! `--seed`, so equal chunks must count the same. One consensus instance
//! decides one value, which is what `committed_values_per_s` counts here.

use crate::metrics::Values;
use crate::run::{check, Clock, Paths, Report, Run};
use crate::spans;
use crate::stats::{median, quantile, tail_quantile, MIN_BEYOND};
use dex_harness::campaign::{run_campaign, CampaignReport, CampaignSpec};
use std::time::Instant;

/// Seeds per grid cell in the counts chunk: 120 cells × 120 = 14 400 runs.
const SEEDS_PER_CELL: usize = 120;
/// Seeds per grid cell in a timed chunk: 120 cells × 40 = 4 800 runs.
const TIMED_SEEDS: usize = 40;
/// Seeds per cell of the (smaller) chunks that measure the pool's speed-up.
const SPEEDUP_SEEDS: usize = 24;

/// Worker threads for the campaign pool: every core, at most four.
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(4))
}

/// The counts of one chunk; identical across chunks of a seed.
#[derive(Clone, PartialEq, Debug)]
struct Counts {
    runs: u64,
    messages: u64,
    paths: Paths,
    undecided: u64,
    agreement_violations: u64,
    non_quiescent: u64,
    decide_ticks_p50: f64,
    decide_ticks_p99: f64,
}

fn counts(report: &CampaignReport) -> Counts {
    let mut c = Counts {
        runs: report.runs() as u64,
        messages: 0,
        paths: Paths::default(),
        undecided: 0,
        agreement_violations: 0,
        non_quiescent: 0,
        decide_ticks_p50: 0.0,
        decide_ticks_p99: 0.0,
    };
    let mut latencies = Vec::new();
    for cell in &report.stats {
        c.messages += cell.messages;
        c.paths.one_step += cell.one_step;
        c.paths.two_step += cell.two_step;
        c.paths.fallback += cell.fallback;
        c.undecided += cell.undecided;
        c.agreement_violations += cell.agreement_violations as u64;
        c.non_quiescent += cell.non_quiescent as u64;
        latencies.extend(cell.latencies.iter().map(|&t| t as f64));
    }
    crate::stats::sort(&mut latencies);
    if !latencies.is_empty() {
        c.decide_ticks_p50 = quantile(&latencies, 0.5);
        c.decide_ticks_p99 = tail_quantile(&latencies, 0.99, MIN_BEYOND).unwrap_or(0.0);
    }
    c
}

fn chunk(seeds: usize, seed: u64, jobs: usize) -> (CampaignReport, f64) {
    let spec = CampaignSpec::standard(seeds, seed);
    let started = Instant::now();
    let report = run_campaign(&spec, jobs).expect("the standard campaign grid is valid");
    (report, started.elapsed().as_secs_f64())
}

pub fn run(run: &Run) -> Report {
    let jobs = jobs();
    let mut problems = Vec::new();
    let (_, setup_s) = run.warm_up(|| chunk(TIMED_SEEDS, run.seed, jobs));
    let clock = Clock::start(run.seconds);
    let expected = counts(&chunk(SEEDS_PER_CELL, run.seed, jobs).0);
    check(&mut problems, expected.agreement_violations == 0, || {
        format!("{} runs violated agreement", expected.agreement_violations)
    });
    check(&mut problems, expected.non_quiescent == 0, || {
        format!("{} runs did not drain", expected.non_quiescent)
    });
    check(&mut problems, expected.undecided == 0, || {
        format!("{} correct processes never decided", expected.undecided)
    });

    let mut chunk_s = Vec::new();
    let mut timed: Option<Counts> = None;
    // Chunks are never wrapped, so a traced run has no second kind.
    while clock.more(run, chunk_s.len(), chunk_s.len()) {
        spans::set_rep(chunk_s.len() as u32 + 1);
        let span = run.traced.then(spans::open);
        let (report, wall) = chunk(TIMED_SEEDS, run.seed, jobs);
        if let Some(span) = span {
            span.close("chunk", "harness");
        }
        chunk_s.push(wall);
        let again = counts(&report);
        let first = timed.get_or_insert_with(|| again.clone());
        check(&mut problems, again == *first, || {
            format!(
                "chunk {} counted {again:?}, chunk 1 {first:?}",
                chunk_s.len()
            )
        });
    }
    let timed = timed.expect("at least one timed chunk ran");
    let timed_bad = timed.agreement_violations + timed.non_quiescent + timed.undecided;
    check(&mut problems, timed_bad == 0, || {
        format!("{timed_bad} violations, stuck runs or undecided processes in a timed chunk")
    });

    let mut values = Values::new();
    let mut traces = Vec::new();
    if run.traced {
        let chunks_ns = (chunk_s.iter().sum::<f64>() * 1e9) as u64;
        let trace = spans::take_thread("main", chunks_ns);
        values.insert("bench.span_coverage", trace.coverage());
        traces.push(trace);
        values.insert("harness.decide_ticks_p50", expected.decide_ticks_p50);
        values.insert("harness.decide_ticks_p99", expected.decide_ticks_p99);
        // Speed-up of the pool: the same small chunk at `jobs` and at 1,
        // three times each, alternating.
        let (mut pooled, mut single) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            pooled.push(chunk(SPEEDUP_SEEDS, run.seed, jobs).1);
            single.push(chunk(SPEEDUP_SEEDS, run.seed, 1).1);
        }
        values.insert("harness.jobs_speedup", median(&single) / median(&pooled));
        // Nothing inside `run_campaign` can be wrapped from outside, so
        // there is no traced variant to compare: `bench.trace_overhead`
        // stays unreported here.
    } else {
        values.insert(
            "committed_values_per_s",
            timed.runs as f64 / median(&chunk_s),
        );
        values.insert(
            "msgs_per_value",
            expected.messages as f64 / expected.runs as f64,
        );
        values.insert("one_step_share", expected.paths.one_step_share());
        values.insert("fast_share", expected.paths.fast_share());
    }
    let chunks = chunk_s.len() as u64;
    let attempted = expected.runs + timed.runs * chunks;
    // Undecided *processes* stand in for runs with one: an upper bound.
    let bad_runs = expected.agreement_violations + expected.non_quiescent + expected.undecided;
    Report {
        setup_s,
        attempted,
        failed: attempted.min(bad_runs + timed_bad * chunks),
        problems,
        values,
        traces,
    }
}
