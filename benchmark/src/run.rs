//! What every workload shares: the run's arguments, the repetition clock
//! and the report a workload hands back.

use crate::metrics::Values;
use crate::spans::ThreadTrace;
use dex_core::DecisionPath;
use std::path::PathBuf;
use std::time::Instant;

/// One invocation's arguments.
#[derive(Clone, Debug)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// `--trace 1`: wrap the layers in spans and report per-layer metrics.
    pub traced: bool,
    /// Where WAL files and trace files go (inside the checkout).
    pub out_dir: PathBuf,
    /// When this process started; `setup_s` counts from here.
    pub started: Instant,
}

/// Warm-up repetitions of an untraced run. `setup_s` takes their median, so
/// one slow second of the machine does not read as slow set-up.
pub const WARMUPS: usize = 3;

impl Run {
    /// Ends set-up: runs `warm_up` [`WARMUPS`] times (once in a traced run,
    /// which reports no `setup_s`) and returns the last one's result with
    /// `setup_s` — everything from process start up to now, plus the median
    /// warm-up.
    pub fn warm_up<T>(&self, mut warm_up: impl FnMut() -> T) -> (T, f64) {
        let before_s = self.started.elapsed().as_secs_f64();
        let times = if self.traced { 1 } else { WARMUPS };
        let mut walls = Vec::with_capacity(times);
        let mut last = None;
        for _ in 0..times {
            let started = Instant::now();
            last = Some(warm_up());
            walls.push(started.elapsed().as_secs_f64());
        }
        (
            last.expect("at least one warm-up"),
            before_s + crate::stats::median(&walls),
        )
    }
}

/// Repetitions measured even when `--seconds` is already spent, so every
/// reported median rests on at least three values.
pub const MIN_REPS: usize = 3;
/// The same for a traced run, per kind (traced and untraced alternate): its
/// medians feed per-layer metrics, which carry no bound.
pub const MIN_REPS_TRACED: usize = 2;

/// Decides when the measured phase has run for `--seconds`.
pub struct Clock {
    started: Instant,
    seconds: f64,
}

impl Clock {
    /// Starts the measured phase now.
    pub fn start(seconds: f64) -> Self {
        Clock {
            started: Instant::now(),
            seconds,
        }
    }

    /// Whether to run another repetition: until `--seconds` is spent, and
    /// until `plain` untraced (and, in a traced run, `traced` traced)
    /// repetitions reach their minimum.
    pub fn more(&self, run: &Run, plain: usize, traced: usize) -> bool {
        let short = if run.traced {
            plain.min(traced) < MIN_REPS_TRACED
        } else {
            plain < MIN_REPS
        };
        short || self.started.elapsed().as_secs_f64() < self.seconds
    }
}

/// How correct processes decided, summed over a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Paths {
    pub one_step: u64,
    pub two_step: u64,
    pub fallback: u64,
}

impl Paths {
    /// Counts one decision.
    pub fn note(&mut self, path: DecisionPath) {
        match path {
            DecisionPath::OneStep => self.one_step += 1,
            DecisionPath::TwoStep => self.two_step += 1,
            DecisionPath::Underlying => self.fallback += 1,
        }
    }

    /// Adds another tally to this one.
    pub fn add(&mut self, other: &Paths) {
        self.one_step += other.one_step;
        self.two_step += other.two_step;
        self.fallback += other.fallback;
    }

    pub fn decisions(&self) -> u64 {
        self.one_step + self.two_step + self.fallback
    }

    pub fn one_step_share(&self) -> f64 {
        self.one_step as f64 / self.decisions().max(1) as f64
    }

    pub fn fast_share(&self) -> f64 {
        (self.one_step + self.two_step) as f64 / self.decisions().max(1) as f64
    }
}

/// What a workload hands back to `main`.
pub struct Report {
    /// Process start to the start of the measured phase (see [`Run::warm_up`]).
    pub setup_s: f64,
    /// Operations attempted in the measured phase (slots, or campaign runs).
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// End-to-end values (untraced) or this workload's layer values (traced).
    pub values: Values,
    /// Spans of a traced run, one entry per recording thread.
    pub traces: Vec<ThreadTrace>,
}

/// Records `problem` unless `ok`.
pub fn check(problems: &mut Vec<String>, ok: bool, problem: impl FnOnce() -> String) {
    if !ok {
        problems.push(problem());
    }
}
