//! The replicated-log workloads on the deterministic simulator:
//! `simlog-n31`, `simlog-n31-agg` and `chaoslog-n13`.
//!
//! Untraced repetitions go through the program's own entry point,
//! [`run_generic_cluster`]. Traced repetitions need the actors wrapped in
//! [`Timed`], so [`run_own`] rebuilds the same cluster from the same
//! options out of public constructors; the traced run asserts that both
//! builds produce the same ticks, logs, paths and network counters.
//!
//! Every repetition of a run reuses the seed, so its counts must repeat
//! exactly — a determinism check that costs nothing — and the spread of the
//! wall-clock metrics is machine noise only.

use crate::inputs;
use crate::metrics::Values;
use crate::run::{check, Clock, Paths, Report, Run};
use crate::spans::{self, ThreadTrace, Timed, HANDLER_SPANS};
use crate::stats::median;
use dex_adversary::{ByzantineActor, ByzantineStrategy};
use dex_replication::{
    run_generic_cluster, Durability, GenericClusterOptions, GenericClusterOutcome, Node, Replica,
    ReplicaMsg, StateMachine, TotalOrder,
};
use dex_simnet::{DelayModel, FaultSchedule, Recoverable, Simulation};
use dex_types::{ProcessId, SystemConfig};
use std::time::Instant;

// Repetitions are sized at 0.6–0.9 s on the sizing box: the sandbox slows
// down for a second or so at a time, and a median over a dozen short
// repetitions shrugs that off where one over four long ones does not.

/// Slots per repetition of `simlog-n31` (× 4 values; ≈ 7.9 k deliveries
/// per value, so one repetition is ≈ 0.76 M deliveries).
const SIMLOG_SLOTS: u64 = 24;
/// Slots per repetition of `simlog-n31-agg` (10× fewer deliveries each).
const SIMLOG_AGG_SLOTS: u64 = 48;
/// Client values per slot on the `simlog` workloads.
const SIMLOG_BATCH: u64 = 4;
/// Slots (= client values) per repetition of `chaoslog-n13`.
const CHAOSLOG_SLOTS: u64 = 1000;
/// Snapshot cadence `run_generic_cluster` gives durable replicas.
const SNAPSHOT_EVERY: usize = 4;
/// Event cap `run_generic_cluster` runs under.
const MAX_EVENTS: u64 = 50_000_000;

/// `PipelineRun{n=31, t=5, window=8, batch=4}` spelled as cluster options:
/// every replica holds the same batch stream, so every slot is unanimous.
pub fn simlog_options(seed: u64, slots: u64, aggregate: bool) -> GenericClusterOptions<Vec<u64>> {
    let config = SystemConfig::new(31, 5).expect("31 > 6·5");
    let batches = dex_workloads::slot_batches(seed, slots, SIMLOG_BATCH);
    GenericClusterOptions {
        window: 8,
        aggregate,
        ..GenericClusterOptions::new(config, vec![batches; config.n()], slots, seed)
    }
}

/// Share of adjacent client-value pairs each replica sees swapped, ‰. At
/// 200 ‰ the slots split ≈ 43 % one-step / 47 % two-step / 10 % fallback.
const CHAOSLOG_SWAP_PERMILLE: u64 = 200;

/// n = 13 durable log with an `EchoPoison` replica, one crash-restart and
/// every replica seeing the client stream with its own adjacent swaps.
///
/// The window is 1 on purpose. With a window above 1 and reordered queues
/// the program today commits some values in two slots (window 4, ≈ 2 ‰ of
/// slots) or leaves a replica short of the prefix (window 2, some seeds),
/// and its path mix falls into one of two regimes per seed — neither a
/// workload "on which no operation fails" nor one whose counts are steady
/// across seeds. Pipelining is measured on the unanimous workloads.
pub fn chaoslog_options(seed: u64, slots: u64) -> GenericClusterOptions<u64> {
    let config = SystemConfig::new(13, 2).expect("13 > 6·2");
    let stream = inputs::client_stream(seed, slots as usize);
    let pending = (0..config.n())
        .map(|i| inputs::reordered(&stream, seed, i, CHAOSLOG_SWAP_PERMILLE))
        .collect();
    GenericClusterOptions {
        durable: true,
        byzantine: vec![12],
        // Never client values: the stream is non-zero and, at 2⁻⁶³ odds per
        // draw, not these; the output check would say so if it were.
        byz_values: vec![u64::MAX, u64::MAX - 1],
        // Replica 3 is down from tick slots/10 to tick slots: about a sixth
        // of the run, then it replays its WAL and catches up.
        faults: FaultSchedule::none().crash_restart(ProcessId::new(3), slots / 10, slots),
        ..GenericClusterOptions::new(config, pending, slots, seed)
    }
}

/// Builds the cluster `options` describes exactly as `run_generic_cluster`
/// does — same constructors, same order — and runs it, optionally with
/// every actor wrapped in [`Timed`].
pub fn run_own<SM: StateMachine>(
    options: &GenericClusterOptions<SM::Command>,
    traced: bool,
) -> GenericClusterOutcome<SM::Command> {
    assert!(
        !options.reliable,
        "the resend layer is not part of any workload"
    );
    let cfg = options.config;
    let nodes: Vec<Node<SM>> = options
        .pending
        .iter()
        .enumerate()
        .map(|(i, queue)| {
            if options.byzantine.contains(&i) {
                return Node::Byz(ByzantineActor::new(ByzantineStrategy::EchoPoison {
                    values: options.byz_values.clone(),
                }));
            }
            let mut replica = Replica::new(
                cfg,
                ProcessId::new(i),
                ProcessId::new(0),
                queue.clone(),
                options.target_slots,
            );
            if options.durable {
                replica.enable_durability(Durability::mem(SNAPSHOT_EVERY));
            }
            if options.window > 1 {
                replica.enable_pipelining(options.window);
            }
            if options.aggregate {
                replica.enable_echo_aggregation();
            }
            Node::Correct(replica)
        })
        .collect();
    if traced {
        simulate(nodes.into_iter().map(Timed).collect(), options, |t| &t.0)
    } else {
        simulate(nodes, options, |n| n)
    }
}

fn simulate<SM, A>(
    actors: Vec<A>,
    options: &GenericClusterOptions<SM::Command>,
    node: fn(&A) -> &Node<SM>,
) -> GenericClusterOutcome<SM::Command>
where
    SM: StateMachine,
    A: Recoverable<Msg = ReplicaMsg<SM::Command>>,
{
    let mut sim = Simulation::builder(actors)
        .seed(options.seed)
        .delay(DelayModel::Uniform { min: 1, max: 10 })
        .faults(options.faults.clone())
        .recoverable()
        .build();
    let run = sim.run(MAX_EVENTS);
    let mut outcome = GenericClusterOutcome {
        logs: Vec::new(),
        digests: Vec::new(),
        paths: Vec::new(),
        quiescent: run.quiescent,
        ticks: run.ended_at.as_units(),
        net: sim.stats().clone(),
        recycled: Vec::new(),
        uc_coalesced: Vec::new(),
        echoes_coalesced: Vec::new(),
    };
    for actor in sim.actors() {
        let replica = match node(actor) {
            Node::Correct(r) => Some(r),
            Node::Byz(_) => None,
        };
        outcome.logs.push(replica.map(|r| r.log().prefix()));
        outcome.digests.push(replica.map(|r| r.machine().digest()));
        outcome
            .paths
            .push(replica.map_or(Vec::new(), |r| r.paths().to_vec()));
        outcome
            .recycled
            .push(replica.map_or(0, |r| r.mux().recycled()));
        outcome
            .uc_coalesced
            .push(replica.map_or(0, Replica::uc_coalesced));
        outcome
            .echoes_coalesced
            .push(replica.map_or(0, Replica::echoes_coalesced));
    }
    outcome
}

/// The counts of one repetition; identical across repetitions of a seed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Counts {
    pub values: u64,
    pub ticks: u64,
    pub delivered: u64,
    pub bytes: u64,
    pub paths: Paths,
    pub recycled: u64,
    pub uc_coalesced: u64,
    pub payload_clones: u64,
    pub echoes_batched: u64,
    pub batch_multicasts: u64,
}

/// A workload's shape: how to read client values out of its commands.
pub struct LogWorkload<SM: StateMachine> {
    pub options: GenericClusterOptions<SM::Command>,
    /// The client values of a committed command (none for the no-op).
    pub values_of: fn(&SM::Command) -> Vec<u64>,
    /// Every client value handed to the cluster, each exactly once.
    pub expected: Vec<u64>,
}

pub fn simlog(seed: u64, aggregate: bool) -> LogWorkload<TotalOrder<Vec<u64>>> {
    let slots = if aggregate {
        SIMLOG_AGG_SLOTS
    } else {
        SIMLOG_SLOTS
    };
    let options = simlog_options(seed, slots, aggregate);
    let expected = options.pending[0].iter().flatten().copied().collect();
    LogWorkload {
        options,
        values_of: |batch| batch.clone(),
        expected,
    }
}

pub fn chaoslog(seed: u64) -> LogWorkload<TotalOrder<u64>> {
    LogWorkload {
        options: chaoslog_options(seed, CHAOSLOG_SLOTS),
        values_of: |v| if *v == 0 { Vec::new() } else { vec![*v] },
        expected: inputs::client_stream(seed, CHAOSLOG_SLOTS as usize),
    }
}

impl<SM: StateMachine> LogWorkload<SM> {
    /// Checks one repetition's outputs and extracts its counts.
    pub fn verify(
        &self,
        outcome: &GenericClusterOutcome<SM::Command>,
        problems: &mut Vec<String>,
    ) -> Counts {
        let slots = self.options.target_slots as usize;
        check(problems, outcome.quiescent, || {
            "simulation did not drain".into()
        });
        check(problems, outcome.converged(), || {
            "correct replicas disagree on log or digest".into()
        });
        let log = outcome
            .logs
            .iter()
            .flatten()
            .next()
            .cloned()
            .unwrap_or_default();
        check(problems, log.len() == slots, || {
            format!("committed {} of {slots} slots", log.len())
        });
        let mut committed: Vec<u64> = log.iter().flat_map(self.values_of).collect();
        let values = committed.len() as u64;
        committed.sort_unstable();
        let mut expected = self.expected.clone();
        expected.sort_unstable();
        check(problems, committed == expected, || {
            "committed log is not exactly the generated client values (lost or twice)".into()
        });
        check(problems, outcome.net.payload_clones == 0, || {
            format!("simnet cloned {} payloads", outcome.net.payload_clones)
        });
        let mut paths = Paths::default();
        for p in outcome.paths.iter().flatten() {
            paths.note(p.path);
        }
        Counts {
            values,
            ticks: outcome.ticks,
            delivered: outcome.net.delivered,
            bytes: outcome.net.bytes_on_wire,
            paths,
            recycled: outcome.recycled.iter().sum(),
            uc_coalesced: outcome.uc_coalesced.iter().sum(),
            payload_clones: outcome.net.payload_clones,
            echoes_batched: outcome.net.echoes_batched,
            // `sent_batch` counts recipient copies, n per multicast.
            batch_multicasts: outcome.net.sent_batch / self.options.config.n() as u64,
        }
    }

    /// Runs the workload: one warm-up repetition, then repetitions until
    /// `--seconds` is spent. Traced runs alternate traced and untraced
    /// repetitions so the tracing overhead is measured within one process.
    pub fn run(&self, run: &Run) -> Report {
        let mut problems = Vec::new();
        let (warm, setup_s) = run.warm_up(|| run_generic_cluster::<SM>(self.options.clone()));
        let counts = self.verify(&warm, &mut problems);
        if run.traced {
            let own = run_own::<SM>(&self.options, false);
            let same = own.ticks == warm.ticks
                && own.logs == warm.logs
                && own.digests == warm.digests
                && own.paths == warm.paths
                && own.net == warm.net
                && own.recycled == warm.recycled;
            check(&mut problems, same, || {
                "the benchmark's cluster build diverged from run_generic_cluster".into()
            });
        }
        let clock = Clock::start(run.seconds);
        let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
        let mut rep = 0;
        while clock.more(run, plain_s.len(), traced_s.len()) {
            rep += 1;
            let traced = run.traced && rep % 2 == 0;
            spans::set_rep(rep);
            let options = self.options.clone();
            let started = Instant::now();
            let outcome = if traced {
                let _rep = spans::scoped("rep", "simnet");
                run_own::<SM>(&options, true)
            } else {
                run_generic_cluster::<SM>(options)
            };
            let wall = started.elapsed().as_secs_f64();
            if traced { &mut traced_s } else { &mut plain_s }.push(wall);
            let again = self.verify(&outcome, &mut problems);
            check(&mut problems, again == counts, || {
                format!("repetition {rep} counted {again:?}, warm-up {counts:?}")
            });
        }
        let reps = (plain_s.len() + traced_s.len()) as u64;
        let slots = self.options.target_slots;
        let mut values = Values::new();
        let mut traces = Vec::new();
        if run.traced {
            let traced_ns = (traced_s.iter().sum::<f64>() * 1e9) as u64;
            let trace = spans::take_thread("main", traced_ns);
            self.layer_values(
                &counts,
                &trace,
                &plain_s,
                &traced_s,
                &mut values,
                &mut problems,
            );
            traces.push(trace);
        } else {
            let per_s = counts.values as f64 / median(&plain_s);
            values.insert("committed_values_per_s", per_s);
            values.insert(
                "msgs_per_value",
                counts.delivered as f64 / counts.values as f64,
            );
            values.insert("one_step_share", counts.paths.one_step_share());
            values.insert("fast_share", counts.paths.fast_share());
        }
        Report {
            setup_s,
            attempted: reps * slots,
            failed: if problems.is_empty() { 0 } else { reps * slots },
            problems,
            values,
            traces,
        }
    }

    /// Per-layer values of a traced run. Spans were recorded on this thread
    /// only: `rep` around each traced repetition, handler spans inside it.
    fn layer_values(
        &self,
        counts: &Counts,
        trace: &ThreadTrace,
        plain_s: &[f64],
        traced_s: &[f64],
        values: &mut Values,
        problems: &mut Vec<String>,
    ) {
        let slots = self.options.target_slots as f64;
        let wall_ns = trace.total_ns("rep") as f64;
        let handler_ns: u64 = HANDLER_SPANS.iter().map(|s| trace.total_ns(s)).sum();
        let delivered = counts.delivered * traced_s.len() as u64;
        let coverage = trace.coverage();
        check(problems, (coverage - 1.0).abs() <= 0.05, || {
            format!("handler + dispatch self times cover {coverage:.3} of the traced wall")
        });
        values.insert(
            "runtime.bytes_per_value",
            counts.bytes as f64 / counts.values as f64,
        );
        values.insert(
            "simnet.values_per_ktick",
            counts.values as f64 * 1000.0 / counts.ticks as f64,
        );
        values.insert(
            "simnet.dispatch_ns_per_delivery",
            (wall_ns - handler_ns as f64) / delivered as f64,
        );
        values.insert("simnet.payload_clones", counts.payload_clones as f64);
        if counts.batch_multicasts > 0 {
            values.insert(
                "broadcast.echoes_per_batch",
                counts.echoes_batched as f64 / counts.batch_multicasts as f64,
            );
        }
        values.insert("replication.handler_share", handler_ns as f64 / wall_ns);
        values.insert(
            "replication.recycled_per_slot",
            counts.recycled as f64 / slots,
        );
        values.insert(
            "replication.uc_coalesced_per_slot",
            counts.uc_coalesced as f64 / slots,
        );
        values.insert("bench.trace_overhead", median(traced_s) / median(plain_s));
        values.insert("bench.span_coverage", coverage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_harness::pipeline::PipelineRun;

    #[test]
    fn simlog_options_spell_the_pipeline_run_of_the_issue() {
        for aggregate in [false, true] {
            let options = simlog_options(5, 6, aggregate);
            let product = PipelineRun {
                config: options.config,
                window: 8,
                batch: SIMLOG_BATCH,
                slots: 6,
                seed: 5,
                aggregate,
            }
            .execute();
            let ours = run_generic_cluster::<TotalOrder<Vec<u64>>>(options);
            assert_eq!(ours.ticks, product.ticks);
            assert_eq!(ours.logs[0].as_ref(), Some(&product.log));
            assert_eq!(ours.net, product.net);
        }
    }

    #[test]
    fn own_build_matches_the_program_with_and_without_spans() {
        let sim = simlog_options(11, 5, true);
        let chaos = chaoslog_options(11, 40);
        for traced in [false, true] {
            let a = run_own::<TotalOrder<Vec<u64>>>(&sim, traced);
            let b = run_generic_cluster::<TotalOrder<Vec<u64>>>(sim.clone());
            assert_eq!(
                (a.ticks, &a.logs, &a.net, &a.paths),
                (b.ticks, &b.logs, &b.net, &b.paths)
            );
            let a = run_own::<TotalOrder<u64>>(&chaos, traced);
            let b = run_generic_cluster::<TotalOrder<u64>>(chaos.clone());
            assert_eq!(
                (a.ticks, &a.logs, &a.net, &a.paths),
                (b.ticks, &b.logs, &b.net, &b.paths)
            );
            assert_eq!(a.digests, b.digests);
        }
        // Drop what the traced builds recorded on this test thread.
        let _ = spans::take_thread("test", 1);
    }

    #[test]
    fn two_runs_at_a_tiny_size_give_equal_counts() {
        fn counts<SM: StateMachine>(w: &LogWorkload<SM>) -> Counts {
            let mut problems = Vec::new();
            let c = w.verify(&run_generic_cluster::<SM>(w.options.clone()), &mut problems);
            assert!(problems.is_empty(), "{problems:?}");
            c
        }
        let sim = |aggregate| {
            let options = simlog_options(3, 6, aggregate);
            let expected = options.pending[0].iter().flatten().copied().collect();
            LogWorkload::<TotalOrder<Vec<u64>>> {
                options,
                values_of: |b| b.clone(),
                expected,
            }
        };
        for aggregate in [false, true] {
            let (a, b) = (counts(&sim(aggregate)), counts(&sim(aggregate)));
            assert_eq!(format!("{a:?}").into_bytes(), format!("{b:?}").into_bytes());
            assert_eq!(a.values, 24);
            assert_eq!(
                a.paths.one_step_share(),
                1.0,
                "identical queues are unanimous"
            );
        }
        let chaos = || LogWorkload::<TotalOrder<u64>> {
            options: chaoslog_options(3, 300),
            values_of: |v| if *v == 0 { Vec::new() } else { vec![*v] },
            expected: inputs::client_stream(3, 300),
        };
        let (a, b) = (counts(&chaos()), counts(&chaos()));
        assert_eq!(format!("{a:?}").into_bytes(), format!("{b:?}").into_bytes());
        assert!(
            a.paths.two_step + a.paths.fallback > 0,
            "reordering leaves the one-step path"
        );
        assert_ne!(a, {
            let mut other = chaos();
            other.options = chaoslog_options(4, 300);
            other.expected = inputs::client_stream(4, 300);
            counts(&other)
        });
    }
}
