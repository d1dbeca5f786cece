//! Pipelined multi-slot replication runs: the committed-values/sec side
//! of the harness.
//!
//! A [`PipelineRun`] drives a cluster of `dex-replication` replicas
//! keeping a window of `W` log slots in flight concurrently, each slot
//! carrying a batch of client values (see
//! [`dex_workloads::slot_batches`]). The throughput metric is *committed
//! values per kilo-tick of virtual time* — a deterministic quantity (same
//! spec + seed ⇒ same number), which is what lets a unit test assert a
//! hard speedup ratio instead of tolerating wall-clock noise.
//!
//! [`PipelineRun::traced`] re-executes the run with event recording and
//! assembles the checked trace artifact, carrying
//! [`PipelineMeta`](dex_obs::PipelineMeta) so the checker's pipeline
//! invariants (`window-bound`, `slot-reuse-isolation`) apply.

use crate::spec::RunSpec;
use dex_obs::{PipelineMeta, ProcessTrace, RunTrace, SchemeRules, TraceMeta};
use dex_replication::{
    build_cluster, collect_outcome, run_generic_cluster, GenericClusterOptions,
    GenericClusterOutcome, Node, TotalOrder,
};
use dex_simnet::{DelayModel, Simulation};
use dex_types::SystemConfig;
use dex_workloads::slot_batches;

/// The replicated state machine of a pipelined run: total-order broadcast
/// of client batches.
type Log = TotalOrder<Vec<u64>>;

/// Log slots a CLI `--pipeline` invocation commits.
pub const DEFAULT_SLOTS: u64 = 16;

/// One pipelined replication run, fully determined by its fields.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PipelineRun {
    /// System size and fault bound (replicas run DEX-freq: `n > 6t`).
    pub config: SystemConfig,
    /// Slots each replica keeps in flight past its committed prefix.
    pub window: u64,
    /// Client values per slot batch.
    pub batch: u64,
    /// Log slots to commit.
    pub slots: u64,
    /// Simulation seed (also seeds the client-value stream).
    pub seed: u64,
    /// Coalesce each replica's per-tick echo fan-out into one batched
    /// multicast (`--aggregate`); off preserves the unbatched wire.
    pub aggregate: bool,
}

/// What a pipelined run produced and what it cost.
#[derive(Clone, Debug)]
pub struct PipelineOutcome {
    /// Client values committed into the log (`slots × batch`).
    pub committed_values: u64,
    /// Virtual time at which the cluster drained.
    pub ticks: u64,
    /// Payload bytes the network carried.
    pub bytes_on_wire: u64,
    /// Payload clones performed by the network layer (stays `0`: all
    /// replication traffic rides the `Dest::All` slab fast path).
    pub payload_clones: u64,
    /// `Dest::All` multicasts dispatched.
    pub multicasts: u64,
    /// Slot instances recycled from the pool, summed over replicas.
    pub recycled: u64,
    /// Wire messages saved by UC-batch coalescing, summed over replicas.
    pub uc_coalesced: u64,
    /// Individual echo sends avoided by echo aggregation, summed over
    /// replicas (`0` when aggregation is off).
    pub echoes_coalesced: u64,
    /// Full network counters (per-class sends, batched echoes).
    pub net: dex_simnet::NetStats,
    /// The committed log (batches, in slot order) every correct replica
    /// agreed on.
    pub log: Vec<Vec<u64>>,
}

impl PipelineOutcome {
    /// Projects a converged cluster run onto the throughput surface.
    ///
    /// # Panics
    ///
    /// Panics unless the cluster drained with identical logs and digests.
    fn of(outcome: GenericClusterOutcome<Vec<u64>>) -> Self {
        assert!(outcome.converged(), "pipelined cluster must converge");
        let log = outcome.logs[0].clone().expect("replica 0 is correct");
        PipelineOutcome {
            committed_values: log.iter().map(|batch| batch.len() as u64).sum(),
            ticks: outcome.ticks,
            bytes_on_wire: outcome.net.bytes_on_wire,
            payload_clones: outcome.net.payload_clones,
            multicasts: outcome.net.multicasts,
            recycled: outcome.recycled.iter().sum(),
            uc_coalesced: outcome.uc_coalesced.iter().sum(),
            echoes_coalesced: outcome.echoes_coalesced.iter().sum(),
            net: outcome.net,
            log,
        }
    }

    /// Committed client values per 1000 ticks of virtual time — the
    /// deterministic throughput metric (`simnet.values_per_ktick`).
    pub fn values_per_ktick(&self) -> u64 {
        self.committed_values * 1000 / self.ticks.max(1)
    }
}

impl PipelineRun {
    /// Builds the run a [`RunSpec`] describes, committing `slots` slots.
    ///
    /// Fails on invalid `n`/`t` and on specs whose knobs the replication
    /// engine does not model (chaos schedules, Byzantine adversaries —
    /// those live in the dedicated replication tests, not the throughput
    /// path).
    pub fn from_spec(spec: &RunSpec, slots: u64) -> Result<Self, String> {
        let config = spec.config()?;
        if !config.supports_frequency_pair() {
            return Err(format!(
                "pipelined replicas run DEX-freq: need n > 6t, got n = {}, t = {}",
                spec.n, spec.t
            ));
        }
        if !spec.chaos.is_none() {
            return Err("--pipeline does not combine with --chaos".into());
        }
        if spec.f != 0 {
            return Err("--pipeline measures fault-free throughput (--f 0)".into());
        }
        Ok(PipelineRun {
            config,
            window: spec.pipeline.window,
            batch: spec.pipeline.batch,
            slots,
            seed: spec.seed,
            aggregate: spec.aggregate,
        })
    }

    /// The per-replica pending queue: every replica observes the same
    /// client batch stream (client broadcast without contention, §1.1).
    fn pending(&self) -> Vec<Vec<Vec<u64>>> {
        vec![slot_batches(self.seed, self.slots, self.batch); self.config.n()]
    }

    /// The cluster this run describes: fault-free, `window` slots in
    /// flight, every replica fed the same batch stream.
    fn options(&self) -> GenericClusterOptions<Vec<u64>> {
        GenericClusterOptions {
            window: self.window,
            aggregate: self.aggregate,
            ..GenericClusterOptions::new(self.config, self.pending(), self.slots, self.seed)
        }
    }

    /// Executes the run on the measurement path (no event recording).
    ///
    /// # Panics
    ///
    /// Panics if a correct replica fails to commit the full prefix — a
    /// liveness bug, not a measurement.
    pub fn execute(&self) -> PipelineOutcome {
        PipelineOutcome::of(run_generic_cluster::<Log>(self.options()))
    }

    /// Executes the run with event recording and assembles the trace
    /// artifact input: the outcome plus a [`RunTrace`] whose metadata
    /// carries [`PipelineMeta`] — which is what switches the checker's
    /// `window-bound` and `slot-reuse-isolation` invariants on.
    pub fn traced(&self) -> (PipelineOutcome, RunTrace) {
        let options = self.options();
        let mut nodes = build_cluster::<Log>(&options);
        for node in &mut nodes {
            if let Node::Correct(r) = node {
                r.enable_obs();
            }
        }
        let mut sim = Simulation::builder(nodes)
            .seed(self.seed)
            .delay(DelayModel::Uniform { min: 1, max: 10 })
            .build();
        let run = sim.run(50_000_000);
        let outcome = PipelineOutcome::of(collect_outcome(
            sim.actors().iter(),
            &options,
            run.quiescent,
            run.ended_at.as_units(),
            sim.stats().clone(),
        ));
        let processes: Vec<ProcessTrace> = sim
            .actors()
            .iter()
            .map(|node| match node {
                Node::Correct(r) => r.obs().trace(),
                Node::Byz(_) => unreachable!("traced pipeline clusters are fault-free"),
            })
            .collect();
        let stats = &outcome.net;
        let trace = RunTrace {
            meta: TraceMeta {
                seed: self.seed,
                n: self.config.n() as u16,
                t: self.config.t() as u16,
                algo: "replication-pipeline".to_string(),
                rules: SchemeRules::Opaque,
                faulty: Vec::new(),
                legend: Vec::new(),
                chaos: None,
                pipeline: Some(PipelineMeta {
                    window: self.window,
                    batch: self.batch,
                    bytes_on_wire: outcome.bytes_on_wire,
                    sent_by_class: [
                        stats.sent_init,
                        stats.sent_echo,
                        stats.sent_batch,
                        stats.sent_other,
                    ],
                    echoes_batched: stats.echoes_batched,
                }),
            },
            processes,
        };
        (outcome, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PipelineSpec;

    fn spec(window: u64, batch: u64, seed: u64) -> RunSpec {
        RunSpec {
            pipeline: PipelineSpec { window, batch },
            seed,
            ..RunSpec::default()
        }
    }

    #[test]
    fn sequential_and_pipelined_commit_the_same_log() {
        // (slots, batch, seed, window, least values-per-kilo-tick gain); the
        // second cell is the 48-slot n = 7 throughput cell, where window 8
        // commits 2430 values per kilo-tick against 482 at window 1.
        for (slots, batch, seed, window, gain) in [(6, 3, 9, 4, 1), (48, 4, 42, 8, 2)] {
            let seq = PipelineRun::from_spec(&spec(1, batch, seed), slots)
                .unwrap()
                .execute();
            let pipe = PipelineRun::from_spec(&spec(window, batch, seed), slots)
                .unwrap()
                .execute();
            assert_eq!(seq.log, pipe.log, "same seed ⇒ per-slot-identical logs");
            assert_eq!(seq.committed_values, slots * batch);
            assert!(
                pipe.ticks < seq.ticks,
                "window {window} must finish earlier ({} vs {})",
                pipe.ticks,
                seq.ticks
            );
            assert!(
                pipe.values_per_ktick() >= gain * seq.values_per_ktick(),
                "window {window} must commit {gain}× the values per kilo-tick ({} vs {})",
                pipe.values_per_ktick(),
                seq.values_per_ktick()
            );
            assert_eq!(seq.payload_clones, 0, "slab fast path only");
            assert_eq!(pipe.payload_clones, 0, "slab fast path only");
        }
    }

    #[test]
    fn traced_run_carries_pipeline_meta_and_passes_the_checker() {
        let run = PipelineRun::from_spec(&spec(4, 2, 31), 6).unwrap();
        let (outcome, trace) = run.traced();
        let meta = trace.meta.pipeline.as_ref().unwrap();
        assert_eq!(meta.window, 4);
        assert_eq!(meta.batch, 2);
        assert_eq!(meta.bytes_on_wire, outcome.bytes_on_wire);
        assert!(meta.bytes_on_wire > 0);
        let report = dex_obs::check(&trace);
        assert!(report.is_ok(), "{:?}", report.violations);
        let names: Vec<&str> = report.checks.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"window-bound"));
        assert!(names.contains(&"slot-reuse-isolation"));
    }

    #[test]
    fn incompatible_specs_are_rejected() {
        let mut bad = spec(8, 4, 0);
        bad.f = 1;
        assert!(PipelineRun::from_spec(&bad, 4).is_err());
        let mut chaotic = spec(8, 4, 0);
        chaotic.chaos = crate::spec::ChaosSpec::DupHeavy { p: 0.3 };
        assert!(PipelineRun::from_spec(&chaotic, 4).is_err());
        let mut small = spec(8, 4, 0);
        small.n = 6; // 6 ≤ 6t with t = 1
        assert!(PipelineRun::from_spec(&small, 4).is_err());
    }
}
