//! # DEX — Doubly-Expedited One-Step Byzantine Consensus
//!
//! A complete Rust reproduction of *“Doubly-Expedited One-Step Byzantine
//! Consensus”* (Banu, Izumi, Wada — DSN 2010): the DEX algorithm, its
//! legality framework and both legal condition-sequence pairs, the
//! Identical Broadcast primitive, two underlying-consensus engines, the
//! Bosco baseline, a deterministic discrete-event simulator plus a real
//! threaded runtime, Byzantine adversaries, workloads, and an experiment
//! harness regenerating every table/figure-level claim of the paper.
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `dex-types` | process ids, configs, input vectors, views, step depths, decisions |
//! | [`conditions`] | `dex-conditions` | conditions, legality pairs, exhaustive verifier |
//! | [`broadcast`] | `dex-broadcast` | Identical Broadcast (Fig. 3), reliable broadcast |
//! | [`underlying`] | `dex-underlying` | oracle + randomized underlying consensus |
//! | [`core`] | `dex-core` | **Algorithm DEX** (Fig. 1) |
//! | [`baselines`] | `dex-baselines` | Bosco, crash-model rules, underlying-only (state machines) |
//! | [`adversary`] | `dex-adversary` | Byzantine strategies, fault plans |
//! | [`simnet`] | `dex-simnet` | deterministic discrete-event simulator |
//! | [`threadnet`] | `dex-threadnet` | threaded runtime over crossbeam channels |
//! | [`netd`] | `dex-netd` | process-level runtime: wire codec, TCP mesh, kill -9 cluster harness |
//! | [`workloads`] | `dex-workloads` | input-vector generators |
//! | [`metrics`] | `dex-metrics` | summaries, counters, tables |
//! | [`obs`] | `dex-obs` | structured event traces + trace-driven invariant checker |
//! | [`replication`] | `dex-replication` | replicated KV state machine on multi-slot DEX |
//! | [`harness`] | `dex-harness` | single runs, batches, run specs, campaigns (the `dex-figures` grids run on it) |
//!
//! # Quickstart
//!
//! Seven processes, one tolerated fault, unanimous proposals — the paper's
//! flagship scenario, deciding in a **single communication step** — as one
//! [`RunSpec`](harness::spec::RunSpec):
//!
//! ```
//! use dex::prelude::*;
//!
//! let spec = RunSpec {
//!     workload: WorkloadSpec::Unanimous { value: 42 },
//!     runs: 5,
//!     ..RunSpec::default()
//! };
//! let stats = spec.run()?;
//! assert!(stats.clean());
//! assert_eq!(stats.steps.mean(), 1.0); // every decision in one step
//! # Ok::<(), String>(())
//! ```
//!
//! The same spec survives a healing partition — safety throughout, every
//! correct process deciding after the heal:
//!
//! ```
//! # use dex::prelude::*;
//! let spec = RunSpec {
//!     chaos: ChaosSpec::PartitionHeal { open: 5, heal: 120 },
//!     runs: 5,
//!     ..RunSpec::default()
//! };
//! assert!(spec.run()?.clean());
//! # Ok::<(), String>(())
//! ```
//!
//! See `examples/` for runnable scenarios (state-machine replication,
//! atomic commitment, equivocation defence, threaded execution) and
//! `EXPERIMENTS.md` for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dex_adversary as adversary;
pub use dex_baselines as baselines;
pub use dex_broadcast as broadcast;
pub use dex_conditions as conditions;
pub use dex_core as core;
pub use dex_harness as harness;
pub use dex_metrics as metrics;
pub use dex_netd as netd;
pub use dex_obs as obs;
pub use dex_replication as replication;
pub use dex_simnet as simnet;
pub use dex_threadnet as threadnet;
pub use dex_types as types;
pub use dex_underlying as underlying;
pub use dex_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use dex_adversary::{ByzantineStrategy, FaultPlan};
    pub use dex_conditions::{FrequencyPair, LegalityPair, PrivilegedPair};
    pub use dex_core::{DecisionPath, DexActor, DexMsg, DexProcess};
    pub use dex_harness::runner::{
        run_batch, run_instance, run_instance_traced, traced_batch_run, Algo, BatchSpec,
        BatchStats, Outcome, Placement, RunInstance, RunResult, TracedRun, UnderlyingKind,
    };
    pub use dex_harness::spec::{
        AdversarySpec, ChaosSpec, RunSpec, RuntimeSpec, UnderlyingSpec, WorkloadSpec,
    };
    pub use dex_obs::{check, CheckReport, Recorder, RunTrace};
    pub use dex_simnet::{
        Actor, Context, DelayModel, FaultSchedule, Simulation, SimulationBuilder,
    };
    pub use dex_types::{InputVector, ProcessId, StepDepth, SystemConfig, View};
    pub use dex_underlying::{OracleConsensus, Outbox, ReducedMvc, UnderlyingConsensus};
}
