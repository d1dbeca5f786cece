//! Experiment harness: assembles algorithms, workloads, adversaries and the
//! simulator into reproducible experiments.
//!
//! The pieces:
//!
//! * [`AnyUc`] — a uniform wrapper over the underlying-consensus
//!   implementations (idealized oracle vs the real randomized stack), so a
//!   single node type serves every experiment.
//! * [`nodes`] — what puts an algorithm on a runtime:
//!   [`Protocol`](nodes::Protocol), the small trait (event recording,
//!   measured outcome) the runner needs from a correct process's actor,
//!   and [`OneShotActor`](nodes::OneShotActor), the one actor shell for
//!   every sans-IO [`OneShot`](nodes::OneShot) state machine — Bosco, the
//!   crash-model rules, underlying-only. A system node is
//!   [`dex_core::Node`]: that actor, or a Byzantine one on the same wire
//!   type.
//! * [`spec`] — the unified, serializable [`RunSpec`](spec::RunSpec)
//!   (system size, algorithm, workload, adversary, chaos schedule, seed…)
//!   that maps 1:1 onto the `dex-sim` CLI flags and runs batches directly;
//!   `dex-netd` children parse their run's spec from the same flags.
//! * [`runner`] — one generic run body for every algorithm on simnet or
//!   threadnet ([`run_instance`](runner::run_instance)), the one per-run
//!   derivation ([`BatchSpec::instance`](runner::BatchSpec::instance)),
//!   the one worker pool (`par_map`, shared with [`campaign`]) and the one
//!   outcome ledger, [`BatchStats::fold`](runner::BatchStats::fold):
//!   agreement / unanimity / termination violations are *counted* (the
//!   experiment asserts they stay zero) next to step/latency statistics
//!   and the wire ledger, for simnet and threadnet batches and netd
//!   cluster cells alike.
//! * [`campaign`] — the million-client testbed sweep: a
//!   [`CampaignSpec`](campaign::CampaignSpec) fans contention-phase
//!   workloads across seeds × adversaries × chaos schedules × legal
//!   `(n, t)` pairs on a worker pool and folds the digests into a
//!   byte-stable fast-decision-rate artifact (see `DESIGN.md` §14).
//! * [`idb`] — the one paper experiment that is not a consensus run: IDB
//!   instances driven on their own (Figs. 2 & 3). Every batch-shaped
//!   figure is a grid of [`run_batch`](runner::run_batch) cells in the
//!   `dex-figures` binary, and Fig. 1's annotated executions are checked
//!   [`run_instance_traced`](runner::run_instance_traced) runs there (see
//!   `DESIGN.md` §4).
//!
//! # Examples
//!
//! A whole experiment as one [`RunSpec`](spec::RunSpec):
//!
//! ```
//! use dex_harness::spec::{ChaosSpec, RunSpec, WorkloadSpec};
//!
//! let spec = RunSpec {
//!     workload: WorkloadSpec::Unanimous { value: 3 },
//!     chaos: ChaosSpec::PartitionHeal { open: 5, heal: 120 },
//!     runs: 4,
//!     ..RunSpec::default()
//! };
//! let stats = spec.run()?;
//! assert!(stats.clean()); // safe during the cut, live after the heal
//! # Ok::<(), String>(())
//! ```
//!
//! A single DEX run via the lower-level [`RunInstance`](runner::RunInstance):
//!
//! ```
//! use dex_harness::runner::{run_instance, Algo, RunInstance, UnderlyingKind};
//! use dex_adversary::{ByzantineStrategy, FaultPlan};
//! use dex_simnet::{DelayModel, FaultSchedule};
//! use dex_types::{InputVector, SystemConfig};
//!
//! let config = SystemConfig::new(7, 1)?;
//! let result = run_instance(&RunInstance {
//!     config,
//!     algo: Algo::DexFreq,
//!     underlying: UnderlyingKind::Oracle,
//!     strategy: ByzantineStrategy::Silent,
//!     fault_plan: FaultPlan::none(),
//!     input: InputVector::unanimous(7, 3),
//!     delay: DelayModel::Uniform { min: 1, max: 10 },
//!     faults: FaultSchedule::none(),
//!     seed: 1,
//!     max_events: 1_000_000,
//!     aggregate: false,
//! });
//! assert!(result.agreement_ok());
//! assert_eq!(result.max_steps(), Some(1)); // unanimous ⇒ one-step everywhere
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod idb;
pub mod nodes;
pub mod pipeline;
pub mod runner;
pub mod spec;
mod ucwrap;

/// The one JSON writer every artifact goes through, re-exported so crates
/// that reach `dex-obs` only through the harness (netd) share it.
pub use dex_obs::json;
pub use ucwrap::{AnyUc, AnyUcMsg};
