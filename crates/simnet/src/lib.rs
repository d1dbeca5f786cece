//! A deterministic discrete-event simulator for asynchronous message-passing
//! systems.
//!
//! The DEX paper's system model (§2.1) is a fully asynchronous network of
//! `n` processes connected by reliable links: no message is ever lost,
//! duplicated or corrupted, but delivery delays are arbitrary and there is no
//! bound on relative process speeds. This crate realises that model as a
//! seeded virtual-time simulation:
//!
//! * **Actors** ([`Actor`]) are deterministic state machines reacting to
//!   message deliveries. Byzantine processes are simply actors running a
//!   different (adversarial) state machine — including per-recipient
//!   equivocation, since [`Context::send`] addresses one recipient at a time.
//! * **Delays** are sampled per message from a configurable [`DelayModel`];
//!   with a fixed seed the whole execution is reproducible bit-for-bit.
//! * **Causal step accounting**: every message carries a
//!   [`StepDepth`](dex_types::StepDepth) — one more than the deepest message
//!   its sender had consumed. This is the paper's communication-step measure:
//!   a decision triggered at depth 1 is a *one-step* decision, the Identical
//!   Broadcast costs two depths per IDB step, and so on.
//!
//! # Examples
//!
//! A two-process ping-pong, run to quiescence:
//!
//! ```
//! use dex_simnet::{Actor, Context, DelayModel, Simulation};
//! use dex_types::ProcessId;
//!
//! struct Ping { got: usize }
//!
//! impl Actor for Ping {
//!     type Msg = u32;
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
//!         if ctx.me() == ProcessId::new(0) {
//!             ctx.send(ProcessId::new(1), 7);
//!         }
//!     }
//!     fn on_message(&mut self, _from: ProcessId, msg: &u32, ctx: &mut Context<'_, u32>) {
//!         self.got += 1;
//!         if *msg > 0 && ctx.me() == ProcessId::new(1) {
//!             ctx.send(ProcessId::new(0), msg - 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::builder(vec![Ping { got: 0 }, Ping { got: 0 }])
//!     .seed(42)
//!     .delay(DelayModel::Constant(10))
//!     .build();
//! let outcome = sim.run(10_000);
//! assert!(outcome.quiescent);
//! assert_eq!(sim.actor(ProcessId::new(1)).got, 1);
//! ```
//!
//! Hostile schedules — timed partitions, lossy links, crash/recovery
//! windows — are injected with a [`FaultSchedule`] via
//! [`SimulationBuilder::faults`]; see the [`faults`](crate::faults) module
//! docs for semantics and the determinism argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod builder;
mod delay;
pub mod faults;
pub mod host;
mod queue;
mod sim;
mod slab;
mod stats;
mod time;

pub use actor::{Actor, Context, MsgClass, Recoverable};
pub use builder::SimulationBuilder;
pub use delay::DelayModel;
pub use dex_types::Dest;
pub use faults::{CrashMode, CrashWindow, FaultSchedule, LinkFault, Partition, Verdict};
pub use host::ActorHost;
pub use sim::{RunOutcome, Simulation, CHAOS_SALT};
pub use stats::NetStats;
pub use time::Time;
