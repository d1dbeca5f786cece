//! Fluent construction of a [`Simulation`].
//!
//! The builder is the only construction path: positional constructors do
//! not scale past two knobs, so every knob is named and defaulted instead:
//!
//! ```
//! use dex_simnet::{Actor, Context, DelayModel, FaultSchedule, Simulation};
//! use dex_types::ProcessId;
//!
//! struct Noop;
//! impl Actor for Noop {
//!     type Msg = u8;
//!     fn on_start(&mut self, _: &mut Context<'_, u8>) {}
//!     fn on_message(&mut self, _: ProcessId, _: &u8, _: &mut Context<'_, u8>) {}
//! }
//!
//! let sim = Simulation::builder(vec![Noop, Noop, Noop])
//!     .seed(42)
//!     .delay(DelayModel::Uniform { min: 1, max: 10 })
//!     .faults(FaultSchedule::new().partition([ProcessId::new(0)], 10, 80))
//!     .build();
//! assert_eq!(sim.n(), 3);
//! ```

use crate::actor::{Actor, Recoverable};
use crate::delay::DelayModel;
use crate::faults::FaultSchedule;
use crate::sim::{RestartHook, Simulation};

/// Builder for a [`Simulation`]; start one with
/// [`Simulation::builder`](Simulation::builder).
///
/// Defaults: seed `0`, the default [`DelayModel`] (uniform `[1, 10]`), no
/// fault schedule.
#[derive(Debug)]
pub struct SimulationBuilder<A: Actor> {
    actors: Vec<A>,
    seed: u64,
    delay: DelayModel,
    faults: FaultSchedule,
    depth_hint: usize,
    restart_hook: Option<RestartHook<A>>,
}

impl<A: Actor> SimulationBuilder<A> {
    pub(crate) fn new(actors: Vec<A>) -> Self {
        SimulationBuilder {
            actors,
            seed: 0,
            delay: DelayModel::default(),
            faults: FaultSchedule::none(),
            depth_hint: 0,
            restart_hook: None,
        }
    }

    /// Seed for all randomness (delays, actor RNG, and — salted — the
    /// chaos stream).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The link-delay model.
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Installs a fault schedule (partitions, lossy links, crash windows).
    /// An empty schedule is free: the built simulation is bit-identical to
    /// one without chaos.
    pub fn faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Arms the crash-recovery hook: when a
    /// [`CrashMode::Restart`](crate::CrashMode) window in the fault
    /// schedule recovers, the simulation calls
    /// [`Recoverable::restart`] on the victim so it rebuilds from
    /// persisted state (and its recovery sends enter the network at the
    /// recovery instant). Without this, restart windows only lose the
    /// in-window inbox.
    pub fn recoverable(mut self) -> Self
    where
        A: Recoverable,
    {
        self.restart_hook = Some(A::restart);
        self
    }

    /// Pre-reserves the per-depth statistics vector for runs expected to
    /// reach `depth_hint` causal steps (a capacity hint only — it never
    /// changes observable statistics).
    pub fn stats(mut self, depth_hint: usize) -> Self {
        self.depth_hint = depth_hint;
        self
    }

    /// Builds the simulation.
    ///
    /// # Panics
    ///
    /// Panics if no actors were supplied, or the fault schedule names a
    /// process outside `0..n`.
    pub fn build(self) -> Simulation<A> {
        Simulation::from_parts(
            self.actors,
            self.seed,
            self.delay,
            self.faults,
            self.depth_hint,
            self.restart_hook,
        )
    }
}
