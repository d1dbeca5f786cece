//! The actor abstraction and the per-delivery context handed to actors.

use crate::time::Time;
use dex_types::{Dest, ProcessId, StepDepth};
use rand::rngs::StdRng;

/// A process state machine driven by message deliveries.
///
/// Correct processes implement the protocol under test; Byzantine processes
/// are actors implementing an adversarial strategy (see the `dex-adversary`
/// crate). The simulator calls [`on_start`](Actor::on_start) exactly once per
/// actor before any delivery, then [`on_message`](Actor::on_message) for each
/// delivered message, in virtual-time order.
///
/// Messages are delivered **by reference**: a multicast keeps a single
/// shared payload in the simulator's slab (see DESIGN.md §10), so handlers
/// clone only the parts they store. Actors must be deterministic given the
/// context's seeded RNG; this is what makes whole simulations replayable
/// from a seed.
pub trait Actor {
    /// The message type exchanged by this system of actors.
    type Msg: Clone + core::fmt::Debug + Send + 'static;

    /// Called once at time zero, before any message is delivered. Initial
    /// sends from here carry causal depth 1 (the first communication step).
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Called for each delivered message. Sends from here carry depth
    /// `ctx.depth() + 1`.
    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, ctx: &mut Context<'_, Self::Msg>);

    /// The actor's structured-event recorder (see `dex-obs`), if it has an
    /// **active** one. The runtime uses this to stamp the virtual clock at
    /// each delivery boundary and to record message send/deliver events
    /// alongside the actor's own protocol events. The default (`None`)
    /// keeps uninstrumented actors and disabled recorders zero-cost.
    fn recorder_mut(&mut self) -> Option<&mut dex_obs::Recorder> {
        None
    }

    /// Estimated wire size of one message, in bytes — feeds the
    /// [`NetStats::bytes_on_wire`](crate::NetStats::bytes_on_wire)
    /// counter. The default is the payload's shallow in-memory size: a
    /// deterministic, allocation-free proxy that is exact for the `Copy`
    /// message types most protocols here use. Actors whose messages carry
    /// heap data (boxed batches, vectors) may override it with a deep
    /// measure; the simulator never relies on the value for scheduling,
    /// only for accounting.
    fn msg_bytes(msg: &Self::Msg) -> usize {
        core::mem::size_of_val(msg)
    }

    /// Classifies one message for the per-class
    /// [`NetStats`](crate::NetStats) breakdown (init/echo/batch/other). The
    /// default lumps everything under [`MsgClass::Other`], which keeps the
    /// aggregate counters exact for actors that never override it; protocol
    /// actors classify their wire enums so aggregation wins are
    /// attributable per class.
    fn msg_class(msg: &Self::Msg) -> MsgClass {
        let _ = msg;
        MsgClass::Other
    }
}

/// Coarse wire-message classes for [`NetStats`](crate::NetStats)
/// accounting (see [`Actor::msg_class`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgClass {
    /// A broadcast-opening message (IDB/RB `init`, proposals, votes).
    Init,
    /// A point-to-point or multicast echo sent individually.
    Echo,
    /// An aggregated echo batch carrying this many coalesced entries.
    Batch(u32),
    /// Anything else (UC traffic, catch-up, timers, client messages).
    Other,
}

/// An actor that survives a [`CrashMode::Restart`](crate::CrashMode)
/// crash by rebuilding from persisted state.
///
/// When a restart-mode crash window recovers, the runtime calls
/// [`restart`](Recoverable::restart) on the actor (its struct is reused as
/// the container for both volatile and durable state — the implementation
/// is responsible for wiping everything that would not have survived a real
/// crash and re-deriving it from whatever it persisted, e.g. a WAL plus
/// snapshot). Sends queued from the hook enter the network at the recovery
/// instant with causal depth 1, like `on_start` sends — a reboot starts a
/// fresh causal chain.
///
/// Install the hook with
/// [`SimulationBuilder::recoverable`](crate::SimulationBuilder::recoverable);
/// without it, restart windows only lose the in-window inbox and the actor
/// resumes with its volatile state untouched (amnesia of the network, not
/// of the process — usually *not* what a crash test wants).
pub trait Recoverable: Actor {
    /// Rebuild after a crash: drop volatile state, restore from durable
    /// state, and optionally send recovery traffic (e.g. catch-up
    /// requests).
    fn restart(&mut self, ctx: &mut Context<'_, Self::Msg>);
}

/// Everything an actor may observe and do while handling one delivery.
///
/// Outgoing messages are buffered as `(Dest, Msg)` pairs and dispatched by
/// the simulator after the handler returns, with per-message delays sampled
/// from the simulation's [`DelayModel`](crate::DelayModel). A
/// [`broadcast`](Self::broadcast) stays a single [`Dest::All`] entry — the
/// payload is never cloned per recipient on this path.
#[derive(Debug)]
pub struct Context<'a, M> {
    me: ProcessId,
    n: usize,
    now: Time,
    depth: StepDepth,
    rng: &'a mut StdRng,
    outbox: Vec<(Dest, M)>,
    /// Sends carrying an explicit causal depth (see
    /// [`send_dest_at`](Self::send_dest_at)). Kept separate from `outbox`
    /// so the default depth-`next()` path stays allocation- and
    /// branch-free.
    outbox_at: Vec<(Dest, M, StepDepth)>,
    timers: Vec<(u64, M)>,
    clones: u64,
}

impl<'a, M: Clone> Context<'a, M> {
    pub(crate) fn new(
        me: ProcessId,
        n: usize,
        now: Time,
        depth: StepDepth,
        rng: &'a mut StdRng,
    ) -> Self {
        Context::with_buffer(me, n, now, depth, rng, Vec::new())
    }

    /// Like `new`, but backs the outbox with a caller-provided buffer so the
    /// simulator can recycle one allocation across all deliveries.
    pub(crate) fn with_buffer(
        me: ProcessId,
        n: usize,
        now: Time,
        depth: StepDepth,
        rng: &'a mut StdRng,
        outbox: Vec<(Dest, M)>,
    ) -> Self {
        debug_assert!(outbox.is_empty());
        Context {
            me,
            n,
            now,
            depth,
            rng,
            outbox,
            outbox_at: Vec::new(),
            timers: Vec::new(),
            clones: 0,
        }
    }

    /// Builds a context for code that drives an [`Actor`] from outside
    /// this crate — today only actor *wrappers* that run an inner actor
    /// under a shadow context (`dex_core::Reliable`); the wall-clock
    /// runtimes go through [`ActorHost`](crate::ActorHost) instead. The
    /// caller supplies a coherent `(now, depth)` pair and forwards what
    /// the inner handler buffered via [`take_outbox`](Self::take_outbox)
    /// and [`take_timers`](Self::take_timers).
    pub fn external(
        me: ProcessId,
        n: usize,
        now: Time,
        depth: StepDepth,
        rng: &'a mut StdRng,
    ) -> Self {
        Context::new(me, n, now, depth, rng)
    }

    /// Drains the buffered sends, each with the causal depth it leaves
    /// at: plain sends at `self.depth().next()`, then the depth-stamped
    /// ones ([`send_dest_at`](Self::send_dest_at)) at their own depth — the
    /// order the simulator dispatches them in. A [`Dest::All`] entry is
    /// still unexpanded; whoever forwards it decides how to fan it out.
    pub fn take_outbox(&mut self) -> Vec<(Dest, M, StepDepth)> {
        let next = self.depth.next();
        let plain = self.outbox.drain(..).map(|(dest, msg)| (dest, msg, next));
        plain.chain(self.outbox_at.drain(..)).collect()
    }

    /// Drains the buffered `(delay, Msg)` timers armed with
    /// [`send_self_after`](Self::send_self_after).
    pub fn take_timers(&mut self) -> Vec<(u64, M)> {
        std::mem::take(&mut self.timers)
    }

    /// This actor's process id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The causal depth of the message being handled ([`StepDepth::ZERO`]
    /// inside [`Actor::on_start`]). Messages sent now will carry
    /// `self.depth().next()`.
    pub fn depth(&self) -> StepDepth {
        self.depth
    }

    /// Sends `msg` to a single process. Sending to oneself is allowed and
    /// goes through the network like any other message (the paper's
    /// broadcasts include the sender).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((Dest::To(to), msg));
    }

    /// Queues `msg` for an explicit destination — the passthrough used by
    /// actors that drain a protocol-level `Outbox` whose entries already
    /// carry a [`Dest`].
    pub fn send_dest(&mut self, dest: Dest, msg: M) {
        self.outbox.push((dest, msg));
    }

    /// Queues `msg` for `dest` carrying an **explicit** causal depth
    /// instead of the handler default `self.depth().next()`.
    ///
    /// This exists for the echo-aggregation flush, and for wrappers that
    /// forward an inner actor's [`take_outbox`](Self::take_outbox) at the
    /// depths it reports (`dex_core::Reliable`). A flush
    /// tick is a local timer, not a communication step, so the batches it
    /// emits must travel at the depth their unbatched echoes would have
    /// had — one batch per depth bucket (see
    /// `dex_broadcast::EchoAggregator`). The paper's step metric, the
    /// trace checker's exact step-scheme invariants, and the per-depth
    /// delivery stats all stay unperturbed. `depth` must be a depth this
    /// actor could legitimately have sent at, i.e. captured from a prior
    /// `ctx.depth().next()`; the simulator trusts it for accounting only
    /// and never for scheduling.
    pub fn send_dest_at(&mut self, dest: Dest, msg: M, depth: StepDepth) {
        self.outbox_at.push((dest, msg, depth));
    }

    /// Sends `msg` to **every** process, including this one. The message
    /// stays a single queued entry; the simulator shares one payload among
    /// all `n` deliveries, cloning nothing.
    pub fn broadcast(&mut self, msg: M) {
        self.outbox.push((Dest::All, msg));
    }

    /// Arms a deterministic timer: `msg` is delivered back to this actor
    /// exactly `delay` time units from now (`delay` must be positive).
    ///
    /// Timers are local, not network traffic: they bypass the delay model
    /// and link faults (no drop, duplication, or partition hold) and draw
    /// nothing from any RNG stream — a run without timers is bit-identical
    /// to one built before timers existed. They *are* subject to the
    /// actor's own crash windows: a silence window defers the tick to
    /// recovery, a restart or permanent crash loses it (a dead process has
    /// no pending timers). The delivered tick arrives via
    /// [`Actor::on_message`] with `from == me` and causal depth
    /// `self.depth().next()`, like any send from this handler.
    pub fn send_self_after(&mut self, delay: u64, msg: M) {
        assert!(delay > 0, "a timer needs a positive delay");
        self.timers.push((delay, msg));
    }

    /// Sends `msg` to every process except this one.
    ///
    /// This is a per-recipient expansion (it clones the payload `n − 1`
    /// times, counted in [`NetStats::payload_clones`](crate::NetStats)); the
    /// paper's protocols broadcast to everyone *including* the sender, so
    /// the hot paths use [`broadcast`](Self::broadcast) instead.
    pub fn broadcast_others(&mut self, msg: M) {
        for i in 0..self.n {
            if i != self.me.index() {
                self.outbox.push((Dest::To(ProcessId::new(i)), msg.clone()));
                self.clones += 1;
            }
        }
    }

    /// The deterministic per-simulation RNG (shared by all actors; use for
    /// randomized protocols such as coin flips).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Payload clones performed by this context so far (only
    /// [`broadcast_others`](Self::broadcast_others) clones).
    pub(crate) fn cloned(&self) -> u64 {
        self.clones
    }

    /// Decomposes into the buffered sends, depth-stamped sends, and armed
    /// timers.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(self) -> (Vec<(Dest, M)>, Vec<(Dest, M, StepDepth)>, Vec<(u64, M)>) {
        (self.outbox, self.outbox_at, self.timers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_buffers_sends() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx: Context<'_, u8> =
            Context::new(ProcessId::new(1), 3, Time::ZERO, StepDepth::ZERO, &mut rng);
        assert_eq!(ctx.me(), ProcessId::new(1));
        assert_eq!(ctx.n(), 3);
        ctx.send(ProcessId::new(0), 9);
        ctx.broadcast(7);
        ctx.broadcast_others(5);
        ctx.send_dest(Dest::All, 4);
        ctx.send_self_after(17, 3);
        ctx.send_dest_at(Dest::All, 6, StepDepth::new(2));
        assert_eq!(ctx.cloned(), 2, "only broadcast_others clones");
        let (out, out_at, timers) = ctx.into_parts();
        assert_eq!(timers, vec![(17, 3)]);
        // Depth-stamped sends travel in their own buffer.
        assert_eq!(out_at, vec![(Dest::All, 6, StepDepth::new(2))]);
        // send + one unexpanded broadcast + 2 expanded others + send_dest.
        assert_eq!(out.len(), 1 + 1 + 2 + 1);
        assert_eq!(out[0], (Dest::To(ProcessId::new(0)), 9));
        // broadcast stays a single Dest::All entry…
        assert_eq!(out[1], (Dest::All, 7));
        // …broadcast_others expands, skipping self.
        assert_eq!(out[2], (Dest::To(ProcessId::new(0)), 5));
        assert_eq!(out[3], (Dest::To(ProcessId::new(2)), 5));
        assert_eq!(out[4], (Dest::All, 4));
    }

    #[test]
    fn context_exposes_time_and_depth() {
        let mut rng = StdRng::seed_from_u64(0);
        let ctx: Context<'_, u8> = Context::new(
            ProcessId::new(0),
            1,
            Time::new(44),
            StepDepth::new(2),
            &mut rng,
        );
        assert_eq!(ctx.now(), Time::new(44));
        assert_eq!(ctx.depth(), StepDepth::new(2));
    }
}
