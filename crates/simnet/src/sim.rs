//! The discrete-event simulation engine.

use crate::actor::{Actor, Context, MsgClass};
use crate::builder::SimulationBuilder;
use crate::delay::DelayModel;
use crate::faults::{FaultSchedule, Verdict};
use crate::queue::EventQueue;
use crate::slab::PayloadSlab;
use crate::stats::NetStats;
use crate::time::Time;
use dex_types::{Dest, ProcessId, StepDepth};
use rand::rngs::StdRng;

/// Salt xored into the simulation seed for the chaos RNG, so fault
/// decisions never perturb the delay-model stream: a run with an empty
/// schedule is bit-identical to one built without chaos at all.
pub const CHAOS_SALT: u64 = 0xC4A0_5A1F_FA17_5EED;

/// A schedule boundary to surface as an observability event, ordered by
/// `(time, kind, subject)` for deterministic emission.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Boundary {
    PartitionOpen(u16),
    PartitionHeal(u16),
    Crash(ProcessId),
    Recover(ProcessId),
    /// Recovery of a [`CrashMode::Restart`](crate::CrashMode) window: emits
    /// the same `Recover` obs event, then reboots the actor through the
    /// [`Recoverable`](crate::Recoverable) hook when one is installed.
    Restart(ProcessId),
}

/// Chaos machinery, present only when the schedule is non-empty.
#[derive(Debug)]
struct ChaosState {
    schedule: FaultSchedule,
    /// Separate RNG stream for drop/dup decisions and duplicate jitter.
    rng: StdRng,
    /// Schedule boundaries sorted by time, emitted as obs events as
    /// virtual time passes them.
    boundaries: Vec<(u64, Boundary)>,
    next_boundary: usize,
}

impl ChaosState {
    fn new(schedule: FaultSchedule, seed: u64) -> Self {
        let mut boundaries: Vec<(u64, Boundary)> = Vec::new();
        for (i, p) in schedule.partitions().iter().enumerate() {
            boundaries.push((p.from, Boundary::PartitionOpen(i as u16)));
            boundaries.push((p.until, Boundary::PartitionHeal(i as u16)));
        }
        for c in schedule.crash_windows() {
            boundaries.push((c.from, Boundary::Crash(c.process)));
            if let Some(until) = c.until {
                boundaries.push((
                    until,
                    match c.mode {
                        crate::faults::CrashMode::Silence => Boundary::Recover(c.process),
                        crate::faults::CrashMode::Restart => Boundary::Restart(c.process),
                    },
                ));
            }
        }
        boundaries.sort_unstable();
        ChaosState {
            schedule,
            rng: StdRng::seed_from_u64(seed ^ CHAOS_SALT),
            boundaries,
            next_boundary: 0,
        }
    }
}

/// Result of running a simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunOutcome {
    /// Number of messages delivered during this run call.
    pub delivered: u64,
    /// `true` when the network drained completely; `false` when the event
    /// cap was hit first (e.g. a livelocked protocol).
    pub quiescent: bool,
    /// Virtual time at the end of the run.
    pub ended_at: Time,
}

/// A deterministic discrete-event simulation of `n` actors exchanging
/// messages over reliable asynchronous links.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Simulation<A: Actor> {
    actors: Vec<A>,
    /// Pending deliveries as 8-byte `(slab slot, recipient)` entries, one
    /// FIFO bucket per pending instant: instants within 64 ticks of the
    /// latest delivery in a ring found through one occupancy word, later
    /// ones in an ordered map (see [`EventQueue`]). Pop order is
    /// `(deliver_at, scheduling order)` — what a heap keyed by `deliver_at`
    /// and a monotone tie-breaking counter yields, at a cost that does not
    /// grow with the number of pending deliveries.
    queue: EventQueue,
    /// In-flight payload storage; a `Dest::All` multicast holds one slot
    /// shared (refcounted) by all `n` deliveries.
    slab: PayloadSlab<A::Msg>,
    now: Time,
    rng: StdRng,
    delay: DelayModel,
    stats: NetStats,
    /// Fault-injection state; `None` for an empty schedule, keeping the
    /// chaos-free hot path branch-cheap and byte-identical to older builds.
    chaos: Option<ChaosState>,
    started: bool,
    /// Recycled outbox buffer handed to each delivery's [`Context`], so the
    /// per-message hot path allocates nothing in the steady state.
    scratch: Vec<(Dest, A::Msg)>,
    /// Reboot hook for [`CrashMode::Restart`](crate::CrashMode) recoveries,
    /// installed via
    /// [`SimulationBuilder::recoverable`](crate::SimulationBuilder::recoverable).
    restart_hook: Option<RestartHook<A>>,
}

/// Signature of the reboot hook a [`CrashMode::Restart`](crate::CrashMode)
/// recovery invokes on the wiped actor: installed by
/// [`SimulationBuilder::recoverable`](crate::SimulationBuilder::recoverable),
/// it is the actor's `Recoverable::restart` taken as a plain fn pointer.
pub(crate) type RestartHook<A> = fn(&mut A, &mut Context<'_, <A as Actor>::Msg>);

/// What [`Simulation::wake`] runs on an actor: a payload-free hook
/// (`on_start`, or the reboot hook) or the delivery of a slab slot, which
/// is released once the handler returns.
enum Wake<A: Actor> {
    Hook(RestartHook<A>),
    Message { from: ProcessId, slot: u32 },
}

impl<A: Actor> Simulation<A> {
    /// Starts a [`SimulationBuilder`] over the given actors (actor `i` is
    /// process `p_i`). This is the construction entry point; see the
    /// builder for the available knobs (seed, delay model, fault schedule,
    /// crash recovery, statistics capacity).
    pub fn builder(actors: Vec<A>) -> SimulationBuilder<A> {
        SimulationBuilder::new(actors)
    }

    /// Assembles a simulation from the builder's parts.
    ///
    /// # Panics
    ///
    /// Panics if `actors` is empty or `faults` names a process outside
    /// `0..n`.
    pub(crate) fn from_parts(
        actors: Vec<A>,
        seed: u64,
        delay: DelayModel,
        faults: FaultSchedule,
        depth_hint: usize,
        restart_hook: Option<RestartHook<A>>,
    ) -> Self {
        assert!(!actors.is_empty(), "need at least one actor");
        faults.validate(actors.len());
        let chaos = (!faults.is_empty()).then(|| ChaosState::new(faults, seed));
        let mut stats = NetStats::default();
        stats.per_depth.reserve(depth_hint);
        Simulation {
            actors,
            queue: EventQueue::default(),
            slab: PayloadSlab::new(),
            now: Time::ZERO,
            rng: StdRng::seed_from_u64(seed),
            delay,
            stats,
            chaos,
            started: false,
            scratch: Vec::new(),
            restart_hook,
        }
    }

    /// The fault schedule driving this simulation, when one was installed.
    pub fn faults(&self) -> Option<&FaultSchedule> {
        self.chaos.as_ref().map(|c| &c.schedule)
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.actors.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Network statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Borrows an actor's state (e.g. to read its decision after the run).
    pub fn actor(&self, id: ProcessId) -> &A {
        &self.actors[id.index()]
    }

    /// Borrows all actors.
    pub fn actors(&self) -> &[A] {
        &self.actors
    }

    /// Enqueues one delivery of the payload in `slot`, sampling its link
    /// delay. For a `Dest::All` multicast this is called for `to = 0..n` in
    /// ascending order — exactly the order the old eager per-recipient
    /// expansion produced — so the RNG stream, the queue's FIFO order within
    /// each instant and thus the whole virtual-time schedule are unchanged
    /// by the slab fast path.
    fn schedule(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        depth: StepDepth,
        slot: u32,
        class: MsgClass,
        bytes: u64,
    ) {
        // The link delay is always drawn first, from the main RNG: chaos
        // decisions use their own stream, so the delay schedule of messages
        // untouched by faults is identical with and without a schedule.
        let delay = self.delay.sample(&mut self.rng, from, to);
        let mut deliver_at = self.now + delay;
        self.stats.record_send(depth, class);
        self.stats.bytes_on_wire += bytes;
        if let Some(rec) = self.actors[from.index()].recorder_mut() {
            rec.record_at(
                self.now.as_units(),
                depth.get(),
                dex_obs::EventKind::Send {
                    to: to.index() as u16,
                },
            );
        }
        // Route the delivery through the fault schedule; the decision
        // order and its draws live in `FaultSchedule::verdict`.
        let mut duplicate_at = None;
        if let Some(chaos) = self.chaos.as_mut() {
            let send_at = self.now.as_units();
            match chaos
                .schedule
                .verdict(&mut chaos.rng, from, to, send_at, delay)
            {
                Verdict::Drop { held_partition } => {
                    self.stats.held_partition += u64::from(held_partition);
                    self.drop_message(from, to, depth, slot);
                    return;
                }
                Verdict::Deliver {
                    at,
                    held_partition,
                    held_crash,
                    dup_at,
                } => {
                    // A held message still travels: a long-but-finite
                    // delay, exactly what asynchrony allows.
                    deliver_at = Time::new(at);
                    self.stats.held_partition += u64::from(held_partition);
                    self.stats.held_crash += u64::from(held_crash);
                    duplicate_at = dup_at.map(Time::new);
                }
            }
        }
        self.queue.push(deliver_at, slot, to);
        if let Some(dup_at) = duplicate_at {
            self.duplicate_message(from, to, depth, slot, dup_at);
        }
    }

    /// Destroys a scheduled delivery: the send already happened (and was
    /// recorded), the network loses the message.
    fn drop_message(&mut self, from: ProcessId, to: ProcessId, depth: StepDepth, slot: u32) {
        self.stats.dropped += 1;
        if let Some(rec) = self.actors[from.index()].recorder_mut() {
            rec.record_at(
                self.now.as_units(),
                depth.get(),
                dex_obs::EventKind::LinkDrop {
                    to: to.index() as u16,
                },
            );
        }
        self.slab.release(slot);
    }

    /// Enqueues a second delivery of `slot` at `dup_at`, sharing the
    /// original payload (no clone). The duplicate is itself subject to the
    /// recipient's crash windows.
    fn duplicate_message(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        depth: StepDepth,
        slot: u32,
        dup_at: Time,
    ) {
        let chaos = self.chaos.as_mut().expect("duplication implies chaos");
        let deliver_at = match chaos.schedule.crash_hold(to, dup_at.as_units()) {
            Some(Some(recovery)) => {
                self.stats.held_crash += 1;
                Time::new(recovery)
            }
            Some(None) => return, // recipient never recovers: dup is moot
            None => dup_at,
        };
        self.stats.duplicated += 1;
        if let Some(rec) = self.actors[from.index()].recorder_mut() {
            rec.record_at(
                self.now.as_units(),
                depth.get(),
                dex_obs::EventKind::LinkDup {
                    to: to.index() as u16,
                },
            );
        }
        self.slab.retain(slot);
        self.queue.push(deliver_at, slot, to);
    }

    /// The instant of the next unprocessed schedule boundary, if any.
    fn next_boundary_at(&self) -> Option<u64> {
        let chaos = self.chaos.as_ref()?;
        chaos.boundaries.get(chaos.next_boundary).map(|&(at, _)| at)
    }

    /// Processes exactly one schedule boundary (partition open/heal,
    /// crash/recover/restart): emits its obs event, stamped with its own
    /// instant, and — for a restart recovery — reboots the victim through
    /// the installed [`Recoverable`](crate::Recoverable) hook. Crash
    /// transitions land on the victim's recorder; partition transitions on
    /// every process (the network state changed for all).
    fn process_next_boundary(&mut self) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        let Some(&(at, boundary)) = chaos.boundaries.get(chaos.next_boundary) else {
            return;
        };
        chaos.next_boundary += 1;
        match boundary {
            Boundary::Crash(p) => {
                if let Some(rec) = self.actors[p.index()].recorder_mut() {
                    rec.record_at(at, 0, dex_obs::EventKind::Crash);
                }
            }
            Boundary::Recover(p) => {
                if let Some(rec) = self.actors[p.index()].recorder_mut() {
                    rec.record_at(at, 0, dex_obs::EventKind::Recover);
                }
            }
            Boundary::Restart(p) => {
                if let Some(rec) = self.actors[p.index()].recorder_mut() {
                    rec.record_at(at, 0, dex_obs::EventKind::Recover);
                }
                self.restart_actor(p, at);
            }
            Boundary::PartitionOpen(id) => {
                for actor in &mut self.actors {
                    if let Some(rec) = actor.recorder_mut() {
                        rec.record_at(at, 0, dex_obs::EventKind::PartitionOpen { id });
                    }
                }
            }
            Boundary::PartitionHeal(id) => {
                for actor in &mut self.actors {
                    if let Some(rec) = actor.recorder_mut() {
                        rec.record_at(at, 0, dex_obs::EventKind::PartitionHeal { id });
                    }
                }
            }
        }
    }

    /// Reboots `p` at the recovery instant `at` of a restart-mode crash
    /// window: virtual time advances to the reboot, the hook rebuilds the
    /// actor from persisted state, and its recovery sends and timers enter
    /// the network there with causal depth 1 (a reboot starts a fresh
    /// causal chain, like `on_start`).
    fn restart_actor(&mut self, p: ProcessId, at: u64) {
        let Some(hook) = self.restart_hook else {
            return;
        };
        self.now = self.now.max(Time::new(at));
        if let Some(rec) = self.actors[p.index()].recorder_mut() {
            rec.set_clock(self.now.as_units(), 0);
        }
        self.wake(p, StepDepth::ZERO, Wake::Hook(hook));
    }

    /// Runs one handler of actor `me` at causal depth `depth` and puts what
    /// it produced on the network one depth further: plain sends, then
    /// depth-stamped sends, then timers — the order every draw from the
    /// shared RNG depends on. The outbox buffer is lent to the [`Context`]
    /// and taken back, so the hot path allocates nothing.
    fn wake(&mut self, me: ProcessId, depth: StepDepth, wake: Wake<A>) {
        let n = self.actors.len();
        let buf = std::mem::take(&mut self.scratch);
        let mut ctx = Context::with_buffer(me, n, self.now, depth, &mut self.rng, buf);
        let actor = &mut self.actors[me.index()];
        let delivered = match wake {
            Wake::Hook(hook) => {
                hook(actor, &mut ctx);
                None
            }
            Wake::Message { from, slot } => {
                actor.on_message(from, self.slab.payload(slot), &mut ctx);
                Some(slot)
            }
        };
        self.stats.payload_clones += ctx.cloned();
        let (mut outbox, mut outbox_at, mut timers) = ctx.into_parts();
        if let Some(slot) = delivered {
            self.slab.release(slot);
        }
        // Most handlers fill one buffer or none; an empty one would only
        // cost a drain, since dispatching nothing draws and records nothing.
        if !outbox.is_empty() {
            self.dispatch(me, &mut outbox, depth.next());
        }
        if !outbox_at.is_empty() {
            self.dispatch_at(me, &mut outbox_at);
        }
        if !timers.is_empty() {
            self.dispatch_timers(me, &mut timers, depth.next());
        }
        self.scratch = outbox;
    }

    /// Enqueues the timers an actor armed via
    /// [`Context::send_self_after`]: exact-delay self-deliveries that
    /// bypass the delay model and link faults (drawing nothing from any RNG
    /// stream) but respect the actor's own crash windows — a silence window
    /// defers the tick to recovery, a restart or permanent crash loses it.
    fn dispatch_timers(
        &mut self,
        me: ProcessId,
        timers: &mut Vec<(u64, A::Msg)>,
        depth: StepDepth,
    ) {
        for (delay, payload) in timers.drain(..) {
            let slot = self.slab.insert(payload, me, depth, 1);
            let mut deliver_at = self.now + delay;
            self.stats
                .record_send(depth, A::msg_class(self.slab.payload(slot)));
            if let Some(rec) = self.actors[me.index()].recorder_mut() {
                rec.record_at(
                    self.now.as_units(),
                    depth.get(),
                    dex_obs::EventKind::Send {
                        to: me.index() as u16,
                    },
                );
            }
            if let Some(chaos) = self.chaos.as_mut() {
                match chaos.schedule.crash_hold(me, deliver_at.as_units()) {
                    Some(Some(recovery)) => {
                        deliver_at = Time::new(recovery);
                        self.stats.held_crash += 1;
                    }
                    Some(None) => {
                        self.drop_message(me, me, depth, slot);
                        continue;
                    }
                    None => {}
                }
            }
            self.queue.push(deliver_at, slot, me);
        }
    }

    fn dispatch(&mut self, from: ProcessId, outbox: &mut Vec<(Dest, A::Msg)>, depth: StepDepth) {
        let n = self.actors.len();
        for (dest, payload) in outbox.drain(..) {
            self.dispatch_one(from, dest, payload, depth, n);
        }
    }

    /// Dispatches depth-stamped sends queued via
    /// [`Context::send_dest_at`]: each entry travels at its own explicit
    /// causal depth instead of the handler default. Used by the
    /// echo-aggregation flush, whose batches must arrive at the depth
    /// their unbatched echoes would have had.
    fn dispatch_at(&mut self, from: ProcessId, outbox_at: &mut Vec<(Dest, A::Msg, StepDepth)>) {
        let n = self.actors.len();
        for (dest, payload, depth) in outbox_at.drain(..) {
            self.dispatch_one(from, dest, payload, depth, n);
        }
    }

    fn dispatch_one(
        &mut self,
        from: ProcessId,
        dest: Dest,
        payload: A::Msg,
        depth: StepDepth,
        n: usize,
    ) {
        // Class and size are computed once per dispatched message and
        // passed down: for a `Dest::All` multicast `schedule` runs n times,
        // and re-deriving them per recipient would put a payload walk on
        // the delivery fast path. Echo entries carried inside a batch are
        // likewise counted once, like `multicasts` — not per recipient.
        let class = A::msg_class(&payload);
        let bytes = A::msg_bytes(&payload) as u64;
        if let MsgClass::Batch(entries) = class {
            self.stats.echoes_batched += entries as u64;
        }
        match dest {
            Dest::To(to) => {
                let slot = self.slab.insert(payload, from, depth, 1);
                self.schedule(from, to, depth, slot, class, bytes);
            }
            Dest::All => {
                // One shared payload, n pending deliveries, zero clones.
                self.stats.multicasts += 1;
                let slot = self.slab.insert(payload, from, depth, n as u32);
                for i in 0..n {
                    self.schedule(from, ProcessId::new(i), depth, slot, class, bytes);
                }
            }
        }
    }

    /// Runs `on_start` on every actor (idempotent; also called implicitly by
    /// [`run`](Self::run) / [`step`](Self::step)).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            self.wake(ProcessId::new(i), StepDepth::ZERO, Wake::Hook(A::on_start));
        }
    }

    /// Delivers the next queued message, advancing virtual time. Returns the
    /// `(from, to, depth)` of the delivered message, or `None` when the
    /// network is quiescent.
    pub fn step(&mut self) -> Option<(ProcessId, ProcessId, StepDepth)> {
        self.start();
        // Interleave schedule boundaries with deliveries in time order: a
        // boundary at `t` fires before a delivery at `t` (matching the old
        // flush order), and a restart hook may wake a quiescent network —
        // its recovery sends become new deliveries, so re-examine the queue
        // after every boundary.
        while let Some(boundary) = self.next_boundary_at() {
            if self
                .queue
                .next_at()
                .is_some_and(|d| boundary > d.as_units())
            {
                break;
            }
            self.process_next_boundary();
        }
        let (deliver_at, slot, to) = self.queue.pop()?;
        self.now = deliver_at;
        let (from, depth) = self.slab.meta(slot);
        self.stats.record_delivery(depth);
        if let Some(rec) = self.actors[to.index()].recorder_mut() {
            // Stamp the recipient's clock so protocol events recorded inside
            // the handler carry the delivery's virtual time and causal depth.
            rec.set_clock(self.now.as_units(), depth.get());
            rec.record(dex_obs::EventKind::Deliver {
                from: from.index() as u16,
            });
        }
        self.wake(to, depth, Wake::Message { from, slot });
        Some((from, to, depth))
    }

    /// Runs until the network drains or `max_events` deliveries have
    /// happened, whichever comes first.
    pub fn run(&mut self, max_events: u64) -> RunOutcome {
        let mut delivered = 0;
        while delivered < max_events {
            if self.step().is_none() {
                return RunOutcome {
                    delivered,
                    quiescent: true,
                    ended_at: self.now,
                };
            }
            delivered += 1;
        }
        RunOutcome {
            delivered,
            quiescent: self.queue.is_empty(),
            ended_at: self.now,
        }
    }

    /// Runs until `stop(actors)` returns `true`, the network drains, or
    /// `max_events` deliveries have happened. Returns the outcome; check
    /// `stop` again afterwards to distinguish success from exhaustion.
    pub fn run_until<F>(&mut self, max_events: u64, mut stop: F) -> RunOutcome
    where
        F: FnMut(&[A]) -> bool,
    {
        self.start();
        let mut delivered = 0;
        while delivered < max_events && !stop(&self.actors) {
            if self.step().is_none() {
                return RunOutcome {
                    delivered,
                    quiescent: true,
                    ended_at: self.now,
                };
            }
            delivered += 1;
        }
        RunOutcome {
            delivered,
            quiescent: self.queue.is_empty(),
            ended_at: self.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One delivery as its recipient saw it: `(now, from, depth, payload)`.
    type Delivery = (Time, ProcessId, StepDepth, u32);

    /// Echoes every received message back `count` times, decrementing, and
    /// logs every delivery.
    struct Echo {
        received: Vec<Delivery>,
    }

    impl Actor for Echo {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.me() == ProcessId::new(0) {
                ctx.broadcast_others(2);
            }
        }

        fn on_message(&mut self, from: ProcessId, msg: &u32, ctx: &mut Context<'_, u32>) {
            self.received.push((ctx.now(), from, ctx.depth(), *msg));
            if *msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
    }

    fn echo_sim(n: usize, seed: u64) -> Simulation<Echo> {
        Simulation::builder(
            (0..n)
                .map(|_| Echo {
                    received: Vec::new(),
                })
                .collect(),
        )
        .seed(seed)
        .delay(DelayModel::Uniform { min: 1, max: 10 })
        .build()
    }

    #[test]
    fn runs_to_quiescence() {
        let mut sim = echo_sim(3, 1);
        let out = sim.run(1_000);
        assert!(out.quiescent);
        // p0 broadcasts 2 to p1,p2; each replies 1; p0 replies 0 to each; done.
        // Total deliveries: 2 + 2 + 2 = 6.
        assert_eq!(out.delivered, 6);
        assert_eq!(sim.stats().delivered, 6);
    }

    #[test]
    fn causal_depth_increases_along_chains() {
        let mut sim = echo_sim(2, 3);
        sim.run(1_000);
        let p0 = sim.actor(ProcessId::new(0));
        let p1 = sim.actor(ProcessId::new(1));
        // p1 got the initial 2 at depth 1 and the follow-up 0 at depth 3.
        assert_eq!(p1.received[0].2, StepDepth::new(1));
        assert_eq!(p1.received[1].2, StepDepth::new(3));
        // p0 got the reply 1 at depth 2.
        assert_eq!(p0.received[0].2, StepDepth::new(2));
        // Deepest message actually sent is the final 0-reply at depth 3.
        assert_eq!(sim.stats().max_depth, StepDepth::new(3));
    }

    #[test]
    fn event_cap_stops_runaway() {
        /// Two actors ping forever.
        struct Forever;
        impl Actor for Forever {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.broadcast_others(());
            }
            fn on_message(&mut self, from: ProcessId, _: &(), ctx: &mut Context<'_, ()>) {
                ctx.send(from, ());
            }
        }
        let mut sim = Simulation::builder(vec![Forever, Forever])
            .delay(DelayModel::Constant(1))
            .build();
        let out = sim.run(100);
        assert_eq!(out.delivered, 100);
        assert!(!out.quiescent);
    }

    /// Every actor's delivery log, by recipient: the whole schedule as the
    /// processes observed it.
    fn delivery_log(sim: &Simulation<Echo>) -> Vec<Vec<Delivery>> {
        sim.actors().iter().map(|a| a.received.clone()).collect()
    }

    #[test]
    fn identical_seeds_produce_identical_delivery_logs() {
        let log = |seed: u64| {
            let mut sim = echo_sim(4, seed);
            sim.run(10_000);
            delivery_log(&sim)
        };
        assert_eq!(log(77), log(77));
        assert_ne!(log(77), log(78));
    }

    #[test]
    fn run_until_stops_at_predicate() {
        let mut sim = echo_sim(3, 5);
        let out = sim.run_until(1_000, |actors| {
            actors.iter().map(|a| a.received.len()).sum::<usize>() >= 2
        });
        assert!(out.delivered <= 6);
        let total: usize = sim.actors().iter().map(|a| a.received.len()).sum();
        assert!(total >= 2);
    }

    #[test]
    fn virtual_time_is_monotone() {
        let mut sim = echo_sim(3, 9);
        sim.start();
        let mut last = Time::ZERO;
        while sim.step().is_some() {
            assert!(sim.now() >= last);
            last = sim.now();
        }
    }

    #[test]
    fn self_messages_are_delivered() {
        struct SelfSend {
            got: bool,
        }
        impl Actor for SelfSend {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                let me = ctx.me();
                ctx.send(me, ());
            }
            fn on_message(&mut self, from: ProcessId, _: &(), ctx: &mut Context<'_, ()>) {
                assert_eq!(from, ctx.me());
                self.got = true;
            }
        }
        let mut sim = Simulation::builder(vec![SelfSend { got: false }])
            .delay(DelayModel::Constant(1))
            .build();
        sim.run(10);
        assert!(sim.actor(ProcessId::new(0)).got);
    }

    /// A payload whose clones are observable, for the zero-clone assertions.
    #[derive(Debug)]
    struct CountedPayload(std::sync::Arc<std::sync::atomic::AtomicU64>);
    impl Clone for CountedPayload {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            CountedPayload(self.0.clone())
        }
    }

    struct Gossip {
        counter: std::sync::Arc<std::sync::atomic::AtomicU64>,
        rounds: u32,
        got: u32,
    }
    impl Actor for Gossip {
        type Msg = (u32, CountedPayload);
        fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
            if ctx.me() == ProcessId::new(0) {
                ctx.broadcast((self.rounds, CountedPayload(self.counter.clone())));
            }
        }
        fn on_message(
            &mut self,
            _from: ProcessId,
            msg: &Self::Msg,
            ctx: &mut Context<'_, Self::Msg>,
        ) {
            self.got += 1;
            if msg.0 > 0 {
                ctx.broadcast((msg.0 - 1, CountedPayload(self.counter.clone())));
            }
        }
    }

    #[test]
    fn multicast_payloads_are_never_cloned_by_the_network() {
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let n = 5;
        let mut sim = Simulation::builder(
            (0..n)
                .map(|_| Gossip {
                    counter: counter.clone(),
                    rounds: 2,
                    got: 0,
                })
                .collect(),
        )
        .seed(3)
        .delay(DelayModel::Uniform { min: 1, max: 4 })
        .build();
        let out = sim.run(1_000_000);
        assert!(out.quiescent);
        // Every broadcast reached all n processes…
        assert_eq!(sim.stats().delivered, sim.stats().multicasts * n as u64);
        assert!(sim.stats().multicasts > 1);
        // …and neither the actors nor the network ever cloned a payload.
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(sim.stats().payload_clones, 0);
    }

    fn echo_sim_with(n: usize, seed: u64, faults: FaultSchedule) -> Simulation<Echo> {
        Simulation::builder(
            (0..n)
                .map(|_| Echo {
                    received: Vec::new(),
                })
                .collect(),
        )
        .seed(seed)
        .delay(DelayModel::Uniform { min: 1, max: 10 })
        .faults(faults)
        .build()
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_no_schedule() {
        let log = |faults: Option<FaultSchedule>| {
            let mut sim = match faults {
                Some(f) => echo_sim_with(4, 77, f),
                None => echo_sim(4, 77),
            };
            sim.run(10_000);
            (delivery_log(&sim), sim.stats().clone())
        };
        assert_eq!(log(None), log(Some(FaultSchedule::none())));
    }

    #[test]
    fn untouched_messages_keep_their_schedule_under_chaos() {
        // A schedule whose windows all open long after quiescence must not
        // perturb a single delivery: chaos randomness lives on its own
        // stream and windowed faults match nothing here.
        let chaos = FaultSchedule::new()
            .partition([ProcessId::new(0)], 1_000_000, 2_000_000)
            .crash(ProcessId::new(1), 1_000_000, 1_500_000)
            .lossy_link_during(None, None, 0.9, 0.9, 1_000_000, 2_000_000);
        let log = |faults: Option<FaultSchedule>| {
            let mut sim = match faults {
                Some(f) => echo_sim_with(4, 99, f),
                None => echo_sim(4, 99),
            };
            sim.run(10_000);
            delivery_log(&sim)
        };
        assert_eq!(log(None), log(Some(chaos)));
    }

    #[test]
    fn certain_drop_loses_every_message() {
        let mut sim = echo_sim_with(3, 5, FaultSchedule::new().lossy_link(None, None, 1.0, 0.0));
        let out = sim.run(10_000);
        assert!(out.quiescent);
        assert_eq!(out.delivered, 0, "every delivery was dropped");
        assert_eq!(sim.stats().dropped, sim.stats().sent);
        assert!(sim.stats().sent > 0);
    }

    #[test]
    fn certain_dup_doubles_every_delivery() {
        let mut sim = echo_sim_with(3, 5, FaultSchedule::new().dup_all(1.0));
        let out = sim.run(100_000);
        assert!(out.quiescent);
        assert_eq!(sim.stats().duplicated, sim.stats().sent);
        assert_eq!(sim.stats().delivered, sim.stats().sent * 2);
    }

    #[test]
    fn partition_defers_cross_cut_deliveries_past_the_heal() {
        // p0 broadcasts at t=0; the cut {p0} vs {p1, p2} is open over
        // [0, 500), so nothing crosses it before t=500 — but everything
        // still arrives (held, not lost).
        let mut sim = echo_sim_with(
            3,
            1,
            FaultSchedule::new().partition([ProcessId::new(0)], 0, 500),
        );
        sim.start();
        while let Some((from, to, _)) = sim.step() {
            if from != to && (from == ProcessId::new(0)) != (to == ProcessId::new(0)) {
                assert!(
                    sim.now().as_units() > 500,
                    "cross-cut delivery at {} during the partition",
                    sim.now()
                );
            }
        }
        assert_eq!(sim.stats().dropped, 0);
        assert_eq!(sim.stats().delivered, 6, "same traffic as the clean run");
        assert!(sim.stats().held_partition > 0);
    }

    #[test]
    fn crash_window_defers_deliveries_to_recovery() {
        let victim = ProcessId::new(1);
        let mut sim = echo_sim_with(3, 1, FaultSchedule::new().crash(victim, 1, 800));
        sim.start();
        while let Some((_, to, _)) = sim.step() {
            if to == victim {
                assert!(
                    sim.now().as_units() >= 800,
                    "delivery to the crashed process at {}",
                    sim.now()
                );
            }
        }
        assert!(sim.stats().held_crash > 0);
        assert_eq!(sim.stats().dropped, 0);
    }

    #[test]
    fn permanent_crash_drops_inbound_traffic() {
        let victim = ProcessId::new(1);
        let mut sim = echo_sim_with(3, 1, FaultSchedule::new().crash_forever(victim, 1));
        let out = sim.run(10_000);
        assert!(out.quiescent);
        assert!(sim.actor(victim).received.is_empty());
        assert!(sim.stats().dropped > 0);
    }

    #[test]
    fn chaos_runs_replay_bit_for_bit() {
        let chaos = || {
            FaultSchedule::new()
                .partition([ProcessId::new(0), ProcessId::new(1)], 3, 40)
                .crash(ProcessId::new(2), 2, 30)
                .lossy_link(None, None, 0.3, 0.3)
        };
        let log = |seed: u64| {
            let mut sim = echo_sim_with(5, seed, chaos());
            sim.run(100_000);
            (delivery_log(&sim), sim.stats().clone())
        };
        assert_eq!(log(11), log(11));
        assert_ne!(log(11).0, log(12).0);
    }

    #[test]
    fn duplicated_multicast_payloads_are_shared_not_cloned() {
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let n = 5;
        let mut sim = Simulation::builder(
            (0..n)
                .map(|_| Gossip {
                    counter: counter.clone(),
                    rounds: 2,
                    got: 0,
                })
                .collect::<Vec<_>>(),
        )
        .seed(3)
        .delay(DelayModel::Uniform { min: 1, max: 4 })
        .faults(FaultSchedule::new().dup_all(0.5))
        .build();
        let out = sim.run(1_000_000);
        assert!(out.quiescent);
        assert!(sim.stats().duplicated > 0);
        // Duplicates retain the slab slot; the network still never clones.
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(sim.stats().payload_clones, 0);
        assert_eq!(sim.slab.live(), 0, "all slots released despite dups");
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn builder_rejects_schedules_naming_unknown_processes() {
        let _ = echo_sim_with(2, 0, FaultSchedule::new().crash(ProcessId::new(7), 1, 2));
    }

    /// Mirrors every delivery to a durable "disk"; restart wipes the
    /// volatile copy, reloads from disk, and announces itself.
    struct Persistent {
        volatile: Vec<u32>,
        disk: Vec<u32>,
        restarts: u32,
    }

    impl Actor for Persistent {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.me() == ProcessId::new(0) {
                ctx.broadcast_others(7);
            }
        }
        fn on_message(&mut self, _from: ProcessId, msg: &u32, _ctx: &mut Context<'_, u32>) {
            self.volatile.push(*msg);
            self.disk.push(*msg);
        }
    }

    impl crate::actor::Recoverable for Persistent {
        fn restart(&mut self, ctx: &mut Context<'_, u32>) {
            self.restarts += 1;
            self.volatile = self.disk.clone();
            ctx.broadcast_others(99);
        }
    }

    fn persistent_sim(n: usize, faults: FaultSchedule) -> Simulation<Persistent> {
        Simulation::builder(
            (0..n)
                .map(|_| Persistent {
                    volatile: Vec::new(),
                    disk: Vec::new(),
                    restarts: 0,
                })
                .collect(),
        )
        .seed(1)
        .delay(DelayModel::Uniform { min: 1, max: 10 })
        .faults(faults)
        .recoverable()
        .build()
    }

    #[test]
    fn restart_loses_the_window_and_invokes_the_reboot_hook() {
        let victim = ProcessId::new(1);
        let mut sim = persistent_sim(3, FaultSchedule::new().crash_restart(victim, 1, 500));
        let out = sim.run(10_000);
        assert!(out.quiescent);
        // The initial broadcast landed inside the window: genuinely lost.
        assert!(sim.stats().dropped > 0);
        assert!(sim.actor(victim).disk.is_empty());
        // The hook ran once, at the recovery instant, and its recovery
        // broadcast reached the other processes.
        assert_eq!(sim.actor(victim).restarts, 1);
        for other in [ProcessId::new(0), ProcessId::new(2)] {
            assert_eq!(sim.actor(other).restarts, 0);
            assert!(sim.actor(other).disk.contains(&99));
        }
    }

    #[test]
    fn restart_recovery_traffic_wakes_a_quiescent_network() {
        // All pre-crash traffic drains long before the recovery instant:
        // the queue is empty when the boundary fires, yet the run must
        // continue and deliver the hook's sends.
        let victim = ProcessId::new(1);
        let mut sim = persistent_sim(3, FaultSchedule::new().crash_restart(victim, 1, 100_000));
        let out = sim.run(10_000);
        assert!(out.quiescent);
        assert_eq!(sim.actor(victim).restarts, 1);
        assert!(sim.actor(ProcessId::new(0)).disk.contains(&99));
        assert!(out.ended_at.as_units() > 100_000, "delivered after reboot");
    }

    #[test]
    fn without_the_hook_restart_windows_only_lose_traffic() {
        let victim = ProcessId::new(1);
        let mut sim = {
            let actors = (0..3)
                .map(|_| Persistent {
                    volatile: Vec::new(),
                    disk: Vec::new(),
                    restarts: 0,
                })
                .collect();
            Simulation::builder(actors)
                .seed(1)
                .delay(DelayModel::Uniform { min: 1, max: 10 })
                .faults(FaultSchedule::new().crash_restart(victim, 1, 500))
                .build()
        };
        let out = sim.run(10_000);
        assert!(out.quiescent);
        assert_eq!(sim.actor(victim).restarts, 0, "no hook, no reboot");
        assert!(sim.stats().dropped > 0);
    }

    /// Arms a chain of exact-delay self-timers.
    struct TickTock {
        ticks: Vec<(u64, ProcessId)>,
    }
    impl Actor for TickTock {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.send_self_after(25, 1);
        }
        fn on_message(&mut self, from: ProcessId, msg: &u32, ctx: &mut Context<'_, u32>) {
            self.ticks.push((ctx.now().as_units(), from));
            if *msg < 3 {
                ctx.send_self_after(25, msg + 1);
            }
        }
    }

    #[test]
    fn timers_fire_exactly_and_locally() {
        let mut sim = Simulation::builder(vec![TickTock { ticks: Vec::new() }])
            .seed(9)
            .delay(DelayModel::Uniform { min: 1, max: 10 })
            .build();
        let out = sim.run(1_000);
        assert!(out.quiescent);
        let me = ProcessId::new(0);
        // Exact delays — the delay model was never consulted.
        assert_eq!(
            sim.actor(me).ticks,
            vec![(25, me), (50, me), (75, me)],
            "timers bypass the delay model and deliver exactly on schedule"
        );
    }

    #[test]
    fn timers_respect_crash_windows() {
        // A tick due at t=25 inside a silence window [10, 400) is deferred
        // to the recovery instant; under a restart window it is lost.
        let me = ProcessId::new(0);
        let run = |faults: FaultSchedule| {
            let mut sim = Simulation::builder(vec![TickTock { ticks: Vec::new() }])
                .seed(9)
                .faults(faults)
                .build();
            sim.run(1_000);
            sim.actor(me).ticks.clone()
        };
        let deferred = run(FaultSchedule::new().crash(me, 10, 400));
        assert_eq!(deferred.first(), Some(&(400, me)), "deferred to recovery");
        let lost = run(FaultSchedule::new().crash_restart(me, 10, 400));
        assert!(lost.is_empty(), "restart amnesia loses pending timers");
    }

    #[test]
    fn send_due_at_the_instant_being_drained_queues_behind_it() {
        /// p0 sends itself 1, 2, 3; handling 1 sends 9. Every delay is at
        /// least one tick and timers must be positive, so the one way a
        /// handler schedules for its own instant is a saturated clock: with
        /// a `u64::MAX` delay all four fall due at t = `u64::MAX`.
        struct Resend {
            order: Vec<u32>,
        }
        impl Actor for Resend {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                for tag in 1..=3 {
                    ctx.send(ctx.me(), tag);
                }
            }
            fn on_message(&mut self, _from: ProcessId, msg: &u32, ctx: &mut Context<'_, u32>) {
                assert_eq!(ctx.now(), Time::new(u64::MAX));
                self.order.push(*msg);
                if *msg == 1 {
                    ctx.send(ctx.me(), 9);
                }
            }
        }
        let mut sim = Simulation::builder(vec![Resend { order: Vec::new() }])
            .delay(DelayModel::Constant(u64::MAX))
            .build();
        assert!(sim.run(100).quiescent);
        assert_eq!(
            sim.actor(ProcessId::new(0)).order,
            vec![1, 2, 3, 9],
            "same instant, behind everything already queued for it"
        );
    }

    #[test]
    fn boundary_fires_before_a_delivery_at_the_same_instant() {
        // p0's timer and p1's reboot both fall on t=500: the reboot hook
        // must have run by the time the timer is delivered.
        struct Sleeper {
            restarts: u32,
        }
        impl Actor for Sleeper {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.me() == ProcessId::new(0) {
                    ctx.send_self_after(500, ());
                }
            }
            fn on_message(&mut self, _: ProcessId, _: &(), _: &mut Context<'_, ()>) {}
        }
        impl crate::actor::Recoverable for Sleeper {
            fn restart(&mut self, _ctx: &mut Context<'_, ()>) {
                self.restarts += 1;
            }
        }
        let victim = ProcessId::new(1);
        let mut sim = Simulation::builder(vec![Sleeper { restarts: 0 }, Sleeper { restarts: 0 }])
            .faults(FaultSchedule::new().crash_restart(victim, 1, 500))
            .recoverable()
            .build();
        assert_eq!(sim.step().map(|(_, to, _)| to), Some(ProcessId::new(0)));
        assert_eq!(sim.now(), Time::new(500));
        assert_eq!(
            sim.actor(victim).restarts,
            1,
            "rebooted before the delivery"
        );
        assert!(sim.step().is_none());
    }

    #[test]
    fn slab_slots_are_recycled_after_delivery() {
        let mut sim = echo_sim(4, 13);
        let out = sim.run(1_000_000);
        assert!(out.quiescent);
        assert_eq!(sim.slab.live(), 0, "all slots released");
        assert!(
            sim.slab.capacity() < sim.stats().sent as usize,
            "slots were reused across the run (capacity {} vs {} sends)",
            sim.slab.capacity(),
            sim.stats().sent
        );
    }
}
