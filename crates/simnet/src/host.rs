//! The wall-clock actor host: what a real-time runtime does *around* an
//! [`Actor`], written once for `dex-threadnet` (threads, channels) and
//! `dex-netd` (processes, TCP). A runtime adds only its transport.
//!
//! * **Clock.** Virtual time units are microseconds of wall clock since
//!   the host's start instant.
//! * **Drain order and depths.** After each handler the buffered sends
//!   leave through the runtime's one sink in a fixed order: outbox, then
//!   depth-stamped outbox ([`Context::send_dest_at`]), then timers. Boot
//!   traffic travels at depth 1, reactions at the handled depth `+ 1`,
//!   stamped sends at their own depth.
//! * **Timers** ([`Context::send_self_after`]) never touch the transport:
//!   they fire from a local list, earliest due first and never early, as
//!   self-deliveries at the depth a send from the arming handler had.
//! * **Ledger.** Sends, armed timers and deliveries go through the
//!   [`NetStats`] hooks the simulator uses. What a `Dest::All` multicast
//!   clones at the transport boundary is a value the runtime passes in.
//! * **Observability.** An active `dex-obs` recorder is clocked with the
//!   per-process delivery sequence (wall time is not reproducible, event
//!   order per process is what the checker consumes) and gets a `Deliver`
//!   event per delivery and a `Send` event per recipient.
//!
//! The host does not own the actor: every call that runs a handler
//! borrows it from the runtime.
//!
//! [`Simulation`](crate::Simulation) deliberately does not sit on this
//! type: one RNG feeds all its actors *and* its delay draws, payloads live
//! in its slab, its outbox buffer is recycled — all pinned by byte-identity
//! gates.

use crate::actor::{Actor, Context};
use crate::stats::NetStats;
use crate::time::Time;
use dex_obs::EventKind;
use dex_types::{Dest, ProcessId, StepDepth};
use rand::rngs::StdRng;
use std::time::{Duration, Instant};

/// A timer armed by the hosted actor: fires at `due` as a self-delivery at
/// causal depth `depth`.
struct PendingTimer<M> {
    due: Instant,
    depth: StepDepth,
    payload: M,
}

/// Hosts one [`Actor`] on a wall-clock runtime (see the module docs).
/// Every method that runs a handler takes the actor and the runtime's
/// send sink.
pub struct ActorHost<A: Actor> {
    me: ProcessId,
    n: usize,
    start: Instant,
    rng: StdRng,
    timers: Vec<PendingTimer<A::Msg>>,
    stats: NetStats,
    fanout_clones: u64,
}

impl<A: Actor> ActorHost<A> {
    /// A host for process `me` of `n` whose clock started at `start`. The
    /// actor RNG is the process's own stream, `seed + me`. `fanout_clones`
    /// is what the runtime's transport clones per `Dest::All` multicast
    /// (see [`NetStats::note_send`]).
    pub fn new(me: ProcessId, n: usize, seed: u64, start: Instant, fanout_clones: u64) -> Self {
        ActorHost {
            me,
            n,
            start,
            rng: StdRng::seed_from_u64(seed.wrapping_add(me.index() as u64)),
            timers: Vec::new(),
            stats: NetStats::default(),
            fanout_clones,
        }
    }

    /// Runs a boot hook — `on_start`, or `Recoverable::restart` for a
    /// respawned incarnation — and flushes its traffic at causal depth 1:
    /// a boot starts a fresh causal chain.
    pub fn boot(
        &mut self,
        actor: &mut A,
        hook: impl FnOnce(&mut A, &mut Context<'_, A::Msg>),
        sink: impl FnMut(Dest, A::Msg, StepDepth),
    ) {
        if let Some(rec) = actor.recorder_mut() {
            rec.set_clock(self.stats.delivered, 0);
        }
        self.run(actor, StepDepth::ZERO, hook, sink);
    }

    /// Handles one delivery (a network message, or a fired timer via
    /// [`fire_due`](Self::fire_due)) and flushes the reactions at
    /// `depth + 1`.
    pub fn deliver(
        &mut self,
        actor: &mut A,
        from: ProcessId,
        depth: StepDepth,
        msg: &A::Msg,
        sink: impl FnMut(Dest, A::Msg, StepDepth),
    ) {
        self.stats.note_delivery(depth);
        if let Some(rec) = actor.recorder_mut() {
            rec.set_clock(self.stats.delivered, depth.get());
            rec.record(EventKind::Deliver {
                from: from.index() as u16,
            });
        }
        self.run(actor, depth, |a, ctx| a.on_message(from, msg, ctx), sink);
    }

    /// Fires the earliest timer that is due, if any, as a self-delivery.
    /// Returns whether one fired; call until `false` to catch up.
    pub fn fire_due(&mut self, actor: &mut A, sink: impl FnMut(Dest, A::Msg, StepDepth)) -> bool {
        let now = Instant::now();
        let due = self
            .timers
            .iter()
            .enumerate()
            .filter(|(_, t)| t.due <= now)
            .min_by_key(|(_, t)| t.due)
            .map(|(idx, _)| idx);
        let Some(idx) = due else { return false };
        let timer = self.timers.remove(idx);
        self.deliver(actor, self.me, timer.depth, &timer.payload, sink);
        true
    }

    /// How long the runtime may block on its transport: `idle`, but never
    /// past the next timer.
    pub fn next_wait(&self, idle: Duration) -> Duration {
        let now = Instant::now();
        self.timers
            .iter()
            .map(|t| t.due.saturating_duration_since(now))
            .min()
            .map_or(idle, |next| next.min(idle))
    }

    /// Timers armed and not yet fired.
    pub fn pending_timers(&self) -> usize {
        self.timers.len()
    }

    /// The wire ledger so far. `stats().delivered` is also the
    /// per-process delivery sequence the recorder is clocked with.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Microseconds since the host's start instant.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// The hosted process.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Runs one handler at causal depth `depth` (0 for a boot), then
    /// flushes what it buffered: outbox at `depth + 1`, stamped outbox at
    /// each entry's own depth — ledger once per logical send, one `Send`
    /// event per recipient, then out through the sink, which owns the
    /// fan-out — and finally timers, which deliver at `depth + 1` too.
    fn run(
        &mut self,
        actor: &mut A,
        depth: StepDepth,
        handler: impl FnOnce(&mut A, &mut Context<'_, A::Msg>),
        mut sink: impl FnMut(Dest, A::Msg, StepDepth),
    ) {
        let now = Time::new(self.elapsed_us());
        let mut ctx = Context::new(self.me, self.n, now, depth, &mut self.rng);
        handler(actor, &mut ctx);
        let (out, out_at, armed) = ctx.into_parts();
        let reaction = depth.next();
        let sends = out.into_iter().map(|(dest, msg)| (dest, msg, reaction));
        for (dest, payload, depth) in sends.chain(out_at) {
            self.stats
                .note_send::<A>(self.n, &dest, &payload, depth, self.fanout_clones);
            if let Some(rec) = actor.recorder_mut() {
                let recipients = match dest {
                    Dest::To(to) => to.index()..to.index() + 1,
                    Dest::All => 0..self.n,
                };
                for to in recipients {
                    let kind = EventKind::Send { to: to as u16 };
                    rec.record_at(self.stats.delivered, depth.get(), kind);
                }
            }
            sink(dest, payload, depth);
        }
        let armed_at = Instant::now();
        for (delay, payload) in armed {
            self.stats.note_timer::<A>(&payload, reaction);
            self.timers.push(PendingTimer {
                due: armed_at + Duration::from_micros(delay),
                depth: reaction,
                payload,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::MsgClass;
    use dex_obs::{Event, Recorder};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn d(depth: u32) -> StepDepth {
        StepDepth::new(depth)
    }

    /// Boots with one send of every kind; tick 14 reacts with one more of
    /// every kind. Everything it hears lands in `got`.
    struct Probe {
        rec: Recorder,
        got: Vec<(ProcessId, u32, StepDepth)>,
    }

    impl Actor for Probe {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.send_self_after(2_000, 13);
            ctx.send_dest_at(Dest::All, 12, d(7));
            ctx.send(p(1), 10);
            ctx.broadcast(11);
            ctx.send_self_after(500, 14);
        }

        fn on_message(&mut self, from: ProcessId, msg: &u32, ctx: &mut Context<'_, u32>) {
            self.got.push((from, *msg, ctx.depth()));
            if *msg == 14 {
                ctx.send_self_after(100, 15);
                ctx.send_dest_at(Dest::To(p(2)), 21, d(9));
                ctx.send(from, 20);
            }
        }

        fn recorder_mut(&mut self) -> Option<&mut Recorder> {
            self.rec.active_mut()
        }

        fn msg_class(msg: &u32) -> MsgClass {
            match msg {
                10 => MsgClass::Init,
                11 => MsgClass::Echo,
                12 => MsgClass::Batch(4),
                _ => MsgClass::Other,
            }
        }
    }

    type Sent = Vec<(Dest, u32, StepDepth)>;

    /// A booted three-process host for `p0` with `fanout_clones` per
    /// multicast, its actor, and what the boot pushed into the sink.
    fn booted(fanout_clones: u64) -> (ActorHost<Probe>, Probe, Sent) {
        let mut host = ActorHost::new(p(0), 3, 5, Instant::now(), fanout_clones);
        let mut probe = Probe {
            rec: Recorder::new(0),
            got: Vec::new(),
        };
        let mut sent = Sent::new();
        host.boot(
            &mut probe,
            |a, ctx| a.on_start(ctx),
            |dest, msg, depth| sent.push((dest, msg, depth)),
        );
        (host, probe, sent)
    }

    fn sends_to(events: &[Event]) -> Vec<(u64, u32, u16)> {
        events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Send { to } => Some((e.at, e.depth, to)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn boot_drains_outbox_then_stamped_outbox_then_timers_at_depth_one() {
        let (host, probe, sent) = booted(2);
        // Call order was timer, stamped, send, broadcast, timer; the sink
        // sees outbox entries first (at depth 1), then the stamped one at
        // its own depth; timers never reach it.
        assert_eq!(
            sent,
            vec![
                (Dest::To(p(1)), 10, d(1)),
                (Dest::All, 11, d(1)),
                (Dest::All, 12, d(7)),
            ]
        );
        assert_eq!(host.pending_timers(), 2);
        assert!(probe.got.is_empty(), "booting delivers nothing");
        // Ledger: one unicast, two multicasts of n = 3 copies, two armed
        // timers as byte-free sends; classes partition `sent`.
        let s = host.stats();
        assert_eq!(s.sent, 1 + 3 + 3 + 2);
        assert_eq!((s.sent_init, s.sent_echo, s.sent_batch), (1, 3, 3));
        assert_eq!(s.sent_other, 2);
        assert_eq!(s.echoes_batched, 4, "batch entries count once");
        assert_eq!(s.multicasts, 2);
        assert_eq!(s.payload_clones, 2 * 2, "the owner's per-multicast value");
        assert_eq!(s.bytes_on_wire, 4 * (1 + 3 + 3), "timers carry no bytes");
        assert_eq!(s.max_depth, d(7));
        assert_eq!(s.delivered, 0);
        // One `Send` per recipient, clocked at delivery sequence 0.
        assert_eq!(
            sends_to(&probe.rec.trace().events),
            vec![
                (0, 1, 1),
                (0, 1, 0),
                (0, 1, 1),
                (0, 1, 2),
                (0, 7, 0),
                (0, 7, 1),
                (0, 7, 2),
            ]
        );
    }

    #[test]
    fn multicast_clones_are_whatever_the_runtime_says() {
        let (host, _, _) = booted(0);
        assert_eq!(host.stats().multicasts, 2);
        assert_eq!(host.stats().payload_clones, 0);
    }

    #[test]
    fn timers_fire_earliest_first_never_early_and_react_one_step_deeper() {
        let (mut host, mut probe, _) = booted(0);
        let mut sent = Sent::new();
        // Nothing is due yet: 500 µs and 2 ms are both in the future.
        assert!(!host.fire_due(&mut probe, |dest, m, at| sent.push((dest, m, at))));
        let idle = Duration::from_secs(1);
        assert!(host.next_wait(idle) <= Duration::from_micros(500));
        std::thread::sleep(Duration::from_micros(2_500));
        assert_eq!(
            host.next_wait(idle),
            Duration::ZERO,
            "overdue: do not block"
        );
        // Both are due now; the earlier-armed-later-due 2 ms timer waits
        // for the 500 µs one. Tick 14's own 100 µs timer is armed *now*,
        // so it is due after 13 however late this thread woke up.
        assert!(host.fire_due(&mut probe, |dest, m, at| sent.push((dest, m, at))));
        assert!(host.fire_due(&mut probe, |dest, m, at| sent.push((dest, m, at))));
        std::thread::sleep(Duration::from_micros(200));
        assert!(host.fire_due(&mut probe, |dest, m, at| sent.push((dest, m, at))));
        assert!(!host.fire_due(&mut probe, |dest, m, at| sent.push((dest, m, at))));
        assert_eq!(host.next_wait(idle), idle, "no timers left");
        // Boot timers deliver at depth 1, the chained one at depth 2; all
        // are self-deliveries.
        assert_eq!(
            probe.got,
            vec![(p(0), 14, d(1)), (p(0), 13, d(1)), (p(0), 15, d(2))]
        );
        // Reactions to a depth-1 delivery leave at depth 2, the stamped
        // one at its own depth, outbox first.
        assert_eq!(
            sent,
            vec![(Dest::To(p(0)), 20, d(2)), (Dest::To(p(2)), 21, d(9))]
        );
        let s = host.stats();
        assert_eq!(s.delivered, 3);
        assert_eq!(s.delivered_at_depth(d(1)), 2);
        assert_eq!(s.delivered_at_depth(d(2)), 1);
        // 7 wire copies + 2 timers at boot, then 2 sends + 1 timer.
        assert_eq!(s.sent, 9 + 3);
        // The recorder's clock is the delivery sequence: tick 14 was
        // delivery 1, and its sends are stamped with it.
        let events = probe.rec.trace().events;
        let delivers: Vec<(u64, u32)> = events
            .iter()
            .filter(|e| e.kind == EventKind::Deliver { from: 0 })
            .map(|e| (e.at, e.depth))
            .collect();
        assert_eq!(delivers, vec![(1, 1), (2, 1), (3, 2)]);
        assert_eq!(sends_to(&events)[7..], [(1, 2, 0), (1, 9, 2)]);
    }

    #[test]
    fn network_deliveries_carry_their_sender_and_depth() {
        let (mut host, mut probe, _) = booted(0);
        host.deliver(&mut probe, p(2), d(4), &99, |_, _, _| {
            panic!("99 provokes no reaction")
        });
        assert_eq!(probe.got, vec![(p(2), 99, d(4))]);
        assert_eq!(host.stats().delivered_at_depth(d(4)), 1);
        let last = *probe.rec.trace().events.last().expect("deliver event");
        assert_eq!(
            last,
            Event {
                at: 1,
                depth: 4,
                kind: EventKind::Deliver { from: 2 }
            }
        );
    }
}
