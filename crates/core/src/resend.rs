//! Retransmission layer: ack-tracked resends with deterministic backoff.
//!
//! The paper's system model assumes reliable links (§2.1); real networks
//! provide them by **retransmission**. [`Reliable`] wraps any
//! [`Actor`] and supplies exactly that: every outbound message gets a
//! sequence number and stays in an outbound buffer until each recipient
//! acknowledges it; unacknowledged messages are re-sent on a deterministic
//! timeout that backs off exponentially, up to a retry budget — after
//! which the wrapper *degrades to fallback*, dropping the message and
//! leaving the protocol's own `n − t` quorum redundancy to absorb the
//! loss.
//!
//! Two properties matter for the simulations:
//!
//! * **Fresh per-attempt fault decisions.** Each retransmission is a new
//!   send through the network, so the chaos layer draws an *independent*
//!   drop decision for it. A message facing sustained loss `p` survives
//!   some attempt with probability `1 − pᵏ` — this is what turns
//!   "deadlocks under sustained loss" into "terminates under sustained
//!   loss" (see `tests/recovery_matrix.rs`).
//! * **Determinism.** Retry timers use
//!   [`Context::send_self_after`] — exact virtual-time delays that draw
//!   nothing from any RNG stream — so wrapped runs are replayable from
//!   the seed like unwrapped ones.

use dex_obs::{EventKind, Recorder};
use dex_simnet::{Actor, Context};
use dex_types::{Dest, ProcessId};
use std::collections::{BTreeMap, BTreeSet};

/// Retransmission tuning for [`Reliable`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResendPolicy {
    /// Initial retransmission timeout, in virtual time units.
    pub rto: u64,
    /// Backoff exponent cap: attempt `k` waits `rto << min(k, cap)`.
    pub backoff_cap: u32,
    /// Retry budget per message; when exhausted the message is dropped
    /// (degrade to fallback — quorum redundancy absorbs the loss).
    pub max_attempts: u32,
}

impl Default for ResendPolicy {
    /// A few round trips at the simulators' default 1–10 unit delays,
    /// doubling up to 16×, with enough attempts that sustained 20–50%
    /// loss is survived with overwhelming probability.
    fn default() -> Self {
        ResendPolicy {
            rto: 48,
            backoff_cap: 4,
            max_attempts: 12,
        }
    }
}

/// Wire envelope of the resend layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReliableMsg<M> {
    /// Application payload `msg`, tracked under `seq` until acknowledged.
    Data {
        /// Sender-local sequence number.
        seq: u64,
        /// The wrapped actor's message.
        msg: M,
    },
    /// Acknowledges receipt of the sender's `seq` (sent even for
    /// duplicates — an ack can be lost too).
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Pass-through for the inner actor's own timers (local, unacked).
    Timer(M),
    /// The wrapper's own resend timer (local only).
    RetryTick,
}

struct Pending<M> {
    msg: M,
    /// Recipients that have not acknowledged yet.
    waiting: Vec<u16>,
    attempts: u32,
    due: u64,
}

/// Wraps an [`Actor`], making its message delivery reliable under lossy
/// links: unacknowledged sends are retransmitted with exponential backoff
/// (see the module docs for semantics and determinism).
pub struct Reliable<A: Actor> {
    inner: A,
    policy: ResendPolicy,
    next_seq: u64,
    outbound: BTreeMap<u64, Pending<A::Msg>>,
    /// Delivered sequence numbers per sender, for duplicate suppression.
    seen: BTreeMap<u16, BTreeSet<u64>>,
    /// Virtual time of the earliest armed retry tick, if any.
    tick_at: Option<u64>,
    resends: u64,
    abandoned: u64,
}

impl<A: Actor> Reliable<A> {
    /// Wraps `inner` with the given retransmission policy.
    pub fn new(inner: A, policy: ResendPolicy) -> Self {
        assert!(policy.rto > 0, "a zero RTO would busy-loop");
        assert!(policy.max_attempts > 0, "at least the original attempt");
        Reliable {
            inner,
            policy,
            next_seq: 0,
            outbound: BTreeMap::new(),
            seen: BTreeMap::new(),
            tick_at: None,
            resends: 0,
            abandoned: 0,
        }
    }

    /// The wrapped actor.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Total retransmissions performed.
    pub fn resends(&self) -> u64 {
        self.resends
    }

    /// Messages dropped after exhausting the retry budget.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Messages still awaiting at least one acknowledgement.
    pub fn unacked(&self) -> usize {
        self.outbound.len()
    }

    /// Runs `f` against the inner actor under a shadow context, then
    /// wraps its outbox — depth-stamped sends included — in tracked `Data`
    /// envelopes and re-arms timers.
    fn drive_inner(
        &mut self,
        ctx: &mut Context<'_, ReliableMsg<A::Msg>>,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Msg>),
    ) {
        let (me, n, now, depth) = (ctx.me(), ctx.n(), ctx.now(), ctx.depth());
        let (out, timers) = {
            let mut inner_ctx = Context::external(me, n, now, depth, ctx.rng());
            f(&mut self.inner, &mut inner_ctx);
            (inner_ctx.take_outbox(), inner_ctx.take_timers())
        };
        let now = now.as_units();
        for (dest, msg, at) in out {
            let seq = self.next_seq;
            self.next_seq += 1;
            let waiting: Vec<u16> = match dest {
                Dest::To(p) => vec![p.index() as u16],
                Dest::All => (0..n as u16).collect(),
            };
            self.outbound.insert(
                seq,
                Pending {
                    msg: msg.clone(),
                    waiting,
                    attempts: 0,
                    due: now + self.policy.rto,
                },
            );
            // The first attempt leaves at the inner send's own depth (an
            // echo-aggregation flush stamps its batches); retransmissions
            // leave at the retry tick's.
            ctx.send_dest_at(dest, ReliableMsg::Data { seq, msg }, at);
        }
        for (delay, msg) in timers {
            ctx.send_self_after(delay, ReliableMsg::Timer(msg));
        }
        self.arm_tick(ctx);
    }

    /// Arms a retry tick at the earliest outstanding deadline, unless one
    /// at least as early is already pending.
    fn arm_tick(&mut self, ctx: &mut Context<'_, ReliableMsg<A::Msg>>) {
        let Some(next_due) = self.outbound.values().map(|p| p.due).min() else {
            return;
        };
        let now = ctx.now().as_units();
        let at = next_due.max(now + 1);
        if self.tick_at.is_some_and(|t| t <= at) {
            return;
        }
        ctx.send_self_after(at - now, ReliableMsg::RetryTick);
        self.tick_at = Some(at);
    }

    fn on_retry_tick(&mut self, ctx: &mut Context<'_, ReliableMsg<A::Msg>>) {
        self.tick_at = None;
        let now = ctx.now().as_units();
        let due: Vec<u64> = self
            .outbound
            .iter()
            .filter(|(_, p)| p.due <= now)
            .map(|(seq, _)| *seq)
            .collect();
        for seq in due {
            let pending = self.outbound.get_mut(&seq).expect("collected above");
            pending.attempts += 1;
            if pending.attempts >= self.policy.max_attempts {
                self.abandoned += 1;
                self.outbound.remove(&seq);
                continue;
            }
            pending.due = now + (self.policy.rto << pending.attempts.min(self.policy.backoff_cap));
            let msg = pending.msg.clone();
            let waiting = pending.waiting.clone();
            for w in waiting {
                // Each retransmission is a brand-new send: the fault layer
                // draws a fresh, independent drop decision for it.
                if let Some(recorder) = self.inner.recorder_mut() {
                    recorder.record(EventKind::Resend { to: w });
                }
                ctx.send(
                    ProcessId::new(w as usize),
                    ReliableMsg::Data {
                        seq,
                        msg: msg.clone(),
                    },
                );
                self.resends += 1;
            }
        }
        self.arm_tick(ctx);
    }
}

impl<A: Actor> Actor for Reliable<A> {
    type Msg = ReliableMsg<A::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.drive_inner(ctx, |actor, inner_ctx| actor.on_start(inner_ctx));
    }

    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        match msg {
            ReliableMsg::Data { seq, msg } => {
                // Always ack — the previous ack may itself have been lost.
                ctx.send(from, ReliableMsg::Ack { seq: *seq });
                let fresh = self
                    .seen
                    .entry(from.index() as u16)
                    .or_default()
                    .insert(*seq);
                if fresh {
                    self.drive_inner(ctx, |actor, inner_ctx| {
                        actor.on_message(from, msg, inner_ctx)
                    });
                }
            }
            ReliableMsg::Ack { seq } => {
                if let Some(pending) = self.outbound.get_mut(seq) {
                    pending.waiting.retain(|w| *w != from.index() as u16);
                    if pending.waiting.is_empty() {
                        self.outbound.remove(seq);
                    }
                }
            }
            ReliableMsg::Timer(inner_msg) => {
                if from != ctx.me() {
                    return; // timers are local; discard forgeries
                }
                self.drive_inner(ctx, |actor, inner_ctx| {
                    actor.on_message(from, inner_msg, inner_ctx)
                });
            }
            ReliableMsg::RetryTick => {
                if from != ctx.me() {
                    return; // local only
                }
                self.on_retry_tick(ctx);
            }
        }
    }

    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        self.inner.recorder_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_simnet::{DelayModel, FaultSchedule, Simulation};

    /// Counts deliveries; replies once to every payload below 100.
    struct Echo {
        got: Vec<(ProcessId, u32)>,
    }

    impl Actor for Echo {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.me() == ProcessId::new(0) {
                for payload in [1, 2, 3] {
                    ctx.send(ProcessId::new(1), payload);
                }
            }
        }

        fn on_message(&mut self, from: ProcessId, msg: &u32, ctx: &mut Context<'_, u32>) {
            self.got.push((from, *msg));
            if *msg < 100 && ctx.me() == ProcessId::new(1) {
                ctx.send(from, msg + 100);
            }
        }
    }

    fn echo_pair() -> Vec<Reliable<Echo>> {
        (0..2)
            .map(|_| Reliable::new(Echo { got: Vec::new() }, ResendPolicy::default()))
            .collect()
    }

    fn payloads(node: &Reliable<Echo>) -> Vec<u32> {
        let mut p: Vec<u32> = node.inner().got.iter().map(|(_, m)| *m).collect();
        p.sort_unstable();
        p
    }

    #[test]
    fn lossless_runs_deliver_exactly_once_with_no_resends() {
        let mut sim = Simulation::builder(echo_pair())
            .seed(7)
            .delay(DelayModel::Uniform { min: 1, max: 10 })
            .build();
        assert!(sim.run(10_000).quiescent);
        assert_eq!(payloads(sim.actor(ProcessId::new(1))), vec![1, 2, 3]);
        assert_eq!(payloads(sim.actor(ProcessId::new(0))), vec![101, 102, 103]);
        for node in sim.actors() {
            assert_eq!(node.resends(), 0, "no loss, no retries");
            assert_eq!(node.unacked(), 0, "everything acked");
        }
    }

    #[test]
    fn retries_draw_fresh_drop_decisions_under_sustained_loss() {
        // Fixed seed, every link drops with p = 0.5 for the whole run. If
        // retransmissions *shared* the original send's drop decision, a
        // dropped message could never get through and some payload would
        // be missing; fresh per-attempt decisions mean each retry is a new
        // coin flip, and the retry budget pushes everything through.
        let mut sim = Simulation::builder(echo_pair())
            .seed(31)
            .delay(DelayModel::Uniform { min: 1, max: 10 })
            .faults(FaultSchedule::none().lossy_link(None, None, 0.5, 0.0))
            .build();
        assert!(sim.run(100_000).quiescent);
        assert!(
            sim.stats().dropped > 0,
            "the schedule must actually drop traffic"
        );
        let total_resends: u64 = sim.actors().iter().map(Reliable::resends).sum();
        assert!(total_resends > 0, "drops must trigger retransmission");
        assert_eq!(
            payloads(sim.actor(ProcessId::new(1))),
            vec![1, 2, 3],
            "every payload survives sustained 50% loss"
        );
        assert_eq!(payloads(sim.actor(ProcessId::new(0))), vec![101, 102, 103]);
        for node in sim.actors() {
            assert_eq!(node.abandoned(), 0, "budget is ample at p = 0.5");
        }
    }

    #[test]
    fn duplicate_deliveries_reach_the_inner_actor_once() {
        // Heavy duplication, no loss: the dedup layer must hand each
        // payload to the inner actor exactly once.
        let mut sim = Simulation::builder(echo_pair())
            .seed(5)
            .delay(DelayModel::Uniform { min: 1, max: 10 })
            .faults(FaultSchedule::none().dup_all(0.9))
            .build();
        assert!(sim.run(100_000).quiescent);
        assert!(sim.stats().duplicated > 0, "duplication must fire");
        assert_eq!(payloads(sim.actor(ProcessId::new(1))), vec![1, 2, 3]);
        assert_eq!(payloads(sim.actor(ProcessId::new(0))), vec![101, 102, 103]);
    }

    #[test]
    fn the_retry_budget_caps_resends_to_a_dead_link() {
        // Everything 0 → 1 is dropped forever; the wrapper must give up
        // after max_attempts instead of retrying unboundedly.
        let policy = ResendPolicy {
            rto: 10,
            backoff_cap: 2,
            max_attempts: 4,
        };
        let nodes: Vec<Reliable<Echo>> = (0..2)
            .map(|_| Reliable::new(Echo { got: Vec::new() }, policy))
            .collect();
        let mut sim = Simulation::builder(nodes)
            .seed(3)
            .delay(DelayModel::Constant(5))
            .faults(FaultSchedule::none().lossy_link(
                Some(ProcessId::new(0)),
                Some(ProcessId::new(1)),
                1.0,
                0.0,
            ))
            .build();
        assert!(sim.run(100_000).quiescent, "giving up restores quiescence");
        let sender = sim.actor(ProcessId::new(0));
        assert_eq!(sender.abandoned(), 3, "all three payloads abandoned");
        assert_eq!(sender.unacked(), 0);
        // attempts 1..max_attempts-1 resend; the last tick abandons.
        assert_eq!(sender.resends(), 3 * u64::from(policy.max_attempts - 1));
        assert!(payloads(sim.actor(ProcessId::new(1))).is_empty());
    }
}
