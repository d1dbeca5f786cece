//! The multicast fast path must be *observationally identical* to the old
//! eager per-recipient expansion: a `Dest::All` broadcast and `n` explicit
//! `send`s (in ascending recipient order) consume the same RNG stream,
//! produce the same sequence numbers and therefore the same virtual-time
//! schedule, delivery logs, and statistics — the slab only changes who owns
//! the payload bytes.

use dex_simnet::{Actor, Context, DelayModel, NetStats, Simulation, Time};
use dex_types::{ProcessId, StepDepth};
use proptest::prelude::*;

/// One delivery as its recipient saw it: `(now, from, depth, payload)`.
type Delivery = (Time, ProcessId, StepDepth, u64);

/// Gossip over shared payloads: broadcast on start, rebroadcast each
/// received value while a per-process budget lasts; log every delivery.
struct Fast {
    budget: u32,
    sum: u64,
    log: Vec<Delivery>,
}

/// The same protocol, but every multicast is hand-expanded into `n`
/// explicit sends — the pre-slab semantics, expressed in actor code.
struct Expanded {
    budget: u32,
    sum: u64,
    log: Vec<Delivery>,
}

fn react(budget: &mut u32, sum: &mut u64, msg: u64) -> Option<u64> {
    *sum = sum.wrapping_add(msg);
    if *budget > 0 {
        *budget -= 1;
        Some(*sum | 1)
    } else {
        None
    }
}

impl Actor for Fast {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.broadcast(ctx.me().index() as u64 + 1);
    }

    fn on_message(&mut self, from: ProcessId, msg: &u64, ctx: &mut Context<'_, u64>) {
        self.log.push((ctx.now(), from, ctx.depth(), *msg));
        if let Some(reply) = react(&mut self.budget, &mut self.sum, *msg) {
            ctx.broadcast(reply);
        }
    }
}

fn send_to_all(ctx: &mut Context<'_, u64>, msg: u64) {
    for i in 0..ctx.n() {
        ctx.send(ProcessId::new(i), msg);
    }
}

impl Actor for Expanded {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        send_to_all(ctx, ctx.me().index() as u64 + 1);
    }

    fn on_message(&mut self, from: ProcessId, msg: &u64, ctx: &mut Context<'_, u64>) {
        self.log.push((ctx.now(), from, ctx.depth(), *msg));
        if let Some(reply) = react(&mut self.budget, &mut self.sum, *msg) {
            send_to_all(ctx, reply);
        }
    }
}

/// Every process's delivery log and final sum, plus the network statistics.
type Run = (Vec<Vec<Delivery>>, NetStats, Vec<u64>);

fn run_fast(n: usize, budget: u32, seed: u64, delay: DelayModel) -> Run {
    let actors = (0..n).map(|_| Fast {
        budget,
        sum: 0,
        log: Vec::new(),
    });
    let mut sim = Simulation::builder(actors.collect())
        .seed(seed)
        .delay(delay)
        .build();
    let out = sim.run(u64::MAX);
    assert!(out.quiescent);
    let logs = sim.actors().iter().map(|a| a.log.clone()).collect();
    let sums = sim.actors().iter().map(|a| a.sum).collect();
    (logs, sim.stats().clone(), sums)
}

fn run_expanded(n: usize, budget: u32, seed: u64, delay: DelayModel) -> Run {
    let actors = (0..n).map(|_| Expanded {
        budget,
        sum: 0,
        log: Vec::new(),
    });
    let mut sim = Simulation::builder(actors.collect())
        .seed(seed)
        .delay(delay)
        .build();
    let out = sim.run(u64::MAX);
    assert!(out.quiescent);
    let logs = sim.actors().iter().map(|a| a.log.clone()).collect();
    let sums = sim.actors().iter().map(|a| a.sum).collect();
    (logs, sim.stats().clone(), sums)
}

/// Fixed-scenario regression: every process's delivery log (instant,
/// sender, depth and payload of each delivery) is identical between the
/// two semantics, and so is the statistics block apart from the multicast
/// accounting itself.
#[test]
fn broadcast_delivery_logs_are_identical_to_eager_expansion() {
    for seed in [0, 7, 31, 99] {
        let delay = DelayModel::Uniform { min: 1, max: 20 };
        let (flogs, fs, fsums) = run_fast(5, 3, seed, delay.clone());
        let (elogs, es, esums) = run_expanded(5, 3, seed, delay);
        assert_eq!(flogs, elogs, "seed {seed}");
        assert_eq!(fsums, esums, "seed {seed}");
        assert_eq!(fs.sent, es.sent, "seed {seed}");
        assert_eq!(fs.delivered, es.delivered, "seed {seed}");
        assert_eq!(fs.max_depth, es.max_depth, "seed {seed}");
        assert_eq!(fs.per_depth, es.per_depth, "seed {seed}");
        // Wire-byte accounting is per scheduled delivery, so sharing the
        // payload in the slab must not make the multicast look cheaper on
        // the wire than the expansion: every u64 message costs 8 bytes.
        assert_eq!(fs.bytes_on_wire, es.bytes_on_wire, "seed {seed}");
        assert_eq!(fs.bytes_on_wire, fs.sent * 8, "seed {seed}");
        // The fast path shares payloads; the expansion clones them n − 1
        // times per multicast inside `Context::send`'s caller-side loop.
        assert_eq!(fs.payload_clones, 0, "seed {seed}");
        assert!(fs.multicasts > 0, "seed {seed}");
        assert_eq!(es.multicasts, 0, "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `Dest::All` ≡ `n` explicit sends under arbitrary system sizes,
    /// budgets, seeds, and delay jitter: same RNG consumption, same
    /// schedule, same delivery logs, same end state.
    #[test]
    fn multicast_equals_explicit_sends(
        n in 1usize..8,
        budget in 0u32..4,
        seed in any::<u64>(),
        max_delay in 1u64..30,
    ) {
        let delay = DelayModel::Uniform { min: 1, max: max_delay };
        let (flogs, fs, fsums) = run_fast(n, budget, seed, delay.clone());
        let (elogs, es, esums) = run_expanded(n, budget, seed, delay);
        prop_assert_eq!(flogs, elogs);
        prop_assert_eq!(fsums, esums);
        prop_assert_eq!(fs.sent, es.sent);
        prop_assert_eq!(fs.delivered, es.delivered);
        prop_assert_eq!(fs.per_depth, es.per_depth);
        prop_assert_eq!(fs.payload_clones, 0);
    }
}
