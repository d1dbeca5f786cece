//! Property tests for the chaos fault-schedule layer.
//!
//! The chaos semantics are *defer, don't lose* for partitions and bounded
//! crash windows (a held message is just a long-but-finite asynchronous
//! delay) and *idempotence-safe* for duplication — so over an arbitrary
//! generated healing schedule a gossiping census protocol must still
//! behave exactly as on a clean network:
//!
//! * **agreement** — every process ends with the same decision digest;
//! * **termination after the last heal** — the run drains and every
//!   process decides;
//! * **crash silence** — no delivery lands inside a victim's window
//!   (chained windows compose: the hold is a fixpoint over all of them);
//! * **determinism** — the same (seed, schedule) replays bit-for-bit.
//!
//! Drops are the exception by design: a lossy link is a *genuine* loss, so
//! the drop property only asserts that traffic between processes not named
//! by any lossy entry survives in full. (The exact deferral instants of
//! partitioned/crashed deliveries are pinned by the unit tests in
//! `sim.rs`; here the schedules are random compositions.)

use dex_simnet::{Actor, Context, DelayModel, FaultSchedule, Simulation, Time};
use dex_types::{ProcessId, StepDepth};
use proptest::prelude::*;

/// One delivery as its recipient saw it: `(now, from, depth, payload)`.
type Delivery = (Time, ProcessId, StepDepth, (usize, u64));

/// Gossiping census: broadcast own `(origin, value)` fact, forward each
/// fact the first time it arrives (so traffic spans many time units, not
/// just the t = 0 start-up burst), decide on a digest of the full census
/// once all `n` facts are known. First-write-wins per origin makes
/// duplicated deliveries harmless — exactly the idempotence the protocols
/// under test rely on. Every delivery is logged.
struct Census {
    n: usize,
    seen: Vec<Option<u64>>,
    decided: Option<u64>,
    log: Vec<Delivery>,
}

impl Census {
    fn new(n: usize) -> Self {
        Census {
            n,
            seen: vec![None; n],
            decided: None,
            log: Vec::new(),
        }
    }

    fn record(&mut self, origin: usize, value: u64) -> bool {
        let slot = &mut self.seen[origin];
        let fresh = slot.is_none();
        if fresh {
            *slot = Some(value);
        }
        if self.decided.is_none() && self.seen.iter().all(Option::is_some) {
            self.decided = Some(
                self.seen
                    .iter()
                    .map(|v| v.unwrap())
                    .fold(self.n as u64, |acc, v| acc.wrapping_mul(31).wrapping_add(v)),
            );
        }
        fresh
    }
}

impl Actor for Census {
    type Msg = (usize, u64);

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let me = ctx.me().index();
        let fact = (me, me as u64 * 10 + 1);
        self.record(me, fact.1);
        ctx.broadcast(fact);
    }

    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        self.log.push((ctx.now(), from, ctx.depth(), *msg));
        if self.record(msg.0, msg.1) {
            ctx.broadcast(*msg);
        }
    }
}

/// Builds an arbitrary healing schedule from raw sampled ingredients: one
/// optional partition (side = the mask's set bits below `n`), up to two
/// recovering crash windows (`from >= 1` -- `on_start` sends at t = 0), and
/// an optional all-links duplication probability. No drops: every fault
/// here heals, so full delivery must survive. Returns the schedule plus
/// the crash windows `(victim, from, until)` the properties check.
#[allow(clippy::type_complexity)]
fn build_healing(
    n: usize,
    partition: Option<(u8, u64, u64)>,
    crashes: &[(usize, u64, u64)],
    dup: Option<f64>,
) -> (FaultSchedule, Vec<(usize, u64, u64)>) {
    let mut schedule = FaultSchedule::new();
    if let Some((mask, from, len)) = partition {
        let side: Vec<ProcessId> = (0..n)
            .filter(|i| mask >> i & 1 == 1)
            .map(ProcessId::new)
            .collect();
        schedule = schedule.partition(side, from, from + len);
    }
    let windows: Vec<(usize, u64, u64)> = crashes
        .iter()
        .map(|&(victim, from, len)| (victim % n, from, from + len))
        .collect();
    for &(victim, from, until) in &windows {
        schedule = schedule.crash(ProcessId::new(victim), from, until);
    }
    if let Some(p) = dup {
        schedule = schedule.dup_all(p);
    }
    (schedule, windows)
}

fn run_census(n: usize, seed: u64, schedule: FaultSchedule) -> (Simulation<Census>, bool) {
    let mut sim = Simulation::builder((0..n).map(|_| Census::new(n)).collect())
        .seed(seed)
        .delay(DelayModel::Uniform { min: 1, max: 10 })
        .faults(schedule)
        .build();
    let quiescent = sim.run(1_000_000).quiescent;
    (sim, quiescent)
}

/// Every process's delivery log, by recipient.
fn delivery_logs(sim: &Simulation<Census>) -> Vec<Vec<Delivery>> {
    sim.actors().iter().map(|a| a.log.clone()).collect()
}

/// Checks crash silence against the delivery logs: no delivery may land
/// inside any of the victim's windows (the simulator's hold is a fixpoint
/// over chained windows, so each window can be checked independently).
fn assert_crash_silence(
    sim: &Simulation<Census>,
    crashes: &[(usize, u64, u64)],
) -> Result<(), TestCaseError> {
    for &(victim, start, until) in crashes {
        for &(at, ..) in &sim.actors()[victim].log {
            let at = at.as_units();
            prop_assert!(
                at < start || at >= until,
                "delivery to p{victim} at t={at} inside crash window [{start}, {until})"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    // Any healing schedule (partitions, recovering crashes, dups) keeps
    // the census protocol safe and live: quiescent run, every process
    // decides, all decide the same digest, and no delivery lands inside a
    // crash window.
    #[test]
    fn healing_schedules_never_violate_agreement_or_termination(
        seed in any::<u64>(),
        n in 3usize..7,
        partition in proptest::option::of((1u8..63, 0u64..40, 1u64..120)),
        raw_crashes in proptest::collection::vec((0usize..8, 1u64..40, 1u64..100), 0..3),
        dup in proptest::option::of(0.05f64..0.5),
    ) {
        let (schedule, crashes) = build_healing(n, partition, &raw_crashes, dup);
        let (sim, quiescent) = run_census(n, seed, schedule);
        prop_assert!(quiescent, "healing schedules must drain");

        let decisions: Vec<Option<u64>> = sim.actors().iter().map(|a| a.decided).collect();
        for d in &decisions {
            prop_assert!(d.is_some(), "every process must decide after the last heal");
            prop_assert_eq!(*d, decisions[0], "agreement under chaos");
        }
        assert_crash_silence(&sim, &crashes)?;
    }

    // The same (seed, schedule) replays bit-for-bit: identical delivery
    // logs, identical statistics, identical decisions.
    #[test]
    fn chaos_runs_are_deterministic_per_seed_and_schedule(
        n in 3usize..7,
        seed in any::<u64>(),
        dup in 0.0f64..0.5,
        drop in 0.0f64..0.4,
    ) {
        let schedule = FaultSchedule::new()
            .lossy_link(Some(ProcessId::new(0)), None, drop, dup)
            .partition([ProcessId::new(1)], 5, 60)
            .crash(ProcessId::new(2.min(n - 1)), 3, 50);
        let (sim_a, qa) = run_census(n, seed, schedule.clone());
        let (sim_b, qb) = run_census(n, seed, schedule);
        prop_assert_eq!(qa, qb);
        prop_assert_eq!(delivery_logs(&sim_a), delivery_logs(&sim_b));
        prop_assert_eq!(sim_a.stats(), sim_b.stats());
        let da: Vec<_> = sim_a.actors().iter().map(|a| a.decided).collect();
        let db: Vec<_> = sim_b.actors().iter().map(|a| a.decided).collect();
        prop_assert_eq!(da, db);
    }

    // Drops are genuine losses, but only on the lossy links: traffic
    // between processes not named by any lossy entry is unaffected, so
    // (gossip aside) every such process still hears every such origin.
    #[test]
    fn drops_only_starve_the_lossy_links(
        n in 4usize..7,
        seed in any::<u64>(),
        drop in 0.3f64..1.0,
    ) {
        // Process 0 is the lossy one, in both directions.
        let schedule = FaultSchedule::new().lossy_processes([ProcessId::new(0)], drop, 0.0);
        let (sim, quiescent) = run_census(n, seed, schedule);
        prop_assert!(quiescent, "drops must never livelock the network");
        for (i, actor) in sim.actors().iter().enumerate().skip(1) {
            for j in 1..n {
                prop_assert!(
                    actor.seen[j].is_some(),
                    "p{i} must still hear p{j}: only links touching p0 are lossy"
                );
            }
        }
    }
}

/// Fixed-scenario regression pin: one known schedule, one seed — catches
/// any accidental change to the chaos RNG stream, the per-delivery
/// decision order (partition → drop → dup → crash), or the deferred-
/// delivery arithmetic.
#[test]
fn fixed_seed_chaos_run_is_byte_stable() {
    let schedule = FaultSchedule::new()
        .partition([ProcessId::new(0), ProcessId::new(1)], 4, 70)
        .crash(ProcessId::new(2), 2, 40)
        .lossy_link(Some(ProcessId::new(3)), None, 0.25, 0.0)
        .dup_all(0.2);
    let (sim, quiescent) = run_census(5, 31, schedule.clone());
    assert!(quiescent);
    let (again, _) = run_census(5, 31, schedule);
    assert_eq!(delivery_logs(&sim), delivery_logs(&again));
    // Conservation: every sent message is delivered or dropped, and every
    // duplication adds exactly one extra delivery.
    let stats = sim.stats();
    assert_eq!(
        stats.delivered,
        stats.sent - stats.dropped + stats.duplicated
    );
    assert!(stats.held_partition > 0, "the cut must have held something");
    assert!(
        stats.held_crash > 0,
        "the crash window must have held something"
    );
    assert!(stats.dropped > 0, "the lossy link must have lost something");
}
