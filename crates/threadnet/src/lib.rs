//! A threaded message-passing runtime running the **same actors** as the
//! discrete-event simulator, under real OS concurrency.
//!
//! Where `dex-simnet` explores adversarial schedules deterministically,
//! this runtime demonstrates that the protocol state machines are not
//! simulation artifacts: each process is a thread, messages travel over
//! `crossbeam` channels through a delay-injecting dispatcher, and delivery
//! order is whatever the OS scheduler produces. Causal step depths are
//! carried on the wire exactly as in the simulator.
//!
//! What each worker owes its actor — the context clock (virtual time units
//! are **microseconds of wall clock**), the outbox/timer drain and its
//! depth rules, the wire ledger, recorder events — is the shared
//! [`ActorHost`] (see [`dex_simnet::host`]), the same one `dex-netd` runs
//! on. This crate is the transport under it: the delay-injecting
//! dispatcher, the clone-per-peer multicast fan-out and quiescence
//! detection. An armed timer counts as in-flight traffic — quiescence waits
//! for it, exactly as the simulator's event queue would.
//!
//! Delays come from the simulator's own [`DelayModel`], one unit per
//! microsecond, sampled per envelope and link: a `Skewed` slow sender or a
//! `Targeted` starved link slows the same processes and links on threads
//! as in the simulator (the draws themselves come from this runtime's own
//! seeded stream).
//!
//! Quiescence is detected with an in-flight message counter: the network
//! has drained when no message is queued, delayed, being handled, or
//! waiting on a timer. A wall-clock timeout bounds runaway protocols; a
//! run cut off non-quiescent reports the residual in-flight count and the
//! per-process undrained inbox depths it left behind, so a stuck run is
//! diagnosable instead of just `quiescent: false`.
//!
//! This runtime has no kill or restart: the simulator's crash-restart
//! schedules and the netd cluster's `kill -9` phase cover recovery.
//!
//! # Examples
//!
//! ```
//! use dex_simnet::{Actor, Context};
//! use dex_threadnet::{run_network, NetworkOptions};
//! use dex_types::ProcessId;
//!
//! struct Counter { got: usize }
//! impl Actor for Counter {
//!     type Msg = u8;
//!     fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
//!         ctx.broadcast_others(1);
//!     }
//!     fn on_message(&mut self, _f: ProcessId, _m: &u8, _c: &mut Context<'_, u8>) {
//!         self.got += 1;
//!     }
//! }
//!
//! let actors = vec![Counter { got: 0 }, Counter { got: 0 }, Counter { got: 0 }];
//! let result = run_network(actors, NetworkOptions::default());
//! assert!(result.quiescent);
//! assert!(result.actors.iter().all(|a| a.got == 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dex_simnet::{Actor, ActorHost, DelayModel, Dest, NetStats};
use dex_types::{ProcessId, StepDepth};
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Options for a threaded network run.
#[derive(Clone, Debug)]
pub struct NetworkOptions {
    /// Seed for per-thread actor RNGs and delay draws.
    pub seed: u64,
    /// Per-message delay, one unit per microsecond.
    pub delay: DelayModel,
    /// Wall-clock budget; the run is cut off (non-quiescent) beyond it.
    pub timeout: Duration,
}

impl Default for NetworkOptions {
    fn default() -> Self {
        NetworkOptions {
            seed: 0,
            delay: DelayModel::Uniform { min: 50, max: 500 },
            timeout: Duration::from_secs(30),
        }
    }
}

/// Result of a threaded run.
#[derive(Debug)]
pub struct NetworkResult<A> {
    /// The actors, with whatever final state they reached.
    pub actors: Vec<A>,
    /// Whether the network drained before the timeout.
    pub quiescent: bool,
    /// In-flight messages (queued, delayed, being handled, or pending on
    /// a timer) at the moment a non-quiescent run was cut off. `0` for
    /// quiescent runs. A best-effort snapshot — the network is racing the
    /// supervisor by definition — but it distinguishes "cut off mid-storm"
    /// from "cut off waiting on one straggler".
    pub residual_inflight: u64,
    /// Per-process undrained inbox depths (messages forwarded by the
    /// dispatcher but never handled) at the same cutoff instant; index =
    /// process id, all zeros for quiescent runs. Pinpoints *which*
    /// process a stuck run starved or overwhelmed.
    pub undrained: Vec<u64>,
    /// Wire statistics, accumulated per worker and merged at join. The
    /// ledger matches the simulator's: class and size computed once per
    /// logical send, `Dest::All` counted as one multicast (whose payload
    /// the thread boundary clones `n − 1` times, so `payload_clones` is
    /// honest here where the simulator reports zero), every recipient
    /// copy counted in `sent` and `bytes_on_wire`, armed timers counted
    /// as byte-free sends. `stats.delivered` counts timer firings too.
    pub stats: NetStats,
}

struct Envelope<M> {
    from: ProcessId,
    depth: StepDepth,
    payload: M,
}

/// An entry in the dispatcher's delay heap.
struct Delayed<M> {
    due: Instant,
    seq: u64,
    to: usize,
    env: Envelope<M>,
}

impl<M> PartialEq for Delayed<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for Delayed<M> {}
impl<M> PartialOrd for Delayed<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Delayed<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.due.cmp(&other.due).then(self.seq.cmp(&other.seq))
    }
}

/// How long a worker or the dispatcher blocks before re-checking shutdown.
const IDLE: Duration = Duration::from_millis(20);

/// A worker's way into the network: the dispatcher channel plus the
/// in-flight count every queued envelope is added to.
struct Outlet<M> {
    me: ProcessId,
    n: usize,
    dispatch_tx: Sender<(usize, Envelope<M>)>,
    inflight: Arc<AtomicI64>,
}

impl<M: Clone> Outlet<M> {
    /// The host's send sink on this runtime: every recipient copy enters
    /// the dispatcher as its own envelope, `+1` in flight. The simulator
    /// shares one payload among a multicast's recipients; threads cannot,
    /// so the fan-out clones here (the `n − 1` the host's ledger is told
    /// about).
    fn sink(&self) -> impl FnMut(Dest, M, StepDepth) + '_ {
        move |dest, payload, depth| {
            let post = |to: usize, payload: M| {
                self.inflight.fetch_add(1, Ordering::AcqRel);
                // A send failure means the dispatcher already shut down.
                let _ = self.dispatch_tx.send((
                    to,
                    Envelope {
                        from: self.me,
                        depth,
                        payload,
                    },
                ));
            };
            match dest {
                Dest::To(to) => post(to.index(), payload),
                Dest::All => {
                    for to in 0..self.n - 1 {
                        post(to, payload.clone());
                    }
                    post(self.n - 1, payload);
                }
            }
        }
    }
}

/// Per-thread worker machinery: the [`ActorHost`] plus this runtime's
/// plumbing.
struct Worker<A: Actor> {
    host: ActorHost<A>,
    out: Outlet<A::Msg>,
    rx: Receiver<Envelope<A::Msg>>,
    shutdown: Arc<AtomicBool>,
    queue_depths: Arc<Vec<AtomicI64>>,
}

impl<A: Actor> Worker<A> {
    /// Rebalances the in-flight count after a host call that started with
    /// `tokens` of this worker's in flight (its pending timers, plus the
    /// envelope being handled if any): afterwards exactly the timers now
    /// pending remain. Runs after the call's sends were counted, so the
    /// total never dips to zero in between.
    fn settle(&self, tokens: usize) {
        let now = self.host.pending_timers() as i64;
        self.out
            .inflight
            .fetch_add(now - tokens as i64, Ordering::AcqRel);
    }

    /// Boots the actor (`on_start`) through the host.
    fn boot(&mut self, actor: &mut A) {
        self.host
            .boot(actor, |a, ctx| a.on_start(ctx), self.out.sink());
        self.settle(0);
    }

    /// Handles one network envelope through the host.
    fn handle(&mut self, actor: &mut A, env: Envelope<A::Msg>) {
        let tokens = self.host.pending_timers() + 1;
        let sink = self.out.sink();
        self.host
            .deliver(actor, env.from, env.depth, &env.payload, sink);
        self.settle(tokens);
    }

    /// Delivery loop: fires due timers and handles inbox envelopes until
    /// the network shuts down.
    fn run(&mut self, actor: &mut A) {
        loop {
            // Catch up on due timers before waiting on the inbox again.
            loop {
                let tokens = self.host.pending_timers();
                if !self.host.fire_due(actor, self.out.sink()) {
                    break;
                }
                self.settle(tokens);
            }
            match self.rx.recv_timeout(self.host.next_wait(IDLE)) {
                Ok(env) => {
                    self.queue_depths[self.out.me.index()].fetch_sub(1, Ordering::AcqRel);
                    self.handle(actor, env);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

/// Runs the actors to quiescence (or timeout) on one thread per actor.
///
/// Actor `i` becomes process `p_i`. Returns the actors for post-run
/// inspection (decisions, views, counters).
///
/// # Panics
///
/// Panics if `actors` is empty or a worker thread panics.
pub fn run_network<A>(actors: Vec<A>, options: NetworkOptions) -> NetworkResult<A>
where
    A: Actor + Send + 'static,
    A::Msg: Send,
{
    assert!(!actors.is_empty(), "need at least one actor");
    let n = actors.len();
    let start = Instant::now();

    // Worker inboxes.
    let mut worker_txs: Vec<Sender<Envelope<A::Msg>>> = Vec::with_capacity(n);
    let mut worker_rxs: Vec<Receiver<Envelope<A::Msg>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        worker_txs.push(tx);
        worker_rxs.push(rx);
    }

    // Dispatcher channel: workers push (to, envelope); the dispatcher holds
    // each message for its sampled delay, then forwards to the worker.
    let (dispatch_tx, dispatch_rx) = unbounded::<(usize, Envelope<A::Msg>)>();

    // In-flight accounting: +1 when a message enters the dispatcher or a
    // timer is armed, −1 after the receiving worker has fully handled the
    // delivery (including queueing its reactions). Zero ⇒ quiescent.
    let inflight = Arc::new(AtomicI64::new(0));
    let shutdown = Arc::new(AtomicBool::new(false));
    // Per-process inbox depth: +1 when the dispatcher forwards to a worker
    // queue, −1 when the worker dequeues. The vendored channel has no
    // `len()`, so depth is tracked at the endpoints.
    let queue_depths: Arc<Vec<AtomicI64>> = Arc::new((0..n).map(|_| AtomicI64::new(0)).collect());

    // Dispatcher thread.
    let dispatcher = {
        let worker_txs = worker_txs.clone();
        let shutdown = Arc::clone(&shutdown);
        let queue_depths = Arc::clone(&queue_depths);
        let delay = options.delay;
        let mut rng = StdRng::seed_from_u64(options.seed ^ 0xD15_0A7C);
        thread::spawn(move || {
            let mut heap: BinaryHeap<Reverse<Delayed<A::Msg>>> = BinaryHeap::new();
            let mut seq = 0u64;
            loop {
                let wait = heap
                    .peek()
                    .map(|Reverse(d)| d.due.saturating_duration_since(Instant::now()))
                    .unwrap_or(IDLE);
                match dispatch_rx.recv_timeout(wait.min(IDLE)) {
                    Ok((to, env)) => {
                        let us = delay.sample(&mut rng, env.from, ProcessId::new(to));
                        seq += 1;
                        heap.push(Reverse(Delayed {
                            due: Instant::now() + Duration::from_micros(us),
                            seq,
                            to,
                            env,
                        }));
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
                let now = Instant::now();
                while heap.peek().is_some_and(|Reverse(d)| d.due <= now) {
                    let Reverse(d) = heap.pop().expect("peeked");
                    queue_depths[d.to].fetch_add(1, Ordering::AcqRel);
                    // A send failure means the worker already shut down.
                    let _ = worker_txs[d.to].send(d.env);
                }
                if shutdown.load(Ordering::Acquire) {
                    // Flush anything still delayed, then exit.
                    while let Some(Reverse(d)) = heap.pop() {
                        queue_depths[d.to].fetch_add(1, Ordering::AcqRel);
                        let _ = worker_txs[d.to].send(d.env);
                    }
                    break;
                }
            }
        })
    };

    // Worker threads.
    let mut handles = Vec::with_capacity(n);
    for (i, mut actor) in actors.into_iter().enumerate() {
        let rx = worker_rxs.remove(0);
        let dispatch_tx = dispatch_tx.clone();
        let inflight = Arc::clone(&inflight);
        let shutdown = Arc::clone(&shutdown);
        let queue_depths = Arc::clone(&queue_depths);
        let seed = options.seed;
        handles.push(thread::spawn(move || {
            let me = ProcessId::new(i);
            let mut w = Worker {
                // The thread boundary clones a multicast's payload once
                // per peer channel; the ledger records that honestly.
                host: ActorHost::new(me, n, seed, start, n as u64 - 1),
                out: Outlet {
                    me,
                    n,
                    dispatch_tx,
                    inflight,
                },
                rx,
                shutdown,
                queue_depths,
            };
            w.boot(&mut actor);
            w.run(&mut actor);
            (actor, w.host.stats().clone())
        }));
    }
    drop(dispatch_tx);
    drop(worker_txs);

    // Supervise: quiescent when nothing is in flight (checked twice with a
    // settle gap to dodge the enqueue/handle race), or timeout.
    let mut quiescent = false;
    while start.elapsed() < options.timeout {
        if inflight.load(Ordering::Acquire) == 0 {
            thread::sleep(Duration::from_millis(30));
            if inflight.load(Ordering::Acquire) == 0 {
                quiescent = true;
                break;
            }
        } else {
            thread::sleep(Duration::from_millis(5));
        }
    }
    // Snapshot the residue *before* tearing the network down: after
    // shutdown the workers keep draining, which would under-report what
    // the cutoff actually interrupted.
    let (residual_inflight, undrained) = if quiescent {
        (0, vec![0; n])
    } else {
        (
            inflight.load(Ordering::Acquire).max(0) as u64,
            queue_depths
                .iter()
                .map(|d| d.load(Ordering::Acquire).max(0) as u64)
                .collect(),
        )
    };
    shutdown.store(true, Ordering::Release);
    dispatcher.join().expect("dispatcher thread panicked");
    let mut actors = Vec::with_capacity(n);
    let mut stats = NetStats::default();
    for h in handles {
        let (actor, wire) = h.join().expect("worker thread panicked");
        stats.merge(&wire);
        actors.push(actor);
    }
    NetworkResult {
        actors,
        quiescent,
        residual_inflight,
        undrained,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_simnet::Context;

    struct Echo {
        got: Vec<(ProcessId, u32, StepDepth)>,
    }

    impl Actor for Echo {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if ctx.me() == ProcessId::new(0) {
                ctx.broadcast_others(1);
            }
        }

        fn on_message(&mut self, from: ProcessId, msg: &u32, ctx: &mut Context<'_, u32>) {
            self.got.push((from, *msg, ctx.depth()));
            if *msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
    }

    #[test]
    fn echo_round_trip_reaches_quiescence() {
        let actors = (0..4).map(|_| Echo { got: Vec::new() }).collect();
        let result = run_network(
            actors,
            NetworkOptions {
                seed: 1,
                delay: DelayModel::Uniform { min: 10, max: 100 },
                timeout: Duration::from_secs(10),
            },
        );
        assert!(result.quiescent);
        // p0 broadcast `1` to 3 peers; each replied `0`: 6 deliveries.
        assert_eq!(result.stats.delivered, 6);
        // Depths travel on the wire: replies to p0 arrive at depth 2.
        assert_eq!(result.actors[0].got.len(), 3);
        assert!(result.actors[0]
            .got
            .iter()
            .all(|(_, _, d)| *d == StepDepth::new(2)));
        for a in &result.actors[1..] {
            assert_eq!(a.got.len(), 1);
        }
        // A drained run leaves no residue to report.
        assert_eq!(result.residual_inflight, 0);
        assert_eq!(result.undrained, vec![0; 4]);
        // The per-worker wire ledgers merge to the same totals the
        // simulator would report: 3 opener sends + 3 replies, all
        // unclassified (`Echo`'s `u32` payload has no class override),
        // no multicasts (`broadcast_others` expands to unicasts), and
        // the deepest causal step is the reply depth.
        assert_eq!(result.stats.sent, 6);
        assert_eq!(result.stats.sent_other, 6);
        assert_eq!(result.stats.multicasts, 0);
        assert_eq!(result.stats.max_depth, StepDepth::new(2));
        assert_eq!(result.stats.delivered_at_depth(StepDepth::new(2)), 3);
    }

    #[test]
    fn empty_traffic_is_quiescent_immediately() {
        struct Quiet;
        impl Actor for Quiet {
            type Msg = ();
            fn on_start(&mut self, _: &mut Context<'_, ()>) {}
            fn on_message(&mut self, _: ProcessId, _: &(), _: &mut Context<'_, ()>) {}
        }
        let result = run_network(vec![Quiet, Quiet], NetworkOptions::default());
        assert!(result.quiescent);
        assert_eq!(result.stats.delivered, 0);
    }

    #[test]
    fn timeout_cuts_off_livelock_and_reports_residue() {
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
        let result = run_network(
            vec![Forever, Forever],
            NetworkOptions {
                seed: 0,
                delay: DelayModel::Uniform { min: 1, max: 10 },
                timeout: Duration::from_millis(300),
            },
        );
        assert!(!result.quiescent);
        // A ping-pong livelock always has the ball in the air somewhere.
        assert!(result.residual_inflight > 0);
        assert_eq!(result.undrained.len(), 2);
    }

    #[test]
    fn wall_clock_timers_fire_in_order_and_count_toward_quiescence() {
        struct Alarm {
            fired: Vec<(u32, StepDepth)>,
        }
        impl Actor for Alarm {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if ctx.me() == ProcessId::new(0) {
                    // The long timer dwarfs the short one by two orders of
                    // magnitude so the chained timer armed by tick 1 still
                    // fires first even when a loaded scheduler delays the
                    // tick-1 handler by hundreds of milliseconds.
                    ctx.send_self_after(5_000, 1); // 5 ms
                    ctx.send_self_after(500_000, 2); // 500 ms
                }
            }
            fn on_message(&mut self, from: ProcessId, msg: &u32, ctx: &mut Context<'_, u32>) {
                assert_eq!(from, ctx.me(), "timer ticks are local");
                self.fired.push((*msg, ctx.depth()));
                if *msg == 1 {
                    // Chained timer: fires well before the 500 ms one.
                    ctx.send_self_after(1_000, 3);
                }
            }
        }
        let actors = vec![Alarm { fired: Vec::new() }, Alarm { fired: Vec::new() }];
        let result = run_network(
            actors,
            NetworkOptions {
                seed: 4,
                delay: DelayModel::Uniform { min: 10, max: 100 },
                timeout: Duration::from_secs(10),
            },
        );
        // Quiescence had to wait for the 500 ms timer: the run is only
        // quiescent because every pending timer fired.
        assert!(result.quiescent);
        assert_eq!(result.stats.delivered, 3);
        let fired = &result.actors[0].fired;
        assert_eq!(
            fired.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
            vec![1, 3, 2],
            "timers fire in due order, chained ones in between"
        );
        // on_start timers deliver at depth 1; the chained one at depth 2.
        assert_eq!(fired[0].1, StepDepth::ONE);
        assert_eq!(fired[1].1, StepDepth::new(2));
        assert_eq!(fired[2].1, StepDepth::ONE);
        assert!(result.actors[1].fired.is_empty());
    }

    #[test]
    fn per_link_delays_follow_the_targeted_model() {
        /// Broadcasts once at start and stamps its first delivery.
        struct Stamp {
            first: Option<u64>,
        }
        impl Actor for Stamp {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.broadcast_others(());
            }
            fn on_message(&mut self, _: ProcessId, _: &(), ctx: &mut Context<'_, ()>) {
                self.first.get_or_insert(ctx.now().as_units());
            }
        }
        // Only the p0 → p1 link is slow: 200 ms, against 1 µs elsewhere.
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let result = run_network(
            vec![Stamp { first: None }, Stamp { first: None }],
            NetworkOptions {
                seed: 3,
                delay: DelayModel::Targeted {
                    base: Box::new(DelayModel::Constant(1)),
                    links: vec![(p0, p1, 200_000)],
                },
                timeout: Duration::from_secs(10),
            },
        );
        assert!(result.quiescent);
        let stamp = |p: ProcessId| result.actors[p.index()].first.expect("delivered");
        assert!(stamp(p1) >= 200_000, "p1 heard p0 at {} µs", stamp(p1));
        assert!(stamp(p0) < stamp(p1), "the p1 → p0 link is not slowed");
    }
}
