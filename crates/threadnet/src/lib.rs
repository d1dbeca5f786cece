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
//! dispatcher, the clone-per-peer multicast fan-out, quiescence detection,
//! and kill/respawn of the actor value. An armed timer counts as in-flight
//! traffic — quiescence waits for it, exactly as the simulator's event
//! queue would.
//!
//! Quiescence is detected with an in-flight message counter: the network
//! has drained when no message is queued, delayed, being handled, or
//! waiting on a timer. A wall-clock timeout bounds runaway protocols; a
//! run cut off non-quiescent reports the residual in-flight count and the
//! per-process undrained inbox depths it left behind, so a stuck run is
//! diagnosable instead of just `quiescent: false`.
//!
//! [`run_network_with_kill`] adds the thread-level analogue of the netd
//! cluster's `kill -9` phase: one worker's actor is destroyed mid-run
//! (volatile state and armed timers gone, envelopes arriving while dead
//! are lost), then rebuilt from durable state via
//! [`Recoverable::restart`] after a configurable down window — the same
//! WAL-replay recovery story as the process-level runtime, exercised
//! under OS threads where the survivors keep running throughout.
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
use dex_simnet::{Actor, ActorHost, Context, Dest, NetStats, Recoverable};
use dex_types::{ProcessId, StepDepth};
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Options for a threaded network run.
#[derive(Clone, Debug)]
pub struct NetworkOptions {
    /// Seed for per-thread actor RNGs and delay jitter.
    pub seed: u64,
    /// Artificial per-message delay range, in microseconds.
    pub delay_us: (u64, u64),
    /// Wall-clock budget; the run is cut off (non-quiescent) beyond it.
    pub timeout: Duration,
}

impl Default for NetworkOptions {
    fn default() -> Self {
        NetworkOptions {
            seed: 0,
            delay_us: (50, 500),
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
    /// Total messages delivered (timer firings included).
    pub delivered: u64,
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
    /// as byte-free sends.
    pub stats: NetStats,
    /// Wall-clock time from network start to supervisor teardown.
    pub elapsed: Duration,
    /// Completed kill/respawn cycles. Always `0` for [`run_network`];
    /// `1` when [`run_network_with_kill`]'s victim died and its rebuilt
    /// incarnation booted through [`Recoverable::restart`], `0` if the
    /// run was cut off before the kill fired.
    pub restarts: u64,
}

/// A thread-level `kill -9` plan for [`run_network_with_kill`].
///
/// At `after` into the run the victim's worker thread destroys its actor:
/// in-memory state is gone, armed timers are lost, and every envelope
/// arriving during the `down` window is discarded — a dead process loses
/// its inbox. When the window closes, `rebuild` constructs the fresh
/// incarnation (typically re-opening the same WAL the first incarnation
/// wrote) and the worker boots it through [`Recoverable::restart`], whose
/// recovery sends enter the network at causal depth 1 like `on_start`
/// traffic. The worker thread itself survives — threads cannot be killed
/// from outside — so the kill is simulated at the actor boundary, which
/// is exactly the state a real `kill -9` destroys.
pub struct ThreadKillPlan<A> {
    /// The process to kill. Must not be the only process.
    pub victim: ProcessId,
    /// Wall-clock delay from network start to the kill.
    pub after: Duration,
    /// How long the victim stays dead before the respawn boots.
    pub down: Duration,
    /// Builds the respawned incarnation; its durable state (e.g. a
    /// `FileWal` path) must match what the first incarnation persisted.
    pub rebuild: Box<dyn FnOnce() -> A + Send>,
}

/// [`Recoverable::restart`] as a plain fn pointer, captured where the
/// `Recoverable` bound is available so `run_inner` needs only `Actor`.
type RestartHook<A> = fn(&mut A, &mut Context<'_, <A as Actor>::Msg>);

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

/// Per-thread worker machinery: the [`ActorHost`] — which, like the
/// inbox, survives a kill, so a kill/respawn run drives two actor
/// incarnations through one worker — plus this runtime's plumbing.
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

    /// Runs a boot hook (`on_start`, or [`Recoverable::restart`] on a
    /// respawn) through the host.
    fn boot(&mut self, actor: &mut A, hook: impl FnOnce(&mut A, &mut Context<'_, A::Msg>)) {
        let tokens = self.host.pending_timers();
        self.host.boot(actor, hook, self.out.sink());
        self.settle(tokens);
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
    /// the network shuts down (returns `false`) or `die_at` passes
    /// (returns `true` — the caller owns what happens to the corpse).
    fn run(&mut self, actor: &mut A, die_at: Option<Instant>) -> bool {
        loop {
            if die_at.is_some_and(|at| Instant::now() >= at) {
                return true;
            }
            // Catch up on due timers before waiting on the inbox again.
            loop {
                let tokens = self.host.pending_timers();
                if !self.host.fire_due(actor, self.out.sink()) {
                    break;
                }
                self.settle(tokens);
            }
            let mut wait = self.host.next_wait(IDLE);
            if let Some(at) = die_at {
                wait = wait.min(at.saturating_duration_since(Instant::now()));
            }
            match self.rx.recv_timeout(wait) {
                Ok(env) => {
                    self.queue_depths[self.out.me.index()].fetch_sub(1, Ordering::AcqRel);
                    if die_at.is_some_and(|at| Instant::now() >= at) {
                        // The kill lands before this envelope is
                        // handled: it dies with the process.
                        self.out.inflight.fetch_sub(1, Ordering::AcqRel);
                        return true;
                    }
                    self.handle(actor, env);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return false;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return false,
            }
        }
    }

    /// Destroys what a `kill -9` destroys, then sits dead for `down`:
    /// armed timers are dropped (each was counted in flight), and every
    /// envelope forwarded to the corpse during the window is discarded —
    /// messages to a dead process are lost, not queued for the respawn.
    fn crash(&mut self, down: Duration) {
        let lost_timers = self.host.drop_timers() as i64;
        self.out.inflight.fetch_sub(lost_timers, Ordering::AcqRel);
        let until = Instant::now() + down;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() || self.shutdown.load(Ordering::Acquire) {
                break;
            }
            match self.rx.recv_timeout(left.min(IDLE)) {
                Ok(_) => {
                    self.queue_depths[self.out.me.index()].fetch_sub(1, Ordering::AcqRel);
                    self.out.inflight.fetch_sub(1, Ordering::AcqRel);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
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
    run_inner(actors, options, None)
}

/// Runs the actors like [`run_network`], killing and respawning one of
/// them mid-run per `plan` — the thread-level analogue of the netd
/// cluster's `kill -9` phase.
///
/// A respawn-pending in-flight token is held from network start until
/// the rebuilt incarnation's [`Recoverable::restart`] sends are queued,
/// so the supervisor cannot declare quiescence while the victim is dead
/// or the kill has yet to fire: the run drains only once recovery
/// traffic has itself drained.
///
/// # Panics
///
/// Panics if `actors` is empty, `plan.victim` is out of range, or a
/// worker thread panics.
pub fn run_network_with_kill<A>(
    actors: Vec<A>,
    options: NetworkOptions,
    plan: ThreadKillPlan<A>,
) -> NetworkResult<A>
where
    A: Actor + Recoverable + Send + 'static,
    A::Msg: Send,
{
    assert!(
        plan.victim.index() < actors.len(),
        "victim {} out of range for {} actors",
        plan.victim.index(),
        actors.len()
    );
    run_inner(actors, options, Some((plan, |a, ctx| a.restart(ctx))))
}

fn run_inner<A>(
    actors: Vec<A>,
    options: NetworkOptions,
    mut kill: Option<(ThreadKillPlan<A>, RestartHook<A>)>,
) -> NetworkResult<A>
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
    let restarts = Arc::new(AtomicU64::new(0));
    // Respawn-pending token: held from network start until the respawned
    // incarnation's restart sends are queued, so the network cannot drain
    // while the kill is pending or the victim is down.
    if kill.is_some() {
        inflight.fetch_add(1, Ordering::AcqRel);
    }
    // Per-process inbox depth: +1 when the dispatcher forwards to a worker
    // queue, −1 when the worker dequeues. The vendored channel has no
    // `len()`, so depth is tracked at the endpoints.
    let queue_depths: Arc<Vec<AtomicI64>> = Arc::new((0..n).map(|_| AtomicI64::new(0)).collect());

    // Dispatcher thread.
    let dispatcher = {
        let worker_txs = worker_txs.clone();
        let shutdown = Arc::clone(&shutdown);
        let queue_depths = Arc::clone(&queue_depths);
        let (lo, hi) = options.delay_us;
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
                        let delay = Duration::from_micros(rng.random_range(lo..=hi.max(lo)));
                        seq += 1;
                        heap.push(Reverse(Delayed {
                            due: Instant::now() + delay,
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
        let restarts = Arc::clone(&restarts);
        let seed = options.seed;
        let task = kill.take_if(|(plan, _)| plan.victim.index() == i);
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
            w.boot(&mut actor, |a, ctx| a.on_start(ctx));
            match task {
                None => {
                    w.run(&mut actor, None);
                }
                Some((plan, restart)) => {
                    if w.run(&mut actor, Some(start + plan.after)) {
                        // kill -9: the first incarnation's volatile state
                        // dies here; only what it persisted survives.
                        drop(actor);
                        w.crash(plan.down);
                        actor = (plan.rebuild)();
                        w.boot(&mut actor, restart);
                        restarts.fetch_add(1, Ordering::AcqRel);
                        // Recovery traffic is queued: release the
                        // respawn-pending token.
                        w.out.inflight.fetch_sub(1, Ordering::AcqRel);
                        w.run(&mut actor, None);
                    } else {
                        // Cut off before the kill fired; release the
                        // token so teardown accounting stays balanced.
                        w.out.inflight.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }
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
        delivered: stats.delivered,
        residual_inflight,
        undrained,
        stats,
        elapsed: start.elapsed(),
        restarts: restarts.load(Ordering::Acquire),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                delay_us: (10, 100),
                timeout: Duration::from_secs(10),
            },
        );
        assert!(result.quiescent);
        // p0 broadcast `1` to 3 peers; each replied `0`: 6 deliveries.
        assert_eq!(result.delivered, 6);
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
        assert_eq!(result.stats.delivered, result.delivered);
        assert_eq!(result.stats.sent_other, 6);
        assert_eq!(result.stats.multicasts, 0);
        assert_eq!(result.stats.max_depth, StepDepth::new(2));
        assert_eq!(result.stats.delivered_at_depth(StepDepth::new(2)), 3);
        assert!(result.elapsed > Duration::ZERO);
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
        assert_eq!(result.delivered, 0);
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
                delay_us: (1, 10),
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
                delay_us: (10, 100),
                timeout: Duration::from_secs(10),
            },
        );
        // Quiescence had to wait for the 500 ms timer: the run is only
        // quiescent because every pending timer fired.
        assert!(result.quiescent);
        assert_eq!(result.delivered, 3);
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

    #[derive(Clone, Debug)]
    enum PingMsg {
        Tick,
        Ping,
        Pong,
    }

    /// p0 pings p1 on a repeating timer until it has collected `want`
    /// pongs; p1 counts handled pings into a shared cell that plays the
    /// role of a WAL (it survives the kill; the struct does not).
    struct PingNode {
        durable_pongs: Arc<AtomicU64>,
        restored: u64,
        pongs_seen: u64,
        want: u64,
    }

    impl Actor for PingNode {
        type Msg = PingMsg;

        fn on_start(&mut self, ctx: &mut Context<'_, PingMsg>) {
            if ctx.me() == ProcessId::new(0) {
                ctx.send_self_after(20_000, PingMsg::Tick);
            }
        }

        fn on_message(&mut self, from: ProcessId, msg: &PingMsg, ctx: &mut Context<'_, PingMsg>) {
            match msg {
                PingMsg::Tick => {
                    if self.pongs_seen < self.want {
                        ctx.send(ProcessId::new(1), PingMsg::Ping);
                        ctx.send_self_after(20_000, PingMsg::Tick);
                    }
                }
                PingMsg::Ping => {
                    self.durable_pongs.fetch_add(1, Ordering::AcqRel);
                    ctx.send(from, PingMsg::Pong);
                }
                PingMsg::Pong => self.pongs_seen += 1,
            }
        }
    }

    impl Recoverable for PingNode {
        fn restart(&mut self, _ctx: &mut Context<'_, PingMsg>) {
            self.restored = self.durable_pongs.load(Ordering::Acquire);
        }
    }

    #[test]
    fn kill_respawn_loses_down_window_traffic_and_restores_durable_state() {
        let durable = Arc::new(AtomicU64::new(0));
        let actors = vec![
            PingNode {
                durable_pongs: Arc::new(AtomicU64::new(0)),
                restored: 0,
                pongs_seen: 0,
                want: 5,
            },
            PingNode {
                durable_pongs: Arc::clone(&durable),
                restored: 0,
                pongs_seen: 0,
                want: 5,
            },
        ];
        let rebuild_cell = Arc::clone(&durable);
        let result = run_network_with_kill(
            actors,
            NetworkOptions {
                seed: 9,
                delay_us: (10, 100),
                timeout: Duration::from_secs(20),
            },
            ThreadKillPlan {
                victim: ProcessId::new(1),
                after: Duration::from_millis(50),
                down: Duration::from_millis(120),
                // The sentinel `restored` proves restart() ran: only the
                // recovery hook overwrites it with the durable count.
                rebuild: Box::new(move || PingNode {
                    durable_pongs: rebuild_cell,
                    restored: u64::MAX,
                    pongs_seen: 0,
                    want: 5,
                }),
            },
        );
        assert_eq!(result.restarts, 1, "the kill fired and the respawn booted");
        assert!(result.quiescent, "the conversation must finish and drain");
        // Pings swallowed by the down window were re-sent by the ticker
        // until five of them found a live echoer.
        assert!(result.actors[0].pongs_seen >= 5);
        assert!(durable.load(Ordering::Acquire) >= result.actors[0].pongs_seen);
        // The respawned incarnation rebooted through restart(), replacing
        // its sentinel with the state the first incarnation persisted.
        assert_ne!(result.actors[1].restored, u64::MAX);
    }

    #[test]
    fn a_run_cut_off_before_the_kill_reports_zero_restarts() {
        struct Quiet;
        impl Actor for Quiet {
            type Msg = ();
            fn on_start(&mut self, _: &mut Context<'_, ()>) {}
            fn on_message(&mut self, _: ProcessId, _: &(), _: &mut Context<'_, ()>) {}
        }
        impl Recoverable for Quiet {
            fn restart(&mut self, _: &mut Context<'_, ()>) {}
        }
        // The kill is scheduled far beyond the timeout: the run is cut
        // off first, the victim worker releases the respawn-pending token
        // on shutdown, and the teardown must not hang or respawn.
        let result = run_network_with_kill(
            vec![Quiet, Quiet],
            NetworkOptions {
                seed: 0,
                delay_us: (1, 10),
                timeout: Duration::from_millis(200),
            },
            ThreadKillPlan {
                victim: ProcessId::new(1),
                after: Duration::from_secs(3600),
                down: Duration::from_millis(1),
                rebuild: Box::new(|| Quiet),
            },
        );
        assert_eq!(result.restarts, 0);
        // The pending kill holds the in-flight token, so an otherwise
        // silent network is (correctly) reported non-quiescent.
        assert!(!result.quiescent);
    }
}
