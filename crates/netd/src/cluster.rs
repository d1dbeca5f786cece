//! The cluster harness: spawn, drive, kill and judge real OS processes.
//!
//! `dex-netd --cluster` is the orchestrator. From one [`RunSpec`] — the
//! same serializable spec that drives simnet and threadnet — it runs one
//! of two phases on localhost TCP: the kill -9 run when the invocation
//! names `--slots K`, the consensus cells otherwise.
//!
//! 1. **Consensus cells** (the campaign MATRIX's fault-free cells): run
//!    `i` is the spec's batch run `i` ([`RunSpec::instance`] — the very
//!    derivation `run_batch` executes, with netd's last-`f` fault
//!    budget), `n` child processes are spawned — each a [`DexActor`] on an
//!    [`Endpoint`] that derives its proposal and chaos schedule as
//!    `instance(0)` of its run's spec, and boots once its mesh is
//!    connected — and every awaited child's `DECIDED` report becomes that
//!    process's [`Outcome`]. The cell is one [`RunResult`], judged for
//!    agreement and unanimity and folded into the [`BatchStats`] ledger
//!    every runtime shares, next to its *simnet twin*: the same
//!    [`RunInstance`] run in the simulator.
//! 2. **kill -9 + respawn**: `n` replica children run `K` slots of DEX,
//!    each proposing its own pending stream, against per-process
//!    [`FileWal`]s. One non-coordinator victim — a fault, so the run needs
//!    `t ≥ 1` — is killed with a literal `SIGKILL` mid-run; every survivor
//!    must then commit past it before the victim is respawned with
//!    `--respawn`. The fresh incarnation replays its WAL, re-proposes, and
//!    closes the gap through the `t + 1`-vouched catch-up protocol. The
//!    phase converges when every replica reports the full committed prefix
//!    and a single state-machine digest.
//!
//! A child's argv is its run's own [`RunSpec::to_args`] (the run seed,
//! `--runtime netd --peers <table>`) plus role flags — a child given
//! `--wal` is a replica, any other a consensus process; children report on
//! stdout in the [`Report`] line grammar, from one serve loop (pump, print
//! what changed, keep serving).
//!
//! The parent waits in one place. Every child's stdout reader sends its
//! lines, tagged with the child's spawn index, on the phase's one channel,
//! and each line folds into that spawn's ledger: highest committed prefix,
//! decision, `DONE`, `STATS`, chaos links. A respawn is a new spawn with
//! an empty ledger. Each step — a cell's decisions, the kill -9 victim's
//! prefix, the survivors' floor, convergence — is one wait until
//! a predicate holds of every awaited ledger. A wait fails at once on a
//! malformed report or a child that exited on its own (its id, exit status
//! and stderr tail), and at the deadline it names every awaited process
//! with its ledger.
//!
//! The parent writes the wall-clock artifact `results/netd_<seed>.json`:
//! the spec as the `dex-sim` flags that replay it, next to a `"bench"`
//! object of rows — one per consensus cell, each ending with its twin's
//! one- and two-step counts, or the one kill -9 row. Each child also
//! watches its stdin and exits when the parent goes away, so an aborted
//! harness never leaks orphan processes.

use crate::chaos::{splitmix64, ChaosReport, ChaosRuntime};
use crate::codec::WireCodec;
use crate::endpoint::Endpoint;
use crate::listener::free_loopback_addrs;
use dex_conditions::FrequencyPair;
use dex_core::{DexActor, DexProcess};
use dex_harness::json;
use dex_harness::runner::{
    run_instance, Algo, BatchStats, Outcome, Placement, RunInstance, RunResult,
};
use dex_harness::spec::{
    AddressTable, AdversarySpec, ChaosSpec, RunSpec, RuntimeSpec, UnderlyingSpec,
};
use dex_replication::{Durability, FileWal, Replica, StateMachine, TotalOrder};
use dex_simnet::{Actor, NetStats, Time};
use dex_types::{DecisionPath, ProcessId, StepDepth, SystemConfig};
use dex_underlying::OracleConsensus;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Parsed `--cluster` options: the shared [`RunSpec`] plus netd-specific
/// knobs.
#[derive(Clone, Debug)]
pub struct ClusterOpts {
    /// The spec driving workload, `n`/`t`, seeding, `--stats`, the kill9
    /// window (`--pipeline <W>`) and kill threshold (`--kill`).
    pub spec: RunSpec,
    /// `--slots K`: run the kill -9 phase to `K` committed slots. `None`
    /// runs the consensus cells.
    pub slots: Option<u64>,
    /// Per-phase wall-clock budget before the harness gives up.
    pub timeout: Duration,
}

/// Options one spawned child parses back out of its argv.
#[derive(Clone, Debug)]
pub struct NodeOpts {
    /// This process's id.
    pub me: ProcessId,
    /// The run's spec: system size, run seed, workload, chaos schedule
    /// and fault budget, aggregation, kill9 window, and the `--peers`
    /// table this child binds entry `me` of.
    pub spec: RunSpec,
    /// What this child runs.
    pub role: Role,
}

/// A child's role.
#[derive(Clone, Debug)]
pub enum Role {
    /// Single-shot DEX consensus on entry `me` of the spec's run-0 input.
    Consensus {
        /// The cell's budget (`--timeout-secs`): the child waits up to
        /// half of it for its mesh to connect before it boots, so a
        /// failed wait reaches the parent inside the budget.
        timeout: Duration,
    },
    /// Multi-slot replication against a WAL (the child given `--wal`).
    Replica {
        /// WAL path (unique per process, stable across respawns).
        wal: PathBuf,
        /// Target committed slots.
        slots: u64,
        /// Boot through crash recovery instead of `on_start`.
        respawn: bool,
    },
}

// ---------------------------------------------------------------------
// The stdout report grammar.
// ---------------------------------------------------------------------

/// One line a child reports on stdout — the one owner of the
/// `KEYWORD k1=v1 k2=v2 …` grammar, both its spelling (child side) and
/// its parsing (parent side).
#[derive(Clone, PartialEq, Debug)]
pub enum Report {
    /// A consensus child decided.
    Decided {
        /// The decided value.
        value: u64,
        /// Which mechanism decided.
        path: DecisionPath,
        /// Causal step depth of the decision.
        depth: StepDepth,
        /// Wall µs from boot to the report.
        elapsed_us: u64,
    },
    /// A replica's committed prefix moved to this length.
    Progress(u64),
    /// A replica committed the target prefix.
    Done {
        /// Its state-machine digest.
        digest: u64,
        /// Its committed prefix.
        prefix: u64,
        /// Incarnations it was restarted through.
        restarts: u64,
    },
    /// The child's wire ledger; the last line of its report.
    Stats(NetStats),
    /// One outbound link's fault trace (chaos cells only).
    Chaos(ChaosReport),
}

/// Extracts `key=` from a `KEY k1=v1 k2=v2 …` report line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|tok| {
        tok.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
    })
}

impl Report {
    /// The report as the line a child prints.
    pub fn line(&self) -> String {
        match self {
            Report::Decided {
                value,
                path,
                depth,
                elapsed_us,
            } => format!(
                "DECIDED value={value} path={} depth={} elapsed_us={elapsed_us}",
                path.label(),
                depth.get()
            ),
            Report::Progress(prefix) => format!("PROGRESS prefix={prefix}"),
            Report::Done {
                digest,
                prefix,
                restarts,
            } => format!("DONE digest={digest:#018x} prefix={prefix} restarts={restarts}"),
            Report::Stats(net) => format!(
                "STATS sent={} delivered={} multicasts={} clones={} bytes={} init={} echo={} batch={} other={} batched={} max_depth={}",
                net.sent,
                net.delivered,
                net.multicasts,
                net.payload_clones,
                net.bytes_on_wire,
                net.sent_init,
                net.sent_echo,
                net.sent_batch,
                net.sent_other,
                net.echoes_batched,
                net.max_depth.get(),
            ),
            Report::Chaos(c) => format!(
                "CHAOS to={} sched={:#018x} frames={} drops={} dups={} held={} torn={}",
                c.to, c.sched, c.frames, c.drops, c.dups, c.held, c.torn
            ),
        }
    }

    /// Parses one stdout line: `Ok(None)` when it starts with no report
    /// keyword, an error when it does but does not parse.
    pub fn parse(line: &str) -> Result<Option<Report>, String> {
        let keyword = line.split_whitespace().next().unwrap_or_default();
        let bad = || format!("malformed {keyword} report {line:?}");
        let raw = |key: &str| field(line, key).ok_or_else(bad);
        let num = |key: &str| raw(key)?.parse::<u64>().map_err(|_| bad());
        let hex = |key: &str| {
            raw(key)?
                .strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(bad)
        };
        let report = match keyword {
            "DECIDED" => {
                let path = raw("path")?;
                Report::Decided {
                    value: num("value")?,
                    path: [
                        DecisionPath::OneStep,
                        DecisionPath::TwoStep,
                        DecisionPath::Underlying,
                    ]
                    .into_iter()
                    .find(|p| p.label() == path)
                    .ok_or_else(bad)?,
                    depth: StepDepth::new(num("depth")? as u32),
                    elapsed_us: num("elapsed_us")?,
                }
            }
            "PROGRESS" => Report::Progress(num("prefix")?),
            "DONE" => Report::Done {
                digest: hex("digest")?,
                prefix: num("prefix")?,
                restarts: num("restarts")?,
            },
            "STATS" => Report::Stats(NetStats {
                sent: num("sent")?,
                delivered: num("delivered")?,
                multicasts: num("multicasts")?,
                payload_clones: num("clones")?,
                bytes_on_wire: num("bytes")?,
                sent_init: num("init")?,
                sent_echo: num("echo")?,
                sent_batch: num("batch")?,
                sent_other: num("other")?,
                echoes_batched: num("batched")?,
                max_depth: StepDepth::new(num("max_depth")? as u32),
                ..NetStats::default()
            }),
            "CHAOS" => Report::Chaos(ChaosReport {
                to: num("to")? as usize,
                sched: hex("sched")?,
                frames: num("frames")?,
                drops: num("drops")?,
                dups: num("dups")?,
                held: num("held")?,
                torn: num("torn")?,
            }),
            _ => return Ok(None),
        };
        Ok(Some(report))
    }
}

/// Prints `reports` on stdout as one flushed block.
fn report(reports: &[Report]) {
    let mut out = std::io::stdout().lock();
    for r in reports {
        let _ = writeln!(out, "{}", r.line());
    }
    let _ = out.flush();
}

// ---------------------------------------------------------------------
// Child mains.
// ---------------------------------------------------------------------

/// Exits this process when its stdin reaches EOF — i.e. when the parent
/// harness died or dropped the pipe. Children otherwise serve forever
/// (late echoes, catch-up replies) and are reaped by the parent.
fn exit_with_parent() {
    thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(0)
    });
}

/// Runs one child process until killed by the parent. Never returns on
/// the happy path.
pub fn run_node(opts: NodeOpts) -> Result<(), String> {
    exit_with_parent();
    let cfg = opts.spec.config()?;
    let peers = opts.spec.runtime.peers().ok_or("--peers required")?.clone();
    match &opts.role {
        Role::Consensus { timeout } => consensus_node(&opts, cfg, peers, *timeout),
        Role::Replica {
            wal,
            slots,
            respawn,
        } => replica_node(&opts, cfg, peers, wal, *slots, *respawn),
    }
}

fn consensus_node(
    opts: &NodeOpts,
    cfg: SystemConfig,
    peers: AddressTable,
    timeout: Duration,
) -> Result<(), String> {
    let spec = &opts.spec;
    // The parent hands each child its cell's run as run 0 of a spec at the
    // run seed, so this is the parent's `instance(i)`: the same input, and
    // the schedule compiled against the same last-`f` budget — real
    // processes running correct code, never awaited.
    let inst = spec.instance(0)?;
    let pair = FrequencyPair::new(cfg).map_err(|e| e.to_string())?;
    let uc = OracleConsensus::new(cfg, opts.me, ProcessId::new(0));
    let mut actor = DexActor::new(DexProcess::new(cfg, opts.me, pair, uc), inst.input[opts.me]);
    if spec.aggregate {
        actor.enable_aggregation();
    }
    let chaos = (!spec.chaos.is_none())
        .then(|| Arc::new(ChaosRuntime::new(inst.faults, cfg.n(), opts.me, spec.seed)));
    let mut ep = Endpoint::with_net(actor, opts.me, peers, spec.seed, chaos.clone())
        .map_err(|e| format!("bind: {e}"))?;
    // Siblings derive their run at their own pace (a hot-key workload
    // compiles a large client population), so boot only once every peer
    // is linked: all children then start together, and this child's
    // latency and chaos clocks count from its boot, not from its bind.
    let deadline = Instant::now() + timeout / 2;
    while !ep.unconnected().is_empty() {
        if Instant::now() >= deadline {
            let missing: Vec<usize> = ep.unconnected().iter().map(|p| p.index()).collect();
            return Err(format!(
                "process {}: no link to processes {missing:?} within {:?}",
                opts.me.index(),
                timeout / 2
            ));
        }
        thread::sleep(Duration::from_millis(1));
    }
    if let Some(chaos) = &chaos {
        chaos.start_clock();
    }
    let booted = Instant::now();
    ep.boot();
    let mut announced = false;
    serve(ep, Duration::from_millis(10), |ep| {
        let Some(d) = ep.actor().decision().filter(|_| !announced) else {
            return Vec::new();
        };
        announced = true;
        let mut reports: Vec<Report> = chaos
            .iter()
            .flat_map(|c| c.reports())
            .map(Report::Chaos)
            .collect();
        reports.push(Report::Decided {
            value: d.value,
            path: d.path,
            depth: d.depth,
            elapsed_us: booted.elapsed().as_micros() as u64,
        });
        reports.push(Report::Stats(ep.stats().clone()));
        reports
    })
}

fn replica_node(
    opts: &NodeOpts,
    cfg: SystemConfig,
    peers: AddressTable,
    wal: &std::path::Path,
    slots: u64,
    respawn: bool,
) -> Result<(), String> {
    let spec = &opts.spec;
    // Every process derives its *own* pending stream from `(seed, me,
    // slot)`: slots are contested, decisions ride the coordinator
    // fallback, and the kill -9 victim dies holding state no other process
    // can reconstruct locally — convergence proves WAL replay plus `t + 1`
    // catch-up, not lockstep recomputation.
    let pending: Vec<u64> = (0..slots)
        .map(|s| splitmix64(spec.seed ^ ((opts.me.index() as u64) << 32) ^ s))
        .collect();
    let mut replica: Replica<TotalOrder<u64>> =
        Replica::new(cfg, opts.me, ProcessId::new(0), pending, slots);
    replica.enable_pipelining(spec.pipeline.window);
    // `snapshot_every = 0`: never compact, recovery replays the full WAL.
    // In-memory snapshots would not survive a kill -9 anyway.
    let file_wal = FileWal::open(wal).map_err(|e| format!("wal {}: {e}", wal.display()))?;
    replica.enable_durability(Durability::new(Box::new(file_wal), 0));
    let mut ep = Endpoint::with_net(replica, opts.me, peers, spec.seed, None)
        .map_err(|e| format!("bind: {e}"))?;
    if respawn {
        ep.boot_restart();
    } else {
        ep.boot();
    }
    let (mut last_prefix, mut done) = (usize::MAX, false);
    serve(ep, Duration::from_millis(5), |ep| {
        let prefix = ep.actor().log().committed_prefix();
        let mut reports = Vec::new();
        if prefix != last_prefix {
            reports.push(Report::Progress(prefix as u64));
            last_prefix = prefix;
        }
        if !done && prefix as u64 >= slots {
            reports.push(Report::Done {
                digest: ep.actor().machine().digest(),
                prefix: prefix as u64,
                restarts: u64::from(ep.actor().restarts()),
            });
            reports.push(Report::Stats(ep.stats().clone()));
            done = true;
        }
        reports
    })
}

/// A child's serve loop, until the parent kills it: pump `ep` for up to
/// `idle`, then print what `news` has to report — nothing, most turns. A
/// child that has reported everything keeps serving: peers may still need
/// its echoes or catch-up replies.
fn serve<A: Actor>(
    mut ep: Endpoint<A>,
    idle: Duration,
    mut news: impl FnMut(&Endpoint<A>) -> Vec<Report>,
) -> !
where
    A::Msg: WireCodec + Clone,
{
    loop {
        ep.pump(idle);
        report(&news(&ep));
    }
}

// ---------------------------------------------------------------------
// Parent orchestration.
// ---------------------------------------------------------------------

/// Stderr lines kept per child for its failure report.
const STDERR_TAIL: usize = 20;

/// What one spawn has reported so far: the fold of its stdout lines. A
/// respawn is a new spawn with an empty ledger, so no line its killed
/// predecessor printed lands in it.
#[derive(Default, Debug)]
struct Ledger {
    /// The highest committed prefix a `PROGRESS` or `DONE` named.
    prefix: Option<u64>,
    /// The `DECIDED` report, as the process's outcome.
    decided: Option<Outcome>,
    /// The `DONE` report: digest, prefix, restarts.
    done: Option<(u64, u64, u64)>,
    /// The `STATS` report.
    stats: Option<NetStats>,
    /// The `CHAOS` reports, one per outbound link.
    links: Vec<LinkTrace>,
}

impl Ledger {
    /// Folds one stdout line of process `id`. A line that starts with a
    /// report keyword but does not parse, and a `STATS` before `DECIDED`
    /// (or a replica's `DONE`), fail, naming the process.
    fn fold(&mut self, id: usize, line: &str) -> Result<(), String> {
        match Report::parse(line).map_err(|e| format!("process {id}: {e}"))? {
            Some(Report::Decided {
                value,
                path,
                depth,
                elapsed_us,
            }) => {
                self.decided = Some(Outcome::decided(value, path, depth, Time::new(elapsed_us)));
            }
            Some(Report::Progress(prefix)) => self.prefix = self.prefix.max(Some(prefix)),
            Some(Report::Done {
                digest,
                prefix,
                restarts,
            }) => {
                self.prefix = self.prefix.max(Some(prefix));
                self.done = Some((digest, prefix, restarts));
            }
            Some(Report::Stats(_)) if self.decided.is_none() && self.done.is_none() => {
                return Err(format!("process {id} sent STATS before DECIDED"));
            }
            Some(Report::Stats(net)) => self.stats = Some(net),
            Some(Report::Chaos(c)) => self.links.push(LinkTrace {
                from: id,
                to: c.to,
                sched: c.sched,
            }),
            None => {}
        }
        Ok(())
    }
}

/// A spawned child and its [`Ledger`]. Dropping the handle reaps the
/// child, so every exit path of a phase — success, a failed wait, a
/// malformed report — leaves no process behind.
struct ChildHandle {
    id: usize,
    child: Child,
    ledger: Ledger,
    /// Drains the child's stderr to EOF, keeping the last lines.
    stderr: Option<thread::JoinHandle<VecDeque<String>>>,
    /// Set by [`ChildHandle::kill`]: this death is the harness's doing.
    killed: bool,
    argv: Vec<String>,
}

impl ChildHandle {
    fn kill(&mut self) {
        self.killed = true;
        let _ = self.child.kill(); // SIGKILL on unix
        let _ = self.child.wait();
    }

    /// The child as a deadline error names it: its id, then its decision or
    /// last prefix and whether `DONE` and `STATS` came, e.g. `process 1
    /// [prefix 8, DONE]`.
    fn state(&self) -> String {
        let l = &self.ledger;
        let last = match (&l.decided, l.prefix) {
            (Some(Outcome::Decided(r)), _) => format!("decided {} ({})", r.value, r.path),
            (_, Some(prefix)) => format!("prefix {prefix}"),
            _ => "no report".into(),
        };
        let done = if l.done.is_some() { ", DONE" } else { "" };
        let stats = if l.stats.is_some() { ", STATS" } else { "" };
        format!("process {} [{last}{done}{stats}]", self.id)
    }

    /// Once the child's stdout has ended: if it died on its own, its id,
    /// exit status and stderr tail.
    fn obituary(&mut self) -> Option<String> {
        if self.killed {
            return None;
        }
        let status = self.child.wait().ok()?;
        let tail = self
            .stderr
            .take()
            .and_then(|drain| drain.join().ok())
            .unwrap_or_default();
        Some(format!(
            "process {} exited ({status}) before its report; stderr:\n{}",
            self.id,
            Vec::from(tail).join("\n")
        ))
    }
}

impl Drop for ChildHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One stdout line of spawn `.0`, or `None` once its stdout closed.
type Line = (usize, Option<String>);

/// One phase's children, indexed by spawn: a respawn is a new spawn. Every
/// child's stdout feeds one channel, and [`Children::wait_until`] — the
/// one place the parent waits on children — folds each line into its
/// spawn's ledger.
struct Children {
    /// The program every child runs: this binary, given a [`node_argv`].
    exe: PathBuf,
    deadline: Instant,
    tx: mpsc::Sender<Line>,
    rx: mpsc::Receiver<Line>,
    spawns: Vec<ChildHandle>,
}

impl Children {
    fn new(deadline: Instant) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let (tx, rx) = mpsc::channel();
        Ok(Children {
            exe,
            deadline,
            tx,
            rx,
            spawns: Vec::new(),
        })
    }

    /// Spawns process `id` on `argv`; returns its spawn index.
    fn spawn(&mut self, id: usize, argv: Vec<String>) -> Result<usize, String> {
        let mut child = Command::new(&self.exe)
            .args(&argv)
            .stdin(Stdio::piped()) // the child's parent-liveness watch
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn child: {e}"))?;
        let spawn = self.spawns.len();
        let stdout = child.stdout.take().expect("piped stdout");
        let tx = self.tx.clone();
        thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send((spawn, Some(line))).is_err() {
                    return;
                }
            }
            let _ = tx.send((spawn, None));
        });
        let stderr = child.stderr.take().expect("piped stderr");
        let stderr = thread::spawn(move || {
            let mut tail = VecDeque::with_capacity(STDERR_TAIL);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if tail.len() == STDERR_TAIL {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
            tail
        });
        self.spawns.push(ChildHandle {
            id,
            child,
            ledger: Ledger::default(),
            stderr: Some(stderr),
            killed: false,
            argv,
        });
        Ok(spawn)
    }

    /// Folds every child's lines until `done` holds of each `awaited`
    /// spawn's ledger. Fails, prefixed with `what`, at once on a malformed
    /// report or on a child — awaited or not, since one dead process can
    /// stall the rest for good — whose stdout ended without the harness
    /// killing it, and at the deadline, naming every awaited process with
    /// its ledger.
    fn wait_until(
        &mut self,
        what: &str,
        awaited: &[usize],
        done: impl Fn(&Ledger) -> bool,
    ) -> Result<(), String> {
        let fail = |cause: String| format!("{what}: {cause}");
        while !awaited.iter().all(|&s| done(&self.spawns[s].ledger)) {
            let left = self.deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok((s, Some(line))) => {
                    let child = &mut self.spawns[s];
                    child.ledger.fold(child.id, &line).map_err(fail)?;
                }
                Ok((s, None)) => {
                    if let Some(obituary) = self.spawns[s].obituary() {
                        return Err(fail(obituary));
                    }
                }
                Err(_) => {
                    let states: Vec<String> =
                        awaited.iter().map(|&s| self.spawns[s].state()).collect();
                    return Err(fail(format!("the deadline passed: {}", states.join(", "))));
                }
            }
        }
        Ok(())
    }
}

/// The spec a phase's children run: `spec` at the run seed, on netd with
/// the phase's address table.
fn child_spec(spec: &RunSpec, seed: u64, peers: AddressTable) -> RunSpec {
    RunSpec {
        seed,
        runtime: RuntimeSpec::Netd { peers: Some(peers) },
        ..spec.clone()
    }
}

/// Child `id`'s argv: its role flags, then the run's own spec flags.
fn node_argv(id: usize, run: &RunSpec, role: &[&str]) -> Vec<String> {
    let mut argv: Vec<String> = vec!["--node".into(), id.to_string()];
    argv.extend(role.iter().map(|a| a.to_string()));
    argv.extend(run.to_args());
    argv
}

/// The addresses one phase's children listen on: the spec's explicit
/// `--peers` table, else loopback ports reserved now. A kill -9 respawn is
/// handed the same table, so it re-binds the port its corpse held.
fn cluster_addrs(spec: &RunSpec) -> Result<AddressTable, String> {
    match spec.runtime.peers() {
        Some(table) => Ok(table.clone()),
        None => free_loopback_addrs(spec.n).map_err(|e| format!("reserving listen ports: {e}")),
    }
}

/// One directed link's entry in a run's fault trace: the digest is a pure
/// function of `(seed, from, to, schedule)`, so sorted lists of these are
/// byte-comparable across repeated runs of one seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkTrace {
    /// Source process.
    pub from: usize,
    /// Destination process.
    pub to: usize,
    /// The link's schedule digest.
    pub sched: u64,
}

/// Outcome of one consensus-cell run.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// The run the cell executed: its seed, input and last-`f` fault plan.
    pub inst: RunInstance,
    /// The cell as a harness run: one outcome per process, the summed
    /// per-child wire ledgers. Judged before it is returned.
    pub result: RunResult,
    /// The simnet twin: [`run_instance`] on `inst`, the simulator's
    /// decision paths for the input and schedule the cell ran.
    pub twin: RunResult,
    /// Whole-run wall clock, µs, from spawn to the last decision: it
    /// includes set-up — spawning the children, each deriving its run and
    /// the mesh connecting — where a decision's latency counts from its
    /// child's boot.
    pub wall_us: u64,
    /// Per-link fault-trace digests reported by the awaited survivors,
    /// sorted by `(from, to)`; empty on chaos-free cells.
    pub links: Vec<LinkTrace>,
}

/// Judges one cell's outcomes as a harness run: agreement among the
/// deciders and, on a unanimous correct input, unanimity. Real sockets
/// have no delivery cap — a cell that does not finish fails on the
/// deadline instead — so the run counts as quiescent.
fn judge_cell(
    run_idx: usize,
    inst: &RunInstance,
    outcomes: Vec<Outcome>,
    net: NetStats,
) -> Result<RunResult, String> {
    let result = RunResult {
        outcomes,
        quiescent: true,
        messages: net.delivered,
        net,
    };
    let decided: Vec<u64> = result.decided().map(|r| r.value).collect();
    if !result.agreement_ok() {
        return Err(format!(
            "run {run_idx}: AGREEMENT VIOLATION across processes: {decided:?}"
        ));
    }
    if !result.unanimity_ok(&inst.input, &inst.fault_plan) {
        return Err(format!(
            "run {run_idx}: UNANIMITY VIOLATION: input {:?}, decided {decided:?}",
            inst.input.as_slice()
        ));
    }
    Ok(result)
}

impl CellRun {
    /// A judged cell, paired with its simnet twin.
    fn new(inst: RunInstance, result: RunResult, wall_us: u64, links: Vec<LinkTrace>) -> Self {
        let twin = run_instance(&inst);
        CellRun {
            inst,
            result,
            twin,
            wall_us,
            links,
        }
    }
}

/// Folds runs into the batch ledger every runtime shares.
fn ledger<'a>(runs: impl IntoIterator<Item = (&'a RunInstance, &'a RunResult)>) -> BatchStats {
    let mut stats = BatchStats::default();
    for (inst, result) in runs {
        stats.fold(inst, result);
    }
    stats
}

/// The spec of a cluster's cells: netd's fault budget is the last `f`
/// processes. The input is drawn before the plan, so the placement changes
/// no proposal.
fn cells_spec(spec: &RunSpec) -> RunSpec {
    RunSpec {
        placement: Placement::LastK,
        ..spec.clone()
    }
}

/// Runs one consensus cell: spawn `n`, collect the awaited children's
/// reports into a judged [`RunResult`], reap, and run the simnet twin.
/// The budget processes are real processes running correct code whose
/// links the schedule degrades and whose liveness is deliberately not
/// awaited (each is [`Outcome::Faulty`], mirroring the simulator's budget
/// semantics).
fn run_consensus_cell(opts: &ClusterOpts, run_idx: usize) -> Result<CellRun, String> {
    let spec = cells_spec(&opts.spec);
    let inst = spec.instance(run_idx)?;
    let start = Instant::now();
    let run = child_spec(&spec, inst.seed, cluster_addrs(&spec)?);
    let mut children = Children::new(start + opts.timeout)?;
    let secs = opts.timeout.as_secs().to_string();
    let role = ["--timeout-secs", &secs];
    for i in 0..spec.n {
        children.spawn(i, node_argv(i, &run, &role))?; // spawn `i` is process `i`
    }
    let correct = inst.fault_plan.correct(inst.config);
    let awaited: Vec<usize> = correct.map(|p| p.index()).collect();
    let what = format!("run {run_idx}: no decision ({:?} budget)", opts.timeout);
    children.wait_until(&what, &awaited, |l| l.stats.is_some())?;
    let wall_us = start.elapsed().as_micros() as u64;
    // The budget processes' reports are not read.
    let (mut net, mut links) = (NetStats::default(), Vec::<LinkTrace>::new());
    let mut outcomes = vec![Outcome::Faulty; spec.n];
    for &i in &awaited {
        let ledger = &children.spawns[i].ledger;
        net.merge(ledger.stats.as_ref().expect("awaited until STATS"));
        links.extend(&ledger.links);
        outcomes[i] = ledger.decided.clone().unwrap_or(Outcome::Undecided);
    }
    drop(children);
    links.sort_by_key(|l| (l.from, l.to));
    let result = judge_cell(run_idx, &inst, outcomes, net)?;
    Ok(CellRun::new(inst, result, wall_us, links))
}

/// Outcome of the kill -9 + respawn phase.
#[derive(Clone, Debug)]
pub struct Kill9Run {
    /// The single state-machine digest all replicas agreed on.
    pub digest: u64,
    /// Restart counter reported by the respawned victim (expect 1).
    pub restarts: u64,
    /// The victim's committed prefix when the SIGKILL landed.
    pub killed_at: u64,
    /// The prefix every survivor was proven past before the respawn.
    pub survivor_floor: u64,
    /// Whole-phase wall clock, µs.
    pub wall_us: u64,
    /// Summed wire ledgers (survivors + the victim's second incarnation;
    /// the first incarnation's ledger died with the process, as a real
    /// crash's accounting does).
    pub net: NetStats,
}

/// Runs the kill -9 schedule: spawn `n` replicas holding per-process
/// *differing* pending commands, SIGKILL a non-coordinator once its
/// committed prefix reaches `spec.kill.after`, prove every survivor past
/// `min(slots, killed_at + 2)` while the victim is down — survivor
/// progress, before any recovery — then respawn it and require full
/// convergence at `slots`.
fn run_kill9(opts: &ClusterOpts, slots: u64) -> Result<Kill9Run, String> {
    let wal_dir = std::env::temp_dir().join(format!(
        "dex-netd-{}-{}",
        std::process::id(),
        opts.spec.seed
    ));
    std::fs::create_dir_all(&wal_dir).map_err(|e| format!("wal dir: {e}"))?;
    let run = run_kill9_in(opts, slots, &wal_dir);
    let _ = std::fs::remove_dir_all(&wal_dir);
    run
}

fn run_kill9_in(
    opts: &ClusterOpts,
    slots: u64,
    wal_dir: &std::path::Path,
) -> Result<Kill9Run, String> {
    let spec = &opts.spec;
    let start = Instant::now();
    let run = child_spec(spec, spec.seed, cluster_addrs(spec)?);
    let mut children = Children::new(start + opts.timeout)?;
    let target = slots.to_string();
    let spawn = |children: &mut Children, i: usize, respawn: bool| {
        let wal = wal_dir.join(format!("wal_{i}.log")).display().to_string();
        let mut role = vec!["--slots", &target, "--wal", &wal];
        role.extend(respawn.then_some("--respawn"));
        children.spawn(i, node_argv(i, &run, &role))
    };
    // `live[i]` is process `i`'s current spawn.
    let mut live = (0..spec.n)
        .map(|i| spawn(&mut children, i, false))
        .collect::<Result<Vec<_>, _>>()?;
    // The victim: not the UC coordinator (p0 stays up so fallbacks keep
    // deciding), and guaranteed to have synced `spec.kill.after` commits
    // to its WAL before dying, so recovery exercises replay *and*
    // catch-up.
    let victim = 1usize;
    let after = spec.kill.after;
    let what = format!("kill9: victim never committed {after} slots");
    children.wait_until(&what, &[live[victim]], |l| l.prefix >= Some(after))?;
    let killed_at = children.spawns[live[victim]].ledger.prefix.unwrap_or(0);
    // The literal kill -9 (SIGKILL via Child::kill).
    children.spawns[live[victim]].kill();
    // Before the respawn exists, every survivor must demonstrably outrun
    // the dead victim — the cluster keeps committing with one replica's
    // state gone and n - 1 divergent pending streams.
    let survivor_floor = slots.min(killed_at + 2);
    let survivors: Vec<usize> = (0..spec.n).filter(|i| *i != victim).collect();
    let what =
        format!("kill9: survivors stalled below prefix {survivor_floor} while the victim was down");
    children.wait_until(&what, &survivors, |l| l.prefix >= Some(survivor_floor))?;
    println!(
        "kill9: all {} survivors progressed to ≥ {survivor_floor} with the victim dead at {killed_at}",
        spec.n - 1
    );
    // Now the respawn, with an empty ledger.
    live[victim] = spawn(&mut children, victim, true)?;
    println!(
        "kill9: SIGKILLed process {victim} at prefix {killed_at}, respawned as `{}`",
        children.spawns[live[victim]].argv.join(" ")
    );
    // Convergence: every live child reports DONE, then its STATS.
    let what = format!("kill9: no convergence ({:?} budget)", opts.timeout);
    children.wait_until(&what, &live, |l| l.done.is_some() && l.stats.is_some())?;
    let wall_us = start.elapsed().as_micros() as u64;
    let (mut net, mut dones) = (NetStats::default(), Vec::with_capacity(spec.n));
    for ledger in live.iter().map(|&s| &children.spawns[s].ledger) {
        net.merge(ledger.stats.as_ref().expect("awaited until STATS"));
        dones.extend(ledger.done);
    }
    drop(children);
    // One digest at the full prefix everywhere; one restart, the victim's.
    let (digest, restarts) = (dones[0].0, dones[victim].2);
    if restarts != 1 || dones.iter().any(|d| d.0 != digest || d.1 != slots) {
        return Err(format!(
            "kill9: no convergence on prefix {slots} with 1 restart of process {victim}: \
             (digest, prefix, restarts) per replica {dones:x?}"
        ));
    }
    Ok(Kill9Run {
        digest,
        restarts,
        killed_at,
        survivor_floor,
        wall_us,
        net,
    })
}

/// Validates a parsed cluster invocation before any process spawns — the
/// rules that make chaos, fault budgets and the kill schedule compose, and
/// the spec flags netd children cannot honour: they run DEX-freq over the
/// oracle coordinator, correct code in every process, untraced, one value
/// per slot.
fn validate_cluster(opts: &ClusterOpts) -> Result<(), String> {
    let spec = &opts.spec;
    let kill9 = opts.slots.is_some();
    let rules = [
        (
            !spec.runtime.is_netd(),
            "cluster specs must carry --runtime netd",
        ),
        (
            spec.algo != Algo::DexFreq,
            "netd children run dex-freq: drop --algo",
        ),
        (
            spec.underlying != UnderlyingSpec::Oracle,
            "netd children fall back to the oracle coordinator: drop --underlying mvc",
        ),
        (
            spec.f != 0 && spec.adversary != AdversarySpec::Silent,
            "netd budget children run correct code: a Byzantine --adversary needs simnet",
        ),
        (
            spec.trace,
            "--trace replays a simnet schedule; netd runs are wall-clock",
        ),
        (
            spec.pipeline.batch != 1,
            "--pipeline <W> sets the kill9 window; netd slots carry one value (no batch)",
        ),
        (
            matches!(spec.chaos, ChaosSpec::CrashRestart { .. }),
            "amnesiac crash-restart is a real process death on this runtime: \
             pass --slots K (the kill -9 + respawn run) instead of --chaos crash-restart",
        ),
        (
            !spec.chaos.is_none() && kill9,
            "chaos schedules drive the consensus cells only: drop --slots \
             (the kill -9 run's fault is the SIGKILL itself)",
        ),
        (
            spec.f != 0 && spec.chaos.is_none(),
            "netd children all run correct code: --f marks the chaos fault budget \
             and needs --chaos",
        ),
        (
            kill9 && spec.t == 0,
            "a kill -9 needs t ≥ 1: the killed replica is a fault, and DEX tolerates \
             at most t of them",
        ),
    ];
    if let Some((_, why)) = rules.iter().find(|(broken, _)| *broken) {
        return Err(why.to_string());
    }
    if let Some(slots) = opts.slots.filter(|&slots| spec.kill.after >= slots) {
        return Err(format!(
            "--kill {} must land mid-run: it needs to be < --slots {slots}",
            spec.kill.after
        ));
    }
    spec.config()
        .map_err(|e| format!("bad configuration: {e}"))?;
    Ok(())
}

/// Runs the invocation's phase and writes its artifacts. The entry point
/// behind `dex-netd --cluster`.
pub fn run_cluster(opts: &ClusterOpts) -> Result<(), String> {
    validate_cluster(opts)?;
    match opts.slots {
        Some(slots) => kill9_phase(opts, slots),
        None => cells_phase(opts),
    }
}

/// The consensus cells: `--runs` cells, then the chaos artifact (on a
/// chaos schedule) and one artifact row per cell.
fn cells_phase(opts: &ClusterOpts) -> Result<(), String> {
    let spec = &opts.spec;
    let mut cells: Vec<CellRun> = Vec::new();
    for i in 0..spec.runs {
        let cell = run_consensus_cell(opts, i)?;
        let one = ledger([(&cell.inst, &cell.result)]);
        let twin = ledger([(&cell.inst, &cell.twin)]);
        println!(
            "cell {} run {i}: decided {} ({} of {} one-step, simnet {} of {}, chaos {}) in {:.1} ms",
            spec.workload.flag(),
            cell.result.decided().next().map_or(0, |r| r.value),
            one.paths.count(&"1-step"),
            one.paths.total(),
            twin.paths.count(&"1-step"),
            twin.paths.total(),
            spec.chaos.label(),
            cell.wall_us as f64 / 1000.0,
        );
        cells.push(cell);
    }
    if !spec.chaos.is_none() {
        write_chaos_artifact(opts, &cells).map_err(|e| format!("chaos artifact: {e}"))?;
        println!(
            "chaos {}: per-link fault traces → results/netd_chaos_{}.json",
            spec.chaos.flag(),
            spec.seed
        );
    }
    // The totals read the cells' batch ledger; each row its one-run ledger.
    let all = ledger(cells.iter().map(|cell| (&cell.inst, &cell.result)));
    write_artifact(spec, all.paths.total(), &all.net, |out| {
        json::list(out, ",", cells.iter().enumerate(), |out, (i, cell)| {
            let one = ledger([(&cell.inst, &cell.result)]);
            let twin = ledger([(&cell.inst, &cell.twin)]);
            let _ = write!(
                out,
                concat!(
                    "{{\"cell\":\"consensus\",\"workload\":\"{}\",\"chaos\":\"{}\",\"run\":{},\"seed\":{},",
                    "\"decided\":{},\"one_step\":{},\"two_step\":{},\"depth_max\":{:.0},\"latency_mean_us\":{:.1},",
                    "\"latency_max_us\":{:.0},\"bytes_on_wire\":{},\"wall_us\":{},",
                    "\"simnet_one_step\":{},\"simnet_two_step\":{}}}"
                ),
                spec.workload.flag(),
                spec.chaos.flag(),
                i,
                cell.inst.seed,
                one.paths.total(),
                one.paths.count(&"1-step"),
                one.paths.count(&"2-step"),
                one.steps.max().unwrap_or(0.0),
                one.latency.mean(),
                one.latency.max().unwrap_or(0.0),
                one.net.bytes_on_wire,
                cell.wall_us,
                twin.paths.count(&"1-step"),
                twin.paths.count(&"2-step"),
            );
        });
    })
    .map_err(|e| format!("artifact: {e}"))
}

/// The kill -9 run to `slots` committed slots, and its one artifact row.
fn kill9_phase(opts: &ClusterOpts, slots: u64) -> Result<(), String> {
    let spec = &opts.spec;
    let k = run_kill9(opts, slots)?;
    println!(
        "kill9: converged at prefix {slots} digest {:#018x} after {} restart in {:.1} ms",
        k.digest,
        k.restarts,
        k.wall_us as f64 / 1000.0,
    );
    write_artifact(spec, slots * spec.n as u64, &k.net, |out| {
        let _ = write!(
            out,
            concat!(
                "{{\"cell\":\"kill9\",\"slots\":{},\"window\":{},\"restarts\":{},",
                "\"killed_at_prefix\":{},\"survivor_floor\":{},",
                "\"converged\":true,\"digest\":\"{:#018x}\",\"bytes_on_wire\":{},\"wall_us\":{}}}"
            ),
            slots,
            spec.pipeline.window,
            k.restarts,
            k.killed_at,
            k.survivor_floor,
            k.digest,
            k.net.bytes_on_wire,
            k.wall_us,
        );
    })
    .map_err(|e| format!("artifact: {e}"))
}

/// Writes `"spec":[...]`: the run's `dex-sim` flags ([`RunSpec::to_args`]),
/// which [`RunSpec::from_args`] reads back, so an artifact names a
/// replayable run.
fn spec_json(out: &mut String, spec: &RunSpec) {
    out.push_str("\"spec\":[");
    json::list(out, ",", spec.to_args(), |out, arg| json::string(out, &arg));
    out.push(']');
}

/// Renders `results/netd_chaos_<seed>.json`: per run, the sorted list of
/// per-link fault-trace digests the survivors reported. Deterministic by
/// construction — digests are pure functions of `(seed, from, to,
/// schedule)` and realized counters are excluded — so repeated harness
/// invocations of one seed must produce byte-identical files (asserted by
/// the reproducibility test and `scripts/netd_chaos.sh`).
fn chaos_artifact(spec: &RunSpec, cells: &[CellRun]) -> String {
    let mut out = String::from("{");
    spec_json(&mut out, spec);
    out.push_str(",\"runs\":[");
    json::list(&mut out, ",", cells.iter().enumerate(), |out, (i, run)| {
        let _ = write!(
            out,
            "{{\"run\":{i},\"seed\":{},\"links\":[",
            spec.seed + i as u64
        );
        json::list(out, ",", &run.links, |out, l| {
            let _ = write!(
                out,
                "{{\"from\":{},\"to\":{},\"sched\":\"{:#018x}\"}}",
                l.from, l.to, l.sched
            );
        });
        out.push_str("]}");
    });
    out.push_str("]}\n");
    out
}

fn write_chaos_artifact(opts: &ClusterOpts, cells: &[CellRun]) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    std::fs::write(
        format!("results/netd_chaos_{}.json", opts.spec.seed),
        chaos_artifact(&opts.spec, cells),
    )
}

/// Emits `results/netd_<seed>.json` — the spec next to the `"bench"`
/// wall-clock object: the phase's `decisions`, the bytes of its summed wire
/// ledger `net`, and the `rows` it writes — and prints the `--stats`
/// breakdown line.
fn write_artifact(
    spec: &RunSpec,
    decisions: u64,
    net: &NetStats,
    rows: impl FnOnce(&mut String),
) -> std::io::Result<()> {
    if spec.stats {
        println!("{}", net.breakdown_line());
    }
    let mut out = String::from("{");
    spec_json(&mut out, spec);
    let _ = write!(
        out,
        concat!(
            ",\"bench\":{{\"bench\":\"netd\",\"unit\":\"us (wall clock, real processes over localhost TCP)\",",
            "\"n\":{},\"t\":{},\"runs\":{},\"decisions\":{},\"bytes_on_wire\":{},\"results\":["
        ),
        spec.n, spec.t, spec.runs, decisions, net.bytes_on_wire,
    );
    rows(&mut out);
    out.push_str("]}}");
    std::fs::create_dir_all("results")?;
    std::fs::write(format!("results/netd_{}.json", spec.seed), out)
}

// ---------------------------------------------------------------------
// Argv parsing (child + cluster).
// ---------------------------------------------------------------------

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("bad {flag} value `{raw}`"))
}

/// `flag`'s value parsed, or `default` when the flag is absent.
fn take_num<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    default: T,
) -> Result<T, String> {
    match take_value(args, flag)? {
        Some(raw) => parse_num(flag, &raw),
        None => Ok(default),
    }
}

/// A cell's or phase's budget when `--timeout-secs` is absent.
const TIMEOUT_SECS: u64 = 60;

/// Parses a `--node` child argv (everything after the program name): the
/// role flags, then the run's [`RunSpec`] flags. A child given `--wal` is a
/// replica; any other is a consensus process.
pub fn parse_node_args(mut args: Vec<String>) -> Result<NodeOpts, String> {
    let me = take_value(&mut args, "--node")?.ok_or("--node <id> required")?;
    let role = match take_value(&mut args, "--wal")? {
        Some(wal) => Role::Replica {
            wal: PathBuf::from(wal),
            slots: parse_num(
                "--slots",
                &take_value(&mut args, "--slots")?.ok_or("--slots required")?,
            )?,
            respawn: take_flag(&mut args, "--respawn"),
        },
        None => Role::Consensus {
            timeout: Duration::from_secs(take_num(&mut args, "--timeout-secs", TIMEOUT_SECS)?),
        },
    };
    let spec = RunSpec::from_args(&args)?;
    let peers = spec.runtime.peers().ok_or("--peers required")?;
    if peers.len() != spec.n {
        return Err(format!(
            "--peers names {} processes, --n {}",
            peers.len(),
            spec.n
        ));
    }
    Ok(NodeOpts {
        me: ProcessId::new(parse_num("--node", &me)?),
        spec,
        role,
    })
}

/// Parses a `--cluster` argv: netd knobs are stripped, the rest must be a
/// valid [`RunSpec`] flag set (with `--runtime netd` implied).
pub fn parse_cluster_args(mut args: Vec<String>) -> Result<ClusterOpts, String> {
    take_flag(&mut args, "--cluster");
    let slots = take_value(&mut args, "--slots")?
        .map(|raw| parse_num("--slots", &raw))
        .transpose()?;
    let timeout = Duration::from_secs(take_num(&mut args, "--timeout-secs", TIMEOUT_SECS)?);
    if !args.iter().any(|a| a == "--runtime") {
        args.push("--runtime".into());
        args.push("netd".into());
    }
    let spec = RunSpec::from_args(&args)?;
    Ok(ClusterOpts {
        spec,
        slots,
        timeout,
    })
}

/// `dex-netd` entry: dispatches the `--cluster` and `--node` argv forms.
pub fn main(args: Vec<String>) -> Result<(), String> {
    if args.iter().any(|a| a == "--cluster") {
        run_cluster(&parse_cluster_args(args)?)
    } else if args.iter().any(|a| a == "--node") {
        run_node(parse_node_args(args)?)
    } else {
        Err(format!(
            concat!(
                "no --cluster or --node in {:?}\n",
                "usage: dex-netd --cluster [spec flags] [--slots K [--kill N]] ",
                "[--timeout-secs S]\n",
                "       (--slots K: the kill -9 run to K slots; otherwise the consensus cells)\n",
                "       (children are spawned internally via --node)"
            ),
            args
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(flags: &str) -> Vec<String> {
        flags.split_whitespace().map(String::from).collect()
    }

    /// A child argv as the parent spawns it: role flags, then the run's
    /// spec flags.
    fn child_argv(role: &str, spec: &str) -> (Vec<String>, RunSpec) {
        let spec = RunSpec::from_args(&args(spec)).expect("spec flags");
        (args(role).into_iter().chain(spec.to_args()).collect(), spec)
    }

    /// `report` spells the line `line` and parses back from it; `bad`
    /// starts with the same keyword but fails, naming the line.
    fn check_report(report: Report, line: &str, bad: &str) {
        assert_eq!(report.line(), line);
        assert_eq!(Report::parse(line), Ok(Some(report)));
        let err = Report::parse(bad).expect_err("malformed line");
        assert!(err.contains(&format!("{bad:?}")), "{err}");
    }

    #[test]
    fn decided_report_round_trips() {
        check_report(
            Report::Decided {
                value: 7,
                path: DecisionPath::TwoStep,
                depth: StepDepth::new(2),
                elapsed_us: 1800,
            },
            "DECIDED value=7 path=2-step depth=2 elapsed_us=1800",
            "DECIDED value=7 path=3-step depth=2 elapsed_us=1800",
        );
        // Lines without a report keyword are not reports.
        assert_eq!(Report::parse("listening on 127.0.0.1:9000"), Ok(None));
        assert_eq!(Report::parse(""), Ok(None));
    }

    #[test]
    fn progress_report_round_trips() {
        check_report(
            Report::Progress(5),
            "PROGRESS prefix=5",
            "PROGRESS prefix=-1",
        );
    }

    #[test]
    fn done_report_round_trips() {
        check_report(
            Report::Done {
                digest: 0x00ab_54a9_8ceb_1f0a,
                prefix: 8,
                restarts: 1,
            },
            "DONE digest=0x00ab54a98ceb1f0a prefix=8 restarts=1",
            "DONE digest=00ab54a98ceb1f0a prefix=8 restarts=1",
        );
    }

    #[test]
    fn stats_report_round_trips_the_ledger() {
        let net = NetStats {
            sent: 10,
            delivered: 9,
            multicasts: 2,
            payload_clones: 0,
            bytes_on_wire: 512,
            sent_init: 3,
            sent_echo: 4,
            sent_batch: 1,
            sent_other: 2,
            echoes_batched: 6,
            max_depth: StepDepth::new(3),
            ..NetStats::default()
        };
        check_report(
            Report::Stats(net),
            "STATS sent=10 delivered=9 multicasts=2 clones=0 bytes=512 init=3 echo=4 batch=1 other=2 batched=6 max_depth=3",
            "STATS sent=oops",
        );
    }

    #[test]
    fn chaos_report_round_trips() {
        check_report(
            Report::Chaos(ChaosReport {
                to: 6,
                sched: 0x00ab_54a9_8ceb_1f0a,
                frames: 12,
                drops: 3,
                dups: 0,
                held: 2,
                torn: 1,
            }),
            "CHAOS to=6 sched=0x00ab54a98ceb1f0a frames=12 drops=3 dups=0 held=2 torn=1",
            "CHAOS to=6 sched=zzz frames=1",
        );
    }

    #[test]
    fn node_argv_is_role_flags_plus_the_run_spec() {
        let (argv, spec) = child_argv(
            "--node 2 --timeout-secs 5",
            "--n 3 --t 0 --seed 9 --aggregate --runtime netd --peers h:1,h:2,h:3",
        );
        let opts = parse_node_args(argv).expect("consensus argv");
        assert_eq!(opts.me, ProcessId::new(2));
        assert!(matches!(
            opts.role,
            Role::Consensus { timeout } if timeout == Duration::from_secs(5)
        ));
        assert_eq!(opts.spec, spec);
        assert!(opts.spec.aggregate);
        let (argv, spec) = child_argv(
            "--node 1 --wal /tmp/w.log --slots 8 --respawn",
            "--n 7 --t 1 --pipeline 4 --kill 2 --runtime netd \
             --peers h:1,h:2,h:3,h:4,h:5,h:6,h:7",
        );
        let opts = parse_node_args(argv).expect("replica argv");
        match opts.role {
            Role::Replica { slots, respawn, .. } => assert_eq!((slots, respawn), (8, true)),
            other => panic!("wrong role {other:?}"),
        }
        assert_eq!(opts.spec, spec);
        assert_eq!((opts.spec.pipeline.window, opts.spec.kill.after), (4, 2));
        // `--wal` is what makes a replica: there is no mode flag.
        let (argv, _) = child_argv(
            "--node 2 --mode consensus",
            "--n 2 --t 0 --runtime netd --peers h:1,h:2",
        );
        let err = parse_node_args(argv).expect_err("--mode is not a flag");
        assert!(err.contains("--mode"), "{err}");
    }

    #[test]
    fn node_argv_carries_chaos_and_peers() {
        let role = "--node 2";
        let (argv, _) = child_argv(
            role,
            "--n 7 --t 1 --f 1 --chaos drop:0.4 --runtime netd \
             --peers 10.0.0.1:9000,10.0.0.2:9001,h:3,h:4,h:5,h:6,h:7",
        );
        let opts = parse_node_args(argv).expect("chaos argv");
        assert_eq!(opts.spec.chaos, ChaosSpec::DropHeavy { p: 0.4 });
        assert_eq!(opts.spec.f, 1);
        let peers = opts.spec.runtime.peers().expect("table");
        assert_eq!((peers.host(1), peers.port(1)), ("10.0.0.2", 9001));
        // Defaults: clean, no budget.
        let (argv, _) = child_argv(role, "--n 2 --t 0 --runtime netd --peers h:1,h:2");
        let opts = parse_node_args(argv).expect("clean argv");
        assert!(opts.spec.chaos.is_none());
        assert_eq!(opts.spec.f, 0);
        // The table is the only addressing path: it is required, and it
        // must name exactly `n` processes.
        let (argv, _) = child_argv(role, "--n 2 --t 0 --runtime netd");
        let err = parse_node_args(argv).expect_err("no table");
        assert!(err.contains("--peers required"), "{err}");
        let (argv, _) = child_argv(role, "--n 2 --t 0 --runtime netd --peers h:1,h:2,h:3");
        let err = parse_node_args(argv).expect_err("wrong size");
        assert!(err.contains("names 3 processes"), "{err}");
    }

    #[test]
    fn cluster_argv_carries_spec_and_netd_knobs() {
        let opts = parse_cluster_args(args(
            "--cluster --n 7 --t 1 --workload unanimous:7 --runs 2 --seed 31 --slots 6 \
             --pipeline 4",
        ))
        .expect("cluster argv");
        assert_eq!(opts.spec.n, 7);
        assert!(opts.spec.runtime.is_netd());
        assert_eq!((opts.slots, opts.spec.pipeline.window), (Some(6), 4));
        // Without `--slots` the invocation runs the consensus cells.
        let opts = parse_cluster_args(args("--cluster --n 5 --t 0")).expect("cells argv");
        assert_eq!(opts.slots, None);
        // The kill9 window is `--pipeline`, and the phase is `--slots`:
        // there is no second spelling of either.
        for flag in ["--window 4", "--phase cells"] {
            let err =
                parse_cluster_args(args(&format!("--cluster --n 5 --t 0 {flag}"))).expect_err(flag);
            assert!(err.contains(flag.split(' ').next().unwrap()), "{err}");
        }
    }

    #[test]
    fn an_artifact_names_its_spec_as_escaped_replay_flags() {
        // `--peers` takes any host text, a quote included.
        let spec = RunSpec::from_args(&args("--n 1 --t 0 --runtime netd --peers a\"b:1"))
            .expect("spec with a quoted host");
        let artifact = chaos_artifact(&spec, &[]);
        assert!(
            artifact.starts_with("{\"spec\":[\"--n\",\"1\",\"--t\",\"0\","),
            "{artifact}"
        );
        assert!(artifact.contains(r#""--peers","a\"b:1""#), "{artifact}");
        assert!(artifact.ends_with("],\"runs\":[]}\n"), "{artifact}");
    }

    fn cluster_opts(argv: &str) -> ClusterOpts {
        parse_cluster_args(args(argv)).expect("cluster argv parses")
    }

    #[test]
    fn validation_composes_chaos_budget_and_kill_rules() {
        // The four MATRIX schedules are legal consensus-cell specs.
        for chaos in ChaosSpec::MATRIX {
            let opts = cluster_opts(&format!(
                "--cluster --n 7 --t 1 --f 1 --chaos {}",
                chaos.flag()
            ));
            assert_eq!(validate_cluster(&opts), Ok(()), "{}", chaos.flag());
        }
        // Chaos on the kill -9 run is rejected.
        let err = validate_cluster(&cluster_opts(
            "--cluster --n 7 --t 1 --chaos drop:0.4 --slots 8",
        ))
        .expect_err("chaos drives the cells only");
        assert!(err.contains("drop --slots"), "{err}");
        // Amnesiac restart chaos points at the real kill -9 schedule.
        let err = validate_cluster(&cluster_opts(
            "--cluster --n 5 --t 0 --chaos crash-restart:1:9",
        ))
        .expect_err("crash-restart is kill9's job");
        assert!(err.contains("--slots K"), "{err}");
        // A fault budget without chaos to attach it to is rejected.
        let err = validate_cluster(&cluster_opts("--cluster --n 7 --t 1 --f 1"))
            .expect_err("--f needs --chaos");
        assert!(err.contains("--chaos"), "{err}");
        // The kill point must land mid-run.
        let err = validate_cluster(&cluster_opts("--cluster --n 7 --t 1 --kill 6 --slots 6"))
            .expect_err("kill point past the last slot");
        assert!(err.contains("--slots"), "{err}");
        // The victim is a fault: a kill needs t ≥ 1, whatever the cells'
        // system would accept.
        assert_eq!(
            validate_cluster(&cluster_opts("--cluster --n 5 --t 0")),
            Ok(())
        );
        let err = validate_cluster(&cluster_opts("--cluster --n 5 --t 0 --slots 6"))
            .expect_err("a kill needs t ≥ 1");
        assert!(err.contains("t ≥ 1"), "{err}");
        // A system the children's DEX-freq cannot run fails before any spawn.
        let err = validate_cluster(&cluster_opts("--cluster --n 6 --t 1")).expect_err("n = 6t");
        assert!(err.starts_with("bad configuration"), "{err}");
        // Spec flags the children cannot honour are refused, not ignored.
        for (argv, needle) in [
            ("--algo bosco", "--algo"),
            ("--underlying mvc", "mvc"),
            (
                "--f 1 --chaos drop:0.4 --adversary equivocate",
                "--adversary",
            ),
            ("--trace", "--trace"),
            ("--pipeline 4:2 --slots 8", "batch"),
        ] {
            let err = validate_cluster(&cluster_opts(&format!("--cluster --n 7 --t 1 {argv}")))
                .expect_err(argv);
            assert!(err.contains(needle), "{argv}: {err}");
        }
        let opts = cluster_opts("--cluster --n 7 --t 1 --kill 2 --pipeline 4 --slots 8");
        assert_eq!(validate_cluster(&opts), Ok(()));
    }

    #[test]
    fn a_consensus_child_whose_peers_never_come_up_names_them() {
        // Process 1 of 3, alone: processes 0 and 2 never bind.
        let peers = free_loopback_addrs(3).expect("free ports");
        let spec = RunSpec {
            n: 3,
            t: 0,
            runtime: RuntimeSpec::Netd {
                peers: Some(peers.clone()),
            },
            ..RunSpec::default()
        };
        let opts = NodeOpts {
            me: ProcessId::new(1),
            role: Role::Consensus {
                timeout: Duration::from_secs(1),
            },
            spec,
        };
        let cfg = opts.spec.config().expect("config");
        let started = Instant::now();
        let err = consensus_node(&opts, cfg, peers, Duration::from_secs(1))
            .expect_err("no peer ever links");
        assert!(started.elapsed() >= Duration::from_millis(500), "{err}");
        assert!(err.contains("no link to processes [0, 2]"), "{err}");
    }

    #[test]
    fn a_child_derives_the_input_and_schedule_of_the_parents_run() {
        let table = AddressTable::parse("h:1,h:2,h:3,h:4,h:5,h:6,h:7").expect("table");
        for chaos in ChaosSpec::MATRIX {
            for f in [0, 1] {
                let opts = cluster_opts(&format!(
                    "--cluster --n 7 --t 1 --f {f} --chaos {} --runs 3 --seed 42",
                    chaos.flag()
                ));
                let spec = cells_spec(&opts.spec);
                for i in 0..spec.runs {
                    let inst = spec.instance(i).expect("parent instance");
                    let run = child_spec(&spec, inst.seed, table.clone());
                    for p in 0..spec.n {
                        let child = parse_node_args(node_argv(p, &run, &[]))
                            .and_then(|opts| opts.spec.instance(0))
                            .expect("child instance");
                        let at = format!("{} f = {f}, run {i}, process {p}", chaos.flag());
                        assert_eq!(child.input, inst.input, "{at}");
                        assert_eq!(
                            format!("{:?}", child.faults),
                            format!("{:?}", inst.faults),
                            "{at}"
                        );
                    }
                }
            }
        }
    }

    const STATS: &str = "STATS sent=1 delivered=1 multicasts=0 clones=0 bytes=8 init=1 echo=0 \
                         batch=0 other=0 batched=0 max_depth=1";

    #[test]
    fn a_ledger_keeps_the_highest_prefix_and_refuses_stats_before_decided() {
        let mut ledger = Ledger::default();
        let err = ledger.fold(3, STATS).expect_err("STATS first");
        assert_eq!(err, "process 3 sent STATS before DECIDED");
        for line in [
            "listening on 127.0.0.1:9000",
            "PROGRESS prefix=5",
            "PROGRESS prefix=2",
            "DONE digest=0x00000000000000ab prefix=8 restarts=1",
            "PROGRESS prefix=6",
            STATS,
        ] {
            ledger.fold(3, line).expect(line);
        }
        assert_eq!(ledger.prefix, Some(8));
        assert_eq!(ledger.done, Some((0xab, 8, 1)));
        assert!(ledger.stats.is_some());
        let err = ledger.fold(3, "PROGRESS prefix=x").expect_err("malformed");
        assert!(
            err.starts_with("process 3: malformed PROGRESS report"),
            "{err}"
        );
        // A consensus child: its links, its decision, then STATS.
        let mut ledger = Ledger::default();
        for line in [
            "CHAOS to=2 sched=0x0000000000000007 frames=1 drops=0 dups=0 held=0 torn=0",
            "DECIDED value=4 path=2-step depth=2 elapsed_us=90",
            STATS,
        ] {
            ledger.fold(3, line).expect(line);
        }
        let link = LinkTrace {
            from: 3,
            to: 2,
            sched: 7,
        };
        assert_eq!(ledger.links, vec![link]);
        let two_step = Outcome::decided(4, DecisionPath::TwoStep, StepDepth::new(2), Time::new(90));
        assert_eq!(ledger.decided, Some(two_step));
    }

    /// Children that each run `sh -c "<script>; exec sleep 30"` in place of
    /// a node, all spawns of one phase, with a deadline `budget` away.
    fn shell_children(budget: Duration) -> Children {
        Children {
            exe: "sh".into(),
            ..Children::new(Instant::now() + budget).expect("current_exe")
        }
    }

    fn sh(children: &mut Children, id: usize, script: &str) -> usize {
        let argv = vec!["-c".into(), format!("{script}; exec sleep 30")];
        children.spawn(id, argv).expect("spawn sh")
    }

    #[test]
    fn a_respawn_starts_an_empty_ledger_and_its_predecessors_lines_stay_behind() {
        let mut children = shell_children(Duration::from_secs(30));
        // Both lines leave in one write, so both are in the pipe before the
        // parent reads the first.
        let first = sh(
            &mut children,
            1,
            "printf 'PROGRESS prefix=3\\nPROGRESS prefix=7\\n'",
        );
        children
            .wait_until("victim", &[first], |l| l.prefix >= Some(3))
            .expect("the victim reaches 3");
        children.spawns[first].kill();
        // The respawn reports only once the test writes to its stdin.
        let second = sh(&mut children, 1, "read go; echo PROGRESS prefix=1");
        children
            .wait_until("the corpse's last line", &[first], |l| l.prefix >= Some(7))
            .expect("the killed spawn's second line folds into its own ledger");
        assert_eq!(children.spawns[second].ledger.prefix, None);
        let stdin = children.spawns[second]
            .child
            .stdin
            .as_mut()
            .expect("piped stdin");
        stdin.write_all(b"go\n").expect("release the respawn");
        children
            .wait_until("respawn", &[second], |l| l.prefix.is_some())
            .expect("the respawn reports");
        assert_eq!(children.spawns[second].ledger.prefix, Some(1));
    }

    #[test]
    fn a_wait_past_its_deadline_names_every_awaited_process_with_its_ledger() {
        let mut children = shell_children(Duration::from_secs(30));
        let awaited = [
            sh(&mut children, 0, "echo PROGRESS prefix=2"),
            sh(&mut children, 1, "true"),
            sh(
                &mut children,
                2,
                "echo DECIDED value=4 path=1-step depth=1 elapsed_us=9",
            ),
        ];
        let reported = [awaited[0], awaited[2]];
        children
            .wait_until("reports", &reported, |l| {
                l.prefix.is_some() || l.decided.is_some()
            })
            .expect("two reports");
        children.deadline = Instant::now() + Duration::from_millis(100);
        let err = children
            .wait_until("kill9: no convergence", &awaited, |l| l.stats.is_some())
            .expect_err("no child ever sends STATS");
        assert_eq!(
            err,
            "kill9: no convergence: the deadline passed: process 0 [prefix 2], \
             process 1 [no report], process 2 [decided 4 (1-step)]"
        );
    }

    #[test]
    fn a_wait_fails_at_once_on_any_child_that_exits_on_its_own() {
        let mut children = shell_children(Duration::from_secs(30));
        let awaited = sh(&mut children, 0, "true");
        sh(&mut children, 4, "echo bind: in use >&2; exit 3");
        let started = Instant::now();
        let err = children
            .wait_until("run 0: no decision", &[awaited], |l| l.stats.is_some())
            .expect_err("process 4 died");
        assert!(started.elapsed() < Duration::from_secs(5), "{err}");
        assert_eq!(
            err,
            "run 0: no decision: process 4 exited (exit status: 3) before its report; \
             stderr:\nbind: in use"
        );
    }

    /// Run `i` of a 7-process last-k batch on `workload`.
    fn cell_instance(workload: &str, i: usize) -> RunInstance {
        RunSpec::from_args(&args(&format!(
            "--n 7 --t 1 --workload {workload} --placement last-k"
        )))
        .and_then(|spec| spec.instance(i))
        .expect("cell instance")
    }

    fn decided(value: u64) -> Outcome {
        Outcome::decided(
            value,
            DecisionPath::OneStep,
            StepDepth::new(1),
            Time::new(40),
        )
    }

    #[test]
    fn a_cell_whose_reports_disagree_fails_with_an_agreement_error() {
        // A split input: unanimity has no premise, only agreement can fail.
        let inst = cell_instance("split:3", 3);
        let mut outcomes: Vec<Outcome> = (0..7).map(|_| decided(1)).collect();
        outcomes[4] = decided(0);
        let err = judge_cell(3, &inst, outcomes, NetStats::default()).expect_err("two values");
        assert!(err.starts_with("run 3: AGREEMENT VIOLATION"), "{err}");
    }

    #[test]
    fn a_unanimous_cell_deciding_another_value_fails_with_a_unanimity_error() {
        let inst = cell_instance("unanimous:7", 5);
        let outcomes = (0..7).map(|_| decided(9)).collect();
        let err = judge_cell(5, &inst, outcomes, NetStats::default()).expect_err("not the input");
        assert!(err.starts_with("run 5: UNANIMITY VIOLATION"), "{err}");
        // The honest cell passes and folds clean into the ledger.
        let mut outcomes: Vec<Outcome> = (0..7).map(|_| decided(7)).collect();
        outcomes[6] = Outcome::Faulty;
        let run = judge_cell(5, &inst, outcomes, NetStats::default()).expect("unanimous");
        let mut stats = BatchStats::default();
        stats.fold(&inst, &run);
        assert!(stats.clean(), "{stats:?}");
        assert_eq!(stats.paths.count(&"1-step"), 6);
    }

    #[test]
    fn a_cells_twin_is_its_instance_run_on_simnet() {
        let inst = cell_instance("unanimous:7", 5);
        let outcomes = (0..7).map(|_| decided(7)).collect();
        let run = judge_cell(5, &inst, outcomes, NetStats::default()).expect("unanimous");
        let cell = CellRun::new(inst, run, 0, Vec::new());
        assert_eq!(cell.twin, run_instance(&cell.inst));
        let twin = ledger([(&cell.inst, &cell.twin)]);
        assert!(twin.clean(), "{twin:?}");
        assert_eq!(twin.paths.total(), 7);
    }
}
