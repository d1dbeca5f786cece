//! The cluster harness: spawn, drive, kill and judge real OS processes.
//!
//! `dex-netd --cluster` is the orchestrator. From one
//! [`RunSpec`](dex_harness::spec::RunSpec) — the same serializable spec
//! that drives simnet and threadnet — it runs two phases on localhost
//! TCP:
//!
//! 1. **Consensus cells** (the campaign MATRIX's fault-free cells): run
//!    `i` is the spec's batch run `i` ([`RunSpec::instance`] — the very
//!    derivation `run_batch` executes, with netd's last-`f` fault
//!    budget), `n` child processes are spawned — each a [`DexActor`] on an
//!    [`Endpoint`](crate::endpoint::Endpoint) that derives its proposal
//!    and chaos schedule as `instance(0)` of its run's spec — and every
//!    awaited child's `DECIDED` report becomes that process's
//!    [`Outcome`]. The cell is one [`RunResult`], judged for agreement and
//!    unanimity and folded into the [`BatchStats`] ledger every runtime
//!    shares, next to its *simnet twin*: the same [`RunInstance`] run in
//!    the simulator.
//! 2. **kill -9 + respawn**: `n` replica children run multi-slot DEX
//!    against per-process [`FileWal`]s. One non-coordinator victim is
//!    killed with a literal `SIGKILL` mid-run, then respawned with
//!    `--respawn`; the fresh incarnation replays its WAL, re-proposes,
//!    and closes the gap through the `t + 1`-vouched catch-up protocol.
//!    The phase converges when every replica reports the full committed
//!    prefix and a single state-machine digest.
//!
//! A child's argv is its run's own [`RunSpec::to_args`] (the run seed,
//! `--runtime netd --peers <table>`) plus role flags; children report on
//! stdout in the [`Report`] line grammar. The parent writes the wall-clock
//! artifact `results/netd_<seed>.json`: the spec as the `dex-sim` flags
//! that replay it, next to a `"bench"` object of per-cell rows (a
//! consensus row ends with its twin's one- and two-step counts). Each
//! child also watches its stdin and exits when the parent goes away, so an
//! aborted harness never leaks orphan processes.

use crate::chaos::{splitmix64, ChaosReport, ChaosRuntime};
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
use dex_simnet::{NetStats, Time};
use dex_types::{DecisionPath, ProcessId, StepDepth, SystemConfig};
use dex_underlying::OracleConsensus;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Which phases a `--cluster` invocation runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Fault-free consensus cells only.
    Cells,
    /// The kill -9 + respawn replication run only.
    Kill9,
    /// Both, cells first.
    Both,
}

/// Parsed `--cluster` options: the shared [`RunSpec`] plus netd-specific
/// knobs.
#[derive(Clone, Debug)]
pub struct ClusterOpts {
    /// The spec driving workload, `n`/`t`, seeding, `--stats`, the kill9
    /// window (`--pipeline <W>`) and kill schedule (`--kill`).
    pub spec: RunSpec,
    /// Committed slots the kill-9 phase must reach.
    pub slots: u64,
    /// Phase selection.
    pub phase: Phase,
    /// Per-phase wall-clock budget before the harness gives up.
    pub timeout: Duration,
}

/// Options one spawned child parses back out of its argv.
#[derive(Clone, Debug)]
pub struct NodeOpts {
    /// This process's id.
    pub me: ProcessId,
    /// The run's spec: system size, run seed, workload, chaos schedule
    /// and fault budget, aggregation, kill9 window and divergence, and the
    /// `--peers` table this child binds entry `me` of.
    pub spec: RunSpec,
    /// What this child runs.
    pub role: Role,
}

/// A child's role.
#[derive(Clone, Debug)]
pub enum Role {
    /// Single-shot DEX consensus on entry `me` of the spec's run-0 input.
    Consensus,
    /// Multi-slot replication against a WAL.
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
        let mut sink = [0u8; 64];
        loop {
            match std::io::stdin().read(&mut sink) {
                Ok(0) | Err(_) => std::process::exit(0),
                Ok(_) => {}
            }
        }
    });
}

/// Runs one child process until killed by the parent. Never returns on
/// the happy path.
pub fn run_node(opts: NodeOpts) -> Result<(), String> {
    exit_with_parent();
    let cfg = opts.spec.config()?;
    let peers = opts.spec.runtime.peers().ok_or("--peers required")?.clone();
    match &opts.role {
        Role::Consensus => consensus_node(&opts, cfg, peers),
        Role::Replica {
            wal,
            slots,
            respawn,
        } => replica_node(&opts, cfg, peers, wal, *slots, *respawn),
    }
}

fn consensus_node(opts: &NodeOpts, cfg: SystemConfig, peers: AddressTable) -> Result<(), String> {
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
    ep.boot();
    let mut announced = false;
    loop {
        ep.pump(Duration::from_millis(10));
        if !announced {
            if let Some(d) = ep.actor().decision() {
                let mut reports: Vec<Report> = chaos
                    .iter()
                    .flat_map(|c| c.reports())
                    .map(Report::Chaos)
                    .collect();
                reports.push(Report::Decided {
                    value: d.value,
                    path: d.path,
                    depth: d.depth,
                    elapsed_us: ep.elapsed_us(),
                });
                reports.push(Report::Stats(ep.stats().clone()));
                report(&reports);
                announced = true;
            }
        }
        // Decided processes keep serving: peers may still need echoes.
    }
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
    // Identical pending client commands at every replica — the
    // replicated-log setting: all replicas order the same request
    // stream, so every slot's consensus instance is unanimous. Under
    // `--kill N:divergent` every process instead derives its *own*
    // pending stream from `(seed, me, slot)`: slots are contested,
    // decisions ride the coordinator fallback, and the kill -9 victim
    // dies holding state no other process can reconstruct locally —
    // convergence then proves WAL replay plus `t + 1` catch-up, not
    // lockstep recomputation.
    let pending: Vec<u64> = if spec.kill.divergent {
        (0..slots)
            .map(|s| splitmix64(spec.seed ^ ((opts.me.index() as u64) << 32) ^ s))
            .collect()
    } else {
        (0..slots)
            .map(|s| spec.seed.wrapping_mul(1000).wrapping_add(s))
            .collect()
    };
    let mut replica: Replica<TotalOrder<u64>> =
        Replica::new(cfg, opts.me, ProcessId::new(0), pending, slots);
    if spec.pipeline.window > 1 {
        replica.enable_pipelining(spec.pipeline.window);
    }
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
    let mut last_prefix = usize::MAX;
    let mut done = false;
    loop {
        ep.pump(Duration::from_millis(5));
        let prefix = ep.actor().log().committed_prefix();
        if prefix != last_prefix {
            report(&[Report::Progress(prefix as u64)]);
            last_prefix = prefix;
        }
        if !done && prefix as u64 >= slots {
            report(&[
                Report::Done {
                    digest: ep.actor().machine().digest(),
                    prefix: prefix as u64,
                    restarts: u64::from(ep.actor().restarts()),
                },
                Report::Stats(ep.stats().clone()),
            ]);
            done = true;
        }
        // Finished replicas keep serving catch-up requests until killed.
    }
}

// ---------------------------------------------------------------------
// Parent orchestration.
// ---------------------------------------------------------------------

/// How often a wait on one child's stdout looks at the other children.
const LIVENESS_POLL: Duration = Duration::from_millis(50);
/// Stderr lines kept per child for its failure report.
const STDERR_TAIL: usize = 20;

/// A spawned child plus its parsed stdout line stream. Dropping the
/// handle reaps the child, so every exit path of a phase — success, a
/// failed wait, a malformed report — leaves no process behind.
struct ChildHandle {
    id: usize,
    child: Child,
    rx: mpsc::Receiver<String>,
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

    /// If the child died on its own: its id, exit status and stderr tail.
    fn obituary(&mut self) -> Option<String> {
        if self.killed {
            return None;
        }
        let status = self.child.try_wait().ok()??;
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

/// Next stdout line of `children[i]` before `deadline`. The error says
/// why there is none: the deadline passed, or some child — the awaited
/// one or any other, since one dead process can stall the rest for good —
/// exited without the harness killing it.
fn next_line(children: &mut [ChildHandle], i: usize, deadline: Instant) -> Result<String, String> {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match children[i].rx.recv_timeout(left.min(LIVENESS_POLL)) {
            Ok(line) => return Ok(line),
            // Stdout closed or a poll interval passed: look for the dead.
            Err(err) => {
                let closed = err == mpsc::RecvTimeoutError::Disconnected;
                if closed {
                    // Stdout closes a moment before the status is there.
                    let _ = children[i].child.wait();
                }
                if let Some(obituary) = children.iter_mut().find_map(ChildHandle::obituary) {
                    return Err(obituary);
                }
                if closed {
                    return Err(format!("process {i} was killed before its report"));
                }
                if left.is_zero() {
                    return Err(format!("process {i} did not report before the deadline"));
                }
            }
        }
    }
}

/// Next [`Report`] of `children[i]` before `deadline`, skipping lines that
/// carry none. A line that starts with a report keyword but does not
/// parse fails at once, naming the child and the line.
fn next_report(
    children: &mut [ChildHandle],
    i: usize,
    deadline: Instant,
) -> Result<Report, String> {
    loop {
        let line = next_line(children, i, deadline)?;
        if let Some(report) = Report::parse(&line).map_err(|e| format!("process {i}: {e}"))? {
            return Ok(report);
        }
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

/// Spawns child `id` on [`node_argv`].
fn spawn_node_process(id: usize, run: &RunSpec, role: &[&str]) -> Result<ChildHandle, String> {
    let argv = node_argv(id, run, role);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(&argv)
        .stdin(Stdio::piped()) // the child's parent-liveness watch
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
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
    Ok(ChildHandle {
        id,
        child,
        rx,
        stderr: Some(stderr),
        killed: false,
        argv,
    })
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
    /// Whole-run wall clock, µs (spawn to last decision).
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
    let run = child_spec(&spec, inst.seed, cluster_addrs(&spec)?);
    let start = Instant::now();
    let deadline = start + opts.timeout;
    let mut children = inst
        .config
        .processes()
        .map(|p| spawn_node_process(p.index(), &run, &["--mode", "consensus"]))
        .collect::<Result<Vec<_>, _>>()?;
    let mut outcomes = Vec::with_capacity(spec.n);
    let mut net = NetStats::default();
    let mut links: Vec<LinkTrace> = Vec::new();
    for p in inst.config.processes() {
        if inst.fault_plan.is_faulty(p) {
            outcomes.push(Outcome::Faulty);
            continue;
        }
        let i = p.index();
        let mut decided = None;
        loop {
            let report = next_report(&mut children, i, deadline).map_err(|cause| {
                format!(
                    "run {run_idx}: no decision ({:?} budget): {cause}",
                    opts.timeout
                )
            })?;
            match report {
                Report::Decided {
                    value,
                    path,
                    depth,
                    elapsed_us,
                } => decided = Some(Outcome::decided(value, path, depth, Time::new(elapsed_us))),
                Report::Chaos(c) => links.push(LinkTrace {
                    from: i,
                    to: c.to,
                    sched: c.sched,
                }),
                Report::Stats(stats) => {
                    net.merge(&stats);
                    outcomes.push(decided.take().ok_or_else(|| {
                        format!("run {run_idx}: process {i} sent STATS before DECIDED")
                    })?);
                    break;
                }
                _ => {}
            }
        }
    }
    let wall_us = start.elapsed().as_micros() as u64;
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
    /// The prefix every survivor was proven past before the respawn
    /// (divergent schedule only, else 0).
    pub survivor_floor: u64,
    /// Whole-phase wall clock, µs.
    pub wall_us: u64,
    /// Summed wire ledgers (survivors + the victim's second incarnation;
    /// the first incarnation's ledger died with the process, as a real
    /// crash's accounting does).
    pub net: NetStats,
}

/// Runs the kill -9 schedule: spawn `n` replicas, SIGKILL a
/// non-coordinator once its committed prefix reaches `spec.kill.after`,
/// respawn it, require full convergence. Under `spec.kill.divergent` the
/// replicas hold per-process *differing* pending commands, and every
/// survivor must be proven past `min(slots, killed_at + 2)` while the
/// victim is down — survivor progress, before any recovery — before the
/// respawn is even spawned.
fn run_kill9(opts: &ClusterOpts) -> Result<Kill9Run, String> {
    let wal_dir = std::env::temp_dir().join(format!(
        "dex-netd-{}-{}",
        std::process::id(),
        opts.spec.seed
    ));
    std::fs::create_dir_all(&wal_dir).map_err(|e| format!("wal dir: {e}"))?;
    let run = run_kill9_in(opts, &wal_dir);
    let _ = std::fs::remove_dir_all(&wal_dir);
    run
}

fn run_kill9_in(opts: &ClusterOpts, wal_dir: &std::path::Path) -> Result<Kill9Run, String> {
    let spec = &opts.spec;
    let divergent = spec.kill.divergent;
    let run = child_spec(spec, spec.seed, cluster_addrs(spec)?);
    let start = Instant::now();
    let deadline = start + opts.timeout;
    let slots = opts.slots.to_string();
    let spawn = |i: usize, respawn: bool| {
        let wal = wal_dir.join(format!("wal_{i}.log")).display().to_string();
        let mut role = vec!["--mode", "replica", "--slots", &slots, "--wal", &wal];
        if respawn {
            role.push("--respawn");
        }
        spawn_node_process(i, &run, &role)
    };
    let mut children = (0..spec.n)
        .map(|i| spawn(i, false))
        .collect::<Result<Vec<_>, _>>()?;
    // The victim: not the UC coordinator (p0 stays up so fallbacks keep
    // deciding), and guaranteed to have synced `spec.kill.after` commits
    // to its WAL before dying, so recovery exercises replay *and*
    // catch-up.
    let victim = 1usize;
    let mut killed_at = 0u64;
    while killed_at < spec.kill.after {
        let report = next_report(&mut children, victim, deadline).map_err(|cause| {
            format!(
                "kill9: victim never committed {} slots: {cause}",
                spec.kill.after
            )
        })?;
        if let Report::Progress(prefix) | Report::Done { prefix, .. } = report {
            killed_at = killed_at.max(prefix);
        }
    }
    // The literal kill -9 (SIGKILL via Child::kill).
    children[victim].kill();
    // Divergent schedule: before the respawn exists, every survivor must
    // demonstrably outrun the dead victim — the cluster keeps committing
    // with one replica's state gone and n - 1 divergent pending streams.
    // Other reports (an early DONE and its STATS) are stashed for the
    // convergence pass rather than dropped.
    let mut stash: Vec<VecDeque<Report>> = (0..spec.n).map(|_| VecDeque::new()).collect();
    let survivor_floor = if divergent {
        opts.slots.min(killed_at + 2)
    } else {
        0
    };
    if divergent {
        for i in (0..spec.n).filter(|i| *i != victim) {
            loop {
                let report = next_report(&mut children, i, deadline).map_err(|cause| {
                    format!(
                        "kill9: survivor {i} stalled below prefix {survivor_floor} \
                         while the victim was down: {cause}"
                    )
                })?;
                if let Report::Progress(prefix) = report {
                    if prefix >= survivor_floor {
                        break;
                    }
                } else {
                    let finished = matches!(report, Report::Done { .. });
                    stash[i].push_back(report);
                    if finished {
                        break; // DONE ⇒ the full prefix, ≥ any floor
                    }
                }
            }
        }
        println!(
            "kill9: all {} survivors progressed to ≥ {survivor_floor} with the victim dead at {killed_at}",
            spec.n - 1
        );
    }
    // Now the respawn.
    children[victim] = spawn(victim, true)?;
    println!(
        "kill9: SIGKILLed process {victim} at prefix {killed_at}, respawned as `{}`",
        children[victim].argv.join(" ")
    );
    // Convergence: every live child reports DONE, then its STATS.
    let mut dones = Vec::with_capacity(spec.n);
    let mut net = NetStats::default();
    for (i, stashed) in stash.iter_mut().enumerate() {
        let mut done = None;
        loop {
            let report = match stashed.pop_front() {
                Some(report) => report,
                None => next_report(&mut children, i, deadline).map_err(|cause| {
                    format!("kill9: no convergence ({:?} budget): {cause}", opts.timeout)
                })?,
            };
            match report {
                Report::Done {
                    digest,
                    prefix,
                    restarts,
                } => done = Some((digest, prefix, restarts)),
                Report::Stats(stats) if done.is_some() => {
                    net.merge(&stats);
                    break;
                }
                _ => {}
            }
        }
        dones.extend(done);
    }
    let wall_us = start.elapsed().as_micros() as u64;
    drop(children);
    // One digest at the full prefix everywhere; one restart, the victim's.
    let (digest, restarts) = (dones[0].0, dones[victim].2);
    if restarts != 1 || dones.iter().any(|d| d.0 != digest || d.1 != opts.slots) {
        return Err(format!(
            "kill9: no convergence on prefix {} with 1 restart of process {victim}: \
             (digest, prefix, restarts) per replica {dones:x?}",
            opts.slots
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
    let kill9 = opts.phase != Phase::Cells;
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
             use --phase kill9 (the kill -9 + respawn schedule) instead of --chaos crash-restart",
        ),
        (
            !spec.chaos.is_none() && kill9,
            "chaos schedules drive the consensus-cell phase only: add --phase cells \
             (the kill -9 phase's fault is the SIGKILL itself)",
        ),
        (
            spec.f != 0 && spec.chaos.is_none(),
            "netd children all run correct code: --f marks the chaos fault budget \
             and needs --chaos",
        ),
        (
            spec.kill.divergent && spec.t == 0,
            "--kill N:divergent needs t ≥ 1: divergent pending commands make slots \
             contested, and recovery must close the gap through the t + 1-vouched catch-up",
        ),
    ];
    if let Some((_, why)) = rules.iter().find(|(broken, _)| *broken) {
        return Err(why.to_string());
    }
    if kill9 && spec.kill.after >= opts.slots {
        return Err(format!(
            "--kill {} must land mid-run: it needs to be < --slots {}",
            spec.kill.after, opts.slots
        ));
    }
    spec.config()
        .map_err(|e| format!("bad configuration: {e}"))?;
    Ok(())
}

/// Runs the configured phases and writes the artifacts. The entry point
/// behind `dex-netd --cluster`.
pub fn run_cluster(opts: &ClusterOpts) -> Result<(), String> {
    let spec = &opts.spec;
    validate_cluster(opts)?;
    let mut cells: Vec<CellRun> = Vec::new();
    let mut kill9: Option<Kill9Run> = None;
    if opts.phase != Phase::Kill9 {
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
    }
    if opts.phase != Phase::Cells {
        let run = run_kill9(opts)?;
        println!(
            "kill9: converged at prefix {} digest {:#018x} after {} restart in {:.1} ms",
            opts.slots,
            run.digest,
            run.restarts,
            run.wall_us as f64 / 1000.0,
        );
        kill9 = Some(run);
    }
    write_artifact(opts, &cells, kill9.as_ref()).map_err(|e| format!("artifact: {e}"))
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
/// wall-clock object — and prints the `--stats` breakdown line. Cell rows
/// read each cell's one-run ledger; the totals read the cells' batch
/// ledger plus the kill9 phase.
fn write_artifact(
    opts: &ClusterOpts,
    cells: &[CellRun],
    kill9: Option<&Kill9Run>,
) -> std::io::Result<()> {
    let spec = &opts.spec;
    let all = ledger(cells.iter().map(|cell| (&cell.inst, &cell.result)));
    let (mut decisions, mut net) = (all.paths.total(), all.net);
    if let Some(k) = kill9 {
        decisions += opts.slots * spec.n as u64;
        net.merge(&k.net);
    }
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
    // The consensus cells' rows (`Ok`), then the kill9 row (`Err`).
    let rows = cells.iter().enumerate().map(Ok).chain(kill9.map(Err));
    json::list(&mut out, ",", rows, |out, row| match row {
        Ok((i, cell)) => {
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
        }
        Err(k) => {
            let _ = write!(
                out,
                concat!(
                    "{{\"cell\":\"kill9\",\"slots\":{},\"window\":{},\"restarts\":{},",
                    "\"divergent\":{},\"killed_at_prefix\":{},\"survivor_floor\":{},",
                    "\"converged\":true,\"digest\":\"{:#018x}\",\"bytes_on_wire\":{},\"wall_us\":{}}}"
                ),
                opts.slots,
                spec.pipeline.window,
                k.restarts,
                spec.kill.divergent,
                k.killed_at,
                k.survivor_floor,
                k.digest,
                k.net.bytes_on_wire,
                k.wall_us,
            );
        }
    });
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

/// Parses a `--node` child argv (everything after the program name): the
/// role flags, then the run's [`RunSpec`] flags.
pub fn parse_node_args(mut args: Vec<String>) -> Result<NodeOpts, String> {
    let me = take_value(&mut args, "--node")?.ok_or("--node <id> required")?;
    let mode = take_value(&mut args, "--mode")?.ok_or("--mode required")?;
    let role = match mode.as_str() {
        "consensus" => Role::Consensus,
        "replica" => Role::Replica {
            wal: PathBuf::from(take_value(&mut args, "--wal")?.ok_or("--wal required")?),
            slots: parse_num(
                "--slots",
                &take_value(&mut args, "--slots")?.ok_or("--slots required")?,
            )?,
            respawn: take_flag(&mut args, "--respawn"),
        },
        other => return Err(format!("unknown --mode `{other}`")),
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
    let slots = take_num(&mut args, "--slots", 8)?;
    let phase = match take_value(&mut args, "--phase")?.as_deref() {
        None | Some("both") => Phase::Both,
        Some("cells") => Phase::Cells,
        Some("kill9") => Phase::Kill9,
        Some(other) => return Err(format!("unknown --phase `{other}` (cells|kill9|both)")),
    };
    let timeout = Duration::from_secs(take_num(&mut args, "--timeout-secs", 60)?);
    if !args.iter().any(|a| a == "--runtime") {
        args.push("--runtime".into());
        args.push("netd".into());
    }
    let spec = RunSpec::from_args(&args)?;
    Ok(ClusterOpts {
        spec,
        slots,
        phase,
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
                "usage: dex-netd --cluster [spec flags] [--slots K] ",
                "[--phase cells|kill9|both] [--timeout-secs S]\n",
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
            "--node 2 --mode consensus",
            "--n 3 --t 0 --seed 9 --aggregate --runtime netd --peers h:1,h:2,h:3",
        );
        let opts = parse_node_args(argv).expect("consensus argv");
        assert_eq!(opts.me, ProcessId::new(2));
        assert!(matches!(opts.role, Role::Consensus));
        assert_eq!(opts.spec, spec);
        assert!(opts.spec.aggregate);
        let (argv, spec) = child_argv(
            "--node 1 --mode replica --wal /tmp/w.log --slots 8 --respawn",
            "--n 7 --t 1 --pipeline 4 --kill 2:divergent --runtime netd \
             --peers h:1,h:2,h:3,h:4,h:5,h:6,h:7",
        );
        let opts = parse_node_args(argv).expect("replica argv");
        match opts.role {
            Role::Replica { slots, respawn, .. } => assert_eq!((slots, respawn), (8, true)),
            other => panic!("wrong role {other:?}"),
        }
        assert_eq!(opts.spec, spec);
        assert_eq!(opts.spec.pipeline.window, 4);
        assert!(opts.spec.kill.divergent);
    }

    #[test]
    fn node_argv_carries_chaos_and_peers() {
        let role = "--node 2 --mode consensus";
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
            "--cluster --n 5 --t 0 --workload unanimous:7 --runs 2 --seed 31 --slots 6 \
             --pipeline 4 --phase cells",
        ))
        .expect("cluster argv");
        assert_eq!(opts.spec.n, 5);
        assert!(opts.spec.runtime.is_netd());
        assert_eq!((opts.slots, opts.spec.pipeline.window), (6, 4));
        assert_eq!(opts.phase, Phase::Cells);
        // The kill9 window is `--pipeline`; there is no second spelling.
        let err = parse_cluster_args(args("--cluster --n 5 --t 0 --window 4"))
            .expect_err("--window is not a flag");
        assert!(err.contains("--window"), "{err}");
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
                "--cluster --n 7 --t 1 --f 1 --chaos {} --phase cells",
                chaos.flag()
            ));
            assert_eq!(validate_cluster(&opts), Ok(()), "{}", chaos.flag());
        }
        // Chaos without the cells phase is rejected.
        let err = validate_cluster(&cluster_opts("--cluster --n 5 --t 0 --chaos drop:0.4"))
            .expect_err("chaos needs --phase cells");
        assert!(err.contains("cells"), "{err}");
        // Amnesiac restart chaos points at the real kill -9 schedule.
        let err = validate_cluster(&cluster_opts(
            "--cluster --n 5 --t 0 --chaos crash-restart:1:9 --phase cells",
        ))
        .expect_err("crash-restart is kill9's job");
        assert!(err.contains("kill9"), "{err}");
        // A fault budget without chaos to attach it to is rejected.
        let err = validate_cluster(&cluster_opts("--cluster --n 7 --t 1 --f 1 --phase cells"))
            .expect_err("--f needs --chaos");
        assert!(err.contains("--chaos"), "{err}");
        // The kill point must land mid-run.
        let err = validate_cluster(&cluster_opts(
            "--cluster --n 5 --t 0 --kill 6 --slots 6 --phase kill9",
        ))
        .expect_err("kill point past the last slot");
        assert!(err.contains("--slots"), "{err}");
        // Divergent kills need a catch-up quorum margin.
        let err = validate_cluster(&cluster_opts(
            "--cluster --n 5 --t 0 --kill 1:divergent --phase kill9",
        ))
        .expect_err("divergent needs t ≥ 1");
        assert!(err.contains("divergent"), "{err}");
        // A system the children's DEX-freq cannot run fails before any spawn.
        let err = validate_cluster(&cluster_opts("--cluster --n 6 --t 1 --phase cells"))
            .expect_err("n = 6t");
        assert!(err.starts_with("bad configuration"), "{err}");
        // Spec flags the children cannot honour are refused, not ignored.
        for (argv, needle) in [
            ("--algo bosco --phase cells", "--algo"),
            ("--underlying mvc --phase cells", "mvc"),
            (
                "--f 1 --chaos drop:0.4 --adversary equivocate --phase cells",
                "--adversary",
            ),
            ("--trace --phase cells", "--trace"),
            ("--pipeline 4:2 --phase kill9", "batch"),
        ] {
            let err = validate_cluster(&cluster_opts(&format!("--cluster --n 7 --t 1 {argv}")))
                .expect_err(argv);
            assert!(err.contains(needle), "{argv}: {err}");
        }
        let opts =
            cluster_opts("--cluster --n 7 --t 1 --kill 2:divergent --pipeline 4 --phase kill9");
        assert_eq!(validate_cluster(&opts), Ok(()));
    }

    #[test]
    fn a_child_derives_the_input_and_schedule_of_the_parents_run() {
        let table = AddressTable::parse("h:1,h:2,h:3,h:4,h:5,h:6,h:7").expect("table");
        for chaos in ChaosSpec::MATRIX {
            for f in [0, 1] {
                let opts = cluster_opts(&format!(
                    "--cluster --n 7 --t 1 --f {f} --chaos {} --phase cells --runs 3 --seed 42",
                    chaos.flag()
                ));
                let spec = cells_spec(&opts.spec);
                for i in 0..spec.runs {
                    let inst = spec.instance(i).expect("parent instance");
                    let run = child_spec(&spec, inst.seed, table.clone());
                    for p in 0..spec.n {
                        let child = parse_node_args(node_argv(p, &run, &["--mode", "consensus"]))
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
