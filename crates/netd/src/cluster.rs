//! The cluster harness: spawn, drive, kill and judge real OS processes.
//!
//! `dex-netd --cluster` is the orchestrator. From one
//! [`RunSpec`](dex_harness::spec::RunSpec) — the same serializable spec
//! that drives simnet and threadnet — it runs two phases on localhost
//! TCP:
//!
//! 1. **Consensus cells** (the campaign MATRIX's fault-free cells): run
//!    `i` proposes the input vector of the spec's batch run `i`
//!    ([`RunSpec::instance`] — the very derivation `run_batch` executes),
//!    `n` child processes are spawned — each a
//!    [`DexActor`] on an [`Endpoint`](crate::endpoint::Endpoint) — and
//!    every correct process must report a decision; agreement is asserted
//!    across the children's `DECIDED` reports.
//! 2. **kill -9 + respawn**: `n` replica children run multi-slot DEX
//!    against per-process [`FileWal`]s. One non-coordinator victim is
//!    killed with a literal `SIGKILL` mid-run, then respawned with
//!    `--respawn`; the fresh incarnation replays its WAL, re-proposes,
//!    and closes the gap through the `t + 1`-vouched catch-up protocol.
//!    The phase converges when every replica reports the full committed
//!    prefix and a single state-machine digest.
//!
//! Children report on stdout with a line protocol (`DECIDED …`,
//! `PROGRESS …`, `DONE …`, `STATS …`); the parent folds the per-child
//! wire ledgers into one [`NetStats`] and emits wall-clock artifacts
//! (`BENCH_netd.json`, `results/netd_<seed>.json`) shape-compatible with
//! the simnet artifacts. Each child also watches its stdin and
//! exits when the parent goes away, so an aborted harness never leaks
//! orphan processes.

use crate::chaos::{splitmix64, ChaosRuntime, DEFAULT_SCALE_US};
use crate::endpoint::Endpoint;
use crate::listener::free_loopback_addrs;
use dex_conditions::FrequencyPair;
use dex_core::{DexActor, DexProcess};
use dex_harness::campaign::{CampaignCell, CampaignSpec};
use dex_harness::spec::{AddressTable, ChaosSpec, RunSpec};
use dex_harness::stats::RunStats;
use dex_replication::{Durability, FileWal, Replica, StateMachine, TotalOrder};
use dex_simnet::NetStats;
use dex_types::{ProcessId, StepDepth, SystemConfig};
use dex_underlying::OracleConsensus;
use std::collections::VecDeque;
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
    /// The spec driving workload, `n`/`t`, seeding and `--stats`.
    pub spec: RunSpec,
    /// Committed slots the kill-9 phase must reach.
    pub slots: u64,
    /// Pipeline window for the kill-9 replicas.
    pub window: u64,
    /// Phase selection.
    pub phase: Phase,
    /// Per-phase wall-clock budget before the harness gives up.
    pub timeout: Duration,
    /// Wall microseconds one virtual chaos-schedule unit spans
    /// (`--chaos-scale-us`, default [`DEFAULT_SCALE_US`]).
    pub scale_us: u64,
}

/// Options one spawned child parses back out of its argv.
#[derive(Clone, Debug)]
pub struct NodeOpts {
    /// This process's id.
    pub me: ProcessId,
    /// Cluster size.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// Run seed (shared by the whole cluster; per-process RNGs derive).
    pub seed: u64,
    /// Chaos schedule this child compiles into its [`ChaosRuntime`]
    /// (`ChaosSpec::None` runs clean).
    pub chaos: ChaosSpec,
    /// Fault budget the chaos schedule is compiled against (last-`f`
    /// placement; the budget children are real processes running correct
    /// code whose liveness the parent does not await).
    pub f: usize,
    /// Wall microseconds per virtual chaos-schedule unit.
    pub scale_us: u64,
    /// Where every process listens (`--peers`); this one binds entry `me`.
    pub peers: AddressTable,
    /// What this child runs.
    pub role: Role,
}

/// A child's role.
#[derive(Clone, Debug)]
pub enum Role {
    /// Single-shot DEX consensus on a proposal.
    Consensus {
        /// This process's input value.
        propose: u64,
        /// Echo aggregation on the actor.
        aggregate: bool,
    },
    /// Multi-slot replication against a WAL.
    Replica {
        /// WAL path (unique per process, stable across respawns).
        wal: PathBuf,
        /// Target committed slots.
        slots: u64,
        /// Pipeline window.
        window: u64,
        /// Boot through crash recovery instead of `on_start`.
        respawn: bool,
        /// Draw per-process *divergent* pending commands instead of the
        /// identical stream (the divergent-state kill -9 schedule).
        divergent: bool,
    },
}

// ---------------------------------------------------------------------
// The stdout line protocol.
// ---------------------------------------------------------------------

/// Extracts `key=` from a `KEY k1=v1 k2=v2 …` report line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|tok| {
        tok.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
    })
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// Renders a child's wire ledger as its `STATS` report line.
pub fn format_stats_line(net: &NetStats) -> String {
    format!(
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
    )
}

/// One `CHAOS` line a child printed for one outbound link: the
/// seed-deterministic fault-trace digest plus realized counters. Only the
/// digest is compared across runs — counters are informational (wall-clock
/// runs legitimately differ in how many frames each connection carries).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChaosReport {
    /// Destination process of the reported link.
    pub to: usize,
    /// [`ChaosRuntime::sched_digest`] for the link.
    pub sched: u64,
    /// Logical frames offered to the link.
    pub frames: u64,
    /// Frames the schedule dropped.
    pub drops: u64,
    /// Frames the schedule duplicated.
    pub dups: u64,
    /// Frames held by a partition or crash window.
    pub held: u64,
    /// Mid-frame connection tears (test schedules only).
    pub torn: u64,
}

/// Parses a child's `CHAOS to=… sched=0x… frames=…` report line.
pub fn parse_chaos_line(line: &str) -> Option<ChaosReport> {
    if !line.starts_with("CHAOS ") {
        return None;
    }
    let sched = field(line, "sched")?;
    let sched = u64::from_str_radix(sched.trim_start_matches("0x"), 16).ok()?;
    Some(ChaosReport {
        to: field_u64(line, "to")? as usize,
        sched,
        frames: field_u64(line, "frames")?,
        drops: field_u64(line, "drops")?,
        dups: field_u64(line, "dups")?,
        held: field_u64(line, "held")?,
        torn: field_u64(line, "torn")?,
    })
}

/// Parses a `STATS` line back into a ledger (parent side).
pub fn parse_stats_line(line: &str) -> Option<NetStats> {
    if !line.starts_with("STATS ") {
        return None;
    }
    Some(NetStats {
        sent: field_u64(line, "sent")?,
        delivered: field_u64(line, "delivered")?,
        multicasts: field_u64(line, "multicasts")?,
        payload_clones: field_u64(line, "clones")?,
        bytes_on_wire: field_u64(line, "bytes")?,
        sent_init: field_u64(line, "init")?,
        sent_echo: field_u64(line, "echo")?,
        sent_batch: field_u64(line, "batch")?,
        sent_other: field_u64(line, "other")?,
        echoes_batched: field_u64(line, "batched")?,
        max_depth: StepDepth::new(field_u64(line, "max_depth")? as u32),
        ..NetStats::default()
    })
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
    let cfg = SystemConfig::new(opts.n, opts.t).map_err(|e| e.to_string())?;
    match opts.role.clone() {
        Role::Consensus { propose, aggregate } => consensus_node(opts, cfg, propose, aggregate),
        Role::Replica {
            wal,
            slots,
            window,
            respawn,
            divergent,
        } => replica_node(opts, cfg, wal, slots, window, respawn, divergent),
    }
}

fn consensus_node(
    opts: NodeOpts,
    cfg: SystemConfig,
    propose: u64,
    aggregate: bool,
) -> Result<(), String> {
    let pair = FrequencyPair::new(cfg).map_err(|e| e.to_string())?;
    let uc = OracleConsensus::new(cfg, opts.me, ProcessId::new(0));
    let mut actor = DexActor::new(DexProcess::new(cfg, opts.me, pair, uc), propose);
    if aggregate {
        actor.enable_aggregation();
    }
    let chaos = if opts.chaos.is_none() {
        None
    } else {
        Some(Arc::new(ChaosRuntime::new(
            &opts.chaos,
            cfg,
            opts.f,
            opts.me,
            opts.seed,
            opts.scale_us,
        )))
    };
    let mut ep = Endpoint::with_net(actor, opts.me, opts.peers, opts.seed, chaos.clone())
        .map_err(|e| format!("bind: {e}"))?;
    ep.boot();
    let mut announced = false;
    loop {
        ep.pump(Duration::from_millis(10));
        if !announced {
            if let Some(d) = ep.actor().decision() {
                let mut out = std::io::stdout().lock();
                if let Some(chaos) = &chaos {
                    for line in chaos.trace_lines() {
                        let _ = writeln!(out, "{line}");
                    }
                }
                let _ = writeln!(
                    out,
                    "DECIDED value={} path={} depth={} elapsed_us={}",
                    d.value,
                    d.path.label(),
                    d.depth.get(),
                    ep.elapsed_us(),
                );
                let _ = writeln!(out, "{}", format_stats_line(ep.stats()));
                let _ = out.flush();
                announced = true;
            }
        }
        // Decided processes keep serving: peers may still need echoes.
    }
}

fn replica_node(
    opts: NodeOpts,
    cfg: SystemConfig,
    wal: PathBuf,
    slots: u64,
    window: u64,
    respawn: bool,
    divergent: bool,
) -> Result<(), String> {
    // Identical pending client commands at every replica — the
    // replicated-log setting: all replicas order the same request
    // stream, so every slot's consensus instance is unanimous. Under
    // `--divergent` every process instead derives its *own* pending
    // stream from `(seed, me, slot)`: slots are contested, decisions ride
    // the coordinator fallback, and the kill -9 victim dies holding state
    // no other process can reconstruct locally — convergence then proves
    // WAL replay plus `t + 1` catch-up, not lockstep recomputation.
    let pending: Vec<u64> = if divergent {
        (0..slots)
            .map(|s| splitmix64(opts.seed ^ ((opts.me.index() as u64) << 32) ^ s))
            .collect()
    } else {
        (0..slots)
            .map(|s| opts.seed.wrapping_mul(1000).wrapping_add(s))
            .collect()
    };
    let mut replica: Replica<TotalOrder<u64>> =
        Replica::new(cfg, opts.me, ProcessId::new(0), pending, slots);
    if window > 1 {
        replica.enable_pipelining(window);
    }
    // `snapshot_every = 0`: never compact, recovery replays the full WAL.
    // In-memory snapshots would not survive a kill -9 anyway.
    let file_wal = FileWal::open(&wal).map_err(|e| format!("wal {}: {e}", wal.display()))?;
    replica.enable_durability(Durability::new(Box::new(file_wal), 0));
    let mut ep = Endpoint::with_net(replica, opts.me, opts.peers, opts.seed, None)
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
            println!("PROGRESS prefix={prefix}");
            let _ = std::io::stdout().flush();
            last_prefix = prefix;
        }
        if !done && prefix as u64 >= slots {
            let mut out = std::io::stdout().lock();
            let _ = writeln!(
                out,
                "DONE digest={:#018x} prefix={} restarts={} elapsed_us={}",
                ep.actor().machine().digest(),
                prefix,
                ep.actor().restarts(),
                ep.elapsed_us(),
            );
            let _ = writeln!(out, "{}", format_stats_line(ep.stats()));
            let _ = out.flush();
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

/// Spawns child `id` in `mode` with the argv every role shares, then
/// `role_args`.
fn spawn_node_process(
    id: usize,
    mode: &str,
    spec: &RunSpec,
    seed: u64,
    peers: &AddressTable,
    role_args: Vec<String>,
) -> Result<ChildHandle, String> {
    let mut argv: Vec<String> = vec!["--node".into(), id.to_string()];
    for (flag, value) in [
        ("--mode", mode.to_string()),
        ("--n", spec.n.to_string()),
        ("--t", spec.t.to_string()),
        ("--seed", seed.to_string()),
        ("--peers", peers.flag()),
    ] {
        argv.extend([flag.to_string(), value]);
    }
    argv.extend(role_args);
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

/// One child's `DECIDED` report.
#[derive(Clone, Debug)]
struct Decision {
    value: u64,
    path: String,
    depth: u64,
    elapsed_us: u64,
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
    /// Decided value (agreement-checked across all awaited processes).
    pub value: u64,
    /// Per-process decision latencies, µs of wall clock.
    pub latencies_us: Vec<u64>,
    /// Processes that decided on the one-step path.
    pub one_step: u64,
    /// Processes that decided on the two-step path.
    pub two_step: u64,
    /// Deepest causal step depth any decision reported.
    pub depth_max: u64,
    /// Summed per-child wire ledgers.
    pub net: NetStats,
    /// Whole-run wall clock, µs (spawn to last decision).
    pub wall_us: u64,
    /// Per-link fault-trace digests reported by the awaited survivors,
    /// sorted by `(from, to)`; empty on chaos-free cells.
    pub links: Vec<LinkTrace>,
}

/// Runs one consensus cell: spawn `n`, wait for the `n - f` survivors'
/// decisions, assert agreement, reap. Under a chaos schedule the last `f`
/// children are the fault budget — real processes running correct code
/// whose links the schedule degrades and whose liveness is deliberately
/// not awaited (mirroring the simulator's budget semantics).
fn run_consensus_cell(opts: &ClusterOpts, run_idx: usize) -> Result<CellRun, String> {
    let spec = &opts.spec;
    let dex_harness::runner::RunInstance { seed, input, .. } = spec.instance(run_idx)?;
    let peers = cluster_addrs(spec)?;
    let start = Instant::now();
    let deadline = start + opts.timeout;
    let mut children = Vec::with_capacity(spec.n);
    for i in 0..spec.n {
        let mut argv = vec!["--propose".into(), input[ProcessId::new(i)].to_string()];
        if !spec.aggregate.is_off() {
            argv.push("--aggregate".into());
        }
        if !spec.chaos.is_none() {
            argv.extend(["--chaos".into(), spec.chaos.flag()]);
            argv.extend(["--f".into(), spec.f.to_string()]);
            argv.extend(["--chaos-scale-us".into(), opts.scale_us.to_string()]);
        }
        children.push(spawn_node_process(
            i,
            "consensus",
            spec,
            seed,
            &peers,
            argv,
        )?);
    }
    // Under chaos the last `f` children are the fault budget: spawned (so
    // the survivors' quorums are honest) but never awaited.
    let survivors = spec.n - spec.f;
    let mut decisions: Vec<Decision> = Vec::with_capacity(survivors);
    let mut links: Vec<LinkTrace> = Vec::new();
    let mut net = NetStats::default();
    'collect: for i in 0..survivors {
        let mut decided = None;
        loop {
            let line = next_line(&mut children, i, deadline).map_err(|cause| {
                format!(
                    "run {run_idx}: no decision ({:?} budget): {cause}",
                    opts.timeout
                )
            })?;
            if line.starts_with("DECIDED ") {
                decided = Some(Decision {
                    value: field_u64(&line, "value").ok_or("bad DECIDED line")?,
                    path: field(&line, "path").ok_or("bad DECIDED line")?.to_string(),
                    depth: field_u64(&line, "depth").ok_or("bad DECIDED line")?,
                    elapsed_us: field_u64(&line, "elapsed_us").ok_or("bad DECIDED line")?,
                });
            } else if let Some(report) = parse_chaos_line(&line) {
                links.push(LinkTrace {
                    from: i,
                    to: report.to,
                    sched: report.sched,
                });
            } else if let Some(stats) = parse_stats_line(&line) {
                net.merge(&stats);
                decisions.push(decided.take().ok_or("STATS before DECIDED")?);
                continue 'collect;
            }
        }
    }
    let wall_us = start.elapsed().as_micros() as u64;
    drop(children);
    let first = decisions[0].value;
    if decisions.iter().any(|d| d.value != first) {
        return Err(format!(
            "run {run_idx}: AGREEMENT VIOLATION across processes: {:?}",
            decisions.iter().map(|d| d.value).collect::<Vec<_>>()
        ));
    }
    links.sort_by_key(|l| (l.from, l.to));
    Ok(CellRun {
        value: first,
        latencies_us: decisions.iter().map(|d| d.elapsed_us).collect(),
        one_step: decisions.iter().filter(|d| d.path == "1-step").count() as u64,
        two_step: decisions.iter().filter(|d| d.path == "2-step").count() as u64,
        depth_max: decisions.iter().map(|d| d.depth).max().unwrap_or(0),
        net,
        wall_us,
        links,
    })
}

/// Outcome of the kill -9 + respawn phase.
#[derive(Clone, Debug)]
pub struct Kill9Run {
    /// Slots every replica committed (== the target on success).
    pub prefix: usize,
    /// The single state-machine digest all replicas agreed on.
    pub digest: String,
    /// Restart counter reported by the respawned victim (expect 1).
    pub restarts: u64,
    /// Whether the divergent-state schedule ran.
    pub divergent: bool,
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
    let peers = cluster_addrs(spec)?;
    let start = Instant::now();
    let deadline = start + opts.timeout;
    let spawn = |i: usize, respawn: bool| {
        let mut argv = vec!["--slots".into(), opts.slots.to_string()];
        argv.extend(["--window".into(), opts.window.to_string()]);
        let wal = wal_dir.join(format!("wal_{i}.log"));
        argv.extend(["--wal".into(), wal.display().to_string()]);
        if respawn {
            argv.push("--respawn".into());
        }
        if divergent {
            argv.push("--divergent".into());
        }
        spawn_node_process(i, "replica", spec, spec.seed, &peers, argv)
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
        let line = next_line(&mut children, victim, deadline).map_err(|cause| {
            format!(
                "kill9: victim never committed {} slots: {cause}",
                spec.kill.after
            )
        })?;
        if let Some(prefix) = field_u64(&line, "prefix") {
            killed_at = killed_at.max(prefix);
        }
    }
    // The literal kill -9 (SIGKILL via Child::kill).
    children[victim].kill();
    // Divergent schedule: before the respawn exists, every survivor must
    // demonstrably outrun the dead victim — the cluster keeps committing
    // with one replica's state gone and n - 1 divergent pending streams.
    // Non-PROGRESS lines (an early DONE and its STATS) are stashed for
    // the convergence pass rather than dropped.
    let mut stash: Vec<VecDeque<String>> = (0..spec.n).map(|_| VecDeque::new()).collect();
    let survivor_floor = if divergent {
        opts.slots.min(killed_at + 2)
    } else {
        0
    };
    if divergent {
        for i in (0..spec.n).filter(|i| *i != victim) {
            loop {
                let line = next_line(&mut children, i, deadline).map_err(|cause| {
                    format!(
                        "kill9: survivor {i} stalled below prefix {survivor_floor} \
                         while the victim was down: {cause}"
                    )
                })?;
                if line.starts_with("PROGRESS ") {
                    if field_u64(&line, "prefix").is_some_and(|p| p >= survivor_floor) {
                        break;
                    }
                } else {
                    let finished = line.starts_with("DONE ");
                    stash[i].push_back(line);
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
    // Convergence: every live child reports DONE with one digest.
    let mut digests = Vec::with_capacity(spec.n);
    let mut prefixes = Vec::with_capacity(spec.n);
    let mut restarts = 0u64;
    let mut net = NetStats::default();
    'collect: for (i, stashed) in stash.iter_mut().enumerate() {
        let mut done = false;
        loop {
            let line = match stashed.pop_front() {
                Some(line) => line,
                None => next_line(&mut children, i, deadline).map_err(|cause| {
                    format!("kill9: no convergence ({:?} budget): {cause}", opts.timeout)
                })?,
            };
            if line.starts_with("DONE ") {
                digests.push(field(&line, "digest").ok_or("bad DONE line")?.to_string());
                prefixes.push(field_u64(&line, "prefix").ok_or("bad DONE line")? as usize);
                if i == victim {
                    restarts = field_u64(&line, "restarts").ok_or("bad DONE line")?;
                }
                done = true;
            } else if done {
                if let Some(stats) = parse_stats_line(&line) {
                    net.merge(&stats);
                    continue 'collect;
                }
            }
        }
    }
    let wall_us = start.elapsed().as_micros() as u64;
    drop(children);
    let digest = digests[0].clone();
    if digests.iter().any(|d| *d != digest) {
        return Err(format!("kill9: digest divergence: {digests:?}"));
    }
    if prefixes.iter().any(|p| *p as u64 != opts.slots) {
        return Err(format!(
            "kill9: incomplete prefixes {prefixes:?} (target {})",
            opts.slots
        ));
    }
    if restarts != 1 {
        return Err(format!(
            "kill9: victim reported {restarts} restarts, expected 1"
        ));
    }
    Ok(Kill9Run {
        prefix: opts.slots as usize,
        digest,
        restarts,
        divergent,
        killed_at,
        survivor_floor,
        wall_us,
        net,
    })
}

fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<u64>() as f64 / xs.len() as f64
    }
}

/// Validates a parsed cluster invocation before any process spawns — the
/// rules that make chaos, fault budgets and the kill schedule compose.
fn validate_cluster(opts: &ClusterOpts) -> Result<(), String> {
    let spec = &opts.spec;
    if !spec.runtime.is_netd() {
        return Err("cluster specs must carry --runtime netd".into());
    }
    if matches!(spec.chaos, ChaosSpec::CrashRestart { .. }) {
        return Err(
            "amnesiac crash-restart is a real process death on this runtime: \
             use --phase kill9 (the kill -9 + respawn schedule) instead of --chaos crash-restart"
                .into(),
        );
    }
    if !spec.chaos.is_none() && opts.phase != Phase::Cells {
        return Err(
            "chaos schedules drive the consensus-cell phase only: add --phase cells \
             (the kill -9 phase's fault is the SIGKILL itself)"
                .into(),
        );
    }
    if spec.f != 0 && spec.chaos.is_none() {
        return Err(
            "netd children all run correct code: --f marks the chaos fault budget \
             and needs --chaos"
                .into(),
        );
    }
    if opts.phase != Phase::Cells && spec.kill.after >= opts.slots {
        return Err(format!(
            "--kill {} must land mid-run: it needs to be < --slots {}",
            spec.kill.after, opts.slots
        ));
    }
    if spec.kill.divergent && spec.t == 0 {
        return Err(
            "--kill N:divergent needs t ≥ 1: divergent pending commands make slots \
             contested, and recovery must close the gap through the t + 1-vouched catch-up"
                .into(),
        );
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
    let workload_flag = spec.workload.flag();
    let mut cell_runs: Vec<CellRun> = Vec::new();
    let mut kill9: Option<Kill9Run> = None;
    if opts.phase != Phase::Kill9 {
        for i in 0..spec.runs {
            let run = run_consensus_cell(opts, i)?;
            println!(
                "cell {workload_flag} run {i}: decided {} ({} of {} one-step, chaos {}) in {:.1} ms",
                run.value,
                run.one_step,
                spec.n - spec.f,
                spec.chaos.label(),
                run.wall_us as f64 / 1000.0,
            );
            cell_runs.push(run);
        }
        if !spec.chaos.is_none() {
            write_chaos_artifact(opts, &cell_runs).map_err(|e| format!("chaos artifact: {e}"))?;
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
            "kill9: converged at prefix {} digest {} after {} restart in {:.1} ms",
            run.prefix,
            run.digest,
            run.restarts,
            run.wall_us as f64 / 1000.0,
        );
        kill9 = Some(run);
    }
    // The unified result surface: same carrier, same breakdown line as
    // `dex-sim --stats` on the other runtimes.
    let mut net = NetStats::default();
    let mut decisions = 0u64;
    let mut wall = Duration::ZERO;
    for run in &cell_runs {
        net.merge(&run.net);
        decisions += run.latencies_us.len() as u64;
        wall += Duration::from_micros(run.wall_us);
    }
    if let Some(k) = &kill9 {
        net.merge(&k.net);
        decisions += (k.prefix * spec.n) as u64;
        wall += Duration::from_micros(k.wall_us);
    }
    let stats = RunStats::of_net(net, decisions, wall);
    if spec.stats {
        println!("{}", stats.breakdown_line());
    }
    write_artifacts(opts, &workload_flag, &cell_runs, kill9.as_ref(), &stats)
        .map_err(|e| format!("artifacts: {e}"))?;
    Ok(())
}

/// Emits `results/netd_chaos_<seed>.json`: per run, the sorted list of
/// per-link fault-trace digests the survivors reported. Deterministic by
/// construction — digests are pure functions of `(seed, from, to,
/// schedule)` and realized counters are excluded — so repeated harness
/// invocations of one seed must produce byte-identical files (asserted by
/// the reproducibility test and `scripts/netd_chaos.sh`).
fn write_chaos_artifact(opts: &ClusterOpts, cells: &[CellRun]) -> std::io::Result<()> {
    let spec = &opts.spec;
    let runs: Vec<String> = cells
        .iter()
        .enumerate()
        .map(|(i, run)| {
            let links: Vec<String> = run
                .links
                .iter()
                .map(|l| {
                    format!(
                        "{{\"from\":{},\"to\":{},\"sched\":\"{:#018x}\"}}",
                        l.from, l.to, l.sched
                    )
                })
                .collect();
            format!(
                "{{\"run\":{},\"seed\":{},\"links\":[{}]}}",
                i,
                spec.seed + i as u64,
                links.join(",")
            )
        })
        .collect();
    std::fs::create_dir_all("results")?;
    std::fs::write(
        format!("results/netd_chaos_{}.json", spec.seed),
        format!(
            "{{\"spec\":{},\"runs\":[{}]}}\n",
            spec.to_json(),
            runs.join(",")
        ),
    )
}

/// Emits `BENCH_netd.json` and `results/netd_<seed>.json`.
fn write_artifacts(
    opts: &ClusterOpts,
    workload_flag: &str,
    cells: &[CellRun],
    kill9: Option<&Kill9Run>,
    stats: &RunStats,
) -> std::io::Result<()> {
    let spec = &opts.spec;
    let mut rows = Vec::new();
    for (i, run) in cells.iter().enumerate() {
        rows.push(format!(
            concat!(
                "{{\"cell\":\"consensus\",\"workload\":\"{}\",\"chaos\":\"{}\",\"run\":{},\"seed\":{},",
                "\"decided\":{},\"one_step\":{},\"two_step\":{},\"depth_max\":{},\"latency_mean_us\":{:.1},",
                "\"latency_max_us\":{},\"bytes_on_wire\":{},\"wall_us\":{}}}"
            ),
            workload_flag,
            spec.chaos.flag(),
            i,
            spec.seed + i as u64,
            run.latencies_us.len(),
            run.one_step,
            run.two_step,
            run.depth_max,
            mean(&run.latencies_us),
            run.latencies_us.iter().max().copied().unwrap_or(0),
            run.net.bytes_on_wire,
            run.wall_us,
        ));
    }
    if let Some(k) = kill9 {
        rows.push(format!(
            concat!(
                "{{\"cell\":\"kill9\",\"slots\":{},\"window\":{},\"restarts\":{},",
                "\"divergent\":{},\"killed_at_prefix\":{},\"survivor_floor\":{},",
                "\"converged\":true,\"digest\":\"{}\",\"bytes_on_wire\":{},\"wall_us\":{}}}"
            ),
            opts.slots,
            opts.window,
            k.restarts,
            k.divergent,
            k.killed_at,
            k.survivor_floor,
            k.digest,
            k.net.bytes_on_wire,
            k.wall_us,
        ));
    }
    let body = format!(
        concat!(
            "{{\"bench\":\"netd\",\"unit\":\"us (wall clock, real processes over localhost TCP)\",",
            "\"n\":{},\"t\":{},\"runs\":{},\"decisions\":{},\"bytes_on_wire\":{},",
            "\"results\":[{}]}}\n"
        ),
        spec.n,
        spec.t,
        spec.runs,
        stats.decisions,
        stats.net.bytes_on_wire,
        rows.join(","),
    );
    std::fs::write("BENCH_netd.json", &body)?;
    std::fs::create_dir_all("results")?;
    let report = format!(
        "{{\"spec\":{},\"bench\":{}}}",
        spec.to_json(),
        body.trim_end(),
    );
    std::fs::write(format!("results/netd_{}.json", spec.seed), report)?;
    Ok(())
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

/// Parses a `--node` child argv (everything after the program name).
pub fn parse_node_args(mut args: Vec<String>) -> Result<NodeOpts, String> {
    let me = take_value(&mut args, "--node")?.ok_or("--node <id> required")?;
    let mode = take_value(&mut args, "--mode")?.ok_or("--mode required")?;
    let n: usize = parse_num("--n", &take_value(&mut args, "--n")?.ok_or("--n required")?)?;
    let t: usize = parse_num("--t", &take_value(&mut args, "--t")?.ok_or("--t required")?)?;
    let seed: u64 = parse_num(
        "--seed",
        &take_value(&mut args, "--seed")?.ok_or("--seed required")?,
    )?;
    let peers = AddressTable::parse(&take_value(&mut args, "--peers")?.ok_or("--peers required")?)?;
    if peers.len() != n {
        return Err(format!("--peers names {} processes, --n {n}", peers.len()));
    }
    let chaos = match take_value(&mut args, "--chaos")? {
        Some(raw) => ChaosSpec::parse(&raw)?,
        None => ChaosSpec::None,
    };
    let f: usize = match take_value(&mut args, "--f")? {
        Some(raw) => parse_num("--f", &raw)?,
        None => 0,
    };
    let scale_us: u64 = match take_value(&mut args, "--chaos-scale-us")? {
        Some(raw) => parse_num("--chaos-scale-us", &raw)?,
        None => DEFAULT_SCALE_US,
    };
    let role = match mode.as_str() {
        "consensus" => Role::Consensus {
            propose: parse_num(
                "--propose",
                &take_value(&mut args, "--propose")?.ok_or("--propose required")?,
            )?,
            aggregate: take_flag(&mut args, "--aggregate"),
        },
        "replica" => Role::Replica {
            wal: PathBuf::from(take_value(&mut args, "--wal")?.ok_or("--wal required")?),
            slots: parse_num(
                "--slots",
                &take_value(&mut args, "--slots")?.ok_or("--slots required")?,
            )?,
            window: parse_num(
                "--window",
                &take_value(&mut args, "--window")?.unwrap_or_else(|| "1".into()),
            )?,
            respawn: take_flag(&mut args, "--respawn"),
            divergent: take_flag(&mut args, "--divergent"),
        },
        other => return Err(format!("unknown --mode `{other}`")),
    };
    if !args.is_empty() {
        return Err(format!("unknown node flags: {args:?}"));
    }
    Ok(NodeOpts {
        me: ProcessId::new(parse_num("--node", &me)?),
        n,
        t,
        seed,
        chaos,
        f,
        scale_us,
        peers,
        role,
    })
}

/// Parses a `--cluster` argv: netd knobs are stripped, the rest must be a
/// valid [`RunSpec`] flag set (with `--runtime netd` implied).
pub fn parse_cluster_args(mut args: Vec<String>) -> Result<ClusterOpts, String> {
    take_flag(&mut args, "--cluster");
    let slots: u64 = match take_value(&mut args, "--slots")? {
        Some(raw) => parse_num("--slots", &raw)?,
        None => 8,
    };
    let window: u64 = match take_value(&mut args, "--window")? {
        Some(raw) => parse_num("--window", &raw)?,
        None => 4,
    };
    let phase = match take_value(&mut args, "--phase")?.as_deref() {
        None | Some("both") => Phase::Both,
        Some("cells") => Phase::Cells,
        Some("kill9") => Phase::Kill9,
        Some(other) => return Err(format!("unknown --phase `{other}` (cells|kill9|both)")),
    };
    let timeout = match take_value(&mut args, "--timeout-secs")? {
        Some(raw) => Duration::from_secs(parse_num("--timeout-secs", &raw)?),
        None => Duration::from_secs(60),
    };
    let scale_us: u64 = match take_value(&mut args, "--chaos-scale-us")? {
        Some(raw) => parse_num("--chaos-scale-us", &raw)?,
        None => DEFAULT_SCALE_US,
    };
    if !args.iter().any(|a| a == "--runtime") {
        args.push("--runtime".into());
        args.push("netd".into());
    }
    let spec = RunSpec::from_args(&args)?;
    Ok(ClusterOpts {
        spec,
        slots,
        window,
        phase,
        timeout,
        scale_us,
    })
}

// ---------------------------------------------------------------------
// Campaign cells over netd: wall-clock vs virtual fast-decision rates.
// ---------------------------------------------------------------------

/// Parses and runs `--campaign <name>:<cell>`: one campaign cell executed
/// on *both* runtimes — simnet in-process and netd as real processes over
/// TCP — recording the two fast-decision rates side by side in
/// `results/campaign_netd_<name>.json`.
fn run_campaign_args(mut args: Vec<String>) -> Result<(), String> {
    let raw = take_value(&mut args, "--campaign")?.ok_or("--campaign <name>:<cell> required")?;
    let (name, idx) = raw
        .split_once(':')
        .ok_or("--campaign wants <name>:<cell>, e.g. smoke:0")?;
    let idx: usize = parse_num("--campaign cell", idx)?;
    let runs: Option<usize> = take_value(&mut args, "--runs")?
        .map(|raw| parse_num("--runs", &raw))
        .transpose()?;
    let timeout = match take_value(&mut args, "--timeout-secs")? {
        Some(raw) => Duration::from_secs(parse_num("--timeout-secs", &raw)?),
        None => Duration::from_secs(60),
    };
    if !args.is_empty() {
        return Err(format!("unknown campaign flags: {args:?}"));
    }
    let campaign =
        CampaignSpec::by_name(name).ok_or_else(|| format!("unknown campaign `{name}`"))?;
    let cells = campaign.cells();
    let cell = cells.get(idx).ok_or_else(|| {
        format!(
            "campaign `{name}` has {} cells; {idx} is out of range",
            cells.len()
        )
    })?;
    let runs = runs.unwrap_or(campaign.seeds);
    run_campaign_cell(&campaign, cell, idx, runs, timeout)
}

/// Runs one campaign cell `runs` times on netd (real processes, wall
/// clock) and on simnet (in-process, virtual time), then writes the
/// side-by-side fast-decision-rate artifact. "Fast" is the paper's
/// expedited set: one-step plus two-step decisions.
fn run_campaign_cell(
    campaign: &CampaignSpec,
    cell: &CampaignCell,
    idx: usize,
    runs: usize,
    timeout: Duration,
) -> Result<(), String> {
    let name = &campaign.name;
    let (mut netd_fast, mut netd_total) = (0u64, 0u64);
    let (mut sim_fast, mut sim_total) = (0u64, 0u64);
    let mut latencies: Vec<u64> = Vec::new();
    let mut wall_us = 0u64;
    for run in 0..runs {
        let spec = campaign.runspec_for_netd(cell, run)?;
        let opts = ClusterOpts {
            spec,
            slots: 8,
            window: 1,
            phase: Phase::Cells,
            timeout,
            scale_us: DEFAULT_SCALE_US,
        };
        let r = run_consensus_cell(&opts, 0)?;
        netd_fast += r.one_step + r.two_step;
        netd_total += r.latencies_us.len() as u64;
        latencies.extend(r.latencies_us.iter().copied());
        wall_us += r.wall_us;
        let sim = campaign.runspec_for(cell, run).run()?;
        sim_fast += sim.paths.count(&"1-step") + sim.paths.count(&"2-step");
        sim_total += sim.paths.total();
        println!(
            "campaign {name}:{idx} run {run}: netd {}/{} fast in {:.1} ms, simnet {}/{} fast",
            r.one_step + r.two_step,
            r.latencies_us.len(),
            r.wall_us as f64 / 1000.0,
            sim_fast,
            sim_total,
        );
    }
    let rate = |fast: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            fast as f64 / total as f64
        }
    };
    let (netd_rate, sim_rate) = (rate(netd_fast, netd_total), rate(sim_fast, sim_total));
    let body = format!(
        concat!(
            "{{\"campaign\":\"{}\",\"cell\":{},\"n\":{},\"t\":{},\"f\":{},",
            "\"adversary\":\"{}\",\"chaos\":\"{}\",\"runs\":{},",
            "\"netd\":{{\"fast\":{},\"decisions\":{},\"fast_rate\":{:.6},",
            "\"latency_mean_us\":{:.1},\"wall_us\":{}}},",
            "\"simnet\":{{\"fast\":{},\"decisions\":{},\"fast_rate\":{:.6}}}}}\n"
        ),
        name,
        idx,
        cell.n,
        cell.t,
        cell.f,
        cell.adversary.flag(),
        cell.chaos.flag(),
        runs,
        netd_fast,
        netd_total,
        netd_rate,
        mean(&latencies),
        wall_us,
        sim_fast,
        sim_total,
        sim_rate,
    );
    std::fs::create_dir_all("results").map_err(|e| format!("results dir: {e}"))?;
    let path = format!("results/campaign_netd_{name}.json");
    std::fs::write(&path, body).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "campaign {name}:{idx}: wall-clock fast-decision rate {netd_rate:.3} (netd) vs {sim_rate:.3} (simnet) over {runs} runs → {path}"
    );
    Ok(())
}

/// `dex-netd` entry: dispatches `--cluster`, `--campaign` and `--node`
/// argv forms.
pub fn main(args: Vec<String>) -> Result<(), String> {
    if args.iter().any(|a| a == "--campaign") {
        run_campaign_args(args)
    } else if args.iter().any(|a| a == "--cluster") {
        run_cluster(&parse_cluster_args(args)?)
    } else if args.iter().any(|a| a == "--node") {
        run_node(parse_node_args(args)?)
    } else {
        Err(concat!(
            "usage: dex-netd --cluster [spec flags] [--slots K] ",
            "[--window W] [--phase cells|kill9|both] [--timeout-secs S] [--chaos-scale-us U]\n",
            "       dex-netd --campaign <name>:<cell> [--runs R] [--timeout-secs S]\n",
            "       (children are spawned internally via --node)"
        )
        .into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_line_round_trips_the_ledger() {
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
        let line = format_stats_line(&net);
        let back = parse_stats_line(&line).expect("parses");
        assert_eq!(back, net);
        assert_eq!(parse_stats_line("STATS sent=oops"), None);
        assert_eq!(parse_stats_line("DECIDED value=1"), None);
    }

    #[test]
    fn node_argv_round_trips_both_roles() {
        let opts = parse_node_args(
            "--node 2 --mode consensus --n 2 --t 0 --seed 9 --peers h:1,h:2 --propose 7"
                .split_whitespace()
                .map(String::from)
                .collect(),
        )
        .expect("consensus argv");
        assert_eq!(opts.me, ProcessId::new(2));
        assert!(matches!(
            opts.role,
            Role::Consensus {
                propose: 7,
                aggregate: false
            }
        ));
        let opts = parse_node_args(
            "--node 1 --mode replica --n 2 --t 0 --seed 9 --peers h:1,h:2 --wal /tmp/w.log --slots 8 --window 4 --respawn --divergent"
                .split_whitespace()
                .map(String::from)
                .collect(),
        )
        .expect("replica argv");
        match opts.role {
            Role::Replica {
                slots,
                window,
                respawn,
                divergent,
                ..
            } => {
                assert_eq!((slots, window), (8, 4));
                assert!(respawn);
                assert!(divergent);
            }
            other => panic!("wrong role {other:?}"),
        }
    }

    #[test]
    fn node_argv_carries_chaos_and_peers() {
        let opts = parse_node_args(
            "--node 2 --mode consensus --n 3 --t 0 --seed 9 --propose 7 \
             --chaos drop:0.4 --f 1 --chaos-scale-us 500 --peers 10.0.0.1:9000,10.0.0.2:9001,10.0.0.3:9002"
                .split_whitespace()
                .map(String::from)
                .collect(),
        )
        .expect("chaos argv");
        assert_eq!(opts.chaos, ChaosSpec::DropHeavy { p: 0.4 });
        assert_eq!((opts.f, opts.scale_us), (1, 500));
        assert_eq!(opts.peers.len(), 3);
        assert_eq!((opts.peers.host(1), opts.peers.port(1)), ("10.0.0.2", 9001));
        // Defaults: clean, no budget, canonical scale.
        let argv = |tail: &str| -> Vec<String> {
            format!("--node 0 --mode consensus --n 2 --t 0 --seed 9 --propose 7 {tail}")
                .split_whitespace()
                .map(String::from)
                .collect()
        };
        let opts = parse_node_args(argv("--peers h:1,h:2")).expect("clean argv");
        assert!(opts.chaos.is_none());
        assert_eq!((opts.f, opts.scale_us), (0, DEFAULT_SCALE_US));
        // The table is the only addressing path: it is required, and it
        // must name exactly `n` processes.
        let err = parse_node_args(argv("")).expect_err("no table");
        assert!(err.contains("--peers required"), "{err}");
        let err = parse_node_args(argv("--peers h:1,h:2,h:3")).expect_err("wrong size");
        assert!(err.contains("names 3 processes"), "{err}");
    }

    #[test]
    fn chaos_line_round_trips_the_report() {
        let line = "CHAOS to=6 sched=0x00ab54a98ceb1f0a frames=12 drops=3 dups=0 held=2 torn=1";
        let report = parse_chaos_line(line).expect("parses");
        assert_eq!(report.to, 6);
        assert_eq!(report.sched, 0x00ab_54a9_8ceb_1f0a);
        assert_eq!(
            (
                report.frames,
                report.drops,
                report.dups,
                report.held,
                report.torn
            ),
            (12, 3, 0, 2, 1)
        );
        assert_eq!(parse_chaos_line("STATS sent=1"), None);
        assert_eq!(parse_chaos_line("CHAOS to=6 sched=zzz frames=1"), None);
    }

    #[test]
    fn cluster_argv_carries_spec_and_netd_knobs() {
        let opts = parse_cluster_args(
            "--cluster --n 5 --t 0 --workload unanimous:7 --runs 2 --seed 31 --slots 6 --phase cells --chaos-scale-us 250"
                .split_whitespace()
                .map(String::from)
                .collect(),
        )
        .expect("cluster argv");
        assert_eq!(opts.spec.n, 5);
        assert!(opts.spec.runtime.is_netd());
        assert_eq!(opts.slots, 6);
        assert_eq!(opts.phase, Phase::Cells);
        assert_eq!(opts.scale_us, 250);
    }

    fn cluster_opts(argv: &str) -> ClusterOpts {
        parse_cluster_args(argv.split_whitespace().map(String::from).collect())
            .expect("cluster argv parses")
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
        let opts = cluster_opts("--cluster --n 7 --t 1 --kill 2:divergent --phase kill9");
        assert_eq!(validate_cluster(&opts), Ok(()));
    }
}
