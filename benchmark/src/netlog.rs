//! `netlog-n7-w1` / `netlog-n7-w8`: seven replicas in this process, each
//! an [`Endpoint`] on its own pump thread with a real localhost TCP mesh
//! and a write-ahead log synced per commit. All replicas hold the same
//! client stream, so every slot is unanimous; no delay is injected, so
//! latency is processor and socket time.
//!
//! One repetition is one fresh cluster committing [`slots_per_rep`] slots:
//! ports reserved, mesh fully connected (that part is set-up and timed as
//! `netd.connect_ms`), then the closed loop runs until every replica holds
//! the full prefix. A bind failure or the deadline ends the repetition at
//! once, with the unfinished slots counted as failed.
//!
//! **Where the WAL lives.** The measured repetitions keep it in memory
//! ([`MemWal`]: the same append-and-sync-per-commit path, no disk). On the
//! sizing box the disk's fsync latency flips between ≈ 110 µs and ≈ 280 µs
//! for half an hour at a time, which moved `netlog-n7-w1` by 1.5× and
//! `-w8` by 1.3× between otherwise equal sets of runs — wider than any
//! bound the driver allows, and nothing the program does. The disk is
//! measured where no bound depends on it: a traced run ends with one
//! repetition on [`FileWal`] (`netd.filewal_values_per_s`, `netd.wal_share`,
//! `replication.wal_syncs_per_slot`, the replay check), next to the
//! `replication.wal_append_sync_us` and `replication.solo_slot_us` probes.

use crate::inputs;
use crate::metrics::Values;
use crate::run::{check, Clock, Paths, Report, Run};
use crate::spans::{self, ThreadTrace, Timed, TimedWal, HANDLER_SPANS};
use crate::stats::{median, quantile, sort, tail_quantile, MIN_BEYOND};
use dex_harness::spec::AddressTable;
use dex_netd::Endpoint;
use dex_replication::{
    Durability, FileWal, MemWal, Replica, ReplicaMsg, TotalOrder, Wal, WalRecord,
};
use dex_simnet::{Actor, NetStats};
use dex_types::{ProcessId, SystemConfig};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const N: usize = 7;
const T: usize = 1;
/// How long a repetition may take before it is abandoned.
const DEADLINE: Duration = Duration::from_secs(60);
/// How long the mesh may take to connect fully.
const CONNECT_DEADLINE: Duration = Duration::from_secs(10);
/// Longest a pump waits for a frame before looking at the clock again.
const PUMP_IDLE: Duration = Duration::from_millis(5);

type Log = TotalOrder<u64>;

/// Slots one repetition commits: ≈ 0.8 s of work at either window (short
/// repetitions, many of them: see the note in `simlog.rs`).
pub fn slots_per_rep(window: u64) -> u64 {
    if window == 1 {
        500
    } else {
        900
    }
}

/// Reserves `n` distinct free ports by binding port 0, and spells them as
/// the address table the mesh takes. The listeners are dropped on return;
/// the mesh re-binds with `SO_REUSEADDR` a moment later.
pub fn reserve_ports(n: usize) -> Result<AddressTable, String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reserving ports: {e}"))?;
    let peers: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| format!("127.0.0.1:{}", a.port())))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reading a reserved port: {e}"))?;
    AddressTable::parse(&peers.join(","))
}

/// What one replica's pump thread hands back.
struct ReplicaOut {
    log: Vec<u64>,
    digest: u64,
    paths: Paths,
    wire: NetStats,
    delivered: u64,
    decode_failures: u64,
    recycled: u64,
    uc_coalesced: u64,
    /// Seconds from this replica's start until its prefix reached k + 1.
    commit_at: Vec<f64>,
    started: Instant,
    ended: Instant,
    trace: Option<ThreadTrace>,
}

/// One repetition's results.
struct Rep {
    traced: bool,
    connect_s: f64,
    wall_s: f64,
    committed: u64,
    latencies_ms: Vec<f64>,
    replicas: Vec<ReplicaOut>,
    /// Reading the finished WAL files back; `None` for an in-memory WAL.
    replay_us_per_krecord: Option<f64>,
}

/// State the pump threads share.
struct Shared {
    connected: AtomicUsize,
    done: AtomicUsize,
    abort: AtomicBool,
}

fn pump_replica<A>(
    mut ep: Endpoint<A>,
    replica: fn(&A) -> &Replica<Log>,
    me: usize,
    slots: u64,
    traced: bool,
    shared: &Shared,
) -> ReplicaOut
where
    A: Actor<Msg = ReplicaMsg<u64>>,
{
    // Set-up: wait for the full mesh, then for every other replica.
    let connect_by = Instant::now() + CONNECT_DEADLINE;
    while ep.connected() < N - 1 && Instant::now() < connect_by {
        std::thread::sleep(Duration::from_millis(1));
    }
    if ep.connected() < N - 1 {
        eprintln!(
            "replica {me}: {} of {} peers connected",
            ep.connected(),
            N - 1
        );
        shared.abort.store(true, Ordering::SeqCst);
    }
    shared.connected.fetch_add(1, Ordering::SeqCst);
    while shared.connected.load(Ordering::SeqCst) < N && !shared.abort.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_micros(200));
    }

    let started = Instant::now();
    let deadline = started + DEADLINE;
    let root = traced.then(spans::open);
    ep.boot();
    let mut commit_at = Vec::with_capacity(slots as usize);
    let mut finished = false;
    while shared.done.load(Ordering::SeqCst) < N && !shared.abort.load(Ordering::SeqCst) {
        let pump = traced.then(spans::open);
        let busy = ep.pump(PUMP_IDLE);
        if let Some(pump) = pump {
            pump.close(if busy { "pump" } else { "pump_idle" }, "netd");
        }
        let prefix = replica(ep.actor()).log().committed_prefix();
        if prefix > commit_at.len() {
            let now = started.elapsed().as_secs_f64();
            commit_at.resize(prefix, now);
        }
        if !finished && prefix as u64 >= slots {
            finished = true;
            shared.done.fetch_add(1, Ordering::SeqCst);
        }
        if Instant::now() > deadline {
            eprintln!("replica {me}: deadline passed at prefix {prefix} of {slots}");
            shared.abort.store(true, Ordering::SeqCst);
        }
    }
    let ended = Instant::now();
    if let Some(root) = root {
        root.close("pump_thread", "bench");
    }
    let r = replica(ep.actor());
    let mut paths = Paths::default();
    for p in r.paths() {
        paths.note(p.path);
    }
    ReplicaOut {
        log: r.log().prefix(),
        digest: dex_replication::StateMachine::digest(r.machine()),
        paths,
        wire: ep.stats().clone(),
        delivered: ep.delivered(),
        decode_failures: ep.decode_failures,
        recycled: r.mux().recycled(),
        uc_coalesced: r.uc_coalesced(),
        commit_at,
        started,
        ended,
        trace: traced.then(|| {
            spans::take_thread(&format!("pump-{me}"), (ended - started).as_nanos() as u64)
        }),
    }
}

/// Builds replica `me` with its WAL in the file `wal`, or in memory without
/// one, wrapped for tracing or not.
pub fn replica(
    config: SystemConfig,
    me: usize,
    stream: &[u64],
    window: u64,
    wal: Option<&Path>,
    traced: bool,
) -> Result<Replica<Log>, String> {
    let slots = stream.len() as u64;
    let mut replica: Replica<Log> = Replica::new(
        config,
        ProcessId::new(me),
        ProcessId::new(0),
        stream.to_vec(),
        slots,
    );
    if window > 1 {
        replica.enable_pipelining(window);
    }
    fn boxed<W: Wal<u64> + 'static>(wal: W, traced: bool) -> Box<dyn Wal<u64>> {
        if traced {
            Box::new(TimedWal(wal))
        } else {
            Box::new(wal)
        }
    }
    let wal = match wal {
        Some(path) => {
            let file = FileWal::<u64>::open(path);
            boxed(
                file.map_err(|e| format!("wal {}: {e}", path.display()))?,
                traced,
            )
        }
        None => boxed(MemWal::<u64>::new(), traced),
    };
    // No snapshots: the WAL keeps every commit, which the output check reads
    // back (and what a kill -9 recovery would replay).
    replica.enable_durability(Durability::new(wal, 0));
    Ok(replica)
}

/// What every replica of one repetition is built from.
struct Cluster<'a> {
    config: SystemConfig,
    stream: &'a [u64],
    window: u64,
    addrs: &'a AddressTable,
    seed: u64,
    rep: u32,
    shared: &'a Shared,
}

impl Cluster<'_> {
    /// Builds every endpoint on this thread — so a WAL or bind failure ends
    /// the repetition before any replica boots — then pumps each on a thread
    /// of its own until all hold the full prefix. `wrap` puts the replica
    /// into the actor the endpoint hosts and `replica_of` gets it back out.
    fn run<A>(
        &self,
        wal_path: &dyn Fn(usize) -> Option<PathBuf>,
        traced: bool,
        wrap: fn(Replica<Log>) -> A,
        replica_of: fn(&A) -> &Replica<Log>,
    ) -> Result<Vec<ReplicaOut>, String>
    where
        A: Actor<Msg = ReplicaMsg<u64>> + Send,
    {
        let slots = self.stream.len() as u64;
        let endpoints = (0..N)
            .map(|me| {
                let r = replica(
                    self.config,
                    me,
                    self.stream,
                    self.window,
                    wal_path(me).as_deref(),
                    traced,
                )?;
                Endpoint::with_net(
                    wrap(r),
                    ProcessId::new(me),
                    self.addrs.clone(),
                    self.seed,
                    None,
                )
                .map_err(|e| format!("replica {me} bind: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let (rep, shared) = (self.rep, self.shared);
        Ok(std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .enumerate()
                .map(|(me, ep)| {
                    scope.spawn(move || {
                        spans::set_rep(rep);
                        pump_replica(ep, replica_of, me, slots, traced, shared)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pump thread panicked"))
                .collect()
        }))
    }
}

/// Reads every replica's WAL file back through a fresh handle and checks
/// it against that replica's committed prefix: every commit was synced
/// before it was acted on, so nothing may be missing. Returns the time the
/// replay took, in µs per thousand records.
fn check_durable(
    replicas: &[ReplicaOut],
    wal_path: &dyn Fn(usize) -> Option<PathBuf>,
    rep: u32,
    problems: &mut Vec<String>,
) -> Result<f64, String> {
    let started = Instant::now();
    let mut replayed = 0u64;
    for (i, r) in replicas.iter().enumerate() {
        let path = wal_path(i).expect("an on-disk repetition names its WAL files");
        let records = FileWal::<u64>::open(path)
            .map_err(|e| format!("reopening wal {i}: {e}"))?
            .replay();
        replayed += records.len() as u64;
        let mut durable = vec![None; r.log.len()];
        for WalRecord::Commit { slot, value } in records {
            if let Some(entry) = durable.get_mut(slot as usize) {
                *entry = Some(value);
            }
        }
        let durable: Vec<u64> = durable.into_iter().flatten().collect();
        check(problems, durable == r.log, || {
            format!("rep {rep}: replica {i}'s WAL does not replay to its committed prefix")
        });
    }
    Ok(started.elapsed().as_secs_f64() * 1e6 / (replayed.max(1) as f64 / 1000.0))
}

/// Runs one cluster to completion (or failure) and checks its outputs.
/// `on_disk` puts every replica's WAL in a file under the out directory.
fn repetition(
    run: &Run,
    window: u64,
    stream: &[u64],
    rep: u32,
    traced: bool,
    on_disk: bool,
    problems: &mut Vec<String>,
) -> Result<Rep, String> {
    let slots = stream.len() as u64;
    let config = SystemConfig::new(N, T).expect("7 > 6·1");
    let wal_dir: PathBuf = run
        .out_dir
        .join(format!("wal-{}-{}", run.workload, std::process::id()));
    if on_disk {
        let _ = std::fs::remove_dir_all(&wal_dir);
        std::fs::create_dir_all(&wal_dir).map_err(|e| format!("{}: {e}", wal_dir.display()))?;
    }
    let wal_path = |i: usize| on_disk.then(|| wal_dir.join(format!("r{i}.wal")));

    let setup = Instant::now();
    let addrs = reserve_ports(N)?;
    let shared = Shared {
        connected: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
    };
    let cluster = Cluster {
        config,
        stream,
        window,
        addrs: &addrs,
        seed: run.seed,
        rep,
        shared: &shared,
    };
    let replicas = if traced {
        cluster.run(&wal_path, true, Timed, |t| &t.0)?
    } else {
        cluster.run(&wal_path, false, |r| r, |r| r)?
    };

    let first_start = replicas.iter().map(|r| r.started).min().expect("n > 0");
    let last_end = replicas.iter().map(|r| r.ended).max().expect("n > 0");
    let committed = replicas
        .iter()
        .map(|r| r.log.len() as u64)
        .min()
        .expect("n > 0");

    // Output checks: one log, exactly the client stream.
    let reference = &replicas[0];
    for (i, r) in replicas.iter().enumerate() {
        check(
            problems,
            r.log == reference.log && r.digest == reference.digest,
            || format!("rep {rep}: replica {i} disagrees with replica 0 on log or digest"),
        );
        check(problems, r.decode_failures == 0, || {
            format!(
                "rep {rep}: replica {i} failed to decode {} frames",
                r.decode_failures
            )
        });
        check(problems, r.wire.payload_clones == 0, || {
            format!(
                "rep {rep}: replica {i} cloned {} payloads",
                r.wire.payload_clones
            )
        });
    }
    check(problems, committed == slots, || {
        format!("rep {rep}: {committed} of {slots} slots committed by every replica")
    });
    check(
        problems,
        reference.log[..] == stream[..reference.log.len()],
        || format!("rep {rep}: the committed log is not the generated client stream"),
    );
    let replay_us_per_krecord = if on_disk {
        let replay = check_durable(&replicas, &wal_path, rep, problems);
        let _ = std::fs::remove_dir_all(&wal_dir);
        Some(replay?)
    } else {
        None
    };

    // A slot's latency: from the commit that opened its place in the window
    // (or the start) to its own commit, as each replica saw it.
    let w = window as usize;
    let mut latencies_ms = Vec::with_capacity(N * slots as usize);
    for r in &replicas {
        for k in 0..r.commit_at.len() {
            let opened = if k >= w { r.commit_at[k - w] } else { 0.0 };
            latencies_ms.push((r.commit_at[k] - opened) * 1e3);
        }
    }
    Ok(Rep {
        traced,
        connect_s: (first_start - setup).as_secs_f64(),
        wall_s: (last_end - first_start).as_secs_f64(),
        committed,
        latencies_ms,
        replicas,
        replay_us_per_krecord,
    })
}

pub fn run(run: &Run, window: u64) -> Report {
    let slots = slots_per_rep(window);
    let stream = inputs::client_stream(run.seed, slots as usize);
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut rep_no = 0;
    // One repetition, counted; `None` once one could not run at all.
    let mut repeat = |traced: bool, on_disk: bool, problems: &mut Vec<String>| -> Option<Rep> {
        rep_no += 1;
        let rep = repetition(run, window, &stream, rep_no, traced, on_disk, problems)
            .map_err(|e| problems.push(format!("rep {rep_no}: {e}")))
            .ok();
        attempted += slots;
        failed += slots - rep.as_ref().map_or(0, |r| r.committed);
        rep
    };
    // Warm-up: allocator, loopback, thread stacks.
    let (warm, setup_s) = run.warm_up(|| repeat(false, false, &mut problems));
    let mut alive = warm.is_some();
    let clock = Clock::start(run.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while alive && clock.more(run, plain.len(), traced.len()) {
        let rep = repeat(
            run.traced && plain.len() > traced.len(),
            false,
            &mut problems,
        );
        alive = rep.is_some();
        if let Some(rep) = rep {
            if rep.traced { &mut traced } else { &mut plain }.push(rep);
        }
    }
    // The disk, where no bound depends on it: one traced repetition on
    // `FileWal`, with the durability check.
    let mut on_disk = if alive && run.traced {
        repeat(true, true, &mut problems)
    } else {
        None
    };

    let mut values = Values::new();
    let mut traces = Vec::new();
    if !plain.is_empty() {
        let rates: Vec<f64> = plain
            .iter()
            .map(|r| r.committed as f64 / r.wall_s)
            .collect();
        if run.traced {
            layer_values(slots, &plain, &traced, &mut values, &mut problems);
            if let Some(rep) = &on_disk {
                disk_values(rep, &mut values);
            }
            let recorded = traced.iter_mut().chain(&mut on_disk);
            let recorded = recorded.flat_map(|rep| &mut rep.replicas);
            traces.extend(recorded.filter_map(|r| r.trace.take()));
        } else {
            let committed: u64 = plain.iter().map(|r| r.committed).sum();
            let delivered: u64 = plain
                .iter()
                .flat_map(|r| &r.replicas)
                .map(|r| r.delivered)
                .sum();
            let mut paths = Paths::default();
            for r in plain.iter().flat_map(|r| &r.replicas) {
                paths.add(&r.paths);
            }
            values.insert("committed_values_per_s", median(&rates));
            values.insert("msgs_per_value", delivered as f64 / committed.max(1) as f64);
            values.insert("one_step_share", paths.one_step_share());
            values.insert("fast_share", paths.fast_share());
        }
    }
    Report {
        setup_s,
        attempted,
        failed,
        problems,
        values,
        traces,
    }
}

/// Per-layer values of a traced run: latencies and wire counts from the
/// untraced repetitions, time shares from the traced ones.
fn layer_values(
    slots: u64,
    plain: &[Rep],
    traced: &[Rep],
    values: &mut Values,
    problems: &mut Vec<String>,
) {
    let committed: u64 = plain.iter().map(|r| r.committed).sum();
    let bytes: u64 = plain
        .iter()
        .flat_map(|r| &r.replicas)
        .map(|r| r.wire.bytes_on_wire)
        .sum();
    values.insert(
        "runtime.bytes_per_value",
        bytes as f64 / committed.max(1) as f64,
    );
    let mut latencies: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    sort(&mut latencies);
    if !latencies.is_empty() {
        values.insert("netd.slot_commit_ms_p50", quantile(&latencies, 0.5));
        if let Some(p99) = tail_quantile(&latencies, 0.99, MIN_BEYOND) {
            values.insert("netd.slot_commit_ms_p99", p99);
        }
    }
    let all = || plain.iter().chain(traced);
    let connect_ms: Vec<f64> = all().map(|r| r.connect_s * 1e3).collect();
    values.insert("netd.connect_ms", median(&connect_ms));
    let decode_failures: u64 = all()
        .flat_map(|r| &r.replicas)
        .map(|r| r.decode_failures)
        .sum();
    values.insert("netd.decode_failures", decode_failures as f64);
    let per_slot = |f: fn(&ReplicaOut) -> u64| {
        let total: u64 = plain.iter().flat_map(|r| &r.replicas).map(f).sum();
        total as f64 / (slots * plain.len() as u64) as f64
    };
    values.insert("replication.recycled_per_slot", per_slot(|r| r.recycled));
    values.insert(
        "replication.uc_coalesced_per_slot",
        per_slot(|r| r.uc_coalesced),
    );

    if traced.is_empty() {
        return;
    }
    let threads: Vec<&ThreadTrace> = traced
        .iter()
        .flat_map(|r| &r.replicas)
        .filter_map(|r| r.trace.as_ref())
        .collect();
    let sum = |name: &str| threads.iter().map(|t| t.total_ns(name)).sum::<u64>() as f64;
    let wall_ns: f64 = threads.iter().map(|t| t.wall_ns as f64).sum();
    let handler_ns: f64 = HANDLER_SPANS.iter().map(|s| sum(s)).sum();
    let delivered: u64 = traced
        .iter()
        .flat_map(|r| &r.replicas)
        .map(|r| r.delivered)
        .sum();
    values.insert("replication.handler_share", handler_ns / wall_ns);
    values.insert("netd.pump_busy_share", sum("pump") / wall_ns);
    values.insert(
        "netd.nonhandler_us_per_delivery",
        (sum("pump") - sum("on_message")) / 1e3 / delivered.max(1) as f64,
    );
    let coverage = threads
        .iter()
        .map(|t| t.coverage())
        .fold(f64::INFINITY, f64::min);
    check(problems, (coverage - 1.0).abs() <= 0.05, || {
        format!("a pump thread's self times cover {coverage:.3} of its traced wall")
    });
    values.insert("bench.span_coverage", coverage);
    let rate = |reps: &[Rep]| {
        median(
            &reps
                .iter()
                .map(|r| r.wall_s / r.committed.max(1) as f64)
                .collect::<Vec<_>>(),
        )
    };
    values.insert("bench.trace_overhead", rate(traced) / rate(plain));
}

/// What the one repetition on `FileWal` says about the disk.
fn disk_values(rep: &Rep, values: &mut Values) {
    let threads = rep.replicas.iter().filter_map(|r| r.trace.as_ref());
    let (mut wal_ns, mut wall_ns, mut syncs) = (0, 0, 0);
    for t in threads {
        wal_ns += t.total_ns("wal_append") + t.total_ns("wal_sync");
        wall_ns += t.wall_ns;
        syncs += t.count("wal_sync");
    }
    values.insert(
        "netd.filewal_values_per_s",
        rep.committed as f64 / rep.wall_s,
    );
    values.insert("netd.wal_share", wal_ns as f64 / wall_ns.max(1) as f64);
    values.insert(
        "replication.wal_syncs_per_slot",
        syncs as f64 / (rep.committed.max(1) * N as u64) as f64,
    );
    if let Some(replay) = rep.replay_us_per_krecord {
        values.insert("replication.wal_replay_us_per_krecord", replay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_ports_are_distinct_and_bindable() {
        let table = reserve_ports(N).unwrap();
        assert_eq!(table.len(), N);
        let mut ports: Vec<u16> = (0..N).map(|i| table.port(i)).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), N);
        for i in 0..N {
            assert_eq!(table.host(i), "127.0.0.1");
            TcpListener::bind(("127.0.0.1", table.port(i))).expect("the reservation was released");
        }
    }
}
