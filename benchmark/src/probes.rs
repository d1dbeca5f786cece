//! Per-layer probes: timed loops over one layer's public functions, the
//! same on every workload. Each reports the median of [`BATCHES`] batches;
//! inputs and results pass through `black_box`. Sizes follow the workloads
//! (n = 31, t = 5 unless a probe says otherwise).
//!
//! A probe times a layer alone, with warm caches and nothing contending, so
//! it bounds what that layer costs inside a workload from below; the traced
//! run says what it costs there.

use crate::netlog;
use crate::run::Run;
use crate::stats::{median, quantile, sort};
use dex_adversary::{ByzantineStrategy, FaultPlan};
use dex_broadcast::{EchoAggregator, IdbMessage, IdenticalBroadcast};
use dex_conditions::{DecisionGate, FrequencyPair};
use dex_core::{DexMsg, DexProcess};
use dex_harness::campaign::{aggregate, run_digests, CampaignSpec};
use dex_harness::runner::{run_instance, Algo, RunInstance, UnderlyingKind};
use dex_netd::frame::encode_frame;
use dex_netd::{Endpoint, FrameBuf, Mesh, WireCodec};
use dex_replication::{FileWal, ReplicaMsg, ReplicatedLog, SlotMux, Wal, WalRecord};
use dex_simnet::{DelayModel, FaultSchedule};
use dex_types::{InputVector, ProcessId, StepDepth, SystemConfig, View};
use dex_underlying::{Dest, OracleConsensus, OracleMsg, Outbox, UnderlyingConsensus};
use dex_workloads::PopulationModel;
use rand::rngs::StdRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches per probe; the median is reported.
const BATCHES: usize = 5;
const N: usize = 31;
const T: usize = 5;

fn cfg(n: usize, t: usize) -> SystemConfig {
    SystemConfig::new(n, t).expect("probe sizes are legal")
}

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Median over batches of the mean time of `op`, in ns per `per` units of
/// work (`op` does `per` units each call, `calls` calls make a batch).
fn ns_per(calls: usize, per: usize, mut op: impl FnMut()) -> f64 {
    let mut batches = [0.0; BATCHES];
    for batch in &mut batches {
        let started = Instant::now();
        for _ in 0..calls {
            op();
        }
        *batch = started.elapsed().as_nanos() as f64 / (calls * per) as f64;
    }
    median(&batches)
}

/// Like [`ns_per`] for an `op` that times two phases itself and returns
/// their durations; reports `(first, second)` in ns per unit.
fn ns_per_phases(
    calls: usize,
    per: (usize, usize),
    mut op: impl FnMut() -> (Duration, Duration),
) -> (f64, f64) {
    let (mut first, mut second) = ([0.0; BATCHES], [0.0; BATCHES]);
    for b in 0..BATCHES {
        let (mut a, mut z) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..calls {
            let (x, y) = op();
            a += x;
            z += y;
        }
        first[b] = a.as_nanos() as f64 / (calls * per.0) as f64;
        second[b] = z.as_nanos() as f64 / (calls * per.1) as f64;
    }
    (median(&first), median(&second))
}

fn types(out: &mut Vec<(&'static str, f64)>) {
    let mut view = View::<u64>::bottom(N);
    let mut i = 0usize;
    out.push((
        "types.view_set_ns",
        ns_per(200_000, 1, || {
            i += 1;
            black_box(view.set(pid(i % N), (i % 4) as u64));
        }),
    ));
    out.push((
        "types.view_top2_ns",
        ns_per(200_000, 1, || {
            let v = black_box(&view);
            black_box((v.first_with_count(), v.second_with_count()));
        }),
    ));
}

/// One slot's receptions as the gates see them: an 18/13 split, so `P1`
/// and `P2` are evaluated at the quorum, fail, and the watermark skips the
/// receptions that cannot change the outcome.
fn conditions(out: &mut Vec<(&'static str, f64)>) {
    let pair = FrequencyPair::new(cfg(N, T)).expect("31 > 6·5");
    let mut view = View::<u64>::bottom(N);
    let prefixes: Vec<View<u64>> = (0..N)
        .map(|i| {
            view.set(pid(i), if i < 18 { 1 } else { 2 });
            view.clone()
        })
        .collect();
    let quorum = cfg(N, T).quorum();
    let (mut evals, mut skips) = (0, 0);
    out.push((
        "conditions.gate_try_ns",
        ns_per(20_000, 2 * N, || {
            let (mut g1, mut g2) = (DecisionGate::new(quorum), DecisionGate::new(quorum));
            for v in &prefixes {
                black_box(g1.try_p1(&pair, black_box(v)));
                black_box(g2.try_p2(&pair, black_box(v)));
            }
            evals = g1.evals() + g2.evals();
            skips = g1.skips() + g2.skips();
        }),
    ));
    out.push((
        "conditions.gate_skip_ratio",
        skips as f64 / (evals + skips) as f64,
    ));
}

fn broadcast(out: &mut Vec<(&'static str, f64)>) {
    let mut idb = IdenticalBroadcast::<ProcessId, u64>::new(cfg(N, T));
    let echoes: Vec<(ProcessId, IdbMessage<ProcessId, u64>)> = (0..N)
        .flat_map(|origin| {
            (0..N).map(move |from| {
                let echo = IdbMessage::Echo {
                    key: pid(origin),
                    value: 7,
                };
                (pid(from), echo)
            })
        })
        .collect();
    out.push((
        "broadcast.idb_on_message_ns",
        ns_per(200, echoes.len(), || {
            for (from, echo) in &echoes {
                black_box(idb.on_message(*from, black_box(echo)));
            }
            idb.reset();
        }),
    ));

    // A window of 8 slots' echoes offered in one tick, then one flush.
    let mut agg = EchoAggregator::<(u64, ProcessId), u64>::new();
    let offers = 8 * N;
    let (offer, flush) = ns_per_phases(2_000, (offers, 1), || {
        let started = Instant::now();
        for slot in 0..8u64 {
            for origin in 0..N {
                black_box(agg.offer((slot, pid(origin)), 7, StepDepth::new(2)));
            }
        }
        let offered = started.elapsed();
        agg.try_arm();
        let started = Instant::now();
        black_box(agg.take_batches());
        let flushed = started.elapsed();
        agg.reset();
        (offered, flushed)
    });
    out.push(("broadcast.agg_offer_ns", offer));
    out.push(("broadcast.agg_flush_ns", flush));
}

/// One oracle instance at n = 13 from construction to every process
/// holding the decision, routed by hand.
fn underlying(out: &mut Vec<(&'static str, f64)>) {
    let (n, config) = (13, cfg(13, 2));
    let mut rng = StdRng::seed_from_u64(1);
    let round_ns = ns_per(2_000, 1, || {
        let mut nodes: Vec<OracleConsensus<u64>> = (0..n)
            .map(|i| OracleConsensus::new(config, pid(i), pid(0)))
            .collect();
        let mut outbox = Outbox::new();
        let mut announce = Outbox::new();
        for i in 0..n {
            nodes[i].propose(7, &mut rng, &mut outbox);
            for (_, msg) in outbox.drain() {
                nodes[0].on_message(pid(i), &msg, &mut rng, &mut announce);
            }
        }
        for (dest, msg) in announce.drain() {
            assert!(matches!((dest, &msg), (Dest::All, OracleMsg::Decide(7))));
            for node in &mut nodes {
                node.on_message(pid(0), &msg, &mut rng, &mut outbox);
            }
        }
        assert!(nodes.iter().all(|node| node.decision() == Some(&7)));
        black_box(nodes);
    });
    out.push(("underlying.oracle_round_us", round_ns / 1e3));
}

/// One unanimous slot as one `DexProcess` sees it — 31 proposals, 31 inits
/// and 961 echoes — then the recycle that readies it for the next slot.
fn core(out: &mut Vec<(&'static str, f64)>) {
    let config = cfg(N, T);
    let fresh_uc = || OracleConsensus::<u64>::new(config, pid(1), pid(0));
    let pair = FrequencyPair::new(config).expect("31 > 6·5");
    let mut process = DexProcess::new(config, pid(1), pair, fresh_uc());
    let mut slot: Vec<(ProcessId, DexMsg<u64, OracleMsg<u64>>)> = Vec::new();
    for i in 0..N {
        slot.push((pid(i), DexMsg::Proposal(7)));
        let init = IdbMessage::Init {
            key: pid(i),
            value: 7,
        };
        slot.push((pid(i), DexMsg::Idb(init)));
    }
    for origin in 0..N {
        for from in 0..N {
            let echo = IdbMessage::Echo {
                key: pid(origin),
                value: 7,
            };
            slot.push((pid(from), DexMsg::Idb(echo)));
        }
    }
    let mut rng = StdRng::seed_from_u64(1);
    let mut outbox = Outbox::new();
    let (message, recycle) = ns_per_phases(200, (slot.len(), 1), || {
        let started = Instant::now();
        process.propose(7, &mut rng, &mut outbox);
        let mut decided = false;
        for (from, msg) in &slot {
            decided |= process
                .on_message(*from, black_box(msg), &mut rng, &mut outbox)
                .is_some();
            outbox.drain_iter().for_each(drop);
        }
        let handled = started.elapsed();
        assert!(decided, "a unanimous slot decides");
        let started = Instant::now();
        black_box(process.recycle(fresh_uc()));
        (handled, started.elapsed())
    });
    out.push(("core.dex_on_message_ns", message));
    out.push(("core.dex_recycle_ns", recycle));
}

fn replication(run: &Run, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let config = cfg(N, T);
    let mut mux = SlotMux::<u64>::new(config, pid(1), pid(0));
    mux.set_window(8);
    for slot in 0..8 {
        mux.checkout(slot);
    }
    out.push((
        "replication.mux_checkout_live_ns",
        ns_per(200_000, 1, || {
            black_box(mux.checkout(black_box(5)).1);
        }),
    ));
    // Slide the window by one: slot k retires, slot k + 8 reuses it.
    let mut k = 0u64;
    out.push((
        "replication.mux_recycle_ns",
        ns_per(20_000, 1, || {
            k += 1;
            mux.retire_below(k);
            black_box(mux.checkout(k + 7).1);
        }),
    ));
    assert!(mux.recycled() > 0 && mux.live() == 8);
    out.push((
        "replication.log_commit_ns",
        ns_per(20, 10_000, || {
            let mut log = ReplicatedLog::<u64>::new();
            for slot in 0..10_000 {
                assert!(black_box(log.commit(slot, slot as u64 + 1)).is_new());
            }
            black_box(log.committed_prefix());
        }),
    ));

    std::fs::create_dir_all(&run.out_dir).map_err(|e| format!("{}: {e}", run.out_dir.display()))?;
    let path = run
        .out_dir
        .join(format!("probe-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut wal = FileWal::<u64>::open(&path).map_err(|e| format!("probe wal: {e}"))?;
    let mut slot = 0;
    let sync_ns = ns_per(40, 1, || {
        slot += 1;
        wal.append(WalRecord::Commit { slot, value: slot });
        wal.sync();
    });
    out.push(("replication.wal_append_sync_us", sync_ns / 1e3));
    let _ = std::fs::remove_file(&path);

    // The single-node floor: n = 1, t = 0 on an endpoint with a FileWal, so
    // a slot is self-delivery + handler + one synced append, no peers.
    const SOLO_SLOTS: u64 = 200;
    let stream: Vec<u64> = (1..=SOLO_SLOTS).collect();
    let mut per_slot_us = Vec::new();
    for _ in 0..3 {
        let _ = std::fs::remove_file(&path);
        let solo = netlog::replica(cfg(1, 0), 0, &stream, 1, Some(&path), false)?;
        let addrs = netlog::reserve_ports(1)?;
        let mut ep = Endpoint::with_net(solo, pid(0), addrs, run.seed, None)
            .map_err(|e| format!("solo bind: {e}"))?;
        let started = Instant::now();
        ep.boot();
        while (ep.actor().log().committed_prefix() as u64) < SOLO_SLOTS {
            if !ep.pump(Duration::from_millis(1)) && started.elapsed() > Duration::from_secs(20) {
                return Err("the single-node replica stalled".into());
            }
        }
        per_slot_us.push(started.elapsed().as_secs_f64() * 1e6 / SOLO_SLOTS as f64);
    }
    let _ = std::fs::remove_file(&path);
    out.push(("replication.solo_slot_us", median(&per_slot_us)));
    Ok(())
}

fn netd(out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let echo: ReplicaMsg<u64> = ReplicaMsg::Slot {
        slot: 1234,
        inner: DexMsg::Idb(IdbMessage::Echo {
            key: pid(5),
            value: 0x1234_5678_9ABC_DEF0,
        }),
    };
    let batch: ReplicaMsg<u64> = ReplicaMsg::EchoBatch {
        entries: (0..N)
            .map(|i| (1234, pid(i), 0x1234_5678_9ABC_DEF0))
            .collect(),
    };
    for (msg, encode, decode) in [
        (
            &echo,
            "netd.codec_encode_ns_echo",
            "netd.codec_decode_ns_echo",
        ),
        (
            &batch,
            "netd.codec_encode_ns_batch",
            "netd.codec_decode_ns_batch",
        ),
    ] {
        out.push((
            encode,
            ns_per(100_000, 1, || drop(black_box(black_box(msg).to_bytes()))),
        ));
        let bytes = msg.to_bytes();
        out.push((
            decode,
            ns_per(100_000, 1, || {
                let decoded = ReplicaMsg::<u64>::from_bytes(black_box(&bytes));
                assert!(decoded.is_some());
                black_box(decoded);
            }),
        ));
    }
    let payload = echo.to_bytes();
    out.push((
        "netd.frame_encode_ns",
        ns_per(100_000, 1, || {
            drop(black_box(encode_frame(1, 2, black_box(&payload))))
        }),
    ));
    let wire = encode_frame(1, 2, &payload);
    let mut buf = FrameBuf::new();
    out.push((
        "netd.frame_parse_ns",
        ns_per(100_000, 1, || {
            buf.extend(black_box(&wire));
            let frame = buf.next_frame();
            assert!(matches!(frame, Ok(Some(_))));
            black_box(frame).ok();
        }),
    ));

    // Two meshes on loopback: one frame at a time for the one-way latency,
    // then a burst for the sustained frame rate of one writer/reader pair.
    let addrs = netlog::reserve_ports(2)?;
    let bind = |e: std::io::Error| format!("mesh probe bind: {e}");
    let a = Mesh::with_net(pid(0), addrs.clone(), None).map_err(bind)?;
    let b = Mesh::with_net(pid(1), addrs, None).map_err(bind)?;
    let connect_by = Instant::now() + Duration::from_secs(10);
    while a.connected() + b.connected() < 2 {
        if Instant::now() > connect_by {
            return Err("the mesh probe never connected".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let frame: Arc<[u8]> = wire.into();
    let lost = || "the mesh probe lost a frame".to_string();
    let mut oneway_us = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let sent = Instant::now();
        a.send(pid(1), Arc::clone(&frame));
        b.recv_timeout(Duration::from_secs(5)).ok_or_else(lost)?;
        oneway_us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    sort(&mut oneway_us);
    out.push(("netd.mesh_oneway_us_p50", quantile(&oneway_us, 0.5)));
    // `Mesh` is `Send` but not `Sync`: the sender moves to its own thread
    // and this one receives, timing the burst in three segments.
    const SEGMENT: usize = 20_000;
    let mut rates = Vec::new();
    let received_all = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut mark = Instant::now();
        scope.spawn(|| {
            let a = a;
            for _ in 0..3 * SEGMENT {
                a.send(pid(1), Arc::clone(&frame));
            }
            // Dropping the mesh closes its sockets: hold it until the
            // receiver has everything (or has given up).
            while !received_all.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let mut receive = || {
            for _ in 0..3 {
                for _ in 0..SEGMENT {
                    b.recv_timeout(Duration::from_secs(5)).ok_or_else(lost)?;
                }
                rates.push(SEGMENT as f64 / mark.elapsed().as_secs_f64());
                mark = Instant::now();
            }
            Ok::<(), String>(())
        };
        let received = receive();
        received_all.store(true, Ordering::SeqCst);
        received
    })?;
    out.push(("netd.mesh_frames_per_s", median(&rates)));
    Ok(())
}

fn harness(run: &Run, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let config = cfg(13, 2);
    let mut seed = run.seed;
    let instance_ns = ns_per(40, 1, || {
        seed += 1;
        let result = run_instance(&RunInstance {
            config,
            algo: Algo::DexFreq,
            underlying: UnderlyingKind::Oracle,
            strategy: ByzantineStrategy::Silent,
            fault_plan: FaultPlan::none(),
            input: InputVector::unanimous(config.n(), 7),
            delay: DelayModel::Uniform { min: 1, max: 10 },
            faults: FaultSchedule::none(),
            seed,
            max_events: 1_000_000,
            aggregate: false,
        });
        assert!(result.all_decided() && result.agreement_ok());
        black_box(result);
    });
    out.push(("harness.run_instance_us", instance_ns / 1e3));
    let spec = CampaignSpec::standard(6, run.seed);
    let digests = run_digests(&spec, crate::campaign::jobs())?;
    let aggregate_ns = ns_per(4, 1, || {
        black_box(aggregate(&spec, black_box(digests.clone())));
    });
    out.push(("harness.aggregate_ms", aggregate_ns / 1e6));
    Ok(())
}

fn workloads(out: &mut Vec<(&'static str, f64)>) {
    let population = PopulationModel::CALM.compile();
    let mut rng = StdRng::seed_from_u64(1);
    let mut i = 0;
    out.push((
        "workloads.propose_ns",
        ns_per(100_000, 1, || {
            i += 1;
            black_box(population.propose(i % 13, &mut rng));
        }),
    ));
}

/// Runs every probe. A probe that cannot run (no port, no disk) is a
/// failure of the benchmark, not a zero.
pub fn all(run: &Run) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    types(&mut out);
    conditions(&mut out);
    broadcast(&mut out);
    underlying(&mut out);
    core(&mut out);
    replication(run, &mut out)?;
    netd(&mut out)?;
    harness(run, &mut out)?;
    workloads(&mut out);
    Ok(out)
}
