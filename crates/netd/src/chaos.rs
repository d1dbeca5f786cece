//! Deterministic fault injection between the [`Mesh`](crate::conn::Mesh)
//! and its real sockets.
//!
//! A run's compiled chaos schedule — the very
//! [`RunInstance::faults`](dex_harness::runner::RunInstance) the simulator
//! runs (drop, dup, healing partitions, crash silence windows) — becomes
//! **per-connection behavior on real TCP links** here, so every
//! robustness claim the simulated runtimes make is falsifiable against
//! actual network pathology. The
//! injection point is the writer/reader boundary inside the mesh: a
//! [`ChaosRuntime`] is consulted once per logical send (the drop / dup /
//! hold verdict of [`FaultSchedule::verdict`], the very function the
//! simulator calls) and once per frame the writer offers to a socket
//! (mid-frame connection tears, for the reconnect suite).
//!
//! # Determinism story
//!
//! The simulator owns a single chaos RNG stream (seeded `seed ^`
//! [`CHAOS_SALT`]) and draws from it in delivery order — bit-exact
//! because the event queue is. Real sockets have no global order, so
//! netd splits the stream **per directed link**: link `me → to` draws
//! from `StdRng::seed_from_u64((seed ^ CHAOS_SALT) ^ splitmix64(me ≪ 32
//! | to))`. Each link's decision sequence is then a pure function of
//! `(seed, me, to)` — independent of scheduling, connection churn, or
//! how many frames the OS happens to coalesce. [`ChaosRuntime::sched_digest`]
//! fingerprints that sequence (an FNV-1a fold over the stream's first 64
//! draws plus the compiled schedule), and the cluster harness asserts the
//! digests are identical across repeated runs of the same seed: *the same
//! seed reproduces the same per-link fault trace.* Realized counters
//! (frames actually dropped/duplicated/held) are reported too, but only
//! the digests are compared — wall-clock runs legitimately differ in how
//! many frames each connection incarnation carries.
//!
//! One virtual schedule unit spans [`SCALE_US`] wall microseconds, so
//! e.g. the MATRIX partition `[5, 120)` spans `5 ms → 120 ms` of real
//! time.

use dex_simnet::{FaultSchedule, Verdict, CHAOS_SALT};
use dex_types::ProcessId;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Wall-clock microseconds per virtual schedule unit.
pub const SCALE_US: u64 = 1000;

/// SplitMix64 — the standard 64-bit seed scrambler, used to derive
/// per-link RNG seeds that differ in every bit even for adjacent ids.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deliberate mid-frame connection tear: the writer sends the whole
/// frames batched ahead of this one and exactly `offset` bytes of it,
/// then kills the socket. Built only by
/// tests ([`ChaosRuntime::with_tears`]) — compiled schedules never
/// tear, they drop whole frames like the simulator does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TearPoint {
    /// Destination process of the torn link.
    pub to: usize,
    /// Which frame to tear: the zero-based count of frames the writer has
    /// offered to this link's socket, in queue order. The writer coalesces
    /// many frames into one `write`, so this counts frames, not syscalls;
    /// a frame requeued after a tear or a dead connection is offered — and
    /// counted — again.
    pub attempt: u64,
    /// Byte offset to cut at (clamped to `1..frame_len` at tear time, so
    /// the peer always observes a genuinely torn frame, never a clean
    /// boundary).
    pub offset: usize,
}

/// One outbound link's fault trace: the seed-deterministic schedule
/// digest plus realized counters. Only the digest is compared across runs
/// — counters are informational (wall-clock runs legitimately differ in
/// how many frames each connection carries).
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

/// Per-destination-link mutable state: the dedicated RNG stream plus the
/// link's report (digest fixed at construction, counters realized).
struct LinkChaos {
    rng: StdRng,
    report: ChaosReport,
    /// Frames offered to the socket so far (tear schedule index).
    write_attempts: u64,
}

/// The per-process fault injector: one compiled [`FaultSchedule`] (shared
/// with what the simulator would run) plus one RNG stream per outbound
/// link. Thread-safe — the mesh consults it from the caller thread
/// (`send`) and from per-peer writer threads (`tear_len`).
pub struct ChaosRuntime {
    schedule: FaultSchedule,
    me: ProcessId,
    /// The construction instant; unit 0 is `start_us` past it.
    epoch: Instant,
    /// Moved by [`Self::start_clock`].
    start_us: AtomicU64,
    links: Vec<Option<Mutex<LinkChaos>>>,
    tears: Vec<TearPoint>,
}

/// FNV-1a 64-bit fold.
fn fnv1a(acc: u64, word: u64) -> u64 {
    let mut h = acc;
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl ChaosRuntime {
    /// Runs `schedule` — a run's compiled `RunInstance::faults` — as
    /// process `me` of an `n`-process system, with the chaos RNG seeded
    /// from the run seed exactly like the simulator's stream.
    pub fn new(schedule: FaultSchedule, n: usize, me: ProcessId, seed: u64) -> Self {
        schedule.validate(n);
        let base = seed ^ CHAOS_SALT;
        let links = (0..n)
            .map(|to| {
                if to == me.index() {
                    return None;
                }
                let link_seed = base ^ splitmix64(((me.index() as u64) << 32) | to as u64);
                let rng = StdRng::seed_from_u64(link_seed);
                // Fingerprint the stream: the first 64 draws pin the
                // entire decision sequence (StdRng is a PRF of its seed),
                // and folding the schedule's own shape in catches a spec
                // or compilation drift even when seeds collide.
                let mut probe = rng.clone();
                let mut digest = 0xCBF2_9CE4_8422_2325u64; // FNV offset basis
                for _ in 0..64 {
                    digest = fnv1a(digest, probe.random::<u64>());
                }
                digest = fnv1a(digest, schedule.links().len() as u64);
                digest = fnv1a(digest, schedule.partitions().len() as u64);
                digest = fnv1a(digest, schedule.crash_windows().len() as u64);
                Some(Mutex::new(LinkChaos {
                    rng,
                    report: ChaosReport {
                        to,
                        sched: digest,
                        frames: 0,
                        drops: 0,
                        dups: 0,
                        held: 0,
                        torn: 0,
                    },
                    write_attempts: 0,
                }))
            })
            .collect();
        ChaosRuntime {
            schedule,
            me,
            epoch: Instant::now(),
            start_us: AtomicU64::new(0),
            links,
            tears: Vec::new(),
        }
    }

    /// A schedule-free injector that only tears connections at the given
    /// points — the reconnect-robustness suite's configuration.
    pub fn with_tears(n: usize, me: ProcessId, tears: Vec<TearPoint>) -> Self {
        let mut rt = ChaosRuntime::new(FaultSchedule::none(), n, me, 0);
        rt.tears = tears;
        rt
    }

    /// Restarts the schedule's clock: unit 0 is now. The clock first
    /// starts at construction; a process that waits for its peers before
    /// it boots restarts it at boot, so its windows open as the
    /// simulator's do, counted from the protocol's start.
    pub fn start_clock(&self) {
        let now = self.epoch.elapsed().as_micros() as u64;
        self.start_us.store(now, Ordering::Relaxed);
    }

    /// Current virtual time in schedule units.
    fn now_units(&self) -> u64 {
        let since_epoch = self.epoch.elapsed().as_micros() as u64;
        since_epoch.saturating_sub(self.start_us.load(Ordering::Relaxed)) / SCALE_US
    }

    /// The wall instant at which virtual unit `u` is reached.
    pub fn instant_of(&self, u: u64) -> Instant {
        let start_us = self.start_us.load(Ordering::Relaxed);
        self.epoch + Duration::from_micros(start_us.saturating_add(u.saturating_mul(SCALE_US)))
    }

    /// Decides the fate of one logical outbound frame to `to`: the
    /// schedule's [`Verdict`] at the current virtual instant (wall clock
    /// in schedule units, zero link delay — the real link supplies its
    /// own), drawn from this link's stream. Map its instants to the wall
    /// clock with [`instant_of`](Self::instant_of).
    pub fn outbound(&self, to: ProcessId) -> Verdict {
        let at = self.now_units();
        let Some(link) = &self.links[to.index()] else {
            return Verdict::Deliver {
                at,
                held_partition: false,
                held_crash: false,
                dup_at: None,
            };
        };
        let mut link = link.lock().expect("chaos link lock");
        link.report.frames += 1;
        let verdict = self.schedule.verdict(&mut link.rng, self.me, to, at, 0);
        match verdict {
            Verdict::Drop { held_partition } => {
                link.report.held += u64::from(held_partition);
                link.report.drops += 1;
            }
            Verdict::Deliver {
                held_partition,
                held_crash,
                dup_at,
                ..
            } => {
                link.report.held += u64::from(held_partition) + u64::from(held_crash);
                link.report.dups += u64::from(dup_at.is_some());
            }
        }
        verdict
    }

    /// Consulted by the writer once for each frame it is about to offer
    /// to `to`'s socket, in queue order: `Some(offset)` tears the
    /// connection after `offset` bytes of this frame. Offsets are clamped
    /// to `1..frame_len` so a tear is never a clean frame boundary.
    pub fn tear_len(&self, to: ProcessId, frame_len: usize) -> Option<usize> {
        let link = self.links[to.index()].as_ref()?;
        let mut link = link.lock().expect("chaos link lock");
        let attempt = link.write_attempts;
        link.write_attempts += 1;
        let hit = self
            .tears
            .iter()
            .find(|t| t.to == to.index() && t.attempt == attempt)?;
        link.report.torn += 1;
        Some(hit.offset.clamp(1, frame_len.saturating_sub(1).max(1)))
    }

    /// When `me` itself is inside a crash-silence window, the instant it
    /// recovers: the endpoint stalls its event loop until then, emulating
    /// the simulator's unscheduled crashed process (deliveries queue in
    /// the mesh channel and flush on recovery, exactly like the
    /// simulator's deferred in-window deliveries).
    pub fn self_resume_at(&self) -> Option<Instant> {
        match self.schedule.crash_hold(self.me, self.now_units()) {
            Some(Some(recovery)) => Some(self.instant_of(recovery)),
            // A never-recovering window cannot stall a real process
            // forever — the kill9 phase owns genuine process death.
            Some(None) | None => None,
        }
    }

    /// The compiled schedule (diagnostic / assertions).
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// The deterministic per-link fault-trace digest for link `me → to`
    /// (`None` for self). Equal digests across runs ⇔ identical decision
    /// sequences.
    pub fn sched_digest(&self, to: ProcessId) -> Option<u64> {
        self.links[to.index()]
            .as_ref()
            .map(|l| l.lock().expect("chaos link lock").report.sched)
    }

    /// One report per outbound link, in destination order: the digest
    /// (compared across runs) plus realized counters (informational). The
    /// cluster harness owns their `CHAOS` line spelling.
    pub fn reports(&self) -> Vec<ChaosReport> {
        self.links
            .iter()
            .flatten()
            .map(|link| link.lock().expect("chaos link lock").report)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_harness::runner::Placement;
    use dex_harness::spec::{ChaosSpec, RunSpec};

    /// An untouched frame: delivered, not held, not duplicated.
    fn free(verdict: Verdict) -> bool {
        matches!(
            verdict,
            Verdict::Deliver {
                held_partition: false,
                held_crash: false,
                dup_at: None,
                ..
            }
        )
    }

    /// `chaos` compiled as a netd child compiles it: run 0 of a 7-process
    /// spec whose fault budget is the last `f` processes.
    fn schedule(chaos: &ChaosSpec, f: usize) -> FaultSchedule {
        RunSpec {
            f,
            chaos: chaos.clone(),
            placement: Placement::LastK,
            ..RunSpec::default()
        }
        .instance(0)
        .expect("7-process spec")
        .faults
    }

    fn runtime(chaos: &ChaosSpec, f: usize, me: usize, seed: u64) -> ChaosRuntime {
        ChaosRuntime::new(schedule(chaos, f), 7, ProcessId::new(me), seed)
    }

    #[test]
    fn same_seed_reproduces_the_per_link_fault_trace() {
        let spec = ChaosSpec::DropHeavy { p: 0.4 };
        let a = runtime(&spec, 1, 2, 42);
        let b = runtime(&spec, 1, 2, 42);
        for to in 0..7 {
            assert_eq!(
                a.sched_digest(ProcessId::new(to)),
                b.sched_digest(ProcessId::new(to)),
                "link 2→{to} digest must be seed-deterministic"
            );
        }
        // Different seeds and different sources give different streams.
        let c = runtime(&spec, 1, 2, 43);
        let d = runtime(&spec, 1, 3, 42);
        assert_ne!(
            a.sched_digest(ProcessId::new(0)),
            c.sched_digest(ProcessId::new(0))
        );
        assert_ne!(
            a.sched_digest(ProcessId::new(0)),
            d.sched_digest(ProcessId::new(0))
        );
        // And the verdict *sequence* on a link replays draw for draw.
        let to = ProcessId::new(6); // last-1 placement: p6 is the faulty one
        let seq_a: Vec<Verdict> = (0..200).map(|_| a.outbound(to)).collect();
        let seq_b: Vec<Verdict> = (0..200).map(|_| b.outbound(to)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn drop_heavy_confines_losses_to_budget_links() {
        let spec = ChaosSpec::DropHeavy { p: 1.0 };
        // p6 is the budget process under last-1 placement: the 2→6 link
        // drops everything, correct↔correct links drop nothing.
        let rt = runtime(&spec, 1, 2, 7);
        assert!(matches!(
            rt.outbound(ProcessId::new(6)),
            Verdict::Drop { .. }
        ));
        assert!(free(rt.outbound(ProcessId::new(3))));
        // With f = 0 the budget is empty and the schedule compiles empty:
        // nothing drops anywhere (exactly the simulator's behavior).
        let clean = runtime(&spec, 0, 2, 7);
        assert!(clean.schedule().is_empty());
        assert!(free(clean.outbound(ProcessId::new(6))));
    }

    #[test]
    fn partition_holds_cross_cut_frames_until_heal() {
        // First ⌈7/2⌉ = 4 processes are cut from the rest over [5, 120).
        let spec = ChaosSpec::PartitionHeal { open: 5, heal: 120 };
        // A window open from unit 0 is live from construction on, however
        // long the test takes to reach its first send.
        let spec_now = ChaosSpec::PartitionHeal {
            open: 0,
            heal: 1_000_000,
        };
        let rt = runtime(&spec_now, 0, 0, 7);
        match rt.outbound(ProcessId::new(5)) {
            Verdict::Deliver {
                at: 1_000_000,
                held_partition: true,
                ..
            } => {}
            other => panic!("cross-cut frame must be held to the heal, got {other:?}"),
        }
        // Same-side traffic flows freely.
        assert!(free(rt.outbound(ProcessId::new(1))));
        // After the heal instant the cut is gone (probe the schedule
        // directly — wall clock cannot be fast-forwarded in a test).
        let sched = schedule(&spec, 0);
        assert_eq!(
            sched.partition_hold(ProcessId::new(0), ProcessId::new(5), 130),
            None
        );
    }

    #[test]
    fn crash_window_defers_inbound_and_stalls_the_victim() {
        let spec = ChaosSpec::CrashRecover {
            down: 1,
            up: 1_000_000,
        };
        // Victim choice mirrors the simulator: last correct
        // non-coordinator, here p6 (f = 0 ⇒ nobody is budget-faulty).
        let sched = schedule(&spec, 0);
        let victims: Vec<_> = sched.crash_windows().iter().map(|w| w.process).collect();
        assert_eq!(victims, vec![ProcessId::new(6)]);
        let rt = runtime(&spec, 0, 0, 7);
        std::thread::sleep(Duration::from_micros(SCALE_US)); // enter the window at unit 1
        match rt.outbound(ProcessId::new(6)) {
            Verdict::Deliver {
                at: 1_000_000,
                held_crash: true,
                ..
            } => {}
            other => panic!("frames to a crashed peer must queue, got {other:?}"),
        }
        // The victim's own runtime stalls its event loop.
        let victim = runtime(&spec, 0, 6, 7);
        std::thread::sleep(Duration::from_micros(SCALE_US));
        assert!(victim.self_resume_at().is_some());
        // Everyone else keeps running.
        assert!(rt.self_resume_at().is_none());
    }

    #[test]
    fn dup_heavy_duplicates_with_forward_jitter() {
        let spec = ChaosSpec::DupHeavy { p: 1.0 };
        let rt = runtime(&spec, 0, 1, 9);
        match rt.outbound(ProcessId::new(2)) {
            Verdict::Deliver {
                at,
                held_partition: false,
                held_crash: false,
                dup_at: Some(dup),
            } => {
                assert!(dup > at, "the duplicate trails the original");
                assert!(
                    rt.instant_of(dup) > Instant::now(),
                    "duplicate lands in the future"
                );
            }
            other => panic!("p = 1 must duplicate, got {other:?}"),
        }
    }

    #[test]
    fn tear_points_fire_on_the_scheduled_attempt_with_clamped_offset() {
        let rt = ChaosRuntime::with_tears(
            3,
            ProcessId::new(0),
            vec![
                TearPoint {
                    to: 1,
                    attempt: 1,
                    offset: 5,
                },
                TearPoint {
                    to: 1,
                    attempt: 2,
                    offset: 10_000,
                },
            ],
        );
        let to = ProcessId::new(1);
        assert_eq!(rt.tear_len(to, 20), None, "attempt 0 untouched");
        assert_eq!(rt.tear_len(to, 20), Some(5), "attempt 1 tears at 5");
        assert_eq!(
            rt.tear_len(to, 20),
            Some(19),
            "oversized offsets clamp inside the frame"
        );
        assert_eq!(rt.tear_len(to, 20), None);
        // Other links are untouched, and the trace reports the tears.
        assert_eq!(rt.tear_len(ProcessId::new(2), 20), None);
        let reports = rt.reports();
        assert_eq!(reports.len(), 2);
        assert_eq!((reports[0].to, reports[0].torn), (1, 2), "{reports:?}");
    }

    #[test]
    fn reports_carry_digests_and_realized_counters() {
        let spec = ChaosSpec::DropHeavy { p: 1.0 };
        let rt = runtime(&spec, 1, 0, 11);
        let _ = rt.outbound(ProcessId::new(6)); // dropped (budget link)
        let _ = rt.outbound(ProcessId::new(1)); // delivered
        let reports = rt.reports();
        assert_eq!(reports.len(), 6, "one report per outbound link");
        let r6 = reports.iter().find(|r| r.to == 6).expect("p6 report");
        assert_eq!((r6.frames, r6.drops), (1, 1), "{r6:?}");
        assert_eq!(Some(r6.sched), rt.sched_digest(ProcessId::new(6)));
    }
}
