//! Chaos fault schedules: timed partitions, lossy links, crash windows.
//!
//! A [`FaultSchedule`] describes *network-level* faults, deterministically
//! per seed and orthogonally to Byzantine process behaviour (which is an
//! actor concern — see `dex-adversary`). Three fault families compose:
//!
//! * **Lossy links** ([`LinkFault`]) — per-link drop and duplication
//!   probabilities, optionally restricted to a time window. Drops are
//!   *genuine* message losses; a link that loses messages is not a reliable
//!   link, so liveness is only guaranteed when every lossy link touches a
//!   process already counted in the fault budget ("drops are modeled as
//!   faulty links" — see DESIGN.md §11). Duplications are harmless to the
//!   protocols under test (views and witness tables are first-write-wins).
//! * **Partitions** ([`Partition`]) — a timed cut between one side and the
//!   rest. Messages crossing an open cut are **held, not lost**: they are
//!   re-scheduled to arrive after the heal instant, which is exactly an
//!   asynchronous schedule with a long-but-finite delay. Safety must
//!   therefore hold *during* the partition and liveness *after* the last
//!   heal (GST-style).
//! * **Crash windows** ([`CrashWindow`]) — a process is silent in
//!   `[from, until)`: deliveries to it are deferred to its recovery instant
//!   (its inbox queues while it is down), so it handles nothing — and hence
//!   sends nothing — inside the window. A window with no recovery drops the
//!   process's inbound traffic forever.
//!
//! All chaos randomness is drawn from a **separate RNG stream** (seeded
//! from the simulation seed xor a fixed salt), so a run with an empty
//! schedule consumes exactly the delay-model stream of a chaos-free build —
//! fault-free artifacts stay byte-identical.

use dex_types::ProcessId;
use rand::rngs::StdRng;
use std::collections::BTreeSet;

/// Drop/duplication probabilities on a set of links.
///
/// `from`/`to` select links: `None` matches any process on that endpoint.
/// Several entries may match the same link; their drop (and dup)
/// probabilities combine independently (`1 − ∏(1 − pᵢ)`).
#[derive(Clone, PartialEq, Debug)]
pub struct LinkFault {
    /// Sender selector (`None` = any).
    pub from: Option<ProcessId>,
    /// Recipient selector (`None` = any).
    pub to: Option<ProcessId>,
    /// Probability that a matching message is dropped, in `[0, 1]`.
    pub drop: f64,
    /// Probability that a matching (non-dropped) message is delivered
    /// twice, in `[0, 1]`.
    pub dup: f64,
    /// Active send-time window `[start, end)`; `None` = the whole run.
    pub window: Option<(u64, u64)>,
}

impl LinkFault {
    fn matches(&self, from: ProcessId, to: ProcessId, at: u64) -> bool {
        self.from.is_none_or(|f| f == from)
            && self.to.is_none_or(|t| t == to)
            && self.window.is_none_or(|(s, e)| (s..e).contains(&at))
    }
}

/// A timed network cut: `side` vs everyone else, open over `[from, until)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Partition {
    /// One side of the cut (the complement is the other side).
    pub side: BTreeSet<ProcessId>,
    /// Instant the cut opens.
    pub from: u64,
    /// Instant the cut heals (exclusive end of the window).
    pub until: u64,
}

impl Partition {
    /// Whether a message sent at `at` from `a` to `b` crosses the open cut.
    fn cuts(&self, a: ProcessId, b: ProcessId, at: u64) -> bool {
        (self.from..self.until).contains(&at) && self.side.contains(&a) != self.side.contains(&b)
    }
}

/// What happens to a crashed process's volatile state when it comes back.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CrashMode {
    /// The process is merely silent: deliveries queue while it is down and
    /// resume at the recovery instant, and its in-memory state survives
    /// intact. This models a long GC pause or scheduling stall, not a real
    /// crash.
    #[default]
    Silence,
    /// The process actually crashes and restarts with **amnesia**: every
    /// delivery that lands inside the window is lost (a dead process has no
    /// inbox), and at the recovery instant the runtime invokes the actor's
    /// [`Recoverable::restart`](crate::Recoverable::restart) hook so it can
    /// rebuild from whatever it persisted. Because in-window traffic is
    /// genuinely lost, a `Restart` window endangers liveness unless the
    /// application layer recovers it (WAL replay + catch-up).
    Restart,
}

/// A crash window for one process.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CrashWindow {
    /// The crashed process.
    pub process: ProcessId,
    /// Instant the process goes down.
    pub from: u64,
    /// Recovery instant (deliveries resume at exactly this time), or
    /// `None` for a permanent crash.
    pub until: Option<u64>,
    /// Whether the process keeps ([`CrashMode::Silence`]) or loses
    /// ([`CrashMode::Restart`]) its volatile state and in-window inbox.
    pub mode: CrashMode,
}

/// What [`FaultSchedule::verdict`] decides for one message, in virtual
/// time units. The `held_*` flags feed the caller's counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Lost: a drop draw, or a recipient that never recovers (or recovers
    /// with amnesia).
    Drop {
        /// It had first been held by an open partition.
        held_partition: bool,
    },
    /// Arrives at `at`: send instant plus link delay, re-based on a
    /// partition's heal, deferred to a crashed recipient's recovery.
    Deliver {
        /// Arrival instant.
        at: u64,
        /// It waited for a partition to heal.
        held_partition: bool,
        /// It waited for the recipient to recover.
        held_crash: bool,
        /// A duplicate is due then. The crash hold is not applied to it;
        /// a caller that models the recipient's inbox re-checks with
        /// [`FaultSchedule::crash_hold`].
        dup_at: Option<u64>,
    },
}

/// A deterministic chaos schedule for one simulation run.
///
/// Build one fluently and hand it to
/// [`SimulationBuilder::faults`](crate::SimulationBuilder::faults):
///
/// ```
/// use dex_simnet::FaultSchedule;
/// use dex_types::ProcessId;
///
/// let chaos = FaultSchedule::new()
///     .partition([ProcessId::new(0), ProcessId::new(1)], 10, 80)
///     .crash(ProcessId::new(2), 5, 60)
///     .lossy_link(Some(ProcessId::new(3)), None, 0.25, 0.0)
///     .dup_all(0.1);
/// assert!(!chaos.is_empty());
/// assert_eq!(chaos.last_heal(), Some(80));
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FaultSchedule {
    links: Vec<LinkFault>,
    partitions: Vec<Partition>,
    crashes: Vec<CrashWindow>,
}

impl FaultSchedule {
    /// An empty schedule (no chaos at all).
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Alias of [`none`](Self::none), reading better as a builder seed.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Whether the schedule injects nothing. An empty schedule leaves the
    /// simulation bit-for-bit identical to one built without chaos.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.partitions.is_empty() && self.crashes.is_empty()
    }

    /// Adds a lossy-link entry. `None` selectors match any process.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`.
    pub fn lossy_link(
        mut self,
        from: Option<ProcessId>,
        to: Option<ProcessId>,
        drop: f64,
        dup: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&drop), "drop probability {drop}");
        assert!((0.0..=1.0).contains(&dup), "dup probability {dup}");
        self.links.push(LinkFault {
            from,
            to,
            drop,
            dup,
            window: None,
        });
        self
    }

    /// Like [`lossy_link`](Self::lossy_link), restricted to messages *sent*
    /// during `[start, end)`.
    pub fn lossy_link_during(
        mut self,
        from: Option<ProcessId>,
        to: Option<ProcessId>,
        drop: f64,
        dup: f64,
        start: u64,
        end: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&drop), "drop probability {drop}");
        assert!((0.0..=1.0).contains(&dup), "dup probability {dup}");
        assert!(start <= end, "window [{start}, {end}) is inverted");
        self.links.push(LinkFault {
            from,
            to,
            drop,
            dup,
            window: Some((start, end)),
        });
        self
    }

    /// Marks every link incident to each of `processes` as lossy — the
    /// fault-budget-respecting way to use drops: when every such process is
    /// already Byzantine under the run's `FaultPlan`, correct↔correct links
    /// stay reliable and liveness is preserved.
    pub fn lossy_processes<I: IntoIterator<Item = ProcessId>>(
        mut self,
        processes: I,
        drop: f64,
        dup: f64,
    ) -> Self {
        for p in processes {
            self = self
                .lossy_link(Some(p), None, drop, dup)
                .lossy_link(None, Some(p), drop, dup);
        }
        self
    }

    /// Duplicates any message with probability `dup` (duplication never
    /// endangers safety or liveness for idempotent protocols).
    pub fn dup_all(self, dup: f64) -> Self {
        self.lossy_link(None, None, 0.0, dup)
    }

    /// Opens a cut between `side` and the rest over `[from, until)`.
    /// Messages crossing the open cut are held and re-delivered after
    /// `until` (see the module docs for why this models healing partitions).
    ///
    /// # Panics
    ///
    /// Panics if the window is inverted.
    pub fn partition<I: IntoIterator<Item = ProcessId>>(
        mut self,
        side: I,
        from: u64,
        until: u64,
    ) -> Self {
        assert!(from <= until, "partition [{from}, {until}) is inverted");
        self.partitions.push(Partition {
            side: side.into_iter().collect(),
            from,
            until,
        });
        self
    }

    /// Silences `process` over `[from, until)`; its deliveries resume at
    /// `until`.
    ///
    /// # Panics
    ///
    /// Panics if the window is inverted.
    pub fn crash(mut self, process: ProcessId, from: u64, until: u64) -> Self {
        assert!(from <= until, "crash window [{from}, {until}) is inverted");
        self.crashes.push(CrashWindow {
            process,
            from,
            until: Some(until),
            mode: CrashMode::Silence,
        });
        self
    }

    /// Crashes `process` over `[from, until)` with **amnesia**: deliveries
    /// landing in the window are lost, and at `until` the runtime invokes
    /// the actor's restart hook (see
    /// [`Recoverable`](crate::Recoverable) and
    /// [`SimulationBuilder::recoverable`](crate::SimulationBuilder::recoverable))
    /// so it can rebuild from persisted state.
    ///
    /// # Panics
    ///
    /// Panics if the window is inverted.
    pub fn crash_restart(mut self, process: ProcessId, from: u64, until: u64) -> Self {
        assert!(from <= until, "crash window [{from}, {until}) is inverted");
        self.crashes.push(CrashWindow {
            process,
            from,
            until: Some(until),
            mode: CrashMode::Restart,
        });
        self
    }

    /// Silences `process` from `from` onwards, forever. Its pending and
    /// future deliveries are dropped.
    pub fn crash_forever(mut self, process: ProcessId, from: u64) -> Self {
        self.crashes.push(CrashWindow {
            process,
            from,
            until: None,
            mode: CrashMode::Silence,
        });
        self
    }

    /// The lossy-link entries.
    pub fn links(&self) -> &[LinkFault] {
        &self.links
    }

    /// The partition windows.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// The crash windows.
    pub fn crash_windows(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// The last instant at which a timed disturbance ends: the maximum over
    /// partition heals, bounded crash recoveries, and lossy-link window
    /// ends. `None` when the schedule has no timed windows at all.
    /// Unbounded lossy links and permanent crashes do not contribute (they
    /// never end).
    pub fn last_heal(&self) -> Option<u64> {
        self.partitions
            .iter()
            .map(|p| p.until)
            .chain(self.crashes.iter().filter_map(|c| c.until))
            .chain(self.links.iter().filter_map(|l| l.window.map(|(_, e)| e)))
            .max()
    }

    /// Whether every timed disturbance eventually ends *cleanly*: all crash
    /// windows recover in [`CrashMode::Silence`] (partitions always heal by
    /// construction). A [`CrashMode::Restart`] window does end, but it
    /// loses the victim's in-window inbox like a burst of drops — whether
    /// the run still terminates then depends on application-level recovery
    /// (catch-up / retransmission), which this schedule cannot see, so
    /// restart windows do not count as clean here. Lossy links are likewise
    /// not considered — whether drops endanger liveness depends on whether
    /// they are confined to the fault budget, which only the experiment
    /// layer knows (see `dex-harness`).
    pub fn all_recover(&self) -> bool {
        self.crashes
            .iter()
            .all(|c| c.until.is_some() && c.mode == CrashMode::Silence)
    }

    /// Panics if the schedule names a process outside `0..n` — a
    /// misconfigured experiment should fail loudly at build time.
    pub fn validate(&self, n: usize) {
        let check = |p: ProcessId| {
            assert!(
                p.index() < n,
                "fault schedule names out-of-range process {p:?} (n = {n})"
            );
        };
        for l in &self.links {
            l.from.map(check);
            l.to.map(check);
        }
        for part in &self.partitions {
            part.side.iter().copied().for_each(check);
        }
        for c in &self.crashes {
            check(c.process);
        }
    }

    /// If a message `from → to` sent at `at` crosses an open cut, the heal
    /// instant it must wait for; iterated to a fixpoint so back-to-back
    /// partitions chain.
    pub fn partition_hold(&self, from: ProcessId, to: ProcessId, at: u64) -> Option<u64> {
        let mut when = at;
        let mut held = false;
        loop {
            let next = self
                .partitions
                .iter()
                .filter(|p| p.cuts(from, to, when))
                .map(|p| p.until)
                .max();
            match next {
                Some(u) if u > when => {
                    when = u;
                    held = true;
                }
                _ => break,
            }
        }
        held.then_some(when)
    }

    /// How a delivery to `to` at `deliver_at` interacts with `to`'s crash
    /// windows: `None` = unaffected, `Some(Some(t))` = deferred to `t`,
    /// `Some(None)` = the message is lost — either the process never
    /// recovers, or the covering window is a [`CrashMode::Restart`] (a dead
    /// process has no inbox; restart amnesia loses in-window traffic).
    pub fn crash_hold(&self, to: ProcessId, deliver_at: u64) -> Option<Option<u64>> {
        let mut when = deliver_at;
        let mut held = false;
        loop {
            let covering = self
                .crashes
                .iter()
                .filter(|c| c.process == to && c.from <= when)
                .filter(|c| c.until.is_none_or(|u| when < u))
                .min_by_key(|c| c.until.unwrap_or(u64::MAX));
            match covering {
                Some(c) if c.until.is_none() || c.mode == CrashMode::Restart => {
                    return Some(None);
                }
                Some(c) => {
                    // Silence window with a recovery: the inbox queues.
                    // The filter guarantees `until > when`, so this makes
                    // progress and chained windows defer to the last one.
                    when = c.until.expect("covering silence window recovers");
                    held = true;
                }
                None => break,
            }
        }
        held.then_some(Some(when))
    }

    /// Decides the fate of one message `from → to` sent at `send_at` with
    /// link delay `delay` — the one owner of the decision order and its
    /// RNG draw sequence, for the simulator (one chaos stream) and
    /// `dex-netd` (one stream per directed link, `delay = 0`) alike:
    /// partition hold (no draw) → drop (one `f64` draw iff the drop
    /// probability is positive) → dup (likewise, plus a `1..=8` jitter
    /// draw on a hit) → crash hold at the arrival instant (no draw). A
    /// `(rng state, schedule)` pair therefore replays bit for bit.
    pub fn verdict(
        &self,
        rng: &mut StdRng,
        from: ProcessId,
        to: ProcessId,
        send_at: u64,
        delay: u64,
    ) -> Verdict {
        let heal = self.partition_hold(from, to, send_at);
        let held_partition = heal.is_some();
        let at = heal.unwrap_or(send_at) + delay;
        let (p_drop, p_dup) = self.link_probs(from, to, send_at);
        if p_drop > 0.0 && rng.random_range(0.0f64..1.0) < p_drop {
            return Verdict::Drop { held_partition };
        }
        let mut dup_at = None;
        if p_dup > 0.0 && rng.random_range(0.0f64..1.0) < p_dup {
            dup_at = Some(at + rng.random_range(1u64..=8));
        }
        match self.crash_hold(to, at) {
            Some(Some(recovery)) => Verdict::Deliver {
                at: recovery,
                held_partition,
                held_crash: true,
                dup_at,
            },
            Some(None) => Verdict::Drop { held_partition },
            None => Verdict::Deliver {
                at,
                held_partition,
                held_crash: false,
                dup_at,
            },
        }
    }

    /// Combined `(drop, dup)` probabilities for a message `from → to` sent
    /// at `at`; matching entries compose independently.
    pub fn link_probs(&self, from: ProcessId, to: ProcessId, at: u64) -> (f64, f64) {
        let (mut keep, mut single) = (1.0f64, 1.0f64);
        for l in self.links.iter().filter(|l| l.matches(from, to, at)) {
            keep *= 1.0 - l.drop;
            single *= 1.0 - l.dup;
        }
        (1.0 - keep, 1.0 - single)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn empty_schedule_is_empty() {
        let s = FaultSchedule::none();
        assert!(s.is_empty());
        assert_eq!(s.last_heal(), None);
        assert!(s.all_recover());
        assert_eq!(s.partition_hold(p(0), p(1), 5), None);
        assert_eq!(s.crash_hold(p(0), 5), None);
        assert_eq!(s.link_probs(p(0), p(1), 5), (0.0, 0.0));
    }

    #[test]
    fn partition_cuts_only_across_the_side_and_only_while_open() {
        let s = FaultSchedule::new().partition([p(0), p(1)], 10, 50);
        // Crossing the cut inside the window: held until the heal.
        assert_eq!(s.partition_hold(p(0), p(2), 10), Some(50));
        assert_eq!(s.partition_hold(p(2), p(1), 49), Some(50));
        // Same side, or outside the window: unaffected.
        assert_eq!(s.partition_hold(p(0), p(1), 20), None);
        assert_eq!(s.partition_hold(p(2), p(3), 20), None);
        assert_eq!(s.partition_hold(p(0), p(2), 9), None);
        assert_eq!(s.partition_hold(p(0), p(2), 50), None);
    }

    #[test]
    fn chained_partitions_hold_to_the_final_heal() {
        let s = FaultSchedule::new()
            .partition([p(0)], 10, 50)
            .partition([p(0)], 50, 90);
        assert_eq!(s.partition_hold(p(0), p(1), 12), Some(90));
    }

    #[test]
    fn crash_defers_or_drops() {
        let s = FaultSchedule::new()
            .crash(p(1), 10, 30)
            .crash_forever(p(2), 40);
        assert_eq!(s.crash_hold(p(1), 15), Some(Some(30)));
        assert_eq!(s.crash_hold(p(1), 9), None);
        assert_eq!(s.crash_hold(p(1), 30), None, "recovery instant is up");
        assert_eq!(s.crash_hold(p(2), 41), Some(None));
        assert_eq!(s.crash_hold(p(2), 39), None);
        assert!(!s.all_recover());
    }

    #[test]
    fn chained_crash_windows_defer_to_the_last_recovery() {
        let s = FaultSchedule::new().crash(p(0), 10, 30).crash(p(0), 30, 60);
        assert_eq!(s.crash_hold(p(0), 12), Some(Some(60)));
    }

    #[test]
    fn restart_windows_lose_in_window_deliveries() {
        let s = FaultSchedule::new().crash_restart(p(1), 10, 30);
        assert_eq!(s.crash_hold(p(1), 15), Some(None), "amnesia: lost");
        assert_eq!(s.crash_hold(p(1), 9), None);
        assert_eq!(s.crash_hold(p(1), 30), None, "recovered: delivered");
        assert_eq!(s.last_heal(), Some(30), "the window still ends");
        assert!(
            !s.all_recover(),
            "restart loses traffic, so it is not clean recovery"
        );
    }

    #[test]
    fn silence_deferral_into_a_restart_window_is_lost() {
        // A silence window defers the delivery to t=30 — which lands inside
        // a restart window, so the message dies with the second crash.
        let s = FaultSchedule::new()
            .crash(p(0), 10, 30)
            .crash_restart(p(0), 30, 60);
        assert_eq!(s.crash_hold(p(0), 12), Some(None));
    }

    #[test]
    fn link_probs_compose_independently() {
        let s = FaultSchedule::new()
            .lossy_link(Some(p(0)), None, 0.5, 0.0)
            .lossy_link(None, Some(p(1)), 0.5, 0.0)
            .dup_all(0.25);
        let (drop, dup) = s.link_probs(p(0), p(1), 0);
        assert!((drop - 0.75).abs() < 1e-12);
        assert!((dup - 0.25).abs() < 1e-12);
        let (drop2, _) = s.link_probs(p(2), p(3), 0);
        assert_eq!(drop2, 0.0);
    }

    #[test]
    fn verdict_applies_partition_drop_dup_crash_in_that_order() {
        let rng = || StdRng::seed_from_u64(3);
        let deliver = |at| Verdict::Deliver {
            at,
            held_partition: false,
            held_crash: false,
            dup_at: None,
        };
        // An empty schedule draws nothing and adds the delay.
        let mut r = rng();
        assert_eq!(
            FaultSchedule::none().verdict(&mut r, p(0), p(1), 10, 4),
            deliver(14)
        );
        assert_eq!(r, rng(), "no draw without a lossy link");
        // Partition hold re-bases on the heal; the crash hold is judged at
        // the re-based arrival and wins the final instant.
        let s = FaultSchedule::new()
            .partition([p(0)], 5, 50)
            .crash(p(1), 40, 90);
        assert_eq!(
            s.verdict(&mut r, p(0), p(1), 10, 4),
            Verdict::Deliver {
                at: 90,
                held_partition: true,
                held_crash: true,
                dup_at: None,
            }
        );
        assert_eq!(
            s.verdict(&mut r, p(0), p(1), 60, 4),
            Verdict::Deliver {
                at: 90,
                held_partition: false,
                held_crash: true,
                dup_at: None,
            }
        );
        assert_eq!(r, rng(), "holds draw nothing");
        // A certain drop costs exactly one draw, and still reports the cut.
        let s = FaultSchedule::new()
            .partition([p(0)], 5, 50)
            .lossy_link(None, None, 1.0, 1.0);
        assert_eq!(
            s.verdict(&mut r, p(0), p(1), 10, 4),
            Verdict::Drop {
                held_partition: true
            }
        );
        let mut one = rng();
        let _: f64 = one.random_range(0.0..1.0);
        assert_eq!(r, one, "the dup draw is never reached");
        // A certain dup: dup draw, then jitter in 1..=8 past the original.
        let s = FaultSchedule::new().dup_all(1.0).crash_forever(p(2), 100);
        let mut r = rng();
        let Verdict::Deliver {
            at: 14,
            dup_at: Some(dup),
            ..
        } = s.verdict(&mut r, p(0), p(1), 10, 4)
        else {
            panic!("p = 1 must duplicate");
        };
        assert!((15..=22).contains(&dup));
        // …and a permanently crashed recipient loses even a duplicated one.
        assert_eq!(
            s.verdict(&mut r, p(0), p(2), 100, 4),
            Verdict::Drop {
                held_partition: false
            }
        );
    }

    #[test]
    fn windowed_links_only_match_inside_their_window() {
        let s = FaultSchedule::new().lossy_link_during(None, None, 1.0, 0.0, 10, 20);
        assert_eq!(s.link_probs(p(0), p(1), 9).0, 0.0);
        assert_eq!(s.link_probs(p(0), p(1), 10).0, 1.0);
        assert_eq!(s.link_probs(p(0), p(1), 20).0, 0.0);
        assert_eq!(s.last_heal(), Some(20));
    }

    #[test]
    fn last_heal_is_the_max_window_end() {
        let s = FaultSchedule::new()
            .partition([p(0)], 5, 70)
            .crash(p(1), 2, 90)
            .crash_forever(p(2), 100);
        assert_eq!(s.last_heal(), Some(90));
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn validate_rejects_out_of_range_processes() {
        FaultSchedule::new().crash(p(9), 0, 10).validate(4);
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn bad_probability_panics() {
        let _ = FaultSchedule::new().lossy_link(None, None, 1.5, 0.0);
    }
}
