//! The unified, serializable experiment specification.
//!
//! A [`RunSpec`] is the *single* description of an experiment: system size,
//! algorithm, workload, adversary, underlying consensus, delay model, chaos
//! schedule, pipeline window/batch, batch size and seed. It maps **1:1 onto the `dex-sim` CLI
//! flags** — [`RunSpec::from_args`] parses exactly what the binary accepts,
//! and [`RunSpec::to_args`] renders a spec back into that flag vector —
//! the one serialisation, which artifacts and logs carry so that each
//! names a replayable run. Experiment modules and tests construct a `RunSpec`
//! and call [`run`](RunSpec::run) / [`traced`](RunSpec::traced); the
//! lower-level [`RunInstance`] / [`BatchSpec`] remain available for
//! programmatic setups (custom generators, `Skewed`/`Targeted` delays,
//! hand-built fault schedules) that have no CLI spelling.
//!
//! Chaos schedules are specified *symbolically* ([`ChaosSpec`]) and
//! compiled per run against that run's Byzantine [`FaultPlan`] — so e.g.
//! `drop:0.3` always attaches its lossy links to the processes that are
//! *actually* faulty in run `i`, keeping correct↔correct links reliable and
//! liveness assertable.

use crate::runner::{
    batch_on, run_batch, traced_batch_run, Algo, BatchSpec, BatchStats, Placement, RunInstance,
    Runtime, TracedRun, UnderlyingKind,
};
use dex_adversary::{ByzantineStrategy, FaultPlan};
use dex_simnet::{DelayModel, FaultSchedule};
use dex_types::{ProcessId, SystemConfig};
use dex_workloads::{
    BernoulliMix, InputGenerator, PopulationModel, SplitCount, Unanimous, UniformRandom,
    ZipfRequests,
};

/// Input-vector generator selection, mirroring `--workload`.
#[derive(Clone, PartialEq, Debug)]
pub enum WorkloadSpec {
    /// Every process proposes `value` (`unanimous:<v>`).
    Unanimous {
        /// The common proposal.
        value: u64,
    },
    /// Each process proposes `1` with probability `p`, else `0`
    /// (`bernoulli:<p>`).
    Bernoulli {
        /// Probability of proposing `1`.
        p: f64,
    },
    /// Uniform over `0..domain` (`uniform:<domain>`).
    Uniform {
        /// Domain size.
        domain: u64,
    },
    /// Zipf-distributed requests over `0..domain` (`zipf:<domain>:<s>`).
    Zipf {
        /// Domain size.
        domain: u64,
        /// Skew exponent.
        s: f64,
    },
    /// `minor_count` processes propose `0`, the rest `1`
    /// (`split:<minor_count>`).
    Split {
        /// Size of the minority.
        minor_count: usize,
    },
    /// Million-client hot-key population
    /// (`hotkey:<clients>:<s>:<hot>:<bias>`): Zipf popularity with skew
    /// `s` over `clients` request ids, extra mass `hot` on the hottest id,
    /// and per-process bias `bias` toward a deterministic home key — the
    /// campaign engine's population model
    /// ([`dex_workloads::PopulationModel`]) as a CLI workload, so every
    /// campaign cell compiles down to an ordinary per-seed `RunSpec`.
    HotKey {
        /// Number of distinct client request ids.
        clients: u64,
        /// Zipf popularity exponent.
        s: f64,
        /// Extra probability mass on the hottest id.
        hot: f64,
        /// Per-process home-key bias probability.
        bias: f64,
    },
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec::Unanimous { value: 1 }
    }
}

impl WorkloadSpec {
    /// Instantiates the generator this spec describes.
    pub fn generator(&self) -> Box<dyn InputGenerator + Sync> {
        match *self {
            WorkloadSpec::Unanimous { value } => Box::new(Unanimous { value }),
            WorkloadSpec::Bernoulli { p } => Box::new(BernoulliMix { p, a: 1, b: 0 }),
            WorkloadSpec::Uniform { domain } => Box::new(UniformRandom { domain }),
            WorkloadSpec::Zipf { domain, s } => Box::new(ZipfRequests { domain, s }),
            WorkloadSpec::Split { minor_count } => Box::new(SplitCount {
                major: 1,
                minor: 0,
                minor_count,
            }),
            WorkloadSpec::HotKey {
                clients,
                s,
                hot,
                bias,
            } => Box::new(
                PopulationModel {
                    clients,
                    skew: s,
                    hot,
                    bias,
                }
                .compile(),
            ),
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let parts: Vec<&str> = raw.split(':').collect();
        let num = |s: &str, what: &str| -> Result<u64, String> {
            s.parse()
                .map_err(|_| format!("bad {what} in workload {raw:?}"))
        };
        match parts.as_slice() {
            ["unanimous"] => Ok(WorkloadSpec::Unanimous { value: 1 }),
            ["unanimous", v] => Ok(WorkloadSpec::Unanimous {
                value: num(v, "value")?,
            }),
            ["bernoulli", p] => Ok(WorkloadSpec::Bernoulli {
                p: p.parse()
                    .map_err(|_| format!("bad probability in workload {raw:?}"))?,
            }),
            ["uniform", d] => Ok(WorkloadSpec::Uniform {
                domain: num(d, "domain")?,
            }),
            ["zipf", d, s] => Ok(WorkloadSpec::Zipf {
                domain: num(d, "domain")?,
                s: s.parse()
                    .map_err(|_| format!("bad skew in workload {raw:?}"))?,
            }),
            ["split", mc] => Ok(WorkloadSpec::Split {
                minor_count: num(mc, "minority count")? as usize,
            }),
            ["hotkey", clients, s, hot, bias] => {
                let prob = |s: &str, what: &str| -> Result<f64, String> {
                    let p: f64 = s
                        .parse()
                        .map_err(|_| format!("bad {what} in workload {raw:?}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("{what} {p} out of [0, 1] in workload {raw:?}"));
                    }
                    Ok(p)
                };
                let clients = num(clients, "client count")?;
                if clients == 0 {
                    return Err(format!("empty client population in workload {raw:?}"));
                }
                let s: f64 = s
                    .parse()
                    .map_err(|_| format!("bad skew in workload {raw:?}"))?;
                if !s.is_finite() {
                    return Err(format!("skew {s} is not finite in workload {raw:?}"));
                }
                Ok(WorkloadSpec::HotKey {
                    clients,
                    s,
                    hot: prob(hot, "hot probability")?,
                    bias: prob(bias, "bias probability")?,
                })
            }
            _ => Err(format!("unknown workload {raw:?}")),
        }
    }

    /// Renders the `--workload` value this spec parses from.
    pub fn flag(&self) -> String {
        match self {
            WorkloadSpec::Unanimous { value } => format!("unanimous:{value}"),
            WorkloadSpec::Bernoulli { p } => format!("bernoulli:{p}"),
            WorkloadSpec::Uniform { domain } => format!("uniform:{domain}"),
            WorkloadSpec::Zipf { domain, s } => format!("zipf:{domain}:{s}"),
            WorkloadSpec::Split { minor_count } => format!("split:{minor_count}"),
            WorkloadSpec::HotKey {
                clients,
                s,
                hot,
                bias,
            } => format!("hotkey:{clients}:{s}:{hot}:{bias}"),
        }
    }
}

/// Byzantine-strategy selection, mirroring `--adversary`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AdversarySpec {
    /// Crash-like silence (`silent`).
    #[default]
    Silent,
    /// Consistent lie with `value` (`lie:<v>`).
    Lie {
        /// The value it pushes.
        value: u64,
    },
    /// Equivocation between `0` and `1` (`equivocate`).
    Equivocate,
    /// Equivocation plus forged protocol reactions (`echo-poison`).
    EchoPoison,
    /// Honest proposal of `1` to the first `reach` recipients, then crash
    /// (`crash-mid:<reach>`).
    CrashMid {
        /// Recipients reached before crashing.
        reach: usize,
    },
}

impl AdversarySpec {
    /// Instantiates the strategy this spec describes.
    pub fn strategy(&self) -> ByzantineStrategy<u64> {
        match *self {
            AdversarySpec::Silent => ByzantineStrategy::Silent,
            AdversarySpec::Lie { value } => ByzantineStrategy::ConsistentLie { value },
            AdversarySpec::Equivocate => ByzantineStrategy::Equivocate { values: vec![0, 1] },
            AdversarySpec::EchoPoison => ByzantineStrategy::EchoPoison { values: vec![0, 1] },
            AdversarySpec::CrashMid { reach } => ByzantineStrategy::CrashMid { value: 1, reach },
        }
    }

    /// Parses an `--adversary` value.
    pub fn parse(raw: &str) -> Result<Self, String> {
        match raw.split(':').collect::<Vec<_>>().as_slice() {
            ["silent"] => Ok(AdversarySpec::Silent),
            ["lie"] => Ok(AdversarySpec::Lie { value: 0 }),
            ["lie", v] => Ok(AdversarySpec::Lie {
                value: v
                    .parse()
                    .map_err(|_| format!("bad value in adversary {raw:?}"))?,
            }),
            ["equivocate"] => Ok(AdversarySpec::Equivocate),
            ["echo-poison"] => Ok(AdversarySpec::EchoPoison),
            ["crash-mid", r] => Ok(AdversarySpec::CrashMid {
                reach: r
                    .parse()
                    .map_err(|_| format!("bad reach in adversary {raw:?}"))?,
            }),
            _ => Err(format!("unknown adversary {raw:?}")),
        }
    }

    /// Renders the `--adversary` value this spec parses from.
    pub fn flag(&self) -> String {
        match self {
            AdversarySpec::Silent => "silent".into(),
            AdversarySpec::Lie { value } => format!("lie:{value}"),
            AdversarySpec::Equivocate => "equivocate".into(),
            AdversarySpec::EchoPoison => "echo-poison".into(),
            AdversarySpec::CrashMid { reach } => format!("crash-mid:{reach}"),
        }
    }
}

/// Underlying-consensus selection, mirroring `--underlying`. The MVC
/// common-coin seed is the run spec's base seed, resolved at batch time.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum UnderlyingSpec {
    /// Idealized 2-step coordinator (`oracle`).
    #[default]
    Oracle,
    /// Real randomized stack (`mvc`).
    Mvc,
}

impl UnderlyingSpec {
    /// Parses an `--underlying` value.
    pub fn parse(raw: &str) -> Result<Self, String> {
        match raw {
            "oracle" => Ok(UnderlyingSpec::Oracle),
            "mvc" => Ok(UnderlyingSpec::Mvc),
            _ => Err(format!("unknown underlying {raw:?}")),
        }
    }

    /// Renders the `--underlying` value this spec parses from.
    pub fn flag(&self) -> &'static str {
        match self {
            UnderlyingSpec::Oracle => "oracle",
            UnderlyingSpec::Mvc => "mvc",
        }
    }
}

/// Symbolic chaos-schedule selection, mirroring `--chaos`.
///
/// A `ChaosSpec` is *compiled* into a concrete
/// [`FaultSchedule`] per run via [`build`](ChaosSpec::build), against that
/// run's Byzantine [`FaultPlan`] — drop-heavy schedules attach their lossy
/// links to the run's actually-faulty processes (so correct↔correct links
/// stay reliable), and crash/partition schedules avoid silencing the
/// processes the plan already controls.
#[derive(Clone, PartialEq, Debug, Default)]
pub enum ChaosSpec {
    /// No chaos (`none`): the compiled schedule is empty and the run is
    /// bit-identical to a chaos-free build.
    #[default]
    None,
    /// Every link incident to a *FaultPlan-faulty* process drops messages
    /// with probability `p` (`drop:<p>`). Confining genuine losses to
    /// already-faulty processes keeps the fault budget honest: liveness
    /// must still hold.
    DropHeavy {
        /// Per-message drop probability, in `[0, 1]`.
        p: f64,
    },
    /// Every message is duplicated with probability `p` (`dup:<p>`) —
    /// harmless to first-write-wins protocols, by design.
    DupHeavy {
        /// Per-message duplication probability, in `[0, 1]`.
        p: f64,
    },
    /// The first `⌈n/2⌉` processes are cut off from the rest over
    /// `[open, heal)` (`partition:<open>:<heal>`); cross-cut messages are
    /// held and re-delivered after the heal.
    PartitionHeal {
        /// Instant the cut opens.
        open: u64,
        /// Instant the cut heals.
        heal: u64,
    },
    /// `max(t, 1)` correct, non-coordinator processes are silenced over
    /// `[down, up)` and recover (`crash:<down>:<up>`); `down ≥ 1` so the
    /// victims' `on_start` sends at time 0 stay legal.
    CrashRecover {
        /// Instant the victims go down (≥ 1).
        down: u64,
        /// Recovery instant.
        up: u64,
    },
    /// Like [`CrashRecover`](ChaosSpec::CrashRecover), but the victims
    /// come back with **amnesia** (`crash-restart:<down>:<up>`): in-window
    /// deliveries are *lost*, and at `up` the process is torn down and
    /// rebuilt through its [`Recoverable`](dex_simnet::Recoverable) hook.
    /// Because state is genuinely destroyed, such a schedule is *not*
    /// eventually clean — termination-after-heal is not assertable and the
    /// variant deliberately stays out of [`ChaosSpec::MATRIX`]; it exists
    /// for the recovery suite, where the replication layer's WAL + catch-up
    /// protocol is what restores liveness.
    CrashRestart {
        /// Instant the victims go down (≥ 1).
        down: u64,
        /// Restart instant.
        up: u64,
    },
}

impl ChaosSpec {
    /// The four canonical non-trivial schedules of the CI chaos matrix.
    pub const MATRIX: [ChaosSpec; 4] = [
        ChaosSpec::DropHeavy { p: 0.4 },
        ChaosSpec::DupHeavy { p: 0.35 },
        ChaosSpec::PartitionHeal { open: 5, heal: 120 },
        ChaosSpec::CrashRecover { down: 3, up: 100 },
    ];

    /// `true` for [`ChaosSpec::None`].
    pub fn is_none(&self) -> bool {
        *self == ChaosSpec::None
    }

    /// Short label for artifact names and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosSpec::None => "none",
            ChaosSpec::DropHeavy { .. } => "drop",
            ChaosSpec::DupHeavy { .. } => "dup",
            ChaosSpec::PartitionHeal { .. } => "partition",
            ChaosSpec::CrashRecover { .. } => "crash",
            ChaosSpec::CrashRestart { .. } => "crash-restart",
        }
    }

    /// Parses a `--chaos` value.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let prob = |s: &str| -> Result<f64, String> {
            let p: f64 = s
                .parse()
                .map_err(|_| format!("bad probability in chaos {raw:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} out of [0, 1] in chaos {raw:?}"));
            }
            Ok(p)
        };
        let time = |s: &str| -> Result<u64, String> {
            s.parse().map_err(|_| format!("bad time in chaos {raw:?}"))
        };
        match raw.split(':').collect::<Vec<_>>().as_slice() {
            ["none"] => Ok(ChaosSpec::None),
            ["drop", p] => Ok(ChaosSpec::DropHeavy { p: prob(p)? }),
            ["dup", p] => Ok(ChaosSpec::DupHeavy { p: prob(p)? }),
            ["partition", open, heal] => {
                let (open, heal) = (time(open)?, time(heal)?);
                if open > heal {
                    return Err(format!("partition window [{open}, {heal}) is inverted"));
                }
                Ok(ChaosSpec::PartitionHeal { open, heal })
            }
            ["crash", down, up] => {
                let (down, up) = (time(down)?, time(up)?);
                if down == 0 {
                    return Err("crash windows must start at t ≥ 1 (on_start runs at 0)".into());
                }
                if down > up {
                    return Err(format!("crash window [{down}, {up}) is inverted"));
                }
                Ok(ChaosSpec::CrashRecover { down, up })
            }
            ["crash-restart", down, up] => {
                let (down, up) = (time(down)?, time(up)?);
                if down == 0 {
                    return Err("crash windows must start at t ≥ 1 (on_start runs at 0)".into());
                }
                if down > up {
                    return Err(format!("crash-restart window [{down}, {up}) is inverted"));
                }
                Ok(ChaosSpec::CrashRestart { down, up })
            }
            _ => Err(format!("unknown chaos {raw:?}")),
        }
    }

    /// Renders the `--chaos` value this spec parses from.
    pub fn flag(&self) -> String {
        match self {
            ChaosSpec::None => "none".into(),
            ChaosSpec::DropHeavy { p } => format!("drop:{p}"),
            ChaosSpec::DupHeavy { p } => format!("dup:{p}"),
            ChaosSpec::PartitionHeal { open, heal } => format!("partition:{open}:{heal}"),
            ChaosSpec::CrashRecover { down, up } => format!("crash:{down}:{up}"),
            ChaosSpec::CrashRestart { down, up } => format!("crash-restart:{down}:{up}"),
        }
    }

    /// Compiles the symbolic spec into a concrete [`FaultSchedule`] for a
    /// run whose Byzantine processes are given by `plan`.
    pub fn build(&self, config: SystemConfig, plan: &FaultPlan) -> FaultSchedule {
        match *self {
            ChaosSpec::None => FaultSchedule::none(),
            ChaosSpec::DropHeavy { p } => FaultSchedule::new().lossy_processes(
                config.processes().filter(|q| plan.is_faulty(*q)),
                p,
                0.0,
            ),
            ChaosSpec::DupHeavy { p } => FaultSchedule::new().dup_all(p),
            ChaosSpec::PartitionHeal { open, heal } => FaultSchedule::new().partition(
                config.processes().take(config.n().div_ceil(2)),
                open,
                heal,
            ),
            ChaosSpec::CrashRecover { down, up } => crash_victims(config, plan)
                .fold(FaultSchedule::new(), |sched, q| sched.crash(q, down, up)),
            // Same victims, but with amnesia: in-window deliveries are lost
            // and the process is rebuilt through its `Recoverable` hook at
            // `up`.
            ChaosSpec::CrashRestart { down, up } => crash_victims(config, plan)
                .fold(FaultSchedule::new(), |sched, q| {
                    sched.crash_restart(q, down, up)
                }),
        }
    }
}

/// The processes a crash schedule takes down, last first: `max(t, 1)`
/// correct, non-coordinator processes. The oracle coordinator (p0) stays
/// up so the fallback path works, and crashing a Byzantine process would
/// waste the window.
fn crash_victims(config: SystemConfig, plan: &FaultPlan) -> impl Iterator<Item = ProcessId> {
    let victims: Vec<ProcessId> = config
        .processes()
        .filter(|q| !plan.is_faulty(*q) && q.index() != 0)
        .collect();
    let k = config.t().max(1).min(victims.len());
    victims.into_iter().rev().take(k)
}

/// Pipelined-replication selection, mirroring `--pipeline`
/// (`<window>:<batch>`).
///
/// The default `1:1` keeps `dex-sim` on the single-shot consensus path —
/// anything else routes the invocation through the pipelined replication
/// engine (see [`crate::pipeline`]): a cluster of replicas keeping
/// `window` log slots in flight concurrently, each slot carrying a batch
/// of `batch` client values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PipelineSpec {
    /// Slots each replica may keep in flight past its committed prefix
    /// (`1` = the sequential engine, byte-for-byte).
    pub window: u64,
    /// Client values batched into each slot's proposed command.
    pub batch: u64,
}

impl Default for PipelineSpec {
    fn default() -> Self {
        PipelineSpec {
            window: 1,
            batch: 1,
        }
    }
}

impl PipelineSpec {
    /// `true` when the spec is the default `1:1` — the single-shot
    /// consensus path, not the replication engine.
    pub fn is_off(&self) -> bool {
        *self == PipelineSpec::default()
    }

    /// Parses a `--pipeline` value (`<window>` or `<window>:<batch>`).
    pub fn parse(raw: &str) -> Result<Self, String> {
        let num = |s: &str, what: &str| -> Result<u64, String> {
            match s.parse() {
                Ok(v) if v > 0 => Ok(v),
                _ => Err(format!("bad {what} in pipeline {raw:?} (need ≥ 1)")),
            }
        };
        match raw.split(':').collect::<Vec<_>>().as_slice() {
            [w] => Ok(PipelineSpec {
                window: num(w, "window")?,
                batch: 1,
            }),
            [w, b] => Ok(PipelineSpec {
                window: num(w, "window")?,
                batch: num(b, "batch")?,
            }),
            _ => Err(format!("unknown pipeline {raw:?}")),
        }
    }

    /// Renders the `--pipeline` value this spec parses from.
    pub fn flag(&self) -> String {
        format!("{}:{}", self.window, self.batch)
    }
}

/// A per-process address table for the netd mesh (`--peers`), mapping
/// process `i` to the `host:port` its TCP listener binds (and peers dial).
/// Without an explicit table the cluster harness reserves free loopback
/// ports itself; an explicit table lets a cluster span hosts without
/// touching the wire protocol.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AddressTable {
    entries: Vec<(String, u16)>,
}

impl AddressTable {
    /// Parses a `--peers` value: a comma-separated `host:port` list, one
    /// entry per process in id order (`"10.0.0.1:9000,10.0.0.2:9000"`).
    pub fn parse(raw: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for part in raw.split(',') {
            let (host, port) = part
                .rsplit_once(':')
                .ok_or_else(|| format!("peer entry {part:?} is not host:port"))?;
            if host.is_empty() {
                return Err(format!("peer entry {part:?} has an empty host"));
            }
            let port: u16 = port
                .parse()
                .map_err(|_| format!("bad port in peer entry {part:?}"))?;
            entries.push((host.to_string(), port));
        }
        if entries.is_empty() {
            return Err("empty --peers table".into());
        }
        Ok(AddressTable { entries })
    }

    /// Renders the `--peers` value this table parses from.
    pub fn flag(&self) -> String {
        self.entries
            .iter()
            .map(|(h, p)| format!("{h}:{p}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Number of processes the table addresses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` for a table with no entries (unreachable via `parse`).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Host of process `i`.
    pub fn host(&self, i: usize) -> &str {
        &self.entries[i].0
    }

    /// Listener port of process `i`.
    pub fn port(&self, i: usize) -> u16 {
        self.entries[i].1
    }
}

/// The netd kill-9 schedule (`--kill <after>[:divergent]`): SIGKILL the
/// victim replica once its committed prefix reaches `after`, and — when
/// `divergent` — give every replica a *different* pending-command stream
/// so the kill lands mid-disagreement and recovery must reconcile real
/// divergence (WAL replay + `t+1` catch-up), not just replay identical
/// state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KillSpec {
    /// Victim committed-prefix threshold that triggers the SIGKILL (≥ 1).
    pub after: u64,
    /// Whether replicas propose divergent per-process pending commands.
    pub divergent: bool,
}

impl Default for KillSpec {
    fn default() -> Self {
        KillSpec {
            after: 1,
            divergent: false,
        }
    }
}

impl KillSpec {
    /// Parses a `--kill` value (`<after>` or `<after>:divergent`).
    pub fn parse(raw: &str) -> Result<Self, String> {
        let (after, divergent) = match raw.split(':').collect::<Vec<_>>().as_slice() {
            [a] => (*a, false),
            [a, "divergent"] => (*a, true),
            _ => return Err(format!("unknown kill schedule {raw:?}")),
        };
        let after: u64 = after
            .parse()
            .map_err(|_| format!("bad prefix threshold in kill schedule {raw:?}"))?;
        if after == 0 {
            return Err("kill threshold must be ≥ 1 (a victim with nothing committed has no divergent state to recover)".into());
        }
        Ok(KillSpec { after, divergent })
    }

    /// Renders the `--kill` value this spec parses from.
    pub fn flag(&self) -> String {
        if self.divergent {
            format!("{}:divergent", self.after)
        } else {
            self.after.to_string()
        }
    }
}

/// Which runtime executes the batch (`--runtime`). All three run the same
/// actor state machines; what changes is the substrate carrying the
/// messages — and therefore what a run's numbers *mean* (virtual ticks vs
/// wall-clock microseconds vs real sockets).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum RuntimeSpec {
    /// The deterministic discrete-event simulator (`dex-simnet`) —
    /// reproducible schedules, fault injection, tracing.
    #[default]
    Simnet,
    /// One OS thread per process over crossbeam channels
    /// (`dex-threadnet`) — real concurrency, delay-jittered dispatch,
    /// wall-clock timers.
    Thread,
    /// One OS *process* per consensus process over real TCP sockets
    /// (`dex-netd`) — kill-9-able processes, optionally spread across
    /// hosts by an explicit [`AddressTable`] (`peers: None` lets the
    /// harness reserve free loopback ports). In-process execution is
    /// impossible by construction; [`RunSpec::run`] reports an error
    /// pointing at the `dex-netd` cluster harness, which owns the
    /// child-spawning orchestration.
    Netd {
        /// Explicit per-process `host:port` table, `None` for loopback
        /// ports the harness picks.
        peers: Option<AddressTable>,
    },
}

impl RuntimeSpec {
    /// Parses a `--runtime` value.
    pub fn parse(raw: &str) -> Result<Self, String> {
        match raw {
            "simnet" => Ok(RuntimeSpec::Simnet),
            "threadnet" => Ok(RuntimeSpec::Thread),
            "netd" => Ok(RuntimeSpec::Netd { peers: None }),
            _ => Err(format!(
                "unknown runtime {raw:?} (expected simnet, threadnet or netd)"
            )),
        }
    }

    /// Short label for flags, JSON and reports.
    pub fn flag(&self) -> &'static str {
        match self {
            RuntimeSpec::Simnet => "simnet",
            RuntimeSpec::Thread => "threadnet",
            RuntimeSpec::Netd { .. } => "netd",
        }
    }

    /// `true` for the netd runtime (with or without a peer table).
    pub fn is_netd(&self) -> bool {
        matches!(self, RuntimeSpec::Netd { .. })
    }

    /// The netd peer table, if the runtime is netd and one was given.
    pub fn peers(&self) -> Option<&AddressTable> {
        match self {
            RuntimeSpec::Netd { peers } => peers.as_ref(),
            _ => None,
        }
    }
}

/// The unified experiment description: every knob of a `dex-sim` batch, as
/// one serde-able value. See the module docs for the flag mapping.
#[derive(Clone, PartialEq, Debug)]
pub struct RunSpec {
    /// System size (`--n`).
    pub n: usize,
    /// Fault bound (`--t`).
    pub t: usize,
    /// Actual Byzantine processes per run, `≤ t` (`--f`).
    pub f: usize,
    /// Algorithm under test (`--algo`).
    pub algo: Algo,
    /// Input-vector generator (`--workload`).
    pub workload: WorkloadSpec,
    /// Byzantine strategy (`--adversary`).
    pub adversary: AdversarySpec,
    /// Underlying consensus (`--underlying`).
    pub underlying: UnderlyingSpec,
    /// Fault placement policy (`--placement`).
    pub placement: Placement,
    /// Link-delay model (`--delay`; `uniform:<min>:<max>`, `constant:<d>`
    /// or `exp:<mean>` — the `Skewed`/`Targeted` models have no CLI
    /// spelling and require the programmatic API).
    pub delay: DelayModel,
    /// Network chaos schedule (`--chaos`).
    pub chaos: ChaosSpec,
    /// Pipelined replication (`--pipeline <window>:<batch>`; `1:1` keeps
    /// the single-shot consensus path). On netd the window is the kill9
    /// replicas' window.
    pub pipeline: PipelineSpec,
    /// Echo/vote aggregation (the valueless `--aggregate` flag). On
    /// coalesces each process's per-tick echo flood into one batched
    /// multicast per causal depth (see [`dex_broadcast::EchoAggregator`]);
    /// off keeps the paper's literal message pattern, byte-identical to
    /// pre-aggregation builds. Algorithms without an echo/vote flood
    /// reject it (see [`RunSpec::config`]).
    pub aggregate: bool,
    /// Which runtime executes the batch (`--runtime`), with the optional
    /// netd peer table (`--peers`).
    pub runtime: RuntimeSpec,
    /// The netd kill-9 schedule (`--kill`); only the cluster harness's
    /// kill9 phase consults it. The default (`1`, non-divergent) is the
    /// established kill-at-first-commit schedule.
    pub kill: KillSpec,
    /// Print the per-class wire-statistics breakdown after the batch (the
    /// valueless `--stats` flag).
    pub stats: bool,
    /// Batch size (`--runs`).
    pub runs: usize,
    /// Base seed; run `i` uses `seed + i` (`--seed`).
    pub seed: u64,
    /// Delivery cap per run (`--max-events`).
    pub max_events: u64,
    /// Whether to re-execute run 0 with event recording (`--trace`).
    pub trace: bool,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            n: 7,
            t: 1,
            f: 0,
            algo: Algo::DexFreq,
            workload: WorkloadSpec::default(),
            adversary: AdversarySpec::default(),
            underlying: UnderlyingSpec::default(),
            placement: Placement::RandomK,
            delay: DelayModel::Uniform { min: 1, max: 10 },
            chaos: ChaosSpec::default(),
            pipeline: PipelineSpec::default(),
            aggregate: false,
            runtime: RuntimeSpec::default(),
            kill: KillSpec::default(),
            stats: false,
            runs: 20,
            seed: 0,
            max_events: 50_000_000,
            trace: false,
        }
    }
}

fn parse_algo(raw: &str) -> Result<Algo, String> {
    match raw.split(':').collect::<Vec<_>>().as_slice() {
        ["dex-freq"] => Ok(Algo::DexFreq),
        ["dex-prv"] => Ok(Algo::DexPrv { m: 1 }),
        ["dex-prv", m] => Ok(Algo::DexPrv {
            m: m.parse()
                .map_err(|_| format!("bad privileged value in algo {raw:?}"))?,
        }),
        ["bosco"] => Ok(Algo::Bosco),
        ["plain"] | ["underlying-only"] => Ok(Algo::UnderlyingOnly),
        ["brasileiro"] => Ok(Algo::Brasileiro),
        ["crash-adaptive"] => Ok(Algo::CrashAdaptive),
        _ => Err(format!("unknown algo {raw:?}")),
    }
}

fn algo_flag(algo: Algo) -> String {
    match algo {
        Algo::DexPrv { m } => format!("dex-prv:{m}"),
        Algo::UnderlyingOnly => "plain".into(),
        other => other.label().into(),
    }
}

fn parse_delay(raw: &str) -> Result<DelayModel, String> {
    let num = |s: &str| -> Result<u64, String> {
        s.parse()
            .map_err(|_| format!("bad number in delay {raw:?}"))
    };
    match raw.split(':').collect::<Vec<_>>().as_slice() {
        ["constant", d] => Ok(DelayModel::Constant(num(d)?)),
        ["uniform", min, max] => Ok(DelayModel::Uniform {
            min: num(min)?,
            max: num(max)?,
        }),
        ["exp", mean] => Ok(DelayModel::Exponential { mean: num(mean)? }),
        _ => Err(format!("unknown delay {raw:?}")),
    }
}

fn delay_flag(delay: &DelayModel) -> String {
    match delay {
        DelayModel::Constant(d) => format!("constant:{d}"),
        DelayModel::Uniform { min, max } => format!("uniform:{min}:{max}"),
        DelayModel::Exponential { mean } => format!("exp:{mean}"),
        other => panic!("delay model {other:?} has no CLI spelling"),
    }
}

fn parse_placement(raw: &str) -> Result<Placement, String> {
    match raw {
        "random-k" => Ok(Placement::RandomK),
        "last-k" => Ok(Placement::LastK),
        _ => Err(format!("unknown placement {raw:?}")),
    }
}

fn placement_flag(placement: Placement) -> &'static str {
    match placement {
        Placement::RandomK => "random-k",
        Placement::LastK => "last-k",
    }
}

impl RunSpec {
    /// Validates the configuration (`n > 3t`, the algorithm's own bound
    /// per [`Algo::supports`], `n > 5t` for the randomized underlying
    /// consensus, `f ≤ t`, `--aggregate` only on algorithms that have an
    /// echo/vote flood, a non-default `--kill` only on netd) and returns
    /// the [`SystemConfig`].
    pub fn config(&self) -> Result<SystemConfig, String> {
        let config = SystemConfig::new(self.n, self.t).map_err(|e| e.to_string())?;
        if !self.algo.supports(config) {
            return Err(format!(
                "--algo {} cannot run at n = {}, t = {} (dex-freq needs n > 6t, \
                 dex-prv and bosco n > 5t)",
                algo_flag(self.algo),
                self.n,
                self.t
            ));
        }
        if self.underlying == UnderlyingSpec::Mvc && !config.supports_one_step() {
            return Err(format!(
                "--underlying mvc needs n > 5t, got n = {}, t = {}",
                self.n, self.t
            ));
        }
        if self.f > self.t {
            return Err(format!(
                "f = {} exceeds the fault bound t = {}",
                self.f, self.t
            ));
        }
        if self.aggregate && !self.algo.aggregates() {
            return Err(format!(
                "--aggregate coalesces an echo/vote flood and --algo {} has none",
                algo_flag(self.algo)
            ));
        }
        if self.kill != KillSpec::default() && !self.runtime.is_netd() {
            return Err(format!(
                "--kill {} schedules a real kill -9 and requires --runtime netd \
                 (run it with dex-netd --cluster)",
                self.kill.flag()
            ));
        }
        Ok(config)
    }

    /// Resolves the underlying-consensus kind (the MVC coin seed is the
    /// spec's base seed).
    pub fn underlying_kind(&self) -> UnderlyingKind {
        match self.underlying {
            UnderlyingSpec::Oracle => UnderlyingKind::Oracle,
            UnderlyingSpec::Mvc => UnderlyingKind::Mvc {
                coin_seed: self.seed,
            },
        }
    }

    /// Lowers the spec to a [`BatchSpec`] and hands it to `body` (the
    /// borrowed workload generator lives for the duration of the call).
    pub(crate) fn with_batch<R>(
        &self,
        body: impl FnOnce(&BatchSpec<'_>) -> R,
    ) -> Result<R, String> {
        let config = self.config()?;
        let workload = self.workload.generator();
        let batch = BatchSpec {
            config,
            algo: self.algo,
            underlying: self.underlying_kind(),
            strategy: self.adversary.strategy(),
            f: self.f,
            placement: self.placement,
            workload: workload.as_ref(),
            delay: self.delay.clone(),
            chaos: self.chaos.clone(),
            aggregate: self.aggregate,
            runs: self.runs,
            seed0: self.seed,
            max_events: self.max_events,
        };
        Ok(body(&batch))
    }

    /// Derives batch run `i` of this spec ([`BatchSpec::instance`]): its
    /// seed, input vector, fault plan and compiled chaos schedule. A netd
    /// cell runs `instance(i)`, and each of its children derives the same
    /// run as `instance(0)` of this spec at the run seed, so a netd cell
    /// and a simnet batch run see the same input and schedule.
    pub fn instance(&self, i: usize) -> Result<RunInstance, String> {
        self.with_batch(|batch| batch.instance(i))
    }

    /// Executes the batch on the spec's runtime.
    ///
    /// `Simnet` runs the deterministic simulator, one worker per core;
    /// `Thread` hands the same actors, workload draws and fault placements
    /// to `dex-threadnet` — one OS thread per process, runs one after the
    /// other, delays from the spec's delay model, latencies in wall-clock
    /// microseconds. The threaded runtime has no fault injector, so chaos
    /// schedules are rejected rather than silently ignored. `Netd` cannot
    /// run in-process — the error points at the `dex-netd` cluster
    /// harness.
    pub fn run(&self) -> Result<BatchStats, String> {
        match &self.runtime {
            RuntimeSpec::Simnet => self.with_batch(run_batch),
            RuntimeSpec::Thread if !self.chaos.is_none() => Err(format!(
                "--runtime threadnet has no fault injector; --chaos {} requires simnet \
                 (netd owns the real kill -9 schedule)",
                self.chaos.flag()
            )),
            RuntimeSpec::Thread if !self.pipeline.is_off() => {
                Err("--pipeline runs on the simnet engine; drop --runtime threadnet".into())
            }
            RuntimeSpec::Thread => self.with_batch(|batch| batch_on(batch, Runtime::Thread, 1)),
            RuntimeSpec::Netd { .. } => Err(
                "--runtime netd spawns real OS processes and cannot run in-process; \
                 use the dex-netd cluster harness (dex-netd --cluster <flags>)"
                    .into(),
            ),
        }
    }

    /// Re-executes batch run `i` with event recording enabled. Tracing
    /// re-runs a deterministic schedule, so it requires the simnet
    /// runtime.
    pub fn traced(&self, i: usize) -> Result<TracedRun, String> {
        if self.runtime != RuntimeSpec::Simnet {
            return Err(format!(
                "--trace re-executes a deterministic schedule and requires the simnet \
                 runtime (got --runtime {})",
                self.runtime.flag()
            ));
        }
        self.with_batch(|batch| traced_batch_run(batch, i))
    }

    /// The `results/` artifact path a `--trace` invocation of this spec
    /// writes: `trace_<seed>.json` for chaos-free specs (unchanged from
    /// the pre-chaos layout), `trace_chaos_<label>_<seed>.json` otherwise.
    pub fn trace_artifact(&self) -> String {
        if self.chaos.is_none() {
            format!("results/trace_{}.json", self.seed)
        } else {
            format!(
                "results/trace_chaos_{}_{}.json",
                self.chaos.label(),
                self.seed
            )
        }
    }

    /// Renders the spec as the `dex-sim` flag vector that parses back into
    /// it. Every flag is emitted explicitly (defaults included), in a fixed
    /// order, so the output is deterministic and self-describing.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--n".into(),
            self.n.to_string(),
            "--t".into(),
            self.t.to_string(),
            "--f".into(),
            self.f.to_string(),
            "--algo".into(),
            algo_flag(self.algo),
            "--workload".into(),
            self.workload.flag(),
            "--adversary".into(),
            self.adversary.flag(),
            "--underlying".into(),
            self.underlying.flag().into(),
            "--placement".into(),
            placement_flag(self.placement).into(),
            "--delay".into(),
            delay_flag(&self.delay),
            "--chaos".into(),
            self.chaos.flag(),
            "--pipeline".into(),
            self.pipeline.flag(),
            "--runtime".into(),
            self.runtime.flag().into(),
        ];
        if let Some(table) = self.runtime.peers() {
            args.push("--peers".into());
            args.push(table.flag());
        }
        args.extend([
            "--kill".into(),
            self.kill.flag(),
            "--runs".into(),
            self.runs.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--max-events".into(),
            self.max_events.to_string(),
        ]);
        if self.aggregate {
            args.push("--aggregate".into());
        }
        if self.stats {
            args.push("--stats".into());
        }
        if self.trace {
            args.push("--trace".into());
        }
        args
    }

    /// Parses a `dex-sim` flag vector (`["--n", "7", "--algo", ...]`).
    /// Unspecified flags take their defaults; `--trace` takes no value.
    pub fn from_args<S: AsRef<str>>(args: &[S]) -> Result<Self, String> {
        let mut spec = RunSpec::default();
        // `--peers` is applied after the loop: it modifies the runtime
        // variant, and flag order must not matter.
        let mut peers: Option<AddressTable> = None;
        let mut it = args.iter().map(AsRef::as_ref);
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument {arg:?} (flags look like --name value)"
                ));
            };
            if name == "trace" {
                spec.trace = true;
                continue;
            }
            if name == "aggregate" {
                spec.aggregate = true;
                continue;
            }
            if name == "stats" {
                spec.stats = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for --{name}"))?;
            let int = |what: &str| -> Result<u64, String> {
                value
                    .parse()
                    .map_err(|_| format!("could not parse --{what} {value}"))
            };
            match name {
                "n" => spec.n = int("n")? as usize,
                "t" => spec.t = int("t")? as usize,
                "f" => spec.f = int("f")? as usize,
                "runs" => spec.runs = int("runs")? as usize,
                "seed" => spec.seed = int("seed")?,
                "max-events" => spec.max_events = int("max-events")?,
                "algo" => spec.algo = parse_algo(value)?,
                "workload" => spec.workload = WorkloadSpec::parse(value)?,
                "adversary" => spec.adversary = AdversarySpec::parse(value)?,
                "underlying" => spec.underlying = UnderlyingSpec::parse(value)?,
                "placement" => spec.placement = parse_placement(value)?,
                "delay" => spec.delay = parse_delay(value)?,
                "chaos" => spec.chaos = ChaosSpec::parse(value)?,
                "pipeline" => spec.pipeline = PipelineSpec::parse(value)?,
                "runtime" => spec.runtime = RuntimeSpec::parse(value)?,
                "peers" => peers = Some(AddressTable::parse(value)?),
                "kill" => spec.kill = KillSpec::parse(value)?,
                _ => return Err(format!("unknown flag --{name}")),
            }
        }
        if let Some(table) = peers {
            if !spec.runtime.is_netd() {
                return Err(format!(
                    "--peers addresses real TCP listeners and requires --runtime netd \
                     (got --runtime {})",
                    spec.runtime.flag()
                ));
            }
            spec.runtime = RuntimeSpec::Netd { peers: Some(table) };
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_round_trip_through_parse_and_render() {
        let spec = RunSpec {
            n: 10,
            t: 1,
            f: 1,
            algo: Algo::DexPrv { m: 3 },
            workload: WorkloadSpec::Bernoulli { p: 0.8 },
            adversary: AdversarySpec::Equivocate,
            underlying: UnderlyingSpec::Mvc,
            placement: Placement::LastK,
            delay: DelayModel::Exponential { mean: 4 },
            chaos: ChaosSpec::PartitionHeal { open: 5, heal: 120 },
            pipeline: PipelineSpec {
                window: 8,
                batch: 4,
            },
            aggregate: true,
            runtime: RuntimeSpec::Thread,
            kill: KillSpec {
                after: 2,
                divergent: true,
            },
            stats: true,
            runs: 8,
            seed: 31,
            max_events: 1_000_000,
            trace: true,
        };
        let args = spec.to_args();
        assert_eq!(RunSpec::from_args(&args).unwrap(), spec);
    }

    #[test]
    fn aggregate_and_stats_flags_are_valueless_and_default_off() {
        let spec = RunSpec::from_args(&["--aggregate", "--stats"]).unwrap();
        assert!(spec.aggregate);
        assert!(spec.stats);
        assert_eq!(
            spec,
            RunSpec {
                aggregate: true,
                stats: true,
                ..RunSpec::default()
            }
        );
        let off = RunSpec::default();
        assert!(!off.aggregate);
        assert!(!off
            .to_args()
            .iter()
            .any(|a| a == "--aggregate" || a == "--stats"));
        assert!(spec
            .to_args()
            .ends_with(&["--aggregate".into(), "--stats".into()]));
        assert_eq!(RunSpec::from_args(&spec.to_args()).unwrap(), spec);
    }

    #[test]
    fn aggregate_is_rejected_for_algorithms_without_a_flood() {
        let with_aggregate = |algo: &str| {
            RunSpec::from_args(&["--algo", algo, "--aggregate"])
                .unwrap()
                .config()
        };
        for algo in ["bosco", "plain", "brasileiro", "crash-adaptive"] {
            let err = with_aggregate(algo).unwrap_err();
            assert!(err.contains("--aggregate") && err.contains(algo), "{err}");
            // Rejected before anything runs, and only because of the flag.
            let spec = RunSpec::from_args(&["--algo", algo]).unwrap();
            assert!(spec.config().is_ok(), "{algo} without --aggregate");
            assert!(RunSpec {
                aggregate: true,
                ..spec
            }
            .run()
            .is_err());
        }
        for algo in ["dex-freq", "dex-prv"] {
            assert!(with_aggregate(algo).is_ok(), "{algo} aggregates");
        }
    }

    #[test]
    fn algorithms_are_rejected_below_their_bound_and_accepted_at_it() {
        let config = |flags: &str| {
            let args: Vec<&str> = flags.split(' ').collect();
            RunSpec::from_args(&args).unwrap().config()
        };
        for t in [1usize, 2] {
            let at = |n: usize, rest: &str| format!("--n {n} --t {t} {rest}");
            for (bound, rest) in [
                (6 * t, "--algo dex-freq"),
                (5 * t, "--algo dex-prv"),
                (5 * t, "--algo bosco"),
                (5 * t, "--algo plain --underlying mvc"),
            ] {
                let err = config(&at(bound, rest)).unwrap_err();
                let flag = if rest.contains("mvc") {
                    "mvc"
                } else {
                    "--algo"
                };
                assert!(err.contains(flag), "{rest} at n = {bound}: {err}");
                assert!(
                    config(&at(bound + 1, rest)).is_ok(),
                    "{rest} at n = {bound} + 1"
                );
            }
            // The rest run on any n > 3t.
            for algo in ["plain", "brasileiro", "crash-adaptive"] {
                let rest = format!("--algo {algo}");
                assert!(config(&at(3 * t + 1, &rest)).is_ok(), "{algo}, t = {t}");
            }
        }
    }

    #[test]
    fn pipeline_parses_window_and_batch() {
        assert!(PipelineSpec::default().is_off());
        assert_eq!(
            PipelineSpec::parse("8").unwrap(),
            PipelineSpec {
                window: 8,
                batch: 1
            }
        );
        let spec = PipelineSpec::parse("8:4").unwrap();
        assert_eq!(
            spec,
            PipelineSpec {
                window: 8,
                batch: 4
            }
        );
        assert!(!spec.is_off());
        assert_eq!(PipelineSpec::parse(&spec.flag()).unwrap(), spec);
        assert!(PipelineSpec::parse("0:4").is_err(), "window must be ≥ 1");
        assert!(PipelineSpec::parse("8:0").is_err(), "batch must be ≥ 1");
        assert!(PipelineSpec::parse("8:4:2").is_err());
        // Batching without a wider window is still a pipeline run: slots
        // carry multi-value commands even though only one is in flight.
        assert!(!PipelineSpec {
            window: 1,
            batch: 4
        }
        .is_off());
    }

    #[test]
    fn hotkey_workload_parses_round_trips_and_generates() {
        let spec = WorkloadSpec::parse("hotkey:1000:1.2:0.9:0.1").unwrap();
        assert_eq!(
            spec,
            WorkloadSpec::HotKey {
                clients: 1000,
                s: 1.2,
                hot: 0.9,
                bias: 0.1,
            }
        );
        assert_eq!(WorkloadSpec::parse(&spec.flag()).unwrap(), spec);
        let gen = spec.generator();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let input = gen.generate(13, &mut rng);
        assert!(input.as_slice().iter().all(|v| *v < 1000));
        // Hot mass dominates at hot = 0.9.
        assert!(input.count_of(&0) >= 7, "{input:?}");

        assert!(WorkloadSpec::parse("hotkey:0:1:0.5:0.5").is_err());
        assert!(WorkloadSpec::parse("hotkey:10:1:1.5:0").is_err());
        assert!(WorkloadSpec::parse("hotkey:10:1:0.5").is_err());
        assert!(WorkloadSpec::parse("hotkey:10:nan:0.5:0.5").is_err());
        assert!(WorkloadSpec::parse("hotkey:10:inf:0.5:0.5").is_err());
    }

    #[test]
    fn default_spec_matches_cli_defaults() {
        let spec = RunSpec::from_args::<&str>(&[]).unwrap();
        assert_eq!(spec, RunSpec::default());
        assert_eq!(spec.n, 7);
        assert_eq!(spec.workload, WorkloadSpec::Unanimous { value: 1 });
        assert!(spec.chaos.is_none());
        assert_eq!(spec.trace_artifact(), "results/trace_0.json");
    }

    #[test]
    fn chaos_parse_rejects_bad_windows_and_probabilities() {
        assert!(ChaosSpec::parse("drop:1.5").is_err());
        assert!(ChaosSpec::parse("crash:0:50").is_err(), "down must be ≥ 1");
        assert!(ChaosSpec::parse("partition:80:10").is_err());
        assert!(ChaosSpec::parse("flood:1").is_err());
        assert_eq!(
            ChaosSpec::parse("crash:3:100").unwrap(),
            ChaosSpec::CrashRecover { down: 3, up: 100 }
        );
    }

    #[test]
    fn drop_heavy_compiles_onto_the_faulty_processes_only() {
        let config = SystemConfig::new(7, 1).unwrap();
        let plan = FaultPlan::last_k(config, 1);
        let sched = ChaosSpec::DropHeavy { p: 0.4 }.build(config, &plan);
        assert!(!sched.is_empty());
        for link in sched.links() {
            let touches_faulty = link.from.is_some_and(|q| plan.is_faulty(q))
                || link.to.is_some_and(|q| plan.is_faulty(q));
            assert!(touches_faulty, "lossy link must touch a faulty process");
        }
        // With no faulty processes there is nothing to attach drops to.
        assert!(ChaosSpec::DropHeavy { p: 0.4 }
            .build(config, &FaultPlan::none())
            .is_empty());
    }

    #[test]
    fn crash_recover_spares_the_coordinator_and_the_byzantine() {
        let config = SystemConfig::new(7, 1).unwrap();
        let plan = FaultPlan::last_k(config, 1);
        let sched = ChaosSpec::CrashRecover { down: 3, up: 100 }.build(config, &plan);
        let windows = sched.crash_windows();
        assert_eq!(windows.len(), 1);
        let victim = windows[0].process;
        assert_ne!(victim.index(), 0, "coordinator must stay up");
        assert!(!plan.is_faulty(victim), "victim must be correct");
        assert!(sched.all_recover());
        assert_eq!(sched.last_heal(), Some(100));
    }

    #[test]
    fn crash_restart_compiles_to_an_amnesiac_schedule_outside_the_matrix() {
        assert_eq!(
            ChaosSpec::parse("crash-restart:3:100").unwrap(),
            ChaosSpec::CrashRestart { down: 3, up: 100 }
        );
        assert!(ChaosSpec::parse("crash-restart:0:50").is_err());
        let spec = ChaosSpec::CrashRestart { down: 3, up: 100 };
        assert_eq!(ChaosSpec::parse(&spec.flag()).unwrap(), spec);

        let config = SystemConfig::new(7, 1).unwrap();
        let plan = FaultPlan::last_k(config, 1);
        let sched = spec.build(config, &plan);
        let windows = sched.crash_windows();
        assert_eq!(windows.len(), 1);
        assert_ne!(windows[0].process.index(), 0, "coordinator must stay up");
        assert!(!plan.is_faulty(windows[0].process));
        // Amnesia destroys state: the schedule is *not* eventually clean,
        // which is exactly why the variant stays out of the CI matrix.
        assert!(!sched.all_recover());
        assert!(!ChaosSpec::MATRIX.contains(&spec));
    }

    #[test]
    fn chaos_artifact_names_carry_the_schedule_label() {
        let spec = RunSpec {
            chaos: ChaosSpec::DupHeavy { p: 0.3 },
            seed: 9,
            ..RunSpec::default()
        };
        assert_eq!(spec.trace_artifact(), "results/trace_chaos_dup_9.json");
    }

    #[test]
    fn args_are_deterministic_and_fixed_order() {
        let spec = RunSpec::default();
        let args = spec.to_args();
        assert_eq!(args, spec.to_args());
        assert_eq!(
            args[..8],
            ["--n", "7", "--t", "1", "--f", "0", "--algo", "dex-freq"]
        );
        assert!(args.windows(2).any(|w| w == ["--chaos", "none"]));
        assert!(args.windows(2).any(|w| w == ["--runtime", "simnet"]));
        assert!(!args.iter().any(|a| a == "--trace"));
    }

    #[test]
    fn runtime_flag_parses_dispatches_and_gates_tracing() {
        assert_eq!(RuntimeSpec::parse("simnet").unwrap(), RuntimeSpec::Simnet);
        assert_eq!(
            RuntimeSpec::parse("threadnet").unwrap(),
            RuntimeSpec::Thread
        );
        assert_eq!(
            RuntimeSpec::parse("netd").unwrap(),
            RuntimeSpec::Netd { peers: None }
        );
        assert!(RuntimeSpec::parse("quic").is_err());
        let spec = RunSpec::from_args(&["--runtime", "threadnet"]).unwrap();
        assert_eq!(spec.runtime, RuntimeSpec::Thread);
        // Tracing replays a deterministic schedule — simnet only.
        assert!(spec.traced(0).is_err());
        // Netd is not an in-process runtime; the error routes the caller
        // to the cluster harness.
        let netd = RunSpec {
            runtime: RuntimeSpec::Netd { peers: None },
            ..RunSpec::default()
        };
        assert!(netd.run().unwrap_err().contains("dex-netd"));
    }

    #[test]
    fn address_table_parses_and_round_trips() {
        let table = AddressTable::parse("10.0.0.1:9000,10.0.0.2:9001").unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!((table.host(0), table.port(0)), ("10.0.0.1", 9000));
        assert_eq!((table.host(1), table.port(1)), ("10.0.0.2", 9001));
        assert_eq!(AddressTable::parse(&table.flag()).unwrap(), table);
        assert!(AddressTable::parse("nohost").is_err());
        assert!(AddressTable::parse(":9000").is_err());
        assert!(AddressTable::parse("h:notaport").is_err());
    }

    #[test]
    fn peers_flag_requires_netd_and_round_trips() {
        let spec = RunSpec::from_args(&[
            "--runtime",
            "netd",
            "--peers",
            "127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002",
        ])
        .unwrap();
        let table = spec.runtime.peers().expect("table survives parsing");
        assert_eq!(table.len(), 3);
        assert_eq!(RunSpec::from_args(&spec.to_args()).unwrap(), spec);
        assert!(spec
            .to_args()
            .windows(2)
            .any(|w| w == ["--peers", "127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002"]));
        // Order must not matter: --peers before --runtime still applies.
        let swapped =
            RunSpec::from_args(&["--peers", "127.0.0.1:9000", "--runtime", "netd"]).unwrap();
        assert!(swapped.runtime.peers().is_some());
        // On a non-netd runtime the flag is an error, not silently ignored.
        let err = RunSpec::from_args(&["--peers", "127.0.0.1:9000"]).unwrap_err();
        assert!(err.contains("netd"), "{err}");
    }

    #[test]
    fn kill_schedule_parses_round_trips_and_defaults() {
        assert_eq!(
            KillSpec::default(),
            KillSpec {
                after: 1,
                divergent: false
            }
        );
        assert_eq!(
            KillSpec::parse("3:divergent").unwrap(),
            KillSpec {
                after: 3,
                divergent: true
            }
        );
        assert_eq!(
            KillSpec::parse("2").unwrap(),
            KillSpec {
                after: 2,
                divergent: false
            }
        );
        assert!(KillSpec::parse("0").is_err(), "threshold must be ≥ 1");
        assert!(KillSpec::parse("3:weird").is_err());
        let spec = RunSpec {
            kill: KillSpec {
                after: 2,
                divergent: true,
            },
            ..RunSpec::default()
        };
        assert_eq!(RunSpec::from_args(&spec.to_args()).unwrap(), spec);
        assert!(spec
            .to_args()
            .windows(2)
            .any(|w| w == ["--kill", "2:divergent"]));
        let default = RunSpec::default().to_args();
        assert!(default.windows(2).any(|w| w == ["--kill", "1"]));
        assert!(!default.iter().any(|a| a == "--peers"));
        // Only netd can honour a kill schedule; the in-process runtimes
        // refuse it instead of running without it.
        for runtime in [RuntimeSpec::Simnet, RuntimeSpec::Thread] {
            let err = RunSpec {
                runtime,
                ..spec.clone()
            }
            .config()
            .unwrap_err();
            assert!(err.contains("--runtime netd"), "{err}");
        }
        let netd = RunSpec {
            runtime: RuntimeSpec::Netd { peers: None },
            ..spec
        };
        assert!(netd.config().is_ok());
    }

    #[test]
    fn spec_runs_a_clean_batch_end_to_end() {
        let spec = RunSpec {
            runs: 5,
            f: 1,
            adversary: AdversarySpec::Equivocate,
            workload: WorkloadSpec::Bernoulli { p: 0.8 },
            max_events: 1_000_000,
            ..RunSpec::default()
        };
        let stats = spec.run().unwrap();
        assert!(stats.clean(), "{stats:?}");
        assert_eq!(stats.runs, 5);
    }

    #[test]
    fn invalid_specs_are_rejected_not_executed() {
        let spec = RunSpec {
            f: 2, // exceeds t = 1
            ..RunSpec::default()
        };
        assert!(spec.run().is_err());
        assert!(RunSpec::from_args(&["--frobnicate", "1"]).is_err());
    }
}
