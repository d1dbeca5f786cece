//! The replica actor: one DEX instance per log slot, generic over the
//! replicated [`StateMachine`], with an optional pipelined mode that keeps
//! a window of `W` slots in flight concurrently (see [`SlotMux`]).

use crate::log::ReplicatedLog;
use crate::machine::StateMachine;
use crate::mux::{Checkout, SlotMux};
use crate::wal::{Durability, WalRecord};
use dex_adversary::{ByzantineActor, ByzantineStrategy, ProtocolForgery};
use dex_broadcast::{EchoAggregator, IdbMessage};
use dex_core::{DecisionPath, DexMsg, Reliable, ResendPolicy};
use dex_obs::{obs_code, EventKind, Recorder};
use dex_simnet::{
    Actor, Context, DelayModel, FaultSchedule, MsgClass, NetStats, Recoverable, Simulation,
};
use dex_types::{Dest, ProcessId, StepDepth, SystemConfig, Value};
use dex_underlying::{OracleMsg, Outbox};
use std::collections::{HashMap, VecDeque};

/// Per-slot DEX wire messages for command type `C`.
pub type SlotMsg<C> = DexMsg<C, OracleMsg<C>>;

/// What one slot's instance is fed: a wire message, or one `(origin,
/// value)` entry of a [`ReplicaMsg::EchoBatch`], borrowed from the batch.
enum SlotInput<'a, C> {
    Msg(&'a SlotMsg<C>),
    Echo(ProcessId, &'a C),
}

/// Base retry timeout for catch-up requests, in virtual time units
/// (doubles each attempt, capped — see [`Replica`]'s liveness notes).
const CATCH_UP_RTO: u64 = 64;
/// Exponent cap for the catch-up backoff (`RTO << min(attempt, cap)`).
const CATCH_UP_BACKOFF_CAP: u32 = 6;
/// Retry budget: after this many unanswered rounds a recovering replica
/// stops asking and degrades to ordinary per-slot consensus traffic.
const CATCH_UP_MAX_ATTEMPTS: u32 = 12;
/// Maximum committed slots per [`ReplicaMsg::CatchUpReply`].
const CATCH_UP_CHUNK: u64 = 64;

/// Cluster wire messages: slot-tagged DEX traffic plus the catch-up
/// protocol a recovering or lagging replica uses to fetch the committed
/// prefix it missed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplicaMsg<C> {
    /// A DEX message for one slot's consensus instance.
    Slot {
        /// The log slot this message belongs to.
        slot: u64,
        /// The DEX message for that slot's instance.
        inner: SlotMsg<C>,
    },
    /// "Send me your committed slots starting at `from_slot`." Broadcast
    /// by a replica that detects a gap (typically after a restart).
    CatchUpRequest {
        /// First slot the requester is missing.
        from_slot: u64,
    },
    /// Committed `(slot, command)` pairs from the responder's log. Replies
    /// are **not** trusted individually: the requester adopts a slot only
    /// on `t + 1` matching replies (or a local committed witness), so `t`
    /// Byzantine responders can never inject a forged prefix.
    CatchUpReply {
        /// Committed slots, in ascending slot order.
        slots: Vec<(u64, C)>,
    },
    /// Self-addressed retry timer for the catch-up backoff loop (local
    /// only — ignored unless it arrives from this very replica).
    CatchUpTick,
    /// Underlying-consensus traffic for several slots, coalesced into one
    /// wire message. Pipelined replicas (`window > 1`) buffer the UC
    /// proposals of slots that fall back inside the same window and ship
    /// them to the coordinator together — one network round amortized
    /// across the window instead of one per falling-back slot.
    UcBatch {
        /// `(slot, message)` pairs, demultiplexed on arrival.
        entries: Vec<(u64, OracleMsg<C>)>,
    },
    /// Self-addressed flush timer for the UC coalescing buffer (local
    /// only — ignored unless it arrives from this very replica).
    UcFlushTick,
    /// Echoes across all in-flight slots that one replica emitted within
    /// one delivery tick, coalesced into a single multicast: `(slot,
    /// origin, value)` triples, demultiplexed on arrival in entry order
    /// through the exact per-slot path (horizon, retirement and quorum
    /// guards reapply). Only sent when echo aggregation is enabled.
    EchoBatch {
        /// Coalesced echoes, grouped by would-be send depth upstream.
        entries: Vec<(u64, ProcessId, C)>,
    },
    /// Self-addressed flush timer for the echo aggregator (local only —
    /// ignored unless it arrives from this very replica).
    EchoFlushTick,
}

/// Classifies cluster wire traffic for the per-class
/// [`NetStats`](dex_simnet::NetStats) breakdown. Slot-tagged DEX traffic
/// delegates to [`dex_core::dex_msg_class`]; [`ReplicaMsg::UcBatch`] stays
/// `Other` so `echoes_batched` counts echo aggregation alone.
pub fn replica_msg_class<C: Value>(msg: &ReplicaMsg<C>) -> MsgClass {
    match msg {
        ReplicaMsg::Slot { inner, .. } => dex_core::dex_msg_class(inner),
        ReplicaMsg::EchoBatch { entries } => MsgClass::Batch(entries.len() as u32),
        _ => MsgClass::Other,
    }
}

/// Wire size of cluster traffic: shallow except for the heap-carried
/// batch and catch-up payloads.
pub fn replica_msg_bytes<C: Value>(msg: &ReplicaMsg<C>) -> usize {
    let shallow = core::mem::size_of_val(msg);
    match msg {
        ReplicaMsg::EchoBatch { entries } => {
            shallow + entries.len() * core::mem::size_of::<(u64, ProcessId, C)>()
        }
        ReplicaMsg::UcBatch { entries } => {
            shallow + entries.len() * core::mem::size_of::<(u64, OracleMsg<C>)>()
        }
        ReplicaMsg::CatchUpReply { slots } => {
            shallow + slots.len() * core::mem::size_of::<(u64, C)>()
        }
        _ => shallow,
    }
}

impl<C: Value> ProtocolForgery for ReplicaMsg<C> {
    type Value = C;

    /// A Byzantine replica opens the first few slots with its own
    /// (possibly equivocated) proposals.
    fn forge_proposal(me: ProcessId, _to: ProcessId, value: C) -> Vec<Self> {
        (0..4)
            .flat_map(|slot| {
                [
                    ReplicaMsg::Slot {
                        slot,
                        inner: DexMsg::Proposal(value.clone()),
                    },
                    ReplicaMsg::Slot {
                        slot,
                        inner: DexMsg::Idb(dex_broadcast::IdbMessage::Init {
                            key: me,
                            value: value.clone(),
                        }),
                    },
                ]
            })
            .collect()
    }

    /// Poison the two-step channel of whichever slot instance it observes
    /// being opened (inits only — keeps traffic finite), and lie to
    /// recovering replicas: claim whatever slot they ask about committed
    /// the poison value. `t` such liars can never assemble the `t + 1`
    /// matching replies adoption requires.
    fn forge_reaction(_me: ProcessId, observed: &Self, _to: ProcessId, value: C) -> Vec<Self> {
        match observed {
            ReplicaMsg::Slot {
                slot,
                inner: DexMsg::Idb(dex_broadcast::IdbMessage::Init { key, .. }),
            } => vec![ReplicaMsg::Slot {
                slot: *slot,
                inner: DexMsg::Idb(dex_broadcast::IdbMessage::Echo { key: *key, value }),
            }],
            ReplicaMsg::CatchUpRequest { from_slot } => vec![ReplicaMsg::CatchUpReply {
                slots: vec![(*from_slot, value)],
            }],
            _ => Vec::new(),
        }
    }
}

/// How one slot decided at one replica.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlotPath {
    /// The slot.
    pub slot: u64,
    /// Which DEX mechanism decided it.
    pub path: DecisionPath,
    /// Causal depth of the decision message.
    pub depth: StepDepth,
}

/// Pending quorum-validation state for the catch-up protocol: per missing
/// slot, the candidate values the replies carried and the distinct replicas
/// vouching for each (small linear structures — no hash-order dependence).
struct CatchUpState<C> {
    replies: HashMap<u64, Vec<(C, Vec<ProcessId>)>>,
    attempt: u32,
    /// Whether the retry loop runs, i.e. a [`ReplicaMsg::CatchUpTick`] is
    /// in flight.
    active: bool,
    /// The loop asks until the committed floor reaches this slot.
    until: u64,
    /// The committed floor `ahead` was gathered at.
    ahead_floor: u64,
    /// Peers seen proposing a slot two windows or more past `ahead_floor`
    /// (see [`Replica::note_proposal`]).
    ahead: Vec<ProcessId>,
}

impl<C> Default for CatchUpState<C> {
    fn default() -> Self {
        CatchUpState {
            replies: HashMap::new(),
            attempt: 0,
            active: false,
            until: 0,
            ahead_floor: 0,
            ahead: Vec::new(),
        }
    }
}

/// A correct replica: sequential multi-slot DEX, a replicated log and the
/// state machine `SM`.
///
/// The replica proposes for slot `s + 1` once slot `s` has committed
/// locally; its proposal is the first pending client command not yet in
/// the committed prefix, or the default ("noop") command when the queue is
/// empty. Messages for not-yet-proposed slots are processed immediately
/// (instances are created on demand), so a slow replica still helps fast
/// ones commit.
///
/// # Crash recovery
///
/// With a [`Durability`] store attached (see
/// [`enable_durability`](Self::enable_durability)), every commit is
/// WAL-appended and fsynced before it is acted on, and snapshots compact
/// the log on a fixed cadence. After a
/// [`CrashMode::Restart`](dex_simnet::CrashMode) window the runtime calls
/// [`Recoverable::restart`]: volatile state (instances, log, machine) is
/// wiped, the persisted snapshot + WAL are replayed — re-deriving a
/// committed prefix byte-identical to what was durable before the crash —
/// and the replica broadcasts [`ReplicaMsg::CatchUpRequest`] for whatever
/// the cluster decided while it was down, retrying with exponential
/// backoff until its log is complete (or the retry budget degrades it back
/// to ordinary consensus participation).
pub struct Replica<SM: StateMachine> {
    config: SystemConfig,
    me: ProcessId,
    coordinator: ProcessId,
    pending: VecDeque<SM::Command>,
    target_slots: u64,
    mux: SlotMux<SM::Command>,
    log: ReplicatedLog<SM::Command>,
    machine: SM,
    paths: Vec<SlotPath>,
    next_to_propose: u64,
    obs: Recorder,
    durable: Option<Durability<SM>>,
    catch_up: CatchUpState<SM::Command>,
    restarts: u32,
    /// UC proposals awaiting the coalescing flush (pipelined mode only).
    uc_pending: Vec<(u64, OracleMsg<SM::Command>)>,
    /// Whether a [`ReplicaMsg::UcFlushTick`] is currently in flight.
    uc_flush_armed: bool,
    /// Pending entries handed to in-flight slots (pipelined mode only):
    /// the first `claimed` entries of `pending` back open proposals, so
    /// the next slot to open proposes entry `claimed`, not the front —
    /// each in-flight slot carries a *distinct* client command.
    claimed: usize,
    /// Messages saved by UC coalescing: entries shipped minus batches sent.
    uc_coalesced: u64,
    /// Echo aggregation state, keyed `(slot, origin)`; `None` keeps the
    /// wire protocol byte-identical to pre-aggregation builds.
    agg: Option<EchoAggregator<(u64, ProcessId), SM::Command>>,
    /// Messages saved by echo aggregation: echoes shipped minus batches
    /// sent.
    echoes_coalesced: u64,
}

impl<SM: StateMachine> Replica<SM> {
    /// Creates a replica with its locally observed client requests.
    pub fn new(
        config: SystemConfig,
        me: ProcessId,
        coordinator: ProcessId,
        pending: Vec<SM::Command>,
        target_slots: u64,
    ) -> Self {
        Replica {
            config,
            me,
            coordinator,
            pending: pending.into(),
            target_slots,
            mux: SlotMux::new(config, me, coordinator),
            log: ReplicatedLog::new(),
            machine: SM::default(),
            paths: Vec::new(),
            next_to_propose: 0,
            obs: Recorder::disabled(),
            durable: None,
            catch_up: CatchUpState::default(),
            restarts: 0,
            uc_pending: Vec::new(),
            uc_flush_armed: false,
            claimed: 0,
            uc_coalesced: 0,
            agg: None,
            echoes_coalesced: 0,
        }
    }

    /// Turns on echo aggregation: outgoing `Dest::All` echoes across all
    /// in-flight slots are coalesced per delivery tick into
    /// [`ReplicaMsg::EchoBatch`] multicasts (see
    /// `dex_core::DexActor::enable_aggregation` for the single-shot
    /// analogue). Composes with pipelining: a window of `W` slots flooding
    /// echoes concurrently shares the same per-tick batches.
    pub fn enable_echo_aggregation(&mut self) {
        self.agg = Some(EchoAggregator::new());
    }

    /// Messages saved so far by echo aggregation.
    pub fn echoes_coalesced(&self) -> u64 {
        self.echoes_coalesced
    }

    /// Turns on the pipelined engine: up to `window` slots run their DEX
    /// instances concurrently and same-window UC fallbacks are coalesced
    /// into [`ReplicaMsg::UcBatch`] rounds. At every window, `1` (the
    /// sequential engine) included, decided slots retire into the
    /// recycling pool once the committed floor slides a full window past
    /// them.
    pub fn enable_pipelining(&mut self, window: u64) {
        self.mux.set_window(window);
    }

    /// The pipeline window (`1` = sequential).
    pub fn window(&self) -> u64 {
        self.mux.window()
    }

    /// The slot mux (instance routing/recycling diagnostics).
    pub fn mux(&self) -> &SlotMux<SM::Command> {
        &self.mux
    }

    /// Messages saved so far by coalescing same-window UC fallbacks.
    pub fn uc_coalesced(&self) -> u64 {
        self.uc_coalesced
    }

    /// Attaches a durable store: every commit is WAL-logged + fsynced, and
    /// [`Recoverable::restart`] restores from it instead of cold-booting.
    pub fn enable_durability(&mut self, durable: Durability<SM>) {
        self.durable = Some(durable);
    }

    /// The durable store, if one is attached.
    pub fn durability(&self) -> Option<&Durability<SM>> {
        self.durable.as_ref()
    }

    /// How many times this replica has been restarted by the runtime.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Turns on structured event recording for this replica (commit events
    /// plus the runtime's send/deliver stamps; see `dex-obs`).
    pub fn enable_obs(&mut self) {
        self.obs = Recorder::new(self.me.index() as u16);
    }

    /// The structured-event recorder.
    pub fn obs(&self) -> &Recorder {
        &self.obs
    }

    /// This replica's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The committed log.
    pub fn log(&self) -> &ReplicatedLog<SM::Command> {
        &self.log
    }

    /// The applied state machine.
    pub fn machine(&self) -> &SM {
        &self.machine
    }

    /// Decision paths per slot, in decision order.
    pub fn paths(&self) -> &[SlotPath] {
        &self.paths
    }

    /// Records a pool reuse as a structured event (the checker's
    /// `slot-reuse-isolation` invariant audits these).
    fn note_checkout(&mut self, slot: u64, how: Checkout) {
        if let Checkout::Recycled(freed) = how {
            if self.obs.is_active() {
                self.obs.record(EventKind::SlotReuse {
                    slot: slot as u32,
                    freed: freed as u32,
                });
            }
        }
    }

    /// Picks the proposal for a slot: first pending command not already
    /// committed somewhere in the log prefix.
    ///
    /// In pipelined mode each open slot must carry a *distinct* command,
    /// so the first `claimed` surviving entries are skipped — they already
    /// back slots in flight — and the claim count advances past the entry
    /// handed out here.
    fn next_proposal(&mut self) -> SM::Command {
        while let Some(cmd) = self.pending.front() {
            if self.log.prefix_contains(cmd) {
                self.pending.pop_front();
                self.claimed = self.claimed.saturating_sub(1);
            } else if self.mux.window() == 1 {
                return cmd.clone();
            } else {
                break;
            }
        }
        if self.mux.window() == 1 {
            return SM::Command::default();
        }
        match self.pending.get(self.claimed).cloned() {
            Some(cmd) => {
                self.claimed += 1;
                cmd
            }
            None => SM::Command::default(),
        }
    }

    fn propose_due_slots(&mut self, ctx: &mut Context<'_, ReplicaMsg<SM::Command>>) {
        // Propose slot s while it lies inside the pipeline window above
        // the committed floor: every slot ≤ s − W has committed locally
        // (via own decision, restore or catch-up alike). With W = 1 this
        // is exactly the sequential rule — propose s once all slots < s
        // have committed.
        loop {
            let floor = self.log.committed_prefix() as u64;
            if self.next_to_propose >= self.target_slots
                || self.next_to_propose >= floor.saturating_add(self.mux.window())
            {
                break;
            }
            let slot = self.next_to_propose;
            self.next_to_propose += 1;
            if self.log.is_committed(slot as usize) {
                continue; // already known (restored or caught up)
            }
            if self.obs.is_active() {
                self.obs.record(EventKind::SlotPropose {
                    slot: slot as u32,
                    floor: floor as u32,
                });
            }
            let proposal = self.next_proposal();
            let mut out = Outbox::new();
            let how = {
                let (instance, how) = self.mux.checkout(slot);
                instance.propose(proposal, ctx.rng(), &mut out);
                how
            };
            self.note_checkout(slot, how);
            self.flush_slot(slot, out, ctx);
        }
        self.slide_window();
    }

    /// Retires decided slots a full window behind the committed floor into
    /// the recycling pool (at `W = 1`, slot `s` once the floor passes
    /// `s + 1`), except the log's last two windows
    /// ([`SlotMux::retire_line`]).
    fn slide_window(&mut self) {
        let floor = self.log.committed_prefix() as u64;
        self.mux
            .retire_below(self.mux.retire_line(floor, self.target_slots));
    }

    fn apply_ready(&mut self) {
        while let Some(cmd) = self.log.next_applicable().cloned() {
            self.machine.apply(&cmd);
            self.log.mark_applied();
        }
        if let Some(durable) = &mut self.durable {
            durable.maybe_snapshot(&self.log, &self.machine);
        }
    }

    fn on_slot_msg(
        &mut self,
        from: ProcessId,
        slot: u64,
        input: SlotInput<'_, SM::Command>,
        ctx: &mut Context<'_, ReplicaMsg<SM::Command>>,
    ) {
        if slot >= self.target_slots {
            return; // Byzantine traffic beyond the agreed horizon
        }
        if let SlotInput::Msg(DexMsg::Proposal(_)) = input {
            self.note_proposal(from, slot, ctx);
        }
        if self.mux.is_retired(slot) {
            // Retired ⊆ committed prefix: the instance has been recycled,
            // so instead of resurrecting it for a straggler, answer a late
            // *proposer* with a targeted catch-up reply — `t + 1` matching
            // replies let a lagging replica adopt the slot — and drop
            // other late traffic (echo obligations for every peer still
            // inside the window were discharged before retirement).
            if from != self.me {
                if let SlotInput::Msg(DexMsg::Proposal(_)) = input {
                    let value = self
                        .log
                        .get(slot as usize)
                        .expect("retired slots are committed")
                        .clone();
                    ctx.send(
                        from,
                        ReplicaMsg::CatchUpReply {
                            slots: vec![(slot, value)],
                        },
                    );
                }
            }
            return;
        }
        let mut out = Outbox::new();
        let (decision, how) = {
            let (instance, how) = self.mux.checkout(slot);
            let decision = match input {
                SlotInput::Msg(inner) => instance.on_message(from, inner, ctx.rng(), &mut out),
                SlotInput::Echo(origin, value) => {
                    instance.on_echo(from, origin, value, ctx.rng(), &mut out)
                }
            };
            (decision, how)
        };
        self.note_checkout(slot, how);
        self.flush_slot(slot, out, ctx);
        if let Some(d) = decision {
            // A restarted replica's fresh instance can re-decide a slot it
            // already restored from disk — agreement makes that a harmless
            // duplicate, and only a *new* commit is persisted and applied.
            let outcome = self.log.commit(slot as usize, d.value.clone());
            if !outcome.is_new() {
                return;
            }
            if self.obs.is_active() {
                self.obs.record(EventKind::Commit {
                    slot: slot as u32,
                    code: obs_code(&d.value),
                });
            }
            if let Some(durable) = &mut self.durable {
                durable.log_commit(slot, d.value.clone());
            }
            self.paths.push(SlotPath {
                slot,
                path: d.path,
                depth: ctx.depth(),
            });
            // Drop the command we proposed if it just committed. In
            // pipelined mode the committed value may back any in-flight
            // slot, so the whole claimed region is searched, and the claim
            // backing the removed entry is released.
            if self.mux.window() == 1 {
                if self.pending.front() == Some(&d.value) {
                    self.pending.pop_front();
                }
            } else if let Some(pos) = self
                .pending
                .iter()
                .take(self.claimed)
                .position(|c| c == &d.value)
            {
                self.pending.remove(pos);
                self.claimed -= 1;
            }
            self.apply_ready();
            self.propose_due_slots(ctx);
        }
    }

    /// Watches for peers that have retired this replica's first
    /// uncommitted slot, and asks them for it.
    ///
    /// A correct peer proposes slot `x` only after committing `x − W`, so
    /// its retirement line is at least
    /// [`retire_line`](SlotMux::retire_line)`(x − W + 1)`: once that line
    /// passes `floor` (away from the log's last two windows, once
    /// `x ≥ floor + 2W`), the sender will answer for `floor` only through
    /// catch-up. A slot's instance here can stall once its peers retire
    /// it: if its P2 test fails, its decision waits on the underlying
    /// consensus, whose coordinator announces only after `n − t` peers'
    /// proposals, and a peer that committed the slot early may retire it
    /// before it proposes there. When the `t + 1`-th peer (so at least one
    /// correct) proves it retired `floor`, the replica asks for `floor`
    /// until it commits there, and adopts it from `t + 1` matching
    /// replies.
    fn note_proposal(
        &mut self,
        from: ProcessId,
        slot: u64,
        ctx: &mut Context<'_, ReplicaMsg<SM::Command>>,
    ) {
        let floor = self.log.committed_prefix() as u64;
        let committed_there = (slot + 1).saturating_sub(self.mux.window());
        if from == self.me || self.mux.retire_line(committed_there, self.target_slots) <= floor {
            return;
        }
        let catch_up = &mut self.catch_up;
        if catch_up.ahead_floor != floor {
            catch_up.ahead_floor = floor;
            catch_up.ahead.clear();
        }
        if catch_up.ahead.contains(&from) {
            return;
        }
        catch_up.ahead.push(from);
        if catch_up.ahead.len() == self.config.t() + 1 {
            self.start_catch_up(floor + 1, ctx);
        }
    }

    /// Commits a slot learned through the catch-up protocol (quorum of
    /// matching replies) and persists it like any other commit.
    fn adopt_slot(&mut self, slot: u64, value: SM::Command) {
        if self.obs.is_active() {
            self.obs.record(EventKind::CatchUp {
                slot: slot as u32,
                code: obs_code(&value),
            });
        }
        let outcome = self.log.commit(slot as usize, value.clone());
        debug_assert!(outcome.is_new(), "adoption is guarded by is_committed");
        if outcome.is_new() {
            if let Some(durable) = &mut self.durable {
                durable.log_commit(slot, value);
            }
        }
    }

    /// Asks for the first missing slot now, and keeps asking with backoff
    /// until the committed floor reaches `until`. A loop already running
    /// takes on the later of the two targets and restarts its backoff.
    fn start_catch_up(&mut self, until: u64, ctx: &mut Context<'_, ReplicaMsg<SM::Command>>) {
        self.catch_up.attempt = 0;
        if self.catch_up.active {
            // The loop's tick is in flight and keeps it going.
            self.catch_up.until = self.catch_up.until.max(until);
            let from_slot = self.log.committed_prefix() as u64;
            ctx.broadcast(ReplicaMsg::CatchUpRequest { from_slot });
        } else {
            self.catch_up.until = until;
            self.request_catch_up(ctx);
        }
    }

    /// Broadcasts a catch-up request for the first missing slot and arms
    /// the next backoff timer, unless the floor has reached the loop's
    /// target.
    fn request_catch_up(&mut self, ctx: &mut Context<'_, ReplicaMsg<SM::Command>>) {
        let prefix = self.log.committed_prefix() as u64;
        if prefix >= self.catch_up.until {
            self.catch_up.active = false;
            return;
        }
        self.catch_up.active = true;
        ctx.broadcast(ReplicaMsg::CatchUpRequest { from_slot: prefix });
        let backoff = CATCH_UP_RTO << self.catch_up.attempt.min(CATCH_UP_BACKOFF_CAP);
        self.catch_up.attempt += 1;
        ctx.send_self_after(backoff, ReplicaMsg::CatchUpTick);
    }

    fn on_catch_up_request(
        &mut self,
        from: ProcessId,
        from_slot: u64,
        ctx: &mut Context<'_, ReplicaMsg<SM::Command>>,
    ) {
        if from == self.me {
            return; // own broadcast echo
        }
        let prefix = self.log.committed_prefix() as u64;
        let until = prefix.min(from_slot.saturating_add(CATCH_UP_CHUNK));
        let slots: Vec<(u64, SM::Command)> = (from_slot..until)
            .map(|s| {
                let value = self.log.get(s as usize).expect("within committed prefix");
                (s, value.clone())
            })
            .collect();
        if !slots.is_empty() {
            ctx.send(from, ReplicaMsg::CatchUpReply { slots });
        }
    }

    fn on_catch_up_reply(
        &mut self,
        from: ProcessId,
        slots: &[(u64, SM::Command)],
        ctx: &mut Context<'_, ReplicaMsg<SM::Command>>,
    ) {
        let quorum = self.config.t() + 1;
        let mut adopted = false;
        for (slot, value) in slots {
            if *slot >= self.target_slots || self.log.is_committed(*slot as usize) {
                continue; // bogus, or already witnessed locally
            }
            let vouch_count = {
                let candidates = self.catch_up.replies.entry(*slot).or_default();
                let vouchers = match candidates.iter().position(|(v, _)| v == value) {
                    Some(i) => &mut candidates[i].1,
                    None => {
                        candidates.push((value.clone(), Vec::new()));
                        &mut candidates.last_mut().expect("just pushed").1
                    }
                };
                if !vouchers.contains(&from) {
                    vouchers.push(from);
                }
                vouchers.len()
            };
            if vouch_count >= quorum {
                self.adopt_slot(*slot, value.clone());
                self.catch_up.replies.remove(slot);
                adopted = true;
            }
        }
        if adopted {
            // The loop, if one runs, stops at its next tick.
            self.apply_ready();
            self.propose_due_slots(ctx);
        }
    }

    fn on_catch_up_tick(
        &mut self,
        from: ProcessId,
        ctx: &mut Context<'_, ReplicaMsg<SM::Command>>,
    ) {
        if from != self.me || !self.catch_up.active {
            return; // forged tick, or a tick from before a restart
        }
        if self.catch_up.attempt >= CATCH_UP_MAX_ATTEMPTS {
            // Degrade to fallback: stop the retry loop and let the live
            // per-slot consensus instances fill the remaining gaps.
            self.catch_up.active = false;
            return;
        }
        self.request_catch_up(ctx);
    }

    /// Flushes one slot instance's outbox onto the wire, tagging every
    /// message with its slot. `Dest` is forwarded untouched, so a protocol
    /// broadcast stays a single `Dest::All` slab entry — the zero-clone
    /// multicast fast path survives the slot layer.
    ///
    /// In pipelined mode, UC proposals bound for the coordinator are held
    /// back in the coalescing buffer instead: slots that fall back inside
    /// the same window share one [`ReplicaMsg::UcBatch`] round (flushed by
    /// a 1-tick self timer) rather than paying one message each.
    fn flush_slot(
        &mut self,
        slot: u64,
        mut out: Outbox<SlotMsg<SM::Command>>,
        ctx: &mut Context<'_, ReplicaMsg<SM::Command>>,
    ) {
        for (dest, inner) in out.drain() {
            match (self.agg.as_mut(), dest, inner) {
                (Some(agg), Dest::All, DexMsg::Idb(IdbMessage::Echo { key, value })) => {
                    agg.offer((slot, key), value, ctx.depth().next());
                }
                (_, Dest::To(to), DexMsg::Uc(m))
                    if self.mux.window() > 1 && to == self.coordinator =>
                {
                    self.uc_pending.push((slot, m));
                    if !self.uc_flush_armed {
                        self.uc_flush_armed = true;
                        ctx.send_self_after(1, ReplicaMsg::UcFlushTick);
                    }
                }
                (_, dest, inner) => ctx.send_dest(dest, ReplicaMsg::Slot { slot, inner }),
            }
        }
        if let Some(agg) = self.agg.as_mut() {
            if agg.try_arm() {
                ctx.send_self_after(1, ReplicaMsg::EchoFlushTick);
            }
        }
    }

    /// Ships the per-depth echo batches accumulated since the timer armed.
    fn on_echo_flush_tick(
        &mut self,
        from: ProcessId,
        ctx: &mut Context<'_, ReplicaMsg<SM::Command>>,
    ) {
        if from != self.me {
            return; // forged tick
        }
        // Aggregation off (or a restart raced the timer): `take_batches`
        // on a reset aggregator yields nothing.
        let Some(agg) = self.agg.as_mut() else { return };
        for (depth, entries) in agg.take_batches() {
            self.echoes_coalesced += entries.len() as u64 - 1;
            let entries: Vec<(u64, ProcessId, SM::Command)> = entries
                .into_iter()
                .map(|((slot, origin), value)| (slot, origin, value))
                .collect();
            ctx.send_dest_at(Dest::All, ReplicaMsg::EchoBatch { entries }, depth);
        }
    }

    /// Demultiplexes a coalesced echo batch back into per-slot instances.
    fn on_echo_batch(
        &mut self,
        from: ProcessId,
        entries: &[(u64, ProcessId, SM::Command)],
        ctx: &mut Context<'_, ReplicaMsg<SM::Command>>,
    ) {
        for (slot, origin, value) in entries {
            // Per-slot guards (horizon, retirement, first-echo) all apply
            // exactly as for un-batched echo traffic; the value stays in
            // the batch.
            self.on_slot_msg(from, *slot, SlotInput::Echo(*origin, value), ctx);
        }
    }

    /// Ships the coalesced UC proposals as one batch to the coordinator.
    fn on_uc_flush_tick(
        &mut self,
        from: ProcessId,
        ctx: &mut Context<'_, ReplicaMsg<SM::Command>>,
    ) {
        if from != self.me {
            return; // forged tick
        }
        self.uc_flush_armed = false;
        if self.uc_pending.is_empty() {
            return; // restart raced the timer
        }
        let entries = std::mem::take(&mut self.uc_pending);
        self.uc_coalesced += entries.len() as u64 - 1;
        ctx.send(self.coordinator, ReplicaMsg::UcBatch { entries });
    }

    /// Demultiplexes a coalesced UC batch back into per-slot instances.
    fn on_uc_batch(
        &mut self,
        from: ProcessId,
        entries: &[(u64, OracleMsg<SM::Command>)],
        ctx: &mut Context<'_, ReplicaMsg<SM::Command>>,
    ) {
        for (slot, m) in entries {
            // Per-slot guards (horizon, retirement, oracle authentication)
            // all apply exactly as for un-batched traffic.
            self.on_slot_msg(from, *slot, SlotInput::Msg(&DexMsg::Uc(m.clone())), ctx);
        }
    }

    /// Rebuilds volatile state from the durable store: the unsynced WAL
    /// tail is lost, then snapshot + surviving records re-derive the
    /// committed prefix (and applied machine) exactly as persisted.
    fn restore(&mut self) {
        self.mux.clear();
        self.uc_pending.clear();
        self.uc_flush_armed = false;
        if let Some(agg) = self.agg.as_mut() {
            // Restart amnesia covers the aggregation buffer too: pending
            // echoes die with the crash (resend/catch-up recovers).
            agg.reset();
        }
        self.claimed = 0;
        self.log = ReplicatedLog::new();
        self.machine = SM::default();
        self.paths.clear();
        self.next_to_propose = 0;
        self.catch_up = CatchUpState::default();
        let Some(durable) = &mut self.durable else {
            return; // nothing persisted: cold boot
        };
        let (snapshot, records) = durable.recover();
        if let Some(snap) = snapshot {
            for (i, cmd) in snap.prefix.iter().enumerate() {
                let _ = self.log.commit(i, cmd.clone());
            }
            for _ in 0..snap.prefix.len() {
                self.log.mark_applied();
            }
            self.machine = snap.machine;
        }
        for WalRecord::Commit { slot, value } in records {
            let _ = self.log.commit(slot as usize, value);
        }
        self.apply_ready();
    }
}

impl<SM: StateMachine> Actor for Replica<SM> {
    type Msg = ReplicaMsg<SM::Command>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.propose_due_slots(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        match msg {
            ReplicaMsg::Slot { slot, inner } => {
                self.on_slot_msg(from, *slot, SlotInput::Msg(inner), ctx)
            }
            ReplicaMsg::CatchUpRequest { from_slot } => {
                self.on_catch_up_request(from, *from_slot, ctx)
            }
            ReplicaMsg::CatchUpReply { slots } => self.on_catch_up_reply(from, slots, ctx),
            ReplicaMsg::CatchUpTick => self.on_catch_up_tick(from, ctx),
            ReplicaMsg::UcBatch { entries } => self.on_uc_batch(from, entries, ctx),
            ReplicaMsg::UcFlushTick => self.on_uc_flush_tick(from, ctx),
            ReplicaMsg::EchoBatch { entries } => self.on_echo_batch(from, entries, ctx),
            ReplicaMsg::EchoFlushTick => self.on_echo_flush_tick(from, ctx),
        }
    }

    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        self.obs.active_mut()
    }

    fn msg_bytes(msg: &Self::Msg) -> usize {
        replica_msg_bytes(msg)
    }

    fn msg_class(msg: &Self::Msg) -> MsgClass {
        replica_msg_class(msg)
    }
}

impl<SM: StateMachine> Recoverable for Replica<SM> {
    /// Reboot after a restart-mode crash: wipe volatile state, replay
    /// snapshot + WAL, then re-enter the protocol — resume proposing and
    /// broadcast a catch-up request for whatever the cluster decided while
    /// this replica was down.
    fn restart(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.restarts += 1;
        self.restore();
        if self.obs.is_active() {
            // The recovered prefix, as the checker sees it: one CatchUp
            // event per slot re-derived from disk, validated against the
            // cluster's committed log ("recovered-prefix" invariant).
            for slot in 0..self.target_slots {
                if let Some(value) = self.log.get(slot as usize) {
                    let code = obs_code(value);
                    self.obs.record(EventKind::CatchUp {
                        slot: slot as u32,
                        code,
                    });
                }
            }
        }
        self.propose_due_slots(ctx);
        self.start_catch_up(self.target_slots, ctx);
    }
}

/// A cluster node: a correct [`Replica`], or a Byzantine process that
/// equivocates on the first slots and poisons whatever instances it
/// observes (see [`dex_core::Node`]).
pub type Node<SM> = dex_core::Node<Replica<SM>>;

/// Options for [`run_generic_cluster`].
#[derive(Clone, Debug)]
pub struct GenericClusterOptions<C> {
    /// System size and fault bound (`n > 6t` — replicas run DEX-freq).
    pub config: SystemConfig,
    /// Per-replica client-request queues (index = replica id).
    pub pending: Vec<Vec<C>>,
    /// Number of log slots to commit.
    pub target_slots: u64,
    /// Indices of Byzantine replicas (at most `t`; `0` must stay correct —
    /// it coordinates the oracle fallback).
    pub byzantine: Vec<usize>,
    /// Values the Byzantine replicas equivocate between (ignored when
    /// `byzantine` is empty; must be non-empty otherwise).
    pub byz_values: Vec<C>,
    /// Simulation seed.
    pub seed: u64,
    /// Network fault schedule for the run (defaults to
    /// [`FaultSchedule::none`] — the paper's reliable-link model).
    pub faults: FaultSchedule,
    /// Attach a durable store (in-memory WAL + snapshots) to every correct
    /// replica, so `CrashMode::Restart` windows in `faults` exercise real
    /// snapshot + WAL recovery instead of cold reboots.
    pub durable: bool,
    /// Wrap every node in the `dex-core` resend layer (ack-tracked
    /// retransmission with exponential backoff). Required for liveness
    /// under sustained probabilistic loss; incompatible with restart
    /// crash windows in this runner.
    pub reliable: bool,
    /// Pipeline window `W`: how many slots each replica keeps in flight
    /// concurrently. `1` (the default) is the sequential engine; larger
    /// windows add UC coalescing (see [`Replica::enable_pipelining`]).
    /// Every window recycles retired slot instances.
    pub window: u64,
    /// Coalesce each replica's per-tick `Dest::All` echoes into
    /// [`ReplicaMsg::EchoBatch`] multicasts (see
    /// [`Replica::enable_echo_aggregation`]). Off by default: the wire
    /// protocol stays byte-identical to pre-aggregation builds.
    pub aggregate: bool,
}

impl<C> GenericClusterOptions<C> {
    /// The defaults every pre-existing call site used implicitly: reliable
    /// links, no durability, no resend layer.
    pub fn new(config: SystemConfig, pending: Vec<Vec<C>>, target_slots: u64, seed: u64) -> Self {
        GenericClusterOptions {
            config,
            pending,
            target_slots,
            byzantine: Vec::new(),
            byz_values: Vec::new(),
            seed,
            faults: FaultSchedule::none(),
            durable: false,
            reliable: false,
            window: 1,
            aggregate: false,
        }
    }
}

/// Result of a cluster run, generic over the state machine.
#[derive(Clone, Debug)]
pub struct GenericClusterOutcome<C> {
    /// Committed log prefix per replica (`None` for Byzantine replicas).
    pub logs: Vec<Option<Vec<C>>>,
    /// State digest per replica (`None` for Byzantine replicas).
    pub digests: Vec<Option<u64>>,
    /// Decision paths per replica.
    pub paths: Vec<Vec<SlotPath>>,
    /// Whether the simulation drained.
    pub quiescent: bool,
    /// Virtual time at which the run drained — the denominator of the
    /// committed-values-per-tick throughput metric.
    pub ticks: u64,
    /// Network-layer statistics for the run (multicasts, payload clones,
    /// bytes on wire, …).
    pub net: NetStats,
    /// Per-replica count of recycled slot instances (`0` for Byzantine
    /// replicas).
    pub recycled: Vec<u64>,
    /// Per-replica count of messages saved by UC-batch coalescing.
    pub uc_coalesced: Vec<u64>,
    /// Per-replica count of messages saved by echo aggregation.
    pub echoes_coalesced: Vec<u64>,
}

impl<C: Value> GenericClusterOutcome<C> {
    /// Whether all correct replicas committed the full target prefix with
    /// identical logs and identical state digests.
    pub fn converged(&self) -> bool {
        let mut logs = self.logs.iter().flatten();
        let Some(first) = logs.next() else {
            return false;
        };
        self.quiescent
            && logs.all(|l| l == first)
            && self
                .digests
                .iter()
                .flatten()
                .collect::<std::collections::HashSet<_>>()
                .len()
                == 1
    }

    /// Fraction of slot decisions (across correct replicas) on the
    /// one-step path.
    pub fn one_step_fraction(&self) -> f64 {
        let total: usize = self.paths.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        let one: usize = self
            .paths
            .iter()
            .flatten()
            .filter(|p| p.path == DecisionPath::OneStep)
            .count();
        one as f64 / total as f64
    }
}

/// Builds the nodes of the cluster `options` describes: a [`Replica`] per
/// correct process (durability, pipelining and echo aggregation switched
/// on as the options say; event recording off — callers that trace call
/// [`Replica::enable_obs`] on the result), an `EchoPoison` adversary per
/// Byzantine one. Run them on any runtime and harvest with
/// [`collect_outcome`].
///
/// # Panics
///
/// Panics if the options are inconsistent (pending queues vs `n`, more than
/// `t` Byzantine replicas, replica 0 Byzantine, `n ≤ 6t`, or Byzantine
/// replicas without `byz_values`).
pub fn build_cluster<SM: StateMachine>(
    options: &GenericClusterOptions<SM::Command>,
) -> Vec<Node<SM>> {
    let cfg = options.config;
    assert!(
        cfg.supports_frequency_pair(),
        "replicas run DEX-freq: n > 6t"
    );
    assert_eq!(options.pending.len(), cfg.n(), "one queue per replica");
    assert!(options.byzantine.len() <= cfg.t(), "at most t Byzantine");
    assert!(!options.byzantine.contains(&0), "p0 coordinates the oracle");
    assert!(
        options.byzantine.is_empty() || !options.byz_values.is_empty(),
        "byzantine replicas need values to push"
    );

    options
        .pending
        .iter()
        .enumerate()
        .map(|(i, queue)| {
            if options.byzantine.contains(&i) {
                Node::Byz(ByzantineActor::new(ByzantineStrategy::EchoPoison {
                    values: options.byz_values.clone(),
                }))
            } else {
                let mut replica = Replica::new(
                    cfg,
                    ProcessId::new(i),
                    ProcessId::new(0),
                    queue.clone(),
                    options.target_slots,
                );
                if options.durable {
                    replica.enable_durability(Durability::mem(DEFAULT_SNAPSHOT_EVERY));
                }
                replica.enable_pipelining(options.window);
                if options.aggregate {
                    replica.enable_echo_aggregation();
                }
                Node::Correct(replica)
            }
        })
        .collect()
}

/// Builds ([`build_cluster`]) and runs a cluster of `Replica<SM>` to
/// quiescence (or the event budget) under the configured fault schedule.
///
/// # Panics
///
/// Panics where [`build_cluster`] does, or if a correct replica fails to
/// commit the full prefix (a liveness bug).
pub fn run_generic_cluster<SM: StateMachine>(
    options: GenericClusterOptions<SM::Command>,
) -> GenericClusterOutcome<SM::Command> {
    let nodes = build_cluster::<SM>(&options);
    if options.reliable {
        // The resend layer changes the wire type, so this arm builds its
        // own simulation; restart hooks are not threaded through the
        // wrapper (use `durable` + restart windows on the plain arm).
        let wrapped: Vec<Reliable<Node<SM>>> = nodes
            .into_iter()
            .map(|n| Reliable::new(n, ResendPolicy::default()))
            .collect();
        let mut sim = Simulation::builder(wrapped)
            .seed(options.seed)
            .delay(DelayModel::Uniform { min: 1, max: 10 })
            .faults(options.faults.clone())
            .build();
        let run = sim.run(50_000_000);
        let quiescent = run.quiescent;
        let ticks = run.ended_at.as_units();
        let net = sim.stats().clone();
        collect_outcome(
            sim.actors().iter().map(Reliable::inner),
            &options,
            quiescent,
            ticks,
            net,
        )
    } else {
        let mut sim = Simulation::builder(nodes)
            .seed(options.seed)
            .delay(DelayModel::Uniform { min: 1, max: 10 })
            .faults(options.faults.clone())
            .recoverable()
            .build();
        let run = sim.run(50_000_000);
        let quiescent = run.quiescent;
        let ticks = run.ended_at.as_units();
        let net = sim.stats().clone();
        collect_outcome(sim.actors().iter(), &options, quiescent, ticks, net)
    }
}

/// Snapshot cadence (applied slots between snapshots) used by
/// [`run_generic_cluster`] when `durable` is set.
const DEFAULT_SNAPSHOT_EVERY: usize = 4;

/// Harvests a finished run of [`build_cluster`]'s nodes: logs, digests,
/// decision paths and per-replica counters, in process order.
///
/// # Panics
///
/// Panics if a correct replica stopped short of the target prefix.
pub fn collect_outcome<'a, SM: StateMachine>(
    nodes: impl Iterator<Item = &'a Node<SM>>,
    options: &GenericClusterOptions<SM::Command>,
    quiescent: bool,
    ticks: u64,
    net: NetStats,
) -> GenericClusterOutcome<SM::Command> {
    let mut logs = Vec::new();
    let mut digests = Vec::new();
    let mut paths = Vec::new();
    let mut recycled = Vec::new();
    let mut uc_coalesced = Vec::new();
    let mut echoes_coalesced = Vec::new();
    for node in nodes {
        match node {
            Node::Correct(r) => {
                assert_eq!(
                    r.log().committed_prefix(),
                    options.target_slots as usize,
                    "replica {} missed slots",
                    r.me
                );
                logs.push(Some(r.log().prefix()));
                digests.push(Some(r.machine().digest()));
                paths.push(r.paths().to_vec());
                recycled.push(r.mux().recycled());
                uc_coalesced.push(r.uc_coalesced());
                echoes_coalesced.push(r.echoes_coalesced());
            }
            Node::Byz(_) => {
                logs.push(None);
                digests.push(None);
                paths.push(Vec::new());
                recycled.push(0);
                uc_coalesced.push(0);
                echoes_coalesced.push(0);
            }
        }
    }
    GenericClusterOutcome {
        logs,
        digests,
        paths,
        quiescent,
        ticks,
        net,
        recycled,
        uc_coalesced,
        echoes_coalesced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::TotalOrder;
    use crate::Command;

    fn cfg() -> SystemConfig {
        SystemConfig::new(7, 1).unwrap()
    }

    #[test]
    fn durable_restart_replays_disk_and_catches_up() {
        // Replica 3 crashes with amnesia at t = 40 and reboots at t = 4000,
        // long after the survivors finished every slot. Recovery = WAL +
        // snapshot replay for what it had, catch-up quorum for the rest.
        let outcome = run_generic_cluster::<crate::KvStore>(GenericClusterOptions {
            faults: FaultSchedule::none().crash_restart(ProcessId::new(3), 40, 4_000),
            durable: true,
            ..GenericClusterOptions::new(
                cfg(),
                vec![vec![Command::put(1, 10), Command::put(2, 20), Command::add(1, 7)]; 7],
                6,
                9,
            )
        });
        assert!(outcome.converged(), "{:?}", outcome.logs);
    }

    #[test]
    fn cold_restart_catches_up_from_peers_alone() {
        // No durable store at all: the reboot starts from nothing and the
        // catch-up protocol must deliver the entire prefix by itself.
        let outcome = run_generic_cluster::<TotalOrder<u64>>(GenericClusterOptions {
            faults: FaultSchedule::none().crash_restart(ProcessId::new(5), 10, 3_000),
            durable: false,
            ..GenericClusterOptions::new(cfg(), vec![vec![41, 42]; 7], 4, 12)
        });
        assert!(outcome.converged(), "{:?}", outcome.logs);
    }

    #[test]
    fn byzantine_catch_up_lies_cannot_poison_recovery() {
        // f = t: the Byzantine replica answers every CatchUpRequest with a
        // forged prefix. Adoption needs t + 1 matching replies, so the lie
        // never reaches the log and the poison values never appear.
        for seed in [2, 7, 21] {
            let outcome = run_generic_cluster::<TotalOrder<u64>>(GenericClusterOptions {
                byzantine: vec![6],
                byz_values: vec![666, 999],
                faults: FaultSchedule::none().crash_restart(ProcessId::new(2), 30, 5_000),
                durable: true,
                ..GenericClusterOptions::new(cfg(), vec![vec![701, 702]; 7], 4, seed)
            });
            assert!(outcome.converged(), "seed {seed}: {:?}", outcome.logs);
            for cmd in outcome.logs.iter().flatten().flatten() {
                assert!(*cmd != 666 && *cmd != 999, "poison committed: {cmd}");
            }
        }
    }

    #[test]
    fn traced_restart_run_passes_recovered_prefix_checks() {
        // Recording on, snapshots every 2 slots: the victim's post-restart
        // CatchUp events must match what the cluster committed — the
        // checker's "recovered-prefix" invariant, driven end to end.
        let victim = 3usize;
        let queue = vec![
            Command::put(5, 50),
            Command::put(6, 60),
            Command::put(7, 70),
        ];
        let mut nodes = build_cluster::<crate::KvStore>(&GenericClusterOptions::new(
            cfg(),
            vec![queue; 7],
            3,
            17,
        ));
        for node in &mut nodes {
            let Node::Correct(r) = node else {
                unreachable!()
            };
            r.enable_durability(Durability::mem(2));
            r.enable_obs();
        }
        let mut sim = Simulation::builder(nodes)
            .seed(17)
            .delay(DelayModel::Uniform { min: 1, max: 10 })
            .faults(FaultSchedule::none().crash_restart(ProcessId::new(victim), 40, 5_000))
            .recoverable()
            .build();
        assert!(sim.run(50_000_000).quiescent);
        for node in sim.actors() {
            let Node::Correct(r) = node else {
                unreachable!()
            };
            assert_eq!(r.log().committed_prefix(), 3, "replica {} short", r.me());
        }
        let Node::Correct(victim_replica) = &sim.actors()[victim] else {
            unreachable!()
        };
        assert_eq!(victim_replica.restarts(), 1, "the reboot hook must run");

        let processes: Vec<dex_obs::ProcessTrace> = sim
            .actors()
            .iter()
            .map(|node| {
                let Node::Correct(r) = node else {
                    unreachable!()
                };
                r.obs().trace()
            })
            .collect();
        let run = dex_obs::RunTrace {
            meta: dex_obs::TraceMeta {
                seed: 17,
                n: 7,
                t: 1,
                algo: "replication".to_string(),
                rules: dex_obs::SchemeRules::Opaque,
                faulty: Vec::new(),
                legend: Vec::new(),
                chaos: Some(dex_obs::ChaosMeta {
                    last_heal: 5_000,
                    eventually_clean: false,
                    crashes: vec![(victim as u16, 40, Some(5_000))],
                }),
                pipeline: None,
            },
            processes,
        };
        let report = dex_obs::check(&run);
        assert!(report.is_ok(), "{:?}", report.violations);
        let recovered = report
            .checks
            .iter()
            .find(|(name, _)| *name == "recovered-prefix")
            .map(|(_, count)| *count)
            .unwrap();
        assert!(recovered > 0, "restart must re-derive committed slots");
    }

    #[test]
    fn sustained_loss_starves_without_resend_and_converges_with_it() {
        // Every link drops 25% of traffic for the whole run. Plain runs
        // lose protocol messages for good and (at least one replica) never
        // completes the prefix; wrapping the cluster in the dex-core
        // resend layer restores liveness with the very same seed.
        let options = GenericClusterOptions {
            faults: FaultSchedule::none().lossy_link(None, None, 0.25, 0.0),
            ..GenericClusterOptions::new(cfg(), vec![vec![81u64, 82]; 7], 3, 31)
        };
        let starved =
            std::panic::catch_unwind(|| run_generic_cluster::<TotalOrder<u64>>(options.clone()))
                .expect_err("25% loss without retransmission must starve");
        let why = starved.downcast_ref::<String>().expect("panic message");
        assert!(why.contains("missed slots"), "{why}");

        let reliable = run_generic_cluster::<TotalOrder<u64>>(GenericClusterOptions {
            reliable: true,
            ..options
        });
        assert!(reliable.converged(), "{:?}", reliable.logs);
    }

    #[test]
    fn total_order_broadcast_delivers_identically() {
        // Atomic broadcast: arbitrary u64 payloads, every correct replica
        // delivers the same sequence.
        let payloads: Vec<u64> = vec![901, 902, 903, 904];
        let pending: Vec<Vec<u64>> = (0..7)
            .map(|i| {
                let mut p = payloads.clone();
                let len = p.len();
                p.rotate_left(i % len);
                p
            })
            .collect();
        for seed in 0..5 {
            let outcome = run_generic_cluster::<TotalOrder<u64>>(GenericClusterOptions {
                byzantine: vec![6],
                byz_values: vec![666, 999],
                ..GenericClusterOptions::new(cfg(), pending.clone(), 4, seed)
            });
            assert!(outcome.converged(), "seed {seed}: {:?}", outcome.logs);
            let delivered = outcome.logs[0].clone().unwrap();
            assert_eq!(delivered.len(), 4);
            for p in &delivered {
                assert!(payloads.contains(p) || *p == 0, "foreign payload {p}");
            }
        }
    }

    #[test]
    fn traced_cluster_passes_log_agreement_checks() {
        // The runner keeps recording off for the measurement paths:
        // build, switch it on, run.
        let mut nodes = build_cluster::<crate::KvStore>(&GenericClusterOptions::new(
            cfg(),
            vec![vec![Command::put(5, 50), Command::put(6, 60)]; 7],
            2,
            11,
        ));
        for node in &mut nodes {
            if let Node::Correct(r) = node {
                r.enable_obs();
            }
        }
        let mut sim = Simulation::builder(nodes)
            .seed(11)
            .delay(DelayModel::Uniform { min: 1, max: 10 })
            .build();
        assert!(sim.run(50_000_000).quiescent);
        let processes: Vec<dex_obs::ProcessTrace> = sim
            .actors()
            .iter()
            .map(|node| match node {
                Node::Correct(r) => r.obs().trace(),
                Node::Byz(_) => unreachable!(),
            })
            .collect();
        assert!(processes.iter().all(|p| !p.events.is_empty()));
        let run = dex_obs::RunTrace {
            meta: dex_obs::TraceMeta {
                seed: 11,
                n: 7,
                t: 1,
                algo: "replication".to_string(),
                rules: dex_obs::SchemeRules::Opaque,
                faulty: Vec::new(),
                legend: Vec::new(),
                chaos: None,
                pipeline: None,
            },
            processes,
        };
        let report = dex_obs::check(&run);
        assert!(report.is_ok(), "{:?}", report.violations);
        let log_checks = report
            .checks
            .iter()
            .find(|(name, _)| *name == "log-agreement")
            .map(|(_, count)| *count)
            .unwrap();
        assert!(log_checks > 0, "commit events must drive log-agreement");
    }

    #[test]
    fn aggregated_cluster_converges_with_fewer_messages() {
        // Same workload, same seeds, aggregation off vs on (composed with
        // a pipeline window so several slots flood echoes concurrently):
        // both converge to identical logs within each run, and the
        // aggregated run ships strictly fewer messages.
        for seed in [3, 19] {
            let base =
                GenericClusterOptions::new(cfg(), vec![vec![501u64, 502, 503, 504]; 7], 4, seed);
            let plain = run_generic_cluster::<TotalOrder<u64>>(GenericClusterOptions {
                window: 4,
                ..base.clone()
            });
            let agg = run_generic_cluster::<TotalOrder<u64>>(GenericClusterOptions {
                window: 4,
                aggregate: true,
                ..base
            });
            assert!(plain.converged(), "seed {seed}: {:?}", plain.logs);
            assert!(agg.converged(), "seed {seed}: {:?}", agg.logs);
            assert!(
                agg.net.sent < plain.net.sent,
                "seed {seed}: aggregation must cut traffic ({} vs {})",
                agg.net.sent,
                plain.net.sent
            );
            assert!(agg.net.echoes_batched > 0, "seed {seed}");
            assert!(
                agg.echoes_coalesced.iter().sum::<u64>() > 0,
                "seed {seed}: correct replicas must coalesce echoes"
            );
            assert_eq!(agg.net.payload_clones, 0, "seed {seed}");
            // Aggregation diverts every Dest::All echo into batches.
            assert_eq!(agg.net.sent_echo, 0, "seed {seed}");
        }
    }

    #[test]
    fn resend_layer_carries_aggregated_echo_batches() {
        // Two replicas swap their first two requests, so some slots are
        // contested. Aggregation flushes its echo batches at an explicit
        // depth (`send_dest_at`); the resend layer must wrap and send those
        // too, or no echo ever leaves and no slot commits.
        let mut pending = vec![vec![501u64, 502, 503, 504]; 7];
        pending[5].swap(0, 1);
        pending[6].swap(0, 1);
        let base = GenericClusterOptions::new(cfg(), pending, 4, 3);
        for (reliable, aggregate) in [(true, false), (false, true), (true, true)] {
            let outcome = run_generic_cluster::<TotalOrder<u64>>(GenericClusterOptions {
                reliable,
                aggregate,
                ..base.clone()
            });
            let at = format!("reliable {reliable}, aggregate {aggregate}");
            assert!(outcome.converged(), "{at}: {:?}", outcome.logs);
            let paths = outcome.paths.iter().flatten();
            let one = paths.filter(|p| p.path == DecisionPath::OneStep).count();
            assert_eq!(one, 21, "{at}");
            let coalesced: u64 = outcome.echoes_coalesced.iter().sum();
            assert_eq!(coalesced > 0, aggregate, "{at}");
        }
    }

    #[test]
    fn aggregated_cluster_recovers_through_restart() {
        // Restart amnesia must cover the aggregation buffer: the victim's
        // pending echoes die with the crash, recovery proceeds via WAL +
        // catch-up exactly as without aggregation.
        let outcome = run_generic_cluster::<TotalOrder<u64>>(GenericClusterOptions {
            faults: FaultSchedule::none().crash_restart(ProcessId::new(4), 30, 4_000),
            durable: true,
            window: 2,
            aggregate: true,
            ..GenericClusterOptions::new(cfg(), vec![vec![601u64, 602]; 7], 3, 23)
        });
        assert!(outcome.converged(), "{:?}", outcome.logs);
    }

    #[test]
    fn uncontended_kv_cluster_commits_on_the_fast_path() {
        let requests = vec![Command::put(1, 10), Command::add(1, 5), Command::delete(2)];
        let outcome = run_generic_cluster::<crate::KvStore>(GenericClusterOptions::new(
            cfg(),
            vec![requests.clone(); 7],
            3,
            42,
        ));
        assert!(outcome.converged());
        assert_eq!(outcome.logs[0].clone().unwrap(), requests);
        // Identical queues ⇒ unanimous proposals ⇒ all one-step.
        assert_eq!(outcome.one_step_fraction(), 1.0);
    }

    #[test]
    fn contended_kv_cluster_still_converges() {
        // Every replica observed the requests in a different order.
        let base = [
            Command::put(1, 10),
            Command::put(2, 20),
            Command::add(1, 1),
            Command::delete(2),
        ];
        let pending: Vec<Vec<Command>> = (0..7)
            .map(|i| {
                let mut v = base.to_vec();
                v.rotate_left(i % base.len());
                v
            })
            .collect();
        for seed in 0..5 {
            let outcome = run_generic_cluster::<crate::KvStore>(GenericClusterOptions::new(
                cfg(),
                pending.clone(),
                4,
                seed,
            ));
            assert!(outcome.converged(), "seed {seed}");
        }
    }

    #[test]
    fn byzantine_kv_replica_cannot_diverge_the_cluster() {
        let requests = vec![Command::put(1, 1), Command::put(2, 2), Command::put(3, 3)];
        let poison = [Command::put(666, 666), Command::put(999, 999)];
        for seed in 0..5 {
            let outcome = run_generic_cluster::<crate::KvStore>(GenericClusterOptions {
                byzantine: vec![6],
                byz_values: poison.to_vec(),
                ..GenericClusterOptions::new(cfg(), vec![requests.clone(); 7], 3, seed)
            });
            assert!(outcome.converged(), "seed {seed}");
            // The forged commands never enter the log: they are only ever
            // proposed by the Byzantine replica.
            let log = outcome.logs[0].clone().unwrap();
            assert!(
                !log.iter().any(|c| poison.contains(c)),
                "seed {seed}: {log:?}"
            );
        }
    }

    /// Runs the durable n = 13 log `chaoslog-n13` runs, at window 1 or
    /// `window`: an `EchoPoison` replica, replica 3 down from tick 30 to
    /// tick 300 and client queues that each see adjacent pairs swapped, so
    /// slots take all three decision paths and the restarted replica
    /// catches up on slots its peers have retired. Checks that the log is
    /// the client values, each once, and returns each correct replica's
    /// `(id, instances allocated, instances recycled, restarts)`.
    fn run_swapped_log(slots: u64, window: u64, seed: u64) -> Vec<(ProcessId, u64, u64, u32)> {
        let config = SystemConfig::new(13, 2).unwrap();
        let stream: Vec<u64> = (1..=slots).collect();
        let pending: Vec<Vec<u64>> = (0..config.n())
            .map(|i| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1000 + i as u64);
                let mut queue = stream.clone();
                let mut at = 0;
                while at + 1 < queue.len() {
                    if rng.random_bool(0.2) {
                        queue.swap(at, at + 1);
                        at += 2;
                    } else {
                        at += 1;
                    }
                }
                queue
            })
            .collect();
        let options = GenericClusterOptions {
            durable: true,
            byzantine: vec![12],
            byz_values: vec![u64::MAX, u64::MAX - 1],
            faults: FaultSchedule::none().crash_restart(ProcessId::new(3), 30, 300),
            window,
            ..GenericClusterOptions::new(config, pending, slots, seed)
        };
        let mut sim = Simulation::builder(build_cluster::<TotalOrder<u64>>(&options))
            .seed(seed)
            .delay(DelayModel::Uniform { min: 1, max: 10 })
            .faults(options.faults.clone())
            .recoverable()
            .build();
        let run = sim.run(50_000_000);
        let outcome = collect_outcome(
            sim.actors().iter(),
            &options,
            run.quiescent,
            run.ended_at.as_units(),
            sim.stats().clone(),
        );
        assert!(outcome.converged(), "seed {seed}");
        let mut committed: Vec<u64> = outcome.logs[0]
            .iter()
            .flatten()
            .copied()
            .filter(|v| *v != 0)
            .collect();
        committed.sort_unstable();
        assert_eq!(committed, stream, "seed {seed}: each client value once");
        sim.actors()
            .iter()
            .filter_map(|node| match node {
                Node::Correct(r) => Some((
                    r.me(),
                    r.mux().allocated(),
                    r.mux().recycled(),
                    r.restarts(),
                )),
                Node::Byz(_) => None,
            })
            .collect()
    }

    #[test]
    fn sequential_replicas_keep_a_bounded_set_of_slot_instances() {
        // At seed 8 a replica's slot falls back to the underlying
        // consensus after its peers retired it: only the catch-up request
        // `note_proposal` sends completes it.
        let slots = 300;
        for seed in [7401, 8] {
            for (me, allocated, recycled, restarts) in run_swapped_log(slots, 1, seed) {
                // Slot s retires once the floor passes s + 1, so each
                // incarnation of a replica allocates a handful of
                // instances around its open slot: never one per slot.
                let bound = 8 * (1 + u64::from(restarts));
                assert!(
                    allocated <= bound,
                    "seed {seed}: replica {me} allocated {allocated} instances for {slots} slots"
                );
                assert!(recycled > 0);
            }
        }
    }

    #[test]
    fn a_stall_in_the_last_two_windows_of_the_log_still_converges() {
        // At 300 slots, seeds 77, 138 and 180 each stall one replica at
        // slot 49 until `note_proposal` asks for it. Cut after slot 50,
        // the log puts that slot second to last, where no peer proposes
        // two windows past it: only the live instances the peers keep in
        // the log's last two windows finish it (each seed leaves a
        // replica short of the log when those retire too).
        for seed in [77, 138, 180] {
            run_swapped_log(51, 1, seed);
        }
    }

    /// Delivers `msg` from `from` to `replica` and returns what it sent:
    /// catch-up requests (their `from_slot`) and armed timer delays.
    fn deliver(
        replica: &mut Replica<TotalOrder<u64>>,
        from: usize,
        msg: ReplicaMsg<u64>,
    ) -> (Vec<u64>, Vec<u64>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut ctx = Context::external(
            replica.me(),
            replica.config.n(),
            dex_simnet::Time::ZERO,
            StepDepth::ZERO,
            &mut rng,
        );
        replica.on_message(ProcessId::new(from), &msg, &mut ctx);
        let asked = ctx
            .take_outbox()
            .into_iter()
            .filter_map(|(_, m, _)| match m {
                ReplicaMsg::CatchUpRequest { from_slot } => Some(from_slot),
                _ => None,
            })
            .collect();
        let delays = ctx.take_timers().into_iter().map(|(d, _)| d).collect();
        (asked, delays)
    }

    #[test]
    fn a_stall_starts_its_own_catch_up_loop_which_stops_at_the_stalled_slot() {
        let mut r = Replica::<TotalOrder<u64>>::new(
            cfg(),
            ProcessId::new(1),
            ProcessId::new(0),
            vec![7],
            20,
        );
        let proposal = |slot| ReplicaMsg::Slot {
            slot,
            inner: DexMsg::Proposal(9),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut ctx = Context::external(
            ProcessId::new(1),
            7,
            dex_simnet::Time::ZERO,
            StepDepth::ZERO,
            &mut rng,
        );
        // A restart's loop that went unanswered to the end.
        r.restart(&mut ctx);
        for _ in 0..CATCH_UP_MAX_ATTEMPTS {
            deliver(&mut r, 1, ReplicaMsg::CatchUpTick);
        }
        assert!(!r.catch_up.active, "the retry budget ran out");
        // Slot 2 is two windows past the floor: one proposer could be
        // Byzantine, the second (t + 1 = 2) proves slot 0 retired.
        assert_eq!(deliver(&mut r, 2, proposal(2)), (vec![], vec![]));
        assert_eq!(
            deliver(&mut r, 3, proposal(2)),
            (vec![0], vec![CATCH_UP_RTO])
        );
        // Further proof of the same stall asks nothing more.
        assert_eq!(deliver(&mut r, 4, proposal(3)), (vec![], vec![]));
        // An earlier backoff does not delay the next request.
        let (asked, delays) = deliver(&mut r, 1, ReplicaMsg::CatchUpTick);
        assert_eq!((asked, delays), (vec![0], vec![CATCH_UP_RTO << 1]));
        // Slot 0 adopted from t + 1 matching replies: the next tick ends
        // the loop, though slots 1 to 19 are still missing.
        for from in [2, 3] {
            let reply = ReplicaMsg::CatchUpReply {
                slots: vec![(0, 7)],
            };
            deliver(&mut r, from, reply);
        }
        assert_eq!(r.log().committed_prefix(), 1);
        assert_eq!(
            deliver(&mut r, 1, ReplicaMsg::CatchUpTick),
            (vec![], vec![])
        );
        assert!(!r.catch_up.active);
        // A stall at the new floor asks again at once.
        deliver(&mut r, 2, proposal(3));
        assert_eq!(deliver(&mut r, 3, proposal(3)).0, vec![1]);
    }

    #[test]
    fn empty_kv_queues_fill_slots_with_noops() {
        let outcome = run_generic_cluster::<crate::KvStore>(GenericClusterOptions::new(
            cfg(),
            vec![vec![]; 7],
            2,
            7,
        ));
        assert!(outcome.converged());
        assert_eq!(
            outcome.logs[0].clone().unwrap(),
            vec![Command::Noop, Command::Noop]
        );
    }
}
