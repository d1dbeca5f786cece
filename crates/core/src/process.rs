//! The DEX state machine (Fig. 1), transport-agnostic.

use dex_broadcast::{IdbMessage, IdenticalBroadcast};
use dex_conditions::{DecisionGate, LegalityPair};
use dex_obs::{obs_code, EventKind, PredTag, Recorder, Scheme, ViewTag};
use dex_types::{Decision, DecisionPath, ProcessId, SystemConfig, Value, View};
use dex_underlying::{Outbox, UnderlyingConsensus};
use rand::rngs::StdRng;

/// Wire messages of Algorithm DEX.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DexMsg<V, U> {
    /// `P-Send(v)` — the one-step channel (lines 3, 5).
    Proposal(V),
    /// `Id-Send(v)` traffic — the two-step channel (lines 4, 10).
    Idb(IdbMessage<ProcessId, V>),
    /// Underlying-consensus traffic (lines 13, 19).
    Uc(U),
    /// Aggregated IDB echoes: every `(origin, value)` echo this sender
    /// coalesced within one delivery tick, multicast as one message over
    /// the `Dest::All` slab path. Receivers unbatch in entry order, so the
    /// delivered-echo multiset equals the unbatched protocol's exactly
    /// (see `dex_broadcast::EchoAggregator`). Only sent when aggregation
    /// is enabled on the actor.
    EchoBatch(Vec<(ProcessId, V)>),
    /// Local flush timer for the echo aggregator: not protocol traffic,
    /// never crosses a network link (self-addressed with delay 1).
    EchoFlushTick,
}

/// One process's DEX state machine.
///
/// Fig. 1 of the paper, line by line. The machine keeps participating after
/// deciding (echoing IDB messages, running the underlying consensus) so that
/// *other* correct processes can terminate — only the local `Decide` is
/// guarded by the `decided_i` flag.
#[derive(Debug)]
pub struct DexProcess<V, P, U>
where
    U: UnderlyingConsensus<V>,
    V: Value,
{
    config: SystemConfig,
    me: ProcessId,
    pair: P,
    idb: IdenticalBroadcast<ProcessId, V>,
    uc: U,
    j1: View<V>,
    j2: View<V>,
    /// Watermark gate for `P1(J1)` — sound because `J1` is grow-only
    /// (first value wins, entries never cleared).
    p1_gate: DecisionGate,
    /// Watermark gate for `P2(J2)` — sound because IDB agreement makes
    /// `J2` grow-only too.
    p2_gate: DecisionGate,
    /// Reusable buffer for underlying-consensus output, so each UC step
    /// wraps messages without allocating a fresh outbox.
    uc_out: Outbox<U::Msg>,
    decided: Option<Decision<V>>,
    proposed: bool,
    uc_proposed: bool,
    /// Structured-event recorder (disabled by default: one branch per
    /// call site, no storage). See `dex-obs`.
    obs: Recorder,
}

/// Builds a `Predicate` event carrying the tally snapshot the evaluation
/// saw — what lets the trace checker cross-validate its replay against the
/// live views.
fn predicate_snapshot<V: Value>(pred: PredTag, held: bool, view: &View<V>) -> EventKind {
    let (top_count, top_code) = view
        .first_with_count()
        .map(|(v, c)| (c as u16, obs_code(v)))
        .unwrap_or((0, 0));
    let second_count = view.second_with_count().map(|(_, c)| c as u16).unwrap_or(0);
    EventKind::Predicate {
        pred,
        held,
        len: view.len_non_default() as u16,
        top_count,
        second_count,
        top_code,
    }
}

impl<V, P, U> DexProcess<V, P, U>
where
    V: Value,
    P: LegalityPair<V>,
    U: UnderlyingConsensus<V>,
{
    /// Creates one process's instance.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 4t` (needed by the embedded Identical Broadcast).
    /// The legality pair's own constructor enforces its stronger bound
    /// (`n > 6t` for `P_freq`, `n > 5t` for `P_prv`).
    pub fn new(config: SystemConfig, me: ProcessId, pair: P, uc: U) -> Self {
        DexProcess {
            config,
            me,
            pair,
            idb: IdenticalBroadcast::new(config),
            uc,
            j1: View::bottom(config.n()),
            j2: View::bottom(config.n()),
            p1_gate: DecisionGate::new(config.quorum()),
            p2_gate: DecisionGate::new(config.quorum()),
            uc_out: Outbox::new(),
            decided: None,
            proposed: false,
            uc_proposed: false,
            obs: Recorder::disabled(),
        }
    }

    /// Resets the machine in place for a fresh consensus instance, reusing
    /// every allocation the previous instance grew: the `J1`/`J2` view
    /// buffers and their value tables, the IDB instance table (one entry
    /// per origin) and witness table, and the UC forwarding outbox all keep
    /// their capacity — a recycled slot frees and reallocates nothing. The
    /// caller supplies a fresh underlying-consensus machine (its state is
    /// tiny compared to the tallies) and takes back the old one.
    ///
    /// This is the slot-recycling hook for pipelined replication: instead
    /// of allocating one `DexProcess` per log slot, a replica keeps a small
    /// pool and recycles machines as decided slots retire.
    pub fn recycle(&mut self, uc: U) -> U {
        self.idb.reset();
        self.j1.reset();
        self.j2.reset();
        self.p1_gate.reset(self.config.quorum());
        self.p2_gate.reset(self.config.quorum());
        self.uc_out.drain_iter().for_each(drop);
        self.decided = None;
        self.proposed = false;
        self.uc_proposed = false;
        std::mem::replace(&mut self.uc, uc)
    }

    /// Turns on structured event recording for this process (preallocates
    /// the log's first chunk; see `dex-obs`).
    pub fn enable_obs(&mut self) {
        self.obs = Recorder::new(self.me.index() as u16);
    }

    /// The structured-event recorder (disabled unless
    /// [`enable_obs`](Self::enable_obs) was called).
    pub fn obs(&self) -> &Recorder {
        &self.obs
    }

    /// Mutable access to the recorder, for the network runtime's clock
    /// stamping and send/deliver recording.
    pub fn obs_mut(&mut self) -> &mut Recorder {
        &mut self.obs
    }

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The one-step view `J1` (for diagnostics).
    pub fn j1(&self) -> &View<V> {
        &self.j1
    }

    /// The two-step view `J2` (for diagnostics).
    pub fn j2(&self) -> &View<V> {
        &self.j2
    }

    /// The local decision, if any.
    pub fn decision(&self) -> Option<&Decision<V>> {
        self.decided.as_ref()
    }

    /// Whether this process has proposed to the underlying consensus yet.
    pub fn uc_proposed(&self) -> bool {
        self.uc_proposed
    }

    /// `Propose(v_i)` — lines 1–4: record the own value in both views and
    /// send it over both channels.
    pub fn propose(&mut self, value: V, _rng: &mut StdRng, out: &mut Outbox<DexMsg<V, U::Msg>>) {
        if self.proposed {
            return;
        }
        self.proposed = true;
        self.j1.set(self.me, &value); // line 2
        self.j2.set(self.me, &value);
        if self.obs.is_active() {
            let me = self.me.index() as u16;
            let code = obs_code(&value);
            self.obs.record(EventKind::ViewSet {
                view: ViewTag::J1,
                origin: me,
                code,
            });
            self.obs.record(EventKind::ViewSet {
                view: ViewTag::J2,
                origin: me,
                code,
            });
            self.obs.record(EventKind::IdbInit { origin: me, code });
        }
        out.broadcast(DexMsg::Proposal(value.clone())); // line 3: P-Send
        out.broadcast(DexMsg::Idb(IdenticalBroadcast::id_send(self.me, value)));
        // line 4: Id-Send
    }

    /// Feeds one received message; returns a newly made decision, if this
    /// message triggered one.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: &DexMsg<V, U::Msg>,
        rng: &mut StdRng,
        out: &mut Outbox<DexMsg<V, U::Msg>>,
    ) -> Option<Decision<V>> {
        match msg {
            DexMsg::Proposal(v) => self.on_proposal(from, v),
            DexMsg::Idb(m) => self.on_idb(from, m, rng, out),
            DexMsg::Uc(m) => self.on_uc(from, m, rng, out),
            // Aggregation plumbing is handled one layer up: the actor
            // demuxes a batch into per-entry `on_echo` calls and consumes
            // flush ticks locally, so the state machine never sees either.
            DexMsg::EchoBatch(_) | DexMsg::EchoFlushTick => None,
        }
    }

    /// Lines 5–9: update `J1`, then try the one-step decision.
    fn on_proposal(&mut self, from: ProcessId, v: &V) -> Option<Decision<V>> {
        // First value wins: a Byzantine process may P-Send repeatedly with
        // different values; re-writing the entry would let it steer the view
        // after we have evaluated predicates on it.
        if self.j1.get(from).is_none() {
            if self.obs.is_active() {
                self.obs.record(EventKind::ViewSet {
                    view: ViewTag::J1,
                    origin: from.index() as u16,
                    code: obs_code(v),
                });
            }
            self.j1.set(from, v);
        }
        // Line 7's adaptive re-check, gated: the gate skips the predicate
        // until |J1| ≥ n − t and, after each failed test, until the tally
        // has grown enough that P1 could possibly flip.
        if self.decided.is_none() {
            let fired = self.p1_gate.try_p1(&self.pair, &self.j1);
            if self.obs.is_active() && self.j1.len_non_default() >= self.config.quorum() {
                self.obs
                    .record(predicate_snapshot(PredTag::P1, fired, &self.j1));
            }
            if fired {
                let value = self
                    .pair
                    .decide(&self.j1)
                    .expect("J1 has at least n - t entries");
                self.obs.record(EventKind::Decide {
                    scheme: Scheme::OneStep,
                    code: obs_code(&value),
                });
                let d = Decision {
                    value,
                    path: DecisionPath::OneStep,
                };
                self.decided = Some(d.clone());
                return Some(d);
            }
        }
        None
    }

    /// Lines 10–18: route IDB traffic.
    fn on_idb(
        &mut self,
        from: ProcessId,
        msg: &IdbMessage<ProcessId, V>,
        rng: &mut StdRng,
        out: &mut Outbox<DexMsg<V, U::Msg>>,
    ) -> Option<Decision<V>> {
        match msg {
            IdbMessage::Init { key, value } => {
                if self.obs.is_active() {
                    self.obs.record(EventKind::IdbInit {
                        origin: key.index() as u16,
                        code: obs_code(value),
                    });
                }
                if self.idb.on_init(from, key).echo {
                    send_echo(out, *key, value);
                }
                None
            }
            IdbMessage::Echo { key, value } => self.on_echo(from, *key, value, rng, out),
        }
    }

    /// Feeds one received IDB echo for `origin`'s instance by reference:
    /// what [`on_message`](Self::on_message) does for a
    /// `DexMsg::Idb(IdbMessage::Echo { .. })`, for callers that unbatch a
    /// [`DexMsg::EchoBatch`] and hold each entry's value but no such
    /// message. Allocates nothing; clones the value only to send an echo
    /// or to store a value a view has not seen.
    pub fn on_echo(
        &mut self,
        from: ProcessId,
        origin: ProcessId,
        value: &V,
        rng: &mut StdRng,
        out: &mut Outbox<DexMsg<V, U::Msg>>,
    ) -> Option<Decision<V>> {
        if self.obs.is_active() {
            self.obs.record(EventKind::IdbEcho {
                origin: origin.index() as u16,
                code: obs_code(value),
            });
        }
        let verdict = self.idb.on_echo(from, &origin, value);
        if verdict.echo {
            send_echo(out, origin, value);
        }
        if verdict.accept {
            self.on_id_receive(origin, value, rng, out)
        } else {
            None
        }
    }

    /// Lines 11–18, on `Id-Receive(value)` for `origin`: update `J2`, feed
    /// the underlying consensus once, and try the two-step decision.
    fn on_id_receive(
        &mut self,
        origin: ProcessId,
        value: &V,
        rng: &mut StdRng,
        out: &mut Outbox<DexMsg<V, U::Msg>>,
    ) -> Option<Decision<V>> {
        if self.obs.is_active() {
            let origin = origin.index() as u16;
            let code = obs_code(value);
            self.obs.record(EventKind::IdbAccept { origin, code });
            self.obs.record(EventKind::ViewSet {
                view: ViewTag::J2,
                origin,
                code,
            });
        }
        self.j2.set(origin, value); // line 11 (IDB agreement makes overwrites impossible)
        if self.j2.len_non_default() >= self.config.quorum() && !self.uc_proposed {
            // Lines 12–15: activate the underlying consensus. This runs
            // even if we already decided — other processes may need it.
            self.uc_proposed = true;
            let proposal = self
                .pair
                .decide(&self.j2)
                .expect("J2 has at least n - t entries");
            self.obs.record(EventKind::Fallback {
                code: obs_code(&proposal),
            });
            self.uc.propose(proposal, rng, &mut self.uc_out);
            forward_uc(&mut self.uc_out, out);
        }
        if self.decided.is_some() {
            return None;
        }
        let fired = self.p2_gate.try_p2(&self.pair, &self.j2);
        if self.obs.is_active() && self.j2.len_non_default() >= self.config.quorum() {
            self.obs
                .record(predicate_snapshot(PredTag::P2, fired, &self.j2));
        }
        if !fired {
            return None;
        }
        // Lines 16–18.
        let value = self
            .pair
            .decide(&self.j2)
            .expect("J2 has at least n - t entries");
        self.obs.record(EventKind::Decide {
            scheme: Scheme::TwoStep,
            code: obs_code(&value),
        });
        let d = Decision {
            value,
            path: DecisionPath::TwoStep,
        };
        self.decided = Some(d.clone());
        Some(d)
    }

    /// Lines 19–22: run the underlying consensus; adopt its decision.
    fn on_uc(
        &mut self,
        from: ProcessId,
        msg: &U::Msg,
        rng: &mut StdRng,
        out: &mut Outbox<DexMsg<V, U::Msg>>,
    ) -> Option<Decision<V>> {
        self.uc.on_message(from, msg, rng, &mut self.uc_out);
        forward_uc(&mut self.uc_out, out);
        if self.decided.is_none() {
            if let Some(v) = self.uc.decision() {
                let d = Decision {
                    value: v.clone(),
                    path: DecisionPath::Underlying,
                };
                self.obs.record(EventKind::Decide {
                    scheme: Scheme::Fallback,
                    code: obs_code(&d.value),
                });
                self.decided = Some(d.clone());
                return Some(d);
            }
        }
        None
    }
}

impl<V, U> dex_adversary::ProtocolForgery for DexMsg<V, U>
where
    V: Value,
    U: Clone + core::fmt::Debug + Send + 'static,
{
    type Value = V;

    /// A Byzantine proposal feeds both channels, like line 3–4 of Fig. 1.
    fn forge_proposal(me: ProcessId, _to: ProcessId, value: V) -> Vec<Self> {
        vec![
            DexMsg::Proposal(value.clone()),
            DexMsg::Idb(IdenticalBroadcast::id_send(me, value)),
        ]
    }

    /// Poison the two-step channel: conflicting witness echoes for every
    /// broadcast instance observed being opened. Reacting to inits only
    /// (never to echoes) keeps adversarial traffic finite.
    fn forge_reaction(_me: ProcessId, observed: &Self, _to: ProcessId, value: V) -> Vec<Self> {
        match observed {
            DexMsg::Idb(IdbMessage::Init { key, .. }) => {
                vec![DexMsg::Idb(IdbMessage::Echo { key: *key, value })]
            }
            _ => Vec::new(),
        }
    }
}

/// Broadcasts this process's IDB echo `(echo, value, origin)`.
fn send_echo<V: Value, U>(out: &mut Outbox<DexMsg<V, U>>, origin: ProcessId, value: &V) {
    out.broadcast(DexMsg::Idb(IdbMessage::Echo {
        key: origin,
        value: value.clone(),
    }));
}

/// Wraps underlying-consensus outbox messages into `DexMsg::Uc`, draining
/// in place so both the UC scratch outbox and the destination keep their
/// buffers.
fn forward_uc<V, U>(uc_out: &mut Outbox<U>, out: &mut Outbox<DexMsg<V, U>>) {
    uc_out.map_drain_into(out, DexMsg::Uc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_conditions::{FrequencyPair, PrivilegedPair};
    use dex_underlying::{OracleConsensus, OracleMsg};

    type Freq = DexProcess<u64, FrequencyPair, OracleConsensus<u64>>;
    type Out = Outbox<DexMsg<u64, OracleMsg<u64>>>;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn freq_process(n: usize, t: usize, me: usize) -> Freq {
        let cfg = SystemConfig::new(n, t).unwrap();
        DexProcess::new(
            cfg,
            p(me),
            FrequencyPair::new(cfg).unwrap(),
            OracleConsensus::new(cfg, p(me), p(0)),
        )
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn propose_sends_on_both_channels_once() {
        let mut proc = freq_process(7, 1, 0);
        let mut out: Out = Outbox::new();
        proc.propose(5, &mut rng(), &mut out);
        let msgs = out.drain();
        assert_eq!(msgs.len(), 2);
        assert!(matches!(msgs[0].1, DexMsg::Proposal(5)));
        assert!(matches!(
            msgs[1].1,
            DexMsg::Idb(IdbMessage::Init { value: 5, .. })
        ));
        proc.propose(6, &mut rng(), &mut out);
        assert!(out.is_empty());
        // Lines 2: own entries recorded immediately.
        assert_eq!(proc.j1().get(p(0)), Some(&5));
        assert_eq!(proc.j2().get(p(0)), Some(&5));
    }

    #[test]
    fn one_step_decision_on_unanimous_quorum() {
        // n = 7, t = 1: quorum 6, P1 needs margin > 4.
        let mut proc = freq_process(7, 1, 0);
        let mut out: Out = Outbox::new();
        proc.propose(5, &mut rng(), &mut out);
        let mut decision = None;
        for j in 1..6 {
            decision = proc.on_message(p(j), &DexMsg::Proposal(5), &mut rng(), &mut out);
        }
        let d = decision.expect("6 unanimous entries, margin 6 > 4");
        assert_eq!(d.value, 5);
        assert_eq!(d.path, DecisionPath::OneStep);
        assert_eq!(proc.decision(), Some(&d));
    }

    #[test]
    fn no_one_step_below_quorum_even_with_margin() {
        let mut proc = freq_process(7, 1, 0);
        let mut out: Out = Outbox::new();
        proc.propose(5, &mut rng(), &mut out);
        for j in 1..5 {
            // Only 5 entries total: |J1| = 5 < 6 = n − t.
            let d = proc.on_message(p(j), &DexMsg::Proposal(5), &mut rng(), &mut out);
            assert!(d.is_none());
        }
    }

    #[test]
    fn adaptive_late_message_can_trigger_one_step() {
        // With one dissenter among the first 6, margin is 4 (not > 4t = 4);
        // the 7th (late, all-correct) message lifts it to 5 — the adaptive
        // re-check of line 7 fires after n − t messages have already arrived.
        let mut proc = freq_process(7, 1, 0);
        let mut out: Out = Outbox::new();
        proc.propose(5, &mut rng(), &mut out);
        for j in 1..5 {
            assert!(proc
                .on_message(p(j), &DexMsg::Proposal(5), &mut rng(), &mut out)
                .is_none());
        }
        assert!(proc
            .on_message(p(5), &DexMsg::Proposal(9), &mut rng(), &mut out)
            .is_none()); // |J1| = 6, margin 5 - 1 = 4, not enough
        let d = proc
            .on_message(p(6), &DexMsg::Proposal(5), &mut rng(), &mut out)
            .expect("margin 6 - 1 = 5 > 4");
        assert_eq!(d.path, DecisionPath::OneStep);
        assert_eq!(d.value, 5);
    }

    #[test]
    fn byzantine_resend_cannot_rewrite_j1() {
        let mut proc = freq_process(7, 1, 0);
        let mut out: Out = Outbox::new();
        proc.propose(5, &mut rng(), &mut out);
        proc.on_message(p(1), &DexMsg::Proposal(5), &mut rng(), &mut out);
        proc.on_message(p(1), &DexMsg::Proposal(9), &mut rng(), &mut out);
        assert_eq!(proc.j1().get(p(1)), Some(&5), "first value wins");
    }

    /// Delivers a full IDB exchange for origin `origin` with value `v` into
    /// `proc`, simulating echoes from all processes.
    fn idb_deliver(proc: &mut Freq, origin: usize, v: u64, out: &mut Out) -> Option<Decision<u64>> {
        let mut decision = None;
        for echoer in 0..7 {
            let d = proc.on_message(
                p(echoer),
                &DexMsg::Idb(IdbMessage::Echo {
                    key: p(origin),
                    value: v,
                }),
                &mut rng(),
                out,
            );
            if d.is_some() {
                decision = d;
            }
        }
        decision
    }

    #[test]
    fn two_step_decision_and_uc_proposal() {
        // Margin 4 (5 fives vs 1 nine among 6): P2 (> 2) fires but P1 (> 4)
        // does not.
        let mut proc = freq_process(7, 1, 0);
        let mut out: Out = Outbox::new();
        proc.propose(5, &mut rng(), &mut out);
        out.drain();

        let mut decision = None;
        for origin in 1..5 {
            assert!(idb_deliver(&mut proc, origin, 5, &mut out).is_none());
        }
        // Sixth entry (origin 5) delivers value 9: |J2| = 6 now.
        if let Some(d) = idb_deliver(&mut proc, 5, 9, &mut out) {
            decision = Some(d);
        }
        let d = decision.expect("P2 fires: margin 5 - 1 = 4 > 2t = 2");
        assert_eq!(d.path, DecisionPath::TwoStep);
        assert_eq!(d.value, 5);
        // Lines 12–15 ran first: the UC was activated with F(J2) = 5.
        assert!(proc.uc_proposed());
        let sent = out.drain();
        assert!(
            sent.iter()
                .any(|(_, m)| matches!(m, DexMsg::Uc(OracleMsg::Propose(5)))),
            "UC proposal must be emitted: {sent:?}"
        );
    }

    #[test]
    fn echo_path_echoes_once_accepts_once_then_changes_nothing() {
        // n = 7, t = 1: amplification at n − 2t = 5 matching echoes,
        // Id-Receive at n − t = 6. p6 is Byzantine and, like `EchoPoison`,
        // echoes a second value for origin p3's instance.
        let mut proc = freq_process(7, 1, 0);
        proc.enable_obs();
        let mut out: Out = Outbox::new();
        let (origin, majority, poison) = (p(3), 5u64, 9u64);
        let feed = |proc: &mut Freq, from: usize, v: u64, out: &mut Out| {
            proc.on_echo(p(from), origin, &v, &mut rng(), out)
        };
        let accepts = |proc: &Freq| {
            let events = proc.obs().trace().events;
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::IdbAccept { .. }))
                .count()
        };

        assert!(feed(&mut proc, 6, poison, &mut out).is_none());
        for from in 1..=4 {
            assert!(feed(&mut proc, from, majority, &mut out).is_none());
            assert!(out.is_empty(), "no echo below n − 2t");
        }
        assert!(feed(&mut proc, 5, majority, &mut out).is_none());
        let sent = out.drain();
        let echo = DexMsg::Idb(IdbMessage::Echo {
            key: origin,
            value: majority,
        });
        assert_eq!(sent.len(), 1, "one echo at n − 2t: {sent:?}");
        assert_eq!(sent[0].1, echo);
        assert_eq!((accepts(&proc), proc.j2().get(origin)), (0, None));

        // |J2| = 1 after the Id-Receive: no quorum, so no UC and no decision.
        assert!(feed(&mut proc, 0, majority, &mut out).is_none());
        assert!(out.is_empty(), "first-echo(j) already set");
        assert_eq!(accepts(&proc), 1, "one Id-Receive at n − t");
        assert_eq!(proc.j2().get(origin), Some(&majority));

        let j2 = proc.j2().clone();
        let gates = |proc: &Freq| {
            let (g1, g2) = (proc.p1_gate, proc.p2_gate);
            [g1.evals(), g1.skips(), g2.evals(), g2.skips()]
        };
        let witnesses =
            |proc: &Freq| [majority, poison, 7].map(|v| proc.idb.witness_count(&origin, &v));
        let (gated, counted) = (gates(&proc), witnesses(&proc));
        assert_eq!(counted, [6, 1, 0]);
        for (from, v) in [
            (6, majority),
            (6, poison),
            (6, 7),
            (1, majority),
            (2, poison),
        ] {
            assert!(feed(&mut proc, from, v, &mut out).is_none());
        }
        assert!(out.is_empty(), "no echo after acceptance");
        assert_eq!(accepts(&proc), 1, "no second Id-Receive");
        assert_eq!(proc.j2(), &j2);
        assert_eq!(gates(&proc), gated);
        assert_eq!(
            witnesses(&proc),
            counted,
            "echoes after acceptance are not counted"
        );
    }

    #[test]
    fn uc_proposal_happens_even_after_one_step_decision() {
        // Case 4 of Lemma 2 relies on every correct process proposing to the
        // UC, including ones that already decided in one step.
        let mut proc = freq_process(7, 1, 0);
        let mut out: Out = Outbox::new();
        proc.propose(5, &mut rng(), &mut out);
        for j in 1..6 {
            proc.on_message(p(j), &DexMsg::Proposal(5), &mut rng(), &mut out);
        }
        assert_eq!(proc.decision().unwrap().path, DecisionPath::OneStep);
        out.drain();
        for origin in 1..6 {
            idb_deliver(&mut proc, origin, 5, &mut out);
        }
        assert!(proc.uc_proposed());
    }

    #[test]
    fn underlying_decision_is_adopted_when_nothing_expedites() {
        let mut proc = freq_process(7, 1, 1); // coordinator is p0
        let mut out: Out = Outbox::new();
        proc.propose(5, &mut rng(), &mut out);
        // UC decide arrives from the coordinator.
        let d = proc
            .on_message(
                p(0),
                &DexMsg::Uc(OracleMsg::Decide(8)),
                &mut rng(),
                &mut out,
            )
            .expect("adopt UC decision");
        assert_eq!(d.path, DecisionPath::Underlying);
        assert_eq!(d.value, 8);
    }

    #[test]
    fn uc_decision_does_not_override_prior_decision() {
        let mut proc = freq_process(7, 1, 1);
        let mut out: Out = Outbox::new();
        proc.propose(5, &mut rng(), &mut out);
        for j in 2..7 {
            proc.on_message(p(j), &DexMsg::Proposal(5), &mut rng(), &mut out);
        }
        assert_eq!(proc.decision().unwrap().path, DecisionPath::OneStep);
        let d = proc.on_message(
            p(0),
            &DexMsg::Uc(OracleMsg::Decide(8)),
            &mut rng(),
            &mut out,
        );
        assert!(d.is_none());
        assert_eq!(proc.decision().unwrap().value, 5);
    }

    #[test]
    fn privileged_pair_process_compiles_and_decides() {
        let cfg = SystemConfig::new(6, 1).unwrap();
        let mut proc: DexProcess<u64, PrivilegedPair<u64>, OracleConsensus<u64>> = DexProcess::new(
            cfg,
            p(0),
            PrivilegedPair::new(cfg, 1u64).unwrap(),
            OracleConsensus::new(cfg, p(0), p(0)),
        );
        let mut out: Outbox<DexMsg<u64, OracleMsg<u64>>> = Outbox::new();
        proc.propose(1, &mut rng(), &mut out);
        let mut decision = None;
        for j in 1..5 {
            decision = proc.on_message(p(j), &DexMsg::Proposal(1), &mut rng(), &mut out);
        }
        // #m(J1) = 5 > 3t = 3 ⇒ one-step.
        let d = decision.expect("P1_prv fires");
        assert_eq!(d.value, 1);
        assert_eq!(d.path, DecisionPath::OneStep);
    }

    #[test]
    fn decision_path_labels() {
        assert_eq!(DecisionPath::OneStep.label(), "1-step");
        assert_eq!(DecisionPath::TwoStep.label(), "2-step");
        assert_eq!(DecisionPath::Underlying.label(), "fallback");
    }
}
