//! Simulation adapter: `DexProcess` as a `dex-simnet` actor.

use crate::process::{DexMsg, DexProcess};
use dex_broadcast::{EchoAggregator, IdbMessage};
use dex_conditions::LegalityPair;
use dex_simnet::{Actor, Context, MsgClass, Time};
use dex_types::{Decision, DecisionPath, Dest, ProcessId, StepDepth, Value};
use dex_underlying::{Outbox, UnderlyingConsensus};

/// Classifies DEX wire traffic for the per-class
/// [`NetStats`](dex_simnet::NetStats) breakdown. Shared by [`DexActor`]
/// and the harness node wrappers so every runtime attributes identically.
pub fn dex_msg_class<V, U>(msg: &DexMsg<V, U>) -> MsgClass {
    match msg {
        DexMsg::Proposal(_) | DexMsg::Idb(IdbMessage::Init { .. }) => MsgClass::Init,
        DexMsg::Idb(IdbMessage::Echo { .. }) => MsgClass::Echo,
        DexMsg::EchoBatch(entries) => MsgClass::Batch(entries.len() as u32),
        DexMsg::Uc(_) | DexMsg::EchoFlushTick => MsgClass::Other,
    }
}

/// Wire size of DEX traffic: shallow for the `Copy`-ish variants, deep for
/// echo batches whose entries live on the heap.
pub fn dex_msg_bytes<V, U>(msg: &DexMsg<V, U>) -> usize {
    let shallow = core::mem::size_of_val(msg);
    match msg {
        DexMsg::EchoBatch(entries) => {
            shallow + entries.len() * core::mem::size_of::<(ProcessId, V)>()
        }
        _ => shallow,
    }
}

/// A decision as observed inside a simulation run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecisionRecord<V> {
    /// The decided value.
    pub value: V,
    /// Which mechanism decided.
    pub path: DecisionPath,
    /// Causal communication-step depth of the triggering message — the
    /// paper's step count: 1 for one-step, 2 for two-step decisions.
    pub depth: StepDepth,
    /// Virtual time of the decision.
    pub at: Time,
}

/// Wraps a [`DexProcess`] as a discrete-event-simulation actor.
///
/// The actor proposes on start, routes messages, and records the decision
/// with its causal depth and virtual time for the experiment harness.
#[derive(Debug)]
pub struct DexActor<V, P, U>
where
    V: Value,
    U: UnderlyingConsensus<V>,
{
    process: DexProcess<V, P, U>,
    proposal: V,
    decision: Option<DecisionRecord<V>>,
    /// Echo aggregation state; `None` (the default) keeps the unbatched
    /// wire protocol byte-identical to builds before aggregation existed.
    agg: Option<EchoAggregator<ProcessId, V>>,
}

impl<V, P, U> DexActor<V, P, U>
where
    V: Value,
    P: LegalityPair<V>,
    U: UnderlyingConsensus<V>,
{
    /// Creates the actor; it will propose `proposal` at simulation start.
    pub fn new(process: DexProcess<V, P, U>, proposal: V) -> Self {
        DexActor {
            process,
            proposal,
            decision: None,
            agg: None,
        }
    }

    /// Turns on echo aggregation: IDB echoes this actor emits are coalesced
    /// per delivery tick and multicast as one [`DexMsg::EchoBatch`] per
    /// depth bucket instead of one message per echo. Decisions, causal
    /// depths, and trace invariants are unchanged — only the wire-message
    /// count drops (see `dex_broadcast::EchoAggregator`).
    pub fn enable_aggregation(&mut self) {
        self.agg = Some(EchoAggregator::new());
    }

    /// The recorded decision, if the process has decided.
    pub fn decision(&self) -> Option<&DecisionRecord<V>> {
        self.decision.as_ref()
    }

    /// The wrapped state machine (for view diagnostics).
    pub fn process(&self) -> &DexProcess<V, P, U> {
        &self.process
    }

    /// Mutable access to the wrapped state machine (e.g. to enable
    /// structured event recording before the run starts).
    pub fn process_mut(&mut self) -> &mut DexProcess<V, P, U> {
        &mut self.process
    }

    /// Drains the protocol outbox into the network context. With
    /// aggregation on, `Dest::All` IDB echoes are diverted into the
    /// aggregator (stamped with the depth they would have been sent at)
    /// and a 1-tick flush timer is armed; everything else passes through
    /// untouched, so the off path stays byte-identical.
    fn flush(
        &mut self,
        out: &mut Outbox<DexMsg<V, U::Msg>>,
        ctx: &mut Context<'_, DexMsg<V, U::Msg>>,
    ) {
        for (dest, m) in out.drain() {
            match (self.agg.as_mut(), dest, m) {
                (Some(agg), Dest::All, DexMsg::Idb(IdbMessage::Echo { key, value })) => {
                    agg.offer(key, value, ctx.depth().next());
                }
                (_, dest, m) => ctx.send_dest(dest, m),
            }
        }
        if let Some(agg) = self.agg.as_mut() {
            if agg.try_arm() {
                ctx.send_self_after(1, DexMsg::EchoFlushTick);
            }
        }
    }

    fn record_decision(&mut self, d: Decision<V>, ctx: &Context<'_, DexMsg<V, U::Msg>>) {
        self.decision = Some(DecisionRecord {
            value: d.value,
            path: d.path,
            depth: ctx.depth(),
            at: ctx.now(),
        });
    }
}

impl<V, P, U> Actor for DexActor<V, P, U>
where
    V: Value,
    P: LegalityPair<V> + Send + 'static,
    U: UnderlyingConsensus<V> + Send + 'static,
{
    type Msg = DexMsg<V, U::Msg>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let mut out = Outbox::new();
        let v = self.proposal.clone();
        self.process.propose(v, ctx.rng(), &mut out);
        self.flush(&mut out, ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        match msg {
            DexMsg::EchoFlushTick => {
                // Self-addressed timer only; a forged tick from a peer
                // must not trigger a flush.
                if from != ctx.me() {
                    return;
                }
                let Some(agg) = self.agg.as_mut() else {
                    return;
                };
                // One batch per depth bucket, each dispatched at the exact
                // depth its unbatched echoes would have carried — the
                // flush tick is a local timer, not a communication step.
                for (depth, entries) in agg.take_batches() {
                    ctx.send_dest_at(Dest::All, DexMsg::EchoBatch(entries), depth);
                }
            }
            DexMsg::EchoBatch(entries) => {
                // Unbatch deterministically in entry order: each entry is
                // exactly the echo the sender would have multicast
                // individually, so witness tables, thresholds, obs events
                // and decisions replay the unbatched protocol.
                let mut out = Outbox::new();
                let mut decision = None;
                for (key, value) in entries {
                    let d = self.process.on_echo(from, *key, value, ctx.rng(), &mut out);
                    decision = decision.or(d);
                }
                self.flush(&mut out, ctx);
                if let Some(d) = decision {
                    if self.decision.is_none() {
                        self.record_decision(d, ctx);
                    }
                }
            }
            _ => {
                let mut out = Outbox::new();
                let decision = self.process.on_message(from, msg, ctx.rng(), &mut out);
                self.flush(&mut out, ctx);
                if let Some(d) = decision {
                    self.record_decision(d, ctx);
                }
            }
        }
    }

    fn recorder_mut(&mut self) -> Option<&mut dex_obs::Recorder> {
        self.process.obs_mut().active_mut()
    }

    fn msg_bytes(msg: &Self::Msg) -> usize {
        dex_msg_bytes(msg)
    }

    fn msg_class(msg: &Self::Msg) -> MsgClass {
        dex_msg_class(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_conditions::FrequencyPair;
    use dex_simnet::{DelayModel, Simulation};
    use dex_types::SystemConfig;
    use dex_underlying::OracleConsensus;

    fn build(
        n: usize,
        t: usize,
        proposals: &[u64],
    ) -> Vec<DexActor<u64, FrequencyPair, OracleConsensus<u64>>> {
        let cfg = SystemConfig::new(n, t).unwrap();
        proposals
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let me = ProcessId::new(i);
                DexActor::new(
                    DexProcess::new(
                        cfg,
                        me,
                        FrequencyPair::new(cfg).unwrap(),
                        OracleConsensus::new(cfg, me, ProcessId::new(0)),
                    ),
                    *v,
                )
            })
            .collect()
    }

    #[test]
    fn unanimous_run_decides_one_step_everywhere() {
        for seed in 0..10 {
            let actors = build(7, 1, &[3; 7]);
            let mut sim = Simulation::builder(actors)
                .seed(seed)
                .delay(DelayModel::Uniform { min: 1, max: 10 })
                .build();
            assert!(sim.run(1_000_000).quiescent, "seed {seed}");
            for a in sim.actors() {
                let d = a.decision().expect("decided");
                assert_eq!(d.value, 3);
                assert_eq!(d.path, DecisionPath::OneStep);
                assert_eq!(d.depth, StepDepth::new(1), "one-step = causal depth 1");
            }
        }
    }

    #[test]
    fn moderate_margin_decides_two_steps() {
        // 5 vs 2 margin 3: P2 (> 2) yes, P1 (> 4) no.
        for seed in 0..10 {
            let actors = build(7, 1, &[3, 3, 3, 3, 3, 9, 9]);
            let mut sim = Simulation::builder(actors)
                .seed(seed)
                .delay(DelayModel::Uniform { min: 1, max: 10 })
                .build();
            assert!(sim.run(1_000_000).quiescent, "seed {seed}");
            for a in sim.actors() {
                let d = a.decision().expect("decided");
                assert_eq!(d.value, 3, "seed {seed}");
                assert_ne!(d.path, DecisionPath::OneStep, "margin too small for P1");
                if d.path == DecisionPath::TwoStep {
                    assert_eq!(d.depth, StepDepth::new(2), "two-step = causal depth 2");
                }
            }
        }
    }

    #[test]
    fn aggregated_runs_decide_identically_with_fewer_messages() {
        // Same inputs, batched vs unbatched. Batching coalesces messages,
        // so the two runs are *different valid schedules* (the delay RNG
        // stream shifts); what must match is everything the paper makes
        // schedule-independent: agreement within each run, the decided
        // value whenever the input margin is decisive (> t over the
        // runner-up, so no n − t subset can flip the plurality), and the
        // exact one-step depth on unanimous input. The wire must carry
        // strictly fewer messages — the point of the layer.
        let inputs: [(&[u64], bool); 3] = [
            (&[3; 7], true),                 // margin 7-0: decisive
            (&[3, 3, 3, 3, 3, 9, 9], true),  // margin 5-2 > t: decisive
            (&[3, 3, 3, 3, 9, 9, 9], false), // 4-3 knife edge: agreement only
        ];
        for (proposals, decisive) in inputs {
            for seed in 0..5 {
                let plain = build(7, 1, proposals);
                let mut batched = build(7, 1, proposals);
                for a in &mut batched {
                    a.enable_aggregation();
                }
                let delay = DelayModel::Uniform { min: 1, max: 10 };
                let mut sim_p = Simulation::builder(plain)
                    .seed(seed)
                    .delay(delay.clone())
                    .build();
                let mut sim_b = Simulation::builder(batched).seed(seed).delay(delay).build();
                assert!(sim_p.run(1_000_000).quiescent);
                assert!(sim_b.run(1_000_000).quiescent);
                let first = sim_b.actors()[0].decision().unwrap().value;
                for (p, b) in sim_p.actors().iter().zip(sim_b.actors()) {
                    let (dp, db) = (p.decision().unwrap(), b.decision().unwrap());
                    assert_eq!(db.value, first, "agreement in the batched run");
                    if decisive {
                        assert_eq!(dp.value, db.value, "seed {seed}");
                    }
                    if db.path == DecisionPath::OneStep {
                        assert_eq!(db.depth, StepDepth::new(1), "one-step stays depth 1");
                    }
                    if db.path == DecisionPath::TwoStep {
                        assert_eq!(db.depth, StepDepth::new(2), "two-step stays depth 2");
                    }
                }
                assert!(
                    sim_b.stats().sent < sim_p.stats().sent,
                    "seed {seed}: batched {} !< unbatched {}",
                    sim_b.stats().sent,
                    sim_p.stats().sent
                );
                assert!(sim_b.stats().echoes_batched > 0);
                assert_eq!(sim_b.stats().payload_clones, 0, "batches ride the slab");
                // Every individually-sent echo disappeared into batches.
                assert_eq!(sim_b.stats().sent_echo, 0, "all echoes must batch");
            }
        }
    }

    #[test]
    fn split_input_falls_back_to_underlying() {
        // 4 vs 3: margin 1 ≤ 2t, no expedited path; UC (oracle, 2 more
        // steps after the 2-step IDB) decides at depth 4.
        for seed in 0..10 {
            let actors = build(7, 1, &[3, 3, 3, 3, 9, 9, 9]);
            let mut sim = Simulation::builder(actors)
                .seed(seed)
                .delay(DelayModel::Uniform { min: 1, max: 10 })
                .build();
            assert!(sim.run(1_000_000).quiescent, "seed {seed}");
            let first = sim.actors()[0].decision().unwrap().value;
            for a in sim.actors() {
                let d = a.decision().expect("decided");
                assert_eq!(d.path, DecisionPath::Underlying, "seed {seed}");
                assert_eq!(d.value, first, "agreement, seed {seed}");
                assert_eq!(
                    d.depth,
                    StepDepth::new(4),
                    "well-behaved worst case is four steps (paper §5)"
                );
            }
        }
    }
}
