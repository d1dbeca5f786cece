//! What puts an algorithm on a runtime: the [`Protocol`] trait — everything
//! the runner needs from a correct process's actor beyond [`Actor`] —
//! implemented by `dex_core::DexActor` and by [`OneShotActor`], the one
//! actor shell for every algorithm of the "collect `n − t` values,
//! evaluate, else fall back" family ([`OneShot`]: Bosco, the crash-model
//! rules, underlying-only). Plus the forgery implementation the generic
//! adversary needs for bare underlying-consensus traffic.

use crate::runner::Outcome;
use crate::ucwrap::{AnyUc, AnyUcMsg};
use dex_adversary::ProtocolForgery;
use dex_baselines::{BoscoMsg, BoscoProcess, CrashMsg, CrashOneStep, UnderlyingOnlyProcess};
use dex_conditions::LegalityPair;
use dex_core::{Decision, DexActor};
use dex_obs::{ProcessTrace, Recorder};
use dex_simnet::{Actor, Context, MsgClass};
use dex_types::ProcessId;
use dex_underlying::{OracleMsg, Outbox, UnderlyingConsensus};
use rand::rngs::StdRng;

impl ProtocolForgery for AnyUcMsg {
    type Value = u64;

    fn forge_proposal(_me: ProcessId, _to: ProcessId, value: u64) -> Vec<Self> {
        vec![AnyUcMsg::Oracle(OracleMsg::Propose(value))]
    }
}

/// What the runner needs from a correct process's actor: event recording
/// and the measured outcome.
pub trait Protocol: Actor {
    /// Enables structured event recording.
    fn enable_obs(&mut self);

    /// Copies out the recorded trace (empty unless recording was enabled).
    fn obs_trace(&self) -> ProcessTrace;

    /// The process's measured outcome once the run is over.
    fn outcome(&self) -> Outcome;
}

impl<P: LegalityPair<u64> + Send + 'static> Protocol for DexActor<u64, P, AnyUc> {
    fn enable_obs(&mut self) {
        self.process_mut().enable_obs();
    }

    fn obs_trace(&self) -> ProcessTrace {
        self.process().obs().trace()
    }

    fn outcome(&self) -> Outcome {
        self.decision().map_or(Outcome::Undecided, |d| {
            Outcome::decided(d.value, d.path, d.depth, d.at)
        })
    }
}

/// A sans-IO single-shot consensus state machine over `u64` proposals:
/// propose once, feed deliveries, get the decision back when a delivery
/// produces it. Adding an algorithm to the harness is such a state
/// machine, one impl of this trait and one arm in the runner's `Algo`
/// match; [`OneShotActor`] does the rest.
pub trait OneShot: Send + 'static {
    /// The algorithm's wire message type.
    type Msg: Clone + core::fmt::Debug + Send + 'static;

    /// Proposes `value` (called exactly once, at start).
    fn propose(&mut self, value: u64, rng: &mut StdRng, out: &mut Outbox<Self::Msg>);

    /// Feeds one received message; returns a newly made decision.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        rng: &mut StdRng,
        out: &mut Outbox<Self::Msg>,
    ) -> Option<Decision<u64>>;

    /// Turns on the state machine's structured event recording.
    fn enable_obs(&mut self);

    /// The state machine's recorder.
    fn obs(&self) -> &Recorder;

    /// Mutable access to the recorder, for the runtime's clock stamping.
    fn obs_mut(&mut self) -> &mut Recorder;

    /// See [`Actor::msg_class`]; everything is `Other` by default.
    fn msg_class(_msg: &Self::Msg) -> MsgClass {
        MsgClass::Other
    }

    /// See [`Actor::msg_bytes`]; the shallow size by default.
    fn msg_bytes(msg: &Self::Msg) -> usize {
        core::mem::size_of_val(msg)
    }
}

/// Implements [`OneShot`] for a `dex-baselines` state machine generic over
/// its underlying consensus `U`: every method is the machine's inherent
/// method of the same name; `$class` optionally overrides a default.
macro_rules! one_shot {
    ($machine:ident, $msg:ty $(, $class:item)?) => {
        impl<U: UnderlyingConsensus<u64> + 'static> OneShot for $machine<u64, U> {
            type Msg = $msg;

            fn propose(&mut self, value: u64, rng: &mut StdRng, out: &mut Outbox<Self::Msg>) {
                $machine::propose(self, value, rng, out);
            }

            fn on_message(
                &mut self,
                from: ProcessId,
                msg: &Self::Msg,
                rng: &mut StdRng,
                out: &mut Outbox<Self::Msg>,
            ) -> Option<Decision<u64>> {
                $machine::on_message(self, from, msg, rng, out)
            }

            fn enable_obs(&mut self) {
                $machine::enable_obs(self);
            }

            fn obs(&self) -> &Recorder {
                $machine::obs(self)
            }

            fn obs_mut(&mut self) -> &mut Recorder {
                $machine::obs_mut(self)
            }

            $($class)?
        }
    };
}

one_shot!(
    BoscoProcess,
    BoscoMsg<u64, U::Msg>,
    fn msg_class(msg: &Self::Msg) -> MsgClass {
        match msg {
            BoscoMsg::Vote(_) => MsgClass::Init,
            BoscoMsg::Uc(_) => MsgClass::Other,
        }
    }
);
one_shot!(CrashOneStep, CrashMsg<u64, U::Msg>);
one_shot!(UnderlyingOnlyProcess, U::Msg);

/// The actor shell of every [`OneShot`] algorithm: proposes on start,
/// routes deliveries into the state machine, transmits what it emits, and
/// keeps the measured [`Outcome`] — the decision with the causal depth and
/// virtual time of the delivery that produced it.
#[derive(Debug)]
pub struct OneShotActor<P> {
    process: P,
    proposal: u64,
    outcome: Outcome,
}

impl<P: OneShot> OneShotActor<P> {
    /// Creates the actor; it proposes `proposal` at start.
    pub fn new(process: P, proposal: u64) -> Self {
        OneShotActor {
            process,
            proposal,
            outcome: Outcome::Undecided,
        }
    }
}

fn flush<M: Clone>(out: &mut Outbox<M>, ctx: &mut Context<'_, M>) {
    for (dest, m) in out.drain_iter() {
        ctx.send_dest(dest, m);
    }
}

impl<P: OneShot> Actor for OneShotActor<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let mut out = Outbox::new();
        self.process.propose(self.proposal, ctx.rng(), &mut out);
        flush(&mut out, ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        let mut out = Outbox::new();
        let decision = self.process.on_message(from, msg, ctx.rng(), &mut out);
        flush(&mut out, ctx);
        if let Some(d) = decision {
            self.outcome = Outcome::decided(d.value, d.path, ctx.depth(), ctx.now());
        }
    }

    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        self.process.obs_mut().active_mut()
    }

    fn msg_bytes(msg: &Self::Msg) -> usize {
        P::msg_bytes(msg)
    }

    fn msg_class(msg: &Self::Msg) -> MsgClass {
        P::msg_class(msg)
    }
}

impl<P: OneShot> Protocol for OneShotActor<P> {
    fn enable_obs(&mut self) {
        self.process.enable_obs();
    }

    fn obs_trace(&self) -> ProcessTrace {
        self.process.obs().trace()
    }

    fn outcome(&self) -> Outcome {
        self.outcome.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_baselines::CrashRule;
    use dex_core::{DecisionPath, DexMsg};
    use dex_obs::EventKind;
    use dex_simnet::{DelayModel, Simulation};
    use dex_types::SystemConfig;
    use dex_underlying::OracleConsensus;

    type DexWire = DexMsg<u64, AnyUcMsg>;
    type BoscoWire = BoscoMsg<u64, AnyUcMsg>;
    type Oracle = OracleConsensus<u64>;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Runs one actor per proposal to quiescence, recording on, and hands
    /// each finished actor to `check`.
    fn run_shell<P: OneShot>(
        proposals: &[u64],
        seed: u64,
        machine: impl Fn(ProcessId) -> P,
        mut check: impl FnMut(&OneShotActor<P>),
    ) {
        let actors = proposals.iter().enumerate().map(|(i, v)| {
            let mut actor = OneShotActor::new(machine(p(i)), *v);
            actor.enable_obs();
            actor
        });
        let mut sim = Simulation::builder(actors.collect())
            .seed(seed)
            .delay(DelayModel::Uniform { min: 1, max: 10 })
            .build();
        assert!(sim.run(100_000).quiescent);
        sim.actors().iter().for_each(&mut check);
    }

    #[test]
    fn oracle_underlying_only_decides_in_two_steps() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let machine = |me| UnderlyingOnlyProcess::new(me, Oracle::new(cfg, me, p(0)));
        run_shell(&[7; 4], 1, machine, |a| {
            let Outcome::Decided(d) = a.outcome() else {
                panic!("undecided")
            };
            assert_eq!((d.value, d.path), (7, "fallback"));
            assert_eq!(d.steps, 2, "two-step lower bound");
        });
    }

    #[test]
    fn a_decision_is_recorded_once_at_the_delivery_that_produced_it() {
        // One dissenting vote: whoever samples it falls back, the others
        // decide one-step and later see the underlying consensus decide
        // too. Either way: one `Decide` event, stamped by the runtime with
        // the very delivery the shell's outcome reports.
        let cfg = SystemConfig::new(7, 1).unwrap();
        let mut paths = std::collections::BTreeSet::new();
        let machine = |me| BoscoProcess::new(cfg, me, Oracle::new(cfg, me, p(0)));
        for seed in 0..10 {
            run_shell(&[5, 5, 5, 5, 5, 5, 9], seed, machine, |a| {
                let Outcome::Decided(d) = a.outcome() else {
                    panic!("seed {seed}: undecided")
                };
                let events = a.obs_trace().events;
                let mut decides = events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::Decide { .. }));
                let decide = decides.next().expect("a Decide event");
                assert!(decides.next().is_none(), "seed {seed}: decided twice");
                assert_eq!((decide.at, decide.depth), (d.latency, d.steps));
                assert!(d.latency > 0 && d.steps >= 1);
                paths.insert(d.path);
            });
        }
        assert_eq!(
            paths.into_iter().collect::<Vec<_>>(),
            ["1-step", "fallback"]
        );
    }

    /// `p1` sends 5, then twice 9: one `ViewSet` for it, and the receipt
    /// tally still counts its first value — with matching values from
    /// `p2, p3, …` the rule fires one-step on `decides_on`'s, which is a
    /// receipt too early for a tally the 9 had moved.
    fn first_value_wins<P: OneShot>(mut machine: P, value: fn(u64) -> P::Msg, decides_on: usize) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Outbox::new();
        machine.enable_obs();
        machine.propose(5, &mut rng, &mut out);
        for (from, v) in [(1, 5), (1, 9), (2, 5), (3, 5), (1, 9)] {
            let d = machine.on_message(p(from), &value(v), &mut rng, &mut out);
            assert_eq!(d, None, "duplicates must not complete the quorum");
        }
        let decided_on = (4..7).find(|j| {
            let d = machine.on_message(p(*j), &value(5), &mut rng, &mut out);
            d.is_some_and(|d| (d.value, d.path) == (5, DecisionPath::OneStep))
        });
        assert_eq!(decided_on, Some(decides_on));
        let origins: Vec<u16> = machine
            .obs()
            .trace()
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ViewSet { origin, .. } => Some(origin),
                _ => None,
            })
            .collect();
        assert_eq!(origins, (0..=decides_on as u16).collect::<Vec<_>>());
    }

    #[test]
    fn a_repeated_vote_or_value_neither_records_nor_counts() {
        let cfg = SystemConfig::new(7, 1).unwrap();
        let uc = || Oracle::new(cfg, p(0), p(0));
        // Bosco and Brasileiro evaluate once, at n − t = 6 receipts (six 5s
        // decide, five and a 9 do not); the adaptive rule fires at five 5s
        // (margin 5 > 2·2) but not at four and a 9 (margin 3).
        first_value_wins(BoscoProcess::new(cfg, p(0), uc()), BoscoMsg::Vote, 5);
        let crash = |rule| CrashOneStep::new(cfg, p(0), rule, uc());
        first_value_wins(crash(CrashRule::Brasileiro), CrashMsg::Value, 5);
        first_value_wins(crash(CrashRule::Adaptive), CrashMsg::Value, 4);
    }

    #[test]
    fn bosco_votes_are_classed_as_inits_and_the_rest_as_other() {
        type Bosco = BoscoProcess<u64, Oracle>;
        type Crash = CrashOneStep<u64, Oracle>;
        assert_eq!(Bosco::msg_class(&BoscoMsg::Vote(1)), MsgClass::Init);
        assert_eq!(Crash::msg_class(&CrashMsg::Value(1)), MsgClass::Other);
        let vote: BoscoMsg<u64, _> = BoscoMsg::Vote(1);
        assert_eq!(Bosco::msg_bytes(&vote), core::mem::size_of_val(&vote));
    }

    #[test]
    fn dex_forgery_builds_both_channels() {
        let msgs = DexWire::forge_proposal(ProcessId::new(2), ProcessId::new(0), 9);
        assert_eq!(msgs.len(), 2);
        assert!(matches!(msgs[0], DexMsg::Proposal(9)));
        assert!(matches!(
            &msgs[1],
            DexMsg::Idb(dex_broadcast::IdbMessage::Init { key, value: 9 }) if key.index() == 2
        ));
    }

    #[test]
    fn dex_forgery_reacts_to_inits_with_conflicting_echoes() {
        let observed: DexWire = DexMsg::Idb(dex_broadcast::IdbMessage::Init {
            key: ProcessId::new(4),
            value: 1,
        });
        let forged = DexWire::forge_reaction(ProcessId::new(2), &observed, ProcessId::new(0), 8);
        assert_eq!(forged.len(), 1);
        assert!(matches!(
            &forged[0],
            DexMsg::Idb(dex_broadcast::IdbMessage::Echo { key, value: 8 }) if key.index() == 4
        ));
    }

    #[test]
    fn dex_forgery_ignores_echoes() {
        let observed: DexWire = DexMsg::Idb(dex_broadcast::IdbMessage::Echo {
            key: ProcessId::new(4),
            value: 1,
        });
        assert!(
            DexWire::forge_reaction(ProcessId::new(2), &observed, ProcessId::new(0), 8).is_empty()
        );
    }

    #[test]
    fn bosco_forgery_is_vote_only() {
        let msgs = BoscoWire::forge_proposal(ProcessId::new(1), ProcessId::new(0), 3);
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0], BoscoMsg::Vote(3)));
    }
}
