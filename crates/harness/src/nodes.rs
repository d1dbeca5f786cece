//! The one system-node type: a correct protocol actor or a Byzantine
//! actor speaking the same wire type — plus the [`Protocol`] trait that is
//! everything the runner needs from an algorithm beyond
//! [`Actor`](dex_simnet::Actor), and the forgery implementation the generic
//! adversary needs for bare underlying-consensus traffic.

use crate::runner::Outcome;
use crate::ucwrap::{AnyUc, AnyUcMsg};
use dex_adversary::{ByzantineActor, ProtocolForgery};
use dex_baselines::{BoscoActor, BoscoPath, CrashActor, CrashPath, UnderlyingOnlyActor};
use dex_conditions::LegalityPair;
use dex_core::{DecisionPath, DexActor};
use dex_obs::{ProcessTrace, Recorder};
use dex_simnet::{Actor, Context, MsgClass};
use dex_types::ProcessId;
use dex_underlying::OracleMsg;

impl ProtocolForgery for AnyUcMsg {
    type Value = u64;

    fn forge_proposal(_me: ProcessId, _to: ProcessId, value: u64) -> Vec<Self> {
        vec![AnyUcMsg::Oracle(OracleMsg::Propose(value))]
    }
}

/// What the runner needs from a correct process's actor: event recording,
/// the aggregation switch and the measured outcome. Adding an algorithm to
/// the harness is one impl of this trait plus one arm in the runner's
/// `Algo` match.
pub trait Protocol: Actor {
    /// Turns echo/vote aggregation on — `None` for algorithms with no
    /// echo/vote flood to coalesce (`RunSpec::config` rejects `--aggregate`
    /// for those).
    const AGGREGATE: Option<fn(&mut Self)>;

    /// Enables structured event recording for process index `me`.
    fn enable_obs(&mut self, me: u16);

    /// Copies out the recorded trace (empty unless recording was enabled).
    fn obs_trace(&self) -> ProcessTrace;

    /// The process's measured outcome once the run is over.
    fn outcome(&self) -> Outcome;
}

impl<P: LegalityPair<u64> + Send + 'static> Protocol for DexActor<u64, P, AnyUc> {
    const AGGREGATE: Option<fn(&mut Self)> = Some(Self::enable_aggregation);

    fn enable_obs(&mut self, _me: u16) {
        // The process id is taken from the wrapped state machine.
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

impl Protocol for BoscoActor<u64, AnyUc> {
    const AGGREGATE: Option<fn(&mut Self)> = Some(Self::enable_aggregation);

    fn enable_obs(&mut self, me: u16) {
        BoscoActor::enable_obs(self, me);
    }

    fn obs_trace(&self) -> ProcessTrace {
        self.obs().trace()
    }

    fn outcome(&self) -> Outcome {
        self.decision().map_or(Outcome::Undecided, |d| {
            let path = match d.path {
                BoscoPath::OneStep => DecisionPath::OneStep,
                BoscoPath::Underlying => DecisionPath::Underlying,
            };
            Outcome::decided(d.value, path, d.depth, d.at)
        })
    }
}

impl Protocol for CrashActor<u64, AnyUc> {
    const AGGREGATE: Option<fn(&mut Self)> = None;

    fn enable_obs(&mut self, me: u16) {
        CrashActor::enable_obs(self, me);
    }

    fn obs_trace(&self) -> ProcessTrace {
        self.obs().trace()
    }

    fn outcome(&self) -> Outcome {
        self.decision().map_or(Outcome::Undecided, |d| {
            let path = match d.path {
                CrashPath::OneStep => DecisionPath::OneStep,
                CrashPath::Underlying => DecisionPath::Underlying,
            };
            Outcome::decided(d.value, path, d.depth, d.at)
        })
    }
}

impl Protocol for UnderlyingOnlyActor<u64, AnyUc> {
    const AGGREGATE: Option<fn(&mut Self)> = None;

    fn enable_obs(&mut self, me: u16) {
        UnderlyingOnlyActor::enable_obs(self, me);
    }

    fn obs_trace(&self) -> ProcessTrace {
        self.obs().trace()
    }

    fn outcome(&self) -> Outcome {
        self.decision().map_or(Outcome::Undecided, |d| {
            Outcome::decided(d.value, DecisionPath::Underlying, d.depth, d.at)
        })
    }
}

/// A system node: a correct process running algorithm `A`, or a Byzantine
/// process attacking it over the same wire type. Byzantine nodes record no
/// events (their logs would be untrusted anyway) and never batch, which
/// also exercises receivers against mixed batched/unbatched traffic.
// Nodes hold whole protocol actors inline; boxing them would buy nothing
// in a run that owns every actor for its full lifetime.
#[allow(clippy::large_enum_variant)]
pub enum Node<A: Actor>
where
    A::Msg: ProtocolForgery,
{
    /// Correct process.
    Correct(A),
    /// Byzantine (or, for the crash-model rows, crashed) process.
    Byz(ByzantineActor<A::Msg>),
}

impl<A: Actor> Actor for Node<A>
where
    A::Msg: ProtocolForgery,
{
    type Msg = A::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        match self {
            Node::Correct(a) => a.on_start(ctx),
            Node::Byz(a) => a.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        match self {
            Node::Correct(a) => a.on_message(from, msg, ctx),
            Node::Byz(a) => a.on_message(from, msg, ctx),
        }
    }

    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        match self {
            Node::Correct(a) => a.recorder_mut(),
            Node::Byz(_) => None,
        }
    }

    fn msg_bytes(msg: &Self::Msg) -> usize {
        A::msg_bytes(msg)
    }

    fn msg_class(msg: &Self::Msg) -> MsgClass {
        A::msg_class(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_baselines::BoscoMsg;
    use dex_core::DexMsg;

    type DexWire = DexMsg<u64, AnyUcMsg>;
    type BoscoWire = BoscoMsg<u64, AnyUcMsg>;

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
