//! The idealized coordinator-based underlying consensus.

use crate::outbox::Outbox;
use crate::traits::UnderlyingConsensus;
use dex_types::{ProcessId, SystemConfig, Value, View};
use rand::rngs::StdRng;

/// Wire messages of [`OracleConsensus`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OracleMsg<V> {
    /// A process forwards its proposal to the coordinator.
    Propose(V),
    /// The coordinator announces the decision.
    Decide(V),
}

/// An idealized two-step underlying consensus built around a designated
/// **correct** coordinator.
///
/// The paper treats the underlying consensus as a black box whose
/// termination relies on assumptions beyond pure asynchrony (§2.2). This
/// implementation models the *best-behaved* such box — the one the
/// literature's step-count comparisons assume: a stable correct leader (as
/// produced by an Ω failure detector in the Paxos/PBFT tradition) collects
/// `n − t` proposals, picks the most frequent one (largest on ties), and
/// announces it. Cost: exactly two point-to-point steps.
///
/// Properties (assuming the experiment designates a coordinator that is
/// actually correct, which the `dex-harness` fault planner guarantees):
///
/// * **Agreement** — a single announcement is broadcast; correct processes
///   only accept `Decide` from the coordinator (senders are authenticated).
/// * **Termination** — the coordinator always receives the `n − t` correct
///   proposals.
/// * **Unanimity** — if all correct processes propose `v`, then among any
///   `n − t` received proposals at least `n − 2t` are `v` while at most `t`
///   are anything else; `n − 2t > t` holds for `n > 3t`, so `v` wins the
///   plurality.
///
/// For a primitive with **no** trusted component, see [`crate::ReducedMvc`].
#[derive(Clone, Debug)]
pub struct OracleConsensus<V> {
    config: SystemConfig,
    me: ProcessId,
    coordinator: ProcessId,
    proposed: bool,
    announced: bool,
    proposals: View<V>,
    decision: Option<V>,
}

impl<V: Value> OracleConsensus<V> {
    /// Creates one process's endpoint. All processes must agree on the
    /// `coordinator`, and experiments must pick a correct one (the harness
    /// does).
    pub fn new(config: SystemConfig, me: ProcessId, coordinator: ProcessId) -> Self {
        OracleConsensus {
            config,
            me,
            coordinator,
            proposed: false,
            announced: false,
            proposals: View::bottom(config.n()),
            decision: None,
        }
    }

    /// The designated coordinator.
    pub fn coordinator(&self) -> ProcessId {
        self.coordinator
    }
}

impl<V: Value> UnderlyingConsensus<V> for OracleConsensus<V> {
    type Msg = OracleMsg<V>;

    fn name(&self) -> &'static str {
        "oracle"
    }

    fn propose(&mut self, value: V, _rng: &mut StdRng, out: &mut Outbox<Self::Msg>) {
        if self.proposed {
            return;
        }
        self.proposed = true;
        out.send(self.coordinator, OracleMsg::Propose(value));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        _rng: &mut StdRng,
        out: &mut Outbox<Self::Msg>,
    ) {
        match msg {
            OracleMsg::Propose(v) => {
                if self.me != self.coordinator {
                    return; // not addressed to us; ignore strays
                }
                self.proposals.set(from, v);
                if !self.announced && self.proposals.len_non_default() >= self.config.quorum() {
                    self.announced = true;
                    let winner = self
                        .proposals
                        .first()
                        .cloned()
                        .expect("quorum implies at least one entry");
                    out.broadcast(OracleMsg::Decide(winner));
                }
            }
            OracleMsg::Decide(v) => {
                if from != self.coordinator {
                    return; // forgery from a Byzantine process
                }
                if self.decision.is_none() {
                    self.decision = Some(v.clone());
                }
            }
        }
    }

    fn decision(&self) -> Option<&V> {
        self.decision.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbox::Dest;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    fn cfg() -> SystemConfig {
        SystemConfig::new(4, 1).unwrap()
    }

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn propose_goes_to_coordinator_once() {
        let mut uc: OracleConsensus<u64> = OracleConsensus::new(cfg(), p(1), p(0));
        let mut out = Outbox::new();
        uc.propose(5, &mut rng(), &mut out);
        uc.propose(6, &mut rng(), &mut out); // ignored
        let msgs = out.drain();
        assert_eq!(msgs, vec![(Dest::To(p(0)), OracleMsg::Propose(5))]);
    }

    #[test]
    fn coordinator_announces_plurality_at_quorum() {
        let mut coord: OracleConsensus<u64> = OracleConsensus::new(cfg(), p(0), p(0));
        let mut out = Outbox::new();
        coord.on_message(p(1), &OracleMsg::Propose(7), &mut rng(), &mut out);
        coord.on_message(p(2), &OracleMsg::Propose(7), &mut rng(), &mut out);
        assert!(out.is_empty()); // quorum is 3
        coord.on_message(p(3), &OracleMsg::Propose(9), &mut rng(), &mut out);
        let msgs = out.drain();
        assert_eq!(msgs, vec![(Dest::All, OracleMsg::Decide(7))]);
    }

    #[test]
    fn late_proposals_do_not_reannounce() {
        let mut coord: OracleConsensus<u64> = OracleConsensus::new(cfg(), p(0), p(0));
        let mut out = Outbox::new();
        for i in 1..4 {
            coord.on_message(p(i), &OracleMsg::Propose(7), &mut rng(), &mut out);
        }
        out.drain();
        coord.on_message(p(0), &OracleMsg::Propose(7), &mut rng(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn decide_accepted_only_from_coordinator() {
        let mut uc: OracleConsensus<u64> = OracleConsensus::new(cfg(), p(1), p(0));
        let mut out = Outbox::new();
        uc.on_message(p(2), &OracleMsg::Decide(666), &mut rng(), &mut out);
        assert_eq!(uc.decision(), None);
        uc.on_message(p(0), &OracleMsg::Decide(7), &mut rng(), &mut out);
        assert_eq!(uc.decision(), Some(&7));
        // First decision sticks.
        uc.on_message(p(0), &OracleMsg::Decide(8), &mut rng(), &mut out);
        assert_eq!(uc.decision(), Some(&7));
    }

    #[test]
    fn non_coordinator_ignores_proposals() {
        let mut uc: OracleConsensus<u64> = OracleConsensus::new(cfg(), p(1), p(0));
        let mut out = Outbox::new();
        for i in 0..4 {
            uc.on_message(p(i), &OracleMsg::Propose(7), &mut rng(), &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(uc.decision(), None);
    }

    #[test]
    fn unanimity_with_adversarial_minority() {
        // All correct propose 7, a faulty process proposes 9: plurality is 7.
        let mut coord: OracleConsensus<u64> = OracleConsensus::new(cfg(), p(0), p(0));
        let mut out = Outbox::new();
        coord.on_message(p(3), &OracleMsg::Propose(9), &mut rng(), &mut out);
        coord.on_message(p(1), &OracleMsg::Propose(7), &mut rng(), &mut out);
        coord.on_message(p(2), &OracleMsg::Propose(7), &mut rng(), &mut out);
        let msgs = out.drain();
        assert_eq!(msgs, vec![(Dest::All, OracleMsg::Decide(7))]);
    }
}
