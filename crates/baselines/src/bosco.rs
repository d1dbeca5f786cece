//! The Bosco one-step Byzantine consensus baseline.

use crate::{decide, set_first};
use dex_obs::Recorder;
use dex_types::{Decision, DecisionPath, ProcessId, SystemConfig, Value, View};
use dex_underlying::{Outbox, UnderlyingConsensus};
use rand::rngs::StdRng;

/// Wire messages of Bosco.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BoscoMsg<V, U> {
    /// The single round of votes.
    Vote(V),
    /// Underlying-consensus traffic.
    Uc(U),
}

/// One process's Bosco state machine.
///
/// See the [crate docs](crate) for the algorithm. Works for any `n > 3t`
/// (the underlying consensus in use may require more); its one-step
/// *guarantees* hold at `n > 5t` (weak) / `n > 7t` (strong).
#[derive(Debug)]
pub struct BoscoProcess<V, U>
where
    V: Value,
    U: UnderlyingConsensus<V>,
{
    config: SystemConfig,
    me: ProcessId,
    uc: U,
    own: Option<V>,
    votes: View<V>,
    evaluated: bool,
    decided: Option<Decision<V>>,
    /// Reusable buffer for underlying-consensus output.
    uc_out: Outbox<U::Msg>,
    /// Structured-event recorder (disabled by default; see `dex-obs`).
    obs: Recorder,
}

impl<V, U> BoscoProcess<V, U>
where
    V: Value,
    U: UnderlyingConsensus<V>,
{
    /// Creates one process's instance.
    pub fn new(config: SystemConfig, me: ProcessId, uc: U) -> Self {
        BoscoProcess {
            config,
            me,
            uc,
            own: None,
            votes: View::bottom(config.n()),
            evaluated: false,
            decided: None,
            uc_out: Outbox::new(),
            obs: Recorder::disabled(),
        }
    }

    /// Turns on structured event recording for this process: fresh vote
    /// entries and the decision (see `dex-obs`).
    pub fn enable_obs(&mut self) {
        self.obs = Recorder::new(self.me.index() as u16);
    }

    /// The structured-event recorder.
    pub fn obs(&self) -> &Recorder {
        &self.obs
    }

    /// Mutable access to the recorder, for the network runtime's clock
    /// stamping and send/deliver recording.
    pub fn obs_mut(&mut self) -> &mut Recorder {
        &mut self.obs
    }

    /// The local decision, if any.
    pub fn decision(&self) -> Option<&Decision<V>> {
        self.decided.as_ref()
    }

    /// The one-step supermajority threshold: strictly more than
    /// `(n + 3t) / 2` votes.
    fn decide_threshold(&self) -> usize {
        (self.config.n() + 3 * self.config.t()) / 2 + 1
    }

    /// The proposal-adoption threshold: strictly more than `(n − t) / 2`.
    fn adopt_threshold(&self) -> usize {
        (self.config.n() - self.config.t()) / 2 + 1
    }

    /// Broadcasts the vote (call exactly once).
    pub fn propose(&mut self, value: V, _rng: &mut StdRng, out: &mut Outbox<BoscoMsg<V, U::Msg>>) {
        if self.own.is_some() {
            return;
        }
        self.own = Some(value.clone());
        set_first(&mut self.votes, &mut self.obs, self.me, &value);
        out.broadcast(BoscoMsg::Vote(value));
    }

    /// Feeds one received message; returns a newly made decision.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: &BoscoMsg<V, U::Msg>,
        rng: &mut StdRng,
        out: &mut Outbox<BoscoMsg<V, U::Msg>>,
    ) -> Option<Decision<V>> {
        match msg {
            BoscoMsg::Vote(v) => self.on_vote(from, v, rng, out),
            BoscoMsg::Uc(m) => {
                self.uc.on_message(from, m, rng, &mut self.uc_out);
                forward_uc(&mut self.uc_out, out);
                if self.decided.is_none() {
                    if let Some(v) = self.uc.decision().cloned() {
                        self.decided = Some(decide(&mut self.obs, v, DecisionPath::Underlying));
                        return self.decided.clone();
                    }
                }
                None
            }
        }
    }

    fn on_vote(
        &mut self,
        from: ProcessId,
        v: &V,
        rng: &mut StdRng,
        out: &mut Outbox<BoscoMsg<V, U::Msg>>,
    ) -> Option<Decision<V>> {
        set_first(&mut self.votes, &mut self.obs, from, v);
        // Single evaluation at exactly n − t votes — Bosco is not adaptive.
        if self.evaluated || self.votes.len_non_default() < self.config.quorum() {
            return None;
        }
        self.evaluated = true;

        // The decide threshold exceeds n/2, so only the most frequent value
        // can reach it: one O(1) tally lookup replaces the histogram scan.
        let top = self.votes.first_with_count();
        let mut decision = None;
        if let Some((winner, count)) = top {
            if count >= self.decide_threshold() {
                decision = Some(decide(&mut self.obs, winner.clone(), DecisionPath::OneStep));
                self.decided = decision.clone();
            }
        }

        // Proposal adoption: a unique value above (n − t) / 2. Unique ⇔ the
        // most frequent value reaches the threshold and the runner-up does
        // not (for t ≥ 2, two values can clear it simultaneously).
        let adopt = self.adopt_threshold();
        let runner_up = self.votes.second_with_count().map_or(0, |(_, c)| c);
        let x = match top {
            Some((v, c)) if c >= adopt && runner_up < adopt => v.clone(),
            _ => self.own.clone().expect("proposed before votes arrive"),
        };
        self.uc.propose(x, rng, &mut self.uc_out);
        forward_uc(&mut self.uc_out, out);
        decision
    }
}

impl<V, U> dex_adversary::ProtocolForgery for BoscoMsg<V, U>
where
    V: Value,
    U: Clone + core::fmt::Debug + Send + 'static,
{
    type Value = V;

    fn forge_proposal(_me: ProcessId, _to: ProcessId, value: V) -> Vec<Self> {
        vec![BoscoMsg::Vote(value)]
    }
}

fn forward_uc<V, U>(uc_out: &mut Outbox<U>, out: &mut Outbox<BoscoMsg<V, U>>) {
    uc_out.map_drain_into(out, BoscoMsg::Uc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_underlying::{OracleConsensus, OracleMsg};

    type Proc = BoscoProcess<u64, OracleConsensus<u64>>;
    type Out = Outbox<BoscoMsg<u64, OracleMsg<u64>>>;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn proc(n: usize, t: usize, me: usize) -> Proc {
        let cfg = SystemConfig::new(n, t).unwrap();
        BoscoProcess::new(cfg, p(me), OracleConsensus::new(cfg, p(me), p(0)))
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn thresholds_match_bosco_paper() {
        // n = 7, t = 1: decide > 5 (i.e. ≥ 6), adopt > 3 (i.e. ≥ 4).
        let pr = proc(7, 1, 0);
        assert_eq!(pr.decide_threshold(), 6);
        assert_eq!(pr.adopt_threshold(), 4);
    }

    #[test]
    fn unanimous_votes_decide_one_step() {
        let mut pr = proc(7, 1, 0);
        let mut out: Out = Outbox::new();
        pr.propose(5, &mut rng(), &mut out);
        let mut d = None;
        for j in 1..6 {
            d = pr.on_message(p(j), &BoscoMsg::Vote(5), &mut rng(), &mut out);
        }
        let d = d.expect("6 unanimous votes ≥ decide threshold 6");
        assert_eq!(d.value, 5);
        assert_eq!(d.path, DecisionPath::OneStep);
    }

    #[test]
    fn one_dissent_blocks_one_step_but_adopts_majority() {
        let mut pr = proc(7, 1, 0);
        let mut out: Out = Outbox::new();
        pr.propose(5, &mut rng(), &mut out);
        out.drain();
        for j in 1..5 {
            assert!(pr
                .on_message(p(j), &BoscoMsg::Vote(5), &mut rng(), &mut out)
                .is_none());
        }
        let d = pr.on_message(p(5), &BoscoMsg::Vote(9), &mut rng(), &mut out);
        assert!(d.is_none(), "5 matching votes < 6");
        // But the UC was called with the majority value 5 (count 5 ≥ 4).
        let sent = out.drain();
        assert!(sent
            .iter()
            .any(|(_, m)| matches!(m, BoscoMsg::Uc(OracleMsg::Propose(5)))));
    }

    #[test]
    fn evaluation_happens_exactly_once() {
        // The 7th vote would lift the count to 6, but Bosco already
        // evaluated at n − t = 6 votes: no late one-step decision. This is
        // the non-adaptive behaviour DEX improves upon.
        let mut pr = proc(7, 1, 0);
        let mut out: Out = Outbox::new();
        pr.propose(5, &mut rng(), &mut out);
        for j in 1..5 {
            pr.on_message(p(j), &BoscoMsg::Vote(5), &mut rng(), &mut out);
        }
        assert!(pr
            .on_message(p(5), &BoscoMsg::Vote(9), &mut rng(), &mut out)
            .is_none());
        assert!(pr
            .on_message(p(6), &BoscoMsg::Vote(5), &mut rng(), &mut out)
            .is_none());
        assert!(pr.decision().is_none());
    }

    #[test]
    fn no_unique_majority_proposes_own_value() {
        let mut pr = proc(7, 1, 0);
        let mut out: Out = Outbox::new();
        pr.propose(5, &mut rng(), &mut out);
        out.drain();
        // Votes: own 5, then 9, 9, 9, 2, 2 → 9 has 3 < 4, nothing adopts.
        for (j, v) in [(1, 9), (2, 9), (3, 9), (4, 2)] {
            pr.on_message(p(j), &BoscoMsg::Vote(v), &mut rng(), &mut out);
        }
        pr.on_message(p(5), &BoscoMsg::Vote(2), &mut rng(), &mut out);
        let sent = out.drain();
        assert!(sent
            .iter()
            .any(|(_, m)| matches!(m, BoscoMsg::Uc(OracleMsg::Propose(5)))));
    }

    #[test]
    fn uc_decision_is_adopted() {
        let mut pr = proc(7, 1, 1);
        let mut out: Out = Outbox::new();
        pr.propose(5, &mut rng(), &mut out);
        let d = pr
            .on_message(
                p(0),
                &BoscoMsg::Uc(OracleMsg::Decide(8)),
                &mut rng(),
                &mut out,
            )
            .expect("adopt UC decision");
        assert_eq!(d.value, 8);
        assert_eq!(d.path, DecisionPath::Underlying);
    }

    #[test]
    fn duplicate_votes_first_wins() {
        let mut pr = proc(7, 1, 0);
        let mut out: Out = Outbox::new();
        pr.propose(5, &mut rng(), &mut out);
        pr.on_message(p(1), &BoscoMsg::Vote(5), &mut rng(), &mut out);
        pr.on_message(p(1), &BoscoMsg::Vote(9), &mut rng(), &mut out);
        assert_eq!(pr.votes.get(p(1)), Some(&5));
    }
}
