//! Crash-model one-step consensus baselines — the upper rows of Table 1.
//!
//! The paper's Table 1 also lists crash-failure-model algorithms:
//! Brasileiro et al. \[2\] (`3t+1`, one-step on unanimous inputs) and the
//! adaptive condition-based line of Izumi–Masuzawa \[8\] (`3t+1`,
//! condition-based). These run under *crash* faults only (a faulty process
//! stops sending; it never lies), which our harness models with the
//! `Silent` adversary.
//!
//! Two state machines:
//!
//! * `Brasileiro` rule ([`CrashOneStep`] with [`CrashRule::Brasileiro`]) — from "Consensus in One Communication Step"
//!   (Brasileiro, Greve, Mostéfaoui, Raynal, 2001): broadcast the value;
//!   upon `n − t` receipts, decide if **all** are equal; adopt a value with
//!   at least `n − 2t` copies as the underlying-consensus proposal (at most
//!   one such value can exist at every process once somebody decided, by
//!   quorum intersection at `n > 3t`).
//!
//! * `Adaptive` rule ([`CrashOneStep`] with [`CrashRule::Adaptive`]) — an adaptive condition-based one-step rule
//!   in the spirit of \[8\]: re-evaluated on *every* receipt, decide
//!   `1st(J)` as soon as `margin(J) > 2·(n − |J|)`. Since a view can never
//!   contain entries from crashed processes, `n − |J| ≥ f`, so this is
//!   exactly the adaptive behaviour: inputs with margin `> 2f` decide in
//!   one step when only `f` processes actually crash. Safety argument (all
//!   views are sub-views of the *same* input `I` — crash model):
//!   - *1-step vs 1-step*: if `p` decides `v` with `margin(J) > 2m_p`
//!     (`m_p = n − |J|` entries missing), then in `I` the margin of `v`
//!     is `> m_p ≥ 0`, so `1st(I) = v`; a second decider's value equally
//!     forces `1st(I)`, hence both equal.
//!   - *1-step vs fallback*: `margin(I) > m_p ≥ f`, so every final view
//!     (missing exactly the `f` crashed entries) still has `1st = v`, and
//!     every correct process proposes `v` to the underlying consensus,
//!     whose unanimity finishes the argument.
//!
//! Neither algorithm is safe against Byzantine lies — that is Table 1's
//! point — and the crash-row experiment only drives them with crash
//! adversaries.

use crate::{decide, set_first};
use dex_obs::Recorder;
use dex_types::{Decision, DecisionPath, ProcessId, SystemConfig, Value, View};
use dex_underlying::{Outbox, UnderlyingConsensus};
use rand::rngs::StdRng;

/// Wire messages of the crash-model algorithms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CrashMsg<V, U> {
    /// The single round of value broadcasts.
    Value(V),
    /// Underlying-consensus traffic.
    Uc(U),
}

/// Which one-step rule a [`CrashOneStep`] instance runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashRule {
    /// Brasileiro et al. \[2\]: single evaluation at `n − t` receipts;
    /// decide only on a unanimous sample.
    Brasileiro,
    /// Adaptive condition-based rule (spirit of \[8\]): decide whenever
    /// `margin(J) > 2·(n − |J|)`, re-checked on every receipt.
    Adaptive,
}

impl CrashRule {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CrashRule::Brasileiro => "brasileiro",
            CrashRule::Adaptive => "crash-adaptive",
        }
    }
}

/// One process of a crash-model one-step consensus.
#[derive(Debug)]
pub struct CrashOneStep<V, U>
where
    V: Value,
    U: UnderlyingConsensus<V>,
{
    config: SystemConfig,
    me: ProcessId,
    rule: CrashRule,
    uc: U,
    own: Option<V>,
    view: View<V>,
    evaluated: bool,
    uc_proposed: bool,
    decided: Option<Decision<V>>,
    /// Reusable buffer for underlying-consensus output.
    uc_out: Outbox<U::Msg>,
    /// Structured-event recorder (disabled by default; see `dex-obs`).
    obs: Recorder,
}

impl<V, U> CrashOneStep<V, U>
where
    V: Value,
    U: UnderlyingConsensus<V>,
{
    /// Creates one process's instance.
    pub fn new(config: SystemConfig, me: ProcessId, rule: CrashRule, uc: U) -> Self {
        CrashOneStep {
            config,
            me,
            rule,
            uc,
            own: None,
            view: View::bottom(config.n()),
            evaluated: false,
            uc_proposed: false,
            decided: None,
            uc_out: Outbox::new(),
            obs: Recorder::disabled(),
        }
    }

    /// Turns on structured event recording for this process: fresh receipt
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

    /// The configured rule.
    pub fn rule(&self) -> CrashRule {
        self.rule
    }

    /// Broadcasts the value (call exactly once).
    pub fn propose(&mut self, value: V, _rng: &mut StdRng, out: &mut Outbox<CrashMsg<V, U::Msg>>) {
        if self.own.is_some() {
            return;
        }
        self.own = Some(value.clone());
        set_first(&mut self.view, &mut self.obs, self.me, &value);
        out.broadcast(CrashMsg::Value(value));
    }

    /// Feeds one received message; returns a newly made decision.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: &CrashMsg<V, U::Msg>,
        rng: &mut StdRng,
        out: &mut Outbox<CrashMsg<V, U::Msg>>,
    ) -> Option<Decision<V>> {
        match msg {
            CrashMsg::Value(v) => self.on_value(from, v, rng, out),
            CrashMsg::Uc(m) => {
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

    fn on_value(
        &mut self,
        from: ProcessId,
        v: &V,
        rng: &mut StdRng,
        out: &mut Outbox<CrashMsg<V, U::Msg>>,
    ) -> Option<Decision<V>> {
        set_first(&mut self.view, &mut self.obs, from, v);
        match self.rule {
            CrashRule::Brasileiro => self.brasileiro_step(rng, out),
            CrashRule::Adaptive => self.adaptive_step(rng, out),
        }
    }

    /// \[2\]: one evaluation at exactly `n − t` receipts.
    fn brasileiro_step(
        &mut self,
        rng: &mut StdRng,
        out: &mut Outbox<CrashMsg<V, U::Msg>>,
    ) -> Option<Decision<V>> {
        if self.evaluated || self.view.len_non_default() < self.config.quorum() {
            return None;
        }
        self.evaluated = true;
        let mut decision = None;
        let (first, count) = self.view.first_with_count().expect("quorum entries");
        let (first, count) = (first.clone(), count);
        if count == self.view.len_non_default() && self.decided.is_none() {
            // All received values are equal: decide.
            decision = Some(decide(&mut self.obs, first.clone(), DecisionPath::OneStep));
            self.decided = decision.clone();
        }
        // Proposal adoption: a value with ≥ n − 2t copies (unique whenever
        // some process decided, since 2(n − 2t) > n − t for n > 3t). Only
        // the most frequent value can hold n − 2t > (n − t)/2 copies of a
        // quorum-sized view, so the top tally entry settles it.
        let est = if count >= self.config.echo_threshold() {
            first
        } else {
            self.own.clone().expect("proposed before values arrive")
        };
        self.uc_proposed = true;
        self.uc.propose(est, rng, &mut self.uc_out);
        forward_uc(&mut self.uc_out, out);
        decision
    }

    /// Adaptive rule: re-checked on every receipt; UC activated at `n − t`.
    fn adaptive_step(
        &mut self,
        rng: &mut StdRng,
        out: &mut Outbox<CrashMsg<V, U::Msg>>,
    ) -> Option<Decision<V>> {
        let missing = self.config.n() - self.view.len_non_default();
        let mut decision = None;
        if self.decided.is_none() && self.view.frequency_margin() > 2 * missing {
            let value = self.view.first().expect("non-empty view").clone();
            decision = Some(decide(&mut self.obs, value, DecisionPath::OneStep));
            self.decided = decision.clone();
        }
        if !self.uc_proposed && self.view.len_non_default() >= self.config.quorum() {
            self.uc_proposed = true;
            let est = self.view.first().expect("quorum entries").clone();
            self.uc.propose(est, rng, &mut self.uc_out);
            forward_uc(&mut self.uc_out, out);
        }
        decision
    }
}

impl<V, U> dex_adversary::ProtocolForgery for CrashMsg<V, U>
where
    V: Value,
    U: Clone + core::fmt::Debug + Send + 'static,
{
    type Value = V;

    fn forge_proposal(_me: ProcessId, _to: ProcessId, value: V) -> Vec<Self> {
        vec![CrashMsg::Value(value)]
    }
}

fn forward_uc<V, U>(uc_out: &mut Outbox<U>, out: &mut Outbox<CrashMsg<V, U>>) {
    uc_out.map_drain_into(out, CrashMsg::Uc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_underlying::{OracleConsensus, OracleMsg};

    type Proc = CrashOneStep<u64, OracleConsensus<u64>>;
    type Out = Outbox<CrashMsg<u64, OracleMsg<u64>>>;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn proc(n: usize, t: usize, rule: CrashRule) -> Proc {
        let cfg = SystemConfig::new(n, t).unwrap();
        CrashOneStep::new(cfg, p(0), rule, OracleConsensus::new(cfg, p(0), p(0)))
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn brasileiro_decides_on_unanimous_sample() {
        // n = 4, t = 1 (crash model: 3t + 1).
        let mut pr = proc(4, 1, CrashRule::Brasileiro);
        let mut out: Out = Outbox::new();
        pr.propose(5, &mut rng(), &mut out);
        assert!(pr
            .on_message(p(1), &CrashMsg::Value(5), &mut rng(), &mut out)
            .is_none());
        let d = pr
            .on_message(p(2), &CrashMsg::Value(5), &mut rng(), &mut out)
            .expect("3 unanimous receipts at n - t = 3");
        assert_eq!(d.value, 5);
        assert_eq!(d.path, DecisionPath::OneStep);
    }

    #[test]
    fn brasileiro_mixed_sample_adopts_majority() {
        let mut pr = proc(4, 1, CrashRule::Brasileiro);
        let mut out: Out = Outbox::new();
        pr.propose(5, &mut rng(), &mut out);
        out.drain();
        pr.on_message(p(1), &CrashMsg::Value(5), &mut rng(), &mut out);
        let d = pr.on_message(p(2), &CrashMsg::Value(9), &mut rng(), &mut out);
        assert!(d.is_none(), "not unanimous");
        // n − 2t = 2 copies of 5 ⇒ est = 5.
        let sent = out.drain();
        assert!(sent
            .iter()
            .any(|(_, m)| matches!(m, CrashMsg::Uc(OracleMsg::Propose(5)))));
    }

    #[test]
    fn brasileiro_evaluates_once() {
        let mut pr = proc(4, 1, CrashRule::Brasileiro);
        let mut out: Out = Outbox::new();
        pr.propose(5, &mut rng(), &mut out);
        pr.on_message(p(1), &CrashMsg::Value(9), &mut rng(), &mut out);
        pr.on_message(p(2), &CrashMsg::Value(5), &mut rng(), &mut out);
        // The 4th value would make the view unanimous-majority, but the
        // rule already fired.
        assert!(pr
            .on_message(p(3), &CrashMsg::Value(5), &mut rng(), &mut out)
            .is_none());
        assert!(pr.decision().is_none());
    }

    #[test]
    fn adaptive_rule_fires_exactly_at_margin_threshold() {
        // n = 7, t = 2 (crash: 3t + 1). With 6 entries (missing 1), the
        // rule needs margin > 2.
        let mut pr = proc(7, 2, CrashRule::Adaptive);
        let mut out: Out = Outbox::new();
        pr.propose(5, &mut rng(), &mut out);
        for j in 1..4 {
            // 4 fives, missing 3 ⇒ margin 4 ≤ 6: no decision.
            assert!(pr
                .on_message(p(j), &CrashMsg::Value(5), &mut rng(), &mut out)
                .is_none());
        }
        assert!(pr
            .on_message(p(4), &CrashMsg::Value(9), &mut rng(), &mut out)
            .is_none()); // 5 entries, margin 3 ≤ 4
        let d = pr
            .on_message(p(5), &CrashMsg::Value(5), &mut rng(), &mut out)
            .expect("6 entries, margin 5 - 1 = 4 > 2·1 = 2");
        assert_eq!(d.value, 5);
        assert_eq!(d.path, DecisionPath::OneStep);
    }

    #[test]
    fn adaptive_rule_is_adaptive() {
        // With all 7 entries present (f = 0) even margin 1 suffices… margin
        // must be > 0: 4-vs-3 has margin 1 > 0 ⇒ one-step with no crashes!
        let mut pr = proc(7, 2, CrashRule::Adaptive);
        let mut out: Out = Outbox::new();
        pr.propose(5, &mut rng(), &mut out);
        for j in 1..4 {
            pr.on_message(p(j), &CrashMsg::Value(5), &mut rng(), &mut out);
        }
        for j in 4..6 {
            assert!(pr
                .on_message(p(j), &CrashMsg::Value(9), &mut rng(), &mut out)
                .is_none());
        }
        let d = pr
            .on_message(p(6), &CrashMsg::Value(9), &mut rng(), &mut out)
            .expect("full view, margin 1 > 0");
        assert_eq!(d.value, 5);
    }

    #[test]
    fn uc_decision_adopted_when_one_step_fails() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let mut pr: Proc = CrashOneStep::new(
            cfg,
            p(1),
            CrashRule::Brasileiro,
            OracleConsensus::new(cfg, p(1), p(0)),
        );
        let mut out: Out = Outbox::new();
        pr.propose(5, &mut rng(), &mut out);
        let d = pr
            .on_message(
                p(0),
                &CrashMsg::Uc(OracleMsg::Decide(9)),
                &mut rng(),
                &mut out,
            )
            .expect("adopt UC decision");
        assert_eq!(d.value, 9);
        assert_eq!(d.path, DecisionPath::Underlying);
    }

    #[test]
    fn rule_labels() {
        assert_eq!(CrashRule::Brasileiro.label(), "brasileiro");
        assert_eq!(CrashRule::Adaptive.label(), "crash-adaptive");
    }
}
