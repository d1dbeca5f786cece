//! The non-expedited baseline: go straight to the underlying consensus.

use crate::decide;
use dex_obs::Recorder;
use dex_types::{Decision, DecisionPath, ProcessId, Value};
use dex_underlying::{Outbox, UnderlyingConsensus};
use rand::rngs::StdRng;

/// A process that simply proposes its value to the underlying consensus —
/// the classic two-step-optimal path with no one-step attempt. With the
/// oracle underlying consensus this pins the two-step lower bound of \[9\]
/// that one-step algorithms try to beat for favourable inputs.
#[derive(Debug)]
pub struct UnderlyingOnlyProcess<V, U>
where
    V: Value,
    U: UnderlyingConsensus<V>,
{
    me: ProcessId,
    uc: U,
    /// Structured-event recorder (disabled by default; see `dex-obs`).
    obs: Recorder,
    _marker: std::marker::PhantomData<V>,
}

impl<V, U> UnderlyingOnlyProcess<V, U>
where
    V: Value,
    U: UnderlyingConsensus<V>,
{
    /// Wraps process `me`'s underlying-consensus endpoint.
    pub fn new(me: ProcessId, uc: U) -> Self {
        UnderlyingOnlyProcess {
            me,
            uc,
            obs: Recorder::disabled(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Turns on structured event recording for this process: the decision
    /// (see `dex-obs`).
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

    /// Proposes to the underlying consensus.
    pub fn propose(&mut self, value: V, rng: &mut StdRng, out: &mut Outbox<U::Msg>) {
        self.uc.propose(value, rng, out);
    }

    /// Routes one message; returns the decision when it first appears.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: &U::Msg,
        rng: &mut StdRng,
        out: &mut Outbox<U::Msg>,
    ) -> Option<Decision<V>> {
        let before = self.uc.decision().is_some();
        self.uc.on_message(from, msg, rng, out);
        if before {
            return None;
        }
        let value = self.uc.decision()?.clone();
        Some(decide(&mut self.obs, value, DecisionPath::Underlying))
    }

    /// The decided value, if any.
    pub fn decision(&self) -> Option<&V> {
        self.uc.decision()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_types::SystemConfig;
    use dex_underlying::OracleConsensus;

    #[test]
    fn state_machine_reports_decision_once() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let me = ProcessId::new(1);
        let mut proc: UnderlyingOnlyProcess<u64, OracleConsensus<u64>> =
            UnderlyingOnlyProcess::new(me, OracleConsensus::new(cfg, me, ProcessId::new(0)));
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Outbox::new();
        proc.propose(3, &mut rng, &mut out);
        let d = proc.on_message(
            ProcessId::new(0),
            &dex_underlying::OracleMsg::Decide(3),
            &mut rng,
            &mut out,
        );
        assert_eq!(
            d,
            Some(Decision {
                value: 3,
                path: DecisionPath::Underlying
            })
        );
        // Re-delivery does not re-report.
        let d2 = proc.on_message(
            ProcessId::new(0),
            &dex_underlying::OracleMsg::Decide(3),
            &mut rng,
            &mut out,
        );
        assert_eq!(d2, None);
        assert_eq!(proc.decision(), Some(&3));
    }
}
