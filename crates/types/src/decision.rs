//! The decision vocabulary shared by every one-step algorithm: DEX and the
//! Table-1 baselines report *which mechanism* decided in the same terms.

/// Which mechanism produced a decision.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DecisionPath {
    /// Line 8: `P1(J1)` fired — a **one-step** decision.
    OneStep,
    /// Line 17: `P2(J2)` fired — a **two-step** decision.
    TwoStep,
    /// Line 21: adopted from the underlying consensus.
    Underlying,
}

impl DecisionPath {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DecisionPath::OneStep => "1-step",
            DecisionPath::TwoStep => "2-step",
            DecisionPath::Underlying => "fallback",
        }
    }
}

/// A decision together with the mechanism that produced it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Decision<V> {
    /// The decided value.
    pub value: V,
    /// The mechanism that produced it.
    pub path: DecisionPath,
}
