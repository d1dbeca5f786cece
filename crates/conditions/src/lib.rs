//! The condition-based machinery of the DEX paper (§2.3, §3).
//!
//! The *condition-based approach* designates a set of input vectors — a
//! **condition** — for which a consensus algorithm guarantees an expedited
//! decision. The paper's innovation is twofold:
//!
//! 1. **Adaptiveness** — instead of one condition, a *condition sequence*
//!    `(C_0 ⊇ C_1 ⊇ … ⊇ C_t)`, where `C_k` applies when the *actual* number
//!    of failures is `k`. Fewer failures ⇒ more inputs decide fast.
//! 2. **Double expedition** — a *pair* of condition sequences `(S¹, S²)`
//!    driving a one-step and a two-step decision scheme concurrently.
//!
//! A pair is **legal** (§3.2) when predicates `P1`, `P2` and a decision
//! function `F` exist satisfying the five criteria LT1, LT2, LA3, LA4, LU5.
//! The paper exhibits two legal pairs, both provided here:
//!
//! * [`FrequencyPair`] (§3.3, Theorem 1): `C¹_k = C^freq_{4t+2k}`,
//!   `C²_k = C^freq_{2t+2k}` — needs `n > 6t`.
//! * [`PrivilegedPair`] (§3.4, Theorem 2): `C¹_k = C^prv(m)_{3t+k}`,
//!   `C²_k = C^prv(m)_{2t+k}` — needs `n > 5t`.
//!
//! The [`verify`] module machine-checks the theorems by exhaustively
//! enumerating small instances and testing each of the legality criteria — a
//! model-checking companion to the paper's hand proofs.
//!
//! # Examples
//!
//! ```
//! use dex_conditions::{FrequencyPair, LegalityPair};
//! use dex_types::{InputVector, SystemConfig, View};
//!
//! let cfg = SystemConfig::new(7, 1)?; // n = 6t + 1
//! let pair = FrequencyPair::new(cfg)?;
//!
//! // A unanimous view passes the one-step predicate (margin 7 > 4t = 4)…
//! let unanimous = InputVector::unanimous(7, 1u64).to_view();
//! assert!(pair.p1(&unanimous));
//! assert_eq!(pair.decide(&unanimous), Some(1));
//!
//! // …while a 5-vs-2 split only passes the two-step predicate (margin 3 > 2t = 2).
//! let split = InputVector::new(vec![1u64, 1, 1, 1, 1, 9, 9]).to_view();
//! assert!(!pair.p1(&split));
//! assert!(pair.p2(&split));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod condition;
mod error;
mod frequency;
mod gate;
mod generic;
mod pair;
mod privileged;
mod sequence;
pub mod verify;

pub use condition::{check_d_legality, Condition, DLegalityViolation};
pub use error::PairError;
pub use frequency::{FrequencyCondition, FrequencyPair};
pub use gate::DecisionGate;
pub use generic::{ConditionFamily, FamilyPair};
pub use pair::LegalityPair;
pub use privileged::{PrivilegedCondition, PrivilegedPair};
pub use sequence::ConditionSequence;
