//! Core types shared by every crate in the DEX reproduction.
//!
//! This crate defines the vocabulary of the paper *“Doubly-Expedited One-Step
//! Byzantine Consensus”* (Banu, Izumi, Wada — DSN 2010):
//!
//! * [`ProcessId`] — the identity of one of the `n` processes `p_1 … p_n`.
//! * [`SystemConfig`] — the pair `(n, t)` plus the resilience predicates the
//!   paper relies on (`n > 4t` for Identical Broadcast, `n > 5t` for the
//!   privileged pair, `n > 6t` for the frequency pair, `n > 7t` for strongly
//!   one-step Bosco).
//! * [`InputVector`] — the `n`-tuple of proposed values (§2.3).
//! * [`View`] — a vector in `(V ∪ {⊥})^n` obtained by replacing at most `t`
//!   entries of an input vector by `⊥` (§3.1), together with the whole view
//!   algebra used by the legality proofs: occurrence counts `#_v(J)`,
//!   first/second most frequent values `1st(J)`/`2nd(J)`, Hamming distance
//!   `dist(J₁, J₂)`, containment `J₁ ≤ J₂` and the non-default count `|J|`.
//! * [`StepDepth`] — causal communication-step accounting, the complexity
//!   measure of the paper (one-step / two-step decisions).
//! * [`Decision`] / [`DecisionPath`] — a decided value and the mechanism
//!   (one-step, two-step, underlying consensus) that produced it: the one
//!   vocabulary DEX and the Table-1 baselines report in.
//!
//! # Examples
//!
//! ```
//! use dex_types::{SystemConfig, View};
//!
//! let cfg = SystemConfig::new(7, 1).unwrap();
//! assert!(cfg.supports_frequency_pair()); // n > 6t
//!
//! let view: View<u64> = View::from_options(vec![
//!     Some(3), Some(3), Some(3), Some(3), Some(3), Some(9), None,
//! ]);
//! assert_eq!(view.count_of(&3), 5);
//! assert_eq!(view.first(), Some(&3));
//! assert_eq!(view.second(), Some(&9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod decision;
mod dest;
mod error;
mod step;
mod value;
mod vector;
mod view;

pub use config::{ProcessId, SystemConfig};
pub use decision::{Decision, DecisionPath};
pub use dest::Dest;
pub use error::ConfigError;
pub use step::StepDepth;
pub use value::Value;
pub use vector::InputVector;
pub use view::View;

/// The default proposal value ⊥ is modelled as `None`; this alias documents
/// the `(V ∪ {⊥})` entry type used throughout the view algebra.
pub type Entry<V> = Option<V>;
