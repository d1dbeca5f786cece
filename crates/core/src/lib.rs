//! **Algorithm DEX** — the doubly-expedited adaptive one-step Byzantine
//! consensus of the paper (Fig. 1).
//!
//! Each process runs three mechanisms *concurrently*:
//!
//! 1. **One-step scheme** (lines 5–9): proposals arrive over plain
//!    point-to-point sends into view `J1`; once `|J1| ≥ n − t` the process
//!    evaluates `P1(J1)` **on every subsequent reception** — this
//!    incremental re-evaluation is what makes the algorithm *adaptive*
//!    ("DEX allows the processes to collect messages from all correct
//!    processes", §4). If `P1` holds, it decides `F(J1)` at causal depth 1.
//! 2. **Two-step scheme** (lines 10–18): proposals also travel over
//!    [Identical Broadcast](dex_broadcast::IdenticalBroadcast) into view
//!    `J2` (equivocation-free). At `|J2| ≥ n − t` the process proposes
//!    `F(J2)` to the underlying consensus **unconditionally**, and decides
//!    `F(J2)` at causal depth 2 whenever `P2(J2)` holds.
//! 3. **Fallback** (lines 19–22): when the underlying consensus decides,
//!    adopt its value unless already decided.
//!
//! The algorithm is generic over the
//! [`LegalityPair`](dex_conditions::LegalityPair) — any pair satisfying
//! LT1/LT2/LA3/LA4/LU5 yields a correct doubly-expedited algorithm
//! (Theorem 3) — and over the
//! [`UnderlyingConsensus`](dex_underlying::UnderlyingConsensus).
//!
//! # Examples
//!
//! Driving one process by hand in a unanimous 7-process system (`t = 1`):
//!
//! ```
//! use dex_conditions::FrequencyPair;
//! use dex_core::{DecisionPath, DexMsg, DexProcess};
//! use dex_types::{ProcessId, SystemConfig};
//! use dex_underlying::{OracleConsensus, Outbox};
//! use rand::SeedableRng;
//!
//! let cfg = SystemConfig::new(7, 1)?;
//! let pair = FrequencyPair::new(cfg)?;
//! let uc = OracleConsensus::new(cfg, ProcessId::new(0), ProcessId::new(0));
//! let mut p0 = DexProcess::new(cfg, ProcessId::new(0), pair, uc);
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut out = Outbox::new();
//! p0.propose(42, &mut rng, &mut out);
//!
//! // Feed the unanimous proposals of 5 peers: with its own entry that is
//! // n − t = 6 entries of 42, margin 6 > 4t = 4 ⇒ one-step decision.
//! let mut decision = None;
//! for j in 1..6 {
//!     decision = p0.on_message(ProcessId::new(j), &DexMsg::Proposal(42), &mut rng, &mut out);
//!     if decision.is_some() { break; }
//! }
//! let d = decision.expect("one-step decision fires at n - t unanimous proposals");
//! assert_eq!(d.value, 42);
//! assert_eq!(d.path, DecisionPath::OneStep);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod node;
mod process;
mod resend;

pub use actor::{dex_msg_bytes, dex_msg_class, DecisionRecord, DexActor};
pub use dex_types::{Decision, DecisionPath};
pub use node::Node;
pub use process::{DexMsg, DexProcess};
pub use resend::{Reliable, ReliableMsg, ResendPolicy};

use dex_conditions::{FrequencyPair, PrivilegedPair};

/// DEX instantiated with the frequency-based pair `P_freq` (§3.3).
pub type DexFreq<V, U> = DexProcess<V, FrequencyPair, U>;

/// DEX instantiated with the privileged-value pair `P_prv` (§3.4).
pub type DexPrv<V, U> = DexProcess<V, PrivilegedPair<V>, U>;
