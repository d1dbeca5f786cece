//! Baseline one-step Byzantine consensus algorithms (Table 1).
//!
//! * [`BoscoProcess`] — the one-step algorithm of Song & van Renesse
//!   ("Bosco: One-Step Byzantine Asynchronous Consensus", DISC 2008),
//!   reference \[12\] of the DEX paper. One round of `VOTE`s; on receiving
//!   `n − t` of them (a **single, non-adaptive** evaluation — the contrast
//!   DEX's incremental views exploit):
//!   - decide `v` if more than `(n + 3t) / 2` votes carry `v`,
//!   - adopt `v` as the underlying-consensus proposal if a unique `v` has
//!     more than `(n − t) / 2` votes, else keep the own value,
//!   - call the underlying consensus unconditionally.
//!
//!   The same algorithm is *weakly* one-step for `n > 5t` (one-step decision
//!   guaranteed only with unanimous proposals and zero actual faults) and
//!   *strongly* one-step for `n > 7t` (unanimous correct proposals suffice,
//!   regardless of Byzantine interference) — the two Bosco rows of Table 1.
//!
//! * [`UnderlyingOnlyProcess`] — no expedition at all: propose the own
//!   value to the underlying consensus immediately. With the idealized
//!   oracle this decides in two steps always; it is the "plain consensus"
//!   baseline for average-step comparisons.
//!
//! * [`CrashOneStep`] — the crash-model rows of Table 1 (Brasileiro et
//!   al. \[2\] and an adaptive condition-based rule in the spirit of \[8\]);
//!   see [`crash`].
//!
//! The crate exports **state machines only**: transport-agnostic
//! `propose` / `on_message -> Option<Decision>` machines that speak
//! `dex_types`' [`Decision`] / [`DecisionPath`] vocabulary and own their
//! `dex-obs` recorder (first-value-wins `ViewSet` entries and the
//! `Decide`), exactly as `dex_core::DexProcess` does. What puts them on a
//! runtime is the harness's one actor shell, `dex_harness::nodes::OneShotActor`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bosco;
pub mod crash;
mod underlying_only;

pub use bosco::{BoscoMsg, BoscoProcess};
pub use crash::{CrashMsg, CrashOneStep, CrashRule};
pub use underlying_only::UnderlyingOnlyProcess;

use dex_obs::{obs_code, EventKind, Recorder, Scheme, ViewTag};
use dex_types::{Decision, DecisionPath, ProcessId, Value, View};

/// Writes `from`'s entry of a receipt view unless it is already set — first
/// value wins, so a Byzantine sender cannot steer the view after it was
/// evaluated — and records the fresh entry as a `ViewSet` event.
fn set_first<V: Value>(view: &mut View<V>, obs: &mut Recorder, from: ProcessId, v: &V) {
    if view.get(from).is_none() {
        if obs.is_active() {
            obs.record(EventKind::ViewSet {
                view: ViewTag::J1,
                origin: from.index() as u16,
                code: obs_code(v),
            });
        }
        view.set(from, v);
    }
}

/// Builds the decision of `value` via `path` and records its `Decide`
/// event.
fn decide<V: Value>(obs: &mut Recorder, value: V, path: DecisionPath) -> Decision<V> {
    obs.record(EventKind::Decide {
        scheme: match path {
            DecisionPath::OneStep => Scheme::OneStep,
            DecisionPath::TwoStep => Scheme::TwoStep,
            DecisionPath::Underlying => Scheme::Fallback,
        },
        code: obs_code(&value),
    });
    Decision { value, path }
}
