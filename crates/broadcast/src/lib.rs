//! Broadcast primitives: the paper's **Identical Broadcast** (appendix,
//! Fig. 3) and a Bracha-style **Reliable Broadcast**.
//!
//! Identical Broadcast (IDB) guarantees that all correct processes deliver
//! the *same* message for a given sender, **even when the sender is
//! Byzantine and equivocates** (Fig. 2). Its specification:
//!
//! * **Termination** — if a correct process `Id-Send`s `m`, every correct
//!   process eventually `Id-Receive`s `m`.
//! * **Agreement** — two correct processes never `Id-Receive` different
//!   messages for the same sender.
//! * **Validity** — each correct process `Id-Receive`s exactly once per
//!   sender, and only if that sender `Id-Send`-ed the message (when the
//!   sender is correct).
//!
//! The implementation needs `n > 4t` (Theorem 4) and costs exactly **two
//! point-to-point steps** per IDB step: an `init` flood followed by an
//! `echo` flood with amplification at `n − 2t` and acceptance at `n − t`.
//!
//! Both primitives are implemented as *transport-agnostic state machines*:
//! callers feed in received messages and get back a list of
//! [`Action`]s (messages to broadcast, deliveries to consume). This lets the
//! same code run inside the `dex-simnet` discrete-event simulator, the
//! threaded `dex-threadnet` runtime, and plain unit tests.
//!
//! Broadcast instances are identified by an [`InstanceKey`] carrying the
//! originating process: [`ProcessId`](dex_types::ProcessId) itself for
//! single-shot use (as in Algorithm DEX), or `(ProcessId, tag)` for repeated
//! use (as in the round-based underlying consensus). The key type also
//! picks where a machine keeps its instances: a dense table indexed by
//! origin for `ProcessId`, a hash map for tagged keys.
//!
//! # Examples
//!
//! Driving IDB by hand for `n = 5, t = 1` (so `n − 2t = 3`, `n − t = 4`):
//!
//! ```
//! use dex_broadcast::{Action, IdbMessage, IdenticalBroadcast};
//! use dex_types::{ProcessId, SystemConfig};
//!
//! let cfg = SystemConfig::new(5, 1)?;
//! let mut idb: IdenticalBroadcast<ProcessId, u64> = IdenticalBroadcast::new(cfg);
//!
//! // p0 Id-Sends 7: it broadcasts the init message.
//! let init = IdenticalBroadcast::<ProcessId, u64>::id_send(ProcessId::new(0), 7);
//!
//! // Our process receives the init from p0 and echoes.
//! let actions = idb.on_message(ProcessId::new(0), &init);
//! assert!(matches!(actions[0], Action::Broadcast(_)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
// Quorum thresholds are written exactly as in the papers (t + 1, 2t + 1, …).
#![allow(clippy::int_plus_one)]
#![warn(missing_docs)]

mod aggregate;
mod idb;
mod key;
mod reliable;
mod witness;

pub use aggregate::{EchoAggregator, RETAINED_CAPACITY};
pub use idb::{IdbMessage, IdbVerdict, IdenticalBroadcast};
pub use key::InstanceKey;
pub use reliable::{RbMessage, ReliableBroadcast};

/// An output of a broadcast state machine.
///
/// The transport layer executes `Broadcast` actions (sending the message to
/// **all** processes, including the local one) and hands `Deliver` actions to
/// the application layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Action<K, M, V> {
    /// Broadcast this protocol message to every process.
    Broadcast(M),
    /// The broadcast identified by `key` delivered `value`
    /// (`Id-Receive` / `RB-Deliver`).
    Deliver {
        /// The instance that completed.
        key: K,
        /// The delivered value.
        value: V,
    },
}
