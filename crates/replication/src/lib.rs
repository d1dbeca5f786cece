//! A replicated state machine built on DEX — the paper's motivating
//! application (§1.1) as an actual substrate.
//!
//! "The replicated servers need to agree on the processing order of the
//! update requests. If a client broadcasts its request to all servers and
//! there is no contention, then all servers propose the same request as
//! the candidate they will handle next." — this crate turns that paragraph
//! into code:
//!
//! * [`Command`] — the replicated operations of a small key-value store.
//! * [`KvStore`] — the deterministic state machine, with a state digest
//!   for cross-replica comparison.
//! * [`ReplicatedLog`] — the slot-indexed command log with in-order apply.
//! * [`Replica`] — a simulation actor running **one DEX instance per log
//!   slot** (proposals move to the next slot once the previous one
//!   commits), multiplexing all slot traffic over a single channel and
//!   applying committed commands in order. With
//!   [`Replica::enable_pipelining`] the chain becomes a sliding window:
//!   up to `W` slots run concurrently past the committed prefix, slot
//!   state is pooled and recycled via [`SlotMux`], and same-window UC
//!   fallbacks coalesce into one batched round (see DESIGN.md §13).
//!
//! Under low request contention almost every slot commits on DEX's
//! one-step path; the tests verify that all correct replicas end with
//! byte-identical logs and store digests even with a Byzantine replica in
//! the group.
//!
//! # Examples
//!
//! ```
//! use dex_replication::{run_generic_cluster, Command, GenericClusterOptions, KvStore};
//! use dex_types::SystemConfig;
//!
//! let outcome = run_generic_cluster::<KvStore>(GenericClusterOptions::new(
//!     SystemConfig::new(7, 1)?,
//!     // Each replica observed the same two client requests.
//!     vec![vec![Command::put(1, 10), Command::put(2, 20)]; 7],
//!     2, // log slots to commit
//!     1, // seed
//! ));
//! assert!(outcome.converged());
//! assert_eq!(outcome.logs[0].as_ref().unwrap().len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod command;
mod kvstore;
mod log;
mod machine;
mod mux;
mod replica;
mod wal;

pub use command::Command;
pub use kvstore::KvStore;
pub use log::{CommitOutcome, ReplicatedLog};
pub use machine::{StateMachine, TotalOrder};
pub use mux::{Checkout, SlotInstance, SlotMux};
pub use replica::{
    build_cluster, collect_outcome, replica_msg_bytes, replica_msg_class, run_generic_cluster,
    GenericClusterOptions, GenericClusterOutcome, Node, Replica, ReplicaMsg, SlotMsg, SlotPath,
};
pub use wal::{Durability, FileWal, MemWal, Snapshot, Wal, WalCodec, WalRecord};
