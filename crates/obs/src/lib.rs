//! `dex-obs` — structured trace/observability layer.
//!
//! A zero-allocation-on-hot-path event log ([`EventLog`]: a preallocated
//! chunked arena of compact, `Copy` [`Event`] records) behind a per-process
//! [`Recorder`] that protocol state machines thread through their hot
//! paths. A disabled recorder costs one branch per call site; an active
//! one costs an index bump into preallocated storage.
//!
//! On top of the logs sits a trace analyzer + invariant [`checker`]
//! replaying finished runs against the paper's lemma-derived runtime
//! invariants, and a deterministic [`json`] artifact writer (same seed ⇒
//! byte-identical `results/trace_<seed>.json`).
//!
//! Dependency direction: everything else depends on `dex-obs`, never the
//! reverse — the crate only knows about codes (`u64` value hashes via
//! [`obs_code`]) and process indices, not protocol types.

#![warn(missing_docs)]

mod event;
mod log;
mod recorder;

pub mod checker;
pub mod json;

pub use checker::{
    check, ChaosMeta, CheckReport, PipelineMeta, ProcessTrace, RunTrace, SchemeRules, TraceMeta,
    Violation,
};
pub use event::{obs_code, Event, EventKind, PredTag, Scheme, ViewTag};
pub use log::{EventLog, CHUNK_EVENTS};
pub use recorder::Recorder;
