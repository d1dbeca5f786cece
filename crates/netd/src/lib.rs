//! `dex-netd` — the real-deployment runtime: one OS process per
//! consensus participant, localhost TCP between them.
//!
//! The third point on the repo's runtime spectrum, selected through the
//! unified [`RuntimeSpec`](dex_harness::spec::RuntimeSpec) surface:
//!
//! | runtime       | processes      | transport          | clock        |
//! |---------------|----------------|--------------------|--------------|
//! | `simnet`      | one, simulated | in-memory queue    | virtual      |
//! | `threadnet`   | OS threads     | crossbeam channels | wall (µs)    |
//! | **`netd`**    | **OS processes** | **TCP + wire codec** | wall (µs) |
//!
//! The same [`Actor`](dex_simnet::Actor) implementations run on all
//! three; netd adds what a real deployment adds — serialization
//! ([`codec`]), framing with torn-tail tolerance ([`frame`]), connection
//! management with reconnect/backoff/buffering ([`conn`]) — and what a
//! real deployment threatens: the cluster harness ([`cluster`]) kills a
//! child with an actual `SIGKILL` and requires the respawned process to
//! recover through its [`FileWal`](dex_replication::FileWal) and the
//! catch-up protocol. No async runtime is involved, because the
//! workspace vendors its dependencies and tokio is not one of them: an
//! endpoint is two plain threads, the event loop ([`endpoint`]) and its
//! mesh's one I/O thread, which owns every socket and waits on them in
//! `poll(2)` ([`conn`]).

#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod codec;
pub mod conn;
pub mod endpoint;
pub mod frame;
pub mod listener;

pub use chaos::{ChaosRuntime, TearPoint};
pub use cluster::{run_cluster, ClusterOpts, Phase};
pub use codec::WireCodec;
pub use conn::{Mesh, MeshCounters};
pub use endpoint::Endpoint;
pub use frame::{FrameBuf, FrameError, MAX_FRAME};
