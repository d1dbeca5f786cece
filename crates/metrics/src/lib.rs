//! Statistics and table rendering for the experiment harness.
//!
//! Three small tools:
//!
//! * [`Summary`] — streaming numeric summary (count / mean / min / max /
//!   percentiles) used for step counts and latencies.
//! * [`Counter`] — categorical frequency counts with fraction helpers, used
//!   for decision-path histograms.
//! * [`Table`] — plain-text table builder with aligned columns plus CSV
//!   output, used by the `dex-figures` binary that regenerates the paper's
//!   tables and figures.
//!
//! # Examples
//!
//! ```
//! use dex_metrics::Summary;
//! let mut s = Summary::new();
//! for x in [1.0, 2.0, 3.0, 4.0] { s.add(x); }
//! assert_eq!(s.mean(), 2.5);
//! assert_eq!(s.min(), Some(1.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod histogram;
mod summary;
mod table;

pub use counter::Counter;
pub use histogram::Histogram;
pub use summary::{nearest_rank, Summary};
pub use table::Table;
