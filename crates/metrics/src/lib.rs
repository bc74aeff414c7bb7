//! # sherman-metrics — measurement utilities for the Sherman reproduction
//!
//! The paper reports throughput (Mops), median / 99th-percentile latency, and
//! several internal distributions (round trips per operation, write sizes,
//! read retries).  This crate provides the small, dependency-free measurement
//! toolkit used by the benchmark harness and the examples:
//!
//! * [`LatencyHistogram`] — a log-bucketed histogram with small relative
//!   error, suitable for virtual-nanosecond latencies spanning `1 ns ..= ~1 h`,
//! * [`CountHistogram`] — an exact histogram over small integer values
//!   (round trips, retries),
//! * [`SizeHistogram`] — an exact histogram over byte sizes with helpers for
//!   CDF-style reporting,
//! * [`ThroughputAggregator`] and [`RunSummary`] — combine per-thread
//!   measurements into the rows the paper's tables print,
//! * [`Counter`] and [`counters!`] — a relaxed atomic counter cell, and the
//!   macro every counter family of the workspace is declared with (one line
//!   per field; getters, snapshot, `merge` and `delta_since` generated),
//! * [`EpochGauges`] — observability for the epoch-based reclamation
//!   subsystem (epoch lag, pinned readers, pinned buckets),
//! * [`OverlapGauges`] — observability for the split-phase fabric: in-flight
//!   verb depth and overlapped-vs-serial virtual time under the pipelined
//!   scheduler,
//! * [`BackpressureCounters`] — observability for allocation under memory
//!   pressure: chunk denials, free-list rescue reuses, and typed exhaustion
//!   events instead of panics,
//! * [`CoherenceGauges`] — observability for the fabric-delivered cache
//!   coherence channel: messages posted/applied, apply lag in virtual ns,
//!   and stale hits served during the window,
//! * [`OffloadGauges`] — observability for adaptive server-side traversal
//!   offload: placement decisions, win/loss outcomes, interpreter declines,
//!   and the read-latency EWMA the policy thresholds against.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod backpressure;
pub mod coherence;
pub mod counter;
pub mod counts;
pub mod epoch;
pub mod latency;
pub mod offload;
pub mod overlap;
pub mod space;
pub mod summary;

pub use backpressure::{BackpressureCounters, BackpressureSnapshot};
pub use coherence::{CoherenceCounters, CoherenceGauges};
pub use counter::Counter;
pub use counts::{CountHistogram, SizeHistogram};
pub use epoch::EpochGauges;
pub use latency::LatencyHistogram;
pub use offload::{OffloadCounters, OffloadGauges};
pub use overlap::OverlapGauges;
pub use space::{SpaceCounters, SpaceSnapshot};
pub use summary::{RunSummary, ThreadReport, ThroughputAggregator};
