//! Measurement utilities for the Compressionless Routing reproduction.
//!
//! All of the paper's evaluation artifacts are latency/throughput curves
//! and counters; this crate provides the statistical plumbing:
//!
//! * [`OnlineStats`] — streaming mean/variance/min/max (Welford).
//! * [`Histogram`] — fixed-bin latency histograms with percentiles.
//! * [`LatencyRecorder`] — warmup-aware message-latency collection.
//! * [`ThroughputMeter`] — accepted-traffic measurement, normalized to
//!   flits per node per cycle like the paper's throughput axes.
//!
//! # Examples
//!
//! ```
//! use cr_metrics::{LatencyRecorder, ThroughputMeter};
//! use cr_sim::Cycle;
//!
//! let warmup = Cycle::new(1000);
//! let mut lat = LatencyRecorder::new(warmup);
//! lat.record(Cycle::new(500), Cycle::new(540));   // ignored: warmup
//! lat.record(Cycle::new(2000), Cycle::new(2032)); // counted
//! assert_eq!(lat.count(), 1);
//! assert_eq!(lat.mean(), 32.0);
//!
//! let mut thr = ThroughputMeter::new(warmup, 64);
//! thr.record_flits(Cycle::new(2000), 16);
//! let load = thr.flits_per_node_cycle(Cycle::new(3000));
//! assert!(load > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod latency;
mod stats;
mod throughput;

pub use histogram::Histogram;
pub use latency::LatencyRecorder;
pub use stats::OnlineStats;
pub use throughput::ThroughputMeter;
