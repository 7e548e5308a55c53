//! Observability primitives for the HVC simulator.
//!
//! The paper's delayed-translation argument is a *tail-latency* story:
//! translation work moves off the critical path, which averages alone
//! cannot show. This crate provides the three measurement tools the
//! rest of the workspace wires through its models:
//!
//! * [`LatencyHistogram`] — a log₂-bucketed, allocation-free histogram
//!   with p50/p95/p99/max readout. Merging two histograms gives exactly
//!   the histogram of both sample sets, which is how a report folds the
//!   per-core walkers' histograms into one.
//! * [`CycleAttribution`] — a ledger splitting every demand memory
//!   access's cycles into named [`Component`]s (L1/L2/LLC hit,
//!   synonym TLB, delayed walk, index cache, segment cache, DRAM, …),
//!   with the invariant that the components sum to the total memory
//!   cycles recorded in the latency histogram.
//! * [`EventTracer`] — a bounded ring buffer of [`TraceEvent`] spans
//!   that `hvc-runner` serializes into Chrome `trace_event` JSON for
//!   `about:tracing`; costs nothing when disabled.
//!
//! # Examples
//!
//! ```
//! use hvc_obs::LatencyHistogram;
//! use hvc_types::Cycles;
//!
//! // Two cores' walk latencies fold into one run-wide histogram.
//! let mut core0 = LatencyHistogram::default();
//! let mut core1 = LatencyHistogram::default();
//! core0.record(Cycles::new(4));
//! core1.record(Cycles::new(900));
//! core0.merge_from(&core1);
//! assert_eq!(core0.count(), 2);
//! assert_eq!(core0.max(), 900);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attr;
mod hist;
mod tracer;

pub use attr::{Component, CycleAttribution, ObsReport};
pub use hist::{LatencyHistogram, BUCKETS};
pub use tracer::{EventTracer, TraceEvent};
