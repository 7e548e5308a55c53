//! The hybrid virtual caching system: translation front-ends, a
//! trace-driven core timing model, the full system simulator, and the
//! translation energy model.
//!
//! This crate is the paper's primary contribution assembled from the
//! substrate crates:
//!
//! * [`TranslationScheme`] selects the architecture under test — the
//!   physically-addressed [baseline](TranslationScheme::Baseline), the
//!   hybrid virtual cache with a page-granularity
//!   [delayed TLB](TranslationScheme::HybridDelayedTlb) or with
//!   [many-segment translation](TranslationScheme::HybridManySegment),
//!   and an [ideal](TranslationScheme::Ideal) upper bound without
//!   translation costs; [`VirtScheme`] selects the virtualized
//!   equivalents (guest + host filters, nested walks or 2D segments),
//! * [`SystemSim`] runs a workload trace through the selected front-end,
//!   the hybrid cache hierarchy, delayed translation and DRAM — natively
//!   ([`SystemSim::new`]) or for one guest VM
//!   ([`SystemSim::virtualized`]) on the same engine, each scheme being
//!   one implementation of a private `Translator` trait (front path,
//!   delayed path, flush),
//! * [`EnergyModel`] converts event counts into translation energy, the
//!   paper's power claim.
//!
//! # Examples
//!
//! ```
//! use hvc_core::{SystemConfig, SystemSim, TranslationScheme};
//! use hvc_os::{AllocPolicy, Kernel};
//! use hvc_workloads::apps;
//!
//! # fn main() -> Result<(), hvc_types::HvcError> {
//! let mut kernel = Kernel::new(4 << 30, AllocPolicy::DemandPaging);
//! let mut wl = apps::gups(16 << 20).instantiate(&mut kernel, 7)?;
//! let mut sim = SystemSim::new(kernel, SystemConfig::isca2016(), TranslationScheme::Baseline);
//! let report = sim.run(&mut wl, 20_000);
//! assert!(report.ipc() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod core_model;
mod energy;
mod stats;
mod system;

pub use config::{SystemConfig, TranslationScheme, VirtScheme};
pub use core_model::CoreModel;
pub use energy::{EnergyBreakdown, EnergyModel};
/// Re-exported for callers that build a [`SystemSim::virtualized`] VM.
pub use hvc_virt::Hypervisor;
pub use stats::{PerCoreStats, RunReport, TranslationCounters};
pub use system::SystemSim;
