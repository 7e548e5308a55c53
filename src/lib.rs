//! # hvc — Hybrid Virtual Caching
//!
//! A production-quality Rust reproduction of *"Efficient Synonym
//! Filtering and Scalable Delayed Translation for Hybrid Virtual
//! Caching"* (ISCA 2016): a full-system simulation stack in which the
//! entire cache hierarchy is virtually addressed for non-synonym pages,
//! synonyms are detected by OS-maintained Bloom filters, and address
//! translation is delayed until LLC misses — by a large delayed TLB or by
//! scalable many-segment translation.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | addresses, ASIDs, permissions, traces |
//! | [`mem`] | DDR3-style DRAM timing |
//! | [`cache`] | hybrid-tagged cache hierarchy + coherence |
//! | [`os`] | kernel: frames, page tables, segments, sharing |
//! | [`filter`] | Bloom-filter synonym detection |
//! | [`tlb`] | TLBs and hardware page walking |
//! | [`trace`] | binary trace capture / replay |
//! | [`obs`] | latency histograms, cycle attribution, event tracing |
//! | [`segment`] | many-segment delayed translation + RMM baseline |
//! | [`virt`] | hypervisor and nested (2D) translation |
//! | [`core`] | translation schemes, system simulator, energy model |
//! | [`mc`] | multi-core driver: per-core clocks, quanta, TLB shootdown timing |
//! | [`workloads`] | synthetic application trace generators |
//! | [`check`] | differential oracle + invariant checking |
//! | [`runner`] | parallel experiment sweeps + JSON reports |
//! | [`serve`] | HTTP experiment server: memoizing cache + resumable sweeps |
//!
//! # Quickstart
//!
//! ```
//! use hvc::core::{SystemConfig, SystemSim, TranslationScheme};
//! use hvc::os::{AllocPolicy, Kernel};
//! use hvc::workloads::apps;
//!
//! # fn main() -> Result<(), hvc::types::HvcError> {
//! // Boot an OS, install a workload, pick an architecture, simulate.
//! let mut kernel = Kernel::new(4 << 30, AllocPolicy::DemandPaging);
//! let mut workload = apps::gups(16 << 20).instantiate(&mut kernel, 42)?;
//! let mut sim = SystemSim::new(
//!     kernel,
//!     SystemConfig::isca2016(),
//!     TranslationScheme::HybridDelayedTlb(4096),
//! );
//! let report = sim.run(&mut workload, 50_000);
//! println!("IPC = {:.3}", report.ipc());
//! assert!(report.translation.l1_tlb_lookups == 0, "TLB bypassed for private pages");
//! # Ok(())
//! # }
//! ```

pub use hvc_cache as cache;
pub use hvc_check as check;
pub use hvc_core as core;
pub use hvc_filter as filter;
pub use hvc_mc as mc;
pub use hvc_mem as mem;
pub use hvc_obs as obs;
pub use hvc_os as os;
pub use hvc_runner as runner;
pub use hvc_segment as segment;
pub use hvc_serve as serve;
pub use hvc_tlb as tlb;
pub use hvc_trace as trace;
pub use hvc_types as types;
pub use hvc_virt as virt;
pub use hvc_workloads as workloads;
