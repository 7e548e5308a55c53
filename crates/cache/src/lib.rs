//! Set-associative cache hierarchy with hybrid virtual/physical block
//! naming and MESI-style coherence.
//!
//! The defining property of the paper's hybrid virtual caching is that the
//! *entire* hierarchy — L1 through the shared LLC, including the coherence
//! protocol — operates on a single unique name per physical block:
//! `ASID ++ VA` for non-synonym pages and the physical address for synonym
//! pages ([`hvc_types::BlockName`]). This crate implements that hierarchy:
//!
//! * [`Cache`] — one set-associative level, keyed by [`hvc_types::BlockName`],
//!   with LRU replacement, dirty bits and per-line permission bits (the
//!   paper's Figure 2 tag extension),
//! * [`Hierarchy`] — per-core L1I/L1D/L2 backed by a shared inclusive LLC
//!   with MESI-style sharer tracking,
//! * page-granularity flush operations used by the OS substrate for
//!   remaps, permission changes and synonym-status transitions, applied
//!   one drained shootdown at a time as an order-free [`FlushOp`] batch.
//!
//! # Examples
//!
//! ```
//! use hvc_cache::{Hierarchy, HierarchyConfig};
//! use hvc_types::{AccessKind, Asid, BlockName, LineAddr};
//!
//! let mut h = Hierarchy::new(HierarchyConfig::isca2016(1));
//! let name = BlockName::Virt(Asid::new(1), LineAddr::new(0x40));
//! let first = h.access(0, name, AccessKind::Read);
//! assert!(first.llc_miss()); // cold
//! let second = h.access(0, name, AccessKind::Read);
//! assert_eq!(second.hit_level, Some(0)); // L1 hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod hierarchy;
mod stats;

pub use cache::{Cache, Victim};
pub use config::{CacheConfig, HierarchyConfig};
pub use hierarchy::{AccessResult, FlushOp, Hierarchy};
pub use stats::{CacheStats, LevelStats};
