//! Synonym detection (the paper's Section III-B) with pluggable
//! strategies.
//!
//! Each address space owns a [`SynonymFilter`], which dispatches to one
//! of two [`SynonymStrategy`] implementations selected by
//! [`FilterKind`]:
//!
//! * [`FilterKind::Bloom`] — the paper's pair of 1K-bit Bloom filters,
//!   one at 16 MB granularity and one at 32 KB granularity, each
//!   indexed by two XOR-folding hash functions. An address is reported
//!   as a *synonym candidate* only when all four addressed bits are
//!   set, which keeps false positives low; false negatives are
//!   impossible by construction, which is the property correctness
//!   rests on.
//! * [`FilterKind::Rlt`] — an exact reverse lookup table (after
//!   arXiv 2108.00444) keyed by fine-granularity region, bounded to
//!   [`RLT_CAPACITY`] entries; regions shared beyond that bound
//!   overflow into a conservative-positive Bloom filter so eviction
//!   never produces a false negative.
//!
//! The operating system owns filter contents: it inserts a page when
//! its status changes to shared (synonym), removes it when the
//! transition reverses (exact under the RLT, deferred-to-rebuild under
//! Bloom), and rebuilds the filter from the page tables when too much
//! stale state accumulates ([`SynonymFilter::clear`] + re-insertion).
//!
//! For virtualized systems a guest-OS filter and a hypervisor (host)
//! filter are both plain [`SynonymFilter`]s indexed with the *guest
//! virtual* address; the simulation engine in `hvc-core` probes both
//! and a hit in either reports a candidate (Section V-A).
//!
//! # Examples
//!
//! ```
//! use hvc_filter::SynonymFilter;
//! use hvc_types::VirtAddr;
//!
//! let mut f = SynonymFilter::new();
//! f.insert_page(VirtAddr::new(0x7000_0000));
//! assert!(f.is_candidate(VirtAddr::new(0x7000_0123)));
//! // Never a false negative:
//! assert!(f.is_candidate(VirtAddr::new(0x7000_0fff)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bloom;
mod strategy;
mod synonym;

pub use bloom::BloomFilter;
pub use strategy::{BloomPair, FilterKind, RltFilter, SynonymStrategy, RLT_CAPACITY};
pub use synonym::{SynonymFilter, COARSE_SHIFT, FILTER_BITS, FINE_SHIFT};
