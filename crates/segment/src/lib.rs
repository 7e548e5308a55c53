//! Scalable delayed translation with many variable-length segments
//! (the paper's Section IV).
//!
//! After an LLC miss, a non-synonym `ASID ++ VA` address is translated by:
//!
//! 1. the [`SegmentCache`] — a small 128-entry, 2 MB-granularity TLB-like
//!    structure caching recent segment translations,
//! 2. on a miss, a traversal of the in-memory B-tree [`IndexTree`]
//!    (sorted by `ASID ++ VA`) through the physically-addressed
//!    [`IndexCache`] (8-way, 64 B blocks), yielding a segment id,
//! 3. a lookup of the 2048-entry hardware segment table (whose entries
//!    the tree's leaves carry) and a base/limit check + offset add.
//!
//! [`SegmentWalk`] is steps 2 and 3 over one segment table, written once
//! for native and two-dimensional translation; [`ManySegmentTranslator`]
//! puts the segment cache in front of it. [`Rmm`] provides the
//! 32-segment, core-side Redundant-Memory-Mapping baseline the paper
//! compares against in Table III.
//!
//! # Examples
//!
//! ```
//! use hvc_os::{AllocPolicy, Kernel, MapIntent};
//! use hvc_segment::ManySegmentTranslator;
//! use hvc_types::{Cycles, Permissions, VirtAddr};
//!
//! # fn main() -> Result<(), hvc_types::HvcError> {
//! let mut kernel = Kernel::new(1 << 30, AllocPolicy::EagerSegments { split: 1 });
//! let asid = kernel.create_process()?;
//! kernel.mmap(asid, VirtAddr::new(0x100000), 1 << 20, Permissions::RW, MapIntent::Private)?;
//!
//! let mut tr = ManySegmentTranslator::isca2016(kernel.segments());
//! let (pa, _cost) = tr
//!     .translate(asid, VirtAddr::new(0x100040), |_addr| Cycles::new(160))
//!     .expect("covered by a segment");
//! let pte = kernel.walk(asid, VirtAddr::new(0x100040).page_number()).unwrap().0;
//! assert_eq!(pa.frame_number(), pte.frame);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index_cache;
mod index_tree;
mod many;
mod rmm;
mod segment_cache;
mod walk;

pub use index_cache::{IndexCache, IndexCacheStats};
pub use index_tree::IndexTree;
pub use many::ManySegmentTranslator;
pub use rmm::Rmm;
pub use segment_cache::SegmentCache;
pub use walk::{SegmentCost, SegmentWalk};
