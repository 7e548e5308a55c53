//! Core types shared across the Hybrid Virtual Caching (HVC) simulator.
//!
//! This crate defines the strongly-typed vocabulary of the simulator:
//! virtual / physical / guest-physical addresses, address-space and
//! virtual-machine identifiers, cycle counts, access permissions and the
//! trace records that drive the timing model.
//!
//! The newtypes follow the paper's address-space conventions:
//!
//! * virtual addresses are 48-bit canonical (x86-64),
//! * physical (machine) addresses are up to 52 bits,
//! * address-space identifiers (ASIDs) are 16 bits, wide enough to embed a
//!   virtual-machine identifier (VMID) in the upper bits for virtualized
//!   systems,
//! * cache blocks in the hybrid hierarchy are named by **either** a
//!   physical line address (synonym pages) **or** `ASID ++ VA` (non-synonym
//!   pages) — see [`BlockName`].
//!
//! # Examples
//!
//! ```
//! use hvc_types::{VirtAddr, PAGE_SIZE};
//!
//! let va = VirtAddr::new(0x7fff_dead_b000);
//! assert_eq!(va.page_offset(), 0);
//! assert_eq!(va.page_number().base().as_u64(), 0x7fff_dead_b000);
//! assert_eq!(VirtAddr::new(0x1234).align_down(PAGE_SIZE).as_u64(), 0x1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod addr;
mod cycles;
mod error;
mod fx;
mod ids;
mod lru;
mod lru_sets;
mod perm;

pub use access::{AccessKind, MemRef, TraceItem};
pub use addr::{
    GuestPhysAddr, LineAddr, PhysAddr, PhysFrame, VirtAddr, VirtPage, LINE_SHIFT, LINE_SIZE,
    PAGE_SHIFT, PAGE_SIZE, PHYS_ADDR_BITS, VIRT_ADDR_BITS,
};
pub use cycles::Cycles;
pub use error::{HvcError, Result};
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use ids::{Asid, BlockName, Vmid};
pub use lru::LruTags;
pub use lru_sets::LruSets;
pub use perm::Permissions;
