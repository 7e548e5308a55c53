//! Operating-system substrate for the HVC simulator.
//!
//! The paper's mechanisms are HW/SW co-designed: the OS owns the synonym
//! filters, the page tables (with a per-page *shared* bit), the
//! system-wide segment table for many-segment translation, and the
//! TLB-shootdown machinery that propagates all of those to other cores.
//! This crate provides that OS:
//!
//! * [`BuddyAllocator`] — physical-frame management with contiguous
//!   (eager) allocation, the source of segment contiguity and of external
//!   fragmentation,
//! * [`PageTable`] — 4-level x86-64 radix tables whose node addresses are
//!   real simulated physical addresses (so page walks generate memory
//!   references),
//! * [`AddressSpace`] / [`Kernel`] — processes, VMAs, the two
//!   [`AllocPolicy`]s (demand paging, and eager segments as in Redundant
//!   Memory Mappings), shared-memory objects (synonym pages), read-only
//!   content sharing, DMA pinning, and shootdown accounting.
//!
//! # Examples
//!
//! ```
//! use hvc_os::{AllocPolicy, Kernel, MapIntent};
//! use hvc_types::{Permissions, VirtAddr};
//!
//! # fn main() -> Result<(), hvc_types::HvcError> {
//! let mut kernel = Kernel::new(4 << 30, AllocPolicy::DemandPaging);
//! let asid = kernel.create_process()?;
//! kernel.mmap(asid, VirtAddr::new(0x1000_0000), 1 << 20, Permissions::RW, MapIntent::Private)?;
//! let pte = kernel.translate_touch(asid, VirtAddr::new(0x1000_0040))?;
//! assert!(!pte.shared, "private pages are non-synonym");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addrspace;
mod frame;
mod kernel;
mod pagetable;
mod segment;
mod shm;
mod shootdown;

pub use addrspace::{AddressSpace, Vma};
pub use frame::{BuddyAllocator, MAX_BLOCK_FRAMES};
pub use hvc_filter::FilterKind;
pub use kernel::{AllocPolicy, FlushRequest, Kernel, KernelStats, MapIntent};
pub use pagetable::{PageTable, Pte, WalkPath, MAX_PHYS_BYTES, PTE_FRAMES, PT_LEVELS};
pub use segment::{Segment, SegmentId, SegmentTable};
pub use shm::ShmId;
pub use shootdown::{ShootdownCost, ShootdownModel};
