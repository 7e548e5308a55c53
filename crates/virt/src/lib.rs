//! Virtualization substrate: hypervisor memory management and
//! two-dimensional (nested) address translation (the paper's Section V).
//!
//! A [`Hypervisor`] hosts virtual machines, each with its own guest
//! [`hvc_os::Kernel`] managing *guest-physical* memory; a per-VM extended
//! page table (EPT) maps guest-physical frames to machine frames. Guest
//! ASIDs embed the VMID ([`hvc_types::Asid::for_vm`]) so virtually-tagged
//! cachelines never cross VMs.
//!
//! Synonym detection composes two [`hvc_filter::SynonymFilter`]s looked
//! up with the *guest virtual* address: the guest OS maintains the guest
//! filter; the hypervisor maintains the host filter
//! ([`Hypervisor::host_filter`]) for hypervisor-induced r/w sharing, and
//! the engine treats a hit in either as a synonym candidate. Content deduplication
//! ([`Hypervisor::dedup_ro`]) uses the read-only optimization and stays
//! out of the filters entirely.
//!
//! [`NestedWalker`] implements the full two-dimensional radix walk (up to
//! 24 memory references) with a nested TLB that short-circuits
//! guest-physical→machine translations, matching the "state-of-the-art
//! translation cache" baseline; [`NestedSegments`] implements delayed 2D
//! segment translation (guest + host segments with a gVA→MA segment
//! cache).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hypervisor;
mod nested;
mod nested_segments;

pub use hypervisor::{Hypervisor, VirtStats};
pub use nested::{NestedPte, NestedTlb, NestedWalker, NestedWalkerStats};
pub use nested_segments::NestedSegments;
