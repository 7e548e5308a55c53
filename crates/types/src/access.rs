//! Memory-reference trace records.
//!
//! The simulator is trace-driven: workload generators in `hvc-workloads`
//! produce streams of [`TraceItem`]s that the core model in `hvc-core`
//! consumes. Each item carries a memory reference plus the number of
//! non-memory instructions that retire before it, which is all the timing
//! model needs to approximate an out-of-order core.

use crate::{Asid, Permissions, VirtAddr};
use core::fmt;

/// The kind of a memory access.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A data load.
    Read,
    /// A data store.
    Write,
    /// An instruction fetch.
    Fetch,
}

impl AccessKind {
    /// Returns `true` for stores.
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }

    /// Returns `true` for instruction fetches.
    #[inline]
    pub const fn is_fetch(self) -> bool {
        matches!(self, AccessKind::Fetch)
    }

    /// The permission bits an access of this kind requires — the check
    /// hardware performs at the TLB and the OS performs on a fault.
    #[inline]
    pub const fn required_permissions(self) -> Permissions {
        match self {
            AccessKind::Read => Permissions::READ,
            AccessKind::Write => Permissions::WRITE,
            AccessKind::Fetch => Permissions::EXEC,
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "R"),
            AccessKind::Write => write!(f, "W"),
            AccessKind::Fetch => write!(f, "F"),
        }
    }
}

/// A single memory reference issued by some address space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemRef {
    /// Issuing address space.
    pub asid: Asid,
    /// Virtual address accessed.
    pub vaddr: VirtAddr,
    /// Load / store / fetch.
    pub kind: AccessKind,
}

impl MemRef {
    /// Creates a data-load reference.
    #[inline]
    pub fn read(asid: Asid, vaddr: VirtAddr) -> Self {
        MemRef {
            asid,
            vaddr,
            kind: AccessKind::Read,
        }
    }

    /// Creates a data-store reference.
    #[inline]
    pub fn write(asid: Asid, vaddr: VirtAddr) -> Self {
        MemRef {
            asid,
            vaddr,
            kind: AccessKind::Write,
        }
    }

    /// Creates an instruction-fetch reference.
    #[inline]
    pub fn fetch(asid: Asid, vaddr: VirtAddr) -> Self {
        MemRef {
            asid,
            vaddr,
            kind: AccessKind::Fetch,
        }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {} {}]", self.asid, self.kind, self.vaddr)
    }
}

/// One unit of trace: a memory reference preceded by `gap` non-memory
/// instructions.
///
/// The instruction count of a trace is `sum(gap + 1)` over its items (each
/// memory reference is itself one instruction).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceItem {
    /// Non-memory instructions retiring before this reference.
    pub gap: u32,
    /// The memory reference.
    pub mref: MemRef,
}

impl TraceItem {
    /// Creates a trace item.
    #[inline]
    pub fn new(gap: u32, mref: MemRef) -> Self {
        TraceItem { gap, mref }
    }

    /// Instructions represented by this item (the gap plus the reference
    /// itself).
    #[inline]
    pub fn instructions(&self) -> u64 {
        u64::from(self.gap) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let a = Asid::new(2);
        assert_eq!(MemRef::read(a, VirtAddr::new(0)).kind, AccessKind::Read);
        assert_eq!(MemRef::write(a, VirtAddr::new(0)).kind, AccessKind::Write);
        assert_eq!(MemRef::fetch(a, VirtAddr::new(0)).kind, AccessKind::Fetch);
        assert!(AccessKind::Write.is_write());
        assert!(AccessKind::Fetch.is_fetch());
        assert!(!AccessKind::Read.is_write());
    }

    #[test]
    fn display_formats() {
        let m = MemRef::read(Asid::new(1), VirtAddr::new(0x40));
        assert_eq!(format!("{m}"), "[1 R 0x40]");
    }
}
