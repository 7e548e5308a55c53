//! Correctness violations reported by the checkers.

use std::fmt;

/// One detected violation of the paper's correctness model.
///
/// Each variant corresponds to an invariant the hybrid design must
/// preserve; any of them surfacing means a flush/downgrade request was
/// lost, applied late, or the synonym-tracking state went stale.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The scheme under test and the physically-addressed reference
    /// machine disagree about the accessed page's translation (frame,
    /// permissions or synonym status).
    OracleDivergence {
        /// Address space of the diverging page.
        asid: u16,
        /// Virtual page number of the diverging page.
        vpn: u64,
        /// What differed.
        detail: String,
    },
    /// One physical block is reachable under two names in the hierarchy
    /// (with at least one of them writable), breaking the single-name
    /// guarantee.
    SingleName {
        /// Machine line address reachable under both names.
        line: u64,
        /// First name.
        a: String,
        /// Second name.
        b: String,
    },
    /// A virtually tagged line survived the unmap / ASID destruction of
    /// its page — a flush request was dropped.
    StaleLine {
        /// The stale block name.
        name: String,
    },
    /// A TLB holds a translation that no longer matches the page tables
    /// (wrong frame, or writable where the OS downgraded to read-only).
    TlbStale {
        /// Which TLB ("dtlb", "synonym_tlb", "delayed_tlb", "gva_tlb",
        /// or "range_tlb" for an RMM entry, whose `vpn` is its base).
        tlb: &'static str,
        /// Address space of the stale entry.
        asid: u16,
        /// Virtual page number of the stale entry.
        vpn: u64,
        /// What is stale about it.
        detail: String,
    },
    /// The many-segment translator resolved a mapped page to a frame
    /// other than the page table's — it still mirrors a segment the OS
    /// removed or moved.
    SegmentStale {
        /// Address space of the translated page.
        asid: u16,
        /// Virtual page number of the translated page.
        vpn: u64,
        /// The two frames.
        detail: String,
    },
    /// A page the OS marked as a synonym is not a candidate in its
    /// space's filter — a false negative, which the paper's design must
    /// never produce.
    FilterFalseNegative {
        /// Address space whose filter misses the page.
        asid: u16,
        /// Virtual page number of the missed synonym page.
        vpn: u64,
    },
    /// OS-requested flushes were still queued at an access boundary —
    /// a kernel operation's shootdowns were drained too late.
    PendingFlushes {
        /// Queued (undrained) requests observed.
        pending: usize,
    },
    /// The scheme under test and the reference machine disagree about a
    /// whole space's synonym partition (the set of shared pages).
    PartitionDivergence {
        /// Address space whose partition diverged.
        asid: u16,
        /// What differed.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::OracleDivergence { asid, vpn, detail } => {
                write!(f, "oracle divergence: asid {asid} vpn {vpn:#x}: {detail}")
            }
            Violation::SingleName { line, a, b } => {
                write!(f, "single-name violation: machine line {line:#x} named by both {a} and {b}")
            }
            Violation::StaleLine { name } => {
                write!(f, "stale line: {name} survives with no mapping")
            }
            Violation::TlbStale {
                tlb,
                asid,
                vpn,
                detail,
            } => write!(f, "stale {tlb} entry: asid {asid} vpn {vpn:#x}: {detail}"),
            Violation::SegmentStale { asid, vpn, detail } => {
                write!(f, "stale segment translation: asid {asid} vpn {vpn:#x}: {detail}")
            }
            Violation::FilterFalseNegative { asid, vpn } => write!(
                f,
                "filter false negative: asid {asid} vpn {vpn:#x} is a synonym page but not a candidate"
            ),
            Violation::PendingFlushes { pending } => write!(
                f,
                "{pending} flush request(s) still queued at an access boundary"
            ),
            Violation::PartitionDivergence { asid, detail } => {
                write!(f, "synonym-partition divergence: asid {asid}: {detail}")
            }
        }
    }
}
