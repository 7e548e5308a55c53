//! Runtime correctness-check hooks.
//!
//! The simulators accept an optional [`CheckHooks`] implementation and
//! call it at well-defined points (access boundaries, flush
//! application). When no hooks are installed the cost is a single
//! branch per call site, so production sweeps pay nothing; the
//! `hvc-check` crate installs hooks that audit the paper's correctness
//! invariants (most importantly: the OS flush-request queue must be
//! empty whenever a new access can observe cache or TLB state).

use crate::{Asid, PhysAddr, PhysFrame, VirtAddr};

/// Callbacks invoked by the simulators when checking is enabled.
///
/// All methods have empty default bodies so an implementation only
/// overrides the events it cares about. Implementations that need to
/// expose results to an external observer typically wrap shared state
/// (e.g. `Rc<RefCell<…>>`) — the simulator owns the hook itself.
pub trait CheckHooks {
    /// Called after every simulated reference with the number of
    /// OS-requested flushes still queued. A non-zero count means a
    /// kernel operation's shootdowns were not applied before the next
    /// access could observe a stale line — a violation of the paper's
    /// single-name discipline.
    fn access_boundary(&mut self, refs: u64, pending_flushes: usize) {
        let _ = (refs, pending_flushes);
    }

    /// Called whenever the simulator drains and applies a batch of
    /// flush requests from the OS (`count` requests were applied).
    fn flushes_applied(&mut self, count: usize) {
        let _ = count;
    }

    /// Called after the many-segment translator resolves `vaddr` of
    /// `asid` to `pa`, with the frame the page table maps there (`None`
    /// when the page is unmapped). A mapped page whose frame differs
    /// from `pa`'s means the translator served a stale segment.
    fn segment_translation(
        &mut self,
        asid: Asid,
        vaddr: VirtAddr,
        pa: PhysAddr,
        page_table: Option<PhysFrame>,
    ) {
        let _ = (asid, vaddr, pa, page_table);
    }
}

/// A no-op [`CheckHooks`] implementation (checking disabled explicitly).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoChecks;

impl CheckHooks for NoChecks {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bodies_are_no_ops() {
        let mut h = NoChecks;
        h.access_boundary(1, 0);
        h.flushes_applied(3);
        h.segment_translation(Asid::new(1), VirtAddr::new(0), PhysAddr::new(0), None);
    }
}
