//! The differential oracle: a physically-addressed reference machine
//! that observes the measured simulator and compares the OS-visible
//! outcome of every access.
//!
//! The oracle is installed as the measured [`SystemSim`]'s
//! [`CheckHooks`], so it sees every reference and every churn batch in
//! the order the measured machine executes them — across the quantum
//! schedule's per-core turns, too — and steps its reference machine
//! with the same items.
//!
//! The native reference is [`TranslationScheme::Ideal`] — perfect
//! physical caching whose kernel is touched on *every* access, so demand
//! allocation and copy-on-write breaks happen at the same access index
//! as in the hybrid schemes (which enforce permissions through cached
//! tags or delayed translation). With both kernels built by the same
//! deterministic setup, physical frame numbers are directly comparable.
//!
//! The virtualized reference ([`Oracle::virtualized`]) is
//! [`VirtScheme::NestedBaseline`] — the conventional gVA→MA TLB +
//! 2D-walker machine; guest and machine frame assignment follow
//! first-access order in both schemes, so guest page tables are directly
//! comparable as well.

use crate::invariants;
use crate::violation::Violation;
use hvc_core::{CheckHooks, SystemSim, TranslationScheme, VirtScheme};
use hvc_os::Kernel;
use hvc_types::{Asid, PhysAddr, PhysFrame, TraceItem, VirtAddr, Vmid};
use hvc_virt::Hypervisor;
use hvc_workloads::ChurnOps;
use std::any::Any;

/// Knobs of a checking run.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Run a full invariant sweep every this many references (0 = only
    /// at [`Oracle::verdict`]). Sweeps are O(machine state).
    pub sweep_every: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig { sweep_every: 1024 }
    }
}

/// Compares the synonym partition (the per-space sets of shared pages)
/// of two kernels.
fn compare_partitions(sut: &Kernel, oracle: &Kernel, out: &mut Vec<Violation>) {
    let shared_sets = |k: &Kernel| -> Vec<(u16, Vec<u64>)> {
        let mut v: Vec<(u16, Vec<u64>)> = k
            .spaces()
            .map(|(asid, space)| {
                let mut pages: Vec<u64> = space
                    .page_table()
                    .iter()
                    .filter(|(_, pte)| pte.shared)
                    .map(|(vp, _)| vp.base().as_u64())
                    .collect();
                pages.sort_unstable();
                (asid.as_u16(), pages)
            })
            .collect();
        v.sort_unstable();
        v
    };
    let s = shared_sets(sut);
    let o = shared_sets(oracle);
    if s != o {
        for ((sa, sp), (oa, op)) in s.iter().zip(o.iter()) {
            if sa != oa || sp != op {
                out.push(Violation::PartitionDivergence {
                    asid: *sa,
                    detail: format!(
                        "{} shared pages under test vs {} in the oracle",
                        sp.len(),
                        op.len()
                    ),
                });
                return;
            }
        }
        out.push(Violation::PartitionDivergence {
            asid: 0,
            detail: format!("{} spaces under test vs {} in the oracle", s.len(), o.len()),
        });
    }
}

/// Compares the accessed page's translation between two kernels.
fn compare_access(sut: &Kernel, oracle: &Kernel, item: TraceItem, out: &mut Vec<Violation>) {
    let asid = item.mref.asid;
    let vp = item.mref.vaddr.page_number();
    match (sut.walk(asid, vp), oracle.walk(asid, vp)) {
        (Some((s, _)), Some((o, _))) => {
            if s.frame != o.frame {
                out.push(Violation::OracleDivergence {
                    asid: asid.as_u16(),
                    vpn: vp.base().as_u64() >> hvc_types::PAGE_SHIFT,
                    detail: format!(
                        "frame {:#x} under test vs {:#x} in the oracle",
                        s.frame.base().as_u64(),
                        o.frame.base().as_u64()
                    ),
                });
            } else if s.shared != o.shared || s.perm != o.perm {
                out.push(Violation::OracleDivergence {
                    asid: asid.as_u16(),
                    vpn: vp.base().as_u64() >> hvc_types::PAGE_SHIFT,
                    detail: format!(
                        "perm/shared {:?}/{} under test vs {:?}/{} in the oracle",
                        s.perm, s.shared, o.perm, o.shared
                    ),
                });
            }
        }
        (None, None) => {}
        (s, o) => out.push(Violation::OracleDivergence {
            asid: asid.as_u16(),
            vpn: vp.base().as_u64() >> hvc_types::PAGE_SHIFT,
            detail: format!(
                "mapped under test: {}, in the oracle: {}",
                s.is_some(),
                o.is_some()
            ),
        }),
    }
}

/// A full invariant sweep of the machine under test plus the
/// cross-machine synonym partition comparison.
fn sweep(sim: &SystemSim, reference: &SystemSim, out: &mut Vec<Violation>) {
    out.extend(if sim.guest().is_some() {
        invariants::check_virt(sim)
    } else {
        invariants::check_system(sim)
    });
    compare_partitions(sim.kernel(), reference.kernel(), out);
}

/// The oracle installed on a measured [`SystemSim`]: a reference
/// machine over a twin kernel — [`TranslationScheme::Ideal`] natively
/// ([`Oracle::native`]), [`VirtScheme::NestedBaseline`] over a twin
/// hypervisor ([`Oracle::virtualized`]) — plus every violation seen so
/// far.
///
/// After each reference the machine under test executes, the oracle
/// audits its flush queue (it must be empty: a queued flush means a
/// later access could observe a stale line), steps the reference with
/// the same item, compares the accessed page's translation, and every
/// [`CheckConfig::sweep_every`] references runs a whole-machine
/// invariant sweep. Churn batches are applied to the reference as the
/// machine under test applies them.
pub struct Oracle {
    reference: SystemSim,
    cfg: CheckConfig,
    violations: Vec<Violation>,
    refs: u64,
}

impl Oracle {
    /// Installs the oracle on the native `sim`. `twin` must be a kernel
    /// built by the same deterministic setup as `sim`'s (the exact same
    /// call sequence); the ideal reference machine runs over it with
    /// `sim`'s configuration.
    pub fn native(sim: &mut SystemSim, twin: Kernel, cfg: CheckConfig) {
        let reference = SystemSim::new(twin, sim.config().clone(), TranslationScheme::Ideal);
        Self::install(sim, reference, cfg);
    }

    /// Installs the oracle on the guest-VM `sim`. `hv` and `vmid` must be
    /// built by the same deterministic setup as `sim`'s hypervisor; the
    /// nested-baseline reference machine runs over them.
    ///
    /// # Errors
    ///
    /// Propagates simulator-construction errors.
    pub fn virtualized(
        sim: &mut SystemSim,
        hv: Hypervisor,
        vmid: Vmid,
        cfg: CheckConfig,
    ) -> hvc_types::Result<()> {
        let config = sim.config().clone();
        let reference = SystemSim::virtualized(hv, vmid, config, VirtScheme::NestedBaseline)?;
        Self::install(sim, reference, cfg);
        Ok(())
    }

    fn install(sim: &mut SystemSim, reference: SystemSim, cfg: CheckConfig) {
        sim.set_check_hooks(Box::new(Oracle {
            reference,
            cfg,
            violations: Vec::new(),
            refs: 0,
        }));
    }

    /// The oracle installed on `sim`, if any.
    pub fn of(sim: &SystemSim) -> Option<&Oracle> {
        let hooks: &dyn Any = sim.check_hooks()?;
        hooks.downcast_ref()
    }

    fn of_mut(sim: &mut SystemSim) -> &mut Oracle {
        let hooks: &mut dyn Any = sim.check_hooks_mut().expect("oracle installed");
        hooks.downcast_mut().expect("oracle installed")
    }

    /// Applies a kernel operation to both kernels (the guest kernels in
    /// a VM; flushes drain immediately on each side) and returns the
    /// result from the machine under test. A kernel operation applied
    /// through [`SystemSim::os`] alone reaches only the machine under
    /// test, so the twins diverge.
    ///
    /// # Panics
    ///
    /// If no oracle is installed on `sim`.
    pub fn os<R>(sim: &mut SystemSim, f: impl Fn(&mut Kernel) -> R) -> R {
        let r = sim.os(&f);
        let _ = Self::of_mut(sim).reference.os(&f);
        r
    }

    /// Every violation recorded so far, plus a full invariant sweep and
    /// partition comparison of `sim` now.
    ///
    /// # Panics
    ///
    /// If no oracle is installed on `sim`.
    pub fn verdict(sim: &SystemSim) -> Vec<Violation> {
        let oracle = Self::of(sim).expect("oracle installed");
        let mut out = oracle.violations.clone();
        sweep(sim, &oracle.reference, &mut out);
        out
    }

    /// References observed so far.
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// The reference machine.
    pub fn reference(&self) -> &SystemSim {
        &self.reference
    }
}

impl CheckHooks for Oracle {
    fn on_reference(&mut self, sim: &SystemSim, item: TraceItem, mlp: u32) {
        let pending = sim.kernel().pending_flush_requests();
        if pending > 0 {
            self.violations.push(Violation::PendingFlushes { pending });
        }
        self.reference.step(item, mlp);
        self.refs += 1;
        compare_access(
            sim.kernel(),
            self.reference.kernel(),
            item,
            &mut self.violations,
        );
        if self.cfg.sweep_every > 0 && self.refs.is_multiple_of(self.cfg.sweep_every) {
            sweep(sim, &self.reference, &mut self.violations);
        }
    }

    fn on_churn(&mut self, ops: &ChurnOps) {
        self.reference.apply_churn(ops);
    }

    fn segment_translation(
        &mut self,
        asid: Asid,
        vaddr: VirtAddr,
        pa: PhysAddr,
        page_table: Option<PhysFrame>,
    ) {
        if let Some(frame) = page_table.filter(|&f| f != pa.frame_number()) {
            self.violations.push(Violation::SegmentStale {
                asid: asid.as_u16(),
                vpn: vaddr.page_number().base().as_u64() >> hvc_types::PAGE_SHIFT,
                detail: format!(
                    "segment gives frame {:#x}, page table {:#x}",
                    pa.frame_number().base().as_u64(),
                    frame.base().as_u64()
                ),
            });
        }
    }
}
