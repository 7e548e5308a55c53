//! Differential oracles: run the scheme under test in lockstep with a
//! physically-addressed reference machine and compare the OS-visible
//! outcome of every access.
//!
//! The native oracle is [`TranslationScheme::Ideal`] — perfect physical
//! caching whose kernel is touched on *every* access, so demand
//! allocation and copy-on-write breaks happen at the same access index
//! as in the hybrid schemes (which enforce permissions through cached
//! tags or delayed translation). With both kernels built by the same
//! deterministic setup, physical frame numbers are directly comparable.
//!
//! The virtualized oracle ([`DiffHarness::virtualized`]) is
//! [`VirtScheme::NestedBaseline`] — the
//! conventional gVA→MA TLB + 2D-walker machine; guest and machine frame
//! assignment follow first-access order in both schemes, so guest page
//! tables are directly comparable as well.

use crate::invariants;
use crate::violation::Violation;
use hvc_core::{RunReport, SystemConfig, SystemSim, TranslationScheme, VirtScheme};
use hvc_os::{AllocPolicy, Kernel};
use hvc_types::{Asid, CheckHooks, PhysAddr, PhysFrame, TraceItem, VirtAddr, Vmid};
use hvc_virt::Hypervisor;
use hvc_workloads::WorkloadInstance;
use std::cell::RefCell;
use std::rc::Rc;

/// Knobs of a checking run.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Run a full invariant sweep every this many accesses (0 = only at
    /// [`DiffHarness::finish`]). Sweeps are O(machine state).
    pub sweep_every: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig { sweep_every: 1024 }
    }
}

/// Boundary-audit state shared between the simulator-installed hook and
/// the harness.
#[derive(Default)]
struct BoundaryAudit {
    /// Access boundaries observed with a non-empty flush queue.
    late_boundaries: u64,
    /// Worst queue depth seen at a boundary.
    worst_pending: usize,
    /// The latest segment translation that disagreed with the page
    /// table since the last drain.
    stale_segment: Option<Violation>,
}

struct QueueAudit(Rc<RefCell<BoundaryAudit>>);

impl CheckHooks for QueueAudit {
    fn access_boundary(&mut self, _refs: u64, pending: usize) {
        if pending > 0 {
            let mut a = self.0.borrow_mut();
            a.late_boundaries += 1;
            a.worst_pending = a.worst_pending.max(pending);
        }
    }

    fn segment_translation(
        &mut self,
        asid: Asid,
        vaddr: VirtAddr,
        pa: PhysAddr,
        page_table: Option<PhysFrame>,
    ) {
        if let Some(frame) = page_table.filter(|&f| f != pa.frame_number()) {
            self.0.borrow_mut().stale_segment = Some(Violation::SegmentStale {
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

fn drain_audit(audit: &Rc<RefCell<BoundaryAudit>>, out: &mut Vec<Violation>) {
    let mut a = audit.borrow_mut();
    if a.late_boundaries > 0 {
        out.push(Violation::PendingFlushes {
            pending: a.worst_pending,
        });
        a.late_boundaries = 0;
        a.worst_pending = 0;
    }
    out.extend(a.stale_segment.take());
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

/// A differential harness: the scheme under test and a reference machine
/// over twin kernels — [`TranslationScheme::Ideal`] natively
/// ([`DiffHarness::new`]), [`VirtScheme::NestedBaseline`] over twin
/// hypervisors ([`DiffHarness::virtualized`]).
pub struct DiffHarness {
    sut: SystemSim,
    oracle: SystemSim,
    cfg: CheckConfig,
    audit: Rc<RefCell<BoundaryAudit>>,
    violations: Vec<Violation>,
    steps: u64,
}

impl DiffHarness {
    /// Builds twin kernels with `setup` (which must be deterministic:
    /// both kernels see the exact same call sequence), the scheme under
    /// test over one and the ideal oracle over the other. Returns the
    /// harness plus the value `setup` produced for the kernel under
    /// test (typically the [`WorkloadInstance`]).
    ///
    /// # Errors
    ///
    /// Propagates `setup` errors.
    pub fn new<T>(
        config: SystemConfig,
        scheme: TranslationScheme,
        cfg: CheckConfig,
        mem_bytes: u64,
        policy: AllocPolicy,
        setup: impl Fn(&mut Kernel) -> hvc_types::Result<T>,
    ) -> hvc_types::Result<(Self, T)> {
        let mut sut_kernel = Kernel::new(mem_bytes, policy);
        let value = setup(&mut sut_kernel)?;
        let mut oracle_kernel = Kernel::new(mem_bytes, policy);
        let _ = setup(&mut oracle_kernel)?;
        let sut = SystemSim::new(sut_kernel, config.clone(), scheme);
        let oracle = SystemSim::new(oracle_kernel, config, TranslationScheme::Ideal);
        Ok((Self::pair(sut, oracle, cfg), value))
    }

    /// Builds twin hypervisors with `setup` (must be deterministic), the
    /// guest scheme under test over one and the nested-baseline oracle
    /// over the other. Returns the harness plus the value `setup`
    /// produced for the machine under test.
    ///
    /// # Errors
    ///
    /// Propagates `setup` and simulator-construction errors.
    pub fn virtualized<T>(
        config: SystemConfig,
        scheme: VirtScheme,
        cfg: CheckConfig,
        setup: impl Fn() -> hvc_types::Result<(Hypervisor, Vmid, T)>,
    ) -> hvc_types::Result<(Self, T)> {
        let (hv, vmid, value) = setup()?;
        let (ohv, ovmid, _) = setup()?;
        let sut = SystemSim::virtualized(hv, vmid, config.clone(), scheme)?;
        let oracle = SystemSim::virtualized(ohv, ovmid, config, VirtScheme::NestedBaseline)?;
        Ok((Self::pair(sut, oracle, cfg), value))
    }

    fn pair(mut sut: SystemSim, oracle: SystemSim, cfg: CheckConfig) -> Self {
        let audit = Rc::new(RefCell::new(BoundaryAudit::default()));
        sut.set_check_hooks(Box::new(QueueAudit(audit.clone())));
        DiffHarness {
            sut,
            oracle,
            cfg,
            audit,
            violations: Vec::new(),
            steps: 0,
        }
    }

    /// Steps both machines with one trace item and compares the
    /// OS-visible outcome.
    pub fn step(&mut self, item: TraceItem, mlp: u32) {
        self.sut.step(item, mlp);
        self.oracle.step(item, mlp);
        self.steps += 1;
        compare_access(
            self.sut.kernel(),
            self.oracle.kernel(),
            item,
            &mut self.violations,
        );
        drain_audit(&self.audit, &mut self.violations);
        if self.cfg.sweep_every > 0 && self.steps.is_multiple_of(self.cfg.sweep_every) {
            self.sweep();
        }
    }

    /// Runs `refs` warm-up references with checking on, then resets
    /// statistics on both machines (mirrors [`SystemSim::warm_up`]).
    pub fn warm_up(&mut self, workload: &mut WorkloadInstance, refs: usize) {
        self.drive(workload, refs);
        self.sut.reset_stats();
        self.oracle.reset_stats();
    }

    /// Runs `refs` checked references and returns the report of the
    /// machine under test (identical to an unchecked run's report).
    pub fn run(&mut self, workload: &mut WorkloadInstance, refs: usize) -> RunReport {
        self.drive(workload, refs);
        self.sut.report()
    }

    /// Steps `refs` workload references through both machines and applies
    /// any due workload churn to both, keeping their kernels in lockstep
    /// through address-space mutations.
    fn drive(&mut self, workload: &mut WorkloadInstance, refs: usize) {
        let mlp = workload.mlp();
        for _ in 0..refs {
            self.step(workload.next_item(), mlp);
            if let Some(ops) = workload.take_churn_ops() {
                self.sut.apply_churn(&ops);
                self.oracle.apply_churn(&ops);
            }
        }
    }

    /// Applies a kernel operation to both machines' kernels (the guest
    /// kernels in a VM; flushes drain immediately on each side) and
    /// returns the result from the machine under test.
    pub fn os<R>(&mut self, f: impl Fn(&mut Kernel) -> R) -> R {
        let r = self.sut.os(&f);
        let _ = self.oracle.os(&f);
        r
    }

    /// Runs a full invariant sweep plus the cross-machine synonym
    /// partition comparison now.
    pub fn sweep(&mut self) {
        self.violations.extend(if self.sut.guest().is_some() {
            invariants::check_virt(&self.sut)
        } else {
            invariants::check_system(&self.sut)
        });
        compare_partitions(
            self.sut.kernel(),
            self.oracle.kernel(),
            &mut self.violations,
        );
    }

    /// Fault injection: make the machine under test drop every non-`Page`
    /// flush request (the historical virtualized-path bug). Self-test use
    /// only.
    #[doc(hidden)]
    pub fn inject_drop_non_page_flushes(&mut self) {
        self.sut.inject_drop_non_page_flushes();
    }

    /// Fault injection: apply a kernel operation to the machine under
    /// test only, making the twin kernels diverge (its own flushes are
    /// still drained). Self-test use only.
    #[doc(hidden)]
    pub fn inject_sut_only_os<R>(&mut self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        self.sut.os(f)
    }

    /// The machine under test (read-only).
    pub fn sut(&self) -> &SystemSim {
        &self.sut
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Final sweep, then returns every recorded violation.
    pub fn finish(mut self) -> Vec<Violation> {
        self.sweep();
        self.violations
    }
}
