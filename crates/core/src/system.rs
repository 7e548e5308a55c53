//! The full-system simulator: one engine for native execution and for a
//! guest VM (Section V).
//!
//! The engine — the per-reference step, the physically and virtually
//! named hierarchy paths, writebacks and flush application — is written
//! once. Everything a translation scheme decides lives in its
//! [`Translator`](translate::Translator) implementation.

mod schedule;
mod translate;

use crate::config::{SystemConfig, TranslationScheme, VirtScheme};
use crate::core_model::CoreModel;
use crate::stats::{PerCoreStats, RunReport, TranslationCounters};
use hvc_cache::{FlushOp, Hierarchy};
use hvc_mem::Dram;
use hvc_obs::{Component, EventTracer, ObsReport, TraceEvent};
use hvc_os::{FlushRequest, Kernel, KernelStats, Pte, ShootdownModel, WalkPath};
use hvc_segment::ManySegmentTranslator;
use hvc_tlb::{PageWalker, Tlb, TwoLevelTlb};
use hvc_types::{
    AccessKind, Asid, BlockName, Cycles, MemRef, Permissions, PhysAddr, PhysFrame, TraceItem,
    VirtAddr, VirtPage, Vmid,
};
use hvc_virt::{Hypervisor, NestedSegments, NestedWalker};
use hvc_workloads::{ChurnOps, WorkloadInstance};
use schedule::Schedule;
pub use schedule::QUANTUM;
use std::any::Any;
use translate::{Miss, Translator};

/// An observer of a simulation, installed with
/// [`SystemSim::set_check_hooks`]: it sees every reference and every
/// churn batch in the order the simulator executes them (across the
/// per-core turns of a multi-core run, too), with the machine that
/// executed them. The
/// `hvc-check` oracle is one. With none installed, a run pays one
/// branch per reference and one per churn batch.
///
/// `Any` lets the installer recover its concrete type through
/// [`SystemSim::check_hooks`].
pub trait CheckHooks: Any {
    /// Called after every reference [`SystemSim::step_batch`] executes.
    fn on_reference(&mut self, sim: &SystemSim, item: TraceItem, mlp: u32);

    /// Called after [`SystemSim::apply_churn`] applied `ops` and drained
    /// the flushes they queued.
    fn on_churn(&mut self, ops: &ChurnOps);

    /// Called after a segment translation — many-segment natively, 2D
    /// in a VM — resolves `vaddr` of `asid` to `pa`, with the frame the
    /// page tables map there (in a VM, the guest page table followed by
    /// the EPT; `None` when the page is unmapped). A mapped page whose
    /// frame differs from `pa`'s means the translator served a stale
    /// segment.
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

/// The scheme a simulator runs. Only [`SystemSim::virtualized`] builds a
/// nested one, so a nested scheme never runs over a native kernel.
#[derive(Clone, Copy)]
enum Scheme {
    Native(TranslationScheme),
    Nested(VirtScheme),
}

/// Evaluates `$body` with `$t` bound to the [`Translator`] of `$scheme`:
/// the one scheme dispatch, made per window or per kernel mutation
/// between accesses, never per reference.
#[rustfmt::skip]
macro_rules! with_translator {
    ($scheme:expr, $t:ident => $body:expr) => {{
        use translate::*;
        match $scheme {
            Scheme::Native(TranslationScheme::Baseline) => { type $t = Baseline; $body }
            Scheme::Native(TranslationScheme::Ideal) => { type $t = Ideal; $body }
            Scheme::Native(TranslationScheme::HybridDelayedTlb(_)) => { type $t = HybridTlb; $body }
            Scheme::Native(TranslationScheme::HybridManySegment { .. }) => { type $t = ManySegment; $body }
            Scheme::Native(TranslationScheme::EnigmaDelayedTlb(_)) => { type $t = Enigma; $body }
            Scheme::Native(TranslationScheme::Rmm) => { type $t = Rmm; $body }
            Scheme::Nested(VirtScheme::NestedBaseline) => { type $t = NestedBaseline; $body }
            Scheme::Nested(VirtScheme::HybridDelayedNested(_)) => { type $t = NestedHybridTlb; $body }
            Scheme::Nested(VirtScheme::HybridNestedSegments) => { type $t = NestedHybridSegments; $body }
        }
    }};
}

/// The machine a workload runs on.
#[allow(clippy::large_enum_variant)] // one per simulator; the native kernel stays inline
enum Machine {
    /// Native execution: the simulator owns the OS.
    Native(Kernel),
    /// One guest VM; the hypervisor owns the guest kernel.
    Vm(Box<Vm>),
}

/// A guest VM's machine state: the hypervisor and the structures only
/// nested translation reads.
struct Vm {
    hv: Hypervisor,
    vmid: Vmid,
    /// The nested baseline's gVA→MA TLB (one flat structure with the
    /// baseline L2 TLB's geometry).
    gva_tlb: Tlb,
    /// The 2D walker (guest page tables through the EPT).
    walker: NestedWalker,
    /// 2D segment translation (the 2D-segment scheme only).
    segments: Option<NestedSegments>,
}

impl Machine {
    /// The OS the workload runs on: the native kernel or the guest's.
    #[inline]
    fn kernel(&self) -> &Kernel {
        match self {
            Machine::Native(k) => k,
            Machine::Vm(vm) => vm.hv.guest_kernel(vm.vmid).expect("VM exists"),
        }
    }

    #[inline]
    fn kernel_mut(&mut self) -> &mut Kernel {
        match self {
            Machine::Native(k) => k,
            Machine::Vm(vm) => vm.hv.guest_kernel_mut(vm.vmid).expect("VM exists"),
        }
    }

    fn vm(&self) -> Option<&Vm> {
        match self {
            Machine::Native(_) => None,
            Machine::Vm(vm) => Some(vm),
        }
    }

    fn vm_mut(&mut self) -> Option<&mut Vm> {
        match self {
            Machine::Native(_) => None,
            Machine::Vm(vm) => Some(vm),
        }
    }
}

/// The full-system, trace-driven simulator.
///
/// One instance owns the OS ([`Kernel`]) — or a hypervisor running one
/// guest VM — plus the hybrid cache hierarchy, DRAM, and the translation
/// machinery of one scheme: a [`TranslationScheme`] natively
/// ([`SystemSim::new`]) or a [`VirtScheme`] in a VM
/// ([`SystemSim::virtualized`]). Feed it a workload with
/// [`SystemSim::run`], which spreads the references over the cores in
/// the quantum schedule of [`SystemSim::feed`].
pub struct SystemSim {
    machine: Machine,
    config: SystemConfig,
    scheme: Scheme,
    hierarchy: Hierarchy,
    dram: Dram,
    /// Per-core clocks, indexed by the stepping core.
    clocks: Vec<CoreModel>,
    /// Per-core reference queues and the rotor of [`SystemSim::feed`].
    schedule: Schedule,
    /// Per-core private translation structures (the delayed structures
    /// after the LLC are shared, as in the paper).
    dtlb: Vec<TwoLevelTlb>,
    walker: Vec<PageWalker>,
    syn_tlb: Vec<Tlb>,
    delayed_tlb: Tlb,
    many: Option<ManySegmentTranslator>,
    /// Per-core RMM range TLBs (the RMM scheme only).
    rmm: Vec<hvc_segment::Rmm>,
    /// Address-space → core placement, indexed by raw ASID (round-robin
    /// on first sight; `usize::MAX` marks an unplaced space).
    placement: Vec<usize>,
    /// Number of address spaces placed so far (drives the round-robin).
    placed: usize,
    /// Per-ASID instruction-fetch cursor within the synthetic code
    /// region (when `model_ifetch` is on), indexed by raw ASID;
    /// `u64::MAX` marks a space whose text region is not yet mapped.
    fetch_cursor: Vec<u64>,
    /// Last ASID that ran on each core (context-switch detection: a
    /// switch reloads the synonym-filter registers from memory).
    last_asid: Vec<Option<Asid>>,
    counters: TranslationCounters,
    refs: u64,
    /// Kernel counters at the last [`SystemSim::reset_stats`], so
    /// reports window OS events like every other counter.
    kernel_mark: KernelStats,
    /// Latency histograms + cycle attribution for the current window.
    /// Attribution is charged only at the latency-composition points of
    /// this module, so its components sum exactly to
    /// `obs.mem_latency.total()`.
    obs: ObsReport,
    /// TLB-shootdown cost model (IPI issue / ack wait / responder work).
    shoot: ShootdownModel,
    /// Initiator-side shootdown cycles accrued but not yet charged to a
    /// core (charged on the next access the simulator retires).
    pending_shootdown: u64,
    /// Responder-side shootdown cycles owed per core (interrupt + flush
    /// time, charged when that core next runs).
    responder_stalls: Vec<u64>,
    /// Optional bounded event tracer (`config.trace_capacity > 0`).
    tracer: Option<EventTracer>,
    /// Optional observer (one branch per access when unset).
    hooks: Option<Box<dyn CheckHooks>>,
    /// Fault injection for checker self-tests: drop every non-`Page`
    /// flush request.
    drop_non_page_flushes: bool,
    /// Reusable hierarchy batch for flush application, so a drain
    /// allocates nothing on the steady state.
    flush_batch: Vec<FlushOp>,
}

impl SystemSim {
    /// Builds a simulator over an already-populated kernel (instantiate
    /// workloads first so eager segments exist for the many-segment
    /// scheme).
    pub fn new(kernel: Kernel, config: SystemConfig, scheme: TranslationScheme) -> Self {
        let many = match scheme {
            TranslationScheme::HybridManySegment {
                segment_cache: true,
            } => Some(ManySegmentTranslator::isca2016(kernel.segments())),
            TranslationScheme::HybridManySegment {
                segment_cache: false,
            } => Some(ManySegmentTranslator::isca2016_no_sc(kernel.segments())),
            _ => None,
        };
        let delayed_entries = match scheme {
            TranslationScheme::HybridDelayedTlb(n) | TranslationScheme::EnigmaDelayedTlb(n) => n,
            _ => 1024,
        };
        Self::build(
            Machine::Native(kernel),
            config,
            Scheme::Native(scheme),
            delayed_entries,
            many,
        )
    }

    /// Builds a simulator over a hypervisor whose VM `vmid` already has
    /// its workload instantiated in the guest kernel.
    ///
    /// # Errors
    ///
    /// [`hvc_types::HvcError::BadId`] for an unknown VM; for the 2D
    /// segment scheme, [`NestedSegments::build`] errors.
    pub fn virtualized(
        hv: Hypervisor,
        vmid: Vmid,
        config: SystemConfig,
        scheme: VirtScheme,
    ) -> hvc_types::Result<Self> {
        hv.guest_kernel(vmid)?;
        let segments = match scheme {
            VirtScheme::HybridNestedSegments => Some(NestedSegments::build(&hv, vmid)?),
            _ => None,
        };
        let delayed_entries = match scheme {
            VirtScheme::HybridDelayedNested(n) => n,
            _ => 1024,
        };
        let vm = Vm {
            gva_tlb: Tlb::new(config.l2_tlb.clone()),
            walker: NestedWalker::isca2016(),
            segments,
            hv,
            vmid,
        };
        Ok(Self::build(
            Machine::Vm(Box::new(vm)),
            config,
            Scheme::Nested(scheme),
            delayed_entries,
            None,
        ))
    }

    fn build(
        machine: Machine,
        config: SystemConfig,
        scheme: Scheme,
        delayed_entries: usize,
        many: Option<ManySegmentTranslator>,
    ) -> Self {
        let cores = config.hierarchy.cores;
        SystemSim {
            hierarchy: Hierarchy::new(config.hierarchy.clone()),
            dram: Dram::new(config.dram.clone()),
            clocks: (0..cores)
                .map(|_| CoreModel::new(config.width, config.hidden_latency))
                .collect(),
            schedule: Schedule::new(cores),
            dtlb: (0..cores)
                .map(|_| TwoLevelTlb::new(config.l1_tlb.clone(), config.l2_tlb.clone()))
                .collect(),
            walker: (0..cores).map(|_| PageWalker::new()).collect(),
            syn_tlb: (0..cores)
                .map(|_| Tlb::new(config.synonym_tlb.clone()))
                .collect(),
            delayed_tlb: Tlb::new(hvc_tlb::TlbConfig::delayed(delayed_entries)),
            many,
            rmm: match scheme {
                Scheme::Native(TranslationScheme::Rmm) => {
                    (0..cores).map(|_| hvc_segment::Rmm::rmm32()).collect()
                }
                _ => Vec::new(),
            },
            placement: Vec::new(),
            placed: 0,
            fetch_cursor: Vec::new(),
            last_asid: vec![None; cores],
            tracer: (config.trace_capacity > 0).then(|| EventTracer::new(config.trace_capacity)),
            machine,
            config,
            scheme,
            counters: TranslationCounters::default(),
            refs: 0,
            kernel_mark: KernelStats::default(),
            obs: ObsReport::default(),
            shoot: ShootdownModel::default(),
            pending_shootdown: 0,
            responder_stalls: vec![0; cores],
            hooks: None,
            drop_non_page_flushes: false,
            flush_batch: Vec::new(),
        }
    }

    /// The core `asid` runs on, placing it round-robin on first sight (a
    /// multiprogrammed schedule). [`SystemSim::feed`] queues each
    /// process's trace items on this core.
    #[inline]
    fn placement_of(&mut self, asid: Asid) -> usize {
        let idx = asid.as_u16() as usize;
        if let Some(&core) = self.placement.get(idx) {
            if core != usize::MAX {
                return core;
            }
        } else {
            self.placement.resize(idx + 1, usize::MAX);
        }
        let core = self.placed % self.config.hierarchy.cores;
        self.placed += 1;
        self.placement[idx] = core;
        core
    }

    /// The core `asid` is placed on, if it has ever run (no placement
    /// side effect — an unplaced space has no TLB entries anywhere).
    fn home_of(&self, asid: Asid) -> Option<usize> {
        match self.placement.get(asid.as_u16() as usize) {
            Some(&c) if c != usize::MAX => Some(c),
            _ => None,
        }
    }

    /// Number of simulated cores.
    pub fn cores(&self) -> usize {
        self.config.hierarchy.cores
    }

    /// The current time of `core`'s clock.
    #[inline]
    fn now(&self, core: usize) -> Cycles {
        self.clocks[core].now()
    }

    /// The kernel the workload runs on — the guest kernel in a VM (for
    /// post-run inspection of spaces and segments).
    pub fn kernel(&self) -> &Kernel {
        self.machine.kernel()
    }

    /// The hypervisor and the VM under simulation, if this simulator
    /// runs a guest (read-only; invariant sweeps).
    pub fn guest(&self) -> Option<(&Hypervisor, Vmid)> {
        self.machine.vm().map(|vm| (&vm.hv, vm.vmid))
    }

    /// The nested baseline's gVA→MA TLB, if this simulator runs a guest
    /// (read-only; invariant sweeps).
    pub fn gva_tlb(&self) -> Option<&Tlb> {
        self.machine.vm().map(|vm| &vm.gva_tlb)
    }

    /// The cache hierarchy (read-only; invariant sweeps).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Per-core synonym TLBs (read-only; invariant sweeps).
    pub fn synonym_tlbs(&self) -> &[Tlb] {
        &self.syn_tlb
    }

    /// Per-core two-level data TLBs (read-only; invariant sweeps).
    pub fn data_tlbs(&self) -> &[TwoLevelTlb] {
        &self.dtlb
    }

    /// Per-core RMM range TLBs, empty unless the scheme is RMM
    /// (read-only; invariant sweeps).
    pub fn range_tlbs(&self) -> &[hvc_segment::Rmm] {
        &self.rmm
    }

    /// The shared delayed TLB (read-only; invariant sweeps).
    pub fn delayed_tlb(&self) -> &Tlb {
        &self.delayed_tlb
    }

    /// The event tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&EventTracer> {
        self.tracer.as_ref()
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Installs an observer of every reference and churn batch (see
    /// [`CheckHooks`]).
    pub fn set_check_hooks(&mut self, hooks: Box<dyn CheckHooks>) {
        self.hooks = Some(hooks);
    }

    /// The installed observer, if any.
    pub fn check_hooks(&self) -> Option<&dyn CheckHooks> {
        self.hooks.as_deref()
    }

    /// The installed observer, if any (mutable).
    pub fn check_hooks_mut(&mut self) -> Option<&mut dyn CheckHooks> {
        self.hooks.as_deref_mut()
    }

    /// Fault injection for `hvc-check` self-tests: silently drop every
    /// non-`Page` flush request (the historical virtualized-path bug).
    /// Never set in real simulations.
    #[doc(hidden)]
    pub fn inject_drop_non_page_flushes(&mut self) {
        self.drop_non_page_flushes = true;
    }

    /// Runs a kernel operation (unmap, process churn, sharing
    /// transition, …) on the workload's kernel — the guest kernel in a
    /// VM — and immediately applies every flush it queued, so the next
    /// access cannot observe a stale line or TLB entry. Use this instead
    /// of mutating the kernel between accesses directly.
    pub fn os<R>(&mut self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        self.mutate_kernel(None, f)
    }

    /// Applies one workload churn event (a replayable batch of kernel
    /// mutations) and drains the flushes it queued as a single shootdown
    /// round initiated by the batch's initiator process.
    pub fn apply_churn(&mut self, ops: &ChurnOps) {
        let initiator = ops.initiator.and_then(|a| self.home_of(a));
        self.mutate_kernel(initiator, |k| ops.apply(k));
        if let Some(h) = &mut self.hooks {
            h.on_churn(ops);
        }
    }

    /// Runs `f` on the kernel between accesses, then drains the flushes
    /// it queued as one shootdown round from `initiator`.
    fn mutate_kernel<R>(
        &mut self,
        initiator: Option<usize>,
        f: impl FnOnce(&mut Kernel) -> R,
    ) -> R {
        let r = f(self.machine.kernel_mut());
        with_translator!(self.scheme, T => self.apply_flushes::<T>(initiator));
        r
    }

    /// Records a trace event if tracing is on (~one branch when off).
    #[inline]
    fn trace(&mut self, name: &'static str, cat: &'static str, dur: Cycles, core: usize) {
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent {
                name,
                cat,
                ts: self.clocks[core].now().get(),
                dur: dur.get(),
                tid: core as u32,
            });
        }
    }

    /// Attributes an on-chip probe's cycles to the level that served it.
    #[inline]
    fn attribute_probe(&mut self, hit_level: Option<u8>, latency: Cycles) {
        let component = match hit_level {
            Some(0) => Component::L1Hit,
            Some(1) => Component::L2Hit,
            Some(2) => Component::LlcHit,
            _ => Component::MissProbe,
        };
        self.obs.attribution.add(component, latency);
    }

    /// Resets all statistics (cache/TLB/filter contents are kept, and
    /// absolute simulation time keeps advancing) so that measurements
    /// exclude warm-up. Typical use: `run` a warm-up slice, then
    /// `reset_stats`, then `run` the measured slice.
    pub fn reset_stats(&mut self) {
        self.counters = TranslationCounters::default();
        self.refs = 0;
        self.hierarchy.reset_stats();
        self.dram.reset_stats();
        for t in &mut self.dtlb {
            t.reset_stats();
        }
        for t in &mut self.syn_tlb {
            t.reset_stats();
        }
        self.delayed_tlb.reset_stats();
        for w in &mut self.walker {
            w.reset_stats();
        }
        if let Some(m) = &mut self.many {
            m.reset_stats();
        }
        if let Some(vm) = self.machine.vm_mut() {
            vm.gva_tlb.reset_stats();
            vm.walker.reset_stats();
        }
        for clock in &mut self.clocks {
            clock.mark();
        }
        self.kernel_mark = self.machine.kernel().stats().clone();
        self.obs = ObsReport::default();
    }

    /// Runs `refs` warm-up references (not measured) and then resets
    /// statistics: [`SystemSim::feed`], [`SystemSim::drain`],
    /// [`SystemSim::reset_stats`].
    pub fn warm_up(&mut self, workload: &mut WorkloadInstance, refs: usize) {
        self.feed(workload, refs);
        self.drain();
        self.reset_stats();
    }

    /// Runs `refs` memory references of `workload` and reports:
    /// [`SystemSim::feed`], [`SystemSim::drain`], [`SystemSim::report`].
    pub fn run(&mut self, workload: &mut WorkloadInstance, refs: usize) -> RunReport {
        self.feed(workload, refs);
        self.drain();
        self.report()
    }

    /// Simulates a window of trace items: the same as calling
    /// [`SystemSim::step`] on each in order.
    ///
    /// The translation scheme is fixed for a simulation's lifetime, so
    /// the scheme branch is hoisted out of the per-reference loop: one
    /// dispatch per window selects a loop monomorphized for the scheme's
    /// `Translator`, whose hooks inline into it.
    pub fn step_batch(&mut self, items: &[TraceItem], mlp: u32) {
        with_translator!(self.scheme, T => {
            for &item in items {
                self.step_with::<T>(item, mlp);
            }
        })
    }

    /// Simulates a single trace item.
    pub fn step(&mut self, item: TraceItem, mlp: u32) {
        self.step_batch(std::slice::from_ref(&item), mlp);
    }

    /// The scheme-specialized body behind [`SystemSim::step`].
    #[inline]
    fn step_with<T: Translator>(&mut self, item: TraceItem, mlp: u32) {
        let core = self.placement_of(item.mref.asid);
        self.clocks[core].retire(item.instructions());
        self.refs += 1;
        // Context switch: under hybrid schemes the OS loads the incoming
        // process's Bloom-filter pair into the core's filter registers
        // (two 1K-bit reads from memory, Section III-B).
        if self.last_asid[core] != Some(item.mref.asid) {
            self.last_asid[core] = Some(item.mref.asid);
            if T::FILTERED {
                self.counters.filter_reloads += 1;
            }
        }
        if self.config.model_ifetch {
            let fetch = self.synth_ifetch(item.mref.asid);
            let flat = T::front(self, core, fetch);
            // Fetch latency is pipelined ahead of execution; only
            // out-of-code-region stalls would matter and the hot loop
            // stays resident, so charge nothing beyond the structures'
            // energy/statistics. The fetch still enters the latency
            // histogram (its attribution was recorded on the way).
            self.obs.mem_latency.record(flat);
            self.trace("ifetch", "mem", flat, core);
        }
        let latency = T::front(self, core, item.mref);
        self.obs.mem_latency.record(latency);
        self.trace("access", "mem", latency, core);
        self.clocks[core].memory(latency, mlp);
        // Shootdown cycles owed to this core (initiator waits accrued by
        // OS mutations, responder interrupt+flush time): surface them on
        // the next retired access as an un-overlappable stall, recorded
        // in the latency histogram and the attribution ledger so the
        // components still sum to the recorded memory cycles.
        let owed = self.pending_shootdown + self.responder_stalls[core];
        if owed > 0 {
            self.pending_shootdown = 0;
            self.responder_stalls[core] = 0;
            let c = Cycles::new(owed);
            self.obs.mem_latency.record(c);
            self.obs.attribution.add(Component::Shootdown, c);
            self.trace("shootdown", "coherence", c, core);
            self.clocks[core].stall(c);
        }
        if self.hooks.is_some() {
            self.observe(item, mlp);
        }
    }

    /// Hands the reference just executed to the installed observer.
    #[cold]
    #[inline(never)]
    fn observe(&mut self, item: TraceItem, mlp: u32) {
        if let Some(mut h) = self.hooks.take() {
            h.on_reference(self, item, mlp);
            self.hooks = Some(h);
        }
    }

    /// Synthesizes the next instruction fetch of `asid`: a walk around a
    /// small hot code loop (128 lines = 8 KB) in a lazily-created RX
    /// region at a canonical text address.
    fn synth_ifetch(&mut self, asid: Asid) -> MemRef {
        const TEXT_BASE: u64 = 0x40_0000;
        const LOOP_LINES: u64 = 128;
        let idx = asid.as_u16() as usize;
        if idx >= self.fetch_cursor.len() {
            self.fetch_cursor.resize(idx + 1, u64::MAX);
        }
        if self.fetch_cursor[idx] == u64::MAX {
            // Lazily map the text region (ignore overlap errors if the
            // workload already mapped something there).
            let _ = self.machine.kernel_mut().mmap(
                asid,
                VirtAddr::new(TEXT_BASE),
                64 << 10,
                Permissions::RX,
                hvc_os::MapIntent::Private,
            );
            self.fetch_cursor[idx] = 0;
        }
        let cursor = &mut self.fetch_cursor[idx];
        *cursor = (*cursor + 1) % LOOP_LINES;
        let vaddr = VirtAddr::new(TEXT_BASE + *cursor * 64);
        MemRef {
            asid,
            vaddr,
            kind: AccessKind::Fetch,
        }
    }

    /// Builds the report for everything simulated since the last
    /// [`SystemSim::reset_stats`]: instructions and cycles are summed
    /// over the per-core clocks, and `per_core` lists each.
    pub fn report(&self) -> RunReport {
        let mut translation = self.counters.clone();
        if let Some(m) = &self.many {
            let (sc_h, sc_m) = m.sc_stats();
            translation.sc_lookups = sc_h + sc_m;
            translation.index_cache_accesses = m.index_cache_stats().accesses();
            translation.segment_table_accesses = m.tree_walks();
        }
        let mut obs = self.obs.clone();
        for w in &self.walker {
            obs.walk_latency.merge_from(&w.stats().walk_latency);
        }
        let os = self.machine.kernel().stats().since(&self.kernel_mark);
        let per_core: Vec<PerCoreStats> = self
            .clocks
            .iter()
            .map(|c| PerCoreStats {
                instructions: c.instructions(),
                cycles: c.cycles(),
            })
            .collect();
        RunReport {
            instructions: per_core.iter().map(|c| c.instructions).sum(),
            cycles: per_core.iter().map(|c| c.cycles).sum(),
            refs: self.refs,
            translation,
            baseline_tlb_misses: self.dtlb.iter().map(TwoLevelTlb::full_misses).sum::<u64>()
                + self.gva_tlb().map_or(0, |t| t.stats().misses),
            cache: self.hierarchy.stats(),
            dram: self.dram.stats().clone(),
            minor_faults: os.minor_faults,
            os,
            obs,
            per_core,
        }
    }

    // --- the engine's shared paths ---

    /// Physically-named hierarchy access (+DRAM on LLC miss).
    fn phys_access<T: Translator>(
        &mut self,
        core: usize,
        pa: PhysAddr,
        kind: AccessKind,
    ) -> Cycles {
        let name = BlockName::Phys(pa.line());
        let r = self.hierarchy.lookup(core, name, kind);
        self.attribute_probe(r.hit_level, r.latency);
        let mut lat = r.latency;
        if r.llc_miss() {
            let dram_lat = self.dram_access(core, pa, kind, lat);
            lat += dram_lat;
            self.fill::<T>(core, kind, name, Permissions::RW);
            if self.config.prefetch_next_line {
                self.prefetch_phys::<T>(core, pa);
            }
        }
        lat
    }

    /// Next-line prefetch under physical naming: stops at the page
    /// boundary (the next physical line would need a translation).
    fn prefetch_phys<T: Translator>(&mut self, core: usize, pa: PhysAddr) {
        let next = pa + hvc_types::LINE_SIZE;
        if next.page_offset() == 0 {
            self.counters.prefetches_blocked += 1;
            return;
        }
        let name = BlockName::Phys(next.line());
        if self.hierarchy.contains(name) {
            return;
        }
        self.counters.prefetches += 1;
        let now = self.now(core);
        self.dram.access(now, next, false); // background fetch
        self.fill::<T>(core, AccessKind::Read, name, Permissions::RW);
    }

    /// Next-line prefetch under virtual naming: virtual contiguity lets
    /// it cross page boundaries; the physical address for the background
    /// fetch comes from delayed translation (energy counted, no core
    /// latency).
    fn prefetch_virt<T: Translator>(
        &mut self,
        core: usize,
        name: BlockName,
        asid: Asid,
        vaddr: VirtAddr,
    ) {
        let next_va = vaddr.align_down(hvc_types::LINE_SIZE) + hvc_types::LINE_SIZE;
        let next_name = match name {
            BlockName::Virt(a, line) if a == Asid::KERNEL => {
                // Enigma canonical name: stay in the intermediate space —
                // but only if the next virtual line still belongs to the
                // same shared object (crossing into an adjacent VMA must
                // not inherit this object's namespace).
                match self.machine.kernel().intermediate_line(asid, next_va) {
                    Some((true, next_ia)) if next_ia == line.as_u64() + 1 => {
                        BlockName::Virt(a, hvc_types::LineAddr::new(next_ia))
                    }
                    _ => return,
                }
            }
            _ => BlockName::Virt(asid, next_va.line()),
        };
        if self.hierarchy.contains(next_name) {
            return;
        }
        // Only prefetch lines the process actually mapped.
        if self
            .machine
            .kernel()
            .walk(asid, next_va.page_number())
            .is_none()
        {
            return;
        }
        self.counters.prefetches += 1;
        let next = MemRef::read(asid, next_va);
        let (pa, _, perm, _) = T::delayed(self, core, Miss::new(next, None, false));
        let now = self.now(core);
        self.dram.access(now, pa, false); // background fetch
        self.fill::<T>(core, AccessKind::Read, next_name, perm);
    }

    /// Hierarchy access under a virtual or intermediate block name, with
    /// delayed translation of `mref` after LLC misses. `known_pte` saves
    /// the delayed walk's fault service when the front path already
    /// resolved the page (false-positive path).
    fn named_access<T: Translator>(
        &mut self,
        core: usize,
        name: BlockName,
        mref: MemRef,
        known_pte: Option<Pte>,
    ) -> Cycles {
        let MemRef { asid, vaddr, kind } = mref;
        // Enforce cached r/o permissions (content-shared pages): a write
        // to a read-only cached line faults to the OS, which breaks COW
        // and flushes the stale lines. Skipped while no line anywhere
        // carries non-writable permissions (the probe could not fault).
        if kind.is_write() && self.hierarchy.may_hold_readonly() {
            if let Some(p) = self.hierarchy.cached_permissions(core, name) {
                if !p.is_writable() {
                    let _ = self.ensure_pte::<T>(core, mref);
                }
            }
        }
        let r = self.hierarchy.lookup(core, name, kind);
        self.attribute_probe(r.hit_level, r.latency);
        let mut lat = r.latency;
        if self.config.parallel_delayed && !r.llc_miss() && r.hit_level == Some(2) {
            // Parallel mode: an LLC access that *hits* still consulted
            // the delayed structures speculatively — pure energy cost
            // (demand=false keeps the speculative work out of the
            // demand-miss metrics).
            let _ = T::delayed(self, core, Miss::new(mref, known_pte, false));
        }
        if r.llc_miss() {
            let (pa, tlat, perm, mut parts) =
                T::delayed(self, core, Miss::new(mref, known_pte, true));
            // Serial: translation starts after the miss is known.
            // Parallel: it overlapped the LLC lookup, so only the part
            // exceeding the LLC latency is exposed.
            let exposed = if self.config.parallel_delayed {
                tlat.saturating_sub(self.config.hierarchy.llc.latency)
            } else {
                tlat
            };
            // Cycles hidden by the overlap were spent but never charged
            // to the core; drop them from the attribution so components
            // keep summing to the recorded memory cycles.
            parts.clip(tlat - exposed);
            self.obs.attribution.merge_from(&parts);
            self.trace("delayed_translation", "translation", exposed, core);
            lat += exposed;
            let dram_lat = self.dram_access(core, pa, kind, lat);
            lat += dram_lat;
            self.fill::<T>(core, kind, name, perm);
            if self.config.prefetch_next_line {
                self.prefetch_virt::<T>(core, name, asid, vaddr);
            }
        }
        lat
    }

    /// A demand miss's DRAM access at `pa`, issued `lat` cycles into the
    /// access.
    fn dram_access(&mut self, core: usize, pa: PhysAddr, kind: AccessKind, lat: Cycles) -> Cycles {
        let dram_lat = self
            .dram
            .access_latency(self.now(core) + lat, pa, kind.is_write());
        self.obs.attribution.add(Component::Dram, dram_lat);
        self.trace("dram", "mem", dram_lat, core);
        dram_lat
    }

    /// Fills `name` after an LLC miss and writes back the dirty victim it
    /// displaced.
    fn fill<T: Translator>(
        &mut self,
        core: usize,
        kind: AccessKind,
        name: BlockName,
        perm: Permissions,
    ) {
        if let Some(v) = self
            .hierarchy
            .fill_miss(core, kind, name, kind.is_write(), perm)
        {
            self.write_back::<T>(core, v.name);
        }
    }

    /// Walks the page table in hardware along `path` (the entry addresses
    /// of `vpage`'s mapped leaf), charging PTE reads through the
    /// (physically-addressed) cache hierarchy.
    fn charged_walk(
        &mut self,
        core_idx: usize,
        asid: Asid,
        vpage: VirtPage,
        path: &WalkPath,
    ) -> Cycles {
        let now = self.now(core_idx);
        let Self {
            walker,
            hierarchy,
            dram,
            counters,
            ..
        } = self;
        let lat = walker[core_idx].walk_path(asid, vpage, path, |addr| {
            pte_read(hierarchy, dram, counters, core_idx, now, addr)
        });
        self.trace("page_walk", "translation", lat, core_idx);
        lat
    }

    /// Guarantees `(asid, vaddr)` is mapped with permissions allowing
    /// `kind`, servicing demand faults and COW breaks via the OS, and
    /// applies any flushes the OS requested.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside every VMA (a workload bug).
    fn ensure_pte<T: Translator>(&mut self, core: usize, mref: MemRef) -> Pte {
        let MemRef { asid, vaddr, kind } = mref;
        let pte = self
            .machine
            .kernel_mut()
            .touch(asid, vaddr, kind)
            .unwrap_or_else(|e| panic!("access {vaddr} in {asid} failed: {e}"));
        self.apply_flushes::<T>(Some(core));
        pte
    }

    /// Applies OS-requested flushes as one directed TLB-shootdown round.
    ///
    /// The scheme's [`Translator::flush`] invalidates its translation
    /// structures request by request and names the hierarchy flush each
    /// needs; the hierarchy receives the whole drain as one order-free
    /// batch ([`Hierarchy::apply_batch`]), which is identical to flushing
    /// request by request.
    ///
    /// Cost model (after the Linux shootdown measurements of
    /// arXiv 1701.07517): the batch's distinct home cores other than the
    /// `initiator` are its responders. With none — the common single-core
    /// case — the round is the zero-responder fast path and free: the
    /// flushes happen locally and no IPI is sent.
    /// Otherwise the initiator owes the IPI issue + acknowledgement wait
    /// and each responder owes interrupt + flush time; the cycles are
    /// parked in `pending_shootdown` / `responder_stalls` and charged by
    /// [`SystemSim::step`] when the cores next run. `None` derives the
    /// initiator from the first flushed space's home core (a fault's
    /// syscall runs on the faulting core).
    fn apply_flushes<T: Translator>(&mut self, initiator: Option<usize>) {
        let mut reqs = self.machine.kernel_mut().drain_flush_requests();
        if self.drop_non_page_flushes {
            reqs.retain(|r| matches!(r, FlushRequest::Page(..)));
        }
        if reqs.is_empty() {
            return;
        }
        let mut initiator = initiator;
        // One bit per core: `Hierarchy::new` caps the core count at
        // `hvc_cache::MAX_CORES` (32).
        let mut responders: u32 = 0;
        for &req in &reqs {
            let home = match req {
                FlushRequest::Page(asid, _)
                | FlushRequest::DowngradeRo(asid, _)
                | FlushRequest::Space(asid) => self.home_of(asid),
                // TLB entries for a freed page die with the Page or
                // Space request the kernel queues alongside; only the
                // physically-tagged cache lines need flushing — no
                // per-core interrupt, so no responder.
                FlushRequest::Frame(_) => None,
            };
            if let Some(h) = home {
                match initiator {
                    None => initiator = Some(h),
                    Some(i) if i != h => responders |= 1 << h,
                    _ => {}
                }
            }
            if let Some(op) = T::flush(self, req, home) {
                self.flush_batch.push(op);
            }
        }
        self.hierarchy.apply_batch(&mut self.flush_batch);
        let n = responders.count_ones() as u64;
        let cost = self.shoot.round(n as usize);
        self.machine
            .kernel_mut()
            .account_shootdown(n, cost.initiator + n * cost.per_responder);
        self.pending_shootdown += cost.initiator;
        let mut mask = responders;
        while mask != 0 {
            let r = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            self.responder_stalls[r] += cost.per_responder;
        }
    }

    /// Invalidates one flush request's page or space in the per-core TLBs
    /// (on the space's `home` core only — fills happen exclusively there,
    /// so no other core can hold its entries; an unplaced space's flush
    /// reaches every core and costs nothing), the walker caches and the
    /// shared delayed TLB, and returns the hierarchy flush.
    fn flush_tlbs(&mut self, req: FlushRequest, home: Option<usize>) -> FlushOp {
        let cores = home.map_or(0..self.cores(), |h| h..h + 1);
        match req {
            FlushRequest::Page(asid, vpn) | FlushRequest::DowngradeRo(asid, vpn) => {
                let vp = VirtPage::new(vpn);
                for c in cores {
                    self.syn_tlb[c].flush_page(asid, vp);
                    self.dtlb[c].flush_page(asid, vp);
                }
                self.delayed_tlb.flush_page(asid, vp);
                if matches!(req, FlushRequest::Page(..)) {
                    FlushOp::VirtPage(asid, vpn)
                } else {
                    FlushOp::DowngradeRo(asid, vpn)
                }
            }
            FlushRequest::Space(asid) => {
                for c in cores {
                    self.syn_tlb[c].flush_asid(asid);
                    self.dtlb[c].flush_asid(asid);
                    self.walker[c].flush_asid(asid);
                }
                self.delayed_tlb.flush_asid(asid);
                FlushOp::Space(asid)
            }
            FlushRequest::Frame(base) => FlushOp::PhysFrame(base),
        }
    }

    /// Writes back a dirty LLC victim. Virtually-named victims need
    /// delayed translation before reaching DRAM (charged to energy and
    /// DRAM bandwidth, not to the core's critical path).
    fn write_back<T: Translator>(&mut self, core: usize, name: BlockName) {
        let pa = match name {
            BlockName::Phys(line) => PhysAddr::new(line.base_raw()),
            // Enigma canonical intermediate name (reserved IA range):
            // decode the shared-object id + offset and resolve directly.
            // Model note: canonical lines surviving a shm unmap decode to
            // the object's original frames (shm ids are never reused, so
            // no aliasing is possible; real hardware would flush the IA
            // range on unmap).
            BlockName::Virt(asid, line)
                if asid == Asid::KERNEL && line.base_raw() & (1 << 46) != 0 =>
            {
                self.counters.writeback_translations += 1;
                let ia = line.base_raw() - (1 << 46);
                let id = hvc_os::ShmId((ia >> 34) as u32);
                let offset = ia & ((1 << 34) - 1);
                match self.machine.kernel().shm_phys_addr(id, offset) {
                    Some(pa) => pa,
                    None => return, // object vanished (unmapped): drop
                }
            }
            BlockName::Virt(asid, line) => {
                self.counters.writeback_translations += 1;
                let victim = MemRef::read(asid, VirtAddr::new(line.base_raw()));
                T::delayed(self, core, Miss::new(victim, None, false)).0
            }
        };
        let now = self.now(core);
        self.dram.access(now, pa, true);
    }
}

/// Charges one page-table read at `addr` (issued at `now` by `core`'s
/// walker) through the physically named hierarchy, plus DRAM on an LLC
/// miss.
fn pte_read(
    hierarchy: &mut Hierarchy,
    dram: &mut Dram,
    counters: &mut TranslationCounters,
    core: usize,
    now: Cycles,
    addr: PhysAddr,
) -> Cycles {
    counters.pte_reads += 1;
    let name = BlockName::Phys(addr.line());
    let r = hierarchy.lookup(core, name, AccessKind::Read);
    let mut lat = r.latency;
    if r.llc_miss() {
        lat += dram.access_latency(now + lat, addr, false);
        hierarchy.fill_miss(core, AccessKind::Read, name, false, Permissions::RW);
    }
    lat
}

/// The address `vaddr` maps to under `pte`.
#[inline]
fn phys_of(pte: Pte, vaddr: VirtAddr) -> PhysAddr {
    PhysAddr::new(pte.frame.base().as_u64() + vaddr.page_offset())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_os::{AllocPolicy, MapIntent};
    use hvc_types::PAGE_SIZE;
    use hvc_workloads::apps;

    fn run_scheme(scheme: TranslationScheme, policy: AllocPolicy, refs: usize) -> RunReport {
        let mut kernel = Kernel::new(4 << 30, policy);
        let mut wl = apps::gups(8 << 20).instantiate(&mut kernel, 3).unwrap();
        let mut sim = SystemSim::new(kernel, SystemConfig::isca2016(), scheme);
        sim.run(&mut wl, refs)
    }

    #[test]
    fn baseline_counts_tlb_traffic() {
        let r = run_scheme(TranslationScheme::Baseline, AllocPolicy::DemandPaging, 5000);
        assert_eq!(r.translation.l1_tlb_lookups, 5000);
        assert!(r.translation.l2_tlb_lookups > 0);
        assert!(r.translation.pte_reads > 0);
        assert!(r.ipc() > 0.0);
        assert_eq!(r.refs, 5000);
    }

    #[test]
    fn hybrid_private_workload_bypasses_tlbs() {
        let r = run_scheme(
            TranslationScheme::HybridDelayedTlb(1024),
            AllocPolicy::DemandPaging,
            5000,
        );
        assert_eq!(r.translation.filter_lookups, 5000);
        assert_eq!(
            r.translation.synonym_tlb_lookups, 0,
            "no synonyms, no candidates"
        );
        assert!(
            r.translation.delayed_tlb_lookups > 0,
            "LLC misses translate"
        );
        assert_eq!(r.translation.l1_tlb_lookups, 0);
    }

    #[test]
    fn ideal_has_no_translation_events() {
        let r = run_scheme(TranslationScheme::Ideal, AllocPolicy::DemandPaging, 2000);
        assert_eq!(r.translation.front_tlb_accesses(), 0);
        assert_eq!(r.translation.filter_lookups, 0);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn many_segment_scheme_translates_via_segments() {
        let r = run_scheme(
            TranslationScheme::HybridManySegment {
                segment_cache: true,
            },
            AllocPolicy::EagerSegments { split: 1 },
            5000,
        );
        assert!(r.translation.sc_lookups > 0);
        assert_eq!(r.translation.delayed_tlb_lookups, 0);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn ideal_is_fastest_hybrid_beats_baseline_on_tlb_thrashers() {
        // The paper's key regime: the page working set (2048 pages of
        // GUPS-8MB) exceeds the baseline L2 TLB (1024 entries), but the
        // 8 MB LLC holds all the data — so the baseline keeps paying TLB
        // misses for cache-resident lines while hybrid virtual caching
        // needs no translation at all after warm-up.
        let run = |scheme| {
            let mut kernel = Kernel::new(4 << 30, AllocPolicy::DemandPaging);
            let mut wl = apps::gups(8 << 20).instantiate(&mut kernel, 3).unwrap();
            let mut sim = SystemSim::new(kernel, SystemConfig::isca2016_8mb_llc(), scheme);
            sim.run(&mut wl, 60_000)
        };
        let base = run(TranslationScheme::Baseline);
        let hybrid = run(TranslationScheme::HybridDelayedTlb(8192));
        let ideal = run(TranslationScheme::Ideal);
        assert!(
            hybrid.ipc() > base.ipc(),
            "hybrid {} vs baseline {}",
            hybrid.ipc(),
            base.ipc()
        );
        assert!(
            ideal.ipc() >= hybrid.ipc() * 0.99,
            "ideal {} vs hybrid {}",
            ideal.ipc(),
            hybrid.ipc()
        );
    }

    #[test]
    fn synonym_workload_routes_shared_accesses_through_tlb() {
        let mut kernel = Kernel::new(8 << 30, AllocPolicy::DemandPaging);
        let mut wl = apps::postgres().instantiate(&mut kernel, 11).unwrap();
        let mut sim = SystemSim::new(
            kernel,
            SystemConfig::isca2016(),
            TranslationScheme::HybridDelayedTlb(1024),
        );
        let r = sim.run(&mut wl, 20_000);
        assert!(r.translation.filter_candidates > 0);
        assert!(r.translation.shared_accesses > 0);
        // Access reduction: synonym TLB sees only candidates.
        let reduction =
            1.0 - r.translation.synonym_tlb_lookups as f64 / r.translation.filter_lookups as f64;
        assert!(
            (0.7..1.0).contains(&reduction),
            "postgres-like TLB access reduction {reduction}"
        );
        // False positives exist but are rare relative to all accesses.
        let fp_rate = r.translation.false_positives as f64 / r.translation.filter_lookups as f64;
        assert!(fp_rate < 0.05, "false positive rate {fp_rate}");
    }

    #[test]
    fn destroyed_process_leaves_no_tlb_entries_and_its_asid_misses() {
        // The baseline fills the L1/L2 TLBs; the hybrid scheme fills the
        // synonym TLB (postgres shares memory r/w) and the delayed TLB.
        for scheme in [
            TranslationScheme::Baseline,
            TranslationScheme::HybridDelayedTlb(1024),
        ] {
            let mut kernel = Kernel::new(8 << 30, AllocPolicy::DemandPaging);
            let mut wl = apps::postgres().instantiate(&mut kernel, 11).unwrap();
            let mut sim = SystemSim::new(kernel, SystemConfig::isca2016(), scheme);
            let a = wl.procs()[0].asid;
            sim.run(&mut wl, 20_000);
            // Entries of the TLBs a private page's translation goes
            // through come first.
            let owned = |sim: &SystemSim| -> Vec<VirtPage> {
                let data = sim.data_tlbs().iter().flat_map(TwoLevelTlb::entries);
                let synonym = sim.synonym_tlbs().iter().flat_map(Tlb::entries);
                data.chain(sim.delayed_tlb().entries())
                    .chain(synonym)
                    .filter(|&(asid, _, _)| asid == a)
                    .map(|(_, page, _)| page)
                    .collect()
            };
            let pages = owned(&sim);
            assert!(!pages.is_empty(), "{scheme:?}: warm-up caches translations");
            sim.os(|k| k.destroy_process(a).unwrap());
            assert_eq!(owned(&sim), [], "{scheme:?}: entries survived teardown");

            // A new process under the same ASID maps a page the old one
            // had cached: its first reference walks the page table.
            let va = pages[0].base();
            sim.os(|k| {
                k.create_process_with_asid(a).unwrap();
                k.mmap(a, va, PAGE_SIZE, Permissions::RW, MapIntent::Private)
                    .unwrap();
            });
            sim.reset_stats();
            sim.step(TraceItem::new(0, MemRef::read(a, va)), 1);
            let t = sim.report().translation;
            assert!(
                t.pte_reads > 0,
                "{scheme:?}: the reused ASID hit a stale entry"
            );
        }
    }

    #[test]
    fn multicore_places_processes_round_robin_and_runs() {
        let mut kernel = Kernel::new(8 << 30, AllocPolicy::DemandPaging);
        let mut wl = apps::postgres().instantiate(&mut kernel, 31).unwrap();
        let mut config = SystemConfig::isca2016();
        config.hierarchy = hvc_cache::HierarchyConfig::isca2016(4);
        let mut sim = SystemSim::new(kernel, config, TranslationScheme::HybridDelayedTlb(1024));
        let r = sim.run(&mut wl, 20_000);
        assert!(r.ipc() > 0.0);
        // Four processes → four cores, no context switches after the
        // first touch of each core.
        assert_eq!(r.translation.filter_reloads, 4);
        // All four private L1 data caches saw traffic.
        for c in 0..4 {
            assert!(r.cache.l1d[c].accesses() > 0, "core {c} unused");
        }
    }

    fn build_cores(
        spec: &hvc_workloads::WorkloadSpec,
        cores: usize,
        seed: u64,
    ) -> (SystemSim, WorkloadInstance) {
        let mut kernel = Kernel::new(4 << 30, AllocPolicy::DemandPaging);
        let wl = spec.instantiate(&mut kernel, seed).unwrap();
        let mut config = SystemConfig::isca2016();
        config.hierarchy = hvc_cache::HierarchyConfig::isca2016(cores);
        let sim = SystemSim::new(kernel, config, TranslationScheme::HybridDelayedTlb(1024));
        (sim, wl)
    }

    /// Four cores running the fork-storm preset generate directed
    /// shootdowns (master recycles a worker on another core), the
    /// per-core breakdown covers every core, and it sums to the
    /// headline instruction/cycle counts. On one core every round takes
    /// the zero-responder fast path.
    #[test]
    fn fork_storm_on_four_cores_pays_for_shootdowns() {
        let (mut sim, mut wl) = build_cores(&apps::fork_storm(), 4, 7);
        sim.warm_up(&mut wl, 4_000);
        let report = sim.run(&mut wl, 40_000);

        assert_eq!(report.per_core.len(), 4);
        assert!(report.per_core.iter().all(|c| c.instructions > 0));
        assert_eq!(
            report.per_core.iter().map(|c| c.instructions).sum::<u64>(),
            report.instructions
        );
        assert_eq!(
            report.per_core.iter().map(|c| c.cycles).sum::<u64>(),
            report.cycles
        );
        assert!(
            report.os.shootdown_ipis > 0,
            "worker recycling must cross cores: {:?}",
            report.os
        );
        assert!(report.os.shootdown_cycles > 0);
        let shoot = report.obs.attribution.get(Component::Shootdown).get();
        assert!(shoot > 0, "shootdown cycles must be attributed");

        let (mut sim, mut wl) = build_cores(&apps::fork_storm(), 1, 7);
        sim.warm_up(&mut wl, 4_000);
        let report = sim.run(&mut wl, 40_000);
        assert!(report.os.shootdowns > 0, "{:?}", report.os);
        assert_eq!(
            report.os.shootdown_ipis, 0,
            "one core can have no responders"
        );
    }

    /// The shm-remap preset shoots down every attached process at
    /// once, so rounds are broadcast-shaped: responder IPIs arrive in
    /// batches of cores − 1 (all other cores host an attachment).
    #[test]
    fn shm_heavy_broadcasts() {
        let (mut sim, mut wl) = build_cores(&apps::shm_heavy(), 4, 7);
        sim.warm_up(&mut wl, 4_000);
        let report = sim.run(&mut wl, 40_000);
        assert!(report.os.shootdown_ipis >= 3, "{:?}", report.os);
    }

    /// The schedule is a pure function of the fed stream: feeding in
    /// dribbles equals feeding in one call.
    #[test]
    fn feed_granularity_is_invisible() {
        let spec = apps::shm_heavy();
        let (mut bulk, mut wl_a) = build_cores(&spec, 4, 3);
        bulk.warm_up(&mut wl_a, 1_000);
        let a = bulk.run(&mut wl_a, 10_000);

        let (mut dribble, mut wl_b) = build_cores(&spec, 4, 3);
        dribble.warm_up(&mut wl_b, 1_000);
        for _ in 0..10 {
            dribble.feed(&mut wl_b, 1_000);
        }
        dribble.drain();
        let b = dribble.report();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// On several cores, a mid-run `report` and `reset_stats` leave the
    /// schedule alone, and each window counts exactly what ran after
    /// the reset before it: the windows' counters add up to one
    /// whole run's.
    #[test]
    fn windowed_reports_sum_to_whole_run() {
        let spec = apps::fork_storm();
        let (mut whole, mut wl_a) = build_cores(&spec, 4, 11);
        whole.warm_up(&mut wl_a, 2_000);
        let a = whole.run(&mut wl_a, 24_000);

        let (mut windowed, mut wl_b) = build_cores(&spec, 4, 11);
        windowed.warm_up(&mut wl_b, 2_000);
        let mut sum = RunReport {
            per_core: vec![PerCoreStats::default(); 4],
            ..RunReport::default()
        };
        for (i, window) in [9_000usize, 9_000, 6_000].into_iter().enumerate() {
            windowed.feed(&mut wl_b, window);
            if i == 2 {
                windowed.drain();
            }
            let report = windowed.report();
            windowed.reset_stats();
            sum.instructions += report.instructions;
            sum.cycles += report.cycles;
            sum.refs += report.refs;
            sum.minor_faults += report.minor_faults;
            sum.os.shootdown_ipis += report.os.shootdown_ipis;
            sum.os.shootdown_cycles += report.os.shootdown_cycles;
            for (s, c) in sum.per_core.iter_mut().zip(&report.per_core) {
                s.instructions += c.instructions;
                s.cycles += c.cycles;
            }
        }
        assert_eq!(a.instructions, sum.instructions);
        assert_eq!(a.cycles, sum.cycles);
        assert_eq!(a.refs, sum.refs);
        assert_eq!(a.minor_faults, sum.minor_faults);
        assert_eq!(a.per_core, sum.per_core);
        assert_eq!(a.os.shootdown_ipis, sum.os.shootdown_ipis);
        assert_eq!(a.os.shootdown_cycles, sum.os.shootdown_cycles);
        assert!(a.os.shootdown_ipis > 0, "windows must span shootdowns");
    }

    #[test]
    fn single_core_multiprogramming_context_switches() {
        let mut kernel = Kernel::new(8 << 30, AllocPolicy::DemandPaging);
        let mut wl = apps::postgres().instantiate(&mut kernel, 31).unwrap();
        let mut sim = SystemSim::new(
            kernel,
            SystemConfig::isca2016(),
            TranslationScheme::HybridDelayedTlb(1024),
        );
        let r = sim.run(&mut wl, 1000);
        // Round-robin interleaving of 4 processes on one core: a filter
        // reload on almost every reference.
        assert!(r.translation.filter_reloads > 900);
    }

    #[test]
    fn prefetcher_helps_streaming_and_crosses_pages_only_virtually() {
        let run = |scheme, prefetch: bool| {
            let mut kernel = Kernel::new(4 << 30, AllocPolicy::DemandPaging);
            let mut wl = apps::milc().instantiate(&mut kernel, 3).unwrap();
            let mut config = SystemConfig::isca2016();
            config.prefetch_next_line = prefetch;
            let mut sim = SystemSim::new(kernel, config, scheme);
            sim.run(&mut wl, 30_000)
        };
        let base_off = run(TranslationScheme::Baseline, false);
        let base_on = run(TranslationScheme::Baseline, true);
        let hyb_on = run(TranslationScheme::HybridDelayedTlb(4096), true);
        println!("milc, 30000 refs   cycles      IPC  prefetches  blocked");
        for (name, r) in [
            ("baseline, off", &base_off),
            ("baseline, on", &base_on),
            ("dtlb:4096, on", &hyb_on),
        ] {
            println!(
                "{name:<16} {:>8} {:>8.3} {:>11} {:>8}",
                r.cycles,
                r.ipc(),
                r.translation.prefetches,
                r.translation.prefetches_blocked
            );
        }
        assert!(
            base_on.cycles < base_off.cycles,
            "prefetch must help streaming"
        );
        assert!(base_on.translation.prefetches > 0);
        assert!(
            base_on.translation.prefetches_blocked > 0,
            "physical prefetching stops at page boundaries"
        );

        assert_eq!(
            hyb_on.translation.prefetches_blocked, 0,
            "virtual prefetching crosses page boundaries"
        );
        assert!(hyb_on.translation.prefetches > 0);
    }

    #[test]
    fn parallel_delayed_translation_trades_energy_for_latency() {
        let run = |parallel: bool| {
            let mut kernel = Kernel::new(4 << 30, AllocPolicy::EagerSegments { split: 1 });
            let mut wl = apps::gups(16 << 20).instantiate(&mut kernel, 3).unwrap();
            let mut config = SystemConfig::isca2016();
            config.parallel_delayed = parallel;
            let mut sim = SystemSim::new(
                kernel,
                config,
                TranslationScheme::HybridManySegment {
                    segment_cache: true,
                },
            );
            sim.run(&mut wl, 20_000)
        };
        let serial = run(false);
        let parallel = run(true);
        println!("gups-16M manyseg   cycles      IPC  SC lookups");
        for (name, r) in [("serial", &serial), ("parallel", &parallel)] {
            println!(
                "{name:<16} {:>8} {:>8.3} {:>11}",
                r.cycles,
                r.ipc(),
                r.translation.sc_lookups
            );
        }
        assert!(
            parallel.cycles <= serial.cycles,
            "overlap can only help latency"
        );
        assert!(
            parallel.translation.sc_lookups >= serial.translation.sc_lookups,
            "parallel mode translates speculatively on LLC hits too"
        );
    }

    #[test]
    fn enigma_collapses_synonyms_without_a_filter() {
        let mut kernel = Kernel::new(8 << 30, AllocPolicy::DemandPaging);
        let mut wl = apps::postgres().instantiate(&mut kernel, 31).unwrap();
        let mut sim = SystemSim::new(
            kernel,
            SystemConfig::isca2016(),
            TranslationScheme::EnigmaDelayedTlb(1024),
        );
        let r = sim.run(&mut wl, 20_000);
        assert_eq!(r.translation.enigma_lookups, 20_000);
        assert_eq!(r.translation.filter_lookups, 0, "no Bloom filter");
        assert_eq!(r.translation.synonym_tlb_lookups, 0, "no synonym TLB");
        assert!(r.translation.shared_accesses > 0);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn enigma_shared_lines_have_one_canonical_name() {
        // Two processes write/read the same shared page via different
        // VAs; the second access must find the first's line on chip.
        let mut kernel = Kernel::new(4 << 30, AllocPolicy::DemandPaging);
        let a = kernel.create_process().unwrap();
        let b = kernel.create_process().unwrap();
        let shm = kernel.shm_create(0x2000).unwrap();
        kernel
            .mmap(
                a,
                VirtAddr::new(0x7000_0000),
                0x2000,
                hvc_types::Permissions::RW,
                hvc_os::MapIntent::Shared(shm),
            )
            .unwrap();
        kernel
            .mmap(
                b,
                VirtAddr::new(0x9000_0000),
                0x2000,
                hvc_types::Permissions::RW,
                hvc_os::MapIntent::Shared(shm),
            )
            .unwrap();
        let mut sim = SystemSim::new(
            kernel,
            SystemConfig::isca2016(),
            TranslationScheme::EnigmaDelayedTlb(1024),
        );
        sim.step(
            hvc_types::TraceItem::new(0, MemRef::write(a, VirtAddr::new(0x7000_0040))),
            1,
        );
        let before = sim.report().cache.llc.misses;
        sim.step(
            hvc_types::TraceItem::new(0, MemRef::read(b, VirtAddr::new(0x9000_0040))),
            1,
        );
        let after = sim.report().cache.llc.misses;
        assert_eq!(before, after, "synonym view must hit the canonical line");
    }

    #[test]
    fn ifetch_modeling_adds_front_end_traffic_without_changing_data_side() {
        let run = |ifetch: bool, scheme| {
            let mut kernel = Kernel::new(4 << 30, AllocPolicy::DemandPaging);
            let mut wl = apps::gups(8 << 20).instantiate(&mut kernel, 3).unwrap();
            let mut config = SystemConfig::isca2016();
            config.model_ifetch = ifetch;
            let mut sim = SystemSim::new(kernel, config, scheme);
            sim.run(&mut wl, 3000)
        };
        let base_off = run(false, TranslationScheme::Baseline);
        let base_on = run(true, TranslationScheme::Baseline);
        // Baseline: one extra L1 TLB lookup per item (the fetch).
        assert_eq!(
            base_on.translation.l1_tlb_lookups,
            2 * base_off.translation.l1_tlb_lookups
        );
        assert!(base_on.cache.l1i[0].accesses() > 0);

        let hyb_on = run(true, TranslationScheme::HybridDelayedTlb(1024));
        // Hybrid: the fetch probes the filter, not a TLB.
        assert_eq!(hyb_on.translation.filter_lookups, 6000);
        assert_eq!(hyb_on.translation.l1_tlb_lookups, 0);
    }

    #[test]
    fn filter_has_no_false_negatives_in_system_context() {
        let mut kernel = Kernel::new(8 << 30, AllocPolicy::DemandPaging);
        let mut wl = apps::postgres().instantiate(&mut kernel, 13).unwrap();
        // Every access to a page the kernel says is shared must be a
        // candidate (otherwise a synonym would be cached virtually).
        for item in wl.iter().take(5000).collect::<Vec<_>>() {
            let asid = item.mref.asid;
            let va = item.mref.vaddr;
            let space = kernel.space(asid).unwrap();
            let shared = space
                .page_table()
                .lookup(va.page_number())
                .map(|p| p.shared)
                .unwrap_or(false);
            if shared {
                assert!(space.filter.is_candidate(va), "false negative at {va}");
            }
        }
    }
}
