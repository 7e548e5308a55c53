//! The native (non-virtualized) full-system simulator.

use crate::config::{SystemConfig, TranslationScheme};
use crate::core_model::CoreModel;
use crate::stats::{PerCoreStats, RunReport, TranslationCounters};
use hvc_cache::{FlushOp, Hierarchy};
use hvc_mem::Dram;
use hvc_obs::{Component, CycleAttribution, EventTracer, ObsReport, TraceEvent};
use hvc_os::{FlushRequest, Kernel, KernelStats, Pte, ShootdownModel};
use hvc_segment::ManySegmentTranslator;
use hvc_tlb::{PageWalker, Tlb, TlbHit, TwoLevelTlb};
use hvc_types::{
    AccessKind, Asid, BlockName, CheckHooks, Cycles, MemRef, MergeStats, PhysAddr, TraceItem,
    VirtAddr,
};
use hvc_workloads::{ChurnOps, WorkloadInstance};

/// References decoded and stepped per window by the batched pipeline
/// ([`SystemSim::step_batch`] callers). Matches the multi-core dispatch
/// quantum so batching never spans a scheduling boundary.
pub const BATCH_WINDOW: usize = 64;

/// The full-system, trace-driven simulator for native execution.
///
/// One instance owns the OS ([`Kernel`]), the hybrid cache hierarchy,
/// DRAM, and the translation machinery selected by
/// [`TranslationScheme`]. Feed it a workload with [`SystemSim::run`].
pub struct SystemSim {
    kernel: Kernel,
    config: SystemConfig,
    scheme: TranslationScheme,
    hierarchy: Hierarchy,
    dram: Dram,
    core: CoreModel,
    /// Per-core private translation structures (the delayed structures
    /// after the LLC are shared, as in the paper).
    dtlb: Vec<TwoLevelTlb>,
    walker: Vec<PageWalker>,
    syn_tlb: Vec<Tlb>,
    delayed_tlb: Tlb,
    many: Option<ManySegmentTranslator>,
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
    /// Optional runtime check hooks (one branch per access when unset).
    hooks: Option<Box<dyn CheckHooks>>,
    /// Reusable window buffer for the batched drivers (`run`,
    /// `warm_up`, `run_trace`), so batching allocates nothing per
    /// reference or per window.
    batch_scratch: Vec<TraceItem>,
    /// Reusable hierarchy batch for [`SystemSim::apply_flushes`], so a
    /// drain allocates nothing on the steady state.
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
        let cores = config.hierarchy.cores;
        assert!(
            cores <= 128,
            "shootdown responder mask supports at most 128 cores"
        );
        SystemSim {
            hierarchy: Hierarchy::new(config.hierarchy.clone()),
            dram: Dram::new(config.dram.clone()),
            core: CoreModel::new(config.width, config.hidden_latency),
            dtlb: (0..cores)
                .map(|_| TwoLevelTlb::new(config.l1_tlb.clone(), config.l2_tlb.clone()))
                .collect(),
            walker: (0..cores).map(|_| PageWalker::new()).collect(),
            syn_tlb: (0..cores)
                .map(|_| Tlb::new(config.synonym_tlb.clone()))
                .collect(),
            delayed_tlb: Tlb::new(hvc_tlb::TlbConfig::delayed(delayed_entries)),
            many,
            placement: Vec::new(),
            placed: 0,
            fetch_cursor: Vec::new(),
            last_asid: vec![None; cores],
            tracer: (config.trace_capacity > 0).then(|| EventTracer::new(config.trace_capacity)),
            kernel,
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
            batch_scratch: Vec::with_capacity(BATCH_WINDOW),
            flush_batch: Vec::new(),
        }
    }

    /// The core an address space runs on (round-robin placement on first
    /// appearance — a multiprogrammed schedule).
    #[inline]
    fn core_of(&mut self, asid: Asid) -> usize {
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

    /// The core `asid` runs on, placing it round-robin on first sight —
    /// the same placement [`SystemSim::step`] will use. Multi-core
    /// drivers route each process's trace items with this.
    pub fn placement_of(&mut self, asid: Asid) -> usize {
        self.core_of(asid)
    }

    /// Number of simulated cores.
    pub fn cores(&self) -> usize {
        self.config.hierarchy.cores
    }

    /// The active core clock. A multi-core driver swaps a per-core clock
    /// in before dispatching that core's time quantum and back out after
    /// (the simulator itself multiplexes one clock otherwise).
    pub fn core_mut(&mut self) -> &mut CoreModel {
        &mut self.core
    }

    /// A fresh clock with this system's issue width and hidden latency
    /// (for per-core clocks in a multi-core driver).
    pub fn new_clock(&self) -> CoreModel {
        CoreModel::new(self.config.width, self.config.hidden_latency)
    }

    /// The scheme under test.
    pub fn scheme(&self) -> TranslationScheme {
        self.scheme
    }

    /// The kernel (for post-run inspection of spaces and segments).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
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

    /// The shared delayed TLB (read-only; invariant sweeps).
    pub fn delayed_tlb(&self) -> &Tlb {
        &self.delayed_tlb
    }

    /// The event tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&EventTracer> {
        self.tracer.as_ref()
    }

    /// Enables (or resizes) the bounded event tracer at runtime; a zero
    /// capacity disables it again.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer = (capacity > 0).then(|| EventTracer::new(capacity));
    }

    /// Installs runtime check hooks (see [`CheckHooks`]). With no hooks
    /// installed the per-access cost is a single branch.
    pub fn set_check_hooks(&mut self, hooks: Box<dyn CheckHooks>) {
        self.hooks = Some(hooks);
    }

    /// Runs a kernel operation (unmap, process churn, sharing
    /// transition, …) and immediately applies every flush it queued, so
    /// the next access cannot observe a stale line or TLB entry. Use
    /// this instead of mutating the kernel between accesses directly.
    pub fn os<R>(&mut self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        let r = f(&mut self.kernel);
        self.apply_flushes(None);
        r
    }

    /// Applies one workload churn event (a replayable batch of kernel
    /// mutations) and drains the flushes it queued as a single shootdown
    /// round initiated by the batch's initiator process.
    pub fn apply_churn(&mut self, ops: &ChurnOps) {
        let initiator = ops.initiator.and_then(|a| self.home_of(a));
        ops.apply(&mut self.kernel);
        self.apply_flushes(initiator);
    }

    /// Records a trace event if tracing is on (~one branch when off).
    #[inline]
    fn trace(&mut self, name: &'static str, cat: &'static str, dur: Cycles, core: usize) {
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent {
                name,
                cat,
                ts: self.core.now().get(),
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
        self.core.mark();
        self.kernel_mark = self.kernel.stats().clone();
        self.obs = ObsReport::default();
    }

    /// Runs `refs` warm-up references (not measured) and then resets
    /// statistics.
    pub fn warm_up(&mut self, workload: &mut WorkloadInstance, refs: usize) {
        let mlp = workload.mlp();
        self.run_batched(workload, refs, mlp);
        self.reset_stats();
    }

    /// Runs `refs` memory references of `workload` and reports.
    pub fn run(&mut self, workload: &mut WorkloadInstance, refs: usize) -> RunReport {
        let mlp = workload.mlp();
        self.run_batched(workload, refs, mlp);
        self.report()
    }

    /// Drives `refs` references through the batched pipeline: decode up
    /// to [`BATCH_WINDOW`] items ahead, ending the window early when the
    /// workload emits a churn batch so the kernel mutation lands at the
    /// same stream position as unbatched stepping. Sound because the
    /// workload generator's state is independent of simulator/kernel
    /// state, so items can be drawn ahead of their timing pass.
    fn run_batched(&mut self, workload: &mut WorkloadInstance, refs: usize, mlp: u32) {
        let mut batch = std::mem::take(&mut self.batch_scratch);
        let mut remaining = refs;
        while remaining > 0 {
            batch.clear();
            let mut churn = None;
            while batch.len() < BATCH_WINDOW.min(remaining) {
                batch.push(workload.next_item());
                if let Some(ops) = workload.take_churn_ops() {
                    churn = Some(ops);
                    break;
                }
            }
            remaining -= batch.len();
            self.step_batch(&batch, mlp);
            if let Some(ops) = churn {
                self.apply_churn(&ops);
            }
        }
        self.batch_scratch = batch;
    }

    /// Replays a pre-recorded trace (e.g. loaded with `hvc-trace`) with
    /// the given memory-level-parallelism hint.
    pub fn run_trace<I>(&mut self, items: I, mlp: u32) -> RunReport
    where
        I: IntoIterator<Item = hvc_types::TraceItem>,
    {
        let mut batch = std::mem::take(&mut self.batch_scratch);
        let mut iter = items.into_iter();
        loop {
            batch.clear();
            batch.extend(iter.by_ref().take(BATCH_WINDOW));
            if batch.is_empty() {
                break;
            }
            self.step_batch(&batch, mlp);
        }
        self.batch_scratch = batch;
        self.report()
    }

    /// Simulates a window of trace items: the same as calling
    /// [`SystemSim::step`] on each in order.
    ///
    /// The translation scheme is fixed for a simulation's lifetime, so
    /// the scheme branch is hoisted out of the per-reference loop: one
    /// dispatch per window selects a `SchemeOps`-monomorphized inner
    /// loop whose timing calls inline the scheme's implementation
    /// directly.
    pub fn step_batch(&mut self, items: &[TraceItem], mlp: u32) {
        match self.scheme {
            TranslationScheme::Baseline => self.step_batch_mono::<BaselineOps>(items, mlp),
            TranslationScheme::Ideal => self.step_batch_mono::<IdealOps>(items, mlp),
            TranslationScheme::HybridDelayedTlb(_)
            | TranslationScheme::HybridManySegment { .. } => {
                self.step_batch_mono::<HybridOps>(items, mlp)
            }
            TranslationScheme::EnigmaDelayedTlb(_) => self.step_batch_mono::<EnigmaOps>(items, mlp),
        }
    }

    /// The scheme-specialized window loop behind [`SystemSim::step_batch`].
    #[inline]
    fn step_batch_mono<D: SchemeOps>(&mut self, items: &[TraceItem], mlp: u32) {
        for &item in items {
            self.step_mono::<D>(item, mlp);
        }
    }

    /// Simulates a single trace item.
    pub fn step(&mut self, item: TraceItem, mlp: u32) {
        match self.scheme {
            TranslationScheme::Baseline => self.step_mono::<BaselineOps>(item, mlp),
            TranslationScheme::Ideal => self.step_mono::<IdealOps>(item, mlp),
            TranslationScheme::HybridDelayedTlb(_)
            | TranslationScheme::HybridManySegment { .. } => self.step_mono::<HybridOps>(item, mlp),
            TranslationScheme::EnigmaDelayedTlb(_) => self.step_mono::<EnigmaOps>(item, mlp),
        }
    }

    /// The scheme-specialized body behind [`SystemSim::step`].
    #[inline]
    fn step_mono<D: SchemeOps>(&mut self, item: TraceItem, mlp: u32) {
        self.core.retire(item.instructions());
        self.refs += 1;
        let core = self.core_of(item.mref.asid);
        // Context switch: under hybrid schemes the OS loads the incoming
        // process's Bloom-filter pair into the core's filter registers
        // (two 1K-bit reads from memory, Section III-B).
        if self.last_asid[core] != Some(item.mref.asid) {
            self.last_asid[core] = Some(item.mref.asid);
            if self.scheme.is_hybrid() {
                self.counters.filter_reloads += 1;
            }
        }
        if self.config.model_ifetch {
            let fetch = self.synth_ifetch(item.mref.asid);
            let flat = D::access(self, core, fetch);
            // Fetch latency is pipelined ahead of execution; only
            // out-of-code-region stalls would matter and the hot loop
            // stays resident, so charge nothing beyond the structures'
            // energy/statistics. The fetch still enters the latency
            // histogram (its attribution was recorded on the way).
            self.obs.mem_latency.record(flat);
            self.trace("ifetch", "mem", flat, core);
        }
        let latency = D::access(self, core, item.mref);
        self.obs.mem_latency.record(latency);
        self.trace("access", "mem", latency, core);
        self.core.memory(latency, mlp);
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
            self.core.stall(c);
        }
        if self.hooks.is_some() {
            let pending = self.kernel.pending_flush_requests();
            let refs = self.refs;
            if let Some(h) = &mut self.hooks {
                h.access_boundary(refs, pending);
            }
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
            let _ = self.kernel.mmap(
                asid,
                VirtAddr::new(TEXT_BASE),
                64 << 10,
                hvc_types::Permissions::RX,
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

    /// Builds the report for everything simulated so far.
    pub fn report(&self) -> RunReport {
        let mut translation = self.counters.clone();
        if let Some(m) = &self.many {
            let (sc_h, sc_m) = m.sc_stats();
            translation.sc_lookups = sc_h + sc_m;
            translation.index_cache_accesses = m.index_cache_stats().accesses();
            translation.segment_table_accesses = m.stats().tree_walks;
        }
        let mut obs = self.obs.clone();
        for w in &self.walker {
            obs.walk_latency.merge_from(&w.stats().walk_latency);
        }
        let os = self.kernel.stats().since(&self.kernel_mark);
        RunReport {
            instructions: self.core.instructions(),
            cycles: self.core.cycles(),
            refs: self.refs,
            translation,
            baseline_tlb_misses: self.dtlb.iter().map(TwoLevelTlb::full_misses).sum(),
            cache: self.hierarchy.stats(),
            dram: self.dram.stats().clone(),
            minor_faults: os.minor_faults,
            os,
            obs,
            per_core: vec![PerCoreStats {
                instructions: self.core.instructions(),
                cycles: self.core.cycles(),
            }],
        }
    }

    /// The many-segment translator's own statistics (if active).
    pub fn many_segment_stats(&self) -> Option<&hvc_segment::ManySegmentStats> {
        self.many.as_ref().map(|m| m.stats())
    }

    // --- per-scheme access paths ---

    /// Conventional physical caching: TLB before L1, walk on miss.
    fn step_baseline(&mut self, core: usize, mref: MemRef) -> Cycles {
        let MemRef { asid, vaddr, kind } = mref;
        self.counters.l1_tlb_lookups += 1;
        let (hit_pte, hit, tlat) = self.dtlb[core].lookup(asid, vaddr.page_number());
        if hit != TlbHit::L1 {
            self.counters.l2_tlb_lookups += 1;
        }
        // An L1 TLB hit is overlapped with the VIPT L1 cache access.
        let mut front = match hit {
            TlbHit::L1 => Cycles::ZERO,
            _ => tlat,
        };
        self.obs.attribution.add(Component::FrontTlb, front);
        let pte = match hit_pte {
            // Hardware enforces permissions at the TLB: a hit whose
            // entry does not allow the access (a write to a cached
            // read-only page) faults to the OS like a miss — the OS
            // breaks COW and the refreshed PTE is re-inserted.
            Some(p) if p.perm.allows(kind.required_permissions()) => p,
            _ => {
                let pte = self.ensure_pte(core, asid, vaddr, kind);
                let walk = self.charged_walk(core, asid, vaddr);
                self.obs.attribution.add(Component::FrontWalk, walk);
                front += walk;
                self.dtlb[core].insert(asid, vaddr.page_number(), pte);
                pte
            }
        };
        if pte.shared {
            self.counters.shared_accesses += 1;
        }
        let pa = PhysAddr::new(pte.frame.base().as_u64() + vaddr.page_offset());
        front + self.phys_access(core, pa, kind)
    }

    /// Ideal: translation is free; physical naming.
    fn step_ideal(&mut self, core: usize, mref: MemRef) -> Cycles {
        let MemRef { asid, vaddr, kind } = mref;
        let pte = self.ensure_pte(core, asid, vaddr, kind);
        if pte.shared {
            self.counters.shared_accesses += 1;
        }
        let pa = PhysAddr::new(pte.frame.base().as_u64() + vaddr.page_offset());
        self.phys_access(core, pa, kind)
    }

    /// Hybrid virtual caching: filter → (synonym TLB | virtual path).
    fn step_hybrid(&mut self, core: usize, mref: MemRef) -> Cycles {
        let MemRef { asid, vaddr, kind } = mref;
        self.counters.filter_lookups += 1;
        let candidate = self
            .kernel
            .space(asid)
            .map(|s| s.filter.is_candidate(vaddr))
            .unwrap_or(false);
        if !candidate {
            // The filter probe overlaps the L1 access: no added latency.
            return self.virt_access(core, asid, vaddr, kind, None);
        }

        self.counters.filter_candidates += 1;
        self.counters.synonym_tlb_lookups += 1;
        let mut front = self.config.synonym_tlb.latency;
        self.obs.attribution.add(Component::SynonymTlb, front);
        let pte = match self.syn_tlb[core].lookup(asid, vaddr.page_number()) {
            // Permission enforcement lives in the synonym TLB on this
            // path: a hit whose entry forbids the access (a write
            // through an r/o view of a writable object) faults to the
            // OS, which breaks COW; the fresh PTE replaces the entry.
            Some(p) if p.perm.allows(kind.required_permissions()) => p,
            looked_up => {
                if looked_up.is_none() {
                    self.counters.synonym_tlb_misses += 1;
                }
                let pte = self.ensure_pte(core, asid, vaddr, kind);
                let walk = self.charged_walk(core, asid, vaddr);
                self.obs.attribution.add(Component::FrontWalk, walk);
                front += walk;
                // Non-synonym entries are inserted too, so future false
                // positives are corrected quickly (Section III-A).
                self.syn_tlb[core].insert(asid, vaddr.page_number(), pte);
                pte
            }
        };
        if pte.shared {
            // A true synonym: physically addressed through the hierarchy.
            self.counters.shared_accesses += 1;
            let pa = PhysAddr::new(pte.frame.base().as_u64() + vaddr.page_offset());
            front + self.phys_access(core, pa, kind)
        } else {
            // False positive: serve virtually; the known PTE saves the
            // delayed walk if the line misses the LLC.
            self.counters.false_positives += 1;
            front + self.virt_access(core, asid, vaddr, kind, Some(pte))
        }
    }

    /// Enigma-like scheme: coarse first-level translation to the
    /// intermediate space before L1 (collapses synonyms to one canonical
    /// name, no filter), page-based delayed translation after the LLC.
    fn step_enigma(&mut self, core: usize, mref: MemRef) -> Cycles {
        let MemRef { asid, vaddr, kind } = mref;
        self.counters.enigma_lookups += 1;
        let (shared, line) = match self.kernel.intermediate_line(asid, vaddr) {
            Some(x) => x,
            None => {
                // Fault the VMA in via the OS, then retry the first level.
                let _ = self.ensure_pte(core, asid, vaddr, kind);
                self.kernel
                    .intermediate_line(asid, vaddr)
                    .expect("mapped after fault")
            }
        };
        if shared {
            self.counters.shared_accesses += 1;
        }
        let name = if shared {
            // Canonical object-relative intermediate name: one name for
            // all synonym views (homonym-safe via the reserved IA range).
            BlockName::Virt(Asid::KERNEL, hvc_types::LineAddr::new(line))
        } else {
            BlockName::Virt(asid, vaddr.line())
        };
        // The first-level segment lookup overlaps the L1 access (large
        // per-process segment registers): no added latency.
        self.named_access(core, name, asid, vaddr, kind, None)
    }

    // --- shared building blocks ---

    /// Physically-named hierarchy access (+DRAM on LLC miss).
    fn phys_access(&mut self, core: usize, pa: PhysAddr, kind: AccessKind) -> Cycles {
        let name = BlockName::Phys(pa.line());
        let r = self.hierarchy.lookup(core, name, kind);
        self.attribute_probe(r.hit_level, r.latency);
        let mut lat = r.latency;
        if r.llc_miss() {
            let now = self.core.now() + lat;
            let dram_lat = self.dram.access_latency(now, pa, kind.is_write());
            self.obs.attribution.add(Component::Dram, dram_lat);
            self.trace("dram", "mem", dram_lat, core);
            lat += dram_lat;
            let victim = self.hierarchy.fill_miss(
                core,
                kind,
                name,
                kind.is_write(),
                hvc_types::Permissions::RW,
            );
            if let Some(v) = victim {
                self.write_back(core, v.name);
            }
            if self.config.prefetch_next_line {
                self.prefetch_phys(core, pa);
            }
        }
        lat
    }

    /// Next-line prefetch under physical naming: stops at the page
    /// boundary (the next physical line would need a translation).
    fn prefetch_phys(&mut self, core: usize, pa: PhysAddr) {
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
        let now = self.core.now();
        self.dram.access(now, next, false); // background fetch
        if let Some(v) = self.hierarchy.fill_miss(
            core,
            AccessKind::Read,
            name,
            false,
            hvc_types::Permissions::RW,
        ) {
            self.write_back(core, v.name);
        }
    }

    /// Next-line prefetch under virtual naming: virtual contiguity lets
    /// it cross page boundaries; the physical address for the background
    /// fetch comes from delayed translation (energy counted, no core
    /// latency).
    fn prefetch_virt(&mut self, core: usize, name: BlockName, asid: Asid, vaddr: VirtAddr) {
        let next_va = vaddr.align_down(hvc_types::LINE_SIZE) + hvc_types::LINE_SIZE;
        let next_name = match name {
            BlockName::Virt(a, line) if a == Asid::KERNEL => {
                // Enigma canonical name: stay in the intermediate space —
                // but only if the next virtual line still belongs to the
                // same shared object (crossing into an adjacent VMA must
                // not inherit this object's namespace).
                match self.kernel.intermediate_line(asid, next_va) {
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
        if self.kernel.walk(asid, next_va.page_number()).is_none() {
            return;
        }
        self.counters.prefetches += 1;
        let (pa, _, perm, _) =
            self.delayed_translate_inner(core, asid, next_va, AccessKind::Read, None, false);
        let now = self.core.now();
        self.dram.access(now, pa, false); // background fetch
        if let Some(v) = self
            .hierarchy
            .fill_miss(core, AccessKind::Read, next_name, false, perm)
        {
            self.write_back(core, v.name);
        }
    }

    /// Virtually-named hierarchy access with delayed translation after an
    /// LLC miss. `known_pte` short-circuits the delayed walk when the
    /// front-end already resolved the page (false-positive path).
    fn virt_access(
        &mut self,
        core: usize,
        asid: Asid,
        vaddr: VirtAddr,
        kind: AccessKind,
        known_pte: Option<Pte>,
    ) -> Cycles {
        let name = BlockName::Virt(asid, vaddr.line());
        self.named_access(core, name, asid, vaddr, kind, known_pte)
    }

    /// Hierarchy access under an explicit (virtual or intermediate) block
    /// name, with delayed translation of `(asid, vaddr)` after LLC misses.
    fn named_access(
        &mut self,
        core: usize,
        name: BlockName,
        asid: Asid,
        vaddr: VirtAddr,
        kind: AccessKind,
        known_pte: Option<Pte>,
    ) -> Cycles {
        // Enforce cached r/o permissions (content-shared pages): a write
        // to a read-only cached line faults to the OS, which breaks COW
        // and flushes the stale lines. Skipped while no line anywhere
        // carries non-writable permissions (the probe could not fault).
        if kind.is_write() && self.hierarchy.may_hold_readonly() {
            if let Some(p) = self.hierarchy.cached_permissions(core, name) {
                if !p.is_writable() {
                    let _ = self.ensure_pte(core, asid, vaddr, kind);
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
            let _ = self.delayed_translate_inner(core, asid, vaddr, kind, known_pte, false);
        }
        if r.llc_miss() {
            let (pa, tlat, perm, mut parts) =
                self.delayed_translate(core, asid, vaddr, kind, known_pte);
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
            let now = self.core.now() + lat;
            let dram_lat = self.dram.access_latency(now, pa, kind.is_write());
            self.obs.attribution.add(Component::Dram, dram_lat);
            self.trace("dram", "mem", dram_lat, core);
            lat += dram_lat;
            let victim = self
                .hierarchy
                .fill_miss(core, kind, name, kind.is_write(), perm);
            if let Some(v) = victim {
                self.write_back(core, v.name);
            }
            if self.config.prefetch_next_line {
                self.prefetch_virt(core, name, asid, vaddr);
            }
        }
        lat
    }

    /// Delayed translation of a non-synonym address after an LLC miss.
    ///
    /// The returned [`CycleAttribution`] itemizes the returned latency
    /// per structure (its components sum to the latency exactly).
    fn delayed_translate(
        &mut self,
        core: usize,
        asid: Asid,
        vaddr: VirtAddr,
        kind: AccessKind,
        known_pte: Option<Pte>,
    ) -> (PhysAddr, Cycles, hvc_types::Permissions, CycleAttribution) {
        self.delayed_translate_inner(core, asid, vaddr, kind, known_pte, true)
    }

    /// `demand` distinguishes demand-path translations (counted in the
    /// TLB-miss metrics) from writeback-path translations (counted only
    /// as lookups, for energy).
    fn delayed_translate_inner(
        &mut self,
        core: usize,
        asid: Asid,
        vaddr: VirtAddr,
        kind: AccessKind,
        known_pte: Option<Pte>,
        demand: bool,
    ) -> (PhysAddr, Cycles, hvc_types::Permissions, CycleAttribution) {
        let mut parts = CycleAttribution::default();
        if let TranslationScheme::HybridManySegment { .. } = self.scheme {
            let Self {
                many,
                dram,
                core: core_model,
                kernel,
                counters,
                hooks,
                ..
            } = self;
            let m = many.as_mut().expect("many-segment scheme");
            // The OS also moves the segment table outside this path
            // (churn's munmap/mmap of eager segments, process teardown,
            // the lazily mapped instruction-fetch text), so re-mirror it
            // before translating.
            if m.sync(kernel.segments()) {
                counters.segment_table_rebuilds += 1;
            }
            let now = core_model.now();
            if let Some((pa, cost)) = m.translate_detailed(asid, vaddr, |addr| {
                counters.pte_reads += 1; // index-tree node fetch from memory
                dram.access_latency(now, addr, false)
            }) {
                if let Some(h) = hooks {
                    let mapped = kernel.walk(asid, vaddr.page_number());
                    h.segment_translation(asid, vaddr, pa, mapped.map(|(pte, _)| pte.frame));
                }
                parts.add(Component::SegmentCache, cost.segment_cache);
                parts.add(Component::IndexCache, cost.index_cache);
                parts.add(Component::SegmentTable, cost.segment_table);
                // Permissions ride the segment (whole-VMA granularity).
                let perm = kernel
                    .space(asid)
                    .and_then(|s| s.vma(vaddr))
                    .map(|v| v.perm)
                    .unwrap_or(hvc_types::Permissions::RW);
                return (pa, cost.total(), perm, parts);
            }
            // Not covered by any segment: fault to the OS. Under the
            // reservation policy this commits a sub-segment (changing the
            // segment table), so the hardware structures re-mirror it; a
            // plain paging-managed page falls back to a walk.
            let pte = self.ensure_pte(core, asid, vaddr, kind);
            let m = self.many.as_mut().expect("many-segment scheme");
            if m.sync(self.kernel.segments()) {
                self.counters.segment_table_rebuilds += 1;
            }
            let lat = self.charged_walk(core, asid, vaddr);
            parts.add(Component::DelayedWalk, lat);
            let pa = PhysAddr::new(pte.frame.base().as_u64() + vaddr.page_offset());
            return (pa, lat, pte.perm, parts);
        }

        // Page-granularity delayed TLB.
        self.counters.delayed_tlb_lookups += 1;
        let tlb_lat = self.delayed_tlb.config().latency;
        parts.add(Component::DelayedTlb, tlb_lat);
        match self.delayed_tlb.lookup(asid, vaddr.page_number()) {
            Some(pte) => {
                let pa = PhysAddr::new(pte.frame.base().as_u64() + vaddr.page_offset());
                (pa, tlb_lat, pte.perm, parts)
            }
            None => {
                if demand {
                    self.counters.delayed_tlb_misses += 1;
                }
                let pte = match known_pte {
                    Some(p) => p,
                    None => self.ensure_pte(core, asid, vaddr, kind),
                };
                let walk = self.charged_walk(core, asid, vaddr);
                parts.add(Component::DelayedWalk, walk);
                self.delayed_tlb.insert(asid, vaddr.page_number(), pte);
                let pa = PhysAddr::new(pte.frame.base().as_u64() + vaddr.page_offset());
                (pa, tlb_lat + walk, pte.perm, parts)
            }
        }
    }

    /// Walks the page table in hardware, charging PTE reads through the
    /// (physically-addressed) cache hierarchy.
    fn charged_walk(&mut self, core_idx: usize, asid: Asid, vaddr: VirtAddr) -> Cycles {
        let Self {
            walker,
            kernel,
            hierarchy,
            dram,
            core,
            counters,
            ..
        } = self;
        let now = core.now();
        let lat = walker[core_idx]
            .walk(kernel, asid, vaddr.page_number(), |addr| {
                counters.pte_reads += 1;
                let name = BlockName::Phys(addr.line());
                let r = hierarchy.lookup(core_idx, name, AccessKind::Read);
                let mut lat = r.latency;
                if r.llc_miss() {
                    lat += dram.access_latency(now + lat, addr, false);
                    hierarchy.fill_miss(
                        core_idx,
                        AccessKind::Read,
                        name,
                        false,
                        hvc_types::Permissions::RW,
                    );
                }
                lat
            })
            .map(|(_, lat)| lat)
            .expect("page mapped by ensure_pte before walking");
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
    fn ensure_pte(&mut self, core: usize, asid: Asid, vaddr: VirtAddr, kind: AccessKind) -> Pte {
        let pte = self
            .kernel
            .touch(asid, vaddr, kind)
            .unwrap_or_else(|e| panic!("access {vaddr} in {asid} failed: {e}"));
        self.apply_flushes(Some(core));
        pte
    }

    /// Applies OS-requested flushes as one directed TLB-shootdown round.
    ///
    /// Per-core TLBs (data/synonym TLBs, walker caches) are flushed only
    /// on the target space's home core: fills happen exclusively on the
    /// core a space is placed on, so no other core can hold its entries.
    /// An unplaced space has no entries anywhere (its flushes are
    /// broadcast defensively but cost nothing). Shared structures — the
    /// hierarchy and the post-LLC delayed TLB — are always maintained;
    /// the hierarchy receives the whole drain as one order-free batch
    /// ([`Hierarchy::apply_batch`]), which is identical to flushing
    /// request by request.
    ///
    /// Cost model (after the Linux shootdown measurements of
    /// arXiv 1701.07517): the batch's distinct home cores other than the
    /// `initiator` are its responders. With none — the common single-core
    /// case — the round is an ASID-generation fast path and free.
    /// Otherwise the initiator owes the IPI issue + acknowledgement wait
    /// and each responder owes interrupt + flush time; the cycles are
    /// parked in `pending_shootdown` / `responder_stalls` and charged by
    /// [`SystemSim::step`] when the cores next run. `None` derives the
    /// initiator from the first flushed space's home core (a fault's
    /// syscall runs on the faulting core).
    fn apply_flushes(&mut self, initiator: Option<usize>) {
        let reqs = self.kernel.drain_flush_requests();
        if reqs.is_empty() {
            return;
        }
        let mut initiator = initiator;
        let mut responders: u128 = 0;
        let mut mark = |home: Option<usize>| {
            if let Some(h) = home {
                match initiator {
                    None => initiator = Some(h),
                    Some(i) if i != h => responders |= 1 << h,
                    _ => {}
                }
            }
        };
        // The hierarchy takes the whole drain as one order-free batch;
        // TLBs and responder marking go request by request.
        self.flush_batch.extend(reqs.iter().map(|&req| match req {
            FlushRequest::Page(asid, vpn) => FlushOp::VirtPage(asid, vpn),
            FlushRequest::DowngradeRo(asid, vpn) => FlushOp::DowngradeRo(asid, vpn),
            FlushRequest::Space(asid) => FlushOp::Space(asid),
            FlushRequest::Frame(base) => FlushOp::PhysFrame(base),
        }));
        self.hierarchy.apply_batch(&mut self.flush_batch);
        for &req in &reqs {
            match req {
                FlushRequest::Page(asid, vpn) | FlushRequest::DowngradeRo(asid, vpn) => {
                    let vp = hvc_types::VirtPage::new(vpn);
                    let home = self.home_of(asid);
                    mark(home);
                    match home {
                        Some(h) => {
                            self.syn_tlb[h].flush_page(asid, vp);
                            self.dtlb[h].flush_page(asid, vp);
                        }
                        None => {
                            for t in &mut self.syn_tlb {
                                t.flush_page(asid, vp);
                            }
                            for t in &mut self.dtlb {
                                t.flush_page(asid, vp);
                            }
                        }
                    }
                    self.delayed_tlb.flush_page(asid, vp);
                }
                FlushRequest::Space(asid) => {
                    let home = self.home_of(asid);
                    mark(home);
                    match home {
                        Some(h) => {
                            self.syn_tlb[h].flush_asid(asid);
                            self.dtlb[h].flush_asid(asid);
                            self.walker[h].flush_asid(asid);
                        }
                        None => {
                            for t in &mut self.syn_tlb {
                                t.flush_asid(asid);
                            }
                            for t in &mut self.dtlb {
                                t.flush_asid(asid);
                            }
                            for w in &mut self.walker {
                                w.flush_asid(asid);
                            }
                        }
                    }
                    self.delayed_tlb.flush_asid(asid);
                }
                // TLB entries for the freed page die with the Page or
                // Space request the kernel queues alongside; only the
                // physically-tagged cache lines need flushing — no
                // per-core interrupt, so no responder.
                FlushRequest::Frame(_) => {}
            }
        }
        let n = responders.count_ones() as u64;
        let cost = self.shoot.round(n as usize);
        self.kernel
            .account_shootdown(n, cost.initiator + n * cost.per_responder);
        self.pending_shootdown += cost.initiator;
        let mut mask = responders;
        while mask != 0 {
            let r = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            self.responder_stalls[r] += cost.per_responder;
        }
        if let Some(h) = &mut self.hooks {
            h.flushes_applied(reqs.len());
        }
    }

    /// Writes back a dirty LLC victim. Virtually-named victims need
    /// delayed translation before reaching DRAM (charged to energy and
    /// DRAM bandwidth, not to the core's critical path).
    fn write_back(&mut self, core: usize, name: BlockName) {
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
                match self.kernel.shm_phys_addr(id, offset) {
                    Some(pa) => pa,
                    None => return, // object vanished (unmapped): drop
                }
            }
            BlockName::Virt(asid, line) => {
                self.counters.writeback_translations += 1;
                let vaddr = VirtAddr::new(line.base_raw());
                let (pa, _, _, _) =
                    self.delayed_translate_inner(core, asid, vaddr, AccessKind::Read, None, false);
                pa
            }
        };
        let now = self.core.now();
        self.dram.access(now, pa, true);
    }
}

/// Per-scheme monomorphization hook for the batched pipeline: each
/// zero-sized implementor routes the timing access to one translation
/// scheme's method, so [`SystemSim::step_batch`] dispatches on the
/// scheme once per window and the compiler specializes (and inlines)
/// the per-reference inner loop for that scheme. The mapping must match
/// the `TranslationScheme` arms in [`SystemSim::step_batch`] /
/// [`SystemSim::step`] exactly — the monomorphized loops are required to
/// be bitwise identical to the old per-reference `match`, which the
/// batch-equivalence proptests and the golden equivalence gate pin.
trait SchemeOps {
    /// The timing pass for one reference (the old per-reference
    /// `match self.scheme { ... => self.step_* }` arm).
    fn access(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles;
}

/// [`TranslationScheme::Baseline`] dispatch marker.
struct BaselineOps;
/// [`TranslationScheme::Ideal`] dispatch marker.
struct IdealOps;
/// [`TranslationScheme::HybridDelayedTlb`] / `HybridManySegment` marker.
struct HybridOps;
/// [`TranslationScheme::EnigmaDelayedTlb`] dispatch marker.
struct EnigmaOps;

impl SchemeOps for BaselineOps {
    #[inline]
    fn access(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
        sim.step_baseline(core, mref)
    }
}

impl SchemeOps for IdealOps {
    #[inline]
    fn access(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
        sim.step_ideal(core, mref)
    }
}

impl SchemeOps for HybridOps {
    #[inline]
    fn access(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
        sim.step_hybrid(core, mref)
    }
}

impl SchemeOps for EnigmaOps {
    #[inline]
    fn access(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
        sim.step_enigma(core, mref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_os::AllocPolicy;
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
        assert!(
            base_on.cycles < base_off.cycles,
            "prefetch must help streaming"
        );
        assert!(base_on.translation.prefetches > 0);
        assert!(
            base_on.translation.prefetches_blocked > 0,
            "physical prefetching stops at page boundaries"
        );

        let hyb_on = run(TranslationScheme::HybridDelayedTlb(4096), true);
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
