//! Run-level statistics.

use hvc_cache::CacheStats;
use hvc_mem::DramStats;
use hvc_obs::ObsReport;
use hvc_os::KernelStats;

/// Event counts of the translation machinery, fed to the energy model
/// and to the Table II metrics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TranslationCounters {
    /// Baseline L1 TLB lookups (every access in the baseline).
    pub l1_tlb_lookups: u64,
    /// Baseline L2 TLB lookups (L1 TLB misses).
    pub l2_tlb_lookups: u64,
    /// Synonym-filter probes (every access in hybrid schemes).
    pub filter_lookups: u64,
    /// Synonym-filter candidates (true synonyms + false positives).
    pub filter_candidates: u64,
    /// Candidates that turned out to be false positives.
    pub false_positives: u64,
    /// Synonym TLB lookups (candidates only).
    pub synonym_tlb_lookups: u64,
    /// Synonym TLB misses (walk before L1).
    pub synonym_tlb_misses: u64,
    /// Delayed TLB lookups (LLC misses of non-synonym lines).
    pub delayed_tlb_lookups: u64,
    /// Delayed TLB misses (page walk after LLC miss).
    pub delayed_tlb_misses: u64,
    /// Segment-cache lookups.
    pub sc_lookups: u64,
    /// Index-cache block reads.
    pub index_cache_accesses: u64,
    /// Hardware segment-table reads.
    pub segment_table_accesses: u64,
    /// Page-table entry reads issued by walkers.
    pub pte_reads: u64,
    /// Accesses that targeted r/w-shared (synonym) pages.
    pub shared_accesses: u64,
    /// Writebacks that required delayed translation of a virtual name.
    pub writeback_translations: u64,
    /// Context-switch reloads of the per-core synonym-filter registers
    /// (two 1K-bit Bloom filters read from OS memory, Section III-B).
    pub filter_reloads: u64,
    /// Re-mirrorings of the hardware segment structures after the OS
    /// changed the segment table (eager growth, unmaps).
    pub segment_table_rebuilds: u64,
    /// Enigma-style coarse first-level translations (every access under
    /// the Enigma scheme).
    pub enigma_lookups: u64,
    /// Next-line prefetches issued (when the prefetcher is enabled).
    pub prefetches: u64,
    /// Prefetches suppressed at a page boundary (physical naming only).
    pub prefetches_blocked: u64,
}

impl TranslationCounters {
    /// TLB accesses before L1: baseline = L1 TLB lookups; hybrid =
    /// synonym TLB lookups. The Table II "TLB access reduction" compares
    /// these.
    pub fn front_tlb_accesses(&self) -> u64 {
        self.l1_tlb_lookups + self.synonym_tlb_lookups
    }

    /// All TLB misses requiring a page walk (baseline: two-level miss;
    /// hybrid: synonym TLB miss + delayed TLB miss). Table II's "total
    /// TLB miss reduction" compares these.
    pub fn total_tlb_misses(&self) -> u64 {
        self.synonym_tlb_misses + self.delayed_tlb_misses
    }
}

/// One core's slice of a run (index in `RunReport::per_core` = core id).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerCoreStats {
    /// Instructions this core retired in the measured window.
    pub instructions: u64,
    /// Cycles this core's clock advanced in the measured window.
    pub cycles: u64,
}

/// The complete result of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Memory references simulated.
    pub refs: u64,
    /// Translation event counts.
    pub translation: TranslationCounters,
    /// Baseline-TLB full misses (both levels missed; baseline runs only).
    pub baseline_tlb_misses: u64,
    /// Cache hierarchy statistics.
    pub cache: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Demand-paging minor faults during the run.
    pub minor_faults: u64,
    /// OS kernel event counters (shootdowns, flushes, filter
    /// maintenance) for the measured window.
    pub os: KernelStats,
    /// Observability record: latency histograms and the
    /// cycle-attribution ledger.
    pub obs: ObsReport,
    /// Per-core instruction/cycle slices (one entry per simulated core;
    /// `cycles` above is their sum).
    pub per_core: Vec<PerCoreStats>,
}

impl RunReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Misses per kilo-instruction for an event count.
    pub fn mpki(&self, events: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            events as f64 * 1000.0 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_mpki() {
        let r = RunReport {
            instructions: 2000,
            cycles: 1000,
            ..Default::default()
        };
        assert!((r.ipc() - 2.0).abs() < 1e-12);
        assert!((r.mpki(10) - 5.0).abs() < 1e-12);
        let empty = RunReport::default();
        assert_eq!(empty.ipc(), 0.0);
        assert_eq!(empty.mpki(5), 0.0);
    }

    #[test]
    fn counter_rollups() {
        let c = TranslationCounters {
            l1_tlb_lookups: 10,
            synonym_tlb_lookups: 2,
            synonym_tlb_misses: 1,
            delayed_tlb_misses: 3,
            ..Default::default()
        };
        assert_eq!(c.front_tlb_accesses(), 12);
        assert_eq!(c.total_tlb_misses(), 4);
    }
}
