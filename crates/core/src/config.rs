//! System configuration and translation-scheme selection.

use hvc_cache::HierarchyConfig;
use hvc_mem::DramConfig;
use hvc_tlb::TlbConfig;

/// The translation architecture under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TranslationScheme {
    /// Conventional physically-addressed caches with a two-level TLB
    /// before L1 (Haswell-like, Table IV).
    Baseline,
    /// Hybrid virtual caching with a synonym filter + synonym TLB before
    /// L1 and page-granularity delayed translation after the LLC.
    HybridDelayedTlb(
        /// Delayed TLB entry count.
        usize,
    ),
    /// Hybrid virtual caching with many-segment delayed translation.
    HybridManySegment {
        /// Enable the segment cache.
        segment_cache: bool,
    },
    /// No translation cost at all (upper bound; "ideal TLB" in Figure 9).
    Ideal,
    /// Enigma-like intermediate address space (Section II): a coarse
    /// first-level translation before L1 maps synonyms of one shared
    /// object to a single intermediate name (no Bloom filter, no synonym
    /// TLB); a fixed page-granularity delayed TLB translates intermediate
    /// → physical after LLC misses. Demonstrates the scalability limit
    /// the paper attributes to Enigma.
    EnigmaDelayedTlb(
        /// Delayed TLB entry count.
        usize,
    ),
    /// Redundant Memory Mappings (Table III): a per-core 32-entry range
    /// TLB over the eager segments stands where the page TLB would, in
    /// front of physically named caches; addresses no segment covers
    /// are walked page by page.
    Rmm,
}

/// Translation architecture of a virtualized system (one guest VM run
/// by [`SystemSim::virtualized`](crate::SystemSim::virtualized)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VirtScheme {
    /// Physical caching with a TLB holding gVA→MA entries and a 2D
    /// walker accelerated by a nested TLB — the "state-of-the-art
    /// translation cache" baseline.
    NestedBaseline,
    /// Hybrid virtual caching: guest+host synonym filters and a synonym
    /// TLB before L1; a delayed TLB (gVA→MA) backed by the 2D walker
    /// after LLC misses.
    HybridDelayedNested(
        /// Delayed TLB entries.
        usize,
    ),
    /// Hybrid virtual caching with delayed 2D segment translation
    /// (guest + host segments, gVA→MA segment cache).
    HybridNestedSegments,
}

/// Full-system parameters (Table IV plus model knobs).
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Baseline L1 TLB.
    pub l1_tlb: TlbConfig,
    /// Baseline L2 TLB.
    pub l2_tlb: TlbConfig,
    /// Hybrid synonym TLB (before L1, candidates only).
    pub synonym_tlb: TlbConfig,
    /// Core retire width (instructions per cycle when nothing stalls).
    pub width: u32,
    /// Cycles of memory latency the out-of-order window hides per access.
    pub hidden_latency: u64,
    /// Overlap delayed translation with the LLC access instead of
    /// starting it only after the miss is known (the paper's Section IV-C
    /// trade-off: "parallel accesses to the delayed translation and LLCs
    /// can improve the performance, \[but\] increase the energy consumption
    /// … to reduce the energy overhead, an alternative way is to access
    /// delayed translation serially"). Serial is the paper's default and
    /// ours; parallel hides up to one LLC latency of translation time but
    /// performs a translation for every LLC *access*, which the energy
    /// accounting reflects.
    pub parallel_delayed: bool,
    /// Enable a next-line prefetcher on LLC misses. Under physical
    /// caching the prefetcher must stop at page boundaries (the next
    /// physical line is unknown without a translation); under hybrid
    /// virtual caching it prefetches across them — a classic side benefit
    /// of virtually-addressed hierarchies.
    pub prefetch_next_line: bool,
    /// Model an instruction-fetch stream: one L1I fetch per trace item
    /// from a small hot code region, going through the translation
    /// front-end like data accesses do (the paper's observation that
    /// TLBs are consulted "for every instruction fetch and data
    /// access"). Off by default; the headline experiments measure the
    /// data side as the paper's Section III-C does.
    pub model_ifetch: bool,
    /// Event-tracer ring-buffer capacity. `0` (the default) disables
    /// tracing entirely — the simulator then pays one branch per
    /// candidate event and allocates nothing.
    pub trace_capacity: usize,
}

impl SystemConfig {
    /// The paper's Table IV configuration: 3.4 GHz 4-commit OoO core,
    /// 32 KB L1s / 256 KB L2 / 2 MB LLC, 64-entry L1 + 1024-entry L2
    /// TLBs, DDR3-1600.
    pub fn isca2016() -> Self {
        SystemConfig {
            hierarchy: HierarchyConfig::isca2016(1),
            dram: DramConfig::ddr3_1600(),
            l1_tlb: TlbConfig::l1_64(),
            l2_tlb: TlbConfig::l2_1024(),
            synonym_tlb: TlbConfig::synonym_64(),
            width: 4,
            hidden_latency: 12,
            parallel_delayed: false,
            prefetch_next_line: false,
            model_ifetch: false,
            trace_capacity: 0,
        }
    }

    /// Variant with the 8 MB shared LLC used in the Section III-C filter
    /// evaluation.
    pub fn isca2016_8mb_llc() -> Self {
        let mut c = Self::isca2016();
        c.hierarchy = HierarchyConfig {
            llc: hvc_cache::CacheConfig::l3_8m(),
            ..HierarchyConfig::isca2016(1)
        };
        c
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::isca2016()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isca_defaults() {
        let c = SystemConfig::isca2016();
        assert_eq!(c.width, 4);
        assert_eq!(c.l1_tlb.entries, 64);
        assert_eq!(c.l2_tlb.entries, 1024);
        assert_eq!(c.hierarchy.llc.size_bytes, 2 << 20);
        assert_eq!(SystemConfig::default().width, c.width);
        assert_eq!(
            SystemConfig::isca2016_8mb_llc().hierarchy.llc.size_bytes,
            8 << 20
        );
    }
}
