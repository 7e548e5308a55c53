//! Cache geometry and hierarchy configuration.

use hvc_types::{Cycles, LruSets, LINE_SIZE};

/// Geometry and latency of a single cache level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency of this level.
    pub latency: Cycles,
}

impl CacheConfig {
    /// Creates a configuration, validating that the geometry divides into
    /// a power-of-two number of sets.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a multiple of `ways * 64`, the
    /// resulting set count is not a power of two, or `ways` exceeds 16
    /// (a set's recency order is one nibble per way in one `u64`).
    pub fn new(size_bytes: u64, ways: usize, latency: Cycles) -> Self {
        assert!(
            ways <= LruSets::MAX_WAYS,
            "at most {} ways per set",
            LruSets::MAX_WAYS
        );
        let c = CacheConfig {
            size_bytes,
            ways,
            latency,
        };
        let sets = c.sets();
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        c
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / LINE_SIZE;
        assert!(
            lines.is_multiple_of(self.ways as u64) && lines > 0,
            "capacity must divide into whole sets"
        );
        (lines / self.ways as u64) as usize
    }

    /// Total lines of capacity.
    pub fn lines(&self) -> u64 {
        self.size_bytes / LINE_SIZE
    }

    /// 32 KB 4-way L1 (2-cycle tag+data as in Table IV; the 2/4-cycle
    /// split of the paper is modelled as a uniform 2 cycles for loads).
    pub fn l1_32k() -> Self {
        CacheConfig::new(32 * 1024, 4, Cycles::new(2))
    }

    /// 256 KB 8-way 6-cycle L2 (Table IV).
    pub fn l2_256k() -> Self {
        CacheConfig::new(256 * 1024, 8, Cycles::new(6))
    }

    /// 2 MB 16-way 27-cycle L3 (Table IV).
    pub fn l3_2m() -> Self {
        CacheConfig::new(2 * 1024 * 1024, 16, Cycles::new(27))
    }

    /// 8 MB 16-way shared cache used in the paper's Section III-C filter
    /// evaluation.
    pub fn l3_8m() -> Self {
        CacheConfig::new(8 * 1024 * 1024, 16, Cycles::new(27))
    }
}

/// Configuration of a full multi-core hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of cores, each with private L1I/L1D/L2.
    pub cores: usize,
    /// Private instruction L1.
    pub l1i: CacheConfig,
    /// Private data L1.
    pub l1d: CacheConfig,
    /// Private unified L2.
    pub l2: CacheConfig,
    /// Shared inclusive LLC.
    pub llc: CacheConfig,
}

impl HierarchyConfig {
    /// The paper's Table IV configuration for `cores` cores: 32 KB L1I/D,
    /// 256 KB L2, 2 MB shared LLC (scaled by core count for multi-core
    /// mixes, matching the paper's per-core LLC provisioning).
    pub fn isca2016(cores: usize) -> Self {
        assert!(cores > 0, "hierarchy needs at least one core");
        let llc_bytes = 2 * 1024 * 1024 * cores as u64;
        HierarchyConfig {
            cores,
            l1i: CacheConfig::l1_32k(),
            l1d: CacheConfig::l1_32k(),
            l2: CacheConfig::l2_256k(),
            llc: CacheConfig::new(llc_bytes, 16, Cycles::new(27)),
        }
    }

    /// A small configuration for unit tests (fast to fill and evict).
    pub fn test_tiny() -> Self {
        HierarchyConfig {
            cores: 1,
            l1i: CacheConfig::new(512, 2, Cycles::new(1)),
            l1d: CacheConfig::new(512, 2, Cycles::new(1)),
            l2: CacheConfig::new(1024, 2, Cycles::new(3)),
            llc: CacheConfig::new(2048, 2, Cycles::new(9)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isca_geometry() {
        let c = HierarchyConfig::isca2016(1);
        assert_eq!(c.l1d.sets(), 128);
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.llc.sets(), 2048);
        assert_eq!(c.llc.lines(), 32768);
    }

    #[test]
    fn multi_core_scales_llc() {
        let c = HierarchyConfig::isca2016(4);
        assert_eq!(c.llc.size_bytes, 8 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheConfig::new(3 * 64 * 4, 4, Cycles::new(1));
    }

    #[test]
    #[should_panic(expected = "at most 16 ways")]
    fn more_than_sixteen_ways_rejected() {
        let _ = CacheConfig::new(32 * 64, 32, Cycles::new(1));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = HierarchyConfig::isca2016(0);
    }
}
