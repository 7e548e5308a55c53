//! Cache statistics.

use hvc_obs::LatencyHistogram;

/// Counters for a single cache level.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Lookups that found the block.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines displaced by fills.
    pub evictions: u64,
    /// Dirty lines displaced by fills.
    pub writebacks: u64,
    /// Lines removed by explicit invalidation (flushes, coherence).
    pub invalidations: u64,
}

impl LevelStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; `None` with no accesses.
    pub fn miss_rate(&self) -> Option<f64> {
        let n = self.accesses();
        (n > 0).then(|| self.misses as f64 / n as f64)
    }
}

/// Aggregated statistics for a whole [`crate::Hierarchy`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Per-core L1I stats.
    pub l1i: Vec<LevelStats>,
    /// Per-core L1D stats.
    pub l1d: Vec<LevelStats>,
    /// Per-core L2 stats.
    pub l2: Vec<LevelStats>,
    /// Shared LLC stats.
    pub llc: LevelStats,
    /// Coherence invalidations sent to private caches.
    pub coherence_invalidations: u64,
    /// Writebacks that reached memory (dirty LLC victims plus coherence
    /// downgrades).
    pub memory_writebacks: u64,
    /// Distribution of on-chip lookup latencies (one sample per
    /// hierarchy access, DRAM time excluded).
    pub lookup_latency: LatencyHistogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate() {
        let s = LevelStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(s.accesses(), 4);
        assert!((s.miss_rate().unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(LevelStats::default().miss_rate(), None);
    }
}
