//! DRAM access statistics.

use crate::bank::RowOutcome;
use hvc_obs::LatencyHistogram;
use hvc_types::Cycles;

/// Counters accumulated by [`crate::Dram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Number of read accesses.
    pub reads: u64,
    /// Number of write accesses.
    pub writes: u64,
    /// Accesses that hit an open row buffer.
    pub row_hits: u64,
    /// Accesses to a closed bank.
    pub row_misses: u64,
    /// Accesses that had to close another row first.
    pub row_conflicts: u64,
    /// Sum of access latencies (queueing included).
    pub total_latency: Cycles,
    /// Distribution of per-access latencies (queueing included).
    pub access_latency: LatencyHistogram,
}

impl DramStats {
    pub(crate) fn record(&mut self, outcome: RowOutcome, is_write: bool, latency: u64) {
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        match outcome {
            RowOutcome::Hit => self.row_hits += 1,
            RowOutcome::Miss => self.row_misses += 1,
            RowOutcome::Conflict => self.row_conflicts += 1,
        }
        self.total_latency += Cycles::new(latency);
        self.access_latency.record(Cycles::new(latency));
    }

    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Row-buffer hit rate over all accesses, in `[0, 1]`; `None` if no
    /// accesses were recorded.
    pub fn row_hit_rate(&self) -> Option<f64> {
        let n = self.accesses();
        (n > 0).then(|| self.row_hits as f64 / n as f64)
    }

    /// Mean access latency; `None` if no accesses were recorded.
    pub fn mean_latency(&self) -> Option<f64> {
        let n = self.accesses();
        (n > 0).then(|| self.total_latency.get() as f64 / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_on_empty_stats_are_none() {
        let s = DramStats::default();
        assert_eq!(s.row_hit_rate(), None);
        assert_eq!(s.mean_latency(), None);
        assert_eq!(s.accesses(), 0);
    }

    #[test]
    fn record_classifies_outcomes() {
        let mut s = DramStats::default();
        s.record(RowOutcome::Hit, false, 10);
        s.record(RowOutcome::Miss, true, 20);
        s.record(RowOutcome::Conflict, false, 30);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_conflicts, 1);
        assert_eq!(s.accesses(), 3);
        assert!((s.row_hit_rate().unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_latency().unwrap() - 20.0).abs() < 1e-12);
    }
}
