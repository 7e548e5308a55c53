//! Log₂-bucketed latency histograms.

use hvc_types::Cycles;

/// Number of buckets: one per possible bit-width of a `u64` latency
/// (0 through 64), so every recordable value has a bucket and the
/// histogram never allocates or saturates.
pub const BUCKETS: usize = 65;

/// An allocation-free latency histogram with power-of-two buckets.
///
/// Bucket `k > 0` covers the half-open value range `[2^(k-1), 2^k)`;
/// bucket 0 holds exact zeros. Recording is two adds and a max — cheap
/// enough for per-access hot paths — and merging is elementwise
/// addition, so a merged histogram is exactly the histogram of both
/// sample sets.
///
/// Percentile readout is deterministic: the reported quantile is the
/// *inclusive upper bound* of the bucket containing the requested rank
/// (clamped to the exact tracked maximum), so it is a pure function of
/// the bucket counts.
///
/// # Examples
///
/// ```
/// use hvc_obs::LatencyHistogram;
/// use hvc_types::Cycles;
///
/// let mut h = LatencyHistogram::default();
/// for lat in [3u64, 4, 4, 5, 200] {
///     h.record(Cycles::new(lat));
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 200);
/// assert_eq!(h.p50(), 7); // upper bound of the [4, 8) bucket
/// assert_eq!(h.p99(), 200); // capped at the exact maximum
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    total: Cycles,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            total: Cycles::ZERO,
            max: 0,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("total", &self.total)
            .field("max", &self.max)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

/// Bucket index for a value: its bit width (0 for 0).
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `k`.
fn upper_bound(k: usize) -> u64 {
    match k {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << k) - 1,
    }
}

impl LatencyHistogram {
    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, latency: Cycles) {
        let v = latency.get();
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.total += latency;
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn total(&self) -> Cycles {
        self.total
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample; `None` when the histogram is empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total.get() as f64 / self.count as f64)
    }

    /// The quantile `num/den` (e.g. 95/100 for p95) as the inclusive
    /// upper bound of the bucket holding that rank, clamped to the exact
    /// maximum. Returns 0 for an empty histogram.
    ///
    /// Integer rank arithmetic (`ceil(count * num / den)`) keeps the
    /// readout an exact function of the counts — no float rounding can
    /// make two merge orders disagree.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        assert!(den > 0 && num <= den, "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count as u128 * num as u128).div_ceil(den as u128);
        let rank = (rank as u64).max(1);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return upper_bound(k).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`Self::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(50, 100)
    }

    /// 95th percentile (see [`Self::quantile`]).
    pub fn p95(&self) -> u64 {
        self.quantile(95, 100)
    }

    /// 99th percentile (see [`Self::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(99, 100)
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs in
    /// ascending order — the compact form reports serialize.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| (upper_bound(k), n))
    }

    /// Adds `other`'s samples to `self`: the result is the histogram of
    /// both sample sets.
    pub fn merge_from(&mut self, other: &Self) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(samples: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        for &s in samples {
            h.record(Cycles::new(s));
        }
        h
    }

    #[test]
    fn buckets_cover_bit_widths() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(upper_bound(0), 0);
        assert_eq!(upper_bound(3), 7);
        assert_eq!(upper_bound(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn percentiles_track_the_distribution() {
        let mut samples = vec![1; 99];
        samples.push(1_000_000);
        let h = hist(&samples);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p95(), 1);
        // The single outlier lands exactly on the p99 rank boundary:
        // rank ceil(100 * 99/100) = 99 is still in the ones bucket.
        assert_eq!(h.p99(), 1);
        assert_eq!(h.quantile(100, 100), 1_000_000);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn quantile_is_clamped_to_exact_max() {
        let h = hist(&[100]);
        // 100 lives in the [64, 128) bucket whose upper bound is 127,
        // but the readout never exceeds the tracked maximum.
        assert_eq!(h.p50(), 100);
        assert_eq!(h.p99(), 100);
    }

    fn sum(a: &LatencyHistogram, b: &LatencyHistogram) -> LatencyHistogram {
        let mut out = a.clone();
        out.merge_from(b);
        out
    }

    #[test]
    fn merge_matches_whole_run() {
        let whole = hist(&[0, 3, 9, 9, 70, 300, 5000]);
        let merged = sum(&hist(&[0, 3, 9]), &hist(&[9, 70, 300, 5000]));
        assert_eq!(whole, merged);
        assert_eq!(whole.total(), Cycles::new(5391));
    }

    #[test]
    fn merge_laws_hold() {
        let a = hist(&[1, 2, 3]);
        let b = hist(&[100, 200]);
        let c = hist(&[7]);
        assert_eq!(sum(&a, &LatencyHistogram::default()), a);
        assert_eq!(sum(&a, &b), sum(&b, &a));
        assert_eq!(sum(&sum(&a, &b), &c), sum(&a, &sum(&b, &c)));
    }
}
