//! The stack's instruments: counters, gauges, and log₂ latency
//! histograms — plain relaxed atomics, held as fields by the struct
//! that updates them and read by that struct's `stats` rendering.
//!
//! The histogram interpolates linearly *within* the log₂ bucket instead
//! of returning the bucket's power-of-2 upper bound, so a pile of 100 µs
//! observations reports p50 ≈ 97 µs rather than 128 µs.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use crate::json::Json;

/// Number of log₂ microsecond buckets (covers < 1 µs .. > 2⁴⁶ µs).
const BUCKETS: usize = 48;

/// A lock-free latency histogram over log₂(µs) buckets.
///
/// Bucket `i` holds observations in `[2^(i-1), 2^i)` microseconds
/// (bucket 1 additionally holds 0); `2^i` is the bucket's exclusive
/// upper bound, reported as its `le` edge.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation in microseconds.
    pub fn record(&self, us: u64) {
        let bucket = (64 - (us | 1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us() as f64 / n as f64
        }
    }

    /// Estimated latency (µs) at quantile `q ∈ [0, 1]`, interpolated
    /// linearly within the containing log₂ bucket.
    ///
    /// Monotone in `q`, and exact at bucket boundaries: when the rank
    /// lands on the last observation of a bucket the estimate is the
    /// bucket's upper edge `2^i` — the value the pre-interpolation
    /// histogram reported for *every* rank in the bucket.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if cum + n >= rank {
                // Bucket i spans (lo, hi]; the rank sits `rank - cum`
                // observations deep into its `n`.
                let lo = if i <= 1 { 0 } else { 1u64 << (i - 1) };
                let hi = 1u64 << i;
                let frac = (rank - cum) as f64 / n as f64;
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
            cum += n;
        }
        1u64 << (BUCKETS - 1)
    }

    /// Per-bucket `(le, count)` pairs for every non-empty bucket, in
    /// ascending `le` order. Counts are *per bucket*, not cumulative.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((1u64 << i, n))
            })
            .collect()
    }

    /// The non-empty buckets as `[[le, count], …]` — the `stats` dump
    /// shape.
    pub fn buckets_json(&self) -> Json {
        let pair = |(le, n): (u64, u64)| Json::Arr(vec![Json::from(le), Json::from(n)]);
        Json::Arr(self.nonzero_buckets().into_iter().map(pair).collect())
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: goes up and down (in-flight requests, connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let h = LatencyHistogram::default();
        for _ in 0..98 {
            h.record(100); // bucket (64, 128]
        }
        for _ in 0..2 {
            h.record(10_000); // bucket (8192, 16384]
        }
        assert_eq!(h.count(), 100);
        // p50: rank 50 of 98 in (64, 128] → 64 + 64·(50/98) ≈ 96, far
        // tighter than the old bucket-edge answer of 128.
        let p50 = h.quantile_us(0.5);
        assert!((95..=98).contains(&p50), "p50 {p50} not near 96");
        // p99: rank 99, second bucket, 1 of 2 deep → 8192 + 8192/2.
        assert_eq!(h.quantile_us(0.99), 12_288);
        assert!(h.quantile_us(0.99) >= 8_192, "p99 must reach the slow tail");
        assert!((h.mean_us() - (98.0 * 100.0 + 2.0 * 10_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.99), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn one_sample_reports_its_bucket_edge_at_every_quantile() {
        let h = LatencyHistogram::default();
        h.record(100);
        // One observation: every quantile's rank is 1, frac = 1/1, so
        // the estimate is exactly the bucket's upper edge.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 128, "q={q}");
        }
    }

    #[test]
    fn quantiles_are_monotone_and_exact_at_bucket_boundaries() {
        let h = LatencyHistogram::default();
        for _ in 0..10 {
            h.record(100); // bucket (64, 128]
        }
        for _ in 0..10 {
            h.record(1_000); // bucket (512, 1024]
        }
        // Rank straddle: q=0.5 is the last observation of the first
        // bucket → exactly its upper edge; q just above crosses into
        // the second bucket and must not go down.
        assert_eq!(h.quantile_us(0.5), 128);
        let mut prev = 0;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.quantile_us(q);
            assert!(v >= prev, "quantile not monotone at q={q}: {v} < {prev}");
            prev = v;
        }
        assert_eq!(h.quantile_us(1.0), 1_024);
    }

    #[test]
    fn zero_and_tiny_observations_stay_in_the_low_bucket() {
        let h = LatencyHistogram::default();
        h.record(0);
        h.record(1);
        let p100 = h.quantile_us(1.0);
        assert!(p100 <= 2, "sub-µs observations must stay tiny, got {p100}");
    }
}
