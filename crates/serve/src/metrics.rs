//! Service metrics: counters, batch accounting, and latency histograms.
//!
//! The instrument types live in [`nvc_obs`]; this module holds one
//! service's set of them as plain fields, updated lock-free on the hot
//! paths and read by [`crate::ServeHandle::stats_json`].

pub use nvc_obs::{Counter, LatencyHistogram};

/// All service counters. Cheap to update from any thread.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Vectorize requests accepted.
    pub requests: Counter,
    /// Requests that failed.
    pub errors: Counter,
    /// Innermost loops decided, cached + computed.
    pub loops_served: Counter,
    /// Model forward passes run by the batch workers.
    pub batches: Counter,
    /// Loops decided inside those forward passes.
    pub batched_loops: Counter,
    /// Loops per forward pass: the same log₂ histogram as the latencies,
    /// so the bucket edges are the powers of two up to `batch_size`
    /// (exclusive — a batch of 8 counts under 16).
    pub batch_sizes: LatencyHistogram,
    /// Batches whose forward panicked or answered short; their
    /// unanswered jobs failed.
    pub failed_batches: Counter,
    /// Misses that coalesced onto another request's in-flight decision
    /// instead of embedding the same loop again.
    pub dedup_waits: Counter,
    /// Cache entries restored from a persisted snapshot at startup.
    pub entries_restored: Counter,
    /// Persisted cache entries discarded because their snapshot was
    /// taken under a different checkpoint hash.
    pub entries_invalidated_by_version: Counter,
    /// This handle's decision-store probes that hit.
    pub cache_hits: Counter,
    /// This handle's decision-store probes that missed.
    pub cache_misses: Counter,
    /// Entries this handle added to the decision store, computed or
    /// restored.
    pub cache_insertions: Counter,
    /// Warm samples replayed as shadow traffic against this handle
    /// after a hot-swap reload.
    pub warmup_replayed: Counter,
    /// End-to-end request latency.
    pub latency: LatencyHistogram,
}

impl Metrics {
    /// Records one worker batch of `n` loops.
    pub fn record_batch(&self, n: usize) {
        self.batches.inc();
        self.batched_loops.add(n as u64);
        self.batch_sizes.record(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_batch_counts_batches_loops_and_sizes() {
        let m = Metrics::default();
        m.record_batch(4);
        m.record_batch(8);
        assert_eq!(m.batches.get(), 2);
        assert_eq!(m.batched_loops.get(), 12);
        assert_eq!(m.batch_sizes.nonzero_buckets(), vec![(8, 1), (16, 1)]);
    }
}
