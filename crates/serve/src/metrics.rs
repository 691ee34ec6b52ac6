//! Service metrics: counters, batch accounting, and latency histograms.
//!
//! The instruments themselves live in [`nvc_obs`] now — this module
//! binds a per-service set of named counters/histograms out of a
//! [`MetricsRegistry`] (so the hub's Prometheus exposition and the
//! serve `stats` verb render the same registry) and keeps the
//! [`MetricsSnapshot`] shape the protocol has always exposed.

use std::sync::Arc;
use std::time::Instant;

use nvc_obs::MetricsRegistry;

pub use nvc_obs::{Counter, Gauge, HistogramSnapshot, LatencyHistogram};

/// All service counters. Cheap to update from any thread; every
/// instrument is also reachable by name through [`Metrics::registry`].
#[derive(Debug)]
pub struct Metrics {
    /// Vectorize requests accepted (`serve_requests_total`).
    pub requests: Arc<Counter>,
    /// Requests that failed (`serve_errors_total`).
    pub errors: Arc<Counter>,
    /// Innermost loops decided, cached + computed (`serve_loops_total`).
    pub loops_served: Arc<Counter>,
    /// Model forward passes run by the batch workers
    /// (`serve_batches_total`).
    pub batches: Arc<Counter>,
    /// Loops decided inside those forward passes
    /// (`serve_batched_loops_total`).
    pub batched_loops: Arc<Counter>,
    /// Loops per forward pass (`serve_batch_size`): the same log₂
    /// histogram as the latencies, so the `le` edges are the powers of
    /// two up to `batch_size` (exclusive — a batch of 8 counts under
    /// `le="16"`).
    pub batch_sizes: Arc<LatencyHistogram>,
    /// Batches whose forward panicked or answered short; their
    /// unanswered jobs failed (`serve_failed_batches_total`).
    pub failed_batches: Arc<Counter>,
    /// Misses queued and not yet taken by a worker
    /// (`serve_batch_queue_depth`; sampled when the metrics are read).
    pub queue_depth: Arc<Gauge>,
    /// Misses that coalesced onto another request's in-flight decision
    /// instead of embedding the same loop again
    /// (`serve_dedup_waits_total`).
    pub dedup_waits: Arc<Counter>,
    /// Cache entries restored from a persisted snapshot at startup
    /// (`serve_cache_entries_restored_total`).
    pub entries_restored: Arc<Counter>,
    /// Persisted cache entries discarded because their snapshot was
    /// taken under a different checkpoint hash
    /// (`serve_cache_entries_invalidated_total`).
    pub entries_invalidated_by_version: Arc<Counter>,
    /// This handle's decision-store probes that hit
    /// (`serve_cache_hits_total`).
    pub cache_hits: Arc<Counter>,
    /// This handle's decision-store probes that missed
    /// (`serve_cache_misses_total`).
    pub cache_misses: Arc<Counter>,
    /// Entries this handle added to the decision store, computed or
    /// restored (`serve_cache_insertions_total`).
    pub cache_insertions: Arc<Counter>,
    /// Warm samples replayed as shadow traffic against this handle
    /// after a hot-swap reload (`serve_warmup_replayed_total`).
    pub warmup_replayed: Arc<Counter>,
    /// End-to-end request latency (`serve_request_latency_us`).
    pub latency: Arc<LatencyHistogram>,
    /// The registry every instrument above is registered in.
    registry: Arc<MetricsRegistry>,
    /// When this service instance started (drives `uptime_us`).
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::in_registry(Arc::new(MetricsRegistry::default()))
    }
}

impl Metrics {
    /// Binds the service's instruments inside `registry` (the hub hands
    /// each model the same registry namespace pattern).
    pub fn in_registry(registry: Arc<MetricsRegistry>) -> Self {
        Metrics {
            requests: registry.counter("serve_requests_total"),
            errors: registry.counter("serve_errors_total"),
            loops_served: registry.counter("serve_loops_total"),
            batches: registry.counter("serve_batches_total"),
            batched_loops: registry.counter("serve_batched_loops_total"),
            batch_sizes: registry.histogram("serve_batch_size"),
            failed_batches: registry.counter("serve_failed_batches_total"),
            queue_depth: registry.gauge("serve_batch_queue_depth"),
            dedup_waits: registry.counter("serve_dedup_waits_total"),
            entries_restored: registry.counter("serve_cache_entries_restored_total"),
            entries_invalidated_by_version: registry
                .counter("serve_cache_entries_invalidated_total"),
            cache_hits: registry.counter("serve_cache_hits_total"),
            cache_misses: registry.counter("serve_cache_misses_total"),
            cache_insertions: registry.counter("serve_cache_insertions_total"),
            warmup_replayed: registry.counter("serve_warmup_replayed_total"),
            latency: registry.histogram("serve_request_latency_us"),
            registry,
            started: Instant::now(),
        }
    }

    /// The registry behind this service's instruments (Prometheus
    /// exposition, ad-hoc snapshots).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Records one worker batch of `n` loops.
    pub fn record_batch(&self, n: usize) {
        self.batches.inc();
        self.batched_loops.add(n as u64);
        self.batch_sizes.record(n as u64);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let batches = self.batches.get();
        let batched_loops = self.batched_loops.get();
        MetricsSnapshot {
            uptime_us: self.started.elapsed().as_micros() as u64,
            requests: self.requests.get(),
            errors: self.errors.get(),
            loops_served: self.loops_served.get(),
            batches,
            batched_loops,
            failed_batches: self.failed_batches.get(),
            queue_depth: self.queue_depth.get().max(0) as u64,
            dedup_waits: self.dedup_waits.get(),
            entries_restored: self.entries_restored.get(),
            entries_invalidated_by_version: self.entries_invalidated_by_version.get(),
            warmup_replayed: self.warmup_replayed.get(),
            mean_batch: if batches == 0 {
                0.0
            } else {
                batched_loops as f64 / batches as f64
            },
        }
    }
}

/// Plain-data snapshot of [`Metrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Microseconds since this service instance started.
    pub uptime_us: u64,
    /// Vectorize requests accepted.
    pub requests: u64,
    /// Requests that failed.
    pub errors: u64,
    /// Innermost loops decided.
    pub loops_served: u64,
    /// Model forward passes run.
    pub batches: u64,
    /// Loops decided inside forward passes.
    pub batched_loops: u64,
    /// Batches whose forward panicked or answered short.
    pub failed_batches: u64,
    /// Misses queued and not yet taken by a worker, as last sampled.
    pub queue_depth: u64,
    /// Misses coalesced onto an in-flight identical decision.
    pub dedup_waits: u64,
    /// Cache entries restored from a persisted snapshot at startup.
    pub entries_restored: u64,
    /// Persisted entries discarded for a checkpoint-version mismatch.
    pub entries_invalidated_by_version: u64,
    /// Warm samples replayed against this handle after a reload.
    pub warmup_replayed: u64,
    /// Average loops per forward pass.
    pub mean_batch: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_carries_uptime_and_persistence_counters() {
        let m = Metrics::default();
        m.entries_restored.add(17);
        m.entries_invalidated_by_version.add(5);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let s = m.snapshot();
        assert_eq!(s.entries_restored, 17);
        assert_eq!(s.entries_invalidated_by_version, 5);
        assert!(
            s.uptime_us >= 2_000,
            "uptime_us not advancing: {}",
            s.uptime_us
        );
        let s2 = m.snapshot();
        assert!(s2.uptime_us >= s.uptime_us, "uptime must be monotonic");
    }

    #[test]
    fn snapshot_computes_mean_batch() {
        let m = Metrics::default();
        m.record_batch(4);
        m.record_batch(8);
        let s = m.snapshot();
        assert_eq!(s.batches, 2);
        assert_eq!(s.batched_loops, 12);
        assert!((s.mean_batch - 6.0).abs() < 1e-12);
        assert_eq!(m.batch_sizes.nonzero_buckets(), vec![(8, 1), (16, 1)]);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // The histogram lives in nvc-obs now; this pins the serve-facing
        // behavior change: p50 of a pile of 100 µs observations is ≈ 96,
        // not the old bucket edge of 128.
        let m = Metrics::default();
        for _ in 0..98 {
            m.latency.record(100);
        }
        for _ in 0..2 {
            m.latency.record(10_000);
        }
        let s = m.latency.snapshot();
        assert!((95..=98).contains(&s.p50_us), "{}", s.p50_us);
        assert!(s.p99_us >= 8_192);
    }

    #[test]
    fn instruments_are_visible_through_the_registry() {
        let m = Metrics::default();
        m.requests.inc();
        m.latency.record(50);
        let snap = m.registry().snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "serve_requests_total" && *v == 1));
        assert!(snap
            .histograms
            .iter()
            .any(|(n, h)| n == "serve_request_latency_us" && h.count == 1));
    }
}
