//! The central metrics registry: named counters, gauges, and log₂
//! latency histograms, shared by handle (`Arc`) between the layer that
//! updates them and the layer that renders them.
//!
//! The histogram here is the one that used to live in
//! `nvc-serve::metrics`, lifted so hub, serve, and the trainer all
//! report through the same type — and fixed: `quantile_us` now
//! interpolates linearly *within* the log₂ bucket instead of returning
//! the bucket's power-of-2 upper bound, so a pile of 100 µs
//! observations reports p50 ≈ 97 µs rather than 128 µs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::json::{obj, Json};

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
    /// ascending `le` order. Counts are *per bucket*, not cumulative —
    /// the JSON dump shape.
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

    /// A plain-data copy of the histogram's full surface.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum_us: self.sum_us(),
            mean_us: self.mean_us(),
            p50_us: self.quantile_us(0.50),
            p99_us: self.quantile_us(0.99),
            buckets: self.nonzero_buckets(),
        }
    }
}

/// A monotonically increasing named counter.
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

/// A named gauge: goes up and down (in-flight requests, connections).
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

    /// Sets the value outright.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations (µs).
    pub sum_us: u64,
    /// Mean observation (µs).
    pub mean_us: f64,
    /// Interpolated median (µs).
    pub p50_us: u64,
    /// Interpolated 99th percentile (µs).
    pub p99_us: u64,
    /// Non-empty `(le, count)` buckets, per-bucket counts.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The non-empty buckets as `[[le, count], …]`.
    pub fn buckets_json(&self) -> Json {
        let pair = |&(le, n): &(u64, u64)| Json::Arr(vec![Json::from(le), Json::from(n)]);
        Json::Arr(self.buckets.iter().map(pair).collect())
    }

    /// `{count, sum_us, p50_us, p99_us, buckets}`.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("count", Json::from(self.count)),
            ("sum_us", Json::from(self.sum_us)),
            ("p50_us", Json::from(self.p50_us)),
            ("p99_us", Json::from(self.p99_us)),
            ("buckets", self.buckets_json()),
        ])
    }
}

/// Point-in-time copy of every instrument in a registry, sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// `{"counters":{name: value}, "gauges":{…}, "histograms":{name:
    /// {count, sum_us, p50_us, p99_us, buckets}}}` — a service's
    /// instruments in its `metrics` reply.
    pub fn to_json(&self) -> Json {
        fn section<T>(items: &[(String, T)], value: impl Fn(&T) -> Json) -> Json {
            Json::Obj(items.iter().map(|(n, v)| (n.clone(), value(v))).collect())
        }
        obj(vec![
            ("counters", section(&self.counters, |&v| Json::from(v))),
            ("gauges", section(&self.gauges, |&v| Json::from(v as f64))),
            ("histograms", section(&self.histograms, |h| h.to_json())),
        ])
    }

    /// Prometheus text exposition of several registries as one document,
    /// each under its own label set (`""` for none): per metric family
    /// one `# TYPE` line, then that family's samples from every registry
    /// that has it — the text format takes a family's `TYPE` once and its
    /// samples together, so registries that share instrument names (one
    /// per served model, say) cannot be rendered one after the other.
    pub fn render_prometheus(sets: &[(&str, &RegistrySnapshot)]) -> String {
        /// The instruments `pick` selects, grouped by name (ascending):
        /// every registry's sample of a family with that registry's labels.
        fn by_family<'a, T>(
            sets: &[(&'a str, &'a RegistrySnapshot)],
            pick: impl Fn(&'a RegistrySnapshot) -> &'a [(String, T)],
        ) -> BTreeMap<&'a str, Vec<(&'a str, &'a T)>> {
            let mut families: BTreeMap<&str, Vec<_>> = BTreeMap::new();
            for &(labels, snap) in sets {
                for (name, v) in pick(snap) {
                    families.entry(name).or_default().push((labels, v));
                }
            }
            families
        }
        fn wrap(labels: &str, extra: &str) -> String {
            match (labels.is_empty(), extra.is_empty()) {
                (true, true) => String::new(),
                (true, false) => format!("{{{extra}}}"),
                (false, true) => format!("{{{labels}}}"),
                (false, false) => format!("{{{labels},{extra}}}"),
            }
        }
        let mut out = String::new();
        for (name, samples) in by_family(sets, |s| &s.counters) {
            let _ = writeln!(out, "# TYPE {name} counter");
            for (labels, v) in samples {
                let _ = writeln!(out, "{name}{} {v}", wrap(labels, ""));
            }
        }
        for (name, samples) in by_family(sets, |s| &s.gauges) {
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (labels, v) in samples {
                let _ = writeln!(out, "{name}{} {v}", wrap(labels, ""));
            }
        }
        for (name, samples) in by_family(sets, |s| &s.histograms) {
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (labels, h) in samples {
                let mut cum = 0u64;
                for &(le, n) in &h.buckets {
                    cum += n;
                    let le = wrap(labels, &format!("le=\"{le}\""));
                    let _ = writeln!(out, "{name}_bucket{le} {cum}");
                }
                let inf = wrap(labels, "le=\"+Inf\"");
                let _ = writeln!(out, "{name}_bucket{inf} {}", h.count);
                let _ = writeln!(out, "{name}_sum{} {}", wrap(labels, ""), h.sum_us);
                let _ = writeln!(out, "{name}_count{} {}", wrap(labels, ""), h.count);
            }
        }
        out
    }
}

/// Get-or-register home for named instruments. Registration takes a
/// short mutex; the returned `Arc` is then updated lock-free, so hot
/// paths hold their handles instead of re-looking names up.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<LatencyHistogram>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl MetricsRegistry {
    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            lock(&self.counters)
                .entry(name.to_string())
                .or_insert_with(Arc::default),
        )
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            lock(&self.gauges)
                .entry(name.to_string())
                .or_insert_with(Arc::default),
        )
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        Arc::clone(
            lock(&self.histograms)
                .entry(name.to_string())
                .or_insert_with(Arc::default),
        )
    }

    /// Copies every instrument, sorted by name (BTreeMap order).
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Prometheus text exposition of every instrument. `labels` is
    /// spliced verbatim into each sample's label set (pass `""` for
    /// none, or e.g. `model="champion"`).
    pub fn render_prometheus(&self, labels: &str) -> String {
        RegistrySnapshot::render_prometheus(&[(labels, &self.snapshot())])
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

    #[test]
    fn registry_returns_the_same_instrument_per_name() {
        let r = MetricsRegistry::default();
        let a = r.counter("reqs");
        let b = r.counter("reqs");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("reqs").get(), 3);
        assert!(Arc::ptr_eq(&a, &b));

        let g = r.gauge("inflight");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(r.gauge("inflight").get(), 1);

        r.histogram("lat_us").record(100);
        assert_eq!(r.histogram("lat_us").count(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = MetricsRegistry::default();
        r.counter("b").inc();
        r.counter("a").add(5);
        r.gauge("g").set(-2);
        r.histogram("h").record(10);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("a".to_string(), 5), ("b".to_string(), 1)]);
        assert_eq!(s.gauges, vec![("g".to_string(), -2)]);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].0, "h");
        assert_eq!(s.histograms[0].1.count, 1);
    }

    #[test]
    fn prometheus_exposition_has_cumulative_buckets_and_labels() {
        let r = MetricsRegistry::default();
        r.counter("reqs").add(7);
        let h = r.histogram("lat_us");
        h.record(100);
        h.record(100);
        h.record(10_000);
        let text = r.render_prometheus("model=\"m\"");
        assert!(text.contains("# TYPE reqs counter"));
        assert!(text.contains("reqs{model=\"m\"} 7"));
        assert!(text.contains("lat_us_bucket{model=\"m\",le=\"128\"} 2"));
        assert!(text.contains("lat_us_bucket{model=\"m\",le=\"16384\"} 3"));
        assert!(text.contains("lat_us_bucket{model=\"m\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_us_sum{model=\"m\"} 10200"));
        assert!(text.contains("lat_us_count{model=\"m\"} 3"));
        // And the no-label form stays valid.
        let bare = r.render_prometheus("");
        assert!(bare.contains("reqs 7"));
        assert!(bare.contains("lat_us_bucket{le=\"128\"} 2"));
    }

    /// Two registries with the same instrument names (one per served
    /// model) are one document: each family's `TYPE` once, its samples
    /// together.
    #[test]
    fn registries_sharing_names_render_as_one_family_each() {
        let (a, b) = (MetricsRegistry::default(), MetricsRegistry::default());
        a.counter("reqs").add(1);
        b.counter("reqs").add(2);
        b.counter("only_b").inc();
        a.gauge("depth").set(3);
        a.histogram("lat_us").record(100);
        b.histogram("lat_us").record(100);
        let text = RegistrySnapshot::render_prometheus(&[
            ("model=\"a\"", &a.snapshot()),
            ("model=\"b\"", &b.snapshot()),
        ]);
        assert_eq!(
            text,
            "# TYPE only_b counter\n\
             only_b{model=\"b\"} 1\n\
             # TYPE reqs counter\n\
             reqs{model=\"a\"} 1\n\
             reqs{model=\"b\"} 2\n\
             # TYPE depth gauge\n\
             depth{model=\"a\"} 3\n\
             # TYPE lat_us histogram\n\
             lat_us_bucket{model=\"a\",le=\"128\"} 1\n\
             lat_us_bucket{model=\"a\",le=\"+Inf\"} 1\n\
             lat_us_sum{model=\"a\"} 100\n\
             lat_us_count{model=\"a\"} 1\n\
             lat_us_bucket{model=\"b\",le=\"128\"} 1\n\
             lat_us_bucket{model=\"b\",le=\"+Inf\"} 1\n\
             lat_us_sum{model=\"b\"} 100\n\
             lat_us_count{model=\"b\"} 1\n"
        );
    }

    #[test]
    fn json_rendering_round_trips_the_shape() {
        let r = MetricsRegistry::default();
        r.counter("c").inc();
        r.gauge("g").set(-3);
        r.histogram("h").record(5);
        let j = Json::parse(&r.snapshot().to_json().render()).unwrap();
        let at = |path: &[&str]| {
            path.iter()
                .try_fold(&j, |v, k| v.get(k))
                .unwrap_or_else(|| panic!("no {path:?} in {}", j.render()))
                .clone()
        };
        assert_eq!(at(&["counters", "c"]).as_f64(), Some(1.0));
        assert_eq!(at(&["gauges", "g"]).as_f64(), Some(-3.0));
        for (field, want) in [("count", 1.0), ("sum_us", 5.0), ("p50_us", 8.0)] {
            assert_eq!(
                at(&["histograms", "h", field]).as_f64(),
                Some(want),
                "{field}"
            );
        }
        assert_eq!(at(&["histograms", "h", "buckets"]).render(), "[[8,1]]");
    }
}
