//! What a reload's warmup replay costs the allocator: a handle decides N
//! paper-size samples (100 contexts of three `u32` indices, 1 200 B of
//! index payload each), then a second handle replays the first one's
//! warm set. Each sample moves into one `Arc` when its probe misses; the
//! batcher's job, the warm set, `warm_samples()` and the replaying
//! handle's own warm set all hold that allocation, so the replay
//! allocates bookkeeping — completions, queue and map slots, a channel —
//! and less than one copy of the payload. A replay that copied a sample
//! to queue it or to retain it would allocate at least that much.
//!
//! Its own integration-test binary, so the counting allocator
//! (`support`) sees this test's allocations and no other's.

mod support;

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use nvc_embed::{EmbedConfig, PathSample};
use nvc_machine::TargetConfig;
use nvc_serve::{sample_key, DecisionModel, ServeConfig, ServeHandle};
use support::allocations;

/// Samples decided, below the warm set's 4 096 so every one is kept.
const N: u32 = 1000;

/// A model that answers `(0, 0)` and, when `seen` is set, records where
/// each sample it was handed lives — the allocation its job queued.
struct Stub {
    embed: EmbedConfig,
    target: TargetConfig,
    seen: Option<Mutex<HashSet<usize>>>,
}

impl Stub {
    fn new(record: bool) -> Arc<Self> {
        Arc::new(Stub {
            embed: EmbedConfig::paper(),
            target: TargetConfig::i7_8559u(),
            seen: record.then(|| Mutex::new(HashSet::new())),
        })
    }
}

impl DecisionModel for Stub {
    fn embed_config(&self) -> &EmbedConfig {
        &self.embed
    }

    fn target(&self) -> &TargetConfig {
        &self.target
    }

    fn decide_batch(&self, samples: &[&PathSample]) -> Vec<(usize, usize)> {
        if let Some(seen) = &self.seen {
            let mut seen = seen.lock().unwrap();
            seen.extend(samples.iter().map(|&s| s as *const PathSample as usize));
        }
        vec![(0, 0); samples.len()]
    }
}

/// Sample `i`: the paper's 100 contexts, inside its tables, with a key
/// of its own.
fn paper_sample(i: u32) -> PathSample {
    let cfg = EmbedConfig::paper();
    let n = cfg.max_paths as u32;
    let (t, p) = (cfg.token_buckets as u32, cfg.path_buckets as u32);
    let sample = PathSample {
        starts: (0..n).map(|j| (7 * i + j) % t).collect(),
        paths: (0..n).map(|j| (i + 13 * j) % p).collect(),
        ends: (0..n).map(|j| (3 * i + 5 * j) % t).collect(),
    };
    assert!(sample.fits(&cfg));
    sample
}

#[test]
fn a_warm_replay_shares_the_samples_it_replays() {
    let recording = Stub::new(true);
    let first = ServeHandle::start(recording.clone(), ServeConfig::default());
    for i in 0..N {
        let (_, cached) = first.decide_sample(&paper_sample(i)).expect("decided");
        assert!(!cached, "sample {i} was new");
    }
    let warm = first.warm_samples();
    assert_eq!(warm.len(), N as usize, "every miss is retained");
    let queued = recording.seen.as_ref().unwrap().lock().unwrap();
    for s in &warm {
        assert!(
            queued.contains(&(Arc::as_ptr(s) as usize)),
            "a retained sample is the allocation its miss queued"
        );
    }
    drop(queued);

    let second = ServeHandle::start(Stub::new(false), ServeConfig::default());
    let payload: usize = warm.iter().map(|s| 3 * 4 * s.len()).sum();
    let (_, allocated, replayed) = allocations(|| second.warm_replay(&warm));
    assert_eq!(replayed, N as usize);
    println!("replaying {N} samples allocated {allocated} B against {payload} B of index payload");
    assert!(
        allocated < payload as u64,
        "replaying {N} samples allocated {allocated} B, one copy of their indices is {payload} B"
    );
    for s in &warm {
        let kept = second
            .lookup_sample(sample_key(s))
            .expect("replayed miss retained");
        assert!(
            Arc::ptr_eq(s, &kept),
            "the replacement keeps the replayed allocation"
        );
    }
}
