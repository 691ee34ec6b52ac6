//! Cache residency assignment for memory streams.
//!
//! The paper's kernels are run a million times and averaged (§2.1), so the
//! steady state matters: a 2 KB dot-product array lives in L1 and the
//! kernel is latency/throughput bound, while PolyBench matrices spill to L2
//! or L3 and become bandwidth bound — which is where Polly's tiling wins
//! (§4.1). This module decides, per stream, which level of the hierarchy
//! feeds it.

use serde::{Deserialize, Serialize};

use crate::target::TargetConfig;

/// Which level of the hierarchy serves a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub(crate) enum CacheLevel {
    /// First-level data cache.
    L1,
    /// Second-level cache.
    L2,
    /// Last-level cache.
    L3,
    /// DRAM.
    Memory,
}

impl CacheLevel {
    /// Index into [`TargetConfig::memory`].
    pub(crate) fn index(self) -> usize {
        match self {
            CacheLevel::L1 => 0,
            CacheLevel::L2 => 1,
            CacheLevel::L3 => 2,
            CacheLevel::Memory => 3,
        }
    }

    fn from_index(i: usize) -> Self {
        match i {
            0 => CacheLevel::L1,
            1 => CacheLevel::L2,
            2 => CacheLevel::L3,
            _ => CacheLevel::Memory,
        }
    }
}

/// Spatial pattern of a stream, for bandwidth accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StreamPattern {
    /// Dense unit-stride traffic.
    Contiguous,
    /// Strided: whole cache lines fetched per element once stride exceeds a
    /// line.
    Strided,
    /// Data-dependent addresses (gather/scatter).
    Gather,
}

/// One memory stream of a vectorized loop, as seen by the machine model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemStream {
    /// Bytes transferred per vector block (including over-fetch for strided
    /// patterns).
    pub bytes_per_block: f64,
    /// Steady-state working set this stream needs resident to avoid misses.
    pub footprint_bytes: u64,
    /// Pattern for latency/bandwidth treatment.
    pub pattern: StreamPattern,
    /// Gathered lanes per block (0 unless `pattern == Gather`).
    pub gather_lanes_per_block: f64,
    /// True for stores.
    pub is_store: bool,
    /// Streams sharing a key (accesses to the same array) contribute their
    /// footprint to the shared working set only once.
    pub(crate) footprint_key: u32,
    /// Residency, filled in by [`assign_residency`].
    pub(crate) level: CacheLevel,
}

impl MemStream {
    /// Creates a stream with residency defaulted to L1 (call
    /// `assign_residency` to fix it up).
    pub fn new(
        bytes_per_block: f64,
        footprint_bytes: u64,
        pattern: StreamPattern,
        is_store: bool,
    ) -> Self {
        MemStream {
            bytes_per_block,
            footprint_bytes,
            pattern,
            gather_lanes_per_block: 0.0,
            is_store,
            footprint_key: 0,
            level: CacheLevel::L1,
        }
    }

    /// Sets the footprint-sharing key (builder style).
    pub fn with_footprint_key(mut self, key: u32) -> Self {
        self.footprint_key = key;
        self
    }
}

/// Assigns each stream the smallest cache level that can keep it resident.
///
/// A stream fits a level when its own footprint fits *and* the combined
/// working set of all streams does not overwhelm the level (beyond a 1.5×
/// slack factor approximating partial residency and associativity effects).
pub(crate) fn assign_residency(streams: &mut [MemStream], target: &TargetConfig) {
    // Sum each array's working set once, even when several access sites
    // (different offsets into the same array) produce separate streams.
    let mut seen: Vec<(u32, u64)> = Vec::new();
    for s in streams.iter() {
        match seen.iter_mut().find(|(k, _)| *k == s.footprint_key) {
            Some((_, fp)) => *fp = (*fp).max(s.footprint_bytes),
            None => seen.push((s.footprint_key, s.footprint_bytes)),
        }
    }
    let total: u64 = seen.iter().map(|(_, fp)| fp).sum();
    for s in streams.iter_mut() {
        let mut chosen = CacheLevel::Memory;
        for (i, spec) in target.memory.iter().enumerate() {
            let own_fits = s.footprint_bytes <= spec.capacity;
            let shared_ok = (total as f64) <= spec.capacity as f64 * 1.5;
            if own_fits && (shared_ok || s.footprint_bytes <= spec.capacity / 8) {
                chosen = CacheLevel::from_index(i);
                break;
            }
        }
        s.level = chosen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(footprint: u64) -> MemStream {
        MemStream::new(256.0, footprint, StreamPattern::Contiguous, false)
    }

    fn keyed(footprint: u64, key: u32) -> MemStream {
        MemStream::new(256.0, footprint, StreamPattern::Contiguous, false).with_footprint_key(key)
    }

    #[test]
    fn small_arrays_live_in_l1() {
        let t = TargetConfig::i7_8559u();
        // Dot product: 512 × 4 bytes = 2 KB.
        let mut s = vec![stream(2048)];
        assign_residency(&mut s, &t);
        assert_eq!(s[0].level, CacheLevel::L1);
    }

    #[test]
    fn medium_arrays_live_in_l2() {
        let t = TargetConfig::i7_8559u();
        let mut s = vec![stream(128 * 1024)];
        assign_residency(&mut s, &t);
        assert_eq!(s[0].level, CacheLevel::L2);
    }

    #[test]
    fn large_arrays_go_to_l3_or_memory() {
        let t = TargetConfig::i7_8559u();
        let mut s = vec![stream(4 * 1024 * 1024)];
        assign_residency(&mut s, &t);
        assert_eq!(s[0].level, CacheLevel::L3);
        let mut m = vec![stream(64 * 1024 * 1024)];
        assign_residency(&mut m, &t);
        assert_eq!(m[0].level, CacheLevel::Memory);
    }

    #[test]
    fn shared_pressure_demotes_streams() {
        let t = TargetConfig::i7_8559u();
        // Three 24 KB streams: each alone fits L1 (32 KB) but together (72 KB)
        // they do not — they should demote to L2.
        let mut s = vec![
            keyed(24 * 1024, 0),
            keyed(24 * 1024, 1),
            keyed(24 * 1024, 2),
        ];
        assign_residency(&mut s, &t);
        assert!(s.iter().all(|x| x.level == CacheLevel::L2));
    }

    #[test]
    fn same_array_streams_share_footprint() {
        let t = TargetConfig::i7_8559u();
        // Three access sites into one 24 KB array count once → stays L1.
        let mut s = vec![
            keyed(24 * 1024, 7),
            keyed(24 * 1024, 7),
            keyed(24 * 1024, 7),
        ];
        assign_residency(&mut s, &t);
        assert!(s.iter().all(|x| x.level == CacheLevel::L1));
    }

    #[test]
    fn tiny_stream_among_big_ones_keeps_l1() {
        let t = TargetConfig::i7_8559u();
        // A 1 KB lookup table next to a 16 MB stream stays hot.
        let mut s = vec![keyed(1024, 0), keyed(16 * 1024 * 1024, 1)];
        assign_residency(&mut s, &t);
        assert_eq!(s[0].level, CacheLevel::L1);
        assert_eq!(s[1].level, CacheLevel::Memory);
    }

    #[test]
    fn level_index_roundtrip() {
        for l in [
            CacheLevel::L1,
            CacheLevel::L2,
            CacheLevel::L3,
            CacheLevel::Memory,
        ] {
            assert_eq!(CacheLevel::from_index(l.index()), l);
        }
    }
}
