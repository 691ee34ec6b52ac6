//! Analytic SIMD CPU performance model.
//!
//! The paper measures kernels on a 2.7 GHz Intel i7-8559U with AVX and
//! 16 GB LPDDR3, averaging one million runs (§2.1). This crate replaces
//! that testbed with a deterministic analytic model of the same machine
//! class — an out-of-order core with:
//!
//! * a front end issuing a fixed number of micro-ops per cycle,
//! * per-class execution ports (vector ALU, vector multiply, divide,
//!   load, store, scalar),
//! * software-pipeline-style steady-state throughput: the initiation
//!   interval of the vector loop body is `max(ResMII, RecMII, front-end)`,
//!   where `RecMII` comes from loop-carried recurrence chains (reduction
//!   accumulators — the reason interleaving helps),
//! * a three-level cache hierarchy plus memory with per-level bandwidth
//!   (roofline behaviour) and a residency model based on working-set
//!   footprints,
//! * penalties real vectorized code pays: misaligned accesses, gathers,
//!   masked operations, register spills when `VF × IF` explodes, uop-cache
//!   overflow for huge unrolled bodies, scalar remainder loops, and
//!   horizontal reduction tails.
//!
//! None of this claims cycle accuracy against real silicon; what matters
//! for the reproduction is that the *shape* of the VF×IF landscape matches
//! the paper's Figure 1 (many configurations beat the baseline's choice,
//! the best ones combine wide vectors with enough interleaving to hide
//! latency, and extreme factors collapse), and that a linear per-instruction
//! cost model — the baseline — systematically mispredicts it.
//!
//! The input is a [`LoopShape`] produced by the vectorizer crate; the
//! output a [`LoopTiming`] in cycles.

pub(crate) mod cache;
pub(crate) mod model;
pub(crate) mod target;
pub use cache::{MemStream, StreamPattern};
pub use model::{simulate_loop, Bottleneck, LoopShape, LoopTiming, Recurrence, UopBundle};
pub use target::{CacheSpec, PortCounts, ResourceClass, TargetConfig};

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end sanity: a trivially small shape produces finite positive
    /// cycles on the default target.
    #[test]
    fn simulate_smoke() {
        let target = TargetConfig::i7_8559u();
        let shape = LoopShape {
            blocks: 64,
            elems_per_block: 8,
            uops: vec![UopBundle::new(ResourceClass::VAlu, 2.0, 1.0)],
            recurrences: vec![],
            streams: vec![],
            remainder_elems: 0,
            scalar_uops_per_iter: 4.0,
            per_execution_overhead_uops: 2.0,
            live_vector_regs: 3,
            runtime_trip_check: false,
        };
        let t = simulate_loop(&shape, &target);
        assert!(t.cycles > 0.0);
        assert!(t.cycles.is_finite());
    }
}
