//! Loop-carried dependence tests bounding the legal vectorization factor.
//!
//! This reimplements the slice of LLVM's `LoopAccessAnalysis` that matters
//! for the paper: pragmas are *hints*, and "sometimes the compiler can
//! decide not to consider these pragmas if it is not feasible … predicates
//! and memory dependency can hinder reaching high VF and IF" (§3). The
//! agent may request any factor; [`legal_max_vf`] is the clamp that keeps
//! the compiled code correct.
//!
//! The tests implemented are ZIV (zero index variable) and strong SIV
//! (single index variable, equal strides), which cover every kernel in the
//! paper's dataset families. Anything outside them is answered
//! conservatively (no vectorization), exactly as a production compiler
//! falls back when its checks fail.

use serde::{Deserialize, Serialize};

use crate::access::{AccessKind, MemAccess};
use crate::loop_ir::LoopIr;

/// Why a pair of accesses constrains (or does not constrain) the VF.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum PairVerdict {
    /// No dependence possible (different arrays, or disjoint residue
    /// classes like `b[2i]` vs `b[2i+1]`).
    Independent,
    /// Anti or same-iteration dependence — safe at any VF.
    SafeAnyVf,
    /// Flow or output dependence with this iteration distance; VF must not
    /// exceed it.
    BoundedBy(u64),
    /// Analysis could not prove anything — vectorization disabled.
    Unknown,
}

/// One analyzed access pair (store vs load/store on the same array).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct DepPair {
    /// Array name.
    pub(crate) array: String,
    /// Index of the store access in [`LoopIr::accesses`].
    pub(crate) store_idx: usize,
    /// Index of the other access in [`LoopIr::accesses`].
    pub(crate) other_idx: usize,
    /// The verdict for this pair.
    pub(crate) verdict: PairVerdict,
}

/// Result of dependence analysis over a whole loop body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DependenceSummary {
    /// Largest legal vectorization factor (always a power of two, ≥ 1).
    pub max_vf: u32,
    /// Per-pair evidence.
    pub(crate) pairs: Vec<DepPair>,
}

/// Upper bound used when no dependence constrains vectorization.
pub(crate) const UNBOUNDED_VF: u32 = 4096;

/// Computes the largest legal VF for `ir` (a power of two, ≥ 1), with the
/// per-pair evidence that produced it.
pub fn analyze_dependences(ir: &LoopIr) -> DependenceSummary {
    if ir.not_vectorizable {
        return DependenceSummary {
            max_vf: 1,
            pairs: vec![],
        };
    }
    let mut bound = u64::from(UNBOUNDED_VF);
    let mut pairs = Vec::new();
    let accesses = &ir.accesses;
    for (si, s) in accesses.iter().enumerate() {
        if !s.is_store {
            continue;
        }
        for (oi, o) in accesses.iter().enumerate() {
            if oi == si || o.array != s.array {
                continue;
            }
            // Store/store pairs are examined once (si < oi).
            if o.is_store && oi < si {
                continue;
            }
            let verdict = classify_pair(s, o);
            match &verdict {
                PairVerdict::Independent | PairVerdict::SafeAnyVf => {}
                PairVerdict::BoundedBy(d) => bound = bound.min(*d),
                PairVerdict::Unknown => bound = 1,
            }
            pairs.push(DepPair {
                array: s.array.clone(),
                store_idx: si,
                other_idx: oi,
                verdict,
            });
        }
    }
    DependenceSummary {
        max_vf: floor_pow2(bound.max(1)).min(u64::from(UNBOUNDED_VF)) as u32,
        pairs,
    }
}

/// Convenience wrapper returning only the VF bound.
pub fn legal_max_vf(ir: &LoopIr) -> u32 {
    analyze_dependences(ir).max_vf
}

/// Classifies the dependence between a store `s` and another access `o` on
/// the same array.
fn classify_pair(s: &MemAccess, o: &MemAccess) -> PairVerdict {
    use AccessKind::*;
    match (s.kind, o.kind) {
        // Store with a non-affine partner: nothing provable.
        (Gather, _) | (_, Gather) => PairVerdict::Unknown,
        // Invariant store (memory reduction like `a[0] += x`) was already a
        // blocker during lowering; reaching here means an invariant *load*
        // against an iv-dependent store, or two invariants.
        (Invariant, Invariant) => {
            if s.offset == o.offset {
                // Same cell written and read every iteration.
                PairVerdict::Unknown
            } else {
                PairVerdict::Independent
            }
        }
        (Invariant, _) | (_, Invariant) => {
            // A moving access against a fixed cell: they collide at most in
            // one iteration, but proving which one requires runtime checks
            // we (like -O2 without them) do not emit.
            PairVerdict::Unknown
        }
        _ => {
            let ss = s.kind.stride().expect("affine store");
            let os = o.kind.stride().expect("affine other");
            if ss != os {
                // Weak SIV: equal-address solutions exist at isolated
                // iterations; LLVM bails without runtime checks.
                return PairVerdict::Unknown;
            }
            let stride = ss;
            debug_assert_ne!(stride, 0);
            let diff = o.offset - s.offset;
            if diff % stride != 0 {
                // Disjoint residue classes: e.g. b[2i] vs b[2i+1].
                return PairVerdict::Independent;
            }
            // Iteration distance from the store to the other access hitting
            // the same address: j_other = i_store + (s.offset - o.offset)/stride.
            let dist = -diff / stride;
            if o.is_store {
                // Output dependence: order of writes to the same cell flips
                // once VF exceeds the distance.
                match dist.unsigned_abs() {
                    0 => PairVerdict::SafeAnyVf, // same cell, same iteration: program order kept lane-wise
                    d => PairVerdict::BoundedBy(d),
                }
            } else if dist > 0 {
                // Flow: value stored at iteration i is loaded at i + dist.
                PairVerdict::BoundedBy(dist as u64)
            } else {
                // Anti (dist < 0) or same-iteration (dist == 0): vector
                // loads execute before vector stores, preserving semantics.
                PairVerdict::SafeAnyVf
            }
        }
    }
}

fn floor_pow2(x: u64) -> u64 {
    if x == 0 {
        1
    } else {
        1 << (63 - x.leading_zeros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::OuterVariation;
    use crate::loop_ir::TripCount;
    use crate::types::ScalarType;

    fn acc(array: &str, kind: AccessKind, offset: i64, is_store: bool) -> MemAccess {
        MemAccess {
            array: array.into(),
            ty: ScalarType::I32,
            kind,
            offset,
            is_store,
            predicated: false,
            aligned: true,
            outer: OuterVariation::Varies,
            reuse_trips: 1,
            array_bytes: 1 << 20,
        }
    }

    fn ir_with(accesses: Vec<MemAccess>) -> LoopIr {
        LoopIr {
            ind_var: "i".into(),
            trip: TripCount::Constant(1024),
            step: 1,
            body: vec![],
            accesses,
            reductions: vec![],
            predicated: false,
            not_vectorizable: false,
            blocker: None,
            outer: vec![],
        }
    }

    #[test]
    fn independent_arrays_are_unbounded() {
        let ir = ir_with(vec![
            acc("a", AccessKind::Unit, 0, true),
            acc("b", AccessKind::Unit, 0, false),
        ]);
        assert_eq!(legal_max_vf(&ir), UNBOUNDED_VF);
    }

    #[test]
    fn flow_dependence_bounds_vf() {
        // a[i+4] = a[i]: store offset 4, load offset 0, distance 4.
        let ir = ir_with(vec![
            acc("a", AccessKind::Unit, 4, true),
            acc("a", AccessKind::Unit, 0, false),
        ]);
        assert_eq!(legal_max_vf(&ir), 4);
    }

    #[test]
    fn flow_distance_rounds_down_to_pow2() {
        // distance 6 → legal VF 4.
        let ir = ir_with(vec![
            acc("a", AccessKind::Unit, 6, true),
            acc("a", AccessKind::Unit, 0, false),
        ]);
        assert_eq!(legal_max_vf(&ir), 4);
    }

    #[test]
    fn serial_recurrence_cannot_vectorize() {
        // a[i+1] = a[i]: distance 1.
        let ir = ir_with(vec![
            acc("a", AccessKind::Unit, 1, true),
            acc("a", AccessKind::Unit, 0, false),
        ]);
        assert_eq!(legal_max_vf(&ir), 1);
    }

    #[test]
    fn anti_dependence_is_safe() {
        // a[i] = a[i+1]: loads happen before stores in vector code.
        let ir = ir_with(vec![
            acc("a", AccessKind::Unit, 0, true),
            acc("a", AccessKind::Unit, 1, false),
        ]);
        assert_eq!(legal_max_vf(&ir), UNBOUNDED_VF);
    }

    #[test]
    fn same_iteration_rw_is_safe() {
        // a[i] = f(a[i]).
        let ir = ir_with(vec![
            acc("a", AccessKind::Unit, 0, true),
            acc("a", AccessKind::Unit, 0, false),
        ]);
        assert_eq!(legal_max_vf(&ir), UNBOUNDED_VF);
    }

    #[test]
    fn disjoint_residues_are_independent() {
        // Example #5 of the paper: b[2i] and b[2i+1] never alias.
        let ir = ir_with(vec![
            acc("b", AccessKind::Strided(2), 0, true),
            acc("b", AccessKind::Strided(2), 1, false),
        ]);
        assert_eq!(legal_max_vf(&ir), UNBOUNDED_VF);
        let summary = analyze_dependences(&ir);
        assert_eq!(summary.pairs[0].verdict, PairVerdict::Independent);
    }

    #[test]
    fn strided_flow_dependence() {
        // a[2i+2] = a[2i]: distance (0-2)/2 = -1 → flow at distance 1.
        let ir = ir_with(vec![
            acc("a", AccessKind::Strided(2), 2, true),
            acc("a", AccessKind::Strided(2), 0, false),
        ]);
        assert_eq!(legal_max_vf(&ir), 1);
    }

    #[test]
    fn mixed_strides_are_unknown() {
        let ir = ir_with(vec![
            acc("a", AccessKind::Unit, 0, true),
            acc("a", AccessKind::Strided(2), 0, false),
        ]);
        assert_eq!(legal_max_vf(&ir), 1);
    }

    #[test]
    fn gather_against_store_is_unknown() {
        let ir = ir_with(vec![
            acc("a", AccessKind::Unit, 0, true),
            acc("a", AccessKind::Gather, 0, false),
        ]);
        assert_eq!(legal_max_vf(&ir), 1);
    }

    #[test]
    fn gather_load_alone_is_fine() {
        let ir = ir_with(vec![
            acc("a", AccessKind::Gather, 0, false),
            acc("b", AccessKind::Unit, 0, true),
        ]);
        assert_eq!(legal_max_vf(&ir), UNBOUNDED_VF);
    }

    #[test]
    fn invariant_load_vs_store_same_array_is_unknown() {
        // a[i] = a[0] + 1 without runtime checks.
        let ir = ir_with(vec![
            acc("a", AccessKind::Unit, 0, true),
            acc("a", AccessKind::Invariant, 0, false),
        ]);
        assert_eq!(legal_max_vf(&ir), 1);
    }

    #[test]
    fn output_dependence_bounds_vf() {
        // a[i] and a[i+2] stores: final values flip if VF > 2.
        let ir = ir_with(vec![
            acc("a", AccessKind::Unit, 0, true),
            acc("a", AccessKind::Unit, 2, true),
        ]);
        assert_eq!(legal_max_vf(&ir), 2);
    }

    #[test]
    fn not_vectorizable_flag_forces_scalar() {
        let mut ir = ir_with(vec![]);
        ir.not_vectorizable = true;
        assert_eq!(legal_max_vf(&ir), 1);
    }

    #[test]
    fn store_store_pair_counted_once() {
        let ir = ir_with(vec![
            acc("a", AccessKind::Unit, 0, true),
            acc("a", AccessKind::Unit, 2, true),
        ]);
        let s = analyze_dependences(&ir);
        assert_eq!(s.pairs.len(), 1);
    }

    #[test]
    fn floor_pow2_behaviour() {
        assert_eq!(floor_pow2(1), 1);
        assert_eq!(floor_pow2(2), 2);
        assert_eq!(floor_pow2(3), 2);
        assert_eq!(floor_pow2(64), 64);
        assert_eq!(floor_pow2(100), 64);
        assert_eq!(floor_pow2(0), 1);
    }
}
