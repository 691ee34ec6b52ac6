//! Memory-access classification.
//!
//! Every load/store in a loop body is summarized as a [`MemAccess`]: its
//! stride in the innermost induction variable, how its base address varies
//! with the enclosing loops, and alignment facts. These summaries drive
//! three consumers:
//!
//! * the dependence tests in [`crate::depend`] (legality),
//! * the baseline cost model's per-instruction pricing (LLVM charges unit,
//!   strided and gather accesses very differently),
//! * the cache/bandwidth model in `nvc-machine` (residency and reuse).

use serde::{Deserialize, Serialize};

use crate::types::ScalarType;

/// How the address of an access moves as the innermost induction variable
/// advances by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Consecutive elements: `a[i + c]`.
    Unit,
    /// Constant non-unit stride in elements: `a[s*i + c]` with `s ∉ {0, 1}`.
    /// Negative strides (reverse loops) are represented here too.
    Strided(i64),
    /// Address is not affine in the induction variable (e.g. `a[b[i]]`).
    Gather,
    /// Address does not depend on the induction variable.
    Invariant,
}

impl AccessKind {
    /// Stride in elements when known (`Unit` = 1, `Invariant` = 0).
    pub(crate) fn stride(self) -> Option<i64> {
        match self {
            AccessKind::Unit => Some(1),
            AccessKind::Strided(s) => Some(s),
            AccessKind::Invariant => Some(0),
            AccessKind::Gather => None,
        }
    }
}

/// How the base address (the part not depending on the innermost induction
/// variable) changes across iterations of the enclosing loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum OuterVariation {
    /// Same address range every time the innermost loop runs — the data has
    /// outer-loop temporal reuse (e.g. `B[k][j]` when `k` is an outer loop
    /// and `j` invariant... i.e. the accessed range is revisited).
    Invariant,
    /// The base moves with at least one outer loop — each innermost
    /// execution streams fresh data (e.g. `A[i][k]` scanning row `i`).
    Varies,
}

/// Summary of one load or store site in the innermost loop body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Array (or pointer parameter) being accessed.
    pub array: String,
    /// Element type.
    pub ty: ScalarType,
    /// Address pattern in the innermost induction variable.
    pub kind: AccessKind,
    /// Constant element offset added to the induction term (`a[i+1]` → 1).
    pub offset: i64,
    /// True for stores, false for loads.
    pub is_store: bool,
    /// True when the access executes under a condition (if-converted).
    pub predicated: bool,
    /// Whether the base address is known to be aligned to at least the
    /// natural vector width (from `__attribute__((aligned(N)))` on the
    /// array and a zero starting offset).
    pub aligned: bool,
    /// Base-address behaviour across enclosing loops.
    pub(crate) outer: OuterVariation,
    /// Product of the trip counts of enclosing loops whose induction
    /// variables appear in the base address (1 when none do). The cache
    /// model multiplies the per-pass footprint by this to obtain the data
    /// volume streamed before any address repeats.
    pub reuse_trips: u64,
    /// Total size of the underlying array in bytes (caps the effective
    /// footprint; 0 when unknown, e.g. a pointer parameter without a
    /// binding).
    pub array_bytes: u64,
}

impl MemAccess {
    /// Unique cache lines touched per innermost-loop execution of `trip`
    /// iterations, assuming 64-byte lines.
    ///
    /// For gathers we conservatively assume every lane touches its own line.
    pub(crate) fn lines_touched(&self, trip: u64) -> u64 {
        let elem = u64::from(self.ty.size_bytes());
        match self.kind {
            AccessKind::Unit => (trip * elem).div_ceil(64).max(1),
            AccessKind::Strided(s) => {
                let s = s.unsigned_abs();
                if s == 0 {
                    return 1;
                }
                let span = trip * s * elem;
                let dense = span.div_ceil(64).max(1);
                // When the stride exceeds a line, only every touched line counts.
                dense.min(trip.max(1))
            }
            AccessKind::Gather => trip.max(1),
            AccessKind::Invariant => 1,
        }
    }

    /// Bytes of unique data touched per innermost-loop execution.
    pub fn bytes_touched(&self, trip: u64) -> u64 {
        self.lines_touched(trip) * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(kind: AccessKind, ty: ScalarType) -> MemAccess {
        MemAccess {
            array: "a".into(),
            ty,
            kind,
            offset: 0,
            is_store: false,
            predicated: false,
            aligned: true,
            outer: OuterVariation::Varies,
            reuse_trips: 1,
            array_bytes: 1 << 20,
        }
    }

    #[test]
    fn stride_values() {
        assert_eq!(AccessKind::Unit.stride(), Some(1));
        assert_eq!(AccessKind::Strided(-2).stride(), Some(-2));
        assert_eq!(AccessKind::Invariant.stride(), Some(0));
        assert_eq!(AccessKind::Gather.stride(), None);
    }

    #[test]
    fn unit_access_lines() {
        // 1024 i32s = 4096 bytes = 64 lines.
        assert_eq!(
            acc(AccessKind::Unit, ScalarType::I32).lines_touched(1024),
            64
        );
        // Tiny loops still touch one line.
        assert_eq!(acc(AccessKind::Unit, ScalarType::I8).lines_touched(3), 1);
    }

    #[test]
    fn strided_access_lines_capped_by_trip() {
        // Stride 32 i32s = 128-byte gaps: one line per iteration.
        let a = acc(AccessKind::Strided(32), ScalarType::I32);
        assert_eq!(a.lines_touched(100), 100);
        // Stride 2 i32s: spans 800 bytes over 100 iters → 13 lines.
        let b = acc(AccessKind::Strided(2), ScalarType::I32);
        assert_eq!(b.lines_touched(100), 13);
    }

    #[test]
    fn gather_touches_line_per_lane() {
        assert_eq!(
            acc(AccessKind::Gather, ScalarType::F64).lines_touched(17),
            17
        );
    }

    #[test]
    fn invariant_touches_one_line() {
        assert_eq!(
            acc(AccessKind::Invariant, ScalarType::F64).lines_touched(1000),
            1
        );
    }

    #[test]
    fn negative_stride_counts_like_positive() {
        let a = acc(AccessKind::Strided(-1), ScalarType::I32);
        let b = acc(AccessKind::Strided(1), ScalarType::I32);
        assert_eq!(a.lines_touched(256), b.lines_touched(256));
    }
}
