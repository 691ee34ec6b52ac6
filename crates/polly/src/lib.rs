//! Polyhedral-lite loop optimizer — the reproduction's stand-in for Polly.
//!
//! §2.2 of the paper: "Polly uses an abstract mathematical representation
//! based on integer polyhedra to analyze and optimize the memory access
//! pattern of a program. Polly performs classical loop transformations,
//! especially **tiling and loop fusion** to improve data-locality."
//!
//! This crate implements the same three transformations as conservative
//! source-to-source rewrites over the [`nvc_frontend`] AST:
//!
//! * `interchange` — swaps a perfectly nested loop pair when that turns
//!   the innermost dominant access stride into unit stride (the classic
//!   `ijk → ikj` matmul win);
//! * `tiling` — rectangular tiling of 2- and 3-deep nests with large
//!   constant trip counts, shrinking per-tile working sets into cache;
//! * `fusion` — merges adjacent loops with identical headers when no
//!   producer/consumer distance exists, removing redundant streaming
//!   passes.
//!
//! The passes read and rewrite the AST through the toolkit in
//! [`nvc_frontend::ast`] — its `for`-header recognizer, constant folder,
//! span-blind equality, child iterators and walks; the analyses that are
//! Polly's own (the constant-header filter, access collection, affine
//! strides, reorder legality) live in the crate's `analysis` module.
//!
//! Transformed sources re-enter the standard pipeline (parse → lower →
//! vectorize → simulate), so Polly and the RL agent compose exactly as the
//! paper's "combining Polly and deep RL" experiment does (§4.1).
//!
//! The legality checks are deliberately conservative: a transformation is
//! applied only when every affected access is affine and provably
//! dependence-free in the relevant direction, matching how Polly bails on
//! anything it cannot model polyhedrally.

pub(crate) mod analysis;
pub(crate) mod fusion;
pub(crate) mod interchange;
pub(crate) mod tiling;

use serde::{Deserialize, Serialize};

use nvc_frontend::{parse_translation_unit, print_translation_unit, FrontendError};

/// What the optimizer did to a unit.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PollyReport {
    /// Loop pairs interchanged.
    pub(crate) interchanged: usize,
    /// Nests tiled.
    pub(crate) tiled: usize,
    /// Loop pairs fused.
    pub(crate) fused: usize,
}

impl PollyReport {
    /// True when no transformation applied.
    pub fn is_noop(&self) -> bool {
        self.interchanged == 0 && self.tiled == 0 && self.fused == 0
    }
}

/// Tile edge length (Polly's default).
const TILE_SIZE: i64 = 32;

/// Minimum constant trip count before tiling pays for itself.
const MIN_TRIP_FOR_TILING: i64 = 128;

/// Runs the full Polly-lite pipeline on C source, returning the optimized
/// source and a report.
///
/// # Errors
///
/// Returns a [`FrontendError`] if the source does not parse. The output is
/// guaranteed to re-parse (it is produced by the AST printer).
pub fn optimize_source(source: &str) -> Result<(String, PollyReport), FrontendError> {
    let mut tu = parse_translation_unit(source)?;
    // Interchange first: fusing adjacent nests would hide perfect nests
    // from the interchange legality check (mvt's second nest, for
    // example).
    let report = PollyReport {
        interchanged: interchange::interchange_in_unit(&mut tu),
        tiled: tiling::tile_in_unit(&mut tu, TILE_SIZE, MIN_TRIP_FOR_TILING),
        fused: fusion::fuse_in_unit(&mut tu),
    };
    let printed = print_translation_unit(&tu);
    debug_assert!(
        parse_translation_unit(&printed).is_ok(),
        "polly output must re-parse"
    );
    Ok((printed, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GEMM: &str = "float A[256][256]; float B[256][256]; float C[256][256];
void gemm() {
    for (int i = 0; i < 256; i++) {
        for (int j = 0; j < 256; j++) {
            for (int k = 0; k < 256; k++) {
                C[i][j] += A[i][k] * B[k][j];
            }
        }
    }
}";

    #[test]
    fn gemm_is_transformed_and_reparses() {
        let (out, report) = optimize_source(GEMM).unwrap();
        assert!(!report.is_noop(), "gemm should be optimized: {report:?}");
        // Output must be valid C in our subset.
        parse_translation_unit(&out).expect("optimized source re-parses");
    }

    #[test]
    fn gemm_interchange_makes_inner_stride_unit() {
        let mut tu = parse_translation_unit(GEMM).unwrap();
        assert_eq!(interchange::interchange_in_unit(&mut tu), 1);
        let out = print_translation_unit(&tu);
        // After j↔k interchange the innermost loop is j: B[k][j] and
        // C[i][j] are unit stride.
        let pos_j = out.find("for (int j").expect("j loop");
        let pos_k = out.find("for (int k").expect("k loop");
        assert!(pos_k < pos_j, "k should now be outside j:\n{out}");
    }

    #[test]
    fn small_trip_counts_are_not_tiled() {
        let src = "float a[64][64];\nvoid f() { for (int i = 0; i < 64; i++) { for (int j = 0; j < 64; j++) { a[i][j] = 0.0; } } }";
        let (_, report) = optimize_source(src).unwrap();
        assert_eq!(report.tiled, 0);
    }

    #[test]
    fn scalar_code_is_untouched() {
        let src = "int x;\nvoid f(int n) { x = n * 2; }";
        let (out, report) = optimize_source(src).unwrap();
        assert!(report.is_noop());
        assert!(out.contains("x = n * 2"));
    }

    /// The pipeline is the three passes in order — interchange, tiling,
    /// fusion — each applied once to the whole unit.
    #[test]
    fn pipeline_is_the_passes_in_order() {
        let mut tu = parse_translation_unit(GEMM).unwrap();
        let expected = PollyReport {
            interchanged: interchange::interchange_in_unit(&mut tu),
            tiled: tiling::tile_in_unit(&mut tu, TILE_SIZE, MIN_TRIP_FOR_TILING),
            fused: fusion::fuse_in_unit(&mut tu),
        };
        let (out, report) = optimize_source(GEMM).unwrap();
        assert_eq!(report, expected);
        assert_eq!(out, print_translation_unit(&tu));
    }
}
