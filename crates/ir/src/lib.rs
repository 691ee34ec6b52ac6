//! Loop intermediate representation and analyses for the NeuroVectorizer
//! reproduction.
//!
//! This crate stands in for the slice of Clang/LLVM the paper relies on: it
//! lowers innermost loops from the [`nvc_frontend`] AST into a typed,
//! SSA-style loop IR ([`LoopIr`]) and runs the analyses the LLVM loop
//! vectorizer needs to decide *legality* and *profitability inputs*:
//!
//! * affine memory-access classification (unit-stride / strided / gather /
//!   invariant) — `access`;
//! * loop-carried dependence tests (ZIV and strong-SIV) that bound the legal
//!   vectorization factor — `depend`;
//! * reduction recognition (sum/product/min/max/bitwise) — part of
//!   `lower`;
//! * trip-count evaluation against runtime parameter bindings — `lower`.
//!
//! The AST chores under these analyses come from [`nvc_frontend::ast`]:
//! `lower` reads each `for` header with [`Stmt::for_header`], folds start,
//! bound and step with [`Expr::fold_int`] under the [`ParamEnv`], finds
//! innermost loops with [`Stmt::contains_loop`], and matches reductions
//! with [`Expr::mentions`] and [`Expr::same_tree`]. What stays here is
//! the compiler's own part: the tile-loop pattern, trip counts, and the
//! lowering itself.
//!
//! [`Stmt::for_header`]: nvc_frontend::ast::Stmt::for_header
//! [`Stmt::contains_loop`]: nvc_frontend::ast::Stmt::contains_loop
//! [`Expr::fold_int`]: nvc_frontend::ast::Expr::fold_int
//! [`Expr::mentions`]: nvc_frontend::ast::Expr::mentions
//! [`Expr::same_tree`]: nvc_frontend::ast::Expr::same_tree
//!
//! The output of this crate feeds both the baseline cost model and the
//! vectorizer in `nvc-vectorizer`, and the performance model in
//! `nvc-machine`.
//!
//! # Example
//!
//! ```
//! use nvc_frontend::parse_translation_unit;
//! use nvc_ir::{lower_innermost_loops, ParamEnv};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "int a[1024]; int b[1024];
//! void f(int n) { for (int i = 0; i < n; i++) { a[i] = b[i] * 3; } }";
//! let tu = parse_translation_unit(src)?;
//! let env = ParamEnv::new().with("n", 1024);
//! let loops = lower_innermost_loops(&tu, src, &env)?;
//! assert_eq!(loops.len(), 1);
//! assert_eq!(loops[0].ir.trip.count(), 1024);
//! # Ok(())
//! # }
//! ```

pub(crate) mod access;
pub(crate) mod depend;
pub(crate) mod loop_ir;
pub(crate) mod lower;
pub(crate) mod program;
pub(crate) mod types;

use std::error::Error;
use std::fmt;

pub use access::{AccessKind, MemAccess};
pub use depend::{analyze_dependences, legal_max_vf, DependenceSummary};
pub use loop_ir::{
    BinOpIr, CmpOp, Instr, LoopIr, OuterLoopInfo, Reduction, ReductionKind, TripCount, UnOpIr,
    ValueId,
};
pub use lower::{lower_innermost_loops, LoweredLoop};
pub use program::ParamEnv;
pub use types::ScalarType;

/// Errors produced while lowering AST loops into [`LoopIr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// The loop's induction variable or bounds could not be recognized.
    UnsupportedLoopForm(String),
    /// An expression uses a construct outside the supported subset.
    UnsupportedExpr(String),
    /// A referenced parameter has no binding and no estimate was available.
    UnboundParameter(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnsupportedLoopForm(s) => write!(f, "unsupported loop form: {s}"),
            IrError::UnsupportedExpr(s) => write!(f, "unsupported expression: {s}"),
            IrError::UnboundParameter(s) => write!(f, "unbound parameter `{s}`"),
        }
    }
}

impl Error for IrError {}
