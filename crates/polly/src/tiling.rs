//! Rectangular loop tiling.
//!
//! Tiling strip-mines each loop of a nest and sinks the point loops inside
//! the tile loops, so a tile's working set fits in cache before the nest
//! moves on. This is Polly's main locality weapon on PolyBench (§4.1); it
//! pays off on large iteration spaces and *costs* a little loop overhead,
//! which is exactly why the paper sees Polly lose to the RL agent on
//! small trip counts.

use std::collections::HashMap;

use nvc_frontend::ast::{
    BinaryOp, Declarator, Expr, ExprKind, Item, Stmt, StmtKind, TranslationUnit, Type,
};
use nvc_frontend::Span;

use crate::analysis::{collect_accesses, const_header, reorder_safe, unwrap_body, ConstHeader};

/// Working-set threshold below which tiling's loop overhead outweighs the
/// locality gain (roughly the L2 capacity of the modelled target).
const MIN_WORKING_SET_BYTES: i64 = 384 * 1024;
/// Minimum size of a *re-streamed* array (one whose subscripts ignore some
/// nest IV, so the whole array is touched once per iteration of that loop)
/// for tiling to pay.
const MIN_REUSED_ARRAY_BYTES: i64 = 192 * 1024;

/// Tiles every eligible nest in the unit. Returns the number of nests
/// tiled.
pub(crate) fn tile_in_unit(tu: &mut TranslationUnit, tile: i64, min_trip: i64) -> usize {
    // Array byte sizes for the profitability gate.
    let sizes: HashMap<String, i64> = tu
        .globals()
        .filter(|g| !g.dims.is_empty())
        .map(|g| (g.name.clone(), g.size_bytes()))
        .collect();
    let mut count = 0;
    for item in &mut tu.items {
        if let Item::Function(f) = item {
            count += tile_stmt(&mut f.body, tile, min_trip, &sizes);
        }
    }
    count
}

fn tile_stmt(stmt: &mut Stmt, tile: i64, min_trip: i64, sizes: &HashMap<String, i64>) -> usize {
    // Outermost first: a tiled nest is not descended into again.
    if matches!(stmt.kind, StmtKind::For { .. }) && try_tile(stmt, tile, min_trip, sizes) {
        return 1;
    }
    stmt.children_mut()
        .map(|s| tile_stmt(s, tile, min_trip, sizes))
        .sum()
}

/// Collects the perfect nest rooted at `stmt`: headers outermost-first and
/// the innermost body.
fn perfect_nest(stmt: &Stmt) -> (Vec<ConstHeader>, &Stmt) {
    let mut headers = Vec::new();
    let mut cur = stmt;
    while let Some(h) = const_header(cur) {
        let StmtKind::For { body, .. } = &cur.kind else {
            break;
        };
        headers.push(h);
        let inner = unwrap_body(body);
        if inner.is_loop() && matches!(inner.kind, StmtKind::For { .. }) {
            cur = inner;
        } else {
            return (headers, inner);
        }
    }
    (headers, stmt)
}

fn try_tile(stmt: &mut Stmt, tile: i64, min_trip: i64, sizes: &HashMap<String, i64>) -> bool {
    let (headers, innermost_body) = perfect_nest(stmt);
    if headers.len() < 2 || headers.len() > 3 {
        return false;
    }
    // Every loop: starts at 0, step 1, trip large and divisible by the
    // tile size (keeping the generated bounds exact, with no min()).
    for h in &headers {
        if h.start != 0 || h.step != 1 {
            return false;
        }
        if h.bound < min_trip || h.bound % tile != 0 {
            return false;
        }
    }
    // The innermost body must contain no further loops and be reorder
    // safe (tiling permutes iteration order across tiles).
    if innermost_body.contains_loop() {
        return false;
    }
    let accesses = collect_accesses(innermost_body);
    if accesses.is_empty() || !reorder_safe(&accesses) {
        return false;
    }
    // Profitability, part 1: the nest's distinct arrays must overflow the
    // outer cache levels (Polly's heuristics skip cache-resident nests).
    let mut seen = std::collections::HashSet::new();
    let mut working_set = 0i64;
    for a in &accesses {
        if seen.insert(a.array.clone()) {
            working_set += sizes.get(&a.array).copied().unwrap_or(0);
        }
    }
    if working_set < MIN_WORKING_SET_BYTES {
        return false;
    }
    // Profitability, part 2: some large array must actually be
    // *re-streamed* — its subscripts ignore at least one nest IV, so every
    // iteration of that loop walks the array again. Without such reuse
    // (e.g. matrix-vector products reading the matrix exactly once),
    // tiling only adds loop overhead.
    let has_reuse = accesses.iter().any(|a| {
        let big = sizes.get(&a.array).copied().unwrap_or(0) >= MIN_REUSED_ARRAY_BYTES;
        big && headers.iter().any(|h| {
            a.indices
                .iter()
                .all(|idx| crate::analysis::affine_coeff(idx, &h.iv) == Some(0))
        })
    });
    if !has_reuse {
        return false;
    }

    // Build the tiled nest: tile loops outermost (original order), then
    // point loops (original order), then the body.
    let headers = headers.clone();
    let body = innermost_body.clone();
    let mut new_stmt = body;
    // Point loops, innermost last → iterate headers in reverse.
    for h in headers.iter().rev() {
        let tvar = format!("{}__t", h.iv);
        new_stmt = make_for(
            &h.iv,
            ident(&tvar),
            bin(
                BinaryOp::Add,
                ident(&tvar),
                Expr::new(ExprKind::IntLit(tile), Span::synthetic()),
            ),
            1,
            new_stmt,
        );
    }
    for h in headers.iter().rev() {
        let tvar = format!("{}__t", h.iv);
        new_stmt = make_for(
            &tvar,
            Expr::new(ExprKind::IntLit(0), Span::synthetic()),
            Expr::new(ExprKind::IntLit(h.bound), Span::synthetic()),
            tile,
            new_stmt,
        );
    }
    *stmt = new_stmt;
    true
}

fn ident(name: &str) -> Expr {
    Expr::new(ExprKind::Ident(name.to_string()), Span::synthetic())
}

fn bin(op: BinaryOp, a: Expr, b: Expr) -> Expr {
    Expr::new(
        ExprKind::Binary {
            op,
            lhs: Box::new(a),
            rhs: Box::new(b),
        },
        Span::synthetic(),
    )
}

/// `for (int iv = start; iv < bound; iv += step) body`
fn make_for(iv: &str, start: Expr, bound: Expr, step: i64, body: Stmt) -> Stmt {
    let span = Span::synthetic();
    let init = Stmt::new(
        StmtKind::Decl {
            ty: Type::Int { unsigned: false },
            declarators: vec![Declarator {
                name: iv.to_string(),
                dims: vec![],
                init: Some(start),
            }],
        },
        span,
    );
    let cond = bin(BinaryOp::Lt, ident(iv), bound);
    let step_expr = if step == 1 {
        Expr::new(
            ExprKind::IncDec {
                target: Box::new(ident(iv)),
                delta: 1,
                prefix: false,
            },
            span,
        )
    } else {
        Expr::new(
            ExprKind::Assign {
                op: Some(BinaryOp::Add),
                target: Box::new(ident(iv)),
                value: Box::new(Expr::new(ExprKind::IntLit(step), span)),
            },
            span,
        )
    };
    let body = Stmt::new(StmtKind::Block(vec![body]), span);
    Stmt::new(
        StmtKind::For {
            init: Some(Box::new(init)),
            cond: Some(cond),
            step: Some(step_expr),
            body: Box::new(body),
            pragma: None,
        },
        span,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_frontend::{parse_translation_unit, print_translation_unit};

    fn run(src: &str, tile: i64, min_trip: i64) -> (String, usize) {
        let mut tu = parse_translation_unit(src).unwrap();
        let n = tile_in_unit(&mut tu, tile, min_trip);
        let out = print_translation_unit(&tu);
        // Whatever we emit must re-parse.
        parse_translation_unit(&out).expect("tiled output re-parses");
        (out, n)
    }

    #[test]
    fn restreamed_matrix_3d_is_tiled() {
        // B[k][j] ignores i: the whole matrix is re-streamed every i
        // iteration — the textbook tiling target.
        let src = "float A[256][256]; float B[256][256]; float C[256][256];
void f() { for (int i = 0; i < 256; i++) { for (int j = 0; j < 256; j++) { for (int k = 0; k < 256; k++) { C[i][j] += A[i][k] * B[k][j]; } } } }";
        let (out, n) = run(src, 32, 128);
        assert_eq!(n, 1);
        assert!(out.contains("i__t"));
        assert!(out.contains("j__t"));
        assert!(out.contains("k__t"));
        assert!(out.contains("i__t + 32"));
        // 6 loops now: three tile, three point.
        assert_eq!(out.matches("for (").count(), 6);
    }

    #[test]
    fn single_pass_nest_is_not_tiled() {
        // Every array is touched exactly once (subscripts use all IVs):
        // no reuse, so tiling would only add overhead.
        let src = "double a[512][512];
void f() { for (int i = 0; i < 512; i++) { for (int j = 0; j < 512; j++) { a[i][j] = 0.0; } } }";
        let (_, n) = run(src, 32, 128);
        assert_eq!(n, 0);
    }

    #[test]
    fn cache_resident_nest_is_not_tiled() {
        // 256 KB working set fits L2: tiling would only add overhead.
        let src = "float a[256][256];
void f() { for (int i = 0; i < 256; i++) { for (int j = 0; j < 256; j++) { a[i][j] = 0.0; } } }";
        let (_, n) = run(src, 32, 128);
        assert_eq!(n, 0);
    }

    #[test]
    fn gemm_3d_is_tiled() {
        let src = "float A[256][256]; float B[256][256]; float C[256][256];
void f() { for (int i = 0; i < 256; i++) { for (int j = 0; j < 256; j++) { for (int k = 0; k < 256; k++) { C[i][j] += A[i][k] * B[k][j]; } } } }";
        let (out, n) = run(src, 32, 128);
        assert_eq!(n, 1);
        assert_eq!(out.matches("for (").count(), 6);
    }

    #[test]
    fn small_nest_not_tiled() {
        let src = "float a[64][64];
void f() { for (int i = 0; i < 64; i++) { for (int j = 0; j < 64; j++) { a[i][j] = 0.0; } } }";
        let (_, n) = run(src, 32, 128);
        assert_eq!(n, 0);
    }

    #[test]
    fn indivisible_bounds_not_tiled() {
        let src = "float a[200][200];
void f() { for (int i = 0; i < 200; i++) { for (int j = 0; j < 200; j++) { a[i][j] = 0.0; } } }";
        let (_, n) = run(src, 32, 128);
        assert_eq!(n, 0);
    }

    #[test]
    fn single_loop_not_tiled() {
        let src = "float a[4096];\nvoid f() { for (int i = 0; i < 4096; i++) { a[i] = 0.0; } }";
        let (_, n) = run(src, 32, 128);
        assert_eq!(n, 0);
    }

    #[test]
    fn stencil_with_shifted_store_not_tiled() {
        let src = "float a[256][256];
void f() { for (int i = 1; i < 256; i++) { for (int j = 0; j < 256; j++) { a[i][j] = a[i-1][j]; } } }";
        let (_, n) = run(src, 32, 128);
        assert_eq!(n, 0);
    }

    #[test]
    fn tiled_loop_lowers_with_constant_inner_trips() {
        // End-to-end: the tiled source flows through the IR pipeline and
        // the point loops have compile-time trip 32.
        let src = "float A[256][256]; float B[256][256]; float C[256][256];
void f() { for (int i = 0; i < 256; i++) { for (int j = 0; j < 256; j++) { for (int k = 0; k < 256; k++) { C[i][j] += A[i][k] * B[k][j]; } } } }";
        let (out, n) = run(src, 32, 128);
        assert_eq!(n, 1);
        let tu = parse_translation_unit(&out).unwrap();
        let loops = nvc_ir::lower_innermost_loops(&tu, &out, &nvc_ir::ParamEnv::new()).unwrap();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].ir.trip.count(), 32);
        assert_eq!(loops[0].ir.outer.len(), 5);
        assert_eq!(loops[0].ir.total_iterations(), 256 * 256 * 256);
    }
}
