//! Loop interchange: moves the loop with the best spatial locality
//! innermost.
//!
//! The canonical win is `ijk` matrix multiply, where interchanging `j` and
//! `k` turns the column-major walk of `B[k][j]` (stride = row length) into
//! a unit-stride walk — simultaneously making the loop vectorizable with
//! contiguous loads. This is the transformation behind Polly "performing
//! better on benchmarks with larger number of loop iterations" (§4.1).

use std::collections::HashMap;

use nvc_frontend::ast::{Item, Stmt, StmtKind, TranslationUnit};

use crate::analysis::{
    array_dims, collect_accesses, const_header, linearized_stride, reorder_safe, unwrap_body,
};

/// Applies interchange throughout a unit. Returns how many pairs were
/// swapped.
pub(crate) fn interchange_in_unit(tu: &mut TranslationUnit) -> usize {
    let dims = array_dims(tu);
    let mut count = 0;
    for item in &mut tu.items {
        if let Item::Function(f) = item {
            count += interchange_stmt(&mut f.body, &dims);
        }
    }
    count
}

fn interchange_stmt(stmt: &mut Stmt, dims: &HashMap<String, Vec<i64>>) -> usize {
    let mut count = 0;
    // Recurse first so innermost pairs are considered bottom-up.
    match &mut stmt.kind {
        StmtKind::Block(stmts) => {
            for s in stmts {
                count += interchange_stmt(s, dims);
            }
        }
        StmtKind::For { body, .. } | StmtKind::While { body, .. } => {
            count += interchange_stmt(body, dims);
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            count += interchange_stmt(then_branch, dims);
            if let Some(e) = else_branch {
                count += interchange_stmt(e, dims);
            }
        }
        _ => {}
    }
    if try_interchange(stmt, dims) {
        count += 1;
    }
    count
}

/// Attempts to interchange `outer` with its directly nested loop.
fn try_interchange(outer: &mut Stmt, dims: &HashMap<String, Vec<i64>>) -> bool {
    if !outer.is_loop() {
        return false;
    }
    let Some(outer_header) = const_header(outer) else {
        return false;
    };
    // The body must be exactly one inner loop (perfect nest).
    let StmtKind::For { body, .. } = &outer.kind else {
        return false;
    };
    let inner = unwrap_body(body);
    let Some(inner_header) = const_header(inner) else {
        return false;
    };
    let StmtKind::For {
        body: inner_body, ..
    } = &inner.kind
    else {
        return false;
    };
    // The inner loop must be innermost (no loops inside).
    let mut has_loop = false;
    inner_body.walk(&mut |s| {
        if s.is_loop() {
            has_loop = true;
        }
    });
    if has_loop {
        return false;
    }

    // Profitability: total |stride| of the innermost walk should shrink.
    let accesses = collect_accesses(inner_body);
    if accesses.is_empty() {
        return false;
    }
    let score = |iv: &str| -> Option<i64> {
        let mut total = 0;
        for a in &accesses {
            let s = linearized_stride(a, dims, iv)?;
            total += s.unsigned_abs().min(64) as i64;
        }
        Some(total)
    };
    let (Some(inner_score), Some(outer_score)) = (score(&inner_header.iv), score(&outer_header.iv))
    else {
        return false;
    };
    if outer_score >= inner_score {
        return false; // current order is already at least as good
    }

    // Legality: the reordering must be safe.
    if !reorder_safe(&accesses) {
        return false;
    }

    // Swap the two headers in place.
    swap_headers(outer);
    true
}

/// Swaps the `(init, cond, step)` clauses of a loop and its directly
/// nested loop.
fn swap_headers(outer: &mut Stmt) {
    let StmtKind::For {
        init: oi,
        cond: oc,
        step: os,
        body,
        ..
    } = &mut outer.kind
    else {
        return;
    };
    // Find the inner `for` through single-statement blocks.
    fn inner_for(s: &mut Stmt) -> Option<&mut Stmt> {
        if matches!(s.kind, StmtKind::For { .. }) {
            return Some(s);
        }
        match &mut s.kind {
            StmtKind::Block(stmts) if stmts.len() == 1 => inner_for(&mut stmts[0]),
            _ => None,
        }
    }
    let Some(inner) = inner_for(body) else {
        return;
    };
    let StmtKind::For {
        init: ii,
        cond: ic,
        step: is_,
        ..
    } = &mut inner.kind
    else {
        return;
    };
    std::mem::swap(oi, ii);
    std::mem::swap(oc, ic);
    std::mem::swap(os, is_);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_frontend::{parse_translation_unit, print_translation_unit};

    fn run(src: &str) -> (String, usize) {
        let mut tu = parse_translation_unit(src).unwrap();
        let n = interchange_in_unit(&mut tu);
        (print_translation_unit(&tu), n)
    }

    #[test]
    fn transpose_copy_interchanges() {
        // b[j][i] walks columns when j is inner; interchange fixes it.
        let src = "float a[128][128]; float b[128][128];
void f() { for (int i = 0; i < 128; i++) { for (int j = 0; j < 128; j++) { a[j][i] = b[j][i]; } } }";
        let (out, n) = run(src);
        assert_eq!(n, 1);
        let pi = out.find("for (int i").unwrap();
        let pj = out.find("for (int j").unwrap();
        assert!(pj < pi, "j should be outer after interchange:\n{out}");
    }

    #[test]
    fn unit_stride_nest_is_left_alone() {
        let src = "float a[128][128];
void f() { for (int i = 0; i < 128; i++) { for (int j = 0; j < 128; j++) { a[i][j] = 0.0; } } }";
        let (_, n) = run(src);
        assert_eq!(n, 0);
    }

    #[test]
    fn gemm_jk_interchange() {
        let src = "float A[128][128]; float B[128][128]; float C[128][128];
void f() { for (int i = 0; i < 128; i++) { for (int j = 0; j < 128; j++) { for (int k = 0; k < 128; k++) { C[i][j] += A[i][k] * B[k][j]; } } } }";
        let (out, n) = run(src);
        assert_eq!(n, 1);
        // Innermost must now be j (unit stride for B and C).
        let pk = out.find("for (int k").unwrap();
        let pj = out.find("for (int j").unwrap();
        assert!(pk < pj, "k should be outer after interchange:\n{out}");
    }

    #[test]
    fn unsafe_stencil_is_not_interchanged() {
        // a[j][i] = a[j-1][i] carries a dependence along j; swapping j
        // inward would be illegal — reorder_safe must reject it.
        let src = "float a[128][128];
void f() { for (int i = 0; i < 128; i++) { for (int j = 1; j < 128; j++) { a[j][i] = a[j-1][i] + 1.0; } } }";
        let (_, n) = run(src);
        assert_eq!(n, 0);
    }

    #[test]
    fn imperfect_nest_is_not_interchanged() {
        let src = "float a[128][128]; float r[128];
void f() { for (int i = 0; i < 128; i++) { r[i] = 0.0; for (int j = 0; j < 128; j++) { a[j][i] = 1.0; } } }";
        let (_, n) = run(src);
        assert_eq!(n, 0);
    }

    #[test]
    fn runtime_bounds_are_not_interchanged() {
        let src = "float a[128][128];
void f(int n) { for (int i = 0; i < n; i++) { for (int j = 0; j < n; j++) { a[j][i] = 0.0; } } }";
        let (_, n) = run(src);
        assert_eq!(n, 0);
    }
}
