//! Loop fusion: merges adjacent loops with identical iteration spaces.
//!
//! Fusing `for i { a[i] = … }` with `for i { b[i] = f(a[i]) }` removes a
//! full streaming pass over `a` — the producer's value is still in cache
//! (or a register) when the consumer runs. Legality is conservative: for
//! any array written in the first loop and touched in the second, all
//! subscripts must be identical, so values flow only within the same
//! iteration.

use nvc_frontend::ast::{Item, Stmt, StmtKind, TranslationUnit};
use nvc_ir::lower::exprs_equal;

use crate::analysis::{collect_accesses, const_header, rename_ident_stmt};

/// Fuses adjacent eligible loops throughout the unit. Returns the number
/// of loop pairs merged.
pub(crate) fn fuse_in_unit(tu: &mut TranslationUnit) -> usize {
    let mut count = 0;
    for item in &mut tu.items {
        if let Item::Function(f) = item {
            count += fuse_stmt(&mut f.body);
        }
    }
    count
}

fn fuse_stmt(stmt: &mut Stmt) -> usize {
    let mut count = 0;
    match &mut stmt.kind {
        StmtKind::Block(stmts) => {
            // Try fusing each adjacent pair, repeatedly (a fused loop may
            // fuse again with its next sibling).
            let mut i = 0;
            while i + 1 < stmts.len() {
                if let Some(fused) = try_fuse(&stmts[i], &stmts[i + 1]) {
                    stmts[i] = fused;
                    stmts.remove(i + 1);
                    count += 1;
                } else {
                    i += 1;
                }
            }
            for s in stmts {
                count += fuse_stmt(s);
            }
        }
        StmtKind::For { body, .. } | StmtKind::While { body, .. } => {
            count += fuse_stmt(body);
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            count += fuse_stmt(then_branch);
            if let Some(e) = else_branch {
                count += fuse_stmt(e);
            }
        }
        _ => {}
    }
    count
}

fn try_fuse(first: &Stmt, second: &Stmt) -> Option<Stmt> {
    let h1 = const_header(first)?;
    let h2 = const_header(second)?;
    if (h1.start, h1.bound, h1.step) != (h2.start, h2.bound, h2.step) {
        return None;
    }
    let StmtKind::For {
        init,
        cond,
        step,
        body: body1,
        pragma,
    } = &first.kind
    else {
        return None;
    };
    let StmtKind::For { body: body2, .. } = &second.kind else {
        return None;
    };

    // Rename the second IV onto the first.
    let mut body2 = (**body2).clone();
    if h1.iv != h2.iv {
        rename_ident_stmt(&mut body2, &h2.iv, &h1.iv);
    }

    // Dependence check: arrays written in loop 1 and touched in loop 2
    // must use identical subscripts everywhere (same-iteration flow only).
    let acc1 = collect_accesses(body1);
    let acc2 = collect_accesses(&body2);
    for w in acc1.iter().filter(|a| a.is_store) {
        for r in acc2.iter().filter(|a| a.array == w.array) {
            let same = r.indices.len() == w.indices.len()
                && r.indices
                    .iter()
                    .zip(w.indices.iter())
                    .all(|(x, y)| exprs_equal(x, y));
            if !same {
                return None;
            }
        }
    }
    // And symmetrically: loop 2's writes must not disturb loop 1's reads
    // at other iterations (write-after-read across the fusion).
    for w in acc2.iter().filter(|a| a.is_store) {
        for r in acc1.iter().filter(|a| a.array == w.array) {
            let same = r.indices.len() == w.indices.len()
                && r.indices
                    .iter()
                    .zip(w.indices.iter())
                    .all(|(x, y)| exprs_equal(x, y));
            if !same {
                return None;
            }
        }
    }

    // Merge the bodies into one block.
    let span = first.span.merge(second.span);
    let merged = Stmt::new(StmtKind::Block(vec![(**body1).clone(), body2]), span);
    Some(Stmt::new(
        StmtKind::For {
            init: init.clone(),
            cond: cond.clone(),
            step: step.clone(),
            body: Box::new(merged),
            pragma: *pragma,
        },
        span,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_frontend::{parse_translation_unit, print_translation_unit};

    fn run(src: &str) -> (String, usize) {
        let mut tu = parse_translation_unit(src).unwrap();
        let n = fuse_in_unit(&mut tu);
        let out = print_translation_unit(&tu);
        parse_translation_unit(&out).expect("fused output re-parses");
        (out, n)
    }

    #[test]
    fn producer_consumer_same_index_fuses() {
        let src = "float a[1024]; float b[1024]; float c[1024];
void f() {
    for (int i = 0; i < 1024; i++) { a[i] = b[i] * 2.0; }
    for (int i = 0; i < 1024; i++) { c[i] = a[i] + 1.0; }
}";
        let (out, n) = run(src);
        assert_eq!(n, 1);
        assert_eq!(out.matches("for (").count(), 1);
        assert!(out.contains("a[i] = b[i] * 2.0"));
        assert!(out.contains("c[i] = a[i] + 1.0"));
    }

    #[test]
    fn different_ivs_are_renamed_and_fused() {
        let src = "float a[512]; float b[512];
void f() {
    for (int i = 0; i < 512; i++) { a[i] = 1.0; }
    for (int j = 0; j < 512; j++) { b[j] = a[j]; }
}";
        let (out, n) = run(src);
        assert_eq!(n, 1);
        assert!(out.contains("b[i] = a[i]"));
    }

    #[test]
    fn shifted_consumer_does_not_fuse() {
        // Second loop reads a[i-1]: fusing would read an unwritten value.
        let src = "float a[512]; float b[512];
void f() {
    for (int i = 1; i < 512; i++) { a[i] = 1.0; }
    for (int i = 1; i < 512; i++) { b[i] = a[i-1]; }
}";
        let (_, n) = run(src);
        assert_eq!(n, 0);
    }

    #[test]
    fn mismatched_bounds_do_not_fuse() {
        let src = "float a[512]; float b[512];
void f() {
    for (int i = 0; i < 512; i++) { a[i] = 1.0; }
    for (int i = 0; i < 256; i++) { b[i] = 2.0; }
}";
        let (_, n) = run(src);
        assert_eq!(n, 0);
    }

    #[test]
    fn chain_of_three_fuses_twice() {
        let src = "float a[512]; float b[512]; float c[512];
void f() {
    for (int i = 0; i < 512; i++) { a[i] = 1.0; }
    for (int i = 0; i < 512; i++) { b[i] = a[i]; }
    for (int i = 0; i < 512; i++) { c[i] = b[i]; }
}";
        let (out, n) = run(src);
        assert_eq!(n, 2);
        assert_eq!(out.matches("for (").count(), 1);
    }

    #[test]
    fn write_after_read_hazard_blocks_fusion() {
        // Loop 2 writes b[i+1] which loop 1 reads as b[i] at later
        // iterations.
        let src = "float a[512]; float b[520];
void f() {
    for (int i = 0; i < 512; i++) { a[i] = b[i]; }
    for (int i = 0; i < 512; i++) { b[i+1] = 0.0; }
}";
        let (_, n) = run(src);
        assert_eq!(n, 0);
    }
}
