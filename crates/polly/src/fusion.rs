//! Loop fusion: merges adjacent loops with identical iteration spaces.
//!
//! Fusing `for i { a[i] = … }` with `for i { b[i] = f(a[i]) }` removes a
//! full streaming pass over `a` — the producer's value is still in cache
//! (or a register) when the consumer runs. Legality is conservative: for
//! any array written in one loop and touched in the other, all subscripts
//! must be identical and affine with the IV in some dimension, so values
//! flow only within the same iteration.

use nvc_frontend::ast::{Item, Stmt, StmtKind, TranslationUnit};

use crate::analysis::{affine_coeff, collect_accesses, const_header, rename_ident, AstAccess};

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
    if let StmtKind::Block(stmts) = &mut stmt.kind {
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
    }
    // Then inside each statement, fused or not.
    count + stmt.children_mut().map(fuse_stmt).sum::<usize>()
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
        rename_ident(&mut body2, &h2.iv, &h1.iv);
    }

    // Dependence check: arrays written in either loop and touched in the
    // other must use identical subscripts everywhere, so values flow only
    // within the same iteration (read-after-write and write-after-read
    // across the fusion). The written subscript must also name a new cell
    // in every iteration (affine, the IV in some dimension): `a[i / 2]` or
    // `s[0]` would hand the fused consumer an earlier iteration's value.
    let acc1 = collect_accesses(body1);
    let acc2 = collect_accesses(&body2);
    let one_cell_per_iteration = |w: &AstAccess| {
        w.indices.iter().try_fold(false, |moves, i| {
            Some(moves || affine_coeff(i, &h1.iv)? != 0)
        }) == Some(true)
    };
    let same_iteration_only = |writes: &[AstAccess], other: &[AstAccess]| {
        writes.iter().filter(|w| w.is_store).all(|w| {
            let mut touched = other.iter().filter(|a| a.array == w.array).peekable();
            touched.peek().is_none()
                || (one_cell_per_iteration(w) && touched.all(|a| a.same_subscripts(w)))
        })
    };
    if !same_iteration_only(&acc1, &acc2) || !same_iteration_only(&acc2, &acc1) {
        return None;
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
    fn subscripts_not_naming_one_cell_per_iteration_do_not_fuse() {
        // `a[k++]` in both loops names different cells in the same
        // iteration: after fusion loop 2 would read a[1], not a[8].
        for (w, r) in [
            ("a[k++]", "a[k++]"),
            ("a[k = i]", "a[k = i]"),
            ("a[i > 5 ? i : 0]", "a[i > 5 ? i : 0]"),
            // Pure, but not a new cell in every iteration: fused, loop 2
            // would read this iteration's b, not the last write's.
            ("a[i / 2]", "a[i / 2]"),
            ("a[0]", "a[0]"),
        ] {
            let src = format!(
                "float a[512]; float b[512]; int k;
void f() {{
    for (int i = 0; i < 8; i++) {{ {w} = b[i]; }}
    for (int i = 0; i < 8; i++) {{ b[i] = {r}; }}
}}"
            );
            let (_, n) = run(&src);
            assert_eq!(n, 0, "{w}");
        }
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
