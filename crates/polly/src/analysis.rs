//! The analyses the three Polly-lite transforms share.
//!
//! They stay syntactic and stay here: the constant-header filter
//! (`const_header`: a constant start and bound, `<`, a positive step),
//! array-access collection with its store/associative-update rules,
//! affine subscript coefficients and strides, the reorder-legality check
//! and identifier renaming. A transformation is legal only when the
//! involved subscripts are simple affine expressions the checks can fully
//! understand — anything else makes the pass bail, as Polly does when a
//! region is not representable polyhedrally.
//!
//! The AST chores under them come from `nvc_frontend::ast`: the `for`
//! header recognizer (`Stmt::for_header`), the constant folder
//! (`Expr::const_int`), span-blind equality (`Expr::same_tree`), the
//! child iterators and the shared and mutable walks.

use std::collections::HashMap;

use nvc_frontend::ast::{BinaryOp, Expr, ExprKind, Stmt, StmtKind, TranslationUnit};

/// A canonical constant-bound loop header: `for (int iv = start; iv <
/// bound; iv += step)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ConstHeader {
    /// Induction variable name.
    pub(crate) iv: String,
    /// Constant start.
    pub(crate) start: i64,
    /// Constant exclusive bound.
    pub(crate) bound: i64,
    /// Constant positive step.
    pub(crate) step: i64,
}

impl ConstHeader {
    /// Trip count.
    #[cfg(test)]
    pub(crate) fn trip(&self) -> i64 {
        ((self.bound - self.start).max(0) + self.step - 1) / self.step
    }
}

/// Recognizes a canonical header with constant bounds: the
/// [`Stmt::for_header`] of `stmt` when its start and bound fold to
/// constants with no environment, its comparison is `<` (after putting the
/// IV on the left) and its step is a positive constant.
pub(crate) fn const_header(stmt: &Stmt) -> Option<ConstHeader> {
    let h = stmt.for_header()?;
    let step = h.step(&|_| None)?;
    if h.cmp != BinaryOp::Lt || step <= 0 {
        return None;
    }
    Some(ConstHeader {
        iv: h.iv.to_string(),
        start: h.start.const_int()?,
        bound: h.bound.const_int()?,
        step,
    })
}

/// The loop body with single-statement blocks unwrapped.
pub(crate) fn unwrap_body(body: &Stmt) -> &Stmt {
    match &body.kind {
        StmtKind::Block(stmts) if stmts.len() == 1 => unwrap_body(&stmts[0]),
        _ => body,
    }
}

/// One array access found in a body.
#[derive(Debug, Clone)]
pub(crate) struct AstAccess {
    /// Array name.
    pub(crate) array: String,
    /// Per-dimension index expressions (cloned).
    pub(crate) indices: Vec<Expr>,
    /// Store vs load.
    pub(crate) is_store: bool,
    /// Store via an associative compound assignment (`+=`, `*=`, `&=`,
    /// `|=`, `^=`), which commutes across iteration reordering.
    pub(crate) is_assoc_update: bool,
}

impl AstAccess {
    /// True when both accesses have, dimension for dimension, the same
    /// subscript tree: on one array, they touch the same cell in every
    /// iteration.
    pub(crate) fn same_subscripts(&self, other: &AstAccess) -> bool {
        self.indices.len() == other.indices.len()
            && self
                .indices
                .iter()
                .zip(&other.indices)
                .all(|(x, y)| x.same_tree(y))
    }
}

/// Collects every array access in a statement subtree.
pub(crate) fn collect_accesses(stmt: &Stmt) -> Vec<AstAccess> {
    let mut out = Vec::new();
    stmt.walk(&mut |s| {
        for e in s.exprs() {
            walk_expr(e, false, false, &mut out);
        }
    });
    out
}

/// Records the array accesses under `e`; `as_store` when `e` is written,
/// `assoc` when through an associative compound assignment.
fn walk_expr(e: &Expr, as_store: bool, assoc: bool, out: &mut Vec<AstAccess>) {
    match &e.kind {
        ExprKind::Assign { op, target, value } => {
            let is_assoc = matches!(
                op,
                Some(BinaryOp::Add)
                    | Some(BinaryOp::Mul)
                    | Some(BinaryOp::BitAnd)
                    | Some(BinaryOp::BitOr)
                    | Some(BinaryOp::BitXor)
            );
            walk_expr(target, true, is_assoc, out);
            walk_expr(value, false, false, out);
        }
        ExprKind::IncDec { target, .. } => walk_expr(target, true, true, out),
        ExprKind::Index { .. } => {
            if let Some((name, idx)) = e.as_array_access() {
                out.push(AstAccess {
                    array: name.to_string(),
                    indices: idx.iter().map(|&i| i.clone()).collect(),
                    is_store: as_store,
                    is_assoc_update: as_store && assoc,
                });
                // Index expressions may contain further accesses (a[b[i]]).
                for i in idx {
                    walk_expr(i, false, false, out);
                }
            }
        }
        _ => {
            for c in e.children() {
                walk_expr(c, false, false, out);
            }
        }
    }
}

/// Coefficient of `iv` in an affine index expression, or `None` when the
/// expression is not affine in the loop IVs.
pub(crate) fn affine_coeff(e: &Expr, iv: &str) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(_) => Some(0),
        ExprKind::Ident(n) => Some(if n == iv { 1 } else { 0 }),
        ExprKind::Binary { op, lhs, rhs } => {
            let a = affine_coeff(lhs, iv)?;
            let b = affine_coeff(rhs, iv)?;
            match op {
                BinaryOp::Add => Some(a + b),
                BinaryOp::Sub => Some(a - b),
                BinaryOp::Mul => {
                    // Only const × affine is affine.
                    lhs.const_int()
                        .map(|c| c * b)
                        .or_else(|| rhs.const_int().map(|c| a * c))
                }
                _ => None,
            }
        }
        ExprKind::Unary {
            op: nvc_frontend::ast::UnaryOp::Neg,
            operand,
        } => affine_coeff(operand, iv).map(|c| -c),
        ExprKind::Cast { operand, .. } => affine_coeff(operand, iv),
        _ => None,
    }
}

/// Element stride of an access in `iv`, after linearizing with the global
/// array dimensions. `None` when the access is not affine.
pub(crate) fn linearized_stride(
    access: &AstAccess,
    dims: &HashMap<String, Vec<i64>>,
    iv: &str,
) -> Option<i64> {
    let d = dims.get(&access.array)?;
    if d.len() != access.indices.len() {
        return None;
    }
    let mut stride = 0i64;
    for (k, idx) in access.indices.iter().enumerate() {
        let c = affine_coeff(idx, iv)?;
        let weight: i64 = d[k + 1..].iter().product();
        stride += c * weight;
    }
    Some(stride)
}

/// Global array dimensions of a unit.
pub(crate) fn array_dims(tu: &TranslationUnit) -> HashMap<String, Vec<i64>> {
    tu.globals()
        .filter(|g| !g.dims.is_empty())
        .map(|g| (g.name.clone(), g.dims.clone()))
        .collect()
}

/// Conservative legality for iteration reordering (interchange/tiling):
/// every *stored* array must either be updated only through associative
/// compound assignments, or have all of its accesses within the nest use
/// syntactically identical subscripts (same cell touched only by the same
/// iteration).
pub(crate) fn reorder_safe(accesses: &[AstAccess]) -> bool {
    accesses
        .iter()
        .filter(|s| s.is_store && !s.is_assoc_update)
        .all(|s| {
            accesses
                .iter()
                .filter(|a| a.array == s.array)
                .all(|a| a.same_subscripts(s))
                // The subscripts must also be affine, or we understand
                // nothing.
                && s.indices.iter().all(|i| affine_coeff(i, "\0").is_some())
        })
}

/// Renames every occurrence of identifier `from` to `to` in a subtree,
/// declared names included.
pub(crate) fn rename_ident(stmt: &mut Stmt, from: &str, to: &str) {
    stmt.walk_mut(&mut |s| {
        if let StmtKind::Decl { declarators, .. } = &mut s.kind {
            for d in declarators.iter_mut().filter(|d| d.name == from) {
                d.name = to.to_string();
            }
        }
        for e in s.exprs_mut() {
            e.walk_mut(&mut |e| {
                if let ExprKind::Ident(n) = &mut e.kind {
                    if n == from {
                        *n = to.to_string();
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_frontend::{parse_statement, parse_translation_unit};

    #[test]
    fn const_header_recognition() {
        let s = parse_statement("for (int i = 0; i < 100; i++) { }").unwrap();
        let h = const_header(&s).unwrap();
        assert_eq!(h.iv, "i");
        assert_eq!(h.trip(), 100);
        let s2 = parse_statement("for (int i = 10; i < 100; i += 3) { }").unwrap();
        assert_eq!(const_header(&s2).unwrap().trip(), 30);
        // Runtime bounds are not canonical-constant.
        let s3 = parse_statement("for (int i = 0; i < n; i++) { }").unwrap();
        assert!(const_header(&s3).is_none());
    }

    /// The shared recognizer widens what reads as canonical: `iv = iv + c`
    /// steps and the IV on the right of `>`. Polly's own filter stays: `<`
    /// only, a positive step, and an integer start and bound (a float bound
    /// such as `256.5` runs one more iteration than its truncation).
    #[test]
    fn const_header_reads_every_spelling_of_the_canonical_header() {
        for src in [
            "for (int i = 0; i < 1024; i = i + 1) { }",
            "for (int i = 0; 1024 > i; i++) { }",
            "for (int i = 0; i < 2 * 512; i += 1) { }",
        ] {
            let h = const_header(&parse_statement(src).unwrap()).expect(src);
            assert_eq!((h.iv.as_str(), h.start, h.bound, h.step), ("i", 0, 1024, 1));
        }
        for src in [
            "for (int i = 0; i <= 1024; i++) { }",
            "for (int i = 1024; i > 0; i--) { }",
            "for (int i = 0; i < 1024; i -= 1) { }",
            "for (int i = 0; i < 1024; i += 0) { }",
            "for (int i = 0; i < 256.5; i++) { }",
            "for (int i = 0; i < 2.0 * 512; i++) { }",
            "for (int i = 0.5; i < 1024; i++) { }",
        ] {
            assert!(
                const_header(&parse_statement(src).unwrap()).is_none(),
                "{src}"
            );
        }
    }

    #[test]
    fn affine_coeff_extraction() {
        let e = parse_statement("x = 2*i + 3*j - 1;").unwrap();
        let nvc_frontend::ast::StmtKind::Expr(Expr {
            kind: ExprKind::Assign { value, .. },
            ..
        }) = &e.kind
        else {
            panic!()
        };
        assert_eq!(affine_coeff(value, "i"), Some(2));
        assert_eq!(affine_coeff(value, "j"), Some(3));
        assert_eq!(affine_coeff(value, "k"), Some(0));
    }

    #[test]
    fn collect_accesses_in_gemm_body() {
        let s = parse_statement("C[i][j] += A[i][k] * B[k][j];").unwrap();
        let acc = collect_accesses(&s);
        assert_eq!(acc.len(), 3);
        let c = acc.iter().find(|a| a.array == "C").unwrap();
        assert!(c.is_store);
        assert!(c.is_assoc_update);
        assert!(acc.iter().filter(|a| !a.is_store).count() == 2);
    }

    #[test]
    fn linearized_strides_in_gemm() {
        let tu = parse_translation_unit("float A[256][256]; float B[256][256];").unwrap();
        let dims = array_dims(&tu);
        let s = parse_statement("x = A[i][k] + B[k][j];").unwrap();
        let acc = collect_accesses(&s);
        let a = acc.iter().find(|x| x.array == "A").unwrap();
        let b = acc.iter().find(|x| x.array == "B").unwrap();
        assert_eq!(linearized_stride(a, &dims, "k"), Some(1));
        assert_eq!(linearized_stride(a, &dims, "i"), Some(256));
        assert_eq!(linearized_stride(b, &dims, "k"), Some(256));
        assert_eq!(linearized_stride(b, &dims, "j"), Some(1));
    }

    #[test]
    fn reorder_safety() {
        // Associative update: safe.
        let s = parse_statement("C[i][j] += A[i][k];").unwrap();
        assert!(reorder_safe(&collect_accesses(&s)));
        // Identical subscripts: safe.
        let s2 = parse_statement("a[i][j] = a[i][j] * 2 + b[i][j];").unwrap();
        assert!(reorder_safe(&collect_accesses(&s2)));
        // Shifted subscript on a stored array: unsafe.
        let s3 = parse_statement("a[i][j] = a[i][j-1] + 1;").unwrap();
        assert!(!reorder_safe(&collect_accesses(&s3)));
    }

    #[test]
    fn rename_ident_everywhere() {
        let mut s = parse_statement("for (int q = 0; q < 8; q++) { a[q] = q * 2; }").unwrap();
        rename_ident(&mut s, "q", "z");
        let printed = nvc_frontend::printer::print_stmt(&s, 0);
        assert!(!printed.contains('q'), "{printed}");
        assert!(printed.contains("int z = 0"));
        assert!(printed.contains("a[z] = z * 2"));
    }
}
