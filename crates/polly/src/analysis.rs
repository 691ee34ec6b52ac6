//! Shared AST-level analyses for the Polly-lite transforms.
//!
//! These are deliberately syntactic: a transformation is legal only when
//! the involved subscripts are simple affine expressions the checks can
//! fully understand — anything else makes the pass bail, as Polly does
//! when a region is not representable polyhedrally.

use std::collections::HashMap;

use nvc_frontend::ast::{BinaryOp, Expr, ExprKind, Stmt, StmtKind, TranslationUnit};
use nvc_ir::lower::exprs_equal;

/// A canonical constant-bound loop header: `for (int iv = start; iv <
/// bound; iv += step)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstHeader {
    /// Induction variable name.
    pub iv: String,
    /// Constant start.
    pub start: i64,
    /// Constant exclusive bound.
    pub bound: i64,
    /// Constant positive step.
    pub step: i64,
}

impl ConstHeader {
    /// Trip count.
    pub fn trip(&self) -> i64 {
        ((self.bound - self.start).max(0) + self.step - 1) / self.step
    }
}

/// Recognizes a canonical header with constant bounds.
pub fn const_header(stmt: &Stmt) -> Option<ConstHeader> {
    let StmtKind::For {
        init, cond, step, ..
    } = &stmt.kind
    else {
        return None;
    };
    let (iv, start) = match init.as_deref().map(|s| &s.kind) {
        Some(StmtKind::Decl { declarators, .. }) if declarators.len() == 1 => {
            let d = &declarators[0];
            (d.name.clone(), d.init.as_ref()?.const_int()?)
        }
        Some(StmtKind::Expr(Expr {
            kind:
                ExprKind::Assign {
                    op: None,
                    target,
                    value,
                },
            ..
        })) => match &target.kind {
            ExprKind::Ident(n) => (n.clone(), value.const_int()?),
            _ => return None,
        },
        _ => return None,
    };
    let bound = match cond.as_ref().map(|c| &c.kind) {
        Some(ExprKind::Binary {
            op: BinaryOp::Lt,
            lhs,
            rhs,
        }) => match &lhs.kind {
            ExprKind::Ident(n) if *n == iv => rhs.const_int()?,
            _ => return None,
        },
        _ => return None,
    };
    let step_val = match step.as_ref().map(|e| &e.kind) {
        Some(ExprKind::IncDec {
            target, delta: 1, ..
        }) => match &target.kind {
            ExprKind::Ident(n) if *n == iv => 1,
            _ => return None,
        },
        Some(ExprKind::Assign {
            op: Some(BinaryOp::Add),
            target,
            value,
        }) => match &target.kind {
            ExprKind::Ident(n) if *n == iv => value.const_int()?,
            _ => return None,
        },
        _ => return None,
    };
    (step_val > 0).then_some(ConstHeader {
        iv,
        start,
        bound,
        step: step_val,
    })
}

/// The loop body with single-statement blocks unwrapped.
pub fn unwrap_body(body: &Stmt) -> &Stmt {
    match &body.kind {
        StmtKind::Block(stmts) if stmts.len() == 1 => unwrap_body(&stmts[0]),
        _ => body,
    }
}

/// One array access found in a body.
#[derive(Debug, Clone)]
pub struct AstAccess {
    /// Array name.
    pub array: String,
    /// Per-dimension index expressions (cloned).
    pub indices: Vec<Expr>,
    /// Store vs load.
    pub is_store: bool,
    /// Store via an associative compound assignment (`+=`, `*=`, `&=`,
    /// `|=`, `^=`), which commutes across iteration reordering.
    pub is_assoc_update: bool,
}

/// Collects every array access in a statement subtree.
pub fn collect_accesses(stmt: &Stmt) -> Vec<AstAccess> {
    let mut out = Vec::new();
    walk_stmt(stmt, &mut out);
    out
}

fn walk_stmt(stmt: &Stmt, out: &mut Vec<AstAccess>) {
    match &stmt.kind {
        StmtKind::Block(stmts) => {
            for s in stmts {
                walk_stmt(s, out);
            }
        }
        StmtKind::Decl { declarators, .. } => {
            for d in declarators {
                if let Some(init) = &d.init {
                    walk_expr(init, false, false, out);
                }
            }
        }
        StmtKind::Expr(e) => walk_expr(e, false, false, out),
        StmtKind::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            if let Some(i) = init {
                walk_stmt(i, out);
            }
            if let Some(c) = cond {
                walk_expr(c, false, false, out);
            }
            if let Some(s) = step {
                walk_expr(s, false, false, out);
            }
            walk_stmt(body, out);
        }
        StmtKind::While { cond, body, .. } => {
            walk_expr(cond, false, false, out);
            walk_stmt(body, out);
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            walk_expr(cond, false, false, out);
            walk_stmt(then_branch, out);
            if let Some(e) = else_branch {
                walk_stmt(e, out);
            }
        }
        StmtKind::Return(Some(e)) => walk_expr(e, false, false, out),
        _ => {}
    }
}

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
                    indices: idx.into_iter().cloned().collect(),
                    is_store: as_store,
                    is_assoc_update: as_store && assoc,
                });
                // Index expressions may contain further accesses (a[b[i]]).
                if let Some((_, idx2)) = e.as_array_access() {
                    for i in idx2 {
                        walk_expr(i, false, false, out);
                    }
                }
            }
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, false, false, out);
            walk_expr(rhs, false, false, out);
        }
        ExprKind::Unary { operand, .. } | ExprKind::Cast { operand, .. } => {
            walk_expr(operand, false, false, out)
        }
        ExprKind::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            walk_expr(cond, false, false, out);
            walk_expr(then_expr, false, false, out);
            walk_expr(else_expr, false, false, out);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                walk_expr(a, false, false, out);
            }
        }
        _ => {}
    }
}

/// Coefficient of `iv` in an affine index expression, or `None` when the
/// expression is not affine in the loop IVs.
pub fn affine_coeff(e: &Expr, iv: &str) -> Option<i64> {
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
                    if let Some(c) = lhs.const_int() {
                        Some(c * b)
                    } else if let Some(c) = rhs.const_int() {
                        Some(a * c)
                    } else {
                        None
                    }
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
pub fn linearized_stride(
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
pub fn array_dims(tu: &TranslationUnit) -> HashMap<String, Vec<i64>> {
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
pub fn reorder_safe(accesses: &[AstAccess]) -> bool {
    let stored: Vec<&AstAccess> = accesses.iter().filter(|a| a.is_store).collect();
    for s in &stored {
        if s.is_assoc_update {
            continue;
        }
        let same_array: Vec<&AstAccess> = accesses.iter().filter(|a| a.array == s.array).collect();
        let all_identical = same_array.iter().all(|a| {
            a.indices.len() == s.indices.len()
                && a.indices
                    .iter()
                    .zip(s.indices.iter())
                    .all(|(x, y)| exprs_equal(x, y))
        });
        if !all_identical {
            return false;
        }
        // The subscripts must also be affine, or we understand nothing.
        if s.indices.iter().any(|i| affine_coeff(i, "\0").is_none()) {
            return false;
        }
    }
    true
}

/// Renames every occurrence of identifier `from` to `to` in a subtree.
pub fn rename_ident_stmt(stmt: &mut Stmt, from: &str, to: &str) {
    match &mut stmt.kind {
        StmtKind::Block(stmts) => {
            for s in stmts {
                rename_ident_stmt(s, from, to);
            }
        }
        StmtKind::Decl { declarators, .. } => {
            for d in declarators {
                if d.name == from {
                    d.name = to.to_string();
                }
                if let Some(init) = &mut d.init {
                    rename_ident_expr(init, from, to);
                }
            }
        }
        StmtKind::Expr(e) => rename_ident_expr(e, from, to),
        StmtKind::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            if let Some(i) = init {
                rename_ident_stmt(i, from, to);
            }
            if let Some(c) = cond {
                rename_ident_expr(c, from, to);
            }
            if let Some(s) = step {
                rename_ident_expr(s, from, to);
            }
            rename_ident_stmt(body, from, to);
        }
        StmtKind::While { cond, body, .. } => {
            rename_ident_expr(cond, from, to);
            rename_ident_stmt(body, from, to);
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            rename_ident_expr(cond, from, to);
            rename_ident_stmt(then_branch, from, to);
            if let Some(e) = else_branch {
                rename_ident_stmt(e, from, to);
            }
        }
        StmtKind::Return(Some(e)) => rename_ident_expr(e, from, to),
        _ => {}
    }
}

fn rename_ident_expr(e: &mut Expr, from: &str, to: &str) {
    match &mut e.kind {
        ExprKind::Ident(n) => {
            if n == from {
                *n = to.to_string();
            }
        }
        ExprKind::Index { base, index } => {
            rename_ident_expr(base, from, to);
            rename_ident_expr(index, from, to);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                rename_ident_expr(a, from, to);
            }
        }
        ExprKind::Unary { operand, .. } | ExprKind::Cast { operand, .. } => {
            rename_ident_expr(operand, from, to)
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            rename_ident_expr(lhs, from, to);
            rename_ident_expr(rhs, from, to);
        }
        ExprKind::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            rename_ident_expr(cond, from, to);
            rename_ident_expr(then_expr, from, to);
            rename_ident_expr(else_expr, from, to);
        }
        ExprKind::Assign { target, value, .. } => {
            rename_ident_expr(target, from, to);
            rename_ident_expr(value, from, to);
        }
        ExprKind::IncDec { target, .. } => rename_ident_expr(target, from, to),
        _ => {}
    }
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
        rename_ident_stmt(&mut s, "q", "z");
        let printed = nvc_frontend::printer::print_stmt(&s, 0);
        assert!(!printed.contains('q'), "{printed}");
        assert!(printed.contains("a[z] = z * 2"));
    }
}
