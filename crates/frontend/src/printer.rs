//! Rendering an AST back to C source text.
//!
//! The printer produces compilable, deterministic output: the dataset
//! generator builds ASTs programmatically and prints them to obtain the
//! source text the embedding generator reads, and the pragma injector uses
//! statement printing for synthesized loops.

use std::fmt::Write as _;

use crate::ast::{
    Declarator, Expr, ExprKind, Function, GlobalVar, Item, Stmt, StmtKind, TranslationUnit,
};

/// Renders a whole translation unit as C source.
pub fn print_translation_unit(tu: &TranslationUnit) -> String {
    let mut out = String::new();
    for item in &tu.items {
        match item {
            Item::Global(g) => print_global(&mut out, g),
            Item::Function(f) => print_function(&mut out, f),
        }
    }
    out
}

/// Renders a single statement with the given starting indentation level.
pub fn print_stmt(stmt: &Stmt, indent: usize) -> String {
    let mut out = String::new();
    write_stmt(&mut out, stmt, indent);
    out
}

/// Renders a single expression.
pub fn print_expr(expr: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr, 0);
    out
}

fn print_global(out: &mut String, g: &GlobalVar) {
    let _ = write!(out, "{} {}", g.ty.c_name(), g.name);
    for d in &g.dims {
        let _ = write!(out, "[{d}]");
    }
    if let Some(a) = g.alignment {
        let _ = write!(out, " __attribute__((aligned({a})))");
    }
    if let Some(init) = &g.init {
        let _ = write!(out, " = {}", print_expr(init));
    }
    out.push_str(";\n");
}

fn print_function(out: &mut String, f: &Function) {
    for a in &f.attributes {
        let _ = writeln!(out, "__attribute__(({a}))");
    }
    let _ = write!(out, "{} {}(", f.return_ty.c_name(), f.name);
    for (i, p) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let star = if p.is_pointer { " *" } else { " " };
        let _ = write!(out, "{}{}{}", p.ty.c_name(), star, p.name);
    }
    out.push_str(") ");
    write_stmt(out, &f.body, 0);
    out.push('\n');
}

fn indent_str(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("    ");
    }
}

fn write_stmt(out: &mut String, stmt: &Stmt, indent: usize) {
    match &stmt.kind {
        StmtKind::Block(stmts) => {
            out.push_str("{\n");
            for s in stmts {
                indent_str(out, indent + 1);
                write_stmt(out, s, indent + 1);
                out.push('\n');
            }
            indent_str(out, indent);
            out.push('}');
        }
        StmtKind::Decl { ty, declarators } => {
            let _ = write!(out, "{} ", ty.c_name());
            for (i, d) in declarators.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_declarator(out, d);
            }
            out.push(';');
        }
        StmtKind::Expr(e) => {
            write_expr(out, e, 0);
            out.push(';');
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
            pragma,
        } => {
            if let Some(p) = pragma {
                let _ = write!(out, "{p}");
                out.push('\n');
                indent_str(out, indent);
            }
            out.push_str("for (");
            match init {
                Some(s) => {
                    // Declarations/expressions already end with `;`.
                    let text = print_stmt(s, 0);
                    out.push_str(text.trim_end_matches('\n'));
                }
                None => out.push(';'),
            }
            out.push(' ');
            if let Some(c) = cond {
                write_expr(out, c, 0);
            }
            out.push_str("; ");
            if let Some(s) = step {
                write_expr(out, s, 0);
            }
            out.push_str(") ");
            write_stmt(out, body, indent);
        }
        StmtKind::While { cond, body, pragma } => {
            if let Some(p) = pragma {
                let _ = write!(out, "{p}");
                out.push('\n');
                indent_str(out, indent);
            }
            out.push_str("while (");
            write_expr(out, cond, 0);
            out.push_str(") ");
            write_stmt(out, body, indent);
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            out.push_str("if (");
            write_expr(out, cond, 0);
            out.push_str(") ");
            write_stmt(out, then_branch, indent);
            if let Some(e) = else_branch {
                out.push_str(" else ");
                write_stmt(out, e, indent);
            }
        }
        StmtKind::Return(e) => {
            out.push_str("return");
            if let Some(e) = e {
                out.push(' ');
                write_expr(out, e, 0);
            }
            out.push(';');
        }
        StmtKind::Break => out.push_str("break;"),
        StmtKind::Continue => out.push_str("continue;"),
        StmtKind::Empty => out.push(';'),
    }
}

fn write_declarator(out: &mut String, d: &Declarator) {
    out.push_str(&d.name);
    for dim in &d.dims {
        match dim {
            Some(v) => {
                let _ = write!(out, "[{v}]");
            }
            None => out.push_str("[]"),
        }
    }
    if let Some(init) = &d.init {
        let _ = write!(out, " = {}", print_expr(init));
    }
}

/// Binding power of an expression for parenthesization decisions.
fn prec(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Assign { .. } => 1,
        ExprKind::Ternary { .. } => 2,
        ExprKind::Binary { op, .. } => {
            use crate::ast::BinaryOp::*;
            match op {
                LogOr => 3,
                LogAnd => 4,
                BitOr => 5,
                BitXor => 6,
                BitAnd => 7,
                Eq | Ne => 8,
                Lt | Le | Gt | Ge => 9,
                Shl | Shr => 10,
                Add | Sub => 11,
                Mul | Div | Rem => 12,
            }
        }
        ExprKind::Cast { .. } | ExprKind::Unary { .. } | ExprKind::IncDec { .. } => 13,
        _ => 14,
    }
}

fn write_child(out: &mut String, child: &Expr, min_prec: u8) {
    if prec(child) < min_prec {
        out.push('(');
        write_expr(out, child, 0);
        out.push(')');
    } else {
        write_expr(out, child, 0);
    }
}

fn write_expr(out: &mut String, e: &Expr, _depth: usize) {
    match &e.kind {
        ExprKind::IntLit(v) => {
            let _ = write!(out, "{v}");
        }
        ExprKind::FloatLit(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                let _ = write!(out, "{v:.1}");
            } else {
                let _ = write!(out, "{v}");
            }
        }
        ExprKind::Ident(s) => out.push_str(s),
        ExprKind::Index { base, index } => {
            write_child(out, base, 14);
            out.push('[');
            write_expr(out, index, 0);
            out.push(']');
        }
        ExprKind::Call { callee, args } => {
            out.push_str(callee);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a, 0);
            }
            out.push(')');
        }
        ExprKind::Unary { op, operand } => {
            out.push_str(op.symbol());
            write_child(out, operand, 13);
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let p = prec(e);
            write_child(out, lhs, p);
            let _ = write!(out, " {} ", op.symbol());
            // Right operand needs strictly higher precedence for
            // left-associative operators.
            write_child(out, rhs, p + 1);
        }
        ExprKind::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            write_child(out, cond, 3);
            out.push_str(" ? ");
            write_expr(out, then_expr, 0);
            out.push_str(" : ");
            write_expr(out, else_expr, 0);
        }
        ExprKind::Cast { ty, operand } => {
            let _ = write!(out, "({}) ", ty.c_name());
            write_child(out, operand, 13);
        }
        ExprKind::Assign { op, target, value } => {
            write_child(out, target, 14);
            match op {
                Some(op) => {
                    let _ = write!(out, " {}= ", op.symbol());
                }
                None => out.push_str(" = "),
            }
            write_child(out, value, 1);
        }
        ExprKind::IncDec {
            target,
            delta,
            prefix,
        } => {
            let sym = if *delta > 0 { "++" } else { "--" };
            if *prefix {
                out.push_str(sym);
                write_child(out, target, 14);
            } else {
                write_child(out, target, 14);
                out.push_str(sym);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_translation_unit;

    /// Print → reparse → print must be a fixpoint.
    fn roundtrip(src: &str) {
        let tu1 = parse_translation_unit(src).expect("initial parse");
        let printed1 = print_translation_unit(&tu1);
        let tu2 = parse_translation_unit(&printed1)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{printed1}"));
        let printed2 = print_translation_unit(&tu2);
        assert_eq!(printed1, printed2, "printer not a fixpoint");
    }

    #[test]
    fn roundtrip_dot_product() {
        roundtrip(
            "int vec[512] __attribute__((aligned(16)));\nint f() { int sum = 0; for (int i = 0; i < 512; i++) { sum += vec[i]*vec[i]; } return sum; }",
        );
    }

    #[test]
    fn roundtrip_matmul() {
        roundtrip(
            "float A[64][64]; float B[64][64]; float C[64][64];\nvoid f(int n, float alpha) { for (int i=0;i<n;i++) for (int j=0;j<n;j++) { float s = 0; for (int k=0;k<n;k++) { s += alpha*A[i][k]*B[k][j]; } C[i][j] = s; } }",
        );
    }

    #[test]
    fn roundtrip_predicated_ternary() {
        roundtrip(
            "int a[256]; int b[256];\nvoid f(int n) { for (int i=0;i<n;i++) { int j = a[i]; b[i] = (j > 255 ? 255 : 0); } }",
        );
    }

    #[test]
    fn roundtrip_pragma_survives() {
        let src = "int a[64]; int b[64];\nvoid f(int n) {\n#pragma clang loop vectorize_width(8) interleave_count(2)\nfor (int i=0;i<n;i++) { a[i] = b[i]; } }";
        let tu = parse_translation_unit(src).unwrap();
        let printed = print_translation_unit(&tu);
        assert!(printed.contains("#pragma clang loop vectorize_width(8) interleave_count(2)"));
        roundtrip(src);
    }

    #[test]
    fn parens_preserved_where_needed() {
        let src = "int a[64];\nvoid f(int n, int x) { for (int i=0;i<n;i++) { a[i] = (x + 1) * (x - 1); } }";
        let tu = parse_translation_unit(src).unwrap();
        let printed = print_translation_unit(&tu);
        assert!(printed.contains("(x + 1) * (x - 1)"));
        roundtrip(src);
    }

    #[test]
    fn unary_minus_binding() {
        let src = "void f(int x, int y) { x = -y + 3; x = -(y + 3); }";
        let tu = parse_translation_unit(src).unwrap();
        let printed = print_translation_unit(&tu);
        assert!(printed.contains("-y + 3"));
        assert!(printed.contains("-(y + 3)"));
        roundtrip(src);
    }

    #[test]
    fn while_and_if_else_roundtrip() {
        roundtrip(
            "void f(int n) { int i = 0; while (i < n) { if (i % 2 == 0) { i += 2; } else { i++; } } }",
        );
    }

    #[test]
    fn float_literals_stay_floats() {
        let src = "void f(float x) { x = x * 2.0 + 0.5; }";
        let tu = parse_translation_unit(src).unwrap();
        let printed = print_translation_unit(&tu);
        assert!(printed.contains("2.0"));
        assert!(printed.contains("0.5"));
        roundtrip(src);
    }

    #[test]
    fn casts_roundtrip() {
        roundtrip("short s[64]; int d[64];\nvoid f(int n) { for (int i=0;i<n;i++) { d[i] = (int) s[i]; } }");
    }
}
