//! Loop extraction: the first stage of the NeuroVectorizer pipeline.
//!
//! The paper's framework "reads the programs to extract the loops. The loop
//! texts are fed to the code embedding generator" (§3, Figure 3). Two details
//! matter and are reproduced here:
//!
//! * pragmas are injected **on the innermost loop** of a nest (§3), and
//! * the embedding input is **the body of the outermost enclosing loop**,
//!   which the authors found to work better than the innermost body alone
//!   (§3.3).

use serde::{Deserialize, Serialize};

use crate::ast::{LoopPragma, Stmt, StmtKind, TranslationUnit};
use crate::lexer::Span;

/// One loop found in a translation unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtractedLoop {
    /// Name of the enclosing function.
    pub function: String,
    /// Index of this loop in source order within the translation unit.
    pub loop_index: usize,
    /// Nesting depth: 0 for a top-level loop in the function.
    pub depth: usize,
    /// True when no other loop is nested inside this one.
    pub is_innermost: bool,
    /// Span of the whole loop statement (header + body).
    pub span: Span,
    /// Span of the outermost loop of the nest containing this loop.
    pub nest_span: Span,
    /// 1-based line of the loop header (`for`/`while` keyword) — where a
    /// pragma line would be inserted.
    pub header_line: u32,
    /// Source text of this loop.
    pub text: String,
    /// Source text of the outermost enclosing loop (the embedding input).
    pub nest_text: String,
    /// Pragma already attached to the loop, if any.
    pub pragma: Option<LoopPragma>,
}

/// One loop of a translation unit, borrowed from its AST: an
/// [`ExtractedLoop`] without the copied source text, for callers that
/// never read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopRef<'tu> {
    /// Name of the enclosing function.
    pub function: &'tu str,
    /// Nesting depth: 0 for a top-level loop in the function.
    pub(crate) depth: usize,
    /// True when no other loop is nested inside this one.
    pub is_innermost: bool,
    /// Span of the whole loop statement; `span.line` is the header line.
    pub span: Span,
    /// The outermost loop of the nest containing this loop, as the
    /// translation unit parsed it; `nest.span` is its span. The statement
    /// is what parsing the tokens of `nest.span` alone gives whenever
    /// those are the file's own tokens (`Lexed::tokens_in` borrows them).
    pub nest: &'tu Stmt,
    /// Pragma already attached to the loop, if any.
    pub(crate) pragma: Option<LoopPragma>,
}

/// Calls `visit` for every loop of `tu`, in source order.
pub fn for_each_loop<'tu>(tu: &'tu TranslationUnit, visit: &mut impl FnMut(LoopRef<'tu>)) {
    for f in tu.functions() {
        visit_loops(&f.body, &f.name, 0, None, visit);
    }
}

/// Extracts every loop from `tu`, in source order.
///
/// `source` must be the exact text `tu` was parsed from; it is used to slice
/// loop snippets.
pub fn extract_loops(tu: &TranslationUnit, source: &str) -> Vec<ExtractedLoop> {
    let mut out = Vec::new();
    for_each_loop(tu, &mut |l| out.push(with_text(l, out.len(), source)));
    out
}

fn with_text(l: LoopRef<'_>, loop_index: usize, source: &str) -> ExtractedLoop {
    ExtractedLoop {
        function: l.function.to_string(),
        loop_index,
        depth: l.depth,
        is_innermost: l.is_innermost,
        span: l.span,
        nest_span: l.nest.span,
        header_line: l.span.line,
        text: l.span.text(source).to_string(),
        nest_text: l.nest.span.text(source).to_string(),
        pragma: l.pragma,
    }
}

fn visit_loops<'tu>(
    stmt: &'tu Stmt,
    function: &'tu str,
    depth: usize,
    nest_root: Option<&'tu Stmt>,
    visit: &mut impl FnMut(LoopRef<'tu>),
) {
    match &stmt.kind {
        StmtKind::For { body, pragma, .. } | StmtKind::While { body, pragma, .. } => {
            let root = nest_root.unwrap_or(stmt);
            // `walk` visits `body` itself first, so a body that *is* a loop
            // counts as an inner loop too.
            let mut has_inner = false;
            body.walk(&mut |s| has_inner |= s.is_loop());
            visit(LoopRef {
                function,
                depth,
                is_innermost: !has_inner,
                span: stmt.span,
                nest: root,
                pragma: *pragma,
            });
            visit_loops(body, function, depth + 1, Some(root), visit);
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            // Loops under conditionals start a fresh nest for extraction
            // purposes only if we are not already inside a loop.
            visit_loops(then_branch, function, depth, nest_root, visit);
            if let Some(e) = else_branch {
                visit_loops(e, function, depth, nest_root, visit);
            }
        }
        StmtKind::Block(stmts) => {
            for s in stmts {
                visit_loops(s, function, depth, nest_root, visit);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_translation_unit;

    const MATMUL: &str = "float A[64][64]; float B[64][64]; float C[64][64];
void mm(int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            float s = 0;
            for (int k = 0; k < n; k++) {
                s += A[i][k] * B[k][j];
            }
            C[i][j] = s;
        }
    }
}";

    #[test]
    fn finds_all_loops_with_depths() {
        let tu = parse_translation_unit(MATMUL).unwrap();
        let loops = extract_loops(&tu, MATMUL);
        assert_eq!(loops.len(), 3);
        assert_eq!(loops[0].depth, 0);
        assert_eq!(loops[1].depth, 1);
        assert_eq!(loops[2].depth, 2);
    }

    #[test]
    fn innermost_flag_is_exact() {
        let tu = parse_translation_unit(MATMUL).unwrap();
        let loops = extract_loops(&tu, MATMUL);
        assert!(!loops[0].is_innermost);
        assert!(!loops[1].is_innermost);
        assert!(loops[2].is_innermost);
        assert_eq!(loops.iter().filter(|l| l.is_innermost).count(), 1);
    }

    #[test]
    fn nest_text_is_outermost_loop() {
        let tu = parse_translation_unit(MATMUL).unwrap();
        let loops = extract_loops(&tu, MATMUL);
        let inner = &loops[2];
        assert!(inner.text.starts_with("for (int k"));
        assert!(inner.nest_text.starts_with("for (int i"));
        assert_eq!(inner.nest_text, loops[0].text);
    }

    #[test]
    fn sibling_loops_are_separate_nests() {
        let src = "int a[64]; int b[64];
void f(int n) {
    for (int i = 0; i < n; i++) { a[i] = 0; }
    for (int j = 0; j < n; j++) { b[j] = 1; }
}";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        assert_eq!(loops.len(), 2);
        assert!(loops.iter().all(|l| l.is_innermost));
        assert!(loops[0].nest_text.contains("a[i]"));
        assert!(loops[1].nest_text.contains("b[j]"));
        assert_ne!(loops[0].nest_span, loops[1].nest_span);
    }

    #[test]
    fn header_line_points_at_for() {
        let src = "int a[8];\nvoid f() {\n\n    for (int i = 0; i < 8; i++) { a[i] = i; }\n}";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        assert_eq!(loops[0].header_line, 4);
    }

    #[test]
    fn loop_under_if_is_extracted() {
        let src = "int a[64];\nvoid f(int n, int flag) { if (flag) { for (int i=0;i<n;i++) { a[i] = 0; } } }";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        assert_eq!(loops.len(), 1);
        assert!(loops[0].is_innermost);
    }

    #[test]
    fn while_loops_are_extracted() {
        let src = "void f(int n) { int i = 0; while (i < n) { i++; } }";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        assert_eq!(loops.len(), 1);
    }

    #[test]
    fn loop_indices_are_sequential_across_functions() {
        let src = "int a[8];\nvoid f() { for (int i=0;i<8;i++) a[i]=0; }\nvoid g() { for (int i=0;i<8;i++) a[i]=1; }";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].loop_index, 0);
        assert_eq!(loops[1].loop_index, 1);
        assert_eq!(loops[0].function, "f");
        assert_eq!(loops[1].function, "g");
    }

    #[test]
    fn body_directly_a_loop_counts_as_nested() {
        let src =
            "int a[64];\nvoid f(int n) { for (int i=0;i<n;i++) for (int j=0;j<n;j++) a[j] = i; }";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        assert_eq!(loops.len(), 2);
        assert!(!loops[0].is_innermost);
        assert!(loops[1].is_innermost);
        assert_eq!(loops[1].nest_text, loops[0].text);
    }

    #[test]
    fn existing_pragma_is_reported() {
        let src = "int a[64]; int b[64];\nvoid f(int n) {\n#pragma clang loop vectorize_width(4) interleave_count(2)\nfor (int i=0;i<n;i++) { a[i] = b[i]; } }";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        assert_eq!(
            loops[0].pragma,
            Some(LoopPragma {
                vectorize_width: 4,
                interleave_count: 2
            })
        );
    }
}
