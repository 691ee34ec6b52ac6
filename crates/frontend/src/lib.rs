//! A from-scratch frontend for the C subset used by the NeuroVectorizer
//! paper's loop kernels.
//!
//! The NeuroVectorizer pipeline (Haj-Ali et al., CGO 2020) consumes *source
//! text*: it extracts loops from C files, feeds the loop text to a code
//! embedding generator, and injects
//! `#pragma clang loop vectorize_width(VF) interleave_count(IF)` hints ahead
//! of the innermost loops. This crate provides everything needed for that
//! round trip:
//!
//! * [`lexer`] / `parser` — tokenize and parse the C subset (global array
//!   declarations with attributes, functions, `for`/`while`/`if`, ternaries,
//!   casts, compound assignment, multi-dimensional array indexing, simple
//!   `#define` object macros, and `#pragma clang loop` hints).
//! * [`ast`] — the abstract syntax tree with source spans.
//! * `extract` — find every loop nest, its innermost loops, and the source
//!   text the embedding generator should see.
//! * `pragma` — splice vectorization pragmas into source text without
//!   disturbing anything else.
//! * [`printer`] — render an AST back to compilable C.
//!
//! # Example
//!
//! ```
//! use nvc_frontend::{extract_loops, parse_translation_unit};
//!
//! # fn main() -> Result<(), nvc_frontend::FrontendError> {
//! let src = r#"
//! int a[1024]; int b[1024];
//! void kernel(int n) {
//!     for (int i = 0; i < n; i++) { a[i] = b[i] * 2; }
//! }
//! "#;
//! let tu = parse_translation_unit(src)?;
//! let loops = extract_loops(&tu, src);
//! assert_eq!(loops.len(), 1);
//! assert!(loops[0].is_innermost);
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub(crate) mod extract;
pub mod lexer;
pub(crate) mod parser;
pub(crate) mod pragma;
pub mod printer;

use std::error::Error;
use std::fmt;

pub use ast::{
    BinaryOp, Expr, ExprKind, Function, Item, LoopPragma, Stmt, StmtKind, TranslationUnit, Type,
    UnaryOp,
};
pub use extract::{extract_loops, for_each_loop, ExtractedLoop, LoopRef};
pub use lexer::{Lexed, Lexer, Span, Token, TokenKind};
pub use parser::Parser;
pub use pragma::{inject_pragmas, inject_pragmas_at, strip_pragmas};
pub use printer::print_translation_unit;

/// Any error produced while lexing or parsing source text.
///
/// The message is human readable and includes 1-based line/column
/// information pointing at the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendError {
    message: String,
    line: u32,
    col: u32,
}

impl FrontendError {
    pub(crate) fn new(message: impl Into<String>, line: u32, col: u32) -> Self {
        Self {
            message: message.into(),
            line,
            col,
        }
    }

    /// 1-based source line of the error.
    pub fn line(&self) -> u32 {
        self.line
    }

    /// 1-based source column of the error.
    pub fn col(&self) -> u32 {
        self.col
    }

    /// The diagnostic text without position information.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl Error for FrontendError {}

/// Parses a complete source file into a [`TranslationUnit`].
///
/// This is the main entry point of the crate. Object-like `#define` macros
/// are expanded, comments are skipped, and `#pragma clang loop` lines are
/// attached to the loop that follows them.
///
/// # Errors
///
/// Returns a [`FrontendError`] when the source does not conform to the
/// supported C subset.
pub fn parse_translation_unit(source: &str) -> Result<TranslationUnit, FrontendError> {
    let tokens = Lexer::new(source).tokenize()?;
    Parser::new(&tokens).parse_translation_unit()
}

/// Parses a single statement (typically a loop) from source text.
///
/// Useful for tests and for round-tripping extracted loop snippets.
///
/// # Errors
///
/// Returns a [`FrontendError`] when the snippet is not a valid statement.
pub fn parse_statement(source: &str) -> Result<Stmt, FrontendError> {
    let tokens = Lexer::new(source).tokenize()?;
    Parser::new(&tokens).parse_single_statement()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_includes_position() {
        let err = FrontendError::new("unexpected token", 3, 7);
        assert_eq!(err.to_string(), "3:7: unexpected token");
        assert_eq!(err.line(), 3);
        assert_eq!(err.col(), 7);
    }

    #[test]
    fn parse_paper_example1_dataset_loop() {
        // Example #1 from §3.2 of the paper.
        let src = r#"
int assign1[4096]; int assign2[4096]; int assign3[4096];
short short_a[4096]; short short_b[4096]; short short_c[4096];
void example(int N) {
    int i;
    #pragma clang loop vectorize_width(4) interleave_count(2)
    for (i = 0; i < N-1; i+=2) {
        assign1[i] = (int) short_a[i];
        assign1[i+1] = (int) short_a[i+1];
        assign2[i] = (int) short_b[i];
        assign2[i+1] = (int) short_b[i+1];
        assign3[i] = (int) short_c[i];
        assign3[i+1] = (int) short_c[i+1];
    }
}
"#;
        let tu = parse_translation_unit(src).expect("paper example must parse");
        assert_eq!(tu.functions().count(), 1);
        let loops = extract_loops(&tu, src);
        assert_eq!(loops.len(), 1);
        assert_eq!(
            loops[0].pragma,
            Some(LoopPragma {
                vectorize_width: 4,
                interleave_count: 2
            })
        );
    }

    #[test]
    fn parse_paper_example4_matmul() {
        // Example #4 from §3.2: triply nested matmul with a float reduction.
        let src = r#"
float A[128][128]; float B[128][128]; float C[128][128];
void example(int M, int L, int N, float alpha) {
    int i; int j; int k;
    for (i = 0; i < M; i++) {
        for (j = 0; j < L; j++) {
            float sum = 0;
            for (k = 0; k < N; k++) {
                sum += alpha*A[i][k] * B[k][j];
            }
            C[i][j] = sum;
        }
    }
}
"#;
        let tu = parse_translation_unit(src).expect("matmul must parse");
        let loops = extract_loops(&tu, src);
        assert_eq!(loops.len(), 3);
        assert_eq!(loops.iter().filter(|l| l.is_innermost).count(), 1);
        let inner = loops.iter().find(|l| l.is_innermost).unwrap();
        assert_eq!(inner.depth, 2);
    }

    #[test]
    fn parse_paper_example3_predicate() {
        // Example #3 from §3.2: predicated store via ternary with macro bound.
        let src = r#"
#define MAX 255
int a[8192]; int b[8192];
void example(int N) {
    int i;
    for (i=0; i<N*2; i++){
        int j = a[i];
        b[i] = (j > MAX ? MAX : 0);
    }
}
"#;
        let tu = parse_translation_unit(src).expect("predicate example must parse");
        let loops = extract_loops(&tu, src);
        assert_eq!(loops.len(), 1);
    }

    #[test]
    fn parse_paper_example5_complex_multiply() {
        // Example #5 from §3.2: strided (2*i) accesses.
        let src = r#"
float a[4096]; float b[8192]; float c[8192]; float d[4096];
void example(int N) {
    int i;
    for (i = 0; i < N/2-1; i++){
        a[i] = b[2*i+1] * c[2*i+1] - b[2*i] * c[2*i];
        d[i] = b[2*i] * c[2*i+1] + b[2*i+1] * c[2*i];
    }
}
"#;
        let tu = parse_translation_unit(src).expect("strided example must parse");
        assert_eq!(extract_loops(&tu, src).len(), 1);
    }

    #[test]
    fn parse_dot_product_motivating_kernel() {
        // The §2.1 motivating kernel, attributes included.
        let src = r#"
int vec[512] __attribute__((aligned(16)));
__attribute__((noinline))
int example1() {
    int sum = 0;
    for (int i = 0; i < 512; i++) {
        sum += vec[i]*vec[i];
    }
    return sum;
}
"#;
        let tu = parse_translation_unit(src).expect("dot product must parse");
        let f = tu.functions().next().unwrap();
        assert_eq!(f.name, "example1");
        let loops = extract_loops(&tu, src);
        assert_eq!(loops.len(), 1);
        assert!(loops[0].is_innermost);
    }
}
