//! Frontend parity: the one-pass routes against the pipelines they
//! replaced, spelled here from public entry points.
//!
//! * Serving: `extract_loop_samples` (one lex and one parse, each nest
//!   read off the file's own AST, the sample hashed straight off the
//!   statement) against parsing the file, slicing each innermost loop's
//!   nest text, lexing and parsing *that text* again, rendering the path
//!   contexts as strings and hashing the strings. They must agree
//!   `LoopSite` for `LoopSite`: every index of every sample is cache-key
//!   material (`sample_key`), and persisted hub caches and the fleet
//!   `ContentStore` assume keys are stable across builds.
//! * Training and the figures: `Compiler::front_end_sampled` (the same
//!   one parse, each lowered loop paired with the sample of its own
//!   statement) against lowering and then parsing each loop's copied
//!   text again, on every corpus, plain and after Polly. The samples are
//!   the training environment's observations, so a difference moves the
//!   committed checkpoints and figures.
//!
//! The hazard both routes have to preserve is the macro rule: lexing a
//! nest's or a loop's text on its own does not see a `#define` that sits
//! outside it, so `i < N` is sampled as a variable, not as `N`'s
//! expansion. Sampling the translation unit's own, expanded statement
//! would change those keys and observations.

use std::borrow::Cow;

use neurovectorizer::{Compiler, VectorizeEnv};
use nvc_datasets::{eval, generator, mibench, polybench, suite, Kernel};
use nvc_embed::{extract_loop_samples, extract_path_contexts, EmbedConfig, LoopSite, PathSample};
use nvc_frontend::lexer::PUNCTS;
use nvc_frontend::{
    extract_loops, for_each_loop, parse_statement, parse_translation_unit, FrontendError, Lexer,
    Parser, TokenKind,
};
use nvc_ir::{LoweredLoop, ParamEnv};
use nvc_machine::TargetConfig;
use nvc_serve::sample_key;
use proptest::prelude::*;

/// The pipeline before the one-pass route, from public entry points.
fn reference(source: &str, cfg: &EmbedConfig) -> Result<Vec<LoopSite>, FrontendError> {
    let tu = parse_translation_unit(source)?;
    Ok(extract_loops(&tu, source)
        .into_iter()
        .filter(|l| l.is_innermost)
        .filter_map(|l| {
            let stmt = parse_statement(&l.nest_text).ok()?;
            Some(LoopSite {
                function: l.function,
                header_line: l.header_line,
                header_col: l.span.col,
                sample: PathSample::from_contexts(
                    &extract_path_contexts(&stmt, cfg.max_paths),
                    cfg,
                ),
            })
        })
        .collect())
}

fn assert_parity(source: &str, cfg: &EmbedConfig) {
    assert_eq!(
        extract_loop_samples(source, cfg),
        reference(source, cfg),
        "max_paths {} on:\n{source}",
        cfg.max_paths
    );
}

/// Both shipped configurations, plus `max_paths` below, at and above the
/// number of leaf pairs of the file's first nest (the subsampling
/// boundary) and at the degenerate ends.
fn assert_parity_all_configs(source: &str) {
    assert_parity(source, &EmbedConfig::fast());
    assert_parity(source, &EmbedConfig::paper());
    let pairs = parse_translation_unit(source)
        .ok()
        .and_then(|tu| {
            extract_loops(&tu, source)
                .iter()
                .filter(|l| l.is_innermost)
                .find_map(|l| parse_statement(&l.nest_text).ok())
        })
        .map_or(0, |stmt| extract_path_contexts(&stmt, usize::MAX).len());
    for max_paths in [0, 1, pairs / 3, pairs.saturating_sub(1), pairs, pairs + 1] {
        let cfg = EmbedConfig {
            max_paths,
            ..EmbedConfig::fast()
        };
        assert_parity(source, &cfg);
    }
}

#[test]
fn fixed_corpora_sample_alike() {
    let mut corpus = suite::llvm_suite();
    corpus.extend(eval::eval_benchmarks());
    corpus.extend(polybench::polybench());
    corpus.extend(mibench::mibench());
    assert!(corpus.len() >= 36, "corpus shrank: {}", corpus.len());
    let mut sites = 0;
    for k in &corpus {
        assert_parity_all_configs(&k.source);
        sites += extract_loop_samples(&k.source, &EmbedConfig::fast())
            .unwrap_or_else(|e| panic!("{}: {e}", k.name))
            .len();
    }
    assert!(sites >= corpus.len(), "corpus lost loops: {sites} sites");
}

#[test]
fn generated_sources_sample_alike() {
    for k in generator::generate(0xA11CE, 2000) {
        assert_parity(&k.source, &EmbedConfig::fast());
        assert_parity(&k.source, &EmbedConfig::paper());
    }
}

// ---------------------------------------------------------------------
// The macro rule, case by case
// ---------------------------------------------------------------------

fn keys(source: &str) -> Vec<u64> {
    assert_parity_all_configs(source);
    extract_loop_samples(source, &EmbedConfig::fast())
        .unwrap()
        .iter()
        .map(|s| sample_key(&s.sample))
        .collect()
}

#[test]
fn macro_defined_outside_a_nest_is_sampled_as_written() {
    let with_macro =
        keys("#define N 1024\nfloat a[N];\nvoid f() { for (int i = 0; i < N; i++) { a[i] = 0; } }");
    let with_variable =
        keys("float a[1024];\nvoid f(int n) { for (int i = 0; i < n; i++) { a[i] = 0; } }");
    let with_literal =
        keys("float a[1024];\nvoid f() { for (int i = 0; i < 1024; i++) { a[i] = 0; } }");
    assert_eq!(with_macro, with_variable, "`N` reads as a variable");
    assert_ne!(with_macro, with_literal, "not as its expansion");
}

#[test]
fn macro_defined_inside_a_nest_is_sampled_expanded() {
    let inside = keys(
        "float a[64];\nvoid f() { for (int i = 0; i < 64; i++) {\n#define K 64\n a[i] = K; } }",
    );
    let literal = keys("float a[64];\nvoid f() { for (int i = 0; i < 64; i++) { a[i] = 64; } }");
    assert_eq!(inside, literal);
}

#[test]
fn macro_defined_in_an_earlier_loop_is_outside_the_next() {
    let source = "float a[64]; float b[64];
void f(int n) {
    for (int i = 0; i < n; i++) {
#define SCALE 8
        a[i] = a[i] * SCALE;
    }
    for (int j = 0; j < n; j++) { b[j] = b[j] * SCALE; }
}";
    let k = keys(source);
    assert_eq!(k.len(), 2);
    // Same loop up to renaming, but the first sees `8` and the second `SCALE`.
    assert_ne!(k[0], k[1]);
}

#[test]
fn redefinition_inside_a_nest_takes_over_from_there() {
    let source = "#define W 3\nfloat a[64];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = W;
#define W 100000
        a[i] += W;
    }
}";
    let same = "float a[64];
void f(int n, int w) {
    for (int i = 0; i < n; i++) {
        a[i] = w;
        a[i] += 100000;
    }
}";
    assert_eq!(keys(source), keys(same));
}

#[test]
fn multi_token_and_empty_macros_follow_the_rule() {
    // Outside: `LIM` is one identifier, however many tokens it expands to.
    assert_eq!(
        keys("#define LIM (n - 1)\nint a[64];\nvoid f(int n) { for (int i = 0; i < LIM; i++) a[i] = i; }"),
        keys("int a[64];\nvoid f(int n, int lim) { for (int i = 0; i < lim; i++) a[i] = i; }"),
    );
    // An empty macro from outside leaves an identifier where the expanded
    // stream has nothing, so the nest does not parse alone: skipped.
    assert_eq!(
        keys("#define NOTHING\nint a[64];\nvoid f(int n) { for (int i = 0; i < n; i++) { NOTHING a[i] = i; } }"),
        Vec::<u64>::new(),
    );
    // Defined inside, it vanishes on both routes.
    assert_eq!(
        keys("int a[64];\nvoid f(int n) { for (int i = 0; i < n; i++) {\n#define NOTHING\n NOTHING a[i] = i; } }"),
        keys("int a[64];\nvoid f(int n) { for (int i = 0; i < n; i++) { a[i] = i; } }"),
    );
}

#[test]
fn nests_that_do_not_parse_alone_are_skipped() {
    // The file parses (`LOOP` expands to `for`); the nest text `LOOP (…) …`
    // does not. The sibling loop is still sampled.
    let source = "#define LOOP for\nint a[64]; int b[64];
void f(int n) {
    LOOP (int i = 0; i < n; i++) { a[i] = 0; }
    for (int j = 0; j < n; j++) { b[j] = 1; }
}";
    let sites = extract_loop_samples(source, &EmbedConfig::fast()).unwrap();
    assert_eq!(sites.len(), 1);
    assert_eq!(sites[0].header_line, 5);
    assert_parity_all_configs(source);
}

/// `Lexed::tokens_in` states the rule at the token level: the tokens of
/// a span are what lexing the span's text alone gives.
fn assert_nest_tokens_match_relexing(source: &str) -> (usize, usize) {
    let Ok(lexed) = Lexer::new(source).lex() else {
        return (0, 0);
    };
    let Ok(tu) = parse_translation_unit(source) else {
        return (0, 0);
    };
    let (mut spliced, mut inner_defines) = (0, 0);
    for l in extract_loops(&tu, source) {
        for span in [l.span, l.nest_span] {
            let from_stream = lexed.tokens_in(span);
            let relexed = Lexer::new(span.text(source)).tokenize();
            let Ok(mut relexed) = relexed else {
                panic!(
                    "a span of a file that lexes must lex:\n{}",
                    span.text(source)
                );
            };
            relexed.pop(); // Eof
            let kinds = |ts: &[nvc_frontend::Token<'_>]| -> Vec<String> {
                ts.iter().map(|t| format!("{:?}", t.kind)).collect()
            };
            assert_eq!(kinds(&from_stream), kinds(&relexed), "on:\n{source}");
            if l.is_innermost && span == l.nest_span {
                spliced += usize::from(matches!(from_stream, Cow::Owned(_)));
                inner_defines += usize::from(l.nest_text.contains("#define"));
            }
        }
    }
    (spliced, inner_defines)
}

// ---------------------------------------------------------------------
// A seeded grammar of hostile-but-plausible sources
// ---------------------------------------------------------------------

/// What a generated macro stands for, which decides where it is used.
#[derive(Clone, Copy, PartialEq)]
enum MacroKind {
    /// An operand: `1024`, `(n - 1)`.
    Value,
    /// A statement without its `;`, used as `NAME;`.
    Statement,
    /// A whole statement, `;` included, used bare.
    FullStatement,
    /// Nothing at all, used in front of a statement.
    Empty,
    /// `for`.
    LoopKeyword,
    /// `int`.
    TypeKeyword,
    /// `{`.
    OpenBrace,
}

const MACROS: &[(MacroKind, &[&str], &[&str])] = &[
    (
        MacroKind::Value,
        &["N", "LIM", "K2"],
        &[
            "1024",
            "255",
            "(n - 1)",
            "2 * n + 1",
            "n",
            "8",
            "0x10",
            "1.5f",
            "s",
        ],
    ),
    (
        MacroKind::Statement,
        &["STEP", "BODY"],
        &[
            "a[i] = b[i] + 1",
            "s += c[i]",
            "i++",
            "d[i] = a[i] > 0 ? a[i] : 0",
        ],
    ),
    (
        MacroKind::FullStatement,
        &["DOIT"],
        &["a[i] = 0;", "s = s + 1; c[i] = s;"],
    ),
    (MacroKind::Empty, &["NOTHING", "RESTRICT"], &[""]),
    (MacroKind::LoopKeyword, &["LOOP"], &["for"]),
    (MacroKind::TypeKeyword, &["TY"], &["int", "float"]),
    (MacroKind::OpenBrace, &["OPEN"], &["{"]),
];

struct Gen {
    rng: TestRng,
    out: String,
    /// `(kind, name)` of every macro defined so far, in definition order.
    defined: Vec<(MacroKind, &'static str)>,
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Whitespace and comments, in every position between two tokens.
    fn trivia(&mut self) {
        match self.below(16) {
            0 => self.out.push_str(" /* c */ "),
            1 => self.out.push_str(" // c\n"),
            2 => self.out.push_str("\n    "),
            3 => self.out.push_str("/**/"),
            4 => self.out.push('\t'),
            5 => self.out.push_str(" /* multi\n line */"),
            _ => self.out.push(' '),
        }
    }

    fn tok(&mut self, token: &str) {
        self.trivia();
        self.out.push_str(token);
    }

    fn toks(&mut self, tokens: &[&str]) {
        for t in tokens {
            self.tok(t);
        }
    }

    fn macro_of(&mut self, kind: MacroKind) -> Option<&'static str> {
        let names: Vec<_> = self
            .defined
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, n)| *n)
            .collect();
        (!names.is_empty()).then(|| self.pick(&names))
    }

    /// `plain`, or one time in `n` a macro of `kind` standing for it.
    fn keyword(&mut self, kind: MacroKind, plain: &'static str, n: usize) -> &'static str {
        match self.macro_of(kind) {
            Some(name) if self.one_in(n) => name,
            _ => plain,
        }
    }

    /// A `#define` line (directives own their line).
    fn define(&mut self) {
        let (kind, names, bodies) = self.pick(MACROS);
        let (name, body) = (self.pick(names), self.pick(bodies));
        let comment = if self.one_in(6) { " // why" } else { "" };
        self.out
            .push_str(&format!("\n#define {name} {body}{comment}\n"));
        self.defined.push((kind, name));
    }

    fn operand(&mut self, depth: usize) {
        if self.one_in(4) {
            if let Some(name) = self.macro_of(MacroKind::Value) {
                return self.tok(name);
            }
        }
        match self.below(12) {
            0 => self.toks(&["a", "[", "i", "]"]),
            1 => self.toks(&["b", "[", "i", "+", "1", "]"]),
            2 => self.toks(&["m", "[", "i", "]", "[", "j", "]"]),
            3 => {
                let literal = self.pick(&["0", "1", "2", "5", "64", "100", "4096", "1.5f", "'x'"]);
                self.tok(literal);
            }
            4 => self.tok("n"),
            5 => self.tok("s"),
            6 => {
                let var = self.pick(&["i", "j", "k"]);
                self.tok(var);
            }
            7 if depth < 3 => {
                self.toks(&["sqrtf", "("]);
                self.expr(depth + 1);
                self.tok(")");
            }
            8 if depth < 3 => {
                self.toks(&["(", "int", ")"]);
                self.operand(depth + 1);
            }
            9 if depth < 3 => {
                let op = self.pick(&["-", "!", "~"]);
                self.tok(op);
                self.operand(depth + 1);
            }
            10 => self.toks(&["c", "[", "2", "*", "i", "]"]),
            _ => self.toks(&["d", "[", "k", "]"]),
        }
    }

    fn expr(&mut self, depth: usize) {
        if depth >= 3 || self.one_in(3) {
            return self.operand(depth);
        }
        match self.below(8) {
            0 => {
                self.tok("(");
                self.expr(depth + 1);
                self.tok(")");
            }
            1 => {
                self.expr(depth + 1);
                self.tok("?");
                self.expr(depth + 1);
                self.tok(":");
                self.expr(depth + 1);
            }
            _ => {
                self.expr(depth + 1);
                let op = self.pick(&[
                    "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "<", "<=", ">", ">=", "==",
                    "!=", "&&", "||",
                ]);
                self.tok(op);
                self.expr(depth + 1);
            }
        }
    }

    fn lvalue(&mut self) {
        match self.below(4) {
            0 => self.tok("s"),
            1 => self.toks(&["m", "[", "i", "]", "[", "j", "]"]),
            2 => self.toks(&["b", "[", "j", "]"]),
            _ => self.toks(&["a", "[", "i", "]"]),
        }
    }

    fn pragma(&mut self) {
        let (vf, interleave) = (1 << self.below(5), 1 << self.below(3));
        self.out.push_str(&format!(
            "\n#pragma clang loop vectorize_width({vf}) interleave_count({interleave})\n"
        ));
    }

    fn loop_stmt(&mut self, nesting: usize) {
        if self.one_in(5) {
            self.pragma();
        }
        let var = ["i", "j", "k", "i"][nesting.min(3)];
        if self.one_in(4) {
            self.toks(&["while", "(", var, "<"]);
            self.expr(2);
            self.tok(")");
        } else {
            let keyword = self.keyword(MacroKind::LoopKeyword, "for", 3);
            self.toks(&[keyword, "("]);
            match self.below(4) {
                0 => {}
                1 => self.toks(&[var, "=", "0"]),
                _ => {
                    let ty = self.keyword(MacroKind::TypeKeyword, "int", 3);
                    self.toks(&[ty, var, "=", "0"]);
                }
            }
            self.toks(&[";", var, "<"]);
            self.expr(2);
            self.tok(";");
            match self.below(4) {
                0 => self.toks(&[var, "+=", "2"]),
                1 => self.toks(&["++", var]),
                _ => self.toks(&[var, "++"]),
            }
            self.tok(")");
        }
        // The body: a block, a bare statement, or directly another loop.
        match self.below(5) {
            0 if nesting < 3 => self.loop_stmt(nesting + 1),
            1 => self.stmt(nesting + 1, true),
            _ => self.block(nesting + 1, true),
        }
    }

    fn block(&mut self, nesting: usize, in_loop: bool) {
        let open = self.keyword(MacroKind::OpenBrace, "{", 4);
        self.tok(open);
        for _ in 0..1 + self.below(3) {
            self.stmt(nesting, in_loop);
        }
        self.tok("}");
    }

    fn stmt(&mut self, nesting: usize, in_loop: bool) {
        if self.one_in(8) {
            if let Some(name) = self.macro_of(MacroKind::Empty) {
                self.tok(name);
            }
        }
        match self.below(18) {
            0 | 1 if nesting < 4 => self.loop_stmt(nesting),
            2 if nesting < 4 => {
                // Loops under `if` / `else`, braced or bare.
                self.toks(&["if", "("]);
                self.expr(2);
                self.tok(")");
                if self.one_in(2) {
                    self.loop_stmt(nesting);
                } else {
                    self.block(nesting, in_loop);
                }
                if self.one_in(2) {
                    self.tok("else");
                    if self.one_in(2) {
                        self.loop_stmt(nesting);
                    } else {
                        self.stmt(nesting, in_loop);
                    }
                }
            }
            3 => self.define(),
            4 => match self.macro_of(MacroKind::Statement) {
                Some(name) => self.toks(&[name, ";"]),
                None => self.tok(";"),
            },
            5 => match self.macro_of(MacroKind::FullStatement) {
                Some(name) => self.tok(name),
                None => self.toks(&["s", "++", ";"]),
            },
            6 => {
                let ty = self.pick(&["int", "float", "unsigned char", "long"]);
                self.toks(&[ty, "t", "="]);
                self.expr(1);
                self.toks(&[",", "u", ";"]);
            }
            7 if in_loop => {
                let jump = self.pick(&["break", "continue"]);
                self.toks(&[jump, ";"]);
            }
            8 => self.block(nesting, in_loop),
            9 => {
                self.toks(&["g", "("]);
                self.expr(1);
                self.toks(&[",", "n", ")", ";"]);
            }
            _ => {
                self.lvalue();
                let op = self.pick(&["=", "=", "+=", "-=", "*=", "<<=", "|="]);
                self.tok(op);
                self.expr(0);
                self.tok(";");
            }
        }
    }

    fn function(&mut self, name: &str) {
        self.toks(&["void", name, "(", "int", "n", ",", "float", "s", ")", "{"]);
        self.toks(&[
            "int", "i", ";", "int", "j", "=", "0", ",", "k", "=", "0", ";",
        ]);
        for _ in 0..self.below(3) {
            self.stmt(0, false);
        }
        self.loop_stmt(0);
        for _ in 0..self.below(3) {
            self.stmt(0, false);
        }
        self.tok("}");
    }

    fn source(seed: u64) -> String {
        let mut g = Gen {
            rng: TestRng::for_test(&format!("frontend-parity-{seed}")),
            out: String::new(),
            defined: Vec::new(),
        };
        for _ in 0..g.below(3) {
            g.define();
        }
        g.out.push_str(
            "float a[4096] __attribute__((aligned(64)));\n\
             float b[4100]; int c[8192] __attribute__((aligned(16))); float d[64];\n\
             __attribute__((aligned(32))) float m[64][64];\n",
        );
        if g.one_in(2) {
            g.define();
        }
        g.function("first");
        if g.one_in(2) {
            if g.one_in(2) {
                g.define();
            }
            g.function("second");
        }
        g.out.push('\n');
        g.out
    }
}

#[test]
fn random_programs_sample_alike() {
    const CASES: u64 = 600;
    let (mut parsed, mut sites, mut skipped) = (0, 0, 0);
    let (mut spliced, mut inner_defines, mut pragmas, mut whiles, mut deep) = (0, 0, 0, 0, 0);
    for seed in 0..CASES {
        let source = Gen::source(seed);
        assert_parity_all_configs(&source);
        let (s, d) = assert_nest_tokens_match_relexing(&source);
        spliced += s;
        inner_defines += d;
        let Ok(tu) = parse_translation_unit(&source) else {
            continue;
        };
        parsed += 1;
        let loops = extract_loops(&tu, &source);
        let found = extract_loop_samples(&source, &EmbedConfig::fast())
            .unwrap()
            .len();
        sites += found;
        skipped += loops.iter().filter(|l| l.is_innermost).count() - found;
        pragmas += loops.iter().filter(|l| l.pragma.is_some()).count();
        whiles += loops.iter().filter(|l| l.text.starts_with("while")).count();
        deep += loops.iter().filter(|l| l.depth >= 2).count();
    }
    // The grammar is only worth its cases while it reaches the hazards.
    let seen = format!(
        "parsed {parsed}/{CASES}, sites {sites}, skipped {skipped}, spliced {spliced}, \
         inner defines {inner_defines}, pragmas {pragmas}, whiles {whiles}, depth>=2 {deep}"
    );
    assert!(parsed * 2 >= CASES, "{seen}");
    assert!(sites >= 600, "{seen}");
    assert!(skipped >= 50, "{seen}");
    assert!(spliced >= 100, "{seen}");
    assert!(inner_defines >= 50, "{seen}");
    assert!(pragmas >= 50 && whiles >= 50 && deep >= 50, "{seen}");
}

// ---------------------------------------------------------------------
// The training environment's loops: one parse, each loop paired
// ---------------------------------------------------------------------

/// The route `Compiler::front_end_sampled` replaced: lower, then parse
/// each loop's copied text again and sample that statement.
fn reparsed(l: &LoweredLoop, cfg: &EmbedConfig) -> Option<PathSample> {
    let stmt = parse_statement(&l.text).ok()?;
    Some(PathSample::from_stmt(&stmt, cfg))
}

/// Holds every loop's paired sample to [`reparsed`] under both shipped
/// configurations, and the paired loops to `front_end`'s. Returns the
/// loops and how many of them have no sample, or `None` when the front
/// end rejects the kernel.
fn assert_paired_like_reparsed(compiler: &Compiler, kernel: &Kernel) -> Option<(usize, usize)> {
    let lowered = compiler.front_end(kernel).ok()?;
    let mut unsampled = 0;
    for cfg in [EmbedConfig::fast(), EmbedConfig::paper()] {
        let paired = compiler
            .front_end_sampled(kernel, &cfg)
            .expect("front_end accepted the kernel");
        assert_eq!(paired.len(), lowered.len(), "{}", kernel.name);
        unsampled = 0;
        for ((l, sample), plain) in paired.iter().zip(&lowered) {
            assert_eq!(l, plain, "{}: lowered alike", kernel.name);
            assert_eq!(
                *sample,
                reparsed(l, &cfg),
                "{}: loop {} at line {}, max_paths {}:\n{}",
                kernel.name,
                l.loop_index,
                l.header_line,
                cfg.max_paths,
                l.text
            );
            unsampled += usize::from(sample.is_none());
        }
    }
    Some((lowered.len(), unsampled))
}

fn kernel(source: &str) -> Kernel {
    Kernel::new("k", "parity", source, ParamEnv::new())
}

/// The plain compiler and the one that runs Polly first.
fn compilers() -> [Compiler; 2] {
    let plain = Compiler::new(TargetConfig::i7_8559u());
    [plain.clone(), plain.with_polly()]
}

#[test]
fn fixed_corpora_pair_each_loop_with_its_reparsed_sample() {
    let mut corpus = suite::llvm_suite();
    corpus.extend(eval::eval_benchmarks());
    corpus.extend(polybench::polybench());
    corpus.extend(mibench::mibench());
    for compiler in compilers() {
        let mut loops = 0;
        for k in &corpus {
            let (n, unsampled) = assert_paired_like_reparsed(&compiler, k)
                .unwrap_or_else(|| panic!("{}: the front end rejects it", k.name));
            assert_eq!(unsampled, 0, "{}: every loop parses alone", k.name);
            loops += n;
        }
        assert!(loops >= corpus.len(), "corpus lost loops: {loops}");
    }
}

#[test]
fn generated_kernels_pair_each_loop_with_its_reparsed_sample() {
    let kernels = generator::generate(0xA11CE, 2000);
    for compiler in compilers() {
        let mut loops = 0;
        for k in &kernels {
            let (n, _) = assert_paired_like_reparsed(&compiler, k)
                .unwrap_or_else(|| panic!("{}: the front end rejects it", k.name));
            loops += n;
        }
        assert!(loops >= kernels.len(), "generator lost loops: {loops}");
    }
}

#[test]
fn a_loop_reads_a_macro_defined_before_it_as_written() {
    let [plain, _] = compilers();
    let sample = |source: &str| {
        let k = kernel(source);
        assert_eq!(assert_paired_like_reparsed(&plain, &k), Some((1, 0)));
        let paired = plain.front_end_sampled(&k, &EmbedConfig::fast()).unwrap();
        paired.into_iter().next().unwrap().1.unwrap()
    };
    // Defined before the function: `N` reads as a variable.
    let with_macro = sample(
        "#define N 1024\nfloat a[N];\nvoid f() { for (int i = 0; i < N; i++) { a[i] = 0; } }",
    );
    let with_variable =
        sample("float a[1024];\nvoid f(int n) { for (int i = 0; i < n; i++) { a[i] = 0; } }");
    let with_literal =
        sample("float a[1024];\nvoid f() { for (int i = 0; i < 1024; i++) { a[i] = 0; } }");
    assert_eq!(with_macro, with_variable);
    assert_ne!(with_macro, with_literal);
    // Defined inside the nest but before the loop: outside the loop, so
    // the loop reads it as written where serving's nest reads it expanded.
    let inner = "float a[64]; float m[64][64];
void f(int n) {
    for (int i = 0; i < n; i++) {
#define K 8
        for (int j = 0; j < n; j++) { m[i][j] = K; }
    }
}";
    let inner_as_written = "float a[64]; float m[64][64];
void f(int n, int k) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) { m[i][j] = k; }
    }
}";
    assert_eq!(sample(inner), sample(inner_as_written));
}

#[test]
fn a_loop_that_does_not_parse_alone_is_lowered_but_not_sampled() {
    // The file parses (`LOOP` expands to `for`); the loop text `LOOP (…) …`
    // does not. Both routes skip it, and the environment drops it.
    let source = "#define LOOP for\nint a[64]; int b[64];
void f(int n) {
    LOOP (int i = 0; i < n; i++) { a[i] = 0; }
    for (int j = 0; j < n; j++) { b[j] = 1; }
}";
    let [plain, _] = compilers();
    assert_eq!(
        assert_paired_like_reparsed(&plain, &kernel(source)),
        Some((2, 1))
    );
    let paired = plain
        .front_end_sampled(&kernel(source), &EmbedConfig::fast())
        .unwrap();
    assert!(paired[0].1.is_none() && paired[1].1.is_some());
    let env = VectorizeEnv::new(
        vec![kernel(source)],
        TargetConfig::i7_8559u(),
        &EmbedConfig::fast(),
    );
    assert_eq!(env.contexts().len(), 1);
    assert_eq!(
        env.contexts()[0].sample.as_ref(),
        paired[1].1.as_ref().unwrap()
    );
}

#[test]
fn random_programs_pair_each_loop_with_its_reparsed_sample() {
    const CASES: u64 = 600;
    let (mut lowered, mut loops, mut unsampled, mut spliced) = (0, 0, 0, 0);
    for seed in 0..CASES {
        let source = Gen::source(seed);
        for compiler in compilers() {
            let Some((n, u)) = assert_paired_like_reparsed(&compiler, &kernel(&source)) else {
                continue;
            };
            lowered += 1;
            loops += n;
            unsampled += u;
        }
        // Loops that use a macro defined before them: the paired route
        // parses their splice again, the rest are read off the file's AST.
        let Ok(lexed) = Lexer::new(&source).lex() else {
            continue;
        };
        let Ok(tu) = Parser::new(lexed.tokens()).parse_translation_unit() else {
            continue;
        };
        for_each_loop(&tu, &mut |l| {
            spliced += usize::from(
                l.is_innermost && matches!(lexed.tokens_in(l.stmt.span), Cow::Owned(_)),
            );
        });
    }
    let seen = format!(
        "lowered {lowered} of {CASES} sources × 2 compilers, loops {loops}, \
         unsampled {unsampled}, spliced {spliced}"
    );
    assert!(lowered >= CASES as usize, "{seen}");
    assert!(loops >= 600, "{seen}");
    assert!(unsampled >= 50, "{seen}");
    assert!(spliced >= 100, "{seen}");
}

// ---------------------------------------------------------------------
// Punctuation: the byte dispatch against the table
// ---------------------------------------------------------------------

#[test]
fn punct_table_is_the_46_tokens_longest_first() {
    assert_eq!(PUNCTS.len(), 46);
    for (i, p) in PUNCTS.iter().enumerate() {
        assert!(
            PUNCTS[..i].iter().all(|earlier| !p.starts_with(earlier)),
            "`{p}` is shadowed by an earlier entry"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random runs of punctuation characters lex to what first-match over
    /// `PUNCTS` gives: kinds, byte spans, lines and columns.
    #[test]
    fn punctuation_runs_lex_by_the_table(seed in 0u64..u64::MAX, len in 1usize..40) {
        const ALPHABET: &[u8] = b"<>=!&|+-*/%^~?:;,.()[]{}";
        let mut rng = TestRng::for_test(&format!("punct-{seed}"));
        let mut run = String::new();
        for _ in 0..len {
            let c = match rng.next_u64() % 12 {
                0 => ' ',
                1 => '\n',
                r => ALPHABET[((rng.next_u64() ^ r) % ALPHABET.len() as u64) as usize] as char,
            };
            // `//` and `/*` would open a comment.
            if run.ends_with('/') && (c == '/' || c == '*') {
                run.push(' ');
            }
            run.push(c);
        }

        let mut expected = Vec::new();
        let (mut pos, mut line, mut col) = (0usize, 1u32, 1u32);
        while pos < run.len() {
            let rest = &run[pos..];
            if rest.starts_with('\n') {
                (pos, line, col) = (pos + 1, line + 1, 1);
            } else if rest.starts_with(' ') {
                (pos, col) = (pos + 1, col + 1);
            } else {
                let p = PUNCTS.iter().find(|p| rest.starts_with(**p)).expect("alphabet is punctuation");
                expected.push((*p, pos, pos + p.len(), line, col));
                (pos, col) = (pos + p.len(), col + p.len() as u32);
            }
        }

        let tokens = Lexer::new(&run).tokenize().unwrap();
        let (eof, tokens) = tokens.split_last().unwrap();
        prop_assert_eq!(eof.kind, TokenKind::Eof);
        prop_assert_eq!((eof.span.start, eof.span.line, eof.span.col), (pos, line, col));
        let lexed: Vec<_> = tokens
            .iter()
            .map(|t| match t.kind {
                TokenKind::Punct(p) => (p, t.span.start, t.span.end, t.span.line, t.span.col),
                other => panic!("not punctuation: {other:?}"),
            })
            .collect();
        prop_assert_eq!(lexed, expected, "on {:?}", run);
    }
}

// ---------------------------------------------------------------------
// Golden keys
// ---------------------------------------------------------------------

/// Three `sample_key`s, fixed. A change here invalidates every persisted
/// hub cache and fleet `ContentStore` entry in the field: it is a format
/// change, not a refactor.
#[test]
fn sample_keys_are_stable_across_builds() {
    let dot = "int vec[512] __attribute__((aligned(16)));
__attribute__((noinline))
int example1() {
    int sum = 0;
    for (int i = 0; i < 512; i++) {
        sum += vec[i]*vec[i];
    }
    return sum;
}";
    let matmul = "float A[128][128]; float B[128][128]; float C[128][128];
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
}";
    let predicate = "#define MAX 255
int a[8192]; int b[8192];
void example(int N) {
    int i;
    for (i=0; i<N*2; i++){
        int j = a[i];
        b[i] = (j > MAX ? MAX : 0);
    }
}";
    let key = |source: &str, cfg: &EmbedConfig| {
        let sites = extract_loop_samples(source, cfg).unwrap();
        assert_eq!(sites.len(), 1);
        sample_key(&sites[0].sample)
    };
    assert_eq!(key(dot, &EmbedConfig::fast()), 0x1584_1d7a_e38f_e428);
    assert_eq!(key(matmul, &EmbedConfig::paper()), 0xbcac_2250_c086_f78b);
    assert_eq!(key(predicate, &EmbedConfig::fast()), 0xcde8_2c78_ca63_4af2);
}
