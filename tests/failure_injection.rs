//! Failure injection: malformed inputs, hostile sources and degenerate
//! configurations must produce errors or graceful fallbacks — never
//! panics or silent miscompiles.

use neurovectorizer::{Compiler, NeuroVectorizer, NvConfig, VectorizeEnv};

use nvc_datasets::Kernel;
use nvc_embed::{EmbedConfig, PathSample};
use nvc_frontend::parse_translation_unit;
use nvc_ir::ParamEnv;

#[test]
fn malformed_sources_error_cleanly() {
    // (An empty file is a valid, empty translation unit — like real C.)
    let bad = [
        "int",                               // truncated declaration
        "void f( {",                         // broken signature
        "void f() { for (;;; }",             // broken loop header
        "void f() { int x = ; }",            // missing initializer
        "int a[)];",                         // broken dimension
        "void f() { a[0] = 1; } garbage $$", // trailing junk
        "#define\nint x;",                   // nameless macro
        "void f() { /* unterminated",        // unterminated comment
        "char s = 'ab;",                     // broken char literal
    ];
    for src in bad {
        assert!(
            parse_translation_unit(src).is_err(),
            "should reject: {src:?}"
        );
    }
}

/// A character the subset has no token for is an error that names the
/// character — `é`, not the `Ã` its first UTF-8 byte reads as — at the
/// byte column it starts on; and multi-byte text anywhere else never
/// panics the byte-wise lexer.
#[test]
fn non_ascii_input_is_reported_verbatim() {
    let err = parse_translation_unit("int a;\n  é = 1;").unwrap_err();
    assert_eq!((err.line(), err.col()), (2, 3));
    assert_eq!(err.message(), "unexpected character `é`");
    let err = parse_translation_unit("int x = 1 € 2;").unwrap_err();
    assert_eq!(err.message(), "unexpected character `€`");

    for src in [
        "int x; // café\nint y; /* 日本語 */",
        "void f() { g(\"naïve \\é\"); }",
        "char c = 'é';",
        "int 変数;",
        "int v __attribute__((sección(\"ñ\")));",
        "#define π 3\nint x = π;",
    ] {
        let _ = parse_translation_unit(src);
        let _ = nvc_embed::extract_loop_samples(src, &EmbedConfig::fast());
    }
}

#[test]
fn unparseable_kernels_are_skipped_by_the_env() {
    let cfg = NvConfig::fast();
    let kernels = vec![
        Kernel::new("bad", "t", "not c at all {{{", ParamEnv::new()),
        Kernel::new(
            "good",
            "t",
            "int a[64];\nvoid f() { for (int i = 0; i < 64; i++) { a[i] = i; } }",
            ParamEnv::new(),
        ),
    ];
    let env = VectorizeEnv::new(kernels, cfg.target.clone(), &cfg.embed);
    // The bad kernel is dropped; the good loop trains fine.
    assert_eq!(env.contexts().len(), 1);
}

#[test]
fn compiler_reports_errors_not_panics() {
    let compiler = Compiler::default();
    let bad = Kernel::new("bad", "t", "%%%%", ParamEnv::new());
    assert!(compiler.run_baseline(&bad).is_err());
}

#[test]
fn zero_trip_loops_are_harmless() {
    let compiler = Compiler::default();
    let k = Kernel::new(
        "empty",
        "t",
        "int a[16];\nvoid f(int n) { for (int i = 0; i < n; i++) { a[i] = 0; } }",
        ParamEnv::new().with("n", 0),
    );
    let t = compiler.run_baseline(&k).expect("compiles");
    assert!(t.total_cycles.is_finite() && t.total_cycles > 0.0);
    // Even absurd pragmas on an empty loop stay finite.
    let t2 = compiler
        .run_with(&k, |_| {
            neurovectorizer::LoopDecision::Pragma(nvc_vectorizer::VectorDecision::new(64, 16))
        })
        .expect("compiles");
    assert!(t2.total_cycles.is_finite());
}

#[test]
fn loopless_programs_produce_no_contexts() {
    let cfg = NvConfig::fast();
    let k = Kernel::new(
        "scalar_only",
        "t",
        "int x;\nvoid f(int n) { x = n * 3 + 1; }",
        ParamEnv::new().with("n", 5),
    );
    let env = VectorizeEnv::new(vec![k], cfg.target.clone(), &cfg.embed);
    assert_eq!(env.contexts().len(), 0);
    // And the compiler still times the program (scalar work + overhead).
    let compiler = Compiler::default();
    let k2 = Kernel::new(
        "s",
        "t",
        "int x;\nvoid f(int n) { x = n; }",
        ParamEnv::new(),
    )
    .with_scalar_work(1000);
    let t = compiler.run_baseline(&k2).expect("compiles");
    assert!(t.loops.is_empty());
    assert!(t.total_cycles >= 500.0);
}

#[test]
fn inference_on_empty_and_degenerate_samples() {
    let nv = NeuroVectorizer::new(NvConfig::fast());
    // An empty path sample (degenerate loop) must still yield a valid
    // decision, not a panic.
    let empty = PathSample {
        starts: vec![],
        paths: vec![],
        ends: vec![],
    };
    let space = nvc_vectorizer::ActionSpace::for_target(&nv.config().target);
    let d = nv.decide(&empty, &space);
    assert!(d.vf >= 1 && d.if_ >= 1);
}

#[test]
fn vectorize_source_rejects_bad_input_and_preserves_good_input() {
    let nv = NeuroVectorizer::new(NvConfig::fast());
    assert!(nv.vectorize_source("definitely not C").is_err());

    // A loopless file passes through without modification.
    let src = "int x;\nvoid f(int n) { x = n; }";
    let out = nv.vectorize_source(src).expect("ok");
    assert_eq!(out, src);
}

#[test]
fn checkpoint_corruption_is_detected() {
    let mut nv = NeuroVectorizer::new(NvConfig::fast());
    let good = nv.checkpoint();
    assert!(nv.restore(&good).is_ok());
    assert!(nv.restore("garbage").is_err());
    assert!(nv.restore("").is_err());
    // Truncated checkpoint.
    let truncated: String = good.lines().take(2).collect::<Vec<_>>().join("\n");
    assert!(nv.restore(&truncated).is_err());
}

/// A panic inside a kernel must reach the caller with its payload, and
/// must not poison the shared arena: the half-written output tensor never
/// reaches the tape, recycled buffers are zeroed on reuse, so subsequent
/// graphs over the *same* arena compute clean bits — for `matmul` and for
/// the fused `linear`, which runs the same product under its own op.
#[test]
fn kernel_panic_reaches_the_caller_without_tearing_the_arena() {
    use nvc_nn::{kernels, Graph, ParamStore, Tensor, TensorArena};

    // 53 rows with a distinctive total: no other test in this binary
    // builds a 53-row product, so arming the hook cannot hit them.
    const ROWS: usize = 53;
    let a = Tensor::from_vec(
        ROWS,
        8,
        (0..ROWS * 8).map(|i| (i as f32 * 0.3).sin()).collect(),
    );
    let b = Tensor::from_vec(8, 6, (0..48).map(|i| (i as f32 * 0.7).cos()).collect());
    let bias = Tensor::from_vec(1, 6, vec![0.5, -0.25, 0.125, 2.0, -1.0, 0.0]);

    let store = ParamStore::new(0);
    let arena = TensorArena::new();
    for fused in [false, true] {
        let op = if fused { "linear" } else { "matmul" };
        let product = |g: &mut Graph<'_>| {
            let an = g.input(a.clone());
            let bn = g.input(b.clone());
            let y = if fused {
                let cn = g.input(bias.clone());
                g.linear(an, bn, cn)
            } else {
                g.matmul(an, bn)
            };
            g.value(y).clone()
        };
        // The reference is the *deployed* kernel (a clean run before
        // arming the hook), so this test holds under both kernel modes.
        let want = product(&mut Graph::with_arena(&store, &arena));
        kernels::inject_worker_panic(ROWS);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            product(&mut Graph::with_arena(&store, &arena));
        }));
        kernels::clear_worker_panic();
        let payload = outcome.expect_err("kernel panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(msg.contains("injected panic"), "{op}: payload {msg:?}");

        // The arena survives: fresh graphs drawing the recycled buffers
        // compute exactly the reference bits (no torn rows resurface).
        for _ in 0..2 {
            let again = product(&mut Graph::with_arena(&store, &arena));
            assert_eq!(again, want, "{op}: post-panic arena graph diverged");
        }
    }
}

#[test]
fn huge_requested_factors_never_escape_clamping() {
    // Whatever the caller asks for, the target caps apply.
    let cfg = EmbedConfig::fast();
    let _ = cfg;
    let compiler = Compiler::default();
    let k = Kernel::new(
        "k",
        "t",
        "float a[256]; float b[256];\nvoid f() { for (int i = 0; i < 256; i++) { a[i] = b[i]; } }",
        ParamEnv::new(),
    );
    let t = compiler
        .run_with(&k, |_| {
            neurovectorizer::LoopDecision::Pragma(nvc_vectorizer::VectorDecision::new(4096, 4096))
        })
        .expect("compiles");
    assert!(t.loops[0].decision.vf <= 64);
    assert!(t.loops[0].decision.if_ <= 16);
}
