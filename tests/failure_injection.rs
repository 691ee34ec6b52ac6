//! Failure injection: malformed inputs, hostile sources and degenerate
//! configurations must produce errors or graceful fallbacks — never
//! panics or silent miscompiles.

use neurovectorizer::{Compiler, NeuroVectorizer, NvConfig, VectorizeEnv};

/// Serializes the three matmul panic tests: they arm the process-global
/// injection hook and (the `k`-split twin) flip the process-global
/// kernel mode, so they must not overlap each other. Lock poisoning is
/// ignored — a failed sibling shouldn't cascade.
static MATMUL_KNOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());
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

/// A panicking worker inside the threaded matmul must propagate to the
/// caller — no hang (the pool accounts for every shard before
/// re-panicking) — and must not poison the shared arena: the half-written
/// output tensor never reaches the tape, recycled buffers are zeroed on
/// reuse, so subsequent graphs over the *same* arena compute clean bits.
#[test]
fn threaded_matmul_worker_panic_propagates_without_tearing_the_arena() {
    use nvc_nn::{kernels, Graph, ParamStore, Tensor, TensorArena};

    let _guard = MATMUL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    // 53 rows with a distinctive total: no other test in this binary
    // builds a 53-row product, so arming the hook cannot hit them.
    const ROWS: usize = 53;
    let a = Tensor::from_vec(
        ROWS,
        8,
        (0..ROWS * 8).map(|i| (i as f32 * 0.3).sin()).collect(),
    );
    let b = Tensor::from_vec(8, 6, (0..48).map(|i| (i as f32 * 0.7).cos()).collect());

    kernels::set_matmul_threads(4);
    kernels::set_matmul_grain(1);
    // The reference is the *deployed* kernel under the same knobs (a
    // clean run before arming the hook), so this test holds under both
    // kernel modes — including the `NVC_KERNEL_MODE=fast` CI leg.
    let want = a.matmul(&b);
    let store = ParamStore::new(0);
    let arena = TensorArena::new();
    kernels::inject_worker_panic(20, ROWS);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut g = Graph::with_arena(&store, &arena);
        let an = g.input(a.clone());
        let bn = g.input(b.clone());
        let _ = g.matmul(an, bn);
    }));
    kernels::clear_worker_panic();
    assert!(outcome.is_err(), "worker panic must reach the caller");

    // The arena survives: a fresh graph drawing the recycled buffers
    // computes exactly the reference bits (no torn rows resurface).
    for _ in 0..2 {
        let mut g = Graph::with_arena(&store, &arena);
        let an = g.input(a.clone());
        let bn = g.input(b.clone());
        let mm = g.matmul(an, bn);
        assert_eq!(g.value(mm), &want, "post-panic arena graph diverged");
    }
    // Restore the *configured* defaults (not a hardcoded 1) so the
    // NVC_MATMUL_THREADS CI leg keeps threading the rest of this binary.
    kernels::set_matmul_threads(kernels::default_matmul_threads());
    kernels::set_matmul_grain(kernels::DEFAULT_MATMUL_GRAIN);
}

/// The persistent worker pool's panic semantics: the payload resurfaces
/// on the caller verbatim, the poisoned output never reaches the tape,
/// and the pool is immediately reusable for clean work — for `matmul`
/// and for the fused `linear`, which runs the same driver under its own
/// op.
#[test]
fn pool_shard_panic_resurfaces_verbatim_and_the_pool_stays_usable() {
    use nvc_nn::{kernels, Graph, ParamStore, Tensor, TensorArena};

    let _guard = MATMUL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    // 59 rows: unique to this test within the binary (the hook arms on
    // the product's total row count).
    const ROWS: usize = 59;
    let a = Tensor::from_vec(
        ROWS,
        5,
        (0..ROWS * 5).map(|i| (i as f32 * 0.11).sin()).collect(),
    );
    let b = Tensor::from_vec(5, 4, (0..20).map(|i| (i as f32 * 0.9).cos()).collect());
    let bias = Tensor::from_vec(1, 4, vec![0.5, -0.25, 0.125, 2.0]);

    kernels::set_matmul_threads(4);
    kernels::set_matmul_grain(1);
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
        // Deployed-kernel reference, mode-agnostic (see the arena twin).
        let want = product(&mut Graph::with_arena(&store, &arena));
        kernels::inject_worker_panic(10, ROWS);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            product(&mut Graph::with_arena(&store, &arena));
        }));
        kernels::clear_worker_panic();
        assert!(outcome.is_err(), "{op}: worker panic must reach the caller");
        let payload = outcome.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(
            msg.contains("injected panic"),
            "{op}: panic payload must survive the handoff verbatim: {msg:?}"
        );
        // Same pool, same arena, clean bits immediately afterwards.
        let again = product(&mut Graph::with_arena(&store, &arena));
        assert_eq!(again, want, "{op}: post-panic compute diverged");
    }
    kernels::set_matmul_threads(kernels::default_matmul_threads());
    kernels::set_matmul_grain(kernels::DEFAULT_MATMUL_GRAIN);
}

/// Fast mode's `k`-split scheduler feeds reduction-dimension shards
/// through the same span driver as row sharding — so a panicking
/// `k`-shard must behave exactly like a panicking row shard: the payload
/// resurfaces on the caller verbatim and the kernels compute clean
/// values immediately afterwards.
#[test]
fn k_split_shard_panic_resurfaces_verbatim() {
    use nvc_nn::{kernels, Tensor};

    let _guard = MATMUL_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    // Tall-thin shape: 47 output rows, 96-deep reduction. With 64 funded
    // workers and the work floor pinned to 1, `k`-splitting engages
    // (funded 64 > 47 rows) and cuts 96 into 2-wide `k` windows. The
    // armed "row" 5 is interpreted as a `k` index by the split driver,
    // so the window covering k=5 panics. 47 is unique in this binary, so
    // the marker cannot trip concurrent tests.
    const M: usize = 47;
    const KD: usize = 96;
    const N: usize = 4;
    let a = Tensor::from_vec(
        M,
        KD,
        (0..M * KD).map(|i| (i as f32 * 0.13).sin()).collect(),
    );
    let b = Tensor::from_vec(
        KD,
        N,
        (0..KD * N).map(|i| (i as f32 * 0.41).cos()).collect(),
    );
    kernels::set_kernel_mode(kernels::KernelMode::Strict);
    let want = a.matmul(&b);

    kernels::set_matmul_threads(64);
    kernels::set_matmul_grain(1);
    kernels::set_kernel_mode(kernels::KernelMode::Fast);
    kernels::inject_worker_panic(5, M);
    let outcome = std::panic::catch_unwind(|| a.matmul(&b));
    kernels::clear_worker_panic();
    assert!(
        outcome.is_err(),
        "k-split shard panic must reach the caller"
    );
    let payload = outcome.unwrap_err();
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(
        msg.contains("injected panic"),
        "k-split panic payload must survive the handoff verbatim: {msg:?}"
    );
    // Clean, ε-close values immediately afterwards (ε, not bits:
    // fast mode reassociates the reduction by design).
    let got = a.matmul(&b);
    for (i, (&g, &w)) in got.data().iter().zip(want.data().iter()).enumerate() {
        assert!(
            (g - w).abs() <= 1e-4 * w.abs().max(1.0),
            "post-panic k-split value diverged (idx={i}): {g} vs {w}"
        );
    }
    kernels::set_matmul_threads(kernels::default_matmul_threads());
    kernels::set_matmul_grain(kernels::DEFAULT_MATMUL_GRAIN);
    kernels::set_kernel_mode(kernels::default_kernel_mode());
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
