//! Cross-crate integration: the full paper pipeline from source text to
//! reward, through every substrate crate.

use std::sync::Arc;

use neurovectorizer::{
    Compiler, LoopDecision, NeuroVectorizer, NvConfig, ServeConfig, ServeHandle, VectorizeEnv,
};
use nvc_datasets::{generator, Kernel};
use nvc_embed::extract_loop_samples;
use nvc_frontend::{extract_loops, parse_translation_unit, strip_pragmas, LoopPragma};
use nvc_ir::ParamEnv;
use nvc_rl::BanditEnv;
use nvc_vectorizer::{ActionSpace, VectorDecision};

/// Train → predict → inject → recompile: the annotated program must be at
/// least as fast as the baseline on the training pool (the agent can
/// always fall back to baseline-equivalent decisions).
#[test]
fn trained_agent_beats_baseline_on_training_pool() {
    let cfg = NvConfig::fast().with_seed(11);
    let kernels = generator::generate(11, 32);
    let mut env = VectorizeEnv::new(kernels.clone(), cfg.target.clone(), &cfg.embed);
    let mut nv = NeuroVectorizer::new(cfg.clone());
    nv.train(&mut env, 20);

    // Average the *greedy* policy's reward across all contexts.
    let mut total = 0.0;
    for i in 0..env.contexts().len() {
        let d = nv.decide(&env.contexts()[i].sample, env.space());
        total += env.reward_of_decision(i, d);
    }
    let mean = total / env.contexts().len() as f64;
    assert!(
        mean > 0.02,
        "greedy policy should beat the baseline on its own pool: {mean:+.4}"
    );
}

/// Pragma injection round trip: annotated source recompiles and the
/// injected hints are what the compiler actually honors (modulo legality
/// clamping).
#[test]
fn injected_pragmas_drive_the_compiler() {
    let nv = NeuroVectorizer::new(NvConfig::fast());
    let src = "float xs[4096]; float ys[4096];
void f(int n) {
    for (int i = 0; i < n; i++) {
        ys[i] = xs[i] * 0.5;
    }
}";
    let annotated = nv.vectorize_source(src).expect("annotates");
    assert!(annotated.contains("#pragma clang loop"));

    // The annotated program parses; the pragma attaches to the loop.
    let tu = parse_translation_unit(&annotated).expect("reparses");
    let loops = extract_loops(&tu, &annotated);
    let pragma = loops[0].pragma.expect("pragma attached");

    // Compiling with that explicit pragma equals compiling the annotated
    // source through the decision callback.
    let compiler = Compiler::default();
    let k_plain = Kernel::new(
        "k",
        "t",
        strip_pragmas(&annotated),
        ParamEnv::new().with("n", 4096),
    );
    let via_callback = compiler
        .run_with(&k_plain, |_| {
            LoopDecision::Pragma(VectorDecision::new(
                pragma.vectorize_width,
                pragma.interleave_count,
            ))
        })
        .expect("compiles");
    let k_annotated = Kernel::new("k2", "t", annotated, ParamEnv::new().with("n", 4096));
    let lowered = compiler.front_end(&k_annotated).expect("front end");
    // Loop extraction in the IR also sees the hint (stored during parse).
    assert_eq!(lowered.len(), 1);
    assert!(via_callback.total_cycles > 0.0);
}

/// A loop whose keyword does not begin its line — siblings after a
/// function's brace, the inner loop of a one-line nest — gets its own
/// decision spliced in before its keyword, on the `nvc vectorize` path and
/// the served one alike: the annotated file parses again and every
/// innermost loop carries the pragma decided for it.
#[test]
fn loops_that_start_mid_line_get_their_own_pragmas() {
    let cfg = NvConfig::fast();
    let nv = NeuroVectorizer::new(cfg.clone());
    let space = ActionSpace::for_target(&cfg.target);
    let sources = [
        "float a[64]; float b[64];\nvoid f(int n) { for (int i = 0; i < n; i++) a[i] = 0; \
         for (int j = 0; j < n; j++) b[j] = 1; }",
        "float A[64][64];\nvoid f(int n) { int i; int j;\n    \
         for (i = 0; i < n; i++) for (j = 0; j < n; j++) A[i][j] = 0;\n}",
        "float A[64][64]; float c[64];\nvoid f(int n) { int i; int j;\n\
         for (i = 0; i < n; i++) { c[i] = 0; } for (i = 0; i < n; i++) \
         for (j = 0; j < n; j++) { A[i][j] = c[j]; }\n}",
    ];
    let decided: Vec<Vec<Option<LoopPragma>>> = sources
        .iter()
        .map(|src| {
            let sites = extract_loop_samples(src, &cfg.embed).expect("parses");
            assert!(!sites.is_empty(), "no innermost loop in:\n{src}");
            sites
                .iter()
                .map(|site| {
                    let d = nv.decide(&site.sample, &space);
                    Some(LoopPragma {
                        vectorize_width: d.vf,
                        interleave_count: d.if_,
                    })
                })
                .collect()
        })
        .collect();
    let innermost_pragmas = |annotated: &str| -> Vec<Option<LoopPragma>> {
        let tu = parse_translation_unit(annotated)
            .unwrap_or_else(|e| panic!("{e} in the annotated source:\n{annotated}"));
        extract_loops(&tu, annotated)
            .iter()
            .filter(|l| l.is_innermost)
            .map(|l| l.pragma)
            .collect()
    };
    for (src, want) in sources.iter().zip(&decided) {
        let annotated = nv.vectorize_source(src).expect("annotates");
        assert_eq!(&innermost_pragmas(&annotated), want, "in:\n{annotated}");
    }
    let served = ServeHandle::start(Arc::new(nv), ServeConfig::default());
    for (src, want) in sources.iter().zip(&decided) {
        let out = served.vectorize(src).expect("serves");
        assert_eq!(&innermost_pragmas(&out.source), want, "in:\n{}", out.source);
    }
}

/// Compile-and-run must be stable across every generator family at
/// several seeds: no panics, positive cycles, finite results.
#[test]
fn compiler_is_total_over_the_generator() {
    let compiler = Compiler::default();
    for seed in [1u64, 99, 12345] {
        for k in generator::generate(seed, 48) {
            let t = compiler
                .run_baseline(&k)
                .unwrap_or_else(|e| panic!("{} failed: {e}", k.name));
            assert!(
                t.total_cycles.is_finite() && t.total_cycles > 0.0,
                "{}",
                k.name
            );
            let s = compiler.run_scalar(&k).expect("scalar compiles");
            assert!(
                s.total_cycles >= t.total_cycles * 0.3,
                "{}: scalar absurdly fast vs baseline",
                k.name
            );
        }
    }
}

/// The environment's reward semantics: baseline decision ⇒ reward 0;
/// any decision ⇒ reward ≤ brute-force best; penalties bounded by −9.
#[test]
fn reward_semantics_hold_across_the_pool() {
    let cfg = NvConfig::fast();
    let mut env = VectorizeEnv::new(generator::generate(5, 24), cfg.target.clone(), &cfg.embed);
    let dims = env.action_dims();
    for i in 0..env.contexts().len() {
        let mut best = f64::NEG_INFINITY;
        for v in 0..dims.n_vf {
            for f in 0..dims.n_if {
                let r = env.reward(i, (v, f));
                assert!(r >= neurovectorizer::TIMEOUT_PENALTY - 1e-9);
                assert!(r <= 1.0 + 1e-9, "reward cannot exceed 1: {r}");
                best = best.max(r);
            }
        }
        assert!(best >= 0.0 - 1e-9, "brute force can always match baseline");
    }
}

/// Multi-loop programs: every innermost loop gets its own decision and
/// the per-loop reports add up.
#[test]
fn multi_loop_programs_decide_per_loop() {
    let compiler = Compiler::default();
    let k = Kernel::new(
        "multi",
        "t",
        "float a[2048]; float b[2048]; int c[2048]; int total;
void stage1(int n) {
    for (int i = 0; i < n; i++) { a[i] = b[i] * 2.0; }
}
int stage2(int n) {
    int t = 0;
    for (int i = 0; i < n; i++) { t += c[i]; }
    return t;
}",
        ParamEnv::new().with("n", 2048),
    );
    let mut seen = Vec::new();
    let t = compiler
        .run_with(&k, |l| {
            seen.push(l.function.clone());
            LoopDecision::Pragma(VectorDecision::new(8, 2))
        })
        .expect("compiles");
    assert_eq!(seen, vec!["stage1".to_string(), "stage2".to_string()]);
    assert_eq!(t.loops.len(), 2);
    let sum: f64 = t.loops.iter().map(|l| l.nest_cycles).sum();
    assert!(t.total_cycles > sum, "program time includes call overhead");
}
