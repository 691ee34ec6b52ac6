//! Criterion microbenchmarks for the core pipeline stages.
//!
//! These time the substrate itself (parse → lower → vectorize → simulate,
//! embedding, PPO step) so regressions in the reproduction's own
//! performance are visible. The *paper's* numbers are regenerated by the
//! `fig*` binaries, not here.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use neurovectorizer::{Compiler, LoopDecision};
use nvc_datasets::generator;
use nvc_embed::{
    extract_loop_samples, extract_path_contexts, CodeEmbedder, EmbedConfig, PathSample,
};
use nvc_frontend::{parse_statement, parse_translation_unit};
use nvc_ir::{lower_innermost_loops, ParamEnv};
use nvc_machine::TargetConfig;
use nvc_nn::{kernels, Graph, KernelMode, ParamStore};
use nvc_vectorizer::{VectorDecision, Vectorizer};

const DOT: &str = "int vec[512] __attribute__((aligned(16)));
int kernel() {
    int sum = 0;
    for (int i = 0; i < 512; i++) { sum += vec[i] * vec[i]; }
    return sum;
}";

const DEPTH4_SHAPE: &str = "int a[4096]; int b[8192]; int c[4096]; int d[4100];
void kernel(int n, int s) {
    for (int i = 0; i < n; i++) { a[i] = ((((b[i] + c[i]) * (d[i + 1] - 5)) | ((s & 8) ^ (b[i * 2] * 2))) - (((c[i] | 1) + (s * 100)) & ((d[i + 1] ^ b[i]) - (c[i] * 5)))); }
}
";

/// Eight fixed loop bodies in the grammar of the repo benchmark's
/// never-seen shapes (the first is [`DEPTH4_SHAPE`]'s), for the batch-8
/// inference forward.
const SHAPE_BODIES: [&str; 8] = [
    "((((b[i] + c[i]) * (d[i + 1] - 5)) | ((s & 8) ^ (b[i * 2] * 2))) - (((c[i] | 1) + (s * 100)) & ((d[i + 1] ^ b[i]) - (c[i] * 5))))",
    "(((b[i] * 2) + (c[i] & s)) ^ ((d[i + 1] | 8) - (b[i * 2] + 1)))",
    "((((c[i] - s) | (b[i] ^ 100)) * ((d[i + 1] + 2) & (c[i] * 5))) + (b[i * 2] - 1))",
    "(((d[i + 1] ^ (s + 5)) - ((b[i] | c[i]) * 8)) & (((b[i * 2] - 2) + c[i]) | (s * 1)))",
    "((b[i] & ((c[i] + 100) ^ (d[i + 1] * s))) | (((b[i * 2] - 5) * 2) + (c[i] ^ 8)))",
    "((((s | 1) - (b[i] * c[i])) + ((d[i + 1] & 2) ^ b[i * 2])) * ((c[i] - 8) | (b[i] + 100)))",
    "((c[i] * (b[i] - (d[i + 1] ^ 5))) - (((s + 2) | b[i * 2]) & ((c[i] * 100) + (b[i] ^ 1))))",
    "((((b[i * 2] + s) ^ (c[i] - 1)) | ((b[i] * 8) & d[i + 1])) + (((c[i] | 5) - (s & 2)) * (b[i] + 100)))",
];

fn bench_frontend(c: &mut Criterion) {
    c.bench_function("frontend/parse_dot_product", |b| {
        b.iter(|| parse_translation_unit(black_box(DOT)).unwrap())
    });
    let tu = parse_translation_unit(DOT).unwrap();
    let env = ParamEnv::new();
    c.bench_function("ir/lower_dot_product", |b| {
        b.iter(|| lower_innermost_loops(black_box(&tu), DOT, &env).unwrap())
    });
}

fn bench_vectorizer(c: &mut Criterion) {
    let tu = parse_translation_unit(DOT).unwrap();
    let env = ParamEnv::new();
    let ir = lower_innermost_loops(&tu, DOT, &env).unwrap()[0].ir.clone();
    let vz = Vectorizer::new(TargetConfig::i7_8559u());
    c.bench_function("vectorizer/compile_one_decision", |b| {
        b.iter(|| vz.compile(black_box(&ir), VectorDecision::new(16, 4)))
    });
    c.bench_function("vectorizer/full_35_point_grid", |b| {
        b.iter(|| {
            let t = vz.target().clone();
            let mut best = f64::INFINITY;
            for vf in t.vf_candidates() {
                for ifc in t.if_candidates() {
                    let c = vz.compile(&ir, VectorDecision::new(vf, ifc));
                    best = best.min(c.timing.cycles);
                }
            }
            best
        })
    });
}

fn bench_embedding(c: &mut Criterion) {
    let cfg = EmbedConfig::fast();
    let stmt = parse_statement("for (int i = 0; i < n; i++) { s += a[i] * b[i] + c[i]; }").unwrap();
    c.bench_function("embed/path_extraction", |b| {
        b.iter(|| extract_path_contexts(black_box(&stmt), cfg.max_paths))
    });
    // The serving hot path, source bytes → samples, on the two kinds of
    // source the repo benchmark's `hub_warm` sends: a generated pool kernel
    // and a synthesized loop whose body is a full depth-4 expression tree.
    let pool = generator::generate(2020, 1).remove(0).source;
    c.bench_function("embed/extract_loop_samples_pool_source", |b| {
        b.iter(|| extract_loop_samples(black_box(&pool), &cfg).unwrap())
    });
    c.bench_function("embed/extract_loop_samples_depth4_shape", |b| {
        b.iter(|| extract_loop_samples(black_box(DEPTH4_SHAPE), &cfg).unwrap())
    });
    let sample = PathSample::from_stmt(&stmt, &cfg);
    let mut store = ParamStore::new(1);
    let embedder = CodeEmbedder::new(&mut store, &cfg);
    c.bench_function("embed/forward_fast_config", |b| {
        b.iter(|| {
            let mut g = Graph::new(&store);
            let n = embedder.forward(&mut g, black_box(&sample));
            g.value(n).data()[0]
        })
    });

    // The tape-free inference forward at the paper's size, one shape and
    // eight, in both kernel modes: strict multiplies every context row;
    // fast reads each table row's kept projection (warm after the first
    // iteration, as a server is after its first requests) and runs the
    // polynomial tanh and the lane-split score dot.
    let paper = EmbedConfig::paper();
    let shapes: Vec<PathSample> = SHAPE_BODIES
        .iter()
        .map(|body| {
            let src = format!("for (int i = 0; i < n; i++) {{ a[i] = {body}; }}");
            PathSample::from_stmt(&parse_statement(&src).unwrap(), &paper)
        })
        .collect();
    let refs: Vec<&PathSample> = shapes.iter().collect();
    let mut paper_store = ParamStore::new(3);
    let paper_embedder = CodeEmbedder::new(&mut paper_store, &paper);
    for mode in [KernelMode::Strict, KernelMode::Fast] {
        kernels::set_kernel_mode(mode);
        for (batch, rows) in [("b1", &refs[..1]), ("b8", &refs[..])] {
            c.bench_function(&format!("embed/infer_rows_paper_{batch}_{mode}"), |b| {
                b.iter(|| paper_embedder.infer_rows(&paper_store, black_box(rows)))
            });
        }
    }
    // Fast on weights it has never seen, every iteration: what the first
    // flush after a `reload` pays — the stamp renewed, the kept rows
    // dropped, each row the batch names multiplied again.
    kernels::set_kernel_mode(KernelMode::Fast);
    for (batch, rows) in [("b1", &refs[..1]), ("b8", &refs[..])] {
        let name = format!("embed/infer_rows_paper_{batch}_fast_memo_cold");
        c.bench_function(&name, |b| {
            b.iter(|| {
                let _ = paper_store.get_mut(paper_embedder.context_weight());
                paper_embedder.infer_rows(&paper_store, black_box(rows))
            })
        });
    }
    kernels::set_kernel_mode(kernels::default_kernel_mode());
}

fn bench_compile_and_run(c: &mut Criterion) {
    let compiler = Compiler::default();
    let kernels = generator::generate(5, 16);
    c.bench_function("compiler/run_baseline_16_kernels", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for k in &kernels {
                total += compiler.run_baseline(black_box(k)).unwrap().total_cycles;
            }
            total
        })
    });
    c.bench_function("compiler/reward_roundtrip", |b| {
        let k = &kernels[0];
        b.iter(|| {
            let base = compiler.run_baseline(k).unwrap().total_cycles;
            let t = compiler
                .run_with(k, |_| LoopDecision::Pragma(VectorDecision::new(8, 2)))
                .unwrap()
                .total_cycles;
            (base - t) / base
        })
    });
}

criterion_group!(
    name = pipeline;
    config = Criterion::default().sample_size(20);
    targets = bench_frontend, bench_vectorizer, bench_embedding, bench_compile_and_run
);
criterion_main!(pipeline);
