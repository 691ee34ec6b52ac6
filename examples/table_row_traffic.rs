//! How many embedding-table rows does traffic touch, and what does a
//! flush of the inference forward cost once their projections are kept?
//!
//! Identifiers are alpha-renamed and literals bucketed before hashing, so
//! the vocabulary a server sees is tiny by construction. This counts it —
//! over the repository benchmark's `hub_cold` slice with the program's own
//! instruments (`embed_projected_rows_total` counts fills of fast mode's
//! projected-row memo, `embed_memo_bytes` what it holds), and over every
//! corpus in the repository by set counting — then prints the per-flush
//! kernel budget (`NVC_OPS` timers) at batch 1 and batch 8.
//!
//! ```text
//! cargo run --release --example table_row_traffic
//! ```

use std::collections::BTreeSet;

use neurovectorizer::{NeuroVectorizer, NvConfig};
use nvc_datasets::{eval, generator, mibench, polybench, suite};
use nvc_embed::{extract_loop_samples, EmbedConfig, PathSample};
use nvc_nn::KernelMode;

/// `bench/src/fixtures.rs`: the shapes `hub_cold` decides before its clock
/// starts, and the never-seen ones it then sends (each seed in its own
/// order, so the set — and every count below — is the same for all).
const COLD_WARMUP: std::ops::Range<usize> = 4_000..4_256;
const COLD_SHAPES: std::ops::Range<usize> = 4_256..13_456;

fn fixture_strings(name: &str) -> Vec<String> {
    let path = format!("{}/bench/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .lines()
        .map(|l| match nvc_serve::Json::parse(l) {
            Ok(nvc_serve::Json::Str(s)) => s,
            _ => panic!("{name}: every line is one JSON string"),
        })
        .collect()
}

/// `bench/src/synth.rs::shape_source`.
fn shape_source(body: &str) -> String {
    format!(
        "int a[4096]; int b[8192]; int c[4096]; int d[4100];\n\
         void kernel(int n, int s) {{\n    \
         for (int i = 0; i < n; i++) {{ a[i] = {body}; }}\n}}\n"
    )
}

fn samples_of(sources: impl IntoIterator<Item = String>, cfg: &EmbedConfig) -> Vec<PathSample> {
    sources
        .into_iter()
        .flat_map(|src| extract_loop_samples(&src, cfg).unwrap_or_default())
        .map(|site| site.sample)
        .collect()
}

/// Distinct `(start, path, end)` table rows over `samples`.
fn distinct_rows(samples: &[PathSample]) -> [usize; 3] {
    let mut seen: [BTreeSet<usize>; 3] = Default::default();
    for s in samples {
        seen[0].extend(&s.starts);
        seen[1].extend(&s.paths);
        seen[2].extend(&s.ends);
    }
    seen.map(|role| role.len())
}

fn main() {
    let cfg = NvConfig::paper()
        .with_seed(3)
        .with_kernel_mode(KernelMode::Fast);
    let embed = cfg.embed.clone();
    let table_rows = 2 * embed.token_buckets + embed.path_buckets;
    let shapes: Vec<String> = fixture_strings("shapes.jsonl")
        .iter()
        .map(|body| shape_source(body))
        .collect();
    let warmup = samples_of(shapes[COLD_WARMUP].to_vec(), &embed);
    let cold = samples_of(shapes[COLD_SHAPES].to_vec(), &embed);

    nvc_obs::set_ops_enabled(true);
    let nv = NeuroVectorizer::new(cfg);
    println!("hub_cold, paper-size model, fast mode, one loop per flush:");
    for (phase, samples) in [("warm-up ", &warmup), ("measured", &cold)] {
        let before = nvc_obs::embed_rows_snapshot();
        for s in samples {
            nv.trainer().predict_batch(&[s]);
        }
        let now = nvc_obs::embed_rows_snapshot();
        println!(
            "  {phase} {:5} shapes: {:8} rows looked up, {:3} multiplied (memo fills); memo holds {} B",
            samples.len(),
            now.context_rows - before.context_rows,
            now.projected_rows - before.projected_rows,
            nvc_obs::embed_memo_bytes(),
        );
    }
    let [s, p, e] = distinct_rows(&[warmup.clone(), cold.clone()].concat());
    let per_request: usize = cold
        .iter()
        .map(|one| {
            distinct_rows(std::slice::from_ref(one))
                .iter()
                .sum::<usize>()
        })
        .sum();
    println!(
        "  distinct rows: {} of {table_rows} ({s} start, {p} path, {e} end); {:.1} per request",
        s + p + e,
        per_request as f64 / cold.len() as f64
    );

    let mut everything = samples_of(shapes, &embed);
    let kernels = [
        generator::generate(1, 8_192),
        polybench::polybench(),
        mibench::mibench(),
        suite::llvm_suite(),
        eval::eval_benchmarks(),
    ]
    .concat();
    everything.extend(samples_of(kernels.into_iter().map(|k| k.source), &embed));
    everything.extend(samples_of(fixture_strings("pool.jsonl"), &embed));
    let [s, p, e] = distinct_rows(&everything);
    println!(
        "every corpus in the repository, {} loops: {} distinct rows ({s} start, {p} path, {e} end), {} B of projections",
        everything.len(),
        s + p + e,
        (s + p + e) * embed.code_dim * 4
    );

    println!(
        "kernel budget per flush over 2 000 of the never-seen shapes, memo warm (NVC_OPS timers):"
    );
    let refs: Vec<&PathSample> = cold.iter().take(2_000).collect();
    for batch in [1usize, 8] {
        nvc_obs::reset_ops();
        for flush in refs.chunks(batch) {
            nv.trainer().predict_batch(flush);
        }
        let flushes = refs.len().div_ceil(batch);
        let per_flush = |ns: u64| ns as f64 / 1_000.0 / flushes as f64;
        let ops = nvc_obs::ops_snapshot();
        let of = |name: &str| {
            ops.iter()
                .find(|o| o.op.name() == name)
                .map_or(0, |o| o.total_ns)
        };
        let (matmul, tanh) = (of("matmul"), of("tanh"));
        let rest: u64 = ops.iter().map(|o| o.total_ns).sum::<u64>() - matmul - tanh;
        println!(
            "  batch {batch}: matmul {:6.1} us, tanh {:6.1} us, every other op {:5.1} us",
            per_flush(matmul),
            per_flush(tanh),
            per_flush(rest)
        );
    }
}
