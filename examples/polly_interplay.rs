//! Scenario: where polyhedral optimization wins, loses, and composes
//! with pragma-based vectorization (§4.1 of the paper).
//!
//! Runs the PolyBench-style kernels through four compilers — plain
//! baseline, Polly-lite, pragma override, and Polly+pragma — and shows
//! the transformed gemm source.
//!
//! ```text
//! cargo run --release --example polly_interplay
//! ```

use neurovectorizer::{Compiler, LoopDecision};
use nvc_datasets::polybench::polybench;
use nvc_machine::TargetConfig;
use nvc_polly::optimize_source;
use nvc_vectorizer::VectorDecision;

fn main() {
    let target = TargetConfig::i7_8559u();
    let plain = Compiler::new(target.clone());
    let polly = Compiler::new(target.clone()).with_polly();

    // Show what the optimizer actually does to gemm.
    let gemm = polybench()
        .into_iter()
        .find(|k| k.name == "poly_gemm")
        .expect("gemm exists");
    let (optimized, report) = optimize_source(&gemm.source).expect("gemm optimizes");
    println!("--- gemm after Polly-lite ({report:?}) ---");
    for line in optimized.lines().take(14) {
        println!("{line}");
    }
    println!("…\n");

    println!(
        "{:<16}{:>12}{:>12}{:>12}{:>14}",
        "kernel", "baseline", "polly", "pragma", "polly+pragma"
    );
    for k in polybench() {
        let base = plain.run_baseline(&k).expect("compiles").total_cycles;
        let t_polly = polly.run_baseline(&k).expect("compiles").total_cycles;
        // A fixed aggressive pragma — what a human expert might write.
        let pragma = |l: &nvc_ir::LoweredLoop| {
            let _ = l;
            LoopDecision::Pragma(VectorDecision::new(8, 4))
        };
        let t_pragma = plain.run_with(&k, pragma).expect("compiles").total_cycles;
        let t_both = polly.run_with(&k, pragma).expect("compiles").total_cycles;
        println!(
            "{:<16}{:>11.2}x{:>11.2}x{:>11.2}x{:>13.2}x",
            k.name.trim_start_matches("poly_"),
            1.0,
            base / t_polly,
            base / t_pragma,
            base / t_both,
        );
    }
    println!("\nPolly wins the large matrix-matrix kernels (tiling + interchange),");
    println!("does nothing for the stencil, and composes with pragmas — the");
    println!("combination the paper reports as 2.92x on PolyBench.");
}
