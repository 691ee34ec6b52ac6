//! Compiler-front goldens: what `nvc-polly` and `nvc-ir` make of every
//! corpus, pinned as hashes.
//!
//! Every figure, training reward and served decision starts with Polly's
//! source-to-source pass and the lowering of innermost loops into
//! `LoopIr`, so a refactor of either must leave both byte for byte alone.
//! For each kernel of the fixed corpora (the LLVM-suite stand-in, the
//! Figure 7 evaluation set, PolyBench, MiBench) and of the generated corpus
//! `tests/frontend_parity.rs` samples, this test folds into one FNV-1a hash
//! per corpus:
//!
//! * Polly's output text and its `PollyReport`;
//! * the `Debug` rendering of `lower_innermost_loops` on the kernel's
//!   source, under the kernel's `ParamEnv`;
//! * the same on Polly's output.
//!
//! The constants were captured before the shared AST toolkit in
//! `nvc_frontend::ast` replaced the folders, header recognizers and walkers
//! that `nvc-ir` and `nvc-polly` each kept. A change that moves any of them
//! has changed what the compiler front does to some corpus kernel.

use nvc_datasets::{eval, generator, mibench, polybench, suite, Kernel};
use nvc_frontend::parse_translation_unit;
use nvc_ir::lower_innermost_loops;
use nvc_obs::Fnv1a;

/// `(polly text + report, lowered source, lowered Polly output)` hashes of
/// one corpus, and how many of its kernels Polly changed.
fn front_hashes(kernels: &[Kernel]) -> ([u64; 3], usize) {
    let mut h = [Fnv1a::new(); 3];
    let mut transformed = 0;
    for k in kernels {
        for hasher in &mut h {
            hasher.write(k.name.as_bytes());
        }
        let polly = nvc_polly::optimize_source(&k.source);
        h[0].write(format!("{polly:?}").as_bytes());
        let lowered = |src: &str| {
            parse_translation_unit(src).map(|tu| lower_innermost_loops(&tu, src, &k.env))
        };
        h[1].write(format!("{:?}", lowered(&k.source)).as_bytes());
        if let Ok((text, report)) = &polly {
            transformed += usize::from(!report.is_noop());
            h[2].write(format!("{:?}", lowered(text)).as_bytes());
        }
    }
    (h.map(|x| x.finish()), transformed)
}

fn assert_front(name: &str, kernels: Vec<Kernel>, expected: [u64; 3], expected_transformed: usize) {
    let (got, transformed) = front_hashes(&kernels);
    assert_eq!(
        (got, transformed),
        (expected, expected_transformed),
        "{name}: {} kernels, hashes [polly, lowered, lowered after polly] or Polly's count moved",
        kernels.len()
    );
}

#[test]
fn llvm_suite_front_is_pinned() {
    assert_front(
        "llvm_suite",
        suite::llvm_suite(),
        [
            6771547225429038079,
            3401483928224236953,
            13400167099499148400,
        ],
        0,
    );
}

#[test]
fn eval_benchmarks_front_is_pinned() {
    assert_front(
        "eval_benchmarks",
        eval::eval_benchmarks(),
        [
            3881216694591187365,
            11748366732869141407,
            18205165702192191569,
        ],
        0,
    );
}

#[test]
fn polybench_front_is_pinned() {
    assert_front(
        "polybench",
        polybench::polybench(),
        [
            5230308706544818609,
            5118610464385274724,
            17917613610104029007,
        ],
        5,
    );
}

#[test]
fn mibench_front_is_pinned() {
    assert_front(
        "mibench",
        mibench::mibench(),
        [
            11963541044132659851,
            2749237704858778435,
            10223627487433531710,
        ],
        0,
    );
}

#[test]
fn generated_front_is_pinned() {
    assert_front(
        "generated",
        generator::generate(0xA11CE, 2000),
        [
            8665189148304062444,
            771566716220939235,
            12349634642210981918,
        ],
        0,
    );
}
