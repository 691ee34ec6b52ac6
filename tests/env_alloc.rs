//! What building the training environment allocates: `VectorizeEnv::new`
//! lexes and parses each kernel once and samples each loop off that
//! translation unit (`Compiler::front_end_sampled`), so it makes fewer
//! allocator calls than the front end alone plus parsing every loop's
//! text again and sampling it — which the build did before, on top of
//! its baseline compiles.
//!
//! Its own integration-test binary, so the counting allocator
//! (`support`) sees this test's allocations and no other's.

mod support;

use neurovectorizer::{Compiler, VectorizeEnv};
use nvc_datasets::generator;
use nvc_embed::{EmbedConfig, PathSample};
use nvc_frontend::parse_statement;
use nvc_machine::TargetConfig;
use support::allocations;

#[test]
fn building_the_environment_parses_each_kernel_once() {
    let kernels = generator::generate(7, 64);
    let target = TargetConfig::i7_8559u();
    let cfg = EmbedConfig::fast();
    let compiler = Compiler::new(target.clone());
    let (front_end, _, lowered) = allocations(|| {
        kernels
            .iter()
            .flat_map(|k| compiler.front_end(k).expect("generated kernels compile"))
            .collect::<Vec<_>>()
    });
    let (reparse, _, stmts) = allocations(|| {
        lowered
            .iter()
            .map(|l| parse_statement(&l.text).expect("generated loops parse alone"))
            .collect::<Vec<_>>()
    });
    let (sample, _, _) = allocations(|| {
        stmts
            .iter()
            .map(|s| PathSample::from_stmt(s, &cfg))
            .collect::<Vec<_>>()
    });
    let (build, _, env) = allocations(|| VectorizeEnv::new(kernels, target, &cfg));
    assert_eq!(env.contexts().len(), lowered.len());
    assert!(
        build < front_end + reparse + sample,
        "building the environment allocated {build} times; the front end takes {front_end}, \
         parsing each loop's text again {reparse} and sampling it {sample}"
    );
}
