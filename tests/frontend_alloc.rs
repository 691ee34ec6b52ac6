//! What sampling one file allocates: `extract_loop_samples` lexes and
//! parses the file once and samples each nest off the translation unit's
//! own statement, so on a source whose nest uses no macro from outside it
//! makes fewer allocator calls than parsing the file and then parsing the
//! nest's text again — which sampling did before, and which it may do now
//! only for a nest that uses a macro defined outside it.
//!
//! Its own integration-test binary, so the counting allocator
//! (`support`) sees this test's allocations and no other's.

mod support;

use nvc_embed::{extract_loop_samples, EmbedConfig};
use nvc_frontend::{extract_loops, parse_statement, parse_translation_unit};
use support::allocations;

/// The paper's §3.2 example #4: a triply nested matmul.
const MATMUL: &str = "float A[128][128]; float B[128][128]; float C[128][128];
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

#[test]
fn sampling_a_file_parses_its_nest_once() {
    let tu = parse_translation_unit(MATMUL).expect("MATMUL parses");
    let nest_text = extract_loops(&tu, MATMUL)
        .into_iter()
        .find(|l| l.is_innermost)
        .expect("one innermost loop")
        .nest_text;
    let (parse_file, _, _) = allocations(|| parse_translation_unit(MATMUL));
    let (parse_nest, _, _) = allocations(|| parse_statement(&nest_text));
    for cfg in [EmbedConfig::fast(), EmbedConfig::paper()] {
        let (sampled, _, sites) = allocations(|| extract_loop_samples(MATMUL, &cfg));
        assert_eq!(sites.expect("MATMUL parses").len(), 1);
        assert!(
            sampled < parse_file + parse_nest,
            "max_paths {}: sampling allocated {sampled} times; parsing the file takes \
             {parse_file} and parsing the nest again {parse_nest}",
            cfg.max_paths
        );
    }
}
