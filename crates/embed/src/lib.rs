//! code2vec-style loop embeddings.
//!
//! §3.1 of the paper: "Code is first decomposed to a collection of paths in
//! its abstract syntax tree. Then, the network simultaneously learns the
//! atomic representation of each path while learning how to aggregate a set
//! of them." The resulting fixed-length code vector (340 features in the
//! paper) is the RL agent's observation.
//!
//! This crate reimplements that pipeline natively:
//!
//! * [`paths`] — extracts leaf-to-leaf AST paths from a loop statement,
//!   with the name normalization the paper found "crucial for reducing
//!   noise" (variable names are replaced by occurrence-ordered
//!   placeholders so renamed copies of a loop embed identically);
//! * [`vocab`] — hashing-trick vocabularies for terminals and paths;
//! * [`model`] — the attention encoder: per path-context
//!   `c_i = tanh(W · [e_start; e_path; e_end])`, attention weights
//!   `α = softmax(c · a)`, code vector `v = Σ α_i c_i`, trained end-to-end
//!   through `nvc-nn`. Batches of loops run as **one segmented forward**
//!   ([`CodeEmbedder::forward_batch`]): ragged context counts become a
//!   `Segments` row partition, so a whole batch shares a single ragged
//!   attention reduce instead of a per-sample encoder loop —
//!   bitwise-identical to the per-sample spelling, values and gradients
//!   both. Consumers that need no gradients (serving, the supervised
//!   agents' labelling passes) take the tape-free
//!   [`CodeEmbedder::infer_rows`] instead: the same kernels without a
//!   tape, and in fast kernel mode each table row's share of the
//!   projection computed once per set of weights and kept.

pub mod model;
pub mod paths;
pub mod sites;
pub mod vocab;

pub use model::{CodeEmbedder, EmbedConfig, EmbedError};
pub use paths::{extract_path_contexts, normalize_terminals, PathContext};
pub use sites::{extract_loop_samples, LoopSite};
pub use vocab::{hash_token, Fnv1a, PathSample};

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_frontend::parse_statement;
    use nvc_nn::{Graph, ParamStore};

    fn sample_of(src: &str, cfg: &EmbedConfig) -> PathSample {
        PathSample::from_stmt(&parse_statement(src).expect("parse"), cfg)
    }

    #[test]
    fn end_to_end_embedding_forward() {
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(3);
        let embedder = CodeEmbedder::new(&mut store, &cfg);
        let s = sample_of("for (int i = 0; i < n; i++) { a[i] = b[i] * 2; }", &cfg);
        let mut g = Graph::new(&store);
        let code = embedder.forward(&mut g, &s);
        assert_eq!(g.value(code).shape(), (1, cfg.code_dim));
        assert!(g.value(code).data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn identical_loops_embed_identically() {
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(3);
        let embedder = CodeEmbedder::new(&mut store, &cfg);
        let s1 = sample_of("for (int i = 0; i < n; i++) { s += a[i]; }", &cfg);
        let s2 = sample_of("for (int i = 0; i < n; i++) { s += a[i]; }", &cfg);
        let mut g = Graph::new(&store);
        let c1 = embedder.forward(&mut g, &s1);
        let c2 = embedder.forward(&mut g, &s2);
        assert_eq!(g.value(c1), g.value(c2));
    }

    /// §3.2: dataset variants made "by changing the names of the
    /// parameters … crucial for reducing noise in the code embedding
    /// generator".
    #[test]
    fn renamed_loops_embed_identically() {
        let cfg = EmbedConfig::fast();
        let s1 = sample_of(
            "for (int i = 0; i < n; i++) { acc += data[i] * data[i]; }",
            &cfg,
        );
        let s2 = sample_of(
            "for (int k = 0; k < len; k++) { sum += vec[k] * vec[k]; }",
            &cfg,
        );
        assert_eq!(s1, s2, "alpha-renamed loops must produce equal samples");
    }

    #[test]
    fn different_structure_embeds_differently() {
        let cfg = EmbedConfig::fast();
        let s1 = sample_of("for (int i = 0; i < n; i++) { s += a[i]; }", &cfg);
        let s2 = sample_of(
            "for (int i = 0; i < n; i++) { a[i] = b[i] > 0 ? b[i] : 0; }",
            &cfg,
        );
        assert_ne!(s1, s2);
    }

    #[test]
    fn gradients_flow_into_embedding_tables() {
        let cfg = EmbedConfig::fast();
        let mut store = ParamStore::new(3);
        let embedder = CodeEmbedder::new(&mut store, &cfg);
        let s = sample_of("for (int i = 0; i < n; i++) { a[i] = b[i] + c[i]; }", &cfg);
        let mut g = Graph::new(&store);
        let code = embedder.forward(&mut g, &s);
        let loss = g.sum_all(code);
        g.backward(loss);
        let grads = g.param_grads();
        assert!(grads.contains_key(&embedder.token_table()));
        assert!(grads.contains_key(&embedder.path_table()));
        assert!(grads.contains_key(&embedder.context_weight()));
        assert!(grads.contains_key(&embedder.attention_vector()));
        assert!(grads[&embedder.attention_vector()].norm() > 0.0);
    }
}
