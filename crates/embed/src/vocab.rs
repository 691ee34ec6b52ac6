//! Hashing-trick vocabularies.
//!
//! Instead of a dataset-dependent vocabulary file (as the original
//! code2vec ships), terminals and paths hash into fixed-size embedding
//! tables. This keeps the pipeline dataset-independent and deterministic:
//! any loop — including ones never seen during training — maps to valid
//! table rows.

use serde::{Deserialize, Serialize};

use crate::model::EmbedConfig;
use crate::paths::PathContext;

/// The one hash function behind both the vocabulary bucketing here and
/// the serving layer's decision-cache keys (`nvc-serve`), so the two can
/// never silently diverge.
pub use nvc_nn::obs::Fnv1a;

/// FNV-1a hash of a token string.
pub fn hash_token(s: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(s.as_bytes());
    h.finish()
}

/// A loop rendered as vocabulary indices, ready for the embedding network.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathSample {
    /// Start-terminal rows into the token table.
    pub starts: Vec<usize>,
    /// Path rows into the path table.
    pub paths: Vec<usize>,
    /// End-terminal rows into the token table.
    pub ends: Vec<usize>,
}

impl PathSample {
    /// Hashes extracted path contexts into table indices — the readable
    /// form's sink; `PathSample::from_stmt` (in `paths`) is the direct one.
    pub fn from_contexts(contexts: &[PathContext], cfg: &EmbedConfig) -> Self {
        let t = cfg.token_buckets as u64;
        let p = cfg.path_buckets as u64;
        PathSample {
            starts: contexts
                .iter()
                .map(|c| (hash_token(&c.start) % t) as usize)
                .collect(),
            paths: contexts
                .iter()
                .map(|c| (hash_token(&c.path) % p) as usize)
                .collect(),
            ends: contexts
                .iter()
                .map(|c| (hash_token(&c.end) % t) as usize)
                .collect(),
        }
    }

    /// Number of path contexts in the sample.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether the encoder can read this sample under `cfg`: the three
    /// index vectors are equally long and every index is inside its
    /// table.
    pub fn fits(&self, cfg: &EmbedConfig) -> bool {
        let n = self.len();
        let tokens = |xs: &[usize]| xs.iter().all(|&x| x < cfg.token_buckets);
        self.starts.len() == n
            && self.ends.len() == n
            && tokens(&self.starts)
            && tokens(&self.ends)
            && self.paths.iter().all(|&p| p < cfg.path_buckets)
    }

    /// True when the sample has no contexts (degenerate loops).
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_spreads() {
        // Regression values pin the hash function.
        assert_eq!(hash_token(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(hash_token("VAR0"), hash_token("VAR1"));
        assert_ne!(hash_token("a"), hash_token("b"));
    }

    #[test]
    fn sample_indices_within_buckets() {
        let cfg = EmbedConfig::fast();
        let ctxs = vec![
            PathContext {
                start: "VAR0".into(),
                path: "Index^ExprStmt^BlockvExprStmtvIndex".into(),
                end: "VAR1".into(),
            },
            PathContext {
                start: "*".into(),
                path: "Binary".into(),
                end: "LIT2".into(),
            },
        ];
        let s = PathSample::from_contexts(&ctxs, &cfg);
        assert_eq!(s.len(), 2);
        assert!(s.starts.iter().all(|&i| i < cfg.token_buckets));
        assert!(s.paths.iter().all(|&i| i < cfg.path_buckets));
        assert!(s.ends.iter().all(|&i| i < cfg.token_buckets));
    }

    #[test]
    fn empty_contexts_make_empty_sample() {
        let cfg = EmbedConfig::fast();
        let s = PathSample::from_contexts(&[], &cfg);
        assert!(s.is_empty());
    }
}
