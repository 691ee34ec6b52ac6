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
pub(crate) fn hash_token(s: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(s.as_bytes());
    h.finish()
}

/// `h`'s row in a table of `buckets` rows.
///
/// # Panics
///
/// Panics when the table has more than 2³² rows, which a `u32` index
/// cannot name.
pub(crate) fn bucket(h: u64, buckets: usize) -> u32 {
    u32::try_from(h % buckets as u64).expect("embedding table over 2^32 rows")
}

/// A loop rendered as vocabulary indices, ready for the embedding network.
///
/// The indices are `u32`: the tables have thousands of rows (2 048 and
/// 4 096 at [`EmbedConfig::paper`]), and a served sample is held in the
/// miss queue and the warm set, so a 64-bit index would double the 12
/// bytes a context costs there for no row it could name. Every index is
/// widened back to `u64` where it is hashed (the serving cache's
/// `sample_key`) or serialized as a JSON number, so no key, snapshot or
/// journal line depends on the width.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathSample {
    /// Start-terminal rows into the token table.
    pub starts: Vec<u32>,
    /// Path rows into the path table.
    pub paths: Vec<u32>,
    /// End-terminal rows into the token table.
    pub ends: Vec<u32>,
}

impl PathSample {
    /// Hashes extracted path contexts into table indices — the readable
    /// form's sink; `PathSample::from_stmt` (in `paths`) is the direct one.
    pub fn from_contexts(contexts: &[PathContext], cfg: &EmbedConfig) -> Self {
        let (t, p) = (cfg.token_buckets, cfg.path_buckets);
        PathSample {
            starts: contexts
                .iter()
                .map(|c| bucket(hash_token(&c.start), t))
                .collect(),
            paths: contexts
                .iter()
                .map(|c| bucket(hash_token(&c.path), p))
                .collect(),
            ends: contexts
                .iter()
                .map(|c| bucket(hash_token(&c.end), t))
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
        let inside = |xs: &[u32], rows: usize| xs.iter().all(|&x| (x as usize) < rows);
        self.starts.len() == n
            && self.ends.len() == n
            && inside(&self.starts, cfg.token_buckets)
            && inside(&self.ends, cfg.token_buckets)
            && inside(&self.paths, cfg.path_buckets)
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
        assert!(s.fits(&cfg));
    }

    #[test]
    fn empty_contexts_make_empty_sample() {
        let cfg = EmbedConfig::fast();
        let s = PathSample::from_contexts(&[], &cfg);
        assert!(s.is_empty());
    }
}
