//! Nearest-neighbour search over trained code embeddings (§3.5).
//!
//! "Once the framework with deep RL finishes training it is possible to
//! replace the RL agent … with other supervised learning methods such as
//! NNS and decision trees. However, for these methods a brute-force search
//! will be necessary to find the labels." The embeddings come from the
//! *trained* encoder, which is why NNS performs nearly as well as the RL
//! policy itself (2.65× vs 2.67× in Figure 7).

use serde::{Deserialize, Serialize};

/// A 1-nearest-neighbour classifier over embedding vectors.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NnsAgent {
    points: Vec<Vec<f32>>,
    labels: Vec<(usize, usize)>,
}

impl NnsAgent {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a training example: a code vector and its brute-force-optimal
    /// action.
    ///
    /// # Panics
    ///
    /// Panics if `embedding` has a different width than earlier points.
    pub fn insert(&mut self, embedding: Vec<f32>, label: (usize, usize)) {
        if let Some(first) = self.points.first() {
            assert_eq!(first.len(), embedding.len(), "embedding width mismatch");
        }
        self.points.push(embedding);
        self.labels.push(label);
    }

    /// True when the index is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Predicts the action of the nearest stored embedding (L2).
    ///
    /// # Panics
    ///
    /// Panics if the index is empty.
    pub fn predict(&self, query: &[f32]) -> (usize, usize) {
        assert!(!self.is_empty(), "NNS index is empty");
        let mut best = 0;
        let mut best_d = f32::INFINITY;
        for (i, p) in self.points.iter().enumerate() {
            let d: f32 = p
                .iter()
                .zip(query.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        self.labels[best]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_point_wins() {
        let mut nns = NnsAgent::new();
        nns.insert(vec![0.0, 0.0], (0, 0));
        nns.insert(vec![1.0, 1.0], (3, 2));
        nns.insert(vec![-1.0, 2.0], (6, 4));
        assert_eq!(nns.predict(&[0.1, -0.1]), (0, 0));
        assert_eq!(nns.predict(&[0.9, 1.2]), (3, 2));
        assert_eq!(nns.predict(&[-0.8, 1.7]), (6, 4));
    }

    #[test]
    fn exact_match_returns_its_label() {
        let mut nns = NnsAgent::new();
        for i in 0..10 {
            nns.insert(vec![i as f32, (i * i) as f32], (i % 7, i % 5));
        }
        for i in 0..10 {
            assert_eq!(nns.predict(&[i as f32, (i * i) as f32]), (i % 7, i % 5));
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_index_panics() {
        NnsAgent::new().predict(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_widths_panic() {
        let mut nns = NnsAgent::new();
        nns.insert(vec![1.0, 2.0], (0, 0));
        nns.insert(vec![1.0], (0, 0));
    }
}
