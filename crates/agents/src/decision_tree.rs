//! A CART decision-tree classifier over code embeddings (§3.5).
//!
//! Trained on brute-force labels like NNS; the paper reports 2.47× over
//! the baseline — a little behind NNS and RL, which this reproduction's
//! Figure 7 harness mirrors.

use serde::{Deserialize, Serialize};

/// Hyperparameters for tree induction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Do not split nodes smaller than this.
    pub min_samples_split: usize,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        DecisionTreeConfig {
            max_depth: 12,
            min_samples_split: 4,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        label: usize,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: usize,
        right: usize,
    },
}

/// A fitted CART classifier. Labels are flat action indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Fits a tree with Gini-impurity splits.
    ///
    /// # Panics
    ///
    /// Panics on empty or ragged training data.
    pub fn fit(features: &[Vec<f32>], labels: &[usize], cfg: &DecisionTreeConfig) -> Self {
        assert!(!features.is_empty(), "no training data");
        assert_eq!(features.len(), labels.len(), "features/labels mismatch");
        let width = features[0].len();
        assert!(
            features.iter().all(|f| f.len() == width),
            "ragged feature rows"
        );
        let mut tree = DecisionTree { nodes: Vec::new() };
        let idx: Vec<usize> = (0..features.len()).collect();
        tree.build(features, labels, &idx, cfg.max_depth, cfg);
        tree
    }

    fn build(
        &mut self,
        features: &[Vec<f32>],
        labels: &[usize],
        idx: &[usize],
        depth: usize,
        cfg: &DecisionTreeConfig,
    ) -> usize {
        let majority = majority_label(labels, idx);
        if depth == 0 || idx.len() < cfg.min_samples_split || is_pure(labels, idx) {
            self.nodes.push(Node::Leaf { label: majority });
            return self.nodes.len() - 1;
        }
        let Some((feature, threshold)) = best_split(features, labels, idx) else {
            self.nodes.push(Node::Leaf { label: majority });
            return self.nodes.len() - 1;
        };
        let (li, ri): (Vec<usize>, Vec<usize>) = idx
            .iter()
            .partition(|&&i| features[i][feature] <= threshold);
        if li.is_empty() || ri.is_empty() {
            self.nodes.push(Node::Leaf { label: majority });
            return self.nodes.len() - 1;
        }
        // Reserve our slot before the children so indices stay stable.
        self.nodes.push(Node::Leaf { label: majority });
        let me = self.nodes.len() - 1;
        let left = self.build(features, labels, &li, depth - 1, cfg);
        let right = self.build(features, labels, &ri, depth - 1, cfg);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    /// Predicts the flat action index for one feature vector.
    pub fn predict(&self, x: &[f32]) -> usize {
        let mut cur = 0;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { label } => return *label,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    cur = if x.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes (for diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Occurrences of each label among `idx`, indexed by label. Every count in
/// this file is kept this way — a `HashMap`'s iteration order changes from
/// map to map, and with it the last bit of [`gini`]'s sum and the split
/// `best_split` picks.
fn label_counts(labels: &[usize], idx: &[usize]) -> Vec<usize> {
    let n_labels = idx.iter().map(|&i| labels[i] + 1).max().unwrap_or(0);
    let mut counts = vec![0usize; n_labels];
    for &i in idx {
        counts[labels[i]] += 1;
    }
    counts
}

/// The most frequent label; ties go to the smallest.
fn majority_label(labels: &[usize], idx: &[usize]) -> usize {
    label_counts(labels, idx)
        .into_iter()
        .enumerate()
        .max_by_key(|&(label, c)| (c, std::cmp::Reverse(label)))
        .map(|(l, _)| l)
        .unwrap_or(0)
}

fn is_pure(labels: &[usize], idx: &[usize]) -> bool {
    idx.windows(2).all(|w| labels[w[0]] == labels[w[1]])
}

/// Gini impurity, summed in ascending label order.
fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let mut g = 1.0;
    for &c in counts {
        let p = c as f64 / total as f64;
        g -= p * p;
    }
    g
}

/// Finds the `(feature, threshold)` with the lowest weighted Gini impurity.
fn best_split(features: &[Vec<f32>], labels: &[usize], idx: &[usize]) -> Option<(usize, f32)> {
    let width = features[idx[0]].len();
    let all_counts = label_counts(labels, idx);
    let mut best: Option<(f64, usize, f32)> = None;
    for f in 0..width {
        // Sort samples along this feature.
        let mut order: Vec<usize> = idx.to_vec();
        order.sort_by(|&a, &b| {
            features[a][f]
                .partial_cmp(&features[b][f])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut left_counts = vec![0usize; all_counts.len()];
        let mut right_counts = all_counts.clone();
        for w in 0..order.len() - 1 {
            let i = order[w];
            left_counts[labels[i]] += 1;
            right_counts[labels[i]] -= 1;
            let (xa, xb) = (features[order[w]][f], features[order[w + 1]][f]);
            if xa == xb {
                continue; // no threshold separates equal values
            }
            let nl = w + 1;
            let nr = order.len() - nl;
            let score = gini(&left_counts, nl) * nl as f64 / order.len() as f64
                + gini(&right_counts, nr) * nr as f64 / order.len() as f64;
            if best.map_or(true, |(s, _, _)| score < s) {
                best = Some((score, f, (xa + xb) / 2.0));
            }
        }
    }
    best.map(|(_, f, t)| (f, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_axis_aligned_split() {
        let features: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![i as f32 / 40.0, (i % 3) as f32])
            .collect();
        let labels: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let tree = DecisionTree::fit(&features, &labels, &DecisionTreeConfig::default());
        assert_eq!(tree.predict(&[0.1, 0.0]), 0);
        assert_eq!(tree.predict(&[0.9, 2.0]), 1);
    }

    #[test]
    fn learns_xor_with_depth() {
        let features = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let labels = vec![0, 1, 1, 0];
        // XOR needs two-sample splits; the default minimum (4) would stop
        // at depth 1.
        let cfg = DecisionTreeConfig {
            min_samples_split: 2,
            ..DecisionTreeConfig::default()
        };
        let tree = DecisionTree::fit(&features, &labels, &cfg);
        for (f, l) in features.iter().zip(labels.iter()) {
            assert_eq!(tree.predict(f), *l);
        }
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let features = vec![vec![1.0], vec![2.0], vec![3.0]];
        let labels = vec![5, 5, 5];
        let tree = DecisionTree::fit(&features, &labels, &DecisionTreeConfig::default());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[9.0]), 5);
    }

    #[test]
    fn depth_limit_respected() {
        let features: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32]).collect();
        let labels: Vec<usize> = (0..64).map(|i| i % 7).collect();
        let cfg = DecisionTreeConfig {
            max_depth: 2,
            min_samples_split: 2,
        };
        let tree = DecisionTree::fit(&features, &labels, &cfg);
        // Depth 2 → at most 7 nodes (3 splits + 4 leaves).
        assert!(tree.node_count() <= 7);
    }

    #[test]
    fn multiclass_accuracy_on_separable_data() {
        // Three clusters along one axis.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let cluster = i / 10;
            features.push(vec![cluster as f32 * 10.0 + (i % 10) as f32 * 0.1, 0.5]);
            labels.push(cluster);
        }
        let tree = DecisionTree::fit(&features, &labels, &DecisionTreeConfig::default());
        let correct = features
            .iter()
            .zip(labels.iter())
            .filter(|(f, l)| tree.predict(f) == **l)
            .count();
        assert_eq!(correct, 30);
    }

    /// Two identical feature columns score every split position alike, so
    /// the first column must win each time — the last bit of an impurity
    /// summed in a per-map order used to pick between them (Figure 7's
    /// decision-tree column differed between runs of one binary).
    #[test]
    fn repeated_fits_of_one_dataset_are_one_tree() {
        let mut state = 17u32;
        let mut next = || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            state >> 8
        };
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..160 {
            let (x, y) = (next() as f32 / 1e6, next() as f32 / 1e6);
            features.push(vec![x, y, x, y]);
            labels.push(next() as usize % 7);
        }
        let cfg = DecisionTreeConfig::default();
        let first = DecisionTree::fit(&features, &labels, &cfg);
        assert!(first.node_count() > 7, "the dataset must need many splits");
        for _ in 0..8 {
            assert_eq!(DecisionTree::fit(&features, &labels, &cfg), first);
        }
    }
}
