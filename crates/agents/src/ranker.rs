//! The §5 "vanilla deep neural network" alternative: a learned cost model.
//!
//! "One direction we are exploring is to use a neural network that learns
//! a ranking scheme on the VF and IF. For example, it can learn that given
//! an embedding, and pragmas, what will the execution time normalized to
//! the non-vectorized code be. This is equivalent to learning a new cost
//! model for the different VFs and IFs."
//!
//! The ranker regresses `(embedding, one-hot action) → normalized reward`
//! and predicts by scoring all actions and taking the argmax. Unlike NNS
//! and decision trees it is differentiable end to end.

use rand::seq::SliceRandom;
use rand::Rng;

use nvc_nn::{Adam, Graph, ParamId, ParamStore, Tensor};
use nvc_rl::ActionDims;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
struct Hyper {
    /// Hidden layer width.
    hidden: usize,
    /// Adam learning rate.
    lr: f32,
    /// Training epochs over the labelled set.
    epochs: usize,
    /// Minibatch size.
    minibatch: usize,
}

/// The hyperparameters every ranker trains with.
const HYPER: Hyper = Hyper {
    hidden: 64,
    lr: 5e-3,
    epochs: 30,
    minibatch: 64,
};

/// The learned cost model.
#[derive(Debug)]
pub struct Ranker {
    dims: ActionDims,
    hyper: Hyper,
    store: ParamStore,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
}

impl Ranker {
    /// Creates an untrained ranker over `input_dim`-wide embeddings and
    /// the `dims` action grid.
    pub fn new(input_dim: usize, dims: ActionDims, seed: u64) -> Self {
        Self::with_hyper(input_dim, dims, HYPER, seed)
    }

    fn with_hyper(input_dim: usize, dims: ActionDims, hyper: Hyper, seed: u64) -> Self {
        let mut store = ParamStore::new(seed);
        let in_dim = input_dim + dims.total();
        let w1 = store.param_xavier("ranker.w1", in_dim, hyper.hidden);
        let b1 = store.param("ranker.b1", Tensor::zeros(1, hyper.hidden));
        let w2 = store.param_xavier("ranker.w2", hyper.hidden, 1);
        let b2 = store.param("ranker.b2", Tensor::zeros(1, 1));
        Ranker {
            dims,
            hyper,
            store,
            w1,
            b1,
            w2,
            b2,
        }
    }

    fn input_row(&self, embedding: &[f32], action: usize) -> Vec<f32> {
        let mut row = embedding.to_vec();
        let mut onehot = vec![0.0f32; self.dims.total()];
        onehot[action] = 1.0;
        row.extend(onehot);
        row
    }

    /// Trains on `(embedding, flat action, reward)` triples — typically
    /// the full brute-force grid of the training loops.
    pub fn fit(&mut self, data: &[(Vec<f32>, usize, f64)], rng: &mut impl Rng) -> f64 {
        assert!(!data.is_empty(), "no training data");
        let mut adam = Adam::new(self.hyper.lr);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut last_loss = f64::INFINITY;
        for _ in 0..self.hyper.epochs {
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(self.hyper.minibatch) {
                let rows: Vec<Vec<f32>> = chunk
                    .iter()
                    .map(|&i| self.input_row(&data[i].0, data[i].1))
                    .collect();
                let ys: Vec<f32> = chunk.iter().map(|&i| data[i].2 as f32).collect();
                let n = rows.len();
                let width = rows[0].len();
                let flat: Vec<f32> = rows.into_iter().flatten().collect();

                let mut g = Graph::new(&self.store);
                let x = g.input(Tensor::from_vec(n, width, flat));
                let y = g.input(Tensor::from_vec(n, 1, ys));
                let (w1, b1, w2, b2) = (
                    g.param(self.w1),
                    g.param(self.b1),
                    g.param(self.w2),
                    g.param(self.b2),
                );
                let h = g.matmul(x, w1);
                let h = g.add_row_broadcast(h, b1);
                let h = g.tanh(h);
                let o = g.matmul(h, w2);
                let o = g.add_row_broadcast(o, b2);
                let d = g.sub(o, y);
                let sq = g.mul_elem(d, d);
                let loss = g.mean_all(sq);
                epoch_loss += f64::from(g.value(loss).data()[0]);
                batches += 1;
                g.backward(loss);
                let grads = g.param_grads();
                drop(g);
                self.store.apply_grads(grads);
                adam.step(&mut self.store);
                self.store.zero_grads();
            }
            last_loss = epoch_loss / batches as f64;
        }
        last_loss
    }

    /// Predicted reward of one `(embedding, action)` pair.
    pub fn score(&self, embedding: &[f32], action: usize) -> f64 {
        let row = self.input_row(embedding, action);
        let mut g = Graph::new(&self.store);
        let x = g.input(Tensor::from_vec(1, row.len(), row));
        let (w1, b1, w2, b2) = (
            g.param(self.w1),
            g.param(self.b1),
            g.param(self.w2),
            g.param(self.b2),
        );
        let h = g.matmul(x, w1);
        let h = g.add_row_broadcast(h, b1);
        let h = g.tanh(h);
        let o = g.matmul(h, w2);
        let o = g.add_row_broadcast(o, b2);
        f64::from(g.value(o).data()[0])
    }

    /// Picks the action with the best predicted reward.
    pub fn predict(&self, embedding: &[f32]) -> (usize, usize) {
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for a in 0..self.dims.total() {
            let s = self.score(embedding, a);
            if s > best_score {
                best_score = s;
                best = a;
            }
        }
        self.dims.unflatten(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ranker_learns_a_simple_cost_surface() {
        // Two synthetic loop embeddings with different optimal actions.
        let dims = ActionDims { n_vf: 4, n_if: 4 };
        let hyper = Hyper {
            hidden: 32,
            lr: 2e-2,
            epochs: 120,
            minibatch: 16,
        };
        let e1 = vec![1.0, 0.0, 0.0, 0.0];
        let e2 = vec![0.0, 1.0, 0.0, 0.0];
        let best1 = dims.flatten((3, 1));
        let best2 = dims.flatten((0, 2));
        let mut data = Vec::new();
        for a in 0..dims.total() {
            let d1 = (a as i64 - best1 as i64).abs() as f64;
            let d2 = (a as i64 - best2 as i64).abs() as f64;
            data.push((e1.clone(), a, 1.0 - 0.1 * d1));
            data.push((e2.clone(), a, 1.0 - 0.1 * d2));
        }
        let mut r = Ranker::with_hyper(4, dims, hyper, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let loss = r.fit(&data, &mut rng);
        assert!(loss < 0.02, "ranker did not fit: loss={loss}");
        assert_eq!(r.predict(&e1), (3, 1));
        assert_eq!(r.predict(&e2), (0, 2));
    }

    #[test]
    fn score_is_deterministic() {
        let r = Ranker::new(32, ActionDims { n_vf: 7, n_if: 5 }, 1);
        let e = vec![0.5; 32];
        assert_eq!(r.score(&e, 3), r.score(&e, 3));
    }
}
