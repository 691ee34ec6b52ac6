//! From-scratch neural-network substrate: tensors, reverse-mode autodiff,
//! parameter store with Adam, and a tiny model-serialization format.
//!
//! The paper trains a code2vec-style embedding network end-to-end with a
//! PPO agent (RLlib/TensorFlow in the original). This crate provides the
//! minimal differentiable-programming stack those components need, with no
//! external ML dependencies:
//!
//! * [`Tensor`] — dense row-major `f32` matrices with a SIMD-explicit
//!   matmul family ([`kernels`]: cache-blocked tiles, 8-wide unrolled
//!   inner loops) plus transpose-free `Aᵀ·B` / `A·Bᵀ` kernels for the
//!   backward pass, each loop nest written once for both modes. A
//!   process-wide [`KernelMode`] picks the numeric contract: `Strict`
//!   (default) keeps bitwise parity with the textbook i-k-j loop — one
//!   ascending-`k` chain per output element — while `Fast` (the serving
//!   default) runs the same loops with fused-FMA accumulators, plus a
//!   single-pass online softmax and a one-division rational `tanh`, ε-close to
//!   strict with identical decisions and special-value propagation. The
//!   kernels are callable on plain slices too
//!   ([`kernels::matmul_accum`], [`kernels::tanh_inplace`],
//!   [`kernels::segment_softmax`], [`kernels::segment_weighted_sum`]) —
//!   what a forward that builds no tape runs, and what the tape's ops
//!   call;
//! * [`Graph`] — a tape of operations supporting `matmul`, a fused
//!   `linear` (matmul + bias broadcast in one node), broadcasting adds,
//!   `tanh`/`exp`/`ln`, row softmax / log-softmax, embedding
//!   `gather` (including direct-from-store parameter gathers),
//!   concatenation, elementwise arithmetic, clipping, minimum, per-row
//!   selection, and reductions — everything PPO over an attention-based
//!   encoder requires. The encoder itself is one node over a ragged
//!   batch ([`Graph::path_attention`], its forward in [`attention`]):
//!   projection, `tanh` and scores once per distinct context row, a
//!   fused per-row backward, and values *and* parameter gradients
//!   bitwise-identical to the per-sample spelling. The segment ops
//!   (`segment_softmax_rows`, `segment_weighted_sum` over a shared
//!   [`Segments`] row partition) evaluate one ragged reduction per node
//!   under the same contract;
//! * [`TensorArena`] — a recycled buffer pool graphs draw from
//!   ([`Graph::with_arena`]) so per-iteration tapes stop churning the
//!   allocator;
//! * [`ParamStore`] — named parameters with gradient accumulation and an
//!   [`Adam`] optimizer;
//! * [`serialize`] — a small self-describing text format for checkpoints
//!   (the sanctioned offline crate set has no `serde_json`, so we keep our
//!   own writer/reader).
//!
//! Gradients are verified against central finite differences in the test
//! suite for every operation.
//!
//! # Example
//!
//! ```
//! use nvc_nn::{Adam, Graph, ParamStore, Tensor};
//!
//! let mut store = ParamStore::new(42);
//! let w = store.param("w", Tensor::zeros(1, 1));
//!
//! // Minimize (3w - 6)^2 with Adam.
//! let mut adam = Adam::new(0.1);
//! for _ in 0..200 {
//!     let mut g = Graph::new(&store);
//!     let wn = g.param(w);
//!     let y = g.scale(wn, 3.0);
//!     let t = g.add_scalar(y, -6.0);
//!     let loss = g.mul_elem(t, t);
//!     g.backward(loss);
//!     let grads = g.param_grads();
//!     drop(g); // release the store borrow
//!     store.apply_grads(grads);
//!     adam.step(&mut store);
//!     store.zero_grads();
//! }
//! assert!((store.get(w).data()[0] - 2.0).abs() < 1e-2);
//! ```

pub mod arena;
pub mod attention;
pub mod graph;
pub mod kernels;
pub mod params;
pub mod serialize;
pub mod tensor;

/// The instrument layer the kernels report into, re-exported so that
/// code built on these kernels records into the same process-wide op
/// aggregates without a dependency edge of its own.
pub use nvc_obs as obs;

pub use arena::{ArenaStats, TensorArena};
pub use attention::{AttentionScratch, AttentionWeights};
pub use graph::{Graph, NodeId, RowAlias, Segments};
pub use kernels::KernelMode;
pub use params::{Adam, ParamId, ParamStore};
pub use tensor::Tensor;

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: a 2-layer MLP learns XOR, proving that forward, backward
    /// and Adam compose correctly.
    #[test]
    fn mlp_learns_xor() {
        let mut store = ParamStore::new(7);
        let w1 = store.param_xavier("w1", 2, 8);
        let b1 = store.param("b1", Tensor::zeros(1, 8));
        let w2 = store.param_xavier("w2", 8, 1);
        let b2 = store.param("b2", Tensor::zeros(1, 1));
        let x = Tensor::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let y = Tensor::from_rows(&[vec![0.0], vec![1.0], vec![1.0], vec![0.0]]);

        let mut adam = Adam::new(0.05);
        let mut final_loss = f32::INFINITY;
        for _ in 0..400 {
            let mut g = Graph::new(&store);
            let xs = g.input(x.clone());
            let ys = g.input(y.clone());
            let (w1n, b1n, w2n, b2n) = (g.param(w1), g.param(b1), g.param(w2), g.param(b2));
            let h = g.matmul(xs, w1n);
            let h = g.add_row_broadcast(h, b1n);
            let h = g.tanh(h);
            let o = g.matmul(h, w2n);
            let o = g.add_row_broadcast(o, b2n);
            let d = g.sub(o, ys);
            let sq = g.mul_elem(d, d);
            let loss = g.mean_all(sq);
            final_loss = g.value(loss).data()[0];
            g.backward(loss);
            let grads = g.param_grads();
            drop(g);
            for (pid, grad) in grads {
                store.grad_tensor_mut(pid).add_scaled(&grad, 1.0);
            }
            adam.step(&mut store);
            store.zero_grads();
        }
        assert!(final_loss < 0.05, "XOR did not converge: loss={final_loss}");
    }
}
