//! The fully-connected policy/value network.
//!
//! §4 of the paper: "We use a 64 × 64 fully connected neural network" with
//! discrete actions picking "two integer numbers that index into the arrays
//! of possible VFs and IFs". The network also carries a value head (PPO's
//! baseline) and, for the continuous variants of Figure 6, Gaussian heads
//! with a learned log standard deviation.

use serde::{Deserialize, Serialize};

use nvc_nn::{Graph, NodeId, ParamId, ParamStore, Tensor};

use crate::spaces::{ActionDims, ActionSpaceKind};

/// Architecture description for [`PolicyNet`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Observation width (the code-vector dimension).
    pub input_dim: usize,
    /// Hidden layer widths (the paper sweeps 64×64, 128×128, 256×256).
    pub hidden: Vec<usize>,
    /// Discrete action dimensions.
    pub dims: ActionDims,
    /// Action parameterization.
    pub kind: ActionSpaceKind,
}

/// Forward-pass outputs.
#[derive(Debug, Clone, Copy)]
pub struct PolicyOut {
    /// Discrete VF-head logits (`batch × n_vf`).
    pub(crate) logits_vf: Option<NodeId>,
    /// Discrete IF-head logits (`batch × n_if`).
    pub(crate) logits_if: Option<NodeId>,
    /// Continuous mean(s) (`batch × 1` or `batch × 2`).
    pub(crate) mu: Option<NodeId>,
    /// State-value estimates (`batch × 1`).
    pub value: NodeId,
}

/// The policy/value network. Parameters live in a shared
/// [`ParamStore`] so the embedding trains jointly.
#[derive(Debug, Clone)]
pub struct PolicyNet {
    cfg: PolicyConfig,
    layers: Vec<(ParamId, ParamId)>,
    head_vf: (ParamId, ParamId),
    head_if: Option<(ParamId, ParamId)>,
    value_head: (ParamId, ParamId),
    log_std: Option<ParamId>,
}

impl PolicyNet {
    /// Registers all network parameters in `store`.
    pub fn new(store: &mut ParamStore, cfg: &PolicyConfig) -> Self {
        let mut layers = Vec::new();
        let mut width = cfg.input_dim;
        for (i, &h) in cfg.hidden.iter().enumerate() {
            let w = store.param_xavier(format!("policy.l{i}.w"), width, h);
            let b = store.param(format!("policy.l{i}.b"), Tensor::zeros(1, h));
            layers.push((w, b));
            width = h;
        }
        let (head_vf, head_if, log_std) = match cfg.kind {
            ActionSpaceKind::Discrete => {
                let wv = store.param_xavier("policy.vf.w", width, cfg.dims.n_vf);
                let bv = store.param("policy.vf.b", Tensor::zeros(1, cfg.dims.n_vf));
                let wi = store.param_xavier("policy.if.w", width, cfg.dims.n_if);
                let bi = store.param("policy.if.b", Tensor::zeros(1, cfg.dims.n_if));
                ((wv, bv), Some((wi, bi)), None)
            }
            ActionSpaceKind::Continuous1D => {
                let w = store.param_xavier("policy.mu.w", width, 1);
                // Start exploration at the center of the flat index range
                // with a std wide enough to reach both ends.
                let center = cfg.dims.total() as f32 / 2.0;
                let b = store.param("policy.mu.b", Tensor::from_vec(1, 1, vec![center]));
                let ls = store.param(
                    "policy.log_std",
                    Tensor::from_vec(1, 1, vec![(cfg.dims.total() as f32 / 4.0).ln()]),
                );
                ((w, b), None, Some(ls))
            }
            ActionSpaceKind::Continuous2D => {
                let w = store.param_xavier("policy.mu.w", width, 2);
                let b = store.param(
                    "policy.mu.b",
                    Tensor::from_vec(
                        1,
                        2,
                        vec![cfg.dims.n_vf as f32 / 2.0, cfg.dims.n_if as f32 / 2.0],
                    ),
                );
                let ls = store.param(
                    "policy.log_std",
                    Tensor::from_vec(
                        1,
                        2,
                        vec![
                            (cfg.dims.n_vf as f32 / 3.0).ln(),
                            (cfg.dims.n_if as f32 / 3.0).ln(),
                        ],
                    ),
                );
                ((w, b), None, Some(ls))
            }
        };
        let wv = store.param_xavier("policy.value.w", width, 1);
        let bv = store.param("policy.value.b", Tensor::zeros(1, 1));
        PolicyNet {
            cfg: cfg.clone(),
            layers,
            head_vf,
            head_if,
            value_head: (wv, bv),
            log_std,
        }
    }

    /// The learned log-std handle for continuous spaces.
    pub(crate) fn log_std(&self) -> Option<ParamId> {
        self.log_std
    }

    /// Runs the network on a `batch × input_dim` observation node.
    ///
    /// Every affine stage is the fused [`Graph::linear`] op — one tape
    /// node and one output allocation per layer instead of the
    /// matmul + broadcast pair, with bitwise-identical results.
    pub fn forward(&self, g: &mut Graph<'_>, obs: NodeId) -> PolicyOut {
        let mut h = obs;
        for (w, b) in &self.layers {
            let (wn, bn) = (g.param(*w), g.param(*b));
            let lin = g.linear(h, wn, bn);
            h = g.tanh(lin);
        }
        let (vw, vb) = self.value_head;
        let (vwn, vbn) = (g.param(vw), g.param(vb));
        let value = g.linear(h, vwn, vbn);

        match self.cfg.kind {
            ActionSpaceKind::Discrete => {
                let (w, b) = self.head_vf;
                let (wn, bn) = (g.param(w), g.param(b));
                let lv = g.linear(h, wn, bn);
                let (w2, b2) = self.head_if.expect("discrete policy has an IF head");
                let (wn2, bn2) = (g.param(w2), g.param(b2));
                let li = g.linear(h, wn2, bn2);
                PolicyOut {
                    logits_vf: Some(lv),
                    logits_if: Some(li),
                    mu: None,
                    value,
                }
            }
            ActionSpaceKind::Continuous1D | ActionSpaceKind::Continuous2D => {
                let (w, b) = self.head_vf;
                let (wn, bn) = (g.param(w), g.param(b));
                let mu = g.linear(h, wn, bn);
                PolicyOut {
                    logits_vf: None,
                    logits_if: None,
                    mu: Some(mu),
                    value,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kind: ActionSpaceKind) -> PolicyConfig {
        PolicyConfig {
            input_dim: 8,
            hidden: vec![16, 16],
            dims: ActionDims { n_vf: 7, n_if: 5 },
            kind,
        }
    }

    #[test]
    fn discrete_forward_shapes() {
        let mut store = ParamStore::new(1);
        let net = PolicyNet::new(&mut store, &cfg(ActionSpaceKind::Discrete));
        let mut g = Graph::new(&store);
        let obs = g.input(Tensor::zeros(3, 8));
        let out = net.forward(&mut g, obs);
        assert_eq!(g.value(out.logits_vf.unwrap()).shape(), (3, 7));
        assert_eq!(g.value(out.logits_if.unwrap()).shape(), (3, 5));
        assert_eq!(g.value(out.value).shape(), (3, 1));
        assert!(out.mu.is_none());
    }

    #[test]
    fn continuous_forward_shapes() {
        for (kind, w) in [
            (ActionSpaceKind::Continuous1D, 1),
            (ActionSpaceKind::Continuous2D, 2),
        ] {
            let mut store = ParamStore::new(1);
            let net = PolicyNet::new(&mut store, &cfg(kind));
            let mut g = Graph::new(&store);
            let obs = g.input(Tensor::zeros(4, 8));
            let out = net.forward(&mut g, obs);
            assert_eq!(g.value(out.mu.unwrap()).shape(), (4, w));
            assert!(net.log_std().is_some());
        }
    }

    #[test]
    fn continuous_mu_initialized_at_range_center() {
        let mut store = ParamStore::new(1);
        let net = PolicyNet::new(&mut store, &cfg(ActionSpaceKind::Continuous1D));
        let mut g = Graph::new(&store);
        let obs = g.input(Tensor::zeros(1, 8));
        let out = net.forward(&mut g, obs);
        // Zero observation → bias only → center of the 35-wide range.
        let mu = g.value(out.mu.unwrap()).data()[0];
        assert!((mu - 17.5).abs() < 3.0, "mu init off-center: {mu}");
    }

    #[test]
    fn deeper_architectures_register_more_params() {
        let mut s1 = ParamStore::new(1);
        let mut c = cfg(ActionSpaceKind::Discrete);
        PolicyNet::new(&mut s1, &c);
        let small = s1.num_scalars();
        let mut s2 = ParamStore::new(1);
        c.hidden = vec![64, 64];
        PolicyNet::new(&mut s2, &c);
        assert!(s2.num_scalars() > small);
    }
}
