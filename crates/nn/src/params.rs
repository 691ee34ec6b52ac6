//! Named parameter store with gradient accumulation and Adam.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::tensor::Tensor;

/// A stamp no [`ParamStore`] in this process has carried before. Relaxed:
/// the counter publishes nothing, the read-modify-write alone makes every
/// value distinct.
fn fresh_stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Handle to a parameter tensor in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// Owns model parameters, their gradients and initialization RNG.
#[derive(Debug, Clone)]
pub struct ParamStore {
    names: Vec<String>,
    params: Vec<Tensor>,
    grads: Vec<Tensor>,
    rng: ChaCha8Rng,
    /// See [`ParamStore::stamp`]. Renewed wherever parameter values can
    /// change: [`ParamStore::param`], [`ParamStore::get_mut`] and
    /// [`Adam::step`] — the only code that holds `params` mutably.
    stamp: u64,
}

impl ParamStore {
    /// Creates an empty store; `seed` drives all parameter initialization.
    pub fn new(seed: u64) -> Self {
        ParamStore {
            names: Vec::new(),
            params: Vec::new(),
            grads: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            stamp: fresh_stamp(),
        }
    }

    /// Identifies this store's current parameter values within the
    /// process: two stores with equal stamps hold equal values (one is an
    /// unmodified `clone()` of the other), and every call that can change
    /// a value — registering a parameter, [`ParamStore::get_mut`] (hence
    /// [`serialize::load_into`](crate::serialize::load_into)),
    /// [`Adam::step`] — takes a stamp never handed out before. Whatever
    /// is derived from the values alone can be cached under it.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Registers a parameter with an explicit initial value.
    pub fn param(&mut self, name: impl Into<String>, init: Tensor) -> ParamId {
        self.stamp = fresh_stamp();
        self.names.push(name.into());
        self.grads.push(Tensor::zeros(init.rows(), init.cols()));
        self.params.push(init);
        ParamId(self.params.len() - 1)
    }

    /// Registers a parameter with Xavier/Glorot-uniform initialization.
    pub fn param_xavier(&mut self, name: impl Into<String>, rows: usize, cols: usize) -> ParamId {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| self.rng.gen_range(-bound..bound))
            .collect();
        self.param(name, Tensor::from_vec(rows, cols, data))
    }

    /// Registers a parameter initialized from `N(0, std)`-ish uniform noise.
    pub fn param_uniform(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        bound: f32,
    ) -> ParamId {
        let data = (0..rows * cols)
            .map(|_| self.rng.gen_range(-bound..bound))
            .collect();
        self.param(name, Tensor::from_vec(rows, cols, data))
    }

    /// Parameter value.
    pub fn get(&self, p: ParamId) -> &Tensor {
        &self.params[p.0]
    }

    /// Mutable parameter value (tests and serialization).
    pub fn get_mut(&mut self, p: ParamId) -> &mut Tensor {
        self.stamp = fresh_stamp();
        &mut self.params[p.0]
    }

    /// Iterates over `(id, name, tensor)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.params
            .iter()
            .enumerate()
            .map(|(i, t)| (ParamId(i), self.names[i].as_str(), t))
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(Tensor::len).sum()
    }

    /// Adds the gradient map a finished tape produced. The tape borrows
    /// the store, so callers extract [`Graph::param_grads`], drop the
    /// graph, and hand the map over here.
    ///
    /// [`Graph::param_grads`]: crate::Graph::param_grads
    pub fn apply_grads(&mut self, grads: std::collections::HashMap<ParamId, Tensor>) {
        for (p, g) in grads {
            self.grads[p.0].add_scaled(&g, 1.0);
        }
    }

    /// Mutable access to a parameter's gradient buffer.
    pub fn grad_tensor_mut(&mut self, p: ParamId) -> &mut Tensor {
        &mut self.grads[p.0]
    }

    /// Clears all gradients.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            for x in g.data_mut() {
                *x = 0.0;
            }
        }
    }

    /// Global L2 norm of all gradients (for clipping diagnostics).
    pub(crate) fn grad_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|g| g.data().iter().map(|x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients so the global norm does not exceed `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in &mut self.grads {
                for x in g.data_mut() {
                    *x *= s;
                }
            }
        }
    }
}

/// Adam optimizer (Kingma & Ba), the optimizer RLlib's PPO uses.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate — the key hyperparameter swept in Figure 5.
    pub(crate) lr: f32,
    /// First-moment decay.
    pub(crate) beta1: f32,
    /// Second-moment decay.
    pub(crate) beta2: f32,
    /// Numerical stabilizer.
    pub(crate) eps: f32,
    t: i32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step from the store's accumulated gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        store.stamp = fresh_stamp();
        // Lazily grow moment buffers as parameters are registered.
        while self.m.len() < store.params.len() {
            let i = self.m.len();
            let (r, c) = store.params[i].shape();
            self.m.push(Tensor::zeros(r, c));
            self.v.push(Tensor::zeros(r, c));
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t);
        let b2t = 1.0 - self.beta2.powi(self.t);
        for i in 0..store.params.len() {
            let g = store.grads[i].data();
            let m = self.m[i].data_mut();
            let v = self.v[i].data_mut();
            let p = store.params[i].data_mut();
            for j in 0..g.len() {
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * g[j];
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * g[j] * g[j];
                let mhat = m[j] / b1t;
                let vhat = v[j] / b2t;
                p[j] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_registration_and_lookup() {
        let mut s = ParamStore::new(1);
        let a = s.param("a", Tensor::scalar(5.0));
        let b = s.param_xavier("b", 4, 4);
        let names: Vec<&str> = s.iter().map(|(_, name, _)| name).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(s.get(a).data()[0], 5.0);
        assert_eq!(s.get(b).shape(), (4, 4));
        assert_eq!(s.num_scalars(), 17);
    }

    /// The stamp moves at every site that can change a value, follows a
    /// `clone()` until either side mutates, and is never reused.
    #[test]
    fn stamp_is_renewed_by_every_mutation_and_never_repeats() {
        let mut seen = std::collections::HashSet::new();
        let mut s = ParamStore::new(1);
        assert!(seen.insert(s.stamp()));
        let p = s.param("p", Tensor::zeros(2, 2));
        assert!(seen.insert(s.stamp()), "param kept the stamp");
        s.get_mut(p).data_mut()[0] = 1.0;
        assert!(seen.insert(s.stamp()), "get_mut kept the stamp");
        Adam::new(0.1).step(&mut s);
        assert!(seen.insert(s.stamp()), "Adam::step kept the stamp");
        let blob = crate::serialize::to_string(&s);
        crate::serialize::load_into(&mut s, &blob).expect("own checkpoint loads");
        assert!(seen.insert(s.stamp()), "load_into kept the stamp");

        // Reads and gradient bookkeeping change no value and no stamp.
        let before = s.stamp();
        let _ = (s.get(p), s.num_scalars());
        s.grad_tensor_mut(p).data_mut()[0] = 3.0;
        s.clip_grad_norm(1.0);
        s.zero_grads();
        assert_eq!(s.stamp(), before);

        // A clone is the same values until either side mutates.
        let mut twin = s.clone();
        assert_eq!(twin.stamp(), s.stamp());
        let _ = twin.get_mut(p);
        assert_ne!(twin.stamp(), s.stamp());
        assert!(seen.insert(twin.stamp()));
        let _ = s.get_mut(p);
        assert!(seen.insert(s.stamp()), "the original reused a stamp");

        // Other stores, same seed or not, never share one.
        for seed in [1, 1, 2] {
            assert!(seen.insert(ParamStore::new(seed).stamp()));
        }
    }

    #[test]
    fn xavier_is_seed_deterministic() {
        let mut s1 = ParamStore::new(99);
        let mut s2 = ParamStore::new(99);
        let p1 = s1.param_xavier("w", 8, 8);
        let p2 = s2.param_xavier("w", 8, 8);
        assert_eq!(s1.get(p1), s2.get(p2));
        let mut s3 = ParamStore::new(100);
        let p3 = s3.param_xavier("w", 8, 8);
        assert_ne!(s1.get(p1), s3.get(p3));
    }

    #[test]
    fn xavier_bounds() {
        let mut s = ParamStore::new(3);
        let p = s.param_xavier("w", 10, 10);
        let bound = (6.0f32 / 20.0).sqrt();
        assert!(s.get(p).data().iter().all(|x| x.abs() <= bound));
        // Not all zero.
        assert!(s.get(p).norm() > 0.0);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // min (p - 3)^2 without a graph: hand-computed gradient 2(p-3).
        let mut s = ParamStore::new(0);
        let p = s.param("p", Tensor::scalar(0.0));
        let mut adam = Adam::new(0.1);
        for _ in 0..300 {
            let x = s.get(p).data()[0];
            s.grads[p.0] = Tensor::scalar(2.0 * (x - 3.0));
            adam.step(&mut s);
            s.zero_grads();
        }
        assert!((s.get(p).data()[0] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn grad_clipping_caps_norm() {
        let mut s = ParamStore::new(0);
        let p = s.param("p", Tensor::zeros(1, 4));
        s.grads[p.0] = Tensor::from_vec(1, 4, vec![3.0, 4.0, 0.0, 0.0]);
        assert!((s.grad_norm() - 5.0).abs() < 1e-6);
        s.clip_grad_norm(1.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn zero_grads_clears() {
        let mut s = ParamStore::new(0);
        let p = s.param("p", Tensor::zeros(2, 2));
        s.grads[p.0] = Tensor::full(2, 2, 1.5);
        s.zero_grads();
        assert_eq!(s.grads[p.0], Tensor::zeros(2, 2));
    }
}
