//! Proximal Policy Optimization for the NeuroVectorizer contextual bandit.
//!
//! §2.3 of the paper: "If the number of steps the RL agent has to take
//! before the environment terminates is one, the problem is called
//! Contextual Bandits." Each episode is a single decision: observe a loop's
//! code embedding, emit `(VF, IF)`, receive the normalized execution-time
//! improvement as reward.
//!
//! This crate implements:
//!
//! * `spaces` — the three action parameterizations compared in Figure 6:
//!   discrete (two categorical heads indexing the VF/IF arrays — the
//!   paper's winner), one continuous value encoding both factors, and two
//!   continuous values;
//! * `policy` — the fully-connected policy/value network (64×64 by
//!   default, the architecture swept in Figure 5), sharing its
//!   [`nvc_nn::ParamStore`] with the [`nvc_embed::CodeEmbedder`] so
//!   gradients flow end-to-end from the PPO loss into the embedding
//!   tables, exactly as the paper trains code2vec jointly;
//! * `ppo` — the clipped-surrogate PPO update with a value baseline and
//!   entropy bonus, plus rollout collection over a [`BanditEnv`].
//!
//! The single-step structure means no discount factor or GAE is needed:
//! the advantage is `reward − V(observation)`.

pub(crate) mod policy;
pub(crate) mod ppo;
pub(crate) mod replay;
pub(crate) mod spaces;
pub use policy::{PolicyConfig, PolicyNet, PolicyOut};
pub use ppo::{BanditEnv, IterStats, PpoConfig, PpoTrainer, Transition};
pub use replay::ReplayEnv;
pub use spaces::{ActionDims, ActionSpaceKind};

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_embed::{EmbedConfig, PathSample};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A synthetic bandit: 4 distinguishable contexts, each with its own
    /// best action. PPO must drive the mean reward close to 1.
    struct ToyEnv {
        contexts: Vec<PathSample>,
        best: Vec<(usize, usize)>,
    }

    impl ToyEnv {
        fn new() -> Self {
            // Hand-built samples with disjoint vocabulary rows so they are
            // trivially separable.
            let mk = |base: usize| PathSample {
                starts: vec![base, base + 1, base + 2],
                paths: vec![base, base + 1, base + 2],
                ends: vec![base + 3, base + 4, base + 5],
            };
            ToyEnv {
                contexts: (0..4).map(|i| mk(i * 8)).collect(),
                best: vec![(0, 0), (1, 2), (2, 1), (3, 3)],
            }
        }
    }

    impl BanditEnv for ToyEnv {
        fn num_contexts(&self) -> usize {
            self.contexts.len()
        }

        fn context(&self, idx: usize) -> &PathSample {
            &self.contexts[idx]
        }

        fn action_dims(&self) -> ActionDims {
            ActionDims { n_vf: 4, n_if: 4 }
        }

        fn reward(&mut self, idx: usize, action: (usize, usize)) -> f64 {
            let (bv, bi) = self.best[idx];
            let d = (action.0 as i64 - bv as i64).abs() + (action.1 as i64 - bi as i64).abs();
            1.0 - 0.4 * d as f64
        }
    }

    #[test]
    fn ppo_learns_toy_bandit() {
        let cfg = PpoConfig {
            lr: 5e-3,
            train_batch: 128,
            minibatch: 32,
            epochs: 4,
            hidden: vec![32, 32],
            action_dims: ActionDims { n_vf: 4, n_if: 4 },
            ..PpoConfig::default()
        };
        let mut trainer = PpoTrainer::new(&cfg, &EmbedConfig::fast(), 7);
        let mut env = ToyEnv::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let stats = trainer.train(&mut env, 80, &mut rng);
        let last = stats.last().unwrap();
        assert!(
            last.reward_mean > 0.7,
            "PPO failed to learn toy bandit: reward_mean={}",
            last.reward_mean
        );
        // Greedy prediction should be optimal on at least 3 of 4 contexts.
        let contexts: Vec<&PathSample> = env.contexts.iter().collect();
        let predicted = trainer.predict_batch(&contexts);
        let correct = predicted
            .iter()
            .zip(&env.best)
            .filter(|(p, b)| p == b)
            .count();
        assert!(
            correct >= 3,
            "only {correct}/4 contexts predicted optimally"
        );
    }

    #[test]
    fn continuous_spaces_also_learn_something() {
        for kind in [ActionSpaceKind::Continuous1D, ActionSpaceKind::Continuous2D] {
            let cfg = PpoConfig {
                lr: 5e-3,
                train_batch: 128,
                minibatch: 32,
                epochs: 4,
                hidden: vec![32, 32],
                action_space: kind,
                action_dims: ActionDims { n_vf: 4, n_if: 4 },
                ..PpoConfig::default()
            };
            let mut trainer = PpoTrainer::new(&cfg, &EmbedConfig::fast(), 11);
            let mut env = ToyEnv::new();
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let stats = trainer.train(&mut env, 30, &mut rng);
            let first = stats.first().unwrap().reward_mean;
            let last = stats.last().unwrap().reward_mean;
            assert!(last > first, "{kind:?} did not improve: {first} → {last}");
        }
    }
}
