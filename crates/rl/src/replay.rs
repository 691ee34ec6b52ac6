//! Replay environment over journaled serve traffic.
//!
//! The online-learning loop (hub `report` verb → learning journal) yields
//! `(sample, action, measured_reward)` triples instead of a live reward
//! oracle. [`ReplayEnv`] turns that corpus into a [`BanditEnv`] the
//! existing [`PpoTrainer`](crate::PpoTrainer) can fine-tune on: contexts
//! are the deduplicated samples, and the reward of `(context, action)` is
//! the *mean* of the observed rewards for that pair. Actions never seen in
//! the corpus return a configurable default (0.0 — reward-neutral, i.e.
//! "no better or worse than baseline" under the paper's §3.3 reward) so
//! the policy is pulled toward observed winners without fabricating
//! gradients for unobserved arms.

use std::collections::HashMap;

use nvc_embed::PathSample;

use crate::ppo::BanditEnv;
use crate::spaces::ActionDims;

/// Accumulated reward statistics for one `(context, action)` cell.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    n: u64,
    sum: f64,
}

/// A [`BanditEnv`] backed by journaled `(sample, action, reward)`
/// observations.
#[derive(Debug)]
pub struct ReplayEnv {
    dims: ActionDims,
    default_reward: f64,
    contexts: Vec<PathSample>,
    index: HashMap<PathSample, usize>,
    rewards: HashMap<(usize, usize, usize), Cell>,
}

impl ReplayEnv {
    /// An empty corpus over `dims`-shaped actions. Unobserved actions
    /// reward `default_reward` (0.0 = baseline parity is the sensible
    /// choice for the paper's normalized-improvement reward).
    pub fn new(dims: ActionDims, default_reward: f64) -> ReplayEnv {
        ReplayEnv {
            dims,
            default_reward,
            contexts: Vec::new(),
            index: HashMap::new(),
            rewards: HashMap::new(),
        }
    }

    /// Records one observation. Samples are deduplicated: repeated
    /// observations of the same loop accumulate into the same context, and
    /// repeated `(context, action)` pairs average their rewards.
    /// Out-of-range actions and non-finite rewards are ignored (the
    /// journal may span older action-table generations).
    pub fn record(&mut self, sample: &PathSample, action: (usize, usize), reward: f64) {
        if action.0 >= self.dims.n_vf || action.1 >= self.dims.n_if || !reward.is_finite() {
            return;
        }
        let idx = match self.index.get(sample) {
            Some(&i) => i,
            None => {
                let i = self.contexts.len();
                self.contexts.push(sample.clone());
                self.index.insert(sample.clone(), i);
                i
            }
        };
        let cell = self.rewards.entry((idx, action.0, action.1)).or_default();
        cell.n += 1;
        cell.sum += reward;
    }

    /// True when no observation has been accepted.
    pub fn is_empty(&self) -> bool {
        self.contexts.is_empty()
    }
}

impl BanditEnv for ReplayEnv {
    fn num_contexts(&self) -> usize {
        self.contexts.len()
    }

    fn context(&self, idx: usize) -> &PathSample {
        &self.contexts[idx]
    }

    fn action_dims(&self) -> ActionDims {
        self.dims
    }

    fn reward(&mut self, idx: usize, action: (usize, usize)) -> f64 {
        match self.rewards.get(&(idx, action.0, action.1)) {
            Some(cell) if cell.n > 0 => cell.sum / cell.n as f64,
            _ => self.default_reward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(base: u32) -> PathSample {
        PathSample {
            starts: vec![base, base + 1],
            paths: vec![base * 2, base * 2 + 1],
            ends: vec![base + 3, base + 4],
        }
    }

    fn dims() -> ActionDims {
        ActionDims { n_vf: 7, n_if: 5 }
    }

    #[test]
    fn records_dedup_and_average() {
        let mut env = ReplayEnv::new(dims(), 0.0);
        assert!(env.is_empty());
        let s = sample(0);
        env.record(&s, (2, 1), 0.4);
        env.record(&s, (2, 1), 0.8);
        env.record(&sample(10), (0, 0), -0.5);
        assert_eq!(env.num_contexts(), 2);
        let mean = env.reward(0, (2, 1)); // mean of 0.4, 0.8
        assert!((mean - 0.6).abs() < 1e-12, "mean={mean}");
        assert_eq!(env.reward(1, (0, 0)), -0.5);
        // Unobserved action falls back to the default.
        assert_eq!(env.reward(0, (3, 3)), 0.0);
    }

    #[test]
    fn rejects_out_of_range_and_non_finite() {
        let mut env = ReplayEnv::new(dims(), 0.0);
        env.record(&sample(0), (7, 0), 1.0); // vf out of range
        env.record(&sample(0), (0, 5), 1.0); // if out of range
        env.record(&sample(0), (0, 0), f64::NAN);
        assert!(env.is_empty());
    }

    #[test]
    fn ppo_fine_tunes_on_a_replay_corpus() {
        use crate::{PpoConfig, PpoTrainer};
        use nvc_embed::EmbedConfig;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        // Corpus: two loops, each with one clearly best observed action.
        let mut env = ReplayEnv::new(ActionDims { n_vf: 4, n_if: 4 }, 0.0);
        let (a, b) = (sample(0), sample(12));
        for _ in 0..3 {
            env.record(&a, (1, 2), 1.0);
            env.record(&a, (0, 0), -0.6);
            env.record(&b, (3, 0), 1.0);
            env.record(&b, (2, 2), -0.6);
        }
        let cfg = PpoConfig {
            lr: 5e-3,
            train_batch: 64,
            minibatch: 32,
            epochs: 4,
            hidden: vec![32, 32],
            action_dims: ActionDims { n_vf: 4, n_if: 4 },
            ..PpoConfig::default()
        };
        let mut trainer = PpoTrainer::new(&cfg, &EmbedConfig::fast(), 7);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let stats = trainer.train(&mut env, 60, &mut rng);
        let last = stats.last().unwrap().reward_mean;
        assert!(last > 0.5, "replay fine-tune did not converge: {last}");
        assert_eq!(trainer.predict_batch(&[&a, &b]), [(1, 2), (3, 0)]);
    }
}
