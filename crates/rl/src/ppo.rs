//! PPO training loop for the contextual bandit.
//!
//! One training *iteration* collects `train_batch` single-step episodes
//! (the paper's batch-size axis in Figure 5 sweeps 500/1000/4000), computes
//! advantages against the value baseline, and runs several epochs of
//! clipped-surrogate minibatch updates. Gradients flow through the policy
//! *and* the code2vec encoder — the end-to-end property the paper
//! emphasizes.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use nvc_embed::{CodeEmbedder, EmbedConfig, PathSample};
use nvc_nn::{Adam, Graph, NodeId, ParamStore, RowAlias, Tensor, TensorArena};
use nvc_obs::json::{obj, Json};
use nvc_obs::OpProfile;

use crate::policy::{PolicyConfig, PolicyNet};
use crate::spaces::{ActionDims, ActionSpaceKind};

/// The environment interface: a pool of loop contexts and a reward oracle.
///
/// Rewards follow §3.3: `(t_baseline − t_agent) / t_baseline`, with −9 for
/// compile timeouts — but the trainer is agnostic to the exact definition.
pub trait BanditEnv {
    /// Number of available contexts (loops).
    fn num_contexts(&self) -> usize;

    /// The path-context sample of loop `idx`.
    fn context(&self, idx: usize) -> &PathSample;

    /// The discrete action dimensions.
    fn action_dims(&self) -> ActionDims;

    /// Executes action `(vf_idx, if_idx)` on loop `idx` and returns the
    /// reward.
    fn reward(&mut self, idx: usize, action: (usize, usize)) -> f64;
}

/// PPO hyperparameters (defaults follow §4 of the paper and RLlib's PPO).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Adam learning rate (paper default 5e-5; swept in Figure 5).
    pub lr: f32,
    /// Episodes collected per iteration (paper default 4000).
    pub train_batch: usize,
    /// SGD minibatch size.
    pub minibatch: usize,
    /// SGD epochs per iteration.
    pub epochs: usize,
    /// Hidden widths of the FCNN (paper default 64×64).
    pub hidden: Vec<usize>,
    /// Action parameterization (Figure 6).
    pub action_space: ActionSpaceKind,
    /// Discrete action dimensions.
    pub action_dims: ActionDims,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            lr: 5e-5,
            train_batch: 4000,
            minibatch: 128,
            epochs: 8,
            hidden: vec![64, 64],
            action_space: ActionSpaceKind::Discrete,
            action_dims: ActionDims { n_vf: 7, n_if: 5 },
        }
    }
}

/// PPO clip parameter.
const CLIP: f32 = 0.2;
/// Value-loss coefficient.
const VF_COEF: f32 = 0.5;
/// Entropy-bonus coefficient.
const ENT_COEF: f32 = 0.01;
/// Global gradient-norm clip.
const MAX_GRAD_NORM: f32 = 0.5;

/// Statistics of one training iteration (the curves plotted in Figures
/// 5–6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterStats {
    /// Environment steps taken so far (cumulative).
    pub steps: u64,
    /// Mean reward of the iteration's batch.
    pub reward_mean: f64,
    /// Total PPO loss (last epoch average).
    pub loss: f64,
    /// Policy (surrogate) component.
    pub(crate) policy_loss: f64,
    /// Value component.
    pub(crate) value_loss: f64,
    /// Entropy of the policy.
    pub entropy: f64,
    /// Wall-clock of the rollout-collection phase, microseconds.
    pub(crate) collect_us: u64,
    /// Wall-clock of the advantage + epoch-update phase, microseconds.
    pub(crate) update_us: u64,
}

/// One collected single-step episode, as [`PpoTrainer::collect`] returns
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Environment context index the episode observed.
    pub(crate) ctx: usize,
    /// The `(vf_idx, if_idx)` action taken.
    pub(crate) action: (usize, usize),
    /// Raw continuous sample (unused for discrete).
    pub(crate) raw: [f32; 2],
    /// Log-probability of the action under the behavior policy.
    pub(crate) logp_old: f32,
    /// Environment reward.
    pub(crate) reward: f64,
    /// Value-baseline estimate at collection time.
    pub(crate) value: f32,
    /// Normalized advantage (filled in by the update, 0 after collect).
    pub(crate) advantage: f32,
}

/// The PPO trainer: embedder + policy sharing one parameter store.
#[derive(Debug)]
pub struct PpoTrainer {
    cfg: PpoConfig,
    store: ParamStore,
    embedder: CodeEmbedder,
    policy: PolicyNet,
    adam: Adam,
    /// Recycled tensor buffers shared by every graph the trainer builds
    /// (collection, minibatch updates, and concurrent inference all draw
    /// from the same pool).
    arena: TensorArena,
    steps: u64,
    /// Iterations completed (the journal's `iter` field).
    iters: u64,
    /// Optional training-telemetry sink: one JSON line per iteration
    /// (reward, losses, entropy, per-phase wall-clock). `None` (the
    /// default) writes nothing and costs nothing.
    journal: Option<nvc_obs::Journal>,
}

impl PpoTrainer {
    /// Builds a trainer with a fresh embedder and policy.
    pub fn new(cfg: &PpoConfig, embed_cfg: &EmbedConfig, seed: u64) -> Self {
        let mut store = ParamStore::new(seed);
        let embedder = CodeEmbedder::new(&mut store, embed_cfg);
        let policy = PolicyNet::new(
            &mut store,
            &PolicyConfig {
                input_dim: embed_cfg.code_dim,
                hidden: cfg.hidden.clone(),
                dims: cfg.action_dims,
                kind: cfg.action_space,
            },
        );
        PpoTrainer {
            cfg: cfg.clone(),
            adam: Adam::new(cfg.lr),
            store,
            embedder,
            policy,
            arena: TensorArena::new(),
            steps: 0,
            iters: 0,
            journal: None,
        }
    }

    /// Attaches a training-telemetry journal: every subsequent
    /// [`PpoTrainer::train_iteration`] appends one JSON line with the
    /// iteration's [`IterStats`] (including per-phase timings). Pass the
    /// result of [`nvc_obs::Journal::create`] to journal to a file.
    pub fn set_journal(&mut self, journal: Option<nvc_obs::Journal>) {
        self.journal = journal;
    }

    /// The shared parameter store (for checkpointing).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable store access (for checkpoint loading).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// The trained encoder (NNS and decision trees reuse it, §3.5).
    pub fn embedder(&self) -> &CodeEmbedder {
        &self.embedder
    }

    /// Runs `iterations` training iterations, returning per-iteration
    /// statistics.
    pub fn train(
        &mut self,
        env: &mut impl BanditEnv,
        iterations: usize,
        rng: &mut impl Rng,
    ) -> Vec<IterStats> {
        (0..iterations)
            .map(|_| self.train_iteration(env, rng))
            .collect()
    }

    /// One collect + update cycle.
    pub fn train_iteration(&mut self, env: &mut impl BanditEnv, rng: &mut impl Rng) -> IterStats {
        let ops_before = (self.journal.is_some() && nvc_obs::ops_enabled()).then(OpProfile::now);
        let t_collect = std::time::Instant::now();
        let mut batch = self.collect(env, rng);
        let collect_us = t_collect.elapsed().as_micros() as u64;
        let t_update = std::time::Instant::now();
        self.steps += batch.len() as u64;
        // An empty batch (train_batch 0, or a replay corpus drained
        // between cycles) must skip the update with defined stats, not
        // divide by zero into NaN rewards and a poisoned policy.
        if batch.is_empty() {
            self.iters += 1;
            let stats = IterStats {
                steps: self.steps,
                reward_mean: 0.0,
                loss: 0.0,
                policy_loss: 0.0,
                value_loss: 0.0,
                entropy: 0.0,
                collect_us,
                update_us: t_update.elapsed().as_micros() as u64,
            };
            self.journal_iter(&stats, ops_before);
            return stats;
        }
        let reward_mean = batch.iter().map(|t| t.reward).sum::<f64>() / batch.len() as f64;

        // Advantages: single-step episodes, so A = r − V(s), normalized.
        let mean_adv =
            batch.iter().map(|t| t.reward as f32 - t.value).sum::<f32>() / batch.len() as f32;
        let var = batch
            .iter()
            .map(|t| {
                let a = t.reward as f32 - t.value - mean_adv;
                a * a
            })
            .sum::<f32>()
            / batch.len() as f32;
        // Epsilon guard: a constant-reward batch (exactly what early
        // online fine-tuning over a small replay corpus produces) has
        // zero advantage variance; dividing by a raw 0 std would turn
        // every advantage into NaN. Any real std is far above the clamp,
        // so non-degenerate batches are bitwise-unchanged.
        let std = var.sqrt().max(1e-8);
        for t in &mut batch {
            t.advantage = (t.reward as f32 - t.value - mean_adv) / std;
        }

        let mut last = (0.0, 0.0, 0.0, 0.0);
        let mut order: Vec<usize> = (0..batch.len()).collect();
        for _ in 0..self.cfg.epochs {
            order.shuffle(rng);
            let mut sums = (0.0, 0.0, 0.0, 0.0);
            let mut count = 0;
            for chunk in order.chunks(self.cfg.minibatch) {
                let (pl, vl, ent, total) = self.update_minibatch(env, &batch, chunk);
                sums.0 += pl;
                sums.1 += vl;
                sums.2 += ent;
                sums.3 += total;
                count += 1;
            }
            let c = count as f64;
            last = (sums.0 / c, sums.1 / c, sums.2 / c, sums.3 / c);
        }

        self.iters += 1;
        let stats = IterStats {
            steps: self.steps,
            reward_mean,
            loss: last.3,
            policy_loss: last.0,
            value_loss: last.1,
            entropy: last.2,
            collect_us,
            update_us: t_update.elapsed().as_micros() as u64,
        };
        self.journal_iter(&stats, ops_before);
        stats
    }

    /// Appends one telemetry line for a finished iteration, if a journal
    /// is attached. With op timing on (`NVC_OPS=1`) the line ends with
    /// the iteration's budget: `"ops"`, each kernel family's calls and
    /// microseconds since `ops_before` (taken as the iteration began),
    /// and `"op_counters"`, the encoder's rows looked up and rows
    /// projected. No timed op runs inside another, so the `total_us`
    /// values add up to at most `collect_us + update_us`. The aggregates
    /// are process-wide: anything else computing in this process while
    /// the iteration ran is counted in.
    fn journal_iter(&self, stats: &IterStats, ops_before: Option<OpProfile>) {
        let Some(journal) = &self.journal else {
            return;
        };
        let mut line = vec![
            ("iter", Json::from(self.iters)),
            ("steps", Json::from(stats.steps)),
            ("reward_mean", Json::from(stats.reward_mean)),
            ("loss", Json::from(stats.loss)),
            ("policy_loss", Json::from(stats.policy_loss)),
            ("value_loss", Json::from(stats.value_loss)),
            ("entropy", Json::from(stats.entropy)),
            ("collect_us", Json::from(stats.collect_us)),
            ("update_us", Json::from(stats.update_us)),
        ];
        if let Some(before) = ops_before {
            let moved = OpProfile::now().since(&before);
            line.push(("ops", moved.ops_json()));
            line.push(("op_counters", moved.counters_json(&[])));
        }
        journal.write_line(&obj(line).render());
    }

    /// Greedy actions for a batch of samples: one tape-free encoder
    /// forward ([`CodeEmbedder::infer_rows`] — no encoder tape, no copy
    /// of the projection weights), whose `n × code_dim` result enters a
    /// graph as a constant for one policy forward over all rows. One
    /// sample's action is `predict_batch(&[sample])[0]`.
    ///
    /// Row-major matmul and the row-wise activations compute each output
    /// row from its input row alone, so in strict mode a row's action is
    /// bitwise-independent of its batch-mates — batching is a pure
    /// throughput optimization (this is what `nvc-serve`'s batching layer
    /// calls).
    pub fn predict_batch(&self, samples: &[&PathSample]) -> Vec<(usize, usize)> {
        // An empty flush must never take down a serve worker.
        if samples.is_empty() {
            return Vec::new();
        }
        let mut g = Graph::with_arena(&self.store, &self.arena);
        let obs = {
            let _embed = nvc_obs::span("embed");
            g.input(self.embedder.infer_rows(&self.store, samples))
        };
        let out = {
            let _forward = nvc_obs::span("policy_forward");
            self.policy.forward(&mut g, obs)
        };
        match self.cfg.action_space {
            ActionSpaceKind::Discrete => {
                let lv = g.value(out.logits_vf.expect("discrete"));
                let li = g.value(out.logits_if.expect("discrete"));
                (0..samples.len())
                    .map(|r| (argmax(lv.row(r)), argmax(li.row(r))))
                    .collect()
            }
            ActionSpaceKind::Continuous1D => {
                let mu = g.value(out.mu.expect("continuous"));
                (0..samples.len())
                    .map(|r| self.cfg.action_dims.decode_1d(mu.row(r)[0]))
                    .collect()
            }
            ActionSpaceKind::Continuous2D => {
                let mu = g.value(out.mu.expect("continuous"));
                (0..samples.len())
                    .map(|r| self.cfg.action_dims.decode_2d(mu.row(r)[0], mu.row(r)[1]))
                    .collect()
            }
        }
    }

    // ------------------------------------------------------------------

    /// Rollout collection for one iteration — the batched hot path.
    ///
    /// The whole `train_batch` runs as **one** forward: every distinct
    /// sample is embedded once by the encoder's tape-free forward
    /// ([`CodeEmbedder::forward_rows`] — the tape's values, no tape), and
    /// the policy runs a single stacked forward over all rows. Actions
    /// are then sampled row by row.
    ///
    /// Transitions are bitwise-identical to the per-sample spelling — a
    /// fresh graph and a one-row [`CodeEmbedder::forward`] per episode,
    /// kept as this module's test oracle — under the same RNG state:
    /// the context draws and action-sampling uniforms are pre-drawn in
    /// exactly the per-sample interleaving (context `i`, then sample
    /// `i`'s uniforms — the draw count per sample is fixed by the action
    /// space, never by the logits), the batched forward computes each
    /// output row from its own input row alone, and rewards are queried
    /// in the same ascending order.
    pub fn collect(&mut self, env: &mut impl BanditEnv, rng: &mut impl Rng) -> Vec<Transition> {
        let dims = env.action_dims();
        assert_eq!(
            dims, self.cfg.action_dims,
            "environment action dims must match the trainer configuration"
        );
        let n = self.cfg.train_batch;
        if n == 0 {
            return Vec::new();
        }

        // Phase 1: consume the RNG in the per-sample order.
        let space = self.cfg.action_space;
        let mut ctxs = Vec::with_capacity(n);
        let mut uniforms: Vec<f32> = Vec::with_capacity(n * 4);
        for _ in 0..n {
            ctxs.push(rng.gen_range(0..env.num_contexts()));
            match space {
                ActionSpaceKind::Discrete => {
                    uniforms.push(rng.gen_range(0.0..1.0));
                    uniforms.push(rng.gen_range(0.0..1.0));
                }
                ActionSpaceKind::Continuous1D => {
                    uniforms.push(rng.gen_range(1e-7..1.0));
                    uniforms.push(rng.gen_range(0.0..1.0));
                }
                ActionSpaceKind::Continuous2D => {
                    uniforms.push(rng.gen_range(1e-7..1.0));
                    uniforms.push(rng.gen_range(0.0..1.0));
                    uniforms.push(rng.gen_range(1e-7..1.0));
                    uniforms.push(rng.gen_range(0.0..1.0));
                }
            }
        }
        let draws_per = uniforms.len() / n;

        // Phase 2: the stacked forward. Contexts repeat (draws are with
        // replacement from a fixed pool), so the encoder embeds the
        // distinct ones once and gathers rows back out per sample.
        let samples_of: Vec<&PathSample> = ctxs.iter().map(|&c| env.context(c)).collect();
        let rows = self.stacked_policy_rows(&samples_of);
        let (values, logits_vf, logits_if, mus) =
            (rows.values, rows.logits_vf, rows.logits_if, rows.mus);
        let stds = self.log_std_values();

        // Phase 3: per-row sampling and rewards, in collection order.
        let mut out = Vec::with_capacity(n);
        for (i, &ctx) in ctxs.iter().enumerate() {
            let u = &uniforms[i * draws_per..(i + 1) * draws_per];
            let (action, raw, logp_old) = match space {
                ActionSpaceKind::Discrete => {
                    let lv = logits_vf.as_ref().expect("discrete").row(i);
                    let li = logits_if.as_ref().expect("discrete").row(i);
                    let (av, lpv) = sample_categorical_with(lv, u[0]);
                    let (ai, lpi) = sample_categorical_with(li, u[1]);
                    ((av, ai), [0.0, 0.0], lpv + lpi)
                }
                ActionSpaceKind::Continuous1D => {
                    let mu = mus.as_ref().expect("continuous").row(i)[0];
                    let std = stds[0].exp();
                    let x = mu + std * gaussian_from(u[0], u[1]);
                    let lp = gaussian_logp(x, mu, std);
                    (dims.decode_1d(x), [x, 0.0], lp)
                }
                ActionSpaceKind::Continuous2D => {
                    let m = mus.as_ref().expect("continuous").row(i);
                    let x0 = m[0] + stds[0].exp() * gaussian_from(u[0], u[1]);
                    let x1 = m[1] + stds[1].exp() * gaussian_from(u[2], u[3]);
                    let lp = gaussian_logp(x0, m[0], stds[0].exp())
                        + gaussian_logp(x1, m[1], stds[1].exp());
                    (dims.decode_2d(x0, x1), [x0, x1], lp)
                }
            };
            let reward = {
                let _timer = nvc_obs::time_op(nvc_obs::Op::Reward);
                env.reward(ctx, action)
            };
            out.push(Transition {
                ctx,
                action,
                raw,
                logp_old,
                reward,
                value: values[i],
                advantage: 0.0,
            });
        }
        out
    }

    /// One encoder + policy forward over the rollout's rows: each
    /// *distinct* sample (by content) embeds once, and the policy runs
    /// one stacked forward.
    fn stacked_policy_rows(&self, samples_of: &[&PathSample]) -> PolicyRows {
        let mut g = Graph::with_arena(&self.store, &self.arena);
        let obs = g.input(self.embedder.forward_rows(&self.store, samples_of));
        let pol = self.policy.forward(&mut g, obs);
        PolicyRows {
            values: g.value(pol.value).data().to_vec(),
            logits_vf: pol.logits_vf.map(|nid| g.value(nid).clone()),
            logits_if: pol.logits_if.map(|nid| g.value(nid).clone()),
            mus: pol.mu.map(|nid| g.value(nid).clone()),
        }
    }

    fn log_std_values(&self) -> Vec<f32> {
        self.policy
            .log_std()
            .map(|p| self.store.get(p).data().to_vec())
            .unwrap_or_default()
    }

    /// Builds the PPO loss for one minibatch and applies a gradient step.
    /// Returns `(policy_loss, value_loss, entropy, total_loss)`.
    fn update_minibatch(
        &mut self,
        env: &impl BanditEnv,
        batch: &[Transition],
        idxs: &[usize],
    ) -> (f64, f64, f64, f64) {
        let n = idxs.len();
        let mut g = Graph::with_arena(&self.store, &self.arena);

        // Batched observation: each *distinct* context embeds once
        // through the encoder's tape op, and a row gather fans the rows
        // back out, so a repeated context's gradients scatter-add into
        // one embedding row. Rows are keyed by context index, the
        // grouping the committed checkpoints were trained with: keying
        // them by sample content would regroup the gradient sums of
        // contexts that share a sample.
        let repeats = RowAlias::from_keys(idxs.iter().map(|&i| batch[i].ctx));
        let distinct: Vec<&PathSample> = repeats
            .firsts()
            .iter()
            .map(|&r| env.context(batch[idxs[r]].ctx))
            .collect();
        let embedded = self.embedder.forward_batch(&mut g, &distinct);
        let obs = g.gather_rows(embedded, repeats.slots());
        let pol = self.policy.forward(&mut g, obs);

        let adv = g.input(Tensor::from_vec(
            n,
            1,
            idxs.iter().map(|&i| batch[i].advantage).collect(),
        ));
        let logp_old = g.input(Tensor::from_vec(
            n,
            1,
            idxs.iter().map(|&i| batch[i].logp_old).collect(),
        ));
        let returns = g.input(Tensor::from_vec(
            n,
            1,
            idxs.iter().map(|&i| batch[i].reward as f32).collect(),
        ));

        let (logp_new, entropy) = match self.cfg.action_space {
            ActionSpaceKind::Discrete => {
                let lv = pol.logits_vf.expect("discrete");
                let li = pol.logits_if.expect("discrete");
                let lsm_v = g.log_softmax_rows(lv);
                let lsm_i = g.log_softmax_rows(li);
                let av: Vec<usize> = idxs.iter().map(|&i| batch[i].action.0).collect();
                let ai: Vec<usize> = idxs.iter().map(|&i| batch[i].action.1).collect();
                let pv = g.pick_per_row(lsm_v, &av);
                let pi = g.pick_per_row(lsm_i, &ai);
                let logp = g.add(pv, pi);
                let ent = {
                    let e1 = categorical_entropy(&mut g, lv, lsm_v);
                    let e2 = categorical_entropy(&mut g, li, lsm_i);
                    g.add(e1, e2)
                };
                let ent_mean = g.mean_all(ent);
                (logp, ent_mean)
            }
            ActionSpaceKind::Continuous1D | ActionSpaceKind::Continuous2D => {
                let dims = if self.cfg.action_space == ActionSpaceKind::Continuous1D {
                    1
                } else {
                    2
                };
                let mu = pol.mu.expect("continuous");
                let ls_param = self.policy.log_std().expect("continuous");
                let ls = g.param(ls_param); // 1 × dims
                let actions = g.input(Tensor::from_vec(
                    n,
                    dims,
                    idxs.iter()
                        .flat_map(|&i| batch[i].raw[..dims].iter().copied())
                        .collect(),
                ));
                // logp = Σ_d [ -0.5((x-μ)/σ)² - logσ - 0.5 ln 2π ]
                let diff = g.sub(actions, mu);
                let neg_ls = g.scale(ls, -1.0);
                let inv_std_row = g.exp(neg_ls); // 1 × dims
                let ones = g.input(Tensor::full(n, 1, 1.0));
                let inv_std = g.matmul(ones, inv_std_row); // n × dims
                let z = g.mul_elem(diff, inv_std);
                let z2 = g.mul_elem(z, z);
                let half_z2 = g.scale(z2, -0.5);
                let ls_b = g.matmul(ones, ls); // broadcast logσ
                let t1 = g.sub(half_z2, ls_b);
                let t2 = g.add_scalar(t1, -0.918_938_5); // −½ln2π
                                                         // Row-sum over dims → n × 1.
                let ones_d = g.input(Tensor::full(dims, 1, 1.0));
                let logp = g.matmul(t2, ones_d);
                // Entropy = Σ_d (½ + ½ln2π + logσ).
                let ent_row = g.add_scalar(ls, 1.418_938_5);
                let ent = g.sum_all(ent_row);
                (logp, ent)
            }
        };

        // Clipped surrogate.
        let delta = g.sub(logp_new, logp_old);
        let ratio = g.exp(delta);
        let s1 = g.mul_elem(ratio, adv);
        let clipped = g.clamp(ratio, 1.0 - CLIP, 1.0 + CLIP);
        let s2 = g.mul_elem(clipped, adv);
        let surr = g.minimum(s1, s2);
        let surr_mean = g.mean_all(surr);
        let policy_loss = g.scale(surr_mean, -1.0);

        // Value regression to the reward.
        let vdiff = g.sub(pol.value, returns);
        let vsq = g.mul_elem(vdiff, vdiff);
        let value_loss = g.mean_all(vsq);

        let vterm = g.scale(value_loss, VF_COEF);
        let eterm = g.scale(entropy, -ENT_COEF);
        let partial = g.add(policy_loss, vterm);
        let total = g.add(partial, eterm);

        let pl = f64::from(g.value(policy_loss).data()[0]);
        let vl = f64::from(g.value(value_loss).data()[0]);
        let en = f64::from(g.value(entropy).data()[0]);
        let tl = f64::from(g.value(total).data()[0]);

        g.backward(total);
        let grads = g.param_grads();
        drop(g);
        let _timer = nvc_obs::time_op(nvc_obs::Op::OptimStep);
        for (p, grad) in grads {
            self.store.grad_tensor_mut(p).add_scaled(&grad, 1.0);
            self.arena.recycle(grad);
        }
        self.store.clip_grad_norm(MAX_GRAD_NORM);
        self.adam.step(&mut self.store);
        self.store.zero_grads();

        (pl, vl, en, tl)
    }
}

/// Stacked per-row outputs of one policy forward: the value column plus
/// whichever heads the action space has.
struct PolicyRows {
    values: Vec<f32>,
    logits_vf: Option<Tensor>,
    logits_if: Option<Tensor>,
    mus: Option<Tensor>,
}

/// `-Σ p log p` per row, as an `n × 1` node.
fn categorical_entropy(g: &mut Graph<'_>, logits: NodeId, log_probs: NodeId) -> NodeId {
    let p = g.softmax_rows(logits);
    let plp = g.mul_elem(p, log_probs);
    let cols = g.value(plp).cols();
    let ones = g.input(Tensor::full(cols, 1, 1.0));
    let row_sum = g.matmul(plp, ones);
    g.scale(row_sum, -1.0)
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Samples from a categorical given raw logits and one uniform draw;
/// returns `(index, logp)`. A pure function of the draw, so the batched
/// collection path can pre-draw its uniforms in per-sample order and
/// still produce bitwise-identical actions.
fn sample_categorical_with(logits: &[f32], mut u: f32) -> (usize, f32) {
    let m = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| (l - m).exp()).collect();
    let z: f32 = exps.iter().sum();
    for (i, &e) in exps.iter().enumerate() {
        let p = e / z;
        if u < p || i == exps.len() - 1 {
            return (i, (p.max(1e-12)).ln());
        }
        u -= p;
    }
    unreachable!("categorical sampling always returns in the loop");
}

/// Standard normal via Box–Muller, as a pure function of its two uniform
/// draws (`u1` must be in `(0, 1]`).
fn gaussian_from(u1: f32, u2: f32) -> f32 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

fn gaussian_logp(x: f32, mu: f32, std: f32) -> f32 {
    let z = (x - mu) / std;
    -0.5 * z * z - std.ln() - 0.918_938_5
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_nn::{kernels, KernelMode};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The kernel mode is process-wide: held by the tests that compare two
    /// computations bit for bit, while one of them runs both modes.
    static MODE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// [`sample_categorical_with`], drawing its uniform from `rng`.
    fn sample_categorical(logits: &[f32], rng: &mut impl Rng) -> (usize, f32) {
        sample_categorical_with(logits, rng.gen_range(0.0..1.0))
    }

    /// [`gaussian_from`], drawing its two uniforms from `rng`.
    fn gaussian(rng: &mut impl Rng) -> f32 {
        let u1: f32 = rng.gen_range(1e-7..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        gaussian_from(u1, u2)
    }

    /// The seed per-sample collection path, [`PpoTrainer::collect`]'s
    /// oracle: a fresh graph and a single-row forward per rollout sample,
    /// the RNG drawn as each sample needs it — no arena, no batching.
    fn collect_reference(
        trainer: &PpoTrainer,
        env: &mut impl BanditEnv,
        rng: &mut impl Rng,
    ) -> Vec<Transition> {
        let dims = env.action_dims();
        let mut out = Vec::with_capacity(trainer.cfg.train_batch);
        for _ in 0..trainer.cfg.train_batch {
            let ctx = rng.gen_range(0..env.num_contexts());
            let sample = env.context(ctx).clone();
            let mut g = Graph::new(&trainer.store);
            let obs = trainer.embedder.forward(&mut g, &sample);
            let pol = trainer.policy.forward(&mut g, obs);
            let value = g.value(pol.value).data()[0];

            let (action, raw, logp_old) = match trainer.cfg.action_space {
                ActionSpaceKind::Discrete => {
                    let lv = g.value(pol.logits_vf.expect("discrete")).row(0).to_vec();
                    let li = g.value(pol.logits_if.expect("discrete")).row(0).to_vec();
                    let (av, lpv) = sample_categorical(&lv, rng);
                    let (ai, lpi) = sample_categorical(&li, rng);
                    ((av, ai), [0.0, 0.0], lpv + lpi)
                }
                ActionSpaceKind::Continuous1D => {
                    let mu = g.value(pol.mu.expect("continuous")).data()[0];
                    let std = trainer.log_std_values()[0].exp();
                    let x = mu + std * gaussian(rng);
                    let lp = gaussian_logp(x, mu, std);
                    (dims.decode_1d(x), [x, 0.0], lp)
                }
                ActionSpaceKind::Continuous2D => {
                    let m = g.value(pol.mu.expect("continuous")).data().to_vec();
                    let stds = trainer.log_std_values();
                    let x0 = m[0] + stds[0].exp() * gaussian(rng);
                    let x1 = m[1] + stds[1].exp() * gaussian(rng);
                    let lp = gaussian_logp(x0, m[0], stds[0].exp())
                        + gaussian_logp(x1, m[1], stds[1].exp());
                    (dims.decode_2d(x0, x1), [x0, x1], lp)
                }
            };
            drop(g);
            let reward = env.reward(ctx, action);
            out.push(Transition {
                ctx,
                action,
                raw,
                logp_old,
                reward,
                value,
                advantage: 0.0,
            });
        }
        out
    }

    #[test]
    fn categorical_sampling_matches_distribution() {
        let logits = vec![0.0, 1.0, 2.0];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut counts = [0usize; 3];
        for _ in 0..6000 {
            let (i, lp) = sample_categorical(&logits, &mut rng);
            counts[i] += 1;
            assert!(lp <= 0.0);
        }
        // Softmax of [0,1,2] ≈ [0.09, 0.24, 0.67].
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let p2 = counts[2] as f64 / 6000.0;
        assert!((p2 - 0.665).abs() < 0.05, "p2={p2}");
    }

    #[test]
    fn gaussian_logp_is_maximal_at_mean() {
        assert!(gaussian_logp(0.0, 0.0, 1.0) > gaussian_logp(1.0, 0.0, 1.0));
        assert!(gaussian_logp(0.0, 0.0, 1.0) > gaussian_logp(-1.0, 0.0, 1.0));
        // ln N(0;0,1) = −½ln2π ≈ −0.9189.
        assert!((gaussian_logp(0.0, 0.0, 1.0) + 0.918_938_5).abs() < 1e-6);
    }

    #[test]
    fn gaussian_sampler_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn argmax_picks_largest() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax(&[-1.0, -2.0]), 0);
    }

    #[test]
    fn predict_batch_matches_single_predictions() {
        use nvc_embed::EmbedConfig;
        let _guard = MODE.lock().unwrap_or_else(|e| e.into_inner());

        let mk = |base: u32| PathSample {
            starts: vec![base, base + 1, base + 2],
            paths: vec![base * 2, base * 2 + 1, base * 2 + 2],
            ends: vec![base + 5, base + 6, base + 7],
        };
        let mut samples: Vec<PathSample> = (0..9).map(|i| mk(i * 4)).collect();
        // Repeats embed once and fan back out to their rows.
        samples.extend([samples[2].clone(), samples[0].clone()]);
        for kind in [
            ActionSpaceKind::Discrete,
            ActionSpaceKind::Continuous1D,
            ActionSpaceKind::Continuous2D,
        ] {
            let cfg = PpoConfig {
                hidden: vec![16, 16],
                action_space: kind,
                action_dims: ActionDims { n_vf: 7, n_if: 5 },
                ..PpoConfig::default()
            };
            let trainer = PpoTrainer::new(&cfg, &EmbedConfig::fast(), 23);
            let refs: Vec<&PathSample> = samples.iter().collect();
            let batched = trainer.predict_batch(&refs);
            let single: Vec<(usize, usize)> = refs
                .iter()
                .map(|&s| trainer.predict_batch(&[s])[0])
                .collect();
            assert_eq!(batched, single, "batched path diverged for {kind:?}");
        }
        let trainer = PpoTrainer::new(&PpoConfig::default(), &EmbedConfig::fast(), 23);
        assert!(trainer.predict_batch(&[]).is_empty());
    }

    /// A deterministic bandit for parity checks: reward is a pure
    /// function of (context, action).
    struct ParityEnv {
        contexts: Vec<PathSample>,
    }

    impl ParityEnv {
        fn new(n: usize) -> Self {
            let mk = |base: u32| PathSample {
                starts: vec![base, base + 1, base + 2, base + 3],
                paths: vec![base * 2, base * 2 + 1, base * 2 + 4, base * 2 + 5],
                ends: vec![base + 5, base + 6, base + 7, base + 8],
            };
            ParityEnv {
                contexts: (0..n).map(|i| mk(i as u32 * 6)).collect(),
            }
        }
    }

    impl BanditEnv for ParityEnv {
        fn num_contexts(&self) -> usize {
            self.contexts.len()
        }

        fn context(&self, idx: usize) -> &PathSample {
            &self.contexts[idx]
        }

        fn action_dims(&self) -> ActionDims {
            ActionDims { n_vf: 7, n_if: 5 }
        }

        fn reward(&mut self, idx: usize, action: (usize, usize)) -> f64 {
            (idx as f64 * 0.17 - action.0 as f64 * 0.05 + action.1 as f64 * 0.03).sin()
        }
    }

    /// The tentpole invariant: batched collection must produce
    /// *bitwise-identical* transitions to the seed per-sample path under
    /// the same RNG seed — same contexts, actions, raw samples,
    /// log-probs, rewards, and value baselines — for every action space,
    /// in both kernel modes.
    #[test]
    fn batched_collect_matches_reference_bitwise() {
        use nvc_embed::EmbedConfig;

        let _guard = MODE.lock().unwrap_or_else(|e| e.into_inner());
        for mode in [KernelMode::Strict, KernelMode::Fast] {
            kernels::set_kernel_mode(mode);
            for kind in [
                ActionSpaceKind::Discrete,
                ActionSpaceKind::Continuous1D,
                ActionSpaceKind::Continuous2D,
            ] {
                let cfg = PpoConfig {
                    train_batch: 37, // odd, and > contexts so draws repeat
                    hidden: vec![16, 16],
                    action_space: kind,
                    action_dims: ActionDims { n_vf: 7, n_if: 5 },
                    ..PpoConfig::default()
                };
                let mut trainer = PpoTrainer::new(&cfg, &EmbedConfig::fast(), 41);
                let mut env = ParityEnv::new(5);
                // Contexts 1 and 5 read the same sample: collection embeds
                // them once (it groups rows by content), the reference twice.
                env.contexts.push(env.contexts[1].clone());

                let mut rng_ref = ChaCha8Rng::seed_from_u64(9);
                let reference = collect_reference(&trainer, &mut env, &mut rng_ref);
                let mut rng_bat = ChaCha8Rng::seed_from_u64(9);
                let batched = trainer.collect(&mut env, &mut rng_bat);

                assert_eq!(reference.len(), batched.len());
                for (i, (r, b)) in reference.iter().zip(batched.iter()).enumerate() {
                    assert_eq!(r, b, "transition {i} diverged for {kind:?}, {mode}");
                }
                // Both paths must leave the RNG at the same stream position.
                assert_eq!(
                    rng_ref.gen_range(0.0..1.0f64),
                    rng_bat.gen_range(0.0..1.0f64),
                    "RNG stream positions diverged for {kind:?}, {mode}"
                );
            }
        }
        kernels::set_kernel_mode(KernelMode::Strict);
    }

    /// The training-telemetry journal writes exactly one JSON line per
    /// iteration, carrying the same numbers `train_iteration` returned
    /// (so offline curve-plotting needs no second source of truth).
    /// A journal sink the test can read back.
    #[derive(Clone, Default)]
    struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Shared {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    fn journaled_trainer() -> (PpoTrainer, Shared) {
        let cfg = PpoConfig {
            train_batch: 8,
            minibatch: 4,
            epochs: 1,
            hidden: vec![8],
            ..PpoConfig::default()
        };
        let mut trainer = PpoTrainer::new(&cfg, &nvc_embed::EmbedConfig::fast(), 11);
        let sink = Shared::default();
        trainer.set_journal(Some(nvc_obs::Journal::from_writer(Box::new(sink.clone()))));
        (trainer, sink)
    }

    #[test]
    fn journal_records_one_line_per_iteration() {
        let (mut trainer, sink) = journaled_trainer();
        let mut env = ParityEnv::new(3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let stats = trainer.train(&mut env, 2, &mut rng);

        let text = sink.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one journal line per iteration: {text:?}");
        for (i, (line, s)) in lines.iter().zip(&stats).enumerate() {
            let v = Json::parse(line).unwrap();
            let field = |name: &str| v.get(name).and_then(Json::as_f64);
            assert_eq!(
                field("iter"),
                Some((i + 1) as f64),
                "bad iter field: {line}"
            );
            assert_eq!(field("steps"), Some(s.steps as f64));
            assert_eq!(field("reward_mean"), Some(s.reward_mean));
            assert_eq!(field("collect_us"), Some(s.collect_us as f64));
            assert_eq!(field("update_us"), Some(s.update_us as f64));
        }
        // Detaching stops the stream.
        trainer.set_journal(None);
        trainer.train(&mut env, 1, &mut rng);
        assert_eq!(sink.text(), text, "journal kept writing after detach");
    }

    /// A diverged iteration still journals a line every JSON reader takes:
    /// the non-finite fields are `null`, not `NaN` / `inf`.
    #[test]
    fn non_finite_stats_journal_as_null() {
        let (trainer, sink) = journaled_trainer();
        let stats = IterStats {
            steps: 8,
            reward_mean: 0.5,
            loss: f64::NAN,
            policy_loss: 0.0,
            value_loss: 0.0,
            entropy: f64::INFINITY,
            collect_us: 1,
            update_us: 2,
        };
        trainer.journal_iter(&stats, None);
        let text = sink.text();
        let v = Json::parse(text.trim_end()).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert_eq!(v.get("loss"), Some(&Json::Null));
        assert_eq!(v.get("entropy"), Some(&Json::Null));
        assert_eq!(v.get("reward_mean").and_then(Json::as_f64), Some(0.5));
    }

    /// A bandit whose reward is the same constant for every (context,
    /// action) — the degenerate regime early online fine-tuning sits in
    /// when the replay corpus holds one repeated observation.
    struct ConstantEnv {
        contexts: Vec<PathSample>,
    }

    impl BanditEnv for ConstantEnv {
        fn num_contexts(&self) -> usize {
            self.contexts.len()
        }

        fn context(&self, idx: usize) -> &PathSample {
            &self.contexts[idx]
        }

        fn action_dims(&self) -> ActionDims {
            ActionDims { n_vf: 7, n_if: 5 }
        }

        fn reward(&mut self, _idx: usize, _action: (usize, usize)) -> f64 {
            0.25
        }
    }

    #[test]
    fn constant_reward_batch_stays_finite() {
        use nvc_embed::EmbedConfig;

        let cfg = PpoConfig {
            train_batch: 16,
            minibatch: 8,
            epochs: 2,
            hidden: vec![8],
            ..PpoConfig::default()
        };
        let mut trainer = PpoTrainer::new(&cfg, &EmbedConfig::fast(), 13);
        let mut env = ConstantEnv {
            contexts: vec![PathSample {
                starts: vec![1, 2, 3],
                paths: vec![4, 5, 6],
                ends: vec![7, 8, 9],
            }],
        };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let stats = trainer.train_iteration(&mut env, &mut rng);
        assert_eq!(stats.reward_mean, 0.25);
        for (name, x) in [
            ("loss", stats.loss),
            ("policy_loss", stats.policy_loss),
            ("value_loss", stats.value_loss),
            ("entropy", stats.entropy),
        ] {
            assert!(x.is_finite(), "{name} is not finite: {x}");
        }
        // The update must not have poisoned the weights: predictions
        // still work and a second iteration stays finite too.
        let _ = trainer.predict_batch(&[&env.contexts[0]]);
        let again = trainer.train_iteration(&mut env, &mut rng);
        assert!(again.loss.is_finite());
    }

    #[test]
    fn empty_batch_skips_the_update_with_defined_stats() {
        use nvc_embed::EmbedConfig;

        let cfg = PpoConfig {
            train_batch: 0,
            hidden: vec![8],
            ..PpoConfig::default()
        };
        let mut trainer = PpoTrainer::new(&cfg, &EmbedConfig::fast(), 13);
        let mut env = ParityEnv::new(2);
        let before = trainer.predict_batch(&[env.context(0)]);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let stats = trainer.train_iteration(&mut env, &mut rng);
        assert_eq!(stats.steps, 0);
        assert_eq!(stats.reward_mean, 0.0, "empty batch must not yield NaN");
        assert!(stats.reward_mean.is_finite());
        assert_eq!(stats.loss, 0.0);
        // Skipped update: the policy is untouched.
        assert_eq!(trainer.predict_batch(&[env.context(0)]), before);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = PpoConfig::default();
        assert_eq!(c.lr, 5e-5);
        assert_eq!(c.train_batch, 4000);
        assert_eq!(c.hidden, vec![64, 64]);
        assert_eq!(c.action_space, ActionSpaceKind::Discrete);
        assert_eq!(c.action_dims.total(), 35);
        assert_eq!(
            (CLIP, VF_COEF, ENT_COEF, MAX_GRAD_NORM),
            (0.2, 0.5, 0.01, 0.5)
        );
    }
}
