//! The end-to-end framework: train once, then vectorize arbitrary source.
//!
//! Figure 3's outer box. After training, "it can be plugged in as is for
//! inference without further retraining" — [`NeuroVectorizer::vectorize_source`]
//! is that inference product: it reads C source, predicts `(VF, IF)` for
//! every innermost loop and returns the source with pragmas injected
//! (Figure 4).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use nvc_embed::{extract_loop_samples, EmbedConfig, PathSample};
use nvc_frontend::{inject_pragmas_at, FrontendError, LoopPragma};
use nvc_hub::HubConfig;
use nvc_machine::TargetConfig;
use nvc_rl::{ActionDims, IterStats, PpoConfig, PpoTrainer};
use nvc_serve::{DecisionModel, ServeConfig, ServeHandle};
use nvc_vectorizer::{ActionSpace, VectorDecision};

use crate::env::VectorizeEnv;

/// Top-level configuration for the framework.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NvConfig {
    /// Target machine description.
    pub target: TargetConfig,
    /// Embedding-network configuration.
    pub embed: EmbedConfig,
    /// PPO configuration.
    pub ppo: PpoConfig,
    /// Serving-layer configuration (`nvc serve`, [`NeuroVectorizer::serve`]).
    pub serve: ServeConfig,
    /// Hub-tier configuration (`nvc hub`: TCP transport, model registry,
    /// persistent cache).
    pub hub: HubConfig,
    /// Numeric contract of the `nvc-nn` kernels, applied process-wide by
    /// [`NeuroVectorizer::new`] (`nvc_nn::kernels::set_kernel_mode`).
    /// `Strict` (the default) keeps the bitwise-parity kernels — what
    /// training and reproduction runs want; `Fast` enables fused-FMA
    /// accumulators, the online softmax, the rational `tanh` and, in
    /// the inference forward, the factored
    /// projection (each table row's share computed once per set of
    /// weights and kept) and the lane-split score dot — ε-close to
    /// strict with identical decisions, which is why `nvc serve` and
    /// `nvc hub` set it. This field is the one selector: every other `nvc`
    /// subcommand runs strict.
    pub kernel_mode: nvc_nn::KernelMode,
    /// Seed for parameter init and exploration.
    pub seed: u64,
}

impl NvConfig {
    /// The paper's configuration: 340-dim code vectors, 64×64 FCNN, batch
    /// 4000, lr 5e-5 (§4).
    pub fn paper() -> Self {
        let target = TargetConfig::i7_8559u();
        let dims = ActionDims {
            n_vf: target.vf_candidates().len(),
            n_if: target.if_candidates().len(),
        };
        NvConfig {
            target,
            embed: EmbedConfig::paper(),
            ppo: PpoConfig {
                action_dims: dims,
                ..PpoConfig::default()
            },
            serve: ServeConfig::default(),
            hub: HubConfig::default(),
            kernel_mode: nvc_nn::KernelMode::Strict,
            seed: 0,
        }
    }

    /// A reduced configuration for tests and quick experiments: small
    /// embedding tables, small batches, higher learning rate.
    pub fn fast() -> Self {
        let target = TargetConfig::i7_8559u();
        let dims = ActionDims {
            n_vf: target.vf_candidates().len(),
            n_if: target.if_candidates().len(),
        };
        NvConfig {
            target,
            embed: EmbedConfig::fast(),
            ppo: PpoConfig {
                lr: 2e-3,
                train_batch: 256,
                minibatch: 64,
                epochs: 4,
                hidden: vec![32, 32],
                action_dims: dims,
                ..PpoConfig::default()
            },
            serve: ServeConfig::default(),
            hub: HubConfig::default(),
            kernel_mode: nvc_nn::KernelMode::Strict,
            seed: 0,
        }
    }

    /// Overrides the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the kernel numeric contract (builder style). This
    /// changes low-order result bits (never decisions): see
    /// [`nvc_nn::KernelMode`].
    pub fn with_kernel_mode(mut self, mode: nvc_nn::KernelMode) -> Self {
        self.kernel_mode = mode;
        self
    }
}

/// The trained (or trainable) NeuroVectorizer.
#[derive(Debug)]
pub struct NeuroVectorizer {
    cfg: NvConfig,
    trainer: PpoTrainer,
    rng: ChaCha8Rng,
}

impl NeuroVectorizer {
    /// Creates an untrained framework instance.
    ///
    /// Applies `cfg.kernel_mode` process-wide
    /// (`nvc_nn::kernels::set_kernel_mode`) so everything downstream of
    /// this model — training iterations, `nvc-serve` worker flushes, hub
    /// `reload`s through [`NeuroVectorizer::hub_loader`] — runs the
    /// configured kernels. The knob is last-writer-wins across instances
    /// and decision-neutral (strict and fast differ only in low-order
    /// float bits), so a late-constructed instance can change the
    /// numerics of a colocated one's floats but never its answers.
    pub fn new(cfg: NvConfig) -> Self {
        nvc_nn::kernels::set_kernel_mode(cfg.kernel_mode);
        let trainer = PpoTrainer::new(&cfg.ppo, &cfg.embed, cfg.seed);
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed.wrapping_add(0x9E37));
        NeuroVectorizer { cfg, trainer, rng }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NvConfig {
        &self.cfg
    }

    /// The underlying PPO trainer.
    pub fn trainer(&self) -> &PpoTrainer {
        &self.trainer
    }

    /// Trains for `iterations` PPO iterations on `env`.
    pub fn train(&mut self, env: &mut VectorizeEnv, iterations: usize) -> Vec<IterStats> {
        self.trainer.train(env, iterations, &mut self.rng)
    }

    /// Attaches (or detaches, with `None`) a training-telemetry journal:
    /// every iteration appends one JSON line — reward, losses, entropy,
    /// per-phase wall-clock (see [`PpoTrainer::set_journal`]). The `nvc
    /// train --journal FILE` flag plumbs through here.
    pub fn set_train_journal(&mut self, journal: Option<nvc_obs::Journal>) {
        self.trainer.set_journal(journal);
    }

    /// Greedy decision for one loop observation: the one-row
    /// [`PpoTrainer::predict_batch`].
    pub fn decide(&self, sample: &PathSample, space: &ActionSpace) -> VectorDecision {
        let (v, i) = self.trainer.predict_batch(&[sample])[0];
        space.decision_from_pair(v, i)
    }

    /// Embeds loop samples with the trained encoder (for NNS/decision
    /// trees, §3.5) in **one** tape-free forward
    /// ([`nvc_embed::CodeEmbedder::infer_rows`], the forward serving runs).
    /// Row `i` is `samples[i]`'s embedding whatever its batch-mates.
    pub fn encode_batch(&self, samples: &[&PathSample]) -> Vec<Vec<f32>> {
        let rows = self
            .trainer
            .embedder()
            .infer_rows(self.trainer.store(), samples);
        (0..samples.len()).map(|r| rows.row(r).to_vec()).collect()
    }

    /// Serializes all trained weights (embedding + policy) to the
    /// `nvc-nn` checkpoint format.
    pub fn checkpoint(&self) -> String {
        nvc_nn::serialize::to_string(self.trainer.store())
    }

    /// Content hash of the currently loaded weights — the version key
    /// the hub tier stamps on persisted decision caches. Equals
    /// `nvc_nn::serialize::checkpoint_hash_text` of
    /// [`NeuroVectorizer::checkpoint`].
    pub fn checkpoint_hash(&self) -> u64 {
        nvc_nn::serialize::checkpoint_hash(self.trainer.store())
    }

    /// Builds the checkpoint loader the hub's `reload` verb (and the
    /// `nvc hub` CLI) uses: reads a checkpoint file, restores it into a
    /// fresh model built from `cfg`, and returns the model plus the
    /// content hash of its live weights.
    pub fn hub_loader(cfg: NvConfig) -> nvc_hub::CheckpointLoader {
        Box::new(move |path: &str| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let mut nv = NeuroVectorizer::new(cfg.clone());
            nv.restore(&text).map_err(|e| format!("{path}: {e}"))?;
            let hash = nv.checkpoint_hash();
            Ok((
                std::sync::Arc::new(nv) as std::sync::Arc<dyn DecisionModel>,
                hash,
            ))
        })
    }

    /// Fine-tunes the current weights on any [`nvc_rl::BanditEnv`] —
    /// notably an [`nvc_rl::ReplayEnv`] over journaled serve traffic.
    /// Same PPO loop as [`NeuroVectorizer::train`], different reward
    /// oracle.
    pub(crate) fn fine_tune(
        &mut self,
        env: &mut impl nvc_rl::BanditEnv,
        iterations: usize,
    ) -> Vec<IterStats> {
        self.trainer.train(env, iterations, &mut self.rng)
    }

    /// Builds the challenger trainer the hub's online-learning loop
    /// uses: restore the champion checkpoint into a fresh model built
    /// from `cfg`, replay the journaled reports into a
    /// [`nvc_rl::ReplayEnv`], fine-tune for `iterations`, and write the
    /// challenger checkpoint to the output path. A record whose sample
    /// does not fit `cfg.embed`'s tables is an error naming it, not a
    /// panic in the learner thread. Mirrors
    /// [`NeuroVectorizer::hub_loader`]'s closure pattern so `nvc-hub`
    /// stays decoupled from this crate.
    pub fn challenger_trainer(cfg: NvConfig, iterations: usize) -> nvc_hub::ChallengerTrainer {
        Box::new(move |records, champion_path, out_path| {
            let text = std::fs::read_to_string(champion_path)
                .map_err(|e| format!("read {champion_path}: {e}"))?;
            let mut nv = NeuroVectorizer::new(cfg.clone());
            nv.restore(&text)
                .map_err(|e| format!("{champion_path}: {e}"))?;
            let unfit = records
                .iter()
                .enumerate()
                .find(|(_, r)| !r.sample.fits(&cfg.embed));
            if let Some((i, r)) = unfit {
                return Err(format!(
                    "report record {i} (model {}, key {:016x}) does not fit the embedding \
                     tables ({} token rows, {} path rows)",
                    r.model, r.key, cfg.embed.token_buckets, cfg.embed.path_buckets
                ));
            }
            let mut env = nvc_rl::ReplayEnv::new(cfg.ppo.action_dims, 0.0);
            for r in records {
                env.record(&r.sample, (r.vf_idx, r.if_idx), r.reward);
            }
            if env.is_empty() {
                return Err("empty replay corpus".to_string());
            }
            nv.fine_tune(&mut env, iterations);
            let tmp = format!("{out_path}.tmp");
            std::fs::write(&tmp, nv.checkpoint()).map_err(|e| format!("write {tmp}: {e}"))?;
            std::fs::rename(&tmp, out_path).map_err(|e| format!("rename {tmp}: {e}"))
        })
    }

    /// Restores weights from a checkpoint produced by
    /// [`NeuroVectorizer::checkpoint`]. The configuration must match the
    /// one the checkpoint was trained with.
    ///
    /// # Errors
    ///
    /// Returns an error when the checkpoint is malformed or shapes
    /// mismatch.
    pub fn restore(
        &mut self,
        checkpoint: &str,
    ) -> Result<(), nvc_nn::serialize::ParseCheckpointError> {
        nvc_nn::serialize::load_into(self.trainer.store_mut(), checkpoint)
    }

    /// The inference product (Figure 4): injects a
    /// `#pragma clang loop vectorize_width(V) interleave_count(I)` above
    /// every innermost loop of `source`, chosen by the trained policy.
    ///
    /// # Errors
    ///
    /// Returns a [`FrontendError`] if `source` does not parse.
    pub fn vectorize_source(&self, source: &str) -> Result<String, FrontendError> {
        let space = ActionSpace::for_target(&self.cfg.target);
        let sites = extract_loop_samples(source, &self.cfg.embed)?;
        let samples: Vec<&PathSample> = sites.iter().map(|site| &site.sample).collect();
        let pragmas: Vec<(u32, u32, LoopPragma)> = sites
            .iter()
            .zip(self.trainer.predict_batch(&samples))
            .map(|(site, (v, i))| {
                let d = space.decision_from_pair(v, i);
                (
                    site.header_line,
                    site.header_col,
                    LoopPragma {
                        vectorize_width: d.vf,
                        interleave_count: d.if_,
                    },
                )
            })
            .collect();
        Ok(inject_pragmas_at(source, &pragmas))
    }

    /// Moves this (typically trained) model into a running
    /// [`ServeHandle`] configured by `cfg.serve`: the long-lived serving
    /// product with decision caching and batched inference, in process.
    pub fn serve(self) -> ServeHandle {
        let cfg = self.cfg.serve.clone();
        ServeHandle::start(std::sync::Arc::new(self), cfg)
    }

    /// Moves this model into `nvc serve`'s hub: the one model, registered
    /// as `default` and sized by `cfg.serve`, with no checkpoint loader,
    /// no learning and no cache file. [`nvc_hub::serve_stdio`] speaks the
    /// hub protocol to it over stdin/stdout.
    pub fn into_hub(self) -> nvc_hub::Hub {
        let hub = nvc_hub::Hub::new(nvc_hub::HubConfig::default(), self.cfg.serve.clone());
        let spec = nvc_hub::ModelSpec {
            name: "default".to_string(),
            weight: 1,
            checkpoint_hash: self.checkpoint_hash(),
            model: std::sync::Arc::new(self),
        };
        hub.register(spec)
            .expect("an empty hub takes any valid name");
        hub
    }
}

/// The serving layer drives the trained model through this interface:
/// batched greedy decisions, one graph per batch
/// ([`PpoTrainer::predict_batch`]).
impl DecisionModel for NeuroVectorizer {
    fn embed_config(&self) -> &EmbedConfig {
        &self.cfg.embed
    }

    fn target(&self) -> &TargetConfig {
        &self.cfg.target
    }

    fn decide_batch(&self, samples: &[&PathSample]) -> Vec<(usize, usize)> {
        self.trainer.predict_batch(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_datasets::generator;
    use nvc_frontend::{extract_loops, parse_translation_unit};

    #[test]
    fn vectorize_source_injects_pragmas_on_all_innermost_loops() {
        let nv = NeuroVectorizer::new(NvConfig::fast());
        let src = "float a[1024]; float b[1024]; float M[64][64];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] * 2.0;
    }
    for (int i = 0; i < 64; i++) {
        for (int j = 0; j < 64; j++) {
            M[i][j] = 0.0;
        }
    }
}";
        let out = nv.vectorize_source(src).expect("vectorize");
        assert_eq!(out.matches("#pragma clang loop").count(), 2);
        // The result still parses and the pragmas attach to loops.
        let tu = parse_translation_unit(&out).unwrap();
        let loops = extract_loops(&tu, &out);
        let with_pragma = loops.iter().filter(|l| l.pragma.is_some()).count();
        assert_eq!(with_pragma, 2);
        // Only innermost loops are annotated (the outer i loop is not).
        for l in &loops {
            if !l.is_innermost {
                assert!(l.pragma.is_none());
            }
        }
    }

    #[test]
    fn training_improves_reward_on_small_pool() {
        let cfg = NvConfig::fast();
        let mut env = VectorizeEnv::new(generator::generate(1, 24), cfg.target.clone(), &cfg.embed);
        let mut nv = NeuroVectorizer::new(cfg);
        let stats = nv.train(&mut env, 12);
        let first = stats.first().unwrap().reward_mean;
        let last = stats.last().unwrap().reward_mean;
        assert!(
            last > first,
            "training did not improve reward: {first:.3} → {last:.3}"
        );
        // A trained policy should produce positive mean reward (better
        // than baseline on average).
        assert!(last > -0.5, "reward collapsed: {last}");
    }

    /// A journaled record whose sample indexes past the tables reaches
    /// the challenger trainer as an error naming the record — on a hub,
    /// a panic here ended the learner thread silently, and a restart
    /// replayed the line into the same panic. The valid corpus still
    /// trains.
    #[test]
    fn challenger_trainer_refuses_a_record_outside_the_tables() {
        let cfg = NvConfig::fast();
        let dir = std::env::temp_dir().join(format!("nvc-challenger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (champion, out) = (dir.join("champion.ckpt"), dir.join("challenger.ckpt"));
        std::fs::write(&champion, NeuroVectorizer::new(cfg.clone()).checkpoint()).unwrap();
        let record = |key: u64, sample: PathSample| nvc_hub::ReportRecord {
            model: "prod".to_string(),
            checkpoint_hash: 1,
            key,
            vf_idx: 0,
            if_idx: 0,
            reward: 0.25,
            sample,
        };
        let fits = PathSample {
            starts: vec![1, 2],
            paths: vec![3, 4],
            ends: vec![5, 6],
        };
        let mut past_tokens = fits.clone();
        past_tokens.starts[1] = 999_999;
        let mut past_paths = fits.clone();
        past_paths.paths[0] = cfg.embed.path_buckets as u32;
        let mut ragged = fits.clone();
        ragged.paths.push(7);
        let train = NeuroVectorizer::challenger_trainer(cfg, 1);
        let (champion, out) = (champion.to_str().unwrap(), out.to_str().unwrap());
        for bad in [past_tokens, past_paths, ragged] {
            let records = [record(7, fits.clone()), record(0xBAD, bad)];
            let err = train(&records, champion, out).expect_err("an unfit record must be refused");
            assert!(
                err.contains("report record 1") && err.contains("0000000000000bad"),
                "{err}"
            );
        }
        train(&[record(7, fits)], champion, out).expect("a fitting corpus trains");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_roundtrip_preserves_decisions() {
        let cfg = NvConfig::fast().with_seed(5);
        let mut env = VectorizeEnv::new(generator::generate(5, 16), cfg.target.clone(), &cfg.embed);
        let mut nv = NeuroVectorizer::new(cfg.clone());
        nv.train(&mut env, 4);
        let ckpt = nv.checkpoint();
        let space = env.space().clone();
        let decisions: Vec<_> = env
            .contexts()
            .iter()
            .map(|c| nv.decide(&c.sample, &space))
            .collect();

        // A fresh instance with different init restores to the same
        // behaviour.
        let mut nv2 = NeuroVectorizer::new(cfg.with_seed(999));
        nv2.restore(&ckpt).expect("restore");
        for (ctx, d) in env.contexts().iter().zip(decisions.iter()) {
            assert_eq!(nv2.decide(&ctx.sample, &space), *d);
        }
    }

    #[test]
    fn restore_rejects_mismatched_architectures() {
        let mut cfg_big = NvConfig::fast();
        cfg_big.ppo.hidden = vec![64, 64];
        let nv_big = NeuroVectorizer::new(cfg_big);
        let ckpt = nv_big.checkpoint();
        let mut cfg_small = NvConfig::fast();
        cfg_small.ppo.hidden = vec![16, 16];
        let mut nv_small = NeuroVectorizer::new(cfg_small);
        assert!(nv_small.restore(&ckpt).is_err());
    }

    #[test]
    fn encode_batch_rows_match_one_row_batches() {
        let cfg = NvConfig::fast();
        let env = VectorizeEnv::new(generator::generate(3, 10), cfg.target.clone(), &cfg.embed);
        let nv = NeuroVectorizer::new(cfg);
        let samples: Vec<&nvc_embed::PathSample> =
            env.contexts().iter().map(|c| &*c.sample).collect();
        let batched = nv.encode_batch(&samples);
        assert_eq!(batched.len(), samples.len());
        for (&s, row) in samples.iter().zip(batched.iter()) {
            assert_eq!(row, &nv.encode_batch(&[s])[0], "batched embedding diverged");
        }
    }

    /// The serve flush site's contract: an empty batch is answered with
    /// an empty decision list, never a panic in a daemon worker.
    #[test]
    fn decide_batch_of_nothing_is_empty_not_a_panic() {
        let nv = NeuroVectorizer::new(NvConfig::fast());
        assert!(nv.decide_batch(&[]).is_empty());
    }

    #[test]
    fn decisions_are_deterministic_after_training() {
        let cfg = NvConfig::fast();
        let env = VectorizeEnv::new(generator::generate(2, 8), cfg.target.clone(), &cfg.embed);
        let nv = NeuroVectorizer::new(cfg);
        let space = env.space().clone();
        let d1 = nv.decide(&env.contexts()[0].sample, &space);
        let d2 = nv.decide(&env.contexts()[0].sample, &space);
        assert_eq!(d1, d2);
    }
}
