//! The RL environment: loops as contexts, pragma injection as actions,
//! normalized execution-time improvement as reward.
//!
//! §3.3: `reward = (t_baseline − t_RL) / t_baseline`, with a −9 penalty
//! when compilation exceeds ten times the baseline compile time (§3.4).
//! Each context is one innermost loop from the kernel pool; rewards are
//! deterministic, so they are memoized — re-visiting an action costs
//! nothing, exactly like caching compiled binaries would.
//!
//! A context's observation is the code2vec sample of the loop's own
//! statement, taken off the translation unit the front end parsed and
//! lowered ([`Compiler::front_end_sampled`]): each kernel is lexed and
//! parsed once.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;

use nvc_datasets::Kernel;
use nvc_embed::{EmbedConfig, PathSample};
use nvc_ir::LoweredLoop;
use nvc_machine::TargetConfig;
use nvc_rl::{ActionDims, BanditEnv};
use nvc_vectorizer::{ActionSpace, CompileOutcome, VectorDecision, Vectorizer};

use crate::compiler::Compiler;

/// Penalty reward for compile timeouts (§3.4: "equivalent to assuming it
/// takes ten times the execution time of the baseline").
pub const TIMEOUT_PENALTY: f64 = -9.0;

/// One trainable context: a loop plus its pre-computed observation and
/// baseline measurements.
#[derive(Debug, Clone)]
pub struct LoopContext {
    /// Kernel the loop came from.
    pub kernel_index: usize,
    /// The lowered loop.
    pub(crate) lowered: LoweredLoop,
    /// code2vec input: the sample of the loop's own statement, as its
    /// text alone would parse ([`Compiler::front_end_sampled`]). Serving
    /// (`nvc_embed::extract_loop_samples`) embeds the outermost enclosing
    /// nest instead, so a nested loop's two inputs differ. Contexts with
    /// equal samples share one allocation.
    pub sample: Arc<PathSample>,
    /// Baseline nest cycles (the reward denominator).
    pub(crate) baseline_cycles: f64,
    /// Baseline compile time (the timeout budget reference).
    pub(crate) baseline_compile_ms: f64,
}

/// The contextual-bandit environment over a pool of kernels.
#[derive(Debug)]
pub struct VectorizeEnv {
    vectorizer: Vectorizer,
    space: ActionSpace,
    contexts: Vec<LoopContext>,
    kernels: Vec<Kernel>,
    reward_cache: Mutex<HashMap<(usize, usize, usize), f64>>,
    compile_weight: f64,
}

impl VectorizeEnv {
    /// Builds the environment: parses and lowers every kernel, and for
    /// every innermost loop takes the sample of its own statement (not
    /// its enclosing nest) off that one parse and measures the baseline.
    ///
    /// Kernels that fail the front end are skipped (real build systems
    /// skip files that do not compile), and so are loops whose text does
    /// not parse alone.
    ///
    /// A pool holds far fewer distinct samples than loops (64 among the
    /// generator's 8 192 kernels), so each distinct sample is kept once
    /// and shared: the encoder then reads a batch's samples from a few
    /// allocations that stay in cache rather than from one per context.
    pub fn new(kernels: Vec<Kernel>, target: TargetConfig, embed_cfg: &EmbedConfig) -> Self {
        let vectorizer = Vectorizer::new(target.clone());
        let space = ActionSpace::for_target(&target);
        let compiler = Compiler::new(target);
        let mut contexts = Vec::new();
        let mut interned: HashSet<Arc<PathSample>> = HashSet::new();
        for (ki, kernel) in kernels.iter().enumerate() {
            let Ok(loops) = compiler.front_end_sampled(kernel, embed_cfg) else {
                continue;
            };
            for (lowered, sample) in loops {
                let Some(sample) = sample else {
                    continue;
                };
                let sample = match interned.get(&sample) {
                    Some(shared) => Arc::clone(shared),
                    None => {
                        let shared = Arc::new(sample);
                        interned.insert(Arc::clone(&shared));
                        shared
                    }
                };
                let baseline = vectorizer.compile_baseline(&lowered.ir);
                contexts.push(LoopContext {
                    kernel_index: ki,
                    baseline_cycles: baseline.nest_cycles(&lowered.ir).max(1.0),
                    baseline_compile_ms: baseline.compile_ms,
                    lowered,
                    sample,
                });
            }
        }
        VectorizeEnv {
            vectorizer,
            space,
            contexts,
            kernels,
            reward_cache: Mutex::new(HashMap::new()),
            compile_weight: 0.0,
        }
    }

    /// Enables the §3.4 extension: "one can allow a long compilation time
    /// but penalize for it. The reward can also be defined as a
    /// combination of the compilation time, execution time…". With weight
    /// `w`, the reward is reduced by `w × max(0, compile/baseline − 1)`,
    /// so the agent trades execution speed against compile cost instead
    /// of only facing the hard 10× cliff.
    pub(crate) fn with_compile_weight(mut self, w: f64) -> Self {
        self.compile_weight = w;
        self.reward_cache.lock().clear();
        self
    }

    /// The loop contexts (read-only).
    pub fn contexts(&self) -> &[LoopContext] {
        &self.contexts
    }

    /// The kernels backing the environment.
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// The action space in use.
    pub fn space(&self) -> &ActionSpace {
        &self.space
    }

    /// The reward of `decision` on context `idx` (memoized).
    pub fn reward_of_decision(&self, idx: usize, decision: VectorDecision) -> f64 {
        let key = (idx, decision.vf as usize, decision.if_ as usize);
        if let Some(r) = self.reward_cache.lock().get(&key) {
            return *r;
        }
        let ctx = &self.contexts[idx];
        let compiled = self.vectorizer.compile(&ctx.lowered.ir, decision);
        let outcome = CompileOutcome::from_times(compiled.compile_ms, ctx.baseline_compile_ms);
        let r = if outcome.timed_out() {
            TIMEOUT_PENALTY
        } else {
            let t = compiled.nest_cycles(&ctx.lowered.ir);
            // The penalty is defined as "equivalent to assuming it takes
            // ten times the execution time of the baseline" (§3.4), so −9
            // also floors the execution-time reward: nothing is treated as
            // worse than a timeout.
            let exec = ((ctx.baseline_cycles - t) / ctx.baseline_cycles).max(TIMEOUT_PENALTY);
            let compile_pen = self.compile_weight
                * (compiled.compile_ms / ctx.baseline_compile_ms - 1.0).max(0.0);
            (exec - compile_pen).max(TIMEOUT_PENALTY)
        };
        self.reward_cache.lock().insert(key, r);
        r
    }

    /// Brute-force labels: best `(vf_idx, if_idx)` per context — the
    /// supervision NNS/decision trees need (§3.5).
    pub(crate) fn brute_force_labels(&self) -> Vec<(usize, usize)> {
        (0..self.contexts.len())
            .map(|i| {
                nvc_agents::brute_force_best(self.action_dims(), |(v, f)| {
                    self.reward_of_decision(i, self.space.decision_from_pair(v, f))
                })
                .0
            })
            .collect()
    }
}

impl BanditEnv for VectorizeEnv {
    fn num_contexts(&self) -> usize {
        self.contexts.len()
    }

    fn context(&self, idx: usize) -> &PathSample {
        &self.contexts[idx].sample
    }

    fn action_dims(&self) -> ActionDims {
        ActionDims {
            n_vf: self.space.vfs.len(),
            n_if: self.space.ifs.len(),
        }
    }

    fn reward(&mut self, idx: usize, action: (usize, usize)) -> f64 {
        let decision = self.space.decision_from_pair(action.0, action.1);
        self.reward_of_decision(idx, decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_datasets::generator;

    fn small_env() -> VectorizeEnv {
        VectorizeEnv::new(
            generator::generate(3, 8),
            TargetConfig::i7_8559u(),
            &EmbedConfig::fast(),
        )
    }

    #[test]
    fn env_builds_contexts_for_all_loops() {
        let env = small_env();
        assert!(env.num_contexts() >= 8, "got {}", env.num_contexts());
        for c in env.contexts() {
            assert!(c.baseline_cycles > 0.0);
            assert!(!c.sample.is_empty());
        }
    }

    #[test]
    fn baseline_action_has_zero_reward() {
        // Choosing exactly what the baseline chooses must give reward ≈ 0.
        let env = small_env();
        for i in 0..env.num_contexts() {
            let d = env.contexts()[i].lowered.ir.clone();
            let baseline = Vectorizer::new(TargetConfig::i7_8559u()).baseline_decision(&d);
            let r = env.reward_of_decision(i, baseline);
            assert!(
                r.abs() < 1e-9,
                "context {i}: baseline reward should be 0, got {r}"
            );
        }
    }

    #[test]
    fn rewards_are_bounded_and_cached() {
        let mut env = small_env();
        let dims = env.action_dims();
        for i in 0..env.num_contexts().min(4) {
            for v in 0..dims.n_vf {
                for f in 0..dims.n_if {
                    let r = env.reward(i, (v, f));
                    assert!(
                        (TIMEOUT_PENALTY..=1.0).contains(&r),
                        "reward out of range: {r}"
                    );
                    // Cached: second call returns the identical value.
                    let r2 = env.reward(i, (v, f));
                    assert_eq!(r, r2);
                }
            }
        }
    }

    #[test]
    fn brute_force_labels_maximize_reward() {
        let env = small_env();
        let labels = env.brute_force_labels();
        let dims = env.action_dims();
        for (i, &(bv, bi)) in labels.iter().enumerate().take(4) {
            let best = env.reward_of_decision(i, env.space().decision_from_pair(bv, bi));
            for v in 0..dims.n_vf {
                for f in 0..dims.n_if {
                    let r = env.reward_of_decision(i, env.space().decision_from_pair(v, f));
                    assert!(r <= best + 1e-9);
                }
            }
        }
    }

    #[test]
    fn compile_weight_penalizes_expensive_factors() {
        let env = small_env().with_compile_weight(0.5);
        let plain = small_env();
        // The most aggressive factor compiles slowest; shaping must lower
        // its reward relative to the unshaped environment on at least one
        // context.
        let big = VectorDecision::new(64, 16);
        let mut shaped_lower = false;
        for i in 0..plain.num_contexts() {
            let r_shaped = env.reward_of_decision(i, big);
            let r_plain = plain.reward_of_decision(i, big);
            assert!(r_shaped <= r_plain + 1e-12);
            if r_shaped < r_plain - 1e-9 {
                shaped_lower = true;
            }
        }
        assert!(shaped_lower, "shaping had no effect anywhere");
        // Baseline-equal decisions are unaffected (no extra compile time).
        let d = Vectorizer::new(TargetConfig::i7_8559u())
            .baseline_decision(&plain.contexts()[0].lowered.ir);
        assert_eq!(env.reward_of_decision(0, d), plain.reward_of_decision(0, d));
    }

    /// Training embeds a loop's own text; serving
    /// (`extract_loop_samples`) embeds its outermost nest (§3.3). Every
    /// PolyBench loop is nested, so every one is embedded differently.
    #[test]
    #[ignore = "training embeds the loop, serving the outermost nest: ROADMAP item 1 (a)"]
    fn training_embeds_polybench_loops_as_serving_does() {
        let cfg = EmbedConfig::fast();
        let kernels = nvc_datasets::polybench::polybench();
        let env = VectorizeEnv::new(kernels.clone(), TargetConfig::i7_8559u(), &cfg);
        let mut differ = Vec::new();
        for c in env.contexts() {
            let k = &kernels[c.kernel_index];
            let sites = nvc_embed::extract_loop_samples(&k.source, &cfg).expect("parses");
            let served = sites
                .iter()
                .find(|s| s.header_line == c.lowered.header_line)
                .expect("a served site at the loop's header");
            if served.sample != *c.sample {
                differ.push(format!("{}:{}", k.name, c.lowered.header_line));
            }
        }
        assert!(
            differ.is_empty(),
            "{} of {} loops differ: {differ:?}",
            differ.len(),
            env.num_contexts()
        );
    }

    #[test]
    fn contexts_embed_distinctly_across_families() {
        let env = small_env();
        let mut distinct = std::collections::HashSet::new();
        for c in env.contexts() {
            distinct.insert(format!("{:?}", c.sample));
        }
        assert!(distinct.len() > env.num_contexts() / 2);
    }
}
