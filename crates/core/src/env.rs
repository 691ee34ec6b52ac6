//! The RL environment: loops as contexts, pragma injection as actions,
//! normalized execution-time improvement as reward.
//!
//! §3.3: `reward = (t_baseline − t_RL) / t_baseline`, with a −9 penalty
//! when compilation exceeds ten times the baseline compile time (§3.4).
//! Each context is one innermost loop from the kernel pool; rewards are
//! deterministic, so they are memoized — re-visiting an action costs
//! nothing, exactly like caching compiled binaries would.

use std::collections::HashMap;

use parking_lot::Mutex;

use nvc_datasets::Kernel;
use nvc_embed::{EmbedConfig, PathSample};
use nvc_frontend::parse_statement;
use nvc_ir::LoweredLoop;
use nvc_machine::TargetConfig;
use nvc_rl::{ActionDims, BanditEnv};
use nvc_vectorizer::{ActionSpace, CompileOutcome, VectorDecision, Vectorizer};

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
    pub lowered: LoweredLoop,
    /// code2vec input (hashed path contexts of the outermost nest text).
    pub sample: PathSample,
    /// Baseline nest cycles (the reward denominator).
    pub baseline_cycles: f64,
    /// Baseline compile time (the timeout budget reference).
    pub baseline_compile_ms: f64,
}

/// The contextual-bandit environment over a pool of kernels.
#[derive(Debug)]
pub struct VectorizeEnv {
    vectorizer: Vectorizer,
    space: ActionSpace,
    contexts: Vec<LoopContext>,
    kernels: Vec<Kernel>,
    reward_cache: Mutex<HashMap<(usize, usize, usize), f64>>,
    steps_taken: u64,
    compile_weight: f64,
}

impl VectorizeEnv {
    /// Builds the environment: parses and lowers every kernel, extracts
    /// every innermost loop, embeds its nest text and measures the
    /// baseline.
    ///
    /// Kernels that fail the front end are skipped (real build systems
    /// skip files that do not compile).
    pub fn new(kernels: Vec<Kernel>, target: TargetConfig, embed_cfg: &EmbedConfig) -> Self {
        let vectorizer = Vectorizer::new(target.clone());
        let space = ActionSpace::for_target(&target);
        let mut contexts = Vec::new();
        for (ki, kernel) in kernels.iter().enumerate() {
            let compiler = crate::compiler::Compiler::new(target.clone());
            let Ok(loops) = compiler.front_end(kernel) else {
                continue;
            };
            for lowered in loops {
                let Ok(stmt) = parse_statement(&lowered.nest_text) else {
                    continue;
                };
                let sample = PathSample::from_stmt(&stmt, embed_cfg);
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
            steps_taken: 0,
            compile_weight: 0.0,
        }
    }

    /// Enables the §3.4 extension: "one can allow a long compilation time
    /// but penalize for it. The reward can also be defined as a
    /// combination of the compilation time, execution time…". With weight
    /// `w`, the reward is reduced by `w × max(0, compile/baseline − 1)`,
    /// so the agent trades execution speed against compile cost instead
    /// of only facing the hard 10× cliff.
    pub fn with_compile_weight(mut self, w: f64) -> Self {
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

    /// Total environment steps taken (compilations, §4's x-axis).
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
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
    pub fn brute_force_labels(&self) -> Vec<(usize, usize)> {
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
        self.steps_taken += 1;
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
        assert!(env.steps_taken() > 0);
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
