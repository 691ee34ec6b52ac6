//! The loop vectorizer and the baseline cost model.
//!
//! This crate plays the role of LLVM's `LoopVectorize` pass in the paper's
//! pipeline:
//!
//! * `decision` — the `(VF, IF)` decision type and the pragma action
//!   space (`VF ∈ {1,2,…,MAX_VF}`, `IF ∈ {1,2,…,MAX_IF}`, §3.3 eq. 3);
//! * `plan` — the *transform*: given a [`nvc_ir::LoopIr`] and a decision,
//!   emit the widened/interleaved loop as a [`nvc_machine::LoopShape`]
//!   (physical uops, memory streams, recurrences, remainder) after clamping
//!   the request to what dependence analysis allows — "if the agent
//!   accidentally injected bad pragmas, the compiler will ignore it" (§3);
//! * `cost_model` — the **baseline**: a faithful linear, per-instruction
//!   cost model in the style of LLVM's TTI tables. It cannot see recurrence
//!   latency, cache residency or amortization of loop overhead — exactly
//!   the blind spots the paper attributes to fixed cost models (§1, §6) —
//!   and so it systematically picks conservative factors;
//! * `compile_time` — the compile-time model used for the paper's
//!   10×-compile-time timeout and its −9 reward penalty (§3.4).
//!
//! # Example
//!
//! ```
//! use nvc_frontend::parse_translation_unit;
//! use nvc_ir::{lower_innermost_loops, ParamEnv};
//! use nvc_machine::TargetConfig;
//! use nvc_vectorizer::{VectorDecision, Vectorizer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "int a[4096]; int b[4096];
//! void f(int n) { for (int i = 0; i < n; i++) { a[i] = b[i] * 3; } }";
//! let tu = parse_translation_unit(src)?;
//! let env = ParamEnv::new().with("n", 4096);
//! let loops = lower_innermost_loops(&tu, src, &env)?;
//!
//! let vec = Vectorizer::new(TargetConfig::i7_8559u());
//! let baseline = vec.baseline_decision(&loops[0].ir);
//! let compiled = vec.compile(&loops[0].ir, VectorDecision::new(16, 2));
//! assert!(compiled.decision.vf >= 1);
//! # Ok(())
//! # }
//! ```

pub(crate) mod compile_time;
pub(crate) mod cost_model;
pub(crate) mod decision;
pub(crate) mod plan;
pub(crate) mod table;

use serde::{Deserialize, Serialize};

use nvc_ir::LoopIr;
use nvc_machine::{simulate_loop, LoopShape, LoopTiming, TargetConfig};

pub(crate) use compile_time::compile_time_ms;
pub use compile_time::CompileOutcome;
pub(crate) use cost_model::baseline_decision;
pub use decision::{ActionSpace, VectorDecision};
pub(crate) use plan::build_shape;
pub use plan::clamp_decision;

/// A fully "compiled" loop: the clamped decision, the emitted shape, its
/// simulated timing, and the modelled compile time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledLoop {
    /// Decision after legality clamping (what actually ran).
    pub decision: VectorDecision,
    /// The emitted loop shape.
    pub shape: LoopShape,
    /// Simulated execution timing of one innermost-loop execution.
    pub timing: LoopTiming,
    /// Modelled compile time in milliseconds.
    pub compile_ms: f64,
}

impl CompiledLoop {
    /// Total cycles for the whole nest (innermost execution × outer trips).
    pub fn nest_cycles(&self, ir: &LoopIr) -> f64 {
        self.timing.cycles * ir.outer_executions() as f64
    }
}

/// The vectorizer service: owns a target description and compiles loops
/// under explicit or baseline-model decisions.
#[derive(Debug, Clone)]
pub struct Vectorizer {
    target: TargetConfig,
}

impl Vectorizer {
    /// Creates a vectorizer for `target`.
    pub fn new(target: TargetConfig) -> Self {
        Self { target }
    }

    /// The target description in use.
    pub fn target(&self) -> &TargetConfig {
        &self.target
    }

    /// The baseline cost model's decision for `ir` (what `-O3` would do).
    pub fn baseline_decision(&self, ir: &LoopIr) -> VectorDecision {
        baseline_decision(ir, &self.target)
    }

    /// Compiles `ir` under `requested`, clamping to legality, and simulates
    /// its execution.
    pub fn compile(&self, ir: &LoopIr, requested: VectorDecision) -> CompiledLoop {
        let decision = clamp_decision(ir, requested, &self.target);
        let shape = build_shape(ir, decision, &self.target);
        let timing = simulate_loop(&shape, &self.target);
        let compile_ms = compile_time_ms(&shape, ir);
        CompiledLoop {
            decision,
            shape,
            timing,
            compile_ms,
        }
    }

    /// Compiles `ir` with the baseline cost model's own decision.
    pub fn compile_baseline(&self, ir: &LoopIr) -> CompiledLoop {
        let d = self.baseline_decision(ir);
        self.compile(ir, d)
    }
}

impl Default for Vectorizer {
    fn default() -> Self {
        Self::new(TargetConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_frontend::parse_translation_unit;
    use nvc_ir::{lower_innermost_loops, ParamEnv};

    fn lower(src: &str, env: &ParamEnv) -> LoopIr {
        let tu = parse_translation_unit(src).unwrap();
        lower_innermost_loops(&tu, src, env).unwrap()[0].ir.clone()
    }

    /// The §2.1 motivating experiment: many VF/IF configurations beat the
    /// baseline's choice on the dot-product kernel, and the best one
    /// combines a wide VF with substantial interleaving.
    #[test]
    fn dot_product_landscape_matches_figure1() {
        let src = "int vec[512] __attribute__((aligned(64)));\nint f() { int sum = 0; for (int i = 0; i < 512; i++) { sum += vec[i]*vec[i]; } return sum; }";
        let ir = lower(src, &ParamEnv::new());
        let vz = Vectorizer::default();

        let baseline = vz.compile_baseline(&ir);
        let scalar = vz.compile(&ir, VectorDecision::new(1, 1));
        // The baseline vectorizes, and beats scalar by a wide margin. (The
        // paper reports 2.6× at *kernel* level, which includes per-call
        // harness overhead; the pure-loop ratio here is naturally larger.)
        let baseline_speedup = scalar.timing.cycles / baseline.timing.cycles;
        assert!(
            baseline_speedup > 1.8 && baseline_speedup < 10.0,
            "baseline vs scalar = {baseline_speedup}"
        );

        // Grid sweep: count configurations beating the baseline and find
        // the best.
        let t = vz.target().clone();
        let mut better = 0;
        let mut best = (VectorDecision::new(1, 1), f64::INFINITY);
        let mut total = 0;
        for vf in t.vf_candidates() {
            for ifc in t.if_candidates() {
                if ifc > 8 {
                    continue; // Figure 1 sweeps IF up to 8 (35 configs)
                }
                total += 1;
                let c = vz.compile(&ir, VectorDecision::new(vf, ifc));
                if c.timing.cycles < baseline.timing.cycles {
                    better += 1;
                }
                if c.timing.cycles < best.1 {
                    best = (VectorDecision::new(vf, ifc), c.timing.cycles);
                }
            }
        }
        assert_eq!(total, 28);
        // Paper: 26 of 35 configurations improved on the baseline choice.
        // Shape requirement: a clear majority beats it here too.
        assert!(better >= total / 2, "only {better}/{total} beat baseline");
        // The optimum lies in the strongly vectorized+interleaved region
        // (paper: VF=64, IF=8 — here the model ties equal VF×IF products,
        // so we assert on the product).
        assert!(
            best.0.elems_per_block() >= 16,
            "best block too small: {}",
            best.0
        );
        // And the improvement is noticeable but bounded (paper: ~20%).
        let gain = baseline.timing.cycles / best.1;
        assert!(gain > 1.05 && gain < 2.5, "best vs baseline = {gain}");
        // The most extreme corner (VF=64, IF=16 — a block larger than the
        // whole trip count) collapses, as over-vectorization does in
        // reality.
        let extreme = vz.compile(&ir, VectorDecision::new(64, 16));
        assert!(extreme.timing.cycles > baseline.timing.cycles * 2.0);
    }

    #[test]
    fn illegal_request_is_clamped_not_miscompiled() {
        // Serial recurrence: a[i+1] = a[i] — cannot vectorize at all.
        let src =
            "int a[4096];\nvoid f(int n) { for (int i = 0; i < n-1; i++) { a[i+1] = a[i]; } }";
        let ir = lower(src, &ParamEnv::new().with("n", 4096));
        let vz = Vectorizer::default();
        let c = vz.compile(&ir, VectorDecision::new(64, 8));
        assert_eq!(c.decision.vf, 1, "pragma must be ignored when unsafe");
    }

    #[test]
    fn over_vectorizing_tiny_loops_backfires() {
        // trip = 40: VF×IF = 512 leaves everything in the scalar remainder.
        let src = "float a[64]; float b[64];\nvoid f(int n) { for (int i = 0; i < n; i++) { a[i] = b[i] * 2.0; } }";
        let ir = lower(src, &ParamEnv::new().with("n", 40));
        let vz = Vectorizer::default();
        let sane = vz.compile(&ir, VectorDecision::new(8, 1));
        let absurd = vz.compile(&ir, VectorDecision::new(64, 16));
        assert!(
            absurd.timing.cycles > sane.timing.cycles,
            "over-vectorization should lose: absurd={} sane={}",
            absurd.timing.cycles,
            sane.timing.cycles
        );
    }
}
