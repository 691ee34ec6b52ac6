//! The compile-and-run service: the reproduction's `clang -O3 && ./a.out`.
//!
//! Figure 3's loop: "The agent then compiles the program with clang/LLVM
//! to gather the execution time improvements, which are used as rewards."
//! This module packages the whole substrate — optional Polly-lite
//! preprocessing, parsing, lowering, per-loop vectorization decisions,
//! the machine model, per-invocation call overhead and the scalar
//! (non-loop) portion — behind one deterministic function.

use serde::{Deserialize, Serialize};

use nvc_datasets::Kernel;
use nvc_frontend::parse_translation_unit;
use nvc_ir::{lower_innermost_loops, LoweredLoop};
use nvc_machine::TargetConfig;
use nvc_polly::optimize_source;
use nvc_vectorizer::{VectorDecision, Vectorizer};

/// Fixed cycles per kernel invocation: call/return, argument setup and
/// measurement harness. Calibrated so the §2.1 dot product reproduces the
/// paper's 2.6× baseline-over-scalar ratio at kernel level.
pub(crate) const CALL_OVERHEAD_CYCLES: f64 = 120.0;

/// Scalar (non-loop) IPC used to convert `scalar_work` instructions into
/// cycles.
pub(crate) const SCALAR_IPC: f64 = 2.0;

/// How the compiler should pick `(VF, IF)` for a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopDecision {
    /// Let the baseline cost model decide (`-O3` default).
    Baseline,
    /// Honor an injected pragma (clamped to legality, as §3 describes).
    Pragma(VectorDecision),
}

/// Timing and compile-cost report for one loop nest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopReport {
    /// Function containing the loop.
    pub function: String,
    /// Loop index within the program.
    pub(crate) loop_index: usize,
    /// The decision after clamping.
    pub decision: VectorDecision,
    /// Cycles across all executions of the nest.
    pub nest_cycles: f64,
    /// Modelled compile time for this loop.
    pub(crate) compile_ms: f64,
}

/// Whole-program result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramTiming {
    /// Total cycles per kernel invocation (loops + scalar work + call
    /// overhead).
    pub total_cycles: f64,
    /// Per-loop breakdown.
    pub loops: Vec<LoopReport>,
    /// Total modelled compile time.
    pub(crate) compile_ms: f64,
}

/// Errors from compiling a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The source failed to parse.
    Parse(nvc_frontend::FrontendError),
    /// Lowering failed.
    Lower(nvc_ir::IrError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Lower(e) => write!(f, "lowering error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// The deterministic compile-and-run service.
#[derive(Debug, Clone)]
pub struct Compiler {
    vectorizer: Vectorizer,
    polly: bool,
}

impl Compiler {
    /// A compiler for `target` without Polly preprocessing.
    pub fn new(target: TargetConfig) -> Self {
        Compiler {
            vectorizer: Vectorizer::new(target),
            polly: false,
        }
    }

    /// Enables Polly-lite preprocessing (builder style).
    pub fn with_polly(mut self) -> Self {
        self.polly = true;
        self
    }

    /// The target description.
    pub fn target(&self) -> &TargetConfig {
        self.vectorizer.target()
    }

    /// The underlying vectorizer.
    pub fn vectorizer(&self) -> &Vectorizer {
        &self.vectorizer
    }

    /// Parses and lowers a kernel (after Polly preprocessing when
    /// enabled), returning its innermost loops.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the kernel does not fit the supported
    /// subset.
    pub fn front_end(&self, kernel: &Kernel) -> Result<Vec<LoweredLoop>, CompileError> {
        let source = if self.polly {
            optimize_source(&kernel.source)
                .map_err(CompileError::Parse)?
                .0
        } else {
            kernel.source.clone()
        };
        let tu = parse_translation_unit(&source).map_err(CompileError::Parse)?;
        lower_innermost_loops(&tu, &source, &kernel.env).map_err(CompileError::Lower)
    }

    /// Compiles and "runs" a kernel, deciding each loop via `decide`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the front end fails.
    pub fn run_with(
        &self,
        kernel: &Kernel,
        mut decide: impl FnMut(&LoweredLoop) -> LoopDecision,
    ) -> Result<ProgramTiming, CompileError> {
        let loops = self.front_end(kernel)?;
        let mut total = CALL_OVERHEAD_CYCLES + kernel.scalar_work as f64 / SCALAR_IPC;
        let mut reports = Vec::with_capacity(loops.len());
        let mut compile_ms = 0.0;
        for l in &loops {
            let compiled = match decide(l) {
                LoopDecision::Baseline => self.vectorizer.compile_baseline(&l.ir),
                LoopDecision::Pragma(d) => self.vectorizer.compile(&l.ir, d),
            };
            let nest_cycles = compiled.nest_cycles(&l.ir);
            total += nest_cycles;
            compile_ms += compiled.compile_ms;
            reports.push(LoopReport {
                function: l.function.clone(),
                loop_index: l.loop_index,
                decision: compiled.decision,
                nest_cycles,
                compile_ms: compiled.compile_ms,
            });
        }
        Ok(ProgramTiming {
            total_cycles: total,
            loops: reports,
            compile_ms,
        })
    }

    /// Compiles with the baseline cost model everywhere (the `-O3`
    /// reference everything is normalized to).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the front end fails.
    pub fn run_baseline(&self, kernel: &Kernel) -> Result<ProgramTiming, CompileError> {
        self.run_with(kernel, |_| LoopDecision::Baseline)
    }

    /// Compiles fully scalar (`VF = IF = 1`), the paper's "not vectorized"
    /// reference point.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the front end fails.
    pub fn run_scalar(&self, kernel: &Kernel) -> Result<ProgramTiming, CompileError> {
        self.run_with(kernel, |_| LoopDecision::Pragma(VectorDecision::scalar()))
    }
}

impl Default for Compiler {
    fn default() -> Self {
        Self::new(TargetConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_ir::ParamEnv;

    fn dot_product_kernel() -> Kernel {
        Kernel::new(
            "dot",
            "test",
            "int vec[512] __attribute__((aligned(16)));
int kernel() {
    int sum = 0;
    for (int i = 0; i < 512; i++) {
        sum += vec[i] * vec[i];
    }
    return sum;
}",
            ParamEnv::new(),
        )
    }

    /// §2.1 headline: the baseline improves ~2.6× over the non-vectorized
    /// kernel at whole-kernel granularity.
    #[test]
    fn dot_product_baseline_speedup_matches_paper() {
        let c = Compiler::default();
        let k = dot_product_kernel();
        let scalar = c.run_scalar(&k).unwrap();
        let baseline = c.run_baseline(&k).unwrap();
        let speedup = scalar.total_cycles / baseline.total_cycles;
        assert!(
            (2.0..3.2).contains(&speedup),
            "baseline vs scalar = {speedup:.2} (paper: 2.6)"
        );
    }

    #[test]
    fn pragma_decisions_flow_through() {
        let c = Compiler::default();
        let k = dot_product_kernel();
        let t = c
            .run_with(&k, |_| LoopDecision::Pragma(VectorDecision::new(16, 4)))
            .unwrap();
        assert_eq!(t.loops.len(), 1);
        assert_eq!(t.loops[0].decision, VectorDecision::new(16, 4));
    }

    #[test]
    fn polly_mode_transforms_gemm() {
        let gemm = nvc_datasets::polybench::polybench()
            .into_iter()
            .find(|k| k.name == "poly_gemm")
            .unwrap();
        let plain = Compiler::default();
        let polly = Compiler::default().with_polly();
        let t_plain = plain.run_baseline(&gemm).unwrap();
        let t_polly = polly.run_baseline(&gemm).unwrap();
        // Interchange + tiling must pay off on a 256³ gemm.
        assert!(
            t_polly.total_cycles < t_plain.total_cycles,
            "polly={} plain={}",
            t_polly.total_cycles,
            t_plain.total_cycles
        );
        // And the loop structure changed (more loops after tiling).
        assert!(t_polly.loops.len() >= t_plain.loops.len());
    }

    #[test]
    fn scalar_work_adds_cycles() {
        let c = Compiler::default();
        let k = dot_product_kernel();
        let k2 = dot_product_kernel().with_scalar_work(10_000);
        let t1 = c.run_baseline(&k).unwrap();
        let t2 = c.run_baseline(&k2).unwrap();
        assert!((t2.total_cycles - t1.total_cycles - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_timing() {
        let c = Compiler::default();
        let k = dot_product_kernel();
        let a = c.run_baseline(&k).unwrap();
        let b = c.run_baseline(&k).unwrap();
        assert_eq!(a, b);
    }
}
