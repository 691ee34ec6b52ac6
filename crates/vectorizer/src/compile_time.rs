//! Compile-time model and the paper's timeout rule.
//!
//! §3.4: "we limited the compilation time to ten times the time it takes to
//! compile a program with the baseline cost model. If the program took
//! longer than that to compile, we gave a penalty reward of −9."
//!
//! Compile time here is dominated by the vectorizer and the register
//! allocator working over the widened body. Register allocation and
//! scheduling are super-linear in the instruction count, which is what
//! makes extreme `VF × IF` requests on large bodies blow through the 10×
//! budget while a dot product never does.

use serde::{Deserialize, Serialize};

use nvc_ir::LoopIr;
use nvc_machine::LoopShape;

use crate::plan::emitted_uops;

/// Fixed per-loop front-end / mid-end cost in milliseconds.
const BASE_MS: f64 = 18.0;
/// Linear codegen cost per emitted uop.
const PER_UOP_MS: f64 = 0.012;
/// Super-linear (register allocation / scheduling) component.
const QUADRATIC_MS: f64 = 9.0e-6;

/// Modelled wall-clock compile time for a loop compiled into `shape`.
pub(crate) fn compile_time_ms(shape: &LoopShape, _ir: &LoopIr) -> f64 {
    let uops = emitted_uops(shape);
    BASE_MS + PER_UOP_MS * uops + QUADRATIC_MS * uops * uops
}

/// Result of compiling against the 10× budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CompileOutcome {
    /// Compilation finished within the budget.
    Ok {
        /// Compile time in milliseconds.
        ms: f64,
    },
    /// Compilation exceeded ten times the baseline compile time; the paper
    /// rewards this with −9.
    TimedOut {
        /// The modelled time it *would* have taken.
        ms: f64,
        /// The budget that was exceeded.
        budget_ms: f64,
    },
}

impl CompileOutcome {
    /// Applies the paper's 10× rule.
    pub fn from_times(ms: f64, baseline_ms: f64) -> Self {
        let budget_ms = baseline_ms * 10.0;
        if ms > budget_ms {
            CompileOutcome::TimedOut { ms, budget_ms }
        } else {
            CompileOutcome::Ok { ms }
        }
    }

    /// True when compilation timed out.
    pub fn timed_out(&self) -> bool {
        matches!(self, CompileOutcome::TimedOut { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::VectorDecision;
    use crate::plan::build_shape;
    use nvc_frontend::parse_translation_unit;
    use nvc_ir::{lower_innermost_loops, ParamEnv};
    use nvc_machine::TargetConfig;

    fn lower(src: &str) -> LoopIr {
        let tu = parse_translation_unit(src).unwrap();
        lower_innermost_loops(&tu, src, &ParamEnv::new()).unwrap()[0]
            .ir
            .clone()
    }

    /// A deliberately fat loop body (many statements).
    fn big_body_src() -> String {
        let mut body = String::new();
        for k in 0..24 {
            body.push_str(&format!("a{k}[i] = b{k}[i] * c{k}[i] + a{k}[i];\n"));
        }
        let mut decls = String::new();
        for k in 0..24 {
            decls.push_str(&format!(
                "float a{k}[4096]; float b{k}[4096]; float c{k}[4096];\n"
            ));
        }
        format!("{decls}\nvoid f() {{ for (int i = 0; i < 4096; i++) {{ {body} }} }}")
    }

    #[test]
    fn compile_time_grows_with_factors() {
        let ir = lower(
            "float a[4096]; float b[4096];\nvoid f() { for (int i=0;i<4096;i++) { a[i] = b[i]; } }",
        );
        let t = TargetConfig::i7_8559u();
        let small = compile_time_ms(&build_shape(&ir, VectorDecision::new(4, 1), &t), &ir);
        let big = compile_time_ms(&build_shape(&ir, VectorDecision::new(64, 16), &t), &ir);
        assert!(big > small);
    }

    #[test]
    fn dot_product_never_times_out() {
        let ir = lower("int v[512];\nint f() { int s = 0; for (int i=0;i<512;i++) { s += v[i]*v[i]; } return s; }");
        let t = TargetConfig::i7_8559u();
        let baseline = compile_time_ms(&build_shape(&ir, VectorDecision::new(4, 2), &t), &ir);
        for vf in t.vf_candidates() {
            for ifc in t.if_candidates() {
                let ms = compile_time_ms(&build_shape(&ir, VectorDecision::new(vf, ifc), &t), &ir);
                assert!(
                    !CompileOutcome::from_times(ms, baseline).timed_out(),
                    "dot product timed out at VF={vf} IF={ifc}"
                );
            }
        }
    }

    #[test]
    fn huge_body_with_extreme_factors_times_out() {
        let src = big_body_src();
        let tu = parse_translation_unit(&src).unwrap();
        let ir = lower_innermost_loops(&tu, &src, &ParamEnv::new()).unwrap()[0]
            .ir
            .clone();
        let t = TargetConfig::i7_8559u();
        let baseline_d = crate::cost_model::baseline_decision(&ir, &t);
        let baseline = compile_time_ms(&build_shape(&ir, baseline_d, &t), &ir);
        let extreme = compile_time_ms(&build_shape(&ir, VectorDecision::new(64, 16), &t), &ir);
        assert!(
            CompileOutcome::from_times(extreme, baseline).timed_out(),
            "expected timeout: extreme={extreme}ms baseline={baseline}ms budget={}ms",
            baseline * 10.0
        );
    }

    #[test]
    fn outcome_boundary() {
        assert!(!CompileOutcome::from_times(100.0, 10.0).timed_out());
        assert!(CompileOutcome::from_times(101.0, 10.0).timed_out());
    }
}
