//! The baseline: an LLVM-style linear per-instruction cost model.
//!
//! "Compilers are designed today to use fixed-cost models that are based on
//! heuristics to make vectorization decisions on loops. However, these
//! models are unable to capture the data dependency, the computation graph,
//! and/or the organization of instructions" (§Abstract). This module is
//! that cost model, on purpose:
//!
//! * every instruction has a context-free cost from a table;
//! * vector cost = table cost × physical registers needed — *linear* in VF;
//! * no recurrence latency, no cache modelling, no amortization of loop
//!   overhead, pessimistic surcharges for predication and non-unit strides
//!   (as LLVM's TTI is);
//! * VF is chosen to minimize cost **per lane** among `1 … native_lanes`
//!   (LLVM does not consider VFs beyond the register width);
//! * IF comes from a separate small heuristic (reduction loops interleave
//!   ×2, tiny bodies ×2, bounded by trip count), mirroring LLVM's
//!   interleave-count logic.
//!
//! The gap between these decisions and the simulated optimum is exactly the
//! headroom the RL agent exploits (Figures 1–2 of the paper).

use nvc_ir::{AccessKind, Instr, LoopIr, ScalarType, TripCount};
use nvc_machine::TargetConfig;

use crate::decision::VectorDecision;
use crate::table;

/// Expected cost (abstract units) of one loop iteration vectorized at `vf`,
/// per the linear model, divided by `vf` — i.e. cost per source element.
pub(crate) fn expected_cost_per_lane(ir: &LoopIr, vf: u32, target: &TargetConfig) -> f64 {
    let mut cost = 0.0;
    for instr in &ir.body {
        cost += instr_cost(instr, ir, vf, target);
    }
    // Loop overhead (increment, compare, branch) charged once per vector
    // iteration — the model knows unrolling amortizes this, linearly.
    cost += 2.0;
    cost / f64::from(vf)
}

/// Widening factor: physical registers for a VF-wide value of `ty`.
fn width_factor(vf: u32, ty: ScalarType, target: &TargetConfig) -> f64 {
    (f64::from(vf) / f64::from(target.native_lanes(ty.size_bytes(), ty.is_float())))
        .ceil()
        .max(1.0)
}

fn instr_cost(instr: &Instr, ir: &LoopIr, vf: u32, target: &TargetConfig) -> f64 {
    match instr {
        Instr::Const { .. } | Instr::Param { .. } | Instr::IndVar { .. } => 0.0,
        Instr::Load { access, ty } => {
            let a = &ir.accesses[*access];
            let w = width_factor(vf, *ty, target);
            match a.kind {
                AccessKind::Unit => {
                    let base = if a.aligned { 1.0 } else { 2.0 };
                    if vf == 1 {
                        1.0
                    } else {
                        base * w
                    }
                }
                AccessKind::Strided(s) => {
                    if vf == 1 {
                        1.0
                    } else if s.unsigned_abs() <= 4 {
                        // Interleaved access: wide loads + shuffles.
                        2.0 * w * s.unsigned_abs() as f64
                    } else {
                        // TTI charges gathers per lane, heavily.
                        6.0 * f64::from(vf)
                    }
                }
                AccessKind::Gather => {
                    if vf == 1 {
                        1.0
                    } else {
                        // TTI scalarization: per lane, a load plus index
                        // extract plus result insert, with no fast-gather
                        // discount.
                        6.0 * f64::from(vf)
                    }
                }
                AccessKind::Invariant => 0.5,
            }
        }
        Instr::Store { access, .. } => {
            let a = &ir.accesses[*access];
            let w = width_factor(vf, a.ty, target);
            let mut c = match a.kind {
                AccessKind::Unit => {
                    if vf == 1 {
                        1.0
                    } else if a.aligned {
                        w
                    } else {
                        1.5 * w
                    }
                }
                AccessKind::Strided(s) if s.unsigned_abs() <= 4 => {
                    if vf == 1 {
                        1.0
                    } else {
                        2.0 * w * s.unsigned_abs() as f64
                    }
                }
                _ => {
                    if vf == 1 {
                        1.0
                    } else {
                        8.0 * f64::from(vf) // scatter: fully scalarized
                    }
                }
            };
            if a.predicated && vf > 1 {
                // TTI is pessimistic about masked stores (and
                // `baseline_decision` refuses them outright).
                c *= 3.0;
            }
            c
        }
        Instr::Bin { op, ty, .. } => {
            let p = table::bin_profile(*op, *ty);
            let w = width_factor(vf, *ty, target);
            table::scalar_throughput_cost(p) * w
        }
        Instr::Un { ty, .. } => width_factor(vf, *ty, target),
        Instr::Cmp { ty, .. } => width_factor(vf, *ty, target),
        Instr::Select { ty, .. } => width_factor(vf, *ty, target),
        Instr::Cast { from, to, .. } => {
            let p = table::cast_profile(*from, *to);
            let wide = if from.size_bytes() >= to.size_bytes() {
                *from
            } else {
                *to
            };
            let w = width_factor(vf, wide, target);
            let repack = if vf > 1 && from.size_bytes() != to.size_bytes() {
                w
            } else {
                0.0
            };
            table::scalar_throughput_cost(p) * w + repack
        }
        Instr::Call {
            name, vectorizable, ..
        } => {
            let p = table::call_profile(name);
            if *vectorizable {
                table::scalar_throughput_cost(p) * width_factor(vf, ScalarType::F32, target)
            } else {
                p.uops * f64::from(vf)
            }
        }
        Instr::ReduceUpdate { red, ty, .. } => {
            // The linear model prices the combining op like any ALU op —
            // it cannot see the serial dependence this creates.
            let kind = ir.reductions[*red].kind;
            let lat_blind_cost = match kind {
                nvc_ir::ReductionKind::Product if !ty.is_float() => 2.0,
                _ => 1.0,
            };
            lat_blind_cost * width_factor(vf, *ty, target)
        }
    }
}

/// LLVM-style interleave-count heuristic.
pub(crate) fn interleave_heuristic(ir: &LoopIr, vf: u32, target: &TargetConfig) -> u32 {
    if ir.not_vectorizable {
        return 1;
    }
    let mut ic: u32 = 1;
    if !ir.reductions.is_empty() {
        // Hide the dependence: LLVM interleaves reduction loops ×2.
        ic = 2;
    } else if ir.work_instrs() <= 4 {
        // Tiny bodies: interleave to amortize overhead.
        ic = 2;
    }
    // Never interleave past the point where a known-small trip count cannot
    // fill the blocks.
    if let TripCount::Constant(tc) = ir.trip {
        while ic > 1 && u64::from(vf) * u64::from(ic) * 2 > tc {
            ic /= 2;
        }
    }
    ic.min(target.max_if).max(1)
}

/// The baseline cost model's full decision: the `-O3` default the paper
/// normalizes everything against.
pub(crate) fn baseline_decision(ir: &LoopIr, target: &TargetConfig) -> VectorDecision {
    if ir.not_vectorizable {
        return VectorDecision::scalar();
    }
    let legal = nvc_ir::legal_max_vf(ir);
    if legal == 1 {
        // Legality analysis failed outright: LLVM bails without even
        // interleaving.
        return VectorDecision::scalar();
    }
    // Pre-AVX-512 LLVM's if-conversion was extremely conservative about
    // masked stores (fault semantics + cost); guarded stores left the loop
    // scalar. Pragmas *can* override this — masked stores are
    // architecturally available — which is precisely the headroom the RL
    // agent exploits on the paper's predicated benchmarks.
    if ir.accesses.iter().any(|a| a.is_store && a.predicated) {
        return VectorDecision::scalar();
    }
    // LLVM derives its VF ceiling from the widest register any value type
    // in the body can fill; it never considers VFs beyond one register.
    let max_lanes = ir
        .body
        .iter()
        .filter_map(|i| i.result_ty())
        .filter(|t| *t != ScalarType::I1)
        .map(|t| target.native_lanes(t.size_bytes(), t.is_float()))
        .max()
        .unwrap_or(4);
    let cap = max_lanes.min(legal).min(target.max_vf);

    let mut best_vf = 1;
    let mut best_cost = expected_cost_per_lane(ir, 1, target);
    let mut vf = 2;
    while vf <= cap {
        let c = expected_cost_per_lane(ir, vf, target);
        // Strict improvement required, matching LLVM's preference for the
        // smallest VF among equals.
        if c < best_cost - 1e-9 {
            best_cost = c;
            best_vf = vf;
        }
        vf *= 2;
    }
    let ic = interleave_heuristic(ir, best_vf, target);
    VectorDecision::new(best_vf, ic)
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

    fn target() -> TargetConfig {
        TargetConfig::i7_8559u()
    }

    #[test]
    fn baseline_vectorizes_simple_copy() {
        let src = "float a[4096] __attribute__((aligned(64))); float b[4096] __attribute__((aligned(64)));\nvoid f() { for (int i = 0; i < 4096; i++) { a[i] = b[i]; } }";
        let ir = lower(src, &ParamEnv::new());
        let d = baseline_decision(&ir, &target());
        assert!(d.vf >= 4, "copy should vectorize, got {d}");
    }

    #[test]
    fn baseline_never_exceeds_register_width() {
        let src = "float a[4096]; float b[4096];\nvoid f() { for (int i = 0; i < 4096; i++) { a[i] = b[i] * 2.0; } }";
        let ir = lower(src, &ParamEnv::new());
        let d = baseline_decision(&ir, &target());
        assert!(d.vf <= 8, "f32 on 256-bit caps at 8 lanes, got {d}");
    }

    #[test]
    fn baseline_respects_dependences() {
        let src =
            "int a[4096];\nvoid f(int n) { for (int i = 0; i < n-1; i++) { a[i+1] = a[i]; } }";
        let ir = lower(src, &ParamEnv::new().with("n", 4096));
        assert_eq!(baseline_decision(&ir, &target()), VectorDecision::scalar());
    }

    #[test]
    fn baseline_interleaves_reductions() {
        let src = "int vec[512];\nint f() { int s = 0; for (int i = 0; i < 512; i++) { s += vec[i]*vec[i]; } return s; }";
        let ir = lower(src, &ParamEnv::new());
        let d = baseline_decision(&ir, &target());
        assert_eq!(d.if_, 2, "reduction loops interleave ×2, got {d}");
        assert!(d.vf >= 4 && d.vf <= 8);
    }

    #[test]
    fn baseline_refuses_masked_stores() {
        // The era's TTI prices masked stores as per-lane scalarization, so
        // the baseline leaves if-guarded stores scalar — headroom the RL
        // agent exploits (Figure 7's predicate benchmarks).
        let src = "float a[4096]; float b[4096];\nvoid f(int n) { for (int i=0;i<n;i++) { if (b[i] > 0.0) { a[i] = b[i] * 3.0; } } }";
        let ir = lower(src, &ParamEnv::new().with("n", 4096));
        let d = baseline_decision(&ir, &target());
        assert_eq!(d.vf, 1, "got {d}");
    }

    #[test]
    fn baseline_vectorizes_strided_loads_with_interleaved_lowering() {
        let src = "float a[2048]; float b[4096];\nvoid f(int n) { for (int i=0;i<n;i++) { a[i] = b[2*i]; } }";
        let ir = lower(src, &ParamEnv::new().with("n", 2048));
        let d = baseline_decision(&ir, &target());
        assert!(d.vf > 1, "stride-2 loads vectorize in this era: {d}");
    }

    #[test]
    fn baseline_avoids_gathers() {
        let src = "int a[65536]; int idx[4096]; int out[4096];\nvoid f(int n) { for (int i=0;i<n;i++) { out[i] = a[idx[i]]; } }";
        let ir = lower(src, &ParamEnv::new().with("n", 4096));
        let d = baseline_decision(&ir, &target());
        assert_eq!(d.vf, 1, "gather cost should keep the baseline scalar");
    }

    #[test]
    fn interleave_heuristic_caps_by_trip() {
        let src = "int s0[64]; int f() { int s = 0; for (int i = 0; i < 8; i++) { s += s0[i]; } return s; }";
        let ir = lower(src, &ParamEnv::new());
        // With trip 8 and VF 8, interleaving would starve the vector body.
        assert_eq!(interleave_heuristic(&ir, 8, &target()), 1);
    }

    #[test]
    fn cost_per_lane_decreases_with_vf_for_clean_code() {
        let src = "float a[4096] __attribute__((aligned(64))); float b[4096] __attribute__((aligned(64)));\nvoid f() { for (int i = 0; i < 4096; i++) { a[i] = b[i] + 1.0; } }";
        let ir = lower(src, &ParamEnv::new());
        let t = target();
        let c1 = expected_cost_per_lane(&ir, 1, &t);
        let c8 = expected_cost_per_lane(&ir, 8, &t);
        assert!(c8 < c1);
    }

    #[test]
    fn not_vectorizable_loops_stay_scalar() {
        let src = "int a[128];\nvoid f(int n) { for (int i=0;i<n;i++) { a[i] = helper(i); } }";
        let ir = lower(src, &ParamEnv::new().with("n", 128));
        assert_eq!(baseline_decision(&ir, &target()), VectorDecision::scalar());
    }

    #[test]
    fn short_to_int_kernel_uses_wider_vf_cap() {
        // i16 fills a 128-bit integer register with 8 lanes.
        let src = "short s[4096] __attribute__((aligned(64))); int d[4096] __attribute__((aligned(64)));\nvoid f() { for (int i = 0; i < 4096; i++) { d[i] = (int) s[i]; } }";
        let ir = lower(src, &ParamEnv::new());
        let d = baseline_decision(&ir, &target());
        assert!(d.vf <= 8);
        assert!(d.vf >= 4);
    }

    #[test]
    fn int_dot_product_baseline_is_paper_choice() {
        // §2.1: "The best VF and IF corresponding to the baseline cost
        // model are (VF = 4, IF = 2)."
        let src = "int vec[512] __attribute__((aligned(64)));\nint f() { int s = 0; for (int i = 0; i < 512; i++) { s += vec[i]*vec[i]; } return s; }";
        let ir = lower(src, &ParamEnv::new());
        let d = baseline_decision(&ir, &target());
        assert_eq!(d, VectorDecision::new(4, 2));
    }
}
