//! The vectorization transform: `LoopIr × (VF, IF) → LoopShape`.
//!
//! This is the codegen step of the pipeline. Given the scalar IR of an
//! innermost loop and a (clamped) decision, it computes exactly what a loop
//! vectorizer would emit on the target:
//!
//! * each scalar instruction widens into `ceil(VF / native_lanes) × IF`
//!   physical vector uops;
//! * unit-stride accesses become wide loads/stores (with a misalignment
//!   surcharge when alignment is unknown);
//! * small-stride accesses become wide-load + shuffle sequences
//!   (LLVM's interleaved-access lowering), large strides and indirect
//!   addressing become per-lane gathers / scalarized stores;
//! * predicated stores become masked stores, selects blend;
//! * width-changing casts pay lane re-packing uops;
//! * reductions allocate `IF × ceil(VF/native)` accumulator registers,
//!   carry a recurrence for `RecMII`, and pay a horizontal tail per loop
//!   execution;
//! * the iteration space splits into whole blocks plus a scalar remainder,
//!   with runtime guards when the trip count is unknown at compile time.

use nvc_ir::{AccessKind, Instr, LoopIr, ScalarType, TripCount};
use nvc_machine::{
    LoopShape, MemStream, Recurrence, ResourceClass, StreamPattern, TargetConfig, UopBundle,
};

use crate::decision::VectorDecision;
use crate::table;

/// Clamps a requested decision to what legality analysis allows on `ir`.
///
/// Mirrors the paper's §3: pragmas are hints; "predicates and memory
/// dependency can hinder reaching high VF and IF", and infeasible requests
/// are ignored rather than honored unsafely.
pub fn clamp_decision(
    ir: &LoopIr,
    requested: VectorDecision,
    target: &TargetConfig,
) -> VectorDecision {
    let legal = nvc_ir::legal_max_vf(ir);
    let vf = requested.vf.min(legal).min(target.max_vf).max(1);
    let if_ = requested.if_.min(target.max_if).max(1);
    VectorDecision::new(vf, if_)
}

/// Number of physical registers one logical VF-wide value of type `ty`
/// occupies.
fn regs_per_value(vf: u32, ty: ScalarType, target: &TargetConfig) -> f64 {
    let lanes = target.native_lanes(ty.size_bytes(), ty.is_float());
    (f64::from(vf) / f64::from(lanes)).ceil().max(1.0)
}

/// Builds the emitted-loop shape for a clamped decision.
pub fn build_shape(ir: &LoopIr, decision: VectorDecision, target: &TargetConfig) -> LoopShape {
    let vf = decision.vf;
    let if_ = decision.if_;
    let block = decision.elems_per_block();
    let trip = ir.trip.count();
    let vectorized = vf > 1;

    let mut uops: Vec<UopBundle> = Vec::new();
    let mut recurrences: Vec<Recurrence> = Vec::new();
    let mut streams: Vec<MemStream> = Vec::new();
    let mut live_regs = 2.0; // IV vector + mask scratch
    let mut per_exec_uops = 1.0;
    let mut scalar_uops = 2.0; // scalar-iteration bookkeeping

    // Footprint keys: one per distinct array.
    let mut array_keys: Vec<String> = Vec::new();
    let key_of = |name: &str, keys: &mut Vec<String>| -> u32 {
        match keys.iter().position(|k| k == name) {
            Some(i) => i as u32,
            None => {
                keys.push(name.to_string());
                (keys.len() - 1) as u32
            }
        }
    };

    // ---- instructions ------------------------------------------------
    for instr in &ir.body {
        match instr {
            Instr::Const { .. } | Instr::Param { .. } => {
                // Hoisted or folded; broadcast once outside the loop.
            }
            Instr::IndVar { .. } => {
                // Vector IV maintained with one add per block.
                uops.push(UopBundle::new(ResourceClass::VAlu, f64::from(if_), 1.0));
                scalar_uops += 0.0;
            }
            Instr::Load { access, ty } => {
                let a = &ir.accesses[*access];
                let r = regs_per_value(vf, *ty, target);
                let n = r * f64::from(if_);
                let elem = u64::from(ty.size_bytes());
                let key = key_of(&a.array, &mut array_keys);
                let footprint = effective_footprint(a, ir);
                scalar_uops += 1.0;
                match a.kind {
                    AccessKind::Unit => {
                        let count = if a.aligned { n } else { n * 1.5 };
                        uops.push(UopBundle::new(ResourceClass::VLoad, count, 5.0));
                        if a.predicated && vectorized {
                            uops.push(UopBundle::new(ResourceClass::VAlu, n, 1.0));
                        }
                        let bytes = (block * elem) as f64;
                        streams.push(
                            MemStream::new(bytes, footprint, StreamPattern::Contiguous, false)
                                .with_footprint_key(key),
                        );
                    }
                    AccessKind::Strided(s) => {
                        let sa = s.unsigned_abs();
                        if !vectorized {
                            uops.push(UopBundle::new(ResourceClass::VLoad, n, 5.0));
                        } else if sa <= 4 {
                            // Interleaved-access lowering: load the whole
                            // stripe, shuffle lanes out.
                            let wide = n * sa as f64;
                            uops.push(UopBundle::new(ResourceClass::VLoad, wide, 5.0));
                            uops.push(UopBundle::new(ResourceClass::VAlu, wide, 1.0));
                        } else {
                            // Per-lane gather.
                            let lanes = block as f64;
                            uops.push(UopBundle::new(ResourceClass::VLoad, lanes * 0.75, 8.0));
                            uops.push(UopBundle::new(ResourceClass::VAlu, n, 1.0));
                        }
                        let mut stream = MemStream::new(
                            a.bytes_touched(block) as f64,
                            footprint,
                            StreamPattern::Strided,
                            false,
                        )
                        .with_footprint_key(key);
                        if vectorized && sa > 4 {
                            stream.pattern = StreamPattern::Gather;
                            stream.gather_lanes_per_block = block as f64;
                        }
                        streams.push(stream);
                    }
                    AccessKind::Gather => {
                        let lanes = block as f64;
                        if vectorized {
                            uops.push(UopBundle::new(ResourceClass::VLoad, lanes * 0.75, 8.0));
                        } else {
                            uops.push(UopBundle::new(ResourceClass::VLoad, f64::from(if_), 5.0));
                        }
                        let mut stream = MemStream::new(
                            a.bytes_touched(block) as f64,
                            footprint,
                            StreamPattern::Gather,
                            false,
                        )
                        .with_footprint_key(key);
                        stream.gather_lanes_per_block = if vectorized { lanes } else { 0.0 };
                        streams.push(stream);
                    }
                    AccessKind::Invariant => {
                        // One broadcast load, hoisted.
                        per_exec_uops += 1.0;
                    }
                }
                // Loaded values are short-lived; the allocator reuses the
                // same temp across unroll copies.
                live_regs += 0.5;
            }
            Instr::Store { access, .. } => {
                let a = &ir.accesses[*access];
                let ty = a.ty;
                let r = regs_per_value(vf, ty, target);
                let n = r * f64::from(if_);
                let elem = u64::from(ty.size_bytes());
                let key = key_of(&a.array, &mut array_keys);
                let footprint = effective_footprint(a, ir);
                scalar_uops += 1.0;
                match a.kind {
                    AccessKind::Unit => {
                        let mut count = if a.aligned { n } else { n * 1.3 };
                        if a.predicated && vectorized {
                            // Masked store (e.g. vpmaskmovd): slower and
                            // needs the mask in a register.
                            count *= 2.0;
                            uops.push(UopBundle::new(ResourceClass::VAlu, n * 0.5, 1.0));
                        }
                        uops.push(UopBundle::new(ResourceClass::VStore, count, 1.0));
                        streams.push(
                            MemStream::new(
                                (block * elem) as f64,
                                footprint,
                                StreamPattern::Contiguous,
                                true,
                            )
                            .with_footprint_key(key),
                        );
                    }
                    AccessKind::Strided(s) => {
                        let sa = s.unsigned_abs();
                        if !vectorized {
                            uops.push(UopBundle::new(ResourceClass::VStore, n, 1.0));
                        } else if sa <= 4 {
                            let wide = n * sa as f64;
                            uops.push(UopBundle::new(ResourceClass::VAlu, wide, 1.0));
                            uops.push(UopBundle::new(ResourceClass::VStore, wide, 1.0));
                        } else {
                            // Scatter: scalarized stores, one per lane.
                            let lanes = block as f64;
                            uops.push(UopBundle::new(ResourceClass::VStore, lanes, 1.0));
                            uops.push(UopBundle::new(ResourceClass::VAlu, lanes * 0.5, 1.0));
                        }
                        streams.push(
                            MemStream::new(
                                a.bytes_touched(block) as f64,
                                footprint,
                                StreamPattern::Strided,
                                true,
                            )
                            .with_footprint_key(key),
                        );
                    }
                    AccessKind::Gather => {
                        // Scatter store.
                        let lanes = block as f64;
                        uops.push(UopBundle::new(ResourceClass::VStore, lanes, 1.0));
                        streams.push(
                            MemStream::new(
                                a.bytes_touched(block) as f64,
                                footprint,
                                StreamPattern::Gather,
                                true,
                            )
                            .with_footprint_key(key),
                        );
                    }
                    AccessKind::Invariant => {
                        // Blocked during lowering; defensive scalar store.
                        uops.push(UopBundle::new(ResourceClass::VStore, block as f64, 1.0));
                    }
                }
            }
            Instr::Bin { op, ty, .. } => {
                let p = table::bin_profile_for(*op, *ty, vectorized);
                let n = regs_per_value(vf, *ty, target) * f64::from(if_) * p.uops;
                uops.push(UopBundle::new(p.class, n, p.latency));
                scalar_uops += p.uops;
                live_regs += 0.3;
            }
            Instr::Un { ty, .. } => {
                let n = regs_per_value(vf, *ty, target) * f64::from(if_);
                uops.push(UopBundle::new(ResourceClass::VAlu, n, 1.0));
                scalar_uops += 1.0;
            }
            Instr::Cmp { ty, .. } => {
                let p = table::cmp_profile(*ty);
                let n = regs_per_value(vf, *ty, target) * f64::from(if_) * p.uops;
                uops.push(UopBundle::new(p.class, n, p.latency));
                scalar_uops += 1.0;
            }
            Instr::Select { ty, .. } => {
                let p = table::select_profile();
                let n = regs_per_value(vf, *ty, target) * f64::from(if_);
                uops.push(UopBundle::new(p.class, n, p.latency));
                scalar_uops += 1.0;
            }
            Instr::Cast { from, to, .. } => {
                let p = table::cast_profile(*from, *to);
                let wide = regs_per_value(vf, widest(*from, *to), target) * f64::from(if_);
                uops.push(UopBundle::new(p.class, wide * p.uops, p.latency));
                if vectorized && from.size_bytes() != to.size_bytes() {
                    // Lane re-packing between element widths.
                    uops.push(UopBundle::new(ResourceClass::VAlu, wide, 3.0));
                }
                scalar_uops += 1.0;
            }
            Instr::Call {
                name, vectorizable, ..
            } => {
                let p = table::call_profile(name);
                let n = if *vectorizable {
                    regs_per_value(vf, ScalarType::F32, target) * f64::from(if_) * p.uops
                } else {
                    block as f64 * p.uops // scalarized call per lane
                };
                uops.push(UopBundle::new(p.class, n, p.latency));
                scalar_uops += p.uops;
            }
            Instr::ReduceUpdate { red, ty, .. } => {
                let r = &ir.reductions[*red];
                let lat = table::reduction_latency(r.kind, *ty);
                let n = regs_per_value(vf, *ty, target) * f64::from(if_);
                let class = if r.kind == nvc_ir::ReductionKind::Product && ty.is_float() {
                    ResourceClass::VMul
                } else if r.kind == nvc_ir::ReductionKind::Product {
                    ResourceClass::VMul
                } else {
                    ResourceClass::VAlu
                };
                uops.push(UopBundle::new(class, n, lat));
                recurrences.push(Recurrence { op_latency: lat });
                // Accumulator registers live across the whole loop.
                live_regs += n;
                // Horizontal tail: combine IF×R partial vectors, then
                // reduce lanes within a register.
                let lanes = f64::from(target.native_lanes(ty.size_bytes(), ty.is_float()));
                per_exec_uops += (n - 1.0).max(0.0) + 2.0 * lanes.log2().ceil();
                scalar_uops += 1.0;
            }
        }
    }

    // Loop bookkeeping: induction increment + compare&branch per block.
    uops.push(UopBundle::new(ResourceClass::Scalar, 2.0, 1.0));

    // Loops that failed vectorization legality (scalar recurrences, early
    // exits, unknown calls, uncounted loops) execute a serial dependence
    // chain through every iteration: interleaving/unrolling cannot shorten
    // it. Model the chain as a recurrence whose per-block latency scales
    // with the iterations per block.
    if ir.not_vectorizable {
        let chain: f64 = ir
            .body
            .iter()
            .map(|i| match i {
                Instr::Load { .. } => 4.0,
                Instr::Bin { op, ty, .. } => table::bin_profile_for(*op, *ty, false).latency,
                Instr::Call { name, .. } => table::call_profile(name).latency,
                Instr::Cast { .. } | Instr::Select { .. } => 1.0,
                _ => 0.5,
            })
            .sum::<f64>()
            * 0.5; // roughly half the body sits on the carried chain
        recurrences.push(Recurrence {
            op_latency: chain.max(1.0) * block as f64,
        });
    }

    // ---- iteration split ----------------------------------------------
    let (blocks, remainder) = if block <= 1 {
        (trip, 0)
    } else {
        (trip / block, trip % block)
    };
    // A vector loop whose trip never reaches one block runs fully scalar.
    let (blocks, remainder) = if blocks == 0 && block > 1 {
        (0, trip)
    } else {
        (blocks, remainder)
    };

    let runtime_trip_check = !ir.trip.is_compile_time_known() && vectorized;
    if let TripCount::Runtime(_) = ir.trip {
        per_exec_uops += 2.0;
    }

    LoopShape {
        blocks,
        elems_per_block: block,
        uops,
        recurrences,
        streams,
        remainder_elems: remainder,
        scalar_uops_per_iter: scalar_uops,
        per_execution_overhead_uops: per_exec_uops,
        live_vector_regs: live_regs.round() as u32,
        runtime_trip_check,
    }
}

/// Steady-state working set of one access: unique bytes per innermost pass,
/// streamed over the outer iterations that move its base, capped by the
/// array size.
fn effective_footprint(a: &nvc_ir::MemAccess, ir: &LoopIr) -> u64 {
    let per_pass = a.bytes_touched(ir.trip.count());
    let streamed = per_pass.saturating_mul(a.reuse_trips.max(1));
    if a.array_bytes > 0 {
        streamed.min(a.array_bytes.max(per_pass.min(a.array_bytes)))
    } else {
        streamed
    }
}

fn widest(a: ScalarType, b: ScalarType) -> ScalarType {
    if a.size_bytes() >= b.size_bytes() {
        a
    } else {
        b
    }
}

/// Total physical uops the compiler must emit for this shape (steady body +
/// one scalar remainder body). Drives the compile-time model.
pub fn emitted_uops(shape: &LoopShape) -> f64 {
    let body: f64 = shape.uops.iter().map(|u| u.count).sum();
    body + shape.scalar_uops_per_iter + shape.per_execution_overhead_uops
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

    const COPY: &str = "float a[4096] __attribute__((aligned(64))); float b[4096] __attribute__((aligned(64)));\nvoid f() { for (int i = 0; i < 4096; i++) { a[i] = b[i]; } }";

    #[test]
    fn exact_trip_splits_into_whole_blocks() {
        let ir = lower(COPY, &ParamEnv::new());
        let shape = build_shape(&ir, VectorDecision::new(8, 2), &target());
        assert_eq!(shape.elems_per_block, 16);
        assert_eq!(shape.blocks, 256);
        assert_eq!(shape.remainder_elems, 0);
        assert!(!shape.runtime_trip_check);
    }

    #[test]
    fn remainder_when_trip_not_divisible() {
        let src = "float a[4096]; float b[4096];\nvoid f() { for (int i = 0; i < 1000; i++) { a[i] = b[i]; } }";
        let ir = lower(src, &ParamEnv::new());
        let shape = build_shape(&ir, VectorDecision::new(16, 4), &target());
        assert_eq!(shape.blocks, 15);
        assert_eq!(shape.remainder_elems, 1000 - 15 * 64);
    }

    #[test]
    fn tiny_trip_runs_fully_scalar() {
        let src =
            "float a[64]; float b[64];\nvoid f() { for (int i = 0; i < 30; i++) { a[i] = b[i]; } }";
        let ir = lower(src, &ParamEnv::new());
        let shape = build_shape(&ir, VectorDecision::new(64, 8), &target());
        assert_eq!(shape.blocks, 0);
        assert_eq!(shape.remainder_elems, 30);
    }

    #[test]
    fn runtime_trip_needs_guard() {
        let src = "float a[4096]; float b[4096];\nvoid f(int n) { for (int i = 0; i < n; i++) { a[i] = b[i]; } }";
        let ir = lower(src, &ParamEnv::new().with("n", 4096));
        let shape = build_shape(&ir, VectorDecision::new(8, 1), &target());
        assert!(shape.runtime_trip_check);
        let scalar = build_shape(&ir, VectorDecision::new(1, 1), &target());
        assert!(!scalar.runtime_trip_check);
    }

    #[test]
    fn wide_vf_multiplies_uops() {
        let ir = lower(COPY, &ParamEnv::new());
        let t = target();
        let narrow = build_shape(&ir, VectorDecision::new(8, 1), &t);
        let wide = build_shape(&ir, VectorDecision::new(64, 1), &t);
        let n_loads = |s: &LoopShape| {
            s.uops
                .iter()
                .filter(|u| u.class == ResourceClass::VLoad)
                .map(|u| u.count)
                .sum::<f64>()
        };
        // VF 64 on f32 = 8 physical registers per value.
        assert!((n_loads(&wide) / n_loads(&narrow) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_creates_recurrence_and_accumulators() {
        let src = "float x[4096];\nfloat f() { float s = 0.0; for (int i = 0; i < 4096; i++) { s += x[i]; } return s; }";
        let ir = lower(src, &ParamEnv::new());
        let t = target();
        let shape = build_shape(&ir, VectorDecision::new(8, 4), &t);
        assert_eq!(shape.recurrences.len(), 1);
        assert_eq!(shape.recurrences[0].op_latency, 4.0);
        // 4 interleaved accumulators of 1 register each + temps.
        assert!(shape.live_vector_regs >= 4);
        let huge = build_shape(&ir, VectorDecision::new(64, 16), &t);
        // 8 regs × 16 copies = 128 accumulators: way past the register file.
        assert!(huge.live_vector_regs > t.num_vector_regs);
    }

    #[test]
    fn masked_store_costs_more() {
        let plain = lower(COPY, &ParamEnv::new());
        let src = "float a[4096]; float b[4096];\nvoid f() { for (int i = 0; i < 4096; i++) { if (b[i] > 0.0) { a[i] = b[i]; } } }";
        let masked = lower(src, &ParamEnv::new());
        let t = target();
        let d = VectorDecision::new(8, 1);
        let store_uops = |ir: &LoopIr| {
            build_shape(ir, d, &t)
                .uops
                .iter()
                .filter(|u| u.class == ResourceClass::VStore)
                .map(|u| u.count)
                .sum::<f64>()
        };
        assert!(store_uops(&masked) > store_uops(&plain) * 1.5);
    }

    #[test]
    fn gather_scalarizes_lanes() {
        let src = "int a[65536]; int idx[4096]; int out[4096];\nvoid f() { for (int i = 0; i < 4096; i++) { out[i] = a[idx[i]]; } }";
        let ir = lower(src, &ParamEnv::new());
        let shape = build_shape(&ir, VectorDecision::new(8, 1), &target());
        let gathers: f64 = shape
            .streams
            .iter()
            .filter(|s| matches!(s.pattern, StreamPattern::Gather))
            .map(|s| s.gather_lanes_per_block)
            .sum();
        assert_eq!(gathers, 8.0);
    }

    #[test]
    fn small_stride_uses_interleaved_lowering() {
        let src = "float a[2048]; float b[4096];\nvoid f() { for (int i = 0; i < 2048; i++) { a[i] = b[2*i]; } }";
        let ir = lower(src, &ParamEnv::new());
        let shape = build_shape(&ir, VectorDecision::new(8, 1), &target());
        // No gather streams: stride 2 lowers to wide loads + shuffles.
        assert!(shape
            .streams
            .iter()
            .all(|s| !matches!(s.pattern, StreamPattern::Gather)));
        // But it loads 2× the data.
        let bytes: f64 = shape
            .streams
            .iter()
            .filter(|s| !s.is_store)
            .map(|s| s.bytes_per_block)
            .sum();
        assert!(bytes >= 8.0 * 4.0 * 2.0 * 0.9);
    }

    #[test]
    fn misaligned_loads_cost_extra() {
        let aligned = lower(COPY, &ParamEnv::new());
        let src = "float a[4096]; float b[4097];\nvoid f() { for (int i = 0; i < 4096; i++) { a[i] = b[i+1]; } }";
        let misaligned = lower(src, &ParamEnv::new());
        let t = target();
        let d = VectorDecision::new(8, 1);
        let load_uops = |ir: &LoopIr| {
            build_shape(ir, d, &t)
                .uops
                .iter()
                .filter(|u| u.class == ResourceClass::VLoad)
                .map(|u| u.count)
                .sum::<f64>()
        };
        assert!(load_uops(&misaligned) > load_uops(&aligned));
    }

    #[test]
    fn clamp_respects_dependences_and_target() {
        let src =
            "int a[4096];\nvoid f(int n) { for (int i = 0; i < n-4; i++) { a[i+4] = a[i]; } }";
        let ir = lower(src, &ParamEnv::new().with("n", 4096));
        let t = target();
        assert_eq!(
            clamp_decision(&ir, VectorDecision::new(64, 8), &t),
            VectorDecision::new(4, 8)
        );
        // IF clamps to the target maximum.
        assert_eq!(
            clamp_decision(&ir, VectorDecision::new(2, 512), &t).if_,
            t.max_if
        );
    }

    #[test]
    fn emitted_uops_grow_with_factors() {
        let ir = lower(COPY, &ParamEnv::new());
        let t = target();
        let small = emitted_uops(&build_shape(&ir, VectorDecision::new(4, 1), &t));
        let big = emitted_uops(&build_shape(&ir, VectorDecision::new(64, 16), &t));
        assert!(big > small * 20.0);
    }

    #[test]
    fn footprints_capped_by_array_size() {
        // Matmul B: strided access streamed over outer trips would exceed
        // the array; the cap keeps it at the array size.
        let src = "float A[64][64]; float B[64][64]; float C[64][64];
void mm() { for (int i=0;i<64;i++) for (int j=0;j<64;j++) { float s=0.0; for (int k=0;k<64;k++) { s += A[i][k]*B[k][j]; } C[i][j]=s; } }";
        let ir = lower(src, &ParamEnv::new());
        let shape = build_shape(&ir, VectorDecision::new(8, 1), &target());
        for s in &shape.streams {
            assert!(s.footprint_bytes <= 64 * 64 * 4);
        }
    }
}
