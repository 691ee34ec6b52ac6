//! Per-operation execution characteristics shared by the plan builder and
//! the baseline cost model.
//!
//! The *plan builder* uses these as physical uop classes and latencies for
//! the machine model. The *baseline cost model* uses only the throughput
//! cost column — a deliberately linear view, as LLVM's TTI tables are.

use nvc_ir::{BinOpIr, ScalarType};
use nvc_machine::ResourceClass;

/// Execution profile of one scalar operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OpProfile {
    /// Resource the uop executes on.
    pub(crate) class: ResourceClass,
    /// Result latency in cycles.
    pub(crate) latency: f64,
    /// Micro-ops per native vector of results (usually 1; 2 for half-rate
    /// operations like 32-bit vector multiply).
    pub(crate) uops: f64,
}

impl OpProfile {
    const fn new(class: ResourceClass, latency: f64, uops: f64) -> Self {
        Self {
            class,
            latency,
            uops,
        }
    }
}

/// Profile of a binary arithmetic operation on `ty` in *vector* context.
///
/// Scalar context differs for a few ops (e.g. scalar `imul` is a single
/// 3-cycle uop while `vpmulld` is 2 uops at 10 cycles); use
/// [`bin_profile_for`] when the context is known.
pub(crate) fn bin_profile(op: BinOpIr, ty: ScalarType) -> OpProfile {
    use BinOpIr::*;
    use ResourceClass::*;
    let float = ty.is_float();
    match op {
        Add | Sub => {
            if float {
                OpProfile::new(VAlu, 4.0, 1.0)
            } else {
                OpProfile::new(VAlu, 1.0, 1.0)
            }
        }
        Mul => {
            if float {
                OpProfile::new(VMul, 4.0, 1.0)
            } else {
                // vpmulld is a 2-uop, 10-cycle operation on this
                // microarchitecture class.
                OpProfile::new(VMul, 10.0, 2.0)
            }
        }
        Div | Rem => {
            if ty == ScalarType::F32 {
                OpProfile::new(VDiv, 11.0, 1.0)
            } else if ty == ScalarType::F64 {
                OpProfile::new(VDiv, 14.0, 1.0)
            } else {
                // Integer division vectorizes poorly; scalarized sequences.
                OpProfile::new(VDiv, 22.0, 2.0)
            }
        }
        Shl | Shr => OpProfile::new(VAlu, 1.0, 1.0),
        And | Or | Xor => OpProfile::new(VAlu, 1.0, 1.0),
    }
}

/// Profile of a binary operation, accounting for scalar vs vector context.
pub(crate) fn bin_profile_for(op: BinOpIr, ty: ScalarType, vectorized: bool) -> OpProfile {
    if !vectorized && !ty.is_float() {
        match op {
            BinOpIr::Mul => return OpProfile::new(ResourceClass::VMul, 3.0, 1.0),
            BinOpIr::Div | BinOpIr::Rem => return OpProfile::new(ResourceClass::VDiv, 26.0, 1.0),
            _ => {}
        }
    }
    bin_profile(op, ty)
}

/// Profile of a comparison on `ty`.
pub(crate) fn cmp_profile(ty: ScalarType) -> OpProfile {
    if ty.is_float() {
        OpProfile::new(ResourceClass::VAlu, 4.0, 1.0)
    } else {
        OpProfile::new(ResourceClass::VAlu, 1.0, 1.0)
    }
}

/// Profile of a select/blend.
pub(crate) fn select_profile() -> OpProfile {
    OpProfile::new(ResourceClass::VAlu, 1.0, 1.0)
}

/// Profile of a scalar conversion between `from` and `to`.
///
/// Width-changing vector casts also need lane re-packing; the extra uops
/// are charged in the plan builder because they depend on VF.
pub(crate) fn cast_profile(from: ScalarType, to: ScalarType) -> OpProfile {
    let int_to_float = !from.is_float() && to.is_float();
    let float_to_int = from.is_float() && !to.is_float();
    if int_to_float || float_to_int {
        OpProfile::new(ResourceClass::VAlu, 5.0, 1.0)
    } else {
        OpProfile::new(ResourceClass::VAlu, 1.0, 1.0)
    }
}

/// Profile of a vectorizable math call, if we model it.
pub fn call_profile(name: &str) -> OpProfile {
    match name {
        "sqrtf" => OpProfile::new(ResourceClass::VDiv, 12.0, 1.0),
        "sqrt" => OpProfile::new(ResourceClass::VDiv, 16.0, 1.0),
        "fabsf" | "fabs" | "abs" => OpProfile::new(ResourceClass::VAlu, 1.0, 1.0),
        "fmaxf" | "fminf" | "fmax" | "fmin" | "max" | "min" => {
            OpProfile::new(ResourceClass::VAlu, 4.0, 1.0)
        }
        "floorf" | "ceilf" | "floor" | "ceil" => OpProfile::new(ResourceClass::VAlu, 6.0, 1.0),
        // Polynomial expansions: several multiply-adds deep.
        "expf" | "logf" | "sinf" | "cosf" | "exp" | "log" | "sin" | "cos" => {
            OpProfile::new(ResourceClass::VMul, 20.0, 8.0)
        }
        _ => OpProfile::new(ResourceClass::Scalar, 20.0, 10.0),
    }
}

/// Latency of the combining operation of a reduction (drives `RecMII`).
pub(crate) fn reduction_latency(kind: nvc_ir::ReductionKind, ty: ScalarType) -> f64 {
    use nvc_ir::ReductionKind::*;
    match kind {
        Sum => {
            if ty.is_float() {
                4.0
            } else {
                1.0
            }
        }
        Product => {
            if ty.is_float() {
                4.0
            } else {
                10.0
            }
        }
        Min | Max => {
            if ty.is_float() {
                4.0
            } else {
                1.0
            }
        }
        And | Or | Xor => 1.0,
    }
}

/// The baseline cost model's *throughput cost* of one scalar operation, in
/// abstract units (≈ reciprocal throughput). Linear by construction.
pub(crate) fn scalar_throughput_cost(profile: OpProfile) -> f64 {
    match profile.class {
        ResourceClass::VDiv => profile.latency / 2.0,
        _ => profile.uops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_add_slower_than_int_add() {
        let f = bin_profile(BinOpIr::Add, ScalarType::F32);
        let i = bin_profile(BinOpIr::Add, ScalarType::I32);
        assert!(f.latency > i.latency);
    }

    #[test]
    fn int_mul_is_half_rate() {
        let p = bin_profile(BinOpIr::Mul, ScalarType::I32);
        assert_eq!(p.uops, 2.0);
        assert_eq!(p.class, ResourceClass::VMul);
    }

    #[test]
    fn divide_goes_to_divider() {
        for ty in [ScalarType::F32, ScalarType::F64, ScalarType::I32] {
            assert_eq!(bin_profile(BinOpIr::Div, ty).class, ResourceClass::VDiv);
        }
    }

    #[test]
    fn reduction_latencies() {
        use nvc_ir::ReductionKind::*;
        assert_eq!(reduction_latency(Sum, ScalarType::F32), 4.0);
        assert_eq!(reduction_latency(Sum, ScalarType::I32), 1.0);
        assert_eq!(reduction_latency(Product, ScalarType::I32), 10.0);
        assert_eq!(reduction_latency(Xor, ScalarType::I64), 1.0);
    }

    #[test]
    fn unknown_call_is_scalar_and_heavy() {
        let p = call_profile("qsort_helper");
        assert_eq!(p.class, ResourceClass::Scalar);
        assert!(p.uops >= 10.0);
    }

    #[test]
    fn throughput_cost_of_divides_reflects_occupancy() {
        let div = scalar_throughput_cost(bin_profile(BinOpIr::Div, ScalarType::F32));
        let add = scalar_throughput_cost(bin_profile(BinOpIr::Add, ScalarType::F32));
        assert!(div > 4.0 * add);
    }
}
