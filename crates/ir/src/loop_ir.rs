//! The loop IR itself: a flat SSA instruction list per innermost loop.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::access::MemAccess;
use crate::types::ScalarType;

/// Index of an SSA value in a [`LoopIr`] body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ValueId(pub u32);

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Binary operations of the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOpIr {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Rem,
    /// Left shift.
    Shl,
    /// Right shift.
    Shr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

/// Comparison predicates (produce `i1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// Unary operations of the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOpIr {
    /// Arithmetic negation.
    Neg,
    /// Logical not (on `i1`).
    Not,
    /// Bitwise complement.
    BitNot,
}

/// Kinds of reductions the vectorizer recognizes.
///
/// Matching LLVM, integer reductions are always vectorizable; floating-point
/// sum/product reductions assume fast-math-style reassociation (the paper's
/// kernels are compiled that way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReductionKind {
    /// `s += x` (also `s -= x`).
    Sum,
    /// `s *= x`.
    Product,
    /// `m = min(m, x)` in any surface form.
    Min,
    /// `m = max(m, x)` in any surface form.
    Max,
    /// `s &= x`.
    And,
    /// `s |= x`.
    Or,
    /// `s ^= x`.
    Xor,
}

/// A recognized reduction over a scalar accumulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reduction {
    /// Accumulator variable name.
    pub var: String,
    /// Kind of combination.
    pub kind: ReductionKind,
    /// Element type of the accumulator.
    pub ty: ScalarType,
}

/// One IR instruction. Instructions are in program order; operands always
/// refer to earlier instructions (SSA).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    /// Integer or float constant.
    Const {
        /// Value (integers stored exactly up to 2^53).
        val: f64,
        /// Type.
        ty: ScalarType,
    },
    /// Current value of the innermost induction variable.
    IndVar {
        /// Type (always integer).
        ty: ScalarType,
    },
    /// A loop-invariant parameter or outer-scope scalar read.
    Param {
        /// Name in the source.
        name: String,
        /// Type.
        ty: ScalarType,
    },
    /// Memory load; `access` indexes [`LoopIr::accesses`].
    Load {
        /// Access-site summary index.
        access: usize,
        /// Loaded type.
        ty: ScalarType,
    },
    /// Memory store of `value`; `access` indexes [`LoopIr::accesses`].
    Store {
        /// Access-site summary index.
        access: usize,
        /// Stored value.
        value: ValueId,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOpIr,
        /// Operand.
        a: ValueId,
        /// Result type.
        ty: ScalarType,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOpIr,
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
        /// Result type.
        ty: ScalarType,
    },
    /// Comparison producing `i1`.
    Cmp {
        /// Predicate.
        op: CmpOp,
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
        /// Operand type (not the `i1` result).
        ty: ScalarType,
    },
    /// `select cond, a, b` (if-conversion and ternaries).
    Select {
        /// Condition (`i1`).
        cond: ValueId,
        /// Value when true.
        a: ValueId,
        /// Value when false.
        b: ValueId,
        /// Result type.
        ty: ScalarType,
    },
    /// Scalar type conversion.
    Cast {
        /// Operand.
        a: ValueId,
        /// Source type.
        from: ScalarType,
        /// Destination type.
        to: ScalarType,
    },
    /// Math-library call (`sqrtf`, `fabsf`, …).
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<ValueId>,
        /// Result type.
        ty: ScalarType,
        /// True when a vector version exists (math intrinsics).
        vectorizable: bool,
    },
    /// Accumulator update feeding reduction `red` (indexes
    /// [`LoopIr::reductions`]). Carries the loop-carried dependence.
    ReduceUpdate {
        /// Reduction index.
        red: usize,
        /// New contribution combined into the accumulator.
        value: ValueId,
        /// Accumulator type.
        ty: ScalarType,
    },
}

impl Instr {
    /// Result type of the instruction (`None` for stores).
    pub fn result_ty(&self) -> Option<ScalarType> {
        match self {
            Instr::Const { ty, .. }
            | Instr::IndVar { ty }
            | Instr::Param { ty, .. }
            | Instr::Load { ty, .. }
            | Instr::Un { ty, .. }
            | Instr::Bin { ty, .. }
            | Instr::Select { ty, .. }
            | Instr::Call { ty, .. }
            | Instr::ReduceUpdate { ty, .. } => Some(*ty),
            Instr::Cmp { .. } => Some(ScalarType::I1),
            Instr::Cast { to, .. } => Some(*to),
            Instr::Store { .. } => None,
        }
    }

    /// Operand value ids of the instruction.
    pub(crate) fn operands(&self) -> Vec<ValueId> {
        match self {
            Instr::Const { .. }
            | Instr::IndVar { .. }
            | Instr::Param { .. }
            | Instr::Load { .. } => {
                vec![]
            }
            Instr::Store { value, .. } => vec![*value],
            Instr::Un { a, .. } => vec![*a],
            Instr::Bin { a, b, .. } | Instr::Cmp { a, b, .. } => vec![*a, *b],
            Instr::Select { cond, a, b, .. } => vec![*cond, *a, *b],
            Instr::Cast { a, .. } => vec![*a],
            Instr::Call { args, .. } => args.clone(),
            Instr::ReduceUpdate { value, .. } => vec![*value],
        }
    }
}

/// Trip count of a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TripCount {
    /// Known at compile time.
    Constant(u64),
    /// Only known at run time; carries the actual value used when the
    /// program executes (the compiler sees "unknown", the simulator uses the
    /// real count).
    Runtime(u64),
}

impl TripCount {
    /// The concrete iteration count used at execution time.
    pub fn count(self) -> u64 {
        match self {
            TripCount::Constant(n) | TripCount::Runtime(n) => n,
        }
    }

    /// True when the compiler can see the count.
    pub fn is_compile_time_known(self) -> bool {
        matches!(self, TripCount::Constant(_))
    }
}

/// An enclosing loop of the innermost loop, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OuterLoopInfo {
    /// Number of iterations the enclosing loop executes.
    pub(crate) trip: u64,
}

/// The IR of one innermost loop, ready for vectorization analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopIr {
    /// Induction variable name.
    pub ind_var: String,
    /// Iteration count.
    pub trip: TripCount,
    /// Induction step (+1 for canonical loops, −1 for reverse, +c for
    /// manually unrolled sources).
    pub step: i64,
    /// SSA body, one entry per [`ValueId`].
    pub body: Vec<Instr>,
    /// Memory access summaries referenced by `Load`/`Store` instructions.
    pub accesses: Vec<MemAccess>,
    /// Recognized reductions.
    pub reductions: Vec<Reduction>,
    /// True when any instruction executes under a condition (if-converted).
    pub predicated: bool,
    /// True when the body contains a call with no vector counterpart, a
    /// scalar loop-carried recurrence, or another vectorization blocker.
    pub not_vectorizable: bool,
    /// Human-readable reason when `not_vectorizable` is set.
    pub blocker: Option<String>,
    /// Enclosing loops, outermost first (empty for a top-level loop).
    pub outer: Vec<OuterLoopInfo>,
}

impl LoopIr {
    /// Total times the innermost loop body runs per kernel invocation
    /// (product of outer trips × own trip).
    pub fn total_iterations(&self) -> u64 {
        self.outer
            .iter()
            .map(|o| o.trip.max(1))
            .product::<u64>()
            .saturating_mul(self.trip.count())
    }

    /// Number of times the innermost loop is entered per kernel invocation.
    pub fn outer_executions(&self) -> u64 {
        self.outer
            .iter()
            .map(|o| o.trip.max(1))
            .product::<u64>()
            .max(1)
    }

    /// Loads in the body.
    pub fn loads(&self) -> impl Iterator<Item = &MemAccess> {
        self.accesses.iter().filter(|a| !a.is_store)
    }

    /// Stores in the body.
    pub fn stores(&self) -> impl Iterator<Item = &MemAccess> {
        self.accesses.iter().filter(|a| a.is_store)
    }

    /// Rough "work per iteration": arithmetic/memory instruction count,
    /// excluding constants and parameter reads. Used by the compile-time
    /// model and a few heuristics.
    pub fn work_instrs(&self) -> usize {
        self.body
            .iter()
            .filter(|i| {
                !matches!(
                    i,
                    Instr::Const { .. } | Instr::Param { .. } | Instr::IndVar { .. }
                )
            })
            .count()
    }

    /// Validates SSA well-formedness: every operand refers to an earlier
    /// instruction, and access/reduction indices are in range.
    ///
    /// Returns a description of the first violation found.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (idx, instr) in self.body.iter().enumerate() {
            for op in instr.operands() {
                if op.0 as usize >= idx {
                    return Err(format!(
                        "instruction {idx} uses {op} which is not defined earlier"
                    ));
                }
            }
            match instr {
                Instr::Load { access, .. } | Instr::Store { access, .. }
                    if *access >= self.accesses.len() =>
                {
                    return Err(format!("instruction {idx} references invalid access"));
                }
                Instr::ReduceUpdate { red, .. } if *red >= self.reductions.len() => {
                    return Err(format!("instruction {idx} references invalid reduction"));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, OuterVariation};

    fn unit_access(is_store: bool) -> MemAccess {
        MemAccess {
            array: "a".into(),
            ty: ScalarType::I32,
            kind: AccessKind::Unit,
            offset: 0,
            is_store,
            predicated: false,
            aligned: true,
            outer: OuterVariation::Varies,
            reuse_trips: 1,
            array_bytes: 1 << 20,
        }
    }

    fn simple_loop() -> LoopIr {
        // for i: a[i] = b[i] + 1
        LoopIr {
            ind_var: "i".into(),
            trip: TripCount::Constant(128),
            step: 1,
            body: vec![
                Instr::Load {
                    access: 0,
                    ty: ScalarType::I32,
                },
                Instr::Const {
                    val: 1.0,
                    ty: ScalarType::I32,
                },
                Instr::Bin {
                    op: BinOpIr::Add,
                    a: ValueId(0),
                    b: ValueId(1),
                    ty: ScalarType::I32,
                },
                Instr::Store {
                    access: 1,
                    value: ValueId(2),
                },
            ],
            accesses: vec![unit_access(false), unit_access(true)],
            reductions: vec![],
            predicated: false,
            not_vectorizable: false,
            blocker: None,
            outer: vec![],
        }
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(simple_loop().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let mut l = simple_loop();
        l.body[2] = Instr::Bin {
            op: BinOpIr::Add,
            a: ValueId(3),
            b: ValueId(1),
            ty: ScalarType::I32,
        };
        assert!(l.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_access_index() {
        let mut l = simple_loop();
        l.body[0] = Instr::Load {
            access: 9,
            ty: ScalarType::I32,
        };
        assert!(l.validate().is_err());
    }

    #[test]
    fn total_iterations_multiplies_outer() {
        let mut l = simple_loop();
        l.outer = vec![OuterLoopInfo { trip: 10 }, OuterLoopInfo { trip: 5 }];
        assert_eq!(l.total_iterations(), 10 * 5 * 128);
        assert_eq!(l.outer_executions(), 50);
    }

    #[test]
    fn loads_and_stores_split() {
        let l = simple_loop();
        assert_eq!(l.loads().count(), 1);
        assert_eq!(l.stores().count(), 1);
    }

    #[test]
    fn work_instrs_skips_constants() {
        let l = simple_loop();
        // load, add, store — the constant is free.
        assert_eq!(l.work_instrs(), 3);
    }

    #[test]
    fn trip_count_visibility() {
        assert!(TripCount::Constant(8).is_compile_time_known());
        assert!(!TripCount::Runtime(8).is_compile_time_known());
        assert_eq!(TripCount::Runtime(8).count(), 8);
    }

    #[test]
    fn instr_result_types() {
        assert_eq!(
            Instr::Cmp {
                op: CmpOp::Lt,
                a: ValueId(0),
                b: ValueId(1),
                ty: ScalarType::I32
            }
            .result_ty(),
            Some(ScalarType::I1)
        );
        assert_eq!(
            Instr::Store {
                access: 0,
                value: ValueId(0)
            }
            .result_ty(),
            None
        );
        assert_eq!(
            Instr::Cast {
                a: ValueId(0),
                from: ScalarType::I16,
                to: ScalarType::I32
            }
            .result_ty(),
            Some(ScalarType::I32)
        );
    }
}
