//! Lowering innermost AST loops into [`LoopIr`].
//!
//! Reproduces the analyses the Clang/LLVM pipeline performs before its loop
//! vectorizer runs:
//!
//! * canonical induction-variable and trip-count recognition (`i = a; i < b;
//!   i += c` and friends, forward or reverse);
//! * scalar-evolution-lite affine analysis of every array subscript
//!   (including linearized multi-dimensional accesses);
//! * if-conversion: conditionals become masks and selects, stores become
//!   predicated stores;
//! * reduction recognition (`s += x`, `m = x > m ? x : m`,
//!   `m = fmaxf(m, x)`, …);
//! * conservative bail-outs — early exits, unknown calls, scalar
//!   recurrences — which mark the loop not-vectorizable instead of failing,
//!   because real programs (MiBench) contain such loops and still compile.

use std::collections::{BTreeMap, HashMap, HashSet};

use serde::{Deserialize, Serialize};

use nvc_frontend::ast::{
    BinaryOp, Expr, ExprKind, Function, Stmt, StmtKind, TranslationUnit, UnaryOp,
};

use crate::access::{AccessKind, MemAccess, OuterVariation};
use crate::loop_ir::{
    BinOpIr, CmpOp, Instr, LoopIr, OuterLoopInfo, Reduction, ReductionKind, TripCount, UnOpIr,
    ValueId,
};
use crate::program::{ArrayInfo, ParamEnv, DEFAULT_TRIP};
use crate::types::ScalarType;
use crate::IrError;

/// A lowered innermost loop together with its source coordinates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoweredLoop {
    /// The loop IR.
    pub ir: LoopIr,
    /// Enclosing function name.
    pub function: String,
    /// Source-order index among all innermost loops of the unit.
    pub loop_index: usize,
    /// 1-based line of the loop header (pragma insertion point).
    pub header_line: u32,
    /// Source text of the loop itself.
    pub text: String,
    /// Arrays referenced by the loop.
    pub(crate) arrays: BTreeMap<String, ArrayInfo>,
}

/// Lowers every innermost loop in `tu`.
///
/// `source` must be the text `tu` was parsed from. Parameter values and
/// array-size estimates come from `env`.
///
/// # Errors
///
/// Returns [`IrError`] only for malformed input (e.g. a bound that cannot be
/// evaluated even with the environment); loops that merely cannot be
/// vectorized are returned with
/// [`LoopIr::not_vectorizable`] set.
pub fn lower_innermost_loops(
    tu: &TranslationUnit,
    source: &str,
    env: &ParamEnv,
) -> Result<Vec<LoweredLoop>, IrError> {
    let mut out = Vec::new();
    for f in tu.functions() {
        let mut scopes = ScopeInfo::from_function(tu, f, env);
        walk_for_innermost(
            &f.body,
            tu,
            f,
            source,
            env,
            &mut Vec::new(),
            &mut scopes,
            &mut out,
        )?;
    }
    for (i, l) in out.iter_mut().enumerate() {
        l.loop_index = i;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Scope tracking
// ---------------------------------------------------------------------

/// Names and types visible at the innermost loop from enclosing scopes.
#[derive(Debug, Clone)]
struct ScopeInfo {
    /// Scalar variables declared outside the innermost loop body.
    scalar_tys: HashMap<String, ScalarType>,
    /// Arrays (globals and pointer params).
    arrays: BTreeMap<String, ArrayInfo>,
}

impl ScopeInfo {
    fn from_function(tu: &TranslationUnit, f: &Function, env: &ParamEnv) -> Self {
        let mut scalar_tys = HashMap::new();
        let mut arrays = BTreeMap::new();
        for g in tu.globals() {
            if g.dims.is_empty() {
                scalar_tys.insert(g.name.clone(), ScalarType::from(g.ty));
            } else {
                let dims: Vec<u64> = g.dims.iter().map(|d| (*d).max(0) as u64).collect();
                let bytes =
                    dims.iter().product::<u64>() * u64::from(ScalarType::from(g.ty).size_bytes());
                arrays.insert(
                    g.name.clone(),
                    ArrayInfo {
                        name: g.name.clone(),
                        ty: ScalarType::from(g.ty),
                        dims,
                        alignment: g.alignment.unwrap_or(16),
                        bytes,
                    },
                );
            }
        }
        for p in &f.params {
            if p.is_pointer {
                let ty = ScalarType::from(p.ty);
                let elems = env.array_len(&p.name).unwrap_or(DEFAULT_TRIP);
                arrays.insert(
                    p.name.clone(),
                    ArrayInfo {
                        name: p.name.clone(),
                        ty,
                        dims: vec![],
                        alignment: 0, // unknown
                        bytes: elems * u64::from(ty.size_bytes()),
                    },
                );
            } else {
                scalar_tys.insert(p.name.clone(), ScalarType::from(p.ty));
            }
        }
        Self { scalar_tys, arrays }
    }
}

/// Recursive walk that finds innermost loops, tracking enclosing loop trip
/// counts, induction variables and declarations.
#[allow(clippy::too_many_arguments)]
fn walk_for_innermost(
    stmt: &Stmt,
    tu: &TranslationUnit,
    f: &Function,
    source: &str,
    env: &ParamEnv,
    outer: &mut Vec<(String, u64)>, // (iv name, trip)
    scopes: &mut ScopeInfo,
    out: &mut Vec<LoweredLoop>,
) -> Result<(), IrError> {
    match &stmt.kind {
        StmtKind::For { body, .. } | StmtKind::While { body, .. } => {
            let init = match &stmt.kind {
                StmtKind::For { init, .. } => init.as_deref(),
                _ => None,
            };
            let mut contains_loop = false;
            body.walk(&mut |s| {
                if s.is_loop() {
                    contains_loop = true;
                }
            });
            if body.is_loop() {
                contains_loop = true;
            }
            if contains_loop {
                // Not innermost: record this loop and any header decls, then
                // descend.
                let (iv, trip) = header_iv_and_trip(stmt, env);
                if let Some(Stmt {
                    kind: StmtKind::Decl { ty, declarators },
                    ..
                }) = init
                {
                    for d in declarators {
                        scopes
                            .scalar_tys
                            .insert(d.name.clone(), ScalarType::from(*ty));
                    }
                }
                outer.push((iv, trip));
                walk_for_innermost(body, tu, f, source, env, outer, scopes, out)?;
                outer.pop();
            } else {
                out.push(lower_innermost(stmt, f, source, env, outer, scopes)?);
            }
            Ok(())
        }
        StmtKind::Block(stmts) => {
            for s in stmts {
                // Track declarations between loops so later loops see them.
                if let StmtKind::Decl { ty, declarators } = &s.kind {
                    for d in declarators {
                        if d.dims.is_empty() {
                            scopes
                                .scalar_tys
                                .insert(d.name.clone(), ScalarType::from(*ty));
                        }
                    }
                }
                walk_for_innermost(s, tu, f, source, env, outer, scopes, out)?;
            }
            Ok(())
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            walk_for_innermost(then_branch, tu, f, source, env, outer, scopes, out)?;
            if let Some(e) = else_branch {
                walk_for_innermost(e, tu, f, source, env, outer, scopes, out)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Extracts (induction variable, trip count) from a loop header for *outer*
/// loop bookkeeping; unknown forms get the environment default.
fn header_iv_and_trip(stmt: &Stmt, env: &ParamEnv) -> (String, u64) {
    if let StmtKind::For {
        init, cond, step, ..
    } = &stmt.kind
    {
        if let Some(h) = analyze_header(init.as_deref(), cond.as_ref(), step.as_ref(), env) {
            return (h.iv, h.trip.count());
        }
    }
    ("<unknown>".to_string(), DEFAULT_TRIP)
}

// ---------------------------------------------------------------------
// Loop header analysis
// ---------------------------------------------------------------------

#[derive(Debug)]
struct HeaderInfo {
    iv: String,
    start: i64,
    step: i64,
    trip: TripCount,
}

/// Evaluates an expression to an integer given the environment.
/// Returns `(value, compile_time_known)`.
fn eval_expr(e: &Expr, env: &ParamEnv) -> Option<(i64, bool)> {
    match &e.kind {
        ExprKind::IntLit(v) => Some((*v, true)),
        ExprKind::FloatLit(v) => Some((*v as i64, true)),
        ExprKind::Ident(name) => env.value(name).map(|v| (v, false)),
        ExprKind::Unary {
            op: UnaryOp::Neg,
            operand,
        } => eval_expr(operand, env).map(|(v, k)| (-v, k)),
        ExprKind::Cast { operand, .. } => eval_expr(operand, env),
        ExprKind::Binary { op, lhs, rhs } => {
            let (a, ka) = eval_expr(lhs, env)?;
            let (b, kb) = eval_expr(rhs, env)?;
            let v = match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => {
                    if b == 0 {
                        return None;
                    }
                    a / b
                }
                BinaryOp::Rem => {
                    if b == 0 {
                        return None;
                    }
                    a % b
                }
                BinaryOp::Shl => a << (b & 63),
                BinaryOp::Shr => a >> (b & 63),
                _ => return None,
            };
            Some((v, ka && kb))
        }
        _ => None,
    }
}

/// Recognizes the canonical `for` header forms.
fn analyze_header(
    init: Option<&Stmt>,
    cond: Option<&Expr>,
    step: Option<&Expr>,
    env: &ParamEnv,
) -> Option<HeaderInfo> {
    // --- induction variable & start ---
    let (iv, start_expr) = match init.map(|s| &s.kind) {
        Some(StmtKind::Decl { declarators, .. }) if declarators.len() == 1 => {
            let d = &declarators[0];
            (d.name.clone(), d.init.as_ref()?)
        }
        Some(StmtKind::Expr(Expr {
            kind:
                ExprKind::Assign {
                    op: None,
                    target,
                    value,
                },
            ..
        })) => match &target.kind {
            ExprKind::Ident(n) => (n.clone(), value.as_ref()),
            _ => return None,
        },
        _ => return None,
    };
    let start_eval = eval_expr(start_expr, env);

    // --- step ---
    let step_val = match step.map(|e| &e.kind) {
        Some(ExprKind::IncDec { target, delta, .. }) => match &target.kind {
            ExprKind::Ident(n) if *n == iv => *delta,
            _ => return None,
        },
        Some(ExprKind::Assign {
            op: Some(BinaryOp::Add),
            target,
            value,
        }) => match &target.kind {
            ExprKind::Ident(n) if *n == iv => eval_expr(value, env)?.0,
            _ => return None,
        },
        Some(ExprKind::Assign {
            op: Some(BinaryOp::Sub),
            target,
            value,
        }) => match &target.kind {
            ExprKind::Ident(n) if *n == iv => -eval_expr(value, env)?.0,
            _ => return None,
        },
        Some(ExprKind::Assign {
            op: None,
            target,
            value,
        }) => {
            // i = i + c / i = i - c
            let ExprKind::Ident(n) = &target.kind else {
                return None;
            };
            if *n != iv {
                return None;
            }
            match &value.kind {
                ExprKind::Binary { op, lhs, rhs } => {
                    let c = match (&lhs.kind, &rhs.kind) {
                        (ExprKind::Ident(l), _) if *l == iv => eval_expr(rhs, env)?.0,
                        (_, ExprKind::Ident(r)) if *r == iv && *op == BinaryOp::Add => {
                            eval_expr(lhs, env)?.0
                        }
                        _ => return None,
                    };
                    match op {
                        BinaryOp::Add => c,
                        BinaryOp::Sub => -c,
                        _ => return None,
                    }
                }
                _ => return None,
            }
        }
        _ => return None,
    };
    if step_val == 0 {
        return None;
    }

    // --- bound ---
    let ExprKind::Binary { op, lhs, rhs } = &cond?.kind else {
        return None;
    };
    // Normalize so the IV is on the left.
    let (cmp, bound_expr) = match (&lhs.kind, &rhs.kind) {
        (ExprKind::Ident(n), _) if *n == iv => (*op, rhs.as_ref()),
        (_, ExprKind::Ident(n)) if *n == iv => {
            let flipped = match op {
                BinaryOp::Lt => BinaryOp::Gt,
                BinaryOp::Le => BinaryOp::Ge,
                BinaryOp::Gt => BinaryOp::Lt,
                BinaryOp::Ge => BinaryOp::Le,
                other => *other,
            };
            (flipped, lhs.as_ref())
        }
        _ => return None,
    };
    // Tile-loop pattern first: `for (i = base; i < base + C; i++)` where
    // `base` is an enclosing tile induction variable the evaluator cannot
    // see. The compiler still knows the trip count exactly (Polly emits
    // such loops), so it is a compile-time constant.
    if start_eval.is_none() || eval_expr(bound_expr, env).is_none() {
        if let ExprKind::Binary {
            op: BinaryOp::Add,
            lhs,
            rhs,
        } = &bound_expr.kind
        {
            let span = if exprs_equal(lhs, start_expr) {
                eval_expr(rhs, env)
            } else if exprs_equal(rhs, start_expr) {
                eval_expr(lhs, env)
            } else {
                None
            };
            if let Some((c, true)) = span {
                if cmp == BinaryOp::Lt && step_val > 0 && c > 0 {
                    return Some(HeaderInfo {
                        iv,
                        start: 0,
                        step: step_val,
                        trip: TripCount::Constant(((c + step_val - 1) / step_val) as u64),
                    });
                }
            }
        }
    }

    let (start, start_known) = start_eval?;
    let (bound, bound_known) = eval_expr(bound_expr, env)?;

    // Signed div_ceil is unstable on this toolchain; step sign is handled
    // by the match arms so the divisor is always positive here.
    let dc = |a: i64, b: i64| (a + b - 1) / b;
    let iters = match (cmp, step_val > 0) {
        (BinaryOp::Lt, true) => dc((bound - start).max(0), step_val),
        (BinaryOp::Le, true) => dc((bound - start + 1).max(0), step_val),
        (BinaryOp::Gt, false) => dc((start - bound).max(0), -step_val),
        (BinaryOp::Ge, false) => dc((start - bound + 1).max(0), -step_val),
        (BinaryOp::Ne, _) => ((bound - start) / step_val).max(0),
        _ => return None,
    };
    let trip = if start_known && bound_known {
        TripCount::Constant(iters.max(0) as u64)
    } else {
        TripCount::Runtime(iters.max(0) as u64)
    };
    Some(HeaderInfo {
        iv,
        start,
        step: step_val,
        trip,
    })
}

// ---------------------------------------------------------------------
// Body lowering
// ---------------------------------------------------------------------

struct BodyLowering<'a> {
    scopes: &'a ScopeInfo,
    outer: &'a [(String, u64)],
    iv: String,
    start: i64,
    step: i64,
    body: Vec<Instr>,
    accesses: Vec<MemAccess>,
    /// GVN-lite: (array, kind, offset, predicated) → load value.
    load_cse: HashMap<(String, AccessKind, i64, bool), ValueId>,
    reductions: Vec<Reduction>,
    reduction_vars: HashMap<String, usize>,
    symbols: HashMap<String, (ValueId, ScalarType)>,
    local_tys: HashMap<String, ScalarType>,
    written_outer_scalars: HashSet<String>,
    mask: Option<ValueId>,
    predicated_any: bool,
    blockers: Vec<String>,
    used_arrays: BTreeMap<String, ArrayInfo>,
}

impl<'a> BodyLowering<'a> {
    fn emit(&mut self, i: Instr) -> ValueId {
        self.body.push(i);
        ValueId((self.body.len() - 1) as u32)
    }

    fn block(&mut self, why: impl Into<String>) {
        self.blockers.push(why.into());
    }

    fn scalar_ty(&self, name: &str) -> Option<ScalarType> {
        self.local_tys
            .get(name)
            .copied()
            .or_else(|| self.scopes.scalar_tys.get(name).copied())
    }

    /// Inserts a cast if `v` is not already of type `to`.
    fn coerce(&mut self, v: ValueId, from: ScalarType, to: ScalarType) -> ValueId {
        if from == to {
            v
        } else {
            self.emit(Instr::Cast { a: v, from, to })
        }
    }

    fn lower_expr(&mut self, e: &Expr) -> (ValueId, ScalarType) {
        match &e.kind {
            ExprKind::IntLit(v) => {
                let ty = if *v > i64::from(i32::MAX) || *v < i64::from(i32::MIN) {
                    ScalarType::I64
                } else {
                    ScalarType::I32
                };
                (self.emit(Instr::Const { val: *v as f64, ty }), ty)
            }
            ExprKind::FloatLit(v) => {
                // Unsuffixed float literals are treated as f32 in the
                // subset — the paper's float kernels all compute in
                // single precision.
                let ty = ScalarType::F32;
                (self.emit(Instr::Const { val: *v, ty }), ty)
            }
            ExprKind::Ident(name) => self.lower_ident(name),
            ExprKind::Index { .. } => self.lower_load(e),
            ExprKind::Call { callee, args } => self.lower_call(callee, args),
            ExprKind::Unary { op, operand } => {
                let (a, ty) = self.lower_expr(operand);
                let op_ir = match op {
                    UnaryOp::Neg => UnOpIr::Neg,
                    UnaryOp::Not => UnOpIr::Not,
                    UnaryOp::BitNot => UnOpIr::BitNot,
                };
                let ty = if *op == UnaryOp::Not {
                    ScalarType::I1
                } else {
                    ty
                };
                (self.emit(Instr::Un { op: op_ir, a, ty }), ty)
            }
            ExprKind::Binary { op, lhs, rhs } => self.lower_binary(*op, lhs, rhs),
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let (c, cty) = self.lower_expr(cond);
                let c = self.to_bool(c, cty);
                let (a, aty) = self.lower_expr(then_expr);
                let (b, bty) = self.lower_expr(else_expr);
                let ty = unify(aty, bty);
                let a = self.coerce(a, aty, ty);
                let b = self.coerce(b, bty, ty);
                (self.emit(Instr::Select { cond: c, a, b, ty }), ty)
            }
            ExprKind::Cast { ty, operand } => {
                let (a, from) = self.lower_expr(operand);
                let to = ScalarType::from(*ty);
                (self.coerce(a, from, to), to)
            }
            ExprKind::Assign { .. } | ExprKind::IncDec { .. } => {
                self.block("assignment used as a subexpression");
                let ty = ScalarType::I32;
                (self.emit(Instr::Const { val: 0.0, ty }), ty)
            }
        }
    }

    fn lower_ident(&mut self, name: &str) -> (ValueId, ScalarType) {
        if name == self.iv {
            let ty = ScalarType::I32;
            return (self.emit(Instr::IndVar { ty }), ty);
        }
        if let Some((v, ty)) = self.symbols.get(name) {
            return (*v, *ty);
        }
        if let Some(&red) = self.reduction_vars.get(name) {
            // Reading the accumulator outside its own update pattern defeats
            // reduction vectorization.
            let ty = self.reductions[red].ty;
            self.block(format!("accumulator `{name}` read outside reduction"));
            return (
                self.emit(Instr::Param {
                    name: name.into(),
                    ty,
                }),
                ty,
            );
        }
        let ty = self.scalar_ty(name).unwrap_or(ScalarType::I32);
        if self.written_outer_scalars.contains(name) {
            // Read of a scalar that is also written in this body and was not
            // recognized as a reduction: loop-carried scalar recurrence.
            self.block(format!("scalar recurrence through `{name}`"));
        }
        (
            self.emit(Instr::Param {
                name: name.into(),
                ty,
            }),
            ty,
        )
    }

    fn to_bool(&mut self, v: ValueId, ty: ScalarType) -> ValueId {
        if ty == ScalarType::I1 {
            return v;
        }
        let zero = self.emit(Instr::Const { val: 0.0, ty });
        self.emit(Instr::Cmp {
            op: CmpOp::Ne,
            a: v,
            b: zero,
            ty,
        })
    }

    fn lower_binary(&mut self, op: BinaryOp, lhs: &Expr, rhs: &Expr) -> (ValueId, ScalarType) {
        if op.is_logical() {
            let (a, aty) = self.lower_expr(lhs);
            let a = self.to_bool(a, aty);
            let (b, bty) = self.lower_expr(rhs);
            let b = self.to_bool(b, bty);
            let ir_op = if op == BinaryOp::LogAnd {
                BinOpIr::And
            } else {
                BinOpIr::Or
            };
            return (
                self.emit(Instr::Bin {
                    op: ir_op,
                    a,
                    b,
                    ty: ScalarType::I1,
                }),
                ScalarType::I1,
            );
        }
        let (a, aty) = self.lower_expr(lhs);
        let (b, bty) = self.lower_expr(rhs);
        let ty = unify(aty, bty);
        let a = self.coerce(a, aty, ty);
        let b = self.coerce(b, bty, ty);
        if op.is_comparison() {
            let cmp = match op {
                BinaryOp::Lt => CmpOp::Lt,
                BinaryOp::Le => CmpOp::Le,
                BinaryOp::Gt => CmpOp::Gt,
                BinaryOp::Ge => CmpOp::Ge,
                BinaryOp::Eq => CmpOp::Eq,
                _ => CmpOp::Ne,
            };
            return (self.emit(Instr::Cmp { op: cmp, a, b, ty }), ScalarType::I1);
        }
        let ir_op = match op {
            BinaryOp::Add => BinOpIr::Add,
            BinaryOp::Sub => BinOpIr::Sub,
            BinaryOp::Mul => BinOpIr::Mul,
            BinaryOp::Div => BinOpIr::Div,
            BinaryOp::Rem => BinOpIr::Rem,
            BinaryOp::Shl => BinOpIr::Shl,
            BinaryOp::Shr => BinOpIr::Shr,
            BinaryOp::BitAnd => BinOpIr::And,
            BinaryOp::BitOr => BinOpIr::Or,
            BinaryOp::BitXor => BinOpIr::Xor,
            _ => unreachable!("comparisons handled above"),
        };
        (
            self.emit(Instr::Bin {
                op: ir_op,
                a,
                b,
                ty,
            }),
            ty,
        )
    }

    fn lower_call(&mut self, callee: &str, args: &[Expr]) -> (ValueId, ScalarType) {
        let arg_vals: Vec<(ValueId, ScalarType)> =
            args.iter().map(|a| self.lower_expr(a)).collect();
        let (vectorizable, ty) = math_fn_info(callee).unwrap_or((
            false,
            arg_vals.first().map(|a| a.1).unwrap_or(ScalarType::I32),
        ));
        if math_fn_info(callee).is_none() {
            self.block(format!("call to unknown function `{callee}`"));
        }
        (
            self.emit(Instr::Call {
                name: callee.to_string(),
                args: arg_vals.iter().map(|a| a.0).collect(),
                ty,
                vectorizable,
            }),
            ty,
        )
    }

    // -----------------------------------------------------------------
    // Memory accesses
    // -----------------------------------------------------------------

    /// Analyzes an index expression: affine coefficients in the innermost IV
    /// plus which outer IVs and parameters appear in the base.
    fn affine(&mut self, e: &Expr) -> Affine {
        match &e.kind {
            ExprKind::IntLit(v) => Affine::constant(*v),
            ExprKind::Ident(name) => {
                if *name == self.iv {
                    Affine {
                        iv_coeff: 1,
                        offset: 0,
                        outer_ivs: HashSet::new(),
                        has_param: false,
                        affine: true,
                    }
                } else if self.outer.iter().any(|(n, _)| n == name) {
                    Affine {
                        iv_coeff: 0,
                        offset: 0,
                        outer_ivs: std::iter::once(name.clone()).collect(),
                        has_param: false,
                        affine: true,
                    }
                } else if let Some((v, _)) = self.symbols.get(name) {
                    // A local temp: if it holds a loaded value, the address
                    // is data-dependent → gather.
                    let _ = v;
                    Affine::non_affine()
                } else {
                    // Loop-invariant parameter (unknown base offset).
                    Affine {
                        iv_coeff: 0,
                        offset: 0,
                        outer_ivs: HashSet::new(),
                        has_param: true,
                        affine: true,
                    }
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let a = self.affine(lhs);
                let b = self.affine(rhs);
                match op {
                    BinaryOp::Add => a.add(&b, 1),
                    BinaryOp::Sub => a.add(&b, -1),
                    BinaryOp::Mul => a.mul(&b),
                    BinaryOp::Shl => {
                        // e << c ≡ e * 2^c
                        if b.is_const() && b.offset >= 0 && b.offset < 32 {
                            a.scale(1 << b.offset)
                        } else {
                            Affine::non_affine()
                        }
                    }
                    BinaryOp::Div | BinaryOp::Rem | BinaryOp::Shr => {
                        if a.is_const() && b.is_const() {
                            match op {
                                BinaryOp::Div if b.offset != 0 => {
                                    Affine::constant(a.offset / b.offset)
                                }
                                BinaryOp::Rem if b.offset != 0 => {
                                    Affine::constant(a.offset % b.offset)
                                }
                                BinaryOp::Shr => Affine::constant(a.offset >> (b.offset & 63)),
                                _ => Affine::non_affine(),
                            }
                        } else {
                            Affine::non_affine()
                        }
                    }
                    _ => Affine::non_affine(),
                }
            }
            ExprKind::Unary {
                op: UnaryOp::Neg,
                operand,
            } => self.affine(operand).scale(-1),
            ExprKind::Cast { operand, .. } => self.affine(operand),
            ExprKind::Index { .. } | ExprKind::Call { .. } => Affine::non_affine(),
            _ => Affine::non_affine(),
        }
    }

    /// Builds (or CSE-reuses) the [`MemAccess`] for an array subscript
    /// expression and returns the access index.
    fn analyze_access(&mut self, e: &Expr, is_store: bool) -> Option<usize> {
        let (array, indices) = e.as_array_access()?;
        let array = array.to_string();
        let info = match self.scopes.arrays.get(&array) {
            Some(i) => i.clone(),
            None => {
                self.block(format!("subscript of non-array `{array}`"));
                return None;
            }
        };
        // Dimension coefficients for linearization.
        let ndims = if info.dims.is_empty() {
            1
        } else {
            info.dims.len()
        };
        if indices.len() != ndims {
            self.block(format!(
                "partial indexing of `{array}` ({} of {} dims)",
                indices.len(),
                ndims
            ));
            return None;
        }
        let mut combined = Affine::constant(0);
        for (k, idx) in indices.iter().enumerate() {
            let coeff: i64 = if info.dims.is_empty() {
                1
            } else {
                info.dims[k + 1..].iter().product::<u64>() as i64
            };
            let a = self.affine(idx).scale(coeff);
            combined = combined.add(&a, 1);
        }
        // Lower index sub-expressions that feed gathers so their cost is
        // modelled (`a[b[i]]` performs the `b[i]` load).
        if !combined.affine {
            for idx in &indices {
                let _ = self.lower_expr(idx);
            }
        }

        let stride_per_iter = combined.iv_coeff.saturating_mul(self.step);
        let kind = if !combined.affine {
            AccessKind::Gather
        } else if combined.iv_coeff == 0 {
            AccessKind::Invariant
        } else if stride_per_iter == 1 {
            AccessKind::Unit
        } else {
            AccessKind::Strided(stride_per_iter)
        };
        // Fold the loop start into the constant offset.
        let offset = combined.offset + combined.iv_coeff * self.start;
        let elem = u64::from(info.ty.size_bytes());
        let aligned = info.alignment >= 32
            && !combined.has_param
            && combined.outer_ivs.is_empty()
            && (offset.unsigned_abs() * elem) % 32 == 0;
        let reuse_trips: u64 = self
            .outer
            .iter()
            .filter(|(n, _)| combined.outer_ivs.contains(n))
            .map(|(_, t)| (*t).max(1))
            .product::<u64>()
            .max(1);
        let outer_var = if reuse_trips == 1 {
            OuterVariation::Invariant
        } else {
            OuterVariation::Varies
        };
        let predicated = self.mask.is_some();

        self.used_arrays.insert(array.clone(), info.clone());

        let acc = MemAccess {
            array: array.clone(),
            ty: info.ty,
            kind,
            offset,
            is_store,
            predicated,
            aligned,
            outer: outer_var,
            reuse_trips,
            array_bytes: info.bytes,
        };
        // Reuse an identical existing access-site for loads (CSE handles the
        // value; the site list should still reflect distinct sites, so only
        // exact duplicates collapse).
        if !is_store {
            if let Some(pos) = self.accesses.iter().position(|x| *x == acc) {
                return Some(pos);
            }
        }
        self.accesses.push(acc);
        Some(self.accesses.len() - 1)
    }

    fn lower_load(&mut self, e: &Expr) -> (ValueId, ScalarType) {
        match self.analyze_access(e, false) {
            Some(idx) => {
                let ty = self.accesses[idx].ty;
                let key = (
                    self.accesses[idx].array.clone(),
                    self.accesses[idx].kind,
                    self.accesses[idx].offset,
                    self.accesses[idx].predicated,
                );
                if self.accesses[idx].kind != AccessKind::Gather {
                    if let Some(v) = self.load_cse.get(&key) {
                        return (*v, ty);
                    }
                }
                let v = self.emit(Instr::Load { access: idx, ty });
                self.load_cse.insert(key, v);
                (v, ty)
            }
            None => {
                let ty = ScalarType::I32;
                (self.emit(Instr::Const { val: 0.0, ty }), ty)
            }
        }
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    fn lower_stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Block(stmts) => {
                for s in stmts {
                    self.lower_stmt(s);
                }
            }
            StmtKind::Decl { ty, declarators } => {
                for d in declarators {
                    if !d.dims.is_empty() {
                        self.block(format!("local array `{}` in loop body", d.name));
                        continue;
                    }
                    let sty = ScalarType::from(*ty);
                    self.local_tys.insert(d.name.clone(), sty);
                    if let Some(init) = &d.init {
                        let (v, vty) = self.lower_expr(init);
                        let v = self.coerce(v, vty, sty);
                        self.symbols.insert(d.name.clone(), (v, sty));
                    }
                }
            }
            StmtKind::Expr(e) => self.lower_expr_stmt(e),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => self.lower_if(cond, then_branch, else_branch.as_deref()),
            StmtKind::Return(_) | StmtKind::Break | StmtKind::Continue => {
                self.block("early exit inside loop body");
            }
            StmtKind::For { .. } | StmtKind::While { .. } => {
                // Unreachable for true innermost loops; defensive.
                self.block("nested loop inside innermost body");
            }
            StmtKind::Empty => {}
        }
    }

    fn lower_expr_stmt(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Assign { op, target, value } => {
                self.lower_assign(op.as_ref().copied(), target, value)
            }
            ExprKind::IncDec { target, delta, .. } => {
                // x++ ≡ x += 1.
                let one = Expr::new(ExprKind::IntLit(*delta), e.span);
                self.lower_assign(Some(BinaryOp::Add), target, &one);
            }
            _ => {
                let _ = self.lower_expr(e);
            }
        }
    }

    fn lower_if(&mut self, cond: &Expr, then_branch: &Stmt, else_branch: Option<&Stmt>) {
        let (c, cty) = self.lower_expr(cond);
        let c = self.to_bool(c, cty);
        self.predicated_any = true;

        let outer_mask = self.mask;
        let then_mask = match outer_mask {
            Some(m) => self.emit(Instr::Bin {
                op: BinOpIr::And,
                a: m,
                b: c,
                ty: ScalarType::I1,
            }),
            None => c,
        };

        let before = self.symbols.clone();
        self.mask = Some(then_mask);
        self.lower_stmt(then_branch);
        let then_syms = self.symbols.clone();

        let else_syms = if let Some(eb) = else_branch {
            self.symbols = before.clone();
            let not_c = self.emit(Instr::Un {
                op: UnOpIr::Not,
                a: c,
                ty: ScalarType::I1,
            });
            let else_mask = match outer_mask {
                Some(m) => self.emit(Instr::Bin {
                    op: BinOpIr::And,
                    a: m,
                    b: not_c,
                    ty: ScalarType::I1,
                }),
                None => not_c,
            };
            self.mask = Some(else_mask);
            self.lower_stmt(eb);
            self.symbols.clone()
        } else {
            before.clone()
        };
        self.mask = outer_mask;

        // Merge scalar updates with selects (φ-nodes after if-conversion).
        let mut names: Vec<String> = then_syms
            .keys()
            .chain(else_syms.keys())
            .cloned()
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        names.sort();
        let mut merged = before.clone();
        for name in names {
            let t = then_syms.get(&name).copied();
            let e = else_syms.get(&name).copied();
            match (t, e) {
                (Some((tv, tty)), Some((ev, ety))) if tv != ev => {
                    let ty = unify(tty, ety);
                    let tv = self.coerce(tv, tty, ty);
                    let ev = self.coerce(ev, ety, ty);
                    let sel = self.emit(Instr::Select {
                        cond: then_mask,
                        a: tv,
                        b: ev,
                        ty,
                    });
                    merged.insert(name, (sel, ty));
                }
                (Some(v), _) | (_, Some(v)) => {
                    merged.insert(name, v);
                }
                (None, None) => {}
            }
        }
        self.symbols = merged;
    }

    fn lower_assign(&mut self, op: Option<BinaryOp>, target: &Expr, value: &Expr) {
        match &target.kind {
            ExprKind::Index { .. } => {
                // LICM-style scalar promotion: a compound update of a
                // loop-invariant address (`C[i][j] += …` inside the k
                // loop) is a memory reduction; real compilers promote it
                // to a register before the vectorizer runs, so we lower it
                // as a reduction rather than a load/store per iteration.
                if let Some(cop) = op {
                    let kind = match cop {
                        BinaryOp::Add | BinaryOp::Sub => Some(ReductionKind::Sum),
                        BinaryOp::Mul => Some(ReductionKind::Product),
                        BinaryOp::BitAnd => Some(ReductionKind::And),
                        BinaryOp::BitOr => Some(ReductionKind::Or),
                        BinaryOp::BitXor => Some(ReductionKind::Xor),
                        _ => None,
                    };
                    if let Some(kind) = kind {
                        if let Some(idx) = self.analyze_access(target, true) {
                            if self.accesses[idx].kind == AccessKind::Invariant
                                && !self.accesses[idx].predicated
                            {
                                let ty = self.accesses[idx].ty;
                                // Stores are never CSE'd, so the entry we
                                // just pushed is the last one; drop it —
                                // the promoted access happens outside the
                                // loop.
                                debug_assert_eq!(idx, self.accesses.len() - 1);
                                self.accesses.pop();
                                let (v, vty) = self.lower_expr(value);
                                let v = self.coerce(v, vty, ty);
                                let name = nvc_frontend::printer::print_expr(target);
                                let red = self.intern_reduction(&name, kind, ty);
                                self.emit(Instr::ReduceUpdate { red, value: v, ty });
                                return;
                            }
                            // Not invariant: undo the probe store entry and
                            // fall through to the load/combine/store path.
                            debug_assert_eq!(idx, self.accesses.len() - 1);
                            self.accesses.pop();
                        }
                    }
                }
                let (mut v, mut vty) = self.lower_expr(value);
                if let Some(cop) = op {
                    // a[i] op= x → load, combine, store.
                    let (old, oty) = self.lower_load(target);
                    let ty = unify(oty, vty);
                    let ov = self.coerce(old, oty, ty);
                    let nv = self.coerce(v, vty, ty);
                    let ir_op = match cop {
                        BinaryOp::Add => BinOpIr::Add,
                        BinaryOp::Sub => BinOpIr::Sub,
                        BinaryOp::Mul => BinOpIr::Mul,
                        BinaryOp::Div => BinOpIr::Div,
                        BinaryOp::Rem => BinOpIr::Rem,
                        BinaryOp::Shl => BinOpIr::Shl,
                        BinaryOp::Shr => BinOpIr::Shr,
                        BinaryOp::BitAnd => BinOpIr::And,
                        BinaryOp::BitOr => BinOpIr::Or,
                        BinaryOp::BitXor => BinOpIr::Xor,
                        _ => {
                            self.block("unsupported compound store");
                            return;
                        }
                    };
                    v = self.emit(Instr::Bin {
                        op: ir_op,
                        a: ov,
                        b: nv,
                        ty,
                    });
                    vty = ty;
                }
                if let Some(idx) = self.analyze_access(target, true) {
                    let ty = self.accesses[idx].ty;
                    let v = self.coerce(v, vty, ty);
                    self.emit(Instr::Store {
                        access: idx,
                        value: v,
                    });
                }
            }
            ExprKind::Ident(name) => self.lower_scalar_assign(op, name, value),
            _ => self.block("unsupported assignment target"),
        }
    }

    fn lower_scalar_assign(&mut self, op: Option<BinaryOp>, name: &str, value: &Expr) {
        if name == self.iv {
            self.block("induction variable modified in body");
            return;
        }
        let is_local = self.local_tys.contains_key(name) && !self.scalar_ty_is_outer(name);
        if is_local {
            // Pure SSA rename of a body-local temporary.
            let (v, vty) = self.lower_expr(value);
            let sty = self.local_tys[name];
            let newv = if let Some(cop) = op {
                let (old, oty) = match self.symbols.get(name) {
                    Some(x) => *x,
                    None => {
                        self.block(format!("use of uninitialized local `{name}`"));
                        return;
                    }
                };
                let ty = unify(oty, vty);
                let a = self.coerce(old, oty, ty);
                let b = self.coerce(v, vty, ty);
                let ir_op = bin_ir(cop).unwrap_or(BinOpIr::Add);
                let r = self.emit(Instr::Bin {
                    op: ir_op,
                    a,
                    b,
                    ty,
                });
                self.coerce(r, ty, sty)
            } else {
                self.coerce(v, vty, sty)
            };
            self.symbols.insert(name.to_string(), (newv, sty));
            return;
        }

        // Outer-scope scalar: reduction patterns or blockers.
        let ty = self.scalar_ty(name).unwrap_or(ScalarType::I32);
        if let Some(cop) = op {
            let kind = match cop {
                BinaryOp::Add | BinaryOp::Sub => Some(ReductionKind::Sum),
                BinaryOp::Mul => Some(ReductionKind::Product),
                BinaryOp::BitAnd => Some(ReductionKind::And),
                BinaryOp::BitOr => Some(ReductionKind::Or),
                BinaryOp::BitXor => Some(ReductionKind::Xor),
                _ => None,
            };
            match kind {
                Some(kind) if !mentions(value, name) => {
                    let (v, vty) = self.lower_expr(value);
                    let v = self.coerce(v, vty, ty);
                    let red = self.intern_reduction(name, kind, ty);
                    self.emit(Instr::ReduceUpdate { red, value: v, ty });
                }
                _ => self.block(format!("unrecognized update of outer scalar `{name}`")),
            }
            return;
        }

        // Plain `name = value`.
        if let Some((kind, contrib)) = match_reduction_rhs(name, value) {
            let (v, vty) = self.lower_expr(contrib);
            let v = self.coerce(v, vty, ty);
            let red = self.intern_reduction(name, kind, ty);
            self.emit(Instr::ReduceUpdate { red, value: v, ty });
            return;
        }
        if mentions(value, name) {
            self.block(format!("scalar recurrence through `{name}`"));
            return;
        }
        // Live-out overwrite (`last = a[i];`): the value computation costs,
        // the final-value extraction is free in our model.
        let (v, vty) = self.lower_expr(value);
        let _ = self.coerce(v, vty, ty);
        self.written_outer_scalars.insert(name.to_string());
    }

    fn scalar_ty_is_outer(&self, name: &str) -> bool {
        self.scopes.scalar_tys.contains_key(name) && !self.local_tys.contains_key(name)
    }

    fn intern_reduction(&mut self, name: &str, kind: ReductionKind, ty: ScalarType) -> usize {
        if let Some(&r) = self.reduction_vars.get(name) {
            if self.reductions[r].kind != kind {
                self.block(format!("conflicting reduction kinds on `{name}`"));
            }
            return r;
        }
        self.reductions.push(Reduction {
            var: name.to_string(),
            kind,
            ty,
        });
        let idx = self.reductions.len() - 1;
        self.reduction_vars.insert(name.to_string(), idx);
        idx
    }
}

/// Affine form of an index expression: `iv_coeff * i + offset (+ outer/base)`.
#[derive(Debug, Clone)]
struct Affine {
    iv_coeff: i64,
    offset: i64,
    outer_ivs: HashSet<String>,
    has_param: bool,
    affine: bool,
}

impl Affine {
    fn constant(v: i64) -> Self {
        Affine {
            iv_coeff: 0,
            offset: v,
            outer_ivs: HashSet::new(),
            has_param: false,
            affine: true,
        }
    }

    fn non_affine() -> Self {
        Affine {
            iv_coeff: 0,
            offset: 0,
            outer_ivs: HashSet::new(),
            has_param: false,
            affine: false,
        }
    }

    fn is_const(&self) -> bool {
        self.affine && self.iv_coeff == 0 && self.outer_ivs.is_empty() && !self.has_param
    }

    fn add(&self, other: &Affine, sign: i64) -> Affine {
        if !self.affine || !other.affine {
            return Affine::non_affine();
        }
        let mut outer = self.outer_ivs.clone();
        outer.extend(other.outer_ivs.iter().cloned());
        Affine {
            iv_coeff: self.iv_coeff + sign * other.iv_coeff,
            offset: self.offset + sign * other.offset,
            outer_ivs: outer,
            has_param: self.has_param || other.has_param,
            affine: true,
        }
    }

    fn scale(&self, c: i64) -> Affine {
        if !self.affine {
            return Affine::non_affine();
        }
        Affine {
            iv_coeff: self.iv_coeff * c,
            offset: self.offset * c,
            outer_ivs: self.outer_ivs.clone(),
            has_param: self.has_param,
            affine: true,
        }
    }

    fn mul(&self, other: &Affine) -> Affine {
        if self.is_const() {
            return other.scale(self.offset);
        }
        if other.is_const() {
            return self.scale(other.offset);
        }
        // Product of two non-constant terms: affine only when neither side
        // involves the innermost IV (e.g. `i_outer * N`); we keep it as a
        // base term.
        if self.affine && other.affine && self.iv_coeff == 0 && other.iv_coeff == 0 {
            let mut outer = self.outer_ivs.clone();
            outer.extend(other.outer_ivs.iter().cloned());
            return Affine {
                iv_coeff: 0,
                offset: 0,
                outer_ivs: outer,
                has_param: self.has_param || other.has_param,
                affine: true,
            };
        }
        Affine::non_affine()
    }
}

fn bin_ir(op: BinaryOp) -> Option<BinOpIr> {
    Some(match op {
        BinaryOp::Add => BinOpIr::Add,
        BinaryOp::Sub => BinOpIr::Sub,
        BinaryOp::Mul => BinOpIr::Mul,
        BinaryOp::Div => BinOpIr::Div,
        BinaryOp::Rem => BinOpIr::Rem,
        BinaryOp::Shl => BinOpIr::Shl,
        BinaryOp::Shr => BinOpIr::Shr,
        BinaryOp::BitAnd => BinOpIr::And,
        BinaryOp::BitOr => BinOpIr::Or,
        BinaryOp::BitXor => BinOpIr::Xor,
        _ => return None,
    })
}

/// Usual arithmetic conversions on IR types.
fn unify(a: ScalarType, b: ScalarType) -> ScalarType {
    use ScalarType::*;
    if a == b {
        return a;
    }
    if a == F64 || b == F64 {
        return F64;
    }
    if a == F32 || b == F32 {
        return F32;
    }
    if a == I64 || b == I64 {
        return I64;
    }
    // Integer promotion.
    I32
}

/// Does `e` reference identifier `name` anywhere?
fn mentions(e: &Expr, name: &str) -> bool {
    match &e.kind {
        ExprKind::Ident(n) => n == name,
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) => false,
        ExprKind::Index { base, index } => mentions(base, name) || mentions(index, name),
        ExprKind::Call { args, .. } => args.iter().any(|a| mentions(a, name)),
        ExprKind::Unary { operand, .. } => mentions(operand, name),
        ExprKind::Binary { lhs, rhs, .. } => mentions(lhs, name) || mentions(rhs, name),
        ExprKind::Ternary {
            cond,
            then_expr,
            else_expr,
        } => mentions(cond, name) || mentions(then_expr, name) || mentions(else_expr, name),
        ExprKind::Cast { operand, .. } => mentions(operand, name),
        ExprKind::Assign { target, value, .. } => mentions(target, name) || mentions(value, name),
        ExprKind::IncDec { target, .. } => mentions(target, name),
    }
}

/// Matches `t = <rhs>` reduction forms, returning the kind and the
/// non-accumulator contribution expression.
fn match_reduction_rhs<'e>(t: &str, rhs: &'e Expr) -> Option<(ReductionKind, &'e Expr)> {
    match &rhs.kind {
        // t = t ⊕ e  /  t = e ⊕ t
        ExprKind::Binary { op, lhs, rhs: r } => {
            let kind = match op {
                BinaryOp::Add => ReductionKind::Sum,
                BinaryOp::Mul => ReductionKind::Product,
                BinaryOp::BitAnd => ReductionKind::And,
                BinaryOp::BitOr => ReductionKind::Or,
                BinaryOp::BitXor => ReductionKind::Xor,
                BinaryOp::Sub => ReductionKind::Sum, // t = t - e is a sum of negatives
                _ => return None,
            };
            if is_ident(lhs, t) && !mentions(r, t) {
                return Some((kind, r));
            }
            if is_ident(r, t) && !mentions(lhs, t) && *op != BinaryOp::Sub {
                return Some((kind, lhs));
            }
            None
        }
        // t = cond ? x : y  with {x, y} = {t, e}: min/max reduction.
        ExprKind::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            let (e, picks_e_when_true) = if is_ident(then_expr, t) && !mentions(else_expr, t) {
                (else_expr.as_ref(), false)
            } else if is_ident(else_expr, t) && !mentions(then_expr, t) {
                (then_expr.as_ref(), true)
            } else {
                return None;
            };
            // The condition must compare t with e (either order).
            let ExprKind::Binary { op, lhs, rhs: r } = &cond.kind else {
                return None;
            };
            if !op.is_comparison() {
                return None;
            }
            let (t_on_left, valid) = if is_ident(lhs, t) {
                (true, exprs_equal(r, e))
            } else if is_ident(r, t) {
                (false, exprs_equal(lhs, e))
            } else {
                return None;
            };
            if !valid {
                return None;
            }
            // Determine min vs max: we pick e when cond true (or t otherwise).
            // cond ≡ t CMP e (after normalization).
            let cmp = if t_on_left {
                *op
            } else {
                match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::Le => BinaryOp::Ge,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::Ge => BinaryOp::Le,
                    other => *other,
                }
            };
            // If we keep e when (t < e) → new value is the larger → Max.
            let kind = match (cmp, picks_e_when_true) {
                (BinaryOp::Lt | BinaryOp::Le, true) => ReductionKind::Max,
                (BinaryOp::Gt | BinaryOp::Ge, true) => ReductionKind::Min,
                (BinaryOp::Lt | BinaryOp::Le, false) => ReductionKind::Min,
                (BinaryOp::Gt | BinaryOp::Ge, false) => ReductionKind::Max,
                _ => return None,
            };
            Some((kind, e))
        }
        // t = fmaxf(t, e) and friends.
        ExprKind::Call { callee, args } if args.len() == 2 => {
            let kind = match callee.as_str() {
                "fmax" | "fmaxf" | "max" => ReductionKind::Max,
                "fmin" | "fminf" | "min" => ReductionKind::Min,
                _ => return None,
            };
            if is_ident(&args[0], t) && !mentions(&args[1], t) {
                Some((kind, &args[1]))
            } else if is_ident(&args[1], t) && !mentions(&args[0], t) {
                Some((kind, &args[0]))
            } else {
                None
            }
        }
        _ => None,
    }
}

fn is_ident(e: &Expr, name: &str) -> bool {
    matches!(&e.kind, ExprKind::Ident(n) if n == name)
}

/// Structural expression equality ignoring spans (shared with `nvc-polly`).
pub fn exprs_equal(a: &Expr, b: &Expr) -> bool {
    use ExprKind::*;
    match (&a.kind, &b.kind) {
        (IntLit(x), IntLit(y)) => x == y,
        (FloatLit(x), FloatLit(y)) => x == y,
        (Ident(x), Ident(y)) => x == y,
        (
            Index {
                base: b1,
                index: i1,
            },
            Index {
                base: b2,
                index: i2,
            },
        ) => exprs_equal(b1, b2) && exprs_equal(i1, i2),
        (
            Binary {
                op: o1,
                lhs: l1,
                rhs: r1,
            },
            Binary {
                op: o2,
                lhs: l2,
                rhs: r2,
            },
        ) => o1 == o2 && exprs_equal(l1, l2) && exprs_equal(r1, r2),
        (
            Unary {
                op: o1,
                operand: x1,
            },
            Unary {
                op: o2,
                operand: x2,
            },
        ) => o1 == o2 && exprs_equal(x1, x2),
        (
            Cast {
                ty: t1,
                operand: x1,
            },
            Cast {
                ty: t2,
                operand: x2,
            },
        ) => t1 == t2 && exprs_equal(x1, x2),
        (
            Call {
                callee: c1,
                args: a1,
            },
            Call {
                callee: c2,
                args: a2,
            },
        ) => {
            c1 == c2
                && a1.len() == a2.len()
                && a1.iter().zip(a2.iter()).all(|(x, y)| exprs_equal(x, y))
        }
        _ => false,
    }
}

/// Vectorizable math functions and their result types.
fn math_fn_info(name: &str) -> Option<(bool, ScalarType)> {
    let f32s = [
        "sqrtf", "fabsf", "fmaxf", "fminf", "expf", "logf", "sinf", "cosf", "floorf", "ceilf",
    ];
    let f64s = [
        "sqrt", "fabs", "fmax", "fmin", "exp", "log", "sin", "cos", "floor", "ceil",
    ];
    let ints = ["abs", "max", "min"];
    if f32s.contains(&name) {
        Some((true, ScalarType::F32))
    } else if f64s.contains(&name) {
        Some((true, ScalarType::F64))
    } else if ints.contains(&name) {
        Some((true, ScalarType::I32))
    } else {
        None
    }
}

/// Lowers one innermost loop.
fn lower_innermost(
    stmt: &Stmt,
    f: &Function,
    source: &str,
    env: &ParamEnv,
    outer: &[(String, u64)],
    scopes: &ScopeInfo,
) -> Result<LoweredLoop, IrError> {
    let (header, body_stmt, countable) = match &stmt.kind {
        StmtKind::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            let h = analyze_header(init.as_deref(), cond.as_ref(), step.as_ref(), env);
            (h, body.as_ref(), true)
        }
        StmtKind::While { body, .. } => (None, body.as_ref(), false),
        _ => {
            return Err(IrError::UnsupportedLoopForm(
                "statement is not a loop".into(),
            ))
        }
    };

    let (iv, start, step, trip) = match &header {
        Some(h) => (h.iv.clone(), h.start, h.step, h.trip),
        None => ("<none>".to_string(), 0, 1, TripCount::Runtime(DEFAULT_TRIP)),
    };

    let mut bl = BodyLowering {
        scopes,
        outer,
        iv,
        start,
        step,
        body: Vec::new(),
        accesses: Vec::new(),
        load_cse: HashMap::new(),
        reductions: Vec::new(),
        reduction_vars: HashMap::new(),
        symbols: HashMap::new(),
        local_tys: HashMap::new(),
        written_outer_scalars: HashSet::new(),
        mask: None,
        predicated_any: false,
        blockers: Vec::new(),
        used_arrays: BTreeMap::new(),
    };
    if header.is_none() && countable {
        bl.block("unrecognized for-loop header");
    }
    if !countable {
        bl.block("while loop is not countable");
    }
    bl.lower_stmt(body_stmt);

    let not_vectorizable = !bl.blockers.is_empty();
    let blocker = bl.blockers.first().cloned();
    let ir = LoopIr {
        ind_var: bl.iv.clone(),
        trip,
        step,
        body: bl.body,
        accesses: bl.accesses,
        reductions: bl.reductions,
        predicated: bl.predicated_any,
        not_vectorizable,
        blocker,
        outer: outer
            .iter()
            .map(|(_, t)| OuterLoopInfo { trip: *t })
            .collect(),
    };
    debug_assert_eq!(ir.validate(), Ok(()));

    // Source coordinates.
    let (header_line, text) = (stmt.span.line, stmt.span.text(source).to_string());
    Ok(LoweredLoop {
        ir,
        function: f.name.clone(),
        loop_index: 0,
        header_line,
        text,
        arrays: bl.used_arrays,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depend::legal_max_vf;
    use nvc_frontend::parse_translation_unit;

    fn lower_first(src: &str, env: &ParamEnv) -> LoweredLoop {
        let tu = parse_translation_unit(src).expect("parse");
        let loops = lower_innermost_loops(&tu, src, env).expect("lower");
        assert!(!loops.is_empty(), "no loops found");
        loops.into_iter().next().unwrap()
    }

    #[test]
    fn dot_product_is_sum_reduction() {
        let src = "int vec[512];\nint f() { int sum = 0; for (int i = 0; i < 512; i++) { sum += vec[i]*vec[i]; } return sum; }";
        let l = lower_first(src, &ParamEnv::new());
        assert_eq!(l.ir.trip, TripCount::Constant(512));
        assert_eq!(l.ir.reductions.len(), 1);
        assert_eq!(l.ir.reductions[0].kind, ReductionKind::Sum);
        assert!(!l.ir.not_vectorizable);
        // vec[i] loaded once thanks to CSE.
        assert_eq!(l.ir.loads().count(), 1);
    }

    #[test]
    fn runtime_bound_is_runtime_trip() {
        let src = "int a[4096]; int b[4096];\nvoid f(int n) { for (int i = 0; i < n; i++) { a[i] = b[i]; } }";
        let env = ParamEnv::new().with("n", 2000);
        let l = lower_first(src, &env);
        assert_eq!(l.ir.trip, TripCount::Runtime(2000));
    }

    #[test]
    fn bound_expression_evaluates() {
        let src = "int a[4096];\nvoid f(int N) { for (int i = 0; i < N/2-1; i++) { a[i] = i; } }";
        let env = ParamEnv::new().with("N", 1000);
        let l = lower_first(src, &env);
        assert_eq!(l.ir.trip.count(), 499);
    }

    #[test]
    fn strided_accesses_classified() {
        // Example #5 shape: b[2*i+1].
        let src = "float a[2048]; float b[4096];\nvoid f(int N) { for (int i = 0; i < N; i++) { a[i] = b[2*i+1]; } }";
        let env = ParamEnv::new().with("N", 1024);
        let l = lower_first(src, &env);
        let load = l.ir.loads().next().unwrap();
        assert_eq!(load.kind, AccessKind::Strided(2));
        assert_eq!(load.offset, 1);
        let store = l.ir.stores().next().unwrap();
        assert_eq!(store.kind, AccessKind::Unit);
    }

    #[test]
    fn manual_unroll_step2_strides() {
        // Example #1 shape: step 2 with offsets 0 and 1.
        let src = "int d[4096]; short s[4096];\nvoid f(int N) { for (int i = 0; i < N-1; i+=2) { d[i] = (int) s[i]; d[i+1] = (int) s[i+1]; } }";
        let env = ParamEnv::new().with("N", 1024);
        let l = lower_first(src, &env);
        assert_eq!(l.ir.step, 2);
        let strides: Vec<_> = l.ir.accesses.iter().map(|a| a.kind).collect();
        assert!(strides.iter().all(|k| *k == AccessKind::Strided(2)));
        // Stores at offsets 0 and 1 with stride 2 are independent.
        assert!(legal_max_vf(&l.ir) > 64);
    }

    #[test]
    fn matmul_inner_loop_context() {
        let src = "float A[128][128]; float B[128][128]; float C[128][128];
void mm(int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            float s = 0.0;
            for (int k = 0; k < n; k++) { s += A[i][k] * B[k][j]; }
            C[i][j] = s;
        }
    }
}";
        let env = ParamEnv::new().with("n", 128);
        let tu = parse_translation_unit(src).unwrap();
        let loops = lower_innermost_loops(&tu, src, &env).unwrap();
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.ir.outer.len(), 2);
        assert_eq!(l.ir.total_iterations(), 128 * 128 * 128);
        assert_eq!(l.ir.reductions.len(), 1);
        // A[i][k]: unit stride in k. B[k][j]: stride = 128 (row length).
        let kinds: Vec<_> = l.ir.loads().map(|a| a.kind).collect();
        assert!(kinds.contains(&AccessKind::Unit));
        assert!(kinds.contains(&AccessKind::Strided(128)));
        // A's base varies with outer i; B's with outer j.
        for a in l.ir.loads() {
            assert_eq!(a.reuse_trips, 128, "array {}", a.array);
        }
    }

    #[test]
    fn predicated_ternary_store() {
        let src = "int a[4096]; int b[4096];\nvoid f(int N) { for (int i=0;i<N*2;i++){ int j = a[i]; b[i] = (j > 255 ? 255 : 0); } }";
        let env = ParamEnv::new().with("N", 512);
        let l = lower_first(src, &env);
        assert_eq!(l.ir.trip.count(), 1024);
        // Ternary lowers to select, not control flow: no predication needed.
        assert!(!l.ir.predicated);
        assert!(l.ir.body.iter().any(|i| matches!(i, Instr::Select { .. })));
        assert!(!l.ir.not_vectorizable);
    }

    #[test]
    fn if_statement_predicates_stores() {
        let src = "float a[4096]; float b[4096];\nvoid f(int n) { for (int i=0;i<n;i++) { if (b[i] > 0.0) { a[i] = b[i]; } } }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        assert!(l.ir.predicated);
        let store = l.ir.stores().next().unwrap();
        assert!(store.predicated);
        assert!(!l.ir.not_vectorizable);
    }

    #[test]
    fn if_else_merges_with_select() {
        let src = "int a[1024]; int out[1024];\nvoid f(int n) { for (int i=0;i<n;i++) { int t = 0; if (a[i] > 0) { t = 1; } else { t = 2; } out[i] = t; } }";
        let env = ParamEnv::new().with("n", 512);
        let l = lower_first(src, &env);
        assert!(l.ir.body.iter().any(|i| matches!(i, Instr::Select { .. })));
        assert!(!l.ir.not_vectorizable);
    }

    #[test]
    fn max_reduction_via_ternary() {
        let src = "float x[4096];\nfloat f(int n) { float m = 0.0; for (int i=0;i<n;i++) { m = x[i] > m ? x[i] : m; } return m; }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        assert_eq!(l.ir.reductions.len(), 1);
        assert_eq!(l.ir.reductions[0].kind, ReductionKind::Max);
        assert!(!l.ir.not_vectorizable);
    }

    #[test]
    fn min_reduction_via_call() {
        let src = "float x[4096];\nfloat f(int n) { float m = 1e9; for (int i=0;i<n;i++) { m = fminf(m, x[i]); } return m; }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        assert_eq!(l.ir.reductions[0].kind, ReductionKind::Min);
        assert!(!l.ir.not_vectorizable);
    }

    #[test]
    fn gather_from_indirect_index() {
        let src = "int a[4096]; int idx[4096]; int out[4096];\nvoid f(int n) { for (int i=0;i<n;i++) { out[i] = a[idx[i]]; } }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        assert!(l.ir.loads().any(|x| x.kind == AccessKind::Gather));
        assert!(!l.ir.not_vectorizable);
    }

    #[test]
    fn unknown_call_blocks_vectorization() {
        let src = "int a[128];\nvoid f(int n) { for (int i=0;i<n;i++) { a[i] = helper(i); } }";
        let env = ParamEnv::new().with("n", 128);
        let l = lower_first(src, &env);
        assert!(l.ir.not_vectorizable);
        assert!(l.ir.blocker.as_deref().unwrap().contains("helper"));
    }

    #[test]
    fn math_call_is_vectorizable() {
        let src = "float a[1024]; float b[1024];\nvoid f(int n) { for (int i=0;i<n;i++) { a[i] = sqrtf(b[i]); } }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        assert!(!l.ir.not_vectorizable);
        assert!(l.ir.body.iter().any(|i| matches!(
            i,
            Instr::Call {
                vectorizable: true,
                ..
            }
        )));
    }

    #[test]
    fn scalar_recurrence_blocks() {
        let src = "float a[1024];\nfloat f(int n, float x) { for (int i=0;i<n;i++) { x = x * 0.5 + a[i]; } return x; }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        assert!(l.ir.not_vectorizable);
    }

    #[test]
    fn early_exit_blocks() {
        let src = "int a[1024];\nint f(int n, int key) { int pos = 0; for (int i=0;i<n;i++) { if (a[i] == key) { pos = i; break; } } return pos; }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        assert!(l.ir.not_vectorizable);
    }

    #[test]
    fn while_loop_is_scalar() {
        let src = "int a[1024];\nvoid f(int n) { int i = 0; while (i < n) { a[i] = i; i++; } }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        assert!(l.ir.not_vectorizable);
        assert_eq!(l.ir.trip.count(), DEFAULT_TRIP);
    }

    #[test]
    fn reverse_loop_recognized() {
        let src = "int a[1024]; int b[1024];\nvoid f(int n) { for (int i = n-1; i >= 0; i--) { a[i] = b[i]; } }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        assert_eq!(l.ir.trip.count(), 1024);
        assert_eq!(l.ir.step, -1);
        // Stride per iteration is -1: strided, not unit.
        assert!(l
            .ir
            .accesses
            .iter()
            .all(|a| a.kind == AccessKind::Strided(-1)));
    }

    #[test]
    fn pointer_param_arrays_use_env_sizes() {
        let src =
            "void f(float *dst, float *src, int n) { for (int i=0;i<n;i++) { dst[i] = src[i]; } }";
        let env = ParamEnv::new()
            .with("n", 4096)
            .with_array_len("dst", 4096)
            .with_array_len("src", 4096);
        let l = lower_first(src, &env);
        let a = l.ir.loads().next().unwrap();
        assert_eq!(a.array_bytes, 4096 * 4);
        assert!(!a.aligned, "pointer params have unknown alignment");
    }

    #[test]
    fn aligned_global_unit_access_is_aligned() {
        let src = "float a[1024] __attribute__((aligned(64))); float b[1024] __attribute__((aligned(64)));\nvoid f(int n) { for (int i=0;i<n;i++) { a[i] = b[i]; } }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        assert!(l.ir.accesses.iter().all(|a| a.aligned));
    }

    #[test]
    fn offset_access_is_misaligned() {
        let src = "float a[1024] __attribute__((aligned(64))); float b[1025] __attribute__((aligned(64)));\nvoid f(int n) { for (int i=0;i<n;i++) { a[i] = b[i+1]; } }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        let load = l.ir.loads().next().unwrap();
        assert!(!load.aligned);
        assert_eq!(load.offset, 1);
    }

    #[test]
    fn compound_array_update_loads_and_stores() {
        let src = "float a[1024]; float b[1024];\nvoid f(int n) { for (int i=0;i<n;i++) { a[i] += b[i]; } }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        assert_eq!(l.ir.loads().count(), 2); // a[i] and b[i]
        assert_eq!(l.ir.stores().count(), 1);
        assert!(!l.ir.not_vectorizable);
        // Same-iteration read-modify-write is safe.
        assert!(legal_max_vf(&l.ir) > 64);
    }

    #[test]
    fn iv_modification_in_body_blocks() {
        let src = "int a[1024];\nvoid f(int n) { for (int i=0;i<n;i++) { a[i] = 0; i += 1; } }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        assert!(l.ir.not_vectorizable);
    }

    #[test]
    fn type_conversion_cast_emitted() {
        let src = "short s[1024]; int d[1024];\nvoid f(int n) { for (int i=0;i<n;i++) { d[i] = (int) s[i]; } }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        assert!(l.ir.body.iter().any(|i| matches!(
            i,
            Instr::Cast {
                from: ScalarType::I16,
                to: ScalarType::I32,
                ..
            }
        )));
    }

    #[test]
    fn counter_increment_is_sum_reduction() {
        let src = "int a[1024];\nint f(int n) { int count = 0; for (int i=0;i<n;i++) { if (a[i] > 0) { count++; } } return count; }";
        let env = ParamEnv::new().with("n", 1024);
        let l = lower_first(src, &env);
        assert_eq!(l.ir.reductions.len(), 1);
        assert_eq!(l.ir.reductions[0].kind, ReductionKind::Sum);
        assert!(!l.ir.not_vectorizable);
        assert!(l.ir.predicated);
    }

    #[test]
    fn invariant_compound_store_promotes_to_reduction() {
        // GEMM's `C[i][j] += A[i][k] * B[k][j]` with innermost k.
        let src = "float A[64][64]; float B[64][64]; float C[64][64];
void mm() { for (int i=0;i<64;i++) for (int j=0;j<64;j++) for (int k=0;k<64;k++) { C[i][j] += A[i][k] * B[k][j]; } }";
        let l = lower_first(src, &ParamEnv::new());
        assert_eq!(l.ir.reductions.len(), 1);
        assert_eq!(l.ir.reductions[0].kind, ReductionKind::Sum);
        // Only the two loads remain as memory accesses: the C store is
        // promoted out of the loop.
        assert_eq!(l.ir.stores().count(), 0);
        assert_eq!(l.ir.loads().count(), 2);
        assert!(!l.ir.not_vectorizable);
        assert!(legal_max_vf(&l.ir) > 1);
    }

    #[test]
    fn variant_compound_store_stays_memory() {
        // a[i] += b[i] must remain a load/store pair.
        let src =
            "float a[128]; float b[128];\nvoid f() { for (int i=0;i<128;i++) { a[i] += b[i]; } }";
        let l = lower_first(src, &ParamEnv::new());
        assert_eq!(l.ir.reductions.len(), 0);
        assert_eq!(l.ir.stores().count(), 1);
    }

    #[test]
    fn tile_loop_bounds_recognized() {
        // The shape Polly's tiling emits: trip is compile-time 32 even
        // though `it` is only known at run time.
        let src = "float a[4096]; float b[4096];
void f(int n) {
    for (int it = 0; it < n; it += 32) {
        for (int i = it; i < it + 32; i++) { a[i] = b[i]; }
    }
}";
        let env = ParamEnv::new().with("n", 4096);
        let l = lower_first(src, &env);
        assert_eq!(l.ir.trip, TripCount::Constant(32));
        assert_eq!(l.ir.outer.len(), 1);
        assert_eq!(l.ir.outer[0].trip, 128);
    }

    #[test]
    fn validate_holds_for_all_lowered_bodies() {
        let srcs = [
            "int a[64]; void f(int n) { for (int i=0;i<n;i++) a[i] = i * 3 + 1; }",
            "float a[64]; float b[64]; void f(int n) { for (int i=0;i<n;i++) { a[i] = b[i] > 0.5 ? b[i] : 0.0; } }",
            "int a[64]; int f(int n) { int s = 0; for (int i=0;i<n;i++) { s += a[i] & 255; } return s; }",
        ];
        for src in srcs {
            let env = ParamEnv::new().with("n", 64);
            let l = lower_first(src, &env);
            assert_eq!(l.ir.validate(), Ok(()), "src: {src}");
        }
    }
}
