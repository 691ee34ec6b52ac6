//! Abstract syntax tree for the supported C subset.
//!
//! The tree intentionally stays close to surface syntax: the embedding
//! generator ([`nvc-embed`](https://example.com)) consumes AST *paths*
//! (code2vec-style), so the node kinds here define the vocabulary the agent
//! observes. Every node carries a [`Span`] back into the original text.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::lexer::Span;

/// Scalar element types of the subset.
///
/// Sizes follow the LP64 C data model the paper's testbed used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// `void` — function returns only.
    Void,
    /// `char` / `unsigned char`, 1 byte.
    Char {
        /// True for `unsigned char`.
        unsigned: bool,
    },
    /// `short`, 2 bytes.
    Short {
        /// True for `unsigned short`.
        unsigned: bool,
    },
    /// `int`, 4 bytes.
    Int {
        /// True for `unsigned int`.
        unsigned: bool,
    },
    /// `long` / `long long`, 8 bytes.
    Long {
        /// True for `unsigned long`.
        unsigned: bool,
    },
    /// `float`, 4 bytes.
    Float,
    /// `double`, 8 bytes.
    Double,
}

impl Type {
    /// Size of the type in bytes (0 for `void`).
    pub(crate) fn size_bytes(self) -> u32 {
        match self {
            Type::Void => 0,
            Type::Char { .. } => 1,
            Type::Short { .. } => 2,
            Type::Int { .. } | Type::Float => 4,
            Type::Long { .. } | Type::Double => 8,
        }
    }

    /// C name of the type (`unsigned` prefix included).
    pub fn c_name(self) -> &'static str {
        match self {
            Type::Void => "void",
            Type::Char { unsigned: false } => "char",
            Type::Char { unsigned: true } => "unsigned char",
            Type::Short { unsigned: false } => "short",
            Type::Short { unsigned: true } => "unsigned short",
            Type::Int { unsigned: false } => "int",
            Type::Int { unsigned: true } => "unsigned int",
            Type::Long { unsigned: false } => "long",
            Type::Long { unsigned: true } => "unsigned long",
            Type::Float => "float",
            Type::Double => "double",
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.c_name())
    }
}

/// Binary operators of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
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
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
}

impl BinaryOp {
    /// True for `<`, `<=`, `>`, `>=`, `==`, `!=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge | BinaryOp::Eq | BinaryOp::Ne
        )
    }

    /// The operator that gives the same result with its operands swapped:
    /// `<` and `>`, `<=` and `>=` trade places; every other operator is
    /// returned as is.
    pub fn swapped(self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::Le => BinaryOp::Ge,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::Ge => BinaryOp::Le,
            other => other,
        }
    }

    /// True for `&&` / `||`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::LogAnd | BinaryOp::LogOr)
    }

    /// Surface token for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Rem => "%",
            BinaryOp::Shl => "<<",
            BinaryOp::Shr => ">>",
            BinaryOp::BitAnd => "&",
            BinaryOp::BitOr => "|",
            BinaryOp::BitXor => "^",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Eq => "==",
            BinaryOp::Ne => "!=",
            BinaryOp::LogAnd => "&&",
            BinaryOp::LogOr => "||",
        }
    }
}

/// Unary operators of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// `-x`
    Neg,
    /// `!x`
    Not,
    /// `~x`
    BitNot,
}

impl UnaryOp {
    /// Surface token for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Not => "!",
            UnaryOp::BitNot => "~",
        }
    }
}

/// An expression node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Expr {
    /// What kind of expression.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Floating literal.
    FloatLit(f64),
    /// Variable reference.
    Ident(String),
    /// `base[index]` — chained for multi-dimensional accesses.
    Index {
        /// Array being indexed (an `Ident` or another `Index`).
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Function call, e.g. `sqrtf(x)`.
    Call {
        /// Callee name.
        callee: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `cond ? then : else`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_expr: Box<Expr>,
        /// Value when false.
        else_expr: Box<Expr>,
    },
    /// `(type) expr`.
    Cast {
        /// Target type.
        ty: Type,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Assignment, including compound assignment (`op` is `None` for `=`).
    Assign {
        /// `None` for `=`, `Some(Add)` for `+=`, etc.
        op: Option<BinaryOp>,
        /// Assignment target (identifier or index chain).
        target: Box<Expr>,
        /// Right-hand side.
        value: Box<Expr>,
    },
    /// `x++` / `x--` / `++x` / `--x` (all treated as `x += 1` effects).
    IncDec {
        /// Target lvalue.
        target: Box<Expr>,
        /// +1 or -1.
        delta: i64,
        /// True when written prefix (`++x`).
        prefix: bool,
    },
}

impl Expr {
    /// Creates an expression at `span`.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Self { kind, span }
    }

    /// If this expression is a (possibly nested) array index, returns the
    /// root array name and the index expressions from outermost to innermost
    /// dimension.
    pub fn as_array_access(&self) -> Option<(&str, Vec<&Expr>)> {
        let mut indices = Vec::new();
        let mut cur = self;
        loop {
            match &cur.kind {
                ExprKind::Index { base, index } => {
                    indices.push(index.as_ref());
                    cur = base;
                }
                ExprKind::Ident(name) => {
                    indices.reverse();
                    return Some((name, indices));
                }
                _ => return None,
            }
        }
    }

    /// Folds the expression to a constant integer if possible: the
    /// [`Expr::fold_int`] of it with no identifier bound.
    pub fn const_int(&self) -> Option<i64> {
        self.fold_int(&|_| None).map(|(v, _)| v)
    }

    /// Folds the expression to an integer, reading each identifier through
    /// `resolve`. Returns the value and whether it is compile-time known,
    /// that is, whether no identifier was resolved on the way.
    ///
    /// Folds integer literals, negation, casts and the binary operators
    /// `+ - * / % << >> & | ^`; a float literal, a zero divisor or any
    /// other operator gives `None`. A float is refused rather than
    /// truncated: C compares `i < 256.5` and computes `5.0 / 2` in floating
    /// point, so no integer stands for them. Shift counts are taken modulo
    /// 64 and arithmetic wraps.
    pub fn fold_int(&self, resolve: &impl Fn(&str) -> Option<i64>) -> Option<(i64, bool)> {
        match &self.kind {
            ExprKind::IntLit(v) => Some((*v, true)),
            ExprKind::Ident(name) => resolve(name).map(|v| (v, false)),
            ExprKind::Unary {
                op: UnaryOp::Neg,
                operand,
            } => operand
                .fold_int(resolve)
                .map(|(v, k)| (v.wrapping_neg(), k)),
            ExprKind::Cast { operand, .. } => operand.fold_int(resolve),
            ExprKind::Binary { op, lhs, rhs } => {
                let (a, ka) = lhs.fold_int(resolve)?;
                let (b, kb) = rhs.fold_int(resolve)?;
                let v = match op {
                    BinaryOp::Add => a.wrapping_add(b),
                    BinaryOp::Sub => a.wrapping_sub(b),
                    BinaryOp::Mul => a.wrapping_mul(b),
                    BinaryOp::Div if b != 0 => a.wrapping_div(b),
                    BinaryOp::Rem if b != 0 => a.wrapping_rem(b),
                    BinaryOp::Shl => a << (b & 63),
                    BinaryOp::Shr => a >> (b & 63),
                    BinaryOp::BitAnd => a & b,
                    BinaryOp::BitOr => a | b,
                    BinaryOp::BitXor => a ^ b,
                    _ => return None,
                };
                Some((v, ka && kb))
            }
            _ => None,
        }
    }

    /// The direct sub-expressions, left to right.
    pub fn children(&self) -> impl Iterator<Item = &Expr> {
        let (fixed, args): ([Option<&Expr>; 3], &[Expr]) = match &self.kind {
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::Ident(_) => ([None; 3], &[]),
            ExprKind::Call { args, .. } => ([None; 3], args),
            ExprKind::Unary { operand, .. }
            | ExprKind::Cast { operand, .. }
            | ExprKind::IncDec {
                target: operand, ..
            } => ([Some(operand), None, None], &[]),
            ExprKind::Index {
                base: lhs,
                index: rhs,
            }
            | ExprKind::Binary { lhs, rhs, .. }
            | ExprKind::Assign {
                target: lhs,
                value: rhs,
                ..
            } => ([Some(lhs), Some(rhs), None], &[]),
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => ([Some(cond), Some(then_expr), Some(else_expr)], &[]),
        };
        fixed.into_iter().flatten().chain(args)
    }

    /// [`Expr::children`], mutably.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut Expr> {
        let (fixed, args): ([Option<&mut Expr>; 3], &mut [Expr]) = match &mut self.kind {
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::Ident(_) => {
                ([None, None, None], &mut [])
            }
            ExprKind::Call { args, .. } => ([None, None, None], args),
            ExprKind::Unary { operand, .. }
            | ExprKind::Cast { operand, .. }
            | ExprKind::IncDec {
                target: operand, ..
            } => ([Some(operand), None, None], &mut []),
            ExprKind::Index {
                base: lhs,
                index: rhs,
            }
            | ExprKind::Binary { lhs, rhs, .. }
            | ExprKind::Assign {
                target: lhs,
                value: rhs,
                ..
            } => ([Some(lhs), Some(rhs), None], &mut []),
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => ([Some(cond), Some(then_expr), Some(else_expr)], &mut []),
        };
        fixed.into_iter().flatten().chain(args)
    }

    /// Visits every expression in this subtree, outer-to-inner, mutably.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        for c in self.children_mut() {
            c.walk_mut(f);
        }
    }

    /// True if this expression is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(&self.kind, ExprKind::Ident(n) if n == name)
    }

    /// True if identifier `name` occurs anywhere in this expression.
    pub fn mentions(&self, name: &str) -> bool {
        self.is_ident(name) || self.children().any(|c| c.mentions(name))
    }

    /// Structural equality that ignores spans: the same tree written at
    /// two places compares equal. Only literals, identifiers, indexing,
    /// calls, unary and binary operators and casts compare; a tree holding
    /// a ternary, an assignment or an increment is never equal to anything,
    /// so callers that read "same tree" as "same value in the same
    /// iteration" (`a[k++]` twice is two cells) stay safe.
    pub fn same_tree(&self, other: &Expr) -> bool {
        use ExprKind::*;
        let same_node = match (&self.kind, &other.kind) {
            (IntLit(x), IntLit(y)) => x == y,
            (FloatLit(x), FloatLit(y)) => x == y,
            (Ident(x), Ident(y)) => x == y,
            (Index { .. }, Index { .. }) => true,
            (
                Call {
                    callee: c1,
                    args: a1,
                },
                Call {
                    callee: c2,
                    args: a2,
                },
            ) => c1 == c2 && a1.len() == a2.len(),
            (Unary { op: o1, .. }, Unary { op: o2, .. }) => o1 == o2,
            (Binary { op: o1, .. }, Binary { op: o2, .. }) => o1 == o2,
            (Cast { ty: t1, .. }, Cast { ty: t2, .. }) => t1 == t2,
            _ => false,
        };
        same_node
            && self
                .children()
                .zip(other.children())
                .all(|(a, b)| a.same_tree(b))
    }
}

/// The clauses of a canonical `for` header, read syntactically by
/// [`Stmt::for_header`]: `for (iv = start; iv cmp bound; step)`.
#[derive(Debug, Clone, Copy)]
pub struct ForHeader<'a> {
    /// Induction variable.
    pub iv: &'a str,
    /// Initial value.
    pub start: &'a Expr,
    /// The comparison with the induction variable on its left (`1024 > i`
    /// reads as `i < 1024`).
    pub cmp: BinaryOp,
    /// The other side of the comparison.
    pub bound: &'a Expr,
    step: ForStep<'a>,
}

/// How a `for` header advances its induction variable.
#[derive(Debug, Clone, Copy)]
enum ForStep<'a> {
    /// `iv++` / `iv--`.
    Delta(i64),
    /// `iv += e`, `iv = iv + e`, `iv = e + iv`.
    Add(&'a Expr),
    /// `iv -= e`, `iv = iv - e`.
    Sub(&'a Expr),
}

impl ForHeader<'_> {
    /// The signed step, folding its expression with [`Expr::fold_int`]
    /// under `resolve`.
    pub fn step(&self, resolve: &impl Fn(&str) -> Option<i64>) -> Option<i64> {
        match self.step {
            ForStep::Delta(d) => Some(d),
            ForStep::Add(e) => e.fold_int(resolve).map(|(v, _)| v),
            ForStep::Sub(e) => e.fold_int(resolve).map(|(v, _)| v.wrapping_neg()),
        }
    }
}

/// A `#pragma clang loop vectorize_width(V) interleave_count(I)` hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LoopPragma {
    /// Requested VF.
    pub vectorize_width: u32,
    /// Requested IF.
    pub interleave_count: u32,
}

impl fmt::Display for LoopPragma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#pragma clang loop vectorize_width({}) interleave_count({})",
            self.vectorize_width, self.interleave_count
        )
    }
}

/// A statement node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stmt {
    /// What kind of statement.
    pub kind: StmtKind,
    /// Source location (for a loop: from `for` through the closing brace).
    pub span: Span,
}

/// A single declarator in a declaration statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Declarator {
    /// Variable name.
    pub name: String,
    /// Array dimensions (empty for scalars). `None` dims are unsized (`[]`).
    pub dims: Vec<Option<i64>>,
    /// Optional initializer.
    pub init: Option<Expr>,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StmtKind {
    /// Local declaration, e.g. `int i = 0, j;`.
    Decl {
        /// Element type.
        ty: Type,
        /// Declared entities.
        declarators: Vec<Declarator>,
    },
    /// Expression statement.
    Expr(Expr),
    /// `for (init; cond; step) body`.
    For {
        /// Init clause (declaration or expression statement), if any.
        init: Option<Box<Stmt>>,
        /// Loop condition, if any.
        cond: Option<Expr>,
        /// Step expression, if any.
        step: Option<Expr>,
        /// Loop body.
        body: Box<Stmt>,
        /// Vectorization hint attached to this loop.
        pragma: Option<LoopPragma>,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
        /// Vectorization hint attached to this loop.
        pragma: Option<LoopPragma>,
    },
    /// `if (cond) then else els`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_branch: Box<Stmt>,
        /// Else branch, if any.
        else_branch: Option<Box<Stmt>>,
    },
    /// `return expr;`.
    Return(Option<Expr>),
    /// `{ … }`.
    Block(Vec<Stmt>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `;`
    Empty,
}

impl Stmt {
    /// Creates a statement at `span`.
    pub fn new(kind: StmtKind, span: Span) -> Self {
        Self { kind, span }
    }

    /// True if this statement is a `for` or `while` loop.
    pub fn is_loop(&self) -> bool {
        matches!(self.kind, StmtKind::For { .. } | StmtKind::While { .. })
    }

    /// True if this statement is a loop or has one anywhere inside.
    pub fn contains_loop(&self) -> bool {
        let mut found = false;
        self.walk(&mut |s| found |= s.is_loop());
        found
    }

    /// The directly nested statements in source order: a `for`'s init and
    /// body, a `while`'s body, an `if`'s branches, a block's statements.
    pub fn children(&self) -> impl Iterator<Item = &Stmt> {
        let (fixed, stmts): ([Option<&Stmt>; 2], &[Stmt]) = match &self.kind {
            StmtKind::For { init, body, .. } => ([init.as_deref(), Some(body)], &[]),
            StmtKind::While { body, .. } => ([Some(body), None], &[]),
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => ([Some(then_branch), else_branch.as_deref()], &[]),
            StmtKind::Block(stmts) => ([None, None], stmts),
            _ => ([None, None], &[]),
        };
        fixed.into_iter().flatten().chain(stmts)
    }

    /// [`Stmt::children`], mutably.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut Stmt> {
        let (fixed, stmts): ([Option<&mut Stmt>; 2], &mut [Stmt]) = match &mut self.kind {
            StmtKind::For { init, body, .. } => ([init.as_deref_mut(), Some(body)], &mut []),
            StmtKind::While { body, .. } => ([Some(body), None], &mut []),
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => ([Some(then_branch), else_branch.as_deref_mut()], &mut []),
            StmtKind::Block(stmts) => ([None, None], stmts),
            _ => ([None, None], &mut []),
        };
        fixed.into_iter().flatten().chain(stmts)
    }

    /// The expressions this statement holds itself (not those of nested
    /// statements): declarator initializers, an expression statement, a
    /// `for`'s condition and step, a `while`'s or an `if`'s condition, a
    /// returned value.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let (fixed, decls): ([Option<&Expr>; 2], &[Declarator]) = match &self.kind {
            StmtKind::Decl { declarators, .. } => ([None, None], declarators),
            StmtKind::Expr(e) => ([Some(e), None], &[]),
            StmtKind::For { cond, step, .. } => ([cond.as_ref(), step.as_ref()], &[]),
            StmtKind::While { cond, .. } | StmtKind::If { cond, .. } => ([Some(cond), None], &[]),
            StmtKind::Return(e) => ([e.as_ref(), None], &[]),
            _ => ([None, None], &[]),
        };
        let inits = decls.iter().filter_map(|d| d.init.as_ref());
        fixed.into_iter().flatten().chain(inits)
    }

    /// [`Stmt::exprs`], mutably.
    pub fn exprs_mut(&mut self) -> impl Iterator<Item = &mut Expr> {
        let (fixed, decls): ([Option<&mut Expr>; 2], &mut [Declarator]) = match &mut self.kind {
            StmtKind::Decl { declarators, .. } => ([None, None], declarators),
            StmtKind::Expr(e) => ([Some(e), None], &mut []),
            StmtKind::For { cond, step, .. } => ([cond.as_mut(), step.as_mut()], &mut []),
            StmtKind::While { cond, .. } | StmtKind::If { cond, .. } => {
                ([Some(cond), None], &mut [])
            }
            StmtKind::Return(e) => ([e.as_mut(), None], &mut []),
            _ => ([None, None], &mut []),
        };
        let inits = decls.iter_mut().filter_map(|d| d.init.as_mut());
        fixed.into_iter().flatten().chain(inits)
    }

    /// Visits every statement in this subtree, outer-to-inner.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }

    /// [`Stmt::walk`], mutably.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Stmt)) {
        f(self);
        for c in self.children_mut() {
            c.walk_mut(f);
        }
    }

    /// Reads a `for` header syntactically; `None` for any other statement
    /// or header shape. The forms recognized:
    ///
    /// * init: `int iv = start` (one declarator) or `iv = start`;
    /// * condition: a comparison with `iv` alone on one side, flipped so
    ///   `iv` is on the left;
    /// * step: `iv++`, `iv--`, `iv += e`, `iv -= e`, `iv = iv + e`,
    ///   `iv = e + iv`, `iv = iv - e`.
    ///
    /// Whether start, bound and step are known values, and which
    /// comparisons count, is each caller's choice.
    pub fn for_header(&self) -> Option<ForHeader<'_>> {
        let StmtKind::For {
            init, cond, step, ..
        } = &self.kind
        else {
            return None;
        };
        let (iv, start) = match &init.as_deref()?.kind {
            StmtKind::Decl { declarators, .. } if declarators.len() == 1 => {
                let d = &declarators[0];
                (d.name.as_str(), d.init.as_ref()?)
            }
            StmtKind::Expr(Expr {
                kind:
                    ExprKind::Assign {
                        op: None,
                        target,
                        value,
                    },
                ..
            }) => match &target.kind {
                ExprKind::Ident(n) => (n.as_str(), value.as_ref()),
                _ => return None,
            },
            _ => return None,
        };
        let step = match &step.as_ref()?.kind {
            ExprKind::IncDec { target, delta, .. } if target.is_ident(iv) => ForStep::Delta(*delta),
            ExprKind::Assign {
                op: Some(op),
                target,
                value,
            } if target.is_ident(iv) => match op {
                BinaryOp::Add => ForStep::Add(value),
                BinaryOp::Sub => ForStep::Sub(value),
                _ => return None,
            },
            ExprKind::Assign {
                op: None,
                target,
                value,
            } if target.is_ident(iv) => match &value.kind {
                ExprKind::Binary { op, lhs, rhs } => match op {
                    BinaryOp::Add if lhs.is_ident(iv) => ForStep::Add(rhs),
                    BinaryOp::Add if rhs.is_ident(iv) => ForStep::Add(lhs),
                    BinaryOp::Sub if lhs.is_ident(iv) => ForStep::Sub(rhs),
                    _ => return None,
                },
                _ => return None,
            },
            _ => return None,
        };
        let ExprKind::Binary { op, lhs, rhs } = &cond.as_ref()?.kind else {
            return None;
        };
        if !op.is_comparison() {
            return None;
        }
        let (cmp, bound) = if lhs.is_ident(iv) {
            (*op, rhs.as_ref())
        } else if rhs.is_ident(iv) {
            (op.swapped(), lhs.as_ref())
        } else {
            return None;
        };
        Some(ForHeader {
            iv,
            start,
            cmp,
            bound,
            step,
        })
    }
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Element type.
    pub ty: Type,
    /// Name.
    pub name: String,
    /// True when the parameter is a pointer/array (`int *a` or `int a[]`).
    pub is_pointer: bool,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Return type.
    pub(crate) return_ty: Type,
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body block.
    pub body: Stmt,
    /// Attributes, e.g. `noinline`.
    pub(crate) attributes: Vec<String>,
    /// Full source span of the definition.
    pub(crate) span: Span,
}

/// A file-scope variable (typically a statically sized array).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalVar {
    /// Element type.
    pub ty: Type,
    /// Name.
    pub name: String,
    /// Array dimensions (empty for scalars).
    pub dims: Vec<i64>,
    /// Declared alignment in bytes from `__attribute__((aligned(N)))`, if any.
    pub alignment: Option<u32>,
    /// Initializer for scalars.
    pub(crate) init: Option<Expr>,
    /// Full source span.
    pub(crate) span: Span,
}

impl GlobalVar {
    /// Number of elements across all dimensions.
    pub(crate) fn element_count(&self) -> i64 {
        self.dims.iter().product::<i64>().max(1)
    }

    /// Footprint in bytes.
    pub fn size_bytes(&self) -> i64 {
        self.element_count() * i64::from(self.ty.size_bytes())
    }
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Item {
    /// File-scope variable.
    Global(GlobalVar),
    /// Function definition.
    Function(Function),
}

/// A parsed source file.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TranslationUnit {
    /// Items in declaration order.
    pub items: Vec<Item>,
}

impl TranslationUnit {
    /// Creates an empty translation unit.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Iterates over the function definitions.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.items.iter().filter_map(|i| match i {
            Item::Function(f) => Some(f),
            Item::Global(_) => None,
        })
    }

    /// Iterates over file-scope variables.
    pub fn globals(&self) -> impl Iterator<Item = &GlobalVar> {
        self.items.iter().filter_map(|i| match i {
            Item::Global(g) => Some(g),
            Item::Function(_) => None,
        })
    }

    /// Looks up a global by name.
    #[cfg(test)]
    pub(crate) fn global(&self, name: &str) -> Option<&GlobalVar> {
        self.globals().find(|g| g.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_sizes_match_lp64() {
        assert_eq!(Type::Char { unsigned: false }.size_bytes(), 1);
        assert_eq!(Type::Short { unsigned: false }.size_bytes(), 2);
        assert_eq!(Type::Int { unsigned: false }.size_bytes(), 4);
        assert_eq!(Type::Long { unsigned: false }.size_bytes(), 8);
        assert_eq!(Type::Float.size_bytes(), 4);
        assert_eq!(Type::Double.size_bytes(), 8);
    }

    #[test]
    fn const_int_folds_arithmetic() {
        let span = Span::synthetic();
        let e = Expr::new(
            ExprKind::Binary {
                op: BinaryOp::Mul,
                lhs: Box::new(Expr::new(ExprKind::IntLit(6), span)),
                rhs: Box::new(Expr::new(
                    ExprKind::Binary {
                        op: BinaryOp::Add,
                        lhs: Box::new(Expr::new(ExprKind::IntLit(3), span)),
                        rhs: Box::new(Expr::new(ExprKind::IntLit(4), span)),
                    },
                    span,
                )),
            },
            span,
        );
        assert_eq!(e.const_int(), Some(42));
    }

    #[test]
    fn const_int_rejects_variables() {
        let span = Span::synthetic();
        let e = Expr::new(ExprKind::Ident("n".into()), span);
        assert_eq!(e.const_int(), None);
    }

    /// The value of `x = <expr>;`'s right-hand side.
    fn rhs(src: &str) -> Expr {
        let StmtKind::Expr(Expr {
            kind: ExprKind::Assign { value, .. },
            ..
        }) = crate::parse_statement(src).unwrap().kind
        else {
            panic!("{src} is not an assignment")
        };
        *value
    }

    /// One folder serves both former callers: `& | ^` fold (the lowering
    /// side used to refuse them) and float literals are refused (the
    /// lowering side used to truncate them); an identifier is resolved but
    /// makes the value not compile-time known.
    #[test]
    fn fold_int_reads_bitwise_ops_and_resolved_names_but_no_floats() {
        for float in [
            "x = 2.0 * 8;",
            "x = 2.5 * 4;",
            "x = 5.0 / 2;",
            "x = (int) 2.5;",
        ] {
            assert_eq!(rhs(float).const_int(), None, "{float}");
        }
        assert_eq!(rhs("x = (300 ^ 44) | (7 & 2);").const_int(), Some(258));
        assert_eq!(rhs("x = -(int) 5 << 2;").const_int(), Some(-20));
        assert_eq!(rhs("x = 4 / 0;").const_int(), None);
        assert_eq!(rhs("x = 4 < 5;").const_int(), None);
        let n_is_1024 = |name: &str| (name == "n").then_some(1024);
        assert_eq!(
            rhs("x = n / 2 - 1;").fold_int(&n_is_1024),
            Some((511, false))
        );
        assert_eq!(rhs("x = 8 - 1;").fold_int(&n_is_1024), Some((7, true)));
        assert_eq!(rhs("x = m + 1;").fold_int(&n_is_1024), None);
    }

    fn header_of(src: &str) -> (String, i64, BinaryOp, i64, Option<i64>) {
        let s = crate::parse_statement(src).unwrap();
        let h = s.for_header().unwrap_or_else(|| panic!("{src}"));
        (
            h.iv.to_string(),
            h.start.const_int().unwrap(),
            h.cmp,
            h.bound.const_int().unwrap(),
            h.step(&|_| None),
        )
    }

    /// Every step spelling and either side of the comparison read alike,
    /// the IV normalised to the left.
    #[test]
    fn for_header_normalises_comparison_and_step() {
        let lt = |step| ("i".to_string(), 0, BinaryOp::Lt, 1024, Some(step));
        for src in [
            "for (int i = 0; i < 1024; i++) {}",
            "for (i = 0; i < 1024; ++i) {}",
            "for (int i = 0; 1024 > i; i++) {}",
            "for (int i = 0; i < 1024; i = i + 1) {}",
            "for (int i = 0; i < 1024; i = 1 + i) {}",
            "for (int i = 0; i < 1024; i += 1) {}",
        ] {
            assert_eq!(header_of(src), lt(1), "{src}");
        }
        assert_eq!(header_of("for (int i = 0; i < 1024; i -= 2) {}"), lt(-2));
        assert_eq!(header_of("for (int i = 0; i < 1024; i = i - 2) {}"), lt(-2));
        assert_eq!(
            header_of("for (int i = 9; 0 <= i; i--) {}"),
            ("i".to_string(), 9, BinaryOp::Ge, 0, Some(-1))
        );
        let s = crate::parse_statement("for (int i = 0; i < 8; i += n) {}").unwrap();
        let h = s.for_header().unwrap();
        assert_eq!(h.step(&|_| None), None);
        assert_eq!(h.step(&|_| Some(4)), Some(4));
        for src in [
            "for (int i = 0; i < 8; i = i * 2) {}",
            "for (int i = 0; i < 8; i = 2 - i) {}",
            "for (int i = 0; i < 8; j++) {}",
            "for (int i = 0; j < 8; i++) {}",
            "for (int i = 0; i + 8; i++) {}",
            "for (int i = 0, j = 0; i < 8; i++) {}",
            "for (int i; i < 8; i++) {}",
            "for (; i < 8; i++) {}",
            "while (i < 8) { i++; }",
        ] {
            let s = crate::parse_statement(src).unwrap();
            assert!(s.for_header().is_none(), "{src}");
        }
    }

    #[test]
    fn children_come_in_source_order() {
        let e = rhs("x = c ? f(a, b[i]) : -d;");
        let names =
            |e: &Expr| -> Vec<String> { e.children().map(crate::printer::print_expr).collect() };
        assert_eq!(names(&e), ["c", "f(a, b[i])", "-d"]);
        let ExprKind::Ternary { then_expr, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(names(then_expr), ["a", "b[i]"]);
        let s = crate::parse_statement(
            "for (int i = 0; i < n; i++) { if (i) { a[i] = 1; } else { b[i] = 2; } }",
        )
        .unwrap();
        let kinds: Vec<usize> = s.children().map(|c| c.children().count()).collect();
        assert_eq!(kinds, [0, 1], "init, then the body block");
        assert_eq!(s.exprs().count(), 2, "condition and step");
        let mut seen = 0;
        s.walk(&mut |_| seen += 1);
        assert_eq!(
            seen, 8,
            "for, init, body, if, two branch blocks, their statements"
        );
    }

    #[test]
    fn walk_mut_reaches_every_expression() {
        let mut s =
            crate::parse_statement("for (int q = 0; q < n; q++) { a[q] = q > 1 ? f(q) : 0; }")
                .unwrap();
        s.walk_mut(&mut |s| {
            for e in s.exprs_mut() {
                e.walk_mut(&mut |e| {
                    if let ExprKind::Ident(n) = &mut e.kind {
                        n.make_ascii_uppercase();
                    }
                });
            }
        });
        assert_eq!(
            crate::printer::print_stmt(&s, 0).replace(char::is_whitespace, ""),
            "for(intq=0;Q<N;Q++){A[Q]=Q>1?f(Q):0;}"
        );
    }

    #[test]
    fn same_tree_ignores_spans_only() {
        let a = rhs("x = f(b[i + 1], (float) -d);");
        let b = rhs("x   =   f(b[i+1],(float)-d) ;");
        assert_ne!(a, b, "spans differ");
        assert!(a.same_tree(&b));
        assert!(a.mentions("d") && !a.mentions("x") && !a.mentions("g"));
        for other in [
            "x = f(b[i + 2], (float) -d);",
            "x = f(b[i + 1], (double) -d);",
            "x = f(b[i - 1], (float) -d);",
            "x = g(b[i + 1], (float) -d);",
            "x = f(b[i + 1]);",
        ] {
            assert!(!a.same_tree(&rhs(other)), "{other}");
        }
    }

    /// A subtree with a side effect or a ternary never compares equal, not
    /// even to itself: `a[k++]` written twice names two cells.
    #[test]
    fn same_tree_refuses_side_effects_and_ternaries() {
        for src in [
            "x = b[k++];",
            "x = b[++k];",
            "x = b[k = i];",
            "x = b[k += 1];",
            "x = b[i > 5 ? i : 0];",
        ] {
            let e = rhs(src);
            assert!(!e.same_tree(&e.clone()), "{src}");
        }
    }

    #[test]
    fn contains_loop_counts_the_statement_itself() {
        let nest = crate::parse_statement("for (;;) { if (x) { while (y) {} } }").unwrap();
        assert!(nest.contains_loop());
        let StmtKind::For { body, .. } = &nest.kind else {
            panic!()
        };
        assert!(body.contains_loop());
        let flat = crate::parse_statement("if (x) { a = 1; } else { b = 2; }").unwrap();
        assert!(!flat.contains_loop());
    }

    #[test]
    fn as_array_access_handles_multidim() {
        let span = Span::synthetic();
        // A[i][j]
        let e = Expr::new(
            ExprKind::Index {
                base: Box::new(Expr::new(
                    ExprKind::Index {
                        base: Box::new(Expr::new(ExprKind::Ident("A".into()), span)),
                        index: Box::new(Expr::new(ExprKind::Ident("i".into()), span)),
                    },
                    span,
                )),
                index: Box::new(Expr::new(ExprKind::Ident("j".into()), span)),
            },
            span,
        );
        let (name, idx) = e.as_array_access().unwrap();
        assert_eq!(name, "A");
        assert_eq!(idx.len(), 2);
        assert_eq!(idx[0].kind, ExprKind::Ident("i".into()));
        assert_eq!(idx[1].kind, ExprKind::Ident("j".into()));
    }

    #[test]
    fn pragma_display_matches_clang_syntax() {
        let p = LoopPragma {
            vectorize_width: 8,
            interleave_count: 2,
        };
        assert_eq!(
            p.to_string(),
            "#pragma clang loop vectorize_width(8) interleave_count(2)"
        );
    }

    #[test]
    fn global_var_footprint() {
        let g = GlobalVar {
            ty: Type::Float,
            name: "A".into(),
            dims: vec![128, 128],
            alignment: Some(64),
            init: None,
            span: Span::synthetic(),
        };
        assert_eq!(g.element_count(), 128 * 128);
        assert_eq!(g.size_bytes(), 128 * 128 * 4);
    }
}
