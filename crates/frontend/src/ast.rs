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

    /// Folds the expression to a constant integer if possible.
    pub fn const_int(&self) -> Option<i64> {
        match &self.kind {
            ExprKind::IntLit(v) => Some(*v),
            ExprKind::Unary {
                op: UnaryOp::Neg,
                operand,
            } => operand.const_int().map(|v| -v),
            ExprKind::Cast { operand, .. } => operand.const_int(),
            ExprKind::Binary { op, lhs, rhs } => {
                let (a, b) = (lhs.const_int()?, rhs.const_int()?);
                Some(match op {
                    BinaryOp::Add => a + b,
                    BinaryOp::Sub => a - b,
                    BinaryOp::Mul => a * b,
                    BinaryOp::Div if b != 0 => a / b,
                    BinaryOp::Rem if b != 0 => a % b,
                    BinaryOp::Shl => a << (b & 63),
                    BinaryOp::Shr => a >> (b & 63),
                    BinaryOp::BitAnd => a & b,
                    BinaryOp::BitOr => a | b,
                    BinaryOp::BitXor => a ^ b,
                    _ => return None,
                })
            }
            _ => None,
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

    /// Visits every statement in this subtree, outer-to-inner.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match &self.kind {
            StmtKind::For { init, body, .. } => {
                if let Some(init) = init {
                    init.walk(f);
                }
                body.walk(f);
            }
            StmtKind::While { body, .. } => body.walk(f),
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.walk(f);
                if let Some(e) = else_branch {
                    e.walk(f);
                }
            }
            StmtKind::Block(stmts) => {
                for s in stmts {
                    s.walk(f);
                }
            }
            _ => {}
        }
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
