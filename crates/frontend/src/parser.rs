//! Recursive-descent parser for the supported C subset.
//!
//! Operator precedence follows C. The grammar covers everything that appears
//! in the paper's dataset examples (§3.2) and the benchmark kernels we
//! generate: global array declarations with attributes, function definitions,
//! `for`/`while`/`if`, ternaries, casts, compound assignment, pre/post
//! increment, and multi-dimensional indexing.

use crate::ast::{
    BinaryOp, Declarator, Expr, ExprKind, Function, GlobalVar, Item, LoopPragma, Param, Stmt,
    StmtKind, TranslationUnit, Type, UnaryOp,
};
use crate::lexer::{Span, Token, TokenKind};
use crate::FrontendError;

/// Parser over a token stream produced by [`crate::Lexer`].
///
/// The tokens are borrowed and never cloned: spans and literal payloads are
/// copied out, and an identifier becomes a `String` once, where it enters
/// the AST.
#[derive(Debug)]
pub struct Parser<'a> {
    tokens: &'a [Token<'a>],
    pos: usize,
    /// What `peek` yields past the end of `tokens`.
    eof: Token<'a>,
}

impl<'a> Parser<'a> {
    /// Creates a parser over `tokens`. The end of the slice reads as
    /// [`TokenKind::Eof`] whether or not such a token is there, so any
    /// sub-slice of a lexed stream can be parsed in place.
    pub fn new(tokens: &'a [Token<'a>]) -> Self {
        let eof = match tokens.last() {
            Some(t) if t.kind == TokenKind::Eof => *t,
            // Errors at the implied end point at the last token.
            last => Token {
                kind: TokenKind::Eof,
                span: last.map_or(Span::new(0, 0, 1, 1), |t| {
                    Span::new(t.span.end, t.span.end, t.span.line, t.span.col)
                }),
            },
        };
        Self {
            tokens,
            pos: 0,
            eof,
        }
    }

    /// Parses the whole token stream as a translation unit.
    ///
    /// # Errors
    ///
    /// Returns a [`FrontendError`] pointing at the first token that does not
    /// fit the grammar.
    pub fn parse_translation_unit(mut self) -> Result<TranslationUnit, FrontendError> {
        let mut tu = TranslationUnit::new();
        while !self.at_eof() {
            let item = self.parse_item()?;
            tu.items.push(item);
        }
        Ok(tu)
    }

    /// Parses exactly one statement and requires the input to be fully
    /// consumed afterwards.
    ///
    /// # Errors
    ///
    /// Returns a [`FrontendError`] if the snippet is not a single statement.
    pub fn parse_single_statement(mut self) -> Result<Stmt, FrontendError> {
        let stmt = self.parse_stmt()?;
        if !self.at_eof() {
            return Err(self.error_here("trailing tokens after statement"));
        }
        Ok(stmt)
    }

    // ------------------------------------------------------------------
    // Token helpers
    // ------------------------------------------------------------------

    fn peek(&self) -> Token<'a> {
        self.tokens.get(self.pos).copied().unwrap_or(self.eof)
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    fn bump(&mut self) -> Token<'a> {
        let t = self.peek();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error_here(&self, msg: impl Into<String>) -> FrontendError {
        let t = self.peek();
        FrontendError::new(
            format!("{} (found {})", msg.into(), t.kind),
            t.span.line,
            t.span.col,
        )
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek().kind, TokenKind::Punct(q) if q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<Span, FrontendError> {
        if matches!(self.peek().kind, TokenKind::Punct(q) if q == p) {
            Ok(self.bump().span)
        } else {
            Err(self.error_here(format!("expected `{p}`")))
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if matches!(self.peek().kind, TokenKind::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), FrontendError> {
        match self.peek().kind {
            TokenKind::Ident(s) => Ok((s.to_string(), self.bump().span)),
            _ => Err(self.error_here("expected identifier")),
        }
    }

    /// Skips any attribute tokens, collecting their text.
    fn eat_attributes(&mut self) -> Vec<String> {
        let mut attrs = Vec::new();
        while let TokenKind::Attribute(a) = self.peek().kind {
            attrs.push(a.to_string());
            self.bump();
        }
        attrs
    }

    /// Tries to parse a type name at the cursor without consuming on failure.
    fn peek_type(&self) -> Option<(Type, usize)> {
        let mut i = self.pos;
        let mut unsigned = false;
        let ident_at = |j: usize| self.tokens.get(j)?.kind.as_ident();
        // `const` is accepted and ignored.
        if ident_at(i) == Some("const") {
            i += 1;
        }
        match ident_at(i)? {
            "unsigned" => {
                unsigned = true;
                i += 1;
            }
            "signed" => {
                i += 1;
            }
            _ => {}
        }
        let ty = match ident_at(i) {
            Some("void") if !unsigned => {
                i += 1;
                Type::Void
            }
            Some("char") => {
                i += 1;
                Type::Char { unsigned }
            }
            Some("short") => {
                i += 1;
                if ident_at(i) == Some("int") {
                    i += 1;
                }
                Type::Short { unsigned }
            }
            Some("int") => {
                i += 1;
                Type::Int { unsigned }
            }
            Some("long") => {
                i += 1;
                if ident_at(i) == Some("long") {
                    i += 1;
                }
                if ident_at(i) == Some("int") {
                    i += 1;
                }
                Type::Long { unsigned }
            }
            Some("float") if !unsigned => {
                i += 1;
                Type::Float
            }
            Some("double") if !unsigned => {
                i += 1;
                Type::Double
            }
            _ if unsigned => Type::Int { unsigned: true },
            _ => return None,
        };
        Some((ty, i - self.pos))
    }

    fn parse_type(&mut self) -> Result<Type, FrontendError> {
        match self.peek_type() {
            Some((ty, n)) => {
                for _ in 0..n {
                    self.bump();
                }
                Ok(ty)
            }
            None => Err(self.error_here("expected type name")),
        }
    }

    // ------------------------------------------------------------------
    // Items
    // ------------------------------------------------------------------

    fn parse_item(&mut self) -> Result<Item, FrontendError> {
        let mut attrs = self.eat_attributes();
        if self.eat_ident("static") || self.eat_ident("extern") || self.eat_ident("inline") {
            // Storage classes carry no semantics for us.
        }
        let start_span = self.peek().span;
        let ty = self.parse_type()?;
        attrs.extend(self.eat_attributes());
        // Pointer return types are not in the subset; reject early.
        if matches!(self.peek().kind, TokenKind::Punct("*")) {
            return Err(self.error_here("pointer-typed globals/returns are not supported"));
        }
        let (name, _) = self.expect_ident()?;
        attrs.extend(self.eat_attributes());

        if matches!(self.peek().kind, TokenKind::Punct("(")) {
            self.parse_function_rest(ty, name, attrs, start_span)
                .map(Item::Function)
        } else {
            self.parse_global_rest(ty, name, start_span)
                .map(Item::Global)
        }
    }

    fn parse_global_rest(
        &mut self,
        ty: Type,
        name: String,
        start_span: Span,
    ) -> Result<GlobalVar, FrontendError> {
        let mut dims = Vec::new();
        while self.eat_punct("[") {
            let e = self.parse_expr()?;
            let v = e
                .const_int()
                .ok_or_else(|| self.error_here("global array dimension must be constant"))?;
            self.expect_punct("]")?;
            dims.push(v);
        }
        let attrs = self.eat_attributes();
        let alignment = attrs.iter().find_map(|a| {
            a.strip_prefix("aligned(")
                .and_then(|s| s.strip_suffix(')'))
                .and_then(|s| s.trim().parse().ok())
        });
        let init = if self.eat_punct("=") {
            if matches!(self.peek().kind, TokenKind::Punct("{")) {
                // Aggregate initializers are skipped (values don't matter to timing).
                self.skip_braced_initializer()?;
                None
            } else {
                Some(self.parse_assignment_expr()?)
            }
        } else {
            None
        };
        let end_span = self.expect_punct(";")?;
        Ok(GlobalVar {
            ty,
            name,
            dims,
            alignment,
            init,
            span: start_span.merge(end_span),
        })
    }

    fn skip_braced_initializer(&mut self) -> Result<(), FrontendError> {
        self.expect_punct("{")?;
        let mut depth = 1;
        while depth > 0 {
            match self.bump().kind {
                TokenKind::Punct("{") => depth += 1,
                TokenKind::Punct("}") => depth -= 1,
                TokenKind::Eof => return Err(self.error_here("unterminated initializer")),
                _ => {}
            }
        }
        Ok(())
    }

    fn parse_function_rest(
        &mut self,
        return_ty: Type,
        name: String,
        attributes: Vec<String>,
        start_span: Span,
    ) -> Result<Function, FrontendError> {
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                if self.eat_ident("void") && matches!(self.peek().kind, TokenKind::Punct(")")) {
                    self.bump();
                    break;
                }
                let ty = self.parse_type()?;
                let mut is_pointer = false;
                while self.eat_punct("*") {
                    is_pointer = true;
                }
                let (pname, _) = self.expect_ident()?;
                // `int a[]` / `int a[N]` parameters are pointers in C.
                while self.eat_punct("[") {
                    is_pointer = true;
                    if !self.eat_punct("]") {
                        self.parse_expr()?;
                        self.expect_punct("]")?;
                    }
                }
                params.push(Param {
                    ty,
                    name: pname,
                    is_pointer,
                });
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let body = self.parse_block()?;
        let span = start_span.merge(body.span);
        Ok(Function {
            return_ty,
            name,
            params,
            body,
            attributes,
            span,
        })
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn parse_block(&mut self) -> Result<Stmt, FrontendError> {
        let open = self.expect_punct("{")?;
        let mut stmts = Vec::new();
        loop {
            if matches!(self.peek().kind, TokenKind::Punct("}")) {
                let close = self.bump().span;
                return Ok(Stmt::new(StmtKind::Block(stmts), open.merge(close)));
            }
            if self.at_eof() {
                return Err(self.error_here("unterminated block"));
            }
            stmts.push(self.parse_stmt()?);
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt, FrontendError> {
        // A pragma binds to the next loop statement.
        if let TokenKind::PragmaClangLoop {
            vectorize_width,
            interleave_count,
        } = self.peek().kind
        {
            let pspan = self.bump().span;
            let mut stmt = self.parse_stmt()?;
            match &mut stmt.kind {
                StmtKind::For { pragma, .. } | StmtKind::While { pragma, .. } => {
                    *pragma = Some(LoopPragma {
                        vectorize_width,
                        interleave_count,
                    });
                    // The statement span deliberately starts at the loop
                    // keyword, not the pragma: loop extraction reports
                    // `header_line` for pragma (re)injection and the
                    // embedding text must not include the hint itself.
                    let _ = pspan;
                    return Ok(stmt);
                }
                _ => {
                    return Err(FrontendError::new(
                        "#pragma clang loop must precede a loop",
                        pspan.line,
                        pspan.col,
                    ))
                }
            }
        }

        match self.peek().kind {
            TokenKind::Punct("{") => self.parse_block(),
            TokenKind::Punct(";") => {
                let span = self.bump().span;
                Ok(Stmt::new(StmtKind::Empty, span))
            }
            TokenKind::Ident(kw) => match kw {
                "for" => self.parse_for(),
                "while" => self.parse_while(),
                "if" => self.parse_if(),
                "return" => {
                    let start = self.bump().span;
                    if self.eat_punct(";") {
                        return Ok(Stmt::new(StmtKind::Return(None), start));
                    }
                    let e = self.parse_expr()?;
                    let end = self.expect_punct(";")?;
                    Ok(Stmt::new(StmtKind::Return(Some(e)), start.merge(end)))
                }
                "break" => {
                    let start = self.bump().span;
                    let end = self.expect_punct(";")?;
                    Ok(Stmt::new(StmtKind::Break, start.merge(end)))
                }
                "continue" => {
                    let start = self.bump().span;
                    let end = self.expect_punct(";")?;
                    Ok(Stmt::new(StmtKind::Continue, start.merge(end)))
                }
                _ if self.peek_type().is_some() => self.parse_decl_stmt(),
                _ => self.parse_expr_stmt(),
            },
            _ => self.parse_expr_stmt(),
        }
    }

    fn parse_decl_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.peek().span;
        let ty = self.parse_type()?;
        let mut declarators = Vec::new();
        loop {
            let (name, _) = self.expect_ident()?;
            let mut dims = Vec::new();
            while self.eat_punct("[") {
                if self.eat_punct("]") {
                    dims.push(None);
                    continue;
                }
                let e = self.parse_expr()?;
                dims.push(e.const_int());
                self.expect_punct("]")?;
            }
            let init = if self.eat_punct("=") {
                Some(self.parse_assignment_expr()?)
            } else {
                None
            };
            declarators.push(Declarator { name, dims, init });
            if !self.eat_punct(",") {
                break;
            }
        }
        let end = self.expect_punct(";")?;
        Ok(Stmt::new(
            StmtKind::Decl { ty, declarators },
            start.merge(end),
        ))
    }

    fn parse_expr_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let e = self.parse_expr()?;
        let end = self.expect_punct(";")?;
        let span = e.span.merge(end);
        Ok(Stmt::new(StmtKind::Expr(e), span))
    }

    fn parse_for(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.bump().span; // `for`
        self.expect_punct("(")?;
        let init = if self.eat_punct(";") {
            None
        } else if self.peek_type().is_some() {
            Some(Box::new(self.parse_decl_stmt()?))
        } else {
            let e = self.parse_expr()?;
            self.expect_punct(";")?;
            let span = e.span;
            Some(Box::new(Stmt::new(StmtKind::Expr(e), span)))
        };
        let cond = if matches!(self.peek().kind, TokenKind::Punct(";")) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect_punct(";")?;
        let step = if matches!(self.peek().kind, TokenKind::Punct(")")) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect_punct(")")?;
        let body = Box::new(self.parse_stmt()?);
        let span = start.merge(body.span);
        Ok(Stmt::new(
            StmtKind::For {
                init,
                cond,
                step,
                body,
                pragma: None,
            },
            span,
        ))
    }

    fn parse_while(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.bump().span; // `while`
        self.expect_punct("(")?;
        let cond = self.parse_expr()?;
        self.expect_punct(")")?;
        let body = Box::new(self.parse_stmt()?);
        let span = start.merge(body.span);
        Ok(Stmt::new(
            StmtKind::While {
                cond,
                body,
                pragma: None,
            },
            span,
        ))
    }

    fn parse_if(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.bump().span; // `if`
        self.expect_punct("(")?;
        let cond = self.parse_expr()?;
        self.expect_punct(")")?;
        let then_branch = Box::new(self.parse_stmt()?);
        let (else_branch, end_span) = if self.eat_ident("else") {
            let e = Box::new(self.parse_stmt()?);
            let sp = e.span;
            (Some(e), sp)
        } else {
            (None, then_branch.span)
        };
        Ok(Stmt::new(
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
            start.merge(end_span),
        ))
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    /// Full expression, including assignment.
    pub(crate) fn parse_expr(&mut self) -> Result<Expr, FrontendError> {
        self.parse_assignment_expr()
    }

    fn parse_assignment_expr(&mut self) -> Result<Expr, FrontendError> {
        let lhs = self.parse_ternary()?;
        let TokenKind::Punct(p) = self.peek().kind else {
            return Ok(lhs);
        };
        // Matched by bytes, not `&str` contents: this runs once per
        // expression and nearly always falls through.
        let op = match p.as_bytes() {
            [b'='] => None,
            [b'+', b'='] => Some(BinaryOp::Add),
            [b'-', b'='] => Some(BinaryOp::Sub),
            [b'*', b'='] => Some(BinaryOp::Mul),
            [b'/', b'='] => Some(BinaryOp::Div),
            [b'%', b'='] => Some(BinaryOp::Rem),
            [b'&', b'='] => Some(BinaryOp::BitAnd),
            [b'|', b'='] => Some(BinaryOp::BitOr),
            [b'^', b'='] => Some(BinaryOp::BitXor),
            [b'<', b'<', b'='] => Some(BinaryOp::Shl),
            [b'>', b'>', b'='] => Some(BinaryOp::Shr),
            _ => return Ok(lhs),
        };
        self.bump();
        let value = self.parse_assignment_expr()?;
        let span = lhs.span.merge(value.span);
        Ok(Expr::new(
            ExprKind::Assign {
                op,
                target: Box::new(lhs),
                value: Box::new(value),
            },
            span,
        ))
    }

    fn parse_ternary(&mut self) -> Result<Expr, FrontendError> {
        let cond = self.parse_binary(0)?;
        if !self.eat_punct("?") {
            return Ok(cond);
        }
        let then_expr = self.parse_expr()?;
        self.expect_punct(":")?;
        let else_expr = self.parse_assignment_expr()?;
        let span = cond.span.merge(else_expr.span);
        Ok(Expr::new(
            ExprKind::Ternary {
                cond: Box::new(cond),
                then_expr: Box::new(then_expr),
                else_expr: Box::new(else_expr),
            },
            span,
        ))
    }

    fn binop_at(&self, min_prec: u8) -> Option<(BinaryOp, u8)> {
        let TokenKind::Punct(p) = self.peek().kind else {
            return None;
        };
        // By bytes, as in `parse_assignment_expr`: this runs after every
        // operand.
        let (op, prec) = match p.as_bytes() {
            [b'|', b'|'] => (BinaryOp::LogOr, 1),
            [b'&', b'&'] => (BinaryOp::LogAnd, 2),
            [b'|'] => (BinaryOp::BitOr, 3),
            [b'^'] => (BinaryOp::BitXor, 4),
            [b'&'] => (BinaryOp::BitAnd, 5),
            [b'=', b'='] => (BinaryOp::Eq, 6),
            [b'!', b'='] => (BinaryOp::Ne, 6),
            [b'<'] => (BinaryOp::Lt, 7),
            [b'<', b'='] => (BinaryOp::Le, 7),
            [b'>'] => (BinaryOp::Gt, 7),
            [b'>', b'='] => (BinaryOp::Ge, 7),
            [b'<', b'<'] => (BinaryOp::Shl, 8),
            [b'>', b'>'] => (BinaryOp::Shr, 8),
            [b'+'] => (BinaryOp::Add, 9),
            [b'-'] => (BinaryOp::Sub, 9),
            [b'*'] => (BinaryOp::Mul, 10),
            [b'/'] => (BinaryOp::Div, 10),
            [b'%'] => (BinaryOp::Rem, 10),
            _ => return None,
        };
        (prec >= min_prec).then_some((op, prec))
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr, FrontendError> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = self.binop_at(min_prec) {
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, FrontendError> {
        let tok = self.peek();
        match tok.kind {
            TokenKind::Punct("-") => {
                let start = self.bump().span;
                let operand = self.parse_unary()?;
                let span = start.merge(operand.span);
                Ok(Expr::new(
                    ExprKind::Unary {
                        op: UnaryOp::Neg,
                        operand: Box::new(operand),
                    },
                    span,
                ))
            }
            TokenKind::Punct("+") => {
                self.bump();
                self.parse_unary()
            }
            TokenKind::Punct("!") => {
                let start = self.bump().span;
                let operand = self.parse_unary()?;
                let span = start.merge(operand.span);
                Ok(Expr::new(
                    ExprKind::Unary {
                        op: UnaryOp::Not,
                        operand: Box::new(operand),
                    },
                    span,
                ))
            }
            TokenKind::Punct("~") => {
                let start = self.bump().span;
                let operand = self.parse_unary()?;
                let span = start.merge(operand.span);
                Ok(Expr::new(
                    ExprKind::Unary {
                        op: UnaryOp::BitNot,
                        operand: Box::new(operand),
                    },
                    span,
                ))
            }
            TokenKind::Punct("++") | TokenKind::Punct("--") => {
                let delta = if matches!(tok.kind, TokenKind::Punct("++")) {
                    1
                } else {
                    -1
                };
                let start = self.bump().span;
                let target = self.parse_unary()?;
                let span = start.merge(target.span);
                Ok(Expr::new(
                    ExprKind::IncDec {
                        target: Box::new(target),
                        delta,
                        prefix: true,
                    },
                    span,
                ))
            }
            TokenKind::Punct("(") => {
                // Could be a cast `(int) x` or a parenthesized expression.
                let save = self.pos;
                self.bump();
                if let Some((ty, n)) = self.peek_type() {
                    // Only a cast when the type name is immediately followed
                    // by `)`; otherwise (e.g. `(int *) …`) fall back to a
                    // parenthesized expression parse below.
                    let after_ty = self.pos + n;
                    if matches!(
                        self.tokens.get(after_ty).map(|t| &t.kind),
                        Some(TokenKind::Punct(")"))
                    ) {
                        for _ in 0..n {
                            self.bump();
                        }
                        let close = self.expect_punct(")")?;
                        let operand = self.parse_unary()?;
                        let span = tok.span.merge(close).merge(operand.span);
                        return Ok(Expr::new(
                            ExprKind::Cast {
                                ty,
                                operand: Box::new(operand),
                            },
                            span,
                        ));
                    }
                }
                self.pos = save;
                self.parse_postfix()
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, FrontendError> {
        let mut e = self.parse_primary()?;
        loop {
            match self.peek().kind {
                TokenKind::Punct("[") => {
                    self.bump();
                    let index = self.parse_expr()?;
                    let close = self.expect_punct("]")?;
                    let span = e.span.merge(close);
                    e = Expr::new(
                        ExprKind::Index {
                            base: Box::new(e),
                            index: Box::new(index),
                        },
                        span,
                    );
                }
                TokenKind::Punct("++") | TokenKind::Punct("--") => {
                    let delta = if matches!(self.peek().kind, TokenKind::Punct("++")) {
                        1
                    } else {
                        -1
                    };
                    let end = self.bump().span;
                    let span = e.span.merge(end);
                    e = Expr::new(
                        ExprKind::IncDec {
                            target: Box::new(e),
                            delta,
                            prefix: false,
                        },
                        span,
                    );
                }
                _ => return Ok(e),
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, FrontendError> {
        let tok = self.bump();
        match tok.kind {
            TokenKind::IntLit(v) => Ok(Expr::new(ExprKind::IntLit(v), tok.span)),
            TokenKind::CharLit(v) => Ok(Expr::new(ExprKind::IntLit(v), tok.span)),
            TokenKind::FloatLit(v) => Ok(Expr::new(ExprKind::FloatLit(v), tok.span)),
            TokenKind::Ident(name) => {
                if matches!(self.peek().kind, TokenKind::Punct("(")) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.parse_assignment_expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    let end = self
                        .tokens
                        .get(self.pos.saturating_sub(1))
                        .map(|t| t.span)
                        .unwrap_or(tok.span);
                    Ok(Expr::new(
                        ExprKind::Call {
                            callee: name.to_string(),
                            args,
                        },
                        tok.span.merge(end),
                    ))
                } else {
                    Ok(Expr::new(ExprKind::Ident(name.to_string()), tok.span))
                }
            }
            TokenKind::Punct("(") => {
                let e = self.parse_expr()?;
                let close = self.expect_punct(")")?;
                Ok(Expr::new(e.kind, tok.span.merge(close)))
            }
            other => Err(FrontendError::new(
                format!("expected expression (found {other})"),
                tok.span.line,
                tok.span.col,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Lexer;

    fn parse_ok(src: &str) -> TranslationUnit {
        let tokens = Lexer::new(src).tokenize().unwrap();
        Parser::new(&tokens).parse_translation_unit().unwrap()
    }

    fn expr_of(src: &str) -> Expr {
        let tokens = Lexer::new(src).tokenize().unwrap();
        let mut p = Parser::new(&tokens);
        p.parse_expr().unwrap()
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = expr_of("a + b * c");
        match e.kind {
            ExprKind::Binary {
                op: BinaryOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(
                    rhs.kind,
                    ExprKind::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn precedence_shift_vs_compare() {
        // C: `a << b < c` parses as `(a << b) < c`.
        let e = expr_of("a << b < c");
        assert!(matches!(
            e.kind,
            ExprKind::Binary {
                op: BinaryOp::Lt,
                ..
            }
        ));
    }

    #[test]
    fn assignment_is_right_associative() {
        let e = expr_of("a = b = c");
        match e.kind {
            ExprKind::Assign { value, .. } => {
                assert!(matches!(value.kind, ExprKind::Assign { .. }));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn compound_assignment_carries_op() {
        let e = expr_of("sum += x");
        assert!(matches!(
            e.kind,
            ExprKind::Assign {
                op: Some(BinaryOp::Add),
                ..
            }
        ));
    }

    #[test]
    fn ternary_parses() {
        let e = expr_of("a > 3 ? 1 : 0");
        assert!(matches!(e.kind, ExprKind::Ternary { .. }));
    }

    #[test]
    fn cast_vs_parenthesized() {
        assert!(matches!(expr_of("(int) x").kind, ExprKind::Cast { .. }));
        assert!(matches!(expr_of("(x)").kind, ExprKind::Ident(_)));
        assert!(matches!(
            expr_of("(a + b) * c").kind,
            ExprKind::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn postincrement_parses() {
        let e = expr_of("i++");
        assert!(matches!(
            e.kind,
            ExprKind::IncDec {
                delta: 1,
                prefix: false,
                ..
            }
        ));
    }

    #[test]
    fn multidim_index_parses() {
        let e = expr_of("A[i][j][k]");
        let (name, idx) = e.as_array_access().unwrap();
        assert_eq!(name, "A");
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn call_with_args_parses() {
        let e = expr_of("fmaxf(a, 0.0)");
        match e.kind {
            ExprKind::Call { callee, args } => {
                assert_eq!(callee, "fmaxf");
                assert_eq!(args.len(), 2);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn for_with_decl_init() {
        let tu = parse_ok("void f(int n) { for (int i = 0; i < n; i++) { } }");
        let f = tu.functions().next().unwrap();
        let mut count = 0;
        f.body.walk(&mut |s| {
            if s.is_loop() {
                count += 1;
            }
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn for_with_empty_clauses() {
        parse_ok("void f() { for (;;) { break; } }");
    }

    #[test]
    fn while_loop_parses() {
        let tu = parse_ok("void f(int n) { int i = 0; while (i < n) { i++; } }");
        let f = tu.functions().next().unwrap();
        let mut found = false;
        f.body.walk(&mut |s| {
            if matches!(s.kind, StmtKind::While { .. }) {
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn if_else_chain() {
        parse_ok("void f(int x) { if (x > 0) { x = 1; } else if (x < 0) { x = 2; } else x = 3; }");
    }

    #[test]
    fn global_with_multidim_and_alignment() {
        let tu = parse_ok("float A[64][32] __attribute__((aligned(64)));");
        let g = tu.global("A").unwrap();
        assert_eq!(g.dims, vec![64, 32]);
        assert_eq!(g.alignment, Some(64));
    }

    #[test]
    fn global_with_aggregate_init_is_accepted() {
        let tu = parse_ok("int lut[4] = {1, 2, 3, 4};");
        assert_eq!(tu.global("lut").unwrap().dims, vec![4]);
    }

    #[test]
    fn function_with_pointer_params() {
        let tu = parse_ok("void f(float *a, float b[], int n) { }");
        let f = tu.functions().next().unwrap();
        assert!(f.params[0].is_pointer);
        assert!(f.params[1].is_pointer);
        assert!(!f.params[2].is_pointer);
    }

    #[test]
    fn unsigned_and_long_types() {
        let tu = parse_ok("unsigned char t[16]; unsigned long big; long long x;");
        assert_eq!(tu.global("t").unwrap().ty, Type::Char { unsigned: true });
        assert_eq!(tu.global("big").unwrap().ty, Type::Long { unsigned: true });
        assert_eq!(tu.global("x").unwrap().ty, Type::Long { unsigned: false });
    }

    #[test]
    fn pragma_binds_to_loop() {
        let tu = parse_ok(
            "void f(int n) {\n#pragma clang loop vectorize_width(16) interleave_count(2)\nfor (int i = 0; i < n; i++) { } }",
        );
        let f = tu.functions().next().unwrap();
        let mut pragma = None;
        f.body.walk(&mut |s| {
            if let StmtKind::For { pragma: p, .. } = &s.kind {
                pragma = *p;
            }
        });
        assert_eq!(
            pragma,
            Some(LoopPragma {
                vectorize_width: 16,
                interleave_count: 2
            })
        );
    }

    #[test]
    fn pragma_without_loop_is_error() {
        let tokens = Lexer::new(
            "void f() {\n#pragma clang loop vectorize_width(4) interleave_count(1)\nint x; }",
        )
        .tokenize()
        .unwrap();
        assert!(Parser::new(&tokens).parse_translation_unit().is_err());
    }

    #[test]
    fn error_on_garbage() {
        let tokens = Lexer::new("int f( {").tokenize().unwrap();
        assert!(Parser::new(&tokens).parse_translation_unit().is_err());
    }

    #[test]
    fn decl_with_multiple_declarators() {
        let tu = parse_ok("void f() { int i = 0, j, k = 2; }");
        let f = tu.functions().next().unwrap();
        let mut n = 0;
        f.body.walk(&mut |s| {
            if let StmtKind::Decl { declarators, .. } = &s.kind {
                n = declarators.len();
            }
        });
        assert_eq!(n, 3);
    }

    #[test]
    fn nested_loop_depths() {
        let tu = parse_ok(
            "void f(int n) { for (int i=0;i<n;i++) for (int j=0;j<n;j++) for (int k=0;k<n;k++) ; }",
        );
        let f = tu.functions().next().unwrap();
        let mut loops = 0;
        f.body.walk(&mut |s| {
            if s.is_loop() {
                loops += 1;
            }
        });
        assert_eq!(loops, 3);
    }
}
