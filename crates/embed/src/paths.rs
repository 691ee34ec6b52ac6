//! AST path-context extraction (the code2vec front half).
//!
//! A loop statement is flattened into a tree of labelled nodes; each leaf
//! carries a normalized terminal token. A *path context* is a pair of
//! terminals plus the up-then-down sequence of interior node labels
//! connecting them.
//!
//! One tree walk and one pair selection feed two sinks: the readable
//! [`PathContext`] strings ([`extract_path_contexts`]) and the hashed
//! [`PathSample`] the model and the serving cache consume
//! ([`PathSample::from_stmt`]). The hashed sink feeds the same text piece
//! by piece into FNV-1a — a byte-streaming hash — so it equals hashing the
//! rendered strings without ever building them.

use nvc_frontend::ast::{Expr, ExprKind, Stmt, StmtKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::model::EmbedConfig;
use crate::vocab::{Fnv1a, PathSample};

/// One leaf-to-leaf path context: `(start terminal, path string, end
/// terminal)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathContext {
    /// Normalized token at the start leaf.
    pub start: String,
    /// Rendered interior path (node labels with ↑/↓ direction markers).
    pub path: String,
    /// Normalized token at the end leaf.
    pub end: String,
}

/// A leaf's normalized token, held without allocating it.
#[derive(Debug, Clone, Copy)]
enum Terminal<'a> {
    /// `VARk` — the `k`-th distinct variable name of the statement, so
    /// renamed copies of a loop read alike.
    Var(usize),
    /// An operator, type name, literal bucket or callee, verbatim.
    Text(&'a str),
}

impl Terminal<'_> {
    /// Feeds the token's text to `emit`, piece by piece.
    fn emit(self, emit: &mut impl FnMut(&str)) {
        match self {
            Terminal::Text(s) => emit(s),
            Terminal::Var(mut k) => {
                let mut digits = [0u8; 20];
                let mut at = digits.len();
                loop {
                    at -= 1;
                    digits[at] = b'0' + (k % 10) as u8;
                    k /= 10;
                    if k == 0 {
                        break;
                    }
                }
                emit("VAR");
                emit(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
            }
        }
    }
}

/// Internal flattened AST node.
#[derive(Debug)]
struct TreeNode {
    label: &'static str,
    parent: Option<usize>,
    depth: usize,
}

/// A statement flattened for path extraction; borrows names from the AST.
#[derive(Debug)]
struct Tree<'a> {
    nodes: Vec<TreeNode>,
    /// `(node, terminal)` of every leaf, in source order.
    leaves: Vec<(usize, Terminal<'a>)>,
    /// Variable name → first-occurrence index.
    var_index: HashMap<&'a str, usize>,
}

impl<'a> Tree<'a> {
    fn of(stmt: &'a Stmt) -> Self {
        // Room for a typical loop nest without regrowing.
        let mut tree = Tree {
            nodes: Vec::with_capacity(128),
            leaves: Vec::with_capacity(64),
            var_index: HashMap::with_capacity(16),
        };
        build_stmt(&mut tree, stmt, None);
        tree
    }

    fn add(&mut self, label: &'static str, parent: Option<usize>) -> usize {
        let depth = parent.map_or(0, |p| self.nodes[p].depth + 1);
        self.nodes.push(TreeNode {
            label,
            parent,
            depth,
        });
        self.nodes.len() - 1
    }

    fn leaf(&mut self, label: &'static str, token: &'a str, parent: usize) {
        let id = self.add(label, Some(parent));
        self.leaves.push((id, Terminal::Text(token)));
    }

    fn var(&mut self, name: &'a str, parent: usize) {
        let next = self.var_index.len();
        let k = *self.var_index.entry(name).or_insert(next);
        let id = self.add("Ident", Some(parent));
        self.leaves.push((id, Terminal::Var(k)));
    }

    /// Feeds the path between two leaf nodes to `emit`, piece by piece: up
    /// to the lowest common ancestor (`label^` each), the ancestor, then
    /// down (`vlabel` each). `down` is scratch space.
    fn emit_path(
        &self,
        from: usize,
        to: usize,
        down: &mut Vec<&'static str>,
        emit: &mut impl FnMut(&str),
    ) {
        // Walk both up to equal depth, then in lockstep to the LCA.
        let mut ua = self.nodes[from].parent;
        let mut ub = self.nodes[to].parent;
        down.clear();
        while let (Some(a), Some(b)) = (ua, ub) {
            if a == b {
                break;
            }
            if self.nodes[a].depth >= self.nodes[b].depth {
                emit(self.nodes[a].label);
                emit("^");
                ua = self.nodes[a].parent;
            } else {
                down.push(self.nodes[b].label);
                ub = self.nodes[b].parent;
            }
        }
        emit(ua.map_or("Root", |a| self.nodes[a].label));
        for label in down.iter().rev() {
            emit("v");
            emit(label);
        }
    }
}

/// Buckets numeric literals so magnitudes, not exact values, shape the
/// embedding.
pub fn normalize_terminals(v: i64) -> &'static str {
    match v {
        0 => "LIT0",
        1 => "LIT1",
        2 => "LIT2",
        v if v > 2 && (v as u64).is_power_of_two() => "LITPOW2",
        v if (3..=64).contains(&v) => "LITSMALL",
        v if v < 0 => "LITNEG",
        _ => "LITBIG",
    }
}

fn build_expr<'a>(b: &mut Tree<'a>, e: &'a Expr, parent: usize) {
    match &e.kind {
        ExprKind::IntLit(v) => b.leaf("IntLit", normalize_terminals(*v), parent),
        ExprKind::FloatLit(_) => b.leaf("FloatLit", "FLIT", parent),
        ExprKind::Ident(name) => b.var(name, parent),
        ExprKind::Index { base, index } => {
            let id = b.add("Index", Some(parent));
            build_expr(b, base, id);
            build_expr(b, index, id);
        }
        ExprKind::Call { callee, args } => {
            let id = b.add("Call", Some(parent));
            // Callee names are semantic (sqrtf vs foo); keep them verbatim.
            b.leaf("Callee", callee, id);
            for a in args {
                build_expr(b, a, id);
            }
        }
        ExprKind::Unary { op, operand } => {
            let id = b.add("Unary", Some(parent));
            b.leaf("UnOp", op.symbol(), id);
            build_expr(b, operand, id);
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let id = b.add("Binary", Some(parent));
            build_expr(b, lhs, id);
            b.leaf("BinOp", op.symbol(), id);
            build_expr(b, rhs, id);
        }
        ExprKind::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            let id = b.add("Ternary", Some(parent));
            build_expr(b, cond, id);
            build_expr(b, then_expr, id);
            build_expr(b, else_expr, id);
        }
        ExprKind::Cast { ty, operand } => {
            let id = b.add("Cast", Some(parent));
            b.leaf("Type", ty.c_name(), id);
            build_expr(b, operand, id);
        }
        ExprKind::Assign { op, target, value } => {
            let label = if op.is_some() {
                "CompoundAssign"
            } else {
                "Assign"
            };
            let id = b.add(label, Some(parent));
            build_expr(b, target, id);
            if let Some(op) = op {
                b.leaf("BinOp", op.symbol(), id);
            }
            build_expr(b, value, id);
        }
        ExprKind::IncDec { target, delta, .. } => {
            let id = b.add("IncDec", Some(parent));
            build_expr(b, target, id);
            b.leaf("BinOp", if *delta > 0 { "++" } else { "--" }, id);
        }
    }
}

fn build_stmt<'a>(b: &mut Tree<'a>, s: &'a Stmt, parent: Option<usize>) -> usize {
    match &s.kind {
        StmtKind::Block(stmts) => {
            let id = b.add("Block", parent);
            for st in stmts {
                build_stmt(b, st, Some(id));
            }
            id
        }
        StmtKind::Decl { ty, declarators } => {
            let id = b.add("Decl", parent);
            b.leaf("Type", ty.c_name(), id);
            for d in declarators {
                b.var(&d.name, id);
                if let Some(init) = &d.init {
                    build_expr(b, init, id);
                }
            }
            id
        }
        StmtKind::Expr(e) => {
            let id = b.add("ExprStmt", parent);
            build_expr(b, e, id);
            id
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            let id = b.add("For", parent);
            if let Some(i) = init {
                build_stmt(b, i, Some(id));
            }
            if let Some(c) = cond {
                let cid = b.add("ForCond", Some(id));
                build_expr(b, c, cid);
            }
            if let Some(st) = step {
                let sid = b.add("ForStep", Some(id));
                build_expr(b, st, sid);
            }
            build_stmt(b, body, Some(id));
            id
        }
        StmtKind::While { cond, body, .. } => {
            let id = b.add("While", parent);
            let cid = b.add("WhileCond", Some(id));
            build_expr(b, cond, cid);
            build_stmt(b, body, Some(id));
            id
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let id = b.add("If", parent);
            let cid = b.add("IfCond", Some(id));
            build_expr(b, cond, cid);
            build_stmt(b, then_branch, Some(id));
            if let Some(e) = else_branch {
                build_stmt(b, e, Some(id));
            }
            id
        }
        StmtKind::Return(e) => {
            let id = b.add("Return", parent);
            if let Some(e) = e {
                build_expr(b, e, id);
            }
            id
        }
        StmtKind::Break => b.add("Break", parent),
        StmtKind::Continue => b.add("Continue", parent),
        StmtKind::Empty => b.add("Empty", parent),
    }
}

/// The leaf pairs `(i, j)`, `i < j`, that a statement with `n` leaves is
/// sampled at. All pairs are ordered row by row (`(0,1), (0,2), …, (1,2),
/// …`); when there are more than `max_paths`, `max_paths` of them are
/// taken at a fixed fractional stride over that order, so the selection
/// spreads over the whole loop body rather than concentrating at its
/// start. Nothing is materialised: the `k`-th pair is computed from its
/// position in the order.
fn selected_pairs(n: usize, max_paths: usize) -> impl ExactSizeIterator<Item = (usize, usize)> {
    let total = n * n.saturating_sub(1) / 2;
    let (count, stride) = if total <= max_paths {
        (total, 1.0)
    } else {
        (max_paths, total as f64 / max_paths as f64)
    };
    // Row `i` holds the `n - 1 - i` pairs `(i, _)`; positions only grow,
    // so the row is found by stepping forward.
    let (mut i, mut row_start) = (0, 0);
    (0..count).map(move |k| {
        let position = (k as f64 * stride) as usize;
        while position >= row_start + (n - 1 - i) {
            row_start += n - 1 - i;
            i += 1;
        }
        (i, i + 1 + position - row_start)
    })
}

/// Extracts up to `max_paths` path contexts from a loop statement, as
/// text. This is the readable form, and the reference
/// [`PathSample::from_stmt`] is tested against.
pub fn extract_path_contexts(stmt: &Stmt, max_paths: usize) -> Vec<PathContext> {
    let tree = Tree::of(stmt);
    let text = |t: Terminal<'_>| {
        let mut s = String::new();
        t.emit(&mut |piece| s.push_str(piece));
        s
    };
    let mut down = Vec::new();
    selected_pairs(tree.leaves.len(), max_paths)
        .map(|(i, j)| {
            let ((from, start), (to, end)) = (tree.leaves[i], tree.leaves[j]);
            let mut path = String::new();
            tree.emit_path(from, to, &mut down, &mut |piece| path.push_str(piece));
            PathContext {
                start: text(start),
                path,
                end: text(end),
            }
        })
        .collect()
}

impl PathSample {
    /// Samples a loop statement: the one spelling of "statement → model
    /// observation" that training, inference and serving all go through.
    /// Same walk and selection as [`extract_path_contexts`], with every
    /// piece of text hashed as it is produced instead of rendered, so it
    /// equals `from_contexts(&extract_path_contexts(stmt, cfg.max_paths),
    /// cfg)` index for index.
    pub fn from_stmt(stmt: &Stmt, cfg: &EmbedConfig) -> Self {
        let tree = Tree::of(stmt);
        let bucket = |h: Fnv1a, buckets: usize| (h.finish() % buckets as u64) as usize;
        // Each leaf's terminal is hashed once, however many pairs it is in.
        let rows: Vec<usize> = tree
            .leaves
            .iter()
            .map(|&(_, terminal)| {
                let mut h = Fnv1a::new();
                terminal.emit(&mut |piece| h.write(piece.as_bytes()));
                bucket(h, cfg.token_buckets)
            })
            .collect();
        let pairs = selected_pairs(tree.leaves.len(), cfg.max_paths);
        let count = pairs.len();
        let mut sample = PathSample {
            starts: Vec::with_capacity(count),
            paths: Vec::with_capacity(count),
            ends: Vec::with_capacity(count),
        };
        let mut down = Vec::new();
        for (i, j) in pairs {
            let mut h = Fnv1a::new();
            tree.emit_path(
                tree.leaves[i].0,
                tree.leaves[j].0,
                &mut down,
                &mut |piece| h.write(piece.as_bytes()),
            );
            sample.starts.push(rows[i]);
            sample.paths.push(bucket(h, cfg.path_buckets));
            sample.ends.push(rows[j]);
        }
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_frontend::parse_statement;

    fn contexts(src: &str) -> Vec<PathContext> {
        extract_path_contexts(&parse_statement(src).unwrap(), 64)
    }

    #[test]
    fn simple_loop_produces_paths() {
        let c = contexts("for (int i = 0; i < n; i++) { a[i] = b[i]; }");
        assert!(!c.is_empty());
        // Terminals are normalized.
        assert!(c
            .iter()
            .any(|p| p.start.starts_with("VAR") || p.end.starts_with("VAR")));
    }

    #[test]
    fn extraction_is_deterministic() {
        let src = "for (int i = 0; i < n; i++) { s += a[i] * b[i]; }";
        assert_eq!(contexts(src), contexts(src));
    }

    #[test]
    fn renaming_is_alpha_invariant() {
        let c1 = contexts("for (int i = 0; i < n; i++) { total += x[i]; }");
        let c2 = contexts("for (int j = 0; j < m; j++) { acc += y[j]; }");
        assert_eq!(c1, c2);
    }

    #[test]
    fn literal_buckets() {
        assert_eq!(normalize_terminals(0), "LIT0");
        assert_eq!(normalize_terminals(1), "LIT1");
        assert_eq!(normalize_terminals(2), "LIT2");
        assert_eq!(normalize_terminals(64), "LITPOW2");
        assert_eq!(normalize_terminals(37), "LITSMALL");
        assert_eq!(normalize_terminals(100000), "LITBIG");
        assert_eq!(normalize_terminals(-5), "LITNEG");
    }

    #[test]
    fn literal_magnitude_does_not_change_small_constants() {
        // 37 and 41 both bucket to LITSMALL → identical path sets.
        let c1 = contexts("for (int i = 0; i < 37; i++) { a[i] = 0; }");
        let c2 = contexts("for (int i = 0; i < 41; i++) { a[i] = 0; }");
        assert_eq!(c1, c2);
    }

    #[test]
    fn operators_are_terminals() {
        let c = contexts("for (int i = 0; i < n; i++) { a[i] = b[i] * c[i]; }");
        assert!(c.iter().any(|p| p.start == "*" || p.end == "*"));
    }

    #[test]
    fn max_paths_caps_output() {
        let src = "for (int i = 0; i < n; i++) { a[i] = b[i]*c[i] + d[i]*e[i] - f[i]; }";
        let stmt = parse_statement(src).unwrap();
        let c = extract_path_contexts(&stmt, 10);
        assert_eq!(c.len(), 10);
        // Subsampling spreads: first and last pairs differ.
        assert_ne!(c.first(), c.last());
    }

    #[test]
    fn selected_pairs_equal_striding_over_the_materialised_list() {
        for n in 0..14 {
            let all: Vec<_> = (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .collect();
            for max_paths in 0..100 {
                let expected: Vec<_> = if all.len() <= max_paths {
                    all.clone()
                } else {
                    let stride = all.len() as f64 / max_paths as f64;
                    (0..max_paths)
                        .map(|k| all[(k as f64 * stride) as usize])
                        .collect()
                };
                let selected: Vec<_> = selected_pairs(n, max_paths).collect();
                assert_eq!(selected, expected, "n {n}, max_paths {max_paths}");
            }
        }
    }

    #[test]
    fn streamed_sample_equals_hashing_the_rendered_contexts() {
        let loops = [
            "for (int i = 0; i < n; i++) { a[i] = b[i]*c[i] + d[i]*e[i] - f[i]; }",
            "for (int i = 0; i < n; i++) for (int j = 0; j < 8; j++) m[i][j] = (int) sqrtf(x[j]);",
            "while (i < n) { if (a[i] > 0) s += a[i]; else break; i++; }",
            "x = 1;",
            ";",
        ];
        for src in loops {
            let stmt = parse_statement(src).unwrap();
            for max_paths in [0, 1, 10, 24, 100, 10_000] {
                let cfg = EmbedConfig {
                    max_paths,
                    ..EmbedConfig::paper()
                };
                let rendered =
                    PathSample::from_contexts(&extract_path_contexts(&stmt, max_paths), &cfg);
                assert_eq!(PathSample::from_stmt(&stmt, &cfg), rendered, "{src}");
            }
        }
    }

    #[test]
    fn variables_are_numbered_past_one_digit() {
        let names: Vec<String> = (0..12).map(|k| format!("x{k} = 0;")).collect();
        let stmt = parse_statement(&format!("{{ {} }}", names.join(" "))).unwrap();
        let c = extract_path_contexts(&stmt, usize::MAX);
        assert!(c.iter().any(|p| p.start == "VAR11"));
        assert!(c.iter().any(|p| p.start == "VAR9" && p.end == "VAR10"));
    }

    #[test]
    fn paths_have_direction_markers() {
        let c = contexts("for (int i = 0; i < n; i++) { a[i] = b[i]; }");
        assert!(c
            .iter()
            .any(|p| p.path.contains('^') && p.path.contains('v')));
    }

    #[test]
    fn casts_and_calls_surface_in_terminals() {
        let c = contexts("for (int i = 0; i < n; i++) { a[i] = (int) sqrtf(b[i]); }");
        assert!(c.iter().any(|p| p.start == "sqrtf" || p.end == "sqrtf"));
        assert!(c.iter().any(|p| p.start == "int" || p.end == "int"));
    }

    #[test]
    fn nested_loops_mention_for_twice_in_paths() {
        let c = contexts("for (int i = 0; i < n; i++) for (int j = 0; j < n; j++) a[j] = i;");
        assert!(c.iter().any(|p| {
            let ups = p.path.matches("For").count();
            ups >= 2
        }));
    }
}
