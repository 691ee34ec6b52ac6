//! Pragma injection — how the agent communicates its decision to the
//! compiler.
//!
//! Figure 4 of the paper shows the agent automatically inserting
//! `#pragma clang loop vectorize_width(VF) interleave_count(IF)` directly
//! above the targeted (innermost) loop. We reproduce that as a *text splice*:
//! the original file is preserved byte-for-byte except for the inserted
//! pragma text, exactly like the paper's framework edits source files.
//!
//! The splice rule: a loop whose keyword begins its line gets the pragma
//! on its own line above it, with the line's indentation, replacing a
//! `#pragma clang loop` line already there. A loop that starts mid-line
//! (`{ for (…) a[i] = 0; for (…) b[j] = 1; }`, or the inner loop of
//! `for (…) for (…)` on one line) has its line broken before the keyword:
//! the pragma goes between the two halves, each of the new lines indented
//! like the original one. A pragma is a whole-line directive, so anywhere
//! else it would bind to the wrong statement, or to none.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::ast::LoopPragma;

/// Room reserved per site: the longest pragma line the action space
/// writes, its newlines and some indentation.
const PRAGMA_ROOM: usize = 96;

/// Injects a pragma at each `(header_line, header_col, pragma)` site in
/// one pass, where line and column (1-based, the column in bytes) are
/// those of the loop's keyword, as [`Span`](crate::Span) gives them. A
/// column of 0, or one inside the line's indentation, means the loop
/// begins its line. The input order does not matter; when two sites name
/// the same position, the later one wins. A line past the end of
/// `source` gets its pragma appended after the last line.
pub fn inject_pragmas_at(source: &str, sites: &[(u32, u32, LoopPragma)]) -> String {
    let position = |s: &(u32, u32, LoopPragma)| (s.0, s.1);
    let ordered: Cow<'_, [(u32, u32, LoopPragma)]> =
        if sites.windows(2).all(|w| position(&w[0]) <= position(&w[1])) {
            Cow::Borrowed(sites)
        } else {
            let mut sorted = sites.to_vec();
            sorted.sort_by_key(position);
            Cow::Owned(sorted)
        };
    let mut out = String::with_capacity(source.len() + sites.len() * PRAGMA_ROOM);
    // `source[..copied]` is in `out`; `line_start` is where line `line`
    // begins.
    let (mut copied, mut line, mut line_start) = (0, 1, 0);
    for (i, site) in ordered.iter().enumerate() {
        let &(header_line, header_col, pragma) = site;
        if ordered.get(i + 1).map(position) == Some(position(site)) {
            continue;
        }
        while line < header_line {
            let Some(nl) = source[line_start..].find('\n') else {
                break;
            };
            line_start += nl + 1;
            line += 1;
        }
        if line < header_line {
            out.push_str(&source[copied..]);
            copied = source.len();
            let _ = write!(out, "\n{pragma}");
            continue;
        }
        let line_end = source[line_start..]
            .find('\n')
            .map_or(source.len(), |n| line_start + n);
        let text = &source[line_start..line_end];
        let indent = &text[..text.len() - text.trim_start().len()];
        let mut keyword = (line_start + header_col.saturating_sub(1) as usize).min(line_end);
        while !source.is_char_boundary(keyword) {
            keyword += 1;
        }
        if keyword <= line_start + indent.len() {
            out.push_str(&source[copied..line_start]);
            copied = line_start;
            drop_hint_above(&mut out);
            let _ = writeln!(out, "{indent}{pragma}");
        } else {
            out.push_str(&source[copied..keyword]);
            copied = keyword;
            let _ = write!(out, "\n{indent}{pragma}\n{indent}");
        }
    }
    out.push_str(&source[copied..]);
    out
}

/// Removes the last line of `out` — which ends with the newline before
/// a loop's line — when it is a `#pragma clang loop` hint, so repeated
/// injection is idempotent rather than accumulating stale hints.
fn drop_hint_above(out: &mut String) {
    let Some(above) = out.strip_suffix('\n') else {
        return;
    };
    let start = above.rfind('\n').map_or(0, |n| n + 1);
    if above[start..]
        .trim_start()
        .starts_with("#pragma clang loop")
    {
        out.truncate(start);
    }
}

/// [`inject_pragmas_at`] for loops that begin their line: a pragma above
/// each `(header_line, pragma)` site, indented like that line.
pub fn inject_pragmas(source: &str, sites: &[(u32, LoopPragma)]) -> String {
    let sites: Vec<(u32, u32, LoopPragma)> = sites.iter().map(|&(l, p)| (l, 0, p)).collect();
    inject_pragmas_at(source, &sites)
}

/// Removes every `#pragma clang loop` line from `source`.
///
/// Used to obtain the baseline variant of a file (the compiler's own cost
/// model decides) from an agent-annotated variant.
pub fn strip_pragmas(source: &str) -> String {
    source
        .split('\n')
        .filter(|l| !l.trim_start().starts_with("#pragma clang loop"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_loops;
    use crate::parse_translation_unit;

    const SRC: &str = "int a[64]; int b[64];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] * 2;
    }
}";

    fn pragma(vf: u32, ifc: u32) -> LoopPragma {
        LoopPragma {
            vectorize_width: vf,
            interleave_count: ifc,
        }
    }

    /// The splice this module made before it made one pass: one site,
    /// line by line, bottom-up over a site list. The oracle for loops
    /// that begin their line.
    fn splice_line_by_line(source: &str, header_line: u32, pragma: LoopPragma) -> String {
        let lines: Vec<&str> = source.split('\n').collect();
        let idx = (header_line as usize).saturating_sub(1).min(lines.len());
        let indent: String = lines
            .get(idx)
            .map(|l| l.chars().take_while(|c| c.is_whitespace()).collect())
            .unwrap_or_default();
        let mut out: Vec<String> = Vec::with_capacity(lines.len() + 1);
        for (i, line) in lines.iter().enumerate() {
            if i == idx {
                if out
                    .last()
                    .is_some_and(|p| p.trim_start().starts_with("#pragma clang loop"))
                {
                    out.pop();
                }
                out.push(format!("{indent}{pragma}"));
            }
            out.push((*line).to_string());
        }
        if idx == lines.len() {
            out.push(format!("{indent}{pragma}"));
        }
        out.join("\n")
    }

    /// Each innermost loop of `src` with `pragma(8 << k, 1 << k)` for the
    /// k-th, at its keyword's line and column.
    fn innermost_sites(src: &str) -> Vec<(u32, u32, LoopPragma)> {
        let tu = parse_translation_unit(src).unwrap();
        extract_loops(&tu, src)
            .iter()
            .filter(|l| l.is_innermost)
            .enumerate()
            .map(|(k, l)| (l.span.line, l.span.col, pragma(8 << k, 1 << k)))
            .collect()
    }

    /// `inject_pragmas_at` over every innermost loop of `src`; the result
    /// re-parses and each innermost loop carries its own pragma.
    fn assert_each_loop_gets_its_pragma(src: &str) -> String {
        let sites = innermost_sites(src);
        let out = inject_pragmas_at(src, &sites);
        let tu = parse_translation_unit(&out)
            .unwrap_or_else(|e| panic!("{e} in the spliced source:\n{out}"));
        let got: Vec<Option<LoopPragma>> = extract_loops(&tu, &out)
            .iter()
            .filter(|l| l.is_innermost)
            .map(|l| l.pragma)
            .collect();
        let want: Vec<Option<LoopPragma>> = sites.iter().map(|s| Some(s.2)).collect();
        assert_eq!(got, want, "in the spliced source:\n{out}");
        out
    }

    #[test]
    fn inject_places_pragma_above_loop_with_indent() {
        let tu = parse_translation_unit(SRC).unwrap();
        let loops = extract_loops(&tu, SRC);
        let out = inject_pragmas(SRC, &[(loops[0].header_line, pragma(8, 4))]);
        let lines: Vec<&str> = out.split('\n').collect();
        assert_eq!(
            lines[2],
            "    #pragma clang loop vectorize_width(8) interleave_count(4)"
        );
        assert!(lines[3].trim_start().starts_with("for (int i"));
    }

    #[test]
    fn injected_source_reparses_with_pragma() {
        let out = assert_each_loop_gets_its_pragma(SRC);
        assert_eq!(out.matches("#pragma clang loop").count(), 1);
    }

    #[test]
    fn reinjection_replaces_existing_pragma() {
        let tu = parse_translation_unit(SRC).unwrap();
        let loops = extract_loops(&tu, SRC);
        let once = inject_pragmas(SRC, &[(loops[0].header_line, pragma(4, 1))]);
        // After the first injection the header moved one line down.
        let tu2 = parse_translation_unit(&once).unwrap();
        let loops2 = extract_loops(&tu2, &once);
        let twice = inject_pragmas(&once, &[(loops2[0].header_line, pragma(64, 8))]);
        assert_eq!(twice.matches("#pragma clang loop").count(), 1);
        assert!(twice.contains("vectorize_width(64)"));
        assert!(!twice.contains("vectorize_width(4)"));
    }

    #[test]
    fn strip_removes_all_loop_pragmas() {
        let tu = parse_translation_unit(SRC).unwrap();
        let loops = extract_loops(&tu, SRC);
        let out = inject_pragmas(SRC, &[(loops[0].header_line, pragma(8, 4))]);
        let stripped = strip_pragmas(&out);
        assert_eq!(stripped, SRC);
    }

    #[test]
    fn inject_at_nested_innermost() {
        let src = "float A[64][64];
void f(int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            A[i][j] = 0;
        }
    }
}";
        let out = assert_each_loop_gets_its_pragma(src);
        let lines: Vec<&str> = out.split('\n').collect();
        assert!(lines[3].trim_start().starts_with("#pragma clang loop"));
        assert!(lines[4].trim_start().starts_with("for (int j"));
        // Outer loop untouched.
        assert!(lines[2].trim_start().starts_with("for (int i"));
    }

    #[test]
    fn inject_past_end_appends() {
        let out = inject_pragmas("int x;", &[(99, pragma(2, 1))]);
        assert_eq!(
            out,
            "int x;\n#pragma clang loop vectorize_width(2) interleave_count(1)"
        );
    }

    #[test]
    fn non_loop_pragmas_survive_strip() {
        let src = "#pragma once\nint x;";
        assert_eq!(strip_pragmas(src), src);
    }

    #[test]
    fn a_loop_that_starts_mid_line_gets_its_line_broken() {
        let src = "int a[64]; int b[64];\n  void f(int n) { for (int i = 0; i < n; i++) a[i] = 0; \
                   for (int j = 0; j < n; j++) b[j] = 1; }";
        let out = assert_each_loop_gets_its_pragma(src);
        assert_eq!(
            out,
            "int a[64]; int b[64];\n  void f(int n) { \n  \
             #pragma clang loop vectorize_width(8) interleave_count(1)\n  \
             for (int i = 0; i < n; i++) a[i] = 0; \n  \
             #pragma clang loop vectorize_width(16) interleave_count(2)\n  \
             for (int j = 0; j < n; j++) b[j] = 1; }"
        );
        assert_eq!(
            strip_pragmas(&out).replace("\n  ", ""),
            src.replace("\n  ", "")
        );
    }

    #[test]
    fn the_inner_loop_of_a_one_line_nest_gets_the_pragma() {
        assert_each_loop_gets_its_pragma(
            "float A[8][8];\nvoid f() { int i; int j;\n    for (i = 0; i < 8; i++) for (j = 0; j < 8; j++) A[i][j] = 0;\n}",
        );
        // Beside a loop that begins its line, and under an outer loop's
        // existing hint, which stays.
        let out = assert_each_loop_gets_its_pragma(
            "float A[8][8]; float b[8];\nvoid f() { int i; int j;\n    for (i = 0; i < 8; i++) b[i] = 0;\n\
             #pragma clang loop vectorize_width(2) interleave_count(1)\n\
             for (i = 0; i < 8; i++) for (j = 0; j < 8; j++) A[i][j] = 0;\n}",
        );
        assert!(out.contains("vectorize_width(2)"), "{out}");
    }

    #[test]
    fn sites_in_any_order_and_repeated_positions() {
        let src = "float A[8][8]; float b[8];
void f() { int i; int j;
    for (i = 0; i < 8; i++) { b[i] = 0; }
    for (i = 0; i < 8; i++) for (j = 0; j < 8; j++) { A[i][j] = 0; }
}";
        let sites = innermost_sites(src);
        let reversed: Vec<_> = sites.iter().rev().copied().collect();
        assert_eq!(
            inject_pragmas_at(src, &reversed),
            inject_pragmas_at(src, &sites)
        );
        // The later of two sites at one position wins, in either form.
        let (line, col, _) = sites[1];
        let twice = [(line, col, pragma(2, 1)), (line, col, pragma(4, 4))];
        let out = inject_pragmas_at(src, &twice);
        assert_eq!(out.matches("#pragma").count(), 1);
        assert!(out.contains("vectorize_width(4) interleave_count(4)"));
        let twice = [(3, pragma(2, 1)), (3, pragma(4, 4))];
        assert_eq!(
            inject_pragmas(src, &twice),
            inject_pragmas(src, &twice[1..])
        );
    }

    /// For loops that begin their line the one pass writes what splicing
    /// site by site, bottom-up, wrote: nested, tab- and space-indented,
    /// with a hint already in the file, and at line 0 and past the end.
    #[test]
    fn one_pass_matches_the_line_by_line_splice() {
        let mut sources: Vec<String> = vec![SRC.to_string(), "int x;\n".to_string()];
        sources.extend(begin_line_sources());
        for src in &sources {
            let lines = src.split('\n').count() as u32;
            let mut sites: Vec<(u32, LoopPragma)> = Vec::new();
            if let Ok(tu) = parse_translation_unit(src) {
                for (k, l) in extract_loops(&tu, src).iter().enumerate() {
                    sites.push((l.header_line, pragma(2 << (k % 5), 1 << (k % 4))));
                }
            }
            sites.push((0, pragma(1, 1)));
            sites.push((lines + 3, pragma(4, 2)));
            let mut expected = src.clone();
            let mut bottom_up = sites.clone();
            bottom_up.sort_by_key(|s| std::cmp::Reverse(s.0));
            for &(line, p) in &bottom_up {
                expected = splice_line_by_line(&expected, line, p);
            }
            assert_eq!(inject_pragmas(src, &sites), expected, "on:\n{src}");
        }
    }

    /// Sources with loops that begin their lines, nested, indented by
    /// tabs and spaces, with and without braces.
    fn begin_line_sources() -> Vec<String> {
        vec![
            "float A[64][64];\nvoid f(int n) {\n\tfor (int i = 0; i < n; i++)\n\t\tfor (int j = 0; j < n; j++)\n\t\t\tA[i][j] = 0;\n}\n".to_string(),
            "int a[8];\nvoid f() {\n#pragma clang loop vectorize_width(4) interleave_count(2)\n  for (int i = 0; i < 8; i++) { a[i] = i; }\n  while (a[0] < 3) { a[0]++; }\n}".to_string(),
            "\n\nvoid g(int n) {\n    int s = 0;\n    for (int i = 0; i < n; i++) {\n        s += i;\n    }\n}\n\n".to_string(),
        ]
    }
}
