//! Whole-file loop sampling: source text → one [`PathSample`] per
//! decidable innermost loop.
//!
//! Both inference products — the one-shot
//! `NeuroVectorizer::vectorize_source` and the `nvc-serve` daemon — need
//! the identical pipeline (extract innermost loops, parse each nest *as
//! its text alone would parse*, hash its path contexts) so that their
//! decisions, and the serving layer's cache keys, agree exactly. This
//! module is that single implementation, and it is one pass: the file is
//! lexed once, each nest is parsed from its range of those tokens
//! ([`nvc_frontend::Lexed::tokens_in`]), and the sample is hashed straight off the
//! statement ([`PathSample::from_stmt`]).
//!
//! "As its text alone would parse" is a rule the training environment
//! set and persisted cache keys depend on: a macro `#define`d outside a
//! nest is sampled as the identifier written in the loop (`i < N` → a
//! variable), not as its expansion (`i < 1024` → a literal bucket); a
//! macro defined inside the nest is sampled expanded.

use nvc_frontend::{for_each_loop, FrontendError, Lexer, Parser};

use crate::model::EmbedConfig;
use crate::vocab::PathSample;

/// One decidable innermost loop of a source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSite {
    /// Enclosing function name.
    pub function: String,
    /// 1-based line of the loop header (where a pragma goes).
    pub header_line: u32,
    /// The loop's normalized path-context sample (the model observation
    /// and the serving cache key material).
    pub sample: PathSample,
}

/// Extracts every innermost loop of `source` and embeds its nest into a
/// [`PathSample`]. Loops whose nest does not parse as a statement on its
/// own are skipped (matching the training environment, which also drops
/// them).
///
/// # Errors
///
/// Returns a [`FrontendError`] when `source` itself does not parse.
pub fn extract_loop_samples(
    source: &str,
    cfg: &EmbedConfig,
) -> Result<Vec<LoopSite>, FrontendError> {
    let lexed = Lexer::new(source).lex()?;
    let tu = Parser::new(lexed.tokens()).parse_translation_unit()?;
    let mut sites = Vec::new();
    for_each_loop(&tu, &mut |l| {
        if !l.is_innermost {
            return;
        }
        if let Ok(nest) = Parser::new(&lexed.tokens_in(l.nest_span)).parse_single_statement() {
            sites.push(LoopSite {
                function: l.function.to_string(),
                header_line: l.span.line,
                sample: PathSample::from_stmt(&nest, cfg),
            });
        }
    });
    Ok(sites)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_only_innermost_loops() {
        let src = "float a[64]; float M[8][8];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = 0.0;
    }
    for (int i = 0; i < 8; i++) {
        for (int j = 0; j < 8; j++) {
            M[i][j] = 1.0;
        }
    }
}";
        let sites = extract_loop_samples(src, &EmbedConfig::fast()).unwrap();
        assert_eq!(sites.len(), 2);
        assert!(sites.iter().all(|s| s.function == "f"));
        assert!(sites.iter().all(|s| !s.sample.is_empty()));
        assert_eq!(sites[0].header_line, 3);
        assert_eq!(sites[1].header_line, 7, "inner j-loop header");
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(extract_loop_samples("void f( {{{", &EmbedConfig::fast()).is_err());
    }

    #[test]
    fn loopless_source_yields_no_sites() {
        let sites =
            extract_loop_samples("int x;\nvoid f() { x = 1; }", &EmbedConfig::fast()).unwrap();
        assert!(sites.is_empty());
    }
}
