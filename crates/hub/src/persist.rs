//! The persistent decision-cache snapshot format.
//!
//! A hub restart should not re-pay every embedding + policy forward the
//! previous process already did — but it also must never serve a cached
//! decision computed by a *different* checkpoint. Each model's cache
//! section is therefore stamped with the owning checkpoint's content
//! hash (`nvc_nn::serialize::checkpoint_hash`): on restore, a matching
//! hash readmits the entries, a mismatch discards them (counted in
//! `entries_invalidated_by_version`).
//!
//! The format is line-oriented text, like the `nvc-nn` checkpoint
//! format (the offline dependency set has no binary serializer):
//!
//! ```text
//! nvc-hub-cache v1
//! model <name> <checkpoint_hash:016x> <n_entries>
//! <sample_key:016x> <vf_idx> <if_idx>
//! …
//! ```
//!
//! A section is one model's view of the hub's decision store — its
//! entries under its checkpoint hash, coldest first per shard (the order
//! `ContentStore::entries_for` produces) — so a restore reproduces the
//! original eviction order.

use std::fmt::Write as _;

/// One model's entries in the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSection {
    /// Registry name the cache belonged to.
    pub model: String,
    /// Hash of the checkpoint that computed these decisions.
    pub checkpoint_hash: u64,
    /// `(sample_key, (vf_idx, if_idx))`, coldest first.
    pub entries: Vec<(u64, (usize, usize))>,
}

/// Errors from parsing a snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    message: String,
    line: usize,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cache snapshot line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SnapshotError {}

fn err(message: impl Into<String>, line: usize) -> SnapshotError {
    SnapshotError {
        message: message.into(),
        line,
    }
}

/// Renders `sections` to the snapshot text format.
pub fn to_string(sections: &[CacheSection]) -> String {
    let mut out = String::from("nvc-hub-cache v1\n");
    for s in sections {
        let _ = writeln!(
            out,
            "model {} {:016x} {}",
            s.model,
            s.checkpoint_hash,
            s.entries.len()
        );
        for (key, (vf, if_)) in &s.entries {
            let _ = writeln!(out, "{key:016x} {vf} {if_}");
        }
    }
    out
}

/// Parses a snapshot produced by [`to_string`], verifying each
/// section's declared entry count — a truncated file (crashed writer,
/// partial copy) restores nothing rather than restoring garbage.
///
/// # Errors
///
/// Returns [`SnapshotError`] on any structural problem or count
/// mismatch.
pub fn parse(text: &str) -> Result<Vec<CacheSection>, SnapshotError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err("empty snapshot", 1))?;
    if header.trim() != "nvc-hub-cache v1" {
        return Err(err("bad header", 1));
    }
    let mut out: Vec<CacheSection> = Vec::new();
    // (declared entry count, header line) of each parsed section.
    let mut declared: Vec<(usize, usize)> = Vec::new();
    for (ln, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let first = parts.next().expect("non-empty line has a first token");
        if first == "model" {
            let model = parts
                .next()
                .ok_or_else(|| err("missing model name", ln + 1))?
                .to_string();
            let checkpoint_hash = parts
                .next()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| err("bad checkpoint hash", ln + 1))?;
            let count: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("bad entry count", ln + 1))?;
            declared.push((count, ln + 1));
            out.push(CacheSection {
                model,
                checkpoint_hash,
                entries: Vec::new(),
            });
        } else {
            let section = out
                .last_mut()
                .ok_or_else(|| err("entry before any `model` header", ln + 1))?;
            let key = u64::from_str_radix(first, 16)
                .map_err(|_| err(format!("bad key `{first}`"), ln + 1))?;
            let vf: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("bad vf index", ln + 1))?;
            let if_: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("bad if index", ln + 1))?;
            section.entries.push((key, (vf, if_)));
        }
    }
    for (section, (count, ln)) in out.iter().zip(&declared) {
        if section.entries.len() != *count {
            return Err(err(
                format!(
                    "section `{}` declares {count} entries, found {}",
                    section.model,
                    section.entries.len()
                ),
                *ln,
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sections() -> Vec<CacheSection> {
        vec![
            CacheSection {
                model: "prod".into(),
                checkpoint_hash: 0xDEAD_BEEF_0123_4567,
                entries: vec![(0x1, (2, 3)), (u64::MAX, (0, 0))],
            },
            CacheSection {
                model: "canary".into(),
                checkpoint_hash: 7,
                entries: vec![],
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let sections = sample_sections();
        let text = to_string(&sections);
        assert_eq!(parse(&text).unwrap(), sections);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(parse("").is_err());
        assert!(parse("who knows\n").is_err());
        assert!(
            parse("nvc-hub-cache v1\n0123 1 2\n").is_err(),
            "entry before header"
        );
        assert!(
            parse("nvc-hub-cache v1\nmodel m zz 1\n").is_err(),
            "bad hash"
        );
        let text = to_string(&sample_sections());
        // Drop the last entry line: declared counts no longer match.
        let truncated: String = text.lines().collect::<Vec<_>>()[..3].join("\n");
        assert!(parse(&truncated).is_err(), "truncation must fail");
    }

    #[test]
    fn empty_section_list_roundtrips() {
        assert_eq!(parse(&to_string(&[])).unwrap(), vec![]);
    }
}
