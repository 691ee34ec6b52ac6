//! The decision-store image: the persistent cache snapshot, and the
//! gossip payload a joining peer pulls with `cache_export`.
//!
//! A hub restart or a new node should not re-pay every embedding + policy
//! forward a warm process already did — but it also must never serve a
//! cached decision computed by a *different* checkpoint. Each model's
//! section is therefore stamped with the owning checkpoint's content hash
//! (`nvc_nn::serialize::checkpoint_hash`). `Hub::absorb` admits a parsed
//! image, from disk or from a peer, by one rule: a matching hash restores
//! the entries through that model, any other keeps them under their own
//! hash (counted in the named model's `entries_invalidated_by_version`),
//! and an index outside the action space discards the section. Text from
//! a peer is outside input, so [`parse`] accepts exactly what
//! [`to_string`] writes.
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
/// partial copy) restores nothing rather than restoring garbage. The
/// text may come from a peer, so only the tokens [`to_string`] writes
/// are accepted: 16 lowercase hex digits for a hash or key, a plain
/// decimal for a count or index, nothing after a line's last token, and
/// each model name once.
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
    let mut names = std::collections::HashSet::new();
    for (ln, line) in lines {
        let ln = ln + 1;
        let mut parts = line.split_whitespace();
        let Some(first) = parts.next() else {
            continue;
        };
        let mut field = |what: &str| {
            parts
                .next()
                .ok_or_else(|| err(format!("missing {what}"), ln))
        };
        if first == "model" {
            let model = field("model name")?;
            let checkpoint_hash =
                hex(field("checkpoint hash")?).ok_or_else(|| err("bad checkpoint hash", ln))?;
            let count = decimal(field("entry count")?).ok_or_else(|| err("bad entry count", ln))?;
            if !names.insert(model) {
                return Err(err(format!("second section for model `{model}`"), ln));
            }
            declared.push((count, ln));
            out.push(CacheSection {
                model: model.to_string(),
                checkpoint_hash,
                entries: Vec::new(),
            });
        } else {
            let key = hex(first).ok_or_else(|| err(format!("bad key `{first}`"), ln))?;
            let vf = decimal(field("vf index")?).ok_or_else(|| err("bad vf index", ln))?;
            let if_ = decimal(field("if index")?).ok_or_else(|| err("bad if index", ln))?;
            out.last_mut()
                .ok_or_else(|| err("entry before any `model` header", ln))?
                .entries
                .push((key, (vf, if_)));
        }
        if parts.next().is_some() {
            return Err(err("trailing tokens", ln));
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

/// A `{:016x}` token: exactly 16 lowercase hex digits.
fn hex(token: &str) -> Option<u64> {
    let digits = token
        .bytes()
        .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    (token.len() == 16 && digits)
        .then(|| u64::from_str_radix(token, 16).ok())
        .flatten()
}

/// A `{}` of a `usize`: decimal digits, no sign, no leading zero.
fn decimal(token: &str) -> Option<usize> {
    let digits = token.bytes().all(|b| b.is_ascii_digit());
    (digits && (token == "0" || !token.starts_with('0')))
        .then(|| token.parse().ok())
        .flatten()
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
        // Only the tokens `to_string` writes: no trailing token, no sign,
        // no other width or case of hex, no leading zero, no fraction or
        // exponent, each model once.
        let m = "model m 0000000000000007 1";
        let key = "00000000000000ff";
        for bad in [
            format!("{m} extra\n{key} 1 2"),
            format!("{m}\n{key} 1 2 3"),
            format!("{m}\n{key} -1 2"),
            format!("{m}\n{key} +1 2"),
            format!("{m}\n{key} 2.7 2"),
            format!("{m}\n{key} 1e99 2"),
            format!("{m}\n{key} 01 2"),
            format!("{m}\n{key} 1 99999999999999999999999"),
            format!("{m}\nff 1 2"),
            format!("{m}\n00000000000000FF 1 2"),
            format!("{m}\n+0000000000000ff 1 2"),
            "model m 7 0".to_string(),
            "model m 0000000000000007 +0".to_string(),
            "model m 0000000000000007".to_string(),
            format!("{m}\n{key} 1 2\n{m}\n{key} 1 2"),
            format!("model m 0000000000000007 0\n{m}\n{key} 1 2"),
        ] {
            let text = format!("nvc-hub-cache v1\n{bad}\n");
            assert!(parse(&text).is_err(), "accepted {bad:?}");
        }
        let good = format!("nvc-hub-cache v1\n{m}\n{key} 1 2\n");
        assert_eq!(to_string(&parse(&good).unwrap()), good);
    }

    #[test]
    fn empty_section_list_roundtrips() {
        assert_eq!(parse(&to_string(&[])).unwrap(), vec![]);
    }

    /// Up to `max` bytes that spell snapshots, or nearly: the tokens'
    /// own characters, their separators and a few that have no place.
    fn snapshot_bytes(rng: &mut proptest::TestRng, max: u64) -> Vec<u8> {
        const ALPHABET: &[u8] = b"0123456789abcdefABCDEF model nvc-hub-cache v1\n\n\r\t+-.e\xff";
        let len = rng.next_u64() % (max + 1);
        (0..len)
            .map(|_| ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize])
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// Whatever the bytes — random, or a valid snapshot with a few
        /// bytes replaced, inserted or deleted — `parse` returns, and what
        /// it accepts renders back to text that parses to the same
        /// sections.
        #[test]
        fn parse_is_total(seed in 0u64..u64::MAX, mutations in 0usize..6) {
            let mut rng = proptest::TestRng::for_test(&seed.to_string());
            let mut bytes = if seed % 4 == 0 {
                snapshot_bytes(&mut rng, 200)
            } else {
                let sections: Vec<CacheSection> = (0..rng.next_u64() % 4)
                    .map(|i| CacheSection {
                        model: format!("m{i}"),
                        checkpoint_hash: rng.next_u64(),
                        entries: (0..rng.next_u64() % 5)
                            .map(|_| {
                                let r = rng.next_u64();
                                (rng.next_u64(), ((r % 9) as usize, (r >> 8) as usize % 5))
                            })
                            .collect(),
                    })
                    .collect();
                to_string(&sections).into_bytes()
            };
            for _ in 0..mutations {
                let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
                let with = snapshot_bytes(&mut rng, 2);
                match rng.next_u64() % 3 {
                    0 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    1 if at < bytes.len() && !with.is_empty() => bytes[at] = with[0],
                    _ => bytes.splice(at..at, with).for_each(drop),
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(sections) = parse(&text) {
                proptest::prop_assert_eq!(parse(&to_string(&sections)), Ok(sections));
            }
        }
    }
}
