//! A small self-describing text checkpoint format.
//!
//! The sanctioned offline dependency set includes `serde` but no concrete
//! format crate, so checkpoints use a simple line-oriented format:
//!
//! ```text
//! nvc-nn-checkpoint v1
//! param <name> <rows> <cols>
//! <row of f32 values separated by spaces>
//! …
//! ```
//!
//! Values round-trip exactly via hexadecimal bit patterns.

use std::fmt::Write as _;

use nvc_obs::Fnv1a;

use crate::params::ParamStore;
use crate::tensor::Tensor;

/// Serializes every parameter of `store` to the checkpoint format.
pub fn to_string(store: &ParamStore) -> String {
    let mut out = String::from("nvc-nn-checkpoint v1\n");
    for (_, name, t) in store.iter() {
        let _ = writeln!(out, "param {} {} {}", name, t.rows(), t.cols());
        for r in 0..t.rows() {
            let row = t.row(r);
            let mut line = String::with_capacity(row.len() * 9);
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    line.push(' ');
                }
                let _ = write!(line, "{:08x}", v.to_bits());
            }
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

fn hash_entries(entries: &mut Vec<(&str, &Tensor)>) -> u64 {
    // Sorting by name makes the hash a function of checkpoint *content*,
    // not of the order parameters happened to be registered in — two
    // stores holding the same tensors under the same names hash equal.
    entries.sort_by(|a, b| a.0.cmp(b.0));
    let mut h = Fnv1a::new();
    for (name, t) in entries.iter() {
        h.write(name.as_bytes());
        h.write(&[0]);
        h.write_u64(t.rows() as u64);
        h.write_u64(t.cols() as u64);
        for v in t.data() {
            h.write(&v.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

/// Content hash of every parameter in `store`: name, shape, and exact
/// f32 bit patterns, independent of parameter insertion order.
///
/// This is the version key of the serving tier's persistent decision
/// cache: a cache snapshot taken under one checkpoint must not be served
/// under another, and [`checkpoint_hash_text`] of
/// [`to_string`]`(store)` equals `checkpoint_hash(store)`, so the daemon
/// can hash a checkpoint file without a matching [`ParamStore`].
pub fn checkpoint_hash(store: &ParamStore) -> u64 {
    let mut entries: Vec<(&str, &Tensor)> = store.iter().map(|(_, n, t)| (n, t)).collect();
    hash_entries(&mut entries)
}

/// [`checkpoint_hash`] computed from checkpoint text instead of a live
/// store.
///
/// # Errors
///
/// Returns [`ParseCheckpointError`] when the text is not a valid
/// checkpoint.
pub fn checkpoint_hash_text(text: &str) -> Result<u64, ParseCheckpointError> {
    let parsed = parse(text)?;
    let mut entries: Vec<(&str, &Tensor)> = parsed.iter().map(|(n, t)| (n.as_str(), t)).collect();
    Ok(hash_entries(&mut entries))
}

/// Errors from parsing a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCheckpointError {
    message: String,
    line: usize,
}

impl std::fmt::Display for ParseCheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseCheckpointError {}

fn err(message: impl Into<String>, line: usize) -> ParseCheckpointError {
    ParseCheckpointError {
        message: message.into(),
        line,
    }
}

/// Parses a checkpoint back into `(name, tensor)` pairs.
///
/// # Errors
///
/// Returns [`ParseCheckpointError`] on any structural or numeric problem.
pub fn parse(text: &str) -> Result<Vec<(String, Tensor)>, ParseCheckpointError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err("empty checkpoint", 1))?;
    if header.trim() != "nvc-nn-checkpoint v1" {
        return Err(err("bad header", 1));
    }
    let mut out = Vec::new();
    while let Some((ln, line)) = lines.next() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        if parts.next() != Some("param") {
            return Err(err("expected `param`", ln + 1));
        }
        let name = parts
            .next()
            .ok_or_else(|| err("missing name", ln + 1))?
            .to_string();
        let rows: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err("bad rows", ln + 1))?;
        let cols: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err("bad cols", ln + 1))?;
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows {
            let (rln, row) = lines
                .next()
                .ok_or_else(|| err("unexpected end of tensor", ln + 1))?;
            for tok in row.split_whitespace() {
                let bits = u32::from_str_radix(tok, 16)
                    .map_err(|_| err(format!("bad value `{tok}`"), rln + 1))?;
                data.push(f32::from_bits(bits));
            }
        }
        if data.len() != rows * cols {
            return Err(err("tensor size mismatch", ln + 1));
        }
        out.push((name, Tensor::from_vec(rows, cols, data)));
    }
    Ok(out)
}

/// Loads checkpoint values into `store`, matching parameters by name.
///
/// # Errors
///
/// Returns an error when a checkpoint entry has no matching parameter or
/// the shapes differ.
pub fn load_into(store: &mut ParamStore, text: &str) -> Result<(), ParseCheckpointError> {
    let entries = parse(text)?;
    for (name, tensor) in entries {
        let id = store
            .iter()
            .find(|(_, n, _)| *n == name)
            .map(|(id, _, _)| id)
            .ok_or_else(|| err(format!("no parameter named `{name}`"), 0))?;
        if store.get(id).shape() != tensor.shape() {
            return Err(err(format!("shape mismatch for `{name}`"), 0));
        }
        *store.get_mut(id) = tensor;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_exact() {
        let mut s = ParamStore::new(11);
        s.param_xavier("enc.w", 7, 5);
        s.param(
            "enc.b",
            Tensor::from_vec(1, 3, vec![0.1, -2.5e-8, f32::MIN_POSITIVE]),
        );
        let text = to_string(&s);

        let mut s2 = ParamStore::new(0);
        let w = s2.param("enc.w", Tensor::zeros(7, 5));
        let b = s2.param("enc.b", Tensor::zeros(1, 3));
        load_into(&mut s2, &text).unwrap();
        assert_eq!(s2.get(w).data(), s.iter().next().unwrap().2.data());
        assert_eq!(s2.get(b).data()[2], f32::MIN_POSITIVE);
    }

    #[test]
    fn parse_rejects_bad_header() {
        assert!(parse("garbage\n").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn parse_rejects_truncated_tensor() {
        let text = "nvc-nn-checkpoint v1\nparam w 2 2\n3f800000 3f800000\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn load_rejects_shape_mismatch() {
        let mut s = ParamStore::new(0);
        s.param("w", Tensor::zeros(1, 2));
        let text = "nvc-nn-checkpoint v1\nparam w 2 2\n3f800000 3f800000\n3f800000 3f800000\n";
        assert!(load_into(&mut s, text).is_err());
    }

    #[test]
    fn load_rejects_unknown_param() {
        let mut s = ParamStore::new(0);
        s.param("other", Tensor::zeros(1, 1));
        let text = "nvc-nn-checkpoint v1\nparam w 1 1\n3f800000\n";
        assert!(load_into(&mut s, text).is_err());
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let mut s = ParamStore::new(4);
        s.param("a", Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        s.param("b", Tensor::from_vec(2, 1, vec![3.0, 4.0]));
        let h = checkpoint_hash(&s);
        assert_eq!(h, checkpoint_hash(&s), "hash must be deterministic");
        assert_eq!(
            checkpoint_hash_text(&to_string(&s)).unwrap(),
            h,
            "text hash must agree with the live-store hash"
        );
        // Any content change moves the hash: a value bit, a name, a shape.
        let mut s2 = s.clone();
        s2.get_mut(ParamId(0)).data_mut()[0] = 1.0 + f32::EPSILON;
        assert_ne!(checkpoint_hash(&s2), h);
        let mut s3 = ParamStore::new(4);
        s3.param("a", Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        s3.param("c", Tensor::from_vec(2, 1, vec![3.0, 4.0]));
        assert_ne!(checkpoint_hash(&s3), h, "renamed parameter must rehash");
        let mut s4 = ParamStore::new(4);
        s4.param("a", Tensor::from_vec(2, 1, vec![1.0, 2.0]));
        s4.param("b", Tensor::from_vec(2, 1, vec![3.0, 4.0]));
        assert_ne!(checkpoint_hash(&s4), h, "reshaped parameter must rehash");
    }

    #[test]
    fn hash_text_rejects_garbage() {
        assert!(checkpoint_hash_text("not a checkpoint").is_err());
    }

    use crate::params::ParamId;
    use proptest::prelude::*;

    /// Bit patterns that exercise every special f32 class: ±0, NaN
    /// (quiet and signalling payloads), ±∞, subnormals, and ordinary
    /// values — plus an arbitrary pattern drawn from the case seed.
    fn f32_from_case(class: u8, bits: u32) -> f32 {
        f32::from_bits(match class % 8 {
            0 => 0x0000_0000,                        // +0
            1 => 0x8000_0000,                        // -0
            2 => 0x7FC0_0001,                        // quiet NaN with payload
            3 => 0x7F80_0001,                        // signalling NaN
            4 => 0x7F80_0000 | (bits & 0x8000_0000), // ±∞
            5 => bits & 0x007F_FFFF | 1,             // subnormal
            6 => 0x0000_0001,                        // smallest subnormal
            _ => bits,                               // anything
        })
    }

    proptest! {
        /// `to_string` → `parse` → `load_into` reproduces every f32 bit
        /// pattern exactly, for random shapes and value classes
        /// including NaN/∞/subnormals (bitwise: NaNs compare by bits,
        /// not by `==`).
        #[test]
        fn prop_roundtrip_is_bitwise(
            rows in 1usize..7,
            cols in 1usize..9,
            seed in 0u64..10_000
        ) {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state
            };
            let data: Vec<f32> = (0..rows * cols)
                .map(|_| {
                    let r = next();
                    f32_from_case((r >> 32) as u8, r as u32)
                })
                .collect();
            let mut s = ParamStore::new(0);
            s.param("w", Tensor::from_vec(rows, cols, data.clone()));
            s.param("tail", Tensor::from_vec(1, 1, vec![f32_from_case((seed >> 8) as u8, seed as u32)]));

            let text = to_string(&s);
            let mut s2 = ParamStore::new(1);
            let w2 = s2.param("w", Tensor::zeros(rows, cols));
            s2.param("tail", Tensor::zeros(1, 1));
            load_into(&mut s2, &text).unwrap();
            let round: Vec<u32> = s2.get(w2).data().iter().map(|v| v.to_bits()).collect();
            let orig: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(round, orig);
            // The hash is bit-pattern faithful too: hashing the text
            // equals hashing the store even through NaN payloads.
            prop_assert_eq!(checkpoint_hash_text(&text).unwrap(), checkpoint_hash(&s));
        }

        /// Registering the same `(name, tensor)` set in any order yields
        /// the same checkpoint hash.
        #[test]
        fn prop_hash_ignores_insertion_order(
            n in 2usize..6,
            rotate in 1usize..5,
            seed in 0u64..10_000
        ) {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state
            };
            let tensors: Vec<(String, Tensor)> = (0..n)
                .map(|i| {
                    let rows = 1 + (next() as usize) % 4;
                    let cols = 1 + (next() as usize) % 4;
                    let data = (0..rows * cols)
                        .map(|_| {
                            let r = next();
                            f32_from_case((r >> 32) as u8, r as u32)
                        })
                        .collect();
                    (format!("p{i}"), Tensor::from_vec(rows, cols, data))
                })
                .collect();
            let mut fwd = ParamStore::new(0);
            for (name, t) in &tensors {
                fwd.param(name.clone(), t.clone());
            }
            let mut rot = ParamStore::new(0);
            for i in 0..n {
                let (name, t) = &tensors[(i + rotate) % n];
                rot.param(name.clone(), t.clone());
            }
            prop_assert_eq!(checkpoint_hash(&fwd), checkpoint_hash(&rot));
        }
    }
}
