//! Runtime parameter bindings and per-array shape information.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::types::ScalarType;

/// Runtime values for function parameters and array-size estimates.
///
/// The paper's framework compiles a program and *runs* it; loop bounds that
/// are function parameters (`for (i = 0; i < N; i++)`) are unknown to the
/// compiler but have concrete values at run time. A [`ParamEnv`] carries
/// those concrete values so the performance model can execute the loop,
/// while the IR still records the bound as [`crate::TripCount::Runtime`] so
/// the *compiler-side* decisions (baseline cost model, remainder handling)
/// see exactly what LLVM would see.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ParamEnv {
    values: BTreeMap<String, i64>,
    array_sizes: BTreeMap<String, u64>,
}

/// The trip count assumed for loops whose bounds cannot be evaluated (e.g.
/// `while` loops) and the element count of pointer parameters no binding
/// sizes.
pub(crate) const DEFAULT_TRIP: u64 = 1024;

impl ParamEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds scalar parameter `name` to `value` (builder style).
    pub fn with(mut self, name: impl Into<String>, value: i64) -> Self {
        self.values.insert(name.into(), value);
        self
    }

    /// Declares the element count of a pointer-parameter array.
    pub fn with_array_len(mut self, name: impl Into<String>, elements: u64) -> Self {
        self.array_sizes.insert(name.into(), elements);
        self
    }

    /// Looks up a scalar binding.
    pub fn value(&self, name: &str) -> Option<i64> {
        self.values.get(name).copied()
    }

    /// Looks up an array length binding (in elements).
    pub(crate) fn array_len(&self, name: &str) -> Option<u64> {
        self.array_sizes.get(name).copied()
    }
}

/// Shape and placement information for one array referenced by a kernel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct ArrayInfo {
    /// Array name.
    pub(crate) name: String,
    /// Element type.
    pub(crate) ty: ScalarType,
    /// Dimensions (empty when unknown — pointer parameters).
    pub(crate) dims: Vec<u64>,
    /// Known alignment in bytes (16 for globals by default, per common
    /// compiler/linker behaviour; larger with `aligned(N)`).
    pub(crate) alignment: u32,
    /// Total footprint in bytes.
    pub(crate) bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_builder_and_lookup() {
        let env = ParamEnv::new()
            .with("n", 512)
            .with("m", 8)
            .with_array_len("a", 4096);
        assert_eq!(env.value("n"), Some(512));
        assert_eq!(env.value("missing"), None);
        assert_eq!(env.array_len("a"), Some(4096));
    }
}
