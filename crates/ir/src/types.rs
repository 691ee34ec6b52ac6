//! Scalar types of the loop IR.

use std::fmt;

use serde::{Deserialize, Serialize};

use nvc_frontend::Type;

/// Machine-level scalar type of an IR value.
///
/// Signedness is dropped: the performance model and the vectorizer treat
/// signed and unsigned integers identically (as LLVM's cost tables largely
/// do), while element *width* matters a great deal — it determines how many
/// lanes fit a vector register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ScalarType {
    /// 1-bit predicate (comparison results, masks).
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
}

impl ScalarType {
    /// Width of the type in bytes (predicates count as 1).
    pub fn size_bytes(self) -> u32 {
        match self {
            ScalarType::I1 | ScalarType::I8 => 1,
            ScalarType::I16 => 2,
            ScalarType::I32 | ScalarType::F32 => 4,
            ScalarType::I64 | ScalarType::F64 => 8,
        }
    }

    /// True for `F32`/`F64`.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::F32 | ScalarType::F64)
    }
}

impl From<Type> for ScalarType {
    fn from(t: Type) -> Self {
        match t {
            Type::Void => ScalarType::I32, // void never carries data; placeholder
            Type::Char { .. } => ScalarType::I8,
            Type::Short { .. } => ScalarType::I16,
            Type::Int { .. } => ScalarType::I32,
            Type::Long { .. } => ScalarType::I64,
            Type::Float => ScalarType::F32,
            Type::Double => ScalarType::F64,
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarType::I1 => "i1",
            ScalarType::I8 => "i8",
            ScalarType::I16 => "i16",
            ScalarType::I32 => "i32",
            ScalarType::I64 => "i64",
            ScalarType::F32 => "f32",
            ScalarType::F64 => "f64",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(ScalarType::I8.size_bytes(), 1);
        assert_eq!(ScalarType::I16.size_bytes(), 2);
        assert_eq!(ScalarType::I32.size_bytes(), 4);
        assert_eq!(ScalarType::F64.size_bytes(), 8);
    }

    #[test]
    fn from_frontend_types() {
        assert_eq!(
            ScalarType::from(Type::Short { unsigned: true }),
            ScalarType::I16
        );
        assert_eq!(ScalarType::from(Type::Float), ScalarType::F32);
        assert_eq!(
            ScalarType::from(Type::Long { unsigned: false }),
            ScalarType::I64
        );
    }

    #[test]
    fn display_is_llvm_like() {
        assert_eq!(ScalarType::F32.to_string(), "f32");
        assert_eq!(ScalarType::I1.to_string(), "i1");
    }
}
