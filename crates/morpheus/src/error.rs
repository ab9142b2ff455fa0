//! Error type shared across the Morpheus crates.

use crate::format::FormatId;

/// Errors produced by matrix construction, conversion, kernels and I/O.
#[derive(Debug)]
pub enum MorpheusError {
    /// Vector/matrix dimensions do not agree.
    ShapeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it was given.
        got: String,
    },
    /// A row/column index exceeds the matrix shape.
    IndexOutOfBounds {
        /// The offending index pair.
        index: (usize, usize),
        /// The matrix shape.
        shape: (usize, usize),
    },
    /// Structural invariant of a format violated (unsorted CSR rows,
    /// mismatched array lengths, non-monotone offsets, ...).
    InvalidStructure(String),
    /// A conversion to DIA/ELL-like formats would require padding beyond the
    /// configured fill limit (§II-B: "both formats can suffer from excessive
    /// padding").
    ExcessivePadding {
        /// Target format of the conversion.
        format: FormatId,
        /// Padded storage slots the conversion would allocate.
        padded: usize,
        /// Structural non-zeros of the source.
        nnz: usize,
        /// The configured limit, in slots.
        limit: usize,
    },
    /// A matrix dimension does not fit the index width a format stores
    /// (BELL keeps row and column indices in 4 bytes). Like
    /// [`MorpheusError::ExcessivePadding`], a reason the format is not
    /// viable for this matrix, not a malformed input.
    IndexOverflow {
        /// The offending dimension (`nrows` or `ncols`).
        dim: usize,
        /// The largest index the format can store.
        limit: usize,
    },
    /// An execution plan was applied to a matrix it was not built for
    /// (different format, shape or non-zero count).
    PlanMismatch {
        /// The matrix the plan was built for.
        expected: String,
        /// The matrix it was applied to.
        got: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// MatrixMarket (or model file) parse failure.
    Parse {
        /// 1-based line number where parsing failed.
        line: usize,
        /// Description of the failure.
        msg: String,
    },
}

impl std::fmt::Display for MorpheusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MorpheusError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            MorpheusError::IndexOutOfBounds { index, shape } => {
                write!(f, "index ({}, {}) out of bounds for {}x{} matrix", index.0, index.1, shape.0, shape.1)
            }
            MorpheusError::InvalidStructure(msg) => write!(f, "invalid matrix structure: {msg}"),
            MorpheusError::ExcessivePadding { format, padded, nnz, limit } => write!(
                f,
                "conversion to {format} needs {padded} padded slots for {nnz} non-zeros (limit {limit})"
            ),
            MorpheusError::IndexOverflow { dim, limit } => {
                write!(f, "a dimension of {dim} needs indices past the format's limit of {limit}")
            }
            MorpheusError::PlanMismatch { expected, got } => {
                write!(f, "execution plan mismatch: plan built for {expected}, applied to {got}")
            }
            MorpheusError::Io(e) => write!(f, "i/o error: {e}"),
            MorpheusError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for MorpheusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MorpheusError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MorpheusError {
    fn from(e: std::io::Error) -> Self {
        MorpheusError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = MorpheusError::IndexOutOfBounds { index: (5, 6), shape: (4, 4) };
        assert!(e.to_string().contains("(5, 6)"));
        let e = MorpheusError::ExcessivePadding { format: FormatId::Ell, padded: 100, nnz: 3, limit: 50 };
        assert!(e.to_string().contains("ELL"));
        let e = MorpheusError::IndexOverflow { dim: 1 << 33, limit: u32::MAX as usize };
        assert!(e.to_string().contains("8589934592") && e.to_string().contains("4294967295"));
        let e = MorpheusError::Parse { line: 3, msg: "bad".into() };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn io_error_source() {
        use std::error::Error;
        let e = MorpheusError::from(std::io::Error::other("x"));
        assert!(e.source().is_some());
    }
}
