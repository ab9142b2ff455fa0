//! The sparse operation an execution runs and a tuning decision targets.
//!
//! [`crate::ExecPlan::run`] executes either through the one `match` on the
//! plan's parts. The paper tunes for SpMV, but notes its "techniques and
//! algorithms ... are transferable to other sparse operations" (§V). Threading the
//! operation through the engine's cost queries makes tuners
//! *operation-aware*: the optimal format for `y = A x` is not always the
//! optimal format for the blocked product `Y = A X` — padded formats
//! (DIA/ELL) redo their padding work on every right-hand side, while CSR's
//! gather penalty is paid once per non-zero and amortises across the block.

/// A tunable sparse operation.
///
/// The `Ord` derive (SpMV before SpMM, SpMM by `k`) exists so telemetry
/// keys containing an `Op` sort deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum Op {
    /// Sparse matrix × dense vector (`y = A x`).
    #[default]
    Spmv,
    /// Sparse matrix × dense matrix (`Y = A X` with `k` right-hand sides).
    Spmm {
        /// Number of right-hand-side columns (≥ 1).
        k: usize,
    },
}

impl Op {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Op::Spmv => "spmv",
            Op::Spmm { .. } => "spmm",
        }
    }

    /// Number of right-hand sides the operation processes per call.
    pub fn rhs_count(self) -> usize {
        match self {
            Op::Spmv => 1,
            Op::Spmm { k } => k.max(1),
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Spmv => write!(f, "spmv"),
            Op::Spmm { k } => write!(f, "spmm(k={k})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rhs_counts() {
        assert_eq!(Op::Spmv.rhs_count(), 1);
        assert_eq!(Op::Spmm { k: 8 }.rhs_count(), 8);
        assert_eq!(Op::Spmm { k: 0 }.rhs_count(), 1);
    }

    #[test]
    fn display_and_name() {
        assert_eq!(Op::Spmv.to_string(), "spmv");
        assert_eq!(Op::Spmm { k: 4 }.to_string(), "spmm(k=4)");
        assert_eq!(Op::Spmm { k: 4 }.name(), "spmm");
        assert_eq!(Op::default(), Op::Spmv);
    }
}
