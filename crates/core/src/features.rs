//! The ten-feature matrix characterisation of Table I.
//!
//! "Feature extraction ... refers to the process of transforming the
//! original sparse matrix into a set of numerical 'features' that can be
//! processed by the model while preserving the information about the
//! sparsity pattern" (§IV). The features capture matrix size (M, N, NNZ),
//! density, the row-occupancy distribution (mean/max/min/std — the
//! ELL-suitability signals) and the diagonal structure (ND, NTD — the
//! DIA/HDC-suitability signals).

use morpheus::hdc::DEFAULT_TRUE_DIAG_ALPHA;
use morpheus::stats::{stats_of, MatrixStats};
use morpheus::{DynamicMatrix, Scalar};

/// Number of features in the vector: the ten Table-I columns plus the two
/// parameterized-format signals (block compactness for BSR, bucket padding
/// skew for BELL).
pub const NUM_FEATURES: usize = 12;

/// Feature names, in vector order (Table I, then the block-format signals).
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "M",             // number of rows
    "N",             // number of columns
    "NNZ",           // number of non-zeros
    "avg_nnz",       // mean non-zeros per row
    "density",       // NNZ / (M * N)
    "max_nnz",       // max non-zeros per row
    "min_nnz",       // min non-zeros per row
    "std_nnz",       // std of non-zeros per row
    "ndiags",        // non-empty diagonals
    "ntrue_diags",   // true diagonals
    "block_density", // entry fraction on adjacent-diagonal runs (BSR signal)
    "bucket_skew",   // default-ladder BELL padding over nnz (BELL signal)
];

/// A Table-I feature vector for one matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureVector(pub [f64; NUM_FEATURES]);

impl FeatureVector {
    /// Builds the vector from precomputed statistics.
    pub fn from_stats(s: &MatrixStats) -> Self {
        FeatureVector([
            s.nrows as f64,
            s.ncols as f64,
            s.nnz as f64,
            s.row_nnz_mean,
            s.density(),
            s.row_nnz_max as f64,
            s.row_nnz_min as f64,
            s.row_nnz_std,
            s.ndiags as f64,
            s.ntrue_diags as f64,
            s.block_density,
            s.bucket_skew,
        ])
    }

    /// Builds the vector from a shared [`morpheus::Analysis`] — zero
    /// additional matrix traversals (the statistics were reduced when the
    /// analysis was computed).
    pub fn from_analysis(a: &morpheus::Analysis) -> Self {
        Self::from_stats(&a.stats)
    }

    /// Extracts features directly from a matrix in its *active* format
    /// (§VI-C: no conversion, no data transfer).
    pub fn extract<V: Scalar>(m: &DynamicMatrix<V>) -> Self {
        Self::extract_with_alpha(m, DEFAULT_TRUE_DIAG_ALPHA)
    }

    /// [`FeatureVector::extract`] with an explicit true-diagonal fraction.
    pub fn extract_with_alpha<V: Scalar>(m: &DynamicMatrix<V>, alpha: f64) -> Self {
        Self::from_stats(&stats_of(m, alpha))
    }

    /// The raw values, in [`FEATURE_NAMES`] order.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }
}

impl std::fmt::Display for FeatureVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (name, v)) in FEATURE_NAMES.iter().zip(self.0.iter()).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}={v:.4}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus::format::ALL_FORMATS;
    use morpheus::{ConvertOptions, CooMatrix};

    fn sample() -> DynamicMatrix<f64> {
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let n = 60usize;
        for i in 0..n {
            rows.push(i);
            cols.push(i);
            if i + 2 < n {
                rows.push(i);
                cols.push(i + 2);
            }
        }
        let vals = vec![1.0; rows.len()];
        DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
    }

    #[test]
    fn vector_matches_table_i() {
        let fv = FeatureVector::extract(&sample());
        assert_eq!(fv.0[0], 60.0); // M
        assert_eq!(fv.0[1], 60.0); // N
        assert_eq!(fv.0[2], 118.0); // NNZ = 60 + 58
        assert!((fv.0[3] - 118.0 / 60.0).abs() < 1e-12); // avg
        assert!((fv.0[4] - 118.0 / 3600.0).abs() < 1e-12); // density
        assert_eq!(fv.0[5], 2.0); // max per row
        assert_eq!(fv.0[6], 1.0); // min per row
        assert_eq!(fv.0[8], 2.0); // two diagonals
        assert_eq!(fv.0[9], 2.0); // both true at alpha 0.2
    }

    #[test]
    fn extraction_invariant_across_active_formats() {
        let base = sample();
        let reference = FeatureVector::extract(&base);
        for &fmt in &ALL_FORMATS {
            let m = base.to_format(fmt, &ConvertOptions::default()).unwrap();
            assert_eq!(FeatureVector::extract(&m), reference, "{fmt}");
        }
    }

    #[test]
    fn alpha_changes_ntd_only() {
        let m = sample();
        let loose = FeatureVector::extract_with_alpha(&m, 0.1);
        let strict = FeatureVector::extract_with_alpha(&m, 1.0);
        assert_eq!(loose.0[..9], strict.0[..9]);
        assert!(strict.0[9] <= loose.0[9]);
    }

    #[test]
    fn names_align_with_count() {
        assert_eq!(FEATURE_NAMES.len(), NUM_FEATURES);
        let fv = FeatureVector::extract(&sample());
        assert_eq!(fv.as_slice().len(), NUM_FEATURES);
        let shown = fv.to_string();
        for name in FEATURE_NAMES {
            assert!(shown.contains(name), "missing {name} in display");
        }
    }
}
