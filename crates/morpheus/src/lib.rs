//! Morpheus: sparse matrix storage formats with runtime format switching.
//!
//! This crate reproduces the substrate the paper builds on (§II-B/§II-C): the
//! six storage formats considered by Morpheus-Oracle —
//!
//! * [`CooMatrix`] — Coordinate (general purpose),
//! * [`CsrMatrix`] — Compressed Sparse Row (general purpose, the default),
//! * [`DiaMatrix`] — Diagonal (regular, banded patterns),
//! * [`EllMatrix`] — ELLPACK (structured / semi-structured rows),
//! * [`HybMatrix`] — Hybrid ELL + COO,
//! * [`HdcMatrix`] — Hybrid DIA + CSR,
//!
//! a runtime-switchable container ([`DynamicMatrix`]) abstracting them behind
//! a single interface, conversions between every pair of formats, serial and
//! multithreaded SpMV kernels for each format, single-pass per-format matrix
//! statistics (feeding the Oracle's feature extraction, §VI-C), and
//! MatrixMarket I/O for interoperability with the SuiteSparse collection.
//!
//! # Quickstart
//! ```
//! use morpheus::{CooMatrix, DynamicMatrix, FormatId, ConvertOptions};
//!
//! // 4x4 tridiagonal matrix.
//! let coo = CooMatrix::<f64>::from_triplets(
//!     4, 4,
//!     &[0, 0, 1, 1, 1, 2, 2, 2, 3, 3],
//!     &[0, 1, 0, 1, 2, 1, 2, 3, 2, 3],
//!     &[2., -1., -1., 2., -1., -1., 2., -1., -1., 2.],
//! ).unwrap();
//! let mut dyn_mat = DynamicMatrix::from(coo);
//!
//! // Switch to DIA at runtime — this matrix is banded, so DIA fits well.
//! dyn_mat.convert_to(FormatId::Dia, &ConvertOptions::default()).unwrap();
//! assert_eq!(dyn_mat.format_id(), FormatId::Dia);
//!
//! let x = vec![1.0; 4];
//! let mut y = vec![0.0; 4];
//! morpheus::spmv::spmv_serial(&dyn_mat, &x, &mut y).unwrap();
//! assert_eq!(y, vec![1.0, 0.0, 0.0, 1.0]);
//! ```

pub mod analysis;
pub mod bell;
pub mod bsr;
pub mod builder;
pub mod convert;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod dia;
pub mod dynamic;
pub mod ell;
pub mod error;
pub mod format;
pub mod hdc;
pub mod hyb;
pub mod io;
pub mod op;
pub mod params;
pub mod partition;
pub mod plan;
pub mod rowmajor;
pub mod scalar;
pub mod spmm;
pub mod spmv;
pub mod stats;
pub mod vecops;

pub use analysis::Analysis;
pub use bell::{BellBucket, BellMatrix};
pub use bsr::{BsrMatrix, BSR_BLOCK_DIMS};
pub use builder::{CooBuilder, CsrBuilder};
pub use convert::{convert_via_hub, ConvertOptions, ConvertOutcome, ConvertPath};
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use dia::DiaMatrix;
pub use dynamic::DynamicMatrix;
pub use ell::EllMatrix;
pub use error::MorpheusError;
pub use format::FormatId;
pub use hdc::HdcMatrix;
pub use hyb::{HybMatrix, HybSplit};
pub use op::Op;
pub use params::{FormatParams, MAX_BELL_WIDTHS};
pub use partition::{Partition, PartitionConfig, PartitionedMatrix, Shard};
pub use plan::{ExecPlan, Settled, SharedRun, Workspace};
pub use rowmajor::{for_each_entry_row_major, for_each_row_pattern};
pub use scalar::Scalar;
pub use spmv::cpu_features::CpuFeatures;
pub use stats::MatrixStats;

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, MorpheusError>;

#[cfg(test)]
pub(crate) mod test_util {
    use crate::{CooMatrix, Scalar};

    /// Small deterministic pseudo-random COO matrix for tests (SplitMix64).
    pub fn random_coo<V: Scalar>(nrows: usize, ncols: usize, nnz_target: usize, seed: u64) -> CooMatrix<V> {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut triplets = std::collections::BTreeMap::new();
        for _ in 0..nnz_target {
            let r = (next() % nrows.max(1) as u64) as usize;
            let c = (next() % ncols.max(1) as u64) as usize;
            let v = ((next() % 1000) as f64 - 500.0) / 100.0;
            let v = if v == 0.0 { 1.0 } else { v };
            triplets.insert((r, c), V::from_f64(v));
        }
        let rows: Vec<usize> = triplets.keys().map(|&(r, _)| r).collect();
        let cols: Vec<usize> = triplets.keys().map(|&(_, c)| c).collect();
        let vals: Vec<V> = triplets.values().copied().collect();
        CooMatrix::from_triplets(nrows, ncols, &rows, &cols, &vals).unwrap()
    }
}
