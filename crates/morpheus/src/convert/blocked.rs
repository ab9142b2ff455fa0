//! Conversions for the parameterized block formats (BSR, BELL).
//!
//! Both formats are *array-built*: one builder each
//! (`BsrMatrix::from_row_arrays`, `BellMatrix::from_row_arrays`) reads
//! contiguous row-major `(offsets, cols, vals)` arrays — a
//! `RowArrays` as every builder in [`crate::convert`] does. CSR lends
//! its own arrays; a sorted COO matrix's `cols`/`vals` already are such
//! arrays and only its offsets are built (one pass of stores). BELL's
//! builder also builds ELL and HYB's ELL part, one bucket each
//! ([`super::kernels`]). Every other source reaches them through its CSR
//! copy (see the dispatcher in [`crate::convert`]). Both formats export
//! back to COO/CSR through the one row-major export, as every format does.
//! Padding guards mirror the DIA/ELL contract: conversions whose padded
//! slabs exceed the [`ConvertOptions`] allowance fail with
//! [`crate::MorpheusError::ExcessivePadding`] (the tuner's non-viability signal),
//! although block padding is structurally bounded (at worst
//! `block_r * block_c` per entry for BSR, the ladder gap for BELL — whose
//! ladder is a parameter, hence BELL's guard runs inside its builder,
//! before the buckets are allocated) where ELL/DIA padding is unbounded.

use crate::bell::{runs_of, BellMatrix};
use crate::bsr::BsrMatrix;
use crate::convert::kernels::{export_to_coo, export_to_csr, RowArrays};
use crate::convert::{guard_padding, ConvertOptions};
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
#[cfg(test)]
use crate::error::MorpheusError;
use crate::format::FormatId;
use crate::scalar::Scalar;
use crate::spmv::cpu_features::CpuFeatures;
use crate::Result;
use morpheus_parallel::ThreadPool;

/// Builds a BSR matrix with the options' block dimensions from row-major
/// arrays, enforcing the padding allowance.
pub(crate) fn bsr_from_arrays<V: Scalar>(
    a: &RowArrays<'_, V>,
    opts: &ConvertOptions,
) -> Result<BsrMatrix<V>> {
    let ((nrows, ncols), (r, c)) = (a.shape, opts.params.normalized_block());
    let m = BsrMatrix::from_row_arrays(nrows, ncols, &a.offsets, a.cols, a.vals, r, c);
    guard_padding(FormatId::Bsr, m.padded_len(), m.nnz(), opts.padded_allowance(m.nnz()))?;
    Ok(m)
}

/// Builds a BELL matrix with the options' bucket ladder from row-major
/// arrays, enforcing the padding allowance before the buckets are
/// allocated, with the fill form `cpu` selects, on `pool` when given (see
/// [`BellMatrix::from_row_arrays`]).
pub(crate) fn bell_from_arrays<V: Scalar>(
    a: &RowArrays<'_, V>,
    opts: &ConvertOptions,
    cpu: CpuFeatures,
    pool: Option<&ThreadPool>,
) -> Result<BellMatrix<V>> {
    let guard = |padded, nnz| guard_padding(FormatId::Bell, padded, nnz, opts.padded_allowance(nnz));
    let ladder = opts.params.bell_ladder();
    BellMatrix::from_row_arrays(a.shape, runs_of(&a.offsets), a.cols, a.vals, ladder, guard, cpu, pool)
}

/// COO → BSR with the options' block dimensions: the COO matrix's
/// offsets, then the BSR builder.
pub fn coo_to_bsr<V: Scalar>(a: &CooMatrix<V>, opts: &ConvertOptions) -> Result<BsrMatrix<V>> {
    bsr_from_arrays(&RowArrays::of_coo(a), opts)
}

/// CSR → BSR with the options' block dimensions.
pub fn csr_to_bsr<V: Scalar>(a: &CsrMatrix<V>, opts: &ConvertOptions) -> Result<BsrMatrix<V>> {
    bsr_from_arrays(&RowArrays::of_csr(a), opts)
}

/// BSR → COO (row-major export; exact structural roundtrip).
pub fn bsr_to_coo<V: Scalar>(a: &BsrMatrix<V>) -> CooMatrix<V> {
    export_to_coo(a, a.ncols(), a.nnz())
}

/// BSR → CSR (row-major export).
pub fn bsr_to_csr<V: Scalar>(a: &BsrMatrix<V>) -> CsrMatrix<V> {
    export_to_csr(a, a.ncols(), a.nnz())
}

/// COO → BELL with the options' bucket ladder: the COO matrix's offsets,
/// then the BELL builder.
pub fn coo_to_bell<V: Scalar>(a: &CooMatrix<V>, opts: &ConvertOptions) -> Result<BellMatrix<V>> {
    bell_from_arrays(&RowArrays::of_coo(a), opts, CpuFeatures::detect(), None)
}

/// CSR → BELL with the options' bucket ladder.
pub fn csr_to_bell<V: Scalar>(a: &CsrMatrix<V>, opts: &ConvertOptions) -> Result<BellMatrix<V>> {
    bell_from_arrays(&RowArrays::of_csr(a), opts, CpuFeatures::detect(), None)
}

/// BELL → COO (row-major export; exact structural roundtrip).
pub fn bell_to_coo<V: Scalar>(a: &BellMatrix<V>) -> CooMatrix<V> {
    export_to_coo(a, a.ncols(), a.nnz())
}

/// BELL → CSR (row-major export).
pub fn bell_to_csr<V: Scalar>(a: &BellMatrix<V>) -> CsrMatrix<V> {
    export_to_csr(a, a.ncols(), a.nnz())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FormatParams;
    use crate::test_util::random_coo;

    #[test]
    fn bsr_roundtrips_exactly() {
        for seed in 0..4u64 {
            let coo = random_coo::<f64>(50, 41, 360, seed);
            for dims in [(2, 2), (4, 4), (8, 8)] {
                let opts = ConvertOptions {
                    params: FormatParams { bsr_block: dims, ..Default::default() },
                    ..Default::default()
                };
                let bsr = coo_to_bsr(&coo, &opts).unwrap();
                assert_eq!(bsr_to_coo(&bsr), coo, "seed {seed} dims {dims:?}");
                let csr = crate::convert::coo_to_csr(&coo);
                assert_eq!(csr_to_bsr(&csr, &opts).unwrap(), bsr);
                assert_eq!(bsr_to_csr(&bsr), csr);
            }
        }
    }

    #[test]
    fn bell_roundtrips_exactly() {
        for seed in 0..4u64 {
            let coo = random_coo::<f64>(60, 44, 420, seed + 50);
            for ladder in [vec![], vec![2, 6], vec![1, 2, 4, 8, 16, 32]] {
                let opts = ConvertOptions {
                    params: FormatParams::default().with_bell_ladder(&ladder),
                    ..Default::default()
                };
                let bell = coo_to_bell(&coo, &opts).unwrap();
                assert_eq!(bell_to_coo(&bell), coo, "seed {seed} ladder {ladder:?}");
                let csr = crate::convert::coo_to_csr(&coo);
                assert_eq!(csr_to_bell(&csr, &opts).unwrap(), bell);
                assert_eq!(bell_to_csr(&bell), csr);
            }
        }
    }

    #[test]
    fn bsr_padding_guard_fires_on_hypersparse_scatter() {
        // One entry per 8x8 block: 64 padded slots per non-zero.
        let n = 4000usize;
        let rows: Vec<usize> = (0..n / 8).map(|i| i * 8).collect();
        let cols: Vec<usize> = (0..n / 8).map(|i| (i * 8 + 3) % n).collect();
        let vals = vec![1.0f64; rows.len()];
        let coo = CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap();
        let opts = ConvertOptions {
            max_fill: 2.0,
            min_padded_allowance: 8,
            params: FormatParams { bsr_block: (8, 8), ..Default::default() },
            ..Default::default()
        };
        let err = coo_to_bsr(&coo, &opts).unwrap_err();
        assert!(matches!(err, MorpheusError::ExcessivePadding { format: FormatId::Bsr, .. }));
    }

    /// A ladder width is any `usize` a decisions file carries: the guard
    /// prices the buckets before they are allocated (the first ladder's top
    /// bucket would be 24 TiB; the second's two rows overflow the count).
    #[test]
    fn a_huge_ladder_width_is_excessive_padding_not_an_allocation() {
        let (rows, cols) = ([0, 0, 1, 1, 2], [0, 1, 1, 2, 2]);
        let coo = CooMatrix::<f64>::from_triplets(3, 3, &rows, &cols, &[1.0; 5]).unwrap();
        let csr = crate::convert::coo_to_csr(&coo);
        for token in ["bell=1,1099511627776", "bell=1,9223372036854775808"] {
            let params = FormatParams::parse_token(token).expect("a ladder token parses");
            let opts = ConvertOptions { params, ..Default::default() };
            for err in [coo_to_bell(&coo, &opts).unwrap_err(), csr_to_bell(&csr, &opts).unwrap_err()] {
                assert!(
                    matches!(err, MorpheusError::ExcessivePadding { format: FormatId::Bell, nnz: 5, .. }),
                    "{token}: {err}"
                );
            }
        }
    }

    #[test]
    fn empty_matrices_convert() {
        let coo = CooMatrix::<f64>::new(6, 6);
        let opts = ConvertOptions::default();
        assert_eq!(coo_to_bsr(&coo, &opts).unwrap().nnz(), 0);
        assert_eq!(coo_to_bell(&coo, &opts).unwrap().nnz(), 0);
        assert_eq!(bsr_to_coo(&coo_to_bsr(&coo, &opts).unwrap()), coo);
        assert_eq!(bell_to_coo(&coo_to_bell(&coo, &opts).unwrap()), coo);
    }
}
