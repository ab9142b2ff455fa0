//! Hybrid ELL + COO (HYB) format.
//!
//! The ELL part is an [`EllMatrix`] — a one-bucket BELL at the split width
//! `K_H`, built in place from the first `K_H` entries of each row — and the
//! surplus a sorted COO spill. Executions walk the bucket's slices with
//! BELL's walker, then accumulate the spill.

use crate::coo::CooMatrix;
use crate::ell::EllMatrix;
use crate::error::MorpheusError;
use crate::format::FormatId;
use crate::scalar::Scalar;
use crate::Result;

/// Policy for choosing the HYB split width `K_H` (§II-B: "the number of
/// non-zeros per row to be stored in the ELL portion").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum HybSplit {
    /// Pick the `K_H` minimising total storage bytes: each ELL slot costs a
    /// value plus an index, each COO surplus entry costs a value plus two
    /// indices; the optimum is found by scanning the row-length histogram.
    #[default]
    Auto,
    /// Fixed `K_H`.
    Width(usize),
}

/// Hybrid ELL/COO matrix (§II-B).
///
/// The first `K_H` entries of every row live in the ELL portion; any surplus
/// spills into the COO portion. Combines ELL's regular, vectorisable layout
/// with COO's tolerance of a few long rows.
#[derive(Debug, Clone, PartialEq)]
pub struct HybMatrix<V> {
    ell: EllMatrix<V>,
    coo: CooMatrix<V>,
}

impl<V: Scalar> HybMatrix<V> {
    /// Builds from an ELL and a COO part with identical shapes.
    pub fn from_parts(ell: EllMatrix<V>, coo: CooMatrix<V>) -> Result<Self> {
        if ell.nrows() != coo.nrows() || ell.ncols() != coo.ncols() {
            return Err(MorpheusError::ShapeMismatch {
                expected: format!("{}x{}", ell.nrows(), ell.ncols()),
                got: format!("{}x{}", coo.nrows(), coo.ncols()),
            });
        }
        Ok(HybMatrix { ell, coo })
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.ell.nrows()
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ell.ncols()
    }

    /// Structural non-zeros across both portions.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.ell.nnz() + self.coo.nnz()
    }

    /// Format identifier ([`FormatId::Hyb`]).
    #[inline]
    pub fn format_id(&self) -> FormatId {
        FormatId::Hyb
    }

    /// The ELL portion.
    #[inline]
    pub fn ell(&self) -> &EllMatrix<V> {
        &self.ell
    }

    /// The COO portion.
    #[inline]
    pub fn coo(&self) -> &CooMatrix<V> {
        &self.coo
    }

    /// The split width `K_H` in effect.
    #[inline]
    pub fn split_width(&self) -> usize {
        self.ell.width()
    }

    /// Bytes of heap storage across both portions.
    pub fn storage_bytes(&self) -> usize {
        self.ell.storage_bytes() + self.coo.storage_bytes()
    }

    /// Consumes the matrix, returning the two portions.
    pub fn into_parts(self) -> (EllMatrix<V>, CooMatrix<V>) {
        (self.ell, self.coo)
    }
}

/// Chooses the storage-optimal `K_H` from a row-length histogram.
///
/// Minimises `ell_slot_bytes * nrows * K + coo_entry_bytes * surplus(K)`
/// where `surplus(K) = Σ_i max(0, len_i - K)`. Scans all candidate `K` in
/// `0..=max_len` using suffix sums, O(nrows + max_len).
pub fn optimal_hyb_width(row_lengths: &[usize], value_bytes: usize) -> usize {
    optimal_hyb_width_iter(row_lengths.len(), row_lengths.iter().copied(), value_bytes)
}

/// [`optimal_hyb_width`] reading a `u32` row-nnz histogram, the shape the
/// shared [`crate::analysis::Analysis`] artifact stores — so HYB planning
/// can reuse the one-pass analysis instead of rescanning the matrix.
pub fn optimal_hyb_width_u32(row_lengths: &[u32], value_bytes: usize) -> usize {
    optimal_hyb_width_iter(row_lengths.len(), row_lengths.iter().map(|&l| l as usize), value_bytes)
}

fn optimal_hyb_width_iter(
    nrows: usize,
    row_lengths: impl Iterator<Item = usize> + Clone,
    value_bytes: usize,
) -> usize {
    let max_len = row_lengths.clone().max().unwrap_or(0);
    // rows_with_len[l] = number of rows of length exactly l.
    let mut rows_with_len = vec![0usize; max_len + 1];
    for l in row_lengths {
        rows_with_len[l] += 1;
    }
    optimal_hyb_width_from_counts(nrows, &rows_with_len, value_bytes)
}

/// [`optimal_hyb_width`] from the row-length count table
/// (`rows_with_len[l]` rows hold exactly `l` entries, the last slot being
/// the longest row's), O(max_len) — what
/// [`crate::stats::RowLengthCounts`] holds.
pub(crate) fn optimal_hyb_width_from_counts(
    nrows: usize,
    rows_with_len: &[usize],
    value_bytes: usize,
) -> usize {
    let max_len = rows_with_len.len().saturating_sub(1);
    if nrows == 0 || max_len == 0 {
        return 0;
    }
    let index_bytes = std::mem::size_of::<usize>();
    let ell_slot = (value_bytes + index_bytes) as u128;
    let coo_entry = (value_bytes + 2 * index_bytes) as u128;
    // For K from max_len down to 0 maintain:
    //   rows_longer = #rows with len > K
    //   surplus     = Σ max(0, len_i - K)
    // and evaluate cost(K).
    let mut rows_longer: u128 = 0;
    let mut surplus: u128 = 0;
    let mut best_k = max_len;
    let mut best_cost = ell_slot * (nrows as u128) * (max_len as u128);
    for k in (0..max_len).rev() {
        rows_longer += rows_with_len[k + 1] as u128;
        surplus += rows_longer;
        let cost = ell_slot * (nrows as u128) * (k as u128) + coo_entry * surplus;
        // Prefer larger K on ties: keeps more entries in the regular portion.
        if cost < best_cost {
            best_cost = cost;
            best_k = k;
        }
    }
    best_k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_rows_go_fully_to_ell() {
        // All rows length 4: surplus is zero at K = 4 and ELL slots are
        // cheaper than COO entries, so the optimum keeps everything in ELL.
        let lens = vec![4usize; 100];
        assert_eq!(optimal_hyb_width(&lens, 8), 4);
    }

    #[test]
    fn single_long_row_spills_to_coo() {
        // 99 rows of length 2, one row of length 1000. Padding all rows to
        // 1000 would be absurd; optimum keeps K near 2.
        let mut lens = vec![2usize; 99];
        lens.push(1000);
        let k = optimal_hyb_width(&lens, 8);
        assert_eq!(k, 2);
    }

    #[test]
    fn empty_and_zero_rows() {
        assert_eq!(optimal_hyb_width(&[], 8), 0);
        assert_eq!(optimal_hyb_width(&[0, 0, 0], 8), 0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let ell = EllMatrix::<f64>::new(3, 3);
        let coo = CooMatrix::<f64>::new(4, 3);
        assert!(HybMatrix::from_parts(ell, coo).is_err());
    }

    #[test]
    fn nnz_sums_portions() {
        let diagonal = CooMatrix::<f64>::from_triplets(2, 2, &[0, 1], &[0, 1], &[1.0, 2.0]).unwrap();
        let ell = crate::convert::coo_to_ell(&diagonal, &Default::default()).unwrap();
        let coo = CooMatrix::<f64>::from_triplets(2, 2, &[0], &[1], &[3.0]).unwrap();
        let hyb = HybMatrix::from_parts(ell, coo).unwrap();
        assert_eq!(hyb.nnz(), 3);
        assert_eq!(hyb.split_width(), 1);
    }
}
