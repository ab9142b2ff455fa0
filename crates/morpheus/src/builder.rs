//! Incremental matrix construction: COO from entries in any order, CSR
//! from entries in row order.

use std::borrow::Cow;

use crate::coo::{sort_and_merge_row, CooMatrix};
use crate::csr::CsrMatrix;
use crate::error::MorpheusError;
use crate::scalar::Scalar;
use crate::Result;

/// Incremental builder for [`CooMatrix`].
///
/// Entries may be pushed in any order; duplicates are summed on
/// [`CooBuilder::build`] (the assembly convention of FEM codes and the
/// MatrixMarket reader), in push order: the entries pushed at one
/// coordinate are added left to right as they were pushed, so the same
/// pushes always store the same bits, whatever else was pushed between
/// them.
#[derive(Debug, Clone)]
pub struct CooBuilder<V> {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<V>,
}

impl<V: Scalar> CooBuilder<V> {
    /// A builder for a matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooBuilder { nrows, ncols, rows: Vec::new(), cols: Vec::new(), vals: Vec::new() }
    }

    /// Pre-allocates space for `n` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, n: usize) -> Self {
        CooBuilder {
            nrows,
            ncols,
            rows: Vec::with_capacity(n),
            cols: Vec::with_capacity(n),
            vals: Vec::with_capacity(n),
        }
    }

    /// Queues an entry. Bounds are checked immediately.
    pub fn push(&mut self, row: usize, col: usize, value: V) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(MorpheusError::IndexOutOfBounds {
                index: (row, col),
                shape: (self.nrows, self.ncols),
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(value);
        Ok(())
    }

    /// Number of queued entries (before duplicate merging).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// `true` if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Finalises into a sorted, duplicate-merged [`CooMatrix`], summing
    /// duplicates in push order.
    ///
    /// Runs [`CooMatrix::from_triplets`]' linear-time assembly in the
    /// builder's own arrays, without copying them: entries pushed row by
    /// row keep their arrays and only rows with unsorted or repeated
    /// columns are touched; entries pushed with rows out of order are
    /// counted per row and scattered once into new column and value
    /// arrays, and the row array is rewritten in place.
    pub fn build(self) -> CooMatrix<V> {
        CooMatrix::assemble(
            self.nrows,
            self.ncols,
            Cow::Owned(self.rows),
            Cow::Owned(self.cols),
            Cow::Owned(self.vals),
        )
    }
}

/// Row-ordered builder for [`CsrMatrix`]: the entries go straight into CSR
/// arrays, with no row array and no second copy.
///
/// Rows must arrive in non-decreasing order; entries within a row may be
/// in any column order. When a row closes its entries are sorted stably by
/// column and duplicate columns summed in push order — the per-row step of
/// [`CooBuilder::build`], so the two store the same bits for the same
/// entries.
#[derive(Debug, Clone)]
pub struct CsrBuilder<V> {
    nrows: usize,
    ncols: usize,
    /// Row offsets of the closed rows; the open row (`offsets.len() - 1`)
    /// holds the entries after the last of them in `cols`/`vals`, unmerged.
    offsets: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<V>,
    scratch: Vec<(usize, usize, V)>,
}

impl<V: Scalar> CsrBuilder<V> {
    /// A builder for a matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CsrBuilder { nrows, ncols, offsets: vec![0], cols: Vec::new(), vals: Vec::new(), scratch: Vec::new() }
    }

    /// Appends an entry. Bounds and row order are checked immediately.
    pub fn push(&mut self, row: usize, col: usize, value: V) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(MorpheusError::IndexOutOfBounds {
                index: (row, col),
                shape: (self.nrows, self.ncols),
            });
        }
        let open = self.offsets.len() - 1;
        if row < open {
            return Err(MorpheusError::InvalidStructure(format!(
                "row-ordered construction requires non-decreasing rows (row {row} after {open})"
            )));
        }
        self.close_rows_before(row);
        self.cols.push(col);
        self.vals.push(value);
        Ok(())
    }

    /// Closes every open row before `row`: sorts and merges the open row in
    /// place and records empty rows up to `row`.
    fn close_rows_before(&mut self, row: usize) {
        while self.offsets.len() - 1 < row {
            let start = *self.offsets.last().expect("offsets start at [0]");
            let len = sort_and_merge_row(&mut self.cols[start..], &mut self.vals[start..], &mut self.scratch);
            self.cols.truncate(start + len);
            self.vals.truncate(start + len);
            self.offsets.push(self.cols.len());
        }
    }

    /// Closes the remaining rows into a [`CsrMatrix`].
    pub fn build(mut self) -> CsrMatrix<V> {
        self.close_rows_before(self.nrows);
        CsrMatrix::from_parts(self.nrows, self.ncols, self.offsets, self.cols, self.vals)
            .expect("rows are closed in order, sorted and merged")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_merged() {
        let mut b = CooBuilder::<f64>::new(3, 3);
        b.push(2, 2, 1.0).unwrap();
        b.push(0, 0, 2.0).unwrap();
        b.push(2, 2, 3.0).unwrap();
        assert_eq!(b.len(), 3);
        let m = b.build();
        assert_eq!(m.nnz(), 2);
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 0, 2.0), (2, 2, 4.0)]);
    }

    #[test]
    fn rejects_out_of_bounds_immediately() {
        let mut b = CooBuilder::<f64>::new(2, 2);
        assert!(b.push(2, 0, 1.0).is_err());
        assert!(b.push(0, 2, 1.0).is_err());
        assert!(b.is_empty());
    }

    #[test]
    fn csr_builder_rejects_decreasing_rows_and_merges_duplicates() {
        let mut b = CsrBuilder::<f64>::new(4, 4);
        b.push(1, 2, 1.0).unwrap();
        assert!(matches!(b.push(0, 0, 1.0), Err(MorpheusError::InvalidStructure(_))));
        assert!(matches!(b.push(4, 0, 1.0), Err(MorpheusError::IndexOutOfBounds { .. })));
        assert!(matches!(b.push(1, 4, 1.0), Err(MorpheusError::IndexOutOfBounds { .. })));
        let mut b = CsrBuilder::<f64>::new(3, 4);
        b.push(1, 3, 1.0).unwrap();
        b.push(1, 1, 2.0).unwrap();
        b.push(1, 3, 0.5).unwrap();
        let m = b.build();
        assert_eq!(m.row_offsets(), &[0, 0, 2, 2], "empty leading and trailing rows");
        assert_eq!((m.col_indices(), m.values()), (&[1, 3][..], &[2.0, 1.5][..]), "duplicate columns merge");
    }

    /// Entries pushed row by row, columns in any order and repeated, build
    /// the CSR form of what `CooBuilder` builds from the same pushes, bit
    /// for bit.
    #[test]
    fn csr_builder_matches_coo_builder() {
        let m = crate::test_util::random_coo::<f64>(300, 200, 2_000, 7);
        let (mut coo, mut csr) = (CooBuilder::new(300, 200), CsrBuilder::new(300, 200));
        for (i, (r, c, v)) in m.iter().enumerate() {
            // Reversed column runs and every seventh entry pushed twice.
            let c = 199 - c;
            for _ in 0..1 + usize::from(i % 7 == 0) {
                coo.push(r, c, v).unwrap();
                csr.push(r, c, v).unwrap();
            }
        }
        let want = crate::DynamicMatrix::from(coo.build())
            .into_format(crate::FormatId::Csr, &crate::ConvertOptions::default())
            .unwrap();
        let crate::DynamicMatrix::Csr(want) = want else { unreachable!("converted to CSR") };
        let got = csr.build();
        assert_eq!(got, want);
        assert!(got.values().iter().zip(want.values()).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn with_capacity_builds_empty() {
        let b = CooBuilder::<f64>::with_capacity(4, 4, 16);
        let m = b.build();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.nrows(), 4);
    }
}
