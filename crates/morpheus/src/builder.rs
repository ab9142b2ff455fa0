//! Incremental COO construction.

use std::borrow::Cow;

use crate::coo::CooMatrix;
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
    fn with_capacity_builds_empty() {
        let b = CooBuilder::<f64>::with_capacity(4, 4, 16);
        let m = b.build();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.nrows(), 4);
    }
}
