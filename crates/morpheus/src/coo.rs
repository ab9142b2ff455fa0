//! Coordinate (COO) format.

use std::borrow::Cow;

use crate::convert::kernels::coo_row_offsets;
use crate::error::MorpheusError;
use crate::format::FormatId;
use crate::scalar::Scalar;
use crate::Result;

/// Coordinate-format sparse matrix (§II-B).
///
/// Each non-zero is stored as an explicit `(row, col, value)` triplet across
/// three parallel arrays. The paper notes COO gives "no guarantees in the
/// ordering of the elements"; this implementation *does* maintain the
/// invariant that entries are sorted by `(row, col)` with no duplicates,
/// which every constructor establishes. Sortedness is what lets the threaded
/// SpMV kernel partition entries at row boundaries without atomics.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<V> {
    nrows: usize,
    ncols: usize,
    row_indices: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<V>,
}

impl<V: Scalar> CooMatrix<V> {
    /// An empty matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix { nrows, ncols, row_indices: Vec::new(), col_indices: Vec::new(), values: Vec::new() }
    }

    /// Builds from triplet arrays: entries are ordered by `(row, col)` and
    /// duplicate coordinates are summed (the SuiteSparse convention for
    /// assembled matrices) in push order — `v₀ + v₁ + v₂ …` left to right,
    /// in the order the triplets appear in the arrays, so assembling the
    /// same triplets always stores the same bits.
    ///
    /// Linear time: a counting sort by row (skipped when the rows are
    /// already non-decreasing), then a stable sort of the columns of only
    /// those rows whose columns are not strictly increasing, then one
    /// in-place merge of the duplicates. It allocates the three output
    /// arrays and `nrows + 1` row offsets; [`crate::CooBuilder::build`]
    /// runs the same assembly in the builder's own arrays.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: &[usize],
        cols: &[usize],
        vals: &[V],
    ) -> Result<Self> {
        if rows.len() != cols.len() || rows.len() != vals.len() {
            return Err(MorpheusError::InvalidStructure(format!(
                "triplet arrays disagree in length: rows={}, cols={}, vals={}",
                rows.len(),
                cols.len(),
                vals.len()
            )));
        }
        for (&r, &c) in rows.iter().zip(cols) {
            if r >= nrows || c >= ncols {
                return Err(MorpheusError::IndexOutOfBounds { index: (r, c), shape: (nrows, ncols) });
            }
        }
        Ok(Self::assemble(nrows, ncols, Cow::Borrowed(rows), Cow::Borrowed(cols), Cow::Borrowed(vals)))
    }

    /// The one assembly routine behind [`CooMatrix::from_triplets`] and
    /// [`crate::CooBuilder::build`]; every index must be in bounds and the
    /// three arrays of one length. Owned arrays are reused in place, so the
    /// builder's assembly copies nothing it does not have to move.
    ///
    /// 1. Row order: row offsets straight from the rows when they are
    ///    non-decreasing, else a count per row, its exclusive prefix and a
    ///    stable scatter of columns and values into two new arrays.
    /// 2. Per row, [`sort_and_merge_row`]: rows whose columns are strictly
    ///    increasing are left alone; the others are sorted stably by column
    ///    and their duplicates summed in push order, compacted in place.
    /// 3. The row array is rewritten from the merged offsets.
    pub(crate) fn assemble(
        nrows: usize,
        ncols: usize,
        rows: Cow<'_, [usize]>,
        cols: Cow<'_, [usize]>,
        vals: Cow<'_, [V]>,
    ) -> Self {
        let (mut offsets, mut cols, mut vals) = if rows.is_sorted() {
            (coo_row_offsets(nrows, &rows), cols.into_owned(), vals.into_owned())
        } else {
            scatter_by_row(nrows, &rows, &cols, &vals)
        };
        let mut scratch = Vec::new();
        let (mut start, mut merged) = (0, 0);
        for r in 0..nrows {
            let end = offsets[r + 1];
            let len = sort_and_merge_row(&mut cols[start..end], &mut vals[start..end], &mut scratch);
            if merged != start {
                cols.copy_within(start..start + len, merged);
                vals.copy_within(start..start + len, merged);
            }
            merged += len;
            offsets[r + 1] = merged;
            start = end;
        }
        cols.truncate(merged);
        vals.truncate(merged);
        let mut rows = match rows {
            Cow::Owned(mut rows) => {
                rows.clear();
                rows
            }
            Cow::Borrowed(_) => Vec::with_capacity(merged),
        };
        for (r, &end) in offsets[1..].iter().enumerate() {
            rows.resize(end, r);
        }
        CooMatrix::from_sorted_parts_unchecked(nrows, ncols, rows, cols, vals)
    }

    /// Builds from already-sorted, duplicate-free parts without re-sorting.
    /// Validates the invariants and rejects violations.
    pub fn from_sorted_parts(
        nrows: usize,
        ncols: usize,
        row_indices: Vec<usize>,
        col_indices: Vec<usize>,
        values: Vec<V>,
    ) -> Result<Self> {
        if row_indices.len() != col_indices.len() || row_indices.len() != values.len() {
            return Err(MorpheusError::InvalidStructure("COO arrays disagree in length".into()));
        }
        for i in 0..row_indices.len() {
            let (r, c) = (row_indices[i], col_indices[i]);
            if r >= nrows || c >= ncols {
                return Err(MorpheusError::IndexOutOfBounds { index: (r, c), shape: (nrows, ncols) });
            }
            if i > 0 {
                let prev = (row_indices[i - 1], col_indices[i - 1]);
                if prev >= (r, c) {
                    return Err(MorpheusError::InvalidStructure(format!(
                        "COO entries not strictly sorted at position {i}: {prev:?} >= {:?}",
                        (r, c)
                    )));
                }
            }
        }
        Ok(CooMatrix { nrows, ncols, row_indices, col_indices, values })
    }

    /// Builds from sorted, duplicate-free parts the caller guarantees are
    /// valid (conversion kernels produce them correct by construction).
    /// Debug builds run the full [`CooMatrix::from_sorted_parts`]
    /// validation; release builds skip the O(nnz) re-validation pass.
    pub(crate) fn from_sorted_parts_unchecked(
        nrows: usize,
        ncols: usize,
        row_indices: Vec<usize>,
        col_indices: Vec<usize>,
        values: Vec<V>,
    ) -> Self {
        #[cfg(debug_assertions)]
        {
            Self::from_sorted_parts(nrows, ncols, row_indices, col_indices, values)
                .expect("conversion kernel produced invalid COO")
        }
        #[cfg(not(debug_assertions))]
        {
            CooMatrix { nrows, ncols, row_indices, col_indices, values }
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Format identifier ([`FormatId::Coo`]).
    #[inline]
    pub fn format_id(&self) -> FormatId {
        FormatId::Coo
    }

    /// Row index array.
    #[inline]
    pub fn row_indices(&self) -> &[usize] {
        &self.row_indices
    }

    /// Column index array.
    #[inline]
    pub fn col_indices(&self) -> &[usize] {
        &self.col_indices
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Iterator over `(row, col, value)` triplets in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, V)> + '_ {
        (0..self.nnz()).map(move |i| (self.row_indices[i], self.col_indices[i], self.values[i]))
    }

    /// Bytes of heap storage the format occupies (used by the cost models).
    pub fn storage_bytes(&self) -> usize {
        self.nnz() * (2 * std::mem::size_of::<usize>() + std::mem::size_of::<V>())
    }

    /// Consumes the matrix, returning `(nrows, ncols, rows, cols, values)`.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<V>) {
        (self.nrows, self.ncols, self.row_indices, self.col_indices, self.values)
    }

    /// The transpose `Aᵀ` (entries re-sorted into the COO invariant).
    pub fn transpose(&self) -> CooMatrix<V> {
        CooMatrix::from_triplets(self.ncols, self.nrows, &self.col_indices, &self.row_indices, &self.values)
            .expect("transposing in-bounds entries stays in bounds")
    }
}

/// Rows up to this long have their columns sorted by insertion sort in
/// place; a longer row goes through the caller's scratch buffer.
const INSERTION_SORT_MAX: usize = 32;

/// Step 1 of [`CooMatrix::assemble`] for rows out of order: counts the
/// entries of each row, takes the exclusive prefix, and scatters columns
/// and values stably (input order within a row) into two new arrays.
/// Returns the row offsets (`nrows + 1`) with the scattered arrays.
fn scatter_by_row<V: Scalar>(
    nrows: usize,
    rows: &[usize],
    cols: &[usize],
    vals: &[V],
) -> (Vec<usize>, Vec<usize>, Vec<V>) {
    // Row `r`'s count lands two slots up, so after the prefix sum
    // `offsets[r + 1]` is the start of row `r`: the scatter's cursor for
    // that row, which it leaves at the row's end — the final offset.
    let mut offsets = vec![0usize; nrows + 1];
    for &r in rows {
        if let Some(slot) = offsets.get_mut(r + 2) {
            *slot += 1;
        }
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut scattered_cols = vec![0usize; rows.len()];
    let mut scattered_vals = vec![V::ZERO; rows.len()];
    for ((&r, &c), &v) in rows.iter().zip(cols).zip(vals) {
        let at = offsets[r + 1];
        offsets[r + 1] += 1;
        scattered_cols[at] = c;
        scattered_vals[at] = v;
    }
    (offsets, scattered_cols, scattered_vals)
}

/// Sorts one row's entries stably by column and sums duplicate columns in
/// push order, in place; returns the merged length (the row's first
/// `len` entries hold the result). A row whose columns are already
/// strictly increasing is returned untouched. Rows up to
/// [`INSERTION_SORT_MAX`] entries are insertion-sorted; a longer row is
/// sorted through `scratch`, one buffer the caller reuses across rows.
///
/// The one per-row sort-and-merge of the crate: [`CooMatrix::assemble`]
/// and [`crate::CsrBuilder`]'s row close both call it, so every front door
/// sums duplicates in the same order.
#[inline]
pub(crate) fn sort_and_merge_row<V: Scalar>(
    cols: &mut [usize],
    vals: &mut [V],
    scratch: &mut Vec<(usize, usize, V)>,
) -> usize {
    debug_assert_eq!(cols.len(), vals.len());
    if cols.windows(2).all(|w| w[0] < w[1]) {
        return cols.len();
    }
    if cols.len() <= INSERTION_SORT_MAX {
        for i in 1..cols.len() {
            let (c, v) = (cols[i], vals[i]);
            let mut j = i;
            while j > 0 && cols[j - 1] > c {
                cols[j] = cols[j - 1];
                vals[j] = vals[j - 1];
                j -= 1;
            }
            cols[j] = c;
            vals[j] = v;
        }
    } else if !cols.is_sorted() {
        // Keyed by (column, position): unique keys, so the unstable sort
        // keeps push order among equal columns and allocates nothing.
        scratch.clear();
        scratch.extend(cols.iter().zip(vals.iter()).enumerate().map(|(i, (&c, &v))| (c, i, v)));
        scratch.sort_unstable_by_key(|&(c, i, _)| (c, i));
        for ((c, v), &(sc, _, sv)) in cols.iter_mut().zip(vals.iter_mut()).zip(scratch.iter()) {
            *c = sc;
            *v = sv;
        }
    }
    let mut last = 0;
    for i in 1..cols.len() {
        if cols[i] == cols[last] {
            let v = vals[i];
            vals[last] += v;
        } else {
            last += 1;
            cols[last] = cols[i];
            vals[last] = vals[i];
        }
    }
    last + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_sorts_and_sums_duplicates() {
        let m = CooMatrix::<f64>::from_triplets(3, 3, &[2, 0, 0, 2], &[1, 2, 2, 1], &[1.0, 2.0, 3.0, 4.0])
            .unwrap();
        assert_eq!(m.nnz(), 2);
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 2, 5.0), (2, 1, 5.0)]);
    }

    #[test]
    fn rejects_out_of_bounds() {
        let err = CooMatrix::<f64>::from_triplets(2, 2, &[2], &[0], &[1.0]).unwrap_err();
        assert!(matches!(err, MorpheusError::IndexOutOfBounds { .. }));
        let err = CooMatrix::<f64>::from_triplets(2, 2, &[0], &[5], &[1.0]).unwrap_err();
        assert!(matches!(err, MorpheusError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn rejects_length_mismatch() {
        let err = CooMatrix::<f64>::from_triplets(2, 2, &[0, 1], &[0], &[1.0]).unwrap_err();
        assert!(matches!(err, MorpheusError::InvalidStructure(_)));
    }

    #[test]
    fn from_sorted_parts_validates_order() {
        let err =
            CooMatrix::<f64>::from_sorted_parts(2, 2, vec![1, 0], vec![0, 0], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, MorpheusError::InvalidStructure(_)));
        // Duplicates also rejected.
        let err =
            CooMatrix::<f64>::from_sorted_parts(2, 2, vec![0, 0], vec![1, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, MorpheusError::InvalidStructure(_)));
    }

    #[test]
    fn empty_matrix() {
        let m = CooMatrix::<f64>::new(5, 7);
        assert_eq!(m.nrows(), 5);
        assert_eq!(m.ncols(), 7);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn storage_bytes_counts_triplets() {
        let m = CooMatrix::<f64>::from_triplets(2, 2, &[0, 1], &[0, 1], &[1.0, 2.0]).unwrap();
        assert_eq!(m.storage_bytes(), 2 * (8 + 8 + 8));
    }
}
