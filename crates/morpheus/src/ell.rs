//! ELLPACK (ELL) format: a [`BellMatrix`] of one bucket.
//!
//! The paper's ELL (§II-B) pads every row to one width *K*. That is BELL's
//! slice-major layout with a single bucket, so ELL is stored as exactly
//! that — the same cells, the same pad rule (a short row repeats its own
//! last column with a zero value), the same 4-byte indices — and executed by
//! BELL's slice walker. HYB's ELL part is one too, at the split width. The
//! machine model prices ELL from the analysis, not from this layout.

use crate::bell::BellMatrix;
use crate::format::FormatId;
use crate::scalar::Scalar;
use crate::spmv::cpu_features::CpuFeatures;
use crate::Result;
use morpheus_parallel::ThreadPool;

/// ELLPACK-format sparse matrix (§II-B): every non-empty row padded to
/// `width` (the paper's *K*) entries.
///
/// The storage is a [`BellMatrix`] whose only bucket is `width` wide (no
/// bucket when every row is empty); the constructors make sure of it and
/// nothing mutates it afterwards. Rows without entries are in no bucket, so
/// [`EllMatrix::padded_len`] is `width` times the non-empty rows.
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix<V> {
    width: usize,
    bell: BellMatrix<V>,
}

impl<V: Scalar> EllMatrix<V> {
    /// An empty matrix of the given shape (width 0).
    pub fn new(nrows: usize, ncols: usize) -> Self {
        EllMatrix { width: 0, bell: BellMatrix::new(nrows, ncols) }
    }

    /// Builds the one bucket of `width` from the row runs `run(r)` =
    /// `(first entry, length)` in `cols`/`vals` (see
    /// [`BellMatrix::from_row_arrays`], which `guard`, `cpu` and `pool` are
    /// handed to).
    ///
    /// # Panics
    /// If a run is longer than `width` (a stale plan's width), before
    /// anything is allocated.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_runs(
        shape: (usize, usize),
        width: usize,
        run: impl Fn(usize) -> (usize, usize) + Sync,
        cols: &[usize],
        vals: &[V],
        guard: impl FnOnce(usize, usize) -> Result<()>,
        cpu: CpuFeatures,
        pool: Option<&ThreadPool>,
    ) -> Result<Self> {
        let longest = (0..shape.0).map(|r| run(r).1).max().unwrap_or(0);
        assert!(longest <= width, "a row of {longest} entries in an ELL of width {width}: stale analysis?");
        let bell = BellMatrix::from_row_arrays(shape, run, cols, vals, &[width], guard, cpu, pool)?;
        debug_assert!(bell.buckets().iter().all(|b| b.width() == width));
        Ok(EllMatrix { width, bell })
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.bell.nrows()
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.bell.ncols()
    }

    /// Structural non-zeros (excludes padding).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.bell.nnz()
    }

    /// Format identifier ([`FormatId::Ell`]).
    #[inline]
    pub fn format_id(&self) -> FormatId {
        FormatId::Ell
    }

    /// The fixed per-row entry budget (the paper's *K*).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Allocated slots including padding (`width` per non-empty row).
    #[inline]
    pub fn padded_len(&self) -> usize {
        self.bell.padded_len()
    }

    /// Bytes of heap storage the format occupies.
    pub fn storage_bytes(&self) -> usize {
        self.bell.storage_bytes()
    }

    /// The one-bucket BELL storage every kernel, walk and hash reads.
    #[inline]
    pub fn bell(&self) -> &BellMatrix<V> {
        &self.bell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bell::runs_of;
    use crate::rowmajor::RowMajor;

    fn sample() -> EllMatrix<f64> {
        // [1 2 0]
        // [0 3 0]
        // [4 0 5]
        let offsets = [0, 2, 3, 5];
        let (cols, vals) = ([0, 1, 1, 0, 2], [1.0, 2.0, 3.0, 4.0, 5.0]);
        EllMatrix::from_runs(
            (3, 3),
            2,
            runs_of(&offsets),
            &cols,
            &vals,
            |_, _| Ok(()),
            CpuFeatures::detect(),
            None,
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.width(), 2);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.padded_len(), 6);
        assert_eq!(m.bell().bucket_widths(), vec![2]);
        let row = |r: usize| m.bell().row_entries(r).collect::<Vec<_>>();
        assert_eq!(row(0), vec![(0, 1.0), (1, 2.0)]);
        assert_eq!(row(1), vec![(1, 3.0)], "a pad is not an entry");
        assert_eq!(RowMajor::row_count(m.bell(), 2), 2);
    }

    /// One bucket, or a panic: a width short of a row (a stale plan's) is
    /// refused before the builder would give that row a bucket of its own.
    #[test]
    #[should_panic(expected = "a row of 2 entries in an ELL of width 1")]
    fn a_row_longer_than_the_width_is_refused() {
        EllMatrix::<f64>::from_runs(
            (2, 2),
            1,
            runs_of(&[0, 2, 2]),
            &[0, 1],
            &[1.0, 2.0],
            |_, _| Ok(()),
            CpuFeatures::detect(),
            None,
        )
        .unwrap();
    }

    #[test]
    fn zero_width() {
        let m = EllMatrix::<f64>::new(3, 3);
        assert_eq!(m.width(), 0);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.padded_len(), 0);
        let empty = EllMatrix::<f64>::from_runs(
            (3, 3),
            0,
            runs_of(&[0; 4]),
            &[],
            &[],
            |_, _| Ok(()),
            CpuFeatures::detect(),
            None,
        )
        .unwrap();
        assert_eq!(empty, m);
    }
}
