//! Bucketed ELLPACK (BELL) format.
//!
//! Classic ELL pads every row to the *global* maximum width, so one heavy
//! row poisons the whole matrix. BELL bins rows into width buckets — each
//! bucket is an independent column-major ELL slab holding only the rows
//! assigned to it — so padding waste is bounded by the gap to the next
//! bucket width instead of the gap to the global maximum. Empty rows are
//! stored nowhere (kernels pre-zero the output).
//!
//! The bucket width list is the format's *parameter*: the default is the
//! power-of-two ladder, but the tuner may regress a custom ladder per
//! matrix (see `ConvertOptions::params`).

use crate::ell::ELL_PAD;
use crate::error::MorpheusError;
use crate::format::FormatId;
use crate::rowmajor::RowMajor;
use crate::scalar::Scalar;
use crate::Result;

/// One width bucket: an ELL slab over the subset of rows assigned to it.
///
/// `cols`/`vals` are column-major over the bucket's rows
/// (`cols[k * rows.len() + j]` is the `k`-th entry of `rows[j]`), padded
/// with [`ELL_PAD`] / `V::ZERO` exactly like [`crate::EllMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct BellBucket<V> {
    width: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<V>,
}

impl<V: Scalar> BellBucket<V> {
    /// Per-row entry budget of this bucket.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Global row indices stored in this bucket, strictly ascending.
    #[inline]
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Column-major column indices (`width * rows.len()`).
    #[inline]
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Column-major values (`width * rows.len()`).
    #[inline]
    pub fn vals(&self) -> &[V] {
        &self.vals
    }

    /// Allocated slots including padding.
    #[inline]
    pub fn padded_len(&self) -> usize {
        self.cols.len()
    }
}

/// Bucketed-ELL sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BellMatrix<V> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    buckets: Vec<BellBucket<V>>,
}

/// Rows per tile of the column-major slab fill in
/// [`BellMatrix::from_row_arrays`].
const FILL_TILE: usize = 16;

/// The default bucket ladder: powers of two up to (and covering) `max_width`.
pub fn default_bucket_widths(max_width: usize) -> Vec<usize> {
    let mut widths = Vec::new();
    let mut w = 1usize;
    while w < max_width {
        widths.push(w);
        w *= 2;
    }
    if max_width > 0 {
        widths.push(max_width.max(w.min(max_width)));
    }
    widths.dedup();
    widths
}

impl<V: Scalar> BellMatrix<V> {
    /// An empty matrix of the given shape (no buckets).
    pub fn new(nrows: usize, ncols: usize) -> Self {
        BellMatrix { nrows, ncols, nnz: 0, buckets: Vec::new() }
    }

    /// Builds from contiguous row-major arrays — `offsets` (`nrows + 1`
    /// entries) delimits each row's ascending-column run in `cols`/`vals`:
    /// CSR's own arrays, or a sorted COO matrix's after one histogram pass
    /// — with the given bucket width ladder (ascending upper bounds; a
    /// final bucket at the maximum row width is appended when the ladder
    /// does not cover it). An empty ladder selects
    /// [`default_bucket_widths`].
    pub(crate) fn from_row_arrays(
        nrows: usize,
        ncols: usize,
        offsets: &[usize],
        cols: &[usize],
        vals: &[V],
        widths: &[usize],
    ) -> Self {
        assert_eq!(offsets.len(), nrows + 1, "row offsets must delimit every row");
        let row_len = |r: usize| offsets[r + 1] - offsets[r];
        let max_width = (0..nrows).map(row_len).max().unwrap_or(0);
        let mut ladder: Vec<usize> = if widths.is_empty() {
            default_bucket_widths(max_width)
        } else {
            let mut l: Vec<usize> = widths.iter().copied().filter(|&w| w > 0).collect();
            l.sort_unstable();
            l.dedup();
            l
        };
        if ladder.last().copied().unwrap_or(0) < max_width {
            ladder.push(max_width);
        }
        // Row width -> the first bucket wide enough for it, tabulated once
        // so assigning a row is a load instead of a ladder search.
        let mut bucket_of = vec![0usize; max_width + 1];
        let mut b = 0usize;
        for (w, slot) in bucket_of.iter_mut().enumerate().skip(1) {
            while ladder[b] < w {
                b += 1;
            }
            *slot = b;
        }
        // Count, then place: every bucket's row list is allocated at its
        // final size. Empty rows are stored nowhere.
        let mut lens = vec![0usize; ladder.len()];
        for r in (0..nrows).filter(|&r| row_len(r) > 0) {
            lens[bucket_of[row_len(r)]] += 1;
        }
        let mut members: Vec<Vec<usize>> = lens.iter().map(|&n| Vec::with_capacity(n)).collect();
        for r in (0..nrows).filter(|&r| row_len(r) > 0) {
            members[bucket_of[row_len(r)]].push(r);
        }
        let mut buckets = Vec::new();
        for (b, rows) in members.into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let width = ladder[b];
            let len = rows.len();
            let mut bcols = vec![ELL_PAD; width * len];
            let mut bvals = vec![V::ZERO; width * len];
            // Column-major fill, a tile of rows at a time: entry `k` of the
            // tile's rows lands in adjacent slots, so each slab cache line
            // is written once, while the tile's source rows stream in
            // parallel.
            for (t, tile) in rows.chunks(FILL_TILE).enumerate() {
                let mut starts = [0usize; FILL_TILE];
                let mut counts = [0usize; FILL_TILE];
                for (i, &r) in tile.iter().enumerate() {
                    starts[i] = offsets[r];
                    counts[i] = row_len(r);
                }
                let tile_width = counts.iter().copied().max().unwrap_or(0);
                for k in 0..tile_width {
                    let base = k * len + t * FILL_TILE;
                    for i in (0..tile.len()).filter(|&i| k < counts[i]) {
                        bcols[base + i] = cols[starts[i] + k];
                        bvals[base + i] = vals[starts[i] + k];
                    }
                }
            }
            buckets.push(BellBucket { width, rows, cols: bcols, vals: bvals });
        }
        BellMatrix { nrows, ncols, nnz: offsets[nrows], buckets }
    }

    /// Builds from raw buckets, validating the layout: bucket widths
    /// strictly increasing, rows strictly ascending within a bucket and
    /// disjoint across buckets, per-row columns strictly increasing with
    /// padding only after real entries.
    pub fn from_parts(nrows: usize, ncols: usize, buckets: Vec<BellBucket<V>>) -> Result<Self> {
        let mut seen_rows = std::collections::BTreeSet::new();
        let mut prev_width = 0usize;
        let mut nnz = 0usize;
        for bucket in &buckets {
            if bucket.width <= prev_width && prev_width > 0 || bucket.width == 0 {
                return Err(MorpheusError::InvalidStructure(
                    "BELL bucket widths must be positive and strictly increasing".into(),
                ));
            }
            prev_width = bucket.width;
            let len = bucket.rows.len();
            if len == 0 || bucket.cols.len() != bucket.width * len || bucket.vals.len() != bucket.width * len
            {
                return Err(MorpheusError::InvalidStructure(format!(
                    "BELL bucket (width {}) has inconsistent array lengths",
                    bucket.width
                )));
            }
            let mut prev_row: Option<usize> = None;
            for &r in &bucket.rows {
                if r >= nrows || prev_row.is_some_and(|p| p >= r) || !seen_rows.insert(r) {
                    return Err(MorpheusError::InvalidStructure(format!(
                        "BELL bucket rows invalid or duplicated (row {r})"
                    )));
                }
                prev_row = Some(r);
            }
            for j in 0..len {
                let mut prev: Option<usize> = None;
                let mut padded = false;
                for k in 0..bucket.width {
                    let c = bucket.cols[k * len + j];
                    if c == ELL_PAD {
                        padded = true;
                        continue;
                    }
                    if padded || c >= ncols || prev.is_some_and(|p| p >= c) {
                        return Err(MorpheusError::InvalidStructure(format!(
                            "BELL bucket (width {}) row {}: invalid column layout",
                            bucket.width, bucket.rows[j]
                        )));
                    }
                    prev = Some(c);
                    nnz += 1;
                }
            }
        }
        Ok(BellMatrix { nrows, ncols, nnz, buckets })
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

    /// Structural non-zeros (excludes padding).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Format identifier ([`FormatId::Bell`]).
    #[inline]
    pub fn format_id(&self) -> FormatId {
        FormatId::Bell
    }

    /// The width buckets, ascending by width.
    #[inline]
    pub fn buckets(&self) -> &[BellBucket<V>] {
        &self.buckets
    }

    /// The bucket width ladder actually materialised.
    pub fn bucket_widths(&self) -> Vec<usize> {
        self.buckets.iter().map(|b| b.width).collect()
    }

    /// Total allocated slots including padding, across all buckets.
    pub fn padded_len(&self) -> usize {
        self.buckets.iter().map(|b| b.padded_len()).sum()
    }

    /// Bytes of heap storage the format occupies.
    pub fn storage_bytes(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| {
                (b.rows.len() + b.cols.len()) * std::mem::size_of::<usize>()
                    + b.vals.len() * std::mem::size_of::<V>()
            })
            .sum()
    }

    /// Locates row `r`: `(bucket index, position within the bucket)`, or
    /// `None` for empty rows.
    #[inline]
    pub(crate) fn locate_row(&self, r: usize) -> Option<(usize, usize)> {
        self.buckets
            .iter()
            .enumerate()
            .find_map(|(b, bucket)| bucket.rows.binary_search(&r).ok().map(|j| (b, j)))
    }

    /// Partitions the slabs into at most `parts` cell-balanced segments for
    /// threaded execution. Segment spans never overlap within a bucket and
    /// buckets hold disjoint rows, so every `y` element has one writer.
    pub(crate) fn segments(&self, parts: usize) -> Vec<BellSegment> {
        let total: usize = self.buckets.iter().map(BellBucket::padded_len).sum();
        if total == 0 {
            return Vec::new();
        }
        let target = total.div_ceil(parts.max(1)).max(1);
        let mut segs = Vec::new();
        for (b, bucket) in self.buckets.iter().enumerate() {
            let len = bucket.rows.len();
            if len == 0 {
                continue;
            }
            // Rows per segment so each carries ~`target` padded cells.
            let step = target.div_ceil(bucket.width.max(1)).max(1);
            let mut lo = 0;
            while lo < len {
                let hi = (lo + step).min(len);
                segs.push(BellSegment { bucket: b, span: lo..hi });
                lo = hi;
            }
        }
        segs
    }
}

/// A threaded-execution unit: a span of row positions inside one bucket's
/// slab. Spans from [`BellMatrix::segments`] are disjoint, so concurrent
/// segment execution has one writer per output row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BellSegment {
    pub(crate) bucket: usize,
    pub(crate) span: std::ops::Range<usize>,
}

impl<V: Scalar> RowMajor<V> for BellMatrix<V> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn row_count(&self, r: usize) -> usize {
        match self.locate_row(r) {
            None => 0,
            Some((b, j)) => {
                let bucket = &self.buckets[b];
                let len = bucket.rows.len();
                (0..bucket.width).take_while(|&k| bucket.cols[k * len + j] != ELL_PAD).count()
            }
        }
    }

    fn emit_row(&self, r: usize, f: &mut dyn FnMut(usize, V)) {
        if let Some((b, j)) = self.locate_row(r) {
            let bucket = &self.buckets[b];
            let len = bucket.rows.len();
            for k in 0..bucket.width {
                let c = bucket.cols[k * len + j];
                if c == ELL_PAD {
                    break;
                }
                f(c, bucket.vals[k * len + j]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::test_util::random_coo;

    fn bell_of(coo: &CooMatrix<f64>, widths: &[usize]) -> BellMatrix<f64> {
        let offsets = crate::convert::kernels::coo_row_offsets(coo.nrows(), coo.row_indices());
        BellMatrix::from_row_arrays(
            coo.nrows(),
            coo.ncols(),
            &offsets,
            coo.col_indices(),
            coo.values(),
            widths,
        )
    }

    #[test]
    fn default_ladder_is_powers_of_two_plus_max() {
        assert_eq!(default_bucket_widths(0), Vec::<usize>::new());
        assert_eq!(default_bucket_widths(1), vec![1]);
        assert_eq!(default_bucket_widths(5), vec![1, 2, 4, 5]);
        assert_eq!(default_bucket_widths(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn buckets_partition_the_nonempty_rows() {
        let coo = random_coo::<f64>(50, 40, 320, 7);
        let m = bell_of(&coo, &[]);
        assert_eq!(m.nnz(), coo.nnz());
        let total_rows: usize = m.buckets().iter().map(|b| b.rows().len()).sum();
        let nonempty = (0..50).filter(|&r| RowMajor::row_count(&coo, r) > 0).count();
        assert_eq!(total_rows, nonempty);
        // Padding never exceeds the bucket-width granularity.
        for b in m.buckets() {
            for (j, &r) in b.rows().iter().enumerate() {
                let n = RowMajor::row_count(&coo, r);
                assert!(n <= b.width(), "row {r} overflows its bucket");
                let stored =
                    (0..b.width()).take_while(|&k| b.cols()[k * b.rows().len() + j] != ELL_PAD).count();
                assert_eq!(stored, n);
            }
        }
    }

    #[test]
    fn rowmajor_walk_matches_source() {
        let coo = random_coo::<f64>(45, 33, 260, 13);
        let expect: Vec<(usize, usize, f64)> = coo.iter().collect();
        for widths in [vec![], vec![3, 9], vec![1, 2, 4, 8, 16]] {
            let m = bell_of(&coo, &widths);
            let mut got = Vec::new();
            for r in 0..RowMajor::nrows(&m) {
                m.emit_row(r, &mut |c, v| got.push((r, c, v)));
            }
            assert_eq!(got, expect, "widths {widths:?}");
        }
    }

    #[test]
    fn custom_ladder_is_extended_to_cover_the_max() {
        let coo = random_coo::<f64>(30, 30, 200, 5);
        let max = (0..30).map(|r| RowMajor::row_count(&coo, r)).max().unwrap();
        let m = bell_of(&coo, &[2]);
        assert!(m.bucket_widths().last().copied().unwrap() >= max);
        assert_eq!(m.nnz(), coo.nnz());
    }

    #[test]
    fn from_parts_validates_and_roundtrips() {
        let coo = random_coo::<f64>(25, 25, 120, 2);
        let m = bell_of(&coo, &[]);
        let rebuilt = BellMatrix::from_parts(25, 25, m.buckets().to_vec()).unwrap();
        assert_eq!(rebuilt, m);

        // Duplicated row across buckets.
        let mut bad = m.buckets().to_vec();
        if bad.len() >= 2 {
            let r = bad[0].rows[0];
            bad[1].rows[0] = r;
            assert!(BellMatrix::from_parts(25, 25, bad).is_err());
        }
    }

    #[test]
    fn empty_matrix_and_empty_rows() {
        let m = BellMatrix::<f64>::new(8, 8);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.buckets().len(), 0);
        assert_eq!(RowMajor::row_count(&m, 3), 0);
    }
}
