//! Bucketed ELLPACK (BELL) format.
//!
//! Classic ELL pads every row to the *global* maximum width, so one heavy
//! row poisons the whole matrix. BELL bins rows into width buckets — each
//! bucket is an independent column-major ELL slab holding only the rows
//! assigned to it — so padding waste is bounded by the gap to the next
//! bucket width instead of the gap to the global maximum. Empty rows are in no
//! bucket; the matrix lists them as runs, and they are all a kernel zeroes.
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
use morpheus_parallel::static_partition;
use std::ops::Range;

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
    /// Maximal runs of the rows stored in no bucket, ascending.
    empty_rows: Vec<Range<usize>>,
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
        let empty_rows = Vec::from_iter((nrows > 0).then_some(0..nrows));
        BellMatrix { nrows, ncols, nnz: 0, buckets: Vec::new(), empty_rows }
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
        // final size. Empty rows go to no bucket, only into the run list.
        let mut lens = vec![0usize; ladder.len()];
        let mut empty_rows: Vec<Range<usize>> = Vec::new();
        for r in 0..nrows {
            match (row_len(r), empty_rows.last_mut()) {
                (0, Some(run)) if run.end == r => run.end = r + 1,
                (0, _) => empty_rows.push(r..r + 1),
                (n, _) => lens[bucket_of[n]] += 1,
            }
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
        BellMatrix { nrows, ncols, nnz: offsets[nrows], buckets, empty_rows }
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
        // The gaps between stored rows are the empty runs.
        let mut empty_rows = Vec::new();
        let mut next = 0usize;
        for &r in seen_rows.iter().chain(std::iter::once(&nrows)) {
            if r > next {
                empty_rows.push(next..r);
            }
            next = r + 1;
        }
        Ok(BellMatrix { nrows, ncols, nnz, buckets, empty_rows })
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
            .sum::<usize>()
            + std::mem::size_of_val(self.empty_rows.as_slice())
    }

    /// The maximal runs of rows stored in no bucket, clipped to `rows`.
    pub(crate) fn empty_rows_in(&self, rows: Range<usize>) -> impl Iterator<Item = Range<usize>> + '_ {
        let first = self.empty_rows.partition_point(|run| run.end <= rows.start);
        self.empty_rows[first..]
            .iter()
            .take_while(move |run| run.start < rows.end)
            .map(move |run| run.start.max(rows.start)..run.end.min(rows.end))
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

    /// Splits a threaded execution into exactly `parts` shares, one per pool
    /// index, balanced by padded cells: the slabs are laid end to end and a
    /// row goes to the share whose `1/parts` of that stream holds the row's
    /// middle cell, so a share is at most half a row off its quota (a bucket
    /// of one over-wide row lands whole in one share; a share may be empty).
    /// Spans never overlap within a bucket and buckets hold disjoint rows, so
    /// every stored row has one writer; each empty row has one too, the share
    /// whose `rows` contain it.
    pub(crate) fn shares(&self, parts: usize) -> Vec<BellShare> {
        let parts = parts.max(1);
        let rows = static_partition(self.nrows, parts);
        let mut shares: Vec<BellShare> = (0..parts)
            .map(|p| BellShare { segs: Vec::new(), rows: rows.get(p).cloned().unwrap_or(0..0) })
            .collect();
        let total = self.padded_len();
        let mut base = 0usize; // cells of the buckets before this one
        for (b, bucket) in self.buckets.iter().enumerate() {
            let (len, width) = (bucket.rows.len(), bucket.width);
            let mut lo = 0usize;
            for (p, share) in shares.iter_mut().enumerate() {
                // Row `j` has its middle at `base + j*width + width/2`; count
                // the rows whose middle lies before the end of share `p`.
                let quota = total * (p + 1) / parts;
                let before_quota = (2 * quota).saturating_sub(2 * base + width).div_ceil(2 * width);
                let hi = if p + 1 == parts { len } else { before_quota.clamp(lo, len) };
                if hi > lo {
                    share.segs.push(BellSegment { bucket: b, span: lo..hi });
                    lo = hi;
                }
            }
            base += len * width;
        }
        shares
    }
}

/// A span of row positions inside one bucket's slab.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BellSegment {
    pub(crate) bucket: usize,
    pub(crate) span: Range<usize>,
}

/// One pool index's share of a threaded execution (see
/// [`BellMatrix::shares`]): the slab spans it computes, and the row range
/// whose empty rows ([`BellMatrix::empty_rows_in`]) it zeroes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BellShare {
    pub(crate) segs: Vec<BellSegment>,
    pub(crate) rows: Range<usize>,
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
        assert_eq!(m.empty_rows_in(2..5).collect::<Vec<_>>(), vec![2..5]);
    }

    #[test]
    fn empty_runs_are_the_rows_in_no_bucket() {
        // Rows 0, 3, 4 and 9 are empty.
        let rows = [1usize, 2, 2, 5, 6, 7, 8, 8, 8];
        let cols = [0usize, 0, 1, 3, 3, 3, 0, 1, 2];
        let coo = CooMatrix::from_triplets(10, 4, &rows, &cols, &[1.0f64; 9]).unwrap();
        let m = bell_of(&coo, &[]);
        assert_eq!(m.empty_rows_in(0..10).collect::<Vec<_>>(), vec![0..1, 3..5, 9..10]);
        assert_eq!(m.empty_rows_in(4..9).collect::<Vec<_>>(), vec![4..5]);
        assert_eq!(m.empty_rows_in(5..9).count(), 0);
        // `from_parts` derives the same runs from the buckets alone.
        assert_eq!(BellMatrix::from_parts(10, 4, m.buckets().to_vec()).unwrap(), m);
    }

    #[test]
    fn shares_tile_every_bucket_and_balance_cells() {
        let coo = random_coo::<f64>(400, 300, 6000, 3);
        for widths in [vec![], vec![64], vec![2, 5, 9, 14, 20, 27, 35]] {
            let m = bell_of(&coo, &widths);
            let widest = m.bucket_widths().into_iter().max().unwrap();
            for parts in 1..=6 {
                let shares = m.shares(parts);
                assert_eq!(shares.len(), parts, "one share per pool index");
                let mut next = vec![0usize; m.buckets().len()];
                let mut cells = Vec::new();
                for share in &shares {
                    cells.push(share.segs.iter().map(|s| s.span.len() * m.buckets()[s.bucket].width()).sum());
                    for s in &share.segs {
                        assert_eq!(s.span.start, next[s.bucket], "spans tile each bucket in order");
                        next[s.bucket] = s.span.end;
                    }
                }
                assert!(next.iter().zip(m.buckets()).all(|(&n, b)| n == b.rows().len()));
                let quota = m.padded_len() / parts;
                let ok = cells.iter().all(|&c: &usize| c.abs_diff(quota) <= widest + 1);
                assert!(ok, "widths {widths:?} x{parts}: {cells:?} vs quota {quota}");
                let zeroed: usize = shares.iter().map(|s| s.rows.len()).sum();
                assert_eq!(zeroed, 400, "row ranges tile the rows");
            }
        }
    }
}
