//! Bucketed ELLPACK (BELL) format.
//!
//! Classic ELL pads every row to the *global* maximum width, so one heavy
//! row poisons the whole matrix. BELL bins rows into width buckets — each
//! bucket holds only the rows assigned to it, padded to the bucket's width —
//! so padding waste is bounded by the gap to the next bucket width instead
//! of the gap to the global maximum. Empty rows are in no bucket; the matrix
//! lists them as runs, and they are all a kernel zeroes.
//!
//! The bucket width list is the format's *parameter*: the default is the
//! power-of-two ladder, but a tuning decision may propose a custom ladder
//! per matrix (see `ConvertOptions::params`).
//!
//! # Layout: slice-major
//!
//! A bucket's rows are cut into *slices* of [`SLICE`] = 8 consecutive row
//! positions; a slice stores its cells k-major — the eight rows' `k`-th
//! entries side by side — so a kernel that keeps eight rows in flight reads
//! one contiguous stream of `cols` and one of `vals`, and a k-level is one
//! vector load. The last `len % 8` rows form one *ragged* slice at its own
//! stride; it is never padded out to eight lanes, so a bucket holds exactly
//! `width * len` cells whatever its row count. A width-3 bucket of 11 rows:
//!
//! ```text
//!            full slice (rows 0..8)              ragged slice (rows 8..11)
//!  cols = [ c00 c10 c20 c30 c40 c50 c60 c70      c80 c90 cA0
//!           c01 c11 c21 c31 c41 c51 c61 c71      c81 c91 cA1
//!           c02 c12 c22 c32 c42 c52 c62 c72 ]  [ c82 c92 cA2 ]
//!           └──── 8 lanes per k-level ────┘      └ 3 lanes ┘
//! ```
//!
//! (`cjk` = column of entry `k` of the row at position `j`; `vals` has the
//! same shape.) Slice `s` therefore occupies cells
//! `8·s·width .. min(8·(s+1), len)·width`.
//!
//! # The pad rule
//!
//! A row shorter than its bucket's width fills the remaining slots with
//! **its own last real column** and `V::ZERO`. A kernel needs no pad test:
//! a pad multiplies zero into an `x` element the row already reads, and
//! never touches a column the row does not own. Because real columns
//! strictly ascend, the first repeated column marks the start of a row's
//! pads — that is how `RowMajor` recovers the row without a sentinel.
//!
//! # Invariants
//!
//! Both constructors (`BellMatrix::from_row_arrays`,
//! [`BellMatrix::from_parts`]) establish them; the fields are private and
//! nothing mutates them afterwards. The SpMV walker (`crate::spmv::bell`)
//! rests its unchecked `x` loads on (3):
//!
//! 1. every bucket has `width >= 1`, at least one row, and
//!    `cols.len() == vals.len() == width * rows.len()`;
//! 2. every stored row index is `< nrows`; rows ascend strictly within a
//!    bucket and no row is in two buckets;
//! 3. every stored column index — pads included, since a pad repeats a real
//!    column — is `< ncols`;
//! 4. per row, columns ascend strictly through the real entries and then
//!    repeat the last one, with `V::ZERO` values, to the bucket's width;
//! 5. `nrows - 1` and `ncols - 1` fit in `u32` (the index type stored).
//!
//! Values are stored at `V`'s width and indices at 4 bytes: an `f64` cell is
//! 12 bytes where the `usize` layout took 16.

use crate::convert::kernels::PARALLEL_CONVERT_THRESHOLD;
use crate::error::MorpheusError;
use crate::format::FormatId;
use crate::rowmajor::RowMajor;
use crate::scalar::Scalar;
use crate::spmv::cpu_features::CpuFeatures;
use crate::Result;
use morpheus_parallel::{static_partition, ThreadPool};
use std::ops::Range;

mod fill;

/// Rows per slice: the number of rows a kernel keeps in flight, and the
/// lane count of every k-level except in a bucket's ragged last slice.
pub const SLICE: usize = 8;

/// One width bucket: the rows assigned to it, padded to `width` entries and
/// stored slice-major (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct BellBucket<V> {
    width: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<V>,
}

/// Consecutive slices of one bucket, as handed to the kernels.
///
/// Every accessor on the kernels' path ([`BellBucket::span`],
/// [`BellSpan::full_slices`], [`BellSpan::ragged`], [`BellSlice::levels`],
/// [`BellSlice::lane`]) is `#[inline(always)]`: they open the SpMV and SpMM
/// slice loops, and left to the inliner's heuristic `full_slices` came out
/// as a call in some builds of the same kernel source (edits elsewhere in
/// the crate graph were enough) at 7 % of `ingress_burst`'s throughput.
pub(crate) struct BellSpan<'a, V> {
    width: usize,
    rows: &'a [u32],
    cols: &'a [u32],
    vals: &'a [V],
}

/// One slice: the global rows of its lanes and its `width` k-levels. The
/// order of cells inside a slice is this module's alone; kernels read them
/// through [`BellSlice::levels`] and [`BellSlice::lane`].
pub(crate) struct BellSlice<'a, V> {
    pub(crate) rows: &'a [u32],
    cols: &'a [u32],
    vals: &'a [V],
}

impl<'a, V: Copy> BellSlice<'a, V> {
    /// The k-levels in ascending `k`, each the column indices and values of
    /// the `L` lanes side by side. `L` must be the slice's lane count.
    #[inline(always)]
    pub(crate) fn levels<const L: usize>(&self) -> impl Iterator<Item = (&'a [u32; L], &'a [V; L])> {
        debug_assert_eq!(self.rows.len(), L);
        self.cols.as_chunks::<L>().0.iter().zip(self.vals.as_chunks::<L>().0)
    }

    /// All `width` cells — pads included — of lane `l`, in ascending `k`.
    #[inline(always)]
    pub(crate) fn lane(&self, l: usize) -> impl Iterator<Item = (u32, V)> + 'a {
        let lanes = self.rows.len();
        let (cols, vals) = (self.cols[l..].iter().step_by(lanes), self.vals[l..].iter().step_by(lanes));
        cols.zip(vals).map(|(&c, &v)| (c, v))
    }
}

impl<'a, V> BellSpan<'a, V> {
    /// The span's full slices: [`SLICE`] rows and `SLICE * width` cells each.
    #[inline(always)]
    pub(crate) fn full_slices(&self) -> impl Iterator<Item = BellSlice<'a, V>> {
        let cells = SLICE * self.width;
        let rows = self.rows.chunks_exact(SLICE);
        rows.zip(self.cols.chunks_exact(cells))
            .zip(self.vals.chunks_exact(cells))
            .map(|((rows, cols), vals)| BellSlice { rows, cols, vals })
    }

    /// The bucket's ragged last slice when the span ends in it: fewer than
    /// [`SLICE`] rows, stored at a stride of their own count.
    #[inline(always)]
    pub(crate) fn ragged(&self) -> Option<BellSlice<'a, V>> {
        let full = self.rows.len() - self.rows.len() % SLICE;
        let cells = full * self.width;
        (full < self.rows.len()).then(|| BellSlice {
            rows: &self.rows[full..],
            cols: &self.cols[cells..],
            vals: &self.vals[cells..],
        })
    }
}

impl<V: Scalar> BellBucket<V> {
    /// Per-row entry budget of this bucket.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Global row indices stored in this bucket, strictly ascending.
    #[inline]
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Slice-major column indices (`width * rows.len()`, pads repeating the
    /// row's last real column).
    #[inline]
    pub fn cols(&self) -> &[u32] {
        &self.cols
    }

    /// Slice-major values (`width * rows.len()`, pads zero).
    #[inline]
    pub fn vals(&self) -> &[V] {
        &self.vals
    }

    /// Allocated slots including padding.
    #[inline]
    pub fn padded_len(&self) -> usize {
        self.cols.len()
    }

    /// Slices the bucket is stored in: `rows.len() / SLICE` full ones plus
    /// the ragged one, if any.
    #[inline]
    pub fn num_slices(&self) -> usize {
        self.rows.len().div_ceil(SLICE)
    }

    /// Slices `slices` of the bucket.
    ///
    /// # Panics
    /// If `slices` reaches past [`BellBucket::num_slices`].
    #[inline(always)]
    pub(crate) fn span(&self, slices: Range<usize>) -> BellSpan<'_, V> {
        assert!(slices.end <= self.num_slices(), "slices {slices:?} past the bucket's {}", self.num_slices());
        let rows = slices.start * SLICE..(slices.end * SLICE).min(self.rows.len());
        let cells = rows.start * self.width..rows.end * self.width;
        BellSpan {
            width: self.width,
            rows: &self.rows[rows],
            cols: &self.cols[cells.clone()],
            vals: &self.vals[cells],
        }
    }

    /// Index in `cols`/`vals` of cell `k` of the row at position `j`, for the
    /// tests that corrupt one cell.
    #[cfg(test)]
    fn cell(&self, j: usize, k: usize) -> usize {
        let first = j - j % SLICE;
        let lanes = SLICE.min(self.rows.len() - first);
        first * self.width + k * lanes + (j - first)
    }

    /// All `width` cells — pads included — of the row at position `j`, in
    /// `k` order, whatever the slice height.
    pub(crate) fn row_cells(&self, j: usize) -> impl Iterator<Item = (u32, V)> + '_ {
        let span = self.span(j / SLICE..j / SLICE + 1);
        let slice = span.full_slices().next().or_else(|| span.ragged()).expect("a span of one slice");
        slice.lane(j % SLICE)
    }

    /// Folds each stored row's column indices — pads included, in `k` order
    /// — from `init` with `step` and hands `emit` the row and the result, in
    /// position order. A full slice folds its eight rows side by side.
    pub(crate) fn fold_row_cols<S: Copy>(
        &self,
        init: S,
        step: impl Fn(S, u32) -> S,
        mut emit: impl FnMut(u32, S),
    ) {
        let span = self.span(0..self.num_slices());
        for slice in span.full_slices() {
            let mut acc = [init; SLICE];
            for (c, _) in slice.levels::<SLICE>() {
                for l in 0..SLICE {
                    acc[l] = step(acc[l], c[l]);
                }
            }
            slice.rows.iter().zip(acc).for_each(|(&r, s)| emit(r, s));
        }
        if let Some(slice) = span.ragged() {
            for (l, &r) in slice.rows.iter().enumerate() {
                emit(r, slice.lane(l).fold(init, |s, (c, _)| step(s, c)));
            }
        }
    }

    /// The real entries of the row at position `j`: columns ascend strictly
    /// through them, so the first repeat is the first pad.
    fn row_entries(&self, j: usize) -> impl Iterator<Item = (usize, V)> + '_ {
        let mut prev = None;
        self.row_cells(j).take_while(move |&(c, _)| prev.replace(c) != Some(c)).map(|(c, v)| (c as usize, v))
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

/// The rows of contiguous row-major arrays (`offsets`, `nrows + 1` entries)
/// as the runs [`BellMatrix::from_row_arrays`] reads.
pub(crate) fn runs_of(offsets: &[usize]) -> impl Fn(usize) -> (usize, usize) + '_ {
    |r| (offsets[r], offsets[r + 1] - offsets[r])
}

/// Invariant 5: every row and column index of an `nrows x ncols` matrix must
/// fit the 4-byte index the buckets store.
fn check_index_width(nrows: usize, ncols: usize) -> Result<()> {
    let limit = u32::MAX as usize;
    match [nrows, ncols].into_iter().find(|&dim| dim.saturating_sub(1) > limit) {
        Some(dim) => Err(MorpheusError::IndexOverflow { dim, limit }),
        None => Ok(()),
    }
}

impl<V: Scalar> BellMatrix<V> {
    /// An empty matrix of the given shape (no buckets).
    pub fn new(nrows: usize, ncols: usize) -> Self {
        let empty_rows = Vec::from_iter((nrows > 0).then_some(0..nrows));
        BellMatrix { nrows, ncols, nnz: 0, buckets: Vec::new(), empty_rows }
    }

    /// Builds from row-major arrays: `run(r)` is `(first entry, length)` of
    /// row `r`'s ascending-column run in `cols`/`vals` — CSR's own arrays or
    /// a sorted COO matrix's ([`runs_of`] their offsets), or the first `K`
    /// entries of each row of either (HYB's ELL part) — with the given
    /// bucket width ladder (ascending upper bounds; a final bucket at the
    /// maximum run length is appended when the ladder does not cover it).
    /// An empty ladder selects [`default_bucket_widths`].
    ///
    /// `guard(padded, nnz)` prices the padded cells the buckets are about to
    /// allocate (`usize::MAX` when their count overflows) before anything
    /// of that size is: a ladder width can be any `usize`.
    ///
    /// Bucket planning and the zero-filled allocation run on the calling
    /// thread. The fill (`fill::fill_share`) writes every cell, pads
    /// included — a pad's column and its `V::ZERO` — so nothing stored is
    /// left over from the allocation. Given a `pool` and at least
    /// [`PARALLEL_CONVERT_THRESHOLD`] entries, it runs on the pool, cut by
    /// the rule that cuts a planned execution on that pool
    /// ([`BellMatrix::shares`] at the pool's width: it reads only bucket
    /// widths and row counts, so it is known before the fill), and each
    /// index writes — and first touches — exactly the cells it will
    /// execute. Otherwise, and on a pool of one, the whole fill is one
    /// share on the calling thread. Every slice is filled alone, so the
    /// arrays are bitwise the same either way. It runs in the form `cpu`
    /// selects: AVX2 gathers for the full slices of an `f64`/`f32` matrix's
    /// buckets wider than one where `cpu` and the executing CPU have them,
    /// the portable lane loop otherwise and for every ragged slice. The
    /// forms store bitwise the same arrays; conversions pass
    /// [`CpuFeatures::detect`], tests [`CpuFeatures::none`] too.
    ///
    /// Fails with [`MorpheusError::IndexOverflow`] when a dimension does not
    /// fit the stored index width, and with whatever `guard` returns.
    ///
    /// # Panics
    /// If the runs do not lie inside `cols`/`vals` or a column index is
    /// `>= ncols` (after the fill: the largest column stored is checked).
    /// A split fill panics with the message the unsplit one would (the
    /// first failing share's, see [`ThreadPool::run_jobs`]).
    // Called once per conversion, and kept out of its callers on purpose:
    // whether the inliner folds it into `bell_from_arrays` flips with edits
    // elsewhere in the crate, and folded in, its fills ran slower (5 % of a
    // `solver_short` registration).
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_row_arrays(
        (nrows, ncols): (usize, usize),
        run: impl Fn(usize) -> (usize, usize) + Sync,
        cols: &[usize],
        vals: &[V],
        widths: &[usize],
        guard: impl FnOnce(usize, usize) -> Result<()>,
        cpu: CpuFeatures,
        pool: Option<&ThreadPool>,
    ) -> Result<Self> {
        check_index_width(nrows, ncols)?;
        let row_len = |r: usize| run(r).1;
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
        let mut nnz = 0usize;
        for r in 0..nrows {
            match (row_len(r), empty_rows.last_mut()) {
                (0, Some(run)) if run.end == r => run.end = r + 1,
                (0, _) => empty_rows.push(r..r + 1),
                (n, _) => {
                    lens[bucket_of[n]] += 1;
                    nnz += n;
                }
            }
        }
        let padded =
            lens.iter().zip(&ladder).try_fold(0usize, |sum, (&n, &w)| sum.checked_add(n.checked_mul(w)?));
        guard(padded.unwrap_or(usize::MAX), nnz)?;
        let mut members: Vec<Vec<u32>> = lens.iter().map(|&n| Vec::with_capacity(n)).collect();
        for r in (0..nrows).filter(|&r| row_len(r) > 0) {
            members[bucket_of[row_len(r)]].push(r as u32); // fits: invariant 5
        }
        let mut buckets: Vec<BellBucket<V>> = (members.into_iter().zip(ladder))
            .filter(|(rows, _)| !rows.is_empty())
            .map(|(rows, width)| {
                let cells = width * rows.len();
                BellBucket { width, rows, cols: vec![0u32; cells], vals: vec![V::ZERO; cells] }
            })
            .collect();
        // The fill is cut as execution will be (`shares`): pool index `p`
        // first writes the cells it will later read.
        let parts = pool.filter(|_| nnz >= PARALLEL_CONVERT_THRESHOLD).map_or(1, ThreadPool::num_threads);
        let shares = cut(nrows, buckets.iter().map(|b| (b.width, b.rows.len())), parts);
        let mut jobs: Vec<Vec<fill::Piece<'_, V>>> = shares.iter().map(|_| Vec::new()).collect();
        for (b, BellBucket { width, rows, cols: bcols, vals: bvals }) in buckets.iter_mut().enumerate() {
            let (rows, mut bcols, mut bvals) = (rows.as_slice(), bcols.as_mut_slice(), bvals.as_mut_slice());
            for (job, share) in jobs.iter_mut().zip(&shares) {
                for seg in share.segs.iter().filter(|seg| seg.bucket == b) {
                    let rows = &rows[seg.slices.start * SLICE..rows.len().min(seg.slices.end * SLICE)];
                    let (piece_cols, rest) = std::mem::take(&mut bcols).split_at_mut(*width * rows.len());
                    bcols = rest;
                    let (piece_vals, rest) = std::mem::take(&mut bvals).split_at_mut(*width * rows.len());
                    bvals = rest;
                    job.push((*width, rows, piece_cols, piece_vals));
                }
            }
        }
        let fill_share = |pieces| fill::fill_share(pieces, &run, (cols, vals), cpu);
        let stored = match pool {
            Some(pool) => pool.run_jobs(jobs, fill_share),
            None => jobs.into_iter().map(fill_share).collect(),
        };
        let max_col = stored.into_iter().max().unwrap_or(0);
        // Invariant 3, and with invariant 5 the reason the fill's narrowing
        // of the columns to `u32` lost nothing.
        assert!(buckets.is_empty() || max_col < ncols, "column index {max_col} out of range");
        Ok(BellMatrix { nrows, ncols, nnz, buckets, empty_rows })
    }

    /// Builds from raw buckets, validating every layout invariant of the
    /// [module docs](self): bucket widths strictly increasing, rows strictly
    /// ascending within a bucket and disjoint across buckets, per-row
    /// columns in range and strictly increasing, then pads repeating the
    /// last column with zero values.
    pub fn from_parts(nrows: usize, ncols: usize, buckets: Vec<BellBucket<V>>) -> Result<Self> {
        check_index_width(nrows, ncols)?;
        let mut seen_rows = std::collections::BTreeSet::new();
        let mut prev_width = 0usize;
        let mut nnz = 0usize;
        for bucket in &buckets {
            if bucket.width <= prev_width {
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
            for r in bucket.rows.iter().map(|&r| r as usize) {
                if r >= nrows || prev_row.is_some_and(|p| p >= r) || !seen_rows.insert(r) {
                    return Err(MorpheusError::InvalidStructure(format!(
                        "BELL bucket rows invalid or duplicated (row {r})"
                    )));
                }
                prev_row = Some(r);
            }
            for j in 0..len {
                let mut prev: Option<u32> = None;
                let mut padded = false;
                for (c, v) in bucket.row_cells(j) {
                    padded |= prev == Some(c);
                    let ordered =
                        if padded { prev == Some(c) && v == V::ZERO } else { prev.is_none_or(|p| p < c) };
                    if !ordered || c as usize >= ncols {
                        return Err(MorpheusError::InvalidStructure(format!(
                            "BELL bucket (width {}) row {}: invalid column layout",
                            bucket.width, bucket.rows[j]
                        )));
                    }
                    prev = Some(c);
                    nnz += usize::from(!padded);
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
                (b.rows.len() + b.cols.len()) * std::mem::size_of::<u32>()
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

    /// The real entries of row `r` as `(column, value)`, columns ascending:
    /// the row's bucket found by binary search, its cells up to the first
    /// pad.
    pub(crate) fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, V)> + '_ {
        let located = u32::try_from(r).ok().and_then(|r| {
            self.buckets.iter().find_map(|bucket| Some((bucket, bucket.rows.binary_search(&r).ok()?)))
        });
        located.into_iter().flat_map(|(bucket, j)| bucket.row_entries(j))
    }

    /// Splits a threaded execution into exactly `parts` shares, one per pool
    /// index, balanced by padded cells and cut between slices: the buckets
    /// are laid end to end and a slice goes to the share whose `1/parts` of
    /// that stream holds the slice's middle cell, so a share is at most one
    /// slice off its quota (a bucket of one over-wide row lands whole in one
    /// share; a share may be empty). Segments never overlap within a bucket
    /// and buckets hold disjoint rows, so every stored row has one writer;
    /// each empty row has one too, the share whose `rows` contain it.
    ///
    /// The cut reads the buckets' widths and row counts and nothing else,
    /// so the builder cuts its fill by it before a cell is written.
    pub(crate) fn shares(&self, parts: usize) -> Vec<BellShare> {
        cut(self.nrows, self.buckets.iter().map(|b| (b.width, b.rows.len())), parts)
    }

    /// `true` when the segments of `shares`, taken in share order, tile
    /// every bucket's slices exactly once: what makes shares computed for
    /// another matrix of this shape safe to execute here (each stored row
    /// read in bounds and written by one share).
    pub(crate) fn tiled_by(&self, shares: &[BellShare]) -> bool {
        let segs = || shares.iter().flat_map(|s| &s.segs);
        segs().all(|s| s.bucket < self.buckets.len())
            && self.buckets.iter().enumerate().all(|(b, bucket)| {
                let mut next = 0usize;
                let in_order = segs().filter(|s| s.bucket == b).all(|s| {
                    let ok = s.slices.start == next && s.slices.end >= next;
                    next = s.slices.end;
                    ok
                });
                in_order && next == bucket.num_slices()
            })
    }
}

/// [`BellMatrix::shares`] of an `nrows`-row matrix whose buckets have the
/// `(width, rows)` of `buckets`, in order.
fn cut(nrows: usize, buckets: impl Iterator<Item = (usize, usize)> + Clone, parts: usize) -> Vec<BellShare> {
    let parts = parts.max(1);
    let rows = static_partition(nrows, parts);
    let mut shares: Vec<BellShare> = (0..parts)
        .map(|p| BellShare { segs: Vec::new(), rows: rows.get(p).cloned().unwrap_or(0..0) })
        .collect();
    let total: usize = buckets.clone().map(|(width, len)| width * len).sum();
    let mut base = 0usize; // cells of the buckets before this one
    for (b, (width, len)) in buckets.enumerate() {
        let (slices, cells) = (len.div_ceil(SLICE), SLICE * width);
        let mut lo = 0usize;
        for (p, share) in shares.iter_mut().enumerate() {
            // Slice `s` has its middle at `base + s*cells + cells/2` (the
            // ragged one is counted at full height: it is the bucket's
            // last, so only its own share can be off by that); count the
            // slices whose middle lies before the end of share `p`.
            let quota = total * (p + 1) / parts;
            let before_quota = (2 * quota).saturating_sub(2 * base + cells).div_ceil(2 * cells);
            let hi = if p + 1 == parts { slices } else { before_quota.clamp(lo, slices) };
            if hi > lo {
                share.segs.push(BellSegment { bucket: b, slices: lo..hi });
                lo = hi;
            }
        }
        base += width * len;
    }
    shares
}

/// A run of consecutive slices of one bucket.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BellSegment {
    pub(crate) bucket: usize,
    pub(crate) slices: Range<usize>,
}

/// One pool index's share of a threaded execution (see
/// [`BellMatrix::shares`]): the segments it computes, and the row range
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
        self.row_entries(r).count()
    }

    fn emit_row(&self, r: usize, f: &mut dyn FnMut(usize, V)) {
        self.row_entries(r).for_each(|(c, v)| f(c, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::test_util::random_coo;

    fn arrays(
        shape: (usize, usize),
        offsets: &[usize],
        cols: &[usize],
        vals: &[f64],
        widths: &[usize],
    ) -> Result<BellMatrix<f64>> {
        BellMatrix::from_row_arrays(
            shape,
            runs_of(offsets),
            cols,
            vals,
            widths,
            |_, _| Ok(()),
            CpuFeatures::detect(),
            None,
        )
    }

    fn bell_of(coo: &CooMatrix<f64>, widths: &[usize]) -> BellMatrix<f64> {
        let offsets = crate::convert::kernels::coo_row_offsets(coo.nrows(), coo.row_indices());
        arrays((coo.nrows(), coo.ncols()), &offsets, coo.col_indices(), coo.values(), widths).unwrap()
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
        // Padding never exceeds the bucket-width granularity, and every pad
        // repeats its row's last real column with a zero value.
        for b in m.buckets() {
            assert_eq!(b.padded_len(), b.width() * b.rows().len(), "never lane-padded");
            for (j, &r) in b.rows().iter().enumerate() {
                let n = RowMajor::row_count(&coo, r as usize);
                assert!(n <= b.width(), "row {r} overflows its bucket");
                assert_eq!(b.row_entries(j).count(), n);
                let cells: Vec<(u32, f64)> = b.row_cells(j).collect();
                assert!(cells[n..].iter().all(|&(c, v)| c == cells[n - 1].0 && v == 0.0), "row {r} pads");
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
        assert!(bad.len() >= 2);
        bad[1].rows[0] = bad[0].rows[0];
        assert!(BellMatrix::from_parts(25, 25, bad).is_err());
        // A column past the shape, a pad left of the row's last column (one
        // to its right would read as an explicit zero) and a pad carrying a
        // value: each would break the walker.
        assert!(BellMatrix::from_parts(25, 20, m.buckets().to_vec()).is_err());
        let (b, cell) = (0..m.buckets().len())
            .flat_map(|b| (0..m.buckets()[b].rows().len()).map(move |j| (b, j)))
            .find_map(|(b, j)| {
                let bucket = &m.buckets()[b];
                let n = bucket.row_entries(j).count();
                (n < bucket.width()).then(|| (b, bucket.cell(j, n)))
            })
            .expect("some row is padded");
        let mut bad = m.buckets().to_vec();
        bad[b].cols[cell] = bad[b].cols[cell].wrapping_sub(1);
        assert!(BellMatrix::from_parts(25, 25, bad).is_err());
        let mut bad = m.buckets().to_vec();
        bad[b].vals[cell] = 1.0;
        assert!(BellMatrix::from_parts(25, 25, bad).is_err());
    }

    #[test]
    fn dimensions_past_the_index_width_are_a_typed_error() {
        let big = u32::MAX as usize + 2;
        // One entry at (0, big - 1): nothing of size `big` is allocated.
        let wide = arrays((1, big), &[0, 1], &[big - 1], &[1.0], &[]);
        assert!(
            matches!(wide, Err(MorpheusError::IndexOverflow { dim, limit }) if dim == big && limit == u32::MAX as usize)
        );
        let tall = BellMatrix::<f64>::from_parts(big, 1, Vec::new());
        assert!(matches!(tall, Err(MorpheusError::IndexOverflow { dim, .. }) if dim == big));
        // The widest shape the index does hold is accepted.
        let m = arrays((1, big - 1), &[0, 1], &[big - 2], &[1.0], &[]).unwrap();
        assert_eq!(m.buckets()[0].cols(), &[u32::MAX]);
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
                assert!(m.tiled_by(&shares), "segments tile each bucket's slices in order");
                let cells: Vec<usize> = shares
                    .iter()
                    .map(|share| {
                        let spans = share.segs.iter().map(|s| m.buckets()[s.bucket].span(s.slices.clone()));
                        spans.map(|span| span.cols.len()).sum()
                    })
                    .collect();
                assert_eq!(cells.iter().sum::<usize>(), m.padded_len());
                let quota = m.padded_len() / parts;
                let ok = cells.iter().all(|&c| c.abs_diff(quota) <= SLICE * widest + 1);
                assert!(ok, "widths {widths:?} x{parts}: {cells:?} vs quota {quota}");
                let zeroed: usize = shares.iter().map(|s| s.rows.len()).sum();
                assert_eq!(zeroed, 400, "row ranges tile the rows");
            }
        }
        // Shares are per-matrix: another bucketing of the same shape is not
        // tiled by them.
        let (pow2, one) = (bell_of(&coo, &[]), bell_of(&coo, &[64]));
        assert!(!pow2.tiled_by(&one.shares(3)) && !one.tiled_by(&pow2.shares(3)));
    }

    #[test]
    fn a_fill_on_a_pool_is_bitwise_the_unsplit_one() {
        let coo = random_coo::<f64>(3000, 2500, 40_000, 11);
        assert!(coo.nnz() >= PARALLEL_CONVERT_THRESHOLD);
        let offsets = crate::convert::kernels::coo_row_offsets(coo.nrows(), coo.row_indices());
        let (cols, vals) = (coo.col_indices(), coo.values());
        for widths in [vec![], vec![64], vec![1, 3, 9, 14]] {
            let build = |pool: Option<&ThreadPool>| {
                let run = runs_of(&offsets);
                let (guard, cpu) = (|_, _| Ok(()), CpuFeatures::detect());
                BellMatrix::from_row_arrays((3000, 2500), run, cols, vals, &widths, guard, cpu, pool).unwrap()
            };
            let serial = build(None);
            for w in 2..=4 {
                let pool = ThreadPool::new(w);
                assert_eq!(build(Some(&pool)), serial, "widths {widths:?} on {w} threads");
            }
        }
    }

    #[test]
    fn a_run_outside_the_arrays_panics_as_unsplit_and_leaves_the_pool_serving() {
        // 2 048 rows of ten entries, the arrays one short: the last row's run
        // reaches past them. It lies in the second share of a 2-wide cut.
        let offsets: Vec<usize> = (0..=2048).map(|r| 10 * r).collect();
        let cols: Vec<usize> = (0..offsets[2048] - 1).map(|i| i % 10 * 7).collect();
        let vals = vec![1.0f64; cols.len()];
        let fill = |pool: Option<&ThreadPool>| {
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let (guard, cpu) = (|_, _| Ok(()), CpuFeatures::detect());
                BellMatrix::from_row_arrays(
                    (2048, 70),
                    runs_of(&offsets),
                    &cols,
                    &vals,
                    &[],
                    guard,
                    cpu,
                    pool,
                )
            }));
            let payload = panicked.expect_err("the run lies outside the arrays");
            payload.downcast_ref::<String>().cloned().expect("a formatted message")
        };
        let unsplit = fill(None);
        assert_eq!(unsplit, "row 2047's run of 10 entries at 20470 lies outside the 20479 entries");
        let pool = ThreadPool::new(2);
        assert_eq!(fill(Some(&pool)), unsplit);
        // The same pool runs the next dispatch normally.
        let coo = random_coo::<f64>(3000, 2500, 40_000, 5);
        let offsets = crate::convert::kernels::coo_row_offsets(coo.nrows(), coo.row_indices());
        let (guard, cpu) = (|_, _| Ok(()), CpuFeatures::detect());
        let (run, cols, vals) = (runs_of(&offsets), coo.col_indices(), coo.values());
        let m =
            BellMatrix::from_row_arrays((3000, 2500), run, cols, vals, &[], guard, cpu, Some(&pool)).unwrap();
        assert_eq!(m, bell_of(&coo, &[]));
        assert!(!pool.is_busy());
    }
}
