//! Per-format matrix statistics (§VI-C), and the one reduction of the two
//! histograms every consumer shares.
//!
//! The Oracle's ML tuners need the ten features of Table I *without*
//! converting the matrix out of its active format — "Morpheus has been
//! extended to provide matrix statistics on a per-format basis ...
//! eliminating the need for any data transfers". [`stats_of`] computes the
//! row-occupancy histogram and the diagonal populations directly from each
//! format's own arrays, in whatever order suits the layout.
//!
//! Everything read *off* the histograms — Table I, the row prefix sums, the
//! 32-row group maxima, the row-length count table BELL padding, HYB's split
//! and the quantile ladder derive from — comes out of `reduce`: one loop
//! over the row histogram, one over the diagonal populations, shared by
//! [`stats_of`] and the [`crate::analysis::Analysis`] artifact, so their
//! [`MatrixStats`] are bitwise identical.

use crate::convert::kernels::coo_row_offsets;
use crate::coo::CooMatrix;
use crate::dia::DiaMatrix;
use crate::dynamic::DynamicMatrix;
use crate::hdc::true_diag_threshold;
use crate::scalar::Scalar;

/// Summary statistics of a sparsity pattern: everything Table I's features
/// derive from.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Number of rows (`M`).
    pub nrows: usize,
    /// Number of columns (`N`).
    pub ncols: usize,
    /// Structural non-zeros (`NNZ`).
    pub nnz: usize,
    /// Minimum non-zeros in any row (`min(NNZ)` of Table I).
    pub row_nnz_min: usize,
    /// Maximum non-zeros in any row (`max(NNZ)` of Table I).
    pub row_nnz_max: usize,
    /// Mean non-zeros per row (`NNZ̄`).
    pub row_nnz_mean: f64,
    /// Population standard deviation of non-zeros per row (`σ_NNZ`).
    pub row_nnz_std: f64,
    /// Number of non-empty diagonals (`ND`).
    pub ndiags: usize,
    /// Number of *true* diagonals (`NTD`): population ≥
    /// `true_diag_alpha * min(nrows, ncols)`.
    pub ntrue_diags: usize,
    /// The threshold fraction used for `ntrue_diags`.
    pub true_diag_alpha: f64,
    /// Fraction of entries lying on a populated diagonal whose immediate
    /// left-neighbour diagonal is also populated. Dense `r x c` blocks
    /// place their entries on runs of adjacent diagonals, so this is the
    /// block-compactness (BSR-suitability) signal; scattered patterns score
    /// near zero.
    pub block_density: f64,
    /// Padded slots of the default power-of-two BELL bucket ladder divided
    /// by `nnz` (1.0 = no padding, and for empty matrices). Large values
    /// mean the row-length distribution fights bucketing — the
    /// heavy-tail / bucket-skew signal.
    pub bucket_skew: f64,
}

impl MatrixStats {
    /// Density `ρ = NNZ / (M * N)`; zero for degenerate shapes.
    pub fn density(&self) -> f64 {
        let cells = self.nrows as f64 * self.ncols as f64;
        if cells == 0.0 {
            0.0
        } else {
            self.nnz as f64 / cells
        }
    }
}

/// Rows per group of [`RowSummary::group_max_sum`] (the machine model's
/// SIMT row-kernels schedule rows in groups of this many).
pub const ROW_GROUP: usize = 32;

/// How many rows hold each number of entries: the table BELL bucketing, the
/// HYB split and the row-length quantiles derive from in O(longest row)
/// instead of O(rows).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowLengthCounts {
    /// `rows_with_len[l]` rows hold exactly `l` entries; the last slot is
    /// the longest row's (one slot, for length 0, when there are no rows).
    rows_with_len: Vec<usize>,
}

/// What a BELL bucket ladder costs a matrix (see
/// [`RowLengthCounts::ladder_fit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LadderFit {
    /// Slots allocated: each non-empty row padded to its bucket's width.
    pub padded: usize,
    /// Buckets holding at least one row.
    pub buckets: usize,
}

impl RowLengthCounts {
    /// Length of the longest row.
    pub fn max_len(&self) -> usize {
        self.rows_with_len.len().saturating_sub(1)
    }

    /// Rows holding at least one entry (the rows BELL stores).
    pub fn nonempty_rows(&self) -> usize {
        self.populated().map(|(_, rows)| rows).sum()
    }

    /// `(length, rows)` for every non-zero length some row has, ascending.
    fn populated(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows_with_len.iter().copied().enumerate().skip(1).filter(|&(_, rows)| rows > 0)
    }

    /// Exact cost of bucketing the rows under `ladder` (ascending bucket
    /// widths): each non-empty row lands in the first bucket wide enough
    /// for it. Rows wider than the last bucket are priced at their own
    /// length and share one further bucket (conversion widens the ladder in
    /// that case; for pricing that is the floor). The one place BELL
    /// padding is computed, for the default ladder and proposed ones alike.
    pub fn ladder_fit(&self, ladder: &[usize]) -> LadderFit {
        let mut fit = LadderFit::default();
        let mut b = 0usize;
        let mut counted = usize::MAX; // last bucket that received rows
        for (len, rows) in self.populated() {
            while b < ladder.len() && ladder[b] < len {
                b += 1;
            }
            fit.padded += rows * ladder.get(b).map_or(len, |&w| w);
            fit.buckets += usize::from(counted != b);
            counted = b;
        }
        fit
    }

    /// Entries beyond the first `width` of each row (HYB's COO spill at
    /// that split width).
    pub fn spill_beyond(&self, width: usize) -> usize {
        self.populated().map(|(len, rows)| len.saturating_sub(width) * rows).sum()
    }

    /// Storage-optimal HYB split width for entries of `value_bytes` each.
    pub fn hyb_width(&self, value_bytes: usize) -> usize {
        let nrows = self.rows_with_len.iter().sum();
        crate::hyb::optimal_hyb_width_from_counts(nrows, &self.rows_with_len, value_bytes)
    }

    /// The non-empty rows' lengths at the given fractions of their sorted
    /// order (element `round((n - 1) * f)` of `n`), `fractions` ascending;
    /// `None` when every row is empty.
    pub fn quantiles<const N: usize>(&self, fractions: [f64; N]) -> Option<[usize; N]> {
        let n = self.nonempty_rows();
        if n == 0 {
            return None;
        }
        let mut out = [0usize; N];
        let mut lens = self.populated();
        let (mut len, mut below) = (0usize, 0usize); // rows of length <= `len`
        for (slot, f) in out.iter_mut().zip(fractions) {
            let rank = ((n - 1) as f64 * f).round() as usize;
            while below <= rank {
                let (l, rows) = lens.next().expect("rank < n non-empty rows");
                len = l;
                below += rows;
            }
            *slot = len;
        }
        Some(out)
    }
}

/// What one loop over the row-nnz histogram yields beyond Table I.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowSummary {
    /// Prefix sums of the histogram: `prefix[i]` entries lie in rows `< i`
    /// (`nrows + 1` slots).
    pub prefix: Vec<u64>,
    /// Sum over consecutive [`ROW_GROUP`]-row groups of the group's longest
    /// row.
    pub group_max_sum: u64,
    /// The row-length count table.
    pub lengths: RowLengthCounts,
    /// Fit of the default power-of-two BELL ladder
    /// ([`crate::bell::default_bucket_widths`]).
    pub bell: LadderFit,
}

/// Everything [`reduce`] reads off the two histograms.
pub(crate) struct Reduced {
    pub stats: MatrixStats,
    pub rows: RowSummary,
    /// Entries on true diagonals (population at or above the threshold).
    pub true_diag_nnz: usize,
}

/// What [`reduce_rows`] reads off the row-nnz histogram alone: the row side
/// of Table I and the [`RowSummary`].
pub(crate) struct RowsReduced {
    nnz: usize,
    min: u32,
    max: u32,
    mean: f64,
    std: f64,
    bucket_skew: f64,
    pub summary: RowSummary,
}

/// Reduces a row-nnz histogram and a diagonal-population array: one loop
/// over each (after a sum/min/max sweep that fixes the mean and sizes the
/// count table).
///
/// This is the single reduction every producer goes through — [`stats_of`]
/// and the shared [`crate::analysis::Analysis`] artifact — so their
/// [`MatrixStats`] are **bitwise** identical (summation order over the
/// histograms is fixed). `diag_pop` may be any run of the diagonal slots that
/// holds every populated one: empty slots contribute nothing. The two halves
/// are callable on their own for the producer that needs the row side (the
/// prefix sums a partition is chosen from) before the diagonal populations
/// exist.
pub(crate) fn reduce(ncols: usize, row_counts: &[u32], diag_pop: &[u32], alpha: f64) -> Reduced {
    reduce_diags(reduce_rows(row_counts), ncols, diag_pop, alpha)
}

/// The row half of [`reduce`].
pub(crate) fn reduce_rows(row_counts: &[u32]) -> RowsReduced {
    let nrows = row_counts.len();
    let nnz: usize = row_counts.iter().map(|&c| c as usize).sum();
    let min = row_counts.iter().copied().min().unwrap_or(0);
    let max = row_counts.iter().copied().max().unwrap_or(0);
    let mean = if nrows == 0 { 0.0 } else { nnz as f64 / nrows as f64 };

    let mut squares = 0.0f64;
    let mut prefix = vec![0u64; nrows + 1];
    let mut entries = 0u64;
    let mut group_max_sum = 0u64;
    let mut rows_with_len = vec![0usize; max as usize + 1];
    for (group, sums) in row_counts.chunks(ROW_GROUP).zip(prefix[1..].chunks_mut(ROW_GROUP)) {
        let mut longest = 0u32;
        for (&c, sum) in group.iter().zip(sums) {
            squares += (c as f64 - mean).powi(2);
            entries += u64::from(c);
            *sum = entries;
            rows_with_len[c as usize] += 1;
            longest = longest.max(c);
        }
        group_max_sum += u64::from(longest);
    }
    let var = if nrows == 0 { 0.0 } else { squares / nrows as f64 };
    let lengths = RowLengthCounts { rows_with_len };
    // Exact BELL padding under the default ladder: each non-empty row
    // rounds up to its bucket width.
    let bell = lengths.ladder_fit(&crate::bell::default_bucket_widths(max as usize));
    let bucket_skew = if nnz == 0 { 1.0 } else { bell.padded as f64 / nnz as f64 };
    RowsReduced {
        nnz,
        min,
        max,
        mean,
        std: var.sqrt(),
        bucket_skew,
        summary: RowSummary { prefix, group_max_sum, lengths, bell },
    }
}

/// The diagonal half of [`reduce`], joined with the row half.
pub(crate) fn reduce_diags(rows: RowsReduced, ncols: usize, diag_pop: &[u32], alpha: f64) -> Reduced {
    let nrows = rows.summary.prefix.len() - 1;
    let nnz = rows.nnz;
    let threshold = true_diag_threshold(nrows, ncols, alpha) as u32;
    let mut ndiags = 0usize;
    let mut ntrue = 0usize;
    let mut true_diag_nnz = 0usize;
    // Population-weighted diagonal adjacency: entries of dense blocks land
    // on runs of adjacent diagonals.
    let mut adjacent_pop = 0u64;
    // The population of the diagonal one slot to the left.
    let mut left = 0u32;
    // Counted with masks, not branches: on a scattered pattern whether a
    // diagonal is populated is as unpredictable as the pattern.
    for &p in diag_pop {
        let is_true = (p > 0) & (p >= threshold);
        ndiags += usize::from(p > 0);
        ntrue += usize::from(is_true);
        true_diag_nnz += p as usize * usize::from(is_true);
        adjacent_pop += u64::from(p) * u64::from(left > 0);
        left = p;
    }
    let block_density = if nnz == 0 { 0.0 } else { adjacent_pop as f64 / nnz as f64 };

    let stats = MatrixStats {
        nrows,
        ncols,
        nnz,
        row_nnz_min: rows.min as usize,
        row_nnz_max: rows.max as usize,
        row_nnz_mean: rows.mean,
        row_nnz_std: rows.std,
        ndiags,
        ntrue_diags: ntrue,
        true_diag_alpha: alpha,
        block_density,
        bucket_skew: rows.bucket_skew,
    };
    Reduced { stats, rows: rows.summary, true_diag_nnz }
}

/// Zeroed diagonal populations for a matrix of this shape:
/// `nrows + ncols - 1` slots (none for degenerate shapes).
pub(crate) fn empty_diag_pop(nrows: usize, ncols: usize) -> Vec<u32> {
    vec![0u32; if nrows == 0 || ncols == 0 { 0 } else { nrows + ncols - 1 }]
}

/// Zeroed histograms for a matrix of this shape: `nrows` row slots and its
/// [`empty_diag_pop`].
pub(crate) fn empty_hists(nrows: usize, ncols: usize) -> (Vec<u32>, Vec<u32>) {
    (vec![0u32; nrows], empty_diag_pop(nrows, ncols))
}

/// Streams every structural entry of `m` (in its active format) into a
/// row-nnz histogram and a diagonal-population array
/// (`diag[col + nrows - 1 - row]`), using the cache-friendliest walk each
/// format affords, one increment per entry. This is [`stats_of`]'s walk —
/// the definition the fused analysis pass is tested against.
fn accumulate_hists<V: Scalar>(m: &DynamicMatrix<V>, row: &mut [u32], diag: &mut [u32]) {
    let nrows = m.nrows();
    let mut record = |r: usize, c: usize| {
        row[r] += 1;
        diag[c + nrows - 1 - r] += 1;
    };
    match m {
        DynamicMatrix::Coo(a) => accumulate_coo(a, &mut record),
        DynamicMatrix::Csr(a) => accumulate_rows(a, &mut record),
        DynamicMatrix::Dia(a) => accumulate_dia(a, &mut record),
        DynamicMatrix::Ell(a) => accumulate_rows(a.bell(), &mut record),
        DynamicMatrix::Hyb(a) => {
            accumulate_rows(a.ell().bell(), &mut record);
            accumulate_coo(a.coo(), &mut record);
        }
        DynamicMatrix::Hdc(a) => {
            accumulate_dia(a.dia(), &mut record);
            accumulate_rows(a.csr(), &mut record);
        }
        DynamicMatrix::Bsr(a) => accumulate_rows(a, &mut record),
        DynamicMatrix::Bell(a) => accumulate_rows(a, &mut record),
    }
}

fn accumulate_coo<V: Scalar>(a: &CooMatrix<V>, record: &mut impl FnMut(usize, usize)) {
    a.row_indices().iter().zip(a.col_indices()).for_each(|(&r, &c)| record(r, c));
}

fn accumulate_rows<V: Scalar>(a: &dyn crate::rowmajor::RowMajor<V>, record: &mut impl FnMut(usize, usize)) {
    for r in 0..a.nrows() {
        a.emit_row(r, &mut |c, _v| record(r, c));
    }
}

fn accumulate_dia<V: Scalar>(a: &DiaMatrix<V>, record: &mut impl FnMut(usize, usize)) {
    for d in 0..a.ndiags() {
        let off = a.offsets()[d];
        let diag = a.diagonal(d);
        for i in a.diag_row_range(d) {
            if diag[i] != V::ZERO {
                record(i, (i as isize + off) as usize);
            }
        }
    }
}

/// Statistics of a [`DynamicMatrix`], computed from whichever format is
/// active — the "online feature extraction by inspecting the active format"
/// of §VI-C.
pub fn stats_of<V: Scalar>(m: &DynamicMatrix<V>, alpha: f64) -> MatrixStats {
    crate::analysis::passes::record_traversal();
    let (mut row, mut diag) = empty_hists(m.nrows(), m.ncols());
    accumulate_hists(m, &mut row, &mut diag);
    reduce(m.ncols(), &row, &diag, alpha).stats
}

/// Statistics from COO storage: single fused pass over the triplets.
pub fn stats_coo<V: Scalar>(a: &CooMatrix<V>, alpha: f64) -> MatrixStats {
    let (mut row, mut diag) = empty_hists(a.nrows(), a.ncols());
    accumulate_coo(a, &mut |r, c| {
        row[r] += 1;
        diag[c + a.nrows() - 1 - r] += 1;
    });
    reduce(a.ncols(), &row, &diag, alpha).stats
}

/// Per-row non-zero counts of a [`DynamicMatrix`] (used by the machine
/// model's load-imbalance and warp-divergence estimators): the differences
/// of CSR's row offsets, or of the offsets a COO row array gives
/// (`coo_row_offsets`: stores only, where counting per entry would chain
/// a long row's entries through one counter).
pub fn row_nnz_histogram<V: Scalar>(m: &DynamicMatrix<V>) -> Vec<u32> {
    crate::analysis::passes::record_traversal();
    let lengths = |offsets: &[usize]| offsets.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
    match m {
        DynamicMatrix::Csr(a) => lengths(a.row_offsets()),
        DynamicMatrix::Coo(a) => lengths(&coo_row_offsets(a.nrows(), a.row_indices())),
        _ => {
            // Remaining formats: derive from a COO view. Only used on the
            // cold path (profiling), never by the online tuners.
            let coo = m.to_coo();
            lengths(&coo_row_offsets(coo.nrows(), coo.row_indices()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::ConvertOptions;
    use crate::format::ALL_FORMATS;
    use crate::test_util::random_coo;

    #[test]
    fn known_matrix_stats() {
        // [1 0 2 0]
        // [0 3 0 0]
        // [4 0 5 6]
        // [0 0 0 0]
        let coo = CooMatrix::<f64>::from_triplets(
            4,
            4,
            &[0, 0, 1, 2, 2, 2],
            &[0, 2, 1, 0, 2, 3],
            &[1., 2., 3., 4., 5., 6.],
        )
        .unwrap();
        let s = stats_coo(&coo, 0.2);
        assert_eq!(s.nrows, 4);
        assert_eq!(s.ncols, 4);
        assert_eq!(s.nnz, 6);
        assert_eq!(s.row_nnz_min, 0);
        assert_eq!(s.row_nnz_max, 3);
        assert!((s.row_nnz_mean - 1.5).abs() < 1e-12);
        // Row counts [2, 1, 3, 0]; population variance = 1.25.
        assert!((s.row_nnz_std - 1.25f64.sqrt()).abs() < 1e-12);
        // Diagonals with entries: offsets {0 (x3), 2, -2, 1} -> 4 distinct.
        assert_eq!(s.ndiags, 4);
        // Threshold = ceil(0.2 * 4) = 1 -> every non-empty diagonal is true.
        assert_eq!(s.ntrue_diags, 4);
        assert!((s.density() - 6.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn true_diag_threshold_filters() {
        // 10x10, main diagonal full (10 entries), one stray entry.
        let mut rows: Vec<usize> = (0..10).collect();
        let mut cols: Vec<usize> = (0..10).collect();
        rows.push(0);
        cols.push(5);
        let vals = vec![1.0; 11];
        let coo = CooMatrix::<f64>::from_triplets(10, 10, &rows, &cols, &vals).unwrap();
        let s = stats_coo(&coo, 0.5); // threshold = 5
        assert_eq!(s.ndiags, 2);
        assert_eq!(s.ntrue_diags, 1);
    }

    #[test]
    fn stats_invariant_across_formats() {
        for seed in 0..4u64 {
            let coo = random_coo::<f64>(50, 40, 350, seed);
            let base = DynamicMatrix::from(coo);
            let reference = stats_of(&base, 0.2);
            let opts = ConvertOptions::default();
            for &f in &ALL_FORMATS {
                let m = base.to_format(f, &opts).unwrap();
                let s = stats_of(&m, 0.2);
                assert_eq!(s, reference, "stats differ for {f} (seed {seed})");
            }
        }
    }

    #[test]
    fn empty_matrix_stats() {
        let m = DynamicMatrix::from(CooMatrix::<f64>::new(3, 3));
        let s = stats_of(&m, 0.2);
        assert_eq!(s.nnz, 0);
        assert_eq!(s.row_nnz_min, 0);
        assert_eq!(s.row_nnz_max, 0);
        assert_eq!(s.ndiags, 0);
        assert_eq!(s.ntrue_diags, 0);
        assert_eq!(s.density(), 0.0);
    }

    #[test]
    fn zero_sized_matrix_stats() {
        let m = DynamicMatrix::from(CooMatrix::<f64>::new(0, 0));
        let s = stats_of(&m, 0.2);
        assert_eq!(s.nrows, 0);
        assert_eq!(s.nnz, 0);
        assert_eq!(s.density(), 0.0);
    }

    #[test]
    fn row_histogram_matches_formats() {
        let coo = random_coo::<f64>(30, 30, 150, 11);
        let base = DynamicMatrix::from(coo);
        let expect = row_nnz_histogram(&base);
        let opts = ConvertOptions::default();
        for &f in &ALL_FORMATS {
            let m = base.to_format(f, &opts).unwrap();
            assert_eq!(row_nnz_histogram(&m), expect, "{f}");
        }
    }
}
