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
#[derive(Debug, PartialEq)]
pub(crate) struct Reduced {
    pub stats: MatrixStats,
    pub rows: RowSummary,
    /// Entries on true diagonals (population at or above the threshold).
    pub true_diag_nnz: usize,
}

/// What [`reduce_rows`] reads off the row-nnz histogram alone: the row side
/// of Table I and the [`RowSummary`].
#[derive(Debug, PartialEq)]
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
/// [`MatrixStats`] are **bitwise** identical (the one floating-point sum,
/// the squared deviations, runs in row order; the integer sums are exact in
/// any order, so the loops split them over independent counters). `diag_pop`
/// may be any run of the diagonal slots that holds every populated one:
/// empty slots contribute nothing.
pub(crate) fn reduce(ncols: usize, row_counts: &[u32], diag_pop: &[u32], alpha: f64) -> Reduced {
    reduce_diags(reduce_rows(row_counts), ncols, diag_pop, alpha)
}

/// The row half of [`reduce`].
fn reduce_rows(rows: &[u32]) -> RowsReduced {
    let nrows = rows.len();
    let nnz: usize = rows.iter().map(|&c| c as usize).sum();
    let min = rows.iter().copied().min().unwrap_or(0);
    let max = rows.iter().copied().max().unwrap_or(0);
    let mean = mean_of(nnz, nrows);

    let mut squares = 0.0f64;
    let mut prefix = vec![0u64; nrows + 1];
    let mut entries = 0u64;
    let mut group_max_sum = 0u64;
    // The odd row of each pair counts into a table of its own, added after
    // the loop: in one table, a run of rows of one length would chain every
    // increment through the store and the load of the same counter. Its
    // table is short — a long count table is a long tail of rare lengths —
    // and a longer odd row counts into the main one.
    let mut rows_with_len = vec![0usize; max as usize + 1];
    let mut odd = vec![0usize; rows_with_len.len().min(ODD_LENGTHS)];
    for (group, sums) in rows.chunks(ROW_GROUP).zip(prefix[1..].chunks_mut(ROW_GROUP)) {
        let mut longest = 0u32;
        for (pair, sums) in group.chunks(2).zip(sums.chunks_mut(2)) {
            for (k, (&c, sum)) in pair.iter().zip(sums).enumerate() {
                squares += (c as f64 - mean).powi(2);
                entries += u64::from(c);
                *sum = entries;
                match odd.get_mut(c as usize).filter(|_| k == 1) {
                    Some(count) => *count += 1,
                    None => rows_with_len[c as usize] += 1,
                }
                longest = longest.max(c);
            }
        }
        group_max_sum += u64::from(longest);
    }
    rows_with_len.iter_mut().zip(&odd).for_each(|(total, rows)| *total += rows);
    RowsReduced::new(nrows, nnz, [min, max], squares, prefix, group_max_sum, rows_with_len)
}

fn mean_of(nnz: usize, nrows: usize) -> f64 {
    if nrows == 0 {
        0.0
    } else {
        nnz as f64 / nrows as f64
    }
}

/// Row lengths the odd rows of [`reduce_rows`] count in a table of their
/// own.
const ODD_LENGTHS: usize = 256;

impl RowsReduced {
    /// The row side of `nrows` rows holding `nnz` entries, whose lengths
    /// span `min..=max`, deviate from their mean by `squares` squared, and
    /// are counted in `rows_with_len`.
    fn new(
        nrows: usize,
        nnz: usize,
        [min, max]: [u32; 2],
        squares: f64,
        prefix: Vec<u64>,
        group_max_sum: u64,
        rows_with_len: Vec<usize>,
    ) -> RowsReduced {
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
            mean: mean_of(nnz, nrows),
            std: var.sqrt(),
            bucket_skew,
            summary: RowSummary { prefix, group_max_sum, lengths, bell },
        }
    }
}

/// Independent accumulators the diagonal sums are split over, which the
/// compiler keeps side by side in vector registers.
const DIAG_LANES: usize = 16;

/// What one diagonal slot of population `p`, whose left neighbour holds
/// `left`, adds to the four diagonal sums: populated diagonals, true
/// diagonals, entries on true diagonals, and entries on a diagonal whose
/// left neighbour is populated. Masks, not branches: on a scattered pattern
/// whether a diagonal is populated is as unpredictable as the pattern.
#[inline(always)]
fn diag_terms(p: u32, left: u32, threshold: u32) -> [u32; 4] {
    let is_true = 0u32.wrapping_sub(u32::from((p > 0) & (p >= threshold)));
    let left_populated = 0u32.wrapping_sub(u32::from(left > 0));
    [u32::from(p > 0), is_true & 1, p & is_true, p & left_populated]
}

/// An accumulator width of [`diag_sums`].
trait Lane: Copy + Default + std::ops::AddAssign + From<u32> + Into<u64> {}
impl Lane for u32 {}
impl Lane for u64 {}

/// The four sums of [`diag_terms`] over a run of diagonal slots, the left
/// neighbour of each read from the run itself (the slot left of the first
/// is empty: the run holds every populated one), in `L`-wide lanes.
#[inline(always)]
fn diag_sums<L: Lane>(diag_pop: &[u32], threshold: u32) -> [u64; 4] {
    let Some(&first) = diag_pop.first() else {
        return [0; 4];
    };
    let mut sums = diag_terms(first, 0, threshold).map(u64::from);
    let (slots, lefts) = (&diag_pop[1..], &diag_pop[..diag_pop.len() - 1]);
    let body = slots.len() - slots.len() % DIAG_LANES;
    let mut lanes = [[L::default(); DIAG_LANES]; 4];
    for (ps, ls) in slots[..body].chunks_exact(DIAG_LANES).zip(lefts[..body].chunks_exact(DIAG_LANES)) {
        for lane in 0..DIAG_LANES {
            let terms = diag_terms(ps[lane], ls[lane], threshold);
            for (sum, term) in lanes.iter_mut().zip(terms) {
                sum[lane] += L::from(term);
            }
        }
    }
    for (&p, &left) in slots[body..].iter().zip(&lefts[body..]) {
        sums.iter_mut().zip(diag_terms(p, left, threshold)).for_each(|(sum, term)| *sum += u64::from(term));
    }
    for (sum, lane) in sums.iter_mut().zip(&lanes) {
        *sum += lane.iter().map(|&l| l.into()).sum::<u64>();
    }
    sums
}

/// What the diagonal populations of an `nrows x ncols` matrix of `nnz`
/// entries give: Table I's diagonal counts, the block density and HDC's
/// true-diagonal entries.
#[derive(Debug, PartialEq)]
pub(crate) struct DiagonalFacts {
    pub ndiags: usize,
    pub ntrue_diags: usize,
    pub block_density: f64,
    pub true_diag_nnz: usize,
}

/// The diagonal half of [`reduce`]: one loop over `diag_pop` (any run of the
/// diagonal slots that holds every populated one).
pub(crate) fn reduce_diagonals(
    nrows: usize,
    ncols: usize,
    nnz: usize,
    diag_pop: &[u32],
    alpha: f64,
) -> DiagonalFacts {
    let threshold = true_diag_threshold(nrows, ncols, alpha) as u32;
    // Each sum is at most the slot count (the diagonal counts) or the entry
    // count (the populations, which add up to `nnz`): while both fit in 32
    // bits, so does every lane, and twice as many lanes fit in a register.
    // `adjacent_pop` weighs diagonal adjacency by population: entries of
    // dense blocks land on runs of adjacent diagonals.
    let [ndiags, ntrue, true_diag_nnz, adjacent_pop] = if diag_pop.len().max(nnz) <= u32::MAX as usize {
        diag_sums::<u32>(diag_pop, threshold)
    } else {
        diag_sums::<u64>(diag_pop, threshold)
    };
    let block_density = if nnz == 0 { 0.0 } else { adjacent_pop as f64 / nnz as f64 };
    DiagonalFacts {
        ndiags: ndiags as usize,
        ntrue_diags: ntrue as usize,
        block_density,
        true_diag_nnz: true_diag_nnz as usize,
    }
}

/// The diagonal half of [`reduce`], joined with the row half.
fn reduce_diags(rows: RowsReduced, ncols: usize, diag_pop: &[u32], alpha: f64) -> Reduced {
    let nrows = rows.summary.prefix.len() - 1;
    let nnz = rows.nnz;
    let diagonals = reduce_diagonals(nrows, ncols, nnz, diag_pop, alpha);
    let stats = MatrixStats {
        nrows,
        ncols,
        nnz,
        row_nnz_min: rows.min as usize,
        row_nnz_max: rows.max as usize,
        row_nnz_mean: rows.mean,
        row_nnz_std: rows.std,
        ndiags: diagonals.ndiags,
        ntrue_diags: diagonals.ntrue_diags,
        true_diag_alpha: alpha,
        block_density: diagonals.block_density,
        bucket_skew: rows.bucket_skew,
    };
    Reduced { stats, rows: rows.summary, true_diag_nnz: diagonals.true_diag_nnz }
}

/// Zeroed histograms for a matrix of this shape: `nrows` row slots and
/// `nrows + ncols - 1` diagonal slots (none for degenerate shapes).
pub(crate) fn empty_hists(nrows: usize, ncols: usize) -> (Vec<u32>, Vec<u32>) {
    (vec![0u32; nrows], vec![0u32; if nrows == 0 || ncols == 0 { 0 } else { nrows + ncols - 1 }])
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
    use proptest::prelude::*;

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

    /// The row reduction as one sequential loop: one count table, every
    /// increment in row order.
    fn sequential_rows(row_counts: &[u32]) -> RowsReduced {
        let nrows = row_counts.len();
        let nnz: usize = row_counts.iter().map(|&c| c as usize).sum();
        let min = row_counts.iter().copied().min().unwrap_or(0);
        let max = row_counts.iter().copied().max().unwrap_or(0);
        let mean = if nrows == 0 { 0.0 } else { nnz as f64 / nrows as f64 };
        let mut squares = 0.0f64;
        let mut prefix = vec![0u64; nrows + 1];
        let mut group_max_sum = 0u64;
        let mut rows_with_len = vec![0usize; max as usize + 1];
        for (r, &c) in row_counts.iter().enumerate() {
            squares += (c as f64 - mean).powi(2);
            prefix[r + 1] = prefix[r] + u64::from(c);
            rows_with_len[c as usize] += 1;
        }
        for group in row_counts.chunks(ROW_GROUP) {
            group_max_sum += u64::from(group.iter().copied().max().unwrap_or(0));
        }
        RowsReduced::new(nrows, nnz, [min, max], squares, prefix, group_max_sum, rows_with_len)
    }

    /// The diagonal reduction as one sequential loop carrying the left
    /// neighbour.
    fn sequential_diags(rows: RowsReduced, ncols: usize, diag_pop: &[u32], alpha: f64) -> Reduced {
        let nrows = rows.summary.prefix.len() - 1;
        let threshold = true_diag_threshold(nrows, ncols, alpha) as u32;
        let (mut ndiags, mut ntrue, mut true_diag_nnz, mut adjacent_pop, mut left) = (0, 0, 0, 0u64, 0u32);
        for &p in diag_pop {
            if p > 0 {
                ndiags += 1;
                if p >= threshold {
                    ntrue += 1;
                    true_diag_nnz += p as usize;
                }
                if left > 0 {
                    adjacent_pop += u64::from(p);
                }
            }
            left = p;
        }
        let nnz = rows.nnz;
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
            block_density: if nnz == 0 { 0.0 } else { adjacent_pop as f64 / nnz as f64 },
            bucket_skew: rows.bucket_skew,
        };
        Reduced { stats, rows: rows.summary, true_diag_nnz }
    }

    /// Every field of `MatrixStats`, floats by their bits.
    fn bits(s: &MatrixStats) -> [u64; 12] {
        let ints = [s.nrows, s.ncols, s.nnz, s.row_nnz_min, s.row_nnz_max, s.ndiags, s.ntrue_diags];
        let floats = [s.row_nnz_mean, s.row_nnz_std, s.true_diag_alpha, s.block_density, s.bucket_skew];
        let mut out = [0u64; 12];
        out.iter_mut()
            .zip(ints.map(|i| i as u64).into_iter().chain(floats.map(f64::to_bits)))
            .for_each(|(o, v)| *o = v);
        out
    }

    /// `got` is `want` bitwise: the stats, the prefix sums, the count table,
    /// the group maxima, the default ladder's fit and the true-diagonal entries.
    fn assert_bitwise(got: &Reduced, want: &Reduced, what: &str) {
        assert_eq!(bits(&got.stats), bits(&want.stats), "{what}: stats");
        assert_eq!(got.rows.prefix, want.rows.prefix, "{what}: prefix sums");
        assert_eq!(got.rows.lengths, want.rows.lengths, "{what}: count table");
        assert_eq!(got.rows.group_max_sum, want.rows.group_max_sum, "{what}: group maxima");
        assert_eq!(got.rows.bell, want.rows.bell, "{what}: ladder fit");
        assert_eq!(got.true_diag_nnz, want.true_diag_nnz, "{what}: true-diagonal entries");
    }

    /// The reductions of `row_counts` and `diag_pop` (an `ncols`-column
    /// matrix's) against the sequential definitions.
    fn assert_reductions_match(row_counts: &[u32], ncols: usize, diag_pop: &[u32]) {
        let alpha = 0.2;
        let want = sequential_diags(sequential_rows(row_counts), ncols, diag_pop, alpha);
        assert_bitwise(&reduce(ncols, row_counts, diag_pop, alpha), &want, "whole");
        // The 64-bit lanes of matrices past 2^32 entries sum the same.
        let threshold = true_diag_threshold(row_counts.len(), ncols, alpha) as u32;
        assert_eq!(diag_sums::<u64>(diag_pop, threshold), diag_sums::<u32>(diag_pop, threshold), "lanes");
    }

    /// The shapes the chain-free loops have an edge at: no rows, one row,
    /// every row of one length, a hub row longer than there are rows, runs
    /// of populations at the true-diagonal threshold and either side of it,
    /// and diagonal runs of 0, 1, one lane chunk and several chunks plus a
    /// ragged tail.
    #[test]
    fn chain_free_reductions_equal_the_sequential_definitions_at_the_edges() {
        assert_reductions_match(&[], 0, &[]);
        assert_reductions_match(&[3], 5, &[1, 0, 2]);
        assert_reductions_match(&[7; 100], 100, &[100; 7]);
        let mut hub = vec![1u32; 37];
        hub[20] = 500;
        hub[21] = 500;
        assert_reductions_match(&hub, 600, &[0, 5, 0, 9, 9, 1]);
        // Odd rows either side of the short table's end.
        let edge = ODD_LENGTHS as u32;
        let around = [edge - 1, edge - 1, edge, edge, edge + 1, edge + 1, edge, edge - 1, edge];
        assert_reductions_match(&around, 600, &[]);
        // 50 x 50 at alpha 0.2: the threshold is 10.
        let rows = [4u32; 50];
        for len in [0, 1, DIAG_LANES, DIAG_LANES + 1, 3 * DIAG_LANES + 5] {
            let pops: Vec<u32> = (0..len).map(|i| [10, 9, 11, 0, 10, 10][i % 6]).collect();
            assert_reductions_match(&rows, 50, &pops);
        }
    }

    /// A draw below `n` from a linear congruential stream.
    fn draw(state: &mut u64, n: u32) -> u32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*state >> 33) as u32 % n.max(1)
    }

    /// Row histograms of the shapes the count tables meet: all rows of one
    /// length, one hub row longer than there are rows, runs of equal
    /// lengths, and scatter.
    fn arb_rows() -> impl Strategy<Value = Vec<u32>> {
        (0usize..4, 0u32..90, 1u32..40, 0u64..u64::MAX).prop_map(|(flavour, nrows, len, mut seed)| {
            let mut rows: Vec<u32> = match flavour {
                0 => vec![len; nrows as usize],
                1 | 2 => (0..nrows).map(|_| draw(&mut seed, 6)).collect(),
                _ => (0..nrows).map(|_| draw(&mut seed, 60)).collect(),
            };
            if flavour == 1 && nrows > 0 {
                let hub = draw(&mut seed, nrows) as usize;
                rows[hub] = nrows * 3 + 1;
            }
            if flavour == 2 {
                rows = rows.into_iter().flat_map(|l| std::iter::repeat_n(l, 1 + (l as usize) % 5)).collect();
            }
            rows
        })
    }

    /// Diagonal populations: mostly empty, and the rest around `threshold`.
    fn arb_pops() -> impl Strategy<Value = (Vec<u32>, u32)> {
        (0u32..90, 1u32..20, 0u64..u64::MAX).prop_map(|(len, threshold, mut seed)| {
            let pops = (0..len)
                .map(|_| match draw(&mut seed, 4) {
                    0 => 0,
                    1 => threshold,
                    _ => (threshold + draw(&mut seed, 5)).saturating_sub(2),
                })
                .collect();
            (pops, threshold)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The chain-free row and diagonal reductions equal the sequential
        /// definitions field for field.
        #[test]
        fn chain_free_reductions_equal_the_sequential_definitions(rows in arb_rows(), pops in arb_pops()) {
            // The threshold is `ceil(0.2 * min(nrows, ncols))`: columns that
            // put it where the populations were drawn around, rows allowing.
            let (pops, threshold) = pops;
            let ncols = 5 * threshold as usize;
            assert_reductions_match(&rows, ncols, &pops);
        }
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
