//! Structural analysis of a matrix, computed once and shared by all format
//! cost models.
//!
//! Everything the CPU and GPU models need is already in the shared
//! [`Analysis`] artifact: the two histograms and their reductions (Table-I
//! statistics, prefix sums, 32-row group maxima, the row-length count
//! table) and the entry-order facts of its one walk (`x`-gather locality,
//! occupied blocks per BSR dimension). [`assemble`] puts the machine view
//! together from it and touches the matrix again for nothing, unless asked.
//!
//! What it can be asked for are the two **pricing walks**, each read by the
//! price of one format and by nothing else: the occupied-block counts (BSR;
//! two thirds of the analysis walk when fused into it) and the row
//! histogram of HDC's CSR remainder (one more pass over the entries, and
//! only when some but not all of them lie on true diagonals — otherwise the
//! remainder is the whole matrix or nothing, and the view says so without a
//! copy). A view assembled without them prices the other six formats
//! exactly; a reader of an absent count or remainder panics naming itself —
//! never a zero — and [`MatrixAnalysis::take_pricing_walks`] adds them
//! later, bitwise what [`analyze_from`] over a full [`Analysis`] gives.
//! [`analyze`] and [`analyze_from`] compute everything their analysis
//! allows.

use morpheus::analysis::passes;
use morpheus::hdc::true_diag_threshold;
use morpheus::stats::{MatrixStats, RowLengthCounts};
use morpheus::{for_each_row_pattern, Analysis, DynamicMatrix, FormatId, Scalar};
use std::borrow::Cow;

/// GPU warp width used by the SIMT model (both vendors schedule SpMV
/// row-kernels in 32-wide groups; MI100 wavefronts are 64 but rocSPARSE maps
/// rows in 32-groups for these kernels, and the distinction is absorbed by
/// calibration). The shared analysis reduces its group maxima at this width.
pub const WARP: usize = morpheus::stats::ROW_GROUP;

/// The rows of HDC's CSR remainder: the entries off every true diagonal.
#[derive(Debug, Clone, PartialEq)]
pub enum HdcRemainder {
    /// No entry lies on a true diagonal: the remainder is the whole matrix,
    /// and its rows are [`MatrixAnalysis::row_hist`]'s.
    Whole,
    /// Every entry lies on a true diagonal: nothing remains.
    Empty,
    /// Some entries do, some do not: counted in a walk of the entries.
    Rows {
        /// Remainder entries per row — the weights the planned executor
        /// partitions the remainder by.
        hist: Vec<u32>,
        /// The longest remainder row.
        max_row: usize,
        /// `Σ_warp max(remainder row nnz)` over 32-row groups.
        warp_iters: u64,
    },
}

/// Pre-computed structural facts about one matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixAnalysis {
    /// Table-I statistics (shape, row distribution, diagonals).
    pub stats: MatrixStats,
    /// Non-zeros per row.
    pub row_hist: Vec<u32>,
    /// Fraction of entries whose column index is within one cache line
    /// (8 doubles) of the previous entry in the same row — the probability
    /// an `x`-gather hits an already-fetched line.
    pub locality: f64,
    /// ELL width (max row length).
    pub ell_width: usize,
    /// HYB split width `K_H` chosen by the storage-optimal rule.
    pub hyb_width: usize,
    /// Entries spilling to the HYB COO portion.
    pub hyb_coo_nnz: usize,
    /// True diagonals (HDC DIA portion).
    pub hdc_ntrue: usize,
    /// Entries stored in the HDC DIA portion.
    pub hdc_dia_nnz: usize,
    /// Entries in the HDC CSR remainder.
    pub hdc_csr_nnz: usize,
    /// `Σ_warp max(row nnz)`: iterations the scalar CSR GPU kernel spends,
    /// counting divergence (idle lanes wait for the longest row in the
    /// 32-row group).
    pub warp_iters_csr: u64,
    /// Mean row length of the HDC CSR remainder.
    pub hdc_csr_mean_row: f64,
    /// The rows of the HDC CSR remainder, read through
    /// [`MatrixAnalysis::hdc_csr_hist`], [`MatrixAnalysis::hdc_csr_max_row`]
    /// and [`MatrixAnalysis::warp_iters_hdc_csr`]. `None` when the split is
    /// mixed and the view was assembled without walking the entries for it:
    /// HDC's SpMV cannot then be priced, and the accessors refuse to.
    pub hdc_remainder: Option<HdcRemainder>,
    /// Prefix sums of `row_hist` (`row_prefix[i]` = entries in rows `< i`),
    /// for O(threads) static-partition imbalance queries.
    pub row_prefix: Vec<u64>,
    /// Occupied `b x b` blocks for each square block dim in
    /// [`morpheus::BSR_BLOCK_DIMS`] (2, 4, 8) — exact counts from the same
    /// row-major walk, so BSR padding (`blocks * b * b`) and block fill are
    /// known without converting. `None` when the view was assembled from an
    /// analysis whose walk left them out
    /// ([`Analysis::without_block_counts`]): nothing about BSR can then be
    /// priced, and the accessors below refuse to.
    pub bsr_blocks: Option<[usize; 3]>,
    /// BELL padded slots under the default power-of-two bucket ladder
    /// (each non-empty row rounded up to its bucket width).
    pub bell_padded: usize,
    /// Non-empty BELL buckets under the default ladder (kernel launches /
    /// slab sweeps the bucketed execution pays).
    pub bell_nbuckets: usize,
    /// Rows the BELL buckets hold: the non-empty ones.
    pub bell_rows: usize,
    /// How many rows hold each number of entries — what parameter proposal
    /// prices bucket ladders and reads row-length quantiles from.
    pub row_lengths: RowLengthCounts,
    /// `false` when assembled from an artifact without the entry walk
    /// ([`Analysis::walked`]): `locality`, the diagonal counts of `stats`,
    /// `hdc_ntrue` and the HDC split read zero and stand for nothing, so no
    /// format's time is priced exactly — [`crate::VirtualEngine::payback_floor`]
    /// bounds what it leaves open — and DIA, HDC and BSR not at all
    /// ([`MatrixAnalysis::prices`]). The row side is exact.
    pub walked: bool,
}

impl MatrixAnalysis {
    /// Load imbalance of an OpenMP `schedule(static)` row partition into
    /// `threads` contiguous chunks: slowest chunk's entries over the mean.
    /// This is the partition Morpheus' OpenMP CSR kernel uses, and it is
    /// what lets regular formats beat CSR on skewed matrices (§VII-C).
    pub fn static_row_imbalance(&self, threads: usize) -> f64 {
        let nrows = self.stats.nrows;
        let nnz = self.stats.nnz as f64;
        if threads <= 1 || nrows == 0 || nnz == 0.0 {
            return 1.0;
        }
        let threads = threads.min(nrows);
        let mean = nnz / threads as f64;
        let mut worst = 0u64;
        for t in 0..threads {
            let lo = t * nrows / threads;
            let hi = (t + 1) * nrows / threads;
            let chunk = self.row_prefix[hi] - self.row_prefix[lo];
            worst = worst.max(chunk);
        }
        (worst as f64 / mean).max(1.0)
    }

    /// Load imbalance of the **nnz-weighted** row partition the planned
    /// executor (`morpheus::ExecPlan`) builds: the *same*
    /// `weighted_partition_with` greedy is replayed over the row histogram
    /// and the slowest chunk compared against the ideal `nnz / threads`,
    /// so the prediction matches the schedule that actually runs — chunks
    /// can never split a row (the largest row lower-bounds the slowest
    /// chunk) and the greedy may overshoot its target by up to one row.
    /// O(rows) per query; compare
    /// [`MatrixAnalysis::static_row_imbalance`] for the OpenMP
    /// `schedule(static)` partition the paper's kernels use.
    pub fn balanced_row_imbalance(&self, threads: usize) -> f64 {
        greedy_balanced_imbalance(&self.row_hist, self.stats.nnz, threads)
    }

    /// [`MatrixAnalysis::balanced_row_imbalance`] for the HDC CSR
    /// remainder: the executor partitions the remainder by its *own* row
    /// weights (`ExecPlan` reads the remainder's `row_offsets`), so the
    /// model replays the greedy over the remainder histogram. Using the
    /// whole-matrix histogram here would mis-predict whenever the DIA
    /// portion absorbs the skew — and using anything *other* than the same
    /// greedy would rank HDC inconsistently against standalone CSR in the
    /// degenerate no-true-diagonals case, where the remainder is the whole
    /// matrix.
    ///
    /// # Panics
    /// As [`MatrixAnalysis::hdc_csr_hist`].
    #[track_caller]
    pub fn hdc_csr_balanced_imbalance(&self, threads: usize) -> f64 {
        greedy_balanced_imbalance(&self.hdc_csr_hist(), self.hdc_csr_nnz, threads)
    }

    /// The remainder, for a reader about to price HDC.
    ///
    /// # Panics
    /// If the split is mixed and the remainder walk was not taken. An absent
    /// remainder must never read as an empty one: that prices HDC's CSR part
    /// as free. The message names the reader, which is the code to fix (take
    /// the walks first: [`MatrixAnalysis::take_pricing_walks`]).
    #[track_caller]
    fn remainder(&self) -> &HdcRemainder {
        let Some(remainder) = &self.hdc_remainder else {
            panic!(
                "{} read the HDC remainder from a machine view assembled without the remainder walk",
                std::panic::Location::caller()
            )
        };
        remainder
    }

    /// Per-row occupancy of the HDC CSR remainder (entries off every true
    /// diagonal).
    ///
    /// # Panics
    /// If the view holds no remainder (see [`MatrixAnalysis::hdc_remainder`]).
    #[track_caller]
    pub fn hdc_csr_hist(&self) -> Cow<'_, [u32]> {
        match self.remainder() {
            HdcRemainder::Whole => Cow::Borrowed(&self.row_hist),
            HdcRemainder::Empty => Cow::Owned(vec![0; self.stats.nrows]),
            HdcRemainder::Rows { hist, .. } => Cow::Borrowed(hist),
        }
    }

    /// Maximum row length of the HDC CSR remainder (drives its GPU
    /// tail-latency terms).
    ///
    /// # Panics
    /// As [`MatrixAnalysis::hdc_csr_hist`].
    #[track_caller]
    pub fn hdc_csr_max_row(&self) -> usize {
        match self.remainder() {
            HdcRemainder::Whole => self.stats.row_nnz_max,
            HdcRemainder::Empty => 0,
            HdcRemainder::Rows { max_row, .. } => *max_row,
        }
    }

    /// [`MatrixAnalysis::warp_iters_csr`] for the HDC CSR remainder.
    ///
    /// # Panics
    /// As [`MatrixAnalysis::hdc_csr_hist`].
    #[track_caller]
    pub fn warp_iters_hdc_csr(&self) -> u64 {
        match self.remainder() {
            HdcRemainder::Whole => self.warp_iters_csr,
            HdcRemainder::Empty => 0,
            HdcRemainder::Rows { warp_iters, .. } => *warp_iters,
        }
    }

    /// `true` when the view holds what pricing `format` reads: everything
    /// but BSR's block counts and HDC's remainder is there always — on a
    /// walked view; one without the entry walk holds nothing of DIA's
    /// either, and prices the others' layouts, not their times (see
    /// [`MatrixAnalysis::walked`]).
    pub fn prices(&self, format: FormatId) -> bool {
        match format {
            FormatId::Bsr => self.bsr_blocks.is_some(),
            FormatId::Hdc => self.hdc_remainder.is_some(),
            FormatId::Dia => self.walked,
            _ => true,
        }
    }

    /// Takes the pricing walks the view was assembled without — the block
    /// counts (into `shared` too: [`Analysis::take_block_counts`]) and, on a
    /// mixed HDC split, the remainder histogram — each in a walk of `m` that
    /// does nothing else, and only if absent. The view is then what
    /// [`analyze_from`] gives over the full analysis. `shared` must be the
    /// analysis the view was assembled from.
    pub fn take_pricing_walks<V: Scalar>(&mut self, m: &DynamicMatrix<V>, shared: &mut Analysis) {
        assert!(shared.walked, "pricing walks are taken on an artifact with the entry walk");
        shared.take_block_counts(m);
        self.bsr_blocks = shared.entries.bsr_blocks;
        self.take_hdc_remainder(m, shared);
    }

    /// The remainder walk: one pass over the entries of `m`, subtracting from
    /// each row's length its entries on true diagonals. A no-op when the
    /// remainder is there.
    fn take_hdc_remainder<V: Scalar>(&mut self, m: &DynamicMatrix<V>, shared: &Analysis) {
        debug_assert!(shared.matches(m), "analysis artifact does not describe this matrix");
        if self.hdc_remainder.is_some() {
            return;
        }
        passes::record_traversal();
        let (nrows, ncols) = (shared.nrows, shared.ncols);
        let threshold = true_diag_threshold(nrows, ncols, shared.stats.true_diag_alpha) as u32;
        let mut hist = shared.row_hist.clone();
        for_each_row_pattern(m, |r, cols| {
            let slots = cols.iter().map(|&c| shared.diag_pop[c + nrows - 1 - r]);
            hist[r] -= slots.filter(|&p| p >= threshold).count() as u32;
        });
        let groups = hist.chunks(WARP).map(|w| u64::from(w.iter().copied().max().unwrap_or(0)));
        let (longest, warp_iters) = groups.fold((0, 0), |(l, s), g| (l.max(g), s + g));
        self.hdc_remainder = Some(HdcRemainder::Rows { hist, max_row: longest as usize, warp_iters });
    }

    /// Structural non-zeros.
    pub fn nnz(&self) -> usize {
        self.stats.nnz
    }

    /// Rows.
    pub fn nrows(&self) -> usize {
        self.stats.nrows
    }

    /// Columns.
    pub fn ncols(&self) -> usize {
        self.stats.ncols
    }

    /// ELL padded slots (`width * nrows`).
    pub fn ell_padded(&self) -> usize {
        self.ell_width * self.stats.nrows
    }

    /// DIA padded slots (`ndiags * nrows`).
    pub fn dia_padded(&self) -> usize {
        self.stats.ndiags * self.stats.nrows
    }

    /// HYB ELL-portion padded slots.
    pub fn hyb_padded(&self) -> usize {
        self.hyb_width * self.stats.nrows
    }

    /// HDC DIA-portion padded slots.
    pub fn hdc_padded(&self) -> usize {
        self.hdc_ntrue * self.stats.nrows
    }

    /// Bytes of the BELL arrays under the default ladder, as
    /// `morpheus::BellMatrix::storage_bytes` counts them: an `f64` value and
    /// a 4-byte column index per padded slot, a 4-byte row index per stored
    /// row. The one BELL storage formula of the machine model.
    pub fn bell_storage_bytes(&self) -> usize {
        self.bell_padded * 12 + self.bell_rows * 4
    }

    /// Mean non-zeros per row (0 for empty).
    pub fn mean_row(&self) -> f64 {
        self.stats.row_nnz_mean
    }

    /// BSR padded slots (`blocks * b * b`) for square block dim `b`.
    ///
    /// # Panics
    /// If `b` is not one of [`morpheus::BSR_BLOCK_DIMS`], or the view holds
    /// no block counts (see [`MatrixAnalysis::bsr_nblocks`]).
    #[track_caller]
    pub fn bsr_padded(&self, b: usize) -> usize {
        self.bsr_nblocks(b) * b * b
    }

    /// Occupied blocks for square block dim `b`.
    ///
    /// # Panics
    /// If the view holds no block counts. An absent count must never read
    /// as zero: that prices BSR as free storage, and a selector trained or
    /// run on such prices picks BSR for everything. The message names the
    /// reader, which is the code to fix (take the counts first:
    /// [`Analysis::take_block_counts`]).
    #[track_caller]
    pub fn bsr_nblocks(&self, b: usize) -> usize {
        let Some(blocks) = self.bsr_blocks else {
            panic!(
                "{} read a BSR block count from a machine view assembled without block counts",
                std::panic::Location::caller()
            )
        };
        blocks[bsr_dim_index(b)]
    }

    /// Block fill ratio `nnz / padded` for square dim `b` (1 when empty) —
    /// the quantity that decides whether register blocking pays.
    ///
    /// # Panics
    /// As [`MatrixAnalysis::bsr_padded`].
    #[track_caller]
    pub fn bsr_fill(&self, b: usize) -> f64 {
        let padded = self.bsr_padded(b);
        if padded == 0 {
            1.0
        } else {
            self.nnz() as f64 / padded as f64
        }
    }
}

/// Index of square block dim `b` in [`morpheus::BSR_BLOCK_DIMS`].
fn bsr_dim_index(b: usize) -> usize {
    morpheus::BSR_BLOCK_DIMS
        .iter()
        .position(|&d| d == b)
        .unwrap_or_else(|| panic!("unsupported BSR block dim {b}"))
}

/// Load imbalance of the nnz-weighted greedy row partition
/// (`weighted_partition_with`, the one `morpheus::ExecPlan` builds) over
/// the given per-row weights: slowest chunk over the ideal
/// `total / threads`. O(rows) per query.
fn greedy_balanced_imbalance(hist: &[u32], total: usize, threads: usize) -> f64 {
    let total = total as f64;
    if threads <= 1 || hist.is_empty() || total == 0.0 {
        return 1.0;
    }
    let threads = threads.min(hist.len());
    let parts = morpheus_parallel::weighted_partition_with(hist.len(), threads, |r| hist[r] as usize);
    let worst = parts.iter().map(|p| p.clone().map(|r| u64::from(hist[r])).sum::<u64>()).max().unwrap_or(0);
    (worst as f64 / (total / threads as f64)).max(1.0)
}

/// Analyses a matrix with the default true-diagonal fraction.
pub fn analyze<V: Scalar>(m: &DynamicMatrix<V>) -> MatrixAnalysis {
    analyze_with_alpha(m, morpheus::hdc::DEFAULT_TRUE_DIAG_ALPHA)
}

/// Analyses a matrix with an explicit true-diagonal fraction `alpha`.
///
/// Convenience wrapper that builds the shared [`Analysis`] first; callers
/// that already hold one (the Oracle does) should use [`analyze_from`] to
/// avoid repeating the walk.
pub fn analyze_with_alpha<V: Scalar>(m: &DynamicMatrix<V>, alpha: f64) -> MatrixAnalysis {
    analyze_from(m, &Analysis::of_auto(m, alpha))
}

/// Assembles the machine model's [`MatrixAnalysis`] from a shared
/// [`Analysis`] and every pricing walk it allows: the block counts are the
/// analysis' own (absent when its walk left them out), the HDC remainder is
/// read from `m` when the split is mixed (`0 < true-diagonal entries < nnz`).
pub fn analyze_from<V: Scalar>(m: &DynamicMatrix<V>, shared: &Analysis) -> MatrixAnalysis {
    let mut view = assemble(shared, std::mem::size_of::<V>());
    view.take_hdc_remainder(m, shared);
    view
}

/// The machine view of the matrix `shared` describes (entries of
/// `value_bytes` each), from the analysis alone: no matrix is read. It holds
/// the block counts when the analysis does and — the analysis walked — the
/// HDC remainder when that is the whole matrix or nothing; what is left out is said by
/// [`MatrixAnalysis::prices`] and added by
/// [`MatrixAnalysis::take_pricing_walks`].
pub fn assemble(shared: &Analysis, value_bytes: usize) -> MatrixAnalysis {
    let nrows = shared.nrows;
    let nnz = shared.nnz();
    let rows = &shared.rows;

    let hyb_width = rows.lengths.hyb_width(value_bytes);
    let hdc_dia_nnz = shared.true_diag_nnz;
    let hdc_csr_nnz = nnz - hdc_dia_nnz;
    let hdc_remainder = if !shared.walked {
        None
    } else if hdc_dia_nnz == 0 {
        Some(HdcRemainder::Whole)
    } else if hdc_csr_nnz == 0 {
        Some(HdcRemainder::Empty)
    } else {
        None
    };

    MatrixAnalysis {
        warp_iters_csr: rows.group_max_sum,
        stats: shared.stats.clone(),
        row_hist: shared.row_hist.clone(),
        locality: if nnz == 0 { 1.0 } else { shared.entries.gather_hits as f64 / nnz as f64 },
        ell_width: shared.stats.row_nnz_max,
        hyb_width,
        hyb_coo_nnz: rows.lengths.spill_beyond(hyb_width),
        hdc_ntrue: shared.stats.ntrue_diags,
        hdc_dia_nnz,
        hdc_csr_nnz,
        hdc_csr_mean_row: if nrows == 0 { 0.0 } else { hdc_csr_nnz as f64 / nrows as f64 },
        hdc_remainder,
        row_prefix: rows.prefix.clone(),
        bsr_blocks: shared.entries.bsr_blocks,
        bell_padded: rows.bell.padded,
        bell_nbuckets: rows.bell.buckets,
        bell_rows: rows.lengths.nonempty_rows(),
        row_lengths: rows.lengths.clone(),
        walked: shared.walked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus::CooMatrix;

    fn tridiag(n: usize) -> DynamicMatrix<f64> {
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..n {
            for d in [-1isize, 0, 1] {
                let j = i as isize + d;
                if j >= 0 && (j as usize) < n {
                    rows.push(i);
                    cols.push(j as usize);
                    vals.push(1.0);
                }
            }
        }
        DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
    }

    #[test]
    fn tridiagonal_analysis() {
        let a = analyze(&tridiag(100));
        assert_eq!(a.stats.ndiags, 3);
        assert_eq!(a.stats.ntrue_diags, 3);
        assert_eq!(a.ell_width, 3);
        assert_eq!(a.hdc_csr_nnz, 0);
        assert_eq!(a.hdc_dia_nnz, a.nnz());
        // Tridiagonal columns are adjacent -> high gather locality.
        assert!(a.locality > 0.6, "locality {}", a.locality);
        // No divergence: warp iterations equal 3 per warp except boundaries.
        assert_eq!(a.warp_iters_csr, (100usize.div_ceil(32) * 3) as u64);
        assert_eq!(a.warp_iters_hdc_csr(), 0);
        assert_eq!(a.hdc_remainder, Some(HdcRemainder::Empty));
    }

    #[test]
    fn skewed_matrix_divergence() {
        // 64 rows: 63 singletons + one row of 1000 entries.
        let n = 64usize;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for r in 0..n - 1 {
            rows.push(r);
            cols.push((r * 7) % n);
        }
        // Dense-ish last row in a wider matrix space.
        let m = 1024usize;
        for c in 0..1000 {
            rows.push(n - 1);
            cols.push(c % m);
        }
        let vals = vec![1.0; rows.len()];
        let coo = CooMatrix::from_triplets(n, m, &rows, &cols, &vals).unwrap();
        let a = analyze(&DynamicMatrix::from(coo));
        // Warp 0: max 1; warp 1: contains the dense row -> max 1000.
        assert_eq!(a.warp_iters_csr, 1 + 1000);
        assert_eq!(a.ell_width, 1000);
        // HYB spills the dense row's surplus to COO.
        assert!(a.hyb_width <= 2);
        assert!(a.hyb_coo_nnz >= 998);
    }

    #[test]
    fn scattered_matrix_low_locality() {
        // Deterministic scatter with large strides between columns.
        let n = 500usize;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for r in 0..n {
            for k in 0..4usize {
                rows.push(r);
                cols.push((r * 131 + k * 97) % n);
            }
        }
        let vals = vec![1.0; rows.len()];
        let coo = CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap();
        let a = analyze(&DynamicMatrix::from(coo));
        assert!(a.locality < 0.3, "locality {}", a.locality);
        assert!(a.stats.ndiags > 100);
        assert_eq!(a.stats.ntrue_diags, 0);
    }

    #[test]
    fn empty_matrix_analysis() {
        let m = DynamicMatrix::from(CooMatrix::<f64>::new(10, 10));
        let a = analyze(&m);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.warp_iters_csr, 0);
        assert_eq!(a.ell_padded(), 0);
        assert_eq!(a.locality, 1.0);
    }

    #[test]
    fn balanced_imbalance_bounded_by_largest_row_and_below_static() {
        // 63 singleton rows + one 1000-entry hub: schedule(static) hands
        // one contiguous chunk the hub *plus* its neighbours, the balanced
        // partition isolates the hub.
        let n = 64usize;
        let mut rows: Vec<usize> = (0..n - 1).collect();
        let mut cols: Vec<usize> = (0..n - 1).map(|r| (r * 7) % n).collect();
        let m = 1024usize;
        for c in 0..1000 {
            rows.push(n - 1);
            cols.push(c % m);
        }
        let vals = vec![1.0; rows.len()];
        let a = analyze(&DynamicMatrix::from(CooMatrix::from_triplets(n, m, &rows, &cols, &vals).unwrap()));
        let threads = 8;
        let balanced = a.balanced_row_imbalance(threads);
        let ideal = a.nnz() as f64 / threads as f64;
        assert!((balanced - 1000.0 / ideal).abs() < 1e-9, "hub bounds the slowest chunk: {balanced}");
        assert!(balanced <= a.static_row_imbalance(threads) + 1e-9, "balanced can only help");
        // Uniform matrices are near-perfectly balanced (the greedy may
        // overshoot its per-chunk target by at most one row).
        let u = tridiag(1000);
        let ua = analyze(&u);
        assert!((ua.balanced_row_imbalance(16) - 1.0).abs() < 0.05);
        assert_eq!(ua.balanced_row_imbalance(1), 1.0);
    }

    #[test]
    fn balanced_imbalance_replays_the_real_greedy_not_a_closed_form() {
        // Two heavy rows plus a singleton, two threads: the greedy crosses
        // its target mid-row and packs both heavy rows into one chunk, so
        // the true imbalance is ~2x — a closed-form max(ideal, max_row) /
        // ideal would report ~1x and make CSR look twice as fast as the
        // planned execution actually runs.
        let w = 100usize;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for r in 0..2 {
            for c in 0..w {
                rows.push(r);
                cols.push(c);
            }
        }
        rows.push(2);
        cols.push(0);
        let vals = vec![1.0f64; rows.len()];
        let a = analyze(&DynamicMatrix::from(CooMatrix::from_triplets(3, w, &rows, &cols, &vals).unwrap()));
        let balanced = a.balanced_row_imbalance(2);
        assert!(balanced > 1.9, "both heavy rows land in one chunk: {balanced}");
    }

    #[test]
    fn remainder_imbalance_consistent_with_whole_matrix_when_no_true_diags() {
        // Scattered matrix: no true diagonals, so the HDC CSR remainder is
        // the entire matrix and its modelled imbalance must equal the
        // standalone-CSR one — otherwise the tuner would rank HDC and CSR
        // differently for identical execution.
        let n = 500usize;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for r in 0..n {
            for j in 0..3usize {
                rows.push(r);
                cols.push((r * 131 + j * 97) % n);
            }
        }
        for c in 0..300 {
            rows.push(7);
            cols.push((c * 3 + 1) % n);
        }
        let vals = vec![1.0; rows.len()];
        let a = analyze(&DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap()));
        assert_eq!(a.stats.ntrue_diags, 0);
        assert_eq!(a.hdc_csr_nnz, a.nnz());
        for threads in [2, 8, 32] {
            assert_eq!(
                a.hdc_csr_balanced_imbalance(threads),
                a.balanced_row_imbalance(threads),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn hdc_split_partitions_nnz() {
        let a = analyze(&tridiag(64));
        assert_eq!(a.hdc_dia_nnz + a.hdc_csr_nnz, a.nnz());
    }

    #[test]
    fn analyze_from_is_format_invariant() {
        let base = tridiag(200);
        let reference = analyze(&base);
        let opts = morpheus::ConvertOptions::default();
        for fmt in morpheus::format::ALL_FORMATS {
            let m = base.to_format(fmt, &opts).unwrap();
            let shared = Analysis::of(&m, morpheus::hdc::DEFAULT_TRUE_DIAG_ALPHA);
            let a = analyze_from(&m, &shared);
            assert_eq!(a.stats, reference.stats, "{fmt}");
            assert_eq!(a.row_hist, reference.row_hist, "{fmt}");
            assert_eq!(a.locality, reference.locality, "{fmt}");
            assert_eq!(a.hdc_remainder, reference.hdc_remainder, "{fmt}");
            assert_eq!(a.hyb_width, reference.hyb_width, "{fmt}");
        }
    }

    /// The machine view reads the matrix again only for a mixed HDC split:
    /// never on a matrix whose every diagonal is true, once when some
    /// entries lie off the true diagonals — and then only when asked.
    #[test]
    fn analyze_from_touches_the_matrix_only_for_a_mixed_hdc_split() {
        let m = tridiag(300);
        let shared = Analysis::of(&m, morpheus::hdc::DEFAULT_TRUE_DIAG_ALPHA);
        passes::reset();
        let pure = analyze_from(&m, &shared);
        assert_eq!(passes::count(), 0, "all entries on true diagonals: nothing left to walk for");
        assert_eq!((pure.hdc_csr_nnz, pure.warp_iters_hdc_csr(), pure.hdc_csr_max_row()), (0, 0, 0));

        // The same band plus strays off it.
        let mut coo = m.to_coo().iter().collect::<Vec<_>>();
        coo.extend([(0, 150, 1.0), (0, 200, 1.0), (40, 250, 1.0)]);
        let (r, c): (Vec<usize>, Vec<usize>) = coo.iter().map(|e| (e.0, e.1)).unzip();
        let mixed =
            DynamicMatrix::from(CooMatrix::from_triplets(300, 300, &r, &c, &vec![1.0; r.len()]).unwrap());
        let shared = Analysis::of(&mixed, morpheus::hdc::DEFAULT_TRUE_DIAG_ALPHA);
        passes::reset();
        let a = analyze_from(&mixed, &shared);
        assert_eq!(passes::count(), 1, "only the HDC remainder walk may touch the matrix");
        assert_eq!((a.hdc_csr_nnz, a.hdc_csr_max_row()), (3, 2));
        assert_eq!(a.hdc_csr_hist().iter().map(|&n| n as usize).sum::<usize>(), 3);
        assert_eq!(a.warp_iters_hdc_csr(), 2 + 1, "row 0 holds two strays, row 40 one");

        // Assembled from the analysis alone, nothing is walked and every
        // format but HDC is priced; the walk taken later completes the view.
        passes::reset();
        let mut late = assemble(&shared, std::mem::size_of::<f64>());
        assert_eq!(passes::count(), 0, "the assembly reads no matrix");
        assert!(!late.prices(FormatId::Hdc) && late.prices(FormatId::Bsr) && late.prices(FormatId::Bell));
        let mut shared = shared;
        late.take_pricing_walks(&mixed, &mut shared);
        assert_eq!(passes::count(), 1, "the block counts were there: only the remainder is walked for");
        assert_eq!(late, a);
    }
}
