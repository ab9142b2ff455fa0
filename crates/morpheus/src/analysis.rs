//! The shared one-pass [`Analysis`] artifact.
//!
//! Every structural question the tuning pipeline asks of a matrix — the
//! Table-I features, the conversion plans (ELL width, DIA offsets, HYB
//! split, HDC's true diagonals, BELL padding), the machine model's gather
//! locality and block counts — is answered from **one walk over the
//! entries and one loop over each histogram**, and every downstream
//! consumer reads the artifact instead of the matrix:
//!
//! * feature extraction: `FeatureVector::from_stats(&analysis.stats)`,
//! * the Oracle's cache key: [`Analysis::structure_hash`],
//! * conversion planning: [`Analysis::ell_width`], [`Analysis::dia_offsets`],
//!   [`Analysis::hyb_width`], [`Analysis::true_diag_slots`],
//! * the machine model's view (`morpheus_machine::assemble`), which touches
//!   the matrix again for nothing, unless asked: HDC's remainder histogram
//!   is, like the block counts below, a *pricing walk* — read by the price
//!   of one format only, left out until something is about to price it
//!   (`MatrixAnalysis::take_pricing_walks`), and only ever needed when some
//!   but not all entries lie on true diagonals.
//!
//! # The one-pass contract
//!
//! **The entry walk** visits each row's ascending column indices once
//! ([`crate::for_each_row_pattern`]: sorted COO by runs of equal row index,
//! CSR by its offsets, every other format through its row-major walk) and
//! fills, per row: the row's length (one store per row, not an increment
//! per entry), the diagonal populations, the count of consecutive entries
//! at most [`GATHER_LINE`] columns apart, and the distinct `b x b` blocks
//! touched for each `b` in [`crate::BSR_BLOCK_DIMS`]. Rows ascend, so a
//! block row is never revisited: stamping each block column with the last
//! block row seen there counts distinct blocks exactly, with a compare and a
//! store instead of a branch. The block counts are the one fact the walk can
//! leave out: they are two thirds of its work per entry and nothing but BSR
//! pricing reads them, so [`Analysis::without_block_counts`] walks without
//! the stamps and [`Analysis::take_block_counts`] counts the blocks later,
//! in a walk that does nothing else, should BSR come up after all — the
//! artifact is then bitwise the fused walk's. **The reductions**
//! ([`crate::stats`]) then
//! loop once over the row histogram (Table I, prefix sums, 32-row group
//! maxima, the row-length count table BELL/HYB/quantile questions are
//! answered from in O(longest row)) and once over the diagonal populations.
//!
//! **The row side** needs no walk at all for a CSR matrix: its offsets are
//! the row histogram. [`Analysis::of_rows`] builds that side alone (the
//! row statistics of Table I, the prefix sums, the group maxima, the count
//! table) and leaves out everything the walk counts; [`Analysis::walk_bounds`]
//! bounds the three features it would have given (`ndiags`, `ntrue_diags`,
//! `block_density`) from a sample of 64 rows, and
//! [`Analysis::take_entry_walk`] completes the artifact — bitwise
//! [`Analysis::without_block_counts`]' — should a decision need the walk
//! after all.
//!
//! **The structure hash** is not part of the walk: a decision-cache lookup
//! needs it before anything else is known, so callers that hold it pass it
//! in ([`Analysis::of_auto_with_hash`]) and the others pay one sweep of the
//! index arrays (see [`DynamicMatrix::structure_hash`] for its four-lane
//! definition).
//!
//! # Where the walk runs
//!
//! On the calling thread, with one exception: the walk a service's
//! registration runs — a CSR matrix, no block counts
//! ([`Analysis::without_block_counts`]) — takes the pool the caller hands
//! it, and at [`PARALLEL_CONVERT_THRESHOLD`] entries or more splits over
//! it. The rows are cut at multiples of eight, balanced by the offsets;
//! each share fills its own rows of `row_hist`, the first share the
//! diagonal populations and every other share a diagonal array of its own,
//! of which only the slots it populated are added in; the gather hits and
//! the populated range are combined. Every field is a sum of counts, so the
//! artifact is bitwise the serial walk's. A service hands in the pool it
//! owns, never the process-wide one (an earlier split walk forked onto
//! that pool and its wake-up cost what the split saved: README, "Cold
//! path"). The block counts ([`Analysis::take_block_counts`]) and the walks
//! of every other format stay serial.
//!
//! # Instrumentation: the traversal counter
//!
//! [`passes`] maintains a thread-local count of *analysis-class full
//! traversals* — walks of the whole matrix performed to answer an analysis
//! or planning question, recorded once on the thread that asked, however
//! many threads walked (constructing an `Analysis`, `stats_of`,
//! `structure_hash`, `row_nnz_histogram`, converter planning scans, the
//! machine model's HDC-remainder walk). Conversion *fill* passes are not
//! counted: they are inherent to producing the target arrays. Tests use the
//! counter to assert the reuse contract: once an `Analysis` exists, feature
//! extraction, cache keying and conversion planning add **zero** further
//! traversals.

use std::ops::Range;

use crate::bsr::BSR_BLOCK_DIMS;
use crate::convert::kernels::PARALLEL_CONVERT_THRESHOLD;
use crate::csr::CsrMatrix;
use crate::dynamic::DynamicMatrix;
use crate::hdc::true_diag_threshold;
use crate::rowmajor::for_each_row_pattern;
use crate::scalar::Scalar;
use crate::stats::{empty_hists, reduce, reduce_diagonals, MatrixStats, Reduced, RowSummary};
use morpheus_parallel::ThreadPool;

/// Columns a gathered `x` cache line spans at eight bytes a value: two
/// consecutive entries of a row at most this far apart count as one line
/// fetch for the machine model's gather locality.
pub const GATHER_LINE: usize = 8;

/// Thread-local counter of analysis-class full matrix traversals.
///
/// See the [module docs](self) for what counts as a traversal. The counter
/// is thread-local so concurrently running tests do not observe each
/// other's work.
pub mod passes {
    use std::cell::Cell;

    thread_local! {
        static TRAVERSALS: Cell<u64> = const { Cell::new(0) };
    }

    /// Traversals recorded on this thread since the last [`reset`].
    pub fn count() -> u64 {
        TRAVERSALS.with(|c| c.get())
    }

    /// Zeroes this thread's counter.
    pub fn reset() {
        TRAVERSALS.with(|c| c.set(0));
    }

    /// Records one full traversal. Instrumentation hook for this workspace's
    /// analysis producers; not intended for end users.
    #[doc(hidden)]
    pub fn record_traversal() {
        TRAVERSALS.with(|c| c.set(c.get() + 1));
    }
}

/// What the entry walk learns that neither histogram can express.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EntryFacts {
    /// Entries at most [`GATHER_LINE`] columns right of the previous entry
    /// of their row.
    pub gather_hits: usize,
    /// Occupied `b x b` blocks for each `b` in [`crate::BSR_BLOCK_DIMS`];
    /// `None` while they have not been counted
    /// ([`Analysis::without_block_counts`]).
    pub bsr_blocks: Option<[usize; 3]>,
}

/// One-pass structural analysis of a matrix, shared by feature extraction,
/// cache keying, conversion planning and the machine model. See the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Rows of the analysed matrix.
    pub nrows: usize,
    /// Columns of the analysed matrix.
    pub ncols: usize,
    /// What the source matrix *reported* as its nnz. For DIA/HDC storage
    /// this can exceed [`MatrixStats::nnz`]: explicit stored zeros count
    /// toward the format's nnz but are elided from the structural
    /// histograms (they are indistinguishable from padding). Used by
    /// [`Analysis::matches`] so an artifact still recognises the matrix it
    /// was computed from.
    pub source_nnz: usize,
    /// Structural non-zeros per row.
    pub row_hist: Vec<u32>,
    /// Structural non-zeros per diagonal, indexed `col + nrows - 1 - row`
    /// (all `nrows + ncols - 1` diagonals; empty for degenerate shapes).
    pub diag_pop: Vec<u32>,
    /// Table-I statistics reduced from the histograms — bitwise equal to
    /// [`crate::stats::stats_of`] on the same matrix.
    pub stats: MatrixStats,
    /// The matrix's [`DynamicMatrix::structure_hash`].
    pub structure_hash: u64,
    /// The row-side reductions of `row_hist`.
    pub rows: RowSummary,
    /// The entry-order facts.
    pub entries: EntryFacts,
    /// Entries lying on true diagonals (HDC's DIA portion).
    pub true_diag_nnz: usize,
    /// `false` for the row side alone ([`Analysis::of_rows`]): `diag_pop` is
    /// empty, and `stats.ndiags`, `stats.ntrue_diags`, `stats.block_density`,
    /// `entries` and `true_diag_nnz` read zero, not what the walk would
    /// count, until [`Analysis::take_entry_walk`] completes the artifact.
    pub walked: bool,
}

/// Sound bounds of the three features only the entry walk counts — each
/// `[lo, hi]`, the walked value inside — for an artifact built without the
/// walk; points for a walked one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkBounds {
    /// Non-empty diagonals: at least the distinct diagonals of
    /// [`DIAGONAL_SAMPLE_ROWS`] rows spread over the matrix (and the longest
    /// row, whose entries lie on distinct diagonals), at most
    /// `min(nnz, nrows + ncols - 1)`.
    pub ndiags: [usize; 2],
    /// True diagonals: at most the diagonals there can be, and `nnz / T` for
    /// the true-diagonal threshold `T` (each holds at least `T` entries).
    pub ntrue_diags: [usize; 2],
    /// Entry fraction on adjacent-diagonal runs: a fraction.
    pub block_density: [f64; 2],
}

/// Rows the diagonal sample of [`Analysis::walk_bounds`] reads, spread evenly
/// over the matrix.
pub const DIAGONAL_SAMPLE_ROWS: usize = 64;

impl Analysis {
    /// Analyses `m`: one hash sweep, one entry walk, one loop over each
    /// histogram.
    pub fn of<V: Scalar>(m: &DynamicMatrix<V>, alpha: f64) -> Analysis {
        Self::build::<V, true>(m, alpha, None, None)
    }

    /// [`Analysis::of`], for callers that leave how the analysis runs to the
    /// library (it runs on the calling thread: see the [module docs](self)).
    pub fn of_auto<V: Scalar>(m: &DynamicMatrix<V>, alpha: f64) -> Analysis {
        Self::of(m, alpha)
    }

    /// [`Analysis::of`] reusing an already-computed
    /// [`DynamicMatrix::structure_hash`] instead of re-hashing.
    ///
    /// The caller must pass the hash of **this** matrix in its **current**
    /// format (debug builds verify it) — the Oracle uses this after keying
    /// its decision cache, so a cache miss pays for the hash exactly once.
    pub fn of_auto_with_hash<V: Scalar>(m: &DynamicMatrix<V>, alpha: f64, hash: u64) -> Analysis {
        Self::build::<V, true>(m, alpha, Some(hash), None)
    }

    /// [`Analysis::of_auto_with_hash`] whose walk leaves the block counts
    /// out ([`EntryFacts::bsr_blocks`] is `None`): they are two thirds of
    /// the walk's work per entry and only BSR pricing reads them, so a
    /// caller that will decide without pricing BSR skips them and, should
    /// BSR come up after all, takes them with
    /// [`Analysis::take_block_counts`]. Every other field is bitwise what
    /// the full walk gives.
    ///
    /// Given a `pool`, the walk of a CSR matrix of at least
    /// [`PARALLEL_CONVERT_THRESHOLD`] entries runs on it (see the
    /// [module docs](self)); the artifact is bitwise the same. `None`, a
    /// pool of one, and every other format walk on the calling thread.
    pub fn without_block_counts<V: Scalar>(
        m: &DynamicMatrix<V>,
        alpha: f64,
        hash: u64,
        pool: Option<&ThreadPool>,
    ) -> Analysis {
        Self::build::<V, false>(m, alpha, Some(hash), pool)
    }

    /// The row side of `csr`'s artifact, from its offsets alone: the row
    /// histogram, the row statistics and the row summary, with nothing the
    /// entry walk counts ([`Analysis::walked`] is `false`). No entry is read
    /// and no traversal is counted. `hash` must be `csr`'s structure hash.
    pub fn of_rows<V: Scalar>(csr: &CsrMatrix<V>, alpha: f64, hash: u64) -> Analysis {
        let (nrows, ncols) = (csr.nrows(), csr.ncols());
        // The lengths the walk stores, one per row.
        let row_hist: Vec<u32> = csr.row_offsets().windows(2).map(|w| (w[1] - w[0]) as u32).collect();
        let Reduced { stats, rows, true_diag_nnz } = reduce(ncols, &row_hist, &[], alpha);
        Analysis {
            nrows,
            ncols,
            source_nnz: csr.nnz(),
            row_hist,
            diag_pop: Vec::new(),
            stats,
            structure_hash: hash,
            rows,
            entries: EntryFacts::default(),
            true_diag_nnz,
            walked: false,
        }
    }

    /// Completes an artifact [`of_rows`](Self::of_rows) built from `csr`
    /// with one walk of its entries, on `pool` as
    /// [`Analysis::without_block_counts`] walks, and one loop over the
    /// diagonal populations; the row side is kept. The artifact is then
    /// bitwise what `without_block_counts` gives. A no-op on a walked
    /// artifact.
    pub fn take_entry_walk<V: Scalar>(&mut self, csr: &CsrMatrix<V>, pool: Option<&ThreadPool>) {
        if self.walked {
            return;
        }
        passes::record_traversal();
        debug_assert!(
            (self.nrows, self.ncols, self.source_nnz) == (csr.nrows(), csr.ncols(), csr.nnz()),
            "analysis artifact does not describe this matrix"
        );
        let (_, mut diag_pop) = empty_hists(self.nrows, self.ncols);
        // The walk stores each row's length again: the ones the offsets gave.
        let (entries, populated) = walk_csr(csr, &mut self.row_hist, &mut diag_pop, pool);
        let diagonals = reduce_diagonals(
            self.nrows,
            self.ncols,
            self.stats.nnz,
            &diag_pop[populated],
            self.stats.true_diag_alpha,
        );
        self.stats.ndiags = diagonals.ndiags;
        self.stats.ntrue_diags = diagonals.ntrue_diags;
        self.stats.block_density = diagonals.block_density;
        self.true_diag_nnz = diagonals.true_diag_nnz;
        (self.diag_pop, self.entries, self.walked) = (diag_pop, entries, true);
    }

    /// Bounds of the features the entry walk counts, `csr` being the matrix
    /// the artifact describes: the walked values themselves when it was
    /// walked; otherwise read off the row side and a diagonal sample of
    /// [`DIAGONAL_SAMPLE_ROWS`] rows (not a traversal).
    pub fn walk_bounds<V: Scalar>(&self, csr: &CsrMatrix<V>) -> WalkBounds {
        let s = &self.stats;
        if self.walked {
            return WalkBounds {
                ndiags: [s.ndiags; 2],
                ntrue_diags: [s.ntrue_diags; 2],
                block_density: [s.block_density; 2],
            };
        }
        let slots = if self.nrows == 0 || self.ncols == 0 { 0 } else { self.nrows + self.ncols - 1 };
        let most = s.nnz.min(slots);
        let least = sampled_diagonals(csr).max(s.row_nnz_max).min(most);
        let threshold = true_diag_threshold(self.nrows, self.ncols, s.true_diag_alpha);
        WalkBounds {
            ndiags: [least, most],
            ntrue_diags: [0, most.min(s.nnz / threshold)],
            block_density: [0.0, 1.0],
        }
    }

    /// Counts the blocks a walk [`without_block_counts`](Self::without_block_counts)
    /// left out, in one walk of `m` that does nothing else: the artifact is
    /// then what the full walk would have built. A no-op when the counts are
    /// there.
    pub fn take_block_counts<V: Scalar>(&mut self, m: &DynamicMatrix<V>) {
        debug_assert!(self.matches(m), "analysis artifact does not describe this matrix");
        if self.entries.bsr_blocks.is_some() {
            return;
        }
        passes::record_traversal();
        let mut stamps = Stamps::new(self.nrows, self.ncols);
        let mut blocks = [0usize; 3];
        for_each_row_pattern(m, |r, cols| stamps.count_row(r, cols, &mut blocks));
        self.entries.bsr_blocks = Some(blocks);
    }

    fn build<V: Scalar, const BLOCKS: bool>(
        m: &DynamicMatrix<V>,
        alpha: f64,
        hash: Option<u64>,
        pool: Option<&ThreadPool>,
    ) -> Analysis {
        passes::record_traversal();
        debug_assert!(
            hash.is_none_or(|h| h == m.structure_hash_raw()),
            "precomputed hash disagrees with the matrix"
        );
        let structure_hash = hash.unwrap_or_else(|| m.structure_hash_raw());
        let (nrows, ncols) = (m.nrows(), m.ncols());
        let (mut row_hist, mut diag_pop) = empty_hists(nrows, ncols);
        let (entries, populated) = match m {
            DynamicMatrix::Csr(csr) if !BLOCKS => walk_csr(csr, &mut row_hist, &mut diag_pop, pool),
            _ => {
                let mut stamps = if BLOCKS { Stamps::new(nrows, ncols) } else { Stamps::unused() };
                let mut walk = stamps.over(nrows, &mut diag_pop);
                for_each_row_pattern(m, |r, cols| {
                    // Added, not stored: were a COO matrix not sorted, a row
                    // met twice would still count all its entries.
                    row_hist[r] += cols.len() as u32;
                    walk.row::<BLOCKS>(r, cols);
                });
                (walk.facts::<BLOCKS>(), walk.populated())
            }
        };
        let Reduced { stats, rows, true_diag_nnz } = reduce(ncols, &row_hist, &diag_pop[populated], alpha);
        Analysis {
            nrows,
            ncols,
            source_nnz: m.nnz(),
            row_hist,
            diag_pop,
            stats,
            structure_hash,
            rows,
            entries,
            true_diag_nnz,
            walked: true,
        }
    }

    /// `true` when the artifact plausibly describes `m` (shape and the
    /// source-reported nnz match). A cheap guard for planning code handed a
    /// caller-supplied analysis — it cannot prove the sparsity *pattern*
    /// matches, which is why the conversion kernels additionally validate
    /// plan-derived indices during their fill passes.
    pub fn matches<V: Scalar>(&self, m: &DynamicMatrix<V>) -> bool {
        self.nrows == m.nrows() && self.ncols == m.ncols() && self.source_nnz == m.nnz()
    }

    /// Structural non-zeros.
    pub fn nnz(&self) -> usize {
        self.stats.nnz
    }

    /// ELL slab width the matrix needs (its maximum row occupancy).
    pub fn ell_width(&self) -> usize {
        self.stats.row_nnz_max
    }

    /// Offsets of every populated diagonal, ascending — the DIA planning
    /// answer, read straight from the histogram.
    pub fn dia_offsets(&self) -> Vec<isize> {
        dia_offsets_from_pop(&self.diag_pop, self.nrows)
    }

    /// Storage-optimal HYB split width for entries of `value_bytes` each.
    pub fn hyb_width(&self, value_bytes: usize) -> usize {
        self.rows.lengths.hyb_width(value_bytes)
    }

    /// Diagonal slots meeting `threshold` (the HDC "true diagonal" set),
    /// ascending, plus the number of entries they hold.
    pub fn true_diag_slots(&self, threshold: usize) -> (Vec<usize>, usize) {
        true_diag_slots_from_pop(&self.diag_pop, threshold)
    }
}

/// Distinct diagonals among the entries of [`DIAGONAL_SAMPLE_ROWS`] rows of
/// `csr` spread evenly over it (all of them when it has fewer).
fn sampled_diagonals<V: Scalar>(csr: &CsrMatrix<V>) -> usize {
    let nrows = csr.nrows();
    let sample = nrows.min(DIAGONAL_SAMPLE_ROWS);
    let mut slots: Vec<usize> = (0..sample)
        .map(|i| i * nrows / sample)
        .flat_map(|r| csr.row_cols(r).iter().map(move |&c| c + nrows - 1 - r))
        .collect();
    slots.sort_unstable();
    slots.dedup();
    slots.len()
}

/// Populated-diagonal offsets (ascending) from a diagonal-population
/// histogram. The single reduction both [`Analysis::dia_offsets`] and the
/// converters' unplanned rescans go through, so the planned and unplanned
/// DIA layouts cannot diverge.
pub(crate) fn dia_offsets_from_pop(diag_pop: &[u32], nrows: usize) -> Vec<isize> {
    let base = nrows as isize - 1;
    diag_pop.iter().enumerate().filter(|(_, &p)| p > 0).map(|(slot, _)| slot as isize - base).collect()
}

/// True-diagonal slots (ascending) and the entries they hold, from a
/// diagonal-population histogram — shared by [`Analysis::true_diag_slots`]
/// and the converters' unplanned rescans.
pub(crate) fn true_diag_slots_from_pop(diag_pop: &[u32], threshold: usize) -> (Vec<usize>, usize) {
    let mut slots = Vec::new();
    let mut entries = 0usize;
    for (slot, &p) in diag_pop.iter().enumerate() {
        if p as usize >= threshold {
            slots.push(slot);
            entries += p as usize;
        }
    }
    (slots, entries)
}

/// The block-row stamps the entry walk carries from row to row.
struct Stamps {
    /// Per block dimension `b`, a stamp per block column `c / b`: one plus
    /// the last block row `r / b` that put an entry there; 0 means none has
    /// yet.
    seen: [Vec<u32>; 3],
}

impl Stamps {
    fn new(nrows: usize, ncols: usize) -> Self {
        // Block rows are stamped in 4 bytes.
        assert!(nrows <= u32::MAX as usize, "{nrows} rows are more than the analysis stamps");
        Stamps { seen: BSR_BLOCK_DIMS.map(|b| vec![0u32; ncols.div_ceil(b)]) }
    }

    /// No stamps at all, for a walk that counts no blocks.
    fn unused() -> Self {
        Stamps { seen: Default::default() }
    }

    /// The walk over the rows of an `nrows`-row matrix, in ascending order,
    /// filling `diag` as its diagonal populations.
    fn over<'a>(&'a mut self, nrows: usize, diag: &'a mut [u32]) -> RowWalk<'a> {
        RowWalk {
            end: nrows,
            diag,
            stamps: self,
            gather_hits: 0,
            blocks: [0; 3],
            first_slot: usize::MAX,
            end_slot: 0,
        }
    }

    /// Adds to `new` the blocks row `r` is the first to touch, for each
    /// block dimension. Rows must come in ascending order.
    #[inline(always)]
    fn count_row(&mut self, r: usize, cols: &[usize], new: &mut [usize; 3]) {
        let stamps = BSR_BLOCK_DIMS.map(|b| (r / b) as u32 + 1);
        for &c in cols {
            self.count_entry(c, stamps, new);
        }
    }

    /// Compare and store, never branch: whether a block is new is as
    /// unpredictable as the pattern. Rows ascend, so an older stamp is a
    /// smaller one, and "new" is the carry of the compare.
    #[inline(always)]
    fn count_entry(&mut self, c: usize, stamps: [u32; 3], new: &mut [usize; 3]) {
        for i in 0..BSR_BLOCK_DIMS.len() {
            let seen = &mut self.seen[i][c / BSR_BLOCK_DIMS[i]];
            new[i] += usize::from(std::mem::replace(seen, stamps[i]) < stamps[i]);
        }
    }
}

/// The per-row body of the entry walk.
struct RowWalk<'a> {
    /// Rows of the matrix walked.
    end: usize,
    /// Diagonal populations of the matrix.
    diag: &'a mut [u32],
    stamps: &'a mut Stamps,
    gather_hits: usize,
    blocks: [usize; 3],
    /// The lowest diagonal slot an entry fell in, and one past the highest.
    first_slot: usize,
    end_slot: usize,
}

impl RowWalk<'_> {
    /// The slots of `diag` between the lowest and the highest populated one:
    /// all a reduction need read (on a banded pattern, a fraction).
    fn populated(&self) -> Range<usize> {
        self.first_slot.min(self.end_slot)..self.end_slot
    }

    /// What the walk counted, `BLOCKS` being what its rows were walked with.
    fn facts<const BLOCKS: bool>(&self) -> EntryFacts {
        EntryFacts { gather_hits: self.gather_hits, bsr_blocks: BLOCKS.then_some(self.blocks) }
    }

    /// Row `r`'s ascending column indices; the blocks they touch are counted
    /// when `BLOCKS`.
    #[inline(always)]
    fn row<const BLOCKS: bool>(&mut self, r: usize, cols: &[usize]) {
        // No column is within a line of this one: they index allocations, so
        // they lie below `isize::MAX`.
        const FAR: usize = usize::MAX / 2;
        let base = self.end - 1 - r;
        if let (Some(first), Some(last)) = (cols.first(), cols.last()) {
            self.first_slot = self.first_slot.min(first + base);
            self.end_slot = self.end_slot.max(last + base + 1);
        }
        let stamps = BSR_BLOCK_DIMS.map(|b| (r / b) as u32 + 1);
        let mut new = [0usize; 3];
        let mut near = 0usize;
        let mut prev = FAR;
        for &c in cols {
            near += usize::from(c.wrapping_sub(prev) <= GATHER_LINE);
            prev = c;
            self.diag[c + base] += 1;
            if BLOCKS {
                self.stamps.count_entry(c, stamps, &mut new);
            }
        }
        self.gather_hits += near;
        for (total, new) in self.blocks.iter_mut().zip(new) {
            *total += new;
        }
    }
}

/// Rows of a share of the split walk come in multiples of this: a share's
/// first row starts a fresh group of eight `row_hist` slots.
const ROW_GRAIN: usize = 8;

/// The entry walk of a CSR matrix without block counts, on `pool` when it
/// is given, wider than one and the matrix has at least
/// [`PARALLEL_CONVERT_THRESHOLD`] entries: the rows are cut at multiples of
/// [`ROW_GRAIN`] balanced by the offsets, each share fills its own rows of
/// `row_hist`, share 0 the diagonal populations `diag` and every other its
/// own array, of which only the slots it populated are added into `diag`.
/// Sums of counts, so every field is bitwise the one-share walk's. Returns
/// the entry facts and the populated slots.
fn walk_csr<V: Scalar>(
    csr: &CsrMatrix<V>,
    row_hist: &mut [u32],
    diag: &mut [u32],
    pool: Option<&ThreadPool>,
) -> (EntryFacts, Range<usize>) {
    let parts = pool.filter(|_| csr.nnz() >= PARALLEL_CONVERT_THRESHOLD).map_or(1, ThreadPool::num_threads);
    let cuts = row_cuts(csr.row_offsets(), parts);
    let slots = diag.len();
    let mut jobs = Vec::with_capacity(parts);
    let (mut rest, mut first_diag) = (row_hist, Some(&mut *diag));
    for bounds in cuts.windows(2) {
        let (hist, tail) = std::mem::take(&mut rest).split_at_mut(bounds[1] - bounds[0]);
        rest = tail;
        jobs.push((bounds[0]..bounds[1], hist, first_diag.take()));
    }
    let walk_share = |(rows, hist, diag): (Range<usize>, &mut [u32], Option<&mut [u32]>)| match diag {
        Some(diag) => (walk_rows(csr, rows, hist, diag), None),
        None => {
            let mut own = vec![0u32; slots];
            (walk_rows(csr, rows, hist, &mut own), Some(own))
        }
    };
    let walked = match pool {
        Some(pool) => pool.run_jobs(jobs, walk_share),
        None => jobs.into_iter().map(walk_share).collect(),
    };
    let (mut gather_hits, mut first_slot, mut end_slot) = (0usize, usize::MAX, 0usize);
    for ((hits, populated), own) in walked {
        gather_hits += hits;
        if let Some(own) = own {
            diag[populated.clone()].iter_mut().zip(&own[populated.clone()]).for_each(|(d, o)| *d += o);
        }
        if !populated.is_empty() {
            first_slot = first_slot.min(populated.start);
            end_slot = end_slot.max(populated.end);
        }
    }
    (EntryFacts { gather_hits, bsr_blocks: None }, first_slot.min(end_slot)..end_slot)
}

/// One share of [`walk_csr`]: rows `rows` of `csr`, whose lengths go to
/// `hist` (from its first slot) and whose diagonals to `diag`. Returns the
/// share's gather hits and populated slots.
fn walk_rows<V: Scalar>(
    csr: &CsrMatrix<V>,
    rows: Range<usize>,
    hist: &mut [u32],
    diag: &mut [u32],
) -> (usize, Range<usize>) {
    let mut stamps = Stamps::unused();
    let mut walk = stamps.over(csr.nrows(), diag);
    for (r, len) in rows.zip(hist) {
        let cols = csr.row_cols(r);
        if !cols.is_empty() {
            *len = cols.len() as u32;
            walk.row::<false>(r, cols);
        }
    }
    (walk.gather_hits, walk.populated())
}

/// `parts + 1` ascending row bounds from 0 to the last row: bound `p` is
/// the multiple of [`ROW_GRAIN`] nearest the row at which `p / parts` of
/// the entries have passed, by the CSR `offsets`.
fn row_cuts(offsets: &[usize], parts: usize) -> Vec<usize> {
    let nrows = offsets.len() - 1;
    let nnz = offsets[nrows] as u128;
    let mut cuts = vec![0usize; parts + 1];
    for p in 1..parts {
        let target = (nnz * p as u128 / parts as u128) as usize;
        let row = offsets.partition_point(|&o| o < target);
        cuts[p] = ((row + ROW_GRAIN / 2) / ROW_GRAIN * ROW_GRAIN).min(nrows).max(cuts[p - 1]);
    }
    cuts[parts] = nrows;
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::ConvertOptions;
    use crate::format::ALL_FORMATS;
    use crate::stats::stats_of;
    use crate::test_util::random_coo;

    #[test]
    fn analysis_matches_stats_and_hash_for_every_format() {
        let coo = random_coo::<f64>(60, 45, 700, 5);
        let base = DynamicMatrix::from(coo);
        let opts = ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() };
        for &fmt in &ALL_FORMATS {
            let m = base.to_format(fmt, &opts).unwrap();
            let a = Analysis::of(&m, 0.2);
            assert_eq!(a.stats, stats_of(&m, 0.2), "stats for {fmt}");
            assert_eq!(a.structure_hash, m.structure_hash(), "hash for {fmt}");
            assert!(a.matches(&m));
        }
    }

    #[test]
    fn planning_helpers_read_the_histograms() {
        // Tridiagonal 50x50.
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for i in 0..50usize {
            for d in [-1isize, 0, 1] {
                let j = i as isize + d;
                if (0..50).contains(&j) {
                    rows.push(i);
                    cols.push(j as usize);
                }
            }
        }
        let vals = vec![1.0f64; rows.len()];
        let m = DynamicMatrix::from(crate::CooMatrix::from_triplets(50, 50, &rows, &cols, &vals).unwrap());
        let a = Analysis::of(&m, 0.2);
        assert_eq!(a.ell_width(), 3);
        assert_eq!(a.dia_offsets(), vec![-1, 0, 1]);
        let (slots, entries) = a.true_diag_slots(10);
        assert_eq!(slots.len(), 3);
        assert_eq!(entries, m.nnz());
        assert_eq!(a.hyb_width(8), 3);
    }

    #[test]
    fn of_with_hash_skips_rehash_but_agrees() {
        let m = DynamicMatrix::from(random_coo::<f64>(80, 80, 900, 2));
        let hash = m.structure_hash();
        let a = Analysis::of_auto_with_hash(&m, 0.2, hash);
        assert_eq!(a, Analysis::of(&m, 0.2));
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        for (nr, nc) in [(0, 0), (5, 5), (0, 4), (4, 0)] {
            let m = DynamicMatrix::from(crate::CooMatrix::<f64>::new(nr, nc));
            let a = Analysis::of(&m, 0.2);
            assert_eq!(a.nnz(), 0);
            assert_eq!(a.stats, stats_of(&m, 0.2));
            assert!(a.dia_offsets().is_empty());
            assert_eq!(a.ell_width(), 0);
        }
    }

    #[test]
    fn matches_tolerates_dia_explicit_zero_elision() {
        // (0,0) holds an explicit stored zero after duplicate summing; DIA
        // keeps it in its nnz but the structural histograms elide it. The
        // artifact must still recognise the matrix it was computed from.
        let coo =
            crate::CooMatrix::from_triplets(4, 4, &[0, 0, 1, 2], &[0, 0, 1, 2], &[2.0f64, -2.0, 3.0, 4.0])
                .unwrap();
        let m = DynamicMatrix::from(coo);
        let opts = ConvertOptions::default();
        for fmt in [crate::FormatId::Dia, crate::FormatId::Hdc] {
            let conv = m.to_format(fmt, &opts).unwrap();
            let a = Analysis::of(&conv, 0.2);
            assert!(a.matches(&conv), "{fmt}: analysis must match its own matrix");
            assert!(a.stats.nnz <= conv.nnz(), "{fmt}");
            // And the tuning-path derivation must not panic on it.
            let _ = conv.to_format_with(crate::FormatId::Csr, &opts, Some(&a)).unwrap();
        }
    }

    #[test]
    fn the_split_walk_is_bitwise_the_serial_one_and_one_traversal_on_the_caller() {
        let opts = ConvertOptions::default();
        // Random, a single over-long row, empty rows, and just either side
        // of the size at which the walk splits.
        let base = random_coo::<f64>(2000, 3000, 20_000, 3);
        let (mut rows, mut cols) = (base.row_indices().to_vec(), base.col_indices().to_vec());
        let mut vals = base.values().to_vec();
        rows.extend([17; 3000]);
        cols.extend(0..3000);
        vals.extend([1.0; 3000]);
        let cases = [
            random_coo::<f64>(4000, 3500, 60_000, 9),
            crate::CooMatrix::from_triplets(2000, 3000, &rows, &cols, &vals).unwrap(),
            random_coo::<f64>(50_000, 400, PARALLEL_CONVERT_THRESHOLD - 1, 4),
            random_coo::<f64>(300, 300, 20_000, 2),
        ];
        for coo in cases {
            let m = DynamicMatrix::from(coo).to_format(crate::FormatId::Csr, &opts).unwrap();
            let hash = m.structure_hash();
            let serial = Analysis::without_block_counts(&m, 0.2, hash, None);
            for w in 1..=4 {
                let pool = ThreadPool::new(w);
                passes::reset();
                let split = Analysis::without_block_counts(&m, 0.2, hash, Some(&pool));
                assert_eq!(passes::count(), 1, "one traversal, recorded on the calling thread");
                assert_eq!(split, serial, "{} rows on {w} threads", m.nrows());
            }
        }
    }

    #[test]
    fn row_cuts_are_grain_multiples_balanced_by_the_offsets() {
        // 64 rows of one entry, then one row of 64: half the entries are in
        // the last row.
        let offsets: Vec<usize> = (0..=64).chain([128]).collect();
        assert_eq!(row_cuts(&offsets, 1), [0, 65]);
        assert_eq!(row_cuts(&offsets, 2), [0, 64, 65]);
        assert_eq!(row_cuts(&offsets, 4), [0, 32, 64, 64, 65]);
        assert!(row_cuts(&[0, 0, 0], 3).iter().all(|&c| c <= 2));
    }

    #[test]
    fn pass_counter_counts_analysis_construction_only_once() {
        let m = DynamicMatrix::from(random_coo::<f64>(30, 30, 200, 7));
        passes::reset();
        let a = Analysis::of(&m, 0.2);
        assert_eq!(passes::count(), 1);
        // Reading the artifact is free.
        let _ = (a.ell_width(), a.dia_offsets(), a.hyb_width(8), a.structure_hash);
        assert_eq!(passes::count(), 1);
        // Asking the matrix directly is not.
        let _ = stats_of(&m, 0.2);
        let _ = m.structure_hash();
        assert_eq!(passes::count(), 3);
    }
}
