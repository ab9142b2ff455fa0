//! Conversion kernels: one builder per target format, over row-major
//! arrays, and one row-major export.
//!
//! Every builder reads a source as contiguous row-major `(offsets, cols,
//! vals)` arrays (`RowArrays`) and writes the target format's arrays
//! straight from them — no intermediate COO triplet buffers, no sorting.
//! CSR lends its own arrays; a sorted COO matrix lends its `cols`/`vals`
//! plus the offsets of one pass (`coo_row_offsets`). ELL and HYB are
//! one-bucket BELL: BELL's builder fills them, HYB's ELL part as the first
//! `K` entries of each row. It plans and allocates on the calling thread
//! and fills there too, unless the caller hands it a pool (a service hands
//! in its own, through [`crate::DynamicMatrix::convert_on`]): from
//! [`PARALLEL_CONVERT_THRESHOLD`] entries on, the fill is then cut as a
//! planned execution on that pool cuts the matrix, each index filling the
//! slices it will execute. The DIA and HDC fills and the row-major export
//! run on the process [`ThreadPool`] with nnz-weighted, row-disjoint
//! partitions once a matrix is large enough to amortise fork/join overhead;
//! below [`PARALLEL_CONVERT_THRESHOLD`] they run serially on the calling
//! thread. Either way the results are identical.
//!
//! Planning steps (ELL width, DIA offset discovery, HYB split width, HDC
//! diagonal selection) read a caller-supplied [`Analysis`] when available.
//! Without one, DIA and HDC rescan the rows, recorded on the
//! [`crate::analysis::passes`] traversal counter; ELL and HYB read the row
//! lengths off the offsets.

use crate::analysis::{passes, Analysis};
use crate::bell::runs_of;
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dia::DiaMatrix;
use crate::dynamic::DynamicMatrix;
use crate::ell::EllMatrix;
use crate::format::FormatId;
use crate::hdc::{true_diag_threshold, HdcMatrix};
use crate::hyb::{optimal_hyb_width_u32, HybMatrix, HybSplit};
use crate::rowmajor::RowMajor;
use crate::scalar::Scalar;
use crate::spmv::cpu_features::CpuFeatures;
use crate::Result;
use std::borrow::Cow;
use std::ops::Range;

use super::{guard_padding, ConvertOptions};
use morpheus_parallel::{global_pool, weighted_partition, weighted_partition_with, SharedSlice, ThreadPool};

/// Conversions touching at least this many structural non-zeros run their
/// row-partitionable passes on a pool: the DIA/HDC fills and the
/// row-major export on the process pool, a BELL/ELL/HYB fill and a
/// service's analysis walk on the pool their caller hands in.
pub const PARALLEL_CONVERT_THRESHOLD: usize = 1 << 14;

/// The pool to run a conversion of `nnz` entries on, if any.
fn pool_for(nnz: usize) -> Option<&'static ThreadPool> {
    if nnz >= PARALLEL_CONVERT_THRESHOLD {
        let pool = global_pool();
        (pool.num_threads() > 1).then_some(pool)
    } else {
        None
    }
}

/// Runs `body` once per part of `parts`, on the pool when given, serially
/// otherwise. Parts must describe row-disjoint work.
fn run_parts(pool: Option<&ThreadPool>, parts: &[Range<usize>], body: impl Fn(Range<usize>) + Sync) {
    match pool {
        Some(pool) => pool.parallel_over_parts(parts, |_p, r| body(r)),
        None => {
            for r in parts {
                body(r.clone());
            }
        }
    }
}

/// Exclusive prefix sum: returns a vector one longer than `counts` whose
/// last element is the total.
fn prefix_sum(counts: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    out.push(0);
    for &c in counts {
        acc += c;
        out.push(acc);
    }
    out
}

// ---------------------------------------------------------------------------
// The builders' input: a COO or CSR matrix as row-major arrays
// ---------------------------------------------------------------------------

/// A matrix's entries as contiguous row-major arrays: row `r` holds
/// `cols[offsets[r]..offsets[r + 1]]` (ascending) and the values beside
/// them; `offsets` has `nrows + 1` entries. Every builder reads its source
/// through one of these.
pub(crate) struct RowArrays<'a, V> {
    pub(crate) shape: (usize, usize),
    pub(crate) offsets: Cow<'a, [usize]>,
    pub(crate) cols: &'a [usize],
    pub(crate) vals: &'a [V],
}

impl<'a, V: Scalar> RowArrays<'a, V> {
    /// A CSR matrix's own arrays.
    pub(crate) fn of_csr(csr: &'a CsrMatrix<V>) -> Self {
        let shape = (csr.nrows(), csr.ncols());
        RowArrays {
            shape,
            offsets: Cow::Borrowed(csr.row_offsets()),
            cols: csr.col_indices(),
            vals: csr.values(),
        }
    }

    /// A sorted COO matrix's `cols`/`vals`, with offsets from one pass over
    /// its row indices ([`coo_row_offsets`]).
    pub(crate) fn of_coo(coo: &'a CooMatrix<V>) -> Self {
        let offsets = Cow::Owned(coo_row_offsets(coo.nrows(), coo.row_indices()));
        RowArrays { shape: (coo.nrows(), coo.ncols()), offsets, cols: coo.col_indices(), vals: coo.values() }
    }

    /// The arrays of a COO or CSR matrix; `None` for every other format.
    pub(crate) fn of(m: &'a DynamicMatrix<V>) -> Option<Self> {
        match m {
            DynamicMatrix::Coo(a) => Some(Self::of_coo(a)),
            DynamicMatrix::Csr(a) => Some(Self::of_csr(a)),
            _ => None,
        }
    }

    fn nnz(&self) -> usize {
        self.offsets[self.shape.0]
    }

    /// Row `r`'s columns and values.
    #[inline]
    fn row(&self, r: usize) -> (&[usize], &[V]) {
        let span = self.offsets[r]..self.offsets[r + 1];
        (&self.cols[span.clone()], &self.vals[span])
    }

    /// nnz-weighted, row-disjoint parts for `pool`; one part without one.
    fn row_parts(&self, pool: Option<&ThreadPool>) -> Vec<Range<usize>> {
        let (nrows, offsets) = (self.shape.0, &self.offsets);
        match pool {
            Some(pool) => weighted_partition_with(nrows, pool.num_threads(), |r| offsets[r + 1] - offsets[r]),
            None => std::iter::once(0..nrows).collect(),
        }
    }

    /// CSR: the arrays themselves (the offsets moved when owned).
    pub(crate) fn into_csr(self) -> CsrMatrix<V> {
        let ((nrows, ncols), offsets) = (self.shape, self.offsets.into_owned());
        CsrMatrix::from_parts_unchecked(nrows, ncols, offsets, self.cols.to_vec(), self.vals.to_vec())
    }

    /// COO: the offsets expanded into explicit row indices.
    pub(crate) fn to_coo(&self) -> CooMatrix<V> {
        let (nrows, ncols) = self.shape;
        let rows = row_indices(&self.offsets);
        CooMatrix::from_sorted_parts_unchecked(nrows, ncols, rows, self.cols.to_vec(), self.vals.to_vec())
    }
}

/// Row offsets expanded into one row index per entry.
fn row_indices(offsets: &[usize]) -> Vec<usize> {
    let mut rows = Vec::with_capacity(offsets.last().map_or(0, |&n| n));
    for (r, w) in offsets.windows(2).enumerate() {
        rows.extend(std::iter::repeat_n(r, w[1] - w[0]));
    }
    rows
}

// ---------------------------------------------------------------------------
// Planning scans (used only when no `Analysis` is supplied)
// ---------------------------------------------------------------------------

/// Diagonal populations (`diag[col + nrows - 1 - row]`) from a walk over
/// the rows.
fn diag_population<V: Scalar>(a: &RowArrays<'_, V>) -> Vec<u32> {
    passes::record_traversal();
    let (nrows, ncols) = a.shape;
    let mut pop = vec![0u32; nrows + ncols - 1];
    for r in 0..nrows {
        for &c in a.row(r).0 {
            pop[c + nrows - 1 - r] += 1;
        }
    }
    pop
}

/// Where a DIA or HDC conversion learns which diagonals to store without
/// scanning the entries.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Diagonals<'a> {
    /// The analysis' diagonal histogram.
    Analysis(&'a Analysis),
    /// The offsets an earlier conversion of the same structure stored (see
    /// [`crate::DynamicMatrix::diagonal_layout`]): DIA's diagonals, or
    /// HDC's true ones.
    Stored(&'a [isize]),
}

/// Populated-diagonal offsets, ascending: as stored, from the analysis, or
/// from a scan of the rows. The last two reduce through
/// [`crate::analysis::dia_offsets_from_pop`], so planned and unplanned
/// layouts are identical by construction, and a stored layout is one of
/// them.
fn plan_dia_offsets<V: Scalar>(plan: Option<Diagonals<'_>>, a: &RowArrays<'_, V>) -> Vec<isize> {
    match plan {
        Some(Diagonals::Stored(offsets)) => offsets.to_vec(),
        Some(Diagonals::Analysis(an)) => an.dia_offsets(),
        None => crate::analysis::dia_offsets_from_pop(&diag_population(a), a.shape.0),
    }
}

/// True-diagonal slots (ascending); same contract as [`plan_dia_offsets`].
fn plan_true_diag_slots<V: Scalar>(
    plan: Option<Diagonals<'_>>,
    a: &RowArrays<'_, V>,
    threshold: usize,
) -> Vec<usize> {
    let base = a.shape.0 as isize - 1;
    match plan {
        Some(Diagonals::Stored(offsets)) => offsets.iter().map(|&off| (off + base) as usize).collect(),
        Some(Diagonals::Analysis(an)) => an.true_diag_slots(threshold).0,
        None => crate::analysis::true_diag_slots_from_pop(&diag_population(a), threshold).0,
    }
}

/// Maps diagonal slot -> dense diagonal index (`usize::MAX` = not stored).
fn slot_to_diag_map(slots_len: usize, stored: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut map = vec![usize::MAX; slots_len];
    for (d, slot) in stored.enumerate() {
        map[slot] = d;
    }
    map
}

// ---------------------------------------------------------------------------
// COO <-> CSR (direct both ways; by-value variants reuse allocations)
// ---------------------------------------------------------------------------

/// CSR-style row offsets (`nrows + 1` entries) of a sorted COO row-index
/// array. With these, a sorted COO matrix's `cols`/`vals` *are* CSR arrays
/// — every builder reads COO sources through them ([`RowArrays`]).
///
/// One pass of stores, no loads: entry `i` writes `i + 1` as the end of its
/// row, so the last entry of each row leaves the row's end (an increment
/// per entry would chain every entry of a long row through one counter).
/// A running maximum then gives each empty row the end of the row before
/// it. For sorted rows that is the histogram-and-prefix-sum definition,
/// bitwise; for any row array the offsets are monotone and end at `nnz`.
pub(crate) fn coo_row_offsets(nrows: usize, rows: &[usize]) -> Vec<usize> {
    let mut offsets = vec![0usize; nrows + 1];
    for (i, &r) in rows.iter().enumerate() {
        offsets[r + 1] = i + 1;
    }
    let mut end = 0;
    for o in &mut offsets[1..] {
        end = end.max(*o);
        *o = end;
    }
    offsets
}

/// COO → CSR: the offsets of one pass over the row indices, the columns
/// and values copied as they are. O(nnz); relies on COO's sorted
/// invariant.
pub fn coo_to_csr<V: Scalar>(coo: &CooMatrix<V>) -> CsrMatrix<V> {
    RowArrays::of_coo(coo).into_csr()
}

/// CSR → COO. O(nnz).
pub fn csr_to_coo<V: Scalar>(csr: &CsrMatrix<V>) -> CooMatrix<V> {
    RowArrays::of_csr(csr).to_coo()
}

/// COO → CSR consuming the source: the column-index and value allocations
/// move into the result untouched (both formats store them in the same
/// order); only the row representation is rebuilt.
pub fn coo_into_csr<V: Scalar>(coo: CooMatrix<V>) -> CsrMatrix<V> {
    let (nrows, ncols, rows, cols, vals) = coo.into_parts();
    let offsets = coo_row_offsets(nrows, &rows);
    drop(rows);
    CsrMatrix::from_parts_unchecked(nrows, ncols, offsets, cols, vals)
}

/// CSR → COO consuming the source: column indices and values are moved, the
/// offsets array is expanded into explicit row indices.
pub fn csr_into_coo<V: Scalar>(csr: CsrMatrix<V>) -> CooMatrix<V> {
    let (nrows, ncols, offsets, cols, vals) = csr.into_parts();
    CooMatrix::from_sorted_parts_unchecked(nrows, ncols, row_indices(&offsets), cols, vals)
}

// ---------------------------------------------------------------------------
// -> ELL, HYB: one-bucket BELL
// ---------------------------------------------------------------------------

/// COO → ELL: the COO matrix's offsets, then the ELL builder. Fails if
/// padding would exceed the configured fill limit.
pub fn coo_to_ell<V: Scalar>(coo: &CooMatrix<V>, opts: &ConvertOptions) -> Result<EllMatrix<V>> {
    ell_from_arrays(&RowArrays::of_coo(coo), opts, None, CpuFeatures::detect(), None)
}

/// CSR → ELL, building the bucket straight from the CSR rows.
pub fn csr_to_ell<V: Scalar>(csr: &CsrMatrix<V>, opts: &ConvertOptions) -> Result<EllMatrix<V>> {
    ell_from_arrays(&RowArrays::of_csr(csr), opts, None, CpuFeatures::detect(), None)
}

/// ELL from row-major arrays: one bucket as wide as the longest row (the
/// plan's width when one is supplied), guarded at `width × nrows`, filled
/// in the form `cpu` selects, on `pool` when given.
pub(crate) fn ell_from_arrays<V: Scalar>(
    a: &RowArrays<'_, V>,
    opts: &ConvertOptions,
    plan: Option<&Analysis>,
    cpu: CpuFeatures,
    pool: Option<&ThreadPool>,
) -> Result<EllMatrix<V>> {
    let (nrows, nnz, run) = (a.shape.0, a.nnz(), runs_of(&a.offsets));
    let width = plan.map_or_else(|| (0..nrows).map(|r| run(r).1).max().unwrap_or(0), Analysis::ell_width);
    let limit = opts.padded_allowance(nnz);
    guard_padding(FormatId::Ell, width.saturating_mul(nrows), nnz, limit)?;
    let guard = |padded, _| guard_padding(FormatId::Ell, padded, nnz, limit);
    EllMatrix::from_runs(a.shape, width, run, a.cols, a.vals, guard, cpu, pool)
}

/// COO → HYB under the given split policy: the COO matrix's offsets, then
/// the HYB builder. The ELL portion never exceeds the fill limit by
/// construction when the policy is [`HybSplit::Auto`]; a fixed width is
/// still guarded.
pub fn coo_to_hyb<V: Scalar>(coo: &CooMatrix<V>, opts: &ConvertOptions) -> Result<HybMatrix<V>> {
    hyb_from_arrays(&RowArrays::of_coo(coo), opts, None, CpuFeatures::detect(), None)
}

/// CSR → HYB, splitting each row straight into the ELL bucket and the COO
/// spill.
pub fn csr_to_hyb<V: Scalar>(csr: &CsrMatrix<V>, opts: &ConvertOptions) -> Result<HybMatrix<V>> {
    hyb_from_arrays(&RowArrays::of_csr(csr), opts, None, CpuFeatures::detect(), None)
}

/// HYB from row-major arrays: the split width `K` from the row lengths (the
/// plan's histogram when one is supplied, checked against the arrays), the
/// first `K` entries of each row as a one-bucket ELL built in place (filled
/// in the form `cpu` selects, on `pool` when given), the rest copied into
/// the spill in row order.
pub(crate) fn hyb_from_arrays<V: Scalar>(
    a: &RowArrays<'_, V>,
    opts: &ConvertOptions,
    plan: Option<&Analysis>,
    cpu: CpuFeatures,
    pool: Option<&ThreadPool>,
) -> Result<HybMatrix<V>> {
    let ((nrows, ncols), nnz, run) = (a.shape, a.nnz(), runs_of(&a.offsets));
    let k = match opts.hyb_split {
        HybSplit::Auto => {
            let lens: Cow<'_, [u32]> = match plan {
                Some(an) => {
                    // A stale plan is refused, as every planned fill refuses one.
                    if let Some(r) = (0..nrows).find(|&r| an.row_hist[r] as usize != run(r).1) {
                        panic!("HYB plan misstates row {r}: stale analysis?");
                    }
                    Cow::Borrowed(&an.row_hist)
                }
                None => Cow::Owned((0..nrows).map(|r| run(r).1 as u32).collect()),
            };
            optimal_hyb_width_u32(&lens, std::mem::size_of::<V>())
        }
        HybSplit::Width(w) => {
            guard_padding(FormatId::Hyb, w.saturating_mul(nrows), nnz, opts.padded_allowance(nnz))?;
            w
        }
    };
    let head = |r: usize| {
        let (first, len) = run(r);
        (first, len.min(k))
    };
    let guard = |padded, _| guard_padding(FormatId::Hyb, padded, nnz, opts.padded_allowance(nnz));
    let ell = EllMatrix::from_runs(a.shape, k, head, a.cols, a.vals, guard, cpu, pool)?;
    let spill_nnz = nnz - ell.nnz();
    let (mut sp_rows, mut sp_cols, mut sp_vals) =
        (Vec::with_capacity(spill_nnz), Vec::with_capacity(spill_nnz), Vec::with_capacity(spill_nnz));
    for r in 0..nrows {
        let (first, len) = head(r);
        let rest = first + len..a.offsets[r + 1];
        sp_rows.extend(std::iter::repeat_n(r, rest.len()));
        sp_cols.extend_from_slice(&a.cols[rest.clone()]);
        sp_vals.extend_from_slice(&a.vals[rest]);
    }
    let spill = CooMatrix::from_sorted_parts_unchecked(nrows, ncols, sp_rows, sp_cols, sp_vals);
    HybMatrix::from_parts(ell, spill)
}

// ---------------------------------------------------------------------------
// -> DIA
// ---------------------------------------------------------------------------

/// COO → DIA: the COO matrix's offsets, then the DIA builder. Fails if
/// padding would exceed the configured fill limit.
pub fn coo_to_dia<V: Scalar>(coo: &CooMatrix<V>, opts: &ConvertOptions) -> Result<DiaMatrix<V>> {
    dia_from_arrays(&RowArrays::of_coo(coo), opts, None)
}

/// CSR → DIA, scattering rows straight into the diagonal slabs.
pub fn csr_to_dia<V: Scalar>(csr: &CsrMatrix<V>, opts: &ConvertOptions) -> Result<DiaMatrix<V>> {
    dia_from_arrays(&RowArrays::of_csr(csr), opts, None)
}

/// DIA from row-major arrays: the diagonals from `plan` (a scan of the rows
/// without one), guarded at `ndiags × nrows`, each row scattered into its
/// slots, on the process pool from [`PARALLEL_CONVERT_THRESHOLD`] entries.
///
/// # Panics
/// If an entry lies on none of the planned diagonals (a stale plan).
pub(crate) fn dia_from_arrays<V: Scalar>(
    a: &RowArrays<'_, V>,
    opts: &ConvertOptions,
    plan: Option<Diagonals<'_>>,
) -> Result<DiaMatrix<V>> {
    let ((nrows, ncols), nnz) = (a.shape, a.nnz());
    if nrows == 0 || ncols == 0 || nnz == 0 {
        return Ok(DiaMatrix::new(nrows, ncols));
    }
    let offsets = plan_dia_offsets(plan, a);
    guard_padding(FormatId::Dia, offsets.len() * nrows, nnz, opts.padded_allowance(nnz))?;
    let base = nrows as isize - 1;
    let slot_to_diag = slot_to_diag_map(nrows + ncols - 1, offsets.iter().map(|&off| (off + base) as usize));
    let mut values = vec![V::ZERO; offsets.len() * nrows];
    {
        let pool = pool_for(nnz);
        let parts = a.row_parts(pool);
        let out = SharedSlice::new(&mut values);
        run_parts(pool, &parts, |rows| {
            for r in rows {
                let (cols, vals) = a.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    let d = slot_to_diag[c + nrows - 1 - r];
                    assert_ne!(d, usize::MAX, "DIA plan omits a populated diagonal: stale analysis?");
                    // SAFETY: row-disjoint parts, unique coordinates.
                    unsafe { out.set(d * nrows + r, v) };
                }
            }
        });
    }
    Ok(DiaMatrix::from_parts_unchecked(nrows, ncols, offsets, values, nnz))
}

// ---------------------------------------------------------------------------
// -> HDC
// ---------------------------------------------------------------------------

/// COO → HDC: the COO matrix's offsets, then the HDC builder. True
/// diagonals (population ≥ `alpha * min(M, N)`) go to DIA, the remainder to
/// CSR.
pub fn coo_to_hdc<V: Scalar>(coo: &CooMatrix<V>, opts: &ConvertOptions) -> Result<HdcMatrix<V>> {
    hdc_from_arrays(&RowArrays::of_coo(coo), opts, None)
}

/// CSR → HDC, splitting rows straight into the DIA slab and the CSR
/// remainder.
pub fn csr_to_hdc<V: Scalar>(csr: &CsrMatrix<V>, opts: &ConvertOptions) -> Result<HdcMatrix<V>> {
    hdc_from_arrays(&RowArrays::of_csr(csr), opts, None)
}

/// HDC from row-major arrays: the true diagonals from `plan` (a scan of the
/// rows without one), guarded at `ntrue × nrows`; each row's entries on
/// them scattered into the DIA slab, the rest packed into the CSR
/// remainder (a count pass, a prefix sum, a fill pass), on the process pool
/// from [`PARALLEL_CONVERT_THRESHOLD`] entries.
pub(crate) fn hdc_from_arrays<V: Scalar>(
    a: &RowArrays<'_, V>,
    opts: &ConvertOptions,
    plan: Option<Diagonals<'_>>,
) -> Result<HdcMatrix<V>> {
    let ((nrows, ncols), nnz) = (a.shape, a.nnz());
    if nrows == 0 || ncols == 0 || nnz == 0 {
        return HdcMatrix::from_parts(
            DiaMatrix::new(nrows, ncols),
            CsrMatrix::new(nrows, ncols),
            opts.true_diag_alpha,
        );
    }
    let threshold = true_diag_threshold(nrows, ncols, opts.true_diag_alpha);
    let true_slots = plan_true_diag_slots(plan, a, threshold);
    guard_padding(FormatId::Hdc, true_slots.len() * nrows, nnz, opts.padded_allowance(nnz))?;
    let base = nrows as isize - 1;
    let slot_to_diag = slot_to_diag_map(nrows + ncols - 1, true_slots.iter().copied());
    let offsets: Vec<isize> = true_slots.iter().map(|&s| s as isize - base).collect();

    let pool = pool_for(nnz);
    let parts = a.row_parts(pool);

    let mut rem_counts = vec![0usize; nrows];
    {
        let counts = SharedSlice::new(&mut rem_counts);
        run_parts(pool, &parts, |rows| {
            for r in rows {
                let n = a.row(r).0.iter().filter(|&&c| slot_to_diag[c + nrows - 1 - r] == usize::MAX).count();
                // SAFETY: row-disjoint parts.
                unsafe { counts.set(r, n) };
            }
        });
    }
    let csr_offsets = prefix_sum(&rem_counts);
    let csr_nnz = *csr_offsets.last().expect("prefix sum is non-empty");
    let dia_nnz = nnz - csr_nnz;

    let mut dia_vals = vec![V::ZERO; offsets.len() * nrows];
    let mut csr_cols = vec![0usize; csr_nnz];
    let mut csr_vals = vec![V::ZERO; csr_nnz];
    {
        let od = SharedSlice::new(&mut dia_vals);
        let (oc, ov) = (SharedSlice::new(&mut csr_cols), SharedSlice::new(&mut csr_vals));
        run_parts(pool, &parts, |rows| {
            for r in rows {
                let mut cursor = csr_offsets[r];
                let (cols, vals) = a.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    let d = slot_to_diag[c + nrows - 1 - r];
                    // SAFETY: row-disjoint parts; unique coordinates.
                    unsafe {
                        if d != usize::MAX {
                            od.set(d * nrows + r, v);
                        } else {
                            oc.set(cursor, c);
                            ov.set(cursor, v);
                            cursor += 1;
                        }
                    }
                }
            }
        });
    }
    let dia = DiaMatrix::from_parts_unchecked(nrows, ncols, offsets, dia_vals, dia_nnz);
    let rem = CsrMatrix::from_parts_unchecked(nrows, ncols, csr_offsets, csr_cols, csr_vals);
    HdcMatrix::from_parts(dia, rem, opts.true_diag_alpha)
}

// ---------------------------------------------------------------------------
// Every other format -> {CSR, COO}: the row-major export
// ---------------------------------------------------------------------------

/// Exports any [`RowMajor`] source straight into CSR arrays: one parallel
/// per-row count pass, a prefix sum, one parallel fill pass. No triplet
/// buffers, no sort (sources emit rows in ascending column order).
pub(crate) fn export_to_csr<V: Scalar, S: RowMajor<V> + ?Sized>(
    src: &S,
    ncols: usize,
    nnz_hint: usize,
) -> CsrMatrix<V> {
    let (offsets, cols, vals, _rows) = export_row_major(src, nnz_hint, false);
    CsrMatrix::from_parts_unchecked(src.nrows(), ncols, offsets, cols, vals)
}

/// Exports any [`RowMajor`] source straight into sorted COO arrays.
pub(crate) fn export_to_coo<V: Scalar, S: RowMajor<V> + ?Sized>(
    src: &S,
    ncols: usize,
    nnz_hint: usize,
) -> CooMatrix<V> {
    let (_offsets, cols, vals, rows) = export_row_major(src, nnz_hint, true);
    CooMatrix::from_sorted_parts_unchecked(src.nrows(), ncols, rows, cols, vals)
}

fn export_row_major<V: Scalar, S: RowMajor<V> + ?Sized>(
    src: &S,
    nnz_hint: usize,
    want_rows: bool,
) -> (Vec<usize>, Vec<usize>, Vec<V>, Vec<usize>) {
    let nrows = src.nrows();
    let pool = pool_for(nnz_hint);
    let count_parts = match pool {
        Some(pool) => morpheus_parallel::static_partition(nrows, pool.num_threads()),
        None => {
            if nrows == 0 {
                Vec::new()
            } else {
                std::iter::once(0..nrows).collect()
            }
        }
    };
    let mut counts = vec![0usize; nrows];
    {
        let out = SharedSlice::new(&mut counts);
        run_parts(pool, &count_parts, |rows| {
            for r in rows {
                // SAFETY: row ranges are disjoint.
                unsafe { out.set(r, src.row_count(r)) };
            }
        });
    }
    let offsets = prefix_sum(&counts);
    let nnz = *offsets.last().unwrap_or(&0);

    let mut cols = vec![0usize; nnz];
    let mut vals = vec![V::ZERO; nnz];
    let mut rows_out = vec![0usize; if want_rows { nnz } else { 0 }];
    {
        let fill_parts = match pool {
            Some(pool) => weighted_partition(&counts, pool.num_threads()),
            None => count_parts,
        };
        let oc = SharedSlice::new(&mut cols);
        let ov = SharedSlice::new(&mut vals);
        let orr = SharedSlice::new(&mut rows_out);
        run_parts(pool, &fill_parts, |rows| {
            for r in rows {
                let mut cursor = offsets[r];
                src.emit_row(r, &mut |c, v| {
                    // SAFETY: row-disjoint parts; `cursor` walks this row's
                    // private output segment.
                    unsafe {
                        oc.set(cursor, c);
                        ov.set(cursor, v);
                        if want_rows {
                            orr.set(cursor, r);
                        }
                    }
                    cursor += 1;
                });
                debug_assert_eq!(cursor, offsets[r + 1], "row_count / emit_row disagreement in row {r}");
            }
        });
    }
    (offsets, cols, vals, rows_out)
}

/// ELL → CSR: its bucket's rows, as BELL exports them.
pub fn ell_to_csr<V: Scalar>(ell: &EllMatrix<V>) -> CsrMatrix<V> {
    super::bell_to_csr(ell.bell())
}

/// DIA → CSR. Padding slots and explicit zeros are elided (they are
/// indistinguishable in DIA storage).
pub fn dia_to_csr<V: Scalar>(dia: &DiaMatrix<V>) -> CsrMatrix<V> {
    export_to_csr(dia, dia.ncols(), dia.nnz())
}

/// HYB → CSR, merging the two portions row by row.
pub fn hyb_to_csr<V: Scalar>(hyb: &HybMatrix<V>) -> CsrMatrix<V> {
    export_to_csr(hyb, hyb.ncols(), hyb.nnz())
}

/// HDC → CSR, merging the two portions row by row.
pub fn hdc_to_csr<V: Scalar>(hdc: &HdcMatrix<V>) -> CsrMatrix<V> {
    export_to_csr(hdc, hdc.ncols(), hdc.nnz())
}

/// ELL → COO: its bucket's rows, as BELL exports them. Padding slots are
/// elided; explicit zeros survive (a pad is told by its repeated column,
/// not by its value).
pub fn ell_to_coo<V: Scalar>(ell: &EllMatrix<V>) -> CooMatrix<V> {
    super::bell_to_coo(ell.bell())
}

/// DIA → COO. Padding slots and explicit zeros are elided (they are
/// indistinguishable in DIA storage).
pub fn dia_to_coo<V: Scalar>(dia: &DiaMatrix<V>) -> CooMatrix<V> {
    export_to_coo(dia, dia.ncols(), dia.nnz())
}

/// HYB → COO, merging the two portions.
pub fn hyb_to_coo<V: Scalar>(hyb: &HybMatrix<V>) -> CooMatrix<V> {
    export_to_coo(hyb, hyb.ncols(), hyb.nnz())
}

/// HDC → COO, merging the two portions. Explicit zeros stored in the DIA
/// portion are elided (same caveat as [`dia_to_coo`]).
pub fn hdc_to_coo<V: Scalar>(hdc: &HdcMatrix<V>) -> CooMatrix<V> {
    export_to_coo(hdc, hdc.ncols(), hdc.nnz())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::random_coo;

    /// The offsets' definition: a histogram by increments, then a prefix sum.
    fn by_increment(nrows: usize, rows: &[usize]) -> Vec<usize> {
        let mut offsets = vec![0usize; nrows + 1];
        for &r in rows {
            offsets[r + 1] += 1;
        }
        for i in 0..nrows {
            offsets[i + 1] += offsets[i];
        }
        offsets
    }

    #[test]
    fn row_offsets_are_the_increment_definition_on_sorted_rows() {
        let cases: [(usize, &[usize]); 8] = [
            (0, &[]),
            (5, &[]),
            (4, &[2, 2, 3]),       // leading empty rows
            (5, &[0, 0, 3, 4, 4]), // interior empty rows
            (6, &[0, 1, 1, 2]),    // trailing empty rows
            (1, &[0, 0, 0, 0]),
            (7, &[3; 9]), // one row holds every entry
            (3, &[0, 1, 2]),
        ];
        for (nrows, rows) in cases {
            assert_eq!(coo_row_offsets(nrows, rows), by_increment(nrows, rows), "{nrows} rows, {rows:?}");
        }
        for seed in 0..8u64 {
            let coo = random_coo::<f64>(40 + 13 * seed as usize, 30, 20 + 90 * seed as usize, seed);
            let (nrows, rows) = (coo.nrows(), coo.row_indices());
            assert_eq!(coo_row_offsets(nrows, rows), by_increment(nrows, rows), "seed {seed}");
        }
    }

    /// A row array no `CooMatrix` constructor accepts (debug builds validate
    /// even the unchecked one), handed to the pass as a builder would.
    #[test]
    fn row_offsets_of_unsorted_rows_are_monotone_and_end_at_nnz() {
        let unsorted: [(usize, &[usize]); 4] =
            [(4, &[3, 0, 2, 0]), (5, &[4, 4, 1, 3, 0, 2]), (3, &[2, 1, 0]), (6, &[1, 5, 1, 0, 5, 2, 2])];
        for (nrows, rows) in unsorted {
            let offsets = coo_row_offsets(nrows, rows);
            assert_eq!(offsets.len(), nrows + 1);
            assert_eq!((offsets[0], offsets[nrows]), (0, rows.len()), "{rows:?}");
            assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "{rows:?}: {offsets:?}");
        }
    }
}
