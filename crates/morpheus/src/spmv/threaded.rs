//! Multithreaded SpMV kernels (the "OpenMP" backend).
//!
//! Every kernel partitions the *rows* of the matrix across workers so each
//! element of `y` has exactly one writer — no atomics are needed, and
//! results are bitwise identical to the serial kernels: every format has
//! exactly one ranged body, and it keeps the serial per-row accumulation
//! order.
//!
//! There is one entry style: the `*_ranges` kernels replay the precomputed
//! parts of a [`crate::plan::ExecPlan`] through `for_each_part` with no
//! per-call scheduling work at all — one dispatch per pass over the matrix,
//! part `p` on the same pool index every call, or inline in order without a
//! pool. [`crate::plan::ExecPlan::run`] is their only caller outside this
//! module and [`crate::spmm`]; nothing here derives a partition.
//!
//! Two bodies are shared beyond this module. `csr_rows` is the one CSR row
//! loop: the serial kernels run it over every row. The ELL family's (BELL,
//! and ELL and HYB's ELL part, one bucket each) is the slice walker
//! `crate::spmv::bell::bell_segment` (portable and AVX2 forms, chosen by
//! [`CpuFeatures`]): `spmv_bell_shares` here, the serial kernels and —
//! through their plans — partitioned shards all run it.

use crate::bell::{BellMatrix, BellShare};
use crate::bsr::BsrMatrix;
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dia::DiaMatrix;
use crate::scalar::Scalar;
use crate::spmv::bell::bell_segment;
use crate::spmv::cpu_features::CpuFeatures;
use morpheus_parallel::{SharedSlice, ThreadPool};
use std::ops::Range;

/// Shared mutable output vector. Soundness contract: concurrent callers must
/// write disjoint index sets, which the row partitioning guarantees.
type SharedOut<V> = SharedSlice<V>;

// ---------------------------------------------------------------------------
// Per-range loop bodies
// ---------------------------------------------------------------------------

/// CSR rows `rows`: per-row gather/reduce, written (or accumulated) into
/// `out` — the one CSR row loop, which the serial kernels run over
/// every row, so results are bitwise identical by construction. The loads
/// carry no per-entry bounds checks (at 2–24 entries a row the checks, not
/// the memory, set the pace).
///
/// # Panics
/// If `x`/`out` are not `a.ncols()`/`a.nrows()` long or `rows` reaches past
/// `a.nrows()`.
///
/// # Safety
/// No concurrent caller may receive an overlapping row range.
#[inline]
pub(crate) unsafe fn csr_rows<V: Scalar, const ACC: bool>(
    a: &CsrMatrix<V>,
    x: &[V],
    out: &SharedOut<V>,
    rows: Range<usize>,
) {
    let offs = a.row_offsets();
    let cols = a.col_indices();
    let vals = a.values();
    assert!(
        x.len() == a.ncols() && out.len() == a.nrows() && rows.end <= a.nrows(),
        "CSR SpMV of rows {rows:?} of a {}x{} matrix on x of {} and y of {}",
        a.nrows(),
        a.ncols(),
        x.len(),
        out.len()
    );
    for r in rows {
        // SAFETY: the `CsrMatrix` invariants ("validated by all
        // constructors", over private fields): `offs` holds `nrows + 1`
        // monotone offsets ending at `cols.len() == vals.len()`, so with
        // `r < nrows` (asserted) both offsets exist and every `i` between
        // them indexes `cols` and `vals`; and every column index is
        // `< ncols`, which is `x.len()` (asserted).
        let (lo, hi) = (*offs.get_unchecked(r), *offs.get_unchecked(r + 1));
        let mut acc = V::ZERO;
        for i in lo..hi {
            acc += *vals.get_unchecked(i) * *x.get_unchecked(*cols.get_unchecked(i));
        }
        if ACC {
            out.add(r, acc);
        } else {
            out.set(r, acc);
        }
    }
}

/// COO entries `entries` (row-aligned): scatter-accumulate into `out`.
///
/// # Safety
/// Concurrent callers' entry ranges must be aligned to row boundaries and
/// disjoint, so each `y` element has exactly one writer.
#[inline]
unsafe fn coo_entries<V: Scalar>(a: &CooMatrix<V>, x: &[V], out: &SharedOut<V>, entries: Range<usize>) {
    let rows = a.row_indices();
    let cols = a.col_indices();
    let vals = a.values();
    for i in entries {
        out.add(rows[i], vals[i] * x[cols[i]]);
    }
}

/// Populated diagonals from which [`dia_rows`] sweeps in row tiles: with
/// fewer, a row's output never leaves cache between diagonals anyway.
const BLOCK_MIN_DIAGS: usize = 4;
/// Rows per tile: 256 rows of `f64` output plus the matching `x` windows
/// sit comfortably in L1.
const BLOCK_ROWS: usize = 256;

/// `rows` cut into the runs [`dia_rows`] sweeps one at a time: of
/// [`BLOCK_ROWS`] rows when `tiled`, otherwise `rows` whole. Tiling is a
/// fact the kernel reads off the matrix it is handed (the README's "One
/// body per format" has the sweep behind the rule); it regroups the rows,
/// never the terms of a row, so results do not change with it.
#[inline(always)]
fn row_tiles(rows: Range<usize>, tiled: bool) -> impl Iterator<Item = Range<usize>> {
    let (end, tile) = (rows.end, if tiled { BLOCK_ROWS } else { rows.len().max(1) });
    rows.step_by(tile).map(move |start| start..(start + tile).min(end))
}

/// DIA rows `rows`: zero the rows, then stream every diagonal's
/// intersection with them — the serial kernel's per-row accumulation order
/// (diagonals ascending) — tile by tile from [`BLOCK_MIN_DIAGS`] diagonals
/// up, so a tile's output and its `x` windows stay cache-resident across
/// all diagonals. DIA and HDC's DIA portion both run this.
///
/// The sweep of one diagonal runs over three plain slices (the tile of
/// `out`, the diagonal's values, its window of `x`): indexed through
/// `out` itself it stays scalar once this body is inlined into a plan's
/// closure, where the vectoriser no longer sees that `out` does not move.
///
/// # Safety
/// No concurrent caller may receive an overlapping row range.
#[inline(always)]
unsafe fn dia_rows<V: Scalar>(a: &DiaMatrix<V>, x: &[V], out: &SharedOut<V>, rows: Range<usize>) {
    let nrows = a.nrows();
    let offsets = a.offsets();
    let values = a.values();
    for tile in row_tiles(rows, offsets.len() >= BLOCK_MIN_DIAGS) {
        // SAFETY: `tile` lies inside `rows`, which no other caller holds.
        let y = out.slice_mut(tile.start, tile.len());
        y.fill(V::ZERO);
        for (d, &off) in offsets.iter().enumerate() {
            let dr = a.diag_row_range(d);
            let (lo, hi) = (tile.start.max(dr.start), tile.end.min(dr.end));
            if lo < hi {
                let ys = &mut y[lo - tile.start..hi - tile.start];
                let diag = &values[d * nrows + lo..d * nrows + hi];
                let xs = &x[(lo as isize + off) as usize..][..hi - lo];
                for ((yi, &v), &xv) in ys.iter_mut().zip(diag).zip(xs) {
                    *yi += v * xv;
                }
            }
        }
    }
}

/// BSR block rows `brows`: accumulate each block row's dense blocks into a
/// local register tile, then write the covered output rows. Per-row
/// accumulation order (blocks ascending, block columns ascending) matches
/// the serial kernel — bitwise identical.
///
/// # Safety
/// No concurrent caller may receive an overlapping block-row range (block
/// rows own disjoint output rows by construction).
#[inline]
unsafe fn bsr_block_rows<V: Scalar>(a: &BsrMatrix<V>, x: &[V], out: &SharedOut<V>, brows: Range<usize>) {
    // Monomorphise the supported square dims, as the serial kernel does:
    // fixed-trip-count inner loops keep the accumulator tile in registers.
    match (a.block_r(), a.block_c()) {
        (2, 2) => bsr_block_rows_body::<V, 2, 2>(a, x, out, brows),
        (4, 4) => bsr_block_rows_body::<V, 4, 4>(a, x, out, brows),
        (8, 8) => bsr_block_rows_body::<V, 8, 8>(a, x, out, brows),
        _ => bsr_block_rows_dyn(a, x, out, brows),
    }
}

/// [`bsr_block_rows`] with compile-time block dims. Same accumulation
/// order as the dynamic body and the serial kernel.
///
/// # Safety
/// See [`bsr_block_rows`].
#[inline(always)]
unsafe fn bsr_block_rows_body<V: Scalar, const R: usize, const C: usize>(
    a: &BsrMatrix<V>,
    x: &[V],
    out: &SharedOut<V>,
    brows: Range<usize>,
) {
    let offs = a.block_row_offsets();
    let bcols = a.block_cols();
    let vals = a.values();
    let (nrows, ncols) = (a.nrows(), a.ncols());
    for br in brows {
        let r0 = br * R;
        let rcount = R.min(nrows - r0);
        let mut acc = [V::ZERO; R];
        for b in offs[br]..offs[br + 1] {
            let c0 = bcols[b] * C;
            let bv = &vals[b * R * C..(b + 1) * R * C];
            if c0 + C <= ncols {
                let xs: &[V] = &x[c0..c0 + C];
                for rr in 0..R {
                    let mut s = acc[rr];
                    for cc in 0..C {
                        s += bv[rr * C + cc] * xs[cc];
                    }
                    acc[rr] = s;
                }
            } else {
                for rr in 0..R {
                    for cc in 0..ncols - c0 {
                        acc[rr] += bv[rr * C + cc] * x[c0 + cc];
                    }
                }
            }
        }
        for (rr, &v) in acc.iter().enumerate().take(rcount) {
            out.set(r0 + rr, v);
        }
    }
}

/// [`bsr_block_rows`] for arbitrary block dims.
///
/// # Safety
/// See [`bsr_block_rows`].
unsafe fn bsr_block_rows_dyn<V: Scalar>(a: &BsrMatrix<V>, x: &[V], out: &SharedOut<V>, brows: Range<usize>) {
    let (r, c) = (a.block_r(), a.block_c());
    let offs = a.block_row_offsets();
    let bcols = a.block_cols();
    let vals = a.values();
    let (nrows, ncols) = (a.nrows(), a.ncols());
    let mut acc = vec![V::ZERO; r];
    for br in brows {
        let r0 = br * r;
        let rcount = r.min(nrows - r0);
        acc.fill(V::ZERO);
        for b in offs[br]..offs[br + 1] {
            let c0 = bcols[b] * c;
            let ccount = c.min(ncols - c0);
            let bv = &vals[b * r * c..(b + 1) * r * c];
            for (rr, slot) in acc.iter_mut().enumerate() {
                for cc in 0..ccount {
                    *slot += bv[rr * c + cc] * x[c0 + cc];
                }
            }
        }
        for (rr, &v) in acc.iter().enumerate().take(rcount) {
            out.set(r0 + rr, v);
        }
    }
}

// ---------------------------------------------------------------------------
// Planned kernels: thin loops over precomputed `ExecPlan` parts
// ---------------------------------------------------------------------------

/// Runs `body(p)` for every part `p < n` of a plan in **one dispatch**: part
/// `p` on pool index `p % width` — the same thread every call, with no
/// scheduling state — or, without a pool, inline in order on the calling
/// thread (which is also what a pool of width 1, a nested region and a busy
/// pool do). Same bodies either way, so results are bitwise identical.
pub(crate) fn for_each_part(pool: Option<&ThreadPool>, n: usize, body: impl Fn(usize) + Sync) {
    match pool {
        Some(pool) if n > 0 => pool.run_on_all(&|w| (w..n).step_by(pool.num_threads()).for_each(&body)),
        _ => (0..n).for_each(body),
    }
}

/// CSR over precomputed row ranges (write).
pub(crate) fn spmv_csr_ranges<V: Scalar>(
    a: &CsrMatrix<V>,
    x: &[V],
    y: &mut [V],
    pool: Option<&ThreadPool>,
    rows: &[Range<usize>],
) {
    let out = SharedOut::new(y);
    // SAFETY: plan row ranges tile the rows disjointly.
    for_each_part(pool, rows.len(), |p| unsafe { csr_rows::<V, false>(a, x, &out, rows[p].clone()) });
}

/// CSR over precomputed row ranges (accumulate), for the HDC composite.
pub(crate) fn spmv_csr_acc_ranges<V: Scalar>(
    a: &CsrMatrix<V>,
    x: &[V],
    y: &mut [V],
    pool: Option<&ThreadPool>,
    rows: &[Range<usize>],
) {
    let out = SharedOut::new(y);
    // SAFETY: plan row ranges tile the rows disjointly.
    for_each_part(pool, rows.len(), |p| unsafe { csr_rows::<V, true>(a, x, &out, rows[p].clone()) });
}

/// The rows range `p` of a plan's row-aligned COO entry ranges (contiguous,
/// ascending, covering every entry) owns: from its first entry's row up to
/// the next range's — rows without entries included, so the ranges' owned
/// rows tile `0..nrows` and a defining kernel zeroes nothing else.
pub(crate) fn coo_owned_rows<V: Scalar>(
    a: &CooMatrix<V>,
    entries: &[Range<usize>],
    p: usize,
) -> Range<usize> {
    let first_row = |p: usize| match p {
        0 => 0,
        p if p == entries.len() => a.nrows(),
        p => a.row_indices()[entries[p].start],
    };
    first_row(p)..first_row(p + 1)
}

/// COO over precomputed row-aligned entry ranges: each range zeroes the rows
/// it owns ([`coo_owned_rows`]), then accumulates its entries.
pub(crate) fn spmv_coo_ranges<V: Scalar>(
    a: &CooMatrix<V>,
    x: &[V],
    y: &mut [V],
    pool: Option<&ThreadPool>,
    entries: &[Range<usize>],
) {
    if entries.is_empty() {
        return y.fill(V::ZERO);
    }
    let out = SharedOut::new(y);
    for_each_part(pool, entries.len(), |p| {
        let owned = coo_owned_rows(a, entries, p);
        // SAFETY: the ranges are row-aligned, so `owned` and the rows of this
        // range's entries belong to no other part.
        unsafe {
            out.slice_mut(owned.start, owned.len()).fill(V::ZERO);
            coo_entries(a, x, &out, entries[p].clone());
        }
    });
}

/// COO accumulate over precomputed row-aligned entry ranges, for the HYB
/// composite.
pub(crate) fn spmv_coo_acc_ranges<V: Scalar>(
    a: &CooMatrix<V>,
    x: &[V],
    y: &mut [V],
    pool: Option<&ThreadPool>,
    entries: &[Range<usize>],
) {
    let out = SharedOut::new(y);
    // SAFETY: plan entry ranges are row-aligned and disjoint.
    for_each_part(pool, entries.len(), |p| unsafe { coo_entries(a, x, &out, entries[p].clone()) });
}

/// DIA over precomputed row ranges.
pub(crate) fn spmv_dia_ranges<V: Scalar>(
    a: &DiaMatrix<V>,
    x: &[V],
    y: &mut [V],
    pool: Option<&ThreadPool>,
    rows: &[Range<usize>],
) {
    let out = SharedOut::new(y);
    // SAFETY: plan row ranges tile the rows disjointly.
    for_each_part(pool, rows.len(), |p| unsafe { dia_rows(a, x, &out, rows[p].clone()) });
}

/// BSR over precomputed block-row ranges.
pub(crate) fn spmv_bsr_ranges<V: Scalar>(
    a: &BsrMatrix<V>,
    x: &[V],
    y: &mut [V],
    pool: Option<&ThreadPool>,
    brows: &[Range<usize>],
) {
    let out = SharedOut::new(y);
    // SAFETY: plan block-row ranges tile the block rows disjointly.
    for_each_part(pool, brows.len(), |p| unsafe { bsr_block_rows(a, x, &out, brows[p].clone()) });
}

/// BELL over precomputed shares: each zeroes the empty rows of its row range
/// and writes the rows of its segments with the slice walker. ELL and HYB's
/// ELL part, one-bucket BELL matrices, run this too.
///
/// # Safety
/// `shares` must tile `a`'s slices ([`BellMatrix::tiled_by`]) — shares are
/// per-matrix, and the walker takes a share's word for what it owns.
pub(crate) unsafe fn spmv_bell_shares<V: Scalar>(
    a: &BellMatrix<V>,
    x: &[V],
    y: &mut [V],
    pool: Option<&ThreadPool>,
    shares: &[BellShare],
) {
    let cpu = CpuFeatures::detect();
    let out = SharedOut::new(y);
    for_each_part(pool, shares.len(), |p| {
        // SAFETY: the shares' row ranges are disjoint and their empty rows
        // are in no bucket; the segments tile the slices, so no two share
        // one; `cpu` is what was detected.
        unsafe {
            for run in a.empty_rows_in(shares[p].rows.clone()) {
                out.slice_mut(run.start, run.len()).fill(V::ZERO);
            }
            for seg in &shares[p].segs {
                bell_segment::<V, false>(a, x, &out, seg, cpu);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::coo_to_csr;
    use crate::spmv::serial;
    use crate::test_util::random_coo;
    use morpheus_parallel::{row_aligned_partition, weighted_partition};

    #[test]
    fn row_aligned_partition_never_splits_rows() {
        // Rows with a big run in the middle (the property-based coverage
        // lives next to the function in `morpheus-parallel`).
        let rows = vec![0, 0, 1, 1, 1, 1, 1, 1, 1, 2, 3, 3];
        for parts in 1..=6 {
            let chunks = row_aligned_partition(&rows, parts);
            let mut covered = 0;
            let mut prev_end = 0;
            for c in &chunks {
                assert_eq!(c.start, prev_end);
                if c.start > 0 {
                    assert_ne!(rows[c.start], rows[c.start - 1], "chunk splits a row at {}", c.start);
                }
                covered += c.len();
                prev_end = c.end;
            }
            assert_eq!(covered, rows.len(), "parts={parts}");
        }
    }

    #[test]
    fn empty_coo_acc_is_noop() {
        let pool = ThreadPool::new(2);
        let coo = CooMatrix::<f64>::new(4, 4);
        let x = vec![1.0; 4];
        let mut y = vec![3.0; 4];
        spmv_coo_acc_ranges(&coo, &x, &mut y, Some(&pool), &[]);
        assert_eq!(y, vec![3.0; 4]);
        // The defining kernel still has every row to zero.
        spmv_coo_ranges(&coo, &x, &mut y, Some(&pool), &[]);
        assert_eq!(y, vec![0.0; 4]);
    }

    #[test]
    fn ranged_kernels_match_serial_kernels_bitwise() {
        let pool = ThreadPool::new(4);
        let coo = random_coo::<f64>(150, 150, 2000, 3);
        let csr = coo_to_csr(&coo);
        let x: Vec<f64> = (0..150).map(|i| (i as f64 * 0.21).cos()).collect();

        let mut y_ref = vec![0.0; 150];
        serial::spmv_csr(&csr, &x, &mut y_ref);

        let weights = csr.row_nnz_counts();
        let rows = weighted_partition(&weights, pool.num_threads());
        let mut y = vec![f64::NAN; 150];
        spmv_csr_ranges(&csr, &x, &mut y, Some(&pool), &rows);
        assert_eq!(y, y_ref);

        let mut y_ref = vec![0.0; 150];
        serial::spmv_coo(&coo, &x, &mut y_ref);
        let entries = row_aligned_partition(coo.row_indices(), pool.num_threads());
        let mut y = vec![f64::NAN; 150];
        spmv_coo_ranges(&coo, &x, &mut y, Some(&pool), &entries);
        assert_eq!(y, y_ref);
    }
}
