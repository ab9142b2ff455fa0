//! Multithreaded SpMV kernels (the "OpenMP" backend).
//!
//! Every kernel partitions the *rows* of the matrix across workers so each
//! element of `y` has exactly one writer — no atomics are needed, and
//! results are bitwise identical to the serial kernels (same per-row
//! accumulation order) whenever every range runs an order-preserving
//! [`KernelVariant`] (see [`crate::spmv::variant`]); the unrolled/SIMD CSR
//! body a plan may choose is ULP-bounded instead.
//!
//! There is one entry style: the `*_ranges` kernels replay the precomputed
//! parts of a [`crate::plan::ExecPlan`] through [`for_each_part`] with no
//! per-call scheduling work at all — one dispatch per pass over the matrix,
//! part `p` on the same pool index every call, or inline in order without a
//! pool. [`crate::plan::ExecPlan::run`] is their only caller outside this
//! module and [`crate::spmm`]; nothing here derives a partition.
//!
//! Two bodies are shared beyond this module. `csr_rows` is the one scalar
//! CSR row loop: the serial kernels run it over every row. BELL has exactly
//! one body, the slice walker `crate::spmv::bell::bell_segment` (portable
//! and AVX2 forms, chosen by [`CpuFeatures`]): `spmv_bell_shares` here, the
//! serial kernels and — through their plans — partitioned shards all run
//! it, and it carries no variants.

use crate::bell::{BellMatrix, BellShare};
use crate::bsr::BsrMatrix;
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dia::DiaMatrix;
use crate::ell::{EllMatrix, ELL_PAD};
use crate::scalar::Scalar;
use crate::spmv::bell::bell_segment;
use crate::spmv::variant::{self, CpuFeatures, KernelVariant};
use morpheus_parallel::{SharedSlice, ThreadPool};
use std::ops::Range;

/// Shared mutable output vector. Soundness contract: concurrent callers must
/// write disjoint index sets, which the row partitioning guarantees.
type SharedOut<V> = SharedSlice<V>;

// ---------------------------------------------------------------------------
// Per-range loop bodies
// ---------------------------------------------------------------------------

/// CSR rows `rows`: per-row gather/reduce, written (or accumulated) into
/// `out` — the one scalar CSR row loop, which the serial kernels run over
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

/// DIA rows `rows`: zero the rows, then stream every diagonal's
/// intersection with the range — the serial kernel's per-row accumulation
/// order (diagonals ascending).
///
/// # Safety
/// No concurrent caller may receive an overlapping row range.
#[inline]
unsafe fn dia_rows<V: Scalar>(a: &DiaMatrix<V>, x: &[V], out: &SharedOut<V>, rows: Range<usize>) {
    let nrows = a.nrows();
    let offsets = a.offsets();
    let values = a.values();
    for i in rows.clone() {
        out.set(i, V::ZERO);
    }
    for (d, &off) in offsets.iter().enumerate() {
        let dr = a.diag_row_range(d);
        let lo = rows.start.max(dr.start);
        let hi = rows.end.min(dr.end);
        let base = d * nrows;
        for i in lo..hi {
            let j = (i as isize + off) as usize;
            out.add(i, values[base + i] * x[j]);
        }
    }
}

/// ELL rows `rows`: zero the rows, then walk the column-major slabs.
///
/// # Safety
/// No concurrent caller may receive an overlapping row range.
#[inline]
unsafe fn ell_rows<V: Scalar>(a: &EllMatrix<V>, x: &[V], out: &SharedOut<V>, rows: Range<usize>) {
    let nrows = a.nrows();
    let cols = a.col_indices();
    let vals = a.values();
    for i in rows.clone() {
        out.set(i, V::ZERO);
    }
    for k in 0..a.width() {
        let base = k * nrows;
        for i in rows.clone() {
            let c = cols[base + i];
            if c != ELL_PAD {
                out.add(i, vals[base + i] * x[c]);
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
// Variant bodies (bottleneck-specialised; see `crate::spmv::variant`)
// ---------------------------------------------------------------------------

/// CSR rows with the unrolled/SIMD row reduction
/// ([`variant::dot_row_unrolled`]). Accumulation order differs from the
/// scalar body — results are ULP-bounded, not bitwise.
///
/// # Safety
/// No concurrent caller may receive an overlapping row range.
#[inline]
unsafe fn csr_rows_unrolled<V: Scalar, const ACC: bool>(
    a: &CsrMatrix<V>,
    x: &[V],
    out: &SharedOut<V>,
    rows: Range<usize>,
) {
    let offs = a.row_offsets();
    let cols = a.col_indices();
    let vals = a.values();
    for r in rows {
        let (lo, hi) = (offs[r], offs[r + 1]);
        let acc = variant::dot_row_unrolled(&vals[lo..hi], &cols[lo..hi], x);
        if ACC {
            out.add(r, acc);
        } else {
            out.set(r, acc);
        }
    }
}

/// CSR rows with software prefetch of the `x` gathers
/// [`variant::PREFETCH_DIST`] entries ahead. Accumulation order is the
/// scalar body's — results stay bitwise identical.
///
/// # Safety
/// No concurrent caller may receive an overlapping row range.
#[inline]
unsafe fn csr_rows_prefetch<V: Scalar, const ACC: bool>(
    a: &CsrMatrix<V>,
    x: &[V],
    out: &SharedOut<V>,
    rows: Range<usize>,
) {
    let offs = a.row_offsets();
    let cols = a.col_indices();
    let vals = a.values();
    let xp = x.as_ptr();
    for r in rows {
        let mut acc = V::ZERO;
        for i in offs[r]..offs[r + 1] {
            let pf = i + variant::PREFETCH_DIST;
            if pf < cols.len() {
                // Column indices are in-bounds for x by matrix invariant;
                // prefetching across the row boundary warms the next rows'
                // gathers too.
                variant::prefetch_read(xp.add(cols[pf]));
            }
            acc += vals[i] * x[cols[i]];
        }
        if ACC {
            out.add(r, acc);
        } else {
            out.set(r, acc);
        }
    }
}

/// DIA rows in blocks of [`variant::BLOCK_ROWS`]: the full diagonal sweep
/// runs per block, keeping the output block and its `x` window
/// cache-resident. Per-row accumulation order (diagonals ascending) is
/// unchanged — bitwise identical to the scalar body.
///
/// # Safety
/// No concurrent caller may receive an overlapping row range.
#[inline]
unsafe fn dia_rows_blocked<V: Scalar>(a: &DiaMatrix<V>, x: &[V], out: &SharedOut<V>, rows: Range<usize>) {
    let mut b = rows.start;
    while b < rows.end {
        let e = (b + variant::BLOCK_ROWS).min(rows.end);
        dia_rows(a, x, out, b..e);
        b = e;
    }
}

/// ELL rows in blocks of [`variant::BLOCK_ROWS`] (see [`dia_rows_blocked`];
/// per-row slab order `k` ascending is unchanged — bitwise identical).
///
/// # Safety
/// No concurrent caller may receive an overlapping row range.
#[inline]
unsafe fn ell_rows_blocked<V: Scalar>(a: &EllMatrix<V>, x: &[V], out: &SharedOut<V>, rows: Range<usize>) {
    let mut b = rows.start;
    while b < rows.end {
        let e = (b + variant::BLOCK_ROWS).min(rows.end);
        ell_rows(a, x, out, b..e);
        b = e;
    }
}

/// Variant-dispatching CSR body. Non-CSR variants fall back to the scalar
/// reference.
///
/// # Safety
/// Same contract as [`csr_rows`].
#[inline]
pub(crate) unsafe fn csr_rows_variant<V: Scalar, const ACC: bool>(
    a: &CsrMatrix<V>,
    x: &[V],
    out: &SharedOut<V>,
    rows: Range<usize>,
    v: KernelVariant,
) {
    match v {
        KernelVariant::Unrolled => csr_rows_unrolled::<V, ACC>(a, x, out, rows),
        KernelVariant::Prefetch => csr_rows_prefetch::<V, ACC>(a, x, out, rows),
        _ => csr_rows::<V, ACC>(a, x, out, rows),
    }
}

/// Variant-dispatching DIA body (only `Blocked` specialises).
///
/// # Safety
/// Same contract as [`dia_rows`].
#[inline]
pub(crate) unsafe fn dia_rows_variant<V: Scalar>(
    a: &DiaMatrix<V>,
    x: &[V],
    out: &SharedOut<V>,
    rows: Range<usize>,
    v: KernelVariant,
) {
    match v {
        KernelVariant::Blocked => dia_rows_blocked(a, x, out, rows),
        _ => dia_rows(a, x, out, rows),
    }
}

/// Variant-dispatching ELL body (only `Blocked` specialises).
///
/// # Safety
/// Same contract as [`ell_rows`].
#[inline]
pub(crate) unsafe fn ell_rows_variant<V: Scalar>(
    a: &EllMatrix<V>,
    x: &[V],
    out: &SharedOut<V>,
    rows: Range<usize>,
    v: KernelVariant,
) {
    match v {
        KernelVariant::Blocked => ell_rows_blocked(a, x, out, rows),
        _ => ell_rows(a, x, out, rows),
    }
}

/// BSR block rows in chunks of [`variant::BLOCK_ROWS`] block rows, keeping
/// the output tile and `x` window cache-resident. Per-row accumulation
/// order is unchanged — bitwise identical to the plain body.
///
/// # Safety
/// No concurrent caller may receive an overlapping block-row range.
#[inline]
unsafe fn bsr_block_rows_blocked<V: Scalar>(
    a: &BsrMatrix<V>,
    x: &[V],
    out: &SharedOut<V>,
    brows: Range<usize>,
) {
    let mut b = brows.start;
    while b < brows.end {
        let e = (b + variant::BLOCK_ROWS).min(brows.end);
        bsr_block_rows(a, x, out, b..e);
        b = e;
    }
}

/// Variant-dispatching BSR body (only `Blocked` specialises; the block
/// inner loops are already register-tiled).
///
/// # Safety
/// Same contract as [`bsr_block_rows`].
#[inline]
pub(crate) unsafe fn bsr_block_rows_variant<V: Scalar>(
    a: &BsrMatrix<V>,
    x: &[V],
    out: &SharedOut<V>,
    brows: Range<usize>,
    v: KernelVariant,
) {
    match v {
        KernelVariant::Blocked => bsr_block_rows_blocked(a, x, out, brows),
        _ => bsr_block_rows(a, x, out, brows),
    }
}

// ---------------------------------------------------------------------------
// Planned kernels: thin loops over precomputed `ExecPlan` parts
// ---------------------------------------------------------------------------

/// Runs `body(p)` for every part `p < n` of a plan in **one dispatch**: part
/// `p` on pool index `p % width` — the same thread every call, with no
/// scheduling state — or, without a pool, inline in order on the calling
/// thread (which is also what a pool of width 1, a nested region and a busy
/// pool do). Same bodies either way, so results are bitwise identical, and
/// the variant layer engages even on single-core hosts and on the serving
/// layer's busy-pool fallback.
pub(crate) fn for_each_part(pool: Option<&ThreadPool>, n: usize, body: impl Fn(usize) + Sync) {
    match pool {
        Some(pool) if n > 0 => pool.run_on_all(&|w| (w..n).step_by(pool.num_threads()).for_each(&body)),
        _ => (0..n).for_each(body),
    }
}

/// CSR over precomputed row ranges (write), each range running its planned
/// [`KernelVariant`] body.
pub(crate) fn spmv_csr_ranges<V: Scalar>(
    a: &CsrMatrix<V>,
    x: &[V],
    y: &mut [V],
    pool: Option<&ThreadPool>,
    rows: &[Range<usize>],
    variants: &[KernelVariant],
) {
    debug_assert_eq!(rows.len(), variants.len());
    let out = SharedOut::new(y);
    // SAFETY: plan row ranges tile the rows disjointly.
    for_each_part(pool, rows.len(), |p| unsafe {
        csr_rows_variant::<V, false>(a, x, &out, rows[p].clone(), variants[p])
    });
}

/// CSR over precomputed row ranges (accumulate), for the HDC composite.
pub(crate) fn spmv_csr_acc_ranges<V: Scalar>(
    a: &CsrMatrix<V>,
    x: &[V],
    y: &mut [V],
    pool: Option<&ThreadPool>,
    rows: &[Range<usize>],
    variants: &[KernelVariant],
) {
    debug_assert_eq!(rows.len(), variants.len());
    let out = SharedOut::new(y);
    // SAFETY: plan row ranges tile the rows disjointly.
    for_each_part(pool, rows.len(), |p| unsafe {
        csr_rows_variant::<V, true>(a, x, &out, rows[p].clone(), variants[p])
    });
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
/// it owns ([`coo_owned_rows`]), then accumulates its entries. (COO's scatter
/// loop has no specialised variants.)
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

/// DIA over precomputed row ranges, each running its planned variant.
pub(crate) fn spmv_dia_ranges<V: Scalar>(
    a: &DiaMatrix<V>,
    x: &[V],
    y: &mut [V],
    pool: Option<&ThreadPool>,
    rows: &[Range<usize>],
    variants: &[KernelVariant],
) {
    debug_assert_eq!(rows.len(), variants.len());
    let out = SharedOut::new(y);
    // SAFETY: plan row ranges tile the rows disjointly.
    for_each_part(pool, rows.len(), |p| unsafe {
        dia_rows_variant(a, x, &out, rows[p].clone(), variants[p])
    });
}

/// ELL over precomputed row ranges, each running its planned variant.
pub(crate) fn spmv_ell_ranges<V: Scalar>(
    a: &EllMatrix<V>,
    x: &[V],
    y: &mut [V],
    pool: Option<&ThreadPool>,
    rows: &[Range<usize>],
    variants: &[KernelVariant],
) {
    debug_assert_eq!(rows.len(), variants.len());
    let out = SharedOut::new(y);
    // SAFETY: plan row ranges tile the rows disjointly.
    for_each_part(pool, rows.len(), |p| unsafe {
        ell_rows_variant(a, x, &out, rows[p].clone(), variants[p])
    });
}

/// BSR over precomputed block-row ranges, each running its planned variant.
pub(crate) fn spmv_bsr_ranges<V: Scalar>(
    a: &BsrMatrix<V>,
    x: &[V],
    y: &mut [V],
    pool: Option<&ThreadPool>,
    brows: &[Range<usize>],
    variants: &[KernelVariant],
) {
    debug_assert_eq!(brows.len(), variants.len());
    let out = SharedOut::new(y);
    // SAFETY: plan block-row ranges tile the block rows disjointly.
    for_each_part(pool, brows.len(), |p| unsafe {
        bsr_block_rows_variant(a, x, &out, brows[p].clone(), variants[p])
    });
}

/// BELL over precomputed shares: each zeroes the empty rows of its row range
/// and writes the rows of its segments with the slice walker.
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
    use crate::convert::{coo_to_csr, ConvertOptions};
    use crate::spmv::serial;
    use crate::test_util::random_coo;
    use morpheus_parallel::{row_aligned_partition, static_partition, weighted_partition};

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
    fn ranged_kernels_match_scheduled_kernels_bitwise() {
        let pool = ThreadPool::new(4);
        let coo = random_coo::<f64>(150, 150, 2000, 3);
        let csr = coo_to_csr(&coo);
        let x: Vec<f64> = (0..150).map(|i| (i as f64 * 0.21).cos()).collect();

        let mut y_ref = vec![0.0; 150];
        serial::spmv_csr(&csr, &x, &mut y_ref);

        let weights = csr.row_nnz_counts();
        let rows = weighted_partition(&weights, pool.num_threads());
        let scalars = vec![KernelVariant::Scalar; rows.len()];
        let mut y = vec![f64::NAN; 150];
        spmv_csr_ranges(&csr, &x, &mut y, Some(&pool), &rows, &scalars);
        assert_eq!(y, y_ref);

        let mut y_ref = vec![0.0; 150];
        serial::spmv_coo(&coo, &x, &mut y_ref);
        let entries = row_aligned_partition(coo.row_indices(), pool.num_threads());
        let mut y = vec![f64::NAN; 150];
        spmv_coo_ranges(&coo, &x, &mut y, Some(&pool), &entries);
        assert_eq!(y, y_ref);
    }

    #[test]
    fn order_preserving_variant_bodies_are_bitwise_equal_to_scalar() {
        // Prefetch (CSR) and Blocked (DIA/ELL) keep the reference per-row
        // accumulation order; run them over both one- and multi-worker
        // pools (the planned path inlines ranges on one worker).
        let coo = random_coo::<f64>(700, 650, 9000, 19);
        let csr = coo_to_csr(&coo);
        let x: Vec<f64> = (0..650).map(|i| (i as f64 * 0.13).sin() + 0.5).collect();
        let mut y_ref = vec![0.0; 700];
        serial::spmv_csr(&csr, &x, &mut y_ref);
        for workers in [1, 3] {
            let pool = ThreadPool::new(workers);
            let rows = weighted_partition(&csr.row_nnz_counts(), workers);
            let prefetch = vec![KernelVariant::Prefetch; rows.len()];
            let mut y = vec![f64::NAN; 700];
            spmv_csr_ranges(&csr, &x, &mut y, Some(&pool), &rows, &prefetch);
            assert_eq!(y, y_ref, "prefetch CSR, {workers} worker(s)");
        }

        let opts = ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() };
        let ell = crate::convert::coo_to_ell(&coo, &opts).unwrap();
        let mut y_ref = vec![0.0; 700];
        serial::spmv_ell(&ell, &x, &mut y_ref);
        for workers in [1, 2] {
            let pool = ThreadPool::new(workers);
            let rows = static_partition(700, workers);
            let blocked = vec![KernelVariant::Blocked; rows.len()];
            let mut y = vec![f64::NAN; 700];
            spmv_ell_ranges(&ell, &x, &mut y, Some(&pool), &rows, &blocked);
            assert_eq!(y, y_ref, "blocked ELL, {workers} worker(s)");
        }
    }

    #[test]
    fn unrolled_csr_body_is_ulp_close_to_scalar() {
        let coo = random_coo::<f64>(300, 280, 6000, 23);
        let csr = coo_to_csr(&coo);
        let x: Vec<f64> = (0..280).map(|i| (i as f64 * 0.37).cos() * 2.0 - 0.3).collect();
        let mut y_ref = vec![0.0; 300];
        serial::spmv_csr(&csr, &x, &mut y_ref);
        let pool = ThreadPool::new(2);
        let rows = weighted_partition(&csr.row_nnz_counts(), 2);
        let unrolled = vec![KernelVariant::Unrolled; rows.len()];
        let mut y = vec![f64::NAN; 300];
        spmv_csr_ranges(&csr, &x, &mut y, Some(&pool), &rows, &unrolled);
        let offs = csr.row_offsets();
        for r in 0..300 {
            let row_abs: f64 =
                (offs[r]..offs[r + 1]).map(|i| (csr.values()[i] * x[csr.col_indices()[i]]).abs()).sum();
            let bound = ((offs[r + 1] - offs[r]) as f64 + 8.0) * f64::EPSILON * row_abs.max(1e-300);
            assert!((y[r] - y_ref[r]).abs() <= bound, "row {r}: |{} - {}| > {bound}", y[r], y_ref[r]);
        }
    }
}
