//! Sparse matrix × dense matrix multiplication (SpMM): `Y = A · X` for a
//! block of right-hand sides.
//!
//! The paper notes its "techniques and algorithms ... are transferable to
//! other sparse operations" (§V); SpMM is the first such operation block
//! solvers and eigensolvers need. `X` and `Y` are dense row-major
//! (`ncols x k` and `nrows x k`): every kernel reuses each loaded matrix
//! entry across the `k` right-hand sides, which is exactly why SpMM beats
//! `k` separate SpMVs.
//!
//! Each format has **one** kernel body, run over ranges of its rows: the
//! serial entry point runs it over everything, the planned one over a
//! [`crate::plan::ExecPlan`]'s ranges across the pool (each `k`-wide row
//! block of `Y` has exactly one writer). A body holds a row's sums in
//! registers — a const-generic panel of up to 16 right-hand sides, wider `k`
//! in several panels — and adds them in the order the format's SpMV kernel
//! does, so every output column is **bitwise identical** to an SpMV on that
//! column, serial or planned. The two entry styles are those of
//! [`crate::spmv`]: [`spmm_serial`], and a plan built once whose
//! [`run`](crate::plan::ExecPlan::run) (or the Oracle, which caches plans per
//! matrix structure) replays its ranges.

use crate::bell::{BellBucket, BellMatrix, BellShare, SLICE};
use crate::bsr::BsrMatrix;
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dia::DiaMatrix;
use crate::dynamic::DynamicMatrix;
use crate::error::MorpheusError;
use crate::scalar::Scalar;
use crate::spmv::threaded::{coo_owned_rows, for_each_part, Runner};
use crate::Result;
use morpheus_parallel::SharedSlice;
use std::ops::Range;

/// Checks `x` and an output of `y_len` elements against `m`'s shape and `k`.
pub(crate) fn check_spmm_shapes<V: Scalar>(
    m: &DynamicMatrix<V>,
    x: &[V],
    y_len: usize,
    k: usize,
) -> Result<()> {
    if k == 0 {
        return Err(MorpheusError::ShapeMismatch {
            expected: "k >= 1 right-hand sides".into(),
            got: "k = 0".into(),
        });
    }
    if x.len() != m.ncols() * k || y_len != m.nrows() * k {
        return Err(MorpheusError::ShapeMismatch {
            expected: format!("x: {}x{k}, y: {}x{k}", m.ncols(), m.nrows()),
            got: format!("x len {}, y len {y_len}", x.len()),
        });
    }
    Ok(())
}

/// `Y = A X` on the serial backend (`x` row-major `ncols x k`, `y` row-major
/// `nrows x k`).
pub fn spmm_serial<V: Scalar>(m: &DynamicMatrix<V>, x: &[V], y: &mut [V], k: usize) -> Result<()> {
    check_spmm_shapes(m, x, y.len(), k)?;
    // One part covering every unit: the ranged bodies are the serial kernels.
    let one = std::slice::from_ref::<Range<usize>>;
    let rows = &(0..m.nrows());
    let rows = one(rows);
    let (out, inline) = (&SharedSlice::new(y), Runner::Inline);
    // SAFETY: no shares, so none to trust.
    let bell = |a: &BellMatrix<V>| unsafe { spmm_bell(a, x, out, k, inline, None) };
    match m {
        DynamicMatrix::Coo(a) => spmm_coo::<V, false>(a, x, out, k, inline, one(&(0..a.nnz()))),
        DynamicMatrix::Csr(a) => spmm_csr::<V, false>(a, x, out, k, inline, rows),
        DynamicMatrix::Dia(a) => spmm_dia(a, x, out, k, inline, rows),
        DynamicMatrix::Ell(a) => bell(a.bell()),
        DynamicMatrix::Hyb(a) => {
            bell(a.ell().bell());
            spmm_coo::<V, true>(a.coo(), x, out, k, inline, one(&(0..a.coo().nnz())));
        }
        DynamicMatrix::Hdc(a) => {
            spmm_dia(a.dia(), x, out, k, inline, rows);
            spmm_csr::<V, true>(a.csr(), x, out, k, inline, rows);
        }
        DynamicMatrix::Bsr(a) => spmm_bsr(a, x, out, k, inline, one(&(0..a.nblockrows()))),
        DynamicMatrix::Bell(a) => bell(a),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Panel kernels: one body per format, shared by every entry point
// ---------------------------------------------------------------------------

/// One format's SpMM kernel over a span of its work units (rows, block
/// rows, slices or entries) for one `P`-wide panel of right-hand sides. A
/// row's `P` partial sums live in registers for the whole row and are
/// stored once, so `y` never round-trips through memory per entry; each sum
/// is accumulated in the order the format's SpMV kernel uses, so every
/// output column is bitwise identical to an SpMV on that column.
///
/// `R` is how many rows a body that can reach several rows' entries at once
/// (a slice's lanes, diagonals) keeps in flight: a narrow panel is one
/// short dependency chain per row, and `R` of them hide the add latency.
trait Body<V: Scalar>: Sync {
    /// Units per block: a block's matrix entries are re-read from cache,
    /// not memory, by the second and later panels of a wide `k`.
    const BLOCK: usize = 64;

    /// # Safety
    /// The caller owns the output rows of `units` exclusively.
    unsafe fn panel<const P: usize, const R: usize>(
        &self,
        xs: Panel<'_, V, P>,
        out: &SharedSlice<V>,
        units: Range<usize>,
    );
}

/// Columns `p0..p0 + P` of the row-major `ncols x k` block `X`.
#[derive(Clone, Copy)]
struct Panel<'a, V, const P: usize> {
    x: &'a [V],
    /// `x` as whole rows when the panel is the entire block (`k == P`): an
    /// entry then costs one bounds check and a constant stride.
    whole: &'a [[V; P]],
    k: usize,
    p0: usize,
}

impl<'a, V: Scalar, const P: usize> Panel<'a, V, P> {
    fn new(x: &'a [V], k: usize, p0: usize) -> Self {
        let whole = if k == P { x.as_chunks::<P>().0 } else { &[] };
        Panel { x, whole, k, p0 }
    }

    /// `acc += v * X[c, p0..p0 + P]`.
    #[inline(always)]
    fn axpy(&self, acc: &mut [V; P], v: V, c: usize) {
        let xr: &[V; P] = if self.k == P {
            &self.whole[c]
        } else {
            self.x[c * self.k + self.p0..][..P].try_into().expect("a P-wide slice")
        };
        for j in 0..P {
            acc[j] += v * xr[j];
        }
    }

    /// Where row `r`'s `P` sums go in the row-major `nrows x k` output.
    #[inline(always)]
    fn at(&self, r: usize) -> usize {
        r * self.k + self.p0
    }
}

/// Writes (or, for `ACC`, adds) a row's panel sums at `out[at..at + P]`.
///
/// # Safety
/// The caller owns `out[at..at + P]` exclusively.
#[inline(always)]
unsafe fn store<V: Scalar, const P: usize, const ACC: bool>(out: &SharedSlice<V>, at: usize, acc: &[V; P]) {
    let ys = out.slice_mut(at, P);
    if ACC {
        for j in 0..P {
            ys[j] += acc[j];
        }
    } else {
        ys.copy_from_slice(acc);
    }
}

/// The fewer-than-`R` units a row-tiled body has left over, at the next
/// narrower tile.
///
/// # Safety
/// As [`Body::panel`].
#[inline(always)]
unsafe fn tail<V: Scalar, B: Body<V>, const P: usize, const R: usize>(
    body: &B,
    xs: Panel<'_, V, P>,
    out: &SharedSlice<V>,
    units: Range<usize>,
) {
    match R {
        5.. => body.panel::<P, 4>(xs, out, units),
        3..=4 => body.panel::<P, 2>(xs, out, units),
        2 => body.panel::<P, 1>(xs, out, units),
        _ => {}
    }
}

/// Runs `body` over `units` block by block, each block across the panels
/// `k` splits into: 16-wide ones, then one as wide as what is left. Every
/// width up to 16 is its own panel, so an SpMM of at most 16 right-hand
/// sides is one pass with nothing padded.
///
/// # Safety
/// The caller owns the output rows of `units` exclusively.
unsafe fn run_blocks<V: Scalar, B: Body<V>>(
    body: &B,
    x: &[V],
    out: &SharedSlice<V>,
    k: usize,
    units: Range<usize>,
) {
    let mut lo = units.start;
    while lo < units.end {
        let blk = lo..(lo + B::BLOCK).min(units.end);
        let mut p0 = 0;
        while p0 < k {
            let w = (k - p0).min(16);
            // `P => R`: at most sixteen sums in flight whatever the width.
            macro_rules! panel {
                ($($p:literal => $r:literal),+) => {
                    match w {
                        $($p => body.panel::<$p, $r>(Panel::new(x, k, p0), out, blk.clone()),)+
                        _ => unreachable!("a panel is 1..=16 wide"),
                    }
                };
            }
            panel!(1 => 8, 2 => 8, 3 => 4, 4 => 4, 5 => 2, 6 => 2, 7 => 2, 8 => 2, 9 => 1, 10 => 1,
                   11 => 1, 12 => 1, 13 => 1, 14 => 1, 15 => 1, 16 => 1);
            p0 += w;
        }
        lo = blk.end;
    }
}

/// Runs `body` over the precomputed `parts` that `runner` hands out
/// ([`for_each_part`]). The serial entry point is this with one part
/// covering everything.
///
/// # Safety
/// The output rows of distinct parts must be disjoint.
unsafe fn run<V: Scalar, B: Body<V>>(
    body: &B,
    x: &[V],
    out: &SharedSlice<V>,
    k: usize,
    runner: Runner<'_>,
    parts: &[Range<usize>],
) {
    // SAFETY: each part's rows have this one writer.
    for_each_part(runner, parts.len(), |p| unsafe { run_blocks(body, x, out, k, parts[p].clone()) });
}

/// CSR rows; `ACC` adds each row's sum to `y` (the HDC remainder, whose
/// SpMV also sums the row before touching `y`).
struct CsrRows<'a, V, const ACC: bool>(&'a CsrMatrix<V>);

impl<V: Scalar, const ACC: bool> Body<V> for CsrRows<'_, V, ACC> {
    unsafe fn panel<const P: usize, const R: usize>(
        &self,
        xs: Panel<'_, V, P>,
        out: &SharedSlice<V>,
        rows: Range<usize>,
    ) {
        for r in rows {
            let mut acc = [V::ZERO; P];
            for (&c, &v) in self.0.row_cols(r).iter().zip(self.0.row_vals(r)) {
                xs.axpy(&mut acc, v, c);
            }
            store::<V, P, ACC>(out, xs.at(r), &acc);
        }
    }
}

/// Sorted COO entries, accumulated into `y` row run by row run.
struct CooEntries<'a, V>(&'a CooMatrix<V>);

impl<V: Scalar> Body<V> for CooEntries<'_, V> {
    const BLOCK: usize = 512;

    unsafe fn panel<const P: usize, const R: usize>(
        &self,
        xs: Panel<'_, V, P>,
        out: &SharedSlice<V>,
        entries: Range<usize>,
    ) {
        let (rows, cols, vals) = (self.0.row_indices(), self.0.col_indices(), self.0.values());
        let mut e = entries.start;
        while e < entries.end {
            let r = rows[e];
            let ys = out.slice_mut(xs.at(r), P);
            let mut acc: [V; P] = (&*ys).try_into().expect("a P-wide slice");
            while e < entries.end && rows[e] == r {
                xs.axpy(&mut acc, vals[e], cols[e]);
                e += 1;
            }
            ys.copy_from_slice(&acc);
        }
    }
}

/// DIA rows, `R` at a time: each row gathers its diagonals (explicit zeros
/// skipped).
struct DiaRows<'a, V>(&'a DiaMatrix<V>);

impl<V: Scalar> Body<V> for DiaRows<'_, V> {
    unsafe fn panel<const P: usize, const R: usize>(
        &self,
        xs: Panel<'_, V, P>,
        out: &SharedSlice<V>,
        rows: Range<usize>,
    ) {
        let (offsets, vals) = (self.0.offsets(), self.0.values());
        let (nrows, ncols) = (self.0.nrows(), self.0.ncols());
        let mut i = rows.start;
        while i + R <= rows.end {
            let mut acc = [[V::ZERO; P]; R];
            for (d, &off) in offsets.iter().enumerate() {
                let diag = &vals[d * nrows + i..][..R];
                // Columns of the tile's first and last row; one left of 0
                // wraps past `ncols`.
                let (j0, j1) = ((i as isize + off) as usize, ((i + R - 1) as isize + off) as usize);
                if j0 < ncols && j1 < ncols {
                    for l in 0..R {
                        if diag[l] != V::ZERO {
                            xs.axpy(&mut acc[l], diag[l], j0 + l);
                        }
                    }
                } else {
                    for l in 0..R {
                        let j = j0.wrapping_add(l);
                        if j < ncols && diag[l] != V::ZERO {
                            xs.axpy(&mut acc[l], diag[l], j);
                        }
                    }
                }
            }
            for (l, sums) in acc.iter().enumerate() {
                store::<V, P, false>(out, xs.at(i + l), sums);
            }
            i += R;
        }
        if i < rows.end {
            tail::<V, Self, P, R>(self, xs, out, i..rows.end);
        }
    }
}

/// One bucket of the ELL family (a BELL bucket, or ELL's or HYB's one), a
/// unit being a slice ([`crate::bell`]): `R` of a full slice's eight lanes
/// at a time, each k-level one contiguous run of column indices and values;
/// pads (a zero times the row's own last column) are multiplied through, so
/// there is no test per entry. The ragged last slice goes one row at a time.
struct BellSlices<'a, V>(&'a BellBucket<V>);

impl<V: Scalar> Body<V> for BellSlices<'_, V> {
    /// The 64 rows a block is for the row-unit bodies.
    const BLOCK: usize = 64 / SLICE;

    unsafe fn panel<const P: usize, const R: usize>(
        &self,
        xs: Panel<'_, V, P>,
        out: &SharedSlice<V>,
        slices: Range<usize>,
    ) {
        let span = self.0.span(slices);
        for slice in span.full_slices() {
            // `R` is 8, 4, 2 or 1 (see `run_blocks`): the groups tile a slice.
            for l0 in (0..SLICE).step_by(R) {
                let mut acc = [[V::ZERO; P]; R];
                for (c, v) in slice.levels::<SLICE>() {
                    let (c, v) = (&c[l0..][..R], &v[l0..][..R]);
                    for l in 0..R {
                        xs.axpy(&mut acc[l], v[l], c[l] as usize);
                    }
                }
                for (sums, &r) in acc.iter().zip(&slice.rows[l0..]) {
                    store::<V, P, false>(out, xs.at(r as usize), sums);
                }
            }
        }
        if let Some(slice) = span.ragged() {
            for (l, &r) in slice.rows.iter().enumerate() {
                let mut acc = [V::ZERO; P];
                for (c, v) in slice.lane(l) {
                    xs.axpy(&mut acc, v, c as usize);
                }
                store::<V, P, false>(out, xs.at(r as usize), &acc);
            }
        }
    }
}

/// BSR block rows, one output row at a time through the row's blocks.
struct BsrBlockRows<'a, V>(&'a BsrMatrix<V>);

impl<V: Scalar> Body<V> for BsrBlockRows<'_, V> {
    const BLOCK: usize = 16;

    unsafe fn panel<const P: usize, const R: usize>(
        &self,
        xs: Panel<'_, V, P>,
        out: &SharedSlice<V>,
        brows: Range<usize>,
    ) {
        let a = self.0;
        let (r, c) = (a.block_r(), a.block_c());
        let (offs, bcols, vals) = (a.block_row_offsets(), a.block_cols(), a.values());
        for br in brows {
            let r0 = br * r;
            for rr in 0..r.min(a.nrows() - r0) {
                let mut acc = [V::ZERO; P];
                for b in offs[br]..offs[br + 1] {
                    let c0 = bcols[b] * c;
                    let row = &vals[(b * r + rr) * c..][..c.min(a.ncols() - c0)];
                    for (cc, &v) in row.iter().enumerate() {
                        xs.axpy(&mut acc, v, c0 + cc);
                    }
                }
                store::<V, P, false>(out, xs.at(r0 + rr), &acc);
            }
        }
    }
}

// The per-format entry points below take the parts to run (plan ranges, or
// one range over everything for the serial kernels) and who runs them.

pub(crate) fn spmm_csr<V: Scalar, const ACC: bool>(
    a: &CsrMatrix<V>,
    x: &[V],
    out: &SharedSlice<V>,
    k: usize,
    runner: Runner<'_>,
    rows: &[Range<usize>],
) {
    // SAFETY: row ranges tile the rows disjointly.
    unsafe { run(&CsrRows::<V, ACC>(a), x, out, k, runner, rows) }
}

/// `ACC = false` defines `y`: each range first zeroes the rows it owns
/// ([`coo_owned_rows`]; rows without entries are never visited).
pub(crate) fn spmm_coo<V: Scalar, const ACC: bool>(
    a: &CooMatrix<V>,
    x: &[V],
    out: &SharedSlice<V>,
    k: usize,
    runner: Runner<'_>,
    entries: &[Range<usize>],
) {
    if !ACC && entries.is_empty() {
        // SAFETY: with no entries there are no parts: this caller is the
        // output's one writer.
        return unsafe { out.slice_mut(0, out.len()).fill(V::ZERO) };
    }
    for_each_part(runner, entries.len(), |p| {
        // SAFETY: entry ranges are row-aligned and disjoint, and so are the
        // rows they own.
        unsafe {
            if !ACC {
                let owned = coo_owned_rows(a, entries, p);
                out.slice_mut(owned.start * k, owned.len() * k).fill(V::ZERO);
            }
            run_blocks(&CooEntries(a), x, out, k, entries[p].clone());
        }
    });
}

pub(crate) fn spmm_dia<V: Scalar>(
    a: &DiaMatrix<V>,
    x: &[V],
    out: &SharedSlice<V>,
    k: usize,
    runner: Runner<'_>,
    rows: &[Range<usize>],
) {
    // SAFETY: row ranges tile the rows disjointly.
    unsafe { run(&DiaRows(a), x, out, k, runner, rows) }
}

pub(crate) fn spmm_bsr<V: Scalar>(
    a: &BsrMatrix<V>,
    x: &[V],
    out: &SharedSlice<V>,
    k: usize,
    runner: Runner<'_>,
    brows: &[Range<usize>],
) {
    // SAFETY: block-row ranges tile the block rows disjointly.
    unsafe { run(&BsrBlockRows(a), x, out, k, runner, brows) }
}

/// BELL over plan shares, or (`shares: None`) over every bucket in turn.
/// Every stored row is written exactly once; only empty rows, which no
/// bucket holds, are zeroed.
///
/// # Safety
/// `shares`, when given, must tile `a`'s slices ([`BellMatrix::tiled_by`]).
pub(crate) unsafe fn spmm_bell<V: Scalar>(
    a: &BellMatrix<V>,
    x: &[V],
    out: &SharedSlice<V>,
    k: usize,
    runner: Runner<'_>,
    shares: Option<&[BellShare]>,
) {
    let zero = |rows: Range<usize>| {
        for run in a.empty_rows_in(rows) {
            // SAFETY: no bucket holds these rows, and the callers below hand
            // disjoint row ranges to concurrent shares.
            unsafe { out.slice_mut(run.start * k, run.len() * k).fill(V::ZERO) };
        }
    };
    let segment = |bucket: usize, slices: Range<usize>| {
        // SAFETY: buckets hold disjoint rows and segments share no slice
        // within a bucket (see `BellMatrix::shares`).
        unsafe { run_blocks(&BellSlices(&a.buckets()[bucket]), x, out, k, slices) }
    };
    match shares {
        None => {
            zero(0..a.nrows());
            a.buckets().iter().enumerate().for_each(|(b, bucket)| segment(b, 0..bucket.num_slices()));
        }
        Some(shares) => for_each_part(runner, shares.len(), |p| {
            zero(shares[p].rows.clone());
            shares[p].segs.iter().for_each(|s| segment(s.bucket, s.slices.clone()));
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::ConvertOptions;
    use crate::format::ALL_FORMATS;
    use crate::plan::ExecPlan;
    use crate::spmv::spmv_serial;
    use crate::test_util::random_coo;
    use morpheus_parallel::ThreadPool;

    /// Column `j` of an SpMM is the SpMV of `x_j` bit for bit, in every
    /// format, at every panel width and past the widest panel.
    #[test]
    fn spmm_matches_repeated_spmv() {
        let opts = ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() };
        for (seed, &k) in [1usize, 2, 3, 4, 5, 7, 8, 15, 16, 17, 32, 33].iter().enumerate() {
            let base = DynamicMatrix::from(random_coo::<f64>(75, 58, 600, seed as u64));
            // Row-major X: ncols x k.
            let x_block: Vec<f64> = (0..base.ncols() * k).map(|i| ((i * 29 + 3) % 17) as f64 - 8.2).collect();
            for &fmt in &ALL_FORMATS {
                let m = base.to_format(fmt, &opts).unwrap();
                let mut y = vec![f64::NAN; base.nrows() * k];
                spmm_serial(&m, &x_block, &mut y, k).unwrap();
                for col in 0..k {
                    let x_col: Vec<f64> = (0..base.ncols()).map(|i| x_block[i * k + col]).collect();
                    let mut y_col = vec![f64::NAN; base.nrows()];
                    spmv_serial(&m, &x_col, &mut y_col).unwrap();
                    for (i, yc) in y_col.iter().enumerate() {
                        assert_eq!(
                            y[i * k + col].to_bits(),
                            yc.to_bits(),
                            "{fmt} k={k} row {i} column {col}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn spmm_k1_matches_spmv() {
        let coo = random_coo::<f64>(20, 20, 80, 9);
        let m = DynamicMatrix::from(coo);
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut y_mv = vec![0.0; 20];
        spmv_serial(&m, &x, &mut y_mv).unwrap();
        let mut y_mm = vec![0.0; 20];
        spmm_serial(&m, &x, &mut y_mm, 1).unwrap();
        assert_eq!(y_mv, y_mm);
    }

    #[test]
    fn spmm_rejects_bad_shapes() {
        let m = DynamicMatrix::from(random_coo::<f64>(10, 10, 20, 1));
        let x = vec![0.0; 10 * 2];
        let mut y = vec![0.0; 10 * 2];
        assert!(spmm_serial(&m, &x, &mut y, 0).is_err());
        assert!(spmm_serial(&m, &x, &mut y, 3).is_err());
        let mut y_short = vec![0.0; 5];
        assert!(spmm_serial(&m, &x, &mut y_short, 2).is_err());
    }

    /// Planned SpMM across a pool must be *bitwise* identical to serial in
    /// every format (same per-row accumulation order).
    #[test]
    fn threaded_spmm_is_bitwise_identical_to_serial() {
        let pool = ThreadPool::new(4);
        let k = 5usize;
        for seed in 0..3u64 {
            let coo = random_coo::<f64>(90, 70, 900, seed + 20);
            let base = DynamicMatrix::from(coo);
            let opts = ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() };
            let x: Vec<f64> =
                (0..base.ncols() * k).map(|i| ((i * 13 + 1) % 23) as f64 * 0.25 - 2.0).collect();
            for &fmt in &ALL_FORMATS {
                let m = base.to_format(fmt, &opts).unwrap();
                let mut ys = vec![0.0; base.nrows() * k];
                spmm_serial(&m, &x, &mut ys, k).unwrap();
                let mut yt = vec![f64::NAN; base.nrows() * k];
                ExecPlan::build(&m, pool.num_threads(), None).spmm(&m, &x, &mut yt, k, &pool).unwrap();
                let same = ys.iter().zip(&yt).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{fmt} seed {seed}: threaded SpMM diverged from serial");
            }
        }
    }
}
