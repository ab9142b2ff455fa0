//! Serial SpMV kernels, one per format.
//!
//! All kernels compute `y = A x`, overwriting `y` entirely. Shapes are
//! checked by the dispatching functions in [`crate::spmv`]; the kernels
//! assume `x.len() == ncols` and `y.len() == nrows` (the CSR and BELL
//! bodies, which load without per-entry bounds checks, assert it).

use crate::bell::BellMatrix;
use crate::bsr::BsrMatrix;
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dia::DiaMatrix;
use crate::hdc::HdcMatrix;
use crate::hyb::HybMatrix;
use crate::scalar::Scalar;
use crate::spmv::{bell, threaded};
use morpheus_parallel::SharedSlice;

/// COO kernel: zero `y`, then scatter-accumulate each triplet.
pub fn spmv_coo<V: Scalar>(a: &CooMatrix<V>, x: &[V], y: &mut [V]) {
    y.fill(V::ZERO);
    spmv_coo_acc(a, x, y);
}

/// COO accumulate kernel: `y += A x` (used by the HYB composite).
pub fn spmv_coo_acc<V: Scalar>(a: &CooMatrix<V>, x: &[V], y: &mut [V]) {
    let rows = a.row_indices();
    let cols = a.col_indices();
    let vals = a.values();
    for i in 0..vals.len() {
        y[rows[i]] += vals[i] * x[cols[i]];
    }
}

/// CSR kernel: per-row gather and reduce ([`threaded::csr_rows`], the one
/// CSR row loop, over every row). Every row is written, no pre-zeroing
/// needed.
pub fn spmv_csr<V: Scalar>(a: &CsrMatrix<V>, x: &[V], y: &mut [V]) {
    // SAFETY: one caller, every row.
    unsafe { threaded::csr_rows::<V, false>(a, x, &SharedSlice::new(y), 0..a.nrows()) }
}

/// CSR accumulate kernel: `y += A x` (used by the HDC composite).
pub fn spmv_csr_acc<V: Scalar>(a: &CsrMatrix<V>, x: &[V], y: &mut [V]) {
    // SAFETY: one caller, every row.
    unsafe { threaded::csr_rows::<V, true>(a, x, &SharedSlice::new(y), 0..a.nrows()) }
}

/// DIA kernel: zero `y`, then stream each diagonal with contiguous,
/// vectorisable inner loops — the access pattern that makes DIA "a good fit
/// for vector-like processors" (§II-B).
pub fn spmv_dia<V: Scalar>(a: &DiaMatrix<V>, x: &[V], y: &mut [V]) {
    y.fill(V::ZERO);
    spmv_dia_acc(a, x, y);
}

/// DIA accumulate kernel: `y += A x` (used by the HDC composite).
pub fn spmv_dia_acc<V: Scalar>(a: &DiaMatrix<V>, x: &[V], y: &mut [V]) {
    for d in 0..a.ndiags() {
        let off = a.offsets()[d];
        let diag = a.diagonal(d);
        let range = a.diag_row_range(d);
        // Both y[i] and x[i + off] advance contiguously with i.
        for i in range {
            let j = (i as isize + off) as usize;
            y[i] += diag[i] * x[j];
        }
    }
}

/// BSR kernel: per block row, accumulate the dense blocks with
/// fixed-trip-count inner loops (monomorphised for the supported square
/// block dims so the right-hand side stays in registers). Padding slots
/// hold zero and multiply through — branch-free inner loops.
pub fn spmv_bsr<V: Scalar>(a: &BsrMatrix<V>, x: &[V], y: &mut [V]) {
    match (a.block_r(), a.block_c()) {
        (2, 2) => bsr_body::<V, 2, 2>(a, x, y),
        (4, 4) => bsr_body::<V, 4, 4>(a, x, y),
        (8, 8) => bsr_body::<V, 8, 8>(a, x, y),
        _ => bsr_body_dyn(a, x, y),
    }
}

fn bsr_body<V: Scalar, const R: usize, const C: usize>(a: &BsrMatrix<V>, x: &[V], y: &mut [V]) {
    let offs = a.block_row_offsets();
    let bcols = a.block_cols();
    let vals = a.values();
    let (nrows, ncols) = (a.nrows(), a.ncols());
    for br in 0..a.nblockrows() {
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
        y[r0..r0 + rcount].copy_from_slice(&acc[..rcount]);
    }
}

fn bsr_body_dyn<V: Scalar>(a: &BsrMatrix<V>, x: &[V], y: &mut [V]) {
    let (r, c) = (a.block_r(), a.block_c());
    let offs = a.block_row_offsets();
    let bcols = a.block_cols();
    let vals = a.values();
    let (nrows, ncols) = (a.nrows(), a.ncols());
    let mut acc = vec![V::ZERO; r];
    for br in 0..a.nblockrows() {
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
        y[r0..r0 + rcount].copy_from_slice(&acc[..rcount]);
    }
}

/// BELL kernel — ELL's too, a one-bucket BELL: zero the rows no bucket
/// holds, then write every bucket's rows with the slice walker
/// ([`bell::bell_segment`]).
pub fn spmv_bell<V: Scalar>(a: &BellMatrix<V>, x: &[V], y: &mut [V]) {
    for run in a.empty_rows_in(0..a.nrows()) {
        y[run].fill(V::ZERO);
    }
    bell::bell_buckets::<V, false>(a, x, y);
}

/// BELL accumulate kernel: `y += A x`, by the same walker.
pub fn spmv_bell_acc<V: Scalar>(a: &BellMatrix<V>, x: &[V], y: &mut [V]) {
    bell::bell_buckets::<V, true>(a, x, y);
}

/// HYB kernel: the ELL portion's bucket first (defines `y`), COO surplus
/// accumulates.
pub fn spmv_hyb<V: Scalar>(a: &HybMatrix<V>, x: &[V], y: &mut [V]) {
    spmv_bell(a.ell().bell(), x, y);
    spmv_coo_acc(a.coo(), x, y);
}

/// HDC kernel: DIA portion first (defines `y`), CSR remainder accumulates.
pub fn spmv_hdc<V: Scalar>(a: &HdcMatrix<V>, x: &[V], y: &mut [V]) {
    spmv_dia(a.dia(), x, y);
    spmv_csr_acc(a.csr(), x, y);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{coo_to_dia, coo_to_ell, coo_to_hdc, coo_to_hyb, ConvertOptions};
    use crate::test_util::random_coo;

    #[test]
    fn csr_kernel_simple() {
        // [1 2]   [1]   [5]
        // [0 3] x [2] = [6]
        let a = CsrMatrix::from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0, 2.0, 3.0]).unwrap();
        let mut y = vec![0.0; 2];
        spmv_csr(&a, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![5.0, 6.0]);
    }

    #[test]
    fn acc_kernels_add_to_existing() {
        let coo = random_coo::<f64>(15, 15, 60, 4);
        let x = vec![1.0; 15];
        let mut base = vec![0.0; 15];
        spmv_coo(&coo, &x, &mut base);

        let mut y = vec![10.0; 15];
        spmv_coo_acc(&coo, &x, &mut y);
        for i in 0..15 {
            assert!((y[i] - base[i] - 10.0).abs() < 1e-12);
        }

        let opts = ConvertOptions::default();
        let dia = coo_to_dia(&coo, &opts).unwrap();
        let mut y = vec![10.0; 15];
        spmv_dia_acc(&dia, &x, &mut y);
        for i in 0..15 {
            assert!((y[i] - base[i] - 10.0).abs() < 1e-12);
        }

        let ell = coo_to_ell(&coo, &opts).unwrap();
        let mut y = vec![10.0; 15];
        spmv_bell_acc(ell.bell(), &x, &mut y);
        for i in 0..15 {
            assert!((y[i] - base[i] - 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn hybrid_composites_match_coo() {
        let coo = random_coo::<f64>(30, 30, 180, 6);
        let x: Vec<f64> = (0..30).map(|i| i as f64 * 0.1).collect();
        let mut expect = vec![0.0; 30];
        spmv_coo(&coo, &x, &mut expect);

        let opts = ConvertOptions::default();
        let hyb = coo_to_hyb(&coo, &opts).unwrap();
        let mut y = vec![f64::NAN; 30];
        spmv_hyb(&hyb, &x, &mut y);
        for i in 0..30 {
            assert!((y[i] - expect[i]).abs() < 1e-12, "hyb row {i}");
        }

        let hdc = coo_to_hdc(&coo, &opts).unwrap();
        let mut y = vec![f64::NAN; 30];
        spmv_hdc(&hdc, &x, &mut y);
        for i in 0..30 {
            assert!((y[i] - expect[i]).abs() < 1e-12, "hdc row {i}");
        }
    }

    #[test]
    fn kernels_overwrite_stale_y() {
        let coo = random_coo::<f64>(10, 10, 30, 8);
        let x = vec![2.0; 10];
        let mut clean = vec![0.0; 10];
        spmv_coo(&coo, &x, &mut clean);
        let mut dirty = vec![999.0; 10];
        spmv_coo(&coo, &x, &mut dirty);
        assert_eq!(clean, dirty);
    }
}
