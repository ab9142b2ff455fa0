//! Sparse matrix–vector multiplication (`y = A x`) for every format.
//!
//! SpMV is "the operation that often dominates the runtime of computing the
//! solution to linear systems" (§I) and the operation all of the paper's
//! tuners optimise for. Each format has **one** body, run over ranges of
//! its work units ([`threaded`], and the BELL slice walker in `bell`), and
//! there are two entry styles: [`spmv_serial`] runs it over one part
//! covering every unit, inline with no pool, and a
//! [`crate::plan::ExecPlan`] built once for the matrix replays its
//! precomputed parts across a pool or inline
//! ([`run`](crate::plan::ExecPlan::run)), or hands them to the threads that
//! claim them ([`run_claimed`](crate::plan::ExecPlan::run_claimed)). Parts
//! write disjoint rows and a row sums in the same order however they are
//! run, so all of these are bitwise identical.

pub(crate) mod bell;
pub mod cpu_features;
#[cfg(test)]
mod serial;
pub mod threaded;

use crate::bell::BellMatrix;
use crate::dynamic::DynamicMatrix;
use crate::error::MorpheusError;
use crate::scalar::Scalar;
use crate::Result;
use std::ops::Range;
use threaded::{
    spmv_bell_shares, spmv_bsr_ranges, spmv_coo_acc_ranges, spmv_coo_ranges, spmv_csr_acc_ranges,
    spmv_csr_ranges, spmv_dia_ranges, Runner, SharedOut,
};

/// Checks `x` and an output of `y_len` elements against `m`'s shape.
pub(crate) fn check_shapes<V: Scalar>(m: &DynamicMatrix<V>, x: &[V], y_len: usize) -> Result<()> {
    if x.len() != m.ncols() || y_len != m.nrows() {
        return Err(MorpheusError::ShapeMismatch {
            expected: format!("x: {}, y: {}", m.ncols(), m.nrows()),
            got: format!("x: {}, y: {}", x.len(), y_len),
        });
    }
    Ok(())
}

/// `y = A x` on the calling thread, with no plan and no pool.
pub fn spmv_serial<V: Scalar>(m: &DynamicMatrix<V>, x: &[V], y: &mut [V]) -> Result<()> {
    check_shapes(m, x, y.len())?;
    // One part covering every unit: the ranged bodies are the serial kernels.
    let one = std::slice::from_ref::<Range<usize>>;
    let rows = &(0..m.nrows());
    let rows = one(rows);
    let (out, inline) = (&SharedOut::new(y), Runner::Inline);
    // SAFETY: no shares, so none to trust.
    let bell = |a: &BellMatrix<V>| unsafe { spmv_bell_shares(a, x, out, inline, None) };
    match m {
        DynamicMatrix::Coo(a) => spmv_coo_ranges(a, x, out, inline, one(&(0..a.nnz()))),
        DynamicMatrix::Csr(a) => spmv_csr_ranges(a, x, out, inline, rows),
        DynamicMatrix::Dia(a) => spmv_dia_ranges(a, x, out, inline, rows),
        DynamicMatrix::Ell(a) => bell(a.bell()),
        DynamicMatrix::Hyb(a) => {
            bell(a.ell().bell());
            spmv_coo_acc_ranges(a.coo(), x, out, inline, one(&(0..a.coo().nnz())));
        }
        DynamicMatrix::Hdc(a) => {
            spmv_dia_ranges(a.dia(), x, out, inline, rows);
            spmv_csr_acc_ranges(a.csr(), x, out, inline, rows);
        }
        DynamicMatrix::Bsr(a) => spmv_bsr_ranges(a, x, out, inline, one(&(0..a.nblockrows()))),
        DynamicMatrix::Bell(a) => bell(a),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::ConvertOptions;
    use crate::format::ALL_FORMATS;
    use crate::test_util::random_coo;

    fn dense_reference(m: &DynamicMatrix<f64>, x: &[f64]) -> Vec<f64> {
        let d = m.to_dense();
        let mut y = vec![0.0; m.nrows()];
        d.spmv(x, &mut y);
        y
    }

    fn assert_close(a: &[f64], b: &[f64], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length");
        for i in 0..a.len() {
            let scale = 1.0 + a[i].abs().max(b[i].abs());
            assert!((a[i] - b[i]).abs() <= 1e-10 * scale, "{ctx}: y[{i}] {} vs {}", a[i], b[i]);
        }
    }

    #[test]
    fn all_formats_match_dense_reference_serial() {
        for seed in 0..4u64 {
            let coo = random_coo::<f64>(57, 43, 400, seed);
            let base = DynamicMatrix::from(coo);
            let x: Vec<f64> = (0..43).map(|i| (i as f64 * 0.37).sin()).collect();
            let expect = dense_reference(&base, &x);
            for &f in &ALL_FORMATS {
                let m = base.to_format(f, &ConvertOptions::default()).unwrap();
                // A stale `y`: a row left unwritten or added to reads NaN.
                let mut y = vec![f64::NAN; 57];
                spmv_serial(&m, &x, &mut y).unwrap();
                assert_close(&y, &expect, &format!("serial {f} seed {seed}"));
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let m = DynamicMatrix::from(random_coo::<f64>(10, 8, 20, 1));
        let x_bad = vec![0.0; 7];
        let x_ok = vec![0.0; 8];
        let mut y_bad = vec![0.0; 9];
        let mut y_ok = vec![0.0; 10];
        assert!(spmv_serial(&m, &x_bad, &mut y_ok).is_err());
        assert!(spmv_serial(&m, &x_ok, &mut y_bad).is_err());
    }

    #[test]
    fn empty_matrix_yields_zero_vector() {
        let m = DynamicMatrix::from(crate::CooMatrix::<f64>::new(5, 5));
        let x = vec![1.0; 5];
        let mut y = vec![f64::NAN; 5];
        spmv_serial(&m, &x, &mut y).unwrap();
        assert_eq!(y, vec![0.0; 5]);
    }
}
