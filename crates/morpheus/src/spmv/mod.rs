//! Sparse matrix–vector multiplication (`y = A x`) for every format.
//!
//! SpMV is "the operation that often dominates the runtime of computing the
//! solution to linear systems" (§I) and the operation all of the paper's
//! tuners optimise for. There are two ways to run it: [`spmv_serial`], the
//! reference every other execution is checked against, and a
//! [`crate::plan::ExecPlan`] built once for the matrix, whose
//! [`run`](crate::plan::ExecPlan::run) replays precomputed ranges across a
//! pool or inline ([`threaded`] holds the ranged bodies).

pub(crate) mod bell;
pub mod cpu_features;
pub mod serial;
pub mod threaded;

use crate::dynamic::DynamicMatrix;
use crate::error::MorpheusError;
use crate::scalar::Scalar;
use crate::Result;

pub(crate) fn check_shapes<V: Scalar>(m: &DynamicMatrix<V>, x: &[V], y: &[V]) -> Result<()> {
    if x.len() != m.ncols() || y.len() != m.nrows() {
        return Err(MorpheusError::ShapeMismatch {
            expected: format!("x: {}, y: {}", m.ncols(), m.nrows()),
            got: format!("x: {}, y: {}", x.len(), y.len()),
        });
    }
    Ok(())
}

/// `y = A x` on the serial backend.
pub fn spmv_serial<V: Scalar>(m: &DynamicMatrix<V>, x: &[V], y: &mut [V]) -> Result<()> {
    check_shapes(m, x, y)?;
    match m {
        DynamicMatrix::Coo(a) => serial::spmv_coo(a, x, y),
        DynamicMatrix::Csr(a) => serial::spmv_csr(a, x, y),
        DynamicMatrix::Dia(a) => serial::spmv_dia(a, x, y),
        DynamicMatrix::Ell(a) => serial::spmv_bell(a.bell(), x, y),
        DynamicMatrix::Hyb(a) => serial::spmv_hyb(a, x, y),
        DynamicMatrix::Hdc(a) => serial::spmv_hdc(a, x, y),
        DynamicMatrix::Bsr(a) => serial::spmv_bsr(a, x, y),
        DynamicMatrix::Bell(a) => serial::spmv_bell(a, x, y),
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
