//! Sparse matrix–vector multiplication (`y = A x`) for every format, on the
//! Serial and the threaded ("OpenMP") backend.
//!
//! SpMV is "the operation that often dominates the runtime of computing the
//! solution to linear systems" (§I) and the operation all of the paper's
//! tuners optimise for. Kernels are exposed per format (for benchmarks) and
//! behind a single dynamic dispatch ([`spmv`]).

pub(crate) mod bell;
pub mod serial;
pub mod threaded;
pub mod variant;

use crate::dynamic::DynamicMatrix;
use crate::error::MorpheusError;
use crate::scalar::Scalar;
use crate::Result;
use morpheus_parallel::{Schedule, ThreadPool};

/// Execution policy for [`spmv`]: the Rust analogue of Morpheus' execution
/// spaces (§II-C lists Serial, OpenMP, CUDA and HIP; the GPU spaces live in
/// `morpheus-machine` as simulated engines).
#[derive(Clone, Copy)]
pub enum ExecPolicy<'a> {
    /// Single-threaded execution.
    Serial,
    /// Multithreaded execution on the given pool.
    Threaded {
        /// Worker pool to run on.
        pool: &'a ThreadPool,
        /// Loop scheduling policy.
        schedule: Schedule,
    },
}

impl std::fmt::Debug for ExecPolicy<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecPolicy::Serial => f.write_str("Serial"),
            ExecPolicy::Threaded { pool, schedule } => f
                .debug_struct("Threaded")
                .field("threads", &pool.num_threads())
                .field("schedule", &schedule.name())
                .finish(),
        }
    }
}

pub(crate) fn check_shapes<V: Scalar>(m: &DynamicMatrix<V>, x: &[V], y: &[V]) -> Result<()> {
    if x.len() != m.ncols() || y.len() != m.nrows() {
        return Err(MorpheusError::ShapeMismatch {
            expected: format!("x: {}, y: {}", m.ncols(), m.nrows()),
            got: format!("x: {}, y: {}", x.len(), y.len()),
        });
    }
    Ok(())
}

/// `y = A x` under the given execution policy.
pub fn spmv<V: Scalar>(m: &DynamicMatrix<V>, x: &[V], y: &mut [V], policy: ExecPolicy<'_>) -> Result<()> {
    match policy {
        ExecPolicy::Serial => spmv_serial(m, x, y),
        ExecPolicy::Threaded { pool, schedule } => spmv_threaded(m, x, y, pool, schedule),
    }
}

/// `y = A x` on the serial backend.
pub fn spmv_serial<V: Scalar>(m: &DynamicMatrix<V>, x: &[V], y: &mut [V]) -> Result<()> {
    check_shapes(m, x, y)?;
    match m {
        DynamicMatrix::Coo(a) => serial::spmv_coo(a, x, y),
        DynamicMatrix::Csr(a) => serial::spmv_csr(a, x, y),
        DynamicMatrix::Dia(a) => serial::spmv_dia(a, x, y),
        DynamicMatrix::Ell(a) => serial::spmv_ell(a, x, y),
        DynamicMatrix::Hyb(a) => serial::spmv_hyb(a, x, y),
        DynamicMatrix::Hdc(a) => serial::spmv_hdc(a, x, y),
        DynamicMatrix::Bsr(a) => serial::spmv_bsr(a, x, y),
        DynamicMatrix::Bell(a) => serial::spmv_bell(a, x, y),
    }
    Ok(())
}

/// `y = A x` on the threaded backend.
pub fn spmv_threaded<V: Scalar>(
    m: &DynamicMatrix<V>,
    x: &[V],
    y: &mut [V],
    pool: &ThreadPool,
    schedule: Schedule,
) -> Result<()> {
    check_shapes(m, x, y)?;
    match m {
        DynamicMatrix::Coo(a) => threaded::spmv_coo(a, x, y, pool),
        DynamicMatrix::Csr(a) => threaded::spmv_csr(a, x, y, pool, schedule),
        DynamicMatrix::Dia(a) => threaded::spmv_dia(a, x, y, pool, schedule),
        DynamicMatrix::Ell(a) => threaded::spmv_ell(a, x, y, pool, schedule),
        DynamicMatrix::Hyb(a) => threaded::spmv_hyb(a, x, y, pool, schedule),
        DynamicMatrix::Hdc(a) => threaded::spmv_hdc(a, x, y, pool, schedule),
        DynamicMatrix::Bsr(a) => threaded::spmv_bsr(a, x, y, pool),
        DynamicMatrix::Bell(a) => threaded::spmv_bell(a, x, y, pool),
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
        let pool = ThreadPool::new(4);
        let _ = &pool;
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
    fn all_formats_match_dense_reference_threaded() {
        let pool = ThreadPool::new(4);
        let schedules = [Schedule::default(), Schedule::dynamic(), Schedule::guided()];
        for seed in 0..3u64 {
            let coo = random_coo::<f64>(101, 77, 900, seed + 10);
            let base = DynamicMatrix::from(coo);
            let x: Vec<f64> = (0..77).map(|i| (i as f64 * 0.11).cos()).collect();
            let expect = dense_reference(&base, &x);
            for &f in &ALL_FORMATS {
                let m = base.to_format(f, &ConvertOptions::default()).unwrap();
                for sched in schedules {
                    let mut y = vec![f64::NAN; 101];
                    spmv_threaded(&m, &x, &mut y, &pool, sched).unwrap();
                    assert_close(&y, &expect, &format!("threaded {f} {} seed {seed}", sched.name()));
                }
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

    #[test]
    fn policy_dispatch() {
        let pool = ThreadPool::new(2);
        let m = DynamicMatrix::from(random_coo::<f64>(20, 20, 80, 2));
        let x = vec![1.0; 20];
        let mut y1 = vec![0.0; 20];
        let mut y2 = vec![0.0; 20];
        spmv(&m, &x, &mut y1, ExecPolicy::Serial).unwrap();
        spmv(&m, &x, &mut y2, ExecPolicy::Threaded { pool: &pool, schedule: Schedule::default() }).unwrap();
        assert_close(&y1, &y2, "policy dispatch");
    }
}
