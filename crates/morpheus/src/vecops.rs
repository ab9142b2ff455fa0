//! Dense vector kernels for iterative solvers.
//!
//! SpMV never lives alone: the CG/GMRES-style solvers the paper motivates
//! (§I, §VII-E) interleave it with AXPYs, dot products and norms. These are
//! provided on both backends so a whole solver iteration can run threaded.
//! Threaded reductions fold partials in worker order, keeping results
//! deterministic run-to-run for a fixed thread count.

use crate::scalar::Scalar;
use morpheus_parallel::{static_partition, SharedSlice, ThreadPool};

/// `y += alpha * x` (serial).
pub fn axpy<V: Scalar>(alpha: V, x: &[V], y: &mut [V]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = x + beta * y` (serial) — the CG search-direction update.
pub fn xpby<V: Scalar>(x: &[V], beta: V, y: &mut [V]) {
    assert_eq!(x.len(), y.len(), "xpby length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

/// Dot product (serial).
pub fn dot<V: Scalar>(x: &[V], y: &[V]) -> V {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut acc = V::ZERO;
    for (&a, &b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

/// Euclidean norm (serial).
pub fn norm2<V: Scalar>(x: &[V]) -> V {
    dot(x, x).sqrt()
}

/// `x *= alpha` (serial).
pub fn scale<V: Scalar>(alpha: V, x: &mut [V]) {
    for xi in x.iter_mut() {
        *xi = *xi * alpha;
    }
}

/// Runs `body(x_part, y_part)` on the matching sub-slices that
/// `static_partition` gives each pool index, in one dispatch.
fn zip_static_parts<V: Scalar>(
    x: &[V],
    y: &mut [V],
    pool: &ThreadPool,
    body: impl Fn(&[V], &mut [V]) + Sync,
) {
    let parts = static_partition(y.len(), pool.num_threads());
    let out = SharedSlice::new(y);
    pool.run_on_all(&|w| {
        if let Some(r) = parts.get(w) {
            // SAFETY: static ranges are disjoint, one per pool index.
            body(&x[r.clone()], unsafe { out.slice_mut(r.start, r.len()) });
        }
    });
}

/// `y += alpha * x` (threaded).
pub fn axpy_threaded<V: Scalar>(alpha: V, x: &[V], y: &mut [V], pool: &ThreadPool) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    zip_static_parts(x, y, pool, |xs, ys| axpy(alpha, xs, ys));
}

/// `y = x + beta * y` (threaded).
pub fn xpby_threaded<V: Scalar>(x: &[V], beta: V, y: &mut [V], pool: &ThreadPool) {
    assert_eq!(x.len(), y.len(), "xpby length mismatch");
    zip_static_parts(x, y, pool, |xs, ys| xpby(xs, beta, ys));
}

/// Dot product (threaded); deterministic for a fixed thread count: one
/// partial per pool index, folded in index order.
pub fn dot_threaded<V: Scalar>(x: &[V], y: &[V], pool: &ThreadPool) -> V {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut partials = vec![V::ZERO; pool.num_threads()];
    let parts = static_partition(x.len(), pool.num_threads());
    let out = SharedSlice::new(&mut partials);
    pool.run_on_all(&|w| {
        if let Some(r) = parts.get(w) {
            // SAFETY: index `w` is the only writer of slot `w`.
            unsafe { out.set(w, dot(&x[r.clone()], &y[r.clone()])) };
        }
    });
    partials[..parts.len()].iter().fold(V::ZERO, |a, &b| a + b)
}

/// Euclidean norm (threaded).
pub fn norm2_threaded<V: Scalar>(x: &[V], pool: &ThreadPool) -> V {
    dot_threaded(x, x, pool).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ThreadPool {
        ThreadPool::new(3)
    }

    #[test]
    fn axpy_basic() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
    }

    #[test]
    fn xpby_basic() {
        let x = vec![1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        xpby(&x, 0.5, &mut y);
        assert_eq!(y, vec![6.0, 12.0]);
    }

    #[test]
    fn dot_and_norm() {
        let x = vec![3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
    }

    #[test]
    fn scale_basic() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn threaded_matches_serial() {
        let p = pool();
        let n = 10_001usize;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut ys = vec![1.0; n];
        let mut yt = ys.clone();
        axpy(0.5, &x, &mut ys);
        axpy_threaded(0.5, &x, &mut yt, &p);
        assert_eq!(ys, yt);

        let mut ys2 = x.clone();
        let mut yt2 = x.clone();
        xpby(&x, -0.25, &mut ys2);
        xpby_threaded(&x, -0.25, &mut yt2, &p);
        assert_eq!(ys2, yt2);

        let ds = dot(&x, &ys);
        let dt = dot_threaded(&x, &yt, &p);
        assert!((ds - dt).abs() < 1e-9 * (1.0 + ds.abs()));
    }

    #[test]
    fn threaded_reduction_is_deterministic() {
        let p = pool();
        let x: Vec<f64> = (0..5000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let a = dot_threaded(&x, &x, &p);
        let b = dot_threaded(&x, &x, &p);
        assert_eq!(a, b, "same pool, same result bit-for-bit");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        axpy(1.0, &[1.0, 2.0], &mut [0.0]);
    }

    #[test]
    fn empty_vectors() {
        let p = pool();
        let x: Vec<f64> = vec![];
        let mut y: Vec<f64> = vec![];
        axpy(1.0, &x, &mut y);
        assert_eq!(dot_threaded(&x, &x, &p), 0.0);
    }
}
