//! The frozen reference: a textbook serial CSR SpMV over arrays the
//! benchmark builds itself from the generator's triplets.
//!
//! It is both the correctness oracle for every output vector and the time
//! unit every timing metric is divided by, so it must never change after
//! the change that introduced it: editing this loop silently rescales
//! every recorded number.

/// CSR arrays owned by the benchmark (`usize` indices, like the program's
/// `CsrMatrix`, so the unit moves the same bytes per non-zero).
#[derive(Debug, Clone)]
pub struct RefCsr {
    pub nrows: usize,
    pub ncols: usize,
    pub row_ptr: Vec<usize>,
    pub col: Vec<usize>,
    pub val: Vec<f64>,
}

impl RefCsr {
    /// Builds from `(row, col)`-sorted, duplicate-free triplets.
    pub fn from_sorted_triplets(
        nrows: usize,
        ncols: usize,
        rows: &[usize],
        cols: &[usize],
        vals: &[f64],
    ) -> RefCsr {
        assert!(rows.len() == cols.len() && rows.len() == vals.len(), "triplet arrays disagree in length");
        let mut row_ptr = vec![0usize; nrows + 1];
        for (i, &r) in rows.iter().enumerate() {
            assert!(r < nrows && cols[i] < ncols, "triplet ({r}, {}) out of bounds", cols[i]);
            assert!(
                i == 0 || (rows[i - 1], cols[i - 1]) < (r, cols[i]),
                "triplets not strictly sorted at {i}"
            );
            row_ptr[r + 1] += 1;
        }
        for r in 0..nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        RefCsr { nrows, ncols, row_ptr, col: cols.to_vec(), val: vals.to_vec() }
    }

    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Bytes one SpMV streams, computed from array sizes (not measured):
    /// the three CSR arrays plus one read of `x` and one write of `y`.
    pub fn computed_bytes(&self) -> usize {
        8 * (self.row_ptr.len() + self.col.len() + self.val.len() + self.ncols + self.nrows)
    }
}

/// `y = A x`, one row at a time, one accumulator, no unrolling.
// The index loops are the textbook form this unit is frozen as; an iterator
// rewrite may compile differently and rescale every recorded ratio.
#[allow(clippy::needless_range_loop)]
#[inline(never)]
pub fn ref_csr_spmv(a: &RefCsr, x: &[f64], y: &mut [f64]) {
    assert!(x.len() == a.ncols && y.len() == a.nrows, "shape mismatch");
    for r in 0..a.nrows {
        let mut acc = 0.0f64;
        for k in a.row_ptr[r]..a.row_ptr[r + 1] {
            acc += a.val[k] * x[a.col[k]];
        }
        y[r] = acc;
    }
}

/// The numeric policy of every check: `|y - y_ref| <= 1e-9 * (1 + |y_ref|)`.
#[inline]
pub fn close(y: f64, y_ref: f64) -> bool {
    (y - y_ref).abs() <= 1e-9 * (1.0 + y_ref.abs())
}

/// `y` against the reference output of the same matrix with its rows
/// rotated down by `shift` (row `r` of the base is row `(r + shift) % n`),
/// scaled by `scale`. `shift = 0, scale = 1` is the plain comparison.
pub fn matches_rotated(y: &[f64], y_ref: &[f64], shift: usize, scale: f64) -> bool {
    let n = y_ref.len();
    y.len() == n && (0..n).all(|r| close(y[(r + shift) % n], scale * y_ref[r]))
}

/// Row-major `nrows x k` output against per-column references: column `j`
/// must equal `y_refs[j % y_refs.len()]` under the same rotation.
pub fn matches_columns(y: &[f64], y_refs: &[Vec<f64>], k: usize, shift: usize) -> bool {
    let n = y_refs[0].len();
    y.len() == n * k
        && (0..n).all(|r| {
            let row = (r + shift) % n;
            (0..k).all(|j| close(y[row * k + j], y_refs[j % y_refs.len()][r]))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate, ALL_KINDS};
    use morpheus::DynamicMatrix;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn reference_equals_program_serial_kernel_on_every_class() {
        for (i, &kind) in ALL_KINDS.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(11 + i as u64);
            let coo = generate(kind, 3_000, 64, &mut StdRng::seed_from_u64(i as u64), &mut rng);
            let a = RefCsr::from_sorted_triplets(
                coo.nrows(),
                coo.ncols(),
                coo.row_indices(),
                coo.col_indices(),
                coo.values(),
            );
            let x: Vec<f64> = (0..coo.ncols()).map(|c| ((c * 7 + 3) % 13) as f64 - 6.0).collect();
            let mut y = vec![f64::NAN; coo.nrows()];
            ref_csr_spmv(&a, &x, &mut y);
            let mut y_prog = vec![0.0; coo.nrows()];
            morpheus::spmv::spmv_serial(&DynamicMatrix::from(coo), &x, &mut y_prog).unwrap();
            assert!(matches_rotated(&y, &y_prog, 0, 1.0), "{kind:?} disagrees with spmv_serial");
        }
    }

    #[test]
    fn rotation_and_tolerance() {
        let y_ref = [1.0, 2.0, 3.0];
        assert!(matches_rotated(&[3.0, 1.0, 2.0], &y_ref, 1, 1.0));
        assert!(matches_rotated(&[2.0, 4.0, 6.0], &y_ref, 0, 2.0));
        assert!(!matches_rotated(&[1.0, 2.0, 3.0 + 1e-6], &y_ref, 0, 1.0));
        assert!(!matches_rotated(&[1.0, 2.0], &y_ref, 0, 1.0));
        let cols = vec![vec![1.0, 2.0], vec![10.0, 20.0]];
        assert!(matches_columns(&[1.0, 10.0, 1.0, 2.0, 20.0, 2.0], &cols, 3, 0));
        assert!(!matches_columns(&[1.0, 10.0, 1.0, 2.0, 20.0, 2.5], &cols, 3, 0));
    }
}
