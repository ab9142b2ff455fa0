//! Row-major traversal of every storage format, without conversion.
//!
//! The shared analysis pass, the machine-model's locality walk and the
//! direct conversion kernels all need to visit a matrix's structural
//! entries row by row, in ascending column order, *in whatever format is
//! currently active*. `RowMajor` provides exactly that: a per-row count
//! (for prefix-sum output planning) and a per-row sorted emission (for
//! filling target arrays or streaming statistics) — no COO materialisation,
//! no triplet buffers.
//!
//! Semantics match the historical `*_to_coo` converters: DIA-backed storage
//! elides explicit zeros (padding and stored zeros are indistinguishable
//! there), the ELL family (BELL, ELL, HYB's ELL part — all slice-major
//! buckets, walked by [`crate::bell::BellMatrix`]'s rows) keeps them (a pad
//! is told by its repeated column, not by its value).

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dia::DiaMatrix;
use crate::dynamic::DynamicMatrix;
use crate::hdc::HdcMatrix;
use crate::hyb::HybMatrix;
use crate::scalar::Scalar;

/// Row-major, column-sorted access to a sparse matrix's structural entries.
pub(crate) trait RowMajor<V: Scalar>: Sync {
    /// Number of rows.
    fn nrows(&self) -> usize;

    /// Structural entries in row `r` (cost: O(row) or better, never O(nnz)).
    fn row_count(&self, r: usize) -> usize;

    /// Calls `f(col, value)` for every structural entry of row `r`, columns
    /// strictly ascending.
    fn emit_row(&self, r: usize, f: &mut dyn FnMut(usize, V));
}

impl<V: Scalar> RowMajor<V> for CsrMatrix<V> {
    fn nrows(&self) -> usize {
        self.nrows()
    }

    fn row_count(&self, r: usize) -> usize {
        self.row_nnz(r)
    }

    fn emit_row(&self, r: usize, f: &mut dyn FnMut(usize, V)) {
        for (&c, &v) in self.row_cols(r).iter().zip(self.row_vals(r)) {
            f(c, v);
        }
    }
}

impl<V: Scalar> RowMajor<V> for CooMatrix<V> {
    fn nrows(&self) -> usize {
        self.nrows()
    }

    fn row_count(&self, r: usize) -> usize {
        let (lo, hi) = coo_row_segment(self, r);
        hi - lo
    }

    fn emit_row(&self, r: usize, f: &mut dyn FnMut(usize, V)) {
        let (lo, hi) = coo_row_segment(self, r);
        for i in lo..hi {
            f(self.col_indices()[i], self.values()[i]);
        }
    }
}

/// Entry range of row `r` in a sorted COO matrix (binary search).
fn coo_row_segment<V: Scalar>(coo: &CooMatrix<V>, r: usize) -> (usize, usize) {
    let rows = coo.row_indices();
    let lo = rows.partition_point(|&x| x < r);
    let hi = lo + rows[lo..].partition_point(|&x| x == r);
    (lo, hi)
}

impl<V: Scalar> RowMajor<V> for DiaMatrix<V> {
    fn nrows(&self) -> usize {
        self.nrows()
    }

    fn row_count(&self, r: usize) -> usize {
        let mut n = 0;
        self.emit_row(r, &mut |_, _| n += 1);
        n
    }

    fn emit_row(&self, r: usize, f: &mut dyn FnMut(usize, V)) {
        let nrows = self.nrows();
        let values = self.values();
        // Offsets ascend, so columns `r + off` ascend too.
        for (d, &off) in self.offsets().iter().enumerate() {
            if self.diag_row_range(d).contains(&r) {
                let v = values[d * nrows + r];
                if v != V::ZERO {
                    f((r as isize + off) as usize, v);
                }
            }
        }
    }
}

impl<V: Scalar> RowMajor<V> for HybMatrix<V> {
    fn nrows(&self) -> usize {
        self.nrows()
    }

    fn row_count(&self, r: usize) -> usize {
        let (lo, hi) = coo_row_segment(self.coo(), r);
        self.ell().bell().row_count(r) + (hi - lo)
    }

    fn emit_row(&self, r: usize, f: &mut dyn FnMut(usize, V)) {
        // Merge the bucket's row with the row's spill, both column-sorted;
        // coordinates are disjoint by the HYB invariant, so a plain `<`
        // comparison suffices.
        let mut ell = self.ell().bell().row_entries(r).peekable();
        let coo = self.coo();
        let (lo, hi) = coo_row_segment(coo, r);
        let mut spill =
            coo.col_indices()[lo..hi].iter().copied().zip(coo.values()[lo..hi].iter().copied()).peekable();
        while let Some((c, v)) = match (ell.peek(), spill.peek()) {
            (Some(e), Some(s)) if e.0 < s.0 => ell.next(),
            (_, Some(_)) => spill.next(),
            (_, None) => ell.next(),
        } {
            f(c, v);
        }
    }
}

impl<V: Scalar> RowMajor<V> for HdcMatrix<V> {
    fn nrows(&self) -> usize {
        self.nrows()
    }

    fn row_count(&self, r: usize) -> usize {
        RowMajor::row_count(self.dia(), r) + self.csr().row_nnz(r)
    }

    fn emit_row(&self, r: usize, f: &mut dyn FnMut(usize, V)) {
        let dia = self.dia();
        let nrows = dia.nrows();
        let dvals = dia.values();
        let offsets = dia.offsets();
        // Next structural DIA entry of this row at or after diagonal `d`.
        let peek_dia = |d: &mut usize| -> Option<usize> {
            while *d < dia.ndiags() {
                if dia.diag_row_range(*d).contains(&r) && dvals[*d * nrows + r] != V::ZERO {
                    return Some((r as isize + offsets[*d]) as usize);
                }
                *d += 1;
            }
            None
        };
        let csr = self.csr();
        let (ccols, cvals) = (csr.row_cols(r), csr.row_vals(r));
        let mut d = 0usize;
        let mut i = 0usize;
        loop {
            match (peek_dia(&mut d), ccols.get(i).copied()) {
                (Some(cd), Some(cc)) if cd < cc => {
                    f(cd, dvals[d * nrows + r]);
                    d += 1;
                }
                (Some(_), Some(_)) | (None, Some(_)) => {
                    f(ccols[i], cvals[i]);
                    i += 1;
                }
                (Some(cd), None) => {
                    f(cd, dvals[d * nrows + r]);
                    d += 1;
                }
                (None, None) => break,
            }
        }
    }
}

/// Visits every structural entry of `m` as `f(row, col, value)` in sorted
/// `(row, col)` order — the same order a COO copy would iterate in — without
/// materialising any intermediate representation.
///
/// This is the walk the machine model's gather-locality estimator uses; it
/// yields results identical to converting to COO first, at zero allocation.
pub fn for_each_entry_row_major<V: Scalar>(m: &DynamicMatrix<V>, mut f: impl FnMut(usize, usize, V)) {
    match m {
        // COO and CSR store entries row-major already: stream the arrays.
        DynamicMatrix::Coo(a) => {
            for i in 0..a.nnz() {
                f(a.row_indices()[i], a.col_indices()[i], a.values()[i]);
            }
        }
        DynamicMatrix::Csr(a) => {
            for r in 0..a.nrows() {
                a.emit_row(r, &mut |c, v| f(r, c, v));
            }
        }
        DynamicMatrix::Dia(a) => visit_rows(a, &mut f),
        DynamicMatrix::Ell(a) => visit_rows(a.bell(), &mut f),
        DynamicMatrix::Hyb(a) => visit_rows(a, &mut f),
        DynamicMatrix::Hdc(a) => visit_rows(a, &mut f),
        DynamicMatrix::Bsr(a) => visit_rows(a, &mut f),
        DynamicMatrix::Bell(a) => visit_rows(a, &mut f),
    }
}

/// The maximal runs of equal row index in a COO row array, as
/// `(row, entry range)` — the rows of a sorted COO matrix, in order, found
/// by comparing alone (no per-entry counter to store).
fn coo_row_runs(rows: &[usize]) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
    let mut i = 0usize;
    std::iter::from_fn(move || {
        let &r = rows.get(i)?;
        let start = i;
        i += rows[i..].iter().take_while(|&&x| x == r).count();
        Some((r, start..i))
    })
}

/// Calls `f(row, cols)` for every row that holds entries, in ascending row
/// order, `cols` being the row's structural column indices in ascending
/// order — the pattern alone, a row at a time, which is what lets a consumer
/// keep per-row state in registers. Sorted COO is read by runs of equal row
/// index and CSR by its offsets, both straight from their arrays; every other
/// format goes through its row-major walk into one reused buffer.
pub fn for_each_row_pattern<V: Scalar>(m: &DynamicMatrix<V>, mut f: impl FnMut(usize, &[usize])) {
    match m {
        DynamicMatrix::Coo(a) => {
            let cols = a.col_indices();
            coo_row_runs(a.row_indices()).for_each(|(r, run)| f(r, &cols[run]));
        }
        DynamicMatrix::Csr(a) => {
            for r in 0..a.nrows() {
                let cols = a.row_cols(r);
                if !cols.is_empty() {
                    f(r, cols);
                }
            }
        }
        other => {
            let src = crate::convert::as_rowmajor(other);
            let mut cols = Vec::new();
            for r in 0..src.nrows() {
                cols.clear();
                src.emit_row(r, &mut |c, _| cols.push(c));
                if !cols.is_empty() {
                    f(r, &cols);
                }
            }
        }
    }
}

fn visit_rows<V: Scalar>(a: &impl RowMajor<V>, f: &mut impl FnMut(usize, usize, V)) {
    for r in 0..a.nrows() {
        a.emit_row(r, &mut |c, v| f(r, c, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::ConvertOptions;
    use crate::format::ALL_FORMATS;
    use crate::test_util::random_coo;

    #[test]
    fn walk_matches_coo_iteration_for_every_format() {
        for seed in 0..3u64 {
            let coo = random_coo::<f64>(40, 33, 220, seed);
            let expect: Vec<(usize, usize, f64)> = coo.iter().collect();
            let base = DynamicMatrix::from(coo);
            let opts = ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() };
            for &fmt in &ALL_FORMATS {
                let m = base.to_format(fmt, &opts).unwrap();
                let mut got = Vec::new();
                for_each_entry_row_major(&m, |r, c, v| got.push((r, c, v)));
                assert_eq!(got, expect, "row-major walk for {fmt} (seed {seed})");
            }
        }
    }

    #[test]
    fn row_patterns_match_the_entry_walk() {
        // Rows 9..14 are empty: no format may visit them.
        let coo = random_coo::<f64>(40, 33, 160, 4);
        let kept: Vec<_> = coo.iter().filter(|e| !(9..14).contains(&e.0)).collect();
        let (r, c): (Vec<usize>, Vec<usize>) = kept.iter().map(|e| (e.0, e.1)).unzip();
        let v: Vec<f64> = kept.iter().map(|e| e.2).collect();
        let base = DynamicMatrix::from(CooMatrix::from_triplets(40, 33, &r, &c, &v).unwrap());
        let opts = ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() };
        for &fmt in &ALL_FORMATS {
            let m = base.to_format(fmt, &opts).unwrap();
            let mut expect = Vec::new();
            for_each_entry_row_major(&m, |r, c, _| expect.push((r, c)));
            let mut got = Vec::new();
            for_each_row_pattern(&m, |r, cols| {
                assert!(!cols.is_empty(), "{fmt}: empty row {r} visited");
                got.extend(cols.iter().map(|&c| (r, c)));
            });
            assert_eq!(got, expect, "{fmt}");
        }
    }

    #[test]
    fn row_counts_agree_with_emission() {
        let coo = random_coo::<f64>(25, 25, 120, 9);
        let base = DynamicMatrix::from(coo);
        let opts = ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() };
        for &fmt in &ALL_FORMATS {
            let m = base.to_format(fmt, &opts).unwrap();
            let check = |a: &dyn RowMajor<f64>| {
                for r in 0..a.nrows() {
                    let mut n = 0;
                    a.emit_row(r, &mut |_, _| n += 1);
                    assert_eq!(a.row_count(r), n, "{fmt} row {r}");
                }
            };
            match &m {
                DynamicMatrix::Coo(a) => check(a),
                DynamicMatrix::Csr(a) => check(a),
                DynamicMatrix::Dia(a) => check(a),
                DynamicMatrix::Ell(a) => check(a.bell()),
                DynamicMatrix::Hyb(a) => check(a),
                DynamicMatrix::Hdc(a) => check(a),
                DynamicMatrix::Bsr(a) => check(a),
                DynamicMatrix::Bell(a) => check(a),
            }
        }
    }
}
