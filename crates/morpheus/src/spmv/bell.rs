//! The BELL SpMV body: one walker over slice-major buckets, in a portable
//! and an AVX2 form.
//!
//! Everything that executes a BELL SpMV — `spmv_serial`, planned shares
//! and (through their plans) partitioned shards — runs [`bell_segment`]
//! over runs of a bucket's slices, and so does every ELL and HYB SpMV: their ELL part is a BELL of one bucket. A full
//! slice is eight rows stored k-major ([`crate::bell`]), so the walker keeps
//! eight independent sums in flight and each k-level is one contiguous load
//! of eight column indices and eight values: no per-row loop exit to
//! mispredict, no single add chain, and — pads hold a zero value and the
//! row's own last column — no pad test. Products are rounded before they are
//! added (never fused) and each row sums in `k` order from zero, which is
//! the CSR body's order, so both forms are bitwise identical to it and to
//! each other on finite inputs.

use crate::bell::{BellBucket, BellMatrix, BellSegment, BellSlice, SLICE};
use crate::scalar::Scalar;
use crate::spmv::cpu_features::CpuFeatures;
use morpheus_parallel::SharedSlice;
use std::ops::Range;

/// Computes the rows of `seg` — a run of slices of one bucket of `a` — and
/// writes them to `out`. `cpu` picks the form: the
/// AVX2 gathers for `f64`/`f32` where it has them, the portable loop
/// otherwise.
///
/// # Panics
/// If `x`/`out` are not `a.ncols()`/`a.nrows()` long, or `seg` does not lie
/// inside `a`'s buckets.
///
/// # Safety
/// No concurrent caller may be handed a segment sharing a slice with `seg`
/// (the rows of distinct slices are disjoint), and `cpu` must not claim a
/// feature the executing CPU lacks.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) unsafe fn bell_segment<V: Scalar>(
    a: &BellMatrix<V>,
    x: &[V],
    out: &SharedSlice<V>,
    seg: &BellSegment,
    cpu: CpuFeatures,
) {
    // SAFETY of every unchecked access in this module. Loads and gathers of
    // `x` are at a span's `cols`, i.e. stored column indices of `a`, each
    // `< a.ncols()` by invariant 3 of `crate::bell`. Both `BellMatrix`
    // constructors establish that invariant over private fields nothing
    // mutates, and `x.len() == a.ncols()` is asserted here, before any body
    // runs. All other accesses are checked: slice operations, `chunks`, and
    // the stores through `SharedSlice`.
    assert!(
        x.len() == a.ncols() && out.len() == a.nrows(),
        "BELL SpMV of a {}x{} matrix on x of {} and y of {}",
        a.nrows(),
        a.ncols(),
        x.len(),
        out.len()
    );
    let bucket = &a.buckets()[seg.bucket];
    #[cfg(target_arch = "x86_64")]
    {
        use crate::spmv::cpu_features::cast_slice;
        use std::any::TypeId;
        // The gathers sign-extend their 32-bit indices.
        if cpu.avx2 && x.len() <= i32::MAX as usize + 1 {
            if TypeId::of::<V>() == TypeId::of::<f64>() {
                // SAFETY: `V` is `f64`, so the casts are identities.
                return walk_f64_avx2(same(bucket), cast_slice(x), same(out), seg.slices.clone());
            }
            if TypeId::of::<V>() == TypeId::of::<f32>() {
                // SAFETY: `V` is `f32`, so the casts are identities.
                return walk_f32_avx2(same(bucket), cast_slice(x), same(out), seg.slices.clone());
            }
        }
    }
    walk_portable(bucket, x, out, seg.slices.clone())
}

/// `&T` as `&U`.
///
/// # Safety
/// `T` and `U` must be the same type.
#[cfg(target_arch = "x86_64")]
unsafe fn same<T, U>(t: &T) -> &U {
    &*std::ptr::from_ref(t).cast::<U>()
}

/// Hands one slice's sums to its rows.
///
/// # Safety
/// As [`bell_segment`]: `rows` are a span's, and the caller owns them.
#[inline(always)]
unsafe fn store<V: Scalar>(out: &SharedSlice<V>, rows: &[u32], sums: &[V]) {
    for (&r, &sum) in rows.iter().zip(sums) {
        out.set(r as usize, sum);
    }
}

/// The sums of one slice of `L` lanes in portable form: `L` sums in flight,
/// each k-level `L` adjacent column indices and values.
///
/// # Safety
/// As [`bell_segment`].
#[inline(always)]
unsafe fn lanes<V: Scalar, const L: usize>(slice: &BellSlice<'_, V>, x: &[V]) -> [V; L] {
    let mut sums = [V::ZERO; L];
    for (c, v) in slice.levels::<L>() {
        for l in 0..L {
            // SAFETY: a stored column index, in bounds as `bell_segment` argues.
            sums[l] += v[l] * *x.get_unchecked(c[l] as usize);
        }
    }
    sums
}

/// The walker: `full` sums each full slice of `slices`; the bucket's ragged
/// last slice runs the portable form at its own lane count (a tail bucket of
/// a few very long rows is all ragged slice, so this is no cold path there;
/// one add chain per row is all the order of summation allows).
///
/// # Safety
/// As [`bell_segment`].
#[inline(always)]
unsafe fn walk<V: Scalar>(
    bucket: &BellBucket<V>,
    x: &[V],
    out: &SharedSlice<V>,
    slices: Range<usize>,
    full: impl Fn(&BellSlice<'_, V>) -> [V; SLICE],
) {
    let span = bucket.span(slices);
    for slice in span.full_slices() {
        store(out, slice.rows, &full(&slice));
    }
    if let Some(slice) = span.ragged() {
        macro_rules! ragged {
            ($($l:literal),+) => {
                match slice.rows.len() {
                    $($l => store(out, slice.rows, &lanes::<V, $l>(&slice, x)),)+
                    n => unreachable!("a ragged slice of {n} rows"),
                }
            };
        }
        ragged!(1, 2, 3, 4, 5, 6, 7);
    }
}

/// The walker in portable form.
///
/// # Safety
/// As [`bell_segment`].
unsafe fn walk_portable<V: Scalar>(
    bucket: &BellBucket<V>,
    x: &[V],
    out: &SharedSlice<V>,
    slices: Range<usize>,
) {
    walk(bucket, x, out, slices, |slice| lanes::<V, SLICE>(slice, x))
}

/// The walker with `_mm256_i32gather_pd`: a k-level is two gathers of four
/// `x` elements, two value loads, two multiplies and two adds.
///
/// # Safety
/// As [`bell_segment`]; AVX2 must be available and `x.len() <= 2^31`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn walk_f64_avx2(bucket: &BellBucket<f64>, x: &[f64], out: &SharedSlice<f64>, slices: Range<usize>) {
    use std::arch::x86_64::*;
    walk(bucket, x, out, slices, |slice| {
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        for (c, v) in slice.levels::<SLICE>() {
            // SAFETY: `c` and `v` are eight elements each, and the gathers
            // index `x` by stored column indices (see `bell_segment`).
            let x_lo = _mm256_i32gather_pd::<8>(x.as_ptr(), _mm_loadu_si128(c.as_ptr().cast()));
            let x_hi = _mm256_i32gather_pd::<8>(x.as_ptr(), _mm_loadu_si128(c[4..].as_ptr().cast()));
            lo = _mm256_add_pd(lo, _mm256_mul_pd(_mm256_loadu_pd(v.as_ptr()), x_lo));
            hi = _mm256_add_pd(hi, _mm256_mul_pd(_mm256_loadu_pd(v[4..].as_ptr()), x_hi));
        }
        let mut sums = [0.0f64; SLICE];
        _mm256_storeu_pd(sums.as_mut_ptr(), lo);
        _mm256_storeu_pd(sums[4..].as_mut_ptr(), hi);
        sums
    })
}

/// The walker with `_mm256_i32gather_ps`: a k-level is one gather of eight.
///
/// # Safety
/// As [`walk_f64_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn walk_f32_avx2(bucket: &BellBucket<f32>, x: &[f32], out: &SharedSlice<f32>, slices: Range<usize>) {
    use std::arch::x86_64::*;
    walk(bucket, x, out, slices, |slice| {
        let mut acc = _mm256_setzero_ps();
        for (c, v) in slice.levels::<SLICE>() {
            // SAFETY: as in `walk_f64_avx2`.
            let xs = _mm256_i32gather_ps::<4>(x.as_ptr(), _mm256_loadu_si256(c.as_ptr().cast()));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(v.as_ptr()), xs));
        }
        let mut sums = [0.0f32; SLICE];
        _mm256_storeu_ps(sums.as_mut_ptr(), acc);
        sums
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{coo_to_bell, coo_to_csr, coo_to_ell, coo_to_hyb, ConvertOptions};
    use crate::coo::CooMatrix;
    use crate::dynamic::DynamicMatrix;
    use crate::hyb::HybSplit;
    use crate::params::FormatParams;
    use crate::plan::ExecPlan;
    use crate::rowmajor::RowMajor;
    use crate::spmm::spmm_serial;
    use crate::spmv::spmv_serial;
    use morpheus_parallel::ThreadPool;

    /// `row_len(r)` entries in row `r`, columns spread over `ncols` but never
    /// column 0, values of mixed sign.
    fn matrix<V: Scalar>(nrows: usize, ncols: usize, row_len: impl Fn(usize) -> usize) -> CooMatrix<V> {
        let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..nrows {
            let n = row_len(r);
            assert!(n < ncols);
            let mut picked: Vec<usize> = (0..n).map(|j| 1 + (r * 7 + j * 5) % (ncols - 1)).collect();
            picked.sort_unstable();
            picked.dedup();
            for (j, c) in picked.into_iter().enumerate() {
                rows.push(r);
                cols.push(c);
                vals.push(V::from_f64(((r * 31 + j * 17) % 23) as f64 * 0.375 - 4.0));
            }
        }
        CooMatrix::from_triplets(nrows, ncols, &rows, &cols, &vals).unwrap()
    }

    fn bits<V: Scalar>(y: &[V]) -> Vec<u64> {
        y.iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// The walker over every bucket with the form `cpu` selects, into a
    /// poisoned `y`.
    fn walk<V: Scalar>(a: &crate::BellMatrix<V>, x: &[V], cpu: CpuFeatures) -> Vec<V> {
        let mut y = vec![V::from_f64(f64::NAN); RowMajor::nrows(a)];
        for run in a.empty_rows_in(0..a.nrows()) {
            y[run].fill(V::ZERO);
        }
        let out = SharedSlice::new(&mut y);
        for (i, bucket) in a.buckets().iter().enumerate() {
            let seg = BellSegment { bucket: i, slices: 0..bucket.num_slices() };
            // SAFETY: one thread; `cpu` is `none()` or what was detected.
            unsafe { bell_segment(a, x, &out, &seg, cpu) };
        }
        y
    }

    /// `spmv_serial` of `coo`'s CSR form: the independent reference.
    fn csr_spmv<V: Scalar>(csr: &DynamicMatrix<V>, x: &[V]) -> Vec<V> {
        let mut y = vec![V::from_f64(f64::NAN); csr.nrows()];
        spmv_serial(csr, x, &mut y).unwrap();
        y
    }

    /// Everything that executes BELL agrees bit for bit with the CSR body
    /// on `coo` under `ladder` — observed through `y` only, so the
    /// check survives a change of layout — and so does everything that
    /// executes ELL and HYB.
    fn check<V: Scalar>(what: &str, coo: &CooMatrix<V>, ladder: &[usize], x: &[V]) {
        let opts = ConvertOptions {
            params: FormatParams::default().with_bell_ladder(ladder),
            min_padded_allowance: 1 << 24,
            ..Default::default()
        };
        let bell = coo_to_bell(coo, &opts).unwrap();
        let what = format!("{what}, ladder {ladder:?}, widths {:?}", bell.bucket_widths());
        // The layout holds the matrix.
        let mut walked = Vec::new();
        for r in 0..coo.nrows() {
            bell.emit_row(r, &mut |c, v| walked.push((r, c, v)));
        }
        assert!(walked.iter().copied().eq(coo.iter()), "{what}: row-major walk");

        let csr = DynamicMatrix::Csr(coo_to_csr(coo));
        let want = bits(&csr_spmv(&csr, x));
        assert_eq!(bits(&walk(&bell, x, CpuFeatures::none())), want, "{what}: portable body");
        if CpuFeatures::detect().avx2 {
            assert_eq!(bits(&walk(&bell, x, CpuFeatures::detect())), want, "{what}: AVX2 body");
        } else {
            println!("{what}: AVX2 not detected, AVX2 body not run");
        }
        executions(&what, &DynamicMatrix::Bell(bell), x, &want, &csr);

        // ELL and HYB are one-bucket BELL: the same walker, the same bits,
        // whatever the split leaves in the spill.
        executions(
            &format!("{what}, ELL"),
            &DynamicMatrix::Ell(coo_to_ell(coo, &opts).unwrap()),
            x,
            &want,
            &csr,
        );
        let longest = (0..coo.nrows()).map(|r| coo.row_count(r)).max().unwrap_or(0);
        for hyb_split in [HybSplit::Auto, HybSplit::Width(1), HybSplit::Width(longest + 3)] {
            let hyb = coo_to_hyb(coo, &ConvertOptions { hyb_split, ..opts }).unwrap();
            executions(&format!("{what}, HYB {hyb_split:?}"), &DynamicMatrix::Hyb(hyb), x, &want, &csr);
        }
    }

    /// `m` — which holds the matrix of `csr` — executed every way, serial,
    /// planned and as SpMM: each bitwise the CSR reference (`want`).
    fn executions<V: Scalar>(
        what: &str,
        m: &DynamicMatrix<V>,
        x: &[V],
        want: &[u64],
        csr: &DynamicMatrix<V>,
    ) {
        let nrows = m.nrows();
        assert_eq!(m.to_coo(), csr.to_coo(), "{what}: row-major walk");
        let mut y = vec![V::from_f64(f64::NAN); nrows];
        spmv_serial(m, x, &mut y).unwrap();
        assert_eq!(bits(&y), want, "{what}: serial");
        for workers in 1..=4usize {
            let pool = ThreadPool::new(workers);
            let plan = ExecPlan::build(m, workers, None);
            let mut y = vec![V::from_f64(f64::NAN); nrows];
            plan.spmv(m, x, &mut y, &pool).unwrap();
            assert_eq!(bits(&y), want, "{what}: planned x{workers}");
            let mut y = vec![V::from_f64(f64::NAN); nrows];
            plan.spmv_unpooled(m, x, &mut y).unwrap();
            assert_eq!(bits(&y), want, "{what}: planned inline x{workers}");
        }
        // Column `j` of an SpMM is the CSR reference SpMV of column `j`.
        for k in [1usize, 2, 3, 8, 15, 16, 17] {
            let columns: Vec<Vec<V>> =
                (0..k).map(|j| x.iter().map(|&v| v * V::from_f64(1.0 + j as f64)).collect()).collect();
            let block: Vec<V> = (0..x.len() * k).map(|i| columns[i % k][i / k]).collect();
            let mut yk = vec![V::from_f64(f64::NAN); nrows * k];
            spmm_serial(m, &block, &mut yk, k).unwrap();
            for (j, column) in columns.iter().enumerate() {
                let got: Vec<V> = (0..nrows).map(|r| yk[r * k + j]).collect();
                assert_eq!(bits(&got), bits(&csr_spmv(csr, column)), "{what}: SpMM k={k} column {j}");
            }
        }
    }

    /// Finite `x` with negative zeros in it.
    fn x_of<V: Scalar>(ncols: usize) -> Vec<V> {
        (0..ncols)
            .map(|i| V::from_f64(if i % 5 == 2 { -0.0 } else { (i as f64 * 0.37).sin() * 3.0 }))
            .collect()
    }

    fn differential<V: Scalar>() {
        let ncols = 97usize;
        let x = x_of::<V>(ncols);
        // One bucket of 1..=17 rows: no, one and two full slices and every
        // ragged length; rows shorter than the bucket are padded.
        for n in 1..=17usize {
            check("one bucket", &matrix::<V>(n, ncols, |r| 3 + r % 2), &[4], &x);
            check("width one", &matrix::<V>(n, ncols, |_| 1), &[], &x);
        }
        // Empty rows at both ends and in runs.
        let gaps = |r: usize| {
            if !(4..=40).contains(&r) || (10..19).contains(&r) || r.is_multiple_of(7) {
                0
            } else {
                1 + r % 6
            }
        };
        check("empty rows", &matrix::<V>(47, ncols, gaps), &[], &x);
        check("all rows empty", &matrix::<V>(9, ncols, |_| 0), &[], &x);
        // A single over-wide row among short ones.
        let hub = |r: usize| if r == 13 { 80 } else { 2 };
        check("one over-wide row", &matrix::<V>(31, ncols, hub), &[], &x);
        // Seven buckets on the default ladder, and custom ladders.
        let seven = |r: usize| [1, 2, 3, 5, 9, 17, 33][r % 7];
        for ladder in [&[][..], &[1], &[1000], &[2, 6], &[3, 9, 27, 81], &[6, 2, 2, 0]] {
            check("seven populations", &matrix::<V>(75, ncols, seven), ladder, &x);
        }
    }

    #[test]
    fn every_bell_execution_is_bitwise_the_serial_csr_kernel_f64() {
        differential::<f64>();
    }

    #[test]
    fn every_bell_execution_is_bitwise_the_serial_csr_kernel_f32() {
        differential::<f32>();
    }

    fn padding_reads_only_owned_columns<V: Scalar>() {
        let ncols = 64usize;
        // Rows of 1..=5 entries in width-8 and width-2 buckets — most rows
        // are padded — and no row touches column 0.
        let coo = matrix::<V>(37, ncols, |r| 1 + r % 5);
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut x = x_of::<V>(ncols);
            x[0] = V::from_f64(poison);
            for ladder in [&[2usize, 8][..], &[]] {
                check("poisoned x[0]", &coo, ladder, &x);
            }
            let y = csr_spmv(&DynamicMatrix::Csr(coo_to_csr(&coo)), &x);
            assert!(y.iter().all(|v| v.is_finite()), "CSR itself never reads x[0]");
        }
    }

    /// The pre-slice kernels redirected pad slots to column 0 and added
    /// `0 * x[0]`: a non-finite `x[0]` turned padded rows into NaN.
    #[test]
    fn bell_padding_reads_only_columns_the_row_owns() {
        padding_reads_only_owned_columns::<f64>();
        padding_reads_only_owned_columns::<f32>();
    }

    #[test]
    #[should_panic(expected = "BELL SpMV of a 5x9 matrix")]
    fn the_walker_refuses_vectors_of_another_shape() {
        let bell = coo_to_bell(&matrix::<f64>(5, 9, |_| 2), &ConvertOptions::default()).unwrap();
        walk(&bell, &[1.0; 8], CpuFeatures::detect());
    }
}
