//! The BELL fill: one bucket's cells written from the source runs of its
//! rows, in a portable and an AVX2 form.
//!
//! A build hands each pool index one share ([`fill_share`]): the slices it
//! will execute, as pieces of the buckets (see `BellMatrix::from_row_arrays`).
//! Every slice's cells depend on its own rows alone, so a piece fills as it
//! would inside the whole bucket.
//!
//! Both forms share one skeleton ([`fill`]): slice by slice, it checks that
//! every lane's run lies inside the source arrays, hands a full slice to the
//! form's body and fills the ragged last one with the portable lane loop
//! ([`fill_lanes`]) — the shape of the SpMV walker in `crate::spmv::bell`.
//! The portable body is that lane loop at eight lanes. The AVX2 bodies (for
//! buckets wider than one) fill a k-level of a full slice at a time: they
//! gather the eight lanes' column indices and values at `first + min(k,
//! last)` with 64-bit-index gathers, zero the pads' values with the lane
//! mask, narrow the columns to `u32` with one permute and keep an exact
//! running maximum of the 64-bit columns.
//! A pad's value is `+0.0` in every form (the lane loop writes `V::ZERO`,
//! the mask clears every bit), and every other cell is a copy, so the forms
//! store bitwise the same arrays and return the same largest column.

use crate::bell::SLICE;
use crate::scalar::Scalar;
use crate::spmv::cpu_features::CpuFeatures;

/// One lane of a slice: its run's first entry in the source arrays and its
/// last real `k` (the run's length less one).
type Lane = (usize, usize);

/// Consecutive slices of one bucket, as one pool index fills them: the
/// bucket's width, the slices' rows, and their cells of `cols` and `vals`.
pub(super) type Piece<'a, V> = (usize, &'a [u32], &'a mut [u32], &'a mut [V]);

/// Fills one share of a build — its pieces, in the order
/// `BellMatrix::shares` cuts the buckets — and returns the largest column
/// it stored. `#[inline(always)]`: it is the body of every pool index's job
/// and of the unsplit build alike.
#[inline(always)]
pub(super) fn fill_share<V: Scalar>(
    pieces: Vec<Piece<'_, V>>,
    run: &impl Fn(usize) -> (usize, usize),
    (cols, vals): (&[usize], &[V]),
    cpu: CpuFeatures,
) -> usize {
    let filled = pieces
        .into_iter()
        .map(|(width, rows, bcols, bvals)| fill_bucket(width, rows, run, (cols, vals), (bcols, bvals), cpu));
    filled.max().unwrap_or(0)
}

/// Fills a bucket of `width` from the runs `run(r)` = `(first entry,
/// length)` of its `rows` in `cols`/`vals`, into `bcols`/`bvals` (`width *
/// rows.len()` cells each, slice-major), and returns the largest column
/// index it stored. `cpu` picks the form: the AVX2 gathers for `f64`/`f32`
/// where it and the executing CPU have them, the portable loop otherwise
/// and for a width-1 bucket, whose slice is one level of eight scattered
/// entries: the lane loop copies those faster than four gathers do.
///
/// # Panics
/// If a run is empty or does not lie inside `cols` and `vals`, before any
/// cell of its slice is written.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(super) fn fill_bucket<V: Scalar>(
    width: usize,
    rows: &[u32],
    run: &impl Fn(usize) -> (usize, usize),
    (cols, vals): (&[usize], &[V]),
    (bcols, bvals): (&mut [u32], &mut [V]),
    cpu: CpuFeatures,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        use crate::spmv::cpu_features::{cast_slice, cast_slice_mut};
        use std::any::TypeId;
        if cpu.avx2 && width > 1 && CpuFeatures::detect().avx2 {
            if TypeId::of::<V>() == TypeId::of::<f64>() {
                let (vals, bvals) = (cast_slice(vals), cast_slice_mut(bvals));
                // SAFETY: `detect()` found AVX2 on the executing CPU.
                return unsafe { fill_f64_avx2(width, rows, run, (cols, vals), (bcols, bvals)) };
            }
            if TypeId::of::<V>() == TypeId::of::<f32>() {
                let (vals, bvals) = (cast_slice(vals), cast_slice_mut(bvals));
                // SAFETY: as for `f64`.
                return unsafe { fill_f32_avx2(width, rows, run, (cols, vals), (bcols, bvals)) };
            }
        }
    }
    let mut max_col = 0usize;
    let ragged = fill(width, rows, run, (cols, vals), (bcols, bvals), |runs, ccells, vcells| {
        max_col = max_col.max(fill_lanes(runs, (cols, vals), (ccells, vcells)));
    });
    max_col.max(ragged)
}

/// The skeleton: one slice at a time, the lanes' runs read and checked to
/// lie inside `cols` and `vals`, then `full` fills a full slice (its
/// [`SLICE`] lanes and `SLICE * width` cells) and [`fill_lanes`] the
/// ragged last one. Returns the largest column the ragged slice stored;
/// a body keeps its own.
///
/// `#[inline(always)]`: it folds into each body, so a form's slice loop is
/// one loop around its k-levels.
#[inline(always)]
fn fill<V: Scalar>(
    width: usize,
    rows: &[u32],
    run: &impl Fn(usize) -> (usize, usize),
    (cols, vals): (&[usize], &[V]),
    (bcols, bvals): (&mut [u32], &mut [V]),
    mut full: impl FnMut(&[Lane; SLICE], &mut [u32], &mut [V]),
) -> usize {
    let entries = cols.len().min(vals.len());
    let mut ragged = 0usize;
    let slices = rows.chunks(SLICE).zip(bcols.chunks_mut(SLICE * width));
    for ((lanes, ccells), vcells) in slices.zip(bvals.chunks_mut(SLICE * width)) {
        let mut runs = [(0usize, 0usize); SLICE];
        for (slot, &r) in runs.iter_mut().zip(lanes) {
            let (first, len) = run(r as usize);
            let inside = len > 0 && first.checked_add(len).is_some_and(|end| end <= entries);
            assert!(inside, "row {r}'s run of {len} entries at {first} lies outside the {entries} entries");
            *slot = (first, len - 1);
        }
        match lanes.len() {
            SLICE => full(&runs, ccells, vcells),
            n => ragged = fill_lanes(&runs[..n], (cols, vals), (ccells, vcells)),
        }
    }
    ragged
}

/// The portable body: the lanes of one slice, k-level by k-level, the
/// cells written in storage order while the lanes' runs stream side by
/// side. A pad re-reads its row's last entry for the column and stores
/// `V::ZERO`. Returns the largest column stored.
#[inline(always)]
fn fill_lanes<V: Scalar>(
    runs: &[Lane],
    (cols, vals): (&[usize], &[V]),
    (ccells, vcells): (&mut [u32], &mut [V]),
) -> usize {
    let mut max_col = 0usize;
    let levels = ccells.chunks_exact_mut(runs.len()).zip(vcells.chunks_exact_mut(runs.len()));
    for (k, (ck, vk)) in levels.enumerate() {
        for ((c, v), &(first, last)) in ck.iter_mut().zip(vk).zip(runs) {
            let i = first + k.min(last);
            max_col = max_col.max(cols[i]);
            *c = cols[i] as u32;
            *v = if k <= last { vals[i] } else { V::ZERO };
        }
    }
    max_col
}

/// The fill with `_mm256_i64gather_pd`: a k-level is two gathers of four
/// column indices and two of four values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_f64_avx2(
    width: usize,
    rows: &[u32],
    run: &impl Fn(usize) -> (usize, usize),
    (cols, vals): (&[usize], &[f64]),
    (bcols, bvals): (&mut [u32], &mut [f64]),
) -> usize {
    use std::arch::x86_64::*;
    let mut max = avx2::ColumnMax::new();
    let ragged = fill(width, rows, run, (cols, vals), (bcols, bvals), |runs, ccells, vcells| {
        let mut lanes = avx2::Lanes::new(runs);
        let levels = ccells.as_chunks_mut::<SLICE>().0.iter_mut().zip(vcells.as_chunks_mut::<SLICE>().0);
        for (ck, vk) in levels {
            // SAFETY: `fill` checked every lane's run to lie inside `cols`
            // and `vals`, and a level gathers each lane at `first + min(k,
            // last)`, inside its run; the stores write the level's eight
            // cells, `vk`.
            unsafe {
                for (h, (at, real)) in lanes.step(cols, ck, &mut max).into_iter().enumerate() {
                    let v = _mm256_i64gather_pd::<8>(vals.as_ptr(), at);
                    _mm256_storeu_pd(vk[4 * h..].as_mut_ptr(), _mm256_and_pd(v, _mm256_castsi256_pd(real)));
                }
            }
        }
    });
    max.get().max(ragged)
}

/// The fill with `_mm256_i64gather_ps`: a k-level is two gathers of four
/// column indices and two of four values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_f32_avx2(
    width: usize,
    rows: &[u32],
    run: &impl Fn(usize) -> (usize, usize),
    (cols, vals): (&[usize], &[f32]),
    (bcols, bvals): (&mut [u32], &mut [f32]),
) -> usize {
    use std::arch::x86_64::*;
    let mut max = avx2::ColumnMax::new();
    let ragged = fill(width, rows, run, (cols, vals), (bcols, bvals), |runs, ccells, vcells| {
        let mut lanes = avx2::Lanes::new(runs);
        let levels = ccells.as_chunks_mut::<SLICE>().0.iter_mut().zip(vcells.as_chunks_mut::<SLICE>().0);
        for (ck, vk) in levels {
            // SAFETY: as in `fill_f64_avx2`.
            unsafe {
                let [(at_lo, real_lo), (at_hi, real_hi)] = lanes.step(cols, ck, &mut max);
                let v_lo = _mm256_i64gather_ps::<4>(vals.as_ptr(), at_lo);
                let v_hi = _mm256_i64gather_ps::<4>(vals.as_ptr(), at_hi);
                let mask = _mm256_castsi256_ps(avx2::narrow(real_lo, real_hi));
                _mm256_storeu_ps(vk.as_mut_ptr(), _mm256_and_ps(_mm256_set_m128(v_hi, v_lo), mask));
            }
        }
    });
    max.get().max(ragged)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Lane, SLICE};
    use std::arch::x86_64::*;

    /// The eight lanes of a full slice, four to a register: where each
    /// gathers at the current k-level, and its run length.
    pub(super) struct Lanes {
        idx: [__m256i; 2],
        len: [__m256i; 2],
        k: __m256i,
    }

    impl Lanes {
        /// The lanes of `runs` before their first k-level.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(super) fn new(runs: &[Lane; SLICE]) -> Self {
            // `first - 1`: `step` advances every lane to `k = 0` first.
            let first = runs.map(|(first, _)| first as i64 - 1);
            let len = runs.map(|(_, last)| last as i64 + 1);
            let half = |a: &[i64; SLICE], h: usize| {
                _mm256_setr_epi64x(a[4 * h], a[4 * h + 1], a[4 * h + 2], a[4 * h + 3])
            };
            Lanes {
                idx: [half(&first, 0), half(&first, 1)],
                len: [half(&len, 0), half(&len, 1)],
                k: _mm256_set1_epi64x(-1),
            }
        }

        /// Advances to the next k-level — a lane moves to its next entry
        /// while it has one, a pad stays at its row's last — gathers the
        /// level's columns from `cols` into `max` and stores them narrowed
        /// into `ck`. Returns, per half (lanes `4h..4h+4`), where the level
        /// gathers and the mask of its real (not pad) lanes.
        ///
        /// # Safety
        /// Every lane's `first + min(k, last)` must index `cols`: its run
        /// lies inside `cols` and `k` is below the bucket's width.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(super) unsafe fn step(
            &mut self,
            cols: &[usize],
            ck: &mut [u32; SLICE],
            max: &mut ColumnMax,
        ) -> [(__m256i, __m256i); 2] {
            self.k = _mm256_sub_epi64(self.k, _mm256_set1_epi64x(-1));
            let mut real = [_mm256_setzero_si256(); 2];
            let mut col = [_mm256_setzero_si256(); 2];
            for h in 0..2 {
                // All ones while `k < len`: subtracting it steps the index.
                real[h] = _mm256_cmpgt_epi64(self.len[h], self.k);
                self.idx[h] = _mm256_sub_epi64(self.idx[h], real[h]);
                col[h] = _mm256_i64gather_epi64::<8>(cols.as_ptr().cast(), self.idx[h]);
                max.add(h, col[h]);
            }
            _mm256_storeu_si256(ck.as_mut_ptr().cast(), narrow(col[0], col[1]));
            [(self.idx[0], real[0]), (self.idx[1], real[1])]
        }
    }

    /// The running maximum of the 64-bit columns gathered, per lane, with
    /// the sign bit flipped: AVX2 compares 64-bit lanes signed only, and
    /// flipped, the signed order is the unsigned one.
    pub(super) struct ColumnMax([__m256i; 2]);

    const SIGN: i64 = i64::MIN;

    impl ColumnMax {
        /// Nothing gathered yet: the flipped 0 in every lane.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(super) fn new() -> Self {
            ColumnMax([_mm256_set1_epi64x(SIGN); 2])
        }

        #[target_feature(enable = "avx2")]
        #[inline]
        fn add(&mut self, h: usize, col: __m256i) {
            let flipped = _mm256_xor_si256(col, _mm256_set1_epi64x(SIGN));
            let above = _mm256_cmpgt_epi64(flipped, self.0[h]);
            self.0[h] = _mm256_blendv_epi8(self.0[h], flipped, above);
        }

        /// The largest column gathered, exactly (0 when none was).
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(super) fn get(&self) -> usize {
            let lanes = self.0.map(|m| {
                [
                    _mm256_extract_epi64::<0>(m),
                    _mm256_extract_epi64::<1>(m),
                    _mm256_extract_epi64::<2>(m),
                    _mm256_extract_epi64::<3>(m),
                ]
            });
            lanes.as_flattened().iter().fold(0, |max, &flipped| max.max((flipped ^ SIGN) as u64 as usize))
        }
    }

    /// The low 32 bits of the eight 64-bit lanes of `lo` and `hi`, in lane
    /// order: one shuffle takes them, one permute orders them.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) fn narrow(lo: __m256i, hi: __m256i) -> __m256i {
        let (lo, hi) = (_mm256_castsi256_ps(lo), _mm256_castsi256_ps(hi));
        // [lo0 lo1 hi0 hi1 | lo2 lo3 hi2 hi3], then the 64-bit pairs reordered.
        let pairs = _mm256_castps_si256(_mm256_shuffle_ps::<0b10_00_10_00>(lo, hi));
        _mm256_permute4x64_epi64::<0b11_01_10_00>(pairs)
    }
}
