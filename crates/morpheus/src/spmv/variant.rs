//! Bottleneck-aware kernel variants: the optimization axis under the
//! format axis.
//!
//! The Oracle picks a storage *format*; Elafrou et al. ("A lightweight
//! optimization selection method for SpMV") show the next win is picking
//! the *optimization*: classify what actually limits a matrix's SpMV —
//! memory **bandwidth**, memory **latency** (scattered `x` gathers), or
//! thread **imbalance** — and dispatch a kernel body specialised for that
//! bottleneck. This module defines the taxonomy shared by every layer:
//!
//! * [`KernelVariant`] — which per-range loop body runs. Every format has
//!   the scalar reference body; CSR additionally has an unrolled/SIMD
//!   accumulation body ([`KernelVariant::Unrolled`]) and a
//!   software-prefetch body ([`KernelVariant::Prefetch`]); the padded
//!   formats (DIA/ELL, and their composite portions) have a row-blocked
//!   body ([`KernelVariant::Blocked`]).
//! * [`Bottleneck`] — the per-matrix label derived from the Table-I
//!   features ([`crate::Analysis::bottleneck`]), which drives per-range
//!   variant selection in [`crate::ExecPlan`].
//! * [`CpuFeatures`] — runtime ISA detection
//!   (`std::is_x86_feature_detected!`) with a stable fingerprint, so a
//!   plan records the features its bodies were dispatched under and is
//!   never replayed under a different set.
//!
//! The SIMD bodies are *runtime dispatched*: [`dot_row_unrolled`] checks
//! the cached [`CpuFeatures`] and the scalar type once per row range and
//! uses AVX2+FMA intrinsics where available, falling back to a portable
//! four-accumulator `mul_add` unroll on every other arch. Both change the
//! per-row accumulation order (that is where the speed comes from), so
//! `Unrolled` results are *not* bitwise identical to the scalar reference
//! — they are within a small ULP bound (property-tested in
//! `tests/kernel_variants.rs`). `Prefetch` and `Blocked` preserve the
//! reference accumulation order exactly and remain bitwise identical.

use crate::format::FormatId;
use crate::scalar::Scalar;
use std::any::TypeId;
use std::fmt;
use std::sync::OnceLock;

/// Bump when the variant taxonomy or the selection rules change: it is
/// part of [`CpuFeatures::fingerprint`], so a plan stored under one
/// selection policy is never replayed under another.
pub const TAXONOMY_VERSION: u64 = 1;

/// Which specialised loop body a row (or entry) range runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum KernelVariant {
    /// The reference body — the exact per-row accumulation order of the
    /// serial kernels. Always applicable.
    #[default]
    Scalar,
    /// Multi-accumulator CSR row reduction: AVX2+FMA lanes where the CPU
    /// has them (runtime-detected), a portable four-accumulator `mul_add`
    /// unroll otherwise. Changes accumulation order (ULP-bounded, not
    /// bitwise). For bandwidth/compute-limited matrices with enough
    /// non-zeros per row to fill the accumulators.
    Unrolled,
    /// The scalar CSR body plus software prefetch of the `x` gathers a
    /// fixed distance ahead — hides DRAM latency on scattered column
    /// patterns. Same accumulation order as the reference (bitwise).
    Prefetch,
    /// Row-blocked DIA/ELL traversal: the diagonal/slab sweep runs over
    /// blocks of rows so the output block and its `x` window stay
    /// cache-resident across all diagonals. Per-row accumulation order is
    /// unchanged (bitwise).
    Blocked,
}

/// All variants, in [`KernelVariant::index`] order.
pub const ALL_VARIANTS: [KernelVariant; 4] =
    [KernelVariant::Scalar, KernelVariant::Unrolled, KernelVariant::Prefetch, KernelVariant::Blocked];

impl KernelVariant {
    /// Number of variants (the size of [`ALL_VARIANTS`]).
    pub const COUNT: usize = 4;

    /// Stable small index (used by telemetry packing and fingerprints).
    pub fn index(self) -> usize {
        match self {
            KernelVariant::Scalar => 0,
            KernelVariant::Unrolled => 1,
            KernelVariant::Prefetch => 2,
            KernelVariant::Blocked => 3,
        }
    }

    /// Inverse of [`KernelVariant::index`].
    pub fn from_index(i: usize) -> Option<KernelVariant> {
        ALL_VARIANTS.get(i).copied()
    }

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Unrolled => "unrolled",
            KernelVariant::Prefetch => "prefetch",
            KernelVariant::Blocked => "blocked",
        }
    }

    /// `true` when the body performs the reference per-row accumulation
    /// order, making its results bitwise identical to the serial kernels
    /// (for finite inputs: see [`crate::ExecPlan::preserves_order`] for the
    /// stated policy on padding and non-finite `x`).
    pub fn preserves_order(self) -> bool {
        !matches!(self, KernelVariant::Unrolled)
    }

    /// `true` when this variant has a specialised body for `format`'s
    /// per-range loops (composites report the union of their portions).
    pub fn applies_to(self, format: FormatId) -> bool {
        match self {
            KernelVariant::Scalar => true,
            KernelVariant::Unrolled | KernelVariant::Prefetch => {
                matches!(format, FormatId::Csr | FormatId::Hdc)
            }
            KernelVariant::Blocked => {
                matches!(
                    format,
                    FormatId::Dia | FormatId::Ell | FormatId::Hyb | FormatId::Hdc | FormatId::Bsr
                )
            }
        }
    }

    /// The variants worth benchmarking for `format`: [`ALL_VARIANTS`]
    /// filtered by [`KernelVariant::applies_to`].
    pub fn applicable(format: FormatId) -> Vec<KernelVariant> {
        ALL_VARIANTS.iter().copied().filter(|v| v.applies_to(format)).collect()
    }
}

impl fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What limits a matrix's SpMV throughput — the label that drives variant
/// selection (taxonomy of Elafrou et al.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bottleneck {
    /// Streaming the matrix arrays saturates memory bandwidth: regular
    /// access, balanced rows. The unrolled body helps where rows are long
    /// enough to fill its accumulators.
    Bandwidth,
    /// Scattered `x` gathers stall on memory latency: many populated
    /// diagonals (near-random column patterns) with little `x` reuse.
    /// Software prefetch hides part of the miss latency.
    Latency,
    /// A skewed row-length distribution makes a few hub rows dominate
    /// wall time. The nnz-weighted partition absorbs the skew; hub-heavy
    /// ranges still profit from the unrolled body.
    Imbalance,
}

impl Bottleneck {
    /// Classifies from the Table-I features. Shared by
    /// [`crate::Analysis::bottleneck`] and the serving layer's
    /// `FeatureVector`, so the two derivations cannot disagree.
    ///
    /// Rules, checked in order:
    /// 1. **Imbalance** — the longest row is ≥ 8× the mean and the row
    ///    std-dev exceeds 2× the mean: a handful of hub rows carry the
    ///    matrix.
    /// 2. **Latency** — a large fraction (> 25%) of all possible
    ///    diagonals is populated (a near-random column pattern) while
    ///    each `x` element is reused fewer than 16 times: the gathers
    ///    miss cache and dominate.
    /// 3. **Bandwidth** — everything else (banded, stenciled or dense-ish
    ///    structure streams predictably).
    pub fn classify(
        nrows: usize,
        ncols: usize,
        nnz: usize,
        row_mean: f64,
        row_max: usize,
        row_std: f64,
        ndiags: usize,
    ) -> Bottleneck {
        if nnz == 0 {
            return Bottleneck::Bandwidth;
        }
        let mean = row_mean.max(1e-9);
        if row_max as f64 >= 8.0 * mean.max(1.0) && row_std > 2.0 * mean {
            return Bottleneck::Imbalance;
        }
        let slots = (nrows + ncols).saturating_sub(1).max(1);
        let scatter = ndiags as f64 / slots as f64;
        let x_reuse = nnz as f64 / ncols.max(1) as f64;
        if scatter > 0.25 && x_reuse < 16.0 {
            return Bottleneck::Latency;
        }
        Bottleneck::Bandwidth
    }

    /// Stable small index (used by bench snapshots).
    pub fn index(self) -> usize {
        match self {
            Bottleneck::Bandwidth => 0,
            Bottleneck::Latency => 1,
            Bottleneck::Imbalance => 2,
        }
    }

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            Bottleneck::Bandwidth => "bandwidth",
            Bottleneck::Latency => "latency",
            Bottleneck::Imbalance => "imbalance",
        }
    }
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// Selection rules (shared by ExecPlan and the per-call composite kernels)
// ---------------------------------------------------------------------------

/// Minimum mean non-zeros per row in a range before the unrolled body is
/// worth its per-row reduce overhead. Measured on AVX2+FMA hardware: below
/// ~32 the multi-accumulator setup/remainder costs more than the compiler's
/// auto-vectorized scalar loop; the win grows from there (≈1.1× at 32,
/// ≈1.35× at 128, ≈2× at 256 nnz/row).
pub const UNROLL_MIN_AVG_NNZ: f64 = 32.0;
/// Above this mean row length the unrolled body's raw throughput beats
/// latency hiding even on scattered-gather matrices, so the prefetch body
/// yields to it. Below [`UNROLL_MIN_AVG_NNZ`] both specialized bodies lose
/// to scalar — prefetch only pays in the band between the two.
pub const PREFETCH_MAX_AVG_NNZ: f64 = 128.0;
/// Minimum populated diagonals before the row-blocked DIA body beats the
/// plain sweep (with fewer, the output block never leaves cache anyway).
pub const BLOCK_MIN_DIAGS: usize = 4;
/// Minimum ELL slab width before the row-blocked ELL body pays off.
pub const BLOCK_MIN_WIDTH: usize = 4;
/// Row-block length of the blocked DIA/ELL bodies: 256 rows of `f64`
/// output plus the matching `x` window sit comfortably in L1.
pub const BLOCK_ROWS: usize = 256;
/// How many entries ahead the prefetch body requests the `x` gather.
pub(crate) const PREFETCH_DIST: usize = 16;

/// Variant for one CSR row range holding `nnz` entries over `rows` rows.
pub(crate) fn select_csr(bottleneck: Bottleneck, rows: usize, nnz: usize) -> KernelVariant {
    if rows == 0 || nnz == 0 {
        return KernelVariant::Scalar;
    }
    let avg = nnz as f64 / rows as f64;
    if avg < UNROLL_MIN_AVG_NNZ {
        // Short rows: both specialized bodies cost more than they save.
        return KernelVariant::Scalar;
    }
    if bottleneck == Bottleneck::Latency && avg < PREFETCH_MAX_AVG_NNZ {
        return KernelVariant::Prefetch;
    }
    KernelVariant::Unrolled
}

/// Variant for one DIA row range of a matrix with `ndiags` diagonals.
pub(crate) fn select_dia(ndiags: usize, rows: usize) -> KernelVariant {
    if ndiags >= BLOCK_MIN_DIAGS && rows > BLOCK_ROWS {
        KernelVariant::Blocked
    } else {
        KernelVariant::Scalar
    }
}

/// Variant for one ELL row range of a slab of `width` columns.
pub(crate) fn select_ell(width: usize, rows: usize) -> KernelVariant {
    if width >= BLOCK_MIN_WIDTH && rows > BLOCK_ROWS {
        KernelVariant::Blocked
    } else {
        KernelVariant::Scalar
    }
}

/// Variant for one BSR block-row range of `block_cells`-cell blocks.
/// (BELL segments carry no variants: the slice walker is its one body.)
pub(crate) fn select_bsr(block_cells: usize, block_rows: usize) -> KernelVariant {
    if block_cells >= BLOCK_MIN_WIDTH && block_rows > BLOCK_ROWS {
        KernelVariant::Blocked
    } else {
        KernelVariant::Scalar
    }
}

// ---------------------------------------------------------------------------
// CPU feature detection
// ---------------------------------------------------------------------------

/// The ISA features the runtime-dispatched bodies can use, detected once
/// per process. A plan records the set it was built under; replaying a
/// plan under a different set (a decision file imported on another
/// machine, a migrated VM) is refused by [`crate::ExecPlan::matches`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuFeatures {
    /// AVX2 available (256-bit integer/FP lanes).
    pub avx2: bool,
    /// FMA3 available (fused multiply-add, the unrolled body's workhorse).
    pub fma: bool,
}

static DETECTED: OnceLock<CpuFeatures> = OnceLock::new();

impl CpuFeatures {
    /// Runtime detection, cached for the process lifetime.
    pub fn detect() -> CpuFeatures {
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                CpuFeatures {
                    avx2: std::arch::is_x86_feature_detected!("avx2"),
                    fma: std::arch::is_x86_feature_detected!("fma"),
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                CpuFeatures::none()
            }
        })
    }

    /// No ISA extensions — the portable-fallback feature set.
    pub fn none() -> CpuFeatures {
        CpuFeatures { avx2: false, fma: false }
    }

    /// `true` when the AVX2+FMA lanes of the unrolled body can engage.
    pub fn simd_unroll(&self) -> bool {
        self.avx2 && self.fma
    }

    /// Stable fingerprint of (architecture, feature set, taxonomy
    /// version), for keying plans kept outside the process. FNV-1a like
    /// the serving layer's engine fingerprint: such keys must stay
    /// meaningful across toolchain upgrades, so no `DefaultHasher`. (The
    /// serving layer keeps a plan in the decision entry it was built for,
    /// in-process, and compares feature sets through
    /// [`crate::ExecPlan::matches`] instead.)
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for b in std::env::consts::ARCH.bytes() {
            eat(b);
        }
        eat(self.avx2 as u8);
        eat(self.fma as u8);
        for b in TAXONOMY_VERSION.to_le_bytes() {
            eat(b);
        }
        h
    }
}

// ---------------------------------------------------------------------------
// Row-dot bodies (runtime dispatched)
// ---------------------------------------------------------------------------

/// Reinterprets `&[V]` as `&[T]` once `TypeId` equality is established.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn cast_slice<V: 'static, T: 'static>(s: &[V]) -> &[T] {
    debug_assert_eq!(TypeId::of::<V>(), TypeId::of::<T>());
    // SAFETY: V and T are the same type (checked by the caller's TypeId
    // guard), so layout and validity are identical.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const T, s.len()) }
}

/// Unrolled dot product of one CSR row (`vals[i] * x[cols[i]]` summed with
/// multiple accumulators). Dispatches to AVX2+FMA lanes when the detected
/// [`CpuFeatures`] allow and `V` is `f32`/`f64`; otherwise runs the
/// portable four-accumulator unroll. Accumulation order differs from the
/// scalar reference (ULP-bounded).
#[inline]
pub(crate) fn dot_row_unrolled<V: Scalar>(vals: &[V], cols: &[usize], x: &[V]) -> V {
    debug_assert_eq!(vals.len(), cols.len());
    #[cfg(target_arch = "x86_64")]
    {
        if CpuFeatures::detect().simd_unroll() {
            if TypeId::of::<V>() == TypeId::of::<f64>() {
                // SAFETY: AVX2+FMA presence was runtime-verified.
                let s = unsafe { dot_row_f64_avx2(cast_slice(vals), cols, cast_slice(x)) };
                return V::from_f64(s);
            }
            if TypeId::of::<V>() == TypeId::of::<f32>() {
                // SAFETY: AVX2+FMA presence was runtime-verified.
                let s = unsafe { dot_row_f32_avx2(cast_slice(vals), cols, cast_slice(x)) };
                return V::from_f64(s as f64);
            }
        }
    }
    dot_row_portable(vals, cols, x)
}

/// Portable four-accumulator unroll: the fallback body on every arch
/// without AVX2+FMA (and for exotic scalar types). Still reorders the
/// reduction, so it carries the same ULP contract as the SIMD lanes.
#[inline]
pub(crate) fn dot_row_portable<V: Scalar>(vals: &[V], cols: &[usize], x: &[V]) -> V {
    let n = vals.len();
    let (mut a0, mut a1, mut a2, mut a3) = (V::ZERO, V::ZERO, V::ZERO, V::ZERO);
    let mut i = 0;
    while i + 4 <= n {
        a0 = vals[i].mul_add(x[cols[i]], a0);
        a1 = vals[i + 1].mul_add(x[cols[i + 1]], a1);
        a2 = vals[i + 2].mul_add(x[cols[i + 2]], a2);
        a3 = vals[i + 3].mul_add(x[cols[i + 3]], a3);
        i += 4;
    }
    let mut s = (a0 + a1) + (a2 + a3);
    while i < n {
        s = vals[i].mul_add(x[cols[i]], s);
        i += 1;
    }
    s
}

/// AVX2+FMA `f64` row dot: two 4-lane accumulators (8-way unroll), lanes
/// reduced in a fixed order, scalar FMA tail.
///
/// # Safety
/// The caller must have verified AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_row_f64_avx2(vals: &[f64], cols: &[usize], x: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = vals.len();
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0;
    while i + 8 <= n {
        let gather = |o: usize| -> __m256d {
            _mm256_set_pd(
                *x.get_unchecked(*cols.get_unchecked(o + 3)),
                *x.get_unchecked(*cols.get_unchecked(o + 2)),
                *x.get_unchecked(*cols.get_unchecked(o + 1)),
                *x.get_unchecked(*cols.get_unchecked(o)),
            )
        };
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(vals.as_ptr().add(i)), gather(i), acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(vals.as_ptr().add(i + 4)), gather(i + 4), acc1);
        i += 8;
    }
    if i + 4 <= n {
        let g = _mm256_set_pd(
            *x.get_unchecked(*cols.get_unchecked(i + 3)),
            *x.get_unchecked(*cols.get_unchecked(i + 2)),
            *x.get_unchecked(*cols.get_unchecked(i + 1)),
            *x.get_unchecked(*cols.get_unchecked(i)),
        );
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(vals.as_ptr().add(i)), g, acc0);
        i += 4;
    }
    let acc = _mm256_add_pd(acc0, acc1);
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    while i < n {
        s = vals.get_unchecked(i).mul_add(*x.get_unchecked(*cols.get_unchecked(i)), s);
        i += 1;
    }
    s
}

/// AVX2+FMA `f32` row dot: one 8-lane accumulator, fixed-order reduce,
/// scalar FMA tail.
///
/// # Safety
/// The caller must have verified AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_row_f32_avx2(vals: &[f32], cols: &[usize], x: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = vals.len();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        let g = _mm256_set_ps(
            *x.get_unchecked(*cols.get_unchecked(i + 7)),
            *x.get_unchecked(*cols.get_unchecked(i + 6)),
            *x.get_unchecked(*cols.get_unchecked(i + 5)),
            *x.get_unchecked(*cols.get_unchecked(i + 4)),
            *x.get_unchecked(*cols.get_unchecked(i + 3)),
            *x.get_unchecked(*cols.get_unchecked(i + 2)),
            *x.get_unchecked(*cols.get_unchecked(i + 1)),
            *x.get_unchecked(*cols.get_unchecked(i)),
        );
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(vals.as_ptr().add(i)), g, acc);
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    let mut s =
        ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    while i < n {
        s = vals.get_unchecked(i).mul_add(*x.get_unchecked(*cols.get_unchecked(i)), s);
        i += 1;
    }
    s
}

/// Best-effort read prefetch hint; a no-op off x86_64.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint — it never faults, even on a wild
    // address (the pointer here is always in-bounds anyway).
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_roundtrip_and_names_are_distinct() {
        for (i, v) in ALL_VARIANTS.iter().enumerate() {
            assert_eq!(v.index(), i);
            assert_eq!(KernelVariant::from_index(i), Some(*v));
        }
        assert_eq!(KernelVariant::from_index(KernelVariant::COUNT), None);
        let names: std::collections::HashSet<_> = ALL_VARIANTS.iter().map(|v| v.name()).collect();
        assert_eq!(names.len(), KernelVariant::COUNT);
    }

    #[test]
    fn applicability_matches_the_taxonomy() {
        use FormatId::*;
        for fmt in [Coo, Csr, Dia, Ell, Hyb, Hdc] {
            assert!(KernelVariant::Scalar.applies_to(fmt), "{fmt}");
        }
        assert!(KernelVariant::Unrolled.applies_to(Csr));
        assert!(KernelVariant::Unrolled.applies_to(Hdc));
        assert!(!KernelVariant::Unrolled.applies_to(Coo));
        assert!(!KernelVariant::Unrolled.applies_to(Dia));
        assert!(KernelVariant::Blocked.applies_to(Dia));
        assert!(KernelVariant::Blocked.applies_to(Ell));
        assert!(KernelVariant::Blocked.applies_to(Hyb));
        assert!(!KernelVariant::Blocked.applies_to(Csr));
        assert!(KernelVariant::Blocked.applies_to(Bsr));
        assert!(!KernelVariant::Unrolled.applies_to(Bsr));
        assert_eq!(KernelVariant::applicable(Bell), vec![KernelVariant::Scalar]);
        assert_eq!(KernelVariant::applicable(Coo), vec![KernelVariant::Scalar]);
    }

    #[test]
    fn order_preservation_contract() {
        assert!(KernelVariant::Scalar.preserves_order());
        assert!(KernelVariant::Prefetch.preserves_order());
        assert!(KernelVariant::Blocked.preserves_order());
        assert!(!KernelVariant::Unrolled.preserves_order());
    }

    #[test]
    fn bottleneck_classification_rules() {
        // Hub matrix: one row of 5000 nnz among rows of ~5 → imbalance.
        assert_eq!(
            Bottleneck::classify(10_000, 10_000, 55_000, 5.5, 5000, 60.0, 18_000),
            Bottleneck::Imbalance
        );
        // Uniform random scatter: most diagonals populated, low x reuse.
        assert_eq!(Bottleneck::classify(20_000, 20_000, 60_000, 3.0, 9, 1.9, 35_000), Bottleneck::Latency);
        // Tridiagonal: three diagonals, fully regular streaming.
        assert_eq!(Bottleneck::classify(120_000, 120_000, 360_000, 3.0, 3, 0.1, 3), Bottleneck::Bandwidth);
        // Empty matrices stream nothing; default to bandwidth.
        assert_eq!(Bottleneck::classify(0, 0, 0, 0.0, 0, 0.0, 0), Bottleneck::Bandwidth);
    }

    #[test]
    fn selection_rules_follow_the_bottleneck() {
        // Latency-bound ranges prefetch only in the mid band: short rows
        // stay scalar, and very long rows favour raw unrolled throughput.
        assert_eq!(select_csr(Bottleneck::Latency, 1000, 64_000), KernelVariant::Prefetch);
        assert_eq!(select_csr(Bottleneck::Latency, 1000, 3000), KernelVariant::Scalar);
        assert_eq!(select_csr(Bottleneck::Latency, 1000, 200_000), KernelVariant::Unrolled);
        // Bandwidth-bound long rows unroll; short rows stay scalar.
        assert_eq!(select_csr(Bottleneck::Bandwidth, 100, 6400), KernelVariant::Unrolled);
        assert_eq!(select_csr(Bottleneck::Bandwidth, 1000, 2000), KernelVariant::Scalar);
        // Hub-heavy ranges of an imbalanced matrix unroll too.
        assert_eq!(select_csr(Bottleneck::Imbalance, 4, 5000), KernelVariant::Unrolled);
        assert_eq!(select_csr(Bottleneck::Bandwidth, 0, 0), KernelVariant::Scalar);
        // Padded formats block only when wide and long enough.
        assert_eq!(select_dia(8, 4096), KernelVariant::Blocked);
        assert_eq!(select_dia(3, 4096), KernelVariant::Scalar);
        assert_eq!(select_dia(8, 64), KernelVariant::Scalar);
        assert_eq!(select_ell(6, 4096), KernelVariant::Blocked);
        assert_eq!(select_ell(2, 4096), KernelVariant::Scalar);
    }

    #[test]
    fn unrolled_dot_agrees_with_reference_within_ulp_bound() {
        for n in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 33, 100, 257] {
            let vals: Vec<f64> = (0..n).map(|i| ((i * 37 + 5) % 23) as f64 * 0.37 - 3.0).collect();
            let cols: Vec<usize> = (0..n).map(|i| (i * 13 + 7) % 300).collect();
            let x: Vec<f64> = (0..300).map(|i| (i as f64 * 0.11).sin()).collect();
            let reference: f64 = vals.iter().zip(&cols).fold(0.0, |acc, (&v, &c)| acc + v * x[c]);
            let abs_sum: f64 = vals.iter().zip(&cols).map(|(&v, &c)| (v * x[c]).abs()).sum();
            let bound = (n as f64 + 8.0) * f64::EPSILON * abs_sum.max(1e-300);
            let got = dot_row_unrolled(&vals, &cols, &x);
            assert!((got - reference).abs() <= bound, "n={n}: |{got} - {reference}| > {bound}");
            let portable = dot_row_portable(&vals, &cols, &x);
            assert!((portable - reference).abs() <= bound, "portable n={n}");
        }
    }

    #[test]
    fn fingerprint_is_stable_and_feature_sensitive() {
        let a = CpuFeatures { avx2: true, fma: true };
        let b = CpuFeatures { avx2: false, fma: false };
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(CpuFeatures::detect(), CpuFeatures::detect());
        assert!(!CpuFeatures::none().simd_unroll());
    }
}
