//! Conversions between all pairs of storage formats: direct-vs-hub
//! dispatch, parallel kernels, and the shared-analysis planning contract.
//!
//! # Direct vs hub
//!
//! Historically every pair converted through a materialised COO
//! intermediate. That round-trip sits on the tuning hot path — the paper's
//! Oracle only pays off once "the cost of conversion is amortized after a
//! number of SpMV iterations" (§VII) — so it is now the *fallback*, not the
//! rule. Each target format has one builder, and each reads its source as
//! row-major `(offsets, cols, vals)` arrays: CSR lends its own, a sorted COO
//! its `cols`/`vals` plus offsets from one pass that only stores (each
//! entry writes its row's end, a running maximum fills the empty rows). The
//! dispatcher ([`crate::DynamicMatrix::to_format_with`]) picks:
//!
//! * **Identity** — source and target formats coincide: a clone (or a move,
//!   for [`crate::DynamicMatrix::into_format`]).
//! * **Direct** — a COO or CSR source is handed to the target's builder
//!   (COO↔CSR, and both into ELL, DIA, HYB, HDC, BSR and BELL), and every
//!   other source exports straight to COO or CSR through the one row-major
//!   export. No triplet buffers are allocated and nothing is sorted
//!   (sources export rows in ascending column order), and no builder
//!   searches a row or calls through a pointer per entry, so the formats
//!   the tuner picks convert at memory speed. (The serving layer moves
//!   every COO source into CSR at its front door, so what it converts is
//!   CSR.) The builders plan and allocate on the calling thread; the ELL
//!   family's fill (BELL; ELL and HYB's ELL part, one bucket each) runs on
//!   a pool the caller hands in ([`crate::DynamicMatrix::convert_on`]: a
//!   service's own) once the matrix has
//!   [`kernels::PARALLEL_CONVERT_THRESHOLD`] entries. The DIA and HDC fills
//!   and the export run in parallel on the process pool with nnz-weighted,
//!   row-disjoint partitions from that size on.
//! * **Hub** — every other pair (a padded or block source into a padded or
//!   block target) exports the source to CSR first and hands that copy to
//!   the target's builder. Both legs are the direct kernels above, but the
//!   intermediate is materialised; these pairs are rare on the tuning path
//!   (the Oracle almost always switches from an ingestion format).
//!
//! Which path ran, and how long it took on the wall clock, is reported in
//! [`ConvertOutcome`] and surfaced by the Oracle in its `TuneReport`.
//!
//! # The `Analysis` reuse contract
//!
//! Every conversion *into* a padded format starts with a planning question:
//! the ELL width, DIA's populated-diagonal set, HYB's split width, HDC's
//! true-diagonal selection. All four answers derive from the two
//! histograms a [`crate::analysis::Analysis`] already holds, so planning
//! accepts an optional `&Analysis` (threaded through
//! [`crate::DynamicMatrix::to_format_with`]):
//!
//! * with a supplied analysis, planning reads the histograms and performs
//!   **zero** additional full traversals of the matrix (asserted by the
//!   [`crate::analysis::passes`] counter in the test suite);
//! * without one, DIA and HDC rescan the source (recording the traversal on
//!   the counter); ELL and HYB read the row lengths off the offsets their
//!   builder reads anyway.
//!
//! The caller must pass an analysis *of the matrix being converted* (any
//! active format with the same sparsity pattern is fine — the histograms
//! are format-independent). A mismatched artifact (wrong shape or nnz) is
//! ignored rather than trusted.
//!
//! # Padding guards
//!
//! DIA and ELL "can suffer from excessive padding" (§II-B); conversions
//! into them are guarded by [`ConvertOptions::max_fill`] and fail with
//! [`crate::MorpheusError::ExcessivePadding`] *before* allocating the padded
//! arrays — the behaviour the profiling harness relies on to mark a format
//! non-viable for a matrix. One guard, `guard_padding`, serves every
//! padded target and [`crate::FormatEntry::is_viable`], so a structure the
//! registry calls viable is one the conversion accepts. Guards are applied
//! identically on direct and hub paths. Caller-chosen widths (a HYB split width, a BELL ladder) are
//! priced with saturating or checked arithmetic: any `usize` the options or
//! a decisions file carry is an error, never a wrapped count or an
//! allocation the process cannot survive.

pub mod blocked;
pub mod kernels;

pub use blocked::{
    bell_to_coo, bell_to_csr, bsr_to_coo, bsr_to_csr, coo_to_bell, coo_to_bsr, csr_to_bell, csr_to_bsr,
};
use kernels::{export_to_coo, export_to_csr, Diagonals, RowArrays};

pub use kernels::{
    coo_to_csr, coo_to_dia, coo_to_ell, coo_to_hdc, coo_to_hyb, csr_to_coo, csr_to_dia, csr_to_ell,
    csr_to_hdc, csr_to_hyb, dia_to_coo, dia_to_csr, ell_to_coo, ell_to_csr, hdc_to_coo, hdc_to_csr,
    hyb_to_coo, hyb_to_csr,
};

use crate::analysis::Analysis;
use crate::dynamic::DynamicMatrix;
use crate::error::MorpheusError;
use crate::format::FormatId;
use crate::hdc::DEFAULT_TRUE_DIAG_ALPHA;
use crate::hyb::HybSplit;
use crate::params::FormatParams;
use crate::rowmajor::RowMajor;
use crate::scalar::Scalar;
use crate::spmv::cpu_features::CpuFeatures;
use crate::Result;
use morpheus_parallel::ThreadPool;

/// Options controlling format conversions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvertOptions {
    /// Maximum padded slots per structural non-zero allowed when converting
    /// into a padded format (DIA, ELL, HYB's ELL part, HDC's DIA part, BSR,
    /// BELL). The slots are all the format stores, the structural
    /// non-zeros among them. Conversions needing more fail with
    /// [`crate::MorpheusError::ExcessivePadding`].
    pub max_fill: f64,
    /// Padding allowance floor in slots, so small matrices may always
    /// convert regardless of fill ratio.
    pub min_padded_allowance: usize,
    /// HYB split-width policy.
    pub hyb_split: HybSplit,
    /// True-diagonal fraction for HDC splitting and the `NTD` statistic.
    pub true_diag_alpha: f64,
    /// Layout parameters of the target format (BSR block dims, BELL
    /// ladder), read by the BSR and BELL builders — defaults reproduce the
    /// fixed heuristics. A serving layer takes them from each matrix's
    /// decision, not from its own options.
    pub params: FormatParams,
}

impl Default for ConvertOptions {
    fn default() -> Self {
        ConvertOptions {
            max_fill: 20.0,
            min_padded_allowance: 4096,
            hyb_split: HybSplit::Auto,
            true_diag_alpha: DEFAULT_TRUE_DIAG_ALPHA,
            params: FormatParams::default(),
        }
    }
}

impl ConvertOptions {
    /// The slots a padded format may store for `nnz` structural non-zeros.
    pub(crate) fn padded_allowance(&self, nnz: usize) -> usize {
        ((self.max_fill * nnz as f64) as usize).max(self.min_padded_allowance)
    }

    /// `true` when the padding guard admits a `format` storing `padded`
    /// slots in all for `nnz` structural non-zeros: the rule every padded
    /// conversion under these options applies, for callers that price a
    /// format without converting (the machine model's viability).
    pub fn admits_padding(&self, format: FormatId, padded: usize, nnz: usize) -> bool {
        guard_padding(format, padded, nnz, self.padded_allowance(nnz)).is_ok()
    }
}

/// The padding guard: a `format` storing `padded` slots in all (its `nnz`
/// structural non-zeros among them) fits when they are at most `limit`
/// ([`ConvertOptions::padded_allowance`]).
pub(crate) fn guard_padding(format: FormatId, padded: usize, nnz: usize, limit: usize) -> Result<()> {
    if padded > limit {
        return Err(MorpheusError::ExcessivePadding { format, padded, nnz, limit });
    }
    Ok(())
}

/// Which route a conversion took through the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvertPath {
    /// Source already was the target format; no kernel ran.
    Identity,
    /// A direct kernel wrote the target arrays straight from the source.
    Direct,
    /// The conversion went through a materialised CSR copy of the source.
    Hub,
}

impl std::fmt::Display for ConvertPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ConvertPath::Identity => "identity",
            ConvertPath::Direct => "direct",
            ConvertPath::Hub => "hub",
        })
    }
}

/// What a conversion did and what it cost on the host wall clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvertOutcome {
    /// The route taken.
    pub path: ConvertPath,
    /// Wall-clock seconds the conversion took (planning + fills; measured,
    /// not modelled).
    pub seconds: f64,
}

impl ConvertOutcome {
    /// An outcome for "nothing happened" (already in the target format).
    pub fn identity() -> Self {
        ConvertOutcome { path: ConvertPath::Identity, seconds: 0.0 }
    }
}

/// Converts `m` to `target`, timing the kernel and reporting the path
/// taken. `analysis`, when supplied and matching, answers all planning
/// questions without re-traversing the matrix; `diagonals`, when supplied,
/// are the ones a DIA or HDC `target` stores (see
/// [`DynamicMatrix::convert_to_diagonals`]); `pool`, when given, is where
/// a BELL, ELL or HYB target is filled (see
/// [`DynamicMatrix::convert_on`]).
pub(crate) fn convert_timed<V: Scalar>(
    m: &DynamicMatrix<V>,
    target: FormatId,
    opts: &ConvertOptions,
    analysis: Option<&Analysis>,
    diagonals: Option<&[isize]>,
    pool: Option<&ThreadPool>,
) -> Result<(DynamicMatrix<V>, ConvertOutcome)> {
    let start = std::time::Instant::now();
    if target == m.format_id() {
        return Ok((m.clone(), ConvertOutcome::identity()));
    }
    // Trust the plan only if it plausibly describes this matrix.
    let plan = analysis.filter(|a| a.matches(m));
    let (converted, path) = dispatch(m, target, opts, plan, diagonals, pool)?;
    Ok((converted, ConvertOutcome { path, seconds: start.elapsed().as_secs_f64() }))
}

/// The active representation as a row-major walker (all formats implement
/// [`RowMajor`]).
pub(crate) fn as_rowmajor<V: Scalar>(m: &DynamicMatrix<V>) -> &dyn RowMajor<V> {
    match m {
        DynamicMatrix::Coo(a) => a,
        DynamicMatrix::Csr(a) => a,
        DynamicMatrix::Dia(a) => a,
        DynamicMatrix::Ell(a) => a.bell(),
        DynamicMatrix::Hyb(a) => a,
        DynamicMatrix::Hdc(a) => a,
        DynamicMatrix::Bsr(a) => a,
        DynamicMatrix::Bell(a) => a,
    }
}

fn dispatch<V: Scalar>(
    m: &DynamicMatrix<V>,
    target: FormatId,
    opts: &ConvertOptions,
    plan: Option<&Analysis>,
    diagonals: Option<&[isize]>,
    pool: Option<&ThreadPool>,
) -> Result<(DynamicMatrix<V>, ConvertPath)> {
    let cpu = CpuFeatures::detect();
    let (ncols, nnz) = (m.ncols(), m.nnz());
    Ok(match (RowArrays::of(m), target) {
        // COO and CSR sources lend their arrays to the target's builder.
        (Some(rows), _) => (build(target, rows, opts, plan, diagonals, pool, cpu)?, ConvertPath::Direct),
        // Every other format exports to COO and CSR directly...
        (None, FormatId::Coo) => {
            (DynamicMatrix::Coo(export_to_coo(as_rowmajor(m), ncols, nnz)), ConvertPath::Direct)
        }
        (None, FormatId::Csr) => {
            (DynamicMatrix::Csr(export_to_csr(as_rowmajor(m), ncols, nnz)), ConvertPath::Direct)
        }
        // ...and reaches the rest through that one CSR copy.
        (None, _) => {
            let csr = export_to_csr(as_rowmajor(m), ncols, nnz);
            let rows = RowArrays::of_csr(&csr);
            (build(target, rows, opts, plan, diagonals, pool, cpu)?, ConvertPath::Hub)
        }
    })
}

/// The one builder of each target format, over row-major arrays. `plan`
/// answers the padded formats' planning questions; `diagonals`, when
/// given, win over the plan's for DIA and HDC (a miss of this structure
/// stored exactly them); `pool` is where a BELL, ELL or HYB fill runs, in
/// the form `cpu` selects.
fn build<V: Scalar>(
    target: FormatId,
    rows: RowArrays<'_, V>,
    opts: &ConvertOptions,
    plan: Option<&Analysis>,
    diagonals: Option<&[isize]>,
    pool: Option<&ThreadPool>,
    cpu: CpuFeatures,
) -> Result<DynamicMatrix<V>> {
    use DynamicMatrix as D;
    // An artifact without the entry walk holds no diagonals: DIA and HDC
    // then find theirs in a scan of the arrays.
    let walked = plan.filter(|a| a.walked);
    let diags = diagonals.map(Diagonals::Stored).or(walked.map(Diagonals::Analysis));
    Ok(match target {
        FormatId::Coo => D::Coo(rows.to_coo()),
        FormatId::Csr => D::Csr(rows.into_csr()),
        FormatId::Dia => D::Dia(kernels::dia_from_arrays(&rows, opts, diags)?),
        FormatId::Ell => D::Ell(kernels::ell_from_arrays(&rows, opts, plan, cpu, pool)?),
        FormatId::Hyb => D::Hyb(kernels::hyb_from_arrays(&rows, opts, plan, cpu, pool)?),
        FormatId::Hdc => D::Hdc(kernels::hdc_from_arrays(&rows, opts, diags)?),
        FormatId::Bsr => D::Bsr(blocked::bsr_from_arrays(&rows, opts)?),
        FormatId::Bell => D::Bell(blocked::bell_from_arrays(&rows, opts, cpu, pool)?),
    })
}

/// Converts `m` to `target` strictly through a materialised COO
/// intermediate, regardless of whether a direct kernel exists: the COO
/// copy's arrays go to the target's builder.
///
/// This is the reference path the tests compare the direct kernels
/// against; production code should go through
/// [`crate::DynamicMatrix::to_format`], which dispatches to the fastest
/// route.
pub fn convert_via_hub<V: Scalar>(
    m: &DynamicMatrix<V>,
    target: FormatId,
    opts: &ConvertOptions,
) -> Result<DynamicMatrix<V>> {
    build(target, RowArrays::of_coo(&m.to_coo()), opts, None, None, None, CpuFeatures::detect())
}

/// Builds `target` — BELL, ELL or HYB, the formats BELL's builder fills —
/// from contiguous row-major arrays (`offsets` has `nrows + 1` entries)
/// exactly as [`csr_to_bell`], [`csr_to_ell`] and [`csr_to_hyb`] build it
/// from a CSR matrix's, except that the fill runs in the form `cpu` selects
/// instead of the detected one. The arrays are not validated: a run outside
/// them, or a column `>= ncols`, panics in the builder as it would in a
/// conversion. The fill's differential test; not meant for end users.
///
/// # Panics
/// Also if `target` is none of the three.
#[doc(hidden)]
pub fn padded_from_arrays<V: Scalar>(
    target: FormatId,
    shape: (usize, usize),
    (offsets, cols, vals): (&[usize], &[usize], &[V]),
    opts: &ConvertOptions,
    cpu: CpuFeatures,
) -> Result<DynamicMatrix<V>> {
    assert!(
        matches!(target, FormatId::Bell | FormatId::Ell | FormatId::Hyb),
        "{target} is not filled by BELL's builder"
    );
    let rows = RowArrays { shape, offsets: offsets.into(), cols, vals };
    build(target, rows, opts, None, None, None, cpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::test_util::random_coo;

    fn sample_coo() -> CooMatrix<f64> {
        // [1 0 2 0]
        // [0 3 0 0]
        // [4 0 5 6]
        // [0 0 0 7]
        CooMatrix::from_triplets(
            4,
            4,
            &[0, 0, 1, 2, 2, 2, 3],
            &[0, 2, 1, 0, 2, 3, 3],
            &[1., 2., 3., 4., 5., 6., 7.],
        )
        .unwrap()
    }

    #[test]
    fn coo_csr_roundtrip() {
        let coo = sample_coo();
        let csr = coo_to_csr(&coo);
        assert_eq!(csr.row_offsets(), &[0, 2, 3, 6, 7]);
        let back = csr_to_coo(&csr);
        assert_eq!(back, coo);
    }

    #[test]
    fn coo_dia_roundtrip() {
        let coo = sample_coo();
        let dia = coo_to_dia(&coo, &ConvertOptions::default()).unwrap();
        assert_eq!(dia.nnz(), coo.nnz());
        // Diagonals present: offsets j - i in {0, 2, -2, 1}.
        assert_eq!(dia.offsets(), &[-2, 0, 1, 2]);
        let back = dia_to_coo(&dia);
        assert_eq!(back, coo);
    }

    #[test]
    fn coo_ell_roundtrip() {
        let coo = sample_coo();
        let ell = coo_to_ell(&coo, &ConvertOptions::default()).unwrap();
        assert_eq!(ell.width(), 3);
        assert_eq!(ell.nnz(), coo.nnz());
        let back = ell_to_coo(&ell);
        assert_eq!(back, coo);
    }

    #[test]
    fn coo_hyb_roundtrip() {
        let coo = sample_coo();
        for split in [HybSplit::Auto, HybSplit::Width(1), HybSplit::Width(2)] {
            let opts = ConvertOptions { hyb_split: split, ..Default::default() };
            let hyb = coo_to_hyb(&coo, &opts).unwrap();
            assert_eq!(hyb.nnz(), coo.nnz(), "{split:?}");
            let back = hyb_to_coo(&hyb);
            assert_eq!(back, coo, "{split:?}");
        }
    }

    #[test]
    fn coo_hdc_roundtrip() {
        let coo = sample_coo();
        let opts = ConvertOptions { true_diag_alpha: 0.5, ..Default::default() };
        let hdc = coo_to_hdc(&coo, &opts).unwrap();
        assert_eq!(hdc.nnz(), coo.nnz());
        // Main diagonal has 4 entries >= ceil(0.5*4) = 2 -> true diagonal.
        assert!(hdc.dia().ndiags() >= 1);
        assert!(hdc.dia().offsets().contains(&0));
        let back = hdc_to_coo(&hdc);
        assert_eq!(back, coo);
    }

    #[test]
    fn hyb_auto_split_spills_long_row() {
        // 63 rows with 1 entry, one row with 40 entries.
        let n = 64usize;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for r in 0..n - 1 {
            rows.push(r);
            cols.push(r % 8);
            vals.push(1.0);
        }
        for c in 0..40 {
            rows.push(n - 1);
            cols.push(c);
            vals.push(2.0);
        }
        let coo = CooMatrix::<f64>::from_triplets(n, n, &rows, &cols, &vals).unwrap();
        let hyb = coo_to_hyb(&coo, &ConvertOptions::default()).unwrap();
        assert_eq!(hyb.split_width(), 1);
        assert_eq!(hyb.coo().nnz(), 39);
        assert_eq!(hyb.nnz(), coo.nnz());
    }

    #[test]
    fn ell_conversion_rejects_excessive_padding() {
        // One dense row in an otherwise hypersparse large matrix.
        let n = 20_000usize;
        let mut rows = vec![0usize; 1000];
        let cols: Vec<usize> = (0..1000).collect();
        let vals = vec![1.0f64; 1000];
        rows.extend([n - 1]);
        let mut cols = cols;
        cols.push(0);
        let mut vals = vals;
        vals.push(1.0);
        let coo = CooMatrix::<f64>::from_triplets(n, n, &rows, &cols, &vals).unwrap();
        let err = coo_to_ell(&coo, &ConvertOptions::default()).unwrap_err();
        assert!(matches!(err, MorpheusError::ExcessivePadding { format: FormatId::Ell, .. }));
        // The direct CSR kernel applies the identical guard.
        let err = csr_to_ell(&coo_to_csr(&coo), &ConvertOptions::default()).unwrap_err();
        assert!(matches!(err, MorpheusError::ExcessivePadding { format: FormatId::Ell, .. }));
    }

    /// A fixed split width is any `usize` the options carry: `width ×
    /// nrows` saturates instead of wrapping past the guard to zero.
    #[test]
    fn a_huge_hyb_width_is_excessive_padding() {
        let coo = CooMatrix::<f64>::from_triplets(2, 2, &[0, 1], &[0, 1], &[1.0, 2.0]).unwrap();
        let huge = ConvertOptions { hyb_split: HybSplit::Width(1 << 63), ..Default::default() };
        let errs = [
            coo_to_hyb(&coo, &huge).unwrap_err(),
            csr_to_hyb(&coo_to_csr(&coo), &huge).unwrap_err(),
            DynamicMatrix::from(coo).to_format(FormatId::Hyb, &huge).unwrap_err(),
        ];
        for err in errs {
            assert!(
                matches!(
                    err,
                    MorpheusError::ExcessivePadding { format: FormatId::Hyb, padded: usize::MAX, nnz: 2, .. }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn dia_conversion_rejects_excessive_padding() {
        // Random scatter -> many distinct diagonals.
        let coo = random_coo::<f64>(3000, 3000, 600, 7);
        let opts = ConvertOptions { max_fill: 2.0, min_padded_allowance: 16, ..Default::default() };
        let err = coo_to_dia(&coo, &opts).unwrap_err();
        assert!(matches!(err, MorpheusError::ExcessivePadding { format: FormatId::Dia, .. }));
        let err = csr_to_dia(&coo_to_csr(&coo), &opts).unwrap_err();
        assert!(matches!(err, MorpheusError::ExcessivePadding { format: FormatId::Dia, .. }));
    }

    #[test]
    fn empty_matrix_conversions() {
        let coo = CooMatrix::<f64>::new(5, 5);
        let opts = ConvertOptions::default();
        assert_eq!(coo_to_csr(&coo).nnz(), 0);
        assert_eq!(coo_to_dia(&coo, &opts).unwrap().nnz(), 0);
        assert_eq!(coo_to_ell(&coo, &opts).unwrap().nnz(), 0);
        assert_eq!(coo_to_hyb(&coo, &opts).unwrap().nnz(), 0);
        assert_eq!(coo_to_hdc(&coo, &opts).unwrap().nnz(), 0);
        let csr = coo_to_csr(&coo);
        assert_eq!(csr_to_dia(&csr, &opts).unwrap().nnz(), 0);
        assert_eq!(csr_to_ell(&csr, &opts).unwrap().nnz(), 0);
        assert_eq!(csr_to_hyb(&csr, &opts).unwrap().nnz(), 0);
        assert_eq!(csr_to_hdc(&csr, &opts).unwrap().nnz(), 0);
    }

    #[test]
    fn random_roundtrips_preserve_entries() {
        for seed in 0..5u64 {
            let coo = random_coo::<f64>(60, 45, 300, seed);
            // Random scatter populates most diagonals; raise the padding
            // allowance so the DIA leg of the roundtrip is exercised too.
            let opts = ConvertOptions { min_padded_allowance: 1 << 20, ..Default::default() };
            assert_eq!(csr_to_coo(&coo_to_csr(&coo)), coo, "csr seed {seed}");
            assert_eq!(dia_to_coo(&coo_to_dia(&coo, &opts).unwrap()), coo, "dia seed {seed}");
            assert_eq!(ell_to_coo(&coo_to_ell(&coo, &opts).unwrap()), coo, "ell seed {seed}");
            assert_eq!(hyb_to_coo(&coo_to_hyb(&coo, &opts).unwrap()), coo, "hyb seed {seed}");
            assert_eq!(hdc_to_coo(&coo_to_hdc(&coo, &opts).unwrap()), coo, "hdc seed {seed}");
        }
    }

    #[test]
    fn direct_csr_kernels_match_hub_path() {
        for seed in 0..4u64 {
            let coo = random_coo::<f64>(70, 55, 500, seed);
            let opts = ConvertOptions { min_padded_allowance: 1 << 20, ..Default::default() };
            let csr = coo_to_csr(&coo);
            assert_eq!(csr_to_ell(&csr, &opts).unwrap(), coo_to_ell(&coo, &opts).unwrap(), "{seed}");
            assert_eq!(csr_to_dia(&csr, &opts).unwrap(), coo_to_dia(&coo, &opts).unwrap(), "{seed}");
            assert_eq!(csr_to_hyb(&csr, &opts).unwrap(), coo_to_hyb(&coo, &opts).unwrap(), "{seed}");
            assert_eq!(csr_to_hdc(&csr, &opts).unwrap(), coo_to_hdc(&coo, &opts).unwrap(), "{seed}");
        }
    }

    #[test]
    fn export_to_csr_matches_coo_route() {
        let coo = random_coo::<f64>(50, 50, 400, 13);
        let opts = ConvertOptions { min_padded_allowance: 1 << 20, ..Default::default() };
        let expect = coo_to_csr(&coo);
        assert_eq!(ell_to_csr(&coo_to_ell(&coo, &opts).unwrap()), expect);
        assert_eq!(dia_to_csr(&coo_to_dia(&coo, &opts).unwrap()), expect);
        assert_eq!(hyb_to_csr(&coo_to_hyb(&coo, &opts).unwrap()), expect);
        assert_eq!(hdc_to_csr(&coo_to_hdc(&coo, &opts).unwrap()), expect);
    }

    #[test]
    fn planned_conversions_match_unplanned() {
        use crate::analysis::Analysis;
        let coo = random_coo::<f64>(80, 64, 600, 3);
        let opts = ConvertOptions { min_padded_allowance: 1 << 20, ..Default::default() };
        let m = DynamicMatrix::from(coo.clone());
        let a = Analysis::of(&m, opts.true_diag_alpha);
        let csr = coo_to_csr(&coo);
        let (rows, csr_rows, cpu) = (RowArrays::of_coo(&coo), RowArrays::of_csr(&csr), CpuFeatures::detect());
        let diags = Some(Diagonals::Analysis(&a));
        assert_eq!(
            kernels::ell_from_arrays(&rows, &opts, Some(&a), cpu, None).unwrap(),
            coo_to_ell(&coo, &opts).unwrap()
        );
        assert_eq!(kernels::dia_from_arrays(&rows, &opts, diags).unwrap(), coo_to_dia(&coo, &opts).unwrap());
        assert_eq!(
            kernels::hyb_from_arrays(&rows, &opts, Some(&a), cpu, None).unwrap(),
            coo_to_hyb(&coo, &opts).unwrap()
        );
        assert_eq!(kernels::hdc_from_arrays(&rows, &opts, diags).unwrap(), coo_to_hdc(&coo, &opts).unwrap());
        assert_eq!(
            kernels::ell_from_arrays(&csr_rows, &opts, Some(&a), cpu, None).unwrap(),
            csr_to_ell(&csr, &opts).unwrap()
        );
        assert_eq!(
            kernels::hdc_from_arrays(&csr_rows, &opts, diags).unwrap(),
            csr_to_hdc(&csr, &opts).unwrap()
        );
    }

    #[test]
    fn dispatcher_reports_paths() {
        let coo = random_coo::<f64>(40, 40, 250, 1);
        let opts = ConvertOptions { min_padded_allowance: 1 << 20, ..Default::default() };
        let m = DynamicMatrix::from(coo);

        let (_, same) = convert_timed(&m, FormatId::Coo, &opts, None, None, None).unwrap();
        assert_eq!(same.path, ConvertPath::Identity);

        let (ell, out) = convert_timed(&m, FormatId::Ell, &opts, None, None, None).unwrap();
        assert_eq!(out.path, ConvertPath::Direct);
        assert!(out.seconds >= 0.0);

        // Padded -> padded goes through the hub.
        let (_, out) = convert_timed(&ell, FormatId::Dia, &opts, None, None, None).unwrap();
        assert_eq!(out.path, ConvertPath::Hub);

        // Padded -> CSR is a direct export.
        let (_, out) = convert_timed(&ell, FormatId::Csr, &opts, None, None, None).unwrap();
        assert_eq!(out.path, ConvertPath::Direct);
    }

    #[test]
    fn hub_reference_path_equals_dispatcher() {
        let coo = random_coo::<f64>(64, 48, 420, 11);
        let opts = ConvertOptions { min_padded_allowance: 1 << 20, ..Default::default() };
        let m = DynamicMatrix::from(coo);
        for target in crate::format::ALL_FORMATS {
            let via_hub = convert_via_hub(&m, target, &opts).unwrap();
            let (dispatched, _) = convert_timed(&m, target, &opts, None, None, None).unwrap();
            assert_eq!(via_hub, dispatched, "{target}");
        }
    }

    #[test]
    fn large_parallel_conversion_matches_serial_plan() {
        // Cross the parallel threshold so the pool kernels actually run.
        let n = 400usize;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for i in 0..n {
            for d in -24isize..=24 {
                let j = i as isize + d;
                if j >= 0 && (j as usize) < n {
                    rows.push(i);
                    cols.push(j as usize);
                }
            }
        }
        // Strictly non-zero values: DIA storage elides explicit zeros, which
        // would legitimately break the roundtrip comparison below.
        let vals: Vec<f64> = (0..rows.len()).map(|i| (i % 16) as f64 - 7.5).collect();
        let coo = CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap();
        assert!(coo.nnz() >= kernels::PARALLEL_CONVERT_THRESHOLD);
        let opts = ConvertOptions { min_padded_allowance: 1 << 24, ..Default::default() };
        let m = DynamicMatrix::from(coo);
        for target in crate::format::ALL_FORMATS {
            let direct = m.to_format(target, &opts).unwrap();
            let hub = convert_via_hub(&m, target, &opts).unwrap();
            assert_eq!(direct, hub, "{target}");
            assert_eq!(direct.to_coo(), m.to_coo(), "{target}");
        }
    }
}
