//! Differential test of the one-pass analysis: every field of the fused
//! [`Analysis`] artifact — and of the machine view assembled from it —
//! against an independent, naive definition, for every source format; and
//! the walks that can be left out — the block counts, the machine view's HDC
//! remainder — with the ones that take them later, against the fused walk
//! and the full view — down to a service that decides BSR or HDC off either.
//!
//! The naive side knows nothing of the walk's mechanics (row runs, block-row
//! stamps, the row-length count table): blocks are counted with sets,
//! locality entry by entry, padding and spill row by row.
//!
//! The walk itself can be left out too: a CSR matrix's row side comes from
//! its offsets ([`Analysis::of_rows`]), and a model tuner decides off it
//! when the bounds of the three walk features settle its answer. The last
//! tests hold those bounds, those decisions and the artifact the walk
//! completes to the full walk's.

use morpheus_repro::corpus::{CorpusSpec, MatrixClass};
use morpheus_repro::machine::{
    analyze, analyze_from, assemble, systems, Backend, HdcRemainder, VirtualEngine,
};
use morpheus_repro::ml::{Dataset, DecisionTree, TreeParams};
use morpheus_repro::morpheus::analysis::{passes, Analysis, GATHER_LINE};
use morpheus_repro::morpheus::bell::default_bucket_widths;
use morpheus_repro::morpheus::format::{FormatId, ALL_FORMATS};
use morpheus_repro::morpheus::hdc::true_diag_threshold;
use morpheus_repro::morpheus::hyb::optimal_hyb_width;
use morpheus_repro::morpheus::stats::{row_nnz_histogram, stats_of, ROW_GROUP};
use morpheus_repro::morpheus::{ConvertOptions, CooMatrix, DynamicMatrix, ExecPlan, BSR_BLOCK_DIMS};
use morpheus_repro::oracle::{
    propose_params, FormatTuner, MatrixHandle, ModelTuner, Op, Oracle, OracleService, PartitionPolicy,
    TuneDecision, TuningCost, NUM_FEATURES,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const ALPHA: f64 = 0.2;

/// A matrix of any shape the walk has a special case for: degenerate
/// (`0 x n`, `n x 0`), column counts off every block dimension, a dense row,
/// hub rows, runs of empty rows, and plain scatter — tall enough for blocks
/// of every dimension to span several block rows.
fn arb_matrix() -> impl Strategy<Value = DynamicMatrix<f64>> {
    (0usize..70, 0usize..45, 0usize..5, 0u64..u64::MAX).prop_map(|(nrows, ncols, flavour, seed)| {
        let mut next = seed | 1;
        let mut rand = move |n: usize| {
            next = next.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (next >> 33) as usize % n.max(1)
        };
        let mut entries: Vec<(usize, usize)> = Vec::new();
        if nrows > 0 && ncols > 0 {
            let scatter = match flavour {
                0 => 0,
                1 => nrows,
                _ => 3 * nrows,
            };
            for _ in 0..scatter {
                entries.push((rand(nrows), rand(ncols)));
            }
            match flavour {
                // One dense row.
                2 => entries.extend((0..ncols).map(|c| (nrows / 2, c))),
                // Two hub rows and a band.
                3 => {
                    for hub in [0, nrows - 1] {
                        entries.extend((0..ncols).filter(|c| c % 3 != 1).map(|c| (hub, c)));
                    }
                    entries.extend((0..nrows.min(ncols)).map(|i| (i, i)));
                }
                // A run of empty rows in the middle third.
                4 => entries.retain(|&(r, _)| r < nrows / 3 || r >= 2 * nrows / 3),
                _ => {}
            }
        }
        let (rows, cols): (Vec<usize>, Vec<usize>) = entries.into_iter().unzip();
        // Strictly non-zero values: DIA storage elides explicit zeros.
        let vals: Vec<f64> = (0..rows.len()).map(|i| 1.5 + i as f64).collect();
        DynamicMatrix::from(CooMatrix::from_triplets(nrows, ncols, &rows, &cols, &vals).unwrap())
    })
}

/// Every field of `a` against the naive definitions over `coo`.
fn assert_matches_definitions(a: &Analysis, m: &DynamicMatrix<f64>, coo: &CooMatrix<f64>, what: &str) {
    let (nrows, ncols) = (coo.nrows(), coo.ncols());
    let entries: Vec<(usize, usize)> = coo.iter().map(|(r, c, _)| (r, c)).collect();

    assert_eq!((a.nrows, a.ncols, a.source_nnz), (nrows, ncols, m.nnz()), "{what}: shape");
    assert_eq!(a.stats, stats_of(m, ALPHA), "{what}: stats");
    assert_eq!(a.structure_hash, m.structure_hash(), "{what}: hash");
    let row_hist = row_nnz_histogram(m);
    assert_eq!(a.row_hist, row_hist, "{what}: row histogram");
    let mut diag_pop = vec![0u32; if nrows == 0 || ncols == 0 { 0 } else { nrows + ncols - 1 }];
    entries.iter().for_each(|&(r, c)| diag_pop[c + nrows - 1 - r] += 1);
    assert_eq!(a.diag_pop, diag_pop, "{what}: diagonal populations");

    // Entry-order facts.
    let near = |w: &[(usize, usize)]| w[0].0 == w[1].0 && w[1].1 - w[0].1 <= GATHER_LINE;
    assert_eq!(a.entries.gather_hits, entries.windows(2).filter(|w| near(w)).count(), "{what}: locality");
    for (i, b) in BSR_BLOCK_DIMS.into_iter().enumerate() {
        let blocks: BTreeSet<(usize, usize)> = entries.iter().map(|&(r, c)| (r / b, c / b)).collect();
        let counted = a.entries.bsr_blocks.expect("the full walk counts blocks");
        assert_eq!(counted[i], blocks.len(), "{what}: {b}x{b} blocks");
    }

    // Row-side reductions.
    let lens: Vec<usize> = row_hist.iter().map(|&l| l as usize).collect();
    let prefix: Vec<u64> = std::iter::once(0)
        .chain(lens.iter().scan(0u64, |acc, &l| {
            Some({
                *acc += l as u64;
                *acc
            })
        }))
        .collect();
    assert_eq!(a.rows.prefix, prefix, "{what}: prefix sums");
    let group_max: usize = lens.chunks(ROW_GROUP).map(|g| g.iter().copied().max().unwrap_or(0)).sum();
    assert_eq!(a.rows.group_max_sum, group_max as u64, "{what}: group maxima");
    let max = lens.iter().copied().max().unwrap_or(0);
    let nonempty: Vec<usize> = lens.iter().copied().filter(|&l| l > 0).collect();
    assert_eq!(a.rows.lengths.max_len(), max, "{what}");
    assert_eq!(a.rows.lengths.nonempty_rows(), nonempty.len(), "{what}");
    for ladder in [default_bucket_widths(max), vec![2, 5], vec![1, 3, 1000]] {
        // Each row in the first bucket wide enough; wider than all, at its
        // own length in one further bucket.
        let bucket = |l: usize| ladder.iter().position(|&w| w >= l).unwrap_or(ladder.len());
        let padded: usize = nonempty.iter().map(|&l| ladder.get(bucket(l)).copied().unwrap_or(l)).sum();
        let buckets: BTreeSet<usize> = nonempty.iter().map(|&l| bucket(l)).collect();
        let fit = a.rows.lengths.ladder_fit(&ladder);
        assert_eq!((fit.padded, fit.buckets), (padded, buckets.len()), "{what}: ladder {ladder:?}");
    }
    assert_eq!(a.rows.bell, a.rows.lengths.ladder_fit(&default_bucket_widths(max)), "{what}: default ladder");
    for value_bytes in [4, 8] {
        let width = optimal_hyb_width(&lens, value_bytes);
        assert_eq!(a.hyb_width(value_bytes), width, "{what}: HYB width");
        let spill: usize = lens.iter().map(|&l| l.saturating_sub(width)).sum();
        assert_eq!(a.rows.lengths.spill_beyond(width), spill, "{what}: HYB spill");
    }
    let mut sorted = nonempty.clone();
    sorted.sort_unstable();
    let fractions = [0.0, 0.5, 0.75, 0.9, 1.0];
    let at = |f: f64| sorted[((sorted.len() - 1) as f64 * f).round() as usize];
    let quantiles = (!sorted.is_empty()).then(|| fractions.map(at));
    assert_eq!(a.rows.lengths.quantiles(fractions), quantiles, "{what}: quantiles");

    // Diagonal side.
    let threshold = true_diag_threshold(nrows, ncols, ALPHA);
    let on_true: usize = diag_pop.iter().map(|&p| p as usize).filter(|&p| p >= threshold).sum();
    assert_eq!(a.true_diag_nnz, on_true, "{what}: true-diagonal entries");
}

/// The walk that leaves the block counts out is the fused walk in every
/// other field, and the counts taken later — one walk of `m` that does
/// nothing else — complete it to `fused` bitwise.
fn assert_counts_taken_later_equal_the_fused_walks(m: &DynamicMatrix<f64>, fused: &Analysis, what: &str) {
    assert!(fused.entries.bsr_blocks.is_some(), "{what}: the fused walk counts blocks");
    let mut lazy = Analysis::without_block_counts(m, ALPHA, m.structure_hash(), None);
    assert_eq!(lazy.entries.bsr_blocks, None, "{what}");
    let mut stripped = fused.clone();
    stripped.entries.bsr_blocks = None;
    assert_eq!(lazy, stripped, "{what}: every field but the counts");
    lazy.take_block_counts(m);
    assert_eq!(&lazy, fused, "{what}: counts taken later");
    // Taking them twice takes them once.
    lazy.take_block_counts(m);
    assert_eq!(&lazy, fused, "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_analysis_equals_the_independent_definitions(base in arb_matrix()) {
        let coo = base.to_coo();
        let opts = ConvertOptions { min_padded_allowance: 1 << 24, ..Default::default() };
        let reference_view = analyze(&base);
        for &fmt in &ALL_FORMATS {
            let m = base.to_format(fmt, &opts).unwrap();
            let a = Analysis::of(&m, ALPHA);
            assert_matches_definitions(&a, &m, &coo, &format!("{fmt}"));
            prop_assert_eq!(&Analysis::of_auto_with_hash(&m, ALPHA, m.structure_hash()), &a, "{}", fmt);
            assert_counts_taken_later_equal_the_fused_walks(&m, &a, &format!("{fmt}"));
            // The machine view is a function of the pattern, whatever the
            // format it was walked in.
            prop_assert_eq!(&analyze_from(&m, &a), &reference_view, "{}: machine view", fmt);
        }
    }
}

/// Blocks that the same few block columns hold in every block row, rows
/// that enter a block late, and a hub column: each block is counted once
/// however many of its rows and columns are occupied.
#[test]
fn blocks_shared_by_many_rows_are_counted_once() {
    let (nrows, ncols) = (203usize, 37usize);
    let (mut rows, mut cols) = (Vec::new(), Vec::new());
    for r in 0..nrows {
        for c in [r % 5, r % 5 + 8, 30] {
            rows.push(r);
            cols.push(c);
        }
    }
    let vals = vec![1.0f64; rows.len()];
    let base = DynamicMatrix::from(CooMatrix::from_triplets(nrows, ncols, &rows, &cols, &vals).unwrap());
    let coo = base.to_coo();
    let opts = ConvertOptions { min_padded_allowance: 1 << 24, ..Default::default() };
    for &fmt in &ALL_FORMATS {
        let m = base.to_format(fmt, &opts).unwrap();
        assert_matches_definitions(&Analysis::of(&m, ALPHA), &m, &coo, &format!("{fmt}"));
    }
}

/// One matrix of every corpus class, small enough for every format.
fn one_of_every_class() -> Vec<(MatrixClass, DynamicMatrix<f64>)> {
    let spec = CorpusSpec { max_n: 400, ..CorpusSpec::small(400) };
    let mut seen: Vec<(MatrixClass, DynamicMatrix<f64>)> = Vec::new();
    for entry in spec.iter() {
        if !seen.iter().any(|(class, _)| *class == entry.class) {
            seen.push((entry.class, DynamicMatrix::from(entry.matrix)));
        }
    }
    assert_eq!(
        seen.len(),
        15,
        "the corpus mix has 15 classes: {:?}",
        seen.iter().map(|s| s.0).collect::<Vec<_>>()
    );
    seen
}

/// Counts taken later equal the fused walk's for every corpus class in every
/// source format — COO by runs, CSR by offsets, the six row-major walkers.
#[test]
fn counts_taken_later_equal_the_fused_walks_for_every_class_and_format() {
    let opts =
        ConvertOptions { min_padded_allowance: 1 << 26, max_fill: f64::INFINITY, ..Default::default() };
    for (class, base) in one_of_every_class() {
        for &fmt in &ALL_FORMATS {
            let what = format!("{} as {fmt}", class.name());
            let m = base.to_format(fmt, &opts).unwrap_or_else(|e| panic!("{what}: {e}"));
            let fused = Analysis::of(&m, ALPHA);
            assert_counts_taken_later_equal_the_fused_walks(&m, &fused, &what);
            // The view off the late counts is the view off the fused walk.
            let mut lazy = Analysis::without_block_counts(&m, ALPHA, m.structure_hash(), None);
            let mut view = analyze_from(&m, &lazy);
            assert_eq!(view.bsr_blocks, None, "{what}");
            lazy.take_block_counts(&m);
            view.bsr_blocks = lazy.entries.bsr_blocks;
            assert_eq!(view, analyze_from(&m, &fused), "{what}: machine view");
        }
    }
}

/// The machine view assembled from the analysis alone — no matrix read, no
/// block counts, no remainder histogram — and completed later is the full
/// view, bitwise: for every corpus class from COO and CSR sources. Each walk
/// is taken once, and only when there is one to take.
#[test]
fn views_completed_later_equal_the_full_views_for_every_class() {
    let opts = ConvertOptions::default();
    let mut mixed_splits = 0;
    for (class, base) in one_of_every_class() {
        for fmt in [FormatId::Coo, FormatId::Csr] {
            let what = format!("{} as {fmt}", class.name());
            let m = base.to_format(fmt, &opts).unwrap();
            let full = Analysis::of(&m, ALPHA);
            let mut lazy = Analysis::without_block_counts(&m, ALPHA, m.structure_hash(), None);
            let mut stripped = full.clone();
            stripped.entries.bsr_blocks = None;
            assert_eq!(lazy, stripped, "{what}: the walk without counts");

            let want = analyze_from(&m, &full);
            let mixed = matches!(want.hdc_remainder, Some(HdcRemainder::Rows { .. }));
            mixed_splits += usize::from(mixed);
            passes::reset();
            let mut view = assemble(&lazy, std::mem::size_of::<f64>());
            assert_eq!(passes::count(), 0, "{what}: assembling reads no matrix");
            assert!(!view.prices(FormatId::Bsr), "{what}");
            assert_eq!(view.prices(FormatId::Hdc), !mixed, "{what}");
            assert!(ALL_FORMATS.into_iter().filter(|f| !view.prices(*f)).count() <= 2, "{what}");
            view.take_pricing_walks(&m, &mut lazy);
            assert_eq!(passes::count(), 1 + u64::from(mixed), "{what}: the walks taken");
            assert_eq!(view, want, "{what}: view completed later");
            assert_eq!(lazy, full, "{what}: analysis completed with it");
            // Taking them twice takes them once.
            view.take_pricing_walks(&m, &mut lazy);
            assert_eq!(passes::count(), 1 + u64::from(mixed), "{what}");
            assert_eq!(view, want, "{what}");
        }
    }
    assert!(mixed_splits >= 10, "the corpus must exercise the remainder walk: {mixed_splits} mixed splits");
}

/// What a panic said.
fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(f).expect_err("must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| payload.downcast_ref::<&str>().unwrap().to_string())
}

/// An absent count is never a zero (BSR priced as free): every reader
/// panics, and the message names who read — the accessor's caller, here this
/// file; through the engine or the parameter proposal, theirs.
#[test]
fn reading_an_absent_block_count_panics_naming_the_reader() {
    let m = dense_blocks(8, 6);
    let view = analyze_from(&m, &Analysis::without_block_counts(&m, ALPHA, m.structure_hash(), None));
    let engine = VirtualEngine::new(systems::cirrus(), Backend::OpenMp);
    let absent = "read a BSR block count from a machine view assembled without block counts";
    for (reader, message) in [
        ("tests/analysis_differential.rs", panic_message(|| assert!(view.bsr_padded(4) > 0))),
        ("tests/analysis_differential.rs", panic_message(|| assert!(view.bsr_nblocks(2) > 0))),
        ("tests/analysis_differential.rs", panic_message(|| assert!(view.bsr_fill(8) > 0.0))),
        ("src/params.rs", panic_message(|| assert!(!propose_params(FormatId::Bsr, &view).is_default()))),
        ("src/engine.rs", panic_message(|| assert!(engine.is_viable(FormatId::Bsr, &view)))),
        ("src/engine.rs", panic_message(|| assert!(engine.spmm_per_rhs_time(FormatId::Bsr, &view) > 0.0))),
        ("src/cpu.rs", panic_message(|| assert!(engine.spmv_time(FormatId::Bsr, &view) > 0.0))),
    ] {
        assert!(message.contains(absent) && message.contains(reader), "{reader}: {message}");
    }
    // Every other format is priced from such a view, as from a full one.
    let full = analyze(&m);
    for fmt in ALL_FORMATS.into_iter().filter(|&f| f != FormatId::Bsr) {
        assert_eq!(engine.is_viable(fmt, &view), engine.is_viable(fmt, &full), "{fmt}");
        assert_eq!(engine.spmv_time(fmt, &view), engine.spmv_time(fmt, &full), "{fmt}");
        assert_eq!(propose_params(fmt, &view), propose_params(fmt, &full), "{fmt}");
    }
}

/// A band of true diagonals with strays off it: a mixed HDC split whose CSR
/// remainder has to be walked for, viable in every format.
fn band_with_strays(n: usize) -> DynamicMatrix<f64> {
    let (mut rows, mut cols) = (Vec::new(), Vec::new());
    for r in 0..n {
        let strays = (r % 9 == 0).then_some((r * 37 + 11) % n).filter(|c| c.abs_diff(r) > 2);
        let mut row: Vec<usize> = (r.saturating_sub(2)..(r + 3).min(n)).chain(strays).collect();
        row.sort_unstable();
        rows.extend(std::iter::repeat_n(r, row.len()));
        cols.extend(row);
    }
    let vals: Vec<f64> = (0..rows.len()).map(|i| 0.5 + (i % 7) as f64).collect();
    DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
}

/// An absent remainder is never an empty one (HDC's CSR part priced as
/// free): its three accessors, the CPU model's HDC price and the GPU model's
/// panic naming who read. What HDC asks of the view besides — viability,
/// parameters, the SpMM slope (slots, not rows) — is answered as from a full
/// one, like every other format.
#[test]
fn reading_an_absent_remainder_panics_naming_the_reader() {
    let m = band_with_strays(300);
    let view = assemble(&Analysis::of(&m, ALPHA), std::mem::size_of::<f64>());
    assert!(view.prices(FormatId::Bsr) && !view.prices(FormatId::Hdc));
    let cpu = VirtualEngine::new(systems::cirrus(), Backend::OpenMp);
    let gpu = VirtualEngine::new(systems::cirrus(), Backend::Cuda);
    let absent = "read the HDC remainder from a machine view assembled without the remainder walk";
    for (reader, message) in [
        ("tests/analysis_differential.rs", panic_message(|| assert!(!view.hdc_csr_hist().is_empty()))),
        ("tests/analysis_differential.rs", panic_message(|| assert!(view.hdc_csr_max_row() > 0))),
        ("tests/analysis_differential.rs", panic_message(|| assert!(view.warp_iters_hdc_csr() > 0))),
        (
            "tests/analysis_differential.rs",
            panic_message(|| assert!(view.hdc_csr_balanced_imbalance(4) > 0.0)),
        ),
        ("src/cpu.rs", panic_message(|| assert!(cpu.spmv_time(FormatId::Hdc, &view) > 0.0))),
        ("src/gpu.rs", panic_message(|| assert!(gpu.spmv_time(FormatId::Hdc, &view) > 0.0))),
    ] {
        assert!(message.contains(absent) && message.contains(reader), "{reader}: {message}");
    }
    let full = analyze(&m);
    assert!(matches!(full.hdc_remainder, Some(HdcRemainder::Rows { .. })));
    for engine in [&cpu, &gpu] {
        assert_eq!(engine.is_viable(FormatId::Hdc, &view), engine.is_viable(FormatId::Hdc, &full));
        assert_eq!(
            engine.spmm_per_rhs_time(FormatId::Hdc, &view),
            engine.spmm_per_rhs_time(FormatId::Hdc, &full)
        );
        for fmt in ALL_FORMATS.into_iter().filter(|&f| f != FormatId::Hdc) {
            assert_eq!(engine.spmv_time(fmt, &view), engine.spmv_time(fmt, &full), "{fmt}");
        }
    }
    assert_eq!(propose_params(FormatId::Hdc, &view), propose_params(FormatId::Hdc, &full));
}

/// `nblocks` dense `b x b` blocks on the block diagonal, as COO: BSR at its
/// best, and `b x b` the cheapest blocking of it.
fn dense_blocks(b: usize, nblocks: usize) -> DynamicMatrix<f64> {
    let n = b * nblocks;
    let (mut rows, mut cols) = (Vec::new(), Vec::new());
    for k in 0..nblocks {
        for i in 0..b {
            for j in 0..b {
                rows.push(k * b + i);
                cols.push(k * b + j);
            }
        }
    }
    let vals: Vec<f64> = (0..rows.len()).map(|i| 0.5 + (i % 7) as f64).collect();
    DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
}

/// A model tuner answering `format` for everything: a tree fitted on one
/// label. It declares `prices_formats() == false`, so the service hands
/// it views without block counts.
fn tree_answering(format: FormatId) -> ModelTuner {
    let mut ds =
        Dataset::empty(NUM_FEATURES, morpheus_repro::morpheus::format::FORMAT_COUNT, vec![]).unwrap();
    for i in 0..8 {
        let row: Vec<f64> = (0..NUM_FEATURES).map(|f| (i * f) as f64).collect();
        ds.push(&row, format.index()).unwrap();
    }
    ModelTuner::new(DecisionTree::fit(&ds, &TreeParams::default()).unwrap()).unwrap()
}

/// A tuner answering `format` with the parameters proposed off the view it
/// is handed — the benchmark's `FixedFormat`. The default
/// `prices_formats()` stands: it gets full views.
struct Fixed(FormatId);

impl FormatTuner<f64> for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn select(
        &self,
        _: &DynamicMatrix<f64>,
        a: &morpheus_repro::machine::MatrixAnalysis,
        _: &VirtualEngine,
        op: Op,
    ) -> TuneDecision {
        TuneDecision { format: self.0, params: propose_params(self.0, a), op, cost: TuningCost::default() }
    }
}

fn service_over<T>(tuner: T) -> OracleService<T> {
    Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(tuner)
        .workers(1)
        .build_service()
        .unwrap()
}

fn exported<T>(service: &OracleService<T>) -> String {
    let mut buf = Vec::new();
    service.export_decisions(&mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// A BSR decision comes out the same whichever way the counts were taken:
/// by the fused walk, for a tuner that prices from the view; by the walk of
/// their own, once a model tuner has answered BSR off a view without them;
/// or never, for a decision seeded from a file. Same parameters (8x8 here, not the 4x4 default: the counts were
/// really read), same converted matrix, bitwise the same `y` — what
/// analysing eagerly and converting by hand gives.
#[test]
fn a_bsr_decision_is_the_same_however_late_its_counts_were_taken() {
    let m = dense_blocks(8, 40);
    let eager = analyze(&m);
    let params = propose_params(FormatId::Bsr, &eager);
    assert_eq!(params.normalized_block(), (8, 8), "{params:?}");
    let opts = ConvertOptions { params, ..Default::default() };
    let (want_matrix, _) =
        m.to_format_with(FormatId::Bsr, &opts, Some(&Analysis::of(&m, opts.true_diag_alpha))).unwrap();
    let x: Vec<f64> = (0..m.ncols()).map(|i| 1.0 + (i % 11) as f64 * 0.25).collect();
    let mut want_y = vec![f64::NAN; m.nrows()];
    ExecPlan::build(&want_matrix, 1, Some(&Analysis::of(&m, opts.true_diag_alpha)))
        .spmv_unpooled(&want_matrix, &x, &mut want_y)
        .unwrap();

    let served_as_by_hand = |how: &str, handle: &MatrixHandle<f64>, y: &[f64]| {
        assert_eq!(handle.format_id(), FormatId::Bsr, "{how}");
        assert_eq!(handle.matrix(), &want_matrix, "{how}: converted matrix");
        assert!(y.iter().zip(&want_y).all(|(a, b)| a.to_bits() == b.to_bits()), "{how}: y");
    };
    let mut y = vec![f64::NAN; m.nrows()];

    let priced = service_over(Fixed(FormatId::Bsr));
    assert!(FormatTuner::<f64>::prices_formats(priced.tuner()));
    let by_price = priced.register(m.clone()).unwrap();
    priced.spmv(&by_price, &x, &mut y).unwrap();
    served_as_by_hand("priced", &by_price, &y);
    let decisions = exported(&priced);
    assert!(decisions.contains(&format!(" BSR {}", params.to_token())), "{decisions}");

    let modelled = service_over(tree_answering(FormatId::Bsr));
    assert!(!FormatTuner::<f64>::prices_formats(modelled.tuner()));
    let by_model = modelled.register(m.clone()).unwrap();
    modelled.spmv(&by_model, &x, &mut y).unwrap();
    served_as_by_hand("modelled", &by_model, &y);
    assert_eq!(exported(&modelled), decisions, "the decision, parameters included");

    // Seeded from the file: a hit.
    let seeded = service_over(tree_answering(FormatId::Csr));
    assert_eq!(seeded.import_decisions(std::io::Cursor::new(decisions.as_bytes())).unwrap(), 1);
    let by_seed = seeded.register(m.clone()).unwrap();
    assert!(by_seed.report().cache_hit);
    seeded.spmv(&by_seed, &x, &mut y).unwrap();
    served_as_by_hand("seeded", &by_seed, &y);
}

/// The HDC twin: the remainder walked for up front, for a tuner that prices
/// from the view; after a model tuner has answered HDC off a view without
/// it; or not at all, for a decision seeded from a file. Same decision, same
/// converted matrix, bitwise the same `y`.
#[test]
fn an_hdc_decision_is_the_same_however_late_its_remainder_was_taken() {
    let m = band_with_strays(1_200);
    let opts = ConvertOptions::default();
    let analysis = Analysis::of(&m, opts.true_diag_alpha);
    assert!(0 < analysis.true_diag_nnz && analysis.true_diag_nnz < analysis.nnz(), "a mixed split");
    let (want_matrix, _) = m.to_format_with(FormatId::Hdc, &opts, Some(&analysis)).unwrap();
    let x: Vec<f64> = (0..m.ncols()).map(|i| 1.0 + (i % 11) as f64 * 0.25).collect();
    let mut want_y = vec![f64::NAN; m.nrows()];
    ExecPlan::build(&want_matrix, 1, Some(&analysis)).spmv_unpooled(&want_matrix, &x, &mut want_y).unwrap();

    let served_as_by_hand = |how: &str, handle: &MatrixHandle<f64>, y: &[f64]| {
        assert_eq!(handle.format_id(), FormatId::Hdc, "{how}");
        assert_eq!(handle.matrix(), &want_matrix, "{how}: converted matrix");
        assert!(y.iter().zip(&want_y).all(|(a, b)| a.to_bits() == b.to_bits()), "{how}: y");
    };
    let mut y = vec![f64::NAN; m.nrows()];

    let priced = service_over(Fixed(FormatId::Hdc));
    passes::reset();
    let by_price = priced.register(m.clone()).unwrap();
    assert_eq!(passes::count(), 3, "hash, walk, remainder");
    priced.spmv(&by_price, &x, &mut y).unwrap();
    served_as_by_hand("priced", &by_price, &y);
    let decisions = exported(&priced);
    assert!(decisions.contains(" HDC "), "{decisions}");

    let modelled = service_over(tree_answering(FormatId::Hdc));
    passes::reset();
    let by_model = modelled.register(m.clone()).unwrap();
    assert_eq!(passes::count(), 4, "hash, walk; then, HDC being the answer, block counts and remainder");
    modelled.spmv(&by_model, &x, &mut y).unwrap();
    served_as_by_hand("modelled", &by_model, &y);
    assert_eq!(exported(&modelled), decisions, "the decision, parameters included");

    // Any other answer walks for neither — and a BELL one, settled off the
    // row side, not even for the analysis: the key hash.
    let elsewhere = service_over(tree_answering(FormatId::Bell));
    passes::reset();
    assert_eq!(elsewhere.register(m.clone()).unwrap().format_id(), FormatId::Bell);
    assert_eq!(passes::count(), 1, "hash");

    let seeded = service_over(tree_answering(FormatId::Csr));
    assert_eq!(seeded.import_decisions(std::io::Cursor::new(decisions.as_bytes())).unwrap(), 1);
    let by_seed = seeded.register(m.clone()).unwrap();
    assert!(by_seed.report().cache_hit);
    seeded.spmv(&by_seed, &x, &mut y).unwrap();
    served_as_by_hand("seeded", &by_seed, &y);
}

/// No sequence of public calls has a model tuner's service read a block
/// count that was not taken (a panic): BSR and BELL answers; COO, CSR and
/// BSR sources, the last priced for its extraction from block counts;
/// whole, partitioned (served whole by default, sharded when forced) and
/// streamed registrations, per-call tunes, repeats, and decisions seeded
/// from a file.
#[test]
fn no_public_call_sequence_reads_an_absent_block_count() {
    let opts = ConvertOptions::default();
    let base = dense_blocks(4, 96);
    let sources = [
        base.clone(),
        base.to_format(FormatId::Csr, &opts).unwrap(),
        base.to_format(FormatId::Bsr, &opts).unwrap(),
    ];
    let x = vec![1.0f64; base.ncols()];
    for answer in [FormatId::Bsr, FormatId::Bell, FormatId::Csr] {
        for gate in [true, false] {
            let policy =
                PartitionPolicy { target_shard_nnz: Some(256), cost_gate: gate, ..Default::default() };
            let service = Oracle::builder()
                .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
                .tuner(tree_answering(answer))
                .workers(1)
                .partition_policy(policy)
                .build_service()
                .unwrap();
            for source in &sources {
                let what = format!("{answer} from {} (gate {gate})", source.format_id());
                let mut y = vec![f64::NAN; base.nrows()];
                for _ in 0..2 {
                    let whole = service.register(source.clone()).unwrap();
                    assert_eq!(whole.format_id(), answer, "{what}");
                    service.spmv(&whole, &x, &mut y).unwrap();
                    let sharded = service.register_partitioned(source.clone()).unwrap();
                    assert!(gate || sharded.is_partitioned(), "{what}");
                    service.spmv(&sharded, &x, &mut y).unwrap();
                    let mut kept = source.clone();
                    service.tune_and_spmv(&mut kept, &x, &mut y).unwrap();
                    service.tune_and_spmm(&mut kept, &x, &mut y, 1).unwrap();
                    assert_eq!(service.tune(&mut kept).unwrap().chosen, answer, "{what}");
                }
            }
            let streamed =
                service.register_stream::<f64, _>(base.nrows(), base.ncols(), base.to_coo().iter()).unwrap();
            assert!(streamed.num_shards() > 1, "{answer}");
            // The same decisions, seeded: hits.
            let restarted = service_over(tree_answering(FormatId::Coo));
            restarted.import_decisions(std::io::Cursor::new(exported(&service).as_bytes())).unwrap();
            for source in &sources {
                let handle = restarted.register(source.clone()).unwrap();
                assert!(handle.report().cache_hit && handle.format_id() == answer, "{answer}");
            }
        }
    }
}

/// The CSR matrices the walk-free path is held to: the small corpus and one
/// matrix of every corpus class (each a `morpheus_corpus::gen` generator's).
fn walk_free_cases() -> Vec<(String, DynamicMatrix<f64>)> {
    let opts = ConvertOptions::default();
    let spec = CorpusSpec::small(48);
    let corpus = spec.iter().map(|e| (e.name, DynamicMatrix::from(e.matrix)));
    let classes = one_of_every_class().into_iter().map(|(class, m)| (class.name().to_string(), m));
    let mut cases: Vec<(String, DynamicMatrix<f64>)> =
        corpus.chain(classes).map(|(name, m)| (name, m.to_format(FormatId::Csr, &opts).unwrap())).collect();
    cases.push((
        "empty".into(),
        DynamicMatrix::from(CooMatrix::<f64>::new(7, 5)).to_format(FormatId::Csr, &opts).unwrap(),
    ));
    cases.push(("tall".into(), band_with_strays(300).to_format(FormatId::Csr, &opts).unwrap()));
    cases
}

/// The row side reads no entry and agrees with the full walk on every row
/// fact; the bounds contain the walked features (and are points on a walked
/// artifact); and the walk completes the row side to the full walk's
/// artifact bitwise — in one traversal, on one worker or four.
#[test]
fn the_walk_bounds_hold_and_the_walk_completes_the_row_side_bitwise() {
    let pool = morpheus_repro::parallel::ThreadPool::new(4);
    for (name, m) in walk_free_cases() {
        let DynamicMatrix::Csr(csr) = &m else { unreachable!("the cases are CSR") };
        let hash = m.structure_hash();
        let full = Analysis::without_block_counts(&m, ALPHA, hash, None);
        passes::reset();
        let rows = Analysis::of_rows(csr, ALPHA, hash);
        let bounds = rows.walk_bounds(csr);
        assert_eq!(passes::count(), 0, "{name}: the row side and the sample read no traversal");
        assert!(!rows.walked && full.walked, "{name}");
        assert_eq!((rows.row_hist.as_slice(), &rows.rows), (full.row_hist.as_slice(), &full.rows), "{name}");
        let (a, b) = (&rows.stats, &full.stats);
        let row_facts = |s: &morpheus_repro::morpheus::stats::MatrixStats| {
            let floats = [s.row_nnz_mean, s.row_nnz_std, s.bucket_skew, s.true_diag_alpha].map(f64::to_bits);
            ([s.nrows, s.ncols, s.nnz, s.row_nnz_min, s.row_nnz_max], floats)
        };
        assert_eq!(row_facts(a), row_facts(b), "{name}: row statistics");

        let within = |[lo, hi]: [usize; 2], v: usize| lo <= v && v <= hi;
        assert!(within(bounds.ndiags, b.ndiags), "{name}: ndiags {} in {:?}", b.ndiags, bounds.ndiags);
        assert!(within(bounds.ntrue_diags, b.ntrue_diags), "{name}: {} in {:?}", b.ntrue_diags, bounds);
        let [lo, hi] = bounds.block_density;
        assert!(lo <= b.block_density && b.block_density <= hi, "{name}: block density");
        let points = full.walk_bounds(csr);
        assert_eq!(points.ndiags, [b.ndiags; 2], "{name}");
        assert_eq!(points.ntrue_diags, [b.ntrue_diags; 2], "{name}");
        assert_eq!(points.block_density.map(f64::to_bits), [b.block_density.to_bits(); 2], "{name}");

        for pool in [None, Some(&pool)] {
            let mut completed = rows.clone();
            passes::reset();
            completed.take_entry_walk(csr, pool);
            assert_eq!(passes::count(), 1, "{name}: one walk");
            assert_eq!(completed, full, "{name}: the completed artifact");
            assert_eq!(format!("{completed:?}"), format!("{full:?}"), "{name}: bit for bit");
            completed.take_entry_walk(csr, pool);
            assert_eq!(passes::count(), 1, "{name}: a walked artifact is not walked again");
        }
    }
}

/// A tree, a forest and a GBT fitted like the benchmark's selector: host
/// labels of the engine the services below run on, over a small corpus.
fn fitted_models() -> Vec<morpheus_repro::ml::Model> {
    use morpheus_repro::ml::{ForestParams, GbtParams, GradientBoostedTrees, RandomForest};
    use morpheus_repro::oracle::FeatureVector;
    let engine = VirtualEngine::new(systems::cirrus(), Backend::OpenMp);
    let mut ds =
        Dataset::empty(NUM_FEATURES, morpheus_repro::morpheus::format::FORMAT_COUNT, vec![]).unwrap();
    for entry in CorpusSpec::small(120).iter() {
        let view = analyze(&DynamicMatrix::from(entry.matrix));
        ds.push(FeatureVector::from_stats(&view.stats).as_slice(), engine.profile(&view).optimal.index())
            .unwrap();
    }
    vec![
        DecisionTree::fit(&ds, &TreeParams::default()).unwrap().into(),
        RandomForest::fit(&ds, &ForestParams { n_estimators: 12, seed: 1, ..Default::default() })
            .unwrap()
            .into(),
        GradientBoostedTrees::fit(&ds, &GbtParams { n_rounds: 12, ..Default::default() }).unwrap().into(),
    ]
}

/// Every decision taken without the walk is the walked decision — format and
/// parameters — for all three model kinds, directly and through a service:
/// one without a collector (which decides off the row side where it can)
/// registers every case into the decisions a service with a collector
/// (which always walks) registers them into. The row side settles at least
/// one case in eight for every kind.
#[test]
fn every_decision_without_the_walk_is_the_walked_one_for_every_model_kind() {
    use morpheus_repro::oracle::adapt::{CollectorConfig, SampleCollector};
    let engine = VirtualEngine::new(systems::cirrus(), Backend::OpenMp);
    let cases = walk_free_cases();
    for model in fitted_models() {
        let kind = model.kind().token();
        let tuner = ModelTuner::new(model).unwrap();
        let mut settled = 0usize;
        for (name, m) in &cases {
            let DynamicMatrix::Csr(csr) = m else { unreachable!("the cases are CSR") };
            let hash = m.structure_hash();
            let walked = assemble(&Analysis::without_block_counts(m, ALPHA, hash, None), 8);
            let want = tuner.select(m, &walked, &engine, Op::Spmv);
            let rows = Analysis::of_rows(csr, ALPHA, hash);
            let view = assemble(&rows, 8);
            assert!(!view.walked && !view.prices(FormatId::Dia) && !view.prices(FormatId::Hdc), "{name}");
            if let Some(got) = tuner.select_unwalked(m, &view, &rows.walk_bounds(csr), &engine, Op::Spmv) {
                assert_eq!((got.format, got.params), (want.format, want.params), "{kind} {name}");
                assert!(
                    !matches!(got.format, FormatId::Dia | FormatId::Hdc | FormatId::Bsr),
                    "{kind} {name}"
                );
                settled += 1;
            }
        }
        assert!(settled * 8 >= cases.len(), "{kind}: the row side settled only {settled} of {}", cases.len());

        let plain = service_over(tuner.clone());
        let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
        let walking = Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(tuner)
            .workers(1)
            .collector(collector)
            .build_service()
            .unwrap();
        for (name, m) in &cases {
            let (a, b) = (plain.register(m.clone()).unwrap(), walking.register(m.clone()).unwrap());
            assert_eq!((a.format_id(), a.matrix()), (b.format_id(), b.matrix()), "{kind} {name}");
        }
        assert_eq!(exported(&plain), exported(&walking), "{kind}: the decisions, parameters included");
    }
}

/// DIA and HDC never plan from an artifact without the walk: a conversion
/// handed one finds its diagonals in a scan of the arrays (one counted
/// traversal) and stores what a walked plan stores. A service walks for DIA,
/// HDC and BSR answers, and a walk-free answer's registration of a CSR or
/// COO source reads the matrix once, for its key.
#[test]
fn dia_and_hdc_are_never_planned_from_an_unwalked_artifact() {
    let opts =
        ConvertOptions { min_padded_allowance: 1 << 26, max_fill: f64::INFINITY, ..Default::default() };
    for (name, m) in walk_free_cases().into_iter().step_by(3) {
        let DynamicMatrix::Csr(csr) = &m else { unreachable!("the cases are CSR") };
        let hash = m.structure_hash();
        let (rows, full) = (Analysis::of_rows(csr, ALPHA, hash), Analysis::of(&m, ALPHA));
        for format in [FormatId::Dia, FormatId::Hdc] {
            passes::reset();
            let (planned, _) = m.to_format_with(format, &opts, Some(&full)).unwrap();
            assert_eq!(passes::count(), 0, "{name} {format}: planned off the walked artifact");
            let (scanned, _) = m.to_format_with(format, &opts, Some(&rows)).unwrap();
            let scans = u64::from(m.nnz() > 0);
            assert_eq!(passes::count(), scans, "{name} {format}: the unwalked artifact is not a plan");
            assert_eq!(format!("{scanned:?}"), format!("{planned:?}"), "{name} {format}");
        }
    }

    let m = band_with_strays(1_200);
    let csr = m.to_format(FormatId::Csr, &ConvertOptions::default()).unwrap();
    for format in [FormatId::Dia, FormatId::Hdc, FormatId::Bsr] {
        let service = service_over(tree_answering(format));
        passes::reset();
        assert_eq!(service.register(m.clone()).unwrap().report().predicted, format);
        assert!(passes::count() >= 2, "{format}: the key hash and the walk, at least");
    }
    for format in [FormatId::Coo, FormatId::Csr, FormatId::Bell] {
        for source in [&m, &csr] {
            let service = service_over(tree_answering(format));
            passes::reset();
            let handle = service.register(source.clone()).unwrap();
            assert_eq!(handle.format_id(), format);
            assert_eq!(passes::count(), 1, "{format} from {}: the key hash alone", source.format_id());
        }
    }
}
