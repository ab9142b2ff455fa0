//! Integration tests for the `Oracle` session facade: cache accounting,
//! `f32`/`f64` parity across the corpus generators, operation awareness and
//! the CSR fallback path.

use morpheus_repro::corpus::CorpusSpec;
use morpheus_repro::machine::{systems, Backend, MatrixAnalysis, Op, VirtualEngine};
use morpheus_repro::morpheus::format::FormatId;
use morpheus_repro::morpheus::spmm::spmm_serial;
use morpheus_repro::morpheus::{ConvertOptions, CooMatrix, DynamicMatrix};
use morpheus_repro::oracle::{FormatTuner, Oracle, RunFirstTuner, TuneDecision, TuningCost};

#[test]
fn facade_and_service_agree_on_every_corpus_decision() {
    // The Oracle facade is a single-owner wrapper over OracleService; both
    // paths must produce identical decisions, costs and realized formats
    // for every structure in the corpus.
    let spec = CorpusSpec::small(10);
    let mut facade = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(2))
        .build()
        .unwrap();
    let service = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(2))
        .build_service()
        .unwrap();
    for entry in spec.iter() {
        let mut via_facade = DynamicMatrix::from(entry.matrix.clone());
        let mut via_service = DynamicMatrix::from(entry.matrix);
        let rf = facade.tune(&mut via_facade).unwrap();
        let rs = service.tune(&mut via_service).unwrap();
        assert_eq!(rf.chosen, rs.chosen, "{}", entry.name);
        assert_eq!(rf.predicted, rs.predicted, "{}", entry.name);
        assert_eq!(rf.cache_hit, rs.cache_hit, "{}", entry.name);
        assert_eq!(via_facade.format_id(), via_service.format_id(), "{}", entry.name);
    }
    assert_eq!(facade.cache_stats(), service.cache_stats(), "identical streams, identical accounting");
}

/// Rebuilds a corpus matrix with its values narrowed to `f32` (structure
/// identical by construction).
fn to_f32(m: &DynamicMatrix<f64>) -> DynamicMatrix<f32> {
    let coo = m.to_coo();
    let vals: Vec<f32> = coo.values().iter().map(|&v| v as f32).collect();
    DynamicMatrix::from(
        CooMatrix::from_triplets(coo.nrows(), coo.ncols(), coo.row_indices(), coo.col_indices(), &vals)
            .unwrap(),
    )
}

#[test]
fn cache_accounting_over_a_request_stream() {
    let spec = CorpusSpec::small(12);
    let mut oracle = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(3))
        .cache_capacity(64)
        .build()
        .unwrap();

    // First sweep: every structure is new.
    let mut chosen = Vec::new();
    for entry in spec.iter() {
        let mut m = DynamicMatrix::from(entry.matrix);
        let report = oracle.tune(&mut m).unwrap();
        assert!(!report.cache_hit, "{}", entry.name);
        assert!(report.cost.total() > 0.0);
        chosen.push(report.chosen);
    }
    let after_first = oracle.cache_stats();
    assert_eq!(after_first.misses, 12);
    assert_eq!(after_first.hits, 0);
    // One entry per structure: the post-conversion alias of a matrix that
    // switched format lives in a table of its own.
    assert_eq!(after_first.len, 12);

    // Second sweep over regenerated (structurally identical) matrices:
    // all hits, all free, same decisions.
    for (entry, &first_choice) in spec.iter().zip(&chosen) {
        let mut m = DynamicMatrix::from(entry.matrix);
        let report = oracle.tune(&mut m).unwrap();
        assert!(report.cache_hit, "{}", entry.name);
        assert!(report.cost.cache_hit);
        assert_eq!(report.cost.feature_extraction, 0.0);
        assert_eq!(report.cost.prediction, 0.0);
        assert_eq!(report.cost.profiling, 0.0);
        assert_eq!(report.chosen, first_choice, "{}", entry.name);
    }
    let after_second = oracle.cache_stats();
    assert_eq!(after_second.hits, 12);
    assert_eq!(after_second.misses, 12);
    assert!((after_second.hit_rate() - 0.5).abs() < 1e-12);
}

#[test]
fn retuning_the_same_matrix_is_a_free_cache_hit() {
    // The acceptance shape: tune the *same* matrix object twice. The first
    // call switches its format; the second must still be answered from
    // cache at zero cost.
    let mut oracle = Oracle::builder()
        .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
        .tuner(RunFirstTuner::new(5))
        .build()
        .unwrap();
    let n = 3000usize;
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    for i in 0..n {
        for d in [-1isize, 0, 1] {
            let j = i as isize + d;
            if j >= 0 && (j as usize) < n {
                rows.push(i);
                cols.push(j as usize);
            }
        }
    }
    let vals = vec![1.0f64; rows.len()];
    let mut m = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());

    let first = oracle.tune(&mut m).unwrap();
    assert!(!first.cache_hit);
    assert!(first.converted, "the tridiagonal system should leave COO");

    let second = oracle.tune(&mut m).unwrap();
    assert!(second.cache_hit);
    assert_eq!(second.cost.feature_extraction, 0.0);
    assert_eq!(second.cost.prediction, 0.0);
    assert_eq!(second.chosen, first.chosen);
    assert!(!second.converted, "already in the tuned format");
    assert_eq!(oracle.cache_stats().hits, 1);
}

#[test]
fn f32_tunes_end_to_end_in_parity_with_f64() {
    let spec = CorpusSpec::small(20);
    // One session serves both precisions: the tuners implement
    // `FormatTuner<f32>` and `FormatTuner<f64>` alike.
    let mut oracle = Oracle::builder()
        .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
        .tuner(RunFirstTuner::new(3))
        .build()
        .unwrap();

    for entry in spec.iter() {
        let mut m64 = DynamicMatrix::from(entry.matrix);
        let mut m32 = to_f32(&m64);

        let r64 = oracle.tune(&mut m64).unwrap();
        let r32 = oracle.tune(&mut m32).unwrap();

        // Identical structure: identical format selection (the decision
        // depends only on the sparsity pattern), each executed in its own
        // precision.
        assert_eq!(r32.predicted, r64.predicted, "{}", entry.name);
        assert_eq!(r32.chosen, r64.chosen, "{}", entry.name);
        assert_eq!(m32.format_id(), r32.chosen);
        assert_eq!(m64.format_id(), r64.chosen);

        // The scalar width is part of the cache key, so the f32 question
        // was answered by the tuner, not by the f64 cache entry.
        assert!(!r32.cache_hit, "{}", entry.name);

        // And the tuned f32 matrix actually multiplies.
        let x = vec![1.0f32; m32.ncols()];
        let mut y = vec![0.0f32; m32.nrows()];
        morpheus_repro::morpheus::spmv::spmv_serial(&m32, &x, &mut y).unwrap();
        assert!(y.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn f32_spmv_results_match_f64_within_precision() {
    let spec = CorpusSpec::small(6);
    let mut oracle = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::Serial))
        .tuner(RunFirstTuner::new(2))
        .build()
        .unwrap();
    for entry in spec.iter() {
        let mut m64 = DynamicMatrix::from(entry.matrix);
        let mut m32 = to_f32(&m64);
        let n = m64.nrows();

        let x64: Vec<f64> = (0..m64.ncols()).map(|i| ((i % 9) as f64) * 0.25 - 1.0).collect();
        let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
        let mut y64 = vec![0.0f64; n];
        let mut y32 = vec![0.0f32; n];

        oracle.tune_and_spmv(&mut m64, &x64, &mut y64).unwrap();
        oracle.tune_and_spmv(&mut m32, &x32, &mut y32).unwrap();

        for i in 0..n {
            let scale = 1.0 + y64[i].abs();
            assert!(
                (y64[i] - y32[i] as f64).abs() < 1e-3 * scale,
                "{} row {i}: f64 {} vs f32 {}",
                entry.name,
                y64[i],
                y32[i]
            );
        }
    }
}

#[test]
fn csr_fallback_on_nonviable_prediction_through_the_facade() {
    /// Always predicts ELL, even when ELL cannot hold the matrix.
    struct AlwaysEll;
    impl FormatTuner<f64> for AlwaysEll {
        fn name(&self) -> &'static str {
            "always-ell"
        }
        fn select(
            &self,
            _: &DynamicMatrix<f64>,
            _: &MatrixAnalysis,
            _: &VirtualEngine,
            op: Op,
        ) -> TuneDecision {
            TuneDecision {
                format: FormatId::Ell,
                params: Default::default(),
                op,
                cost: TuningCost::default(),
            }
        }
    }

    // Hypersparse with one long row: ELL width explodes.
    let n = 50_000usize;
    let mut rows: Vec<usize> = (0..500).map(|k| (k * 97) % n).collect();
    let mut cols: Vec<usize> = (0..500).map(|k| (k * 31) % n).collect();
    for k in 0..4000 {
        rows.push(7);
        cols.push((k * 11) % n);
    }
    let vals = vec![1.0; rows.len()];

    let mut oracle = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::Serial))
        .tuner(AlwaysEll)
        .build()
        .unwrap();

    let mut m = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
    let report = oracle.tune(&mut m).unwrap();
    assert_eq!(report.predicted, FormatId::Ell);
    assert_eq!(report.chosen, FormatId::Csr);
    assert_eq!(m.format_id(), FormatId::Csr);

    // The cache stores the *realized* decision (CSR), so hits go straight
    // to the viable format instead of re-paying the failing ELL attempt.
    let mut again = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
    let cached = oracle.tune(&mut again).unwrap();
    assert!(cached.cache_hit);
    assert_eq!(cached.predicted, FormatId::Csr);
    assert_eq!(cached.chosen, FormatId::Csr);
    assert_eq!(again.format_id(), FormatId::Csr);
}

#[test]
fn spmm_tuning_is_a_distinct_cached_question() {
    let mut oracle = Oracle::builder()
        .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
        .tuner(RunFirstTuner::new(3))
        .build()
        .unwrap();

    // A partially-filled banded matrix (padding-sensitive).
    let n = 4000usize;
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    for i in 0..n {
        for d in [-4isize, -1, 0, 1, 4] {
            let j = i as isize + d;
            if j >= 0 && (j as usize) < n && (i + d.unsigned_abs()) % 5 != 0 {
                rows.push(i);
                cols.push(j as usize);
            }
        }
    }
    let vals = vec![1.0f64; rows.len()];
    let build = || DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());

    let spmv = oracle.tune_for(&mut build(), Op::Spmv).unwrap();
    let spmm = oracle.tune_for(&mut build(), Op::Spmm { k: 32 }).unwrap();
    assert!(!spmm.cache_hit, "different op must be a fresh decision");
    assert_eq!(spmv.op, Op::Spmv);
    assert_eq!(spmm.op, Op::Spmm { k: 32 });

    // tune_and_spmm computes the right product in the selected format.
    let k = 3usize;
    let mut m = build();
    let x: Vec<f64> = (0..n * k).map(|i| ((i * 29 + 3) % 17) as f64 - 8.0).collect();
    let mut y = vec![f64::NAN; n * k];
    let report = oracle.tune_and_spmm(&mut m, &x, &mut y, k).unwrap();
    assert_eq!(m.format_id(), report.chosen);

    let reference = build();
    let mut y_ref = vec![0.0f64; n * k];
    spmm_serial(&reference, &x, &mut y_ref, k).unwrap();
    for i in 0..y.len() {
        let scale = 1.0 + y_ref[i].abs();
        assert!((y[i] - y_ref[i]).abs() < 1e-9 * scale, "slot {i}");
    }
}

#[test]
fn a_plan_belongs_to_its_decision_one_per_op_and_scalar() {
    use morpheus_repro::oracle::PlanStatus;

    let mut oracle = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(2))
        .build()
        .unwrap();

    // A scatter matrix that tunes to the same format for SpMV and SpMM.
    let n = 1200usize;
    let rows: Vec<usize> = (0..n).flat_map(|i| [i, i]).collect();
    let cols: Vec<usize> = (0..n).flat_map(|i| [(i * 5) % n, (i * 11 + 3) % n]).collect();
    let vals = vec![1.0f64; rows.len()];
    let mut m64 = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
    let x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];

    let first = oracle.tune_and_spmv(&mut m64, &x, &mut y).unwrap();
    assert_eq!(first.plan, PlanStatus::Built);
    let second = oracle.tune_and_spmv(&mut m64, &x, &mut y).unwrap();
    assert_eq!(second.plan, PlanStatus::Reused);

    // SpMM is another decision, and the decision entry owns the plan: the
    // first SpMM builds it (whatever format it decided), the next finds it.
    let k = 2usize;
    let xk = vec![1.0f64; n * k];
    let mut yk = vec![0.0f64; n * k];
    let mm = oracle.tune_and_spmm(&mut m64, &xk, &mut yk, k).unwrap();
    assert_eq!(mm.plan, PlanStatus::Built);
    let mm = oracle.tune_and_spmm(&mut m64, &xk, &mut yk, k).unwrap();
    assert_eq!(mm.plan, PlanStatus::Reused);

    // An f32 matrix of the same structure needs its own plan: the scalar
    // width is part of the decision key.
    let mut m32 = to_f32(&m64);
    let x32 = vec![1.0f32; n];
    let mut y32 = vec![0.0f32; n];
    let r32 = oracle.tune_and_spmv(&mut m32, &x32, &mut y32).unwrap();
    assert_eq!(r32.plan, PlanStatus::Built, "f32 must not replay the f64 plan");

    let stats = oracle.plan_cache_stats();
    assert_eq!((stats.hits, stats.misses), (2, 3), "{stats:?}");
    assert!(stats.len >= 2, "{stats:?}");
}

#[test]
fn boxed_trait_object_tuner_drives_a_session() {
    // Strategy chosen at runtime: the session accepts a boxed tuner
    // without a type parameter leaking to the caller.
    let tuner: Box<dyn FormatTuner<f64>> = Box::new(RunFirstTuner::new(2));
    let mut oracle = Oracle::builder()
        .engine(VirtualEngine::new(systems::xci(), Backend::OpenMp))
        .tuner(tuner)
        .build()
        .unwrap();
    let mut m = DynamicMatrix::from(
        CooMatrix::<f64>::from_triplets(
            64,
            64,
            &(0..64).collect::<Vec<_>>(),
            &(0..64).collect::<Vec<_>>(),
            &vec![2.0; 64],
        )
        .unwrap(),
    );
    let report = oracle.tune(&mut m).unwrap();
    assert_eq!(m.format_id(), report.chosen);
}

#[test]
fn convert_options_are_honoured_by_the_session() {
    // A forgiving padding policy lets DIA materialise where the default
    // would refuse; the session must thread its options into conversions.
    let opts = ConvertOptions { min_padded_allowance: 1 << 24, ..Default::default() };
    let mut oracle = Oracle::builder()
        .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
        .tuner(RunFirstTuner::new(2))
        .convert_options(opts)
        .build()
        .unwrap();
    assert_eq!(oracle.convert_options().min_padded_allowance, 1 << 24);
    let mut m = DynamicMatrix::from(
        CooMatrix::<f64>::from_triplets(
            300,
            300,
            &(0..300).collect::<Vec<_>>(),
            &(0..300).collect::<Vec<_>>(),
            &vec![1.0; 300],
        )
        .unwrap(),
    );
    let report = oracle.tune(&mut m).unwrap();
    assert_eq!(report.chosen, report.predicted, "no fallback under the forgiving policy");
}
