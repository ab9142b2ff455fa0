//! Integration tests for the adaptive learning subsystem: measured-kernel
//! telemetry through the serving layer, online sample collection, seeded
//! retrain determinism, atomic model hot-swap under concurrent clients and
//! the forced-drift fallback to the analytical tuner.

use morpheus_repro::machine::{systems, Backend, MatrixAnalysis, Op, VirtualEngine};
use morpheus_repro::ml::serialize::save_model;
use morpheus_repro::ml::Dataset;
use morpheus_repro::morpheus::format::{FormatId, FORMAT_COUNT};
use morpheus_repro::morpheus::{ConvertOptions, CooMatrix, DynamicMatrix};
use morpheus_repro::oracle::adapt::{
    AdaptiveConfig, AdaptiveEngine, AdaptiveTuner, CollectorConfig, ModelEpoch, RetrainOutcome,
    SampleCollector, SampleKey,
};
use morpheus_repro::oracle::{
    propose_params, FormatTuner, ModelTuner, Oracle, OracleService, RunFirstTuner, TuneDecision, TuningCost,
    NUM_FEATURES,
};
use std::sync::Arc;
use std::time::Duration;

fn tridiag(n: usize) -> DynamicMatrix<f64> {
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
    let vals = vec![1.0; rows.len()];
    DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
}

fn scattered(n: usize, stride: usize) -> DynamicMatrix<f64> {
    let rows: Vec<usize> = (0..n).collect();
    let cols: Vec<usize> = (0..n).map(|i| (i * stride + 1) % n).collect();
    let vals = vec![1.0; n];
    DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
}

type AdaptiveService = Arc<OracleService<AdaptiveTuner<RunFirstTuner>>>;

fn adaptive_service(collector: &Arc<SampleCollector>, cache_capacity: usize) -> AdaptiveService {
    Arc::new(
        Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::Serial))
            .tuner(AdaptiveTuner::new(RunFirstTuner::new(1)))
            .collector(Arc::clone(collector))
            .cache_capacity(cache_capacity)
            .build_service()
            .unwrap(),
    )
}

/// Deterministic measured observations: structure `s` has features keyed
/// by `s`, DIA fastest for even structures, CSR fastest for odd ones.
fn feed_observations(collector: &SampleCollector, structures: u64) {
    for s in 0..structures {
        let mut fv = [0.0f64; NUM_FEATURES];
        fv[0] = 100.0 + s as f64;
        fv[1] = 100.0;
        fv[2] = 300.0 + (s % 2) as f64 * 5_000.0;
        fv[3] = 3.0;
        fv[4] = 0.03;
        fv[5] = 3.0 + (s % 2) as f64 * 40.0;
        fv[6] = 1.0;
        fv[8] = 3.0;
        fv[9] = 3.0;
        collector.note_features(s, &morpheus_repro::oracle::FeatureVector(fv));
        for (fmt, us) in [(FormatId::Csr, 40 + s % 2 * 60), (FormatId::Dia, 70 - s % 2 * 60)] {
            for _ in 0..3 {
                collector.record(
                    SampleKey {
                        structure: s,
                        format: fmt,
                        op: Op::Spmv,
                        scalar_bytes: 8,
                        workers: 1,
                        param_code: 0,
                    },
                    Duration::from_micros(us),
                );
            }
        }
    }
}

#[test]
fn seeded_collector_and_retrain_are_bitwise_deterministic() {
    let serialize_after_round = || {
        let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
        feed_observations(&collector, 24);
        let service = adaptive_service(&collector, 64);
        let engine = AdaptiveEngine::new(Arc::clone(&service), AdaptiveConfig::default()).unwrap();
        let report = engine.round().unwrap();
        assert!(
            matches!(report.outcome, RetrainOutcome::Swapped { .. }),
            "consistent observations must install a model: {report:?}"
        );
        let epoch = service.tuner().current().expect("installed");
        let mut buf = Vec::new();
        save_model(&mut buf, epoch.tuner.model()).unwrap();
        (buf, epoch.holdout_accuracy)
    };
    let (a, acc_a) = serialize_after_round();
    let (b, acc_b) = serialize_after_round();
    assert_eq!(a, b, "two identical seeded runs must serialize bitwise-identical models");
    assert_eq!(acc_a, acc_b);
    assert!(acc_a >= 0.5, "learnable rule must clear the floor: {acc_a}");
}

#[test]
fn hot_swap_under_concurrent_clients_is_never_torn() {
    // Single-class datasets make constant-prediction models: the old model
    // always answers ELL, the new one always HYB. Any other prediction
    // observed by a client while models are being swapped would mean a
    // torn or partially installed model.
    let constant_model = |fmt: FormatId| {
        let mut ds = Dataset::empty(NUM_FEATURES, FORMAT_COUNT, vec![]).unwrap();
        for i in 0..12 {
            let row = [50.0 + i as f64, 50.0, 150.0, 3.0, 0.06, 3.0, 1.0, 0.5, 3.0, 3.0, 0.4, 1.1];
            ds.push(&row, fmt.index()).unwrap();
        }
        ModelTuner::new(
            morpheus_repro::ml::RandomForest::fit(
                &ds,
                &morpheus_repro::ml::ForestParams { n_estimators: 3, ..Default::default() },
            )
            .unwrap(),
        )
        .unwrap()
    };

    let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
    // Cache capacity 0: every tune consults the tuner, so clients observe
    // the live model on every call.
    let service = adaptive_service(&collector, 0);
    service.tuner().install(ModelEpoch {
        tuner: constant_model(FormatId::Ell),
        op: Op::Spmv,
        holdout_accuracy: 1.0,
    });

    let swaps = 40;
    std::thread::scope(|s| {
        for _ in 0..4 {
            let service = Arc::clone(&service);
            s.spawn(move || {
                let base = tridiag(300);
                while service.tuner().epoch() < swaps {
                    let mut m = base.clone();
                    let report = service.tune(&mut m).unwrap();
                    assert!(
                        report.predicted == FormatId::Ell || report.predicted == FormatId::Hyb,
                        "decision must come from exactly the old or the new model, got {:?}",
                        report.predicted
                    );
                }
            });
        }
        // Swap back and forth while the clients hammer the tuner.
        let mut next = FormatId::Hyb;
        while service.tuner().epoch() < swaps {
            service.tuner().install(ModelEpoch {
                tuner: constant_model(next),
                op: Op::Spmv,
                holdout_accuracy: 1.0,
            });
            next = if next == FormatId::Hyb { FormatId::Ell } else { FormatId::Hyb };
            std::thread::yield_now();
        }
    });
    assert!(service.tuner().epoch() >= swaps);
}

#[test]
fn serving_feeds_telemetry_and_sweep_fills_coverage() {
    let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
    let service = adaptive_service(&collector, 64);
    let engine = AdaptiveEngine::new(Arc::clone(&service), AdaptiveConfig::default()).unwrap();

    let corpus: Vec<DynamicMatrix<f64>> =
        vec![tridiag(300), tridiag(500), scattered(400, 7), scattered(600, 11)];
    // Serve: registered-path executions are measured on the hot path.
    for m in &corpus {
        let handle = service.register(m.clone()).unwrap();
        let x = vec![1.0; m.ncols()];
        let mut y = vec![0.0; m.nrows()];
        for _ in 0..3 {
            service.spmv(&handle, &x, &mut y).unwrap();
        }
    }
    let adaptation = service.collector().expect("collector attached").stats();
    assert_eq!(adaptation.telemetry.recorded, 12, "every handle execution must be measured");
    assert_eq!(adaptation.telemetry.dropped, 0);
    assert_eq!(adaptation.structures_profiled, corpus.len());
    assert_eq!(service.obs_snapshot().metrics.counter("serve.requests_served"), 12);
    assert_eq!(service.cache_stats().misses, 4);
    // A handle is keyed by the hash its matrix was decided under, the one
    // its features were noted under: no alias from a converted structure.
    assert_eq!(adaptation.aliases, 0, "registered handles need no alias");

    // Serving alone observes only the tuned format per matrix: nothing to
    // compare, nothing to label — but every sample joined its features.
    let before = collector.build_dataset(Op::Spmv).unwrap();
    assert_eq!(before.labeled, 0);
    assert_eq!(before.skipped_sparse, corpus.len());
    assert_eq!(before.skipped_unprofiled, 0, "samples of a registered handle join their noted features");

    // The trial sweep measures every viable format and unlocks labeling.
    for m in &corpus {
        let report = engine.sweep(m).unwrap();
        assert!(report.formats_timed >= 2);
        assert!(report.cost.measured > 0.0, "sweep seconds must be charged");
    }
    let after = collector.build_dataset(Op::Spmv).unwrap();
    assert_eq!(after.labeled, corpus.len(), "sweeps must label every structure: {after:?}");
    assert!(collector.measured_seconds() > 0.0);
}

#[test]
fn adaptation_round_swaps_and_forced_drift_falls_back_without_restart() {
    let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
    let service = adaptive_service(&collector, 64);
    let config = AdaptiveConfig { accuracy_floor: 0.8, min_samples: 6, ..Default::default() };
    let engine = AdaptiveEngine::new(Arc::clone(&service), config).unwrap();

    feed_observations(&collector, 16);
    let report = engine.round().unwrap();
    let RetrainOutcome::Swapped { epoch } = report.outcome else {
        panic!("first round on consistent data must swap: {report:?}");
    };
    assert_eq!(service.tuner().epoch(), epoch);
    assert!(report.candidate_accuracy.unwrap() >= 0.8);
    assert!(report.candidate.is_some());

    // Independent verification of the reported holdout accuracy: rebuild
    // the (deterministic) dataset the round consumed and re-evaluate the
    // installed model through `cv::holdout_score` with the same fraction
    // and seed — the determinism contract says it must reproduce the
    // round's own holdout split exactly.
    let installed = service.tuner().current().unwrap();
    let collected = collector.build_dataset(Op::Spmv).unwrap().dataset;
    let defaults = AdaptiveConfig::default();
    let independent = morpheus_repro::ml::cv::holdout_score(
        &collected,
        defaults.holdout_fraction,
        defaults.seed,
        |_, held| {
            let preds: Vec<usize> =
                (0..held.len()).map(|i| installed.tuner.model().predict(held.row(i))).collect();
            morpheus_repro::ml::metrics::accuracy(held.targets(), &preds)
        },
    );
    assert_eq!(Some(independent), report.candidate_accuracy, "reported accuracy must be reproducible");

    // The swapped model now serves selections (prediction cost charged,
    // no run-first profiling).
    let mut m = tridiag(400);
    let tuned = service.tune(&mut m).unwrap();
    assert_eq!(tuned.cost.profiling, 0.0, "learned model must replace run-first profiling");
    assert!(tuned.cost.prediction > 0.0);

    // Forced drift: identical features now measure fastest in rotating
    // formats — nothing learnable, and the incumbent's rule is wrong too.
    let mut drifted = Dataset::empty(NUM_FEATURES, FORMAT_COUNT, vec![]).unwrap();
    for i in 0..30 {
        let row = [800.0, 800.0, 4000.0, 5.0, 0.006, 30.0, 1.0, 2.0, 25.0, 0.0, 0.1, 1.4];
        let label = [FormatId::Coo, FormatId::Csr, FormatId::Dia][i % 3];
        drifted.push(&row, label.index()).unwrap();
    }
    let drift_report = engine.round_with(drifted).unwrap();
    let RetrainOutcome::FellBack { epoch: fell_at } = drift_report.outcome else {
        panic!("drift must trigger the analytical fallback: {drift_report:?}");
    };
    assert!(fell_at > epoch);
    assert!(drift_report.candidate_accuracy.unwrap() < 0.8);
    assert!(drift_report.incumbent_accuracy.unwrap() < 0.8);

    // No restart: the same service keeps answering, now via the
    // analytical run-first fallback (profiling cost returns).
    assert!(service.tuner().current().is_none());
    let mut again = tridiag(700);
    let fallback_report = service.tune(&mut again).unwrap();
    assert!(fallback_report.cost.profiling > 0.0, "fallback must be the analytical tuner");

    // And the fallback decision matches a plain RunFirstTuner session.
    let reference_session = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::Serial))
        .tuner(RunFirstTuner::new(1))
        .build_service()
        .unwrap();
    let mut reference = tridiag(700);
    assert_eq!(fallback_report.chosen, reference_session.tune(&mut reference).unwrap().chosen);
}

#[test]
fn retained_incumbent_survives_weaker_candidates() {
    let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
    let service = adaptive_service(&collector, 64);
    let config = AdaptiveConfig { accuracy_floor: 0.6, min_samples: 6, ..Default::default() };
    let engine = AdaptiveEngine::new(Arc::clone(&service), config).unwrap();

    feed_observations(&collector, 16);
    let first = engine.round().unwrap();
    assert!(matches!(first.outcome, RetrainOutcome::Swapped { .. }));
    let epoch_after_swap = service.tuner().epoch();

    // A noisy-but-not-drifted batch: the incumbent still clears the floor
    // on it, the fresh candidate cannot beat it -> retained, no epoch bump.
    let incumbent = service.tuner().current().unwrap();
    let mut noisy = Dataset::empty(NUM_FEATURES, FORMAT_COUNT, vec![]).unwrap();
    for s in 0..12u64 {
        let mut fv = [0.0f64; NUM_FEATURES];
        fv[0] = 100.0 + s as f64;
        fv[1] = 100.0;
        fv[2] = 300.0 + (s % 2) as f64 * 5_000.0;
        fv[3] = 3.0;
        fv[4] = 0.03;
        fv[5] = 3.0 + (s % 2) as f64 * 40.0;
        fv[6] = 1.0;
        fv[8] = 3.0;
        fv[9] = 3.0;
        // Labels agree with what the incumbent already predicts.
        noisy.push(&fv, incumbent.tuner.model().predict(&fv)).unwrap();
    }
    let second = engine.round_with(noisy).unwrap();
    assert!(
        matches!(second.outcome, RetrainOutcome::Swapped { .. } | RetrainOutcome::Retained),
        "agreeing data must never force a fallback: {second:?}"
    );
    if second.outcome == RetrainOutcome::Retained {
        assert_eq!(service.tuner().epoch(), epoch_after_swap, "retain must not bump the epoch");
    }
    assert_eq!(engine.rounds(), 2);
}

#[test]
fn skipped_rounds_report_reasons_and_touch_nothing() {
    let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
    let service = adaptive_service(&collector, 64);
    let engine = AdaptiveEngine::new(Arc::clone(&service), AdaptiveConfig::default()).unwrap();
    let report = engine.round().unwrap();
    let RetrainOutcome::Skipped { reason } = &report.outcome else {
        panic!("empty collector must skip: {report:?}");
    };
    assert!(reason.contains("min_samples"), "{reason}");
    assert_eq!(service.tuner().epoch(), 0);
    assert!(service.tuner().current().is_none());
}

#[test]
fn base_dataset_warm_start_composes_with_collected_samples() {
    let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
    let service = adaptive_service(&collector, 64);
    // Offline corpus alone is enough to retrain even before any traffic.
    let mut base = Dataset::empty(NUM_FEATURES, FORMAT_COUNT, vec![]).unwrap();
    for i in 0..20 {
        let wide = i % 2 == 0;
        let row =
            [500.0, 500.0, 2500.0, 5.0, 0.01, if wide { 50.0 } else { 5.0 }, 1.0, 1.0, 20.0, 1.0, 0.2, 1.3];
        base.push(&row, if wide { FormatId::Ell.index() } else { FormatId::Csr.index() }).unwrap();
    }
    let config = AdaptiveConfig { base_dataset: Some(base), ..Default::default() };
    let engine = AdaptiveEngine::new(Arc::clone(&service), config).unwrap();
    let report = engine.round().unwrap();
    assert_eq!(report.samples, 20, "base dataset must participate");
    assert!(matches!(report.outcome, RetrainOutcome::Swapped { .. }), "{report:?}");
}

/// Answers BELL with the parameters proposed off the view.
struct ProposedBell;

impl FormatTuner<f64> for ProposedBell {
    fn name(&self) -> &'static str {
        "proposed-bell"
    }

    fn select(&self, _: &DynamicMatrix<f64>, a: &MatrixAnalysis, _: &VirtualEngine, op: Op) -> TuneDecision {
        let params = propose_params(FormatId::Bell, a);
        TuneDecision { format: FormatId::Bell, params, op, cost: TuningCost::default() }
    }
}

/// A served matrix's samples are labelled with the parameters it was
/// converted with: a handle stored under its proposed ladder and the sweep's
/// BELL trial of the same structure are one population; a handle stored
/// under an imported ladder is another.
#[test]
fn served_and_swept_bell_land_in_the_population_of_their_ladder() {
    // Rows of 3 entries and one of about 60 (CSR, the form the service keys by):
    // the proposal is a 3-wide bucket, not the automatic 4-wide one.
    let (mut rows, mut cols): (Vec<usize>, Vec<usize>) =
        (0..1800).map(|e| (e / 3, (e * 7 + 1) % 600)).unzip();
    rows.extend([0; 60]);
    cols.extend((0..60).map(|k| 3 * k + 2));
    let vals = vec![1.0; rows.len()];
    let coo = DynamicMatrix::from(CooMatrix::from_triplets(600, 600, &rows, &cols, &vals).unwrap());
    let m = coo.to_format(FormatId::Csr, &ConvertOptions::default()).unwrap();
    let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
    let service = || {
        let engine = VirtualEngine::new(systems::cirrus(), Backend::Serial);
        Oracle::builder().engine(engine).tuner(ProposedBell).collector(Arc::clone(&collector)).build_service()
    };
    let bell = || {
        let mut kernels = collector.telemetry().snapshot();
        kernels.retain(|k| k.key.format == FormatId::Bell);
        kernels.sort_by_key(|k| k.key);
        kernels
    };
    let (x, mut y) = (vec![1.0; 600], vec![0.0; 600]);
    let proposed = service().unwrap();
    let handle = proposed.register(m.clone()).unwrap();
    for _ in 0..3 {
        proposed.spmv(&handle, &x, &mut y).unwrap();
    }
    collector.sweep(proposed.engine(), proposed.convert_options(), &m, Op::Spmv, 2).unwrap();
    let one = bell();
    assert_eq!((one.len(), one[0].count), (1, 3 + 2), "served and swept: one population {one:?}");
    assert_ne!(one[0].key.param_code, 0, "labelled with the proposed ladder, not the automatic one");

    // The same structure stored under an imported ladder: its own population.
    let mut file = Vec::new();
    proposed.export_decisions(&mut file).unwrap();
    let file = String::from_utf8(file).unwrap();
    let file = format!("{} BELL bell=4,64\nend\n", file.rsplit_once(" BELL ").unwrap().0);
    let imported = service().unwrap();
    assert_eq!(imported.import_decisions(std::io::Cursor::new(file.as_bytes())).unwrap(), 1);
    let handle = imported.register(m).unwrap();
    imported.spmv(&handle, &x, &mut y).unwrap();
    let two = bell();
    assert_eq!(two.len(), 2, "two ladders, two populations: {two:?}");
    let other = two.iter().find(|k| k.key != one[0].key).unwrap().key;
    assert_eq!(
        SampleKey { param_code: one[0].key.param_code, ..other },
        one[0].key,
        "differing in the label only"
    );
}
