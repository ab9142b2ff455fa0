//! End-to-end integration test: the complete Figure-1 pipeline on a reduced
//! corpus — generate → profile → extract features → train → export → load →
//! tune → execute.

use morpheus_repro::corpus::CorpusSpec;
use morpheus_repro::machine::{analyze, systems, Backend, VirtualEngine};
use morpheus_repro::ml::metrics::accuracy;
use morpheus_repro::ml::serialize::{load_model, save_model};
use morpheus_repro::ml::{
    Dataset, DecisionTree, ForestParams, GbtParams, GradientBoostedTrees, Model, RandomForest, TreeParams,
};
use morpheus_repro::morpheus::format::{FormatId, FORMAT_COUNT};
use morpheus_repro::morpheus::spmv::spmv_serial;
use morpheus_repro::morpheus::DynamicMatrix;
use morpheus_repro::oracle::model_db::{ModelDatabase, ModelKind};
use morpheus_repro::oracle::{FeatureVector, Oracle, RunFirstTuner, NUM_FEATURES};

#[test]
fn offline_stage_trains_useful_model_and_online_stage_uses_it() {
    // Large enough that the test split holds a dozen of the minority labels
    // (DIA, BSR): five in six are BELL on this engine, and at half the size
    // one test matrix decides between the model and the majority baseline.
    let spec = CorpusSpec::small(300);
    let engine = VirtualEngine::new(systems::cirrus(), Backend::Serial);

    // --- offline: profile + assemble dataset ---
    let mut train = Dataset::empty(NUM_FEATURES, FORMAT_COUNT, vec![]).unwrap();
    let mut test_entries = Vec::new();
    for entry in spec.iter() {
        let m = DynamicMatrix::from(entry.matrix);
        let analysis = analyze(&m);
        let fv = FeatureVector::from_stats(&analysis.stats);
        let optimal = engine.profile(&analysis).optimal;
        if entry.is_test {
            test_entries.push((m, fv, optimal));
        } else {
            train.push(fv.as_slice(), optimal.index()).unwrap();
        }
    }
    assert!(train.len() >= 100, "training split too small: {}", train.len());
    assert!(test_entries.len() >= 15, "test split too small: {}", test_entries.len());

    // --- train + export + load ---
    let forest =
        RandomForest::fit(&train, &ForestParams { n_estimators: 25, seed: 7, ..Default::default() }).unwrap();
    let dir = std::env::temp_dir().join(format!("morpheus-pipeline-test-{}", std::process::id()));
    let db = ModelDatabase::new(&dir);
    db.save("Cirrus", Backend::Serial, &forest.clone().into()).unwrap();
    let tuner = db.load_tuner("Cirrus", Backend::Serial, ModelKind::Forest).unwrap();

    // The exported/reloaded model must agree with the in-memory one.
    for (_, fv, _) in &test_entries {
        assert_eq!(tuner.model().predict(fv.as_slice()), forest.predict(fv.as_slice()));
    }

    // --- evaluate: must beat always-predict-the-majority-class ---
    let majority = {
        let counts = train.class_counts();
        (0..FORMAT_COUNT).max_by_key(|&c| counts[c]).unwrap()
    };
    let y_true: Vec<usize> = test_entries.iter().map(|(_, _, o)| o.index()).collect();
    let y_model: Vec<usize> =
        test_entries.iter().map(|(_, fv, _)| tuner.model().predict(fv.as_slice())).collect();
    let y_major: Vec<usize> = vec![majority; y_true.len()];
    let acc_model = accuracy(&y_true, &y_model);
    let acc_major = accuracy(&y_true, &y_major);
    assert!(
        acc_model > acc_major,
        "model accuracy {acc_model:.3} should beat majority baseline {acc_major:.3}"
    );
    assert!(acc_model > 0.5, "model accuracy {acc_model:.3} too low");

    // --- online: one session tunes + switches + executes, numerics
    //     preserved ---
    let oracle = Oracle::builder().engine(engine).tuner(tuner).build_service().unwrap();
    let mut tuned_matches_optimal = 0usize;
    for (m, _, optimal) in test_entries.iter().take(10) {
        let mut matrix = m.clone();
        let x = vec![1.0f64; matrix.ncols()];
        let mut y_before = vec![0.0f64; matrix.nrows()];
        spmv_serial(&matrix, &x, &mut y_before).unwrap();

        let mut y_after = vec![0.0f64; matrix.nrows()];
        let report = oracle.tune_and_spmv(&mut matrix, &x, &mut y_after).unwrap();
        assert_eq!(matrix.format_id(), report.chosen);
        // The model's answer; the matrix converts only when one execution
        // repays it.
        if report.predicted == *optimal {
            tuned_matches_optimal += 1;
        }

        for i in 0..y_before.len() {
            let scale = 1.0 + y_before[i].abs();
            assert!((y_before[i] - y_after[i]).abs() < 1e-10 * scale, "row {i} changed");
        }
    }
    assert!(tuned_matches_optimal >= 5, "only {tuned_matches_optimal}/10 tuned to the optimum");
    // Ten distinct test matrices: the tuning stage ran for each of them.
    assert_eq!(oracle.cache_stats().misses, 10);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_first_tuner_always_lands_on_profiled_optimum() {
    let spec = CorpusSpec::small(30);
    let engine = VirtualEngine::new(systems::p3(), Backend::Cuda);
    let oracle =
        Oracle::builder().engine(engine.clone()).tuner(RunFirstTuner::new(3)).build_service().unwrap();
    for entry in spec.iter() {
        let mut m = DynamicMatrix::from(entry.matrix);
        let analysis = analyze(&m);
        let optimal = engine.profile(&analysis).optimal;
        let report = oracle.tune(&mut m).unwrap();
        assert_eq!(report.predicted, optimal, "{}", entry.name);
    }
}

#[test]
fn profiled_optimum_is_never_worse_than_csr() {
    let spec = CorpusSpec::small(40);
    for pair in morpheus_repro::machine::systems::all_system_backends() {
        let engine = VirtualEngine::for_pair(&pair);
        for entry in spec.iter().take(20) {
            let m = DynamicMatrix::from(entry.matrix);
            let analysis = analyze(&m);
            let profile = engine.profile(&analysis);
            assert!(profile.optimal_speedup() >= 1.0, "{} on {}", entry.name, engine.label());
            assert!(profile.times[FormatId::Csr.index()].is_some());
        }
    }
}

/// A tuner walks its model once per prediction: the fused `(class, visited)`
/// of every model family is the class and the path length the two separate
/// calls give, on every feature row of the corpus, for the fitted models and
/// for the same models written out and loaded back.
#[test]
fn one_walk_gives_the_class_and_the_path_of_two() {
    let engine = VirtualEngine::new(systems::cirrus(), Backend::Serial);
    let mut ds = Dataset::empty(NUM_FEATURES, FORMAT_COUNT, vec![]).unwrap();
    for entry in CorpusSpec::small(200).iter() {
        let analysis = analyze(&DynamicMatrix::from(entry.matrix));
        let fv = FeatureVector::from_stats(&analysis.stats);
        ds.push(fv.as_slice(), engine.profile(&analysis).optimal.index()).unwrap();
    }
    let tree = DecisionTree::fit(&ds, &TreeParams::default()).unwrap();
    let forest =
        RandomForest::fit(&ds, &ForestParams { n_estimators: 12, seed: 3, ..Default::default() }).unwrap();
    let gbt = GradientBoostedTrees::fit(&ds, &GbtParams { n_rounds: 6, ..Default::default() }).unwrap();
    let models = [Model::from(tree.clone()), Model::from(forest.clone()), Model::from(gbt.clone())];
    let reloaded = models.clone().map(|model| {
        let mut buf = Vec::new();
        save_model(&mut buf, &model).unwrap();
        load_model(&buf[..]).unwrap()
    });
    let [loaded_tree, loaded_forest, loaded_gbt] = &reloaded;
    for i in 0..ds.len() {
        let x = ds.row(i);
        assert_eq!(tree.predict_with_path(x), (tree.predict(x), tree.decision_path_len(x)), "tree, row {i}");
        let fitted = (forest.predict(x), forest.decision_path_len(x));
        assert_eq!(forest.predict_with_path(x), fitted, "forest, row {i}");
        assert_eq!(gbt.predict_with_path(x), (gbt.predict(x), gbt.decision_path_len(x)), "GBT, row {i}");
        for model in models.iter().chain(&reloaded) {
            let two = (model.predict(x), model.decision_path_len(x));
            assert_eq!(model.predict_with_path(x), two, "{:?}, row {i}", model.kind());
        }
        assert_eq!(loaded_tree.predict_with_path(x), tree.predict_with_path(x), "loaded tree, row {i}");
        assert_eq!(loaded_forest.predict_with_path(x), fitted, "loaded forest, row {i}");
        assert_eq!(loaded_gbt.predict_with_path(x), gbt.predict_with_path(x), "loaded GBT, row {i}");
    }
}
