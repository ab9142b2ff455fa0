//! A model database must stay loadable and schema-compatible with the
//! Oracle's feature extractor, and every model in it must settle a point box
//! on its point prediction (the walk-free decisions evaluate models over
//! boxes of feature vectors).
//!
//! The database is the one `MORPHEUS_MODELS` names — CI points it at what
//! `sparse_tree --out <dir> --also-trees` wrote — or, without it, a small
//! one of the same layout (a forest and a tree per system/backend pair)
//! trained here into a temporary directory.

use morpheus_repro::corpus::CorpusSpec;
use morpheus_repro::machine::{analyze, systems, VirtualEngine};
use morpheus_repro::ml::{
    Dataset, DecisionTree, ForestParams, GbtParams, GradientBoostedTrees, Model, RandomForest, TreeParams,
};
use morpheus_repro::morpheus::format::FORMAT_COUNT;
use morpheus_repro::morpheus::DynamicMatrix;
use morpheus_repro::oracle::{FeatureVector, ModelDatabase, ModelKind, NUM_FEATURES};
use std::path::PathBuf;

/// Model files `sparse_tree --also-trees` writes: a forest and a tree for
/// each of the eleven system/backend pairs.
const DATABASE_FILES: usize = 22;

/// Feature rows of a small corpus, and each pair's labels of them.
fn corpus_rows() -> (Vec<[f64; NUM_FEATURES]>, Vec<Vec<usize>>) {
    let views: Vec<_> =
        CorpusSpec::small(40).iter().map(|e| analyze(&DynamicMatrix::from(e.matrix))).collect();
    let rows = views.iter().map(|v| FeatureVector::from_stats(&v.stats).0).collect();
    let labels = systems::all_system_backends()
        .iter()
        .map(|pair| {
            let engine = VirtualEngine::for_pair(pair);
            views.iter().map(|v| engine.profile(v).optimal.index()).collect()
        })
        .collect();
    (rows, labels)
}

/// The database under test: `MORPHEUS_MODELS`, or one trained now into a
/// directory of the calling test's own.
fn database() -> ModelDatabase {
    if let Some(dir) = std::env::var_os("MORPHEUS_MODELS") {
        return ModelDatabase::new(PathBuf::from(dir));
    }
    static TRAINED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = TRAINED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("morpheus-shipped-models-{}-{n}", std::process::id()));
    let db = ModelDatabase::new(&dir);
    let (rows, labels) = corpus_rows();
    for (pair, labels) in systems::all_system_backends().iter().zip(labels) {
        let mut ds = Dataset::empty(NUM_FEATURES, FORMAT_COUNT, vec![]).unwrap();
        rows.iter().zip(&labels).for_each(|(row, &label)| ds.push(row, label).unwrap());
        let forest = RandomForest::fit(&ds, &ForestParams { n_estimators: 5, ..Default::default() }).unwrap();
        db.save(pair.system.name, pair.backend, &forest.into()).unwrap();
        db.save(
            pair.system.name,
            pair.backend,
            &DecisionTree::fit(&ds, &TreeParams::default()).unwrap().into(),
        )
        .unwrap();
    }
    db
}

/// `model` evaluated over the point box of every row settles on the row's
/// point prediction, examining the nodes its walk visits.
fn assert_point_boxes_settle(model: &Model, rows: &[[f64; NUM_FEATURES]], what: &str) {
    for row in rows {
        let (class, nodes) = model.predict_with_path(row);
        assert_eq!(model.predict_over(row, row), (Some(class), nodes), "{what}: {row:?}");
    }
}

/// Removes the database when this test trained it.
fn done_with(db: ModelDatabase) {
    if std::env::var_os("MORPHEUS_MODELS").is_none() {
        let _ = std::fs::remove_dir_all(db.dir());
    }
}

/// Every model file loads for its (system, backend, kind), fits the feature
/// schema, answers a legal format for plausible rows — a corpus's, and a
/// hand-written one — and settles their point boxes on its predictions.
#[test]
fn shipped_models_load_for_every_pair() {
    let db = database();
    let (mut rows, _) = corpus_rows();
    // A plausible feature vector, one value per feature.
    rows.push([5000.0, 5000.0, 40_000.0, 8.0, 0.0016, 12.0, 2.0, 1.5, 900.0, 1.0, 0.3, 1.2]);
    let mut loaded = 0usize;
    for pair in systems::all_system_backends() {
        for kind in ModelKind::ALL {
            if !db.path_for(pair.system.name, pair.backend, kind).exists() {
                assert_ne!(kind, ModelKind::Forest, "{}: every pair has a forest", pair.label());
                continue;
            }
            let what = format!("{} {}", pair.label(), kind.token());
            let tuner =
                db.load_tuner(pair.system.name, pair.backend, kind).unwrap_or_else(|e| panic!("{what}: {e}"));
            let model = tuner.model();
            assert_eq!(model.n_features(), NUM_FEATURES, "{what}");
            assert_eq!(model.n_classes(), FORMAT_COUNT, "{what}");
            if let Model::Forest(forest) = model {
                assert!(!forest.trees().is_empty(), "{what}");
            }
            assert!(rows.iter().all(|row| model.predict(row) < FORMAT_COUNT), "{what}: a legal format id");
            assert_point_boxes_settle(model, &rows, &what);
            loaded += 1;
        }
    }
    assert_eq!(loaded, db.list().len(), "every file names a (system, backend, kind)");
    done_with(db);
}

/// The database holds what `sparse_tree --also-trees` writes: a forest and
/// a tree per pair.
#[test]
fn shipped_models_listing_is_complete() {
    let db = database();
    let listing = db.list();
    assert_eq!(listing.len(), DATABASE_FILES, "a forest and a tree per pair: {listing:?}");
    let forests = listing.iter().filter(|n| n.ends_with(".forest.model")).count();
    let trees = listing.iter().filter(|n| n.ends_with(".tree.model")).count();
    assert_eq!((forests, trees), (DATABASE_FILES / 2, DATABASE_FILES / 2), "{listing:?}");
    done_with(db);
}

/// The database holds no boosted model: one saved and loaded back through a
/// database of its own settles its point boxes too.
#[test]
fn a_gbt_round_trips_through_a_database_and_settles_a_point_box() {
    let (rows, labels) = corpus_rows();
    let mut ds = Dataset::empty(NUM_FEATURES, FORMAT_COUNT, vec![]).unwrap();
    rows.iter().zip(&labels[0]).for_each(|(row, &label)| ds.push(row, label).unwrap());
    let gbt = GradientBoostedTrees::fit(&ds, &GbtParams { n_rounds: 8, ..Default::default() }).unwrap();
    let dir = std::env::temp_dir().join(format!("morpheus-gbt-model-{}", std::process::id()));
    let db = ModelDatabase::new(&dir);
    let pair = &systems::all_system_backends()[0];
    db.save(pair.system.name, pair.backend, &gbt.into()).unwrap();
    let tuner = db.load_tuner(pair.system.name, pair.backend, ModelKind::Gbt).unwrap();
    assert_point_boxes_settle(tuner.model(), &rows, "gbt");
    let _ = std::fs::remove_dir_all(&dir);
}
