//! The pre-trained model database under `models/` must stay loadable and
//! schema-compatible with the Oracle's feature extractor.

use morpheus_repro::machine::systems;
use morpheus_repro::ml::Model;
use morpheus_repro::morpheus::format::FORMAT_COUNT;
use morpheus_repro::oracle::{ModelDatabase, ModelKind, NUM_FEATURES};

fn models_dir() -> Option<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("models");
    dir.exists().then_some(dir)
}

#[test]
fn shipped_models_load_for_every_pair() {
    let Some(dir) = models_dir() else {
        eprintln!("models/ not present; skipping (regenerate with sparse_tree)");
        return;
    };
    let db = ModelDatabase::new(&dir);
    for pair in systems::all_system_backends() {
        let tuner = db
            .load_tuner(pair.system.name, pair.backend, ModelKind::Forest)
            .unwrap_or_else(|e| panic!("{}: {e}", pair.label()));
        assert_eq!(tuner.model().n_features(), NUM_FEATURES, "{}", pair.label());
        assert_eq!(tuner.model().n_classes(), FORMAT_COUNT, "{}", pair.label());
        let Model::Forest(forest) = tuner.model() else { panic!("{}: not a forest", pair.label()) };
        assert!(!forest.trees().is_empty(), "{}", pair.label());

        // A plausible feature vector must yield a legal format id.
        let probe = [5000.0, 5000.0, 40_000.0, 8.0, 0.0016, 12.0, 2.0, 1.5, 900.0, 1.0];
        let pred = tuner.model().predict(&probe);
        assert!(pred < FORMAT_COUNT, "{}: predicted {pred}", pair.label());
    }
}

#[test]
fn shipped_models_listing_is_complete() {
    let Some(dir) = models_dir() else {
        return;
    };
    let db = ModelDatabase::new(&dir);
    let listing = db.list();
    assert_eq!(listing.len(), 11, "one forest model per pair: {listing:?}");
    assert!(listing.iter().all(|n| n.ends_with(".forest.model")));
}
