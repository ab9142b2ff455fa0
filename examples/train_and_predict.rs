//! The full Oracle life-cycle in miniature (Figure 1, both stages):
//!
//! **offline** — generate a small corpus, run profiling, extract features,
//! train a random forest, export it to a model file;
//! **online** — load the model file into a `ModelTuner` (the one tuner for
//! trees, forests and boosted ensembles alike), tune unseen matrices, and
//! compare its picks against the true (profiled) optimum.
//!
//! ```text
//! cargo run --release --example train_and_predict
//! ```

use morpheus_repro::corpus::CorpusSpec;
use morpheus_repro::machine::{analyze, systems, Backend, VirtualEngine};
use morpheus_repro::ml::{Dataset, ForestParams, RandomForest};
use morpheus_repro::morpheus::format::FORMAT_COUNT;
use morpheus_repro::morpheus::DynamicMatrix;
use morpheus_repro::oracle::model_db::{ModelDatabase, ModelKind};
use morpheus_repro::oracle::{FeatureVector, Oracle, NUM_FEATURES};

fn main() {
    // ---------------- offline stage ----------------
    let spec = CorpusSpec { n_matrices: 160, ..CorpusSpec::small(160) };
    let engine = VirtualEngine::new(systems::cirrus(), Backend::Cuda);
    println!("profiling {} matrices for {} ...", spec.n_matrices, engine.label());

    let mut train = Dataset::empty(NUM_FEATURES, FORMAT_COUNT, vec![]).unwrap();
    let mut held_out = Vec::new();
    for entry in spec.iter() {
        let m = DynamicMatrix::from(entry.matrix);
        let analysis = analyze(&m);
        let features = FeatureVector::from_stats(&analysis.stats);
        let optimal = engine.profile(&analysis).optimal;
        if entry.is_test {
            held_out.push((entry.name, m, features, optimal));
        } else {
            train.push(features.as_slice(), optimal.index()).unwrap();
        }
    }
    println!("training random forest on {} samples ...", train.len());
    let forest = RandomForest::fit(&train, &ForestParams { n_estimators: 30, seed: 1, ..Default::default() })
        .expect("fit");

    // Export to the model database, exactly as Sparse.Tree would.
    let db_dir = std::env::temp_dir().join("morpheus-example-models");
    let db = ModelDatabase::new(&db_dir);
    let path = db.save("Cirrus", Backend::Cuda, &forest.into()).expect("save model");
    println!("model written to {}", path.display());

    // ---------------- online stage ----------------
    // One session serves the whole held-out stream: load the model once,
    // let the decision cache absorb repeated structures.
    // The file name says which kind to load; its `kind` line must agree.
    let tuner = db.load_tuner("Cirrus", Backend::Cuda, ModelKind::Forest).expect("load model");
    let oracle = Oracle::builder().engine(engine).tuner(tuner).build_service().expect("configured");
    let mut hits = 0usize;
    let mut total = 0usize;
    println!("\ntuning {} held-out matrices:", held_out.len());
    for (name, mut m, _features, optimal) in held_out {
        let report = oracle.tune(&mut m).expect("tune");
        total += 1;
        if report.chosen == optimal {
            hits += 1;
        } else {
            println!(
                "  {name:<24} predicted {:<4} optimal {:<4} (miss)",
                report.chosen.name(),
                optimal.name()
            );
        }
    }
    println!("selection accuracy on held-out matrices: {hits}/{total}");
    let stats = oracle.cache_stats();
    println!("decision cache: {} hits / {} misses over the stream", stats.hits, stats.misses);
    let _ = std::fs::remove_dir_all(&db_dir);
}
