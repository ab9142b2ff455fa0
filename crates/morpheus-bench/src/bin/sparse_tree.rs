//! The model-generation pipeline — the Rust equivalent of the paper's
//! `Sparse.Tree` Python framework (§III-A).
//!
//! Runs the complete offline stage of Figure 1: corpus → profiling runs →
//! feature extraction → training + tuning → model database export. The
//! produced model files are what `ModelDatabase::load_tuner` loads into a
//! `ModelTuner` at runtime.
//!
//! ```text
//! sparse_tree [--out <dir>] [--full-grid] [--also-trees]
//! ```
//!
//! * `--out <dir>` — model database directory (default `models/`);
//! * `--full-grid` — the paper-sized exhaustive grid instead of the quick
//!   one (hours of compute);
//! * `--also-trees` — additionally export tuned single-tree models.

use morpheus_bench::report::Table;
use morpheus_bench::{cache_dir_from_env, corpus_spec_from_env, pipeline};
use morpheus_ml::metrics::{accuracy, balanced_accuracy};
use morpheus_ml::{ForestGrid, Scoring, TreeGrid};
use morpheus_oracle::model_db::ModelDatabase;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_string())
        .unwrap_or_else(|| "models".to_string());
    let full_grid = args.iter().any(|a| a == "--full-grid");
    let also_trees = args.iter().any(|a| a == "--also-trees");

    let spec = corpus_spec_from_env();
    let cache = cache_dir_from_env();
    eprintln!("[sparse.tree] profiling {} matrices ...", spec.n_matrices);
    let pc = pipeline::profile_corpus_cached(&spec, &cache);

    let db = ModelDatabase::new(&out_dir);
    let n_classes = morpheus::format::FORMAT_COUNT;

    // Export the training data itself (features + per-pair labels), the way
    // the paper's framework exposes its "Input Data"/"Input Targets".
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let csv_path = std::path::Path::new(&out_dir).join("dataset.csv");
    {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&csv_path).expect("create dataset.csv"));
        write!(w, "name,class,split").expect("write");
        for f in morpheus_oracle::FEATURE_NAMES {
            write!(w, ",{f}").expect("write");
        }
        for pair in &pc.pairs {
            write!(w, ",optimal@{}", pair.label()).expect("write");
        }
        writeln!(w).expect("write");
        for e in &pc.entries {
            write!(w, "{},{},{}", e.name, e.class_name, if e.is_test { "test" } else { "train" })
                .expect("write");
            for v in &e.features {
                write!(w, ",{v:e}").expect("write");
            }
            for p in &e.profiles {
                write!(w, ",{}", p.optimal.name()).expect("write");
            }
            writeln!(w).expect("write");
        }
    }
    eprintln!("[sparse.tree] dataset exported to {}", csv_path.display());
    let mut table = Table::new(&["system/backend", "model", "cv bacc", "test acc %", "test bacc %", "file"]);

    for (pi, pair) in pc.pairs.iter().enumerate() {
        let train = pipeline::dataset_for_pair(&pc, pi, false);
        let test = pipeline::dataset_for_pair(&pc, pi, true);
        let seed = spec.seed ^ pi as u64;

        eprintln!("[sparse.tree] tuning random forest for {} ...", pair.label());
        let grid = if full_grid { ForestGrid::default() } else { pipeline::quick_grid() };
        let out = morpheus_ml::grid::grid_search_forest(&train, &grid, 5, seed, Scoring::BalancedAccuracy)
            .expect("grid search");
        let preds = out.best_model.predict_dataset(&test);
        let path =
            db.save(pair.system.name, pair.backend, &out.best_model.into()).expect("save forest model");
        table.row(vec![
            pair.label(),
            "forest".into(),
            format!("{:.3}", out.best_cv_score),
            format!("{:.2}", 100.0 * accuracy(test.targets(), &preds)),
            format!("{:.2}", 100.0 * balanced_accuracy(test.targets(), &preds, n_classes)),
            path.file_name().unwrap().to_string_lossy().into_owned(),
        ]);

        if also_trees {
            eprintln!("[sparse.tree] tuning decision tree for {} ...", pair.label());
            let out = morpheus_ml::grid::grid_search_tree(
                &train,
                &TreeGrid::default(),
                5,
                seed,
                Scoring::BalancedAccuracy,
            )
            .expect("tree grid search");
            let preds = out.best_model.predict_dataset(&test);
            let path =
                db.save(pair.system.name, pair.backend, &out.best_model.into()).expect("save tree model");
            table.row(vec![
                pair.label(),
                "tree".into(),
                format!("{:.3}", out.best_cv_score),
                format!("{:.2}", 100.0 * accuracy(test.targets(), &preds)),
                format!("{:.2}", 100.0 * balanced_accuracy(test.targets(), &preds, n_classes)),
                path.file_name().unwrap().to_string_lossy().into_owned(),
            ]);
        }
    }
    println!("== Sparse.Tree: model database written to {out_dir}/ ==\n");
    println!("{}", table.render());
    println!("load these with `ModelDatabase::load_tuner(system, backend, ModelKind::Forest)` (or `Tree`),");
    println!("and check them all with `verify_models {out_dir}`.");
}
