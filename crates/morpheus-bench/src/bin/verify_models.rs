//! Sanity-checks a model database (`models/` by default): every
//! (system, backend) pair must have a forest, and every model file of every
//! kind present must load through the public `ModelDatabase` API with the
//! right feature schema and drive an `Oracle` session end-to-end on a probe
//! matrix. A `.model` file that names no (system, backend, kind) triple is
//! an error too.
//!
//! ```text
//! cargo run --release -p morpheus-bench --bin verify_models [-- <dir>]
//! ```

use morpheus::{CooMatrix, DynamicMatrix};
use morpheus_oracle::{ModelDatabase, ModelKind, Oracle};

/// A small tridiagonal probe: every format is viable, so any prediction
/// materialises.
fn probe_matrix() -> DynamicMatrix<f64> {
    let n = 500usize;
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

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "models".to_string());
    let db = ModelDatabase::new(&dir);
    let mut checked = Vec::new();
    for pair in morpheus_machine::systems::all_system_backends() {
        for kind in ModelKind::ALL {
            let name = ModelDatabase::file_name(pair.system.name, pair.backend, kind);
            if kind != ModelKind::Forest && !db.dir().join(&name).exists() {
                continue;
            }
            let label = format!("{} {}", pair.label(), kind.token());
            let tuner = db
                .load_tuner(pair.system.name, pair.backend, kind)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(tuner.model().n_features(), morpheus_oracle::NUM_FEATURES, "{label}");
            assert_eq!(tuner.model().n_classes(), morpheus::format::FORMAT_COUNT, "{label}");

            // The loaded model must drive a session end-to-end.
            let oracle = Oracle::builder()
                .engine(morpheus_machine::VirtualEngine::for_pair(&pair))
                .tuner(tuner)
                .build_service()
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let mut m = probe_matrix();
            let report = oracle.tune(&mut m).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(m.format_id(), report.chosen);
            println!(
                "{label}: probe tuned to {} ({:.2} us to predict)",
                report.chosen,
                1e6 * report.cost.prediction
            );
            checked.push(name);
        }
    }
    let stray: Vec<String> = db.list().into_iter().filter(|n| !checked.contains(n)).collect();
    assert!(stray.is_empty(), "model files that name no (system, backend, kind): {stray:?}");
    println!("ok: all {} models load, match the feature schema and tune end-to-end", checked.len());
}
