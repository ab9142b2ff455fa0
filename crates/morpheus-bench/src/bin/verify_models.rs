//! Sanity-checks the shipped model database (`models/`): every
//! (system, backend) pair must load through the public `ModelDatabase` API
//! with the right feature schema, and drive an `Oracle` session end-to-end
//! on a probe matrix.
//!
//! ```text
//! cargo run --release -p morpheus-bench --bin verify_models
//! ```

use morpheus::{CooMatrix, DynamicMatrix};
use morpheus_oracle::Oracle;

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
    let db = morpheus_oracle::ModelDatabase::new(&dir);
    for pair in morpheus_machine::systems::all_system_backends() {
        let tuner = db
            .load_forest_tuner(pair.system.name, pair.backend)
            .unwrap_or_else(|e| panic!("{}: {e}", pair.label()));
        assert_eq!(tuner.model().n_features(), morpheus_oracle::NUM_FEATURES);
        assert_eq!(tuner.model().n_classes(), morpheus::format::FORMAT_COUNT);
        let n_trees = tuner.model().trees().len();
        let n_nodes = tuner.model().n_nodes();

        // The loaded model must drive a session end-to-end.
        let oracle = Oracle::builder()
            .engine(morpheus_machine::VirtualEngine::for_pair(&pair))
            .tuner(tuner)
            .build_service()
            .unwrap_or_else(|e| panic!("{}: {e}", pair.label()));
        let mut m = probe_matrix();
        let report = oracle.tune(&mut m).unwrap_or_else(|e| panic!("{}: {e}", pair.label()));
        assert_eq!(m.format_id(), report.chosen);
        println!("{}: {} trees, {} nodes, probe tuned to {}", pair.label(), n_trees, n_nodes, report.chosen);
    }
    println!("ok: all {} models load, match the feature schema and tune end-to-end", 11);
}
