//! Quickstart: build a sparse matrix, let the Oracle pick its format, run
//! SpMV.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use morpheus_repro::machine::{systems, Backend, VirtualEngine};
use morpheus_repro::morpheus::{CooMatrix, DynamicMatrix};
use morpheus_repro::oracle::{FeatureVector, Oracle, RunFirstTuner};

fn main() {
    // 1. Assemble a 2D Poisson system (the classic iterative-solver matrix).
    let nx = 64usize;
    let n = nx * nx;
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for y in 0..nx {
        for x in 0..nx {
            let i = y * nx + x;
            rows.push(i);
            cols.push(i);
            vals.push(4.0);
            for (dx, dy) in [(-1i64, 0i64), (1, 0), (0, -1), (0, 1)] {
                let (xx, yy) = (x as i64 + dx, y as i64 + dy);
                if xx >= 0 && yy >= 0 && xx < nx as i64 && yy < nx as i64 {
                    rows.push(i);
                    cols.push((yy as usize) * nx + xx as usize);
                    vals.push(-1.0);
                }
            }
        }
    }
    let mut matrix = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
    println!("matrix: {}x{} with {} non-zeros, starting in {}", n, n, matrix.nnz(), matrix.format_id());

    // 2. Inspect the Table-I features the ML tuners would see.
    let features = FeatureVector::extract(&matrix);
    println!("features: {features}");

    // 3. Open a tuning session for the A64FX Serial backend (simulated)
    //    with the run-first tuner: the Oracle picks the format and runs the
    //    SpMV in one call. That call serves one execution, so it switches the
    //    matrix only when the one execution repays the conversion; here it
    //    does not, and the COO source runs as CSR, the format it entered in.
    //    A loop would `register` the matrix once and `spmv` the handle.
    let oracle = Oracle::builder()
        .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
        .tuner(RunFirstTuner::new(10))
        .build_service()
        .expect("engine and tuner are set");
    let x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];
    let report = oracle.tune_and_spmv(&mut matrix, &x, &mut y).expect("tuning succeeds");
    println!(
        "tuned for {}: decided {}, ran {} -> {} (decision cost {:.2} us on the virtual clock)",
        oracle.engine().label(),
        report.predicted,
        report.previous,
        report.chosen,
        report.cost.total() * 1e6
    );
    let checksum: f64 = y.iter().sum();
    println!("y = A*1 checksum: {checksum:.1} (boundary rows keep a positive residue)");

    // 4. The session caches its decisions: tuning a structurally identical
    //    matrix again costs nothing (and `tune` switches it to the decided
    //    format, whatever the horizon).
    let mut twin = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
    let cached = oracle.tune(&mut twin).expect("tuning succeeds");
    let stats = oracle.cache_stats();
    println!(
        "second tune of the same structure: cache hit = {}, cost {:.2} us ({} hit / {} miss)",
        cached.cache_hit,
        cached.cost.total() * 1e6,
        stats.hits,
        stats.misses
    );
}
