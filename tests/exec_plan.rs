//! Integration tests for the planned execution layer: planned SpMV and
//! SpMM must be **bitwise** identical to the serial kernels on the edge
//! shapes and share layouts picked here by hand (the generated cases are the
//! execution differential in `tests/formats_property.rs`), plan construction
//! must add zero matrix traversals on top of an `Analysis`, and the Oracle
//! must amortise plans across an iterative loop.

use morpheus_repro::machine::{systems, Backend, VirtualEngine};
use morpheus_repro::morpheus::analysis::passes;
use morpheus_repro::morpheus::format::ALL_FORMATS;
use morpheus_repro::morpheus::spmm::spmm_serial;
use morpheus_repro::morpheus::spmv::spmv_serial;
use morpheus_repro::morpheus::{Analysis, ConvertOptions, CooMatrix, DynamicMatrix, ExecPlan};
use morpheus_repro::oracle::{Oracle, PlanStatus, RunFirstTuner};
use morpheus_repro::parallel::ThreadPool;
use proptest::prelude::*;

/// Strategy: a small random sparse matrix as (nrows, ncols, entries).
fn arb_matrix() -> impl Strategy<Value = DynamicMatrix<f64>> {
    (2usize..40, 2usize..40).prop_flat_map(|(nrows, ncols)| {
        let entry = (0..nrows, 0..ncols, -100i32..100).prop_map(|(r, c, v)| (r, c, v));
        proptest::collection::vec(entry, 0..120).prop_map(move |entries| {
            let rows: Vec<usize> = entries.iter().map(|e| e.0).collect();
            let cols: Vec<usize> = entries.iter().map(|e| e.1).collect();
            // Avoid explicit zeros (DIA storage cannot distinguish them
            // from padding) and duplicate-sum cancellations.
            let vals: Vec<f64> = entries.iter().map(|e| f64::from(e.2) + 1000.5).collect();
            DynamicMatrix::from(CooMatrix::from_triplets(nrows, ncols, &rows, &cols, &vals).unwrap())
        })
    })
}

fn tolerant_opts() -> ConvertOptions {
    // Small matrices: allow any amount of padding so every format converts.
    ConvertOptions { min_padded_allowance: 1 << 24, ..Default::default() }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Hand-picked edge shapes the fuzzer rarely lands on exactly: empty
/// matrices, a single row, leading/trailing all-zero rows, one giant row.
fn edge_matrices() -> Vec<DynamicMatrix<f64>> {
    let t = |nr: usize, nc: usize, rows: &[usize], cols: &[usize]| {
        let vals = vec![1.5f64; rows.len()];
        DynamicMatrix::from(CooMatrix::from_triplets(nr, nc, rows, cols, &vals).unwrap())
    };
    vec![
        DynamicMatrix::from(CooMatrix::<f64>::new(0, 0)),
        DynamicMatrix::from(CooMatrix::<f64>::new(7, 7)),
        DynamicMatrix::from(CooMatrix::<f64>::new(0, 5)),
        DynamicMatrix::from(CooMatrix::<f64>::new(5, 0)),
        // Single row.
        t(1, 9, &[0, 0, 0], &[1, 4, 8]),
        // First and last rows empty.
        t(6, 6, &[2, 3, 3], &[0, 2, 5]),
        // One giant row among singletons (cannot be split by any
        // row-aligned partition).
        t(
            10,
            40,
            &{
                let mut r = vec![4usize; 35];
                r.extend([0, 9]);
                r
            },
            &{
                let mut c: Vec<usize> = (0..35).collect();
                c.extend([3, 7]);
                c
            },
        ),
        // All-zero-row heavy: only the middle row is populated.
        t(30, 4, &[15, 15, 15, 15], &[0, 1, 2, 3]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Traversal budget: given an `Analysis`, building a plan for every
    /// format performs **zero** additional matrix traversals, and planned
    /// executions add none either.
    #[test]
    fn plan_construction_and_execution_add_zero_traversals(m in arb_matrix(), threads in 1usize..5) {
        let opts = tolerant_opts();
        let pool = ThreadPool::new(threads);
        let x: Vec<f64> = (0..m.ncols()).map(|_| 1.0).collect();
        for &fmt in &ALL_FORMATS {
            let converted = m.to_format(fmt, &opts).unwrap();
            let analysis = Analysis::of(&converted, opts.true_diag_alpha);
            passes::reset();
            let plan = ExecPlan::build(&converted, pool.num_threads(), Some(&analysis));
            prop_assert_eq!(passes::count(), 0, "{} plan construction traversed the matrix", fmt);
            let mut y = vec![0.0; m.nrows()];
            plan.spmv(&converted, &x, &mut y, &pool).unwrap();
            prop_assert_eq!(passes::count(), 0, "{} planned execution traversed the matrix", fmt);
        }
    }
}

#[test]
fn edge_shapes_planned_spmv_and_spmm_match_serial_bitwise() {
    let pool = ThreadPool::new(4);
    let opts = tolerant_opts();
    let k = 3usize;
    for (i, m) in edge_matrices().into_iter().enumerate() {
        let x: Vec<f64> = (0..m.ncols()).map(|i| 1.0 + i as f64 * 0.5).collect();
        let xk: Vec<f64> = (0..m.ncols() * k).map(|i| (i % 5) as f64 - 2.0).collect();
        for &fmt in &ALL_FORMATS {
            let Ok(converted) = m.to_format(fmt, &opts) else { continue };
            let analysis = Analysis::of(&converted, opts.true_diag_alpha);
            let plan = ExecPlan::build(&converted, pool.num_threads(), Some(&analysis));

            let mut y_ref = vec![0.0; m.nrows()];
            spmv_serial(&converted, &x, &mut y_ref).unwrap();
            let mut y = vec![f64::NAN; m.nrows()];
            plan.spmv(&converted, &x, &mut y, &pool).unwrap();
            assert!(bits_eq(&y, &y_ref), "edge {i} {fmt}: planned SpMV diverged");

            let mut ymm_ref = vec![0.0; m.nrows() * k];
            spmm_serial(&converted, &xk, &mut ymm_ref, k).unwrap();
            let mut ymm = vec![f64::NAN; m.nrows() * k];
            plan.spmm(&converted, &xk, &mut ymm, k, &pool).unwrap();
            assert!(bits_eq(&ymm, &ymm_ref), "edge {i} {fmt}: planned SpMM diverged");
        }
    }
}

/// Shapes that stress BELL's per-worker shares (every format runs them).
fn share_stress_matrices() -> Vec<(&'static str, DynamicMatrix<f64>)> {
    let build = |nr: usize, nc: usize, row_len: &dyn Fn(usize) -> usize| {
        let (mut rows, mut cols) = (Vec::new(), Vec::new());
        for r in 0..nr {
            for j in 0..row_len(r) {
                rows.push(r);
                cols.push((r * 7 + j) % nc); // distinct within a row while `row_len <= nc`
            }
        }
        let vals: Vec<f64> = (0..rows.len()).map(|i| 0.5 + (i % 11) as f64 * 0.375).collect();
        DynamicMatrix::from(CooMatrix::from_triplets(nr, nc, &rows, &cols, &vals).unwrap())
    };
    vec![
        // Leading, trailing and interior runs of rows no bucket holds.
        ("empty rows", build(41, 50, &|r| if !(3..=36).contains(&r) || r % 3 == 0 { 0 } else { 1 + r % 4 })),
        // Seven power-of-two buckets for at most four workers.
        ("more buckets than workers", build(35, 100, &|r| [1, 2, 3, 5, 9, 17, 33][r % 7])),
        // The widest bucket is one row holding most of the cells.
        ("one over-wide row", build(31, 250, &|r| if r == 13 { 200 } else { 2 })),
        ("fewer rows than workers", build(2, 20, &|r| 3 + r)),
        // Shares are cut between 8-row slices. Buckets of 9 and 17 rows: full
        // slices followed by a ragged one, and fewer slices than workers.
        ("ragged slices", build(27, 60, &|r| [3, 7, 1][(r >= 9) as usize + (r >= 26) as usize])),
        // Three buckets of 13 slices each, cut three ways at every width.
        ("many slices", build(300, 64, &|r| 1 + r % 3)),
    ]
}

/// One balanced dispatch per planned execution: at every pool width the
/// pooled SpMV is bitwise `spmv_unpooled` (same parts, same bodies) and
/// serial, and the pooled SpMM is bitwise serial, in all eight formats.
#[test]
fn pooled_plans_match_unpooled_and_serial_at_one_to_four_workers() {
    let opts = tolerant_opts();
    let k = 3usize;
    for (name, m) in share_stress_matrices() {
        let x: Vec<f64> = (0..m.ncols()).map(|i| 1.0 + (i % 13) as f64 * 0.25).collect();
        let xk: Vec<f64> = (0..m.ncols() * k).map(|i| (i % 7) as f64 - 3.0).collect();
        for &fmt in &ALL_FORMATS {
            let converted = m.to_format(fmt, &opts).unwrap();
            let analysis = Analysis::of(&converted, opts.true_diag_alpha);
            let mut y_serial = vec![0.0; m.nrows()];
            spmv_serial(&converted, &x, &mut y_serial).unwrap();
            let mut ymm_serial = vec![0.0; m.nrows() * k];
            spmm_serial(&converted, &xk, &mut ymm_serial, k).unwrap();
            for workers in 1..=4usize {
                let pool = ThreadPool::new(workers);
                let plan = ExecPlan::build(&converted, workers, Some(&analysis));
                let mut y_unpooled = vec![f64::NAN; m.nrows()];
                plan.spmv_unpooled(&converted, &x, &mut y_unpooled).unwrap();
                let mut y = vec![f64::NAN; m.nrows()];
                plan.spmv(&converted, &x, &mut y, &pool).unwrap();
                assert!(bits_eq(&y, &y_unpooled), "{name} {fmt} x{workers}: pooled != unpooled");
                assert!(bits_eq(&y, &y_serial), "{name} {fmt} x{workers}: planned != serial");
                let mut ymm = vec![f64::NAN; m.nrows() * k];
                plan.spmm(&converted, &xk, &mut ymm, k, &pool).unwrap();
                assert!(bits_eq(&ymm, &ymm_serial), "{name} {fmt} x{workers}: planned SpMM != serial");
            }
        }
    }
}

/// The end-to-end amortisation story: an OpenMP session in an iterative
/// loop pays planning once; SpMV and SpMM share the structure's plan.
#[test]
fn oracle_session_amortises_plans_across_iterations() {
    let mut oracle = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(2))
        .build()
        .unwrap();
    let n = 900usize;
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    for i in 0..n {
        rows.push(i);
        cols.push((i * 7) % n);
        rows.push(i);
        cols.push((i * 13 + 1) % n);
    }
    let vals = vec![1.0f64; rows.len()];
    let mut m = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
    let x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];

    let first = oracle.tune_and_spmv(&mut m, &x, &mut y).unwrap();
    assert_eq!(first.plan, PlanStatus::Built);
    let mut y_ref = vec![0.0f64; n];
    spmv_serial(&m, &x, &mut y_ref).unwrap();
    assert_eq!(y, y_ref);

    for _ in 0..4 {
        let next = oracle.tune_and_spmv(&mut m, &x, &mut y).unwrap();
        assert!(next.cache_hit, "steady-state tuning must hit the decision cache");
        assert_eq!(next.plan, PlanStatus::Reused, "steady-state execution must replay the plan");
    }
    assert!(oracle.plan_cache_stats().hits >= 4);
    assert_eq!(oracle.plan_cache_stats().len, 1, "one structure, one plan");
}
