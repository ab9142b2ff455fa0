//! Property tests for parameterized formats.
//!
//! Every format converted under the parameters a decision may carry — the
//! proposal itself, each BSR block dim, the quantile and two-level BELL
//! ladders — must convert losslessly and execute planned/threaded SpMV and
//! SpMM **bitwise** identical to the serial kernels across worker counts;
//! and hand-picked edge cases — block dims that don't divide the shape,
//! explicit bucket ladders narrower or wider than the row distribution,
//! degenerate HYB splits and DIA fill limits — must round-trip.

use morpheus_repro::machine::{analyze, MatrixAnalysis};
use morpheus_repro::morpheus::format::{FormatId, ALL_FORMATS};
use morpheus_repro::morpheus::hyb::HybSplit;
use morpheus_repro::morpheus::spmm::spmm_serial;
use morpheus_repro::morpheus::spmv::spmv_serial;
use morpheus_repro::morpheus::{ConvertOptions, CooMatrix, DynamicMatrix, ExecPlan, FormatParams};
use morpheus_repro::oracle::params::{propose_params, quantile_ladder};
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

fn opts_with(params: FormatParams) -> ConvertOptions {
    // Small matrices: allow any amount of padding so every format converts.
    ConvertOptions { min_padded_allowance: 1 << 24, params, ..Default::default() }
}

/// The parameters a decision for `fmt` may carry on the matrix `a`
/// describes: the proposal, then every block dim and ladder it chooses from.
fn candidate_params(fmt: FormatId, a: &MatrixAnalysis) -> Vec<FormatParams> {
    let mut params = vec![propose_params(fmt, a)];
    let max = a.stats.row_nnz_max.max(1);
    let mean = (a.mean_row().ceil() as usize).clamp(1, max);
    params.extend([2, 4, 8].map(|b| FormatParams { bsr_block: (b, b), ..Default::default() }));
    params.extend(
        [quantile_ladder(&a.row_lengths), vec![mean, max]]
            .map(|l| FormatParams::default().with_bell_ladder(&l)),
    );
    params
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every format under every candidate parameter set converts losslessly
    /// and its planned SpMV and SpMM stay bitwise identical to the serial
    /// kernels on 1–5 workers.
    #[test]
    fn strategy_realizations_are_lossless_and_plan_bitwise(m in arb_matrix(), threads in 1usize..6) {
        let pool = ThreadPool::new(threads);
        let reference = m.to_coo();
        let a = analyze(&m);
        let x: Vec<f64> = (0..m.ncols()).map(|i| ((i * 31 + 7) % 13) as f64 - 6.0).collect();
        let k = 3usize;
        let xk: Vec<f64> = (0..m.ncols() * k).map(|i| (i % 5) as f64 - 2.0).collect();
        for &fmt in &ALL_FORMATS {
            for s in candidate_params(fmt, &a) {
                let opts = opts_with(s);
                let converted = m.to_format(fmt, &opts).unwrap();
                prop_assert_eq!(converted.to_coo(), reference.clone(), "{} {:?}: lossy conversion", fmt, s);

                let mut y_ref = vec![0.0; m.nrows()];
                spmv_serial(&converted, &x, &mut y_ref).unwrap();
                let plan = ExecPlan::build(&converted, pool.num_threads(), None);
                let mut y = vec![f64::NAN; m.nrows()];
                plan.spmv(&converted, &x, &mut y, &pool).unwrap();
                prop_assert!(bits_eq(&y, &y_ref), "{} {:?} x{}: planned SpMV diverged", fmt, s, threads);

                let mut ymm_ref = vec![0.0; m.nrows() * k];
                spmm_serial(&converted, &xk, &mut ymm_ref, k).unwrap();
                let mut ymm = vec![f64::NAN; m.nrows() * k];
                plan.spmm(&converted, &xk, &mut ymm, k, &pool).unwrap();
                prop_assert!(bits_eq(&ymm, &ymm_ref), "{} {:?} x{}: planned SpMM diverged", fmt, s, threads);
            }
        }
    }
}

/// Parameter edge cases the fuzzer rarely hits exactly: block dims that
/// don't divide the shape, explicit bucket ladders narrower and wider than
/// the row distribution, degenerate HYB splits and DIA fill limits. Each
/// must round-trip losslessly and execute planned SpMV bitwise-identical to
/// serial on an uneven worker count.
#[test]
fn parameter_edge_cases_round_trip_and_execute() {
    let t = |nr: usize, nc: usize, rows: &[usize], cols: &[usize]| {
        let vals: Vec<f64> = (0..rows.len()).map(|i| 1.5 + i as f64).collect();
        DynamicMatrix::from(CooMatrix::from_triplets(nr, nc, rows, cols, &vals).unwrap())
    };
    let shapes = [
        // 7x13: no block dim divides either side.
        t(7, 13, &[0, 0, 3, 3, 4, 6, 6], &[0, 12, 5, 6, 2, 0, 11]),
        // 9x5 with a full row.
        t(9, 5, &[1, 1, 1, 1, 1, 4, 8], &[0, 1, 2, 3, 4, 2, 4]),
        // Single row, single column.
        t(1, 3, &[0, 0], &[0, 2]),
        t(3, 1, &[0, 2], &[0, 0]),
        // Empty matrix still converts under any parameters.
        DynamicMatrix::from(CooMatrix::<f64>::new(4, 4)),
    ];
    let option_sets: Vec<ConvertOptions> = vec![
        opts_with(FormatParams { bsr_block: (2, 2), ..Default::default() }),
        opts_with(FormatParams { bsr_block: (4, 4), ..Default::default() }),
        opts_with(FormatParams { bsr_block: (8, 8), ..Default::default() }),
        // Ladder narrower than the widest row: conversion must widen.
        opts_with(FormatParams::default().with_bell_ladder(&[1])),
        opts_with(FormatParams::default().with_bell_ladder(&[1, 3, 7])),
        // Ladder far wider than any row: everything pads into one bucket.
        opts_with(FormatParams::default().with_bell_ladder(&[64])),
        ConvertOptions { hyb_split: HybSplit::Width(1), ..opts_with(FormatParams::default()) },
        ConvertOptions { hyb_split: HybSplit::Width(1000), ..opts_with(FormatParams::default()) },
        ConvertOptions { max_fill: 1e9, ..opts_with(FormatParams::default()) },
    ];
    let pool = ThreadPool::new(3);
    for (si, m) in shapes.iter().enumerate() {
        let reference = m.to_coo();
        let x: Vec<f64> = (0..m.ncols()).map(|i| 1.0 + i as f64 * 0.5).collect();
        for (pi, opts) in option_sets.iter().enumerate() {
            for &fmt in &ALL_FORMATS {
                let converted = m.to_format(fmt, opts).unwrap();
                assert_eq!(converted.to_coo(), reference, "shape {si} params {pi} {fmt}: lossy");
                let mut y_ref = vec![0.0; m.nrows()];
                spmv_serial(&converted, &x, &mut y_ref).unwrap();
                let plan = ExecPlan::build(&converted, pool.num_threads(), None);
                let mut y = vec![f64::NAN; m.nrows()];
                plan.spmv(&converted, &x, &mut y, &pool).unwrap();
                assert!(bits_eq(&y, &y_ref), "shape {si} params {pi} {fmt}: planned SpMV diverged");
            }
        }
    }
}
