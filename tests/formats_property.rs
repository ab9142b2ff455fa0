//! Property-based integration tests: format invariants under random
//! matrices, spanning the corpus generators and the format library — and
//! the execution differential: every way there is to execute a matrix
//! against the serial CSR kernel.

use morpheus_repro::machine::{systems, Backend, MatrixAnalysis, VirtualEngine};
use morpheus_repro::morpheus::format::{FormatId, ALL_FORMATS};
use morpheus_repro::morpheus::spmm::spmm_serial;
use morpheus_repro::morpheus::spmv::spmv_serial;
use morpheus_repro::morpheus::stats::stats_of;
use morpheus_repro::morpheus::{Analysis, ConvertOptions, CooMatrix, DynamicMatrix, ExecPlan, Op};
use morpheus_repro::oracle::{
    FeatureVector, FormatTuner, Oracle, OracleService, PartitionPolicy, TuneDecision, TuningCost,
};
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

/// A matrix for the execution differential, of the shapes a ranged kernel
/// has a special case for: no entries at all, a single row, runs of empty
/// rows at either end or in the middle, one row far longer than the others,
/// long rows, plain scatter.
/// The values do not sum exactly, so a row summed in another order shows in
/// the last bits.
fn arb_exec_matrix() -> impl Strategy<Value = DynamicMatrix<f64>> {
    (1usize..70, 1usize..45, 0usize..7, 0u64..u64::MAX).prop_map(|(nrows, ncols, flavour, seed)| {
        let nrows = if flavour == 1 { 1 } else { nrows };
        let ncols = if flavour == 5 { ncols + 40 } else { ncols };
        let mut next = seed | 1;
        let mut rand = move |n: usize| {
            next = next.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (next >> 33) as usize % n
        };
        let mut entries: Vec<(usize, usize)> = Vec::new();
        if flavour != 0 {
            entries.extend((0..3 * nrows).map(|_| (rand(nrows), rand(ncols))));
        }
        match flavour {
            // Only the middle third holds entries / only the outer thirds do.
            2 => entries.retain(|&(r, _)| r >= nrows / 3 && r < 2 * nrows / 3),
            3 => entries.retain(|&(r, _)| r < nrows / 3 || r >= 2 * nrows / 3),
            // One full row among the short ones.
            4 => entries.extend((0..ncols).map(|c| (nrows / 2, c))),
            // Seven columns in eight of every row.
            5 => {
                entries = (0..nrows * ncols)
                    .map(|i| (i / ncols, i % ncols))
                    .filter(|(r, c)| (r + c) % 8 != 0)
                    .collect()
            }
            _ => {}
        }
        exec_matrix(nrows, ncols, entries)
    })
}

/// The matrix with `entries` (any order, repeats dropped) and values that do
/// not sum exactly.
fn exec_matrix(nrows: usize, ncols: usize, mut entries: Vec<(usize, usize)>) -> DynamicMatrix<f64> {
    entries.sort_unstable();
    entries.dedup();
    let (rows, cols): (Vec<usize>, Vec<usize>) = entries.into_iter().unzip();
    // Strictly non-zero: DIA storage cannot tell an explicit zero from padding.
    let vals: Vec<f64> = (0..rows.len()).map(|i| 0.1 + ((i * 37) % 101) as f64 / 7.0).collect();
    DynamicMatrix::from(CooMatrix::from_triplets(nrows, ncols, &rows, &cols, &vals).unwrap())
}

/// A band that straddles the DIA body's tiling rule, for the execution
/// differential: 3 or 4 diagonals (it tiles from 4) over 255, 256, 257 or
/// 513 rows (a tile is 256), so worker ranges and 8-row shard seams fall
/// inside a tile; bare, or with scatter on top — an HDC whose DIA portion is
/// the band.
fn arb_band() -> impl Strategy<Value = DynamicMatrix<f64>> {
    (0usize..4, 3usize..5, 0usize..2, 0u64..u64::MAX).prop_map(|(size, ndiags, scatter, seed)| {
        let n = [255, 256, 257, 513][size];
        let mut entries: Vec<(usize, usize)> = (0..n as isize)
            .flat_map(|r| [-1isize, 0, 1, 7][..ndiags].iter().map(move |o| (r, r + o)))
            .filter(|&(_, c)| c >= 0 && c < n as isize)
            .map(|(r, c)| (r as usize, c as usize))
            .collect();
        let mut next = seed | 1;
        for _ in 0..scatter * n / 4 {
            next = next.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            entries.push(((next >> 33) as usize % n, (next >> 13) as usize % n));
        }
        exec_matrix(n, n, entries)
    })
}

/// Answers one format for every matrix (every shard of a sharded one).
struct Fixed(FormatId);

impl FormatTuner<f64> for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn select(&self, _: &DynamicMatrix<f64>, _: &MatrixAnalysis, _: &VirtualEngine, op: Op) -> TuneDecision {
        TuneDecision { format: self.0, params: Default::default(), op, cost: TuningCost::default() }
    }
}

/// A service on `workers` storing every shard of a forced
/// `register_partitioned` in `format`: at most `shards` shards of
/// `target` entries each, converted under `tolerant_opts`.
fn sharding_service(format: FormatId, workers: usize, shards: usize, target: usize) -> OracleService<Fixed> {
    Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(Fixed(format))
        .workers(workers)
        .convert_options(tolerant_opts())
        .partition_policy(PartitionPolicy {
            max_shards: Some(shards),
            target_shard_nnz: Some(target),
            cost_gate: false,
        })
        .build_service()
        .unwrap()
}

/// `y` against `y_ref`: bit for bit, or — against the kernel of another
/// format, whose own order of a row's sum differs — within
/// `1e-9 * (1 + |y_ref|)`.
fn assert_agrees(y: &[f64], y_ref: &[f64], bitwise: bool, what: &str) {
    assert_eq!(y.len(), y_ref.len(), "{what}");
    for (i, (a, b)) in y.iter().zip(y_ref).enumerate() {
        if bitwise {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: y[{i}] = {a} vs {b}");
        } else {
            assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{what}: y[{i}] = {a} vs {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any format -> any format -> COO preserves the entry set exactly.
    #[test]
    fn conversion_chain_is_lossless(m in arb_matrix(), path in proptest::collection::vec(0usize..8, 1..5)) {
        let reference = m.to_coo();
        let opts = tolerant_opts();
        let mut current = m;
        for step in path {
            let target = FormatId::from_index(step).unwrap();
            current = current.to_format(target, &opts).unwrap();
            prop_assert_eq!(current.format_id(), target);
        }
        prop_assert_eq!(current.to_coo(), reference);
    }

    /// SpMV agrees with the dense reference in every format.
    #[test]
    fn spmv_matches_dense_in_every_format(m in arb_matrix()) {
        let opts = tolerant_opts();
        let dense = m.to_dense();
        let x: Vec<f64> = (0..m.ncols()).map(|i| ((i * 31 + 7) % 13) as f64 - 6.0).collect();
        let mut expect = vec![0.0; m.nrows()];
        dense.spmv(&x, &mut expect);
        for &fmt in &ALL_FORMATS {
            let converted = m.to_format(fmt, &opts).unwrap();
            let mut y = vec![f64::NAN; m.nrows()];
            spmv_serial(&converted, &x, &mut y).unwrap();
            for i in 0..y.len() {
                let scale = 1.0 + expect[i].abs();
                prop_assert!((y[i] - expect[i]).abs() < 1e-9 * scale,
                    "{} row {}: {} vs {}", fmt, i, y[i], expect[i]);
            }
        }
    }

    /// The execution differential. Every execution there is — each format,
    /// whole (its plan built with or without an analysis) or sharded on
    /// 8-row seams by a forced `register_partitioned` (served by its
    /// service, and its shards run inline or on the drawn pool), SpMV or
    /// SpMM, balanced for 1–5 workers and run inline or across a pool of
    /// any width from 1 to 5 (so with more parts than workers, and fewer) —
    /// against the serial kernel on CSR, bit for bit:
    /// every body keeps the serial order of a row's sum. HDC is the one
    /// format whose own order is not CSR's — a row's true-diagonal entries
    /// are summed before the rest — so it is bitwise against its own serial
    /// kernel and within tolerance of CSR's. Each case runs its drawn matrix
    /// under its drawn op, and a band under SpMV (the op whose DIA body
    /// tiles).
    #[test]
    fn threaded_equals_serial(
        m in arb_exec_matrix(),
        band in arb_band(),
        workers in 1usize..6,
        pool_width in 0usize..6,
        op in (0usize..4).prop_map(|i| [Op::Spmv, Op::Spmm { k: 1 }, Op::Spmm { k: 3 }, Op::Spmm { k: 8 }][i]),
        analysed in 0usize..2,
        shards in 1usize..5,
    ) {
        let opts = tolerant_opts();
        // Width 0: no pool, every part inline on this thread.
        let pool = (pool_width > 0).then(|| ThreadPool::new(pool_width));
        let pool = pool.as_ref();
        for (m, op) in [(&m, op), (&band, Op::Spmv)] {
            let k = op.rhs_count();
            let x: Vec<f64> = (0..m.ncols() * k).map(|i| ((i * 29 + 3) % 17) as f64 / 3.0 - 2.5).collect();
            let serial = |a: &DynamicMatrix<f64>| {
                let mut y = vec![f64::NAN; a.nrows() * k];
                match op {
                    Op::Spmv => spmv_serial(a, &x, &mut y).unwrap(),
                    Op::Spmm { k } => spmm_serial(a, &x, &mut y, k).unwrap(),
                }
                y
            };
            let y_csr = serial(&m.to_format(FormatId::Csr, &opts).unwrap());
            let target = (m.nnz() / shards).max(1);
            for &fmt in &ALL_FORMATS {
                let how = format!("{}x{} {fmt} {op} for {workers} on {pool_width}", m.nrows(), m.ncols());
                let csr_order = fmt != FormatId::Hdc;

                let whole = m.to_format(fmt, &opts).unwrap();
                let own = Analysis::of(&whole, opts.true_diag_alpha);
                let plan = ExecPlan::build(&whole, workers, (analysed == 1).then_some(&own));
                let mut y = vec![f64::NAN; m.nrows() * k];
                plan.run(&whole, op, &x, &mut y, pool).unwrap();
                assert_agrees(&y, &serial(&whole), true, &format!("{how}, whole, own serial"));
                assert_agrees(&y, &y_csr, csr_order, &format!("{how}, whole, CSR serial"));

                let service = sharding_service(fmt, workers, shards, target);
                let h = service.register_partitioned_for(m.clone(), op).unwrap();
                let how = format!("{how}, {} shards", h.num_shards());
                let mut y = vec![f64::NAN; m.nrows() * k];
                match op {
                    Op::Spmv => service.spmv(&h, &x, &mut y).unwrap(),
                    Op::Spmm { k } => service.spmm(&h, &x, &mut y, k).unwrap(),
                }
                assert_agrees(&y, &y_csr, csr_order, &format!("{how}, served"));
                if let Some(pm) = h.partition() {
                    let mut y = vec![f64::NAN; m.nrows() * k];
                    pm.run(op, &x, &mut y, pool, None).unwrap();
                    assert_agrees(&y, &y_csr, csr_order, &format!("{how}, shards on the pool"));
                }
            }
        }
    }

    /// Feature extraction sees through the active format (§VI-C): the same
    /// ten numbers regardless of representation.
    #[test]
    fn features_invariant_under_format(m in arb_matrix()) {
        let opts = tolerant_opts();
        let reference = FeatureVector::extract(&m);
        for &fmt in &ALL_FORMATS {
            let converted = m.to_format(fmt, &opts).unwrap();
            prop_assert_eq!(FeatureVector::extract(&converted), reference, "{}", fmt);
        }
    }

    /// Statistics invariants: totals and bounds are internally consistent.
    #[test]
    fn stats_are_internally_consistent(m in arb_matrix()) {
        let s = stats_of(&m, 0.2);
        prop_assert_eq!(s.nnz, m.nnz());
        prop_assert!(s.row_nnz_min <= s.row_nnz_max);
        prop_assert!(s.row_nnz_mean <= s.row_nnz_max as f64 + 1e-12);
        prop_assert!(s.row_nnz_mean >= s.row_nnz_min as f64 - 1e-12);
        prop_assert!(s.ntrue_diags <= s.ndiags);
        prop_assert!(s.ndiags <= s.nnz);
        prop_assert!(s.density() <= 1.0 + 1e-12);
    }

    /// Storage accounting: padded formats never report fewer bytes than the
    /// values they actually hold.
    #[test]
    fn storage_bytes_lower_bound(m in arb_matrix()) {
        let opts = tolerant_opts();
        for &fmt in &ALL_FORMATS {
            let converted = m.to_format(fmt, &opts).unwrap();
            prop_assert!(converted.storage_bytes() >= converted.nnz() * 8, "{}", fmt);
        }
    }
}
