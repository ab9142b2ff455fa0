//! A cold registration stores the same thing whatever the width of the
//! service's pool. On a `workers(W)` service with `W > 1`, the analysis walk
//! and the BELL/ELL/HYB fill of a matrix of `PARALLEL_CONVERT_THRESHOLD`
//! entries or more run on the service's pool, cut into `W` shares; every
//! share writes counts or copies, so the arrays, the report, the structure
//! hash and the `Analysis` must be bitwise what a one-worker service
//! stores. Checked here for the regimes `oracle_bench` generates, at test
//! size, and for the shapes where a cut degenerates: a bucket with fewer
//! slices than workers, one over-wide row, a size either side of the
//! threshold, empty rows, and no rows or no columns at all.

use morpheus_repro::corpus::gen::{banded, blocks, hetero, powerlaw, random, stencil};
use morpheus_repro::machine::{systems, Backend, MatrixAnalysis, Op, VirtualEngine};
use morpheus_repro::morpheus::convert::kernels::PARALLEL_CONVERT_THRESHOLD;
use morpheus_repro::morpheus::format::FormatId;
use morpheus_repro::morpheus::{Analysis, ConvertOptions, CooMatrix, DynamicMatrix, Scalar};
use morpheus_repro::oracle::{
    propose_params, FormatTuner, MatrixHandle, Oracle, OracleService, TuneDecision, TuneReport, TuningCost,
};
use morpheus_repro::parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Always the one format, with the parameters a model tuner proposes for
/// it, and — like a model tuner — without pricing formats, so the service
/// walks without block counts: the walk it splits.
struct Pick(FormatId);

impl<V: Scalar> FormatTuner<V> for Pick {
    fn name(&self) -> &'static str {
        "pick"
    }

    fn select(&self, _: &DynamicMatrix<V>, a: &MatrixAnalysis, _: &VirtualEngine, op: Op) -> TuneDecision {
        TuneDecision { format: self.0, params: propose_params(self.0, a), op, cost: TuningCost::default() }
    }

    fn prices_formats(&self) -> bool {
        false
    }
}

fn service(format: FormatId, workers: usize) -> OracleService<Pick> {
    Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(Pick(format))
        .workers(workers)
        .build_service()
        .unwrap()
}

/// One matrix of each structural class `oracle_bench` draws from, near
/// `nnz` entries (its generator calls, at test size).
fn regimes(nnz: usize) -> Vec<(&'static str, CooMatrix<f64>)> {
    let rng = &mut StdRng::seed_from_u64(40);
    let rows = |per_row: usize| nnz / per_row;
    let side2 = (rows(5) as f64).sqrt().ceil() as usize;
    let side3 = (rows(7) as f64).cbrt().ceil() as usize;
    let n13 = rows(13);
    vec![
        ("poisson2d", stencil::poisson2d(side2, side2)),
        ("poisson3d", stencil::poisson3d(side3, side3, side3)),
        ("banded_full", banded::banded_full(rows(9), 4, rng)),
        ("banded_partial", banded::banded_partial(rows(7), 12, 0.25, rng)),
        ("multi_diagonal", banded::multi_diagonal(rows(3), 5, rng)),
        ("diag_plus_scatter", banded::diag_plus_scatter(rows(3), rows(3) * 2, rng)),
        ("fem_blocks", blocks::fem_blocks(rows(15) / 3, 3, 2, rng)),
        ("aligned_blocks", blocks::aligned_blocks(rows(12) / 4, 4, 2, rng)),
        ("block_diagonal", blocks::block_diagonal(rows(6), 3, 9, rng)),
        ("uniform_degree", random::uniform_degree(rows(12), 12, rng)),
        ("variable_degree", random::variable_degree(rows(12), 2, 22, rng)),
        ("near_diagonal", random::near_diagonal(rows(8), 8, 60.0, rng)),
        ("erdos_renyi", random::erdos_renyi(rows(7), nnz, rng)),
        ("zipf_rows", powerlaw::zipf_rows(rows(12), nnz * 3 / 2, 1.4, rng)),
        ("hub_rows", powerlaw::hub_rows(rows(7), 3, rows(7) / 2, rows(7) * 6, rng)),
        ("bimodal_rows", random::bimodal_rows(rows(8), 4, 64, 16, rng)),
        ("three_regime", hetero::three_regime(n13, n13 / 50, 120.min(n13 / 4), n13 * 3 / 10, 16, 4, rng)),
    ]
}

/// `nrows` rows, row `r` holding the columns `cols(r)` (any order, no
/// repeats), every value distinct.
fn from_rows(nrows: usize, ncols: usize, cols: impl Fn(usize) -> Vec<usize>) -> CooMatrix<f64> {
    let (mut rs, mut cs) = (Vec::new(), Vec::new());
    for r in 0..nrows {
        for c in cols(r) {
            rs.push(r);
            cs.push(c);
        }
    }
    let vals: Vec<f64> = (0..rs.len()).map(|i| 1.0 + i as f64 / 7.0).collect();
    CooMatrix::from_triplets(nrows, ncols, &rs, &cs, &vals).unwrap()
}

/// The shapes where a cut degenerates.
fn edge_shapes() -> Vec<(&'static str, CooMatrix<f64>)> {
    let t = PARALLEL_CONVERT_THRESHOLD;
    // `t / 4` rows of four entries: exactly `t`, and one short of it.
    let four = |r: usize| (0..4).map(|k| (r + k * 977) % (t / 4)).collect::<Vec<_>>();
    vec![
        // 3 000 rows of six, two of 200: the widest bucket is one slice,
        // fewer than the workers.
        (
            "two_wide_rows",
            from_rows(3002, 4000, |r| {
                (0..if r < 2 { 200 } else { 6 }).map(|k| (r + 13 * k) % 4000).collect()
            }),
        ),
        // One row holds more than all the others together.
        (
            "one_over_wide_row",
            from_rows(2500, 30_000, |r| {
                if r == 1234 {
                    (0..30_000).collect()
                } else {
                    (0..8).map(|k| (r * 11 + k * 97) % 30_000).collect()
                }
            }),
        ),
        ("at_threshold", from_rows(t / 4, t / 4, four)),
        (
            "under_threshold",
            from_rows(t / 4, t / 4, |r| if r + 1 == t / 4 { four(r)[..3].to_vec() } else { four(r) }),
        ),
        // Two rows in three empty, in runs.
        (
            "empty_rows",
            from_rows(9000, 9000, |r| {
                if r % 3 == 0 {
                    (0..9).map(|k| (r + k * 31) % 9000).collect()
                } else {
                    Vec::new()
                }
            }),
        ),
        ("zero_rows", CooMatrix::new(0, 50)),
        ("zero_cols", CooMatrix::new(50, 0)),
    ]
}

fn to_f32(m: &CooMatrix<f64>) -> CooMatrix<f32> {
    let vals: Vec<f32> = m.values().iter().map(|&v| v as f32).collect();
    CooMatrix::from_triplets(m.nrows(), m.ncols(), m.row_indices(), m.col_indices(), &vals).unwrap()
}

/// Every value the matrix stores, as bits, in storage order — pads
/// included for the ELL family.
fn value_bits<V: Scalar>(m: &DynamicMatrix<V>) -> Vec<u64> {
    let bell = match m {
        DynamicMatrix::Bell(a) => Some(a),
        DynamicMatrix::Ell(a) => Some(a.bell()),
        DynamicMatrix::Hyb(a) => Some(a.ell().bell()),
        _ => None,
    };
    match bell {
        Some(bell) => bell.buckets().iter().flat_map(|b| b.vals()).map(|v| v.to_f64().to_bits()).collect(),
        None => m.to_coo().values().iter().map(|v| v.to_f64().to_bits()).collect(),
    }
}

/// What a report says, less the wall-clock and model-clock seconds.
fn what_was_done(r: &TuneReport) -> String {
    format!(
        "{} {} {} {} {:?} {} {:?} {} {:?} {}",
        r.chosen,
        r.previous,
        r.predicted,
        r.converted,
        r.op,
        r.cache_hit,
        r.plan,
        r.serial_fallback,
        r.convert.path,
        r.shards
    )
}

fn assert_same<V: Scalar>(name: &str, w: usize, got: &MatrixHandle<V>, one: &MatrixHandle<V>) {
    let (m, expect) = (got.matrix(), one.matrix());
    assert_eq!(m, expect, "{name}: workers({w}) stored other arrays than workers(1)");
    assert_eq!(value_bits(m), value_bits(expect), "{name}: workers({w}) stored other value bits");
    assert_eq!(m.structure_hash(), expect.structure_hash(), "{name}: workers({w})");
    assert_eq!(what_was_done(got.report()), what_was_done(one.report()), "{name}: workers({w})");
}

/// Registers every input on `workers(1..=4)` services deciding `format`,
/// and holds the wider services' handles to the one-worker service's.
fn registrations_agree<V: Scalar>(format: FormatId, inputs: &[(&str, CooMatrix<V>)]) {
    let services: Vec<_> = (1..=4).map(|w| service(format, w)).collect();
    for (name, coo) in inputs {
        let handles: Vec<MatrixHandle<V>> =
            services.iter().map(|s| s.register(DynamicMatrix::from(coo.clone())).unwrap()).collect();
        assert!(!handles[0].report().cache_hit, "{name}: a cold registration");
        for (w, handle) in (2..).zip(&handles[1..]) {
            assert_same(name, w, handle, &handles[0]);
        }
    }
}

/// The analysis the service walks (CSR, no block counts) on pools of 1–4
/// against the walk without a pool.
fn analyses_agree<V: Scalar>(inputs: &[(&str, CooMatrix<V>)], pools: &[ThreadPool]) {
    let alpha = ConvertOptions::default().true_diag_alpha;
    for (name, coo) in inputs {
        let csr =
            DynamicMatrix::from(coo.clone()).into_format(FormatId::Csr, &ConvertOptions::default()).unwrap();
        let hash = csr.structure_hash();
        let serial = Analysis::without_block_counts(&csr, alpha, hash, None);
        for pool in pools {
            let split = Analysis::without_block_counts(&csr, alpha, hash, Some(pool));
            assert_eq!(split, serial, "{name} on {} threads", pool.num_threads());
        }
    }
}

fn inputs() -> Vec<(&'static str, CooMatrix<f64>)> {
    let mut all = regimes(24_000);
    all.extend(edge_shapes());
    all
}

#[test]
fn every_regime_and_edge_shape_registers_bitwise_alike_on_one_to_four_workers() {
    let f64s = inputs();
    assert!(
        f64s[..17].iter().all(|(_, m)| m.nnz() >= PARALLEL_CONVERT_THRESHOLD),
        "regimes past the threshold"
    );
    let f32s: Vec<(&str, CooMatrix<f32>)> = f64s.iter().map(|(name, m)| (*name, to_f32(m))).collect();
    for format in [FormatId::Bell, FormatId::Ell, FormatId::Hyb] {
        registrations_agree(format, &f64s);
        registrations_agree(format, &f32s);
    }
}

#[test]
fn the_split_analysis_is_the_serial_one_for_every_regime_and_edge_shape() {
    let f64s = inputs();
    let f32s: Vec<(&str, CooMatrix<f32>)> = f64s.iter().map(|(name, m)| (*name, to_f32(m))).collect();
    let pools: Vec<ThreadPool> = (1..=4).map(ThreadPool::new).collect();
    analyses_agree(&f64s, &pools);
    analyses_agree(&f32s, &pools);
}
