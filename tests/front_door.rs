//! The serving front door: every entry point moves a COO source into CSR
//! before anything hashes it. A COO matrix and its CSR copy are then one
//! structure to the service — one key, one decision, one plan — while the
//! report still names the caller's format, and what is stored is what the
//! COO→X conversion builds.

use morpheus_repro::corpus::gen::banded::tridiagonal;
use morpheus_repro::corpus::gen::blocks::fem_blocks;
use morpheus_repro::corpus::gen::hetero::hub_plus_banded;
use morpheus_repro::corpus::gen::powerlaw::zipf_rows;
use morpheus_repro::corpus::gen::random::hypersparse;
use morpheus_repro::machine::{systems, Backend, MatrixAnalysis, VirtualEngine};
use morpheus_repro::morpheus::analysis::passes;
use morpheus_repro::morpheus::format::{FormatId, ALL_FORMATS};
use morpheus_repro::morpheus::partition::SEAM_ALIGN;
use morpheus_repro::morpheus::spmv::spmv_serial;
use morpheus_repro::morpheus::{ConvertOptions, ConvertPath, DynamicMatrix, FormatParams};
use morpheus_repro::oracle::{
    FormatTuner, Op, Oracle, OracleService, PartitionPolicy, PlanStatus, RunFirstTuner, TuneDecision,
    TuningCost,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tuner that always picks its format.
struct Always(FormatId);

impl FormatTuner<f64> for Always {
    fn name(&self) -> &'static str {
        "always"
    }

    fn select(&self, _: &DynamicMatrix<f64>, _: &MatrixAnalysis, _: &VirtualEngine, op: Op) -> TuneDecision {
        TuneDecision { format: self.0, params: FormatParams::default(), op, cost: TuningCost::default() }
    }
}

/// Options under which every format holds the small matrices below.
fn roomy() -> ConvertOptions {
    ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() }
}

fn service<T>(tuner: T) -> OracleService<T> {
    Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(tuner)
        .convert_options(roomy())
        .workers(1)
        .build_service()
        .unwrap()
}

fn coo_sources() -> Vec<(&'static str, DynamicMatrix<f64>)> {
    let mut rng = StdRng::seed_from_u64(26);
    vec![
        ("tridiagonal", DynamicMatrix::from(tridiagonal(400))),
        ("hypersparse, empty rows", DynamicMatrix::from(hypersparse(600, 250, &mut rng))),
        ("zipf rows", DynamicMatrix::from(zipf_rows(500, 6_000, 1.3, &mut rng))),
        ("fem blocks", DynamicMatrix::from(fem_blocks(40, 4, 3, &mut rng))),
    ]
}

fn csr_copy(m: &DynamicMatrix<f64>) -> DynamicMatrix<f64> {
    m.to_format(FormatId::Csr, &ConvertOptions::default()).unwrap()
}

/// A COO source and its CSR copy are one structure: the copy hits the
/// decision the source missed, reuses its plan, and computes bitwise the
/// same `y`.
#[test]
fn a_coo_source_and_its_csr_copy_share_one_decision_and_one_plan() {
    for (name, coo) in coo_sources() {
        let service = service(RunFirstTuner::new(1));
        let x: Vec<f64> = (0..coo.ncols()).map(|i| ((i % 13) as f64 - 6.0) * 0.25).collect();
        let first = service.register(coo.clone()).unwrap();
        let second = service.register(csr_copy(&coo)).unwrap();
        let (a, b) = (first.report(), second.report());
        assert!(!a.cache_hit && b.cache_hit, "{name}: one miss, then one hit");
        assert_eq!((a.previous, b.previous), (FormatId::Coo, FormatId::Csr), "{name}");
        assert_eq!((a.chosen, a.predicted), (b.chosen, b.predicted), "{name}: the same decision");
        assert_eq!(b.plan, PlanStatus::Reused, "{name}: the copy replays the source's plan");
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1), "{name}");
        let (mut ya, mut yb) = (vec![f64::NAN; coo.nrows()], vec![f64::NAN; coo.nrows()]);
        service.spmv(&first, &x, &mut ya).unwrap();
        service.spmv(&second, &x, &mut yb).unwrap();
        assert!(ya.iter().zip(&yb).all(|(p, q)| p.to_bits() == q.to_bits()), "{name}: y");
    }
}

/// `tune_and_spmv` on a COO matrix: the report names COO, the caller's
/// matrix is left in CSR — the format it entered in: one execution repays
/// no conversion into BELL — and the move is in the conversion time, also
/// when CSR is what was decided.
#[test]
fn tune_and_spmv_on_coo_reports_the_callers_format_and_the_move() {
    for format in [FormatId::Bell, FormatId::Csr] {
        let service = service(Always(format));
        let mut m = DynamicMatrix::from(tridiagonal(3_000));
        let (x, mut y) = (vec![1.0f64; 3_000], vec![f64::NAN; 3_000]);
        let report = service.tune_and_spmv(&mut m, &x, &mut y).unwrap();
        assert_eq!((report.previous, report.chosen), (FormatId::Coo, FormatId::Csr));
        assert_eq!(report.predicted, format);
        assert_eq!(m.format_id(), report.chosen);
        assert!(report.converted, "{format}: the caller's COO is gone");
        assert_eq!(report.convert.path, ConvertPath::Direct, "{format}");
        assert!(report.convert.seconds > 0.0, "{format}: the move is timed");
        assert_eq!((y[0], y[1], y[2_999]), (1.0, 0.0, 1.0), "{format}: row sums of 2, -1 tridiagonal");
    }
}

/// The move is a conversion fill, not a traversal: a COO miss still reads
/// the matrix twice (key hash, analysis walk) and its hit once.
#[test]
fn a_coo_miss_is_still_two_traversals() {
    let service = service(Always(FormatId::Bell));
    passes::reset();
    assert!(!service.register(DynamicMatrix::from(tridiagonal(700))).unwrap().report().cache_hit);
    assert_eq!(passes::count(), 2, "a COO miss: key hash, analysis");
    passes::reset();
    assert!(service.register(DynamicMatrix::from(tridiagonal(700))).unwrap().report().cache_hit);
    assert_eq!(passes::count(), 1, "a COO hit: the key hash");
}

/// Whatever format is decided, the stored matrix is what converting the
/// COO source to it builds: CSR→X and COO→X read the same arrays.
#[test]
fn every_stored_format_is_the_coo_conversion() {
    for (name, coo) in coo_sources() {
        for format in ALL_FORMATS {
            let handle = service(Always(format)).register(coo.clone()).unwrap();
            assert_eq!(handle.report().previous, FormatId::Coo, "{name}, {format}");
            match coo.to_format(format, &roomy()) {
                Ok(expect) => {
                    assert_eq!(handle.format_id(), format, "{name}, {format}");
                    assert_eq!(handle.matrix(), &expect, "{name}, {format}: stored arrays");
                }
                Err(_) => assert_eq!(handle.matrix(), &csr_copy(&coo), "{name}, {format}: CSR fallback"),
            }
        }
    }
}

/// A source that wants shards goes through CSR whatever its format; when its
/// partition then comes out as a single shard it is served whole, and its
/// report still names the format it came in. Under the default policy
/// nothing wants shards: the DIA source is registered as `register` does.
#[test]
fn a_dia_source_served_whole_reports_dia() {
    let mut rng = StdRng::seed_from_u64(5);
    // One seam group of rows: one shard, however many are wanted.
    let band = DynamicMatrix::from(hub_plus_banded(SEAM_ALIGN, 0, 0, 4, &mut rng));
    let dia = band.to_format(FormatId::Dia, &roomy()).unwrap();
    let service = |cost_gate| {
        Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(1))
            .convert_options(roomy())
            .workers(1)
            .partition_policy(PartitionPolicy { target_shard_nnz: Some(4), cost_gate, ..Default::default() })
            .build_service()
            .unwrap()
    };
    let forced = service(false);
    let h = forced.register_partitioned(dia.clone()).unwrap();
    assert!(h.partition().is_none(), "eight rows are one shard");
    assert_eq!(h.report().previous, FormatId::Dia);
    assert!(h.report().convert.seconds > 0.0, "DIA→CSR is part of the conversion");
    let (x, mut y, mut want) =
        (vec![1.0f64; SEAM_ALIGN], vec![f64::NAN; SEAM_ALIGN], vec![0.0f64; SEAM_ALIGN]);
    forced.spmv(&h, &x, &mut y).unwrap();
    spmv_serial(h.matrix(), &x, &mut want).unwrap();
    assert_eq!(y, want);

    let default = service(true);
    let h = default.register_partitioned(dia.clone()).unwrap();
    let plain = default.register(dia).unwrap();
    assert!(plain.report().cache_hit, "decided under the key `register` looks up");
    assert_eq!(h.report().previous, FormatId::Dia);
    assert_eq!(h.matrix(), plain.matrix());
}
