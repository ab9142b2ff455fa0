//! A stored matrix's layout is its decision's: the BELL ladder a decision
//! carries — proposed by the tuner, or imported from a decisions file — is
//! the ladder of the `BellMatrix` a handle stores, on a miss, on a hit and
//! in every admitted shard.

use morpheus_repro::machine::{analyze, systems, Backend, MatrixAnalysis, Op, VirtualEngine};
use morpheus_repro::morpheus::format::FormatId;
use morpheus_repro::morpheus::{ConvertOptions, CooMatrix, DynamicMatrix, FormatParams};
use morpheus_repro::oracle::{
    propose_params, FormatTuner, Oracle, OracleService, PartitionPolicy, PlanStatus, RunFirstTuner,
    TuneDecision, TuningCost,
};

/// Answers BELL with the parameters proposed off the view it is handed.
struct ProposedBell;

impl FormatTuner<f64> for ProposedBell {
    fn name(&self) -> &'static str {
        "proposed-bell"
    }

    fn select(&self, _: &DynamicMatrix<f64>, a: &MatrixAnalysis, _: &VirtualEngine, op: Op) -> TuneDecision {
        let params = propose_params(FormatId::Bell, a);
        TuneDecision { format: FormatId::Bell, params, op, cost: TuningCost::default() }
    }
}

fn service<T>(tuner: T, policy: PartitionPolicy) -> OracleService<T> {
    let engine = VirtualEngine::new(systems::cirrus(), Backend::OpenMp);
    Oracle::builder().engine(engine).tuner(tuner).workers(2).partition_policy(policy).build_service().unwrap()
}

/// `n`×`n`, CSR (the form the service keys a matrix by), entries `(row, col)`.
fn csr(n: usize, entries: impl IntoIterator<Item = (usize, usize)>) -> DynamicMatrix<f64> {
    let (rows, cols): (Vec<usize>, Vec<usize>) = entries.into_iter().unzip();
    let vals: Vec<f64> = (0..rows.len()).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
    let coo = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
    coo.to_format(FormatId::Csr, &ConvertOptions::default()).unwrap()
}

/// Almost every row 3 entries long, every 97th 60 more: the proposed ladder
/// pads the short rows to 3, the automatic power-of-two one to 4.
fn heavy_tail(n: usize) -> DynamicMatrix<f64> {
    let short = (0..n).flat_map(|i| (0..3).map(move |k| (i, (i + k * 7 + 1) % n)));
    let long = (0..n).step_by(97).flat_map(|i| (0..60).map(move |k| (i, (i + 3 * k + 2) % n)));
    csr(n, short.chain(long))
}

fn in_bell(m: &DynamicMatrix<f64>, params: FormatParams) -> DynamicMatrix<f64> {
    m.to_format(FormatId::Bell, &ConvertOptions { params, ..Default::default() }).unwrap()
}

fn bell_widths(m: &DynamicMatrix<f64>) -> Vec<usize> {
    let DynamicMatrix::Bell(b) = m else { panic!("stored as {}, not BELL", m.format_id()) };
    b.bucket_widths()
}

#[test]
fn an_imported_ladder_reaches_the_stored_bell_matrix() {
    // Rows of 1 to 9 entries: the automatic ladder is not 3, 9.
    let m = csr(450, (0..450).flat_map(|i| (0..i % 9 + 1).map(move |k| (i, (i + 5 * k) % 450))));
    assert_ne!(bell_widths(&in_bell(&m, FormatParams::default())), [3, 9]);
    let service = service(RunFirstTuner::new(1), PartitionPolicy::default());
    let mut file = Vec::new();
    service.export_decisions(&mut file).unwrap();
    let file = String::from_utf8(file).unwrap().replace(
        "entries 0\nend",
        &format!("entries 1\ndecision {:016x} 8 spmv BELL bell=3,9\nend", m.structure_hash()),
    );
    assert_eq!(service.import_decisions(std::io::Cursor::new(file.as_bytes())).unwrap(), 1);
    let handle = service.register(m.clone()).unwrap();
    assert!(handle.report().cache_hit);
    assert_eq!(bell_widths(handle.matrix()), [3, 9]);
    let mut tuned = m;
    assert!(service.tune(&mut tuned).unwrap().cache_hit);
    assert_eq!(bell_widths(&tuned), [3, 9], "tune stores the decided layout too");
}

#[test]
fn a_proposed_ladder_is_stored_on_a_miss_and_on_its_hit() {
    let m = heavy_tail(2_000);
    let params = propose_params(FormatId::Bell, &analyze(&m));
    let want = in_bell(&m, params);
    assert_ne!(want, in_bell(&m, FormatParams::default()), "the proposal is not the automatic ladder");
    let service = service(ProposedBell, PartitionPolicy::default());
    let first = service.register(m.clone()).unwrap();
    assert!(!first.report().cache_hit);
    assert_eq!(first.matrix(), &want, "the miss stores the proposed ladder");
    let again = service.register(m).unwrap();
    assert!(again.report().cache_hit);
    assert_eq!(again.report().plan, PlanStatus::Reused);
    assert_eq!(again.matrix(), &want, "the hit stores identical arrays");
}

#[test]
fn an_admitted_shard_stores_its_decided_ladder() {
    let policy = PartitionPolicy { target_shard_nnz: Some(3_500), cost_gate: false, ..Default::default() };
    let handle = service(ProposedBell, policy).register_partitioned(heavy_tail(4_000)).unwrap();
    let shards = handle.partition().expect("the gate is off: the partition is admitted").shards();
    assert!(shards.len() >= 2, "{} shards", shards.len());
    for (i, shard) in shards.iter().enumerate() {
        let rows = shard.matrix().to_format(FormatId::Csr, &ConvertOptions::default()).unwrap();
        let params = propose_params(FormatId::Bell, &analyze(&rows));
        assert!(!params.bell_ladder().is_empty(), "shard {i}: {params:?}");
        assert_eq!(shard.matrix(), &in_bell(&rows, params), "shard {i}: its decided ladder");
    }
}
