//! Partitioned-handle integration tests: shard boundary properties,
//! partitioned execution vs. the serial reference (bitwise when
//! order-preserving, ULP-bounded otherwise), streaming ingestion (whole: a
//! stream is `register` of its assembled entries), and the service-level
//! partitioned registration path — `register` itself under the default
//! policy, and, forced, the one per-shard pipeline whose traversals and
//! shard keys are pinned. Every sharded handle here comes from a forced
//! `register_partitioned`.

use morpheus_repro::corpus::gen::hetero::{hub_plus_banded, three_regime};
use morpheus_repro::corpus::gen::stencil;
use morpheus_repro::machine::{systems, Backend, MatrixAnalysis, VirtualEngine};
use morpheus_repro::morpheus::analysis::passes;
use morpheus_repro::morpheus::format::FormatId;
use morpheus_repro::morpheus::partition::{split_rows, SEAM_ALIGN};
use morpheus_repro::morpheus::spmm::spmm_serial;
use morpheus_repro::morpheus::spmv::spmv_serial;
use morpheus_repro::morpheus::{
    for_each_entry_row_major, ConvertOptions, ConvertPath, CooBuilder, CooMatrix, CsrMatrix, DynamicMatrix,
    MorpheusError, Op, Partition, PartitionConfig, Scalar,
};
use morpheus_repro::oracle::adapt::{CollectorConfig, SampleCollector};
use morpheus_repro::oracle::{
    FormatTuner, Oracle, OracleError, OracleService, PartitionPolicy, PlanStatus, RunFirstTuner,
    TuneDecision, TuneReport, TuningCost,
};
use morpheus_repro::parallel::ThreadPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// `m` in CSR, the form a forced registration cuts.
fn csr_of<V: Scalar>(m: &DynamicMatrix<V>) -> CsrMatrix<V> {
    match m.to_format(FormatId::Csr, &ConvertOptions::default()).unwrap() {
        DynamicMatrix::Csr(csr) => csr,
        _ => unreachable!("converted to CSR"),
    }
}

/// The partition a forced registration under `cfg` chooses for `m`: from
/// its CSR offsets.
fn partition_of<V: Scalar>(m: &DynamicMatrix<V>, cfg: &PartitionConfig) -> Partition {
    let prefix: Vec<u64> = csr_of(m).row_offsets().iter().map(|&o| o as u64).collect();
    Partition::from_row_prefix(&prefix, cfg)
}

/// Answers its formats in turn, one per decision: a forced registration
/// decides its shards in row order, so shard `i` of a first registration
/// (with no two shards of one structure) is asked for `formats[i % len]`.
struct Cycle {
    formats: Vec<FormatId>,
    next: AtomicUsize,
}

impl Cycle {
    fn new(formats: &[FormatId]) -> Cycle {
        Cycle { formats: formats.to_vec(), next: AtomicUsize::new(0) }
    }
}

impl<V: Scalar> FormatTuner<V> for Cycle {
    fn name(&self) -> &'static str {
        "cycle"
    }

    fn select(&self, _: &DynamicMatrix<V>, _: &MatrixAnalysis, _: &VirtualEngine, op: Op) -> TuneDecision {
        let format = self.formats[self.next.fetch_add(1, Ordering::Relaxed) % self.formats.len()];
        TuneDecision { format, params: Default::default(), op, cost: TuningCost::default() }
    }
}

/// A service on `workers` that shards every matrix `register_partitioned`
/// is given along `target` entries per shard (at most `max_shards`), each
/// shard in the format `tuner` answers.
fn forced_service<T>(tuner: T, workers: usize, max_shards: usize, target: usize) -> OracleService<T> {
    Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(tuner)
        .workers(workers)
        .partition_policy(PartitionPolicy {
            max_shards: Some(max_shards),
            target_shard_nnz: Some(target),
            cost_gate: false,
        })
        .build_service()
        .unwrap()
}

fn hetero(n: usize, hub_rows: usize, hub_deg: usize, seed: u64) -> DynamicMatrix<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    DynamicMatrix::from(hub_plus_banded(n, hub_rows, hub_deg, 2, &mut rng))
}

/// Relative-error check scaled to re-associated accumulation headroom.
fn assert_close<V: Scalar>(got: &[V], want: &[V], eps: f64) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let (g, w) = (g.to_f64(), w.to_f64());
        assert!((g - w).abs() <= eps * w.abs().max(1.0), "row {i}: {g} vs {w}");
    }
}

fn bitwise_eq<V: Scalar>(a: &[V], b: &[V]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
}

#[test]
fn partition_is_deterministic_across_runs() {
    // Two independently generated (same seed) matrices must partition
    // identically: boundary selection is a pure function of the analysis.
    let cfg = PartitionConfig { target_shard_nnz: 2_000, ..Default::default() };
    let p1 = partition_of(&hetero(2_000, 100, 40, 11), &cfg);
    let p2 = partition_of(&hetero(2_000, 100, 40, 11), &cfg);
    assert_eq!(p1, p2);
    assert!(p1.num_shards() >= 2);
}

#[test]
fn degenerate_all_nnz_in_first_shard_and_empty_rows() {
    // One dense row, everything else empty: all nnz land in the first
    // shard and trailing all-empty row ranges still zero their y slice.
    let n = 64;
    let cols: Vec<usize> = (0..n).collect();
    let rows = vec![0usize; n];
    let vals = vec![1.5f64; n];
    let m = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
    let service = forced_service(Cycle::new(&[FormatId::Csr]), 4, 4, 8);
    let h = service.register_partitioned(m).unwrap();
    let shard_nnz: Vec<usize> = h.partition().unwrap().shards().iter().map(|s| s.nnz()).collect();
    assert!(shard_nnz.len() >= 2);
    assert_eq!(shard_nnz[0], n, "all nnz in the first shard");
    assert_eq!(shard_nnz[1..].iter().sum::<usize>(), 0);
    let x = vec![2.0; n];
    let mut y = vec![f64::NAN; n];
    service.spmv(&h, &x, &mut y).unwrap();
    assert_eq!(y[0], 2.0 * 1.5 * n as f64);
    assert!(y[1..].iter().all(|&v| v == 0.0), "empty shards must still zero y");
}

#[test]
fn shard_count_capped_by_rows() {
    // Asking for far more shards than rows must cap at one row per shard.
    let m = hetero(5, 2, 3, 3);
    let cfg = PartitionConfig { max_shards: 64, target_shard_nnz: 1, ..Default::default() };
    let p = partition_of(&m, &cfg);
    assert!(p.num_shards() <= 5);
    let subs = split_rows(&csr_of(&m), &p).unwrap();
    assert_eq!(subs.iter().map(|s| s.nnz()).sum::<usize>(), m.nnz());
}

/// Partitioned SpMV with per-shard formats matches the serial reference on
/// the same converted shards, bitwise, through the service and through the
/// stored shards on pools of any width. Exercised for f64 and f32.
fn partitioned_matches_reference<V: Scalar>() {
    let mut rng = StdRng::seed_from_u64(21);
    let coo = three_regime(1_200, 60, 50, 400, 8, 2, &mut rng);
    let mut b = CooBuilder::with_capacity(1_200, 1_200, coo.nnz());
    for (r, c, v) in coo.iter() {
        b.push(r, c, V::from_f64(v)).unwrap();
    }
    let m = DynamicMatrix::from(b.build());
    let target = m.nnz() / 5;

    let x: Vec<V> = (0..1_200).map(|i| V::from_f64(((i % 23) as f64 - 11.0) * 0.25)).collect();
    for fmts in [
        vec![FormatId::Csr],
        vec![FormatId::Csr, FormatId::Ell, FormatId::Dia, FormatId::Hyb, FormatId::Coo, FormatId::Hdc],
    ] {
        let service = forced_service(Cycle::new(&fmts), 3, 8, target);
        let h = service.register_partitioned(m.clone()).unwrap();
        let pm = h.partition().unwrap();
        assert!(pm.num_shards() >= 3);
        if fmts.len() > 1 {
            assert!(pm.shards().iter().any(|s| s.format_id() != FormatId::Csr), "shards in several formats");
        }
        // Reference: serial SpMV over the *converted* shards, row range by
        // row range — the unsharded accumulation order per row.
        let mut want = vec![V::ZERO; 1_200];
        for s in pm.shards() {
            let rows = s.rows();
            let mut ys = vec![V::ZERO; rows.len()];
            spmv_serial(s.matrix(), &x, &mut ys).unwrap();
            want[rows].copy_from_slice(&ys);
        }
        let mut got = vec![V::ZERO; 1_200];
        pm.run(Op::Spmv, &x, &mut got, None, None).unwrap();
        assert!(bitwise_eq(&got, &want), "shard plans must match their serial kernels bitwise");
        let mut served = vec![V::from_f64(9.0); 1_200];
        service.spmv(&h, &x, &mut served).unwrap();
        assert!(bitwise_eq(&served, &got), "the service runs the stored shards");
        // Pooled path is bitwise identical to unpooled, at any pool width.
        for threads in [1, 3, 7] {
            let pool = ThreadPool::new(threads);
            let mut pooled = vec![V::from_f64(9.0); 1_200];
            pm.run(Op::Spmv, &x, &mut pooled, Some(&pool), None).unwrap();
            assert!(bitwise_eq(&pooled, &got), "pooled != unpooled at {threads} threads");
        }
        // SpMM across the same path: shard kernels are the serial scalar
        // bodies, so the per-shard serial SpMM reference matches bitwise.
        let k = 3;
        let xk: Vec<V> = (0..1_200 * k).map(|i| V::from_f64(((i % 7) as f64) * 0.5)).collect();
        let mut yk = vec![V::ZERO; 1_200 * k];
        let pool = ThreadPool::new(3);
        pm.run(Op::Spmm { k }, &xk, &mut yk, Some(&pool), None).unwrap();
        let mut yk_ref = vec![V::ZERO; 1_200 * k];
        for s in pm.shards() {
            let rows = s.rows();
            let mut ys = vec![V::ZERO; rows.len() * k];
            spmm_serial(s.matrix(), &xk, &mut ys, k).unwrap();
            yk_ref[rows.start * k..rows.end * k].copy_from_slice(&ys);
        }
        assert!(bitwise_eq(&yk, &yk_ref), "partitioned SpMM must match per-shard serial");
    }
}

#[test]
fn partitioned_matches_reference_f64() {
    partitioned_matches_reference::<f64>();
}

#[test]
fn partitioned_matches_reference_f32() {
    partitioned_matches_reference::<f32>();
}

/// Stable shard ownership: with index = thread in the pool, shard `i` runs
/// on the same thread on every call from one caller — the first owner range
/// on the caller itself, the others on workers — so a shard's arrays stay
/// in one core's cache.
#[test]
fn run_owned_runs_each_shard_on_the_same_thread_every_call() {
    let m = hetero(1_200, 40, 300, 5);
    let service = forced_service(Cycle::new(&[FormatId::Csr]), 3, 8, m.nnz() / 6);
    let h = service.register_partitioned(m).unwrap();
    let pm = h.partition().unwrap();
    assert!(pm.shards().len() >= 3);
    let pool = ThreadPool::new(3);
    let x = vec![1.0f64; 1_200];
    let mut y = vec![0.0f64; 1_200];
    let owner: Vec<std::sync::Mutex<Option<std::thread::ThreadId>>> =
        pm.shards().iter().map(|_| std::sync::Mutex::new(None)).collect();
    for call in 0..50 {
        pm.run(
            Op::Spmv,
            &x,
            &mut y,
            Some(&pool),
            Some(&|si, _| {
                let me = std::thread::current().id();
                let prev = owner[si].lock().unwrap().replace(me);
                assert!(prev.is_none_or(|t| t == me), "call {call}: shard {si} moved threads");
            }),
        )
        .unwrap();
    }
    let owner: Vec<_> = owner.iter().map(|o| o.lock().unwrap().expect("every shard ran")).collect();
    assert_eq!(owner[0], std::thread::current().id(), "the first owner range is the caller's");
    let distinct: std::collections::HashSet<_> = owner.iter().collect();
    assert_eq!(distinct.len(), 3, "three owner ranges, three threads");
}

/// A stream is registered whole, even under a policy that forces shards:
/// the same handle and `y` as registering the batch-built matrix.
#[test]
fn streaming_ingestion_equals_batch_build() {
    let m = hetero(1_500, 80, 40, 5);
    let service = gated_service(
        2,
        PartitionPolicy { target_shard_nnz: Some(m.nnz() / 4), cost_gate: false, ..Default::default() },
    );
    let mut entries = Vec::new();
    for_each_entry_row_major(&m, |r, c, v| entries.push((r, c, v)));
    let streamed = service.register_stream(1_500, 1_500, entries).unwrap();
    assert!(!streamed.is_partitioned());
    assert_eq!(streamed.report().shards, 1);
    let batch = service.register(m.clone()).unwrap();
    assert_eq!(streamed.matrix(), batch.matrix());
    let x: Vec<f64> = (0..1_500).map(|i| (i as f64 * 0.01).cos()).collect();
    let mut want = vec![0.0; 1_500];
    spmv_serial(&m, &x, &mut want).unwrap();
    let (mut got, mut got_batch) = (vec![f64::NAN; 1_500], vec![f64::NAN; 1_500]);
    service.spmv(&streamed, &x, &mut got).unwrap();
    service.spmv(&batch, &x, &mut got_batch).unwrap();
    assert!(bitwise_eq(&got, &got_batch));
    assert_close(&got, &want, 1e-12);
}

#[test]
fn service_registers_partitioned_handle_with_shard_telemetry() {
    let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
    let service = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(1))
        .workers(4)
        .collector(Arc::clone(&collector))
        .partition_policy(PartitionPolicy {
            target_shard_nnz: Some(4_000),
            cost_gate: false, // force the partitioned path deterministically
            ..Default::default()
        })
        .build_service()
        .unwrap();
    let m = hetero(4_000, 150, 60, 9);
    let x: Vec<f64> = (0..4_000).map(|i| ((i * 7) % 13) as f64).collect();
    let mut want = vec![0.0; 4_000];
    spmv_serial(&m, &x, &mut want).unwrap();

    let before = collector.stats().telemetry.recorded;
    let h = service.register_partitioned(m).unwrap();
    assert!(h.is_partitioned());
    assert!(h.num_shards() >= 2);
    assert_eq!(h.report().shards, h.num_shards());

    let mut y = vec![0.0; 4_000];
    for _ in 0..3 {
        service.spmv(&h, &x, &mut y).unwrap();
        assert_close(&y, &want, 1e-12);
    }
    // Per-shard telemetry: every execution lands one sample per shard.
    let recorded = collector.stats().telemetry.recorded - before;
    assert!(
        recorded >= 3 * h.num_shards() as u64,
        "expected shard-level samples, got {recorded} for {} shards",
        h.num_shards()
    );

    // SpMM through the same handle.
    let k = 2;
    let xk: Vec<f64> = x.iter().flat_map(|&v| [v, -v]).collect();
    let mut yk = vec![0.0; 4_000 * k];
    service.spmm(&h, &xk, &mut yk, k).unwrap();
    let wide: Vec<f64> = want.iter().flat_map(|&v| [v, -v]).collect();
    assert_close(&yk, &wide, 1e-12);
}

/// `register` serves a matrix whole whatever the policy says of shards, and
/// so does the streaming front door.
#[test]
fn service_auto_shards_above_threshold_and_streams() {
    let service = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(1))
        .workers(2)
        .partition_policy(PartitionPolicy {
            target_shard_nnz: Some(5_000),
            cost_gate: false,
            ..Default::default()
        })
        .build_service()
        .unwrap();
    let big = hetero(5_000, 200, 50, 2);
    let x = vec![1.0; 5_000];
    let mut want = vec![0.0; 5_000];
    spmv_serial(&big, &x, &mut want).unwrap();
    let hb = service.register(big).unwrap();
    assert!(!hb.is_partitioned());
    assert_eq!(hb.report().shards, 1);
    let mut y = vec![0.0; 5_000];
    service.spmv(&hb, &x, &mut y).unwrap();
    assert_close(&y, &want, 1e-12);

    // Streaming front door: same matrix fed row-major.
    let big2 = hetero(5_000, 200, 50, 2);
    let mut entries = Vec::new();
    for_each_entry_row_major(&big2, |r, c, v| entries.push((r, c, v)));
    let hstream = service.register_stream(5_000, 5_000, entries).unwrap();
    assert!(!hstream.is_partitioned());
    assert_eq!(hstream.report().shards, 1);
    let mut ys = vec![0.0; 5_000];
    service.spmv(&hstream, &x, &mut ys).unwrap();
    assert_close(&ys, &want, 1e-12);
}

/// `register_stream` is `register` of the same entries assembled through
/// `CooBuilder`, bit for bit: a whole handle (one shard, even under a
/// policy that forces shards) of the same format and arrays, whose values
/// carry the same bits, decided under the same key — whichever registers
/// second hits the other's decision. Both sum a coordinate's duplicates in
/// push order. Every non-empty row holds two coordinates, each pushed as
/// the triple `1e16, 1, -1e16` (0 in push order, 1 if the 1 is added last),
/// the triples interleaved and the larger column first; rows at either end
/// and in the middle stay empty. A zero-entry stream is the empty matrix;
/// a row after a later one and an entry out of bounds are typed errors.
fn stream_and_builder_agree<V: Scalar>() {
    let n = 64;
    let mut entries = Vec::new();
    for r in (2..n - 3).filter(|r| r % 10 != 5) {
        let other = (7 * r + 3) % n;
        for v in [1e16, 1.0, -1e16] {
            entries.push((r, r.max(other), V::from_f64(v)));
            entries.push((r, r.min(other), V::from_f64(v)));
        }
    }
    let bits =
        |m: &DynamicMatrix<V>| m.to_coo().values().iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
    let policy = PartitionPolicy { target_shard_nnz: Some(8), cost_gate: false, ..Default::default() };
    for entries in [entries, Vec::new()] {
        let what = format!("{} entries at {} bytes", entries.len(), std::mem::size_of::<V>());
        let mut b = CooBuilder::<V>::new(n, n);
        for &(r, c, v) in &entries {
            b.push(r, c, v).unwrap();
        }
        let coo = DynamicMatrix::from(b.build());
        assert!(bits(&coo).iter().all(|&v| v == 0), "{what}: push order sums every triple to +0");
        for stream_first in [false, true] {
            let service = gated_service(1, policy);
            let (hs, hr) = if stream_first {
                let hs = service.register_stream(n, n, entries.iter().copied()).unwrap();
                (hs, service.register(coo.clone()).unwrap())
            } else {
                let hr = service.register(coo.clone()).unwrap();
                (service.register_stream(n, n, entries.iter().copied()).unwrap(), hr)
            };
            let what = format!("{what}, stream first: {stream_first}");
            assert!(!hs.is_partitioned() && !hr.is_partitioned(), "{what}");
            assert_eq!((hs.report().shards, hr.report().shards), (1, 1), "{what}");
            assert_eq!(hs.format_id(), hr.format_id(), "{what}");
            assert_eq!(hs.matrix(), hr.matrix(), "{what}: format, parameters and arrays");
            assert_eq!(bits(hs.matrix()), bits(hr.matrix()), "{what}: value bits");
            let second = if stream_first { &hr } else { &hs };
            assert!(second.report().cache_hit, "{what}: the second registration hits the first's decision");
            assert_eq!(service.cache_stats().len, 1, "{what}: one decision");
        }
    }

    let service = gated_service(1, policy);
    let decreasing = [(1, 0, V::ONE), (0, 0, V::ONE)];
    assert!(matches!(
        service.register_stream(n, n, decreasing),
        Err(OracleError::Morpheus(MorpheusError::InvalidStructure(_)))
    ));
    for outside in [(n, 0, V::ONE), (0, n, V::ONE)] {
        assert!(matches!(
            service.register_stream(n, n, [outside]),
            Err(OracleError::Morpheus(MorpheusError::IndexOutOfBounds { .. }))
        ));
    }
}

#[test]
fn stream_and_builder_sum_duplicates_in_push_order() {
    stream_and_builder_agree::<f64>();
    stream_and_builder_agree::<f32>();
}

/// A source that holds no row range as one slice (anything but COO and CSR)
/// is converted to CSR once and sharded like one: same shard rows, formats
/// and arrays as registering the CSR matrix, bitwise the same `y`. One with
/// too few entries for two shards is registered as it came.
#[test]
fn padded_sources_are_sharded_through_csr() {
    let policy = PartitionPolicy { target_shard_nnz: Some(4_000), cost_gate: false, ..Default::default() };
    let coo = hetero(4_000, 150, 60, 9);
    let opts = ConvertOptions { min_padded_allowance: 1 << 24, ..Default::default() };
    let x: Vec<f64> = (0..4_000).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    let reference = gated_service(2, policy);
    let csr = coo.to_format(FormatId::Csr, &opts).unwrap();
    let expect = reference.register_partitioned(csr).unwrap();
    let mut want = vec![f64::NAN; 4_000];
    reference.spmv(&expect, &x, &mut want).unwrap();
    for fmt in [FormatId::Ell, FormatId::Hyb, FormatId::Bell] {
        let service = gated_service(2, policy);
        let h = service.register_partitioned(coo.to_format(fmt, &opts).unwrap()).unwrap();
        assert_eq!(h.report().previous, fmt);
        let (got, want_shards) = (h.partition().unwrap(), expect.partition().unwrap());
        assert_eq!(got.num_shards(), want_shards.num_shards(), "{fmt}");
        for (g, w) in got.shards().iter().zip(want_shards.shards()) {
            assert_eq!((g.rows(), g.matrix()), (w.rows(), w.matrix()), "{fmt}: shard rows and arrays");
        }
        let mut y = vec![f64::NAN; 4_000];
        service.spmv(&h, &x, &mut y).unwrap();
        assert!(bitwise_eq(&y, &want), "{fmt}");
    }

    let unsharded = gated_service(2, PartitionPolicy { target_shard_nnz: Some(1 << 30), ..policy });
    let ell = coo.to_format(FormatId::Ell, &opts).unwrap();
    unsharded.register(ell.clone()).unwrap();
    let h = unsharded.register_partitioned(ell).unwrap();
    assert!(h.partition().is_none());
    assert_eq!(h.report().previous, FormatId::Ell);
    assert!(h.report().cache_hit, "decided under the structure `register` decided");
}

fn gated_service(workers: usize, policy: PartitionPolicy) -> OracleService<RunFirstTuner> {
    Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(1))
        .workers(workers)
        .partition_policy(policy)
        .build_service()
        .unwrap()
}

fn exported<T>(service: &OracleService<T>) -> String {
    let mut buf = Vec::new();
    service.export_decisions(&mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// `coo` with its values in `V`.
fn in_scalar<V: Scalar>(coo: &CooMatrix<f64>) -> CooMatrix<V> {
    let mut b = CooBuilder::with_capacity(coo.nrows(), coo.ncols(), coo.nnz());
    for (r, c, v) in coo.iter() {
        b.push(r, c, V::from_f64(v)).unwrap();
    }
    b.build()
}

/// Every field of a report but the seconds it measured.
fn untimed(r: &TuneReport) -> TuneReport {
    let cost = TuningCost { cache_hit: r.cost.cache_hit, ..TuningCost::default() };
    TuneReport { cost, convert: morpheus_repro::morpheus::ConvertOutcome { seconds: 0.0, ..r.convert }, ..*r }
}

/// Under the default policy `register_partitioned` is `register`: from a COO
/// and a DIA source, at `f64` and `f32`, the same format and parameters (the
/// same stored arrays), the same report but for its timings — `previous`
/// the caller's format — a whole-matrix handle, one decision-cache entry
/// (`register`'s) and bitwise the same `y`. The matrices are ones a forced
/// policy shards.
fn register_partitioned_is_register<V: Scalar>() {
    let policy = PartitionPolicy { target_shard_nnz: Some(4_000), ..Default::default() };
    assert!(policy.cost_gate, "the default");
    let mut rng = StdRng::seed_from_u64(31);
    let opts = ConvertOptions::default();
    let hub = DynamicMatrix::from(in_scalar::<V>(&hub_plus_banded(4_000, 150, 60, 2, &mut rng)));
    let band = DynamicMatrix::from(in_scalar::<V>(&stencil::poisson3d(16, 16, 16)));
    let sources = [
        ("hub+banded", hub.clone()),
        ("poisson3d", band.clone()),
        ("poisson3d", band.to_format(FormatId::Dia, &opts).unwrap()),
    ];
    for (name, m) in sources {
        let what = format!("{name} from {} at {} bytes", m.format_id(), std::mem::size_of::<V>());
        let shards = partition_of(&m, &policy.config(2));
        assert!(shards.num_shards() >= 2, "{what}: a forced policy would shard it");
        let x: Vec<V> = (0..m.ncols()).map(|i| V::from_f64(((i % 29) as f64 - 14.0) * 0.125)).collect();
        let (plain, partitioned) = (gated_service(2, policy), gated_service(2, policy));
        let want = plain.register(m.clone()).unwrap();
        let got = partitioned.register_partitioned(m.clone()).unwrap();
        assert!(!got.is_partitioned() && got.partition().is_none(), "{what}");
        assert_eq!(got.format_id(), want.format_id(), "{what}");
        assert_eq!(got.matrix(), want.matrix(), "{what}: format, parameters and arrays");
        assert_eq!(untimed(got.report()), untimed(want.report()), "{what}: report");
        assert_eq!(got.report().previous, m.format_id(), "{what}");
        // One decision: `register`'s key, format and parameters.
        assert_eq!(partitioned.cache_stats().len, 1, "{what}: one decision");
        assert_eq!(exported(&partitioned), exported(&plain), "{what}: the decision cache");
        let (mut y, mut y_want) = (vec![V::ZERO; m.nrows()], vec![V::ZERO; m.nrows()]);
        partitioned.spmv(&got, &x, &mut y).unwrap();
        plain.spmv(&want, &x, &mut y_want).unwrap();
        assert!(bitwise_eq(&y, &y_want), "{what}: y");
    }
}

#[test]
fn register_partitioned_under_the_default_policy_is_register_f64() {
    register_partitioned_is_register::<f64>();
}

#[test]
fn register_partitioned_under_the_default_policy_is_register_f32() {
    register_partitioned_is_register::<f32>();
}

/// Under the default policy `register_partitioned` traverses the matrix
/// exactly as often as `register`, whatever shard count the policy would
/// ask for: no row-length sweep, no shard hash, no split and no per-shard
/// walk — nothing is paid for shards that are not built.
#[test]
fn rejected_partition_traversals_do_not_grow_with_the_shard_count() {
    let mut rng = StdRng::seed_from_u64(5);
    // One regime throughout: shards buy nothing at one worker.
    let m = DynamicMatrix::from(hub_plus_banded(6_000, 0, 0, 4, &mut rng));
    let plain = gated_service(1, PartitionPolicy::default());
    passes::reset();
    let whole = plain.register(m.clone()).unwrap();
    let register_passes = passes::count();

    let mut shard_counts = Vec::new();
    for max_shards in [4, 6, 8] {
        let policy = PartitionPolicy {
            target_shard_nnz: Some(4_000),
            max_shards: Some(max_shards),
            ..Default::default()
        };
        let shards = partition_of(&m, &policy.config(1)).num_shards();
        shard_counts.push(shards);
        let service = gated_service(1, policy);
        passes::reset();
        let h = service.register_partitioned(m.clone()).unwrap();
        let partitioned_passes = passes::count();
        assert!(!h.is_partitioned(), "a single-regime band must be served whole ({shards} shards)");
        assert_eq!(h.format_id(), whole.format_id());
        assert_eq!(
            partitioned_passes, register_passes,
            "register_partitioned under the default policy over {shards} shards: {register_passes} for register"
        );
    }
    assert_eq!(shard_counts, [4, 6, 8], "the policy must ask for each shard count");
}

/// A `register_partitioned` under the default policy leaves one decision
/// behind: the whole matrix's, keyed by its CSR form, which it is served
/// by. No shard is looked up, counted or given a slot of the decision
/// cache — where, in a long-lived service, it could evict a live
/// whole-matrix decision. A repeat is a hit on that one entry.
#[test]
fn a_declined_partition_leaves_only_the_whole_matrix_decision() {
    let mut rng = StdRng::seed_from_u64(5);
    let m = DynamicMatrix::from(hub_plus_banded(6_000, 0, 0, 4, &mut rng));
    let policy = PartitionPolicy { target_shard_nnz: Some(4_000), ..Default::default() };
    assert!(partition_of(&m, &policy.config(1)).num_shards() >= 4);
    let key = m.to_format(FormatId::Csr, &ConvertOptions::default()).unwrap().structure_hash();
    let service = gated_service(1, policy);
    for round in 0..2u64 {
        let h = service.register_partitioned(m.clone()).unwrap();
        assert!(!h.is_partitioned(), "round {round}: a single-regime band is served whole");
        assert_eq!(h.report().cache_hit, round == 1, "round {round}");
        let decisions = exported(&service);
        let entries: Vec<&str> = decisions.lines().filter(|l| l.starts_with("decision ")).collect();
        assert_eq!(entries.len(), 1, "round {round}: {decisions}");
        assert!(entries[0].starts_with(&format!("decision {key:016x} ")), "round {round}: {decisions}");
        let stats = service.cache_stats();
        assert_eq!((stats.len, stats.hits, stats.misses), (1, round, 1), "round {round}: one lookup each");
    }
}

/// A forced `register_partitioned` traverses the matrix a bounded number of
/// times, however it is sharded: the front door hashes the moved CSR matrix
/// once (1), the partition is chosen from its offsets and the split reads
/// its row lengths off them too (no walk), the split copies the pieces out
/// (1), and each shard is then what `register_stream` makes of it — its hash,
/// its analysis walk and, on a mixed HDC split, the remainder walk of its
/// machine view (at most 3). The COO-to-CSR move is a conversion fill, not a
/// traversal. A converted shard is never hashed: it is keyed by the hash of
/// the CSR piece it was decided as.
#[test]
fn admitted_partition_traversals_are_one_walk_plus_one_per_shard() {
    let policy = PartitionPolicy { target_shard_nnz: Some(4_000), cost_gate: false, ..Default::default() };
    let service = gated_service(2, policy);
    let m = hetero(4_000, 150, 60, 9);
    let decided_under: Vec<u64> = {
        let partition = partition_of(&m, &policy.config(2));
        let pieces = split_rows(&csr_of(&m), &partition).unwrap();
        pieces.into_iter().map(|csr| DynamicMatrix::from(csr).structure_hash()).collect()
    };
    passes::reset();
    let h = service.register_partitioned(m).unwrap();
    let admitted_passes = passes::count();
    assert!(h.is_partitioned());
    let shards = h.num_shards() as u64;
    assert!(shards >= 2);
    let budget = 2 + 3 * shards;
    assert!(
        admitted_passes <= budget,
        "forced register_partitioned made {admitted_passes} traversals over {shards} shards, budget {budget} \
         (hash, split; per shard a hash, a walk and a remainder walk)"
    );
    let keyed: Vec<u64> = h.partition().unwrap().shards().iter().map(|s| s.structure()).collect();
    assert_eq!(keyed, decided_under, "each shard is keyed by the hash of the CSR piece it was decided as");
}

/// The report of a partitioned handle says what registration did: summed
/// shard conversion time on the direct path and summed shard tuning cost,
/// `cache_hit` only when every shard's decision came from the cache, and
/// `plan` reused only when every shard's plan did.
#[test]
fn partitioned_report_sums_shard_conversions_and_cache_hits() {
    let policy = PartitionPolicy { target_shard_nnz: Some(4_000), cost_gate: false, ..Default::default() };
    let service = gated_service(2, policy);
    let first = service.register_partitioned(hetero(4_000, 150, 60, 9)).unwrap();
    assert!(first.is_partitioned());
    let report = first.report();
    assert!(!report.cache_hit, "cold caches: no shard decision can be a hit");
    let any_converted = first.partition().unwrap().shards().iter().any(|s| s.format_id() != FormatId::Csr);
    assert_eq!(report.converted, any_converted);
    if any_converted {
        assert_eq!(report.convert.path, ConvertPath::Direct);
        assert!(report.convert.seconds > 0.0);
    } else {
        assert_eq!(report.convert, morpheus_repro::morpheus::ConvertOutcome::identity());
    }
    assert_eq!(report.plan, PlanStatus::Built, "cold caches: shard plans are built");
    assert!(!report.cost.cache_hit, "a miss among the shards is not a cached cost");
    assert!(report.cost.profiling > 0.0, "the run-first tuner's trials, summed over the shards");

    let again = service.register_partitioned(hetero(4_000, 150, 60, 9)).unwrap();
    let report = again.report();
    assert!(report.cache_hit, "same structure again: every shard decision is cached");
    assert_eq!(report.convert.path, first.report().convert.path);
    assert_eq!(report.plan, PlanStatus::Reused, "every shard plan came with its cached decision");
    assert_eq!(report.cost, TuningCost::cached(), "nothing was extracted or predicted again");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Partition invariants on random row histograms: boundaries strictly
    /// increasing, tiling 0..nrows, shard nnz summing to the total, shard
    /// count within bounds, determinism; and a forced registration over the
    /// same histogram cuts the partition its policy asks for and executes
    /// like the serial kernel.
    #[test]
    fn partition_invariants(
        hist in proptest::collection::vec(0u32..120, 1..300),
        max_shards in 1usize..12,
        target in 1usize..5_000,
        window in 1usize..64,
    ) {
        let n = hist.len();
        let mut b = CooBuilder::new(n, n);
        b.push(0, 0, 1.0f64).unwrap(); // never fully empty
        for (r, &k) in hist.iter().enumerate() {
            for j in 0..k as usize {
                b.push(r, j % n, 1.0 + j as f64).unwrap();
            }
        }
        let m = DynamicMatrix::from(b.build());
        let cfg = PartitionConfig {
            max_shards,
            target_shard_nnz: target,
            regime_window: window,
            ..Default::default()
        };
        let p = partition_of(&m, &cfg);
        prop_assert!(p.num_shards() >= 1 && p.num_shards() <= max_shards.min(n));
        prop_assert_eq!(p.boundaries()[0], 0);
        prop_assert_eq!(*p.boundaries().last().unwrap(), n);
        prop_assert!(p.boundaries().windows(2).all(|w| w[0] < w[1]));
        // The seam rule: every interior boundary is a multiple of 8 rows
        // (so there are at most ceil(n / 8) shards), whatever the row count.
        prop_assert!(p.boundaries()[1..p.num_shards()].iter().all(|b| b % SEAM_ALIGN == 0), "{:?}", p.boundaries());
        prop_assert!(p.num_shards() <= n.div_ceil(SEAM_ALIGN));
        prop_assert_eq!(p.shard_nnz().iter().sum::<usize>(), m.nnz());
        prop_assert_eq!(&p, &partition_of(&m, &cfg));

        let service = forced_service(Cycle::new(&[FormatId::Csr]), 3, max_shards, target);
        let h = service.register_partitioned(m.clone()).unwrap();
        let asked = partition_of(&m, &PartitionPolicy {
            max_shards: Some(max_shards),
            target_shard_nnz: Some(target),
            cost_gate: false,
        }.config(3));
        match h.partition() {
            Some(pm) => {
                let rows: Vec<_> = pm.shards().iter().map(|s| s.rows()).collect();
                prop_assert_eq!(rows, asked.ranges().collect::<Vec<_>>());
            }
            None => prop_assert_eq!(asked.num_shards(), 1),
        }
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut want = vec![0.0; n];
        spmv_serial(&m, &x, &mut want).unwrap();
        let mut got = vec![f64::NAN; n];
        service.spmv(&h, &x, &mut got).unwrap();
        // ULP-bounded: planned kernel bodies may fuse multiply-adds.
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!((g - w).abs() <= 1e-12 * w.abs().max(1.0), "row {}: {} vs {}", i, g, w);
        }
    }
}
