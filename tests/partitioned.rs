//! Partitioned-handle integration tests: shard boundary properties,
//! partitioned execution vs. the serial reference (bitwise when
//! order-preserving, ULP-bounded otherwise), streaming ingestion, and the
//! service-level partitioned registration path — including that deciding
//! before materialising admits exactly the partitions a
//! convert-everything-first evaluation admits, at a bounded traversal
//! cost when it rejects; and that a model tuner's gate, which walks for the
//! whole matrix's exact baseline only once a partition beats a bound it can
//! compute without, reaches the verdicts and handles of the same tuner
//! handed full views throughout.

use morpheus_repro::corpus::gen::hetero::{hub_plus_banded, shifted_bands, three_regime};
use morpheus_repro::corpus::gen::{banded, blocks, powerlaw, random, stencil};
use morpheus_repro::corpus::CorpusSpec;
use morpheus_repro::machine::{analyze, analyze_from, systems, Backend, MatrixAnalysis, VirtualEngine};
use morpheus_repro::ml::{Dataset, ForestParams, RandomForest};
use morpheus_repro::morpheus::analysis::passes;
use morpheus_repro::morpheus::format::FormatId;
use morpheus_repro::morpheus::partition::{split_rows, SEAM_ALIGN};
use morpheus_repro::morpheus::spmm::spmm_serial;
use morpheus_repro::morpheus::spmv::spmv_serial;
use morpheus_repro::morpheus::{
    for_each_entry_row_major, Analysis, ConvertOptions, ConvertPath, CooBuilder, CooMatrix, DynamicMatrix,
    ExecPlan, Op, Partition, PartitionConfig, PartitionedMatrix, Scalar, StreamingPartitioner,
};
use morpheus_repro::oracle::adapt::{CollectorConfig, SampleCollector};
use morpheus_repro::oracle::{
    FeatureVector, FormatTuner, Oracle, OracleService, PartitionPolicy, PlanStatus, RandomForestTuner,
    RunFirstTuner, TuneDecision, TuningCost, NUM_FEATURES,
};
use morpheus_repro::parallel::ThreadPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn analysis_of<V: Scalar>(m: &DynamicMatrix<V>) -> Analysis {
    Analysis::of_auto_with_hash(m, ConvertOptions::default().true_diag_alpha, m.structure_hash())
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
    let p1 = Partition::from_analysis(&analysis_of(&hetero(2_000, 100, 40, 11)), &cfg);
    let p2 = Partition::from_analysis(&analysis_of(&hetero(2_000, 100, 40, 11)), &cfg);
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
    let a = analysis_of(&m);
    let cfg = PartitionConfig { max_shards: 4, target_shard_nnz: 8, ..Default::default() };
    let p = Partition::from_analysis(&a, &cfg);
    assert_eq!(p.shard_nnz()[0], n, "all nnz in the first shard");
    assert_eq!(p.shard_nnz()[1..].iter().sum::<usize>(), 0);
    let pm =
        PartitionedMatrix::build(&m, &p, &ConvertOptions::default(), 4, Some(&a), |_, _, _| FormatId::Csr)
            .unwrap();
    let x = vec![2.0; n];
    let mut y = vec![f64::NAN; n];
    pm.run(Op::Spmv, &x, &mut y, None, None).unwrap();
    assert_eq!(y[0], 2.0 * 1.5 * n as f64);
    assert!(y[1..].iter().all(|&v| v == 0.0), "empty shards must still zero y");
}

#[test]
fn shard_count_capped_by_rows() {
    // Asking for far more shards than rows must cap at one row per shard.
    let m = hetero(5, 2, 3, 3);
    let a = analysis_of(&m);
    let cfg = PartitionConfig { max_shards: 64, target_shard_nnz: 1, ..Default::default() };
    let p = Partition::from_analysis(&a, &cfg);
    assert!(p.num_shards() <= 5);
    let subs = split_rows(&m, &p, Some(&a)).unwrap();
    assert_eq!(subs.iter().map(|s| s.nnz()).sum::<usize>(), m.nnz());
}

/// Partitioned SpMV with per-shard formats matches the serial reference on
/// the same converted shards, bitwise. Exercised for f64 and f32.
fn partitioned_matches_reference<V: Scalar>() {
    let mut rng = StdRng::seed_from_u64(21);
    let coo = three_regime(1_200, 60, 50, 400, 8, 2, &mut rng);
    let mut b = CooBuilder::with_capacity(1_200, 1_200, coo.nnz());
    for (r, c, v) in coo.iter() {
        b.push(r, c, V::from_f64(v)).unwrap();
    }
    let m = DynamicMatrix::from(b.build());
    let a = analysis_of(&m);
    let cfg = PartitionConfig { target_shard_nnz: m.nnz() / 5, ..Default::default() };
    let p = Partition::from_analysis(&a, &cfg);
    assert!(p.num_shards() >= 3);

    let x: Vec<V> = (0..1_200).map(|i| V::from_f64(((i % 23) as f64 - 11.0) * 0.25)).collect();
    for fmts in [
        vec![FormatId::Csr],
        vec![FormatId::Csr, FormatId::Ell, FormatId::Dia, FormatId::Hyb, FormatId::Coo, FormatId::Hdc],
    ] {
        let pm = PartitionedMatrix::build(&m, &p, &ConvertOptions::default(), 3, Some(&a), |i, _, _| {
            fmts[i % fmts.len()]
        })
        .unwrap();
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
    let a = analysis_of(&m);
    let cfg = PartitionConfig { target_shard_nnz: m.nnz() / 6, ..Default::default() };
    let p = Partition::from_analysis(&a, &cfg);
    let pm =
        PartitionedMatrix::build(&m, &p, &ConvertOptions::default(), 3, Some(&a), |_, _, _| FormatId::Csr)
            .unwrap();
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

#[test]
fn streaming_ingestion_equals_batch_build() {
    let m = hetero(1_500, 80, 40, 5);
    let cfg = PartitionConfig { target_shard_nnz: m.nnz() / 4, ..Default::default() };
    let mut sp = StreamingPartitioner::new(1_500, 1_500, &cfg);
    for_each_entry_row_major(&m, |r, c, v| sp.push(r, c, v).unwrap());
    let (partition, parts) = sp.finish().unwrap();
    assert!(partition.num_shards() >= 2);
    assert_eq!(partition.shard_nnz().iter().sum::<usize>(), m.nnz());
    let pm = PartitionedMatrix::assemble(1_500, parts, 2, |_, _, _| Ok(())).unwrap();
    let x: Vec<f64> = (0..1_500).map(|i| (i as f64 * 0.01).cos()).collect();
    let mut want = vec![0.0; 1_500];
    spmv_serial(&m, &x, &mut want).unwrap();
    let mut got = vec![0.0; 1_500];
    pm.run(Op::Spmv, &x, &mut got, None, None).unwrap();
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

#[test]
fn service_auto_shards_above_threshold_and_streams() {
    let service = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(1))
        .workers(2)
        .partition_policy(PartitionPolicy {
            auto_nnz_threshold: Some(10_000),
            target_shard_nnz: Some(5_000),
            cost_gate: false,
            ..Default::default()
        })
        .build_service()
        .unwrap();
    // Below threshold: register() stays whole-matrix.
    let small = hetero(300, 20, 20, 2);
    let hs = service.register(small).unwrap();
    assert!(!hs.is_partitioned());
    assert_eq!(hs.report().shards, 1);
    // Above threshold: register() shards automatically.
    let big = hetero(5_000, 200, 50, 2);
    let x = vec![1.0; 5_000];
    let mut want = vec![0.0; 5_000];
    spmv_serial(&big, &x, &mut want).unwrap();
    let hb = service.register(big).unwrap();
    assert!(hb.is_partitioned(), "auto threshold must shard large matrices");
    let mut y = vec![0.0; 5_000];
    service.spmv(&hb, &x, &mut y).unwrap();
    assert_close(&y, &want, 1e-12);

    // Streaming front door: same matrix fed row-major, never held whole.
    let big2 = hetero(5_000, 200, 50, 2);
    let mut entries = Vec::new();
    for_each_entry_row_major(&big2, |r, c, v| entries.push((r, c, v)));
    let hstream = service.register_stream(5_000, 5_000, entries).unwrap();
    assert!(hstream.is_partitioned());
    let mut ys = vec![0.0; 5_000];
    service.spmv(&hstream, &x, &mut ys).unwrap();
    assert_close(&ys, &want, 1e-12);
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

fn cirrus() -> VirtualEngine {
    VirtualEngine::new(systems::cirrus(), Backend::OpenMp)
}

fn service_over<T>(tuner: T, workers: usize, policy: PartitionPolicy) -> OracleService<T> {
    Oracle::builder()
        .engine(cirrus())
        .tuner(tuner)
        .workers(workers)
        .partition_policy(policy)
        .build_service()
        .unwrap()
}

fn gated_service(workers: usize, policy: PartitionPolicy) -> OracleService<RunFirstTuner> {
    service_over(RunFirstTuner::new(1), workers, policy)
}

/// `register_partitioned` decides every shard, gates, and only then
/// converts. Whatever it skips, the outcome must be the one obtained by
/// tuning and converting every shard first and evaluating the gate on the
/// realized shards: same verdict, same shard row ranges and formats, and
/// bitwise the same `y`.
#[test]
fn gate_verdict_and_shards_match_convert_first_evaluation() {
    let mut rng = StdRng::seed_from_u64(77);
    let corpus: Vec<(&str, DynamicMatrix<f64>)> = vec![
        ("hub+banded", DynamicMatrix::from(hub_plus_banded(6_000, 200, 80, 3, &mut rng))),
        ("three-regime", DynamicMatrix::from(three_regime(6_000, 150, 90, 2_000, 9, 2, &mut rng))),
        (
            "shifted-bands",
            DynamicMatrix::from(shifted_bands(6_000, 100, 60, &[(0, 2), (700, 5), (-900, 3)], &mut rng)),
        ),
        ("banded", DynamicMatrix::from(hub_plus_banded(6_000, 0, 0, 4, &mut rng))),
    ];
    let policy = PartitionPolicy { target_shard_nnz: Some(8_000), ..Default::default() };
    let (mut admitted, mut rejected) = (0, 0);
    for workers in 1..=4 {
        for (name, m) in &corpus {
            let what = format!("{name} at {workers} workers");
            let n = m.nrows();
            let x: Vec<f64> = (0..n).map(|i| ((i % 29) as f64 - 14.0) * 0.125).collect();
            let service = gated_service(workers, policy);
            let h = service.register_partitioned(m.clone()).unwrap();
            let mut y = vec![f64::NAN; n];
            service.spmv(&h, &x, &mut y).unwrap();

            // Convert-first evaluation through public pieces, on a second
            // service with cold caches.
            let reference = gated_service(workers, policy);
            let engine = cirrus();
            let analysis = analysis_of(m);
            let partition = Partition::from_analysis(&analysis, &policy.config(workers));
            assert!(partition.num_shards() >= 2, "{what}: the corpus must ask the gate a question");
            let mut shards = Vec::new();
            let mut shard_times = Vec::new();
            for csr in split_rows(m, &partition, Some(&analysis)).unwrap() {
                let mut sm = DynamicMatrix::from(csr);
                let sa = analysis_of(&sm);
                let view = analyze_from(&sm, &sa);
                reference.tune(&mut sm).unwrap();
                shard_times.push(engine.spmv_time_at(sm.format_id(), &view, 1));
                shards.push((sm, sa));
            }
            let best_whole = engine.best_spmv_time_at(&analyze_from(m, &analysis), workers).1;
            let expect_partitioned = engine.partitioned_spmv_time(&shard_times, workers) < best_whole;

            assert_eq!(h.is_partitioned(), expect_partitioned, "{what}: gate verdict");
            let mut want = vec![f64::NAN; n];
            if expect_partitioned {
                admitted += 1;
                let pm = h.partition().unwrap();
                assert_eq!(pm.num_shards(), partition.num_shards(), "{what}");
                for ((got, rows), (sm, sa)) in pm.shards().iter().zip(partition.ranges()).zip(&shards) {
                    assert_eq!(got.rows(), rows, "{what}: shard rows");
                    assert_eq!(got.format_id(), sm.format_id(), "{what}: shard format");
                    assert_eq!(got.matrix(), sm, "{what}: shard arrays");
                    ExecPlan::build(sm, 1, Some(sa)).spmv_unpooled(sm, &x, &mut want[rows]).unwrap();
                }
            } else {
                rejected += 1;
                let whole = reference.register(m.clone()).unwrap();
                assert_eq!(h.format_id(), whole.format_id(), "{what}: whole-matrix format");
                assert_eq!(h.matrix(), whole.matrix(), "{what}: whole-matrix arrays");
                reference.spmv(&whole, &x, &mut want).unwrap();
            }
            assert!(bitwise_eq(&y, &want), "{what}: y must be bitwise what the convert-first path serves");
        }
    }
    assert!(admitted > 0 && rejected > 0, "corpus must exercise both verdicts ({admitted}/{rejected})");
}

/// A gate-rejected `register_partitioned` decides its shards as row ranges
/// of the source and hands its whole-matrix hash, analysis and machine view
/// to the whole-matrix path: whatever the shard count, it traverses the
/// matrix as often as a plain `register` plus the row-length sweep the
/// partition is chosen from. No shard hashes (a declined shard is never
/// keyed), no split (which counts as a traversal) and no per-shard walk —
/// the machine view re-reads a shard only for a mixed HDC split, which a
/// hub-free band does not have.
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
        let shards = Partition::from_analysis(&analysis_of(&m), &policy.config(1)).num_shards();
        shard_counts.push(shards);
        let service = gated_service(1, policy);
        passes::reset();
        let h = service.register_partitioned(m.clone()).unwrap();
        let partitioned_passes = passes::count();
        assert!(!h.is_partitioned(), "a single-regime band must be served whole ({shards} shards)");
        assert_eq!(h.format_id(), whole.format_id());
        assert_eq!(
            partitioned_passes,
            register_passes + 1,
            "rejected register_partitioned over {shards} shards: {register_passes} for register, \
             the row-length sweep"
        );
    }
    assert_eq!(shard_counts, [4, 6, 8], "the policy must ask the gate about each shard count");
}

/// A gate-declined `register_partitioned` leaves one decision behind: the
/// whole matrix's, which it is served by. Its shards were decided without
/// keys, so none of them is looked up, counted or given a slot of the
/// decision cache — where, in a long-lived service, it could evict a live
/// whole-matrix decision. A repeat is a hit on that one entry.
#[test]
fn a_declined_partition_leaves_only_the_whole_matrix_decision() {
    let mut rng = StdRng::seed_from_u64(5);
    let m = DynamicMatrix::from(hub_plus_banded(6_000, 0, 0, 4, &mut rng));
    let policy = PartitionPolicy { target_shard_nnz: Some(4_000), ..Default::default() };
    assert!(Partition::from_analysis(&analysis_of(&m), &policy.config(1)).num_shards() >= 4);
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

/// An admitted partition pays the same front — hash, row-length sweep, the
/// one walk — then the shard hashes, the split, and per shard at most one
/// re-read for a mixed HDC view: the whole matrix is walked once, not once
/// more per shard, and a converted shard is never hashed (a shard is keyed
/// by the hash it was decided under).
#[test]
fn admitted_partition_traversals_are_one_walk_plus_one_per_shard() {
    let policy = PartitionPolicy { target_shard_nnz: Some(4_000), cost_gate: false, ..Default::default() };
    let service = gated_service(2, policy);
    let m = hetero(4_000, 150, 60, 9);
    let decided_under: Vec<u64> = {
        let partition = Partition::from_analysis(&analysis_of(&m), &policy.config(2));
        let pieces = split_rows(&m, &partition, None).unwrap();
        pieces.into_iter().map(|csr| DynamicMatrix::from(csr).structure_hash()).collect()
    };
    passes::reset();
    let h = service.register_partitioned(m).unwrap();
    let admitted_passes = passes::count();
    assert!(h.is_partitioned());
    let shards = h.num_shards() as u64;
    assert!(shards >= 2);
    let budget = 5 + shards;
    assert!(
        admitted_passes <= budget,
        "admitted register_partitioned made {admitted_passes} traversals over {shards} shards, budget {budget} \
         (hash, row-length sweep, walk, shard hashes, split; a view re-read per shard)"
    );
    let keyed: Vec<u64> = h.partition().unwrap().shards().iter().map(|s| s.structure()).collect();
    assert_eq!(keyed, decided_under, "each shard is keyed by the hash of the CSR piece it was decided as");
}

/// The benchmark's selector at test size: a forest fitted on the engine's
/// profile of a 60-matrix corpus.
fn fitted_forest() -> RandomForestTuner {
    let engine = cirrus();
    let mut train =
        Dataset::empty(NUM_FEATURES, morpheus_repro::morpheus::format::FORMAT_COUNT, vec![]).unwrap();
    for entry in CorpusSpec::small(60).iter() {
        let view = analyze(&DynamicMatrix::from(entry.matrix));
        let features = FeatureVector::from_stats(&view.stats);
        train.push(features.as_slice(), engine.profile(&view).optimal.index()).unwrap();
    }
    let params = ForestParams { n_estimators: 15, seed: 1, ..Default::default() };
    RandomForestTuner::new(RandomForest::fit(&train, &params).unwrap()).unwrap()
}

/// `T`'s decisions, declared as priced from the view: the service hands it
/// full views and full analyses throughout, as it does a run-first tuner.
struct HandedFullViews<T>(T);

impl<T: FormatTuner<f64>> FormatTuner<f64> for HandedFullViews<T> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn select(&self, m: &DynamicMatrix<f64>, a: &MatrixAnalysis, e: &VirtualEngine, op: Op) -> TuneDecision {
        self.0.select(m, a, e, op)
    }
}

fn exported<T>(service: &OracleService<T>) -> String {
    let mut buf = Vec::new();
    service.export_decisions(&mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// The eight regimes of the benchmark's `solver_long` at a tenth of its
/// size, and three matrices of several regimes each.
fn gate_corpus() -> Vec<(&'static str, DynamicMatrix<f64>)> {
    let mut rng = StdRng::seed_from_u64(23);
    let rng = &mut rng;
    let n = 4_000;
    let corpus = vec![
        ("poisson3d", stencil::poisson3d(17, 17, 17)),
        ("banded_partial", banded::banded_partial(n, 12, 0.4, rng)),
        ("aligned_blocks", blocks::aligned_blocks(n / 4, 4, 2, rng)),
        ("bimodal_rows", random::bimodal_rows(n, 4, 64, 16, rng)),
        ("zipf_rows", powerlaw::zipf_rows(n, n * 10, 1.4, rng)),
        ("hub_rows", powerlaw::hub_rows(n, 3, n / 2, n * 6, rng)),
        ("erdos_renyi", random::erdos_renyi(n, n * 8, rng)),
        ("three_regime", three_regime(n, n / 50, 120, n * 3 / 10, 16, 4, rng)),
        ("hub+banded", hub_plus_banded(6_000, 200, 80, 3, rng)),
        ("three-regime, long hubs", three_regime(6_000, 150, 90, 2_000, 9, 2, rng)),
        ("shifted-bands", shifted_bands(6_000, 100, 60, &[(0, 2), (700, 5), (-900, 3)], rng)),
    ];
    corpus.into_iter().map(|(name, coo)| (name, DynamicMatrix::from(coo))).collect()
}

/// A model tuner's gate decides on less: no block counts in its one walk, no
/// remainder histograms in its views, and the whole matrix's exact baseline
/// only for a partition that beats the walk-free bound. Its verdicts, shard
/// boundaries and formats, cached decisions and every `y` are those of the
/// same model handed full views throughout — COO and CSR sources, one worker
/// and two, cold caches and warm ones.
#[test]
fn a_model_tuners_gate_reaches_the_verdicts_of_one_handed_full_views() {
    let forest = fitted_forest();
    assert!(!FormatTuner::<f64>::prices_formats(&forest));
    assert!(FormatTuner::<f64>::prices_formats(&HandedFullViews(forest.clone())));
    let policy = PartitionPolicy { target_shard_nnz: Some(8_000), ..Default::default() };
    let (mut admitted, mut rejected) = (0, 0);
    for workers in [1, 2] {
        let lazy = service_over(forest.clone(), workers, policy);
        let eager = service_over(HandedFullViews(forest.clone()), workers, policy);
        for (name, coo) in gate_corpus() {
            let csr = coo.to_format(FormatId::Csr, &ConvertOptions::default()).unwrap();
            let x: Vec<f64> = (0..coo.ncols()).map(|i| ((i % 29) as f64 - 14.0) * 0.125).collect();
            // The second round of each source hits the decisions of the first.
            for (round, source) in [&coo, &csr, &coo, &csr].into_iter().enumerate() {
                let what = format!("{name} from {} at {workers} workers, round {round}", source.format_id());
                let got = lazy.register_partitioned(source.clone()).unwrap();
                let want = eager.register_partitioned(source.clone()).unwrap();
                assert_eq!(got.is_partitioned(), want.is_partitioned(), "{what}: gate verdict");
                assert_eq!(got.format_id(), want.format_id(), "{what}");
                assert_eq!(got.batch_cost(), want.batch_cost(), "{what}: gate numbers");
                match (got.partition(), want.partition()) {
                    (Some(got), Some(want)) => {
                        admitted += 1;
                        assert_eq!(got.num_shards(), want.num_shards(), "{what}");
                        for (g, w) in got.shards().iter().zip(want.shards()) {
                            assert_eq!(g.rows(), w.rows(), "{what}: shard rows");
                            assert_eq!(g.format_id(), w.format_id(), "{what}: shard format");
                            assert_eq!(g.matrix(), w.matrix(), "{what}: shard arrays");
                        }
                    }
                    (None, None) => {
                        rejected += 1;
                        assert_eq!(got.matrix(), want.matrix(), "{what}: whole-matrix arrays");
                    }
                    _ => unreachable!("verdicts agreed above"),
                }
                let (mut y, mut y_want) = (vec![f64::NAN; coo.nrows()], vec![f64::NAN; coo.nrows()]);
                lazy.spmv(&got, &x, &mut y).unwrap();
                eager.spmv(&want, &x, &mut y_want).unwrap();
                assert!(bitwise_eq(&y, &y_want), "{what}: y");
            }
        }
        assert_eq!(exported(&lazy), exported(&eager), "{workers} workers: the decisions cached");
    }
    assert!(admitted > 0 && rejected > 0, "corpus must exercise both verdicts ({admitted}/{rejected})");
}

/// What a model tuner's registrations traverse, on a matrix whose HDC split
/// is mixed whole and in every shard (a band with strays off it): a plain
/// `register` miss is the key hash and the analysis walk; a gate-declined
/// `register_partitioned` those and the row-length sweep the partition is
/// chosen from — no shard hashes, no block stamps, no remainder re-read,
/// whole or per shard; an admitted one the two late walks of the whole
/// matrix on top (block counts, remainder: the exact baseline), the one
/// sweep of the column array that hashes the shards, and the split. Handed
/// full views, the same decisions cost a remainder walk for the whole
/// matrix and one per shard.
#[test]
fn a_model_tuners_gate_walks_only_for_a_partition_that_beats_the_bound() {
    let forest = fitted_forest();
    let mut rng = StdRng::seed_from_u64(5);
    let opts = ConvertOptions::default();
    let mixed = |m: &DynamicMatrix<f64>| {
        let a = analysis_of(m);
        0 < a.true_diag_nnz && a.true_diag_nnz < a.nnz()
    };
    // One regime throughout: shards buy nothing at one worker.
    let band = DynamicMatrix::from(banded::diag_plus_scatter(6_000, 9_000, &mut rng));
    let band = band.to_format(FormatId::Csr, &opts).unwrap();
    assert!(mixed(&band));
    let policy = PartitionPolicy { target_shard_nnz: Some(4_000), ..Default::default() };
    let shards = Partition::from_analysis(&analysis_of(&band), &policy.config(1)).num_shards() as u64;
    assert!(shards >= 3);

    let lazy = service_over(forest.clone(), 1, policy);
    passes::reset();
    let whole = lazy.register(band.clone()).unwrap();
    assert!(!whole.report().cache_hit);
    assert_eq!(passes::count(), 2, "register: hash, walk");
    lazy.clear_cache();
    passes::reset();
    let declined = lazy.register_partitioned(band.clone()).unwrap();
    assert!(!declined.is_partitioned() && !declined.report().cache_hit);
    assert_eq!(passes::count(), 3, "declined: hash, row lengths, walk");

    let eager = service_over(HandedFullViews(forest.clone()), 1, policy);
    passes::reset();
    assert!(!eager.register_partitioned(band.clone()).unwrap().is_partitioned());
    assert_eq!(passes::count(), 3 + 1 + shards, "handed full views: a remainder walk whole and per shard");

    // Several regimes, two workers: admitted.
    let several = hetero(4_000, 150, 60, 9).to_format(FormatId::Csr, &opts).unwrap();
    assert!(mixed(&several));
    let lazy = service_over(forest, 2, policy);
    passes::reset();
    let admitted = lazy.register_partitioned(several).unwrap();
    assert!(admitted.is_partitioned());
    let walked_for: Vec<FormatId> =
        admitted.partition().unwrap().shards().iter().map(|s| s.format_id()).collect();
    let late = walked_for.iter().filter(|f| matches!(f, FormatId::Bsr | FormatId::Hdc)).count() as u64;
    assert_eq!(
        passes::count(),
        4 + 2 + 1 + 2 * late,
        "admitted: hash, row lengths, walk, shard hashes; block counts and remainder of the whole; the split \
         (and both walks of a shard decided BSR or HDC: {walked_for:?})"
    );
}

/// Always the one format, at its default parameters.
struct Always(FormatId);

impl FormatTuner<f64> for Always {
    fn name(&self) -> &'static str {
        "always"
    }

    fn select(&self, _: &DynamicMatrix<f64>, _: &MatrixAnalysis, _: &VirtualEngine, op: Op) -> TuneDecision {
        let params = morpheus_repro::morpheus::FormatParams::default();
        TuneDecision { format: self.0, params, op, cost: TuningCost::default() }
    }
}

/// A shard decision that reaches the gate from the decision cache or a
/// decisions file is priced there like any other — and HDC, on a mixed split,
/// from a remainder the model tuner's shard views were assembled without:
/// the walk is taken on the hit path too. Seeded with HDC for every shard,
/// the forest's service serves the handle of the one handed full views —
/// verdict, shards, gate numbers, bitwise `y` — gate on and off, from the
/// file (entries without gate numbers) and again from the cache.
#[test]
fn a_seeded_hdc_shard_decision_is_priced_as_for_a_tuner_handed_full_views() {
    let mut rng = StdRng::seed_from_u64(41);
    let m = DynamicMatrix::from(banded::diag_plus_scatter(6_000, 9_000, &mut rng));
    let target = PartitionPolicy { target_shard_nnz: Some(4_000), ..Default::default() };
    let seeding = service_over(Always(FormatId::Hdc), 2, PartitionPolicy { cost_gate: false, ..target });
    let seeded = seeding.register_partitioned(m.clone()).unwrap();
    let shards = seeded.partition().expect("the gate is off").shards();
    assert!(shards.len() >= 3 && shards.iter().all(|s| s.format_id() == FormatId::Hdc));
    for s in shards {
        let a = analysis_of(s.matrix());
        assert!(0 < a.true_diag_nnz && a.true_diag_nnz < a.nnz(), "rows {:?}: a mixed split", s.rows());
    }
    let decisions = exported(&seeding);

    let forest = fitted_forest();
    let x: Vec<f64> = (0..m.ncols()).map(|i| ((i % 29) as f64 - 14.0) * 0.125).collect();
    for gate in [true, false] {
        let policy = PartitionPolicy { cost_gate: gate, ..target };
        let lazy = service_over(forest.clone(), 2, policy);
        let eager = service_over(HandedFullViews(forest.clone()), 2, policy);
        let imported = lazy.import_decisions(std::io::Cursor::new(decisions.as_bytes())).unwrap();
        assert_eq!(imported, eager.import_decisions(std::io::Cursor::new(decisions.as_bytes())).unwrap());
        assert_eq!(imported, shards.len());
        for round in ["from the file", "from the cache"] {
            let what = format!("gate {gate}, {round}");
            let got = lazy.register_partitioned(m.clone()).unwrap();
            let want = eager.register_partitioned(m.clone()).unwrap();
            assert!(gate || got.is_partitioned(), "{what}");
            assert_eq!(got.is_partitioned(), want.is_partitioned(), "{what}: gate verdict");
            assert_eq!(got.batch_cost(), want.batch_cost(), "{what}: gate numbers");
            if let (Some(got), Some(want)) = (got.partition(), want.partition()) {
                assert!(got.shards().iter().all(|s| s.format_id() == FormatId::Hdc), "{what}: seeded shards");
                for (g, w) in got.shards().iter().zip(want.shards()) {
                    assert_eq!((g.rows(), g.matrix()), (w.rows(), w.matrix()), "{what}: shard");
                }
            }
            let (mut y, mut y_want) = (vec![f64::NAN; m.nrows()], vec![f64::NAN; m.nrows()]);
            lazy.spmv(&got, &x, &mut y).unwrap();
            eager.spmv(&want, &x, &mut y_want).unwrap();
            assert!(bitwise_eq(&y, &y_want), "{what}: y");
        }
        assert_eq!(exported(&lazy), exported(&eager), "gate {gate}: the decisions cached");
    }
}

/// The gate decides shards without keys, so nothing the service cached
/// itself reaches it; a decision imported from a file — the one entry its
/// own tuner would not make again — still does. A service whose tuner
/// answers CSR for every shard declines a partition that a forest's
/// service admits; with the forest's decisions imported it admits it, in
/// the imported shard formats, and once its cache is cleared it declines
/// again.
#[test]
fn imported_shard_decisions_steer_the_gate() {
    let policy = PartitionPolicy { target_shard_nnz: Some(4_000), ..Default::default() };
    let m = hetero(4_000, 150, 60, 9);
    let seeding = service_over(fitted_forest(), 2, policy);
    let seeded = seeding.register_partitioned(m.clone()).unwrap();
    let formats = |h: &morpheus_repro::oracle::MatrixHandle<f64>| -> Vec<FormatId> {
        h.partition().expect("admitted").shards().iter().map(|s| s.format_id()).collect()
    };
    let want = formats(&seeded);
    assert!(want.iter().any(|&f| f != FormatId::Csr), "{want:?}");

    let service = service_over(Always(FormatId::Csr), 2, policy);
    passes::reset();
    assert!(!service.register_partitioned(m.clone()).unwrap().is_partitioned(), "its own answers decline");
    let declined = passes::count();
    service.import_decisions(std::io::Cursor::new(exported(&seeding).as_bytes())).unwrap();
    let steered = service.register_partitioned(m.clone()).unwrap();
    assert_eq!(formats(&steered), want, "imported shard formats, admitted");
    service.clear_cache();
    passes::reset();
    assert!(!service.register_partitioned(m).unwrap().is_partitioned(), "no imports left to steer it");
    assert_eq!(passes::count(), declined, "and none to key the shards for");
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
    /// count within bounds, determinism, and split+execute ≡ serial.
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
        let a = analysis_of(&m);
        let cfg = PartitionConfig {
            max_shards,
            target_shard_nnz: target,
            regime_window: window,
            ..Default::default()
        };
        let p = Partition::from_analysis(&a, &cfg);
        prop_assert!(p.num_shards() >= 1 && p.num_shards() <= max_shards.min(n));
        prop_assert_eq!(p.boundaries()[0], 0);
        prop_assert_eq!(*p.boundaries().last().unwrap(), n);
        prop_assert!(p.boundaries().windows(2).all(|w| w[0] < w[1]));
        // The seam rule: every interior boundary is a multiple of 8 rows
        // (so there are at most ceil(n / 8) shards), whatever the row count.
        prop_assert!(p.boundaries()[1..p.num_shards()].iter().all(|b| b % SEAM_ALIGN == 0), "{:?}", p.boundaries());
        prop_assert!(p.num_shards() <= n.div_ceil(SEAM_ALIGN));
        prop_assert_eq!(p.shard_nnz().iter().sum::<usize>(), m.nnz());
        prop_assert_eq!(&p, &Partition::from_analysis(&a, &cfg));
        let pm = PartitionedMatrix::build(
            &m, &p, &ConvertOptions::default(), 3, Some(&a), |_, _, _| FormatId::Csr,
        ).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut want = vec![0.0; n];
        spmv_serial(&m, &x, &mut want).unwrap();
        let mut got = vec![0.0; n];
        pm.run(Op::Spmv, &x, &mut got, None, None).unwrap();
        // ULP-bounded: planned kernel bodies may fuse multiply-adds.
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!((g - w).abs() <= 1e-12 * w.abs().max(1.0), "row {}: {} vs {}", i, g, w);
        }
    }
}
