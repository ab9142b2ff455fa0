//! Integration tests for the async batched ingress layer: coalesced SpMM
//! executions must be bitwise identical to individual planned SpMVs across
//! every storage format and scalar width, deadline-shed requests must
//! surface typed backpressure and never partial results, and per-tenant
//! admission must keep a greedy tenant from starving the rest.
//!
//! Determinism: every test pauses the ingress before submitting, so the
//! pump drains one exactly-known batch when resumed — coalescing windows
//! are constructed, not raced for.

use morpheus_repro::corpus::gen::{banded, blocks, hetero, powerlaw, random, stencil};
use morpheus_repro::machine::{analyze, systems, Backend, MatrixAnalysis, Op, VirtualEngine};
use morpheus_repro::morpheus::format::{FormatId, ALL_FORMATS};
use morpheus_repro::morpheus::spmm::spmm_serial;
use morpheus_repro::morpheus::spmv::spmv_serial;
use morpheus_repro::morpheus::{ConvertOptions, CooMatrix, DynamicMatrix, ExecPlan, Scalar};
use morpheus_repro::oracle::adapt::{CollectorConfig, SampleCollector};
use morpheus_repro::oracle::{
    Backpressure, CoalescePolicy, FormatTuner, Ingress, IngressConfig, IngressError, Oracle, OracleService,
    PartitionPolicy, RunFirstTuner, TuneDecision, TuningCost,
};
use morpheus_repro::parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn workers() -> usize {
    std::env::var("MORPHEUS_BENCH_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(2)
}

/// Always selects one fixed format, so the property test can pin each of
/// the six storage formats in turn.
#[derive(Clone, Copy)]
struct Fixed(FormatId);

impl<V: Scalar> FormatTuner<V> for Fixed {
    fn name(&self) -> &'static str {
        "fixed-format"
    }
    fn select(&self, _: &DynamicMatrix<V>, _: &MatrixAnalysis, _: &VirtualEngine, op: Op) -> TuneDecision {
        TuneDecision { format: self.0, params: Default::default(), op, cost: TuningCost::default() }
    }
}

fn fixed_service(fmt: FormatId) -> Arc<OracleService<Fixed>> {
    fixed_service_with(fmt, workers(), PartitionPolicy::default())
}

fn fixed_service_with(
    fmt: FormatId,
    workers: usize,
    partition: PartitionPolicy,
) -> Arc<OracleService<Fixed>> {
    Arc::new(
        Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(Fixed(fmt))
            .workers(workers)
            .partition_policy(partition)
            // Let the pinned format through whatever its padding.
            .convert_options(ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() })
            .build_service()
            .unwrap(),
    )
}

/// The eight `solver_long` regimes of `oracle_bench` with that workload's
/// class parameters drawn mid-range, at `nnz` non-zeros each.
fn regimes(nnz: usize) -> Vec<(&'static str, DynamicMatrix<f64>)> {
    let mut rng = StdRng::seed_from_u64(13);
    let rng = &mut rng;
    let rows = |per_row: usize| (nnz / per_row).max(256);
    let side = (rows(7) as f64).cbrt().ceil() as usize;
    let (bn, en, zn, hn, tn) = (rows(12), rows(6), rows(12), rows(7), rows(13));
    let coos = vec![
        ("poisson3d", stencil::poisson3d(side, side, side)),
        ("banded_partial", banded::banded_partial(rows(11), 12, 0.4, rng)),
        ("aligned_blocks", blocks::aligned_blocks(bn / 4, 4, 2, rng)),
        ("bimodal_rows", random::bimodal_rows(rows(7), 4, 64, 20, rng)),
        ("zipf_rows", powerlaw::zipf_rows(zn, zn * 12, 1.4, rng)),
        ("hub_rows", powerlaw::hub_rows(hn, 2, hn / 2, hn * 6, rng)),
        ("erdos_renyi", random::erdos_renyi(en, en * 6, rng)),
        ("three_regime", hetero::three_regime(tn, tn / 50, 120.min(tn / 4), tn * 3 / 10, 16, 4, rng)),
    ];
    coos.into_iter().map(|(name, coo)| (name, DynamicMatrix::from(coo))).collect()
}

/// What the pump's gate computed before the numbers moved onto the handle.
fn analysed_verdict(engine: &VirtualEngine, fmt: FormatId, a: &MatrixAnalysis, k: usize) -> bool {
    engine.spmm_time(fmt, a, k) < k as f64 * engine.spmv_time(fmt, a)
}

/// A small banded matrix with every stored value nonzero and distinct, so
/// bitwise comparisons are meaningful and convertible to all six formats.
fn banded_triplets(n: usize) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for i in 0..n {
        for d in [-2isize, 0, 1] {
            let j = i as isize + d;
            if j >= 0 && (j as usize) < n {
                rows.push(i);
                cols.push(j as usize);
                vals.push(0.5 + ((i * 7 + j as usize * 3) % 19) as f64 * 0.125);
            }
        }
    }
    (rows, cols, vals)
}

fn matrix_f64(n: usize) -> DynamicMatrix<f64> {
    let (rows, cols, vals) = banded_triplets(n);
    DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
}

fn matrix_f32(n: usize) -> DynamicMatrix<f32> {
    let (rows, cols, vals) = banded_triplets(n);
    let vals32: Vec<f32> = vals.iter().map(|&v| v as f32).collect();
    DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals32).unwrap())
}

/// The j-th client's input vector: nonzero everywhere, distinct per client.
fn input(n: usize, client: usize) -> Vec<f64> {
    (0..n).map(|i| 0.25 + ((i * 13 + client * 31) % 29) as f64 * 0.5).collect()
}

fn assert_bitwise_f64(got: &[f64], expect: &[f64], ctx: &str) {
    assert_eq!(got.len(), expect.len(), "{ctx}: length");
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert_eq!(g.to_bits(), e.to_bits(), "{ctx}: row {i}: got {g}, expected {e}");
    }
}

fn assert_bitwise_f32(got: &[f32], expect: &[f32], ctx: &str) {
    assert_eq!(got.len(), expect.len(), "{ctx}: length");
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert_eq!(g.to_bits(), e.to_bits(), "{ctx}: row {i}: got {g}, expected {e}");
    }
}

/// Spin until `cond` holds (the pump drops request state slightly after it
/// resolves tickets; quota release is on that drop).
fn eventually(cond: impl Fn() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn coalesced_spmm_is_bitwise_identical_to_planned_spmv_across_formats_and_scalars() {
    const FORMATS: [FormatId; 6] =
        [FormatId::Coo, FormatId::Csr, FormatId::Dia, FormatId::Ell, FormatId::Hyb, FormatId::Hdc];
    let n = 120usize;
    for fmt in FORMATS {
        let service = fixed_service(fmt);
        let h64 = service.register(matrix_f64(n)).unwrap();
        let h32 = service.register(matrix_f32(n)).unwrap();
        assert_eq!(h64.format_id(), fmt, "f64 handle must realize the pinned format");
        assert_eq!(h32.format_id(), fmt, "f32 handle must realize the pinned format");

        // References through the direct (uncontended, planned) handle path.
        let xs64: Vec<Vec<f64>> = (0..4).map(|c| input(n, c)).collect();
        let xs32: Vec<Vec<f32>> = (4..7).map(|c| input(n, c).iter().map(|&v| v as f32).collect()).collect();
        let refs64: Vec<Vec<f64>> = xs64
            .iter()
            .map(|x| {
                let mut y = vec![0.0f64; n];
                service.spmv(&h64, x, &mut y).unwrap();
                y
            })
            .collect();
        let refs32: Vec<Vec<f32>> = xs32
            .iter()
            .map(|x| {
                let mut y = vec![0.0f32; n];
                service.spmv(&h32, x, &mut y).unwrap();
                y
            })
            .collect();

        let cfg = IngressConfig { coalesce: CoalescePolicy::Always, ..IngressConfig::default() };
        let ingress = Ingress::start(Arc::clone(&service), cfg);
        ingress.pause();
        let t64: Vec<_> =
            xs64.iter().map(|x| ingress.submit("sixty-four", &h64, x.clone()).unwrap()).collect();
        let t32: Vec<_> =
            xs32.iter().map(|x| ingress.submit("thirty-two", &h32, x.clone()).unwrap()).collect();
        ingress.resume();

        for (c, t) in t64.into_iter().enumerate() {
            let y = t.wait().unwrap_or_else(|e| panic!("{fmt:?} f64 client {c}: {e}"));
            assert_bitwise_f64(&y, &refs64[c], &format!("{fmt:?} f64 client {c}"));
        }
        for (c, t) in t32.into_iter().enumerate() {
            let y = t.wait().unwrap_or_else(|e| panic!("{fmt:?} f32 client {c}: {e}"));
            assert_bitwise_f32(&y, &refs32[c], &format!("{fmt:?} f32 client {c}"));
        }

        let stats = ingress.stats();
        assert_eq!(stats.completed, 7, "{fmt:?}: all seven requests must complete");
        assert_eq!(stats.coalesced_requests, 7, "{fmt:?}: every request must ride a coalesced SpMM");
        assert_eq!(stats.coalesced_batches, 2, "{fmt:?}: one f64 batch and one f32 batch");
        assert_eq!(stats.direct_requests, 0, "{fmt:?}");
        assert_eq!(stats.failed, 0, "{fmt:?}");
        assert!((stats.coalescing_ratio() - 1.0).abs() < f64::EPSILON, "{fmt:?}");
    }
}

#[test]
fn coalesce_never_policy_serves_every_request_as_direct_spmv() {
    let service = fixed_service(FormatId::Csr);
    let n = 80usize;
    let h = service.register(matrix_f64(n)).unwrap();
    let xs: Vec<Vec<f64>> = (0..3).map(|c| input(n, c)).collect();
    let refs: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            let mut y = vec![0.0f64; n];
            service.spmv(&h, x, &mut y).unwrap();
            y
        })
        .collect();

    let cfg = IngressConfig { coalesce: CoalescePolicy::Never, ..IngressConfig::default() };
    let ingress = Ingress::start(Arc::clone(&service), cfg);
    ingress.pause();
    let tickets: Vec<_> = xs.iter().map(|x| ingress.submit("t", &h, x.clone()).unwrap()).collect();
    ingress.resume();
    for (c, t) in tickets.into_iter().enumerate() {
        assert_bitwise_f64(&t.wait().unwrap(), &refs[c], &format!("direct client {c}"));
    }
    let stats = ingress.stats();
    assert_eq!(stats.direct_requests, 3);
    assert_eq!(stats.coalesced_batches, 0);
    assert_eq!(stats.coalescing_ratio(), 0.0);
}

#[test]
fn expired_deadlines_shed_with_typed_backpressure_and_no_partial_results() {
    let service = fixed_service(FormatId::Csr);
    let n = 60usize;
    let h = service.register(matrix_f64(n)).unwrap();
    let served = || service.obs_snapshot().metrics.counter("serve.requests_served");
    let executed_before = served();

    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
    ingress.pause();
    // Already expired when the pump will look at it (expiry is inclusive).
    let doomed = ingress.submit_with_deadline("t", &h, input(n, 0), Instant::now()).unwrap();
    // No deadline: must execute normally in the same drained batch.
    let healthy = ingress.submit("t", &h, input(n, 1)).unwrap();
    ingress.resume();

    match doomed.wait() {
        Err(IngressError::Backpressure(Backpressure::DeadlineExpired)) => {}
        other => panic!("shed request must surface DeadlineExpired, got {other:?}"),
    }
    let y = healthy.wait().expect("undeadlined request must execute");
    let mut y_ref = vec![0.0f64; n];
    service.spmv(&h, &input(n, 1), &mut y_ref).unwrap();
    assert_bitwise_f64(&y, &y_ref, "healthy request");

    let stats = ingress.stats();
    assert_eq!(stats.shed_deadline, 1);
    assert_eq!(stats.completed, 1);
    // The shed request never reached a kernel: only the healthy request
    // (plus the reference above) count as handle executions.
    assert_eq!(served(), executed_before + 2);
}

#[test]
fn greedy_tenant_hits_its_quota_without_blocking_other_tenants() {
    let service = fixed_service(FormatId::Csr);
    let n = 50usize;
    let h = service.register(matrix_f64(n)).unwrap();

    let cfg = IngressConfig { tenant_quota: 16, ..IngressConfig::default() }.with_tenant_quota("greedy", 3);
    let ingress = Ingress::start(Arc::clone(&service), cfg);
    ingress.pause();

    let greedy: Vec<_> = (0..3).map(|c| ingress.submit("greedy", &h, input(n, c)).unwrap()).collect();
    assert_eq!(ingress.tenant_inflight("greedy"), 3);
    match ingress.submit("greedy", &h, input(n, 9)) {
        Err(IngressError::Backpressure(Backpressure::TenantQuota { limit: 3 })) => {}
        other => panic!("over-quota submission must be refused, got {other:?}"),
    }
    // The refusal of the greedy tenant must not consume anyone's capacity.
    let modest = ingress.submit("modest", &h, input(n, 4)).unwrap();
    assert_eq!(ingress.tenant_inflight("modest"), 1);

    ingress.resume();
    for t in greedy {
        t.wait().expect("admitted greedy requests still execute");
    }
    modest.wait().expect("modest tenant must not be starved");

    // Quota slots release once the pump retires the requests.
    eventually(|| ingress.tenant_inflight("greedy") == 0, "greedy quota release");
    ingress.submit("greedy", &h, input(n, 5)).unwrap().wait().unwrap();

    let stats = ingress.stats();
    assert_eq!(stats.rejected_quota, 1);
    assert_eq!(stats.completed, 5);
}

#[test]
fn full_queue_refuses_with_queue_full_and_admits_again_after_draining() {
    let service = fixed_service(FormatId::Csr);
    let n = 40usize;
    let h = service.register(matrix_f64(n)).unwrap();

    let cfg = IngressConfig { queue_capacity: 2, ..IngressConfig::default() };
    let ingress = Ingress::start(Arc::clone(&service), cfg);
    ingress.pause();
    let a = ingress.submit("t", &h, input(n, 0)).unwrap();
    let b = ingress.submit("t", &h, input(n, 1)).unwrap();
    assert_eq!(ingress.stats().queue_depth, 2);
    match ingress.submit("t", &h, input(n, 2)) {
        Err(IngressError::Backpressure(Backpressure::QueueFull { capacity: 2 })) => {}
        other => panic!("overflow must be refused, got {other:?}"),
    }
    ingress.resume();
    a.wait().unwrap();
    b.wait().unwrap();
    // Capacity is available again once drained.
    ingress.submit("t", &h, input(n, 3)).unwrap().wait().unwrap();
    assert_eq!(ingress.stats().rejected_queue_full, 1);
}

#[test]
fn mismatched_input_length_is_rejected_at_submission() {
    let service = fixed_service(FormatId::Csr);
    let h = service.register(matrix_f64(30)).unwrap();
    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
    match ingress.submit("t", &h, vec![1.0f64; 7]) {
        Err(IngressError::Rejected(msg)) => assert!(msg.contains("30"), "{msg}"),
        other => panic!("length mismatch must be rejected, got {other:?}"),
    }
}

#[test]
fn coalesced_executions_are_timestamped_into_spmm_telemetry() {
    let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
    let service = Arc::new(
        Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(1))
            .collector(Arc::clone(&collector))
            .workers(workers())
            .build_service()
            .unwrap(),
    );
    let n = 90usize;
    let h = service.register(matrix_f64(n)).unwrap();

    let cfg = IngressConfig { coalesce: CoalescePolicy::Always, ..IngressConfig::default() };
    let ingress = Ingress::start(Arc::clone(&service), cfg);
    ingress.pause();
    let tickets: Vec<_> = (0..3).map(|c| ingress.submit("t", &h, input(n, c)).unwrap()).collect();
    ingress.resume();
    for t in tickets {
        t.wait().unwrap();
    }

    let kernels = collector.telemetry().snapshot();
    let spmm = kernels
        .iter()
        .find(|mk| mk.key.op == (Op::Spmm { k: 3 }))
        .expect("coalesced execution must be attributed to an Op::Spmm population");
    assert!(spmm.count >= 1);
    assert_eq!(spmm.key.scalar_bytes, 8);
}

#[test]
fn ingress_and_serve_counters_land_in_one_registry_scrape() {
    let service = fixed_service(FormatId::Csr);
    let n = 40usize;
    let h = service.register(matrix_f64(n)).unwrap();
    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
    ingress.submit("t", &h, input(n, 0)).unwrap().wait().unwrap();

    let istats = ingress.stats();
    assert_eq!(istats.submitted, 1);
    assert_eq!(istats.completed, 1);
    // Every `IngressStats` field is a copy of its registry cell, and the
    // service's own counters are in the same scrape.
    let metrics = service.obs_snapshot().metrics;
    for (field, value, name) in [
        ("submitted", istats.submitted, "ingress.requests_submitted"),
        ("rejected_queue_full", istats.rejected_queue_full, "ingress.queue_rejected"),
        ("rejected_quota", istats.rejected_quota, "ingress.quota_rejected"),
        ("shed_deadline", istats.shed_deadline, "ingress.deadline_shed"),
        ("shed_shutdown", istats.shed_shutdown, "ingress.shutdown_shed"),
        ("completed", istats.completed, "ingress.requests_completed"),
        ("failed", istats.failed, "ingress.requests_failed"),
        ("direct_requests", istats.direct_requests, "ingress.direct_served"),
        ("coalesced_requests", istats.coalesced_requests, "ingress.coalesced_served"),
        ("coalesced_batches", istats.coalesced_batches, "ingress.batches_coalesced"),
        ("cost_gate_declined", istats.cost_gate_declined, "ingress.coalesce_declined"),
        ("deadline_misses", istats.deadline_misses, "ingress.deadlines_missed"),
    ] {
        assert_eq!(metrics.counter(name), value, "{field} is {name}");
    }
    assert_eq!(metrics.gauge("ingress.queue_depth"), istats.queue_depth);
    assert!(metrics.counter("serve.requests_served") >= 1);
}

/// The default front door (the `CostModel` policy) coalesces a same-handle
/// burst on a handle whose numbers say coalescing pays, and its gate reads
/// two numbers off the handle: even its slowest decision costs less than a
/// median execution, or per-handle work has crept back into it.
#[test]
fn default_policy_coalesces_a_paying_burst_and_its_gate_stays_below_an_execution() {
    let service = fixed_service(FormatId::Csr);
    assert!(service.obs().enabled(), "the default observability records the stage histograms");
    // Large enough that one SpMM outweighs the gate by orders of magnitude
    // in an unoptimised build too.
    let n = 40_000usize;
    let h = service.register(matrix_f64(n)).unwrap();
    assert!(h.batch_cost().coalescing_pays(), "{:?}", h.batch_cost());

    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
    for burst in 0..3 {
        let xs: Vec<Vec<f64>> = (0..8).map(|c| input(n, burst * 8 + c)).collect();
        ingress.pause();
        let tickets: Vec<_> = xs.iter().map(|x| ingress.submit("t", &h, x.clone()).unwrap()).collect();
        ingress.resume();
        for (c, (t, x)) in tickets.into_iter().zip(&xs).enumerate() {
            let y = t.wait().unwrap_or_else(|e| panic!("burst {burst} client {c}: {e}"));
            let mut want = vec![f64::NAN; n];
            spmv_serial(h.matrix(), x, &mut want).unwrap();
            assert_bitwise_f64(&y, &want, &format!("burst {burst} client {c}"));
        }
    }

    let stats = ingress.stats();
    assert!(stats.coalesced_batches >= 1, "{stats:?}");
    assert!(stats.coalescing_ratio() > 0.0, "{stats:?}");
    let metrics = service.obs_snapshot().metrics;
    let (gate, exec) = (metrics.hist("ingress.coalesce_ns"), metrics.hist("ingress.exec_ns"));
    assert!(gate.count > 0 && exec.count > 0, "both stages recorded");
    assert!(gate.p99_ns() < exec.p50_ns(), "gate p99 {} ns, exec p50 {} ns", gate.p99_ns(), exec.p50_ns());
}

#[test]
fn handle_carried_gate_matches_the_analysed_gate_for_every_regime_format_and_width() {
    for (regime, m) in regimes(40_000) {
        for fmt in ALL_FORMATS {
            let service = fixed_service(fmt);
            let miss = service.register(m.clone()).unwrap();
            let hit = service.register(m.clone()).unwrap();
            assert!(!miss.report().cache_hit && hit.report().cache_hit, "{regime} {fmt}");
            assert_eq!(
                hit.batch_cost(),
                miss.batch_cost(),
                "{regime} {fmt}: a hit carries the miss's numbers"
            );

            // `fmt` when viable, CSR otherwise: the format the gate prices.
            let realized = miss.format_id();
            let a = analyze(miss.matrix());
            let cost = miss.batch_cost();
            for k in 2..=32 {
                assert_eq!(
                    cost.coalescing_pays(),
                    analysed_verdict(service.engine(), realized, &a, k),
                    "{regime} {realized} k={k}"
                );
            }
            // Not only the verdict: the view registration held prices the
            // matrix as an analysis of the realized one does.
            let spmv = service.engine().spmv_time(realized, &a);
            let per_rhs = service.engine().spmm_per_rhs_time(realized, &a);
            assert!((cost.spmv - spmv).abs() <= 1e-9 * spmv, "{regime} {realized}: {} vs {spmv}", cost.spmv);
            assert!((cost.per_rhs - per_rhs).abs() <= 1e-9 * per_rhs, "{regime} {realized}");
        }
    }
}

#[test]
fn sharded_handles_answer_the_gate_with_their_summed_numbers() {
    // As `solver_long` registers them: the partition gate decides which of
    // the eight become sharded handles. Those used to coalesce on an
    // argument; the summed numbers must say the same. The others keep the
    // engine's verdict on the whole matrix.
    let service = Arc::new(
        Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(1))
            .workers(1)
            .build_service()
            .unwrap(),
    );
    let forced = fixed_service_with(
        FormatId::Csr,
        2,
        PartitionPolicy { cost_gate: false, target_shard_nnz: Some(40_000), ..Default::default() },
    );
    for (regime, m) in regimes(340_000) {
        let h = service.register_partitioned(m.clone()).unwrap();
        if let Some(whole) = h.try_matrix() {
            let a = analyze(whole);
            assert_eq!(
                h.batch_cost().coalescing_pays(),
                analysed_verdict(service.engine(), h.format_id(), &a, 16),
                "{regime}"
            );
        } else {
            assert!(h.batch_cost().coalescing_pays(), "{regime}: sharded handles coalesced unconditionally");
        }

        // Every regime sharded: the handle's numbers are its shards' summed.
        let h = forced.register_partitioned(m).unwrap();
        let p = h.partition().unwrap_or_else(|| panic!("{regime}: forced partition"));
        let (mut spmv, mut per_rhs) = (0.0, 0.0);
        for shard in p.shards() {
            let a = analyze(shard.matrix());
            spmv += forced.engine().spmv_time(shard.format_id(), &a);
            per_rhs += forced.engine().spmm_per_rhs_time(shard.format_id(), &a);
        }
        let cost = h.batch_cost();
        assert!((cost.spmv - spmv).abs() <= 1e-9 * spmv, "{regime}: {} vs {spmv}", cost.spmv);
        assert!((cost.per_rhs - per_rhs).abs() <= 1e-9 * per_rhs, "{regime}: {} vs {per_rhs}", cost.per_rhs);
        assert!(cost.coalescing_pays(), "{regime}");
    }
}

/// Column `j` of every SpMM entry point is `spmv(x_j)` bit for bit: the
/// serial kernels, plans at 1-4 workers, sharded handles, and requests
/// coalesced by the ingress — in all eight formats, at every panel width
/// and past the widest panel.
#[test]
fn spmm_columns_are_bitwise_spmv_through_every_entry_point() {
    const WIDTHS: [usize; 12] = [1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 32, 33];
    let n = 96usize;
    // Rows of 1-9 scattered entries (below the unrolling threshold, so
    // every plan stays order-preserving and planned SpMV is bitwise the
    // serial one), one empty row and one wide one.
    let base = {
        let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
        for i in (0..n).filter(|&i| i != 5) {
            // Stride 17 is coprime to 96: a row's columns are distinct.
            let row: Vec<usize> = match i {
                40 => (0..n).filter(|c| c % 3 != 0).collect(),
                _ => (0..1 + i * 7 % 9).map(|t| (i * 13 + t * 17) % n).collect(),
            };
            for c in row {
                rows.push(i);
                cols.push(c);
                vals.push(0.5 + ((i * 31 + c * 7) % 23) as f64 * 0.37);
            }
        }
        DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
    };
    let xs: Vec<Vec<f64>> = (0..33).map(|c| input(n, c)).collect();
    let block = |k: usize| -> Vec<f64> { (0..n * k).map(|i| xs[i % k][i / k]).collect() };
    let check = |y: &[f64], k: usize, refs: &[Vec<f64>], ctx: &str| {
        for (j, r) in refs.iter().enumerate().take(k) {
            let col: Vec<f64> = (0..n).map(|i| y[i * k + j]).collect();
            assert_bitwise_f64(&col, r, &format!("{ctx} k={k} column {j}"));
        }
    };

    for fmt in ALL_FORMATS {
        for w in 1..=4usize {
            let service = fixed_service_with(fmt, w, PartitionPolicy::default());
            let h = service.register(base.clone()).unwrap();
            assert_eq!(h.format_id(), fmt);
            let m = h.matrix();
            let refs: Vec<Vec<f64>> = xs
                .iter()
                .map(|x| {
                    let mut y = vec![f64::NAN; n];
                    spmv_serial(m, x, &mut y).unwrap();
                    let mut planned = vec![f64::NAN; n];
                    service.spmv(&h, x, &mut planned).unwrap();
                    assert_bitwise_f64(&planned, &y, &format!("{fmt} w={w}: planned spmv"));
                    y
                })
                .collect();

            // Two shards of 48 rows. A shard picks its own true diagonals
            // (a fifth of its rows populated), and only with none on either
            // side is an HDC row summed in the whole matrix's order: 48 rows
            // put at most seven entries on a diagonal, eight rows around the
            // wide one would put two on a threshold of two.
            let sharding =
                PartitionPolicy { cost_gate: false, target_shard_nnz: Some(200), ..Default::default() };
            let sharded_service = fixed_service_with(fmt, w, sharding);
            let sharded = sharded_service.register_partitioned(base.clone()).unwrap();
            assert!(sharded.num_shards() > 1, "{fmt} w={w}");
            let pool = ThreadPool::new(w);
            let plan = ExecPlan::build(m, w, None);

            for k in WIDTHS {
                let xb = block(k);
                let mut y = vec![f64::NAN; n * k];
                spmm_serial(m, &xb, &mut y, k).unwrap();
                check(&y, k, &refs, &format!("{fmt} serial"));
                y.fill(f64::NAN);
                plan.spmm(m, &xb, &mut y, k, &pool).unwrap();
                check(&y, k, &refs, &format!("{fmt} planned w={w}"));
                y.fill(f64::NAN);
                service.spmm(&h, &xb, &mut y, k).unwrap();
                check(&y, k, &refs, &format!("{fmt} handle w={w}"));
                y.fill(f64::NAN);
                sharded_service.spmm(&sharded, &xb, &mut y, k).unwrap();
                check(&y, k, &refs, &format!("{fmt} sharded w={w}"));
            }

            // Through the front door: bursts of every width against the whole
            // and the sharded handle (quota releases trail the replies, so
            // the quota covers every request of the loop).
            let cfg = IngressConfig {
                coalesce: CoalescePolicy::Always,
                tenant_quota: 256,
                ..IngressConfig::default()
            };
            for (service, handle, what) in [(&service, &h, "whole"), (&sharded_service, &sharded, "sharded")]
            {
                let ingress = Ingress::start(Arc::clone(service), cfg.clone());
                for k in WIDTHS {
                    ingress.pause();
                    let tickets: Vec<_> =
                        xs[..k].iter().map(|x| ingress.submit("t", handle, x.clone()).unwrap()).collect();
                    ingress.resume();
                    for (j, t) in tickets.into_iter().enumerate() {
                        let ctx = format!("{fmt} w={w} ingress {what} k={k} request {j}");
                        assert_bitwise_f64(&t.wait().unwrap(), &refs[j], &ctx);
                    }
                }
                assert_eq!(ingress.stats().failed, 0);
            }
        }
    }
}
