//! Integration tests for the async ingress layer: every queued request
//! runs as its own planned SpMV — whole, or in plan parts that every
//! executor claims — bitwise identical to a direct SpMV on the same handle
//! across every storage format and scalar width; deadline-shed requests
//! must surface typed backpressure and never partial results, a panicking
//! part a typed error; and per-tenant admission must keep a greedy tenant
//! from starving the rest.
//!
//! Determinism: every test that counts requests pauses the ingress before
//! submitting, so an exactly-known burst is queued when it resumes. The
//! executors — the pump and any thread waiting on a ticket — then take it
//! one request at a time, in submission order: which executor runs a
//! request or claims a part is raced for, what the burst holds and the
//! order it starts in are not.

use morpheus_repro::machine::{systems, Backend, MatrixAnalysis, Op, VirtualEngine};
use morpheus_repro::morpheus::convert::kernels::PARALLEL_CONVERT_THRESHOLD;
use morpheus_repro::morpheus::format::{FormatId, ALL_FORMATS};
use morpheus_repro::morpheus::spmm::spmm_serial;
use morpheus_repro::morpheus::spmv::spmv_serial;
use morpheus_repro::morpheus::{ConvertOptions, CooMatrix, DynamicMatrix, ExecPlan, Scalar};
use morpheus_repro::oracle::{
    Backpressure, FormatTuner, Ingress, IngressConfig, IngressError, MatrixHandle, Oracle, OracleService,
    PartitionPolicy, Ticket, TuneDecision, TuningCost,
};
use morpheus_repro::parallel::ThreadPool;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn workers() -> usize {
    std::env::var("MORPHEUS_BENCH_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(2)
}

/// Always selects one fixed format, so a test can pin each of the storage
/// formats in turn.
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

/// A small banded matrix with every stored value nonzero and distinct, so
/// bitwise comparisons are meaningful, and convertible to every format in
/// `ALL_FORMATS`.
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

fn matrix<V: Scalar>(n: usize) -> DynamicMatrix<V> {
    let (rows, cols, vals) = banded_triplets(n);
    let vals: Vec<V> = vals.into_iter().map(V::from_f64).collect();
    DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
}

/// The j-th client's input vector: nonzero everywhere, distinct per client.
fn input(n: usize, client: usize) -> Vec<f64> {
    (0..n).map(|i| 0.25 + ((i * 13 + client * 31) % 29) as f64 * 0.5).collect()
}

/// `y = A x` by the serial kernel on the handle's stored matrix: what every
/// reply must equal bit for bit.
fn serial_reference<V: Scalar>(h: &MatrixHandle<V>, x: &[V]) -> Vec<V> {
    let mut y = vec![V::ZERO; h.nrows()];
    spmv_serial(h.matrix(), x, &mut y).unwrap();
    y
}

fn assert_bitwise<V: Scalar>(got: &[V], expect: &[V], ctx: &str) {
    assert_eq!(got.len(), expect.len(), "{ctx}: length");
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        // Widening to f64 is exact, so equal bits there are equal bits.
        assert_eq!(g.to_f64().to_bits(), e.to_f64().to_bits(), "{ctx}: row {i}: got {g}, expected {e}");
    }
}

/// The direct SpMV of `handle` on each of `xs`: what the ingress must reply.
fn direct_replies<T: Send + Sync, V: Scalar>(
    service: &OracleService<T>,
    handle: &MatrixHandle<V>,
    xs: &[Vec<V>],
) -> Vec<Vec<V>> {
    xs.iter()
        .map(|x| {
            let mut y = vec![V::ZERO; handle.nrows()];
            service.spmv(handle, x, &mut y).unwrap();
            y
        })
        .collect()
}

/// The `n × k` row-major block whose column `j` is `xs[j]`: a burst of
/// requests coalesced into one SpMM input.
fn coalesce<V: Scalar>(xs: &[Vec<V>]) -> Vec<V> {
    let (n, k) = (xs[0].len(), xs.len());
    (0..n * k).map(|i| xs[i % k][i / k]).collect()
}

/// A paused burst in every format at `f64` and `f32`, through the default
/// front door: each reply is the direct SpMV on the same handle bit for bit,
/// and so is the matching column of one SpMM over the whole burst — the
/// ingress serves each request as its own SpMV, and coalescing the burst
/// by hand would not change a bit of any reply.
#[test]
fn coalesced_spmm_is_bitwise_identical_to_planned_spmv_across_formats_and_scalars() {
    fn check_burst<T: Send + Sync, V: Scalar>(
        service: &OracleService<T>,
        h: &MatrixHandle<V>,
        xs: &[Vec<V>],
        tickets: Vec<Ticket<V>>,
        ctx: &str,
    ) {
        let refs = direct_replies(service, h, xs);
        let (n, k) = (h.nrows(), xs.len());
        let mut y = vec![V::ZERO; n * k];
        service.spmm(h, &coalesce(xs), &mut y, k).unwrap();
        for (c, (t, r)) in tickets.into_iter().zip(&refs).enumerate() {
            let col: Vec<V> = (0..n).map(|i| y[i * k + c]).collect();
            assert_bitwise(&col, r, &format!("{ctx} spmm column {c}"));
            let got = t.wait().unwrap_or_else(|e| panic!("{ctx} client {c}: {e}"));
            assert_bitwise(&got, r, &format!("{ctx} client {c}"));
        }
    }

    let n = 120usize;
    for fmt in ALL_FORMATS {
        let service = fixed_service(fmt);
        let h64 = service.register(matrix::<f64>(n)).unwrap();
        let h32 = service.register(matrix::<f32>(n)).unwrap();
        // Every format pins on the banded input, BSR and BELL included.
        assert_eq!(h64.format_id(), fmt, "f64 handle must realize the pinned format");
        assert_eq!(h32.format_id(), fmt, "f32 handle must realize the pinned format");

        let xs64: Vec<Vec<f64>> = (0..4).map(|c| input(n, c)).collect();
        let xs32: Vec<Vec<f32>> = (4..7).map(|c| input(n, c).iter().map(|&v| v as f32).collect()).collect();

        let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
        ingress.pause();
        let t64: Vec<_> =
            xs64.iter().map(|x| ingress.submit("sixty-four", &h64, x.clone()).unwrap()).collect();
        let t32: Vec<_> =
            xs32.iter().map(|x| ingress.submit("thirty-two", &h32, x.clone()).unwrap()).collect();
        ingress.resume();

        check_burst(&service, &h64, &xs64, t64, &format!("{fmt:?} f64"));
        check_burst(&service, &h32, &xs32, t32, &format!("{fmt:?} f32"));

        let stats = ingress.stats();
        assert_eq!(stats.completed, 7, "{fmt:?}: all seven requests must complete");
        assert_eq!(stats.direct_requests, stats.completed, "{fmt:?}: every request is one SpMV");
        assert_eq!(stats.failed, 0, "{fmt:?}");
    }
}

/// The ingress never coalesces: a paused burst is served request by
/// request, each reply the direct SpMV bit for bit, and no batch is counted
/// as coalesced.
#[test]
fn coalesce_never_policy_serves_every_request_as_direct_spmv() {
    let service = fixed_service(FormatId::Csr);
    let n = 80usize;
    let h = service.register(matrix::<f64>(n)).unwrap();
    let xs: Vec<Vec<f64>> = (0..3).map(|c| input(n, c)).collect();
    let refs = direct_replies(&service, &h, &xs);

    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
    ingress.pause();
    let tickets: Vec<_> = xs.iter().map(|x| ingress.submit("t", &h, x.clone()).unwrap()).collect();
    ingress.resume();
    for (c, t) in tickets.into_iter().enumerate() {
        assert_bitwise(&t.wait().unwrap(), &refs[c], &format!("direct client {c}"));
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
    let h = service.register(matrix::<f64>(n)).unwrap();
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
    assert_bitwise(&y, &y_ref, "healthy request");

    let stats = ingress.stats();
    assert_eq!(stats.shed_deadline, 1);
    assert_eq!(stats.completed, 1);
    // The shed request never reached a kernel: only the healthy request
    // (plus the reference above) count as handle executions.
    assert_eq!(served(), executed_before + 2);
}

/// A request's deadline is checked when an executor takes it, not when
/// the requests ahead of it were taken: queued behind sixteen SpMVs of a
/// large handle, a request whose deadline passes while they run is shed
/// before any kernel runs, not delivered late.
#[test]
fn a_deadline_that_passes_behind_earlier_requests_is_shed() {
    let service = fixed_service(FormatId::Csr);
    // About 2 M stored entries: sixteen SpMVs take far longer than 2 ms.
    let n = 700_000usize;
    let h = service.register(matrix::<f64>(n)).unwrap();
    let x = input(n, 0);

    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
    ingress.pause();
    let ahead: Vec<_> = (0..16).map(|_| ingress.submit("t", &h, x.clone()).unwrap()).collect();
    let doomed =
        ingress.submit_with_deadline("t", &h, x.clone(), Instant::now() + Duration::from_millis(2)).unwrap();
    ingress.resume();

    // Only polled, so only the pump executes: the queue is run in order.
    let verdict = loop {
        if let Some(result) = doomed.try_wait() {
            break result;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    match verdict {
        Err(IngressError::Backpressure(Backpressure::DeadlineExpired)) => {}
        other => panic!(
            "a request that expired behind earlier ones must be shed, got {:?}",
            other.map(|y| y.len())
        ),
    }
    for t in ahead {
        t.wait().expect("requests without a deadline execute");
    }
    let stats = ingress.stats();
    assert_eq!(stats.shed_deadline, 1, "{stats:?}");
    assert_eq!(stats.deadline_misses, 0, "{stats:?}");
    assert_eq!(stats.completed, 16, "{stats:?}");
}

#[test]
fn greedy_tenant_hits_its_quota_without_blocking_other_tenants() {
    let service = fixed_service(FormatId::Csr);
    let n = 50usize;
    let h = service.register(matrix::<f64>(n)).unwrap();

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

    // A quota slot is released before its reply is sent.
    assert_eq!(ingress.tenant_inflight("greedy"), 0);
    assert_eq!(ingress.tenant_inflight("modest"), 0);
    ingress.submit("greedy", &h, input(n, 5)).unwrap().wait().unwrap();

    let stats = ingress.stats();
    assert_eq!(stats.rejected_quota, 1);
    assert_eq!(stats.completed, 5);
}

#[test]
fn full_queue_refuses_with_queue_full_and_admits_again_after_draining() {
    let service = fixed_service(FormatId::Csr);
    let n = 40usize;
    let h = service.register(matrix::<f64>(n)).unwrap();

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
    let h = service.register(matrix::<f64>(30)).unwrap();
    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
    match ingress.submit("t", &h, vec![1.0f64; 7]) {
        Err(IngressError::Rejected(msg)) => assert!(msg.contains("30"), "{msg}"),
        other => panic!("length mismatch must be rejected, got {other:?}"),
    }
}

#[test]
fn ingress_and_serve_counters_land_in_one_registry_scrape() {
    let service = fixed_service(FormatId::Csr);
    let n = 40usize;
    let h = service.register(matrix::<f64>(n)).unwrap();
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
        ("deadline_misses", istats.deadline_misses, "ingress.deadlines_missed"),
    ] {
        assert_eq!(metrics.counter(name), value, "{field} is {name}");
    }
    assert_eq!(metrics.gauge("ingress.queue_depth"), istats.queue_depth);
    assert!(metrics.counter("serve.requests_served") >= 1);
    // The coalescing fields have no registry cell and read 0.
    assert_eq!((istats.coalesced_requests, istats.coalesced_batches, istats.cost_gate_declined), (0, 0, 0));
    assert_eq!(istats.coalescing_ratio(), 0.0);
}

/// Column `j` of every SpMM entry point is `spmv(x_j)` bit for bit: the
/// serial kernels, plans at 1-4 workers, whole and sharded handles — in all
/// eight formats, at every panel width and past the widest panel.
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
            assert_bitwise(&col, r, &format!("{ctx} k={k} column {j}"));
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
                    assert_bitwise(&planned, &y, &format!("{fmt} w={w}: planned spmv"));
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
        }
    }
}

/// A closed-loop client resubmits the moment `wait` returns: its slot was
/// released before the reply was sent, so a client at its quota is never
/// refused on its next submission.
#[test]
fn a_closed_loop_client_at_its_quota_is_never_refused() {
    let n = 40usize;
    for quota in [1usize, 2, 4] {
        // A service per front door: ingress counters live in its registry.
        let service = fixed_service(FormatId::Csr);
        let h = service.register(matrix::<f64>(n)).unwrap();
        let cfg = IngressConfig { tenant_quota: quota, ..IngressConfig::default() };
        let ingress = Ingress::start(Arc::clone(&service), cfg);
        let mut inflight: std::collections::VecDeque<Ticket<f64>> =
            (0..quota).map(|c| ingress.submit("loop", &h, input(n, c)).unwrap()).collect();
        for c in 0..500 * quota {
            inflight.pop_front().unwrap().wait().unwrap();
            match ingress.submit("loop", &h, input(n, c)) {
                Ok(t) => inflight.push_back(t),
                Err(e) => panic!("quota {quota}, resubmission {c}: {e}"),
            }
        }
        for t in inflight {
            t.wait().unwrap();
        }
        let stats = ingress.stats();
        assert_eq!(stats.rejected_quota, 0, "quota {quota}");
        assert_eq!(stats.completed, 501 * quota as u64, "quota {quota}");
        assert_eq!(ingress.tenant_inflight("loop"), 0, "quota {quota}");
    }
}

/// A thread blocked in `wait` is an executor, but not of a paused queue:
/// nothing runs until `resume`, and then the batch matches the serial
/// kernel bit for bit.
#[test]
fn a_waiter_on_a_paused_ingress_executes_nothing_until_resumed() {
    let service = fixed_service(FormatId::Csr);
    let n = 70usize;
    let h = service.register(matrix::<f64>(n)).unwrap();
    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
    ingress.pause();
    let xs: Vec<Vec<f64>> = (0..4).map(|c| input(n, c)).collect();
    let tickets: Vec<_> = xs.iter().map(|x| ingress.submit("t", &h, x.clone()).unwrap()).collect();
    let started = Barrier::new(2);
    let replies = std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            started.wait();
            tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
        });
        started.wait();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(ingress.stats().completed, 0, "a paused ingress ran a request");
        assert!(!waiter.is_finished(), "a paused ingress resolved a ticket");
        ingress.resume();
        waiter.join().unwrap()
    });
    for (c, (y, x)) in replies.into_iter().zip(&xs).enumerate() {
        assert_bitwise(&y.unwrap(), &serial_reference(&h, x), &format!("client {c}"));
    }
    assert_eq!(ingress.stats().completed, 4);
}

/// Dropping the front door under a thread blocked in `wait` on a paused
/// request sheds that request, and the waiter returns.
#[test]
fn dropping_the_ingress_resolves_a_blocked_waiter_as_shutting_down() {
    let service = fixed_service(FormatId::Csr);
    let n = 30usize;
    let h = service.register(matrix::<f64>(n)).unwrap();
    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
    ingress.pause();
    let ticket = ingress.submit("t", &h, input(n, 0)).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let started = Arc::new(Barrier::new(2));
    let waiter = {
        let started = Arc::clone(&started);
        std::thread::spawn(move || {
            started.wait();
            tx.send(ticket.wait()).unwrap();
        })
    };
    started.wait();
    std::thread::sleep(Duration::from_millis(20));

    drop(ingress);
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(Err(IngressError::Backpressure(Backpressure::ShuttingDown))) => {}
        Ok(other) => panic!("a request queued at shutdown must be shed, got {other:?}"),
        Err(_) => panic!("the waiter hung after the ingress was dropped"),
    }
    waiter.join().unwrap();
}

/// Four clients waiting on their own bursts — so the pump and up to four
/// waiters run batches at once — over two handles: every reply is the
/// serial kernel's bit for bit, and every request is counted once.
fn stress_waiters<V: Scalar>() {
    let service = fixed_service(FormatId::Csr);
    let handles = [service.register(matrix::<V>(90)).unwrap(), service.register(matrix::<V>(130)).unwrap()];
    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
    let clients = 4usize;
    std::thread::scope(|s| {
        for c in 0..clients {
            let (ingress, handles) = (&ingress, &handles);
            s.spawn(move || {
                let tenant = format!("client-{c}");
                for round in 0..24 {
                    let burst = [1usize, 4, 16][round % 3];
                    let requests: Vec<(&MatrixHandle<V>, Vec<V>)> = (0..burst)
                        .map(|j| {
                            let h = &handles[(c + round + j) % 2];
                            let x = input(h.ncols(), c * 97 + round * 7 + j);
                            (h, x.into_iter().map(V::from_f64).collect())
                        })
                        .collect();
                    let tickets: Vec<_> = requests
                        .iter()
                        .map(|(h, x)| ingress.submit(&tenant, h, x.clone()).unwrap())
                        .collect();
                    for (j, (t, (h, x))) in tickets.into_iter().zip(&requests).enumerate() {
                        let ctx = format!("client {c} round {round} request {j}");
                        let y = t.wait().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        assert_bitwise(&y, &serial_reference(h, x), &ctx);
                    }
                }
            });
        }
    });
    let stats = ingress.stats();
    assert_eq!(stats.completed, stats.submitted, "{stats:?}");
    assert_eq!(stats.direct_requests, stats.completed, "{stats:?}");
    assert_eq!(stats.failed, 0);
    for c in 0..clients {
        assert_eq!(ingress.tenant_inflight(&format!("client-{c}")), 0, "client {c}");
    }
}

#[test]
fn concurrent_waiters_and_the_pump_serve_every_request_once_and_bitwise() {
    stress_waiters::<f64>();
    stress_waiters::<f32>();
}

/// A banded matrix of at least [`PARALLEL_CONVERT_THRESHOLD`] entries: its
/// plans have at least two parts on any pool.
const LARGE: usize = 6000;

fn counter<T>(service: &OracleService<T>, name: &str) -> u64 {
    service.obs_snapshot().metrics.counter(name)
}

/// Bursts on handles of at least 2^14 entries, in every format at `f64` and
/// `f32`, on one- and two-wide pools, with four clients waiting: a
/// one-pass format runs split into parts that the pump and the waiters
/// claim, HYB and HDC whole on the executor that took them, and every reply
/// is the direct SpMV on its handle bit for bit. Counters count requests,
/// not parts.
#[test]
fn replies_on_large_handles_are_bitwise_the_direct_spmv_split_or_whole() {
    fn check<V: Scalar>(fmt: FormatId, w: usize) {
        // A service per front door: ingress counters live in its registry.
        let service = &fixed_service_with(fmt, w, PartitionPolicy::default());
        let h = service.register(matrix::<V>(LARGE)).unwrap();
        assert_eq!(h.format_id(), fmt);
        assert!(h.nnz() >= PARALLEL_CONVERT_THRESHOLD, "{fmt}: {} entries", h.nnz());
        assert!(h.plan().num_parts() >= 2, "{fmt} w={w}: a large plan has parts to share");
        let xs: Vec<Vec<V>> =
            (0..8).map(|c| input(LARGE, c).into_iter().map(V::from_f64).collect()).collect();
        let refs = direct_replies(service, &h, &xs);
        for (x, r) in xs.iter().zip(&refs) {
            assert_bitwise(r, &serial_reference(&h, x), &format!("{fmt} w={w}: direct"));
        }
        let served = counter(service, "serve.requests_served");
        let ingress = Ingress::start(Arc::clone(service), IngressConfig::default());
        ingress.pause();
        let tickets: Vec<_> = xs.iter().map(|x| ingress.submit("t", &h, x.clone()).unwrap()).collect();
        ingress.resume();
        let mut tickets = tickets.into_iter();
        std::thread::scope(|s| {
            for chunk in refs.chunks(2) {
                let mine: Vec<_> = tickets.by_ref().take(chunk.len()).collect();
                s.spawn(move || {
                    for (c, (t, r)) in mine.into_iter().zip(chunk).enumerate() {
                        let ctx = format!("{fmt} w={w} {}-bit request {c}", std::mem::size_of::<V>() * 8);
                        assert_bitwise(&t.wait().unwrap_or_else(|e| panic!("{ctx}: {e}")), r, &ctx);
                    }
                });
            }
        });
        let stats = ingress.stats();
        assert_eq!((stats.completed, stats.direct_requests, stats.failed), (8, 8, 0), "{fmt} w={w}");
        assert_eq!(counter(service, "serve.requests_served"), served + 8, "{fmt} w={w}");
        let metrics = service.obs_snapshot().metrics;
        if matches!(fmt, FormatId::Hyb | FormatId::Hdc) {
            assert_eq!(metrics.counter("ingress.parts_shared"), 0, "{fmt} w={w}: claimed whole");
        }
    }
    for fmt in ALL_FORMATS {
        for w in [1usize, 2] {
            check::<f64>(fmt, w);
            check::<f32>(fmt, w);
        }
    }
}

/// A one-request burst on a one-worker service runs on two threads when
/// the pump is free: the waiter and the pump each claim a part of its
/// plan. Which thread takes the request is raced for, so this looks at a
/// few bursts.
#[test]
fn a_one_request_burst_on_one_worker_runs_on_two_threads() {
    let service = fixed_service_with(FormatId::Csr, 1, PartitionPolicy::default());
    // About 600 k entries: a part takes far longer than the pump's wake-up.
    let n = 200_000usize;
    let h = service.register(matrix::<f64>(n)).unwrap();
    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
    let x = input(n, 3);
    let expect = serial_reference(&h, &x);
    for burst in 0..50 {
        let y = ingress.submit("t", &h, x.clone()).unwrap().wait().unwrap();
        assert_bitwise(&y, &expect, &format!("burst {burst}"));
        if counter(&service, "ingress.parts_shared") > 0 {
            let stats = ingress.stats();
            assert_eq!((stats.completed, stats.direct_requests), (burst + 1, burst + 1));
            return;
        }
    }
    panic!("no part of fifty one-request bursts ran on a second executor");
}

/// A deadline that passes while its request is queued sheds the whole
/// request: no part of it runs, and its neighbours are served whole.
#[test]
fn a_shed_request_runs_no_part() {
    for w in [1usize, 2] {
        let service = fixed_service_with(FormatId::Bell, w, PartitionPolicy::default());
        let h = service.register(matrix::<f64>(LARGE)).unwrap();
        assert!(h.plan().num_parts() >= 2);
        let served = counter(&service, "serve.requests_served");
        let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
        ingress.pause();
        let doomed = ingress.submit_with_deadline("t", &h, input(LARGE, 0), Instant::now()).unwrap();
        let healthy = ingress.submit("t", &h, input(LARGE, 1)).unwrap();
        ingress.resume();
        match doomed.wait() {
            Err(IngressError::Backpressure(Backpressure::DeadlineExpired)) => {}
            other => panic!("w={w}: a shed request must surface DeadlineExpired, got {other:?}"),
        }
        assert_bitwise(&healthy.wait().unwrap(), &serial_reference(&h, &input(LARGE, 1)), "healthy");
        let stats = ingress.stats();
        assert_eq!((stats.shed_deadline, stats.direct_requests, stats.completed), (1, 1, 1), "w={w}");
        assert_eq!(counter(&service, "serve.requests_served"), served + 1, "w={w}: one request ran");
        assert_eq!(ingress.tenant_inflight("t"), 0, "w={w}");
    }
}

/// A paused ingress starts no new request, but a request already started
/// finishes — its parts are claimed by the pump and by a thread waiting on
/// a request that has not started.
#[test]
fn a_paused_ingress_finishes_a_started_request_and_starts_no_other() {
    let service = fixed_service_with(FormatId::Csr, 1, PartitionPolicy::default());
    let n = 300_000usize;
    let h = service.register(matrix::<f64>(n)).unwrap();
    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
    ingress.pause();
    let xs: Vec<Vec<f64>> = (0..4).map(|c| input(n, c)).collect();
    let mut tickets: Vec<_> = xs.iter().map(|x| ingress.submit("t", &h, x.clone()).unwrap()).collect();
    ingress.resume();
    let deadline = Instant::now() + Duration::from_secs(60);
    while ingress.stats().direct_requests == 0 {
        assert!(Instant::now() < deadline, "the pump never started a request");
        std::hint::spin_loop();
    }
    ingress.pause();
    let started = ingress.stats().direct_requests;
    assert!(started < 4, "the pump started the whole burst before the pause");
    let last = tickets.pop().unwrap();
    std::thread::scope(|s| {
        // Waits on a request that does not start while paused; until then it
        // claims parts of the started ones.
        let waiter = s.spawn(|| last.wait());
        while ingress.stats().completed < started {
            assert!(Instant::now() < deadline, "a started request did not finish while paused");
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(30));
        let stats = ingress.stats();
        assert_eq!(
            (stats.direct_requests, stats.completed),
            (started, started),
            "paused: nothing new starts"
        );
        assert!(!waiter.is_finished());
        ingress.resume();
        assert_bitwise(&waiter.join().unwrap().unwrap(), &serial_reference(&h, &xs[3]), "last");
    });
    for (c, t) in tickets.into_iter().enumerate() {
        assert_bitwise(&t.wait().unwrap(), &serial_reference(&h, &xs[c]), &format!("request {c}"));
    }
    assert_eq!(ingress.stats().completed, 4);
    assert_eq!(ingress.tenant_inflight("t"), 0);
}

/// A scalar whose multiplication panics on one value: a kernel that reaches
/// it panics inside whichever part holds that row.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
struct Trap(f64);

const TRAP: f64 = 1234.5;

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

macro_rules! trap_op {
    ($tr:ident, $m:ident, $atr:ident, $am:ident, $op:tt) => {
        impl std::ops::$tr for Trap {
            type Output = Trap;
            fn $m(self, o: Trap) -> Trap {
                Trap(self.0 $op o.0)
            }
        }
        impl std::ops::$atr for Trap {
            fn $am(&mut self, o: Trap) {
                self.0 = self.0 $op o.0;
            }
        }
    };
}
trap_op!(Add, add, AddAssign, add_assign, +);
trap_op!(Sub, sub, SubAssign, sub_assign, -);

impl std::ops::Mul for Trap {
    type Output = Trap;
    fn mul(self, o: Trap) -> Trap {
        assert!(self.0 != TRAP && o.0 != TRAP, "trapped a multiplication by {TRAP}");
        Trap(self.0 * o.0)
    }
}

impl std::ops::Div for Trap {
    type Output = Trap;
    fn div(self, o: Trap) -> Trap {
        Trap(self.0 / o.0)
    }
}

impl std::ops::Neg for Trap {
    type Output = Trap;
    fn neg(self) -> Trap {
        Trap(-self.0)
    }
}

impl Scalar for Trap {
    const ZERO: Self = Trap(0.0);
    const ONE: Self = Trap(1.0);
    fn from_f64(v: f64) -> Self {
        Trap(v)
    }
    fn to_f64(self) -> f64 {
        self.0
    }
    fn abs(self) -> Self {
        Trap(self.0.abs())
    }
    fn sqrt(self) -> Self {
        Trap(self.0.sqrt())
    }
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }
    fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

/// A request whose kernel panics — in one part of a shared run on a
/// one-wide pool, in a pool dispatch on a two-wide one — resolves its
/// ticket once, with a typed error, releases its quota slot, and leaves the
/// executors serving: the requests around it are delivered bitwise.
#[test]
fn a_panicking_part_resolves_its_ticket_once_with_a_typed_error() {
    for w in [1usize, 2] {
        let service = fixed_service_with(FormatId::Csr, w, PartitionPolicy::default());
        let h = service.register(matrix::<Trap>(LARGE)).unwrap();
        assert!(h.plan().num_parts() >= 2);
        let good: Vec<Trap> = input(LARGE, 5).into_iter().map(Trap).collect();
        // Only the last rows read the last column: one part trips.
        let mut bad = good.clone();
        bad[LARGE - 1] = Trap(TRAP);
        let expect = serial_reference(&h, &good);
        let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
        ingress.pause();
        let before = ingress.submit("t", &h, good.clone()).unwrap();
        let trapped = ingress.submit("t", &h, bad).unwrap();
        let after = ingress.submit("t", &h, good.clone()).unwrap();
        ingress.resume();
        assert_bitwise(&before.wait().unwrap(), &expect, "before");
        match trapped.wait() {
            Err(IngressError::Panicked(why)) => assert!(why.contains("trapped"), "w={w}: {why}"),
            other => {
                panic!("w={w}: a panicking kernel must resolve as Panicked, got {:?}", other.map(|y| y.len()))
            }
        }
        assert_bitwise(&after.wait().unwrap(), &expect, "after");
        // The pump still serves what nobody waits on.
        let polled = ingress.submit("t", &h, good.clone()).unwrap();
        let polled = loop {
            if let Some(result) = polled.try_wait() {
                break result;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_bitwise(&polled.unwrap(), &expect, "polled");
        let stats = ingress.stats();
        assert_eq!((stats.completed, stats.failed, stats.direct_requests), (3, 1, 4), "w={w}");
        assert_eq!(ingress.tenant_inflight("t"), 0, "w={w}: each slot released once");
    }
}
