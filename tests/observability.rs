//! Integration tests for the observability subsystem: tracing at the
//! default (coarse) level must not wreck registered-path throughput,
//! every resolved ingress ticket must leave exactly one complete span
//! tree behind (no orphans, no duplicates — even under concurrent
//! multi-client load), the flight recorder must retain only
//! SLO-breaching requests, and the text exposition must survive a
//! render → parse → render round trip.

use morpheus_repro::corpus::gen::banded::tridiagonal;
use morpheus_repro::machine::{systems, Backend, VirtualEngine};
use morpheus_repro::morpheus::DynamicMatrix;
use morpheus_repro::oracle::obs::expose::{metric_lines, parse_text, render_text};
use morpheus_repro::oracle::{
    Ingress, IngressConfig, IngressError, ObsConfig, Oracle, OracleService, RunFirstTuner, Stage, TraceId,
    TraceLevel,
};
use std::io::BufReader;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn workers() -> usize {
    std::env::var("MORPHEUS_BENCH_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(2)
}

fn service_with(obs: ObsConfig) -> Arc<OracleService<RunFirstTuner>> {
    Arc::new(
        Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(1))
            .workers(workers())
            .observability(obs)
            .build_service()
            .unwrap(),
    )
}

fn input(ncols: usize) -> Vec<f64> {
    (0..ncols).map(|i| 1.0 + (i % 5) as f64 * 0.5).collect()
}

/// Registered-path throughput with coarse tracing (the default) must stay
/// within a generous factor of tracing-off throughput. The threshold is
/// deliberately loose — shared-runner noise dwarfs the real overhead,
/// which is two clock reads and a few relaxed atomics per request — but
/// it still catches pathological regressions (a lock on the hot path, a
/// span allocation per request) that cost integer factors.
#[test]
fn coarse_tracing_keeps_registered_path_throughput() {
    let m = DynamicMatrix::from(tridiagonal(4_000));
    let x = input(m.ncols());
    let iters = 600usize;

    let rps = |level: TraceLevel| -> f64 {
        let service = service_with(ObsConfig { trace: level, ..ObsConfig::default() });
        let h = service.register(m.clone()).unwrap();
        let mut y = vec![0.0f64; h.nrows()];
        // Warm up plans and caches before timing.
        for _ in 0..50 {
            service.spmv(&h, &x, &mut y).unwrap();
        }
        let t0 = Instant::now();
        for _ in 0..iters {
            service.spmv(&h, &x, &mut y).unwrap();
        }
        iters as f64 / t0.elapsed().as_secs_f64()
    };

    let off = rps(TraceLevel::Off);
    let coarse = rps(TraceLevel::Coarse);
    assert!(
        coarse >= off * 0.2,
        "coarse tracing must not collapse throughput: off {off:.0} rps, coarse {coarse:.0} rps"
    );
}

/// Every resolved ingress ticket leaves exactly one complete span tree in
/// the ring: exactly one Admit, exactly one Resolve, at least one Exec —
/// under four concurrent clients racing the pump.
#[test]
fn every_resolved_ticket_yields_one_complete_span_tree() {
    let service = service_with(ObsConfig { span_capacity: 1 << 14, ..ObsConfig::default() });
    let m = DynamicMatrix::from(tridiagonal(2_000));
    let h = service.register(m).unwrap();
    let x = input(h.ncols());
    let ingress =
        Ingress::start(Arc::clone(&service), IngressConfig { tenant_quota: 256, ..IngressConfig::default() });

    let clients = 4usize;
    let per_client = 40usize;
    let traces: Vec<TraceId> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..clients)
            .map(|c| {
                let (ingress, h, x) = (&ingress, &h, &x);
                s.spawn(move || {
                    let tenant = format!("tenant-{c}");
                    let mut traces = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let t = ingress.submit(&tenant, h, x.clone()).unwrap();
                        let trace = t.trace();
                        t.wait().unwrap();
                        traces.push(trace);
                    }
                    traces
                })
            })
            .collect();
        joins.into_iter().flat_map(|j| j.join().unwrap()).collect()
    });

    let spans = service.obs().spans();
    assert_eq!(
        service.obs().spans_overwritten(),
        0,
        "ring sized for the workload; the census below needs every span"
    );
    assert_eq!(traces.len(), clients * per_client);
    // Trace ids are unique per ticket.
    let mut unique = traces.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), traces.len(), "duplicate trace ids handed out");

    for &trace in &traces {
        assert!(trace.is_some(), "resolved tickets carry real trace ids at coarse level");
        let tree: Vec<_> = spans.iter().filter(|s| s.trace == trace).collect();
        let count = |stage: Stage| tree.iter().filter(|s| s.stage == stage).count();
        assert_eq!(count(Stage::Admit), 1, "trace {trace:?}: {tree:?}");
        assert_eq!(count(Stage::Resolve), 1, "trace {trace:?}: {tree:?}");
        assert!(count(Stage::Exec) >= 1, "trace {trace:?}: {tree:?}");
        assert_eq!(count(Stage::QueueWait), 1, "trace {trace:?}: {tree:?}");
        // An ingress request is one SpMV: nothing outside these five stages.
        let known = [Stage::Admit, Stage::QueueWait, Stage::Plan, Stage::Exec, Stage::Resolve];
        assert!(tree.iter().all(|s| known.contains(&s.stage)), "trace {trace:?}: {tree:?}");
        // Resolve spans the whole request: no stage may end after it.
        let resolve = tree.iter().find(|s| s.stage == Stage::Resolve).unwrap();
        let resolve_end = resolve.start_ns + resolve.dur_ns;
        for s in &tree {
            assert!(
                s.start_ns + s.dur_ns <= resolve_end,
                "stage {} ends after resolve: {tree:?}",
                s.stage.name()
            );
        }
    }
}

/// The flight recorder retains breaching requests (shed or delivered past
/// their deadline) and nothing else.
#[test]
fn flight_recorder_captures_only_breaching_requests() {
    let service = service_with(ObsConfig::default());
    let m = DynamicMatrix::from(tridiagonal(2_000));
    let h = service.register(m).unwrap();
    let x = input(h.ncols());
    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());

    // Healthy traffic: generous deadlines, none should be captured.
    for _ in 0..20 {
        let deadline = Instant::now() + Duration::from_secs(30);
        ingress.submit_with_deadline("healthy", &h, x.clone(), deadline).unwrap().wait().unwrap();
    }
    assert_eq!(service.obs().flight().captured_total(), 0, "healthy requests must not be captured");

    // Breaching traffic: deadlines already expired at submission; the
    // pump sheds them, and every shed is an SLO breach.
    let mut breached = Vec::new();
    for _ in 0..5 {
        let deadline = Instant::now() - Duration::from_millis(1);
        let t = ingress.submit_with_deadline("late", &h, x.clone(), deadline).unwrap();
        breached.push(t.trace());
        match t.wait() {
            Err(IngressError::Backpressure(_)) => {}
            other => panic!("expired request must shed, got {other:?}"),
        }
    }

    let slow = service.obs().flight().snapshot();
    assert_eq!(service.obs().flight().captured_total(), 5);
    assert_eq!(slow.len(), 5);
    for sr in &slow {
        assert!(breached.contains(&sr.trace), "captured a non-breaching trace: {sr:?}");
        assert!(
            sr.spans.iter().any(|s| s.stage == Stage::Resolve && s.detail == 2),
            "captured tree must record the shed resolve: {sr:?}"
        );
    }
}

/// The text exposition of a real service's registry parses back and
/// re-renders byte-identically.
#[test]
fn text_exposition_round_trips_through_parser() {
    let service = service_with(ObsConfig::default());
    let m = DynamicMatrix::from(tridiagonal(1_000));
    let h = service.register(m).unwrap();
    let x = input(h.ncols());
    let mut y = vec![0.0f64; h.nrows()];
    for _ in 0..10 {
        service.spmv(&h, &x, &mut y).unwrap();
    }

    let lines = metric_lines(&service.obs_snapshot().metrics);
    let text = render_text(&lines);
    let parsed = parse_text(BufReader::new(text.as_bytes())).expect("own exposition must parse");
    assert_eq!(render_text(&parsed), text, "render → parse → render must be the identity");
    assert!(text.contains("counter serve.requests_served 10"), "core serve family missing:\n{text}");
    assert!(text.contains("hist serve.request_ns "), "request histogram missing:\n{text}");
}
