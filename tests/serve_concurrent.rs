//! Concurrency tests for the `OracleService` serving layer: N client
//! threads hammering one shared service over a mixed corpus must produce
//! results bitwise identical to a serial `Oracle` session, and the sharded
//! caches must not lose hits or inserts under contention.
//!
//! The worker count for the service's private pool comes from
//! `MORPHEUS_BENCH_THREADS` (default 2), so CI's multi-worker matrix leg
//! exercises the genuinely concurrent paths.

use morpheus_repro::machine::{systems, Backend, Op, VirtualEngine};
use morpheus_repro::morpheus::{CooMatrix, DynamicMatrix, Workspace};
use morpheus_repro::oracle::{Oracle, OracleService, RunFirstTuner};
use morpheus_repro::parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn workers() -> usize {
    std::env::var("MORPHEUS_BENCH_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(2)
}

/// A small mixed corpus: banded (DIA-friendly), powerlaw (CSR/HYB
/// territory), stencil and scattered structures, so concurrent clients mix
/// formats, plans and partition styles.
fn corpus() -> Vec<(String, DynamicMatrix<f64>)> {
    use morpheus_repro::corpus::gen::banded::{multi_diagonal, tridiagonal};
    use morpheus_repro::corpus::gen::powerlaw::zipf_rows;
    use morpheus_repro::corpus::gen::random::variable_degree;
    use morpheus_repro::corpus::gen::stencil::poisson2d;
    let mut rng = StdRng::seed_from_u64(99);
    vec![
        ("tridiagonal".into(), DynamicMatrix::from(tridiagonal(700))),
        ("multi-diagonal".into(), DynamicMatrix::from(multi_diagonal(500, 5, &mut rng))),
        ("zipf".into(), DynamicMatrix::from(zipf_rows(600, 4_000, 1.1, &mut rng))),
        ("poisson2d".into(), DynamicMatrix::from(poisson2d(24, 24))),
        ("variable-degree".into(), DynamicMatrix::from(variable_degree(400, 1, 24, &mut rng))),
    ]
}

fn input_for(m: &DynamicMatrix<f64>) -> Vec<f64> {
    (0..m.ncols()).map(|i| 0.5 + ((i % 17) as f64) * 0.25).collect()
}

fn service() -> OracleService<RunFirstTuner> {
    Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(2))
        .workers(workers())
        .build_service()
        .unwrap()
}

/// Bitwise comparison (NaN-free inputs, so `to_bits` equality is exact).
fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn concurrent_tune_and_spmv_is_bitwise_identical_to_a_serial_session() {
    let corpus = corpus();

    // Serial reference: one single-owner Oracle session over the same
    // engine, executing on a same-width private pool so the planned
    // partitions agree with the service's.
    let mut reference = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(2))
        .workers(workers())
        .build()
        .unwrap();
    let mut expected = Vec::new();
    for (_, base) in &corpus {
        let mut m = base.clone();
        let x = input_for(base);
        let mut y = vec![0.0f64; base.nrows()];
        reference.tune_and_spmv(&mut m, &x, &mut y).unwrap();
        expected.push((m.format_id(), y));
    }

    let service = Arc::new(service());
    let clients = 4usize;
    let rounds = 3usize;
    std::thread::scope(|s| {
        for c in 0..clients {
            let service = Arc::clone(&service);
            let corpus = &corpus;
            let expected = &expected;
            s.spawn(move || {
                for round in 0..rounds {
                    for (i, (name, base)) in corpus.iter().enumerate() {
                        let mut m = base.clone();
                        let x = input_for(base);
                        let mut y = vec![f64::NAN; base.nrows()];
                        let report = service.tune_and_spmv(&mut m, &x, &mut y).unwrap();
                        let (expect_fmt, expect_y) = &expected[i];
                        assert_eq!(
                            report.chosen, *expect_fmt,
                            "client {c} round {round}: {name} format diverged"
                        );
                        assert!(bitwise_eq(&y, expect_y), "client {c} round {round}: {name} result diverged");
                    }
                }
            });
        }
    });

    // Aggregate accounting under contention: every tune does exactly one
    // counted decision lookup; nothing may be lost.
    let stats = service.cache_stats();
    let total_tunes = (clients * rounds * corpus.len()) as u64;
    assert_eq!(stats.hits + stats.misses, total_tunes, "decision lookups lost under contention: {stats:?}");
    // At most the first round per client can miss; everything after the
    // corpus is cached must hit.
    let first_round_lookups = (clients * corpus.len()) as u64;
    assert!(stats.hits >= total_tunes - first_round_lookups, "too few hits: {stats:?}");
    assert!(stats.len <= corpus.len(), "one entry per structure: aliases take no decision slots");

    // Plan accounting: one counted plan lookup per threaded execution.
    let plan = service.plan_cache_stats();
    assert_eq!(plan.hits + plan.misses, total_tunes, "plan lookups lost under contention: {plan:?}");
}

#[test]
fn concurrent_registered_handles_are_deterministic_and_ulp_close_to_serial() {
    let corpus = corpus();
    let service = Arc::new(service());

    // Register once (the amortised path), snapshot each handle's planned
    // result (the plan's bodies run inline — bitwise identical to the
    // pooled execution) on the *realized* matrices, which is bitwise the
    // serial kernel's.
    let handles: Vec<_> = corpus.iter().map(|(_, m)| service.register(m.clone()).unwrap()).collect();
    let expected: Vec<Vec<f64>> = handles
        .iter()
        .map(|h| {
            let x = input_for(h.matrix());
            let mut y = vec![f64::NAN; h.nrows()];
            h.plan().spmv_unpooled(h.matrix(), &x, &mut y).unwrap();
            let mut y_serial = vec![0.0f64; h.nrows()];
            morpheus_repro::morpheus::spmv::spmv_serial(h.matrix(), &x, &mut y_serial).unwrap();
            assert!(bitwise_eq(&y, &y_serial), "a plan must match the serial kernel bitwise");
            y
        })
        .collect();

    let clients = 4usize;
    let rounds = 8usize;
    std::thread::scope(|s| {
        for c in 0..clients {
            let service = Arc::clone(&service);
            let handles = &handles;
            let expected = &expected;
            let corpus = &corpus;
            s.spawn(move || {
                let mut ws = Workspace::new();
                for round in 0..rounds {
                    for (i, h) in handles.iter().enumerate() {
                        let x = input_for(h.matrix());
                        let y = service.spmv_into(h, &x, &mut ws).unwrap();
                        assert!(
                            bitwise_eq(y, &expected[i]),
                            "client {c} round {round}: {} diverged through its handle",
                            corpus[i].0
                        );
                    }
                }
            });
        }
    });

    let stats = service.serve_stats();
    assert_eq!(
        stats.handle_requests,
        (clients * rounds * handles.len()) as u64,
        "handle executions lost under contention: {stats:?}"
    );
    assert_eq!(stats.registered, handles.len() as u64);

    // SpMM through the same handles agrees with the serial kernel too.
    let k = 3usize;
    let h = &handles[0];
    let xk: Vec<f64> = (0..h.ncols() * k).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut yk = vec![0.0f64; h.nrows() * k];
    service.spmm(h, &xk, &mut yk, k).unwrap();
    let mut yk_ref = vec![0.0f64; h.nrows() * k];
    morpheus_repro::morpheus::spmm::spmm_serial(h.matrix(), &xk, &mut yk_ref, k).unwrap();
    assert!(bitwise_eq(&yk, &yk_ref));
}

#[test]
fn mixed_precision_clients_share_one_service() {
    // f32 and f64 clients of one service: cached decisions are keyed by
    // scalar width, so neither precision contaminates the other.
    let service = Arc::new(service());
    let base64 = DynamicMatrix::from(morpheus_repro::corpus::gen::banded::tridiagonal(400));
    let coo = base64.to_coo();
    let vals32: Vec<f32> = coo.values().iter().map(|&v| v as f32).collect();
    let base32: DynamicMatrix<f32> = DynamicMatrix::from(
        CooMatrix::from_triplets(coo.nrows(), coo.ncols(), coo.row_indices(), coo.col_indices(), &vals32)
            .unwrap(),
    );

    std::thread::scope(|s| {
        let s64 = Arc::clone(&service);
        let m64 = base64.clone();
        s.spawn(move || {
            let h = s64.register(m64).unwrap();
            let x = vec![1.0f64; 400];
            let mut y = vec![0.0f64; 400];
            for _ in 0..5 {
                s64.spmv(&h, &x, &mut y).unwrap();
            }
        });
        let s32 = Arc::clone(&service);
        let m32 = base32.clone();
        s.spawn(move || {
            let h = s32.register(m32).unwrap();
            let x = vec![1.0f32; 400];
            let mut y = vec![0.0f32; 400];
            for _ in 0..5 {
                s32.spmv(&h, &x, &mut y).unwrap();
            }
        });
    });

    let infos = service.registered_matrices();
    assert_eq!(infos.len(), 2);
    let mut widths: Vec<usize> = infos.iter().map(|i| i.scalar_bytes).collect();
    widths.sort_unstable();
    assert_eq!(widths, vec![4, 8]);
    assert_eq!(service.serve_stats().handle_requests, 10);
}

#[test]
fn tune_for_spmm_from_many_threads_converges_to_one_decision() {
    let service = Arc::new(service());
    let mut first = DynamicMatrix::from(morpheus_repro::corpus::gen::stencil::poisson2d(20, 20));
    let fmt = service.tune_for(&mut first, Op::Spmm { k: 8 }).unwrap().chosen;
    std::thread::scope(|s| {
        for _ in 0..4 {
            let service = Arc::clone(&service);
            s.spawn(move || {
                let mut m = DynamicMatrix::from(morpheus_repro::corpus::gen::stencil::poisson2d(20, 20));
                let r = service.tune_for(&mut m, Op::Spmm { k: 8 }).unwrap();
                assert!(r.cache_hit);
                assert_eq!(r.chosen, fmt);
            });
        }
    });
}

#[test]
fn service_keeps_serving_while_an_unrelated_pool_is_saturated() {
    // Saturate a *different* pool user's batch on the service's pool via a
    // long-running job, then serve requests: they must complete promptly
    // through the serial fallback and agree bitwise.
    let service = service();
    let base = DynamicMatrix::from(morpheus_repro::corpus::gen::banded::tridiagonal(500));
    let handle = service.register(base).unwrap();
    let x = input_for(handle.matrix());
    let mut y_free = vec![0.0f64; handle.nrows()];
    service.spmv(&handle, &x, &mut y_free).unwrap();

    // An independent pool (stands in for "another client's batch" on a
    // saturated host) plus the service's own: hammer both.
    let other = ThreadPool::new(workers());
    let gate = std::sync::Barrier::new(2);
    let mut y_busy = vec![f64::NAN; handle.nrows()];
    std::thread::scope(|s| {
        let (other_ref, gate_ref) = (&other, &gate);
        s.spawn(move || {
            other_ref.run_on_all(&|w| {
                if w == 0 {
                    gate_ref.wait();
                }
            });
        });
        // The service's pool is its own; requests go planned. This checks
        // the fallback *doesn't* trigger spuriously while an unrelated
        // pool is saturated.
        service.spmv(&handle, &x, &mut y_busy).unwrap();
        gate.wait();
    });
    assert!(bitwise_eq(&y_busy, &y_free));
    assert_eq!(
        service.serve_stats().pool_busy_fallbacks,
        0,
        "an unrelated pool's saturation must not force fallbacks"
    );
}
