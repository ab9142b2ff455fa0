//! Multi-threaded mock request loop against the `OracleService` serving
//! layer: register once, execute from several client threads, report
//! throughput and cache hit rates.
//!
//! This is the production shape the ROADMAP's north star describes — many
//! clients, one shared tuned state. Each matrix is tuned, converted and
//! planned exactly once at registration; after that, every request from
//! every thread replays the shared `ExecPlan` with zero locks and zero
//! allocation (outputs go to per-thread workspaces). A slice of requests
//! also goes down the per-call `tune_and_spmv` path to show the decision
//! cache absorbing repeat structures: a per-call tune serves one execution,
//! so it converts only when that execution repays the conversion and
//! otherwise runs the matrix as it came — iterating clients hold handles.
//!
//! The per-stage report at the end comes from the service's unified
//! metrics registry (`serve.request_ns`, `serve.plan_ns`,
//! `pool.queue_wait_ns`) — no hand-rolled sampler threads; the runtime
//! itself is the instrument.
//!
//! ```text
//! cargo run --release --example serve_workload [clients] [requests-per-client]
//! ```

use morpheus_repro::corpus::gen::banded::tridiagonal;
use morpheus_repro::corpus::gen::powerlaw::zipf_rows;
use morpheus_repro::corpus::gen::stencil::poisson2d;
use morpheus_repro::machine::{systems, Backend, VirtualEngine};
use morpheus_repro::morpheus::{DynamicMatrix, Workspace};
use morpheus_repro::oracle::{Oracle, RunFirstTuner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let clients: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let requests_per_client: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(2000);

    let mut rng = StdRng::seed_from_u64(7);
    let matrices = vec![
        ("tridiagonal", DynamicMatrix::from(tridiagonal(20_000))),
        ("zipf", DynamicMatrix::from(zipf_rows(8_000, 60_000, 1.1, &mut rng))),
        ("poisson2d", DynamicMatrix::from(poisson2d(90, 90))),
    ];

    let service = Arc::new(
        Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(1))
            .build_service()
            .expect("engine and tuner set"),
    );

    // Register once: the whole tuning + conversion + planning cost, paid
    // here, amortises over every request below.
    let t0 = Instant::now();
    let handles: Vec<_> = matrices
        .iter()
        .map(|(name, m)| {
            let h = service.register(m.clone()).expect("register");
            println!(
                "registered {name:<12} {}x{} ({} nnz) -> {} [{}]",
                h.nrows(),
                h.ncols(),
                h.nnz(),
                h.format_id(),
                if h.report().cache_hit { "cached decision" } else { "fresh decision" },
            );
            h
        })
        .collect();
    println!("registration took {:.2} ms total\n", t0.elapsed().as_secs_f64() * 1e3);

    let inputs: Vec<Vec<f64>> =
        matrices.iter().map(|(_, m)| (0..m.ncols()).map(|i| 1.0 + (i % 11) as f64 * 0.5).collect()).collect();
    let served = AtomicU64::new(0);
    let tuned = AtomicU64::new(0);

    // The mock request loop: every client hammers the shared service.
    // Most requests ride a registered handle; every 16th is a per-call
    // tune of a fresh structurally-identical matrix, exercising the
    // decision cache instead. Pool pressure is read afterwards from the
    // registry's `pool.queue_wait_ns` histogram — every job dispatched to
    // the worker pool gets its queue wait recorded by the runtime, which
    // replaces the sampler thread earlier revisions ran alongside the
    // clients.
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let service = Arc::clone(&service);
            let (handles, inputs, matrices) = (&handles, &inputs, &matrices);
            let (served, tuned) = (&served, &tuned);
            s.spawn(move || {
                let mut ws = Workspace::new();
                for r in 0..requests_per_client {
                    let mi = (r + c) % handles.len();
                    if r % 16 == 15 {
                        // One execution: served from the matrix as it came
                        // unless that execution repays converting it.
                        let mut m = matrices[mi].1.clone();
                        let mut y = vec![0.0f64; m.nrows()];
                        let report =
                            service.tune_and_spmv(&mut m, &inputs[mi], &mut y).expect("tune request");
                        assert!(report.cache_hit, "repeat structures must be cache hits");
                        tuned.fetch_add(1, Ordering::Relaxed);
                    } else {
                        let y =
                            service.spmv_into(&handles[mi], &inputs[mi], &mut ws).expect("handle request");
                        std::hint::black_box(y);
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();

    let total = served.load(Ordering::Relaxed) + tuned.load(Ordering::Relaxed);
    let (decisions, plans) = (service.cache_stats(), service.plan_cache_stats());
    // The counters and the per-stage breakdown, straight from the unified
    // registry.
    let metrics = service.obs_snapshot().metrics;
    println!("{clients} client(s) x {requests_per_client} requests: {total} served in {wall:.3} s");
    println!("  throughput:        {:>10.0} req/s", total as f64 / wall);
    println!("  handle requests:   {:>10}", metrics.counter("serve.requests_served"));
    println!("  per-call tunes:    {:>10}", tuned.load(Ordering::Relaxed));
    println!("  busy fallbacks:    {:>10}", metrics.counter("serve.fallbacks_taken"));
    println!(
        "  decision cache:    {:>10.1}% hit rate ({} hits / {} lookups)",
        decisions.hit_rate() * 100.0,
        decisions.hits,
        decisions.hits + decisions.misses
    );
    println!("  plan cache:        {:>10.1}% hit rate ({} entries)", plans.hit_rate() * 100.0, plans.len);

    let us = |ns: u64| ns as f64 / 1e3;
    println!("\nstage latencies (registry histograms):");
    for name in ["serve.request_ns", "serve.plan_ns", "pool.queue_wait_ns"] {
        let h = metrics.hist(name);
        println!(
            "  {name:<20} {:>8} samples  p50 {:>9.1} us  p99 {:>9.1} us  max {:>9.1} us",
            h.count,
            us(h.p50_ns()),
            us(h.p99_ns()),
            us(h.max_ns)
        );
    }
    println!("  pool.jobs_queued     {:>8} now", metrics.gauge("pool.jobs_queued"));
}
