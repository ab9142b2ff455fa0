//! Multi-tenant workload through the async ingress front door: several
//! tenants submit SpMV requests against the *same* registered matrix under
//! a latency SLO, and each tenant's waiting thread (or, for what nobody
//! waits on, the ingress pump) drains the queue and runs every drained
//! request as its own planned SpMV.
//!
//! Contrast with `serve_workload`: there, contending clients drive the
//! pool directly and overload shows up as silent serial fallbacks; here,
//! the front door admits (per-tenant quotas), queues and sheds with
//! explicit typed backpressure — the request lifecycle is
//! submit → admit → drain → execute → resolve.
//!
//! ```text
//! cargo run --release --example ingress_workload [tenants] [requests-per-tenant]
//! ```

use morpheus_repro::corpus::gen::powerlaw::zipf_rows;
use morpheus_repro::machine::{systems, Backend, VirtualEngine};
use morpheus_repro::morpheus::DynamicMatrix;
use morpheus_repro::oracle::{Ingress, IngressConfig, IngressError, Oracle, RunFirstTuner, Ticket};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let tenants: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let requests_per_tenant: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(600);
    let slo = Duration::from_millis(25);

    let mut rng = StdRng::seed_from_u64(11);
    let matrix = DynamicMatrix::from(zipf_rows(8_000, 60_000, 1.1, &mut rng));

    let service = Arc::new(
        Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(1))
            .build_service()
            .expect("engine and tuner set"),
    );
    let handle = service.register(matrix).expect("register");
    println!(
        "registered {}x{} ({} nnz) -> {}\n",
        handle.nrows(),
        handle.ncols(),
        handle.nnz(),
        handle.format_id()
    );

    let cfg = IngressConfig { default_slo: Some(slo), tenant_quota: 64, ..IngressConfig::default() };
    let ingress = Arc::new(Ingress::start(Arc::clone(&service), cfg));

    let x: Vec<f64> = (0..handle.ncols()).map(|i| 1.0 + (i % 11) as f64 * 0.5).collect();

    // Every tenant fires bursts of requests at the same handle, waiting
    // each burst out before the next: a waiting thread takes queued
    // requests one at a time, from every tenant, and runs each as one
    // planned SpMV, while the pump takes others alongside.
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..tenants {
            let ingress = Arc::clone(&ingress);
            let (handle, x) = (&handle, &x);
            s.spawn(move || {
                let tenant = format!("tenant-{t}");
                let burst = 8usize;
                let mut submitted = 0usize;
                let mut ok = 0usize;
                let mut backpressured = 0usize;
                while submitted < requests_per_tenant {
                    let mut tickets: Vec<Ticket<f64>> = Vec::with_capacity(burst);
                    for _ in 0..burst.min(requests_per_tenant - submitted) {
                        submitted += 1;
                        match ingress.submit(&tenant, handle, x.clone()) {
                            Ok(ticket) => tickets.push(ticket),
                            Err(IngressError::Backpressure(_)) => backpressured += 1,
                            Err(e) => panic!("{tenant}: {e}"),
                        }
                    }
                    for ticket in tickets {
                        match ticket.wait() {
                            Ok(y) => {
                                std::hint::black_box(&y);
                                ok += 1;
                            }
                            Err(IngressError::Backpressure(_)) => backpressured += 1,
                            Err(e) => panic!("{tenant}: {e}"),
                        }
                    }
                }
                println!("{tenant}: {ok} ok, {backpressured} backpressured");
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();

    // The front door's counters, and the service's from the same registry.
    let istats = ingress.stats();
    let obs = service.obs_snapshot();
    let total = tenants * requests_per_tenant;
    println!("\n{tenants} tenant(s) x {requests_per_tenant} requests, SLO {slo:?}: {wall:.3} s");
    println!("  throughput:         {:>10.0} req/s", total as f64 / wall);
    println!("  completed:          {:>10}", istats.completed);
    println!("  SpMVs run:          {:>10}", istats.direct_requests);
    println!(
        "  shed / rejected:    {:>10} deadline, {} queue-full, {} quota",
        istats.shed_deadline, istats.rejected_queue_full, istats.rejected_quota
    );
    println!("  deadline misses:    {:>10}", istats.deadline_misses);
    println!("  queue depth now:    {:>10}", istats.queue_depth);
    println!(
        "  silent fallbacks:   {:>10} (ingress path never takes them)",
        obs.metrics.counter("serve.fallbacks_taken")
    );

    // The per-stage breakdown, straight from the unified registry: where
    // a request's lifetime actually went — queue wait, kernel execution.
    let us = |ns: u64| ns as f64 / 1e3;
    println!("\nstage latencies (registry histograms):");
    for name in ["ingress.queue_wait_ns", "ingress.exec_ns"] {
        let h = obs.metrics.hist(name);
        println!(
            "  {name:<22} {:>8} samples  p50 {:>9.1} us  p99 {:>9.1} us  max {:>9.1} us",
            h.count,
            us(h.p50_ns()),
            us(h.p99_ns()),
            us(h.max_ns)
        );
    }
    println!(
        "\ntracer: {} spans recorded ({} overwritten), {} slow/SLO-breaching requests captured",
        obs.spans_recorded, obs.spans_overwritten, obs.slow_captured
    );
}
