//! End-to-end observability dump: drive mixed direct + ingress traffic
//! through an `OracleService`, then print everything the observability
//! subsystem exposes — the text exposition of the unified metrics
//! registry, the JSON snapshot, one request's span tree, and the
//! slow-request flight recorder.
//!
//! ```text
//! cargo run --release --example obs_dump [--text | --json]
//! ```
//!
//! With `--text` only the machine-readable text exposition is printed
//! (the scrape surface — CI parses it back through
//! `obs::expose::parse_text`); with `--json` only the JSON snapshot.

use morpheus_repro::corpus::gen::banded::tridiagonal;
use morpheus_repro::corpus::gen::powerlaw::zipf_rows;
use morpheus_repro::machine::{systems, Backend, VirtualEngine};
use morpheus_repro::morpheus::DynamicMatrix;
use morpheus_repro::oracle::obs::expose::{metric_lines, render_flight_json, render_json, render_text};
use morpheus_repro::oracle::{Ingress, IngressConfig, IngressError, ObsConfig, Oracle, RunFirstTuner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let text_only = args.iter().any(|a| a == "--text");
    let json_only = args.iter().any(|a| a == "--json");
    let quiet = text_only || json_only;

    let mut rng = StdRng::seed_from_u64(17);
    let matrices = [
        DynamicMatrix::from(tridiagonal(6_000)),
        DynamicMatrix::from(zipf_rows(3_000, 24_000, 1.1, &mut rng)),
    ];

    // Coarse tracing is the default; add a slow-request threshold so the
    // flight recorder also captures outliers on deadline-less traffic.
    let service = Arc::new(
        Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(1))
            .workers(2)
            .observability(ObsConfig {
                slow_threshold: Some(Duration::from_millis(5)),
                ..ObsConfig::default()
            })
            .build_service()
            .expect("engine and tuner set"),
    );
    let handles: Vec<_> = matrices.iter().map(|m| service.register(m.clone()).expect("register")).collect();
    let inputs: Vec<Vec<f64>> =
        matrices.iter().map(|m| (0..m.ncols()).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect()).collect();

    // Direct registered-path traffic (serve.* metrics).
    for round in 0..32 {
        let mi = round % handles.len();
        let mut y = vec![0.0f64; handles[mi].nrows()];
        service.spmv(&handles[mi], &inputs[mi], &mut y).expect("handle spmv");
    }

    // Ingress traffic (ingress.* metrics + request span trees): bursts
    // against one handle, each request run as its own SpMV, plus a few requests
    // with already-expired deadlines so the flight recorder has breaches
    // to capture.
    let ingress = Ingress::start(
        Arc::clone(&service),
        IngressConfig { default_slo: Some(Duration::from_millis(250)), ..IngressConfig::default() },
    );
    let mut last_trace = None;
    for burst in 0..8 {
        let tickets: Vec<_> = (0..4)
            .map(|_| ingress.submit("tenant-a", &handles[0], inputs[0].clone()).expect("submit"))
            .collect();
        for t in tickets {
            last_trace = Some(t.trace());
            t.wait().expect("ingress request");
        }
        if burst % 4 == 3 {
            let expired = Instant::now() - Duration::from_millis(1);
            match ingress.submit_with_deadline("tenant-b", &handles[0], inputs[0].clone(), expired) {
                Ok(t) => match t.wait() {
                    Err(IngressError::Backpressure(_)) => {} // shed, as intended
                    other => drop(other),
                },
                Err(e) => panic!("submit_with_deadline: {e}"),
            }
        }
    }

    let snap = service.obs_snapshot();
    let lines = metric_lines(&snap.metrics);

    if text_only {
        print!("{}", render_text(&lines));
        return;
    }
    if json_only {
        println!("{}", render_json(&snap));
        return;
    }

    if !quiet {
        println!("==== text exposition ====");
        print!("{}", render_text(&lines));
        println!();
        println!("==== json snapshot ====");
        println!("{}", render_json(&snap));
        println!();

        if let Some(trace) = last_trace.filter(|t| t.is_some()) {
            println!("==== span tree of trace {} ====", trace.0);
            for s in service.obs().trace_spans(trace) {
                println!(
                    "  {:>18} start {:>12} ns  dur {:>10} ns  detail {}",
                    s.stage.name(),
                    s.start_ns,
                    s.dur_ns,
                    s.detail
                );
            }
            println!();
        }

        let slow = service.obs().flight().snapshot();
        println!("==== flight recorder ({} captured) ====", snap.slow_captured);
        println!("{}", render_flight_json(&slow));
    }
}
