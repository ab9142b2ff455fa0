//! The adaptive learning loop end to end: serve (measured-kernel
//! telemetry), sweep (trial-run every viable format), retrain + hot-swap,
//! and the forced-drift fallback — all against one live `OracleService`,
//! no restarts.
//!
//! ```text
//! cargo run --release --example adaptive_serve [rounds] [requests-per-matrix]
//! ```

use morpheus_repro::corpus::gen::banded::{multi_diagonal, tridiagonal};
use morpheus_repro::corpus::gen::powerlaw::zipf_rows;
use morpheus_repro::corpus::gen::stencil::poisson2d;
use morpheus_repro::machine::{systems, Backend, VirtualEngine};
use morpheus_repro::ml::Dataset;
use morpheus_repro::morpheus::DynamicMatrix;
use morpheus_repro::oracle::adapt::{
    AdaptiveConfig, AdaptiveEngine, AdaptiveTuner, CollectorConfig, RetrainOutcome, SampleCollector,
};
use morpheus_repro::oracle::{Oracle, RunFirstTuner, NUM_FEATURES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let rounds: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let requests: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(200);

    let mut rng = StdRng::seed_from_u64(3);
    let matrices = vec![
        ("tridiagonal", DynamicMatrix::from(tridiagonal(12_000))),
        ("tridiagonal-s", DynamicMatrix::from(tridiagonal(5_000))),
        ("penta-diagonal", DynamicMatrix::from(multi_diagonal(8_000, 5, &mut rng))),
        ("zipf", DynamicMatrix::from(zipf_rows(5_000, 30_000, 1.1, &mut rng))),
        ("zipf-s", DynamicMatrix::from(zipf_rows(2_500, 14_000, 1.2, &mut rng))),
        ("poisson2d", DynamicMatrix::from(poisson2d(80, 80))),
    ];

    // One collector shared between the service (which feeds it) and the
    // adaptive engine (which drains it).
    let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
    let service = Arc::new(
        Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::Serial))
            .tuner(AdaptiveTuner::new(RunFirstTuner::new(1)))
            .collector(Arc::clone(&collector))
            .build_service()
            .expect("engine and tuner set"),
    );
    let engine =
        AdaptiveEngine::new(Arc::clone(&service), AdaptiveConfig { min_samples: 6, ..Default::default() })
            .expect("service has a collector");

    // Phase 1: serve. Every registered-path execution is timestamped into
    // the lock-free telemetry ring.
    let handles: Vec<_> =
        matrices.iter().map(|(_, m)| service.register(m.clone()).expect("register")).collect();
    for (i, (name, m)) in matrices.iter().enumerate() {
        let x: Vec<f64> = (0..m.ncols()).map(|j| 1.0 + (j % 9) as f64 * 0.5).collect();
        let mut y = vec![0.0f64; m.nrows()];
        for _ in 0..requests {
            service.spmv(&handles[i], &x, &mut y).expect("serve");
        }
        println!("served {requests:>5} requests of {name:<14} in {}", handles[i].format_id());
    }
    let adaptation = service.collector().expect("collector attached").stats();
    println!(
        "telemetry: {} measured executions across {} populations ({} dropped)\n",
        adaptation.telemetry.recorded, adaptation.telemetry.slots_used, adaptation.telemetry.dropped
    );

    // Phase 2: adapt. Sweeps fill in the formats serving never executed,
    // then each round retrains, validates on a holdout and hot-swaps.
    for r in 0..rounds.max(1) {
        for (_, m) in &matrices {
            engine.sweep(m).expect("sweep");
        }
        let report = engine.round().expect("round");
        println!(
            "round {r}: {} samples, candidate {:?} (holdout accuracy {:.2}) -> {:?}",
            report.samples,
            report.candidate,
            report.candidate_accuracy.unwrap_or(f64::NAN),
            report.outcome,
        );
    }
    // On a noisy host a tiny holdout can reject every candidate; retry a
    // few rounds (each adds sweep observations) until a model is live.
    let mut retries = 0;
    while service.tuner().current().is_none() && retries < 3 {
        for (_, m) in &matrices {
            engine.sweep(m).expect("sweep");
        }
        println!("retry round -> {:?}", engine.round().expect("round").outcome);
        retries += 1;
    }
    assert!(service.tuner().current().is_some(), "adaptation must install a model");
    println!("sweep seconds charged to TuningCost::measured: {:.4}\n", collector.measured_seconds());

    // The adapted model now serves fresh tuning decisions.
    for (name, m) in &matrices {
        let mut fresh = m.clone();
        let report = service.tune(&mut fresh).expect("tune");
        println!(
            "adapted decision for {name:<14} -> {} (prediction {:.2e}s, profiling {:.2e}s)",
            report.chosen, report.cost.prediction, report.cost.profiling
        );
    }

    // Phase 3: forced drift. Identical features with irreconcilable labels
    // simulate the hardware no longer matching anything learnable: the
    // engine drops the model and the analytical tuner takes over — same
    // service, no restart.
    let mut drifted = Dataset::empty(NUM_FEATURES, 6, vec![]).unwrap();
    let row: [f64; NUM_FEATURES] = [600.0, 600.0, 3000.0, 5.0, 0.008, 24.0, 1.0, 2.0, 19.0, 0.0, 0.0, 0.0];
    for i in 0..30 {
        drifted.push(&row, i % 6).unwrap();
    }
    let drift = engine.round_with(drifted).expect("drift round");
    println!("\nforced drift -> {:?}", drift.outcome);
    assert!(matches!(drift.outcome, RetrainOutcome::FellBack { .. }), "drift must fall back");
    let mut again = matrices[0].1.clone();
    let fallback = service.tune(&mut again).expect("post-drift tune");
    println!(
        "post-drift decision for tridiagonal -> {} via the analytical fallback (profiling {:.2e}s)",
        fallback.chosen, fallback.cost.profiling
    );
    assert!(fallback.cost.profiling > 0.0, "fallback must be the run-first tuner");
    println!("\nepochs: {} (swaps + fallback), service never restarted", service.tuner().epoch());
}
