//! Adaptive-learning benchmark with a machine-readable snapshot.
//!
//! Measures the claims the `adapt` subsystem makes, on a mixed banded +
//! powerlaw + stencil + scattered corpus:
//!
//! * **telemetry overhead**: warm registered-path throughput with the
//!   collector attached but retraining idle, vs an identical service
//!   without a collector (the budget: < 2% regression);
//! * **decision quality**: fraction of matrices assigned their
//!   *measured*-fastest format (ground truth from independent timed serial
//!   runs of every viable format), for the shipped analytical tuner vs the
//!   model adapted online over `--rounds` sweep + retrain rounds;
//! * **drift**: a forced-drift round (irreducibly conflicting labels) must
//!   trigger the fallback to the analytical tuner without a service
//!   restart.
//!
//! Results go to stdout and `BENCH_adapt.json` (override with `--out`).
//! `--smoke` shrinks sizes for CI, and without `--out` writes
//! `${CARGO_TARGET_DIR:-target}/BENCH_adapt.json`, so it never replaces the
//! tracked full-run snapshot.

use morpheus::format::{FormatId, ALL_FORMATS};
use morpheus::{CooMatrix, DynamicMatrix};
use morpheus_bench::report::json_escape;
use morpheus_corpus::gen::banded::{multi_diagonal, tridiagonal};
use morpheus_corpus::gen::powerlaw::{hub_rows, zipf_rows};
use morpheus_corpus::gen::random::variable_degree;
use morpheus_corpus::gen::stencil::poisson2d;
use morpheus_machine::{analyze, systems, Backend, VirtualEngine};
use morpheus_ml::Dataset;
use morpheus_oracle::adapt::{
    AdaptiveConfig, AdaptiveEngine, AdaptiveTuner, CollectorConfig, RetrainOutcome, SampleCollector,
};
use morpheus_oracle::{Oracle, OracleService, RunFirstTuner, NUM_FEATURES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

struct Case {
    name: String,
    family: &'static str,
    matrix: DynamicMatrix<f64>,
}

/// Three sizes per structural family: enough labeled samples per round for
/// the retrain to generalize, while every family keeps small members so
/// `--smoke` stays fast.
fn corpus(smoke: bool) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(41);
    let scale = |full: usize, small: usize| if smoke { small } else { full };
    let mut cases = Vec::new();
    let mut case = |name: String, family: &'static str, m: CooMatrix<f64>| {
        cases.push(Case { name, family, matrix: DynamicMatrix::from(m) })
    };
    let sizes =
        |full: [usize; 5], small: [usize; 5]| (0..5).map(move |i| scale(full[i], small[i])).enumerate();
    let small = [400usize, 700, 1_000, 1_300, 1_600];
    for (i, n) in sizes([6_000, 10_000, 16_000, 26_000, 40_000], small) {
        case(format!("tridiagonal-{i}"), "banded", tridiagonal(n));
    }
    for (i, n) in sizes([5_000, 8_000, 13_000, 20_000, 30_000], small) {
        case(format!("penta-diagonal-{i}"), "banded", multi_diagonal(n, 5, &mut rng));
    }
    for (i, n) in sizes([4_000, 7_000, 11_000, 17_000, 26_000], small) {
        case(format!("nona-diagonal-{i}"), "banded", multi_diagonal(n, 9, &mut rng));
    }
    for (i, n) in sizes([3_000, 5_000, 8_000, 12_000, 18_000], small) {
        case(format!("zipf-mid-{i}"), "powerlaw", zipf_rows(n, n * 6, 1.0, &mut rng));
    }
    for (i, n) in sizes([2_500, 4_000, 6_500, 10_000, 15_000], small) {
        case(format!("hub-{i}"), "powerlaw", hub_rows(n, 2, n / 3 + 1, n * 5, &mut rng));
    }
    for (i, n) in sizes([70, 100, 130, 160, 190], [16, 20, 24, 28, 32]) {
        case(format!("poisson2d-{i}"), "stencil", poisson2d(n, n));
    }
    for (i, n) in sizes([2_500, 4_000, 6_500, 10_000, 15_000], small) {
        case(format!("variable-degree-{i}"), "scattered", variable_degree(n, 1, 24, &mut rng));
    }
    for (i, n) in sizes([2_000, 3_200, 5_000, 8_000, 12_000], small) {
        case(format!("zipf-steep-{i}"), "powerlaw", zipf_rows(n, n * 5, 1.4, &mut rng));
    }
    cases
}

/// Tolerance for calling two formats measurement-equivalent: structurally
/// degenerate pairs (DIA vs HDC on a pure banded matrix, COO vs CSR on
/// uniform rows) execute the same work and flip winners on noise.
const TIE_TOLERANCE: f64 = 0.05;

/// Ground truth for one matrix: every viable format whose measured mean is
/// within [`TIE_TOLERANCE`] of the fastest, from `reps` timed serial SpMV
/// runs per format (independent of the telemetry the adaptation trains
/// on). The first entry is the outright fastest.
fn measured_fastest(engine: &VirtualEngine, m: &DynamicMatrix<f64>, reps: usize) -> Vec<FormatId> {
    let opts = morpheus::ConvertOptions::default();
    let view = analyze(m);
    let x: Vec<f64> = (0..m.ncols()).map(|i| 1.0 + (i % 13) as f64 * 0.25).collect();
    let mut y = vec![0.0f64; m.nrows()];
    // Materialize all formats, warm up, then interleave timed reps so
    // cache warmth doesn't bias later formats (mirrors the collector's
    // sweep methodology).
    let mut trials: Vec<(FormatId, DynamicMatrix<f64>, f64)> = Vec::new();
    for fmt in ALL_FORMATS {
        if !engine.is_viable(fmt, &view) {
            continue;
        }
        let Ok(trial) = m.to_format(fmt, &opts) else { continue };
        morpheus::spmv::spmv_serial(&trial, &x, &mut y).expect("spmv");
        trials.push((fmt, trial, f64::INFINITY));
    }
    for _ in 0..reps {
        for (_, trial, best) in trials.iter_mut() {
            let t0 = Instant::now();
            morpheus::spmv::spmv_serial(trial, &x, &mut y).expect("spmv");
            *best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    // Rank by the fastest observed run — the same robust estimator the
    // collector labels with.
    let mut bests: Vec<(FormatId, f64)> = trials.into_iter().map(|(f, _, best)| (f, best)).collect();
    bests.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"));
    let fastest = bests.first().expect("at least CSR is viable").1;
    bests
        .into_iter()
        .take_while(|(_, best)| *best <= fastest * (1.0 + TIE_TOLERANCE))
        .map(|(f, _)| f)
        .collect()
}

fn engine() -> VirtualEngine {
    VirtualEngine::new(systems::cirrus(), Backend::Serial)
}

type Service = OracleService<AdaptiveTuner<RunFirstTuner>>;

fn build_service(collector: Option<&Arc<SampleCollector>>) -> Arc<Service> {
    let mut builder = Oracle::builder().engine(engine()).tuner(AdaptiveTuner::new(RunFirstTuner::new(1)));
    if let Some(c) = collector {
        builder = builder.collector(Arc::clone(c));
    }
    Arc::new(builder.build_service().expect("engine and tuner set"))
}

/// Warm registered-path throughput (req/s) over the corpus.
fn registered_rps(service: &Service, matrices: &[DynamicMatrix<f64>], iters: usize) -> f64 {
    let handles: Vec<_> = matrices.iter().map(|m| service.register(m.clone()).expect("register")).collect();
    let inputs: Vec<Vec<f64>> =
        matrices.iter().map(|m| (0..m.ncols()).map(|i| 1.0 + (i % 7) as f64).collect()).collect();
    let mut outs: Vec<Vec<f64>> = matrices.iter().map(|m| vec![0.0; m.nrows()]).collect();
    // Warmup pass.
    for (i, h) in handles.iter().enumerate() {
        service.spmv(h, &inputs[i], &mut outs[i]).expect("spmv");
    }
    let t0 = Instant::now();
    let mut requests = 0u64;
    for _ in 0..iters {
        for (i, h) in handles.iter().enumerate() {
            service.spmv(h, &inputs[i], &mut outs[i]).expect("spmv");
            requests += 1;
        }
    }
    requests as f64 / t0.elapsed().as_secs_f64()
}

fn quality(
    service: &Service,
    matrices: &[DynamicMatrix<f64>],
    truth: &[Vec<FormatId>],
) -> (f64, Vec<FormatId>) {
    let mut chosen = Vec::with_capacity(matrices.len());
    for m in matrices {
        let mut fresh = m.clone();
        let report = service.tune(&mut fresh).expect("tune");
        chosen.push(report.chosen);
    }
    let hits = chosen.iter().zip(truth).filter(|(c, t)| t.contains(c)).count();
    (hits as f64 / matrices.len() as f64, chosen)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = match args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)) {
        Some(path) => path.clone(),
        // A smoke run writes beside the build: the tracked snapshot is a full run's.
        None if smoke => {
            format!(
                "{}/BENCH_adapt.json",
                std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into())
            )
        }
        None => "BENCH_adapt.json".to_string(),
    };
    let rounds: usize = args
        .iter()
        .position(|a| a == "--rounds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let gt_reps = if smoke { 3 } else { 12 };
    let rps_iters = if smoke { 20 } else { 300 };
    let serve_iters = if smoke { 4 } else { 16 };

    let cases = corpus(smoke);
    let matrices: Vec<DynamicMatrix<f64>> = cases.iter().map(|c| c.matrix.clone()).collect();
    let eng = engine();

    // ---- ground truth: measured-fastest format per matrix ----
    let truth: Vec<Vec<FormatId>> = matrices.iter().map(|m| measured_fastest(&eng, m, gt_reps)).collect();
    let truth_names: Vec<String> =
        truth.iter().map(|t| t.iter().map(|f| f.name()).collect::<Vec<_>>().join("|")).collect();

    // ---- telemetry overhead: collector attached vs not ----
    // Alternate the two services and keep each one's best pass, so drift
    // in machine load hits both sides instead of whichever ran second.
    let plain_service = build_service(None);
    let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
    let service = build_service(Some(&collector));
    let (mut rps_plain, mut rps_before) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        rps_plain = rps_plain.max(registered_rps(&plain_service, &matrices, rps_iters));
        rps_before = rps_before.max(registered_rps(&service, &matrices, rps_iters));
    }
    let overhead_ratio = rps_before / rps_plain;

    // ---- baseline quality: the analytical fallback decides ----
    let (quality_analytical, chosen_analytical) = quality(&service, &matrices, &truth);

    // ---- adaptation rounds: sweep + serve + retrain ----
    let adapt = AdaptiveEngine::new(
        Arc::clone(&service),
        AdaptiveConfig {
            accuracy_floor: 0.45,
            min_samples: cases.len().min(6),
            sweep_reps: if smoke { 3 } else { 8 },
            ..Default::default()
        },
    )
    .expect("collector attached");
    let mut round_lines = Vec::new();
    for r in 0..rounds.max(2) {
        for m in &matrices {
            adapt.sweep(m).expect("sweep");
            // Some serving traffic on top of the sweeps.
            let handle = service.register(m.clone()).expect("register");
            let x: Vec<f64> = (0..m.ncols()).map(|i| (i % 5) as f64).collect();
            let mut y = vec![0.0; m.nrows()];
            for _ in 0..serve_iters {
                service.spmv(&handle, &x, &mut y).expect("spmv");
            }
        }
        let report = adapt.round().expect("round");
        round_lines.push(format!(
            "{{\"round\": {r}, \"samples\": {}, \"outcome\": \"{}\", \"candidate_accuracy\": {}, \"measured_seconds\": {:.6}}}",
            report.samples,
            match &report.outcome {
                RetrainOutcome::Swapped { .. } => "swapped",
                RetrainOutcome::Retained => "retained",
                RetrainOutcome::FellBack { .. } => "fell_back",
                RetrainOutcome::Skipped { .. } => "skipped",
            },
            report.candidate_accuracy.map_or("null".into(), |a| format!("{a:.4}")),
            report.measured_seconds,
        ));
        println!(
            "round {r}: {} samples -> {:?} (candidate accuracy {:?})",
            report.samples, report.outcome, report.candidate_accuracy
        );
    }
    let adapted_epoch = service.tuner().epoch();

    // ---- adapted quality and post-adaptation throughput ----
    let (quality_adapted, chosen_adapted) = quality(&service, &matrices, &truth);
    let rps_after = registered_rps(&service, &matrices, rps_iters);

    // ---- forced drift: conflicting labels must trigger the fallback ----
    let mut drifted = Dataset::empty(NUM_FEATURES, 6, vec![]).unwrap();
    let row = [700.0, 700.0, 3500.0, 5.0, 0.007, 28.0, 1.0, 2.0, 21.0, 0.0, 0.3, 0.4];
    for i in 0..30 {
        drifted.push(&row, i % 6).unwrap();
    }
    let drift_report = adapt.round_with(drifted).expect("drift round");
    let drift_fell_back = matches!(drift_report.outcome, RetrainOutcome::FellBack { .. });
    // No restart: the same service answers the next request analytically.
    let mut probe = matrices[0].clone();
    service.tune(&mut probe).expect("post-drift tune");

    // ---- report ----
    let stats = collector.stats();
    println!();
    println!("adaptive benchmark: {} matrices, {} adaptation rounds", cases.len(), rounds.max(2));
    println!(
        "telemetry overhead: {rps_plain:.0} req/s plain vs {rps_before:.0} req/s with collector \
         ({:.2}% delta)",
        (overhead_ratio - 1.0) * 100.0
    );
    println!();
    println!("{:<18} {:>12} {:>12} {:>10}", "matrix", "truth", "analytical", "adapted");
    for (i, case) in cases.iter().enumerate() {
        println!(
            "{:<18} {:>12} {:>12} {:>10}",
            case.name,
            truth_names[i],
            chosen_analytical[i].name(),
            chosen_adapted[i].name()
        );
    }
    println!();
    println!("decision quality (fraction measured-fastest): analytical {quality_analytical:.3}, adapted {quality_adapted:.3}");
    println!(
        "registered-path throughput: {rps_before:.0} req/s before, {rps_after:.0} req/s after adaptation"
    );
    println!("sweep seconds charged: {:.4}", stats.measured_seconds);
    println!("forced drift -> {:?} (fallback without restart: {drift_fell_back})", drift_report.outcome);

    // ---- snapshot ----
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"bench_adapt/v3\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"rounds\": {},\n", rounds.max(2)));
    json.push_str(&format!(
        "  \"corpus\": [{}],\n",
        cases
            .iter()
            .map(|c| format!("{{\"name\": \"{}\", \"family\": \"{}\"}}", json_escape(&c.name), c.family))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!("  \"telemetry_overhead_rps_ratio\": {overhead_ratio:.4},\n"));
    json.push_str(&format!("  \"quality_analytical\": {quality_analytical:.4},\n"));
    json.push_str(&format!("  \"quality_adapted\": {quality_adapted:.4},\n"));
    json.push_str(&format!("  \"rps_before_adaptation\": {rps_before:.1},\n"));
    json.push_str(&format!("  \"rps_after_adaptation\": {rps_after:.1},\n"));
    json.push_str(&format!("  \"adapted_epoch\": {adapted_epoch},\n"));
    json.push_str(&format!("  \"sweep_seconds\": {:.6},\n", stats.measured_seconds));
    json.push_str(&format!(
        "  \"telemetry\": {{\"recorded\": {}, \"dropped\": {}, \"slots_used\": {}, \"capacity\": {}}},\n",
        stats.telemetry.recorded,
        stats.telemetry.dropped,
        stats.telemetry.slots_used,
        stats.telemetry.capacity
    ));
    json.push_str(&format!("  \"drift_fell_back\": {drift_fell_back},\n"));
    json.push_str("  \"decisions\": [\n");
    for (i, case) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"truth\": \"{}\", \"analytical\": \"{}\", \"adapted\": \"{}\"}}{}\n",
            json_escape(&case.name),
            truth_names[i],
            chosen_analytical[i].name(),
            chosen_adapted[i].name(),
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"rounds_detail\": [\n");
    for (i, line) in round_lines.iter().enumerate() {
        json.push_str(&format!("    {line}{}\n", if i + 1 < round_lines.len() { "," } else { "" }));
    }
    json.push_str("  ]\n}\n");
    if let Some(dir) = std::path::Path::new(&out_path).parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create the snapshot's directory");
    }
    std::fs::write(&out_path, json).expect("write snapshot");
    println!("snapshot written to {out_path}");
}
