//! One workload, one invocation: set-up (several times, for `setup_s`), a
//! warm-up pass that is thrown away, then counted passes until the
//! measuring time is used up. With tracing on, one counted pass runs
//! untraced and one traced, and the layer probes follow.

use crate::inputs::{BurstSchedule, ServeSchedule};
use crate::layers::{per_layer_metrics, TracedRun};
use crate::measure::{fold, PassStats, Reading};
use crate::setup::{max_threads, prepare, Prepared, Workload};
use crate::spans::Recorder;
use crate::workloads::{ingress_pass, serve_pass, solver_pass, SolverShape};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// How long the counted passes may take together.
    pub seconds: f64,
    pub trace: bool,
    /// How many times set-up runs; `setup_s` is the median.
    pub setup_reps: usize,
    /// Share of a full pass each pass runs: 1 except under `--smoke`,
    /// whose numbers are for checking that everything runs, not for
    /// comparing.
    pub pass_fraction: f64,
}

#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    /// False when an output was wrong, an operation failed, or (traced)
    /// the span tree broke its invariant.
    pub correct: bool,
    pub passes: usize,
    pub pass_seconds: Vec<f64>,
    pub setup_s: Reading,
    /// The four ratio metrics, in [`crate::metrics::END_TO_END`] order.
    pub ratios: [Reading; 4],
    /// Median reference execution, ns: the unit, printed so a reader can
    /// turn ratios back into times.
    pub ref_iter_ns: f64,
    /// Present on traced runs.
    pub layers: Option<Vec<(String, f64)>>,
}

/// Slots per client and pass of the serving workloads, sized so a pass
/// takes about a second on the box the bounds were sized on.
const SERVE_SLOTS: usize = 6_000;
const BURST_SLOTS: usize = 200;

/// The state a workload's passes share.
enum Driver {
    Solver { shape: SolverShape, workers: usize },
    Serve { schedules: Vec<ServeSchedule> },
    Ingress { schedule: BurstSchedule },
}

impl Driver {
    fn new(workload: Workload, seed: u64, handles: usize) -> Driver {
        match workload {
            Workload::ServeMixed => {
                let clients = max_threads();
                Driver::Serve {
                    schedules: (0..clients).map(|c| ServeSchedule::new(seed, c, clients, handles)).collect(),
                }
            }
            Workload::IngressBurst => Driver::Ingress { schedule: BurstSchedule::new(seed, handles) },
            solver => Driver::Solver { shape: SolverShape::of(solver), workers: solver.workers() },
        }
    }

    /// One pass; `fraction` of a counted pass's work (the warm-up runs a
    /// quarter).
    fn pass(&mut self, prepared: &Prepared, fraction: f64, trace: &mut Option<Recorder>) -> PassStats {
        let scaled = |n: usize| ((n as f64 * fraction) as usize).max(8);
        match self {
            Driver::Solver { shape, workers } => {
                let n = prepared.inputs.len();
                let take = ((n as f64 * fraction) as usize).clamp(2, n);
                let order: Vec<usize> = (0..take).map(|k| k * n / take).collect();
                solver_pass(*shape, *workers, &prepared.model, &prepared.inputs, &order, trace)
            }
            Driver::Serve { schedules } => {
                let serving = prepared.serving.as_ref().expect("serve_mixed set-up registers handles");
                serve_pass(serving, &prepared.inputs, schedules, scaled(SERVE_SLOTS), trace)
            }
            Driver::Ingress { schedule } => {
                let serving = prepared.serving.as_ref().expect("ingress_burst set-up registers handles");
                ingress_pass(serving, &prepared.inputs, schedule, scaled(BURST_SLOTS), trace)
            }
        }
    }
}

/// Where trace files go: beside the build, never into the source tree.
pub fn output_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("oracle_bench")
}

pub fn run_workload(cfg: &RunConfig) -> RunResult {
    let mut setups = Vec::with_capacity(cfg.setup_reps);
    let mut prepared = prepare(cfg.workload, cfg.seed);
    setups.push(prepared.setup_s);
    for _ in 1..cfg.setup_reps {
        // Drop first: two live copies would double the resident set and
        // time the allocator instead of the set-up.
        drop(prepared);
        prepared = prepare(cfg.workload, cfg.seed);
        setups.push(prepared.setup_s);
    }

    let mut driver = Driver::new(cfg.workload, cfg.seed, prepared.inputs.len());
    let warm_up = driver.pass(&prepared, 0.25 * cfg.pass_fraction, &mut None);
    let (mut attempted, mut failed) = (warm_up.attempted, warm_up.failed);

    let mut passes: Vec<PassStats> = Vec::new();
    let mut layers = None;
    let mut spans_ok = true;
    if cfg.trace {
        let untraced = driver.pass(&prepared, cfg.pass_fraction, &mut None);
        let mut trace = Some(Recorder::new());
        let traced = driver.pass(&prepared, cfg.pass_fraction, &mut trace);
        let mut rec = trace.expect("the traced pass keeps its recorder");
        let spreads = fold(&[untraced.clone(), traced.clone()]).map(|r| r.spread);
        let run = TracedRun {
            workload: cfg.workload,
            prepared: &prepared,
            untraced: &untraced,
            traced: &traced,
            spreads,
        };
        let (metrics, probed, probe_failed) = per_layer_metrics(&run, &mut rec);
        attempted += probed;
        failed += probe_failed;
        layers = Some(metrics);
        if let Err(why) = rec.check() {
            eprintln!("oracle_bench: span tree invariant broken: {why}");
            spans_ok = false;
        }
        let dir = output_dir();
        let file = dir.join(format!("trace-{}.json", cfg.workload.name()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, rec.to_json(cfg.workload.name(), 20_000).render_pretty()));
        match written {
            Ok(()) => println!("trace: {} spans, first 20000 in {}", rec.spans().len(), file.display()),
            Err(e) => eprintln!("oracle_bench: could not write {}: {e}", file.display()),
        }
        passes.push(untraced);
        passes.push(traced);
    } else {
        let started = Instant::now();
        while passes.len() < 3 || started.elapsed().as_secs_f64() < cfg.seconds {
            passes.push(driver.pass(&prepared, cfg.pass_fraction, &mut None));
        }
    }
    attempted += passes.iter().map(|p| p.attempted).sum::<u64>();
    failed += passes.iter().map(|p| p.failed).sum::<u64>();

    RunResult {
        workload: cfg.workload,
        attempted,
        failed,
        correct: failed == 0 && spans_ok,
        passes: passes.len(),
        pass_seconds: passes.iter().map(|p| p.wall_s).collect(),
        setup_s: Reading::over_passes(&setups),
        ratios: fold(&passes),
        ref_iter_ns: crate::stats::median(
            &passes.iter().flat_map(|p| p.ref_ns.iter().copied()).collect::<Vec<f64>>(),
        ),
        layers,
    }
}
