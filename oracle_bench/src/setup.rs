//! Set-up: the forest fit, input generation, reference arrays, service
//! build and (for the serving workloads) handle registration. Everything
//! here is timed as `setup_s`; nothing here is timed as an operation.
//!
//! The program is configured through its public builder with defaults
//! (`Oracle::builder().engine(..).tuner(..).workers(W)`), so a later change
//! that improves a default shows up in the numbers.

use crate::inputs::{self, MatrixInput};
use morpheus::format::FORMAT_COUNT;
use morpheus::DynamicMatrix;
use morpheus_corpus::CorpusSpec;
use morpheus_machine::{analyze, systems, Backend, VirtualEngine};
use morpheus_ml::{Dataset, ForestParams, RandomForest};
use morpheus_oracle::{
    FeatureVector, FormatTuner, Ingress, IngressConfig, MatrixHandle, Oracle, OracleService,
    RandomForestTuner, NUM_FEATURES,
};
use std::sync::{Arc, RwLock};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolverShort,
    SolverLong,
    SolverLongMt,
    ServeMixed,
    IngressBurst,
}

pub const ALL_WORKLOADS: [Workload; 5] = [
    Workload::SolverShort,
    Workload::SolverLong,
    Workload::SolverLongMt,
    Workload::ServeMixed,
    Workload::IngressBurst,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolverShort => "solver_short",
            Workload::SolverLong => "solver_long",
            Workload::SolverLongMt => "solver_long_mt",
            Workload::ServeMixed => "serve_mixed",
            Workload::IngressBurst => "ingress_burst",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL_WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Pool workers of the service the workload drives. Only
    /// `solver_long_mt` runs kernels across the pool; with one worker the
    /// plan replays on the calling thread.
    pub fn workers(self) -> usize {
        match self {
            Workload::SolverLongMt => max_threads(),
            _ => 1,
        }
    }
}

/// The thread ceiling of every phase: never more runnable threads than
/// `min(nproc, 4)`.
pub fn max_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get()).min(4)
}

/// The engine decisions are made for (the paper's Cirrus node, OpenMP
/// backend, so execution goes through cached `ExecPlan`s).
pub fn engine() -> VirtualEngine {
    VirtualEngine::new(systems::cirrus(), Backend::OpenMp)
}

/// The fitted selector and what fitting it cost.
#[derive(Debug, Clone)]
pub struct Model {
    pub forest: RandomForest,
    pub corpus_s: f64,
    pub fit_s: f64,
}

/// Offline stage exactly as `examples/train_and_predict.rs`: profile a
/// 160-matrix corpus on the engine, fit a 30-tree forest. The training
/// corpus is part of the program's configuration, not of the workload, so
/// it does not follow `--seed`.
pub fn fit_model() -> Model {
    let t = Instant::now();
    let spec = CorpusSpec::small(160);
    let engine = engine();
    let mut train = Dataset::empty(NUM_FEATURES, FORMAT_COUNT, vec![]).expect("feature schema");
    for entry in spec.iter() {
        let m = DynamicMatrix::from(entry.matrix);
        let analysis = analyze(&m);
        let features = FeatureVector::from_stats(&analysis.stats);
        train
            .push(features.as_slice(), engine.profile(&analysis).optimal.index())
            .expect("row matches schema");
    }
    let corpus_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let forest = RandomForest::fit(&train, &ForestParams { n_estimators: 30, seed: 1, ..Default::default() })
        .expect("training set is non-empty");
    Model { forest, corpus_s, fit_s: t.elapsed().as_secs_f64() }
}

pub type Service = OracleService<RandomForestTuner>;

/// A service over `tuner` with `workers` pool threads, every other knob at
/// its builder default.
pub fn build_service_with<T>(tuner: T, workers: usize) -> OracleService<T> {
    Oracle::builder()
        .engine(engine())
        .tuner(tuner)
        .workers(workers)
        .build_service()
        .expect("engine and tuner set")
}

/// The selector under test: the fitted forest behind the program's tuner.
pub fn forest_tuner(model: &Model) -> RandomForestTuner {
    RandomForestTuner::new(model.forest.clone()).expect("forest fitted on the feature schema")
}

pub fn build_service(model: &Model, workers: usize) -> Service {
    build_service_with(forest_tuner(model), workers)
}

/// What a serving slot currently holds: the handle and by how many rows
/// its matrix is rotated against the slot's base input.
#[derive(Debug, Clone)]
pub struct SlotState {
    pub handle: MatrixHandle<f64>,
    pub shift: usize,
}

/// The long-lived state of the serving workloads.
pub struct Serving {
    pub service: Arc<Service>,
    pub slots: Vec<RwLock<SlotState>>,
    /// `ncols x 8` right-hand-side blocks, one per slot.
    pub x_blocks: Vec<Vec<f64>>,
    /// Front door of `ingress_burst` (and of the ingress layer probe).
    pub ingress: Option<Ingress<RandomForestTuner>>,
}

/// Registers every input on a fresh service.
pub fn start_serving(model: &Model, inputs: &[MatrixInput], with_ingress: bool) -> Serving {
    let service = Arc::new(build_service(model, 1));
    let slots = inputs
        .iter()
        .map(|input| {
            let handle =
                service.register(DynamicMatrix::from(input.coo.clone())).expect("generated inputs register");
            RwLock::new(SlotState { handle, shift: 0 })
        })
        .collect();
    let x_blocks = inputs.iter().map(|input| input.x_block(8)).collect();
    let ingress = with_ingress.then(|| Ingress::start(Arc::clone(&service), IngressConfig::default()));
    Serving { service, slots, x_blocks, ingress }
}

/// Everything one workload run needs, plus what building it cost.
pub struct Prepared {
    pub model: Model,
    pub inputs: Vec<MatrixInput>,
    pub serving: Option<Serving>,
    pub gen_s: f64,
    pub setup_s: f64,
}

pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    let t = Instant::now();
    let model = fit_model();
    let t_gen = Instant::now();
    let inputs = match workload {
        Workload::SolverShort => inputs::solver_short_inputs(seed),
        // `ingress_burst` serves the large matrices: a burst's kernel work
        // has to dwarf the two thread hand-offs it costs, or the metric
        // reads the VM's wake-up latency (5 us or 45 us, for minutes at a
        // time on the box the bounds were sized on), not the program.
        Workload::SolverLong | Workload::SolverLongMt | Workload::IngressBurst => {
            inputs::solver_long_inputs(seed)
        }
        Workload::ServeMixed => inputs::serve_inputs(seed),
    };
    let gen_s = t_gen.elapsed().as_secs_f64();
    let serving = match workload {
        Workload::ServeMixed => Some(start_serving(&model, &inputs, false)),
        Workload::IngressBurst => Some(start_serving(&model, &inputs, true)),
        // Solver passes start from a fresh service each; building one here
        // keeps its cost (pool threads, caches, registry) inside set-up.
        _ => {
            drop(build_service(&model, workload.workers()));
            None
        }
    };
    Prepared { model, inputs, serving, gen_s, setup_s: t.elapsed().as_secs_f64() }
}

/// A tuner that always answers `format`: the forced-format sweep drives
/// every viable format through the same `register` → `spmv` path the
/// selector's choice takes.
#[derive(Debug, Clone, Copy)]
pub struct FixedFormat(pub morpheus::FormatId);

impl FormatTuner<f64> for FixedFormat {
    fn name(&self) -> &'static str {
        "fixed-format"
    }

    fn select(
        &self,
        _: &DynamicMatrix<f64>,
        a: &morpheus_machine::MatrixAnalysis,
        _: &VirtualEngine,
        op: morpheus_oracle::Op,
    ) -> morpheus_oracle::TuneDecision {
        morpheus_oracle::TuneDecision {
            format: self.0,
            params: morpheus_oracle::propose_params(self.0, a),
            op,
            cost: morpheus_oracle::TuningCost::default(),
        }
    }
}
