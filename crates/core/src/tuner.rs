//! The tuners of §VI-A — run-first and one tuner for every kind of learned
//! model — generic over the matrix scalar and aware of the operation being
//! tuned for.

use crate::features::FeatureVector;
use crate::{OracleError, Result};
use morpheus::analysis::WalkBounds;
use morpheus::format::{FormatId, ALL_FORMATS};
use morpheus::{DynamicMatrix, Scalar};
use morpheus_machine::{MatrixAnalysis, Op, VirtualEngine};
use morpheus_ml::{Model, ModelKind};

/// Virtual-clock cost of one tuning decision, split the way Table IV and
/// Equation 2 need it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TuningCost {
    /// Feature-extraction time `T_FE`, seconds.
    pub feature_extraction: f64,
    /// Model-evaluation time `T_PRED`, seconds.
    pub prediction: f64,
    /// Run-first only: conversions plus trial runs, seconds.
    pub profiling: f64,
    /// Wall-clock seconds of *measured* kernel trial runs charged to the
    /// adaptive sweep (see `crate::adapt`). Unlike `profiling` — which is
    /// virtual-clock time the engine *predicts* trials would take — this is
    /// host time actually spent executing kernels to label training
    /// samples, so Table-IV-style cost accounting stays honest when online
    /// adaptation is collecting data.
    pub measured: f64,
    /// `true` when the decision was served from the Oracle's cache — all
    /// cost components are then zero (nothing was re-extracted or
    /// re-evaluated). Set by the session on hits; tuners constructing
    /// fresh decisions must leave it `false` ([`crate::TuneReport`]'s
    /// `cache_hit` is the authoritative flag).
    pub cache_hit: bool,
}

impl TuningCost {
    /// Total tuning-stage time (virtual-clock components plus measured
    /// adaptive-sweep seconds).
    pub fn total(&self) -> f64 {
        self.feature_extraction + self.prediction + self.profiling + self.measured
    }

    /// A zero-cost record flagged as served from cache.
    pub fn cached() -> Self {
        TuningCost { cache_hit: true, ..Default::default() }
    }
}

/// A tuner's verdict for one matrix on one engine, for one operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneDecision {
    /// The selected format.
    pub format: FormatId,
    /// The layout parameters of `format` for this matrix — the one source
    /// of a stored matrix's layout: the service converts with them (its own
    /// [`morpheus::ConvertOptions`] supply only the guards), caches them and
    /// exports them. The bundled model tuners carry
    /// [`crate::propose_params`]; run-first carries the defaults.
    pub params: morpheus::FormatParams,
    /// The operation the selection targets.
    pub op: Op,
    /// What the decision cost.
    pub cost: TuningCost,
}

/// Strategy interface: given a matrix (and its analysis) on an engine,
/// select the format the given operation should run in.
///
/// The trait is generic over the matrix scalar `V` so one tuner value
/// serves `f32` and `f64` sessions alike; the bundled tuners implement it
/// for every [`Scalar`] because format selection depends only on sparsity
/// structure, never on the stored values.
pub trait FormatTuner<V: Scalar> {
    /// Tuner name for reports.
    fn name(&self) -> &'static str;

    /// Selects a format for `op`.
    ///
    /// `a` is the machine view of `m`. **Read shapes, counts and the
    /// structure from `a`, never from `m`**; `m` says which format the
    /// features were extracted from, which is all the bundled tuners read
    /// of it (to price the extraction and, run-first, the trial
    /// conversions). The service hands every COO source over as CSR (its
    /// front door moves it before hashing), so a COO matrix is priced as
    /// read from CSR; only the reported [`TuningCost`] differs from pricing
    /// its COO form, never the format or the parameters.
    fn select(
        &self,
        m: &DynamicMatrix<V>,
        a: &MatrixAnalysis,
        engine: &VirtualEngine,
        op: Op,
    ) -> TuneDecision;

    /// `false` when [`select`](FormatTuner::select) reaches its format
    /// without pricing formats from `a` — a model over the feature vector —
    /// so the service may hand it a view assembled without the two pricing
    /// walks (BSR's block counts, HDC's remainder histogram:
    /// [`MatrixAnalysis::prices`] says what a view can price) and skip
    /// both. Such a tuner must not read either unless it is there; when it
    /// answers BSR or HDC on a view that cannot price its answer, the
    /// service takes the walks and calls `select` again — for the
    /// parameters the matrix is then converted with (BSR's block is priced
    /// from the block counts). The default, `true`, is right for any tuner
    /// that asks the engine about formats.
    fn prices_formats(&self) -> bool {
        true
    }

    /// The decision [`select`](FormatTuner::select) would take on the walked
    /// view, taken without the entry walk — when the tuner can prove it.
    /// `a` is a view of the row side alone ([`MatrixAnalysis::walked`] is
    /// `false`: its diagonal counts, block density and locality stand for
    /// nothing) and `walk` bounds the three features the walk would count.
    /// `Some` only when every matrix within the bounds gets the same format
    /// and parameters — those `select` gives on the walked view, bitwise —
    /// and the parameters read row facts only; the service then decides
    /// without walking the entries. The default, `None`, has the service
    /// walk and call `select`, as every tuner that prices formats must.
    fn select_unwalked(
        &self,
        m: &DynamicMatrix<V>,
        a: &MatrixAnalysis,
        walk: &WalkBounds,
        engine: &VirtualEngine,
        op: Op,
    ) -> Option<TuneDecision> {
        let _ = (m, a, walk, engine, op);
        None
    }
}

impl<V: Scalar, T: FormatTuner<V> + ?Sized> FormatTuner<V> for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn select(
        &self,
        m: &DynamicMatrix<V>,
        a: &MatrixAnalysis,
        engine: &VirtualEngine,
        op: Op,
    ) -> TuneDecision {
        (**self).select(m, a, engine, op)
    }

    fn prices_formats(&self) -> bool {
        (**self).prices_formats()
    }

    fn select_unwalked(
        &self,
        m: &DynamicMatrix<V>,
        a: &MatrixAnalysis,
        walk: &WalkBounds,
        engine: &VirtualEngine,
        op: Op,
    ) -> Option<TuneDecision> {
        (**self).select_unwalked(m, a, walk, engine, op)
    }
}

impl<V: Scalar, T: FormatTuner<V> + ?Sized> FormatTuner<V> for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn select(
        &self,
        m: &DynamicMatrix<V>,
        a: &MatrixAnalysis,
        engine: &VirtualEngine,
        op: Op,
    ) -> TuneDecision {
        (**self).select(m, a, engine, op)
    }

    fn prices_formats(&self) -> bool {
        (**self).prices_formats()
    }

    fn select_unwalked(
        &self,
        m: &DynamicMatrix<V>,
        a: &MatrixAnalysis,
        walk: &WalkBounds,
        engine: &VirtualEngine,
        op: Op,
    ) -> Option<TuneDecision> {
        (**self).select_unwalked(m, a, walk, engine, op)
    }
}

// ---------------------------------------------------------------------------
// Run-first
// ---------------------------------------------------------------------------

/// The run-first tuner: "records the iteration time each format takes to
/// perform N-iterations for a given operation and applies statistics to
/// determine which format was best" (§VI-A). Most accurate, most expensive —
/// it pays a conversion to every viable format plus `reps` trial executions
/// of the tuned operation each.
#[derive(Debug, Clone)]
pub struct RunFirstTuner {
    reps: usize,
}

impl RunFirstTuner {
    /// Tuner performing `reps` trial iterations per candidate format.
    pub fn new(reps: usize) -> Self {
        RunFirstTuner { reps: reps.max(1) }
    }

    /// Trial iterations per format.
    pub fn reps(&self) -> usize {
        self.reps
    }
}

impl<V: Scalar> FormatTuner<V> for RunFirstTuner {
    fn name(&self) -> &'static str {
        "run-first"
    }

    fn select(
        &self,
        m: &DynamicMatrix<V>,
        a: &MatrixAnalysis,
        engine: &VirtualEngine,
        op: Op,
    ) -> TuneDecision {
        let active = m.format_id();
        let mut best = FormatId::Csr;
        let mut best_time = f64::INFINITY;
        let mut profiling = 0.0;
        for fmt in ALL_FORMATS {
            if !engine.is_viable(fmt, a) {
                continue;
            }
            let t_convert = engine.conversion_time(active, fmt, a);
            let t_iter = engine.op_time(op, fmt, a);
            profiling += t_convert + self.reps as f64 * t_iter;
            if t_iter < best_time {
                best_time = t_iter;
                best = fmt;
            }
        }
        TuneDecision {
            format: best,
            params: morpheus::FormatParams::default(),
            op,
            cost: TuningCost { profiling, ..Default::default() },
        }
    }
}

// ---------------------------------------------------------------------------
// Learned-model tuner
// ---------------------------------------------------------------------------

/// The ML tuner of §VI-A, for every kind of [`Model`]: it extracts the
/// features of Table I, walks the model once and converts to the format
/// the model answers. A single tree "offers very fast but less accurate
/// predictions"; a forest "traverses multiple trees in the ensemble and
/// then performs a voting scheme"; a gradient-boosted ensemble (the
/// paper's "further work", §IX) argmaxes its softmax scores. The
/// prediction cost charges every node the walk visits.
#[derive(Debug, Clone)]
pub struct ModelTuner {
    model: Model,
}

/// Another name of [`ModelTuner`], kept because `RandomForestTuner::new`
/// is on the benchmark's list of the API it calls
/// (`oracle_bench/README.md`): the name goes only with a change to that
/// list.
pub type RandomForestTuner = ModelTuner;

impl ModelTuner {
    /// Wraps a fitted model of any kind, validating its shape against the
    /// feature schema.
    pub fn new(model: impl Into<Model>) -> Result<Self> {
        let model = model.into();
        let kind = model.kind().token();
        if model.n_features() != crate::NUM_FEATURES {
            return Err(OracleError::ModelMismatch(format!(
                "{kind} model expects {} features, Oracle extracts {}",
                model.n_features(),
                crate::NUM_FEATURES
            )));
        }
        if model.n_classes() > morpheus::format::FORMAT_COUNT {
            return Err(OracleError::ModelMismatch(format!(
                "{kind} model predicts over {} classes, only {} formats exist",
                model.n_classes(),
                morpheus::format::FORMAT_COUNT
            )));
        }
        Ok(ModelTuner { model })
    }

    /// The underlying model.
    pub fn model(&self) -> &Model {
        &self.model
    }
}

impl<V: Scalar> FormatTuner<V> for ModelTuner {
    fn name(&self) -> &'static str {
        match self.model.kind() {
            ModelKind::Tree => "decision-tree",
            ModelKind::Forest => "random-forest",
            ModelKind::Gbt => "gradient-boosted",
        }
    }

    fn select(
        &self,
        m: &DynamicMatrix<V>,
        a: &MatrixAnalysis,
        engine: &VirtualEngine,
        op: Op,
    ) -> TuneDecision {
        let fv = FeatureVector::from_stats(&a.stats);
        let (predicted, visited) = self.model.predict_with_path(fv.as_slice());
        ml_decision(predicted, visited, m, a, engine, op)
    }

    fn prices_formats(&self) -> bool {
        false
    }

    /// The model over the box of feature vectors the walk bounds allow: a
    /// decision when the box settles the model's answer
    /// ([`Model::predict_over`]) on COO, CSR, ELL, HYB or BELL — the formats
    /// whose parameters read row facts only. The prediction cost charges
    /// the nodes the box walk examined.
    fn select_unwalked(
        &self,
        m: &DynamicMatrix<V>,
        a: &MatrixAnalysis,
        walk: &WalkBounds,
        engine: &VirtualEngine,
        op: Op,
    ) -> Option<TuneDecision> {
        let [lo, hi] = FeatureVector::bounded(&a.stats, walk);
        let (settled, examined) = self.model.predict_over(lo.as_slice(), hi.as_slice());
        let predicted = settled?;
        let format = FormatId::from_index(predicted).unwrap_or(FormatId::Csr);
        row_parameterized(format).then(|| ml_decision(predicted, examined, m, a, engine, op))
    }
}

/// `true` for the formats whose parameters and conversion read row facts
/// only — what a decision taken without the entry walk may name.
pub(crate) fn row_parameterized(format: FormatId) -> bool {
    matches!(format, FormatId::Coo | FormatId::Csr | FormatId::Ell | FormatId::Hyb | FormatId::Bell)
}

fn ml_decision<V: Scalar>(
    predicted: usize,
    nodes_visited: usize,
    m: &DynamicMatrix<V>,
    a: &MatrixAnalysis,
    engine: &VirtualEngine,
    op: Op,
) -> TuneDecision {
    let format = FormatId::from_index(predicted).unwrap_or(FormatId::Csr);
    // Parameters are priced from the view (BSR's from the block counts): on
    // one that cannot price the answer the defaults stand in until the
    // service, seeing it decided, has taken the pricing walks and selects
    // again.
    let params = if a.prices(format) {
        crate::params::propose_params(format, a)
    } else {
        morpheus::FormatParams::default()
    };
    TuneDecision {
        format,
        params,
        op,
        cost: TuningCost {
            feature_extraction: engine.feature_extraction_time(m.format_id(), a),
            prediction: engine.prediction_time(nodes_visited),
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus::format::FORMAT_COUNT;
    use morpheus::CooMatrix;
    use morpheus_machine::{analyze, systems, Backend};
    use morpheus_ml::{Dataset, ForestParams, TreeParams};

    fn tridiag(n: usize) -> DynamicMatrix<f64> {
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for i in 0..n {
            for d in [-1isize, 0, 1] {
                let j = i as isize + d;
                if j >= 0 && (j as usize) < n {
                    rows.push(i);
                    cols.push(j as usize);
                }
            }
        }
        let vals = vec![1.0; rows.len()];
        DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
    }

    /// A dataset whose rule is trivially learnable: wide rows -> ELL (3),
    /// otherwise CSR (1). Ten features, six classes.
    fn toy_dataset() -> Dataset {
        let mut ds = Dataset::empty(crate::NUM_FEATURES, FORMAT_COUNT, vec![]).unwrap();
        for i in 0..120 {
            let wide = i % 2 == 0;
            let max_nnz = if wide { 50.0 } else { 3.0 };
            let row = [1000.0, 1000.0, 5000.0, 5.0, 0.005, max_nnz, 1.0, 2.0, 30.0, 0.0, 0.2, 1.1];
            ds.push(&row, if wide { 3 } else { 1 }).unwrap();
        }
        ds
    }

    #[test]
    fn run_first_matches_engine_profile() {
        let m = tridiag(3000);
        let a = analyze(&m);
        let engine = VirtualEngine::new(systems::cirrus(), Backend::Serial);
        let tuner = RunFirstTuner::new(5);
        let decision = tuner.select(&m, &a, &engine, Op::Spmv);
        assert_eq!(decision.format, engine.profile(&a).optimal);
        assert_eq!(decision.op, Op::Spmv);
        assert!(decision.cost.profiling > 0.0);
        assert_eq!(decision.cost.feature_extraction, 0.0);
        assert!(!decision.cost.cache_hit);
    }

    #[test]
    fn run_first_cost_grows_with_reps() {
        let m = tridiag(1000);
        let a = analyze(&m);
        let engine = VirtualEngine::new(systems::xci(), Backend::Serial);
        let c1 = RunFirstTuner::new(1).select(&m, &a, &engine, Op::Spmv).cost.total();
        let c100 = RunFirstTuner::new(100).select(&m, &a, &engine, Op::Spmv).cost.total();
        assert!(c100 > 5.0 * c1);
    }

    #[test]
    fn run_first_is_operation_aware() {
        let m = tridiag(2000);
        let a = analyze(&m);
        let engine = VirtualEngine::new(systems::a64fx(), Backend::Serial);
        let tuner = RunFirstTuner::new(3);
        let spmm = tuner.select(&m, &a, &engine, Op::Spmm { k: 32 });
        assert_eq!(spmm.op, Op::Spmm { k: 32 });
        assert_eq!(spmm.format, engine.profile_op(&a, Op::Spmm { k: 32 }).optimal);
        // Trial executions of the heavier operation cost more.
        let spmv = tuner.select(&m, &a, &engine, Op::Spmv);
        assert!(spmm.cost.profiling > spmv.cost.profiling);
    }

    #[test]
    fn run_first_selects_for_f32_matrices_too() {
        let m64 = tridiag(1500);
        let coo = m64.to_coo();
        let vals32: Vec<f32> = coo.values().iter().map(|&v| v as f32).collect();
        let m32: DynamicMatrix<f32> = DynamicMatrix::from(
            CooMatrix::from_triplets(coo.nrows(), coo.ncols(), coo.row_indices(), coo.col_indices(), &vals32)
                .unwrap(),
        );
        let engine = VirtualEngine::new(systems::cirrus(), Backend::Serial);
        let tuner = RunFirstTuner::new(2);
        let d64 = tuner.select(&m64, &analyze(&m64), &engine, Op::Spmv);
        let d32 = tuner.select(&m32, &analyze(&m32), &engine, Op::Spmv);
        // Identical structure: identical selection, whatever the scalar.
        assert_eq!(d64.format, d32.format);
    }

    #[test]
    fn tree_tuner_applies_learned_rule() {
        let ds = toy_dataset();
        let tree = morpheus_ml::DecisionTree::fit(&ds, &TreeParams::default()).unwrap();
        let tuner = ModelTuner::new(tree).unwrap();
        assert_eq!(FormatTuner::<f64>::name(&tuner), "decision-tree");
        let engine = VirtualEngine::new(systems::cirrus(), Backend::Serial);

        // Tridiagonal: max nnz/row = 3 -> the "narrow" rule -> CSR.
        let m = tridiag(1000);
        let a = analyze(&m);
        let d = tuner.select(&m, &a, &engine, Op::Spmv);
        assert_eq!(d.format, FormatId::Csr);
        assert!(d.cost.feature_extraction > 0.0);
        assert!(d.cost.prediction > 0.0);
        assert_eq!(d.cost.profiling, 0.0);
    }

    #[test]
    fn forest_tuner_votes() {
        let ds = toy_dataset();
        let forest =
            morpheus_ml::RandomForest::fit(&ds, &ForestParams { n_estimators: 9, ..Default::default() })
                .unwrap();
        let tuner = ModelTuner::new(forest).unwrap();
        assert_eq!(FormatTuner::<f64>::name(&tuner), "random-forest");
        let engine = VirtualEngine::new(systems::cirrus(), Backend::Serial);
        let m = tridiag(500);
        let a = analyze(&m);
        let d = tuner.select(&m, &a, &engine, Op::Spmv);
        assert_eq!(d.format, FormatId::Csr);
        // Forest prediction visits more nodes than a single tree would.
        assert!(d.cost.prediction > engine.prediction_time(1));
    }

    #[test]
    fn gbt_tuner_applies_learned_rule_and_charges_prediction() {
        let ds = toy_dataset();
        let model = morpheus_ml::GradientBoostedTrees::fit(&ds, &morpheus_ml::GbtParams::default()).unwrap();
        let tuner = ModelTuner::new(model).unwrap();
        let engine = VirtualEngine::new(systems::cirrus(), Backend::Serial);
        let m = tridiag(900);
        let a = analyze(&m);
        let d = tuner.select(&m, &a, &engine, Op::Spmv);
        // Tridiagonal rows are narrow: the toy rule maps them to CSR.
        assert_eq!(d.format, FormatId::Csr);
        assert!(d.cost.feature_extraction > 0.0);
        assert!(d.cost.prediction > 0.0);
        assert_eq!(d.cost.measured, 0.0);
        assert_eq!(FormatTuner::<f64>::name(&tuner), "gradient-boosted");
    }

    /// A decision is read off the view: no bundled tuner may read more of
    /// `m` than its format, and that only for the cost — which is what lets
    /// the front door hand a COO source over as CSR.
    #[test]
    fn bundled_tuners_read_only_the_format_of_the_storage() {
        let ds = toy_dataset();
        let tree = morpheus_ml::DecisionTree::fit(&ds, &TreeParams::default()).unwrap();
        let forest =
            morpheus_ml::RandomForest::fit(&ds, &ForestParams { n_estimators: 5, ..Default::default() })
                .unwrap();
        let gbt = morpheus_ml::GradientBoostedTrees::fit(&ds, &morpheus_ml::GbtParams::default()).unwrap();
        let tuners: Vec<Box<dyn FormatTuner<f64>>> = vec![
            Box::new(RunFirstTuner::new(3)),
            Box::new(ModelTuner::new(tree).unwrap()),
            Box::new(ModelTuner::new(forest).unwrap()),
            Box::new(ModelTuner::new(gbt).unwrap()),
        ];
        let engine = VirtualEngine::new(systems::cirrus(), Backend::Serial);
        let shard = tridiag(600);
        let a = analyze(&shard);
        // Another shape, another entry count, the same format.
        let source = tridiag(5_000);
        let mut as_csr = tridiag(40);
        as_csr.convert_to(FormatId::Csr, &morpheus::ConvertOptions::default()).unwrap();
        for tuner in &tuners {
            let own = tuner.select(&shard, &a, &engine, Op::Spmv);
            assert_eq!(tuner.select(&source, &a, &engine, Op::Spmv), own, "{}", tuner.name());
            let csr = tuner.select(&as_csr, &a, &engine, Op::Spmv);
            assert_eq!((csr.format, csr.params), (own.format, own.params), "{}", tuner.name());
        }
    }

    #[test]
    fn measured_seconds_count_toward_total() {
        let cost = TuningCost { measured: 0.25, profiling: 0.5, ..Default::default() };
        assert_eq!(cost.total(), 0.75);
    }

    #[test]
    fn model_shape_validation() {
        // Wrong feature count.
        let mut ds = Dataset::empty(3, 6, vec![]).unwrap();
        for i in 0..10 {
            ds.push(&[i as f64, 0.0, 1.0], i % 2).unwrap();
        }
        let tree = morpheus_ml::DecisionTree::fit(&ds, &TreeParams::default()).unwrap();
        assert!(matches!(ModelTuner::new(tree), Err(OracleError::ModelMismatch(_))));
    }

    #[test]
    fn loader_rejects_wrong_kind() {
        let ds = toy_dataset();
        let forest =
            morpheus_ml::RandomForest::fit(&ds, &ForestParams { n_estimators: 3, ..Default::default() })
                .unwrap();
        let mut buf = Vec::new();
        morpheus_ml::serialize::save_model(&mut buf, &Model::Forest(forest)).unwrap();
        // The file's kind line decides the model a tuner walks.
        let loaded = morpheus_ml::serialize::load_model(std::io::Cursor::new(&buf)).unwrap();
        let tuner = ModelTuner::new(loaded).unwrap();
        assert_eq!(tuner.model().kind(), ModelKind::Forest);
        assert_eq!(FormatTuner::<f64>::name(&tuner), "random-forest");
        // A three-tree forest under a `kind tree` line is no tree.
        let relabeled = String::from_utf8(buf).unwrap().replace("kind forest", "kind tree");
        assert!(morpheus_ml::serialize::load_model(relabeled.as_bytes()).is_err());
    }

    #[test]
    fn trait_objects_and_boxes_delegate() {
        let m = tridiag(800);
        let a = analyze(&m);
        let engine = VirtualEngine::new(systems::cirrus(), Backend::Serial);
        let concrete = RunFirstTuner::new(2);
        let direct = concrete.select(&m, &a, &engine, Op::Spmv);

        let by_ref: &dyn FormatTuner<f64> = &concrete;
        assert_eq!(by_ref.select(&m, &a, &engine, Op::Spmv), direct);
        assert_eq!(FormatTuner::<f64>::name(&by_ref), "run-first");

        let boxed: Box<dyn FormatTuner<f64>> = Box::new(RunFirstTuner::new(2));
        assert_eq!(boxed.select(&m, &a, &engine, Op::Spmv), direct);
    }
}
