//! Hot-swappable model retraining: fit on collected samples off the hot
//! path, validate against the incumbent on a holdout split, swap
//! atomically into the live service.
//!
//! Two pieces:
//!
//! * [`AdaptiveTuner`] — a [`FormatTuner`] whose learned model lives
//!   behind an epoch pointer (`RwLock<Arc<_>>`): every selection reads one
//!   consistent snapshot (never a torn mix of two models), and installing
//!   a new model is one pointer swap. With no model installed — or after a
//!   drift [fallback](RetrainOutcome::FellBack) — selections come from the
//!   wrapped analytical fallback tuner (typically a
//!   [`RunFirstTuner`](crate::RunFirstTuner) over the `VirtualEngine`
//!   cost model).
//! * [`AdaptiveEngine`] — the retraining loop: drains the service's
//!   [`SampleCollector`](super::SampleCollector) into a labeled dataset,
//!   fits fresh [`RandomForest`] and [`GradientBoostedTrees`] candidates,
//!   picks between them by cross-validation ([`morpheus_ml::cv`]),
//!   compares the winner to the incumbent on a common holdout split, and
//!   only then swaps — persisting winners through
//!   [`ModelDatabase`](crate::ModelDatabase) and falling back to the
//!   analytical tuner when nothing meets the accuracy floor (the drift
//!   guard).
//!
//! Retraining is deterministic: a seeded collector + seeded fit over the
//! same observations reproduces the same serialized model bit for bit.

use super::collector::SweepReport;
use crate::features::FeatureVector;
use crate::model_db::ModelDatabase;
use crate::serve::OracleService;
use crate::tuner::{ml_decision, FormatTuner, TuneDecision};
use crate::{OracleError, Result};
use morpheus::{DynamicMatrix, Scalar};
use morpheus_machine::{MatrixAnalysis, Op, VirtualEngine};
use morpheus_ml::metrics::accuracy;
use morpheus_ml::{cv, Dataset, ForestParams, GbtParams, GradientBoostedTrees, RandomForest};
use parking_lot::RwLock;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which model family a retrain produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnedKind {
    /// [`RandomForest`].
    Forest,
    /// [`GradientBoostedTrees`].
    Gbt,
}

/// A fitted model of either family.
#[derive(Debug, Clone)]
pub enum LearnedModel {
    /// Bagged ensemble with majority voting.
    Forest(RandomForest),
    /// Boosted ensemble with softmax scoring.
    Gbt(GradientBoostedTrees),
}

impl LearnedModel {
    /// The family.
    pub fn kind(&self) -> LearnedKind {
        match self {
            LearnedModel::Forest(_) => LearnedKind::Forest,
            LearnedModel::Gbt(_) => LearnedKind::Gbt,
        }
    }

    /// Predicted class (format ID) for one feature row.
    pub fn predict(&self, x: &[f64]) -> usize {
        match self {
            LearnedModel::Forest(m) => m.predict(x),
            LearnedModel::Gbt(m) => m.predict(x),
        }
    }

    /// Nodes visited for one prediction (prediction-cost accounting).
    pub fn decision_path_len(&self, x: &[f64]) -> usize {
        match self {
            LearnedModel::Forest(m) => m.decision_path_len(x),
            LearnedModel::Gbt(m) => m.decision_path_len(x),
        }
    }

    /// Predicted class and nodes visited, from one walk of the model.
    pub fn predict_with_path(&self, x: &[f64]) -> (usize, usize) {
        match self {
            LearnedModel::Forest(m) => m.predict_with_path(x),
            LearnedModel::Gbt(m) => m.predict_with_path(x),
        }
    }

    /// Serializes the model in the Model-Database text format.
    pub fn save<W: std::io::Write>(&self, w: &mut W) -> Result<()> {
        match self {
            LearnedModel::Forest(m) => morpheus_ml::serialize::save_forest(w, m)?,
            LearnedModel::Gbt(m) => morpheus_ml::serialize::save_gbt(w, m)?,
        }
        Ok(())
    }

    fn accuracy_on(&self, ds: &Dataset) -> f64 {
        let preds: Vec<usize> = (0..ds.len()).map(|i| self.predict(ds.row(i))).collect();
        accuracy(ds.targets(), &preds)
    }
}

/// One installed model generation: everything a selection needs, bundled
/// so concurrent tuners always see a consistent whole.
#[derive(Debug)]
pub struct ModelEpoch {
    /// The learned model.
    pub model: LearnedModel,
    /// The operation it was trained for (selections for other operations
    /// use the fallback tuner).
    pub op: Op,
    /// Accuracy on the holdout split at install time.
    pub holdout_accuracy: f64,
}

#[derive(Debug)]
struct TunerState {
    epoch: u64,
    learned: Option<Arc<ModelEpoch>>,
}

/// A [`FormatTuner`] whose model can be hot-swapped while any number of
/// threads are selecting through it.
///
/// The swap is an epoch-pointer replacement: `select` clones the current
/// `Arc` snapshot under a brief read lock and predicts from that snapshot,
/// so a decision is always made by *exactly one* model generation — the
/// old or the new, never a torn mix. With no learned model (fresh service,
/// or after a drift fallback), decisions come from the wrapped analytical
/// `fallback` tuner.
///
/// Swapping does **not** invalidate the owning service's decision cache
/// by itself; [`AdaptiveEngine`] clears it after every install or
/// fallback. The clear bumps the cache's generation counter, and the
/// service's in-flight tuning paths insert decisions *generation-gated* —
/// a decision computed by the just-swapped-out model that races the clear
/// is dropped rather than resurrected into the cache.
#[derive(Debug)]
pub struct AdaptiveTuner<F> {
    fallback: F,
    state: RwLock<Arc<TunerState>>,
}

impl<F> AdaptiveTuner<F> {
    /// Wraps an analytical fallback tuner; no learned model installed yet.
    pub fn new(fallback: F) -> Self {
        AdaptiveTuner { fallback, state: RwLock::new(Arc::new(TunerState { epoch: 0, learned: None })) }
    }

    /// The analytical fallback tuner.
    pub fn fallback(&self) -> &F {
        &self.fallback
    }

    /// Monotonic generation counter: bumped by every
    /// [`install`](Self::install) and [`clear_model`](Self::clear_model).
    pub fn epoch(&self) -> u64 {
        self.state.read().epoch
    }

    /// The currently installed model generation, if any.
    pub fn current(&self) -> Option<Arc<ModelEpoch>> {
        self.state.read().learned.clone()
    }

    /// Atomically installs a new model generation; returns the new epoch.
    pub fn install(&self, epoch: ModelEpoch) -> u64 {
        let mut state = self.state.write();
        let next = state.epoch + 1;
        *state = Arc::new(TunerState { epoch: next, learned: Some(Arc::new(epoch)) });
        next
    }

    /// Atomically removes the learned model — subsequent selections use
    /// the analytical fallback. Returns the new epoch.
    pub fn clear_model(&self) -> u64 {
        let mut state = self.state.write();
        let next = state.epoch + 1;
        *state = Arc::new(TunerState { epoch: next, learned: None });
        next
    }
}

impl<V: Scalar, F: FormatTuner<V>> FormatTuner<V> for AdaptiveTuner<F> {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn select(
        &self,
        m: &DynamicMatrix<V>,
        a: &MatrixAnalysis,
        engine: &VirtualEngine,
        op: Op,
    ) -> TuneDecision {
        // One consistent snapshot; the lock is held only for the clone.
        let state: Arc<TunerState> = self.state.read().clone();
        match &state.learned {
            Some(epoch) if epoch.op == op => {
                let fv = FeatureVector::from_stats(&a.stats);
                let (predicted, visited) = epoch.model.predict_with_path(fv.as_slice());
                ml_decision(predicted, visited, m, a, engine, op)
            }
            _ => self.fallback.select(m, a, engine, op),
        }
    }

    fn prices_formats(&self) -> bool {
        self.fallback.prices_formats()
    }
}

/// Policy of an [`AdaptiveEngine`].
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// The operation to adapt for (training samples of other operations
    /// are ignored; selections for other operations use the fallback).
    pub op: Op,
    /// Fraction of collected samples held out for validation.
    pub holdout_fraction: f64,
    /// Seed for the holdout split, cross-validation folds and forest
    /// bootstrap — the determinism root of the whole retrain.
    pub seed: u64,
    /// Fewest labeled samples before a retrain is attempted.
    pub min_samples: usize,
    /// Accuracy floor: when neither the fresh candidate nor the incumbent
    /// reaches it on the holdout, the learned model is dropped and the
    /// analytical fallback serves — the drift guard.
    pub accuracy_floor: f64,
    /// Random-forest candidate hyperparameters (`seed` here is
    /// overridden by [`AdaptiveConfig::seed`]).
    pub forest: ForestParams,
    /// Gradient-boosted candidate hyperparameters.
    pub gbt: GbtParams,
    /// Timed executions per format in a [`AdaptiveEngine::sweep`].
    pub sweep_reps: usize,
    /// Offline training corpus merged into every collected dataset (the
    /// warm-start analogue of the decision import: ship the offline
    /// dataset, let online samples refine it).
    pub base_dataset: Option<Dataset>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            op: Op::Spmv,
            holdout_fraction: 0.25,
            seed: 0x5eed,
            min_samples: 8,
            accuracy_floor: 0.5,
            forest: ForestParams { n_estimators: 20, ..Default::default() },
            gbt: GbtParams { n_rounds: 20, ..Default::default() },
            sweep_reps: 3,
            base_dataset: None,
        }
    }
}

/// What one adaptation round decided.
#[derive(Debug, Clone, PartialEq)]
pub enum RetrainOutcome {
    /// A fresh candidate won and was installed at this epoch.
    Swapped {
        /// The tuner epoch after the install.
        epoch: u64,
    },
    /// The incumbent (learned or analytical) was kept.
    Retained,
    /// Drift: nothing met the accuracy floor; the learned model was
    /// removed and the analytical fallback serves from this epoch on.
    FellBack {
        /// The tuner epoch after the removal.
        epoch: u64,
    },
    /// Not enough data to retrain.
    Skipped {
        /// Why the round did nothing.
        reason: String,
    },
}

/// Report of one [`AdaptiveEngine::round`].
#[derive(Debug, Clone)]
pub struct RetrainReport {
    /// Labeled samples the round saw (collected + base dataset).
    pub samples: usize,
    /// Training-split size.
    pub train_len: usize,
    /// Holdout-split size.
    pub holdout_len: usize,
    /// Family of the winning fresh candidate (even when not installed).
    pub candidate: Option<LearnedKind>,
    /// Holdout accuracy of the fresh candidate.
    pub candidate_accuracy: Option<f64>,
    /// Holdout accuracy of the incumbent learned model (None when the
    /// analytical fallback is serving).
    pub incumbent_accuracy: Option<f64>,
    /// The decision.
    pub outcome: RetrainOutcome,
    /// Total sweep seconds charged so far (see
    /// [`TuningCost::measured`](crate::TuningCost)).
    pub measured_seconds: f64,
    /// Where the installed model was persisted, when a database is
    /// configured and the round swapped.
    pub persisted: Option<PathBuf>,
}

/// The adaptation loop around one [`OracleService`]. See the
/// [module docs](self).
#[derive(Debug)]
pub struct AdaptiveEngine<F> {
    service: Arc<OracleService<AdaptiveTuner<F>>>,
    config: AdaptiveConfig,
    db: Option<ModelDatabase>,
    rounds: AtomicU64,
}

impl<F> AdaptiveEngine<F> {
    /// Wraps a service built with an [`AdaptiveTuner`] and a
    /// [`SampleCollector`](super::SampleCollector) (see
    /// [`crate::OracleBuilder::collector`]).
    ///
    /// # Errors
    /// [`OracleError::InvalidConfig`] when the service has no collector —
    /// there would be nothing to learn from.
    pub fn new(service: Arc<OracleService<AdaptiveTuner<F>>>, config: AdaptiveConfig) -> Result<Self> {
        if service.collector().is_none() {
            return Err(OracleError::InvalidConfig(
                "AdaptiveEngine requires a service built with .collector(...)".into(),
            ));
        }
        Ok(AdaptiveEngine { service, config, db: None, rounds: AtomicU64::new(0) })
    }

    /// Persists every installed model to `db` (keyed by the service
    /// engine's system and backend, kind per the winning family).
    pub fn persist_to(mut self, db: ModelDatabase) -> Self {
        self.db = Some(db);
        self
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<OracleService<AdaptiveTuner<F>>> {
        &self.service
    }

    /// The adaptation policy.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Completed adaptation rounds (including skipped ones).
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Runs a trial sweep of `m` (every viable format, really executed and
    /// timed) so the collector can label this structure even though
    /// serving traffic only ever exercises the tuned format. Off-hot-path;
    /// see [`SampleCollector::sweep`](super::SampleCollector::sweep).
    pub fn sweep<V: Scalar>(&self, m: &DynamicMatrix<V>) -> Result<SweepReport> {
        let collector = self.service.collector().expect("checked at construction");
        collector.sweep(
            self.service.engine(),
            self.service.convert_options(),
            m,
            self.config.op,
            self.config.sweep_reps,
        )
    }

    /// One adaptation round: collect → fit → validate → swap/retain/fall
    /// back. Never blocks serving traffic — the service keeps answering
    /// from the current model until the atomic swap.
    pub fn round(&self) -> Result<RetrainReport> {
        let collector = self.service.collector().expect("checked at construction");
        let collected = collector.build_dataset(self.config.op)?;
        let dataset = match &self.config.base_dataset {
            Some(base) => {
                let mut ds = base.clone();
                ds.merge(&collected.dataset)?;
                ds
            }
            None => collected.dataset,
        };
        self.round_with(dataset)
    }

    /// [`AdaptiveEngine::round`] on an explicit dataset — the entry point
    /// for tests and for forced-drift scenarios (feed observations that
    /// contradict the incumbent and watch the fallback trigger).
    pub fn round_with(&self, dataset: Dataset) -> Result<RetrainReport> {
        self.rounds.fetch_add(1, Ordering::Relaxed);
        let collector = self.service.collector().expect("checked at construction");
        let measured_seconds = collector.measured_seconds();
        let skip = |reason: String, samples: usize| RetrainReport {
            samples,
            train_len: 0,
            holdout_len: 0,
            candidate: None,
            candidate_accuracy: None,
            incumbent_accuracy: None,
            outcome: RetrainOutcome::Skipped { reason },
            measured_seconds,
            persisted: None,
        };
        if dataset.len() < self.config.min_samples {
            return Ok(skip(
                format!("{} samples < min_samples {}", dataset.len(), self.config.min_samples),
                dataset.len(),
            ));
        }
        let (train, holdout) = dataset.stratified_split(self.config.holdout_fraction, self.config.seed);
        if holdout.is_empty() || train.is_empty() {
            return Ok(skip("holdout split left an empty side".into(), dataset.len()));
        }

        // Candidate selection between the two families never touches the
        // holdout: 3-fold CV on the training split when it is big enough,
        // training accuracy otherwise (letting a 2-sample holdout both
        // pick and grade the winner would inflate candidate_accuracy by
        // selection bias). The holdout judges only the already-chosen
        // candidate against the incumbent.
        let fit_forest = |ds: &Dataset| {
            RandomForest::fit(ds, &ForestParams { seed: self.config.seed, ..self.config.forest.clone() })
        };
        let fit_gbt = |ds: &Dataset| GradientBoostedTrees::fit(ds, &self.config.gbt);
        let candidate = if train.len() >= 9 {
            let forest_score = cv::cross_val_score(&train, 3, self.config.seed, |tr, val| {
                fit_forest(tr).map(|m| LearnedModel::Forest(m).accuracy_on(val)).unwrap_or(0.0)
            });
            let gbt_score = cv::cross_val_score(&train, 3, self.config.seed, |tr, val| {
                fit_gbt(tr).map(|m| LearnedModel::Gbt(m).accuracy_on(val)).unwrap_or(0.0)
            });
            if gbt_score > forest_score {
                LearnedModel::Gbt(fit_gbt(&train)?)
            } else {
                LearnedModel::Forest(fit_forest(&train)?)
            }
        } else {
            let forest = LearnedModel::Forest(fit_forest(&train)?);
            let gbt = LearnedModel::Gbt(fit_gbt(&train)?);
            if gbt.accuracy_on(&train) > forest.accuracy_on(&train) {
                gbt
            } else {
                forest
            }
        };
        let candidate_kind = candidate.kind();
        let candidate_accuracy = candidate.accuracy_on(&holdout);

        let tuner = self.service.tuner();
        let incumbent = tuner.current().filter(|e| e.op == self.config.op);
        let incumbent_accuracy = incumbent.as_ref().map(|e| e.model.accuracy_on(&holdout));

        let floor = self.config.accuracy_floor;
        let (outcome, persisted) = if candidate_accuracy >= floor
            && incumbent_accuracy.is_none_or(|inc| candidate_accuracy >= inc)
        {
            let persisted = match &self.db {
                Some(db) => Some(self.persist(db, &candidate)?),
                None => None,
            };
            let epoch = tuner.install(ModelEpoch {
                model: candidate,
                op: self.config.op,
                holdout_accuracy: candidate_accuracy,
            });
            // Decisions made by the previous model must not outlive it.
            self.service.clear_cache();
            (RetrainOutcome::Swapped { epoch }, persisted)
        } else if incumbent_accuracy.is_some_and(|inc| inc >= floor) || incumbent.is_none() {
            // Either the incumbent still clears the floor, or the
            // analytical fallback is already serving and the candidate
            // is not good enough to replace it.
            (RetrainOutcome::Retained, None)
        } else {
            // Drift: a learned model is serving, the fresh data says it is
            // below the floor, and retraining could not produce anything
            // better. Hand selection back to the analytical tuner — no
            // restart, just an epoch bump.
            let epoch = tuner.clear_model();
            self.service.clear_cache();
            (RetrainOutcome::FellBack { epoch }, None)
        };

        Ok(RetrainReport {
            samples: dataset.len(),
            train_len: train.len(),
            holdout_len: holdout.len(),
            candidate: Some(candidate_kind),
            candidate_accuracy: Some(candidate_accuracy),
            incumbent_accuracy,
            outcome,
            measured_seconds,
            persisted,
        })
    }

    fn persist(&self, db: &ModelDatabase, model: &LearnedModel) -> Result<PathBuf> {
        let system = self.service.engine().system().name;
        let backend = self.service.engine().backend();
        match model {
            LearnedModel::Forest(m) => db.save_forest(system, backend, m),
            LearnedModel::Gbt(m) => db.save_gbt(system, backend, m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::RunFirstTuner;
    use morpheus::format::FormatId;

    fn dataset(rule_flipped: bool, n: usize) -> Dataset {
        // Wide rows -> ELL, narrow -> CSR (or flipped, to simulate drift).
        let mut ds = Dataset::empty(crate::NUM_FEATURES, morpheus::format::FORMAT_COUNT, vec![]).unwrap();
        for i in 0..n {
            let wide = i % 2 == 0;
            let max_nnz = if wide { 60.0 } else { 3.0 };
            let row = [800.0, 800.0, 4000.0, 5.0, 0.006, max_nnz, 1.0, 2.0, 25.0, 0.0, 0.2, 1.1];
            let label = if wide != rule_flipped { FormatId::Ell } else { FormatId::Csr };
            ds.push(&row, label.index()).unwrap();
        }
        ds
    }

    fn toy_forest(ds: &Dataset) -> RandomForest {
        RandomForest::fit(ds, &ForestParams { n_estimators: 5, ..Default::default() }).unwrap()
    }

    #[test]
    fn tuner_swaps_and_clears_with_epoch_bumps() {
        let tuner = AdaptiveTuner::new(RunFirstTuner::new(1));
        assert_eq!(tuner.epoch(), 0);
        assert!(tuner.current().is_none());
        let ds = dataset(false, 40);
        let e1 = tuner.install(ModelEpoch {
            model: LearnedModel::Forest(toy_forest(&ds)),
            op: Op::Spmv,
            holdout_accuracy: 1.0,
        });
        assert_eq!(e1, 1);
        assert_eq!(tuner.current().unwrap().holdout_accuracy, 1.0);
        let e2 = tuner.clear_model();
        assert_eq!(e2, 2);
        assert!(tuner.current().is_none());
        assert_eq!(FormatTuner::<f64>::name(&tuner), "adaptive");
    }

    #[test]
    fn learned_model_save_dispatches_by_kind() {
        let ds = dataset(false, 30);
        let forest = LearnedModel::Forest(toy_forest(&ds));
        let gbt = LearnedModel::Gbt(
            GradientBoostedTrees::fit(&ds, &GbtParams { n_rounds: 2, ..Default::default() }).unwrap(),
        );
        assert_eq!(forest.kind(), LearnedKind::Forest);
        assert_eq!(gbt.kind(), LearnedKind::Gbt);
        let mut f_buf = Vec::new();
        forest.save(&mut f_buf).unwrap();
        assert!(String::from_utf8(f_buf).unwrap().contains("kind forest"));
        let mut g_buf = Vec::new();
        gbt.save(&mut g_buf).unwrap();
        assert!(String::from_utf8(g_buf).unwrap().contains("kind gbt"));
        assert!(forest.decision_path_len(ds.row(0)) >= 1);
    }
}
