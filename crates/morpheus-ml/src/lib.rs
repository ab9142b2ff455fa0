//! From-scratch machine-learning stack for format selection (§V).
//!
//! The paper trains scikit-learn decision trees and random forests; this
//! crate re-implements the pieces the pipeline needs, natively:
//!
//! * [`DecisionTree`] — CART multi-class classifier (gini/entropy, depth,
//!   leaf-size and feature-subsampling controls);
//! * [`RandomForest`] — bootstrap-aggregated trees with majority voting
//!   (§VI-A) and parallel fitting;
//! * [`GradientBoostedTrees`] — the paper's "further work" extension (§IX);
//! * [`cv`] — stratified k-fold cross-validation (§VII-D uses 5-fold);
//! * [`grid`] — exhaustive grid search over the Table III hyperparameter
//!   space;
//! * [`metrics`] — accuracy and *balanced accuracy*, the metric the paper
//!   argues is the honest one under class imbalance (§VII-B);
//! * [`Model`] — one fitted model of any of the three kinds, the type a
//!   model file holds and a tuner walks;
//! * [`serialize`] — the versioned text model format the Oracle tuners load
//!   at runtime ("extract the ML model in a file", §III-A).
//!
//! Determinism: every stochastic choice (bootstrap, feature subsets, fold
//! assignment) derives from caller-provided seeds, so the full training
//! pipeline is reproducible.

pub mod cv;
pub mod dataset;
pub mod forest;
pub mod gbt;
pub mod grid;
pub mod metrics;
mod model;
pub mod serialize;
pub mod tree;

pub use dataset::Dataset;
pub use forest::{ForestParams, RandomForest};
pub use gbt::{GbtParams, GradientBoostedTrees};
pub use grid::{ForestGrid, GridSearchOutcome, Scoring, TreeGrid};
pub use model::{Model, ModelKind};
pub use tree::{Criterion, DecisionTree, TreeParams};

/// Errors produced by model training, evaluation and (de)serialisation.
#[derive(Debug)]
pub enum MlError {
    /// Dataset shape or content invalid for the requested operation.
    InvalidData(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Model file parse failure.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description.
        msg: String,
    },
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::InvalidData(m) => write!(f, "invalid data: {m}"),
            MlError::Io(e) => write!(f, "i/o error: {e}"),
            MlError::Parse { line, msg } => write!(f, "model parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for MlError {}

impl From<std::io::Error> for MlError {
    fn from(e: std::io::Error) -> Self {
        MlError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MlError>;
