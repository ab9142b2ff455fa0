//! Morpheus-Oracle: a lightweight auto-tuner for automatic sparse matrix
//! storage format selection — the paper's primary contribution (§VI).
//!
//! Oracle complements the dynamic format-switching of the `morpheus` crate
//! by automating the *choice* of format for a sparse operation on a given
//! target (system, backend). The public API is the [`Oracle`] **session
//! facade**: one session owns the execution engine, a tuning strategy, the
//! conversion policy and an LRU decision cache, and serves a stream of
//! tuning requests — the shape of a production workload, where the cost of
//! a prediction must amortise across many repeated executions (§VII-E).
//!
//! Following the paper's design, "containers are separated from the
//! algorithms": tuners encapsulate selection strategy and implement
//! [`FormatTuner`] for every matrix scalar (`f32` and `f64`), since format
//! selection depends only on sparsity structure:
//!
//! * [`RunFirstTuner`] — converts to every viable format and times the
//!   actual operation: most accurate, most expensive;
//! * [`DecisionTreeTuner`] — extracts the ten features of Table I and
//!   traverses a single tree: cheapest, least accurate;
//! * [`RandomForestTuner`] — traverses an ensemble and majority-votes:
//!   the paper's recommended operating point.
//!
//! Sessions are *operation-aware*: [`Oracle::tune`] targets SpMV,
//! [`Oracle::tune_and_spmm`] targets the blocked product, and
//! [`Oracle::tune_for`] takes any [`Op`] — the engine's cost model ranks
//! formats differently per operation, and cached decisions are keyed by it.
//!
//! Sessions are also *executors*: `tune_and_spmv` / `tune_and_spmm` run the
//! operation on the backend matching the engine, and threaded execution
//! goes through a cached per-structure [`morpheus::ExecPlan`] — thread
//! schedules are computed once per matrix structure and replayed on every
//! later call ([`TuneReport::plan`] reports `Built` vs `Reused`).
//!
//! For production serving, the session machinery is also available as the
//! `Send + Sync` [`OracleService`] (module [`serve`]): sharded lock-striped
//! caches shared by any number of client threads, plus a registered-matrix
//! path ([`OracleService::register`] → [`MatrixHandle`]) that executes with
//! zero locks and zero per-call allocation.
//!
//! # Example: a tuning session
//! ```
//! use morpheus::{CooMatrix, DynamicMatrix};
//! use morpheus_machine::{systems, Backend, VirtualEngine};
//! use morpheus_oracle::{Oracle, RunFirstTuner};
//!
//! // A banded matrix on the A64FX Serial backend: the run-first tuner
//! // should discover a diagonal-friendly format.
//! let n: usize = 2000;
//! let mut rows = Vec::new();
//! let mut cols = Vec::new();
//! let mut vals = Vec::new();
//! for i in 0..n {
//!     for d in [-1isize, 0, 1] {
//!         let j = i as isize + d;
//!         if j >= 0 && (j as usize) < n {
//!             rows.push(i);
//!             cols.push(j as usize);
//!             vals.push(1.0f64);
//!         }
//!     }
//! }
//! let coo = CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap();
//! let mut matrix = DynamicMatrix::from(coo);
//!
//! let mut oracle = Oracle::builder()
//!     .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
//!     .tuner(RunFirstTuner::new(10))
//!     .cache_capacity(128)
//!     .build()
//!     .unwrap();
//!
//! let report = oracle.tune(&mut matrix).unwrap();
//! assert_eq!(matrix.format_id(), report.chosen);
//! assert!(!report.cache_hit);
//!
//! // Tuning a structurally identical matrix again is (virtually) free.
//! let mut again = DynamicMatrix::from(
//!     CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap(),
//! );
//! let cached = oracle.tune(&mut again).unwrap();
//! assert!(cached.cache_hit);
//! assert_eq!(cached.cost.total(), 0.0);
//! assert_eq!(cached.chosen, report.chosen);
//! ```

mod cache;

pub mod adapt;
pub mod features;
pub mod ingress;
pub mod model_db;
pub mod obs;
pub mod oracle;
pub mod params;
pub mod serve;
pub mod tune;
pub mod tuner;

pub use adapt::{
    AdaptiveConfig, AdaptiveEngine, AdaptiveTuner, CollectorConfig, RetrainOutcome, RetrainReport,
    SampleCollector,
};
pub use cache::CacheStats;
pub use features::{FeatureVector, FEATURE_NAMES, NUM_FEATURES};
pub use ingress::{Backpressure, Ingress, IngressConfig, IngressError, IngressStats, Ticket};
pub use model_db::{ModelDatabase, ModelKind};
pub use obs::{
    Counter, Gauge, HistSummary, Histogram, MetricsRegistry, MetricsSnapshot, Obs, ObsConfig, ObsSnapshot,
    SlowRequest, SpanRecord, Stage, TraceId, TraceLevel,
};
pub use oracle::{Oracle, OracleBuilder, DEFAULT_CACHE_CAPACITY};
pub use params::propose_params;
pub use serve::{MatrixHandle, OracleService, PartitionPolicy};
pub use tune::{PlanStatus, TuneReport};
pub use tuner::{
    DecisionTreeTuner, FormatTuner, GbtTuner, RandomForestTuner, RunFirstTuner, TuneDecision, TuningCost,
};

/// Re-exported so downstream code can name operations without depending on
/// `morpheus-machine` directly.
pub use morpheus_machine::Op;

/// Errors produced by the Oracle layer.
#[derive(Debug)]
pub enum OracleError {
    /// Underlying matrix/format error.
    Morpheus(morpheus::MorpheusError),
    /// Underlying model error.
    Ml(morpheus_ml::MlError),
    /// A model incompatible with the tuner or feature schema was supplied.
    ModelMismatch(String),
    /// An [`Oracle`] was misconfigured (e.g. built without an engine).
    InvalidConfig(String),
    /// I/O failure while exporting or importing cached decisions.
    Io(std::io::Error),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Morpheus(e) => write!(f, "{e}"),
            OracleError::Ml(e) => write!(f, "{e}"),
            OracleError::ModelMismatch(m) => write!(f, "model mismatch: {m}"),
            OracleError::InvalidConfig(m) => write!(f, "invalid Oracle configuration: {m}"),
            OracleError::Io(e) => write!(f, "decision cache I/O: {e}"),
        }
    }
}

impl std::error::Error for OracleError {}

impl From<morpheus::MorpheusError> for OracleError {
    fn from(e: morpheus::MorpheusError) -> Self {
        OracleError::Morpheus(e)
    }
}

impl From<morpheus_ml::MlError> for OracleError {
    fn from(e: morpheus_ml::MlError) -> Self {
        OracleError::Ml(e)
    }
}

impl From<std::io::Error> for OracleError {
    fn from(e: std::io::Error) -> Self {
        OracleError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, OracleError>;
