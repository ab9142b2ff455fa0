//! The adaptive learning subsystem: close the paper's profile → label →
//! train → deploy loop *online*, inside the serving layer.
//!
//! The offline pipeline trains models against the analytical
//! [`VirtualEngine`](morpheus_machine::VirtualEngine) cost model; but a
//! deployed [`OracleService`](crate::OracleService) executes millions of
//! real kernel invocations whose measured timings are ground truth the
//! cost model can only approximate. This module feeds them back:
//!
//! 1. **[`telemetry`]** — a lock-free atomic ring that attributes measured
//!    wall seconds to `(structure, format, op, scalar width, workers)`
//!    populations without ever blocking the zero-lock serving hot path;
//! 2. **[`collector`]** — joins telemetry with the Table-I
//!    [`FeatureVector`](crate::FeatureVector)s the service extracts anyway,
//!    labels each matrix with its *measured*-fastest format (optionally
//!    filling unobserved formats with a real timed trial
//!    [`sweep`](SampleCollector::sweep)) and emits a
//!    [`morpheus_ml::Dataset`];
//! 3. **[`retrain`]** — fits fresh forest/GBT candidates off the hot path,
//!    validates them on a holdout split against the incumbent, atomically
//!    hot-swaps winners into the live [`AdaptiveTuner`], persists them
//!    through the [`ModelDatabase`](crate::ModelDatabase) and falls back
//!    to the analytical tuner when accuracy drifts below a floor — all
//!    without a service restart.
//!
//! ```
//! use morpheus::{CooMatrix, DynamicMatrix};
//! use morpheus_machine::{systems, Backend, VirtualEngine};
//! use morpheus_oracle::adapt::{AdaptiveConfig, AdaptiveEngine, AdaptiveTuner};
//! use morpheus_oracle::{CollectorConfig, Oracle, RunFirstTuner, SampleCollector};
//! use std::sync::Arc;
//!
//! let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
//! let service = Arc::new(
//!     Oracle::builder()
//!         .engine(VirtualEngine::new(systems::cirrus(), Backend::Serial))
//!         .tuner(AdaptiveTuner::new(RunFirstTuner::new(1)))
//!         .collector(Arc::clone(&collector))
//!         .build_service()
//!         .unwrap(),
//! );
//! let engine = AdaptiveEngine::new(Arc::clone(&service), AdaptiveConfig::default()).unwrap();
//!
//! // Serve (telemetry records measured kernels), sweep (fill unobserved
//! // formats with real timed trials), adapt (retrain + hot-swap).
//! let mut m = DynamicMatrix::from(
//!     CooMatrix::<f64>::from_triplets(3, 3, &[0, 1, 2], &[0, 1, 2], &[1.0; 3]).unwrap(),
//! );
//! let x = [1.0; 3];
//! let mut y = [0.0; 3];
//! service.tune_and_spmv(&mut m, &x, &mut y).unwrap();
//! engine.sweep(&m).unwrap();
//! let report = engine.round().unwrap(); // too few samples yet: skipped
//! assert!(engine.rounds() == 1 && report.samples <= 1);
//! ```

pub mod collector;
pub mod retrain;
pub mod telemetry;

pub use collector::{Collected, CollectorConfig, CollectorStats, SampleCollector, SweepReport};
pub use retrain::{AdaptiveConfig, AdaptiveEngine, AdaptiveTuner, ModelEpoch, RetrainOutcome, RetrainReport};
pub use telemetry::{MeasuredKernel, SampleKey, Telemetry, TelemetryStats};
