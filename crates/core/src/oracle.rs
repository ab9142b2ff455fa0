//! Building an Oracle session: [`OracleBuilder`] and the [`Oracle`] name.
//!
//! The paper's tuner pays for itself by amortising a cheap prediction over
//! many repeated executions (§VI, §VII-E). One session object makes that
//! amortisation real at the API level: an [`OracleService`] holds the
//! engine, the tuner, the conversion policy and an LRU decision cache
//! **whose entries own the execution plan of what they decided**, so a
//! stream of tuning requests — the production shape of the workload —
//! re-extracts features only for structures it has not seen before, and
//! re-derives thread schedules only for decisions it has never executed.
//! [`Oracle`] is the paper's name for that one type; every method is
//! `&self`, so one session serves one caller or, behind an `Arc`, many.
//!
//! ```
//! use morpheus::{CooMatrix, DynamicMatrix};
//! use morpheus_machine::{systems, Backend, VirtualEngine};
//! use morpheus_oracle::{Oracle, RunFirstTuner};
//!
//! let mut m = DynamicMatrix::from(
//!     CooMatrix::<f32>::from_triplets(3, 3, &[0, 1, 2], &[0, 1, 2], &[1.0, 1.0, 1.0]).unwrap(),
//! );
//! let oracle = Oracle::builder()
//!     .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
//!     .tuner(RunFirstTuner::new(3))
//!     .build_service()
//!     .unwrap();
//! let report = oracle.tune(&mut m).unwrap();
//! assert_eq!(m.format_id(), report.chosen);
//! ```

use crate::adapt::SampleCollector;
use crate::obs::ObsConfig;
use crate::serve::{OracleService, PartitionPolicy};
use crate::{OracleError, Result};
use morpheus::ConvertOptions;
use morpheus_machine::VirtualEngine;

/// Decisions a fresh session keeps unless
/// [`OracleBuilder::cache_capacity`] overrides it.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// The tuning session of the paper: another name for [`OracleService`].
///
/// The tuner type `T` is generic so the session is zero-cost over concrete
/// tuners and still accepts trait objects (`Box<dyn FormatTuner<f64>>`)
/// when the strategy is chosen at runtime. Methods are generic over the
/// matrix scalar: any `T` implementing [`crate::FormatTuner`] for both
/// `f32` and `f64` (all bundled tuners do) serves both precisions from one
/// session, sharing one cache.
pub type Oracle<T = ()> = OracleService<T>;

impl OracleService<()> {
    /// Starts building a session. [`OracleBuilder::engine`] and
    /// [`OracleBuilder::tuner`] are mandatory; finish with
    /// [`OracleBuilder::build_service`].
    pub fn builder() -> OracleBuilder<()> {
        OracleBuilder {
            engine: None,
            tuner: None,
            opts: ConvertOptions::default(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            workers: None,
            collector: None,
            partition: PartitionPolicy::default(),
            obs: ObsConfig::default(),
        }
    }
}

/// Builder for [`OracleService`]s (see [`OracleService::builder`]).
#[derive(Debug)]
pub struct OracleBuilder<T> {
    engine: Option<VirtualEngine>,
    tuner: Option<T>,
    opts: ConvertOptions,
    cache_capacity: usize,
    workers: Option<usize>,
    collector: Option<std::sync::Arc<SampleCollector>>,
    partition: PartitionPolicy,
    obs: ObsConfig,
}

impl<T> OracleBuilder<T> {
    /// Sets the target engine (mandatory).
    pub fn engine(mut self, engine: VirtualEngine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Sets the tuning strategy (mandatory). May be a concrete tuner or a
    /// boxed trait object.
    pub fn tuner<U>(self, tuner: U) -> OracleBuilder<U> {
        OracleBuilder {
            engine: self.engine,
            tuner: Some(tuner),
            opts: self.opts,
            cache_capacity: self.cache_capacity,
            workers: self.workers,
            collector: self.collector,
            partition: self.partition,
            obs: self.obs,
        }
    }

    /// Configures the observability subsystem ([`crate::obs`]): trace
    /// level, span ring capacity, flight-recorder capacity and the
    /// slow-request threshold. The default is [`ObsConfig::default`] —
    /// request spans on.
    pub fn observability(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Sets whether and how `register_partitioned` shards into partitioned
    /// handles (default: [`PartitionPolicy::default`] — it registers whole,
    /// like every other front door; `cost_gate: false` forces shards).
    pub fn partition_policy(mut self, policy: PartitionPolicy) -> Self {
        self.partition = policy;
        self
    }

    /// Attaches a measured-kernel [`SampleCollector`]: executions through
    /// the built session are timestamped and attributed to the
    /// collector's lock-free telemetry ring, and decision-cache misses
    /// note their feature vectors — the raw material of the
    /// [`crate::adapt`] subsystem. Share the same `Arc` with an
    /// [`crate::adapt::AdaptiveEngine`] to close the retraining loop.
    pub fn collector(mut self, collector: std::sync::Arc<SampleCollector>) -> Self {
        self.collector = Some(collector);
        self
    }

    /// Overrides the conversion policy (default:
    /// `ConvertOptions::default()`): the padding guards, the HYB split and
    /// the true-diagonal fraction. Its `params` must stay the defaults — a
    /// matrix's layout parameters are decided per matrix and carried by its
    /// [`crate::TuneDecision`]; [`Self::build_service`] refuses others.
    pub fn convert_options(mut self, opts: ConvertOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Overrides the capacity of the decision cache, whose entries hold
    /// the execution plans, and of the table of re-tune aliases beside it
    /// ([`DEFAULT_CACHE_CAPACITY`] entries each by default; 0 disables
    /// caching — executions then rebuild their plan per call).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Gives the session a *private* execution pool with
    /// `workers` threads instead of the process-wide
    /// [`morpheus_parallel::global_pool`] — isolation from other pool
    /// users, and a pinned worker count for benchmarks and tests
    /// (irrelevant on Serial engines, which never execute threaded).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Finishes the session: `Send + Sync`, used as is by one caller or
    /// wrapped in an `Arc` and shared across client threads (see
    /// [`crate::serve`]).
    ///
    /// # Errors
    /// [`OracleError::InvalidConfig`] when the engine or tuner was never
    /// set, or the conversion options carry non-default `params`.
    pub fn build_service(self) -> Result<OracleService<T>> {
        let engine = self
            .engine
            .ok_or_else(|| OracleError::InvalidConfig("Oracle::builder(): no engine set".into()))?;
        let tuner =
            self.tuner.ok_or_else(|| OracleError::InvalidConfig("Oracle::builder(): no tuner set".into()))?;
        if !self.opts.params.is_default() {
            return Err(OracleError::InvalidConfig(format!(
                "Oracle::builder(): conversion options carry format parameters ({}); they are decided \
                 per matrix",
                self.opts.params.to_token()
            )));
        }
        Ok(OracleService::new(
            engine,
            tuner,
            self.opts,
            self.cache_capacity,
            self.workers,
            self.collector,
            self.partition,
            self.obs,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use crate::tune::PlanStatus;
    use crate::tuner::{FormatTuner, RunFirstTuner, TuneDecision, TuningCost};
    use morpheus::format::FormatId;
    use morpheus::{CooMatrix, DynamicMatrix};
    use morpheus_machine::{systems, Backend, MatrixAnalysis, Op};

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

    fn session() -> Oracle<RunFirstTuner> {
        Oracle::builder()
            .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
            .tuner(RunFirstTuner::new(3))
            .build_service()
            .unwrap()
    }

    #[test]
    fn builder_requires_engine_and_tuner() {
        assert!(matches!(
            Oracle::builder().tuner(RunFirstTuner::new(1)).build_service(),
            Err(OracleError::InvalidConfig(_))
        ));
        let no_tuner = Oracle::builder().engine(VirtualEngine::new(systems::a64fx(), Backend::Serial));
        assert!(matches!(no_tuner.build_service(), Err(OracleError::InvalidConfig(_))));
    }

    /// Layout parameters are a decision's: a service-wide set would replace
    /// every decision's, so the builder refuses one.
    #[test]
    fn builder_refuses_service_wide_format_params() {
        let params = morpheus::FormatParams::default().with_bell_ladder(&[3, 9]);
        let built = Oracle::builder()
            .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
            .tuner(RunFirstTuner::new(1))
            .convert_options(ConvertOptions { params, ..Default::default() })
            .build_service();
        assert!(matches!(built, Err(OracleError::InvalidConfig(why)) if why.contains("bell=3,9")));
    }

    #[test]
    fn second_tune_of_identical_structure_hits_the_cache() {
        let oracle = session();
        let mut first = tridiag(2000);
        let r1 = oracle.tune(&mut first).unwrap();
        assert!(!r1.cache_hit);
        assert!(r1.cost.total() > 0.0);
        assert_eq!(r1.plan, PlanStatus::Unplanned, "tune-only calls never plan");

        // A *distinct* matrix with the same structure.
        let mut second = tridiag(2000);
        let r2 = oracle.tune(&mut second).unwrap();
        assert!(r2.cache_hit);
        assert!(r2.cost.cache_hit);
        assert_eq!(r2.cost.feature_extraction, 0.0);
        assert_eq!(r2.cost.prediction, 0.0);
        assert_eq!(r2.cost.profiling, 0.0);
        assert_eq!(r2.chosen, r1.chosen);
        assert_eq!(second.format_id(), r1.chosen);

        let stats = oracle.cache_stats();
        // One entry per tuned structure: the post-conversion alias lives in
        // a table of its own and takes no decision slot.
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn tune_switches_format_and_preserves_entries() {
        let mut m = tridiag(4000);
        let oracle = session();
        let report = oracle.tune(&mut m).unwrap();
        assert_eq!(report.previous, FormatId::Coo);
        assert_eq!(m.format_id(), report.chosen);
        assert_eq!(report.predicted, report.chosen);
        assert_eq!(report.op, Op::Spmv);
        assert_eq!(m.nnz(), 3 * 4000 - 2);
    }

    #[test]
    fn fallback_to_csr_on_nonviable_prediction() {
        /// A tuner that always predicts ELL, even when ELL cannot hold the
        /// matrix within the fill limit.
        struct AlwaysEll;
        impl FormatTuner<f64> for AlwaysEll {
            fn name(&self) -> &'static str {
                "always-ell"
            }
            fn select(
                &self,
                _: &DynamicMatrix<f64>,
                _: &MatrixAnalysis,
                _: &VirtualEngine,
                op: Op,
            ) -> TuneDecision {
                TuneDecision {
                    format: FormatId::Ell,
                    params: morpheus::FormatParams::default(),
                    op,
                    cost: TuningCost::default(),
                }
            }
        }

        // Hypersparse with one long row: ELL width explodes.
        let n = 50_000usize;
        let mut rows: Vec<usize> = (0..500).map(|k| (k * 97) % n).collect();
        let mut cols: Vec<usize> = (0..500).map(|k| (k * 31) % n).collect();
        for k in 0..4000 {
            rows.push(7);
            cols.push((k * 11) % n);
        }
        let vals = vec![1.0; rows.len()];
        let mut m = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());

        let oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::Serial))
            .tuner(AlwaysEll)
            .build_service()
            .unwrap();
        let report = oracle.tune(&mut m).unwrap();
        assert_eq!(report.predicted, FormatId::Ell);
        assert_eq!(report.chosen, FormatId::Csr);
        assert_eq!(m.format_id(), FormatId::Csr);
    }

    #[test]
    fn tune_and_execute_preserves_numerics() {
        let oracle = session();
        let base = tridiag(600);
        let n = base.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();

        let mut y_ref = vec![0.0; n];
        morpheus::spmv::spmv_serial(&base, &x, &mut y_ref).unwrap();

        let mut tuned = base.clone();
        let mut y = vec![f64::NAN; n];
        let report = oracle.tune_and_spmv(&mut tuned, &x, &mut y).unwrap();
        assert_eq!(tuned.format_id(), report.chosen);
        assert_eq!(report.plan, PlanStatus::Unplanned, "serial sessions execute unplanned");
        assert_eq!(y, y_ref);

        // SpMM with k = 1 equals SpMV.
        let mut tuned2 = base.clone();
        let mut y2 = vec![f64::NAN; n];
        let r2 = oracle.tune_and_spmm(&mut tuned2, &x, &mut y2, 1).unwrap();
        assert_eq!(r2.op, Op::Spmm { k: 1 });
        assert_eq!(y2, y_ref);
    }

    #[test]
    fn openmp_session_executes_threaded_with_identical_numerics() {
        let oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(3))
            .build_service()
            .unwrap();
        let mut m = tridiag(800);
        let x: Vec<f64> = (0..800).map(|i| (i % 11) as f64 - 5.0).collect();
        let mut y = vec![f64::NAN; 800];
        let report = oracle.tune_and_spmv(&mut m, &x, &mut y).unwrap();
        assert_eq!(m.format_id(), report.chosen);
        // The threaded planned backend is bit-identical to serial on the
        // same tuned matrix.
        let mut y_serial = vec![0.0f64; 800];
        morpheus::spmv::spmv_serial(&m, &x, &mut y_serial).unwrap();
        assert_eq!(y, y_serial);
    }

    /// A per-call tune serves one execution: on a tridiagonal the horizon
    /// keeps the source, so neither call converts nor plans. An iterative
    /// loop registers once — converting, planning once — and replays the
    /// handle's plan.
    #[test]
    fn iterative_loop_builds_the_plan_once_and_replays_it() {
        let oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(3))
            .build_service()
            .unwrap();
        let mut m = tridiag(1500);
        let x = vec![1.0f64; 1500];
        let mut y = vec![0.0f64; 1500];

        let first = oracle.tune_and_spmv(&mut m, &x, &mut y).unwrap();
        assert_eq!(first.plan, PlanStatus::Unplanned, "one execution pays for no plan");
        assert_eq!((first.chosen, m.format_id()), (FormatId::Csr, FormatId::Csr), "nor for a conversion");
        assert_ne!(first.predicted, FormatId::Csr);
        for _ in 0..3 {
            let next = oracle.tune_and_spmv(&mut m, &x, &mut y).unwrap();
            assert!(next.cache_hit);
            assert_eq!(next.plan, PlanStatus::Unplanned, "the per-call path stays unplanned");
            assert!(!next.plan.is_hit());
        }
        let handle = oracle.register(tridiag(1500)).unwrap();
        assert!(handle.report().cache_hit);
        assert_eq!(handle.format_id(), first.predicted, "a registration converts");
        assert_eq!(handle.report().plan, PlanStatus::Built, "first registration plans the structure");
        for _ in 0..3 {
            oracle.spmv(&handle, &x, &mut y).unwrap();
        }
        assert_eq!(oracle.register(tridiag(1500)).unwrap().report().plan, PlanStatus::Reused);
        // SpMM on the same structure is a new decision, and a decision owns
        // its plan: built once under it, replayed from then on.
        let k = 4usize;
        let xk = vec![1.0f64; 1500 * k];
        let mut yk = vec![0.0f64; 1500 * k];
        let mm = oracle.tune_and_spmm(&mut m, &xk, &mut yk, k).unwrap();
        assert!(!mm.cache_hit);
        assert_eq!(mm.plan, PlanStatus::Unplanned);
        let spmm = Op::Spmm { k };
        assert_eq!(oracle.register_for(tridiag(1500), spmm).unwrap().report().plan, PlanStatus::Built);
        let again = oracle.register_for(tridiag(1500), spmm).unwrap();
        assert!(again.report().cache_hit);
        assert_eq!(again.report().plan, PlanStatus::Reused);
        let stats = oracle.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 2), "one build per decision: {stats:?}");
        assert_eq!(stats.len, 2);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
            .tuner(RunFirstTuner::new(2))
            .cache_capacity(0)
            .build_service()
            .unwrap();
        for _ in 0..3 {
            let mut m = tridiag(900);
            let r = oracle.tune(&mut m).unwrap();
            assert!(!r.cache_hit);
            assert!(r.cost.total() > 0.0);
        }
        assert_eq!(oracle.cache_stats(), CacheStats { capacity: 0, ..Default::default() });
    }

    #[test]
    fn disabled_cache_still_executes_threaded_with_fresh_plans() {
        let oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(2))
            .cache_capacity(0)
            .workers(2)
            .build_service()
            .unwrap();
        let mut m = tridiag(700);
        let x = vec![2.0f64; 700];
        let mut y = vec![0.0f64; 700];
        // Already in the format it is decided into, the matrix runs in it:
        // planned, on the pool.
        let chosen = oracle.tune(&mut m).unwrap().chosen;
        assert_ne!(chosen, FormatId::Csr);
        for _ in 0..2 {
            let r = oracle.tune_and_spmv(&mut m, &x, &mut y).unwrap();
            assert_eq!((r.predicted, r.chosen), (chosen, chosen));
            assert_eq!(r.plan, PlanStatus::Built, "no cache: every call rebuilds its plan");
        }
        let mut y_ref = vec![0.0f64; 700];
        morpheus::spmv::spmv_serial(&m, &x, &mut y_ref).unwrap();
        assert_eq!(y, y_ref);
    }

    #[test]
    fn clear_cache_forces_fresh_decision_and_plan() {
        let oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(3))
            .build_service()
            .unwrap();
        let mut a = tridiag(1200);
        let x = vec![1.0f64; 1200];
        let mut y = vec![0.0f64; 1200];
        // Switched by `tune`, the matrix is in its decided format: a per-call
        // tune of it runs planned, and leaves the plan in the entry.
        oracle.tune(&mut a).unwrap();
        let warm = oracle.tune_and_spmv(&mut a, &x, &mut y).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.plan, PlanStatus::Built);
        assert_eq!(oracle.tune_and_spmv(&mut a, &x, &mut y).unwrap().plan, PlanStatus::Reused);
        oracle.clear_cache();
        let r = oracle.tune_and_spmv(&mut a, &x, &mut y).unwrap();
        assert!(!r.cache_hit);
        assert_eq!(r.plan, PlanStatus::Built, "a cleared cache forgets its plans too");
        assert_eq!(oracle.cache_stats().misses, 2);
    }

    /// A service's engine prices what its conversions admit: built with a
    /// tighter `max_fill`, its tuners see the formats that options refuse as
    /// non-viable, so run-first never predicts one it cannot store.
    #[test]
    fn engine_viability_follows_the_service_padding_guard() {
        let n = 6000usize;
        let (mut rows, mut cols) = (Vec::new(), Vec::new());
        for r in 0..n {
            let len = if r % 8 == 0 { 8 } else { 1 };
            rows.extend(std::iter::repeat_n(r, len));
            cols.extend((0..len).map(|k| (r + 37 * k) % n));
        }
        let vals = vec![1.0f64; rows.len()];
        let m = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
        let view = morpheus_machine::analyze(&m);
        for max_fill in [20.0, 1.5] {
            let opts = ConvertOptions { max_fill, ..Default::default() };
            let oracle = Oracle::builder()
                .engine(VirtualEngine::new(systems::cirrus(), Backend::Serial))
                .tuner(RunFirstTuner::new(2))
                .convert_options(opts)
                .build_service()
                .unwrap();
            for fmt in morpheus::format::ALL_FORMATS {
                let converts = m.to_format(fmt, &opts).is_ok();
                assert_eq!(oracle.engine().is_viable(fmt, &view), converts, "{fmt} at max_fill {max_fill}");
            }
            let report = oracle.tune(&mut m.clone()).unwrap();
            assert_eq!(report.predicted, report.chosen, "max_fill {max_fill}: no CSR fallback");
            assert!(m.to_format(report.chosen, &opts).is_ok(), "max_fill {max_fill}");
        }
    }

    #[test]
    fn accessors_expose_configuration() {
        let opts = ConvertOptions { max_fill: 3.5, ..Default::default() };
        let oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(7))
            .convert_options(opts)
            .cache_capacity(16)
            .build_service()
            .unwrap();
        assert_eq!(oracle.engine().label(), "Cirrus/OpenMP");
        assert_eq!(oracle.tuner().reps(), 7);
        assert_eq!(oracle.convert_options().max_fill, 3.5);
        assert_eq!(oracle.cache_stats().capacity, 16);
        assert_eq!(oracle.plan_cache_stats().capacity, 16);
    }
}
