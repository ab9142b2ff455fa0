//! The `Oracle` session facade: the crate's public tuning API.
//!
//! The paper's tuner pays for itself by amortising a cheap prediction over
//! many repeated executions (§VI, §VII-E). A session object makes that
//! amortisation real at the API level: one `Oracle` holds the engine, the
//! tuner, the conversion policy and an LRU decision cache **whose entries
//! own the execution plan of what they decided**, so a stream of tuning
//! requests — the production shape of the workload — re-extracts features
//! only for structures it has not seen before, and re-derives thread
//! schedules only for decisions it has never executed.
//!
//! Since the serving-layer refactor, an `Oracle` is a thin single-owner
//! wrapper over [`OracleService`] — the `Send + Sync` concurrent session in
//! [`crate::serve`]. The facade keeps the familiar `&mut self` API (and the
//! zero-surprise guarantee that nothing else touches its caches); call
//! [`Oracle::into_service`] to promote a configured session into a shared
//! service, or build one directly with [`OracleBuilder::build_service`].
//!
//! ```
//! use morpheus::{CooMatrix, DynamicMatrix};
//! use morpheus_machine::{systems, Backend, VirtualEngine};
//! use morpheus_oracle::{Oracle, RunFirstTuner};
//!
//! let mut m = DynamicMatrix::from(
//!     CooMatrix::<f32>::from_triplets(3, 3, &[0, 1, 2], &[0, 1, 2], &[1.0, 1.0, 1.0]).unwrap(),
//! );
//! let mut oracle = Oracle::builder()
//!     .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
//!     .tuner(RunFirstTuner::new(3))
//!     .build()
//!     .unwrap();
//! let report = oracle.tune(&mut m).unwrap();
//! assert_eq!(m.format_id(), report.chosen);
//! ```

use crate::adapt::SampleCollector;
use crate::cache::{CacheStats, DEFAULT_SHARDS};
use crate::obs::ObsConfig;
use crate::serve::{OracleService, PartitionPolicy};
use crate::tune::TuneReport;
use crate::tuner::FormatTuner;
use crate::{OracleError, Result};
use morpheus::{ConvertOptions, DynamicMatrix, Scalar};
use morpheus_machine::{Op, VirtualEngine};

/// Decisions a fresh [`Oracle`] keeps unless
/// [`OracleBuilder::cache_capacity`] overrides it.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// A tuning session: engine + tuner + conversion policy + decision cache
/// (each entry with the execution plan of its decision).
///
/// Built via [`Oracle::builder`]. The tuner type `T` is generic so the
/// session is zero-cost over concrete tuners and still accepts trait
/// objects (`Box<dyn FormatTuner<f64>>`) when the strategy is chosen at
/// runtime. Methods are generic over the matrix scalar: any `T`
/// implementing [`FormatTuner`] for both `f32` and `f64` (all bundled
/// tuners do) serves both precisions from one session, sharing one cache.
///
/// Internally this is a single-owner view of an [`OracleService`]; the
/// `&mut self` receivers are an API guarantee (no aliasing of the session
/// state), not a data-structure requirement.
#[derive(Debug)]
pub struct Oracle<T> {
    service: OracleService<T>,
}

impl Oracle<()> {
    /// Starts building a session. [`OracleBuilder::engine`] and
    /// [`OracleBuilder::tuner`] are mandatory.
    pub fn builder() -> OracleBuilder<()> {
        OracleBuilder {
            engine: None,
            tuner: None,
            opts: ConvertOptions::default(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            shards: DEFAULT_SHARDS,
            workers: None,
            collector: None,
            partition: PartitionPolicy::default(),
            obs: ObsConfig::default(),
        }
    }
}

impl<T> Oracle<T> {
    /// Tunes `m` for SpMV: selects a format (from cache when the structure
    /// was seen before) and switches `m` to it in place.
    ///
    /// If the predicted format cannot be materialised (padding beyond
    /// `ConvertOptions::max_fill`, which can happen when an ML model
    /// mispredicts on an adversarial sparsity pattern), the matrix falls
    /// back to CSR — the general-purpose default — rather than failing.
    ///
    /// A COO `m` is moved into CSR before it is hashed (see
    /// [`OracleService::register`]): its decision is keyed by the CSR form,
    /// and the report still names COO as `previous`.
    pub fn tune<V>(&mut self, m: &mut DynamicMatrix<V>) -> Result<TuneReport>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        self.service.tune(m)
    }

    /// [`Oracle::tune`] for an arbitrary operation.
    ///
    /// On a cache miss the session builds one shared [`morpheus::Analysis`]
    /// of the matrix (reusing the hash it just computed for the cache key)
    /// and threads it through feature extraction *and* the eventual format
    /// conversion, so planning the target layout never re-traverses the
    /// matrix. On a hit, only the hash and the conversion are paid for.
    pub fn tune_for<V>(&mut self, m: &mut DynamicMatrix<V>, op: Op) -> Result<TuneReport>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        self.service.tune_for(m, op)
    }

    /// Tunes `m` for SpMV, then executes `y = A x` in the selected format,
    /// on the execution backend matching the session's engine (serial for
    /// a Serial engine, the host thread pool otherwise).
    ///
    /// Threaded execution runs through the session's cached
    /// [`morpheus::ExecPlan`] for the matrix structure: the first call
    /// builds the plan (`report.plan == PlanStatus::Built`), subsequent
    /// calls in an iterative loop replay it with zero scheduling work
    /// (`PlanStatus::Reused`).
    ///
    /// Since the serving-layer refactor, sessions inherit the service's
    /// latency-over-throughput policy: if the execution pool is busy with
    /// *another* user's batch at call time (possible when the session runs
    /// on the process-wide [`morpheus_parallel::global_pool`]; never from
    /// this session's own calls, which are sequential), the plan's
    /// bodies run inline on the calling thread — bitwise identical to the
    /// pooled execution — instead of queueing, reported via
    /// [`TuneReport::serial_fallback`]. Give the session a
    /// private pool with [`OracleBuilder::workers`] to make the fallback
    /// unreachable from outside.
    pub fn tune_and_spmv<V>(&mut self, m: &mut DynamicMatrix<V>, x: &[V], y: &mut [V]) -> Result<TuneReport>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        self.service.tune_and_spmv(m, x, y)
    }

    /// Tunes `m` for SpMM with `k` right-hand sides, then executes
    /// `Y = A X` (`x` row-major `ncols x k`, `y` row-major `nrows x k`) in
    /// the selected format, serial or threaded-planned per the engine's
    /// backend. SpMV and SpMM replay the *same* cached plan — the row
    /// partition depends only on the structure. The busy-pool serial
    /// fallback of [`Oracle::tune_and_spmv`] applies here too.
    pub fn tune_and_spmm<V>(
        &mut self,
        m: &mut DynamicMatrix<V>,
        x: &[V],
        y: &mut [V],
        k: usize,
    ) -> Result<TuneReport>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        self.service.tune_and_spmm(m, x, y, k)
    }

    /// The engine decisions are made for.
    pub fn engine(&self) -> &VirtualEngine {
        self.service.engine()
    }

    /// The tuning strategy.
    pub fn tuner(&self) -> &T {
        self.service.tuner()
    }

    /// The conversion policy applied when switching formats.
    pub fn convert_options(&self) -> &ConvertOptions {
        self.service.convert_options()
    }

    /// Hit/miss counters and occupancy of the decision cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.service.cache_stats()
    }

    /// Plan reuse: plans found in their decision entry (hits), plans built
    /// (misses), cached decisions holding one (`len`).
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.service.plan_cache_stats()
    }

    /// Forgets every cached decision and execution plan (counters are
    /// kept). Call after swapping model files on disk or recalibrating the
    /// engine.
    pub fn clear_cache(&mut self) {
        self.service.clear_cache();
    }

    /// The underlying concurrent service, shared caches and all (read
    /// access: stats, decision export, ...).
    pub fn service(&self) -> &OracleService<T> {
        &self.service
    }

    /// Promotes this session into its [`OracleService`], keeping every
    /// cached decision and plan — wrap it in an `Arc` and serve it from as
    /// many client threads as needed.
    pub fn into_service(self) -> OracleService<T> {
        self.service
    }
}

/// Builder for [`Oracle`] sessions and [`OracleService`]s (see
/// [`Oracle::builder`]).
#[derive(Debug)]
pub struct OracleBuilder<T> {
    engine: Option<VirtualEngine>,
    tuner: Option<T>,
    opts: ConvertOptions,
    cache_capacity: usize,
    shards: usize,
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
            shards: self.shards,
            workers: self.workers,
            collector: self.collector,
            partition: self.partition,
            obs: self.obs,
        }
    }

    /// Configures the observability subsystem ([`crate::obs`]): trace
    /// level, span ring capacity, flight-recorder capacity and the
    /// slow-request threshold. The default is [`ObsConfig::default`] —
    /// coarse request spans on, per-shard spans off.
    pub fn observability(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Sets when and how registrations shard into partitioned handles
    /// (default: [`PartitionPolicy::default`] — no automatic sharding;
    /// `register_partitioned` / `register_stream` still work).
    pub fn partition_policy(mut self, policy: PartitionPolicy) -> Self {
        self.partition = policy;
        self
    }

    /// Attaches a measured-kernel [`SampleCollector`]: executions through
    /// the built session/service are timestamped and attributed to the
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

    /// Overrides the lock-stripe count of the sharded caches (default 16
    /// stripes; minimum 1). More stripes reduce contention between
    /// concurrent clients at the price of a slightly coarser global LRU
    /// order.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Gives the session or service a *private* execution pool with
    /// `workers` threads instead of the process-wide
    /// [`morpheus_parallel::global_pool`] — isolation from other pool
    /// users, and a pinned worker count for benchmarks and tests
    /// (irrelevant on Serial engines, which never execute threaded).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Finishes a single-owner session.
    ///
    /// # Errors
    /// As [`Self::build_service`].
    pub fn build(self) -> Result<Oracle<T>> {
        self.build_service().map(|service| Oracle { service })
    }

    /// Finishes a `Send + Sync` concurrent service — wrap it in an `Arc`
    /// and share it across client threads (see [`crate::serve`]).
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
            self.shards,
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
    use crate::tune::PlanStatus;
    use crate::tuner::{RunFirstTuner, TuneDecision, TuningCost};
    use morpheus::format::FormatId;
    use morpheus::CooMatrix;
    use morpheus_machine::{systems, Backend, MatrixAnalysis};

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
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_engine_and_tuner() {
        assert!(matches!(
            Oracle::builder().tuner(RunFirstTuner::new(1)).build(),
            Err(OracleError::InvalidConfig(_))
        ));
        let no_tuner = Oracle::builder().engine(VirtualEngine::new(systems::a64fx(), Backend::Serial));
        assert!(matches!(no_tuner.build(), Err(OracleError::InvalidConfig(_))));
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
        let mut oracle = session();
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
        let mut oracle = session();
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

        let mut oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::Serial))
            .tuner(AlwaysEll)
            .build()
            .unwrap();
        let report = oracle.tune(&mut m).unwrap();
        assert_eq!(report.predicted, FormatId::Ell);
        assert_eq!(report.chosen, FormatId::Csr);
        assert_eq!(m.format_id(), FormatId::Csr);
    }

    #[test]
    fn tune_and_execute_preserves_numerics() {
        let mut oracle = session();
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
        let mut oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(3))
            .build()
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

    #[test]
    fn iterative_loop_builds_the_plan_once_and_replays_it() {
        let mut oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(3))
            .build()
            .unwrap();
        let mut m = tridiag(1500);
        let x = vec![1.0f64; 1500];
        let mut y = vec![0.0f64; 1500];

        let first = oracle.tune_and_spmv(&mut m, &x, &mut y).unwrap();
        assert_eq!(first.plan, PlanStatus::Built, "first execution plans the structure");
        for _ in 0..3 {
            let next = oracle.tune_and_spmv(&mut m, &x, &mut y).unwrap();
            assert!(next.cache_hit);
            assert_eq!(next.plan, PlanStatus::Reused, "steady state must replay the plan");
            assert!(next.plan.is_hit());
        }
        // SpMM on the same structure is a new decision, and a decision owns
        // its plan: built once under it, replayed from then on.
        let k = 4usize;
        let xk = vec![1.0f64; 1500 * k];
        let mut yk = vec![0.0f64; 1500 * k];
        let mm = oracle.tune_and_spmm(&mut m, &xk, &mut yk, k).unwrap();
        assert!(!mm.cache_hit);
        assert_eq!(mm.plan, PlanStatus::Built);
        let again = oracle.tune_and_spmm(&mut m, &xk, &mut yk, k).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.plan, PlanStatus::Reused);
        let stats = oracle.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (4, 2), "one build per decision: {stats:?}");
        assert_eq!(stats.len, 2);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
            .tuner(RunFirstTuner::new(2))
            .cache_capacity(0)
            .build()
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
        let mut oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(2))
            .cache_capacity(0)
            .build()
            .unwrap();
        let mut m = tridiag(700);
        let x = vec![2.0f64; 700];
        let mut y = vec![0.0f64; 700];
        for _ in 0..2 {
            let r = oracle.tune_and_spmv(&mut m, &x, &mut y).unwrap();
            assert_eq!(r.plan, PlanStatus::Built, "no cache: every call rebuilds its plan");
        }
        let mut y_ref = vec![0.0f64; 700];
        morpheus::spmv::spmv_serial(&m, &x, &mut y_ref).unwrap();
        assert_eq!(y, y_ref);
    }

    #[test]
    fn clear_cache_forces_fresh_decision_and_plan() {
        let mut oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(3))
            .build()
            .unwrap();
        let mut a = tridiag(1200);
        let x = vec![1.0f64; 1200];
        let mut y = vec![0.0f64; 1200];
        oracle.tune_and_spmv(&mut a, &x, &mut y).unwrap();
        oracle.clear_cache();
        let r = oracle.tune_and_spmv(&mut a, &x, &mut y).unwrap();
        assert!(!r.cache_hit);
        assert_eq!(r.plan, PlanStatus::Built, "a cleared cache forgets its plans too");
        assert_eq!(oracle.cache_stats().misses, 2);
    }

    #[test]
    fn accessors_expose_configuration() {
        let opts = ConvertOptions { max_fill: 3.5, ..Default::default() };
        let oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(7))
            .convert_options(opts)
            .cache_capacity(16)
            .build()
            .unwrap();
        assert_eq!(oracle.engine().label(), "Cirrus/OpenMP");
        assert_eq!(oracle.tuner().reps(), 7);
        assert_eq!(oracle.convert_options().max_fill, 3.5);
        assert_eq!(oracle.cache_stats().capacity, 16);
        assert_eq!(oracle.plan_cache_stats().capacity, 16);
    }

    #[test]
    fn into_service_keeps_the_warm_caches() {
        let mut oracle = Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(2))
            .build()
            .unwrap();
        let mut m = tridiag(1000);
        let chosen = oracle.tune(&mut m).unwrap().chosen;
        let service = oracle.into_service();
        let mut again = tridiag(1000);
        let r = service.tune(&mut again).unwrap();
        assert!(r.cache_hit, "promotion must not drop cached decisions");
        assert_eq!(r.chosen, chosen);
    }
}
