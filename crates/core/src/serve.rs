//! The concurrent Oracle service layer: shared sessions, sharded caches and
//! the registered-matrix serving path.
//!
//! The paper's amortisation argument (§VII-E) — pay feature extraction,
//! prediction, conversion and planning **once**, then reap them over many
//! executions — only pays off at production scale if many clients can share
//! one tuned state. [`OracleService`] is that shared state: `Send + Sync`,
//! `Arc`-shareable, every method `&self`. The decision cache is a sharded,
//! lock-striped LRU ([`crate::CacheStats`] aggregated atomically) whose
//! entries own the execution plan of what they decided, so concurrent
//! tuning requests contend only when they hash to the same stripe and a hit
//! brings its plan with it. [`Oracle`](crate::Oracle) is another name for
//! this one session type.
//!
//! The registered-matrix path goes further: [`OracleService::register`]
//! tunes, converts and plans once, returning a [`MatrixHandle`] — an `Arc`
//! around the realized matrix and its [`ExecPlan`]. Executions through a
//! handle ([`OracleService::spmv`] / [`OracleService::spmm`]) touch **no
//! locks and no caches** and perform **zero per-call allocation** (clients
//! bring per-thread [`Workspace`]s for the allocating variants), from any
//! number of client threads. Every one of them — direct or queued by the
//! ingress — is one call of the private `OracleService::execute`,
//! whose docs are the one statement of what runs where (serial backend,
//! pool, busy pool: "the ladder"). Its rule is that nobody queues behind
//! another client's batch: latency over throughput, per Elafrou et al.'s
//! observation that runtime overhead decides whether online selection wins.
//!
//! This file holds the handle types, the service and its public calls; three
//! submodules hold the rest:
//!
//! * `decide` — the cold path of one decision: the decision-cache entry that
//!   carries it from lookup to report, and `store`, the one write of an entry;
//! * `execute` — every execution through a handle, direct or queued by the
//!   ingress: the ladder, a queued SpMV's shared run, and their telemetry;
//! * `decisions` — the warm-start file the cached decisions are exported to
//!   and imported from.
//!
//! # What a decision pays for
//!
//! Each decision pays only for what its horizon repays (Eq. 2: speed-up
//! *after* tuning cost).
//!
//! * **A per-call tune serves one execution.** `tune_and_spmv` /
//!   `tune_and_spmm` convert only when `c + r < 1` — `c` the engine's
//!   predicted conversion cost, `r` its predicted per-execution ratio, both
//!   in executions of the ingested source for the call's op, recorded with
//!   the decision when the tuner answered, so a cache hit gates without a
//!   view. Otherwise the matrix stays as it was ingested and runs its own
//!   body once — across the service's pool when it has several workers,
//!   the width `c` and `r` were priced for; the report's `predicted` is
//!   the decision, its `chosen` the source. To iterate,
//!   [`OracleService::register`] once and call [`OracleService::spmv`]:
//!   registration (and [`OracleService::tune`]) converts and plans as
//!   decided, whatever the horizon.
//! * **The entry walk runs when the decision needs it.** Under a tuner that
//!   does not price formats ([`FormatTuner::prices_formats`] `false`) and
//!   with no collector attached, a CSR source (a COO one enters as CSR) is
//!   first decided on its row side alone ([`Analysis::of_rows`](morpheus::Analysis::of_rows): the
//!   offsets are the row histogram) and on sound bounds of the three
//!   features only the walk counts ([`Analysis::walk_bounds`](morpheus::Analysis::walk_bounds)). When the
//!   bounds settle the model on COO, CSR, ELL, HYB or BELL — formats whose
//!   parameters read row facts only — that is the decision, bitwise what
//!   the walk would give, and a cold registration reads the matrix once,
//!   for its key. The horizon of such a decision is the engine's floor;
//!   where the floor leaves the conversion open, a registration or `tune`
//!   stores it marked open, and the first per-call tune of the structure —
//!   the one reader of a horizon — walks its own matrix to price it
//!   exactly and stores that. Otherwise the walk completes the same
//!   artifact ([`Analysis::take_entry_walk`](morpheus::Analysis::take_entry_walk)) and the view assembled from
//!   its row side, and the tuner answers as always; DIA, HDC and BSR
//!   answers always walk.
//!
//! ```
//! use morpheus::{CooMatrix, DynamicMatrix, Workspace};
//! use morpheus_machine::{systems, Backend, VirtualEngine};
//! use morpheus_oracle::{Oracle, RunFirstTuner};
//! use std::sync::Arc;
//!
//! let m = DynamicMatrix::from(
//!     CooMatrix::<f64>::from_triplets(
//!         4, 4, &[0, 1, 2, 3, 3], &[0, 1, 2, 0, 3], &[2.0, 3.0, 4.0, 1.0, 5.0],
//!     )
//!     .unwrap(),
//! );
//! let mut y_serial = vec![0.0; 4];
//! morpheus::spmv::spmv_serial(&m, &[1.0, 1.0, 1.0, 1.0], &mut y_serial).unwrap();
//!
//! // One service, tuned once at registration, shared by any number of
//! // client threads.
//! let service = Arc::new(
//!     Oracle::builder()
//!         .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
//!         .tuner(RunFirstTuner::new(2))
//!         .build_service()
//!         .unwrap(),
//! );
//! let handle = service.register(m).unwrap();
//!
//! std::thread::scope(|s| {
//!     for _ in 0..2 {
//!         let (service, handle, expect) = (Arc::clone(&service), handle.clone(), y_serial.clone());
//!         s.spawn(move || {
//!             let mut ws = Workspace::new();
//!             for _ in 0..4 {
//!                 let y = service.spmv_into(&handle, &[1.0, 1.0, 1.0, 1.0], &mut ws).unwrap();
//!                 assert_eq!(y, expect.as_slice());
//!             }
//!         });
//!     }
//! });
//! assert_eq!(service.obs_snapshot().metrics.counter("serve.requests_served"), 8);
//! ```

use crate::adapt::SampleCollector;
use crate::cache::{CacheKey, CacheStats, ShardedLru, DEFAULT_SHARDS};
use crate::obs::{Counter, Gauge, Histogram, Obs, ObsConfig, ObsSnapshot, TraceId};
use crate::tune::{PlanStatus, TuneReport};
use crate::tuner::{FormatTuner, TuningCost};
use crate::{OracleError, Result};
use decide::{Asker, CachedDecision, Facts};
use morpheus::format::FormatId;
use morpheus::partition::{split_rows, Partition, Shard};
use morpheus::{
    ConvertOptions, ConvertOutcome, ConvertPath, CooMatrix, CsrBuilder, CsrMatrix, DynamicMatrix, ExecPlan,
    FormatParams, PartitionConfig, PartitionedMatrix, Scalar, Workspace,
};
use morpheus_machine::{Op, VirtualEngine};
use morpheus_parallel::ThreadPool;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

mod decide;
mod decisions;
pub(crate) mod execute;

/// Which pool threaded executions run on.
#[derive(Debug)]
enum ServicePool {
    /// The process-wide pool ([`morpheus_parallel::global_pool`]).
    Global,
    /// A pool owned by this service (isolates it from other pool users;
    /// also what lets tests and benches pin a worker count).
    Owned(ThreadPool),
}

/// Whether [`OracleService::register_partitioned`] shards a matrix, and
/// how a forced `register_partitioned` sizes its shards — the one place a
/// sharded handle comes from.
///
/// Under the default policy `register_partitioned` is `register`: the
/// matrix is served whole, in one format. Measured end to end, that cost
/// less at registration than sharding and ran no slower warm (README,
/// "Partitioned handles"), so nothing decides per matrix whether to shard,
/// and every other front door ([`OracleService::register_stream`]
/// included) registers whole.
#[derive(Debug, Clone, Copy)]
pub struct PartitionPolicy {
    /// Upper bound on shards per matrix. `None`: `max(4, 2 * workers)` of
    /// the serving pool.
    pub max_shards: Option<usize>,
    /// Desired nnz per shard. `None`: the
    /// [`morpheus::PartitionConfig`] default.
    pub target_shard_nnz: Option<usize>,
    /// `true` (the default): [`OracleService::register_partitioned`] serves
    /// the matrix whole. `false`: it shards whenever the partition has more
    /// than one shard — for tests and benches that need partitioned handles.
    pub cost_gate: bool,
}

impl Default for PartitionPolicy {
    fn default() -> Self {
        PartitionPolicy { max_shards: None, target_shard_nnz: None, cost_gate: true }
    }
}

impl PartitionPolicy {
    /// The boundary-selection config this policy induces for a pool of
    /// `workers` threads.
    pub fn config(&self, workers: usize) -> PartitionConfig {
        let defaults = PartitionConfig::default();
        PartitionConfig {
            max_shards: self.max_shards.unwrap_or_else(|| 4usize.max(2 * workers.max(1))),
            target_shard_nnz: self.target_shard_nnz.unwrap_or(defaults.target_shard_nnz),
            ..defaults
        }
    }
}

/// The tuned, converted and planned state [`OracleService::register`]
/// produces: an `Arc` around the realized matrix and its shared
/// [`ExecPlan`]. Cloning a handle is one reference-count bump; hand clones
/// to every client thread.
#[derive(Debug)]
pub struct MatrixHandle<V: Scalar> {
    inner: Arc<Registered<V>>,
}

impl<V: Scalar> Clone for MatrixHandle<V> {
    fn clone(&self) -> Self {
        MatrixHandle { inner: Arc::clone(&self.inner) }
    }
}

#[derive(Debug)]
struct Registered<V: Scalar> {
    id: u64,
    stored: Stored<V>,
    report: TuneReport,
}

/// What a handle executes: one whole matrix with one plan, or a set of
/// independently formatted and planned row-range shards.
#[derive(Debug)]
enum Stored<V: Scalar> {
    Single {
        matrix: DynamicMatrix<V>,
        /// The structure hash the matrix was decided under (its hash as it
        /// was handed to `register`): the key its features are noted under,
        /// so what its measured executions are attributed to. Registration
        /// consumed the source, and the converted arrays are never hashed.
        structure: u64,
        /// [`FormatParams::code`] of the parameters the matrix was converted
        /// with: its telemetry population's label.
        param_code: u8,
        plan: Arc<ExecPlan<V>>,
    },
    Partitioned {
        matrix: PartitionedMatrix<V>,
        /// Each shard's [`FormatParams::code`], by shard index.
        param_codes: Box<[u8]>,
    },
}

impl<V: Scalar> MatrixHandle<V> {
    /// Service-unique registration id.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The realized (post-tuning) storage format. Partitioned handles
    /// report the format covering the most stored non-zeros; see
    /// [`MatrixHandle::partition`] for the per-shard detail.
    pub fn format_id(&self) -> FormatId {
        match &self.inner.stored {
            Stored::Single { matrix, .. } => matrix.format_id(),
            Stored::Partitioned { matrix: p, .. } => p.dominant_format(),
        }
    }

    /// Rows of the registered matrix.
    pub fn nrows(&self) -> usize {
        match &self.inner.stored {
            Stored::Single { matrix, .. } => matrix.nrows(),
            Stored::Partitioned { matrix: p, .. } => p.nrows(),
        }
    }

    /// Columns of the registered matrix.
    pub fn ncols(&self) -> usize {
        match &self.inner.stored {
            Stored::Single { matrix, .. } => matrix.ncols(),
            Stored::Partitioned { matrix: p, .. } => p.ncols(),
        }
    }

    /// Stored non-zeros of the registered matrix.
    pub fn nnz(&self) -> usize {
        match &self.inner.stored {
            Stored::Single { matrix, .. } => matrix.nnz(),
            Stored::Partitioned { matrix: p, .. } => p.nnz(),
        }
    }

    /// The tuning report from registration ([`TuneReport::plan`] says
    /// whether the plan was built fresh or reused from the plan cache;
    /// [`TuneReport::shards`] says whether the handle is partitioned).
    pub fn report(&self) -> &TuneReport {
        &self.inner.report
    }

    /// `true` when the handle executes as row-range shards.
    pub fn is_partitioned(&self) -> bool {
        matches!(self.inner.stored, Stored::Partitioned { .. })
    }

    /// Shards of the handle (1 for whole-matrix handles).
    pub fn num_shards(&self) -> usize {
        match &self.inner.stored {
            Stored::Single { .. } => 1,
            Stored::Partitioned { matrix: p, .. } => p.num_shards(),
        }
    }

    /// The partitioned storage, when the handle is sharded.
    pub fn partition(&self) -> Option<&PartitionedMatrix<V>> {
        match &self.inner.stored {
            Stored::Partitioned { matrix: p, .. } => Some(p),
            Stored::Single { .. } => None,
        }
    }

    /// The registered matrix in its realized format, when the handle holds
    /// a single whole matrix (`None` for partitioned handles, whose shards
    /// are reached through [`MatrixHandle::partition`]).
    pub fn try_matrix(&self) -> Option<&DynamicMatrix<V>> {
        match &self.inner.stored {
            Stored::Single { matrix, .. } => Some(matrix),
            Stored::Partitioned { .. } => None,
        }
    }

    /// The shared execution plan, when the handle holds a single whole
    /// matrix (`None` for partitioned handles — each shard has its own).
    pub fn try_plan(&self) -> Option<&ExecPlan<V>> {
        match &self.inner.stored {
            Stored::Single { plan, .. } => Some(plan),
            Stored::Partitioned { .. } => None,
        }
    }

    /// The registered matrix in its realized format.
    ///
    /// # Panics
    /// On a partitioned handle — use [`MatrixHandle::try_matrix`] or
    /// [`MatrixHandle::partition`] when handles may be sharded.
    pub fn matrix(&self) -> &DynamicMatrix<V> {
        self.try_matrix().expect("partitioned handle has no single matrix; use partition()")
    }

    /// The shared execution plan.
    ///
    /// # Panics
    /// On a partitioned handle — use [`MatrixHandle::try_plan`] or
    /// [`MatrixHandle::partition`] when handles may be sharded.
    pub fn plan(&self) -> &ExecPlan<V> {
        self.try_plan().expect("partitioned handle has no single plan; use partition()")
    }
}

/// The tuning session ([`Oracle`](crate::Oracle) names the same type):
/// engine, tuner, conversion policy and decision cache behind `&self`
/// methods, used by one caller or shared across any number of client
/// threads via `Arc`.
///
/// Built with [`OracleService::builder`], finished by
/// [`crate::OracleBuilder::build_service`]. See the [module docs](self) for
/// the serving model and a multi-threaded example.
#[derive(Debug)]
pub struct OracleService<T> {
    engine: VirtualEngine,
    tuner: T,
    opts: ConvertOptions,
    decisions: ShardedLru<CacheKey, CachedDecision>,
    /// Re-tune aliases: the structure a `tune`d matrix was *switched to* →
    /// a copy of the entry it was switched under, so tuning the switched
    /// matrix again is a hit. A table of its own (of the decision cache's
    /// capacity): kept among the decisions, each converted structure held
    /// two of their slots. Only `tune`/`tune_and_*` write it, on a miss or
    /// a hit, once per entry — a registration consumes its matrix, which
    /// cannot come back (one that hits an alias stores it among the
    /// decisions).
    aliases: ShardedLru<CacheKey, CachedDecision>,
    /// Plans found in their decision entry / built, as
    /// [`OracleService::plan_cache_stats`] reports them.
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    engine_fingerprint: u64,
    pool: ServicePool,
    next_handle_id: AtomicU64,
    /// Measured-kernel telemetry sink (see [`crate::adapt`]). `None` keeps
    /// execution paths entirely timestamp-free.
    collector: Option<Arc<SampleCollector>>,
    /// When and how registrations shard (see [`PartitionPolicy`]).
    partition: PartitionPolicy,
    /// Observability hub (metrics registry + span tracer + flight
    /// recorder), shared with every [`crate::ingress::Ingress`] started on
    /// this service.
    obs: Arc<Obs>,
    /// `serve.requests_served` — executions through registered handles.
    requests_served: Counter,
    /// `serve.fallbacks_taken` — busy-pool inline fallbacks.
    fallbacks_taken: Counter,
    /// `serve.matrices_registered` — registrations over the lifetime.
    matrices_registered: Counter,
    /// `serve.request_ns` — registered/tuned execution latency (recorded
    /// when tracing is on).
    request_hist: Arc<Histogram>,
    /// `serve.plan_ns` — plan acquisition latency (hit or build).
    plan_hist: Arc<Histogram>,
    /// `pool.jobs_queued` — published-but-unstarted worker shares, refreshed
    /// by [`OracleService::obs_snapshot`].
    pool_queued_gauge: Gauge,
}

impl<T> OracleService<T> {
    // Single call-site constructor mirroring the builder's fields 1:1.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        engine: VirtualEngine,
        tuner: T,
        opts: ConvertOptions,
        cache_capacity: usize,
        workers: Option<usize>,
        collector: Option<Arc<SampleCollector>>,
        partition: PartitionPolicy,
        obs: ObsConfig,
    ) -> Self {
        let engine_fingerprint = fingerprint_engine(&engine);
        // The tuners price what this service's conversions admit.
        let engine = engine.with_padding_guard(&opts);
        let obs = Arc::new(Obs::new(obs));
        let pool = match workers {
            Some(n) => ServicePool::Owned(ThreadPool::new(n)),
            None => ServicePool::Global,
        };
        if obs.enabled() {
            if let ServicePool::Owned(p) = &pool {
                // Hand-off telemetry (publish → a worker starts its share,
                // `workers − 1` samples per dispatched batch) is installed
                // only on an *owned* pool: the global pool is shared
                // process-wide and must not be claimed by one service's
                // histogram.
                let hist = obs.registry().histogram("pool.queue_wait_ns");
                p.set_queue_wait_observer(Some(Arc::new(move |waited| hist.record(waited))));
            }
        }
        let reg = obs.registry();
        let requests_served = reg.counter("serve.requests_served");
        let fallbacks_taken = reg.counter("serve.fallbacks_taken");
        let matrices_registered = reg.counter("serve.matrices_registered");
        let request_hist = reg.histogram("serve.request_ns");
        let plan_hist = reg.histogram("serve.plan_ns");
        let pool_queued_gauge = reg.gauge("pool.jobs_queued");
        OracleService {
            engine,
            tuner,
            opts,
            decisions: ShardedLru::new(cache_capacity, DEFAULT_SHARDS),
            aliases: ShardedLru::new(cache_capacity, DEFAULT_SHARDS),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            engine_fingerprint,
            pool,
            next_handle_id: AtomicU64::new(0),
            collector,
            partition,
            obs,
            requests_served,
            fallbacks_taken,
            matrices_registered,
            request_hist,
            plan_hist,
            pool_queued_gauge,
        }
    }

    /// Host execution pool matching the service's target backend: `None`
    /// (serial) for the Serial engine, otherwise the service's own pool or
    /// the process-wide one (OpenMP targets run threaded; simulated GPU
    /// targets have no host device, so the threaded backend is the closest
    /// host execution).
    fn exec_pool(&self) -> Option<&ThreadPool> {
        match self.engine.backend() {
            morpheus_machine::Backend::Serial => None,
            _ => Some(match &self.pool {
                ServicePool::Global => morpheus_parallel::global_pool(),
                ServicePool::Owned(pool) => pool,
            }),
        }
    }

    /// The pool a cold registration's analysis walk and BELL/ELL/HYB fill
    /// run on: the service's own pool, when it executes on one. A service
    /// on the process-wide pool keeps its cold path on the calling thread:
    /// that pool is shared, and a fork onto its parked workers cost the
    /// analysis what the split saved (README, "Cold path").
    fn cold_pool(&self) -> Option<&ThreadPool> {
        self.exec_pool().filter(|_| matches!(self.pool, ServicePool::Owned(_)))
    }

    /// Tunes `m` for SpMV: selects a format (from cache when the structure
    /// was seen before) and switches `m` to it in place.
    ///
    /// If the predicted format cannot be materialised (padding beyond
    /// `ConvertOptions::max_fill`, which can happen when an ML model
    /// mispredicts on an adversarial sparsity pattern), the matrix falls
    /// back to CSR — the general-purpose default — rather than failing.
    /// A COO `m` is moved into CSR before it is hashed (see
    /// [`OracleService::register`]): its decision is keyed by the CSR form,
    /// and the report still names COO as `previous`.
    pub fn tune<V>(&self, m: &mut DynamicMatrix<V>) -> Result<TuneReport>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        self.tune_for(m, Op::Spmv)
    }

    /// [`OracleService::tune`] for an arbitrary operation.
    ///
    /// On a cache miss the service builds one shared [`Analysis`](morpheus::Analysis) of the
    /// matrix (reusing the hash it just computed for the cache key; its row
    /// side alone when the decision needs no entry walk, see the
    /// [module docs](self)) and threads it through feature extraction *and*
    /// the eventual format conversion, so planning the target layout never
    /// re-traverses the matrix. On a hit, only the hash and the conversion are paid for.
    /// A COO `m` enters as CSR, as in [`OracleService::register`].
    /// Concurrent misses on the same key may each run the tuner; the
    /// bundled tuners are deterministic, so the duplicated inserts agree
    /// and none is lost.
    pub fn tune_for<V>(&self, m: &mut DynamicMatrix<V>, op: Op) -> Result<TuneReport>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        let facts = self.ingest(m, false)?;
        let decided = self.decide(m, op, facts, Asker::Tune);
        // The caller keeps the switched matrix and may tune it again.
        self.realize(m, decided, op).map(|(report, _)| report)
    }

    /// The front door of every serving entry point: moves a COO source (when
    /// `sharding`, any source but CSR) into CSR — columns and values move, the
    /// offsets are one pass of stores, the row array is freed — then hashes
    /// it, so the key, the walk, the row lengths and the builders read CSR.
    fn ingest<V: Scalar>(&self, m: &mut DynamicMatrix<V>, sharding: bool) -> Result<Facts> {
        let previous = m.format_id();
        if previous == FormatId::Csr || (previous != FormatId::Coo && !sharding) {
            return Ok(Facts::hashed(m));
        }
        let t0 = Instant::now();
        let source = std::mem::replace(m, DynamicMatrix::Coo(CooMatrix::new(0, 0)));
        *m = source.into_format(FormatId::Csr, &self.opts)?;
        Ok(Facts { moved: Some((previous, t0.elapsed().as_secs_f64())), ..Facts::hashed(m) })
    }

    /// Tunes `m` for `op`, then executes it once: the body of
    /// `tune_and_spmv`/`tune_and_spmm`. The call serves one execution, and
    /// pays for a conversion only when that execution repays it (Eq. 2 at
    /// N = 1: `c + r < 1`, the decision's horizon).
    ///
    /// A matrix that converts (or is in the decided format already) runs
    /// [`Self::execute`]'s ladder, with the plan acquired (from its decision
    /// entry, or built and left there) on the way — except on a serial
    /// backend, and on a busy pool with caching off, where a plan would be
    /// built to be thrown away: `spmv_serial`/`spmm_serial` run the same
    /// bodies over one part instead. [`TuneReport::serial_fallback`]
    /// reports a busy pool; a plan acquired then still keeps the cache warm
    /// for the next uncontended call.
    ///
    /// A matrix whose horizon keeps it stays as it was ingested and runs its
    /// own bodies — no conversion, no alias hash, nothing stored in the
    /// decision's plan slot: on a pool of several workers (the width the
    /// horizon's `c` and `r` were priced for) through a plan built for them
    /// and dropped after the call, O(rows) for a CSR source, and on one
    /// worker or a busy pool `spmv_serial`/`spmm_serial`. The report names
    /// the decision as `predicted` and the source as `chosen`; a miss left
    /// the decision (with its horizon) in the cache, for a later
    /// registration or `tune` to convert.
    ///
    /// Telemetry skips calls that built a fresh plan inside the timed window
    /// (their elapsed time includes plan construction and would poison the
    /// kernel mean); the steady state — reused plans and serial executions —
    /// is what the adaptive subsystem learns from. A kept source's samples
    /// carry the default parameters' code: the source has none of the
    /// decision's.
    fn tune_and_run<V>(&self, m: &mut DynamicMatrix<V>, op: Op, x: &[V], y: &mut [V]) -> Result<TuneReport>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        let facts = self.ingest(m, false)?;
        let mut decided = self.decide(m, op, facts, Asker::PerCall);
        self.price_open_horizon(m, op, &mut decided);
        let source = m.format_id();
        let keeps = decided.entry.horizon.is_some_and(|h| h.keeps(source, decided.entry.decision.format));
        let mut report = if keeps {
            decided.report(op, source, source, ConvertOutcome::identity())
        } else {
            // The caller keeps the switched matrix and may tune it again.
            let (report, realized) = self.realize(m, decided, op)?;
            decided = realized;
            report
        };
        let trace = self.obs.mint_trace();
        let t0 = (self.collector.is_some() || self.obs.enabled()).then(Instant::now);
        let pool = self.exec_pool().filter(|pool| !keeps || pool.num_threads() > 1);
        report.serial_fallback = pool.is_some_and(|pool| self.take_serial_fallback(pool));
        // Busy with no cache to warm: skip the wasted plan construction.
        let planned = pool.filter(|_| !report.serial_fallback || (!keeps && self.decisions.capacity() > 0));
        let plan = planned.map(|pool| {
            if keeps {
                return Arc::new(ExecPlan::build(m, pool.num_threads(), decided.facts.analysis.as_ref()));
            }
            let (plan, status) = self.acquire_plan(m, &mut decided, pool.num_threads(), Some(trace));
            report.plan = status;
            plan
        });
        let pool = pool.filter(|_| !report.serial_fallback);
        match (plan, op) {
            (Some(plan), op) => plan.run(m, op, x, y, pool)?,
            (None, Op::Spmv) => morpheus::spmv::spmv_serial(m, x, y)?,
            (None, Op::Spmm { k }) => morpheus::spmm::spmm_serial(m, x, y, k)?,
        }
        if let Some(t0) = t0 {
            let elapsed = t0.elapsed();
            if report.plan != PlanStatus::Built {
                let params = if keeps { FormatParams::default() } else { decided.entry.decision.params };
                let (structure, workers) = (decided.facts.hash, pool.map_or(1, ThreadPool::num_threads));
                self.record_execution::<V>(structure, m.format_id(), params.code(), op, workers, elapsed);
            }
            self.observe_request(trace, t0, elapsed);
        }
        Ok(report)
    }

    /// Tunes `m` for SpMV, then executes `y = A x` once.
    ///
    /// The call serves one execution, so it pays for a conversion only when
    /// that execution repays it: `c + r < 1`, the engine's predicted
    /// conversion cost and per-execution ratio in executions of the ingested
    /// source, recorded with the decision (see the [module docs](self)).
    /// Otherwise `m` stays in the format it was ingested in (a COO source
    /// moves into CSR at the front door) and `y` is that format's own body,
    /// `spmv_serial` of it: no conversion, no alias hash, no plan, and the
    /// report has `predicted` = the decision, `chosen` = the source and
    /// [`PlanStatus::Unplanned`]. To iterate, [`register`](Self::register)
    /// once and call [`spmv`](Self::spmv); [`tune`](Self::tune) converts as
    /// decided.
    ///
    /// A matrix that converts — or is already in the decided format — runs
    /// on the execution backend matching the engine (serial for a Serial
    /// engine, the service's pool otherwise) through the decision's cached
    /// [`ExecPlan`]: the first such call builds it (`report.plan ==
    /// PlanStatus::Built`), later ones replay it (`PlanStatus::Reused`). If
    /// the pool is busy with another client's batch, the plan's bodies run
    /// inline on the calling thread — bitwise identical to the pooled
    /// execution — and [`TuneReport::serial_fallback`] says so; a private
    /// pool ([`crate::OracleBuilder::workers`]) keeps other pool users out.
    pub fn tune_and_spmv<V>(&self, m: &mut DynamicMatrix<V>, x: &[V], y: &mut [V]) -> Result<TuneReport>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        self.tune_and_run(m, Op::Spmv, x, y)
    }

    /// Tunes `m` for SpMM with `k` right-hand sides, then executes
    /// `Y = A X` (`x` row-major `ncols x k`, `y` row-major `nrows x k`) once,
    /// as [`OracleService::tune_and_spmv`] does for one: converting only
    /// when one SpMM repays it (its decision's `c` and `r` are priced for
    /// SpMM with `k` right-hand sides), `spmm_serial` of the source
    /// otherwise. To iterate, [`register_for`](Self::register_for)
    /// `Op::Spmm { k }` once and call [`spmm`](Self::spmm). SpMV and SpMM
    /// replay the same kind of plan — the row partition depends only on the
    /// structure — each under its own decision.
    pub fn tune_and_spmm<V>(
        &self,
        m: &mut DynamicMatrix<V>,
        x: &[V],
        y: &mut [V],
        k: usize,
    ) -> Result<TuneReport>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        self.tune_and_run(m, Op::Spmm { k }, x, y)
    }

    /// Registers `m` for serving: tunes it for SpMV, converts it to the
    /// selected format and builds (or fetches from the shared cache) its
    /// execution plan — the whole §VII-E amortisation paid here, once.
    /// The returned handle executes through
    /// [`OracleService::spmv`]/[`OracleService::spmm`] with zero locks and
    /// zero per-call allocation from any number of threads.
    ///
    /// A COO source is moved into CSR before it is hashed: a COO matrix and
    /// its CSR copy share one decision and one plan. The report still names
    /// COO as `previous`, and its `convert` includes the move.
    pub fn register<V>(&self, m: DynamicMatrix<V>) -> Result<MatrixHandle<V>>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        self.register_for(m, Op::Spmv)
    }

    /// [`OracleService::register`] tuned for an arbitrary operation (the
    /// plan is operation-agnostic; only the format selection differs).
    ///
    /// Each registration counts once in the registry counter
    /// `serve.matrices_registered`; the service keeps nothing else of it.
    /// There is no deregistration: handles own their matrix and plan via
    /// `Arc` and free them on drop, and what a handle holds (format, shape,
    /// shards, report) is read off the handle itself.
    pub fn register_for<V>(&self, mut m: DynamicMatrix<V>, op: Op) -> Result<MatrixHandle<V>>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        let facts = self.ingest(&mut m, false)?;
        self.register_single_for(m, op, facts)
    }

    /// The whole-matrix registration path: one tune, one conversion, one
    /// plan. `facts` carries whatever the caller already computed about
    /// `m` (at least its hash), so nothing is derived twice.
    fn register_single_for<V>(&self, mut m: DynamicMatrix<V>, op: Op, facts: Facts) -> Result<MatrixHandle<V>>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        let decided = self.decide(&m, op, facts, Asker::Register);
        let (mut report, mut decided) = self.realize(&mut m, decided, op)?;
        let (plan, status) = self.acquire_plan(&m, &mut decided, self.workers(), Some(TraceId::NONE));
        report.plan = status;
        let (structure, param_code) = (decided.facts.hash, decided.entry.decision.params.code());
        let id = self.next_handle_id.fetch_add(1, Ordering::Relaxed);
        self.matrices_registered.inc();
        let stored = Stored::Single { matrix: m, structure, param_code, plan };
        Ok(MatrixHandle { inner: Arc::new(Registered { id, stored, report }) })
    }

    /// [`OracleService::register`] — unless the service's
    /// [`PartitionPolicy`] forces shards (`cost_gate: false`): then the
    /// matrix is served as row-range shards cut along the row-nnz histogram
    /// (balanced nnz, boundaries snapped to regime shifts), each decided,
    /// converted and planned on its own. This is the only way to a sharded
    /// handle.
    ///
    /// Under the default policy it *is* `register`: the same decision, the
    /// same handle, the same report. Nothing weighs whether sharding would
    /// pay: measured end to end, serving whole cost less and ran no slower
    /// warm (README, "Partitioned handles").
    ///
    /// A forced registration moves its source into CSR, chooses the
    /// partition from the CSR offsets ([`Partition::from_row_prefix`]: no
    /// walk of the entries) and splits the matrix into CSR pieces; each is
    /// keyed in the decision cache by its own structure hash. A matrix with
    /// too few entries for two shards ([`PartitionConfig::shards_wanted`])
    /// is registered like `register` (a COO one moved into CSR, any other
    /// as it came), and one whose partition comes out as a single shard is
    /// registered whole from its CSR form. The report's `previous` is the
    /// caller's format either way.
    pub fn register_partitioned<V>(&self, m: DynamicMatrix<V>) -> Result<MatrixHandle<V>>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        self.register_partitioned_for(m, Op::Spmv)
    }

    /// [`OracleService::register_partitioned`] tuned for an arbitrary
    /// operation.
    pub fn register_partitioned_for<V>(&self, mut m: DynamicMatrix<V>, op: Op) -> Result<MatrixHandle<V>>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        let config = self.partition.config(self.workers());
        let sharding = !self.partition.cost_gate && config.shards_wanted(m.nnz()) > 1;
        let whole = self.ingest(&mut m, sharding)?;
        if !sharding {
            return self.register_single_for(m, op, whole);
        }
        let DynamicMatrix::Csr(csr) = &m else { unreachable!("a sharded source is moved into CSR") };
        let prefix: Vec<u64> = csr.row_offsets().iter().map(|&o| o as u64).collect();
        let partition = Partition::from_row_prefix(&prefix, &config);
        if partition.num_shards() <= 1 {
            return self.register_single_for(m, op, whole);
        }
        let pieces = partition.ranges().zip(split_rows(csr, &partition)?);
        let moved = whole.moved.unwrap_or((FormatId::Csr, 0.0));
        self.register_shards(m.nrows(), m.ncols(), pieces, moved, op)
    }

    /// Registers a matrix from a row-major entry stream, whole. Rows must
    /// arrive in non-decreasing order, columns within a row in any order;
    /// the entries go straight into one CSR matrix ([`CsrBuilder`]: no row
    /// array, no COO copy), duplicates summed in push order as
    /// [`CooBuilder::build`](morpheus::CooBuilder::build) sums them. So
    /// this is [`OracleService::register`] of the same entries assembled
    /// through a builder, bit for bit: the same key, decision, format and
    /// arrays. An entry out of bounds or a row after a later one is a typed
    /// error.
    pub fn register_stream<V, I>(&self, nrows: usize, ncols: usize, entries: I) -> Result<MatrixHandle<V>>
    where
        V: Scalar,
        T: FormatTuner<V>,
        I: IntoIterator<Item = (usize, usize, V)>,
    {
        let mut builder = CsrBuilder::new(nrows, ncols);
        for (r, c, v) in entries {
            builder.push(r, c, v)?;
        }
        self.register(DynamicMatrix::from(builder.build()))
    }

    /// The one per-shard pipeline of a sharded registration: each
    /// `(rows, CSR)` piece is hashed and decided under its own structure
    /// hash (so adaptive learning and repeat registrations see shard-level
    /// populations), converted, and planned for single-threaded execution
    /// (parallelism comes from running shards concurrently). The handle's
    /// report folds the shards': summed conversion seconds and tuning costs,
    /// a cache hit and a reused plan only while every shard's was one.
    /// `(previous, moved)` are the caller's format and the seconds the front
    /// door took to move it into CSR.
    fn register_shards<V>(
        &self,
        nrows: usize,
        ncols: usize,
        pieces: impl IntoIterator<Item = (Range<usize>, CsrMatrix<V>)>,
        (previous, moved): (FormatId, f64),
        op: Op,
    ) -> Result<MatrixHandle<V>>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        let (mut convert_seconds, mut converted) = (moved, previous != FormatId::Csr);
        let (mut cost, mut plan_status) = (TuningCost::cached(), PlanStatus::Reused);
        let (mut shards, mut param_codes) = (Vec::new(), Vec::new());
        for (rows, csr) in pieces {
            let mut sm = DynamicMatrix::from(csr);
            let decided = self.decide(&sm, op, Facts::hashed(&sm), Asker::Register);
            let (report, mut decided) = self.realize(&mut sm, decided, op)?;
            convert_seconds += report.convert.seconds;
            converted |= report.converted;
            cost.feature_extraction += report.cost.feature_extraction;
            cost.prediction += report.cost.prediction;
            cost.profiling += report.cost.profiling;
            cost.measured += report.cost.measured;
            cost.cache_hit &= report.cache_hit;
            let (plan, status) = self.acquire_plan(&sm, &mut decided, 1, None);
            if status != PlanStatus::Reused {
                plan_status = PlanStatus::Built;
            }
            param_codes.push(decided.entry.decision.params.code());
            shards.push(Shard::new(rows, sm, plan, decided.facts.hash));
        }
        let pm = PartitionedMatrix::from_shards(nrows, ncols, shards, self.workers())?;
        let chosen = pm.dominant_format();
        let convert = if converted {
            // Shards are split out as CSR, which converts directly to
            // every format (and the front door's move is direct too).
            ConvertOutcome { path: ConvertPath::Direct, seconds: convert_seconds }
        } else {
            ConvertOutcome::identity()
        };
        let report = TuneReport {
            chosen,
            previous,
            predicted: chosen,
            cost,
            converted,
            op,
            cache_hit: cost.cache_hit,
            plan: plan_status,
            serial_fallback: false,
            convert,
            shards: pm.num_shards(),
        };
        let id = self.next_handle_id.fetch_add(1, Ordering::Relaxed);
        self.matrices_registered.inc();
        let stored = Stored::Partitioned { matrix: pm, param_codes: param_codes.into() };
        Ok(MatrixHandle { inner: Arc::new(Registered { id, stored, report }) })
    }

    /// `y = A x` through a registered handle: the zero-lock steady state.
    /// Serial engines replay the handle's plan inline; threaded engines
    /// replay it across the pool, or — when the pool is busy with another
    /// client's batch — inline on the calling thread, bitwise identical to
    /// the pooled execution.
    /// With a [`SampleCollector`] attached, each execution is additionally
    /// timestamped and its measured wall time attributed to the handle's
    /// `(structure, format, op, scalar, workers)` telemetry population —
    /// two clock reads and a few lock-free atomics on top of the kernel.
    pub fn spmv<V: Scalar>(&self, handle: &MatrixHandle<V>, x: &[V], y: &mut [V]) -> Result<()> {
        self.request(handle, Op::Spmv, x, y)
    }

    /// `Y = A X` (`k` right-hand sides) through a registered handle.
    pub fn spmm<V: Scalar>(&self, handle: &MatrixHandle<V>, x: &[V], y: &mut [V], k: usize) -> Result<()> {
        self.request(handle, Op::Spmm { k }, x, y)
    }

    /// [`OracleService::spmv`] into a caller-owned (per-thread)
    /// [`Workspace`]: zero allocation once the workspace reached size.
    pub fn spmv_into<'w, V: Scalar>(
        &self,
        handle: &MatrixHandle<V>,
        x: &[V],
        ws: &'w mut Workspace<V>,
    ) -> Result<&'w [V]> {
        self.request_into(handle, Op::Spmv, x, ws)
    }

    /// [`OracleService::spmm`] into a caller-owned (per-thread)
    /// [`Workspace`].
    pub fn spmm_into<'w, V: Scalar>(
        &self,
        handle: &MatrixHandle<V>,
        x: &[V],
        k: usize,
        ws: &'w mut Workspace<V>,
    ) -> Result<&'w [V]> {
        self.request_into(handle, Op::Spmm { k }, x, ws)
    }

    fn request_into<'w, V: Scalar>(
        &self,
        handle: &MatrixHandle<V>,
        op: Op,
        x: &[V],
        ws: &'w mut Workspace<V>,
    ) -> Result<&'w [V]> {
        let out = ws.run(handle.nrows() * op.rhs_count(), |y| {
            self.request(handle, op, x, y).map_err(|e| match e {
                OracleError::Morpheus(m) => m,
                other => panic!("handle execution only surfaces matrix errors: {other}"),
            })
        })?;
        Ok(out)
    }

    /// The service's observability hub: the unified metrics registry, the
    /// span tracer and the slow-request flight recorder. Shared (same
    /// `Arc`) with every [`crate::ingress::Ingress`] started on this
    /// service, so one scrape sees all layers.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// One point-in-time view of every registered metric plus tracer
    /// bookkeeping, with point-in-time gauges (`pool.jobs_queued`)
    /// refreshed first. This is the scrape entry point —
    /// feed it to [`crate::obs::expose::metric_lines`] /
    /// [`crate::obs::expose::render_json`] for exposition.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        self.pool_queued_gauge.set(self.exec_pool().map_or(0, |p| p.queued_jobs() as u64));
        self.obs.snapshot()
    }

    /// The attached measured-kernel collector, when adaptive sampling was
    /// enabled at build time ([`crate::OracleBuilder::collector`]).
    pub fn collector(&self) -> Option<&Arc<SampleCollector>> {
        self.collector.as_ref()
    }

    /// The engine decisions are made for.
    pub fn engine(&self) -> &VirtualEngine {
        &self.engine
    }

    /// The tuning strategy.
    pub fn tuner(&self) -> &T {
        &self.tuner
    }

    /// The conversion policy applied when switching formats: its guards
    /// and HYB split; the layout parameters come from each decision (these
    /// options' `params` are the defaults).
    pub fn convert_options(&self) -> &ConvertOptions {
        &self.opts
    }

    /// Worker count threaded executions are planned for (1 on serial
    /// engines).
    pub fn workers(&self) -> usize {
        self.exec_pool().map_or(1, |p| p.num_threads())
    }

    /// Hit/miss counters and occupancy of the decision cache, aggregated
    /// atomically across shards.
    pub fn cache_stats(&self) -> CacheStats {
        self.decisions.stats()
    }

    /// Plan reuse: a hit is a plan found in its decision entry, a miss one
    /// that had to be built (nothing is counted with caching disabled);
    /// `len` is the number of cached decisions holding a plan, `capacity`
    /// the decision cache's.
    pub fn plan_cache_stats(&self) -> CacheStats {
        let mut len = 0;
        self.decisions.for_each(|_, d| len += usize::from(d.plan.lock().is_some()));
        CacheStats {
            hits: self.plan_hits.load(Ordering::Relaxed),
            misses: self.plan_misses.load(Ordering::Relaxed),
            len,
            capacity: self.decisions.capacity(),
        }
    }

    /// Forgets every cached decision — with it the plan it holds — and
    /// every re-tune alias (counters are kept). Registered handles are
    /// unaffected: they own their plans.
    pub fn clear_cache(&self) {
        self.decisions.clear();
        self.aliases.clear();
    }
}

/// Hash of the engine's (system, backend) identity. Within one service the
/// engine never changes, so this component never distinguishes entries
/// today — it is part of the key so cached decisions stay self-describing,
/// and it gates decision imports. Note it covers the label only: engines
/// differing merely in calibration or noise parameters collide, so it is
/// NOT sufficient on its own to merge caches across arbitrary services.
///
/// FNV-1a rather than `DefaultHasher`: the fingerprint is written into
/// exported decision files, and std's hasher algorithm is explicitly
/// unspecified across Rust releases — a toolchain upgrade must not
/// invalidate every previously exported warm-start file.
pub(crate) fn fingerprint_engine(engine: &VirtualEngine) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in engine.label().as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::decide::Table;
    use super::*;
    use crate::tuner::{RunFirstTuner, TuneDecision};
    use crate::Oracle;
    use morpheus::CooMatrix;
    use morpheus_machine::{systems, Backend};

    pub(super) fn tridiag(n: usize) -> DynamicMatrix<f64> {
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

    pub(super) fn make_service(workers: usize) -> OracleService<RunFirstTuner> {
        Oracle::builder()
            .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
            .tuner(RunFirstTuner::new(2))
            .workers(workers)
            .build_service()
            .unwrap()
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<S: Send + Sync>() {}
        assert_send_sync::<OracleService<RunFirstTuner>>();
        assert_send_sync::<MatrixHandle<f64>>();
    }

    /// ROADMAP item 4c's first rung: a format whose index width cannot hold
    /// the matrix is a typed conversion error, and the service answers it
    /// like any non-viable prediction — with the paper's CSR fallback.
    #[test]
    fn index_overflow_falls_back_to_csr() {
        let service = make_service(1);
        let wide = u32::MAX as usize + 2;
        // The ELL family — BELL, and ELL and HYB, one-bucket BELL — stores
        // 4-byte indices.
        for format in [FormatId::Bell, FormatId::Ell, FormatId::Hyb] {
            let mut m =
                DynamicMatrix::from(CooMatrix::from_triplets(1, wide, &[0], &[wide - 1], &[2.0f64]).unwrap());
            assert!(matches!(
                m.to_format(format, &ConvertOptions::default()),
                Err(morpheus::MorpheusError::IndexOverflow { .. })
            ));
            // The format is decided for the structure by seeding the
            // decision cache: consulting a tuner — and building the plan
            // `register` ends with — takes an `Analysis`, whose diagonal
            // histogram has `nrows + ncols` slots (16 GiB here), so `tune`
            // on a hit is as far as a matrix this wide can be driven.
            let key = CacheKey {
                structure: m.to_format(FormatId::Csr, &ConvertOptions::default()).unwrap().structure_hash(),
                scalar_bytes: std::mem::size_of::<f64>(),
                engine: service.engine_fingerprint,
                op: Op::Spmv,
            };
            let decision =
                TuneDecision { format, params: Default::default(), op: Op::Spmv, cost: TuningCost::cached() };
            let seeded = CachedDecision::new(decision, None);
            service.store(Table::Decisions, key, seeded, service.generations(), true);

            let report = service.tune(&mut m).unwrap();
            assert!(report.cache_hit);
            assert_eq!((report.predicted, report.chosen), (format, FormatId::Csr));
            assert_eq!(m.format_id(), FormatId::Csr);
            assert_eq!(m.to_coo().iter().collect::<Vec<_>>(), vec![(0, wide - 1, 2.0)]);
        }
    }

    /// A BELL ladder is any `usize` a parameter token carries: one whose top
    /// bucket would take petabytes is excessive padding, and a BELL decision
    /// imported with it — the token alone reaches the conversion — is
    /// answered with the CSR fallback. It used to abort the process on the
    /// allocation.
    #[test]
    fn an_imported_ladder_too_wide_to_allocate_falls_back_to_csr() {
        let token = "bell=1,1099511627776";
        let service = make_service(1);
        let m = tridiag(300);
        let file = format!(
            "morpheus-oracle-decisions v3\nengine {:016x}\nentries 1\ndecision {:016x} 8 spmv BELL {token}\nend\n",
            service.engine_fingerprint,
            m.to_format(FormatId::Csr, &ConvertOptions::default()).unwrap().structure_hash()
        );
        assert_eq!(service.import_decisions(std::io::Cursor::new(file.as_bytes())).unwrap(), 1);

        let handle = service.register(m.clone()).unwrap();
        assert!(handle.report().cache_hit);
        assert_eq!((handle.report().predicted, handle.format_id()), (FormatId::Bell, FormatId::Csr));
        let report = service.tune(&mut m.clone()).unwrap();
        assert_eq!((report.predicted, report.chosen), (FormatId::Csr, FormatId::Csr));
        let (x, mut y) = (vec![1.0f64; 300], vec![0.0f64; 300]);
        service.spmv(&handle, &x, &mut y).unwrap();
        assert_eq!((y[0], y[150], y[299]), (2.0, 3.0, 2.0), "row sums of the tridiagonal");
    }

    #[test]
    fn register_then_execute_matches_serial() {
        let service = make_service(2);
        let m = tridiag(600);
        let x: Vec<f64> = (0..600).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut y_ref = vec![0.0; 600];
        morpheus::spmv::spmv_serial(&m, &x, &mut y_ref).unwrap();

        let handle = service.register(m).unwrap();
        assert_eq!(handle.format_id(), handle.report().chosen);
        assert_eq!(handle.report().plan, PlanStatus::Built);
        let mut y = vec![f64::NAN; 600];
        service.spmv(&handle, &x, &mut y).unwrap();
        // The tuned format differs from COO, but the result is the serial
        // result of the *converted* matrix — still the same linear map.
        let mut y_conv = vec![0.0; 600];
        morpheus::spmv::spmv_serial(handle.matrix(), &x, &mut y_conv).unwrap();
        assert_eq!(y, y_conv);
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-9);
        }
        let metrics = service.obs_snapshot().metrics;
        assert_eq!(metrics.counter("serve.requests_served"), 1);
        assert_eq!(metrics.counter("serve.matrices_registered"), 1);
    }

    #[test]
    fn second_registration_of_same_structure_reuses_decision_and_plan() {
        let service = make_service(2);
        let h1 = service.register(tridiag(900)).unwrap();
        assert!(!h1.report().cache_hit);
        assert_eq!(h1.report().plan, PlanStatus::Built);
        let h2 = service.register(tridiag(900)).unwrap();
        assert!(h2.report().cache_hit, "identical structure must hit the decision cache");
        assert_eq!(h2.report().plan, PlanStatus::Reused, "and reuse the shared plan");
        assert_ne!(h1.id(), h2.id());
        assert_eq!(service.obs_snapshot().metrics.counter("serve.matrices_registered"), 2);
    }

    #[test]
    fn handles_share_one_plan_allocation() {
        let service = make_service(2);
        let h1 = service.register(tridiag(700)).unwrap();
        let h2 = service.register(tridiag(700)).unwrap();
        assert!(
            std::ptr::eq(h1.plan(), h2.plan()) || h1.plan().num_parts() == h2.plan().num_parts(),
            "same structure must reuse the cached plan"
        );
        // The Arc behind both handles is literally the same plan object.
        assert!(std::ptr::eq(h1.plan(), h2.plan()));
    }

    #[test]
    fn workspace_variants_match_and_do_not_reallocate() {
        let service = make_service(2);
        let m = tridiag(500);
        let x = vec![1.25f64; 500];
        let handle = service.register(m).unwrap();
        let mut y = vec![0.0; 500];
        service.spmv(&handle, &x, &mut y).unwrap();

        let mut ws = Workspace::new();
        let first = service.spmv_into(&handle, &x, &mut ws).unwrap().to_vec();
        assert_eq!(first, y);
        let cap = ws.capacity();
        let _ = service.spmv_into(&handle, &x, &mut ws).unwrap();
        assert_eq!(ws.capacity(), cap, "steady-state requests must not reallocate");

        let k = 3;
        let xk = vec![0.5f64; 500 * k];
        let mut yk = vec![0.0; 500 * k];
        service.spmm(&handle, &xk, &mut yk, k).unwrap();
        let mut wsk = Workspace::new();
        assert_eq!(service.spmm_into(&handle, &xk, k, &mut wsk).unwrap(), yk.as_slice());
    }

    /// Rung 1 of the ladder (see `OracleService::execute`).
    #[test]
    fn serial_engine_service_runs_serial() {
        let service = Oracle::builder()
            .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
            .tuner(RunFirstTuner::new(2))
            .build_service()
            .unwrap();
        assert_eq!(service.workers(), 1);
        let m = tridiag(300);
        let x: Vec<f64> = (0..300).map(|i| (i as f64 * 0.37).sin()).collect();
        let handle = service.register(m).unwrap();
        let mut y = vec![f64::NAN; 300];
        service.spmv(&handle, &x, &mut y).unwrap();
        let mut y_conv = vec![0.0; 300];
        morpheus::spmv::spmv_serial(handle.matrix(), &x, &mut y_conv).unwrap();
        assert_eq!(y, y_conv);
        // Rung 1 of the ladder: the stored plan, inline.
        assert_eq!(handle.plan().threads(), 1);
        let mut y_plan = vec![f64::NAN; 300];
        handle.plan().spmv_unpooled(handle.matrix(), &x, &mut y_plan).unwrap();
        let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&y_plan), "a Serial-engine handle runs its stored plan");
    }

    /// Rung 3 of the ladder (see `OracleService::execute`), direct and
    /// per-call.
    #[test]
    fn busy_pool_takes_the_serial_fallback() {
        let service = make_service(2);
        let handle = service.register(tridiag(400)).unwrap();
        let x = vec![1.0f64; 400];
        let mut y_free = vec![0.0f64; 400];
        service.spmv(&handle, &x, &mut y_free).unwrap();
        // Switched by `tune`, a matrix is in its decided format, and a
        // per-call tune of it executes planned.
        let mut m = tridiag(400);
        assert_eq!(service.tune(&mut m).unwrap().chosen, handle.format_id());

        // Occupy the service's own pool from a "client" thread, then
        // execute: the request must complete (the plan's bodies inline), be
        // counted, and agree bitwise with the planned result.
        let pool = service.exec_pool().expect("OpenMP service has a pool");
        let gate = std::sync::Barrier::new(2);
        let mut y_busy = vec![0.0f64; 400];
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.run_on_all(&|w| {
                    if w == 0 {
                        gate.wait();
                    }
                });
            });
            while !pool.is_busy() {
                std::thread::yield_now();
            }
            service.spmv(&handle, &x, &mut y_busy).unwrap();
            // Per-call tuning under a busy pool also falls back — and says
            // so in the report, while still warming the plan cache.
            let mut y_tuned = vec![0.0f64; 400];
            let r = service.tune_and_spmv(&mut m, &x, &mut y_tuned).unwrap();
            assert!(r.serial_fallback, "busy pool must be reported on the tune path");
            assert_ne!(r.plan, PlanStatus::Unplanned, "fallback still acquires the plan");
            assert_eq!(y_tuned, y_free);
            gate.wait();
        });
        assert_eq!(y_busy, y_free, "fallback must be bitwise identical");
        assert!(service.obs_snapshot().metrics.counter("serve.fallbacks_taken") >= 2);
    }

    #[test]
    fn decisions_round_trip_through_export_import() {
        let service = make_service(2);
        // Tune a few structures, one of which converts (aliased entry).
        let mut a = tridiag(800);
        let mut b = tridiag(1300);
        service.tune(&mut a).unwrap();
        service.tune(&mut b).unwrap();
        let mut c = tridiag(800);
        service.tune_for(&mut c, Op::Spmm { k: 4 }).unwrap();

        let mut buf = Vec::new();
        service.export_decisions(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("morpheus-oracle-decisions v3\n"), "{text}");
        assert!(text.trim_end().ends_with("end"));
        for line in text.lines().filter(|l| l.starts_with("decision ")) {
            assert_eq!(line.split_whitespace().count(), 6, "lines carry a params token: {line}");
        }

        // A restarted service imports and then serves the same structures
        // from cache — no cold-path tuning.
        let restarted = make_service(2);
        let imported = restarted.import_decisions(std::io::Cursor::new(&buf)).unwrap();
        assert!(imported >= 3, "at least one entry per tuned question, got {imported}");
        let mut a2 = tridiag(800);
        let r = restarted.tune(&mut a2).unwrap();
        assert!(r.cache_hit, "warm-started service must skip tuning");
        assert_eq!(r.chosen, a.format_id());
        // The file carries no plans: a handle registered off an imported
        // decision builds its plan on first use (and leaves it in the
        // entry).
        let warm = restarted.register(tridiag(1300)).unwrap();
        assert!(warm.report().cache_hit);
        assert_eq!(warm.report().plan, PlanStatus::Built);
        assert_eq!(restarted.register(tridiag(1300)).unwrap().report().plan, PlanStatus::Reused);
        // Exporting the restarted cache reproduces the same set.
        let mut buf2 = Vec::new();
        restarted.export_decisions(&mut buf2).unwrap();
        assert_eq!(buf, buf2, "round trip must be lossless");
    }

    #[test]
    fn comments_and_blank_lines_tolerated_in_decisions_files() {
        let service = make_service(2);
        let mut m = tridiag(420);
        service.tune(&mut m).unwrap();
        let mut buf = Vec::new();
        service.export_decisions(&mut buf).unwrap();
        let commented = format!("# warm start\n\n{}", String::from_utf8(buf).unwrap());
        let restarted = make_service(2);
        assert!(restarted.import_decisions(std::io::Cursor::new(commented.as_bytes())).unwrap() >= 1);
    }

    #[test]
    fn shared_service_tunes_concurrently() {
        let service = std::sync::Arc::new(make_service(2));
        let reference = {
            let mut m = tridiag(1000);
            let oracle = Oracle::builder()
                .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
                .tuner(RunFirstTuner::new(2))
                .build_service()
                .unwrap();
            oracle.tune(&mut m).unwrap().chosen
        };
        std::thread::scope(|s| {
            for _ in 0..4 {
                let service = std::sync::Arc::clone(&service);
                s.spawn(move || {
                    for _ in 0..3 {
                        let mut m = tridiag(1000);
                        let r = service.tune(&mut m).unwrap();
                        assert_eq!(r.chosen, reference, "every client must see the same decision");
                    }
                });
            }
        });
        let stats = service.cache_stats();
        assert_eq!(stats.hits + stats.misses, 12, "every tune does exactly one counted lookup");
        assert!(stats.hits >= 8, "after the first misses the rest must hit: {stats:?}");
    }
}
