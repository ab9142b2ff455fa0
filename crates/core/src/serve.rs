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
//!   first decided on its row side alone ([`Analysis::of_rows`]: the
//!   offsets are the row histogram) and on sound bounds of the three
//!   features only the walk counts ([`Analysis::walk_bounds`]). When the
//!   bounds settle the model on COO, CSR, ELL, HYB or BELL — formats whose
//!   parameters read row facts only — that is the decision, bitwise what
//!   the walk would give, and a cold registration reads the matrix once,
//!   for its key. The horizon of such a decision is the engine's floor;
//!   where the floor leaves the conversion open, a registration or `tune`
//!   stores it marked open, and the first per-call tune of the structure —
//!   the one reader of a horizon — walks its own matrix to price it
//!   exactly and stores that. Otherwise the walk completes the same
//!   artifact ([`Analysis::take_entry_walk`]) and the view assembled from
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

use crate::adapt::{SampleCollector, SampleKey};
use crate::cache::{CacheKey, CacheStats, ShardedLru, DEFAULT_SHARDS};
use crate::features::FeatureVector;
use crate::obs::{Counter, Gauge, Histogram, Obs, ObsConfig, ObsSnapshot, Stage, TraceId};
use crate::tune::{PlanStatus, TuneReport};
use crate::tuner::{row_parameterized, FormatTuner, TuneDecision, TuningCost};
use crate::{OracleError, Result};
use morpheus::format::FormatId;
use morpheus::partition::{split_rows, Partition, Shard, StreamingPartitioner};
use morpheus::{
    Analysis, ConvertOptions, ConvertOutcome, ConvertPath, CooMatrix, CsrMatrix, DynamicMatrix, ExecPlan,
    FormatParams, PartitionConfig, PartitionedMatrix, Scalar, SharedRun, Workspace,
};
use morpheus_machine::{assemble, MatrixAnalysis, Op, Payback, VirtualEngine};
use morpheus_parallel::ThreadPool;
use std::any::Any;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

mod decisions;

/// Where a decision-cache entry keeps its execution plan: empty until the
/// first registration or execution under the decision builds one. The plan
/// is an `ExecPlan<V>`, `V` being the scalar of the entry's key — erased
/// because the scalar is part of the key, not of the cache's type.
type PlanSlot = parking_lot::Mutex<Option<Arc<dyn Any + Send + Sync>>>;

/// A decision-cache entry: the decision, the diagonals a DIA or HDC
/// realization stored and the plan of the keyed structure realized in that
/// format. What a hit needs comes with the lookup: no analysis, no
/// second cache, and — the layout being known — no walk to find diagonals.
#[derive(Debug, Clone)]
struct CachedDecision {
    decision: TuneDecision,
    /// [`DynamicMatrix::diagonal_layout`] of the matrix the miss realized,
    /// which a hit converts into ([`DynamicMatrix::convert_to_diagonals`]);
    /// `None` for the other formats, until the entry's conversion is known
    /// to hold, and for an imported decision (never written to a decisions
    /// file), whose hit finds the diagonals in a walk.
    layout: Option<Arc<[isize]>>,
    /// Shared by the copies of one entry (the one inserted when the tuner
    /// answered, the one that replaces it once the conversion is known to
    /// hold, the re-tune alias), so a plan built under any of them serves
    /// all; dropped with the last of them — on eviction,
    /// [`OracleService::clear_cache`] and a model hot-swap.
    plan: Arc<PlanSlot>,
    /// What converting into the decided format repays at a horizon of one,
    /// priced on the view the tuner answered on: what a per-call tune gates
    /// its conversion on, hit or miss, without a view. `None` for an
    /// imported decision, a CSR fallback and a view that could not price it:
    /// the per-call path then converts.
    horizon: Option<Horizon>,
    /// Set once a `tune` that kept its switched matrix aliased the decision
    /// under the switched structure; shared by the copies of one entry, so
    /// the switched structure is hashed at most once per entry.
    aliased: Arc<AtomicBool>,
}

impl CachedDecision {
    fn new(decision: TuneDecision, horizon: Option<Horizon>) -> Self {
        CachedDecision { decision, layout: None, plan: Arc::default(), horizon, aliased: Arc::default() }
    }
}

/// Eq. 2 at N = 1 for one decision: the engine's [`Payback`] of converting
/// out of `source`, the format the decided matrix was in — the conversion's
/// predicted cost `c` and the per-execution ratio `r`, both in executions of
/// `source` for the decision's op. Exact, or — decided without the entry
/// walk — floors: whose sum is at least one (the conversion cannot pay), or
/// below one, `open`, when a registration or `tune`, which converts
/// whatever the horizon, left it for the first per-call tune to price
/// ([`OracleService::price_open_horizon`]).
#[derive(Debug, Clone, Copy)]
struct Horizon {
    source: FormatId,
    payback: Payback,
    open: bool,
}

impl Horizon {
    /// A matrix already in the decided format: nothing to convert, `c = 0`
    /// and `r = 1`.
    fn stay(source: FormatId) -> Self {
        Horizon { source, payback: Payback { convert: 0.0, ratio: 1.0 }, open: false }
    }

    /// `true` when a per-call tune of a matrix in `format` keeps it there:
    /// the horizon was priced from that format, the decision names another,
    /// and one execution does not repay converting to it.
    fn keeps(&self, format: FormatId, decided: FormatId) -> bool {
        self.source == format && decided != format && !self.payback.repays_one()
    }
}

/// What the cold path knows about one matrix before converting it: the
/// structure hash it is keyed by and, once computed, the shared analysis
/// and the machine model's view of it. Each fact is computed at most once
/// per registration and handed from stage to stage (decide → realize →
/// plan) instead of being re-derived from the matrix.
struct Facts {
    hash: u64,
    analysis: Option<Analysis>,
    view: Option<MatrixAnalysis>,
    /// The caller's format and the seconds the front door took to move the
    /// matrix into CSR, when it did: the report's `previous` and `convert`.
    moved: Option<(FormatId, f64)>,
}

impl Facts {
    /// Only the structure hash (one index traversal) of `m`.
    fn hashed<V: Scalar>(m: &DynamicMatrix<V>) -> Facts {
        Facts { hash: m.structure_hash(), analysis: None, view: None, moved: None }
    }

    /// Takes the pricing walks (block counts, HDC remainder) the view lacks,
    /// each in a walk of `m`.
    fn take_pricing_walks<V: Scalar>(&mut self, m: &DynamicMatrix<V>) {
        let (Some(analysis), Some(view)) = (self.analysis.as_mut(), self.view.as_mut()) else {
            panic!("pricing walks are taken for a view that exists");
        };
        view.take_pricing_walks(m, analysis);
    }
}

/// The tuner's decision for one matrix, what it repays at a horizon of one,
/// and the generations of the decision cache and of the alias table it was
/// consulted under.
struct Answer {
    decision: TuneDecision,
    horizon: Option<Horizon>,
    generation: [u64; 2],
}

/// A format decision for one matrix, not yet acted on — what
/// `OracleService::decide` hands to `OracleService::realize`.
struct Decided {
    facts: Facts,
    key: CacheKey,
    decision: TuneDecision,
    /// The entry's diagonal layout, on a hit whose entry carries one.
    layout: Option<Arc<[isize]>>,
    /// The entry's plan slot: whatever the entry holds on a hit, empty on a
    /// miss.
    plan: Arc<PlanSlot>,
    /// The entry's horizon (see [`CachedDecision::horizon`]).
    horizon: Option<Horizon>,
    /// The entry's alias flag (see [`CachedDecision::aliased`]).
    aliased: Arc<AtomicBool>,
    cache_hit: bool,
    /// Generations of the decision cache and of the alias table the entry
    /// was found or the tuner consulted under: they gate the follow-up
    /// inserts (`realize`'s, an open horizon's price).
    generation: [u64; 2],
}

/// Who asks for a decision: what it is used for decides what it pays for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Asker {
    /// `register*`: converts whatever the horizon, and consumes its matrix.
    Register,
    /// `tune`: converts whatever the horizon, and keeps the switched matrix.
    Tune,
    /// `tune_and_*`: serves one execution, gated on the horizon.
    PerCall,
}

/// What one tuning call learned beyond the report: the structure hash the
/// matrix was decided under — the key its features are noted under, so the
/// one its measured executions are attributed to — the parameters it was
/// converted with, the entry's plan slot, and the shared analysis when the
/// decision needed one (on a decision-cache miss), reused for plan
/// construction.
struct TuneArtifacts {
    structure: u64,
    /// [`FormatParams::code`] of the decision's parameters, or of the
    /// defaults after a CSR fallback: the layout that was stored, as the
    /// label of its telemetry population.
    param_code: u8,
    analysis: Option<Analysis>,
    plan: Arc<PlanSlot>,
}

/// How a queued SpMV started ([`OracleService::start_queued`]).
pub(crate) enum QueuedStart<V: Scalar> {
    /// It ran whole on the executor that took it: the reply.
    Ran(Vec<V>),
    /// It runs inline, in parts that every ingress executor may claim.
    Shared(QueuedParts<V>),
}

/// A queued SpMV's shared run, with what its one telemetry sample needs.
pub(crate) struct QueuedParts<V: Scalar> {
    pub(crate) run: SharedRun<V>,
    /// When the run was opened, with a collector attached or tracing on.
    t0: Option<Instant>,
    /// Executors that ran at least one part.
    executors: AtomicUsize,
}

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
/// how [`OracleService::register_stream`] and a forced
/// `register_partitioned` size their shards.
///
/// Under the default policy `register_partitioned` is `register`: the
/// matrix is served whole, in one format. Measured end to end, that cost
/// less at registration than sharding and ran no slower warm (README,
/// "Partitioned handles"), so nothing decides per matrix whether to shard.
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
    /// On a cache miss the service builds one shared [`Analysis`] of the
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
        self.realize(m, decided, op, true).map(|(report, _)| report)
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

    /// `m`'s shared analysis, `hash` being its structure hash — with the BSR
    /// block counts only when `blocks` (two thirds of the walk, read by
    /// nothing but BSR pricing). The walk without them runs on the
    /// [cold pool](Self::cold_pool).
    fn analyse<V: Scalar>(&self, m: &DynamicMatrix<V>, hash: u64, blocks: bool) -> Analysis {
        if blocks {
            Analysis::of_auto_with_hash(m, self.opts.true_diag_alpha, hash)
        } else {
            Analysis::without_block_counts(m, self.opts.true_diag_alpha, hash, self.cold_pool())
        }
    }

    /// The machine model's view of `m`, computed — with the analysis it
    /// derives from — on first use and kept in `facts`: with both pricing
    /// walks when `walks`, else from the analysis alone.
    fn view_of<'f, V: Scalar>(
        &self,
        m: &DynamicMatrix<V>,
        facts: &'f mut Facts,
        walks: bool,
    ) -> &'f MatrixAnalysis {
        if facts.view.is_none() {
            let analysis = facts.analysis.get_or_insert_with(|| self.analyse(m, facts.hash, walks));
            facts.view = Some(assemble(analysis, std::mem::size_of::<V>()));
            if walks {
                facts.take_pricing_walks(m);
            }
        }
        facts.view.as_ref().expect("view computed above")
    }

    /// The key of `structure` for `op` at `V`, and the entry it finds: in
    /// the decisions or, for a matrix `tune` switched earlier, the aliases.
    /// A registration that finds an alias stores it among the decisions
    /// too, under `generation`: a registered source's decision is one of the
    /// decisions, and exported with them.
    fn lookup<V>(
        &self,
        structure: u64,
        op: Op,
        asker: Asker,
        generation: [u64; 2],
    ) -> (CacheKey, Option<CachedDecision>) {
        let key = CacheKey {
            structure,
            scalar_bytes: std::mem::size_of::<V>(),
            engine: self.engine_fingerprint,
            op,
        };
        let found = self.decisions.probe(&key).or_else(|| {
            let alias = self.aliases.probe(&key)?;
            if asker == Asker::Register {
                self.decisions.insert_if_generation(key, alias.clone(), generation[0]);
            }
            Some(alias)
        });
        (key, found)
    }

    /// The tuner's decision for `m`: on the machine view (computed first,
    /// unless held), and again should that view not price the answer.
    /// Nothing is converted; `m` is only read.
    ///
    /// It pays for what the decision reads: a tuner that does not price
    /// formats from the view ([`FormatTuner::prices_formats`]) gets one
    /// without the pricing walks (unless the source is BSR, whose extraction
    /// is priced from block counts), and only a BSR or HDC answer has them
    /// taken, each in a walk of its own, before its parameters are proposed:
    /// the layout [`Self::realize`] converts with.
    ///
    /// A CSR source under such a tuner, with no collector attached, is first
    /// decided on the row side alone ([`Self::answer_unwalked`]); only a
    /// decision that needs the entry walk pays for it.
    fn answer<V>(&self, m: &DynamicMatrix<V>, op: Op, facts: &mut Facts, asker: Asker) -> Answer
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        // Read the cache generations *before* consulting the tuner: if a
        // model hot-swap clears the caches while this decision is in flight,
        // the generation-gated inserts drop it instead of resurrecting the
        // superseded model's choice.
        let generation = self.generations();
        if let Some((decision, horizon)) = self.answer_unwalked(m, op, facts, asker) {
            return Answer { decision, horizon: Some(horizon), generation };
        }
        let walks = self.tuner.prices_formats() || m.format_id() == FormatId::Bsr;
        let mut decision = self.tuner.select(m, self.view_of(m, facts, walks), &self.engine, op);
        if !self.view_of(m, facts, walks).prices(decision.format) {
            // Answered on a view that cannot price the answer: again, now
            // that it and its parameters can be.
            facts.take_pricing_walks(m);
            decision = self.tuner.select(m, self.view_of(m, facts, walks), &self.engine, op);
        }
        let horizon = self.horizon(op, m.format_id(), decision.format, self.view_of(m, facts, walks));
        Answer { decision, horizon, generation }
    }

    /// The generations of the decision cache and of the alias table.
    fn generations(&self) -> [u64; 2] {
        [self.decisions.generation(), self.aliases.generation()]
    }

    /// The horizon of converting out of `source` into `decided`, priced on
    /// `view` — `None` when the view cannot price both.
    fn horizon(&self, op: Op, source: FormatId, decided: FormatId, view: &MatrixAnalysis) -> Option<Horizon> {
        if source == decided {
            return Some(Horizon::stay(source));
        }
        (view.prices(source) && view.prices(decided)).then(|| Horizon {
            source,
            payback: self.engine.payback(op, source, decided, view),
            open: false,
        })
    }

    /// The tuner's decision for a CSR `m` from the row side of its analysis
    /// alone ([`Analysis::of_rows`]) and the walk features' bounds
    /// ([`FormatTuner::select_unwalked`]): the format and parameters the
    /// walked view gives, on COO, CSR, ELL, HYB or BELL, without walking the
    /// entries. Its horizon is the engine's floor over what the walk would
    /// tell ([`VirtualEngine::payback_floor`]). When that floor cannot rule
    /// the conversion out, a per-call tune takes the walk after all and
    /// prices the horizon exactly; a registration or `tune`, which
    /// converts whatever the horizon, stores the floor marked open for the
    /// first per-call tune to price. `None` — the artifact and the view then
    /// completed by the walk, for the tuner to answer as usual — when the
    /// tuner prices formats, a collector is attached (it notes every
    /// feature), or the bounds do not settle the answer on one of those
    /// formats. `facts` keeps the artifact either way.
    fn answer_unwalked<V>(
        &self,
        m: &DynamicMatrix<V>,
        op: Op,
        facts: &mut Facts,
        asker: Asker,
    ) -> Option<(TuneDecision, Horizon)>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        let DynamicMatrix::Csr(csr) = m else { return None };
        if self.tuner.prices_formats() || self.collector.is_some() {
            return None;
        }
        let mut rows = Analysis::of_rows(csr, self.opts.true_diag_alpha, facts.hash);
        let mut view = assemble(&rows, std::mem::size_of::<V>());
        let walk = rows.walk_bounds(csr);
        let decision = self.tuner.select_unwalked(m, &view, &walk, &self.engine, op);
        let Some(decision) = decision.filter(|d| row_parameterized(d.format)) else {
            // Unsettled: the walk completes the artifact and the view.
            rows.take_entry_walk(csr, self.cold_pool());
            view.complete_walk(&rows);
            (facts.analysis, facts.view) = (Some(rows), Some(view));
            return None;
        };
        let source = FormatId::Csr;
        let mut horizon = Horizon::stay(source);
        if decision.format != source {
            horizon.payback = self.engine.payback_floor(op, source, decision.format, &view);
            // The floor leaves the conversion open: price it on the walk, or
            // leave it open for a per-call tune to.
            horizon.open = horizon.payback.repays_one();
            if horizon.open && asker == Asker::PerCall {
                rows.take_entry_walk(csr, self.cold_pool());
                view.complete_walk(&rows);
                horizon = Horizon {
                    payback: self.engine.payback(op, source, decision.format, &view),
                    open: false,
                    ..horizon
                };
                facts.view = Some(view);
            }
        }
        facts.analysis = Some(rows);
        Some((decision, horizon))
    }

    /// Prices a hit's open horizon exactly, for a per-call tune of `m` — the
    /// CSR source its floor was priced from: walks `m` (the analysis is kept
    /// for the conversion) and stores the exact horizon in the decision's
    /// entry, so the next per-call tune of the structure walks nothing.
    fn price_open_horizon<V: Scalar>(&self, m: &DynamicMatrix<V>, op: Op, decided: &mut Decided) {
        let Some(horizon) = decided.horizon.filter(|h| h.open && h.source == m.format_id()) else { return };
        let analysis =
            decided.facts.analysis.get_or_insert_with(|| self.analyse(m, decided.facts.hash, false));
        let view = assemble(analysis, std::mem::size_of::<V>());
        let payback = self.engine.payback(op, horizon.source, decided.decision.format, &view);
        let exact = Horizon { payback, open: false, ..horizon };
        decided.horizon = Some(exact);
        let priced = CachedDecision {
            decision: decided.decision,
            layout: decided.layout.clone(),
            plan: Arc::clone(&decided.plan),
            horizon: Some(exact),
            aliased: Arc::clone(&decided.aliased),
        };
        self.decisions.insert_if_generation(decided.key, priced, decided.generation[0]);
    }

    /// First half of a tune: decision-cache lookup under the facts' hash →
    /// (on a miss) the tuner's [answer](Self::answer), for `asker`.
    /// Facts the caller holds are used, never recomputed.
    fn decide<V>(&self, m: &DynamicMatrix<V>, op: Op, mut facts: Facts, asker: Asker) -> Decided
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        // One question, one counted lookup, under the generations it was
        // asked under.
        let generation = self.generations();
        let (key, found) = self.lookup::<V>(facts.hash, op, asker, generation);
        self.decisions.count(found.is_some());
        match found {
            Some(CachedDecision { decision: mut cached, layout, plan, horizon, aliased }) => {
                // Same structure, scalar, engine and op: the tuner would
                // reproduce this decision, so charge nothing for it.
                cached.cost = TuningCost::cached();
                Decided {
                    facts,
                    key,
                    decision: cached,
                    layout,
                    plan,
                    horizon,
                    aliased,
                    cache_hit: true,
                    generation,
                }
            }
            None => {
                let Answer { decision, horizon, generation } = self.answer(m, op, &mut facts, asker);
                let undecided = CachedDecision::new(decision, horizon);
                let (plan, aliased) = (Arc::clone(&undecided.plan), Arc::clone(&undecided.aliased));
                self.decisions.insert_if_generation(key, undecided, generation[0]);
                Decided {
                    facts,
                    key,
                    decision,
                    layout: None,
                    plan,
                    horizon,
                    aliased,
                    cache_hit: false,
                    generation,
                }
            }
        }
    }

    /// Second half of a tune: converts `m` to the decided format with the
    /// decision's parameters (a BELL, ELL or HYB fill on the
    /// [cold pool](Self::cold_pool); CSR when that proves non-viable), caches the
    /// realized decision and notes the features for adaptive sampling.
    /// `kept` says the caller keeps the switched matrix
    /// (`tune`/`tune_and_*`): only then is the converted structure hashed —
    /// on a miss or a hit, at most once per entry — to alias the decision
    /// under it, so tuning the switched matrix again is a hit. A
    /// registration consumes its matrix, and nothing of it can come back to
    /// be tuned.
    fn realize<V: Scalar>(
        &self,
        m: &mut DynamicMatrix<V>,
        decided: Decided,
        op: Op,
        kept: bool,
    ) -> Result<(TuneReport, TuneArtifacts)> {
        let Decided {
            facts: Facts { hash, analysis, moved, .. },
            key,
            decision,
            layout,
            plan,
            horizon,
            aliased,
            cache_hit,
            generation,
        } = decided;
        let hashed = m.format_id();
        let (previous, moved) = moved.unwrap_or((hashed, 0.0));
        let predicted = decision.format;
        // The layout is the decision's; the guards are the service's. A hit
        // whose entry knows the diagonals converts into them.
        let opts = ConvertOptions { params: decision.params, ..self.opts };
        let converted = match &layout {
            Some(offsets) => m.convert_to_diagonals(predicted, &opts, offsets),
            None => m.convert_on(predicted, &opts, analysis.as_ref(), self.cold_pool()),
        };
        let (chosen, convert) = match converted {
            Ok(outcome) => (predicted, outcome),
            Err(_) => {
                // Mispredicted into a non-viable format: fall back to CSR.
                let outcome = m.convert_to_with(FormatId::Csr, &self.opts, analysis.as_ref())?;
                (FormatId::Csr, outcome)
            }
        };
        // CSR has no parameters: a fallback stored none of the decision's.
        let params = if chosen == predicted { decision.params } else { FormatParams::default() };
        // Cache the *realized* format: if the prediction proved non-viable,
        // later hits must not re-pay the failing conversion attempt before
        // falling back.
        let done = || CachedDecision {
            decision: TuneDecision { format: chosen, params, ..decision },
            layout: layout.clone().or_else(|| m.diagonal_layout().map(Arc::from)),
            plan: Arc::clone(&plan),
            // A fallback's horizon was priced for the prediction.
            horizon: horizon.filter(|_| chosen == predicted),
            aliased: Arc::clone(&aliased),
        };
        if kept && chosen != hashed && !aliased.swap(true, Ordering::Relaxed) {
            // Alias the decision under the matrix's *post-conversion*
            // structure too, so re-tuning the same (already switched) matrix
            // — the repeated-execution loop of §VII-E — is a hit: the one
            // reason left to hash what was just written.
            let switched = m.structure_hash();
            self.aliases.insert_if_generation(CacheKey { structure: switched, ..key }, done(), generation[1]);
            if let Some(col) = &self.collector {
                // Executions of the switched matrix are keyed by its own
                // hash when it comes back: the same population.
                col.alias(switched, hash);
            }
        }
        if !cache_hit {
            self.decisions.insert_if_generation(key, done(), generation[0]);
            self.note_features(hash, analysis.as_ref());
        }
        let report = TuneReport {
            chosen,
            previous,
            predicted,
            cost: decision.cost,
            converted: chosen != previous,
            op,
            cache_hit,
            plan: PlanStatus::Unplanned,
            serial_fallback: false,
            // After a move, CSR→chosen is direct or nothing: the whole is direct.
            convert: ConvertOutcome {
                path: if previous == hashed { convert.path } else { ConvertPath::Direct },
                seconds: moved + convert.seconds,
            },
            shards: 1,
        };
        let param_code = params.code();
        Ok((report, TuneArtifacts { structure: hash, param_code, analysis, plan }))
    }

    /// Adaptive sampling, off the execution hot path: notes the Table-I
    /// features of a miss's analysis under the hash the tuner saw (features
    /// are format-invariant) — the hash every execution under its decision
    /// is attributed to. A service with a collector always walks, so the
    /// analysis is complete.
    fn note_features(&self, hash: u64, analysis: Option<&Analysis>) {
        if let (Some(col), Some(a)) = (&self.collector, analysis) {
            col.note_features(hash, &FeatureVector::from_analysis(a));
        }
    }

    /// The analysis a COO or HYB plan is built on by a hit that found its
    /// entry without one — a decision imported, never executed or served
    /// per call from its source, a plan for another worker count. A miss
    /// carries the analysis it decided on; otherwise the realized `m` is
    /// hashed and walked here.
    fn late_analysis<'a, V: Scalar>(
        &self,
        m: &DynamicMatrix<V>,
        artifacts: &'a mut TuneArtifacts,
    ) -> &'a Analysis {
        artifacts
            .analysis
            .get_or_insert_with(|| self.analyse(m, m.structure_hash(), m.format_id() == FormatId::Bsr))
    }

    /// The execution plan for `m` in its realized format: the one its
    /// decision entry holds, or — when it holds none yet, one for another
    /// worker count, or one `m` does not match (two sources of one key can
    /// realize differently in DIA/HDC, where an explicit zero is padding) —
    /// one built now and left in the entry. The single plan path of
    /// `tune_and_*`, registration and shards. Concurrent builders each
    /// store theirs and the last wins: plans for one structure and worker
    /// count are interchangeable. With caching disabled the slot dies with
    /// the call and every call builds — still the planned kernels.
    fn acquire_plan<V: Scalar>(
        &self,
        m: &DynamicMatrix<V>,
        artifacts: &mut TuneArtifacts,
        threads: usize,
    ) -> (Arc<ExecPlan<V>>, PlanStatus) {
        let held = artifacts.plan.lock().clone();
        let held = held
            .and_then(|p| p.downcast::<ExecPlan<V>>().ok())
            .filter(|p| p.threads() == threads.max(1) && p.matches(m));
        let caching = self.decisions.capacity() > 0;
        match held {
            Some(plan) => {
                self.plan_hits.fetch_add(u64::from(caching), Ordering::Relaxed);
                (plan, PlanStatus::Reused)
            }
            None => {
                // Only COO and HYB plans read an analysis (their entry ranges
                // from its row histogram); every other plan reads the arrays.
                let reads = matches!(m.format_id(), FormatId::Coo | FormatId::Hyb);
                let analysis = if reads { Some(self.late_analysis(m, artifacts)) } else { None };
                let plan = Arc::new(ExecPlan::build(m, threads, analysis));
                *artifacts.plan.lock() = Some(plan.clone() as Arc<dyn Any + Send + Sync>);
                self.plan_misses.fetch_add(u64::from(caching), Ordering::Relaxed);
                (plan, PlanStatus::Built)
            }
        }
    }

    /// [`Self::acquire_plan`] wrapped in the `serve.plan_ns` histogram and
    /// a [`Stage::Plan`] span (`detail` = 1 when reused, 0 when built)
    /// when tracing is on. Pass [`TraceId::NONE`] outside a request (e.g.
    /// registration) to get the histogram sample without a span.
    fn acquire_plan_observed<V: Scalar>(
        &self,
        m: &DynamicMatrix<V>,
        artifacts: &mut TuneArtifacts,
        threads: usize,
        trace: TraceId,
    ) -> (Arc<ExecPlan<V>>, PlanStatus) {
        let t0 = self.obs.enabled().then(Instant::now);
        let acquired = self.acquire_plan(m, artifacts, threads);
        if let Some(t0) = t0 {
            let dur = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.plan_hist.record_ns(dur);
            let hit = u64::from(acquired.1 == PlanStatus::Reused);
            self.obs.span(trace, Stage::Plan, self.obs.instant_ns(t0), dur, hit);
        }
        acquired
    }

    /// Attributes one measured execution to its telemetry population —
    /// a no-op (no timestamps taken by callers either) when the service
    /// has no collector.
    #[inline]
    fn record_execution<V: Scalar>(
        &self,
        structure: u64,
        format: FormatId,
        param_code: u8,
        op: Op,
        workers: usize,
        elapsed: std::time::Duration,
    ) {
        if let Some(col) = &self.collector {
            col.record(
                SampleKey {
                    structure,
                    format,
                    op,
                    scalar_bytes: std::mem::size_of::<V>(),
                    workers,
                    param_code,
                },
                elapsed,
            );
        }
    }

    /// `true` when the pool is busy with another client's batch, counting
    /// the fallback the caller then takes in the registry counter
    /// `serve.fallbacks_taken`.
    fn take_serial_fallback(&self, pool: &ThreadPool) -> bool {
        if pool.is_busy() {
            self.fallbacks_taken.inc();
            true
        } else {
            false
        }
    }

    /// Request-level observation of a direct call (`spmv`/`spmm`/
    /// `tune_and_*`; the ingress records its own): the
    /// `serve.request_ns` histogram plus one coarse [`Stage::Exec`] span.
    /// Free (not even reached — callers gate the `Instant` reads) when
    /// tracing is off.
    #[inline]
    fn observe_request(&self, trace: TraceId, t0: Instant, elapsed: std::time::Duration) {
        if self.obs.enabled() {
            let dur = elapsed.as_nanos().min(u64::MAX as u128) as u64;
            self.request_hist.record_ns(dur);
            self.obs.span(trace, Stage::Exec, self.obs.instant_ns(t0), dur, 0);
        }
    }

    /// Executes `op` through a registered handle — the one way a handle
    /// runs whole, and where **the ladder** is written down:
    ///
    /// 1. **Serial backend** ([`Self::exec_pool`] is `None`): the stored
    ///    plan, inline — rung 3's form, population `1 worker`; shards run
    ///    their single-threaded plans one after another.
    /// 2. **`pool: Some`**: the plan's parts (the shards, by owner) in one
    ///    dispatch across the pool. Should another client's batch be
    ///    dispatched at that instant the pool runs them inline on this
    ///    thread; nobody queues behind a batch.
    /// 3. **`pool: None` on a threaded backend** — a direct call that found
    ///    the pool busy and counted it in `serve.fallbacks_taken`
    ///    ([`Self::take_serial_fallback`]): the same plan's bodies inline on
    ///    the calling thread, bitwise identical to rung 2, population
    ///    `1 worker`. (`tune_and_*`, which has a plan to *build* first, skips
    ///    building one on this rung when caching is off and runs
    ///    `spmv_serial`, the same bodies over one part:
    ///    [`Self::tune_and_run`].)
    ///
    /// Which of 2 and 3 is the callers' whole difference:
    /// [`spmv`](Self::spmv)/[`spmm`](Self::spmm) dodge a busy pool, queued
    /// ingress work ([`Self::start_queued`]) never does — overload is
    /// refused earlier, at admission, as typed backpressure. A queued run
    /// that would be inline (a one-wide pool, or rung 2) is not run here but
    /// shared: every ingress executor claims parts of its plan.
    ///
    /// No lock, no cache, no allocation. The clock is read (once here, once
    /// after) only with a collector attached or tracing on; the measured
    /// `(start, elapsed)` is returned for the caller's request-level
    /// observation. A whole matrix's time is attributed to its `(structure,
    /// format, op, scalar, workers)` population; a partitioned
    /// handle's shards are each timed and attributed on their own, as
    /// `(shard structure, shard format, op, scalar, 1 worker)` —
    /// shard kernels are single-threaded, parallelism comes from running
    /// shards concurrently — and, at the *fine* trace level (one span per
    /// shard per request is too hot for the always-on default), each gets an
    /// [`Stage::Exec`] span under `trace` whose `detail` is the shard index.
    fn execute<V: Scalar>(
        &self,
        handle: &MatrixHandle<V>,
        op: Op,
        x: &[V],
        y: &mut [V],
        pool: Option<&ThreadPool>,
        trace: TraceId,
    ) -> morpheus::Result<Option<(Instant, std::time::Duration)>> {
        let t0 = (self.collector.is_some() || self.obs.enabled()).then(Instant::now);
        let sample = match &handle.inner.stored {
            Stored::Single { matrix, structure, param_code, plan } => {
                plan.run(matrix, op, x, y, pool)?;
                let workers = pool.map_or(1, ThreadPool::num_threads);
                Some((*structure, matrix.format_id(), *param_code, workers))
            }
            Stored::Partitioned { matrix: p, param_codes } => {
                let fine = self.obs.fine() && trace.is_some();
                // Capture the collector and the obs hub, not `self`: the
                // closure is handed across shard worker threads and must
                // stay `Sync` independently of `T`.
                let collector = self.collector.as_deref();
                let obs = &*self.obs;
                let observe = move |si: usize, elapsed: std::time::Duration| {
                    if let Some(col) = collector {
                        let s = p.shard(si);
                        col.record(
                            SampleKey {
                                structure: s.structure(),
                                format: s.format_id(),
                                op,
                                scalar_bytes: std::mem::size_of::<V>(),
                                workers: 1,
                                param_code: param_codes[si],
                            },
                            elapsed,
                        );
                    }
                    if fine {
                        // The span start is reconstructed from the shard
                        // kernel's own elapsed time (same clock as the
                        // request span — the Obs epoch).
                        let dur = elapsed.as_nanos().min(u64::MAX as u128) as u64;
                        obs.span(trace, Stage::Exec, obs.now_ns().saturating_sub(dur), dur, si as u64);
                    }
                };
                let observe: Option<&(dyn Fn(usize, std::time::Duration) + Sync)> =
                    if collector.is_some() || fine { Some(&observe) } else { None };
                p.run(op, x, y, pool, observe)?;
                None
            }
        };
        self.requests_served.inc();
        Ok(t0.map(|t0| {
            let elapsed = t0.elapsed();
            if let Some((structure, format, param_code, workers)) = sample {
                self.record_execution::<V>(structure, format, param_code, op, workers, elapsed);
            }
            (t0, elapsed)
        }))
    }

    /// A direct request through a handle: [`Self::execute`] on the pool
    /// unless it is busy, then the request-level observation.
    fn request<V: Scalar>(&self, handle: &MatrixHandle<V>, op: Op, x: &[V], y: &mut [V]) -> Result<()> {
        let trace = self.obs.mint_trace();
        let pool = self.exec_pool().filter(|pool| !self.take_serial_fallback(pool));
        if let Some((t0, elapsed)) = self.execute(handle, op, x, y, pool, trace)? {
            self.observe_request(trace, t0, elapsed);
        }
        Ok(())
    }

    /// Starts one queued SpMV on whichever thread took the ingress request —
    /// the pump or a thread waiting on a ticket. An executor that finds the
    /// pool free dispatches the plan there through [`Self::execute`], as a
    /// direct call would, and has the reply. A run that would be inline — a
    /// one-wide pool, or a pool another executor holds (rung 2 of the ladder:
    /// a busy pool is not dodged, overload was refused at admission) — is
    /// opened as a [`SharedRun`] instead: nothing runs yet, and every
    /// executor may claim its parts ([`Self::run_queued_parts`]). So are a
    /// serial backend's and a partitioned handle's runs not: they run whole
    /// here. `trace` feeds the fine-level per-shard spans of partitioned
    /// handles (request-level ingress spans are the executor's job).
    pub(crate) fn start_queued<V: Scalar>(
        &self,
        handle: &MatrixHandle<V>,
        x: &[V],
        trace: TraceId,
    ) -> morpheus::Result<QueuedStart<V>> {
        let pool = self.exec_pool();
        if let (Stored::Single { matrix, plan, .. }, Some(pool)) = (&handle.inner.stored, pool) {
            if plan.num_parts() > 1 && (pool.num_threads() == 1 || pool.is_busy()) {
                let run = plan.share(matrix, Op::Spmv)?;
                let t0 = (self.collector.is_some() || self.obs.enabled()).then(Instant::now);
                return Ok(QueuedStart::Shared(QueuedParts { run, t0, executors: AtomicUsize::new(0) }));
            }
        }
        let mut y = vec![V::ZERO; handle.nrows()];
        self.execute(handle, Op::Spmv, x, &mut y, pool, trace)?;
        Ok(QueuedStart::Ran(y))
    }

    /// Runs, on the calling executor, the parts of a queued SpMV's shared
    /// run that it claims ([`ExecPlan::run_claimed`]), and returns how many.
    pub(crate) fn run_queued_parts<V: Scalar>(
        &self,
        handle: &MatrixHandle<V>,
        x: &[V],
        parts: &QueuedParts<V>,
    ) -> morpheus::Result<usize> {
        let Stored::Single { matrix, plan, .. } = &handle.inner.stored else {
            unreachable!("only a whole matrix's run is shared")
        };
        let ran = plan.run_claimed(matrix, Op::Spmv, x, &parts.run)?;
        if ran > 0 {
            parts.executors.fetch_add(1, Ordering::Relaxed);
        }
        Ok(ran)
    }

    /// What [`Self::execute`] does after its kernel, once for a shared run:
    /// counts the request served and attributes its time to the handle's
    /// population, under as many workers as executors ran its parts.
    pub(crate) fn finish_queued_parts<V: Scalar>(&self, handle: &MatrixHandle<V>, parts: &QueuedParts<V>) {
        self.requests_served.inc();
        if let (Some(t0), Stored::Single { matrix, structure, param_code, .. }) =
            (parts.t0, &handle.inner.stored)
        {
            let workers = parts.executors.load(Ordering::Relaxed).max(1);
            self.record_execution::<V>(
                *structure,
                matrix.format_id(),
                *param_code,
                Op::Spmv,
                workers,
                t0.elapsed(),
            );
        }
    }

    /// Tunes `m` for `op`, then executes it in the selected format: the
    /// body of `tune_and_spmv`/`tune_and_spmm`. The ladder is
    /// [`Self::execute`]'s, with the plan acquired (from its decision entry,
    /// or built and left there) on the way — except on a serial backend, and
    /// on a busy pool with caching off, where a plan would be built to be
    /// thrown away: `spmv_serial`/`spmm_serial` run the same bodies over one
    /// part instead. [`TuneReport::serial_fallback`] reports a
    /// busy pool; a plan acquired then still keeps the cache warm for the
    /// next uncontended call.
    ///
    /// Telemetry skips calls that built a fresh plan inside the timed window
    /// (their elapsed time includes plan construction and would poison the
    /// kernel mean); the steady state — reused plans and serial executions —
    /// is what the adaptive subsystem learns from.
    ///
    /// The call serves one execution, and pays for a conversion only when
    /// that execution repays it (Eq. 2 at N = 1: `c + r < 1`, the decision's
    /// [`Horizon`]). Otherwise the matrix stays in the format it was
    /// ingested in and runs that format's own body, `spmv_serial`/
    /// `spmm_serial` of the source ([`Self::run_source`]).
    fn tune_and_run<V>(&self, m: &mut DynamicMatrix<V>, op: Op, x: &[V], y: &mut [V]) -> Result<TuneReport>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        let facts = self.ingest(m, false)?;
        let mut decided = self.decide(m, op, facts, Asker::PerCall);
        self.price_open_horizon(m, op, &mut decided);
        if decided.horizon.is_some_and(|h| h.keeps(m.format_id(), decided.decision.format)) {
            return self.run_source(m, decided, op, x, y);
        }
        // The caller keeps the switched matrix and may tune it again.
        let (mut report, mut artifacts) = self.realize(m, decided, op, true)?;
        let trace = self.obs.mint_trace();
        let t0 = (self.collector.is_some() || self.obs.enabled()).then(Instant::now);
        let pool = self.exec_pool();
        report.serial_fallback = pool.is_some_and(|pool| self.take_serial_fallback(pool));
        // Busy with no cache to warm: skip the wasted plan construction.
        let planned = pool.filter(|_| !report.serial_fallback || self.decisions.capacity() > 0);
        let plan = planned.map(|pool| {
            let (plan, status) = self.acquire_plan_observed(m, &mut artifacts, pool.num_threads(), trace);
            report.plan = status;
            plan
        });
        let pool = pool.filter(|_| !report.serial_fallback);
        match (plan, op) {
            (Some(plan), op) => plan.run(m, op, x, y, pool)?,
            (None, Op::Spmv) => morpheus::spmv::spmv_serial(m, x, y)?,
            (None, Op::Spmm { k }) => morpheus::spmm::spmm_serial(m, x, y, k)?,
        }
        let workers = pool.map_or(1, ThreadPool::num_threads);
        if let Some(t0) = t0 {
            let elapsed = t0.elapsed();
            if report.plan != PlanStatus::Built {
                let (structure, format, param_code) =
                    (artifacts.structure, m.format_id(), artifacts.param_code);
                self.record_execution::<V>(structure, format, param_code, op, workers, elapsed);
            }
            self.observe_request(trace, t0, elapsed);
        }
        Ok(report)
    }

    /// A per-call tune whose horizon keeps the source: `m` stays as it was
    /// ingested and `op` runs its own bodies — no conversion, no alias hash,
    /// nothing stored in the decision's plan slot. On a pool of several
    /// workers (the width the horizon's `r` and `c` were priced for) it runs
    /// through a plan built for them and dropped after the call — O(rows)
    /// for a CSR source — or, on a busy pool, `spmv_serial`/`spmm_serial`
    /// on the calling thread, counted as [`Self::tune_and_run`] counts it;
    /// on one worker it is that serial run. The report names the decision as
    /// `predicted` and the source as `chosen`; a miss left the decision
    /// (with its horizon) in the cache, for a later registration or `tune`
    /// to convert.
    fn run_source<V: Scalar>(
        &self,
        m: &DynamicMatrix<V>,
        decided: Decided,
        op: Op,
        x: &[V],
        y: &mut [V],
    ) -> Result<TuneReport> {
        let Decided { facts: Facts { hash, analysis, moved, .. }, decision, cache_hit, .. } = decided;
        if !cache_hit {
            self.note_features(hash, analysis.as_ref());
        }
        let chosen = m.format_id();
        let (previous, moved) = moved.unwrap_or((chosen, 0.0));
        let trace = self.obs.mint_trace();
        let t0 = (self.collector.is_some() || self.obs.enabled()).then(Instant::now);
        let pool = self.exec_pool().filter(|pool| pool.num_threads() > 1);
        let serial_fallback = pool.is_some_and(|pool| self.take_serial_fallback(pool));
        let pool = pool.filter(|_| !serial_fallback);
        match (pool, op) {
            (Some(pool), op) => {
                ExecPlan::build(m, pool.num_threads(), analysis.as_ref()).run(m, op, x, y, Some(pool))?
            }
            (None, Op::Spmv) => morpheus::spmv::spmv_serial(m, x, y)?,
            (None, Op::Spmm { k }) => morpheus::spmm::spmm_serial(m, x, y, k)?,
        }
        if let Some(t0) = t0 {
            let elapsed = t0.elapsed();
            let param_code = FormatParams::default().code();
            let workers = pool.map_or(1, ThreadPool::num_threads);
            self.record_execution::<V>(hash, chosen, param_code, op, workers, elapsed);
            self.observe_request(trace, t0, elapsed);
        }
        // Only the front door's move into CSR converted anything.
        let convert = if previous == chosen {
            ConvertOutcome::identity()
        } else {
            ConvertOutcome { path: ConvertPath::Direct, seconds: moved }
        };
        Ok(TuneReport {
            chosen,
            previous,
            predicted: decision.format,
            cost: decision.cost,
            converted: chosen != previous,
            op,
            cache_hit,
            plan: PlanStatus::Unplanned,
            serial_fallback,
            convert,
            shards: 1,
        })
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
        let (mut report, mut artifacts) = self.realize(&mut m, decided, op, false)?;
        let (plan, status) = self.acquire_plan_observed(&m, &mut artifacts, self.workers(), TraceId::NONE);
        report.plan = status;
        let (structure, param_code) = (artifacts.structure, artifacts.param_code);
        let id = self.next_handle_id.fetch_add(1, Ordering::Relaxed);
        self.matrices_registered.inc();
        let stored = Stored::Single { matrix: m, structure, param_code, plan };
        Ok(MatrixHandle { inner: Arc::new(Registered { id, stored, report }) })
    }

    /// [`OracleService::register`] — unless the service's
    /// [`PartitionPolicy`] forces shards (`cost_gate: false`): then the
    /// matrix is served as row-range shards cut along the row-nnz histogram
    /// (balanced nnz, boundaries snapped to regime shifts), each decided,
    /// converted and planned on its own, as [`OracleService::register_stream`]
    /// does with the shards it seals.
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
        let pieces = partition.ranges().zip(split_rows(&m, &partition, None)?);
        let moved = whole.moved.unwrap_or((FormatId::Csr, 0.0));
        self.register_shards(m.nrows(), m.ncols(), pieces, moved, op)
    }

    /// Registers a matrix ingested shard-by-shard from a row-major entry
    /// stream — the huge-matrix front door: the whole matrix never
    /// materializes in one resident copy. Rows must arrive in
    /// non-decreasing order, columns within a row in any order; duplicate
    /// entries are summed in push order, as
    /// [`CooBuilder::build`](morpheus::CooBuilder::build) sums them, so this
    /// and [`OracleService::register`] of the same entries assembled through
    /// a builder store the same bits.
    /// Shards seal along the policy's nnz target as the stream flows, and
    /// each sealed shard is tuned, converted and planned independently.
    /// Yields a single-shard (still CSR-planned) handle when the stream
    /// fits one shard; there is no whole-matrix fallback — that copy is
    /// exactly what streaming avoids.
    pub fn register_stream<V, I>(&self, nrows: usize, ncols: usize, entries: I) -> Result<MatrixHandle<V>>
    where
        V: Scalar,
        T: FormatTuner<V>,
        I: IntoIterator<Item = (usize, usize, V)>,
    {
        let mut sp = StreamingPartitioner::new(nrows, ncols, &self.partition.config(self.workers()));
        for (r, c, v) in entries {
            sp.push(r, c, v)?;
        }
        let (_, mut parts) = sp.finish()?;
        if parts.len() == 1 {
            let (_, csr) = parts.pop().expect("finish yields >= 1 shard");
            let m = DynamicMatrix::from(csr);
            let facts = Facts::hashed(&m);
            return self.register_single_for(m, Op::Spmv, facts);
        }
        self.register_shards(nrows, ncols, parts, (FormatId::Csr, 0.0), Op::Spmv)
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
            let (report, mut artifacts) = self.realize(&mut sm, decided, op, false)?;
            convert_seconds += report.convert.seconds;
            converted |= report.converted;
            cost.feature_extraction += report.cost.feature_extraction;
            cost.prediction += report.cost.prediction;
            cost.profiling += report.cost.profiling;
            cost.measured += report.cost.measured;
            cost.cache_hit &= report.cache_hit;
            let (plan, status) = self.acquire_plan(&sm, &mut artifacts, 1);
            if status != PlanStatus::Reused {
                plan_status = PlanStatus::Built;
            }
            param_codes.push(artifacts.param_code);
            shards.push(Shard::new(rows, sm, plan, artifacts.structure));
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
    use super::*;
    use crate::tuner::RunFirstTuner;
    use crate::Oracle;
    use morpheus::CooMatrix;
    use morpheus_machine::{systems, Backend};

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

    fn make_service(workers: usize) -> OracleService<RunFirstTuner> {
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
            service.decisions.insert_if_generation(key, seeded, service.decisions.generation());

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
        assert_eq!((report.predicted, report.chosen), (FormatId::Bell, FormatId::Csr));
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
    fn import_rejects_wrong_engine_and_malformed_files() {
        let service = make_service(2);
        let mut m = tridiag(500);
        service.tune(&mut m).unwrap();
        let mut buf = Vec::new();
        service.export_decisions(&mut buf).unwrap();

        let other_engine = Oracle::builder()
            .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
            .tuner(RunFirstTuner::new(2))
            .build_service()
            .unwrap();
        assert!(matches!(
            other_engine.import_decisions(std::io::Cursor::new(&buf)),
            Err(OracleError::ModelMismatch(_))
        ));

        for bad in [
            "",
            "wrong-magic v1\n",
            "morpheus-oracle-decisions v9\n",
            "morpheus-oracle-decisions v1\nengine zz\n",
            "morpheus-oracle-decisions v1\nengine 0\nentries 1\nend\n",
            "morpheus-oracle-decisions v1\nengine 0\nentries 1\ndecision 1 8 spmv XYZ\nend\n",
            "morpheus-oracle-decisions v1\nengine 0\nentries 1\ndecision 1 8 spmq CSR\nend\n",
            "morpheus-oracle-decisions v1\nengine 0\nentries 1\ndecision 1 8 spmv CSR\n",
            // v2 lines must carry a params token, and it must parse.
            "morpheus-oracle-decisions v2\nengine 0\nentries 1\ndecision 1 8 spmv CSR\nend\n",
            "morpheus-oracle-decisions v2\nengine 0\nentries 1\ndecision 1 8 spmv CSR bogus\nend\n",
        ] {
            assert!(service.import_decisions(std::io::Cursor::new(bad)).is_err(), "accepted: {bad:?}");
        }
    }

    /// Files written under format v1 (no params token) or v2 are keyed by
    /// the structure hash this version superseded: importing one is a typed
    /// refusal naming the scheme, and inserts nothing.
    #[test]
    fn v1_and_v2_decisions_files_are_refused() {
        let service = make_service(2);
        let mut a = tridiag(800);
        service.tune(&mut a).unwrap();
        let mut buf = Vec::new();
        service.export_decisions(&mut buf).unwrap();
        let v3 = String::from_utf8(buf).unwrap();

        // The export downgraded to each older wire format: old header, and
        // for v1 no trailing params token on decision lines.
        let downgrade = |version: &str| {
            let lines = v3.lines().map(|l| {
                if l.starts_with("morpheus-oracle-decisions") {
                    format!("morpheus-oracle-decisions {version}")
                } else if l.starts_with("decision ") && version == "v1" {
                    l.rsplit_once(' ').unwrap().0.to_string()
                } else {
                    l.to_string()
                }
            });
            lines.collect::<Vec<_>>().join("\n") + "\n"
        };
        for version in ["v1", "v2"] {
            let restarted = make_service(2);
            let err =
                restarted.import_decisions(std::io::Cursor::new(downgrade(version).as_bytes())).unwrap_err();
            assert!(
                matches!(&err, OracleError::InvalidConfig(why) if why.contains(version) && why.contains("structure hash")),
                "{version}: {err}"
            );
            assert_eq!(restarted.cache_stats().len, 0, "{version}: a refused file inserts nothing");
            let mut a2 = tridiag(800);
            assert!(!restarted.tune(&mut a2).unwrap().cache_hit);
        }
        // The current version of the same file does warm-start.
        let restarted = make_service(2);
        assert!(restarted.import_decisions(std::io::Cursor::new(v3.as_bytes())).unwrap() >= 1);
        assert!(restarted.tune(&mut tridiag(800)).unwrap().cache_hit);
    }

    /// The line checks the malformed-file cases above make under their old
    /// headers, under the current one: a decision line carries a params
    /// token, and it must parse — HYB's split and DIA's fill are conversion
    /// options, not tokens. A refused file inserts nothing.
    #[test]
    fn current_version_lines_must_carry_a_parsable_params_token() {
        let service = make_service(2);
        let engine = format!("{:016x}", service.engine_fingerprint);
        // A valid line first: a refused file inserts that one neither.
        let head =
            format!("morpheus-oracle-decisions v3\nengine {engine}\nentries 2\ndecision 5 8 spmv CSR -");
        for line in [
            "decision 1 8 spmv CSR",
            "decision 1 8 spmv CSR bogus",
            "decision 1 8 spmq CSR -",
            "decision 2 8 spmv HYB hyb=12",
            "decision 3 8 spmv DIA dia=40",
            "decision 4 8 spmv BELL bell=3;hyb=2",
        ] {
            let file = format!("{head}\n{line}\nend\n");
            let err = service.import_decisions(std::io::Cursor::new(file.as_bytes())).unwrap_err();
            assert!(matches!(err, OracleError::InvalidConfig(_)), "{line}: {err}");
            assert_eq!(service.cache_stats().len, 0, "{line}: a refused file inserts nothing");
        }
        let file = format!(
            "morpheus-oracle-decisions v3\nengine {engine}\nentries 1\ndecision 1 8 spmv CSR -\nend\n"
        );
        assert_eq!(service.import_decisions(std::io::Cursor::new(file.as_bytes())).unwrap(), 1);
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
