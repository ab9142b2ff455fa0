//! Async batched ingress: the admission-controlled, coalescing front door
//! over [`OracleService`].
//!
//! The direct handle path ([`OracleService::spmv`]) is synchronous and
//! one-request-per-call: under N contending clients, requests serialize on
//! the pool and silently degrade to serial kernels. This module replaces
//! that degradation with an explicit request lifecycle:
//!
//! ```text
//!   submit ──► admit ──────► queue ──► coalesce-or-direct ──► execute ──► scatter
//!              │  │            │            │                 (planned       │
//!   tenant quota  queue cap    │       cost-model gate         SpMM/SpMV)    ▼
//!   Backpressure::TenantQuota  │       per_rhs < spmv_time?               Ticket
//!   Backpressure::QueueFull    │       (read off the handle)             resolves
//!                              ▼
//!               deadline expired while queued?
//!               shed: Backpressure::DeadlineExpired
//! ```
//!
//! * **Admission** — every request names a tenant; a tenant may hold at
//!   most its quota of in-flight requests
//!   ([`IngressConfig::tenant_quota`]), so a greedy client saturates its
//!   own quota, not the queue. The queue itself is bounded; both refusals
//!   are immediate typed [`Backpressure`] errors, never blocking waits.
//! * **Coalescing** — a single pump thread drains everything queued at
//!   once. Runs of requests against the same [`MatrixHandle`] (same
//!   scalar) become *one* planned SpMM over the handle's shared
//!   [`ExecPlan`](morpheus::ExecPlan) when the engine's cost model prices
//!   `spmm_time(k)` under `k × spmv_time` — the paper's op-aware cost
//!   model collecting the batching payoff. The model is affine in `k`
//!   (`spmv_time + (k - 1) × per_rhs`), so the gate is the one
//!   `k`-independent comparison `per_rhs < spmv_time`; both numbers are
//!   evaluated once, at registration, on the machine view tuning already
//!   holds, and ride on the handle ([`MatrixHandle::batch_cost`]; summed
//!   over shards for a partitioned handle). The pump never analyses a
//!   matrix. Results are scattered back per-request, **bitwise
//!   identical** to individual SpMVs (the SpMM kernels accumulate each
//!   output column in exactly the SpMV order).
//! * **SLO enforcement** — requests carry deadlines (explicit, or
//!   [`IngressConfig::default_slo`]). Work that expires while queued is
//!   shed with [`Backpressure::DeadlineExpired`] *before* any kernel runs;
//!   work that finishes late still delivers and is counted as a deadline
//!   miss. See [`slo`] for the exact semantics.
//!
//! Because the pump is the only thread driving ingress work into the
//! pool, ingress traffic never contends with itself — the silent
//! pool-busy serial fallback of the direct path cannot trigger from
//! inside this layer; overload surfaces as typed backpressure instead.
//! Executions are timestamped into the adaptive-sampling
//! [`Telemetry`](crate::adapt::Telemetry) under `Op::Spmm{k}` /
//! `Op::Spmv` keys exactly like direct handle calls, so retraining learns
//! from batched traffic too.
//!
//! # Example
//! ```
//! use morpheus::{CooMatrix, DynamicMatrix};
//! use morpheus_machine::{systems, Backend, VirtualEngine};
//! use morpheus_oracle::{Ingress, IngressConfig, Oracle, RunFirstTuner};
//! use std::sync::Arc;
//!
//! let service = Arc::new(
//!     Oracle::builder()
//!         .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
//!         .tuner(RunFirstTuner::new(2))
//!         .workers(2)
//!         .build_service()
//!         .unwrap(),
//! );
//! let m = DynamicMatrix::from(
//!     CooMatrix::<f64>::from_triplets(3, 3, &[0, 1, 2], &[0, 1, 2], &[1.0, 2.0, 3.0]).unwrap(),
//! );
//! let handle = service.register(m).unwrap();
//!
//! let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
//! let ticket = ingress.submit("tenant-a", &handle, vec![1.0, 1.0, 1.0]).unwrap();
//! assert_eq!(ticket.wait().unwrap(), vec![1.0, 2.0, 3.0]);
//! ```

mod batch;
mod queue;
pub mod slo;

pub use slo::Backpressure;

use crate::obs::{Counter, Gauge, Histogram, Obs, SlowRequest, SpanRecord, Stage, TraceId};
use crate::serve::{MatrixHandle, OracleService};
use crate::OracleError;
use morpheus::Scalar;
use queue::{Job, JobMeta, PushRefused, QueuedRequest, SubmissionQueue, TenantTable};
use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When the pump may merge queued same-handle SpMV requests into one
/// planned SpMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoalescePolicy {
    /// Coalesce only when the engine prices `spmm_time(k)` below
    /// `k × spmv_time` for the handle's realized format — for every `k`
    /// the comparison [`BatchCost::coalescing_pays`](crate::BatchCost::coalescing_pays)
    /// makes on the two numbers the handle carries. The default.
    #[default]
    CostModel,
    /// Always coalesce same-handle runs (benchmarking / testing).
    Always,
    /// Never coalesce; every request executes as an individual SpMV.
    Never,
}

/// Configuration of an [`Ingress`] front door.
#[derive(Debug, Clone)]
pub struct IngressConfig {
    /// Maximum queued (admitted, not yet drained) requests; submissions
    /// beyond it fail with [`Backpressure::QueueFull`].
    pub queue_capacity: usize,
    /// Default per-tenant in-flight quota; submissions beyond it fail
    /// with [`Backpressure::TenantQuota`].
    pub tenant_quota: usize,
    /// Per-tenant quota overrides (tenant name → in-flight limit).
    pub tenant_overrides: HashMap<String, usize>,
    /// Deadline budget applied to requests submitted without an explicit
    /// deadline; `None` means such requests never expire.
    pub default_slo: Option<Duration>,
    /// Coalescing policy (see [`CoalescePolicy`]).
    pub coalesce: CoalescePolicy,
    /// Largest number of requests merged into one SpMM; bigger runs are
    /// split into chunks of this size.
    pub max_batch: usize,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            queue_capacity: 1024,
            tenant_quota: 64,
            tenant_overrides: HashMap::new(),
            default_slo: None,
            coalesce: CoalescePolicy::CostModel,
            max_batch: 32,
        }
    }
}

impl IngressConfig {
    /// Sets a per-tenant in-flight quota override.
    pub fn with_tenant_quota(mut self, tenant: &str, limit: usize) -> Self {
        self.tenant_overrides.insert(tenant.to_string(), limit);
        self
    }

    fn quota_for(&self, tenant: &str) -> usize {
        self.tenant_overrides.get(tenant).copied().unwrap_or(self.tenant_quota)
    }
}

/// Errors surfaced by the ingress layer — including the **typed
/// backpressure** that replaces silent degradation on the serving path.
#[derive(Debug, Clone)]
pub enum IngressError {
    /// The request was refused or shed under load; see [`Backpressure`]
    /// for the exact cause. Nothing executed.
    Backpressure(Backpressure),
    /// The request was malformed (e.g. input length does not match the
    /// handle's column count). Caught at submission; nothing was queued.
    Rejected(String),
    /// Execution itself failed; the underlying error is shared across
    /// every request of a failed coalesced batch.
    Exec(Arc<OracleError>),
    /// The pump disappeared without resolving the ticket (it panicked);
    /// a bug, not an overload signal.
    Disconnected,
}

impl fmt::Display for IngressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngressError::Backpressure(b) => write!(f, "backpressure: {b}"),
            IngressError::Rejected(why) => write!(f, "request rejected: {why}"),
            IngressError::Exec(e) => write!(f, "execution failed: {e}"),
            IngressError::Disconnected => write!(f, "ingress pump disconnected"),
        }
    }
}

impl std::error::Error for IngressError {}

/// Ingress counters, exposed via [`Ingress::stats`]. All counters are
/// monotonic except the [`queue_depth`](Self::queue_depth) gauge.
///
/// These values live in the service's unified
/// [`MetricsRegistry`](crate::obs::MetricsRegistry) under canonical
/// `ingress.*` names (noted per field below), next to the service's own
/// `serve.*` and `pool.*` metrics; this struct is a point-in-time copy
/// whose field names are **deprecated aliases** of them, kept while the
/// `oracle_bench` harness reads it. Scrape the registry
/// ([`OracleService::obs_snapshot`](crate::serve::OracleService::obs_snapshot))
/// for the canonical surface: one scrape sees every layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngressStats {
    /// Submission attempts (admitted or not). Deprecated alias of the
    /// registry counter `ingress.requests_submitted`.
    pub submitted: u64,
    /// Submissions refused with [`Backpressure::QueueFull`]. Deprecated
    /// alias of `ingress.queue_rejected`.
    pub rejected_queue_full: u64,
    /// Submissions refused with [`Backpressure::TenantQuota`]. Deprecated
    /// alias of `ingress.quota_rejected`.
    pub rejected_quota: u64,
    /// Queued requests shed with [`Backpressure::DeadlineExpired`].
    /// Deprecated alias of `ingress.deadline_shed`.
    pub shed_deadline: u64,
    /// Queued requests shed with [`Backpressure::ShuttingDown`].
    /// Deprecated alias of `ingress.shutdown_shed`.
    pub shed_shutdown: u64,
    /// Requests whose results were delivered. Deprecated alias of
    /// `ingress.requests_completed`.
    pub completed: u64,
    /// Requests whose execution failed ([`IngressError::Exec`]).
    /// Deprecated alias of `ingress.requests_failed`.
    pub failed: u64,
    /// Requests served as individual planned SpMVs. Deprecated alias of
    /// `ingress.direct_served`.
    pub direct_requests: u64,
    /// Requests served through a coalesced SpMM. Deprecated alias of
    /// `ingress.coalesced_served`.
    pub coalesced_requests: u64,
    /// Coalesced SpMM executions (each serving ≥ 2 requests). Deprecated
    /// alias of `ingress.batches_coalesced`.
    pub coalesced_batches: u64,
    /// Chunks the cost-model gate declined to coalesce. Deprecated alias
    /// of `ingress.coalesce_declined`.
    pub cost_gate_declined: u64,
    /// Delivered results that finished after their deadline. Deprecated
    /// alias of `ingress.deadlines_missed`.
    pub deadline_misses: u64,
    /// Requests currently queued (gauge, not monotonic). Deprecated
    /// alias of `ingress.queue_depth`.
    pub queue_depth: u64,
}

impl IngressStats {
    /// Fraction of delivered results that were served through a coalesced
    /// SpMM (0 when nothing has completed).
    pub fn coalescing_ratio(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.coalesced_requests as f64 / self.completed as f64
        }
    }
}

/// Registry-backed cells behind [`IngressStats`]: every counter, the
/// queue-depth gauge and the stage-latency histograms are handles into
/// the service's [`MetricsRegistry`](crate::obs::MetricsRegistry), so
/// ingress traffic lands in the same scrape surface as the serve-layer
/// metrics. Also carries the observability hub for span emission and
/// flight capture.
pub(crate) struct StatsCells {
    pub(crate) obs: Arc<Obs>,
    /// `ingress.requests_submitted`
    pub(crate) submitted: Counter,
    /// `ingress.queue_rejected`
    pub(crate) rejected_queue_full: Counter,
    /// `ingress.quota_rejected`
    pub(crate) rejected_quota: Counter,
    /// `ingress.deadline_shed`
    pub(crate) shed_deadline: Counter,
    /// `ingress.shutdown_shed`
    pub(crate) shed_shutdown: Counter,
    /// `ingress.requests_completed`
    pub(crate) completed: Counter,
    /// `ingress.requests_failed`
    pub(crate) failed: Counter,
    /// `ingress.direct_served`
    pub(crate) direct_requests: Counter,
    /// `ingress.coalesced_served`
    pub(crate) coalesced_requests: Counter,
    /// `ingress.batches_coalesced`
    pub(crate) coalesced_batches: Counter,
    /// `ingress.coalesce_declined`
    pub(crate) cost_gate_declined: Counter,
    /// `ingress.deadlines_missed`
    pub(crate) deadline_misses: Counter,
    /// `ingress.queue_depth`
    pub(crate) queue_depth: Gauge,
    /// `ingress.queue_wait_ns` — submission to pump pickup.
    pub(crate) queue_wait_hist: Arc<Histogram>,
    /// `ingress.coalesce_ns` — cost-gate evaluation per chunk (two numbers
    /// read off the handle: sub-microsecond, whatever the matrix).
    pub(crate) coalesce_hist: Arc<Histogram>,
    /// `ingress.exec_ns` — one sample per kernel execution (a coalesced
    /// batch records once for its k requests).
    pub(crate) exec_hist: Arc<Histogram>,
    /// `ingress.scatter_ns` — one sample per coalesced batch: the tiled
    /// scatter of its k result columns.
    pub(crate) scatter_hist: Arc<Histogram>,
}

impl StatsCells {
    pub(crate) fn new(obs: Arc<Obs>) -> Self {
        let r = obs.registry();
        StatsCells {
            submitted: r.counter("ingress.requests_submitted"),
            rejected_queue_full: r.counter("ingress.queue_rejected"),
            rejected_quota: r.counter("ingress.quota_rejected"),
            shed_deadline: r.counter("ingress.deadline_shed"),
            shed_shutdown: r.counter("ingress.shutdown_shed"),
            completed: r.counter("ingress.requests_completed"),
            failed: r.counter("ingress.requests_failed"),
            direct_requests: r.counter("ingress.direct_served"),
            coalesced_requests: r.counter("ingress.coalesced_served"),
            coalesced_batches: r.counter("ingress.batches_coalesced"),
            cost_gate_declined: r.counter("ingress.coalesce_declined"),
            deadline_misses: r.counter("ingress.deadlines_missed"),
            queue_depth: r.gauge("ingress.queue_depth"),
            queue_wait_hist: r.histogram("ingress.queue_wait_ns"),
            coalesce_hist: r.histogram("ingress.coalesce_ns"),
            exec_hist: r.histogram("ingress.exec_ns"),
            scatter_hist: r.histogram("ingress.scatter_ns"),
            obs,
        }
    }

    /// Records a stage span both to the global ring and into the
    /// request's locally-assembled tree (the flight recorder captures
    /// the local copy, so a breached request's tree survives ring
    /// overwrites). No-op for untraced requests.
    pub(crate) fn stage_span(
        &self,
        meta: &mut JobMeta,
        stage: Stage,
        start_ns: u64,
        dur_ns: u64,
        detail: u64,
    ) {
        if meta.trace.is_some() {
            let rec = SpanRecord { trace: meta.trace, stage, start_ns, dur_ns, detail };
            self.obs.span(meta.trace, stage, start_ns, dur_ns, detail);
            meta.spans.push(rec);
        }
    }

    /// Request-terminal observation: the [`Stage::Resolve`] span
    /// (detail 0 delivered / 1 delivered late / 2 shed / 3 failed)
    /// spanning submission → now, plus flight capture when the request
    /// breached — shed or delivered late against its deadline, or
    /// slower than [`ObsConfig::slow_threshold`](crate::obs::ObsConfig).
    /// Callers invoke this *before* resolving the ticket, preserving the
    /// counters-before-send invariant for the whole observation surface.
    pub(crate) fn resolve_request(&self, meta: &mut JobMeta, outcome: u64) {
        if meta.trace.is_none() {
            return;
        }
        let total_ns = meta.submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let start_ns = self.obs.instant_ns(meta.submitted);
        self.stage_span(meta, Stage::Resolve, start_ns, total_ns, outcome);
        let slow = self.obs.slow_threshold_ns();
        let breached = outcome != 0 || slow.is_some_and(|t| total_ns > t);
        if breached {
            let threshold_ns = meta
                .deadline
                .filter(|_| outcome == 1 || outcome == 2)
                .map(|d| d.saturating_duration_since(meta.submitted).as_nanos().min(u64::MAX as u128) as u64)
                .or(slow)
                .unwrap_or(0);
            self.obs.flight().capture(SlowRequest {
                trace: meta.trace,
                total_ns,
                threshold_ns,
                spans: std::mem::take(&mut meta.spans),
            });
        }
    }
}

/// A pending request's receipt: resolves to the SpMV result or a typed
/// [`IngressError`]. One-shot; waiting consumes it.
#[derive(Debug)]
pub struct Ticket<V: Scalar> {
    rx: Receiver<Result<Vec<V>, IngressError>>,
    trace: TraceId,
}

impl<V: Scalar> Ticket<V> {
    /// The request's trace id ([`TraceId::NONE`] when tracing is off) —
    /// correlates this ticket with its span tree in
    /// [`Obs::trace_spans`](crate::obs::Obs::trace_spans) and in flight
    /// recorder dumps.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Blocks until the request resolves: `y = A x` on success, typed
    /// backpressure or the execution error otherwise.
    pub fn wait(self) -> Result<Vec<V>, IngressError> {
        self.rx.recv().unwrap_or(Err(IngressError::Disconnected))
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<Vec<V>, IngressError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(IngressError::Disconnected)),
        }
    }
}

struct Shared<T> {
    service: Arc<OracleService<T>>,
    queue: SubmissionQueue<T>,
    tenants: TenantTable,
    stats: StatsCells,
    cfg: IngressConfig,
}

/// The async batched front door over an [`OracleService`]: submissions
/// from any number of threads, one pump thread draining, coalescing and
/// executing. See the [module docs](self) for the request lifecycle.
///
/// Dropping the `Ingress` closes admission, sheds everything still queued
/// with [`Backpressure::ShuttingDown`] and joins the pump; tickets are
/// always resolved.
pub struct Ingress<T: Send + Sync + 'static> {
    shared: Arc<Shared<T>>,
    pump: Option<std::thread::JoinHandle<()>>,
}

impl<T: Send + Sync + 'static> fmt::Debug for Ingress<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ingress").field("stats", &self.stats()).finish()
    }
}

impl<T: Send + Sync + 'static> Ingress<T> {
    /// Starts the front door over `service`, spawning its pump thread.
    ///
    /// Ingress metrics register into the *service's* unified registry
    /// under `ingress.*` names; two `Ingress` instances over the same
    /// service therefore share counters (their traffic aggregates into
    /// one scrape surface). Run each front door over its own service if
    /// per-ingress metrics are needed.
    pub fn start(service: Arc<OracleService<T>>, cfg: IngressConfig) -> Self {
        let stats = StatsCells::new(Arc::clone(service.obs()));
        let shared = Arc::new(Shared {
            service,
            queue: SubmissionQueue::new(cfg.queue_capacity),
            tenants: TenantTable::default(),
            stats,
            cfg,
        });
        let pump_shared = Arc::clone(&shared);
        let pump = std::thread::Builder::new()
            .name("morpheus-ingress-pump".into())
            .spawn(move || pump_loop(&pump_shared))
            .expect("failed to spawn ingress pump thread");
        Ingress { shared, pump: Some(pump) }
    }

    /// Submits `y = A x` for `handle` under `tenant`, applying the
    /// configured default SLO (if any). Fails fast with
    /// [`IngressError::Backpressure`] when the tenant quota or queue
    /// capacity is exhausted, and with [`IngressError::Rejected`] when
    /// `x` does not match the handle's column count.
    pub fn submit<V: Scalar>(
        &self,
        tenant: &str,
        handle: &MatrixHandle<V>,
        x: Vec<V>,
    ) -> Result<Ticket<V>, IngressError> {
        self.submit_inner(tenant, handle, x, None)
    }

    /// [`Ingress::submit`] with an explicit absolute deadline overriding
    /// the default SLO. A request still queued at its deadline is shed
    /// with [`Backpressure::DeadlineExpired`] and never executes.
    pub fn submit_with_deadline<V: Scalar>(
        &self,
        tenant: &str,
        handle: &MatrixHandle<V>,
        x: Vec<V>,
        deadline: Instant,
    ) -> Result<Ticket<V>, IngressError> {
        self.submit_inner(tenant, handle, x, Some(deadline))
    }

    fn submit_inner<V: Scalar>(
        &self,
        tenant: &str,
        handle: &MatrixHandle<V>,
        x: Vec<V>,
        deadline: Option<Instant>,
    ) -> Result<Ticket<V>, IngressError> {
        let shared = &*self.shared;
        shared.stats.submitted.inc();
        if x.len() != handle.ncols() {
            return Err(IngressError::Rejected(format!(
                "input vector has {} elements, handle {} expects {}",
                x.len(),
                handle.id(),
                handle.ncols()
            )));
        }
        let tenant_slot = shared.tenants.acquire(tenant, shared.cfg.quota_for(tenant)).map_err(|b| {
            shared.stats.rejected_quota.inc();
            IngressError::Backpressure(b)
        })?;
        let submitted = Instant::now();
        let deadline = slo::resolve_deadline(submitted, deadline, shared.cfg.default_slo);
        let (tx, rx) = sync_channel(1);
        let trace = shared.stats.obs.mint_trace();
        let mut meta = JobMeta { _tenant: tenant_slot, deadline, trace, submitted, spans: Vec::new() };
        // The Admit span (dur 0, detail = queue depth observed at
        // admission) is staged locally now but hits the global ring only
        // after the push succeeds, so refused submissions leave no
        // orphaned trace behind.
        let admit = trace.is_some().then(|| {
            let rec = SpanRecord {
                trace,
                stage: Stage::Admit,
                start_ns: shared.stats.obs.instant_ns(submitted),
                dur_ns: 0,
                detail: shared.queue.depth(),
            };
            meta.spans.push(rec);
            rec
        });
        let req = QueuedRequest { meta, job: Box::new(Job { handle: handle.clone(), x, tx }) };
        match shared.queue.push(req) {
            Ok(()) => {
                if let Some(rec) = admit {
                    shared.stats.obs.span(rec.trace, rec.stage, rec.start_ns, 0, rec.detail);
                }
                shared.stats.queue_depth.set(shared.queue.depth());
                Ok(Ticket { rx, trace })
            }
            Err(PushRefused::Full(req)) => {
                // Dropping the refused request releases the tenant slot.
                drop(req);
                shared.stats.rejected_queue_full.inc();
                Err(IngressError::Backpressure(Backpressure::QueueFull {
                    capacity: shared.cfg.queue_capacity,
                }))
            }
            Err(PushRefused::Closed(req)) => {
                drop(req);
                Err(IngressError::Backpressure(Backpressure::ShuttingDown))
            }
        }
    }

    /// Current counters (see [`IngressStats`]) — a point-in-time copy of
    /// the registry cells, with the queue-depth gauge refreshed.
    pub fn stats(&self) -> IngressStats {
        let s = &self.shared.stats;
        let depth = self.shared.queue.depth();
        s.queue_depth.set(depth);
        IngressStats {
            submitted: s.submitted.get(),
            rejected_queue_full: s.rejected_queue_full.get(),
            rejected_quota: s.rejected_quota.get(),
            shed_deadline: s.shed_deadline.get(),
            shed_shutdown: s.shed_shutdown.get(),
            completed: s.completed.get(),
            failed: s.failed.get(),
            direct_requests: s.direct_requests.get(),
            coalesced_requests: s.coalesced_requests.get(),
            coalesced_batches: s.coalesced_batches.get(),
            cost_gate_declined: s.cost_gate_declined.get(),
            deadline_misses: s.deadline_misses.get(),
            queue_depth: depth,
        }
    }

    /// The service this front door executes on.
    pub fn service(&self) -> &Arc<OracleService<T>> {
        &self.shared.service
    }

    /// A tenant's current in-flight request count.
    pub fn tenant_inflight(&self, tenant: &str) -> usize {
        self.shared.tenants.inflight(tenant)
    }

    /// Holds queued work back from the pump. Submissions still admit (up
    /// to queue capacity and quotas); nothing executes until
    /// [`Ingress::resume`]. Deterministic-batch construction for tests
    /// and benchmarks — paused queues do not shed on a timer, the pump
    /// re-checks deadlines when resumed.
    pub fn pause(&self) {
        self.shared.queue.pause();
    }

    /// Releases [`Ingress::pause`]; everything queued drains as one
    /// coalescing window.
    pub fn resume(&self) {
        self.shared.queue.resume();
    }
}

impl<T: Send + Sync + 'static> Drop for Ingress<T> {
    fn drop(&mut self) {
        self.shared.queue.close();
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

/// The pump: drain → (shed on shutdown | coalesce-and-execute), until the
/// queue closes and empties.
fn pump_loop<T: Send + Sync>(shared: &Shared<T>) {
    let mut state = batch::PumpState::new();
    while let Some(drained) = shared.queue.drain() {
        shared.stats.queue_depth.set(shared.queue.depth());
        if shared.queue.is_closed() {
            for mut req in drained {
                shared.stats.shed_shutdown.inc();
                shared.stats.resolve_request(&mut req.meta, 2);
                req.job.shed(Backpressure::ShuttingDown);
            }
            continue;
        }
        batch::process_batch(&shared.service, &shared.cfg, &shared.stats, &mut state, drained);
    }
}
