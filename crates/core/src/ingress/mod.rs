//! Async ingress: the admission-controlled front door over
//! [`OracleService`].
//!
//! The direct handle path ([`OracleService::spmv`]) is synchronous and
//! one-request-per-call: under N contending clients, requests serialize on
//! the pool and silently degrade to serial kernels. This module replaces
//! that degradation with an explicit request lifecycle:
//!
//! ```text
//!   submit ──► admit ──────► queue ──────────► start ─────────► Ticket
//!              │  │            │               (one planned    resolves
//!   tenant quota  queue cap    │                SpMV each,     (once, by
//!   Backpressure::TenantQuota  │                whole or in    whoever ran
//!   Backpressure::QueueFull    │                plan parts)    the last part)
//!                              ▼
//!               drained one request at a time, by the thread waiting on
//!               a ticket and by the pump, after the parts of the oldest
//!               started request; deadline expired when it starts?
//!               shed: Backpressure::DeadlineExpired
//! ```
//!
//! * **Admission** — every request names a tenant; a tenant may hold at
//!   most its quota of in-flight requests
//!   ([`IngressConfig::tenant_quota`]), so a greedy client saturates its
//!   own quota, not the queue. The queue itself is bounded; both refusals
//!   are immediate typed [`Backpressure`] errors, never blocking waits.
//! * **Execution** — a thread waiting on a ticket is an executor, and so
//!   is the pump thread, which wakes on the first push. Every request runs
//!   as its own planned SpMV over its [`MatrixHandle`]'s shared
//!   [`ExecPlan`](morpheus::ExecPlan), started in submission order, bitwise
//!   the direct [`OracleService::spmv`]. The executor that takes a request
//!   dispatches its plan on the service's pool when the pool is free and
//!   wider than one. A run that would be inline instead — a one-wide pool,
//!   or a pool another executor holds — is shared: the plan's parts (the
//!   disjoint row ranges, or BELL slice shares, of a matrix with 2^14
//!   entries or more; HYB and HDC run whole) are published, and every
//!   executor claims a part of the oldest started request before it takes
//!   a new one, so even a one-request burst runs on the pump and the
//!   waiter together. Claimed parts run into the request's one output, and
//!   whichever executor finishes the last part resolves the ticket.
//!   [`Ticket::wait`] returns the reply if it is there; otherwise it claims
//!   parts or takes the oldest queued request, without blocking, and looks
//!   for its reply again; only when there is neither does it block, until
//!   its reply comes or parts are published. A caller that just wrote `x`
//!   runs the kernel with `x` in its own cache, and its request pays no
//!   thread hand-off. The pump alone runs what nobody waits on: tickets
//!   polled with [`Ticket::try_wait`], work released by [`Ingress::resume`]
//!   before anyone waits, and the shedding at shutdown. Queued SpMVs are
//!   not merged into an SpMM: on the ingress workload a coalesced column
//!   cost more than the SpMV it replaced. A caller holding `k` vectors
//!   calls [`OracleService::spmm`] itself.
//! * **SLO enforcement** — requests carry deadlines (explicit, or
//!   [`IngressConfig::default_slo`]). A request is checked against its
//!   deadline when an executor takes it, just before its kernel would
//!   start; one that expired while queued is shed with
//!   [`Backpressure::DeadlineExpired`] *before* any part of it runs;
//!   work that finishes late still delivers and is counted as a deadline
//!   miss. See [`slo`] for the exact semantics.
//!
//! The pump and any number of waiters may run requests and parts at the
//! same time; each request is drained exactly once, under the queue's
//! mutex, and each part claimed once. What counts a request counts it once,
//! however many executors ran its parts: `ingress.direct_served` when it
//! is taken, and `ingress.requests_completed`, the `ingress.exec_ns`
//! sample, the telemetry sample, the quota release and the reply when its
//! last part finishes; `ingress.parts_shared` counts the parts run by an
//! executor other than the one that took their request. A kernel that
//! panics — in a part, or in a whole run — resolves its ticket once with
//! [`IngressError::Panicked`], after the request's other parts finish; the
//! executors carry on. A started request always finishes: a paused or
//! closed queue starts nothing new, but its started parts are still
//! claimed. Ingress work never takes the direct path's counted pool-busy
//! serial fallback — overload surfaces as typed backpressure at admission
//! instead.
//! Executions are timestamped into the adaptive-sampling
//! [`Telemetry`](crate::adapt::Telemetry) under `Op::Spmv` keys exactly
//! like direct handle calls, so retraining learns from queued traffic too.
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

mod queue;
pub mod slo;

pub use slo::Backpressure;

use crate::obs::{Counter, Gauge, Histogram, Obs, SlowRequest, SpanRecord, Stage, TraceId};
use crate::serve::{MatrixHandle, OracleService};
use crate::OracleError;
use morpheus::Scalar;
use queue::{
    Drained, ErasedParts, Job, JobMeta, PushRefused, QueuedRequest, Reply, Started, SubmissionQueue,
    TenantTable,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            queue_capacity: 1024,
            tenant_quota: 64,
            tenant_overrides: HashMap::new(),
            default_slo: None,
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
    /// Execution itself failed; nothing was delivered. Each failed request
    /// carries its own error.
    Exec(Arc<OracleError>),
    /// A kernel panicked while running the request — in any of its plan's
    /// parts, whichever executor ran it; nothing was delivered. Carries the
    /// panic's message. The executors and the other requests carry on.
    Panicked(String),
    /// The request was dropped without resolving its ticket; a bug, not an
    /// overload signal.
    Disconnected,
}

impl fmt::Display for IngressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngressError::Backpressure(b) => write!(f, "backpressure: {b}"),
            IngressError::Rejected(why) => write!(f, "request rejected: {why}"),
            IngressError::Exec(e) => write!(f, "execution failed: {e}"),
            IngressError::Panicked(why) => write!(f, "execution panicked: {why}"),
            IngressError::Disconnected => write!(f, "the request was dropped without a reply"),
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
    /// Always 0: the ingress no longer merges requests into an SpMM, and
    /// the field has no registry cell. Kept while `oracle_bench` reads it.
    pub coalesced_requests: u64,
    /// Always 0, like [`coalesced_requests`](Self::coalesced_requests).
    pub coalesced_batches: u64,
    /// Always 0: there is no coalescing gate to decline.
    pub cost_gate_declined: u64,
    /// Delivered results that finished after their deadline. Deprecated
    /// alias of `ingress.deadlines_missed`.
    pub deadline_misses: u64,
    /// Requests currently queued (gauge, not monotonic). Deprecated
    /// alias of `ingress.queue_depth`.
    pub queue_depth: u64,
}

impl IngressStats {
    /// Always 0: every request is served as its own SpMV. Kept while
    /// `oracle_bench` reads it.
    pub fn coalescing_ratio(&self) -> f64 {
        0.0
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
    /// `ingress.deadlines_missed`
    pub(crate) deadline_misses: Counter,
    /// `ingress.parts_shared` — plan parts run by an executor other than
    /// the one that took their request.
    pub(crate) parts_shared: Counter,
    /// `ingress.queue_depth`
    pub(crate) queue_depth: Gauge,
    /// `ingress.queue_wait_ns` — submission to drain (by the pump or a
    /// waiting ticket).
    pub(crate) queue_wait_hist: Arc<Histogram>,
    /// `ingress.exec_ns` — one sample per request's kernel execution, from
    /// its start to its last part.
    pub(crate) exec_hist: Arc<Histogram>,
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
            deadline_misses: r.counter("ingress.deadlines_missed"),
            parts_shared: r.counter("ingress.parts_shared"),
            queue_depth: r.gauge("ingress.queue_depth"),
            queue_wait_hist: r.histogram("ingress.queue_wait_ns"),
            exec_hist: r.histogram("ingress.exec_ns"),
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
/// [`IngressError`]. One-shot; waiting consumes it, and runs queued work
/// on the waiting thread (see [`Ticket::wait`]).
pub struct Ticket<V: Scalar> {
    rx: Receiver<Result<Vec<V>, IngressError>>,
    trace: TraceId,
    ingress: Arc<dyn Executor>,
}

impl<V: Scalar> fmt::Debug for Ticket<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket").field("trace", &self.trace).finish_non_exhaustive()
    }
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
    ///
    /// While the reply is not there, the calling thread works as the pump
    /// does, one piece at a time, looking for its reply between them: it
    /// claims a part of the oldest started request whose plan runs in parts
    /// — its own or another client's — or, with none left to claim, takes
    /// the oldest queued request and starts it. Only when there is neither
    /// does it block, until its reply comes or a started request publishes
    /// parts. A paused or closed ingress starts nothing here, but the parts
    /// of a request already started are still claimed.
    pub fn wait(self) -> Result<Vec<V>, IngressError> {
        loop {
            if let Some(result) = self.try_wait() {
                return result;
            }
            if !self.ingress.run_queued() {
                let mut reply = None;
                self.ingress.park(&mut || {
                    reply = self.try_wait();
                    reply.is_some()
                });
                if let Some(result) = reply {
                    return result;
                }
            }
        }
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    /// Never executes anything.
    pub fn try_wait(&self) -> Option<Result<Vec<V>, IngressError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(IngressError::Disconnected)),
        }
    }
}

/// What a [`Ticket`] needs of its ingress, without its tuner type.
trait Executor: Send + Sync {
    /// Claims parts of a started request, or takes the oldest queued request
    /// and starts it, without blocking, on the calling thread; `false` when
    /// there was nothing to do.
    fn run_queued(&self) -> bool;
    /// Blocks until `done()` holds or a started request has parts to claim.
    fn park(&self, done: &mut dyn FnMut() -> bool);
}

struct Shared<T> {
    service: Arc<OracleService<T>>,
    queue: SubmissionQueue<T>,
    tenants: TenantTable,
    stats: StatsCells,
    cfg: IngressConfig,
}

impl<T: Send + Sync + 'static> Shared<T> {
    /// Runs a piece of drained work on the calling thread — the pump's and
    /// every waiter's one path.
    fn run(&self, drained: Drained<T>) {
        match drained {
            Drained::Parts(parts) => self.claim(&*parts, false),
            Drained::Run(req) => self.start(req),
            Drained::Shed(mut req) => {
                self.stats.queue_depth.set(self.queue.depth());
                self.stats.shed_shutdown.inc();
                self.stats.resolve_request(&mut req.meta, 2);
                req.job.shed(Backpressure::ShuttingDown);
                self.queue.wake_parked();
            }
        }
    }

    /// Starts a request taken from the queue: sheds it if its deadline
    /// passed while it was queued — the whole request, before any part —
    /// else runs it through the service, whole, or in parts it publishes for
    /// every executor and then claims itself.
    fn start(&self, mut req: QueuedRequest<T>) {
        let stats = &self.stats;
        stats.queue_depth.set(self.queue.depth());
        let now = Instant::now();
        if slo::expired(req.meta.deadline, now) {
            stats.shed_deadline.inc();
            stats.resolve_request(&mut req.meta, 2);
            req.job.shed(Backpressure::DeadlineExpired);
            self.queue.wake_parked();
            return;
        }
        if req.meta.trace.is_some() {
            let wait_ns =
                now.saturating_duration_since(req.meta.submitted).as_nanos().min(u64::MAX as u128) as u64;
            stats.queue_wait_hist.record_ns(wait_ns);
            let start_ns = stats.obs.instant_ns(req.meta.submitted);
            stats.stage_span(&mut req.meta, Stage::QueueWait, start_ns, wait_ns, 0);
        }
        stats.direct_requests.inc();
        match req.job.start(req.meta, &self.service, stats) {
            Started::Resolved => self.queue.wake_parked(),
            Started::Parts(parts) => {
                if parts.unclaimed() > 1 {
                    self.queue.publish(Arc::clone(&parts));
                }
                self.claim(&*parts, true);
            }
        }
    }

    /// Claims parts of a started request; wakes the parked threads when
    /// this claim resolved its ticket.
    fn claim(&self, parts: &dyn ErasedParts<T>, taker: bool) {
        if parts.claim(&self.service, &self.stats, taker) {
            self.queue.wake_parked();
        }
    }
}

impl<T: Send + Sync + 'static> Executor for Shared<T> {
    fn run_queued(&self) -> bool {
        self.queue.try_drain().map(|drained| self.run(drained)).is_some()
    }

    fn park(&self, done: &mut dyn FnMut() -> bool) {
        self.queue.park(done);
    }
}

/// The async front door over an [`OracleService`]: submissions from any
/// number of threads, drained and executed by the threads waiting on their
/// tickets and by one pump thread for the rest.
/// See the [module docs](self) for the request lifecycle.
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
        let mut meta = JobMeta { deadline, trace, submitted, spans: Vec::new() };
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
        let job = Job { handle: handle.clone(), x, reply: Reply { tx, tenant: Some(tenant_slot) } };
        let req = QueuedRequest { meta, job: Box::new(job) };
        match shared.queue.push(req) {
            Ok(()) => {
                if let Some(rec) = admit {
                    shared.stats.obs.span(rec.trace, rec.stage, rec.start_ns, 0, rec.detail);
                }
                shared.stats.queue_depth.set(shared.queue.depth());
                Ok(Ticket { rx, trace, ingress: Arc::clone(&self.shared) as Arc<dyn Executor> })
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
            coalesced_requests: 0,
            coalesced_batches: 0,
            cost_gate_declined: 0,
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

    /// Holds queued work back from every executor. Submissions still
    /// admit (up to queue capacity and quotas); no request starts until
    /// [`Ingress::resume`], not even on a thread blocked in
    /// [`Ticket::wait`] — but the parts of a request already started are
    /// still claimed, so it finishes. Deterministic-burst construction for tests and
    /// benchmarks — paused queues do not shed on a timer, each request's
    /// deadline is checked when it is drained after resuming.
    pub fn pause(&self) {
        self.shared.queue.pause();
    }

    /// Releases [`Ingress::pause`]; what is queued drains one request at a
    /// time, in submission order, run by the pump and by any thread waiting
    /// on a ticket.
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

/// The pump: drain one piece of work → (claim parts | start a request |
/// shed it on shutdown), until the queue closes and empties. Whether a
/// request is shed is what [`SubmissionQueue::drain`] saw under the lock it
/// drained under: a request drained while the queue was open runs, even if
/// the queue closes before it does.
fn pump_loop<T: Send + Sync + 'static>(shared: &Shared<T>) {
    while let Some(drained) = shared.queue.drain() {
        shared.run(drained);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oracle, RunFirstTuner};
    use morpheus::{CooMatrix, DynamicMatrix};
    use morpheus_machine::{systems, Backend, VirtualEngine};

    /// Dropping the front door while requests run in parts on the pump and
    /// on three waiting threads: every ticket resolves once — delivered,
    /// bitwise the direct SpMV, or shed as shutting down — the counters add
    /// up to the submissions, and each quota slot is released once.
    #[test]
    fn dropping_the_ingress_with_parts_in_flight_resolves_every_ticket_once() {
        let service = Arc::new(
            Oracle::builder()
                .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
                .tuner(RunFirstTuner::new(1))
                .workers(1)
                .build_service()
                .unwrap(),
        );
        let n = 100_000usize;
        let (mut rows, mut cols) = (Vec::new(), Vec::new());
        for i in 0..n {
            for j in [i.wrapping_sub(1), i, i + 1].into_iter().filter(|&j| j < n) {
                rows.push(i);
                cols.push(j);
            }
        }
        let vals: Vec<f64> = (0..rows.len()).map(|e| 0.5 + (e % 13) as f64 * 0.25).collect();
        let m = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
        let handle = service.register(m).unwrap();
        assert!(handle.plan().num_parts() >= 2, "a plan with parts to share");
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut expect = vec![0.0; n];
        service.spmv(&handle, &x, &mut expect).unwrap();

        let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
        let shared = Arc::clone(&ingress.shared);
        let tenants = ["a", "b"];
        let mut tickets: Vec<_> =
            (0..24).map(|c| ingress.submit(tenants[c % 2], &handle, x.clone()).unwrap()).collect();
        let results: Vec<_> = std::thread::scope(|s| {
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    let mine: Vec<_> = tickets.drain(..8).collect();
                    s.spawn(move || mine.into_iter().map(Ticket::wait).collect::<Vec<_>>())
                })
                .collect();
            std::thread::sleep(Duration::from_millis(2));
            drop(ingress);
            waiters.into_iter().flat_map(|w| w.join().unwrap()).collect()
        });
        let mut delivered = 0u64;
        for (c, result) in results.into_iter().enumerate() {
            match result {
                Ok(y) => {
                    delivered += 1;
                    assert!(y.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits()), "request {c}");
                }
                Err(IngressError::Backpressure(Backpressure::ShuttingDown)) => {}
                Err(e) => panic!("request {c}: {e}"),
            }
        }
        let stats = &shared.stats;
        assert_eq!(stats.completed.get(), delivered);
        assert_eq!(stats.completed.get() + stats.shed_shutdown.get(), 24, "each ticket resolved once");
        assert_eq!(stats.failed.get() + stats.shed_deadline.get(), 0);
        for tenant in tenants {
            assert_eq!(shared.tenants.inflight(tenant), 0, "tenant {tenant}: each slot released once");
        }
    }
}
