//! The coalescer: turns a drained batch of queued SpMV requests into the
//! cheapest equivalent set of planned executions.
//!
//! A drained batch is grouped by `(scalar type, handle id)` — only
//! requests against the *same* registered matrix with the *same* scalar
//! can share a kernel launch. Each group (chunked to
//! [`IngressConfig::max_batch`](super::IngressConfig::max_batch)) is then
//! either:
//!
//! * **coalesced** — the k input vectors are gathered into the row-major
//!   `ncols x k` block of [`morpheus::BatchWorkspace`], executed as *one*
//!   planned SpMM through the handle's shared
//!   [`ExecPlan`](morpheus::ExecPlan), and scattered back to the k
//!   tickets. Per-row accumulation order of the SpMM kernels matches the
//!   SpMV kernels column by column, so every ticket receives a result
//!   **bitwise identical** to a direct SpMV; or
//! * **executed directly**, one planned SpMV per request, when the group
//!   is a singleton, coalescing is disabled, or the cost-model gate
//!   declines.
//!
//! The gate asks the engine the service tunes with whether
//! `spmm_time(k) < k * spmv_time` for the handle's realized format — the
//! same [`VirtualEngine`] arithmetic the tuner trusts for format selection.
//! `spmm_time` is affine in `k` (`spmv_time + (k - 1) * per_rhs`), so for
//! every `k >= 2` that is the one comparison `per_rhs < spmv_time`, and
//! both numbers were computed at registration from the machine view tuning
//! already held: the executor reads them off the handle
//! ([`MatrixHandle::batch_cost`], summed over shards for a partitioned
//! handle) and never looks at a matrix. Expired requests are shed *before*
//! grouping and never execute.
//!
//! [`VirtualEngine`]: morpheus_machine::VirtualEngine
//! [`MatrixHandle::batch_cost`]: crate::serve::MatrixHandle::batch_cost

use super::queue::{Job, QueuedRequest};
use super::slo::{expired, Backpressure};
use super::{CoalescePolicy, IngressConfig, IngressError, StatsCells};
use crate::obs::{Stage, TraceId};
use crate::serve::OracleService;
use crate::OracleError;
use morpheus::{BatchWorkspace, Op, Scalar};
use std::any::TypeId;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

#[inline]
fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// An executor's scratch, the per-scalar gather/scatter blocks: kept on
/// the ingress' shelf between batches and borrowed by whichever thread
/// runs one.
pub(crate) struct PumpState {
    bw_f32: BatchWorkspace<f32>,
    bw_f64: BatchWorkspace<f64>,
}

impl PumpState {
    pub(crate) fn new() -> Self {
        PumpState { bw_f32: BatchWorkspace::new(), bw_f64: BatchWorkspace::new() }
    }
}

/// Sheds expired requests, groups the rest and executes every group —
/// one drained batch, on the pump or on a waiting ticket's thread.
pub(crate) fn process_batch<T: Send + Sync>(
    service: &OracleService<T>,
    cfg: &IngressConfig,
    stats: &StatsCells,
    state: &mut PumpState,
    batch: Vec<QueuedRequest<T>>,
) {
    let now = Instant::now();
    let mut groups: Vec<Vec<QueuedRequest<T>>> = Vec::new();
    let mut index: HashMap<(TypeId, u64), usize> = HashMap::new();
    for mut req in batch {
        if expired(req.meta.deadline, now) {
            stats.shed_deadline.inc();
            stats.resolve_request(&mut req.meta, 2);
            req.job.shed(Backpressure::DeadlineExpired);
            continue;
        }
        if req.meta.trace.is_some() {
            let wait_ns = ns(now.saturating_duration_since(req.meta.submitted));
            stats.queue_wait_hist.record_ns(wait_ns);
            let start_ns = stats.obs.instant_ns(req.meta.submitted);
            stats.stage_span(&mut req.meta, Stage::QueueWait, start_ns, wait_ns, 0);
        }
        let key = (req.job.scalar(), req.job.handle_id());
        let gi = *index.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[gi].push(req);
    }
    for mut group in groups {
        let scalar = group[0].job.scalar();
        if scalar == TypeId::of::<f32>() {
            execute_group::<T, f32>(service, cfg, stats, &mut state.bw_f32, &mut group);
        } else if scalar == TypeId::of::<f64>() {
            execute_group::<T, f64>(service, cfg, stats, &mut state.bw_f64, &mut group);
        } else {
            // A scalar with no gather block: still served, one planned
            // SpMV per request — never dropped.
            for req in group.iter_mut() {
                finish_direct(service, stats, req);
            }
        }
    }
}

/// Runs one request through the queued (no-silent-fallback) SpMV path and
/// settles its ticket, spans and counters.
fn finish_direct<T: Send + Sync>(service: &OracleService<T>, stats: &StatsCells, req: &mut QueuedRequest<T>) {
    stats.direct_requests.inc();
    req.job.run_direct(service, stats, &mut req.meta);
}

/// Executes one same-scalar, same-handle group: chunks it to the batch
/// cap, runs the cost gate per chunk, and coalesces or falls back to
/// direct execution accordingly.
fn execute_group<T: Send + Sync, V: Scalar>(
    service: &OracleService<T>,
    cfg: &IngressConfig,
    stats: &StatsCells,
    bw: &mut BatchWorkspace<V>,
    group: &mut [QueuedRequest<T>],
) {
    let cap = cfg.max_batch.max(1);
    for chunk in group.chunks_mut(cap) {
        let k = chunk.len();
        let t_gate = stats.obs.enabled().then(Instant::now);
        let coalesce = k >= 2
            && match cfg.coalesce {
                CoalescePolicy::Never => false,
                CoalescePolicy::Always => true,
                CoalescePolicy::CostModel => {
                    let passes = job_of::<T, V>(&mut chunk[0]).handle.batch_cost().coalescing_pays();
                    if !passes {
                        stats.cost_gate_declined.inc();
                    }
                    passes
                }
            };
        if let Some(t_gate) = t_gate {
            // One CoalesceDecision per request: detail = the batch width
            // the request executed under (k when coalesced, 0 when it
            // went direct); dur = the chunk's gate-evaluation time.
            let gate_ns = ns(t_gate.elapsed());
            stats.coalesce_hist.record_ns(gate_ns);
            let start_ns = stats.obs.instant_ns(t_gate);
            let detail = if coalesce { k as u64 } else { 0 };
            for req in chunk.iter_mut() {
                stats.stage_span(&mut req.meta, Stage::CoalesceDecision, start_ns, gate_ns, detail);
            }
        }
        if coalesce {
            coalesce_chunk::<T, V>(service, stats, bw, chunk);
        } else {
            for req in chunk.iter_mut() {
                finish_direct(service, stats, req);
            }
        }
    }
}

/// The typed job behind a request of a group of scalar `V`.
fn job_of<T, V: Scalar>(req: &mut QueuedRequest<T>) -> &mut Job<V> {
    req.job.as_any().downcast_mut::<Job<V>>().expect("chunk grouped by scalar")
}

/// Gathers a chunk's input vectors, executes one planned SpMM, scatters
/// result columns back to the tickets — bitwise identical to k direct
/// SpMVs. On execution failure every ticket receives the (shared) error;
/// no ticket is left dangling and none sees partial results.
fn coalesce_chunk<T: Send + Sync, V: Scalar>(
    service: &OracleService<T>,
    stats: &StatsCells,
    bw: &mut BatchWorkspace<V>,
    chunk: &mut [QueuedRequest<T>],
) {
    let k = chunk.len();
    let obs_on = stats.obs.enabled();
    // (start_ns, dur_ns) of the shared kernel execution — every request
    // of the chunk gets the same Exec span, and the exec histogram takes
    // one sample per execution, not per request.
    let mut exec_span: Option<(u64, u64)> = None;
    let run = {
        let jobs: Vec<&Job<V>> = chunk.iter_mut().map(|r| &*job_of::<T, V>(r)).collect();
        let handle = jobs[0].handle.clone();
        let columns: Vec<&[V]> = jobs.iter().map(|j| j.x.as_slice()).collect();
        let exec_span = &mut exec_span;
        bw.run(handle.nrows(), &columns, move |x, y| {
            // A coalesced execution serves k requests at once; no single
            // request owns it, so the service-side fine spans get NONE and
            // the per-request Exec spans are emitted below from this one
            // measurement.
            let t0 = obs_on.then(Instant::now);
            let r = service.execute_queued(&handle, Op::Spmm { k }, x, y, TraceId::NONE);
            if let Some(t0) = t0 {
                let dur = ns(t0.elapsed());
                stats.exec_hist.record_ns(dur);
                *exec_span = Some((stats.obs.instant_ns(t0), dur));
            }
            r
        })
    };
    match run {
        Ok(()) => {
            // Like the execution, the scatter is one measurement shared by
            // the chunk: one histogram sample, the same span per request.
            // Each request's spent input vector is recycled as its output.
            let t_sc = obs_on.then(Instant::now);
            bw.scatter_into(&mut chunk.iter_mut().map(|r| &mut job_of::<T, V>(r).x).collect::<Vec<_>>());
            let scatter_span = t_sc.map(|t| (stats.obs.instant_ns(t), ns(t.elapsed())));
            if let Some((_, dur_ns)) = scatter_span {
                stats.scatter_hist.record_ns(dur_ns);
            }
            // Counters strictly before the ticket sends, so a client
            // returning from `wait()` never reads stale stats.
            let now = Instant::now();
            stats.coalesced_requests.add(k as u64);
            stats.coalesced_batches.inc();
            stats.completed.add(k as u64);
            let misses = chunk.iter().filter(|r| expired(r.meta.deadline, now)).count();
            if misses > 0 {
                stats.deadline_misses.add(misses as u64);
            }
            for req in chunk.iter_mut() {
                let missed = expired(req.meta.deadline, now);
                for (stage, span) in [(Stage::Exec, exec_span), (Stage::Scatter, scatter_span)] {
                    if let Some((start_ns, dur_ns)) = span {
                        stats.stage_span(&mut req.meta, stage, start_ns, dur_ns, 0);
                    }
                }
                stats.resolve_request(&mut req.meta, u64::from(missed));
                let job = job_of::<T, V>(req);
                let out = std::mem::take(&mut job.x);
                job.send(Ok(out));
            }
        }
        Err(e) => {
            stats.failed.add(k as u64);
            let shared = Arc::new(OracleError::Morpheus(e));
            for req in chunk.iter_mut() {
                stats.resolve_request(&mut req.meta, 3);
                job_of::<T, V>(req).send(Err(IngressError::Exec(Arc::clone(&shared))));
            }
        }
    }
}
