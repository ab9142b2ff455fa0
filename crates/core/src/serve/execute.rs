//! Every execution through a registered handle, direct or queued by the
//! ingress: [`OracleService::execute`] and the ladder it writes down, the
//! direct request around it, the shared run of a queued SpMV, and the
//! telemetry and request observation each of them records.

use super::{MatrixHandle, OracleService, Stored};
use crate::adapt::SampleKey;
use crate::obs::{Stage, TraceId};
use crate::Result;
use morpheus::format::FormatId;
use morpheus::{Scalar, SharedRun};
use morpheus_machine::Op;
use morpheus_parallel::ThreadPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

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

impl<T> OracleService<T> {
    /// Attributes one measured execution to its telemetry population —
    /// a no-op (no timestamps taken by callers either) when the service
    /// has no collector.
    #[inline]
    pub(super) fn record_execution<V: Scalar>(
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
    pub(super) fn take_serial_fallback(&self, pool: &ThreadPool) -> bool {
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
    pub(super) fn observe_request(&self, trace: TraceId, t0: Instant, elapsed: std::time::Duration) {
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
    /// shards concurrently.
    fn execute<V: Scalar>(
        &self,
        handle: &MatrixHandle<V>,
        op: Op,
        x: &[V],
        y: &mut [V],
        pool: Option<&ThreadPool>,
    ) -> morpheus::Result<Option<(Instant, std::time::Duration)>> {
        let t0 = (self.collector.is_some() || self.obs.enabled()).then(Instant::now);
        let sample = match &handle.inner.stored {
            Stored::Single { matrix, structure, param_code, plan } => {
                plan.run(matrix, op, x, y, pool)?;
                let workers = pool.map_or(1, ThreadPool::num_threads);
                Some((*structure, matrix.format_id(), *param_code, workers))
            }
            Stored::Partitioned { matrix: p, param_codes } => {
                // Capture the collector, not `self`: the closure is handed
                // across shard worker threads and must stay `Sync`
                // independently of `T`.
                let collector = self.collector.as_deref();
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
                };
                let observe: Option<&(dyn Fn(usize, std::time::Duration) + Sync)> =
                    if collector.is_some() { Some(&observe) } else { None };
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
    pub(super) fn request<V: Scalar>(
        &self,
        handle: &MatrixHandle<V>,
        op: Op,
        x: &[V],
        y: &mut [V],
    ) -> Result<()> {
        let trace = self.obs.mint_trace();
        let pool = self.exec_pool().filter(|pool| !self.take_serial_fallback(pool));
        if let Some((t0, elapsed)) = self.execute(handle, op, x, y, pool)? {
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
    /// here. Request-level ingress spans are the executor's job.
    pub(crate) fn start_queued<V: Scalar>(
        &self,
        handle: &MatrixHandle<V>,
        x: &[V],
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
        self.execute(handle, Op::Spmv, x, &mut y, pool)?;
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
}
