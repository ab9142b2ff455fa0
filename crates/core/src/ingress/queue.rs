//! The ingress submission queue, per-tenant admission and the type-erased
//! request representation its executors drain.
//!
//! The queue is a bounded `VecDeque` under a `std::sync::Mutex` with a
//! `Condvar` pump wake-up — deliberately the plainest possible MPMC: the
//! vendored channel exposes neither depth nor timed receives, and the
//! executors need a take-the-oldest primitive, blocking for the pump and
//! non-blocking for a waiting ticket, plus a depth gauge (for the stats
//! surface). Every drain hands out one request, in submission order: one
//! lock hold per request, so the pump and a waiter pull one burst's
//! requests between them and run them at the same time, and each request
//! is checked against its deadline when it starts. Submitters never
//! block: a full queue is an immediate [`Backpressure::QueueFull`], the
//! explicit replacement for queueing behind other clients.
//!
//! Requests are stored type-erased ([`ErasedJob`]) so one queue carries
//! `f32` and `f64` traffic at once; each runs through its own concrete
//! [`Job<V>`].

use super::slo::Backpressure;
use super::{IngressError, StatsCells};
use crate::obs::{SpanRecord, Stage, TraceId};
use crate::serve::{MatrixHandle, OracleService};
use crate::OracleError;
use morpheus::Scalar;
use parking_lot::Mutex as PlMutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One tenant's admission ticket: holds the tenant's in-flight count
/// incremented until dropped. A [`Job`] drops it just before its reply is
/// sent, so every exit path — delivery, shed, error, a job dropped unsent —
/// releases the quota slot exactly once, and a client returning from
/// `wait()` finds its slot already free.
#[derive(Debug)]
pub(crate) struct TenantSlot {
    inflight: Arc<AtomicUsize>,
}

impl Drop for TenantSlot {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Per-tenant in-flight accounting. Tenants are created on first sight;
/// the table is consulted once per submission (one short mutex hold to
/// fetch the counter, then lock-free CAS admission against the quota).
#[derive(Debug, Default)]
pub(crate) struct TenantTable {
    counters: PlMutex<HashMap<String, Arc<AtomicUsize>>>,
}

impl TenantTable {
    /// Admits one request for `tenant` under `quota`, or refuses with the
    /// quota that was hit. The returned slot releases on drop.
    pub(crate) fn acquire(&self, tenant: &str, quota: usize) -> Result<TenantSlot, Backpressure> {
        let counter = {
            let mut map = self.counters.lock();
            match map.get(tenant) {
                Some(c) => Arc::clone(c),
                None => {
                    let c = Arc::new(AtomicUsize::new(0));
                    map.insert(tenant.to_string(), Arc::clone(&c));
                    c
                }
            }
        };
        let mut current = counter.load(Ordering::Relaxed);
        loop {
            if current >= quota {
                return Err(Backpressure::TenantQuota { limit: quota });
            }
            match counter.compare_exchange_weak(current, current + 1, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Ok(TenantSlot { inflight: counter }),
                Err(seen) => current = seen,
            }
        }
    }

    /// Current in-flight count for `tenant` (0 if never seen).
    pub(crate) fn inflight(&self, tenant: &str) -> usize {
        self.counters.lock().get(tenant).map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Scheduling metadata shared by every request regardless of scalar type.
pub(crate) struct JobMeta {
    /// Absolute deadline, resolved at submission.
    pub(crate) deadline: Option<Instant>,
    /// Trace id minted at admission ([`TraceId::NONE`] when tracing is
    /// off — every observation site gates on it).
    pub(crate) trace: TraceId,
    /// Submission timestamp: queue-wait and total-latency baseline.
    pub(crate) submitted: Instant,
    /// Locally-assembled span tree, mirrored from the global ring so the
    /// flight recorder can capture a breached request's full tree even
    /// after the ring wrapped. Empty for untraced requests.
    pub(crate) spans: Vec<SpanRecord>,
}

/// A concrete queued SpMV request for scalar `V`.
pub(crate) struct Job<V: Scalar> {
    pub(crate) handle: MatrixHandle<V>,
    pub(crate) x: Vec<V>,
    pub(crate) tx: SyncSender<Result<Vec<V>, IngressError>>,
    /// Quota slot, released by [`Job::send`] (or by dropping the job).
    pub(crate) tenant: Option<TenantSlot>,
}

impl<V: Scalar> Job<V> {
    /// Releases the tenant's quota slot, then resolves the ticket; a
    /// receiver that gave up (dropped) is fine.
    pub(crate) fn send(&mut self, result: Result<Vec<V>, IngressError>) {
        drop(self.tenant.take());
        let _ = self.tx.send(result);
    }
}

/// Scalar-erased view of a [`Job<V>`], so one queue and one runner carry
/// every scalar type.
pub(crate) trait ErasedJob<T>: Send {
    /// Executes this single request through the service's queued-execution
    /// path, accounts the outcome (completed/failed/deadline-miss) in
    /// `stats`, records its Exec/Resolve spans and exec-latency sample,
    /// and resolves its ticket — counters and spans strictly *before* the
    /// ticket, so a caller returning from `wait()` never reads stale stats.
    fn run_direct(&mut self, service: &OracleService<T>, stats: &StatsCells, meta: &mut JobMeta);
    /// Resolves the ticket with typed backpressure; nothing executes.
    fn shed(&mut self, reason: Backpressure);
}

impl<T: Send + Sync, V: Scalar> ErasedJob<T> for Job<V> {
    fn run_direct(&mut self, service: &OracleService<T>, stats: &StatsCells, meta: &mut JobMeta) {
        let mut y = vec![V::ZERO; self.handle.nrows()];
        let t0 = meta.trace.is_some().then(Instant::now);
        match service.execute_queued(&self.handle, &self.x, &mut y, meta.trace) {
            Ok(()) => {
                let missed = super::slo::expired(meta.deadline, Instant::now());
                stats.completed.inc();
                if missed {
                    stats.deadline_misses.inc();
                }
                if let Some(t0) = t0 {
                    let dur = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    stats.exec_hist.record_ns(dur);
                    stats.stage_span(meta, Stage::Exec, stats.obs.instant_ns(t0), dur, 0);
                }
                stats.resolve_request(meta, u64::from(missed));
                self.send(Ok(y));
            }
            Err(e) => {
                stats.failed.inc();
                stats.resolve_request(meta, 3);
                self.send(Err(IngressError::Exec(Arc::new(OracleError::Morpheus(e)))));
            }
        }
    }

    fn shed(&mut self, reason: Backpressure) {
        self.send(Err(IngressError::Backpressure(reason)));
    }
}

/// One queued request: scheduling metadata plus the scalar-erased job.
pub(crate) struct QueuedRequest<T> {
    pub(crate) meta: JobMeta,
    pub(crate) job: Box<dyn ErasedJob<T>>,
}

/// The request [`SubmissionQueue::drain`] took, and what the queue's state
/// said to do with it when it was taken.
pub(crate) enum Drained<T> {
    /// Drained while the queue was open: execute it.
    Run(QueuedRequest<T>),
    /// Drained after [`SubmissionQueue::close`]: shed it, nothing executes.
    Shed(QueuedRequest<T>),
}

/// Outcome of a push attempt; the request is handed back on refusal so
/// the submitter can resolve its ticket (and release the tenant slot).
pub(crate) enum PushRefused<T> {
    Full(QueuedRequest<T>),
    Closed(QueuedRequest<T>),
}

struct QueueState<T> {
    items: VecDeque<QueuedRequest<T>>,
    closed: bool,
    paused: bool,
}

/// The bounded queue between submitters and the executors (the pump and
/// every waiting ticket). See the
/// [module docs](self) for why this is a mutex + condvar rather than a
/// channel.
pub(crate) struct SubmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    wakeup: Condvar,
    capacity: usize,
    /// Lock-free mirror of the current queue length for the stats gauge.
    depth: AtomicU64,
}

impl<T> SubmissionQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        SubmissionQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false, paused: false }),
            wakeup: Condvar::new(),
            capacity: capacity.max(1),
            depth: AtomicU64::new(0),
        }
    }

    /// Enqueues without blocking; refuses when full or closed.
    pub(crate) fn push(&self, req: QueuedRequest<T>) -> Result<(), PushRefused<T>> {
        let mut st = self.state.lock().expect("ingress queue poisoned");
        if st.closed {
            return Err(PushRefused::Closed(req));
        }
        if st.items.len() >= self.capacity {
            return Err(PushRefused::Full(req));
        }
        st.items.push_back(req);
        self.depth.store(st.items.len() as u64, Ordering::Relaxed);
        self.wakeup.notify_one();
        Ok(())
    }

    /// Blocks until work is available (and the queue is not paused), then
    /// takes the **oldest** queued request, as [`Drained::Run`]. After
    /// close, remaining requests are still handed out one at a time (paused
    /// or not), as [`Drained::Shed`]: the verdict is taken under the same
    /// lock hold as the request, so a close that lands after the drain
    /// cannot turn a request taken from an open queue into one to shed.
    /// Returns `None` once the queue is closed and empty.
    pub(crate) fn drain(&self) -> Option<Drained<T>> {
        let mut st = self.state.lock().expect("ingress queue poisoned");
        loop {
            if st.closed {
                return self.take_one(&mut st).map(Drained::Shed);
            }
            if !st.paused {
                if let Some(req) = self.take_one(&mut st) {
                    return Some(Drained::Run(req));
                }
            }
            st = self.wakeup.wait(st).expect("ingress queue poisoned");
        }
    }

    /// [`SubmissionQueue::drain`] without blocking, for a waiting ticket:
    /// the oldest queued request, or `None` when the queue is empty, paused
    /// or closed — a paused queue runs nothing until resumed, and a closed
    /// one is the pump's to shed.
    pub(crate) fn try_drain(&self) -> Option<QueuedRequest<T>> {
        let mut st = self.state.lock().expect("ingress queue poisoned");
        if st.closed || st.paused {
            return None;
        }
        self.take_one(&mut st)
    }

    fn take_one(&self, st: &mut QueueState<T>) -> Option<QueuedRequest<T>> {
        let req = st.items.pop_front()?;
        self.depth.store(st.items.len() as u64, Ordering::Relaxed);
        Some(req)
    }

    /// Current queue length (lock-free; the stats gauge).
    pub(crate) fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Stops admission and wakes the pump for final shedding.
    pub(crate) fn close(&self) {
        self.state.lock().expect("ingress queue poisoned").closed = true;
        self.wakeup.notify_all();
    }

    /// Holds queued work back from every executor (used to build deterministic
    /// bursts; see [`Ingress::pause`](super::Ingress::pause)).
    pub(crate) fn pause(&self) {
        self.state.lock().expect("ingress queue poisoned").paused = true;
    }

    /// Releases a [`SubmissionQueue::pause`].
    pub(crate) fn resume(&self) {
        self.state.lock().expect("ingress queue poisoned").paused = false;
        self.wakeup.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A queue entry that never executes; its trace id is its tag.
    struct Probe;

    impl<T> ErasedJob<T> for Probe {
        fn run_direct(&mut self, _: &OracleService<T>, _: &StatsCells, _: &mut JobMeta) {
            unreachable!("the queue never executes a request");
        }
        fn shed(&mut self, _: Backpressure) {}
    }

    fn request(tag: u64) -> QueuedRequest<()> {
        let meta =
            JobMeta { deadline: None, trace: TraceId(tag), submitted: Instant::now(), spans: Vec::new() };
        QueuedRequest { meta, job: Box::new(Probe) }
    }

    fn queue_of(tags: std::ops::Range<u64>) -> SubmissionQueue<()> {
        let q = SubmissionQueue::new(16);
        for tag in tags {
            assert!(q.push(request(tag)).is_ok());
        }
        q
    }

    fn tag(req: &QueuedRequest<()>) -> u64 {
        req.meta.trace.0
    }

    #[test]
    fn each_drain_takes_one_request_in_submission_order() {
        let q = queue_of(1..5);
        assert_eq!(q.try_drain().as_ref().map(tag), Some(1));
        assert_eq!(q.depth(), 3);
        match q.drain() {
            Some(Drained::Run(req)) => assert_eq!(tag(&req), 2),
            _ => panic!("an open queue with work must hand out Run"),
        }
        assert_eq!(q.depth(), 2);
        assert_eq!(q.try_drain().as_ref().map(tag), Some(3));
        assert!(q.push(request(5)).is_ok());
        assert_eq!(q.try_drain().as_ref().map(tag), Some(4));
        assert_eq!(q.try_drain().as_ref().map(tag), Some(5));
        assert!(q.try_drain().is_none());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn a_paused_queue_hands_out_nothing_until_resumed() {
        let q = queue_of(1..3);
        q.pause();
        assert!(q.try_drain().is_none());
        assert_eq!(q.depth(), 2);
        // A blocked pump stays blocked while paused and takes the oldest
        // request once resumed.
        std::thread::scope(|s| {
            let pump = s.spawn(|| match q.drain() {
                Some(Drained::Run(req)) => tag(&req),
                _ => panic!("a resumed queue must hand out Run"),
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!pump.is_finished(), "a paused queue handed out a request");
            q.resume();
            assert_eq!(pump.join().unwrap(), 1);
        });
        assert_eq!(q.try_drain().as_ref().map(tag), Some(2));
    }

    #[test]
    fn a_closed_queue_sheds_what_remains_one_request_at_a_time() {
        let q = queue_of(1..4);
        q.pause();
        q.close();
        assert!(q.try_drain().is_none(), "a closed queue is the pump's to shed");
        assert!(matches!(q.push(request(9)), Err(PushRefused::Closed(_))));
        for expect in 1..4 {
            match q.drain() {
                Some(Drained::Shed(req)) => assert_eq!(tag(&req), expect),
                _ => panic!("a closed queue must shed request {expect}"),
            }
            assert_eq!(q.depth(), 3 - expect);
        }
        assert!(q.drain().is_none());
    }

    #[test]
    fn tenant_quota_admits_up_to_limit_and_releases_on_drop() {
        let table = TenantTable::default();
        let a = table.acquire("a", 2).unwrap();
        let b = table.acquire("a", 2).unwrap();
        assert_eq!(table.inflight("a"), 2);
        assert!(matches!(table.acquire("a", 2), Err(Backpressure::TenantQuota { limit: 2 })));
        // A different tenant is unaffected.
        let other = table.acquire("b", 2).unwrap();
        assert_eq!(table.inflight("b"), 1);
        drop(a);
        assert_eq!(table.inflight("a"), 1);
        let _c = table.acquire("a", 2).unwrap();
        drop(b);
        drop(other);
        assert_eq!(table.inflight("b"), 0);
    }
}
