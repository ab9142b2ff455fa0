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
//! Beside the queued requests the queue lists the **started** ones whose
//! plan runs in parts ([`InFlight`]): an executor that takes such a request
//! publishes it, and every executor claims a part of the oldest started
//! request before it drains a new one — paused or closed, since a started
//! request always finishes. Publishing wakes the pump and every thread
//! parked in [`SubmissionQueue::park`]; so does every resolved ticket.
//!
//! Requests are stored type-erased ([`ErasedJob`], [`ErasedParts`]) so one
//! queue carries `f32` and `f64` traffic at once; each runs through its own
//! concrete [`Job<V>`].

use super::slo::Backpressure;
use super::{IngressError, StatsCells};
use crate::obs::{SpanRecord, Stage, TraceId};
use crate::serve::execute::{QueuedParts, QueuedStart};
use crate::serve::{MatrixHandle, OracleService};
use crate::OracleError;
use morpheus::{Scalar, Settled};
use morpheus_parallel::panic_message;
use parking_lot::Mutex as PlMutex;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// Where a request's result goes: its ticket's channel, and the tenant's
/// quota slot, released just before the result is sent.
pub(crate) struct Reply<V: Scalar> {
    pub(crate) tx: SyncSender<Result<Vec<V>, IngressError>>,
    /// Quota slot, released by [`Reply::send`] (or by dropping the reply).
    pub(crate) tenant: Option<TenantSlot>,
}

impl<V: Scalar> Reply<V> {
    /// Releases the tenant's quota slot, then resolves the ticket; a
    /// receiver that gave up (dropped) is fine.
    fn send(mut self, result: Result<Vec<V>, IngressError>) {
        drop(self.tenant.take());
        let _ = self.tx.send(result);
    }

    /// Accounts a request's outcome in `stats` — completed or failed,
    /// deadline miss, exec-latency sample and Exec span from `t0` when
    /// traced, the Resolve span — then resolves its ticket: counters and
    /// spans strictly *before* the ticket, so a caller returning from
    /// `wait()` never reads stale stats. Runs once per request, on the
    /// executor that finished it.
    fn finish(
        self,
        stats: &StatsCells,
        meta: &mut JobMeta,
        t0: Option<Instant>,
        result: Result<Vec<V>, IngressError>,
    ) {
        match result {
            Ok(y) => {
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
                self.send(Err(e));
            }
        }
    }
}

/// The typed error of a request whose execution failed.
fn exec_error(e: morpheus::MorpheusError) -> IngressError {
    IngressError::Exec(Arc::new(OracleError::Morpheus(e)))
}

/// A concrete queued SpMV request for scalar `V`.
pub(crate) struct Job<V: Scalar> {
    pub(crate) handle: MatrixHandle<V>,
    pub(crate) x: Vec<V>,
    pub(crate) reply: Reply<V>,
}

/// What starting a request left to do.
pub(crate) enum Started<T> {
    /// It ran whole and its ticket is resolved.
    Resolved,
    /// Its plan runs in parts: publish them, then claim.
    Parts(Arc<dyn ErasedParts<T>>),
}

/// Scalar-erased view of a [`Job<V>`], so one queue and one runner carry
/// every scalar type.
pub(crate) trait ErasedJob<T>: Send {
    /// Starts this request through the service's queued-execution path
    /// ([`OracleService::start_queued`]) on the calling executor: either it
    /// ran whole — then its outcome is accounted and its ticket resolved
    /// here — or its plan runs in parts, returned for the executor to
    /// publish and claim. A panicking kernel resolves the ticket with
    /// [`IngressError::Panicked`].
    fn start(self: Box<Self>, meta: JobMeta, service: &OracleService<T>, stats: &StatsCells) -> Started<T>;
    /// Resolves the ticket with typed backpressure; nothing executes.
    fn shed(self: Box<Self>, reason: Backpressure);
}

impl<T: Send + Sync + 'static, V: Scalar> ErasedJob<T> for Job<V> {
    fn start(
        self: Box<Self>,
        mut meta: JobMeta,
        service: &OracleService<T>,
        stats: &StatsCells,
    ) -> Started<T> {
        let Job { handle, x, reply } = *self;
        let t0 = meta.trace.is_some().then(Instant::now);
        let started = catch_unwind(AssertUnwindSafe(|| service.start_queued(&handle, &x)));
        let result = match started {
            Ok(Ok(QueuedStart::Shared(parts))) => {
                let tail = PlMutex::new(Some((meta, reply)));
                let failure = PlMutex::new(None);
                return Started::Parts(Arc::new(InFlight { handle, x, parts, t0, tail, failure }));
            }
            Ok(Ok(QueuedStart::Ran(y))) => Ok(y),
            Ok(Err(e)) => Err(exec_error(e)),
            Err(payload) => Err(IngressError::Panicked(panic_message(&*payload))),
        };
        reply.finish(stats, &mut meta, t0, result);
        Started::Resolved
    }

    fn shed(self: Box<Self>, reason: Backpressure) {
        self.reply.send(Err(IngressError::Backpressure(reason)));
    }
}

/// Scalar-erased view of a started request whose plan runs in parts.
pub(crate) trait ErasedParts<T>: Send + Sync {
    /// Parts no executor has claimed yet.
    fn unclaimed(&self) -> usize;
    /// Runs the parts the calling executor claims, one at a time until none
    /// is left; `taker` says it is the executor that took the request (the
    /// parts of any other count in `ingress.parts_shared`). Whichever
    /// executor finishes the last part accounts the request once and
    /// resolves its ticket; `true` for that one.
    fn claim(&self, service: &OracleService<T>, stats: &StatsCells, taker: bool) -> bool;
}

/// A started request whose plan runs in parts ([`QueuedParts`]) on every
/// executor that claims them.
pub(crate) struct InFlight<V: Scalar> {
    handle: MatrixHandle<V>,
    x: Vec<V>,
    parts: QueuedParts<V>,
    /// When the taker started it, for a traced request's exec sample.
    t0: Option<Instant>,
    /// What resolving the ticket needs, taken by the executor that settles
    /// the run.
    tail: PlMutex<Option<(JobMeta, Reply<V>)>>,
    /// The error of a claim that could not run, which abandoned the run (a
    /// panicking part's message comes with the settled run).
    failure: PlMutex<Option<IngressError>>,
}

impl<T: Send + Sync, V: Scalar> ErasedParts<T> for InFlight<V> {
    fn unclaimed(&self) -> usize {
        self.parts.run.unclaimed()
    }

    fn claim(&self, service: &OracleService<T>, stats: &StatsCells, taker: bool) -> bool {
        // A part that panics abandons the run inside the claim; a claim that
        // cannot run (an error before any part) abandons it here.
        match service.run_queued_parts(&self.handle, &self.x, &self.parts) {
            Ok(ran) if !taker => stats.parts_shared.add(ran as u64),
            Ok(_) => {}
            Err(e) => {
                let why = e.to_string();
                self.failure.lock().get_or_insert(exec_error(e));
                self.parts.run.abandon(why);
            }
        }
        let Some(settled) = self.parts.run.settle() else { return false };
        let (mut meta, reply) = self.tail.lock().take().expect("a run settles once");
        let result = match settled {
            Settled::Output(y) => {
                service.finish_queued_parts(&self.handle, &self.parts);
                Ok(y)
            }
            Settled::Abandoned(why) => Err(self.failure.lock().take().unwrap_or(IngressError::Panicked(why))),
        };
        reply.finish(stats, &mut meta, self.t0, result);
        true
    }
}

/// One queued request: scheduling metadata plus the scalar-erased job.
pub(crate) struct QueuedRequest<T> {
    pub(crate) meta: JobMeta,
    pub(crate) job: Box<dyn ErasedJob<T>>,
}

/// The work [`SubmissionQueue::drain`] handed out, and what the queue's
/// state said to do with it when it was taken.
pub(crate) enum Drained<T> {
    /// Parts of a started request, to claim — handed out before any request,
    /// open or not.
    Parts(Arc<dyn ErasedParts<T>>),
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
    /// Started requests whose parts may be unclaimed, oldest first.
    started: VecDeque<Arc<dyn ErasedParts<T>>>,
    closed: bool,
    paused: bool,
}

impl<T> QueueState<T> {
    /// The oldest started request with a part left to claim; the ones ahead
    /// of it with none left leave the list.
    fn unclaimed_parts(&mut self) -> Option<Arc<dyn ErasedParts<T>>> {
        while let Some(front) = self.started.front() {
            if front.unclaimed() > 0 {
                return Some(Arc::clone(front));
            }
            self.started.pop_front();
        }
        None
    }
}

/// How long [`SubmissionQueue::park`] sleeps between looks when nothing
/// wakes it: a reply is always followed by a wake-up, so this bounds only a
/// ticket whose request was dropped unsent.
const PARK_RECHECK: Duration = Duration::from_millis(50);

/// The bounded queue between submitters and the executors (the pump and
/// every waiting ticket). See the
/// [module docs](self) for why this is a mutex + condvar rather than a
/// channel.
pub(crate) struct SubmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    /// The pump's wake-up: a push, published parts, resume, close.
    wakeup: Condvar,
    /// The wake-up of threads parked in [`SubmissionQueue::park`]: published
    /// parts and resolved tickets.
    parked: Condvar,
    capacity: usize,
    /// Lock-free mirror of the current queue length for the stats gauge.
    depth: AtomicU64,
}

impl<T> SubmissionQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        SubmissionQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                started: VecDeque::new(),
                closed: false,
                paused: false,
            }),
            wakeup: Condvar::new(),
            parked: Condvar::new(),
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

    /// Lists a started request whose parts every executor may claim, and
    /// wakes the pump and every parked thread to claim them.
    pub(crate) fn publish(&self, parts: Arc<dyn ErasedParts<T>>) {
        self.state.lock().expect("ingress queue poisoned").started.push_back(parts);
        self.wakeup.notify_one();
        self.parked.notify_all();
    }

    /// Wakes every thread parked in [`SubmissionQueue::park`] — after a
    /// ticket was resolved. Taking the lock orders the wake-up after the
    /// parked thread's last look.
    pub(crate) fn wake_parked(&self) {
        drop(self.state.lock().expect("ingress queue poisoned"));
        self.parked.notify_all();
    }

    /// Blocks until `done()` holds or a started request has a part left to
    /// claim — what a thread waiting on its ticket does once it found
    /// nothing to run. `done` is looked at under the queue's lock, and every
    /// resolved ticket wakes the parked threads after taking it
    /// ([`SubmissionQueue::wake_parked`]), so no reply is missed.
    pub(crate) fn park(&self, done: &mut dyn FnMut() -> bool) {
        let mut st = self.state.lock().expect("ingress queue poisoned");
        while !done() && st.unclaimed_parts().is_none() {
            st = self.parked.wait_timeout(st, PARK_RECHECK).expect("ingress queue poisoned").0;
        }
    }

    /// Blocks until there is work, then hands out one piece of it: the parts
    /// of the oldest started request with one left to claim, else (the queue
    /// open and not paused) the **oldest** queued request, as
    /// [`Drained::Run`]. After close, remaining requests are still handed
    /// out one at a time (paused or not), as [`Drained::Shed`]: the verdict
    /// is taken under the same lock hold as the request, so a close that
    /// lands after the drain cannot turn a request taken from an open queue
    /// into one to shed. Returns `None` once the queue is closed and empty
    /// and no started request has a part left to claim.
    pub(crate) fn drain(&self) -> Option<Drained<T>> {
        let mut st = self.state.lock().expect("ingress queue poisoned");
        loop {
            if let Some(parts) = st.unclaimed_parts() {
                return Some(Drained::Parts(parts));
            }
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
    /// parts of a started request, else the oldest queued request, or
    /// `None` when there are no parts and the queue is empty, paused or
    /// closed — a paused queue starts nothing until resumed, and a closed
    /// one is the pump's to shed.
    pub(crate) fn try_drain(&self) -> Option<Drained<T>> {
        let mut st = self.state.lock().expect("ingress queue poisoned");
        if let Some(parts) = st.unclaimed_parts() {
            return Some(Drained::Parts(parts));
        }
        if st.closed || st.paused {
            return None;
        }
        self.take_one(&mut st).map(Drained::Run)
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
        fn start(self: Box<Self>, _: JobMeta, _: &OracleService<T>, _: &StatsCells) -> Started<T> {
            unreachable!("the queue never executes a request");
        }
        fn shed(self: Box<Self>, _: Backpressure) {}
    }

    /// A started request with `n` parts left to claim; claiming takes one.
    struct Parts(AtomicUsize);

    impl<T> ErasedParts<T> for Parts {
        fn unclaimed(&self) -> usize {
            self.0.load(Ordering::Relaxed)
        }
        fn claim(&self, _: &OracleService<T>, _: &StatsCells, _: bool) -> bool {
            unreachable!("the queue never claims a part");
        }
    }

    fn parts(n: usize) -> Arc<Parts> {
        Arc::new(Parts(AtomicUsize::new(n)))
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

    /// The tag of a drained request; `None` for anything else.
    fn tag(drained: &Drained<()>) -> Option<u64> {
        match drained {
            Drained::Run(req) => Some(req.meta.trace.0),
            _ => None,
        }
    }

    /// Whether `drained` is the started request `p`.
    fn is(drained: Option<Drained<()>>, p: &Arc<Parts>) -> bool {
        let p = Arc::as_ptr(p) as *const ();
        matches!(drained, Some(Drained::Parts(got)) if Arc::as_ptr(&got) as *const () == p)
    }

    #[test]
    fn each_drain_takes_one_request_in_submission_order() {
        let q = queue_of(1..5);
        assert_eq!(q.try_drain().as_ref().and_then(tag), Some(1));
        assert_eq!(q.depth(), 3);
        assert_eq!(q.drain().as_ref().and_then(tag), Some(2), "an open queue with work hands out Run");
        assert_eq!(q.depth(), 2);
        assert_eq!(q.try_drain().as_ref().and_then(tag), Some(3));
        assert!(q.push(request(5)).is_ok());
        assert_eq!(q.try_drain().as_ref().and_then(tag), Some(4));
        assert_eq!(q.try_drain().as_ref().and_then(tag), Some(5));
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
            let pump = s.spawn(|| q.drain().as_ref().and_then(tag));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!pump.is_finished(), "a paused queue handed out a request");
            q.resume();
            assert_eq!(pump.join().unwrap(), Some(1));
        });
        assert_eq!(q.try_drain().as_ref().and_then(tag), Some(2));
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
                Some(Drained::Shed(req)) => assert_eq!(req.meta.trace.0, expect),
                _ => panic!("a closed queue must shed request {expect}"),
            }
            assert_eq!(q.depth(), 3 - expect);
        }
        assert!(q.drain().is_none());
    }

    /// Parts of a started request go to every executor before any new
    /// request — paused or closed alike, since a started request always
    /// finishes — oldest started request first; a request with no part left
    /// leaves the list.
    #[test]
    fn started_parts_are_claimed_before_any_request_even_paused_or_closed() {
        let q = queue_of(1..3);
        let (older, newer) = (parts(2), parts(1));
        q.publish(older.clone());
        q.publish(newer.clone());
        assert!(is(q.try_drain(), &older));
        assert!(is(q.drain(), &older), "the pump claims the same parts");
        older.0.store(0, Ordering::Relaxed);
        q.pause();
        assert!(is(q.try_drain(), &newer), "a paused queue still hands out started parts");
        newer.0.store(0, Ordering::Relaxed);
        assert!(q.try_drain().is_none(), "and starts nothing new");
        assert!(q.state.lock().unwrap().started.is_empty(), "claimed-out requests left the list");
        let last = parts(1);
        q.publish(last.clone());
        q.close();
        assert!(is(q.drain(), &last), "closing does not drop started parts");
        last.0.store(0, Ordering::Relaxed);
        assert!(matches!(q.drain(), Some(Drained::Shed(_))));
        q.resume();
        assert!(matches!(q.drain(), Some(Drained::Shed(_))));
        assert!(q.drain().is_none());
    }

    /// A parked waiter returns when parts are published and when a reply
    /// comes (`done` turns true, then a wake-up) — not before.
    #[test]
    fn a_parked_waiter_wakes_for_published_parts_and_for_its_reply() {
        let q: SubmissionQueue<()> = SubmissionQueue::new(4);
        let replied = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| q.park(&mut || false));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!waiter.is_finished(), "nothing woke the waiter");
            q.publish(parts(2));
            waiter.join().unwrap();
        });
        assert!(q.try_drain().is_some());
        q.state.lock().unwrap().started.clear();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| q.park(&mut || replied.load(Ordering::Relaxed)));
            assert!(q.push(request(1)).is_ok());
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!waiter.is_finished(), "a pushed request does not wake a parked waiter");
            replied.store(true, Ordering::Relaxed);
            q.wake_parked();
            waiter.join().unwrap();
        });
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
