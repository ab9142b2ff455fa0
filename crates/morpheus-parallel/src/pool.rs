//! Persistent fork–join pool executing scoped parallel loops.
//!
//! A pool of width `n` is **the calling thread as index 0 plus `n − 1`
//! persistent workers with fixed indices `1..n`**. One dispatch
//! ([`ThreadPool::run_on_all`]) takes the pool, publishes one `(body, epoch)`
//! pair with a release store, unparks the workers, runs share 0 on the
//! calling thread and waits for the `remaining` counter to reach zero. An
//! index is therefore the same thread on every call of a given caller, which
//! lets [`ThreadPool::run_owned`] and plan ranges keep their data in one
//! core's cache. The body is a lifetime-erased reference; `run_on_all` does
//! not return — not even by unwinding — before every share has finished,
//! which is what makes the erasure sound.
//!
//! # Waiting: spin, then park
//!
//! Workers watch the epoch, the caller watches `remaining`. Both poll for
//! `SPIN` — what a futex wake-up costs on a slow (virtualised) host, so a
//! solver loop's next SpMV finds its workers still polling — and then `park`.
//! The publisher always unparks after its store, so a waiter that loaded the
//! old value and is about to park finds the token and returns at once: no
//! wake-up is lost. A pool wider than the machine never polls (a polling
//! thread would hold the core that the thread it waits for needs).
//!
//! Comparing the epoch against a private copy suffices because **every
//! worker runs every epoch**: the next one is not published before
//! `remaining` reached zero, i.e. before each worker finished this one, so a
//! worker that sees a different epoch sees exactly the successor.
//!
//! # Reentrancy and concurrent clients
//!
//! Any number of client threads may call in at once; one batch is dispatched
//! at a time, and whoever cannot dispatch runs every index inline on its own
//! thread: a **nested** region (a body calling into a pool — OpenMP's default
//! of serialising nested regions; a thread-local flag marks workers and the
//! caller's own share), and a **contended** caller, which finds another
//! client's batch dispatched — so no client ever queues behind another's
//! batch. Callers with a cheaper serial kernel than the inline loop (the
//! Oracle serving layer) can consult [`ThreadPool::is_busy`] first.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

thread_local! {
    /// Set on worker threads and around the caller's own share; a parallel
    /// region entered while it is set runs inline (nested regions serialise).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// How long a waiter polls before it parks: the order of one slow futex
/// wake-up (41–46 µs measured on the 2-vCPU reference box), so polling costs
/// at most what parking would have.
const SPIN: Duration = Duration::from_micros(50);

type JobFn<'a> = &'a (dyn Fn(usize) + Sync);

/// Observer of per-share hand-off latency (publish → the worker starts its
/// share). The telemetry hook behind [`ThreadPool::set_queue_wait_observer`].
pub type QueueWaitObserver = Arc<dyn Fn(Duration) + Send + Sync>;

/// What the pool's current owner publishes for one epoch.
#[derive(Clone)]
struct Batch {
    /// Lifetime-erased `&(dyn Fn(index) + Sync)`; `None` tells workers to exit.
    func: Option<JobFn<'static>>,
    /// The publishing thread, unparked by the last worker to finish.
    caller: Thread,
    /// Publication timestamp, stamped only while a queue-wait observer is
    /// installed (an uninstrumented pool takes no clock reads).
    sent_at: Option<Instant>,
}

/// State shared between the owner of a batch and the workers.
struct Shared {
    /// Written only by the thread holding `ThreadPool::inflight`, before its
    /// release store to `epoch`; read by workers after their acquire load of
    /// `epoch` and before their decrement of `remaining`.
    batch: UnsafeCell<Batch>,
    epoch: AtomicUsize,
    /// Worker shares of the current epoch not yet finished.
    remaining: AtomicUsize,
    /// Worker shares of the current epoch not yet started.
    queued: AtomicUsize,
    /// The payload of the lowest-indexed worker share of this epoch that
    /// panicked, with its index.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    /// Whether waiters poll before parking (the pool fits the machine).
    spin: bool,
    /// The installed queue-wait observer; `observing` mirrors the slot so an
    /// uninstrumented publish skips the clock read with one relaxed load.
    observer: RwLock<Option<QueueWaitObserver>>,
    observing: AtomicBool,
}

// SAFETY: `batch` is the only non-`Sync` field. Its one writer at a time is
// the holder of `inflight`, who writes only while no worker reads: every
// worker finished the previous epoch (`remaining == 0` was observed with
// acquire before `inflight` was released) and none starts the next before
// the release store to `epoch` that follows the write.
unsafe impl Sync for Shared {}

/// Returns once `ready()` holds: polls for up to [`SPIN`] when `spin`, then
/// parks between checks. Whoever makes `ready()` true must unpark this
/// thread afterwards.
fn wait_until(spin: bool, ready: impl Fn() -> bool) {
    if spin {
        let mut since = None;
        loop {
            for _ in 0..64 {
                if ready() {
                    return;
                }
                std::hint::spin_loop();
            }
            if since.get_or_insert_with(Instant::now).elapsed() >= SPIN {
                break;
            }
        }
    }
    while !ready() {
        thread::park();
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    IN_WORKER.with(|f| f.set(true));
    let mut seen = 0usize;
    loop {
        wait_until(shared.spin, || shared.epoch.load(Ordering::Acquire) != seen);
        seen = seen.wrapping_add(1);
        // SAFETY: see `Shared`: the acquire load above saw this epoch's
        // release store, and the slot is not rewritten until this worker has
        // decremented `remaining` below. `caller` is cloned out here because
        // the slot may be rewritten as soon as the count reaches zero.
        let Batch { func, caller, sent_at } = unsafe { (*shared.batch.get()).clone() };
        let Some(func) = func else { return };
        if let Some(sent) = sent_at {
            if let Some(observe) = shared.observer.read().as_ref() {
                observe(sent.elapsed());
            }
        }
        shared.queued.fetch_sub(1, Ordering::Relaxed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| func(index))) {
            let mut slot = shared.panic.lock();
            if slot.as_ref().is_none_or(|&(first, _)| index < first) {
                *slot = Some((index, payload));
            }
        }
        // Release: the share's writes (and its panic) happen-before the
        // owner's acquire load of zero.
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }
}

/// A fixed-width fork–join pool: the calling thread plus persistent workers.
///
/// Dropping the pool shuts the workers down. Most callers should use
/// [`global_pool`] instead of owning a pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// Workers `1..n_threads`, in index order.
    handles: Vec<thread::JoinHandle<()>>,
    n_threads: usize,
    /// 1 while a batch is dispatched — the lock a caller takes to publish,
    /// and the advisory busy signal behind [`ThreadPool::is_busy`].
    inflight: AtomicUsize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("n_threads", &self.n_threads).finish()
    }
}

impl ThreadPool {
    /// Creates a pool of width `n_threads` (minimum 1): the thread calling
    /// into the pool runs index 0, `n_threads − 1` spawned workers run the
    /// rest. A pool of width 1 spawns nothing and runs everything inline.
    pub fn new(n_threads: usize) -> Self {
        let n_threads = n_threads.max(1);
        let cores = thread::available_parallelism().map_or(1, |c| c.get());
        let shared = Arc::new(Shared {
            batch: UnsafeCell::new(Batch { func: None, caller: thread::current(), sent_at: None }),
            epoch: AtomicUsize::new(0),
            remaining: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            panic: Mutex::new(None),
            spin: n_threads <= cores,
            observer: RwLock::new(None),
            observing: AtomicBool::new(false),
        });
        let handles = (1..n_threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("morpheus-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("failed to spawn morpheus worker thread")
            })
            .collect();
        ThreadPool { shared, handles, n_threads, inflight: AtomicUsize::new(0) }
    }

    /// Installs (or with `None`, removes) the queue-wait observer: each
    /// worker calls it, as it starts a share, with the time since the batch
    /// was published — `n − 1` samples per dispatched batch (the caller's own
    /// share never waits). With no observer the publish path takes no clock
    /// reads — how `pool.queue_wait_ns` stays free when observability is off.
    pub fn set_queue_wait_observer(&self, observer: Option<QueueWaitObserver>) {
        let observing = observer.is_some();
        *self.shared.observer.write() = observer;
        // Published after the slot write so a stamped batch finds it set.
        self.shared.observing.store(observing, Ordering::SeqCst);
    }

    /// Width of the pool: how many indices a dispatch runs, the calling
    /// thread's share included (so `num_threads() − 1` threads were spawned).
    pub fn num_threads(&self) -> usize {
        self.n_threads
    }

    /// Number of batches currently dispatched across the workers: 0 or 1
    /// (nested and contended regions run inline and are not counted).
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Worker shares of the dispatched batch that no worker has started yet
    /// — non-zero only between a publish and the last worker's wake-up. An
    /// *advisory* gauge to pair with [`ThreadPool::inflight`]: racy by
    /// nature, for telemetry and backpressure heuristics, never correctness.
    pub fn queued_jobs(&self) -> usize {
        self.shared.queued.load(Ordering::Relaxed)
    }

    /// `true` while some client's batch is dispatched — an *advisory*
    /// signal. A `run_on_all` issued meanwhile runs inline on its caller;
    /// callers holding a cheaper serial fallback (the serving layer's
    /// registered-matrix path) check this first.
    pub fn is_busy(&self) -> bool {
        self.inflight() > 0
    }

    /// Runs `f(index)` once for every index in `0..num_threads()` and waits
    /// for completion: index 0 on the calling thread, index `w` on worker `w`.
    ///
    /// From inside a parallel region (nested parallelism), on a pool of
    /// width 1, or while another client's batch is dispatched, every index
    /// runs inline on the calling thread instead — same semantics, no
    /// waiting. A panic in a share is re-raised here with that share's own
    /// payload — the lowest-indexed panicking share's — once every share
    /// has finished (inline, the indices after it never start); the pool
    /// stays usable.
    pub fn run_on_all(&self, f: &(dyn Fn(usize) + Sync)) {
        let n = self.n_threads;
        let taken = n > 1
            && !IN_WORKER.with(Cell::get)
            // Acquire pairs with the previous owner's release below.
            && self.inflight.compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed).is_ok();
        if !taken {
            (0..n).for_each(f);
            return;
        }
        let shared = &*self.shared;
        // SAFETY: this function does not return or unwind before `remaining`
        // reached zero, so the borrowed closure outlives every use by a worker.
        let func = unsafe { std::mem::transmute::<JobFn<'_>, JobFn<'static>>(f) };
        let sent_at = shared.observing.load(Ordering::Relaxed).then(Instant::now);
        // SAFETY: holding `inflight` makes this the only writer, and no
        // worker reads between epochs (see `Shared`).
        unsafe { *shared.batch.get() = Batch { func: Some(func), caller: thread::current(), sent_at } };
        shared.remaining.store(n - 1, Ordering::Relaxed);
        shared.queued.store(n - 1, Ordering::Relaxed);
        shared.epoch.fetch_add(1, Ordering::Release);
        for h in &self.handles {
            h.thread().unpark();
        }
        IN_WORKER.with(|g| g.set(true));
        let mine = catch_unwind(AssertUnwindSafe(|| f(0)));
        IN_WORKER.with(|g| g.set(false));
        wait_until(shared.spin, || shared.remaining.load(Ordering::Acquire) == 0);
        let worker_panic = shared.panic.lock().take();
        self.inflight.store(0, Ordering::Release);
        if let Some(payload) = mine.err().or(worker_panic.map(|(_, payload)| payload)) {
            resume_unwind(payload);
        }
    }

    /// Runs `body(worker, item)` with stable item→worker ownership: index
    /// `w` executes the items of `owners[w]` in order, and an index is the
    /// same thread on every call of a given caller, so a shard of a
    /// partitioned execution keeps its arrays hot in one core's cache across
    /// calls. Ranges beyond the pool's width are drained by index 0 after its
    /// own; a region that runs inline (see [`ThreadPool::run_on_all`])
    /// preserves item order.
    pub fn run_owned(&self, owners: &[Range<usize>], body: &(dyn Fn(usize, usize) + Sync)) {
        let n = self.n_threads;
        self.run_on_all(&|w| {
            let overflow = if w == 0 { owners.get(n..).unwrap_or_default() } else { &[] };
            for i in owners.get(w).into_iter().chain(overflow).flat_map(Range::clone) {
                body(w, i);
            }
        });
    }

    /// Runs `body` over each of the given precomputed ranges, one task per
    /// range, claimed dynamically (the conversion kernels' fills, whose
    /// parts outnumber the workers).
    pub fn parallel_over_parts(&self, parts: &[Range<usize>], body: impl Fn(usize, Range<usize>) + Sync) {
        if parts.is_empty() {
            return;
        }
        let next = AtomicUsize::new(0);
        self.run_on_all(&|_w| loop {
            let p = next.fetch_add(1, Ordering::Relaxed);
            if p >= parts.len() {
                break;
            }
            body(p, parts[p].clone());
        });
    }

    /// Runs `body(job)` for each of `jobs`, job `p` on index `p`, and
    /// returns the results in job order. Each job is moved to the index
    /// that runs it, so it can carry `&mut` pieces of one output cut apart
    /// beforehand (`split_at_mut`). One job runs on the calling thread
    /// without a dispatch. A panic in a job is re-raised here, with its own
    /// payload, by [`ThreadPool::run_on_all`]: the lowest-indexed job's, so
    /// a loop cut into jobs in its own order panics with what the uncut loop
    /// would. The pool stays usable.
    ///
    /// # Panics
    /// Also if there are more jobs than [`ThreadPool::num_threads`].
    pub fn run_jobs<J: Send, R: Send>(&self, jobs: Vec<J>, body: impl Fn(J) -> R + Sync) -> Vec<R> {
        assert!(jobs.len() <= self.n_threads, "{} jobs for a pool of {}", jobs.len(), self.n_threads);
        if jobs.len() <= 1 {
            return jobs.into_iter().map(body).collect();
        }
        let jobs: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
        let done: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        self.run_on_all(&|p| {
            if let Some(job) = jobs.get(p).and_then(|job| job.lock().take()) {
                *done[p].lock() = Some(body(job));
            }
        });
        done.into_iter().map(|d| d.into_inner().expect("every job ran")).collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // `&mut self`: no batch is dispatched and none can be, so this thread
        // may publish the exit epoch without taking `inflight`.
        // SAFETY: as in `run_on_all` — no worker reads between epochs.
        unsafe { (*self.shared.batch.get()).func = None };
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for h in self.handles.drain(..) {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

/// The message a panic carried: its `&str` or `String` payload, or a note
/// that it carried neither.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    (payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a panic with a non-string payload".into())
}

/// The process-wide default pool, as wide as the number of available cores.
pub fn global_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(thread::available_parallelism().map_or(4, |n| n.get())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    fn counters(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn bump(c: &AtomicUsize) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    fn all_equal(counts: &[AtomicUsize], expect: usize) -> bool {
        counts.iter().all(|c| c.load(Ordering::Relaxed) == expect)
    }

    /// An observer counting its calls, and the count.
    fn counting_observer() -> (QueueWaitObserver, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        (Arc::new(move |_| bump(&counter)), calls)
    }

    #[test]
    fn index_to_thread_map_is_stable_across_calls() {
        let pool = ThreadPool::new(3);
        let ids: Vec<Mutex<Option<thread::ThreadId>>> = (0..3).map(|_| Mutex::new(None)).collect();
        for _ in 0..1_000 {
            pool.run_on_all(&|w| {
                let me = thread::current().id();
                let prev = ids[w].lock().replace(me);
                assert!(prev.is_none_or(|p| p == me), "index {w} moved threads");
            });
        }
        let ids: Vec<_> = ids.into_iter().map(|m| m.into_inner().unwrap()).collect();
        assert_eq!(ids[0], thread::current().id(), "index 0 is the caller");
        assert!(ids[1] != ids[0] && ids[2] != ids[0] && ids[1] != ids[2]);
    }

    #[test]
    fn run_owned_visits_each_item_once_with_stable_owner() {
        let pool = ThreadPool::new(3);
        let owners = vec![0..2, 2..5, 5..9, 9..11];
        let seen: Vec<AtomicUsize> = (0..11).map(|_| AtomicUsize::new(usize::MAX)).collect();
        for _ in 0..4 {
            let run = counters(11);
            pool.run_owned(&owners, &|w, i| {
                bump(&run[i]);
                // Ownership must be stable across calls; ranges past the
                // pool's width fall to index 0.
                let prev = seen[i].swap(w, Ordering::Relaxed);
                assert!(prev == usize::MAX || prev == w, "item {i} moved workers");
            });
            assert!(all_equal(&run, 1));
        }
        assert!(all_equal(&seen[9..], 0), "overflow range items run on index 0");
    }

    #[test]
    fn empty_range_is_noop() {
        let pool = ThreadPool::new(4);
        pool.parallel_over_parts(&[], |_, _| panic!("no parts must not run"));
        pool.run_owned(&[], &|_, _| panic!("no items must not run"));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let me = thread::current().id();
        let sum = AtomicUsize::new(0);
        pool.run_owned(&crate::static_partition(100, 1), &|_, i| {
            assert_eq!(thread::current().id(), me);
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn nested_parallel_for_serialises() {
        let pool = ThreadPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.run_on_all(&|_| {
            // Nested call must not deadlock: it runs inline on both the
            // caller's share and the worker's.
            let me = thread::current().id();
            pool.parallel_over_parts(&[0..5, 5..10], |_, r| {
                assert_eq!(thread::current().id(), me);
                r.for_each(|_| bump(&hits));
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 20);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let pool = ThreadPool::new(2);
        pool.run_owned(&[0..2, 2..4], &|_, i| assert_ne!(i, 2, "boom"));
    }

    #[test]
    fn pool_survives_job_panic() {
        let pool = ThreadPool::new(2);
        let every_share_panics = || pool.run_on_all(&|_| panic!("x"));
        assert!(catch_unwind(AssertUnwindSafe(every_share_panics)).is_err());
        // Pool still usable afterwards.
        let hits = counters(8);
        pool.run_owned(&[0..4, 4..8], &|_, i| bump(&hits[i]));
        assert!(all_equal(&hits, 1));
    }

    #[test]
    fn panic_in_any_share_propagates_only_after_every_share_finished() {
        let pool = ThreadPool::new(3);
        // The caller's own share, then a worker's.
        for bad in [0, 2] {
            let (panicking, done) = (AtomicBool::new(false), AtomicUsize::new(0));
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.run_on_all(&|w| {
                    if w == bad {
                        panicking.store(true, Ordering::SeqCst);
                        panic!("boom {w}");
                    }
                    // Finish well after the other share started unwinding.
                    while !panicking.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    thread::sleep(Duration::from_millis(5));
                    bump(&done);
                })
            }));
            let payload = r.expect_err("the panic must reach the caller");
            let boom = format!("boom {bad}");
            assert_eq!(payload.downcast_ref::<String>(), Some(&boom), "share {bad}: its own payload");
            assert_eq!(done.load(Ordering::Relaxed), 2, "share {bad}: returned before every share finished");
            assert!(!pool.is_busy());
        }
        pool.run_on_all(&|_| {});
    }

    /// Pauses of 0–2×`SPIN` before a publish catch the worker polling, about
    /// to park and parked; inside its share, the caller. A lost wake-up hangs.
    #[test]
    fn dispatch_never_loses_a_wakeup_across_the_spin_park_boundary() {
        let pool = ThreadPool::new(2);
        let rounds = if cfg!(debug_assertions) { 10_000 } else { 100_000 };
        let hits = AtomicUsize::new(0);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..rounds {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let pause = SPIN.mul_f64((rng >> 40) as f64 / (1u64 << 23) as f64);
            let (pausing, in_share) = (rng.is_multiple_of(8), rng & 8 != 0);
            let busy_wait = |on: bool| {
                let t = Instant::now();
                while on && t.elapsed() < pause {
                    std::hint::spin_loop();
                }
            };
            busy_wait(pausing && !in_share);
            pool.run_on_all(&|w| {
                busy_wait(pausing && in_share && w == 1);
                bump(&hits);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 2 * rounds);
    }

    #[test]
    fn drop_joins_polling_and_parked_workers() {
        let pool = ThreadPool::new(3);
        pool.run_on_all(&|_| {});
        drop(pool); // workers are still polling for the next epoch
        let pool = ThreadPool::new(3);
        pool.run_on_all(&|_| {});
        thread::sleep(SPIN * 200); // long past the polling window: parked
        drop(pool);
    }

    #[test]
    fn parallel_over_parts_visits_each_part_once() {
        let pool = ThreadPool::new(4);
        let parts = vec![0..3, 3..10, 10..11, 11..20];
        let counts = counters(20);
        pool.parallel_over_parts(&parts, |_p, r| r.for_each(|i| bump(&counts[i])));
        assert!(all_equal(&counts, 1));
    }

    #[test]
    fn run_jobs_moves_each_job_to_its_index_and_keeps_job_order() {
        let pool = ThreadPool::new(3);
        let mut out = [0usize; 9];
        let jobs: Vec<(usize, &mut [usize])> = out.chunks_mut(3).enumerate().collect();
        let ran_on = pool.run_jobs(jobs, |(p, chunk)| {
            chunk.iter_mut().for_each(|c| *c = p + 1);
            thread::current().id()
        });
        assert_eq!(out, [1, 1, 1, 2, 2, 2, 3, 3, 3]);
        assert_eq!(ran_on[0], thread::current().id(), "job 0 is the caller's");
        // One job: no dispatch, on the caller.
        let (observer, observed) = counting_observer();
        pool.set_queue_wait_observer(Some(observer));
        assert_eq!(pool.run_jobs(vec![7], |j| (j, thread::current().id())), [(7, thread::current().id())]);
        assert_eq!(observed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn run_jobs_re_raises_the_lowest_panicking_job_with_its_payload() {
        let pool = ThreadPool::new(3);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run_jobs(vec![0, 1, 2], |j| assert!(j == 0, "job {j} failed"));
        }));
        let payload = r.expect_err("jobs 1 and 2 panicked");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("job 1 failed"));
        // The pool runs the next dispatch normally.
        assert_eq!(pool.run_jobs(vec![1, 2, 3], |j| j * 2), [2, 4, 6]);
        assert!(!pool.is_busy());
    }

    #[test]
    fn concurrent_clients_share_one_pool_without_interference() {
        // N external client threads drive the same pool at once; every
        // client's regions must visit exactly its own items exactly once,
        // whether it got the workers or ran inline beside another's batch.
        let pool = ThreadPool::new(3);
        let (clients, n) = (6usize, 400usize);
        let counts: Vec<Vec<AtomicUsize>> = (0..clients).map(|_| counters(n)).collect();
        let owners = crate::static_partition(n, 3);
        let parts = crate::static_partition(n, 57);
        thread::scope(|s| {
            for (c, mine) in counts.iter().enumerate() {
                let (pool, owners, parts) = (&pool, &owners, &parts);
                s.spawn(move || {
                    pool.run_owned(owners, &|_, i| bump(&mine[i]));
                    pool.parallel_over_parts(parts, |_, r| r.for_each(|i| bump(&mine[i])));
                    // Per-index partials folded by the caller stay correct too.
                    let partial = counters(3);
                    pool.run_owned(owners, &|w, i| _ = partial[w].fetch_add(i, Ordering::Relaxed));
                    let sum: usize = partial.iter().map(|p| p.load(Ordering::Relaxed)).sum();
                    assert_eq!(sum, n * (n - 1) / 2, "client {c}");
                });
            }
        });
        assert!(counts.iter().all(|mine| all_equal(mine, 2)));
        assert_eq!(pool.inflight(), 0, "all batches must be retired");
    }

    #[test]
    fn busy_signal_tracks_inflight_batches() {
        let pool = ThreadPool::new(2);
        assert!(!pool.is_busy());
        let gate = std::sync::Barrier::new(2);
        thread::scope(|s| {
            // Hold a batch open inside its worker's share: index 1 waits twice.
            s.spawn(|| pool.run_on_all(&|w| (0..2 * w).for_each(|_| _ = gate.wait())));
            gate.wait();
            assert!(pool.is_busy() && pool.inflight() == 1);
            // A contended caller does not queue: every index runs inline.
            let me = thread::current().id();
            let ran = Mutex::new(Vec::new());
            pool.run_on_all(&|w| {
                assert_eq!(thread::current().id(), me);
                assert!(pool.is_busy(), "the other client's batch is still dispatched");
                ran.lock().push(w);
            });
            assert_eq!(ran.into_inner(), vec![0, 1]);
            gate.wait();
        });
        assert!(!pool.is_busy(), "signal must clear once the batch completes");
    }

    #[test]
    fn queued_jobs_gauge_tracks_channel_backlog() {
        // The gauge counts published shares no worker has started. A worker
        // calls the observer just before it counts its share as started, so
        // every sample sees that share (and at most the other's) still queued.
        let pool = Arc::new(ThreadPool::new(3));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (weak, log) = (Arc::downgrade(&pool), Arc::clone(&seen));
        pool.set_queue_wait_observer(Some(Arc::new(move |_| {
            if let Some(pool) = weak.upgrade() {
                log.lock().push(pool.queued_jobs());
            }
        })));
        assert_eq!(pool.queued_jobs(), 0);
        pool.run_on_all(&|_| {});
        assert_eq!(pool.queued_jobs(), 0, "gauge must drain once every share started");
        let seen = seen.lock();
        assert_eq!(seen.len(), 2);
        assert!(seen.iter().all(|q| (1..=2).contains(q)), "{seen:?}");
    }

    #[test]
    fn queue_wait_observer_sees_every_dispatched_job() {
        let pool = ThreadPool::new(3);
        let (observer, observed) = counting_observer();
        pool.set_queue_wait_observer(Some(observer));
        pool.run_on_all(&|_| {});
        pool.run_on_all(&|_| {});
        assert_eq!(observed.load(Ordering::Relaxed), 4, "one observation per worker share");
        // Uninstall: further batches are invisible and take no clock reads.
        pool.set_queue_wait_observer(None);
        pool.run_on_all(&|_| {});
        assert_eq!(observed.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn queue_wait_observer_skips_inline_paths() {
        let pool = ThreadPool::new(1);
        let (observer, observed) = counting_observer();
        pool.set_queue_wait_observer(Some(observer));
        // Width-1 pools run inline — nothing is handed to a worker.
        pool.run_on_all(&|_| {});
        assert_eq!(observed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn global_pool_is_singleton() {
        assert!(std::ptr::eq(global_pool(), global_pool()));
        assert!(global_pool().num_threads() >= 1);
    }
}
