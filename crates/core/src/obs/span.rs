//! Span-based request tracing: a lock-free fixed-capacity ring of
//! [`SpanRecord`]s plus a bounded flight recorder for slow requests.
//!
//! The ring follows the drop-not-stall discipline of the adapt telemetry
//! ring: writers claim a slot with one `fetch_add` on a global cursor and
//! publish through a per-slot sequence word (a seqlock), so a writer never
//! blocks a request and a reader never blocks a writer. When the ring
//! wraps, the oldest spans are overwritten — [`SpanRing::overwritten`]
//! reports how many, so consumers know whether a trace may be incomplete.
//!
//! Timestamps are nanoseconds from the owning `Obs` hub's monotonic epoch
//! (`Instant`-based), shared with the `adapt` sampling clock: spans and
//! `SampleKey` telemetry agree on *time*, while keeping separate storage.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use std::collections::VecDeque;

/// Identifies one request across every layer it passes through.
///
/// `0` is reserved for "untraced" (tracing off, or a span recorded
/// outside any request); real ids start at 1 and are minted by
/// `Obs::mint_trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The reserved "no trace" id.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this is a real (non-zero) trace id.
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }

    /// Whether this is the reserved [`TraceId::NONE`].
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// The stage a span measures. A complete ingress request produces the
/// tree `Admit → QueueWait → Exec → Resolve`
/// (plus `Plan` when a plan is fetched or built, and per-shard `Exec`
/// spans at `TraceLevel::Fine`); a direct registered-path request
/// produces `Plan → Exec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Request accepted by `Ingress::submit`; `detail` = queue depth at
    /// admission, duration 0.
    Admit,
    /// Time spent in the submission queue before an executor drained it:
    /// the thread waiting on a ticket, or the pump.
    QueueWait,
    /// Plan acquisition; `detail` = 1 on cache hit, 0 when built.
    Plan,
    /// Kernel execution. Request-level on the coarse path; `detail`
    /// carries the shard index on fine-level per-shard spans.
    Exec,
    /// End of the request's life; duration = submit→resolve, `detail` =
    /// 0 delivered, 1 delivered after its deadline, 2 shed, 3 failed.
    Resolve,
}

impl Stage {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admit => "admit",
            Stage::QueueWait => "queue_wait",
            Stage::Plan => "plan",
            Stage::Exec => "exec",
            Stage::Resolve => "resolve",
        }
    }

    fn from_code(c: u64) -> Stage {
        match c {
            0 => Stage::Admit,
            1 => Stage::QueueWait,
            2 => Stage::Plan,
            3 => Stage::Exec,
            _ => Stage::Resolve,
        }
    }

    fn code(self) -> u64 {
        match self {
            Stage::Admit => 0,
            Stage::QueueWait => 1,
            Stage::Plan => 2,
            Stage::Exec => 3,
            Stage::Resolve => 4,
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The request this span belongs to.
    pub trace: TraceId,
    /// What was measured.
    pub stage: Stage,
    /// Start, ns since the `Obs` epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Stage-specific detail (see [`Stage`] variants).
    pub detail: u64,
}

/// Slot sentinel: sequence word value while a writer owns the slot.
const WRITING: u64 = u64::MAX;

#[derive(Debug)]
struct Slot {
    /// Seqlock word: `WRITING` while a claim is in flight, else
    /// `claim_index + 1` of the last published record (0 = never written).
    seq: AtomicU64,
    trace: AtomicU64,
    stage: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    detail: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            stage: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            detail: AtomicU64::new(0),
        }
    }
}

/// Lock-free fixed-capacity span ring (power-of-two capacity).
///
/// Writers: `cursor.fetch_add(1)` claims slot `idx & mask`; the slot's
/// sequence word is set to `WRITING`, the payload stored, then the
/// sequence published as `idx + 1` (release). Readers re-check the
/// sequence around the payload read and drop torn records. A wrapped
/// writer simply overwrites — recording never stalls a request.
#[derive(Debug)]
pub struct SpanRing {
    slots: Box<[Slot]>,
    mask: u64,
    cursor: AtomicU64,
}

impl SpanRing {
    /// Creates a ring holding `capacity` spans (rounded up to a power of
    /// two, minimum 64).
    pub fn new(capacity: usize) -> SpanRing {
        let cap = capacity.next_power_of_two().max(64);
        SpanRing {
            slots: (0..cap).map(|_| Slot::empty()).collect(),
            mask: (cap - 1) as u64,
            cursor: AtomicU64::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Spans lost to ring wrap so far.
    pub fn overwritten(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// Records one span. Lock-free; safe from any thread.
    pub fn record(&self, rec: SpanRecord) {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx & self.mask) as usize];
        slot.seq.store(WRITING, Ordering::Release);
        slot.trace.store(rec.trace.0, Ordering::Relaxed);
        slot.stage.store(rec.stage.code(), Ordering::Relaxed);
        slot.start_ns.store(rec.start_ns, Ordering::Relaxed);
        slot.dur_ns.store(rec.dur_ns, Ordering::Relaxed);
        slot.detail.store(rec.detail, Ordering::Relaxed);
        slot.seq.store(idx + 1, Ordering::Release);
    }

    /// Copies out every currently readable span, oldest first. Records
    /// being concurrently overwritten are skipped (seqlock validation),
    /// never returned torn.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let cursor = self.cursor.load(Ordering::Acquire);
        let cap = self.capacity() as u64;
        let start = cursor.saturating_sub(cap);
        let mut out = Vec::with_capacity((cursor - start) as usize);
        for idx in start..cursor {
            let slot = &self.slots[(idx & self.mask) as usize];
            let seq0 = slot.seq.load(Ordering::Acquire);
            if seq0 != idx + 1 {
                // Not yet published for this claim, or already overwritten.
                continue;
            }
            let rec = SpanRecord {
                trace: TraceId(slot.trace.load(Ordering::Relaxed)),
                stage: Stage::from_code(slot.stage.load(Ordering::Relaxed)),
                start_ns: slot.start_ns.load(Ordering::Relaxed),
                dur_ns: slot.dur_ns.load(Ordering::Relaxed),
                detail: slot.detail.load(Ordering::Relaxed),
            };
            std::sync::atomic::fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == seq0 {
                out.push(rec);
            }
        }
        out
    }
}

/// One retained slow request: its full span tree plus the totals that
/// triggered capture.
#[derive(Debug, Clone)]
pub struct SlowRequest {
    /// The breaching request.
    pub trace: TraceId,
    /// Submit→resolve latency, ns.
    pub total_ns: u64,
    /// The SLO/threshold the request was judged against, ns.
    pub threshold_ns: u64,
    /// The request's spans, in recording order.
    pub spans: Vec<SpanRecord>,
}

/// Bounded ring of [`SlowRequest`]s for postmortems. Capture happens
/// only on threshold breach — off the hot path by construction — so a
/// mutex-guarded deque is the right tool, not another lock-free ring.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<SlowRequest>>,
    capacity: usize,
    captured: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder retaining at most `capacity` requests
    /// (oldest evicted first).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            captured: AtomicU64::new(0),
        }
    }

    /// Retains one breaching request.
    pub fn capture(&self, req: SlowRequest) {
        self.captured.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(req);
    }

    /// Total captures ever (including evicted ones).
    pub fn captured_total(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// The currently retained requests, oldest first.
    pub fn snapshot(&self) -> Vec<SlowRequest> {
        self.ring.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, stage: Stage, start: u64) -> SpanRecord {
        SpanRecord { trace: TraceId(trace), stage, start_ns: start, dur_ns: 5, detail: 0 }
    }

    #[test]
    fn ring_keeps_newest_when_wrapped() {
        let ring = SpanRing::new(64);
        for i in 0..100u64 {
            ring.record(span(i, Stage::Exec, i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 64);
        assert_eq!(ring.overwritten(), 36);
        assert_eq!(snap.first().unwrap().trace, TraceId(36));
        assert_eq!(snap.last().unwrap().trace, TraceId(99));
    }

    #[test]
    fn stage_codes_round_trip() {
        let all = [Stage::Admit, Stage::QueueWait, Stage::Plan, Stage::Exec, Stage::Resolve];
        for (code, s) in all.into_iter().enumerate() {
            assert_eq!(s.code(), code as u64, "codes stay contiguous");
            assert_eq!(Stage::from_code(s.code()), s);
        }
    }

    #[test]
    fn concurrent_writers_never_produce_torn_records() {
        let ring = SpanRing::new(128);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..2000u64 {
                        // Encode writer+iteration in every field so a torn
                        // record is detectable.
                        let v = t * 10_000 + i;
                        ring.record(SpanRecord {
                            trace: TraceId(v),
                            stage: Stage::Exec,
                            start_ns: v,
                            dur_ns: v,
                            detail: v,
                        });
                    }
                });
            }
            // Snapshot concurrently with the writers.
            for _ in 0..50 {
                for rec in ring.snapshot() {
                    assert_eq!(rec.trace.0, rec.start_ns);
                    assert_eq!(rec.start_ns, rec.dur_ns);
                    assert_eq!(rec.dur_ns, rec.detail);
                }
            }
        });
        assert_eq!(ring.recorded(), 8000);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 128);
    }

    #[test]
    fn flight_recorder_evicts_oldest() {
        let fr = FlightRecorder::new(2);
        for i in 0..3u64 {
            fr.capture(SlowRequest {
                trace: TraceId(i + 1),
                total_ns: 1000 * (i + 1),
                threshold_ns: 500,
                spans: vec![span(i + 1, Stage::Resolve, 0)],
            });
        }
        assert_eq!(fr.captured_total(), 3);
        let snap = fr.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].trace, TraceId(2));
        assert_eq!(snap[1].trace, TraceId(3));
    }
}
