//! End-to-end observability: request tracing, unified metrics, and a
//! slow-request flight recorder.
//!
//! One [`Obs`] hub lives on each `OracleService` and is shared (via
//! `Arc`) with every `Ingress` started on it. It owns:
//!
//! - the [`MetricsRegistry`] all layers register their counters, gauges
//!   and stage-latency [`Histogram`]s into (names: `layer.noun_verb`);
//! - the [`SpanRing`] request tracer — every request is minted a
//!   [`TraceId`] at the service/ingress boundary and leaves a span tree
//!   `admit → queue_wait → plan → exec → resolve` behind;
//! - the [`FlightRecorder`], which retains the full span tree of any
//!   request that breaches its SLO or the configured latency threshold.
//!
//! Overhead discipline: with [`TraceLevel::Off`] the hot path takes the
//! same no-clock-read route it took before this subsystem existed (the
//! `Instant::now` calls are gated exactly like the adapt collector's).
//! [`TraceLevel::Coarse`] — the default — records request-level spans.

mod hist;
mod registry;
mod span;

pub mod expose;

pub use hist::{percentile_exact, HistSummary, Histogram, HIST_BUCKETS};
pub use registry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use span::{FlightRecorder, SlowRequest, SpanRecord, SpanRing, Stage, TraceId};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How much tracing detail to record. Metrics (counters/gauges/
/// histograms) are always live — the level governs spans only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// No spans, no trace ids, no clock reads for tracing.
    Off,
    /// Request-level spans (admit/queue_wait/plan/exec/resolve). The default: cheap enough to leave on in production.
    #[default]
    Coarse,
}

/// Observability configuration, passed to the oracle builder.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Span verbosity (default [`TraceLevel::Coarse`]).
    pub trace: TraceLevel,
    /// Span ring capacity (rounded up to a power of two; default 4096).
    pub span_capacity: usize,
    /// Flight-recorder capacity in retained requests (default 32).
    pub flight_capacity: usize,
    /// Latency threshold that triggers flight capture for requests with
    /// no explicit deadline. Requests with an SLO deadline are judged
    /// against that deadline instead. `None` (default) captures only
    /// SLO-breaching requests.
    pub slow_threshold: Option<Duration>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace: TraceLevel::default(),
            span_capacity: 4096,
            flight_capacity: 32,
            slow_threshold: None,
        }
    }
}

/// The per-service observability hub. See the module docs.
#[derive(Debug)]
pub struct Obs {
    level: TraceLevel,
    registry: MetricsRegistry,
    ring: SpanRing,
    flight: FlightRecorder,
    epoch: Instant,
    next_trace: AtomicU64,
    slow_threshold_ns: Option<u64>,
}

impl Obs {
    /// Builds a hub from its configuration.
    pub fn new(cfg: ObsConfig) -> Obs {
        Obs {
            level: cfg.trace,
            registry: MetricsRegistry::new(),
            ring: SpanRing::new(cfg.span_capacity),
            flight: FlightRecorder::new(cfg.flight_capacity),
            epoch: Instant::now(),
            next_trace: AtomicU64::new(1),
            slow_threshold_ns: cfg.slow_threshold.map(|d| d.as_nanos().min(u64::MAX as u128) as u64),
        }
    }

    /// The configured trace level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Whether any spans are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level != TraceLevel::Off
    }

    /// Mints a fresh trace id ([`TraceId::NONE`] when tracing is off, so
    /// callers can thread the id unconditionally).
    #[inline]
    pub fn mint_trace(&self) -> TraceId {
        if self.enabled() {
            TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
        } else {
            TraceId::NONE
        }
    }

    /// Nanoseconds since this hub's monotonic epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Converts an `Instant` captured elsewhere to epoch nanoseconds.
    #[inline]
    pub fn instant_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos().min(u64::MAX as u128) as u64
    }

    /// Records one span if tracing is on and the trace is real.
    #[inline]
    pub fn span(&self, trace: TraceId, stage: Stage, start_ns: u64, dur_ns: u64, detail: u64) {
        if self.enabled() && trace.is_some() {
            self.ring.record(SpanRecord { trace, stage, start_ns, dur_ns, detail });
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The slow-request flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The capture threshold for deadline-less requests, ns.
    pub fn slow_threshold_ns(&self) -> Option<u64> {
        self.slow_threshold_ns
    }

    /// Copies out the currently readable spans, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.ring.snapshot()
    }

    /// The spans of one trace, in recording order (empty if the trace
    /// was overwritten or never recorded).
    pub fn trace_spans(&self, trace: TraceId) -> Vec<SpanRecord> {
        self.ring.snapshot().into_iter().filter(|s| s.trace == trace).collect()
    }

    /// Spans lost to ring wrap so far.
    pub fn spans_overwritten(&self) -> u64 {
        self.ring.overwritten()
    }

    /// A point-in-time view of the whole hub.
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            metrics: self.registry.snapshot(),
            spans_recorded: self.ring.recorded(),
            spans_overwritten: self.ring.overwritten(),
            slow_captured: self.flight.captured_total(),
            slow_retained: self.flight.snapshot().len() as u64,
        }
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new(ObsConfig::default())
    }
}

/// Owned snapshot of the hub's state: the metric values plus tracer
/// bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct ObsSnapshot {
    /// Every registered metric (see [`MetricsRegistry::snapshot`]).
    pub metrics: MetricsSnapshot,
    /// Total spans ever recorded.
    pub spans_recorded: u64,
    /// Spans lost to ring wrap.
    pub spans_overwritten: u64,
    /// Slow requests ever captured.
    pub slow_captured: u64,
    /// Slow requests currently retained.
    pub slow_retained: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_level_mints_none_and_drops_spans() {
        let obs = Obs::new(ObsConfig { trace: TraceLevel::Off, ..ObsConfig::default() });
        assert!(!obs.enabled());
        assert_eq!(obs.mint_trace(), TraceId::NONE);
        obs.span(TraceId(7), Stage::Exec, 0, 10, 0);
        assert!(obs.spans().is_empty());
    }

    #[test]
    fn coarse_level_traces_but_not_fine() {
        let obs = Obs::default();
        assert!(obs.enabled());
        assert_eq!(obs.level(), TraceLevel::Coarse);
        let t = obs.mint_trace();
        assert!(t.is_some());
        obs.span(t, Stage::Exec, obs.now_ns(), 42, 0);
        let spans = obs.trace_spans(t);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].dur_ns, 42);
    }

    #[test]
    fn trace_ids_are_unique_across_threads() {
        let obs = Obs::default();
        let mut ids: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let obs = &obs;
                    s.spawn(move || (0..500).map(|_| obs.mint_trace().0).collect::<Vec<_>>())
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2000);
    }
}
