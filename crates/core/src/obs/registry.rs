//! Unified metrics registry: named counters, gauges and histograms.
//!
//! Every layer of the stack (serve, ingress, pool, shards) registers its
//! metrics here instead of reinventing private atomics. Names follow the
//! `layer.noun_verb` convention — e.g. `serve.requests_served`,
//! `ingress.queue_rejected`, `pool.jobs_queued` — and the full inventory
//! is documented in the README "Observability" section.
//!
//! Handles ([`Counter`], [`Gauge`], `Arc<Histogram>`) are cheap clones of
//! shared atomics: the hot path holds a handle and never touches the
//! registry's name map. `get_or_*` on an existing name returns a handle
//! to the *same* cells, so two components registering the same name share
//! one metric (e.g. two `Ingress` pumps on one service — documented on
//! `Ingress::start`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use super::hist::{HistSummary, Histogram};

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge handle (queue depths, pool backlogs).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Families {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    hists: BTreeMap<String, Arc<Histogram>>,
}

/// The name → metric map. Lookups take a write lock; hot paths are
/// expected to resolve their handles once at construction.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: RwLock<Families>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, creating it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut f = self.families.write();
        f.counters.entry(name.to_string()).or_default().clone()
    }

    /// Returns the gauge named `name`, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut f = self.families.write();
        f.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Returns the histogram named `name`, creating it empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut f = self.families.write();
        f.hists.entry(name.to_string()).or_default().clone()
    }

    /// A point-in-time copy of every registered metric, sorted by name
    /// within each family (BTreeMap order), so renders are stable.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let f = self.families.read();
        MetricsSnapshot {
            counters: f.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: f.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            hists: f.hists.iter().map(|(k, v)| (k.clone(), v.summary())).collect(),
        }
    }
}

/// An owned, sorted copy of the registry at one instant. Two snapshots
/// of the same registry can be compared (via [`HistSummary::delta_since`]
/// and counter subtraction) to isolate a measurement window on a shared
/// service.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, summary)` pairs, sorted by name.
    pub hists: Vec<(String, HistSummary)>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.binary_search_by(|(k, _)| k.as_str().cmp(name)).map(|i| self.counters[i].1).unwrap_or(0)
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.binary_search_by(|(k, _)| k.as_str().cmp(name)).map(|i| self.gauges[i].1).unwrap_or(0)
    }

    /// Histogram summary by name (empty when absent).
    pub fn hist(&self, name: &str) -> HistSummary {
        self.hists
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map(|i| self.hists[i].1)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_cells() {
        let r = MetricsRegistry::new();
        let a = r.counter("ingress.requests_submitted");
        let b = r.counter("ingress.requests_submitted");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);

        let h1 = r.histogram("ingress.exec_ns");
        let h2 = r.histogram("ingress.exec_ns");
        h1.record_ns(10);
        h2.record_ns(20);
        assert_eq!(h1.count(), 2);
    }

    #[test]
    fn snapshot_is_sorted_and_lookup_works() {
        let r = MetricsRegistry::new();
        r.counter("serve.requests_served").add(7);
        r.counter("ingress.queue_rejected").add(3);
        r.gauge("pool.jobs_queued").set(5);
        r.histogram("serve.request_ns").record_ns(1000);

        let s = r.snapshot();
        let names: Vec<_> = s.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["ingress.queue_rejected", "serve.requests_served"]);
        assert_eq!(s.counter("serve.requests_served"), 7);
        assert_eq!(s.counter("missing.metric"), 0);
        assert_eq!(s.gauge("pool.jobs_queued"), 5);
        assert_eq!(s.hist("serve.request_ns").count, 1);
        assert_eq!(s.hist("missing.hist").count, 0);
    }
}
