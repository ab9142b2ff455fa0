//! What one pass records and how passes fold into reported values.
//!
//! Every timing is divided by `t_ref`, the median time of the frozen
//! reference kernel on the same matrix sampled in the same pass, so a
//! noisy neighbour or a frequency change moves numerator and denominator
//! together. A metric's value is the median over counted passes; its
//! spread is `(max - min) / median` over them.

use crate::stats::{median, p50_band, p90_band, spread};
use morpheus::format::FORMAT_COUNT;
use std::time::Instant;

/// Times `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Instant, f64) {
    let t = Instant::now();
    let out = f();
    let dt = t.elapsed().as_secs_f64();
    (out, t, dt)
}

/// One registration and the warm traffic it amortises over: the three
/// numbers the interaction identity
/// `tuned_speedup(N) = N / (tune_cost + N * warm_ratio)` needs.
#[derive(Debug, Clone, Copy)]
pub struct Session {
    /// `t_register / t_ref`.
    pub tune_cost: f64,
    /// Median warm `spmv` latency over `t_ref` on the same matrix.
    pub warm_ratio: f64,
    pub t_ref_s: f64,
}

/// Everything one pass measured. Samples are already in reference units.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    pub attempted: u64,
    pub failed: u64,
    /// `t_register / t_ref` per `register` operation.
    pub tune_cost: Vec<f64>,
    /// Warm `spmv` latency over `t_ref` (per burst, amortised, for ingress).
    pub req_ratio: Vec<f64>,
    /// Reference-seconds of work the completed operations stand for.
    pub ref_s: f64,
    /// Seconds callers spent inside the program for those operations.
    pub op_s: f64,
    pub sessions: Vec<Session>,
    /// `t_ref` of every matrix touched, in ns.
    pub ref_ns: Vec<f64>,
    /// Realised format of each registration.
    pub formats: [u64; FORMAT_COUNT],
    pub registers: u64,
    /// Registrations whose predicted format was not viable (CSR fallback).
    pub fallbacks: u64,
    pub converts: u64,
    pub direct_converts: u64,
    /// Registered storage bytes over the reference CSR's bytes.
    pub storage_vs_csr: Vec<f64>,
    /// Warm-read ratios split by whether another client was inside
    /// `register` while the read ran (recorded on traced passes only).
    pub reads_during_register: Vec<f64>,
    pub reads_clear: Vec<f64>,
    /// Per-call `tune_and_spmv` latency over `t_ref`, cache hits only.
    pub hit_path_ratio: Vec<f64>,
    /// Decision- and plan-cache `(hits, misses)` over the pass.
    pub decision_cache: (u64, u64),
    pub plan_cache: (u64, u64),
    pub wall_s: f64,
}

/// The four ratio metrics every workload reports (plus `setup_s`).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub tune_cost_ref_iters_p50: f64,
    pub request_ref_ratio_p50: f64,
    pub request_ref_ratio_p90: f64,
    pub throughput_vs_ref: f64,
}

impl PassStats {
    pub fn merge(&mut self, other: PassStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.tune_cost.extend(other.tune_cost);
        self.req_ratio.extend(other.req_ratio);
        self.ref_s += other.ref_s;
        self.op_s += other.op_s;
        self.sessions.extend(other.sessions);
        self.ref_ns.extend(other.ref_ns);
        for (a, b) in self.formats.iter_mut().zip(other.formats) {
            *a += b;
        }
        self.registers += other.registers;
        self.fallbacks += other.fallbacks;
        self.converts += other.converts;
        self.direct_converts += other.direct_converts;
        self.storage_vs_csr.extend(other.storage_vs_csr);
        self.reads_during_register.extend(other.reads_during_register);
        self.reads_clear.extend(other.reads_clear);
        self.hit_path_ratio.extend(other.hit_path_ratio);
        self.decision_cache =
            (self.decision_cache.0 + other.decision_cache.0, self.decision_cache.1 + other.decision_cache.1);
        self.plan_cache = (self.plan_cache.0 + other.plan_cache.0, self.plan_cache.1 + other.plan_cache.1);
        self.wall_s = self.wall_s.max(other.wall_s);
    }

    pub fn end_to_end(&self) -> EndToEnd {
        EndToEnd {
            tune_cost_ref_iters_p50: p50_band(&self.tune_cost),
            request_ref_ratio_p50: p50_band(&self.req_ratio),
            request_ref_ratio_p90: p90_band(&self.req_ratio),
            throughput_vs_ref: if self.op_s > 0.0 { self.ref_s / self.op_s } else { 0.0 },
        }
    }
}

/// A reported value: median over passes and the spread between them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: f64,
}

impl Reading {
    pub fn over_passes(per_pass: &[f64]) -> Reading {
        Reading { value: median(per_pass), spread: spread(per_pass) }
    }
}

/// Folds counted passes into the end-to-end readings, in the order of
/// [`crate::metrics::END_TO_END`] without `setup_s`.
pub fn fold(passes: &[PassStats]) -> [Reading; 4] {
    let e: Vec<EndToEnd> = passes.iter().map(PassStats::end_to_end).collect();
    let col = |f: fn(&EndToEnd) -> f64| Reading::over_passes(&e.iter().map(f).collect::<Vec<f64>>());
    [
        col(|e| e.tune_cost_ref_iters_p50),
        col(|e| e.request_ref_ratio_p50),
        col(|e| e.request_ref_ratio_p90),
        col(|e| e.throughput_vs_ref),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(scale: f64) -> PassStats {
        PassStats {
            attempted: 10,
            tune_cost: vec![10.0 * scale, 12.0 * scale, 30.0 * scale],
            req_ratio: (1..=10).map(|i| i as f64 * 0.1 * scale).collect(),
            ref_s: 2.0,
            op_s: 4.0 * scale,
            ..Default::default()
        }
    }

    #[test]
    fn fold_takes_the_median_pass_and_reports_the_range() {
        let r = fold(&[pass(1.0), pass(1.1), pass(5.0)]);
        assert!((r[0].value - 13.2).abs() < 1e-9, "median pass is the 1.1x one");
        assert!((r[3].value - 2.0 / 4.4).abs() < 1e-9);
        assert!(r[0].spread > 3.0, "the outlier pass shows in the spread, not in the value");
        let one = fold(&[pass(1.0)]);
        assert_eq!(one[1].spread, 0.0);
        assert!((one[1].value - 0.55).abs() < 1e-9);
        assert!((one[2].value - 0.95).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counts_and_concatenates_samples() {
        let mut a = pass(1.0);
        a.merge(pass(2.0));
        assert_eq!((a.attempted, a.tune_cost.len(), a.req_ratio.len()), (20, 6, 20));
        assert!((a.op_s - 12.0).abs() < 1e-12);
    }
}
