//! The tuning report (§VI-B).
//!
//! "The input of the tuning operation requires the DynamicMatrix and the
//! tuner, along with the desired execution space ... Upon completion of the
//! tuning operation, the tuner can be queried for the optimal format" —
//! here the operation also performs the switch, returning a report with the
//! decision and its cost. Tuning runs through an [`crate::OracleService`]
//! session (build one with `cache_capacity(0)` for one-shot behaviour).

use crate::tuner::TuningCost;
use morpheus::format::FormatId;
use morpheus_machine::Op;

/// How the execution stage following a tune was scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStatus {
    /// No execution plan was involved: a pure [`crate::OracleService::tune`] (no
    /// execution), serial execution (nothing to schedule), or a per-call
    /// tune that ran its source once, one execution not repaying the
    /// conversion.
    Unplanned,
    /// An [`morpheus::ExecPlan`] was built for this call and cached for
    /// the structure.
    Built,
    /// A cached plan was replayed with zero scheduling work — the
    /// amortised steady state of an iterative loop.
    Reused,
}

impl PlanStatus {
    /// `true` when a cached plan was replayed.
    pub fn is_hit(&self) -> bool {
        matches!(self, PlanStatus::Reused)
    }
}

/// Outcome of one tuning call ([`crate::OracleService::tune`] and friends).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneReport {
    /// Format the matrix ended up in.
    pub chosen: FormatId,
    /// Format the matrix was in before tuning.
    pub previous: FormatId,
    /// The format the tuning decision named before conversion. On a fresh
    /// decision it differs from `chosen` only when the conversion failed
    /// and the matrix fell back to CSR; on a cache hit the *realized*
    /// decision is served, so `predicted == chosen` even if the original
    /// prediction had been non-viable. A per-call tune (`tune_and_*`) that
    /// kept its source, one execution not repaying the conversion, reports
    /// the decision here and the source as `chosen`.
    pub predicted: FormatId,
    /// Cost of the tuning decision on the engine's virtual clock (all
    /// components zero on a cache hit).
    pub cost: TuningCost,
    /// `true` if a format switch was performed. For `shards > 1`: `true`
    /// when any shard left the CSR it was split out as.
    pub converted: bool,
    /// The operation the matrix was tuned for.
    pub op: Op,
    /// `true` when the decision came from the session's cache. For
    /// `shards > 1`: `true` only when *every* shard's decision did (shards
    /// are cached under their own structure hashes, so a repeat
    /// registration of the same matrix hits on all of them).
    pub cache_hit: bool,
    /// Whether the execution stage built a fresh [`morpheus::ExecPlan`],
    /// replayed a cached one, or ran unplanned. Always
    /// [`PlanStatus::Unplanned`] for tune-only calls. Describes the plan
    /// *cache* interaction — when `serial_fallback` is set, the acquired
    /// plan's bodies ran inline on the calling thread.
    pub plan: PlanStatus,
    /// `true` when a threaded execution found the pool busy with another
    /// client's batch and ran inline on the calling thread — the plan's
    /// kernel bodies (bitwise identical to the pooled execution) when a
    /// plan was acquired, `spmv_serial`'s one part otherwise — instead of
    /// queueing behind it (counted in the registry counter
    /// `serve.fallbacks_taken`, see [`crate::OracleService::obs_snapshot`]).
    /// Always `false` for tune-only calls and serial engines.
    pub serial_fallback: bool,
    /// Which conversion path realised the switch (direct kernel, hub
    /// through an interchange copy, or identity) and its measured wall-clock cost. Unlike
    /// [`TuneReport::cost`], this is host time, not the engine's virtual
    /// clock — it is the real price §VII's amortisation argument is about.
    /// For `shards > 1`: the *summed* wall-clock seconds of the shard
    /// conversions, on the direct path (shards are split out as CSR) when
    /// any shard converted and the identity outcome when none did.
    pub convert: morpheus::ConvertOutcome,
    /// Shards of the registered matrix: 1 for a whole-matrix registration
    /// (and for all tune-only calls), ≥ 2 when the service decided a
    /// partitioned handle wins (see
    /// `OracleService::register_partitioned`). For partitioned handles
    /// [`TuneReport::chosen`] reports the nnz-dominant shard; per-shard
    /// detail lives on the handle.
    pub shards: usize,
}
