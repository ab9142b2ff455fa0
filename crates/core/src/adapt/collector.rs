//! The online sample collector: joins measured-kernel telemetry with
//! Table-I feature vectors to produce labeled training data.
//!
//! The paper's pipeline labels a matrix with the format that *measured*
//! fastest (§V); offline that label comes from profiling runs, online it
//! comes from the serving layer's own executions. [`SampleCollector`]
//! accumulates three things:
//!
//! * **telemetry** — the lock-free [`Telemetry`] ring the service records
//!   measured executions into;
//! * **features** — the [`FeatureVector`] of every structure the service
//!   analyzed (noted on decision-cache misses, off the execution hot
//!   path);
//! * **aliases** — a map from realized (post-conversion) structure hashes
//!   back to the canonical hash features were noted under, since the same
//!   logical matrix hashes differently per storage format.
//!
//! [`SampleCollector::build_dataset`] turns the three into a
//! [`morpheus_ml::Dataset`]: per (canonical structure, scalar, workers)
//! group it takes the formats with at least
//! [`CollectorConfig::min_observations`] measured executions, labels the
//! group with the format whose *fastest observed execution* wins (minima
//! are robust where means follow whichever measurement context ran more
//! often) and emits one feature row. A group whose
//! serving traffic only ever exercised the tuned format has nothing to
//! compare — [`SampleCollector::sweep`] fills those gaps with a
//! `RunFirstTuner`-style trial sweep: real, timed executions of every
//! viable format, charged to [`TuningCost::measured`] so the adaptive
//! pipeline's cost accounting stays honest.

use super::telemetry::{MeasuredKernel, SampleKey, Telemetry, TelemetryStats};
use crate::features::FeatureVector;
use crate::tuner::TuningCost;
use crate::{Result, NUM_FEATURES};
use morpheus::format::{FormatId, ALL_FORMATS, FORMAT_COUNT};
use morpheus::{Analysis, ConvertOptions, DynamicMatrix, Scalar};
use morpheus_machine::{analyze_from, Op, VirtualEngine};
use morpheus_ml::Dataset;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Policy of a [`SampleCollector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectorConfig {
    /// Slots in the telemetry ring (see [`Telemetry::new`]).
    pub telemetry_slots: usize,
    /// Fewest measured executions a format needs before it participates in
    /// labeling — single noisy observations must not crown a winner.
    pub min_observations: u64,
    /// Fewest distinct formats with enough observations for a group to be
    /// labeled (below this there is nothing to compare; run a sweep).
    pub min_formats: usize,
    /// Relative tie window for labeling: formats whose fastest observed
    /// execution is within `(1 + tie_tolerance)` of the overall fastest
    /// are considered measurement ties, and the tie breaks to the lowest
    /// format ID. Without this,
    /// structurally degenerate pairs (e.g. DIA vs HDC on a pure banded
    /// matrix, where HDC's CSR remainder is empty and the kernels are the
    /// same work) flip labels on noise and teach the model nothing.
    pub tie_tolerance: f64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig { telemetry_slots: 1024, min_observations: 2, min_formats: 2, tie_tolerance: 0.05 }
    }
}

/// Counters describing what a collector has gathered so far.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CollectorStats {
    /// Structures with a noted feature vector.
    pub structures_profiled: usize,
    /// Realized-hash aliases registered.
    pub aliases: usize,
    /// Total wall seconds of trial-sweep executions charged so far.
    pub measured_seconds: f64,
    /// The telemetry ring's counters.
    pub telemetry: TelemetryStats,
}

/// Outcome of one [`SampleCollector::sweep`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepReport {
    /// Formats that were converted and timed.
    pub formats_timed: usize,
    /// Viable formats skipped because conversion failed.
    pub formats_skipped: usize,
    /// Timed executions per format.
    pub reps: usize,
    /// The sweep's cost: only [`TuningCost::measured`] is non-zero — these
    /// are real kernel seconds, not virtual-clock estimates.
    pub cost: TuningCost,
}

/// What [`SampleCollector::build_dataset`] produced.
#[derive(Debug, Clone)]
pub struct Collected {
    /// Labeled feature rows, one per sufficiently observed group
    /// (`n_features = 10`, `n_classes = 6`, targets are format IDs).
    pub dataset: Dataset,
    /// Groups that yielded a labeled row.
    pub labeled: usize,
    /// Groups skipped for having fewer than
    /// [`CollectorConfig::min_formats`] sufficiently observed formats.
    pub skipped_sparse: usize,
    /// Groups skipped because no feature vector was ever noted for their
    /// structure (e.g. decisions imported via warm start, never analyzed
    /// here).
    pub skipped_unprofiled: usize,
}

/// The adaptive subsystem's sample store. `Send + Sync`; share one
/// `Arc<SampleCollector>` between the [`OracleService`](crate::OracleService)
/// that feeds it and the [`AdaptiveEngine`](crate::adapt::AdaptiveEngine)
/// that drains it.
#[derive(Debug)]
pub struct SampleCollector {
    config: CollectorConfig,
    telemetry: Telemetry,
    features: Mutex<HashMap<u64, [f64; NUM_FEATURES]>>,
    aliases: Mutex<HashMap<u64, u64>>,
    measured_nanos: AtomicU64,
}

impl SampleCollector {
    /// Collector with the given policy.
    pub fn new(config: CollectorConfig) -> Self {
        SampleCollector {
            telemetry: Telemetry::new(config.telemetry_slots),
            config,
            features: Mutex::new(HashMap::new()),
            aliases: Mutex::new(HashMap::new()),
            measured_nanos: AtomicU64::new(0),
        }
    }

    /// The policy this collector was built with.
    pub fn config(&self) -> &CollectorConfig {
        &self.config
    }

    /// The underlying telemetry ring.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Records one measured execution — the hot-path entry point, a thin
    /// lock-free delegate to [`Telemetry::record`].
    #[inline]
    pub fn record(&self, key: SampleKey, elapsed: Duration) {
        self.telemetry.record(key, elapsed);
    }

    /// Notes the feature vector of a structure (idempotent; features are
    /// format-invariant, so first-writer-wins is correct). Called by the
    /// service on decision-cache misses and by sweeps — never on the
    /// execution hot path.
    pub fn note_features(&self, structure: u64, fv: &FeatureVector) {
        let mut features = [0.0; NUM_FEATURES];
        features.copy_from_slice(fv.as_slice());
        self.features.lock().entry(structure).or_insert(features);
    }

    /// Registers that `realized` (a post-conversion structure hash) is the
    /// same logical matrix as `canonical` (the hash its features were
    /// noted under).
    pub fn alias(&self, realized: u64, canonical: u64) {
        if realized != canonical {
            self.aliases.lock().entry(realized).or_insert(canonical);
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> CollectorStats {
        CollectorStats {
            structures_profiled: self.features.lock().len(),
            aliases: self.aliases.lock().len(),
            measured_seconds: self.measured_seconds(),
            telemetry: self.telemetry.stats(),
        }
    }

    /// Total wall seconds of trial-sweep executions charged so far.
    pub fn measured_seconds(&self) -> f64 {
        self.measured_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Runs a `RunFirstTuner`-style trial sweep of `m` for `op`: converts
    /// a copy to every viable format — with the parameters a decision for
    /// it would carry ([`crate::propose_params`]; `opts` supplies the rest),
    /// so a trial is the kernel serving stores, under the same
    /// [`SampleKey::param_code`] — executes each trial `reps` times with
    /// `spmv_serial` (`spmm_serial`) under wall-clock timing, and records
    /// the measurements (under `workers: 1`) so the next
    /// [`build_dataset`](Self::build_dataset) can label this structure
    /// with its *measured*-fastest format. The spent kernel seconds are
    /// charged to the returned [`TuningCost::measured`].
    ///
    /// Those run each format's one ranged body over a single part: the
    /// bodies serving runs, so a trial times the arithmetic a served
    /// matrix executes. Trials run on one thread and are recorded under
    /// `workers: 1`: dataset groups are per worker count, so on a
    /// threaded engine the sweep labels the serial group rather than
    /// filling the threaded serving group — labels then reflect serial
    /// format preferences. That matches single-worker deployments
    /// exactly; multi-worker services should treat adapted models as
    /// serial-calibrated until a threaded trial path exists.
    ///
    /// This is off-hot-path work: call it from the adaptation loop (or a
    /// background thread), never from a serving request.
    pub fn sweep<V: Scalar>(
        &self,
        engine: &VirtualEngine,
        opts: &ConvertOptions,
        m: &DynamicMatrix<V>,
        op: Op,
        reps: usize,
    ) -> Result<SweepReport> {
        let reps = reps.max(1);
        let canonical = m.structure_hash();
        let analysis = Analysis::of_auto_with_hash(m, opts.true_diag_alpha, canonical);
        let machine_view = analyze_from(m, &analysis);
        self.note_features(canonical, &FeatureVector::from_analysis(&analysis));

        let k = op.rhs_count();
        let x: Vec<V> = (0..m.ncols() * k).map(|i| V::from_f64(1.0 + (i % 13) as f64 * 0.25)).collect();
        let mut y = vec![V::ZERO; m.nrows() * k];

        // Materialize every viable format first, then *interleave* the
        // timed repetitions across formats: timing each format's reps
        // back-to-back hands later formats warmer caches (x, y and the
        // freshly converted data) and biases micro-matrix labels.
        let mut formats_skipped = 0usize;
        let mut trials: Vec<(SampleKey, DynamicMatrix<V>)> = Vec::new();
        for fmt in ALL_FORMATS {
            if !engine.is_viable(fmt, &machine_view) {
                continue;
            }
            let params = crate::propose_params(fmt, &machine_view);
            let trial = if fmt == m.format_id() {
                m.clone()
            } else {
                match m.to_format_with(fmt, &ConvertOptions { params, ..*opts }, Some(&analysis)) {
                    Ok((converted, _)) => converted,
                    Err(_) => {
                        formats_skipped += 1;
                        continue;
                    }
                }
            };
            self.alias(trial.structure_hash(), canonical);
            let key = SampleKey {
                structure: canonical,
                format: fmt,
                op,
                scalar_bytes: std::mem::size_of::<V>(),
                workers: 1,
                param_code: params.code(),
            };
            trials.push((key, trial));
        }
        let run = |trial: &DynamicMatrix<V>, y: &mut Vec<V>| -> crate::Result<()> {
            match op {
                Op::Spmv => morpheus::spmv::spmv_serial(trial, &x, y)?,
                Op::Spmm { .. } => morpheus::spmm::spmm_serial(trial, &x, y, k)?,
            }
            Ok(())
        };
        // One untimed warmup pass per format.
        for (_, trial) in &trials {
            run(trial, &mut y)?;
        }
        let mut measured = Duration::ZERO;
        for _ in 0..reps {
            for (key, trial) in &trials {
                let t0 = Instant::now();
                run(trial, &mut y)?;
                let dt = t0.elapsed();
                self.telemetry.record(*key, dt);
                measured += dt;
            }
        }
        let formats_timed = trials.len();
        let measured_s = measured.as_secs_f64();
        self.measured_nanos
            .fetch_add(u64::try_from(measured.as_nanos()).unwrap_or(u64::MAX), Ordering::Relaxed);
        Ok(SweepReport {
            formats_timed,
            formats_skipped,
            reps,
            cost: TuningCost { measured: measured_s, ..Default::default() },
        })
    }

    /// Joins telemetry with the noted features into a labeled
    /// [`Dataset`] for `op` (measurements of other operations are
    /// ignored — format preferences are operation-specific).
    ///
    /// Rows are emitted in deterministic (canonical hash, scalar, workers)
    /// order, so a seeded retrain over the same observations reproduces
    /// the same model bit for bit.
    pub fn build_dataset(&self, op: Op) -> Result<Collected> {
        let snapshot = self.telemetry.snapshot();
        let aliases = self.aliases.lock();
        let features = self.features.lock();

        // (canonical, scalar_bytes, workers) -> format -> (count, best).
        type Group = BTreeMap<FormatId, (u64, f64)>;
        let mut groups: BTreeMap<(u64, usize, usize), Group> = BTreeMap::new();
        for MeasuredKernel { key, count, min_seconds, .. } in snapshot {
            if key.op != op {
                continue;
            }
            let canonical = *aliases.get(&key.structure).unwrap_or(&key.structure);
            let entry = groups
                .entry((canonical, key.scalar_bytes, key.workers))
                .or_default()
                .entry(key.format)
                .or_insert((0, f64::INFINITY));
            entry.0 += count;
            entry.1 = entry.1.min(min_seconds);
        }

        let names = crate::FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
        let mut dataset = Dataset::empty(NUM_FEATURES, FORMAT_COUNT, names)?;
        let (mut labeled, mut skipped_sparse, mut skipped_unprofiled) = (0usize, 0usize, 0usize);
        for ((canonical, _scalar, _workers), by_format) in groups {
            // Compare formats by their fastest observed execution: minima
            // are robust to mixed measurement contexts (serving traffic
            // with cold caches vs tight sweep loops), where means follow
            // whichever context produced more samples.
            let qualified: Vec<(FormatId, f64)> = by_format
                .iter()
                .filter(|(_, (count, _))| *count >= self.config.min_observations)
                .map(|(fmt, (_, best))| (*fmt, *best))
                .collect();
            if qualified.len() < self.config.min_formats {
                skipped_sparse += 1;
                continue;
            }
            let Some(row) = features.get(&canonical) else {
                skipped_unprofiled += 1;
                continue;
            };
            // Fastest wins; anything within the tie window counts as tied
            // and the tie breaks toward the lower format ID (qualified is
            // already in FormatId order, so `find` takes the lowest-ID
            // member of the window).
            let fastest = qualified
                .iter()
                .map(|(_, best)| *best)
                .min_by(|a, b| a.partial_cmp(b).expect("finite times"))
                .expect("min_formats >= 1 checked above");
            let window = fastest * (1.0 + self.config.tie_tolerance.max(0.0));
            let label = qualified
                .iter()
                .find(|(_, best)| *best <= window)
                .expect("fastest itself is in the window")
                .0;
            dataset.push(row, label.index())?;
            labeled += 1;
        }
        Ok(Collected { dataset, labeled, skipped_sparse, skipped_unprofiled })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus::CooMatrix;
    use morpheus_machine::{systems, Backend};

    fn fv(seed: f64) -> FeatureVector {
        FeatureVector([seed, 1.0, 2.0, 3.0, 0.5, 4.0, 1.0, 0.1, 2.0, 1.0, 0.3, 1.2])
    }

    fn key(structure: u64, format: FormatId) -> SampleKey {
        SampleKey { structure, format, op: Op::Spmv, scalar_bytes: 8, workers: 1, param_code: 0 }
    }

    fn tridiag(n: usize) -> DynamicMatrix<f64> {
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for i in 0..n {
            for d in [-1isize, 0, 1] {
                let j = i as isize + d;
                if j >= 0 && (j as usize) < n {
                    rows.push(i);
                    cols.push(j as usize);
                }
            }
        }
        let vals = vec![1.0; rows.len()];
        DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
    }

    #[test]
    fn labels_fastest_format_above_threshold() {
        let c = SampleCollector::new(CollectorConfig::default());
        c.note_features(7, &fv(7.0));
        // DIA measured faster than CSR; both with >= 2 observations.
        for _ in 0..3 {
            c.record(key(7, FormatId::Csr), Duration::from_micros(50));
            c.record(key(7, FormatId::Dia), Duration::from_micros(20));
        }
        // A single ELL observation must not participate (min_observations).
        c.record(key(7, FormatId::Ell), Duration::from_nanos(1));

        let out = c.build_dataset(Op::Spmv).unwrap();
        assert_eq!(out.labeled, 1);
        assert_eq!(out.dataset.len(), 1);
        assert_eq!(out.dataset.target(0), FormatId::Dia.index());
        assert_eq!(out.dataset.row(0)[0], 7.0);
    }

    #[test]
    fn near_ties_break_to_the_lower_format_id() {
        let c = SampleCollector::new(CollectorConfig { tie_tolerance: 0.05, ..Default::default() });
        c.note_features(3, &fv(3.0));
        // HDC is nominally 2% faster than DIA — within the tie window, so
        // the label must deterministically be DIA (lower ID), not flip on
        // which twin happened to measure faster this time.
        for _ in 0..4 {
            c.record(key(3, FormatId::Dia), Duration::from_nanos(1000));
            c.record(key(3, FormatId::Hdc), Duration::from_nanos(980));
            c.record(key(3, FormatId::Csr), Duration::from_nanos(5000));
        }
        let out = c.build_dataset(Op::Spmv).unwrap();
        assert_eq!(out.dataset.target(0), FormatId::Dia.index());

        // Outside the window the genuinely faster format wins.
        let strict = SampleCollector::new(CollectorConfig { tie_tolerance: 0.0, ..Default::default() });
        strict.note_features(3, &fv(3.0));
        for _ in 0..4 {
            strict.record(key(3, FormatId::Dia), Duration::from_nanos(1000));
            strict.record(key(3, FormatId::Hdc), Duration::from_nanos(980));
        }
        let out = strict.build_dataset(Op::Spmv).unwrap();
        assert_eq!(out.dataset.target(0), FormatId::Hdc.index());
    }

    #[test]
    fn single_format_groups_are_skipped_as_sparse() {
        let c = SampleCollector::new(CollectorConfig::default());
        c.note_features(1, &fv(1.0));
        for _ in 0..5 {
            c.record(key(1, FormatId::Csr), Duration::from_micros(10));
        }
        let out = c.build_dataset(Op::Spmv).unwrap();
        assert_eq!(out.labeled, 0);
        assert_eq!(out.skipped_sparse, 1, "one observed format has nothing to compare against");
    }

    #[test]
    fn unprofiled_structures_are_skipped() {
        let c = SampleCollector::new(CollectorConfig::default());
        for _ in 0..3 {
            c.record(key(9, FormatId::Csr), Duration::from_micros(10));
            c.record(key(9, FormatId::Dia), Duration::from_micros(5));
        }
        let out = c.build_dataset(Op::Spmv).unwrap();
        assert_eq!((out.labeled, out.skipped_unprofiled), (0, 1));
    }

    #[test]
    fn aliases_fold_realized_hashes_into_one_group() {
        let c = SampleCollector::new(CollectorConfig::default());
        c.note_features(100, &fv(100.0));
        c.alias(200, 100); // e.g. the DIA realization of structure 100
        for _ in 0..2 {
            c.record(key(100, FormatId::Csr), Duration::from_micros(40));
            c.record(key(200, FormatId::Dia), Duration::from_micros(10));
        }
        let out = c.build_dataset(Op::Spmv).unwrap();
        assert_eq!(out.labeled, 1);
        assert_eq!(out.dataset.target(0), FormatId::Dia.index());
    }

    #[test]
    fn other_ops_do_not_pollute_the_dataset() {
        let c = SampleCollector::new(CollectorConfig::default());
        c.note_features(4, &fv(4.0));
        for _ in 0..3 {
            c.record(key(4, FormatId::Csr), Duration::from_micros(30));
            c.record(key(4, FormatId::Dia), Duration::from_micros(60));
            let mut spmm = key(4, FormatId::Ell);
            spmm.op = Op::Spmm { k: 8 };
            c.record(spmm, Duration::from_micros(1));
        }
        let out = c.build_dataset(Op::Spmv).unwrap();
        assert_eq!(out.dataset.len(), 1);
        assert_eq!(out.dataset.target(0), FormatId::Csr.index(), "SpMM samples must be ignored");
        // And the SpMM view sees only its own (sparse) group.
        let spmm_out = c.build_dataset(Op::Spmm { k: 8 }).unwrap();
        assert_eq!((spmm_out.labeled, spmm_out.skipped_sparse), (0, 1));
    }

    #[test]
    fn sweep_times_every_viable_format_and_charges_measured_cost() {
        let c = SampleCollector::new(CollectorConfig::default());
        let engine = VirtualEngine::new(systems::cirrus(), Backend::Serial);
        let m = tridiag(400);
        let report = c.sweep(&engine, &ConvertOptions::default(), &m, Op::Spmv, 3).unwrap();
        assert!(report.formats_timed >= 2, "tridiagonal converts to several formats: {report:?}");
        assert_eq!(report.reps, 3);
        assert!(report.cost.measured > 0.0);
        assert_eq!(report.cost.total(), report.cost.measured);
        assert!((c.measured_seconds() - report.cost.measured).abs() < 1e-12);

        // The sweep alone provides enough coverage to label the structure.
        let out = c.build_dataset(Op::Spmv).unwrap();
        assert_eq!(out.labeled, 1);
        assert_eq!(out.skipped_unprofiled, 0, "sweep must note features");
        let stats = c.stats();
        assert_eq!(stats.structures_profiled, 1);
        assert!(stats.aliases >= report.formats_timed - 1);
    }
}
