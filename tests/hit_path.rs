//! What a decision-cache hit pays, and what a miss leaves behind for it.
//!
//! A hit reads the matrix once, for its key: the decision entry owns the
//! execution plan, a registered handle is keyed by the hash it was decided
//! under, and the re-tune aliases `tune` leaves live in a table of their
//! own. A per-call tune (`tune_and_*`) serves one execution: it converts
//! only when that execution repays the conversion (Eq. 2 at N = 1, the
//! horizon its decision records), and otherwise runs the matrix as it was
//! ingested. The traversal counts are exact
//! ([`passes`](morpheus_repro::morpheus::analysis::passes)): BELL is built
//! from arrays and plans nothing, so every traversal counted is a hash or an
//! analysis.

use morpheus_repro::machine::{systems, Backend, MatrixAnalysis, VirtualEngine};
use morpheus_repro::morpheus::analysis::passes;
use morpheus_repro::morpheus::format::FormatId;
use morpheus_repro::morpheus::spmm::spmm_serial;
use morpheus_repro::morpheus::spmv::spmv_serial;
use morpheus_repro::morpheus::{CooMatrix, DynamicMatrix, FormatParams};
use morpheus_repro::oracle::adapt::{CollectorConfig, SampleCollector};
use morpheus_repro::oracle::{
    FormatTuner, Op, Oracle, OracleService, PlanStatus, TuneDecision, TuningCost, DEFAULT_CACHE_CAPACITY,
};
use std::sync::Arc;

fn tridiag(n: usize) -> DynamicMatrix<f64> {
    let (mut rows, mut cols) = (Vec::new(), Vec::new());
    for i in 0..n {
        for j in i.saturating_sub(1)..(i + 2).min(n) {
            rows.push(i);
            cols.push(j);
        }
    }
    let vals = vec![1.0; rows.len()];
    DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
}

/// The same indices as `tridiag(n)`, one entry an explicit zero: equal
/// structure hash as COO, another one as DIA or HDC, whose hash covers which
/// stored values are zero (an explicit zero is padding there).
fn tridiag_with_a_hole(n: usize) -> DynamicMatrix<f64> {
    let DynamicMatrix::Coo(coo) = tridiag(n) else { panic!("tridiag is COO") };
    let mut vals = coo.values().to_vec();
    vals[100] = 0.0;
    DynamicMatrix::from(CooMatrix::from_triplets(n, n, coo.row_indices(), coo.col_indices(), &vals).unwrap())
}

/// A tuner that always picks its format.
struct Always(FormatId);

impl FormatTuner<f64> for Always {
    fn name(&self) -> &'static str {
        "always"
    }

    fn select(&self, _: &DynamicMatrix<f64>, _: &MatrixAnalysis, _: &VirtualEngine, op: Op) -> TuneDecision {
        TuneDecision { format: self.0, params: FormatParams::default(), op, cost: TuningCost::default() }
    }
}

/// A one-worker service that always picks `format`, holding `capacity`
/// decisions, feeding `collector` when there is one.
fn always(
    format: FormatId,
    capacity: usize,
    collector: Option<&Arc<SampleCollector>>,
) -> OracleService<Always> {
    let builder = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(Always(format))
        .workers(1)
        .cache_capacity(capacity);
    match collector {
        Some(collector) => builder.collector(Arc::clone(collector)),
        None => builder,
    }
    .build_service()
    .unwrap()
}

/// A decision-cache hit reads the matrix once, for the key: the entry
/// brings its plan, and the handle is keyed by the hash it was decided
/// under. A registration's miss reads it twice — key hash, analysis —
/// and never hashes what it converted; `tune`, whose caller keeps the
/// switched matrix, hashes it once more for the re-tune alias.
#[test]
fn a_hit_hashes_the_source_and_nothing_else() {
    let service = always(FormatId::Bell, DEFAULT_CACHE_CAPACITY, None);

    passes::reset();
    let first = service.register(tridiag(700)).unwrap();
    assert!(!first.report().cache_hit && first.format_id() == FormatId::Bell);
    assert_eq!(passes::count(), 2, "a registration's miss: key hash, analysis");

    passes::reset();
    let again = service.register(tridiag(700)).unwrap();
    assert!(again.report().cache_hit && again.report().plan == PlanStatus::Reused);
    assert_eq!(passes::count(), 1, "a repeat registration hashes the source only");

    passes::reset();
    let (x, mut y) = (vec![1.0f64; 700], vec![0.0f64; 700]);
    let report = service.tune_and_spmv(&mut tridiag(700), &x, &mut y).unwrap();
    // One execution repays no conversion into BELL: the COO source is moved
    // into CSR (the front door) and runs there, unplanned.
    assert!(report.cache_hit && report.converted && report.plan == PlanStatus::Unplanned);
    assert_eq!((report.predicted, report.chosen), (FormatId::Bell, FormatId::Csr));
    assert_eq!(passes::count(), 1, "a per-call hit hashes the source only");

    // A per-call miss hashes what it converted, for the alias re-tuning
    // the switched matrix hits through.
    let mut switched = tridiag(900);
    passes::reset();
    assert!(!service.tune(&mut switched).unwrap().cache_hit);
    assert_eq!(passes::count(), 3, "a tune's miss: key hash, analysis, hash of the converted matrix");
    passes::reset();
    assert!(service.tune(&mut switched).unwrap().cache_hit);
    assert_eq!(passes::count(), 1);
}

/// A tridiagonal matrix with a scatter of entries off the band, on eight
/// sparse diagonals: three true diagonals and a remainder for HDC, eleven
/// diagonals for DIA.
fn banded_with_scatter(n: usize) -> DynamicMatrix<f64> {
    let DynamicMatrix::Coo(band) = tridiag(n) else { panic!("tridiag is COO") };
    let (mut rows, mut cols) = (band.row_indices().to_vec(), band.col_indices().to_vec());
    for i in (0..n).step_by(9) {
        rows.push(i);
        cols.push((i + 50 + (i % 4) * 60) % n);
    }
    let vals: Vec<f64> = (0..rows.len()).map(|k| 0.5 + (k % 13) as f64 * 0.25).collect();
    DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
}

/// A DIA or HDC hit converts into the diagonals its entry's miss stored:
/// no walk looks for them again, so a repeat registration reads the matrix
/// once, for its key — and stores bitwise what the miss stored.
#[test]
fn a_diagonal_hit_converts_into_the_layout_its_miss_stored() {
    for format in [FormatId::Dia, FormatId::Hdc] {
        let service = always(format, DEFAULT_CACHE_CAPACITY, None);
        let first = service.register(banded_with_scatter(700)).unwrap();
        assert!(!first.report().cache_hit && first.format_id() == format, "{format}");
        passes::reset();
        let again = service.register(banded_with_scatter(700)).unwrap();
        assert!(again.report().cache_hit && again.format_id() == format, "{format}");
        assert_eq!(passes::count(), 1, "{format}: a repeat registration hashes the source only");
        let (a, b) = (first.matrix(), again.matrix());
        assert!(a.diagonal_layout().is_some_and(|l| !l.is_empty()), "{format}");
        // Debug prints every value in a form that reads back to its bits.
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{format}: the hit stored what the miss stored");
        assert_eq!(a.structure_hash(), b.structure_hash(), "{format}");
    }
}

/// With more structures come through than the cache holds, an entry that
/// was evicted and decided again owns a plan again: a hit never re-analyses
/// the converted matrix to rebuild one, which a plan cache evicting on its
/// own schedule made possible.
#[test]
fn a_hit_is_one_traversal_after_the_cache_has_cycled() {
    let capacity = 8usize;
    let service = always(FormatId::Bell, capacity, None);
    let sizes: Vec<usize> = (0..3 * (capacity - 2)).map(|i| 300 + 8 * i).collect();
    let (x, mut y) = (vec![1.0f64; 600], vec![0.0f64; 600]);
    // Registrations and per-call tunes interleaved, in groups that fit the
    // cache with little to spare — each group seen once (misses: the
    // earlier groups pushed it out), then once more (hits) — and the whole
    // sequence twice over. A per-call tune keeps its source (one execution
    // repays no conversion), so it plans nothing and leaves no plan.
    let (mut registered_hits, mut registered_misses) = (0u64, 0u64);
    for round in 0..2 {
        for group in sizes.chunks(capacity - 2) {
            for hit in [false, true] {
                for (i, &n) in group.iter().enumerate() {
                    passes::reset();
                    let per_call = i % 2 == 1;
                    let report = if per_call {
                        service.tune_and_spmv(&mut tridiag(n), &x[..n], &mut y[..n]).unwrap()
                    } else {
                        *service.register(tridiag(n)).unwrap().report()
                    };
                    assert_eq!(report.cache_hit, hit, "round {round}, structure {n}");
                    if per_call {
                        assert_eq!(
                            report.plan,
                            PlanStatus::Unplanned,
                            "structure {n}: served from its source"
                        );
                    } else if hit {
                        assert_eq!(report.plan, PlanStatus::Reused, "structure {n}: a hit brings its plan");
                    }
                    if hit {
                        assert_eq!(passes::count(), 1, "structure {n}: a hit is the source hash");
                    }
                    registered_hits += u64::from(!per_call && hit);
                    registered_misses += u64::from(!per_call && !hit);
                }
            }
        }
    }
    let (decisions, plans) = (service.cache_stats(), service.plan_cache_stats());
    assert_eq!(decisions.len, capacity, "the cache is full and has cycled");
    assert_eq!(plans.capacity, capacity);
    assert!(0 < plans.len && plans.len < capacity, "the registered decisions hold their plans: {plans:?}");
    assert_eq!(plans.hits, registered_hits, "every registration hit found its plan");
    assert_eq!(plans.misses, registered_misses, "every registration miss built one");
}

/// Re-tune aliases live in a table of their own: a capacity-`C` cache holds
/// `C` converted structures, not `C / 2`. `C` distinct COO structures tuned
/// through `tune`, then all again: every second sight is a hit, and so is
/// re-tuning a matrix already switched.
#[test]
fn aliases_take_no_decision_slots() {
    let capacity = 12usize;
    let service = always(FormatId::Bell, capacity, None);
    let sizes: Vec<usize> = (0..capacity).map(|i| 200 + 8 * i).collect();
    let mut switched = Vec::new();
    for &n in &sizes {
        let mut m = tridiag(n);
        let report = service.tune(&mut m).unwrap();
        assert!(!report.cache_hit && report.converted, "first sight of {n}");
        assert_eq!(m.format_id(), FormatId::Bell);
        switched.push(m);
    }
    assert_eq!(service.cache_stats().len, capacity, "one slot per structure");
    for &n in &sizes {
        let report = service.tune(&mut tridiag(n)).unwrap();
        assert!(report.cache_hit, "second sight of {n}: no alias pushed its decision out");
    }
    for m in &mut switched {
        let n = m.nrows();
        let report = service.tune(m).unwrap();
        assert!(report.cache_hit && !report.converted, "re-tuning the switched {n} hits its alias");
    }
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.len), (2 * capacity as u64, capacity as u64, capacity));
}

/// A per-call tune serves one execution from its source when that execution
/// does not repay the conversion (here, BELL on a tridiagonal): `y` is the
/// source's serial result bit for bit, the report predicts BELL and chose
/// CSR, and nothing is converted, aliased or planned — the matrix stays in
/// CSR and no plan lands in the decision's slot. The decision it left is a
/// registration's hit: converted, planned once, nothing walked; `tune`
/// still converts; and a matrix already in BELL runs in it, planned.
#[test]
fn a_per_call_tune_serves_one_execution_from_its_source() {
    let n = 700usize;
    let x: Vec<f64> = (0..3 * n).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
    let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for op in [Op::Spmv, Op::Spmm { k: 3 }] {
        let k = op.rhs_count();
        let service = always(FormatId::Bell, DEFAULT_CACHE_CAPACITY, None);
        let source = tridiag(n).to_format(FormatId::Csr, &Default::default()).unwrap();
        let run = |m: &mut DynamicMatrix<f64>, y: &mut [f64]| match op {
            Op::Spmv => service.tune_and_spmv(m, &x[..n], y).unwrap(),
            Op::Spmm { k } => service.tune_and_spmm(m, &x[..n * k], y, k).unwrap(),
        };
        let serial = |m: &DynamicMatrix<f64>| {
            let mut want = vec![0.0f64; n * k];
            match op {
                Op::Spmv => spmv_serial(m, &x[..n], &mut want).unwrap(),
                Op::Spmm { k } => spmm_serial(m, &x[..n * k], &mut want, k).unwrap(),
            }
            want
        };
        let want = serial(&source);
        for hit in [false, true] {
            let (mut m, mut y) = (tridiag(n), vec![f64::NAN; n * k]);
            passes::reset();
            let report = run(&mut m, &mut y);
            let walked = if hit { 1 } else { 2 };
            assert_eq!(passes::count(), walked, "{op:?}: key hash{}", if hit { "" } else { ", analysis" });
            assert_eq!(report.cache_hit, hit, "{op:?}");
            assert_eq!((report.predicted, report.chosen), (FormatId::Bell, FormatId::Csr), "{op:?}");
            assert_eq!((report.plan, report.serial_fallback), (PlanStatus::Unplanned, false), "{op:?}");
            assert_eq!(m.format_id(), FormatId::Csr, "{op:?}: no BELL arrays were built");
            assert_eq!(bits(&y), bits(&want), "{op:?}: the source's serial result");
        }
        assert_eq!(service.plan_cache_stats().len, 0, "{op:?}: no plan in the decision's slot");

        // A registration of the structure hits the decision, converts,
        // plans once and walks nothing: the plan-less entry costs the hash.
        passes::reset();
        let handle = service.register_for(tridiag(n), op).unwrap();
        assert_eq!(passes::count(), 1, "{op:?}: a plan-less hit is the key hash");
        assert!(handle.report().cache_hit, "{op:?}");
        assert_eq!((handle.format_id(), handle.report().plan), (FormatId::Bell, PlanStatus::Built));
        passes::reset();
        assert_eq!(service.register_for(tridiag(n), op).unwrap().report().plan, PlanStatus::Reused);
        assert_eq!(passes::count(), 1, "{op:?}");

        // `tune` converts, and the switched matrix runs in BELL per call.
        let mut switched = tridiag(n);
        assert_eq!(service.tune_for(&mut switched, op).unwrap().chosen, FormatId::Bell, "{op:?}");
        let mut y = vec![f64::NAN; n * k];
        for plan in [PlanStatus::Built, PlanStatus::Reused] {
            let report = run(&mut switched, &mut y);
            assert!(!report.converted, "{op:?}");
            assert_eq!((report.predicted, report.chosen), (FormatId::Bell, FormatId::Bell), "{op:?}");
            assert_eq!(report.plan, plan, "{op:?}: planned under the BELL structure's own decision");
            assert_eq!(bits(&y), bits(&serial(&switched)), "{op:?}");
        }
    }
}

/// Rows of one entry or two and one hub row half as long as the matrix is
/// wide: CSR's row partition cannot split the hub, so BELL's cell-balanced
/// shares run it several times faster on a threaded engine.
fn hub(n: usize) -> DynamicMatrix<f64> {
    let (mut rows, mut cols) = (Vec::new(), Vec::new());
    for i in 0..n {
        if i == n / 2 {
            rows.extend([i; 2000]);
            cols.extend((0..2000).map(|j| j * (n / 2000)));
        } else {
            rows.extend([i, i]);
            cols.extend([i, (i * 7 + 3) % n]);
        }
    }
    let vals: Vec<f64> = (0..rows.len()).map(|k| 1.0 + (k % 5) as f64 * 0.25).collect();
    DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
}

/// A per-call tune converts when one execution repays it (`c + r < 1`): on
/// the hub matrix BELL does, for SpMV and SpMM, and the call is the
/// planned BELL execution, as before the horizon.
#[test]
fn a_per_call_tune_converts_when_one_execution_repays_it() {
    let n = 4000usize;
    let x: Vec<f64> = (0..2 * n).map(|i| 0.5 + (i % 3) as f64).collect();
    for op in [Op::Spmv, Op::Spmm { k: 2 }] {
        let k = op.rhs_count();
        let service = always(FormatId::Bell, DEFAULT_CACHE_CAPACITY, None);
        let (mut m, mut y) = (hub(n), vec![f64::NAN; n * k]);
        let report = match op {
            Op::Spmv => service.tune_and_spmv(&mut m, &x[..n], &mut y).unwrap(),
            Op::Spmm { k } => service.tune_and_spmm(&mut m, &x[..n * k], &mut y, k).unwrap(),
        };
        assert_eq!((report.predicted, report.chosen), (FormatId::Bell, FormatId::Bell), "{op:?}");
        assert_eq!((m.format_id(), report.plan), (FormatId::Bell, PlanStatus::Built), "{op:?}");
        let mut want = vec![0.0f64; n * k];
        match op {
            Op::Spmv => spmv_serial(&m, &x[..n], &mut want).unwrap(),
            Op::Spmm { k } => spmm_serial(&m, &x[..n * k], &mut want, k).unwrap(),
        }
        assert!(y.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()), "{op:?}");
    }
}

/// A handle is keyed by the hash its matrix was decided under — the
/// source's CSR form (the front door moves a COO source into CSR), which its
/// features are noted under — whatever it was converted to: two sources of
/// one key share it even where they realize to different DIA/HDC
/// structures, nothing hashes the converted arrays to find out, and the
/// samples of both join the noted features without an alias.
#[test]
fn a_handle_is_keyed_by_the_hash_it_was_decided_under() {
    let (full, holed) = (tridiag(300), tridiag_with_a_hole(300));
    let csr_hash =
        |m: &DynamicMatrix<f64>| m.to_format(FormatId::Csr, &Default::default()).unwrap().structure_hash();
    let decided_under = csr_hash(&full);
    assert_eq!(decided_under, csr_hash(&holed));
    let x: Vec<f64> = (0..300).map(|i| 1.0 + (i % 5) as f64).collect();
    for format in [FormatId::Bell, FormatId::Dia, FormatId::Hdc] {
        let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
        let service = always(format, DEFAULT_CACHE_CAPACITY, Some(&collector));
        passes::reset();
        let miss = service.register(full.clone()).unwrap();
        assert_eq!(
            passes::count(),
            2,
            "{format}: key hash and analysis; the converted arrays are not hashed"
        );
        passes::reset();
        let hit = service.register(holed.clone()).unwrap();
        assert!(passes::count() <= 2, "{format}: the key hash, at most a planning scan of the conversion");
        assert!(!miss.report().cache_hit && hit.report().cache_hit, "{format}");
        assert_eq!(hit.format_id(), format);
        if format != FormatId::Bell {
            let (a, b) = (miss.matrix().structure_hash(), hit.matrix().structure_hash());
            assert!(a != b && a != decided_under, "{format}: the hole is hashed in the converted arrays");
        }
        // One plan serves both (a row partition of the shape), and each
        // executes to its own values.
        assert_eq!(hit.report().plan, PlanStatus::Reused, "{format}");
        for (handle, source) in [(&miss, &full), (&hit, &holed)] {
            let (mut y, mut want) = (vec![f64::NAN; 300], vec![0.0f64; 300]);
            service.spmv(handle, &x, &mut y).unwrap();
            spmv_serial(source, &x, &mut want).unwrap();
            assert_eq!(y, want, "{format}");
        }
        let samples = collector.telemetry().snapshot();
        assert_eq!(samples.iter().map(|s| s.count).sum::<u64>(), 2, "{format}");
        assert!(samples.iter().all(|s| s.key.structure == decided_under), "{format}: {samples:?}");
        assert_eq!(collector.stats().aliases, 0, "{format}");
        assert_eq!(collector.build_dataset(Op::Spmv).unwrap().skipped_unprofiled, 0, "{format}");
    }
}

/// `tune` leaves the switched matrix with its caller, so its miss hashes what
/// it converted and aliases the decision under *that* hash — for DIA and HDC,
/// whose hash covers which stored values are zero, the hash of the very
/// arrays written. A second source of the same key (equal indices, an
/// explicit `0.0`) hits by its key and hashes nothing more; switched, it is a
/// structure of its own, decided on its own.
#[test]
fn a_tune_miss_aliases_what_it_converted_and_a_hit_hashes_nothing_more() {
    for format in [FormatId::Dia, FormatId::Hdc] {
        let service = always(format, DEFAULT_CACHE_CAPACITY, None);
        let (mut full, mut holed) = (tridiag(300), tridiag_with_a_hole(300));
        passes::reset();
        assert!(!service.tune(&mut full).unwrap().cache_hit, "{format}");
        assert_eq!(passes::count(), 3, "{format}: key hash, analysis, hash of the converted matrix");
        passes::reset();
        let hit = service.tune(&mut holed).unwrap();
        assert!(hit.cache_hit && hit.converted && holed.format_id() == format, "{format}");
        assert!(passes::count() <= 2, "{format}: the key hash, at most a planning scan of the conversion");
        assert_ne!(full.structure_hash(), holed.structure_hash(), "{format}: the hole is hashed");

        let before = service.cache_stats();
        assert!(service.tune(&mut full).unwrap().cache_hit, "{format}: aliased under what was converted");
        let again = service.tune(&mut holed).unwrap();
        assert!(!again.cache_hit && !again.converted, "{format}: the holed arrays were never aliased");
        let after = service.cache_stats();
        assert_eq!((after.hits - before.hits, after.misses - before.misses), (1, 1), "{format}");
    }
}
