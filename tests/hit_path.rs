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
use morpheus_repro::morpheus::analysis::WalkBounds;
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

        // `tune` converts on a hit and aliases the switched structure, so
        // the switched matrix runs in BELL per call as a hit, on the plan
        // the registration left in the entry, walking nothing.
        let mut switched = tridiag(n);
        assert_eq!(service.tune_for(&mut switched, op).unwrap().chosen, FormatId::Bell, "{op:?}");
        let mut y = vec![f64::NAN; n * k];
        for _ in 0..2 {
            passes::reset();
            let report = run(&mut switched, &mut y);
            assert_eq!(passes::count(), 1, "{op:?}: the key hash");
            assert!(report.cache_hit && !report.converted, "{op:?}");
            assert_eq!((report.predicted, report.chosen), (FormatId::Bell, FormatId::Bell), "{op:?}");
            assert_eq!(report.plan, PlanStatus::Reused, "{op:?}: the registration's plan, through the alias");
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

/// Answers its format from the row side alone, as a model tuner whose box
/// of walk bounds settles on it does: the walk-free path decides.
struct Unwalked(FormatId);

impl FormatTuner<f64> for Unwalked {
    fn name(&self) -> &'static str {
        "unwalked"
    }

    fn select(&self, _: &DynamicMatrix<f64>, _: &MatrixAnalysis, _: &VirtualEngine, op: Op) -> TuneDecision {
        TuneDecision { format: self.0, params: FormatParams::default(), op, cost: TuningCost::default() }
    }

    fn prices_formats(&self) -> bool {
        false
    }

    fn select_unwalked(
        &self,
        m: &DynamicMatrix<f64>,
        a: &MatrixAnalysis,
        _: &WalkBounds,
        engine: &VirtualEngine,
        op: Op,
    ) -> Option<TuneDecision> {
        Some(self.select(m, a, engine, op))
    }
}

/// A registration converts whatever the horizon, so when the walk-free
/// floor leaves the conversion open it stores the floor, marked open, and
/// reads the matrix once, for its key. The first per-call tune of the
/// structure meets the open horizon: it walks its own matrix, prices the
/// horizon exactly — on the hub matrix one execution repays BELL, so it
/// converts, and hashes the switched matrix for the entry's alias — and
/// stores it; the next per-call tune walks nothing.
#[test]
fn a_registration_leaves_an_open_horizon_for_the_first_per_call_tune_to_price() {
    let n = 4000usize;
    let service = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(Unwalked(FormatId::Bell))
        .workers(1)
        .build_service()
        .unwrap();
    passes::reset();
    let handle = service.register(hub(n)).unwrap();
    assert_eq!(passes::count(), 1, "the key hash: no walk for a horizon registration never reads");
    assert!(!handle.report().cache_hit && handle.format_id() == FormatId::Bell);
    let x: Vec<f64> = (0..n).map(|i| 0.5 + (i % 3) as f64).collect();
    for reads in [3, 1] {
        let (mut m, mut y) = (hub(n), vec![f64::NAN; n]);
        passes::reset();
        let report = service.tune_and_spmv(&mut m, &x, &mut y).unwrap();
        let what = if reads == 3 { "the key hash, the walk, the alias hash" } else { "the key hash" };
        assert_eq!(passes::count(), reads, "{what}");
        assert!(report.cache_hit);
        let planned = (report.predicted, report.chosen, report.plan);
        assert_eq!(planned, (FormatId::Bell, FormatId::Bell, PlanStatus::Reused), "the registration's plan");
        let mut want = vec![0.0f64; n];
        spmv_serial(&m, &x, &mut want).unwrap();
        assert!(y.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}

/// `tune` of a copy of a registered structure is a hit that switches the
/// copy, and aliases the switched structure — hashing it once for the
/// entry — so tuning the switched matrix again is a hit that walks and
/// converts nothing; a second copy switched on the same entry hashes only
/// its key.
#[test]
fn a_tune_hit_aliases_the_switched_structure_once_per_entry() {
    let service = always(FormatId::Bell, DEFAULT_CACHE_CAPACITY, None);
    service.register(tridiag(700)).unwrap();
    let mut copy = tridiag(700);
    passes::reset();
    let switched = service.tune(&mut copy).unwrap();
    assert!(switched.cache_hit && copy.format_id() == FormatId::Bell);
    assert_eq!(passes::count(), 2, "the key hash, the hash of the switched structure");
    passes::reset();
    let again = service.tune(&mut copy).unwrap();
    assert!(again.cache_hit && !again.converted, "the switched matrix hits its alias");
    assert_eq!(passes::count(), 1, "the key hash: no walk");
    let mut second = tridiag(700);
    passes::reset();
    assert!(service.tune(&mut second).unwrap().cache_hit);
    assert_eq!(passes::count(), 1, "the entry's alias is stored: the key hash only");
}

/// On a two-worker service a per-call tune that keeps its source runs it on
/// the service's pool — the width its horizon was priced for — through a
/// plan built for the call, bitwise the serial kernel of the source.
#[test]
fn a_kept_source_runs_on_the_service_pool() {
    let n = 8000usize;
    let service = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(Always(FormatId::Bell))
        .workers(2)
        .build_service()
        .unwrap();
    let handed_off = || service.obs_snapshot().metrics.hist("pool.queue_wait_ns").count;
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
    let source = tridiag(n).to_format(FormatId::Csr, &Default::default()).unwrap();
    assert!(source.nnz() >= 1 << 14);
    let mut want = vec![0.0f64; n];
    spmv_serial(&source, &x, &mut want).unwrap();
    for hit in [false, true] {
        let (mut m, mut y) = (tridiag(n), vec![f64::NAN; n]);
        // The miss's analysis walk runs on the pool too: count the hit's.
        let before = handed_off();
        let report = service.tune_and_spmv(&mut m, &x, &mut y).unwrap();
        assert_eq!(report.cache_hit, hit);
        assert_eq!((report.predicted, report.chosen), (FormatId::Bell, FormatId::Csr), "the source is kept");
        assert_eq!((report.plan, report.serial_fallback), (PlanStatus::Unplanned, false));
        assert!(y.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()), "hit {hit}");
        if hit {
            assert!(handed_off() > before, "the kept source ran on the calling thread");
        }
    }
    assert_eq!(service.plan_cache_stats().len, 0, "no plan in the decision's slot");
}

/// Answers `format` without pricing formats, as a model tuner does: on the
/// row side alone when `settles` (the walk-free path decides), after the
/// entry walk otherwise.
struct Fixed {
    format: FormatId,
    settles: bool,
}

impl FormatTuner<f64> for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn select(&self, _: &DynamicMatrix<f64>, _: &MatrixAnalysis, _: &VirtualEngine, op: Op) -> TuneDecision {
        TuneDecision { format: self.format, params: FormatParams::default(), op, cost: TuningCost::default() }
    }

    fn prices_formats(&self) -> bool {
        false
    }

    fn select_unwalked(
        &self,
        m: &DynamicMatrix<f64>,
        a: &MatrixAnalysis,
        _: &WalkBounds,
        engine: &VirtualEngine,
        op: Op,
    ) -> Option<TuneDecision> {
        self.settles.then(|| self.select(m, a, engine, op))
    }
}

/// Who asks for the decision in a cell of the transition table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Asker {
    Register,
    Tune,
    PerCall,
}

/// Where the asker's key finds its entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Found {
    Miss,
    Decision,
    Alias,
    Imported,
}

/// The horizon of the entry found, or of the tuner's answer on a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Horizon {
    /// The decision is the source's own format.
    Stays,
    /// Priced exactly, and one execution repays the conversion.
    Converting,
    /// Priced (exactly or by a floor that rules it out), and one execution
    /// does not repay the conversion.
    Keeping,
    /// A walk-free floor that left the conversion open.
    Open,
    /// None: an imported decision, or one whose conversion fell back.
    Absent,
}

/// A call that puts the entry a cell finds in place before the asker runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Register,
    Tune,
    PerCall,
    /// A decisions file naming the tuner's format for the source's key.
    Import,
}

/// The tuner's format, the source (`true`: `hub(4000)`, `false`:
/// `tridiag(700)`) and the steps that prepare a cell, or `None` where no
/// call sequence reaches it:
/// - a miss has no absent horizon: the tuner's answer is priced on the view
///   it was given (a walk-free one by the engine's floor);
/// - an open horizon comes only from the row side, so never when it does
///   not settle; a per-call miss prices its own open floor (that is the
///   converting cell), and a register or `tune` miss leaves it open (so
///   with the row side settling a converting miss is the per-call tune's);
/// - a file carries no horizon: an imported entry's is absent;
/// - an alias is stored only for a matrix that was switched, so never for
///   a decision that stays.
///
/// BELL's walk-free floor on the tridiagonal leaves the conversion open;
/// COO's rules it out, so a keeping horizon that settles is COO's. An
/// alias of a COO matrix is never found (the front door moves COO into
/// CSR), so that cell's alias is BELL's, priced by a per-call tune first.
/// ELL on the hub is past every guard: its fallback to CSR is what leaves a
/// decision hit without a horizon.
fn recipe(
    asker: Asker,
    found: Found,
    horizon: Horizon,
    settles: bool,
) -> Option<(FormatId, bool, &'static [Step])> {
    use FormatId::{Bell, Coo, Csr, Ell};
    use Horizon::*;
    use Step::{Import, PerCall, Register, Tune};
    Some(match (found, horizon, settles) {
        (Found::Miss, Absent, _) | (Found::Alias, Stays, _) | (_, Open, false) => return None,
        (Found::Imported, Stays | Converting | Keeping | Open, _) => return None,
        (Found::Miss, Open, true) if asker == Asker::PerCall => return None,
        (Found::Miss, Converting, true) if asker != Asker::PerCall => return None,
        (Found::Miss, Stays, _) => (Csr, false, &[]),
        (Found::Miss, Converting | Open, _) => (Bell, true, &[]),
        (Found::Miss, Keeping, false) => (Bell, false, &[]),
        (Found::Miss, Keeping, true) => (Coo, false, &[]),
        (Found::Decision, Stays, _) => (Csr, false, &[Register]),
        (Found::Decision, Converting, false) | (Found::Decision, Open, true) => (Bell, true, &[Register]),
        (Found::Decision, Converting, true) => (Bell, true, &[PerCall]),
        (Found::Decision, Keeping, false) => (Bell, false, &[Register]),
        (Found::Decision, Keeping, true) => (Coo, false, &[Register]),
        (Found::Decision, Absent, _) => (Ell, true, &[Register]),
        (Found::Alias, Converting, false) | (Found::Alias, Open, true) => (Bell, true, &[Tune]),
        (Found::Alias, Converting, true) => (Bell, true, &[PerCall]),
        (Found::Alias, Keeping, false) => (Bell, false, &[Tune]),
        (Found::Alias, Keeping, true) => (Bell, false, &[PerCall, Tune]),
        (Found::Alias, Absent, _) => (Bell, false, &[Import, Tune]),
        (Found::Imported, Absent, _) => (Ell, true, &[Import]),
    })
}

/// One cell run on a `workers`-wide service, as a line of the table:
/// traversals, `predicted>chosen`, hit or miss, plan | decisions held,
/// plans held | the exported decisions (`src` the source's key, `sw` the
/// switched matrix's) | whether `tune` of the matrix the call left is a hit.
fn run_cell(workers: usize, asker: Asker, found: Found, horizon: Horizon, settles: bool) -> Option<String> {
    let (format, on_hub, steps) = recipe(asker, found, horizon, settles)?;
    let service = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(Fixed { format, settles })
        .workers(workers)
        .build_service()
        .unwrap();
    let source = if on_hub { hub(4000) } else { tridiag(700) };
    let n = source.nrows();
    let key = source.to_format(FormatId::Csr, &Default::default()).unwrap().structure_hash();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
    let mut y = vec![f64::NAN; n];
    let import = || {
        let engine = {
            let mut file = Vec::new();
            service.export_decisions(&mut file).unwrap();
            String::from_utf8(file).unwrap().lines().nth(1).unwrap().to_string()
        };
        let file = format!(
            "morpheus-oracle-decisions v3\n{engine}\nentries 1\ndecision {key:016x} 8 spmv {} -\nend\n",
            format.name()
        );
        assert_eq!(service.import_decisions(std::io::Cursor::new(file.as_bytes())).unwrap(), 1);
    };
    let mut presented = source.clone();
    for step in steps {
        match step {
            Step::Register => drop(service.register(source.clone()).unwrap()),
            Step::Tune => drop(service.tune(&mut presented).unwrap()),
            Step::PerCall => drop(service.tune_and_spmv(&mut presented, &x, &mut y).unwrap()),
            Step::Import => import(),
        }
    }
    if found != Found::Alias {
        presented = source.clone();
    }
    passes::reset();
    let (report, after) = match asker {
        Asker::Register => {
            let handle = service.register(presented).unwrap();
            (*handle.report(), handle.matrix().clone())
        }
        Asker::Tune => (service.tune(&mut presented).unwrap(), presented),
        Asker::PerCall => (service.tune_and_spmv(&mut presented, &x, &mut y).unwrap(), presented),
    };
    let traversals = passes::count();
    if asker == Asker::PerCall {
        let mut want = vec![0.0f64; n];
        spmv_serial(&after, &x, &mut want).unwrap();
        let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&want), "{asker:?} {found:?} {horizon:?}: the matrix that ran");
    }
    let switched = after.structure_hash();
    let mut file = Vec::new();
    service.export_decisions(&mut file).unwrap();
    let exported: Vec<String> = String::from_utf8(file)
        .unwrap()
        .lines()
        .filter_map(|l| l.strip_prefix("decision "))
        .map(|l| {
            let t: Vec<&str> = l.split(' ').collect();
            let k = u64::from_str_radix(t[0], 16).unwrap();
            let which = if k == key {
                "src"
            } else if k == switched {
                "sw"
            } else {
                "other"
            };
            format!("{which}:{}", t[3])
        })
        .collect();
    let (decisions, plans) = (service.cache_stats().len, service.plan_cache_stats().len);
    let retune = if service.tune(&mut after.clone()).unwrap().cache_hit { "hit" } else { "miss" };
    Some(format!(
        "{traversals} {}>{} {} {:?} | {decisions} {plans} | {} | {retune}",
        report.predicted,
        report.chosen,
        if report.cache_hit { "hit" } else { "miss" },
        report.plan,
        exported.join(" "),
    ))
}

/// Every reachable cell of the decision-cache entry's transitions — asker ×
/// entry found × horizon × whether the row side settles — on one and two
/// workers: what the call traverses and reports, what the caches hold and
/// export after it, and whether the matrix it left tunes as a hit. The
/// unreachable cells are named in [`recipe`]. The two worker counts read
/// alike: every matrix here is below the size a cold walk splits at.
///
/// An imported entry whose conversion falls back is replaced by the CSR it
/// realized, in the table it came from, so it exports CSR and a later hit
/// predicts CSR instead of paying the failing conversion again.
#[test]
fn every_reachable_entry_transition() {
    use Horizon::*;
    // Cell: asker, entry found, horizon, whether the row side settles.
    // Outcome: traversals, predicted>chosen, hit, plan | decisions held,
    // plans held | exported decisions | `tune` of the matrix left.
    #[rustfmt::skip]
    const TABLE: &[(&str, &str)] = &[
        ("Register Miss Stays settles",          "1 CSR>CSR miss Built | 1 1 | src:CSR | hit"),
        ("Register Miss Stays walks",            "2 CSR>CSR miss Built | 1 1 | src:CSR | hit"),
        ("Register Miss Converting walks",       "2 BELL>BELL miss Built | 1 1 | src:BELL | miss"),
        ("Register Miss Keeping settles",        "1 COO>COO miss Built | 1 1 | src:COO | hit"),
        ("Register Miss Keeping walks",          "2 BELL>BELL miss Built | 1 1 | src:BELL | miss"),
        ("Register Miss Open settles",           "1 BELL>BELL miss Built | 1 1 | src:BELL | miss"),
        ("Register Decision Stays settles",      "1 CSR>CSR hit Reused | 1 1 | src:CSR | hit"),
        ("Register Decision Stays walks",        "1 CSR>CSR hit Reused | 1 1 | src:CSR | hit"),
        ("Register Decision Converting settles", "1 BELL>BELL hit Reused | 1 1 | src:BELL | hit"),
        ("Register Decision Converting walks",   "1 BELL>BELL hit Reused | 1 1 | src:BELL | miss"),
        ("Register Decision Keeping settles",    "1 COO>COO hit Reused | 1 1 | src:COO | hit"),
        ("Register Decision Keeping walks",      "1 BELL>BELL hit Reused | 1 1 | src:BELL | miss"),
        ("Register Decision Open settles",       "1 BELL>BELL hit Reused | 1 1 | src:BELL | miss"),
        ("Register Decision Absent settles",     "1 CSR>CSR hit Reused | 1 1 | src:CSR | hit"),
        ("Register Decision Absent walks",       "1 CSR>CSR hit Reused | 1 1 | src:CSR | hit"),
        ("Register Alias Converting settles",    "1 BELL>BELL hit Reused | 2 2 | sw:BELL src:BELL | hit"),
        ("Register Alias Converting walks",      "1 BELL>BELL hit Built | 2 2 | sw:BELL src:BELL | hit"),
        ("Register Alias Keeping settles",       "1 BELL>BELL hit Built | 2 2 | sw:BELL src:BELL | hit"),
        ("Register Alias Keeping walks",         "1 BELL>BELL hit Built | 2 2 | sw:BELL src:BELL | hit"),
        ("Register Alias Open settles",          "1 BELL>BELL hit Built | 2 2 | sw:BELL src:BELL | hit"),
        ("Register Alias Absent settles",        "1 BELL>BELL hit Built | 2 2 | sw:BELL src:BELL | hit"),
        ("Register Alias Absent walks",          "1 BELL>BELL hit Built | 2 2 | sw:BELL src:BELL | hit"),
        ("Register Imported Absent settles",     "1 ELL>CSR hit Built | 1 1 | src:CSR | hit"),
        ("Register Imported Absent walks",       "1 ELL>CSR hit Built | 1 1 | src:CSR | hit"),
        ("Tune Miss Stays settles",              "1 CSR>CSR miss Unplanned | 1 0 | src:CSR | hit"),
        ("Tune Miss Stays walks",                "2 CSR>CSR miss Unplanned | 1 0 | src:CSR | hit"),
        ("Tune Miss Converting walks",           "3 BELL>BELL miss Unplanned | 1 0 | src:BELL | hit"),
        ("Tune Miss Keeping settles",            "1 COO>COO miss Unplanned | 1 0 | src:COO | hit"),
        ("Tune Miss Keeping walks",              "3 BELL>BELL miss Unplanned | 1 0 | src:BELL | hit"),
        ("Tune Miss Open settles",               "2 BELL>BELL miss Unplanned | 1 0 | src:BELL | hit"),
        ("Tune Decision Stays settles",          "1 CSR>CSR hit Unplanned | 1 1 | src:CSR | hit"),
        ("Tune Decision Stays walks",            "1 CSR>CSR hit Unplanned | 1 1 | src:CSR | hit"),
        ("Tune Decision Converting settles",     "1 BELL>BELL hit Unplanned | 1 1 | src:BELL | hit"),
        ("Tune Decision Converting walks",       "2 BELL>BELL hit Unplanned | 1 1 | src:BELL | hit"),
        ("Tune Decision Keeping settles",        "1 COO>COO hit Unplanned | 1 1 | src:COO | hit"),
        ("Tune Decision Keeping walks",          "2 BELL>BELL hit Unplanned | 1 1 | src:BELL | hit"),
        ("Tune Decision Open settles",           "2 BELL>BELL hit Unplanned | 1 1 | src:BELL | hit"),
        ("Tune Decision Absent settles",         "1 CSR>CSR hit Unplanned | 1 1 | src:CSR | hit"),
        ("Tune Decision Absent walks",           "1 CSR>CSR hit Unplanned | 1 1 | src:CSR | hit"),
        ("Tune Alias Converting settles",        "1 BELL>BELL hit Unplanned | 1 1 | src:BELL | hit"),
        ("Tune Alias Converting walks",          "1 BELL>BELL hit Unplanned | 1 0 | src:BELL | hit"),
        ("Tune Alias Keeping settles",           "1 BELL>BELL hit Unplanned | 1 0 | src:BELL | hit"),
        ("Tune Alias Keeping walks",             "1 BELL>BELL hit Unplanned | 1 0 | src:BELL | hit"),
        ("Tune Alias Open settles",              "1 BELL>BELL hit Unplanned | 1 0 | src:BELL | hit"),
        ("Tune Alias Absent settles",            "1 BELL>BELL hit Unplanned | 1 0 | src:BELL | hit"),
        ("Tune Alias Absent walks",              "1 BELL>BELL hit Unplanned | 1 0 | src:BELL | hit"),
        ("Tune Imported Absent settles",         "1 ELL>CSR hit Unplanned | 1 0 | src:CSR | hit"),
        ("Tune Imported Absent walks",           "1 ELL>CSR hit Unplanned | 1 0 | src:CSR | hit"),
        ("PerCall Miss Stays settles",           "1 CSR>CSR miss Built | 1 1 | src:CSR | hit"),
        ("PerCall Miss Stays walks",             "2 CSR>CSR miss Built | 1 1 | src:CSR | hit"),
        ("PerCall Miss Converting settles",      "3 BELL>BELL miss Built | 1 1 | src:BELL | hit"),
        ("PerCall Miss Converting walks",        "3 BELL>BELL miss Built | 1 1 | src:BELL | hit"),
        ("PerCall Miss Keeping settles",         "1 COO>CSR miss Unplanned | 1 0 | src:COO | hit"),
        ("PerCall Miss Keeping walks",           "2 BELL>CSR miss Unplanned | 1 0 | src:BELL | hit"),
        ("PerCall Decision Stays settles",       "1 CSR>CSR hit Reused | 1 1 | src:CSR | hit"),
        ("PerCall Decision Stays walks",         "1 CSR>CSR hit Reused | 1 1 | src:CSR | hit"),
        ("PerCall Decision Converting settles",  "1 BELL>BELL hit Reused | 1 1 | src:BELL | hit"),
        ("PerCall Decision Converting walks",    "2 BELL>BELL hit Reused | 1 1 | src:BELL | hit"),
        ("PerCall Decision Keeping settles",     "1 COO>CSR hit Unplanned | 1 1 | src:COO | hit"),
        ("PerCall Decision Keeping walks",       "1 BELL>CSR hit Unplanned | 1 1 | src:BELL | hit"),
        ("PerCall Decision Open settles",        "3 BELL>BELL hit Reused | 1 1 | src:BELL | hit"),
        ("PerCall Decision Absent settles",      "1 CSR>CSR hit Reused | 1 1 | src:CSR | hit"),
        ("PerCall Decision Absent walks",        "1 CSR>CSR hit Reused | 1 1 | src:CSR | hit"),
        ("PerCall Alias Converting settles",     "1 BELL>BELL hit Reused | 1 1 | src:BELL | hit"),
        ("PerCall Alias Converting walks",       "1 BELL>BELL hit Built | 1 1 | src:BELL | hit"),
        ("PerCall Alias Keeping settles",        "1 BELL>BELL hit Built | 1 1 | src:BELL | hit"),
        ("PerCall Alias Keeping walks",          "1 BELL>BELL hit Built | 1 1 | src:BELL | hit"),
        ("PerCall Alias Open settles",           "1 BELL>BELL hit Built | 1 1 | src:BELL | hit"),
        ("PerCall Alias Absent settles",         "1 BELL>BELL hit Built | 1 1 | src:BELL | hit"),
        ("PerCall Alias Absent walks",           "1 BELL>BELL hit Built | 1 1 | src:BELL | hit"),
        ("PerCall Imported Absent settles",      "1 ELL>CSR hit Built | 1 1 | src:CSR | hit"),
        ("PerCall Imported Absent walks",        "1 ELL>CSR hit Built | 1 1 | src:CSR | hit"),
    ];
    let mut wrong = Vec::new();
    let mut seen = 0;
    for workers in [1, 2] {
        for asker in [Asker::Register, Asker::Tune, Asker::PerCall] {
            for found in [Found::Miss, Found::Decision, Found::Alias, Found::Imported] {
                for horizon in [Stays, Converting, Keeping, Open, Absent] {
                    for settles in [true, false] {
                        let cell = format!(
                            "{asker:?} {found:?} {horizon:?} {}",
                            if settles { "settles" } else { "walks" }
                        );
                        let want = TABLE.iter().find(|(c, _)| *c == cell).map(|(_, o)| *o);
                        let got = run_cell(workers, asker, found, horizon, settles);
                        seen += usize::from(got.is_some() && workers == 1);
                        if got.as_deref() != want {
                            wrong.push(format!(
                                "{workers} workers: (\"{cell}\", \"{}\"),",
                                got.unwrap_or_default()
                            ));
                        }
                    }
                }
            }
        }
    }
    assert!(wrong.is_empty(), "{} cells differ:\n{}", wrong.len(), wrong.join("\n"));
    assert_eq!(seen, TABLE.len(), "one row per reachable cell");
}

/// Importing a decisions file over a live service inserts only the keys
/// the cache does not hold: a live entry keeps its plan and its horizon, so
/// a per-call tune after the import still keeps its source instead of
/// converting as if the decision had no horizon.
#[test]
fn an_import_keeps_the_live_entries_it_finds() {
    let service = always(FormatId::Bell, DEFAULT_CACHE_CAPACITY, None);
    let (x, mut y) = (vec![1.0f64; 700], vec![0.0f64; 700]);
    service.register(tridiag(700)).unwrap();
    let per_call = |y: &mut [f64]| {
        let report = service.tune_and_spmv(&mut tridiag(700), &x, y).unwrap();
        (report.chosen, report.plan)
    };
    assert_eq!(per_call(&mut y), (FormatId::Csr, PlanStatus::Unplanned));
    assert_eq!(service.plan_cache_stats().len, 1);
    let mut file = Vec::new();
    service.export_decisions(&mut file).unwrap();
    assert_eq!(service.import_decisions(std::io::Cursor::new(&file)).unwrap(), 0, "the key is held");
    assert_eq!(service.plan_cache_stats().len, 1, "the entry keeps its plan");
    assert_eq!(per_call(&mut y), (FormatId::Csr, PlanStatus::Unplanned), "and its horizon");
}
