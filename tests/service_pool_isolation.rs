//! A service built with its own pool keeps its cold path on it — as far as
//! the analysis and the array-built conversions (CSR, BSR, and the ELL
//! family: BELL, ELL, HYB) go. The DIA/HDC conversion *fills* still run on
//! the process-wide pool at `PARALLEL_CONVERT_THRESHOLD` entries and above
//! (`convert::kernels`'s `pool_for`); the ignored test below states that
//! remaining escape.
//!
//! A test binary of its own: the process-wide pool is global state, and a
//! dispatch by any other test in the same process would be indistinguishable
//! from the ones these tests rule out (they take turns under `GLOBAL_POOL`).

use morpheus_repro::machine::{systems, Backend, MatrixAnalysis, Op, VirtualEngine};
use morpheus_repro::morpheus::format::FormatId;
use morpheus_repro::morpheus::{CooMatrix, DynamicMatrix, FormatParams};
use morpheus_repro::oracle::{FormatTuner, Oracle, TuneDecision, TuningCost};
use morpheus_repro::parallel::global_pool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

static GLOBAL_POOL: Mutex<()> = Mutex::new(());

/// Always the one format.
struct Always(FormatId);

impl FormatTuner<f64> for Always {
    fn name(&self) -> &'static str {
        "always"
    }

    fn select(&self, _: &DynamicMatrix<f64>, _: &MatrixAnalysis, _: &VirtualEngine, op: Op) -> TuneDecision {
        TuneDecision { format: self.0, params: FormatParams::default(), op, cost: TuningCost::default() }
    }
}

/// 50 k entries, ten bands: past the size at which the analysis used to
/// fork onto the process-wide pool (and the conversion fills still do), and
/// viable in every format.
fn banded_50k() -> DynamicMatrix<f64> {
    let (n, bands) = (5_000usize, 10usize);
    let rows: Vec<usize> = (0..n).flat_map(|r| vec![r; bands]).collect();
    let cols: Vec<usize> = (0..n).flat_map(|r| (0..bands).map(move |k| (r + k * 131) % n)).collect();
    let vals = vec![1.0f64; rows.len()];
    let m = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
    assert_eq!(m.nnz(), 50_000);
    m
}

/// Registers, re-registers and per-call-tunes `banded_50k` on a
/// `workers(1)` service whose tuner always picks `format`, and returns how
/// many shares the process-wide pool handed to its workers meanwhile.
fn global_dispatches_while_serving(format: FormatId) -> usize {
    let _turn = GLOBAL_POOL.lock().unwrap_or_else(|e| e.into_inner());
    let global = global_pool();
    let dispatched = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&dispatched);
    global.set_queue_wait_observer(Some(Arc::new(move |_| {
        seen.fetch_add(1, Ordering::SeqCst);
    })));

    let m = banded_50k();
    let service = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(Always(format))
        .workers(1)
        .build_service()
        .unwrap();
    let first = service.register(m.clone()).unwrap();
    assert!(!first.report().cache_hit);
    assert_eq!(first.format_id(), format);
    // The hit path builds no analysis at all; the per-call path plans too.
    let again = service.register(m.clone()).unwrap();
    assert!(again.report().cache_hit);
    let n = m.nrows();
    let (x, mut y) = (vec![1.0f64; n], vec![0.0f64; n]);
    service.tune_and_spmv(&mut m.clone(), &x, &mut y).unwrap();
    let while_serving = dispatched.load(Ordering::SeqCst);

    // The observer does see a dispatch when there is one (a pool of one
    // thread hands nothing off, and then the count above was vacuous).
    global.run_on_all(&|_| {});
    assert_eq!(dispatched.load(Ordering::SeqCst) - while_serving, global.num_threads() - 1);
    global.set_queue_wait_observer(None);
    while_serving
}

/// BELL — and ELL and HYB, one-bucket BELL — are array-built on the calling
/// thread, so every dispatch the registration could make is the analysis's.
#[test]
fn a_one_worker_service_registers_without_waking_the_global_pool() {
    for format in [FormatId::Bell, FormatId::Ell, FormatId::Hyb] {
        let dispatches = global_dispatches_while_serving(format);
        assert_eq!(dispatches, 0, "{format}: the service's cold path ran on the process-wide pool");
    }
}

/// What full isolation would mean. Fails today on a host with more than one
/// core: the DIA fill runs on `global_pool()` whatever pool the service owns
/// (README "Cold path", not done).
#[test]
#[ignore = "DIA/HDC conversion fills still dispatch on the process-wide pool"]
fn a_one_worker_service_converts_to_dia_without_waking_the_global_pool() {
    let dispatches = global_dispatches_while_serving(FormatId::Dia);
    assert_eq!(dispatches, 0, "the DIA conversion fill ran on the process-wide pool");
}
