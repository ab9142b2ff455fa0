//! A service built with its own pool keeps its cold path on it.
//!
//! One test, in a test binary of its own: the process-wide pool is global
//! state, and a dispatch by any other test in the same process would be
//! indistinguishable from the one this test rules out.

use morpheus_repro::machine::{systems, Backend, MatrixAnalysis, Op, VirtualEngine};
use morpheus_repro::morpheus::format::FormatId;
use morpheus_repro::morpheus::{CooMatrix, DynamicMatrix, FormatParams};
use morpheus_repro::oracle::{FormatTuner, Oracle, TuneDecision, TuningCost};
use morpheus_repro::parallel::global_pool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Always BELL: the array-built conversion runs on the calling thread, so
/// every dispatch the registration could make is the analysis's.
struct AlwaysBell;

impl FormatTuner<f64> for AlwaysBell {
    fn name(&self) -> &'static str {
        "always-bell"
    }

    fn select(&self, _: &DynamicMatrix<f64>, _: &MatrixAnalysis, _: &VirtualEngine, op: Op) -> TuneDecision {
        TuneDecision {
            format: FormatId::Bell,
            params: FormatParams::default(),
            op,
            cost: TuningCost::default(),
        }
    }
}

#[test]
fn a_one_worker_service_registers_without_waking_the_global_pool() {
    let global = global_pool();
    let dispatched = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&dispatched);
    global.set_queue_wait_observer(Some(Arc::new(move |_| {
        seen.fetch_add(1, Ordering::SeqCst);
    })));

    // 50 k entries: past the size at which the analysis used to fork onto
    // the process-wide pool.
    let (n, per_row) = (5_000usize, 10usize);
    let rows: Vec<usize> = (0..n).flat_map(|r| vec![r; per_row]).collect();
    let cols: Vec<usize> = (0..n).flat_map(|r| (0..per_row).map(move |k| (r * 7 + k * 131) % n)).collect();
    let vals = vec![1.0f64; rows.len()];
    let m = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
    assert_eq!(m.nnz(), 50_000);

    let service = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(AlwaysBell)
        .workers(1)
        .build_service()
        .unwrap();
    let first = service.register(m.clone()).unwrap();
    assert!(!first.report().cache_hit);
    assert_eq!(first.format_id(), FormatId::Bell);
    // The hit path builds no analysis at all; the per-call path plans too.
    let again = service.register(m.clone()).unwrap();
    assert!(again.report().cache_hit);
    let (x, mut y) = (vec![1.0f64; n], vec![0.0f64; n]);
    service.tune_and_spmv(&mut m.clone(), &x, &mut y).unwrap();
    assert_eq!(dispatched.load(Ordering::SeqCst), 0, "the service's cold path ran on the process-wide pool");

    // The observer does see a dispatch when there is one (a pool of one
    // thread hands nothing off, and then the check above was vacuous).
    global.run_on_all(&|_| {});
    assert_eq!(dispatched.load(Ordering::SeqCst), global.num_threads() - 1);
    global.set_queue_wait_observer(None);
}
