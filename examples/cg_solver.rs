//! Conjugate-gradient solver whose SpMV format is chosen by the Oracle —
//! the paper's motivating use-case ("solving a time-dependent PDE ... would
//! require many thousands of SpMV operations", §VII-E, so the tuning cost
//! amortises away).
//!
//! Solves the 2D Poisson system on an `nx x nx` grid twice — once pinned to
//! CSR, once with the auto-selected format — and reports iterations, the
//! residual and host wall time for the solve. All vector updates run on the
//! threaded backend via `morpheus::vecops`.
//!
//! ```text
//! cargo run --release --example cg_solver [nx]
//! ```

use morpheus_repro::machine::{systems, Backend, VirtualEngine};
use morpheus_repro::morpheus::vecops::{axpy_threaded, dot_threaded, norm2_threaded, xpby_threaded};
use morpheus_repro::morpheus::{ConvertOptions, DynamicMatrix, ExecPlan, FormatId};
use morpheus_repro::oracle::{Oracle, RunFirstTuner};
use morpheus_repro::parallel::global_pool;

/// Unpreconditioned CG on `A x = b`; returns (iterations, final residual).
fn cg(a: &DynamicMatrix<f64>, b: &[f64], x: &mut [f64], tol: f64, max_iters: usize) -> (usize, f64) {
    let n = b.len();
    let pool = global_pool();
    // Plan once, replay every iteration — the planned execution layer's
    // intended shape for solver loops: the thread schedule is a per-matrix
    // artifact, so it is not re-derived inside the hot loop.
    let plan = ExecPlan::build(a, pool.num_threads(), None);
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut ap = vec![0.0f64; n];
    let mut rsold = dot_threaded(&r, &r, pool);
    let rs0 = rsold.sqrt().max(1e-300);
    for it in 0..max_iters {
        plan.spmv(a, &p, &mut ap, pool).expect("plan was built for this matrix");
        let pap = dot_threaded(&p, &ap, pool);
        let alpha = rsold / pap;
        axpy_threaded(alpha, &p, x, pool);
        axpy_threaded(-alpha, &ap, &mut r, pool);
        let rsnew = dot_threaded(&r, &r, pool);
        if rsnew.sqrt() / rs0 < tol {
            return (it + 1, rsnew.sqrt());
        }
        xpby_threaded(&r, rsnew / rsold, &mut p, pool);
        rsold = rsnew;
    }
    (max_iters, norm2_threaded(&r, pool))
}

fn solve_and_time(a: &DynamicMatrix<f64>, b: &[f64]) -> (usize, f64, std::time::Duration) {
    let mut x = vec![0.0f64; b.len()];
    let t0 = std::time::Instant::now();
    let (iters, resid) = cg(a, b, &mut x, 1e-8, 4000);
    (iters, resid, t0.elapsed())
}

fn main() {
    let nx: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(192);
    let matrix = DynamicMatrix::from(morpheus_corpus::gen::stencil::poisson2d(nx, nx));
    let n = matrix.nrows();
    let b = vec![1.0f64; n];
    println!("2D Poisson on a {nx}x{nx} grid: {} unknowns, {} non-zeros", n, matrix.nnz());

    // Baseline: CSR, the general-purpose default.
    let csr = matrix.to_format(FormatId::Csr, &ConvertOptions::default()).unwrap();
    let (it_csr, res_csr, t_csr) = solve_and_time(&csr, &b);
    println!("CSR     : {it_csr} iterations, residual {res_csr:.2e}, wall {t_csr:.2?}");

    // Auto-tuned: an Oracle session picks the format for the A64FX-like
    // target (the session would also serve every further system matrix of a
    // time-dependent PDE, cache-amortised).
    let mut tuned = matrix.clone();
    let oracle = Oracle::builder()
        .engine(VirtualEngine::new(systems::a64fx(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(5))
        .build_service()
        .unwrap();
    let engine = oracle.engine().clone();
    let report = oracle.tune(&mut tuned).unwrap();
    let (it_tuned, res_tuned, t_tuned) = solve_and_time(&tuned, &b);
    println!(
        "{:<8}: {it_tuned} iterations, residual {res_tuned:.2e}, wall {t_tuned:.2?}  (selected for {})",
        report.chosen.to_string(),
        engine.label()
    );

    assert_eq!(it_csr, it_tuned, "format switching must not change the math");

    // The interesting number is the *target's* speedup: the tuner optimised
    // for the simulated A64FX, not for this build machine.
    let analysis = morpheus_repro::machine::analyze(&tuned);
    let modelled = engine.spmv_time(FormatId::Csr, &analysis) / engine.spmv_time(report.chosen, &analysis);
    println!("modelled SpMV speedup on {}: {modelled:.2}x", engine.label());
    let host = t_csr.as_secs_f64() / t_tuned.as_secs_f64();
    println!(
        "host wall ratio: {host:.2}x (informational — this machine is not an A64FX; \
         the right format is hardware-specific, which is the paper's point)"
    );
}
