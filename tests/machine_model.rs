//! Integration tests for the hardware model against the format library:
//! the simulator must rank formats consistently with the qualitative
//! behaviours the paper reports, for matrices produced by the real
//! generators.

use morpheus_repro::corpus::gen::{banded, powerlaw, random, stencil};
use morpheus_repro::machine::{analyze, systems, Backend, VirtualEngine};
use morpheus_repro::morpheus::{DynamicMatrix, FormatId};
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn quiet(system: morpheus_repro::machine::SystemProfile, backend: Backend) -> VirtualEngine {
    VirtualEngine::new(system, backend).with_noise(0.0, 0)
}

#[test]
fn stencils_prefer_diagonal_formats_on_wide_simd_cpus() {
    let m = DynamicMatrix::from(stencil::poisson2d(300, 300));
    let a = analyze(&m);
    let engine = quiet(systems::a64fx(), Backend::Serial);
    let p = engine.profile(&a);
    assert!(
        matches!(p.optimal, FormatId::Dia | FormatId::Hdc),
        "expected a diagonal format for a stencil on A64FX, got {}",
        p.optimal
    );
}

#[test]
fn scatter_prefers_csr_on_commodity_cpus() {
    // Forty entries a row: most rows land in BELL's 64-wide bucket, padded by
    // half, which costs more than its 4-byte indices save. (At ten a row the
    // padding is a third and BELL's 12-byte cells undercut CSR's 16.)
    let m = DynamicMatrix::from(random::erdos_renyi(20_000, 800_000, &mut rng(1)));
    let a = analyze(&m);
    for engine in [quiet(systems::cirrus(), Backend::Serial), quiet(systems::xci(), Backend::Serial)] {
        let p = engine.profile(&a);
        assert_eq!(p.optimal, FormatId::Csr, "{}", engine.label());
    }
}

#[test]
fn hypersparse_prefers_coo() {
    let m = DynamicMatrix::from(random::hypersparse(400_000, 3_000, &mut rng(2)));
    let a = analyze(&m);
    let engine = quiet(systems::archer2(), Backend::Serial);
    let p = engine.profile(&a);
    assert_eq!(p.optimal, FormatId::Coo);
}

#[test]
fn uniform_degree_prefers_ell_on_gpu() {
    let m = DynamicMatrix::from(random::uniform_degree(120_000, 8, &mut rng(3)));
    let a = analyze(&m);
    let engine = quiet(systems::cirrus(), Backend::Cuda);
    let p = engine.profile(&a);
    assert_eq!(p.optimal, FormatId::Ell);
}

#[test]
fn hub_matrix_is_csr_pathological_on_gpu() {
    // The mawi effect (§VII-C): a hub row makes GPU CSR orders of magnitude
    // slower than the optimum.
    let m = DynamicMatrix::from(powerlaw::hub_rows(400_000, 2, 200_000, 500_000, &mut rng(4)));
    let a = analyze(&m);
    let engine = quiet(systems::p3(), Backend::Cuda);
    let p = engine.profile(&a);
    assert_ne!(p.optimal, FormatId::Csr);
    assert!(p.optimal_speedup() > 20.0, "speedup only {:.1}x", p.optimal_speedup());
}

#[test]
fn skewed_rows_penalise_openmp_csr_up_to_the_hub_row() {
    // Threaded execution runs over an ExecPlan's nnz-weighted row
    // partition, so OpenMP CSR no longer pays schedule(static)'s
    // contiguous-chunk skew and the model follows what actually runs. The
    // residual, irreducible penalty is the largest row: rows cannot be
    // split across threads (§VII-B's serial-vs-OpenMP distribution shift,
    // post-balancing). One 60k-entry hub over a light 3-per-row background
    // fits a serial sweep but pins one worker for ~14 ideal chunks.
    let m = DynamicMatrix::from(powerlaw::hub_rows(30_000, 1, 60_000, 150_000, &mut rng(5)));
    let a = analyze(&m);
    let threads = systems::cirrus().cpu.cores;
    let balanced = a.balanced_row_imbalance(threads);
    let ideal = a.nnz() as f64 / threads as f64;
    // The hub lower-bounds the slowest chunk; the greedy may pack at most
    // ~one target's worth of light rows around it...
    let row_bound = a.stats.row_nnz_max as f64 / ideal;
    assert!(
        balanced >= row_bound - 1e-9 && balanced <= row_bound + 1.0,
        "hub must bound the balanced partition: {balanced} vs row bound {row_bound}"
    );
    assert!(balanced > 5.0, "hub must dominate the ideal chunk: {balanced}");
    // ...and the planned partition can only improve on schedule(static).
    assert!(balanced <= a.static_row_imbalance(threads) + 1e-9);

    // End to end: the hub keeps OpenMP CSR far from the parallel scaling a
    // uniform matrix of the same shape enjoys.
    let uniform = DynamicMatrix::from(random::uniform_degree(30_000, 5, &mut rng(6)));
    let ua = analyze(&uniform);
    let serial = quiet(systems::cirrus(), Backend::Serial);
    let openmp = quiet(systems::cirrus(), Backend::OpenMp);
    let hub_scaling = serial.spmv_time(FormatId::Csr, &a) / openmp.spmv_time(FormatId::Csr, &a);
    let uni_scaling = serial.spmv_time(FormatId::Csr, &ua) / openmp.spmv_time(FormatId::Csr, &ua);
    assert!(
        hub_scaling < uni_scaling / 2.0,
        "hub-bound CSR must scale far worse than uniform CSR: {hub_scaling:.2}x vs {uni_scaling:.2}x"
    );
}

#[test]
fn banded_partial_band_padding_sinks_dia() {
    // A sparsely-filled band has many partial diagonals: DIA pays padding
    // and loses to CSR/HDC.
    let m = DynamicMatrix::from(banded::banded_partial(20_000, 20, 0.15, &mut rng(6)));
    let a = analyze(&m);
    let engine = quiet(systems::cirrus(), Backend::Serial);
    let t_dia = engine.spmv_time(FormatId::Dia, &a);
    let t_csr = engine.spmv_time(FormatId::Csr, &a);
    assert!(t_csr < t_dia, "CSR {t_csr:e} should beat padded DIA {t_dia:e}");
}

#[test]
fn hip_csr_penalty_shows_up_end_to_end() {
    let m = DynamicMatrix::from(random::near_diagonal(50_000, 10, 40.0, &mut rng(7)));
    let a = analyze(&m);
    let cuda = quiet(systems::p3(), Backend::Cuda);
    let hip = quiet(systems::p3(), Backend::Hip);
    // Same matrix: the MI100's CSR path is slower relative to its optimum.
    assert!(hip.profile(&a).optimal_speedup() > cuda.profile(&a).optimal_speedup());
}

#[test]
fn every_pair_profiles_every_generator_family() {
    let mut r = rng(8);
    let matrices: Vec<DynamicMatrix<f64>> = vec![
        DynamicMatrix::from(stencil::poisson2d(40, 40)),
        DynamicMatrix::from(banded::tridiagonal(900)),
        DynamicMatrix::from(banded::diag_plus_scatter(800, 1200, &mut r)),
        DynamicMatrix::from(random::uniform_degree(700, 6, &mut r)),
        DynamicMatrix::from(random::erdos_renyi(600, 2400, &mut r)),
        DynamicMatrix::from(powerlaw::rmat(9, 6, [0.57, 0.19, 0.19, 0.05], &mut r)),
    ];
    for pair in systems::all_system_backends() {
        let engine = VirtualEngine::for_pair(&pair);
        for (i, m) in matrices.iter().enumerate() {
            let a = analyze(m);
            let p = engine.profile(&a);
            let t = p.optimal_time();
            assert!(t.is_finite() && t > 0.0, "matrix {i} on {}", engine.label());
            // Tuning-stage costs are finite and positive everywhere.
            assert!(engine.feature_extraction_time(FormatId::Csr, &a) > 0.0);
            assert!(engine.prediction_time(100) > 0.0);
        }
    }
}
