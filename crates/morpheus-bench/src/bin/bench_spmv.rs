//! Planned-execution benchmark with a machine-readable snapshot: the slices
//! of the kernel layer `oracle_bench` has no probe for yet.
//!
//! * **SpMV**: per (matrix, format), what building the [`morpheus::ExecPlan`]
//!   costs and the planned loop.
//! * **SpMM**: the planned kernel across the pool against the serial kernel,
//!   for several right-hand-side counts.
//! * **Blocked parameters**: BSR/BELL under proposed parameters against the
//!   best plan of every other format.
//!
//! Results go to stdout as a table and to `BENCH_spmv.json` (override with
//! `--out PATH`). `--smoke` shrinks sizes and iteration counts for CI, and
//! without `--out` writes `${CARGO_TARGET_DIR:-target}/BENCH_spmv.json`, so
//! it never replaces the tracked full-run snapshot.
//! Worker count defaults to the host parallelism; override with
//! `MORPHEUS_BENCH_THREADS` (the snapshot records it — single-core hosts
//! cannot show parallel SpMM speedups).

use morpheus::format::FormatId;
use morpheus::{spmm, Analysis, ConvertOptions, CooMatrix, CpuFeatures, DynamicMatrix, ExecPlan};
use morpheus_bench::report::json_escape;
use morpheus_corpus::gen::banded::tridiagonal;
use morpheus_corpus::gen::blocks::{aligned_blocks, fem_blocks};
use morpheus_corpus::gen::powerlaw::{hub_rows, zipf_rows};
use morpheus_corpus::gen::random::{bimodal_rows, variable_degree};
use morpheus_corpus::gen::stencil::poisson2d;
use morpheus_machine::{analyze, systems, Backend, VirtualEngine};
use morpheus_oracle::{propose_params, Oracle, RunFirstTuner};
use morpheus_parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Case {
    name: &'static str,
    /// The generator family, carried into the snapshot's rows.
    family: &'static str,
    matrix: CooMatrix<f64>,
}

fn corpus(smoke: bool) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(17);
    let scale = |full: usize, small: usize| if smoke { small } else { full };
    vec![
        Case {
            name: "zipf-mid",
            family: "powerlaw",
            matrix: zipf_rows(scale(30_000, 2_000), scale(150_000, 10_000), 1.0, &mut rng),
        },
        Case {
            name: "zipf-steep",
            family: "powerlaw",
            matrix: zipf_rows(scale(12_000, 1_200), scale(60_000, 6_000), 1.3, &mut rng),
        },
        Case {
            name: "hub",
            family: "powerlaw",
            matrix: hub_rows(scale(24_000, 1_600), 2, scale(8_000, 600), scale(120_000, 8_000), &mut rng),
        },
        Case {
            name: "zipf-wide",
            family: "powerlaw",
            matrix: zipf_rows(scale(60_000, 3_000), scale(240_000, 12_000), 0.9, &mut rng),
        },
        Case { name: "poisson2d", family: "regular", matrix: poisson2d(scale(180, 40), scale(180, 40)) },
        Case { name: "tridiagonal", family: "regular", matrix: tridiagonal(scale(120_000, 4_000)) },
        // Long scattered rows (~160 nnz/row full-size, ~52 in smoke):
        // columns too scattered for DIA/ELL wins.
        Case {
            name: "dense-rows",
            family: "regular",
            matrix: variable_degree(scale(16_000, 1_200), scale(96, 32), scale(224, 72), &mut rng),
        },
        // Hypersparse scattered columns (~3 nnz/row, uniform targets): high
        // diagonal scatter, x reused under 16 times per column — the
        // latency-bound class.
        Case {
            name: "scattered",
            family: "scattered",
            matrix: variable_degree(scale(40_000, 4_000), 2, 4, &mut rng),
        },
    ]
}

/// Total wall time of `iters` runs of `f`: best of three measured loops
/// (after one warm-up run), which filters scheduler noise on shared hosts.
fn time_loop<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct SpmvRow {
    matrix: String,
    family: &'static str,
    format: FormatId,
    /// `true` when this is the format the Oracle selects for the matrix —
    /// the steady-state execution of an iterative loop.
    tuned: bool,
    nrows: usize,
    nnz: usize,
    /// The plan's loop seconds plus `plan_build_s`.
    planned_s: f64,
    plan_build_s: f64,
}

struct SpmmRow {
    matrix: String,
    family: &'static str,
    format: FormatId,
    k: usize,
    nnz: usize,
    serial_s: f64,
    threaded_s: f64,
    speedup: f64,
}

/// One parameterized-format candidate (BSR or BELL) on a blocked case.
struct BlockedCand {
    format: FormatId,
    /// `FormatParams::to_token` of the proposed parameters (`-` = default).
    params: String,
    default_params: bool,
    loop_s: f64,
}

/// Parameterized block formats vs. the best pre-existing-format plan.
struct BlockedRow {
    matrix: &'static str,
    nrows: usize,
    nnz: usize,
    /// What the Oracle's run-first sweep (full registry) selects.
    oracle_choice: FormatId,
    best_legacy: FormatId,
    best_legacy_s: f64,
    cands: Vec<BlockedCand>,
    winner: FormatId,
    winner_params: String,
    winner_default_params: bool,
    winner_s: f64,
    speedup: f64,
}

/// Units-in-the-last-place distance between two doubles (same sign; large
/// sentinel across zero).
fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    if a.is_sign_positive() != b.is_sign_positive() {
        return u64::MAX;
    }
    (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
}

/// ULP-bounded equality against the serial reference: tight bit-distance
/// for well-conditioned sums, with an absolute escape hatch for rows that
/// cancel toward zero (reassociation noise dwarfs the ULP there).
fn ulp_check(got: &[f64], reference: &[f64], label: &str) {
    for (i, (a, b)) in got.iter().zip(reference).enumerate() {
        let ok = ulp_distance(*a, *b) <= 512 || (a - b).abs() <= 1e-11 * b.abs().max(1.0);
        assert!(ok, "{label}: row {i} diverged from serial reference: {a} vs {b}");
    }
}

/// `None` when the class has no rows: a vacuous geomean must read as
/// "no data" downstream (JSON `null`), never as a fabricated `1.0`.
fn geomean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some((log_sum / n as f64).exp())
    }
}

/// Renders an optional geomean for the stdout report.
fn show_geo(g: Option<f64>) -> String {
    match g {
        Some(v) => format!("{v:.3}x"),
        None => "n/a (no rows)".to_string(),
    }
}

/// Renders an optional geomean as a JSON value (`null` when vacuous).
fn json_geo(g: Option<f64>) -> String {
    match g {
        Some(v) => format!("{v:.4}"),
        None => "null".to_string(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = match args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)) {
        Some(path) => path.clone(),
        // A smoke run writes beside the build: the tracked snapshot is a full run's.
        None if smoke => {
            format!(
                "{}/BENCH_spmv.json",
                std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into())
            )
        }
        None => "BENCH_spmv.json".to_string(),
    };
    let iters_override = args
        .iter()
        .position(|a| a == "--iters")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    let spmv_iters = iters_override.unwrap_or(if smoke { 30 } else { 200 });
    let spmm_iters = iters_override.map(|n| n.div_ceil(8)).unwrap_or(if smoke { 5 } else { 25 });
    let threads = std::env::var("MORPHEUS_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    let pool = ThreadPool::new(threads);
    let opts = ConvertOptions::default();
    let formats = [FormatId::Csr, FormatId::Hyb, FormatId::Coo];
    let ks = [4usize, 8];

    let mut spmv_rows: Vec<SpmvRow> = Vec::new();
    let mut spmm_rows: Vec<SpmmRow> = Vec::new();

    // Session used only to name the steady-state format per matrix (the
    // rows marked `tuned`) and the blocked cases' Oracle choice.
    let selector = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(1))
        .build_service()
        .expect("engine and tuner set");

    for case in corpus(smoke) {
        let base = DynamicMatrix::from(case.matrix);
        let x: Vec<f64> = (0..base.ncols()).map(|i| 1.0 + (i % 13) as f64 * 0.25).collect();
        let tuned_fmt = {
            let mut probe = base.clone();
            selector.tune(&mut probe).map(|r| r.chosen).unwrap_or(FormatId::Csr)
        };
        // Always bench the Oracle-selected format — the steady state — even
        // when it is not in the fixed set.
        let mut case_formats: Vec<FormatId> = formats.to_vec();
        if !case_formats.contains(&tuned_fmt) {
            case_formats.push(tuned_fmt);
        }
        for target in case_formats {
            let Ok(m) = base.to_format(target, &opts) else { continue };
            let analysis = Analysis::of_auto(&m, opts.true_diag_alpha);

            // --- SpMV: plan once, run many ---
            let t0 = Instant::now();
            let plan = ExecPlan::build(&m, pool.num_threads(), Some(&analysis));
            let plan_build_s = t0.elapsed().as_secs_f64();
            let mut y_planned = vec![0.0f64; m.nrows()];
            let planned_loop_s =
                time_loop(spmv_iters, || plan.spmv(&m, &x, &mut y_planned, &pool).expect("plan matches"));
            let planned_s = planned_loop_s + plan_build_s;

            let mut y_serial = vec![0.0f64; m.nrows()];
            morpheus::spmv::spmv_serial(&m, &x, &mut y_serial).expect("shapes agree");
            assert!(
                y_serial.iter().zip(&y_planned).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{}/{}: planned result diverged",
                case.name,
                target
            );

            spmv_rows.push(SpmvRow {
                matrix: case.name.to_string(),
                family: case.family,
                format: target,
                tuned: target == tuned_fmt,
                nrows: m.nrows(),
                nnz: m.nnz(),
                planned_s,
                plan_build_s,
            });

            // --- SpMM: serial vs threaded-planned (CSR representative +
            //     whatever format the case is benched in) ---
            if m.nnz() > 16_000 || smoke {
                for &k in &ks {
                    let xk: Vec<f64> = (0..base.ncols() * k).map(|i| 0.5 + (i % 7) as f64 * 0.5).collect();
                    let mut y_serial = vec![0.0f64; m.nrows() * k];
                    let serial_s =
                        time_loop(spmm_iters, || spmm::spmm_serial(&m, &xk, &mut y_serial, k).unwrap());
                    let mut y_threaded = vec![0.0f64; m.nrows() * k];
                    let threaded_s = time_loop(spmm_iters, || {
                        plan.spmm(&m, &xk, &mut y_threaded, k, &pool).expect("plan matches")
                    });
                    assert!(
                        y_serial.iter().zip(&y_threaded).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{}/{} k={k}: threaded SpMM diverged",
                        case.name,
                        target
                    );
                    spmm_rows.push(SpmmRow {
                        matrix: case.name.to_string(),
                        family: case.family,
                        format: target,
                        k,
                        nnz: m.nnz(),
                        serial_s,
                        threaded_s,
                        speedup: serial_s / threaded_s,
                    });
                }
            }
        }
    }

    // --- parameterized block formats: BSR/BELL vs the best legacy plan ---
    //
    // The PR-9 contest: on block-structured and heavy-tail inputs, the
    // parameterized formats (BSR with proposed block dims, BELL with a
    // proposed bucket ladder) against the *best* of every pre-existing
    // format, each converted, planned at the same worker count and timed.
    // Every candidate's result is ULP-checked against the serial CSR
    // reference before it may score.
    let mut blocked_rows: Vec<BlockedRow> = Vec::new();
    {
        let mut rng = StdRng::seed_from_u64(41);
        let scale = |full: usize, small: usize| if smoke { small } else { full };
        let blocked_cases: Vec<(&'static str, CooMatrix<f64>)> = vec![
            // Fully dense grid-aligned blocks: the register-blocking ideal.
            ("aligned-4x4", aligned_blocks(scale(5_000, 400), 4, 3, &mut rng)),
            ("aligned-8x8", aligned_blocks(scale(2_400, 200), 8, 2, &mut rng)),
            // FEM-style coupled blocks: aligned dense blocks, irregular
            // block columns.
            ("fem-blocks", fem_blocks(scale(5_000, 400), 4, 2, &mut rng)),
            // Two-population row widths: the bucketed-ELL shape. Plain ELL
            // pads every narrow row to the wide width, HYB spills the wide
            // population to COO.
            ("bimodal", bimodal_rows(scale(40_000, 3_000), 3, 64, 40, &mut rng)),
            ("bimodal-steep", bimodal_rows(scale(30_000, 2_400), 2, 96, 60, &mut rng)),
        ];
        let legacy =
            [FormatId::Csr, FormatId::Ell, FormatId::Hyb, FormatId::Dia, FormatId::Hdc, FormatId::Coo];
        for (name, coo) in blocked_cases {
            let base = DynamicMatrix::from(coo);
            let x: Vec<f64> = (0..base.ncols()).map(|i| 1.0 + (i % 13) as f64 * 0.25).collect();
            let mut y_ref = vec![0.0f64; base.nrows()];
            morpheus::spmv::spmv_serial(&base, &x, &mut y_ref).expect("shapes agree");

            let oracle_choice = {
                let mut probe = base.clone();
                selector.tune(&mut probe).map(|r| r.chosen).unwrap_or(FormatId::Csr)
            };

            // Legacy side: every viable pre-PR-9 format, planned and timed.
            let legacy_plans: Vec<(FormatId, DynamicMatrix<f64>, ExecPlan<f64>)> = legacy
                .into_iter()
                .filter_map(|fmt| {
                    let mf = base.to_format(fmt, &opts).ok()?;
                    let fa = Analysis::of_auto(&mf, opts.true_diag_alpha);
                    let plan = ExecPlan::build(&mf, pool.num_threads(), Some(&fa));
                    Some((fmt, mf, plan))
                })
                .collect();

            // Parameterized side: BSR and BELL with per-matrix proposed
            // parameters (`propose_params` over the analysis).
            let machine_analysis = analyze(&base);
            type BlockPlan = (FormatId, String, bool, DynamicMatrix<f64>, ExecPlan<f64>);
            let block_plans: Vec<BlockPlan> = [FormatId::Bsr, FormatId::Bell]
                .into_iter()
                .filter_map(|fmt| {
                    let params = propose_params(fmt, &machine_analysis);
                    let popts = ConvertOptions { params, ..opts };
                    let mf = base.to_format(fmt, &popts).ok()?;
                    let fa = Analysis::of_auto(&mf, popts.true_diag_alpha);
                    let plan = ExecPlan::build(&mf, pool.num_threads(), Some(&fa));
                    Some((fmt, params.to_token(), params.is_default(), mf, plan))
                })
                .collect();
            assert!(!block_plans.is_empty(), "{name}: no parameterized candidate converted");

            // Correctness first: every plan must reproduce the serial
            // reference within the ULP bound.
            let mut y = vec![0.0f64; base.nrows()];
            for (fmt, mf, plan) in &legacy_plans {
                plan.spmv(mf, &x, &mut y, &pool).expect("plan matches");
                ulp_check(&y, &y_ref, &format!("{name}/{fmt}"));
            }
            for (fmt, tok, _, mf, plan) in &block_plans {
                plan.spmv(mf, &x, &mut y, &pool).expect("plan matches");
                ulp_check(&y, &y_ref, &format!("{name}/{fmt}[{tok}]"));
            }

            // Interleaved min-of-reps scoring: on a bursty shared host a
            // single loop wears whatever the neighbours were doing when it
            // ran. Alternating every loop across several reps and keeping
            // each one's minimum scores them all at their uncontended speed.
            let reps = if smoke { 2 } else { 5 };
            let mut legacy_s = vec![f64::INFINITY; legacy_plans.len()];
            let mut cand_s = vec![f64::INFINITY; block_plans.len()];
            for _ in 0..reps {
                for ((_, mf, plan), slot) in legacy_plans.iter().zip(legacy_s.iter_mut()) {
                    let s = time_loop(spmv_iters, || plan.spmv(mf, &x, &mut y, &pool).expect("plan matches"));
                    *slot = slot.min(s);
                }
                for ((_, _, _, mf, plan), slot) in block_plans.iter().zip(cand_s.iter_mut()) {
                    let s = time_loop(spmv_iters, || plan.spmv(mf, &x, &mut y, &pool).expect("plan matches"));
                    *slot = slot.min(s);
                }
            }
            let (best_legacy, best_legacy_s) = legacy_plans
                .iter()
                .zip(&legacy_s)
                .map(|((fmt, _, _), s)| (*fmt, *s))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("CSR is always viable");
            let cands: Vec<BlockedCand> = block_plans
                .iter()
                .zip(&cand_s)
                .map(|((fmt, tok, dflt, _, _), s)| BlockedCand {
                    format: *fmt,
                    params: tok.clone(),
                    default_params: *dflt,
                    loop_s: *s,
                })
                .collect();
            let win = cands.iter().min_by(|a, b| a.loop_s.total_cmp(&b.loop_s)).expect("non-empty");

            blocked_rows.push(BlockedRow {
                matrix: name,
                nrows: base.nrows(),
                nnz: base.nnz(),
                oracle_choice,
                best_legacy,
                best_legacy_s,
                winner: win.format,
                winner_params: win.params.clone(),
                winner_default_params: win.default_params,
                winner_s: win.loop_s,
                speedup: best_legacy_s / win.loop_s,
                cands,
            });
        }
    }
    let blocked_geo = geomean(blocked_rows.iter().map(|r| r.speedup));

    // CI gate (--smoke): the tuned sweep must cover the parameterized
    // formats, and at least one blocked case must select one with
    // non-default (proposed) parameters.
    if smoke {
        let swept: Vec<FormatId> =
            blocked_rows.iter().flat_map(|r| r.cands.iter().map(|c| c.format)).collect();
        assert!(
            swept.contains(&FormatId::Bsr) && swept.contains(&FormatId::Bell),
            "smoke sweep must include BSR and BELL, got {swept:?}"
        );
        assert!(
            blocked_rows
                .iter()
                .any(|r| matches!(r.winner, FormatId::Bsr | FormatId::Bell) && !r.winner_default_params),
            "no blocked case selected a parameterized format with non-default params"
        );
    }

    // --- report ---
    let cpu = CpuFeatures::detect();
    println!("cpu features: avx2={} fma={}", cpu.avx2, cpu.fma);
    println!(
        "{:<12} {:<9} {:>5} {:>9} {:>9} | {:>11} {:>9}",
        "matrix", "family", "fmt", "nrows", "nnz", "planned_s", "build_s"
    );
    for r in &spmv_rows {
        println!(
            "{:<12} {:<9} {:>5}{} {:>8} {:>9} | {:>11.6} {:>9.6}",
            r.matrix,
            r.family,
            r.format.to_string(),
            if r.tuned { "*" } else { " " },
            r.nrows,
            r.nnz,
            r.planned_s,
            r.plan_build_s
        );
    }
    println!("(* = the format the Oracle selects for this matrix)");
    println!();
    println!(
        "{:<12} {:<9} {:>5} {:>3} {:>9} | {:>10} {:>11} {:>8}",
        "matrix", "family", "fmt", "k", "nnz", "serial_s", "threaded_s", "speedup"
    );
    for r in &spmm_rows {
        println!(
            "{:<12} {:<9} {:>5} {:>3} {:>9} | {:>10.6} {:>11.6} {:>7.2}x",
            r.matrix,
            r.family,
            r.format.to_string(),
            r.k,
            r.nnz,
            r.serial_s,
            r.threaded_s,
            r.speedup
        );
    }

    println!();
    println!(
        "{:<14} {:>9} {:>9} {:>7} {:>11} | {:>13} {:>7} {:>14} {:>13} {:>8}",
        "matrix",
        "nrows",
        "nnz",
        "oracle",
        "best-legacy",
        "best_legacy_s",
        "winner",
        "params",
        "winner_s",
        "speedup"
    );
    for r in &blocked_rows {
        println!(
            "{:<14} {:>9} {:>9} {:>7} {:>11} | {:>13.6} {:>7} {:>14} {:>13.6} {:>7.2}x",
            r.matrix,
            r.nrows,
            r.nnz,
            r.oracle_choice.to_string(),
            r.best_legacy.to_string(),
            r.best_legacy_s,
            r.winner.to_string(),
            r.winner_params,
            r.winner_s,
            r.speedup
        );
        for c in &r.cands {
            println!(
                "    candidate {:<5} params {:<14} {:>11.6}s  {:>6.2}x vs best legacy",
                c.format.to_string(),
                c.params,
                c.loop_s,
                r.best_legacy_s / c.loop_s
            );
        }
    }

    let spmm_all = geomean(spmm_rows.iter().map(|r| r.speedup));
    println!();
    println!(
        "threaded SpMM geomean speedup over serial:                     {}  ({threads} worker(s))",
        show_geo(spmm_all)
    );
    println!("blocked-corpus BSR/BELL geomean speedup over best legacy plan: {}", show_geo(blocked_geo));

    // --- snapshot ---
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"bench_spmv/v7\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"cpu\": {{\"avx2\": {}, \"fma\": {}}},\n", cpu.avx2, cpu.fma));
    json.push_str(&format!("  \"spmv_iters\": {spmv_iters},\n"));
    json.push_str(&format!("  \"spmm_iters\": {spmm_iters},\n"));
    json.push_str(&format!("  \"spmm_geomean_speedup\": {},\n", json_geo(spmm_all)));
    json.push_str(&format!("  \"blocked_geomean_speedup\": {},\n", json_geo(blocked_geo)));
    json.push_str("  \"blocked\": [\n");
    for (i, r) in blocked_rows.iter().enumerate() {
        let cands: Vec<String> = r
            .cands
            .iter()
            .map(|c| {
                format!(
                    "{{\"format\": \"{}\", \"params\": \"{}\", \"default_params\": {}, \"loop_s\": {:.6e}}}",
                    c.format,
                    json_escape(&c.params),
                    c.default_params,
                    c.loop_s
                )
            })
            .collect();
        json.push_str(&format!(
            "    {{\"matrix\": \"{}\", \"nrows\": {}, \"nnz\": {}, \"oracle_choice\": \"{}\", \
             \"best_legacy_format\": \"{}\", \"best_legacy_s\": {:.6e}, \"winner\": \"{}\", \
             \"winner_params\": \"{}\", \"winner_default_params\": {}, \"winner_s\": {:.6e}, \
             \"speedup\": {:.4}, \"candidates\": [{}]}}{}\n",
            json_escape(r.matrix),
            r.nrows,
            r.nnz,
            r.oracle_choice,
            r.best_legacy,
            r.best_legacy_s,
            r.winner,
            json_escape(&r.winner_params),
            r.winner_default_params,
            r.winner_s,
            r.speedup,
            cands.join(", "),
            if i + 1 < blocked_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"spmv\": [\n");
    for (i, r) in spmv_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"matrix\": \"{}\", \"family\": \"{}\", \"format\": \"{}\", \"tuned\": {}, \"nrows\": {}, \
             \"nnz\": {}, \"planned_s\": {:.6e}, \"plan_build_s\": {:.6e}}}{}\n",
            json_escape(&r.matrix),
            r.family,
            r.format,
            r.tuned,
            r.nrows,
            r.nnz,
            r.planned_s,
            r.plan_build_s,
            if i + 1 < spmv_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"spmm\": [\n");
    for (i, r) in spmm_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"matrix\": \"{}\", \"family\": \"{}\", \"format\": \"{}\", \"k\": {}, \"nnz\": {}, \
             \"serial_s\": {:.6e}, \"threaded_s\": {:.6e}, \"speedup\": {:.4}}}{}\n",
            json_escape(&r.matrix),
            r.family,
            r.format,
            r.k,
            r.nnz,
            r.serial_s,
            r.threaded_s,
            r.speedup,
            if i + 1 < spmm_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Some(dir) = std::path::Path::new(&out_path).parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create the snapshot's directory");
    }
    std::fs::write(&out_path, json).expect("write snapshot");
    println!("snapshot written to {out_path}");
}
