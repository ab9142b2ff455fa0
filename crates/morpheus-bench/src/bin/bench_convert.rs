//! Direct-vs-hub conversion benchmark with a machine-readable snapshot.
//!
//! Times every CSR/COO → {ELL, DIA, HYB, HDC, BSR, BELL} conversion on a
//! small corpus three ways:
//!
//! * `hub_s` — the legacy route: materialise a COO intermediate, then
//!   rebuild ([`morpheus::convert_via_hub`]);
//! * `direct_s` — the dispatcher's direct kernel, planning by rescanning;
//! * `planned_s` — the direct kernel fed a precomputed
//!   [`morpheus::Analysis`], the Oracle's hot path (BSR and BELL have no
//!   planning step, so theirs equals `direct_s` up to noise).
//!
//! Every timed row also carries `direct_ns_per_nnz`, the number that makes
//! a conversion an order of magnitude off the memory-speed ones stand out
//! whatever the matrix size.
//!
//! Results go to stdout as a table and to `BENCH_convert.json` (override
//! with `--out PATH`) so the conversion-performance trajectory can be
//! tracked across commits. `--smoke` shrinks the corpus and iteration count
//! to a few hundred milliseconds total — CI runs that mode to keep the
//! harness executable.

use morpheus::format::FormatId;
use morpheus::{convert_via_hub, Analysis, ConvertOptions, CooMatrix, DynamicMatrix};
use morpheus_bench::report::json_escape;
use morpheus_corpus::gen::banded::tridiagonal;
use morpheus_corpus::gen::powerlaw::zipf_rows;
use morpheus_corpus::gen::random::near_diagonal;
use morpheus_corpus::gen::stencil::poisson2d;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Case {
    name: &'static str,
    matrix: CooMatrix<f64>,
}

fn corpus(smoke: bool) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(9);
    let scale = |full: usize, small: usize| if smoke { small } else { full };
    vec![
        Case { name: "near-diagonal", matrix: near_diagonal(scale(20_000, 1_500), 9, 60.0, &mut rng) },
        Case { name: "tridiagonal", matrix: tridiagonal(scale(200_000, 4_000)) },
        Case { name: "poisson2d", matrix: poisson2d(scale(400, 48), scale(400, 48)) },
        Case {
            name: "zipf-rows",
            matrix: zipf_rows(scale(30_000, 2_000), scale(400_000, 12_000), 1.0, &mut rng),
        },
    ]
}

/// Median wall time of `iters` runs of `f` (after one warm-up run).
fn time_median<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

struct Row {
    matrix: String,
    nrows: usize,
    nnz: usize,
    source: FormatId,
    target: FormatId,
    viable: bool,
    hub_s: f64,
    direct_s: f64,
    planned_s: f64,
    path: String,
}

impl Row {
    fn direct_ns_per_nnz(&self) -> f64 {
        self.direct_s * 1e9 / self.nnz.max(1) as f64
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_convert.json".to_string());
    let iters = if smoke { 3 } else { 9 };
    let opts = ConvertOptions::default();
    let targets = [FormatId::Ell, FormatId::Dia, FormatId::Hyb, FormatId::Hdc, FormatId::Bsr, FormatId::Bell];

    let mut rows: Vec<Row> = Vec::new();
    for case in corpus(smoke) {
        let coo = DynamicMatrix::from(case.matrix);
        let csr = coo.to_format(FormatId::Csr, &opts).expect("CSR always converts");
        for source in [&csr, &coo] {
            let analysis = Analysis::of_auto(source, opts.true_diag_alpha);
            for target in targets {
                // Non-viable conversions (padding limit) are part of the
                // contract: record them, skip the timing.
                let viable = convert_via_hub(source, target, &opts).is_ok();
                let (hub_s, direct_s, planned_s, path) = if viable {
                    // Sanity: the direct kernel must produce the identical
                    // representation before we compare its speed.
                    let reference = convert_via_hub(source, target, &opts).unwrap();
                    let (direct, outcome) = source.to_format_with(target, &opts, None).unwrap();
                    assert_eq!(direct, reference, "{}: {} -> {}", case.name, source.format_id(), target);
                    (
                        time_median(iters, || convert_via_hub(source, target, &opts).unwrap()),
                        time_median(iters, || source.to_format(target, &opts).unwrap()),
                        time_median(iters, || source.to_format_with(target, &opts, Some(&analysis)).unwrap()),
                        outcome.path.to_string(),
                    )
                } else {
                    (0.0, 0.0, 0.0, "non-viable".to_string())
                };
                rows.push(Row {
                    matrix: case.name.to_string(),
                    nrows: source.nrows(),
                    nnz: source.nnz(),
                    source: source.format_id(),
                    target,
                    viable,
                    hub_s,
                    direct_s,
                    planned_s,
                    path,
                });
            }
        }
    }

    println!(
        "== convert: direct vs COO-hub ({} mode, {iters} iters) ==",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:<14} {:>9} {:>5}->{:<5} {:>11} {:>11} {:>11} {:>8} {:>7}",
        "matrix", "nnz", "src", "dst", "hub", "direct", "planned", "speedup", "ns/nnz"
    );
    for r in &rows {
        if !r.viable {
            println!(
                "{:<14} {:>9} {:>5}->{:<5} {:>11} {:>11} {:>11} {:>8}",
                r.matrix,
                r.nnz,
                r.source.name(),
                r.target.name(),
                "-",
                "-",
                "-",
                "n/a"
            );
            continue;
        }
        println!(
            "{:<14} {:>9} {:>5}->{:<5} {:>10.3}ms {:>10.3}ms {:>10.3}ms {:>7.2}x {:>7.2}",
            r.matrix,
            r.nnz,
            r.source.name(),
            r.target.name(),
            r.hub_s * 1e3,
            r.direct_s * 1e3,
            r.planned_s * 1e3,
            r.hub_s / r.direct_s.max(1e-12),
            r.direct_ns_per_nnz(),
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"morpheus-bench/convert/v2\",\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if smoke { "smoke" } else { "full" }));
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str(&format!("  \"threads\": {},\n", morpheus_parallel::global_pool().num_threads()));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"matrix\": \"{}\", \"nrows\": {}, \"nnz\": {}, \"source\": \"{}\", \
             \"target\": \"{}\", \"viable\": {}, \"hub_s\": {:.9}, \"direct_s\": {:.9}, \
             \"planned_s\": {:.9}, \"direct_ns_per_nnz\": {:.3}, \"speedup\": {:.3}, \
             \"path\": \"{}\"}}{}\n",
            json_escape(&r.matrix),
            r.nrows,
            r.nnz,
            r.source.name(),
            r.target.name(),
            r.viable,
            r.hub_s,
            r.direct_s,
            r.planned_s,
            r.direct_ns_per_nnz(),
            if r.viable { r.hub_s / r.direct_s.max(1e-12) } else { 0.0 },
            json_escape(&r.path),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("\nwrote {out_path}");

    // Headline check for the perf trajectory: CSR->ELL and CSR->DIA must
    // beat the hub on the corpus (geometric mean over viable cases).
    let mut log_sum = 0.0f64;
    let mut n = 0usize;
    for r in rows.iter().filter(|r| {
        r.viable && r.source == FormatId::Csr && matches!(r.target, FormatId::Ell | FormatId::Dia)
    }) {
        log_sum += (r.hub_s / r.direct_s.max(1e-12)).ln();
        n += 1;
    }
    if n > 0 {
        let gmean = (log_sum / n as f64).exp();
        println!("CSR->{{ELL,DIA}} geomean speedup over hub: {gmean:.2}x ({n} cases)");
    }
}
