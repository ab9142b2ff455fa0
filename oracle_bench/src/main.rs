//! `oracle_bench`: the repository's one benchmark.
//!
//! Driver mode (what `BENCHMARK.json` names):
//! `oracle_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints one JSON object as the last line.
//!
//! Suite mode (no `--workload`): every workload, a table, and a result
//! file; `--trace` adds the traced run per workload, `--smoke` shortens
//! everything, `--check` runs the suite twice and fails unless the two
//! agree within the bounds, `--compare a.json b.json` judges two result
//! files. See README.md beside this package.

mod env;
mod inputs;
mod json;
mod layers;
mod measure;
mod metrics;
mod refkernel;
mod report;
mod run;
mod setup;
mod spans;
mod stats;
mod workloads;

use json::Json;
use report::Verdict;
use run::{run_workload, RunConfig, RunResult};
use setup::{Workload, ALL_WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check: bool,
    compare: Option<(String, String)>,
    emit_manifest: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        check: false,
        compare: None,
        emit_manifest: false,
        out: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    let value = |it: &mut std::iter::Peekable<std::iter::Skip<std::env::Args>>, flag: &str| {
        it.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, "--workload")?;
                args.workload = Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value(&mut it, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value(&mut it, "--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace 0|1` from the driver, bare `--trace` from people.
            "--trace" => match it.peek().map(String::as_str) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--compare" => args.compare = Some((value(&mut it, "--compare")?, value(&mut it, "--compare")?)),
            "--emit-manifest" => args.emit_manifest = true,
            "--out" => args.out = Some(value(&mut it, "--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Seconds each workload measures: `--smoke` overrides `--seconds`.
fn effective_seconds(args: &Args) -> f64 {
    if args.smoke {
        1.0
    } else {
        args.seconds
    }
}

/// Every workload once (twice with tracing: the traced run is separate so
/// end-to-end values never come from a traced pass).
fn run_suite(args: &Args) -> Vec<RunResult> {
    let seconds = effective_seconds(args);
    let (setup_reps, pass_fraction) = if args.smoke { (1, 0.25) } else { (5, 1.0) };
    ALL_WORKLOADS
        .iter()
        .map(|&workload| {
            let cfg =
                RunConfig { workload, seed: args.seed, seconds, trace: false, setup_reps, pass_fraction };
            let mut result = run_workload(&cfg);
            if args.trace {
                let traced = run_workload(&RunConfig { trace: true, setup_reps: 1, ..cfg });
                result.attempted += traced.attempted;
                result.failed += traced.failed;
                result.correct &= traced.correct;
                result.layers = traced.layers;
            }
            report::print_table(&result);
            result
        })
        .collect()
}

fn suite_json(args: &Args, results: &[RunResult]) -> Json {
    let mut env = env::block(args.seed, effective_seconds(args));
    if args.trace {
        if let Json::Obj(pairs) = &mut env {
            pairs.push(("calibration".into(), dram_calibration()));
        }
    }
    Json::obj(vec![
        ("schema", Json::str("oracle_bench/1")),
        ("env", env),
        (
            "workloads",
            Json::Obj(
                results.iter().map(|r| (r.workload.name().to_string(), report::workload_json(r))).collect(),
            ),
        ),
    ])
}

/// Triad and gather with every array at least four times the last-level
/// cache, memory permitting; otherwise at 64 MiB, labelled cache-resident
/// when that is below four times the cache.
fn dram_calibration() -> Json {
    let llc = env::llc_bytes();
    let wanted = 3 * 4 * llc;
    let fits = llc > 0 && wanted <= 4 << 30 && wanted <= env::mem_available_bytes() / 2;
    let bytes = if fits { wanted } else { 64 << 20 };
    let (triad, gather) = layers::calibrate(bytes);
    Json::obj(vec![
        ("llc_bytes", Json::Num(llc as f64)),
        ("working_set_bytes", Json::Num(bytes as f64)),
        ("label", Json::str(if bytes / 3 >= 4 * llc && llc > 0 { "beyond_llc" } else { "cache_resident" })),
        ("triad_gbs", Json::Num(triad)),
        ("gather_gbs", Json::Num(gather)),
    ])
}

fn write_result(args: &Args, file: &Json, default_name: &str) {
    let path = args.out.clone().unwrap_or_else(|| run::output_dir().join(default_name).display().to_string());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, file.render_pretty()) {
        Ok(()) => println!("result file: {path}"),
        Err(e) => eprintln!("oracle_bench: could not write {path}: {e}"),
    }
}

fn print_comparison(rows: &[(String, String, f64, Verdict)]) -> bool {
    println!("{:<28} {:<16} {:>9}  verdict", "metric", "workload", "worse by");
    for (metric, workload, worse, verdict) in rows {
        let word = match verdict {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved (spread wider than bound)",
        };
        println!("{metric:<28} {workload:<16} {:>8.1}%  {word}", worse * 100.0);
    }
    rows.iter().all(|r| r.3 != Verdict::Regressed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("oracle_bench: {why}");
            return ExitCode::from(2);
        }
    };
    if args.emit_manifest {
        print!("{}", metrics::manifest().render_pretty());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return match read(a).and_then(|a| read(b).and_then(|b| report::compare(&a, &b))) {
            Ok(rows) if print_comparison(&rows) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("oracle_bench: {why}");
                ExitCode::from(2)
            }
        };
    }
    if let Some(workload) = args.workload {
        let cfg = RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            setup_reps: 5,
            pass_fraction: 1.0,
        };
        let result = run_workload(&cfg);
        report::print_table(&result);
        println!("{}", report::driver_line(&result));
        return ExitCode::SUCCESS;
    }
    if args.check {
        // Two sets of runs of the same code must agree within the
        // benchmark's own bounds, or the bounds mean nothing.
        let first = suite_json(&args, &run_suite(&args));
        let second = suite_json(&args, &run_suite(&args));
        write_result(&args, &first, "check-first.json");
        let rows =
            report::compare(&first.render(), &second.render()).expect("two runs on one machine compare");
        print_comparison(&rows);
        // Agreement is about the two values only; whether a single pair
        // of runs could *resolve* a difference (the verdict column) is
        // `--compare`'s question.
        let bound =
            |metric: &str| metrics::END_TO_END.iter().find(|m| m.name == metric).map_or(0.0, |m| m.bound);
        let apart: Vec<_> = rows.iter().filter(|r| r.2.abs() > bound(&r.0)).collect();
        for (metric, workload, worse, _) in &apart {
            println!(
                "check: {metric} on {workload} differs by {:.1}% (bound {:.0}%)",
                worse * 100.0,
                bound(metric) * 100.0
            );
        }
        println!("check: {} of {} pairs agree within their bounds", rows.len() - apart.len(), rows.len());
        return if apart.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    let results = run_suite(&args);
    write_result(&args, &suite_json(&args, &results), "result.json");
    if results.iter().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
