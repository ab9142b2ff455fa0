//! What gets printed and written: the driver's one-line result, the
//! human-readable table, the suite result file with its environment
//! block, and the comparison of two such files.

use crate::json::{self, Json};
use crate::metrics::{MetricDef, END_TO_END};
use crate::run::RunResult;

/// The end-to-end readings of a run as `(definition, value, spread)`.
pub fn end_to_end_rows(result: &RunResult) -> Vec<(&'static MetricDef, f64, f64)> {
    let mut rows = vec![(&END_TO_END[0], result.setup_s.value, result.setup_s.spread)];
    rows.extend(END_TO_END[1..].iter().zip(result.ratios).map(|(m, r)| (m, r.value, r.spread)));
    rows
}

/// The per-layer readings of a traced run as `(name, value, unit)`.
fn layer_rows(layers: &[(String, f64)]) -> impl Iterator<Item = (&String, f64, &'static str)> {
    layers.iter().zip(crate::metrics::per_layer()).map(|((name, value), (_, unit, _))| (name, *value, unit))
}

fn metric_object(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The last line of standard output in driver mode: exactly `correct`,
/// `attempted`, `failed`, `metrics`; end-to-end metrics untraced, per-layer
/// metrics traced.
pub fn driver_line(result: &RunResult) -> String {
    let metrics: Vec<(String, Json)> = match &result.layers {
        Some(layers) => layer_rows(layers).map(|(n, v, unit)| (n.clone(), metric_object(v, unit))).collect(),
        None => end_to_end_rows(result)
            .into_iter()
            .map(|(m, v, _)| (m.name.to_string(), metric_object(v, m.unit)))
            .collect(),
    };
    Json::obj(vec![
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// Every metric by name and unit, for people.
pub fn print_table(result: &RunResult) {
    println!(
        "{}: {} passes ({} s), {} operations attempted, {} failed, outputs {}",
        result.workload.name(),
        result.passes,
        result.pass_seconds.iter().map(|s| format!("{s:.2}")).collect::<Vec<_>>().join(" "),
        result.attempted,
        result.failed,
        if result.correct { "verified against ref_csr_spmv" } else { "NOT all correct" },
    );
    for (m, value, spread) in end_to_end_rows(result) {
        println!(
            "  {:<28} {:>12.4} {:<10} spread {:.3}  (bound {:.2}, {} is better)",
            m.name, value, m.unit, spread, m.bound, m.better
        );
    }
    println!(
        "  {:<28} {:>12.6} {:<10}",
        "fail_ratio",
        result.failed as f64 / result.attempted.max(1) as f64,
        "fraction"
    );
    println!(
        "  {:<28} {:>12.1} {:<10} (median reference execution: the unit)",
        "ref_iter_ns", result.ref_iter_ns, "ns"
    );
    if let Some(layers) = &result.layers {
        for (name, value, unit) in layer_rows(layers) {
            println!("  {name:<40} {value:>14.4} {unit}");
        }
    }
}

/// One workload's entry in the suite result file.
pub fn workload_json(result: &RunResult) -> Json {
    let e2e = end_to_end_rows(result)
        .into_iter()
        .map(|(m, value, spread)| {
            (
                m.name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::str(m.unit)),
                    ("spread", Json::Num(spread)),
                ]),
            )
        })
        .collect();
    let mut pairs = vec![
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("correct", Json::Bool(result.correct)),
        ("passes", Json::Num(result.passes as f64)),
        ("pass_seconds", Json::Arr(result.pass_seconds.iter().map(|s| Json::Num(*s)).collect())),
        ("end_to_end", Json::Obj(e2e)),
    ];
    if let Some(layers) = &result.layers {
        let obj = layer_rows(layers).map(|(n, v, unit)| (n.clone(), metric_object(v, unit))).collect();
        pairs.push(("per_layer", Json::Obj(obj)));
    }
    Json::obj(pairs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs' own spread is wider than the bound: no call either way.
    Unresolved,
}

/// `b` against `a` for one metric: how much worse `b` is as a share of
/// `a` (negative when better), judged against the bound.
pub fn judge(m: &MetricDef, a: (f64, f64), b: (f64, f64)) -> (f64, Verdict) {
    let worse = if m.better == "lower" { (b.0 - a.0) / a.0 } else { (a.0 - b.0) / a.0 };
    let verdict = if a.1.max(b.1) > m.bound {
        Verdict::Unresolved
    } else if worse > m.bound {
        Verdict::Regressed
    } else if worse < -m.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

fn reading(file: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = file.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    Some((m.get("value")?.as_f64()?, m.get("spread")?.as_f64()?))
}

/// One row per (metric, workload) of two result files. Refuses files from
/// different machines: ratios to a reference kernel travel between runs on
/// one machine, not between machines.
pub fn compare(a_text: &str, b_text: &str) -> Result<Vec<(String, String, f64, Verdict)>, String> {
    let (a, b) = (json::parse(a_text)?, json::parse(b_text)?);
    for key in ["nproc", "cpu_model"] {
        let (ea, eb) = (a.get("env").and_then(|e| e.get(key)), b.get("env").and_then(|e| e.get(key)));
        if ea.is_none() || ea != eb {
            return Err(format!("refusing to compare: env.{key} differs ({ea:?} vs {eb:?})"));
        }
    }
    let mut rows = Vec::new();
    for (workload, _) in a.get("workloads").map(Json::entries).unwrap_or_default() {
        for m in &END_TO_END {
            if let (Some(ra), Some(rb)) = (reading(&a, workload, m.name), reading(&b, workload, m.name)) {
                let (worse, verdict) = judge(m, ra, rb);
                rows.push((m.name.to_string(), workload.clone(), worse, verdict));
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Reading;
    use crate::setup::Workload;

    fn result(traced: bool) -> RunResult {
        let layers =
            traced.then(|| crate::metrics::per_layer().into_iter().map(|(n, _, _)| (n, 1.5)).collect());
        RunResult {
            workload: Workload::ServeMixed,
            attempted: 100,
            failed: 0,
            correct: true,
            passes: 3,
            pass_seconds: vec![1.0, 1.1, 0.9],
            setup_s: Reading { value: 0.8, spread: 0.05 },
            ratios: [Reading { value: 12.0, spread: 0.02 }; 4],
            ref_iter_ns: 1e5,
            layers,
        }
    }

    fn suite(r: &RunResult, nproc: f64) -> String {
        Json::obj(vec![
            ("env", Json::obj(vec![("nproc", Json::Num(nproc)), ("cpu_model", Json::str("cpu"))])),
            ("workloads", Json::obj(vec![(r.workload.name(), workload_json(r))])),
        ])
        .render_pretty()
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_every_metric() {
        for traced in [false, true] {
            let line = json::parse(&driver_line(&result(traced))).unwrap();
            let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let names: Vec<String> =
                line.get("metrics").unwrap().entries().iter().map(|(k, _)| k.clone()).collect();
            let manifest = crate::metrics::manifest();
            let expected: Vec<String> = manifest
                .get(if traced { "per_layer" } else { "end_to_end" })
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect();
            assert_eq!(names, expected, "result and BENCHMARK.json name the same metrics");
        }
    }

    #[test]
    fn result_file_parses_back_to_the_same_metric_names() {
        let file = json::parse(&suite(&result(true), 2.0)).unwrap();
        let w = file.get("workloads").unwrap().get("serve_mixed").unwrap();
        let names: Vec<&str> =
            w.get("end_to_end").unwrap().entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(w.get("per_layer").unwrap().entries().len(), crate::metrics::per_layer().len());
    }

    #[test]
    fn compare_judges_against_the_bound_and_refuses_other_machines() {
        let a = result(false);
        let mut b = result(false);
        // Perturbations sized from each metric's own bound, so the test
        // checks the judging, not a particular bound.
        let beyond = |i: usize| 1.0 + 1.5 * END_TO_END[i + 1].bound;
        b.ratios[0].value *= beyond(0); // tune cost up: regressed
        b.ratios[3].value *= beyond(3); // throughput up: improved
        b.ratios[1].spread = 2.0 * END_TO_END[2].bound; // too noisy to call
        let rows = compare(&suite(&a, 2.0), &suite(&b, 2.0)).unwrap();
        let verdict = |name: &str| rows.iter().find(|r| r.0 == name).unwrap().3;
        assert_eq!(verdict("tune_cost_ref_iters_p50"), Verdict::Regressed);
        assert_eq!(verdict("throughput_vs_ref"), Verdict::Improved);
        assert_eq!(verdict("request_ref_ratio_p50"), Verdict::Unresolved);
        assert_eq!(verdict("request_ref_ratio_p90"), Verdict::Unchanged);
        assert_eq!(verdict("setup_s"), Verdict::Unchanged);
        assert!(compare(&suite(&a, 2.0), &suite(&b, 4.0)).unwrap_err().contains("nproc"));
    }
}
