//! The benchmark's contract in one table: workloads, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` is this table
//! rendered (`--emit-manifest`); a test keeps the two identical.

use crate::json::Json;
use crate::setup::{Workload, ALL_WORKLOADS};
use morpheus::format::ALL_FORMATS;

/// Seconds one run measures when the driver does not say.
pub const RUN_SECONDS: u64 = 10;

pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::SolverShort => "64 matrices of 15-150k nnz, register then 20 spmv each: tuning is about half the time, 25% repeats hit the caches. Predicted: kernel changes do not move tune_cost here.",
        Workload::SolverLong => "8 matrices of 0.33-0.37M nnz, one per regime, register_partitioned then 300 spmv, 1 worker: kernel and plan replay are most of the time. Predicted: cold-path changes do not move its warm ratios.",
        Workload::SolverLongMt => "solver_long with min(nproc,4) pool workers: pool dispatch, partitioned handles and parallel kernels; the reference stays serial. Predicted: changes confined to workers=1 paths do not move it.",
        Workload::ServeMixed => "min(nproc,4) closed-loop clients on one service, 32 small handles: zipf reads beside spmm, per-call tune and replacing register. Predicted: ingress and pool changes do not move it.",
        Workload::IngressBurst => "1 client submits bursts of 1/4/16 on 8 large handles through the default Ingress and waits: queue hand-off, coalescing and scatter on top of the kernels. Predicted: ingress changes move only this.",
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

/// Every workload reports every one of these. `setup_s` first; the other
/// four in the order [`crate::measure::fold`] returns them.
///
/// The bounds are what two protocols of two sets of ten differently seeded
/// runs per workload kept on the 2-vCPU VM they were sized on (README,
/// "What the bounds mean here"): the widest quartile distance seen was 13 %
/// of the median for tune cost, 10 % for p50, 17 % for p90, 11 % for
/// throughput, and medians shifted by up to 11 %, 4 %, 14 % and 5 % between
/// two sets.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("tune_cost_ref_iters_p50", "ref-iters", "lower", 0.20),
    e2e("request_ref_ratio_p50", "x", "lower", 0.20),
    e2e("request_ref_ratio_p90", "x", "lower", 0.25),
    e2e("throughput_vs_ref", "x", "higher", 0.20),
];

/// Per-layer metrics with a fixed name.
const LAYER_FIXED: &[(&str, &str, &str)] = &[
    ("corpus.gen_s", "s", "lower"),
    ("ml.fit_s", "s", "lower"),
    ("ml.predict_ns_p50", "ns", "lower"),
    ("analysis.build_ns_per_nnz_p50", "ns", "lower"),
    ("analysis.share_of_register", "ratio", "lower"),
    ("features.extract_ns_p50", "ns", "lower"),
    ("machine.analyze_ns_per_nnz_p50", "ns", "lower"),
    ("machine.model_rank_hit_ratio", "ratio", "higher"),
    ("machine.triad_gbs", "GB/s", "higher"),
    ("machine.gather_gbs", "GB/s", "higher"),
    ("tuner.select_ns_p50", "ns", "lower"),
    ("tuner.hit_ratio", "ratio", "higher"),
    ("tuner.regret_gm", "x", "lower"),
    ("tuner.csr_fallback_ratio", "ratio", "lower"),
    ("convert.ref_iters_p50", "ref-iters", "lower"),
    ("convert.ns_per_nnz_p50", "ns", "lower"),
    ("convert.share_of_register", "ratio", "lower"),
    ("convert.direct_path_ratio", "ratio", "higher"),
    ("convert.storage_vs_csr_gm", "x", "lower"),
    ("plan.build_ref_iters_p50", "ref-iters", "lower"),
    ("plan.build_ns_per_row_p50", "ns", "lower"),
    ("kernel.spmv_gbs_p50", "GB/s", "higher"),
    ("kernel.flops_per_byte_p50", "flop/B", "higher"),
    ("kernel.bw_fraction_p50", "ratio", "higher"),
    ("kernel.spmm_k8_ref_ratio_gm", "x", "lower"),
    ("partition.admitted_ratio", "ratio", "higher"),
    ("partition.speedup_gm", "x", "higher"),
    ("parallel.dispatch_ns_p50", "ns", "lower"),
    ("parallel.scaling_eff_gm", "ratio", "higher"),
    ("cache.decision_hit_ratio", "ratio", "higher"),
    ("cache.plan_hit_ratio", "ratio", "higher"),
    ("cache.hit_path_ref_ratio_p50", "x", "lower"),
    ("cache.repeat_register_ref_iters_p50", "ref-iters", "lower"),
    ("serve.register_self_share", "ratio", "lower"),
    ("serve.request_self_ns_p50", "ns", "lower"),
    ("serve.request_ref_ratio_p99", "x", "lower"),
    ("serve.read_during_register_ratio_p90", "x", "lower"),
    ("ingress.roundtrip_self_ns_p50", "ns", "lower"),
    ("ingress.roundtrip_ref_ratio_p50", "x", "lower"),
    ("ingress.queue_wait_ns_p50", "ns", "lower"),
    ("ingress.queue_wait_ns_p99", "ns", "lower"),
    ("ingress.exec_ns_p50", "ns", "lower"),
    ("ingress.coalescing_ratio", "ratio", "higher"),
    ("ingress.coalesce_declines", "count", "lower"),
    ("ingress.shed_ratio", "ratio", "lower"),
    ("ingress.refused_ratio", "ratio", "lower"),
    ("obs.coarse_overhead_ratio", "x", "lower"),
    ("solver.tuned_speedup_n20_gm", "x", "higher"),
    ("solver.tuned_speedup_n20_p10", "x", "higher"),
    ("solver.tune_cost_ref_iters_p90", "ref-iters", "lower"),
    ("solver.iter_speedup_gm", "x", "higher"),
    ("solver.break_even_iters_p50", "iters", "lower"),
    ("solver.never_break_even_ratio", "ratio", "lower"),
    ("solver.time_to_answer_ms_p50", "ms", "lower"),
    ("bench.ref_iter_ns_p50", "ns", "lower"),
    ("bench.trace_overhead_ratio", "x", "lower"),
    ("bench.timer_ns", "ns", "lower"),
    ("bench.passes", "count", "higher"),
];

/// Every per-layer metric: the fixed ones, then one per format for the
/// realised-format share and the bare-kernel ratio, then the within-run
/// spread of each ratio metric.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> =
        LAYER_FIXED.iter().map(|&(n, u, b)| (n.to_string(), u, b)).collect();
    for f in ALL_FORMATS {
        out.push((format!("tuner.format_share.{}", f.name()), "ratio", "higher"));
    }
    for f in ALL_FORMATS {
        out.push((format!("kernel.spmv_ref_ratio_gm.{}", f.name()), "x", "lower"));
    }
    for m in &END_TO_END[1..] {
        out.push((format!("bench.spread.{}", m.name), "ratio", "lower"));
    }
    out
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn manifest() -> Json {
    let strings = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
    Json::obj(vec![
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "oracle_bench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["oracle_bench"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                ALL_WORKLOADS
                    .iter()
                    .map(|&w| Json::obj(vec![("name", Json::str(w.name())), ("why", Json::str(why(w)))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|(name, unit, better)| {
                        Json::obj(vec![
                            ("name", Json::Str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn table_respects_the_contract_limits() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{} per-layer metrics", layers.len());
        let mut names: Vec<String> = layers.iter().map(|l| l.0.clone()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(ALL_WORKLOADS.iter().map(|w| w.name().to_string()));
        assert!(names.iter().all(|n| name_ok(n)), "bad name in {names:?}");
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (_, unit, better) in &layers {
            assert!(
                unit.len() <= 16 && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(*better == "lower" || *better == "higher");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert_eq!((END_TO_END[0].name, END_TO_END[0].unit, END_TO_END[0].better), ("setup_s", "s", "lower"));
        assert!(ALL_WORKLOADS.iter().all(|&w| why(w).len() <= 200 && !why(w).contains('\n')));
        assert!(manifest().render_pretty().len() < 64 * 1024);
    }

    /// The committed manifest is this table, byte for byte.
    #[test]
    fn committed_manifest_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        assert_eq!(crate::json::parse(&text).unwrap(), manifest(), "regenerate with --emit-manifest");
    }
}
