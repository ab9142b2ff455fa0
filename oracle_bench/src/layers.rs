//! The traced run: per-layer metrics.
//!
//! Spans are recorded from the benchmark's side, around calls into each
//! layer's public functions. `register` is one public call, so its inside
//! is attributed by replaying its pipeline step by step through the same
//! public functions the service composes (`Analysis::of_auto_with_hash`,
//! `analyze_from`, `FormatTuner::select`, `convert_to_with`,
//! `ExecPlan::build`) next to a real `register` of the same matrix on a
//! cold service; what the steps do not cover is the serving layer's own
//! share. The remaining layers are probed on a subset of the workload's
//! own matrices, always interleaved with the reference kernel.

use crate::inputs::MatrixInput;
use crate::measure::{timed, PassStats};
use crate::refkernel::{matches_columns, matches_rotated, ref_csr_spmv};
use crate::setup::{
    build_service, build_service_with, engine, forest_tuner, max_threads, FixedFormat, Prepared, Workload,
};
use crate::spans::Recorder;
use crate::stats::{geomean, median, percentile, ratio};
use morpheus::format::{FormatId, ALL_FORMATS};
use morpheus::{Analysis, ConvertOptions, DynamicMatrix, ExecPlan};
use morpheus_machine::analyze_from;
use morpheus_oracle::{
    FeatureVector, FormatTuner, Ingress, IngressConfig, MatrixHandle, ObsConfig, Op, Oracle, PartitionPolicy,
    RandomForestTuner, TraceLevel,
};
use morpheus_parallel::ThreadPool;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median per-call seconds of each contender, run in `rounds` rounds of
/// `reps` calls each, round-robin, so drift hits all of them alike.
fn interleaved(rounds: usize, reps: usize, contenders: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds * reps); contenders.len()];
    for _ in 0..rounds {
        for (c, run) in contenders.iter_mut().enumerate() {
            for _ in 0..reps {
                let ((), _, dt) = timed(&mut **run);
                samples[c].push(dt);
            }
        }
    }
    samples.iter().map(|s| median(s)).collect()
}

/// Up to `max` inputs, evenly spaced through the workload's list.
fn subset(inputs: &[MatrixInput], max: usize) -> Vec<&MatrixInput> {
    let n = inputs.len().min(max);
    (0..n).map(|k| &inputs[k * inputs.len() / n]).collect()
}

/// Cost of one `Instant::now()` pair, ns.
fn timer_ns() -> f64 {
    let samples: Vec<f64> = (0..2_000)
        .map(|_| {
            let t = Instant::now();
            black_box(t).elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// One matrix's registration, real and replayed.
struct Replayed {
    real_ns: f64,
    hash_ns: f64,
    analysis_ns: f64,
    machine_ns: f64,
    select_ns: f64,
    convert_ns: f64,
    plan_ns: f64,
    features_ns: f64,
    predict_ns: f64,
    /// Registering the same structure again on the now warm service.
    repeat_ns: f64,
    /// Per-call `tune_and_spmv` on the same structure, when it was served
    /// from the decision cache.
    hit_path_ns: Option<f64>,
    /// What the replayed steps cover: the replay span minus its self time.
    covered_ns: f64,
    t_ref_ns: f64,
    nnz: f64,
    nrows: f64,
}

fn replay_register(
    prepared: &Prepared,
    input: &MatrixInput,
    id: u64,
    workers: usize,
    rec: &mut Recorder,
    failed: &mut u64,
) -> Replayed {
    let mut y = vec![0.0; input.coo.nrows()];
    let refs: Vec<f64> =
        (0..5).map(|_| timed(|| ref_csr_spmv(&input.reference, &input.xs[0], &mut y)).2).collect();

    // The real call, on a service that has seen nothing.
    let service = build_service(&prepared.model, workers);
    let m = DynamicMatrix::from(input.coo.clone());
    let (registered, t0, real_s) = timed(|| service.register(m));
    rec.leaf("serve.register", id, t0, (real_s * 1e9) as u64);
    *failed += u64::from(registered.is_err());

    // The cache layer: the same structure again, by registration and by
    // the per-call path.
    let m = DynamicMatrix::from(input.coo.clone());
    let (again, t0, repeat_s) = timed(|| service.register(m));
    rec.leaf("cache.repeat_register", id, t0, (repeat_s * 1e9) as u64);
    *failed += u64::from(again.is_err());
    let mut m = DynamicMatrix::from(input.coo.clone());
    let (tuned, t0, hit_s) = timed(|| service.tune_and_spmv(&mut m, &input.xs[0], &mut y));
    rec.leaf("cache.tune_and_spmv", id, t0, (hit_s * 1e9) as u64);
    let hit_path_ns = match tuned {
        Ok(report) if matches_rotated(&y, &input.ys[0], 0, 1.0) => report.cache_hit.then_some(hit_s * 1e9),
        _ => {
            *failed += 1;
            None
        }
    };

    // The same pipeline, one public call per span.
    let tuner = forest_tuner(&prepared.model);
    let engine = engine();
    let opts = ConvertOptions::default();
    let mut m = DynamicMatrix::from(input.coo.clone());
    let root = rec.open("replay.register", id);
    let hash = rec.span("analysis.hash", id, |_| m.structure_hash());
    let analysis =
        rec.span("analysis.build", id, |_| Analysis::of_auto_with_hash(&m, opts.true_diag_alpha, hash));
    let view = rec.span("machine.analyze", id, |_| analyze_from(&m, &analysis));
    let decision = rec.span("tuner.select", id, |_| tuner.select(&m, &view, &engine, Op::Spmv));
    rec.span("convert.to_format", id, |_| {
        if m.convert_to_with(decision.format, &opts, Some(&analysis)).is_err() {
            m.convert_to_with(FormatId::Csr, &opts, Some(&analysis)).expect("CSR is always viable");
        }
    });
    let plan = rec.span("plan.build", id, |_| ExecPlan::build(&m, workers, Some(&analysis)));
    rec.close(root);
    black_box(&plan);
    let covered_ns = (rec.spans()[root].dur_ns() - rec.self_ns(root)) as f64;

    // Leaves too short for one clock pair: sixteen calls per reading.
    let features_ns = timed(|| {
        (0..16).for_each(|_| {
            black_box(FeatureVector::from_stats(black_box(&view.stats)));
        })
    })
    .2 / 16.0
        * 1e9;
    let fv = FeatureVector::from_stats(&view.stats);
    let forest = &prepared.model.forest;
    let predict_ns = timed(|| {
        (0..16).for_each(|_| {
            black_box(forest.predict(black_box(fv.as_slice())));
        })
    })
    .2 / 16.0
        * 1e9;

    let spans = rec.spans();
    let dur = |name: &str| {
        spans.iter().rev().find(|s| s.name == name && s.id == id).map_or(0.0, |s| s.dur_ns() as f64)
    };
    Replayed {
        real_ns: real_s * 1e9,
        hash_ns: dur("analysis.hash"),
        analysis_ns: dur("analysis.build"),
        machine_ns: dur("machine.analyze"),
        select_ns: dur("tuner.select"),
        convert_ns: dur("convert.to_format"),
        plan_ns: dur("plan.build"),
        features_ns,
        predict_ns,
        repeat_ns: repeat_s * 1e9,
        hit_path_ns,
        covered_ns,
        t_ref_ns: median(&refs) * 1e9,
        nnz: input.nnz() as f64,
        nrows: input.coo.nrows() as f64,
    }
}

/// What the forced-format sweep measured on one matrix.
struct Swept {
    /// Per-iteration seconds through `service.spmv`, by format; `None`
    /// where the format is not viable for the matrix.
    service_s: [Option<f64>; 8],
    /// Bare `ExecPlan::spmv_unpooled` seconds, by format.
    bare_s: [Option<f64>; 8],
    /// The selector's handle under the same interleaving.
    chosen_s: f64,
    chosen_bytes: f64,
    spmm8_s: f64,
    t_ref_s: f64,
    model_optimal: FormatId,
    /// Program operations the sweep issued (every output is checked).
    attempted: u64,
}

fn sweep(
    prepared: &Prepared,
    input: &MatrixInput,
    workers: usize,
    partitioned: bool,
    failed: &mut u64,
) -> Swept {
    let x = &input.xs[0];
    let mut y = vec![0.0; input.coo.nrows()];
    let mut y_ref = vec![0.0; input.coo.nrows()];
    let mut y_chosen = vec![0.0; input.coo.nrows()];
    let mut check = |y: &[f64], what: &str| {
        if !matches_rotated(y, &input.ys[0], 0, 1.0) {
            eprintln!("oracle_bench: wrong output from {what}");
            *failed += 1;
        }
    };

    let service = build_service(&prepared.model, workers);
    let m = DynamicMatrix::from(input.coo.clone());
    let chosen = if partitioned { service.register_partitioned(m) } else { service.register(m) }
        .expect("generated inputs register");
    let view = {
        let m = DynamicMatrix::from(input.coo.clone());
        let a = Analysis::of_auto(&m, ConvertOptions::default().true_diag_alpha);
        analyze_from(&m, &a)
    };
    let model_optimal = engine().profile(&view).optimal;

    let mut out = Swept {
        service_s: [None; 8],
        bare_s: [None; 8],
        chosen_s: 0.0,
        chosen_bytes: match chosen.partition() {
            Some(p) => p.shards().iter().map(|s| s.matrix().storage_bytes()).sum::<usize>(),
            None => chosen.matrix().storage_bytes(),
        } as f64,
        spmm8_s: 0.0,
        t_ref_s: 0.0,
        model_optimal,
        attempted: 1 + 12,
    };
    let mut ref_samples = Vec::new();
    for f in ALL_FORMATS {
        let forced = build_service_with(FixedFormat(f), workers);
        let Ok(handle) = forced.register(DynamicMatrix::from(input.coo.clone())) else { continue };
        if handle.format_id() != f {
            continue; // not viable: the service fell back to CSR
        }
        let (plan, matrix) = (handle.plan(), handle.matrix());
        let mut y_bare = vec![0.0; input.coo.nrows()];
        let t = interleaved(
            3,
            8,
            &mut [
                &mut || ref_csr_spmv(&input.reference, x, &mut y_ref),
                &mut || forced.spmv(&handle, x, &mut y).expect("registered handle executes"),
                &mut || plan.spmv_unpooled(matrix, x, &mut y_bare).expect("plan matches its matrix"),
                &mut || service.spmv(&chosen, x, &mut y_chosen).expect("registered handle executes"),
            ],
        );
        check(&y, "forced-format spmv");
        check(&y_bare, "bare plan spmv");
        check(&y_chosen, "selected handle spmv");
        out.attempted += 1 + 3 * 24;
        ref_samples.push(t[0]);
        out.service_s[f.index()] = Some(t[1] / t[0]);
        out.bare_s[f.index()] = Some(t[2] / t[0]);
        out.chosen_s += t[3] / t[0];
    }
    // Ratios were taken against the reference of their own round; fold
    // them back to seconds on one common unit.
    out.t_ref_s = median(&ref_samples);
    let swept = ref_samples.len().max(1) as f64;
    out.chosen_s = out.chosen_s / swept * out.t_ref_s;
    for slot in out.service_s.iter_mut().chain(out.bare_s.iter_mut()) {
        *slot = slot.map(|r| r * out.t_ref_s);
    }

    let xk = input.x_block(8);
    let mut yk = vec![0.0; input.coo.nrows() * 8];
    let t = interleaved(
        3,
        4,
        &mut [&mut || ref_csr_spmv(&input.reference, x, &mut y_ref), &mut || {
            service.spmm(&chosen, &xk, &mut yk, 8).expect("registered handle executes")
        }],
    );
    if !matches_columns(&yk, &input.ys, 8, 0) {
        eprintln!("oracle_bench: wrong output from spmm");
        *failed += 1;
    }
    out.spmm8_s = t[1] / t[0] * out.t_ref_s;
    out
}

/// STREAM-style triad and an indexed gather over `bytes` of working set.
/// Returns `(triad GB/s, gather GB/s)`; bytes are computed from array
/// sizes (triad: two reads and a write; gather: index and value reads).
pub fn calibrate(bytes: usize) -> (f64, f64) {
    let n = (bytes / 24).max(1024);
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let mut a = vec![0.0f64; n];
    let triad = (0..5)
        .map(|_| {
            timed(|| {
                a.iter_mut().zip(b.iter().zip(&c)).for_each(|(a, (b, c))| *a = b + 3.0 * c);
                black_box(&mut a);
            })
            .2
        })
        .fold(f64::MAX, f64::min);
    // A fixed-stride permutation: every element once, never in order.
    let stride = (n / 2 + 1) | 1;
    let idx: Vec<u32> = (0..n).map(|i| ((i as u64 * stride as u64) % n as u64) as u32).collect();
    let gather = (0..5)
        .map(|_| {
            timed(|| {
                let mut acc = 0.0;
                for &i in &idx {
                    acc += b[i as usize];
                }
                black_box(acc);
            })
            .2
        })
        .fold(f64::MAX, f64::min);
    ((24 * n) as f64 / triad / 1e9, (12 * n) as f64 / gather / 1e9)
}

/// Median of `samples` mapped through `f`.
fn p50<T>(samples: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<f64>>())
}

/// What the traced run hands over.
pub struct TracedRun<'a> {
    pub workload: Workload,
    pub prepared: &'a Prepared,
    /// A counted pass with tracing off and the traced pass after it.
    pub untraced: &'a PassStats,
    pub traced: &'a PassStats,
    /// Within-run spread of the four ratio metrics.
    pub spreads: [f64; 4],
}

/// Every per-layer metric, in [`crate::metrics::per_layer`] order, plus
/// operations attempted and failed by the probes.
pub fn per_layer_metrics(run: &TracedRun<'_>, rec: &mut Recorder) -> (Vec<(String, f64)>, u64, u64) {
    let prepared = run.prepared;
    let workers = run.workload.workers();
    let partitioned = matches!(run.workload, Workload::SolverLong | Workload::SolverLongMt);
    let probe = subset(&prepared.inputs, 8);
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        out.insert(name.to_string(), if value.is_finite() { value } else { 0.0 });
    };
    let (mut attempted, mut failed) = (0u64, 0u64);

    // corpus, ml, bench
    set("corpus.gen_s", prepared.gen_s + prepared.model.corpus_s);
    set("ml.fit_s", prepared.model.fit_s);
    set("bench.timer_ns", timer_ns());
    set("bench.passes", 2.0);
    set("bench.ref_iter_ns_p50", median(&run.traced.ref_ns));
    // Same work, spans on over spans off: seconds inside the program.
    let per_op = |st: &PassStats| st.op_s / st.attempted.max(1) as f64;
    set("bench.trace_overhead_ratio", per_op(run.traced) / per_op(run.untraced));
    for (m, s) in crate::metrics::END_TO_END[1..].iter().zip(run.spreads) {
        set(&format!("bench.spread.{}", m.name), s);
    }

    // register, replayed: analysis, machine, features, ml, tuner, convert, plan, serve
    let replays: Vec<Replayed> = probe
        .iter()
        .enumerate()
        .map(|(i, input)| replay_register(prepared, input, 1_000 + i as u64, workers, rec, &mut failed))
        .collect();
    attempted += 3 * replays.len() as u64;
    set("analysis.build_ns_per_nnz_p50", p50(&replays, |r| (r.hash_ns + r.analysis_ns) / r.nnz));
    set("analysis.share_of_register", p50(&replays, |r| (r.hash_ns + r.analysis_ns) / r.real_ns));
    set("machine.analyze_ns_per_nnz_p50", p50(&replays, |r| r.machine_ns / r.nnz));
    set("features.extract_ns_p50", p50(&replays, |r| r.features_ns));
    set("ml.predict_ns_p50", p50(&replays, |r| r.predict_ns));
    set("tuner.select_ns_p50", p50(&replays, |r| r.select_ns));
    set("convert.ref_iters_p50", p50(&replays, |r| r.convert_ns / r.t_ref_ns));
    set("convert.ns_per_nnz_p50", p50(&replays, |r| r.convert_ns / r.nnz));
    set("convert.share_of_register", p50(&replays, |r| r.convert_ns / r.real_ns));
    set("plan.build_ref_iters_p50", p50(&replays, |r| r.plan_ns / r.t_ref_ns));
    set("plan.build_ns_per_row_p50", p50(&replays, |r| r.plan_ns / r.nrows));
    set("serve.register_self_share", p50(&replays, |r| (1.0 - r.covered_ns / r.real_ns).max(0.0)));

    // what the traced pass's registrations realised
    let t = run.traced;
    set("tuner.csr_fallback_ratio", ratio(t.fallbacks as f64, t.registers as f64));
    for f in ALL_FORMATS {
        set(
            &format!("tuner.format_share.{}", f.name()),
            ratio(t.formats[f.index()] as f64, t.registers as f64),
        );
    }
    set("convert.direct_path_ratio", ratio(t.direct_converts as f64, t.converts as f64));
    set("convert.storage_vs_csr_gm", geomean(&t.storage_vs_csr));
    // From the untraced pass: the traced one adds its own cache probes.
    let (decisions, plans) = (run.untraced.decision_cache, run.untraced.plan_cache);
    set("cache.decision_hit_ratio", ratio(decisions.0 as f64, (decisions.0 + decisions.1) as f64));
    set("cache.plan_hit_ratio", ratio(plans.0 as f64, (plans.0 + plans.1) as f64));
    // The serving workloads take the per-call path themselves; elsewhere
    // the replay's probe stands in.
    let hits: Vec<f64> = replays.iter().filter_map(|r| Some(r.hit_path_ns? / r.t_ref_ns)).collect();
    set(
        "cache.hit_path_ref_ratio_p50",
        if t.hit_path_ratio.is_empty() { median(&hits) } else { median(&t.hit_path_ratio) },
    );
    set("cache.repeat_register_ref_iters_p50", p50(&replays, |r| r.repeat_ns / r.t_ref_ns));
    set("serve.request_ref_ratio_p99", percentile(&t.req_ratio, 99.0));
    let during = percentile(&t.reads_during_register, 90.0);
    set("serve.read_during_register_ratio_p90", ratio(during, percentile(&t.reads_clear, 90.0)));

    // solver: the interaction identity applied to every registration seen
    let n = 20.0;
    let tuned: Vec<f64> = t.sessions.iter().map(|s| n / (s.tune_cost + n * s.warm_ratio)).collect();
    set("solver.tuned_speedup_n20_gm", geomean(&tuned));
    set("solver.tuned_speedup_n20_p10", percentile(&tuned, 10.0));
    set("solver.tune_cost_ref_iters_p90", percentile(&t.tune_cost, 90.0));
    set(
        "solver.iter_speedup_gm",
        geomean(&t.sessions.iter().map(|s| 1.0 / s.warm_ratio).collect::<Vec<f64>>()),
    );
    let even: Vec<f64> = t
        .sessions
        .iter()
        .filter(|s| s.warm_ratio < 1.0)
        .map(|s| s.tune_cost / (1.0 - s.warm_ratio))
        .collect();
    set("solver.break_even_iters_p50", median(&even));
    set("solver.never_break_even_ratio", 1.0 - ratio(even.len() as f64, t.sessions.len() as f64));
    set(
        "solver.time_to_answer_ms_p50",
        p50(&t.sessions, |s| (s.tune_cost + n * s.warm_ratio) * s.t_ref_s * 1e3),
    );

    // kernel, tuner and machine model: the forced-format sweep
    let sweeps: Vec<Swept> =
        probe.iter().map(|input| sweep(prepared, input, workers, partitioned, &mut failed)).collect();
    attempted += sweeps.iter().map(|s| s.attempted).sum::<u64>();
    let best = |s: &Swept| {
        let forced = s.service_s.iter().flatten().cloned().fold(f64::MAX, f64::min);
        forced.min(s.chosen_s)
    };
    let regret: Vec<f64> = sweeps.iter().map(|s| s.chosen_s / best(s)).collect();
    set("tuner.regret_gm", geomean(&regret));
    set("tuner.hit_ratio", ratio(regret.iter().filter(|r| **r <= 1.03).count() as f64, regret.len() as f64));
    let rank_hits = sweeps
        .iter()
        .filter(|s| {
            let measured =
                ALL_FORMATS.into_iter().filter(|f| s.service_s[f.index()].is_some()).min_by(|a, b| {
                    s.service_s[a.index()].partial_cmp(&s.service_s[b.index()]).expect("finite timings")
                });
            measured == Some(s.model_optimal)
        })
        .count();
    set("machine.model_rank_hit_ratio", ratio(rank_hits as f64, sweeps.len() as f64));
    for f in ALL_FORMATS {
        let ratios: Vec<f64> =
            sweeps.iter().filter_map(|s| s.bare_s[f.index()].map(|b| b / s.t_ref_s)).collect();
        set(&format!("kernel.spmv_ref_ratio_gm.{}", f.name()), geomean(&ratios));
    }
    let selfs: Vec<f64> = sweeps
        .iter()
        .flat_map(|s| {
            s.service_s.iter().zip(&s.bare_s).filter_map(|(a, b)| Some((a.as_ref()? - b.as_ref()?) * 1e9))
        })
        .collect();
    set("serve.request_self_ns_p50", median(&selfs));
    set(
        "kernel.spmm_k8_ref_ratio_gm",
        geomean(&sweeps.iter().map(|s| s.spmm8_s / (8.0 * s.t_ref_s)).collect::<Vec<_>>()),
    );
    let bytes = |s: &Swept, input: &MatrixInput| {
        s.chosen_bytes + 8.0 * (input.coo.ncols() + input.coo.nrows()) as f64
    };
    let gbs: Vec<f64> = sweeps.iter().zip(&probe).map(|(s, i)| bytes(s, i) / s.chosen_s / 1e9).collect();
    set("kernel.spmv_gbs_p50", median(&gbs));
    let intensity: Vec<f64> =
        sweeps.iter().zip(&probe).map(|(s, i)| 2.0 * i.nnz() as f64 / bytes(s, i)).collect();
    set("kernel.flops_per_byte_p50", median(&intensity));
    let working_set =
        median(&probe.iter().map(|i| i.reference.computed_bytes() as f64).collect::<Vec<f64>>());
    let (triad, gather) = calibrate(working_set as usize);
    set("machine.triad_gbs", triad);
    set("machine.gather_gbs", gather);
    set("kernel.bw_fraction_p50", median(&gbs) / triad);

    // parallel and partition: W pool workers against one
    let w = max_threads();
    let pool = ThreadPool::new(w);
    let dispatch: Vec<f64> = (0..2_000).map(|_| timed(|| pool.run_on_all(&|_| {})).2 * 1e9).collect();
    set("parallel.dispatch_ns_p50", median(&dispatch));
    drop(pool);
    let (mut eff, mut part_speedup, mut admitted) = (Vec::new(), Vec::new(), 0usize);
    let one = build_service(&prepared.model, 1);
    let many = build_service(&prepared.model, w);
    let forced_policy = PartitionPolicy { cost_gate: false, ..PartitionPolicy::default() };
    let sharding = Oracle::builder()
        .engine(engine())
        .tuner(forest_tuner(&prepared.model))
        .workers(w)
        .partition_policy(forced_policy)
        .build_service()
        .expect("engine and tuner set");
    for input in &probe {
        let fresh = || DynamicMatrix::from(input.coo.clone());
        let h1 = one.register(fresh()).expect("generated inputs register");
        let hw = many.register(fresh()).expect("generated inputs register");
        let gated = many.register_partitioned(fresh()).expect("generated inputs register");
        admitted += usize::from(gated.is_partitioned());
        let sharded = sharding.register_partitioned(fresh()).expect("generated inputs register");
        let x = &input.xs[1];
        let (mut ya, mut yb, mut yc) =
            (vec![0.0; input.coo.nrows()], vec![0.0; input.coo.nrows()], vec![0.0; input.coo.nrows()]);
        let t = interleaved(
            3,
            8,
            &mut [
                &mut || one.spmv(&h1, x, &mut ya).expect("registered handle executes"),
                &mut || many.spmv(&hw, x, &mut yb).expect("registered handle executes"),
                &mut || sharding.spmv(&sharded, x, &mut yc).expect("registered handle executes"),
            ],
        );
        attempted += 72;
        failed += [&ya, &yb, &yc].iter().filter(|y| !matches_rotated(y, &input.ys[1], 0, 1.0)).count() as u64;
        eff.push(t[0] / (w as f64 * t[1]));
        if sharded.is_partitioned() {
            part_speedup.push(t[1] / t[2]);
        }
    }
    set("parallel.scaling_eff_gm", geomean(&eff));
    set("partition.admitted_ratio", ratio(admitted as f64, probe.len() as f64));
    set("partition.speedup_gm", geomean(&part_speedup));

    // obs: default tracing against TraceLevel::Off on a read-only loop
    let quiet = Oracle::builder()
        .engine(engine())
        .tuner(forest_tuner(&prepared.model))
        .workers(1)
        .observability(ObsConfig { trace: TraceLevel::Off, ..ObsConfig::default() })
        .build_service()
        .expect("engine and tuner set");
    let overhead: Vec<f64> = probe
        .iter()
        .map(|input| {
            let loud =
                one.register(DynamicMatrix::from(input.coo.clone())).expect("generated inputs register");
            let off =
                quiet.register(DynamicMatrix::from(input.coo.clone())).expect("generated inputs register");
            let (mut ya, mut yb) = (vec![0.0; input.coo.nrows()], vec![0.0; input.coo.nrows()]);
            let t = interleaved(
                5,
                8,
                &mut [
                    &mut || one.spmv(&loud, &input.xs[0], &mut ya).expect("registered handle executes"),
                    &mut || quiet.spmv(&off, &input.xs[0], &mut yb).expect("registered handle executes"),
                ],
            );
            t[0] / t[1]
        })
        .collect();
    set("obs.coarse_overhead_ratio", geomean(&overhead));

    // ingress: the workload's own front door, or one started for the probe
    let own;
    let (ingress, handles): (&Ingress<RandomForestTuner>, Vec<MatrixHandle<f64>>) =
        match prepared.serving.as_ref() {
            Some(serving) if serving.ingress.is_some() => {
                let handles = probe
                    .iter()
                    .map(|input| {
                        serving.service.register(DynamicMatrix::from(input.coo.clone())).expect("registers")
                    })
                    .collect();
                (serving.ingress.as_ref().expect("checked"), handles)
            }
            _ => {
                let service = Arc::new(build_service(&prepared.model, 1));
                let handles = probe
                    .iter()
                    .map(|input| service.register(DynamicMatrix::from(input.coo.clone())).expect("registers"))
                    .collect();
                own = Ingress::start(service, IngressConfig::default());
                (&own, handles)
            }
        };
    let (mut self_ns, mut rt_ratio) = (Vec::new(), Vec::new());
    for (input, handle) in probe.iter().zip(&handles) {
        let service = ingress.service();
        let (mut y, mut y_ref) = (vec![0.0; input.coo.nrows()], vec![0.0; input.coo.nrows()]);
        let mut reply = Vec::new();
        let t = interleaved(
            4,
            8,
            &mut [
                &mut || ref_csr_spmv(&input.reference, &input.xs[0], &mut y_ref),
                &mut || service.spmv(handle, &input.xs[0], &mut y).expect("registered handle executes"),
                &mut || {
                    let ticket =
                        ingress.submit("probe", handle, input.xs[0].clone()).expect("an idle ingress admits");
                    reply = ticket.wait().expect("an idle ingress executes");
                },
            ],
        );
        attempted += 64;
        failed += u64::from(!matches_rotated(&reply, &input.ys[0], 0, 1.0));
        self_ns.push((t[2] - t[1]) * 1e9);
        rt_ratio.push(t[2] / t[0]);
        // A burst of four on one handle: what the coalescer is for.
        for _ in 0..8 {
            let tickets: Vec<_> = (0..4)
                .map(|_| {
                    ingress.submit("probe", handle, input.xs[0].clone()).expect("an idle ingress admits")
                })
                .collect();
            attempted += 4;
            for ticket in tickets {
                let reply = ticket.wait().expect("an idle ingress executes");
                failed += u64::from(!matches_rotated(&reply, &input.ys[0], 0, 1.0));
            }
        }
    }
    set("ingress.roundtrip_self_ns_p50", median(&self_ns));
    set("ingress.roundtrip_ref_ratio_p50", median(&rt_ratio));
    let stats = ingress.stats();
    let metrics = ingress.service().obs_snapshot().metrics;
    let (queue_wait, exec) = (metrics.hist("ingress.queue_wait_ns"), metrics.hist("ingress.exec_ns"));
    set("ingress.queue_wait_ns_p50", queue_wait.p50_ns() as f64);
    set("ingress.queue_wait_ns_p99", queue_wait.p99_ns() as f64);
    set("ingress.exec_ns_p50", exec.p50_ns() as f64);
    set("ingress.coalescing_ratio", stats.coalescing_ratio());
    set("ingress.coalesce_declines", stats.cost_gate_declined as f64);
    set(
        "ingress.shed_ratio",
        ratio((stats.shed_deadline + stats.shed_shutdown) as f64, stats.submitted as f64),
    );
    set(
        "ingress.refused_ratio",
        ratio((stats.rejected_queue_full + stats.rejected_quota) as f64, stats.submitted as f64),
    );

    let ordered = crate::metrics::per_layer()
        .into_iter()
        .map(|(name, _, _)| {
            let value =
                *out.get(&name).unwrap_or_else(|| panic!("per-layer metric {name} was never computed"));
            (name, value)
        })
        .collect();
    (ordered, attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_reports_one_median_per_contender() {
        let (mut a, mut b) = (0u32, 0u32);
        let t = interleaved(2, 3, &mut [&mut || a += 1, &mut || b += 1]);
        assert_eq!((a, b, t.len()), (6, 6, 2));
        assert!(t.iter().all(|s| *s >= 0.0));
    }

    #[test]
    fn calibration_reports_positive_rates() {
        let (triad, gather) = calibrate(1 << 20);
        assert!(triad > 0.0 && gather > 0.0);
    }
}
