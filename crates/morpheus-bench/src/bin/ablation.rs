//! Ablation studies beyond the paper's tables:
//!
//! 1. **Feature importances** per backend class (which of Table I's
//!    features carry the decision — §IV-A's rationale, checked);
//! 2. **Model family comparison**: tuned decision tree vs random forest vs
//!    gradient-boosted trees (§IX names GBTs as future work);
//! 3. **Corpus-size sweep**: accuracy as a function of training-set size
//!    (how many profiled matrices the offline stage actually needs);
//! 4. **Tuner trade-off** (§VI-A): decision cost vs achieved speedup for
//!    run-first / tree / forest on one pair.

use morpheus_bench::report::Table;
use morpheus_bench::{cache_dir_from_env, corpus_spec_from_env, pipeline};
use morpheus_machine::VirtualEngine;
use morpheus_ml::metrics::{accuracy, balanced_accuracy};
use morpheus_ml::{DecisionTree, GbtParams, GradientBoostedTrees, RandomForest, TreeParams};
use morpheus_oracle::{ModelTuner, Oracle, RunFirstTuner, FEATURE_NAMES};

const REPS: f64 = 1000.0;

fn main() {
    let spec = corpus_spec_from_env();
    let cache = cache_dir_from_env();
    let pc = pipeline::profile_corpus_cached(&spec, &cache);
    let n_classes = morpheus::format::FORMAT_COUNT;

    // ------------------------------------------------------------------
    println!("== Ablation 1: random-forest feature importances ==\n");
    let mut t = Table::new(&{
        let mut h = vec!["system/backend"];
        h.extend(FEATURE_NAMES.iter());
        h
    });
    for pi in 0..pc.pairs.len() {
        // Fit fresh (importances live in training-time statistics).
        let train = pipeline::dataset_for_pair(&pc, pi, false);
        let forest = RandomForest::fit(
            &train,
            &morpheus_ml::ForestParams { n_estimators: 30, seed: spec.seed, ..Default::default() },
        )
        .expect("forest fit");
        let imp = forest.feature_importances();
        let mut row = vec![pc.pairs[pi].label()];
        row.extend(imp.iter().map(|v| format!("{:.3}", v)));
        t.row(row);
    }
    println!("{}", t.render());

    // ------------------------------------------------------------------
    println!("== Ablation 2: model families (test accuracy / balanced accuracy, %) ==\n");
    let mut t = Table::new(&["system/backend", "tree", "forest", "gbt"]);
    for pi in 0..pc.pairs.len() {
        let train = pipeline::dataset_for_pair(&pc, pi, false);
        let test = pipeline::dataset_for_pair(&pc, pi, true);
        let seed = spec.seed ^ pi as u64;

        let tree = DecisionTree::fit(&train, &TreeParams { max_depth: Some(16), seed, ..Default::default() })
            .expect("tree fit");
        let forest = pipeline::tuned_forest_cached(&pc, pi, &spec, &cache).model;
        let gbt = GradientBoostedTrees::fit(&train, &GbtParams { n_rounds: 40, ..Default::default() })
            .expect("gbt fit");

        let score = |preds: &[usize]| {
            format!(
                "{:.1}/{:.1}",
                100.0 * accuracy(test.targets(), preds),
                100.0 * balanced_accuracy(test.targets(), preds, n_classes)
            )
        };
        t.row(vec![
            pc.pairs[pi].label(),
            score(&tree.predict_dataset(&test)),
            score(&forest.predict_dataset(&test)),
            score(&gbt.predict_dataset(&test)),
        ]);
    }
    println!("{}", t.render());

    // ------------------------------------------------------------------
    println!("== Ablation 3: training-set size sweep (P3/CUDA) ==\n");
    let pi = pc.pair_index("P3/CUDA").expect("pair exists");
    let train_full = pipeline::dataset_for_pair(&pc, pi, false);
    let test = pipeline::dataset_for_pair(&pc, pi, true);
    let mut t = Table::new(&["train size", "accuracy %", "balanced accuracy %"]);
    for frac in [0.1, 0.25, 0.5, 1.0] {
        let keep = ((train_full.len() as f64 * frac) as usize).max(20);
        let idx: Vec<usize> = (0..keep.min(train_full.len())).collect();
        let sub = train_full.subset(&idx);
        let model = RandomForest::fit(
            &sub,
            &morpheus_ml::ForestParams { n_estimators: 40, seed: spec.seed, ..Default::default() },
        )
        .expect("forest fit");
        let preds = model.predict_dataset(&test);
        t.row(vec![
            sub.len().to_string(),
            format!("{:.2}", 100.0 * accuracy(test.targets(), &preds)),
            format!("{:.2}", 100.0 * balanced_accuracy(test.targets(), &preds, n_classes)),
        ]);
    }
    println!("{}", t.render());

    // ------------------------------------------------------------------
    println!("== Ablation 4: tuner trade-off on Cirrus/CUDA (§VI-A) ==\n");
    let pi = pc.pair_index("Cirrus/CUDA").expect("pair exists");
    let engine = VirtualEngine::for_pair(&pc.pairs[pi]);
    let train = pipeline::dataset_for_pair(&pc, pi, false);
    let tree =
        DecisionTree::fit(&train, &TreeParams { max_depth: Some(16), seed: spec.seed, ..Default::default() })
            .expect("tree fit");

    // Every strategy runs through the same kind of session, so decision
    // costs (conversions + trials for run-first, T_FE + T_PRED for the ML
    // tuners) come from the Oracle's own accounting.
    let mut t = Table::new(&[
        "tuner",
        "mean decision cost (CSR SpMVs)",
        "mean tuned speedup",
        "selection accuracy %",
    ]);
    let evaluate =
        |name: &str, decide: &mut dyn FnMut(usize) -> morpheus_oracle::TuneReport| -> Vec<String> {
            let mut costs = Vec::new();
            let mut speedups = Vec::new();
            let mut hits = 0usize;
            let mut n = 0usize;
            for e in pc.split(true) {
                let profile = &e.profiles[pi];
                let t_csr = profile.csr_time();
                let report = decide(e.id);
                let t_run = profile.times[report.chosen.index()].unwrap_or(t_csr);
                let cost = report.cost.total();
                costs.push(cost / t_csr);
                speedups.push(REPS * t_csr / (cost + REPS * t_run));
                hits += usize::from(report.chosen == profile.optimal);
                n += 1;
            }
            vec![
                name.to_string(),
                format!("{:.0}", costs.iter().sum::<f64>() / costs.len() as f64),
                format!("{:.2}", speedups.iter().sum::<f64>() / speedups.len() as f64),
                format!("{:.1}", 100.0 * hits as f64 / n as f64),
            ]
        };

    // Run-first: pays conversions + 10 trial iterations per viable format,
    // always lands on the optimum.
    let run_first = Oracle::builder()
        .engine(engine.clone())
        .tuner(RunFirstTuner::new(10))
        .build_service()
        .expect("configured");
    t.row(evaluate("run-first(10)", &mut |id| {
        run_first.tune(&mut pipeline::matrix_in_csr(&spec, id)).expect("tune")
    }));

    let tree_session = Oracle::builder()
        .engine(engine.clone())
        .tuner(ModelTuner::new(tree).expect("schema"))
        .build_service()
        .expect("configured");
    t.row(evaluate("decision-tree", &mut |id| {
        tree_session.tune(&mut pipeline::matrix_in_csr(&spec, id)).expect("tune")
    }));

    let forest_session = pipeline::oracle_for_pair(&pc, pi, &spec, &cache);
    t.row(evaluate("random-forest", &mut |id| {
        forest_session.tune(&mut pipeline::matrix_in_csr(&spec, id)).expect("tune")
    }));
    println!("{}", t.render());
    println!("run-first is exact but pays conversions; the tree is cheapest; the forest");
    println!("buys accuracy with a still-negligible prediction cost (§VI-A's trade-off).");
}
