//! Figure 5: end-to-end speedup from adopting the auto-tuner (§VII-F).
//!
//! `Speedup = T_CSR / (T_FE + T_PRED + T_OPT)` over 1000 SpMV repetitions
//! with the format *predicted* by the tuned random forest (Equation 2).
//! The paper reports ≈1.1x average on CPUs (max 7x on A64FX), 1.5x on the
//! A100, 3x on the V100 and 8x on the MI100, with the tuned average
//! matching the oracle-optimal average — i.e. tuning overheads amortise
//! within the 1000 iterations.
//!
//! The online stage runs through the public [`morpheus_oracle::Oracle`]
//! session: every test matrix is regenerated in CSR and tuned by the
//! session, whose report supplies both the selected format (CSR fallback
//! included) and the `T_FE + T_PRED` decision cost.

use morpheus_bench::report::{sample_stats, Table};
use morpheus_bench::{cache_dir_from_env, corpus_spec_from_env, pipeline};

const REPS: f64 = 1000.0;

fn main() {
    let spec = corpus_spec_from_env();
    let cache = cache_dir_from_env();
    let pc = pipeline::profile_corpus_cached(&spec, &cache);

    println!("== Figure 5: tuned SpMV speedup vs CSR (1000 repetitions, test set) ==\n");
    let mut table = Table::new(&[
        "system/backend",
        "n",
        "mean tuned",
        "mean optimal",
        "min",
        "max",
        "<0.95x",
        "mispredicted",
    ]);

    for pi in 0..pc.pairs.len() {
        let oracle = pipeline::oracle_for_pair(&pc, pi, &spec, &cache);
        let mut speedups = Vec::new();
        let mut optimal_speedups = Vec::new();
        let mut mispredicted = 0usize;
        for e in pc.split(true) {
            let profile = &e.profiles[pi];
            let t_csr = profile.csr_time();
            let mut m = pipeline::matrix_in_csr(&spec, e.id);
            let report = oracle.tune(&mut m).expect("tuning never fails on corpus matrices");
            // A prediction for a non-viable format has already fallen back
            // to CSR inside the session.
            let t_run_format = profile.times[report.chosen.index()].unwrap_or(t_csr);
            if report.chosen != profile.optimal {
                mispredicted += 1;
            }
            let t_decide = report.cost.feature_extraction + report.cost.prediction;
            let speedup = (REPS * t_csr) / (t_decide + REPS * t_run_format);
            speedups.push(speedup);
            optimal_speedups.push(t_csr / profile.optimal_time());
        }
        let s = sample_stats(&speedups);
        let so = sample_stats(&optimal_speedups);
        let below = speedups.iter().filter(|&&v| v < 0.95).count();
        table.row(vec![
            pc.pairs[pi].label(),
            speedups.len().to_string(),
            format!("{:.2}", s.mean),
            format!("{:.2}", so.mean),
            format!("{:.2}", s.min),
            format!("{:.1}", s.max),
            below.to_string(),
            mispredicted.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("paper reference: CPU means ~1.1x (max 7x on A64FX); GPU means 1.5x (A100),");
    println!("3x (V100) and 8x (MI100); tuned mean ~= optimal mean (overheads amortised);");
    println!("mis-classifications appear as speedups below 1.");
}
