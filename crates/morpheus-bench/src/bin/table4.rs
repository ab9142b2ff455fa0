//! Table IV: runtime cost of the auto-tuner, in CSR-SpMV equivalents
//! (§VII-E).
//!
//! For every test-set matrix: `(T_FE + T_PRED) / T_CSR` — how many CSR SpMV
//! iterations the tuning stage costs. The paper reports means of 2-64
//! across pairs, Q3 below 100 everywhere, and notes that GPU backends pay
//! only a few repetitions while OpenMP pays the most.
//!
//! Costs come straight from [`morpheus_oracle::Oracle`] reports (each test
//! matrix regenerated in CSR and tuned through the session). A second tuning
//! sweep over the same stream shows the session's decision cache driving
//! the amortised cost to zero — the production picture for repeated
//! traffic.

use morpheus_bench::report::{sample_stats, Table};
use morpheus_bench::{cache_dir_from_env, corpus_spec_from_env, pipeline};

fn main() {
    let spec = corpus_spec_from_env();
    let cache = cache_dir_from_env();
    let pc = pipeline::profile_corpus_cached(&spec, &cache);

    println!("== Table IV: auto-tuner cost, in equivalent CSR SpMV operations ==");
    println!("cost = (T_FE + T_PRED) / T_CSR, per test-set matrix\n");

    let mut table =
        Table::new(&["system/backend", "mean", "std", "min", "q1", "q2", "q3", "max", "2nd pass (cached)"]);
    for pi in 0..pc.pairs.len() {
        let oracle = pipeline::oracle_for_pair(&pc, pi, &spec, &cache);
        let mut costs = Vec::new();
        for e in pc.split(true) {
            let t_csr = e.profiles[pi].csr_time();
            let mut m = pipeline::matrix_in_csr(&spec, e.id);
            let report = oracle.tune(&mut m).expect("tune");
            costs.push((report.cost.feature_extraction + report.cost.prediction) / t_csr);
        }
        // The same traffic again: structurally identical matrices are
        // answered from the decision cache at zero tuning cost.
        let mut cached_costs = 0.0;
        let mut cached_hits = 0usize;
        for e in pc.split(true) {
            let t_csr = e.profiles[pi].csr_time();
            let mut m = pipeline::matrix_in_csr(&spec, e.id);
            let report = oracle.tune(&mut m).expect("tune");
            cached_costs += report.cost.total() / t_csr;
            cached_hits += usize::from(report.cache_hit);
        }
        let s = sample_stats(&costs);
        table.row(vec![
            pc.pairs[pi].label(),
            format!("{:.0}", s.mean),
            format!("{:.0}", s.std),
            format!("{:.0}", s.min),
            format!("{:.0}", s.q1),
            format!("{:.0}", s.q2),
            format!("{:.0}", s.q3),
            format!("{:.0}", s.max),
            format!("{:.0} ({} hits)", cached_costs, cached_hits),
        ]);
    }
    println!("{}", table.render());
    println!("paper reference: means 2-64, Q3 <= 100 for at least 75% of matrices,");
    println!("OpenMP pairs the most expensive, GPU pairs only a few repetitions;");
    println!("the cached second pass shows the session amortising all of it.");
}
