//! The offline stage (Figure 1): profiling runs, feature extraction,
//! dataset assembly and model training — with a disk cache so every
//! experiment binary shares one profiling pass.

use morpheus::format::{FormatId, FORMAT_COUNT};
use morpheus::{ConvertOptions, DynamicMatrix};
use morpheus_corpus::CorpusSpec;
use morpheus_machine::{analyze, systems, ProfileResult, SystemBackend, VirtualEngine};
use morpheus_ml::{Criterion, Dataset, ForestGrid, ForestParams, Model, RandomForest, Scoring};
use morpheus_oracle::{FeatureVector, ModelTuner, Oracle, FEATURE_NAMES, NUM_FEATURES};
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Everything the experiments need about one corpus matrix, per
/// (system, backend) pair.
#[derive(Debug, Clone)]
pub struct ProfiledEntry {
    /// Corpus index.
    pub id: usize,
    /// Corpus name (`class-id`).
    pub name: String,
    /// Structural family.
    pub class_name: String,
    /// Held-out test-set membership.
    pub is_test: bool,
    /// Rows.
    pub nrows: usize,
    /// Non-zeros.
    pub nnz: usize,
    /// Table-I features.
    pub features: [f64; NUM_FEATURES],
    /// Per-pair profiling results (same order as [`ProfiledCorpus::pairs`]).
    pub profiles: Vec<ProfileResult>,
    /// Per-pair feature-extraction time (matrix held in CSR, the common
    /// starting format).
    pub fe_times: Vec<f64>,
}

/// The profiled corpus: the output of Figure 1's offline profiling stage.
#[derive(Debug, Clone)]
pub struct ProfiledCorpus {
    /// The eleven (system, backend) pairs of Table III.
    pub pairs: Vec<SystemBackend>,
    /// One record per corpus matrix.
    pub entries: Vec<ProfiledEntry>,
}

impl ProfiledCorpus {
    /// Index of a pair by its label (e.g. `"P3/CUDA"`).
    pub fn pair_index(&self, label: &str) -> Option<usize> {
        self.pairs.iter().position(|p| p.label() == label)
    }

    /// Entries of the training (or test) split.
    pub fn split(&self, test: bool) -> impl Iterator<Item = &ProfiledEntry> {
        self.entries.iter().filter(move |e| e.is_test == test)
    }
}

/// Profiles every corpus matrix on every pair (parallel across matrices).
pub fn profile_corpus(spec: &CorpusSpec) -> ProfiledCorpus {
    let pairs = systems::all_system_backends();
    let engines: Vec<VirtualEngine> = pairs.iter().map(VirtualEngine::for_pair).collect();
    let n = spec.n_matrices;
    let slots: Vec<Mutex<Option<ProfiledEntry>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(n.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let entry = spec.entry(i);
                let m = DynamicMatrix::from(entry.matrix);
                let analysis = analyze(&m);
                let features = FeatureVector::from_stats(&analysis.stats).0;
                let profiles: Vec<ProfileResult> = engines.iter().map(|e| e.profile(&analysis)).collect();
                let fe_times: Vec<f64> =
                    engines.iter().map(|e| e.feature_extraction_time(FormatId::Csr, &analysis)).collect();
                *slots[i].lock().expect("slot") = Some(ProfiledEntry {
                    id: entry.id,
                    name: entry.name,
                    class_name: entry.class.name().to_string(),
                    is_test: entry.is_test,
                    nrows: analysis.nrows(),
                    nnz: analysis.nnz(),
                    features,
                    profiles,
                    fe_times,
                });
            });
        }
    });
    let entries = slots.into_iter().map(|s| s.into_inner().expect("slot").expect("profiled")).collect();
    ProfiledCorpus { pairs, entries }
}

/// Cached variant of [`profile_corpus`]: results are stored under
/// `cache_dir` keyed by (seed, size) and reused across binaries.
pub fn profile_corpus_cached(spec: &CorpusSpec, cache_dir: &Path) -> ProfiledCorpus {
    let key = format!("profile-{:x}-{}-{}-{}.tsv", spec.seed, spec.n_matrices, spec.min_n, spec.max_n);
    let path = cache_dir.join(key);
    if path.exists() {
        match load_cache(&path) {
            Ok(pc) => return pc,
            Err(e) => eprintln!("note: ignoring stale profile cache {}: {e}", path.display()),
        }
    }
    let pc = profile_corpus(spec);
    if let Err(e) = std::fs::create_dir_all(cache_dir).and_then(|_| save_cache(&path, &pc)) {
        eprintln!("note: could not write profile cache {}: {e}", path.display());
    }
    pc
}

fn save_cache(path: &Path, pc: &ProfiledCorpus) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# morpheus profile cache v1")?;
    writeln!(w, "pairs\t{}", pc.pairs.iter().map(|p| p.label()).collect::<Vec<_>>().join("\t"))?;
    for e in &pc.entries {
        write!(w, "{}\t{}\t{}\t{}\t{}\t{}", e.id, e.name, e.class_name, u8::from(e.is_test), e.nrows, e.nnz)?;
        for f in &e.features {
            write!(w, "\t{f:e}")?;
        }
        for (p, fe) in e.profiles.iter().zip(&e.fe_times) {
            write!(w, "\t{}", p.optimal.index())?;
            write!(w, "\t{fe:e}")?;
            for t in &p.times {
                match t {
                    Some(v) => write!(w, "\t{v:e}")?,
                    None => write!(w, "\tx")?,
                }
            }
        }
        writeln!(w)?;
    }
    Ok(())
}

fn load_cache(path: &Path) -> std::io::Result<ProfiledCorpus> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let file = std::fs::File::open(path)?;
    let mut lines = std::io::BufReader::new(file).lines();
    let header = lines.next().ok_or_else(|| bad("empty cache"))??;
    if !header.starts_with("# morpheus profile cache v1") {
        return Err(bad("wrong cache version"));
    }
    let pair_line = lines.next().ok_or_else(|| bad("missing pairs line"))??;
    let labels: Vec<&str> = pair_line.split('\t').skip(1).collect();
    let all_pairs = systems::all_system_backends();
    let mut pairs = Vec::new();
    for l in &labels {
        let p = all_pairs.iter().find(|p| p.label() == *l).ok_or_else(|| bad("unknown pair label"))?;
        pairs.push(p.clone());
    }
    let np = pairs.len();
    let mut entries = Vec::new();
    for line in lines {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let t: Vec<&str> = line.split('\t').collect();
        let fixed = 6 + NUM_FEATURES;
        if t.len() != fixed + np * (2 + FORMAT_COUNT) {
            return Err(bad("bad cache row width"));
        }
        let parse_f = |s: &str| s.parse::<f64>().map_err(|_| bad("bad float"));
        let mut features = [0.0; NUM_FEATURES];
        for (k, slot) in features.iter_mut().enumerate() {
            *slot = parse_f(t[6 + k])?;
        }
        let mut profiles = Vec::with_capacity(np);
        let mut fe_times = Vec::with_capacity(np);
        for p in 0..np {
            let base = fixed + p * (2 + FORMAT_COUNT);
            let optimal = FormatId::from_index(t[base].parse().map_err(|_| bad("bad optimal"))?)
                .ok_or_else(|| bad("bad optimal id"))?;
            fe_times.push(parse_f(t[base + 1])?);
            let mut times = [None; FORMAT_COUNT];
            for (f, slot) in times.iter_mut().enumerate() {
                let s = t[base + 2 + f];
                if s != "x" {
                    *slot = Some(parse_f(s)?);
                }
            }
            profiles.push(ProfileResult { times, optimal });
        }
        entries.push(ProfiledEntry {
            id: t[0].parse().map_err(|_| bad("bad id"))?,
            name: t[1].to_string(),
            class_name: t[2].to_string(),
            is_test: t[3] == "1",
            nrows: t[4].parse().map_err(|_| bad("bad nrows"))?,
            nnz: t[5].parse().map_err(|_| bad("bad nnz"))?,
            features,
            profiles,
            fe_times,
        });
    }
    Ok(ProfiledCorpus { pairs, entries })
}

/// Builds the classification dataset for one pair from the profiled corpus
/// (features → optimal format ID), restricted to the train or test split.
pub fn dataset_for_pair(pc: &ProfiledCorpus, pair_idx: usize, test: bool) -> Dataset {
    let mut ds =
        Dataset::empty(NUM_FEATURES, FORMAT_COUNT, FEATURE_NAMES.iter().map(|s| s.to_string()).collect())
            .expect("static shape");
    for e in pc.split(test) {
        ds.push(&e.features, e.profiles[pair_idx].optimal.index()).expect("valid row");
    }
    ds
}

/// The reduced grid the harness tunes with by default (the paper's
/// exhaustive space is hours of compute; `sparse_tree --full-grid` runs the
/// full one).
pub fn quick_grid() -> ForestGrid {
    ForestGrid {
        n_estimators: vec![20, 40],
        max_depth: vec![Some(12), Some(18)],
        min_samples_leaf: vec![1, 2],
        min_samples_split: vec![2],
        max_features: vec![Some(4), Some(10)],
        criterion: vec![Criterion::Gini, Criterion::Entropy],
        bootstrap: vec![true],
    }
}

/// A tuned model for one pair plus its provenance (Table III row material).
#[derive(Debug, Clone)]
pub struct TunedModel {
    /// Winning hyperparameters.
    pub params: ForestParams,
    /// The refitted winner.
    pub model: RandomForest,
    /// Mean 5-fold CV balanced accuracy of the winner.
    pub cv_score: f64,
}

/// Trains (or loads from cache) the tuned forest for one pair. The cache
/// key covers the corpus identity and the pair label, so all experiment
/// binaries share one training run per pair.
pub fn tuned_forest_cached(
    pc: &ProfiledCorpus,
    pair_idx: usize,
    spec: &CorpusSpec,
    cache_dir: &Path,
) -> TunedModel {
    let pair = &pc.pairs[pair_idx];
    let key = format!(
        "tuned-{:x}-{}-{}.model",
        spec.seed,
        spec.n_matrices,
        pair.label().to_ascii_lowercase().replace('/', "_")
    );
    let path = cache_dir.join(&key);
    let meta_path = cache_dir.join(format!("{key}.meta"));
    if let (Ok(file), Ok(meta)) = (std::fs::File::open(&path), std::fs::read_to_string(&meta_path)) {
        if let Ok(Model::Forest(model)) = morpheus_ml::serialize::load_model(std::io::BufReader::new(file)) {
            // A model trained under an older feature/format schema (e.g.
            // before a new format or feature landed) is stale, not corrupt:
            // retrain instead of letting the tuner reject it downstream.
            if model.n_features() == NUM_FEATURES && model.n_classes() == FORMAT_COUNT {
                if let Some(tm) = parse_meta(&meta, model) {
                    return tm;
                }
            }
        }
        eprintln!("note: ignoring stale model cache {}", path.display());
    }
    let train = dataset_for_pair(pc, pair_idx, false);
    let (params, model, cv_score) = train_tuned_forest(&train, spec.seed ^ pair_idx as u64);
    let _ = std::fs::create_dir_all(cache_dir);
    if let Ok(file) = std::fs::File::create(&path) {
        let _ = morpheus_ml::serialize::save_model(&mut BufWriter::new(file), &Model::Forest(model.clone()));
        let _ = std::fs::write(&meta_path, render_meta(&params, cv_score));
    }
    TunedModel { params, model, cv_score }
}

fn render_meta(p: &ForestParams, cv: f64) -> String {
    format!(
        "n_estimators {}\nbootstrap {}\nmax_depth {}\nmin_samples_leaf {}\nmin_samples_split {}\nmax_features {}\ncriterion {}\nseed {}\ncv_score {cv:e}\n",
        p.n_estimators,
        p.bootstrap,
        p.max_depth.map_or(-1i64, |d| d as i64),
        p.min_samples_leaf,
        p.min_samples_split,
        p.max_features.map_or(-1i64, |d| d as i64),
        p.criterion.name(),
        p.seed,
    )
}

fn parse_meta(meta: &str, model: RandomForest) -> Option<TunedModel> {
    let mut map = std::collections::HashMap::new();
    for line in meta.lines() {
        let mut it = line.split_whitespace();
        let k = it.next()?;
        let v = it.next()?;
        map.insert(k.to_string(), v.to_string());
    }
    let opt = |v: i64| if v < 0 { None } else { Some(v as usize) };
    let params = ForestParams {
        n_estimators: map.get("n_estimators")?.parse().ok()?,
        bootstrap: map.get("bootstrap")?.parse().ok()?,
        max_depth: opt(map.get("max_depth")?.parse().ok()?),
        min_samples_leaf: map.get("min_samples_leaf")?.parse().ok()?,
        min_samples_split: map.get("min_samples_split")?.parse().ok()?,
        max_features: opt(map.get("max_features")?.parse().ok()?),
        criterion: Criterion::from_name(map.get("criterion")?)?,
        balanced_bootstrap: false,
        seed: map.get("seed")?.parse().ok()?,
    };
    let cv_score: f64 = map.get("cv_score")?.parse().ok()?;
    Some(TunedModel { params, model, cv_score })
}

/// Opens an [`Oracle`] tuning session for one pair, driven by that pair's
/// tuned (cached) random forest. This is what the experiment binaries use
/// for every "online stage" measurement, so they exercise the exact API a
/// production caller would.
pub fn oracle_for_pair(
    pc: &ProfiledCorpus,
    pair_idx: usize,
    spec: &CorpusSpec,
    cache_dir: &Path,
) -> Oracle<ModelTuner> {
    let tuned = tuned_forest_cached(pc, pair_idx, spec, cache_dir);
    let tuner = ModelTuner::new(tuned.model).expect("tuned model matches the feature schema");
    Oracle::builder()
        .engine(VirtualEngine::for_pair(&pc.pairs[pair_idx]))
        .tuner(tuner)
        // Size the cache for the corpus stream so repeated sweeps (fig5,
        // table4's cached pass) hit instead of thrashing the LRU.
        .cache_capacity(pc.entries.len().max(morpheus_oracle::DEFAULT_CACHE_CAPACITY))
        .build_service()
        .expect("engine and tuner are set")
}

/// Regenerates one profiled entry's matrix, held in CSR — the common
/// starting format of the paper's online-stage measurements (Table IV).
pub fn matrix_in_csr(spec: &CorpusSpec, entry_id: usize) -> DynamicMatrix<f64> {
    let mut m = DynamicMatrix::from(spec.entry(entry_id).matrix);
    m.convert_to(FormatId::Csr, &ConvertOptions::default()).expect("CSR always materialises");
    m
}

/// The baseline (untuned) forest of Table III's left sub-columns:
/// scikit-learn-style defaults.
pub fn baseline_params(seed: u64) -> ForestParams {
    ForestParams { n_estimators: 100, seed, ..Default::default() }
}

/// Trains the tuned forest for one pair with the quick grid and 5-fold CV,
/// selecting on balanced accuracy (§VII-D).
pub fn train_tuned_forest(train: &Dataset, seed: u64) -> (ForestParams, RandomForest, f64) {
    let out = morpheus_ml::grid::grid_search_forest(train, &quick_grid(), 5, seed, Scoring::BalancedAccuracy)
        .expect("training set is non-empty");
    (out.best_params, out.best_model, out.best_cv_score)
}

/// Distribution of optimal formats for one pair, as percentages in
/// [`ALL_FORMATS`](morpheus::format::ALL_FORMATS) order (Figure 2's y-axis).
pub fn format_distribution(pc: &ProfiledCorpus, pair_idx: usize) -> [f64; FORMAT_COUNT] {
    let mut counts = [0usize; FORMAT_COUNT];
    for e in &pc.entries {
        counts[e.profiles[pair_idx].optimal.index()] += 1;
    }
    let total = pc.entries.len().max(1) as f64;
    let mut out = [0.0; FORMAT_COUNT];
    for (o, c) in out.iter_mut().zip(counts) {
        *o = 100.0 * c as f64 / total;
    }
    out
}

/// Speedups of the optimal format over CSR for one pair, excluding
/// CSR-optimal matrices ("matrices with optimal format set to CSR are
/// omitted for clarity", Figures 3 and 4).
pub fn optimal_speedups(pc: &ProfiledCorpus, pair_idx: usize) -> Vec<f64> {
    pc.entries
        .iter()
        .filter(|e| e.profiles[pair_idx].optimal != FormatId::Csr)
        .map(|e| e.profiles[pair_idx].optimal_speedup())
        .collect()
}

/// Convenience: all format names in ID order (registry-driven, so new
/// formats show up as bench columns without edits here).
pub fn format_names() -> Vec<&'static str> {
    morpheus::FormatEntry::all().iter().map(|e| e.id.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_corpus::CorpusSpec;

    fn tiny() -> CorpusSpec {
        CorpusSpec::small(24)
    }

    #[test]
    fn profile_corpus_shapes() {
        let pc = profile_corpus(&tiny());
        assert_eq!(pc.pairs.len(), 11);
        assert_eq!(pc.entries.len(), 24);
        for e in &pc.entries {
            assert_eq!(e.profiles.len(), 11);
            assert_eq!(e.fe_times.len(), 11);
            assert!(e.nnz > 0);
            assert!(e.features.iter().all(|f| f.is_finite()));
        }
    }

    #[test]
    fn cache_roundtrip() {
        let spec = tiny();
        let dir = std::env::temp_dir().join(format!("morpheus-bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = profile_corpus_cached(&spec, &dir);
        let b = profile_corpus_cached(&spec, &dir); // now from cache
        assert_eq!(a.entries.len(), b.entries.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.is_test, y.is_test);
            assert_eq!(x.features, y.features);
            for (px, py) in x.profiles.iter().zip(&y.profiles) {
                assert_eq!(px.optimal, py.optimal);
                for (tx, ty) in px.times.iter().zip(&py.times) {
                    match (tx, ty) {
                        (Some(a), Some(b)) => assert!((a - b).abs() <= 1e-18 + 1e-12 * a.abs()),
                        (None, None) => {}
                        _ => panic!("viability mismatch"),
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oracle_session_serves_the_profiled_corpus() {
        let spec = tiny();
        let dir = std::env::temp_dir().join(format!("morpheus-bench-oracle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pc = profile_corpus_cached(&spec, &dir);
        let oracle = oracle_for_pair(&pc, 0, &spec, &dir);
        for e in pc.split(true) {
            let mut m = matrix_in_csr(&spec, e.id);
            let report = oracle.tune(&mut m).expect("tune");
            assert_eq!(m.format_id(), report.chosen);
            assert!(!report.cache_hit, "distinct corpus matrices must not collide");
        }
        assert!(oracle.cache_stats().misses > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn datasets_split_cleanly() {
        let pc = profile_corpus(&tiny());
        let train = dataset_for_pair(&pc, 0, false);
        let test = dataset_for_pair(&pc, 0, true);
        assert_eq!(train.len() + test.len(), 24);
        assert!(train.len() > test.len());
    }

    #[test]
    fn distribution_sums_to_hundred() {
        let pc = profile_corpus(&tiny());
        for p in 0..pc.pairs.len() {
            let d = format_distribution(&pc, p);
            assert!((d.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn speedups_are_at_least_one() {
        let pc = profile_corpus(&tiny());
        for p in 0..pc.pairs.len() {
            for s in optimal_speedups(&pc, p) {
                assert!(s >= 1.0, "speedup {s} < 1");
            }
        }
    }
}
