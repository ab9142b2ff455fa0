//! Random-forest classifier.
//!
//! "An ensemble of decision trees ... that effectively fits a number of
//! decision tree classifiers onto different sub-samples of the dataset"
//! (§V). Trees are fitted in parallel (they are independent); prediction
//! uses the majority-voting scheme of §VI-A, with ties broken toward the
//! lower format ID.

use crate::dataset::Dataset;
use crate::tree::{Criterion, DecisionTree, TreeParams};
use crate::{MlError, Result};
use rand::Rng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Hyperparameters of a [`RandomForest`] — the exact knobs of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestParams {
    /// Number of trees ("Estimators").
    pub n_estimators: usize,
    /// Bootstrap sampling of the training set ("Bootstrap").
    pub bootstrap: bool,
    /// Maximum tree depth ("Max Depth").
    pub max_depth: Option<usize>,
    /// Minimum samples per leaf ("Min Samples Leaf").
    pub min_samples_leaf: usize,
    /// Minimum samples to split ("Min Samples Split").
    pub min_samples_split: usize,
    /// Features considered per split ("Max Features"); `None` = √n_features.
    pub max_features: Option<usize>,
    /// Split criterion ("Criterion").
    pub criterion: Criterion,
    /// Balanced bootstrap: each tree's sample draws equally from every
    /// class, implementing the paper's future-work idea of "balancing the
    /// dataset" (§IX) against the CSR-heavy label imbalance of §VII-B.
    /// Requires `bootstrap = true` to have an effect.
    pub balanced_bootstrap: bool,
    /// Master seed; per-tree seeds derive from it.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_estimators: 100,
            bootstrap: true,
            max_depth: None,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_features: None,
            criterion: Criterion::Gini,
            balanced_bootstrap: false,
            seed: 0,
        }
    }
}

/// Draws `n` indices with replacement, stratified so every class present in
/// the dataset contributes (nearly) equally — oversampling the rare formats
/// and undersampling CSR.
fn balanced_sample(ds: &Dataset, n: usize, rng: &mut rand::rngs::StdRng) -> Vec<usize> {
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); ds.n_classes()];
    for (i, &t) in ds.targets().iter().enumerate() {
        by_class[t].push(i);
    }
    let present: Vec<&Vec<usize>> = by_class.iter().filter(|v| !v.is_empty()).collect();
    let per_class = (n / present.len().max(1)).max(1);
    let mut idx = Vec::with_capacity(per_class * present.len());
    for members in present {
        for _ in 0..per_class {
            idx.push(members[rng.gen_range(0..members.len())]);
        }
    }
    idx
}

/// A fitted random forest.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    pub(crate) trees: Vec<DecisionTree>,
    pub(crate) n_features: usize,
    pub(crate) n_classes: usize,
    params: ForestParams,
}

impl RandomForest {
    /// Fits the forest; trees build concurrently but the result is
    /// deterministic (per-tree seeds depend only on `params.seed` and the
    /// tree index).
    pub fn fit(ds: &Dataset, params: &ForestParams) -> Result<Self> {
        if ds.is_empty() {
            return Err(MlError::InvalidData("cannot fit on an empty dataset".into()));
        }
        if params.n_estimators == 0 {
            return Err(MlError::InvalidData("n_estimators must be positive".into()));
        }
        let default_mf = (ds.n_features() as f64).sqrt().round() as usize;
        let max_features = params.max_features.unwrap_or(default_mf.max(1));

        let n_trees = params.n_estimators;
        let slots: Vec<Mutex<Option<Result<DecisionTree>>>> =
            (0..n_trees).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(n_trees);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    if t >= n_trees {
                        break;
                    }
                    let tree_seed = params.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(t as u64);
                    let tree_params = TreeParams {
                        criterion: params.criterion,
                        max_depth: params.max_depth,
                        min_samples_split: params.min_samples_split,
                        min_samples_leaf: params.min_samples_leaf,
                        max_features: Some(max_features),
                        seed: tree_seed ^ 0xABCD,
                    };
                    let result = if params.bootstrap {
                        let mut rng = rand::rngs::StdRng::seed_from_u64(tree_seed);
                        let idx: Vec<usize> = if params.balanced_bootstrap {
                            balanced_sample(ds, ds.len(), &mut rng)
                        } else {
                            (0..ds.len()).map(|_| rng.gen_range(0..ds.len())).collect()
                        };
                        DecisionTree::fit(&ds.subset(&idx), &tree_params)
                    } else {
                        DecisionTree::fit(ds, &tree_params)
                    };
                    *slots[t].lock().expect("slot lock") = Some(result);
                });
            }
        });
        let mut trees = Vec::with_capacity(n_trees);
        for slot in slots {
            trees.push(slot.into_inner().expect("slot lock").expect("worker filled slot")?);
        }
        Ok(RandomForest {
            trees,
            n_features: ds.n_features(),
            n_classes: ds.n_classes(),
            params: params.clone(),
        })
    }

    /// Majority-vote prediction (§VI-A): each tree casts one vote; ties go
    /// to the lower class ID.
    pub fn predict(&self, x: &[f64]) -> usize {
        self.predict_with_path(x).0
    }

    /// [`RandomForest::predict`] and [`RandomForest::decision_path_len`]
    /// from one walk of each tree: the voted class and the nodes visited
    /// across all trees.
    pub fn predict_with_path(&self, x: &[f64]) -> (usize, usize) {
        let mut votes = vec![0usize; self.n_classes];
        let mut visited = 0usize;
        for tree in &self.trees {
            let (class, path) = tree.predict_with_path(x);
            votes[class] += 1;
            visited += path;
        }
        let mut best = 0usize;
        for (c, &v) in votes.iter().enumerate() {
            if v > votes[best] {
                best = c;
            }
        }
        (best, visited)
    }

    /// Per-class vote fractions.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut votes = vec![0.0f64; self.n_classes];
        for tree in &self.trees {
            votes[tree.predict(x)] += 1.0;
        }
        let total = self.trees.len() as f64;
        votes.iter_mut().for_each(|v| *v /= total);
        votes
    }

    /// Predictions for every row of a dataset.
    pub fn predict_dataset(&self, ds: &Dataset) -> Vec<usize> {
        (0..ds.len()).map(|i| self.predict(ds.row(i))).collect()
    }

    /// Total nodes visited across all trees for one prediction — the cost
    /// input of Table IV ("the runtime of the prediction process
    /// proportional to the number of trees used", §VI-A).
    pub fn decision_path_len(&self, x: &[f64]) -> usize {
        self.trees.iter().map(|t| t.decision_path_len(x)).sum()
    }

    /// The fitted trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Mean of the trees' feature importances.
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (slot, v) in imp.iter_mut().zip(tree.feature_importances()) {
                *slot += v;
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            imp.iter_mut().for_each(|v| *v /= total);
        }
        imp
    }

    /// Total node count across trees.
    pub fn n_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.n_nodes()).sum()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of features expected.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The hyperparameters used to fit this forest.
    pub fn params(&self) -> &ForestParams {
        &self.params
    }

    pub(crate) fn from_parts(
        trees: Vec<DecisionTree>,
        n_features: usize,
        n_classes: usize,
        params: ForestParams,
    ) -> Self {
        RandomForest { trees, n_features, n_classes, params }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noisy two-cluster data where single trees overfit the stragglers.
    fn noisy(n: usize) -> Dataset {
        let mut ds = Dataset::empty(3, 2, vec![]).unwrap();
        let mut state = 99u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for i in 0..n {
            let t = i % 2;
            let base = if t == 0 { 0.0 } else { 2.0 };
            ds.push(&[base + rnd(), base + rnd(), rnd() * 4.0], t).unwrap();
        }
        ds
    }

    #[test]
    fn forest_fits_and_predicts() {
        let ds = noisy(300);
        let forest =
            RandomForest::fit(&ds, &ForestParams { n_estimators: 20, ..Default::default() }).unwrap();
        assert_eq!(forest.trees().len(), 20);
        let preds = forest.predict_dataset(&ds);
        let acc = preds.iter().zip(ds.targets()).filter(|(p, t)| p == t).count() as f64 / 300.0;
        assert!(acc > 0.9, "train accuracy {acc}");
    }

    #[test]
    fn deterministic_across_fits() {
        let ds = noisy(150);
        let p = ForestParams { n_estimators: 12, seed: 5, ..Default::default() };
        let f1 = RandomForest::fit(&ds, &p).unwrap();
        let f2 = RandomForest::fit(&ds, &p).unwrap();
        assert_eq!(f1, f2, "parallel fitting must stay deterministic");
    }

    #[test]
    fn different_seeds_differ() {
        let ds = noisy(150);
        let f1 =
            RandomForest::fit(&ds, &ForestParams { n_estimators: 8, seed: 1, ..Default::default() }).unwrap();
        let f2 =
            RandomForest::fit(&ds, &ForestParams { n_estimators: 8, seed: 2, ..Default::default() }).unwrap();
        assert_ne!(f1, f2);
    }

    #[test]
    fn no_bootstrap_uses_full_data() {
        let ds = noisy(100);
        let p = ForestParams {
            n_estimators: 5,
            bootstrap: false,
            max_features: Some(3),
            seed: 3,
            ..Default::default()
        };
        let forest = RandomForest::fit(&ds, &p).unwrap();
        // With identical data and all features, trees may still differ via
        // feature-shuffle order on ties, but predictions should be strong.
        let preds = forest.predict_dataset(&ds);
        let acc = preds.iter().zip(ds.targets()).filter(|(p, t)| p == t).count() as f64 / 100.0;
        assert!(acc > 0.95);
    }

    #[test]
    fn proba_sums_to_one() {
        let ds = noisy(100);
        let forest =
            RandomForest::fit(&ds, &ForestParams { n_estimators: 10, ..Default::default() }).unwrap();
        let p = forest.predict_proba(ds.row(0));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_len_scales_with_estimators() {
        let ds = noisy(200);
        let small =
            RandomForest::fit(&ds, &ForestParams { n_estimators: 5, seed: 1, ..Default::default() }).unwrap();
        let large = RandomForest::fit(&ds, &ForestParams { n_estimators: 50, seed: 1, ..Default::default() })
            .unwrap();
        let x = ds.row(0);
        assert!(large.decision_path_len(x) > small.decision_path_len(x));
    }

    #[test]
    fn rejects_bad_params() {
        let ds = noisy(10);
        assert!(RandomForest::fit(&ds, &ForestParams { n_estimators: 0, ..Default::default() }).is_err());
        let empty = Dataset::empty(3, 2, vec![]).unwrap();
        assert!(RandomForest::fit(&empty, &ForestParams::default()).is_err());
    }

    #[test]
    fn importances_normalised() {
        let ds = noisy(200);
        let forest =
            RandomForest::fit(&ds, &ForestParams { n_estimators: 10, ..Default::default() }).unwrap();
        let imp = forest.feature_importances();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The noise feature (index 2) should matter least.
        assert!(imp[2] < imp[0] && imp[2] < imp[1], "importances {imp:?}");
    }
}

#[cfg(test)]
mod balanced_tests {
    use super::*;
    use crate::metrics::{balanced_accuracy, per_class_recall};

    /// Imbalanced 2-class data (90/10) with weak signal for the minority.
    fn imbalanced(n: usize) -> Dataset {
        let mut ds = Dataset::empty(2, 2, vec![]).unwrap();
        let mut state = 5u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for i in 0..n {
            let t = usize::from(i % 10 == 0);
            // Substantial overlap: under the 90/10 prior the majority-vote
            // forest only flags the far tail as minority, while a balanced
            // prior flags everything past the shift.
            let shift = if t == 1 { 0.45 } else { 0.0 };
            ds.push(&[rnd() + shift, rnd()], t).unwrap();
        }
        ds
    }

    #[test]
    fn balanced_bootstrap_draws_equal_classes() {
        let ds = imbalanced(200);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let idx = balanced_sample(&ds, 200, &mut rng);
        let minority = idx.iter().filter(|&&i| ds.target(i) == 1).count();
        let majority = idx.len() - minority;
        assert_eq!(minority, majority, "balanced sample must draw classes equally");
    }

    #[test]
    fn balanced_forest_improves_minority_recall() {
        // Weak, overlapping minority signal evaluated on a held-out split:
        // the plain forest leans toward the 90% class; the balanced
        // bootstrap trades majority precision for minority recall.
        let (train, test) = imbalanced(2000).stratified_split(0.3, 3);
        let shallow = ForestParams { n_estimators: 40, max_depth: Some(2), seed: 2, ..Default::default() };
        let plain = RandomForest::fit(&train, &shallow).unwrap();
        let balanced =
            RandomForest::fit(&train, &ForestParams { balanced_bootstrap: true, ..shallow.clone() }).unwrap();
        let y_true: Vec<usize> = test.targets().to_vec();
        let recall_plain = per_class_recall(&y_true, &plain.predict_dataset(&test), 2)[1].unwrap();
        let recall_bal = per_class_recall(&y_true, &balanced.predict_dataset(&test), 2)[1].unwrap();
        assert!(
            recall_bal > recall_plain,
            "balanced bootstrap should lift minority recall: {recall_bal:.3} vs {recall_plain:.3}"
        );
        let bacc_plain = balanced_accuracy(&y_true, &plain.predict_dataset(&test), 2);
        let bacc_bal = balanced_accuracy(&y_true, &balanced.predict_dataset(&test), 2);
        assert!(
            bacc_bal >= bacc_plain - 0.02,
            "balanced accuracy should not collapse: {bacc_bal:.3} vs {bacc_plain:.3}"
        );
    }

    #[test]
    fn balanced_flag_is_deterministic() {
        let ds = imbalanced(100);
        let p = ForestParams { n_estimators: 6, balanced_bootstrap: true, seed: 9, ..Default::default() };
        assert_eq!(RandomForest::fit(&ds, &p).unwrap(), RandomForest::fit(&ds, &p).unwrap());
    }
}
