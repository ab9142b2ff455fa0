//! Gradient-boosted decision trees — the paper's "further work" extension.
//!
//! §IX: "we will explore ways of further improving the accuracy of our
//! models either through balancing the dataset or other ML methods such as
//! gradient-boosted decision trees." This module implements multi-class
//! boosting with the softmax (multinomial deviance) loss: each round fits
//! one shallow regression tree per class on the gradient residuals and
//! applies a Newton-style leaf update.

use crate::dataset::Dataset;
use crate::{MlError, Result};

/// Hyperparameters of [`GradientBoostedTrees`].
#[derive(Debug, Clone, PartialEq)]
pub struct GbtParams {
    /// Boosting rounds (each fits `n_classes` regression trees).
    pub n_rounds: usize,
    /// Shrinkage applied to every leaf update.
    pub learning_rate: f64,
    /// Depth of the per-round regression trees.
    pub max_depth: usize,
    /// Minimum samples per regression leaf.
    pub min_samples_leaf: usize,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams { n_rounds: 50, learning_rate: 0.1, max_depth: 4, min_samples_leaf: 3 }
    }
}

/// Node of a regression tree (flattened). `pub(crate)` so the
/// [`crate::serialize`] module can round-trip fitted ensembles through the
/// model-file format.
#[derive(Debug, Clone)]
pub(crate) enum RNode {
    Split { feature: usize, threshold: f64, left: usize, right: usize },
    Leaf { value: f64 },
}

/// A shallow regression tree fitted to residuals (squared-error splits,
/// Newton leaf values supplied by the caller).
#[derive(Debug, Clone)]
pub(crate) struct RegressionTree {
    pub(crate) nodes: Vec<RNode>,
}

struct RegBuilder<'a> {
    ds: &'a Dataset,
    gradients: &'a [f64],
    hessians: &'a [f64],
    max_depth: usize,
    min_samples_leaf: usize,
    nodes: Vec<RNode>,
}

impl<'a> RegBuilder<'a> {
    fn leaf_value(&self, idx: &[usize]) -> f64 {
        // Newton step: sum(g) / sum(h), guarded against tiny curvature.
        let g: f64 = idx.iter().map(|&i| self.gradients[i]).sum();
        let h: f64 = idx.iter().map(|&i| self.hessians[i]).sum();
        if h.abs() < 1e-12 {
            0.0
        } else {
            (g / h).clamp(-4.0, 4.0)
        }
    }

    fn build(&mut self, idx: &mut [usize], depth: usize) -> usize {
        let n = idx.len();
        if depth >= self.max_depth || n < 2 * self.min_samples_leaf {
            let value = self.leaf_value(idx);
            self.nodes.push(RNode::Leaf { value });
            return self.nodes.len() - 1;
        }
        // Best squared-error split on the gradient targets.
        let total_g: f64 = idx.iter().map(|&i| self.gradients[i]).sum();
        let mut best: Option<(usize, f64, f64)> = None; // feature, threshold, score
        let mut sorted = idx.to_vec();
        for f in 0..self.ds.n_features() {
            sorted.sort_unstable_by(|&a, &b| {
                self.ds.value(a, f).partial_cmp(&self.ds.value(b, f)).expect("finite features")
            });
            let mut left_g = 0.0;
            for s in 1..n {
                left_g += self.gradients[sorted[s - 1]];
                let v_prev = self.ds.value(sorted[s - 1], f);
                let v_next = self.ds.value(sorted[s], f);
                if v_prev == v_next || s < self.min_samples_leaf || n - s < self.min_samples_leaf {
                    continue;
                }
                // Variance-reduction proxy: maximise sum of squared child
                // means weighted by size.
                let right_g = total_g - left_g;
                let score = left_g * left_g / s as f64 + right_g * right_g / (n - s) as f64;
                if best.is_none_or(|(_, _, b)| score > b) {
                    best = Some((f, v_prev + 0.5 * (v_next - v_prev), score));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            let value = self.leaf_value(idx);
            self.nodes.push(RNode::Leaf { value });
            return self.nodes.len() - 1;
        };
        let mut l = 0usize;
        let mut r = idx.len();
        while l < r {
            if self.ds.value(idx[l], feature) <= threshold {
                l += 1;
            } else {
                r -= 1;
                idx.swap(l, r);
            }
        }
        if l == 0 || l == n {
            let value = self.leaf_value(idx);
            self.nodes.push(RNode::Leaf { value });
            return self.nodes.len() - 1;
        }
        let me = self.nodes.len();
        self.nodes.push(RNode::Leaf { value: 0.0 });
        let (left_idx, right_idx) = idx.split_at_mut(l);
        let left = self.build(left_idx, depth + 1);
        let right = self.build(right_idx, depth + 1);
        self.nodes[me] = RNode::Split { feature, threshold, left, right };
        me
    }
}

impl RegressionTree {
    /// The leaf value for one feature vector and the nodes visited to reach
    /// it, counting the leaf (the convention of
    /// [`crate::DecisionTree::decision_path_len`]).
    fn walk(&self, x: &[f64]) -> (f64, usize) {
        let mut node = 0usize;
        let mut visited = 1usize;
        loop {
            match &self.nodes[node] {
                RNode::Split { feature, threshold, left, right } => {
                    node = if x[*feature] <= *threshold { *left } else { *right };
                    visited += 1;
                }
                RNode::Leaf { value } => return (*value, visited),
            }
        }
    }
}

/// A fitted multi-class gradient-boosted tree ensemble.
#[derive(Debug, Clone)]
pub struct GradientBoostedTrees {
    /// `rounds x n_classes` regression trees.
    pub(crate) trees: Vec<Vec<RegressionTree>>,
    /// Per-class prior (log of class frequency).
    pub(crate) priors: Vec<f64>,
    pub(crate) n_features: usize,
    pub(crate) n_classes: usize,
    pub(crate) params: GbtParams,
}

impl GradientBoostedTrees {
    /// Fits the ensemble with softmax boosting.
    pub fn fit(ds: &Dataset, params: &GbtParams) -> Result<Self> {
        if ds.is_empty() {
            return Err(MlError::InvalidData("cannot fit on an empty dataset".into()));
        }
        if params.n_rounds == 0 {
            return Err(MlError::InvalidData("n_rounds must be positive".into()));
        }
        let n = ds.len();
        let k = ds.n_classes();
        let counts = ds.class_counts();
        let priors: Vec<f64> = counts.iter().map(|&c| (((c as f64) + 1.0) / ((n + k) as f64)).ln()).collect();

        // Raw scores F[i][c], initialised to the priors.
        let mut scores = vec![0.0f64; n * k];
        for i in 0..n {
            scores[i * k..(i + 1) * k].copy_from_slice(&priors);
        }

        let mut all_trees = Vec::with_capacity(params.n_rounds);
        let mut grad = vec![0.0f64; n];
        let mut hess = vec![0.0f64; n];
        for _round in 0..params.n_rounds {
            // Softmax probabilities per sample.
            let mut probs = vec![0.0f64; n * k];
            for i in 0..n {
                let row = &scores[i * k..(i + 1) * k];
                let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mut z = 0.0;
                for c in 0..k {
                    let e = (row[c] - m).exp();
                    probs[i * k + c] = e;
                    z += e;
                }
                for c in 0..k {
                    probs[i * k + c] /= z;
                }
            }
            let mut round_trees = Vec::with_capacity(k);
            for c in 0..k {
                for i in 0..n {
                    let y = f64::from(ds.target(i) == c);
                    let p = probs[i * k + c];
                    grad[i] = y - p;
                    hess[i] = (p * (1.0 - p)).max(1e-6);
                }
                let mut builder = RegBuilder {
                    ds,
                    gradients: &grad,
                    hessians: &hess,
                    max_depth: params.max_depth,
                    min_samples_leaf: params.min_samples_leaf,
                    nodes: Vec::new(),
                };
                let mut idx: Vec<usize> = (0..n).collect();
                builder.build(&mut idx, 0);
                let tree = RegressionTree { nodes: builder.nodes };
                for i in 0..n {
                    scores[i * k + c] += params.learning_rate * tree.walk(ds.row(i)).0;
                }
                round_trees.push(tree);
            }
            all_trees.push(round_trees);
        }
        Ok(GradientBoostedTrees {
            trees: all_trees,
            priors,
            n_features: ds.n_features(),
            n_classes: k,
            params: params.clone(),
        })
    }

    /// Raw (log-odds) scores for one feature vector.
    pub fn decision_scores(&self, x: &[f64]) -> Vec<f64> {
        self.scores_with_path(x).0
    }

    /// The scores and the regression-tree nodes visited computing them.
    fn scores_with_path(&self, x: &[f64]) -> (Vec<f64>, usize) {
        debug_assert_eq!(x.len(), self.n_features);
        let mut scores = self.priors.clone();
        let mut visited = 0usize;
        for round in &self.trees {
            for (c, tree) in round.iter().enumerate() {
                let (value, path) = tree.walk(x);
                scores[c] += self.params.learning_rate * value;
                visited += path;
            }
        }
        (scores, visited)
    }

    /// Predicted class (argmax of scores).
    pub fn predict(&self, x: &[f64]) -> usize {
        self.predict_with_path(x).0
    }

    /// [`GradientBoostedTrees::predict`] and
    /// [`GradientBoostedTrees::decision_path_len`] from one walk of each
    /// regression tree.
    pub fn predict_with_path(&self, x: &[f64]) -> (usize, usize) {
        let (scores, visited) = self.scores_with_path(x);
        let mut best = 0;
        for (c, &s) in scores.iter().enumerate() {
            if s > scores[best] {
                best = c;
            }
        }
        (best, visited)
    }

    /// Predictions for every row of a dataset.
    pub fn predict_dataset(&self, ds: &Dataset) -> Vec<usize> {
        (0..ds.len()).map(|i| self.predict(ds.row(i))).collect()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of features the ensemble expects.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Boosting rounds held (each contributes `n_classes` regression
    /// trees to a prediction).
    pub fn n_rounds(&self) -> usize {
        self.trees.len()
    }

    /// Total regression-tree nodes visited for one prediction — the
    /// ensemble analogue of [`crate::DecisionTree::decision_path_len`],
    /// used by prediction-cost models.
    pub fn decision_path_len(&self, x: &[f64]) -> usize {
        self.trees.iter().flatten().map(|t| t.walk(x).1).sum()
    }

    /// The hyperparameters used to fit this ensemble.
    pub fn params(&self) -> &GbtParams {
        &self.params
    }

    /// Reassembles an ensemble from deserialized parts (the inverse of
    /// [`crate::serialize::save_gbt`]). Only the learning rate of `params`
    /// affects predictions; the remaining hyperparameters are metadata.
    pub(crate) fn from_parts(
        trees: Vec<Vec<RegressionTree>>,
        priors: Vec<f64>,
        n_features: usize,
        n_classes: usize,
        params: GbtParams,
    ) -> Self {
        GradientBoostedTrees { trees, priors, n_features, n_classes, params }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_class(n: usize) -> Dataset {
        let mut ds = Dataset::empty(2, 3, vec![]).unwrap();
        let mut state = 42u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for i in 0..n {
            let t = i % 3;
            let (cx, cy) = match t {
                0 => (0.0, 0.0),
                1 => (3.0, 0.0),
                _ => (1.5, 3.0),
            };
            ds.push(&[cx + rnd(), cy + rnd()], t).unwrap();
        }
        ds
    }

    #[test]
    fn learns_three_clusters() {
        let ds = three_class(150);
        let model =
            GradientBoostedTrees::fit(&ds, &GbtParams { n_rounds: 20, ..Default::default() }).unwrap();
        let preds = model.predict_dataset(&ds);
        let acc = preds.iter().zip(ds.targets()).filter(|(p, t)| p == t).count() as f64 / 150.0;
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn more_rounds_do_not_hurt_train_fit() {
        let ds = three_class(90);
        let acc = |rounds: usize| {
            let m = GradientBoostedTrees::fit(&ds, &GbtParams { n_rounds: rounds, ..Default::default() })
                .unwrap();
            let p = m.predict_dataset(&ds);
            p.iter().zip(ds.targets()).filter(|(a, b)| a == b).count() as f64 / 90.0
        };
        assert!(acc(30) >= acc(2) - 1e-9);
    }

    #[test]
    fn imbalanced_priors_predict_majority_with_no_signal() {
        // Constant features, imbalanced classes: prediction falls back to
        // the prior (majority class).
        let mut ds = Dataset::empty(1, 2, vec![]).unwrap();
        for i in 0..20 {
            ds.push(&[1.0], usize::from(i >= 15)).unwrap();
        }
        let model = GradientBoostedTrees::fit(&ds, &GbtParams { n_rounds: 3, ..Default::default() }).unwrap();
        assert_eq!(model.predict(&[1.0]), 0);
    }

    #[test]
    fn rejects_bad_input() {
        let empty = Dataset::empty(2, 2, vec![]).unwrap();
        assert!(GradientBoostedTrees::fit(&empty, &GbtParams::default()).is_err());
        let ds = three_class(9);
        assert!(GradientBoostedTrees::fit(&ds, &GbtParams { n_rounds: 0, ..Default::default() }).is_err());
    }

    #[test]
    fn scores_have_class_dimension() {
        let ds = three_class(30);
        let model = GradientBoostedTrees::fit(&ds, &GbtParams { n_rounds: 2, ..Default::default() }).unwrap();
        assert_eq!(model.decision_scores(ds.row(0)).len(), 3);
    }
}
