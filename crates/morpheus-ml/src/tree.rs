//! CART decision-tree classifier.
//!
//! "A decision tree ML algorithm that effectively learns simple decision
//! rules inferred from the data features" (§V). Axis-aligned binary splits
//! chosen to maximise impurity decrease under gini or entropy, with the
//! regularisation knobs of Table III: `max_depth`, `min_samples_split`,
//! `min_samples_leaf` and `max_features` (random feature subsampling).

use crate::dataset::Dataset;
use crate::{MlError, Result};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Split-quality criterion ("the criterion function used to measure the
/// quality of the split", §VII-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Gini impurity.
    Gini,
    /// Shannon entropy (information gain).
    Entropy,
}

impl Criterion {
    /// Name used in reports and model files.
    pub fn name(self) -> &'static str {
        match self {
            Criterion::Gini => "gini",
            Criterion::Entropy => "entropy",
        }
    }

    /// Parse from name.
    pub fn from_name(s: &str) -> Option<Criterion> {
        match s {
            "gini" => Some(Criterion::Gini),
            "entropy" => Some(Criterion::Entropy),
            _ => None,
        }
    }

    /// Impurity of a class-count histogram with `total` samples.
    fn impurity(self, counts: &[f64], total: f64) -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        match self {
            Criterion::Gini => {
                let mut s = 0.0;
                for &c in counts {
                    let p = c / total;
                    s += p * p;
                }
                1.0 - s
            }
            Criterion::Entropy => {
                let mut h = 0.0;
                for &c in counts {
                    if c > 0.0 {
                        let p = c / total;
                        h -= p * p.log2();
                    }
                }
                h
            }
        }
    }
}

/// Hyperparameters of a [`DecisionTree`] (the single-tree subset of the
/// Table III space).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Split criterion.
    pub criterion: Criterion,
    /// Maximum tree depth (`None` = unbounded).
    pub max_depth: Option<usize>,
    /// Minimum samples a node needs to be split.
    pub min_samples_split: usize,
    /// Minimum samples each child must keep.
    pub min_samples_leaf: usize,
    /// Features considered per split (`None` = all).
    pub max_features: Option<usize>,
    /// Seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            criterion: Criterion::Gini,
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        }
    }
}

/// One node of the flattened tree.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
        /// Samples that reached this node during training (for importances).
        n_samples: usize,
        /// Impurity decrease contributed by this split (for importances).
        gain: f64,
    },
    Leaf {
        /// Majority class.
        class: usize,
        /// Training class distribution at the leaf (for soft voting).
        counts: Vec<u32>,
    },
}

/// The ways a split on `threshold` sends the box `lo ..= hi` of its
/// feature: left when some value in it is `<= threshold`, right when some is
/// not — a point goes exactly one way, the one [`DecisionTree::predict`]
/// takes (a NaN goes right).
pub(crate) fn split_ways(lo: f64, hi: f64, threshold: f64) -> [bool; 2] {
    [lo <= threshold, hi > threshold || hi.is_nan() || threshold.is_nan()]
}

/// A fitted CART decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) n_features: usize,
    pub(crate) n_classes: usize,
    params: TreeParams,
}

struct Builder<'a> {
    ds: &'a Dataset,
    params: &'a TreeParams,
    nodes: Vec<Node>,
    rng: rand::rngs::StdRng,
    feature_pool: Vec<usize>,
}

impl<'a> Builder<'a> {
    fn leaf(&mut self, counts: &[f64]) -> usize {
        let class = argmax(counts);
        let counts_u32 = counts.iter().map(|&c| c as u32).collect();
        self.nodes.push(Node::Leaf { class, counts: counts_u32 });
        self.nodes.len() - 1
    }

    /// Builds the subtree over `idx` (sample indices), returns node id.
    fn build(&mut self, idx: &mut [usize], depth: usize) -> usize {
        let n = idx.len();
        let mut counts = vec![0.0f64; self.ds.n_classes()];
        for &i in idx.iter() {
            counts[self.ds.target(i)] += 1.0;
        }
        let parent_impurity = self.params.criterion.impurity(&counts, n as f64);

        let depth_stop = self.params.max_depth.is_some_and(|d| depth >= d);
        if n < self.params.min_samples_split || parent_impurity == 0.0 || depth_stop {
            return self.leaf(&counts);
        }

        // Feature subset for this node.
        let k = self.params.max_features.unwrap_or(self.ds.n_features()).clamp(1, self.ds.n_features());
        self.feature_pool.shuffle(&mut self.rng);
        let candidates: Vec<usize> = self.feature_pool[..k].to_vec();

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, weighted_child_impurity)
        let mut sorted: Vec<usize> = Vec::with_capacity(n);
        let mut left_counts = vec![0.0f64; self.ds.n_classes()];
        for &f in &candidates {
            sorted.clear();
            sorted.extend_from_slice(idx);
            sorted.sort_unstable_by(|&a, &b| {
                self.ds.value(a, f).partial_cmp(&self.ds.value(b, f)).expect("finite features")
            });
            left_counts.iter_mut().for_each(|c| *c = 0.0);
            let mut right_counts = counts.clone();
            for split_at in 1..n {
                let prev = sorted[split_at - 1];
                let t_prev = self.ds.target(prev);
                left_counts[t_prev] += 1.0;
                right_counts[t_prev] -= 1.0;
                let v_prev = self.ds.value(prev, f);
                let v_next = self.ds.value(sorted[split_at], f);
                if v_prev == v_next {
                    continue; // cannot split between equal values
                }
                if split_at < self.params.min_samples_leaf || n - split_at < self.params.min_samples_leaf {
                    continue;
                }
                let wl = split_at as f64;
                let wr = (n - split_at) as f64;
                let child = (wl * self.params.criterion.impurity(&left_counts, wl)
                    + wr * self.params.criterion.impurity(&right_counts, wr))
                    / n as f64;
                if best.is_none_or(|(_, _, b)| child < b) {
                    let threshold = v_prev + 0.5 * (v_next - v_prev);
                    best = Some((f, threshold, child));
                }
            }
        }

        let Some((feature, threshold, child_impurity)) = best else {
            return self.leaf(&counts);
        };
        // Note: zero-gain splits are allowed (as in scikit-learn's CART) —
        // XOR-like interactions have no first-level gain yet still need the
        // split. Recursion terminates because both children are non-empty.

        // Partition indices (order within halves irrelevant).
        let mut l = 0usize;
        let mut r = n;
        let slice = &mut *idx;
        while l < r {
            if self.ds.value(slice[l], feature) <= threshold {
                l += 1;
            } else {
                r -= 1;
                slice.swap(l, r);
            }
        }
        debug_assert!(l > 0 && l < n, "degenerate partition");

        let gain = (parent_impurity - child_impurity) * n as f64;
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { class: 0, counts: Vec::new() }); // placeholder
        let (left_slice, right_slice) = idx.split_at_mut(l);
        let left = self.build(left_slice, depth + 1);
        let right = self.build(right_slice, depth + 1);
        self.nodes[me] = Node::Split { feature, threshold, left, right, n_samples: n, gain };
        me
    }
}

fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

impl DecisionTree {
    /// Fits a tree on the dataset.
    pub fn fit(ds: &Dataset, params: &TreeParams) -> Result<Self> {
        if ds.is_empty() {
            return Err(MlError::InvalidData("cannot fit on an empty dataset".into()));
        }
        let mut builder = Builder {
            ds,
            params,
            nodes: Vec::new(),
            rng: rand::rngs::StdRng::seed_from_u64(params.seed),
            feature_pool: (0..ds.n_features()).collect(),
        };
        let mut idx: Vec<usize> = (0..ds.len()).collect();
        let root = builder.build(&mut idx, 0);
        debug_assert_eq!(root, 0);
        Ok(DecisionTree {
            nodes: builder.nodes,
            n_features: ds.n_features(),
            n_classes: ds.n_classes(),
            params: params.clone(),
        })
    }

    /// Predicted class for one feature vector.
    pub fn predict(&self, x: &[f64]) -> usize {
        self.predict_with_path(x).0
    }

    /// [`DecisionTree::predict`] and [`DecisionTree::decision_path_len`]
    /// from one walk: the class and the nodes visited to reach it.
    pub fn predict_with_path(&self, x: &[f64]) -> (usize, usize) {
        let (leaf, visited) = self.walk(x);
        match &self.nodes[leaf] {
            Node::Leaf { class, .. } => (*class, visited),
            Node::Split { .. } => unreachable!("walk ends at a leaf"),
        }
    }

    /// Class-count distribution at the reached leaf (soft vote input).
    pub fn predict_counts(&self, x: &[f64]) -> &[u32] {
        let (leaf, _) = self.walk(x);
        match &self.nodes[leaf] {
            Node::Leaf { counts, .. } => counts,
            Node::Split { .. } => unreachable!("walk ends at a leaf"),
        }
    }

    /// Nodes visited for a prediction (the tuner's cost accounting input).
    pub fn decision_path_len(&self, x: &[f64]) -> usize {
        self.walk(x).1
    }

    /// The class every feature row in the box `lo ..= hi` (per feature) is
    /// predicted as, when the leaves the box reaches agree on one, and the
    /// nodes examined finding them. A point box (`lo == hi`) reaches the
    /// one leaf [`DecisionTree::predict_with_path`] walks to, examining the
    /// nodes it visits.
    pub fn predict_over(&self, lo: &[f64], hi: &[f64]) -> (Option<usize>, usize) {
        let mut classes = Vec::new();
        let examined = self.reach(lo, hi, |leaf| {
            if let Node::Leaf { class, .. } = &self.nodes[leaf] {
                if !classes.contains(class) {
                    classes.push(*class);
                }
            }
        });
        ((classes.len() == 1).then(|| classes[0]), examined)
    }

    /// Calls `leaf` with every leaf a row in the box `lo ..= hi` can reach
    /// ([`split_ways`]) and returns the nodes examined.
    pub(crate) fn reach(&self, lo: &[f64], hi: &[f64], mut leaf: impl FnMut(usize)) -> usize {
        assert!(lo.len() == self.n_features && hi.len() == self.n_features, "feature box length");
        let (mut stack, mut examined) = (vec![0usize], 0usize);
        while let Some(node) = stack.pop() {
            examined += 1;
            match &self.nodes[node] {
                Node::Split { feature, threshold, left, right, .. } => {
                    let [goes_left, goes_right] = split_ways(lo[*feature], hi[*feature], *threshold);
                    if goes_right {
                        stack.push(*right);
                    }
                    if goes_left {
                        stack.push(*left);
                    }
                }
                Node::Leaf { .. } => leaf(node),
            }
        }
        examined
    }

    fn walk(&self, x: &[f64]) -> (usize, usize) {
        assert_eq!(x.len(), self.n_features, "feature vector length");
        let mut node = 0usize;
        let mut visited = 1usize;
        loop {
            match &self.nodes[node] {
                Node::Split { feature, threshold, left, right, .. } => {
                    node = if x[*feature] <= *threshold { *left } else { *right };
                    visited += 1;
                }
                Node::Leaf { .. } => return (node, visited),
            }
        }
    }

    /// Predictions for every row of a dataset.
    pub fn predict_dataset(&self, ds: &Dataset) -> Vec<usize> {
        (0..ds.len()).map(|i| self.predict(ds.row(i))).collect()
    }

    /// Total node count.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }

    /// Maximum root-to-leaf depth (root = 0).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + depth_of(nodes, *left).max(depth_of(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Mean-decrease-in-impurity feature importances, normalised to sum 1
    /// (all-zero when the tree is a single leaf).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                imp[*feature] += *gain;
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Number of classes the tree predicts over.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of features the tree expects.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The hyperparameters used to fit this tree.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    pub(crate) fn from_parts(
        nodes: Vec<Node>,
        n_features: usize,
        n_classes: usize,
        params: TreeParams,
    ) -> Self {
        DecisionTree { nodes, n_features, n_classes, params }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated clusters.
    fn separable(n: usize) -> Dataset {
        let mut ds = Dataset::empty(2, 2, vec![]).unwrap();
        for i in 0..n {
            let t = i % 2;
            let base = if t == 0 { 0.0 } else { 10.0 };
            ds.push(&[base + (i % 5) as f64 * 0.1, base - (i % 3) as f64 * 0.1], t).unwrap();
        }
        ds
    }

    #[test]
    fn perfectly_separable_reaches_full_accuracy() {
        let ds = separable(100);
        let tree = DecisionTree::fit(&ds, &TreeParams::default()).unwrap();
        let preds = tree.predict_dataset(&ds);
        let correct = preds.iter().zip(ds.targets()).filter(|(p, t)| p == t).count();
        assert_eq!(correct, 100);
        assert!(tree.depth() <= 2, "one split suffices, got depth {}", tree.depth());
    }

    #[test]
    fn max_depth_limits_tree() {
        // Pure XOR: no single split has gain, so this also exercises the
        // zero-gain-split behaviour CART needs; depth 1 must underfit.
        let mut ds = Dataset::empty(2, 2, vec![]).unwrap();
        for i in 0..200 {
            let a = (i / 2) % 2;
            let b = i % 2;
            let t = a ^ b;
            ds.push(&[a as f64, b as f64], t).unwrap();
        }
        let deep = DecisionTree::fit(&ds, &TreeParams { max_depth: Some(4), ..Default::default() }).unwrap();
        let shallow =
            DecisionTree::fit(&ds, &TreeParams { max_depth: Some(1), ..Default::default() }).unwrap();
        assert!(shallow.depth() <= 1);
        let acc = |t: &DecisionTree| {
            t.predict_dataset(&ds).iter().zip(ds.targets()).filter(|(p, q)| p == q).count() as f64 / 200.0
        };
        assert!(acc(&deep) > 0.99, "deep accuracy {}", acc(&deep));
        assert!(acc(&shallow) <= 0.75, "shallow accuracy {}", acc(&shallow));
    }

    #[test]
    fn min_samples_leaf_respected() {
        let ds = separable(40);
        let tree =
            DecisionTree::fit(&ds, &TreeParams { min_samples_leaf: 15, ..Default::default() }).unwrap();
        // With leaves of >= 15 of 40 samples, at most 2 leaves fit.
        assert!(tree.n_leaves() <= 2, "{} leaves", tree.n_leaves());
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut ds = Dataset::empty(1, 2, vec![]).unwrap();
        for i in 0..10 {
            ds.push(&[i as f64], 0).unwrap();
        }
        let tree = DecisionTree::fit(&ds, &TreeParams::default()).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict(&[3.0]), 0);
        assert_eq!(tree.decision_path_len(&[3.0]), 1);
    }

    #[test]
    fn entropy_and_gini_both_work() {
        let ds = separable(60);
        for criterion in [Criterion::Gini, Criterion::Entropy] {
            let tree = DecisionTree::fit(&ds, &TreeParams { criterion, ..Default::default() }).unwrap();
            let preds = tree.predict_dataset(&ds);
            assert!(preds.iter().zip(ds.targets()).all(|(p, t)| p == t), "{criterion:?}");
        }
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let mut ds = Dataset::empty(2, 2, vec![]).unwrap();
        for i in 0..10 {
            ds.push(&[1.0, 2.0], i % 2).unwrap();
        }
        let tree = DecisionTree::fit(&ds, &TreeParams::default()).unwrap();
        assert_eq!(tree.n_nodes(), 1, "cannot split identical rows");
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = separable(100);
        let p = TreeParams { max_features: Some(1), seed: 42, ..Default::default() };
        let t1 = DecisionTree::fit(&ds, &p).unwrap();
        let t2 = DecisionTree::fit(&ds, &p).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn importances_sum_to_one() {
        let ds = separable(100);
        let tree = DecisionTree::fit(&ds, &TreeParams::default()).unwrap();
        let imp = tree.feature_importances();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_rejected() {
        let ds = Dataset::empty(2, 2, vec![]).unwrap();
        assert!(DecisionTree::fit(&ds, &TreeParams::default()).is_err());
    }

    #[test]
    fn predict_counts_reflect_leaf_distribution() {
        let ds = separable(50);
        let tree = DecisionTree::fit(&ds, &TreeParams::default()).unwrap();
        let counts = tree.predict_counts(&[0.0, 0.0]);
        assert_eq!(counts.len(), 2);
        assert!(counts[0] > 0);
        assert_eq!(counts[1], 0);
    }
}
