//! One learned model of any kind: what a model file holds, what a tuner
//! walks and what a retrain installs.

use crate::{DecisionTree, GradientBoostedTrees, RandomForest};

/// The kind of a [`Model`], with the token that names it in a model file's
/// `kind` line and in a model database's file names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Single decision tree.
    Tree,
    /// Random forest.
    Forest,
    /// Gradient-boosted tree ensemble.
    Gbt,
}

impl ModelKind {
    /// Every kind, in declaration order.
    pub const ALL: [ModelKind; 3] = [ModelKind::Tree, ModelKind::Forest, ModelKind::Gbt];

    /// The file token: `tree`, `forest` or `gbt`.
    pub fn token(self) -> &'static str {
        match self {
            ModelKind::Tree => "tree",
            ModelKind::Forest => "forest",
            ModelKind::Gbt => "gbt",
        }
    }

    /// The kind a file token names.
    pub fn from_token(token: &str) -> Option<ModelKind> {
        ModelKind::ALL.into_iter().find(|k| k.token() == token)
    }
}

/// A fitted model of any kind. Every kind answers a class per feature row
/// and counts the nodes its walk visits (the prediction cost of Table IV).
#[derive(Debug, Clone)]
pub enum Model {
    /// Single CART tree.
    Tree(DecisionTree),
    /// Bagged ensemble with majority voting.
    Forest(RandomForest),
    /// Boosted ensemble with softmax scoring.
    Gbt(GradientBoostedTrees),
}

/// Runs `$body` with `$m` bound to whichever model `$model` holds.
macro_rules! each {
    ($model:expr, $m:ident => $body:expr) => {
        match $model {
            Model::Tree($m) => $body,
            Model::Forest($m) => $body,
            Model::Gbt($m) => $body,
        }
    };
}

impl Model {
    /// The kind.
    pub fn kind(&self) -> ModelKind {
        match self {
            Model::Tree(_) => ModelKind::Tree,
            Model::Forest(_) => ModelKind::Forest,
            Model::Gbt(_) => ModelKind::Gbt,
        }
    }

    /// Predicted class for one feature row.
    pub fn predict(&self, x: &[f64]) -> usize {
        each!(self, m => m.predict(x))
    }

    /// Predicted class and nodes visited, from one walk of the model.
    pub fn predict_with_path(&self, x: &[f64]) -> (usize, usize) {
        each!(self, m => m.predict_with_path(x))
    }

    /// The class every feature row in the box `lo ..= hi` (per feature) is
    /// predicted as, when the box settles it, and the nodes examined: a tree
    /// settles when the leaves it reaches agree, a forest when its votes
    /// do, a GBT when its scores do. `None` says only that the box does not
    /// settle the answer. A point box (`lo == hi`) settles on
    /// [`Model::predict`]'s class.
    pub fn predict_over(&self, lo: &[f64], hi: &[f64]) -> (Option<usize>, usize) {
        each!(self, m => m.predict_over(lo, hi))
    }

    /// Nodes visited for one prediction.
    pub fn decision_path_len(&self, x: &[f64]) -> usize {
        each!(self, m => m.decision_path_len(x))
    }

    /// Number of features the model expects.
    pub fn n_features(&self) -> usize {
        each!(self, m => m.n_features())
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        each!(self, m => m.n_classes())
    }
}

/// The class every assignment of per-class totals within `least ..= most`
/// argmaxes to — the first of equal maxima, the rule of every kind's
/// `predict` — when one does: it must beat each lower class strictly and tie
/// or beat each higher one, in the worst case. A NaN bound settles nothing.
pub(crate) fn settled_argmax<T: PartialOrd>(least: &[T], most: &[T]) -> Option<usize> {
    (0..least.len()).find(|&c| {
        (0..least.len()).all(|d| d == c || if d < c { least[c] > most[d] } else { least[c] >= most[d] })
    })
}

impl From<DecisionTree> for Model {
    fn from(m: DecisionTree) -> Self {
        Model::Tree(m)
    }
}

impl From<RandomForest> for Model {
    fn from(m: RandomForest) -> Self {
        Model::Forest(m)
    }
}

impl From<GradientBoostedTrees> for Model {
    fn from(m: GradientBoostedTrees) -> Self {
        Model::Gbt(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first of equal maxima wins, in the worst case over the bounds:
    /// a lower class must be beaten strictly, a higher one only tied.
    #[test]
    fn settled_argmax_takes_the_first_maximum_in_every_case() {
        assert_eq!(settled_argmax(&[3, 1], &[3, 3]), Some(0), "a tie goes to the lower class");
        assert_eq!(settled_argmax(&[1, 3], &[3, 3]), None, "a tie at the bound may go to class 0");
        assert_eq!(settled_argmax(&[1, 4], &[3, 4]), Some(1));
        assert_eq!(settled_argmax(&[0.5, 2.0, 1.0], &[1.9, 2.0, 2.0]), Some(1));
        assert_eq!(settled_argmax(&[1.0, f64::NAN], &[1.0, f64::NAN]), None, "a NaN settles nothing");
        assert_eq!(settled_argmax::<u32>(&[], &[]), None);
    }

    #[test]
    fn tokens_round_trip() {
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::from_token(kind.token()), Some(kind));
        }
        assert_eq!(ModelKind::from_token("blob"), None);
    }
}
