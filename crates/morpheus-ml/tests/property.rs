//! Property-based tests of the ML stack: model behaviour and serialisation
//! under randomly generated datasets and trees.

use morpheus_ml::serialize::{load_model, save_model};
use morpheus_ml::{Criterion, Dataset, DecisionTree, ForestParams, Model, RandomForest, TreeParams};
use proptest::prelude::*;
use std::io::Cursor;

/// Strategy: a random dataset with 2-4 classes, 2-5 features, 10-80 samples.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (2usize..5, 2usize..6, 10usize..80).prop_flat_map(|(n_classes, n_features, n_samples)| {
        let row = proptest::collection::vec(-1000i32..1000, n_features);
        proptest::collection::vec((row, 0..n_classes), n_samples).prop_map(move |samples| {
            let mut ds = Dataset::empty(n_features, n_classes, vec![]).unwrap();
            for (row, target) in samples {
                let row_f: Vec<f64> = row.iter().map(|&v| f64::from(v) / 7.0).collect();
                ds.push(&row_f, target).unwrap();
            }
            ds
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Predictions always land in the class range, for any fitted tree.
    #[test]
    fn tree_predictions_in_range(ds in arb_dataset(), probe in proptest::collection::vec(-2000i32..2000, 2..6)) {
        let tree = DecisionTree::fit(&ds, &TreeParams { max_depth: Some(8), ..Default::default() }).unwrap();
        let mut x: Vec<f64> = probe.iter().map(|&v| f64::from(v) / 3.0).collect();
        x.resize(ds.n_features(), 0.0);
        let pred = tree.predict(&x);
        prop_assert!(pred < ds.n_classes());
        prop_assert!(tree.decision_path_len(&x) >= 1);
        prop_assert!(tree.depth() <= 8);
    }

    /// Training accuracy of an unrestricted tree is at least the majority
    /// share (a tree can always do as well as the root-leaf prediction).
    #[test]
    fn tree_never_worse_than_majority(ds in arb_dataset()) {
        let tree = DecisionTree::fit(&ds, &TreeParams::default()).unwrap();
        let preds = tree.predict_dataset(&ds);
        let correct = preds.iter().zip(ds.targets()).filter(|(p, t)| p == t).count();
        let majority = ds.class_counts().into_iter().max().unwrap();
        prop_assert!(correct >= majority, "tree {} vs majority {}", correct, majority);
    }

    /// Tree save -> load -> save produces identical bytes (canonical form)
    /// and identical predictions.
    #[test]
    fn tree_serialisation_canonical(ds in arb_dataset()) {
        let tree = DecisionTree::fit(&ds, &TreeParams { max_depth: Some(6), ..Default::default() }).unwrap();
        let mut first = Vec::new();
        save_model(&mut first, &Model::Tree(tree.clone())).unwrap();
        let loaded = load_model(Cursor::new(&first)).unwrap();
        let mut second = Vec::new();
        save_model(&mut second, &loaded).unwrap();
        prop_assert_eq!(&first, &second, "serialisation must be canonical");
        for i in 0..ds.len() {
            prop_assert_eq!(loaded.predict(ds.row(i)), tree.predict(ds.row(i)));
        }
    }

    /// Forest votes agree with a manual tally of its trees' predictions.
    #[test]
    fn forest_vote_matches_manual_tally(ds in arb_dataset()) {
        let forest = RandomForest::fit(
            &ds,
            &ForestParams { n_estimators: 7, max_depth: Some(5), criterion: Criterion::Entropy, ..Default::default() },
        )
        .unwrap();
        for i in 0..ds.len().min(10) {
            let x = ds.row(i);
            let mut votes = vec![0usize; ds.n_classes()];
            for t in forest.trees() {
                votes[t.predict(x)] += 1;
            }
            let manual = votes.iter().enumerate().max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0))).unwrap().0;
            prop_assert_eq!(forest.predict(x), manual);
        }
    }

    /// Forest serialisation round-trips predictions (spot-checked).
    #[test]
    fn forest_serialisation_roundtrip(ds in arb_dataset()) {
        let forest = RandomForest::fit(
            &ds,
            &ForestParams { n_estimators: 4, max_depth: Some(5), ..Default::default() },
        )
        .unwrap();
        let mut buf = Vec::new();
        save_model(&mut buf, &Model::Forest(forest.clone())).unwrap();
        let loaded = load_model(Cursor::new(&buf)).unwrap();
        for i in 0..ds.len().min(10) {
            prop_assert_eq!(loaded.predict(ds.row(i)), forest.predict(ds.row(i)));
        }
    }
}
