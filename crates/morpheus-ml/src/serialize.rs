//! Model (de)serialisation — the "extracted model" files of Figure 1.
//!
//! The offline stage exports tuned models to files; the online tuners load
//! them at runtime ("loads an ML model from a file specified at runtime",
//! §III-B). The format is a versioned, line-oriented text format:
//!
//! ```text
//! morpheus-oracle-model v1
//! kind forest
//! classes 6
//! features 10
//! trees 40
//! tree 0 nodes 5
//! node 0 split <feature> <threshold> <left> <right> [<gain> <n_samples>]
//! node 1 leaf <class> <count_0> ... <count_{classes-1}>
//! ...
//! end
//! ```
//!
//! Whitespace-separated, `#` comments allowed, resilient to trailing
//! newlines. Parsing is strict: structural errors (dangling child ids,
//! wrong counts) are rejected rather than patched.

use crate::forest::{ForestParams, RandomForest};
use crate::gbt::{GbtParams, GradientBoostedTrees, RNode, RegressionTree};
use crate::tree::{Criterion, DecisionTree, Node, TreeParams};
use crate::{MlError, Result};
use std::io::{BufRead, Write};

const MAGIC: &str = "morpheus-oracle-model";
const VERSION: &str = "v1";

/// Writes a decision tree as a single-tree model file.
pub fn save_tree<W: Write>(w: &mut W, tree: &DecisionTree) -> Result<()> {
    writeln!(w, "{MAGIC} {VERSION}")?;
    writeln!(w, "kind tree")?;
    writeln!(w, "classes {}", tree.n_classes())?;
    writeln!(w, "features {}", tree.n_features())?;
    writeln!(w, "trees 1")?;
    write_one_tree(w, 0, tree)?;
    writeln!(w, "end")?;
    Ok(())
}

/// Writes a random forest model file.
pub fn save_forest<W: Write>(w: &mut W, forest: &RandomForest) -> Result<()> {
    writeln!(w, "{MAGIC} {VERSION}")?;
    writeln!(w, "kind forest")?;
    writeln!(w, "classes {}", forest.n_classes())?;
    writeln!(w, "features {}", forest.n_features())?;
    writeln!(w, "trees {}", forest.trees().len())?;
    for (i, tree) in forest.trees().iter().enumerate() {
        write_one_tree(w, i, tree)?;
    }
    writeln!(w, "end")?;
    Ok(())
}

/// Writes a gradient-boosted ensemble as a model file. The layout mirrors
/// the tree/forest format (same magic, same tokenizer) with `kind gbt`:
/// per-round, per-class *regression* trees whose leaves carry `f64` values
/// instead of class votes, plus the class priors and the learning rate —
/// the only hyperparameter that participates in prediction:
///
/// ```text
/// morpheus-oracle-model v1
/// kind gbt
/// classes 6
/// features 10
/// rounds 40
/// learning_rate 1e-1
/// priors <p_0> ... <p_{classes-1}>
/// rtree <round> <class> nodes <n>
/// node 0 split <feature> <threshold> <left> <right>
/// node 1 leaf <value>
/// ...
/// end
/// ```
///
/// `{:e}` formatting keeps full `f64` precision, so save/load round-trips
/// are exact and serialized output is byte-stable for a given model.
pub fn save_gbt<W: Write>(w: &mut W, model: &GradientBoostedTrees) -> Result<()> {
    writeln!(w, "{MAGIC} {VERSION}")?;
    writeln!(w, "kind gbt")?;
    writeln!(w, "classes {}", model.n_classes())?;
    writeln!(w, "features {}", model.n_features())?;
    writeln!(w, "rounds {}", model.n_rounds())?;
    writeln!(w, "learning_rate {:e}", model.params().learning_rate)?;
    write!(w, "priors")?;
    for p in &model.priors {
        write!(w, " {p:e}")?;
    }
    writeln!(w)?;
    for (r, round) in model.trees.iter().enumerate() {
        for (c, tree) in round.iter().enumerate() {
            writeln!(w, "rtree {r} {c} nodes {}", tree.nodes.len())?;
            for (i, node) in tree.nodes.iter().enumerate() {
                match node {
                    RNode::Split { feature, threshold, left, right } => {
                        writeln!(w, "node {i} split {feature} {threshold:e} {left} {right}")?;
                    }
                    RNode::Leaf { value } => writeln!(w, "node {i} leaf {value:e}")?,
                }
            }
        }
    }
    writeln!(w, "end")?;
    Ok(())
}

fn write_one_tree<W: Write>(w: &mut W, index: usize, tree: &DecisionTree) -> Result<()> {
    writeln!(w, "tree {index} nodes {}", tree.nodes.len())?;
    for (i, node) in tree.nodes.iter().enumerate() {
        match node {
            Node::Split { feature, threshold, left, right, n_samples, gain } => {
                // `{:e}` keeps full f64 precision and parses back exactly.
                // The trailing gain/sample fields preserve feature
                // importances across save/load; readers may omit them.
                writeln!(w, "node {i} split {feature} {threshold:e} {left} {right} {gain:e} {n_samples}")?;
            }
            Node::Leaf { class, counts } => {
                write!(w, "node {i} leaf {class}")?;
                for c in counts {
                    write!(w, " {c}")?;
                }
                writeln!(w)?;
            }
        }
    }
    Ok(())
}

/// A model loaded from a file: either kind.
#[derive(Debug, Clone)]
pub enum LoadedModel {
    /// Single decision tree.
    Tree(DecisionTree),
    /// Random forest.
    Forest(RandomForest),
}

impl LoadedModel {
    /// Predicted class.
    pub fn predict(&self, x: &[f64]) -> usize {
        match self {
            LoadedModel::Tree(t) => t.predict(x),
            LoadedModel::Forest(f) => f.predict(x),
        }
    }

    /// Nodes visited for one prediction.
    pub fn decision_path_len(&self, x: &[f64]) -> usize {
        match self {
            LoadedModel::Tree(t) => t.decision_path_len(x),
            LoadedModel::Forest(f) => f.decision_path_len(x),
        }
    }

    /// Predicted class and nodes visited, from one walk.
    pub fn predict_with_path(&self, x: &[f64]) -> (usize, usize) {
        match self {
            LoadedModel::Tree(t) => t.predict_with_path(x),
            LoadedModel::Forest(f) => f.predict_with_path(x),
        }
    }

    /// Number of features the model expects.
    pub fn n_features(&self) -> usize {
        match self {
            LoadedModel::Tree(t) => t.n_features(),
            LoadedModel::Forest(f) => f.n_features(),
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        match self {
            LoadedModel::Tree(t) => t.n_classes(),
            LoadedModel::Forest(f) => f.n_classes(),
        }
    }
}

/// Line tokenizer shared by the workspace's versioned text formats (the
/// model files here, the decision-cache exports in `morpheus-oracle`):
/// skips blank lines and `#` comments, splits on whitespace and tracks
/// 1-based line numbers for error reporting. Error representation is the
/// caller's business — this type only surfaces raw I/O failures.
pub struct LineParser<R: BufRead> {
    reader: R,
    lineno: usize,
}

impl<R: BufRead> LineParser<R> {
    /// Wraps a reader; no lines consumed yet.
    pub fn new(reader: R) -> Self {
        LineParser { reader, lineno: 0 }
    }

    /// 1-based number of the most recently tokenized line.
    pub fn lineno(&self) -> usize {
        self.lineno
    }

    /// Next non-blank, non-comment line, whitespace-tokenized; `None` at
    /// EOF.
    pub fn next_line(&mut self) -> std::io::Result<Option<Vec<String>>> {
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = self.reader.read_line(&mut buf)?;
            if n == 0 {
                return Ok(None);
            }
            self.lineno += 1;
            let t = buf.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            return Ok(Some(t.split_whitespace().map(String::from).collect()));
        }
    }
}

struct Parser<R: BufRead> {
    lines: LineParser<R>,
}

impl<R: BufRead> Parser<R> {
    fn next_line(&mut self) -> Result<Option<Vec<String>>> {
        Ok(self.lines.next_line()?)
    }

    fn err(&self, msg: impl Into<String>) -> MlError {
        MlError::Parse { line: self.lines.lineno(), msg: msg.into() }
    }

    fn expect_kv(&mut self, key: &str) -> Result<String> {
        let toks = self.next_line()?.ok_or_else(|| self.err(format!("expected '{key} ...', got EOF")))?;
        if toks.len() != 2 || toks[0] != key {
            return Err(self.err(format!("expected '{key} <value>', got '{}'", toks.join(" "))));
        }
        Ok(toks[1].clone())
    }

    fn parse_usize(&self, s: &str) -> Result<usize> {
        s.parse().map_err(|_| self.err(format!("bad integer '{s}'")))
    }

    fn parse_f64(&self, s: &str) -> Result<f64> {
        let v: f64 = s.parse().map_err(|_| self.err(format!("bad float '{s}'")))?;
        if !v.is_finite() {
            return Err(self.err(format!("non-finite threshold '{s}'")));
        }
        Ok(v)
    }
}

/// Loads a model file (either kind), validating structure.
pub fn load_model<R: BufRead>(reader: R) -> Result<LoadedModel> {
    let mut p = Parser { lines: LineParser::new(reader) };

    let header = p.next_line()?.ok_or_else(|| p.err("empty model file"))?;
    if header.len() != 2 || header[0] != MAGIC {
        return Err(p.err(format!("bad header: expected '{MAGIC} {VERSION}'")));
    }
    if header[1] != VERSION {
        return Err(p.err(format!("unsupported model version '{}'", header[1])));
    }
    let kind = p.expect_kv("kind")?;
    if kind == "gbt" {
        return Err(p.err("file contains a gradient-boosted ensemble; use load_gbt"));
    }
    if kind != "tree" && kind != "forest" {
        return Err(p.err(format!("unknown model kind '{kind}'")));
    }
    let classes_str = p.expect_kv("classes")?;
    let n_classes = p.parse_usize(&classes_str)?;
    let features_str = p.expect_kv("features")?;
    let n_features = p.parse_usize(&features_str)?;
    let trees_str = p.expect_kv("trees")?;
    let n_trees = p.parse_usize(&trees_str)?;
    if n_classes == 0 || n_features == 0 || n_trees == 0 {
        return Err(p.err("classes, features and trees must be positive"));
    }
    if kind == "tree" && n_trees != 1 {
        return Err(p.err("kind 'tree' requires exactly one tree"));
    }

    // Every vector below grows as its lines are read: a count in the file is
    // checked against what follows, never trusted to size an allocation.
    let mut trees = Vec::new();
    for expect_idx in 0..n_trees {
        let toks = p.next_line()?.ok_or_else(|| p.err("expected 'tree ...', got EOF"))?;
        if toks.len() != 4 || toks[0] != "tree" || toks[2] != "nodes" {
            return Err(p.err(format!("expected 'tree <i> nodes <n>', got '{}'", toks.join(" "))));
        }
        let idx = p.parse_usize(&toks[1])?;
        if idx != expect_idx {
            return Err(p.err(format!("tree index {idx}, expected {expect_idx}")));
        }
        let n_nodes = p.parse_usize(&toks[3])?;
        if n_nodes == 0 {
            return Err(p.err("tree must have at least one node"));
        }
        let mut nodes: Vec<Node> = Vec::new();
        for expect_node in 0..n_nodes {
            let toks = p.next_line()?.ok_or_else(|| p.err("expected 'node ...', got EOF"))?;
            if toks.len() < 3 || toks[0] != "node" {
                return Err(p.err(format!("expected 'node ...', got '{}'", toks.join(" "))));
            }
            let ni = p.parse_usize(&toks[1])?;
            if ni != expect_node {
                return Err(p.err(format!("node index {ni}, expected {expect_node}")));
            }
            match toks[2].as_str() {
                "split" => {
                    if toks.len() != 7 && toks.len() != 9 {
                        return Err(p.err("split node needs: feature threshold left right [gain n_samples]"));
                    }
                    let feature = p.parse_usize(&toks[3])?;
                    if feature >= n_features {
                        return Err(p.err(format!("feature {feature} out of range")));
                    }
                    let threshold = p.parse_f64(&toks[4])?;
                    let left = p.parse_usize(&toks[5])?;
                    let right = p.parse_usize(&toks[6])?;
                    if left >= n_nodes || right >= n_nodes || left <= ni || right <= ni {
                        return Err(p.err(format!("child ids ({left}, {right}) invalid for node {ni}")));
                    }
                    let (gain, n_samples) = if toks.len() == 9 {
                        (p.parse_f64(&toks[7])?, p.parse_usize(&toks[8])?)
                    } else {
                        (0.0, 0)
                    };
                    nodes.push(Node::Split { feature, threshold, left, right, n_samples, gain });
                }
                "leaf" => {
                    if toks.len() != 4 + n_classes && toks.len() != 4 {
                        // Accept either bare class or class + per-class counts.
                        if toks.len() != 4 + n_classes {
                            return Err(p.err(format!(
                                "leaf node needs class (+ optional {n_classes} counts), got {} fields",
                                toks.len() - 3
                            )));
                        }
                    }
                    let class = p.parse_usize(&toks[3])?;
                    if class >= n_classes {
                        return Err(p.err(format!("class {class} out of range")));
                    }
                    let mut counts = vec![0u32; n_classes];
                    if toks.len() == 4 + n_classes {
                        for c in 0..n_classes {
                            counts[c] = toks[4 + c]
                                .parse()
                                .map_err(|_| p.err(format!("bad count '{}'", toks[4 + c])))?;
                        }
                    } else {
                        counts[class] = 1;
                    }
                    nodes.push(Node::Leaf { class, counts });
                }
                other => return Err(p.err(format!("unknown node type '{other}'"))),
            }
        }
        trees.push(DecisionTree::from_parts(nodes, n_features, n_classes, TreeParams::default()));
    }
    let toks = p.next_line()?.ok_or_else(|| p.err("expected 'end', got EOF"))?;
    if toks != ["end"] {
        return Err(p.err(format!("expected 'end', got '{}'", toks.join(" "))));
    }

    if kind == "tree" {
        Ok(LoadedModel::Tree(trees.into_iter().next().expect("one tree")))
    } else {
        Ok(LoadedModel::Forest(RandomForest::from_parts(
            trees,
            n_features,
            n_classes,
            ForestParams { criterion: Criterion::Gini, ..ForestParams::default() },
        )))
    }
}

/// Loads a `kind gbt` model file written by [`save_gbt`], validating
/// structure the same way [`load_model`] does for trees and forests.
pub fn load_gbt<R: BufRead>(reader: R) -> Result<GradientBoostedTrees> {
    let mut p = Parser { lines: LineParser::new(reader) };

    let header = p.next_line()?.ok_or_else(|| p.err("empty model file"))?;
    if header.len() != 2 || header[0] != MAGIC {
        return Err(p.err(format!("bad header: expected '{MAGIC} {VERSION}'")));
    }
    if header[1] != VERSION {
        return Err(p.err(format!("unsupported model version '{}'", header[1])));
    }
    let kind = p.expect_kv("kind")?;
    if kind != "gbt" {
        return Err(p.err(format!("expected kind 'gbt', found '{kind}' (use load_model)")));
    }
    let n_classes = {
        let v = p.expect_kv("classes")?;
        p.parse_usize(&v)?
    };
    let n_features = {
        let v = p.expect_kv("features")?;
        p.parse_usize(&v)?
    };
    let n_rounds = {
        let v = p.expect_kv("rounds")?;
        p.parse_usize(&v)?
    };
    if n_classes == 0 || n_features == 0 || n_rounds == 0 {
        return Err(p.err("classes, features and rounds must be positive"));
    }
    let learning_rate = {
        let v = p.expect_kv("learning_rate")?;
        let lr = p.parse_f64(&v)?;
        if lr <= 0.0 {
            return Err(p.err(format!("learning rate must be positive, got {lr}")));
        }
        lr
    };
    let toks = p.next_line()?.ok_or_else(|| p.err("expected 'priors ...', got EOF"))?;
    if toks.len() != 1 + n_classes || toks[0] != "priors" {
        return Err(p.err(format!("expected 'priors' with {n_classes} values, got '{}'", toks.join(" "))));
    }
    let mut priors = Vec::with_capacity(n_classes);
    for t in &toks[1..] {
        priors.push(p.parse_f64(t)?);
    }

    // Grown as the lines are read, like the tree loader's trees and nodes.
    let mut rounds: Vec<Vec<RegressionTree>> = Vec::new();
    for expect_round in 0..n_rounds {
        let mut round = Vec::with_capacity(n_classes);
        for expect_class in 0..n_classes {
            let toks = p.next_line()?.ok_or_else(|| p.err("expected 'rtree ...', got EOF"))?;
            if toks.len() != 5 || toks[0] != "rtree" || toks[3] != "nodes" {
                return Err(p.err(format!("expected 'rtree <r> <c> nodes <n>', got '{}'", toks.join(" "))));
            }
            let (r, c) = (p.parse_usize(&toks[1])?, p.parse_usize(&toks[2])?);
            if r != expect_round || c != expect_class {
                return Err(p.err(format!("rtree ({r}, {c}), expected ({expect_round}, {expect_class})")));
            }
            let n_nodes = p.parse_usize(&toks[4])?;
            if n_nodes == 0 {
                return Err(p.err("regression tree must have at least one node"));
            }
            let mut nodes: Vec<RNode> = Vec::new();
            for expect_node in 0..n_nodes {
                let toks = p.next_line()?.ok_or_else(|| p.err("expected 'node ...', got EOF"))?;
                if toks.len() < 3 || toks[0] != "node" {
                    return Err(p.err(format!("expected 'node ...', got '{}'", toks.join(" "))));
                }
                let ni = p.parse_usize(&toks[1])?;
                if ni != expect_node {
                    return Err(p.err(format!("node index {ni}, expected {expect_node}")));
                }
                match toks[2].as_str() {
                    "split" => {
                        if toks.len() != 7 {
                            return Err(p.err("split node needs: feature threshold left right"));
                        }
                        let feature = p.parse_usize(&toks[3])?;
                        if feature >= n_features {
                            return Err(p.err(format!("feature {feature} out of range")));
                        }
                        let threshold = p.parse_f64(&toks[4])?;
                        let left = p.parse_usize(&toks[5])?;
                        let right = p.parse_usize(&toks[6])?;
                        if left >= n_nodes || right >= n_nodes || left <= ni || right <= ni {
                            return Err(p.err(format!("child ids ({left}, {right}) invalid for node {ni}")));
                        }
                        nodes.push(RNode::Split { feature, threshold, left, right });
                    }
                    "leaf" => {
                        if toks.len() != 4 {
                            return Err(p.err("leaf node needs exactly one value"));
                        }
                        nodes.push(RNode::Leaf { value: p.parse_f64(&toks[3])? });
                    }
                    other => return Err(p.err(format!("unknown node type '{other}'"))),
                }
            }
            round.push(RegressionTree { nodes });
        }
        rounds.push(round);
    }
    let toks = p.next_line()?.ok_or_else(|| p.err("expected 'end', got EOF"))?;
    if toks != ["end"] {
        return Err(p.err(format!("expected 'end', got '{}'", toks.join(" "))));
    }

    Ok(GradientBoostedTrees::from_parts(
        rounds,
        priors,
        n_features,
        n_classes,
        GbtParams { n_rounds, learning_rate, ..GbtParams::default() },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::ForestParams;
    use crate::tree::TreeParams;
    use std::io::Cursor;

    fn toy() -> Dataset {
        let mut ds = Dataset::empty(3, 4, vec![]).unwrap();
        let mut state = 3u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for i in 0..200 {
            let t = i % 4;
            ds.push(&[t as f64 * 2.0 + rnd(), rnd() * 3.0, (t as f64) - rnd()], t).unwrap();
        }
        ds
    }

    #[test]
    fn tree_roundtrip_preserves_predictions() {
        let ds = toy();
        let tree = DecisionTree::fit(&ds, &TreeParams::default()).unwrap();
        let mut buf = Vec::new();
        save_tree(&mut buf, &tree).unwrap();
        let loaded = load_model(Cursor::new(&buf)).unwrap();
        for i in 0..ds.len() {
            assert_eq!(loaded.predict(ds.row(i)), tree.predict(ds.row(i)), "sample {i}");
            assert_eq!(loaded.decision_path_len(ds.row(i)), tree.decision_path_len(ds.row(i)));
        }
        assert!(matches!(loaded, LoadedModel::Tree(_)));
    }

    #[test]
    fn forest_roundtrip_preserves_predictions() {
        let ds = toy();
        let forest =
            RandomForest::fit(&ds, &ForestParams { n_estimators: 7, seed: 1, ..Default::default() }).unwrap();
        let mut buf = Vec::new();
        save_forest(&mut buf, &forest).unwrap();
        let loaded = load_model(Cursor::new(&buf)).unwrap();
        for i in 0..ds.len() {
            assert_eq!(loaded.predict(ds.row(i)), forest.predict(ds.row(i)), "sample {i}");
        }
        assert_eq!(loaded.n_features(), 3);
        assert_eq!(loaded.n_classes(), 4);
    }

    #[test]
    fn gbt_roundtrip_preserves_scores_and_paths() {
        let ds = toy();
        let model = GradientBoostedTrees::fit(&ds, &GbtParams { n_rounds: 6, ..Default::default() }).unwrap();
        let mut buf = Vec::new();
        save_gbt(&mut buf, &model).unwrap();
        let loaded = load_gbt(Cursor::new(&buf)).unwrap();
        assert_eq!(loaded.n_features(), model.n_features());
        assert_eq!(loaded.n_classes(), model.n_classes());
        assert_eq!(loaded.n_rounds(), model.n_rounds());
        for i in 0..ds.len() {
            assert_eq!(loaded.decision_scores(ds.row(i)), model.decision_scores(ds.row(i)), "sample {i}");
            assert_eq!(loaded.predict(ds.row(i)), model.predict(ds.row(i)));
            assert_eq!(loaded.decision_path_len(ds.row(i)), model.decision_path_len(ds.row(i)));
        }
        // Serialization is byte-stable: saving the loaded model reproduces
        // the file exactly.
        let mut buf2 = Vec::new();
        save_gbt(&mut buf2, &loaded).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn gbt_loader_rejects_wrong_kind_and_malformed_files() {
        let ds = toy();
        let forest = RandomForest::fit(&ds, &ForestParams { n_estimators: 3, ..Default::default() }).unwrap();
        let mut forest_buf = Vec::new();
        save_forest(&mut forest_buf, &forest).unwrap();
        assert!(load_gbt(Cursor::new(&forest_buf)).is_err(), "forest file must be rejected");

        let model = GradientBoostedTrees::fit(&ds, &GbtParams { n_rounds: 2, ..Default::default() }).unwrap();
        let mut gbt_buf = Vec::new();
        save_gbt(&mut gbt_buf, &model).unwrap();
        let err = load_model(Cursor::new(&gbt_buf)).unwrap_err();
        assert!(err.to_string().contains("load_gbt"), "{err}");

        let header =
            "morpheus-oracle-model v1\nkind gbt\nclasses 2\nfeatures 1\nrounds 1\nlearning_rate 1e-1\n";
        for bad in [
            "".to_string(),
            "morpheus-oracle-model v1\nkind gbt\nclasses 0\nfeatures 1\nrounds 1\n".to_string(),
            format!("{header}priors 0.0\nend\n"),
            format!("{header}priors -0.7 -0.7\nrtree 0 0 nodes 1\nnode 0 leaf 1.0\n"),
            format!("{header}priors -0.7 -0.7\nrtree 0 0 nodes 1\nnode 0 split 0 1.0 0 0\nend\n"),
            format!("{header}priors -0.7 -0.7\nrtree 0 0 nodes 1\nnode 0 leaf 1.0\nrtree 0 0 nodes 1\nnode 0 leaf 1.0\nend\n"),
        ] {
            assert!(load_gbt(Cursor::new(bad.as_bytes())).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_files() {
        let cases: Vec<(&str, &str)> = vec![
            ("", "empty"),
            ("wrong-magic v1\n", "bad magic"),
            ("morpheus-oracle-model v9\n", "bad version"),
            ("morpheus-oracle-model v1\nkind blob\n", "bad kind"),
            (
                "morpheus-oracle-model v1\nkind tree\nclasses 2\nfeatures 2\ntrees 2\n",
                "tree kind with 2 trees",
            ),
            (
                "morpheus-oracle-model v1\nkind tree\nclasses 2\nfeatures 2\ntrees 1\ntree 0 nodes 1\nnode 0 split 0 1.0 0 0\nend\n",
                "self-referencing children",
            ),
            (
                "morpheus-oracle-model v1\nkind tree\nclasses 2\nfeatures 2\ntrees 1\ntree 0 nodes 1\nnode 0 split 5 1.0 1 2\nend\n",
                "feature out of range",
            ),
            (
                "morpheus-oracle-model v1\nkind tree\nclasses 2\nfeatures 2\ntrees 1\ntree 0 nodes 1\nnode 0 leaf 7\nend\n",
                "class out of range",
            ),
            (
                "morpheus-oracle-model v1\nkind tree\nclasses 2\nfeatures 2\ntrees 1\ntree 0 nodes 1\nnode 0 leaf 0 1 2\n",
                "missing end",
            ),
        ];
        for (text, why) in cases {
            assert!(load_model(Cursor::new(text)).is_err(), "expected failure: {why}");
        }
    }

    #[test]
    fn comments_and_blank_lines_tolerated() {
        let text = "# a comment\n\nmorpheus-oracle-model v1\nkind tree\nclasses 2\nfeatures 1\ntrees 1\n# tree follows\ntree 0 nodes 3\nnode 0 split 0 5e-1 1 2\nnode 1 leaf 0 3 0\nnode 2 leaf 1 0 4\nend\n";
        let m = load_model(Cursor::new(text)).unwrap();
        assert_eq!(m.predict(&[0.2]), 0);
        assert_eq!(m.predict(&[0.9]), 1);
        assert_eq!(m.decision_path_len(&[0.9]), 2);
    }

    #[test]
    fn bare_leaf_without_counts_accepted() {
        let text = "morpheus-oracle-model v1\nkind tree\nclasses 2\nfeatures 1\ntrees 1\ntree 0 nodes 1\nnode 0 leaf 1\nend\n";
        let m = load_model(Cursor::new(text)).unwrap();
        assert_eq!(m.predict(&[0.0]), 1);
    }
}
