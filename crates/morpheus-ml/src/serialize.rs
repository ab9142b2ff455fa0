//! Model (de)serialisation — the "extracted model" files of Figure 1.
//!
//! The offline stage exports tuned models to files; the online tuners load
//! them at runtime ("loads an ML model from a file specified at runtime",
//! §III-B). One versioned, line-oriented text format holds every kind of
//! [`Model`]: a header names the kind and its shape, then each tree follows
//! as a count line and one line per node. A `tree` file holds one tree, a
//! `forest` file many:
//!
//! ```text
//! morpheus-oracle-model v1
//! kind forest
//! classes 6
//! features 10
//! trees 40
//! tree 0 nodes 5
//! node 0 split <feature> <threshold> <left> <right> [<gain> <n_samples>]
//! node 1 leaf <class> [<count_0> ... <count_{classes-1}>]
//! ...
//! end
//! ```
//!
//! A `gbt` file counts boosting rounds instead of trees, adds the learning
//! rate (the only hyperparameter prediction reads) and the class priors,
//! and holds one regression tree per round and class, whose leaves carry a
//! value instead of a class:
//!
//! ```text
//! kind gbt
//! classes 6
//! features 10
//! rounds 40
//! learning_rate 1e-1
//! priors <p_0> ... <p_{classes-1}>
//! rtree <round> <class> nodes <n>
//! node 0 split <feature> <threshold> <left> <right>
//! node 1 leaf <value>
//! ```
//!
//! Whitespace-separated, `#` comments allowed, resilient to trailing
//! newlines. Floats are written with `{:e}`, which keeps full `f64`
//! precision: a loaded model predicts exactly as the saved one, and saving
//! it again writes the same bytes. Parsing is strict: structural errors
//! (dangling child ids, wrong counts) are rejected rather than patched, and
//! no count in a file sizes an allocation before the lines it counts are
//! read.

use crate::forest::{ForestParams, RandomForest};
use crate::gbt::{GbtParams, GradientBoostedTrees, RNode, RegressionTree};
use crate::tree::{Criterion, DecisionTree, Node, TreeParams};
use crate::{MlError, Model, ModelKind, Result};
use std::io::{BufRead, Write};

const MAGIC: &str = "morpheus-oracle-model";
const VERSION: &str = "v1";

/// Most classes a model file may declare. A class is a label index, and
/// each one is a count in every leaf of a tree and a vote slot in every
/// forest prediction, so the declared count is checked before it sizes
/// either.
const MAX_CLASSES: usize = 1 << 16;

/// Writes `model` as a model file of its kind.
pub fn save_model<W: Write>(w: &mut W, model: &Model) -> Result<()> {
    writeln!(w, "{MAGIC} {VERSION}")?;
    writeln!(w, "kind {}", model.kind().token())?;
    writeln!(w, "classes {}", model.n_classes())?;
    writeln!(w, "features {}", model.n_features())?;
    match model {
        Model::Tree(tree) => {
            writeln!(w, "trees 1")?;
            write_tree(w, 0, tree)?;
        }
        Model::Forest(forest) => {
            writeln!(w, "trees {}", forest.trees().len())?;
            for (i, tree) in forest.trees().iter().enumerate() {
                write_tree(w, i, tree)?;
            }
        }
        Model::Gbt(gbt) => {
            writeln!(w, "rounds {}", gbt.n_rounds())?;
            writeln!(w, "learning_rate {:e}", gbt.params().learning_rate)?;
            write!(w, "priors")?;
            for p in &gbt.priors {
                write!(w, " {p:e}")?;
            }
            writeln!(w)?;
            for (r, round) in gbt.trees.iter().enumerate() {
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
        }
    }
    writeln!(w, "end")?;
    Ok(())
}

fn write_tree<W: Write>(w: &mut W, index: usize, tree: &DecisionTree) -> Result<()> {
    writeln!(w, "tree {index} nodes {}", tree.nodes.len())?;
    for (i, node) in tree.nodes.iter().enumerate() {
        match node {
            Node::Split { feature, threshold, left, right, n_samples, gain } => {
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

/// The part of a `node <i> split|leaf ...` line every kind shares, checked
/// against its tree: a split's feature in range and both children after it
/// and inside the tree. The tokens after them are the kind's to read.
enum NodeLine {
    Split { feature: usize, threshold: f64, left: usize, right: usize, rest: Vec<String> },
    Leaf(Vec<String>),
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

    /// A `<key> <count>` line whose count must be positive.
    fn count(&mut self, key: &str) -> Result<usize> {
        let v = self.expect_kv(key)?;
        match self.parse_usize(&v)? {
            0 => Err(self.err(format!("'{key}' must be positive"))),
            n => Ok(n),
        }
    }

    fn parse_usize(&self, s: &str) -> Result<usize> {
        s.parse().map_err(|_| self.err(format!("bad integer '{s}'")))
    }

    fn parse_f64(&self, s: &str) -> Result<f64> {
        let v: f64 = s.parse().map_err(|_| self.err(format!("bad float '{s}'")))?;
        if !v.is_finite() {
            return Err(self.err(format!("non-finite value '{s}'")));
        }
        Ok(v)
    }

    fn expect_end(&mut self) -> Result<()> {
        let toks = self.next_line()?.ok_or_else(|| self.err("expected 'end', got EOF"))?;
        if toks != ["end"] {
            return Err(self.err(format!("expected 'end', got '{}'", toks.join(" "))));
        }
        Ok(())
    }

    /// One tree: its `<tag> <ids..> nodes <n>` line, whose ids must be
    /// `ids`, then its `n` node lines, each made a node by `node`. The
    /// nodes grow as their lines are read: `n` is checked against them,
    /// never trusted to size an allocation.
    fn tree<N>(
        &mut self,
        tag: &str,
        ids: &[usize],
        n_features: usize,
        node: impl Fn(&Self, NodeLine) -> Result<N>,
    ) -> Result<Vec<N>> {
        let toks = self.next_line()?.ok_or_else(|| self.err(format!("expected '{tag} ...', got EOF")))?;
        let k = ids.len();
        if toks.len() != k + 3 || toks[0] != tag || toks[k + 1] != "nodes" {
            return Err(self.err(format!("expected '{tag} <id..> nodes <n>', got '{}'", toks.join(" "))));
        }
        for (t, &want) in toks[1..=k].iter().zip(ids) {
            if self.parse_usize(t)? != want {
                return Err(self.err(format!("{tag} {}, expected {ids:?}", toks[1..=k].join(" "))));
            }
        }
        let n_nodes = self.parse_usize(&toks[k + 2])?;
        if n_nodes == 0 {
            return Err(self.err("a tree must have at least one node"));
        }
        let mut nodes = Vec::new();
        for expect in 0..n_nodes {
            let line = self.node_line(expect, n_nodes, n_features)?;
            nodes.push(node(self, line)?);
        }
        Ok(nodes)
    }

    fn node_line(&mut self, expect: usize, n_nodes: usize, n_features: usize) -> Result<NodeLine> {
        let mut toks = self.next_line()?.ok_or_else(|| self.err("expected 'node ...', got EOF"))?;
        if toks.len() < 4 || toks[0] != "node" {
            return Err(self.err(format!("expected 'node <i> split|leaf ...', got '{}'", toks.join(" "))));
        }
        let ni = self.parse_usize(&toks[1])?;
        if ni != expect {
            return Err(self.err(format!("node index {ni}, expected {expect}")));
        }
        let mut rest = toks.split_off(3);
        match toks[2].as_str() {
            "split" => {
                if rest.len() < 4 {
                    return Err(self.err("split node needs: feature threshold left right"));
                }
                let feature = self.parse_usize(&rest[0])?;
                if feature >= n_features {
                    return Err(self.err(format!("feature {feature} out of range")));
                }
                let threshold = self.parse_f64(&rest[1])?;
                let (left, right) = (self.parse_usize(&rest[2])?, self.parse_usize(&rest[3])?);
                if left >= n_nodes || right >= n_nodes || left <= ni || right <= ni {
                    return Err(self.err(format!("child ids ({left}, {right}) invalid for node {ni}")));
                }
                Ok(NodeLine::Split { feature, threshold, left, right, rest: rest.split_off(4) })
            }
            "leaf" => Ok(NodeLine::Leaf(rest)),
            other => Err(self.err(format!("unknown node type '{other}'"))),
        }
    }
}

/// Loads a model file of any kind, validating structure.
pub fn load_model<R: BufRead>(reader: R) -> Result<Model> {
    let mut p = Parser { lines: LineParser::new(reader) };

    let header = p.next_line()?.ok_or_else(|| p.err("empty model file"))?;
    if header.len() != 2 || header[0] != MAGIC {
        return Err(p.err(format!("bad header: expected '{MAGIC} {VERSION}'")));
    }
    if header[1] != VERSION {
        return Err(p.err(format!("unsupported model version '{}'", header[1])));
    }
    let token = p.expect_kv("kind")?;
    let kind = ModelKind::from_token(&token).ok_or_else(|| p.err(format!("unknown model kind '{token}'")))?;
    let n_classes = p.count("classes")?;
    if n_classes > MAX_CLASSES {
        return Err(p.err(format!("{n_classes} classes, at most {MAX_CLASSES} are allowed")));
    }
    let n_features = p.count("features")?;
    let model = match kind {
        ModelKind::Tree | ModelKind::Forest => {
            let trees = load_trees(&mut p, kind, n_classes, n_features)?;
            if kind == ModelKind::Tree {
                Model::Tree(trees.into_iter().next().expect("one tree"))
            } else {
                let params = ForestParams { criterion: Criterion::Gini, ..ForestParams::default() };
                Model::Forest(RandomForest::from_parts(trees, n_features, n_classes, params))
            }
        }
        ModelKind::Gbt => Model::Gbt(load_rounds(&mut p, n_classes, n_features)?),
    };
    p.expect_end()?;
    Ok(model)
}

/// The `trees` count and the classification trees of a tree or forest file.
fn load_trees<R: BufRead>(
    p: &mut Parser<R>,
    kind: ModelKind,
    n_classes: usize,
    n_features: usize,
) -> Result<Vec<DecisionTree>> {
    let n_trees = p.count("trees")?;
    if kind == ModelKind::Tree && n_trees != 1 {
        return Err(p.err("kind 'tree' requires exactly one tree"));
    }
    let mut trees = Vec::new();
    for i in 0..n_trees {
        let nodes = p.tree("tree", &[i], n_features, |p, line| match line {
            NodeLine::Split { feature, threshold, left, right, rest } => {
                let (gain, n_samples) = match rest.as_slice() {
                    [] => (0.0, 0),
                    [gain, n] => (p.parse_f64(gain)?, p.parse_usize(n)?),
                    _ => return Err(p.err("split node needs: feature threshold left right [gain n_samples]")),
                };
                Ok(Node::Split { feature, threshold, left, right, n_samples, gain })
            }
            NodeLine::Leaf(rest) => {
                // A bare class, or the class and its per-class counts.
                if rest.len() != 1 && rest.len() != 1 + n_classes {
                    return Err(p.err(format!(
                        "leaf node needs class (+ optional {n_classes} counts), got {} fields",
                        rest.len()
                    )));
                }
                let class = p.parse_usize(&rest[0])?;
                if class >= n_classes {
                    return Err(p.err(format!("class {class} out of range")));
                }
                let mut counts = vec![0u32; n_classes];
                if rest.len() == 1 {
                    counts[class] = 1;
                }
                for (slot, t) in counts.iter_mut().zip(&rest[1..]) {
                    *slot = t.parse().map_err(|_| p.err(format!("bad count '{t}'")))?;
                }
                Ok(Node::Leaf { class, counts })
            }
        })?;
        trees.push(DecisionTree::from_parts(nodes, n_features, n_classes, TreeParams::default()));
    }
    Ok(trees)
}

/// Everything after `features` in a gbt file but `end`.
fn load_rounds<R: BufRead>(
    p: &mut Parser<R>,
    n_classes: usize,
    n_features: usize,
) -> Result<GradientBoostedTrees> {
    let n_rounds = p.count("rounds")?;
    let v = p.expect_kv("learning_rate")?;
    let learning_rate = p.parse_f64(&v)?;
    if learning_rate <= 0.0 {
        return Err(p.err(format!("learning rate must be positive, got {learning_rate}")));
    }
    let toks = p.next_line()?.ok_or_else(|| p.err("expected 'priors ...', got EOF"))?;
    if toks.len() != 1 + n_classes || toks[0] != "priors" {
        return Err(p.err(format!("expected 'priors' with {n_classes} values, got '{}'", toks.join(" "))));
    }
    let priors = toks[1..].iter().map(|t| p.parse_f64(t)).collect::<Result<Vec<f64>>>()?;

    let mut rounds = Vec::new();
    for r in 0..n_rounds {
        let mut round = Vec::new();
        for c in 0..n_classes {
            let nodes = p.tree("rtree", &[r, c], n_features, |p, line| match line {
                NodeLine::Split { feature, threshold, left, right, rest } if rest.is_empty() => {
                    Ok(RNode::Split { feature, threshold, left, right })
                }
                NodeLine::Split { .. } => Err(p.err("split node needs: feature threshold left right")),
                NodeLine::Leaf(rest) if rest.len() == 1 => Ok(RNode::Leaf { value: p.parse_f64(&rest[0])? }),
                NodeLine::Leaf(_) => Err(p.err("leaf node needs exactly one value")),
            })?;
            round.push(RegressionTree { nodes });
        }
        rounds.push(round);
    }
    let params = GbtParams { n_rounds, learning_rate, ..GbtParams::default() };
    Ok(GradientBoostedTrees::from_parts(rounds, priors, n_features, n_classes, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
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

    fn saved(model: &Model) -> Vec<u8> {
        let mut buf = Vec::new();
        save_model(&mut buf, model).unwrap();
        buf
    }

    #[test]
    fn tree_roundtrip_preserves_predictions() {
        let ds = toy();
        let tree = DecisionTree::fit(&ds, &TreeParams::default()).unwrap();
        let loaded = load_model(Cursor::new(saved(&tree.clone().into()))).unwrap();
        for i in 0..ds.len() {
            assert_eq!(loaded.predict(ds.row(i)), tree.predict(ds.row(i)), "sample {i}");
            assert_eq!(loaded.decision_path_len(ds.row(i)), tree.decision_path_len(ds.row(i)));
        }
        assert_eq!(loaded.kind(), ModelKind::Tree);
    }

    #[test]
    fn forest_roundtrip_preserves_predictions() {
        let ds = toy();
        let forest =
            RandomForest::fit(&ds, &ForestParams { n_estimators: 7, seed: 1, ..Default::default() }).unwrap();
        let loaded = load_model(Cursor::new(saved(&forest.clone().into()))).unwrap();
        for i in 0..ds.len() {
            assert_eq!(loaded.predict(ds.row(i)), forest.predict(ds.row(i)), "sample {i}");
        }
        assert_eq!(loaded.kind(), ModelKind::Forest);
        assert_eq!(loaded.n_features(), 3);
        assert_eq!(loaded.n_classes(), 4);
    }

    #[test]
    fn gbt_roundtrip_preserves_scores_and_paths() {
        let ds = toy();
        let model = GradientBoostedTrees::fit(&ds, &GbtParams { n_rounds: 6, ..Default::default() }).unwrap();
        let buf = saved(&model.clone().into());
        let Model::Gbt(loaded) = load_model(Cursor::new(&buf)).unwrap() else { panic!("saved a GBT") };
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
        assert_eq!(saved(&loaded.into()), buf);
    }

    /// A file is read as the kind its `kind` line names: a forest's body
    /// under `kind gbt` and a GBT's under `kind forest` are malformed.
    #[test]
    fn gbt_loader_rejects_wrong_kind_and_malformed_files() {
        let ds = toy();
        let forest = RandomForest::fit(&ds, &ForestParams { n_estimators: 3, ..Default::default() }).unwrap();
        let forest_text = String::from_utf8(saved(&forest.into())).unwrap();
        let gbt = GradientBoostedTrees::fit(&ds, &GbtParams { n_rounds: 2, ..Default::default() }).unwrap();
        let gbt_text = String::from_utf8(saved(&gbt.into())).unwrap();
        for relabeled in
            [forest_text.replace("kind forest", "kind gbt"), gbt_text.replace("kind gbt", "kind forest")]
        {
            assert!(load_model(Cursor::new(relabeled.as_bytes())).is_err(), "accepted: {relabeled}");
        }

        let header =
            "morpheus-oracle-model v1\nkind gbt\nclasses 2\nfeatures 1\nrounds 1\nlearning_rate 1e-1\n";
        for bad in [
            "".to_string(),
            "morpheus-oracle-model v1\nkind gbt\nclasses 0\nfeatures 1\nrounds 1\n".to_string(),
            format!("{header}priors 0.0\nend\n"),
            format!("{header}priors -0.7 -0.7\nrtree 0 0 nodes 1\nnode 0 leaf 1.0\n"),
            format!("{header}priors -0.7 -0.7\nrtree 0 0 nodes 1\nnode 0 split 0 1.0 0 0\nend\n"),
            format!("{header}priors -0.7 -0.7\nrtree 0 0 nodes 1\nnode 0 leaf 1.0\nrtree 0 0 nodes 1\nnode 0 leaf 1.0\nend\n"),
            format!("{header}priors -0.7 -0.7\nrtree 0 0 nodes 1\nnode 0 leaf 1.0 2.0\nrtree 0 1 nodes 1\nnode 0 leaf 1.0\nend\n"),
        ] {
            assert!(load_model(Cursor::new(bad.as_bytes())).is_err(), "accepted: {bad:?}");
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
            (
                "morpheus-oracle-model v1\nkind tree\nclasses 70000\nfeatures 2\ntrees 1\ntree 0 nodes 1\nnode 0 leaf 0\nend\n",
                "more classes than the loader allows",
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

    /// The bytes the per-kind writers wrote before there was one writer:
    /// model databases and cached models written then load, and are
    /// written again, unchanged.
    #[test]
    fn save_model_writes_the_v1_bytes_of_every_kind() {
        let tree = DecisionTree::from_parts(
            vec![
                Node::Split { feature: 1, threshold: 0.5, left: 1, right: 2, n_samples: 10, gain: 0.25 },
                Node::Leaf { class: 0, counts: vec![4, 1] },
                Node::Leaf { class: 1, counts: vec![0, 5] },
            ],
            2,
            2,
            TreeParams::default(),
        );
        let stump = DecisionTree::from_parts(
            vec![Node::Leaf { class: 1, counts: vec![2, 3] }],
            2,
            2,
            TreeParams::default(),
        );
        let forest = RandomForest::from_parts(vec![tree.clone(), stump], 2, 2, ForestParams::default());
        let gbt = GradientBoostedTrees::from_parts(
            vec![vec![
                RegressionTree {
                    nodes: vec![
                        RNode::Split { feature: 0, threshold: -1.5, left: 1, right: 2 },
                        RNode::Leaf { value: 0.75 },
                        RNode::Leaf { value: -0.125 },
                    ],
                },
                RegressionTree { nodes: vec![RNode::Leaf { value: 0.1 }] },
            ]],
            vec![-std::f64::consts::LN_2, -std::f64::consts::LN_2],
            2,
            2,
            GbtParams { n_rounds: 1, learning_rate: 0.1, ..GbtParams::default() },
        );
        let golden = [
            (
                Model::from(tree),
                "morpheus-oracle-model v1\nkind tree\nclasses 2\nfeatures 2\ntrees 1\ntree 0 nodes 3\n\
                 node 0 split 1 5e-1 1 2 2.5e-1 10\nnode 1 leaf 0 4 1\nnode 2 leaf 1 0 5\nend\n",
            ),
            (
                Model::from(forest),
                "morpheus-oracle-model v1\nkind forest\nclasses 2\nfeatures 2\ntrees 2\ntree 0 nodes 3\n\
                 node 0 split 1 5e-1 1 2 2.5e-1 10\nnode 1 leaf 0 4 1\nnode 2 leaf 1 0 5\n\
                 tree 1 nodes 1\nnode 0 leaf 1 2 3\nend\n",
            ),
            (
                Model::from(gbt),
                "morpheus-oracle-model v1\nkind gbt\nclasses 2\nfeatures 2\nrounds 1\nlearning_rate 1e-1\n\
                 priors -6.931471805599453e-1 -6.931471805599453e-1\nrtree 0 0 nodes 3\n\
                 node 0 split 0 -1.5e0 1 2\nnode 1 leaf 7.5e-1\nnode 2 leaf -1.25e-1\n\
                 rtree 0 1 nodes 1\nnode 0 leaf 1e-1\nend\n",
            ),
        ];
        for (model, bytes) in golden {
            assert_eq!(String::from_utf8(saved(&model)).unwrap(), bytes, "{:?}", model.kind());
            let loaded = load_model(Cursor::new(bytes)).unwrap();
            assert_eq!(loaded.kind(), model.kind());
            assert_eq!(String::from_utf8(saved(&loaded)).unwrap(), bytes, "{:?} reloaded", model.kind());
        }
    }
}
