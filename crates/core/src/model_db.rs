//! The on-disk model database (Figure 1's "Model Database").
//!
//! One model file per (system, backend, model kind); users "use the
//! pre-trained models from the Model Database" or drop in their own. File
//! names follow `<system>_<backend>.<kind>.model` (lower-case), e.g.
//! `p3_cuda.forest.model`.

use crate::tuner::ModelTuner;
use crate::{OracleError, Result};
use morpheus_machine::Backend;
use morpheus_ml::serialize::{load_model, save_model};
use morpheus_ml::{MlError, Model};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Model kind stored in the database; its token is the `<kind>` of the
/// file name.
pub use morpheus_ml::ModelKind;

/// A directory of trained models, keyed by (system, backend, kind).
#[derive(Debug, Clone)]
pub struct ModelDatabase {
    dir: PathBuf,
}

impl ModelDatabase {
    /// Opens (or designates) a database directory; created on first save.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ModelDatabase { dir: dir.into() }
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Canonical file name for a (system, backend, kind) triple.
    pub fn file_name(system: &str, backend: Backend, kind: ModelKind) -> String {
        format!(
            "{}_{}.{}.model",
            system.to_ascii_lowercase().replace([' ', '/'], "-"),
            backend.name().to_ascii_lowercase(),
            kind.token()
        )
    }

    /// Full path for a triple.
    pub fn path_for(&self, system: &str, backend: Backend, kind: ModelKind) -> PathBuf {
        self.dir.join(Self::file_name(system, backend, kind))
    }

    /// Saves `model` as the pair's model of its kind; returns the path.
    pub fn save(&self, system: &str, backend: Backend, model: &Model) -> Result<PathBuf> {
        std::fs::create_dir_all(&self.dir).map_err(MlError::Io)?;
        let path = self.path_for(system, backend, model.kind());
        let mut w = BufWriter::new(std::fs::File::create(&path).map_err(MlError::Io)?);
        save_model(&mut w, model)?;
        w.flush().map_err(MlError::Io)?;
        Ok(path)
    }

    /// Loads the pair's model of `kind` into a tuner (§III-B: "loads an ML
    /// model from a file specified at runtime").
    ///
    /// # Errors
    /// A missing or malformed file is [`OracleError::Ml`] naming the path;
    /// a file whose `kind` line names another kind than its file name, or
    /// whose model does not fit the feature schema, is
    /// [`OracleError::ModelMismatch`].
    pub fn load_tuner(&self, system: &str, backend: Backend, kind: ModelKind) -> Result<ModelTuner> {
        let path = self.path_for(system, backend, kind);
        let file = std::fs::File::open(&path)
            .map_err(|e| MlError::Io(std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))))?;
        let model = load_model(BufReader::new(file))?;
        if model.kind() != kind {
            return Err(OracleError::ModelMismatch(format!(
                "{} holds a {} model",
                path.display(),
                model.kind().token()
            )));
        }
        ModelTuner::new(model)
    }

    /// Lists the (file-name) entries present in the database.
    pub fn list(&self) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".model"))
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus::format::FORMAT_COUNT;
    use morpheus_ml::{
        Dataset, DecisionTree, ForestParams, GbtParams, GradientBoostedTrees, RandomForest, TreeParams,
    };

    fn toy_dataset() -> Dataset {
        let mut ds = Dataset::empty(crate::NUM_FEATURES, FORMAT_COUNT, vec![]).unwrap();
        for i in 0..60 {
            let wide = i % 2 == 0;
            let row = [
                500.0,
                500.0,
                2000.0,
                4.0,
                0.008,
                if wide { 40.0 } else { 4.0 },
                1.0,
                1.5,
                20.0,
                1.0,
                0.2,
                1.1,
            ];
            ds.push(&row, if wide { 3 } else { 1 }).unwrap();
        }
        ds
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("morpheus-oracle-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn file_names_are_canonical() {
        assert_eq!(ModelDatabase::file_name("P3", Backend::Cuda, ModelKind::Forest), "p3_cuda.forest.model");
        assert_eq!(
            ModelDatabase::file_name("ARCHER2", Backend::OpenMp, ModelKind::Tree),
            "archer2_openmp.tree.model"
        );
        assert_eq!(ModelDatabase::file_name("XCI", Backend::Serial, ModelKind::Gbt), "xci_serial.gbt.model");
    }

    #[test]
    fn missing_gbt_model_reports_path() {
        let db = ModelDatabase::new(tempdir("missing-gbt"));
        let err = db.load_tuner("P3", Backend::Cuda, ModelKind::Gbt).unwrap_err();
        assert!(err.to_string().contains("p3_cuda.gbt.model"), "{err}");
    }

    /// Saves `model` under its own name and checks that it loads back into
    /// a tuner that predicts as the saved model does.
    fn assert_roundtrip(db: &ModelDatabase, backend: Backend, model: &Model, ds: &Dataset) {
        let path = db.save("Cirrus", backend, model).unwrap();
        let name = ModelDatabase::file_name("Cirrus", backend, model.kind());
        assert!(path.ends_with(&name), "{}", path.display());
        let loaded = db.load_tuner("Cirrus", backend, model.kind()).unwrap();
        assert_eq!(loaded.model().kind(), model.kind());
        for i in 0..ds.len() {
            assert_eq!(loaded.model().predict(ds.row(i)), model.predict(ds.row(i)), "{name}, sample {i}");
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tempdir("roundtrip");
        let db = ModelDatabase::new(&dir);
        let ds = toy_dataset();
        let tree = Model::from(DecisionTree::fit(&ds, &TreeParams::default()).unwrap());
        let forest = Model::from(
            RandomForest::fit(&ds, &ForestParams { n_estimators: 4, ..Default::default() }).unwrap(),
        );
        assert_roundtrip(&db, Backend::Cuda, &tree, &ds);
        assert_roundtrip(&db, Backend::Cuda, &forest, &ds);
        assert_eq!(db.list(), ["cirrus_cuda.forest.model", "cirrus_cuda.tree.model"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gbt_save_load_roundtrip() {
        let dir = tempdir("gbt-roundtrip");
        let db = ModelDatabase::new(&dir);
        let ds = toy_dataset();
        let gbt = Model::from(GradientBoostedTrees::fit(&ds, &GbtParams::default()).unwrap());
        assert_roundtrip(&db, Backend::OpenMp, &gbt, &ds);
        assert_eq!(db.list(), ["cirrus_openmp.gbt.model"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The file name says which kind a file holds, and its `kind` line must
    /// agree: a forest file under a tree's name is refused, not walked.
    #[test]
    fn a_file_whose_kind_line_differs_from_its_name_is_refused() {
        let dir = tempdir("wrong-kind");
        let db = ModelDatabase::new(&dir);
        let ds = toy_dataset();
        let forest = RandomForest::fit(&ds, &ForestParams { n_estimators: 3, ..Default::default() }).unwrap();
        let gbt = GradientBoostedTrees::fit(&ds, &GbtParams { n_rounds: 2, ..Default::default() }).unwrap();
        for (model, posing_as) in
            [(Model::from(forest), ModelKind::Tree), (Model::from(gbt), ModelKind::Forest)]
        {
            let saved = db.save("XCI", Backend::Serial, &model).unwrap();
            std::fs::rename(&saved, db.path_for("XCI", Backend::Serial, posing_as)).unwrap();
            let err = db.load_tuner("XCI", Backend::Serial, posing_as).unwrap_err();
            assert!(matches!(err, OracleError::ModelMismatch(_)), "{err}");
            assert!(err.to_string().contains(model.kind().token()), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_model_reports_path() {
        let db = ModelDatabase::new(tempdir("missing"));
        let err = db.load_tuner("XCI", Backend::Serial, ModelKind::Forest).unwrap_err();
        assert!(err.to_string().contains("xci_serial.forest.model"), "{err}");
    }

    #[test]
    fn list_on_missing_dir_is_empty() {
        let db = ModelDatabase::new(tempdir("empty"));
        assert!(db.list().is_empty());
    }
}
