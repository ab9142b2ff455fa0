//! Failure-injection integration tests: malformed model files, inconsistent
//! matrices and degenerate inputs must produce errors, not corruption.

use morpheus_repro::machine::{systems, Backend, VirtualEngine};
use morpheus_repro::ml::serialize::{load_gbt, load_model};
use morpheus_repro::morpheus::io::read_matrix_market;
use morpheus_repro::morpheus::spmv::spmv_serial;
use morpheus_repro::morpheus::{
    ConvertOptions, CooMatrix, CsrMatrix, DynamicMatrix, FormatId, MorpheusError,
};
use morpheus_repro::oracle::{DecisionTreeTuner, Oracle, OracleError, RandomForestTuner, RunFirstTuner};
use std::io::Cursor;

#[test]
fn truncated_model_files_are_rejected_at_every_line() {
    // A valid single-tree model file, truncated after each line: every
    // prefix must fail to parse (never panic, never half-load).
    let full = "morpheus-oracle-model v1\nkind tree\nclasses 6\nfeatures 10\ntrees 1\n\
                tree 0 nodes 3\nnode 0 split 2 1.5e3 1 2\nnode 1 leaf 1 0 9 0 0 0 0\n\
                node 2 leaf 3 0 0 0 7 0 0\nend\n";
    let lines: Vec<&str> = full.lines().collect();
    for cut in 0..lines.len() {
        let partial = lines[..cut].join("\n");
        assert!(load_model(Cursor::new(partial.as_bytes())).is_err(), "prefix of {cut} lines parsed");
    }
    assert!(load_model(Cursor::new(full.as_bytes())).is_ok());
}

#[test]
fn corrupted_node_references_rejected() {
    let cases = [
        // Forward reference beyond the node table.
        "morpheus-oracle-model v1\nkind tree\nclasses 2\nfeatures 10\ntrees 1\ntree 0 nodes 2\nnode 0 split 0 1.0 1 5\nnode 1 leaf 0 1 0\nend\n",
        // Backward reference (cycle).
        "morpheus-oracle-model v1\nkind tree\nclasses 2\nfeatures 10\ntrees 1\ntree 0 nodes 3\nnode 0 split 0 1.0 1 2\nnode 1 split 0 2.0 0 2\nnode 2 leaf 0 1 0\nend\n",
        // NaN threshold.
        "morpheus-oracle-model v1\nkind tree\nclasses 2\nfeatures 10\ntrees 1\ntree 0 nodes 1\nnode 0 split 0 NaN 1 2\nend\n",
    ];
    for text in cases {
        assert!(load_model(Cursor::new(text.as_bytes())).is_err());
    }
}

#[test]
fn tuner_constructors_reject_mismatched_models() {
    // 3-feature model: incompatible with the 10-feature extractor.
    let text = "morpheus-oracle-model v1\nkind tree\nclasses 2\nfeatures 3\ntrees 1\ntree 0 nodes 1\nnode 0 leaf 0 1 0\nend\n";
    assert!(DecisionTreeTuner::from_reader(Cursor::new(text.as_bytes())).is_err());
    // 10 features but 9 classes: more classes than formats.
    let text = "morpheus-oracle-model v1\nkind forest\nclasses 9\nfeatures 10\ntrees 1\ntree 0 nodes 1\nnode 0 leaf 0 1 0 0 0 0 0 0 0 0\nend\n";
    assert!(RandomForestTuner::from_reader(Cursor::new(text.as_bytes())).is_err());
}

#[test]
fn matrix_market_failures_do_not_panic() {
    let bads = [
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n4 1 1.0\n", // row out of bounds
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 abc\n", // bad value
        "%%MatrixMarket matrix coordinate real general\n-1 3 1\n",         // negative size
        "garbage\n1 1 1\n",
    ];
    for text in bads {
        let r: Result<CooMatrix<f64>, _> = read_matrix_market(Cursor::new(text.as_bytes()));
        assert!(r.is_err());
    }
}

/// Counts no machine could allocate room for: `2^60` overflows the
/// capacity computation, `10^14` entries fail the allocation itself.
const OVERSIZED: [&str; 2] = ["1152921504606846976", "100000000000000"];

/// A header count sizes nothing before the entries it counts are read: a
/// Matrix Market size line declaring more entries than any machine holds
/// is the "declared N but found M" error, not a panic or an abort.
#[test]
fn an_oversized_matrix_market_entry_count_is_a_parse_error() {
    for count in OVERSIZED {
        let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 {count}\n1 1 1.0\n");
        let r: Result<CooMatrix<f64>, _> = read_matrix_market(Cursor::new(text.as_bytes()));
        assert!(matches!(r, Err(MorpheusError::Parse { .. })), "{count}: {r:?}");
    }
}

/// The model loaders' counts — `trees`, each tree's `nodes`, `rounds` and
/// each regression tree's `nodes` — are checked against the lines that
/// follow, never used to size an allocation first.
#[test]
fn oversized_model_file_counts_are_errors() {
    let head = "morpheus-oracle-model v1\nkind forest\nclasses 2\nfeatures 10";
    let gbt = "morpheus-oracle-model v1\nkind gbt\nclasses 2\nfeatures 10";
    for count in OVERSIZED {
        let trees = format!("{head}\ntrees {count}\ntree 0 nodes 1\nnode 0 leaf 0 1 0\nend\n");
        let nodes = format!("{head}\ntrees 1\ntree 0 nodes {count}\nnode 0 leaf 0 1 0\nend\n");
        for text in [trees, nodes] {
            assert!(load_model(Cursor::new(text.as_bytes())).is_err(), "{text}");
        }
        let rounds = format!(
            "{gbt}\nrounds {count}\nlearning_rate 1e-1\npriors 0 0\n\
             rtree 0 0 nodes 1\nnode 0 leaf 1e0\nrtree 0 1 nodes 1\nnode 0 leaf 1e0\nend\n"
        );
        let nodes = format!(
            "{gbt}\nrounds 1\nlearning_rate 1e-1\npriors 0 0\nrtree 0 0 nodes {count}\nnode 0 leaf 1e0\nend\n"
        );
        for text in [rounds, nodes] {
            assert!(load_gbt(Cursor::new(text.as_bytes())).is_err(), "{text}");
        }
    }
}

/// A decisions file's `entries` count is checked against the decision
/// lines, never used to size an allocation first.
#[test]
fn an_oversized_decisions_entry_count_is_invalid_config() {
    let service = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(1))
        .build_service()
        .unwrap();
    let mut exported = Vec::new();
    service.export_decisions(&mut exported).unwrap();
    let exported = String::from_utf8(exported).unwrap();
    assert!(exported.contains("entries 0\n"), "{exported}");
    for count in OVERSIZED {
        let text = exported.replace("entries 0\n", &format!("entries {count}\n"));
        let r = service.import_decisions(Cursor::new(text.as_bytes()));
        assert!(matches!(r, Err(OracleError::InvalidConfig(_))), "{count}: {r:?}");
    }
}

#[test]
fn invalid_csr_structures_rejected() {
    // Offsets describing more entries than provided.
    assert!(CsrMatrix::<f64>::from_parts(2, 2, vec![0, 3, 4], vec![0, 1], vec![1.0, 2.0]).is_err());
    // Decreasing offsets.
    assert!(CsrMatrix::<f64>::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
}

#[test]
fn excessive_padding_error_carries_diagnostics() {
    // Wide scatter: DIA would need every diagonal.
    let n = 5000usize;
    let rows: Vec<usize> = (0..n / 4).map(|k| (k * 17) % n).collect();
    let cols: Vec<usize> = (0..n / 4).map(|k| (k * 113) % n).collect();
    let vals = vec![1.0f64; rows.len()];
    let m = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
    let opts = ConvertOptions { max_fill: 2.0, min_padded_allowance: 64, ..Default::default() };
    match m.to_format(FormatId::Dia, &opts) {
        Err(MorpheusError::ExcessivePadding { format, padded, nnz, limit }) => {
            assert_eq!(format, FormatId::Dia);
            assert!(padded > limit);
            assert_eq!(nnz, m.nnz());
        }
        other => panic!("expected ExcessivePadding, got {other:?}"),
    }
}

#[test]
fn zero_dimension_matrices_are_harmless() {
    for (r, c) in [(0usize, 0usize), (0, 5), (5, 0)] {
        let m = DynamicMatrix::from(CooMatrix::<f64>::new(r, c));
        assert_eq!(m.nnz(), 0);
        let x = vec![0.0; c];
        let mut y = vec![0.0; r];
        spmv_serial(&m, &x, &mut y).unwrap();
        // CSR conversion of degenerate shapes also works.
        let csr = m.to_format(FormatId::Csr, &ConvertOptions::default()).unwrap();
        assert_eq!(csr.nnz(), 0);
    }
}
