//! Failure-injection integration tests: malformed model files, inconsistent
//! matrices and degenerate inputs must produce errors, not corruption.

use morpheus_repro::machine::{systems, Backend, VirtualEngine};
use morpheus_repro::ml::serialize::load_model;
use morpheus_repro::morpheus::io::{read_matrix_market, write_matrix_market};
use morpheus_repro::morpheus::spmv::spmv_serial;
use morpheus_repro::morpheus::{
    ConvertOptions, CooMatrix, CsrMatrix, DynamicMatrix, FormatId, MorpheusError,
};
use morpheus_repro::oracle::{ModelTuner, Op, Oracle, OracleError, OracleService, RunFirstTuner};
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
    let tree = load_model(Cursor::new(text.as_bytes())).unwrap();
    assert!(matches!(ModelTuner::new(tree), Err(OracleError::ModelMismatch(_))));
    // 10 features but 9 classes: more classes than formats.
    let text = "morpheus-oracle-model v1\nkind forest\nclasses 9\nfeatures 10\ntrees 1\ntree 0 nodes 1\nnode 0 leaf 0 1 0 0 0 0 0 0 0 0\nend\n";
    let forest = load_model(Cursor::new(text.as_bytes())).unwrap();
    assert!(matches!(ModelTuner::new(forest), Err(OracleError::ModelMismatch(_))));
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

/// The model loader's counts — `trees`, each tree's `nodes`, `rounds` and
/// each regression tree's `nodes` — are checked against the lines that
/// follow, never used to size an allocation first; `classes`, which sizes
/// every leaf of a tree, is checked before any is read.
#[test]
fn oversized_model_file_counts_are_errors() {
    let head = "morpheus-oracle-model v1\nkind forest\nclasses 2\nfeatures 10";
    let gbt = "morpheus-oracle-model v1\nkind gbt\nclasses 2\nfeatures 10";
    for count in OVERSIZED {
        let classes = [
            format!("morpheus-oracle-model v1\nkind tree\nclasses {count}\nfeatures 10\ntrees 1\ntree 0 nodes 1\nnode 0 leaf 0\nend\n"),
            format!("morpheus-oracle-model v1\nkind forest\nclasses {count}\nfeatures 10\ntrees 1\ntree 0 nodes 1\nnode 0 leaf 0\nend\n"),
            format!(
                "morpheus-oracle-model v1\nkind gbt\nclasses {count}\nfeatures 10\nrounds 1\nlearning_rate 1e-1\n\
                 priors 0 0\nrtree 0 0 nodes 1\nnode 0 leaf 1e0\nrtree 0 1 nodes 1\nnode 0 leaf 1e0\nend\n"
            ),
        ];
        for text in classes {
            assert!(load_model(Cursor::new(text.as_bytes())).is_err(), "{text}");
        }
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
            assert!(load_model(Cursor::new(text.as_bytes())).is_err(), "{text}");
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

fn serial_session() -> OracleService<RunFirstTuner> {
    Oracle::builder()
        .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
        .tuner(RunFirstTuner::new(1))
        .build_service()
        .unwrap()
}

fn banded(n: usize, offsets: &[isize]) -> CooMatrix<f64> {
    let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..n {
        for &d in offsets {
            let j = i as isize + d;
            if (0..n as isize).contains(&j) {
                rows.push(i);
                cols.push(j as usize);
                vals.push(1.5 + (i % 7) as f64);
            }
        }
    }
    CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap()
}

/// What a refused input must leave behind: an empty decision cache and a
/// service that still registers and serves a matrix.
fn assert_refusal_left_service_serving(service: &OracleService<RunFirstTuner>, cut: usize) {
    assert_eq!(service.cache_stats().len, 0, "cut at byte {cut}: a refused input inserted decisions");
    let m = DynamicMatrix::from(banded(30, &[-1, 0, 2]));
    let x: Vec<f64> = (0..30).map(|i| i as f64 - 4.0).collect();
    let mut want = vec![0.0; 30];
    spmv_serial(&m, &x, &mut want).unwrap();
    let handle = service.register(m).unwrap();
    let mut y = vec![f64::NAN; 30];
    service.spmv(&handle, &x, &mut y).unwrap();
    assert_eq!(y, want, "cut at byte {cut}");
}

/// A decisions file and a Matrix Market file cut at every byte: each cut is
/// a typed error, never a panic, except the cut that drops only the final
/// newline, which may still parse. A refused decisions file inserts nothing
/// and leaves the service serving.
#[test]
fn inputs_truncated_at_every_byte_are_typed_errors() {
    let warm = serial_session();
    warm.tune(&mut DynamicMatrix::from(banded(40, &[-1, 0, 1]))).unwrap();
    warm.tune_for(&mut DynamicMatrix::from(banded(60, &[-3, 0, 5])), Op::Spmm { k: 4 }).unwrap();
    let mut decisions = Vec::new();
    warm.export_decisions(&mut decisions).unwrap();
    assert!(decisions.ends_with(b"end\n"));
    for cut in 0..decisions.len() {
        let service = serial_session();
        match service.import_decisions(Cursor::new(&decisions[..cut])) {
            Err(OracleError::InvalidConfig(_) | OracleError::ModelMismatch(_)) => {}
            Ok(_) if cut == decisions.len() - 1 => continue,
            other => panic!("decisions cut at byte {cut}: {other:?}"),
        }
        assert_refusal_left_service_serving(&service, cut);
    }
    assert_eq!(serial_session().import_decisions(Cursor::new(&decisions)).unwrap(), 2);

    let full = banded(12, &[-2, 0, 1]);
    let mut mtx = Vec::new();
    write_matrix_market(&mut mtx, &full).unwrap();
    for cut in 0..mtx.len() {
        match read_matrix_market::<f64, _>(Cursor::new(&mtx[..cut])) {
            Err(MorpheusError::Parse { .. }) => {}
            Ok(m) if cut == mtx.len() - 1 => {
                assert_eq!(m.iter().collect::<Vec<_>>(), full.iter().collect::<Vec<_>>())
            }
            other => panic!("Matrix Market cut at byte {cut}: {other:?}"),
        }
    }
    assert_refusal_left_service_serving(&serial_session(), mtx.len());
    let back: CooMatrix<f64> = read_matrix_market(Cursor::new(&mtx)).unwrap();
    assert_eq!(back.nnz(), full.nnz());
}

/// An empty export: the header of every decisions file this engine reads.
fn decisions_header(service: &OracleService<RunFirstTuner>) -> String {
    let mut exported = Vec::new();
    service.export_decisions(&mut exported).unwrap();
    String::from_utf8(exported).unwrap().replace("entries 0\nend\n", "")
}

/// A file that names one key twice is malformed — an export never writes
/// one — and is refused before anything is inserted.
#[test]
fn a_repeated_decisions_key_is_invalid_config() {
    let service = serial_session();
    let file =
        decisions_header(&service) + "entries 2\ndecision 1 8 spmv CSR -\ndecision 1 8 spmv DIA -\nend\n";
    let r = service.import_decisions(Cursor::new(file.as_bytes()));
    assert!(matches!(&r, Err(OracleError::InvalidConfig(why)) if why.contains("repeated")), "{r:?}");
    assert_eq!(service.cache_stats().len, 0);
}

/// With caching disabled every insert is a no-op: the import reports none.
#[test]
fn importing_into_a_disabled_cache_reports_nothing_inserted() {
    let disabled = Oracle::builder()
        .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
        .tuner(RunFirstTuner::new(1))
        .cache_capacity(0)
        .build_service()
        .unwrap();
    let file = decisions_header(&disabled) + "entries 1\ndecision 1 8 spmv CSR -\nend\n";
    assert_eq!(disabled.import_decisions(Cursor::new(file.as_bytes())).unwrap(), 0);
    assert_eq!(serial_session().import_decisions(Cursor::new(file.as_bytes())).unwrap(), 1);
    assert_eq!(disabled.cache_stats().len, 0);
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
