//! Property-based equivalence of the direct conversion engine with the COO
//! hub, and the shared-analysis reuse contract.
//!
//! Three guarantees are pinned here:
//! 1. For **every** source/target format pair, the dispatched conversion
//!    (direct kernel where one exists) is pattern- *and* value-equivalent to
//!    the reference COO-hub path, including edge shapes.
//! 2. An [`Analysis`]-derived `MatrixStats` is bitwise-equal to `stats_of`
//!    on every active format, and supplying the analysis to feature
//!    extraction, cache keying and conversion planning performs **zero**
//!    additional full matrix traversals (the `passes` counter).
//! 3. A full Oracle tuning call performs a bounded number of traversals:
//!    hash + the one analysis walk on a miss, hash only on a hit.
//! 4. The array-built BSR and BELL conversions equal a per-row reference
//!    walk kept in this file, from COO and from CSR, for every ladder and
//!    block-dimension shape (BELL through its bucket assignment and its
//!    row-major walk, not its cell layout).
//! 5. The DIA and HDC conversions equal a per-entry reference kept in this
//!    file, from COO and from CSR, unplanned, planned by an [`Analysis`] and
//!    into stored diagonals, on small, edge-shaped and pool-sized inputs.

use morpheus_repro::machine::{systems, Backend, VirtualEngine};
use morpheus_repro::morpheus::analysis::{passes, Analysis};
use morpheus_repro::morpheus::convert::kernels::PARALLEL_CONVERT_THRESHOLD;
use morpheus_repro::morpheus::convert::{coo_to_bell, coo_to_bsr, coo_to_csr, csr_to_bell, csr_to_bsr};
use morpheus_repro::morpheus::format::{FormatId, ALL_FORMATS};
use morpheus_repro::morpheus::stats::stats_of;
use morpheus_repro::morpheus::{
    convert_via_hub, for_each_entry_row_major, BellMatrix, BsrMatrix, ConvertOptions, ConvertPath, CooMatrix,
    CsrMatrix, DiaMatrix, DynamicMatrix, FormatParams, HdcMatrix,
};
use morpheus_repro::oracle::{FeatureVector, Oracle, RunFirstTuner};
use proptest::prelude::*;

/// Strategy: a small random sparse matrix with strictly non-zero values
/// (DIA storage elides explicit zeros, which would be a legitimate — but
/// noisy — difference).
fn arb_matrix() -> impl Strategy<Value = DynamicMatrix<f64>> {
    (1usize..36, 1usize..36).prop_flat_map(|(nrows, ncols)| {
        let entry = (0..nrows, 0..ncols, -100i32..100).prop_map(|(r, c, v)| (r, c, v));
        proptest::collection::vec(entry, 0..140).prop_map(move |entries| {
            let rows: Vec<usize> = entries.iter().map(|e| e.0).collect();
            let cols: Vec<usize> = entries.iter().map(|e| e.1).collect();
            let vals: Vec<f64> = entries.iter().map(|e| f64::from(e.2) + 1000.5).collect();
            DynamicMatrix::from(CooMatrix::from_triplets(nrows, ncols, &rows, &cols, &vals).unwrap())
        })
    })
}

fn tolerant_opts() -> ConvertOptions {
    ConvertOptions { min_padded_allowance: 1 << 24, ..Default::default() }
}

/// Every (source, target) pair: the dispatcher's result equals the
/// reference COO-hub result exactly (same representation, not just the same
/// entries).
fn assert_all_pairs_match_hub(base: &DynamicMatrix<f64>, opts: &ConvertOptions) {
    for &src in &ALL_FORMATS {
        let m = convert_via_hub(base, src, opts).unwrap();
        for &target in &ALL_FORMATS {
            let expect = convert_via_hub(&m, target, opts).unwrap();
            let (got, outcome) = m.to_format_with(target, opts, None).unwrap();
            assert_eq!(got, expect, "{src} -> {target}");
            // The dispatcher must use a direct kernel whenever one side of
            // the pair is an interchange format; every other pair goes
            // through a materialised copy (COO, or CSR into BSR/BELL).
            let direct_exists = src == target
                || matches!(src, FormatId::Coo | FormatId::Csr)
                || matches!(target, FormatId::Coo | FormatId::Csr);
            let expected_path = if src == target {
                ConvertPath::Identity
            } else if direct_exists {
                ConvertPath::Direct
            } else {
                ConvertPath::Hub
            };
            assert_eq!(outcome.path, expected_path, "{src} -> {target}");
        }
    }
}

/// One expected BELL bucket: its width and the rows assigned to it.
type BucketRef = (usize, Vec<u32>);

/// Per-row reference for BELL: each row is looked up and measured on its
/// own, and assigned to the first ladder rung wide enough — the walk the
/// array builder replaced. What the buckets *hold* is checked through the
/// row-major walk, so the reference knows nothing of the cell layout.
fn bell_reference(coo: &CooMatrix<f64>, widths: &[usize]) -> Vec<BucketRef> {
    let row_lens: Vec<usize> = (0..coo.nrows()).map(|r| coo.iter().filter(|e| e.0 == r).count()).collect();
    let max_width = row_lens.iter().copied().max().unwrap_or(0);
    let mut ladder: Vec<usize> = widths.iter().copied().filter(|&w| w > 0).collect();
    ladder.sort_unstable();
    ladder.dedup();
    if widths.is_empty() {
        // Powers of two below the widest row, then the widest row itself.
        let mut w = 1;
        while w < max_width {
            ladder.push(w);
            w *= 2;
        }
    }
    if ladder.last().copied().unwrap_or(0) < max_width {
        ladder.push(max_width);
    }
    let mut buckets = Vec::new();
    for (b, &width) in ladder.iter().enumerate() {
        let lower = if b == 0 { 0 } else { ladder[b - 1] };
        let members: Vec<u32> = (0..row_lens.len())
            .filter(|&r| row_lens[r] > lower && row_lens[r] <= width)
            .map(|r| r as u32)
            .collect();
        if !members.is_empty() {
            buckets.push((width, members));
        }
    }
    buckets
}

fn assert_bell_eq(got: &BellMatrix<f64>, coo: &CooMatrix<f64>, expect: &[BucketRef], what: &str) {
    assert_eq!((got.nrows(), got.ncols(), got.nnz()), (coo.nrows(), coo.ncols(), coo.nnz()), "{what}");
    assert_eq!(got.buckets().len(), expect.len(), "{what}: bucket count");
    for (b, (width, rows)) in got.buckets().iter().zip(expect) {
        assert_eq!(b.width(), *width, "{what}");
        assert_eq!(b.rows(), rows.as_slice(), "{what} width {width}");
        assert_eq!(
            b.padded_len(),
            width * rows.len(),
            "{what} width {width}: padded to the width, no further"
        );
    }
    let mut walked = Vec::new();
    for_each_entry_row_major(&DynamicMatrix::from(got.clone()), |r, c, v| walked.push((r, c, v)));
    assert!(walked.iter().copied().eq(coo.iter()), "{what}: the buckets hold other entries than the source");
}

/// Per-row reference for BSR: every entry finds its block by searching the
/// block row's sorted block-column list.
fn bsr_reference(coo: &CooMatrix<f64>, r: usize, c: usize) -> BsrMatrix<f64> {
    let mut offsets = vec![0usize];
    let (mut block_cols, mut masks, mut values) = (Vec::new(), Vec::new(), Vec::new());
    for br in 0..coo.nrows().div_ceil(r) {
        let in_block_row = |e: &(usize, usize, f64)| e.0 / r == br;
        let mut bcols: Vec<usize> = coo.iter().filter(in_block_row).map(|e| e.1 / c).collect();
        bcols.sort_unstable();
        bcols.dedup();
        let base = block_cols.len();
        masks.resize(base + bcols.len(), 0u64);
        values.resize((base + bcols.len()) * r * c, 0.0);
        for (row, col, v) in coo.iter().filter(in_block_row) {
            let bi = base + bcols.binary_search(&(col / c)).unwrap();
            let slot = (row % r) * c + col % c;
            masks[bi] |= 1u64 << slot;
            values[bi * r * c + slot] = v;
        }
        block_cols.extend(bcols);
        offsets.push(block_cols.len());
    }
    BsrMatrix::from_parts(coo.nrows(), coo.ncols(), r, c, offsets, block_cols, masks, values).unwrap()
}

/// Both array-built formats, from COO and from CSR, against the per-row
/// references — every ladder shape and every block-dimension pair.
fn assert_block_builders_match_reference(coo: &CooMatrix<f64>) {
    let csr = coo_to_csr(coo);
    let ladders: [&[usize]; 6] = [&[], &[1], &[1000], &[2, 6], &[1, 2, 4, 8, 16, 32], &[6, 2, 2, 0]];
    for ladder in ladders {
        let opts =
            ConvertOptions { params: FormatParams::default().with_bell_ladder(ladder), ..tolerant_opts() };
        let expect = bell_reference(coo, opts.params.bell_ladder());
        assert_bell_eq(&coo_to_bell(coo, &opts).unwrap(), coo, &expect, &format!("COO ladder {ladder:?}"));
        assert_bell_eq(&csr_to_bell(&csr, &opts).unwrap(), coo, &expect, &format!("CSR ladder {ladder:?}"));
    }
    for r in [2usize, 4, 8] {
        for c in [2usize, 4, 8] {
            let opts = ConvertOptions {
                params: FormatParams { bsr_block: (r, c), ..Default::default() },
                ..tolerant_opts()
            };
            let expect = bsr_reference(coo, r, c);
            assert_eq!(coo_to_bsr(coo, &opts).unwrap(), expect, "COO {r}x{c}");
            assert_eq!(csr_to_bsr(&csr, &opts).unwrap(), expect, "CSR {r}x{c}");
        }
    }
}

/// Per-entry reference for DIA: the diagonals are the distinct `c - r` of
/// the entries, ascending, and each entry finds its slot by searching them.
fn dia_reference(coo: &CooMatrix<f64>) -> DiaMatrix<f64> {
    let nrows = coo.nrows();
    let mut offsets: Vec<isize> = coo.iter().map(|(r, c, _)| c as isize - r as isize).collect();
    offsets.sort_unstable();
    offsets.dedup();
    let mut values = vec![0.0; offsets.len() * nrows];
    for (r, c, v) in coo.iter() {
        let d = offsets.binary_search(&(c as isize - r as isize)).unwrap();
        values[d * nrows + r] = v;
    }
    DiaMatrix::from_parts(nrows, coo.ncols(), offsets, values, coo.nnz()).unwrap()
}

/// Per-entry reference for HDC: a diagonal is true when it holds at least
/// `ceil(alpha * min(nrows, ncols))` entries (and at least one); entries on
/// a true diagonal go to the DIA part, every other entry, in row-major
/// order, to the CSR remainder.
fn hdc_reference(coo: &CooMatrix<f64>, alpha: f64) -> HdcMatrix<f64> {
    let (nrows, ncols) = (coo.nrows(), coo.ncols());
    let threshold = ((alpha * nrows.min(ncols) as f64).ceil() as usize).max(1);
    let mut population = std::collections::BTreeMap::<isize, usize>::new();
    for (r, c, _) in coo.iter() {
        *population.entry(c as isize - r as isize).or_default() += 1;
    }
    let offsets: Vec<isize> =
        population.into_iter().filter(|&(_, n)| n >= threshold).map(|(off, _)| off).collect();
    let mut values = vec![0.0; offsets.len() * nrows];
    let (mut rem_offsets, mut rem_cols, mut rem_vals) = (vec![0usize; nrows + 1], Vec::new(), Vec::new());
    for (r, c, v) in coo.iter() {
        match offsets.binary_search(&(c as isize - r as isize)) {
            Ok(d) => values[d * nrows + r] = v,
            Err(_) => {
                rem_offsets[r + 1] += 1;
                rem_cols.push(c);
                rem_vals.push(v);
            }
        }
    }
    for r in 0..nrows {
        rem_offsets[r + 1] += rem_offsets[r];
    }
    let dia_nnz = coo.nnz() - rem_cols.len();
    let dia = DiaMatrix::from_parts(nrows, ncols, offsets, values, dia_nnz).unwrap();
    let rem = CsrMatrix::from_parts(nrows, ncols, rem_offsets, rem_cols, rem_vals).unwrap();
    HdcMatrix::from_parts(dia, rem, alpha).unwrap()
}

/// DIA and HDC (under several `alpha`s), from COO and from CSR, each in
/// three modes — unplanned, planned by an [`Analysis`] of the source, and
/// into the reference's stored diagonals — against the references.
fn assert_diagonal_builders_match_reference(coo: &CooMatrix<f64>) {
    let csr = DynamicMatrix::Csr(coo_to_csr(coo));
    let dia = dia_reference(coo);
    let cases =
        std::iter::once((FormatId::Dia, 0.2, DynamicMatrix::Dia(dia.clone()), dia.offsets().to_vec())).chain(
            [0.02, 0.1, 0.2, 0.6].map(|alpha| {
                let hdc = hdc_reference(coo, alpha);
                let stored = hdc.dia().offsets().to_vec();
                (FormatId::Hdc, alpha, DynamicMatrix::Hdc(hdc), stored)
            }),
        );
    for (target, alpha, expect, stored) in cases {
        let opts = ConvertOptions { true_diag_alpha: alpha, ..tolerant_opts() };
        for src in [DynamicMatrix::from(coo.clone()), csr.clone()] {
            let what = format!("{} -> {target} alpha {alpha}", src.format_id());
            let (unplanned, outcome) = src.to_format_with(target, &opts, None).unwrap();
            assert_eq!(outcome.path, ConvertPath::Direct, "{what}");
            assert_eq!(unplanned, expect, "{what}: unplanned");
            let a = Analysis::of(&src, alpha);
            assert_eq!(src.to_format_with(target, &opts, Some(&a)).unwrap().0, expect, "{what}: planned");
            let mut into_stored = src.clone();
            into_stored.convert_to_diagonals(target, &opts, &stored).unwrap();
            assert_eq!(into_stored, expect, "{what}: stored diagonals");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn diagonal_builders_match_per_entry_reference(base in arb_matrix()) {
        assert_diagonal_builders_match_reference(&base.to_coo());
    }

    #[test]
    fn direct_equals_hub_for_all_pairs(base in arb_matrix()) {
        assert_all_pairs_match_hub(&base, &tolerant_opts());
    }

    #[test]
    fn block_builders_match_per_row_reference(base in arb_matrix()) {
        assert_block_builders_match_reference(&base.to_coo());
    }

    #[test]
    fn analysis_stats_bitwise_equal_on_every_format(base in arb_matrix()) {
        let opts = tolerant_opts();
        for &fmt in &ALL_FORMATS {
            let m = base.to_format(fmt, &opts).unwrap();
            for alpha in [0.1, 0.2, 0.9] {
                let a = Analysis::of(&m, alpha);
                let s = stats_of(&m, alpha);
                // Bitwise: both reduce through the same accumulation order.
                prop_assert_eq!(&a.stats, &s, "{} alpha {}", fmt, alpha);
                prop_assert_eq!(
                    FeatureVector::from_analysis(&a).as_slice(),
                    FeatureVector::from_stats(&s).as_slice()
                );
            }
        }
    }

    #[test]
    fn planned_conversion_adds_zero_traversals(base in arb_matrix()) {
        let opts = tolerant_opts();
        let a = Analysis::of(&base, opts.true_diag_alpha);
        passes::reset();
        // Feature extraction, cache keying and conversion planning off the
        // shared artifact: no traversal may be recorded.
        let _ = FeatureVector::from_analysis(&a);
        let _ = a.structure_hash;
        for &target in &ALL_FORMATS {
            let _ = base.to_format_with(target, &opts, Some(&a)).unwrap();
        }
        prop_assert_eq!(passes::count(), 0, "analysis reuse must not re-traverse the matrix");
    }
}

#[test]
fn edge_shapes_convert_identically() {
    let opts = tolerant_opts();

    // Empty matrix.
    let empty = DynamicMatrix::from(CooMatrix::<f64>::new(6, 4));

    // Single dense row.
    let n = 12usize;
    let dense_row = DynamicMatrix::from(
        CooMatrix::from_triplets(n, n, &vec![3usize; n], &(0..n).collect::<Vec<_>>(), &vec![2.5f64; n])
            .unwrap(),
    );

    // All-diagonal (pure DIA pattern, every diagonal true).
    let diag = DynamicMatrix::from(
        CooMatrix::from_triplets(
            n,
            n,
            &(0..n).collect::<Vec<_>>(),
            &(0..n).collect::<Vec<_>>(),
            &(0..n).map(|i| i as f64 + 1.0).collect::<Vec<_>>(),
        )
        .unwrap(),
    );

    // Single column (transpose of the dense-row shape).
    let col = DynamicMatrix::from(
        CooMatrix::from_triplets(n, n, &(0..n).collect::<Vec<_>>(), &vec![0usize; n], &vec![1.5f64; n])
            .unwrap(),
    );

    for m in [&empty, &dense_row, &diag, &col] {
        assert_all_pairs_match_hub(m, &opts);
        for &fmt in &ALL_FORMATS {
            let conv = m.to_format(fmt, &opts).unwrap();
            assert_eq!(Analysis::of(&conv, 0.2).stats, stats_of(&conv, 0.2), "{fmt}");
        }
    }
}

#[test]
fn block_builders_match_reference_on_edge_shapes() {
    let t = |nr: usize, nc: usize, rows: &[usize], cols: &[usize]| {
        let vals: Vec<f64> = (0..rows.len()).map(|i| 1.5 + i as f64).collect();
        CooMatrix::from_triplets(nr, nc, rows, cols, &vals).unwrap()
    };
    let wide = 40usize;
    let shapes = [
        // Empty matrix, and a shape no block dimension divides.
        CooMatrix::<f64>::new(5, 7),
        t(7, 13, &[0, 0, 3, 3, 4, 6, 6], &[0, 12, 5, 6, 2, 0, 11]),
        // Leading, interior and trailing empty rows.
        t(9, 9, &[2, 2, 2, 5, 6, 6], &[0, 4, 8, 3, 1, 2]),
        // A single row wider than every explicit ladder entry but 1000.
        t(3, wide, &vec![1; wide], &(0..wide).collect::<Vec<_>>()),
        // One over-wide row among short ones (tiles mix widths).
        t(
            20,
            wide,
            &(0..20).chain(std::iter::repeat_n(7, wide - 1)).collect::<Vec<_>>(),
            &std::iter::repeat_n(0, 20).chain(1..wide).collect::<Vec<_>>(),
        ),
    ];
    for coo in &shapes {
        assert_block_builders_match_reference(coo);
    }
}

#[test]
fn diagonal_builders_match_reference_on_edge_shapes() {
    let t = |nr: usize, nc: usize, rows: &[usize], cols: &[usize]| {
        let vals: Vec<f64> = (0..rows.len()).map(|i| 1.5 + i as f64).collect();
        CooMatrix::from_triplets(nr, nc, rows, cols, &vals).unwrap()
    };
    let n = 12usize;
    let diagonal: Vec<usize> = (0..n).collect();
    let shapes = [
        // Empty matrices, with and without rows and columns.
        CooMatrix::<f64>::new(6, 4),
        CooMatrix::new(0, 5),
        CooMatrix::new(5, 0),
        CooMatrix::new(0, 0),
        // The two extreme diagonals alone.
        t(7, 5, &[0, 6], &[4, 0]),
        // One dense row, one dense column, and a full diagonal.
        t(n, n, &vec![3; n], &diagonal),
        t(n, n, &diagonal, &vec![0; n]),
        t(n, n, &diagonal, &diagonal),
        // Leading, interior and trailing empty rows, wide and tall.
        t(9, 20, &[2, 2, 2, 5, 6, 6], &[0, 4, 19, 3, 1, 2]),
        t(20, 3, &[1, 4, 4, 9, 17], &[2, 0, 1, 0, 2]),
    ];
    for coo in &shapes {
        assert_diagonal_builders_match_reference(coo);
    }
}

/// A matrix with at least [`PARALLEL_CONVERT_THRESHOLD`] entries, where the
/// DIA and HDC fills and the row-major export run on the process pool's
/// row parts: a band of nine diagonals, a wide row, and a scatter off the
/// band that HDC keeps in its remainder.
#[test]
fn diagonal_builders_and_export_match_reference_at_pool_size() {
    let n = 2_400usize;
    let (mut rows, mut cols) = (Vec::new(), Vec::new());
    for i in 0..n {
        for d in -4isize..=4 {
            let j = i as isize + d;
            if (0..n as isize).contains(&j) && (i + d.unsigned_abs()) % 7 != 0 {
                rows.push(i);
                cols.push(j as usize);
            }
        }
        if i % 5 == 0 {
            rows.push(i);
            cols.push((i * 37 + 11) % n);
        }
    }
    rows.extend(std::iter::repeat_n(n / 2, 300));
    cols.extend((0..300).map(|k| k * 6 + 1));
    let vals: Vec<f64> = (0..rows.len()).map(|i| (i % 23) as f64 - 11.5).collect();
    let coo = CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap();
    assert!(coo.nnz() >= PARALLEL_CONVERT_THRESHOLD, "{} entries", coo.nnz());
    assert_diagonal_builders_match_reference(&coo);
    let opts = tolerant_opts();
    let source = DynamicMatrix::from(coo.clone());
    for target in [FormatId::Dia, FormatId::Hdc] {
        let m = source.to_format(target, &opts).unwrap();
        assert_eq!(m.to_format(FormatId::Coo, &opts).unwrap(), source, "{target} -> COO");
        assert_eq!(
            m.to_format(FormatId::Csr, &opts).unwrap(),
            DynamicMatrix::Csr(coo_to_csr(&coo)),
            "{target} -> CSR"
        );
    }
}

#[test]
fn oracle_tune_traversal_budget() {
    // Tridiagonal matrix, tuned twice: the miss pays the hash and the one
    // analysis walk (2 traversals; the machine view re-reads a matrix only
    // for a mixed HDC split, and every diagonal here is true), the hit only
    // the hash (plus the one-off post-conversion alias hash on the miss —
    // `tune` leaves the switched matrix with the caller, who may bring it
    // back; `register` consumes its matrix and pays no such hash).
    let n = 3000usize;
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    for i in 0..n {
        for d in [-1isize, 0, 1] {
            let j = i as isize + d;
            if j >= 0 && (j as usize) < n {
                rows.push(i);
                cols.push(j as usize);
            }
        }
    }
    let vals = vec![1.0f64; rows.len()];
    let base = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());

    let oracle = Oracle::builder()
        .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
        .tuner(RunFirstTuner::new(3))
        .build_service()
        .unwrap();

    let mut first = base.clone();
    passes::reset();
    let r1 = oracle.tune(&mut first).unwrap();
    assert!(!r1.cache_hit);
    let miss_traversals = passes::count();
    // hash + Analysis::of (+1 alias hash if converted).
    let budget = 2 + u64::from(r1.converted);
    assert!(miss_traversals <= budget, "cache miss performed {miss_traversals} traversals, budget {budget}");

    let mut second = base.clone();
    passes::reset();
    let r2 = oracle.tune(&mut second).unwrap();
    assert!(r2.cache_hit);
    // A hit skips analysis entirely: the key hash, plus at most one
    // planning scan inside the conversion (no Analysis is built on hits).
    let hit_traversals = passes::count();
    assert!(hit_traversals <= 2, "cache hit performed {hit_traversals} traversals, budget 2");

    // A registration of a fresh structure: the hash and the walk, exactly —
    // whatever it converts to, the converted arrays are not hashed.
    oracle.clear_cache();
    passes::reset();
    let handle = oracle.register(base.clone()).unwrap();
    assert!(!handle.report().cache_hit);
    assert_eq!(passes::count(), 2, "a registration's miss: the key hash and the analysis walk");
    passes::reset();
    let again = oracle.register(base).unwrap();
    assert!(again.report().cache_hit);
    let planning_scan = u64::from(again.report().converted);
    assert!(passes::count() <= 1 + planning_scan, "a repeat registration: the hash ({})", passes::count());
}

#[test]
fn tune_report_carries_conversion_outcome() {
    let n = 800usize;
    let rows: Vec<usize> = (0..n).collect();
    let cols: Vec<usize> = (0..n).collect();
    let vals = vec![1.0f64; n];
    let mut m = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());

    let oracle = Oracle::builder()
        .engine(VirtualEngine::new(systems::a64fx(), Backend::Serial))
        .tuner(RunFirstTuner::new(2))
        .build_service()
        .unwrap();
    let report = oracle.tune(&mut m).unwrap();
    if report.converted {
        // COO source: every conversion target has a direct kernel.
        assert_eq!(report.convert.path, ConvertPath::Direct);
    } else {
        assert_eq!(report.convert.path, ConvertPath::Identity);
    }
    assert!(report.convert.seconds >= 0.0);

    // Re-tuning the already-switched matrix is an identity conversion.
    let again = oracle.tune(&mut m).unwrap();
    assert!(!again.converted);
    assert_eq!(again.convert.path, ConvertPath::Identity);
    assert_eq!(again.convert.seconds, 0.0);
}
