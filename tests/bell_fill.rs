//! BELL's fill has a portable form and AVX2 ones, picked by the detected CPU
//! features; every BELL, ELL and HYB conversion runs it. Whatever the form,
//! the stored arrays are the same bits: built from the same row-major arrays
//! with the detected features and with none, every matrix of the corpus and
//! every edge shape of the slice layout (width-1 buckets, ragged last
//! slices, empty rows, a row as wide as the matrix, a ladder narrower than
//! the longest row, HYB's first-`K` runs) stores bitwise the same buckets,
//! at `f64` and `f32`. Malformed arrays — a column past the shape, a run
//! past the arrays — panic in both forms.

use morpheus_repro::corpus::CorpusSpec;
use morpheus_repro::morpheus::convert::{
    coo_to_csr, csr_to_bell, csr_to_ell, csr_to_hyb, padded_from_arrays,
};
use morpheus_repro::morpheus::{
    BellMatrix, ConvertOptions, CpuFeatures, CsrMatrix, DynamicMatrix, FormatId, FormatParams, HybSplit,
    Scalar,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Row-major arrays: `offsets` (`nrows + 1`), `cols`, `vals`.
struct Arrays<V> {
    shape: (usize, usize),
    offsets: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<V>,
}

impl<V: Scalar> Arrays<V> {
    /// `row_len(r)` ascending columns in row `r`, spread over the row, with
    /// values of both signs, negative zeros and a NaN among them.
    fn of(nrows: usize, ncols: usize, row_len: impl Fn(usize) -> usize) -> Self {
        let (mut offsets, mut cols, mut vals) = (vec![0], Vec::new(), Vec::new());
        for r in 0..nrows {
            let n = row_len(r);
            assert!(n <= ncols);
            let stride = ncols / n.max(1);
            for j in 0..n {
                cols.push(j * stride + (r % stride.max(1)).min(stride - 1));
                let k = cols.len();
                vals.push(V::from_f64(match k % 11 {
                    3 => -0.0,
                    7 if k % 77 == 7 => f64::NAN,
                    m => (m as f64 - 5.0) * 0.375 + r as f64 * 1e-3,
                }));
            }
            offsets.push(cols.len());
        }
        Arrays { shape: (nrows, ncols), offsets, cols, vals }
    }

    fn csr_of(csr: &CsrMatrix<f64>) -> Self {
        let vals = csr.values().iter().map(|&v| V::from_f64(v)).collect();
        let (offsets, cols) = (csr.row_offsets().to_vec(), csr.col_indices().to_vec());
        Arrays { shape: (csr.nrows(), csr.ncols()), offsets, cols, vals }
    }

    fn longest(&self) -> usize {
        self.offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }

    fn build(&self, target: FormatId, opts: &ConvertOptions, cpu: CpuFeatures) -> Option<DynamicMatrix<V>> {
        let arrays = (&self.offsets[..], &self.cols[..], &self.vals[..]);
        padded_from_arrays(target, self.shape, arrays, opts, cpu).ok()
    }
}

/// A bucket's width, rows, columns and values as bits.
type Bucket = (usize, Vec<u32>, Vec<u32>, Vec<u64>);

/// Every bucket a BELL matrix stores.
fn bell_bits<V: Scalar>(b: &BellMatrix<V>) -> Vec<Bucket> {
    let bits = |vals: &[V]| vals.iter().map(|v| v.to_f64().to_bits()).collect();
    b.buckets().iter().map(|k| (k.width(), k.rows().to_vec(), k.cols().to_vec(), bits(k.vals()))).collect()
}

/// The stored arrays of a BELL, ELL or HYB matrix; a HYB's spill as its
/// triplets, values as bits.
fn stored<V: Scalar>(m: &DynamicMatrix<V>) -> (Vec<Bucket>, Vec<(usize, usize, u64)>) {
    match m {
        DynamicMatrix::Bell(b) => (bell_bits(b), Vec::new()),
        DynamicMatrix::Ell(e) => (bell_bits(e.bell()), Vec::new()),
        DynamicMatrix::Hyb(h) => (
            bell_bits(h.ell().bell()),
            h.coo().iter().map(|(r, c, v)| (r, c, v.to_f64().to_bits())).collect(),
        ),
        other => panic!("{} is not filled by BELL's builder", other.format_id()),
    }
}

/// Options that let every layout of these small shapes through the guards.
fn roomy(params: FormatParams, hyb_split: HybSplit) -> ConvertOptions {
    ConvertOptions { min_padded_allowance: 1 << 24, params, hyb_split, ..Default::default() }
}

/// `a` built as `target` under `opts` stores the same bits with the
/// detected features as with none (or fails with both). Returns whether it
/// was built.
fn same_bits<V: Scalar>(what: &str, a: &Arrays<V>, target: FormatId, opts: &ConvertOptions) -> bool {
    let portable = a.build(target, opts, CpuFeatures::none());
    let detected = a.build(target, opts, CpuFeatures::detect());
    assert_eq!(portable.is_some(), detected.is_some(), "{what}, {target}: built by one form only");
    if let (Some(p), Some(d)) = (&portable, &detected) {
        assert_eq!(p.nnz(), d.nnz(), "{what}, {target}");
        assert!(stored(p) == stored(d), "{what}, {target}: the forms store different bits");
    }
    portable.is_some()
}

/// `a` as BELL under each ladder, as ELL and as HYB with each split.
fn every_layout<V: Scalar>(what: &str, a: &Arrays<V>, ladders: &[&[usize]], splits: &[HybSplit]) {
    for ladder in ladders {
        let opts = roomy(FormatParams::default().with_bell_ladder(ladder), HybSplit::Auto);
        same_bits(&format!("{what}, ladder {ladder:?}"), a, FormatId::Bell, &opts);
    }
    same_bits(what, a, FormatId::Ell, &roomy(FormatParams::default(), HybSplit::Auto));
    for &split in splits {
        same_bits(&format!("{what}, {split:?}"), a, FormatId::Hyb, &roomy(FormatParams::default(), split));
    }
}

fn edge_shapes<V: Scalar>() {
    let ncols = 61usize;
    let first_k = [HybSplit::Auto, HybSplit::Width(1), HybSplit::Width(2), HybSplit::Width(5)];
    // One bucket of 1..=23 rows: no, one and two full slices and every
    // ragged length; rows shorter than the bucket are padded.
    for n in 1..=23usize {
        let a = Arrays::<V>::of(n, ncols, |r| 3 + r % 3);
        every_layout(&format!("{n} rows"), &a, &[&[5], &[]], &first_k);
        let ones = Arrays::<V>::of(n, ncols, |_| 1);
        every_layout(&format!("{n} rows of one"), &ones, &[&[1], &[]], &[HybSplit::Width(1)]);
    }
    // Empty rows at both ends and in runs, and nothing but empty rows.
    let gaps = |r: usize| {
        if r < 3 || (20..29).contains(&r) || r.is_multiple_of(7) || r > 50 {
            0
        } else {
            1 + r % 9
        }
    };
    every_layout("empty rows", &Arrays::<V>::of(57, ncols, gaps), &[&[], &[2, 4]], &first_k);
    every_layout("all rows empty", &Arrays::<V>::of(19, ncols, |_| 0), &[&[]], &first_k);
    // A row as wide as the matrix among short ones, in a full slice and in
    // the ragged one.
    for wide in [4usize, 17] {
        let a = Arrays::<V>::of(21, ncols, |r| if r == wide { ncols } else { 1 + r % 4 });
        every_layout(&format!("row {wide} full"), &a, &[&[], &[2], &[ncols]], &first_k);
    }
    // Ladders narrower than the longest row: the builder appends a bucket.
    let seven = |r: usize| [1, 2, 3, 5, 9, 17, 33][r % 7];
    let a = Arrays::<V>::of(75, ncols, seven);
    assert!(a.longest() > 4);
    let ladders: [&[usize]; 5] = [&[], &[2], &[1, 4], &[3, 9, 27], &[6, 2, 2, 0]];
    every_layout("seven populations", &a, &ladders, &first_k);
}

#[test]
fn edge_shapes_store_the_same_bits_in_every_form_f64() {
    if !CpuFeatures::detect().avx2 {
        println!("AVX2 not detected: both builds run the portable fill");
    }
    edge_shapes::<f64>();
}

#[test]
fn edge_shapes_store_the_same_bits_in_every_form_f32() {
    edge_shapes::<f32>();
}

/// Every corpus matrix as the conversions build it: default options, so a
/// layout the guards refuse is refused by both forms.
fn corpus<V: Scalar>() {
    let opts = ConvertOptions::default();
    let mut built = 0usize;
    for entry in CorpusSpec::small(200).iter() {
        let csr = coo_to_csr(&entry.matrix);
        let a = Arrays::<V>::csr_of(&csr);
        for target in [FormatId::Bell, FormatId::Ell, FormatId::Hyb] {
            built += usize::from(same_bits(&entry.name, &a, target, &opts));
        }
    }
    assert!(built >= 400, "only {built} of 600 conversions passed the guards");
}

#[test]
fn the_corpus_stores_the_same_bits_in_every_form_f64() {
    corpus::<f64>();
}

#[test]
fn the_corpus_stores_the_same_bits_in_every_form_f32() {
    corpus::<f32>();
}

/// The conversions run the detected form: `csr_to_*` stores what the
/// detected build does.
#[test]
fn the_conversions_fill_with_the_detected_features() {
    let opts = ConvertOptions::default();
    for entry in CorpusSpec::small(40).iter() {
        let csr = coo_to_csr(&entry.matrix);
        let a = Arrays::<f64>::csr_of(&csr);
        let detected = |target| a.build(target, &opts, CpuFeatures::detect()).map(|m| stored(&m));
        let bell = csr_to_bell(&csr, &opts).ok().map(|m| stored(&DynamicMatrix::Bell(m)));
        assert!(bell == detected(FormatId::Bell), "{}: BELL", entry.name);
        let ell = csr_to_ell(&csr, &opts).ok().map(|m| stored(&DynamicMatrix::Ell(m)));
        assert!(ell == detected(FormatId::Ell), "{}: ELL", entry.name);
        let hyb = csr_to_hyb(&csr, &opts).ok().map(|m| stored(&DynamicMatrix::Hyb(m)));
        assert!(hyb == detected(FormatId::Hyb), "{}: HYB", entry.name);
    }
}

/// The panic message of `build`, which must panic.
fn panic_of(build: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(build)).expect_err("malformed arrays were built");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap()
}

/// Malformed arrays panic in both forms, with the same message: a column
/// past the shape (in a full slice and in the ragged one, in the first and
/// in a later bucket), a run past the end of the arrays.
#[test]
fn malformed_arrays_panic_in_every_form() {
    let cpus = [CpuFeatures::none(), CpuFeatures::detect()];
    for target in [FormatId::Bell, FormatId::Ell, FormatId::Hyb] {
        for row in [2usize, 11, 18] {
            let mut a = Arrays::<f64>::of(19, 40, |r| 1 + r % 3);
            let last = a.offsets[row + 1] - 1;
            a.cols[last] = 40;
            let messages: Vec<String> = cpus
                .map(|cpu| {
                    panic_of(|| {
                        drop(a.build(target, &roomy(FormatParams::default(), HybSplit::Width(3)), cpu))
                    })
                })
                .into();
            assert!(
                messages[0].contains("column index 40 out of range"),
                "{target}, row {row}: {}",
                messages[0]
            );
            assert_eq!(messages[0], messages[1], "{target}, row {row}");
        }
        for short in [1usize, 7] {
            let mut a = Arrays::<f64>::of(19, 40, |r| 1 + r % 3);
            a.cols.truncate(a.cols.len() - short);
            let messages: Vec<String> = cpus
                .map(|cpu| {
                    panic_of(|| {
                        drop(a.build(target, &roomy(FormatParams::default(), HybSplit::Width(3)), cpu))
                    })
                })
                .into();
            assert!(messages[0].contains("lies outside"), "{target}, {short} short: {}", messages[0]);
            assert_eq!(messages[0], messages[1], "{target}, {short} short");
        }
    }
}
