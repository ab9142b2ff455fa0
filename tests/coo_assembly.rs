//! COO assembly differential: `CooBuilder::build` and
//! `CooMatrix::from_triplets` against a naive `BTreeMap` reference that
//! sums each coordinate's entries in push order, bit for bit.
//!
//! The inputs take every path of the assembly: rows already in order
//! (sorted, or with shuffled columns inside each row), rows out of order
//! (column-major, fully shuffled), 1- to 4-fold duplicates whose sum
//! depends on the order it is taken in, empty rows, a row longer than the
//! insertion-sort cutoff, and the degenerate shapes. Bad inputs still get
//! their typed errors.

use std::collections::BTreeMap;

use morpheus_repro::morpheus::{CooBuilder, CooMatrix, MorpheusError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

type Triplet = (usize, usize, f64);

/// The definition: entries ordered by `(row, col)`, each coordinate's
/// values summed left to right in the order they were pushed.
fn reference(triplets: &[Triplet]) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut sums: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for &(r, c, v) in triplets {
        sums.entry((r, c)).and_modify(|s| *s += v).or_insert(v);
    }
    let rows = sums.keys().map(|&(r, _)| r).collect();
    let cols = sums.keys().map(|&(_, c)| c).collect();
    (rows, cols, sums.into_values().collect())
}

/// Both front doors assemble `triplets` into the reference's arrays.
fn check(case: &str, nrows: usize, ncols: usize, triplets: &[Triplet]) {
    let (want_rows, want_cols, want_vals) = reference(triplets);
    let want_bits: Vec<u64> = want_vals.iter().map(|v| v.to_bits()).collect();

    let mut b = CooBuilder::with_capacity(nrows, ncols, triplets.len());
    for &(r, c, v) in triplets {
        b.push(r, c, v).unwrap();
    }
    let rows: Vec<usize> = triplets.iter().map(|t| t.0).collect();
    let cols: Vec<usize> = triplets.iter().map(|t| t.1).collect();
    let vals: Vec<f64> = triplets.iter().map(|t| t.2).collect();
    let built = [
        ("CooBuilder::build", b.build()),
        ("from_triplets", CooMatrix::from_triplets(nrows, ncols, &rows, &cols, &vals).unwrap()),
    ];
    for (door, m) in built {
        assert_eq!((m.nrows(), m.ncols()), (nrows, ncols), "{case} / {door}: shape");
        assert_eq!(m.row_indices(), &want_rows[..], "{case} / {door}: rows");
        assert_eq!(m.col_indices(), &want_cols[..], "{case} / {door}: cols");
        let bits: Vec<u64> = m.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want_bits, "{case} / {door}: values");
    }
}

/// A value whose sum with its duplicates depends on the order of the
/// additions: magnitudes from 1e-3 to 1e16 of either sign.
fn value(rng: &mut StdRng) -> f64 {
    let mag = 10f64.powi(rng.gen_range(-3i32..17));
    let v = mag * rng.gen_range(1.0f64..2.0);
    if rng.gen_bool(0.5) {
        -v
    } else {
        v
    }
}

/// Distinct coordinates (a fraction `fill` of the rows non-empty, so some
/// rows are empty), each pushed 1 to `max_dup` times, in row-major order
/// with the copies of one coordinate adjacent.
fn coordinates(nrows: usize, ncols: usize, fill: f64, max_dup: usize, rng: &mut StdRng) -> Vec<Triplet> {
    let mut out = Vec::new();
    for r in 0..nrows {
        if !rng.gen_bool(fill) {
            continue;
        }
        let cols: Vec<usize> = (0..ncols).filter(|_| rng.gen_bool(0.3)).collect();
        for c in cols {
            for _ in 0..rng.gen_range(1..max_dup + 1) {
                out.push((r, c, value(rng)));
            }
        }
    }
    out
}

/// The four input orders the assembly distinguishes, from one sorted set.
fn orders(sorted: &[Triplet], rng: &mut StdRng) -> Vec<(&'static str, Vec<Triplet>)> {
    let mut by_row = sorted.to_vec();
    let mut start = 0;
    while start < by_row.len() {
        let r = by_row[start].0;
        let end = start + by_row[start..].iter().take_while(|t| t.0 == r).count();
        by_row[start..end].shuffle(rng);
        start = end;
    }
    let mut column_major = sorted.to_vec();
    column_major.sort_by_key(|&(r, c, _)| (c, r));
    let mut shuffled = sorted.to_vec();
    shuffled.shuffle(rng);
    vec![
        ("sorted", sorted.to_vec()),
        ("row-ordered, shuffled columns", by_row),
        ("column-major", column_major),
        ("shuffled", shuffled),
    ]
}

#[test]
fn every_input_order_and_duplicate_count_matches_the_reference() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (nrows, ncols) = (rng.gen_range(1..60), rng.gen_range(1..60));
        let fill = [0.2, 0.7, 1.0][seed as usize % 3];
        let max_dup = 1 + seed as usize % 4;
        let sorted = coordinates(nrows, ncols, fill, max_dup, &mut rng);
        for (order, triplets) in orders(&sorted, &mut rng) {
            let case = format!("seed {seed}, {nrows}x{ncols}, fill {fill}, dup <= {max_dup}, {order}");
            check(&case, nrows, ncols, &triplets);
        }
    }
}

#[test]
fn a_row_longer_than_the_insertion_cutoff() {
    // Row 3 holds 600 entries over 400 columns (duplicates included): far
    // more than an insertion-sorted row, so it sorts through the scratch
    // buffer. The rows around it stay short.
    let mut rng = StdRng::seed_from_u64(77);
    let (nrows, ncols) = (8, 400);
    let mut sorted: Vec<Triplet> = Vec::new();
    for r in 0..nrows {
        let len = if r == 3 { 600 } else { 5 };
        let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..ncols)).collect();
        cols.sort();
        sorted.extend(cols.into_iter().map(|c| (r, c, value(&mut rng))));
    }
    for (order, triplets) in orders(&sorted, &mut rng) {
        check(&format!("long row, {order}"), nrows, ncols, &triplets);
    }
    // Sorted columns with duplicates: the long row is merged without a sort.
    let mut repeated: Vec<Triplet> = (0..200).map(|c| (0, c / 3, value(&mut rng))).collect();
    check("long sorted row with duplicates", 1, 100, &repeated);
    repeated.reverse();
    check("long reversed row with duplicates", 1, 100, &repeated);
}

#[test]
fn order_dependent_sums_follow_push_order() {
    // 1e16 + 1 - 1e16 is 0 in push order and 1 in any order that adds the
    // 1 last: twenty such triples spread across rows and columns.
    let mut triplets = Vec::new();
    for k in 0..20usize {
        let (r, c) = (k % 7, (k * 5) % 11);
        for v in [1e16, 1.0, -1e16] {
            triplets.push((r, c, v));
        }
    }
    check("triples, interleaved", 7, 11, &triplets);
    triplets.sort_by_key(|&(r, c, _)| (r, c));
    let mut rng = StdRng::seed_from_u64(5);
    for (order, t) in orders(&triplets, &mut rng) {
        check(&format!("triples, {order}"), 7, 11, &t);
    }
    let mut b = CooBuilder::new(1, 1);
    for v in [1e16, 1.0, -1e16] {
        b.push(0, 0, v).unwrap();
    }
    assert_eq!(b.build().values(), &[0.0]);
}

#[test]
fn degenerate_shapes() {
    check("0x5", 0, 5, &[]);
    check("5x0", 5, 0, &[]);
    check("0x0", 0, 0, &[]);
    check("1x1 empty", 1, 1, &[]);
    check("1x1", 1, 1, &[(0, 0, 2.5)]);
    check("1x1, four duplicates", 1, 1, &[(0, 0, 1e16), (0, 0, 3.0), (0, 0, -1e16), (0, 0, 0.5)]);
    check("rows all empty but the last", 6, 3, &[(5, 2, 1.0), (5, 0, 2.0), (5, 2, 3.0)]);
}

#[test]
fn bad_inputs_are_typed_errors() {
    let err = CooMatrix::<f64>::from_triplets(2, 3, &[0, 2], &[0, 0], &[1.0, 1.0]).unwrap_err();
    assert!(matches!(err, MorpheusError::IndexOutOfBounds { index: (2, 0), shape: (2, 3) }), "{err:?}");
    let err = CooMatrix::<f64>::from_triplets(2, 3, &[1, 0], &[0, 3], &[1.0, 1.0]).unwrap_err();
    assert!(matches!(err, MorpheusError::IndexOutOfBounds { index: (0, 3), shape: (2, 3) }), "{err:?}");
    let err = CooMatrix::<f64>::from_triplets(0, 3, &[0], &[0], &[1.0]).unwrap_err();
    assert!(matches!(err, MorpheusError::IndexOutOfBounds { .. }), "{err:?}");
    for (rows, cols, vals) in [(&[0, 1][..], &[0][..], &[1.0][..]), (&[0], &[0], &[1.0, 2.0])] {
        let err = CooMatrix::<f64>::from_triplets(2, 2, rows, cols, vals).unwrap_err();
        assert!(matches!(err, MorpheusError::InvalidStructure(_)), "{err:?}");
    }
}
