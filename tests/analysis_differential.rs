//! Differential test of the one-pass analysis: every field of the fused
//! [`Analysis`] artifact — and of the machine view assembled from it —
//! against an independent, naive definition, for every source format.
//!
//! The naive side knows nothing of the walk's mechanics (row runs, block-row
//! stamps, the row-length count table): blocks are counted with sets,
//! locality entry by entry, padding and spill row by row.

use morpheus_repro::machine::{analyze, analyze_from};
use morpheus_repro::morpheus::analysis::{Analysis, GATHER_LINE};
use morpheus_repro::morpheus::bell::default_bucket_widths;
use morpheus_repro::morpheus::format::ALL_FORMATS;
use morpheus_repro::morpheus::hdc::true_diag_threshold;
use morpheus_repro::morpheus::hyb::optimal_hyb_width;
use morpheus_repro::morpheus::stats::{row_nnz_histogram, stats_of, ROW_GROUP};
use morpheus_repro::morpheus::{ConvertOptions, CooMatrix, DynamicMatrix, BSR_BLOCK_DIMS};
use proptest::prelude::*;
use std::collections::BTreeSet;

const ALPHA: f64 = 0.2;

/// A matrix of any shape the walk has a special case for: degenerate
/// (`0 x n`, `n x 0`), column counts off every block dimension, a dense row,
/// hub rows, runs of empty rows, and plain scatter — tall enough for blocks
/// of every dimension to span several block rows.
fn arb_matrix() -> impl Strategy<Value = DynamicMatrix<f64>> {
    (0usize..70, 0usize..45, 0usize..5, 0u64..u64::MAX).prop_map(|(nrows, ncols, flavour, seed)| {
        let mut next = seed | 1;
        let mut rand = move |n: usize| {
            next = next.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (next >> 33) as usize % n.max(1)
        };
        let mut entries: Vec<(usize, usize)> = Vec::new();
        if nrows > 0 && ncols > 0 {
            let scatter = match flavour {
                0 => 0,
                1 => nrows,
                _ => 3 * nrows,
            };
            for _ in 0..scatter {
                entries.push((rand(nrows), rand(ncols)));
            }
            match flavour {
                // One dense row.
                2 => entries.extend((0..ncols).map(|c| (nrows / 2, c))),
                // Two hub rows and a band.
                3 => {
                    for hub in [0, nrows - 1] {
                        entries.extend((0..ncols).filter(|c| c % 3 != 1).map(|c| (hub, c)));
                    }
                    entries.extend((0..nrows.min(ncols)).map(|i| (i, i)));
                }
                // A run of empty rows in the middle third.
                4 => entries.retain(|&(r, _)| r < nrows / 3 || r >= 2 * nrows / 3),
                _ => {}
            }
        }
        let (rows, cols): (Vec<usize>, Vec<usize>) = entries.into_iter().unzip();
        // Strictly non-zero values: DIA storage elides explicit zeros.
        let vals: Vec<f64> = (0..rows.len()).map(|i| 1.5 + i as f64).collect();
        DynamicMatrix::from(CooMatrix::from_triplets(nrows, ncols, &rows, &cols, &vals).unwrap())
    })
}

/// Every field of `a` against the naive definitions over `coo`.
fn assert_matches_definitions(a: &Analysis, m: &DynamicMatrix<f64>, coo: &CooMatrix<f64>, what: &str) {
    let (nrows, ncols) = (coo.nrows(), coo.ncols());
    let entries: Vec<(usize, usize)> = coo.iter().map(|(r, c, _)| (r, c)).collect();

    assert_eq!((a.nrows, a.ncols, a.source_nnz), (nrows, ncols, m.nnz()), "{what}: shape");
    assert_eq!(a.stats, stats_of(m, ALPHA), "{what}: stats");
    assert_eq!(a.structure_hash, m.structure_hash(), "{what}: hash");
    let row_hist = row_nnz_histogram(m);
    assert_eq!(a.row_hist, row_hist, "{what}: row histogram");
    let mut diag_pop = vec![0u32; if nrows == 0 || ncols == 0 { 0 } else { nrows + ncols - 1 }];
    entries.iter().for_each(|&(r, c)| diag_pop[c + nrows - 1 - r] += 1);
    assert_eq!(a.diag_pop, diag_pop, "{what}: diagonal populations");

    // Entry-order facts.
    let near = |w: &[(usize, usize)]| w[0].0 == w[1].0 && w[1].1 - w[0].1 <= GATHER_LINE;
    assert_eq!(a.entries.gather_hits, entries.windows(2).filter(|w| near(w)).count(), "{what}: locality");
    for (i, b) in BSR_BLOCK_DIMS.into_iter().enumerate() {
        let blocks: BTreeSet<(usize, usize)> = entries.iter().map(|&(r, c)| (r / b, c / b)).collect();
        assert_eq!(a.entries.bsr_blocks[i], blocks.len(), "{what}: {b}x{b} blocks");
    }

    // Row-side reductions.
    let lens: Vec<usize> = row_hist.iter().map(|&l| l as usize).collect();
    let prefix: Vec<u64> = std::iter::once(0)
        .chain(lens.iter().scan(0u64, |acc, &l| {
            Some({
                *acc += l as u64;
                *acc
            })
        }))
        .collect();
    assert_eq!(a.rows.prefix, prefix, "{what}: prefix sums");
    let group_max: usize = lens.chunks(ROW_GROUP).map(|g| g.iter().copied().max().unwrap_or(0)).sum();
    assert_eq!(a.rows.group_max_sum, group_max as u64, "{what}: group maxima");
    let max = lens.iter().copied().max().unwrap_or(0);
    let nonempty: Vec<usize> = lens.iter().copied().filter(|&l| l > 0).collect();
    assert_eq!(a.rows.lengths.max_len(), max, "{what}");
    assert_eq!(a.rows.lengths.nonempty_rows(), nonempty.len(), "{what}");
    for ladder in [default_bucket_widths(max), vec![2, 5], vec![1, 3, 1000]] {
        // Each row in the first bucket wide enough; wider than all, at its
        // own length in one further bucket.
        let bucket = |l: usize| ladder.iter().position(|&w| w >= l).unwrap_or(ladder.len());
        let padded: usize = nonempty.iter().map(|&l| ladder.get(bucket(l)).copied().unwrap_or(l)).sum();
        let buckets: BTreeSet<usize> = nonempty.iter().map(|&l| bucket(l)).collect();
        let fit = a.rows.lengths.ladder_fit(&ladder);
        assert_eq!((fit.padded, fit.buckets), (padded, buckets.len()), "{what}: ladder {ladder:?}");
    }
    assert_eq!(a.rows.bell, a.rows.lengths.ladder_fit(&default_bucket_widths(max)), "{what}: default ladder");
    for value_bytes in [4, 8] {
        let width = optimal_hyb_width(&lens, value_bytes);
        assert_eq!(a.hyb_width(value_bytes), width, "{what}: HYB width");
        let spill: usize = lens.iter().map(|&l| l.saturating_sub(width)).sum();
        assert_eq!(a.rows.lengths.spill_beyond(width), spill, "{what}: HYB spill");
    }
    let mut sorted = nonempty.clone();
    sorted.sort_unstable();
    let fractions = [0.0, 0.5, 0.75, 0.9, 1.0];
    let at = |f: f64| sorted[((sorted.len() - 1) as f64 * f).round() as usize];
    let quantiles = (!sorted.is_empty()).then(|| fractions.map(at));
    assert_eq!(a.rows.lengths.quantiles(fractions), quantiles, "{what}: quantiles");

    // Diagonal side.
    let threshold = true_diag_threshold(nrows, ncols, ALPHA);
    let on_true: usize = diag_pop.iter().map(|&p| p as usize).filter(|&p| p >= threshold).sum();
    assert_eq!(a.true_diag_nnz, on_true, "{what}: true-diagonal entries");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_analysis_equals_the_independent_definitions(base in arb_matrix()) {
        let coo = base.to_coo();
        let opts = ConvertOptions { min_padded_allowance: 1 << 24, ..Default::default() };
        let reference_view = analyze(&base);
        for &fmt in &ALL_FORMATS {
            let m = base.to_format(fmt, &opts).unwrap();
            let a = Analysis::of(&m, ALPHA);
            assert_matches_definitions(&a, &m, &coo, &format!("{fmt}"));
            prop_assert_eq!(&Analysis::of_auto_with_hash(&m, ALPHA, m.structure_hash()), &a, "{}", fmt);
            // The machine view is a function of the pattern, whatever the
            // format it was walked in.
            prop_assert_eq!(&analyze_from(&m, &a), &reference_view, "{}: machine view", fmt);
        }
    }
}

/// Blocks that the same few block columns hold in every block row, rows
/// that enter a block late, and a hub column: each block is counted once
/// however many of its rows and columns are occupied.
#[test]
fn blocks_shared_by_many_rows_are_counted_once() {
    let (nrows, ncols) = (203usize, 37usize);
    let (mut rows, mut cols) = (Vec::new(), Vec::new());
    for r in 0..nrows {
        for c in [r % 5, r % 5 + 8, 30] {
            rows.push(r);
            cols.push(c);
        }
    }
    let vals = vec![1.0f64; rows.len()];
    let base = DynamicMatrix::from(CooMatrix::from_triplets(nrows, ncols, &rows, &cols, &vals).unwrap());
    let coo = base.to_coo();
    let opts = ConvertOptions { min_padded_allowance: 1 << 24, ..Default::default() };
    for &fmt in &ALL_FORMATS {
        let m = base.to_format(fmt, &opts).unwrap();
        assert_matches_definitions(&Analysis::of(&m, ALPHA), &m, &coo, &format!("{fmt}"));
    }
}
