//! Format-parameter proposal: the layout parameters a tuning decision
//! carries, and the service converts with.
//!
//! A format's layout parameters are part of its decision (AlphaSparse-style
//! per-matrix layouts): [`propose_params`] reads them off the machine view,
//! from exact padded-slot counts, without converting anything. Two formats
//! have parameters, each proposed by its own arm:
//!
//! * **BSR** — the square block dim among 4, 2 and 8 (in that order) with
//!   the fewest padded slots plus two index words per block, the first
//!   cheapest on a tie;
//! * **BELL** — among the automatic power-of-two ladder, the row-length
//!   quantile ladder ([`quantile_ladder`]) and a two-level ladder (mean
//!   row, longest row), the first least-padded.
//!
//! Every other format takes [`FormatParams::default`].

use morpheus::format::FormatId;
use morpheus::stats::RowLengthCounts;
use morpheus::{FormatParams, MAX_BELL_WIDTHS};
use morpheus_machine::MatrixAnalysis;

/// The layout parameters a decision for `format` carries for the matrix `a`
/// describes: BSR's block and BELL's ladder as the module docs price them,
/// the defaults for every other format.
///
/// # Panics
/// For BSR on a view without block counts
/// ([`MatrixAnalysis::bsr_blocks`] `None`): its blocks are priced from
/// them.
pub fn propose_params(format: FormatId, a: &MatrixAnalysis) -> FormatParams {
    match format {
        FormatId::Bsr => {
            // Padded slots = value traffic; each block also costs one column
            // index and its share of the row pointer.
            let cost = |b: usize| a.bsr_padded(b) + 2 * a.bsr_nblocks(b);
            let b = [4, 2, 8].into_iter().min_by_key(|&b| cost(b)).expect("three candidates");
            FormatParams { bsr_block: (b, b), ..Default::default() }
        }
        FormatId::Bell => {
            // The automatic ladder's padding the analysis already counted.
            let mut best = (FormatParams::default(), a.bell_padded);
            for ladder in [quantile_ladder(&a.row_lengths), two_level_ladder(a)] {
                let padded = a.row_lengths.ladder_fit(&ladder).padded;
                if padded < best.1 {
                    best = (FormatParams::default().with_bell_ladder(&ladder), padded);
                }
            }
            best.0
        }
        _ => FormatParams::default(),
    }
}

/// A row-length-quantile bucket ladder: widths at the 50th/75th/90th/100th
/// percentile of non-empty row lengths, deduplicated and ascending, read off
/// the row-length count table in O(longest row). Bounded by
/// [`MAX_BELL_WIDTHS`] by construction (four quantiles).
pub fn quantile_ladder(row_lengths: &RowLengthCounts) -> Vec<usize> {
    let mut ladder = row_lengths.quantiles([0.5, 0.75, 0.9, 1.0]).map_or(vec![1], Vec::from);
    ladder.dedup();
    debug_assert!(ladder.len() <= MAX_BELL_WIDTHS);
    ladder
}

/// The mean row width, then the longest row: wins on heavy-tail matrices
/// where most rows fit the mean bucket.
fn two_level_ladder(a: &MatrixAnalysis) -> Vec<usize> {
    let max = a.stats.row_nnz_max.max(1);
    let mean = (a.mean_row().ceil() as usize).clamp(1, max);
    if mean < max {
        vec![mean, max]
    } else {
        vec![max]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus::{CooMatrix, DynamicMatrix};
    use morpheus_machine::analyze;

    /// Dense 4x4 blocks on a block-diagonal: 4x4 blocking is free, 8x8
    /// halves-empty, 2x2 quadruples the index overhead.
    fn blocked(nb: usize) -> DynamicMatrix<f64> {
        let n = nb * 4;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for b in 0..nb {
            for i in 0..4 {
                for j in 0..4 {
                    rows.push(b * 4 + i);
                    cols.push(b * 4 + j);
                }
            }
        }
        let vals = vec![1.0; rows.len()];
        DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
    }

    /// Heavy tail: almost all rows have 3 entries (pow2 buckets pad them to
    /// 4), a few have ~60.
    fn heavy_tail(n: usize) -> DynamicMatrix<f64> {
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for i in 0..n {
            for k in 0..3 {
                rows.push(i);
                cols.push((i + k * 7 + 1) % n);
            }
        }
        for h in 0..3 {
            let r = (h * 31) % n;
            for k in 0..60 {
                rows.push(r);
                cols.push((k * 3 + h) % n);
            }
        }
        let vals = vec![1.0; rows.len()];
        DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
    }

    #[test]
    fn heuristic_picks_the_natural_block_dim() {
        let a = analyze(&blocked(32));
        let p = propose_params(FormatId::Bsr, &a);
        assert_eq!(p.normalized_block(), (4, 4), "dense 4x4 blocks price cheapest at 4x4: {p:?}");
    }

    #[test]
    fn heuristic_bell_ladder_beats_pow2_on_heavy_tail() {
        let a = analyze(&heavy_tail(600));
        let p = propose_params(FormatId::Bell, &a);
        let ladder = p.bell_ladder();
        assert!(!ladder.is_empty(), "heavy tail must pick an explicit ladder: {p:?}");
        assert!(
            a.row_lengths.ladder_fit(ladder).padded < a.bell_padded,
            "chosen ladder must pad strictly less than the pow2 default"
        );
    }

    /// The definitions the count-table readings replaced: sort every
    /// non-empty row length, search the ladder once per row.
    fn sorted_quantile_ladder(row_hist: &[u32]) -> Vec<usize> {
        let mut lens: Vec<usize> = row_hist.iter().filter(|&&l| l > 0).map(|&l| l as usize).collect();
        if lens.is_empty() {
            return vec![1];
        }
        lens.sort_unstable();
        let q = |f: f64| lens[((lens.len() - 1) as f64 * f).round() as usize];
        let mut ladder = vec![q(0.5), q(0.75), q(0.9), *lens.last().unwrap()];
        ladder.dedup();
        ladder
    }

    fn per_row_ladder_padded(ladder: &[usize], row_hist: &[u32]) -> usize {
        let rows = row_hist.iter().map(|&l| l as usize).filter(|&l| l > 0);
        rows.map(|l| ladder[ladder.partition_point(|&w| w < l).min(ladder.len() - 1)].max(l)).sum()
    }

    #[test]
    fn count_table_proposals_equal_the_sorted_per_row_ones() {
        let rows_of = |lens: &[usize]| {
            let rows: Vec<usize> = lens.iter().enumerate().flat_map(|(r, &l)| vec![r; l]).collect();
            let cols: Vec<usize> = lens.iter().flat_map(|&l| 0..l).collect();
            let vals = vec![1.0f64; rows.len()];
            DynamicMatrix::from(CooMatrix::from_triplets(lens.len(), 64, &rows, &cols, &vals).unwrap())
        };
        let mut matrices: Vec<DynamicMatrix<f64>> =
            morpheus_corpus::CorpusSpec::small(48).iter().map(|e| DynamicMatrix::from(e.matrix)).collect();
        matrices.extend([
            DynamicMatrix::from(CooMatrix::<f64>::new(9, 9)), // every row empty
            DynamicMatrix::from(CooMatrix::<f64>::new(0, 5)),
            rows_of(&[5; 40]),                             // one length
            rows_of(&[0, 0, 7, 0, 7, 7, 0]),               // one length among empty rows
            rows_of(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]), // every quantile distinct
            rows_of(&[1, 1, 1, 1, 1, 1, 1, 1, 1, 60]),     // the tail is one row
            heavy_tail(300),
            blocked(16),
        ]);
        for (i, m) in matrices.iter().enumerate() {
            let a = analyze(m);
            let quantile = sorted_quantile_ladder(&a.row_hist);
            assert_eq!(quantile_ladder(&a.row_lengths), quantile, "matrix {i}");
            // The chosen parameters, re-derived from the sorted ladder and
            // per-row padding with `propose_params`' first-cheapest rule.
            let two_level = FormatParams::default().with_bell_ladder(&two_level_ladder(&a));
            let pow2 = morpheus::bell::default_bucket_widths(a.stats.row_nnz_max);
            assert_eq!(a.bell_padded, per_row_ladder_padded(&pow2, &a.row_hist), "matrix {i}");
            let candidates = [
                (FormatParams::default(), a.bell_padded),
                (
                    FormatParams::default().with_bell_ladder(&quantile),
                    per_row_ladder_padded(&quantile, &a.row_hist),
                ),
                (two_level, per_row_ladder_padded(two_level.bell_ladder(), &a.row_hist)),
            ];
            let mut expect = candidates[0];
            for c in &candidates[1..] {
                if c.1 < expect.1 {
                    expect = *c;
                }
            }
            assert_eq!(propose_params(FormatId::Bell, &a), expect.0, "matrix {i}");
            for ladder in [quantile.as_slice(), two_level.bell_ladder(), &[2], &[3, 1000]] {
                let fit = a.row_lengths.ladder_fit(ladder);
                assert_eq!(fit.padded, per_row_ladder_padded(ladder, &a.row_hist), "matrix {i} {ladder:?}");
            }
        }
    }

    #[test]
    fn quantile_ladder_is_ascending_and_covers_max() {
        let a = analyze(&heavy_tail(500));
        let ladder = quantile_ladder(&a.row_lengths);
        assert!(ladder.windows(2).all(|w| w[0] < w[1]), "{ladder:?}");
        assert_eq!(*ladder.last().unwrap(), a.stats.row_nnz_max);
        assert!(ladder.len() <= MAX_BELL_WIDTHS);
    }
}
