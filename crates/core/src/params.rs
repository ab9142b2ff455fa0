//! Format-parameter proposal: heuristic strategies and the GBT parameter
//! regressor.
//!
//! PR 9 makes format *parameters* — BSR block dimensions, the BELL bucket
//! ladder, HYB's split width, DIA's fill threshold — part of the tuning
//! decision instead of compile-time constants. The search space per format
//! is a small set of [`ParamStrategy`]s (AlphaSparse-style discrete
//! candidates); each strategy *realizes* to a concrete
//! [`morpheus::FormatParams`] from the matrix analysis, so strategies are
//! comparable across matrices while the realized parameters adapt to each
//! one. Selection happens two ways:
//!
//! * [`heuristic_params`] — the analytical default: price every strategy
//!   from the analysis histograms (exact padded-slot counts, no conversion)
//!   and take the cheapest. This is what [`crate::tuner`]'s ML decisions
//!   carry when no regressor is trained.
//! * [`ParamRegressor`] — the learned upgrade: a
//!   [`GradientBoostedTrees`] classifier over the Table-I+ feature vector
//!   choosing the strategy, trained on *measured* per-strategy timings
//!   (the same PR-5 GBT machinery that learns format selection). Where the
//!   heuristic prices only padding, the regressor learns from wall clock —
//!   cache effects, SIMD widths and all.

use crate::features::FeatureVector;
use crate::Result;
use morpheus::format::FormatId;
use morpheus::stats::RowLengthCounts;
use morpheus::{FormatParams, MAX_BELL_WIDTHS};
use morpheus_machine::MatrixAnalysis;
use morpheus_ml::{Dataset, GbtParams, GradientBoostedTrees};

/// Square BSR block dimensions the strategy space explores.
pub const BSR_STRATEGY_DIMS: [usize; 3] = [2, 4, 8];

/// One discrete point in a format's parameter search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamStrategy {
    /// The fixed-heuristic defaults ([`FormatParams::default`]).
    Default,
    /// BSR with square `b`×`b` blocks.
    BsrBlock(usize),
    /// BELL with a row-length-quantile ladder (adapts bucket widths to the
    /// row distribution instead of powers of two).
    BellQuantile,
    /// BELL with a two-level ladder: mean row width + max row width. Wins
    /// on heavy-tail matrices where most rows fit the mean bucket.
    BellTwoLevel,
    /// HYB with the ELL split width halved (more COO spill, less padding).
    HybHalfWidth,
    /// HYB with the ELL split width doubled (less spill, more padding).
    HybDoubleWidth,
    /// DIA admitted up to a looser fill threshold (2x the default).
    DiaLooseFill,
}

/// The strategy space for `format`, defaults first. Formats without tunable
/// parameters get the singleton `[Default]`.
pub fn strategies(format: FormatId) -> &'static [ParamStrategy] {
    use ParamStrategy::*;
    match format {
        FormatId::Bsr => &[BsrBlock(4), BsrBlock(2), BsrBlock(8)],
        FormatId::Bell => &[Default, BellQuantile, BellTwoLevel],
        FormatId::Hyb => &[Default, HybHalfWidth, HybDoubleWidth],
        FormatId::Dia => &[Default, DiaLooseFill],
        _ => &[Default],
    }
}

/// Realizes a strategy into concrete parameters for this matrix.
pub fn realize(strategy: ParamStrategy, a: &MatrixAnalysis) -> FormatParams {
    match strategy {
        ParamStrategy::Default => FormatParams::default(),
        ParamStrategy::BsrBlock(b) => FormatParams { bsr_block: (b, b), ..Default::default() },
        ParamStrategy::BellQuantile => {
            FormatParams::default().with_bell_ladder(&quantile_ladder(&a.row_lengths))
        }
        ParamStrategy::BellTwoLevel => {
            let max = a.stats.row_nnz_max.max(1);
            let mean = (a.mean_row().ceil() as usize).clamp(1, max);
            let ladder = if mean < max { vec![mean, max] } else { vec![max] };
            FormatParams::default().with_bell_ladder(&ladder)
        }
        ParamStrategy::HybHalfWidth => {
            FormatParams { hyb_width: Some((a.hyb_width / 2).max(1)), ..Default::default() }
        }
        ParamStrategy::HybDoubleWidth => FormatParams {
            hyb_width: Some((a.hyb_width * 2).clamp(1, a.stats.row_nnz_max.max(1))),
            ..Default::default()
        },
        ParamStrategy::DiaLooseFill => FormatParams { dia_fill: Some(40.0), ..Default::default() },
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

/// Prices one strategy from the analysis alone: padded value slots plus an
/// index-overhead term, the storage-traffic proxy the conversion guards and
/// the machine model both key on. No conversion, no kernel execution.
fn strategy_cost(format: FormatId, strategy: ParamStrategy, a: &MatrixAnalysis) -> f64 {
    match (format, strategy) {
        (FormatId::Bsr, ParamStrategy::BsrBlock(b)) => {
            // Padded slots = value traffic; each block also costs one
            // column index and its share of the row pointer.
            (a.bsr_padded(b) + 2 * a.bsr_nblocks(b)) as f64
        }
        (FormatId::Bell, s) => {
            let params = realize(s, a);
            let ladder = params.bell_ladder();
            if ladder.is_empty() {
                // Auto ladder: the analysis already computed its padding.
                a.bell_padded as f64
            } else {
                a.row_lengths.ladder_fit(ladder).padded as f64
            }
        }
        // HYB/DIA strategies trade padding against spill in ways the
        // histogram prices only crudely; keep the default unless a trained
        // regressor says otherwise.
        _ => {
            if strategy == ParamStrategy::Default {
                0.0
            } else {
                f64::INFINITY
            }
        }
    }
}

/// The analytical parameter proposal: cheapest strategy by
/// [`strategy_cost`], ties to the earlier (more default) strategy. This is
/// the "fixed heuristic" baseline the GBT regressor must beat.
pub fn heuristic_params(format: FormatId, a: &MatrixAnalysis) -> FormatParams {
    let mut best = ParamStrategy::Default;
    let mut best_cost = f64::INFINITY;
    for &s in strategies(format) {
        let c = strategy_cost(format, s, a);
        if c < best_cost {
            best_cost = c;
            best = s;
        }
    }
    realize(best, a)
}

/// The parameter proposal ML-tuned decisions carry (see
/// [`crate::tuner`]): currently the analytical heuristic; services with a
/// trained [`ParamRegressor`] refine per matrix via
/// [`ParamRegressor::propose`].
///
/// # Panics
/// For BSR on a view without block counts
/// ([`MatrixAnalysis::bsr_blocks`] `None`): its strategies are priced from
/// them.
pub fn propose_params(format: FormatId, a: &MatrixAnalysis) -> FormatParams {
    heuristic_params(format, a)
}

/// A learned strategy selector for one format: GBT over the feature vector,
/// classes are indices into [`strategies`]`(format)`.
#[derive(Debug, Clone)]
pub struct ParamRegressor {
    format: FormatId,
    model: GradientBoostedTrees,
}

impl ParamRegressor {
    /// Fits a regressor from `(features, best strategy index)` samples —
    /// labels come from measured per-strategy timings (see `bench_adapt`'s
    /// parameter experiment).
    pub fn fit(format: FormatId, samples: &[(FeatureVector, usize)], params: &GbtParams) -> Result<Self> {
        let n_classes = strategies(format).len();
        let mut ds = Dataset::empty(crate::NUM_FEATURES, n_classes, vec![])?;
        for (fv, label) in samples {
            ds.push(fv.as_slice(), *label)?;
        }
        let model = GradientBoostedTrees::fit(&ds, params)?;
        Ok(ParamRegressor { format, model })
    }

    /// The format this regressor proposes parameters for.
    pub fn format(&self) -> FormatId {
        self.format
    }

    /// The learned strategy for a matrix with these features.
    pub fn predict_strategy(&self, fv: &FeatureVector) -> ParamStrategy {
        let s = strategies(self.format);
        s[self.model.predict(fv.as_slice()).min(s.len() - 1)]
    }

    /// Realized parameters for this matrix: the learned strategy applied to
    /// its analysis.
    pub fn propose(&self, fv: &FeatureVector, a: &MatrixAnalysis) -> FormatParams {
        realize(self.predict_strategy(fv), a)
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
        let p = heuristic_params(FormatId::Bsr, &a);
        assert_eq!(p.normalized_block(), (4, 4), "dense 4x4 blocks price cheapest at 4x4: {p:?}");
    }

    #[test]
    fn heuristic_bell_ladder_beats_pow2_on_heavy_tail() {
        let a = analyze(&heavy_tail(600));
        let p = heuristic_params(FormatId::Bell, &a);
        let ladder = p.bell_ladder();
        assert!(!ladder.is_empty(), "heavy tail must pick an explicit ladder: {p:?}");
        assert!(
            a.row_lengths.ladder_fit(ladder).padded < a.bell_padded,
            "chosen ladder must pad strictly less than the pow2 default"
        );
    }

    #[test]
    fn strategies_realize_and_default_format_params_are_default() {
        let a = analyze(&blocked(8));
        for fmt in morpheus::FormatEntry::all().iter().map(|e| e.id) {
            let ss = strategies(fmt);
            assert!(!ss.is_empty());
            for &s in ss {
                let _ = realize(s, &a); // must not panic on any format
            }
        }
        assert!(realize(ParamStrategy::Default, &a).is_default());
        // CSR/COO have no parameters: proposals stay default.
        assert!(propose_params(FormatId::Csr, &a).is_default());
    }

    #[test]
    fn regressor_learns_a_feature_separable_strategy_rule() {
        // Synthetic rule: big max-row (feature 5) -> strategy 1, else 0.
        let mut samples = Vec::new();
        for i in 0..40 {
            let wide = i % 2 == 0;
            let mut f = [0.0f64; crate::NUM_FEATURES];
            f[0] = 200.0 + i as f64;
            f[1] = 200.0;
            f[2] = 1000.0;
            f[3] = 5.0;
            f[5] = if wide { 80.0 } else { 4.0 };
            f[11] = if wide { 3.0 } else { 1.1 };
            samples.push((FeatureVector(f), usize::from(wide)));
        }
        let reg = ParamRegressor::fit(FormatId::Bell, &samples, &GbtParams::default()).unwrap();
        let hits = samples
            .iter()
            .filter(|(fv, label)| reg.predict_strategy(fv) == strategies(FormatId::Bell)[*label])
            .count();
        assert!(hits >= 36, "GBT must learn the separable rule: {hits}/40");
        let a = analyze(&heavy_tail(300));
        let p = reg.propose(&samples[0].0, &a);
        assert!(!p.bell_ladder().is_empty(), "strategy 1 realizes to an explicit ladder");
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
            // per-row padding with `heuristic_params`' first-cheapest rule.
            let two_level = realize(ParamStrategy::BellTwoLevel, &a);
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
