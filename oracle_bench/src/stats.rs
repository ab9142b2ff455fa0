//! Order statistics the benchmark reports. Owned here (not borrowed from
//! the program's `obs` module) so a change to the program cannot change
//! how its own numbers are summarised.

/// `p`-th percentile (0..=100) by linear interpolation between closest
/// ranks. Empty input yields 0 so a layer that saw no samples reports 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Mean of the samples ranked between the `lo`-th and `hi`-th percentile.
///
/// The pooled samples of a pass are a mixture of per-matrix clusters; a
/// single order statistic that falls into the gap between two clusters
/// jumps from one to the other on a hair's change in either. The mean of
/// a band of ranks around it moves continuously. Reported "p50" values are
/// the 40–60 band, "p90" the 85–95 band.
pub fn band_mean(values: &[f64], lo: f64, hi: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len() as f64;
    let first = ((lo / 100.0 * n).floor() as usize).min(v.len() - 1);
    let last = ((hi / 100.0 * n).ceil() as usize).clamp(first + 1, v.len());
    v[first..last].iter().sum::<f64>() / (last - first) as f64
}

pub fn p50_band(values: &[f64]) -> f64 {
    band_mean(values, 40.0, 60.0)
}

pub fn p90_band(values: &[f64]) -> f64 {
    band_mean(values, 85.0, 95.0)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Geometric mean of the strictly positive entries (0 when there are none).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values.iter().filter(|v| **v > 0.0).map(|v| v.ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// `(max - min) / median` over per-pass values: the within-run spread
/// printed beside every end-to-end metric.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    (max - min) / m.abs()
}

/// `hits / total`, 0 when nothing was attempted.
pub fn ratio(hits: f64, total: f64) -> f64 {
    if total > 0.0 {
        hits / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn band_mean_averages_the_ranks_around_a_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((p50_band(&v) - 50.5).abs() < 1e-12);
        assert!((p90_band(&v) - 90.5).abs() < 1e-12);
        // Two clusters with the median in the gap: the band mean sits
        // between them and barely moves when one sample changes sides.
        let mut gap = vec![1.0; 50];
        gap.extend(vec![2.0; 50]);
        let before = p50_band(&gap);
        gap[49] = 2.0;
        assert!((before - 1.5).abs() < 1e-12 && (p50_band(&gap) - before).abs() < 0.06);
        assert_eq!(band_mean(&[], 40.0, 60.0), 0.0);
        assert_eq!(band_mean(&[3.0], 85.0, 95.0), 3.0);
        assert_eq!(band_mean(&[1.0, 5.0], 85.0, 95.0), 5.0);
    }

    #[test]
    fn pass_median_ignores_one_outlier_pass() {
        assert_eq!(median(&[1.0, 1.1, 9.0]), 1.1);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert!((spread(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[]), 0.0);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[0.0, 4.0]), 4.0);
    }
}
