//! Internally heterogeneous matrices: structurally distinct row regimes
//! glued into one matrix.
//!
//! These are the shapes whole-matrix format selection loses on by
//! construction — every single format is wrong for one of the regimes —
//! and the shapes a forced partitioned registration
//! (`OracleService::register_partitioned` with `cost_gate: false`) is
//! tested on: the row-nnz histogram shifts regime at the block seams, so
//! boundary refinement splits the regimes into shards that each get their
//! own format.

use crate::gen::coeff;
use morpheus::{CooBuilder, CooMatrix};
use rand::Rng;

/// A hub block over a regular banded tail: rows `0..hub_rows` each hold
/// `hub_degree` entries scattered uniformly over all columns (CSR/HYB
/// territory — long irregular rows, gather-bound), rows `hub_rows..n` a
/// dense band of half-width `hw` (DIA territory — few fully populated
/// diagonals). One matrix, two regimes, a sharp regime shift at
/// `hub_rows`.
///
/// Sizing rule of thumb for multi-shard partitioning: make
/// `hub_rows * hub_degree` and `(n - hub_rows) * (2*hw + 1)` each large
/// against the partitioner's shard nnz target, and the tail several times
/// the hub so the banded regime dominates total nnz (a whole-matrix CSR
/// plan then leaves most of the matrix's DIA win on the table).
pub fn hub_plus_banded<R: Rng>(
    n: usize,
    hub_rows: usize,
    hub_degree: usize,
    hw: usize,
    rng: &mut R,
) -> CooMatrix<f64> {
    let hub_rows = hub_rows.min(n);
    let mut b = CooBuilder::with_capacity(n, n, hub_rows * hub_degree + (n - hub_rows) * (2 * hw + 1));
    for i in 0..hub_rows {
        for _ in 0..hub_degree {
            b.push(i, rng.gen_range(0..n), coeff(rng)).expect("in bounds");
        }
    }
    for i in hub_rows..n {
        let lo = i.saturating_sub(hw);
        let hi = (i + hw).min(n - 1);
        for j in lo..=hi {
            let v = if i == j { 2.0 + coeff(rng).abs() } else { coeff(rng) };
            b.push(i, j, v).expect("in bounds");
        }
    }
    b.build()
}

/// Three stacked regimes — scattered hub rows, an ELL-friendly
/// fixed-width random block, then a banded tail — for partition tests
/// that need more than one interior regime shift.
pub fn three_regime<R: Rng>(
    n: usize,
    hub_rows: usize,
    hub_degree: usize,
    mid_rows: usize,
    mid_width: usize,
    hw: usize,
    rng: &mut R,
) -> CooMatrix<f64> {
    let hub_rows = hub_rows.min(n);
    let mid_end = (hub_rows + mid_rows).min(n);
    let mut b = CooBuilder::new(n, n);
    for i in 0..hub_rows {
        for _ in 0..hub_degree {
            b.push(i, rng.gen_range(0..n), coeff(rng)).expect("in bounds");
        }
    }
    for i in hub_rows..mid_end {
        // Fixed row width, clustered columns: regular enough for ELL.
        let start = rng.gen_range(0..n.saturating_sub(mid_width).max(1));
        for j in start..(start + mid_width).min(n) {
            b.push(i, j, coeff(rng)).expect("in bounds");
        }
    }
    for i in mid_end..n {
        let lo = i.saturating_sub(hw);
        let hi = (i + hw).min(n - 1);
        for j in lo..=hi {
            let v = if i == j { 2.0 + coeff(rng).abs() } else { coeff(rng) };
            b.push(i, j, v).expect("in bounds");
        }
    }
    b.build()
}

/// A hub block over several band blocks with *different* diagonal offsets
/// and half-widths — the domain-decomposition shape (one stencil per
/// subdomain, a few dense coupling rows).
///
/// Rows `0..hub_rows` scatter `hub_degree` entries each; the remaining
/// rows split evenly into `bands.len()` blocks, where block `k` holds a
/// dense band of half-width `bands[k].1` centered `bands[k].0` columns
/// off the main diagonal (entries falling outside the column range are
/// dropped, so edge rows thin out).
///
/// This is the shape where per-shard selection beats *every* whole-matrix
/// format structurally, not just by a variant margin: whole-matrix
/// DIA/HDC must store the union of all blocks' diagonals (each populated
/// in only one block — fill grows with the block count), ELL pads every
/// row to the widest block, and CSR runs scalar short rows; a shard per
/// block gets perfect-fill DIA. Give blocks distinct widths so the
/// row-nnz histogram shifts at each seam and boundary refinement can find
/// them.
pub fn shifted_bands<R: Rng>(
    n: usize,
    hub_rows: usize,
    hub_degree: usize,
    bands: &[(isize, usize)],
    rng: &mut R,
) -> CooMatrix<f64> {
    let hub_rows = hub_rows.min(n);
    assert!(!bands.is_empty(), "need at least one band block");
    let mut b = CooBuilder::new(n, n);
    for i in 0..hub_rows {
        for _ in 0..hub_degree {
            b.push(i, rng.gen_range(0..n), coeff(rng)).expect("in bounds");
        }
    }
    let body = n - hub_rows;
    let per_block = (body / bands.len()).max(1);
    for i in hub_rows..n {
        let k = ((i - hub_rows) / per_block).min(bands.len() - 1);
        let (offset, hw) = bands[k];
        let center = i as isize + offset;
        for j in (center - hw as isize)..=(center + hw as isize) {
            if (0..n as isize).contains(&j) {
                b.push(i, j as usize, coeff(rng)).expect("in bounds");
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::test_util::check_valid;
    use rand::SeedableRng;

    #[test]
    fn hub_plus_banded_has_two_regimes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let m = hub_plus_banded(500, 40, 60, 2, &mut rng);
        check_valid(&m);
        assert_eq!(m.nrows(), 500);
        // Row-nnz must collapse across the seam.
        let mut hist = vec![0usize; 500];
        for (r, _, _) in m.iter() {
            hist[r] += 1;
        }
        let hub_mean = hist[..40].iter().sum::<usize>() as f64 / 40.0;
        let tail_mean = hist[40..].iter().sum::<usize>() as f64 / 460.0;
        assert!(hub_mean > 5.0 * tail_mean, "hub {hub_mean} vs tail {tail_mean}");
    }

    #[test]
    fn shifted_bands_blocks_have_distinct_offsets() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let m = shifted_bands(600, 20, 40, &[(-50, 2), (100, 6)], &mut rng);
        check_valid(&m);
        // Block rows carry their own offset: a row in each block must have
        // all columns near i + offset.
        for (r, c, _) in m.iter() {
            if (50..300).contains(&r) {
                let d = c as isize - r as isize;
                assert!((-52..=-48).contains(&d), "block 0 row {r} col {c}");
            }
            if (360..540).contains(&r) {
                let d = c as isize - r as isize;
                assert!((94..=106).contains(&d), "block 1 row {r} col {c}");
            }
        }
    }

    #[test]
    fn three_regime_valid() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let m = three_regime(600, 30, 50, 200, 8, 1, &mut rng);
        check_valid(&m);
        assert_eq!(m.nrows(), 600);
    }
}
