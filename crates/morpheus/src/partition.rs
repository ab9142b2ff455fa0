//! Row-range partitioning for internally heterogeneous matrices.
//!
//! The paper selects **one** format for the whole matrix, but web-scale
//! matrices are internally heterogeneous: a powerlaw matrix's hub rows want
//! CSR/COO while its banded tail wants DIA/ELL, and per-shard selection
//! can give each regime its own format. Whether that pays is another
//! question: measured end to end (README, "Partitioned handles"), serving
//! the matrix whole in one format cost less at registration and ran no
//! slower warm, so the serving layer shards only when a caller forces it
//! (`PartitionPolicy::cost_gate: false`). A forced registration cuts its
//! CSR form here ([`Partition::from_row_prefix`] on the row offsets, then
//! [`split_rows`]) and decides, converts and plans each piece itself.
//!
//! Two artifacts live here:
//!
//! * [`Partition`] — row-range shard boundaries picked from the prefix
//!   sums of the row lengths: balanced nnz per shard, with each boundary
//!   nudged to the largest nearby *regime shift* in mean row length so a
//!   hub block and a regular tail land in different shards, every interior
//!   boundary on a multiple of [`SEAM_ALIGN`] rows.
//! * [`PartitionedMatrix`] — the shards, each independently converted and
//!   independently planned (each shard gets its own single-part
//!   [`ExecPlan`]). Execution runs shard plans across a
//!   [`ThreadPool`] with stable shard→worker ownership — a worker always
//!   executes the same contiguous run of shards, so each shard's arrays
//!   stay hot in one core's cache — writing disjoint output slices through
//!   [`SharedSlice`]. The pooled and unpooled paths run the same
//!   single-threaded kernel bodies per shard and are bitwise identical.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use morpheus_parallel::{weighted_partition_with, SharedSlice, ThreadPool};

use crate::analysis::passes;
use crate::csr::CsrMatrix;
use crate::dynamic::DynamicMatrix;
use crate::error::MorpheusError;
use crate::format::{FormatId, ALL_FORMATS, FORMAT_COUNT};
use crate::plan::ExecPlan;
use crate::scalar::Scalar;
use crate::{Op, Result};

/// Controls shard boundary selection in [`Partition::from_row_prefix`].
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Upper bound on shard count. The actual count is
    /// `clamp(nnz / target_shard_nnz, 1, max_shards)`, further capped by
    /// the row count.
    pub max_shards: usize,
    /// Desired structural non-zeros per shard.
    pub target_shard_nnz: usize,
    /// Window length (in rows) over which mean row length is compared on
    /// each side of a candidate boundary. A balance boundary may travel
    /// anywhere between its neighbouring boundaries to reach the best
    /// shift; the window only sets the scale at which a shift is scored.
    pub regime_window: usize,
    /// Minimum ratio between the two window means for a nudge to be taken
    /// (the regime score is `|ln(mean_l / mean_r)|` with +1 smoothing; a
    /// boundary moves only if the best nearby score reaches
    /// `ln(regime_ratio)`).
    pub regime_ratio: f64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig { max_shards: 8, target_shard_nnz: 1 << 16, regime_window: 1024, regime_ratio: 2.0 }
    }
}

impl PartitionConfig {
    /// The shard count asked of a matrix with `nnz` structural non-zeros:
    /// `clamp(nnz / target_shard_nnz, 1, max_shards)`. A partition has at
    /// most this many shards, so 1 means unpartitioned whatever the rows
    /// look like.
    pub fn shards_wanted(&self, nnz: usize) -> usize {
        (nnz / self.target_shard_nnz.max(1)).clamp(1, self.max_shards.max(1))
    }
}

/// Interior shard boundaries chosen by this module are multiples of this
/// many rows: the BELL slice height ([`crate::bell::SLICE`]) and the largest
/// of [`crate::BSR_BLOCK_DIMS`], every one of which divides it. No `b x b`
/// block row of the whole matrix is then cut by a seam: a shard stored as
/// BSR holds the whole matrix's blocks in its rows, with no block split in
/// two and padded twice.
pub const SEAM_ALIGN: usize = 8;

const _: () = {
    assert!(SEAM_ALIGN == crate::bell::SLICE);
    let mut i = 0;
    while i < crate::BSR_BLOCK_DIMS.len() {
        assert!(SEAM_ALIGN.is_multiple_of(crate::BSR_BLOCK_DIMS[i]));
        i += 1;
    }
};

/// Row-range shard boundaries for one matrix structure.
///
/// Boundaries are a strictly increasing sequence `b_0 = 0 < b_1 < ... <
/// b_s = nrows`; shard `i` owns rows `b_i..b_{i+1}`. Construction is a
/// pure function of the row lengths and the [`PartitionConfig`] — identical
/// inputs always produce identical boundaries.
///
/// **The seam rule.** Every interior boundary a partition chosen here has
/// is a multiple of [`SEAM_ALIGN`] rows (so a matrix of `n` rows has at
/// most `ceil(n / SEAM_ALIGN)` shards, and one of up to [`SEAM_ALIGN`] rows
/// has one): no block row of any BSR dimension of the whole matrix
/// straddles a seam.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    nrows: usize,
    boundaries: Vec<usize>,
    shard_nnz: Vec<usize>,
}

impl Partition {
    /// Picks shard boundaries from the prefix sums of the row lengths
    /// (`prefix[r]` entries lie in rows `< r`; `nrows + 1` of them), in units
    /// of [`SEAM_ALIGN`]-row groups (the last one ragged).
    ///
    /// Stage 1 balances nnz: `weighted_partition_with` over the groups
    /// yields contiguous, non-empty row ranges with near-equal nnz. Stage 2
    /// refines each interior boundary: at every group edge strictly between
    /// its neighbouring boundaries, the log-ratio of mean row length between
    /// the `regime_window`-row windows on the two sides is scored (coarse
    /// stride scan + fine pass around the best coarse hit, so a hub edge far
    /// from the balance point is still reached); the boundary snaps to the
    /// best one if the shift is at least `regime_ratio`. Scoring windows
    /// clamp at the neighbouring boundaries, so a shift already claimed by
    /// the previous boundary cannot recapture the next one.
    pub fn from_row_prefix(prefix: &[u64], cfg: &PartitionConfig) -> Partition {
        let nrows = prefix.len().saturating_sub(1);
        if nrows == 0 {
            return Partition { nrows: 0, boundaries: vec![0, 0], shard_nnz: vec![0] };
        }
        let total = prefix[nrows] as usize;
        let groups = nrows.div_ceil(SEAM_ALIGN);
        // The row a group edge is at.
        let row_at = |g: usize| (g * SEAM_ALIGN).min(nrows);
        let ranges = weighted_partition_with(groups, cfg.shards_wanted(total), |g| {
            (prefix[row_at(g + 1)] - prefix[row_at(g)]) as usize
        });
        // Boundaries in groups until the refinement is done.
        let mut boundaries: Vec<usize> = ranges.iter().map(|r| r.start).collect();
        boundaries.push(groups);

        let window = cfg.regime_window.max(1);
        let threshold = cfg.regime_ratio.max(1.0).ln();
        let win_mean = |lo: usize, hi: usize| -> f64 {
            debug_assert!(lo < hi);
            (prefix[hi] - prefix[lo]) as f64 / (hi - lo) as f64
        };
        for i in 1..boundaries.len() - 1 {
            let (prev, next) = (boundaries[i - 1], boundaries[i + 1]);
            let b = boundaries[i];
            let (lo, hi) = (prev + 1, next - 1);
            if lo > hi {
                continue;
            }
            let score_at = |g: usize| -> f64 {
                let pos = row_at(g);
                let lstart = pos.saturating_sub(window).max(row_at(prev));
                let rend = (pos + window).min(row_at(next));
                ((win_mean(lstart, pos) + 1.0) / (win_mean(pos, rend) + 1.0)).ln().abs()
            };
            // Coarse stride over the whole span, then exact scan around the
            // best coarse hit. The stride never exceeds the scoring window
            // (or one group, when the window is narrower than that), so a
            // step edge (whose score plateaus over ~window rows) cannot fall
            // between probes.
            let stride = ((hi - lo) / 2048).clamp(1, (window / SEAM_ALIGN).max(1));
            let mut best = (0.0f64, b);
            let mut g = lo;
            while g <= hi {
                let score = score_at(g);
                if score > best.0 {
                    best = (score, g);
                }
                g += stride;
            }
            let fine_lo = best.1.saturating_sub(stride).max(lo);
            let fine_hi = (best.1 + stride).min(hi);
            for g in fine_lo..=fine_hi {
                let score = score_at(g);
                if score > best.0 {
                    best = (score, g);
                }
            }
            if best.0 >= threshold {
                boundaries[i] = best.1;
            }
        }
        boundaries.iter_mut().for_each(|g| *g = row_at(*g));
        let shard_nnz = boundaries.windows(2).map(|w| (prefix[w[1]] - prefix[w[0]]) as usize).collect();
        Partition { nrows, boundaries, shard_nnz }
    }

    /// Rows of the partitioned matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of shards (≥ 1).
    pub fn num_shards(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// The boundary sequence `0 = b_0 < ... < b_s = nrows`.
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// Structural nnz per shard (from the histogram the partition was
    /// built from).
    pub fn shard_nnz(&self) -> &[usize] {
        &self.shard_nnz
    }

    /// Row range of shard `i`.
    pub fn shard_rows(&self, i: usize) -> Range<usize> {
        self.boundaries[i]..self.boundaries[i + 1]
    }

    /// Iterator over all shard row ranges.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.boundaries.windows(2).map(|w| w[0]..w[1])
    }
}

/// Splits `m` into per-shard CSR sub-matrices: each shard's columns and
/// values are one contiguous run of `m`'s, copied out, and its offsets are
/// `m`'s over the shard's rows, rebased to its first entry.
///
/// Each shard keeps the full column space (`ncols` unchanged), so shard
/// SpMV reads the same `x` and writes a disjoint `y` slice.
pub fn split_rows<V: Scalar>(m: &CsrMatrix<V>, p: &Partition) -> Result<Vec<CsrMatrix<V>>> {
    if p.nrows != m.nrows() {
        return Err(MorpheusError::ShapeMismatch {
            expected: format!("partition over {} rows", p.nrows),
            got: format!("matrix with {} rows", m.nrows()),
        });
    }
    let offsets = m.row_offsets();
    let pieces = p
        .ranges()
        .map(|rows| {
            let entries = offsets[rows.start]..offsets[rows.end];
            let local = offsets[rows.start..=rows.end].iter().map(|o| o - entries.start).collect();
            let (cols, vals) = (&m.col_indices()[entries.clone()], &m.values()[entries]);
            CsrMatrix::from_parts(rows.len(), m.ncols(), local, cols.to_vec(), vals.to_vec())
        })
        .collect();
    passes::record_traversal();
    pieces
}

/// One shard of a [`PartitionedMatrix`]: its row range, its independently
/// converted matrix, and its own single-part execution plan.
#[derive(Debug)]
pub struct Shard<V: Scalar> {
    rows: Range<usize>,
    matrix: DynamicMatrix<V>,
    plan: Arc<ExecPlan<V>>,
    structure: u64,
}

impl<V: Scalar> Shard<V> {
    /// A shard from externally tuned parts. `structure` identifies the
    /// shard to telemetry: the [`DynamicMatrix::structure_hash`] it was
    /// decided under — of the CSR piece it was split out as, not of the
    /// arrays it was then converted to, which nobody need hash. Plan/matrix
    /// agreement is validated when the shard enters
    /// [`PartitionedMatrix::from_shards`].
    pub fn new(
        rows: Range<usize>,
        matrix: DynamicMatrix<V>,
        plan: Arc<ExecPlan<V>>,
        structure: u64,
    ) -> Shard<V> {
        Shard { rows, matrix, plan, structure }
    }

    /// Rows of the parent matrix this shard owns.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// The shard's matrix, in its realized format.
    pub fn matrix(&self) -> &DynamicMatrix<V> {
        &self.matrix
    }

    /// The shard's execution plan (built for 1 thread — parallelism comes
    /// from running shards concurrently, not from splitting a shard).
    pub fn plan(&self) -> &Arc<ExecPlan<V>> {
        &self.plan
    }

    /// The structure hash the shard was decided under (see [`Shard::new`]).
    pub fn structure(&self) -> u64 {
        self.structure
    }

    /// Realized storage format of the shard.
    pub fn format_id(&self) -> FormatId {
        self.matrix.format_id()
    }

    /// Structural non-zeros of the shard.
    pub fn nnz(&self) -> usize {
        self.matrix.nnz()
    }
}

/// A matrix stored as independently formatted, independently planned
/// row-range shards.
///
/// [`PartitionedMatrix::run`] executes every shard's own plan against the
/// shared `x` and a disjoint slice of `y`. With a pool, shards are
/// distributed by stable contiguous ownership (nnz-weighted): worker `w`
/// always runs the same shards, keeping their arrays hot in one core's cache.
#[derive(Debug)]
pub struct PartitionedMatrix<V: Scalar> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    shards: Vec<Shard<V>>,
    threads: usize,
    owners: Vec<Range<usize>>,
}

impl<V: Scalar> PartitionedMatrix<V> {
    /// Wraps already converted-and-planned shards. Shard row ranges must
    /// tile `0..nrows` contiguously; every plan must match its shard.
    pub fn from_shards(
        nrows: usize,
        ncols: usize,
        shards: Vec<Shard<V>>,
        threads: usize,
    ) -> Result<PartitionedMatrix<V>> {
        if shards.is_empty() {
            return Err(MorpheusError::InvalidStructure(
                "partitioned matrix needs at least one shard".into(),
            ));
        }
        let mut expect = 0usize;
        for (i, s) in shards.iter().enumerate() {
            if s.rows.start != expect || s.matrix.nrows() != s.rows.len() || s.matrix.ncols() != ncols {
                return Err(MorpheusError::InvalidStructure(format!(
                    "shard {i} rows {:?} do not tile the matrix contiguously",
                    s.rows
                )));
            }
            if !s.plan.matches(&s.matrix) {
                return Err(MorpheusError::PlanMismatch {
                    expected: format!("plan for shard {i}"),
                    got: format!("{:?} {}x{}", s.matrix.format_id(), s.matrix.nrows(), ncols),
                });
            }
            expect = s.rows.end;
        }
        if expect != nrows {
            return Err(MorpheusError::InvalidStructure(format!("shards cover {expect} of {nrows} rows")));
        }
        let nnz = shards.iter().map(|s| s.matrix.nnz()).sum();
        let threads = threads.max(1);
        let owners = owner_ranges(&shards, threads);
        Ok(PartitionedMatrix { nrows, ncols, nnz, shards, threads, owners })
    }

    /// Rows of the whole matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the whole matrix.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Total stored non-zeros across shards.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in row order.
    pub fn shards(&self) -> &[Shard<V>] {
        &self.shards
    }

    /// Shard `i`.
    pub fn shard(&self, i: usize) -> &Shard<V> {
        &self.shards[i]
    }

    /// Worker count the stored shard ownership was balanced for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Stable shard→worker ownership: `owners()[w]` is the contiguous
    /// shard-index range worker `w` executes.
    pub fn owners(&self) -> &[Range<usize>] {
        &self.owners
    }

    /// The format covering the most stored non-zeros (ties: first shard).
    pub fn dominant_format(&self) -> FormatId {
        let mut by_fmt = [0usize; FORMAT_COUNT];
        for s in &self.shards {
            by_fmt[s.matrix.format_id().index()] += s.matrix.nnz();
        }
        ALL_FORMATS.into_iter().max_by_key(|f| by_fmt[f.index()]).unwrap_or(FormatId::Csr)
    }

    /// Executes `op` — `y = A x`, or `Y = A X` on row-major blocks of `k`
    /// right-hand sides — as every shard's own plan run inline
    /// ([`ExecPlan::run`] without a pool) against the shared `x` and the
    /// shard's disjoint slice of `y`: across `pool` with stable shard
    /// ownership, or — with `None`, or a pool of width 1 — shard by shard on
    /// the calling thread. The same single-threaded bodies run either way, so
    /// the results are bitwise equal. `observe(shard_index, elapsed)`, when
    /// given, is called after each shard's kernel — the hook the serving
    /// layer records per-shard telemetry through. The one shard loop.
    pub fn run(
        &self,
        op: Op,
        x: &[V],
        y: &mut [V],
        pool: Option<&ThreadPool>,
        observe: Option<&(dyn Fn(usize, Duration) + Sync)>,
    ) -> Result<()> {
        let k = match op {
            Op::Spmv => 1,
            Op::Spmm { k } => k,
        };
        if k == 0 || x.len() != self.ncols * k || y.len() != self.nrows * k {
            return Err(MorpheusError::ShapeMismatch {
                expected: format!("x: {}*k, y: {}*k, k >= 1", self.ncols, self.nrows),
                got: format!("x: {}, y: {}, k = {}", x.len(), y.len(), k),
            });
        }
        // Shard `si` writes `y[rows.start*k .. rows.end*k]`.
        let run_one = |si: usize, ys: &mut [V]| -> Result<()> {
            let s = &self.shards[si];
            let t0 = observe.map(|_| Instant::now());
            s.plan.run(&s.matrix, op, x, ys, None)?;
            if let (Some(f), Some(t0)) = (observe, t0) {
                f(si, t0.elapsed());
            }
            Ok(())
        };
        let Some(pool) = pool.filter(|pool| pool.num_threads() > 1) else {
            return self
                .shards
                .iter()
                .enumerate()
                .try_for_each(|(si, s)| run_one(si, &mut y[s.rows.start * k..s.rows.end * k]));
        };
        let owned;
        let owners: &[Range<usize>] = if pool.num_threads() == self.threads {
            &self.owners
        } else {
            owned = owner_ranges(&self.shards, pool.num_threads());
            &owned
        };
        let shared = SharedSlice::new(y);
        let failed: Mutex<Option<MorpheusError>> = Mutex::new(None);
        pool.run_owned(owners, &|_, si| {
            let r = self.shards[si].rows.clone();
            // SAFETY: shard row ranges tile 0..nrows disjointly (validated
            // in from_shards), and run_owned executes each shard index
            // exactly once, so these mutable slices never overlap.
            let ys = unsafe { shared.slice_mut(r.start * k, r.len() * k) };
            if let Err(e) = run_one(si, ys) {
                failed.lock().unwrap().get_or_insert(e);
            }
        });
        failed.into_inner().unwrap().map_or(Ok(()), Err)
    }
}

/// Contiguous nnz-weighted shard→worker ownership. Every worker index up
/// to `threads` gets a (possibly empty-by-omission) contiguous run; the
/// returned vector has at most `threads` non-empty ranges covering all
/// shards in order.
fn owner_ranges<V: Scalar>(shards: &[Shard<V>], threads: usize) -> Vec<Range<usize>> {
    // +1 so zero-nnz shards still carry weight and land in some range.
    weighted_partition_with(shards.len(), threads.max(1), |i| shards[i].matrix.nnz() + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CooBuilder;
    use crate::convert::ConvertOptions;
    use crate::coo::CooMatrix;

    fn hetero_csr(nrows: usize, hub_rows: usize, hub_deg: usize) -> CsrMatrix<f64> {
        let mut b = CooBuilder::new(nrows, nrows);
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for r in 0..hub_rows {
            for j in 0..hub_deg {
                let c = (rng() as usize) % nrows;
                b.push(r, c, (j + 1) as f64 * 0.25).unwrap();
            }
        }
        for r in hub_rows..nrows {
            for d in -1i64..=1 {
                let c = r as i64 + d;
                if c >= 0 && (c as usize) < nrows {
                    b.push(r, c as usize, 1.0 + d as f64 * 0.5).unwrap();
                }
            }
        }
        csr_of(b.build())
    }

    fn csr_of(coo: CooMatrix<f64>) -> CsrMatrix<f64> {
        match DynamicMatrix::from(coo).into_format(FormatId::Csr, &ConvertOptions::default()).unwrap() {
            DynamicMatrix::Csr(csr) => csr,
            _ => unreachable!("converted to CSR"),
        }
    }

    fn partition_of(m: &CsrMatrix<f64>, cfg: &PartitionConfig) -> Partition {
        let prefix: Vec<u64> = m.row_offsets().iter().map(|&o| o as u64).collect();
        Partition::from_row_prefix(&prefix, cfg)
    }

    #[test]
    fn partition_invariants_and_determinism() {
        let m = hetero_csr(600, 40, 30);
        let cfg = PartitionConfig { target_shard_nnz: 300, regime_window: 32, ..Default::default() };
        let p1 = partition_of(&m, &cfg);
        let p2 = partition_of(&m, &cfg);
        assert_eq!(p1, p2, "partitioning must be deterministic");
        assert!(p1.num_shards() >= 2);
        assert_eq!(p1.boundaries()[0], 0);
        assert_eq!(*p1.boundaries().last().unwrap(), 600);
        assert!(p1.boundaries().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(p1.shard_nnz().iter().sum::<usize>(), m.nnz());
    }

    #[test]
    fn regime_refinement_snaps_to_hub_edge() {
        // 40 hub rows of ~30 nnz then a tridiagonal tail: the first interior
        // boundary should land exactly on the regime shift at row 40.
        let m = hetero_csr(600, 40, 30);
        let cfg = PartitionConfig { target_shard_nnz: m.nnz() / 2, regime_window: 128, ..Default::default() };
        let p = partition_of(&m, &cfg);
        assert!(
            p.boundaries().contains(&40),
            "expected a boundary at the hub/tail regime shift, got {:?}",
            p.boundaries()
        );
    }

    /// The pieces are the matrix's rows, in order: laid end to end they give
    /// back its columns, values and (rebased) offsets, in one traversal.
    #[test]
    fn split_pieces_concatenate_to_the_matrix() {
        let m = hetero_csr(500, 30, 25);
        let p = partition_of(&m, &PartitionConfig { target_shard_nnz: 250, ..Default::default() });
        assert!(p.num_shards() >= 2);
        passes::reset();
        let pieces = split_rows(&m, &p).unwrap();
        assert_eq!(passes::count(), 1);
        let (mut offsets, mut cols, mut vals) = (vec![0], Vec::new(), Vec::new());
        for ((rows, piece), &nnz) in p.ranges().zip(&pieces).zip(p.shard_nnz()) {
            assert_eq!((piece.nrows(), piece.ncols(), piece.nnz()), (rows.len(), 500, nnz));
            offsets.extend(piece.row_offsets()[1..].iter().map(|o| o + cols.len()));
            cols.extend_from_slice(piece.col_indices());
            vals.extend_from_slice(piece.values());
        }
        assert_eq!((offsets.as_slice(), cols.as_slice()), (m.row_offsets(), m.col_indices()));
        assert!(vals.iter().zip(m.values()).all(|(a, b)| a.to_bits() == b.to_bits()));
        let short = Partition::from_row_prefix(&[0, 1], &PartitionConfig::default());
        assert!(matches!(split_rows(&m, &short), Err(MorpheusError::ShapeMismatch { .. })));
    }

    #[test]
    fn degenerate_shapes() {
        // Empty matrix.
        let m = csr_of(CooMatrix::<f64>::from_triplets(0, 0, &[], &[], &[]).unwrap());
        let p = partition_of(&m, &PartitionConfig::default());
        assert_eq!(p.num_shards(), 1);
        assert_eq!(split_rows(&m, &p).unwrap(), vec![m.clone()]);
        // Shard count request far above row count.
        let m = hetero_csr(3, 1, 2);
        let cfg = PartitionConfig { max_shards: 16, target_shard_nnz: 1, ..Default::default() };
        let p = partition_of(&m, &cfg);
        assert!(p.num_shards() <= 3);
        let pieces = split_rows(&m, &p).unwrap();
        assert_eq!(pieces.iter().map(CsrMatrix::nnz).sum::<usize>(), m.nnz());
    }
}
