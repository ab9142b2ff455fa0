//! Everything the program is fed, derived from `--seed` alone: matrices,
//! right-hand sides with their reference outputs, and the operation
//! schedules of the serving workloads. The program sees only matrices and
//! vectors; it never learns the seed or the workload's name.
//!
//! The population of each workload is fixed: which structural class sits
//! in which position, with which class parameters and nominal size. The
//! seed moves sizes by up to 10 %, entry positions, values, right-hand
//! sides and schedules. A metric that swings with the seed therefore
//! reflects the program, not a different population.

use crate::refkernel::{ref_csr_spmv, RefCsr};
use morpheus::CooMatrix;
use morpheus_corpus::gen::{banded, blocks, hetero, powerlaw, random, stencil};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Structural classes, one generator of `morpheus-corpus` each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Poisson2d,
    Poisson3d,
    BandedFull,
    BandedPartial,
    MultiDiagonal,
    DiagPlusScatter,
    FemBlocks,
    AlignedBlocks,
    BlockDiagonal,
    UniformDegree,
    VariableDegree,
    NearDiagonal,
    ErdosRenyi,
    ZipfRows,
    HubRows,
    BimodalRows,
    ThreeRegime,
}

pub const ALL_KINDS: [Kind; 17] = [
    Kind::Poisson2d,
    Kind::Poisson3d,
    Kind::BandedFull,
    Kind::BandedPartial,
    Kind::MultiDiagonal,
    Kind::DiagPlusScatter,
    Kind::FemBlocks,
    Kind::AlignedBlocks,
    Kind::BlockDiagonal,
    Kind::UniformDegree,
    Kind::VariableDegree,
    Kind::NearDiagonal,
    Kind::ErdosRenyi,
    Kind::ZipfRows,
    Kind::HubRows,
    Kind::BimodalRows,
    Kind::ThreeRegime,
];

/// The eight regimes of `solver_long`, one matrix each.
pub const LONG_KINDS: [Kind; 8] = [
    Kind::Poisson3d,
    Kind::BandedPartial,
    Kind::AlignedBlocks,
    Kind::BimodalRows,
    Kind::ZipfRows,
    Kind::HubRows,
    Kind::ErdosRenyi,
    Kind::ThreeRegime,
];

/// SplitMix64 finaliser: derives independent sub-seeds from one `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One matrix of class `kind` with about `nnz_target` non-zeros and at
/// least `min_n` rows. Parameter ranges follow `morpheus_corpus::corpus`.
///
/// `shape` draws the class parameters (band width, fill, degree, ...),
/// `rng` everything else (positions, values). The workloads seed `shape`
/// from the matrix's position in the workload, not from `--seed`: which
/// band width slot 7 has is part of the workload's definition, so two
/// seeds give two samples of one population, not two populations.
pub fn generate(
    kind: Kind,
    nnz_target: usize,
    min_n: usize,
    shape: &mut StdRng,
    rng: &mut StdRng,
) -> CooMatrix<f64> {
    // `rows(per_row)`: the dimension that lands near the nnz target.
    let rows = |per_row: f64| ((nnz_target as f64 / per_row.max(1.0)) as usize).max(min_n).max(64);
    match kind {
        Kind::Poisson2d => {
            let side = (rows(5.0) as f64).sqrt().ceil() as usize;
            stencil::poisson2d(side, side)
        }
        Kind::Poisson3d => {
            let side = (rows(7.0) as f64).cbrt().ceil() as usize;
            stencil::poisson3d(side, side, side)
        }
        Kind::BandedFull => {
            let hw = shape.gen_range(2..=6usize);
            banded::banded_full(rows((2 * hw + 1) as f64), hw, rng)
        }
        Kind::BandedPartial => {
            let hw = shape.gen_range(3..=24usize);
            let fill = shape.gen_range(0.1..0.7);
            banded::banded_partial(rows(1.0 + 2.0 * hw as f64 * fill), hw, fill, rng)
        }
        Kind::MultiDiagonal => {
            let nd = shape.gen_range(2..=9usize);
            banded::multi_diagonal(rows(nd as f64), nd, rng)
        }
        Kind::DiagPlusScatter => {
            let extra = shape.gen_range(0.5..4.0);
            let n = rows(1.0 + extra);
            banded::diag_plus_scatter(n, (n as f64 * extra) as usize, rng)
        }
        Kind::FemBlocks => {
            let bs = shape.gen_range(2..=6usize);
            let couplings = shape.gen_range(1..=3usize);
            let n = rows((bs * (1 + 2 * couplings)) as f64);
            blocks::fem_blocks((n / bs).max(2), bs, couplings, rng)
        }
        Kind::AlignedBlocks => {
            let extra = shape.gen_range(1..=3usize);
            let n = rows((4 * (1 + extra)) as f64);
            blocks::aligned_blocks((n / 4).max(2), 4, extra, rng)
        }
        Kind::BlockDiagonal => {
            let lo = shape.gen_range(2..=4usize);
            let hi = lo + shape.gen_range(1..=8usize);
            blocks::block_diagonal(rows((lo + hi) as f64 / 2.0), lo, hi, rng)
        }
        Kind::UniformDegree => {
            let k = shape.gen_range(2..=24usize);
            random::uniform_degree(rows(k as f64), k, rng)
        }
        Kind::VariableDegree => {
            let lo = shape.gen_range(1..=4usize);
            let hi = lo + shape.gen_range(2..=28usize);
            random::variable_degree(rows((lo + hi) as f64 / 2.0), lo, hi, rng)
        }
        Kind::NearDiagonal => {
            let k = shape.gen_range(3..=12usize);
            let spread = shape.gen_range(8.0..200.0);
            random::near_diagonal(rows(k as f64), k, spread, rng)
        }
        Kind::ErdosRenyi => {
            let per_row = shape.gen_range(2.0..12.0);
            let n = rows(per_row);
            random::erdos_renyi(n, (n as f64 * per_row) as usize, rng)
        }
        Kind::ZipfRows => {
            let per_row = shape.gen_range(6..=24usize);
            let alpha = shape.gen_range(1.1..1.8);
            let n = rows(per_row as f64);
            powerlaw::zipf_rows(n, n * per_row, alpha, rng)
        }
        Kind::HubRows => {
            let background = shape.gen_range(4..=8usize);
            let hubs = shape.gen_range(1..=4usize);
            let n = rows(background as f64 + 1.0);
            powerlaw::hub_rows(n, hubs, n / 2, n * background, rng)
        }
        Kind::BimodalRows => {
            let narrow = shape.gen_range(2..=6usize);
            let wide = shape.gen_range(32..=96usize);
            let every = shape.gen_range(8..=32usize);
            let n = rows(narrow as f64 + (wide - narrow) as f64 / every as f64);
            random::bimodal_rows(n, narrow, wide, every, rng)
        }
        Kind::ThreeRegime => {
            // hub block (2 % of rows, 120 wide), ELL-friendly block (30 %,
            // 16 wide), banded tail (half-width 4): about 13 per row.
            let n = rows(13.0);
            hetero::three_regime(n, n / 50, 120.min(n / 4), n * 3 / 10, 16, 4, rng)
        }
    }
}

/// FNV-1a over shape and index arrays: what the determinism tests compare.
#[cfg(test)]
pub fn structure_hash(m: &CooMatrix<f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: usize| {
        h ^= v as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    eat(m.nrows());
    eat(m.ncols());
    m.row_indices().iter().for_each(|&r| eat(r));
    m.col_indices().iter().for_each(|&c| eat(c));
    h
}

/// `m` with row `r` moved to row `(r + shift) % nrows`: a structure the
/// program has not seen, with the same row lengths and column pattern, so
/// the base matrix's reference outputs (rotated) and reference time still
/// apply. `O(nnz)`: the sorted arrays are cut once and swapped.
pub fn rotate_rows(m: &CooMatrix<f64>, shift: usize) -> CooMatrix<f64> {
    let n = m.nrows();
    let shift = shift % n;
    let (rows, cols, vals) = (m.row_indices(), m.col_indices(), m.values());
    let cut = rows.partition_point(|&r| r < n - shift);
    let mut r2 = Vec::with_capacity(rows.len());
    let mut c2 = Vec::with_capacity(rows.len());
    let mut v2 = Vec::with_capacity(rows.len());
    r2.extend(rows[cut..].iter().map(|&r| r + shift - n));
    r2.extend(rows[..cut].iter().map(|&r| r + shift));
    c2.extend_from_slice(&cols[cut..]);
    c2.extend_from_slice(&cols[..cut]);
    v2.extend_from_slice(&vals[cut..]);
    v2.extend_from_slice(&vals[..cut]);
    CooMatrix::from_sorted_parts(n, m.ncols(), r2, c2, v2)
        .expect("rotation keeps entries sorted and in bounds")
}

/// A matrix with everything needed to feed it and to check what comes
/// back: the benchmark's own CSR arrays, two right-hand sides and their
/// reference outputs.
#[derive(Debug, Clone)]
pub struct MatrixInput {
    pub kind: Kind,
    pub coo: CooMatrix<f64>,
    pub reference: RefCsr,
    pub xs: Vec<Vec<f64>>,
    pub ys: Vec<Vec<f64>>,
}

impl MatrixInput {
    pub fn new(kind: Kind, coo: CooMatrix<f64>, rng: &mut StdRng) -> MatrixInput {
        let reference = RefCsr::from_sorted_triplets(
            coo.nrows(),
            coo.ncols(),
            coo.row_indices(),
            coo.col_indices(),
            coo.values(),
        );
        let xs: Vec<Vec<f64>> =
            (0..2).map(|_| (0..coo.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let ys = xs
            .iter()
            .map(|x| {
                let mut y = vec![0.0; coo.nrows()];
                ref_csr_spmv(&reference, x, &mut y);
                y
            })
            .collect();
        MatrixInput { kind, coo, reference, xs, ys }
    }

    /// Same structure, every value multiplied by `c`: the "structural
    /// repeat with new values" the decision and plan caches exist for.
    pub fn scaled_copy(&self, c: f64) -> MatrixInput {
        let scale = |v: &[f64]| v.iter().map(|x| x * c).collect::<Vec<f64>>();
        let coo = CooMatrix::from_sorted_parts(
            self.coo.nrows(),
            self.coo.ncols(),
            self.coo.row_indices().to_vec(),
            self.coo.col_indices().to_vec(),
            scale(self.coo.values()),
        )
        .expect("same structure as a valid matrix");
        let reference = RefCsr { val: scale(&self.reference.val), ..self.reference.clone() };
        MatrixInput {
            kind: self.kind,
            coo,
            reference,
            xs: self.xs.clone(),
            ys: self.ys.iter().map(|y| scale(y)).collect(),
        }
    }

    /// Row-major `ncols x k` block whose column `j` is `xs[j % 2]`.
    pub fn x_block(&self, k: usize) -> Vec<f64> {
        let n = self.coo.ncols();
        (0..n * k).map(|i| self.xs[(i % k) % 2][i / k]).collect()
    }

    pub fn nnz(&self) -> usize {
        self.coo.nnz()
    }
}

/// The matrix in position `slot` of the workload salted `workload`: class
/// parameters and nominal size (log-uniform in `nnz`) follow the position,
/// the seed's `rng` moves the size by up to 10 % and fills in the rest.
fn slot_matrix(
    workload: u64,
    slot: usize,
    kind: Kind,
    nnz: (usize, usize),
    min_n: usize,
    rng: &mut StdRng,
) -> MatrixInput {
    let mut shape = StdRng::seed_from_u64(mix(workload, slot as u64));
    let nominal = shape.gen_range((nnz.0 as f64).ln()..(nnz.1 as f64).ln()).exp();
    let target = (nominal * rng.gen_range(0.9..1.1)) as usize;
    let coo = generate(kind, target, min_n, &mut shape, rng);
    MatrixInput::new(kind, coo, rng)
}

/// How many distinct structures `solver_short` streams, and how many
/// value-scaled repeats of earlier ones ride along (25 % of the stream).
pub const SHORT_UNIQUE: usize = 48;
pub const SHORT_REPEATS: usize = 16;

/// `solver_short`: 48 matrices cycling through every class, 15 k–150 k
/// non-zeros (the reference's arrays fit the L2 of the box the bounds
/// were sized on), with a value-scaled repeat of an earlier matrix after
/// every third one.
pub fn solver_short_inputs(seed: u64) -> Vec<MatrixInput> {
    short_stream(seed, 15_000, 150_000)
}

fn short_stream(seed: u64, nnz_lo: usize, nnz_hi: usize) -> Vec<MatrixInput> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x51));
    let mut out: Vec<MatrixInput> = Vec::with_capacity(SHORT_UNIQUE + SHORT_REPEATS);
    let mut unique: Vec<usize> = Vec::new();
    for i in 0..SHORT_UNIQUE {
        unique.push(out.len());
        out.push(slot_matrix(0x51, i, ALL_KINDS[i % ALL_KINDS.len()], (nnz_lo, nnz_hi), 256, &mut rng));
        if i % 3 == 2 {
            let earlier = unique[rng.gen_range(0..unique.len())];
            let c = rng.gen_range(0.5..2.0);
            let repeat = out[earlier].scaled_copy(c);
            out.push(repeat);
        }
    }
    out
}

/// `solver_long`: one matrix per regime, 300 k–400 k non-zeros each —
/// 5–6.5 MB of CSR arrays, past the 4 MiB L2 of the box the bounds were
/// sized on.
pub fn solver_long_inputs(seed: u64) -> Vec<MatrixInput> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x10));
    LONG_KINDS
        .iter()
        .enumerate()
        .map(|(i, &kind)| slot_matrix(0x10, i, kind, (330_000, 370_000), 256, &mut rng))
        .collect()
}

/// Handles the serving workloads keep registered.
pub const SERVE_HANDLES: usize = 32;
/// Row rotations `1..=UNIVERSE_SHIFTS` of each base matrix form the
/// 384-structure universe the per-call path draws from; larger rotations
/// are reserved for never-seen registrations.
pub const UNIVERSE_SHIFTS: usize = 12;
pub const UNIVERSE: usize = SERVE_HANDLES * UNIVERSE_SHIFTS;

/// `serve_mixed`: 32 small matrices (8 k–80 k non-zeros, at least 1 500
/// rows) cycling through every class, so fixed per-request cost is visible
/// next to the kernel.
pub fn serve_inputs(seed: u64) -> Vec<MatrixInput> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5E));
    (0..SERVE_HANDLES)
        .map(|i| slot_matrix(0x5E, i, ALL_KINDS[i % ALL_KINDS.len()], (8_000, 80_000), 1_500, &mut rng))
        .collect()
}

/// Zipf(`s`) over ranks `0..n`: rank 0 is the most popular handle.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One slot of a `serve_mixed` client's closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSlot {
    /// Warm `service.spmv` on the handle in `slot` with right-hand side `xi`.
    Spmv { slot: usize, xi: usize },
    /// Warm `service.spmm` with eight right-hand sides.
    Spmm { slot: usize },
    /// Per-call `tune_and_spmv` on a fresh clone of universe structure `u`.
    TuneClone { u: usize, xi: usize },
    /// `register` of a never-seen rotation of the slot's base matrix; the
    /// new handle replaces the old one.
    Register { slot: usize, shift: usize },
    /// Reference kernel on the slot's base matrix: samples the time unit.
    Reference { slot: usize },
}

/// The coldest slots (last zipf ranks: half of the handles, at most
/// eight) take the replacing registrations, in rotation, so every pass
/// registers the same mix of matrices.
fn cold_slots(handles: usize) -> usize {
    (handles / 2).clamp(1, 8)
}

/// Deterministic schedule source of one client. Keeps per-slot rotation
/// counters across passes so no registration repeats a structure.
#[derive(Debug, Clone)]
pub struct ServeSchedule {
    rng: StdRng,
    zipf: Zipf,
    client: usize,
    clients: usize,
    handles: usize,
    registered: Vec<usize>,
    next_cold: usize,
}

impl ServeSchedule {
    pub fn new(seed: u64, client: usize, clients: usize, handles: usize) -> ServeSchedule {
        ServeSchedule {
            rng: StdRng::seed_from_u64(mix(seed, 0xC0 + client as u64)),
            zipf: Zipf::new(handles, 1.1),
            client,
            clients,
            handles,
            registered: vec![0; cold_slots(handles)],
            next_cold: client % cold_slots(handles),
        }
    }

    fn next_register(&mut self) -> (usize, usize) {
        let cold = self.next_cold;
        self.next_cold = (cold + 1) % self.registered.len();
        // Interleave the clients' rotation numbers so two clients never
        // register the same rotation of one base matrix.
        let shift = UNIVERSE_SHIFTS + 1 + self.registered[cold] * self.clients + self.client;
        self.registered[cold] += 1;
        (self.handles - self.registered.len() + cold, shift)
    }

    /// `len` slots: every 8th samples the reference; of the rest 84 % warm
    /// `spmv`, 8 % `spmm`, 7.5 % per-call tune, 0.5 % replacing `register`.
    pub fn next_pass(&mut self, len: usize) -> Vec<ServeSlot> {
        (0..len)
            .map(|i| {
                let slot = self.zipf.sample(&mut self.rng);
                let xi = self.rng.gen_range(0..2usize);
                if i % 8 == 7 {
                    return ServeSlot::Reference { slot };
                }
                match self.rng.gen_range(0..1000u32) {
                    0..=839 => ServeSlot::Spmv { slot, xi },
                    840..=919 => ServeSlot::Spmm { slot },
                    920..=994 => ServeSlot::TuneClone { u: self.rng.gen_range(0..UNIVERSE), xi },
                    _ => {
                        let (slot, shift) = self.next_register();
                        ServeSlot::Register { slot, shift }
                    }
                }
            })
            .collect()
    }
}

/// One slot of the `ingress_burst` client's closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstSlot {
    /// Submit `size` requests on one handle, wait for all.
    Burst {
        slot: usize,
        size: usize,
        xi: usize,
        tenant: usize,
    },
    Register {
        slot: usize,
        shift: usize,
    },
    Reference {
        slot: usize,
    },
}

#[derive(Debug, Clone)]
pub struct BurstSchedule {
    inner: ServeSchedule,
    bursts: usize,
}

impl BurstSchedule {
    pub fn new(seed: u64, handles: usize) -> BurstSchedule {
        BurstSchedule { inner: ServeSchedule::new(mix(seed, 0xB0), 0, 1, handles), bursts: 0 }
    }

    /// `len` slots: every 8th samples the reference, every 16th registers
    /// a never-seen structure (so tuning cost is measured beside queued
    /// traffic too); the rest are bursts of 1 (50 %), 4 (25 %) or 16
    /// (25 %) requests, tenants alternating.
    pub fn next_pass(&mut self, len: usize) -> Vec<BurstSlot> {
        (0..len)
            .map(|i| {
                let slot = self.inner.zipf.sample(&mut self.inner.rng);
                let xi = self.inner.rng.gen_range(0..2usize);
                let size = match self.inner.rng.gen_range(0..4u32) {
                    0 | 1 => 1,
                    2 => 4,
                    _ => 16,
                };
                if i % 8 == 7 {
                    BurstSlot::Reference { slot }
                } else if i % 16 == 14 {
                    let (slot, shift) = self.inner.next_register();
                    BurstSlot::Register { slot, shift }
                } else {
                    self.bursts += 1;
                    BurstSlot::Burst { slot, size, xi, tenant: self.bursts % 2 }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes(inputs: &[MatrixInput]) -> Vec<u64> {
        inputs.iter().map(|m| structure_hash(&m.coo)).collect()
    }

    #[test]
    fn same_seed_same_structures_other_seed_other_structures() {
        let a = serve_inputs(7);
        assert_eq!(hashes(&a), hashes(&serve_inputs(7)));
        assert_ne!(hashes(&a), hashes(&serve_inputs(8)));
        assert_eq!(a.len(), SERVE_HANDLES);
        assert!(a.iter().all(|m| m.coo.nrows() >= 1_500));
        // Same class mix whatever the seed.
        let kinds = |v: &[MatrixInput]| v.iter().map(|m| m.kind).collect::<Vec<_>>();
        assert_eq!(kinds(&a), kinds(&serve_inputs(8)));
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let pass = |seed| ServeSchedule::new(seed, 1, 2, SERVE_HANDLES).next_pass(4_000);
        assert_eq!(pass(3), pass(3));
        assert_ne!(pass(3), pass(4));
        let bursts = |seed| BurstSchedule::new(seed, 8).next_pass(2_000);
        assert_eq!(bursts(3), bursts(3));
        assert_ne!(bursts(3), bursts(4));
    }

    #[test]
    fn schedule_mix_and_unique_registrations() {
        let mut a = ServeSchedule::new(5, 0, 2, SERVE_HANDLES);
        let mut b = ServeSchedule::new(5, 1, 2, SERVE_HANDLES);
        let mut regs = std::collections::BTreeSet::new();
        let mut counts = [0usize; 5];
        for sched in [&mut a, &mut b] {
            for _ in 0..3 {
                for slot in sched.next_pass(16_000) {
                    match slot {
                        ServeSlot::Spmv { .. } => counts[0] += 1,
                        ServeSlot::Spmm { .. } => counts[1] += 1,
                        ServeSlot::TuneClone { u, .. } => {
                            assert!(u < UNIVERSE);
                            counts[2] += 1
                        }
                        ServeSlot::Register { slot, shift } => {
                            assert!(
                                shift > UNIVERSE_SHIFTS && slot >= SERVE_HANDLES - cold_slots(SERVE_HANDLES)
                            );
                            assert!(regs.insert((slot, shift)), "registration repeats a structure");
                            counts[3] += 1
                        }
                        ServeSlot::Reference { .. } => counts[4] += 1,
                    }
                }
            }
        }
        let total: usize = counts.iter().sum();
        assert_eq!(counts[4], total / 8);
        let ops = (total - counts[4]) as f64;
        assert!((counts[0] as f64 / ops - 0.84).abs() < 0.01);
        assert!((counts[3] as f64 / ops - 0.005).abs() < 0.002);
    }

    #[test]
    fn rotation_changes_structure_and_rotates_the_product() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = MatrixInput::new(
            Kind::VariableDegree,
            generate(Kind::VariableDegree, 4_000, 64, &mut StdRng::seed_from_u64(0), &mut rng),
            &mut rng,
        );
        let rot = rotate_rows(&base.coo, 5);
        assert_eq!(rot.nnz(), base.coo.nnz());
        assert_ne!(structure_hash(&rot), structure_hash(&base.coo));
        let r = MatrixInput::new(base.kind, rot, &mut rng);
        let mut y = vec![0.0; r.coo.nrows()];
        ref_csr_spmv(&r.reference, &base.xs[0], &mut y);
        assert!(crate::refkernel::matches_rotated(&y, &base.ys[0], 5, 1.0));
        assert_eq!(structure_hash(&rotate_rows(&base.coo, 0)), structure_hash(&base.coo));
    }

    #[test]
    fn scaled_copy_keeps_structure_and_scales_outputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = &MatrixInput::new(
            Kind::BandedPartial,
            generate(Kind::BandedPartial, 5_000, 64, &mut StdRng::seed_from_u64(0), &mut rng),
            &mut rng,
        );
        let s = m.scaled_copy(1.5);
        assert_eq!(structure_hash(&s.coo), structure_hash(&m.coo));
        let mut y = vec![0.0; s.coo.nrows()];
        ref_csr_spmv(&s.reference, &s.xs[1], &mut y);
        assert!(crate::refkernel::matches_rotated(&y, &m.ys[1], 0, 1.5));
    }

    #[test]
    fn short_stream_has_a_quarter_repeats() {
        let v = short_stream(9, 1_000, 4_000);
        assert_eq!(v.len(), SHORT_UNIQUE + SHORT_REPEATS);
        let distinct: std::collections::BTreeSet<u64> = hashes(&v).into_iter().collect();
        // The stencil classes have no random part: two draws that round to
        // the same grid are one structure.
        assert!((SHORT_UNIQUE - 4..=SHORT_UNIQUE).contains(&distinct.len()), "{} distinct", distinct.len());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(32, 1.1);
        let mut rng = StdRng::seed_from_u64(0);
        let mut hits = [0usize; 32];
        (0..20_000).for_each(|_| hits[z.sample(&mut rng)] += 1);
        assert!(hits[0] > hits[1] && hits[1] > hits[8] && hits[8] > hits[31] && hits[31] > 0);
    }
}
