//! The virtual execution engine: one per (system, backend) pair.

use crate::analyze::MatrixAnalysis;
use crate::calib::Calibration;
use crate::spec::{Backend, SystemBackend, SystemProfile};
use crate::Op;
use crate::{cpu, gpu};
use morpheus::format::{FormatId, FORMAT_COUNT};
use morpheus::ConvertOptions;

/// Largest `|z|` the noise's Box–Muller draw reaches: its first uniform is
/// at least `2^-53`, so `z` is at most `sqrt(2 · 53 · ln 2) = 8.5718…`.
const NOISE_Z_MAX: f64 = 8.572;

/// Relative slack [`VirtualEngine::payback_floor`] widens the noise range
/// by, covering the rounding of the prices it bounds.
const BOUND_SLACK: f64 = 1e-9;

/// Eq. 2 at a horizon of one: what converting a matrix out of `from` into
/// `to` costs and saves for one operation, both measured in executions of
/// `from` ([`VirtualEngine::payback`]). A single execution in `to` repays
/// the conversion when `c + r < 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Payback {
    /// `c`: predicted seconds of the conversion over one execution in `from`.
    pub convert: f64,
    /// `r`: predicted seconds of one execution in `to` over one in `from`.
    pub ratio: f64,
}

impl Payback {
    /// `c + r < 1`: one execution in the target repays converting to it.
    pub fn repays_one(&self) -> bool {
        self.convert + self.ratio < 1.0
    }
}

/// Result of profiling one matrix on one engine: the per-format runtimes of
/// a single SpMV (None = format not viable) and the winner.
#[derive(Debug, Clone)]
pub struct ProfileResult {
    /// Modelled seconds per SpMV, indexed by `FormatId::index()`.
    pub times: [Option<f64>; FORMAT_COUNT],
    /// The optimal (minimum-time) format.
    pub optimal: FormatId,
}

impl ProfileResult {
    /// Runtime of the optimal format.
    pub fn optimal_time(&self) -> f64 {
        self.times[self.optimal.index()].expect("optimal format is viable")
    }

    /// Runtime of CSR (always viable), the paper's baseline format.
    pub fn csr_time(&self) -> f64 {
        self.times[FormatId::Csr.index()].expect("CSR is always viable")
    }

    /// Speedup of the optimal format over CSR (≥ 1).
    pub fn optimal_speedup(&self) -> f64 {
        self.csr_time() / self.optimal_time()
    }
}

/// A simulated (system, backend) execution engine with a deterministic
/// virtual clock.
///
/// All times are modelled from matrix structure (see the crate docs); a
/// small deterministic log-normal perturbation (default σ = 3%) stands in
/// for run-to-run machine noise so that near-ties between formats resolve
/// differently across systems, as they do in the paper's Figure 2.
#[derive(Debug, Clone)]
pub struct VirtualEngine {
    system: SystemProfile,
    backend: Backend,
    calib: Calibration,
    noise_sigma: f64,
    noise_seed: u64,
    /// The conversion options whose padding guard [`VirtualEngine::is_viable`]
    /// applies.
    guard: ConvertOptions,
}

impl VirtualEngine {
    /// Engine for `backend` on `system` with default calibration and noise.
    ///
    /// # Panics
    /// If the system does not support the backend (e.g. CUDA on ARCHER2).
    pub fn new(system: SystemProfile, backend: Backend) -> Self {
        assert!(system.supports(backend), "{} does not support {backend}", system.name);
        VirtualEngine {
            system,
            backend,
            calib: Calibration::default(),
            noise_sigma: 0.02,
            noise_seed: 0x5EED,
            guard: ConvertOptions::default(),
        }
    }

    /// Engine for a [`SystemBackend`] pair.
    pub fn for_pair(pair: &SystemBackend) -> Self {
        VirtualEngine::new(pair.system.clone(), pair.backend)
    }

    /// Replaces the calibration constants.
    pub fn with_calibration(mut self, calib: Calibration) -> Self {
        self.calib = calib;
        self
    }

    /// Sets the noise level (σ of the log-normal factor; 0 disables noise).
    pub fn with_noise(mut self, sigma: f64, seed: u64) -> Self {
        self.noise_sigma = sigma;
        self.noise_seed = seed;
        self
    }

    /// Applies `opts`' padding guard in [`VirtualEngine::is_viable`]: a
    /// format is then viable exactly when a conversion under `opts` admits
    /// its padding. A service hands its own conversion options here, so its
    /// tuners price what it can store.
    pub fn with_padding_guard(mut self, opts: &ConvertOptions) -> Self {
        self.guard = *opts;
        self
    }

    /// The simulated system.
    pub fn system(&self) -> &SystemProfile {
        &self.system
    }

    /// The simulated backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// `"System/Backend"` label.
    pub fn label(&self) -> String {
        format!("{}/{}", self.system.name, self.backend)
    }

    /// Deterministic log-normal noise factor for (matrix, format).
    fn noise(&self, a: &MatrixAnalysis, fmt: FormatId) -> f64 {
        if self.noise_sigma == 0.0 {
            return 1.0;
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.noise_seed;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
            h ^= h >> 29;
        };
        mix(a.nrows() as u64);
        mix(a.ncols() as u64);
        mix(a.nnz() as u64);
        mix(a.stats.ndiags as u64);
        mix(fmt.index() as u64);
        mix(self.backend as u64);
        for b in self.system.name.bytes() {
            mix(b as u64);
        }
        // Two uniforms -> one standard normal (Box-Muller).
        let u1 = ((h >> 11) as f64 + 1.0) / (u64::MAX >> 11) as f64;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
        let u2 = ((h >> 11) as f64 + 1.0) / (u64::MAX >> 11) as f64;
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.noise_sigma * z).exp()
    }

    /// The range of the noise factor over every draw, widened by
    /// [`BOUND_SLACK`].
    fn noise_range(&self) -> [f64; 2] {
        let spread = (self.noise_sigma.abs() * NOISE_Z_MAX).exp();
        [(1.0 - BOUND_SLACK) / spread, (1.0 + BOUND_SLACK) * spread]
    }

    /// Modelled seconds for one SpMV in `fmt`, including noise. Does not
    /// check viability — see [`VirtualEngine::is_viable`].
    pub fn spmv_time(&self, fmt: FormatId, a: &MatrixAnalysis) -> f64 {
        self.noiseless_spmv_time(fmt, a, a.locality) * self.noise(a, fmt)
    }

    /// [`VirtualEngine::spmv_time`] before noise, at gather `locality`.
    fn noiseless_spmv_time(&self, fmt: FormatId, a: &MatrixAnalysis, locality: f64) -> f64 {
        match self.backend {
            Backend::Serial => cpu::spmv_time_at(&self.system.cpu, 1, &self.calib, fmt, a, locality),
            Backend::OpenMp => {
                cpu::spmv_time_at(&self.system.cpu, self.system.cpu.cores, &self.calib, fmt, a, locality)
            }
            b => {
                let dev = self.system.gpu_for(b).expect("backend support checked at construction");
                gpu::spmv_time_at(dev, &self.calib, fmt, a, locality)
            }
        }
    }

    /// Modelled seconds for one execution of `op` in `fmt`, including
    /// noise. This is the query operation-aware tuners rank formats by.
    pub fn op_time(&self, op: Op, fmt: FormatId, a: &MatrixAnalysis) -> f64 {
        match op {
            Op::Spmv => self.spmv_time(fmt, a),
            Op::Spmm { k } => self.spmm_time(fmt, a, k),
        }
    }

    /// Computational slots one pass over the matrix touches in `fmt`
    /// (padded formats do padded work on every right-hand side).
    fn op_work_slots(fmt: FormatId, a: &MatrixAnalysis) -> f64 {
        let nnz = a.nnz() as f64;
        match fmt {
            FormatId::Coo | FormatId::Csr => nnz,
            FormatId::Dia => a.dia_padded() as f64,
            FormatId::Ell => a.ell_padded() as f64,
            FormatId::Hyb => (a.hyb_padded() + a.hyb_coo_nnz) as f64,
            FormatId::Hdc => (a.hdc_padded() + a.hdc_csr_nnz) as f64,
            FormatId::Bsr => a.bsr_padded(Self::bsr_dim()) as f64,
            FormatId::Bell => a.bell_padded as f64,
        }
    }

    /// Square block dim the model prices BSR at (the default parameters,
    /// matching what an unparameterized conversion builds).
    fn bsr_dim() -> usize {
        morpheus::FormatParams::default().normalized_block().0
    }

    /// Modelled seconds for one SpMM (`Y = A X`) with `k` right-hand sides
    /// in `fmt`.
    ///
    /// Modelled as one SpMV plus `k - 1` incremental right-hand sides. The
    /// matrix arrays stream once regardless of `k` and, with row-major `X`,
    /// the `k` gathered `x` values per non-zero are contiguous — so each
    /// additional right-hand side pays only streaming traffic over the
    /// format's *work slots* plus the `y` update, with none of the gather
    /// penalty of the first pass. Padded formats therefore scale worse in
    /// `k` than CSR/COO, which is exactly why tuners must be
    /// operation-aware.
    pub fn spmm_time(&self, fmt: FormatId, a: &MatrixAnalysis, k: usize) -> f64 {
        let base = self.spmv_time(fmt, a);
        match k.max(1) {
            1 => base,
            k => base + (k - 1) as f64 * self.spmm_per_rhs_time(fmt, a),
        }
    }

    /// Modelled seconds each right-hand side beyond the first adds to an
    /// SpMM in `fmt` — the slope of [`VirtualEngine::spmm_time`], which is
    /// affine in `k`. Batching `k >= 2` SpMVs into one SpMM is therefore
    /// modelled as a win exactly when this is below
    /// [`VirtualEngine::spmv_time`], whatever `k` is.
    pub fn spmm_per_rhs_time(&self, fmt: FormatId, a: &MatrixAnalysis) -> f64 {
        self.noiseless_per_rhs_time(fmt, a) * self.noise(a, fmt)
    }

    /// [`VirtualEngine::spmm_per_rhs_time`] before noise.
    fn noiseless_per_rhs_time(&self, fmt: FormatId, a: &MatrixAnalysis) -> f64 {
        let work = Self::op_work_slots(fmt, a);
        let bytes = (work + 2.0 * a.nrows() as f64) * 8.0;
        let per_rhs = match self.backend {
            Backend::Serial => bytes / self.system.cpu.bandwidth(1),
            Backend::OpenMp => bytes / self.system.cpu.bandwidth(self.system.cpu.cores),
            b => {
                let dev = self.system.gpu_for(b).expect("backend support checked at construction");
                bytes / dev.bandwidth()
            }
        };
        per_rhs
    }

    /// [`VirtualEngine::op_time`]'s form at gather `locality` and noise
    /// factor `noise`, for bounding it over both.
    fn op_time_at(&self, op: Op, fmt: FormatId, a: &MatrixAnalysis, locality: f64, noise: f64) -> f64 {
        let spmv = self.noiseless_spmv_time(fmt, a, locality) * noise;
        match op {
            Op::Spmv | Op::Spmm { k: 0 | 1 } => spmv,
            Op::Spmm { k } => spmv + (k - 1) as f64 * (self.noiseless_per_rhs_time(fmt, a) * noise),
        }
    }

    /// What converting the matrix `a` describes from `from` into `to` costs
    /// and saves for `op`, in executions of `from`: the conversion's and
    /// `to`'s predicted seconds over `from`'s.
    pub fn payback(&self, op: Op, from: FormatId, to: FormatId, a: &MatrixAnalysis) -> Payback {
        let t = self.op_time(op, from, a);
        Payback { convert: self.conversion_time(from, to, a) / t, ratio: self.op_time(op, to, a) / t }
    }

    /// Lower bounds of [`VirtualEngine::payback`]'s two terms over what a
    /// view assembled without the entry walk leaves open: any gather
    /// locality (`from` priced at none, `to` at all) and any noise draw (the
    /// noise hashes the diagonal count). For `from` and `to` among the
    /// formats priced from row facts otherwise — COO, CSR, ELL, HYB and BELL
    /// — `c + r ≥ 1` here means it holds on the walked view too.
    pub fn payback_floor(&self, op: Op, from: FormatId, to: FormatId, a: &MatrixAnalysis) -> Payback {
        let [least, most] = self.noise_range();
        let slowest = self.op_time_at(op, from, a, 0.0, most);
        Payback {
            convert: self.conversion_time(from, to, a) / slowest,
            ratio: self.op_time_at(op, to, a, 1.0, least) / slowest,
        }
    }

    /// `true` when the format's padded storage passes the padding guard of
    /// the engine's conversion options ([`VirtualEngine::with_padding_guard`];
    /// the defaults otherwise): the profiling harness and run-first skip a
    /// format a conversion would refuse.
    pub fn is_viable(&self, fmt: FormatId, a: &MatrixAnalysis) -> bool {
        let padded = match fmt {
            FormatId::Dia => a.dia_padded(),
            FormatId::Ell => a.ell_padded(),
            FormatId::Hyb => a.hyb_padded(),
            FormatId::Hdc => a.hdc_padded(),
            FormatId::Bsr => a.bsr_padded(Self::bsr_dim()),
            FormatId::Bell => a.bell_padded,
            FormatId::Coo | FormatId::Csr => return true,
        };
        self.guard.admits_padding(fmt, padded, a.nnz())
    }

    /// Profiles all formats on this engine (the paper's "profiling runs",
    /// §III-A): per-format single-SpMV time, skipping non-viable formats,
    /// plus the winner.
    pub fn profile(&self, a: &MatrixAnalysis) -> ProfileResult {
        self.profile_op(a, Op::Spmv)
    }

    /// [`VirtualEngine::profile`] for an arbitrary operation.
    pub fn profile_op(&self, a: &MatrixAnalysis, op: Op) -> ProfileResult {
        let mut times = [None; FORMAT_COUNT];
        let mut best = FormatId::Csr;
        let mut best_t = f64::INFINITY;
        for fmt in morpheus::FormatEntry::all().iter().map(|e| e.id) {
            if !self.is_viable(fmt, a) {
                continue;
            }
            let t = self.op_time(op, fmt, a);
            times[fmt.index()] = Some(t);
            if t < best_t {
                best_t = t;
                best = fmt;
            }
        }
        ProfileResult { times, optimal: best }
    }

    /// Bytes of `fmt`'s arrays for an `f64` matrix like `a` — what a pass
    /// over the stored matrix streams, and what a conversion reads or
    /// writes. Indices are 8 bytes everywhere but in BELL.
    fn storage_bytes(fmt: FormatId, a: &MatrixAnalysis) -> f64 {
        let nnz = a.nnz() as f64;
        match fmt {
            FormatId::Coo => nnz * 24.0,
            FormatId::Csr => nnz * 16.0 + (a.nrows() as f64 + 1.0) * 8.0,
            FormatId::Dia => a.dia_padded() as f64 * 8.0,
            FormatId::Ell => a.ell_padded() as f64 * 16.0,
            FormatId::Hyb => a.hyb_padded() as f64 * 16.0 + a.hyb_coo_nnz as f64 * 24.0,
            FormatId::Hdc => a.hdc_padded() as f64 * 8.0 + a.hdc_csr_nnz as f64 * 16.0,
            FormatId::Bsr => {
                let b = Self::bsr_dim();
                a.bsr_padded(b) as f64 * 8.0 + a.bsr_nblocks(b) as f64 * 16.0
            }
            FormatId::Bell => a.bell_storage_bytes() as f64,
        }
    }

    /// Modelled cost of the on-line feature-extraction pass (§VI-C) over a
    /// matrix stored in `active` format.
    ///
    /// The pass streams the format's arrays once and maintains row/diagonal
    /// histograms; the histogram updates are scalar work that does not
    /// parallelise well, which is why the OpenMP backends pay relatively
    /// more here than in SpMV (visible in Table IV).
    pub fn feature_extraction_time(&self, active: FormatId, a: &MatrixAnalysis) -> f64 {
        let nnz = a.nnz() as f64;
        let bytes = Self::storage_bytes(active, a);
        match self.backend {
            Backend::Serial => {
                let f = self.system.cpu.freq_ghz * 1e9;
                bytes / self.system.cpu.bandwidth(1) + nnz * self.calib.fe_cycles_per_entry / f
            }
            Backend::OpenMp => {
                let cores = self.system.cpu.cores;
                let f = self.system.cpu.freq_ghz * 1e9;
                // Streaming parallelises; histogram merging is serialised and
                // several stats kernels each pay a fork/barrier.
                bytes / self.system.cpu.bandwidth(cores)
                    + nnz * self.calib.fe_cycles_per_entry / f
                    + 3.0 * (self.calib.omp_base_overhead + cores as f64 * self.calib.omp_per_core_overhead)
            }
            b => {
                let dev = self.system.gpu_for(b).expect("checked");
                // Streamed on-device (no transfers, §VI-C), plus a few kernel
                // launches and a reduced result read-back.
                bytes / dev.bandwidth() + 3.0 * self.calib.gpu_launch_overhead + 10.0e-6
            }
        }
    }

    /// Modelled cost of evaluating a tree-ensemble model that visits
    /// `nodes_visited` internal nodes (runs on the host CPU).
    pub fn prediction_time(&self, nodes_visited: usize) -> f64 {
        self.calib.predict_base + nodes_visited as f64 * self.calib.predict_per_node
    }

    /// Modelled cost of converting a matrix from `from` to `to` (read +
    /// permute + write of both representations' bytes). Used by the
    /// run-first tuner's cost accounting.
    pub fn conversion_time(&self, from: FormatId, to: FormatId, a: &MatrixAnalysis) -> f64 {
        if from == to {
            return 0.0;
        }
        let bytes =
            (Self::storage_bytes(from, a) + Self::storage_bytes(to, a)) * self.calib.convert_byte_factor;
        // Conversions run on the host CPU (device conversions would add
        // transfers; Morpheus converts host-side).
        let threads = match self.backend {
            Backend::OpenMp => self.system.cpu.cores,
            _ => 1,
        };
        bytes / self.system.cpu.bandwidth(threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::systems;
    use morpheus::{CooMatrix, DynamicMatrix};

    fn sample_matrix(n: usize, per_row: usize) -> DynamicMatrix<f64> {
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for r in 0..n {
            for k in 0..per_row {
                rows.push(r);
                cols.push((r * 31 + k * 1009) % n);
            }
        }
        let vals = vec![1.0f64; rows.len()];
        DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
    }

    fn sample(n: usize, per_row: usize) -> MatrixAnalysis {
        analyze(&sample_matrix(n, per_row))
    }

    #[test]
    fn profile_is_deterministic() {
        let a = sample(5000, 7);
        let e = VirtualEngine::new(systems::cirrus(), Backend::OpenMp);
        let p1 = e.profile(&a);
        let p2 = e.profile(&a);
        assert_eq!(p1.optimal, p2.optimal);
        assert_eq!(p1.times, p2.times);
    }

    #[test]
    fn csr_always_viable_and_timed() {
        let a = sample(3000, 4);
        for pair in systems::all_system_backends() {
            let e = VirtualEngine::for_pair(&pair);
            let p = e.profile(&a);
            assert!(p.times[FormatId::Csr.index()].is_some(), "{}", e.label());
            assert!(p.optimal_speedup() >= 1.0, "{}", e.label());
        }
    }

    #[test]
    fn nonviable_formats_are_skipped() {
        // Hypersparse scatter with one dense-ish row: ELL padding explodes.
        let n = 100_000usize;
        let mut rows: Vec<usize> = (0..2000).map(|k| (k * 47) % n).collect();
        let mut cols: Vec<usize> = (0..2000).map(|k| (k * 89) % n).collect();
        for k in 0..3000 {
            rows.push(5);
            cols.push((k * 31) % n);
        }
        let vals = vec![1.0f64; rows.len()];
        let a = analyze(&DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap()));
        assert!(!ConvertOptions::default().admits_padding(FormatId::Ell, a.ell_padded(), a.nnz()));
        let e = VirtualEngine::new(systems::cirrus(), Backend::Cuda);
        let p = e.profile(&a);
        assert!(p.times[FormatId::Ell.index()].is_none());
        assert_ne!(p.optimal, FormatId::Ell);
    }

    #[test]
    fn noise_is_bounded_and_deterministic() {
        let a = sample(1000, 5);
        let e = VirtualEngine::new(systems::xci(), Backend::Serial);
        let t1 = e.spmv_time(FormatId::Csr, &a);
        let t2 = e.spmv_time(FormatId::Csr, &a);
        assert_eq!(t1, t2);
        let quiet = VirtualEngine::new(systems::xci(), Backend::Serial).with_noise(0.0, 0);
        let t0 = quiet.spmv_time(FormatId::Csr, &a);
        assert!((t1 / t0 - 1.0).abs() < 0.25, "noise factor out of range: {}", t1 / t0);
    }

    #[test]
    fn feature_extraction_cheaper_than_many_spmvs() {
        // Table IV: at least 75% of matrices need fewer than 100 CSR-SpMV
        // equivalents; sanity-check the same order of magnitude here.
        let a = sample(20_000, 10);
        for pair in systems::all_system_backends() {
            let e = VirtualEngine::for_pair(&pair);
            let fe = e.feature_extraction_time(FormatId::Csr, &a);
            let spmv = e.profile(&a).csr_time();
            let ratio = fe / spmv;
            assert!(ratio > 0.1 && ratio < 400.0, "{}: FE/SpMV = {ratio}", e.label());
        }
    }

    /// Viability is the conversions' padding guard under the engine's
    /// options: a padded format is viable exactly when a conversion under
    /// them admits its padding — under the defaults and under a tighter
    /// `max_fill` a service may be built with.
    #[test]
    fn viability_is_the_conversion_guard_under_the_engine_options() {
        // Rows of one or two entries, every eighth row eight: ELL pads about
        // four slots per entry, a band of near diagonals keeps DIA tight.
        let n = 6000usize;
        let (mut rows, mut cols) = (Vec::new(), Vec::new());
        for r in 0..n {
            let len = if r % 8 == 0 { 8 } else { 1 + r % 2 };
            for k in 0..len {
                rows.push(r);
                cols.push((r + k) % n);
            }
        }
        let vals = vec![1.0f64; rows.len()];
        let m = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
        let a = analyze(&m);
        let tight = ConvertOptions { max_fill: 2.0, ..Default::default() };
        let mut ell = Vec::new();
        for opts in [ConvertOptions::default(), tight] {
            let engine = VirtualEngine::new(systems::cirrus(), Backend::OpenMp).with_padding_guard(&opts);
            for fmt in morpheus::format::ALL_FORMATS {
                let converts = m.to_format(fmt, &opts).is_ok();
                assert_eq!(engine.is_viable(fmt, &a), converts, "{fmt} at max_fill {}", opts.max_fill);
            }
            ell.push(engine.is_viable(FormatId::Ell, &a));
        }
        assert_eq!(ell, [true, false], "the tighter guard refuses ELL's padding");
        let unguarded = VirtualEngine::new(systems::cirrus(), Backend::OpenMp);
        assert!(unguarded.is_viable(FormatId::Ell, &a), "the defaults' guard without options");
    }

    #[test]
    fn prediction_cost_scales_with_nodes() {
        let e = VirtualEngine::new(systems::archer2(), Backend::Serial);
        assert!(e.prediction_time(1000) > e.prediction_time(10));
    }

    #[test]
    fn bell_storage_formula_follows_the_stored_arrays() {
        // Five entries a row land in the width-8 bucket: three pads a row.
        let m = sample_matrix(4000, 5);
        let modelled = VirtualEngine::storage_bytes(FormatId::Bell, &analyze(&m));
        let stored = m.to_format(FormatId::Bell, &Default::default()).unwrap().storage_bytes() as f64;
        assert!((modelled - stored).abs() <= 0.01 * stored, "{modelled} vs {stored}");
    }

    #[test]
    fn conversion_cost_zero_for_same_format() {
        let a = sample(1000, 5);
        let e = VirtualEngine::new(systems::archer2(), Backend::Serial);
        assert_eq!(e.conversion_time(FormatId::Csr, FormatId::Csr, &a), 0.0);
        assert!(e.conversion_time(FormatId::Csr, FormatId::Coo, &a) > 0.0);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn unsupported_backend_panics() {
        let _ = VirtualEngine::new(systems::archer2(), Backend::Cuda);
    }

    #[test]
    fn spmm_with_one_rhs_is_spmv() {
        let a = sample(3000, 5);
        for pair in systems::all_system_backends() {
            let e = VirtualEngine::for_pair(&pair);
            for fmt in morpheus::format::ALL_FORMATS {
                assert_eq!(e.spmm_time(fmt, &a, 1), e.spmv_time(fmt, &a), "{} {fmt}", e.label());
                assert_eq!(e.op_time(Op::Spmv, fmt, &a), e.spmv_time(fmt, &a));
                assert_eq!(e.op_time(Op::Spmm { k: 4 }, fmt, &a), e.spmm_time(fmt, &a, 4));
            }
        }
    }

    #[test]
    fn spmm_amortises_matrix_traffic() {
        let a = sample(20_000, 8);
        let e = VirtualEngine::new(systems::cirrus(), Backend::Serial);
        let k = 16usize;
        let spmm = e.spmm_time(FormatId::Csr, &a, k);
        let repeated = k as f64 * e.spmv_time(FormatId::Csr, &a);
        // Growing in k, but cheaper than k separate SpMVs (the entire point
        // of the blocked kernel).
        assert!(spmm > e.spmv_time(FormatId::Csr, &a));
        assert!(spmm < repeated, "spmm {spmm} vs {k} spmvs {repeated}");
    }

    #[test]
    fn spmm_profile_can_rank_formats_differently() {
        // A banded matrix with partially-filled bands: DIA pads, CSR does
        // not. Padding is re-streamed per right-hand side, so CSR's
        // relative standing must improve (strictly) as k grows.
        let n = 30_000usize;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for i in 0..n {
            for d in [-6isize, -3, 0, 2, 5] {
                let j = i as isize + d;
                if j >= 0 && (j as usize) < n && (i + d.unsigned_abs()) % 3 != 0 {
                    rows.push(i);
                    cols.push(j as usize);
                }
            }
        }
        let vals = vec![1.0f64; rows.len()];
        let a = analyze(&DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap()));
        let e = VirtualEngine::new(systems::a64fx(), Backend::Serial);
        let rel = |k: usize| e.spmm_time(FormatId::Csr, &a, k) / e.spmm_time(FormatId::Dia, &a, k);
        assert!(rel(64) < rel(1), "CSR must gain on DIA as k grows: {} vs {}", rel(64), rel(1));
    }
}
