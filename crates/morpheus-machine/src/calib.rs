//! Calibration constants of the performance models.
//!
//! All "magic numbers" of the CPU and GPU models live here so the benchmark
//! harness (and the ablation study) can vary them in one place. Defaults are
//! order-of-magnitude figures for the hardware generation of Table II;
//! experiments consume *relative* format rankings, which are robust to
//! moderate miscalibration.

/// Tunable constants of the machine model.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    // -- CPU -------------------------------------------------------------
    /// CSR/HDC per-row loop overhead, cycles (pointer chase + branch).
    pub cpu_row_cycles: f64,
    /// DIA per-diagonal loop setup, cycles.
    pub cpu_diag_cycles: f64,
    /// Per-entry COO overhead beyond CSR, cycles (extra row-index load).
    pub cpu_coo_entry_cycles: f64,
    /// SIMD efficiency of each kernel's inner loop on cache-resident data:
    /// fraction of peak FLOP/s attainable. Order: COO, CSR, DIA, ELL.
    pub cpu_simd_eff: [f64; 4],
    /// GPU CSR coalescing penalty slope: waste factor is
    /// `1 + slope * (1 - locality)` — irregular column patterns burn
    /// partially-used memory transactions.
    pub gpu_csr_locality_waste: f64,
    /// Cycles per serialised tail iteration (a single lane grinding a row
    /// far longer than its warp peers).
    pub gpu_tail_cycles: f64,
    /// OpenMP fork/barrier base cost, seconds.
    pub omp_base_overhead: f64,
    /// OpenMP per-core barrier scaling, seconds per core.
    pub omp_per_core_overhead: f64,
    /// Rows per core below which the threaded backend cannot use all cores.
    pub omp_min_rows_per_core: f64,
    /// Fraction of LLC usable for `x`/`y` reuse before streaming evicts it.
    pub cache_usable_fraction: f64,
    /// Bytes fetched per missed `x` gather (one cache line).
    pub gather_miss_bytes: f64,
    /// Bytes fetched per hit `x` gather.
    pub gather_hit_bytes: f64,

    // -- GPU -------------------------------------------------------------
    /// Kernel launch latency, seconds.
    pub gpu_launch_overhead: f64,
    /// Cycles per warp-iteration of the row-per-thread kernels.
    pub gpu_cycles_per_iter: f64,
    /// Bytes per uncoalesced gather transaction.
    pub gpu_gather_miss_bytes: f64,
    /// Segmented-reduction overhead factor of the COO kernel (iterations per
    /// entry beyond 1/WARP).
    pub gpu_coo_seg_factor: f64,
    /// Uncoalesced atomic/segment flush bytes per written row in COO.
    pub gpu_coo_row_flush_bytes: f64,
    /// Segment-bookkeeping bytes per entry of the COO kernel (carry flags,
    /// partial sums re-read by the reduction passes).
    pub gpu_coo_seg_bytes: f64,
    /// Threads per SM the device needs resident for full throughput.
    pub gpu_threads_per_sm_full: f64,
    /// Floor of the GPU utilisation factor for tiny launches.
    pub gpu_min_utilisation: f64,

    // -- Tuning-stage costs (Table IV inputs) ------------------------------
    /// Feature-extraction arithmetic per entry, cycles (CPU backends).
    pub fe_cycles_per_entry: f64,
    /// Per-tree-node prediction cost, seconds (pointer-chasing a tree).
    pub predict_per_node: f64,
    /// Fixed prediction overhead (model dispatch), seconds.
    pub predict_base: f64,
    /// Conversion cost factor: bytes moved per structural byte (read,
    /// sort/permute, write).
    pub convert_byte_factor: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            cpu_row_cycles: 6.0,
            cpu_diag_cycles: 40.0,
            cpu_coo_entry_cycles: 1.5,
            cpu_simd_eff: [0.50, 0.85, 1.00, 0.76],
            omp_base_overhead: 3.0e-6,
            omp_per_core_overhead: 4.0e-8,
            omp_min_rows_per_core: 48.0,
            cache_usable_fraction: 0.5,
            gather_miss_bytes: 64.0,
            gather_hit_bytes: 8.0,
            gpu_launch_overhead: 5.0e-6,
            gpu_cycles_per_iter: 4.0,
            gpu_gather_miss_bytes: 32.0,
            gpu_coo_seg_factor: 2.0,
            gpu_csr_locality_waste: 1.0,
            gpu_tail_cycles: 24.0,
            gpu_coo_row_flush_bytes: 32.0,
            gpu_coo_seg_bytes: 10.0,
            gpu_threads_per_sm_full: 1024.0,
            gpu_min_utilisation: 0.25,
            fe_cycles_per_entry: 8.0,
            predict_per_node: 15.0e-9,
            predict_base: 1.0e-6,
            convert_byte_factor: 3.0,
        }
    }
}

impl Calibration {
    /// SIMD efficiency for the four elemental kernels by format index
    /// (hybrids compose their parts).
    pub fn simd_eff_coo(&self) -> f64 {
        self.cpu_simd_eff[0]
    }
    /// See [`Calibration::simd_eff_coo`].
    pub fn simd_eff_csr(&self) -> f64 {
        self.cpu_simd_eff[1]
    }
    /// See [`Calibration::simd_eff_coo`].
    pub fn simd_eff_dia(&self) -> f64 {
        self.cpu_simd_eff[2]
    }
    /// See [`Calibration::simd_eff_coo`].
    pub fn simd_eff_ell(&self) -> f64 {
        self.cpu_simd_eff[3]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Calibration::default();
        assert!(c.cpu_row_cycles > 0.0);
        assert!(c.omp_base_overhead > 0.0 && c.omp_base_overhead < 1e-3);
        assert!(c.gpu_launch_overhead > 1e-6 && c.gpu_launch_overhead < 1e-4);
        for eff in c.cpu_simd_eff {
            assert!(eff > 0.0 && eff <= 1.0);
        }
        // DIA's unit-stride, index-free inner loop is the most SIMD-friendly;
        // COO's scatter is the least.
        assert!(c.simd_eff_dia() >= c.simd_eff_csr());
        assert!(c.simd_eff_dia() >= c.simd_eff_ell());
        assert!(c.simd_eff_coo() <= c.simd_eff_csr());
        assert!(c.simd_eff_coo() <= c.simd_eff_ell());
    }
}
