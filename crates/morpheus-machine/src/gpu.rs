//! GPU (SIMT) timing model for the CUDA and HIP backends.
//!
//! Kernels are modelled at warp granularity, following the CUSP-lineage
//! kernels Morpheus uses (Bell & Garland):
//!
//! * **CSR (scalar)** — one thread per row. Three effects drive its cost:
//!   memory-coalescing waste (lanes of a warp read 32 different rows whose
//!   entries are `mean_row * 12` bytes apart), warp divergence
//!   (`Σ_warp max(row nnz)` iterations instead of `Σ nnz / 32`), and a
//!   *tail-latency* term — a warp containing one huge row serialises that
//!   row on a single lane, which is the `mawi_201512020030` pathology of
//!   §VII-C (5x the memory requests, 10x lower occupancy, up to 1000x
//!   slower than the optimum).
//! * **ELL** — one thread per row over column-major slabs: fully coalesced,
//!   cost scales with padding.
//! * **DIA** — one thread per row sweeping diagonals: coalesced on values,
//!   `x` and `y`.
//! * **COO** — segmented reduction over entries: coalesced but with a
//!   fixed per-entry overhead and uncoalesced per-row flushes.
//! * **HYB / HDC** — compose their parts plus an extra kernel launch.

use crate::analyze::{MatrixAnalysis, WARP};
use crate::calib::Calibration;
use crate::spec::GpuSpec;
use morpheus::FormatId;

const VAL: f64 = 8.0; // f64 value bytes
const IDX: f64 = 4.0; // 32-bit device indices

/// Device utilisation for a launch with `threads` logical threads: below
/// `sms * gpu_threads_per_sm_full` resident threads the device cannot hide
/// memory latency.
fn utilisation(spec: &GpuSpec, calib: &Calibration, threads: f64) -> f64 {
    let full = spec.sms as f64 * calib.gpu_threads_per_sm_full;
    (threads / full).clamp(calib.gpu_min_utilisation, 1.0)
}

/// `x`-gather bytes on the device: cached sweep if `x` fits in L2,
/// otherwise one transaction per miss.
fn gather_x_bytes(spec: &GpuSpec, calib: &Calibration, nnz: f64, ncols: f64, locality: f64) -> f64 {
    let x_resident = VAL * ncols;
    if x_resident <= spec.l2_bytes() * 0.5 {
        x_resident.min(nnz * VAL)
    } else {
        nnz * (locality * VAL + (1.0 - locality) * calib.gpu_gather_miss_bytes)
    }
}

struct GpuPart {
    bytes: f64,
    warp_iters: f64,
    /// Logical threads launched (for the utilisation model).
    threads: f64,
    /// Longest single-lane serial chain (iterations), for tail latency.
    tail_iters: f64,
}

// One argument per modelled quantity; `locality` overrides the view's.
#[allow(clippy::too_many_arguments)]
fn csr_scalar_part(
    spec: &GpuSpec,
    calib: &Calibration,
    a: &MatrixAnalysis,
    locality: f64,
    nnz: f64,
    mean_row: f64,
    max_row: f64,
    warp_iters: f64,
) -> GpuPart {
    let nrows = a.nrows() as f64;
    // Coalescing waste grows with column irregularity; row-contiguous data
    // with good locality caches well even under the scalar thread mapping.
    let waste = 1.0 + calib.gpu_csr_locality_waste * (1.0 - locality);
    let bytes = nnz * (VAL + IDX) * waste
        + gather_x_bytes(spec, calib, nnz, a.ncols() as f64, locality)
        + nrows * (VAL + 2.0 * IDX); // y write + row offsets
                                     // A row much longer than its warp peers serialises on one lane; rows
                                     // within ~a warp-quantum of the mean are hidden by scheduling.
    let tail_iters = (max_row - 32.0 * mean_row).max(0.0);
    GpuPart { bytes, warp_iters, threads: nrows, tail_iters }
}

// One argument per modelled quantity; `locality` overrides the view's.
#[allow(clippy::too_many_arguments)]
fn ell_part(
    spec: &GpuSpec,
    calib: &Calibration,
    a: &MatrixAnalysis,
    locality: f64,
    padded: f64,
    width: f64,
    nnz: f64,
) -> GpuPart {
    let nrows = a.nrows() as f64;
    let bytes =
        padded * (VAL + IDX) + gather_x_bytes(spec, calib, nnz, a.ncols() as f64, locality) + nrows * VAL;
    GpuPart {
        bytes,
        warp_iters: (nrows / WARP as f64).ceil() * width,
        threads: nrows,
        // Uniform trip count across lanes: no divergence tail.
        tail_iters: 0.0,
    }
}

fn dia_part(spec: &GpuSpec, a: &MatrixAnalysis, padded: f64, ndiags: f64) -> GpuPart {
    let nrows = a.nrows() as f64;
    let ncols = a.ncols() as f64;
    let x_bytes = if VAL * ncols <= spec.l2_bytes() * 0.5 { VAL * ncols } else { padded * VAL };
    let bytes = padded * VAL + ndiags * IDX + x_bytes + nrows * VAL;
    GpuPart {
        bytes,
        warp_iters: (nrows / WARP as f64).ceil() * ndiags,
        threads: nrows,
        // Uniform trip count across lanes: no divergence tail.
        tail_iters: 0.0,
    }
}

fn coo_part(
    spec: &GpuSpec,
    calib: &Calibration,
    a: &MatrixAnalysis,
    locality: f64,
    nnz: f64,
    rows_touched: f64,
) -> GpuPart {
    let bytes = nnz * (VAL + 2.0 * IDX + calib.gpu_coo_seg_bytes)
        + gather_x_bytes(spec, calib, nnz, a.ncols() as f64, locality)
        + rows_touched * calib.gpu_coo_row_flush_bytes;
    GpuPart {
        bytes,
        warp_iters: (nnz / WARP as f64).ceil() * calib.gpu_coo_seg_factor,
        // Segmented reduction exposes entry-level parallelism, but the
        // in-warp segment scan serialises ~4 entries per effective thread.
        threads: (nnz / 4.0).max(1.0),
        tail_iters: 0.0,
    }
}

fn part_time(spec: &GpuSpec, calib: &Calibration, part: &GpuPart) -> f64 {
    if part.bytes <= 0.0 && part.warp_iters <= 0.0 {
        return 0.0;
    }
    let util = utilisation(spec, calib, part.threads);
    let mem = part.bytes / (spec.bandwidth() * util);
    let compute = part.warp_iters * calib.gpu_cycles_per_iter / (spec.warp_iter_rate() * util);
    // A single lane grinding through `tail_iters` entries is latency-bound:
    // each iteration pays a (partially pipelined) memory round-trip.
    let tail = part.tail_iters * calib.gpu_tail_cycles / (spec.clock_ghz * 1e9);
    mem.max(compute).max(tail)
}

/// Modelled runtime, in seconds, of one SpMV in format `fmt` on the device.
pub fn spmv_time(spec: &GpuSpec, calib: &Calibration, fmt: FormatId, a: &MatrixAnalysis) -> f64 {
    spmv_time_at(spec, calib, fmt, a, a.locality)
}

/// [`spmv_time`] with the gathers' `locality` given instead of read off the
/// view: what bounding a price over an unknown locality evaluates.
pub(crate) fn spmv_time_at(
    spec: &GpuSpec,
    calib: &Calibration,
    fmt: FormatId,
    a: &MatrixAnalysis,
    locality: f64,
) -> f64 {
    let nnz = a.nnz() as f64;
    let nrows = a.nrows() as f64;
    let launch = calib.gpu_launch_overhead;
    match fmt {
        FormatId::Csr => {
            let p = csr_scalar_part(
                spec,
                calib,
                a,
                locality,
                nnz,
                a.mean_row(),
                a.stats.row_nnz_max as f64,
                a.warp_iters_csr as f64,
            );
            part_time(spec, calib, &p) * spec.csr_quality + launch
        }
        FormatId::Coo => {
            let p = coo_part(spec, calib, a, locality, nnz, nrows.min(nnz));
            part_time(spec, calib, &p) + launch
        }
        FormatId::Dia => {
            let p = dia_part(spec, a, a.dia_padded() as f64, a.stats.ndiags as f64);
            part_time(spec, calib, &p) + launch
        }
        FormatId::Ell => {
            let p = ell_part(spec, calib, a, locality, a.ell_padded() as f64, a.ell_width as f64, nnz);
            part_time(spec, calib, &p) + launch
        }
        FormatId::Hyb => {
            let ell_nnz = nnz - a.hyb_coo_nnz as f64;
            let ell = ell_part(spec, calib, a, locality, a.hyb_padded() as f64, a.hyb_width as f64, ell_nnz);
            let surplus = a.hyb_coo_nnz as f64;
            let coo = coo_part(spec, calib, a, locality, surplus, surplus.min(nrows));
            // The second kernel's launch partially overlaps the first.
            part_time(spec, calib, &ell) + part_time(spec, calib, &coo) + 1.5 * launch
        }
        FormatId::Bsr => {
            // One thread per block row sweeping dense value slabs: coalesced
            // like ELL, with the effective width set by the padded slots per
            // row and the trip count by blocks per block row.
            let b = morpheus::FormatParams::default().normalized_block().0;
            let padded = a.bsr_padded(b) as f64;
            let width = if nrows > 0.0 { padded / nrows } else { 0.0 };
            let p = ell_part(spec, calib, a, locality, padded, width, nnz);
            part_time(spec, calib, &p) + launch
        }
        FormatId::Bell => {
            // Each bucket is an ELL slab; one kernel per bucket, uniform trip
            // count inside a bucket so divergence stays bounded by bucketing.
            let padded = a.bell_padded as f64;
            let width = if nrows > 0.0 { padded / nrows } else { 0.0 };
            let p = ell_part(spec, calib, a, locality, padded, width, nnz);
            part_time(spec, calib, &p) + launch * (a.bell_nbuckets.max(1) as f64) * 0.5 + launch
        }
        FormatId::Hdc => {
            let dia = dia_part(spec, a, a.hdc_padded() as f64, a.hdc_ntrue as f64);
            let csr = csr_scalar_part(
                spec,
                calib,
                a,
                locality,
                a.hdc_csr_nnz as f64,
                a.hdc_csr_mean_row,
                a.hdc_csr_max_row() as f64,
                a.warp_iters_hdc_csr() as f64,
            );
            part_time(spec, calib, &dia) + part_time(spec, calib, &csr) * spec.csr_quality + 1.5 * launch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::systems;
    use morpheus::{CooMatrix, DynamicMatrix};

    fn v100() -> GpuSpec {
        systems::cirrus().gpus[0].clone()
    }

    fn mi100() -> GpuSpec {
        systems::p3().gpus[1].clone()
    }

    fn uniform_rows(nrows: usize, per_row: usize) -> MatrixAnalysis {
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for r in 0..nrows {
            for k in 0..per_row {
                rows.push(r);
                cols.push((r + k * 17) % nrows);
            }
        }
        let vals = vec![1.0f64; rows.len()];
        analyze(&DynamicMatrix::from(CooMatrix::from_triplets(nrows, nrows, &rows, &cols, &vals).unwrap()))
    }

    /// Scale-free-like pattern: most rows tiny, one enormous row (the mawi
    /// shape of §VII-C).
    fn powerlaw(nrows: usize, dense_row_len: usize) -> MatrixAnalysis {
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for r in 1..nrows {
            rows.push(r);
            cols.push((r * 48271) % nrows);
        }
        for k in 0..dense_row_len {
            rows.push(0);
            cols.push((k * 7) % nrows);
        }
        let vals = vec![1.0f64; rows.len()];
        analyze(&DynamicMatrix::from(CooMatrix::from_triplets(nrows, nrows, &rows, &cols, &vals).unwrap()))
    }

    #[test]
    fn all_times_positive_and_finite() {
        let a = uniform_rows(50_000, 8);
        let calib = Calibration::default();
        for gpu in [v100(), mi100(), systems::p3().gpus[0].clone()] {
            for fmt in morpheus::format::ALL_FORMATS {
                let t = spmv_time(&gpu, &calib, fmt, &a);
                assert!(t.is_finite() && t > 0.0, "{} {fmt}: {t}", gpu.name);
            }
        }
    }

    #[test]
    fn uniform_rows_favour_ell_on_gpu() {
        // Perfectly regular rows: ELL has zero padding and coalesces, while
        // scalar CSR wastes transactions at mean row length 8.
        let a = uniform_rows(200_000, 8);
        let calib = Calibration::default();
        let t_csr = spmv_time(&v100(), &calib, FormatId::Csr, &a);
        let t_ell = spmv_time(&v100(), &calib, FormatId::Ell, &a);
        assert!(t_ell < t_csr, "ELL {t_ell} vs CSR {t_csr}");
    }

    #[test]
    fn powerlaw_makes_csr_pathological() {
        // The mawi effect: one dense row serialises a warp lane; HYB fixes
        // it by spilling the surplus to the segmented COO kernel. The paper
        // reports speedups reaching 1000x (§VII-C).
        let a = powerlaw(1_000_000, 500_000);
        let calib = Calibration::default();
        let t_csr = spmv_time(&v100(), &calib, FormatId::Csr, &a);
        let t_hyb = spmv_time(&v100(), &calib, FormatId::Hyb, &a);
        let speedup = t_csr / t_hyb;
        assert!(speedup > 25.0, "expected orders-of-magnitude speedup, got {speedup:.1}x");
        // Scaling the hub up scales the pathology up (the paper's 1000x
        // came from mawi-scale hubs).
        let a_big = powerlaw(4_000_000, 3_000_000);
        let big = spmv_time(&v100(), &calib, FormatId::Csr, &a_big)
            / spmv_time(&v100(), &calib, FormatId::Hyb, &a_big);
        assert!(big > speedup, "bigger hub must hurt CSR more: {big:.1}x vs {speedup:.1}x");
    }

    #[test]
    fn hip_csr_penalty_applies() {
        let a = uniform_rows(100_000, 6);
        let calib = Calibration::default();
        let mut amd = mi100();
        let t_penalised = spmv_time(&amd, &calib, FormatId::Csr, &a);
        amd.csr_quality = 1.0;
        let t_tuned = spmv_time(&amd, &calib, FormatId::Csr, &a);
        assert!(t_penalised > 2.0 * t_tuned);
    }

    #[test]
    fn tiny_matrices_are_launch_bound() {
        let a = uniform_rows(64, 3);
        let calib = Calibration::default();
        let t = spmv_time(&v100(), &calib, FormatId::Csr, &a);
        assert!(t >= calib.gpu_launch_overhead);
        assert!(t < 20.0 * calib.gpu_launch_overhead, "tiny matrix should cost ~launch, got {t}");
    }

    #[test]
    fn banded_favours_dia_on_gpu() {
        let n = 300_000usize;
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        for i in 0..n {
            for d in [-1isize, 0, 1] {
                let j = i as isize + d;
                if j >= 0 && (j as usize) < n {
                    rows.push(i);
                    cols.push(j as usize);
                }
            }
        }
        let vals = vec![1.0f64; rows.len()];
        let a = analyze(&DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap()));
        let calib = Calibration::default();
        let t_csr = spmv_time(&v100(), &calib, FormatId::Csr, &a);
        let t_dia = spmv_time(&v100(), &calib, FormatId::Dia, &a);
        assert!(t_dia < t_csr, "DIA {t_dia} vs CSR {t_csr}");
    }
}
