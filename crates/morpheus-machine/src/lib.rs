//! Hardware performance simulator standing in for the paper's testbeds.
//!
//! The paper profiles SpMV on five HPC systems (Table II: ARCHER2, Cirrus,
//! Isambard A64FX / XCI / P3) across four backends (Serial, OpenMP, CUDA,
//! HIP). This reproduction has none of that hardware, so — per the
//! substitution rule in `DESIGN.md` — it models it: every (system, backend)
//! pair becomes a [`VirtualEngine`] that derives a per-format SpMV runtime
//! from the *actual structure* of the matrix:
//!
//! * memory traffic per format (values, indices, padding, gather/scatter);
//! * `x`-gather locality measured from the real column indices;
//! * OpenMP load imbalance computed from the real row-length distribution
//!   under the same partitioning policy the threaded kernels use;
//! * GPU warp divergence (`Σ_warp max(row nnz)` over 32-row groups),
//!   memory-coalescing waste, occupancy and kernel-launch overheads.
//!
//! The models are deliberately *structure-driven*: a scale-free matrix with
//! one dense row produces the same pathology the paper observed on
//! `mawi_201512020030` (uncoalesced CSR accesses, orders-of-magnitude
//! speedup from switching format), while a banded stencil makes DIA win on
//! wide-SIMD CPUs. Absolute times are modelled; *relative* format rankings
//! are what the experiments consume.
//!
//! # Example
//! ```
//! use morpheus::{CooMatrix, DynamicMatrix, FormatId};
//! use morpheus_machine::{analyze, systems, Backend, VirtualEngine};
//!
//! // A 1000x1000 tridiagonal system.
//! let n: usize = 1000;
//! let mut rows = Vec::new();
//! let mut cols = Vec::new();
//! let mut vals = Vec::new();
//! for i in 0..n {
//!     for j in [i.wrapping_sub(1), i, i + 1] {
//!         if j < n {
//!             rows.push(i);
//!             cols.push(j);
//!             vals.push(1.0f64);
//!         }
//!     }
//! }
//! let m = DynamicMatrix::from(CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
//! let analysis = morpheus_machine::analyze(&m);
//!
//! let engine = VirtualEngine::new(systems::a64fx(), Backend::Serial);
//! let t_csr = engine.spmv_time(FormatId::Csr, &analysis);
//! let t_dia = engine.spmv_time(FormatId::Dia, &analysis);
//! // On a wide-SIMD, high-bandwidth CPU a banded matrix favours DIA.
//! assert!(t_dia < t_csr);
//! ```

pub mod analyze;
pub mod calib;
pub mod cpu;
pub mod engine;
pub mod gpu;
pub mod spec;
pub mod systems;

pub use analyze::{analyze, analyze_from, analyze_with_alpha, assemble, HdcRemainder, MatrixAnalysis};
pub use calib::Calibration;
pub use engine::{ProfileResult, VirtualEngine};
/// The operation a cost query is for — defined beside the kernels that
/// execute it, re-exported here for the engine's callers.
pub use morpheus::Op;
pub use spec::{Backend, CpuSpec, GpuSpec, GpuVendor, SystemBackend, SystemProfile};
