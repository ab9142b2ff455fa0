//! Cached per-matrix execution plans: the planned execution layer.
//!
//! The paper's amortisation argument (§IV) is that format selection pays
//! off over thousands of repeated SpMV iterations. The same holds for the
//! *schedule*: how rows are split across threads is a per-matrix artifact —
//! it depends only on the sparsity structure — so deriving it per call
//! (`weighted_partition` over the row lengths, `row_aligned_partition`
//! re-searching the sorted COO entries) is work an iterative loop repeats
//! for nothing. An [`ExecPlan`] computes that schedule **once**, and
//! [`ExecPlan::run`] — the one threaded execution path — replays it:
//!
//! * **CSR** — nnz-weighted row ranges (each worker gets a near equal
//!   number of non-zeros, taming skewed matrices);
//! * **COO** — row-aligned entry ranges, balanced by entry count;
//! * **DIA** — static row ranges (padded work is uniform per row);
//! * **HDC** — static row ranges for the DIA portion plus nnz-weighted row
//!   ranges for the CSR remainder;
//! * **BSR** — entry-weighted block-row ranges (a block row is the atomic
//!   unit: it owns `block_r` output rows);
//! * **BELL / ELL** — one share per worker: cell-balanced runs of the
//!   buckets' slices (ELL's one bucket), plus the row range whose empty rows
//!   it zeroes;
//! * **HYB** — ELL's shares for the ELL portion plus row-aligned entry
//!   ranges for the COO surplus.
//!
//! Construction reads the PR-2 [`Analysis`] artifact when one is supplied
//! (row-nnz histogram → weighted ranges and COO entry boundaries via prefix
//! sums) and otherwise only O(rows) metadata (`row_offsets` differences),
//! never a full matrix traversal — property-tested via
//! [`crate::analysis::passes`]. An execution replays the precomputed parts
//! with no scheduling state at all, in **one pool dispatch** per pass over
//! the matrix — one for every format but the two-pass composites HYB and HDC
//! — with part `p` on the same pool index, hence the same core, every call.
//!
//! A plan of a matrix with [`PARALLEL_CONVERT_THRESHOLD`] entries or more
//! has at least two parts, whatever the worker count, so that threads which
//! are not a pool's can share one execution: [`ExecPlan::share`] opens a
//! [`SharedRun`], and every thread that calls [`ExecPlan::run_claimed`] on
//! it claims parts one at a time and runs them into the run's one output
//! (the serving layer's ingress executors do). HYB and HDC are claimed
//! whole: their second pass adds into rows the first pass wrote.
//!
//! Every format has exactly one ranged body, and there are two entry styles
//! that run it: a plan's parts, or one part covering every unit inline
//! ([`crate::spmv::spmv_serial`], [`crate::spmm::spmm_serial`]). Parts write
//! disjoint rows and a row sums in the same order however the rows are cut,
//! so every planned execution — any worker count, pooled, inline or claimed
//! — is **bitwise identical** to the one-part run of the same stored matrix.
//!
//! A plan is immutable: [`ExecPlan::run`] takes `&self`, so any number of
//! threads can replay one `Arc<ExecPlan>` concurrently (the serving layer
//! hands one to every client). A loop that wants its output buffer reused
//! wraps the call in its own [`Workspace::run`].
//!
//! `core::Oracle` caches an `ExecPlan` alongside each `TuneDecision` under
//! the same structure-hash key, so `tune_and_spmv` / `tune_and_spmm` in an
//! iterative loop pay planning exactly once; `core::OracleService`
//! additionally shares each plan across client threads via `Arc`.

use crate::analysis::Analysis;
use crate::bell::{BellMatrix, BellShare};
use crate::convert::kernels::PARALLEL_CONVERT_THRESHOLD;
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dynamic::DynamicMatrix;
use crate::error::MorpheusError;
use crate::format::FormatId;
use crate::hyb::HybMatrix;
use crate::scalar::Scalar;
use crate::spmv::threaded::{self, Runner};
use crate::{spmm, Op, Result};
use morpheus_parallel::{
    panic_message, row_aligned_partition, static_partition, weighted_partition_with, SharedSlice, ThreadPool,
};
use std::cell::{Cell, UnsafeCell};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Precomputed thread schedule for one matrix structure, built once per
/// (matrix structure, format, thread count).
///
/// See the [module docs](self) for what each format's plan holds. A plan is
/// tied to the matrix it was built from (format, shape, nnz — checked on
/// every execution) but not to a particular [`ThreadPool`]: executing on a
/// pool narrower than the plan has parts just round-robins the parts, still
/// writing disjoint rows.
#[derive(Debug, Clone)]
pub struct ExecPlan<V: Scalar> {
    format: FormatId,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    threads: usize,
    parts: Parts,
    _scalar: std::marker::PhantomData<V>,
}

/// A reusable output buffer for repeated plan executions.
///
/// A `Workspace` is deliberately separate from the plan so that one
/// *shared* plan (`Arc<ExecPlan>`, as handed out by the serving layer's
/// registered-matrix path) can be executed from many threads at once, each
/// thread owning its own workspace: the plan stays immutable, the buffer is
/// the only per-client state. The buffer grows to the largest output it has
/// produced and is never shrunk, so a steady-state request loop allocates
/// exactly once.
#[derive(Debug, Clone, Default)]
pub struct Workspace<V: Scalar> {
    buf: Vec<V>,
}

impl<V: Scalar> Workspace<V> {
    /// An empty workspace; the first execution sizes it.
    pub fn new() -> Self {
        Workspace { buf: Vec::new() }
    }

    /// The result of the most recent execution into this workspace.
    pub fn as_slice(&self) -> &[V] {
        &self.buf
    }

    /// Current buffer capacity in elements (allocation telemetry for
    /// zero-allocation tests).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Sizes the buffer to `len` (zeroing fresh elements) and runs `f` on
    /// it, returning the filled slice — `f` is typically a closure over
    /// [`ExecPlan::run`], or over [`crate::spmv::spmv_serial`].
    pub fn run(&mut self, len: usize, f: impl FnOnce(&mut [V]) -> Result<()>) -> Result<&[V]> {
        self.buf.resize(len, V::ZERO);
        f(&mut self.buf)?;
        Ok(&self.buf)
    }
}

/// Per-format precomputed ranges.
#[derive(Debug, Clone)]
enum Parts {
    /// nnz-weighted row ranges.
    Csr { rows: Vec<Range<usize>> },
    /// Row-aligned entry ranges.
    Coo { entries: Vec<Range<usize>> },
    /// Static DIA row ranges (padded work is uniform).
    Rows { rows: Vec<Range<usize>> },
    /// DIA-portion row ranges + CSR-remainder weighted row ranges.
    Hdc { rows: Vec<Range<usize>>, csr_rows: Vec<Range<usize>> },
    /// Entry-weighted BSR block-row ranges.
    Bsr { brows: Vec<Range<usize>> },
    /// The ELL family: one cell-balanced share of the buckets' slices per
    /// worker, plus (HYB only) row-aligned entry ranges of the COO spill.
    Bell { shares: Vec<BellShare>, spill: Vec<Range<usize>> },
}

/// The ELL family's slice-major storage — BELL's, or the one bucket of ELL
/// and of HYB's ELL part — and HYB's COO spill.
fn bell_parts<V: Scalar>(m: &DynamicMatrix<V>) -> Option<(&BellMatrix<V>, Option<&CooMatrix<V>>)> {
    match m {
        DynamicMatrix::Bell(a) => Some((a, None)),
        DynamicMatrix::Ell(a) => Some((a.bell(), None)),
        DynamicMatrix::Hyb(a) => Some((a.ell().bell(), Some(a.coo()))),
        _ => None,
    }
}

impl<V: Scalar> ExecPlan<V> {
    /// Builds the plan for `m` as it is currently stored, for a pool of
    /// `threads` workers: one part per worker, and at least two from
    /// [`PARALLEL_CONVERT_THRESHOLD`] entries on, so that an execution
    /// outside the pool can be shared ([`ExecPlan::share`]). A one-worker
    /// pool runs the two inline, in order: the same rows, the same sums.
    ///
    /// When `analysis` describes `m` (see [`Analysis::matches`]), COO entry
    /// boundaries are derived from its row histogram — zero additional
    /// matrix traversals. Without one, construction still touches only
    /// O(rows) metadata except for COO-style entry splits, which scan the
    /// sorted row index array once.
    pub fn build(m: &DynamicMatrix<V>, threads: usize, analysis: Option<&Analysis>) -> ExecPlan<V> {
        let threads = threads.max(1);
        let n = if m.nnz() >= PARALLEL_CONVERT_THRESHOLD { threads.max(2) } else { threads };
        let analysis = analysis.filter(|a| a.matches(m));
        let parts = match m {
            DynamicMatrix::Csr(a) => Parts::Csr { rows: csr_row_ranges(a, n) },
            DynamicMatrix::Coo(a) => Parts::Coo { entries: coo_entry_ranges(a, n, analysis) },
            DynamicMatrix::Dia(a) => Parts::Rows { rows: static_partition(a.nrows(), n) },
            DynamicMatrix::Bell(a) => Parts::Bell { shares: a.shares(n), spill: Vec::new() },
            DynamicMatrix::Ell(a) => Parts::Bell { shares: a.bell().shares(n), spill: Vec::new() },
            DynamicMatrix::Hyb(a) => {
                Parts::Bell { shares: a.ell().bell().shares(n), spill: hyb_coo_entry_ranges(a, n, analysis) }
            }
            DynamicMatrix::Hdc(a) => {
                Parts::Hdc { rows: static_partition(a.nrows(), n), csr_rows: csr_row_ranges(a.csr(), n) }
            }
            DynamicMatrix::Bsr(a) => {
                let offs = a.block_row_offsets();
                Parts::Bsr { brows: weighted_partition_with(a.nblockrows(), n, |br| offs[br + 1] - offs[br]) }
            }
        };
        ExecPlan {
            format: m.format_id(),
            nrows: m.nrows(),
            ncols: m.ncols(),
            nnz: m.nnz(),
            threads,
            parts,
            _scalar: std::marker::PhantomData,
        }
    }

    /// Format the plan was built for.
    pub fn format(&self) -> FormatId {
        self.format
    }

    /// Worker count the plan was built for — what a cached plan is matched
    /// on. The parts may outnumber it (see [`ExecPlan::build`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of precomputed ranges in the primary partition: what a pool
    /// dispatch spreads over its indices and, for every format but HYB and
    /// HDC (claimed whole), what a [`SharedRun`] hands out.
    pub fn num_parts(&self) -> usize {
        match &self.parts {
            Parts::Csr { rows } | Parts::Rows { rows } => rows.len(),
            Parts::Coo { entries } => entries.len(),
            Parts::Hdc { rows, .. } => rows.len(),
            Parts::Bsr { brows } => brows.len(),
            Parts::Bell { shares, .. } => shares.len(),
        }
    }

    /// `true` when the plan was built for a matrix indistinguishable from
    /// `m` (same format, shape and non-zero count). Cheap guard; executions
    /// check it and fail with [`MorpheusError::PlanMismatch`] otherwise.
    pub fn matches(&self, m: &DynamicMatrix<V>) -> bool {
        self.format == m.format_id()
            && self.nrows == m.nrows()
            && self.ncols == m.ncols()
            && self.nnz == m.nnz()
    }

    fn check(&self, m: &DynamicMatrix<V>) -> Result<()> {
        if !self.matches(m) {
            return Err(MorpheusError::PlanMismatch {
                expected: format!("{} {}x{} ({} nnz)", self.format, self.nrows, self.ncols, self.nnz),
                got: format!("{} {}x{} ({} nnz)", m.format_id(), m.nrows(), m.ncols(), m.nnz()),
            });
        }
        // Row-range partitions (CSR/DIA/HDC) tile `0..nrows` disjointly by
        // construction, so they are safe for *any* matrix of this shape.
        // Entry ranges (COO, HYB spill) own rows only via the sorted row
        // array they were derived from — a different same-shape/same-nnz
        // matrix could have a range boundary inside one of its rows, giving
        // a `y` element two concurrent writers. Re-validate the boundaries
        // against the matrix actually being executed (O(parts)), since this
        // is a safe public API.
        let aligned = match (m, &self.parts) {
            (DynamicMatrix::Coo(a), Parts::Coo { entries }) => {
                entries.last().is_none_or(|r| r.end == a.nnz())
                    && boundaries_are_row_aligned(entries, a.row_indices())
            }
            // Block dims are a per-matrix parameter `matches` cannot see:
            // the same shape/nnz stored as 2x2 and 8x8 BSR have different
            // block-row counts, so verify the ranges tile *this* matrix's
            // block rows before the unsafe bodies index by them.
            (DynamicMatrix::Bsr(a), Parts::Bsr { brows }) => {
                let mut end = 0usize;
                brows.iter().all(|r| {
                    let ok = r.start == end && r.end >= r.start;
                    end = r.end;
                    ok
                }) && end == a.nblockrows()
            }
            // Same for the bucket ladder: the segments must tile this
            // matrix's slices before the walker takes their word for what
            // each share owns. (The shares' row ranges tile `0..nrows`, and
            // which of those rows are empty is read from the executing
            // matrix, so they need no check.) HYB's spill size is not
            // covered by `matches` either (it splits the same total nnz
            // differently per split width), so check its coverage too.
            (m, Parts::Bell { shares, spill }) => bell_parts(m).is_some_and(|(bell, coo)| {
                let covered = spill.last().map_or(0, |r| r.end) == coo.map_or(0, CooMatrix::nnz);
                bell.tiled_by(shares)
                    && covered
                    && coo.is_none_or(|coo| boundaries_are_row_aligned(spill, coo.row_indices()))
            }),
            _ => true,
        };
        if aligned {
            Ok(())
        } else {
            Err(MorpheusError::PlanMismatch {
                expected: "entry ranges aligned to this matrix's row boundaries".into(),
                got: "a same-shape matrix whose rows the plan's entry ranges would split".into(),
            })
        }
    }

    /// Executes `op` — `y = A x`, or `Y = A X` on row-major blocks of `k`
    /// right-hand sides — over the plan's precomputed parts: in one dispatch
    /// per pass across `pool` (part `p` on index `p % width`), or with `None`
    /// inline in part order on the calling thread. The same bodies run
    /// either way and parts write disjoint rows, so the two are **bitwise
    /// identical**; the serving layer's busy-pool fallback is the `None`
    /// form. It is [`ExecPlan::run_claimed`] with every part claimed by the
    /// pool or by the caller.
    ///
    /// [`crate::spmv::spmv_serial`] and [`crate::spmm::spmm_serial`] run the
    /// same bodies over one part covering every unit, so SpMV and SpMM here
    /// are bitwise identical to them on the same stored matrix.
    ///
    /// The numeric policy behind "bitwise": it holds for finite `x`. Formats
    /// that multiply padding through add `0 * x[j]` terms, which are
    /// exactly nothing only while `x[j]` is finite. BELL's pads repeat the
    /// row's own last column, so a non-finite `x[j]` never reaches a row
    /// that does not store column `j`; the one divergence left is a
    /// *padded* row whose own last column holds `±Inf` in `x`, which reads
    /// NaN where the CSR kernel reads `±Inf`.
    pub fn run(
        &self,
        m: &DynamicMatrix<V>,
        op: Op,
        x: &[V],
        y: &mut [V],
        pool: Option<&ThreadPool>,
    ) -> Result<()> {
        self.check(m)?;
        check_op_shapes(m, op, x, y.len())?;
        self.run_parts(m, op, x, &SharedSlice::new(y), pool.map_or(Runner::Inline, Runner::Pool));
        Ok(())
    }

    /// Opens an execution of `op` on `m` that any number of threads share:
    /// each calls [`ExecPlan::run_claimed`] with the same plan and matrix,
    /// and the run's parts — this plan's, or the whole plan as one part for
    /// HYB, HDC and a plan of one part — are handed out one at a time, each
    /// to one thread, into the one output the run owns. Nothing runs here.
    pub fn share(&self, m: &DynamicMatrix<V>, op: Op) -> Result<SharedRun<V>> {
        self.check(m)?;
        let whole = matches!(self.format, FormatId::Hyb | FormatId::Hdc) || self.num_parts() < 2;
        let mut buf = vec![V::ZERO; m.nrows() * op.rhs_count()];
        let out = SharedSlice::new(&mut buf);
        Ok(SharedRun {
            // Moving the vector does not move its elements: `out` stays valid.
            buf: UnsafeCell::new(buf),
            out,
            bound: (self as *const Self as usize, m as *const DynamicMatrix<V> as usize, op),
            whole,
            claims: Claims {
                parts: if whole { 1 } else { self.num_parts() },
                next: AtomicUsize::new(0),
                done: AtomicUsize::new(0),
                abandoned: AtomicBool::new(false),
                why: Mutex::new(None),
            },
            settled: AtomicBool::new(false),
        })
    }

    /// Runs, on the calling thread, the parts of `run` that it claims, one
    /// at a time until none is left, and returns how many it ran. `run` must
    /// have been opened by [`ExecPlan::share`] on this plan, `m` and `op`
    /// (otherwise [`MorpheusError::PlanMismatch`]); `x` is read by every
    /// part, so every caller passes the same. A part that panics is caught
    /// here and [abandons](SharedRun::abandon) the run with its message:
    /// the parts nobody claimed never start, the ones other threads run
    /// finish, and the run settles as [`Settled::Abandoned`].
    ///
    /// Parts write disjoint rows and each part is handed out once, so the
    /// run's output is bitwise [`ExecPlan::run`]'s.
    pub fn run_claimed(&self, m: &DynamicMatrix<V>, op: Op, x: &[V], run: &SharedRun<V>) -> Result<usize> {
        if run.bound != (self as *const Self as usize, m as *const DynamicMatrix<V> as usize, op) {
            return Err(MorpheusError::PlanMismatch {
                expected: "the plan, matrix and op the shared run was opened on".into(),
                got: "another plan, matrix or op".into(),
            });
        }
        self.check(m)?;
        check_op_shapes(m, op, x, run.out.len())?;
        let claimer = Claimer { claims: &run.claims, ran: Cell::new(0) };
        if run.whole {
            claimer.run(1, |_| self.run_parts(m, op, x, &run.out, Runner::Inline));
        } else {
            self.run_parts(m, op, x, &run.out, Runner::Claims(&claimer));
        }
        Ok(claimer.ran.get())
    }

    /// Runs the parts of `op` that `runner` hands out into `out` — every
    /// part across a pool or inline, or the ones the calling thread claims.
    /// This is the only function that matches the plan's parts to the kernel
    /// bodies; the one-part entries are the ranged kernels' only other
    /// callers. The caller checked the plan against `m` and the shapes, and
    /// any thread writing `out` at the same time claims from the same run
    /// (a two-pass plan never runs on claims).
    fn run_parts(&self, m: &DynamicMatrix<V>, op: Op, x: &[V], out: &SharedSlice<V>, runner: Runner<'_>) {
        // No one-worker serial shortcut: the ranged kernels execute their
        // ranges inline without a pool (or on a one-worker pool).
        match (m, &self.parts, op) {
            (DynamicMatrix::Csr(a), Parts::Csr { rows }, Op::Spmv) => {
                threaded::spmv_csr_ranges(a, x, out, runner, rows)
            }
            (DynamicMatrix::Csr(a), Parts::Csr { rows }, Op::Spmm { k }) => {
                spmm::spmm_csr::<V, false>(a, x, out, k, runner, rows)
            }
            (DynamicMatrix::Coo(a), Parts::Coo { entries }, Op::Spmv) => {
                threaded::spmv_coo_ranges(a, x, out, runner, entries)
            }
            (DynamicMatrix::Coo(a), Parts::Coo { entries }, Op::Spmm { k }) => {
                spmm::spmm_coo::<V, false>(a, x, out, k, runner, entries)
            }
            (DynamicMatrix::Dia(a), Parts::Rows { rows }, Op::Spmv) => {
                threaded::spmv_dia_ranges(a, x, out, runner, rows)
            }
            (DynamicMatrix::Dia(a), Parts::Rows { rows }, Op::Spmm { k }) => {
                spmm::spmm_dia(a, x, out, k, runner, rows)
            }
            (DynamicMatrix::Hdc(a), Parts::Hdc { rows, csr_rows }, Op::Spmv) => {
                threaded::spmv_dia_ranges(a.dia(), x, out, runner, rows);
                threaded::spmv_csr_acc_ranges(a.csr(), x, out, runner, csr_rows);
            }
            (DynamicMatrix::Hdc(a), Parts::Hdc { rows, csr_rows }, Op::Spmm { k }) => {
                spmm::spmm_dia(a.dia(), x, out, k, runner, rows);
                spmm::spmm_csr::<V, true>(a.csr(), x, out, k, runner, csr_rows);
            }
            (DynamicMatrix::Bsr(a), Parts::Bsr { brows }, Op::Spmv) => {
                threaded::spmv_bsr_ranges(a, x, out, runner, brows)
            }
            (DynamicMatrix::Bsr(a), Parts::Bsr { brows }, Op::Spmm { k }) => {
                spmm::spmm_bsr(a, x, out, k, runner, brows)
            }
            // The ELL family: the buckets' slices, then HYB's spill on top.
            (m, Parts::Bell { shares, spill }, op) => {
                let (bell, coo) = bell_parts(m).expect("a BELL, ELL or HYB matrix: `check` saw the format");
                // SAFETY (both): `check` saw the shares tile `bell`'s slices.
                match op {
                    Op::Spmv => unsafe { threaded::spmv_bell_shares(bell, x, out, runner, Some(shares)) },
                    Op::Spmm { k } => unsafe { spmm::spmm_bell(bell, x, out, k, runner, Some(shares)) },
                }
                match (coo, op) {
                    (None, _) => {}
                    (Some(coo), Op::Spmv) => threaded::spmv_coo_acc_ranges(coo, x, out, runner, spill),
                    (Some(coo), Op::Spmm { k }) => spmm::spmm_coo::<V, true>(coo, x, out, k, runner, spill),
                }
            }
            _ => unreachable!("plan/matrix format agreement checked above"),
        }
    }

    /// [`ExecPlan::run`] of `y = A x` across `pool`.
    pub fn spmv(&self, m: &DynamicMatrix<V>, x: &[V], y: &mut [V], pool: &ThreadPool) -> Result<()> {
        self.run(m, Op::Spmv, x, y, Some(pool))
    }

    /// [`ExecPlan::run`] of `y = A x` on the calling thread.
    pub fn spmv_unpooled(&self, m: &DynamicMatrix<V>, x: &[V], y: &mut [V]) -> Result<()> {
        self.run(m, Op::Spmv, x, y, None)
    }

    /// [`ExecPlan::run`] of `Y = A X` (`k` right-hand sides) across `pool`.
    pub fn spmm(
        &self,
        m: &DynamicMatrix<V>,
        x: &[V],
        y: &mut [V],
        k: usize,
        pool: &ThreadPool,
    ) -> Result<()> {
        self.run(m, Op::Spmm { k }, x, y, Some(pool))
    }
}

/// Checks `x` and an output of `y_len` elements against `m` and `op`.
fn check_op_shapes<V: Scalar>(m: &DynamicMatrix<V>, op: Op, x: &[V], y_len: usize) -> Result<()> {
    match op {
        Op::Spmv => crate::spmv::check_shapes(m, x, y_len),
        Op::Spmm { k } => spmm::check_spmm_shapes(m, x, y_len, k),
    }
}

/// One execution of a plan whose parts any number of threads claim — see
/// [`ExecPlan::share`] — and the output they write. Each part is handed out
/// once ([`ExecPlan::run_claimed`]); once every part has finished, exactly
/// one caller of [`SharedRun::settle`] receives the output.
pub struct SharedRun<V: Scalar> {
    /// The output, written through `out` by the parts and moved out by
    /// `settle`.
    buf: UnsafeCell<Vec<V>>,
    out: SharedSlice<V>,
    /// The addresses of the plan and matrix the run was opened on, and the
    /// op: every claimer runs the same partition of the same arrays.
    bound: (usize, usize, Op),
    /// Claimed as one part that runs the whole plan inline.
    whole: bool,
    claims: Claims,
    settled: AtomicBool,
}

// SAFETY: `buf` is the only field that is not `Sync` (`out` is a
// `SharedSlice`, the rest atomics, a mutex and plain values). Threads write
// it only through `out`, in the rows of the parts they claimed — each part
// is claimed once, and a bound run's parts are one plan's disjoint
// partition, checked against the matrix each claimer runs — and `settle`
// moves it out once, after every part has finished and none is left to
// claim. `V: Scalar` is `Send + Sync`.
unsafe impl<V: Scalar> Sync for SharedRun<V> {}

impl<V: Scalar> std::fmt::Debug for SharedRun<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedRun")
            .field("parts", &self.claims.parts)
            .field("unclaimed", &self.unclaimed())
            .field("abandoned", &self.claims.abandoned.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// What [`SharedRun::settle`] hands its one caller.
#[derive(Debug, Clone, PartialEq)]
pub enum Settled<V> {
    /// Every part ran: the output.
    Output(Vec<V>),
    /// The run was [abandoned](SharedRun::abandon) — a part panicked, or a
    /// claimer gave up — for the reason given: its output is incomplete and
    /// was dropped.
    Abandoned(String),
}

impl<V: Scalar> SharedRun<V> {
    /// Parts the run hands out.
    pub fn parts(&self) -> usize {
        self.claims.parts
    }

    /// Parts no thread has claimed yet.
    pub fn unclaimed(&self) -> usize {
        self.claims.parts.saturating_sub(self.claims.next.load(Ordering::Relaxed))
    }

    /// Claims every part not claimed yet without running it, and marks the
    /// run failed for `why` (the first reason given is kept): what a part
    /// that panics does, and what a thread that cannot run its claims does.
    /// The parts other threads are running finish; then the run settles as
    /// [`Settled::Abandoned`].
    pub fn abandon(&self, why: String) {
        self.claims.abandon(why);
    }

    /// `Some` for exactly one caller, once every part has finished: the
    /// output, or [`Settled::Abandoned`]. `None` before that, and for every
    /// other caller. Each thread that ran parts calls this after its
    /// [`ExecPlan::run_claimed`] (or its [`SharedRun::abandon`]); the one
    /// that finished the last part is sure to get `Some`.
    pub fn settle(&self) -> Option<Settled<V>> {
        if self.claims.done.load(Ordering::Acquire) < self.claims.parts
            || self.settled.swap(true, Ordering::AcqRel)
        {
            return None;
        }
        if self.claims.abandoned.load(Ordering::Acquire) {
            let why = self.claims.why.lock().unwrap_or_else(PoisonError::into_inner).take();
            return Some(Settled::Abandoned(why.unwrap_or_default()));
        }
        // SAFETY: every part has finished (the acquire load above saw each
        // part's release count), none is left to claim, and `settled` lets
        // one caller through: no thread writes the buffer any more.
        Some(Settled::Output(std::mem::take(unsafe { &mut *self.buf.get() })))
    }
}

/// Which parts of a [`SharedRun`] were handed out, how many finished, and
/// whether — and why — the run was abandoned.
#[derive(Debug)]
pub(crate) struct Claims {
    parts: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    abandoned: AtomicBool,
    why: Mutex<Option<String>>,
}

impl Claims {
    /// See [`SharedRun::abandon`]. The reason and the flag are stored before
    /// the parts are counted, so whoever settles the run finds both.
    fn abandon(&self, why: String) {
        self.why.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(why);
        self.abandoned.store(true, Ordering::Release);
        let before = self.next.fetch_max(self.parts, Ordering::AcqRel);
        if before < self.parts {
            self.done.fetch_add(self.parts - before, Ordering::AcqRel);
        }
    }
}

/// One thread's claims on a [`SharedRun`] within one
/// [`ExecPlan::run_claimed`] call.
pub(crate) struct Claimer<'a> {
    claims: &'a Claims,
    ran: Cell<usize>,
}

impl Claimer<'_> {
    /// Runs `body(p)` for each part `p` of `n` this thread claims, until none
    /// is left — or until one panics: that abandons the run with the panic's
    /// message, and this thread claims no more.
    pub(crate) fn run(&self, n: usize, body: impl Fn(usize)) {
        debug_assert_eq!(n, self.claims.parts, "a shared run claims the plan's primary parts");
        loop {
            let p = self.claims.next.fetch_add(1, Ordering::Relaxed);
            if p >= self.claims.parts {
                return;
            }
            let ran = catch_unwind(AssertUnwindSafe(|| body(p)));
            if let Err(payload) = &ran {
                self.claims.abandon(panic_message(&**payload));
            } else {
                self.ran.set(self.ran.get() + 1);
            }
            // Counted last: whoever sees every part finished sees why too.
            self.claims.done.fetch_add(1, Ordering::AcqRel);
            if ran.is_err() {
                return;
            }
        }
    }
}

/// nnz-weighted row ranges straight from the CSR offsets — O(rows), no
/// weights vector materialised, no matrix traversal.
fn csr_row_ranges<V: Scalar>(a: &CsrMatrix<V>, threads: usize) -> Vec<Range<usize>> {
    let offs = a.row_offsets();
    weighted_partition_with(a.nrows(), threads, |r| offs[r + 1] - offs[r])
}

/// Entry ranges for sorted row-major entry storage, balanced by entry count
/// with boundaries at row ends: weighted row ranges from the per-row counts,
/// mapped to entry offsets by prefix summation. Empty ranges are dropped
/// (mirroring [`row_aligned_partition`]'s no-empty-chunk contract).
fn entry_ranges_from_counts(
    n_rows: usize,
    threads: usize,
    count_of: impl Fn(usize) -> usize,
) -> Vec<Range<usize>> {
    let row_ranges = weighted_partition_with(n_rows, threads, &count_of);
    let mut out = Vec::with_capacity(row_ranges.len());
    let mut offset = 0usize;
    for rr in row_ranges {
        let len: usize = rr.map(&count_of).sum();
        if len > 0 {
            out.push(offset..offset + len);
        }
        offset += len;
    }
    out
}

/// `true` when every interior range boundary falls on a row change of the
/// sorted row array — the invariant that gives each output row exactly one
/// writer. O(parts): the soundness of the histogram-derived fast path must
/// not rest on a caller-supplied `Analysis` being honest, since its
/// `row_hist` is a public field and the planned kernels race (UB) if a
/// range splits a row.
fn boundaries_are_row_aligned(ranges: &[Range<usize>], rows: &[usize]) -> bool {
    ranges.iter().all(|r| r.start == 0 || r.start >= rows.len() || rows[r.start] != rows[r.start - 1])
}

/// Row-aligned COO entry ranges. With a matching [`Analysis`] whose
/// histogram counts every stored entry (no explicit-zero elision), the
/// boundaries come from histogram prefix sums — zero matrix traversals —
/// and are then validated against the actual row array in O(parts);
/// otherwise (or if a doctored histogram misplaces a boundary) the sorted
/// row array is scanned once.
fn coo_entry_ranges<V: Scalar>(
    a: &CooMatrix<V>,
    threads: usize,
    analysis: Option<&Analysis>,
) -> Vec<Range<usize>> {
    if let Some(an) = analysis {
        // Trust the histogram only if it covers exactly the stored entries
        // (right row count, entries summing to nnz — a sum short of nnz
        // would silently drop entries, one beyond it would index past the
        // arrays) *and* its prefix boundaries land on real row changes.
        let sum: usize = an.row_hist.iter().map(|&c| c as usize).sum();
        if an.row_hist.len() == a.nrows() && sum == a.nnz() {
            let ranges = entry_ranges_from_counts(an.row_hist.len(), threads, |r| an.row_hist[r] as usize);
            if boundaries_are_row_aligned(&ranges, a.row_indices()) {
                return ranges;
            }
        }
    }
    row_aligned_partition(a.row_indices(), threads)
}

/// Row-aligned entry ranges for a HYB's COO surplus. The surplus of row `r`
/// is everything beyond the ELL width, so with a matching whole-matrix
/// [`Analysis`] the per-row surplus is `row_hist[r] - width` — again no
/// traversal. The derivation is verified against the actual surplus size
/// and falls back to scanning the surplus row array if it disagrees (e.g.
/// a hand-built HYB that does not fill ELL first).
fn hyb_coo_entry_ranges<V: Scalar>(
    a: &HybMatrix<V>,
    threads: usize,
    analysis: Option<&Analysis>,
) -> Vec<Range<usize>> {
    let surplus = a.coo();
    if let Some(an) = analysis {
        if an.row_hist.len() == a.nrows() && an.stats.nnz == a.nnz() {
            let width = a.ell().width();
            let spill = |r: usize| (an.row_hist[r] as usize).saturating_sub(width);
            let total: usize = (0..an.row_hist.len()).map(spill).sum();
            if total == surplus.nnz() {
                let ranges = entry_ranges_from_counts(an.row_hist.len(), threads, spill);
                if boundaries_are_row_aligned(&ranges, surplus.row_indices()) {
                    return ranges;
                }
            }
        }
    }
    row_aligned_partition(surplus.row_indices(), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::ConvertOptions;
    use crate::format::ALL_FORMATS;
    use crate::spmv::spmv_serial;
    use crate::test_util::random_coo;

    fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn analysis_and_scan_built_plans_agree_on_entry_boundaries() {
        // COO + HYB are where the Analysis-derived prefix sums replace a
        // scan of the entries; both derivations must produce row-aligned
        // chunks covering everything (they need not be identical chunks,
        // but here both balance by entry count so they are).
        let opts = ConvertOptions::default();
        let base = DynamicMatrix::from(random_coo::<f64>(300, 300, 4000, 11));
        for fmt in [FormatId::Coo, FormatId::Hyb] {
            let m = base.to_format(fmt, &opts).unwrap();
            let analysis = Analysis::of(&m, opts.true_diag_alpha);
            let with = ExecPlan::<f64>::build(&m, 4, Some(&analysis));
            let without = ExecPlan::<f64>::build(&m, 4, None);
            let ranges = |p: &ExecPlan<f64>| match &p.parts {
                Parts::Coo { entries } => entries.clone(),
                Parts::Bell { spill, .. } => spill.clone(),
                _ => unreachable!(),
            };
            let (rw, ro) = (ranges(&with), ranges(&without));
            let covered: usize = rw.iter().map(|r| r.len()).sum();
            let covered_scan: usize = ro.iter().map(|r| r.len()).sum();
            assert_eq!(covered, covered_scan, "{fmt}: both derivations must cover every entry");
        }
    }

    #[test]
    fn plan_rejects_foreign_matrices() {
        let opts = ConvertOptions::default();
        let m = DynamicMatrix::from(random_coo::<f64>(40, 40, 200, 1));
        let plan = ExecPlan::build(&m, 2, None);
        let other_fmt = m.to_format(FormatId::Csr, &opts).unwrap();
        let other_shape = DynamicMatrix::from(random_coo::<f64>(41, 40, 200, 1));
        let pool = ThreadPool::new(2);
        let x = vec![1.0; 40];
        let mut y = vec![0.0; 40];
        assert!(matches!(plan.spmv(&other_fmt, &x, &mut y, &pool), Err(MorpheusError::PlanMismatch { .. })));
        let mut y41 = vec![0.0; 41];
        assert!(plan.spmv(&other_shape, &x, &mut y41, &pool).is_err());
        assert!(plan.spmv(&m, &x, &mut y, &pool).is_ok());
    }

    #[test]
    fn same_shape_matrix_with_different_row_layout_is_rejected() {
        // A and B agree on format, shape and nnz — `matches` cannot tell
        // them apart — but B's rows are distributed so that A's entry
        // ranges would split B's row 1, handing y[1] two concurrent
        // writers. Execution must refuse instead of racing.
        let a = DynamicMatrix::from(
            crate::CooMatrix::from_triplets(2, 4, &[0, 0, 1, 1], &[0, 1, 0, 1], &[1.0f64; 4]).unwrap(),
        );
        let b = DynamicMatrix::from(
            crate::CooMatrix::from_triplets(2, 4, &[0, 1, 1, 1], &[0, 0, 1, 2], &[1.0f64; 4]).unwrap(),
        );
        let plan = ExecPlan::build(&a, 2, None);
        assert!(plan.matches(&b), "the cheap guard cannot distinguish A from B");
        let pool = ThreadPool::new(2);
        let x = vec![1.0f64; 4];
        let mut y = vec![0.0f64; 2];
        assert!(matches!(plan.spmv(&b, &x, &mut y, &pool), Err(MorpheusError::PlanMismatch { .. })));
        let xk = vec![1.0f64; 8];
        let mut yk = vec![0.0f64; 4];
        assert!(matches!(plan.spmm(&b, &xk, &mut yk, 2, &pool), Err(MorpheusError::PlanMismatch { .. })));
        // A itself still executes.
        assert!(plan.spmv(&a, &x, &mut y, &pool).is_ok());
    }

    #[test]
    fn plan_construction_adds_zero_matrix_traversals() {
        let opts = ConvertOptions::default();
        let base = DynamicMatrix::from(random_coo::<f64>(200, 200, 3000, 9));
        for &fmt in &ALL_FORMATS {
            let Ok(m) = base.to_format(fmt, &opts) else { continue };
            let analysis = Analysis::of(&m, opts.true_diag_alpha);
            crate::analysis::passes::reset();
            let plan = ExecPlan::build(&m, 8, Some(&analysis));
            assert_eq!(
                crate::analysis::passes::count(),
                0,
                "{fmt}: plan construction must not traverse the matrix"
            );
            assert_eq!(plan.format(), fmt);
            assert!(plan.num_parts() >= 1);
        }
    }

    #[test]
    fn doctored_histogram_cannot_split_a_row() {
        // rows [0,0,0,1]: an adversarial histogram [2,2] sums to the right
        // nnz but would place an entry boundary inside row 0 — which would
        // give y[0] two concurrent writers. Construction must detect the
        // misalignment and fall back to scanning the real row array.
        let m = DynamicMatrix::from(
            crate::CooMatrix::from_triplets(2, 4, &[0, 0, 0, 1], &[0, 1, 2, 3], &[1.0f64; 4]).unwrap(),
        );
        // Misaligned split, under-counting, over-counting and wrong-length
        // histograms must all be rejected in favour of the real boundaries.
        for hist in [vec![2, 2], vec![3, 0], vec![3, 2], vec![4]] {
            let mut an = Analysis::of(&m, 0.2);
            an.row_hist = hist.clone();
            assert!(an.matches(&m), "the doctored artifact still passes the cheap guard");
            let plan = ExecPlan::build(&m, 2, Some(&an));
            let Parts::Coo { entries } = &plan.parts else { panic!("COO plan expected") };
            assert_eq!(
                entries.as_slice(),
                &[0..3, 3..4],
                "hist {hist:?}: must fall back to the true row boundaries"
            );
            let pool = ThreadPool::new(2);
            let x = vec![1.0f64; 4];
            let mut y = vec![f64::NAN; 2];
            plan.spmv(&m, &x, &mut y, &pool).unwrap();
            assert_eq!(y, vec![3.0, 1.0]);
        }
    }

    #[test]
    fn shared_plan_executes_from_many_threads_with_private_workspaces() {
        // The serving-layer shape: one Arc'd plan + matrix, N client
        // threads, each with its own Workspace. Every client must see the
        // serial result bitwise, and a client's second request must not
        // reallocate its workspace.
        let pool = ThreadPool::new(2);
        let m = std::sync::Arc::new(DynamicMatrix::from(random_coo::<f64>(90, 80, 900, 21)));
        let plan = std::sync::Arc::new(ExecPlan::build(&m, pool.num_threads(), None));
        let x: Vec<f64> = (0..80).map(|i| (i as f64 * 0.31).cos()).collect();
        let mut y_ref = vec![0.0; 90];
        spmv_serial(&*m, &x, &mut y_ref).unwrap();

        std::thread::scope(|s| {
            for _ in 0..4 {
                let (m, plan, x, y_ref) = (m.clone(), plan.clone(), x.clone(), y_ref.clone());
                let pool = &pool;
                s.spawn(move || {
                    let mut ws = Workspace::new();
                    for round in 0..3 {
                        let before = ws.capacity();
                        let y = ws.run(90, |y| plan.spmv(&m, &x, y, pool)).unwrap();
                        assert!(bitwise_eq(y, &y_ref), "round {round}");
                        if round > 0 {
                            assert_eq!(ws.capacity(), before, "steady state must not reallocate");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn plans_from_the_threshold_have_two_parts_whatever_the_worker_count() {
        let opts = ConvertOptions::default();
        let small = DynamicMatrix::from(random_coo::<f64>(900, 900, PARALLEL_CONVERT_THRESHOLD - 1, 3));
        let large = DynamicMatrix::from(random_coo::<f64>(900, 900, 2 * PARALLEL_CONVERT_THRESHOLD, 3));
        for &fmt in &ALL_FORMATS {
            let (Ok(s), Ok(l)) = (small.to_format(fmt, &opts), large.to_format(fmt, &opts)) else { continue };
            if s.nnz() < PARALLEL_CONVERT_THRESHOLD {
                assert_eq!(ExecPlan::build(&s, 1, None).num_parts(), 1, "{fmt} below the threshold");
            }
            let plan = ExecPlan::build(&l, 1, None);
            assert_eq!((plan.threads(), plan.num_parts()), (1, 2), "{fmt} from the threshold");
            assert_eq!(ExecPlan::build(&l, 3, None).num_parts(), 3, "{fmt} on three workers");
        }
    }

    /// Claimed by two threads, by one, or one part abandoned: every run
    /// settles once, and a run whose parts all ran is bitwise `run`'s output
    /// — split for the one-pass formats, whole for HYB and HDC.
    #[test]
    fn a_shared_run_is_bitwise_the_plan_and_settles_once() {
        let opts = ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() };
        // Three diagonals and a sparse one: every format converts, and HDC
        // keeps a remainder.
        let n = 7000usize;
        let (mut rows, mut cols) = (Vec::new(), Vec::new());
        for i in 0..n {
            let scattered = (i % 50 == 0).then_some(i + 500);
            for j in [i.wrapping_sub(1), i, i + 1].into_iter().chain(scattered).filter(|&j| j < n) {
                rows.push(i);
                cols.push(j);
            }
        }
        let vals: Vec<f64> = (0..rows.len()).map(|e| 0.5 + (e % 23) as f64 * 0.25).collect();
        let base = DynamicMatrix::from(crate::CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap());
        assert!(base.nnz() >= PARALLEL_CONVERT_THRESHOLD);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        for &fmt in &ALL_FORMATS {
            let m = base.to_format(fmt, &opts).unwrap();
            let plan = ExecPlan::build(&m, 1, None);
            let mut expect = vec![f64::NAN; m.nrows()];
            plan.spmv_unpooled(&m, &x, &mut expect).unwrap();
            let whole = matches!(fmt, FormatId::Hyb | FormatId::Hdc);
            for claimers in [1usize, 2] {
                let run = plan.share(&m, Op::Spmv).unwrap();
                assert_eq!(run.parts(), if whole { 1 } else { 2 }, "{fmt}");
                let ran: usize = std::thread::scope(|s| {
                    let workers: Vec<_> = (0..claimers)
                        .map(|_| s.spawn(|| plan.run_claimed(&m, Op::Spmv, &x, &run).unwrap()))
                        .collect();
                    workers.into_iter().map(|w| w.join().unwrap()).sum()
                });
                assert_eq!((ran, run.unclaimed()), (run.parts(), 0), "{fmt}: each part runs once");
                let Some(Settled::Output(y)) = run.settle() else { panic!("{fmt}: the run settles") };
                assert!(bitwise_eq(&y, &expect), "{fmt} with {claimers} claimers");
                assert!(run.settle().is_none(), "{fmt}: a run settles once");
            }
            // A claimer that gave up abandons the rest.
            let run = plan.share(&m, Op::Spmv).unwrap();
            run.abandon("gave up".into());
            assert_eq!(plan.run_claimed(&m, Op::Spmv, &x, &run).unwrap(), 0, "{fmt}: nothing left to claim");
            assert_eq!(run.settle(), Some(Settled::Abandoned("gave up".into())), "{fmt}");
            assert!(run.settle().is_none());
        }
    }

    #[test]
    fn a_panicking_part_abandons_the_run_with_its_message_and_still_settles() {
        let m = DynamicMatrix::from(random_coo::<f64>(2000, 2000, 2 * PARALLEL_CONVERT_THRESHOLD, 4));
        let plan = ExecPlan::build(&m, 1, None);
        let run = plan.share(&m, Op::Spmv).unwrap();
        assert_eq!(run.parts(), 2);
        let claimer = Claimer { claims: &run.claims, ran: Cell::new(0) };
        claimer.run(2, |p| assert!(p != 0, "part {p} trips"));
        // The panicking part was the first claimed: the second never starts.
        assert_eq!((claimer.ran.get(), run.unclaimed()), (0, 0));
        assert_eq!(run.settle(), Some(Settled::Abandoned("part 0 trips".into())));
        assert!(run.settle().is_none());
    }

    #[test]
    fn a_shared_run_refuses_another_plan_or_matrix() {
        let m = DynamicMatrix::from(random_coo::<f64>(2000, 2000, 2 * PARALLEL_CONVERT_THRESHOLD, 2));
        let copy = m.clone();
        let plan = ExecPlan::build(&m, 1, None);
        let other = ExecPlan::build(&m, 1, None);
        let run = plan.share(&m, Op::Spmv).unwrap();
        let x = vec![1.0; 2000];
        for (p, mm) in [(&other, &m), (&plan, &copy)] {
            assert!(matches!(p.run_claimed(mm, Op::Spmv, &x, &run), Err(MorpheusError::PlanMismatch { .. })));
        }
        assert!(plan.run_claimed(&m, Op::Spmm { k: 1 }, &x, &run).is_err(), "another op");
        assert!(plan.run_claimed(&m, Op::Spmv, &x[1..], &run).is_err(), "a short x");
        assert_eq!(run.unclaimed(), 2, "a refused call claims nothing");
        assert_eq!(plan.run_claimed(&m, Op::Spmv, &x, &run).unwrap(), 2);
        assert!(matches!(run.settle(), Some(Settled::Output(_))));
    }

    #[test]
    fn degenerate_shapes_plan_and_execute() {
        let pool = ThreadPool::new(4);
        for (nr, nc) in [(0usize, 0usize), (5, 5), (0, 4), (4, 0), (1, 6)] {
            let m = DynamicMatrix::from(CooMatrix::<f64>::new(nr, nc));
            let plan = ExecPlan::build(&m, pool.num_threads(), None);
            let x = vec![1.0; nc];
            let mut y = vec![f64::NAN; nr];
            plan.spmv(&m, &x, &mut y, &pool).unwrap();
            assert!(y.iter().all(|&v| v == 0.0), "{nr}x{nc}");
        }
    }
}
