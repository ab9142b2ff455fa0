//! The runtime-switchable `DynamicMatrix` (§II-C).

use crate::analysis::Analysis;
use crate::bell::BellMatrix;
use crate::bsr::BsrMatrix;
use crate::convert::{
    self, bell_to_coo, bsr_to_coo, csr_to_coo, dia_to_coo, ell_to_coo, hdc_to_coo, hyb_to_coo,
    ConvertOptions, ConvertOutcome,
};
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::dia::DiaMatrix;
use crate::ell::EllMatrix;
use crate::format::FormatId;
use crate::hdc::HdcMatrix;
use crate::hyb::HybMatrix;
use crate::scalar::Scalar;
use crate::Result;
use morpheus_parallel::ThreadPool;

/// A sparse matrix whose storage format is chosen — and changed — at
/// runtime.
///
/// This is the Rust analogue of Morpheus' `DynamicMatrix`: "a single dynamic
/// 'abstract' format" providing "a transparent mechanism that can
/// efficiently switch to the different formats" (§II-C). The Oracle tuners
/// return a [`FormatId`]; [`DynamicMatrix::convert_to`] performs the switch
/// in place.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicMatrix<V> {
    /// Coordinate storage.
    Coo(CooMatrix<V>),
    /// Compressed sparse row storage.
    Csr(CsrMatrix<V>),
    /// Diagonal storage.
    Dia(DiaMatrix<V>),
    /// ELLPACK storage.
    Ell(EllMatrix<V>),
    /// Hybrid ELL/COO storage.
    Hyb(HybMatrix<V>),
    /// Hybrid DIA/CSR storage.
    Hdc(HdcMatrix<V>),
    /// Register-blocked CSR storage.
    Bsr(BsrMatrix<V>),
    /// Bucketed ELLPACK storage.
    Bell(BellMatrix<V>),
}

impl<V: Scalar> DynamicMatrix<V> {
    /// The active format.
    pub fn format_id(&self) -> FormatId {
        match self {
            DynamicMatrix::Coo(_) => FormatId::Coo,
            DynamicMatrix::Csr(_) => FormatId::Csr,
            DynamicMatrix::Dia(_) => FormatId::Dia,
            DynamicMatrix::Ell(_) => FormatId::Ell,
            DynamicMatrix::Hyb(_) => FormatId::Hyb,
            DynamicMatrix::Hdc(_) => FormatId::Hdc,
            DynamicMatrix::Bsr(_) => FormatId::Bsr,
            DynamicMatrix::Bell(_) => FormatId::Bell,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        match self {
            DynamicMatrix::Coo(m) => m.nrows(),
            DynamicMatrix::Csr(m) => m.nrows(),
            DynamicMatrix::Dia(m) => m.nrows(),
            DynamicMatrix::Ell(m) => m.nrows(),
            DynamicMatrix::Hyb(m) => m.nrows(),
            DynamicMatrix::Hdc(m) => m.nrows(),
            DynamicMatrix::Bsr(m) => m.nrows(),
            DynamicMatrix::Bell(m) => m.nrows(),
        }
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        match self {
            DynamicMatrix::Coo(m) => m.ncols(),
            DynamicMatrix::Csr(m) => m.ncols(),
            DynamicMatrix::Dia(m) => m.ncols(),
            DynamicMatrix::Ell(m) => m.ncols(),
            DynamicMatrix::Hyb(m) => m.ncols(),
            DynamicMatrix::Hdc(m) => m.ncols(),
            DynamicMatrix::Bsr(m) => m.ncols(),
            DynamicMatrix::Bell(m) => m.ncols(),
        }
    }

    /// Structural non-zeros (excludes padding in DIA/ELL-like formats).
    pub fn nnz(&self) -> usize {
        match self {
            DynamicMatrix::Coo(m) => m.nnz(),
            DynamicMatrix::Csr(m) => m.nnz(),
            DynamicMatrix::Dia(m) => m.nnz(),
            DynamicMatrix::Ell(m) => m.nnz(),
            DynamicMatrix::Hyb(m) => m.nnz(),
            DynamicMatrix::Hdc(m) => m.nnz(),
            DynamicMatrix::Bsr(m) => m.nnz(),
            DynamicMatrix::Bell(m) => m.nnz(),
        }
    }

    /// Bytes of heap storage the active representation occupies.
    pub fn storage_bytes(&self) -> usize {
        match self {
            DynamicMatrix::Coo(m) => m.storage_bytes(),
            DynamicMatrix::Csr(m) => m.storage_bytes(),
            DynamicMatrix::Dia(m) => m.storage_bytes(),
            DynamicMatrix::Ell(m) => m.storage_bytes(),
            DynamicMatrix::Hyb(m) => m.storage_bytes(),
            DynamicMatrix::Hdc(m) => m.storage_bytes(),
            DynamicMatrix::Bsr(m) => m.storage_bytes(),
            DynamicMatrix::Bell(m) => m.storage_bytes(),
        }
    }

    /// Extracts a COO copy of the matrix regardless of the active format
    /// (direct row-major export; no triplet buffers, no sort).
    pub fn to_coo(&self) -> CooMatrix<V> {
        match self {
            DynamicMatrix::Coo(m) => m.clone(),
            DynamicMatrix::Csr(m) => csr_to_coo(m),
            DynamicMatrix::Dia(m) => dia_to_coo(m),
            DynamicMatrix::Ell(m) => ell_to_coo(m),
            DynamicMatrix::Hyb(m) => hyb_to_coo(m),
            DynamicMatrix::Hdc(m) => hdc_to_coo(m),
            DynamicMatrix::Bsr(m) => bsr_to_coo(m),
            DynamicMatrix::Bell(m) => bell_to_coo(m),
        }
    }

    /// Returns a copy of this matrix converted to `target`.
    ///
    /// Fails with [`crate::MorpheusError::ExcessivePadding`] when the target
    /// format would pad beyond `opts.max_fill` — the caller (e.g. the
    /// run-first tuner) should treat that format as non-viable.
    ///
    /// Dispatches to a direct conversion kernel when one exists (source or
    /// target is COO/CSR) and through a CSR copy otherwise; see the
    /// [`crate::convert`] module docs. Use
    /// [`DynamicMatrix::to_format_with`] to learn which path ran or to
    /// supply a precomputed [`Analysis`] for planning.
    pub fn to_format(&self, target: FormatId, opts: &ConvertOptions) -> Result<DynamicMatrix<V>> {
        Ok(self.to_format_with(target, opts, None)?.0)
    }

    /// [`DynamicMatrix::to_format`], additionally accepting a shared
    /// [`Analysis`] (so planning performs no extra traversals) and
    /// reporting which conversion path ran and its wall time.
    pub fn to_format_with(
        &self,
        target: FormatId,
        opts: &ConvertOptions,
        analysis: Option<&Analysis>,
    ) -> Result<(DynamicMatrix<V>, ConvertOutcome)> {
        convert::convert_timed(self, target, opts, analysis, None, None)
    }

    /// Switches the active format in place. On failure the matrix is left
    /// unchanged.
    pub fn convert_to(&mut self, target: FormatId, opts: &ConvertOptions) -> Result<()> {
        self.convert_to_with(target, opts, None).map(|_| ())
    }

    /// [`DynamicMatrix::convert_to`] with an optional shared [`Analysis`],
    /// reporting the conversion path and wall time. On failure the matrix
    /// is left unchanged.
    pub fn convert_to_with(
        &mut self,
        target: FormatId,
        opts: &ConvertOptions,
        analysis: Option<&Analysis>,
    ) -> Result<ConvertOutcome> {
        self.convert_on(target, opts, analysis, None)
    }

    /// [`DynamicMatrix::convert_to_with`] whose BELL, ELL or HYB fill runs
    /// on `pool` once the matrix has
    /// [`PARALLEL_CONVERT_THRESHOLD`](crate::convert::kernels::PARALLEL_CONVERT_THRESHOLD)
    /// entries, cut as a planned execution on that pool cuts the result (see
    /// `BellMatrix::from_row_arrays`): the arrays are bitwise what the
    /// conversion without a pool stores. `None`, and a pool of one thread,
    /// fill on the calling thread. The DIA and HDC fills fork onto
    /// [`morpheus_parallel::global_pool`] either way. A serving layer passes
    /// the pool it owns. On failure the matrix is left unchanged.
    pub fn convert_on(
        &mut self,
        target: FormatId,
        opts: &ConvertOptions,
        analysis: Option<&Analysis>,
        pool: Option<&ThreadPool>,
    ) -> Result<ConvertOutcome> {
        if target == self.format_id() {
            return Ok(ConvertOutcome::identity());
        }
        let (converted, outcome) = convert::convert_timed(self, target, opts, analysis, None, pool)?;
        *self = converted;
        Ok(outcome)
    }

    /// The diagonals the matrix stores when it is DIA, or its DIA part's when
    /// it is HDC: the layout [`DynamicMatrix::convert_to_diagonals`]
    /// converts another matrix of the same structure into without looking
    /// for them.
    pub fn diagonal_layout(&self) -> Option<&[isize]> {
        match self {
            DynamicMatrix::Dia(a) => Some(a.offsets()),
            DynamicMatrix::Hdc(a) => Some(a.dia().offsets()),
            _ => None,
        }
    }

    /// [`DynamicMatrix::convert_to_with`] into DIA or HDC storing exactly
    /// the diagonals `offsets` — the [`DynamicMatrix::diagonal_layout`] of
    /// an earlier conversion of a matrix with this one's structure — so no
    /// pass over the entries (and no analysis) looks for them. Into any
    /// other format it converts as `convert_to_with` does without an
    /// analysis. On failure the matrix is left unchanged.
    ///
    /// # Panics
    /// If `offsets` are not strictly ascending diagonals of this shape, or
    /// a DIA conversion meets an entry on none of them (a layout of another
    /// structure).
    pub fn convert_to_diagonals(
        &mut self,
        target: FormatId,
        opts: &ConvertOptions,
        offsets: &[isize],
    ) -> Result<ConvertOutcome> {
        if target == self.format_id() {
            return Ok(ConvertOutcome::identity());
        }
        let (nrows, ncols) = (self.nrows() as isize, self.ncols() as isize);
        let on_shape = offsets.iter().all(|&off| off > -nrows && off < ncols);
        assert!(on_shape && offsets.is_sorted_by(|a, b| a < b), "{offsets:?}: not diagonals of this shape");
        let (converted, outcome) = convert::convert_timed(self, target, opts, None, Some(offsets), None)?;
        *self = converted;
        Ok(outcome)
    }

    /// Converts by value, reusing the source's allocations where the
    /// layouts permit instead of cloning.
    ///
    /// COO↔CSR share their column-index and value ordering, so those
    /// conversions move both arrays and only rebuild the row
    /// representation; converting to the current format is a no-op move.
    /// Every other pair falls back to the by-reference path and drops the
    /// source afterwards.
    ///
    /// # Errors
    /// Same conditions as [`DynamicMatrix::to_format`]; the consumed matrix
    /// is dropped on failure.
    pub fn into_format(self, target: FormatId, opts: &ConvertOptions) -> Result<DynamicMatrix<V>> {
        if target == self.format_id() {
            return Ok(self);
        }
        match (self, target) {
            (DynamicMatrix::Coo(a), FormatId::Csr) => {
                Ok(DynamicMatrix::Csr(convert::kernels::coo_into_csr(a)))
            }
            (DynamicMatrix::Csr(a), FormatId::Coo) => {
                Ok(DynamicMatrix::Coo(convert::kernels::csr_into_coo(a)))
            }
            (other, target) => other.to_format(target, opts),
        }
    }

    /// Materialises the matrix densely (small matrices / tests only).
    pub fn to_dense(&self) -> DenseMatrix<V> {
        DenseMatrix::from_coo(&self.to_coo())
    }

    /// A 64-bit fingerprint of the matrix's *sparsity structure* in its
    /// active format: dimensions, format, and the index arrays — values are
    /// not hashed (format selection never depends on them).
    ///
    /// Two matrices with equal fingerprints share their row/column pattern
    /// and active format, hence their [`crate::stats::MatrixStats`] and
    /// feature vector — which is what lets the Oracle's decision cache skip
    /// re-analysis. One streaming pass over the index data; no conversion.
    ///
    /// # Definition
    ///
    /// The header words (format id, shape, nnz, per-format scalars such as
    /// ELL's width) feed one xor-multiply chain in order. Every index
    /// *array* — COO rows and columns, CSR offsets and columns, DIA's
    /// offsets and its zero/non-zero pattern packed 64 flags to a word, the
    /// block formats' arrays — is hashed by four independent xor-multiply
    /// chains: an array of `n` words is cut into four contiguous runs of
    /// `n / 4` words (the last takes the remainder as well) and each run
    /// feeds its own chain, so no chain waits for another. The array's
    /// length and its four chain states then join the header chain, and one
    /// avalanche round finishes. The cut is fixed by the array's length
    /// alone — nothing in the definition refers to threads or chunk sizes,
    /// so the value depends on the words and their positions only. Each
    /// step of a chain is a bijection of its state, so changing any single
    /// hashed word always changes the fingerprint. The ELL family — BELL,
    /// ELL, HYB's ELL part — stores its cells slice-major and is hashed row
    /// by row instead: each stored row's cells through a chain of its own (a
    /// slice's eight rows side by side), then `(row, row hash)` into the
    /// header chain in bucket and position order.
    ///
    /// Prefer reading [`Analysis::structure_hash`] when an analysis of the
    /// matrix already exists — this method re-walks the index arrays (and
    /// records an analysis-class traversal on
    /// [`crate::analysis::passes`]).
    pub fn structure_hash(&self) -> u64 {
        crate::analysis::passes::record_traversal();
        self.structure_hash_raw()
    }

    /// [`DynamicMatrix::structure_hash`] without traversal accounting, for
    /// internal passes that account for the walk themselves.
    pub(crate) fn structure_hash_raw(&self) -> u64 {
        let mut h = StructureHasher::new();
        h.word(self.format_id().index() as u64);
        h.word(self.nrows() as u64);
        h.word(self.ncols() as u64);
        h.word(self.nnz() as u64);
        match self {
            DynamicMatrix::Coo(m) => {
                h.words(m.row_indices());
                h.words(m.col_indices());
            }
            DynamicMatrix::Csr(m) => {
                h.words(m.row_offsets());
                h.words(m.col_indices());
            }
            DynamicMatrix::Dia(m) => h.dia(m),
            DynamicMatrix::Ell(m) => {
                h.word(m.width() as u64);
                h.bell(m.bell());
            }
            DynamicMatrix::Hyb(m) => {
                h.word(m.split_width() as u64);
                h.bell(m.ell().bell());
                h.words(m.coo().row_indices());
                h.words(m.coo().col_indices());
            }
            DynamicMatrix::Hdc(m) => {
                h.dia(m.dia());
                h.words(m.csr().row_offsets());
                h.words(m.csr().col_indices());
            }
            DynamicMatrix::Bsr(m) => {
                h.word(m.block_r() as u64);
                h.word(m.block_c() as u64);
                h.words(m.block_row_offsets());
                h.words(m.block_cols());
                h.words(m.masks());
            }
            DynamicMatrix::Bell(m) => h.bell(m),
        }
        h.finish()
    }

    /// The transpose `Aᵀ`, re-materialised in the same storage format.
    ///
    /// Fails with [`crate::MorpheusError::ExcessivePadding`] when the
    /// transposed pattern no longer fits the active padded format (e.g. an
    /// ELL matrix whose transpose has one dense row).
    pub fn transpose(&self, opts: &ConvertOptions) -> Result<DynamicMatrix<V>> {
        let t = DynamicMatrix::Coo(self.to_coo().transpose());
        t.to_format(self.format_id(), opts)
    }
}

/// Independent xor-multiply chains an index array is hashed by (see
/// [`DynamicMatrix::structure_hash`]): a 64-bit multiply has a latency of
/// three or four cycles and a throughput of one, so four chains keep the
/// multiplier busy where one chain waits on itself.
const HASH_LANES: usize = 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One step of an xor-multiply chain: a bijection of `state` for any `w`.
#[inline(always)]
fn mix(state: u64, w: u64) -> u64 {
    (state ^ w).wrapping_mul(FNV_PRIME)
}

/// An index word of any of the widths the formats store.
trait Word: Copy {
    fn widen(self) -> u64;
}

macro_rules! word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            #[inline(always)]
            fn widen(self) -> u64 {
                self as u64
            }
        }
    )*};
}
word!(usize, isize, u64);

/// Streaming hasher behind [`DynamicMatrix::structure_hash`]: one
/// FNV-1a-style chain for the header words, [`HASH_LANES`] chains per array.
#[derive(Clone, Copy)]
struct StructureHasher {
    state: u64,
}

impl StructureHasher {
    fn new() -> Self {
        StructureHasher { state: FNV_OFFSET }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.state = mix(self.state, w);
    }

    /// One index array: its four contiguous runs through their own chains
    /// side by side, then the length and the chain states into the header
    /// chain. (The runs are read through four separate slices on purpose:
    /// lanes fed from adjacent words invite a vectorised 64-bit multiply,
    /// which every x86 level below AVX-512 emulates at a loss.)
    #[inline(always)]
    fn words<T: Word>(&mut self, ws: &[T]) {
        let run = ws.len() / HASH_LANES;
        let (a, rest) = ws.split_at(run);
        let (b, rest) = rest.split_at(run);
        let (c, rest) = rest.split_at(run);
        let (d, remainder) = rest.split_at(run);
        // Distinct seeds: equal runs leave different states.
        let seed = |l: u64| FNV_OFFSET ^ (l + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut lanes = [seed(0), seed(1), seed(2), seed(3)];
        for i in 0..run {
            lanes[0] = mix(lanes[0], a[i].widen());
            lanes[1] = mix(lanes[1], b[i].widen());
            lanes[2] = mix(lanes[2], c[i].widen());
            lanes[3] = mix(lanes[3], d[i].widen());
        }
        for w in remainder {
            lanes[3] = mix(lanes[3], w.widen());
        }
        self.word(ws.len() as u64);
        lanes.into_iter().for_each(|lane| self.word(lane));
    }

    /// DIA structure: offsets plus the zero/non-zero pattern of the padded
    /// value array (DIA encodes padding as stored zeros, so the indices
    /// alone do not determine the pattern). Flags are packed 64 per word,
    /// value `i` of a word's 64 at bit `i`.
    fn dia<V: Scalar>(&mut self, m: &crate::dia::DiaMatrix<V>) {
        self.words(m.offsets());
        let packed = |chunk: &[V]| {
            let flags = chunk.iter().enumerate().map(|(i, &v)| u64::from(v != V::ZERO) << i);
            flags.fold(0, |word, flag| word | flag)
        };
        let pattern: Vec<u64> = m.values().chunks(64).map(packed).collect();
        self.words(&pattern);
    }

    /// The ELL family's buckets, row by row: each row's cells hash on their
    /// own in `k` order (pads repeat the last column, so the padding pattern
    /// is covered) and the rows' hashes fold in row order — nothing depends
    /// on how a bucket is sliced, and a slice's eight rows hash side by side.
    fn bell<V: Scalar>(&mut self, m: &BellMatrix<V>) {
        self.word(m.buckets().len() as u64);
        for bucket in m.buckets() {
            self.word(bucket.width() as u64);
            let cell = |mut row: StructureHasher, c: u32| {
                row.word(u64::from(c));
                row
            };
            bucket.fold_row_cols(StructureHasher::new(), cell, |r, row| {
                self.word(u64::from(r));
                self.word(row.state);
            });
        }
    }

    fn finish(&self) -> u64 {
        // One avalanche round so low-entropy inputs spread over all bits.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl<V: Scalar> From<CooMatrix<V>> for DynamicMatrix<V> {
    fn from(m: CooMatrix<V>) -> Self {
        DynamicMatrix::Coo(m)
    }
}

impl<V: Scalar> From<CsrMatrix<V>> for DynamicMatrix<V> {
    fn from(m: CsrMatrix<V>) -> Self {
        DynamicMatrix::Csr(m)
    }
}

impl<V: Scalar> From<DiaMatrix<V>> for DynamicMatrix<V> {
    fn from(m: DiaMatrix<V>) -> Self {
        DynamicMatrix::Dia(m)
    }
}

impl<V: Scalar> From<EllMatrix<V>> for DynamicMatrix<V> {
    fn from(m: EllMatrix<V>) -> Self {
        DynamicMatrix::Ell(m)
    }
}

impl<V: Scalar> From<HybMatrix<V>> for DynamicMatrix<V> {
    fn from(m: HybMatrix<V>) -> Self {
        DynamicMatrix::Hyb(m)
    }
}

impl<V: Scalar> From<HdcMatrix<V>> for DynamicMatrix<V> {
    fn from(m: HdcMatrix<V>) -> Self {
        DynamicMatrix::Hdc(m)
    }
}

impl<V: Scalar> From<BsrMatrix<V>> for DynamicMatrix<V> {
    fn from(m: BsrMatrix<V>) -> Self {
        DynamicMatrix::Bsr(m)
    }
}

impl<V: Scalar> From<BellMatrix<V>> for DynamicMatrix<V> {
    fn from(m: BellMatrix<V>) -> Self {
        DynamicMatrix::Bell(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ALL_FORMATS;
    use crate::spmv::spmv_serial;
    use crate::test_util::random_coo;

    #[test]
    fn switch_through_every_format_preserves_entries() {
        let coo = random_coo::<f64>(40, 40, 200, 3);
        let reference = coo.clone();
        let mut m = DynamicMatrix::from(coo);
        let opts = ConvertOptions::default();
        for &f in &ALL_FORMATS {
            m.convert_to(f, &opts).unwrap();
            assert_eq!(m.format_id(), f);
            assert_eq!(m.nnz(), reference.nnz(), "nnz after switch to {f}");
            assert_eq!(m.to_coo(), reference, "entries after switch to {f}");
        }
        // And back to COO.
        m.convert_to(FormatId::Coo, &opts).unwrap();
        assert_eq!(m.to_coo(), reference);
    }

    #[test]
    fn convert_to_same_format_is_noop() {
        let coo = random_coo::<f64>(10, 10, 30, 1);
        let mut m = DynamicMatrix::from(coo.clone());
        m.convert_to(FormatId::Coo, &ConvertOptions::default()).unwrap();
        assert_eq!(m, DynamicMatrix::Coo(coo));
    }

    #[test]
    fn failed_conversion_leaves_matrix_unchanged() {
        // Scatter matrix that cannot fit DIA under a tight fill limit.
        let coo = random_coo::<f64>(2000, 2000, 400, 9);
        let mut m = DynamicMatrix::from(coo.clone());
        let opts = ConvertOptions { max_fill: 1.5, min_padded_allowance: 8, ..Default::default() };
        assert!(m.convert_to(FormatId::Dia, &opts).is_err());
        assert_eq!(m.format_id(), FormatId::Coo);
        assert_eq!(m.to_coo(), coo);

        // One entry in a matrix too wide for the ELL family's 4-byte indices
        // (nothing as large as the shape is allocated): a typed error from
        // COO and from CSR into BELL, ELL and HYB, the matrix untouched.
        let wide = u32::MAX as usize + 2;
        let coo = CooMatrix::from_triplets(1, wide, &[0], &[wide - 1], &[2.0f64]).unwrap();
        for source in [FormatId::Coo, FormatId::Csr] {
            for target in [FormatId::Bell, FormatId::Ell, FormatId::Hyb] {
                let mut m =
                    DynamicMatrix::from(coo.clone()).to_format(source, &ConvertOptions::default()).unwrap();
                let err = m.convert_to(target, &ConvertOptions::default()).unwrap_err();
                let limit = u32::MAX as usize;
                assert!(
                    matches!(err, crate::MorpheusError::IndexOverflow { dim, limit: l } if dim == wide && l == limit),
                    "{source} -> {target}: {err}"
                );
                assert_eq!(m.format_id(), source);
                assert_eq!(m.to_coo(), coo);
            }
        }
    }

    #[test]
    fn dims_consistent_across_formats() {
        let coo = random_coo::<f64>(31, 17, 120, 5);
        let m = DynamicMatrix::from(coo);
        let opts = ConvertOptions::default();
        for &f in &ALL_FORMATS {
            let converted = m.to_format(f, &opts).unwrap();
            assert_eq!(converted.nrows(), 31);
            assert_eq!(converted.ncols(), 17);
            assert!(converted.storage_bytes() > 0);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let coo = random_coo::<f64>(23, 31, 140, 4);
        let m = DynamicMatrix::from(coo.clone());
        let opts = ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() };
        for &f in &ALL_FORMATS {
            let converted = m.to_format(f, &opts).unwrap();
            let t = converted.transpose(&opts).unwrap();
            assert_eq!(t.format_id(), f, "transpose keeps the format");
            assert_eq!(t.nrows(), 31);
            assert_eq!(t.ncols(), 23);
            let tt = t.transpose(&opts).unwrap();
            assert_eq!(tt.to_coo(), coo, "double transpose is identity ({f})");
        }
    }

    #[test]
    fn transpose_entries_swap() {
        let coo = CooMatrix::<f64>::from_triplets(2, 3, &[0, 1], &[2, 0], &[5.0, 7.0]).unwrap();
        let t = coo.transpose();
        let entries: Vec<_> = t.iter().collect();
        assert_eq!(entries, vec![(0, 1, 7.0), (2, 0, 5.0)]);
    }

    #[test]
    fn structure_hash_ignores_values_but_sees_structure() {
        let coo = random_coo::<f64>(50, 50, 300, 11);
        let opts = ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() };
        let m = DynamicMatrix::from(coo.clone());

        // Same structure, different values: same hash.
        let scaled_vals: Vec<f64> = coo.values().iter().map(|v| v * 3.5).collect();
        let scaled = DynamicMatrix::from(
            CooMatrix::from_triplets(50, 50, coo.row_indices(), coo.col_indices(), &scaled_vals).unwrap(),
        );
        assert_eq!(m.structure_hash(), scaled.structure_hash());

        // f32 copy: structure hash is scalar-independent.
        let vals32: Vec<f32> = coo.values().iter().map(|&v| v as f32).collect();
        let m32 = DynamicMatrix::from(
            CooMatrix::from_triplets(50, 50, coo.row_indices(), coo.col_indices(), &vals32).unwrap(),
        );
        assert_eq!(m.structure_hash(), m32.structure_hash());

        // A different pattern: different hash.
        let other = DynamicMatrix::from(random_coo::<f64>(50, 50, 300, 12));
        assert_ne!(m.structure_hash(), other.structure_hash());

        // Each active format hashes differently (the hash covers the
        // representation the cache key describes), deterministically.
        let mut seen = std::collections::HashSet::new();
        for &f in &ALL_FORMATS {
            let converted = m.to_format(f, &opts).unwrap();
            assert_eq!(converted.structure_hash(), converted.structure_hash());
            assert!(seen.insert(converted.structure_hash()), "hash collision for {f}");
        }
    }

    /// The BELL hash is defined row by row — each row's cells in `k` order,
    /// rows in bucket order — so it cannot depend on the slice height the
    /// buckets happen to be stored at.
    #[test]
    fn bell_structure_hash_is_defined_row_by_row() {
        let opts = ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() };
        let m =
            DynamicMatrix::from(random_coo::<f64>(90, 40, 500, 3)).to_format(FormatId::Bell, &opts).unwrap();
        let DynamicMatrix::Bell(ref b) = m else { panic!("expected BELL") };
        assert!(b.buckets().iter().any(|k| k.rows().len() > crate::bell::SLICE), "full and ragged slices");
        let mut h = StructureHasher::new();
        for w in [m.format_id().index(), m.nrows(), m.ncols(), m.nnz(), b.buckets().len()] {
            h.word(w as u64);
        }
        for bucket in b.buckets() {
            h.word(bucket.width() as u64);
            for (j, &r) in bucket.rows().iter().enumerate() {
                let mut row = StructureHasher::new();
                bucket.row_cells(j).for_each(|(c, _)| row.word(u64::from(c)));
                h.word(u64::from(r));
                h.word(row.state);
            }
        }
        assert_eq!(m.structure_hash(), h.finish());
    }

    /// An array's hash is its four contiguous runs through four chains,
    /// whatever its length: shorter than a lane each, a multiple of four,
    /// or with a remainder (which the last chain takes).
    #[test]
    fn an_array_is_hashed_as_four_contiguous_runs() {
        for len in [0usize, 1, 3, 4, 5, 8, 11, 64, 67] {
            let ws: Vec<usize> = (0..len).map(|i| i * 2654435761 % 1000).collect();
            let run = len / HASH_LANES;
            let mut expect = StructureHasher::new();
            expect.word(len as u64);
            for l in 0..HASH_LANES {
                let end = if l + 1 == HASH_LANES { len } else { (l + 1) * run };
                let seed = FNV_OFFSET ^ (l as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                expect.word(ws[l * run..end].iter().fold(seed, |s, &w| mix(s, w as u64)));
            }
            let mut got = StructureHasher::new();
            got.words(&ws);
            assert_eq!(got.finish(), expect.finish(), "len {len}");
        }
    }

    /// Changing any single index word changes the hash (every chain step is
    /// a bijection of its state), and so does swapping two unequal words —
    /// in one lane or across lanes — in every format's arrays.
    #[test]
    fn structure_hash_sees_every_word_and_its_position() {
        let coo = random_coo::<f64>(40, 37, 260, 21);
        let base = DynamicMatrix::from(coo.clone()).structure_hash();
        // The COO arm of the hash over raw arrays: perturbed arrays need not
        // be a matrix any constructor would accept.
        let rebuilt = |rows: &[usize], cols: &[usize]| {
            let mut h = StructureHasher::new();
            for w in [FormatId::Coo.index(), 40, 37, rows.len()] {
                h.word(w as u64);
            }
            h.words(rows);
            h.words(cols);
            h.finish()
        };
        assert_eq!(rebuilt(coo.row_indices(), coo.col_indices()), base);
        for i in 0..coo.nnz() {
            // One index word moved by one.
            let mut cols = coo.col_indices().to_vec();
            cols[i] += 1;
            assert_ne!(rebuilt(coo.row_indices(), &cols), base, "column word {i}");
            let mut rows = coo.row_indices().to_vec();
            rows[i] += 1;
            assert_ne!(rebuilt(&rows, coo.col_indices()), base, "row word {i}");
            // Swaps with the next word, one seven on, and the words a
            // quarter and a half of the array on: within a chain and across
            // chains.
            for d in [1, 7, coo.nnz() / 4, coo.nnz() / 2] {
                let j = i + d;
                if j < coo.nnz() && coo.col_indices()[i] != coo.col_indices()[j] {
                    let mut cols = coo.col_indices().to_vec();
                    cols.swap(i, j);
                    assert_ne!(rebuilt(coo.row_indices(), &cols), base, "columns {i} and {j} swapped");
                }
            }
        }
        // The other formats' arrays, through one changed entry each: moving
        // an entry one column over changes at least one hashed word.
        let opts = ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() };
        let (rows, mut cols) = (coo.row_indices(), coo.col_indices().to_vec());
        let movable = |i: usize| (i + 1 == rows.len() || rows[i + 1] != rows[i]) && cols[i] + 1 < 37;
        let i = (0..rows.len()).rev().find(|&i| movable(i)).expect("some row ends before the last column");
        cols[i] += 1;
        let moved = CooMatrix::from_triplets(40, 37, rows, &cols, coo.values()).unwrap();
        for &f in &ALL_FORMATS {
            let a = DynamicMatrix::from(coo.clone()).to_format(f, &opts).unwrap();
            let b = DynamicMatrix::from(moved.clone()).to_format(f, &opts).unwrap();
            assert_ne!(a.structure_hash(), b.structure_hash(), "{f}");
        }
    }

    #[test]
    fn into_format_reuses_allocations_for_coo_csr() {
        let coo = random_coo::<f64>(30, 30, 150, 8);
        let vals_ptr = coo.values().as_ptr();
        let cols_ptr = coo.col_indices().as_ptr();
        let opts = ConvertOptions::default();

        let csr = DynamicMatrix::from(coo).into_format(FormatId::Csr, &opts).unwrap();
        let DynamicMatrix::Csr(ref c) = csr else { panic!("expected CSR") };
        assert_eq!(c.values().as_ptr(), vals_ptr, "values buffer must move, not copy");
        assert_eq!(c.col_indices().as_ptr(), cols_ptr, "column buffer must move, not copy");

        let back = csr.into_format(FormatId::Coo, &opts).unwrap();
        let DynamicMatrix::Coo(ref b) = back else { panic!("expected COO") };
        assert_eq!(b.values().as_ptr(), vals_ptr);
        assert_eq!(b.col_indices().as_ptr(), cols_ptr);
    }

    #[test]
    fn into_format_same_format_is_a_move() {
        let coo = random_coo::<f64>(10, 10, 40, 2);
        let ptr = coo.values().as_ptr();
        let m = DynamicMatrix::from(coo).into_format(FormatId::Coo, &ConvertOptions::default()).unwrap();
        let DynamicMatrix::Coo(ref c) = m else { panic!("expected COO") };
        assert_eq!(c.values().as_ptr(), ptr);
    }

    /// The completeness gate: every format must have a working converter
    /// (COO roundtrip), a serial SpMV kernel, SpMM kernels, an `ExecPlan`
    /// builder with its ranged kernels, and a name. A format that compiles
    /// but was not wired end to end fails here, not in production dispatch.
    #[test]
    fn every_format_is_wired_end_to_end() {
        let coo = random_coo::<f64>(48, 40, 340, 17);
        let base = DynamicMatrix::from(coo.clone());
        let opts = ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() };
        let pool = morpheus_parallel::ThreadPool::new(3);
        let x: Vec<f64> = (0..40).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut y_ref = vec![0.0f64; 48];
        spmv_serial(&base, &x, &mut y_ref).unwrap();

        for fmt in ALL_FORMATS {
            // Converter: reachable from COO and exact on the way back.
            let m = base
                .to_format(fmt, &opts)
                .unwrap_or_else(|e| panic!("{fmt}: registered format lacks a conversion path: {e}"));
            assert_eq!(m.format_id(), fmt);
            assert_eq!(m.to_coo(), coo, "{fmt}: COO roundtrip");

            // Serial kernel.
            let mut y = vec![f64::NAN; 48];
            spmv_serial(&m, &x, &mut y).unwrap();
            for i in 0..48 {
                assert!((y[i] - y_ref[i]).abs() <= 1e-10 * (1.0 + y_ref[i].abs()), "{fmt}");
            }

            // Plan builder + planned execution.
            let plan = crate::plan::ExecPlan::build(&m, 3, None);
            assert!(plan.matches(&m), "{fmt}: plan does not fit its own matrix");
            let mut yp = vec![f64::NAN; 48];
            plan.spmv(&m, &x, &mut yp, &pool).unwrap();
            for i in 0..48 {
                assert!((yp[i] - y_ref[i]).abs() <= 1e-10 * (1.0 + y_ref[i].abs()), "{fmt}");
            }

            // SpMM kernel.
            let k = 3usize;
            let xb = vec![1.0f64; 40 * k];
            let mut yb = vec![f64::NAN; 48 * k];
            crate::spmm::spmm_serial(&m, &xb, &mut yb, k).unwrap();
            assert!(yb.iter().all(|v| v.is_finite()), "{fmt}");

            // Name table.
            assert_eq!(FormatId::from_name(fmt.name()), Some(fmt));
        }
    }

    #[test]
    fn into_format_matches_to_format_everywhere() {
        let coo = random_coo::<f64>(40, 35, 260, 4);
        let opts = ConvertOptions { min_padded_allowance: 1 << 20, ..Default::default() };
        let m = DynamicMatrix::from(coo);
        for &f in &ALL_FORMATS {
            let by_ref = m.to_format(f, &opts).unwrap();
            let by_val = m.clone().into_format(f, &opts).unwrap();
            assert_eq!(by_ref, by_val, "{f}");
        }
    }

    #[test]
    fn to_dense_matches_entries() {
        let coo = random_coo::<f64>(12, 9, 40, 2);
        let m = DynamicMatrix::from(coo.clone());
        let d = m.to_dense();
        for (r, c, v) in coo.iter() {
            assert_eq!(d.get(r, c), v);
        }
    }
}
