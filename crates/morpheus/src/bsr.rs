//! BSR/BCSR: register-blocked compressed sparse row format.
//!
//! The matrix is tiled into `block_r x block_c` blocks; block rows store
//! their non-empty blocks CSR-style (`block_row_offsets` / `block_cols`)
//! with each block's values dense and row-major. Dense-block matrices (FEM
//! discretisations, multi-component PDEs) pay one column index per *block*
//! instead of one per entry — an `r*c`-fold index-traffic reduction — and
//! the fixed-trip-count block loops keep the right-hand side in registers.
//!
//! Structural occupancy inside a block is tracked by a per-block bitmask
//! (bit `rr * block_c + cc`), so explicitly stored zeros survive format
//! round-trips exactly like they do in CSR; padding slots hold `V::ZERO`
//! and are skipped by the mask on traversal, while SpMV kernels simply
//! multiply through them (a zero contribution) to keep the inner loops
//! branch-free.

use crate::error::MorpheusError;
use crate::format::FormatId;
use crate::rowmajor::RowMajor;
use crate::scalar::Scalar;
use crate::Result;

/// Block dimensions the tuner searches over (square blocks).
pub const BSR_BLOCK_DIMS: [usize; 3] = [2, 4, 8];

/// Register-blocked CSR sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BsrMatrix<V> {
    nrows: usize,
    ncols: usize,
    block_r: usize,
    block_c: usize,
    nnz: usize,
    block_row_offsets: Vec<usize>,
    block_cols: Vec<usize>,
    masks: Vec<u64>,
    values: Vec<V>,
}

/// Number of block rows covering `nrows` rows with blocks of `r` rows.
#[inline]
pub(crate) fn nblockrows(nrows: usize, r: usize) -> usize {
    nrows.div_ceil(r)
}

impl<V: Scalar> BsrMatrix<V> {
    /// An empty matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize, block_r: usize, block_c: usize) -> Self {
        BsrMatrix {
            nrows,
            ncols,
            block_r: block_r.max(1),
            block_c: block_c.max(1),
            nnz: 0,
            block_row_offsets: vec![0; nblockrows(nrows, block_r.max(1)) + 1],
            block_cols: Vec::new(),
            masks: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds from raw parts, validating the layout.
    ///
    /// Requirements: `block_r * block_c <= 64` (masks are one `u64` per
    /// block); offsets cover `ceil(nrows / block_r)` block rows and are
    /// non-decreasing; block columns are strictly increasing within each
    /// block row and in range; every block has a non-empty mask whose bits
    /// stay inside the logical matrix (tail blocks); `values` holds exactly
    /// `nblocks * block_r * block_c` slots with `V::ZERO` in padding slots.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        block_r: usize,
        block_c: usize,
        block_row_offsets: Vec<usize>,
        block_cols: Vec<usize>,
        masks: Vec<u64>,
        values: Vec<V>,
    ) -> Result<Self> {
        if block_r == 0 || block_c == 0 || block_r * block_c > 64 {
            return Err(MorpheusError::InvalidStructure(format!(
                "BSR block dims {block_r}x{block_c} invalid (need 1 <= r*c <= 64)"
            )));
        }
        let nbr = nblockrows(nrows, block_r);
        let nbc = nblockrows(ncols, block_c);
        if block_row_offsets.len() != nbr + 1 || block_row_offsets.first() != Some(&0) {
            return Err(MorpheusError::InvalidStructure(format!(
                "BSR offsets must have length {} and start at 0",
                nbr + 1
            )));
        }
        let nblocks = *block_row_offsets.last().unwrap();
        if block_cols.len() != nblocks
            || masks.len() != nblocks
            || values.len() != nblocks * block_r * block_c
        {
            return Err(MorpheusError::InvalidStructure(format!(
                "BSR arrays inconsistent: {nblocks} blocks, {} cols, {} masks, {} values",
                block_cols.len(),
                masks.len(),
                values.len()
            )));
        }
        let mut nnz = 0usize;
        for br in 0..nbr {
            let (lo, hi) = (block_row_offsets[br], block_row_offsets[br + 1]);
            if lo > hi || hi > nblocks {
                return Err(MorpheusError::InvalidStructure(format!(
                    "BSR offsets not monotone at block row {br}"
                )));
            }
            let rcount = block_r.min(nrows - br * block_r);
            let mut prev: Option<usize> = None;
            for b in lo..hi {
                let bc = block_cols[b];
                if bc >= nbc {
                    return Err(MorpheusError::IndexOutOfBounds {
                        index: (br * block_r, bc * block_c),
                        shape: (nrows, ncols),
                    });
                }
                if let Some(p) = prev {
                    if p >= bc {
                        return Err(MorpheusError::InvalidStructure(format!(
                            "BSR block row {br}: block columns not strictly increasing"
                        )));
                    }
                }
                prev = Some(bc);
                let mask = masks[b];
                if mask == 0 {
                    return Err(MorpheusError::InvalidStructure(format!(
                        "BSR block row {br}: empty block stored at block column {bc}"
                    )));
                }
                let ccount = block_c.min(ncols - bc * block_c);
                for rr in 0..block_r {
                    for cc in 0..block_c {
                        if mask >> (rr * block_c + cc) & 1 == 1 && (rr >= rcount || cc >= ccount) {
                            return Err(MorpheusError::InvalidStructure(format!(
                                "BSR block row {br}: mask bit outside the {nrows}x{ncols} matrix"
                            )));
                        }
                    }
                }
                nnz += mask.count_ones() as usize;
            }
        }
        Ok(BsrMatrix { nrows, ncols, block_r, block_c, nnz, block_row_offsets, block_cols, masks, values })
    }

    /// Builds from contiguous row-major arrays — `offsets` (`nrows + 1`
    /// entries) delimits each row's ascending-column run in `cols`/`vals`:
    /// CSR's own arrays, or a sorted COO matrix's after one offsets pass
    /// (`coo_row_offsets`). Each block row is an `r`-way merge of its rows'
    /// sorted runs: the smallest unread column names the next block, and
    /// every row drains its entries inside that block before the merge
    /// moves on — no per-block-row sort, no per-entry search.
    pub(crate) fn from_row_arrays(
        nrows: usize,
        ncols: usize,
        offsets: &[usize],
        cols: &[usize],
        vals: &[V],
        block_r: usize,
        block_c: usize,
    ) -> Self {
        assert_eq!(offsets.len(), nrows + 1, "row offsets must delimit every row");
        let (r, c) = (block_r.max(1), block_c.max(1));
        assert!(r * c <= 64, "BSR block dims must satisfy r*c <= 64");
        let nbr = nblockrows(nrows, r);
        let mut block_row_offsets = Vec::with_capacity(nbr + 1);
        block_row_offsets.push(0usize);
        let mut block_cols: Vec<usize> = Vec::new();
        let mut masks: Vec<u64> = Vec::new();
        let mut values: Vec<V> = Vec::new();
        let mut cursor = vec![0usize; r];
        for br in 0..nbr {
            let r0 = br * r;
            let rcount = r.min(nrows - r0);
            cursor[..rcount].copy_from_slice(&offsets[r0..r0 + rcount]);
            loop {
                let next_col = (0..rcount)
                    .filter(|&rr| cursor[rr] < offsets[r0 + rr + 1])
                    .map(|rr| cols[cursor[rr]])
                    .min();
                let Some(next_col) = next_col else { break };
                let bc = next_col / c;
                let (c0, c1) = (bc * c, (bc + 1) * c);
                let base = values.len();
                values.resize(base + r * c, V::ZERO);
                let mut mask = 0u64;
                for rr in 0..rcount {
                    let end = offsets[r0 + rr + 1];
                    let mut i = cursor[rr];
                    while i < end && cols[i] < c1 {
                        let slot = rr * c + (cols[i] - c0);
                        mask |= 1u64 << slot;
                        values[base + slot] = vals[i];
                        i += 1;
                    }
                    cursor[rr] = i;
                }
                block_cols.push(bc);
                masks.push(mask);
            }
            block_row_offsets.push(block_cols.len());
        }
        BsrMatrix {
            nrows,
            ncols,
            block_r: r,
            block_c: c,
            nnz: offsets[nrows],
            block_row_offsets,
            block_cols,
            masks,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Structural non-zeros (mask popcount; excludes block padding).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Format identifier ([`FormatId::Bsr`]).
    #[inline]
    pub fn format_id(&self) -> FormatId {
        FormatId::Bsr
    }

    /// Rows per block.
    #[inline]
    pub fn block_r(&self) -> usize {
        self.block_r
    }

    /// Columns per block.
    #[inline]
    pub fn block_c(&self) -> usize {
        self.block_c
    }

    /// Number of block rows (`ceil(nrows / block_r)`).
    #[inline]
    pub fn nblockrows(&self) -> usize {
        self.block_row_offsets.len() - 1
    }

    /// Number of stored blocks.
    #[inline]
    pub fn nblocks(&self) -> usize {
        self.block_cols.len()
    }

    /// Block-row offsets (`nblockrows + 1` entries).
    #[inline]
    pub fn block_row_offsets(&self) -> &[usize] {
        &self.block_row_offsets
    }

    /// Per-block block-column indices, ascending within each block row.
    #[inline]
    pub fn block_cols(&self) -> &[usize] {
        &self.block_cols
    }

    /// Per-block structural occupancy bitmaps (bit `rr * block_c + cc`).
    #[inline]
    pub fn masks(&self) -> &[u64] {
        &self.masks
    }

    /// Dense block values (`nblocks * block_r * block_c`, row-major per
    /// block); padding slots hold `V::ZERO`.
    #[inline]
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Stored entries of block row `br` (structural, over all its blocks).
    #[inline]
    pub fn block_row_nnz(&self, br: usize) -> usize {
        let (lo, hi) = (self.block_row_offsets[br], self.block_row_offsets[br + 1]);
        self.masks[lo..hi].iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Total allocated value slots including padding.
    #[inline]
    pub fn padded_len(&self) -> usize {
        self.values.len()
    }

    /// Bytes of heap storage the format occupies.
    pub fn storage_bytes(&self) -> usize {
        (self.block_row_offsets.len() + self.block_cols.len()) * std::mem::size_of::<usize>()
            + self.masks.len() * std::mem::size_of::<u64>()
            + self.values.len() * std::mem::size_of::<V>()
    }
}

impl<V: Scalar> RowMajor<V> for BsrMatrix<V> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn row_count(&self, r: usize) -> usize {
        let br = r / self.block_r;
        let rr = r % self.block_r;
        let row_bits = ((1u128 << self.block_c) - 1) as u64;
        let (lo, hi) = (self.block_row_offsets[br], self.block_row_offsets[br + 1]);
        self.masks[lo..hi].iter().map(|m| (m >> (rr * self.block_c) & row_bits).count_ones() as usize).sum()
    }

    fn emit_row(&self, r: usize, f: &mut dyn FnMut(usize, V)) {
        let br = r / self.block_r;
        let rr = r % self.block_r;
        let (rdim, cdim) = (self.block_r, self.block_c);
        for b in self.block_row_offsets[br]..self.block_row_offsets[br + 1] {
            let c0 = self.block_cols[b] * cdim;
            let mask = self.masks[b];
            let vals = &self.values[b * rdim * cdim..];
            for cc in 0..cdim {
                if mask >> (rr * cdim + cc) & 1 == 1 {
                    f(c0 + cc, vals[rr * cdim + cc]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::test_util::random_coo;

    fn bsr_of(coo: &CooMatrix<f64>, block_r: usize, block_c: usize) -> BsrMatrix<f64> {
        let offsets = crate::convert::kernels::coo_row_offsets(coo.nrows(), coo.row_indices());
        BsrMatrix::from_row_arrays(
            coo.nrows(),
            coo.ncols(),
            &offsets,
            coo.col_indices(),
            coo.values(),
            block_r,
            block_c,
        )
    }

    fn sample() -> BsrMatrix<f64> {
        // 4x4, 2x2 blocks:
        // [1 2 | 0 0]
        // [0 3 | 0 0]
        // [----+----]
        // [0 0 | 4 0]
        // [5 0 | 0 6]
        let coo = CooMatrix::from_triplets(
            4,
            4,
            &[0, 0, 1, 2, 3, 3],
            &[0, 1, 1, 2, 0, 3],
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap();
        bsr_of(&coo, 2, 2)
    }

    #[test]
    fn builds_blocks_from_rowmajor() {
        let m = sample();
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.nblockrows(), 2);
        assert_eq!(m.nblocks(), 3);
        assert_eq!(m.block_row_offsets(), &[0, 1, 3]);
        assert_eq!(m.block_cols(), &[0, 0, 1]);
        // Block (0,0): entries (0,0) (0,1) (1,1) -> bits 0,1,3.
        assert_eq!(m.masks()[0], 0b1011);
        assert_eq!(m.block_row_nnz(0), 3);
        assert_eq!(m.block_row_nnz(1), 3);
    }

    #[test]
    fn rowmajor_walk_matches_source() {
        let coo = random_coo::<f64>(37, 29, 300, 11);
        let expect: Vec<(usize, usize, f64)> = coo.iter().collect();
        for &(r, c) in &[(2, 2), (4, 4), (8, 8), (2, 4), (3, 5)] {
            let m = bsr_of(&coo, r, c);
            assert_eq!(m.nnz(), expect.len());
            let mut got = Vec::new();
            for row in 0..RowMajor::nrows(&m) {
                m.emit_row(row, &mut |c, v| got.push((row, c, v)));
            }
            assert_eq!(got, expect, "{r}x{c}");
        }
    }

    #[test]
    fn from_parts_validates() {
        let m = sample();
        let (nbr, nb) = (m.nblockrows(), m.nblocks());
        assert_eq!((nbr, nb), (2, 3));
        let rebuilt = BsrMatrix::from_parts(
            4,
            4,
            2,
            2,
            m.block_row_offsets().to_vec(),
            m.block_cols().to_vec(),
            m.masks().to_vec(),
            m.values().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, m);

        // Oversized block.
        assert!(BsrMatrix::<f64>::from_parts(4, 4, 16, 8, vec![0], vec![], vec![], vec![]).is_err());
        // Empty mask.
        assert!(BsrMatrix::<f64>::from_parts(2, 2, 2, 2, vec![0, 1], vec![0], vec![0], vec![0.0; 4]).is_err());
        // Mask bit outside a 3-row matrix's tail block.
        assert!(BsrMatrix::<f64>::from_parts(
            3,
            2,
            2,
            2,
            vec![0, 1, 2],
            vec![0, 0],
            vec![1, 1 << 2],
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
        )
        .is_err());
        // Unsorted block columns.
        assert!(BsrMatrix::<f64>::from_parts(2, 4, 2, 2, vec![0, 2], vec![1, 0], vec![1, 1], vec![0.0; 8])
            .is_err());
    }

    #[test]
    fn tail_blocks_clamp_to_shape() {
        // 5x5 with 4x4 blocks: tail block row/column of size 1.
        let coo = random_coo::<f64>(5, 5, 18, 3);
        let m = bsr_of(&coo, 4, 4);
        assert_eq!(m.nblockrows(), 2);
        assert_eq!(m.nnz(), coo.nnz());
        let mut got = Vec::new();
        for row in 0..5 {
            m.emit_row(row, &mut |c, v| got.push((row, c, v)));
        }
        let expect: Vec<(usize, usize, f64)> = coo.iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_matrix() {
        let m = BsrMatrix::<f64>::new(0, 0, 4, 4);
        assert_eq!(m.nblockrows(), 0);
        assert_eq!(m.nnz(), 0);
        assert!(m.storage_bytes() > 0); // the offsets sentinel
    }
}
