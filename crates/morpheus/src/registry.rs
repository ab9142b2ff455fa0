//! The format registry: one table describing every storage format.
//!
//! Before this registry, adding a format meant editing a dozen exhaustive
//! `FormatId` match sites across six layers (tuner viability, sweep
//! loops, bench columns, conversion dispatch, plan building). Now the
//! format pool is *data*: each [`FormatEntry`] bundles the format's
//! identity, its structural traits, a cheap viability predicate (the same
//! padding economics the conversion guards enforce, answerable from
//! [`crate::MatrixStats`] alone — no conversion, no traversal), and
//! closures into the generic kernel/conversion machinery. Call sites that
//! previously iterated [`crate::format::ALL_FORMATS`] and re-implemented
//! per-format knowledge route through [`FormatEntry::all`]; the
//! `DynamicMatrix` matches that remain (kernels, plans) are
//! compiler-enforced exhaustive, so a new format is: one storage module +
//! one registry row + the match arms the compiler demands.
//!
//! Everything here is scalar-independent — Rust statics cannot be generic
//! over the value type, so the registry stores metadata and plain function
//! pointers over structural quantities, while scalar-generic dispatch
//! (conversion, SpMV, planning) stays in the modules that own it.

use crate::format::{FormatId, FORMAT_COUNT};
use crate::stats::MatrixStats;

/// Structural quantities a viability decision may consult — derivable from
/// [`MatrixStats`] (hence from a shared [`crate::Analysis`]) without
/// touching the matrix again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructuralSummary {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Structural non-zeros.
    pub nnz: usize,
    /// Maximum non-zeros in any row.
    pub row_max: usize,
    /// Populated diagonals.
    pub ndiags: usize,
}

impl StructuralSummary {
    /// Builds the summary from precomputed statistics.
    pub fn from_stats(s: &MatrixStats) -> Self {
        StructuralSummary {
            nrows: s.nrows,
            ncols: s.ncols,
            nnz: s.nnz,
            row_max: s.row_nnz_max,
            ndiags: s.ndiags,
        }
    }
}

/// Static traits of a storage format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormatTraits {
    /// Stores padding slots (so a padding-allowance guard applies on
    /// conversion).
    pub padded: bool,
    /// Has layout parameters ([`crate::FormatParams`]) a decision carries.
    pub parameterized: bool,
    /// Splits the matrix into two sub-format portions.
    pub hybrid: bool,
}

/// One registered storage format.
#[derive(Debug, Clone, Copy)]
pub struct FormatEntry {
    /// The format's identity.
    pub id: FormatId,
    /// Static structural traits.
    pub traits: FormatTraits,
    /// Estimated padded slots the format would allocate for a matrix with
    /// this structure (used by viability and storage estimates; `nnz` for
    /// unpadded formats). Estimates are *upper bounds* from the histogram
    /// statistics; exact counts require the conversion itself.
    padded_slots: fn(&StructuralSummary) -> usize,
}

/// The registry rows, in format-ID order.
static REGISTRY: [FormatEntry; FORMAT_COUNT] = [
    FormatEntry {
        id: FormatId::Coo,
        traits: FormatTraits { padded: false, parameterized: false, hybrid: false },
        padded_slots: |s| s.nnz,
    },
    FormatEntry {
        id: FormatId::Csr,
        traits: FormatTraits { padded: false, parameterized: false, hybrid: false },
        padded_slots: |s| s.nnz,
    },
    FormatEntry {
        id: FormatId::Dia,
        traits: FormatTraits { padded: true, parameterized: false, hybrid: false },
        // Each populated diagonal is stored at full row length.
        padded_slots: |s| s.ndiags.saturating_mul(s.nrows),
    },
    FormatEntry {
        id: FormatId::Ell,
        traits: FormatTraits { padded: true, parameterized: false, hybrid: false },
        // Every row padded to the global maximum width.
        padded_slots: |s| s.row_max.saturating_mul(s.nrows),
    },
    FormatEntry {
        id: FormatId::Hyb,
        traits: FormatTraits { padded: true, parameterized: false, hybrid: true },
        // The auto split picks the ELL width *subject to* the fill limit and
        // spills the surplus to COO, so conversion succeeds by construction
        // and padding never exceeds the allowance: always viable.
        padded_slots: |s| s.nnz,
    },
    FormatEntry {
        id: FormatId::Hdc,
        traits: FormatTraits { padded: true, parameterized: false, hybrid: true },
        // True diagonals are at least alpha-full by construction and the CSR
        // remainder absorbs everything else, so the hybrid adapts to the
        // structure instead of failing: always viable.
        padded_slots: |s| s.nnz,
    },
    FormatEntry {
        id: FormatId::Bsr,
        traits: FormatTraits { padded: true, parameterized: true, hybrid: false },
        // Worst case one entry per block (r*c slots each), but never more
        // blocks than the block grid holds — dense matrices fill their
        // blocks and must not be rejected. Uses the default block dims.
        padded_slots: |s| {
            let (r, c) = crate::params::FormatParams::default().normalized_block();
            let grid = s.nrows.div_ceil(r).saturating_mul(s.ncols.div_ceil(c));
            (r * c).saturating_mul(s.nnz.min(grid))
        },
    },
    FormatEntry {
        id: FormatId::Bell,
        traits: FormatTraits { padded: true, parameterized: true, hybrid: false },
        // The power-of-two ladder bounds per-row padding by 2x.
        padded_slots: |s| 2 * s.nnz,
    },
];

impl FormatEntry {
    /// Every registered format, in format-ID order.
    pub fn all() -> &'static [FormatEntry; FORMAT_COUNT] {
        &REGISTRY
    }

    /// The entry for `id`.
    pub fn of(id: FormatId) -> &'static FormatEntry {
        &REGISTRY[id.index()]
    }

    /// Estimated padded slots for a matrix with this structure.
    pub fn padded_slots(&self, s: &StructuralSummary) -> usize {
        (self.padded_slots)(s)
    }

    /// Whether the format can hold this structure within the given padding
    /// allowance, in slots: the conversions' own guard
    /// ([`crate::convert`]'s "Padding guards") applied to the estimated
    /// slots. Padding beyond the allowance means the conversion itself
    /// would fail, so the tuner must not predict the format.
    pub fn is_viable(&self, s: &StructuralSummary, allowance: usize) -> bool {
        !self.traits.padded
            || crate::convert::guard_padding(self.id, self.padded_slots(s), s.nnz, allowance).is_ok()
    }

    /// Estimated heap bytes per structural non-zero when storing a matrix
    /// with this structure (index + value traffic; a coarse tie-breaker
    /// for storage-bound callers).
    pub fn bytes_per_nnz(&self, s: &StructuralSummary, scalar_bytes: usize) -> f64 {
        let padded = self.padded_slots(s).max(1);
        let idx = std::mem::size_of::<usize>() as f64;
        match self.id {
            FormatId::Coo => 2.0 * idx + scalar_bytes as f64,
            FormatId::Csr => idx + scalar_bytes as f64,
            // One block-column index per ~block, amortised over r*c slots.
            FormatId::Bsr => {
                let (r, c) = crate::params::FormatParams::default().normalized_block();
                scalar_bytes as f64 * padded as f64 / s.nnz.max(1) as f64 + idx / (r * c) as f64
            }
            _ => (idx + scalar_bytes as f64) * padded as f64 / s.nnz.max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::ConvertOptions;
    use crate::dynamic::DynamicMatrix;
    use crate::format::ALL_FORMATS;
    use crate::plan::ExecPlan;
    use crate::spmv::spmv_serial;
    use crate::test_util::random_coo;
    use morpheus_parallel::ThreadPool;

    #[test]
    fn registry_covers_every_format_in_id_order() {
        assert_eq!(FormatEntry::all().len(), ALL_FORMATS.len());
        for (i, entry) in FormatEntry::all().iter().enumerate() {
            assert_eq!(entry.id.index(), i);
            assert_eq!(FormatEntry::of(entry.id).id, entry.id);
        }
    }

    /// The registry-completeness gate: every registered format must have a
    /// working converter (COO roundtrip), a serial SpMV kernel, SpMM
    /// kernels, and an `ExecPlan` builder with its ranged kernels. A format that compiles but
    /// was not wired end to end fails here, not in production dispatch.
    #[test]
    fn every_registered_format_is_wired_end_to_end() {
        let coo = random_coo::<f64>(48, 40, 340, 17);
        let base = DynamicMatrix::from(coo.clone());
        let opts = ConvertOptions { min_padded_allowance: 1 << 22, ..Default::default() };
        let pool = ThreadPool::new(3);
        let x: Vec<f64> = (0..40).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut y_ref = vec![0.0f64; 48];
        spmv_serial(&base, &x, &mut y_ref).unwrap();

        for entry in FormatEntry::all() {
            // Converter: reachable from COO and exact on the way back.
            let m = base
                .to_format(entry.id, &opts)
                .unwrap_or_else(|e| panic!("{}: registered format lacks a conversion path: {e}", entry.id));
            assert_eq!(m.format_id(), entry.id);
            assert_eq!(m.to_coo(), coo, "{}: COO roundtrip", entry.id);

            // Serial kernel.
            let mut y = vec![f64::NAN; 48];
            spmv_serial(&m, &x, &mut y).unwrap();
            for i in 0..48 {
                assert!((y[i] - y_ref[i]).abs() <= 1e-10 * (1.0 + y_ref[i].abs()), "{}", entry.id);
            }

            // Plan builder + planned execution.
            let plan = ExecPlan::build(&m, 3, None);
            assert!(plan.matches(&m), "{}: plan does not fit its own matrix", entry.id);
            let mut yp = vec![f64::NAN; 48];
            plan.spmv(&m, &x, &mut yp, &pool).unwrap();
            for i in 0..48 {
                assert!((yp[i] - y_ref[i]).abs() <= 1e-10 * (1.0 + y_ref[i].abs()), "{}", entry.id);
            }

            // SpMM kernel.
            let k = 3usize;
            let xb = vec![1.0f64; 40 * k];
            let mut yb = vec![f64::NAN; 48 * k];
            crate::spmm::spmm_serial(&m, &xb, &mut yb, k).unwrap();
            assert!(yb.iter().all(|v| v.is_finite()), "{}", entry.id);

            // Name table.
            assert_eq!(FormatId::from_name(entry.id.name()), Some(entry.id));
        }
    }

    #[test]
    fn viability_mirrors_conversion_guards() {
        // Hypersparse with one long row: ELL must be non-viable under the
        // default allowance, unpadded formats always viable.
        let n = 50_000usize;
        let mut rows: Vec<usize> = (0..400).map(|k| (k * 97) % n).collect();
        let mut cols: Vec<usize> = (0..400).map(|k| (k * 31) % n).collect();
        for k in 0..3000 {
            rows.push(7);
            cols.push((k * 13) % n);
        }
        let vals = vec![1.0f64; rows.len()];
        let coo = crate::CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap();
        let m = DynamicMatrix::from(coo);
        let stats = crate::stats::stats_of(&m, 0.2);
        let s = StructuralSummary::from_stats(&stats);
        let opts = ConvertOptions::default();
        let allowance = ((opts.max_fill * s.nnz as f64) as usize).max(opts.min_padded_allowance);

        for entry in FormatEntry::all() {
            let viable = entry.is_viable(&s, allowance);
            let converts = m.to_format(entry.id, &opts).is_ok();
            // Viability may be conservative (false negatives forbidden):
            // whenever the registry says viable=false, conversion must
            // indeed fail; whenever conversion succeeds, the registry must
            // have said viable.
            assert!(viable || !converts, "{}: registry said non-viable but conversion succeeded", entry.id);
        }
        assert!(!FormatEntry::of(FormatId::Ell).is_viable(&s, allowance));
        assert!(FormatEntry::of(FormatId::Csr).is_viable(&s, allowance));
        assert!(FormatEntry::of(FormatId::Bell).is_viable(&s, allowance));
    }

    /// One guard with one meaning: at `padded == allowance + 1` slots every
    /// padded conversion is refused and the registry calls the structure
    /// non-viable; at `padded == allowance` the conversion goes through.
    /// Each format gets a structure its estimate bounds from above.
    #[test]
    fn padding_one_slot_over_the_allowance_is_refused_and_not_viable() {
        let (r, c) = crate::params::FormatParams::default().normalized_block();
        let n = 48usize;
        let coo_of = |entries: Vec<(usize, usize)>| {
            let (rows, cols): (Vec<usize>, Vec<usize>) = entries.into_iter().unzip();
            let vals = vec![1.0f64; rows.len()];
            DynamicMatrix::from(crate::CooMatrix::from_triplets(n, n, &rows, &cols, &vals).unwrap())
        };
        let band = |i: usize| (i.saturating_sub(1)..(i + 2).min(n)).map(move |j| (i, j));
        for entry in FormatEntry::all().iter().filter(|e| e.traits.padded) {
            let m = match entry.id {
                // Ragged rows: one to four entries each.
                FormatId::Ell => coo_of((0..n).flat_map(|i| (0..i % 4 + 1).map(move |j| (i, j))).collect()),
                // Three entries in every row: no spill, no padding.
                FormatId::Hyb => coo_of((0..n).flat_map(|i| (0..3).map(move |d| (i, (i + d) % n))).collect()),
                // The main diagonal: one true diagonal, no remainder.
                FormatId::Hdc => coo_of((0..n).map(|i| (i, i)).collect()),
                // One entry per block.
                FormatId::Bsr => coo_of((0..n / r.max(c)).map(|k| (k * r, k * c)).collect()),
                _ => coo_of((0..n).flat_map(band).collect()),
            };
            let s = StructuralSummary::from_stats(&crate::stats::stats_of(&m, 0.2));
            let with_allowance =
                |slots| ConvertOptions { max_fill: 0.0, min_padded_allowance: slots, ..Default::default() };
            let padded = match m.to_format(entry.id, &with_allowance(0)) {
                Err(crate::MorpheusError::ExcessivePadding { padded, .. }) => padded,
                other => panic!("{}: expected a refusal at allowance 0, got {other:?}", entry.id),
            };
            assert!(padded >= s.nnz, "{}: {padded} slots hold {} entries", entry.id, s.nnz);
            match m.to_format(entry.id, &with_allowance(padded - 1)) {
                Err(crate::MorpheusError::ExcessivePadding { padded: p, limit, .. }) => {
                    assert_eq!((p, limit), (padded, padded - 1), "{}", entry.id)
                }
                other => {
                    panic!("{}: {padded} slots over an allowance of {}: {other:?}", entry.id, padded - 1)
                }
            }
            assert!(!entry.is_viable(&s, padded - 1), "{}: viable one slot over the allowance", entry.id);
            assert!(
                m.to_format(entry.id, &with_allowance(padded)).is_ok(),
                "{}: refused at the allowance",
                entry.id
            );
        }
    }

    #[test]
    fn traits_describe_the_pool() {
        assert!(!FormatEntry::of(FormatId::Coo).traits.padded);
        assert!(FormatEntry::of(FormatId::Ell).traits.padded);
        assert!(FormatEntry::of(FormatId::Bsr).traits.parameterized);
        assert!(FormatEntry::of(FormatId::Bell).traits.parameterized);
        assert!(FormatEntry::of(FormatId::Hyb).traits.hybrid);
        let n_param = FormatEntry::all().iter().filter(|e| e.traits.parameterized).count();
        assert_eq!(n_param, 2, "BSR and BELL carry layout parameters");
    }
}
