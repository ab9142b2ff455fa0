//! OpenMP-analog parallel runtime used by the Morpheus threaded backend.
//!
//! The paper's "OpenMP" backend maps onto this crate: a fork–join pool —
//! the calling thread plus persistent workers with fixed indices — that runs
//! one closure once per index ([`ThreadPool::run_on_all`]). Which work an
//! index does is the caller's business and is decided ahead of the call:
//! the partition helpers here ([`static_partition`], [`weighted_partition`],
//! [`row_aligned_partition`]) cut a loop into one range per index, an
//! execution plan keeps the ranges, and every execution replays them. There
//! is no per-call scheduling policy: SpMV is a bandwidth-bound loop, and a
//! static/dynamic/guided knob re-derives on every call what depends only on
//! the matrix.
//!
//! The pool is deliberately small and predictable rather than work-stealing.
//! One dispatch is one published `(body, epoch)` pair: the caller runs its
//! own share and waits for a counter, workers poll briefly before parking,
//! so a dispatch onto awake workers costs well under a microsecond.
//!
//! The pool is safe to drive from any number of client threads at once
//! (the Oracle serving layer does exactly that): one batch is dispatched at
//! a time, and a caller that finds another client's batch dispatched — like
//! a nested parallel region — runs its loop inline on its own thread
//! instead of queueing or deadlocking. [`ThreadPool::is_busy`] exposes the
//! advisory signal so callers with a cheaper serial kernel can take that
//! instead — see the notes on [`ThreadPool`]'s module.
//!
//! # Example
//! ```
//! use morpheus_parallel::{static_partition, ThreadPool};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let pool = ThreadPool::new(4);
//! let parts = static_partition(1000, pool.num_threads());
//! let sum = AtomicUsize::new(0);
//! pool.run_on_all(&|w| {
//!     if let Some(part) = parts.get(w) {
//!         sum.fetch_add(part.clone().sum(), Ordering::Relaxed);
//!     }
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
//! ```

mod pool;
mod shared;

pub use pool::{global_pool, panic_message, QueueWaitObserver, ThreadPool};
pub use shared::SharedSlice;

/// Splits `0..len` into at most `parts` contiguous, nearly-equal ranges.
///
/// The first `len % parts` ranges are one element longer, matching the
/// partition OpenMP uses for `schedule(static)` without a chunk size. Used
/// both by the runtime itself and by the machine model when it estimates
/// load imbalance from the real row distribution.
pub fn static_partition(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if parts == 0 || len == 0 {
        return Vec::new();
    }
    let parts = parts.min(len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let sz = base + usize::from(p < extra);
        out.push(start..start + sz);
        start += sz;
    }
    debug_assert_eq!(start, len);
    out
}

/// Splits `0..len` into contiguous ranges whose *weights* (e.g. non-zeros
/// per row) are as balanced as possible, one range per part.
///
/// This is the partition a CSR execution plan holds. `weights` must have
/// length `len`. Greedy prefix splitting at the ideal weight
/// boundaries; every element lands in exactly one range.
pub fn weighted_partition(weights: &[usize], parts: usize) -> Vec<std::ops::Range<usize>> {
    weighted_partition_with(weights.len(), parts, |i| weights[i])
}

/// [`weighted_partition`] reading weights through a function instead of a
/// materialised slice.
///
/// Callers that can answer "weight of element `i`" in O(1) — a CSR matrix
/// differencing its `row_offsets`, an `Analysis` reading its row histogram —
/// avoid allocating and filling a `len`-sized weights vector just to
/// partition. The weight function is called twice per element (once for the
/// total, once while splitting); results are identical to
/// [`weighted_partition`] on the materialised weights.
pub fn weighted_partition_with(
    len: usize,
    parts: usize,
    weight: impl Fn(usize) -> usize,
) -> Vec<std::ops::Range<usize>> {
    if parts == 0 || len == 0 {
        return Vec::new();
    }
    let parts = parts.min(len);
    let total: usize = (0..len).map(&weight).sum();
    if total == 0 {
        return static_partition(len, parts);
    }
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0usize;
    let mut consumed = 0usize;
    for p in 0..parts {
        if start >= len {
            break;
        }
        // Target cumulative weight at the end of this part.
        let target = (total - consumed).div_ceil(parts - p) + consumed;
        let mut end = start;
        while end < len && (acc < target || end == start) {
            // Leave at least one element per remaining part.
            if len - end < parts - p {
                break;
            }
            acc += weight(end);
            end += 1;
        }
        if end == start {
            end = start + 1;
            acc += weight(start);
        }
        consumed = acc;
        out.push(start..end);
        start = end;
    }
    if start < len {
        match out.last_mut() {
            Some(last) => last.end = len,
            None => out.push(0..len),
        }
    }
    out
}

/// Splits the index space of a *sorted* row array (e.g. COO row indices)
/// into at most `parts` contiguous chunks whose boundaries never split a
/// row: every index `i` with `rows[i] == rows[i - 1]` stays in the same
/// chunk as `i - 1`.
///
/// This is the partition a COO execution plan holds, so that per-row outputs
/// have exactly one writer.
/// Starting from [`static_partition`], each boundary is pushed forward to
/// the next row change; because the static partition tiles `0..rows.len()`
/// exactly and boundaries only ever move forward, the aligned chunks tile
/// it too.
pub fn row_aligned_partition(rows: &[usize], parts: usize) -> Vec<std::ops::Range<usize>> {
    let nnz = rows.len();
    let mut chunks: Vec<std::ops::Range<usize>> = Vec::new();
    let mut start = 0usize;
    for r in &static_partition(nnz, parts) {
        // `r.end >= 1` (static partitions are never empty), so `end - 1` is
        // safe. Push the boundary forward until the row changes.
        let mut end = r.end;
        while end < nnz && rows[end] == rows[end - 1] {
            end += 1;
        }
        if end > start {
            chunks.push(start..end);
        }
        start = end;
        if start >= nnz {
            break;
        }
    }
    debug_assert!(
        nnz == 0 || chunks.last().is_some_and(|c| c.end == nnz),
        "static_partition tiles 0..nnz, so the aligned chunks must end at nnz"
    );
    chunks
}

#[cfg(test)]
mod partition_tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn static_partition_covers_all() {
        for len in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 64] {
                let ranges = static_partition(len, parts);
                let mut covered = 0;
                let mut prev_end = 0;
                for r in &ranges {
                    assert_eq!(r.start, prev_end);
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, len);
                if len > 0 {
                    assert_eq!(ranges.last().unwrap().end, len);
                }
            }
        }
    }

    #[test]
    fn static_partition_balanced() {
        let ranges = static_partition(10, 3);
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn static_partition_more_parts_than_items() {
        let ranges = static_partition(3, 10);
        assert_eq!(ranges.len(), 3);
        assert!(ranges.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn weighted_partition_covers_all() {
        let weights = vec![1usize, 100, 1, 1, 1, 1, 100, 1];
        for parts in 1..=8 {
            let ranges = weighted_partition(&weights, parts);
            let mut prev_end = 0;
            for r in &ranges {
                assert_eq!(r.start, prev_end);
                prev_end = r.end;
            }
            assert_eq!(prev_end, weights.len());
        }
    }

    #[test]
    fn weighted_partition_balances_skew() {
        // One heavy row: with 2 parts the heavy row should sit alone-ish.
        let mut weights = vec![1usize; 100];
        weights[0] = 1000;
        let ranges = weighted_partition(&weights, 2);
        assert_eq!(ranges.len(), 2);
        let w0: usize = ranges[0].clone().map(|i| weights[i]).sum();
        let w1: usize = ranges[1].clone().map(|i| weights[i]).sum();
        // Heavy part should not also swallow most light rows.
        assert!(w0 >= w1);
        assert!(ranges[0].len() < 20, "heavy part took {} rows", ranges[0].len());
    }

    #[test]
    fn weighted_partition_zero_weights() {
        let weights = vec![0usize; 10];
        let ranges = weighted_partition(&weights, 4);
        let covered: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn weighted_partition_with_matches_slice_variant() {
        let weights = vec![3usize, 0, 0, 17, 1, 1, 1, 9, 2, 0, 4];
        for parts in 1..=12 {
            assert_eq!(
                weighted_partition_with(weights.len(), parts, |i| weights[i]),
                weighted_partition(&weights, parts),
                "parts={parts}"
            );
        }
    }

    #[test]
    fn weighted_partition_empty() {
        assert!(weighted_partition(&[], 4).is_empty());
        assert!(weighted_partition(&[1, 2, 3], 0).is_empty());
    }

    #[test]
    fn row_aligned_partition_single_giant_row() {
        let rows = vec![5usize; 100];
        let chunks = row_aligned_partition(&rows, 8);
        assert_eq!(chunks, vec![0..100]);
    }

    #[test]
    fn row_aligned_partition_empty() {
        assert!(row_aligned_partition(&[], 4).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Aligned chunks always tile `0..nnz` exactly, never split a row,
        /// and never exceed the requested part count.
        #[test]
        fn row_aligned_partition_tiles_without_splitting_rows(
            run_lengths in proptest::collection::vec(1usize..9, 0..40),
            parts in 1usize..12,
        ) {
            // Build a sorted row array from per-row run lengths (some rows
            // empty is fine: absent rows simply do not appear).
            let mut rows = Vec::new();
            for (row, len) in run_lengths.iter().enumerate() {
                rows.extend(std::iter::repeat_n(row, *len));
            }
            let chunks = row_aligned_partition(&rows, parts);
            prop_assert!(chunks.len() <= parts);
            let mut prev_end = 0usize;
            for c in &chunks {
                prop_assert_eq!(c.start, prev_end);
                prop_assert!(c.end > c.start);
                if c.start > 0 {
                    prop_assert!(
                        rows[c.start] != rows[c.start - 1],
                        "chunk boundary at {} splits row {}", c.start, rows[c.start]
                    );
                }
                prev_end = c.end;
            }
            prop_assert_eq!(prev_end, rows.len());
        }
    }
}
